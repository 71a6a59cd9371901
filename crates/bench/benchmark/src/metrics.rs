//! The metric dictionary, the statistics the benchmark reports, and the
//! verdict rules `benchmark compare` applies. `BENCHMARK.json` at the
//! repository root mirrors [`END_TO_END`] and [`PER_LAYER`]; a unit test
//! keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub layer: &'static str,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: f64,
    /// End-to-end metrics only: an absolute allowance, in the metric's unit,
    /// used when it is larger than `bound` × median. Sub-second set-up
    /// times jitter by more than a share of themselves.
    pub floor: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        layer: "end-to-end",
        bound,
        floor: 0.0,
    }
}

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: Better,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        layer,
        bound: 0.0,
        floor: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the survey waits for and pays, per workload.
/// `fail_ratio` reads 0 on a healthy tree, so `BENCHMARK.json` carries it
/// as the `failed`/`attempted` pair instead of as a metric.
pub const END_TO_END: &[Metric] = &[
    e2e("wall_s", "s", Lower, 0.25),
    Metric {
        floor: 0.1,
        ..e2e("setup_s", "s", Lower, 0.25)
    },
    e2e("probes_per_s", "probes/s", Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.10),
    e2e("fail_ratio", "ratio", Lower, 0.0),
];

/// One entry per layer measurement; README.md maps each to the
/// end-to-end metric and workload it should move.
pub const PER_LAYER: &[Metric] = &[
    layer("worldgen", "worldgen.build_s", "s", Lower),
    layer("worldgen", "worldgen.rss_mib", "MiB", Lower),
    layer("worldgen", "worldgen.hosts", "count", Higher),
    layer("targets", "targets.extract_s", "s", Lower),
    layer("targets", "targets.count", "count", Higher),
    layer("schedule", "schedule.census_s", "s", Lower),
    layer("schedule", "schedule.build_s", "s", Lower),
    layer("schedule", "schedule.probes", "count", Higher),
    layer("schedule", "schedule.lanes", "count", Higher),
    layer("schedule", "schedule.targets_per_s", "targets/s", Higher),
    layer("shard", "shard.spawn_s", "s", Lower),
    layer("shard", "shard.run_s", "s", Lower),
    layer("shard", "shard.run_sum_s", "s", Lower),
    layer("shard", "shard.imbalance", "ratio", Lower),
    layer("shard", "shard.extract_s", "s", Lower),
    layer("shard", "merge_s", "s", Lower),
    layer("netsim", "netsim.events", "count", Lower),
    layer("netsim", "netsim.events_per_s", "events/s", Higher),
    layer("netsim", "netsim.sent", "count", Lower),
    layer("netsim", "netsim.delivered", "count", Higher),
    layer("netsim", "netsim.drops", "count", Lower),
    layer("netsim", "netsim.fault_drops", "count", Lower),
    layer("netsim", "netsim.duplicated", "count", Lower),
    layer("netsim", "netsim.lpm.ns_per_lookup", "ns", Lower),
    layer("netsim", "netsim.lpm.lookups", "count", Higher),
    layer("dns", "dns.client_queries", "count", Higher),
    layer("dns", "dns.upstream_queries", "count", Lower),
    layer("dns", "dns.cache_hit_ratio", "ratio", Higher),
    layer("dns", "dns.tcp_retries", "count", Lower),
    layer("dns", "dns.servfail", "count", Lower),
    layer("dns", "log.entries", "count", Higher),
    layer("dnswire", "dnswire.encode_ns", "ns", Lower),
    layer("dnswire", "dnswire.decode_ns", "ns", Lower),
    layer("dnswire", "dnswire.view_ns", "ns", Lower),
    layer("dnswire", "dnswire.ops", "count", Higher),
    layer("qname", "qname.encode_ns", "ns", Lower),
    layer("qname", "qname.decode_ns", "ns", Lower),
    layer("qname", "qname.ops", "count", Higher),
    layer("scanner", "scanner.spoofed_sent", "count", Higher),
    layer("scanner", "scanner.followup_queries", "count", Higher),
    layer("scanner", "scanner.yield", "ratio", Higher),
    layer("span", "span.recorded", "count", Higher),
    layer("span", "span.evicted", "count", Lower),
    layer("crp", "crp.run_s", "s", Lower),
    layer("crp", "crp.probes", "count", Higher),
    layer("crp", "crp.events", "count", Lower),
    layer("agreement", "agreement_s", "s", Lower),
    layer("analysis", "analysis_s", "s", Lower),
    layer("analysis", "analysis.reachability_s", "s", Lower),
    layer("analysis", "analysis.ports_s", "s", Lower),
    layer("report", "report_s", "s", Lower),
    layer("report", "report.lab_s", "s", Lower),
    layer("invariants", "invariants_s", "s", Lower),
    layer("proc", "proc.cpu_s", "s", Lower),
    layer("proc", "proc.core_util", "ratio", Higher),
    layer("bench", "bench.trace_overhead_pct", "%", Lower),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// True for metrics that must read the same in every run of a workload:
/// the program is deterministic for a fixed seed and layout.
pub fn is_count(name: &str) -> bool {
    find(name).is_some_and(|m| m.unit == "count")
}

/// Median, quartiles and sample count of one metric over a set of runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&v);
        Some(Summary {
            median,
            q1,
            q3,
            n: v.len(),
        })
    }

    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Quartiles of sorted data by the method of Python's
/// `statistics.quantiles(data, n=4)` (the default, "exclusive"), so the
/// spreads printed here are the ones a Python check computes. The middle
/// value equals `statistics.median`.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let len = sorted.len();
    if len == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unchanged,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The change allowed before `metric` counts as moved, at a parent median.
pub fn allowance(metric: &Metric, parent_median: f64) -> f64 {
    (metric.bound * parent_median.abs()).max(metric.floor)
}

/// Judge one end-to-end metric on one workload from the parent's and the
/// change's per-run values.
///
/// A change is regressed (improved) when its median is worse (better) than
/// the parent's by more than the allowance and the spread does not hide
/// it: both IQRs fit inside the allowance, or every change run is worse
/// (better) than every parent run. Otherwise a spread wider than the
/// allowance leaves the metric unresolved, unless every change run reads
/// better than every parent run; anything else is unchanged.
pub fn verdict(metric: &Metric, parent: &[f64], change: &[f64]) -> Option<Verdict> {
    let p = Summary::of(parent)?;
    let c = Summary::of(change)?;
    let allowed = allowance(metric, p.median);
    let worse_by = match metric.better {
        Better::Lower => c.median - p.median,
        Better::Higher => p.median - c.median,
    };
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let (all_better, all_worse) = match metric.better {
        Better::Lower => (max(change) < min(parent), min(change) > max(parent)),
        Better::Higher => (min(change) > max(parent), max(change) < min(parent)),
    };
    let wide = p.iqr().max(c.iqr()) > allowed;
    Some(if worse_by > allowed && (all_worse || !wide) {
        Verdict::Regressed
    } else if -worse_by > allowed && (all_better || !wide) {
        Verdict::Improved
    } else if wide && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static Metric {
        find(name).unwrap()
    }

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        let s = Summary::of(&[9.0, 1.0, 5.0]).unwrap();
        assert_eq!((s.median, s.n), (5.0, 3));
        assert_eq!(Summary::of(&[4.0]).unwrap().iqr(), 0.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let wall = metric("wall_s");
        let parent = [10.0, 10.1, 10.2, 9.9, 10.0];
        let same = [10.05, 10.1, 9.95, 10.0, 10.15];
        let slow = [13.0, 13.1, 12.9, 13.0, 13.2];
        let fast = [7.0, 7.1, 6.9, 7.0, 7.2];
        assert_eq!(verdict(wall, &parent, &same), Some(Verdict::Unchanged));
        assert_eq!(verdict(wall, &parent, &slow), Some(Verdict::Regressed));
        assert_eq!(verdict(wall, &parent, &fast), Some(Verdict::Improved));
        // Higher-is-better flips the sign.
        let rate = metric("probes_per_s");
        assert_eq!(verdict(rate, &parent, &slow), Some(Verdict::Improved));
        assert_eq!(verdict(rate, &parent, &fast), Some(Verdict::Regressed));
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let wall = metric("wall_s");
        let noisy = [7.0, 13.0, 10.0, 8.0, 12.0];
        let within = [10.5, 10.6, 10.4, 10.5, 10.6];
        assert_eq!(verdict(wall, &noisy, &within), Some(Verdict::Unresolved));
        // Every change run beats every parent run: the spread hides nothing.
        let parent = [10.0, 11.5, 10.6, 10.2, 11.2];
        let change = [9.9, 9.95, 9.8, 9.85, 9.9];
        assert_eq!(verdict(wall, &parent, &change), Some(Verdict::Unchanged));
        // Every change run is far worse than every parent run.
        let worse = [14.0, 15.0, 16.0, 14.5, 15.5];
        assert_eq!(verdict(wall, &noisy, &worse), Some(Verdict::Regressed));
    }

    #[test]
    fn setup_has_an_absolute_floor() {
        let setup = metric("setup_s");
        // 0.20 s → 0.28 s is +40%, beyond the 25% share but inside 0.1 s.
        let parent = [0.20, 0.20, 0.21, 0.19, 0.20];
        let change = [0.28, 0.28, 0.29, 0.27, 0.28];
        assert_eq!(allowance(setup, 0.20), 0.1);
        assert_eq!(verdict(setup, &parent, &change), Some(Verdict::Unchanged));
        // Above the floor the share applies: 20 s → 26 s regresses.
        let parent = [20.0, 20.1, 19.9, 20.0, 20.0];
        let change = [26.0, 26.1, 25.9, 26.0, 26.0];
        assert_eq!(allowance(setup, 20.0), 5.0);
        assert_eq!(verdict(setup, &parent, &change), Some(Verdict::Regressed));
    }

    #[test]
    fn any_failure_increase_regresses() {
        let fail = metric("fail_ratio");
        assert_eq!(
            verdict(fail, &[0.0], &[1.0 / 6.0]),
            Some(Verdict::Regressed)
        );
        assert_eq!(verdict(fail, &[0.0], &[0.0]), Some(Verdict::Unchanged));
    }

    #[test]
    fn benchmark_json_mirrors_the_dictionary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = crate::json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).unwrap().as_str().unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let ours = |set: &[Metric]| -> Vec<(String, String, String)> {
            set.iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
                .collect()
        };
        let e2e: Vec<Metric> = END_TO_END
            .iter()
            .filter(|m| m.name != "fail_ratio")
            .copied()
            .collect();
        assert_eq!(listed("end_to_end"), ours(&e2e));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
        for m in &e2e {
            let row = doc
                .get("end_to_end")
                .unwrap()
                .as_arr()
                .iter()
                .find(|r| r.get("name").unwrap().as_str() == Some(m.name))
                .unwrap();
            assert_eq!(
                row.get("bound").unwrap().as_f64(),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        let ours: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }
}
