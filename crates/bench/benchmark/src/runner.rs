//! The parent side: every run is a fresh child process of this binary (a
//! clean `VmHWM`, no allocator state carried between workloads, and a
//! crash that is counted instead of fatal). At most one child runs at a
//! time.

use crate::json::{self, obj, Json};
use crate::metrics::{self, Summary};
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// One run of one workload, as the parent saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    pub workload: String,
    pub run: u32,
    pub traced: bool,
    pub ok: bool,
    pub reasons: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    pub digests: BTreeMap<String, String>,
    /// Self time per span name; traced runs only.
    pub self_s: BTreeMap<String, f64>,
}

impl Run {
    fn failed(workload: &str, run: u32, traced: bool, reason: String) -> Run {
        Run {
            workload: workload.to_string(),
            run,
            traced,
            ok: false,
            reasons: vec![reason],
            metrics: BTreeMap::new(),
            digests: BTreeMap::new(),
            self_s: BTreeMap::new(),
        }
    }

    /// The JSONL record of this run.
    pub fn to_json(&self) -> Json {
        obj([
            ("type", Json::from("run")),
            ("workload", Json::from(self.workload.as_str())),
            ("run", Json::Num(self.run as f64)),
            ("traced", Json::Bool(self.traced)),
            ("ok", Json::Bool(self.ok)),
            (
                "reasons",
                Json::Arr(
                    self.reasons
                        .iter()
                        .map(|r| Json::from(r.as_str()))
                        .collect(),
                ),
            ),
            ("metrics", Json::from(&self.metrics)),
            ("digests", Json::from(&self.digests)),
            ("self_s", Json::from(&self.self_s)),
        ])
    }

    /// Read a run back from a JSONL record, or from a child's result (which
    /// lacks the identity fields the parent supplies).
    pub fn from_json(v: &Json, workload: &str, run: u32, traced: bool) -> Run {
        Run {
            workload: v
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or(workload)
                .to_string(),
            run: v
                .get("run")
                .and_then(Json::as_f64)
                .map_or(run, |r| r as u32),
            traced: v.get("traced").and_then(Json::as_bool).unwrap_or(traced),
            ok: v.get("ok").and_then(Json::as_bool).unwrap_or(false),
            reasons: v
                .get("reasons")
                .map(|r| {
                    r.as_arr()
                        .iter()
                        .filter_map(|s| s.as_str().map(String::from))
                        .collect()
                })
                .unwrap_or_default(),
            metrics: v.get("metrics").map(Json::num_map).unwrap_or_default(),
            digests: v.get("digests").map(Json::str_map).unwrap_or_default(),
            self_s: v.get("self_s").map(Json::num_map).unwrap_or_default(),
        }
    }
}

/// Run `w` once in a child process and wait for it, killing it after
/// `timeout`. Every `BCD_*` variable is removed from the child's
/// environment: they would swap in differential oracles, change the shard
/// layout or arm observability sinks.
pub fn spawn(
    w: &Workload,
    seed: u64,
    run: u32,
    traced: bool,
    trace_out: Option<&Path>,
    timeout: Duration,
) -> Run {
    let fail = |reason: String| Run::failed(w.name, run, traced, reason);
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return fail(format!("cannot locate own executable: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--run", &run.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("BCD_") {
            cmd.env_remove(key);
        }
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return fail(format!("spawn failed: {e}")),
    };
    let mut stdout = child.stdout.take().expect("child stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let start = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if start.elapsed() < timeout => std::thread::sleep(Duration::from_millis(50)),
            Ok(None) => break Err(format!("timed out after {:.0} s", timeout.as_secs_f64())),
            Err(e) => break Err(format!("wait failed: {e}")),
        }
    };
    if status.is_err() {
        let _ = child.kill();
        let _ = child.wait();
    }
    let text = reader.join().unwrap_or_default();
    match status {
        Err(reason) => fail(reason),
        Ok(status) if !status.success() => fail(format!("child {status}")),
        Ok(_) => match text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .map(json::parse)
        {
            Some(Ok(v)) => Run::from_json(&v, w.name, run, traced),
            _ => fail("child printed no result".into()),
        },
    }
}

/// The cross-run half of the correctness gate, over the runs of one
/// workload: every digest and every count must equal the first successful
/// run's. A run that differs is marked failed.
pub fn cross_check(runs: &mut [Run]) {
    let Some(first) = runs.iter().find(|r| r.ok).cloned() else {
        return;
    };
    for r in runs.iter_mut().filter(|r| r.ok) {
        for (key, want) in &first.digests {
            let got = r.digests.get(key).map_or("missing", String::as_str);
            if got != want {
                r.reasons.push(format!(
                    "{key} digest {got} differs from run {}'s {want}",
                    first.run
                ));
            }
        }
        for (key, want) in first.metrics.iter().filter(|(k, _)| metrics::is_count(k)) {
            if let Some(got) = r.metrics.get(key).filter(|got| *got != want) {
                r.reasons.push(format!(
                    "count {key} = {got} differs from run {}'s {want}",
                    first.run
                ));
            }
        }
        r.ok = r.reasons.is_empty();
    }
}

/// Share of attempted runs that failed.
pub fn fail_ratio(runs: &[Run]) -> f64 {
    if runs.is_empty() {
        return 0.0;
    }
    runs.iter().filter(|r| !r.ok).count() as f64 / runs.len() as f64
}

/// The values a metric takes over a workload's runs: the successful
/// untraced runs, or the traced run for metrics only it measures (the
/// kernel replays). `fail_ratio` and `bench.trace_overhead_pct` are one
/// value per set of runs.
pub fn values(runs: &[Run], name: &str) -> Vec<f64> {
    let of = |name: &str, traced: bool| -> Vec<f64> {
        runs.iter()
            .filter(|r| r.ok && r.traced == traced)
            .filter_map(|r| r.metrics.get(name).copied())
            .collect()
    };
    match name {
        "fail_ratio" => vec![fail_ratio(runs)],
        "bench.trace_overhead_pct" => {
            let base = Summary::of(&of("wall_s", false)).map(|s| s.median);
            match (base, of("wall_s", true).first()) {
                (Some(b), Some(t)) if b > 0.0 => vec![100.0 * (t - b) / b],
                _ => Vec::new(),
            }
        }
        _ => {
            let timed = of(name, false);
            if timed.is_empty() {
                of(name, true)
            } else {
                timed
            }
        }
    }
}

/// Median, quartiles and count of a metric over a workload's runs.
pub fn summary(runs: &[Run], name: &str) -> Option<Summary> {
    Summary::of(&values(runs, name))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(n: u32, digest: &str, events: f64) -> Run {
        Run {
            workload: "paper_all".into(),
            run: n,
            traced: false,
            ok: true,
            reasons: Vec::new(),
            metrics: BTreeMap::from([
                ("wall_s".to_string(), 10.0 + n as f64),
                ("netsim.events".to_string(), events),
            ]),
            digests: BTreeMap::from([("entries".to_string(), digest.to_string())]),
            self_s: BTreeMap::new(),
        }
    }

    #[test]
    fn mismatched_digest_counts_as_a_failure() {
        let mut runs = vec![run(0, "aa", 5.0), run(1, "aa", 5.0), run(2, "bb", 5.0)];
        cross_check(&mut runs);
        assert!(runs[0].ok && runs[1].ok);
        assert!(!runs[2].ok);
        assert!(runs[2].reasons[0].contains("entries digest bb"));
        assert!((fail_ratio(&runs) - 1.0 / 3.0).abs() < 1e-12);
        // Failed runs leave the timing sample.
        assert_eq!(values(&runs, "wall_s"), vec![10.0, 11.0]);
    }

    #[test]
    fn differing_count_counts_as_a_failure_but_times_may_differ() {
        let mut runs = vec![run(0, "aa", 5.0), run(1, "aa", 6.0)];
        cross_check(&mut runs);
        assert!(runs[0].ok);
        assert!(!runs[1].ok);
        assert!(runs[1].reasons[0].starts_with("count netsim.events"));
    }

    #[test]
    fn traced_run_supplies_only_what_timed_runs_lack() {
        let mut traced = run(2, "aa", 5.0);
        traced.traced = true;
        traced.metrics.insert("wall_s".into(), 11.1);
        traced.metrics.insert("qname.encode_ns".into(), 700.0);
        let runs = vec![run(0, "aa", 5.0), run(1, "aa", 5.0), traced];
        assert_eq!(values(&runs, "wall_s"), vec![10.0, 11.0]);
        assert_eq!(values(&runs, "qname.encode_ns"), vec![700.0]);
        let overhead = values(&runs, "bench.trace_overhead_pct")[0];
        assert!((overhead - 100.0 * 0.6 / 10.5).abs() < 1e-9);
        assert_eq!(values(&runs, "fail_ratio"), vec![0.0]);
    }

    #[test]
    fn run_records_round_trip() {
        let r = run(4, "cc", 9.0);
        let back = Run::from_json(&json::parse(&r.to_json().to_string()).unwrap(), "", 0, true);
        assert_eq!(back, r);
    }
}
