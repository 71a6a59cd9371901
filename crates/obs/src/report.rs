//! The human-readable "run report".
//!
//! Two renderers over one [`RunObservation`]:
//!
//! * [`render_run_report_deterministic`] — only the shard-invariant
//!   surface (sim horizon + [`Det::Stable`] metrics + derived rates).
//!   This is what the golden snapshot pins: it must render byte-identically
//!   under any `BCD_SHARDS`.
//! * [`render_run_report`] — the full report: deterministic block plus
//!   wall-clock phase timings, layout-dependent engine totals, and the
//!   per-shard packet/drop breakdown.
//!
//! Well-known metric names live in [`names`]; the instrumentation in
//! `bcd-core` registers under these so the renderer can compute derived
//! rates (cache hit rate, drop totals) without a dependency cycle.

use crate::metrics::{Det, MetricValue, MetricsRegistry};
use crate::RunObservation;
use std::fmt::Write;

/// Canonical metric names shared between the instrumentation (in
/// `bcd-core`) and this renderer.
pub mod names {
    /// Packets handed to the network (layout-class, conservatively: the
    /// public resolvers every shard runtime copies keep per-runtime caches).
    pub const NET_SENT: &str = "net.sent";
    pub const NET_DELIVERED: &str = "net.delivered";
    pub const NET_DUPLICATED: &str = "net.duplicated";
    pub const NET_INTERCEPTED: &str = "net.intercepted";
    /// Drop counter, one per `DropReason` under the `reason` label.
    pub const NET_DROP: &str = "net.drop";
    pub const ENGINE_EVENTS: &str = "engine.events";
    /// Causal span flight-recorder counters (`BCD_TRACE`). Stable when the
    /// run is fault-free (traced traffic is shard-partitioned and the
    /// recorder is armed only after each runtime is spawned); layout-class
    /// when a chaos fault schedule was armed.
    pub const SPAN_RECORDED: &str = "span.recorded";
    pub const SPAN_RETAINED: &str = "span.retained";
    pub const SPAN_EVICTED: &str = "span.evicted";
    pub const SPAN_TRACES: &str = "span.traces";
    /// Schedule-construction accounting (streaming per-lane build): probe
    /// totals, sampled-target counts and lane occupancy are pure functions
    /// of (seed, population, rate) — fully stable across layouts.
    pub const SCHEDULE_PROBES: &str = "schedule.probes";
    pub const SCHEDULE_TARGETS: &str = "schedule.targets";
    pub const SCHEDULE_LANES: &str = "schedule.lanes";
    pub const SCHEDULE_END_SECS: &str = "schedule.end_secs";
    /// Client-path resolver counters (deterministic: client traffic is
    /// partitioned by shard, never duplicated).
    pub const DNS_CLIENT_QUERIES: &str = "dns.client_queries";
    pub const DNS_REFUSED: &str = "dns.refused";
    pub const DNS_ANSWERED: &str = "dns.answered";
    pub const DNS_CACHE_HITS: &str = "dns.cache_hits";
    pub const DNS_CACHE_MISSES: &str = "dns.cache_misses";
    /// Resolution-path resolver counters (layout-class, conservatively:
    /// they include the public resolvers every shard runtime copies, whose
    /// caches are per-runtime).
    pub const DNS_UPSTREAM_QUERIES: &str = "dns.upstream_queries";
    pub const DNS_SERVFAIL: &str = "dns.servfail";
    pub const DNS_TCP_RETRIES: &str = "dns.tcp_retries";
    pub const DNS_CACHE_ANSWERS: &str = "dns.cache_entries.answers";
    pub const DNS_CACHE_NXDOMAINS: &str = "dns.cache_entries.nxdomains";
    pub const DNS_CACHE_CUTS: &str = "dns.cache_entries.cuts";
    /// Scanner counters (deterministic: merged `ScannerStats`).
    pub const SCANNER_SPOOFED: &str = "scanner.spoofed_sent";
    pub const SCANNER_FOLLOWUP_SETS: &str = "scanner.followup_sets";
    pub const SCANNER_FOLLOWUPS: &str = "scanner.followup_queries";
    pub const SCANNER_OPEN_PROBES: &str = "scanner.open_probes";
    pub const SCANNER_TCP_PROBES: &str = "scanner.tcp_probes";
    pub const SCANNER_HUMAN: &str = "scanner.human_lookups";
    pub const SCANNER_RESPONSES: &str = "scanner.responses_received";
    pub const SCANNER_REFUSED: &str = "scanner.refused_responses";
    pub const SCANNER_OPTED_OUT: &str = "scanner.opted_out";
    pub const SCANNER_DEFERRALS: &str = "scanner.outage_deferrals";
    /// Scanner response breakdown, one counter per `rcode` label.
    pub const SCANNER_RESPONSE: &str = "scanner.response";
    /// Merged authoritative-log size (deterministic).
    pub const LOG_ENTRIES: &str = "log.entries";
    /// Histogram of log-entry sim-times, in hours since scan start.
    pub const LOG_ENTRY_HOURS: &str = "log.entry_sim_hours";
    /// Compiled chaos-schedule event counts, one per `kind` label
    /// (deterministic: the fault schedule is compiled once per world and
    /// shared by every shard).
    pub const CHAOS_EVENTS: &str = "chaos.events";
    /// Number of enabled fault events (differs from the total only under a
    /// delta-debugging replay that restricts the schedule).
    pub const CHAOS_EVENTS_ENABLED: &str = "chaos.events_enabled";
    /// World-shape gauges (identical in every shard).
    pub const WORLD_HOSTS: &str = "world.hosts";
    pub const WORLD_ASES: &str = "world.ases";
    pub const WORLD_TARGETS_V4: &str = "world.targets_v4";
    pub const WORLD_TARGETS_V6: &str = "world.targets_v6";
    /// Target-extraction hygiene: DITL candidate rows the streaming
    /// deduplicator had to reject because they arrived out of canonical
    /// order (deterministic; 0 on healthy worldgen output).
    pub const TARGETS_EXCLUDED_UNSORTED: &str = "targets.excluded_unsorted";
    /// Forged responses injected by the spoofed-response chaos adversary
    /// (layout-dependent: injection rides the per-shard fault stream).
    pub const NET_INJECTED: &str = "net.injected";
    /// Cross-method validation counters (deterministic: both methods and
    /// the matrix are shard-invariant). `agreement.*` counts ASes in each
    /// cell of the method-A × method-B matrix; `false_open`/`false_closed`
    /// carry a `method` label and score each method against the world's
    /// ground-truth SAV policy.
    pub const CRP_PROBES: &str = "crp.probes";
    pub const CRP_LOG_ENTRIES: &str = "crp.log_entries";
    pub const AGREEMENT_UNIVERSE: &str = "agreement.universe";
    pub const AGREEMENT_AGREE_OPEN: &str = "agreement.agree_open";
    pub const AGREEMENT_AGREE_CLOSED: &str = "agreement.agree_closed";
    pub const AGREEMENT_A_ONLY: &str = "agreement.a_only";
    pub const AGREEMENT_B_ONLY: &str = "agreement.b_only";
    pub const AGREEMENT_FALSE_OPEN: &str = "agreement.false_open";
    pub const AGREEMENT_FALSE_CLOSED: &str = "agreement.false_closed";
}

fn fmt_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{{{}}}", inner.join(","))
}

/// Render one determinism class of a registry as aligned `name value`
/// lines (histograms get a bucket breakdown).
fn render_class(out: &mut String, reg: &MetricsRegistry, det: Det, indent: &str) {
    let rows: Vec<(String, &MetricValue)> = reg
        .iter_class(det)
        .map(|(k, m)| (format!("{}{}", k.name, fmt_labels(&k.labels)), &m.value))
        .collect();
    let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    for (name, value) in rows {
        match value {
            MetricValue::Counter(c) => {
                let _ = writeln!(out, "{indent}{name:<width$}  {c}");
            }
            MetricValue::Gauge(g) => {
                let _ = writeln!(out, "{indent}{name:<width$}  {g}");
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(out, "{indent}{name:<width$}  n={} sum={}", h.count, h.sum);
                for (i, c) in h.counts.iter().enumerate() {
                    if *c == 0 {
                        continue;
                    }
                    let edge = match h.bounds.get(i) {
                        Some(b) => format!("le {b}"),
                        None => "inf".to_string(),
                    };
                    let _ = writeln!(out, "{indent}  {edge:>8}: {c}");
                }
            }
        }
    }
}

fn pct(n: u64, d: u64) -> String {
    if d == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", 100.0 * n as f64 / d as f64)
    }
}

/// Derived deterministic rates: resolver cache hit rate, scanner response
/// rate, total drops by reason.
fn render_derived(out: &mut String, reg: &MetricsRegistry) {
    let hits = reg.counter(names::DNS_CACHE_HITS, &[]);
    let misses = reg.counter(names::DNS_CACHE_MISSES, &[]);
    let _ = writeln!(
        out,
        "resolver cache: {hits} hits / {misses} misses ({} hit rate)",
        pct(hits, hits + misses)
    );
    let probes = reg.counter(names::SCANNER_SPOOFED, &[]);
    let responses = reg.counter(names::SCANNER_RESPONSES, &[]);
    let _ = writeln!(
        out,
        "scanner: {probes} spoofed probes, {responses} responses at real addresses ({})",
        pct(responses, probes)
    );
    // Only the *stable* drop breakdown belongs here: with a chaos fault
    // schedule armed the instrumentation registers drops as `Det::Layout`
    // and this block stays silent rather than leak layout-dependent numbers
    // into the deterministic report.
    let stable_drops: Vec<(&[(String, String)], u64)> = reg
        .iter_class(Det::Stable)
        .filter(|(k, _)| k.name == names::NET_DROP)
        .filter_map(|(k, m)| match m.value {
            MetricValue::Counter(c) => Some((k.labels.as_slice(), c)),
            _ => None,
        })
        .collect();
    let drops: u64 = stable_drops.iter().map(|(_, c)| c).sum();
    if drops > 0 {
        let _ = writeln!(out, "probe-path drops by reason ({drops} total):");
        for (labels, c) in stable_drops {
            let reason = labels
                .iter()
                .find(|(k, _)| k == "reason")
                .map(|(_, v)| v.as_str())
                .unwrap_or("?");
            let _ = writeln!(out, "  {reason:<22} {c:>10}  ({})", pct(c, drops));
        }
    }
}

/// The shard-invariant report: golden-snapshot-stable under any
/// `BCD_SHARDS`.
pub fn render_run_report_deterministic(obs: &RunObservation) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== survey run report (deterministic) ==");
    let _ = writeln!(s, "seed {}", obs.seed);
    if let Some(h) = obs.profile.sim_horizon() {
        let _ = writeln!(s, "sim horizon: {h}");
    }
    s.push('\n');
    render_derived(&mut s, &obs.aggregate);
    let _ = writeln!(s, "\naggregates (shard-invariant):");
    render_class(&mut s, &obs.aggregate, Det::Stable, "  ");
    s
}

/// The full report: deterministic block + wall-clock phases + layout
/// totals + per-shard breakdown.
pub fn render_run_report(obs: &RunObservation) -> String {
    let mut s = render_run_report_deterministic(obs);
    let _ = writeln!(s, "\n-- phases (wall-clock; machine-dependent) --");
    for p in &obs.profile.phases {
        let name = match p.shard {
            Some(sid) => format!("{}[{sid}]", p.name),
            None => p.name.clone(),
        };
        let sim = match p.sim_end {
            Some(t) => format!("  (sim {t})"),
            None => String::new(),
        };
        let rss = match p.rss_peak_kib {
            Some(kib) => format!("  rss-peak {:.2} GiB", kib as f64 / (1024.0 * 1024.0)),
            None => String::new(),
        };
        let _ = writeln!(s, "  {name:<20} {:>9.3}s{sim}{rss}", p.wall.as_secs_f64());
    }
    let _ = writeln!(
        s,
        "  {:<20} {:>9.3}s",
        "total",
        obs.profile.total_wall().as_secs_f64()
    );

    let _ = writeln!(s, "\n-- engine totals (layout-dependent) --");
    render_class(&mut s, &obs.aggregate, Det::Layout, "  ");

    // Bounded-window accounting for the causal span flight recorder. The
    // eviction count is shard-invariant by construction (canonical-order
    // eviction; the invariance suites assert equality at every
    // `BCD_SHARDS`).
    let recorded = obs.aggregate.counter(names::SPAN_RECORDED, &[]);
    if recorded > 0 {
        let _ = writeln!(s, "\n-- causal tracing (flight recorder) --");
        let _ = writeln!(
            s,
            "  {recorded} spans recorded over {} traces; window retains {}, evicted {}",
            obs.aggregate.counter(names::SPAN_TRACES, &[]),
            obs.aggregate.counter(names::SPAN_RETAINED, &[]),
            obs.aggregate.counter(names::SPAN_EVICTED, &[]),
        );
    }

    if obs.per_shard.len() > 1 {
        let _ = writeln!(
            s,
            "\n-- per-shard breakdown ({} shards) --",
            obs.per_shard.len()
        );
        for (sid, reg) in obs.per_shard.iter().enumerate() {
            let drops: u64 = reg.counters_named(names::NET_DROP).map(|(_, c)| c).sum();
            let _ = writeln!(
                s,
                "  shard {sid}: probes={} events={} sent={} delivered={} dropped={}",
                reg.counter(names::SCANNER_SPOOFED, &[]),
                reg.counter(names::ENGINE_EVENTS, &[]),
                reg.counter(names::NET_SENT, &[]),
                reg.counter(names::NET_DELIVERED, &[]),
                drops,
            );
            for (labels, c) in reg.counters_named(names::NET_DROP) {
                let reason = labels
                    .iter()
                    .find(|(k, _)| k == "reason")
                    .map(|(_, v)| v.as_str())
                    .unwrap_or("?");
                let _ = writeln!(s, "      drop {reason:<22} {c}");
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcd_netsim::SimTime;
    use std::time::Duration;

    fn obs() -> RunObservation {
        let mut o = RunObservation {
            seed: 11,
            shards: 2,
            ..RunObservation::default()
        };
        o.aggregate
            .add_counter(names::DNS_CACHE_HITS, &[], Det::Stable, 30);
        o.aggregate
            .add_counter(names::DNS_CACHE_MISSES, &[], Det::Stable, 70);
        o.aggregate
            .add_counter(names::SCANNER_SPOOFED, &[], Det::Stable, 200);
        o.aggregate
            .add_counter(names::SCANNER_RESPONSES, &[], Det::Stable, 20);
        o.aggregate.add_counter(
            names::NET_DROP,
            &[("reason", "dsav-ingress")],
            Det::Stable,
            10,
        );
        o.aggregate
            .add_counter(names::NET_SENT, &[], Det::Layout, 999);
        let mut s0 = MetricsRegistry::new();
        s0.add_counter(names::NET_SENT, &[], Det::Layout, 500);
        let mut s1 = MetricsRegistry::new();
        s1.add_counter(names::NET_SENT, &[], Det::Layout, 499);
        o.per_shard.push(s0);
        o.per_shard.push(s1);
        o.profile
            .record("worldgen-build", Duration::from_millis(12));
        o.profile.record_shard(
            "shard-run",
            0,
            Duration::from_millis(40),
            SimTime::from_secs(60),
        );
        o
    }

    #[test]
    fn deterministic_report_excludes_wall_and_layout() {
        let text = render_run_report_deterministic(&obs());
        assert!(
            text.contains("30 hits / 70 misses (30.0% hit rate)"),
            "{text}"
        );
        assert!(text.contains("dsav-ingress"));
        assert!(!text.contains("wall"));
        assert!(!text.contains("net.sent"));
        assert!(!text.contains("phases"));
    }

    #[test]
    fn full_report_adds_phases_and_shards() {
        let text = render_run_report(&obs());
        assert!(text.contains("phases (wall-clock"));
        assert!(text.contains("shard-run[0]"));
        assert!(text.contains("(sim 60.000000000s)"), "{text}");
        assert!(text.contains("per-shard breakdown (2 shards)"));
        assert!(text.contains("net.sent"));
        assert!(text.contains("sent=500"));
    }
}
