//! Causal-tracing overhead: the survey with the span flight recorder
//! *disarmed* must cost within 3% of one that never heard of tracing —
//! that is the acceptance bar for threading `BCD_TRACE` through every hot
//! path. The disarmed cost is one untaken branch per span site (detail
//! closures never run: `NodeCtx::span` returns before touching them), so
//! the paired measurement below gates on it directly.
//!
//! Three configurations, run back to back in each round:
//!
//! * `disabled` — `ObsEnv::disabled()`: no recorder exists. The baseline.
//! * `armed_unsampled` — recorder armed, but the sampling spec rejects
//!   every qname. Measures the per-origination sampling hash plus the
//!   armed-but-trace-0 branches; this is the cost a `sample=1/N` user pays
//!   on the queries that are *not* sampled, and it is gated < 3%.
//! * `armed_full` — every query traced (`sample=1/1`). Informational: the
//!   price of full capture (span formatting + BTree inserts).
//!
//! ```sh
//! cargo bench -p bcd-bench --bench trace_overhead
//! # BCD_BENCH_PAPER=1 adds the (slow) paper-shape S=1 measurement;
//! # BCD_BENCH_N=<rounds> sets the round count (default 121).
//! ```

use bcd_core::{Experiment, ExperimentConfig};
use bcd_netsim::TraceSample;
use bcd_obs::{ObsEnv, TraceConfig};
use std::hint::black_box;
use std::time::Instant;

fn run_survey(cfg: &ExperimentConfig, env: &ObsEnv) -> usize {
    let data = Experiment::run_observed(cfg.clone(), env);
    data.entries.len()
}

fn timed(f: &mut impl FnMut() -> usize) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Recorder armed, sampling spec rejects everything: the suffix can never
/// match a generated qname (labels are hex serials under the experiment
/// apex), so every origination hashes its qname and then stays untraced.
fn unsampled_env() -> ObsEnv {
    ObsEnv::with_trace(TraceConfig {
        sample: TraceSample {
            every: 1,
            qname_suffix: Some("never.invalid".to_string()),
        },
        ..TraceConfig::default()
    })
}

struct Measured {
    name: String,
    rounds: usize,
    /// Median wall time of the disabled runs.
    disabled_s: f64,
    /// Median over rounds of `unsampled / disabled`, as a percentage over 1.
    unsampled_pct: f64,
    /// Median over rounds of `full / disabled`, as a percentage over 1.
    full_pct: f64,
}

/// Paired measurement: after one warm-up apiece, `n` rounds each run the
/// three configurations back to back (disabled and unsampled swap places
/// every other round), and each overhead is the median of the per-round
/// ratios against that round's disabled run. Load drift between rounds
/// then scales both sides of a ratio instead of landing in the comparison.
fn measure(name: &str, cfg: &ExperimentConfig, n: usize) -> Measured {
    let mut run_disabled = || run_survey(cfg, &ObsEnv::disabled());
    let mut run_unsampled = || run_survey(cfg, &unsampled_env());
    let mut run_full = || run_survey(cfg, &ObsEnv::with_trace(TraceConfig::default()));
    black_box(run_disabled());
    black_box(run_unsampled());
    black_box(run_full());
    let mut rounds = Vec::with_capacity(n);
    for i in 0..n {
        let (disabled, unsampled) = if i % 2 == 0 {
            let d = timed(&mut run_disabled);
            (d, timed(&mut run_unsampled))
        } else {
            let u = timed(&mut run_unsampled);
            (timed(&mut run_disabled), u)
        };
        rounds.push((disabled, unsampled, timed(&mut run_full)));
    }
    let pct = |ratios: Vec<f64>| 100.0 * (median(ratios) - 1.0);
    Measured {
        name: name.to_string(),
        rounds: n,
        disabled_s: median(rounds.iter().map(|r| r.0).collect()),
        unsampled_pct: pct(rounds.iter().map(|r| r.1 / r.0).collect()),
        full_pct: pct(rounds.iter().map(|r| r.2 / r.0).collect()),
    }
}

fn main() {
    let tiny = ExperimentConfig::tiny(1);
    let n = std::env::var("BCD_BENCH_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(121);
    let mut rows = vec![measure("tiny_seed1", &tiny, n)];
    if std::env::var("BCD_BENCH_PAPER").is_ok() {
        // The acceptance shape: paper-shape S=1 (constructors honour
        // BCD_SHARDS, so leave it unset for the canonical measurement).
        let paper = ExperimentConfig::paper_shape(2019);
        rows.push(measure("paper_shape_seed2019", &paper, n.min(3)));
    }
    let mut worst = f64::MIN;
    for m in &rows {
        println!(
            "trace_overhead/{} ({} rounds): disabled {:.3}s, unsampled {:+.2}%, full {:+.2}% \
             (medians of per-round ratios)",
            m.name, m.rounds, m.disabled_s, m.unsampled_pct, m.full_pct
        );
        worst = worst.max(m.unsampled_pct);
    }
    // The gate: disarmed-path overhead must stay under 3%.
    if worst > 3.0 {
        panic!(
            "trace_overhead gate: unsampled tracing costs {worst:+.2}% > 3% \
             over the disabled baseline"
        );
    }
}
