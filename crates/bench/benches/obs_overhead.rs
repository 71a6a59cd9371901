//! Observability overhead: the survey with `bcd-obs` sinks disabled must
//! cost the same as one with them enabled — and, more importantly, the
//! same as the pre-instrumentation pipeline (the registry is only ever
//! assembled at phase boundaries; hot paths see one untaken branch per
//! probe). `crates/bench/results/BENCH_survey.json` commits the measured
//! perf *trajectory* — one labelled entry per perf-relevant PR, appended,
//! never overwritten. Append an entry with (the path resolves relative to
//! this crate — cargo runs benches from the package directory):
//!
//! ```sh
//! BCD_BENCH_JSON=results/BENCH_survey.json BCD_BENCH_LABEL=pr5-my-change \
//!     cargo bench -p bcd-bench --bench obs_overhead
//! # add BCD_BENCH_PAPER=1 for the (slow) paper-shape measurement,
//! # BCD_BENCH_N=<samples> to raise the per-config sample count, and
//! # BCD_SHARDS=8 for a sharded measurement (row names gain an `_s8`
//! # suffix so entries at different shard counts stay distinguishable)
//! ```

use bcd_core::{Experiment, ExperimentConfig};
use bcd_obs::ObsEnv;
use std::hint::black_box;
use std::time::Instant;

fn run_survey(cfg: &ExperimentConfig, env: &ObsEnv) -> usize {
    let data = Experiment::run_observed(cfg.clone(), env);
    env.export(&data.obs, data.flight.as_ref());
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

/// The "enabled" configuration: JSONL export armed, heartbeat branch armed
/// (with an interval no tiny run reaches, so stderr stays quiet and the
/// measured cost is the branch itself plus the end-of-run export).
fn enabled_env() -> ObsEnv {
    ObsEnv {
        jsonl_path: Some(std::env::temp_dir().join("bcd-obs-overhead.jsonl")),
        progress_every: Some(u64::MAX),
        trace: None,
    }
}

struct Measured {
    name: String,
    disabled_s: f64,
    enabled_s: f64,
}

impl Measured {
    fn overhead_pct(&self) -> f64 {
        100.0 * (self.enabled_s - self.disabled_s) / self.disabled_s
    }
}

/// Paired measurement: `n` samples of each configuration, *interleaved*
/// (disabled, enabled, disabled, enabled, ...) after one warm-up apiece,
/// so slow drift in machine load lands on both sides of the comparison
/// instead of biasing whichever configuration ran last.
fn measure(name: &str, cfg: &ExperimentConfig, n: usize) -> Measured {
    let mut run_disabled = || run_survey(cfg, &ObsEnv::disabled());
    let mut run_enabled = || run_survey(cfg, &enabled_env());
    black_box(run_disabled());
    black_box(run_enabled());
    let mut disabled = Vec::with_capacity(n);
    let mut enabled = Vec::with_capacity(n);
    for _ in 0..n {
        disabled.push(timed(&mut run_disabled));
        enabled.push(timed(&mut run_enabled));
    }
    Measured {
        name: name.to_string(),
        disabled_s: median(disabled),
        enabled_s: median(enabled),
    }
}

/// Append one labelled entry to the committed perf trajectory
/// (`crates/bench/results/BENCH_survey.json`). The file is a history, not
/// a snapshot: every perf-relevant PR appends an entry (label from
/// `BCD_BENCH_LABEL`) instead of overwriting the previous numbers, so the
/// wall-clock story of the survey stays in-tree. A file in an unknown
/// (pre-trajectory) format is replaced by a fresh single-entry trajectory.
fn write_json(path: &str, rows: &[Measured]) {
    let label = std::env::var("BCD_BENCH_LABEL").unwrap_or_else(|_| "unlabeled".to_string());
    let mut entry = format!("    {{\n      \"label\": \"{label}\",\n      \"surveys\": {{\n");
    for (i, m) in rows.iter().enumerate() {
        entry.push_str(&format!(
            "        \"{}\": {{\"obs_disabled\": {:.6}, \"obs_enabled\": {:.6}, \"overhead_pct\": {:.3}}}{}\n",
            m.name,
            m.disabled_s,
            m.enabled_s,
            m.overhead_pct(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    entry.push_str("      }\n    }");
    let fresh = |entry: &str| {
        format!(
            "{{\n  \"bench\": \"obs_overhead\",\n  \"unit\": \"seconds_median\",\n  \"trajectory\": [\n{entry}\n  ]\n}}\n"
        )
    };
    let s = match std::fs::read_to_string(path) {
        // Splice the new entry in front of the trajectory's closing
        // bracket; entries are never empty, so the comma is always right.
        Ok(prev) if prev.contains("\"trajectory\"") => match prev.rfind("\n  ]") {
            Some(pos) => {
                let (head, tail) = prev.split_at(pos);
                format!("{head},\n{entry}{tail}")
            }
            None => fresh(&entry),
        },
        _ => fresh(&entry),
    };
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, s) {
        eprintln!("BCD_BENCH_JSON write to {path} failed: {e}");
    } else {
        println!("obs_overhead: trajectory entry \"{label}\" appended to {path}");
    }
}

fn main() {
    // A paired measurement for the headline overhead number (the
    // acceptance bar is <3% with sinks disabled; paired runs on one core
    // keep the comparison honest).
    let tiny = ExperimentConfig::tiny(1);
    // The config constructors honour BCD_SHARDS, so one bench process
    // measures one shard count; suffix the row names so trajectory entries
    // taken at different shard counts stay distinguishable.
    let shard_suffix = std::env::var("BCD_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&s| s > 1)
        .map(|s| format!("_s{s}"))
        .unwrap_or_default();
    let mut rows = vec![measure(&format!("tiny_seed1{shard_suffix}"), &tiny, 7)];
    if std::env::var("BCD_BENCH_PAPER").is_ok() {
        // Samples per configuration (BCD_BENCH_N to raise on noisy hosts;
        // each paper-shape sample is a ~30s full survey).
        let n = std::env::var("BCD_BENCH_N")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(3);
        let paper = ExperimentConfig::paper_shape(2019);
        rows.push(measure(
            &format!("paper_shape_seed2019{shard_suffix}"),
            &paper,
            n,
        ));
    }
    for m in &rows {
        println!(
            "obs_overhead/{}: disabled {:.3}s enabled {:.3}s overhead {:+.2}%",
            m.name,
            m.disabled_s,
            m.enabled_s,
            m.overhead_pct()
        );
    }
    if let Ok(path) = std::env::var("BCD_BENCH_JSON") {
        write_json(&path, &rows);
    }
}
