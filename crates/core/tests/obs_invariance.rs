//! Shard-count invariance of the observability layer itself.
//!
//! The `bcd-obs` contract (ISSUE acceptance): the deterministic metric
//! export and the deterministic run report are **byte-identical** for
//! `BCD_SHARDS` ∈ {1, 4, 8} at the same seed — wall-clock and layout-class
//! records are excluded by construction, so what remains must not betray
//! how the run was split. This is the metrics-side companion of
//! `shard_equivalence.rs` (which pins the analysis renders).

use bcd_core::{run_dual, Experiment, ExperimentConfig};
use bcd_obs::report::{names, render_run_report_deterministic};
use bcd_obs::{deterministic_jsonl, full_jsonl, ObsEnv, TraceConfig};

fn run(seed: u64, shards: usize) -> (String, String, bcd_core::ExperimentData) {
    let mut cfg = ExperimentConfig::tiny(seed);
    cfg.shards = shards;
    let data = Experiment::run_observed(cfg, &ObsEnv::disabled());
    (
        deterministic_jsonl(&data.obs),
        render_run_report_deterministic(&data.obs),
        data,
    )
}

#[test]
fn deterministic_jsonl_and_report_are_shard_count_invariant() {
    for seed in [11u64, 2019] {
        let (jsonl1, report1, data1) = run(seed, 1);
        // The run actually measured something.
        let agg = &data1.obs.aggregate;
        assert!(agg.counter(names::SCANNER_SPOOFED, &[]) > 0);
        assert!(agg.counter(names::LOG_ENTRIES, &[]) > 0);
        assert!(agg.counter(names::DNS_CLIENT_QUERIES, &[]) > 0);
        assert!(agg.gauge(names::WORLD_HOSTS, &[]) > 0);
        assert!(jsonl1.lines().count() > 10, "suspiciously thin export");
        for line in jsonl1.lines() {
            assert!(
                line.contains("\"det\":true"),
                "non-deterministic record leaked into the deterministic export: {line}"
            );
        }
        for shards in [4usize, 8] {
            let (jsonl_n, report_n, data_n) = run(seed, shards);
            assert_eq!(
                jsonl1, jsonl_n,
                "deterministic JSONL differs between 1 and {shards} shards at seed {seed}"
            );
            assert_eq!(
                report1, report_n,
                "deterministic run report differs between 1 and {shards} shards at seed {seed}"
            );
            // Bounded-window eviction counters are shard-invariant by
            // construction (canonical-order eviction in the flight
            // recorder) — differing counts here would mean the window
            // retained different spans at different layouts.
            for name in [names::SPAN_EVICTED, names::SPAN_RECORDED] {
                assert_eq!(
                    data1.obs.aggregate.counter(name, &[]),
                    data_n.obs.aggregate.counter(name, &[]),
                    "{name} differs between 1 and {shards} shards at seed {seed}"
                );
            }
            // The layout surface, by contrast, really is per-shard: the
            // full export records one slice per effective shard.
            assert_eq!(data_n.obs.per_shard.len(), data_n.obs.shards);
            assert!(data_n.obs.shards > 1, "tiny world clamped to one shard");
            assert!(full_jsonl(&data_n.obs).lines().count() > jsonl_n.lines().count());
        }
    }
}

#[test]
fn profile_records_every_pipeline_phase() {
    let (_, _, data) = run(11, 4);
    let phases: Vec<&str> = data
        .obs
        .profile
        .phases
        .iter()
        .map(|p| p.name.as_str())
        .collect();
    for expect in ["worldgen-build", "schedule-build", "shard-run", "merge"] {
        assert!(
            phases.contains(&expect),
            "missing phase {expect}: {phases:?}"
        );
    }
    let shard_runs = data
        .obs
        .profile
        .phases
        .iter()
        .filter(|p| p.name == "shard-run")
        .count();
    assert_eq!(shard_runs, data.obs.shards);
    assert!(data.obs.profile.sim_horizon().is_some());
}

/// The pipeline writes no file: with both sinks named, neither
/// `run_observed` nor `run_dual` creates them. Only `ObsEnv::export` does,
/// once the caller has recorded its last phase.
#[test]
fn pipeline_writes_no_files_until_export() {
    let dir = std::env::temp_dir().join(format!("bcd-pipeline-sinks-{}", std::process::id()));
    let (jsonl, chrome) = (dir.join("run.jsonl"), dir.join("trace.json"));
    let env = ObsEnv {
        jsonl_path: Some(jsonl.clone()),
        trace: Some(TraceConfig {
            chrome_out: Some(chrome.clone()),
            ..TraceConfig::default()
        }),
        ..ObsEnv::disabled()
    };
    let data = Experiment::run_observed(ExperimentConfig::tiny(7), &env);
    assert!(
        data.flight.is_some(),
        "the armed recorder must reach the data"
    );
    let dual = run_dual(ExperimentConfig::tiny(7), &env);
    assert!(!jsonl.exists(), "the pipeline wrote {}", jsonl.display());
    assert!(!chrome.exists(), "the pipeline wrote {}", chrome.display());

    env.export(&dual.a.obs, dual.a.flight.as_ref());
    let text = std::fs::read_to_string(&jsonl).unwrap();
    assert_eq!(text, full_jsonl(&dual.a.obs));
    assert!(text.contains(names::AGREEMENT_UNIVERSE), "{text}");
    assert!(std::fs::read_to_string(&chrome)
        .unwrap()
        .contains("\"agreement\""));
    std::fs::remove_dir_all(&dir).unwrap();
}
