//! Shard- and scheduler-invariance of the causal span flight recorder.
//!
//! The tracing contract: with `BCD_TRACE` armed, the merged flight
//! recorder — every span, every step index, the eviction count, the
//! rendered dump, and the pcap export of its captured packets — is
//! **byte-identical** for `BCD_SHARDS` ∈ {1, 4, 8} under both event
//! schedulers ([`SchedKind::Heap`] and [`SchedKind::Wheel`]) at the same
//! seed. Trace ids derive from qnames (never host RNG), spans
//! evict in canonical `(time, trace, step)` order, and the recorder is
//! armed only after each runtime is spawned, so only probe-caused traffic
//! is traced and nothing in the recorder may betray how the run was split
//! or which queue implementation ordered its events.
//!
//! A golden snapshot additionally pins the rendered causal chain of one
//! sampled query. Regenerate after an intentional span change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p bcd-core --test trace_invariance
//! ```

use bcd_core::chaos::{self, violation_artifact};
use bcd_core::{run_dual, Experiment, ExperimentConfig, ExperimentData};
use bcd_netsim::{pcap, SchedKind, TraceSample};
use bcd_obs::{chrome_trace_json, ObsEnv, RunProfile, TraceConfig};
use std::path::PathBuf;

fn run_traced(seed: u64, shards: usize, sched: SchedKind, trace: TraceConfig) -> ExperimentData {
    let mut cfg = ExperimentConfig::tiny(seed);
    cfg.shards = shards;
    cfg.world.sched = sched;
    Experiment::run_observed(cfg, &ObsEnv::with_trace(trace))
}

#[test]
fn flight_recorder_is_shard_and_scheduler_invariant() {
    for seed in [11u64, 2019] {
        let base = run_traced(seed, 1, SchedKind::Wheel, TraceConfig::default());
        let flight = base.flight.as_ref().expect("tracing was armed");
        assert!(!flight.is_empty(), "seed {seed}: no spans recorded");
        assert!(
            flight.traces().len() > 1,
            "seed {seed}: expected multiple traced queries"
        );
        let dump = flight.dump();
        // The pid-1 (sim clock) side of the Chrome export is a pure
        // function of the recorder; rendered against an empty profile the
        // whole document must be invariant too.
        let chrome = chrome_trace_json(flight, &RunProfile::new());
        let pcap_bytes = pcap::pcap_bytes(flight, true);
        assert!(
            pcap_bytes.len() > 24,
            "seed {seed}: pcap export captured no packets"
        );
        for (shards, sched) in [
            (4usize, SchedKind::Wheel),
            (8, SchedKind::Wheel),
            (1, SchedKind::Heap),
            (4, SchedKind::Heap),
            (8, SchedKind::Heap),
        ] {
            let data = run_traced(seed, shards, sched, TraceConfig::default());
            let f = data.flight.as_ref().expect("tracing was armed");
            assert_eq!(
                flight.recorded(),
                f.recorded(),
                "seed {seed}, {shards} shards, {sched:?}: recorded-span totals differ"
            );
            assert_eq!(
                flight.evicted(),
                f.evicted(),
                "seed {seed}, {shards} shards, {sched:?}: eviction counts differ"
            );
            assert_eq!(
                dump,
                f.dump(),
                "seed {seed}, {shards} shards, {sched:?}: flight-recorder dump differs"
            );
            assert_eq!(
                chrome,
                chrome_trace_json(f, &RunProfile::new()),
                "seed {seed}, {shards} shards, {sched:?}: chrome export differs"
            );
            assert!(
                pcap_bytes == pcap::pcap_bytes(f, true),
                "seed {seed}, {shards} shards, {sched:?}: pcap bytes differ"
            );
        }
    }
}

#[test]
fn sampling_and_eviction_stay_invariant_under_pressure() {
    // 1-in-4 hash sampling plus a window far too small for the run: the
    // retained set must still be the same global top-capacity spans (and
    // the eviction counter the same telescoped difference) at any layout.
    let trace = TraceConfig {
        sample: TraceSample {
            every: 4,
            qname_suffix: None,
        },
        capacity: 64,
        ..TraceConfig::default()
    };
    let base = run_traced(11, 1, SchedKind::Wheel, trace.clone());
    let flight = base.flight.as_ref().unwrap();
    assert_eq!(flight.len(), 64, "window should be full");
    assert!(flight.evicted() > 0, "cap 64 should have evicted spans");
    let full = run_traced(11, 1, SchedKind::Wheel, TraceConfig::default());
    assert!(
        flight.recorded() < full.flight.as_ref().unwrap().recorded(),
        "1-in-4 sampling should record fewer spans than tracing everything"
    );
    for shards in [4usize, 8] {
        let data = run_traced(11, shards, SchedKind::Wheel, trace.clone());
        let f = data.flight.as_ref().unwrap();
        assert_eq!(flight.evicted(), f.evicted(), "{shards} shards: evictions");
        assert_eq!(flight.dump(), f.dump(), "{shards} shards: retained window");
    }
}

#[test]
fn chaos_violation_artifact_is_shard_invariant() {
    // The artifact a violation would upload — run report + replay line +
    // causal window — must match byte-for-byte however the run was split,
    // or a reproducer filed from an 8-shard CI job would not describe the
    // single-shard replay. (The run itself holds its invariants; the
    // artifact renderer does not care.)
    let seed = 2020u64;
    let mk = |shards: usize| {
        let mut base = ExperimentConfig::tiny(seed);
        base.shards = shards;
        let clean = chaos::run_clean(&base);
        let run = chaos::run_checked(
            &base,
            chaos::chaos_config(seed, "bursty").expect("known profile"),
            &clean,
        );
        assert!(
            run.data.flight.is_some(),
            "run_checked must arm the flight recorder"
        );
        violation_artifact(&clean, &run, None)
    };
    let one = mk(1);
    assert!(one.contains("-- causal window (flight recorder) --"));
    assert_eq!(
        one,
        mk(4),
        "violation artifact differs between 1 and 4 shards"
    );
}

#[test]
fn crp_flight_recorder_is_shard_and_scheduler_invariant() {
    // The CRP pass arms the recorder through the same pipeline as method
    // A, so its merged recorder carries the same layout-free contract.
    let crp_dump = |shards: usize, sched: SchedKind| {
        let mut cfg = ExperimentConfig::tiny(2019);
        cfg.shards = shards;
        cfg.world.sched = sched;
        let dual = run_dual(cfg, &ObsEnv::with_trace(TraceConfig::default()));
        let flight = dual.b.flight.expect("tracing was armed for the CRP pass");
        assert!(
            !flight.is_empty(),
            "{shards} shards, {sched:?}: no CRP spans"
        );
        flight.dump()
    };
    let base = crp_dump(1, SchedKind::Wheel);
    assert_eq!(
        base,
        crp_dump(4, SchedKind::Wheel),
        "CRP dump: 1 vs 4 shards"
    );
    assert_eq!(
        base,
        crp_dump(1, SchedKind::Heap),
        "CRP dump: wheel vs heap"
    );
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

#[test]
fn sampled_query_trace_render_matches_golden_snapshot() {
    // Pin the rendered causal chain of one traced query: the span
    // vocabulary (send → route → deliver → cache-probe → upstream → ... →
    // reply) and the detail grammar are part of the observable surface.
    let data = run_traced(11, 1, SchedKind::Wheel, TraceConfig::default());
    let flight = data.flight.as_ref().unwrap();
    // The lowest trace id is a stable, layout-free choice of exemplar;
    // prefer one with a multi-hop chain so the render shows causality.
    // `by_trace` lists ids ascending, so the first match is the lowest.
    let id = flight
        .by_trace()
        .into_iter()
        .find(|(_, spans)| spans.len() >= 4)
        .map(|(id, _)| id)
        .expect("at least one multi-span trace");
    let actual = flight.render_trace(id);
    let path = golden_path("trace_render");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing snapshot {path:?}; regenerate with UPDATE_GOLDEN=1"));
    assert_eq!(
        expected, actual,
        "trace render changed; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
