//! Golden snapshot for the chaos run report.
//!
//! One tiny-world chaos run (fixed `(seed, profile)`) renders its full
//! report — schedule shape, replay line, clean-vs-chaos survey summary,
//! invariant verdict — and is compared byte-for-byte against the committed
//! snapshot. Every field in the report is shard-invariant, so the same
//! golden must hold under any `BCD_SHARDS` value (the CI matrix runs this
//! suite at 1 and 4 shards) and under both differential oracles, which
//! the test runs alongside the production config.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p bcd-core --test chaos_golden
//! ```

use bcd_core::chaos;
use bcd_core::schedule::ScheduleMode;
use bcd_core::ExperimentConfig;
use bcd_netsim::SchedKind;
use std::path::PathBuf;

const SEED: u64 = 2020;
const PROFILE: &str = "bursty";

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// The production config followed by the two differential oracles (heap
/// scheduler, legacy-shaped global schedule build), each labelled. Every
/// run must reproduce the same committed snapshots.
fn oracle_runs(base: ExperimentConfig) -> [(&'static str, ExperimentConfig); 3] {
    let mut heap = base.clone();
    heap.world.sched = SchedKind::Heap;
    let mut global = base.clone();
    global.schedule_mode = ScheduleMode::Global;
    [
        ("production", base),
        ("heap scheduler", heap),
        ("global schedule", global),
    ]
}

/// Compare `actual` against the committed snapshot. Under `UPDATE_GOLDEN`
/// only the production run writes; the oracle runs still compare.
fn check(run: &str, name: &str, actual: &str) {
    let path = golden_path(name);
    if run == "production" && std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing snapshot {path:?}; regenerate with UPDATE_GOLDEN=1"));
    assert_eq!(
        expected, actual,
        "{run} run: snapshot mismatch for {name}; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn chaos_run_report_matches_golden_snapshot() {
    // `tiny` honours BCD_SHARDS, so the CI matrix exercises the report's
    // shard-invariance against one committed snapshot.
    for (label, base) in oracle_runs(ExperimentConfig::tiny(SEED)) {
        let clean = chaos::run_clean(&base);
        let run = chaos::run_checked(
            &base,
            chaos::chaos_config(SEED, PROFILE).expect("known profile"),
            &clean,
        );
        assert!(
            run.invariants.is_ok(),
            "{label} run: {}",
            run.invariants.render()
        );
        check(label, "chaos_run", &chaos::render_run_report(&clean, &run));
    }
}
