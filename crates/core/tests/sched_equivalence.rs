//! Differential scheduler-equivalence harness (the wheel's gate).
//!
//! The timing-wheel scheduler replaced the binary heap at the heart of a
//! byte-determinism-obsessed codebase. The only acceptable evidence that
//! the swap is safe is observational identity: run the *same* (seed,
//! world, chaos-profile, shard-count) input under `SchedKind::Heap` and
//! `SchedKind::Wheel` and demand byte-equality of everything a run can
//! produce — the merged query log (via `entries_digest` and raw entry
//! count), the rendered reports, the packet counters, the scanner stats,
//! and the total event count. On top of identity, every wheel run must
//! satisfy the standing `InvariantChecker` soundness properties, and
//! chaotic wheel runs the clean-vs-chaos monotonicity relations too.
//!
//! Shard counts cover {1, 4, 8}; chaos covers clean plus two named
//! profiles (a drop-flavoured and a crash-flavoured one). Paper-shape
//! worlds are covered by an `#[ignore]`d test (minutes in debug builds;
//! CI exercises the tiny matrix on every push). The golden suites
//! (`golden_report.rs`, `chaos_golden.rs`) additionally re-run their
//! surveys under `SchedKind::Heap` against the committed snapshots.

use bcd_core::chaos::{chaos_config, run_chaotic, run_clean};
use bcd_core::report::{is_lab_section, PaperReport, SECTIONS};
use bcd_core::{entries_digest, ExperimentConfig, ExperimentData, InvariantChecker};
use bcd_netsim::SchedKind;

/// Run one survey with an explicit scheduler; `profile` of `None` is the
/// clean baseline, otherwise a named chaos profile keyed on the seed.
fn run(seed: u64, shards: usize, profile: Option<&str>, sched: SchedKind) -> ExperimentData {
    let mut cfg = ExperimentConfig::tiny(seed);
    cfg.shards = shards;
    cfg.world.sched = sched;
    match profile {
        None => run_clean(&cfg),
        Some(p) => run_chaotic(&cfg, chaos_config(seed, p).expect("known chaos profile")),
    }
}

/// The identity assertion: everything observable about the two runs must
/// match byte for byte.
fn assert_equivalent(heap: &ExperimentData, wheel: &ExperimentData, label: &str) {
    assert!(
        !heap.entries.is_empty(),
        "{label}: heap run produced an empty log"
    );
    assert_eq!(
        heap.entries.len(),
        wheel.entries.len(),
        "{label}: merged entry counts differ"
    );
    assert_eq!(
        entries_digest(heap),
        entries_digest(wheel),
        "{label}: entries_digest differs"
    );
    let (heap_report, wheel_report) = (PaperReport::new(heap, 0), PaperReport::new(wheel, 0));
    for section in SECTIONS.into_iter().filter(|s| !is_lab_section(s)) {
        assert_eq!(
            heap_report.render(section),
            wheel_report.render(section),
            "{label}: section {section} differs"
        );
    }
    assert_eq!(
        format!("{:?}", heap.counters),
        format!("{:?}", wheel.counters),
        "{label}: packet counters differ"
    );
    assert_eq!(
        format!("{:?}", heap.scanner_stats),
        format!("{:?}", wheel.scanner_stats),
        "{label}: scanner stats differ"
    );
    assert_eq!(heap.events, wheel.events, "{label}: event totals differ");
    assert_eq!(
        heap.pending_deliveries, wheel.pending_deliveries,
        "{label}: pending deliveries differ"
    );
}

#[test]
fn heap_and_wheel_agree_clean() {
    for seed in [11u64, 2019] {
        for shards in [1usize, 4, 8] {
            let heap = run(seed, shards, None, SchedKind::Heap);
            let wheel = run(seed, shards, None, SchedKind::Wheel);
            assert_equivalent(
                &heap,
                &wheel,
                &format!("seed {seed}, {shards} shards, clean"),
            );
            let inv = InvariantChecker::check(&wheel);
            assert!(
                inv.is_ok(),
                "wheel invariants (seed {seed}, {shards} shards):\n{}",
                inv.render()
            );
        }
    }
}

#[test]
fn heap_and_wheel_agree_under_chaos() {
    let seed = 11u64;
    let clean_wheel = run(seed, 1, None, SchedKind::Wheel);
    for profile in ["drizzle", "crashy"] {
        for shards in [1usize, 4] {
            let heap = run(seed, shards, Some(profile), SchedKind::Heap);
            let wheel = run(seed, shards, Some(profile), SchedKind::Wheel);
            assert_equivalent(
                &heap,
                &wheel,
                &format!("seed {seed}, {shards} shards, {profile}"),
            );
            // Chaotic wheel runs must stay sound in themselves and in
            // relation to the clean baseline (the conservation and
            // monotonicity properties the chaos harness locks in).
            let inv = InvariantChecker::check_full(&clean_wheel, &wheel);
            assert!(
                inv.is_ok(),
                "wheel chaos invariants (seed {seed}, {shards} shards, {profile}):\n{}",
                inv.render()
            );
        }
    }
}

/// Work stealing is pure execution parallelism: the worker count must not
/// change a single output byte.
#[test]
fn worker_count_does_not_change_output() {
    let seed = 11u64;
    let base = {
        let mut cfg = ExperimentConfig::tiny(seed);
        cfg.shards = 4;
        cfg.workers = 1;
        run_clean(&cfg)
    };
    for workers in [2usize, 8] {
        let mut cfg = ExperimentConfig::tiny(seed);
        cfg.shards = 4;
        cfg.workers = workers;
        let data = run_clean(&cfg);
        assert_equivalent(&base, &data, &format!("4 shards, {workers} workers"));
    }
}

/// The full-size world, for release-mode runs (`cargo test --release -- --ignored`).
#[test]
#[ignore = "paper-shape worlds take minutes in debug builds"]
fn heap_and_wheel_agree_paper_shape() {
    let seed = 2019u64;
    for shards in [1usize, 8] {
        let heap = {
            let mut cfg = ExperimentConfig::paper_shape(seed);
            cfg.shards = shards;
            cfg.world.sched = SchedKind::Heap;
            run_clean(&cfg)
        };
        let wheel = {
            let mut cfg = ExperimentConfig::paper_shape(seed);
            cfg.shards = shards;
            cfg.world.sched = SchedKind::Wheel;
            run_clean(&cfg)
        };
        assert_equivalent(&heap, &wheel, &format!("paper shape, {shards} shards"));
        let inv = InvariantChecker::check(&wheel);
        assert!(
            inv.is_ok(),
            "paper-shape wheel invariants:\n{}",
            inv.render()
        );
    }
}
