//! Golden snapshot tests for every renderer in [`bcd_core::report`].
//!
//! One tiny-world survey feeds every paper section
//! ([`bcd_core::report::SECTIONS`]) and the deterministic run report; the
//! output of each is compared byte-for-byte against a committed snapshot
//! under `tests/golden/`. Together with the shard-equivalence suite this pins
//! the full render surface: any change to an analysis, a renderer, or the
//! engine's determinism shows up as a snapshot diff. The survey runs three
//! times — the production config, then the heap-scheduler and
//! global-schedule differential oracles — against the same snapshots.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p bcd-core --test golden_report
//! ```

use bcd_core::report::{PaperReport, SECTIONS};
use bcd_core::schedule::ScheduleMode;
use bcd_core::{Experiment, ExperimentConfig};
use bcd_netsim::SchedKind;
use bcd_obs::ObsEnv;
use std::path::PathBuf;

const SEED: u64 = 2019;
/// Small lab sample count so the suite stays fast in debug builds.
const LAB_QUERIES: usize = 2_000;

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
fn all_renderers_match_golden_snapshots() {
    for (label, cfg) in oracle_runs(ExperimentConfig::tiny(SEED)) {
        let check = |name: &str, actual: &str| check(label, name, actual);
        let data = Experiment::run_observed(cfg, &ObsEnv::disabled());
        let paper = PaperReport::new(&data, LAB_QUERIES);
        for name in SECTIONS {
            check(name, &paper.render(name).expect("a known section"));
        }
        // The observability surface: only the *deterministic* renders can be
        // snapshots — they are shard-count-invariant (obs_invariance.rs), so
        // the same golden holds under any BCD_SHARDS.
        check(
            "run_report",
            &bcd_obs::report::render_run_report_deterministic(&data.obs),
        );
        check("metrics_jsonl", &bcd_obs::deterministic_jsonl(&data.obs));
    }
}

/// Snapshots under `tests/golden/` that are not paper sections: the
/// observability renders above and the chaos, cross-method and trace
/// suites' own goldens.
const NON_SECTION_GOLDENS: [&str; 5] = [
    "run_report",
    "metrics_jsonl",
    "agreement",
    "chaos_run",
    "trace_render",
];

#[test]
fn section_list_matches_the_golden_files() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut goldens: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .filter(|name| !NON_SECTION_GOLDENS.contains(&name.as_str()))
        .collect();
    goldens.sort();
    let mut sections: Vec<String> = SECTIONS.iter().map(|s| s.to_string()).collect();
    sections.sort();
    assert_eq!(sections, goldens);
}
