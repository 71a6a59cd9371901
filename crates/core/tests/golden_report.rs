//! Golden snapshot tests for every renderer in [`bcd_core::report`].
//!
//! One tiny-world survey feeds all renderers; the output of each is
//! compared byte-for-byte against a committed snapshot under
//! `tests/golden/`. Together with the shard-equivalence suite this pins
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

use bcd_core::analysis::categories::CategoryReport;
use bcd_core::analysis::country::CountryReport;
use bcd_core::analysis::forwarding::ForwardingReport;
use bcd_core::analysis::local::LocalInfiltrationReport;
use bcd_core::analysis::openclosed::OpenClosedReport;
use bcd_core::analysis::passive::PassiveReport;
use bcd_core::analysis::ports::PortReport;
use bcd_core::analysis::qmin::QminReport;
use bcd_core::analysis::reachability::{MiddleboxReport, Reachability};
use bcd_core::schedule::ScheduleMode;
use bcd_core::{lab, report, Experiment, ExperimentConfig};
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
        let input = data.input();
        let reach = Reachability::compute(&input);
        let countries = CountryReport::compute(&input, &reach);
        let cats = CategoryReport::compute(&reach);
        let oc = OpenClosedReport::compute(&input, &reach);
        let ports = PortReport::compute(&input, &oc);
        let fwd = ForwardingReport::compute(&input);
        let local = LocalInfiltrationReport::compute(&reach);
        let qmin = QminReport::compute(&input, &reach);
        let mbx = MiddleboxReport::compute(&input, &reach);
        let passive = PassiveReport::compute(&ports, &data.world.ditl2018);
        check("headline", &report::render_headline(&data.targets, &reach));
        check("table1", &report::render_table1(&countries, 10));
        check("table2", &report::render_table2(&countries, 10));
        check("table3", &report::render_table3(&cats));
        check("table4", &report::render_table4(&ports));
        check(
            "table5",
            &report::render_table5(&lab::table5(LAB_QUERIES, SEED)),
        );
        check("table6", &report::render_table6(&lab::table6()));
        check("figure2", &report::render_figure2(&ports));
        check(
            "figure3a",
            &report::render_figure3a(&lab::figure3a_samples(LAB_QUERIES, SEED)),
        );
        check("figure3b", &report::render_figure3b(&ports));
        check("openclosed", &report::render_openclosed(&oc));
        check("forwarding", &report::render_forwarding(&fwd));
        check("local", &report::render_local(&local));
        check(
            "methodology",
            &report::render_methodology(&reach, &qmin, &mbx),
        );
        check("passive", &report::render_passive(&passive));
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
