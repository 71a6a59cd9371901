//! Cross-method differential harness: the outbound survey (method A) vs
//! the inbound Closed-Resolver-Project scan (method B,
//! [`bcd_core::crp`]), scored AS by AS against the generator's ground
//! truth ([`bcd_core::analysis::agreement`]).
//!
//! The contract under test:
//!
//! * **clean agreement** — on a fault-free network both methods match the
//!   oracle (and therefore each other) on 100% of the universe, for every
//!   seed tried,
//! * **layout invariance** — the agreement matrix and its rendering are
//!   byte-identical across `BCD_SHARDS` ∈ {1, 4, 8} and both schedule
//!   constructors, and the rendering is pinned by a golden snapshot
//!   (regenerate with `UPDATE_GOLDEN=1`),
//! * **stream hygiene** — the candidate stream fed to target extraction
//!   is sorted and duplicate-free, surfaced as the stable
//!   `targets.excluded_unsorted` counter (always 0 for a well-formed
//!   world),
//! * **one pipeline** — the CRP pass records its `crp.*` phases into the
//!   dual profile without moving method A's deterministic run report,
//! * **survey tier** (`--ignored`) — the dual-method run over the full
//!   `internet_scale` world (keep-1-in-4096 targets) stays inside the
//!   3.25 GiB `VmHWM` budget (the world's own footprint plus the nodes
//!   the shards build on first contact), reproduces the Table 1/2 shape
//!   at survey level, and still agrees exactly. The CI `agreement-smoke` job runs it;
//!   `BCD_OBS=path.jsonl` exports the run, both passes' phases included.

use bcd_core::analysis::reachability::Reachability;
use bcd_core::invariants::InvariantChecker;
use bcd_core::schedule::ScheduleMode;
use bcd_core::{report, run_dual, DualRun, ExperimentConfig};
use bcd_netsim::{Asn, SimDuration};
use bcd_obs::report::{names, render_run_report_deterministic};
use bcd_obs::{peak_rss_kib, ObsEnv};
use bcd_worldgen::WorldConfig;
use std::collections::HashSet;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing snapshot {path:?}; regenerate with UPDATE_GOLDEN=1"));
    assert_eq!(
        expected, actual,
        "snapshot mismatch for {name}; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// A reduced world for the multi-seed sweep: each dual run pays for two
/// full experiment passes in debug mode.
fn small(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::tiny(seed);
    cfg.world.n_as = 24;
    cfg.world.target_scale = 0.05;
    cfg.shards = 1;
    cfg
}

#[test]
fn clean_dual_run_agrees_with_ground_truth() {
    for (i, cfg) in [ExperimentConfig::tiny(2019), small(777), small(31)]
        .into_iter()
        .enumerate()
    {
        let seed = cfg.world.seed;
        let dual = run_dual(cfg, &ObsEnv::disabled());
        let m = &dual.matrix;
        assert!(m.universe > 0, "seed={seed}: empty comparison universe");
        assert!(
            dual.b.stats.probes_sent > 0,
            "seed={seed}: CRP pass sent nothing"
        );
        assert!(!dual.b.budget_exhausted, "seed={seed}: CRP budget blown");
        // The first config is the golden world; its matrix must be
        // non-degenerate in both directions or the differential test
        // would pass vacuously.
        if i == 0 {
            assert!(!m.agree_open.is_empty(), "no AS open under both methods");
            assert!(
                !m.agree_closed.is_empty(),
                "no AS closed under both methods"
            );
        }
        let inv = InvariantChecker::check_agreement(m, true);
        assert!(inv.is_ok(), "seed={seed}: {}", inv.render());
        let cons = InvariantChecker::check_crp(&dual.b);
        assert!(cons.is_ok(), "seed={seed}: {}", cons.render());
        assert!(
            m.is_exact(),
            "seed={seed}: methods diverge from ground truth: a_only={:?} b_only={:?} \
             false_open_a={:?} false_open_b={:?} false_closed_a={:?} false_closed_b={:?}",
            m.a_only,
            m.b_only,
            m.false_open_a,
            m.false_open_b,
            m.false_closed_a,
            m.false_closed_b
        );
        assert_eq!(m.agreement_rate(), 1.0, "seed={seed}");

        // Stream hygiene: the candidate stream was sorted and unique, and
        // the stable counter says so.
        assert_eq!(dual.a.targets.excluded_unsorted, 0, "seed={seed}");
        assert_eq!(
            dual.a
                .obs
                .aggregate
                .counter(names::TARGETS_EXCLUDED_UNSORTED, &[]),
            0,
            "seed={seed}"
        );
        // The agreement counters in the aggregate mirror the matrix.
        let agg = &dual.a.obs.aggregate;
        assert_eq!(
            agg.counter(names::AGREEMENT_UNIVERSE, &[]),
            m.universe as u64
        );
        assert_eq!(
            agg.counter(names::AGREEMENT_AGREE_OPEN, &[]),
            m.agree_open.len() as u64
        );
        assert_eq!(
            agg.counter(names::AGREEMENT_FALSE_OPEN, &[("method", "b")]),
            0
        );
    }
}

#[test]
fn agreement_matrix_is_layout_invariant_and_matches_golden() {
    let layouts: [(usize, ScheduleMode); 4] = [
        (1, ScheduleMode::Streaming),
        (4, ScheduleMode::Streaming),
        (8, ScheduleMode::Streaming),
        (4, ScheduleMode::Global),
    ];
    let mut baseline: Option<(String, bcd_core::AgreementMatrix, u64, usize, String)> = None;
    for (shards, mode) in layouts {
        let mut cfg = ExperimentConfig::tiny(2019);
        cfg.shards = shards;
        cfg.schedule_mode = mode;
        let dual = run_dual(cfg, &ObsEnv::disabled());
        assert_crp_phases(&dual);
        let rendered = report::render_agreement(&dual.matrix);
        let probes = dual.b.stats.probes_sent;
        let log_len = dual.b.entries.len();
        // The CRP pass records into method A's profile but must not move
        // its deterministic report (sim horizon, stable counters).
        let run_report = render_run_report_deterministic(&dual.a.obs);
        match &baseline {
            None => baseline = Some((rendered, dual.matrix, probes, log_len, run_report)),
            Some((r0, m0, p0, l0, rr0)) => {
                assert_eq!(
                    r0, &rendered,
                    "S={shards} {mode:?}: agreement rendering depends on layout"
                );
                assert_eq!(m0, &dual.matrix, "S={shards} {mode:?}: matrix differs");
                assert_eq!(*p0, probes, "S={shards} {mode:?}: CRP probe count differs");
                assert_eq!(*l0, log_len, "S={shards} {mode:?}: CRP log length differs");
                assert_eq!(
                    rr0, &run_report,
                    "S={shards} {mode:?}: method A's deterministic run report differs"
                );
            }
        }
    }
    check("agreement", &baseline.unwrap().0);
}

/// The CRP pass runs through the shared pipeline, so its sub-phases land
/// in the dual profile under the `crp.` prefix — one `crp.shard-run` per
/// CRP shard — alongside the `crp-run` and `agreement` wrappers.
fn assert_crp_phases(dual: &DualRun) {
    let phases = &dual.a.obs.profile.phases;
    let top = |name: &str| {
        phases
            .iter()
            .filter(|p| p.shard.is_none() && p.name == name)
            .count()
    };
    for name in [
        "crp.schedule-census",
        "crp.schedule-build",
        "crp.merge",
        "crp-run",
        "agreement",
    ] {
        assert_eq!(top(name), 1, "phase {name} missing or repeated");
    }
    let runs: Vec<usize> = phases
        .iter()
        .filter(|p| p.name == "crp.shard-run")
        .map(|p| p.shard.expect("crp.shard-run is per-shard"))
        .collect();
    assert_eq!(runs, (0..dual.b.shards).collect::<Vec<_>>());
    assert!(dual.b.shards >= 1 && dual.b.shards <= dual.a.cfg.shards);
}

/// Keep-1-in-N target sample of the survey-tier run.
const SURVEY_SAMPLE: u64 = 4096;

#[test]
#[ignore = "release-mode batch job: dual-method survey over the full 62k-AS world"]
fn dual_method_survey_within_budget() {
    let mut cfg = ExperimentConfig::paper_shape(2019);
    cfg.world = WorldConfig::internet_scale(2019);
    cfg.target_sample = Some(SURVEY_SAMPLE);
    // Ask for a short window and let the rate cap extend it: the probe
    // count is what it is, and a dense schedule keeps sim time bounded.
    cfg.window = SimDuration::from_mins(5);
    let env = ObsEnv::from_env();
    let t0 = std::time::Instant::now();
    let dual = run_dual(cfg, &env);
    let run_secs = t0.elapsed().as_secs_f64();
    env.export(&dual.a.obs, dual.a.flight.as_ref());
    assert_crp_phases(&dual);

    // ---- Method A at survey level. Table 1 shape: the *full* target
    // population was extracted (sampling happens at schedule time, not
    // extraction time).
    let a = &dual.a;
    let n_targets = a.targets.len();
    assert!(
        (8_000_000..=16_000_000).contains(&n_targets),
        "targets: {n_targets}"
    );
    // The keep set is a hash over canonical target bytes — binomial
    // around n/N. Allow a generous band around the expectation.
    let expected_kept = n_targets as u64 / SURVEY_SAMPLE;
    let kept = a.obs.aggregate.counter(names::SCHEDULE_TARGETS, &[]);
    assert!(
        kept >= expected_kept / 2 && kept <= expected_kept * 2,
        "sampled targets {kept} implausible for keep-1-in-{SURVEY_SAMPLE} of {n_targets}"
    );
    assert_eq!(
        a.obs.aggregate.counter(names::SCHEDULE_PROBES, &[]),
        a.scanner_stats.spoofed_sent + a.scanner_stats.opted_out,
        "schedule probe accounting must conserve through the scanner"
    );
    // The survey actually ran: spoofed probes went out, the authoritative
    // log filled, and reached populations are non-trivial.
    assert!(a.scanner_stats.spoofed_sent > 0, "no spoofed probes sent");
    assert!(!a.entries.is_empty(), "authoritative log is empty");
    let reach = Reachability::compute(&a.input());
    let reached_asns: HashSet<Asn> = reach.reached.values().map(|h| h.asn).collect();
    assert!(!reach.reached.is_empty(), "no target reached");
    assert!(
        reached_asns.len() >= 10,
        "reached ASNs: {} — survey shape collapsed",
        reached_asns.len()
    );
    // Table 2 shape: both families appear among reached targets (v6 is
    // >100k targets before sampling).
    assert!(
        reach.reached.keys().any(|a| a.is_ipv6()),
        "no v6 target reached"
    );

    // ---- The cross-method verdict.
    let m = &dual.matrix;
    assert!(
        m.universe > 100,
        "universe {} too small to bite",
        m.universe
    );
    assert!(
        !m.agree_open.is_empty(),
        "no AS open under both methods at survey scale"
    );
    let inv = InvariantChecker::check_agreement(m, true);
    assert!(inv.is_ok(), "{}", inv.render());
    assert!(m.is_exact(), "survey-scale divergence from ground truth");
    assert!(
        !a.budget_exhausted && !dual.b.budget_exhausted,
        "a shard hit its event budget"
    );

    // Per-phase wall/RSS breakdown, both passes (the CRP pass under its
    // `crp.` prefix), then the deterministic run report and the matrix.
    for p in &a.obs.profile.phases {
        let rss_gib = p
            .rss_peak_kib
            .map(|k| k as f64 / (1024.0 * 1024.0))
            .unwrap_or(f64::NAN);
        eprintln!(
            "agreement-profile: {:<20} {:>8.2}s  rss-peak {rss_gib:.2} GiB",
            match p.shard {
                Some(sid) => format!("{}[{sid}]", p.name),
                None => p.name.clone(),
            },
            p.wall.as_secs_f64()
        );
    }
    eprintln!("{}", render_run_report_deterministic(&a.obs));
    eprintln!("{}", report::render_agreement(m));

    // ---- Resource budget: the streaming per-shard schedule constructor
    // and first-contact node building (a shard holds nodes only for the
    // hosts it reaches) keep both passes near the build's own watermark.
    let rss = peak_rss_kib().expect("VmHWM") as f64 / (1024.0 * 1024.0);
    eprintln!(
        "agreement_smoke: ran in {run_secs:.1}s, peak RSS {rss:.2} GiB, {} spoofed probes, \
         {} reached addrs, {} reached ASNs, universe {} ASes, {} agree-open, \
         {} agree-closed, {} CRP probes",
        a.scanner_stats.spoofed_sent,
        reach.reached.len(),
        reached_asns.len(),
        m.universe,
        m.agree_open.len(),
        m.agree_closed.len(),
        dual.b.stats.probes_sent
    );
    assert!(
        rss < 3.25,
        "peak RSS {rss:.2} GiB exceeds the 3.25 GiB budget"
    );
}
