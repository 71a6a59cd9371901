//! Failure injection: the methodology must stay *sound* (never claim a
//! protected AS reachable) and *useful* (still find most of the population)
//! under adverse conditions — packet loss, heavy human-intervention noise,
//! and QNAME-minimizing resolvers.

use behind_closed_doors::core::analysis::reachability::Reachability;
use behind_closed_doors::core::invariants::InvariantChecker;
use behind_closed_doors::core::{Experiment, ExperimentConfig};
use behind_closed_doors::netsim::{ChaosConfig, ChaosProfile, DropReason};

/// Ambient loss at rate `loss` on every inter-AS traversal, as a seeded
/// chaos profile (`None` when loss-free).
fn ambient_loss(seed: u64, loss: f64) -> Option<ChaosConfig> {
    (loss > 0.0).then(|| ChaosConfig::custom(seed, "link-loss", ChaosProfile::loss_only(loss)))
}

#[test]
fn survey_is_sound_under_packet_loss() {
    let mut cfg = ExperimentConfig::tiny(201);
    cfg.world.chaos = ambient_loss(201, 0.05);
    let data = Experiment::run(cfg);

    // The compiled fault schedule must exist and carry ambient loss.
    let faults = data
        .world
        .faults
        .as_ref()
        .expect("a chaos profile compiles a FaultSchedule");
    assert_eq!(faults.profile_name(), "link-loss");
    assert_eq!(faults.event_counts().get("ambient-loss"), Some(&1));

    // Soundness holds regardless of loss (intrinsic invariants: no false
    // DSAV reachability, packet conservation).
    let report = InvariantChecker::check(&data);
    assert!(report.is_ok(), "{}", report.render());

    // And the survey still finds a solid share of the population: each
    // target gets many probes, so 5% loss costs little.
    let reach = Reachability::compute(&data.input());
    assert!(
        reach.reached.len() > 20,
        "survey collapsed under 5% loss: {} reached",
        reach.reached.len()
    );
}

#[test]
fn loss_only_shrinks_results_never_grows_them() {
    let run = |loss: f64| {
        let mut cfg = ExperimentConfig::tiny(202);
        cfg.world.chaos = ambient_loss(202, loss);
        Experiment::run(cfg)
    };
    let count = |data: &behind_closed_doors::core::ExperimentData| {
        let reach = Reachability::compute(&data.input());
        (reach.reached.len(), reach.reached_asns_all().len())
    };
    let clean = run(0.0);
    let lossy = run(0.30);
    let (addrs_clean, asns_clean) = count(&clean);
    let (addrs_lossy, asns_lossy) = count(&lossy);
    // Loss fates are pure hash draws over shard-invariant packet keys, so
    // the lossy run's evidence is a strict subset of the clean run's: the
    // monotonicity bound is exact, no slack.
    assert!(addrs_lossy <= addrs_clean, "{addrs_lossy} vs {addrs_clean}");
    assert!(asns_lossy <= asns_clean, "{asns_lossy} vs {asns_clean}");
    // 30% loss must actually bite somewhere (follow-up completeness etc.),
    // and every lost packet is attributed to the chaos layer — never the
    // legacy link-loss reason.
    assert!(addrs_lossy < addrs_clean, "loss had no observable effect");
    assert!(
        lossy.counters.dropped(DropReason::ChaosLoss) > 0,
        "no drops attributed to chaos-loss"
    );
    assert_eq!(lossy.counters.dropped(DropReason::LinkLoss), 0);
    assert_eq!(clean.counters.dropped(DropReason::ChaosLoss), 0);

    // The baseline-relative invariants codify the same bound.
    let report = InvariantChecker::check_full(&clean, &lossy);
    assert!(report.is_ok(), "{}", report.render());
}

#[test]
fn qmin_heavy_world_still_detects_ases() {
    // Make a third of resolvers QNAME-minimizing with NXDOMAIN halting:
    // many individual targets become invisible, but AS-level detection
    // survives via the minimized queries themselves plus other resolvers
    // (§3.6.4's conclusion).
    let mut cfg = ExperimentConfig::tiny(203);
    cfg.world.qmin_fraction = 0.33;
    cfg.world.qmin_halts_fraction = 1.0;
    let data = Experiment::run(cfg);
    let input = data.input();
    let reach = Reachability::compute(&input);
    assert!(
        reach.qmin.partial_sources.len() > 3,
        "expected minimized queries, saw {}",
        reach.qmin.partial_sources.len()
    );
    assert!(
        !reach.reached_asns_all().is_empty(),
        "AS detection must survive qmin"
    );
    let report = InvariantChecker::check(&data);
    assert!(report.is_ok(), "{}", report.render());
}

#[test]
fn facade_reexports_are_usable() {
    // The root crate exposes every subsystem under one namespace.
    use behind_closed_doors::{dns, dnswire, geo, netsim, osmodel, stats, worldgen};
    let _ = dnswire::Name::root();
    let _ = netsim::SimTime::ZERO;
    let _ = osmodel::Os::LinuxModern.stack_policy();
    let _ = stats::Beta::range_model(10);
    let _ = geo::Country("US").name();
    let _ = worldgen::WorldConfig::tiny(1);
    let _ = dns::log::shared_log();
}

#[test]
fn survey_trace_exports_as_valid_pcap() {
    use behind_closed_doors::core::{Experiment, ExperimentConfig};
    use behind_closed_doors::netsim::pcap;
    use behind_closed_doors::obs::{ObsEnv, TraceConfig};

    let mut cfg = ExperimentConfig::tiny(401);
    cfg.world.n_as = 10;
    cfg.world.target_scale = 0.02;
    let data = Experiment::run_observed(cfg, &ObsEnv::with_trace(TraceConfig::default()));
    let flight = data.flight.as_ref().expect("tracing armed");
    assert!(flight.packets().next().is_some(), "no packets captured");

    let bytes = pcap::pcap_bytes(flight, true);
    // Magic + linktype are in place and records parse to exactly the
    // buffer's end.
    assert_eq!(&bytes[0..4], &0xa1b2_c3d4u32.to_le_bytes());
    let mut off = 24;
    let mut records = 0;
    while off < bytes.len() {
        let incl = u32::from_le_bytes(bytes[off + 8..off + 12].try_into().unwrap()) as usize;
        off += 16 + incl;
        records += 1;
    }
    assert_eq!(off, bytes.len(), "trailing bytes in pcap");
    assert!(records > 10, "only {records} records captured");
}
