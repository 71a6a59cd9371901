//! End-to-end methodology validation: run the full experiment on a small
//! world and check the *inferences* against the world's ground truth —
//! the test the real experiment could never have.

use bcd_core::analysis::categories::CategoryReport;
use bcd_core::analysis::forwarding::ForwardingReport;
use bcd_core::analysis::local::LocalInfiltrationReport;
use bcd_core::analysis::openclosed::OpenClosedReport;
use bcd_core::analysis::ports::PortReport;
use bcd_core::analysis::reachability::{MiddleboxReport, Reachability};
use bcd_core::scanner::FOLLOWUPS_PER_FAMILY;
use bcd_core::{Experiment, ExperimentConfig};
use bcd_worldgen::PortClass;

fn run(seed: u64) -> bcd_core::ExperimentData {
    Experiment::run(ExperimentConfig::tiny(seed))
}

#[test]
fn reachability_never_claims_a_dsav_protected_as() {
    let data = run(101);
    let input = data.input();
    let reach = Reachability::compute(&input);
    // Soundness: every AS we classify as lacking DSAV truly lacks it.
    for asn in reach.reached_asns_all() {
        assert!(
            data.world.truly_lacks_dsav(asn),
            "{asn} claimed reachable but has DSAV"
        );
    }
    // And we found a non-trivial number of them.
    assert!(
        reach.reached_asns_all().len() >= 5,
        "only {} ASes reached",
        reach.reached_asns_all().len()
    );
}

#[test]
fn reachability_finds_most_responsive_direct_targets() {
    // A somewhat larger world so the expected population is meaningful.
    let mut cfg = ExperimentConfig::tiny(102);
    cfg.world.n_as = 100;
    cfg.world.target_scale = 0.08;
    let data = Experiment::run(cfg);
    let input = data.input();
    let reach = Reachability::compute(&input);
    // Completeness (approximate): responsive, non-qmin-halted targets in
    // no-DSAV ASes whose ACL admits at least the same-prefix spoof should
    // mostly be found. Borders with subnet SAVI or private filtering may
    // still block specific categories, so require a strong majority, not
    // all.
    let mut expected = 0;
    let mut found = 0;
    for meta in &data.world.resolvers {
        let as_ok = data.world.truly_lacks_dsav(meta.asn);
        let savi = data
            .world
            .as_info(meta.asn)
            .map(|a| a.policy.subnet_savi)
            .unwrap_or(false);
        let mbx = data
            .world
            .as_info(meta.asn)
            .map(|a| a.dns_interceptor.is_some())
            .unwrap_or(false);
        if as_ok
            && !savi
            && !mbx
            && meta.responsive
            && !(meta.qmin && meta.qmin_halts)
            && matches!(
                meta.acl,
                bcd_worldgen::AclKind::Open | bcd_worldgen::AclKind::AsWide
            )
        {
            expected += 1;
            if reach.reached.contains_key(&meta.addr) {
                found += 1;
            }
        }
    }
    assert!(expected > 10, "world too small: {expected}");
    let frac = found as f64 / expected as f64;
    assert!(
        frac > 0.9,
        "found only {found} of {expected} expected reachable targets"
    );
}

#[test]
fn open_closed_classification_matches_truth() {
    let data = run(103);
    let input = data.input();
    let reach = Reachability::compute(&input);
    let oc = OpenClosedReport::compute(&input, &reach);
    let mut checked = 0;
    for addr in oc.open.iter() {
        let meta = data.world.meta_of(*addr).expect("open addr is a target");
        // A middlebox answers the open probe on behalf of anyone in its AS,
        // so intercepted closed resolvers legitimately *look* open — the
        // paper's measurement would see the same.
        let mbx = data
            .world
            .as_info(meta.asn)
            .map(|a| a.dns_interceptor.is_some())
            .unwrap_or(false);
        assert!(
            meta.open || mbx,
            "{addr} classified open but truth says closed"
        );
        checked += 1;
    }
    // Closed classification: resolvers marked closed must not be truth-open
    // (an open resolver always answers our real-source probe).
    for addr in oc.closed.iter() {
        let meta = data.world.meta_of(*addr).expect("closed addr is a target");
        assert!(
            !meta.open || meta.forwards,
            "{addr} classified closed but truth says open (forwards={})",
            meta.forwards
        );
        checked += 1;
    }
    assert!(checked > 10, "too few classified resolvers: {checked}");
}

#[test]
fn port_ranges_identify_zero_range_resolvers_exactly() {
    let data = run(104);
    let input = data.input();
    let reach = Reachability::compute(&input);
    let oc = OpenClosedReport::compute(&input, &reach);
    let ports = PortReport::compute(&input, &oc);
    assert!(
        !ports.observations.is_empty(),
        "no port observations collected"
    );
    for obs in &ports.observations {
        let meta = data
            .world
            .meta_of(obs.addr)
            .expect("observed addr is a target");
        assert!(!meta.forwards, "direct-only filter leaked a forwarder");
        // Ground-truth port class vs measured range.
        match meta.port_class {
            PortClass::Zero => assert_eq!(obs.range, 0, "{:?}", obs),
            PortClass::SeqSmall => assert!(obs.range >= 1 && obs.range <= 200, "{obs:?}"),
            PortClass::Windows
                // After wrap adjustment (p0f-visible instances) the range
                // must be within the 2,500 pool; invisible ones may show a
                // wrapped (huge) raw range.
                if (obs.adjusted || obs.range < 2_500) => {
                    assert!(obs.range < 2_500, "{obs:?}");
                }
            PortClass::LinuxPool => assert!(obs.range < 28_232, "{obs:?}"),
            PortClass::FreeBsdPool => assert!(obs.range < 16_383, "{obs:?}"),
            _ => {}
        }
    }
}

#[test]
fn forwarding_detection_matches_truth() {
    let data = run(105);
    let input = data.input();
    let fwd = ForwardingReport::compute(&input);
    for addr in fwd.direct_v4.iter().chain(&fwd.direct_v6) {
        let meta = data.world.meta_of(*addr).expect("target");
        assert!(!meta.forwards, "{addr} classified direct but forwards");
    }
    for addr in fwd.forwarded_v4.iter().chain(&fwd.forwarded_v6) {
        let meta = data.world.meta_of(*addr).expect("target");
        // Known ambiguities the paper also hits: a dual-stack resolver
        // answering from its other-family address, and middlebox-intercepted
        // targets whose queries surface from the proxy's upstream.
        let mbx = data
            .world
            .as_info(meta.asn)
            .map(|a| a.dns_interceptor.is_some())
            .unwrap_or(false);
        assert!(
            meta.forwards || meta.other_addr.is_some() || mbx,
            "{addr} classified forwarding but is direct (no ambiguity applies)"
        );
    }
    assert!(fwd.resolved_v4() > 5);
}

#[test]
fn local_infiltration_respects_stack_models() {
    let data = run(106);
    let input = data.input();
    let reach = Reachability::compute(&input);
    let local = LocalInfiltrationReport::compute(&reach);
    let behind_mbx = |asn| {
        data.world
            .as_info(asn)
            .map(|a| a.dns_interceptor.is_some())
            .unwrap_or(false)
    };
    // Every v4 dst-as-src hit must be on an OS that accepts v4 DS
    // (i.e. never modern/old Linux, per Table 6) — unless a middlebox
    // answered for the host before its stack ever saw the packet.
    for addr in &local.dst_as_src_v4 {
        let meta = data.world.meta_of(*addr).unwrap();
        assert!(
            meta.os.stack_policy().accept_dst_as_src_v4 || behind_mbx(meta.asn),
            "{addr}: {:?} should drop v4 dst-as-src",
            meta.os
        );
    }
    // Loopback hits require a stack that accepts them.
    for addr in &local.loopback_v6 {
        let meta = data.world.meta_of(*addr).unwrap();
        assert!(meta.os.stack_policy().accept_loopback_v6 || behind_mbx(meta.asn));
    }
    for addr in &local.loopback_v4 {
        let meta = data.world.meta_of(*addr).unwrap();
        assert!(meta.os.stack_policy().accept_loopback_v4 || behind_mbx(meta.asn));
    }
}

#[test]
fn category_report_totals_are_consistent() {
    let data = run(107);
    let input = data.input();
    let reach = Reachability::compute(&input);
    let cats = CategoryReport::compute(&reach);
    assert_eq!(
        cats.reached_addrs_v4 + cats.reached_addrs_v6,
        reach.reached.len()
    );
    // Exclusive counts can never exceed inclusive counts.
    for v6 in [false, true] {
        for cat in bcd_core::SourceCategory::ALL {
            let row = cats.row(v6, cat);
            assert!(row.exclusive_addrs <= row.inclusive_addrs);
            assert!(row.exclusive_asns <= row.inclusive_asns);
        }
    }
    // Other-prefix or same-prefix should dominate inclusive counts.
    let op = cats.row(false, bcd_core::SourceCategory::OtherPrefix);
    let sp = cats.row(false, bcd_core::SourceCategory::SamePrefix);
    assert!(op.inclusive_addrs + sp.inclusive_addrs > 0);
}

#[test]
fn middlebox_attribution_accounts_for_all_reached_ases() {
    let data = run(108);
    let input = data.input();
    let reach = Reachability::compute(&input);
    let mbx = MiddleboxReport::compute(&input, &reach);
    let total = mbx.direct_asns.len() + mbx.public_dns_only_asns.len() + mbx.other_only_asns.len();
    assert_eq!(total, reach.reached_asns_all().len());
    // Most reached ASes show a direct in-AS source (paper: 86–95%).
    assert!(
        mbx.direct_asns.len() * 2 > total,
        "direct {} of {total}",
        mbx.direct_asns.len()
    );
}

#[test]
fn human_noise_is_filtered_by_lifetime() {
    // Crank human noise way up; the lifetime filter must still keep every
    // reachability claim sound.
    let mut cfg = ExperimentConfig::tiny(109);
    cfg.world.human_lookup_fraction = 0.01;
    cfg.world.human_lookup_delay_secs = 3_600;
    let data = Experiment::run(cfg);
    let input = data.input();
    let reach = Reachability::compute(&input);
    assert!(
        reach.lifetime.late_entries > 0,
        "noise injection should have produced late queries"
    );
    for asn in reach.reached_asns_all() {
        assert!(
            data.world.truly_lacks_dsav(asn),
            "{asn}: human-noise query leaked into reachability"
        );
    }
}

#[test]
fn experiment_is_deterministic() {
    let a = run(110);
    let b = run(110);
    assert_eq!(a.entries.len(), b.entries.len());
    assert_eq!(a.scanner_stats.spoofed_sent, b.scanner_stats.spoofed_sent);
    assert_eq!(a.scanner_stats.followup_sets, b.scanner_stats.followup_sets);
    let ra = Reachability::compute(&a.input());
    let rb = Reachability::compute(&b.input());
    assert_eq!(ra.reached.len(), rb.reached.len());
    assert_eq!(ra.reached_asns_all(), rb.reached_asns_all());
}

#[test]
fn scanner_sent_the_planned_queries_and_fired_followups() {
    let data = run(111);
    let stats = &data.scanner_stats;
    assert!(stats.spoofed_sent > 1_000, "{stats:?}");
    assert!(stats.followup_sets > 0, "{stats:?}");
    assert_eq!(
        stats.followup_queries,
        stats.followup_sets * 2 * FOLLOWUPS_PER_FAMILY
    );
    assert_eq!(stats.open_probes, stats.followup_sets);
    assert_eq!(stats.tcp_probes, stats.followup_sets);
    // REFUSED responses from closed resolvers to the open probe are the
    // §3.8 anecdote signal.
    assert!(stats.responses_received > 0);
}
