//! Marginal validation: a generated world's population mixes must match the
//! calibration the paper's published numbers dictate (within sampling
//! noise). This is what makes the downstream reproduction an honest one —
//! the analyses rediscover these numbers from packets; here we check the
//! world actually embodies them.

use bcd_worldgen::config::{FORWARD_FRACTION_V4, FORWARD_FRACTION_V6};
use bcd_worldgen::{build, AclKind, PortClass, WorldConfig};

fn big_world() -> build::World {
    build::build(WorldConfig {
        n_as: 400,
        target_scale: 0.25,
        ..WorldConfig::paper_shape(77)
    })
}

#[test]
fn port_class_mix_matches_table4_weights() {
    let w = big_world();
    let direct: Vec<_> = w
        .resolvers
        .iter()
        .filter(|r| r.responsive && !r.forwards)
        .collect();
    assert!(direct.len() > 400, "population too small: {}", direct.len());
    let frac = |class: PortClass| {
        direct.iter().filter(|r| r.port_class == class).count() as f64 / direct.len() as f64
    };
    // Table 4 weights with generous tolerances for sampling noise.
    assert!((frac(PortClass::FullRange) - 0.60).abs() < 0.06);
    assert!((frac(PortClass::LinuxPool) - 0.30).abs() < 0.06);
    assert!((frac(PortClass::Windows) - 0.046).abs() < 0.03);
    assert!(frac(PortClass::Zero) < 0.05);
}

#[test]
fn forward_fractions_match_config() {
    let w = big_world();
    let resp_v4: Vec<_> = w
        .resolvers
        .iter()
        .filter(|r| r.responsive && !r.addr.is_ipv6())
        .collect();
    let fwd = resp_v4.iter().filter(|r| r.forwards).count() as f64 / resp_v4.len() as f64;
    assert!(
        (fwd - FORWARD_FRACTION_V4).abs() < 0.06,
        "v4 forward fraction {fwd}"
    );
    let resp_v6: Vec<_> = w
        .resolvers
        .iter()
        .filter(|r| r.responsive && r.addr.is_ipv6())
        .collect();
    if resp_v6.len() > 50 {
        let fwd6 = resp_v6.iter().filter(|r| r.forwards).count() as f64 / resp_v6.len() as f64;
        assert!(
            (fwd6 - FORWARD_FRACTION_V6).abs() < 0.10,
            "v6 forward fraction {fwd6}"
        );
    }
}

#[test]
fn every_no_dsav_as_with_targets_usually_has_a_responsive_resolver() {
    let w = big_world();
    let mut with_targets = 0;
    let mut with_responsive = 0;
    for &asn in &w.measured_asns {
        if !w.truly_lacks_dsav(asn) {
            continue;
        }
        let targets: Vec<_> = w.resolvers.iter().filter(|r| r.asn == asn).collect();
        if targets.is_empty() {
            continue;
        }
        with_targets += 1;
        if targets.iter().any(|r| r.responsive) {
            with_responsive += 1;
        }
    }
    let frac = with_responsive as f64 / with_targets as f64;
    // The 0.90 responsive-promotion probability plus organic responsiveness.
    assert!(
        frac > 0.85,
        "only {frac:.2} of no-DSAV ASes have a live handler"
    );
}

#[test]
fn acl_kinds_follow_the_open_closed_split() {
    let w = big_world();
    let responsive: Vec<_> = w.resolvers.iter().filter(|r| r.responsive).collect();
    for r in &responsive {
        if r.open {
            assert_eq!(r.acl, AclKind::Open, "{:?}", r.addr);
        } else {
            assert_ne!(r.acl, AclKind::Open, "{:?}", r.addr);
        }
    }
}

#[test]
fn stale_targets_have_no_hosts_and_live_ones_do() {
    let w = big_world();
    for r in w.resolvers.iter().take(2_000) {
        let routed = w.topo.routes().origin(r.addr);
        assert_eq!(routed, Some(r.asn), "target routing broken for {}", r.addr);
    }
    let stale = w.resolvers.iter().filter(|r| !r.live).count();
    let live = w.resolvers.iter().filter(|r| r.live).count();
    assert!(stale > 0 && live > 0);
    // Stale majority per the churn model (~55%).
    let frac = stale as f64 / (stale + live) as f64;
    assert!((0.40..0.75).contains(&frac), "stale fraction {frac}");
}

#[test]
fn geo_covers_every_measured_prefix() {
    let w = big_world();
    for &asn in w.measured_asns.iter().take(100) {
        assert!(
            w.geo.countries_of(asn).next().is_some(),
            "{asn} has no geo attribution"
        );
    }
    for r in w.resolvers.iter().take(500) {
        assert!(
            w.geo.country_of(w.topo.routes(), r.addr).is_some(),
            "{} has no country",
            r.addr
        );
    }
}

#[test]
fn middleboxes_only_in_no_dsav_ases() {
    let w = big_world();
    for &asn in &w.measured_asns {
        if let Some(info) = w.topo.as_info(asn) {
            if info.dns_interceptor.is_some() {
                assert!(
                    !info.policy.dsav,
                    "{asn}: middlebox behind a DSAV border is unobservable"
                );
            }
        }
    }
}

#[test]
fn dsav_ases_filter_bogons_too() {
    // The SAV-hygiene coupling: a DSAV AS must also filter private and
    // loopback sources, or the reachability ⇒ no-DSAV implication breaks.
    let w = big_world();
    for &asn in &w.measured_asns {
        let p = w.topo.as_info(asn).unwrap().policy;
        if p.dsav {
            assert!(p.filter_private_ingress, "{asn}");
            assert!(p.filter_loopback_ingress, "{asn}");
            assert!(p.filter_loopback_ingress_v6, "{asn}");
            assert_eq!(p.internal_pass_permille, 0, "{asn}");
        }
    }
}
