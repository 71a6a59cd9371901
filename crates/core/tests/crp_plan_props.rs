//! Property tests for the CRP pass's probe planning: the inbound scan
//! reuses the streaming schedule machinery under an internal-category
//! filter ([`bcd_core::crp::CRP_CATEGORIES`]), and its probe plans must be
//!
//! * **filtered** — every scheduled row carries an internal source
//!   category; loopback/private rows never leak into the CRP schedule,
//! * **population-independent** — a target's CRP rows are a pure function
//!   of `(salt, canonical target bytes)`, never of which other targets
//!   share the population,
//! * **conserved across lane→shard assignment** — for any shard count,
//!   the per-shard streamed parts carry every census-counted probe exactly
//!   once and flatten back to the single-schedule oracle.
//!
//! Schedule-layer only (no engine runs), so the case counts can afford to
//! be higher than the chaos proptests'.

use bcd_core::crp::CRP_CATEGORIES;
use bcd_core::schedule::{self, Schedule};
use bcd_core::shard;
use bcd_core::targets::TargetSet;
use bcd_core::LaneLayout;
use bcd_netsim::{Asn, Prefix, PrefixTable, SimDuration};
use bcd_worldgen::Hitlist;
use proptest::prelude::*;
use std::collections::HashMap;
use std::net::IpAddr;

/// A routed multi-AS population: `n_asns` ASes each announcing a /16 and
/// contributing `per_asn` sorted candidate addresses.
fn population(n_asns: usize, per_asn: usize) -> (TargetSet, PrefixTable) {
    let mut routes = PrefixTable::new();
    let mut candidates: Vec<IpAddr> = Vec::new();
    for a in 0..n_asns {
        let net = 60 + a / 200;
        let p: Prefix = format!("{net}.{}.0.0/16", a % 200).parse().unwrap();
        routes.announce(p, Asn(1000 + a as u32));
        for h in 0..per_asn {
            candidates.push(
                format!("{net}.{}.{}.{}", a % 200, h / 200, 1 + h % 200)
                    .parse()
                    .unwrap(),
            );
        }
    }
    candidates.sort_unstable();
    let targets = TargetSet::from_candidates(&candidates, &routes);
    (targets, routes)
}

/// Per-target CRP rows under the internal-category filter, built from the
/// full lane set of a single streamed schedule.
fn crp_rows(
    targets: &TargetSet,
    routes: &PrefixTable,
    salt: u64,
    rate: u32,
) -> HashMap<IpAddr, Vec<(u64, IpAddr, u8)>> {
    let filter = Some(&CRP_CATEGORIES[..]);
    let lanes = schedule::lane_count(rate);
    let census = schedule::census(
        targets,
        routes,
        &Hitlist::default(),
        filter,
        lanes,
        salt,
        None,
    );
    let layout = LaneLayout::new(rate, SimDuration::from_secs(30), census.total, salt, None);
    let all: Vec<usize> = (0..lanes).collect();
    let s = Schedule::build_lanes(
        targets,
        routes,
        &Hitlist::default(),
        filter,
        &all,
        &census,
        &layout,
    );
    let mut by_target: HashMap<IpAddr, Vec<(u64, IpAddr, u8)>> = HashMap::new();
    for q in s.iter_with(targets) {
        assert!(
            CRP_CATEGORIES.contains(&q.category),
            "{:?} leaked through the internal-category filter",
            q.category
        );
        by_target
            .entry(q.target)
            .or_default()
            .push((q.at.as_nanos(), q.source, q.category as u8));
    }
    by_target
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A target shared between a small and a large population gets
    /// byte-identical CRP rows in both — plans derive from canonical
    /// target bytes, not from the surrounding population. A rate high
    /// enough that smoothing never displaces a row keeps timestamps
    /// comparable.
    #[test]
    fn crp_plans_are_population_independent(
        salt in any::<u64>(),
        small_asns in 2usize..6,
        large_asns in 20usize..40,
        per_asn in 2usize..6,
    ) {
        let (small, routes_small) = population(small_asns, per_asn);
        let (large, routes_large) = population(large_asns, per_asn + 2);
        let rate = 100_000;
        let small_rows = crp_rows(&small, &routes_small, salt, rate);
        let large_rows = crp_rows(&large, &routes_large, salt, rate);
        let shared: Vec<&IpAddr> = small_rows
            .keys()
            .filter(|a| large_rows.contains_key(*a))
            .collect();
        prop_assert!(!shared.is_empty(), "populations must overlap to bite");
        for addr in shared {
            prop_assert_eq!(
                &small_rows[addr], &large_rows[addr],
                "{}: CRP rows depend on surrounding population", addr
            );
        }
    }

    /// For any shard count, the streamed per-shard CRP parts conserve the
    /// census total and flatten to the global single-schedule oracle —
    /// the lane→shard map cannot create, drop, or move a probe.
    #[test]
    fn crp_probes_conserved_across_lane_assignment(
        salt in any::<u64>(),
        n_asns in 5usize..30,
        per_asn in 2usize..8,
        rate in prop::sample::select(vec![3u32, 70, 700]),
        shards in 1usize..9,
    ) {
        let (targets, routes) = population(n_asns, per_asn);
        let filter = Some(&CRP_CATEGORIES[..]);
        let lanes = schedule::lane_count(rate);
        let census = schedule::census(&targets, &routes, &Hitlist::default(), filter, lanes, salt, None);
        prop_assert!(census.total > 0, "population must schedule something");
        let layout = LaneLayout::new(rate, SimDuration::from_secs(60), census.total, salt, None);
        let oracle = Schedule::build_global(&targets, &routes, &Hitlist::default(), filter, &census, &layout);
        prop_assert_eq!(oracle.len() as u64, census.total);
        let (lane_shard, eff) = shard::assign_lanes(&census.lane_counts, shards);
        let parts: Vec<Schedule> = (0..eff)
            .map(|sid| {
                Schedule::build_lanes(
                    &targets,
                    &routes,
                    &Hitlist::default(),
                    filter,
                    &shard::lanes_of_shard(&lane_shard, sid),
                    &census,
                    &layout,
                )
            })
            .collect();
        let total: usize = parts.iter().map(Schedule::len).sum();
        prop_assert_eq!(total as u64, census.total, "S={}: probes not conserved", shards);
        let oracle_parts = oracle.partition_by_lane(&targets, &lane_shard, parts.len());
        prop_assert_eq!(
            parts, oracle_parts,
            "S={}: streamed CRP parts differ from the oracle partition", shards
        );
    }
}
