//! Differential harness for the streaming per-shard schedule build.
//!
//! The survey-tier refactor replaced the global build-sort-smooth
//! constructor with per-lane streaming construction: each shard builds
//! only its own lanes, per-target phases are hash-derived from the
//! canonical target bytes, and the rate cap is enforced through
//! deterministic per-lane quotas. The only acceptable evidence that the
//! swap is safe is byte-equality against the legacy-shaped oracle
//! ([`Schedule::build_global`], also reachable as `ScheduleMode::Global`):
//!
//! * **stream ≡ global** — the concatenation of every shard's streamed
//!   part equals the globally built schedule, row for row, for every
//!   lane→shard map,
//! * **shard-count invariance** — the per-shard parts for S ∈ {1, 4, 8}
//!   are exactly the lane partitions of the same global schedule, so the
//!   schedule bytes do not depend on `BCD_SHARDS`,
//! * **conservation & cap** — every census-counted probe is scheduled
//!   exactly once and no second ever exceeds the global rate,
//! * **order independence** — a target's rows depend only on its own
//!   canonical bytes, not on which other targets happen to share the
//!   plan iteration,
//! * **experiment-level identity** — a full tiny survey under
//!   `ScheduleMode::Streaming` and `ScheduleMode::Global` produces the
//!   same merged log digest and reports.

use bcd_core::chaos::run_clean;
use bcd_core::schedule::{self, Schedule, ScheduleMode};
use bcd_core::shard;
use bcd_core::sources::SourcePlan;
use bcd_core::targets::TargetSet;
use bcd_core::{entries_digest, ExperimentConfig, LaneLayout};
use bcd_netsim::{Asn, Prefix, PrefixTable, SimDuration};
use bcd_worldgen::Hitlist;
use std::collections::HashMap;
use std::net::IpAddr;

/// A routed multi-AS population: `n_asns` ASes each announcing a /16 and
/// contributing `per_asn` sorted candidate addresses.
fn population(n_asns: usize, per_asn: usize) -> (TargetSet, PrefixTable) {
    population_sized(&vec![per_asn; n_asns])
}

/// As [`population`], with AS `a` contributing `sizes[a]` candidates.
fn population_sized(sizes: &[usize]) -> (TargetSet, PrefixTable) {
    let mut routes = PrefixTable::new();
    let mut candidates: Vec<IpAddr> = Vec::new();
    for (a, &per_asn) in sizes.iter().enumerate() {
        // 60.x/61.x — well clear of every special-purpose range the
        // target extractor excludes (10/8 would empty the whole set).
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

fn build_streamed(
    targets: &TargetSet,
    routes: &PrefixTable,
    census: &schedule::ScheduleCensus,
    layout: &LaneLayout,
    shards: usize,
) -> (Vec<Schedule>, Vec<Option<usize>>) {
    let (lane_shard, eff) = shard::assign_lanes(&census.lane_counts, shards);
    let parts = (0..eff)
        .map(|sid| {
            Schedule::build_lanes(
                targets,
                routes,
                &Hitlist::default(),
                None,
                &shard::lanes_of_shard(&lane_shard, sid),
                census,
                layout,
            )
        })
        .collect();
    (parts, lane_shard)
}

/// Flatten per-shard parts back into one globally sorted schedule.
fn flatten(parts: &[Schedule], targets: &TargetSet) -> Vec<(u64, IpAddr, IpAddr, u8)> {
    let mut rows: Vec<(u64, IpAddr, IpAddr, u8)> = parts
        .iter()
        .flat_map(|p| {
            p.iter_with(targets)
                .map(|q| (q.at.as_nanos(), q.target, q.source, q.category as u8))
        })
        .collect();
    rows.sort_unstable();
    rows
}

#[test]
fn streaming_equals_global_oracle_across_shard_counts() {
    for seed in [1u64, 77, 20_20] {
        let (targets, routes) = population(23, 7);
        for rate in [3u32, 70, 700] {
            let lanes = schedule::lane_count(rate);
            let census = schedule::census(
                &targets,
                &routes,
                &Hitlist::default(),
                None,
                lanes,
                seed,
                None,
            );
            assert!(census.total > 0, "population must schedule something");
            let layout =
                LaneLayout::new(rate, SimDuration::from_secs(60), census.total, seed, None);
            let oracle = Schedule::build_global(
                &targets,
                &routes,
                &Hitlist::default(),
                None,
                &census,
                &layout,
            );
            let oracle_rows = flatten(std::slice::from_ref(&oracle), &targets);
            for shards in [1usize, 4, 8] {
                let (parts, lane_shard) =
                    build_streamed(&targets, &routes, &census, &layout, shards);
                // Conservation: every census-counted probe scheduled once.
                let total: usize = parts.iter().map(Schedule::len).sum();
                assert_eq!(
                    total as u64, census.total,
                    "seed={seed} rate={rate} S={shards}"
                );
                // Each streamed part is byte-equal to the oracle's lane
                // partition for the same lane→shard map...
                let oracle_parts = oracle.partition_by_lane(&targets, &lane_shard, parts.len());
                assert_eq!(
                    parts, oracle_parts,
                    "seed={seed} rate={rate} S={shards}: streamed parts != oracle partition"
                );
                // ...and the flattened union is the oracle itself, so the
                // schedule bytes are shard-count-invariant.
                assert_eq!(
                    flatten(&parts, &targets),
                    oracle_rows,
                    "seed={seed} rate={rate} S={shards}: flattened union differs"
                );
            }
        }
    }
}

#[test]
fn skewed_lane_streams_equal_to_global_oracle() {
    // One AS holds most of the population, so its lane spills a backlog
    // many times the window long while the other lanes barely queue:
    // rows land inside that backlog, behind it, and in lanes that never
    // spill. The streaming build's per-lane smoother must still equal
    // the global oracle's per-(lane, second) table.
    let mut sizes = vec![2usize; 12];
    sizes[5] = 60;
    let (targets, routes) = population_sized(&sizes);
    let (seed, rate) = (13u64, 700u32);
    let lanes = schedule::lane_count(rate);
    let census = schedule::census(
        &targets,
        &routes,
        &Hitlist::default(),
        None,
        lanes,
        seed,
        None,
    );
    let heavy = *census.lane_counts.iter().max().unwrap();
    assert!(
        heavy * 2 > census.total,
        "one lane must dominate: {heavy} of {}",
        census.total
    );
    let window = SimDuration::from_secs(20);
    let layout = LaneLayout::new(rate, window, census.total, seed, None);
    let oracle = Schedule::build_global(
        &targets,
        &routes,
        &Hitlist::default(),
        None,
        &census,
        &layout,
    );
    assert!(
        oracle.end.as_secs() > 10 * window.as_secs(),
        "the heavy lane must spill far past the window (end {})",
        oracle.end
    );
    for shards in [1usize, 4] {
        let (parts, lane_shard) = build_streamed(&targets, &routes, &census, &layout, shards);
        let oracle_parts = oracle.partition_by_lane(&targets, &lane_shard, parts.len());
        assert_eq!(parts, oracle_parts, "S={shards}: streamed parts != oracle");
    }
}

#[test]
fn per_second_cap_never_exceeded_across_lane_union() {
    let (targets, routes) = population(31, 9);
    for rate in [2u32, 13, 64, 700] {
        let lanes = schedule::lane_count(rate);
        let census = schedule::census(
            &targets,
            &routes,
            &Hitlist::default(),
            None,
            lanes,
            42,
            None,
        );
        let layout = LaneLayout::new(rate, SimDuration::from_secs(10), census.total, 42, None);
        let (parts, _) = build_streamed(&targets, &routes, &census, &layout, 4);
        // The global cap must hold over the union of all shards, not just
        // within each one — that is what the lane quotas guarantee.
        let mut per_sec: HashMap<u64, u32> = HashMap::new();
        for p in &parts {
            for i in 0..p.len() {
                *per_sec
                    .entry(p.at(i).as_nanos() / 1_000_000_000)
                    .or_insert(0) += 1;
            }
        }
        let peak = per_sec.values().copied().max().unwrap_or(0);
        assert!(peak <= rate, "rate={rate}: union peak {peak} exceeds cap");
    }
}

#[test]
fn target_rows_independent_of_surrounding_population() {
    // The same address must get the same plan, phase, and sources whether
    // it is scheduled among 3 targets or 300 — per-target derivation is a
    // pure function of (salt, canonical target bytes). Use a rate high
    // enough that smoothing never moves a row, and populations whose
    // census totals extend the window identically (total/rate == 0).
    let (small, routes_small) = population(3, 4);
    let (large, routes_large) = population(40, 8);
    let salt = 7;
    let rate = 100_000;
    let lanes = schedule::lane_count(rate);
    let window = SimDuration::from_secs(30);
    let rows_of = |targets: &TargetSet, routes: &PrefixTable| {
        let census = schedule::census(
            targets,
            routes,
            &Hitlist::default(),
            None,
            lanes,
            salt,
            None,
        );
        let layout = LaneLayout::new(rate, window, census.total, salt, None);
        let all: Vec<usize> = (0..lanes).collect();
        let s = Schedule::build_lanes(
            targets,
            routes,
            &Hitlist::default(),
            None,
            &all,
            &census,
            &layout,
        );
        let mut by_target: HashMap<IpAddr, Vec<(u64, IpAddr, u8)>> = HashMap::new();
        for q in s.iter_with(targets) {
            by_target.entry(q.target).or_default().push((
                q.at.as_nanos(),
                q.source,
                q.category as u8,
            ));
        }
        by_target
    };
    let small_rows = rows_of(&small, &routes_small);
    let large_rows = rows_of(&large, &routes_large);
    let shared: Vec<&IpAddr> = small_rows
        .keys()
        .filter(|a| large_rows.contains_key(*a))
        .collect();
    assert!(
        !shared.is_empty(),
        "populations must overlap for the test to bite: small={:?} large_n={}",
        small_rows.keys().collect::<Vec<_>>(),
        large_rows.len()
    );
    for addr in shared {
        assert_eq!(
            small_rows[addr], large_rows[addr],
            "{addr}: rows depend on surrounding population"
        );
    }
}

#[test]
fn phase_and_plan_survive_target_set_identity() {
    // Belt-and-braces on the derivation primitives themselves: the phase
    // and the deterministic source plan are functions of (salt, addr)
    // only, never of TargetSet membership or iteration order.
    let (targets, routes) = population(11, 5);
    let layout = LaneLayout::new(700, SimDuration::from_secs(5), 100, 99, None);
    for t in targets.iter() {
        let p1 = SourcePlan::build(t.addr, &routes, &Hitlist::default(), 99);
        let p2 = SourcePlan::build(t.addr, &routes, &Hitlist::default(), 99);
        assert_eq!(p1.sources, p2.sources);
        assert_eq!(layout.phase(t.addr), layout.phase(t.addr));
    }
}

#[test]
fn experiment_streaming_and_global_runs_are_identical() {
    let mut stream_cfg = ExperimentConfig::tiny(20_20);
    stream_cfg.schedule_mode = ScheduleMode::Streaming;
    stream_cfg.shards = 4;
    let mut global_cfg = ExperimentConfig::tiny(20_20);
    global_cfg.schedule_mode = ScheduleMode::Global;
    global_cfg.shards = 4;
    let streamed = run_clean(&stream_cfg);
    let global = run_clean(&global_cfg);
    assert!(!streamed.entries.is_empty(), "streamed run produced no log");
    assert_eq!(streamed.entries.len(), global.entries.len());
    assert_eq!(entries_digest(&streamed), entries_digest(&global));
    assert_eq!(
        format!("{:?}", streamed.scanner_stats),
        format!("{:?}", global.scanner_stats)
    );
}
