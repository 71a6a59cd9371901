//! The query schedule (§3.4) — streaming per-shard construction.
//!
//! The paper sent ~1 billion queries over four weeks at ~700 qps (an
//! administrative cap), spreading each target's queries evenly over the
//! whole window so no destination saw more than ~4 queries/day. We build
//! the same structure over a configurable (usually compressed) window,
//! but — since the 62k-AS world made the population real — without ever
//! materializing the global query vector in one process:
//!
//! * **Per-target derivation.** Each target's source plan and window
//!   phase are hash-derived from the canonical target address bytes
//!   (`crate::hash::addr_hash`), never drawn from a shared RNG in plan
//!   iteration order. A shard that plans only its own targets produces
//!   exactly the bytes the old global pass produced for them.
//! * **Rate lanes.** The global rate cap is decomposed into
//!   `lanes = min(64, rate)` fixed *lanes*; a target's lane is the FNV
//!   hash of its origin ASN mod `lanes`, and each lane owns an exact
//!   slice of the cap (`rate / lanes`, the remainder spread over the
//!   low lanes, so lane quotas sum to `rate` exactly). Leaky-bucket
//!   smoothing runs *per lane*, so a lane's send times depend only on
//!   that lane's own queries. Lanes — not shards — are the unit of
//!   determinism: the runtime maps lanes onto however many shards
//!   `BCD_SHARDS` asks for, and the schedule bytes never change.
//! * **Census prepass.** A cheap counting pass
//!   ([`SourcePlan::planned_len`]: no RNG, no source draws, only each
//!   target's short-lived other-prefix list) sizes the window extension
//!   and every lane before any schedule memory exists.
//! * **Compact SoA rows.** A scheduled probe is a nanosecond timestamp,
//!   a `u32` flat target index, a `u128` source-address payload and a
//!   category tag (~29 B/row) instead of the old 48-byte AoS struct with
//!   two `IpAddr`s. The flat target index is monotone in the target
//!   address (see [`crate::targets::TargetSet::get`]), so sorting by
//!   `(at, target_idx, source)` is the legacy `(at, target, source)`
//!   order.
//!
//! [`Schedule::build_global`] keeps the legacy shape — materialize
//! everything, sort globally, smooth in one pass — as a differential
//! oracle ([`ScheduleMode::Global`]): the streaming per-lane build must be
//! byte-equal to the partitioned global build on every world, which the
//! `schedule_stream` suite checks across shard counts and seeds.

use crate::hash::addr_hash;
use crate::sources::{SourceCategory, SourcePlan};
use crate::targets::TargetSet;
use bcd_netsim::{PrefixTable, SimDuration, SimTime};
use bcd_worldgen::Hitlist;
use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Upper bound on rate lanes. 64 divides evenly onto every shard count we
/// run (1..=64) and keeps the per-lane smoothing bucket small; with
/// `rate < 64` each lane simply owns ≥ 1 qps.
pub const MAX_LANES: usize = 64;

/// Number of rate lanes for a given global cap.
pub fn lane_count(rate: u32) -> usize {
    (rate as usize).clamp(1, MAX_LANES)
}

/// The lane a target belongs to: FNV-1a of its origin ASN, mod `lanes`.
/// Keyed on the ASN (not the address) so every probe of an AS — and
/// therefore every query-log line of an AS — stays in one lane, which is
/// what lets the runtime keep whole ASes on one shard.
pub fn lane_of_asn(asn: u32, lanes: usize) -> usize {
    crate::shard::shard_of_asn(asn, lanes)
}

/// Which schedule constructor the experiment uses. `Streaming` is the
/// production path; `Global` is the legacy-shaped oracle the differential
/// tests select through `ExperimentConfig::schedule_mode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleMode {
    #[default]
    Streaming,
    Global,
}

/// Deterministic 1-in-`sample` target keep decision, hash-derived from the
/// canonical target bytes so the kept subset is identical for any shard
/// layout (and stable under population growth elsewhere in the world).
pub fn keeps_target(salt: u64, sample: Option<u64>, addr: IpAddr) -> bool {
    match sample {
        None => true,
        Some(n) if n <= 1 => true,
        Some(n) => addr_hash(salt, addr, b"sample").is_multiple_of(n),
    }
}

/// Everything the census learned: exact totals, before any schedule memory
/// is allocated.
#[derive(Debug, Clone)]
pub struct ScheduleCensus {
    /// Total probes across all lanes (after sampling and category filter).
    pub total: u64,
    /// Probes per lane — sizes the per-shard reservations exactly.
    pub lane_counts: Vec<u64>,
    /// Targets that survived the sampling filter (and have a plan).
    pub sampled_targets: u64,
}

impl ScheduleCensus {
    /// Lanes that actually carry probes.
    pub fn occupied_lanes(&self) -> usize {
        self.lane_counts.iter().filter(|&&c| c > 0).count()
    }
}

/// Count every probe without building one: per-target plan lengths via
/// [`SourcePlan::planned_len`] (no RNG, no source draws; it does allocate
/// the target's capped other-prefix list), bucketed by lane. Both
/// constructors and the window-extension rule consume this, so streaming
/// and global agree on the extended window by construction.
pub fn census(
    targets: &TargetSet,
    routes: &PrefixTable,
    hitlist: &Hitlist,
    filter: Option<&[SourceCategory]>,
    lanes: usize,
    salt: u64,
    sample: Option<u64>,
) -> ScheduleCensus {
    let mut c = ScheduleCensus {
        total: 0,
        lane_counts: vec![0; lanes],
        sampled_targets: 0,
    };
    for t in targets.iter() {
        if !keeps_target(salt, sample, t.addr) {
            continue;
        }
        let k = filtered_len(t.addr, routes, hitlist, filter) as u64;
        if k == 0 {
            continue;
        }
        c.total += k;
        c.lane_counts[lane_of_asn(t.asn.0, lanes)] += k;
        c.sampled_targets += 1;
    }
    c
}

/// Plan length under an optional category filter — exact mirror of
/// building the plan and retaining the filtered categories.
fn filtered_len(
    target: IpAddr,
    routes: &PrefixTable,
    hitlist: &Hitlist,
    filter: Option<&[SourceCategory]>,
) -> usize {
    let full = SourcePlan::planned_len(target, routes, hitlist);
    let Some(keep) = filter else { return full };
    let mut n = 0;
    if keep.contains(&SourceCategory::OtherPrefix) {
        n += full - 4;
    }
    for c in [
        SourceCategory::SamePrefix,
        SourceCategory::Private,
        SourceCategory::DstAsSrc,
        SourceCategory::Loopback,
    ] {
        n += usize::from(keep.contains(&c));
    }
    n
}

/// The fixed geometry every schedule constructor shares: lane count, lane
/// quotas, the (possibly extended) window, and the hash salt for phases /
/// plans / sampling. Built once from the census; identical on every shard.
#[derive(Debug, Clone)]
pub struct LaneLayout {
    pub lanes: usize,
    pub rate: u32,
    /// Extended window in nanoseconds — phases are drawn mod this.
    pub window_ns: u64,
    /// Seed-derived salt for all per-target hash draws.
    pub salt: u64,
    /// Keep-1-in-N deterministic target subsample (`None` = full list).
    pub sample: Option<u64>,
}

impl LaneLayout {
    /// Extend the window if the cap makes the request infeasible (the
    /// paper, too, ran long — §3.4), then fix the lane geometry.
    pub fn new(
        rate: u32,
        window: SimDuration,
        total: u64,
        salt: u64,
        sample: Option<u64>,
    ) -> LaneLayout {
        assert!(rate > 0);
        let needed = SimDuration::from_secs(total / u64::from(rate) + 1);
        let window = window.max(needed);
        LaneLayout {
            lanes: lane_count(rate),
            rate,
            window_ns: window.as_nanos().max(1),
            salt,
            sample,
        }
    }

    /// The per-second quota of `lane`. Quotas sum to exactly `rate`: every
    /// lane gets the floor share and the first `rate % lanes` lanes absorb
    /// the remainder.
    pub fn quota(&self, lane: usize) -> u32 {
        let lanes = self.lanes as u32;
        self.rate / lanes + u32::from((lane as u32) < self.rate % lanes)
    }

    /// The target's deterministic window phase in nanoseconds.
    pub fn phase(&self, addr: IpAddr) -> u64 {
        addr_hash(self.salt, addr, b"phase") % self.window_ns
    }

    /// Sampling decision for this layout.
    pub fn keeps(&self, addr: IpAddr) -> bool {
        keeps_target(self.salt, self.sample, addr)
    }
}

/// One scheduled spoofed probe — the row view the scanner and the tests
/// consume. Storage is the SoA [`Schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledQuery {
    pub at: SimTime,
    pub target: IpAddr,
    pub source: IpAddr,
    pub category: SourceCategory,
}

/// A schedule slice, sorted by `(at, target, source)` — either one shard's
/// probes (streaming build) or the whole survey (global oracle). Columnar:
/// ~29 B per probe against the old 48-byte AoS row, and the target column
/// is a `u32` index into the [`TargetSet`] instead of a 17-byte `IpAddr`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Schedule {
    at: Vec<SimTime>,
    target_idx: Vec<u32>,
    /// Source address payload: v4 in the low 32 bits, v6 as the full 128.
    /// The family is the target's family (every §3.2 source matches it).
    source_bits: Vec<u128>,
    category: Vec<SourceCategory>,
    /// The actual window end (≥ the requested one if the rate cap forced
    /// an extension).
    pub end: SimTime,
}

fn addr_bits(a: IpAddr) -> u128 {
    match a {
        IpAddr::V4(v) => u128::from(u32::from(v)),
        IpAddr::V6(v) => u128::from(v),
    }
}

fn bits_addr(bits: u128, v6: bool) -> IpAddr {
    if v6 {
        IpAddr::V6(Ipv6Addr::from(bits))
    } else {
        IpAddr::V4(Ipv4Addr::from(bits as u32))
    }
}

impl Schedule {
    /// Number of scheduled probes.
    pub fn len(&self) -> usize {
        self.at.len()
    }

    /// True if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    /// Send time of row `i`.
    pub fn at(&self, i: usize) -> SimTime {
        self.at[i]
    }

    /// Flat target index of row `i` (see [`TargetSet::get`]).
    pub fn target_index(&self, i: usize) -> u32 {
        self.target_idx[i]
    }

    /// Source address of row `i`; `v6` is the target's family.
    pub fn source(&self, i: usize, v6: bool) -> IpAddr {
        bits_addr(self.source_bits[i], v6)
    }

    /// Source category of row `i`.
    pub fn category(&self, i: usize) -> SourceCategory {
        self.category[i]
    }

    /// Send time of the first row, if any.
    pub fn first_at(&self) -> Option<SimTime> {
        self.at.first().copied()
    }

    /// Materialize row `i` against its target set.
    pub fn query(&self, i: usize, targets: &TargetSet) -> ScheduledQuery {
        let t = targets.get(self.target_idx[i] as usize);
        ScheduledQuery {
            at: self.at[i],
            target: t.addr,
            source: bits_addr(self.source_bits[i], t.addr.is_ipv6()),
            category: self.category[i],
        }
    }

    /// Iterate all rows as [`ScheduledQuery`] views.
    pub fn iter_with<'a>(
        &'a self,
        targets: &'a TargetSet,
    ) -> impl Iterator<Item = ScheduledQuery> + 'a {
        (0..self.len()).map(move |i| self.query(i, targets))
    }

    /// The maximum number of sends in any single second.
    pub fn peak_rate(&self) -> u32 {
        let mut per_sec: BTreeMap<u64, u32> = BTreeMap::new();
        for at in &self.at {
            *per_sec.entry(at.as_secs()).or_insert(0) += 1;
        }
        per_sec.values().copied().max().unwrap_or(0)
    }

    fn push_raw(&mut self, r: &Raw) {
        self.at.push(SimTime::from_nanos(r.at_ns));
        self.target_idx.push(r.tidx);
        self.source_bits.push(r.bits);
        self.category.push(r.cat);
        self.end = self.end.max(SimTime::from_nanos(r.at_ns));
    }

    fn reserve(n: usize) -> Schedule {
        Schedule {
            at: Vec::with_capacity(n),
            target_idx: Vec::with_capacity(n),
            source_bits: Vec::with_capacity(n),
            category: Vec::with_capacity(n),
            end: SimTime::ZERO,
        }
    }

    /// Build the probes of `owned_lanes` only — the streaming per-shard
    /// constructor. Each lane's rows are derived independently (plans and
    /// phases are per-target hashes), smoothed under the lane's own quota,
    /// and merged into one sorted slice. Byte-equal to the corresponding
    /// partition of [`Schedule::build_global`] for every lane→shard map.
    pub fn build_lanes(
        targets: &TargetSet,
        routes: &PrefixTable,
        hitlist: &Hitlist,
        filter: Option<&[SourceCategory]>,
        owned_lanes: &[usize],
        census: &ScheduleCensus,
        layout: &LaneLayout,
    ) -> Schedule {
        // lane id -> slot in `buckets` for owned lanes.
        let mut slot_of = vec![usize::MAX; layout.lanes];
        let mut buckets: Vec<Vec<Raw>> = Vec::with_capacity(owned_lanes.len());
        for &l in owned_lanes {
            slot_of[l] = buckets.len();
            buckets.push(Vec::with_capacity(census.lane_counts[l] as usize));
        }

        for (tidx, t) in targets.iter().enumerate() {
            let lane = lane_of_asn(t.asn.0, layout.lanes);
            let slot = slot_of[lane];
            if slot == usize::MAX || !layout.keeps(t.addr) {
                continue;
            }
            derive_target(
                t.addr,
                tidx as u32,
                lane,
                routes,
                hitlist,
                filter,
                layout,
                |r| buckets[slot].push(r),
            );
        }

        let total: usize = buckets.iter().map(Vec::len).sum();
        let mut all: Vec<Raw> = Vec::with_capacity(total);
        for (slot, &lane) in owned_lanes.iter().enumerate() {
            let mut b = std::mem::take(&mut buckets[slot]);
            b.sort_unstable_by_key(Raw::key);
            smooth_lane(&mut b, layout.quota(lane));
            all.append(&mut b);
        }
        all.sort_unstable_by_key(Raw::key);

        let mut s = Schedule::reserve(all.len());
        for r in &all {
            s.push_raw(r);
        }
        s
    }

    /// The legacy-shaped oracle: materialize every probe in one vec, sort
    /// globally, smooth in one pass over the global order (with the same
    /// per-lane buckets), sort again. Kept only so the differential tests
    /// can prove the streaming path equivalent — never run at full
    /// population.
    pub fn build_global(
        targets: &TargetSet,
        routes: &PrefixTable,
        hitlist: &Hitlist,
        filter: Option<&[SourceCategory]>,
        census: &ScheduleCensus,
        layout: &LaneLayout,
    ) -> Schedule {
        let mut all: Vec<Raw> = Vec::with_capacity(census.total as usize);
        for (tidx, t) in targets.iter().enumerate() {
            if !layout.keeps(t.addr) {
                continue;
            }
            let lane = lane_of_asn(t.asn.0, layout.lanes);
            derive_target(
                t.addr,
                tidx as u32,
                lane,
                routes,
                hitlist,
                filter,
                layout,
                |r| all.push(r),
            );
        }
        all.sort_unstable_by_key(Raw::key);

        // One global smoothing pass, bucketed per (lane, second): the old
        // single-bucket code with the cap split into lane quotas.
        let mut used: BTreeMap<(u16, u64), u32> = BTreeMap::new();
        for r in &mut all {
            let quota = layout.quota(r.lane as usize);
            let mut sec = r.at_ns / NANOS_PER_SEC;
            loop {
                let u = used.entry((r.lane, sec)).or_insert(0);
                if *u < quota {
                    *u += 1;
                    break;
                }
                sec += 1;
            }
            if sec != r.at_ns / NANOS_PER_SEC {
                r.at_ns = sec * NANOS_PER_SEC;
            }
        }
        all.sort_unstable_by_key(Raw::key);

        let mut s = Schedule::reserve(all.len());
        for r in &all {
            s.push_raw(r);
        }
        s
    }

    /// Split a [`Schedule::build_global`] schedule into per-shard slices
    /// with the same lane→shard map the streaming path uses. The oracle
    /// half of the differential harness.
    pub fn partition_by_lane(
        &self,
        targets: &TargetSet,
        lane_shard: &[Option<usize>],
        shards: usize,
    ) -> Vec<Schedule> {
        let lanes = lane_shard.len();
        let mut parts = vec![Schedule::default(); shards];
        for i in 0..self.len() {
            let asn = targets.get(self.target_idx[i] as usize).asn.0;
            let lane = lane_of_asn(asn, lanes);
            let sid = lane_shard[lane].expect("scheduled probe in an unassigned lane");
            let r = Raw {
                at_ns: self.at[i].as_nanos(),
                tidx: self.target_idx[i],
                lane: lane as u16,
                bits: self.source_bits[i],
                cat: self.category[i],
            };
            parts[sid].push_raw(&r);
        }
        parts
    }
}

const NANOS_PER_SEC: u64 = 1_000_000_000;

/// One probe during construction, before the SoA columns are filled.
struct Raw {
    at_ns: u64,
    tidx: u32,
    lane: u16,
    bits: u128,
    cat: SourceCategory,
}

impl Raw {
    /// The canonical sort key. `tidx` is monotone in target address
    /// (v4-then-v6 flat index over sorted family vecs), so this is the
    /// legacy `(at, target, source)` order; the category tail only breaks
    /// ties between pathological duplicate sources.
    fn key(&self) -> (u64, u32, u128, u8) {
        (self.at_ns, self.tidx, self.bits, self.cat as u8)
    }
}

/// Derive one target's probes: hash-seeded source plan, hash-derived
/// phase, even spacing of the plan over the window. Shared verbatim by the
/// streaming and global constructors — only where the rows go differs.
#[allow(clippy::too_many_arguments)]
fn derive_target(
    addr: IpAddr,
    tidx: u32,
    lane: usize,
    routes: &PrefixTable,
    hitlist: &Hitlist,
    filter: Option<&[SourceCategory]>,
    layout: &LaneLayout,
    mut emit: impl FnMut(Raw),
) {
    let mut plan = SourcePlan::build(addr, routes, hitlist, layout.salt);
    if let Some(keep) = filter {
        plan.sources.retain(|(c, _)| keep.contains(c));
    }
    let k = plan.len() as u64;
    if k == 0 {
        return;
    }
    let phase = layout.phase(addr);
    let gap = layout.window_ns / k;
    for (i, (cat, src)) in plan.sources.iter().enumerate() {
        let at_ns = (phase + i as u64 * gap) % layout.window_ns;
        emit(Raw {
            at_ns,
            tidx,
            lane: lane as u16,
            bits: addr_bits(*src),
            cat: *cat,
        });
    }
}

/// Leaky-bucket smoothing for one lane: at most `quota` sends per second,
/// overflow pushed into following seconds. `queries` must be sorted by
/// [`Raw::key`]; times are rewritten in place (rows that move land on a
/// whole-second boundary, like the legacy pass).
///
/// One monotone cursor — the latest second holding a send and how many
/// it holds — replaces a per-second table. Rows arrive in original-time
/// order, so a row's original second is never before the previous row's,
/// and every second from there up to the cursor has already been filled
/// to the quota (the cursor only advances past a second once it is full).
/// A row therefore lands on the cursor's second if that has room, on the
/// next second if not, or on its own second if that lies beyond the
/// cursor: the same slot as a first-fit scan from its original second,
/// in O(rows).
fn smooth_lane(queries: &mut [Raw], quota: u32) {
    let quota = quota.max(1);
    // The cursor: a second and the sends already placed in it.
    let (mut sec, mut used) = (0u64, 0u32);
    for r in queries.iter_mut() {
        let orig_sec = r.at_ns / NANOS_PER_SEC;
        if orig_sec > sec {
            (sec, used) = (orig_sec, 0);
        } else if used >= quota {
            (sec, used) = (sec + 1, 0);
        }
        used += 1;
        if sec != orig_sec {
            r.at_ns = sec * NANOS_PER_SEC;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcd_netsim::{Asn, Prefix, PrefixTable};

    /// A small multi-AS world: `n_asns` ASes, each announcing one /16 with
    /// `per_asn` targets in it.
    fn world(n_asns: usize, per_asn: usize) -> (TargetSet, PrefixTable) {
        let mut routes = PrefixTable::new();
        let mut candidates: Vec<std::net::IpAddr> = Vec::new();
        for a in 0..n_asns {
            let p: Prefix = format!("{}.{}.0.0/16", 16 + a / 200, a % 200)
                .parse()
                .unwrap();
            routes.announce(p, Asn(a as u32 + 1));
            for t in 0..per_asn {
                candidates.push(p.nth(256 * (t as u128 + 1) + 5).unwrap());
            }
        }
        candidates.sort_unstable();
        let targets = TargetSet::from_candidates(&candidates, &routes);
        assert_eq!(targets.len(), n_asns * per_asn);
        (targets, routes)
    }

    fn build_all(
        targets: &TargetSet,
        routes: &PrefixTable,
        window_secs: u64,
        rate: u32,
        salt: u64,
    ) -> (Schedule, ScheduleCensus, LaneLayout) {
        let lanes = lane_count(rate);
        let census = census(
            targets,
            routes,
            &Hitlist::default(),
            None,
            lanes,
            salt,
            None,
        );
        let layout = LaneLayout::new(
            rate,
            SimDuration::from_secs(window_secs),
            census.total,
            salt,
            None,
        );
        let owned: Vec<usize> = (0..lanes).collect();
        let s = Schedule::build_lanes(
            targets,
            routes,
            &Hitlist::default(),
            None,
            &owned,
            &census,
            &layout,
        );
        (s, census, layout)
    }

    #[test]
    fn all_queries_scheduled_and_sorted() {
        let (targets, routes) = world(10, 1);
        let (s, census, _) = build_all(&targets, &routes, 1_000, 700, 2);
        assert_eq!(s.len() as u64, census.total);
        for i in 1..s.len() {
            assert!(s.at(i - 1) <= s.at(i));
        }
        assert!(s.end.as_secs() <= 1_001);
    }

    #[test]
    fn rate_cap_is_enforced_per_second() {
        // Force congestion: 10-second window at 100 qps can hold 1000, but
        // 50 routed targets yield ~50 * 101 queries.
        let (targets, routes) = world(5, 10);
        let (s, census, _) = build_all(&targets, &routes, 10, 100, 3);
        assert_eq!(s.len() as u64, census.total);
        assert!(s.peak_rate() <= 100, "peak {}", s.peak_rate());
        // The window must have been extended (like the paper's overrun).
        assert!(s.end.as_secs() >= (census.total / 100).saturating_sub(10));
    }

    #[test]
    fn lane_quotas_sum_to_rate() {
        for rate in [1u32, 7, 63, 64, 65, 700, 701] {
            let layout = LaneLayout::new(rate, SimDuration::from_secs(10), 0, 1, None);
            let sum: u32 = (0..layout.lanes).map(|l| layout.quota(l)).sum();
            assert_eq!(sum, rate, "rate {rate}");
        }
    }

    #[test]
    fn per_target_queries_are_spread() {
        let (targets, routes) = world(1, 1);
        // Make the single target's AS announce enough space for 97 other
        // prefixes: /16 has 256 /24s, fine.
        let (s, _, _) = build_all(&targets, &routes, 101_000, 700, 4);
        // 101 queries over ~101k seconds: successive queries for the target
        // should be roughly 1000s apart, definitely not bunched.
        let mut times: Vec<u64> = (0..s.len()).map(|i| s.at(i).as_secs()).collect();
        times.sort_unstable();
        let mut gaps: Vec<u64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        gaps.sort_unstable();
        let median = gaps[gaps.len() / 2];
        assert!(
            (700..1_300).contains(&median),
            "median inter-query gap {median}s"
        );
    }

    #[test]
    fn deterministic_and_salt_sensitive() {
        let (targets, routes) = world(4, 2);
        let (a, _, _) = build_all(&targets, &routes, 100, 700, 7);
        let (b, _, _) = build_all(&targets, &routes, 100, 700, 7);
        let (c, _, _) = build_all(&targets, &routes, 100, 700, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn empty_targets_empty_schedule() {
        let (targets, routes) = world(0, 0);
        let (s, _, _) = build_all(&targets, &routes, 10, 700, 5);
        assert!(s.is_empty());
        assert_eq!(s.peak_rate(), 0);
        assert_eq!(s.first_at(), None);
    }

    #[test]
    fn congested_bucket_regression_total_far_exceeds_window() {
        // Satellite regression: total ≫ rate × window used to regrow the
        // bucket by +1024 chunks from a window-sized seed — O(n²) copies.
        // 40 ASes × 5 targets ≈ 20k queries at 1 qps over a 1-second
        // window: a ~20,000× extension. Must complete and keep the cap.
        let (targets, routes) = world(40, 5);
        let (s, census, _) = build_all(&targets, &routes, 1, 1, 6);
        assert_eq!(s.len() as u64, census.total);
        assert!(census.total > 15_000);
        assert!(s.peak_rate() <= 1);
        // Lane count is 1 at rate 1, so the schedule stretches to ~total
        // seconds.
        assert!(s.end.as_secs() >= census.total - 2);
    }

    /// First-fit leaky bucket over a per-second table: each row takes the
    /// earliest second at or after its own with room. The reference the
    /// cursor in `smooth_lane` must reproduce.
    fn first_fit(at_ns: &[u64], quota: u32) -> Vec<u64> {
        let mut used: BTreeMap<u64, u32> = BTreeMap::new();
        at_ns
            .iter()
            .map(|&ns| {
                let orig = ns / NANOS_PER_SEC;
                let mut sec = orig;
                while used.get(&sec).copied().unwrap_or(0) >= quota {
                    sec += 1;
                }
                *used.entry(sec).or_insert(0) += 1;
                if sec == orig {
                    ns
                } else {
                    sec * NANOS_PER_SEC
                }
            })
            .collect()
    }

    fn smoothed(mut at_ns: Vec<u64>, quota: u32) -> Vec<u64> {
        at_ns.sort_unstable();
        let mut rows: Vec<Raw> = at_ns
            .iter()
            .enumerate()
            .map(|(i, &at_ns)| Raw {
                at_ns,
                tidx: i as u32,
                lane: 0,
                bits: 0,
                cat: SourceCategory::Loopback,
            })
            .collect();
        smooth_lane(&mut rows, quota);
        let want = first_fit(&at_ns, quota);
        let got: Vec<u64> = rows.iter().map(|r| r.at_ns).collect();
        assert_eq!(got, want, "quota {quota}, input {at_ns:?}");
        got
    }

    #[test]
    fn smoother_matches_first_fit_on_adversarial_lanes() {
        let s = NANOS_PER_SEC;
        // Quota 1, every row in one second: one row per second after it.
        let got = smoothed(vec![5 * s + 7; 50], 1);
        assert_eq!(got[0], 5 * s + 7);
        assert_eq!(got[49], 54 * s);
        // A burst, then rows whose own second lies inside its backlog,
        // then rows after the backlog drains (kept at their own times).
        let mut lane: Vec<u64> = (0..40).map(|i| 2 * s + i).collect();
        lane.extend((3..12).map(|sec| sec * s + 500));
        lane.extend([60 * s + 1, 60 * s + 2, 61 * s + 3]);
        let got = smoothed(lane, 3);
        assert_eq!(&got[got.len() - 3..], &[60 * s + 1, 60 * s + 2, 61 * s + 3]);
        // Sparse gaps: isolated rows far apart never move.
        let sparse: Vec<u64> = (0..20).map(|i| i * i * 1_000 * s + i).collect();
        assert_eq!(smoothed(sparse.clone(), 1), sparse);
        // Two backlogs with a gap that drains the first before the second.
        let mut lane: Vec<u64> = vec![10 * s; 7];
        lane.extend(vec![12 * s + 9; 7]);
        lane.extend(vec![100 * s; 7]);
        smoothed(lane, 2);
        // Pseudo-random lanes over every small quota, bursty and sparse.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for quota in 1..=5 {
            for spread in [3, 40, 400] {
                let lane: Vec<u64> = (0..300)
                    .map(|_| {
                        x = bcd_netsim::hash::splitmix64(x);
                        (x % spread) * s / 2 + x % 1_000
                    })
                    .collect();
                smoothed(lane, quota);
            }
        }
        assert!(smoothed(Vec::new(), 4).is_empty());
    }

    #[test]
    fn sampling_keeps_deterministic_subset() {
        let (targets, routes) = world(16, 4);
        let salt = 11;
        let lanes = lane_count(700);
        let full = census(
            &targets,
            &routes,
            &Hitlist::default(),
            None,
            lanes,
            salt,
            None,
        );
        let sampled = census(
            &targets,
            &routes,
            &Hitlist::default(),
            None,
            lanes,
            salt,
            Some(4),
        );
        assert!(sampled.sampled_targets < full.sampled_targets);
        assert!(sampled.sampled_targets > 0);
        // The kept set is a strict per-target predicate: re-census agrees.
        let again = census(
            &targets,
            &routes,
            &Hitlist::default(),
            None,
            lanes,
            salt,
            Some(4),
        );
        assert_eq!(sampled.total, again.total);
    }

    #[test]
    fn category_filter_restricts_rows() {
        let (targets, routes) = world(3, 2);
        let filter = [SourceCategory::Loopback, SourceCategory::DstAsSrc];
        let lanes = lane_count(700);
        let census = census(
            &targets,
            &routes,
            &Hitlist::default(),
            Some(&filter),
            lanes,
            9,
            None,
        );
        assert_eq!(census.total, targets.len() as u64 * 2);
        let layout = LaneLayout::new(700, SimDuration::from_secs(100), census.total, 9, None);
        let owned: Vec<usize> = (0..lanes).collect();
        let s = Schedule::build_lanes(
            &targets,
            &routes,
            &Hitlist::default(),
            Some(&filter),
            &owned,
            &census,
            &layout,
        );
        assert_eq!(s.len() as u64, census.total);
        for i in 0..s.len() {
            assert!(filter.contains(&s.category(i)));
        }
    }
}
