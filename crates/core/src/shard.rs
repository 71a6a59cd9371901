//! AS-sharded parallel survey execution.
//!
//! The paper ran its survey from a single vantage over four weeks; the
//! simulation compresses the window but still walks every probe through one
//! discrete-event engine. Sharding splits that work: scheduled probes are
//! partitioned by *destination AS* into `S` shards, each shard runs its
//! slice against its own engine over an identical generated world, and the
//! per-shard artifacts are folded back together deterministically.
//!
//! Determinism contract: because
//!
//! * the schedule is a per-lane derivation (plans, phases and smoothed
//!   emission times are pure functions of `(seed, target)` and the lane's
//!   own traffic — see [`crate::schedule`]) and shards are unions of whole
//!   lanes ([`assign_lanes`]) — a probe fires at the same instant in every
//!   sharding configuration,
//! * every host draws from its own seed-derived RNG stream (see
//!   [`bcd_netsim::stream_seed`]), so a resolver's behaviour depends only on
//!   the traffic *it* sees — and all probes for one AS land in one lane,
//!   hence one shard,
//! * human-noise injection is a pure function of probe identity
//!   ([`crate::scanner`]), and
//! * the merge re-establishes one canonical entry order ([`canonical_sort`])
//!   and sums counters with [`Merge`] impls in shard-id order,
//!
//! every analysis and report renders byte-identically for `S = 1` and
//! `S = N` (the equivalence suite in `tests/shard_equivalence.rs` locks
//! this in).

use crate::observe::DnsTotals;
use crate::scanner::ScannerStats;
use bcd_dns::QueryLogEntry;
use bcd_dnswire::RCode;
use bcd_netsim::hash::{fnv1a, FNV_OFFSET};
use bcd_netsim::{FlightRecorder, Merge, NetCounters, SimTime};
use bcd_obs::MetricsRegistry;
use std::net::IpAddr;
use std::time::Duration;

/// Shard count requested via the `BCD_SHARDS` environment variable, if any.
pub fn shards_from_env() -> Option<usize> {
    std::env::var("BCD_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s >= 1)
}

/// Worker-pool size requested via the `BCD_WORKERS` environment variable,
/// if any. Workers execute shard partitions by stealing the next unstarted
/// shard; the count affects wall-clock only, never output bytes (see
/// [`crate::ExperimentConfig::workers`]).
pub fn workers_from_env() -> Option<usize> {
    std::env::var("BCD_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s >= 1)
}

/// The shard an AS belongs to: a stable FNV-1a hash of the ASN, reduced
/// modulo the shard count. Stable across runs, platforms, and shard-count
/// choices for `shards == 1` (everything maps to shard 0).
pub fn shard_of_asn(asn: u32, shards: usize) -> usize {
    debug_assert!(shards >= 1);
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, &asn.to_le_bytes());
    (h % shards as u64) as usize
}

/// Map rate lanes onto shards: the non-empty lanes (per the schedule
/// census) are dealt round-robin onto the effective shard count, which is
/// clamped to the number of occupied lanes — surplus shards could only
/// ever receive empty schedules, yet each would still spin up an engine
/// and simulate the full horizon.
///
/// Returns `(lane → shard, effective shard count)`; empty lanes map to
/// `None`. Because a lane's schedule bytes are independent of the lane →
/// shard map (see [`crate::schedule`]), *any* shard count yields the same
/// merged result — the map only chooses which engine runs which lanes.
pub fn assign_lanes(lane_counts: &[u64], shards: usize) -> (Vec<Option<usize>>, usize) {
    let occupied = lane_counts.iter().filter(|&&c| c > 0).count();
    let shards = shards.max(1).min(occupied.max(1));
    let mut map = vec![None; lane_counts.len()];
    let mut rank = 0usize;
    for (lane, &count) in lane_counts.iter().enumerate() {
        if count > 0 {
            map[lane] = Some(rank % shards);
            rank += 1;
        }
    }
    (map, shards)
}

/// The lanes `assign_lanes` gave to shard `sid`, in lane order.
pub fn lanes_of_shard(lane_shard: &[Option<usize>], sid: usize) -> Vec<usize> {
    lane_shard
        .iter()
        .enumerate()
        .filter_map(|(lane, &s)| (s == Some(sid)).then_some(lane))
        .collect()
}

/// Re-establish the single canonical order of a merged query log.
///
/// Entries are keyed by `(time, qname, src, src_port, server, proto)` —
/// the qname encodes the probe's `ts.src.dst` serial (§3.3), so the key is
/// unique per logged query and the order is independent of which shard
/// contributed an entry.
pub fn canonical_sort(entries: &mut [QueryLogEntry]) {
    entries.sort_by(canonical_cmp);
}

/// The canonical entry ordering used by [`canonical_sort`] and the k-way
/// streaming merge.
pub fn canonical_cmp(a: &QueryLogEntry, b: &QueryLogEntry) -> std::cmp::Ordering {
    (
        a.time,
        &a.qname,
        a.src,
        a.src_port,
        a.server,
        proto_rank(a.proto),
    )
        .cmp(&(
            b.time,
            &b.qname,
            b.src,
            b.src_port,
            b.server,
            proto_rank(b.proto),
        ))
}

fn proto_rank(p: bcd_dns::LogProto) -> u8 {
    match p {
        bcd_dns::LogProto::Udp => 0,
        bcd_dns::LogProto::Tcp => 1,
    }
}

impl Merge for ScannerStats {
    fn merge(&mut self, other: ScannerStats) {
        self.spoofed_sent += other.spoofed_sent;
        self.followup_sets += other.followup_sets;
        self.followup_queries += other.followup_queries;
        self.open_probes += other.open_probes;
        self.tcp_probes += other.tcp_probes;
        self.human_lookups += other.human_lookups;
        self.responses_received += other.responses_received;
        self.refused_responses += other.refused_responses;
        self.opted_out += other.opted_out;
        self.outage_deferrals += other.outage_deferrals;
    }
}

/// Everything one shard's run produces, in `Send`-able form (worker shards
/// run on their own threads; the world itself stays thread-local).
pub struct ShardOutcome {
    pub entries: Vec<QueryLogEntry>,
    pub scanner_stats: ScannerStats,
    pub responses: Vec<(SimTime, IpAddr, RCode)>,
    pub counters: NetCounters,
    pub events: u64,
    pub budget_exhausted: bool,
    /// Deliver events still queued when the horizon ended (in-flight
    /// packets; the conservation invariant needs them to balance `sent`).
    pub pending_deliveries: u64,
    /// Causal span flight recorder (and packet capture), when the run
    /// armed one (`BCD_TRACE`).
    pub flight: Option<FlightRecorder>,
    /// Resolver counter totals harvested from this shard's runtime.
    pub dns: DnsTotals,
    /// This shard's layout-class metric slice (see [`crate::observe`]).
    pub metrics: MetricsRegistry,
    /// Wall-clock time the shard's engine run took (merge: summed — the
    /// aggregate is total engine CPU time; per-shard walls live in the run
    /// profile).
    pub wall: Duration,
    /// Wall-clock time spent spawning the runtime and warming up the shard
    /// (node construction, ACL/zone setup) before the engine ran.
    pub spawn_wall: Duration,
    /// Wall-clock time spent harvesting artifacts (log snapshot, counter
    /// extraction) after the engine finished.
    pub extract_wall: Duration,
}

/// Absorb pre-sorted per-shard streams into one exactly-reserved vec via
/// a k-way merge (linear head scan — shard counts are ≤ 64, and the first
/// key component almost always decides). Compared to extend-then-resort
/// this bounds merge memory to `total + S` heads: no doubling reallocs, no
/// O(N log N) global re-sort over entries that each arrive sorted.
///
/// Ties (possible in `responses`, whose key is not unique) break toward
/// the lower shard id, which is exactly the order the old stable
/// extend-then-sort produced.
fn kway_merge<T>(
    mut streams: Vec<std::vec::IntoIter<T>>,
    cmp: impl Fn(&T, &T) -> std::cmp::Ordering,
) -> Vec<T> {
    let total: usize = streams.iter().map(|s| s.as_slice().len()).sum();
    let mut out: Vec<T> = Vec::with_capacity(total);
    loop {
        let mut best: Option<usize> = None;
        for (i, s) in streams.iter().enumerate() {
            let Some(head) = s.as_slice().first() else {
                continue;
            };
            match best {
                Some(b)
                    if cmp(streams[b].as_slice().first().unwrap(), head)
                        != std::cmp::Ordering::Greater => {}
                _ => best = Some(i),
            }
        }
        match best {
            Some(i) => out.push(streams[i].next().unwrap()),
            None => break,
        }
    }
    out
}

/// Fold shard outcomes (in shard-id order) into one logical run.
///
/// Query-log entries arrive canonically pre-sorted per shard (the shard
/// runner sorts at extraction, in parallel) and are absorbed by a
/// streaming k-way merge; scanner responses likewise by `(time,
/// responder)`; counters and stats summed via [`Merge`].
pub fn merge_outcomes(outcomes: Vec<ShardOutcome>) -> ShardOutcome {
    let mut merged = ShardOutcome {
        entries: Vec::new(),
        scanner_stats: ScannerStats::default(),
        responses: Vec::new(),
        counters: NetCounters::default(),
        events: 0,
        budget_exhausted: false,
        pending_deliveries: 0,
        flight: None,
        dns: DnsTotals::default(),
        metrics: MetricsRegistry::new(),
        wall: Duration::ZERO,
        spawn_wall: Duration::ZERO,
        extract_wall: Duration::ZERO,
    };
    let mut entry_streams: Vec<std::vec::IntoIter<QueryLogEntry>> =
        Vec::with_capacity(outcomes.len());
    let mut response_streams: Vec<std::vec::IntoIter<(SimTime, IpAddr, RCode)>> =
        Vec::with_capacity(outcomes.len());
    for o in outcomes {
        debug_assert!(
            o.entries
                .windows(2)
                .all(|w| canonical_cmp(&w[0], &w[1]) != std::cmp::Ordering::Greater),
            "shard entries must arrive canonically sorted"
        );
        entry_streams.push(o.entries.into_iter());
        response_streams.push(o.responses.into_iter());
        merged.scanner_stats.merge(o.scanner_stats);
        merged.counters.merge(o.counters);
        merged.events += o.events;
        merged.budget_exhausted |= o.budget_exhausted;
        merged.pending_deliveries += o.pending_deliveries;
        merged.dns.merge(o.dns);
        merged.metrics.merge(o.metrics);
        merged.wall += o.wall;
        merged.spawn_wall += o.spawn_wall;
        merged.extract_wall += o.extract_wall;
        match (&mut merged.flight, o.flight) {
            (Some(f), Some(other)) => f.merge(other),
            (f @ None, Some(other)) => *f = Some(other),
            _ => {}
        }
    }
    merged.entries = kway_merge(entry_streams, canonical_cmp);
    merged.responses = kway_merge(response_streams, |a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_lanes_covers_every_occupied_lane() {
        let counts: Vec<u64> = (0..64u64)
            .map(|l| if l % 3 == 0 { l + 1 } else { 0 })
            .collect();
        let occupied = counts.iter().filter(|&&c| c > 0).count();
        let (map, shards) = assign_lanes(&counts, 4);
        assert_eq!(shards, 4);
        for (lane, &count) in counts.iter().enumerate() {
            assert_eq!(map[lane].is_some(), count > 0, "lane {lane}");
            if let Some(sid) = map[lane] {
                assert!(sid < shards);
            }
        }
        // Every shard gets some lanes, and the union is exactly the
        // occupied set.
        let mut total = 0;
        for sid in 0..shards {
            let lanes = lanes_of_shard(&map, sid);
            assert!(!lanes.is_empty());
            total += lanes.len();
        }
        assert_eq!(total, occupied);
    }

    #[test]
    fn assign_lanes_clamps_to_occupied_lanes() {
        // 3 occupied lanes: asking for 8 shards must not produce 5 empty
        // engines.
        let mut counts = vec![0u64; 64];
        counts[3] = 10;
        counts[17] = 5;
        counts[40] = 1;
        let (map, shards) = assign_lanes(&counts, 8);
        assert_eq!(shards, 3);
        assert_eq!(lanes_of_shard(&map, 0), vec![3]);
        assert_eq!(lanes_of_shard(&map, 1), vec![17]);
        assert_eq!(lanes_of_shard(&map, 2), vec![40]);
        // No occupied lanes clamps to a single (empty) shard.
        let (map, shards) = assign_lanes(&vec![0u64; 64], 8);
        assert_eq!(shards, 1);
        assert!(map.iter().all(Option::is_none));
    }

    #[test]
    fn kway_merge_is_stable_across_streams() {
        // Equal keys must come out in stream order (the old stable
        // extend-then-sort contract).
        let a = vec![(1, 'a'), (3, 'a'), (3, 'a')];
        let b = vec![(1, 'b'), (2, 'b'), (3, 'b')];
        let merged = kway_merge(vec![a.into_iter(), b.into_iter()], |x, y| x.0.cmp(&y.0));
        assert_eq!(
            merged,
            vec![(1, 'a'), (1, 'b'), (2, 'b'), (3, 'a'), (3, 'a'), (3, 'b')]
        );
    }

    #[test]
    fn shard_of_asn_is_stable() {
        for asn in [0u32, 1, 64512, 4_200_000_000] {
            let a = shard_of_asn(asn, 8);
            assert_eq!(a, shard_of_asn(asn, 8));
            assert!(a < 8);
            assert_eq!(shard_of_asn(asn, 1), 0);
        }
    }

    #[test]
    fn scanner_stats_merge_sums() {
        let mut a = ScannerStats {
            spoofed_sent: 3,
            open_probes: 1,
            ..ScannerStats::default()
        };
        a.merge(ScannerStats {
            spoofed_sent: 5,
            tcp_probes: 2,
            ..ScannerStats::default()
        });
        assert_eq!(a.spoofed_sent, 8);
        assert_eq!(a.open_probes, 1);
        assert_eq!(a.tcp_probes, 2);
    }
}
