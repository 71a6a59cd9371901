//! Instrumentation glue: harvest the pipeline's native counters into the
//! `bcd-obs` registry at phase boundaries.
//!
//! The engine, resolver, and scanner keep their own cheap counters on their
//! hot paths (`NetCounters`, `ResolverStats`, `ScannerStats` — those were
//! always-on before this layer existed and stay so). Observability never
//! reaches *into* a running engine: this module reads the counters out
//! once per shard when its run completes, and assembles the run-level
//! [`bcd_obs::RunObservation`] after the merge. That boundary-harvest
//! design is what keeps the disabled mode down to one untaken branch per
//! probe; the `obs_overhead` bench times the enabled sinks against it.
//!
//! Determinism classes (see `bcd-obs` docs):
//!
//! * [`Det::Stable`] aggregates derive from **merged** artifacts — the
//!   canonical query log, merged scanner stats/responses, and client-path
//!   resolver counters. Client traffic is partitioned by destination AS,
//!   so these sums are shard-count-invariant (locked by
//!   `tests/obs_invariance.rs`).
//! * [`Det::Layout`] metrics include anything a shard runtime repeats
//!   locally. Every runtime runs the scanner's log-poll timer over the
//!   whole horizon (so `engine.events` grows with the shard count) and its
//!   own copy of each public DNS resolver it reaches, with the preloaded
//!   estate zone cuts (so `dns.cache_entries.cuts` does too). Raw packet
//!   counters and resolution-path resolver counters come out equal at 1
//!   and 4 shards on a fault-free tiny survey, but the public resolvers
//!   they count keep per-runtime caches, so they stay out of the
//!   deterministic surface conservatively.

use crate::scanner::ScannerStats;
use crate::targets::TargetSet;
use bcd_dns::{QueryLogEntry, RecursiveResolver};
use bcd_dnswire::RCode;
use bcd_netsim::{Merge, NetCounters, Runtime, SimTime};
use bcd_obs::report::names;
use bcd_obs::{Det, MetricsRegistry};
use bcd_worldgen::World;
use std::net::IpAddr;

/// Resolver counters summed over every resolver node of one shard runtime.
#[derive(Debug, Default, Clone)]
pub struct DnsTotals {
    // Client path (deterministic: each resolver's client traffic lives in
    // exactly one shard).
    pub client_queries: u64,
    pub refused: u64,
    pub answered: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    // Resolution path (layout-class: the public resolvers every shard
    // runtime copies resolve from per-runtime caches).
    pub upstream_queries: u64,
    pub servfail: u64,
    pub tcp_retries: u64,
    // End-of-run cache sizes (layout-dependent: every runtime's public
    // resolver copies hold the preloaded estate cuts).
    pub cache_answers: u64,
    pub cache_nxdomains: u64,
    pub cache_cuts: u64,
}

impl Merge for DnsTotals {
    fn merge(&mut self, other: DnsTotals) {
        self.client_queries += other.client_queries;
        self.refused += other.refused;
        self.answered += other.answered;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.upstream_queries += other.upstream_queries;
        self.servfail += other.servfail;
        self.tcp_retries += other.tcp_retries;
        self.cache_answers += other.cache_answers;
        self.cache_nxdomains += other.cache_nxdomains;
        self.cache_cuts += other.cache_cuts;
    }
}

/// Sum the counters of a finished runtime's recursive resolvers (runs once
/// per shard, after `run_until` returns). Only built nodes are visited: a
/// resolver no event reached has no node, and nothing to count.
pub fn dns_totals(rt: &Runtime) -> DnsTotals {
    let mut t = DnsTotals::default();
    for (_, r) in rt.nodes::<RecursiveResolver>() {
        let s = &r.stats;
        t.client_queries += s.client_queries;
        t.refused += s.refused;
        t.answered += s.answered;
        t.cache_hits += s.cache_hits;
        t.cache_misses += s.cache_misses;
        t.upstream_queries += s.upstream_queries;
        t.servfail += s.servfail;
        t.tcp_retries += s.tcp_retries;
        let (answers, nxdomains, cuts) = r.cache().sizes();
        t.cache_answers += answers as u64;
        t.cache_nxdomains += nxdomains as u64;
        t.cache_cuts += cuts as u64;
    }
    t
}

/// One shard's layout-dependent metric slice: raw engine counters, the
/// resolution-path resolver totals, and this shard's probe count. Folding
/// these across shards yields the run's engine totals.
pub fn shard_registry(
    counters: &NetCounters,
    events: u64,
    dns: &DnsTotals,
    scanner: &ScannerStats,
) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    let det = Det::Layout;
    m.add_counter(names::NET_SENT, &[], det, counters.sent);
    m.add_counter(names::NET_DELIVERED, &[], det, counters.delivered);
    m.add_counter(names::NET_DUPLICATED, &[], det, counters.duplicated);
    m.add_counter(names::NET_INJECTED, &[], det, counters.injected);
    m.add_counter(names::NET_INTERCEPTED, &[], det, counters.intercepted);
    for (reason, n) in &counters.drops {
        m.add_counter(names::NET_DROP, &[("reason", &reason.to_string())], det, *n);
    }
    m.add_counter(names::ENGINE_EVENTS, &[], det, events);
    m.add_counter(names::SCANNER_SPOOFED, &[], det, scanner.spoofed_sent);
    m.add_counter(names::DNS_UPSTREAM_QUERIES, &[], det, dns.upstream_queries);
    m.add_counter(names::DNS_SERVFAIL, &[], det, dns.servfail);
    m.add_counter(names::DNS_TCP_RETRIES, &[], det, dns.tcp_retries);
    m.set_gauge(names::DNS_CACHE_ANSWERS, &[], det, dns.cache_answers as i64);
    m.set_gauge(
        names::DNS_CACHE_NXDOMAINS,
        &[],
        det,
        dns.cache_nxdomains as i64,
    );
    m.set_gauge(names::DNS_CACHE_CUTS, &[], det, dns.cache_cuts as i64);
    m
}

/// Bucket bounds for the log-entry arrival histogram: hours of sim time
/// since scan start (inclusive upper edges; one overflow bucket beyond).
pub const LOG_HOUR_BOUNDS: [u64; 8] = [1, 2, 3, 4, 6, 8, 12, 24];

/// The deterministic aggregate, built from **merged** run artifacts only.
///
/// `probe_drops` is the merged engine drop breakdown, passed only for a
/// *fault-free* run (no chaos fault schedule armed): links are then a
/// fixed delay, every drop traces to shard-partitioned probe traffic (DSAV
/// filtering and friends) and the merged breakdown is
/// shard-count-invariant. With a fault schedule armed, pass `None` — drops
/// then surface only through the layout-class shard registries.
pub fn stable_aggregate(
    entries: &[QueryLogEntry],
    scanner: &ScannerStats,
    responses: &[(SimTime, IpAddr, RCode)],
    dns: &DnsTotals,
    world: &World,
    targets: &TargetSet,
    probe_drops: Option<&NetCounters>,
) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    let det = Det::Stable;
    if let Some(c) = probe_drops {
        for (reason, n) in &c.drops {
            m.add_counter(names::NET_DROP, &[("reason", &reason.to_string())], det, *n);
        }
    }
    // Scanner activity (merged ScannerStats — shard-partitioned by
    // construction).
    m.add_counter(names::SCANNER_SPOOFED, &[], det, scanner.spoofed_sent);
    m.add_counter(
        names::SCANNER_FOLLOWUP_SETS,
        &[],
        det,
        scanner.followup_sets,
    );
    m.add_counter(names::SCANNER_FOLLOWUPS, &[], det, scanner.followup_queries);
    m.add_counter(names::SCANNER_OPEN_PROBES, &[], det, scanner.open_probes);
    m.add_counter(names::SCANNER_TCP_PROBES, &[], det, scanner.tcp_probes);
    m.add_counter(names::SCANNER_HUMAN, &[], det, scanner.human_lookups);
    m.add_counter(
        names::SCANNER_RESPONSES,
        &[],
        det,
        scanner.responses_received,
    );
    m.add_counter(names::SCANNER_REFUSED, &[], det, scanner.refused_responses);
    m.add_counter(names::SCANNER_OPTED_OUT, &[], det, scanner.opted_out);
    m.add_counter(names::SCANNER_DEFERRALS, &[], det, scanner.outage_deferrals);
    for (_, _, rcode) in responses {
        m.add_counter(
            names::SCANNER_RESPONSE,
            &[("rcode", &rcode.to_string())],
            det,
            1,
        );
    }
    // The authoritative log (canonically merged).
    m.add_counter(names::LOG_ENTRIES, &[], det, entries.len() as u64);
    for e in entries {
        m.observe(
            names::LOG_ENTRY_HOURS,
            &[],
            det,
            &LOG_HOUR_BOUNDS,
            e.time.as_secs() / 3600,
        );
    }
    // Client-path resolver behaviour (cache hit/miss rates).
    m.add_counter(names::DNS_CLIENT_QUERIES, &[], det, dns.client_queries);
    m.add_counter(names::DNS_REFUSED, &[], det, dns.refused);
    m.add_counter(names::DNS_ANSWERED, &[], det, dns.answered);
    m.add_counter(names::DNS_CACHE_HITS, &[], det, dns.cache_hits);
    m.add_counter(names::DNS_CACHE_MISSES, &[], det, dns.cache_misses);
    // World shape (identical in every shard by construction).
    m.set_gauge(names::WORLD_HOSTS, &[], det, world.topo.host_count() as i64);
    m.set_gauge(
        names::WORLD_ASES,
        &[],
        det,
        world.measured_asns.len() as i64,
    );
    m.set_gauge(names::WORLD_TARGETS_V4, &[], det, targets.v4.len() as i64);
    m.set_gauge(names::WORLD_TARGETS_V6, &[], det, targets.v6.len() as i64);
    // Extraction hygiene: candidate rows rejected for breaking the
    // deduplicated-and-sorted contract. Deterministic, and 0 on healthy
    // worldgen output — surfaced so a broken producer fails loudly in the
    // golden/JSONL surface instead of silently shrinking the population.
    m.add_counter(
        names::TARGETS_EXCLUDED_UNSORTED,
        &[],
        det,
        targets.excluded_unsorted as u64,
    );
    // Chaos schedule shape (compiled once per world, shared by every
    // shard, so the counts are deterministic even though the *drops* the
    // faults cause are not part of the stable surface).
    if let Some(f) = &world.faults {
        for (kind, n) in f.event_counts() {
            m.add_counter(names::CHAOS_EVENTS, &[("kind", kind)], det, n);
        }
        m.add_counter(
            names::CHAOS_EVENTS_ENABLED,
            &[],
            det,
            f.enabled_ids().len() as u64,
        );
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dns_totals_merge_sums_fieldwise() {
        let mut a = DnsTotals {
            client_queries: 5,
            cache_hits: 2,
            cache_misses: 3,
            upstream_queries: 9,
            ..DnsTotals::default()
        };
        a.merge(DnsTotals {
            client_queries: 7,
            cache_hits: 1,
            cache_misses: 6,
            cache_cuts: 10,
            ..DnsTotals::default()
        });
        assert_eq!(a.client_queries, 12);
        assert_eq!(a.cache_hits, 3);
        assert_eq!(a.cache_misses, 9);
        assert_eq!(a.upstream_queries, 9);
        assert_eq!(a.cache_cuts, 10);
    }

    #[test]
    fn shard_registry_is_layout_class_only() {
        let mut c = NetCounters {
            sent: 10,
            delivered: 8,
            ..NetCounters::default()
        };
        c.drop(bcd_netsim::DropReason::Dsav);
        let reg = shard_registry(&c, 123, &DnsTotals::default(), &ScannerStats::default());
        assert_eq!(reg.iter_class(Det::Stable).count(), 0);
        assert_eq!(reg.counter(names::NET_SENT, &[]), 10);
        assert_eq!(
            reg.counter(names::NET_DROP, &[("reason", "dsav-ingress")]),
            1
        );
        assert_eq!(reg.counter(names::ENGINE_EVENTS, &[]), 123);
    }
}
