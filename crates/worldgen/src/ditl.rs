//! Synthetic DITL root-trace generation.
//!
//! The paper extracts its target list from the 2019 "Day in the Life"
//! root-server collection (§3.1) and compares port behaviour against the
//! 2018 collection (§5.2.2). We synthesize both traces from the generated
//! resolver population, with the same imperfections the paper has to cope
//! with:
//!
//! * **special-purpose sources** (the paper excluded ~4M),
//! * **unrouted sources** (36,027 excluded for having no announced route),
//! * **stale sources** — addresses that queried roots but are no longer
//!   resolvers at experiment time (the `live = false` targets),
//! * **spoofed sources** in the trace itself (§3.6.2's caveat).
//!
//! Substitution note (DESIGN.md): resolving client queries through the
//! real root-server nodes produces the same record shape (see the integration
//! test `tests/ditl_via_root_servers.rs`); direct synthesis is used for
//! scale.

use crate::addressing::AddressAllocator;
use crate::profile::{Port2018, ResolverMeta};
use bcd_dnswire::Name;
use bcd_netsim::{Prefix, SimTime};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::net::{IpAddr, Ipv4Addr};

/// One root-server query record (the fields the paper's pipelines read).
#[derive(Debug, Clone)]
pub struct DitlRecord {
    pub time: SimTime,
    pub src: IpAddr,
    pub src_port: u16,
    pub qname: Name,
}

/// 48 hours, the DITL collection window.
const WINDOW_SECS: u64 = 48 * 3_600;

/// Keystream words one target record draws: time, port, tld and qname
/// number are one integer `gen_range` each, and every integer `gen_range`
/// of the vendored `rand` reads one `u128` (four words), whatever its
/// range. A fixed count is what lets [`candidate_sources_2019`] seek past
/// the records instead of drawing them.
const TARGET_RECORD_WORDS: u128 = 16;

/// Convert a root server's query log into DITL records — the path a real
/// collection takes (used by tests that resolve queries through the actual
/// simulated root servers rather than synthesizing the trace).
pub fn from_query_log(entries: &[bcd_dns::QueryLogEntry]) -> Vec<DitlRecord> {
    entries
        .iter()
        .map(|e| DitlRecord {
            time: e.time,
            src: e.src,
            src_port: e.src_port,
            qname: e.qname.clone(),
        })
        .collect()
}

/// Draw the qname's random components (always, so the RNG stream is
/// identical between materializing and streaming consumers) and build the
/// `Name` only when the caller wants one.
fn random_qname(rng: &mut ChaCha8Rng, tag: &str, i: usize, materialize: bool) -> Name {
    let tld = ["com", "net", "org", "io", "de"][rng.gen_range(0..5)];
    let n = rng.gen_range(0u32..1_000_000);
    if materialize {
        format!("w{i}.{tag}{n}.{tld}").parse().unwrap()
    } else {
        Name::root()
    }
}

/// Phase of the 2019 stream: targets, then the two noise classes.
enum Phase2019 {
    /// Resolver `i`; `left` records still owed for it (0 = count not yet
    /// drawn for this resolver).
    Targets {
        i: usize,
        left: u32,
    },
    Special {
        i: usize,
    },
    Ghost {
        i: usize,
    },
    Done,
}

/// Streaming generator for the 2019 trace: yields records in *generation*
/// order (not time order) without ever holding the trace in memory. The
/// RNG draw sequence is identical to the historical materializing
/// generator, so `generate_2019` (collect + time sort) and any streaming
/// consumer see byte-identical worlds downstream.
pub struct Ditl2019Stream<'a> {
    rng: &'a mut ChaCha8Rng,
    resolvers: &'a [ResolverMeta],
    ghost_block: Prefix,
    phase: Phase2019,
}

impl<'a> Ditl2019Stream<'a> {
    /// Advance the state machine. `materialize_qnames = false` performs the
    /// qname draws but skips building the `Name` (for consumers that only
    /// read source addresses, e.g. target extraction at Internet scale).
    fn next_record(&mut self, materialize_qnames: bool) -> Option<DitlRecord> {
        loop {
            match self.phase {
                Phase2019::Targets { i, left } => {
                    if i >= self.resolvers.len() {
                        self.phase = Phase2019::Special { i: 0 };
                        continue;
                    }
                    if left == 0 {
                        let n = self.rng.gen_range(1..=3);
                        self.phase = Phase2019::Targets { i, left: n };
                        continue;
                    }
                    let start = self.rng.get_word_pos();
                    let rec = DitlRecord {
                        time: SimTime::from_secs(self.rng.gen_range(0..WINDOW_SECS)),
                        src: self.resolvers[i].addr,
                        src_port: self.rng.gen_range(1_024..=65_535),
                        qname: random_qname(self.rng, "q", i, materialize_qnames),
                    };
                    debug_assert_eq!(
                        self.rng.get_word_pos() - start,
                        TARGET_RECORD_WORDS,
                        "a target record's draws must stay seekable"
                    );
                    self.phase = if left == 1 {
                        Phase2019::Targets { i: i + 1, left: 0 }
                    } else {
                        Phase2019::Targets { i, left: left - 1 }
                    };
                    return Some(rec);
                }
                Phase2019::Special { i } => {
                    // Special-purpose noise: ~25% extra records from
                    // unroutable space.
                    if i >= self.resolvers.len() / 4 {
                        self.phase = Phase2019::Ghost { i: 0 };
                        continue;
                    }
                    let src: IpAddr = match self.rng.gen_range(0..4) {
                        0 => IpAddr::V4(Ipv4Addr::new(
                            10,
                            self.rng.gen(),
                            self.rng.gen(),
                            self.rng.gen(),
                        )),
                        1 => IpAddr::V4(Ipv4Addr::new(192, 168, self.rng.gen(), self.rng.gen())),
                        2 => IpAddr::V4(Ipv4Addr::new(127, 0, 0, self.rng.gen())),
                        _ => format!("fc00::{:x}", self.rng.gen::<u16>())
                            .parse()
                            .unwrap(),
                    };
                    let rec = DitlRecord {
                        time: SimTime::from_secs(self.rng.gen_range(0..WINDOW_SECS)),
                        src,
                        src_port: self.rng.gen_range(1_024..=65_535),
                        qname: random_qname(self.rng, "s", i, materialize_qnames),
                    };
                    self.phase = Phase2019::Special { i: i + 1 };
                    return Some(rec);
                }
                Phase2019::Ghost { i } => {
                    // Unrouted-but-plausible noise from the never-announced
                    // ghost /16 (§3.1's "no announced route" exclusion).
                    if i >= (self.resolvers.len() / 300).max(3) {
                        self.phase = Phase2019::Done;
                        continue;
                    }
                    let rec = DitlRecord {
                        time: SimTime::from_secs(self.rng.gen_range(0..WINDOW_SECS)),
                        src: self.ghost_block.nth(self.rng.gen_range(1..60_000)).unwrap(),
                        src_port: self.rng.gen_range(1_024..=65_535),
                        qname: random_qname(self.rng, "g", i, materialize_qnames),
                    };
                    self.phase = Phase2019::Ghost { i: i + 1 };
                    return Some(rec);
                }
                Phase2019::Done => return None,
            }
        }
    }
}

impl<'a> Iterator for Ditl2019Stream<'a> {
    type Item = DitlRecord;

    fn next(&mut self) -> Option<DitlRecord> {
        self.next_record(true)
    }
}

/// Stream the 2019 trace: every target appears 1–3 times, then the
/// special-purpose and unrouted noise classes. `ghost_block` must be a
/// freshly carved, never-announced /16 (the caller owns the allocator so
/// the carve lands at the same allocator position as the historical
/// in-generator carve).
pub fn stream_2019<'a>(
    rng: &'a mut ChaCha8Rng,
    resolvers: &'a [ResolverMeta],
    ghost_block: Prefix,
) -> Ditl2019Stream<'a> {
    Ditl2019Stream {
        rng,
        resolvers,
        ghost_block,
        phase: Phase2019::Targets { i: 0, left: 0 },
    }
}

/// The materialized 2019 trace (collect the stream, sort by time).
pub fn generate_2019(
    rng: &mut ChaCha8Rng,
    resolvers: &[ResolverMeta],
    alloc: &mut AddressAllocator,
) -> Vec<DitlRecord> {
    let ghost_block = alloc.next_v4_16();
    let mut out: Vec<DitlRecord> = stream_2019(rng, resolvers, ghost_block).collect();
    out.sort_by_key(|r| r.time);
    out
}

/// The streaming extraction front half: generate the 2019 trace, keep only
/// each record's source address, de-duplicate. Leaves `rng` and `alloc`
/// exactly where [`generate_2019`] leaves them, but never materializes
/// records or qnames, so an Internet-scale world can feed target
/// extraction in O(unique sources) memory. Returns the sorted unique
/// source list; special-purpose and unrouted exclusion stay with the
/// analysis side, which also counts them.
///
/// The target phase's unique sources are exactly the resolver addresses,
/// which `by_addr` (the world's address index) already holds sorted. So
/// the target phase is sought, not replayed (`seek_past_targets`): only
/// the noise records are drawn, sorted and deduplicated, then merged with
/// `by_addr`'s address column.
pub fn candidate_sources_2019(
    rng: &mut ChaCha8Rng,
    resolvers: &[ResolverMeta],
    by_addr: &[(IpAddr, u32)],
    alloc: &mut AddressAllocator,
) -> Vec<IpAddr> {
    let ghost_block = alloc.next_v4_16();
    seek_past_targets(rng, resolvers.len());
    let mut stream = Ditl2019Stream {
        rng,
        resolvers,
        ghost_block,
        phase: Phase2019::Special { i: 0 },
    };
    let mut noise: Vec<IpAddr> =
        Vec::with_capacity(resolvers.len() / 4 + resolvers.len() / 300 + 3);
    while let Some(rec) = stream.next_record(false) {
        noise.push(rec.src);
    }
    noise.sort_unstable();
    noise.dedup();

    let mut out = Vec::with_capacity(by_addr.len() + noise.len());
    let mut noise = noise.into_iter().peekable();
    for &(target, _) in by_addr {
        while let Some(n) = noise.next_if(|&n| n < target) {
            out.push(n);
        }
        noise.next_if_eq(&target);
        out.push(target);
    }
    out.extend(noise);
    out
}

/// Move `rng` past the 2019 trace's target phase for `n_resolvers`
/// resolvers: each resolver's record count is drawn, as the replay draws
/// it, and its records' [`TARGET_RECORD_WORDS`] each are skipped.
fn seek_past_targets(rng: &mut ChaCha8Rng, n_resolvers: usize) {
    for _ in 0..n_resolvers {
        let n: u32 = rng.gen_range(1..=3);
        let pos = rng.get_word_pos() + n as u128 * TARGET_RECORD_WORDS;
        rng.set_word_pos(pos);
    }
}

/// The 2018 trace, keyed to §5.2.2's three comparison outcomes.
///
/// * [`Port2018::FixedThen`] — ≥10 queries, all from the port the resolver
///   still uses today (its current fixed port),
/// * [`Port2018::VariedThen`] — ≥10 queries with varied source ports: the
///   resolver has since *regressed* to a fixed port,
/// * [`Port2018::Absent`] — too little data for a fair comparison (< 10
///   unique-name queries, none port-matching).
pub fn generate_2018(rng: &mut ChaCha8Rng, resolvers: &[ResolverMeta]) -> Vec<DitlRecord> {
    let mut out = Vec::new();
    for (i, r) in resolvers.iter().enumerate() {
        if !r.live {
            continue;
        }
        match r.port_2018 {
            Port2018::FixedThen => {
                // The port it is pinned to now; for resolvers we never get
                // to measure, any fixed port works — use a deterministic
                // pseudo-port derived from the index.
                let port = 1_024 + (i as u16 % 60_000);
                for _ in 0..rng.gen_range(10..15) {
                    out.push(DitlRecord {
                        time: SimTime::from_secs(rng.gen_range(0..WINDOW_SECS)),
                        src: r.addr,
                        src_port: port,
                        qname: random_qname(rng, "p", i, true),
                    });
                }
            }
            Port2018::VariedThen => {
                for _ in 0..rng.gen_range(10..15) {
                    out.push(DitlRecord {
                        time: SimTime::from_secs(rng.gen_range(0..WINDOW_SECS)),
                        src: r.addr,
                        src_port: rng.gen_range(1_024..=65_535),
                        qname: random_qname(rng, "p", i, true),
                    });
                }
            }
            Port2018::Absent => {
                // 0–3 queries: below the ≥10 threshold, ports random.
                for _ in 0..rng.gen_range(0..4) {
                    out.push(DitlRecord {
                        time: SimTime::from_secs(rng.gen_range(0..WINDOW_SECS)),
                        src: r.addr,
                        src_port: rng.gen_range(1_024..=65_535),
                        qname: random_qname(rng, "p", i, true),
                    });
                }
            }
        }
    }
    out.sort_by_key(|r| r.time);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build;
    use crate::config::WorldConfig;
    use bcd_netsim::prefix::special;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn trace_2019_contains_targets_and_noise() {
        let w = build::build(WorldConfig::tiny(21));
        let trace = &w.ditl2019;
        assert!(trace.len() >= w.resolvers.len());
        // All target addresses appear.
        let srcs: std::collections::HashSet<IpAddr> = trace.iter().map(|r| r.src).collect();
        for r in &w.resolvers {
            assert!(
                srcs.contains(&r.addr),
                "target {} missing from trace",
                r.addr
            );
        }
        // Noise classes present.
        assert!(
            trace.iter().any(|r| special::is_special_purpose(r.src)),
            "special-purpose noise expected"
        );
        assert!(
            trace
                .iter()
                .any(|r| !special::is_special_purpose(r.src)
                    && w.topo.routes().origin(r.src).is_none()),
            "unrouted noise expected"
        );
        // Sorted by time, inside the 48h window.
        for w2 in trace.windows(2) {
            assert!(w2[0].time <= w2[1].time);
        }
        assert!(trace.last().unwrap().time.as_secs() < WINDOW_SECS);
    }

    #[test]
    fn target_seek_lands_where_the_replay_ends() {
        let w = build::build(WorldConfig::tiny(23));
        let ghost_block: Prefix = "203.0.0.0/16".parse().unwrap();
        for n in [0usize, 1, 2, 3_001] {
            let resolvers = vec![w.resolvers[0].clone(); n];
            let mut replay = ChaCha8Rng::seed_from_u64(n as u64);
            let mut stream = stream_2019(&mut replay, &resolvers, ghost_block);
            while matches!(stream.phase, Phase2019::Targets { i, .. } if i < n) {
                stream.next_record(false).expect("a target record");
            }
            let mut sought = ChaCha8Rng::seed_from_u64(n as u64);
            seek_past_targets(&mut sought, n);
            assert_eq!(
                sought.get_word_pos(),
                replay.get_word_pos(),
                "{n} resolvers"
            );
            assert_eq!(sought.next_u64(), replay.next_u64());
        }
    }

    #[test]
    fn trace_2018_respects_port_behaviour_labels() {
        // The FixedThen label rides on the rare zero-range port class
        // (~1.3% of resolvers), so a default tiny world (a few hundred
        // resolvers) can legitimately contain none. Scale the AS count up
        // until the expected count is comfortably positive.
        let w = build::build(WorldConfig {
            n_as: 200,
            ..WorldConfig::tiny(22)
        });
        use std::collections::HashMap;
        let mut by_src: HashMap<IpAddr, Vec<u16>> = HashMap::new();
        for rec in &w.ditl2018 {
            by_src.entry(rec.src).or_default().push(rec.src_port);
        }
        let mut checked_fixed = 0;
        let mut checked_varied = 0;
        for r in &w.resolvers {
            let Some(ports) = by_src.get(&r.addr) else {
                continue;
            };
            match r.port_2018 {
                Port2018::FixedThen => {
                    assert!(ports.len() >= 10);
                    assert!(ports.windows(2).all(|p| p[0] == p[1]), "fixed ports vary");
                    checked_fixed += 1;
                }
                Port2018::VariedThen => {
                    assert!(ports.len() >= 10);
                    let unique: std::collections::HashSet<_> = ports.iter().collect();
                    assert!(unique.len() > 3, "varied resolver shows no variation");
                    checked_varied += 1;
                }
                Port2018::Absent => {
                    assert!(ports.len() < 10);
                }
            }
        }
        assert!(checked_fixed > 0 && checked_varied > 0);
    }
}
