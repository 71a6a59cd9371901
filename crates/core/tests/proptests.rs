//! Property-based tests for the methodology's codecs and algorithms.

use bcd_core::analysis::ports::{adjust_windows_wrap, increasing_pattern, range_of};
use bcd_core::qname::{Decoded, QnameCodec, SuffixKind};
use bcd_core::scanner::{QueryWriter, ScannerStats};
use bcd_core::schedule::Schedule;
use bcd_core::shard::canonical_sort;
use bcd_core::sources::{classify_source, SourceCategory, SourcePlan, MAX_OTHER_PREFIX};
use bcd_core::targets::TargetSet;
use bcd_dns::{LogProto, QueryLogEntry};
use bcd_dnswire::{Message, Name, RType, WireWriter, MAX_NAME_WIRE_LEN};
use bcd_netsim::hash::{fnv1a, FNV_OFFSET};
use bcd_netsim::{Asn, Prefix, PrefixTable, SimDuration, SimTime};
use bcd_netsim::{DropReason, Merge, NetCounters};
use bcd_osmodel::ports::{IANA_HI, IANA_LO, WINDOWS_POOL_SIZE};
use bcd_worldgen::Hitlist;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

fn any_v4() -> impl Strategy<Value = IpAddr> {
    any::<u32>().prop_map(|v| IpAddr::V4(Ipv4Addr::from(v)))
}

fn any_v6() -> impl Strategy<Value = IpAddr> {
    any::<u128>().prop_map(|v| IpAddr::V6(Ipv6Addr::from(v)))
}

fn any_ip() -> impl Strategy<Value = IpAddr> {
    prop_oneof![any_v4(), any_v6()]
}

fn any_suffix() -> impl Strategy<Value = SuffixKind> {
    prop_oneof![
        Just(SuffixKind::Main),
        Just(SuffixKind::F4),
        Just(SuffixKind::F6),
        Just(SuffixKind::Tcp),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The qname codec round-trips every (ts, src, dst, asn, suffix) tuple,
    /// for any mixture of families.
    #[test]
    fn qname_round_trips(
        ts in any::<u64>(),
        src in any_ip(),
        dst in any_ip(),
        asn in any::<u32>(),
        suffix in any_suffix(),
    ) {
        let codec = QnameCodec::new(&"dns-lab.org".parse().unwrap(), "x7");
        let name = codec.encode(SimTime::from_nanos(ts), src, dst, asn, suffix);
        prop_assert!(name.wire_len() <= 255);
        match codec.decode(&name) {
            Decoded::Full(tag) => {
                prop_assert_eq!(tag.ts.as_nanos(), ts);
                prop_assert_eq!(tag.src, src);
                prop_assert_eq!(tag.dst, dst);
                prop_assert_eq!(tag.asn, asn);
                prop_assert_eq!(tag.suffix, suffix);
            }
            other => prop_assert!(false, "decode failed: {:?}", other),
        }
    }

}

/// Timestamps: zero, past 2^53 (where an f64 detour would lose digits),
/// and anything.
fn edge_ts() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), (1u64 << 53)..=u64::MAX, any::<u64>()]
}

/// A v6 segment: all-zero, all-ones, a single hex digit, or anything.
fn edge_segment() -> impl Strategy<Value = u16> {
    prop_oneof![Just(0u16), Just(0xffffu16), 0u16..16, any::<u16>()]
}

/// Addresses of either family, with the all-zero / all-ones / `ffff`
/// segment cases drawn often.
fn edge_ip() -> impl Strategy<Value = IpAddr> {
    prop_oneof![
        Just(IpAddr::V4(Ipv4Addr::UNSPECIFIED)),
        Just(IpAddr::V4(Ipv4Addr::BROADCAST)),
        any_v4(),
        Just(IpAddr::V6(Ipv6Addr::UNSPECIFIED)),
        proptest::collection::vec(edge_segment(), 8).prop_map(|s| {
            IpAddr::V6(Ipv6Addr::new(
                s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
            ))
        }),
        any_v6(),
    ]
}

fn edge_asn() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>()]
}

/// Experiment keywords: letters of either case, digits and dashes, plain
/// or in the CRP pass's `{kw}crp` form.
fn any_keyword() -> impl Strategy<Value = String> {
    let alphabet: Vec<char> = "abcxyzABCXYZ0123456789-".chars().collect();
    (
        proptest::collection::vec(proptest::sample::select(alphabet), 1..=20),
        any::<bool>(),
    )
        .prop_map(|(chars, crp)| {
            let kw: String = chars.into_iter().collect();
            if crp {
                format!("{kw}crp")
            } else {
                kw
            }
        })
}

/// The `format!` / `Name::child` probe-name construction the wire writer
/// replaced, kept as the reference it must match byte for byte.
fn reference_name(
    apex: &Name,
    kw: &str,
    ts: u64,
    src: IpAddr,
    dst: IpAddr,
    asn: u32,
    suffix: SuffixKind,
) -> Name {
    fn addr(ip: IpAddr) -> String {
        match ip {
            IpAddr::V4(a) => {
                let o = a.octets();
                format!("s{}-{}-{}-{}", o[0], o[1], o[2], o[3])
            }
            IpAddr::V6(a) => {
                let s = a.segments();
                format!(
                    "s{:x}-{:x}-{:x}-{:x}-{:x}-{:x}-{:x}-{:x}",
                    s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
                )
            }
        }
    }
    let zone = match suffix {
        SuffixKind::Main => apex.clone(),
        SuffixKind::F4 => apex.child("f4").unwrap(),
        SuffixKind::F6 => apex.child("f6").unwrap(),
        SuffixKind::Tcp => apex.child("tcp").unwrap(),
    };
    zone.child(kw.as_bytes())
        .unwrap()
        .child(format!("a{asn}").as_bytes())
        .unwrap()
        .child(addr(dst).replacen('s', "d", 1).as_bytes())
        .unwrap()
        .child(addr(src).as_bytes())
        .unwrap()
        .child(format!("t{ts}").as_bytes())
        .unwrap()
}

/// The reference txid / source port / canonical text derivation: the
/// `Name::canonical_into` bytes, FNV-folded after the salt, then `tag`.
fn reference_ids(salt: u64, name: &Name, tag: &[u8]) -> (u16, u16, String) {
    let mut canon = [0u8; MAX_NAME_WIRE_LEN];
    let n = name.canonical_into(&mut canon);
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, &salt.to_le_bytes());
    fnv1a(&mut h, &canon[..n]);
    fnv1a(&mut h, tag);
    let text = String::from_utf8(canon[..n].to_vec()).unwrap();
    ((h >> 32) as u16, 20_000 + (h % 40_000) as u16, text)
}

fn reference_query(txid: u16, name: Name) -> Vec<u8> {
    let mut w = WireWriter::new();
    Message::query(txid, name, RType::A).encode_into(&mut w);
    w.as_bytes().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The scanner's query writer emits exactly the bytes of the old
    /// `QnameCodec` name + `Message::query` path, with the same txid,
    /// source port and canonical text, for probes and for the human
    /// lookups that reuse a probe's name; the codec's `Name` built from the
    /// writer's bytes still round-trips through `decode`.
    #[test]
    fn query_writer_matches_the_reference(
        ts in edge_ts(),
        src in edge_ip(),
        dst in edge_ip(),
        asn in edge_asn(),
        suffix in any_suffix(),
        kw in any_keyword(),
        salt in any::<u64>(),
    ) {
        let apex: Name = "dns-lab.org".parse().unwrap();
        let codec = QnameCodec::new(&apex, &kw);
        let reference = reference_name(&apex, &kw, ts, src, dst, asn, suffix);
        let name = codec.encode(SimTime::from_nanos(ts), src, dst, asn, suffix);
        prop_assert_eq!(&name, &reference);
        prop_assert_eq!(name.to_string(), reference.to_string());

        let mut q = QueryWriter::default();
        q.probe(&codec, salt, SimTime::from_nanos(ts), src, dst, asn, suffix);
        let (txid, sport, canon) = reference_ids(salt, &reference, b"probe");
        prop_assert_eq!(q.sport(), sport);
        prop_assert_eq!(q.canonical(), canon.as_str());
        prop_assert_eq!(q.bytes().to_vec(), reference_query(txid, reference.clone()));

        let name_wire = q.name_wire().to_vec();
        q.lookup(salt, &name_wire);
        let (txid, sport, canon) = reference_ids(salt, &reference, b"");
        prop_assert_eq!(q.sport(), sport);
        prop_assert_eq!(q.canonical(), canon.as_str());
        prop_assert_eq!(q.bytes().to_vec(), reference_query(txid, reference));

        match codec.decode(&name) {
            Decoded::Full(tag) => {
                prop_assert_eq!(tag.ts.as_nanos(), ts);
                prop_assert_eq!(tag.src, src);
                prop_assert_eq!(tag.dst, dst);
                prop_assert_eq!(tag.asn, asn);
                prop_assert_eq!(tag.suffix, suffix);
            }
            other => prop_assert!(false, "decode failed: {:?}", other),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The wrap adjustment never *increases* an in-pool range beyond the
    /// Windows pool size, never fires for samples outside the IANA range,
    /// and is idempotent on non-wrapping samples.
    #[test]
    fn wrap_adjustment_invariants(ports in proptest::collection::vec(any::<u16>(), 10)) {
        let (adjusted, fired) = adjust_windows_wrap(&ports);
        let raw = range_of(&ports);
        if fired {
            // Only fires when every port is in one of the two wrap regions.
            let s = WINDOWS_POOL_SIZE;
            let (lo, hi) = (IANA_LO as u32, IANA_HI as u32);
            for &p in &ports {
                let p = p as u32;
                prop_assert!(
                    (lo..=(lo + s - 1)).contains(&p) || ((hi - s + 2)..=hi).contains(&p)
                );
            }
            // The adjusted range treats the pool as contiguous: it is
            // bounded by the two regions' combined width.
            prop_assert!(adjusted < 2 * s);
        } else {
            prop_assert_eq!(adjusted, raw);
        }
    }

    /// Pattern detection: sorted-unique sequences are increasing; reversed
    /// ones (len > 1, distinct) are not.
    #[test]
    fn increasing_pattern_props(mut ports in proptest::collection::vec(any::<u16>(), 3..12)) {
        ports.sort_unstable();
        ports.dedup();
        prop_assume!(ports.len() >= 3);
        let (inc, wrapped) = increasing_pattern(&ports);
        prop_assert!(inc && !wrapped);
        let rev: Vec<u16> = ports.iter().rev().copied().collect();
        let (inc_rev, _) = increasing_pattern(&rev);
        prop_assert!(!inc_rev);
        // Rotating a strictly increasing sequence yields one wrap.
        let k = ports.len() / 2;
        prop_assume!(k >= 1 && k < ports.len());
        let mut rotated = ports[k..].to_vec();
        rotated.extend_from_slice(&ports[..k]);
        let (inc_rot, wrap_rot) = increasing_pattern(&rotated);
        prop_assert!(inc_rot && wrap_rot, "rotation of increasing should wrap once: {rotated:?}");
    }

    /// classify_source is consistent with plan construction: every source a
    /// plan generates classifies back to its own category.
    #[test]
    fn classification_inverts_planning(salt in any::<u64>(), third_octet in 0u8..255) {
        let mut routes = PrefixTable::new();
        routes.announce("17.32.0.0/16".parse::<Prefix>().unwrap(), Asn(9));
        let target: IpAddr = format!("17.32.{third_octet}.77").parse().unwrap();
        let plan = SourcePlan::build(target, &routes, &Hitlist::default(), salt);
        for (cat, src) in &plan.sources {
            let got = classify_source(*src, target, &routes);
            prop_assert_eq!(got, Some(*cat), "source {} of {}", src, target);
        }
    }

    /// Both extraction entry points give the same target set on one trace
    /// (the materialized trace's `extract` and the streamed, deduplicated
    /// source list's `from_candidates`), and it equals one `origin` lookup
    /// per unique source. Sources repeat, and mix routed, unrouted and
    /// special-purpose space in both families.
    #[test]
    fn extract_and_from_candidates_agree(
        srcs in proptest::collection::vec(
            prop_oneof![
                (0u32..4, 0u32..512).prop_map(|(net, host)| IpAddr::V4(Ipv4Addr::from(
                    [0x1100_0000u32, 0x1200_0000, 0x0A00_0000, 0x1300_0000][net as usize] | host
                ))),
                (0u128..3, 0u128..64).prop_map(|(net, host)| IpAddr::V6(Ipv6Addr::from(
                    [0x2600_0001u128 << 96, 0x2600_0002 << 96, 0xfc00 << 112][net as usize] | host
                ))),
            ],
            0..80,
        ),
        dup in proptest::collection::vec(any::<usize>(), 0..20),
    ) {
        let mut routes = PrefixTable::new();
        routes.announce("17.0.0.0/8".parse::<Prefix>().unwrap(), Asn(1));
        routes.announce("17.0.1.0/24".parse::<Prefix>().unwrap(), Asn(2));
        routes.announce("17.0.1.7/32".parse::<Prefix>().unwrap(), Asn(3));
        routes.announce("18.0.0.0/16".parse::<Prefix>().unwrap(), Asn(4));
        routes.announce("2600:1::/32".parse::<Prefix>().unwrap(), Asn(5));
        routes.announce("2600:1::8/125".parse::<Prefix>().unwrap(), Asn(6));
        let mut trace_srcs = srcs.clone();
        if !srcs.is_empty() {
            trace_srcs.extend(dup.iter().map(|i| srcs[i % srcs.len()]));
        }
        let trace: Vec<bcd_worldgen::DitlRecord> = trace_srcs
            .iter()
            .map(|&src| bcd_worldgen::DitlRecord {
                time: SimTime::ZERO,
                src,
                src_port: 1234,
                qname: Name::root(),
            })
            .collect();
        let mut unique = trace_srcs;
        unique.sort_unstable();
        unique.dedup();

        let extracted = TargetSet::extract(&trace, &routes);
        let streamed = TargetSet::from_candidates(&unique, &routes);
        prop_assert_eq!(&extracted.v4, &streamed.v4);
        prop_assert_eq!(&extracted.v6, &streamed.v6);
        prop_assert_eq!(extracted.excluded_special, streamed.excluded_special);
        prop_assert_eq!(extracted.excluded_unrouted, streamed.excluded_unrouted);
        prop_assert_eq!(streamed.excluded_unsorted, 0);

        let (mut special, mut unrouted, mut targets) = (0, 0, Vec::new());
        for &addr in &unique {
            if bcd_netsim::prefix::special::is_special_purpose(addr) {
                special += 1;
            } else if let Some(asn) = routes.origin(addr) {
                targets.push((addr, asn));
            } else {
                unrouted += 1;
            }
        }
        let got: Vec<(IpAddr, Asn)> = streamed.iter().map(|t| (t.addr, t.asn)).collect();
        prop_assert_eq!(got, targets);
        prop_assert_eq!(streamed.excluded_special, special);
        prop_assert_eq!(streamed.excluded_unrouted, unrouted);
    }

    /// Schedules preserve query counts, respect the rate cap, and stay
    /// sorted, for arbitrary small worlds — under the streaming per-lane
    /// constructor (the production path).
    #[test]
    fn schedule_invariants(
        n_targets in 1usize..20,
        rate in 1u32..200,
        window_secs in 1u64..500,
        salt in any::<u64>(),
    ) {
        let mut routes = PrefixTable::new();
        routes.announce("17.0.0.0/14".parse::<Prefix>().unwrap(), Asn(1));
        routes.announce("18.0.0.0/16".parse::<Prefix>().unwrap(), Asn(2));
        let mut candidates: Vec<IpAddr> = (0..n_targets)
            .map(|i| {
                let net = 17 + (i % 2);
                format!("{net}.0.{}.{}", i / 200, 1 + i % 100).parse().unwrap()
            })
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        let targets = TargetSet::from_candidates(&candidates, &routes);
        let lanes = bcd_core::schedule::lane_count(rate);
        let census = bcd_core::schedule::census(&targets, &routes, &Hitlist::default(), None, lanes, salt, None);
        let layout = bcd_core::LaneLayout::new(
            rate,
            SimDuration::from_secs(window_secs),
            census.total,
            salt,
            None,
        );
        let owned: Vec<usize> = (0..lanes).collect();
        let s = Schedule::build_lanes(&targets, &routes, &Hitlist::default(), None, &owned, &census, &layout);
        prop_assert_eq!(s.len() as u64, census.total);
        prop_assert!(s.peak_rate() <= rate);
        for i in 1..s.len() {
            prop_assert!(s.at(i - 1) <= s.at(i));
        }
        // Every planned (target, source) pair is scheduled exactly once —
        // against independently rebuilt per-target deterministic plans.
        let mut planned: Vec<(IpAddr, IpAddr)> = targets
            .iter()
            .flat_map(|t| {
                SourcePlan::build(t.addr, &routes, &Hitlist::default(), salt)
                    .sources
                    .into_iter()
                    .map(move |(_, s)| (t.addr, s))
            })
            .collect();
        let mut scheduled: Vec<(IpAddr, IpAddr)> =
            s.iter_with(&targets).map(|q| (q.target, q.source)).collect();
        planned.sort();
        scheduled.sort();
        prop_assert_eq!(planned, scheduled);
    }

    /// Loopback/ds/private categories are mutually exclusive under
    /// classification, for arbitrary address pairs.
    #[test]
    fn classification_is_a_function(src in any_ip(), dst in any_ip()) {
        let routes = PrefixTable::new();
        match classify_source(src, dst, &routes) {
            Some(SourceCategory::Loopback) => {
                prop_assert!(bcd_netsim::prefix::special::is_loopback(src));
            }
            Some(SourceCategory::DstAsSrc) => prop_assert_eq!(src, dst),
            Some(SourceCategory::Private) => {
                prop_assert!(bcd_netsim::prefix::special::is_private_or_ula(src));
            }
            Some(SourceCategory::SamePrefix) => {
                prop_assert_eq!(src.is_ipv6(), dst.is_ipv6());
                prop_assert_ne!(src, dst);
            }
            // No routes announced: other-prefix can never be inferred.
            Some(SourceCategory::OtherPrefix) => prop_assert!(false),
            None => {}
        }
    }
}

proptest! {
    /// Hitlist preference: with a hitlist containing a specific /64, that
    /// prefix always contributes an other-prefix source even when the AS
    /// has far more than 97 subnets.
    #[test]
    fn hitlist_prefixes_win_the_cap(salt in any::<u64>()) {
        let mut routes = PrefixTable::new();
        // A /48 = 65,536 /64s.
        routes.announce("2600:77::/48".parse::<Prefix>().unwrap(), Asn(4));
        let target: IpAddr = "2600:77:0:1::53".parse().unwrap();
        // Put a far-away /64 on the hitlist (index 40,000 — never in the
        // head of the enumeration).
        let active: Prefix = "2600:77:0:9c40::/64".parse().unwrap();
        let plan = SourcePlan::build(target, &routes, &Hitlist::new(vec![active], &routes), salt);
        let in_active = plan
            .sources
            .iter()
            .any(|(c, s)| *c == SourceCategory::OtherPrefix && active.contains(*s));
        prop_assert!(in_active, "hitlist /64 missing from the plan");
        // Still capped at 97 + 4 singleton categories.
        prop_assert!(plan.len() <= 101);
    }
}

// ---- the AS-grouped hitlist against the linear scan (§3.2) ----

/// The linear hitlist scan the planner ran before the hitlist was grouped
/// by origin AS, kept verbatim as the reference: the hitlist-preferred
/// head of `target`'s other-prefix list, read from the sorted,
/// deduplicated hitlist.
fn hitlist_head(target: IpAddr, routes: &PrefixTable, hitlist: &[Prefix]) -> Vec<Prefix> {
    let v6 = target.is_ipv6();
    let sub_len = if v6 { 64 } else { 24 };
    let own_subnet = Prefix::subprefix_of(target, sub_len);
    let Some(asn) = routes.origin(target) else {
        return Vec::new();
    };
    let mut other: Vec<Prefix> = Vec::new();
    if v6 {
        for h in hitlist {
            if h.is_v6()
                && h.len() == sub_len
                && *h != own_subnet
                && routes.origin(h.network()) == Some(asn)
            {
                other.push(*h);
            }
            if other.len() >= MAX_OTHER_PREFIX {
                break;
            }
        }
    }
    other
}

/// The `/len` around `2600:a:0:i::`.
fn v6_net(a: u16, i: u16, len: u8) -> Prefix {
    Prefix::new(Ipv6Addr::new(0x2600, a, 0, i, 0, 0, 0, 0).into(), len)
}

/// The /64 at index `i` of `2600:a::/48`.
fn v6_64(a: u16, i: u16) -> Prefix {
    v6_net(a, i, 64)
}

/// A random multi-AS table, a raw hitlist and a target. AS `a + 1`
/// announces `2600:a::/48` and `16.a.0.0/22`; AS `n_as + 1` announces the
/// more-specific `2600:0:0:100::/56` inside AS 1's /48. The hitlist mixes
/// scattered /64s (some inside the /56), a dense run of more than 97 of AS
/// 1's /64s, non-/64 and IPv4 entries, unrouted /64s and duplicates, in
/// random order; half the time it also holds the target's own /64.
fn hitlist_world(seed: u64, n_as: u16) -> (PrefixTable, Vec<Prefix>, IpAddr) {
    use rand::seq::SliceRandom;
    use rand::Rng;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut routes = PrefixTable::new();
    for a in 0..n_as {
        routes.announce(v6_net(a, 0, 48), Asn(u32::from(a) + 1));
        routes.announce(
            Prefix::new(Ipv4Addr::new(16, a as u8, 0, 0).into(), 22),
            Asn(u32::from(a) + 1),
        );
    }
    routes.announce(v6_net(0, 0x100, 56), Asn(u32::from(n_as) + 1));

    let mut raw: Vec<Prefix> = Vec::new();
    for _ in 0..rng.gen_range(0..200) {
        raw.push(v6_64(rng.gen_range(0..n_as), rng.gen_range(0..0x400)));
    }
    let dense = rng.gen_range(98..160);
    raw.extend((0..dense).map(|i| v6_64(0, 0x200 + i)));
    for _ in 0..rng.gen_range(0..20) {
        let a = rng.gen_range(0..n_as);
        raw.push(v6_net(a, rng.gen_range(0..0x400), 56));
        raw.push(Prefix::new(
            Ipv4Addr::new(16, a as u8, rng.gen_range(0..4), 0).into(),
            24,
        ));
        raw.push(v6_64(0x7000 + a, rng.gen_range(0..0x400)));
    }
    let dups: Vec<Prefix> = raw.iter().take(10).copied().collect();
    raw.extend(dups);

    let a = rng.gen_range(0..n_as);
    let target: IpAddr = if rng.gen_bool(0.25) {
        Ipv4Addr::new(16, a as u8, rng.gen_range(0..4), 77).into()
    } else {
        let own = v6_64(a, rng.gen_range(0..0x400));
        if rng.gen_bool(0.5) {
            raw.push(own);
        }
        own.nth(0x42).unwrap()
    };
    raw.shuffle(&mut rng);
    (routes, raw, target)
}

proptest! {
    /// The AS-grouped hitlist yields exactly the linear scan's preferred
    /// /64s, in order, at the head of every plan — so plans are unchanged
    /// — and the census length still equals the built length.
    #[test]
    fn hitlist_index_matches_linear_scan(seed in any::<u64>(), n_as in 2u16..6, salt in any::<u64>()) {
        let (routes, raw, target) = hitlist_world(seed, n_as);
        let mut sorted = raw.clone();
        sorted.sort();
        sorted.dedup();
        let head = hitlist_head(target, &routes, &sorted);
        let hitlist = Hitlist::new(raw, &routes);
        let plan = SourcePlan::build(target, &routes, &hitlist, salt);
        let others: Vec<IpAddr> = plan
            .sources
            .iter()
            .filter(|(c, _)| *c == SourceCategory::OtherPrefix)
            .map(|&(_, s)| s)
            .take(head.len())
            .collect();
        prop_assert_eq!(others.len(), head.len());
        for (i, (p, s)) in head.iter().zip(&others).enumerate() {
            prop_assert!(p.contains(*s), "other-prefix source {} ({}) not in {:?}", i, s, p);
        }
        prop_assert_eq!(SourcePlan::planned_len(target, &routes, &hitlist), plan.len());
    }
}

// ---- sharded-merge algebra (crate::shard / bcd_netsim::merge) ----

const DROP_REASONS: [DropReason; 6] = [
    DropReason::Osav,
    DropReason::Dsav,
    DropReason::SubnetSavi,
    DropReason::PrivateIngress,
    DropReason::NoRoute,
    DropReason::LinkLoss,
];

fn any_counters() -> impl Strategy<Value = NetCounters> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        proptest::collection::vec((0usize..DROP_REASONS.len(), any::<u16>()), 0..6),
    )
        .prop_map(|(sent, delivered, duplicated, intercepted, drops)| {
            let mut c = NetCounters {
                sent: sent as u64,
                delivered: delivered as u64,
                duplicated: duplicated as u64,
                intercepted: intercepted as u64,
                ..NetCounters::default()
            };
            for (i, n) in drops {
                *c.drops.entry(DROP_REASONS[i]).or_insert(0) += n as u64;
            }
            c
        })
}

fn any_stats() -> impl Strategy<Value = ScannerStats> {
    (
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
        ),
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
        ),
    )
        .prop_map(|((a, b, c, d, e), (f, g, h, i, j))| ScannerStats {
            spoofed_sent: a as u64,
            followup_sets: b as u64,
            followup_queries: c as u64,
            open_probes: d as u64,
            tcp_probes: e as u64,
            human_lookups: f as u64,
            responses_received: g as u64,
            refused_responses: h as u64,
            opted_out: i as u64,
            outage_deferrals: j as u64,
        })
}

fn merged<T: Merge + Clone>(mut a: T, b: &T) -> T {
    a.merge(b.clone());
    a
}

/// Log entries whose canonical keys are unique (distinct qname serials) —
/// the shape a real merged survey log has, since every logged query's name
/// encodes its probe serial.
fn any_shard_logs() -> impl Strategy<Value = Vec<Vec<QueryLogEntry>>> {
    proptest::collection::vec(
        proptest::collection::vec((any::<u16>(), 0u8..8, any::<u16>()), 0..24),
        1..4,
    )
    .prop_map(|shards| {
        let mut serial = 0u32;
        shards
            .into_iter()
            .map(|entries| {
                let mut v: Vec<QueryLogEntry> = entries
                    .into_iter()
                    .map(|(t, target, port)| {
                        serial += 1;
                        QueryLogEntry {
                            time: SimTime::from_secs(t as u64),
                            src: IpAddr::V4(Ipv4Addr::new(10, 0, 0, target)),
                            server: "198.51.100.1".parse().unwrap(),
                            src_port: port,
                            qname: format!("t{}.q{serial}.x.dns-lab.org", t).parse().unwrap(),
                            proto: LogProto::Udp,
                            observed_ttl: 52,
                            syn: None,
                        }
                    })
                    .collect();
                // Each shard's log is time-ordered, like a real capture.
                v.sort_by_key(|e| e.time);
                v
            })
            .collect()
    })
}

proptest! {
    /// NetCounters merge is commutative and associative — the shard fold
    /// may run in any grouping and still produce the same totals.
    #[test]
    fn counters_merge_is_commutative_associative(
        a in any_counters(),
        b in any_counters(),
        c in any_counters(),
    ) {
        let ab = merged(a.clone(), &b);
        let ba = merged(b.clone(), &a);
        prop_assert_eq!(format!("{ab:?}"), format!("{ba:?}"));
        let ab_c = merged(ab, &c);
        let a_bc = merged(a, &merged(b, &c));
        prop_assert_eq!(format!("{ab_c:?}"), format!("{a_bc:?}"));
    }

    /// ScannerStats merge is commutative and associative.
    #[test]
    fn scanner_stats_merge_is_commutative_associative(
        a in any_stats(),
        b in any_stats(),
        c in any_stats(),
    ) {
        let ab = merged(a.clone(), &b);
        let ba = merged(b.clone(), &a);
        prop_assert_eq!(format!("{ab:?}"), format!("{ba:?}"));
        let ab_c = merged(ab, &c);
        let a_bc = merged(a, &merged(b, &c));
        prop_assert_eq!(format!("{ab_c:?}"), format!("{a_bc:?}"));
    }

    /// Canonically sorting a concatenation of per-shard logs preserves each
    /// target's own arrival order and is independent of shard order.
    #[test]
    fn merged_logs_preserve_per_target_order(shards in any_shard_logs()) {
        let mut fwd: Vec<QueryLogEntry> = shards.iter().flatten().cloned().collect();
        canonical_sort(&mut fwd);
        let mut rev: Vec<QueryLogEntry> = shards.iter().rev().flatten().cloned().collect();
        canonical_sort(&mut rev);
        // Shard order is irrelevant (keys are unique per entry).
        let key = |e: &QueryLogEntry| (e.time, e.qname.clone(), e.src, e.src_port);
        prop_assert_eq!(fwd.iter().map(key).collect::<Vec<_>>(),
                        rev.iter().map(key).collect::<Vec<_>>());
        // Global order is by time; per-target subsequences stay sorted.
        for w in fwd.windows(2) {
            prop_assert!(w[0].time <= w[1].time);
        }
        for shard in &shards {
            for target in shard.iter().map(|e| e.src) {
                let times: Vec<SimTime> = fwd
                    .iter()
                    .filter(|e| e.src == target)
                    .map(|e| e.time)
                    .collect();
                prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
            }
        }
    }
}
