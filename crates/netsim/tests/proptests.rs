//! Property-based tests for the simulator's data structures: the prefix
//! arithmetic and the longest-prefix-match trie (validated against a naive
//! linear scan).

use bcd_netsim::{Asn, LpmTrie, Prefix, PrefixMap, PrefixTable};
use proptest::prelude::*;
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

fn any_prefix() -> impl Strategy<Value = Prefix> {
    prop_oneof![
        (any::<u32>(), 0u8..=32)
            .prop_map(|(v, len)| Prefix::new(IpAddr::V4(Ipv4Addr::from(v)), len)),
        (any::<u128>(), 0u8..=128)
            .prop_map(|(v, len)| Prefix::new(IpAddr::V6(Ipv6Addr::from(v)), len)),
    ]
}

/// One announcement cut from a shared base address: the base's leading
/// `depth` bits survive and `noise` fills the rest, so announcements nest
/// and share subtrees. `len_pick` 0 and 1 force the /0 default route and
/// the host route; otherwise `len` picks any length.
fn nested_cut(
    (b4, b6): (u32, u128),
    (v6, len_pick, len, depth, noise): (bool, u8, u8, u8, u128),
) -> Prefix {
    if v6 {
        let keep = u128::MAX.checked_shr(u32::from(depth % 129)).unwrap_or(0);
        let bits = (b6 & !keep) | (noise & keep);
        let len = match len_pick {
            0 => 0,
            1 => 128,
            _ => len % 129,
        };
        Prefix::new(IpAddr::V6(Ipv6Addr::from(bits)), len)
    } else {
        let keep = u32::MAX.checked_shr(u32::from(depth % 33)).unwrap_or(0);
        let bits = (b4 & !keep) | (noise as u32 & keep);
        let len = match len_pick {
            0 => 0,
            1 => 32,
            _ => len % 33,
        };
        Prefix::new(IpAddr::V4(Ipv4Addr::from(bits)), len)
    }
}

/// The addresses just below and just above `p`, where its family has them.
fn neighbours(p: &Prefix) -> impl Iterator<Item = IpAddr> {
    let bits = |a: IpAddr| match a {
        IpAddr::V4(a) => u128::from(u32::from(a)),
        IpAddr::V6(a) => u128::from(a),
    };
    let v6 = p.is_v6();
    let max = if v6 { u128::MAX } else { u128::from(u32::MAX) };
    let below = bits(p.network()).checked_sub(1);
    let above = bits(p.last()).checked_add(1).filter(|&v| v <= max);
    below.into_iter().chain(above).map(move |v| {
        if v6 {
            IpAddr::V6(Ipv6Addr::from(v))
        } else {
            IpAddr::V4(Ipv4Addr::from(v as u32))
        }
    })
}

/// Naive reference for longest-prefix match.
fn linear_lpm(entries: &[(Prefix, u32)], ip: IpAddr) -> Option<u32> {
    entries
        .iter()
        .filter(|(p, _)| p.contains(ip))
        .max_by_key(|(p, _)| p.len())
        .map(|(_, v)| *v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A prefix contains exactly the addresses its nth() enumerates.
    #[test]
    fn prefix_contains_its_members(p in any_prefix(), idx in any::<u128>()) {
        let size = p.size();
        let i = if size == u128::MAX { idx } else { idx % size };
        if let Some(addr) = p.nth(i) {
            prop_assert!(p.contains(addr));
            prop_assert_eq!(p.index_of(addr), Some(i));
        }
    }

    /// Canonicalization: any address inside a prefix reconstructs the same
    /// prefix at the same length.
    #[test]
    fn prefix_is_canonical(p in any_prefix(), idx in any::<u128>()) {
        let size = p.size();
        let i = if size == u128::MAX { idx } else { idx % size };
        if let Some(addr) = p.nth(i) {
            prop_assert_eq!(Prefix::new(addr, p.len()), p);
        }
    }

    /// covers() agrees with membership of the network and last addresses.
    #[test]
    fn covers_matches_containment(a in any_prefix(), b in any_prefix()) {
        if a.covers(&b) {
            prop_assert!(a.contains(b.network()));
            prop_assert!(a.contains(b.last()));
            prop_assert!(a.len() <= b.len());
        }
    }

    /// The trie's longest-prefix match agrees with a naive linear scan for
    /// any set of insertions. Last-insert-wins on duplicate prefixes.
    #[test]
    fn trie_agrees_with_linear_scan(
        entries in proptest::collection::vec((any_prefix(), any::<u32>()), 0..40),
        probes in proptest::collection::vec(any_ip(), 0..40),
    ) {
        let mut map: PrefixMap<u32> = PrefixMap::new();
        // Deduplicate like the map does: keep the last value per prefix.
        let mut reference: Vec<(Prefix, u32)> = Vec::new();
        for (p, v) in &entries {
            map.insert(*p, *v);
            reference.retain(|(q, _)| q != p);
            reference.push((*p, *v));
        }
        prop_assert_eq!(map.len(), reference.len());
        for ip in probes {
            prop_assert_eq!(map.get(ip), linear_lpm(&reference, ip), "probe {}", ip);
        }
        // Stored prefixes look themselves up (probe their own members).
        for (p, _) in &reference {
            let probe = p.network();
            let got = map.get(probe);
            prop_assert_eq!(got, linear_lpm(&reference, probe));
            prop_assert!(got.is_some());
        }
    }

    /// PrefixTable reverse index is consistent with lookups.
    #[test]
    fn table_reverse_index_consistent(
        entries in proptest::collection::vec((any_prefix(), 1u32..50), 1..30),
    ) {
        let mut t = PrefixTable::new();
        for (p, asn) in &entries {
            t.announce(*p, Asn(*asn));
        }
        for asn in t.asns() {
            for p in t.prefixes_of(asn) {
                // The network address of each announced prefix resolves to
                // a prefix at least as specific.
                let (got_p, _) = t.lookup(p.network()).expect("own prefix must match");
                prop_assert!(got_p.len() >= p.len());
            }
        }
        // Total prefixes in reverse index equals the trie's count.
        let total: usize = t.asns().map(|a| t.prefixes_of(a).len()).sum();
        prop_assert_eq!(total, t.len());
    }

    /// Differential oracle: the compact arena trie answers every lookup
    /// identically to the boxed-node map for any interleaving of announces
    /// (including re-announces, which replace) and probes. This is the
    /// gate for swapping `PrefixTable`'s forward engine.
    #[test]
    fn lpm_trie_agrees_with_prefix_map(
        entries in proptest::collection::vec((any_prefix(), any::<u32>()), 0..60),
        probes in proptest::collection::vec(any_ip(), 0..60),
    ) {
        let mut trie: LpmTrie<u32> = LpmTrie::new();
        let mut map: PrefixMap<u32> = PrefixMap::new();
        for (p, v) in &entries {
            prop_assert_eq!(trie.insert(*p, *v), map.insert(*p, *v), "insert {}", p);
            prop_assert_eq!(trie.len(), map.len());
        }
        prop_assert!(trie.node_count() <= 2 * trie.len() + 2);
        for ip in probes {
            prop_assert_eq!(trie.lookup(ip), map.lookup(ip), "probe {}", ip);
        }
        // Members of every stored prefix resolve identically too (probes
        // above are uniform, so they rarely land inside narrow prefixes).
        for (p, _) in &entries {
            for probe in [p.network(), p.last()] {
                prop_assert_eq!(trie.lookup(probe), map.lookup(probe), "member {}", probe);
            }
        }
    }

    /// `PrefixTable` answers like a `PrefixMap` fed the same announce
    /// sequence (re-announces replace), and its reverse index holds each
    /// prefix exactly once, under its latest origin.
    #[test]
    fn prefix_table_agrees_with_prefix_map(
        entries in proptest::collection::vec((any_prefix(), 1u32..50), 0..40),
        probes in proptest::collection::vec(any_ip(), 0..40),
    ) {
        let mut table = PrefixTable::new();
        let mut map: PrefixMap<Asn> = PrefixMap::new();
        let mut latest = std::collections::BTreeMap::new();
        for (p, asn) in &entries {
            table.announce(*p, Asn(*asn));
            map.insert(*p, Asn(*asn));
            latest.insert(*p, Asn(*asn));
        }
        prop_assert_eq!(table.len(), map.len());
        let members = entries.iter().flat_map(|(p, _)| [p.network(), p.last()]);
        for ip in probes.into_iter().chain(members) {
            prop_assert_eq!(table.lookup(ip), map.lookup(ip), "probe {}", ip);
            prop_assert_eq!(table.origin(ip), map.get(ip), "origin {}", ip);
        }
        let mut indexed: Vec<(Prefix, Asn)> = table.iter().collect();
        indexed.sort();
        prop_assert_eq!(indexed, latest.into_iter().collect::<Vec<_>>());
    }

    /// The batch sweep answers a sorted, deduplicated address list exactly
    /// like one `origin` lookup per address: nested v4 and v6 tables with
    /// /0 default routes, /32 and /128 host routes, and prefixes
    /// re-announced under a new origin, probed at every prefix's edges and
    /// just outside them.
    #[test]
    fn origin_sweep_agrees_with_origin(
        bases in (any::<u32>(), any::<u128>()),
        cuts in proptest::collection::vec(
            (any::<bool>(), 0u8..4, any::<u8>(), any::<u8>(), any::<u128>()),
            0..60,
        ),
        asns in proptest::collection::vec(1u32..8, 60),
        reannounce in proptest::collection::vec((any::<usize>(), 8u32..12), 0..10),
        extra in proptest::collection::vec(any_ip(), 0..40),
    ) {
        let announced: Vec<Prefix> = cuts.into_iter().map(|c| nested_cut(bases, c)).collect();
        let mut table = PrefixTable::new();
        for (p, asn) in announced.iter().zip(&asns) {
            table.announce(*p, Asn(*asn));
        }
        if !announced.is_empty() {
            for (i, asn) in &reannounce {
                table.announce(announced[i % announced.len()], Asn(*asn));
            }
        }
        let mut probes: Vec<IpAddr> = announced
            .iter()
            .flat_map(|p| [p.network(), p.last()].into_iter().chain(neighbours(p)))
            .chain(extra)
            .collect();
        probes.sort_unstable();
        probes.dedup();
        let mut sweep = table.origin_sweep();
        for ip in probes {
            prop_assert_eq!(sweep.get(ip), table.origin(ip), "probe {}", ip);
        }
    }

    /// Subprefix enumeration covers the parent exactly.
    #[test]
    fn subprefixes_partition(p in any_prefix(), extra in 0u8..6) {
        let sublen = p.len().saturating_add(extra).min(p.width());
        let subs: Vec<Prefix> = p.subprefixes(sublen).take(128).collect();
        for (i, s) in subs.iter().enumerate() {
            prop_assert!(p.covers(s));
            prop_assert_eq!(s.len(), sublen);
            if i > 0 {
                prop_assert!(subs[i - 1].network() < s.network());
            }
        }
    }
}
