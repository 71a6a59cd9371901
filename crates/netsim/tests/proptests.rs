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
