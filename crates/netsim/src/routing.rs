//! Longest-prefix-match lookup structures.
//!
//! The experiment needs two queries answered fast, millions of times:
//!
//! 1. *which AS originates this address?* (route lookup — used for OSAV/DSAV
//!    border decisions and for the paper's target→ASN mapping, §3.2), and
//! 2. *which prefixes does this AS announce?* (used to derive the
//!    other-prefix spoofed-source pool).
//!
//! [`PrefixTable`] is prefix → origin-ASN routing over the compact
//! [`LpmTrie`] with a reverse index; `bcd-geo` geolocates an address
//! through the route it finds. [`PrefixMap`] is the plain reference
//! engine — a boxed binary trie over address bits, most-significant-bit
//! first, shared between the two families by left-aligning IPv4 keys in a
//! `u128`. Only tests use it, as the oracle the trie and geolocation
//! are checked against.

use crate::lpm::{LpmSweep, LpmTrie};
use crate::prefix::Prefix;
use crate::topology::Asn;
use std::collections::BTreeMap;
use std::net::IpAddr;

#[derive(Debug)]
struct TrieNode<T> {
    children: [Option<Box<TrieNode<T>>>; 2],
    /// Value attached at this exact prefix, if any.
    value: Option<T>,
}

impl<T> Default for TrieNode<T> {
    fn default() -> Self {
        TrieNode {
            children: [None, None],
            value: None,
        }
    }
}

/// A longest-prefix-match map from [`Prefix`] to values of type `T`.
#[derive(Debug)]
pub struct PrefixMap<T> {
    v4: TrieNode<T>,
    v6: TrieNode<T>,
    len: usize,
}

impl<T: Copy> Default for PrefixMap<T> {
    fn default() -> Self {
        PrefixMap {
            v4: TrieNode::default(),
            v6: TrieNode::default(),
            len: 0,
        }
    }
}

impl<T: Copy> PrefixMap<T> {
    /// An empty map.
    pub fn new() -> PrefixMap<T> {
        PrefixMap::default()
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert (or replace) the value at `prefix`; returns the old value.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let root = if prefix.is_v6() {
            &mut self.v6
        } else {
            &mut self.v4
        };
        let (key, plen) = prefix.key();
        let mut node = root;
        for i in 0..plen {
            let bit = ((key >> (127 - i as u32)) & 1) as usize;
            node = node.children[bit].get_or_insert_with(Default::default);
        }
        let old = node.value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Longest-prefix-match: the most specific stored prefix containing
    /// `ip`, with its value.
    pub fn lookup(&self, ip: IpAddr) -> Option<(Prefix, T)> {
        let v6 = ip.is_ipv6();
        let width: u8 = if v6 { 128 } else { 32 };
        let full = Prefix::new(ip, width);
        let (key, _) = full.key();
        let mut node = if v6 { &self.v6 } else { &self.v4 };
        let mut best: Option<(u8, T)> = node.value.map(|a| (0, a));
        for i in 0..width {
            let bit = ((key >> (127 - i as u32)) & 1) as usize;
            match &node.children[bit] {
                Some(child) => {
                    node = child;
                    if let Some(a) = node.value {
                        best = Some((i + 1, a));
                    }
                }
                None => break,
            }
        }
        best.map(|(len, v)| (Prefix::new(ip, len), v))
    }

    /// The value at the most specific prefix covering `ip`, if any.
    pub fn get(&self, ip: IpAddr) -> Option<T> {
        self.lookup(ip).map(|(_, v)| v)
    }
}

/// A routing table mapping prefixes to originating ASNs with
/// longest-prefix-match semantics (over the compact [`LpmTrie`]), plus a
/// reverse index from ASN to announced prefixes.
#[derive(Debug, Default)]
pub struct PrefixTable {
    lpm: LpmTrie<Asn>,
    by_asn: BTreeMap<Asn, Vec<Prefix>>,
}

impl PrefixTable {
    /// An empty table.
    pub fn new() -> PrefixTable {
        PrefixTable::default()
    }

    /// Number of announced prefixes.
    pub fn len(&self) -> usize {
        self.lpm.len()
    }

    /// True if no prefixes are announced.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Announce `prefix` as originated by `asn`. Re-announcing the same
    /// prefix replaces the origin (and updates the reverse index).
    pub fn announce(&mut self, prefix: Prefix, asn: Asn) {
        if let Some(old) = self.lpm.insert(prefix, asn) {
            if let Some(v) = self.by_asn.get_mut(&old) {
                v.retain(|p| p != &prefix);
            }
        }
        self.by_asn.entry(asn).or_default().push(prefix);
    }

    /// Longest-prefix-match lookup: the most specific announced prefix
    /// containing `ip`, with its origin ASN.
    pub fn lookup(&self, ip: IpAddr) -> Option<(Prefix, Asn)> {
        self.lpm.lookup(ip)
    }

    /// The origin ASN for `ip`, if any route covers it.
    pub fn origin(&self, ip: IpAddr) -> Option<Asn> {
        self.lpm.get(ip)
    }

    /// A batch form of [`origin`](Self::origin) for addresses in ascending
    /// order: the sweep's `get(ip)` equals `origin(ip)`, and a whole sorted
    /// batch costs one in-order pass over the trie instead of one
    /// root-to-leaf walk per address.
    pub fn origin_sweep(&self) -> LpmSweep<'_, Asn> {
        self.lpm.sweep()
    }

    /// All prefixes announced by `asn` (order of announcement).
    pub fn prefixes_of(&self, asn: Asn) -> &[Prefix] {
        self.by_asn.get(&asn).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterate over all (prefix, asn) announcements.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, Asn)> + '_ {
        self.by_asn
            .iter()
            .flat_map(|(asn, ps)| ps.iter().map(move |p| (*p, *asn)))
    }

    /// All ASNs with at least one announcement.
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.by_asn.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn longest_match_wins() {
        let mut t = PrefixTable::new();
        t.announce(p("10.0.0.0/8"), Asn(100));
        t.announce(p("10.1.0.0/16"), Asn(200));
        t.announce(p("10.1.2.0/24"), Asn(300));
        assert_eq!(t.origin(ip("10.9.9.9")), Some(Asn(100)));
        assert_eq!(t.origin(ip("10.1.9.9")), Some(Asn(200)));
        assert_eq!(t.origin(ip("10.1.2.9")), Some(Asn(300)));
        assert_eq!(t.origin(ip("11.0.0.1")), None);
        let (pre, asn) = t.lookup(ip("10.1.2.3")).unwrap();
        assert_eq!(pre, p("10.1.2.0/24"));
        assert_eq!(asn, Asn(300));
    }

    #[test]
    fn families_are_independent() {
        let mut t = PrefixTable::new();
        t.announce(p("0.0.0.0/0"), Asn(1));
        t.announce(p("2001:db8::/32"), Asn(2));
        assert_eq!(t.origin(ip("8.8.8.8")), Some(Asn(1)));
        assert_eq!(t.origin(ip("2001:db8::1")), Some(Asn(2)));
        assert_eq!(t.origin(ip("2600::1")), None);
    }

    #[test]
    fn reverse_index_tracks_announcements() {
        let mut t = PrefixTable::new();
        t.announce(p("192.0.2.0/24"), Asn(5));
        t.announce(p("198.51.100.0/24"), Asn(5));
        t.announce(p("203.0.113.0/24"), Asn(6));
        assert_eq!(t.prefixes_of(Asn(5)).len(), 2);
        assert_eq!(t.prefixes_of(Asn(6)), &[p("203.0.113.0/24")]);
        assert_eq!(t.prefixes_of(Asn(7)), &[] as &[Prefix]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.asns().count(), 2);
    }

    #[test]
    fn reannouncement_replaces_origin() {
        let mut t = PrefixTable::new();
        t.announce(p("192.0.2.0/24"), Asn(5));
        t.announce(p("192.0.2.0/24"), Asn(9));
        assert_eq!(t.origin(ip("192.0.2.1")), Some(Asn(9)));
        assert_eq!(t.len(), 1);
        assert!(t.prefixes_of(Asn(5)).is_empty());
        assert_eq!(t.prefixes_of(Asn(9)), &[p("192.0.2.0/24")]);
    }

    #[test]
    fn default_route_matches_everything_v4() {
        let mut t = PrefixTable::new();
        t.announce(Prefix::v4_default(), Asn(64512));
        assert_eq!(t.origin(ip("1.2.3.4")), Some(Asn(64512)));
        let (pre, _) = t.lookup(ip("1.2.3.4")).unwrap();
        assert_eq!(pre, Prefix::v4_default());
    }

    #[test]
    fn host_routes_match_exactly() {
        let mut t = PrefixTable::new();
        t.announce(p("192.0.2.7/32"), Asn(1));
        t.announce(p("2001:db8::7/128"), Asn(2));
        assert_eq!(t.origin(ip("192.0.2.7")), Some(Asn(1)));
        assert_eq!(t.origin(ip("192.0.2.8")), None);
        assert_eq!(t.origin(ip("2001:db8::7")), Some(Asn(2)));
        assert_eq!(t.origin(ip("2001:db8::8")), None);
    }

    #[test]
    fn iter_yields_all() {
        let mut t = PrefixTable::new();
        t.announce(p("192.0.2.0/24"), Asn(5));
        t.announce(p("2001:db8::/48"), Asn(5));
        let all: Vec<_> = t.iter().collect();
        assert_eq!(all.len(), 2);
        assert!(all.contains(&(p("192.0.2.0/24"), Asn(5))));
    }

    #[test]
    fn table_matches_prefix_map_reference() {
        let announcements = [
            (p("10.0.0.0/8"), Asn(1)),
            (p("10.1.0.0/16"), Asn(2)),
            (p("10.1.2.0/24"), Asn(3)),
            (p("10.1.2.0/24"), Asn(4)), // re-announce
            (p("0.0.0.0/0"), Asn(5)),
            (p("2001:db8::/32"), Asn(6)),
            (p("2001:db8:1::/48"), Asn(7)),
            (p("192.0.2.7/32"), Asn(8)),
        ];
        let mut table = PrefixTable::new();
        let mut map = PrefixMap::new();
        for (pre, asn) in announcements {
            table.announce(pre, asn);
            map.insert(pre, asn);
        }
        for probe in [
            "10.2.3.4",
            "10.1.9.9",
            "10.1.2.200",
            "192.0.2.7",
            "192.0.2.8",
            "2001:db8::1",
            "2001:db8:1::1",
            "2600::1",
        ] {
            let a = ip(probe);
            assert_eq!(table.lookup(a), map.lookup(a), "lookup({probe})");
            assert_eq!(table.origin(a), map.get(a), "origin({probe})");
        }
        assert_eq!(table.len(), map.len());
        // The re-announcement moved 10.1.2.0/24 to its new origin.
        assert_eq!(table.prefixes_of(Asn(3)), &[] as &[Prefix]);
        assert_eq!(table.prefixes_of(Asn(4)), &[p("10.1.2.0/24")]);
    }

    #[test]
    fn generic_map_with_non_asn_values() {
        let mut m: PrefixMap<u8> = PrefixMap::new();
        assert!(m.is_empty());
        m.insert(p("192.0.2.0/24"), 7);
        m.insert(p("192.0.2.128/25"), 9);
        assert_eq!(m.get(ip("192.0.2.1")), Some(7));
        assert_eq!(m.get(ip("192.0.2.200")), Some(9));
        assert_eq!(m.get(ip("198.51.100.1")), None);
        assert_eq!(m.insert(p("192.0.2.0/24"), 8), Some(7));
        assert_eq!(m.len(), 2);
    }
}
