//! Compact arena-backed longest-prefix-match trie.
//!
//! [`LpmTrie`] is the scale-oriented replacement for the boxed-node
//! [`crate::PrefixMap`]: a path-compressed binary trie over left-aligned
//! `u128` keys whose nodes live in one flat `Vec` with `u32` child indices.
//! Compression means interior chains of single-child nodes never exist —
//! a node is either a stored prefix, a branch point, or both — so a table
//! of `n` prefixes needs at most `2n + 2` nodes regardless of prefix
//! length, and a lookup touches at most one cache line per *branching*
//! level instead of one heap allocation per bit.
//!
//! Semantics are identical to `PrefixMap` (the differential proptests in
//! `tests/proptests.rs` hold the two, and [`crate::PrefixTable`] against
//! a `PrefixMap`, to byte-equal answers): insert
//! replaces, lookup returns the most specific stored prefix covering the
//! address, and the two address families are fully independent (IPv4 keys
//! are left-aligned into the same `u128` space but rooted separately).

use crate::prefix::Prefix;
use std::net::IpAddr;

const NONE: u32 = u32::MAX;
/// Arena index of the IPv4 root (len-0 pseudo-node).
const ROOT_V4: usize = 0;
/// Arena index of the IPv6 root.
const ROOT_V6: usize = 1;

#[derive(Debug, Clone)]
struct Node<T> {
    /// Left-aligned prefix bits; bits at positions `>= len` are zero.
    key: u128,
    /// Prefix length this node represents. Path compression lets child
    /// lengths jump by more than one.
    len: u8,
    /// Value stored at this exact prefix, if announced.
    value: Option<T>,
    /// Children indexed by the bit at position `len` ([`NONE`] = absent).
    children: [u32; 2],
}

impl<T> Node<T> {
    fn pseudo_root() -> Node<T> {
        Node {
            key: 0,
            len: 0,
            value: None,
            children: [NONE, NONE],
        }
    }
}

/// A longest-prefix-match map from [`Prefix`] to `T`, arena-backed and
/// path-compressed.
#[derive(Debug, Clone)]
pub struct LpmTrie<T> {
    nodes: Vec<Node<T>>,
    len: usize,
}

/// Bit `i` (MSB-first) of a left-aligned key.
#[inline]
fn bit_at(key: u128, i: u8) -> usize {
    ((key >> (127 - i as u32)) & 1) as usize
}

/// Length of the common prefix of two left-aligned keys (0..=128).
#[inline]
fn common_prefix(a: u128, b: u128) -> u8 {
    (a ^ b).leading_zeros() as u8
}

/// Zero every bit at position `>= len`.
#[inline]
fn mask(key: u128, len: u8) -> u128 {
    if len == 0 {
        0
    } else {
        key & (u128::MAX << (128 - len as u32))
    }
}

impl<T: Copy> Default for LpmTrie<T> {
    fn default() -> Self {
        LpmTrie {
            nodes: vec![Node::pseudo_root(), Node::pseudo_root()],
            len: 0,
        }
    }
}

impl<T: Copy> LpmTrie<T> {
    /// An empty trie.
    pub fn new() -> LpmTrie<T> {
        LpmTrie::default()
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Arena size in nodes (capacity diagnostics; bounded by `2·len + 2`).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn root_of(&self, v6: bool) -> usize {
        if v6 {
            ROOT_V6
        } else {
            ROOT_V4
        }
    }

    /// Insert (or replace) the value at `prefix`; returns the old value.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let (raw, plen) = prefix.key();
        let key = mask(raw, plen);
        let mut cur = self.root_of(prefix.is_v6());
        loop {
            let (nkey, nlen) = (self.nodes[cur].key, self.nodes[cur].len);
            let cpl = common_prefix(key, nkey).min(plen).min(nlen);
            if cpl < nlen {
                // The new prefix diverges inside this node's compressed
                // span: split at the divergence point. `cur` keeps its
                // identity (parent pointers stay valid) and becomes the
                // split node; the old contents move to a fresh child.
                let moved = self.nodes.len() as u32;
                let old_node = Node {
                    key: nkey,
                    len: nlen,
                    value: self.nodes[cur].value,
                    children: self.nodes[cur].children,
                };
                self.nodes.push(old_node);
                let split = &mut self.nodes[cur];
                split.key = mask(key, cpl);
                split.len = cpl;
                split.value = None;
                split.children = [NONE, NONE];
                split.children[bit_at(nkey, cpl)] = moved;
                if cpl == plen {
                    // The inserted prefix *is* the split point.
                    self.nodes[cur].value = Some(value);
                    self.len += 1;
                    return None;
                }
                let leaf = self.nodes.len() as u32;
                self.nodes.push(Node {
                    key,
                    len: plen,
                    value: Some(value),
                    children: [NONE, NONE],
                });
                self.nodes[cur].children[bit_at(key, cpl)] = leaf;
                self.len += 1;
                return None;
            }
            // This node's prefix covers the key.
            if plen == nlen {
                let old = self.nodes[cur].value.replace(value);
                if old.is_none() {
                    self.len += 1;
                }
                return old;
            }
            let b = bit_at(key, nlen);
            match self.nodes[cur].children[b] {
                NONE => {
                    let leaf = self.nodes.len() as u32;
                    self.nodes.push(Node {
                        key,
                        len: plen,
                        value: Some(value),
                        children: [NONE, NONE],
                    });
                    self.nodes[cur].children[b] = leaf;
                    self.len += 1;
                    return None;
                }
                c => cur = c as usize,
            }
        }
    }

    /// Longest-prefix-match: the most specific stored prefix containing
    /// `ip`, with its value.
    pub fn lookup(&self, ip: IpAddr) -> Option<(Prefix, T)> {
        let (key, width) = addr_key(ip);
        let mut cur = self.root_of(ip.is_ipv6());
        let mut best: Option<(u8, T)> = None;
        loop {
            let n = &self.nodes[cur];
            if common_prefix(key, n.key) < n.len {
                break;
            }
            if let Some(v) = n.value {
                best = Some((n.len, v));
            }
            if n.len >= width {
                break;
            }
            match n.children[bit_at(key, n.len)] {
                NONE => break,
                c => cur = c as usize,
            }
        }
        best.map(|(len, v)| (Prefix::new(ip, len), v))
    }

    /// The value at the most specific prefix covering `ip`, if any.
    pub fn get(&self, ip: IpAddr) -> Option<T> {
        self.lookup(ip).map(|(_, v)| v)
    }

    /// A cursor answering [`get`](Self::get) for addresses fed in
    /// ascending order, in O(n + m) over `n` addresses and `m` nodes.
    pub fn sweep(&self) -> LpmSweep<'_, T> {
        LpmSweep {
            trie: self,
            last: None,
            path: Vec::new(),
        }
    }
}

/// An address's left-aligned key and its family width.
#[inline]
fn addr_key(ip: IpAddr) -> (u128, u8) {
    match ip {
        IpAddr::V4(a) => (u128::from(u32::from(a)) << 96, 32),
        IpAddr::V6(a) => (u128::from(a), 128),
    }
}

/// A forward-only longest-prefix-match over ascending addresses.
///
/// [`LpmTrie::get`] walks from the root on every call. Ascending addresses
/// (a deduplicated source list, a sorted index) share most of each walk
/// with the previous one, so the cursor keeps the chain of nested nodes
/// covering the last address: the next address pops the nodes whose range
/// it has passed and pushes the ones it enters. A node is pushed at most
/// once, so `n` addresses over an `m`-node trie cost O(n + m) steps, in
/// the arena's key order. Answers equal [`LpmTrie::get`]'s (the proptests
/// hold the two equal).
pub struct LpmSweep<'a, T> {
    trie: &'a LpmTrie<T>,
    /// The previous address, for the ascending-order check.
    last: Option<IpAddr>,
    /// `(node, last key of its range, value of the most specific stored
    /// prefix at or above it)`, from the family root down.
    path: Vec<(u32, u128, Option<T>)>,
}

impl<T: Copy> LpmSweep<'_, T> {
    /// The value at the most specific prefix covering `ip`. Panics if `ip`
    /// sorts before the previous address in `IpAddr`'s order (every IPv4
    /// address before every IPv6 one).
    pub fn get(&mut self, ip: IpAddr) -> Option<T> {
        let prev = self.last.replace(ip);
        assert!(
            prev.is_none_or(|p| p <= ip),
            "LpmSweep: {ip} is below the previous address"
        );
        let (key, width) = addr_key(ip);
        if prev.map(|p| p.is_ipv6()) != Some(ip.is_ipv6()) {
            // The first address, or the first IPv6 one: start a chain at
            // the family root.
            let root = self.trie.root_of(ip.is_ipv6());
            self.path.clear();
            self.path
                .push((root as u32, u128::MAX, self.trie.nodes[root].value));
        }
        // The root's range ends at u128::MAX, so it is never popped.
        while self.path.last().is_some_and(|&(_, end, _)| key > end) {
            self.path.pop();
        }
        loop {
            let &(cur, _, best) = self.path.last().expect("the family root stays on the path");
            let n = &self.trie.nodes[cur as usize];
            if n.len >= width {
                break;
            }
            let c = n.children[bit_at(key, n.len)];
            if c == NONE {
                break;
            }
            let child = &self.trie.nodes[c as usize];
            if common_prefix(key, child.key) < child.len {
                break;
            }
            let end = child.key | u128::MAX.checked_shr(child.len as u32).unwrap_or(0);
            self.path.push((c, end, child.value.or(best)));
        }
        self.path.last().and_then(|&(_, _, best)| best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Asn;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn longest_match_wins() {
        let mut t = LpmTrie::new();
        t.insert(p("10.0.0.0/8"), Asn(100));
        t.insert(p("10.1.0.0/16"), Asn(200));
        t.insert(p("10.1.2.0/24"), Asn(300));
        assert_eq!(t.get(ip("10.9.9.9")), Some(Asn(100)));
        assert_eq!(t.get(ip("10.1.9.9")), Some(Asn(200)));
        assert_eq!(t.get(ip("10.1.2.9")), Some(Asn(300)));
        assert_eq!(t.get(ip("11.0.0.1")), None);
        let (pre, asn) = t.lookup(ip("10.1.2.3")).unwrap();
        assert_eq!(pre, p("10.1.2.0/24"));
        assert_eq!(asn, Asn(300));
    }

    #[test]
    fn families_are_independent() {
        let mut t = LpmTrie::new();
        t.insert(p("0.0.0.0/0"), 1u8);
        t.insert(p("2001:db8::/32"), 2);
        assert_eq!(t.get(ip("8.8.8.8")), Some(1));
        assert_eq!(t.get(ip("2001:db8::1")), Some(2));
        assert_eq!(t.get(ip("2600::1")), None);
    }

    #[test]
    fn split_point_handles_sibling_divergence() {
        let mut t = LpmTrie::new();
        // Two /24s diverging at bit 16 force a split node at /16.
        t.insert(p("192.0.2.0/24"), 1u8);
        t.insert(p("192.0.77.0/24"), 2);
        assert_eq!(t.get(ip("192.0.2.9")), Some(1));
        assert_eq!(t.get(ip("192.0.77.9")), Some(2));
        assert_eq!(t.get(ip("192.0.3.9")), None);
        // Now announce the split point itself.
        t.insert(p("192.0.0.0/16"), 3);
        assert_eq!(t.get(ip("192.0.3.9")), Some(3));
        assert_eq!(t.get(ip("192.0.2.9")), Some(1));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn insert_shorter_prefix_above_existing_leaf() {
        let mut t = LpmTrie::new();
        t.insert(p("10.1.2.0/24"), 1u8);
        // /8 is a strict prefix of the stored /24: split places the new
        // value at the intermediate node.
        t.insert(p("10.0.0.0/8"), 2);
        assert_eq!(t.get(ip("10.1.2.3")), Some(1));
        assert_eq!(t.get(ip("10.200.0.1")), Some(2));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn reinsert_replaces_and_returns_old() {
        let mut t = LpmTrie::new();
        assert_eq!(t.insert(p("192.0.2.0/24"), 5u8), None);
        assert_eq!(t.insert(p("192.0.2.0/24"), 9), Some(5));
        assert_eq!(t.get(ip("192.0.2.1")), Some(9));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn host_routes_match_exactly() {
        let mut t = LpmTrie::new();
        t.insert(p("192.0.2.7/32"), 1u8);
        t.insert(p("2001:db8::7/128"), 2);
        assert_eq!(t.get(ip("192.0.2.7")), Some(1));
        assert_eq!(t.get(ip("192.0.2.8")), None);
        assert_eq!(t.get(ip("2001:db8::7")), Some(2));
        assert_eq!(t.get(ip("2001:db8::8")), None);
    }

    #[test]
    fn default_route_matches_everything_v4() {
        let mut t = LpmTrie::new();
        t.insert(Prefix::v4_default(), 7u8);
        assert_eq!(t.get(ip("1.2.3.4")), Some(7));
        let (pre, _) = t.lookup(ip("1.2.3.4")).unwrap();
        assert_eq!(pre, Prefix::v4_default());
    }

    #[test]
    #[should_panic(expected = "below the previous address")]
    fn sweep_rejects_descending_addresses() {
        let mut t = LpmTrie::new();
        t.insert(p("10.0.0.0/8"), 1u8);
        let mut sweep = t.sweep();
        sweep.get(ip("10.0.0.2"));
        sweep.get(ip("10.0.0.1"));
    }

    #[test]
    #[should_panic(expected = "below the previous address")]
    fn sweep_rejects_v4_after_v6() {
        let t: LpmTrie<u8> = LpmTrie::new();
        let mut sweep = t.sweep();
        sweep.get(ip("2001:db8::1"));
        sweep.get(ip("10.0.0.1"));
    }

    #[test]
    fn node_arena_stays_compact() {
        let mut t = LpmTrie::new();
        for i in 0..64u32 {
            let addr = IpAddr::V4(std::net::Ipv4Addr::from(0x0A00_0000 | (i << 8)));
            t.insert(Prefix::new(addr, 24), i);
        }
        assert_eq!(t.len(), 64);
        assert!(
            t.node_count() <= 2 * t.len() + 2,
            "arena grew past the 2n+2 bound: {} nodes for {} prefixes",
            t.node_count(),
            t.len()
        );
    }
}
