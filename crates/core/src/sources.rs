//! Spoofed-source selection (§3.2).
//!
//! For each target we build up to 101 spoofed sources:
//!
//! * **other-prefix** — up to 97 addresses, one from each other /24 (IPv4)
//!   or /64 (IPv6) announced by the target's AS. The first and last
//!   address of a /24 are excluded (network/broadcast); IPv6 selection is
//!   restricted to the first 100 addresses of the /64 minus the first two
//!   (the hitlist-informed heuristic),
//! * **same-prefix** — one address from the target's own /24 or /64,
//!   distinct from the target,
//! * **private / unique-local** — `192.168.0.10` or `fc00::10`,
//! * **destination-as-source** — the target address itself,
//! * **loopback** — `127.0.0.1` or `::1`.

use bcd_netsim::{Packet, Prefix, PrefixTable};
use bcd_worldgen::Hitlist;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Maximum number of other-prefix sources per target (the paper's 97 —
/// chosen so the total came to "an even 100" before a fifth category was
/// added, footnote 2).
pub const MAX_OTHER_PREFIX: usize = 97;

/// The private-category source for IPv4 targets (RFC 1918).
const PRIVATE_V4: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 10);
/// The private-category source for IPv6 targets (unique-local `fc00::10`).
const PRIVATE_V6: Ipv6Addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 0x10);

/// The five §3.2 categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SourceCategory {
    OtherPrefix,
    SamePrefix,
    Private,
    DstAsSrc,
    Loopback,
}

impl SourceCategory {
    /// All categories in presentation order (Table 3 rows).
    pub const ALL: [SourceCategory; 5] = [
        SourceCategory::OtherPrefix,
        SourceCategory::SamePrefix,
        SourceCategory::Private,
        SourceCategory::DstAsSrc,
        SourceCategory::Loopback,
    ];
}

impl fmt::Display for SourceCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SourceCategory::OtherPrefix => "Other Prefix",
            SourceCategory::SamePrefix => "Same Prefix",
            SourceCategory::Private => "Private",
            SourceCategory::DstAsSrc => "Dst-as-Src",
            SourceCategory::Loopback => "Loopback",
        };
        f.write_str(s)
    }
}

/// The spoofed-source plan for one target.
#[derive(Debug, Clone)]
pub struct SourcePlan {
    pub target: IpAddr,
    /// `(category, spoofed source)` pairs, at most 101.
    pub sources: Vec<(SourceCategory, IpAddr)>,
}

impl SourcePlan {
    /// Build the plan for `target` from the announced routes of its AS,
    /// preferring IPv6 /64s that appear in `hitlist` — the §3.2 heuristic
    /// ("we gave preference to /64 prefixes that contained IPv6 addresses
    /// from an IPv6 hit list — a sign of observed activity within that
    /// prefix") that avoids blindly probing the sparse v6 space. The
    /// hitlist has no effect on IPv4 targets.
    ///
    /// The address draws come from an RNG seeded with a hash of `salt` and
    /// the canonical target bytes, so the plan depends only on
    /// `(salt, target, routes, hitlist)` — never on how many *other*
    /// targets were planned before this one. This is what lets each shard
    /// derive exactly its own targets' plans and still agree byte-for-byte
    /// with every other shard layout.
    pub fn build(target: IpAddr, routes: &PrefixTable, hitlist: &Hitlist, salt: u64) -> SourcePlan {
        let rng = &mut ChaCha8Rng::seed_from_u64(crate::hash::addr_hash(salt, target, b"plan"));
        let mut sources = Vec::with_capacity(101);
        let v6 = target.is_ipv6();
        let sub_len = if v6 { 64 } else { 24 };
        let own_subnet = Prefix::subprefix_of(target, sub_len);

        for p in other_prefixes(target, routes, hitlist) {
            sources.push((SourceCategory::OtherPrefix, pick_in_prefix(p, rng, None)));
        }

        // Same-prefix: an address in the target's own subnet, ≠ target.
        sources.push((
            SourceCategory::SamePrefix,
            pick_in_prefix(own_subnet, rng, Some(target)),
        ));

        // Private / unique-local.
        let private: IpAddr = if v6 {
            PRIVATE_V6.into()
        } else {
            PRIVATE_V4.into()
        };
        sources.push((SourceCategory::Private, private));

        // Destination-as-source.
        sources.push((SourceCategory::DstAsSrc, target));

        // Loopback.
        sources.push((SourceCategory::Loopback, Packet::loopback_addr(v6)));

        SourcePlan { target, sources }
    }

    /// The exact length [`SourcePlan::build`] would produce,
    /// without drawing any source addresses: the capped other-prefix count
    /// plus the four per-target categories. The census prepass calls this
    /// for every target to size lanes and the window extension before any
    /// schedule memory is allocated.
    pub fn planned_len(target: IpAddr, routes: &PrefixTable, hitlist: &Hitlist) -> usize {
        other_prefixes(target, routes, hitlist).len() + 4
    }

    /// Number of sources in the plan.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// True if the plan has no sources (cannot happen via [`SourcePlan::build`]).
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }
}

/// The capped other-prefix list for `target` (§3.2): hitlist-preferred
/// /64s first, then the AS's announced space divided into /24s or /64s,
/// spread-capped at [`MAX_OTHER_PREFIX`]. Shared by the plan builder
/// (which draws one source per prefix) and [`SourcePlan::planned_len`]
/// (which only counts) so the two can never disagree.
fn other_prefixes(target: IpAddr, routes: &PrefixTable, hitlist: &Hitlist) -> Vec<Prefix> {
    let v6 = target.is_ipv6();
    let sub_len = if v6 { 64 } else { 24 };
    let own_subnet = Prefix::subprefix_of(target, sub_len);
    let Some(asn) = routes.origin(target) else {
        return Vec::new();
    };
    let mut other: Vec<Prefix> = Vec::new();
    // Hitlist preference (IPv6 only): this AS's active /64s go in first,
    // before any blind enumeration — "we gave preference to /64 prefixes
    // that contained IPv6 addresses from an IPv6 hit list" (§3.2).
    if v6 {
        other.extend(
            hitlist
                .of_asn(asn)
                .iter()
                .filter(|&&h| h != own_subnet)
                .take(MAX_OTHER_PREFIX),
        );
    }
    let preferred: std::collections::HashSet<Prefix> = other.iter().copied().collect();
    // Divide the rest of the AS's space into /24s or /64s.
    'walk: for p in routes.prefixes_of(asn) {
        if p.is_v6() != v6 {
            continue;
        }
        for sub in p.subprefixes(sub_len) {
            if sub != own_subnet && !preferred.contains(&sub) {
                other.push(sub);
            }
            if other.len() >= MAX_OTHER_PREFIX * 4 {
                break 'walk;
            }
        }
    }
    // Cap at 97 prefixes with a deterministic spread over the
    // non-preferred tail (hitlist entries sit at the head and always
    // survive the cap).
    if other.len() > MAX_OTHER_PREFIX {
        let head = preferred.len().min(MAX_OTHER_PREFIX);
        let tail: Vec<Prefix> = other.split_off(head);
        let need = MAX_OTHER_PREFIX - head;
        if let Some(step) = tail.len().checked_div(need) {
            let step = step.max(1);
            other.extend(tail.into_iter().step_by(step).take(need));
        }
    }
    other
}

/// Classify an observed (spoofed) source relative to its target — the
/// inverse of planning, used by the analysis side which only sees the
/// `src`/`dst` labels recovered from query names.
pub fn classify_source(src: IpAddr, dst: IpAddr, routes: &PrefixTable) -> Option<SourceCategory> {
    use bcd_netsim::prefix::special;
    if special::is_loopback(src) {
        return Some(SourceCategory::Loopback);
    }
    if src == dst {
        return Some(SourceCategory::DstAsSrc);
    }
    if special::is_private_or_ula(src) {
        return Some(SourceCategory::Private);
    }
    if src.is_ipv6() == dst.is_ipv6() {
        let sub = if dst.is_ipv6() { 64 } else { 24 };
        if Prefix::subprefix_of(dst, sub).contains(src) {
            return Some(SourceCategory::SamePrefix);
        }
    }
    match (routes.origin(src), routes.origin(dst)) {
        (Some(a), Some(b)) if a == b => Some(SourceCategory::OtherPrefix),
        _ => None,
    }
}

/// A random usable address inside `prefix`, avoiding `exclude` and the
/// first/last addresses (IPv4 network/broadcast; IPv6 router addresses per
/// the paper's "first two" rule), and restricted to the first 100 hosts of
/// an IPv6 /64.
fn pick_in_prefix(prefix: Prefix, rng: &mut ChaCha8Rng, exclude: Option<IpAddr>) -> IpAddr {
    let (lo, hi): (u128, u128) = if prefix.is_v6() {
        (2, 99)
    } else {
        (1, prefix.size().saturating_sub(2))
    };
    for _ in 0..64 {
        let i = rng.gen_range(lo..=hi.max(lo));
        let addr = prefix.nth(i).expect("offset inside prefix");
        if Some(addr) != exclude {
            return addr;
        }
    }
    // Degenerate fallback (a /31-like prefix with the target in it).
    prefix.nth(lo).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcd_netsim::Asn;

    const SALT: u64 = 3;

    fn routes_with(prefixes: &[&str], asn: u32) -> PrefixTable {
        let mut t = PrefixTable::new();
        for p in prefixes {
            t.announce(p.parse().unwrap(), Asn(asn));
        }
        t
    }

    #[test]
    fn v4_plan_has_all_categories() {
        let routes = routes_with(&["203.0.112.0/22"], 7); // 4 /24s
        let target: IpAddr = "203.0.112.10".parse().unwrap();
        let plan = SourcePlan::build(target, &routes, &Hitlist::default(), SALT);
        let count = |c: SourceCategory| plan.sources.iter().filter(|(k, _)| *k == c).count();
        assert_eq!(count(SourceCategory::OtherPrefix), 3); // 4 /24s minus own
        assert_eq!(count(SourceCategory::SamePrefix), 1);
        assert_eq!(count(SourceCategory::Private), 1);
        assert_eq!(count(SourceCategory::DstAsSrc), 1);
        assert_eq!(count(SourceCategory::Loopback), 1);
        assert_eq!(plan.len(), 7);

        // Category semantics.
        for (cat, src) in &plan.sources {
            match cat {
                SourceCategory::OtherPrefix => {
                    assert!(!Prefix::subprefix_of(target, 24).contains(*src));
                    assert_eq!(routes.origin(*src), Some(Asn(7)));
                }
                SourceCategory::SamePrefix => {
                    assert!(Prefix::subprefix_of(target, 24).contains(*src));
                    assert_ne!(*src, target);
                }
                SourceCategory::Private => assert_eq!(src.to_string(), "192.168.0.10"),
                SourceCategory::DstAsSrc => assert_eq!(*src, target),
                SourceCategory::Loopback => assert_eq!(src.to_string(), "127.0.0.1"),
            }
        }
    }

    #[test]
    fn other_prefix_capped_at_97() {
        // A /14 has 1024 /24s; the plan must cap at 97.
        let routes = routes_with(&["16.0.0.0/14"], 9);
        let target: IpAddr = "16.0.0.5".parse().unwrap();
        let plan = SourcePlan::build(target, &routes, &Hitlist::default(), SALT);
        let other = plan
            .sources
            .iter()
            .filter(|(k, _)| *k == SourceCategory::OtherPrefix)
            .count();
        assert_eq!(other, MAX_OTHER_PREFIX);
        assert_eq!(plan.len(), 101, "the paper's 'at most 101 sources'");
    }

    #[test]
    fn v4_avoids_network_and_broadcast() {
        let routes = routes_with(&["203.0.112.0/23"], 7);
        let target: IpAddr = "203.0.112.10".parse().unwrap();
        for salt in 0..50 {
            let plan = SourcePlan::build(target, &routes, &Hitlist::default(), salt);
            for (_, src) in &plan.sources {
                if let IpAddr::V4(a) = src {
                    let last = a.octets()[3];
                    if Prefix::subprefix_of(*src, 24).contains(*src)
                        && routes.origin(*src).is_some()
                    {
                        assert_ne!(last, 0, "network address used");
                        assert_ne!(last, 255, "broadcast address used");
                    }
                }
            }
        }
    }

    #[test]
    fn v6_plan_uses_first_hundred_minus_two() {
        let routes = routes_with(&["2600:9::/48"], 11); // 65536 /64s -> cap 97
        let target: IpAddr = "2600:9:0:5::42".parse().unwrap();
        let plan = SourcePlan::build(target, &routes, &Hitlist::default(), SALT);
        let mut other = 0;
        for (cat, src) in &plan.sources {
            match cat {
                SourceCategory::OtherPrefix | SourceCategory::SamePrefix => {
                    let sub = Prefix::subprefix_of(*src, 64);
                    let idx = sub.index_of(*src).unwrap();
                    assert!((2..100).contains(&idx), "v6 host offset {idx}");
                    if *cat == SourceCategory::OtherPrefix {
                        other += 1;
                    }
                }
                SourceCategory::Private => assert_eq!(src.to_string(), "fc00::10"),
                SourceCategory::Loopback => assert_eq!(src.to_string(), "::1"),
                SourceCategory::DstAsSrc => assert_eq!(*src, target),
            }
        }
        assert_eq!(other, MAX_OTHER_PREFIX);
    }

    #[test]
    fn unrouted_target_still_gets_non_prefix_categories() {
        let routes = PrefixTable::new();
        let target: IpAddr = "203.0.112.10".parse().unwrap();
        let plan = SourcePlan::build(target, &routes, &Hitlist::default(), SALT);
        // No other-prefix sources, but the rest are present.
        assert_eq!(plan.len(), 4);
        assert!(plan
            .sources
            .iter()
            .all(|(k, _)| *k != SourceCategory::OtherPrefix));
    }

    #[test]
    fn planned_len_matches_built_plan() {
        let cases: &[(&[&str], &str)] = &[
            (&["203.0.112.0/22"], "203.0.112.10"),
            (&["16.0.0.0/14"], "16.0.0.5"),
            (&["2600:9::/48"], "2600:9:0:5::42"),
            (&[], "203.0.112.10"),
        ];
        for (prefixes, target) in cases {
            let routes = routes_with(prefixes, 7);
            let target: IpAddr = target.parse().unwrap();
            let plan = SourcePlan::build(target, &routes, &Hitlist::default(), SALT);
            assert_eq!(
                SourcePlan::planned_len(target, &routes, &Hitlist::default()),
                plan.len(),
                "census length must equal built length for {target}"
            );
        }

        // IPv6 with a hitlist: AS 7's /48 holds AS 8's more-specific /56.
        // The hitlists cover a few same-AS /64s, the target's own /64 plus
        // more than 97 same-AS entries plus some of the /56, and the /56
        // alone.
        let mut routes = routes_with(&["2600:9::/48"], 7);
        routes.announce("2600:9:0:100::/56".parse().unwrap(), Asn(8));
        let hit = |ids: std::ops::Range<u16>| -> Vec<Prefix> {
            ids.map(|i| Prefix::new(Ipv6Addr::new(0x2600, 9, 0, i, 0, 0, 0, 0).into(), 64))
                .collect()
        };
        for ids in [3..8, 0..300, 0x100..0x140] {
            let hitlist = Hitlist::new(hit(ids), &routes);
            for target in ["2600:9:0:5::42", "2600:9:0:105::42"] {
                let target: IpAddr = target.parse().unwrap();
                let plan = SourcePlan::build(target, &routes, &hitlist, SALT);
                assert_eq!(
                    SourcePlan::planned_len(target, &routes, &hitlist),
                    plan.len(),
                    "census length must equal built length for {target}"
                );
            }
        }
    }

    #[test]
    fn deterministic_build_independent_of_context() {
        // The whole point: the plan depends only on (salt, target), not on
        // any shared RNG stream position — two "shards" planning different
        // subsets agree on the shared target.
        let routes = routes_with(&["16.0.0.0/14"], 9);
        let target: IpAddr = "16.0.1.5".parse().unwrap();
        let a = SourcePlan::build(target, &routes, &Hitlist::default(), 42);
        // Plan other targets "first" — no effect on the shared target.
        let _ = SourcePlan::build(
            "16.0.2.9".parse().unwrap(),
            &routes,
            &Hitlist::default(),
            42,
        );
        let b = SourcePlan::build(target, &routes, &Hitlist::default(), 42);
        assert_eq!(a.sources, b.sources);
        let c = SourcePlan::build(target, &routes, &Hitlist::default(), 43);
        assert_ne!(a.sources, c.sources, "salt must matter");
    }

    #[test]
    fn same_prefix_never_equals_target() {
        let routes = routes_with(&["203.0.112.0/24"], 7);
        let target: IpAddr = "203.0.112.10".parse().unwrap();
        for salt in 0..200 {
            let plan = SourcePlan::build(target, &routes, &Hitlist::default(), salt);
            let same = plan
                .sources
                .iter()
                .find(|(k, _)| *k == SourceCategory::SamePrefix)
                .unwrap();
            assert_ne!(same.1, target);
        }
    }
}
