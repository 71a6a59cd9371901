//! The IPv6 hitlist (§3.2), grouped by origin AS.
//!
//! The paper prefers IPv6 other-prefix sources from /64s that appear on an
//! IPv6 hitlist. A target only ever wants the hitlist /64s of its own AS,
//! so the list is stored grouped by origin AS: planning one target is a
//! binary search over the ASes instead of an LPM lookup per hitlist entry.

use bcd_netsim::{Asn, Prefix, PrefixTable};

/// Hitlist /64s grouped by the origin AS of their network address.
///
/// There is one copy of the entries, ordered by `(origin, prefix)`, so
/// each AS's group is a contiguous slice in prefix order.
#[derive(Debug, Default)]
pub struct Hitlist {
    /// Every kept /64, ordered by origin AS, then by prefix.
    entries: Vec<Prefix>,
    /// `(origin, end)` per AS in ascending ASN order: the AS's group is
    /// `entries[previous end..end]`.
    groups: Vec<(Asn, usize)>,
}

impl Hitlist {
    /// Keep the IPv6 /64s of `prefixes`, dedup them, and group them by
    /// `routes.origin(network)`. Entries no route covers are dropped.
    pub fn new(mut prefixes: Vec<Prefix>, routes: &PrefixTable) -> Hitlist {
        // Same-length IPv6 prefixes sort by network address, so one sweep
        // answers every distinct /64's origin.
        prefixes.retain(|p| p.is_v6() && p.len() == 64);
        prefixes.sort_unstable();
        prefixes.dedup();
        let mut origins = routes.origin_sweep();
        let mut keyed: Vec<(Asn, Prefix)> = prefixes
            .into_iter()
            .filter_map(|p| origins.get(p.network()).map(|asn| (asn, p)))
            .collect();
        keyed.sort_unstable();
        let mut groups: Vec<(Asn, usize)> = Vec::new();
        for (i, (asn, _)) in keyed.iter().enumerate() {
            match groups.last_mut() {
                Some((last, end)) if last == asn => *end = i + 1,
                _ => groups.push((*asn, i + 1)),
            }
        }
        let entries = keyed.into_iter().map(|(_, p)| p).collect();
        Hitlist { entries, groups }
    }

    /// The hitlist /64s whose network address `asn` originates, in prefix
    /// order. Empty for an AS with none.
    pub fn of_asn(&self, asn: Asn) -> &[Prefix] {
        let Ok(i) = self.groups.binary_search_by_key(&asn, |&(a, _)| a) else {
            return &[];
        };
        let start = if i == 0 { 0 } else { self.groups[i - 1].1 };
        &self.entries[start..self.groups[i].1]
    }

    /// Number of kept /64s across every AS.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no /64 was kept.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(routes: &[(&str, u32)]) -> PrefixTable {
        let mut t = PrefixTable::new();
        for (p, asn) in routes {
            t.announce(p.parse().unwrap(), Asn(*asn));
        }
        t
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn groups_by_origin_in_prefix_order() {
        // AS 7's /48 contains a more-specific /56 announced by AS 9.
        let routes = table(&[
            ("2600:7::/48", 7),
            ("2600:7:0:100::/56", 9),
            ("16.0.0.0/8", 7),
        ]);
        let h = Hitlist::new(
            vec![
                p("2600:7:0:5::/64"),
                p("2600:7:0:101::/64"),
                p("2600:7:0:2::/64"),
                p("2600:7:0:5::/64"),   // duplicate
                p("2600:7::/56"),       // not a /64
                p("16.0.1.0/24"),       // IPv4
                p("2600:dead::/64"),    // no origin
                p("2600:7:0:1ff::/64"), // AS 9's /56
            ],
            &routes,
        );
        assert_eq!(
            h.of_asn(Asn(7)),
            &[p("2600:7:0:2::/64"), p("2600:7:0:5::/64")]
        );
        assert_eq!(
            h.of_asn(Asn(9)),
            &[p("2600:7:0:101::/64"), p("2600:7:0:1ff::/64")]
        );
        assert!(h.of_asn(Asn(8)).is_empty());
        assert_eq!(h.len(), 4);
    }
}
