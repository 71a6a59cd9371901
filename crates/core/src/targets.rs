//! Target extraction from the DITL root trace (§3.1).
//!
//! Pipeline, exactly as the paper describes:
//!
//! 1. take every source address seen at the root servers,
//! 2. de-duplicate,
//! 3. exclude IANA special-purpose addresses ("no legitimate entries in the
//!    public routing table" — the paper dropped ~4M),
//! 4. exclude addresses with no announced route (the paper dropped 36,027 —
//!    without a route there is no AS to derive other-prefix sources from),
//! 5. attribute each survivor to its origin ASN.

use bcd_netsim::prefix::special;
use bcd_netsim::{Asn, PrefixTable};
use bcd_worldgen::DitlRecord;
use std::collections::BTreeSet;
use std::net::IpAddr;

/// A target address with its origin AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Target {
    pub addr: IpAddr,
    pub asn: Asn,
}

/// The extracted target list plus exclusion accounting.
#[derive(Debug, Default)]
pub struct TargetSet {
    pub v4: Vec<Target>,
    pub v6: Vec<Target>,
    /// Unique addresses dropped as special-purpose.
    pub excluded_special: usize,
    /// Unique addresses dropped for lacking an announced route.
    pub excluded_unrouted: usize,
    /// Candidates rejected by [`TargetSet::from_candidates`] for violating
    /// the deduplicated-and-sorted contract (duplicates or out-of-order
    /// entries). Always 0 for a well-formed stream; non-zero means the
    /// producer is broken and would previously have double-counted targets
    /// in release builds.
    pub excluded_unsorted: usize,
}

impl TargetSet {
    /// Run the extraction pipeline over a DITL trace.
    pub fn extract(trace: &[DitlRecord], routes: &PrefixTable) -> TargetSet {
        let unique: BTreeSet<IpAddr> = trace.iter().map(|r| r.src).collect();
        let mut out = TargetSet::default();
        let mut origins = routes.origin_sweep();
        for addr in unique {
            out.push_source(addr, origins.get(addr));
        }
        out
    }

    /// Run the back half of the pipeline (steps 3–5) over an already
    /// deduplicated source list, as produced by the streaming DITL
    /// generator (`World::ditl_candidates`). Equivalent to [`Self::extract`] on
    /// the materialized trace: the stream dedupes and sorts, so only the
    /// exclusion/attribution steps remain.
    ///
    /// The dedup-and-sorted contract is enforced in release builds too: a
    /// duplicate or out-of-order candidate is rejected and counted in
    /// [`TargetSet::excluded_unsorted`] rather than silently inflating the
    /// target population (a broken producer used to get past the old
    /// `debug_assert!` and double-count).
    pub fn from_candidates(unique_sorted: &[IpAddr], routes: &PrefixTable) -> TargetSet {
        let mut out = TargetSet::default();
        let mut origins = routes.origin_sweep();
        let mut last: Option<IpAddr> = None;
        for &addr in unique_sorted {
            if last.is_some_and(|l| addr <= l) {
                out.excluded_unsorted += 1;
                continue;
            }
            last = Some(addr);
            out.push_source(addr, origins.get(addr));
        }
        debug_assert_eq!(
            out.excluded_unsorted, 0,
            "from_candidates fed an unsorted/duplicated stream"
        );
        out
    }

    /// Exclusion/attribution for one unique candidate (steps 3–5), given
    /// its origin AS.
    fn push_source(&mut self, addr: IpAddr, origin: Option<Asn>) {
        if special::is_special_purpose(addr) {
            self.excluded_special += 1;
            return;
        }
        let Some(asn) = origin else {
            self.excluded_unrouted += 1;
            return;
        };
        let t = Target { addr, asn };
        if addr.is_ipv6() {
            self.v6.push(t);
        } else {
            self.v4.push(t);
        }
    }

    /// Total targets across both families.
    pub fn len(&self) -> usize {
        self.v4.len() + self.v6.len()
    }

    /// True if no targets were extracted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All targets, v4 first.
    pub fn iter(&self) -> impl Iterator<Item = &Target> {
        self.v4.iter().chain(self.v6.iter())
    }

    /// The target at flat index `i` (v4 first, then v6 — the [`iter`]
    /// order). Because each family vec is sorted by address and `IpAddr`'s
    /// `Ord` places every v4 before every v6, the flat index is monotone in
    /// the target address: comparing indices is comparing addresses. The
    /// compact schedule leans on this to store a `u32` per probe instead of
    /// a 17-byte `IpAddr`.
    ///
    /// [`iter`]: TargetSet::iter
    pub fn get(&self, i: usize) -> Target {
        if i < self.v4.len() {
            self.v4[i]
        } else {
            self.v6[i - self.v4.len()]
        }
    }

    /// Distinct ASNs among v4 targets.
    pub fn asns_v4(&self) -> BTreeSet<Asn> {
        self.v4.iter().map(|t| t.asn).collect()
    }

    /// Distinct ASNs among v6 targets.
    pub fn asns_v6(&self) -> BTreeSet<Asn> {
        self.v6.iter().map(|t| t.asn).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcd_dnswire::Name;
    use bcd_netsim::{Prefix, SimTime};

    fn rec(src: &str) -> DitlRecord {
        DitlRecord {
            time: SimTime::ZERO,
            src: src.parse().unwrap(),
            src_port: 1234,
            qname: "q.example.com".parse::<Name>().unwrap(),
        }
    }

    fn routes() -> PrefixTable {
        let mut t = PrefixTable::new();
        t.announce("203.0.112.0/24".parse::<Prefix>().unwrap(), Asn(100));
        t.announce("2600:1::/32".parse::<Prefix>().unwrap(), Asn(200));
        t
    }

    #[test]
    fn pipeline_dedupes_and_excludes() {
        let trace = vec![
            rec("203.0.112.5"),
            rec("203.0.112.5"), // duplicate
            rec("203.0.112.9"), // second target, same AS
            rec("192.168.1.1"), // special: private
            rec("127.0.0.1"),   // special: loopback
            rec("8.8.8.8"),     // no route announced
            rec("2600:1::42"),  // v6 target
            rec("fc00::1"),     // special: ULA
        ];
        let set = TargetSet::extract(&trace, &routes());
        assert_eq!(set.v4.len(), 2);
        assert_eq!(set.v6.len(), 1);
        assert_eq!(set.excluded_special, 3);
        assert_eq!(set.excluded_unrouted, 1);
        assert_eq!(set.len(), 3);
        assert_eq!(set.v4[0].asn, Asn(100));
        assert_eq!(set.v6[0].asn, Asn(200));
        assert_eq!(set.asns_v4().len(), 1);
        assert_eq!(set.asns_v6().len(), 1);
    }

    #[test]
    fn empty_trace_yields_empty_set() {
        let set = TargetSet::extract(&[], &routes());
        assert!(set.is_empty());
        assert_eq!(set.iter().count(), 0);
    }

    #[test]
    fn flat_index_is_monotone_in_address() {
        let trace = vec![
            rec("203.0.112.9"),
            rec("203.0.112.5"),
            rec("2600:1::42"),
            rec("2600:1::7"),
        ];
        let set = TargetSet::extract(&trace, &routes());
        assert_eq!(set.len(), 4);
        for i in 1..set.len() {
            assert!(set.get(i - 1).addr < set.get(i).addr);
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "unsorted"))]
    fn from_candidates_rejects_duplicates_and_disorder() {
        // Release builds must reject rather than double-count; debug builds
        // additionally assert so the broken producer is caught in tests.
        let candidates: Vec<IpAddr> = vec![
            "203.0.112.5".parse().unwrap(),
            "203.0.112.5".parse().unwrap(), // duplicate
            "203.0.112.9".parse().unwrap(),
            "203.0.112.7".parse().unwrap(), // out of order
        ];
        let set = TargetSet::from_candidates(&candidates, &routes());
        assert_eq!(set.v4.len(), 2, "only the in-order unique survivors");
        assert_eq!(set.excluded_unsorted, 2);
    }

    #[test]
    fn from_candidates_accepts_well_formed_stream() {
        let candidates: Vec<IpAddr> = vec![
            "203.0.112.5".parse().unwrap(),
            "203.0.112.9".parse().unwrap(),
            "2600:1::42".parse().unwrap(),
        ];
        let set = TargetSet::from_candidates(&candidates, &routes());
        assert_eq!(set.excluded_unsorted, 0);
        assert_eq!(set.len(), 3);
    }
}
