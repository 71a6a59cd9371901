//! Reachability: who did our spoofed queries reach? (§4, with the §3.6
//! methodology corrections applied.)
//!
//! A target is **reachable** if at least one query carrying its `dst` label
//! arrived at our authoritative servers within the lifetime threshold. An
//! AS **lacks DSAV** if at least one of its targets is reachable.

use crate::analysis::AnalysisInput;
use crate::qname::{Decoded, SuffixKind};
use crate::sources::{classify_source, SourceCategory};
use bcd_netsim::{Asn, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::IpAddr;

/// Per-target reachability evidence.
#[derive(Debug, Clone)]
pub struct TargetHit {
    pub asn: Asn,
    /// Source categories that produced at least one on-time hit.
    pub categories: BTreeSet<SourceCategory>,
    /// Spoofed source addresses that worked.
    pub sources: BTreeSet<IpAddr>,
    /// First on-time hit.
    pub first_time: SimTime,
    /// At least one recursive-to-authoritative query came *directly* from
    /// the target address.
    pub direct: bool,
    /// At least one came from a different address (a forwarder/upstream).
    pub via_other: bool,
}

/// QNAME-minimization accounting (§3.6.4).
#[derive(Debug, Default, Clone)]
pub struct QminStats {
    /// Distinct client addresses that sent minimized (partial) queries.
    pub partial_sources: BTreeSet<IpAddr>,
    /// Their origin ASNs.
    pub partial_asns: BTreeSet<Asn>,
    /// Partial-only resolvers: sent minimized queries but never a full
    /// QNAME — these targets are excluded from reachability (the paper's
    /// 9,898).
    pub partial_only_sources: BTreeSet<IpAddr>,
}

/// Lifetime-filter accounting (§3.6.3).
#[derive(Debug, Default, Clone)]
pub struct LifetimeStats {
    /// Targets whose *only* evidence exceeded the threshold, by family.
    pub excluded_addrs_v4: usize,
    pub excluded_addrs_v6: usize,
    /// ASes with late-only evidence.
    pub excluded_asns: BTreeSet<Asn>,
    /// Of those, ASes rescued by other on-time resolvers.
    pub rescued_asns: BTreeSet<Asn>,
    /// Total late (discarded) log entries.
    pub late_entries: u64,
}

/// The reachability report.
#[derive(Debug, Default)]
pub struct Reachability {
    /// On-time-reached targets.
    pub reached: HashMap<IpAddr, TargetHit>,
    pub qmin: QminStats,
    pub lifetime: LifetimeStats,
    /// Late-only candidates (dst → asn), before rescue accounting.
    late_only: BTreeMap<IpAddr, Asn>,
}

impl Reachability {
    /// Run the analysis.
    pub fn compute(input: &AnalysisInput<'_>) -> Reachability {
        let mut r = Reachability::default();
        for entry in input.log {
            match input.codec.decode(&entry.qname) {
                Decoded::Full(tag) if tag.suffix == SuffixKind::Main => {
                    // Open-resolver probes carry our real source; they are
                    // §5.1 evidence, not reachability evidence.
                    if input.is_scanner(tag.src) {
                        continue;
                    }
                    let lifetime = entry.time.saturating_since(tag.ts);
                    if lifetime > super::LIFETIME_THRESHOLD {
                        r.lifetime.late_entries += 1;
                        r.late_only.entry(tag.dst).or_insert(Asn(tag.asn));
                        continue;
                    }
                    let hit = r.reached.entry(tag.dst).or_insert_with(|| TargetHit {
                        asn: Asn(tag.asn),
                        categories: BTreeSet::new(),
                        sources: BTreeSet::new(),
                        first_time: entry.time,
                        direct: false,
                        via_other: false,
                    });
                    hit.first_time = hit.first_time.min(entry.time);
                    hit.sources.insert(tag.src);
                    if let Some(cat) = classify_source(tag.src, tag.dst, input.routes) {
                        hit.categories.insert(cat);
                    }
                    if entry.src == tag.dst {
                        hit.direct = true;
                    } else {
                        hit.via_other = true;
                    }
                }
                Decoded::Full(_) => {} // follow-up zones: other analyses
                Decoded::Partial { .. } => {
                    r.qmin.partial_sources.insert(entry.src);
                    if let Some(asn) = input.routes.origin(entry.src) {
                        r.qmin.partial_asns.insert(asn);
                    }
                }
                Decoded::Foreign => {}
            }
        }

        // Partial-only resolvers: minimized but never completed.
        for src in &r.qmin.partial_sources {
            if !r.reached.contains_key(src) {
                r.qmin.partial_only_sources.insert(*src);
            }
        }

        // Lifetime exclusions: late-only targets, with AS rescue check.
        let reached_asns: BTreeSet<Asn> = r.reached.values().map(|h| h.asn).collect();
        for (addr, asn) in &r.late_only {
            if r.reached.contains_key(addr) {
                continue; // the target itself had on-time evidence
            }
            if addr.is_ipv6() {
                r.lifetime.excluded_addrs_v6 += 1;
            } else {
                r.lifetime.excluded_addrs_v4 += 1;
            }
            r.lifetime.excluded_asns.insert(*asn);
            if reached_asns.contains(asn) {
                r.lifetime.rescued_asns.insert(*asn);
            }
        }
        r
    }

    /// Reached targets of one family.
    pub fn reached_addrs(&self, v6: bool) -> impl Iterator<Item = IpAddr> + '_ {
        self.reached
            .keys()
            .copied()
            .filter(move |a| a.is_ipv6() == v6)
    }

    /// Count of reached targets in one family.
    pub fn reached_count(&self, v6: bool) -> usize {
        self.reached_addrs(v6).count()
    }

    /// ASes with at least one reached target, one family.
    pub fn reached_asns(&self, v6: bool) -> BTreeSet<Asn> {
        self.reached
            .iter()
            .filter(|(a, _)| a.is_ipv6() == v6)
            .map(|(_, h)| h.asn)
            .collect()
    }

    /// ASes with at least one reached target, both families.
    pub fn reached_asns_all(&self) -> BTreeSet<Asn> {
        self.reached.values().map(|h| h.asn).collect()
    }
}

/// §3.6.1 middlebox attribution for reached ASes: per AS, did any
/// recursive-to-authoritative query come directly from inside the AS? If
/// not, did the queries come from known public DNS services?
#[derive(Debug, Default)]
pub struct MiddleboxReport {
    pub direct_asns: BTreeSet<Asn>,
    pub public_dns_only_asns: BTreeSet<Asn>,
    pub other_only_asns: BTreeSet<Asn>,
}

impl MiddleboxReport {
    /// Classify every reached AS.
    pub fn compute(input: &AnalysisInput<'_>, reach: &Reachability) -> MiddleboxReport {
        // Per AS: the set of authoritative-side client addresses observed
        // for that AS's targets.
        let mut per_as: BTreeMap<Asn, (bool, bool)> = BTreeMap::new(); // (direct, public)
        for entry in input.log {
            if let Decoded::Full(tag) = input.codec.decode(&entry.qname) {
                if tag.suffix != SuffixKind::Main || input.is_scanner(tag.src) {
                    continue;
                }
                if !reach.reached.contains_key(&tag.dst) {
                    continue;
                }
                let asn = Asn(tag.asn);
                let slot = per_as.entry(asn).or_insert((false, false));
                if input.routes.origin(entry.src) == Some(asn) {
                    slot.0 = true;
                } else if input.public_dns.contains(&entry.src) {
                    slot.1 = true;
                }
            }
        }
        let mut report = MiddleboxReport::default();
        for (asn, (direct, public)) in per_as {
            if direct {
                report.direct_asns.insert(asn);
            } else if public {
                report.public_dns_only_asns.insert(asn);
            } else {
                report.other_only_asns.insert(asn);
            }
        }
        report
    }
}
