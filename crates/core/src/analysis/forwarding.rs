//! Forwarding detection — §5.4.
//!
//! For each target with follow-up data, compare the authoritative-side
//! query source against the `dst` label: equality means the target resolves
//! directly; a different source means it forwards to an upstream. A target
//! can legitimately appear in both sets (the paper found 3,178 IPv4 and 219
//! IPv6 such targets).

use crate::analysis::AnalysisInput;
use crate::qname::{Decoded, SuffixKind};
use std::collections::{BTreeMap, BTreeSet};
use std::net::IpAddr;

/// The §5.4 report, per family.
#[derive(Debug, Default)]
pub struct ForwardingReport {
    pub direct_v4: BTreeSet<IpAddr>,
    pub direct_v6: BTreeSet<IpAddr>,
    pub forwarded_v4: BTreeSet<IpAddr>,
    pub forwarded_v6: BTreeSet<IpAddr>,
    /// Targets in both sets.
    pub both_v4: usize,
    pub both_v6: usize,
    /// Distinct upstream addresses observed for forwarded targets.
    pub upstreams: BTreeSet<IpAddr>,
}

impl ForwardingReport {
    /// Analyze all follow-up responses (the paper relies on the IPv4-/
    /// IPv6-only zones so every resolution is attributable).
    pub fn compute(input: &AnalysisInput<'_>) -> ForwardingReport {
        let mut r = ForwardingReport::default();
        let mut seen: BTreeMap<IpAddr, (bool, bool)> = BTreeMap::new(); // dst -> (direct, fwd)
        for entry in input.log {
            let Decoded::Full(tag) = input.codec.decode(&entry.qname) else {
                continue;
            };
            // Use only the follow-up zone matching the target's family —
            // the reason the paper delegated v4-only and v6-only zones: a
            // dual-stack resolver answering a cross-family zone from its
            // other address is not forwarding.
            let family_matched = matches!(
                (tag.suffix, tag.dst.is_ipv6()),
                (SuffixKind::F4, false) | (SuffixKind::F6, true)
            );
            if !family_matched {
                continue;
            }
            // Drop referral-stage queries observed at the dual-stack parent
            // zone: only queries that reached the single-family f4/f6
            // servers themselves are family-attributable.
            if entry.server.is_ipv6() != (tag.suffix == SuffixKind::F6) {
                continue;
            }
            if entry.time.saturating_since(tag.ts) > super::LIFETIME_THRESHOLD {
                continue;
            }
            let slot = seen.entry(tag.dst).or_insert((false, false));
            if entry.src == tag.dst {
                slot.0 = true;
            } else {
                slot.1 = true;
                r.upstreams.insert(entry.src);
            }
        }
        for (dst, (direct, fwd)) in seen {
            let v6 = dst.is_ipv6();
            if direct {
                if v6 {
                    r.direct_v6.insert(dst);
                } else {
                    r.direct_v4.insert(dst);
                }
            }
            if fwd {
                if v6 {
                    r.forwarded_v6.insert(dst);
                } else {
                    r.forwarded_v4.insert(dst);
                }
            }
            if direct && fwd {
                if v6 {
                    r.both_v6 += 1;
                } else {
                    r.both_v4 += 1;
                }
            }
        }
        r
    }

    /// Fraction of v4 targets resolving directly (of those with data).
    pub fn direct_fraction_v4(&self) -> f64 {
        let total = self.resolved_v4();
        if total == 0 {
            0.0
        } else {
            self.direct_v4.len() as f64 / total as f64
        }
    }

    /// Fraction of v6 targets resolving directly.
    pub fn direct_fraction_v6(&self) -> f64 {
        let total = self.resolved_v6();
        if total == 0 {
            0.0
        } else {
            self.direct_v6.len() as f64 / total as f64
        }
    }

    /// v4 targets with any follow-up resolution evidence.
    pub fn resolved_v4(&self) -> usize {
        self.direct_v4.union(&self.forwarded_v4).count()
    }

    /// v6 targets with any follow-up resolution evidence.
    pub fn resolved_v6(&self) -> usize {
        self.direct_v6.union(&self.forwarded_v6).count()
    }
}
