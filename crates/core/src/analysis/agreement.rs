//! Cross-method validation: the AS-level agreement matrix between the
//! paper's outbound survey (method A) and the Closed-Resolver-Project
//! inbound scan (method B, [`crate::crp`]).
//!
//! Unlike every other analysis in this tree, this module performs an
//! **explicit validation join against generator ground truth**: both
//! methods' per-AS verdicts are scored against an oracle derived from the
//! world's rolled border policies and resolver registry
//! ([`expected_open`]). The oracle answers "which ASes *should* a correct
//! implementation of this methodology observe as open?" — which is the
//! strongest soundness statement a simulated survey can make. The
//! observable-only contract still holds for the verdicts themselves:
//! [`internal_open_asns`] and [`crp_open_asns`] read nothing but the two
//! query logs.
//!
//! Verdicts are deliberately like-for-like: both methods count an AS as
//! **open** when at least one probe in an *internal* source category
//! ([`crate::crp::CRP_CATEGORIES`]) produced an on-time, full-QNAME hit at
//! our authoritative servers. Loopback and private categories measure
//! bogon filtering, not inbound SAV, so they are out of scope for both
//! sides of the matrix.

use crate::analysis::reachability::Reachability;
use crate::crp::{CrpData, CRP_CATEGORIES};
use crate::qname::{Decoded, SuffixKind};
use crate::schedule::keeps_target;
use crate::sources::{classify_source, SourceCategory, SourcePlan};
use crate::targets::TargetSet;
use bcd_netsim::{stream_seed, subnet_permille, Asn, PrefixTable};
use bcd_worldgen::{AclKind, World};
use std::collections::BTreeSet;

/// Method A's per-AS verdict: ASes with at least one on-time reached
/// target whose evidence includes an internal source category.
pub fn internal_open_asns(reach: &Reachability) -> BTreeSet<Asn> {
    reach
        .reached
        .values()
        .filter(|hit| hit.categories.iter().any(|c| CRP_CATEGORIES.contains(c)))
        .map(|hit| hit.asn)
        .collect()
}

/// Method B's per-AS verdict, from the CRP pass's own log. Symmetric with
/// method A's rules: `Main`-suffix full decodes only, the same lifetime
/// threshold, internal categories only (the CRP schedule sends nothing
/// else, but the filter keeps the verdict self-contained).
pub fn crp_open_asns(b: &CrpData, routes: &PrefixTable) -> BTreeSet<Asn> {
    let mut open = BTreeSet::new();
    for entry in &b.entries {
        if let Decoded::Full(tag) = b.codec.decode(&entry.qname) {
            if tag.suffix != SuffixKind::Main {
                continue;
            }
            if entry.time.saturating_since(tag.ts) > super::LIFETIME_THRESHOLD {
                continue;
            }
            match classify_source(tag.src, tag.dst, routes) {
                Some(cat) if CRP_CATEGORIES.contains(&cat) => {
                    open.insert(Asn(tag.asn));
                }
                _ => {}
            }
        }
    }
    open
}

/// The matrix universe: every AS with at least one target kept by the
/// run's deterministic subsample. ASes the schedule never probed would
/// trivially agree-closed and inflate the agreement rate.
pub fn universe_asns(targets: &TargetSet, salt: u64, sample: Option<u64>) -> BTreeSet<Asn> {
    targets
        .iter()
        .filter(|t| keeps_target(salt, sample, t.addr))
        .map(|t| t.asn)
        .collect()
}

/// The ground-truth oracle: which ASes should a correct run observe as
/// open to internal-category spoofs?
///
/// Replays the generator's own decision procedure over exactly the probes
/// the schedule derives — the same deterministic source plans, the same
/// subsample — against the rolled border policy and resolver registry:
///
/// 1. an AS with full DSAV drops every internal-source spoof at the
///    border — expected closed, no matter what its resolvers would do;
/// 2. per remaining probe, the border may still drop it: the v4
///    destination-as-source martian ACL, subnet-granular SAVI (covers
///    same-prefix *and* dst-as-src claims), or the partial internal-SAV
///    permille bucket (other-prefix subnets only — the destination's own
///    subnet is always feasible);
/// 3. a transparent interceptor grabs surviving v4 UDP/53 regardless of
///    target liveness and proxies with the full QNAME — evidence; v6
///    probes are grabbed and dropped by the v4-only middlebox;
/// 4. otherwise the target host must exist and be live, its OS stack must
///    accept destination-as-source packets for that claim, its ACL must
///    admit the category, and the resolution must carry the full QNAME to
///    our servers (forwarders always do; halting QNAME-minimizers never
///    do against an NXDOMAIN zone).
pub fn expected_open(
    world: &World,
    targets: &TargetSet,
    salt: u64,
    sample: Option<u64>,
    wildcard_zone: bool,
) -> BTreeSet<Asn> {
    let routes = world.topo.routes();
    let mut open = BTreeSet::new();
    for t in targets.iter() {
        if open.contains(&t.asn) || !keeps_target(salt, sample, t.addr) {
            continue;
        }
        let Some(info) = world.as_info(t.asn) else {
            continue;
        };
        let policy = info.policy;
        if policy.dsav {
            continue;
        }
        let interceptor = info.dns_interceptor.is_some();
        let v6 = t.addr.is_ipv6();
        let meta = world.meta_of(t.addr);
        let plan = SourcePlan::build(t.addr, routes, &world.v6_hitlist, salt);
        for (cat, src) in &plan.sources {
            if !CRP_CATEGORIES.contains(cat) {
                continue;
            }
            // Border filters, in engine order.
            match cat {
                SourceCategory::DstAsSrc => {
                    if (!v6 && policy.filter_ds_ingress_v4) || policy.subnet_savi {
                        continue;
                    }
                }
                SourceCategory::SamePrefix => {
                    if policy.subnet_savi {
                        continue;
                    }
                }
                SourceCategory::OtherPrefix => {
                    if policy.internal_pass_permille < 1000
                        && subnet_permille(t.asn, *src) >= policy.internal_pass_permille as u64
                    {
                        continue;
                    }
                }
                _ => unreachable!("CRP categories are internal"),
            }
            if interceptor {
                if !v6 {
                    open.insert(t.asn);
                    break;
                }
                continue;
            }
            let Some(meta) = meta else {
                continue; // not in the registry: nothing answers
            };
            if !meta.live {
                continue;
            }
            if *cat == SourceCategory::DstAsSrc && !meta.os.stack_policy().accepts(true, false, v6)
            {
                continue;
            }
            let admits = match meta.acl {
                AclKind::Open | AclKind::AsWide | AclKind::AsWidePlusPrivate => true,
                AclKind::SameSubnet => {
                    matches!(cat, SourceCategory::SamePrefix | SourceCategory::DstAsSrc)
                }
                AclKind::SelfOnly => *cat == SourceCategory::DstAsSrc,
                AclKind::PrivateOnly | AclKind::LocalhostOnly | AclKind::NoMatch => false,
            };
            if !admits {
                continue;
            }
            // Full-QNAME evidence at our servers.
            if meta.forwards || !(meta.qmin && meta.qmin_halts && !wildcard_zone) {
                open.insert(t.asn);
                break;
            }
        }
    }
    open
}

/// The AS-by-AS agreement matrix, scored against ground truth.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct AgreementMatrix {
    /// Number of ASes in the comparison universe.
    pub universe: usize,
    /// Both methods observed the AS open.
    pub agree_open: BTreeSet<Asn>,
    /// Neither method observed the AS open.
    pub agree_closed: BTreeSet<Asn>,
    /// Only the outbound survey observed the AS open.
    pub a_only: BTreeSet<Asn>,
    /// Only the inbound CRP scan observed the AS open.
    pub b_only: BTreeSet<Asn>,
    /// Method A open verdicts the oracle says should be closed.
    pub false_open_a: BTreeSet<Asn>,
    /// Oracle-open ASes method A missed.
    pub false_closed_a: BTreeSet<Asn>,
    /// Method B open verdicts the oracle says should be closed.
    pub false_open_b: BTreeSet<Asn>,
    /// Oracle-open ASes method B missed.
    pub false_closed_b: BTreeSet<Asn>,
}

impl AgreementMatrix {
    /// Build the matrix from explicit verdict sets. Verdicts outside the
    /// universe are discarded (they cannot be scored).
    pub fn from_sets(
        universe: &BTreeSet<Asn>,
        a_open: &BTreeSet<Asn>,
        b_open: &BTreeSet<Asn>,
        expected: &BTreeSet<Asn>,
    ) -> AgreementMatrix {
        let a: BTreeSet<Asn> = a_open.intersection(universe).copied().collect();
        let b: BTreeSet<Asn> = b_open.intersection(universe).copied().collect();
        let mut m = AgreementMatrix {
            universe: universe.len(),
            ..AgreementMatrix::default()
        };
        for &asn in universe {
            let exp = expected.contains(&asn);
            match (a.contains(&asn), b.contains(&asn)) {
                (true, true) => m.agree_open.insert(asn),
                (false, false) => m.agree_closed.insert(asn),
                (true, false) => m.a_only.insert(asn),
                (false, true) => m.b_only.insert(asn),
            };
            if a.contains(&asn) && !exp {
                m.false_open_a.insert(asn);
            }
            if !a.contains(&asn) && exp {
                m.false_closed_a.insert(asn);
            }
            if b.contains(&asn) && !exp {
                m.false_open_b.insert(asn);
            }
            if !b.contains(&asn) && exp {
                m.false_closed_b.insert(asn);
            }
        }
        m
    }

    /// Full wiring over a completed dual run: compute both verdicts, the
    /// universe, and the oracle from the experiment's own planning salt.
    pub fn compute(a: &crate::experiment::ExperimentData, b: &CrpData) -> AgreementMatrix {
        let reach = Reachability::compute(&a.input());
        let a_open = internal_open_asns(&reach);
        let routes = a.world.topo.routes();
        let b_open = crp_open_asns(b, routes);
        let salt = stream_seed(a.cfg.world.seed, crate::experiment::SCHEDULE_SALT_STREAM);
        let universe = universe_asns(&a.targets, salt, a.cfg.target_sample);
        let expected = expected_open(
            &a.world,
            &a.targets,
            salt,
            a.cfg.target_sample,
            a.cfg.wildcard_zone,
        );
        AgreementMatrix::from_sets(&universe, &a_open, &b_open, &expected)
    }

    /// Method A's in-universe open set (both cells it appears in).
    pub fn a_open(&self) -> BTreeSet<Asn> {
        self.agree_open.union(&self.a_only).copied().collect()
    }

    /// Method B's in-universe open set.
    pub fn b_open(&self) -> BTreeSet<Asn> {
        self.agree_open.union(&self.b_only).copied().collect()
    }

    /// Fraction of the universe on which the two methods agree.
    pub fn agreement_rate(&self) -> f64 {
        if self.universe == 0 {
            return 1.0;
        }
        (self.agree_open.len() + self.agree_closed.len()) as f64 / self.universe as f64
    }

    /// Both methods matched the oracle exactly.
    pub fn is_exact(&self) -> bool {
        self.false_open_a.is_empty()
            && self.false_open_b.is_empty()
            && self.false_closed_a.is_empty()
            && self.false_closed_b.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asns(v: &[u32]) -> BTreeSet<Asn> {
        v.iter().map(|&n| Asn(n)).collect()
    }

    #[test]
    fn matrix_cells_partition_the_universe() {
        let universe = asns(&[1, 2, 3, 4, 5]);
        let a = asns(&[1, 2, 9]); // 9 is outside the universe: discarded
        let b = asns(&[1, 3]);
        let expected = asns(&[1, 2, 3]);
        let m = AgreementMatrix::from_sets(&universe, &a, &b, &expected);
        assert_eq!(m.agree_open, asns(&[1]));
        assert_eq!(m.agree_closed, asns(&[4, 5]));
        assert_eq!(m.a_only, asns(&[2]));
        assert_eq!(m.b_only, asns(&[3]));
        assert_eq!(
            m.agree_open.len() + m.agree_closed.len() + m.a_only.len() + m.b_only.len(),
            m.universe
        );
        assert_eq!(m.false_open_a, asns(&[]));
        assert_eq!(m.false_closed_a, asns(&[3]));
        assert_eq!(m.false_open_b, asns(&[]));
        assert_eq!(m.false_closed_b, asns(&[2]));
        assert!((m.agreement_rate() - 0.6).abs() < 1e-9);
        assert!(!m.is_exact());
    }

    #[test]
    fn exact_agreement_scores_exact() {
        let universe = asns(&[7, 8]);
        let open = asns(&[7]);
        let m = AgreementMatrix::from_sets(&universe, &open, &open, &open);
        assert!(m.is_exact());
        assert!((m.agreement_rate() - 1.0).abs() < 1e-9);
        assert_eq!(m.agree_closed, asns(&[8]));
    }
}
