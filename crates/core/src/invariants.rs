//! Survey invariants: what must hold no matter how badly the network
//! misbehaves.
//!
//! The paper's methodology is *conservative by construction*: packet loss,
//! reordering, duplication, and resolver outages can only make the survey
//! **under-count** reachability, never invent it (§3.4's interruptions,
//! §3.6's corrections). This module turns that argument into executable
//! checks over [`ExperimentData`], used by the chaos harness
//! ([`crate::chaos`]) to validate every `(seed, profile)` run.
//!
//! Two kinds of invariant:
//!
//! * **Intrinsic** ([`InvariantChecker::check`]) — hold for any single run:
//!   * `soundness-no-false-dsav` — every AS the reachability analysis
//!     flags as lacking DSAV truly lacks DSAV in the generated world's
//!     ground truth. This is the paper's central claim (§4, Table 2): a
//!     spoofed probe that arrives is *proof* the border did not validate,
//!     so faults must never flip it.
//!   * `conservation` — engine accounting balances: every packet handed to
//!     the network is delivered, dropped for exactly one [`bcd_netsim::DropReason`],
//!     or still in flight when the horizon ends. [`InvariantChecker::check_crp`]
//!     applies the same balance to the inbound CRP pass
//!     (`crp-conservation`).
//! * **Baseline-relative** ([`InvariantChecker::check_against`]) — compare
//!   a faulted run to the clean run with the same world seed:
//!   * `reachability-monotone-addrs` / `reachability-monotone-asns` —
//!     faults only *shrink* the reached target/AS sets (§3.4: "loss only
//!     ever under-counts"). A target reached under chaos but not in the
//!     clean run would mean faults manufactured evidence.
//!   * `closed-never-opens` — a resolver classified *closed* in the clean
//!     run must never classify *open* under faults (§5.1: "open" requires
//!     an answered non-spoofed probe, and faults cannot answer probes).
//!
//! Cross-method invariants ([`InvariantChecker::check_agreement`],
//! [`InvariantChecker::check_crp_monotone`]) extend both kinds to the
//! dual-method agreement matrix: neither method may ever call a
//! ground-truth-closed AS open, a clean network forces exact agreement
//! with the oracle, and faults may only shrink the inbound method's open
//! set.

use crate::analysis::openclosed::OpenClosedReport;
use crate::analysis::reachability::Reachability;
use crate::experiment::ExperimentData;
use bcd_netsim::NetCounters;
use std::fmt;

/// One failed invariant.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Stable invariant name (see module docs).
    pub invariant: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// Outcome of a checker pass: which invariants ran, which failed.
#[derive(Debug, Default, Clone)]
pub struct InvariantReport {
    /// Names of the invariants that were evaluated, in evaluation order.
    pub checked: Vec<&'static str>,
    pub violations: Vec<Violation>,
}

impl InvariantReport {
    /// No violations?
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Fold another report into this one (intrinsic + relative passes).
    pub fn merge(&mut self, other: InvariantReport) {
        self.checked.extend(other.checked);
        self.violations.extend(other.violations);
    }

    /// Deterministic one-block rendering (used by the chaos run report).
    pub fn render(&self) -> String {
        let mut out = format!(
            "invariants: {} checked, {} violated\n",
            self.checked.len(),
            self.violations.len()
        );
        for v in &self.violations {
            out.push_str("  VIOLATION ");
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }
}

/// The checker. Stateless; both passes are pure functions of the
/// experiment data they receive.
pub struct InvariantChecker;

impl InvariantChecker {
    /// Intrinsic invariants of a single run.
    pub fn check(data: &ExperimentData) -> InvariantReport {
        let mut report = InvariantReport::default();
        let reach = Reachability::compute(&data.input());
        Self::check_soundness(data, &reach, &mut report);
        Self::check_conservation(
            "conservation",
            &data.counters,
            data.pending_deliveries,
            data.budget_exhausted,
            &mut report,
        );
        report
    }

    /// Intrinsic invariants of the inbound CRP pass: `crp-conservation`,
    /// the same packet balance as `conservation` over the CRP engines.
    pub fn check_crp(b: &crate::crp::CrpData) -> InvariantReport {
        let mut report = InvariantReport::default();
        Self::check_conservation(
            "crp-conservation",
            &b.counters,
            b.pending_deliveries,
            b.budget_exhausted,
            &mut report,
        );
        report
    }

    /// Baseline-relative invariants: `chaos` is a faulted run over the
    /// same world seed as the fault-free `clean` run.
    pub fn check_against(clean: &ExperimentData, chaos: &ExperimentData) -> InvariantReport {
        let mut report = InvariantReport::default();
        let clean_reach = Reachability::compute(&clean.input());
        let chaos_reach = Reachability::compute(&chaos.input());
        Self::check_monotone(&clean_reach, &chaos_reach, &mut report);
        Self::check_closed_never_opens(
            &OpenClosedReport::compute(&clean.input(), &clean_reach),
            &OpenClosedReport::compute(&chaos.input(), &chaos_reach),
            &mut report,
        );
        report
    }

    /// Both passes in one report (the chaos harness's standard gate).
    pub fn check_full(clean: &ExperimentData, chaos: &ExperimentData) -> InvariantReport {
        let mut report = Self::check(chaos);
        report.merge(Self::check_against(clean, chaos));
        report
    }

    /// Cross-method invariants over an agreement matrix
    /// ([`crate::analysis::agreement`]).
    ///
    /// * `agreement-no-false-open` — always: neither method may call an AS
    ///   open that the ground-truth oracle says is closed. Evidence is a
    ///   query *arriving* at our authoritative servers; no fault — loss,
    ///   delay, duplication, or the spoofed-response adversary's forged
    ///   answers (rejected at the resolver's (txid, port) demux) — can
    ///   manufacture an arrival.
    /// * `agreement-no-false-closed` + `agreement-clean-exact` — clean
    ///   network only: with no faults, both methods must match the oracle
    ///   exactly, and therefore each other.
    pub fn check_agreement(
        matrix: &crate::analysis::agreement::AgreementMatrix,
        clean: bool,
    ) -> InvariantReport {
        let mut report = InvariantReport::default();
        report.checked.push("agreement-no-false-open");
        for (method, set) in [("a", &matrix.false_open_a), ("b", &matrix.false_open_b)] {
            if !set.is_empty() {
                let asns: Vec<u32> = set.iter().map(|a| a.0).collect();
                report.violations.push(Violation {
                    invariant: "agreement-no-false-open",
                    detail: format!(
                        "method {method} called ground-truth-closed ASes open: {asns:?}"
                    ),
                });
            }
        }
        if clean {
            report.checked.push("agreement-no-false-closed");
            for (method, set) in [("a", &matrix.false_closed_a), ("b", &matrix.false_closed_b)] {
                if !set.is_empty() {
                    let asns: Vec<u32> = set.iter().map(|a| a.0).collect();
                    report.violations.push(Violation {
                        invariant: "agreement-no-false-closed",
                        detail: format!(
                            "method {method} missed oracle-open ASes on a clean network: {asns:?}"
                        ),
                    });
                }
            }
            report.checked.push("agreement-clean-exact");
            if !matrix.a_only.is_empty() || !matrix.b_only.is_empty() {
                let a: Vec<u32> = matrix.a_only.iter().map(|x| x.0).collect();
                let b: Vec<u32> = matrix.b_only.iter().map(|x| x.0).collect();
                report.violations.push(Violation {
                    invariant: "agreement-clean-exact",
                    detail: format!(
                        "methods disagree on a clean network: a_only={a:?} b_only={b:?}"
                    ),
                });
            }
        }
        report
    }

    /// Baseline-relative cross-method invariant: faults may only *shrink*
    /// the inbound method's open set, mirroring
    /// `reachability-monotone-asns` for method B.
    pub fn check_crp_monotone(
        clean: &crate::analysis::agreement::AgreementMatrix,
        chaos: &crate::analysis::agreement::AgreementMatrix,
    ) -> InvariantReport {
        let mut report = InvariantReport::default();
        report.checked.push("crp-monotone-asns");
        let clean_open = clean.b_open();
        let extra: Vec<u32> = chaos
            .b_open()
            .difference(&clean_open)
            .map(|a| a.0)
            .collect();
        if !extra.is_empty() {
            report.violations.push(Violation {
                invariant: "crp-monotone-asns",
                detail: format!("ASes CRP-open only under faults: {extra:?}"),
            });
        }
        report
    }

    fn check_soundness(data: &ExperimentData, reach: &Reachability, report: &mut InvariantReport) {
        report.checked.push("soundness-no-false-dsav");
        let bad: Vec<u32> = reach
            .reached_asns_all()
            .into_iter()
            .filter(|&asn| !data.world.truly_lacks_dsav(asn))
            .map(|asn| asn.0)
            .collect();
        if !bad.is_empty() {
            report.violations.push(Violation {
                invariant: "soundness-no-false-dsav",
                detail: format!("reached ASes that deploy DSAV in ground truth: {bad:?}"),
            });
        }
    }

    fn check_conservation(
        invariant: &'static str,
        c: &NetCounters,
        pending_deliveries: u64,
        budget_exhausted: bool,
        report: &mut InvariantReport,
    ) {
        report.checked.push(invariant);
        // Forged responses from the spoofed-response adversary enter the
        // network without a `sent` increment; they are accounted on the
        // left so their deliveries balance.
        let sent = c.sent + c.duplicated + c.injected;
        let accounted = c.delivered + c.total_drops() + pending_deliveries;
        // On budget exhaustion the engine truncates the *whole* queue —
        // timers included — so drops may over-count packets; the balance
        // then only bounds from above.
        let ok = if budget_exhausted {
            sent <= accounted
        } else {
            sent == accounted
        };
        if !ok {
            report.violations.push(Violation {
                invariant,
                detail: format!(
                    "sent+duplicated+injected = {sent} but delivered+drops+in-flight = \
                     {accounted} (delivered={} drops={} in-flight={pending_deliveries} \
                     budget_exhausted={budget_exhausted})",
                    c.delivered,
                    c.total_drops(),
                ),
            });
        }
    }

    fn check_monotone(clean: &Reachability, chaos: &Reachability, report: &mut InvariantReport) {
        report.checked.push("reachability-monotone-addrs");
        let extra_addrs: Vec<String> = chaos
            .reached
            .keys()
            .filter(|a| !clean.reached.contains_key(a))
            .map(|a| a.to_string())
            .collect();
        if !extra_addrs.is_empty() {
            report.violations.push(Violation {
                invariant: "reachability-monotone-addrs",
                detail: format!("targets reached only under faults: {extra_addrs:?}"),
            });
        }

        report.checked.push("reachability-monotone-asns");
        let clean_asns = clean.reached_asns_all();
        let extra_asns: Vec<u32> = chaos
            .reached_asns_all()
            .into_iter()
            .filter(|asn| !clean_asns.contains(asn))
            .map(|asn| asn.0)
            .collect();
        if !extra_asns.is_empty() {
            report.violations.push(Violation {
                invariant: "reachability-monotone-asns",
                detail: format!("ASes reached only under faults: {extra_asns:?}"),
            });
        }
    }

    fn check_closed_never_opens(
        clean: &OpenClosedReport,
        chaos: &OpenClosedReport,
        report: &mut InvariantReport,
    ) {
        report.checked.push("closed-never-opens");
        let flipped: Vec<String> = chaos
            .open
            .iter()
            .filter(|a| clean.closed.contains(*a))
            .map(|a| a.to_string())
            .collect();
        if !flipped.is_empty() {
            report.violations.push(Violation {
                invariant: "closed-never-opens",
                detail: format!(
                    "resolvers closed in the clean run but open under faults: {flipped:?}"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_merge_and_render() {
        let mut a = InvariantReport {
            checked: vec!["conservation"],
            violations: Vec::new(),
        };
        let b = InvariantReport {
            checked: vec!["closed-never-opens"],
            violations: vec![Violation {
                invariant: "closed-never-opens",
                detail: "198.51.100.7".into(),
            }],
        };
        a.merge(b);
        assert!(!a.is_ok());
        let text = a.render();
        assert!(text.starts_with("invariants: 2 checked, 1 violated"));
        assert!(text.contains("VIOLATION closed-never-opens: 198.51.100.7"));
    }

    #[test]
    fn empty_report_is_ok() {
        assert!(InvariantReport::default().is_ok());
    }
}
