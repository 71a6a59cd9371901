//! # bcd-core — the paper's contribution: spoofed-source DSAV measurement
//!
//! Implements the complete methodology of *Behind Closed Doors* (IMC 2020):
//!
//! * [`qname`] — the `ts.src.dst.asn.kw.dns-lab.org` query-name codec
//!   (§3.3) that lets every authoritative log entry be traced back to the
//!   exact spoofed probe that induced it,
//! * [`targets`] — target extraction from a DITL root trace: dedup,
//!   special-purpose exclusion, no-route exclusion, ASN attribution (§3.1),
//! * [`sources`] — spoofed-source selection: up to 97 other-prefix
//!   addresses, same-prefix, private/unique-local, destination-as-source,
//!   and loopback (§3.2),
//! * [`schedule`] — the query schedule: per-target even spreading over the
//!   experiment window under a global rate cap (§3.4),
//! * [`scanner`] — the measurement client node: sends the scheduled spoofed
//!   queries, tails the authoritative log in real time, and fires follow-up
//!   queries (10 IPv4-only, 10 IPv6-only, an open-resolver probe, and a
//!   TC-forced TCP probe) at each newly-reached target (§3.5),
//! * [`analysis`] — every analysis in §§3.6–5: reachability and per-AS
//!   aggregation, lifetime filtering, QNAME-minimization accounting,
//!   middlebox attribution, source-category effectiveness (Table 3),
//!   country tables (Tables 1–2), open/closed classification (§5.1),
//!   source-port randomization & OS identification (Tables 4–5, Figures
//!   2–3), forwarding (§5.4), local-system infiltration (§5.5, Table 6),
//!   and the 2018 passive comparison (§5.2.2),
//! * [`lab`] — the controlled lab harness reproducing the paper's
//!   OS/software characterization experiments,
//! * [`shard`] — AS-sharded parallel survey execution with a deterministic
//!   merge (analyses and reports are byte-identical for 1 and N shards),
//! * [`experiment`] — end-to-end orchestration: world → scan → analyses;
//!   every measurement pass runs through one pipeline,
//! * [`crp`] — the second, inbound measurement method (Closed Resolver
//!   Project style) as a pass over the same world, cross-validated AS by
//!   AS against the paper's method,
//! * [`report`] — plain-text renderings of every table and figure.

pub mod analysis;
pub mod attack;
pub mod chaos;
pub mod crp;
pub mod experiment;
pub(crate) mod hash;
pub mod invariants;
pub mod lab;
pub mod observe;
pub mod outreach;
pub mod qname;
pub mod report;
pub mod scanner;
pub mod schedule;
pub mod selfcheck;
pub mod shard;
pub mod sources;
pub mod targets;

pub use analysis::agreement::AgreementMatrix;
pub use chaos::{chaos_config, chaos_seed, entries_digest, ChaosRun, SweepOutcome};
pub use crp::{run_dual, CrpData, DualRun, CRP_CATEGORIES};
pub use experiment::{Experiment, ExperimentConfig, ExperimentData};
pub use invariants::{InvariantChecker, InvariantReport, Violation};
pub use observe::{dns_totals, shard_registry, stable_aggregate, DnsTotals};
pub use qname::{ExperimentTag, QnameCodec, SuffixKind};
pub use scanner::Scanner;
pub use schedule::{LaneLayout, Schedule, ScheduleMode, ScheduledQuery};
pub use selfcheck::{SelfCheck, SelfCheckReport, Verdict};
pub use shard::shard_of_asn;
pub use sources::{SourceCategory, SourcePlan};
pub use targets::{Target, TargetSet};
