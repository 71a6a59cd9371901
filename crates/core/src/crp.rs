//! The second, independent measurement method: a Closed Resolver Project
//! style *inbound* spoofed-probe scan.
//!
//! The paper's own methodology (§3, [`crate::experiment`]) infers a lack of
//! inbound source-address validation from *outbound* evidence: a spoofed
//! query that escapes the target AS and reaches our authoritative servers.
//! The Closed Resolver Project (Korczyński et al., the paper's closest
//! related work) measures the same property from the opposite direction:
//! send probes *into* each AS whose source addresses claim to be internal,
//! and classify the AS as lacking inbound SAV when any probe elicits a
//! resolution.
//!
//! This module implements that second method over the same simulated world
//! so the two can be cross-validated AS by AS
//! ([`crate::analysis::agreement`]):
//!
//! * **Shared stimuli** — the CRP pass reuses the experiment's streaming
//!   schedule machinery with the *same* seed-derived schedule salt, filtered
//!   to the internal source categories ([`CRP_CATEGORIES`]). Per-target
//!   source plans are hashes of the canonical target bytes
//!   ([`crate::sources::SourcePlan::build`]), so both methods
//!   probe byte-identical `(src, dst)` pairs and the CRP pass is itself
//!   byte-identical across any `BCD_SHARDS` × scheduler layout.
//! * **Separate pass** — the CRP scan is one `Pass` value run through
//!   the same `run_pass` as method A, on its own engine runtimes over the
//!   same shared [`World`](bcd_worldgen::World) and [`TargetSet`]: the
//!   scanner walks its schedule without tailing the log (no follow-ups, no
//!   human noise). Nothing leaks between methods: method A's caches, logs,
//!   and RNG streams never see a CRP packet, so adding the CRP pass
//!   changes no method-A byte.
//! * **Own namespace** — CRP probes use their own keyword
//!   ([`crp_keyword`]), so a CRP log entry can never decode as a method-A
//!   probe or vice versa.
//!
//! [`TargetSet`]: crate::targets::TargetSet

use crate::analysis::agreement::AgreementMatrix;
use crate::experiment::{
    run_pass, Experiment, ExperimentConfig, ExperimentData, Pass, PassOutcome,
};
use crate::qname::QnameCodec;
use crate::sources::SourceCategory;
use bcd_dns::QueryLogEntry;
use bcd_netsim::{FlightRecorder, NetCounters};
use bcd_obs::{Det, ObsEnv};
use std::time::Instant;

/// RNG stream id for the CRP scanner's packet-identity salt (txid/sport
/// derivation). Distinct from the experiment's noise stream so the two
/// methods' wire identities are independent.
const CRP_NOISE_STREAM: u64 = 0x4352_505F_4E4F_4953; // "CRP_NOIS"

/// The source categories the inbound-SAV method probes: sources an AS
/// border *should* reject on ingress because they claim to originate
/// inside the AS (or inside the destination subnet, or the destination
/// itself). Loopback and private sources measure bogon filtering, not
/// inbound SAV, so the CRP pass omits them.
pub const CRP_CATEGORIES: [SourceCategory; 3] = [
    SourceCategory::OtherPrefix,
    SourceCategory::SamePrefix,
    SourceCategory::DstAsSrc,
];

/// The CRP pass's experiment keyword: method A's keyword with a `crp`
/// suffix, so each codec only decodes its own method's entries.
pub fn crp_keyword(kw: &str) -> String {
    format!("{kw}crp")
}

/// Counters for tests and reports.
#[derive(Debug, Default, Clone)]
pub struct CrpStats {
    pub probes_sent: u64,
    pub responses_received: u64,
    /// Probes suppressed by §3.8 opt-outs (honoured symmetrically).
    pub opted_out: u64,
    /// Walker wake-ups deferred by §3.4 outages.
    pub outage_deferrals: u64,
}

/// Everything the agreement analysis needs from a completed CRP pass.
pub struct CrpData {
    /// Codec bound to the CRP keyword — decodes only CRP entries.
    pub codec: QnameCodec,
    /// Canonically merged snapshot of the CRP pass's authoritative log.
    pub entries: Vec<QueryLogEntry>,
    pub stats: CrpStats,
    /// Packet counters, summed over all CRP shards.
    pub counters: NetCounters,
    /// Engine events processed, summed over all CRP shards.
    pub events: u64,
    pub budget_exhausted: bool,
    /// Deliver events still queued at the horizon, summed over all shards.
    pub pending_deliveries: u64,
    /// Total probes the CRP schedule carried (census total).
    pub scheduled_probes: u64,
    /// Merged causal span flight recorder, when the run armed one
    /// (`BCD_TRACE`); byte-identical at any shard count, like method A's.
    pub flight: Option<FlightRecorder>,
    /// Effective shard count of the CRP pass.
    pub shards: usize,
}

/// Both methods plus their AS-level agreement matrix.
pub struct DualRun {
    /// Method A: the paper's outbound spoofed-source survey.
    pub a: ExperimentData,
    /// Method B: the inbound CRP scan over the same world and targets.
    pub b: CrpData,
    /// The cross-method agreement matrix, scored against ground truth.
    pub matrix: AgreementMatrix,
}

/// Run both methods back to back and compute the agreement matrix.
///
/// The method-A pass runs first and unchanged (its reports and goldens are
/// byte-identical with or without the CRP pass); the CRP pass then reuses
/// its world and target set, recording its phases under a `crp.` prefix
/// inside one `crp-run` phase. Agreement metrics are appended to the run's
/// observation aggregate as [`Det::Stable`] counters. Like
/// [`Experiment::run_observed`] it writes no file: the caller exports the
/// combined artifact ([`ObsEnv::export`]).
pub fn run_dual(cfg: ExperimentConfig, env: &ObsEnv) -> DualRun {
    use bcd_obs::report::names;
    let mut a = Experiment::run_observed(cfg, env);
    let t0 = Instant::now();
    // The CRP scan: internal source categories only, its own keyword and
    // RNG streams, and a scanner that only walks its schedule.
    let pass = Pass {
        phase_prefix: "crp.",
        category_filter: Some(&CRP_CATEGORIES),
        keyword: crp_keyword(&a.cfg.keyword),
        noise_stream: CRP_NOISE_STREAM,
        tails_log: false,
    };
    let PassOutcome {
        merged,
        census,
        shards,
        ..
    } = run_pass(&pass, &a.world, &a.targets, &a.cfg, env, &mut a.obs.profile);
    let s = &merged.scanner_stats;
    let b = CrpData {
        codec: QnameCodec::new(&a.world.auth.apex, &pass.keyword),
        stats: CrpStats {
            probes_sent: s.spoofed_sent,
            responses_received: s.responses_received,
            opted_out: s.opted_out,
            outage_deferrals: s.outage_deferrals,
        },
        entries: merged.entries,
        counters: merged.counters,
        events: merged.events,
        budget_exhausted: merged.budget_exhausted,
        pending_deliveries: merged.pending_deliveries,
        scheduled_probes: census.total,
        flight: merged.flight,
        shards,
    };
    a.obs.profile.record("crp-run", t0.elapsed());
    let t0 = Instant::now();
    let matrix = AgreementMatrix::compute(&a, &b);
    a.obs.profile.record("agreement", t0.elapsed());
    let agg = &mut a.obs.aggregate;
    let det = Det::Stable;
    agg.add_counter(names::CRP_PROBES, &[], det, b.stats.probes_sent);
    agg.add_counter(names::CRP_LOG_ENTRIES, &[], det, b.entries.len() as u64);
    agg.add_counter(names::AGREEMENT_UNIVERSE, &[], det, matrix.universe as u64);
    agg.add_counter(
        names::AGREEMENT_AGREE_OPEN,
        &[],
        det,
        matrix.agree_open.len() as u64,
    );
    agg.add_counter(
        names::AGREEMENT_AGREE_CLOSED,
        &[],
        det,
        matrix.agree_closed.len() as u64,
    );
    agg.add_counter(
        names::AGREEMENT_A_ONLY,
        &[],
        det,
        matrix.a_only.len() as u64,
    );
    agg.add_counter(
        names::AGREEMENT_B_ONLY,
        &[],
        det,
        matrix.b_only.len() as u64,
    );
    agg.add_counter(
        names::AGREEMENT_FALSE_OPEN,
        &[("method", "a")],
        det,
        matrix.false_open_a.len() as u64,
    );
    agg.add_counter(
        names::AGREEMENT_FALSE_OPEN,
        &[("method", "b")],
        det,
        matrix.false_open_b.len() as u64,
    );
    agg.add_counter(
        names::AGREEMENT_FALSE_CLOSED,
        &[("method", "a")],
        det,
        matrix.false_closed_a.len() as u64,
    );
    agg.add_counter(
        names::AGREEMENT_FALSE_CLOSED,
        &[("method", "b")],
        det,
        matrix.false_closed_b.len() as u64,
    );
    DualRun { a, b, matrix }
}
