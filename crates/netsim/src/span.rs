//! Causal query tracing: deterministic spans and the flight recorder.
//!
//! The survey's analyses hinge on per-query causal chains — scanner →
//! border policy → (interceptor) → resolver → authoritative → reply — but
//! counters only show marginals. This module records the chain itself:
//!
//! * a [`TraceId`] is derived from shard-invariant packet content (FNV-1a
//!   over the canonical QNAME bytes, which encode the probe's identity),
//!   never from host RNG state, and rides on [`crate::Packet::trace`] so
//!   causality propagates without payload parsing;
//! * every layer emits typed [`Span`]s ([`SpanKind`]) into a bounded
//!   [`FlightRecorder`];
//! * the recorder keeps its window in **canonical span order**
//!   `(time, trace, step)` and evicts the canonically oldest entry on
//!   overflow. Because one query's whole causal chain runs inside one
//!   shard (the schedule partitions by destination AS) and trace ids are
//!   unique per query, the canonical order is a total order with no
//!   cross-shard ties — so the merged window *and* the eviction count are
//!   invariant under `BCD_SHARDS`, the same contract every other run
//!   artifact honours.
//!
//! Why eviction is canonical-order and not arrival-order: two shards
//! interleave differently than one engine does at equal timestamps, so an
//! arrival-order ring would retain different equal-time spans at different
//! shard counts. Evicting the minimum `(time, trace, step)` key makes the
//! retained set "the newest `capacity` spans" under a shard-free total
//! order, which the merge provably reproduces (see `Merge` below).

use crate::hash::{fnv1a, FNV_OFFSET};
use crate::merge::Merge;
use crate::packet::Packet;
use crate::time::SimTime;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;

/// Identity of one traced query's causal chain. `0` means "untraced" and
/// is never recorded.
pub type TraceId = u64;

/// Derive a [`TraceId`] from shard-invariant identity bytes (canonical
/// QNAME bytes for DNS probes). Pure FNV-1a; remapped away from the
/// reserved `0`.
pub fn trace_id(identity: &[u8]) -> TraceId {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, identity);
    if h == 0 {
        1
    } else {
        h
    }
}

/// Origin-side sampling policy: which queries get a trace id stamped.
///
/// The decision is a pure function of the query's presentation-form qname —
/// never of stream position — so a given query samples identically in every
/// shard and under every scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSample {
    /// Keep roughly one query in `every` (1 = trace everything). The keep
    /// test hashes the qname, so the kept subset is shard-invariant.
    pub every: u64,
    /// Only trace queries whose qname ends with this suffix (trailing dots
    /// ignored on both sides).
    pub qname_suffix: Option<String>,
}

impl Default for TraceSample {
    fn default() -> TraceSample {
        TraceSample {
            every: 1,
            qname_suffix: None,
        }
    }
}

impl TraceSample {
    /// Sampling decision for a query named `qname` (presentation form).
    /// Returns the trace id to stamp on the originating packet, or `0` to
    /// leave the query untraced.
    pub fn sample(&self, qname: &str) -> TraceId {
        let name = qname.trim_end_matches('.');
        if let Some(suffix) = &self.qname_suffix {
            if !name.ends_with(suffix.trim_end_matches('.')) {
                return 0;
            }
        }
        let id = trace_id(name.as_bytes());
        if self.every <= 1 || id.is_multiple_of(self.every) {
            id
        } else {
            0
        }
    }
}

/// The typed step taxonomy of a query's causal chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// A node handed the packet to the network.
    Send,
    /// The engine resolved the path (origin/destination AS, hop count).
    Route,
    /// A fault or policy decided the packet's fate (drop reason, chaos
    /// delay/duplication).
    Fate,
    /// A transparent middlebox grabbed the packet.
    Intercept,
    /// The packet reached its addressee's node.
    Deliver,
    /// The resolver probed its cache for the query.
    CacheProbe,
    /// The resolver fanned out (or retried) an upstream query.
    Upstream,
    /// The resolver judged an upstream response (match, referral, answer).
    Validate,
    /// A server composed its reply to the traced client.
    Reply,
}

impl SpanKind {
    /// Stable lowercase label (render + export surface).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Send => "send",
            SpanKind::Route => "route",
            SpanKind::Fate => "fate",
            SpanKind::Intercept => "intercept",
            SpanKind::Deliver => "deliver",
            SpanKind::CacheProbe => "cache-probe",
            SpanKind::Upstream => "upstream",
            SpanKind::Validate => "validate",
            SpanKind::Reply => "reply",
        }
    }
}

/// One recorded span (assembled view over the recorder's storage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub time: SimTime,
    pub trace: TraceId,
    /// Causal index within the trace: the n-th span this trace recorded.
    /// Assigned by the recorder; shard-invariant because a trace's whole
    /// chain executes in one shard.
    pub step: u32,
    pub kind: SpanKind,
    pub detail: String,
}

/// A retained span's value: kind, detail, and the packet a packet-fate
/// span captured. The packet is boxed so the common packet-less span
/// stays small: every insert and eviction moves the window's values.
type SpanBody = (SpanKind, String, Option<Box<Packet>>);

/// A bounded window of [`Span`]s in canonical `(time, trace, step)` order.
///
/// `capacity == 0` records nothing but still counts evictions.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    capacity: usize,
    spans: BTreeMap<(SimTime, TraceId, u32), SpanBody>,
    /// Next causal step per trace (keeps counting past evictions).
    next_step: HashMap<TraceId, u32>,
    evicted: u64,
    /// Origin-side sampling policy (consulted by originators via
    /// [`crate::NodeCtx::sample_trace`]; identical across shards).
    sampling: TraceSample,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` spans.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity,
            ..FlightRecorder::default()
        }
    }

    /// Set the origin-side sampling policy.
    pub fn with_sampling(mut self, sampling: TraceSample) -> FlightRecorder {
        self.sampling = sampling;
        self
    }

    /// Sampling decision for a query qname (see [`TraceSample::sample`]).
    pub fn sample(&self, qname: &str) -> TraceId {
        self.sampling.sample(qname)
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans evicted from the window (recorded but no longer retained).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Total spans ever recorded.
    pub fn recorded(&self) -> u64 {
        self.spans.len() as u64 + self.evicted
    }

    /// Record one span. `trace == 0` is ignored (untraced traffic).
    pub fn record(&mut self, time: SimTime, trace: TraceId, kind: SpanKind, detail: String) {
        self.insert(time, trace, kind, detail, None);
    }

    /// Record a packet-fate span that captures the packet itself (its
    /// payload bytes are shared, not copied), so the window doubles as
    /// the run's packet capture.
    pub fn record_packet(
        &mut self,
        time: SimTime,
        trace: TraceId,
        kind: SpanKind,
        detail: String,
        packet: &Packet,
    ) {
        self.insert(time, trace, kind, detail, Some(packet));
    }

    fn insert(
        &mut self,
        time: SimTime,
        trace: TraceId,
        kind: SpanKind,
        detail: String,
        packet: Option<&Packet>,
    ) {
        if trace == 0 {
            return;
        }
        let step_slot = self.next_step.entry(trace).or_insert(0);
        let step = *step_slot;
        *step_slot += 1;
        if self.capacity == 0 {
            self.evicted += 1;
            return;
        }
        self.spans.insert(
            (time, trace, step),
            (kind, detail, packet.map(|p| Box::new(p.clone()))),
        );
        if self.spans.len() > self.capacity {
            self.spans.pop_first();
            self.evicted += 1;
        }
    }

    /// Retained spans in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = Span> + '_ {
        self.spans.iter().map(assemble)
    }

    /// Retained packet-fate spans (deliver, intercept, drop) in canonical
    /// order: time, kind and the captured packet. [`crate::pcap`] exports
    /// these.
    pub fn packets(&self) -> impl Iterator<Item = (SimTime, SpanKind, &Packet)> + '_ {
        self.spans
            .iter()
            .filter_map(|(&(time, _, _), (kind, _, packet))| {
                Some((time, *kind, packet.as_deref()?))
            })
    }

    /// Distinct trace ids with retained spans, ascending.
    pub fn traces(&self) -> Vec<TraceId> {
        let mut ids: Vec<TraceId> = self.spans.keys().map(|&(_, t, _)| t).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Retained spans of one trace, in causal order.
    pub fn trace_spans(&self, id: TraceId) -> Vec<Span> {
        // Filter on the key before assembling: cloning every retained
        // span's detail per trace made per-trace walks (the Chrome export)
        // quadratic in allocations.
        let mut spans: Vec<Span> = self
            .spans
            .iter()
            .filter(|((_, trace, _), _)| *trace == id)
            .map(assemble)
            .collect();
        spans.sort_by_key(|s| s.step);
        spans
    }

    /// Render one trace's causal chain as deterministic text.
    pub fn render_trace(&self, id: TraceId) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace {id:016x}:");
        for s in self.trace_spans(id) {
            let _ = writeln!(
                out,
                "  [{:>2}] t={} {:<11} {}",
                s.step,
                s.time,
                s.kind.label(),
                s.detail
            );
        }
        out
    }

    /// Render the full retained window (canonical order) as deterministic
    /// text — the chaos violation dump's flight-recorder section.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== flight recorder: {} spans retained, {} evicted, {} traces ==",
            self.len(),
            self.evicted,
            self.traces().len()
        );
        for s in self.iter() {
            let _ = writeln!(
                out,
                "t={} trace={:016x} [{:>2}] {:<11} {}",
                s.time,
                s.trace,
                s.step,
                s.kind.label(),
                s.detail
            );
        }
        out
    }
}

/// The public [`Span`] view of one window entry.
fn assemble(
    (&(time, trace, step), (kind, detail, _)): (&(SimTime, TraceId, u32), &SpanBody),
) -> Span {
    Span {
        time,
        trace,
        step,
        kind: *kind,
        detail: detail.clone(),
    }
}

impl Merge for FlightRecorder {
    /// Union the windows under the canonical order, keep the larger
    /// capacity, and evict the canonically oldest past it.
    ///
    /// Invariance argument: per shard, the retained set is the newest
    /// `cap` spans of that shard's recordings (canonical order). Any span
    /// among the global newest `cap` has fewer than `cap` spans above it
    /// globally, hence fewer than `cap` above it within its own shard —
    /// so every shard retains its members of the global top-`cap`, and
    /// the merged, re-evicted union *is* the global top-`cap`: exactly
    /// what a single engine retains. Eviction counts telescope to
    /// `total_recorded - cap` on both sides.
    fn merge(&mut self, other: FlightRecorder) {
        self.capacity = self.capacity.max(other.capacity);
        self.evicted += other.evicted;
        self.spans.extend(other.spans);
        for (trace, step) in other.next_step {
            let slot = self.next_step.entry(trace).or_insert(0);
            *slot = (*slot).max(step);
        }
        while self.spans.len() > self.capacity {
            self.spans.pop_first();
            self.evicted += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn trace_id_is_stable_and_nonzero() {
        assert_eq!(trace_id(b"ts1.src.dst"), trace_id(b"ts1.src.dst"));
        assert_ne!(trace_id(b"a"), trace_id(b"b"));
        assert_ne!(trace_id(b""), 0);
    }

    #[test]
    fn records_in_canonical_order_with_steps() {
        let mut fr = FlightRecorder::with_capacity(16);
        fr.record(t(2), 7, SpanKind::Deliver, "x".into());
        fr.record(t(1), 7, SpanKind::Send, "y".into());
        fr.record(t(1), 3, SpanKind::Send, "z".into());
        let spans: Vec<Span> = fr.iter().collect();
        assert_eq!(spans.len(), 3);
        // Canonical order: time first, then trace id.
        assert_eq!(spans[0].trace, 3);
        assert_eq!(spans[1].trace, 7);
        assert_eq!(spans[2].trace, 7);
        // Steps follow record order per trace.
        assert_eq!(fr.trace_spans(7)[0].kind, SpanKind::Deliver);
        assert_eq!(fr.trace_spans(7)[0].step, 0);
        assert_eq!(fr.trace_spans(7)[1].step, 1);
    }

    #[test]
    fn untraced_is_ignored() {
        let mut fr = FlightRecorder::with_capacity(4);
        fr.record(t(1), 0, SpanKind::Send, "no".into());
        assert!(fr.is_empty());
        assert_eq!(fr.evicted(), 0);
    }

    #[test]
    fn overflow_evicts_canonically_oldest() {
        let mut fr = FlightRecorder::with_capacity(2);
        fr.record(t(3), 1, SpanKind::Send, "c".into());
        fr.record(t(1), 1, SpanKind::Send, "a".into());
        fr.record(t(2), 1, SpanKind::Send, "b".into());
        assert_eq!(fr.len(), 2);
        assert_eq!(fr.evicted(), 1);
        let times: Vec<SimTime> = fr.iter().map(|s| s.time).collect();
        assert_eq!(times, vec![t(2), t(3)]);
    }

    #[test]
    fn zero_capacity_counts_only() {
        let mut fr = FlightRecorder::with_capacity(0);
        fr.record(t(1), 9, SpanKind::Send, "a".into());
        assert!(fr.is_empty());
        assert_eq!(fr.evicted(), 1);
        assert_eq!(fr.recorded(), 1);
    }

    #[test]
    fn merge_equals_single_recorder() {
        // Interleave two disjoint trace populations across two recorders
        // and check the merge matches one recorder that saw everything.
        let cap = 5;
        let mut single = FlightRecorder::with_capacity(cap);
        let mut a = FlightRecorder::with_capacity(cap);
        let mut b = FlightRecorder::with_capacity(cap);
        let events: Vec<(u64, TraceId)> = vec![
            (1, 2),
            (1, 11),
            (2, 4),
            (2, 2),
            (3, 11),
            (3, 4),
            (4, 2),
            (5, 11),
            (5, 4),
            (6, 2),
        ];
        for &(sec, trace) in &events {
            single.record(t(sec), trace, SpanKind::Send, format!("e{sec}"));
            let shard = if trace % 2 == 0 { &mut a } else { &mut b };
            shard.record(t(sec), trace, SpanKind::Send, format!("e{sec}"));
        }
        a.merge(b);
        assert_eq!(a.evicted(), single.evicted());
        assert_eq!(a.dump(), single.dump());
    }

    #[test]
    fn render_trace_is_causal() {
        let mut fr = FlightRecorder::with_capacity(8);
        fr.record(t(1), 5, SpanKind::Send, "q out".into());
        fr.record(t(2), 5, SpanKind::Deliver, "q in".into());
        let text = fr.render_trace(5);
        assert!(text.contains("trace 0000000000000005"));
        let send = text.find("send").unwrap();
        let deliver = text.find("deliver").unwrap();
        assert!(send < deliver);
    }
}
