//! Chrome trace-event export for the causal flight recorder.
//!
//! Emits the [Trace Event Format] JSON that `chrome://tracing` and Perfetto
//! load directly. Two process rows:
//!
//! * **pid 1 "sim"** — query lifecycles on the *virtual* clock: one thread
//!   row per retained trace, a complete (`X`) event spanning the trace's
//!   first to last span, and one instant (`i`) event per span carrying the
//!   step index and detail text.
//! * **pid 2 "wall"** — pipeline phases on the *wall* clock, laid out
//!   sequentially in completion order (shard phases overlap in reality;
//!   the layout shows cost, not concurrency).
//!
//! The encoder is hand-rolled like [`crate::export`] (the workspace
//! vendors no JSON crate): fixed key order, RFC 8259 escaping, integer
//! microsecond timestamps — so the output is deterministic for a
//! deterministic recorder, and the trace-invariance suite can byte-compare
//! it across shard counts.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::export::escape;
use crate::RunProfile;
use bcd_netsim::FlightRecorder;
use std::fmt::Write;

#[allow(clippy::too_many_arguments)]
fn push_event(
    out: &mut String,
    first: &mut bool,
    name: &str,
    ph: char,
    ts_us: u64,
    dur_us: Option<u64>,
    pid: u32,
    tid: u64,
    args: &[(&str, &str)],
) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str("{\"name\":\"");
    escape(name, out);
    let _ = write!(out, "\",\"ph\":\"{ph}\",\"ts\":{ts_us}");
    if let Some(d) = dur_us {
        let _ = write!(out, ",\"dur\":{d}");
    }
    let _ = write!(out, ",\"pid\":{pid},\"tid\":{tid}");
    if ph == 'i' {
        // Thread-scoped instant: renders as a tick on its own row.
        out.push_str(",\"s\":\"t\"");
    }
    if !args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":\"");
            escape(v, out);
            out.push('"');
        }
        out.push('}');
    }
    out.push('}');
}

fn push_meta(out: &mut String, first: &mut bool, name: &str, pid: u32, tid: u64, value: &str) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid}"
    );
    out.push_str(",\"args\":{\"name\":\"");
    escape(value, out);
    out.push_str("\"}}");
}

/// Render the retained flight-recorder window plus the run's phase profile
/// as one Chrome trace-event JSON document.
pub fn chrome_trace_json(flight: &FlightRecorder, profile: &RunProfile) -> String {
    let mut out = String::with_capacity(4096 + flight.len() * 128);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;

    // pid 1: query lifecycles on the sim clock, one tid per trace.
    push_meta(
        &mut out,
        &mut first,
        "process_name",
        1,
        0,
        "sim (virtual time)",
    );
    for (row, (id, spans)) in flight.by_trace().iter().enumerate() {
        let tid = row as u64 + 1;
        let Some(start) = spans.iter().map(|s| s.time).min() else {
            continue;
        };
        let end = spans.iter().map(|s| s.time).max().unwrap_or(start);
        push_meta(
            &mut out,
            &mut first,
            "thread_name",
            1,
            tid,
            &format!("trace {id:016x}"),
        );
        let start_us = start.as_nanos() / 1_000;
        let dur_us = (end.as_nanos() - start.as_nanos()) / 1_000;
        push_event(
            &mut out,
            &mut first,
            &format!("trace {id:016x}"),
            'X',
            start_us,
            // Zero-duration complete events are invisible; floor at 1 µs.
            Some(dur_us.max(1)),
            1,
            tid,
            &[("spans", &spans.len().to_string())],
        );
        for s in spans {
            push_event(
                &mut out,
                &mut first,
                s.kind.label(),
                'i',
                s.time.as_nanos() / 1_000,
                None,
                1,
                tid,
                &[("step", &s.step.to_string()), ("detail", &s.detail)],
            );
        }
    }

    // pid 2: pipeline phases on the wall clock, sequential in completion
    // order. Per-shard phases render as "name[sid]".
    push_meta(
        &mut out,
        &mut first,
        "process_name",
        2,
        0,
        "wall (pipeline phases)",
    );
    push_meta(&mut out, &mut first, "thread_name", 2, 1, "phases");
    let mut cursor_us: u64 = 0;
    for p in &profile.phases {
        let name = match p.shard {
            Some(sid) => format!("{}[{sid}]", p.name),
            None => p.name.clone(),
        };
        let dur = (p.wall.as_micros() as u64).max(1);
        push_event(
            &mut out,
            &mut first,
            &name,
            'X',
            cursor_us,
            Some(dur),
            2,
            1,
            &[],
        );
        cursor_us += dur;
    }

    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcd_netsim::{SimTime, SpanKind};
    use std::time::Duration;

    #[test]
    fn exports_spans_and_phases() {
        let mut fr = FlightRecorder::with_capacity(16);
        fr.record(SimTime::from_secs(1), 5, SpanKind::Send, "q \"out\"".into());
        fr.record(SimTime::from_secs(2), 5, SpanKind::Reply, "done".into());
        let mut profile = RunProfile::new();
        profile.record("worldgen-build", Duration::from_millis(3));
        profile.record_shard(
            "shard-run",
            0,
            Duration::from_millis(7),
            SimTime::from_secs(2),
        );
        let json = chrome_trace_json(&fr, &profile);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"trace 0000000000000005\""), "{json}");
        assert!(json.contains("\"name\":\"send\""));
        assert!(json.contains("\"name\":\"reply\""));
        assert!(json.contains("q \\\"out\\\""), "escaped detail: {json}");
        assert!(json.contains("\"shard-run[0]\""));
        // Sim spans are on the virtual clock (t=1s -> 1_000_000 us).
        assert!(json.contains("\"ts\":1000000"));
        assert!(json.ends_with("\"displayTimeUnit\":\"ms\"}\n"));
    }

    #[test]
    fn deterministic_for_same_inputs() {
        let mut fr = FlightRecorder::with_capacity(4);
        fr.record(SimTime::from_secs(3), 9, SpanKind::Deliver, "x".into());
        let profile = RunProfile::new();
        assert_eq!(
            chrome_trace_json(&fr, &profile),
            chrome_trace_json(&fr, &profile)
        );
    }
}
