//! Structured JSONL export.
//!
//! One self-describing JSON object per line; every record carries a `det`
//! flag. `det:true` records are the deterministic surface: they derive
//! from merged run artifacts and are byte-identical at any shard count
//! (the shard-equivalence suite compares [`deterministic_jsonl`] across
//! `BCD_SHARDS` configurations). `det:false` records carry everything
//! layout- or machine-dependent: wall-clock phase timings, per-shard
//! splits, and raw engine counters.
//!
//! The encoder is hand-rolled (the workspace vendors no JSON crate): keys
//! are emitted in a fixed order, strings escaped per RFC 8259, and all
//! numbers are integers (wall time is exported as microseconds), so the
//! byte-level output is stable across platforms.

use crate::metrics::{Det, Metric, MetricKey, MetricValue};
use crate::{PhaseRecord, RunObservation};
use std::fmt::Write;

/// Escape a string for a JSON string literal (quotes not included).
/// Shared by the JSONL and Chrome trace encoders.
pub(crate) fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    let _ = write!(out, "\"{key}\":\"");
    escape(value, out);
    out.push('"');
}

fn push_labels(out: &mut String, labels: &[(String, String)]) {
    out.push_str("\"labels\":{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape(k, out);
        out.push_str("\":\"");
        escape(v, out);
        out.push('"');
    }
    out.push('}');
}

fn push_u64_array(out: &mut String, key: &str, values: &[u64]) {
    let _ = write!(out, "\"{key}\":[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

/// One `{"type":"metric",...}` line (no trailing newline).
fn metric_line(key: &MetricKey, m: &Metric, shard: Option<usize>) -> String {
    let mut s = String::with_capacity(96);
    s.push_str("{\"type\":\"metric\",\"det\":");
    s.push_str(if m.det == Det::Stable {
        "true"
    } else {
        "false"
    });
    s.push(',');
    push_str_field(&mut s, "name", &key.name);
    s.push(',');
    push_labels(&mut s, &key.labels);
    if let Some(sid) = shard {
        let _ = write!(s, ",\"shard\":{sid}");
    }
    match &m.value {
        MetricValue::Counter(c) => {
            let _ = write!(s, ",\"kind\":\"counter\",\"value\":{c}");
        }
        MetricValue::Gauge(g) => {
            let _ = write!(s, ",\"kind\":\"gauge\",\"value\":{g}");
        }
        MetricValue::Histogram(h) => {
            s.push_str(",\"kind\":\"histogram\",");
            push_u64_array(&mut s, "bounds", &h.bounds);
            s.push(',');
            push_u64_array(&mut s, "counts", &h.counts);
            let _ = write!(s, ",\"count\":{},\"sum\":{}", h.count, h.sum);
        }
    }
    s.push('}');
    s
}

fn phase_line(p: &PhaseRecord) -> String {
    let mut s = String::with_capacity(96);
    s.push_str("{\"type\":\"phase\",\"det\":false,");
    push_str_field(&mut s, "name", &p.name);
    match p.shard {
        Some(sid) => {
            let _ = write!(s, ",\"shard\":{sid}");
        }
        None => s.push_str(",\"shard\":null"),
    }
    let _ = write!(s, ",\"wall_us\":{}", p.wall.as_micros());
    match p.sim_end {
        Some(t) => {
            let _ = write!(s, ",\"sim_end_ns\":{}", t.as_nanos());
        }
        None => s.push_str(",\"sim_end_ns\":null"),
    }
    match p.rss_peak_kib {
        Some(kib) => {
            let _ = write!(s, ",\"rss_peak_kib\":{kib}");
        }
        None => s.push_str(",\"rss_peak_kib\":null"),
    }
    s.push('}');
    s
}

/// The deterministic export: `det:true` lines only, in canonical metric
/// order, plus the run's sim horizon. Byte-identical across shard counts.
pub fn deterministic_jsonl(obs: &RunObservation) -> String {
    let mut out = String::new();
    if let Some(h) = obs.profile.sim_horizon() {
        let _ = writeln!(
            out,
            "{{\"type\":\"sim\",\"det\":true,\"horizon_ns\":{}}}",
            h.as_nanos()
        );
    }
    for (k, m) in obs.aggregate.iter_class(Det::Stable) {
        out.push_str(&metric_line(k, m, None));
        out.push('\n');
    }
    out
}

/// The full export: a meta record, the deterministic block, then every
/// layout-dependent record (aggregate layout metrics, per-shard slices,
/// phase timings).
pub fn full_jsonl(obs: &RunObservation) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"det\":false,\"tool\":\"bcd-obs\",\"version\":1,\"seed\":{},\"shards\":{}}}",
        obs.seed, obs.shards
    );
    out.push_str(&deterministic_jsonl(obs));
    for (k, m) in obs.aggregate.iter_class(Det::Layout) {
        out.push_str(&metric_line(k, m, None));
        out.push('\n');
    }
    for (sid, reg) in obs.per_shard.iter().enumerate() {
        for (k, m) in reg.iter() {
            out.push_str(&metric_line(k, m, Some(sid)));
            out.push('\n');
        }
    }
    for p in &obs.profile.phases {
        out.push_str(&phase_line(p));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use bcd_netsim::SimTime;
    use std::time::Duration;

    fn obs() -> RunObservation {
        let mut o = RunObservation {
            seed: 2019,
            shards: 2,
            ..RunObservation::default()
        };
        o.aggregate
            .add_counter("scanner.spoofed_sent", &[], Det::Stable, 42);
        o.aggregate
            .add_counter("net.drop", &[("reason", "dsav-ingress")], Det::Stable, 7);
        o.aggregate.add_counter("net.sent", &[], Det::Layout, 99);
        o.aggregate
            .observe("log.hours", &[], Det::Stable, &[1, 2], 1);
        let mut s0 = MetricsRegistry::new();
        s0.add_counter("net.sent", &[], Det::Layout, 60);
        o.per_shard.push(s0);
        o.profile
            .record("worldgen-build", Duration::from_micros(1500));
        o.profile.record_shard(
            "shard-run",
            0,
            Duration::from_millis(3),
            SimTime::from_secs(60),
        );
        o
    }

    #[test]
    fn deterministic_block_has_only_stable_records() {
        let text = deterministic_jsonl(&obs());
        assert!(text.contains("\"horizon_ns\":60000000000"));
        assert!(text.contains("\"scanner.spoofed_sent\""));
        assert!(text.contains("\"reason\":\"dsav-ingress\""));
        for line in text.lines() {
            assert!(line.contains("\"det\":true"), "non-det line: {line}");
        }
        // No wall-clock field anywhere in the deterministic block.
        assert!(!text.contains("wall_us"));
        assert!(!text.contains("\"net.sent\""));
    }

    #[test]
    fn full_export_layers_meta_layout_shards_phases() {
        let text = full_jsonl(&obs());
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"type\":\"meta\"") && lines[0].contains("\"seed\":2019"));
        assert!(text.contains("\"shard\":0"));
        assert!(text.contains("\"wall_us\":1500"));
        assert!(text.contains("\"sim_end_ns\":60000000000"));
        assert!(text.contains("\"kind\":\"histogram\""));
        assert!(text.contains("\"bounds\":[1,2]"));
        // Every line parses as a single JSON object (cheap structural check).
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn strings_are_escaped() {
        let mut o = RunObservation::default();
        o.aggregate
            .add_counter("weird\"name", &[("k\\", "v\n")], Det::Stable, 1);
        o.aggregate
            .add_counter("ctl", &[("r\r", "t\t\u{1}")], Det::Stable, 1);
        let text = deterministic_jsonl(&o);
        assert!(text.contains("weird\\\"name"));
        assert!(text.contains("k\\\\"));
        assert!(text.contains("v\\n"));
        assert!(text.contains("\"r\\r\":\"t\\t\\u0001\""), "{text}");
    }
}
