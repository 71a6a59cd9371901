//! # bcd-obs — deterministic observability for the survey pipeline
//!
//! The paper's survey (§3) is a multi-phase instrument: build a world, run
//! the spoofed scan (possibly sharded by destination AS), merge the
//! per-shard artifacts, analyse, render. Auditing such an instrument needs
//! two kinds of visibility with *opposite* determinism requirements:
//!
//! * **what the run measured** — probe/drop accounting, resolver cache
//!   behaviour, scanner progress. These must be *deterministic*: the same
//!   seed must produce byte-identical numbers at any shard count, or the
//!   observability layer itself would cast doubt on the sharding contract.
//! * **what the run cost** — wall-clock phase timings, per-shard work
//!   split. These are inherently machine- and layout-dependent.
//!
//! The crate keeps the two rigorously separated. Every metric and every
//! exported record carries a determinism class ([`Det`]):
//!
//! * [`Det::Stable`] values derive from *merged* run artifacts (the query
//!   log, scanner stats, client-path resolver counters) and are
//!   shard-count-invariant; the equivalence suite byte-compares their JSONL
//!   across `BCD_SHARDS` ∈ {1, 4, 8}.
//! * [`Det::Layout`] values (engine event counts, which include timers
//!   every shard runtime repeats; raw packet and cache counters, kept here
//!   conservatively; per-shard breakdowns; wall-clock durations) are
//!   reported separately and excluded from the deterministic output.
//!
//! Pieces:
//!
//! * [`MetricsRegistry`] — labeled counters, gauges, and fixed-bucket
//!   histograms in a canonically-ordered map; implements the simulator's
//!   [`bcd_netsim::Merge`] trait so per-shard registries fold into the same
//!   aggregate in any order-of-shards (the fold is commutative: every
//!   combine is a sum).
//! * [`RunProfile`] — sim-time-aware spans: each pipeline phase (worldgen
//!   build, shard run, merge, analysis, report) records its wall-clock
//!   duration and, where it advances virtual time, the sim horizon it ran
//!   to.
//! * [`RunObservation`] — one run's full observability artifact:
//!   profile + deterministic aggregate + per-shard slices.
//! * [`export`] — a structured JSONL encoder, one self-describing record
//!   per line, `det` flag on every record.
//! * [`report`] — the human-readable "run report" renderer (full, and a
//!   deterministic-only variant that the golden snapshot pins).
//! * [`ObsEnv`] — the zero-cost-when-disabled handle: reading the
//!   environment once yields either no-op sinks (default: no export, no
//!   heartbeat) or the configured ones; hot paths only ever consult plain
//!   `Option`s. [`ObsEnv::export`] is the one writer of a run's files (the
//!   `BCD_OBS` JSONL and the `BCD_TRACE` Chrome trace): the pipeline
//!   writes none, and each caller exports once, after its last phase.

pub mod chrome;
pub mod export;
pub mod metrics;
pub mod profile;
pub mod report;

pub use chrome::chrome_trace_json;
pub use export::{deterministic_jsonl, full_jsonl};
pub use metrics::{Det, Histogram, MetricKey, MetricValue, MetricsRegistry};
pub use profile::{peak_rss_kib, PhaseRecord, RunProfile};

use bcd_netsim::{FlightRecorder, TraceSample};
use std::path::{Path, PathBuf};

/// One run's complete observability artifact, assembled by the experiment
/// orchestrator after the merge.
#[derive(Debug, Default)]
pub struct RunObservation {
    /// Master seed of the run (mirrors the world config).
    pub seed: u64,
    /// Effective shard count (after clamping to distinct destination ASes).
    pub shards: usize,
    /// Wall + sim phase spans.
    pub profile: RunProfile,
    /// Merged metrics: [`Det::Stable`] entries are shard-count-invariant,
    /// [`Det::Layout`] entries are sums over the actual shard layout.
    pub aggregate: MetricsRegistry,
    /// Per-shard metric slices, in shard-id order (always [`Det::Layout`]:
    /// the split itself depends on the shard count).
    pub per_shard: Vec<MetricsRegistry>,
}

/// Causal-tracing configuration (the `BCD_TRACE` knob).
///
/// Grammar: comma-separated `key=value` settings —
/// `BCD_TRACE=sample=1/64,qname=dns-lab.org,cap=65536,out=trace.json`.
/// A bare `BCD_TRACE=1` arms the recorder with defaults (trace every
/// query, 65 536-span window, no Chrome export).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Origin-side sampling policy (`sample=1/N` + `qname=suffix`).
    pub sample: TraceSample,
    /// Flight-recorder window capacity in spans (`cap=N`).
    pub capacity: usize,
    /// Write the Chrome trace-event JSON here ([`ObsEnv::export`];
    /// `out=path`).
    pub chrome_out: Option<PathBuf>,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            sample: TraceSample::default(),
            capacity: 65_536,
            chrome_out: None,
        }
    }
}

impl TraceConfig {
    /// Parse a `BCD_TRACE` value. Empty and `0` mean "off" (`Ok(None)`),
    /// a bare `1` arms the defaults, and anything else must be `key=value`
    /// settings from the grammar above: an unknown key, an empty value or
    /// a number that does not parse is an error naming the setting.
    pub fn parse(spec: &str) -> Result<Option<TraceConfig>, String> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "0" {
            return Ok(None);
        }
        let mut cfg = TraceConfig::default();
        if spec == "1" {
            return Ok(Some(cfg));
        }
        for part in spec.split(',') {
            let Some((key, value)) = part.split_once('=') else {
                return Err(format!("`{part}` is not a key=value setting"));
            };
            let value = value.trim();
            if value.is_empty() {
                return Err(format!("`{part}` has no value"));
            }
            match key.trim() {
                // `1/N` (or a bare `N`, read as 1/N).
                "sample" => {
                    let n = value.strip_prefix("1/").unwrap_or(value).parse().ok();
                    cfg.sample.every = n
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("`{part}` wants 1/N with N a positive integer"))?;
                }
                "qname" => cfg.sample.qname_suffix = Some(value.to_string()),
                "cap" => {
                    let c = value.parse().ok().filter(|&c| c > 0);
                    cfg.capacity = c.ok_or_else(|| format!("`{part}` wants a positive integer"))?;
                }
                "out" => cfg.chrome_out = Some(PathBuf::from(value)),
                other => return Err(format!("unknown key `{other}`")),
            }
        }
        Ok(Some(cfg))
    }
}

/// Environment-driven observability switches, read once per run.
///
/// The default is fully disabled: no JSONL sink, no heartbeat, no flight
/// recorder. Hot paths receive at most a copied `Option` out of this
/// struct, so the disabled cost is an untaken branch.
#[derive(Debug, Clone, Default)]
pub struct ObsEnv {
    /// `BCD_OBS=path.jsonl` — [`ObsEnv::export`] writes the full JSONL
    /// export here.
    pub jsonl_path: Option<PathBuf>,
    /// `BCD_PROGRESS=N` — scanner heartbeat to stderr every N probes
    /// (`0`, empty, or unset disables; anything but a non-negative
    /// integer is an error).
    pub progress_every: Option<u64>,
    /// `BCD_TRACE=sample=1/N[,qname=suffix][,cap=N][,out=path]` — arm the
    /// causal span flight recorder (see [`TraceConfig`]).
    pub trace: Option<TraceConfig>,
}

impl ObsEnv {
    /// All sinks off (the no-op default).
    pub fn disabled() -> ObsEnv {
        ObsEnv::default()
    }

    /// Read `BCD_OBS` / `BCD_PROGRESS` / `BCD_TRACE`. Panics on a
    /// malformed `BCD_PROGRESS` or `BCD_TRACE`, naming the variable and its
    /// value.
    pub fn from_env() -> ObsEnv {
        let jsonl_path = std::env::var_os("BCD_OBS")
            .filter(|v| !v.is_empty())
            .map(PathBuf::from);
        let progress_every = env_str("BCD_PROGRESS")
            .and_then(|v| parse_progress(&v).unwrap_or_else(|e| panic!("BCD_PROGRESS={v:?}: {e}")));
        let trace = env_str("BCD_TRACE").and_then(|v| {
            TraceConfig::parse(&v).unwrap_or_else(|e| panic!("BCD_TRACE={v:?}: {e}"))
        });
        ObsEnv {
            jsonl_path,
            progress_every,
            trace,
        }
    }

    /// [`ObsEnv::disabled`] plus an armed flight recorder — what the chaos
    /// harness uses so violation dumps carry the causal window.
    pub fn with_trace(cfg: TraceConfig) -> ObsEnv {
        ObsEnv {
            trace: Some(cfg),
            ..ObsEnv::default()
        }
    }

    /// Write a finished run's files: the full JSONL export to `BCD_OBS`'s
    /// path and, when the run kept a flight recorder, the Chrome trace to
    /// `BCD_TRACE`'s `out=` path, creating parent directories. Call it once,
    /// after the run's last phase is recorded, so both files carry every
    /// phase. A failed write is reported on stderr, naming the variable and
    /// the path; it does not stop the run.
    pub fn export(&self, obs: &RunObservation, flight: Option<&FlightRecorder>) {
        if let Some(path) = &self.jsonl_path {
            write_sink("BCD_OBS", path, &full_jsonl(obs));
        }
        let chrome_out = self.trace.as_ref().and_then(|t| t.chrome_out.as_ref());
        if let (Some(flight), Some(path)) = (flight, chrome_out) {
            write_sink("BCD_TRACE", path, &chrome_trace_json(flight, &obs.profile));
        }
    }
}

/// Write `contents` to `path`, creating parent directories; a failure is
/// reported on stderr under the variable that named the path.
fn write_sink(var: &str, path: &Path, contents: &str) {
    let write = || -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, contents)
    };
    if let Err(e) = write() {
        eprintln!("[bcd] {var} export to {} failed: {e}", path.display());
    }
}

/// An environment variable's value, `None` when unset; panics, naming the
/// variable, when it is not Unicode.
fn env_str(var: &str) -> Option<String> {
    let v = std::env::var_os(var)?.into_string();
    Some(v.unwrap_or_else(|v| panic!("{var}={v:?} is not Unicode")))
}

/// Parse a `BCD_PROGRESS` value: empty and `0` mean "off" (`Ok(None)`),
/// `N` a heartbeat every `N` probes.
fn parse_progress(v: &str) -> Result<Option<u64>, String> {
    match v.parse::<u64>() {
        _ if v.is_empty() => Ok(None),
        Ok(n) => Ok((n > 0).then_some(n)),
        Err(_) => Err("not a non-negative integer".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_env_is_noop() {
        let e = ObsEnv::disabled();
        assert!(e.jsonl_path.is_none());
        assert!(e.progress_every.is_none());
        assert!(e.trace.is_none());
    }

    #[test]
    fn trace_config_grammar() {
        assert_eq!(TraceConfig::parse(""), Ok(None));
        assert_eq!(TraceConfig::parse("0"), Ok(None));
        let def = TraceConfig::parse("1").unwrap().unwrap();
        assert_eq!(def, TraceConfig::default());
        assert_eq!(def.sample.every, 1);
        assert_eq!(def.capacity, 65_536);

        let full = TraceConfig::parse("sample=1/64,qname=dns-lab.org,cap=1024,out=t.json")
            .unwrap()
            .unwrap();
        assert_eq!(full.sample.every, 64);
        assert_eq!(full.sample.qname_suffix.as_deref(), Some("dns-lab.org"));
        assert_eq!(full.capacity, 1024);
        assert_eq!(
            full.chrome_out.as_deref(),
            Some(std::path::Path::new("t.json"))
        );

        // Bare-N sampling.
        let bare = TraceConfig::parse("sample=8").unwrap().unwrap();
        assert_eq!(bare.sample.every, 8);

        // Unknown keys and malformed values are errors, never silent
        // defaults.
        for bad in [
            "sample=8,bogus=1",
            "smaple=1/64",
            "sample=1/x",
            "sample=1/0",
            "cap=abc",
            "cap=0",
            "qname=",
            "out=",
            "on",
            "1,sample=1/64",
        ] {
            assert!(TraceConfig::parse(bad).is_err(), "{bad} parsed");
        }
        let err = TraceConfig::parse("smaple=1/64").unwrap_err();
        assert!(err.contains("smaple"), "{err}");
    }

    #[test]
    fn progress_grammar() {
        assert_eq!(parse_progress(""), Ok(None));
        assert_eq!(parse_progress("0"), Ok(None));
        assert_eq!(parse_progress("1"), Ok(Some(1)));
        assert_eq!(parse_progress("250000"), Ok(Some(250_000)));
        for bad in ["ten", "-1", "1.5", " 5"] {
            assert!(parse_progress(bad).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn export_writes_both_sinks_into_new_directories() {
        let mut obs = RunObservation {
            seed: 7,
            shards: 2,
            ..RunObservation::default()
        };
        obs.aggregate.add_counter("x.count", &[], Det::Stable, 3);
        obs.profile
            .record("report", std::time::Duration::from_millis(2));
        let dir = std::env::temp_dir().join(format!("bcd-obs-export-{}", std::process::id()));
        let jsonl = dir.join("a").join("run.jsonl");
        let chrome = dir.join("b").join("c").join("trace.json");
        let env = ObsEnv {
            jsonl_path: Some(jsonl.clone()),
            trace: Some(TraceConfig {
                chrome_out: Some(chrome.clone()),
                ..TraceConfig::default()
            }),
            ..ObsEnv::disabled()
        };
        // Without a flight recorder there is no trace to write.
        env.export(&obs, None);
        assert_eq!(std::fs::read_to_string(&jsonl).unwrap(), full_jsonl(&obs));
        assert!(!chrome.exists());

        let flight = FlightRecorder::with_capacity(16);
        env.export(&obs, Some(&flight));
        let trace = std::fs::read_to_string(&chrome).unwrap();
        assert_eq!(trace, chrome_trace_json(&flight, &obs.profile));
        assert!(trace.contains("\"report\""), "{trace}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
