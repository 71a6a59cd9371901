//! Sim-time-aware run profiling: phase spans over the survey pipeline.
//!
//! Each phase (worldgen build, shard run, merge, analysis, report) records
//! its wall-clock duration; phases that advance virtual time (the shard
//! runs) additionally record the sim horizon they simulated to. Wall-clock
//! values are [`crate::Det::Layout`] by definition and never enter the
//! deterministic export; the sim horizon *is* deterministic and appears
//! there separately.

use bcd_netsim::SimTime;
use std::time::{Duration, Instant};

/// The process's peak resident-set watermark (`VmHWM`) in KiB, read from
/// `/proc/self/status`. `None` off Linux or when the read fails. Monotone
/// over the process lifetime, so successive phase records show which phase
/// pushed the watermark up — the scale profiler's memory axis.
pub fn peak_rss_kib() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                return rest.trim().trim_end_matches(" kB").trim().parse().ok();
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// One completed phase span.
#[derive(Debug, Clone)]
pub struct PhaseRecord {
    /// Phase name (canonical set: `worldgen-build`, `target-extract`,
    /// `source-plans`, `schedule-build`, `shard-spawn`, `shard-run`,
    /// `shard-extract`, `merge`, `analysis`, `report` — free-form names
    /// are fine too).
    pub name: String,
    /// Shard id for per-shard phases (`shard-run` and friends), else
    /// `None`.
    pub shard: Option<usize>,
    /// Wall-clock duration (layout/machine-dependent; excluded from
    /// deterministic output).
    pub wall: Duration,
    /// Virtual-time horizon the phase simulated to, when it ran the engine.
    pub sim_end: Option<SimTime>,
    /// Process peak-RSS watermark (KiB) at phase completion; `None` off
    /// Linux. Machine-dependent, like `wall`.
    pub rss_peak_kib: Option<u64>,
}

/// An append-only list of phase spans, in completion order.
#[derive(Debug, Clone, Default)]
pub struct RunProfile {
    pub phases: Vec<PhaseRecord>,
}

impl RunProfile {
    pub fn new() -> RunProfile {
        RunProfile::default()
    }

    /// Record an already-measured phase (stamps the current RSS watermark).
    pub fn record(&mut self, name: &str, wall: Duration) {
        self.phases.push(PhaseRecord {
            name: name.to_string(),
            shard: None,
            wall,
            sim_end: None,
            rss_peak_kib: peak_rss_kib(),
        });
    }

    /// Record a per-shard engine phase with its sim horizon.
    pub fn record_shard(&mut self, name: &str, shard: usize, wall: Duration, sim_end: SimTime) {
        self.phases.push(PhaseRecord {
            name: name.to_string(),
            shard: Some(shard),
            wall,
            sim_end: Some(sim_end),
            rss_peak_kib: peak_rss_kib(),
        });
    }

    /// Record a per-shard phase that does not advance virtual time
    /// (runtime spawn, artifact extraction).
    pub fn record_shard_phase(&mut self, name: &str, shard: usize, wall: Duration) {
        self.phases.push(PhaseRecord {
            name: name.to_string(),
            shard: Some(shard),
            wall,
            sim_end: None,
            rss_peak_kib: peak_rss_kib(),
        });
    }

    /// Time a closure as a phase and return its result.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(name, t0.elapsed());
        out
    }

    /// Total wall time across all recorded phases.
    pub fn total_wall(&self) -> Duration {
        self.phases.iter().map(|p| p.wall).sum()
    }

    /// The sim horizon of the run: the maximum `sim_end` over all phases
    /// (identical across shards — every shard simulates the same horizon).
    pub fn sim_horizon(&self) -> Option<SimTime> {
        self.phases.iter().filter_map(|p| p.sim_end).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_records_a_phase() {
        let mut p = RunProfile::new();
        let v = p.time("analysis", || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(p.phases.len(), 1);
        assert_eq!(p.phases[0].name, "analysis");
        assert!(p.phases[0].shard.is_none());
        assert!(p.phases[0].sim_end.is_none());
    }

    #[test]
    fn shard_phases_carry_sim_horizon() {
        let mut p = RunProfile::new();
        p.record("worldgen-build", Duration::from_millis(5));
        p.record_shard(
            "shard-run",
            0,
            Duration::from_millis(10),
            SimTime::from_secs(3600),
        );
        p.record_shard(
            "shard-run",
            1,
            Duration::from_millis(12),
            SimTime::from_secs(3600),
        );
        assert_eq!(p.sim_horizon(), Some(SimTime::from_secs(3600)));
        assert_eq!(p.total_wall(), Duration::from_millis(27));
    }
}
