//! The chaos harness: seeded fault sweeps, invariant gating, and
//! minimal-reproducer shrinking.
//!
//! The paper's survey had to stay sound through real-world failures —
//! outages, loss, administrative interruptions (§3.4) — because its whole
//! argument is conservative: a spoofed probe that *arrives* proves the
//! border did not validate, and anything the network eats only makes the
//! estimate smaller. This module stress-tests that argument in simulation:
//!
//! 1. compile a seeded [`FaultSchedule`](bcd_netsim::FaultSchedule) from a
//!    `(seed, profile)` pair ([`chaos_seed`], [`bcd_netsim::ChaosConfig`]),
//! 2. run the full experiment under it and gate the output through the
//!    [`InvariantChecker`] against a clean same-seed baseline,
//! 3. on violation, delta-debug the schedule ([`shrink_schedule`]) down to
//!    a minimal set of fault events and print it as a `BCD_CHAOS=...`
//!    replay line anyone can paste to reproduce the failure exactly —
//!    across any `BCD_SHARDS` value, since fault fates are pure functions
//!    of shard-invariant packet keys.
//!
//! Checked runs additionally arm the causal span flight recorder
//! ([`bcd_netsim::FlightRecorder`]), so a violation can be dumped as one
//! self-contained artifact ([`violation_artifact`]): the run report, the
//! shrunk replay line, and the causal window of spans leading up to the
//! failure — all shard-invariant bytes.

use crate::analysis::openclosed::OpenClosedReport;
use crate::analysis::reachability::Reachability;
use crate::experiment::{Experiment, ExperimentConfig, ExperimentData};
use crate::invariants::{InvariantChecker, InvariantReport};
use bcd_netsim::hash::{fnv1a, FNV_OFFSET};
use bcd_netsim::{stream_seed, ChaosConfig, ChaosSpec};
use bcd_obs::{ObsEnv, TraceConfig};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Stream id for deriving a chaos seed from the world seed (mixed with the
/// profile name so each profile gets an independent schedule).
const CHAOS_SEED_STREAM: u64 = 0x4348_414F_5353_4431; // "CHAOSSD1"

/// The default profile set a sweep fans over: one ambient-loss profile,
/// one windowed-burst, one delay/reorder, one crash/restart, and the
/// off-path spoofed-response adversary.
pub const SWEEP_PROFILES: [&str; 5] = ["drizzle", "bursty", "jittery", "crashy", "spoofy"];

/// The canonical chaos seed for `(world_seed, profile)`: any sweep or
/// replay that starts from the same pair compiles the same schedule.
pub fn chaos_seed(world_seed: u64, profile: &str) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, profile.as_bytes());
    stream_seed(world_seed, CHAOS_SEED_STREAM ^ h)
}

/// The canonical [`ChaosConfig`] for `(world_seed, profile)`.
///
/// Returns `None` for an unknown profile name (see
/// [`bcd_netsim::ChaosProfile::names`]).
pub fn chaos_config(world_seed: u64, profile: &str) -> Option<ChaosConfig> {
    ChaosConfig::named(chaos_seed(world_seed, profile), profile)
}

/// Run the clean (fault-free) baseline for `base`.
pub fn run_clean(base: &ExperimentConfig) -> ExperimentData {
    let mut cfg = base.clone();
    cfg.world.chaos = None;
    Experiment::run_observed(cfg, &ObsEnv::disabled())
}

/// Run `base` under a chaos config.
pub fn run_chaotic(base: &ExperimentConfig, chaos: ChaosConfig) -> ExperimentData {
    let mut cfg = base.clone();
    cfg.world.chaos = Some(chaos);
    Experiment::run_observed(cfg, &ObsEnv::disabled())
}

/// Replay a printed `BCD_CHAOS=...` line (its `seed=..,profile=..` part)
/// against `base`. Returns `None` for an unknown profile.
pub fn replay(base: &ExperimentConfig, spec: &ChaosSpec) -> Option<ExperimentData> {
    Some(run_chaotic(base, ChaosConfig::from_spec(spec)?))
}

/// Order-insensitive-free digest of the canonical merged query log: the
/// cheapest "this run is byte-identical to that run" witness. Two runs
/// with equal digests saw the same queries arrive at the same instants
/// from the same sources over the same transports.
pub fn entries_digest(data: &ExperimentData) -> u64 {
    let mut h = FNV_OFFSET;
    let mut mix = |bytes: &[u8]| fnv1a(&mut h, bytes);
    for e in &data.entries {
        mix(&e.time.as_nanos().to_le_bytes());
        mix(e.qname.to_string().as_bytes());
        mix(e.src.to_string().as_bytes());
        mix(e.server.to_string().as_bytes());
        mix(&e.src_port.to_le_bytes());
        mix(&[
            e.observed_ttl,
            matches!(e.proto, bcd_dns::LogProto::Tcp) as u8,
        ]);
    }
    h
}

/// One checked chaos run.
pub struct ChaosRun {
    /// The replayable identity of the schedule that ran.
    pub spec: ChaosSpec,
    pub data: ExperimentData,
    pub invariants: InvariantReport,
}

/// Run `(base, chaos)` and gate it through the full invariant checker
/// against the supplied clean baseline.
///
/// The run arms the causal span flight recorder (default capacity, every
/// query traced), so `data.flight` carries the causal window a
/// [`violation_artifact`] dump needs. Tracing is observer-only — it never
/// changes simulation behaviour, so reports and digests are unaffected.
pub fn run_checked(
    base: &ExperimentConfig,
    chaos: ChaosConfig,
    clean: &ExperimentData,
) -> ChaosRun {
    let spec = chaos.spec();
    let mut cfg = base.clone();
    cfg.world.chaos = Some(chaos);
    let data = Experiment::run_observed(cfg, &ObsEnv::with_trace(TraceConfig::default()));
    let invariants = InvariantChecker::check_full(clean, &data);
    ChaosRun {
        spec,
        data,
        invariants,
    }
}

/// Render one invariant violation as a single self-contained artifact:
/// the chaos run report (schedule shape + replay line + survey summaries +
/// verdict), the ddmin-shrunk minimal reproducer when available, and the
/// causal flight-recorder window leading up to the failure. Every section
/// is shard-invariant, so the artifact is byte-identical under any
/// `BCD_SHARDS` / scheduler configuration (the trace-invariance suite
/// locks this in).
pub fn violation_artifact(
    clean: &ExperimentData,
    run: &ChaosRun,
    minimal: Option<&ChaosSpec>,
) -> String {
    let mut out = render_run_report(clean, run);
    if let Some(min) = minimal {
        let _ = writeln!(out, "minimal reproducer: BCD_CHAOS={min}");
    }
    match &run.data.flight {
        Some(f) => {
            out.push_str("\n-- causal window (flight recorder) --\n");
            out.push_str(&f.dump());
        }
        None => out.push_str("\n-- causal window unavailable (tracing was not armed) --\n"),
    }
    out
}

fn summary_line(label: &str, data: &ExperimentData) -> String {
    let reach = Reachability::compute(&data.input());
    let oc = OpenClosedReport::compute(&data.input(), &reach);
    format!(
        "{label}: entries={} reached_addrs={} reached_asns={} open={} closed={}\n",
        data.entries.len(),
        reach.reached.len(),
        reach.reached_asns_all().len(),
        oc.open.len(),
        oc.closed.len(),
    )
}

/// Deterministic run report for one chaos run: the schedule's shape, the
/// replay line, clean-vs-chaos survey summaries, and the invariant
/// verdict. Every field is shard-invariant, so the rendering is
/// byte-identical under any `BCD_SHARDS` (the chaos golden test pins it).
pub fn render_run_report(clean: &ExperimentData, run: &ChaosRun) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== chaos run: world seed={} profile={} ==",
        clean.cfg.world.seed, run.spec.profile
    );
    let _ = writeln!(out, "replay: BCD_CHAOS={}", run.spec);
    if let Some(f) = &run.data.world.faults {
        let _ = writeln!(
            out,
            "schedule: {} of {} events enabled (horizon {}s)",
            f.enabled_ids().len(),
            f.events().len(),
            f.horizon().as_secs()
        );
        for (kind, n) in f.event_counts() {
            let _ = writeln!(out, "  {kind}: {n}");
        }
    }
    out.push_str(&summary_line("clean", clean));
    out.push_str(&summary_line("chaos", &run.data));
    out.push_str(&run.invariants.render());
    out
}

/// One row of a sweep.
pub struct SweepRun {
    pub world_seed: u64,
    pub spec: ChaosSpec,
    /// Enabled-event counts by kind, from the compiled schedule.
    pub event_counts: BTreeMap<&'static str, u64>,
    pub invariants: InvariantReport,
    /// Minimal reproducer, when the run violated and shrinking ran.
    pub minimal: Option<ChaosSpec>,
    /// Self-contained violation dump ([`violation_artifact`]): run report,
    /// minimal replay line, and the causal flight-recorder window. `None`
    /// when the run held.
    pub artifact: Option<String>,
}

/// A completed sweep.
pub struct SweepOutcome {
    pub runs: Vec<SweepRun>,
}

impl SweepOutcome {
    /// Total violations across all runs.
    pub fn total_violations(&self) -> usize {
        self.runs
            .iter()
            .map(|r| r.invariants.violations.len())
            .sum()
    }

    /// Deterministic sweep summary: one line per `(seed, profile)` run,
    /// then replay lines for every violation's minimal reproducer.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== chaos sweep: {} runs, {} violations ==",
            self.runs.len(),
            self.total_violations()
        );
        for r in &self.runs {
            let events: u64 = r.event_counts.values().sum();
            let _ = writeln!(
                out,
                "seed={} profile={} events={} checked={} violations={}",
                r.world_seed,
                r.spec.profile,
                events,
                r.invariants.checked.len(),
                r.invariants.violations.len()
            );
        }
        for r in &self.runs {
            if let Some(min) = &r.minimal {
                let _ = writeln!(
                    out,
                    "minimal reproducer (world seed {}): BCD_CHAOS={min}",
                    r.world_seed
                );
            }
        }
        out
    }
}

/// Fan `seeds × profiles` through the experiment, checking every run. One
/// clean baseline is computed per seed and reused across that seed's
/// profiles. When a run violates an invariant, the schedule is shrunk to
/// a minimal reproducer (unless `shrink` is false — CI smoke keeps it on).
pub fn sweep<F>(make_cfg: F, seeds: &[u64], profiles: &[&str], shrink: bool) -> SweepOutcome
where
    F: Fn(u64) -> ExperimentConfig,
{
    let mut runs = Vec::new();
    for &seed in seeds {
        let base = make_cfg(seed);
        let clean = run_clean(&base);
        for profile in profiles {
            let chaos = chaos_config(seed, profile)
                .unwrap_or_else(|| panic!("unknown chaos profile {profile:?}"));
            let run = run_checked(&base, chaos, &clean);
            let event_counts = run
                .data
                .world
                .faults
                .as_ref()
                .map(|f| f.event_counts())
                .unwrap_or_default();
            let minimal = if shrink && !run.invariants.is_ok() {
                Some(shrink_schedule(&base, &clean, &run.data, &|clean, data| {
                    !InvariantChecker::check_full(clean, data).is_ok()
                }))
            } else {
                None
            };
            let artifact = (!run.invariants.is_ok())
                .then(|| violation_artifact(&clean, &run, minimal.as_ref()));
            runs.push(SweepRun {
                world_seed: seed,
                spec: run.spec,
                event_counts,
                invariants: run.invariants,
                minimal,
                artifact,
            });
        }
    }
    SweepOutcome { runs }
}

/// Delta-debug (ddmin) a failing fault schedule down to a minimal set of
/// event ids that still trips `violates`, and return it as a replayable
/// spec. `failing` must be a chaotic run over `base` for which
/// `violates(clean, failing)` holds; the 1-minimal result is typically a
/// handful of events out of a schedule of dozens.
pub fn shrink_schedule<F>(
    base: &ExperimentConfig,
    clean: &ExperimentData,
    failing: &ExperimentData,
    violates: &F,
) -> ChaosSpec
where
    F: Fn(&ExperimentData, &ExperimentData) -> bool,
{
    let chaos = failing
        .cfg
        .world
        .chaos
        .clone()
        .expect("failing run must carry a chaos config");
    let all_ids = failing
        .world
        .faults
        .as_ref()
        .map(|f| f.enabled_ids())
        .unwrap_or_default();
    let minimal = ddmin(all_ids, |subset| {
        let mut cfg = chaos.clone();
        cfg.only_events = Some(subset.to_vec());
        let data = run_chaotic(base, cfg);
        violates(clean, &data)
    });
    let mut spec = chaos.spec();
    spec.events = Some(minimal);
    spec
}

/// Classic ddmin over a list of event ids. `fails(subset)` must hold for
/// the initial list; the result is a 1-minimal failing subset (removing
/// any single remaining id makes the failure disappear... up to ddmin's
/// chunk granularity guarantees).
fn ddmin<F>(mut ids: Vec<u32>, mut fails: F) -> Vec<u32>
where
    F: FnMut(&[u32]) -> bool,
{
    let mut n = 2usize;
    while ids.len() >= 2 {
        let chunk = ids.len().div_ceil(n);
        let chunks: Vec<&[u32]> = ids.chunks(chunk).collect();
        // Reduce to a failing chunk…
        if let Some(found) = chunks.iter().find(|c| fails(c)) {
            ids = found.to_vec();
            n = 2;
            continue;
        }
        // …or to a failing complement.
        let mut reduced = None;
        for i in 0..chunks.len() {
            let complement: Vec<u32> = chunks
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .flat_map(|(_, c)| c.iter().copied())
                .collect();
            if complement.len() < ids.len() && fails(&complement) {
                reduced = Some(complement);
                break;
            }
        }
        if let Some(r) = reduced {
            n = (n - 1).max(2);
            ids = r;
            continue;
        }
        if n >= ids.len() {
            break;
        }
        n = (n * 2).min(ids.len());
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddmin_finds_single_culprit() {
        let ids: Vec<u32> = (0..32).collect();
        let mut evals = 0;
        let minimal = ddmin(ids, |subset| {
            evals += 1;
            subset.contains(&17)
        });
        assert_eq!(minimal, vec![17]);
        assert!(evals < 64, "ddmin used {evals} evaluations");
    }

    #[test]
    fn ddmin_finds_conjunction() {
        let ids: Vec<u32> = (0..24).collect();
        let minimal = ddmin(ids, |s| s.contains(&3) && s.contains(&20));
        assert_eq!(minimal, vec![3, 20]);
    }

    #[test]
    fn chaos_seed_depends_on_profile_and_seed() {
        assert_ne!(chaos_seed(1, "drizzle"), chaos_seed(1, "bursty"));
        assert_ne!(chaos_seed(1, "drizzle"), chaos_seed(2, "drizzle"));
        assert_eq!(chaos_seed(7, "crashy"), chaos_seed(7, "crashy"));
    }

    #[test]
    fn sweep_profiles_all_resolve() {
        for p in SWEEP_PROFILES {
            assert!(chaos_config(1, p).is_some(), "unknown profile {p}");
        }
    }
}
