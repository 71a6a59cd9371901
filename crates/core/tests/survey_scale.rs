//! Survey-tier batch job: run the spoofing survey end-to-end over the
//! full `internet_scale` world — the paper's ~62k measured ASes and ~12M
//! DITL candidates — with a deterministic keep-1-in-N target subsample
//! bounding the probe count.
//!
//! This is the experiment-level counterpart of worldgen's
//! `internet_scale` smoke: the world is built at full population, the
//! target set is extracted at full population, the schedule census runs
//! over every kept target, and the per-shard streaming constructor never
//! materializes the global query vec — only the sampled schedule exists
//! in memory. The run must fit the same CI budget (< 8 GiB peak RSS) and
//! reproduce the Table 1/2 shape marginals at survey level.
//!
//! Knobs (all optional):
//! * `BCD_SURVEY_SAMPLE` — keep-1-in-N target sampling (default 4096).
//! * `BCD_SHARDS` / `BCD_WORKERS` — honoured by the config constructors.
//! * `BCD_SCALE_PROFILE=path.jsonl` — export the per-phase wall/RSS
//!   breakdown for the CI artifact.
//! * `BCD_SURVEY_REPORT=path.txt` — write the deterministic run report.
//!
//! Ignored by default: this is a release-mode batch job (`cargo test -r
//! -p bcd-core -- --ignored survey_full_population`). The CI
//! `survey-smoke` job runs it.

use bcd_core::analysis::reachability::Reachability;
use bcd_core::{Experiment, ExperimentConfig};
use bcd_netsim::{Asn, SimDuration};
use bcd_obs::ObsEnv;
use bcd_worldgen::WorldConfig;
use std::collections::HashSet;

/// Peak resident set size of this process in GiB (`VmHWM` from
/// `/proc/self/status`). Linux-only, like the CI runner.
fn peak_rss_gib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .expect("VmHWM line")
        .parse()
        .expect("VmHWM value");
    kb / (1024.0 * 1024.0)
}

#[test]
#[ignore = "release-mode batch job: surveys the full 62k-AS world"]
fn survey_full_population_within_budget() {
    let sample: u64 = std::env::var("BCD_SURVEY_SAMPLE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4096);
    let mut cfg = ExperimentConfig::paper_shape(2019);
    cfg.world = WorldConfig::internet_scale(2019);
    cfg.target_sample = Some(sample);
    // Ask for a short window and let the rate cap extend it: the probe
    // count is what it is, and a dense schedule keeps sim time bounded.
    cfg.window = SimDuration::from_mins(5);
    let t0 = std::time::Instant::now();
    let data = Experiment::run_observed(cfg, &ObsEnv::from_env());
    let run_secs = t0.elapsed().as_secs_f64();

    // ---- Table 1 shape at survey level: the *full* target population was
    // extracted (sampling happens at schedule time, not extraction time).
    let n_targets = data.targets.len();
    assert!(
        (8_000_000..=16_000_000).contains(&n_targets),
        "targets: {n_targets}"
    );
    let expected_kept = n_targets as u64 / sample;
    // The keep set is a hash over canonical target bytes — binomial
    // around n/N. Allow a generous ±50% band around the expectation.
    let kept = data
        .obs
        .aggregate
        .counter(bcd_obs::report::names::SCHEDULE_TARGETS, &[]);
    assert!(
        kept >= expected_kept / 2 && kept <= expected_kept * 2,
        "sampled targets {kept} implausible for keep-1-in-{sample} of {n_targets}"
    );
    let probes = data
        .obs
        .aggregate
        .counter(bcd_obs::report::names::SCHEDULE_PROBES, &[]);
    assert_eq!(
        probes,
        data.scanner_stats.spoofed_sent + data.scanner_stats.opted_out,
        "schedule probe accounting must conserve through the scanner"
    );

    // ---- The survey actually ran: spoofed probes went out, the
    // authoritative log filled, and reached populations are non-trivial.
    assert!(
        data.scanner_stats.spoofed_sent > 0,
        "no spoofed probes sent"
    );
    assert!(!data.entries.is_empty(), "authoritative log is empty");
    assert!(!data.budget_exhausted, "a shard hit its event budget");
    let input = data.input();
    let reach = Reachability::compute(&input);
    let reached_addrs = reach.reached.len();
    let reached_asns: HashSet<Asn> = reach.reached.values().map(|h| h.asn).collect();
    assert!(reached_addrs > 0, "no target reached");
    assert!(
        reached_asns.len() >= 10,
        "reached ASNs: {} — survey shape collapsed",
        reached_asns.len()
    );
    // Table 2 shape: both families must appear among reached targets at
    // full population (v6 is >100k targets pre-sampling).
    assert!(
        reach.reached.keys().any(|a| a.is_ipv6()),
        "no v6 target reached"
    );

    // ---- Artifacts for the CI job.
    for p in &data.obs.profile.phases {
        let rss_gib = p
            .rss_peak_kib
            .map(|k| k as f64 / (1024.0 * 1024.0))
            .unwrap_or(f64::NAN);
        eprintln!(
            "survey-profile: {:<16} {:>8.2}s  rss-peak {rss_gib:.2} GiB",
            p.name,
            p.wall.as_secs_f64()
        );
    }
    if let Ok(path) = std::env::var("BCD_SCALE_PROFILE") {
        data.obs
            .write_jsonl(std::path::Path::new(&path))
            .expect("write BCD_SCALE_PROFILE export");
        eprintln!("survey-profile: exported to {path}");
    }
    if let Ok(path) = std::env::var("BCD_SURVEY_REPORT") {
        std::fs::write(
            &path,
            bcd_obs::report::render_run_report_deterministic(&data.obs),
        )
        .expect("write BCD_SURVEY_REPORT");
        eprintln!("survey-report: exported to {path}");
    }

    // ---- Resource budget: same bar as the worldgen smoke. The streaming
    // constructor is what keeps this under the build's own watermark —
    // the global query vec over 12M targets would not fit the margin.
    let rss = peak_rss_gib();
    eprintln!(
        "survey_scale: ran in {run_secs:.1}s, peak RSS {rss:.2} GiB, \
         {} spoofed probes, {reached_addrs} reached addrs, {} reached ASNs",
        data.scanner_stats.spoofed_sent,
        reached_asns.len()
    );
    assert!(rss < 8.0, "peak RSS {rss:.2} GiB exceeds the 8 GiB budget");
}
