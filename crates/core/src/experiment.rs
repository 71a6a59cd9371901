//! End-to-end experiment orchestration: world → target extraction → source
//! planning → schedule → scan → log snapshot.
//!
//! [`Experiment::run`] performs the entire §3 methodology against a
//! generated world and returns an [`ExperimentData`] from which every §4–§5
//! analysis can be computed via [`ExperimentData::input`].

use crate::observe;
use crate::qname::QnameCodec;
use crate::scanner::{HumanNoise, Scanner, ScannerConfig, ScannerStats};
use crate::schedule::{self, LaneLayout, Schedule, ScheduleCensus, ScheduleMode};
use crate::shard::{self, ShardOutcome};
use crate::sources::SourceCategory;
use crate::targets::TargetSet;
use bcd_dns::QueryLogEntry;
use bcd_dnswire::RCode;
use bcd_netsim::{
    stream_seed, FlightRecorder, HostConfig, NetCounters, SimDuration, SimTime, StackPolicy,
};
use bcd_obs::report::names;
use bcd_obs::{Det, MetricsRegistry, ObsEnv, RunObservation, RunProfile};
use bcd_worldgen::{World, WorldConfig, WorldRuntime};
use std::net::IpAddr;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Global probe rate cap (§3.4: the paper's administrative 700 qps).
pub const RATE: u32 = 700;

/// Authoritative-log poll interval (§3.5's "real-time" follow-up latency).
pub const POLL_INTERVAL: SimDuration = SimDuration::from_secs(60);

/// Extra simulation time after the last scheduled probe, to let §3.5
/// follow-ups, retries and §3.6.3 human-noise queries drain.
pub const DRAIN: SimDuration = SimDuration::from_hours(4);

/// Experiment parameters (§3.4–§3.5 knobs). The method's fixed numbers
/// are constants: [`RATE`], [`POLL_INTERVAL`], [`DRAIN`],
/// [`crate::scanner::FOLLOWUPS_PER_FAMILY`] and
/// [`crate::analysis::LIFETIME_THRESHOLD`].
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    pub world: WorldConfig,
    /// Scan window (auto-extended by the rate cap when needed). The paper
    /// ran four weeks; the simulation compresses the window — all analyses
    /// are time-scale-free except the lifetime filter, which keeps its
    /// absolute 10 s threshold.
    pub window: SimDuration,
    /// Experiment keyword (the `kw` label).
    pub keyword: String,
    /// §3.8 opt-outs honoured mid-campaign: `(when received, prefix)`.
    pub opt_outs: Vec<(SimTime, bcd_netsim::Prefix)>,
    /// §3.4 interruptions: `(start, duration)` windows with no probing.
    pub outages: Vec<(SimTime, SimDuration)>,
    /// Restrict the scan to these source categories (None = all five).
    /// Drives the Table 3 ablation: what coverage does each category buy?
    pub category_filter: Option<Vec<crate::sources::SourceCategory>>,
    /// Experiment-zone answer mode: NXDOMAIN (the paper's choice, with its
    /// §3.6.4 QNAME-minimization blind spot) or the wildcard synthesis the
    /// paper proposes for a future run. The ablation binary compares both.
    pub wildcard_zone: bool,
    /// Number of parallel survey shards (see [`crate::shard`]). Probes are
    /// partitioned by destination AS and run on one engine per shard;
    /// results merge deterministically, so every analysis and report is
    /// byte-identical for 1 and N shards. 1 = classic single-engine run.
    /// The constructors honour the `BCD_SHARDS` environment variable, which
    /// is how CI runs the whole test suite sharded.
    pub shards: usize,
    /// Worker threads executing the shard partitions (work stealing: idle
    /// workers claim the next unstarted shard, so an imbalanced partition
    /// no longer idles cores). 0 = one worker per available core, capped at
    /// the shard count. The partition itself — and therefore every byte of
    /// output — depends only on `shards`; `workers` is pure execution
    /// parallelism. The constructors honour `BCD_WORKERS`.
    pub workers: usize,
    /// Deterministic keep-1-in-N subsample of the target population
    /// (`None` = the full §3.1 list). The kept set is a hash of the
    /// canonical target address, so it is identical for any shard layout.
    /// Survey-tier batch jobs use this to bound the probe count over the
    /// full 62k-AS world (the CI `agreement-smoke` job).
    pub target_sample: Option<u64>,
    /// Schedule constructor: the streaming per-shard lane build (default)
    /// or the legacy-shaped global oracle. The two are byte-equal (the
    /// differential suite proves it); `Global` exists only so that claim
    /// stays checkable, and tests select it here.
    pub schedule_mode: ScheduleMode,
}

impl ExperimentConfig {
    /// Full-shape defaults over a paper-shape world.
    pub fn paper_shape(seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            world: WorldConfig::paper_shape(seed),
            window: SimDuration::from_hours(2),
            keyword: "x7".into(),
            opt_outs: Vec::new(),
            outages: Vec::new(),
            category_filter: None,
            wildcard_zone: false,
            shards: shard::count_from_env("BCD_SHARDS").unwrap_or(1),
            workers: shard::count_from_env("BCD_WORKERS").unwrap_or(0),
            target_sample: None,
            schedule_mode: ScheduleMode::default(),
        }
    }

    /// Small and fast, for tests.
    pub fn tiny(seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            world: WorldConfig::tiny(seed),
            window: SimDuration::from_mins(20),
            ..ExperimentConfig::paper_shape(seed)
        }
    }
}

/// Everything the analyses need, owned.
pub struct ExperimentData {
    /// The immutable generated world, shared with any still-live shard
    /// engines (all of them are gone by the time `run` returns).
    pub world: Arc<World>,
    /// The extracted target set, shared with every shard's scanner (the
    /// compact schedule's target indices point into it).
    pub targets: Arc<TargetSet>,
    pub codec: QnameCodec,
    /// Snapshot of the experiment estate's query log.
    pub entries: Vec<QueryLogEntry>,
    pub scanner_stats: ScannerStats,
    /// Responses received at the scanner's real addresses.
    pub scanner_responses: Vec<(SimTime, IpAddr, RCode)>,
    /// All public DNS addresses (v4 + v6), for middlebox attribution.
    pub public_dns: Vec<IpAddr>,
    /// Total engine events processed, summed over all shards.
    pub events: u64,
    /// Packet counters, summed over all shards.
    pub counters: NetCounters,
    /// True if any shard hit its event budget.
    pub budget_exhausted: bool,
    /// Deliver events still queued at the horizon, summed over all shards
    /// (in-flight packets the conservation invariant must account for).
    pub pending_deliveries: u64,
    /// Merged causal span flight recorder, when the run armed one
    /// (`BCD_TRACE` or [`ObsEnv::with_trace`]). Byte-identical to a
    /// single-shard recorder at any shard count (see
    /// [`bcd_netsim::FlightRecorder`]'s merge contract). Its packet-fate
    /// spans are the run's packet capture ([`bcd_netsim::pcap`]).
    pub flight: Option<FlightRecorder>,
    /// The run's observability artifact: phase profile, deterministic
    /// aggregate metrics, per-shard slices (see [`bcd_obs`]). Callers may
    /// append their own phases (analysis, report) before exporting.
    pub obs: RunObservation,
    pub cfg: ExperimentConfig,
}

impl ExperimentData {
    /// Borrow an [`crate::analysis::AnalysisInput`] over this data.
    pub fn input(&self) -> crate::analysis::AnalysisInput<'_> {
        crate::analysis::AnalysisInput {
            log: &self.entries,
            codec: &self.codec,
            targets: &self.targets,
            routes: self.world.topo.routes(),
            geo: &self.world.geo,
            scanner_v4: self.world.scanner.v4,
            scanner_v6: self.world.scanner.v6,
            public_dns: &self.public_dns,
        }
    }
}

/// The experiment runner.
pub struct Experiment;

/// RNG stream id for the human-noise salt (shared by every shard).
pub(crate) const NOISE_SALT_STREAM: u64 = 0x4855_4D41_4E5F_4E53; // "HUMAN_NS"

/// RNG stream id for the schedule's per-target hash salt (plans, phases,
/// sampling — shared by every shard and, crucially, by *both* measurement
/// methods: the CRP pass ([`crate::crp`]) derives its source plans from the
/// same salt, which is what makes the two methods probe identical
/// (src, dst) pairs).
pub(crate) const SCHEDULE_SALT_STREAM: u64 = 0x5343_4845_4455_4C45; // "SCHEDULE"

/// Run `f(0..n)` on a work-stealing pool of `n_workers` threads (the
/// calling thread is worker 0) and return the results in index order.
/// Used for both parallel phases — per-shard schedule construction and the
/// shard runs; claim order is scheduling-dependent, results are not.
pub(crate) fn run_pool<T: Send>(
    n_workers: usize,
    n: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    {
        let worker = || loop {
            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if i >= n {
                break;
            }
            let out = f(i);
            *slots[i].lock().unwrap() = Some(out);
        };
        std::thread::scope(|s| {
            for wid in 1..n_workers.min(n.max(1)) {
                std::thread::Builder::new()
                    .name(format!("bcd-worker-{wid}"))
                    .spawn_scoped(s, worker)
                    .expect("spawn worker thread");
            }
            worker();
        });
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("pool slot missing — worker panicked?")
        })
        .collect()
}

impl Experiment {
    /// Run the full methodology and return the collected data.
    ///
    /// With `cfg.shards > 1` the schedule is partitioned by destination AS
    /// (see [`crate::shard`]) and each shard runs on its own thread. The
    /// world is generated exactly once; every shard spawns a cheap
    /// [`WorldRuntime`] over the same shared `Arc<Topology>`. Outcomes merge
    /// deterministically, so the returned data — and everything rendered
    /// from it — is byte-identical to a single-shard run.
    ///
    /// Observability comes from the environment ([`ObsEnv::from_env`]),
    /// and the run's `BCD_OBS` / `BCD_TRACE out=` files are written
    /// ([`ObsEnv::export`]) before it returns.
    pub fn run(cfg: ExperimentConfig) -> ExperimentData {
        let env = ObsEnv::from_env();
        let data = Experiment::run_observed(cfg, &env);
        env.export(&data.obs, data.flight.as_ref());
        data
    }

    /// [`Experiment::run`] with explicit observability switches (tests and
    /// benches pass [`ObsEnv::disabled`] to stay environment-independent).
    ///
    /// The returned data always carries a populated
    /// [`ExperimentData::obs`] — assembling it is a per-run-boundary cost,
    /// not a hot-path one. `env` arms the scanner's stderr heartbeat and
    /// the span flight recorder; this function writes no file. A caller
    /// that wants the run's JSONL or Chrome trace calls [`ObsEnv::export`]
    /// once, after its own last phase.
    pub fn run_observed(cfg: ExperimentConfig, env: &ObsEnv) -> ExperimentData {
        let mut profile = RunProfile::new();
        announce(env, "worldgen-build");
        let t0 = Instant::now();
        let mut world = bcd_worldgen::build::build(cfg.world.clone());
        if cfg.wildcard_zone {
            bcd_worldgen::build::set_experiment_zone_wildcard(&mut world);
        }
        profile.record("worldgen-build", t0.elapsed());

        // §3.1: extract targets from the DITL trace (or, for worlds built
        // with the streaming pipeline, from the pre-deduplicated candidate
        // list — the two paths yield identical target sets).
        announce(env, "target-extract");
        let t0 = Instant::now();
        let targets = if world.cfg.materialize_ditl {
            TargetSet::extract(&world.ditl2019, world.topo.routes())
        } else {
            TargetSet::from_candidates(&world.ditl_candidates, world.topo.routes())
        };
        profile.record("target-extract", t0.elapsed());
        let targets = Arc::new(targets);

        let codec = QnameCodec::new(&world.auth.apex, &cfg.keyword);

        // Worldgen ran once; from here on the world is frozen and shared.
        let world = Arc::new(world);

        let pass = Pass {
            phase_prefix: "",
            category_filter: cfg.category_filter.as_deref(),
            keyword: cfg.keyword.clone(),
            noise_stream: NOISE_SALT_STREAM,
            tails_log: true,
        };
        let PassOutcome {
            merged,
            per_shard,
            census,
            sched_end,
            shards,
        } = run_pass(&pass, &world, &targets, &cfg, env, &mut profile);

        // Deterministic aggregate from the *merged* artifacts; the fold of
        // the per-shard layout slices fills in whatever the stable side
        // does not claim. Drops are only deterministic when no chaos fault
        // schedule is armed (see `observe::stable_aggregate`).
        let fault_free = cfg.world.chaos.is_none();
        let mut aggregate = observe::stable_aggregate(
            &merged.entries,
            &merged.scanner_stats,
            &merged.responses,
            &merged.dns,
            &world,
            &targets,
            fault_free.then_some(&merged.counters),
        );
        // Schedule-construction accounting: probe totals and lane geometry
        // are pure functions of (seed, population, rate) — fully stable.
        aggregate.add_counter(names::SCHEDULE_PROBES, &[], Det::Stable, census.total);
        aggregate.add_counter(
            names::SCHEDULE_TARGETS,
            &[],
            Det::Stable,
            census.sampled_targets,
        );
        aggregate.add_counter(
            names::SCHEDULE_LANES,
            &[],
            Det::Stable,
            census.occupied_lanes() as u64,
        );
        aggregate.add_counter(
            names::SCHEDULE_END_SECS,
            &[],
            Det::Stable,
            sched_end.as_secs(),
        );
        // Causal-span counters are shard-invariant (canonical-order
        // eviction; only probe-caused traffic is traced) — but span
        // *details* include fault fates, so they only enter the
        // deterministic surface when no chaos fault schedule is armed.
        if let Some(f) = &merged.flight {
            let det = if fault_free { Det::Stable } else { Det::Layout };
            aggregate.add_counter(names::SPAN_RECORDED, &[], det, f.recorded());
            aggregate.add_counter(names::SPAN_RETAINED, &[], det, f.len() as u64);
            aggregate.add_counter(names::SPAN_EVICTED, &[], det, f.evicted());
            aggregate.add_counter(names::SPAN_TRACES, &[], det, f.traces().len() as u64);
        }
        aggregate.absorb_new(&merged.metrics);
        let obs = RunObservation {
            seed: cfg.world.seed,
            shards,
            profile,
            aggregate,
            per_shard,
        };
        let public_dns: Vec<IpAddr> = world
            .public_dns_v4
            .iter()
            .chain(&world.public_dns_v6)
            .copied()
            .collect();

        ExperimentData {
            world,
            targets,
            codec,
            entries: merged.entries,
            scanner_stats: merged.scanner_stats,
            scanner_responses: merged.responses,
            public_dns,
            events: merged.events,
            counters: merged.counters,
            budget_exhausted: merged.budget_exhausted,
            pending_deliveries: merged.pending_deliveries,
            flight: merged.flight,
            obs,
            cfg,
        }
    }
}

/// Phase-transition heartbeat: the scanner's per-probe heartbeat only
/// covers the shard runs, so the orchestrator announces the other phases.
fn announce(env: &ObsEnv, name: &str) {
    if env.progress_every.is_some() {
        eprintln!("[bcd] phase {name}");
    }
}

/// One measurement pass over a built world: which probes it schedules and
/// how its scanner behaves. Plain data — method A and the inbound CRP scan
/// ([`crate::crp`]) are two values of it, and [`run_pass`] runs either.
pub(crate) struct Pass<'a> {
    /// Prefix of every phase the pass records (`""` for method A). Only
    /// the unprefixed pass stamps the run's sim horizon.
    pub phase_prefix: &'static str,
    /// Source categories the schedule probes with (`None` = all five).
    pub category_filter: Option<&'a [SourceCategory]>,
    /// Experiment keyword of the pass's query names.
    pub keyword: String,
    /// RNG stream of the scanner's salt (packet identity, human noise).
    pub noise_stream: u64,
    /// Whether the scanner tails the authoritative log — follow-up
    /// batteries and §3.6.3 human noise — or only walks its schedule.
    pub tails_log: bool,
}

/// What [`run_pass`] returns: the merged shard outcomes plus the schedule
/// geometry the run's stable aggregate reports.
pub(crate) struct PassOutcome {
    pub merged: ShardOutcome,
    /// Each shard's layout-class metric slice, in shard-id order.
    pub per_shard: Vec<MetricsRegistry>,
    pub census: ScheduleCensus,
    /// The latest scheduled emission over all shards.
    pub sched_end: SimTime,
    /// Effective shard count (clamped to the occupied lanes).
    pub shards: usize,
}

/// Run one measurement pass over an already-built world and target set:
/// census, lane assignment, per-shard schedule construction, the shard
/// runs and the deterministic merge, each recorded as a phase of
/// `profile` under the pass's prefix. Deterministic contract: the merged
/// outcome is byte-identical for any `cfg.shards` / `cfg.workers` /
/// `cfg.schedule_mode`.
pub(crate) fn run_pass(
    pass: &Pass,
    world: &Arc<World>,
    targets: &Arc<TargetSet>,
    cfg: &ExperimentConfig,
    env: &ObsEnv,
    profile: &mut RunProfile,
) -> PassOutcome {
    let phase = |name: &str| format!("{}{name}", pass.phase_prefix);

    // §3.2 + §3.4 census: count every probe (per-target plan lengths, no
    // RNG, no source draws) to fix the window extension, the lane occupancy
    // and the lane → shard map before any schedule memory exists.
    // Streaming and global constructors consume the same census, so they
    // agree on the geometry by construction.
    announce(env, &phase("schedule-census"));
    let t0 = Instant::now();
    let sched_salt = stream_seed(cfg.world.seed, SCHEDULE_SALT_STREAM);
    let filter = pass.category_filter;
    let census = schedule::census(
        targets,
        world.topo.routes(),
        &world.v6_hitlist,
        filter,
        schedule::lane_count(RATE),
        sched_salt,
        cfg.target_sample,
    );
    let layout = LaneLayout::new(
        RATE,
        cfg.window,
        census.total,
        sched_salt,
        cfg.target_sample,
    );
    let (lane_shard, shards) = shard::assign_lanes(&census.lane_counts, cfg.shards.max(1));
    profile.record(&phase("schedule-census"), t0.elapsed());

    // §3.4: per-shard streaming schedule construction. Each shard derives
    // only its own lanes' probes (plans and phases are hashes of the
    // canonical target bytes) and smooths them under the lanes' own rate
    // quotas — the global query vec is never materialized.
    // `ScheduleMode::Global` swaps in the legacy-shaped oracle, which *does*
    // materialize it, then partitions along the same lane map; the two are
    // byte-equal (tests/schedule_stream.rs).
    announce(env, &phase("schedule-build"));
    let n_workers = if cfg.workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        cfg.workers
    }
    .clamp(1, shards);
    let t0 = Instant::now();
    let parts: Vec<Schedule> = match cfg.schedule_mode {
        ScheduleMode::Streaming => {
            let build = |sid: usize| {
                Schedule::build_lanes(
                    targets,
                    world.topo.routes(),
                    &world.v6_hitlist,
                    filter,
                    &shard::lanes_of_shard(&lane_shard, sid),
                    &census,
                    &layout,
                )
            };
            run_pool(n_workers, shards, build)
        }
        ScheduleMode::Global => {
            let global = Schedule::build_global(
                targets,
                world.topo.routes(),
                &world.v6_hitlist,
                filter,
                &census,
                &layout,
            );
            global.partition_by_lane(targets, &lane_shard, shards)
        }
    };
    debug_assert_eq!(
        parts.iter().map(|p| p.len() as u64).sum::<u64>(),
        census.total
    );
    let sched_end = parts.iter().map(|p| p.end).max().unwrap_or(SimTime::ZERO);
    profile.record(&phase("schedule-build"), t0.elapsed());

    // Run the scan plus drain time (outages push the real end out, the
    // paper's "longer than the four weeks we had planned"). All shards
    // simulate the same horizon — the *global* schedule end, which is the
    // max over the per-shard ends.
    let outage_total = cfg
        .outages
        .iter()
        .fold(SimDuration::ZERO, |acc, (_, len)| acc + *len);
    let run_until = sched_end + outage_total + DRAIN;

    // Shards run on a work-stealing pool: each worker claims the next
    // unstarted shard id from a shared counter, spawns its own runtime
    // (fresh nodes + logs) over the shared topology, and parks the outcome
    // in the shard's slot. Imbalanced destination-AS partitions therefore
    // pack onto whatever cores exist instead of pinning one thread per
    // shard. Claim order is scheduling-dependent, but each shard's
    // simulation is self-contained and the merge below walks slots in
    // shard-id order — output bytes depend only on `shards`.
    announce(env, &phase("shard-run"));
    let parts: Vec<Mutex<Option<Schedule>>> =
        parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let outcomes: Vec<ShardOutcome> = run_pool(n_workers, shards, |sid| {
        let part = parts[sid]
            .lock()
            .unwrap()
            .take()
            .expect("shard partition claimed twice");
        run_shard(pass, world, cfg, sid, part, targets, run_until, env)
    });
    for (sid, o) in outcomes.iter().enumerate() {
        profile.record_shard_phase(&phase("shard-spawn"), sid, o.spawn_wall);
        if pass.phase_prefix.is_empty() {
            profile.record_shard(&phase("shard-run"), sid, o.wall, run_until);
        } else {
            profile.record_shard_phase(&phase("shard-run"), sid, o.wall);
        }
        profile.record_shard_phase(&phase("shard-extract"), sid, o.extract_wall);
    }
    let per_shard = outcomes.iter().map(|o| o.metrics.clone()).collect();
    announce(env, &phase("merge"));
    let t0 = Instant::now();
    let merged = shard::merge_outcomes(outcomes);
    profile.record(&phase("merge"), t0.elapsed());
    PassOutcome {
        merged,
        per_shard,
        census,
        sched_end,
        shards,
    }
}

/// Spawn a fresh runtime over the shared world, run one shard's slice of
/// the pass's schedule to completion, and collect its `Send`-able outcome.
/// §3.3/§3.5: codec + scanner node at the reserved vantage (the codec is
/// rebuilt per shard; apex and keyword are seed-determined, so every shard
/// encodes identically).
#[allow(clippy::too_many_arguments)]
fn run_shard(
    pass: &Pass,
    world: &Arc<World>,
    cfg: &ExperimentConfig,
    shard_id: usize,
    schedule: Schedule,
    targets: &Arc<TargetSet>,
    run_until: SimTime,
    env: &ObsEnv,
) -> ShardOutcome {
    let wall_start = Instant::now();
    // Lazy spawn: this shard's schedule names every destination AS it will
    // ever touch, so hosts elsewhere (other shards' measured ASes) are
    // spawned as sinks. Infra/public-DNS/scanner ASes are always live —
    // `spawn_for` adds them unconditionally.
    let owned: std::collections::HashSet<bcd_netsim::Asn> = (0..schedule.len())
        .map(|i| targets.get(schedule.target_index(i) as usize).asn)
        .collect();
    let mut wrt: WorldRuntime = world.spawn_for(Some(&owned));
    let codec = QnameCodec::new(&world.auth.apex, &pass.keyword);
    let human_noise =
        (pass.tails_log && cfg.world.human_lookup_fraction > 0.0).then(|| HumanNoise {
            probability: cfg.world.human_lookup_fraction,
            delay: SimDuration::from_secs(cfg.world.human_lookup_delay_secs),
        });
    let scanner_cfg = ScannerConfig {
        codec,
        schedule,
        targets: targets.clone(),
        topo: world.topo.clone(),
        poll_interval: pass.tails_log.then_some(POLL_INTERVAL),
        log: wrt.log.clone(),
        lab_v4: world.auth.lab_v4,
        lab_v6: world.auth.lab_v6,
        human_noise,
        noise_salt: stream_seed(cfg.world.seed, pass.noise_stream),
        opt_outs: cfg.opt_outs.clone(),
        outages: cfg.outages.clone(),
        progress: env
            .progress_every
            .map(|every| (every, shard_id, format!("{}shard-run", pass.phase_prefix))),
    };
    // The scanner is a runtime-local host: it rides on top of the shared
    // topology (same host id and RNG stream in every shard) without
    // mutating it.
    let scanner_host = wrt.net.add_host(
        HostConfig {
            addrs: vec![world.scanner.v4, world.scanner.v6],
            asn: world.scanner.asn,
            stack: StackPolicy::strict(),
        },
        Box::new(Scanner::new(scanner_cfg)),
    );
    // Arm the causal flight recorder after spawn, so only traffic this
    // shard's probes cause can be sampled into it: anything a runtime did
    // on its own would repeat in every shard.
    if let Some(t) = &env.trace {
        wrt.net.arm_flight_sampled(t.capacity, t.sample.clone());
    }
    let spawn_wall = wall_start.elapsed();
    let run_start = Instant::now();
    wrt.net.run_until(run_until);
    let run_wall = run_start.elapsed();
    let extract_start = Instant::now();

    // Pre-sort this shard's streams canonically so the merge can absorb
    // them with a streaming k-way pass instead of a global re-sort. The
    // sort runs here — inside the parallel shard phase — not on the merge
    // thread.
    let mut entries = wrt.log.borrow().entries().to_vec();
    shard::canonical_sort(&mut entries);
    let scanner = wrt.net.node::<Scanner>(scanner_host).expect("scanner node");
    let scanner_stats = scanner.stats.clone();
    let mut responses = scanner.responses.clone();
    responses.sort_by_key(|r| (r.0, r.1));
    let dns = observe::dns_totals(&wrt.net);
    let events = wrt.net.events_processed();
    let pending_deliveries = wrt.net.pending_deliveries();
    let flight = wrt.net.take_flight();
    let metrics = observe::shard_registry(&wrt.net.counters, events, &dns, &scanner_stats);
    ShardOutcome {
        entries,
        scanner_stats,
        responses,
        counters: wrt.net.counters.clone(),
        events,
        budget_exhausted: wrt.net.budget_exhausted,
        pending_deliveries,
        flight,
        dns,
        metrics,
        wall: run_wall,
        spawn_wall,
        extract_wall: extract_start.elapsed(),
    }
}
