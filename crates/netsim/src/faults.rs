//! Seeded, deterministic fault schedules ("chaos") for the engine.
//!
//! A [`FaultSchedule`] is compiled once per run from `(chaos seed, profile,
//! domain)` and then consulted by the engine on every inter-AS traversal
//! ([`FaultSchedule::link_fate`]) and every host touch
//! ([`FaultSchedule::host_down`]). It layers:
//!
//! * **ambient loss** — i.i.d. per-packet drop probability,
//! * **delay jitter** — extra per-packet delay uniform in `[0, jitter]`,
//! * **reordering** — a fraction of packets get a large extra delay, so
//!   later sends overtake them,
//! * **duplication** — a fraction of packets deliver twice,
//! * **burst loss** — Gilbert–Elliott-style two-state loss: each affected
//!   AS alternates between a good state (ambient loss only) and a bad
//!   state (high loss) over seeded sim-time windows,
//! * **link flaps** — an affected AS's border goes fully dark for a
//!   window; everything crossing it drops,
//! * **crash/restart epochs** — an affected resolver host goes down for a
//!   window; packets to or from it drop.
//!
//! Determinism across shard layouts is the hard requirement (the survey
//! merge must stay byte-identical for `BCD_SHARDS=1/4/8`), and it shapes
//! the whole design:
//!
//! * Window-type faults (bursts, flaps, crashes) are **precompiled** from
//!   per-entity RNG streams (`stream_seed(chaos_seed, KIND ^ entity)`),
//!   so they are pure functions of sim time — traffic- and
//!   layout-independent by construction.
//! * Per-packet decisions (loss, jitter, reorder, duplicate) are **pure
//!   hash draws over a packet key**, never engine-RNG draws. For flows
//!   touching a *measured* AS — which live entirely inside the shard that
//!   owns that AS — the key is `(src, dst, send time, occurrence index)`,
//!   counted per flow at each instant. For infrastructure-only flows
//!   (public resolver ↔ auth estate), which mix traffic from many shards,
//!   occurrence indices are layout-dependent; there the key hashes the
//!   packet *content* (ports + payload) instead, which is
//!   layout-invariant because public-resolver query identities are
//!   derived from query content, not stream position.
//!
//! Every fault is a [`FaultEvent`] with a stable id; enabling only a subset
//! ([`ChaosConfig::only_events`]) reruns the exact same world minus the
//! other events, which
//! is what the chaos sweep's delta-debugging shrinker drives. A schedule
//! is reproducible from the [`ChaosSpec`] replay line
//! (`BCD_CHAOS=seed=..,profile=..,events=..`).

use crate::counters::DropReason;
use crate::hash::{fnv1a, fnv1a_addr, splitmix64, stream_seed, FNV_OFFSET};
use crate::node::HostId;
use crate::packet::{Packet, Transport};
use crate::time::{SimDuration, SimTime};
use crate::topology::Asn;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::net::IpAddr;
use std::str::FromStr;

// Per-entity stream tags for window generation.
const BURST_STREAM: u64 = 0x4348_414F_5342_5253;
const FLAP_STREAM: u64 = 0x4348_414F_5346_4C50;
const CRASH_STREAM: u64 = 0x4348_414F_5343_5253;

// Per-decision salts for packet-key hash draws.
const LOSS_SALT: u64 = 0x10;
const JITTER_SALT: u64 = 0x20;
const REORDER_SALT: u64 = 0x30;
const REORDER_SPREAD_SALT: u64 = 0x31;
const DUP_SALT: u64 = 0x40;
const DUP_DELAY_SALT: u64 = 0x41;
const SPOOF_SALT: u64 = 0x50;

/// Map a 64-bit hash to a uniform draw in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn mix(key: u64, salt: u64) -> u64 {
    splitmix64(key ^ splitmix64(salt))
}

/// Gilbert–Elliott-style two-state burst loss over an AS's border.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstLoss {
    /// Fraction of domain ASes affected (per-AS seeded coin).
    pub fraction: f64,
    /// Loss probability while in the bad state.
    pub bad_loss: f64,
    /// Mean dwell time in the good state.
    pub mean_good: SimDuration,
    /// Mean dwell time in the bad state.
    pub mean_bad: SimDuration,
}

/// Full link-flap windows: an affected AS's border drops everything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFlap {
    /// Fraction of domain ASes affected.
    pub fraction: f64,
    /// Mean dwell time up.
    pub mean_up: SimDuration,
    /// Mean dwell time down (flapped).
    pub mean_down: SimDuration,
}

/// Resolver crash/restart epochs: an affected host is unreachable and
/// sends nothing while down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashRestart {
    /// Fraction of eligible hosts affected.
    pub fraction: f64,
    /// Mean dwell time up.
    pub mean_up: SimDuration,
    /// Mean dwell time down (crashed).
    pub mean_down: SimDuration,
}

/// A named bundle of fault-injection knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosProfile {
    /// Ambient i.i.d. per-packet loss probability on inter-AS traversals.
    pub loss: f64,
    /// Max extra per-packet delay (uniform in `[0, jitter]`).
    pub jitter: SimDuration,
    /// Probability a packet is held back long enough to be overtaken.
    pub reorder: f64,
    /// Base hold-back for reordered packets (scaled ×[0.5, 1.5)).
    pub reorder_delay: SimDuration,
    /// Probability a packet delivers twice.
    pub duplicate: f64,
    /// Probability a DNS response is raced by an off-path spoofed copy
    /// with a wrong txid (Whac-A-Mole-style adversary). The forgery is
    /// injected *ahead* of the genuine answer; receivers that validate
    /// `(txid, port)` must reject it.
    pub spoof: f64,
    /// Two-state burst loss, if enabled.
    pub burst: Option<BurstLoss>,
    /// Link flaps, if enabled.
    pub flap: Option<LinkFlap>,
    /// Resolver crash/restart epochs, if enabled.
    pub crash: Option<CrashRestart>,
}

impl Default for ChaosProfile {
    fn default() -> Self {
        ChaosProfile::calm()
    }
}

impl ChaosProfile {
    /// No faults at all.
    pub fn calm() -> ChaosProfile {
        ChaosProfile {
            loss: 0.0,
            jitter: SimDuration::ZERO,
            reorder: 0.0,
            reorder_delay: SimDuration::ZERO,
            duplicate: 0.0,
            spoof: 0.0,
            burst: None,
            flap: None,
            crash: None,
        }
    }

    /// Ambient loss only: independent per-traversal drops at rate `p`,
    /// no bursts, reordering, duplication, flaps or crashes.
    pub fn loss_only(p: f64) -> ChaosProfile {
        ChaosProfile {
            loss: p,
            ..ChaosProfile::calm()
        }
    }

    /// All registered profile names, in replay-line order.
    pub fn names() -> &'static [&'static str] {
        &[
            "calm", "drizzle", "lossy", "bursty", "jittery", "flaky", "crashy", "hostile", "spoofy",
        ]
    }

    /// Look a profile up by name (the `profile=` field of a replay line).
    pub fn named(name: &str) -> Option<ChaosProfile> {
        Some(match name {
            "calm" => ChaosProfile::calm(),
            "drizzle" => ChaosProfile {
                loss: 0.02,
                jitter: SimDuration::from_millis(25),
                ..ChaosProfile::calm()
            },
            "lossy" => ChaosProfile {
                loss: 0.15,
                jitter: SimDuration::from_millis(60),
                duplicate: 0.01,
                ..ChaosProfile::calm()
            },
            "bursty" => ChaosProfile {
                loss: 0.002,
                burst: Some(BurstLoss {
                    fraction: 0.5,
                    bad_loss: 0.7,
                    mean_good: SimDuration::from_mins(8),
                    mean_bad: SimDuration::from_secs(45),
                }),
                ..ChaosProfile::calm()
            },
            "jittery" => ChaosProfile {
                jitter: SimDuration::from_millis(350),
                reorder: 0.30,
                reorder_delay: SimDuration::from_millis(250),
                duplicate: 0.02,
                ..ChaosProfile::calm()
            },
            "flaky" => ChaosProfile {
                loss: 0.01,
                flap: Some(LinkFlap {
                    fraction: 0.35,
                    mean_up: SimDuration::from_mins(22),
                    mean_down: SimDuration::from_secs(100),
                }),
                ..ChaosProfile::calm()
            },
            "crashy" => ChaosProfile {
                crash: Some(CrashRestart {
                    fraction: 0.30,
                    mean_up: SimDuration::from_mins(35),
                    mean_down: SimDuration::from_mins(4),
                }),
                ..ChaosProfile::calm()
            },
            "spoofy" => ChaosProfile {
                spoof: 0.35,
                ..ChaosProfile::calm()
            },
            "hostile" => ChaosProfile {
                loss: 0.05,
                jitter: SimDuration::from_millis(120),
                reorder: 0.15,
                reorder_delay: SimDuration::from_millis(200),
                duplicate: 0.01,
                spoof: 0.0,
                burst: Some(BurstLoss {
                    fraction: 0.25,
                    bad_loss: 0.5,
                    mean_good: SimDuration::from_mins(12),
                    mean_bad: SimDuration::from_secs(40),
                }),
                flap: Some(LinkFlap {
                    fraction: 0.15,
                    mean_up: SimDuration::from_mins(30),
                    mean_down: SimDuration::from_secs(70),
                }),
                crash: Some(CrashRestart {
                    fraction: 0.15,
                    mean_up: SimDuration::from_mins(45),
                    mean_down: SimDuration::from_mins(3),
                }),
            },
            _ => return None,
        })
    }

    /// True if every knob is off (a schedule compiled from it is empty).
    pub fn is_calm(&self) -> bool {
        *self == ChaosProfile::calm()
    }
}

/// Sim-time horizon fault windows are generated over: covers a survey
/// window plus the post-survey drain for every config in the tree.
pub const HORIZON: SimDuration = SimDuration::from_hours(8);

/// A chaos run request: which faults, under which seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Chaos seed — all fault randomness flows from it (usually derived
    /// from the world seed through its own stream).
    pub seed: u64,
    /// Name recorded in replay lines ("custom" for hand-built profiles).
    pub profile_name: String,
    /// Resolved knobs.
    pub profile: ChaosProfile,
    /// Restrict the schedule to these event ids (shrinker replays);
    /// `None` means all events are enabled.
    pub only_events: Option<Vec<u32>>,
}

impl ChaosConfig {
    /// A config for a named profile.
    pub fn named(seed: u64, name: &str) -> Option<ChaosConfig> {
        Some(ChaosConfig::custom(seed, name, ChaosProfile::named(name)?))
    }

    /// A config for a hand-built profile (replay lines will carry `name`,
    /// which only round-trips through [`ChaosSpec`] if it is registered).
    pub fn custom(seed: u64, name: &str, profile: ChaosProfile) -> ChaosConfig {
        ChaosConfig {
            seed,
            profile_name: name.to_string(),
            profile,
            only_events: None,
        }
    }

    /// Resolve a replay spec (named profiles only).
    pub fn from_spec(spec: &ChaosSpec) -> Option<ChaosConfig> {
        let mut cfg = ChaosConfig::named(spec.seed, &spec.profile)?;
        cfg.only_events = spec.events.clone();
        Some(cfg)
    }

    /// The replay spec for this config.
    pub fn spec(&self) -> ChaosSpec {
        ChaosSpec {
            seed: self.seed,
            profile: self.profile_name.clone(),
            events: self.only_events.clone(),
        }
    }
}

/// A parsed `BCD_CHAOS` replay line: `seed=201,profile=hostile` or, after
/// shrinking, `seed=201,profile=hostile,events=3+17+40`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSpec {
    pub seed: u64,
    pub profile: String,
    /// Enabled event ids; `None` means all.
    pub events: Option<Vec<u32>>,
}

impl fmt::Display for ChaosSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={},profile={}", self.seed, self.profile)?;
        if let Some(ids) = &self.events {
            let ids: Vec<String> = ids.iter().map(|i| i.to_string()).collect();
            write!(f, ",events={}", ids.join("+"))?;
        }
        Ok(())
    }
}

impl FromStr for ChaosSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<ChaosSpec, String> {
        let mut seed = None;
        let mut profile = None;
        let mut events = None;
        for part in s.split(',') {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos spec field without '=': {part:?}"))?;
            match k {
                "seed" => {
                    seed = Some(v.parse::<u64>().map_err(|e| format!("bad seed: {e}"))?);
                }
                "profile" => profile = Some(v.to_string()),
                "events" => {
                    if v == "all" {
                        events = None;
                    } else {
                        let ids = v
                            .split('+')
                            .map(|t| t.parse::<u32>().map_err(|e| format!("bad event id: {e}")))
                            .collect::<Result<Vec<u32>, String>>()?;
                        events = Some(ids);
                    }
                }
                other => return Err(format!("unknown chaos spec field {other:?}")),
            }
        }
        Ok(ChaosSpec {
            seed: seed.ok_or("chaos spec missing seed=")?,
            profile: profile.ok_or("chaos spec missing profile=")?,
            events,
        })
    }
}

/// What a fault event does, and to which entity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Ambient i.i.d. loss on every inter-AS traversal.
    AmbientLoss { p: f64 },
    /// Per-packet extra delay uniform in `[0, max]`.
    Jitter { max: SimDuration },
    /// Hold back a fraction of packets so later sends overtake them.
    Reorder { p: f64, delay: SimDuration },
    /// Deliver a fraction of packets twice.
    Duplicate { p: f64 },
    /// Race a fraction of DNS responses with an off-path spoofed copy
    /// carrying a wrong txid.
    SpoofInject { p: f64 },
    /// One bad-state window of two-state burst loss at an AS border.
    BurstLoss { asn: Asn, loss: f64 },
    /// One link-flap window: the AS border drops everything.
    LinkFlap { asn: Asn },
    /// One crash epoch: the host is down.
    Crash { host: HostId },
}

impl FaultKind {
    /// Stable kind label (metrics, reports).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::AmbientLoss { .. } => "ambient-loss",
            FaultKind::Jitter { .. } => "jitter",
            FaultKind::Reorder { .. } => "reorder",
            FaultKind::Duplicate { .. } => "duplicate",
            FaultKind::SpoofInject { .. } => "spoof-inject",
            FaultKind::BurstLoss { .. } => "burst-loss",
            FaultKind::LinkFlap { .. } => "link-flap",
            FaultKind::Crash { .. } => "crash",
        }
    }
}

/// One schedulable fault with a stable id. Ambient layers span the whole
/// horizon; window faults carry their `[from, until)` span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    pub id: u32,
    pub kind: FaultKind,
    pub from: SimTime,
    pub until: SimTime,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} {} [{:.1}s, {:.1}s)",
            self.id,
            self.kind.name(),
            self.from.as_secs_f64(),
            self.until.as_secs_f64()
        )?;
        match self.kind {
            FaultKind::BurstLoss { asn, loss } => write!(f, " {asn} loss={loss}"),
            FaultKind::LinkFlap { asn } => write!(f, " {asn}"),
            FaultKind::Crash { host } => write!(f, " host={host}"),
            _ => Ok(()),
        }
    }
}

/// The entities a schedule may touch. Only *measured* ASes (and hosts
/// inside them) are eligible for window faults — infrastructure ASes mix
/// traffic from every shard, and faulting them per-window is fine, but the
/// survey semantics want chaos aimed at the measured edge.
#[derive(Debug, Clone, Default)]
pub struct FaultDomain {
    /// Measured ASNs: eligible for burst/flap windows, and the shard-local
    /// side of the packet-key dichotomy.
    pub asns: Vec<Asn>,
    /// Hosts eligible for crash/restart epochs (resolver hosts in
    /// measured ASes).
    pub crash_hosts: Vec<HostId>,
}

/// The verdict for one inter-AS traversal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkFate {
    /// Drop the packet, attributing it to `DropReason`.
    Drop(DropReason),
    /// Deliver, with extra delay; `duplicate` carries the extra delay of a
    /// second copy if the packet duplicates.
    Pass {
        extra_delay: SimDuration,
        duplicate: Option<SimDuration>,
    },
}

/// A compiled, immutable fault schedule. See the module docs for the
/// determinism contract.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    seed: u64,
    profile_name: String,
    events: Vec<FaultEvent>,
    enabled: Vec<bool>,
    /// Measured ASNs: packet keys for flows touching these use occurrence
    /// counting (shard-local); all other flows use content keys.
    local_asns: HashSet<u32>,
    // ---- index over *enabled* events ----
    loss: f64,
    jitter_ns: u64,
    reorder: f64,
    reorder_delay_ns: u64,
    duplicate: f64,
    spoof: f64,
    /// Per-AS bad-state windows, sorted, non-overlapping: (from, until, loss).
    burst: HashMap<u32, Vec<(u64, u64, f64)>>,
    /// Per-AS flap windows, sorted, non-overlapping: (from, until).
    flap: HashMap<u32, Vec<(u64, u64)>>,
    /// Per-host crash epochs, sorted, non-overlapping: (from, until).
    crash: HashMap<HostId, Vec<(u64, u64)>>,
}

/// Alternating up/down spans from one entity stream: returns the *down*
/// (fault-active) windows in `[0, horizon)`, non-overlapping and sorted.
fn windows(
    rng: &mut ChaCha8Rng,
    mean_up: SimDuration,
    mean_down: SimDuration,
    horizon: SimDuration,
) -> Vec<(u64, u64)> {
    let horizon = horizon.as_nanos();
    let draw = |rng: &mut ChaCha8Rng, mean: SimDuration| -> u64 {
        let scale: f64 = rng.gen_range(0.3..1.7);
        ((mean.as_nanos() as f64 * scale) as u64).max(1)
    };
    if mean_up == SimDuration::ZERO || mean_down == SimDuration::ZERO {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut t = draw(rng, mean_up);
    while t < horizon {
        let until = (t + draw(rng, mean_down)).min(horizon);
        out.push((t, until));
        t = until + draw(rng, mean_up);
    }
    out
}

fn in_window(ws: &[(u64, u64)], now_ns: u64) -> bool {
    let i = ws.partition_point(|&(_, until)| until <= now_ns);
    i < ws.len() && ws[i].0 <= now_ns
}

impl FaultSchedule {
    /// Compile the schedule for `(cfg, domain)`. Event ids are stable for
    /// a given input: ambient layers first, then burst windows (ASN-major,
    /// time-minor), flap windows, crash epochs (host-major).
    pub fn compile(cfg: &ChaosConfig, domain: &FaultDomain) -> FaultSchedule {
        let p = &cfg.profile;
        let end = SimTime::ZERO + HORIZON;
        let mut events = Vec::new();
        let mut push = |kind: FaultKind, from: SimTime, until: SimTime| {
            let id = events.len() as u32;
            events.push(FaultEvent {
                id,
                kind,
                from,
                until,
            });
        };

        if p.loss > 0.0 {
            push(FaultKind::AmbientLoss { p: p.loss }, SimTime::ZERO, end);
        }
        if p.jitter > SimDuration::ZERO {
            push(FaultKind::Jitter { max: p.jitter }, SimTime::ZERO, end);
        }
        if p.reorder > 0.0 && p.reorder_delay > SimDuration::ZERO {
            push(
                FaultKind::Reorder {
                    p: p.reorder,
                    delay: p.reorder_delay,
                },
                SimTime::ZERO,
                end,
            );
        }
        if p.duplicate > 0.0 {
            push(FaultKind::Duplicate { p: p.duplicate }, SimTime::ZERO, end);
        }
        if p.spoof > 0.0 {
            push(FaultKind::SpoofInject { p: p.spoof }, SimTime::ZERO, end);
        }
        if let Some(b) = p.burst {
            for &asn in &domain.asns {
                let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(
                    cfg.seed,
                    BURST_STREAM ^ splitmix64(asn.0 as u64),
                ));
                if !rng.gen_bool(b.fraction.clamp(0.0, 1.0)) {
                    continue;
                }
                for (from, until) in windows(&mut rng, b.mean_good, b.mean_bad, HORIZON) {
                    push(
                        FaultKind::BurstLoss {
                            asn,
                            loss: b.bad_loss,
                        },
                        SimTime::ZERO + SimDuration::from_nanos(from),
                        SimTime::ZERO + SimDuration::from_nanos(until),
                    );
                }
            }
        }
        if let Some(fl) = p.flap {
            for &asn in &domain.asns {
                let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(
                    cfg.seed,
                    FLAP_STREAM ^ splitmix64(asn.0 as u64),
                ));
                if !rng.gen_bool(fl.fraction.clamp(0.0, 1.0)) {
                    continue;
                }
                for (from, until) in windows(&mut rng, fl.mean_up, fl.mean_down, HORIZON) {
                    push(
                        FaultKind::LinkFlap { asn },
                        SimTime::ZERO + SimDuration::from_nanos(from),
                        SimTime::ZERO + SimDuration::from_nanos(until),
                    );
                }
            }
        }
        if let Some(c) = p.crash {
            for &host in &domain.crash_hosts {
                let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(
                    cfg.seed,
                    CRASH_STREAM ^ splitmix64(host as u64),
                ));
                if !rng.gen_bool(c.fraction.clamp(0.0, 1.0)) {
                    continue;
                }
                for (from, until) in windows(&mut rng, c.mean_up, c.mean_down, HORIZON) {
                    push(
                        FaultKind::Crash { host },
                        SimTime::ZERO + SimDuration::from_nanos(from),
                        SimTime::ZERO + SimDuration::from_nanos(until),
                    );
                }
            }
        }

        let enabled = match &cfg.only_events {
            None => vec![true; events.len()],
            Some(ids) => {
                let keep: HashSet<u32> = ids.iter().copied().collect();
                events.iter().map(|e| keep.contains(&e.id)).collect()
            }
        };

        let mut sched = FaultSchedule {
            seed: cfg.seed,
            profile_name: cfg.profile_name.clone(),
            events,
            enabled,
            local_asns: domain.asns.iter().map(|a| a.0).collect(),
            loss: 0.0,
            jitter_ns: 0,
            reorder: 0.0,
            reorder_delay_ns: 0,
            duplicate: 0.0,
            spoof: 0.0,
            burst: HashMap::new(),
            flap: HashMap::new(),
            crash: HashMap::new(),
        };
        for (e, &on) in sched.events.iter().zip(&sched.enabled) {
            if !on {
                continue;
            }
            let span = (e.from.as_nanos(), e.until.as_nanos());
            match e.kind {
                FaultKind::AmbientLoss { p } => sched.loss = p,
                FaultKind::Jitter { max } => sched.jitter_ns = max.as_nanos(),
                FaultKind::Reorder { p, delay } => {
                    sched.reorder = p;
                    sched.reorder_delay_ns = delay.as_nanos();
                }
                FaultKind::Duplicate { p } => sched.duplicate = p,
                FaultKind::SpoofInject { p } => sched.spoof = p,
                FaultKind::BurstLoss { asn, loss } => {
                    sched
                        .burst
                        .entry(asn.0)
                        .or_default()
                        .push((span.0, span.1, loss));
                }
                FaultKind::LinkFlap { asn } => {
                    sched.flap.entry(asn.0).or_default().push(span);
                }
                FaultKind::Crash { host } => {
                    sched.crash.entry(host).or_default().push(span);
                }
            }
        }
        // Windows were generated in time order per entity; enabling a
        // subset preserves that, so the per-entity lists stay sorted.
        sched
    }

    /// The profile name this schedule was compiled from.
    pub fn profile_name(&self) -> &str {
        &self.profile_name
    }

    /// All events (enabled or not), id order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Ids of the currently enabled events.
    pub fn enabled_ids(&self) -> Vec<u32> {
        self.events
            .iter()
            .zip(&self.enabled)
            .filter(|(_, &on)| on)
            .map(|(e, _)| e.id)
            .collect()
    }

    /// Enabled-event counts by kind label (metrics, reports).
    pub fn event_counts(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (e, &on) in self.events.iter().zip(&self.enabled) {
            if on {
                *out.entry(e.kind.name()).or_insert(0) += 1;
            }
        }
        out
    }

    /// True if flows between `a` and `b` are shard-local (either side is a
    /// measured AS) and must use occurrence-counted packet keys.
    pub fn keys_by_occurrence(&self, a: Asn, b: Asn) -> bool {
        self.local_asns.contains(&a.0) || self.local_asns.contains(&b.0)
    }

    /// Packet key for shard-local flows: `(src, dst, send time, occurrence
    /// index among same-flow sends at that instant)`.
    pub fn occurrence_key(&self, src: IpAddr, dst: IpAddr, now: SimTime, occurrence: u32) -> u64 {
        let mut h = FNV_OFFSET;
        fnv1a(&mut h, &self.seed.to_le_bytes());
        fnv1a_addr(&mut h, src);
        fnv1a_addr(&mut h, dst);
        fnv1a(&mut h, &(now.as_nanos()).to_le_bytes());
        fnv1a(&mut h, &occurrence.to_le_bytes());
        h
    }

    /// Packet key for infrastructure-only flows: hash the content. Public
    /// resolver identities (txid, source port) derive from query content,
    /// so this is invariant to shard layout even where traffic from many
    /// shards interleaves.
    pub fn content_key(&self, pkt: &Packet, now: SimTime) -> u64 {
        let mut h = FNV_OFFSET;
        fnv1a(&mut h, &self.seed.to_le_bytes());
        fnv1a_addr(&mut h, pkt.src);
        fnv1a_addr(&mut h, pkt.dst);
        fnv1a(&mut h, &(now.as_nanos()).to_le_bytes());
        match &pkt.transport {
            Transport::Udp(u) => {
                fnv1a(&mut h, &u.src_port.to_le_bytes());
                fnv1a(&mut h, &u.dst_port.to_le_bytes());
                fnv1a(&mut h, u.payload.as_slice());
            }
            Transport::Tcp(t) => {
                fnv1a(&mut h, &t.src_port.to_le_bytes());
                fnv1a(&mut h, &t.dst_port.to_le_bytes());
                fnv1a(&mut h, &t.seq.to_le_bytes());
                fnv1a(&mut h, t.payload.as_slice());
            }
        }
        h
    }

    /// True if an off-path attacker spoofs a forged copy of this DNS
    /// response (same flow, wrong txid) that races the genuine answer.
    /// A pure hash draw over the shard-invariant packet key, so the
    /// injection pattern is byte-identical across `BCD_SHARDS`. Only UDP
    /// packets sourced from port 53 (responses) with a demuxable header
    /// are eligible.
    pub fn spoof_response(&self, key: u64, pkt: &Packet) -> bool {
        if self.spoof <= 0.0 {
            return false;
        }
        let Transport::Udp(u) = &pkt.transport else {
            return false;
        };
        u.src_port == 53 && u.payload.len() >= 2 && unit(mix(key, SPOOF_SALT)) < self.spoof
    }

    /// True if `host` is inside a crash epoch at `now`.
    pub fn host_down(&self, host: HostId, now: SimTime) -> bool {
        self.crash
            .get(&host)
            .is_some_and(|ws| in_window(ws, now.as_nanos()))
    }

    /// Decide the fate of one inter-AS traversal from `a` to `b` at `now`,
    /// given the packet's shard-invariant key.
    pub fn link_fate(&self, key: u64, now: SimTime, a: Asn, b: Asn) -> LinkFate {
        let now_ns = now.as_nanos();
        let mut p_loss = self.loss;
        for asn in [a.0, b.0] {
            if let Some(ws) = self.flap.get(&asn) {
                if in_window(ws, now_ns) {
                    return LinkFate::Drop(DropReason::LinkFlap);
                }
            }
            if let Some(ws) = self.burst.get(&asn) {
                let i = ws.partition_point(|&(_, until, _)| until <= now_ns);
                if i < ws.len() && ws[i].0 <= now_ns {
                    p_loss = 1.0 - (1.0 - p_loss) * (1.0 - ws[i].2);
                }
            }
        }
        if p_loss > 0.0 && unit(mix(key, LOSS_SALT)) < p_loss {
            return LinkFate::Drop(DropReason::ChaosLoss);
        }
        let mut extra_ns: u64 = 0;
        if self.jitter_ns > 0 {
            extra_ns += (unit(mix(key, JITTER_SALT)) * self.jitter_ns as f64) as u64;
        }
        if self.reorder > 0.0 && unit(mix(key, REORDER_SALT)) < self.reorder {
            let scale = 0.5 + unit(mix(key, REORDER_SPREAD_SALT));
            extra_ns += (self.reorder_delay_ns as f64 * scale) as u64;
        }
        let duplicate = if self.duplicate > 0.0 && unit(mix(key, DUP_SALT)) < self.duplicate {
            // The copy trails the original by up to the jitter span (with a
            // 1ms floor so the copy is never simultaneous).
            let span = self.jitter_ns.max(1_000_000);
            Some(SimDuration::from_nanos(
                extra_ns + 1 + (unit(mix(key, DUP_DELAY_SALT)) * span as f64) as u64,
            ))
        } else {
            None
        };
        LinkFate::Pass {
            extra_delay: SimDuration::from_nanos(extra_ns),
            duplicate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> FaultDomain {
        FaultDomain {
            asns: (1000..1040).map(Asn).collect(),
            crash_hosts: (0..60).collect(),
        }
    }

    fn hostile(seed: u64) -> FaultSchedule {
        FaultSchedule::compile(&ChaosConfig::named(seed, "hostile").unwrap(), &domain())
    }

    #[test]
    fn compile_is_deterministic_and_seed_sensitive() {
        let a = hostile(7);
        let b = hostile(7);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.enabled_ids(), b.enabled_ids());
        let c = hostile(8);
        assert_ne!(
            a.events(),
            c.events(),
            "different chaos seeds must give different window layouts"
        );
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let s = hostile(7);
        for (i, e) in s.events().iter().enumerate() {
            assert_eq!(e.id as usize, i);
        }
        assert!(s.events().len() > 10, "hostile should generate many events");
    }

    #[test]
    fn only_events_restricts_and_reindexes() {
        let s = hostile(7);
        // Find a crash event and keep only it.
        let crash_id = s
            .events()
            .iter()
            .find(|e| matches!(e.kind, FaultKind::Crash { .. }))
            .expect("hostile generates crash epochs")
            .id;
        // Recompile with only it enabled, as the shrinker's replays do.
        let mut cfg = ChaosConfig::named(7, "hostile").unwrap();
        cfg.only_events = Some(vec![crash_id]);
        let only = FaultSchedule::compile(&cfg, &domain());
        assert_eq!(only.events(), s.events());
        assert_eq!(only.enabled_ids(), vec![crash_id]);
        let FaultKind::Crash { host } = only.events()[crash_id as usize].kind else {
            unreachable!()
        };
        let mid = SimTime::ZERO
            + SimDuration::from_nanos(
                (only.events()[crash_id as usize].from.as_nanos()
                    + only.events()[crash_id as usize].until.as_nanos())
                    / 2,
            );
        assert!(only.host_down(host, mid));
        // Ambient layers are disabled: every link passes with no delay.
        match only.link_fate(12345, mid, Asn(1), Asn(2)) {
            LinkFate::Pass {
                extra_delay,
                duplicate,
            } => {
                assert_eq!(extra_delay, SimDuration::ZERO);
                assert!(duplicate.is_none());
            }
            other => panic!("expected pass, got {other:?}"),
        }
    }

    #[test]
    fn windows_are_sorted_and_disjoint() {
        let s = hostile(42);
        for ws in s.flap.values().chain(s.crash.values()) {
            for w in ws.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlapping windows: {w:?}");
            }
        }
        for ws in s.burst.values() {
            for w in ws.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlapping windows: {w:?}");
            }
        }
    }

    #[test]
    fn link_fate_is_a_pure_function_of_key_and_time() {
        let s = hostile(7);
        let t = SimTime::from_secs(100);
        for key in [0u64, 1, 99, u64::MAX] {
            assert_eq!(
                s.link_fate(key, t, Asn(1000), Asn(64502)),
                s.link_fate(key, t, Asn(1000), Asn(64502))
            );
        }
    }

    #[test]
    fn ambient_loss_rate_is_near_nominal() {
        let s = FaultSchedule::compile(
            &ChaosConfig::custom(3, "loss", ChaosProfile::loss_only(0.2)),
            &domain(),
        );
        let t = SimTime::from_secs(1);
        let dropped = (0..20_000)
            .filter(|&i| {
                matches!(
                    s.link_fate(splitmix64(i), t, Asn(1000), Asn(1001)),
                    LinkFate::Drop(DropReason::ChaosLoss)
                )
            })
            .count();
        let rate = dropped as f64 / 20_000.0;
        assert!((rate - 0.2).abs() < 0.02, "loss rate {rate} far from 0.2");
    }

    #[test]
    fn link_fate_honours_each_per_packet_knob() {
        const JITTER_NS: u64 = 20_000_000;
        const FLOOR_NS: u64 = 1_000_000;
        let jitter = SimDuration::from_nanos(JITTER_NS);
        // A duplicated pass's (extra delay, how far the copy trails the
        // original); `None` for a drop or a single copy.
        fn dup_trail(f: LinkFate) -> Option<(u64, u64)> {
            let LinkFate::Pass {
                extra_delay,
                duplicate,
            } = f
            else {
                return None;
            };
            let extra = extra_delay.as_nanos();
            Some((extra, duplicate?.as_nanos().checked_sub(extra)?))
        }
        // (what is checked, the profile, a predicate every fate must meet)
        type Case = (&'static str, ChaosProfile, fn(LinkFate) -> bool);
        let cases: [Case; 4] = [
            (
                "total loss drops everything",
                ChaosProfile::loss_only(1.0),
                |f| f == LinkFate::Drop(DropReason::ChaosLoss),
            ),
            (
                "extra delay stays within [0, jitter]",
                ChaosProfile {
                    jitter,
                    ..ChaosProfile::calm()
                },
                |f| {
                    matches!(f, LinkFate::Pass { extra_delay, duplicate: None }
                        if extra_delay.as_nanos() <= JITTER_NS)
                },
            ),
            (
                "a duplicate trails by >= 1 ns and within the jitter span",
                ChaosProfile {
                    jitter,
                    duplicate: 1.0,
                    ..ChaosProfile::calm()
                },
                |f| dup_trail(f).is_some_and(|(_, t)| (1..=JITTER_NS).contains(&t)),
            ),
            (
                "without jitter a duplicate trails within the 1 ms floor",
                ChaosProfile {
                    duplicate: 1.0,
                    ..ChaosProfile::calm()
                },
                |f| dup_trail(f).is_some_and(|(e, t)| e == 0 && (1..=FLOOR_NS).contains(&t)),
            ),
        ];
        let t = SimTime::from_secs(1);
        for (what, profile, holds) in cases {
            let s = FaultSchedule::compile(&ChaosConfig::custom(3, what, profile), &domain());
            let fates: Vec<LinkFate> = (0..2_000)
                .map(|i| s.link_fate(splitmix64(i), t, Asn(1000), Asn(1001)))
                .collect();
            if let Some(bad) = fates.iter().find(|&&f| !holds(f)) {
                panic!("{what}: violated by {bad:?}");
            }
            // The draws spread over their range rather than sitting at one
            // value (total loss has nothing to spread).
            let distinct: HashSet<String> = fates.iter().map(|f| format!("{f:?}")).collect();
            assert!(
                distinct.len() > 1_000 || fates[0] == LinkFate::Drop(DropReason::ChaosLoss),
                "{what}: only {} distinct fates",
                distinct.len()
            );
        }
    }

    #[test]
    fn flap_window_drops_everything_for_affected_as_only() {
        let s = FaultSchedule::compile(
            &ChaosConfig::custom(
                11,
                "flaponly",
                ChaosProfile {
                    flap: Some(LinkFlap {
                        fraction: 1.0,
                        mean_up: SimDuration::from_mins(10),
                        mean_down: SimDuration::from_mins(2),
                    }),
                    ..ChaosProfile::calm()
                },
            ),
            &domain(),
        );
        let e = s
            .events()
            .iter()
            .find(|e| matches!(e.kind, FaultKind::LinkFlap { .. }))
            .unwrap();
        let FaultKind::LinkFlap { asn } = e.kind else {
            unreachable!()
        };
        let mid =
            SimTime::ZERO + SimDuration::from_nanos((e.from.as_nanos() + e.until.as_nanos()) / 2);
        assert_eq!(
            s.link_fate(5, mid, asn, Asn(64502)),
            LinkFate::Drop(DropReason::LinkFlap)
        );
        assert_eq!(
            s.link_fate(5, mid, Asn(64502), asn),
            LinkFate::Drop(DropReason::LinkFlap),
            "flap applies in both directions"
        );
        // Before the window starts the link is up.
        if e.from > SimTime::ZERO {
            let before = SimTime::ZERO + SimDuration::from_nanos(e.from.as_nanos() - 1);
            assert!(matches!(
                s.link_fate(5, before, asn, Asn(64502)),
                LinkFate::Pass { .. }
            ));
        }
    }

    #[test]
    fn spoof_draw_targets_responses_only_and_is_pure() {
        let mut cfg = ChaosConfig::named(5, "spoofy").unwrap();
        let s = FaultSchedule::compile(&cfg, &domain());
        assert_eq!(s.event_counts().get("spoof-inject"), Some(&1));
        let src: IpAddr = "60.0.0.1".parse().unwrap();
        let dst: IpAddr = "60.1.0.1".parse().unwrap();
        let response = Packet::udp(src, dst, 53, 31111, vec![0xAB, 0xCD, 1, 2]);
        let query = Packet::udp(src, dst, 31111, 53, vec![0xAB, 0xCD, 1, 2]);
        let spoofed = (0..20_000)
            .filter(|&i| s.spoof_response(splitmix64(i), &response))
            .count();
        let rate = spoofed as f64 / 20_000.0;
        assert!(
            (rate - 0.35).abs() < 0.02,
            "spoof rate {rate} far from nominal 0.35"
        );
        for key in [0u64, 1, 99, u64::MAX] {
            assert_eq!(
                s.spoof_response(key, &response),
                s.spoof_response(key, &response),
                "spoof draw must be a pure function of the key"
            );
            assert!(
                !s.spoof_response(key, &query),
                "queries (dst port 53) must never be spoof-raced"
            );
        }
        // Disabling the single ambient event turns the adversary off.
        cfg.only_events = Some(Vec::new());
        let off = FaultSchedule::compile(&cfg, &domain());
        assert!((0..1000).all(|i| !off.spoof_response(splitmix64(i), &response)));
    }

    #[test]
    fn chaos_spec_round_trips() {
        for line in [
            "seed=201,profile=hostile",
            "seed=0,profile=calm",
            "seed=18446744073709551615,profile=flaky,events=0+4+17",
        ] {
            let spec: ChaosSpec = line.parse().unwrap();
            assert_eq!(spec.to_string(), line);
        }
        let spec: ChaosSpec = "seed=1,profile=lossy,events=all".parse().unwrap();
        assert_eq!(spec.events, None);
        assert!("profile=lossy".parse::<ChaosSpec>().is_err());
        assert!("seed=1".parse::<ChaosSpec>().is_err());
        assert!("seed=x,profile=lossy".parse::<ChaosSpec>().is_err());
    }

    #[test]
    fn named_profiles_resolve_and_calm_is_empty() {
        for name in ChaosProfile::names() {
            assert!(ChaosProfile::named(name).is_some(), "missing {name}");
            assert!(ChaosConfig::named(1, name).is_some());
        }
        assert!(ChaosProfile::named("no-such-profile").is_none());
        let calm = FaultSchedule::compile(&ChaosConfig::named(1, "calm").unwrap(), &domain());
        assert!(calm.events().is_empty());
    }

    #[test]
    fn spec_round_trips_through_config() {
        let spec: ChaosSpec = "seed=9,profile=bursty,events=1+2".parse().unwrap();
        let cfg = ChaosConfig::from_spec(&spec).unwrap();
        assert_eq!(cfg.spec(), spec);
        assert!(ChaosConfig::from_spec(&ChaosSpec {
            seed: 1,
            profile: "bogus".into(),
            events: None
        })
        .is_none());
    }
}
