//! The measurement client (§3.4–§3.5).
//!
//! A single [`Scanner`] node:
//!
//! * walks the [`Schedule`], emitting spoofed-source DNS queries at their
//!   scheduled times (the spoof is literal: the packet's source address is
//!   the chosen category address; the vantage AS runs no OSAV),
//! * tails the shared authoritative [`bcd_dns::QueryLog`] "in real time" (a polling
//!   timer, like the paper's log monitoring) and, on the *first* observed
//!   hit for a target, fires the follow-up battery: 10 IPv4-only queries,
//!   10 IPv6-only queries, one non-spoofed open-resolver probe, and one
//!   TC-forced TCP probe (§3.5). Subsequent hits for the same target are
//!   logged but not re-probed,
//! * optionally injects §3.6.3 *human-intervention* noise: a fraction of
//!   probes get a delayed direct lookup of the same query name from an
//!   address inside the target AS — the curious-analyst queries whose long
//!   lifetime the analysis must filter out.
//!
//! Without a poll interval the scanner is a plain schedule walker: no log
//! tail, no follow-ups, no human noise. That is the inbound CRP pass
//! ([`crate::crp`]), whose verdict is read from the log after the run.

use crate::qname::{Decoded, QnameCodec, SuffixKind};
use crate::schedule::{Schedule, ScheduledQuery};
use crate::targets::TargetSet;
use bcd_dns::SharedLog;
use bcd_dnswire::{Message, MessageView, RCode, RType, WireWriter, MAX_NAME_WIRE_LEN};
use bcd_netsim::hash::{fnv1a, fnv1a_addr, FNV_OFFSET};
use bcd_netsim::{Node, NodeCtx, Packet, Prefix, SimDuration, SimTime, Topology, Transport};
use std::collections::{BTreeMap, HashSet};
use std::net::IpAddr;
use std::sync::Arc;

/// Follow-up queries per address family fired at each newly reached
/// target (§3.5: 10 IPv4-only and 10 IPv6-only).
pub const FOLLOWUPS_PER_FAMILY: u64 = 10;

const TOK_WALK: u64 = 0;
const TOK_POLL: u64 = 1;
const TOK_HUMAN: u64 = 2;

/// Deterministic per-probe uniform draw in `[0, 1)`.
///
/// Keyed on the probe's identity (scheduled time, source, target) plus a
/// seed-derived salt — *not* on any stream position — so the draw for a
/// given probe is identical no matter which shard emits it or in what
/// order. This is what keeps §3.6.3 human-noise injection shard-invariant.
pub(crate) fn probe_unit(salt: u64, q: &ScheduledQuery) -> f64 {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, &salt.to_le_bytes());
    fnv1a(&mut h, &q.at.as_nanos().to_le_bytes());
    fnv1a_addr(&mut h, q.source);
    fnv1a_addr(&mut h, q.target);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Human-intervention noise model (§3.6.3).
#[derive(Debug, Clone, Copy)]
pub struct HumanNoise {
    /// Probability per spoofed probe of a later human lookup.
    pub probability: f64,
    /// Delay before the human resolves the logged name.
    pub delay: SimDuration,
}

/// Scanner configuration.
pub struct ScannerConfig {
    /// The scanner's real addresses (used for open-resolver probes and as
    /// the packet source of nothing else).
    pub v4: IpAddr,
    pub v6: IpAddr,
    pub codec: QnameCodec,
    /// This shard's slice of the schedule (compact SoA rows; target
    /// addresses and ASNs resolve through `targets`).
    pub schedule: Schedule,
    /// The shared target set — the schedule's `u32` target indices point
    /// into it. One `Arc` across all shards; no per-shard copies.
    pub targets: Arc<TargetSet>,
    /// The shared topology: follow-up ASN attribution goes through its LPM
    /// trie (`topo.routes().origin`), the same lookup extraction used, so
    /// no full-population `HashMap<IpAddr, u32>` is ever built.
    pub topo: Arc<Topology>,
    /// Log-tail poll interval ("real-time" monitoring granularity);
    /// `None` = no log tail and therefore no follow-up batteries.
    pub poll_interval: Option<SimDuration>,
    pub log: SharedLog,
    /// Lab authoritative server addresses (human-noise queries go straight
    /// here, in the matching family).
    pub lab_v4: IpAddr,
    pub lab_v6: IpAddr,
    pub human_noise: Option<HumanNoise>,
    /// Salt for the per-probe human-noise draw (seed-derived, identical
    /// across shards so the same probes attract human lookups in every
    /// sharding configuration).
    pub noise_salt: u64,
    /// §3.8 opt-outs: from `time` onward, no probes are sent to targets in
    /// `prefix` (the paper honoured five such requests mid-campaign).
    pub opt_outs: Vec<(SimTime, Prefix)>,
    /// §3.4 interruptions (the paper hit "several unexpected interruptions,
    /// including a power outage"): during `[start, start+len)` no probes
    /// leave; the schedule resumes afterwards so *every* prepared query is
    /// still issued — "albeit behind schedule".
    pub outages: Vec<(SimTime, SimDuration)>,
    /// Opt-in progress heartbeat (`BCD_PROGRESS=N`): `(every N probes,
    /// shard id, phase name)`. Emits one stderr line per interval; `None`
    /// (the default) costs a single untaken branch per probe.
    pub progress: Option<(u64, usize, String)>,
}

/// Counters for tests and reports.
#[derive(Debug, Default, Clone)]
pub struct ScannerStats {
    pub spoofed_sent: u64,
    pub followup_sets: u64,
    pub followup_queries: u64,
    pub open_probes: u64,
    pub tcp_probes: u64,
    pub human_lookups: u64,
    pub responses_received: u64,
    pub refused_responses: u64,
    /// Probes suppressed by §3.8 opt-outs.
    pub opted_out: u64,
    /// Walker wake-ups deferred by §3.4 outages.
    pub outage_deferrals: u64,
}

/// The scanner node.
pub struct Scanner {
    cfg: ScannerConfig,
    next_query: usize,
    log_cursor: usize,
    followed_up: HashSet<IpAddr>,
    human_queue: BTreeMap<SimTime, Vec<(bcd_dnswire::Name, IpAddr)>>,
    /// Reusable encode buffer: every probe is serialized here, then copied
    /// once into the packet's shared payload.
    scratch: WireWriter,
    /// Wall-clock start, for the heartbeat's rate/ETA estimate only.
    wall_start: std::time::Instant,
    /// Responses received at the scanner's real addresses:
    /// `(time, responder, rcode)`.
    pub responses: Vec<(SimTime, IpAddr, RCode)>,
    pub stats: ScannerStats,
}

impl Scanner {
    /// Create the node.
    pub fn new(cfg: ScannerConfig) -> Scanner {
        Scanner {
            cfg,
            next_query: 0,
            log_cursor: 0,
            followed_up: HashSet::new(),
            human_queue: BTreeMap::new(),
            scratch: WireWriter::new(),
            wall_start: std::time::Instant::now(),
            responses: Vec::new(),
            stats: ScannerStats::default(),
        }
    }

    /// Targets that have received their follow-up battery.
    pub fn followed_up(&self) -> &HashSet<IpAddr> {
        &self.followed_up
    }

    fn send_dns(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        src: IpAddr,
        dst: IpAddr,
        qname: bcd_dnswire::Name,
    ) {
        // Port and txid derive from the qname (which already encodes the
        // probe's identity — ts.src.dst.asn) rather than the node rng: a
        // sharded run's scanner only walks its own slice of the schedule,
        // so rng stream *position* is layout-dependent, and every packet
        // byte must not be (the flight recorder records them verbatim).
        let mut canon = [0u8; MAX_NAME_WIRE_LEN];
        let n = qname.canonical_into(&mut canon);
        let mut h = FNV_OFFSET;
        fnv1a(&mut h, &self.cfg.noise_salt.to_le_bytes());
        fnv1a(&mut h, &canon[..n]);
        fnv1a(&mut h, b"probe");
        let txid = (h >> 32) as u16;
        let sport = 20_000 + (h % 40_000) as u16;
        // Causal trace id: pure function of the qname, sampled per the
        // armed flight recorder's policy. The sampler sees the same
        // canonical bytes (trailing dot trimmed inside), so the
        // armed-but-unsampled path never Display-formats the name.
        let trace = if ctx.tracing() {
            ctx.sample_trace(std::str::from_utf8(&canon[..n]).unwrap_or("."))
        } else {
            0
        };
        let msg = Message::query(txid, qname, RType::A);
        msg.encode_into(&mut self.scratch);
        ctx.send(Packet::udp(src, dst, sport, 53, self.scratch.as_bytes()).with_trace(trace));
    }

    /// If `now` falls inside a configured outage, the time it ends.
    fn outage_end(&self, now: SimTime) -> Option<SimTime> {
        self.cfg
            .outages
            .iter()
            .filter(|(start, len)| now >= *start && now < *start + *len)
            .map(|(start, len)| *start + *len)
            .max()
    }

    fn emit_scheduled(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        // Powered off: nothing leaves; resume the walker when power returns.
        if let Some(end) = self.outage_end(now) {
            self.stats.outage_deferrals += 1;
            ctx.set_timer(end - now, TOK_WALK);
            return;
        }
        while self.next_query < self.cfg.schedule.len() {
            let i = self.next_query;
            let at = self.cfg.schedule.at(i);
            if at > now {
                ctx.set_timer(at - now, TOK_WALK);
                return;
            }
            self.next_query += 1;
            // Materialize the compact row: the target (address + ASN)
            // resolves through the shared TargetSet.
            let t = self
                .cfg
                .targets
                .get(self.cfg.schedule.target_index(i) as usize);
            let q = ScheduledQuery {
                at,
                target: t.addr,
                source: self.cfg.schedule.source(i, t.addr.is_ipv6()),
                category: self.cfg.schedule.category(i),
            };
            // §3.8: honour opt-out requests received before this probe.
            if self
                .cfg
                .opt_outs
                .iter()
                .any(|(t, p)| now >= *t && p.contains(q.target))
            {
                self.stats.opted_out += 1;
                continue;
            }
            let asn = t.asn.0;
            let qname = self
                .cfg
                .codec
                .encode(now, q.source, q.target, asn, SuffixKind::Main);
            self.stats.spoofed_sent += 1;
            if let Some((every, sid, phase)) = &self.cfg.progress {
                if self.stats.spoofed_sent.is_multiple_of(*every) {
                    // Wall-clock throughput + ETA (display only; never
                    // feeds back into simulation state).
                    let total = self.cfg.schedule.len() as u64;
                    let elapsed = self.wall_start.elapsed().as_secs_f64();
                    let rate = if elapsed > 0.0 {
                        self.stats.spoofed_sent as f64 / elapsed
                    } else {
                        0.0
                    };
                    let eta = if rate > 0.0 {
                        format!("{:.0}s", (total - self.stats.spoofed_sent) as f64 / rate)
                    } else {
                        "?".to_string()
                    };
                    eprintln!(
                        "[bcd] shard {sid} [{phase}]: {}/{total} probes, {rate:.0} q/s, eta {eta}, sim t={now}",
                        self.stats.spoofed_sent,
                    );
                }
            }

            // §3.6.3: with small probability an IDS logs this probe and a
            // human later resolves the name from inside the target network.
            if let Some(h) = self.cfg.human_noise {
                if probe_unit(self.cfg.noise_salt, &q) < h.probability {
                    let admin: IpAddr =
                        Prefix::subprefix_of(q.target, if q.target.is_ipv6() { 64 } else { 24 })
                            .nth(199)
                            .unwrap();
                    let due = now + h.delay;
                    self.human_queue
                        .entry(due)
                        .or_default()
                        .push((qname.clone(), admin));
                    ctx.set_timer(h.delay, TOK_HUMAN);
                }
            }

            self.send_dns(ctx, q.source, q.target, qname);
        }
    }

    fn fire_followups(&mut self, ctx: &mut NodeCtx<'_>, src: IpAddr, dst: IpAddr) {
        let now = ctx.now();
        let asn = self.cfg.topo.routes().origin(dst).map_or(0, |a| a.0);
        self.stats.followup_sets += 1;
        // 10 IPv4-only + 10 IPv6-only, each with a unique timestamp label
        // (nanosecond offsets keep names unique without altering lifetime).
        for i in 0..FOLLOWUPS_PER_FAMILY {
            let name = self.cfg.codec.encode(
                now + SimDuration::from_nanos(i),
                src,
                dst,
                asn,
                SuffixKind::F4,
            );
            self.send_dns(ctx, src, dst, name);
            let name = self.cfg.codec.encode(
                now + SimDuration::from_nanos(FOLLOWUPS_PER_FAMILY + i),
                src,
                dst,
                asn,
                SuffixKind::F6,
            );
            self.send_dns(ctx, src, dst, name);
            self.stats.followup_queries += 2;
        }
        // Open-resolver probe: NOT spoofed — our real source address.
        let real = if dst.is_ipv6() {
            self.cfg.v6
        } else {
            self.cfg.v4
        };
        let name = self.cfg.codec.encode(
            now + SimDuration::from_nanos(2 * FOLLOWUPS_PER_FAMILY),
            real,
            dst,
            asn,
            SuffixKind::Main,
        );
        self.send_dns(ctx, real, dst, name);
        self.stats.open_probes += 1;
        // TCP probe: spoofed again, in the TC=1 zone.
        let name = self.cfg.codec.encode(
            now + SimDuration::from_nanos(2 * FOLLOWUPS_PER_FAMILY + 1),
            src,
            dst,
            asn,
            SuffixKind::Tcp,
        );
        self.send_dns(ctx, src, dst, name);
        self.stats.tcp_probes += 1;
    }

    fn poll_log(&mut self, ctx: &mut NodeCtx<'_>) {
        // Collect triggers first (the borrow on the log must end before we
        // stage sends).
        let mut triggers: Vec<(IpAddr, IpAddr)> = Vec::new();
        {
            let log = self.cfg.log.clone();
            let log = log.borrow();
            let (fresh, cursor) = log.tail_from(self.log_cursor);
            for entry in fresh {
                if let Decoded::Full(tag) = self.cfg.codec.decode(&entry.qname) {
                    if tag.suffix == SuffixKind::Main
                        && tag.src != self.cfg.v4
                        && tag.src != self.cfg.v6
                        && self.followed_up.insert(tag.dst)
                    {
                        triggers.push((tag.src, tag.dst));
                    }
                }
            }
            self.log_cursor = cursor;
        }
        for (src, dst) in triggers {
            self.fire_followups(ctx, src, dst);
        }
        if let Some(every) = self.cfg.poll_interval {
            ctx.set_timer(every, TOK_POLL);
        }
    }

    fn drain_human_queue(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        let due: Vec<SimTime> = self.human_queue.range(..=now).map(|(t, _)| *t).collect();
        for t in due {
            for (qname, admin) in self.human_queue.remove(&t).unwrap_or_default() {
                // The analyst's resolver queries our authoritative server
                // directly with the logged name (source: inside target AS).
                // Port and txid derive from the name rather than the node
                // rng: this packet is *logged* at the lab server, so its
                // observables must not depend on scanner stream position.
                self.stats.human_lookups += 1;
                let lab = if admin.is_ipv6() {
                    self.cfg.lab_v6
                } else {
                    self.cfg.lab_v4
                };
                let mut canon = [0u8; MAX_NAME_WIRE_LEN];
                let n = qname.canonical_into(&mut canon);
                let mut h = FNV_OFFSET;
                fnv1a(&mut h, &self.cfg.noise_salt.to_le_bytes());
                fnv1a(&mut h, &canon[..n]);
                let sport = 20_000 + (h % 40_000) as u16;
                // Same qname as the spoofed probe → same trace id, so a
                // sampled trace shows the human lookup alongside the probe.
                let trace = if ctx.tracing() {
                    ctx.sample_trace(std::str::from_utf8(&canon[..n]).unwrap_or("."))
                } else {
                    0
                };
                let msg = Message::query((h >> 32) as u16, qname, RType::A);
                msg.encode_into(&mut self.scratch);
                ctx.send(
                    Packet::udp(admin, lab, sport, 53, self.scratch.as_bytes()).with_trace(trace),
                );
            }
        }
    }
}

impl Node for Scanner {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        if let Some(at) = self.cfg.schedule.first_at() {
            ctx.set_timer(at - SimTime::ZERO, TOK_WALK);
        }
        if let Some(every) = self.cfg.poll_interval {
            ctx.set_timer(every, TOK_POLL);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        match token {
            TOK_WALK => self.emit_scheduled(ctx),
            TOK_POLL => self.poll_log(ctx),
            TOK_HUMAN => self.drain_human_queue(ctx),
            _ => {}
        }
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, pkt: Packet) {
        // Responses to our open-resolver probes (and REFUSED evidence).
        // Only header fields are read, so a lazy borrowed view is enough —
        // no per-response section/label decoding.
        let Transport::Udp(u) = &pkt.transport else {
            return;
        };
        let Ok(view) = MessageView::parse(&u.payload) else {
            return;
        };
        if view.qr() {
            self.stats.responses_received += 1;
            if view.rcode() == RCode::Refused {
                self.stats.refused_responses += 1;
            }
            self.responses.push((ctx.now(), pkt.src, view.rcode()));
        }
    }
}
