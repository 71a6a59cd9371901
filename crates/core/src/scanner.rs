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
use bcd_dnswire::{MessageView, RCode, MAX_NAME_WIRE_LEN};
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

/// Transaction id and source port of a scanner query, from its canonical
/// name text (which already encodes the probe's identity: ts.src.dst.asn)
/// rather than the node rng. A sharded run's scanner only walks its own
/// slice of the schedule, so rng stream *position* is layout-dependent,
/// and no packet byte may be (the flight recorder records them verbatim,
/// and the lab server logs the human lookups it receives). `tag` separates
/// the spoofed probes (`b"probe"`) from the human lookups (`b""`) that
/// reuse their names.
fn query_ids(salt: u64, canonical: &[u8], tag: &[u8]) -> (u16, u16) {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, &salt.to_le_bytes());
    fnv1a(&mut h, canonical);
    fnv1a(&mut h, tag);
    ((h >> 32) as u16, 20_000 + (h % 40_000) as u16)
}

/// RD query header with transaction id 0 (patched in by
/// [`QueryWriter`]): opcode QUERY, RD set, QDCOUNT 1.
const QUERY_HEADER: [u8; 12] = [0, 0, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0];
/// QTYPE A, QCLASS IN.
const QUESTION_TAIL: [u8; 4] = [0, 1, 0, 1];

/// Every query the scanner sends: one RD `A/IN` question, written
/// straight to wire bytes in a reused buffer — header, the name from
/// [`QnameCodec::write_wire`], question tail — with the txid patched in
/// once the canonical name text (derived from the same bytes) has been
/// hashed. Byte-equal to `Message::query(txid, name, RType::A)` encoded;
/// no `Name` or `Message` is built.
#[derive(Debug, Clone)]
pub struct QueryWriter {
    bytes: Vec<u8>,
    canon: [u8; MAX_NAME_WIRE_LEN],
    canon_len: usize,
    sport: u16,
}

impl Default for QueryWriter {
    fn default() -> QueryWriter {
        QueryWriter {
            bytes: Vec::with_capacity(QUERY_HEADER.len() + MAX_NAME_WIRE_LEN + QUESTION_TAIL.len()),
            canon: [0; MAX_NAME_WIRE_LEN],
            canon_len: 0,
            sport: 0,
        }
    }
}

impl QueryWriter {
    /// Write the spoofed-probe query for `codec`'s name
    /// `t<ts>.s<src>.d<dst>.a<asn>.<kw>.<suffix apex>`.
    #[allow(clippy::too_many_arguments)]
    pub fn probe(
        &mut self,
        codec: &QnameCodec,
        salt: u64,
        ts: SimTime,
        src: IpAddr,
        dst: IpAddr,
        asn: u32,
        suffix: SuffixKind,
    ) {
        self.bytes.clear();
        self.bytes.extend_from_slice(&QUERY_HEADER);
        codec.write_wire(&mut self.bytes, ts, src, dst, asn, suffix);
        self.finish(salt, b"probe");
    }

    /// Write a human lookup of a name an earlier probe carried
    /// (`name_wire` as returned by [`QueryWriter::name_wire`]).
    pub fn lookup(&mut self, salt: u64, name_wire: &[u8]) {
        self.bytes.clear();
        self.bytes.extend_from_slice(&QUERY_HEADER);
        self.bytes.extend_from_slice(name_wire);
        self.finish(salt, b"");
    }

    fn finish(&mut self, salt: u64, tag: &[u8]) {
        self.bytes.extend_from_slice(&QUESTION_TAIL);
        let name = &self.bytes[QUERY_HEADER.len()..self.bytes.len() - QUESTION_TAIL.len()];
        self.canon_len = canonical_text(name, &mut self.canon);
        let (txid, sport) = query_ids(salt, &self.canon[..self.canon_len], tag);
        self.bytes[..2].copy_from_slice(&txid.to_be_bytes());
        self.sport = sport;
    }

    /// The whole query message.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The question name in uncompressed wire form.
    pub fn name_wire(&self) -> &[u8] {
        &self.bytes[QUERY_HEADER.len()..self.bytes.len() - QUESTION_TAIL.len()]
    }

    /// The name's canonical text (`Name::canonical_into`'s form: lowercase
    /// labels, each followed by a dot).
    pub fn canonical(&self) -> &str {
        std::str::from_utf8(&self.canon[..self.canon_len]).unwrap_or(".")
    }

    /// The source port the query goes out from.
    pub fn sport(&self) -> u16 {
        self.sport
    }
}

/// Canonical text of an uncompressed wire name: each label lowercased and
/// followed by a dot; the root alone is a single dot.
fn canonical_text(wire: &[u8], out: &mut [u8; MAX_NAME_WIRE_LEN]) -> usize {
    let mut n = 0;
    let mut i = 0;
    while wire[i] != 0 {
        let label = &wire[i + 1..=i + usize::from(wire[i])];
        for (o, b) in out[n..n + label.len()].iter_mut().zip(label) {
            *o = b.to_ascii_lowercase();
        }
        n += label.len();
        out[n] = b'.';
        n += 1;
        i += 1 + label.len();
    }
    if n == 0 {
        out[0] = b'.';
        n = 1;
    }
    n
}

/// Human-intervention noise model (§3.6.3).
#[derive(Debug, Clone, Copy)]
pub struct HumanNoise {
    /// Probability per spoofed probe of a later human lookup.
    pub probability: f64,
    /// Delay before the human resolves the logged name.
    pub delay: SimDuration,
}

/// Scanner configuration. The scanner's real addresses are its host's
/// ([`NodeCtx::addrs`]); only the open-resolver probe is sent from one.
pub struct ScannerConfig {
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

/// A pending human lookup: the probe name's wire bytes and the analyst's
/// address.
type HumanLookup = (Box<[u8]>, IpAddr);

/// The scanner node.
pub struct Scanner {
    cfg: ScannerConfig,
    next_query: usize,
    log_cursor: usize,
    followed_up: HashSet<IpAddr>,
    /// Pending human lookups by due time.
    human_queue: BTreeMap<SimTime, Vec<HumanLookup>>,
    /// Reusable query buffer: every query is written here, then copied
    /// once into the packet's shared payload.
    query: QueryWriter,
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
            query: QueryWriter::default(),
            wall_start: std::time::Instant::now(),
            responses: Vec::new(),
            stats: ScannerStats::default(),
        }
    }

    /// Targets that have received their follow-up battery.
    pub fn followed_up(&self) -> &HashSet<IpAddr> {
        &self.followed_up
    }

    /// Send the query in the writer from `src` to `dst`:53. The trace id
    /// is a pure function of the name, sampled per the armed flight
    /// recorder's policy from the canonical text (trailing dot trimmed
    /// inside), so the armed-but-unsampled path formats nothing.
    fn send_query(&mut self, ctx: &mut NodeCtx<'_>, src: IpAddr, dst: IpAddr) {
        let trace = if ctx.tracing() {
            ctx.sample_trace(self.query.canonical())
        } else {
            0
        };
        let q = &self.query;
        ctx.send(Packet::udp(src, dst, q.sport(), 53, q.bytes()).with_trace(trace));
    }

    /// Write and send one probe query.
    fn send_probe(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        ts: SimTime,
        src: IpAddr,
        dst: IpAddr,
        asn: u32,
        suffix: SuffixKind,
    ) {
        let (codec, salt) = (&self.cfg.codec, self.cfg.noise_salt);
        self.query.probe(codec, salt, ts, src, dst, asn, suffix);
        self.send_query(ctx, src, dst);
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
            self.query.probe(
                &self.cfg.codec,
                self.cfg.noise_salt,
                now,
                q.source,
                q.target,
                t.asn.0,
                SuffixKind::Main,
            );
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
                        .push((self.query.name_wire().into(), admin));
                    ctx.set_timer(h.delay, TOK_HUMAN);
                }
            }

            self.send_query(ctx, q.source, q.target);
        }
    }

    fn fire_followups(&mut self, ctx: &mut NodeCtx<'_>, src: IpAddr, dst: IpAddr) {
        let now = ctx.now();
        let asn = self.cfg.topo.routes().origin(dst).map_or(0, |a| a.0);
        self.stats.followup_sets += 1;
        // 10 IPv4-only + 10 IPv6-only, each with a unique timestamp label
        // (nanosecond offsets keep names unique without altering lifetime).
        for i in 0..FOLLOWUPS_PER_FAMILY {
            let ts = now + SimDuration::from_nanos(i);
            self.send_probe(ctx, ts, src, dst, asn, SuffixKind::F4);
            let ts = now + SimDuration::from_nanos(FOLLOWUPS_PER_FAMILY + i);
            self.send_probe(ctx, ts, src, dst, asn, SuffixKind::F6);
            self.stats.followup_queries += 2;
        }
        // Open-resolver probe: NOT spoofed — our real source address.
        let real = ctx
            .addr_for(dst)
            .expect("scanner host has an address in every target family");
        let ts = now + SimDuration::from_nanos(2 * FOLLOWUPS_PER_FAMILY);
        self.send_probe(ctx, ts, real, dst, asn, SuffixKind::Main);
        self.stats.open_probes += 1;
        // TCP probe: spoofed again, in the TC=1 zone.
        let ts = now + SimDuration::from_nanos(2 * FOLLOWUPS_PER_FAMILY + 1);
        self.send_probe(ctx, ts, src, dst, asn, SuffixKind::Tcp);
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
                        && !ctx.addrs().contains(&tag.src)
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
            for (name, admin) in self.human_queue.remove(&t).unwrap_or_default() {
                // The analyst's resolver queries our authoritative server
                // directly with the logged name (source: inside target AS);
                // the same name gives the same trace id, so a sampled trace
                // shows the human lookup alongside the probe.
                self.stats.human_lookups += 1;
                let lab = if admin.is_ipv6() {
                    self.cfg.lab_v6
                } else {
                    self.cfg.lab_v4
                };
                self.query.lookup(self.cfg.noise_salt, &name);
                self.send_query(ctx, admin, lab);
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
