//! The recursive DNS resolver node.
//!
//! Implements the resolver behaviours the experiment depends on:
//!
//! * **client ACLs** — open resolvers answer anyone; closed resolvers
//!   REFUSE sources outside their allow-list (§5.1, §3.8). A spoofed-source
//!   query that *reaches* a closed resolver is only handled if the spoofed
//!   source falls inside the ACL — which is precisely why the paper uses
//!   many spoofed-source categories (§3.2),
//! * **iterative resolution** from root hints, with zone-cut caching and
//!   glue chasing,
//! * **QNAME minimization** (RFC 7816) with the RFC 8020 NXDOMAIN-halting
//!   side effect that hid 55% of qmin resolvers' sources from the
//!   experiment (§3.6.4),
//! * **forwarding** to an upstream resolver (§5.4),
//! * **source-port allocation** via a pluggable [`PortAllocator`] — the
//!   §5.2 observable,
//! * **retransmission** with server rotation and SERVFAIL fallback,
//! * **DNS-over-TCP retry** on TC=1, emitting the resolver OS's TCP SYN
//!   fingerprint (§5.3.1).

use crate::cache::Cache;
use bcd_dnswire::{Message, Name, RCode, RData, RType, Record, WireWriter};
use bcd_netsim::{
    Node, NodeCtx, Packet, Payload, Prefix, SimDuration, SimTime, SpanKind, TcpFlags, TcpSegment,
    Transport,
};
use bcd_osmodel::{p0f, Os, PortAllocator};
use rand::Rng;
use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Arc;

/// Client access control.
#[derive(Debug, Clone)]
pub enum Acl {
    /// Answer queries from any source (an *open* resolver).
    Open,
    /// Answer only sources inside these prefixes; REFUSE everyone else
    /// (a *closed* resolver). The prefix list is `Arc`-shared: world
    /// generation hands the same allocation to every resolver with the
    /// same allow-list (AS-wide lists can run to hundreds of prefixes,
    /// and an Internet-scale world holds ~a million resolver configs).
    Allow(Arc<[Prefix]>),
}

impl Acl {
    /// Does this ACL permit a query from `src`?
    pub fn permits(&self, src: IpAddr) -> bool {
        match self {
            Acl::Open => true,
            Acl::Allow(prefixes) => prefixes.iter().any(|p| p.contains(src)),
        }
    }

    /// True for open resolvers.
    pub fn is_open(&self) -> bool {
        matches!(self, Acl::Open)
    }
}

/// Per-attempt upstream timeout.
pub const UPSTREAM_TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// Total upstream attempts per stage before SERVFAIL.
pub const MAX_ATTEMPTS: u8 = 3;

/// Resolver configuration: what varies between resolvers. The resolver's
/// addresses are its host's ([`NodeCtx::addrs`]); it sends to a peer from
/// the first of them in the peer's family.
#[derive(Debug, Clone)]
pub struct ResolverConfig {
    /// Client access control.
    pub acl: Acl,
    /// Forward all queries to this upstream instead of recursing.
    pub forward_to: Option<IpAddr>,
    /// QNAME minimization enabled (RFC 7816).
    pub qmin: bool,
    /// With qmin: stop on NXDOMAIN for an intermediate label (RFC 8020
    /// semantics — the behaviour that hides the full QNAME, §3.6.4).
    pub qmin_halts_on_nxdomain: bool,
    /// Source-port allocation strategy (§5.2 / Table 5).
    pub allocator: PortAllocator,
    /// Operating system (TTL, TCP fingerprint).
    pub os: Os,
    /// If false, SYNs are emitted with a generic (scrubbed) signature that
    /// p0f cannot classify — models the paper's 90% unknown rate.
    pub p0f_visible: bool,
    /// Root server addresses (shared across every resolver in a world).
    pub root_hints: Arc<[IpAddr]>,
    /// When set, upstream txid and source-port draws are derived from the
    /// *identity* of the pending query (name, stage, attempt, client) mixed
    /// with this salt, instead of consuming the host RNG stream in sequence.
    ///
    /// A resolver serving clients from many ASes (the shared public DNS
    /// hosts) sees a different interleaving of queries under different
    /// survey shardings; sequence-position draws would then give the same
    /// query different ports in different runs. Identity-derived draws make
    /// each relayed query's ephemeral port a pure function of the query
    /// itself, which is what keeps the sharded survey's merged log identical
    /// at every shard count. Only meaningful with a stateless (pool-style)
    /// [`PortAllocator`]; sequential allocators would lose their sequence.
    pub identity_draw_salt: Option<u64>,
    /// Zone cuts `(apex, nameserver addresses)` installed in the cache at
    /// start-up and never expiring.
    ///
    /// Complements `identity_draw_salt` for resolvers whose clients span
    /// many ASes: which cuts a cache has *learned* at a given instant
    /// otherwise depends on which client's query arrived first, so a
    /// referral walk (and the queries it logs at the parent zone) would
    /// appear or vanish with the traffic interleaving. Pre-warming models a
    /// long-running public service whose popular cuts are permanently hot.
    pub preload_cuts: Arc<[(Name, Vec<IpAddr>)]>,
}

impl ResolverConfig {
    /// A sane open-resolver configuration for tests: modern Linux, OS port
    /// pool, no qmin, recursion from the given root hints.
    pub fn test_default(root_hints: Vec<IpAddr>) -> ResolverConfig {
        ResolverConfig {
            acl: Acl::Open,
            forward_to: None,
            qmin: false,
            qmin_halts_on_nxdomain: true,
            allocator: Os::LinuxModern.default_port_allocator(),
            os: Os::LinuxModern,
            p0f_visible: true,
            root_hints: root_hints.into(),
            identity_draw_salt: None,
            preload_cuts: Vec::new().into(),
        }
    }
}

/// Counters exposed for tests and analyses.
#[derive(Debug, Default, Clone)]
pub struct ResolverStats {
    pub client_queries: u64,
    pub refused: u64,
    pub answered: u64,
    pub servfail: u64,
    pub upstream_queries: u64,
    pub tcp_retries: u64,
    pub cache_hits: u64,
    /// Client queries that missed the cache and started a resolution (the
    /// complement of `cache_hits` among permitted queries; REFUSED queries
    /// count as neither).
    pub cache_misses: u64,
}

#[derive(Debug, Clone, Copy)]
struct ClientRef {
    addr: IpAddr,
    port: u16,
    txid: u16,
    /// The resolver address the client queried (source of our reply).
    our_addr: IpAddr,
    /// Causal trace id of the client's query (0 = untraced). Carried so the
    /// reply — and every upstream query resolving it — joins the same trace.
    trace: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum TcpPhase {
    SynSent,
    QuerySent,
}

#[derive(Debug)]
struct Pending {
    client: ClientRef,
    qname: Name,
    qtype: RType,
    /// Forward mode (true) vs. iterative.
    forwarding: bool,
    /// Zone currently being queried.
    zone: Name,
    /// Nameserver addresses for that zone.
    servers: Vec<IpAddr>,
    /// Name currently being asked (equals `qname` unless qmin is walking).
    current_qname: Name,
    txid: u16,
    sport: u16,
    /// Server the in-flight query went to.
    server: Option<IpAddr>,
    attempts: u8,
    tcp: Option<TcpPhase>,
}

/// The recursive resolver node.
pub struct RecursiveResolver {
    cfg: ResolverConfig,
    cache: Cache,
    pending: HashMap<u64, Pending>,
    /// In-flight upstream queries, demuxed by `(txid, source port)` — each
    /// query effectively has its own UDP socket, so a response is matched by
    /// the socket it arrives on *and* the txid, like a real resolver. (Keying
    /// by txid alone would let two co-pending queries that happen to draw the
    /// same 16-bit txid evict each other's registration, turning a harmless
    /// collision into a spurious timeout-and-retry.)
    by_key: HashMap<(u16, u16), u64>,
    next_id: u64,
    ops_since_evict: u32,
    /// Reusable encode buffer: every outgoing message is serialized here,
    /// then copied once into the packet's shared payload.
    scratch: WireWriter,
    /// Public counters.
    pub stats: ResolverStats,
}

const ANSWER_TTL_SECS: u64 = 60;
const CUT_TTL_SECS: u64 = 86_400;

/// Pick a usable server (matching one of our address families) from a list,
/// rotating by attempt number. Prefers IPv4 when dual-stack.
fn pick_server(ctx: &NodeCtx<'_>, servers: &[IpAddr], attempt: u8) -> Option<IpAddr> {
    let usable = |v6: bool| {
        let ours = move |s: &&IpAddr| s.is_ipv6() == v6 && ctx.addr_for(**s).is_some();
        servers.iter().filter(ours)
    };
    let v6 = usable(false).next().is_none();
    let n = usable(v6).count().max(1);
    usable(v6).nth(attempt as usize % n).copied()
}

/// Throwaway RNG for one upstream transmission, seeded purely from the
/// pending query's identity (see [`ResolverConfig::identity_draw_salt`]).
/// Every input is a property of the query itself — never of when it arrived
/// relative to other clients' traffic — so the draws are invariant under
/// re-interleaving.
fn identity_rng(salt: u64, p: &Pending) -> rand_chacha::ChaCha8Rng {
    use bcd_netsim::hash::{fnv1a, FNV_OFFSET};
    use rand::SeedableRng;
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| fnv1a(&mut h, bytes);
    eat(p.current_qname.to_string().as_bytes());
    eat(&p.qtype.to_u16().to_le_bytes());
    eat(&[p.attempts, p.tcp.is_some() as u8, p.forwarding as u8]);
    eat(p.client.addr.to_string().as_bytes());
    eat(&p.client.port.to_le_bytes());
    eat(&p.client.txid.to_le_bytes());
    rand_chacha::ChaCha8Rng::seed_from_u64(bcd_netsim::stream_seed(salt, h))
}

impl RecursiveResolver {
    /// Create the node.
    pub fn new(cfg: ResolverConfig) -> RecursiveResolver {
        let mut cache = Cache::new();
        for (apex, servers) in cfg.preload_cuts.iter() {
            cache.put_cut(apex.clone(), servers.clone(), SimTime::MAX);
        }
        RecursiveResolver {
            cfg,
            cache,
            pending: HashMap::new(),
            by_key: HashMap::new(),
            next_id: 0,
            ops_since_evict: 0,
            scratch: WireWriter::new(),
            stats: ResolverStats::default(),
        }
    }

    /// Read access to the cache — used by attack simulations and tests to
    /// check what a poisoning attempt actually planted.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    fn reply_to_client(&mut self, ctx: &mut NodeCtx<'_>, client: ClientRef, mut resp: Message) {
        resp.header.id = client.txid;
        resp.header.qr = true;
        resp.header.ra = true;
        self.stats.answered += 1;
        ctx.span(client.trace, SpanKind::Reply, || {
            format!(
                "resolver {} -> {} rcode={:?} answers={}",
                client.our_addr,
                client.addr,
                resp.header.rcode,
                resp.answers.len()
            )
        });
        resp.encode_into(&mut self.scratch);
        ctx.send(
            Packet::udp(
                client.our_addr,
                client.addr,
                53,
                client.port,
                self.scratch.as_bytes(),
            )
            .with_ttl(self.cfg.os.initial_ttl())
            .with_trace(client.trace),
        );
    }

    fn respond_rcode(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        client: ClientRef,
        qname: Name,
        qtype: RType,
        rcode: RCode,
        answers: Vec<Record>,
    ) {
        let mut resp = Message::query(client.txid, qname, qtype);
        resp.header.qr = true;
        resp.header.rcode = rcode;
        resp.answers = answers;
        self.reply_to_client(ctx, client, resp);
    }

    /// Begin resolution of a client query (ACL and cache already checked).
    fn start_resolution(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        client: ClientRef,
        qname: Name,
        qtype: RType,
    ) {
        let id = self.next_id;
        self.next_id += 1;

        if let Some(upstream) = self.cfg.forward_to {
            let p = Pending {
                client,
                qname: qname.clone(),
                qtype,
                forwarding: true,
                zone: Name::root(),
                servers: vec![upstream],
                current_qname: qname,
                txid: 0,
                sport: 0,
                server: None,
                attempts: 0,
                tcp: None,
            };
            self.pending.insert(id, p);
            self.send_upstream(ctx, id);
            return;
        }

        // Iterative: start from the deepest cached cut (or root hints).
        let (zone, servers) = self
            .cache
            .best_cut(&qname, ctx.now())
            .unwrap_or_else(|| (Name::root(), self.cfg.root_hints.to_vec()));
        let current_qname = if self.cfg.qmin {
            qname.suffix((zone.label_count() + 1).min(qname.label_count()))
        } else {
            qname.clone()
        };
        let p = Pending {
            client,
            qname,
            qtype,
            forwarding: false,
            zone,
            servers,
            current_qname,
            txid: 0,
            sport: 0,
            server: None,
            attempts: 0,
            tcp: None,
        };
        self.pending.insert(id, p);
        self.send_upstream(ctx, id);
    }

    /// Transmit (or re-transmit) the current stage's query.
    fn send_upstream(&mut self, ctx: &mut NodeCtx<'_>, id: u64) {
        let Some(p) = self.pending.get_mut(&id) else {
            return;
        };
        let Some(server) = (if p.forwarding {
            p.servers.first().copied()
        } else {
            pick_server(ctx, &p.servers, p.attempts)
        }) else {
            self.finish_servfail(ctx, id);
            return;
        };
        let Some(our_addr) = ctx.addr_for(server) else {
            self.finish_servfail(ctx, id);
            return;
        };

        let (txid, sport) = if let Some(salt) = self.cfg.identity_draw_salt {
            let mut rng = identity_rng(salt, self.pending.get(&id).unwrap());
            let txid: u16 = rng.gen();
            (txid, self.cfg.allocator.next_port(&mut rng))
        } else {
            let txid: u16 = ctx.rng().gen();
            (txid, self.cfg.allocator.next_port(ctx.rng()))
        };
        let p = self.pending.get_mut(&id).unwrap();
        // Replace any previous registration for this pending query.
        self.by_key.remove(&(p.txid, p.sport));
        p.txid = txid;
        p.sport = sport;
        p.server = Some(server);
        self.by_key.insert((txid, sport), id);

        let qtype = if p.current_qname == p.qname {
            p.qtype
        } else {
            // Intermediate qmin probe.
            RType::A
        };
        let mut query = Message::query(txid, p.current_qname.clone(), qtype);
        query.header.rd = p.forwarding;
        self.stats.upstream_queries += 1;

        if p.tcp.is_some() {
            // TCP retry path: open the connection; the query goes out after
            // the SYN-ACK.
            let sig = if self.cfg.p0f_visible {
                self.cfg.os.syn_signature()
            } else {
                p0f::generic_signature()
            };
            let seg = p0f::syn_segment(sig, sport, 53, txid as u32);
            let p = self.pending.get_mut(&id).unwrap();
            p.tcp = Some(TcpPhase::SynSent);
            self.stats.tcp_retries += 1;
            ctx.span(p.client.trace, SpanKind::Upstream, || {
                format!(
                    "tcp syn {} -> {} (stage retried over tcp)",
                    our_addr, server
                )
            });
            ctx.send(
                Packet::tcp(our_addr, server, seg)
                    .with_ttl(sig.ittl)
                    .with_trace(p.client.trace),
            );
        } else {
            ctx.span(p.client.trace, SpanKind::Upstream, || {
                format!(
                    "{} {} {:?} -> {} zone={} attempt={}",
                    if p.forwarding { "forward" } else { "query" },
                    p.current_qname,
                    qtype,
                    server,
                    p.zone,
                    p.attempts
                )
            });
            query.encode_into(&mut self.scratch);
            ctx.send(
                Packet::udp(our_addr, server, sport, 53, self.scratch.as_bytes())
                    .with_ttl(self.cfg.os.initial_ttl())
                    .with_trace(p.client.trace),
            );
        }
        let attempts = self.pending.get(&id).unwrap().attempts;
        ctx.set_timer(UPSTREAM_TIMEOUT, (id << 8) | attempts as u64);
    }

    fn finish_servfail(&mut self, ctx: &mut NodeCtx<'_>, id: u64) {
        if let Some(p) = self.pending.remove(&id) {
            self.by_key.remove(&(p.txid, p.sport));
            self.stats.servfail += 1;
            ctx.span(p.client.trace, SpanKind::Validate, || {
                format!(
                    "resolution of {} abandoned after {} attempts -> SERVFAIL",
                    p.qname, p.attempts
                )
            });
            self.respond_rcode(ctx, p.client, p.qname, p.qtype, RCode::ServFail, vec![]);
        }
    }

    fn finish_answer(&mut self, ctx: &mut NodeCtx<'_>, id: u64, resp: &Message) {
        let Some(p) = self.pending.remove(&id) else {
            return;
        };
        self.by_key.remove(&(p.txid, p.sport));
        ctx.span(p.client.trace, SpanKind::Validate, || {
            format!(
                "final {:?} for {} ({} answers, cached)",
                resp.header.rcode,
                p.qname,
                resp.answers.len()
            )
        });
        let expires = ctx.now() + SimDuration::from_secs(ANSWER_TTL_SECS);
        match resp.header.rcode {
            RCode::NXDomain => {
                // RFC 8020: cache the negative name (the *asked* name — for
                // qmin halting that is the intermediate label).
                self.cache.put_nxdomain(p.current_qname.clone(), expires);
            }
            _ => {
                self.cache.put_answer(
                    p.qname.clone(),
                    p.qtype,
                    resp.header.rcode,
                    resp.answers.clone(),
                    expires,
                );
            }
        }
        self.respond_rcode(
            ctx,
            p.client,
            p.qname,
            p.qtype,
            resp.header.rcode,
            resp.answers.clone(),
        );
    }

    /// Interpret an upstream response for pending query `id`.
    fn process_response(&mut self, ctx: &mut NodeCtx<'_>, id: u64, resp: Message) {
        let Some(p) = self.pending.get_mut(&id) else {
            return;
        };

        // Truncated: retry this stage over TCP.
        if resp.header.tc && p.tcp.is_none() {
            ctx.span(p.client.trace, SpanKind::Validate, || {
                "tc=1 -> retry stage over tcp".to_string()
            });
            p.tcp = Some(TcpPhase::SynSent);
            p.attempts = 0;
            self.send_upstream(ctx, id);
            return;
        }

        if p.forwarding {
            self.finish_answer(ctx, id, &resp);
            return;
        }

        // Referral: no answers, NOERROR, NS records for a deeper zone.
        let is_referral = resp.header.rcode == RCode::NoError
            && resp.answers.is_empty()
            && resp.authorities.iter().any(|r| {
                matches!(r.rdata, RData::Ns(_))
                    && r.name.is_subdomain_of(&p.zone)
                    && r.name != p.zone
            });
        if is_referral {
            let cut = resp
                .authorities
                .iter()
                .filter(|r| matches!(r.rdata, RData::Ns(_)))
                .map(|r| r.name.clone())
                .next()
                .unwrap();
            let mut glue: Vec<IpAddr> = Vec::new();
            for add in &resp.additionals {
                match add.rdata {
                    RData::A(a) => glue.push(IpAddr::V4(a)),
                    RData::Aaaa(a) => glue.push(IpAddr::V6(a)),
                    _ => {}
                }
            }
            if glue.is_empty() {
                self.finish_servfail(ctx, id);
                return;
            }
            self.cache.put_cut(
                cut.clone(),
                glue.clone(),
                ctx.now() + SimDuration::from_secs(CUT_TTL_SECS),
            );
            ctx.span(p.client.trace, SpanKind::Validate, || {
                format!("referral to zone {} ({} glue addrs)", cut, glue.len())
            });
            p.zone = cut;
            p.servers = glue;
            p.attempts = 0;
            p.tcp = None;
            if self.cfg.qmin {
                p.current_qname = p
                    .qname
                    .suffix((p.zone.label_count() + 1).min(p.qname.label_count()));
            }
            self.send_upstream(ctx, id);
            return;
        }

        // Terminal rcodes / answers at the current stage.
        let at_full_name = p.current_qname == p.qname;
        match resp.header.rcode {
            RCode::NXDomain => {
                if at_full_name || self.cfg.qmin_halts_on_nxdomain {
                    // RFC 8020: nothing exists beneath an NXDOMAIN name, so
                    // a minimizing resolver stops here — the full QNAME is
                    // never sent (§3.6.4).
                    if !at_full_name {
                        ctx.span(p.client.trace, SpanKind::Validate, || {
                            format!(
                                "nxdomain at {} -> halt, full qname withheld (rfc 8020)",
                                p.current_qname
                            )
                        });
                    }
                    self.finish_answer(ctx, id, &resp);
                } else {
                    // Some implementations ignore the implication and press
                    // on with the full name.
                    ctx.span(p.client.trace, SpanKind::Validate, || {
                        format!(
                            "nxdomain at {} -> press on with full qname",
                            p.current_qname
                        )
                    });
                    p.current_qname = p.qname.clone();
                    p.attempts = 0;
                    p.tcp = None;
                    self.send_upstream(ctx, id);
                }
            }
            RCode::NoError if !at_full_name => {
                // Intermediate label exists; extend by one label.
                let next_len = p.current_qname.label_count() + 1;
                p.current_qname = p.qname.suffix(next_len.min(p.qname.label_count()));
                ctx.span(p.client.trace, SpanKind::Validate, || {
                    format!("qmin step -> {}", p.current_qname)
                });
                p.attempts = 0;
                p.tcp = None;
                self.send_upstream(ctx, id);
            }
            RCode::NoError => self.finish_answer(ctx, id, &resp),
            RCode::Refused | RCode::ServFail => {
                // Try another server / give up.
                ctx.span(p.client.trace, SpanKind::Validate, || {
                    format!("upstream {:?} -> rotate server", resp.header.rcode)
                });
                p.attempts = p.attempts.saturating_add(1);
                if p.attempts >= MAX_ATTEMPTS {
                    self.finish_servfail(ctx, id);
                } else {
                    self.send_upstream(ctx, id);
                }
            }
            _ => self.finish_answer(ctx, id, &resp),
        }
    }

    fn handle_client_query(&mut self, ctx: &mut NodeCtx<'_>, pkt: &Packet, query: Message) {
        let Some(q) = query.question().cloned() else {
            return;
        };
        self.stats.client_queries += 1;
        let client = ClientRef {
            addr: pkt.src,
            port: pkt.transport.src_port(),
            txid: query.header.id,
            our_addr: pkt.dst,
            trace: pkt.trace,
        };

        // Access control: the closed-resolver defence (§5.1).
        if !self.cfg.acl.permits(pkt.src) {
            self.stats.refused += 1;
            ctx.span(pkt.trace, SpanKind::Validate, || {
                format!("acl refused client {}", pkt.src)
            });
            self.respond_rcode(ctx, client, q.name, q.rtype, RCode::Refused, vec![]);
            return;
        }

        // Cache (positive, negative, RFC 8020 subtree).
        if let Some(hit) = self.cache.get_answer(&q.name, q.rtype, ctx.now()) {
            self.stats.cache_hits += 1;
            ctx.span(pkt.trace, SpanKind::CacheProbe, || {
                format!("cache hit {} {:?} rcode={:?}", q.name, q.rtype, hit.rcode)
            });
            self.respond_rcode(ctx, client, q.name, q.rtype, hit.rcode, hit.answers);
            return;
        }
        self.stats.cache_misses += 1;
        ctx.span(pkt.trace, SpanKind::CacheProbe, || {
            format!(
                "cache miss {} {:?} -> {}",
                q.name,
                q.rtype,
                if self.cfg.forward_to.is_some() {
                    "forward"
                } else {
                    "recurse"
                }
            )
        });

        self.ops_since_evict += 1;
        if self.ops_since_evict >= 256 {
            self.ops_since_evict = 0;
            self.cache.evict_expired(ctx.now());
        }

        self.start_resolution(ctx, client, q.name, q.rtype);
    }

    fn handle_upstream_udp(&mut self, ctx: &mut NodeCtx<'_>, pkt: &Packet, resp: Message) {
        // Demux by (txid, the port the response arrived on) — the response
        // must land on the socket the query left from *and* echo its txid,
        // which is what makes port randomization a defence: an off-path
        // attacker must hit both (§5.2).
        let key = (resp.header.id, pkt.transport.dst_port());
        let Some(&id) = self.by_key.get(&key) else {
            return; // unsolicited or stale
        };
        let Some(p) = self.pending.get(&id) else {
            return;
        };
        if p.server != Some(pkt.src) {
            return;
        }
        self.process_response(ctx, id, resp);
    }

    fn handle_tcp(&mut self, ctx: &mut NodeCtx<'_>, pkt: &Packet, seg: &TcpSegment) {
        // Find the pending TCP exchange by our ephemeral port. A late or
        // chaos-duplicated segment can arrive after the exchange completed
        // (entry gone, or back in UDP mode) — every lookup below must
        // tolerate a miss rather than unwrap. When several entries match
        // (port reuse), take the lowest id: HashMap iteration order is not
        // deterministic, and the choice must not depend on it.
        let Some(id) = self
            .pending
            .iter()
            .filter(|(_, p)| {
                p.tcp.is_some() && p.sport == seg.dst_port && p.server == Some(pkt.src)
            })
            .map(|(&id, _)| id)
            .min()
        else {
            return; // late, duplicated, or unsolicited segment
        };
        if seg.flags.syn && seg.flags.ack {
            // Connection open: send the query.
            let Some(p) = self.pending.get_mut(&id) else {
                return;
            };
            if p.tcp != Some(TcpPhase::SynSent) {
                return; // duplicated SYN-ACK: the query already went out
            }
            p.tcp = Some(TcpPhase::QuerySent);
            let qtype = if p.current_qname == p.qname {
                p.qtype
            } else {
                RType::A
            };
            let query = Message::query(p.txid, p.current_qname.clone(), qtype);
            let (sport, server, trace) = (p.sport, p.server.unwrap(), p.client.trace);
            let our_addr = ctx.addr_for(server).unwrap();
            query.encode_into(&mut self.scratch);
            ctx.send(
                Packet::tcp(
                    our_addr,
                    server,
                    TcpSegment {
                        src_port: sport,
                        dst_port: 53,
                        flags: TcpFlags::PSH_ACK,
                        seq: 1,
                        ack: seg.seq.wrapping_add(1),
                        window: 65_535,
                        options: Default::default(),
                        payload: Payload::from(self.scratch.as_bytes()),
                    },
                )
                .with_ttl(self.cfg.os.initial_ttl())
                .with_trace(trace),
            );
        } else if seg.flags.psh && !seg.payload.is_empty() {
            let Ok(resp) = Message::decode(&seg.payload) else {
                return;
            };
            // Only an exchange that actually sent its query over this
            // connection may consume a data segment; a duplicated PSH
            // replayed after the stage completed (tcp back to None, or the
            // entry re-keyed for the next stage) must fall through, not
            // panic on a stale id.
            let Some(p) = self.pending.get_mut(&id) else {
                return;
            };
            if p.tcp != Some(TcpPhase::QuerySent) || resp.header.id != p.txid {
                return;
            }
            // Leaving TCP mode: the response is final for this stage.
            p.tcp = None;
            self.process_response(ctx, id, resp);
        }
    }
}

impl Node for RecursiveResolver {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, pkt: Packet) {
        match &pkt.transport {
            Transport::Udp(u) => {
                let Ok(msg) = Message::decode(&u.payload) else {
                    return;
                };
                if !msg.header.qr && u.dst_port == 53 {
                    self.handle_client_query(ctx, &pkt, msg);
                } else if msg.header.qr {
                    self.handle_upstream_udp(ctx, &pkt, msg);
                }
            }
            Transport::Tcp(t) => {
                let t = t.clone();
                self.handle_tcp(ctx, &pkt, &t);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        let id = token >> 8;
        let attempt = (token & 0xFF) as u8;
        let Some(p) = self.pending.get_mut(&id) else {
            return; // already completed
        };
        if p.attempts != attempt {
            return; // stale timer from an earlier attempt
        }
        p.attempts = p.attempts.saturating_add(1);
        if p.attempts >= MAX_ATTEMPTS {
            self.finish_servfail(ctx, id);
        } else {
            self.send_upstream(ctx, id);
        }
    }
}
