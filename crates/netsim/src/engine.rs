//! The discrete-event network engine.
//!
//! The simulated Internet is split into two layers:
//!
//! * [`Topology`] — the **immutable** world: registered ASes with their
//!   border policies, announced prefixes (longest-prefix-match routing),
//!   link delays, and the static host table (addresses, AS membership,
//!   stack policy). Built once through a [`TopologyBuilder`], then frozen
//!   and shared across engines via `Arc` — a sharded survey pays for world
//!   construction exactly once, and memory stays flat in the shard count
//!   (the same separation of immutable target/route state from per-worker
//!   probe state that high-rate scanners like ZMap rely on).
//! * [`Runtime`] — the **mutable** run: per-host [`Node`] behaviours and
//!   RNG streams, the event queue, clock, counters, and the span flight
//!   recorder. A runtime is cheap to instantiate from a shared topology;
//!   each shard gets its own.
//!
//! [`TopologyBuilder`] is the one way to register ASes, prefixes,
//! interceptors and hosts. Each host carries one payload, in host-id
//! order: the world generator passes a node blueprint and spawns runtimes
//! from the frozen topology later ([`Runtime::lazy`] builds each host's
//! node on its first event); a single-engine world passes the [`Node`]
//! itself ([`Runtime::builder`]) and gets its runtime from
//! [`TopologyBuilder::into_runtime`].
//!
//! The packet pipeline models exactly the two border crossings the paper
//! cares about (§1):
//!
//! ```text
//!  node --send--> [origin AS border: OSAV?] --core link: fixed delay
//!       (+ chaos fate: loss/jitter/dup, if a FaultSchedule is armed)-->
//!       [destination AS border: DSAV? bogon ACLs? middlebox?] -->
//!       [host stack: dst-as-src / loopback acceptance] --> node
//! ```
//!
//! Determinism: the event queue orders by `(time, sequence)`; the sequence
//! number is allocated monotonically at enqueue, so equal-time events fire in
//! enqueue order and every run with the same seed is identical.

use crate::counters::{DropReason, NetCounters};
use crate::faults::{FaultSchedule, LinkFate};
use crate::hash::{fnv1a, stream_seed, Fnv1aWriter, FNV_OFFSET};
use crate::node::{Effect, HostId, Node, NodeCtx};
use crate::packet::{Packet, Transport};
use crate::prefix::{special, Prefix};
use crate::routing::PrefixTable;
use crate::sched::{EngineSched, EventKind, EventQueue, QueuedEvent, SchedKind};
use crate::span::{FlightRecorder, SpanKind};
use crate::time::{SimDuration, SimTime};
use crate::topology::{AsInfo, Asn, BorderPolicy, StackPolicy};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, HashMap};
use std::net::IpAddr;
use std::sync::Arc;

/// One-way delay of an intra-AS traversal (host to host inside one AS).
const INTRA_DELAY: SimDuration = SimDuration::from_micros(50);

/// Global engine configuration.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Seed for all simulation randomness.
    pub seed: u64,
    /// One-way delay of an inter-AS (wide-area) traversal. Links are a
    /// fixed delay; loss, jitter and duplication come only from an armed
    /// [`FaultSchedule`] (see [`Runtime::set_faults`]).
    pub core_delay: SimDuration,
    /// Hard event budget; the run stops (and flags it) when exhausted.
    pub max_events: u64,
    /// Event-scheduler implementation (see [`crate::sched`]). The two are
    /// observationally identical; tests select the heap oracle here.
    pub sched: SchedKind,
}

impl Default for NetworkConfig {
    fn default() -> NetworkConfig {
        NetworkConfig {
            seed: 0,
            core_delay: SimDuration::from_millis(10),
            max_events: 2_000_000_000,
            sched: SchedKind::default(),
        }
    }
}

/// Static host attributes (behaviour is supplied separately as a [`Node`]).
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Addresses bound to this host (v4 and/or v6).
    pub addrs: Vec<IpAddr>,
    /// The AS this host sits in.
    pub asn: Asn,
    /// Kernel acceptance policy for anomalous-source packets.
    pub stack: StackPolicy,
}

/// Sentinel of [`Runtime`]'s per-host slot table: no node built yet.
const UNBUILT: u32 = u32::MAX;

struct HostState {
    id: HostId,
    node: Box<dyn Node>,
    /// Per-host RNG stream, seeded `stream_seed(cfg.seed, host_id)`.
    ///
    /// Giving every host its own stream (instead of one engine-global
    /// stream) makes a host's random draws a function of *its own* event
    /// sequence only. That is what lets a sharded survey partition hosts
    /// across independent engines and still produce byte-identical
    /// per-host observables: a host that sees the same inbound packets at
    /// the same times draws the same values, no matter what the rest of
    /// the world is doing.
    rng: ChaCha8Rng,
}

/// Deterministic per-(AS, source-subnet) permille bucket for partial
/// internal SAV (FNV-1a over ASN and subnet bits). Public so ground-truth
/// oracles (cross-method agreement scoring) can predict exactly which
/// source subnets a partially-filtering border admits.
pub fn subnet_permille(asn: Asn, src: IpAddr) -> u64 {
    let sub = Prefix::subprefix_of(src, if src.is_ipv6() { 64 } else { 24 });
    let (key, _) = sub.key();
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, &asn.0.to_le_bytes());
    fnv1a(&mut h, &key.to_le_bytes());
    h % 1000
}

/// The immutable half of a simulated Internet: ASes and their border
/// policies, announced prefixes, and the static host table.
///
/// A `Topology` holds no run state — no clocks, queues, node behaviour, or
/// RNGs — so it is `Send + Sync` and can back any number of concurrent
/// [`Runtime`]s through an `Arc`. All accessors are read-only; the only way
/// to shape a topology is through a [`TopologyBuilder`].
///
/// The host table is struct-of-arrays: per-host attributes live in
/// parallel `Vec`s indexed by dense [`HostId`], and the address → host map
/// is one sorted `Vec` searched by binary search. At internet scale
/// (~14M bound addresses) this removes the per-host `HostConfig`
/// allocation and the per-address hash-map entry overhead, and makes
/// iteration order a total order over addresses — never hash order.
#[derive(Debug)]
pub struct Topology {
    cfg: NetworkConfig,
    ases: BTreeMap<u32, AsInfo>,
    routes: PrefixTable,
    /// Origin AS per host, indexed by `HostId`.
    host_asn: Vec<Asn>,
    /// Network-stack policy per host, indexed by `HostId`.
    host_stack: Vec<StackPolicy>,
    /// All host addresses, flattened; host `i`'s addresses are
    /// `addrs[addr_start[i] .. addr_start[i + 1]]`.
    addrs: Vec<IpAddr>,
    addr_start: Vec<u32>,
    /// `(address, host)` pairs, sorted by address once sealed; lookups are
    /// binary searches. The builder appends unsorted and sorts in
    /// `finish`.
    ip_index: Vec<(IpAddr, u32)>,
}

impl Topology {
    /// Start building a topology with the given engine configuration;
    /// each host carries one payload of type `P`.
    pub fn builder<P>(cfg: NetworkConfig) -> TopologyBuilder<P> {
        TopologyBuilder {
            payloads: Vec::new(),
            announced: Vec::new(),
            topo: Topology {
                cfg,
                ases: BTreeMap::new(),
                routes: PrefixTable::new(),
                host_asn: Vec::new(),
                host_stack: Vec::new(),
                addrs: Vec::new(),
                addr_start: vec![0],
                ip_index: Vec::new(),
            },
        }
    }

    /// Announced routes (prefix → origin ASN).
    pub fn routes(&self) -> &PrefixTable {
        &self.routes
    }

    /// The AS info for an ASN, if registered.
    pub fn as_info(&self, asn: Asn) -> Option<&AsInfo> {
        self.ases.get(&asn.0)
    }

    /// All registered ASNs.
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.ases.keys().map(|&n| Asn(n))
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.host_asn.len()
    }

    /// The origin AS of a host.
    pub fn host_asn(&self, id: HostId) -> Asn {
        self.host_asn[id]
    }

    /// The network-stack policy of a host.
    pub fn host_stack(&self, id: HostId) -> StackPolicy {
        self.host_stack[id]
    }

    /// The addresses bound to a host, in binding order.
    pub fn host_addrs(&self, id: HostId) -> &[IpAddr] {
        &self.addrs[self.addr_start[id] as usize..self.addr_start[id + 1] as usize]
    }

    /// The host bound to `addr`, if any. The index must be sealed (it is
    /// for any topology obtained from `finish`).
    pub fn host_for_ip(&self, addr: IpAddr) -> Option<HostId> {
        self.ip_index
            .binary_search_by(|(a, _)| a.cmp(&addr))
            .ok()
            .map(|i| self.ip_index[i].1 as HostId)
    }

    /// A stable FNV-1a fingerprint of the full topology contents (config,
    /// ASes, routes, host table). Iteration orders are deterministic
    /// (BTreeMap / announcement order / host-id order), so equal topologies
    /// digest equally across runs and platforms. Tests use this to assert a
    /// shared topology survives concurrent runtimes bit-identical.
    pub fn digest(&self) -> u64 {
        use std::fmt::Write;
        let mut h = Fnv1aWriter::default();
        // Formatting into the hash sink cannot fail.
        let _ = write!(h, "{:?}", self.cfg);
        for info in self.ases.values() {
            let _ = write!(h, "{info:?}");
        }
        for (prefix, asn) in self.routes.iter() {
            let _ = write!(h, "{prefix}>{asn}");
        }
        for id in 0..self.host_count() {
            let _ = write!(
                h,
                "{:?}|{:?}|{:?}",
                self.host_addrs(id),
                self.host_asn[id],
                self.host_stack[id]
            );
        }
        h.0
    }

    /// Append a host's static attributes into the SoA columns; returns its
    /// id. Index entries append unsorted (O(1) per address); `seal` sorts
    /// once and rejects duplicates.
    fn bind_host(&mut self, cfg: HostConfig) -> HostId {
        let id = self.host_asn.len();
        self.host_asn.push(cfg.asn);
        self.host_stack.push(cfg.stack);
        for &a in &cfg.addrs {
            self.addrs.push(a);
            self.ip_index.push((a, id as u32));
        }
        self.addr_start.push(self.addrs.len() as u32);
        id
    }

    /// Sort the address index and reject duplicate bindings. Idempotent;
    /// runs once per bulk build, in `TopologyBuilder::finish`.
    fn seal(&mut self) {
        self.ip_index.sort_unstable_by_key(|(a, _)| *a);
        for w in self.ip_index.windows(2) {
            assert!(w[0].0 != w[1].0, "address {} bound twice", w[0].0);
        }
    }
}

/// Write access to a [`Topology`] under construction, plus one payload per
/// host in host-id order. `finish` freezes the topology and hands the
/// payloads back; after that the only topology handle is immutable.
pub struct TopologyBuilder<P> {
    topo: Topology,
    payloads: Vec<P>,
    /// Announcements in call order; `finish` fills the route table.
    announced: Vec<(Prefix, Asn)>,
}

impl<P> TopologyBuilder<P> {
    /// Register an AS. Panics if the ASN is already registered.
    pub fn add_as(&mut self, info: AsInfo) {
        let prev = self.topo.ases.insert(info.asn.0, info);
        assert!(prev.is_none(), "duplicate AS registration");
    }

    /// Register an AS with the given policy (convenience).
    pub fn add_simple_as(&mut self, asn: Asn, policy: BorderPolicy) {
        self.add_as(AsInfo::new(asn, policy));
    }

    /// Announce a prefix as originated by an AS. The AS must exist. The
    /// announcement is only recorded here; `finish` fills the route table,
    /// so a builder is cheap to fill and its slow half can run elsewhere.
    pub fn announce(&mut self, prefix: Prefix, asn: Asn) {
        assert!(
            self.topo.ases.contains_key(&asn.0),
            "announce for unknown {asn}"
        );
        self.announced.push((prefix, asn));
    }

    /// Register a host with its payload; returns its id. All its addresses
    /// become deliverable once the topology is finished.
    pub fn add_host(&mut self, cfg: HostConfig, payload: P) -> HostId {
        self.payloads.push(payload);
        self.topo.bind_host(cfg)
    }

    /// Install a transparent DNS interceptor (middlebox) for an AS: UDP/53
    /// packets entering the AS from outside are redirected to `host`.
    pub fn set_dns_interceptor(&mut self, asn: Asn, host: HostId) {
        self.topo
            .ases
            .get_mut(&asn.0)
            .expect("interceptor for unknown AS")
            .dns_interceptor = Some(host);
    }

    /// Freeze the topology: fill the route table from the announcements in
    /// call order (a re-announced prefix takes its last origin), sort the
    /// address index (rejecting duplicate bindings) and hand out the
    /// immutable result with the host payloads, indexed by host id.
    pub fn finish(mut self) -> (Topology, Vec<P>) {
        for (prefix, asn) in self.announced {
            self.topo.routes.announce(prefix, asn);
        }
        self.topo.seal();
        (self.topo, self.payloads)
    }
}

impl TopologyBuilder<Box<dyn Node>> {
    /// Freeze the topology and run its nodes on one runtime that owns it.
    pub fn into_runtime(self) -> Runtime {
        let (topo, nodes) = self.finish();
        Runtime::new(Arc::new(topo), nodes)
    }
}

/// The mutable half of a simulation: node behaviours, RNG streams, event
/// queue, clock, counters, and traces, all running over a shared immutable
/// [`Topology`].
///
/// Instantiating a runtime is cheap relative to building a topology — it
/// allocates one 4-byte slot per host and reuses the AS table, routes, and
/// host table through the `Arc`. A host's node and RNG stream are built up
/// front ([`Runtime::new`]) or on its first event ([`Runtime::lazy`]).
/// Hosts may also be attached dynamically to one runtime only (e.g. each
/// survey shard's scanner) via [`Runtime::add_host`]; they overlay the
/// shared table without touching it.
pub struct Runtime {
    topo: Arc<Topology>,
    /// Index into `hosts` per host id — topology hosts first (same ids),
    /// then dynamically added hosts — or `UNBUILT`.
    slots: Vec<u32>,
    /// Node + RNG state of every built host, in build order.
    hosts: Vec<HostState>,
    /// Builds a topology host's node on its first event.
    factory: Box<dyn FnMut(HostId) -> Box<dyn Node>>,
    /// Static attributes of dynamically added hosts (ids continue after the
    /// topology's).
    extra_cfgs: Vec<HostConfig>,
    extra_ip_index: HashMap<IpAddr, HostId>,
    queue: EventQueue,
    now: SimTime,
    seq: u64,
    /// Compiled chaos schedule, if fault injection is armed for this run.
    faults: Option<Arc<FaultSchedule>>,
    /// Occurrence counters for shard-local flows: how many packets of the
    /// flow `(src, dst)` were sent at the current instant. Keys per-packet
    /// chaos draws so they are invariant to shard layout (see
    /// [`crate::faults`]). Only populated while `faults` is armed. An
    /// entry from an earlier instant counts as absent, so `flow_key` sweeps
    /// those out whenever the map is full instead of growing it: the map
    /// holds one instant's flows, not every flow of the run.
    fault_flows: HashMap<(IpAddr, IpAddr), (SimTime, u32)>,
    /// One-entry memo for `FaultSchedule::host_down` at the current
    /// instant: a batch of same-tick sends from one host (the scanner's
    /// steady state) consults the fault schedule once, not per packet.
    down_memo: Option<(HostId, SimTime, bool)>,
    /// Reusable effects buffer for node callbacks (drained after each
    /// invoke, so a warm engine stages effects with zero allocation).
    effects_buf: Vec<Effect>,
    /// Packet accounting for the whole run.
    pub counters: NetCounters,
    /// Optional causal span flight recorder (armed per run via
    /// [`Runtime::arm_flight`], never via topology config, so arming does
    /// not perturb topology digests or shared worlds).
    flight: Option<FlightRecorder>,
    started: bool,
    events_processed: u64,
    /// True if `max_events` was hit and the queue was abandoned.
    pub budget_exhausted: bool,
}

impl Runtime {
    /// A topology builder whose host payloads are the hosts' nodes; finish
    /// it with [`TopologyBuilder::into_runtime`].
    pub fn builder(cfg: NetworkConfig) -> TopologyBuilder<Box<dyn Node>> {
        Topology::builder(cfg)
    }

    /// Instantiate a runtime over a shared topology. `nodes` supplies the
    /// behaviour for every topology host, in host-id order; host `i`'s RNG
    /// stream is seeded `stream_seed(seed, i)`, so a runtime over a
    /// rebuilt-equivalent topology reproduces the same run byte for byte.
    pub fn new(topo: Arc<Topology>, nodes: Vec<Box<dyn Node>>) -> Runtime {
        assert_eq!(
            nodes.len(),
            topo.host_count(),
            "one node per topology host, in host-id order"
        );
        let mut rt = Runtime::lazy(topo, |id| unreachable!("host {id} was built up front"));
        rt.hosts.reserve_exact(nodes.len());
        for (id, node) in nodes.into_iter().enumerate() {
            rt.install(id, node);
        }
        rt
    }

    /// Instantiate a runtime that builds a topology host's node, from
    /// `factory(id)`, on the host's first delivery, seeds its RNG stream as
    /// [`Runtime::new`] does and runs its `on_start` right away. That
    /// matches an up-front build exactly for nodes that are passive until
    /// their first packet, so a built node whose `on_start` stages an
    /// effect or draws from its RNG panics.
    pub fn lazy(
        topo: Arc<Topology>,
        factory: impl FnMut(HostId) -> Box<dyn Node> + 'static,
    ) -> Runtime {
        let sched = topo.cfg.sched;
        Runtime {
            slots: vec![UNBUILT; topo.host_count()],
            hosts: Vec::new(),
            factory: Box::new(factory),
            topo,
            extra_cfgs: Vec::new(),
            extra_ip_index: HashMap::new(),
            queue: EventQueue::new(sched),
            now: SimTime::ZERO,
            seq: 0,
            faults: None,
            fault_flows: HashMap::new(),
            down_memo: None,
            effects_buf: Vec::new(),
            counters: NetCounters::default(),
            flight: None,
            started: false,
            events_processed: 0,
            budget_exhausted: false,
        }
    }

    /// The shared topology this runtime executes over.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// Attach a host with its behaviour to *this runtime only*; returns its
    /// id (continuing after the topology's hosts). The shared topology is
    /// not modified, so other runtimes over the same `Arc` are unaffected.
    /// Panics on a duplicate address binding.
    pub fn add_host(&mut self, cfg: HostConfig, node: Box<dyn Node>) -> HostId {
        let id = self.slots.len();
        for a in &cfg.addrs {
            assert!(
                self.topo.host_for_ip(*a).is_none(),
                "address {a} bound twice"
            );
            let prev = self.extra_ip_index.insert(*a, id);
            assert!(prev.is_none(), "address {a} bound twice");
        }
        self.extra_cfgs.push(cfg);
        self.slots.push(UNBUILT);
        self.install(id, node);
        id
    }

    /// Put a host's node and freshly seeded RNG stream into its slot.
    fn install(&mut self, id: HostId, node: Box<dyn Node>) {
        self.slots[id] = self.hosts.len() as u32;
        self.hosts.push(HostState {
            id,
            node,
            rng: ChaCha8Rng::seed_from_u64(stream_seed(self.topo.cfg.seed, id as u64)),
        });
    }

    /// Arm a compiled chaos schedule: from now on every inter-AS traversal
    /// and host touch consults it (see [`crate::faults`]). Pass the same
    /// `Arc` to every shard of a sharded run.
    pub fn set_faults(&mut self, faults: Option<Arc<FaultSchedule>>) {
        self.faults = faults;
        self.fault_flows.clear();
        self.down_memo = None;
    }

    /// Deliver events still queued (sent but neither delivered nor
    /// dropped). Conservation checks account these as in-flight at the
    /// instant the run stopped.
    pub fn pending_deliveries(&self) -> u64 {
        self.queue.pending_delivers()
    }

    /// Arm the causal span flight recorder with a window of `capacity`
    /// spans. Packets with a non-zero [`Packet::trace`] id leave typed
    /// spans at every pipeline stage from then on; see [`crate::span`].
    pub fn arm_flight(&mut self, capacity: usize) {
        self.flight = Some(FlightRecorder::with_capacity(capacity));
    }

    /// Arm the flight recorder with an origin-side sampling policy (see
    /// [`crate::TraceSample`]): originators consult it through
    /// [`crate::NodeCtx::sample_trace`] when stamping trace ids.
    pub fn arm_flight_sampled(&mut self, capacity: usize, sampling: crate::span::TraceSample) {
        self.flight = Some(FlightRecorder::with_capacity(capacity).with_sampling(sampling));
    }

    /// Detach the flight recorder (shard harvest).
    pub fn take_flight(&mut self) -> Option<FlightRecorder> {
        self.flight.take()
    }

    /// The armed flight recorder, if any.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// Emit one span for a traced packet (no-op when unarmed or untraced;
    /// the detail closure only runs when recording).
    fn span(&mut self, trace: u64, kind: SpanKind, detail: impl FnOnce() -> String) {
        if trace == 0 {
            return;
        }
        if let Some(fr) = self.flight.as_mut() {
            fr.record(self.now, trace, kind, detail());
        }
    }

    /// Emit a packet-fate span (deliver, intercept, drop) that captures
    /// the packet for pcap export; same no-op rules as [`Runtime::span`].
    fn packet_span(&mut self, kind: SpanKind, pkt: &Packet, detail: impl FnOnce() -> String) {
        if pkt.trace == 0 {
            return;
        }
        if let Some(fr) = self.flight.as_mut() {
            fr.record_packet(self.now, pkt.trace, kind, detail(), pkt);
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The origin AS of a host — topology hosts and dynamically added ones
    /// alike.
    pub fn host_asn(&self, id: HostId) -> Asn {
        let n = self.topo.host_count();
        if id < n {
            self.topo.host_asn(id)
        } else {
            self.extra_cfgs[id - n].asn
        }
    }

    /// The network-stack policy of a host.
    pub fn host_stack(&self, id: HostId) -> StackPolicy {
        let n = self.topo.host_count();
        if id < n {
            self.topo.host_stack(id)
        } else {
            self.extra_cfgs[id - n].stack
        }
    }

    /// The addresses bound to a host, in binding order.
    pub fn host_addrs(&self, id: HostId) -> &[IpAddr] {
        let n = self.topo.host_count();
        if id < n {
            self.topo.host_addrs(id)
        } else {
            &self.extra_cfgs[id - n].addrs
        }
    }

    /// Announced routes (prefix → origin ASN), from the shared topology.
    pub fn routes(&self) -> &PrefixTable {
        &self.topo.routes
    }

    /// Mutable access to a host's node, downcast to a concrete type.
    /// Returns `None` if the type does not match or the host has no node
    /// yet (see [`Runtime::lazy`]).
    pub fn node_mut<T: Node>(&mut self, id: HostId) -> Option<&mut T> {
        let slot = *self.slots.get(id).filter(|&&s| s != UNBUILT)?;
        let node: &mut dyn Node = self.hosts[slot as usize].node.as_mut();
        let any: &mut dyn std::any::Any = node;
        any.downcast_mut::<T>()
    }

    /// Shared access to a host's node, downcast to a concrete type.
    pub fn node<T: Node>(&self, id: HostId) -> Option<&T> {
        let slot = *self.slots.get(id).filter(|&&s| s != UNBUILT)?;
        let node: &dyn Node = self.hosts[slot as usize].node.as_ref();
        let any: &dyn std::any::Any = node;
        any.downcast_ref::<T>()
    }

    /// Every built host whose node is a `T`, in build order. Hosts no event
    /// has reached in a [`Runtime::lazy`] runtime have no node to visit.
    pub fn nodes<T: Node>(&self) -> impl Iterator<Item = (HostId, &T)> + '_ {
        self.hosts.iter().filter_map(|h| {
            let node: &dyn Node = h.node.as_ref();
            let any: &dyn std::any::Any = node;
            any.downcast_ref::<T>().map(|n| (h.id, n))
        })
    }

    /// The AS info for an ASN, if registered.
    pub fn as_info(&self, asn: Asn) -> Option<&AsInfo> {
        self.topo.as_info(asn)
    }

    /// All registered ASNs.
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.topo.asns()
    }

    /// Number of hosts (topology + dynamically added), built or not.
    pub fn host_count(&self) -> usize {
        self.slots.len()
    }

    fn host_for_ip(&self, addr: IpAddr) -> Option<HostId> {
        self.topo
            .host_for_ip(addr)
            .or_else(|| self.extra_ip_index.get(&addr).copied())
    }

    /// Schedule an external timer for a host at an absolute time.
    pub fn schedule(&mut self, host: HostId, at: SimTime, token: u64) {
        let seq = self.next_seq();
        self.queue.push(QueuedEvent {
            at,
            seq,
            kind: EventKind::Timer { host, token },
        });
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Deterministic per-path hop count in `[4, 24]`, used to decrement TTLs
    /// so receivers (p0f) can infer initial TTL without us simulating every
    /// router.
    fn path_hops(a: Asn, b: Asn) -> u8 {
        if a == b {
            return 2;
        }
        // FNV-1a over the ASN pair — stable across platforms.
        let mut h = FNV_OFFSET;
        fnv1a(&mut h, &a.0.to_le_bytes());
        fnv1a(&mut h, &b.0.to_le_bytes());
        4 + (h % 21) as u8
    }

    /// Account a drop: counter and (for traced packets) a `Fate` span
    /// naming the reason and capturing the packet.
    fn drop_packet(&mut self, reason: DropReason, pkt: &Packet) {
        self.counters.drop(reason);
        self.packet_span(SpanKind::Fate, pkt, || format!("drop {reason}"));
    }

    /// `FaultSchedule::host_down` with a one-entry memo keyed on
    /// `(host, now)`: the scanner emits whole same-tick batches from one
    /// host, so the batch pays for one schedule consult. The predicate is a
    /// pure function of the armed schedule, so memoization cannot change
    /// results.
    fn cached_host_down(&mut self, host: HostId) -> bool {
        if let Some((h, t, d)) = self.down_memo {
            if h == host && t == self.now {
                return d;
            }
        }
        let d = self
            .faults
            .as_ref()
            .is_some_and(|f| f.host_down(host, self.now));
        self.down_memo = Some((host, self.now, d));
        d
    }

    /// Accept a packet from a node and run the origin-side pipeline; if it
    /// survives, enqueue delivery.
    fn dispatch_send(&mut self, from: HostId, pkt: Packet) {
        self.counters.sent += 1;
        self.span(pkt.trace, SpanKind::Send, || {
            let proto = match &pkt.transport {
                Transport::Udp(_) => "udp",
                Transport::Tcp(_) => "tcp",
            };
            format!(
                "{proto} {}:{} -> {}:{}",
                pkt.src,
                pkt.transport.src_port(),
                pkt.dst,
                pkt.transport.dst_port()
            )
        });

        // Chaos: a host inside a crash epoch emits nothing.
        if self.faults.is_some() && self.cached_host_down(from) {
            self.drop_packet(DropReason::HostDown, &pkt);
            return;
        }

        let origin_asn = self.host_asn(from);
        let Some(dst_asn) = self.topo.routes.origin(pkt.dst) else {
            self.drop_packet(DropReason::NoRoute, &pkt);
            return;
        };
        let crossing = origin_asn != dst_asn;

        // Origin-side SAV (BCP 38): applies only when leaving the AS.
        if crossing {
            let policy = self
                .topo
                .ases
                .get(&origin_asn.0)
                .map(|a| a.policy)
                .unwrap_or_else(BorderPolicy::open);
            if policy.osav && self.topo.routes.origin(pkt.src) != Some(origin_asn) {
                self.drop_packet(DropReason::Osav, &pkt);
                return;
            }
        }

        // Link traversal: a fixed delay. Faults come only from the chaos
        // schedule below.
        let delay = if crossing {
            self.topo.cfg.core_delay
        } else {
            INTRA_DELAY
        };

        // Chaos: seeded fate for inter-AS traversals. The decision is a
        // pure function of a shard-invariant packet key and sim time, so a
        // sharded run drops/delays exactly the packets a single-engine run
        // would (see `crate::faults`).
        let mut chaos_extra = SimDuration::ZERO;
        let mut chaos_dup: Option<SimDuration> = None;
        let mut chaos_spoof = false;
        if crossing {
            // Take/restore instead of cloning the Arc: the schedule is
            // consulted for every crossing packet, and the refcount bump
            // showed up in profiles.
            if let Some(f) = self.faults.take() {
                let key = self.flow_key(&f, &pkt, origin_asn, dst_asn);
                let fate = f.link_fate(key, self.now, origin_asn, dst_asn);
                chaos_spoof = f.spoof_response(key, &pkt);
                self.faults = Some(f);
                match fate {
                    LinkFate::Drop(reason) => {
                        self.drop_packet(reason, &pkt);
                        return;
                    }
                    LinkFate::Pass {
                        extra_delay,
                        duplicate,
                    } => {
                        chaos_extra = extra_delay;
                        chaos_dup = duplicate;
                    }
                }
            }
        }

        // TTL decrement across the path.
        let hops = Self::path_hops(origin_asn, dst_asn);
        self.span(pkt.trace, SpanKind::Route, || {
            format!(
                "as{} -> as{} hops={}{}",
                origin_asn.0,
                dst_asn.0,
                hops,
                if crossing { "" } else { " intra" }
            )
        });
        if chaos_extra > SimDuration::ZERO {
            self.span(pkt.trace, SpanKind::Fate, || {
                format!("chaos-delay +{}ns", chaos_extra.as_nanos())
            });
        }
        if chaos_dup.is_some() {
            self.span(pkt.trace, SpanKind::Fate, || "chaos-dup".to_string());
        }
        let mut delivered = pkt;
        delivered.ttl = delivered.ttl.saturating_sub(hops).max(1);

        // Chaos: the off-path spoofed-response adversary races the genuine
        // answer with a forged copy — same flow and ports, wrong txid —
        // injected at half the link delay so it always arrives first.
        // Receivers demultiplexing on (txid, port) reject it; the injection
        // is a pure function of the shard-invariant flow key.
        if chaos_spoof {
            self.counters.injected += 1;
            self.span(delivered.trace, SpanKind::Fate, || {
                "chaos-spoof-inject".to_string()
            });
            let mut forged = delivered.clone();
            if let Transport::Udp(u) = &mut forged.transport {
                let mut bytes = u.payload.as_slice().to_vec();
                bytes[0] ^= 0xFF;
                bytes[1] ^= 0xA5;
                u.payload = bytes.into();
            }
            let seq = self.next_seq();
            self.queue.push(QueuedEvent {
                at: self.now + SimDuration::from_nanos(delay.as_nanos() / 2),
                seq,
                kind: EventKind::Deliver {
                    pkt: forged,
                    from_asn: origin_asn,
                    dst_asn,
                },
            });
        }

        if let Some(dup_extra) = chaos_dup {
            self.counters.duplicated += 1;
            let seq = self.next_seq();
            self.queue.push(QueuedEvent {
                at: self.now + delay + dup_extra,
                seq,
                kind: EventKind::Deliver {
                    // Payload bytes are Arc-shared, so duplicating a
                    // delivery (like every span capture) is a refcount
                    // bump, not a deep copy of the DNS message.
                    pkt: delivered.clone(),
                    from_asn: origin_asn,
                    dst_asn,
                },
            });
        }
        let seq = self.next_seq();
        self.queue.push(QueuedEvent {
            at: self.now + delay + chaos_extra,
            seq,
            kind: EventKind::Deliver {
                pkt: delivered,
                from_asn: origin_asn,
                dst_asn,
            },
        });
    }

    /// Shard-invariant chaos key for one packet emission: occurrence-
    /// counted for flows touching a measured AS (those are shard-local),
    /// content-hashed for infrastructure-only flows (see `crate::faults`).
    fn flow_key(&mut self, f: &FaultSchedule, pkt: &Packet, a: Asn, b: Asn) -> u64 {
        if f.keys_by_occurrence(a, b) {
            if self.fault_flows.len() == self.fault_flows.capacity() {
                let now = self.now;
                self.fault_flows.retain(|_, slot| slot.0 == now);
                // Keep at least half the map free, so sweeps stay amortised O(1).
                self.fault_flows.reserve(self.fault_flows.len());
            }
            let slot = self
                .fault_flows
                .entry((pkt.src, pkt.dst))
                .or_insert((SimTime::MAX, 0));
            if slot.0 == self.now {
                slot.1 += 1;
            } else {
                *slot = (self.now, 0);
            }
            f.occurrence_key(pkt.src, pkt.dst, self.now, slot.1)
        } else {
            f.content_key(pkt, self.now)
        }
    }

    /// Run the destination-side pipeline and deliver to the node.
    /// `dst_asn` was resolved at send time (routes are static during a
    /// run), so delivery pays no longest-prefix match for it.
    fn dispatch_deliver(&mut self, pkt: Packet, from_asn: Asn, dst_asn: Asn) {
        let crossing = from_asn != dst_asn;
        let mut deliver_to: Option<HostId> = None;

        if crossing {
            let info = self.topo.ases.get(&dst_asn.0);
            let policy = info.map(|a| a.policy).unwrap_or_else(BorderPolicy::open);
            let interceptor = info.and_then(|a| a.dns_interceptor);
            // Both DSAV and partial internal SAV ask whether the claimed
            // source is internal to the destination AS; resolve the
            // longest-prefix match once for both.
            let src_is_internal = (policy.dsav || policy.internal_pass_permille < 1000)
                && self.topo.routes.origin(pkt.src) == Some(dst_asn);

            let lb_filtered = if pkt.is_v6() {
                policy.filter_loopback_ingress_v6
            } else {
                policy.filter_loopback_ingress
            };
            if lb_filtered && special::is_loopback(pkt.src) {
                self.drop_packet(DropReason::LoopbackIngress, &pkt);
                return;
            }
            if policy.filter_ds_ingress_v4 && !pkt.is_v6() && pkt.is_dst_as_src() {
                self.drop_packet(DropReason::MartianDs, &pkt);
                return;
            }
            if policy.filter_private_ingress && special::is_private_or_ula(pkt.src) {
                self.drop_packet(DropReason::PrivateIngress, &pkt);
                return;
            }
            // DSAV: inbound packet claiming an internal source.
            if policy.dsav && src_is_internal {
                self.drop_packet(DropReason::Dsav, &pkt);
                return;
            }
            // Subnet-level SAVI: source in the destination's own /24 or /64.
            if policy.subnet_savi
                && pkt.src.is_ipv6() == pkt.dst.is_ipv6()
                && Prefix::subprefix_of(pkt.dst, if pkt.dst.is_ipv6() { 64 } else { 24 })
                    .contains(pkt.src)
            {
                self.drop_packet(DropReason::SubnetSavi, &pkt);
                return;
            }
            // Partial internal SAV: internal-source spoofs from *other*
            // subnets pass only if their subnet hashes under the permille
            // threshold (deterministic per AS+subnet). The destination's
            // own subnet is always feasible.
            if policy.internal_pass_permille < 1000
                && src_is_internal
                && pkt.src.is_ipv6() == pkt.dst.is_ipv6()
                && !Prefix::subprefix_of(pkt.dst, if pkt.dst.is_ipv6() { 64 } else { 24 })
                    .contains(pkt.src)
                && subnet_permille(dst_asn, pkt.src) >= policy.internal_pass_permille as u64
            {
                self.drop_packet(DropReason::PartialSav, &pkt);
                return;
            }
            // Transparent DNS middlebox: UDP/53 entering the AS is grabbed.
            if let Some(mbx) = interceptor {
                if matches!(&pkt.transport, Transport::Udp(u) if u.dst_port == 53) {
                    self.counters.intercepted += 1;
                    self.packet_span(SpanKind::Intercept, &pkt, || {
                        format!("as{} middlebox grabbed udp/53 for {}", dst_asn.0, pkt.dst)
                    });
                    deliver_to = Some(mbx);
                }
            }
        }

        let host = match deliver_to {
            Some(h) => h,
            None => {
                let Some(h) = self.host_for_ip(pkt.dst) else {
                    self.drop_packet(DropReason::NoHost, &pkt);
                    return;
                };
                // Host network-stack acceptance (paper Table 6). Middlebox
                // deliveries bypass this: an in-path interceptor is not the
                // packet's addressee.
                let stack = self.host_stack(h);
                let ds = pkt.is_dst_as_src();
                let lb = pkt.has_loopback_src();
                if !stack.accepts(ds, lb, pkt.is_v6()) {
                    let reason = if lb {
                        DropReason::StackLoopback
                    } else {
                        DropReason::StackDstAsSrc
                    };
                    self.drop_packet(reason, &pkt);
                    return;
                }
                h
            }
        };

        // Chaos: a destination inside a crash epoch accepts nothing
        // (middlebox deliveries included — interceptors can crash too).
        if self.faults.is_some() && self.cached_host_down(host) {
            self.drop_packet(DropReason::HostDown, &pkt);
            return;
        }

        self.counters.delivered += 1;
        self.packet_span(SpanKind::Deliver, &pkt, || format!("dst={}", pkt.dst));
        self.invoke(host, |node, ctx| node.on_packet(ctx, pkt));
    }

    /// Invoke a node callback with a fresh context, then apply staged
    /// effects. A host's first event builds its node first and runs its
    /// `on_start`, which must leave no trace (see [`Runtime::lazy`]).
    fn invoke(&mut self, host: HostId, f: impl FnOnce(&mut dyn Node, &mut NodeCtx<'_>)) {
        let fresh = self.slots[host] == UNBUILT;
        if fresh {
            let node = (self.factory)(host);
            self.install(host, node);
        }
        // The effects buffer is reused across invocations: it keeps its
        // capacity, so a warm engine stages effects with no allocation.
        let mut effects = std::mem::take(&mut self.effects_buf);
        {
            // Borrowed field by field (not through `host_addrs`, which
            // would borrow all of `self`) so node and rng can be lent mutably.
            let HostState { node, rng, .. } = &mut self.hosts[self.slots[host] as usize];
            let n = self.topo.host_count();
            let addrs = if host < n {
                self.topo.host_addrs(host)
            } else {
                &self.extra_cfgs[host - n].addrs
            };
            let mut ctx = NodeCtx {
                now: self.now,
                addrs,
                rng,
                effects: &mut effects,
                spans: self.flight.as_mut(),
            };
            if fresh {
                node.on_start(&mut ctx);
                assert!(
                    ctx.effects.is_empty() && ctx.rng.get_word_pos() == 0,
                    "host {host}: a node built on its first event must stage nothing \
                     and draw nothing in on_start"
                );
            }
            f(node.as_mut(), &mut ctx);
        }
        for e in effects.drain(..) {
            match e {
                Effect::Send(p) => self.dispatch_send(host, p),
                Effect::Timer { after, token } => {
                    let seq = self.next_seq();
                    self.queue.push(QueuedEvent {
                        at: self.now + after,
                        seq,
                        kind: EventKind::Timer { host, token },
                    });
                }
            }
        }
        self.effects_buf = effects;
    }

    /// Run `on_start` on every host built before the first event.
    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for slot in 0..self.hosts.len() {
            self.invoke(self.hosts[slot].id, |node, ctx| node.on_start(ctx));
        }
    }

    /// Process a single event. Returns the time of the processed event, or
    /// `None` if the queue is empty or the budget is exhausted.
    pub fn step(&mut self) -> Option<SimTime> {
        self.start_if_needed();
        if self.events_processed >= self.topo.cfg.max_events {
            if !self.queue.is_empty() {
                self.budget_exhausted = true;
                // Only queued deliveries are packets; abandoned timers are
                // not drops.
                for _ in 0..self.queue.pending_delivers() {
                    self.counters.drop(DropReason::Truncated);
                }
                self.queue.clear();
            }
            return None;
        }
        let ev = self.queue.pop()?;
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at.max(self.now);
        self.events_processed += 1;
        match ev.kind {
            EventKind::Deliver {
                pkt,
                from_asn,
                dst_asn,
            } => self.dispatch_deliver(pkt, from_asn, dst_asn),
            EventKind::Timer { host, token } => {
                self.invoke(host, |node, ctx| node.on_timer(ctx, token))
            }
        }
        Some(self.now)
    }

    /// Run until the queue drains (or the event budget is exhausted).
    pub fn run(&mut self) {
        while self.step().is_some() {}
    }

    /// Run while events exist with time ≤ `until`. The clock is advanced to
    /// `until` afterwards even if the queue drained earlier.
    pub fn run_until(&mut self, until: SimTime) {
        self.start_if_needed();
        while let Some(at) = self.queue.peek_time() {
            if at > until || self.step().is_none() {
                break;
            }
        }
        self.now = self.now.max(until);
    }

    /// Advance the clock by `d`, processing everything due in between.
    pub fn run_for(&mut self, d: SimDuration) {
        let until = self.now + d;
        self.run_until(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::SinkNode;
    use std::net::IpAddr;

    type NetBuilder = TopologyBuilder<Box<dyn Node>>;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn pre(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn host(addr: &str, asn: u32, stack: StackPolicy) -> HostConfig {
        HostConfig {
            addrs: vec![ip(addr)],
            asn: Asn(asn),
            stack,
        }
    }

    /// Two ASes; a sender in AS 100 that fires one packet at start.
    struct Shooter {
        src: IpAddr,
        dst: IpAddr,
    }
    impl Node for Shooter {
        fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _pkt: Packet) {}
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.send(Packet::udp(self.src, self.dst, 1000, 53, vec![1]));
        }
    }

    fn two_as_net(src_policy: BorderPolicy, dst_policy: BorderPolicy) -> (NetBuilder, HostId) {
        let mut net = Runtime::builder(NetworkConfig::default());
        net.add_simple_as(Asn(100), src_policy);
        net.add_simple_as(Asn(200), dst_policy);
        net.announce(pre("192.0.2.0/24"), Asn(100));
        net.announce(pre("198.51.100.0/24"), Asn(200));
        let sink = net.add_host(
            host("198.51.100.10", 200, StackPolicy::permissive()),
            Box::new(SinkNode::default()),
        );
        (net, sink)
    }

    /// Add a one-shot sender at 192.0.2.1 (AS 100), then finish the world
    /// and run it to completion.
    fn run_shooter(mut net: NetBuilder, src: &str, dst: &str) -> Runtime {
        net.add_host(
            host("192.0.2.1", 100, StackPolicy::permissive()),
            Box::new(Shooter {
                src: ip(src),
                dst: ip(dst),
            }),
        );
        let mut rt = net.into_runtime();
        rt.run();
        rt
    }

    #[test]
    fn honest_packet_is_delivered() {
        let (net, sink) = two_as_net(BorderPolicy::strict(), BorderPolicy::strict());
        let net = run_shooter(net, "192.0.2.1", "198.51.100.10");
        assert_eq!(net.counters.delivered, 1);
        assert_eq!(net.node::<SinkNode>(sink).unwrap().received, 1);
    }

    #[test]
    fn osav_blocks_spoofed_egress() {
        // Source spoofed to a prefix not announced by AS 100.
        let (net, sink) = two_as_net(BorderPolicy::strict(), BorderPolicy::open());
        let net = run_shooter(net, "198.51.100.200", "198.51.100.10");
        assert_eq!(net.counters.dropped(DropReason::Osav), 1);
        assert_eq!(net.node::<SinkNode>(sink).unwrap().received, 0);
    }

    #[test]
    fn dsav_blocks_internal_source_ingress() {
        // No OSAV at origin; destination runs DSAV; source claims to be
        // inside the destination AS.
        let (net, sink) = two_as_net(
            BorderPolicy::open(),
            BorderPolicy {
                dsav: true,
                ..BorderPolicy::open()
            },
        );
        let net = run_shooter(net, "198.51.100.200", "198.51.100.10");
        assert_eq!(net.counters.dropped(DropReason::Dsav), 1);
        assert_eq!(net.node::<SinkNode>(sink).unwrap().received, 0);
    }

    #[test]
    fn no_dsav_admits_internal_source_spoof() {
        let (net, sink) = two_as_net(BorderPolicy::open(), BorderPolicy::open());
        let net = run_shooter(net, "198.51.100.200", "198.51.100.10");
        assert_eq!(net.counters.delivered, 1);
        assert_eq!(net.node::<SinkNode>(sink).unwrap().received, 1);
    }

    #[test]
    fn dst_as_src_is_caught_by_dsav_but_not_open_borders() {
        let (net, _) = two_as_net(
            BorderPolicy::open(),
            BorderPolicy {
                dsav: true,
                ..BorderPolicy::open()
            },
        );
        let net = run_shooter(net, "198.51.100.10", "198.51.100.10");
        assert_eq!(net.counters.dropped(DropReason::Dsav), 1);

        let (net, sink) = two_as_net(BorderPolicy::open(), BorderPolicy::open());
        let net = run_shooter(net, "198.51.100.10", "198.51.100.10");
        assert_eq!(net.node::<SinkNode>(sink).unwrap().received, 1);
    }

    #[test]
    fn subnet_savi_blocks_same_prefix_but_not_other_prefix() {
        let savi = BorderPolicy {
            subnet_savi: true,
            ..BorderPolicy::open()
        };
        // Same-/24 spoof: dropped by subnet SAVI.
        let (net, sink) = two_as_net(BorderPolicy::open(), savi);
        let net = run_shooter(net, "198.51.100.200", "198.51.100.10");
        assert_eq!(net.counters.dropped(DropReason::SubnetSavi), 1);
        assert_eq!(net.node::<SinkNode>(sink).unwrap().received, 0);

        // Dst-as-src is inside the destination's /24 too: also dropped.
        let (net, _) = two_as_net(BorderPolicy::open(), savi);
        let net = run_shooter(net, "198.51.100.10", "198.51.100.10");
        assert_eq!(net.counters.dropped(DropReason::SubnetSavi), 1);

        // An other-prefix spoof (different /24 of the same AS) passes.
        let (mut net, _) = two_as_net(BorderPolicy::open(), savi);
        net.announce(pre("198.51.101.0/24"), Asn(200));
        let net = run_shooter(net, "198.51.101.77", "198.51.100.10");
        assert_eq!(net.counters.dropped(DropReason::SubnetSavi), 0);
        assert_eq!(net.counters.delivered, 1);
    }

    #[test]
    fn private_and_loopback_ingress_acls() {
        let acl = BorderPolicy {
            filter_private_ingress: true,
            filter_loopback_ingress: true,
            ..BorderPolicy::open()
        };
        let (net, _) = two_as_net(BorderPolicy::open(), acl);
        let net = run_shooter(net, "192.168.0.10", "198.51.100.10");
        assert_eq!(net.counters.dropped(DropReason::PrivateIngress), 1);

        let (net, _) = two_as_net(BorderPolicy::open(), acl);
        let net = run_shooter(net, "127.0.0.1", "198.51.100.10");
        assert_eq!(net.counters.dropped(DropReason::LoopbackIngress), 1);

        // With open borders they reach the (permissive) host stack.
        let (net, sink) = two_as_net(BorderPolicy::open(), BorderPolicy::open());
        let net = run_shooter(net, "192.168.0.10", "198.51.100.10");
        assert_eq!(net.node::<SinkNode>(sink).unwrap().received, 1);
    }

    #[test]
    fn stack_policy_drops_loopback_at_host() {
        let (mut net, _) = two_as_net(BorderPolicy::open(), BorderPolicy::open());
        // Replace sink host stack with strict (drop anomalies): easiest is a
        // second host with a strict stack.
        let strict_sink = net.add_host(
            host("198.51.100.77", 200, StackPolicy::strict()),
            Box::new(SinkNode::default()),
        );
        let net = run_shooter(net, "127.0.0.1", "198.51.100.77");
        assert_eq!(net.counters.dropped(DropReason::StackLoopback), 1);
        assert_eq!(net.node::<SinkNode>(strict_sink).unwrap().received, 0);
    }

    #[test]
    fn unrouted_destination_and_unbound_address() {
        let (net, _) = two_as_net(BorderPolicy::open(), BorderPolicy::open());
        let net = run_shooter(net, "192.0.2.1", "203.0.113.5"); // no route
        assert_eq!(net.counters.dropped(DropReason::NoRoute), 1);

        let (net, _) = two_as_net(BorderPolicy::open(), BorderPolicy::open());
        let net = run_shooter(net, "192.0.2.1", "198.51.100.99"); // routed, no host
        assert_eq!(net.counters.dropped(DropReason::NoHost), 1);
    }

    #[test]
    fn ttl_is_decremented_on_path() {
        struct TtlProbe {
            seen: Option<u8>,
        }
        impl Node for TtlProbe {
            fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, pkt: Packet) {
                self.seen = Some(pkt.ttl);
            }
        }
        let (mut net, _) = two_as_net(BorderPolicy::open(), BorderPolicy::open());
        let probe = net.add_host(
            host("198.51.100.42", 200, StackPolicy::permissive()),
            Box::new(TtlProbe { seen: None }),
        );
        let net = run_shooter(net, "192.0.2.1", "198.51.100.42");
        let seen = net.node::<TtlProbe>(probe).unwrap().seen.unwrap();
        assert!(seen < 64, "ttl should have been decremented, got {seen}");
        assert!(seen >= 64 - 24, "hop count bounded, got {seen}");
    }

    #[test]
    fn timers_fire_in_order_and_runs_are_deterministic() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl Node for TimerNode {
            fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _pkt: Packet) {}
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_timer(SimDuration::from_secs(2), 2);
                ctx.set_timer(SimDuration::from_secs(1), 1);
                ctx.set_timer(SimDuration::from_secs(2), 3);
            }
            fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, token: u64) {
                self.fired.push(token);
            }
        }
        let run = || {
            let mut net = Runtime::builder(NetworkConfig::default());
            net.add_simple_as(Asn(1), BorderPolicy::open());
            net.announce(pre("192.0.2.0/24"), Asn(1));
            let h = net.add_host(
                host("192.0.2.1", 1, StackPolicy::default()),
                Box::new(TimerNode { fired: vec![] }),
            );
            let mut net = net.into_runtime();
            net.run();
            (net.node::<TimerNode>(h).unwrap().fired.clone(), net.now())
        };
        let (fired1, t1) = run();
        let (fired2, t2) = run();
        assert_eq!(fired1, vec![1, 2, 3]); // FIFO among equal times
        assert_eq!(fired1, fired2);
        assert_eq!(t1, t2);
    }

    /// The fault occurrence map keeps one instant's flows, not every flow
    /// of the run: 12,000 distinct flows, three per instant.
    #[test]
    fn fault_flow_map_holds_one_instant() {
        struct Spray(u32);
        impl Node for Spray {
            fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _pkt: Packet) {}
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                self.on_timer(ctx, 0);
            }
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
                for _ in 0..3 {
                    self.0 -= 1;
                    let [_, _, hi, lo] = self.0.to_be_bytes();
                    let (src, dst) = ([192, 0, 2, hi].into(), [198, 51, 100, lo].into());
                    ctx.send(Packet::udp(src, dst, 1000, 53, vec![1]));
                }
                if self.0 > 0 {
                    ctx.set_timer(SimDuration::from_millis(1), 0);
                }
            }
        }
        let (mut net, _) = two_as_net(BorderPolicy::open(), BorderPolicy::open());
        let spray = host("192.0.2.1", 100, StackPolicy::permissive());
        net.add_host(spray, Box::new(Spray(12_000)));
        let mut net = net.into_runtime();
        let asns = vec![Asn(100), Asn(200)];
        let domain = crate::faults::FaultDomain {
            asns,
            crash_hosts: vec![],
        };
        let chaos = crate::faults::ChaosConfig::named(1, "hostile").unwrap();
        net.set_faults(Some(Arc::new(FaultSchedule::compile(&chaos, &domain))));
        net.run();
        assert_eq!(net.counters.sent, 12_000);
        let slots = net.fault_flows.capacity();
        assert!(slots <= 16, "occurrence map grew to {slots} slots");
    }

    #[test]
    fn event_budget_stops_runaway_loops() {
        struct PingPong {
            me: IpAddr,
            peer: IpAddr,
        }
        impl Node for PingPong {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                // Still pending at the cutoff: not a packet, so not a drop.
                ctx.set_timer(SimDuration::from_secs(3600), 0);
                ctx.send(Packet::udp(self.me, self.peer, 1, 1, vec![]));
            }
            fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, pkt: Packet) {
                ctx.send(Packet::udp(pkt.dst, pkt.src, 1, 1, vec![]));
            }
        }
        let mut net = Runtime::builder(NetworkConfig {
            max_events: 100,
            ..Default::default()
        });
        net.add_simple_as(Asn(1), BorderPolicy::open());
        net.announce(pre("192.0.2.0/24"), Asn(1));
        for (me, peer) in [("192.0.2.1", "192.0.2.2"), ("192.0.2.2", "192.0.2.1")] {
            let node = PingPong {
                me: ip(me),
                peer: ip(peer),
            };
            net.add_host(host(me, 1, StackPolicy::default()), Box::new(node));
        }
        let mut net = net.into_runtime();
        while net.events_processed() < 100 {
            net.step();
        }
        let in_flight = net.pending_deliveries();
        assert!(in_flight > 0);
        net.run();
        assert!(net.budget_exhausted);
        assert_eq!(net.events_processed(), 100);
        // Truncation drops the packets in flight, and only those.
        let c = &net.counters;
        assert_eq!(c.dropped(DropReason::Truncated), in_flight);
        assert_eq!(
            c.sent + c.duplicated + c.injected,
            c.delivered + c.total_drops()
        );
    }

    #[test]
    fn node_ctx_lends_the_host_addresses() {
        /// Records the addresses its context lends it.
        struct AddrProbe(Vec<IpAddr>);
        impl Node for AddrProbe {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                self.0 = ctx.addrs().to_vec();
            }
            fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _pkt: Packet) {}
        }
        let multi = |addrs: &[&str]| HostConfig {
            addrs: addrs.iter().map(|a| ip(a)).collect(),
            asn: Asn(200),
            stack: StackPolicy::permissive(),
        };
        let (mut net, _) = two_as_net(BorderPolicy::open(), BorderPolicy::open());
        let probe = Box::new(AddrProbe(Vec::new()));
        let topo_host = net.add_host(multi(&["198.51.100.20", "2001:db8::20", "10.0.0.1"]), probe);
        let mut rt = net.into_runtime();
        let probe = Box::new(AddrProbe(Vec::new()));
        let extra = rt.add_host(multi(&["2001:db8::30", "198.51.100.30"]), probe);
        assert_eq!(extra, rt.topology().host_count(), "a runtime-only host");
        rt.run();
        for id in [topo_host, extra] {
            let seen = &rt.node::<AddrProbe>(id).unwrap().0;
            assert!(seen.len() > 1);
            assert_eq!(seen.as_slice(), rt.host_addrs(id), "host {id}");
        }
    }

    #[test]
    fn middlebox_intercepts_udp53_from_outside_only() {
        let (mut net, sink) = two_as_net(BorderPolicy::open(), BorderPolicy::open());
        let mbx = net.add_host(
            host("198.51.100.53", 200, StackPolicy::permissive()),
            Box::new(SinkNode::default()),
        );
        net.set_dns_interceptor(Asn(200), mbx);
        let net = run_shooter(net, "192.0.2.1", "198.51.100.10");
        assert_eq!(net.counters.intercepted, 1);
        assert_eq!(net.node::<SinkNode>(mbx).unwrap().received, 1);
        assert_eq!(net.node::<SinkNode>(sink).unwrap().received, 0);
    }

    #[test]
    fn run_until_advances_clock() {
        let mut net = Runtime::builder(NetworkConfig::default());
        net.add_simple_as(Asn(1), BorderPolicy::open());
        let mut net = net.into_runtime();
        net.run_until(SimTime::from_secs(100));
        assert_eq!(net.now(), SimTime::from_secs(100));
        net.run_for(SimDuration::from_secs(5));
        assert_eq!(net.now(), SimTime::from_secs(105));
    }

    #[test]
    fn flight_recorder_captures_packet_fates() {
        /// Sends one traced packet to the sink and one to an unbound
        /// address, plus an untraced one the recorder must ignore.
        struct TracedShooter;
        impl Node for TracedShooter {
            fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _pkt: Packet) {}
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                let src = ip("192.0.2.1");
                ctx.send(Packet::udp(src, ip("198.51.100.10"), 1000, 53, vec![1]).with_trace(7));
                ctx.send(Packet::udp(src, ip("198.51.100.99"), 1001, 53, vec![2]).with_trace(9));
                ctx.send(Packet::udp(src, ip("198.51.100.10"), 1002, 53, vec![3]));
            }
        }
        let (mut net, _sink) = two_as_net(BorderPolicy::open(), BorderPolicy::open());
        net.add_host(
            host("192.0.2.1", 100, StackPolicy::permissive()),
            Box::new(TracedShooter),
        );
        let mut net = net.into_runtime();
        net.arm_flight(100);
        net.run();
        assert_eq!(net.counters.sent, 3);
        let fr = net.flight().unwrap();
        let fates: Vec<(SpanKind, u16)> = fr
            .packets()
            .map(|(_, kind, pkt)| (kind, pkt.transport.src_port()))
            .collect();
        // Exactly the traced packets' fates; send and route spans carry
        // no packet.
        assert_eq!(fates.len(), 2, "{fates:?}");
        assert!(fates.contains(&(SpanKind::Deliver, 1000)));
        assert!(fates.contains(&(SpanKind::Fate, 1001)));
        assert!(fr.iter().any(|s| s.kind == SpanKind::Send));
    }

    /// One shared topology, many runtimes: the topology stays bit-identical
    /// across runs, every runtime off the shared `Arc` reproduces a freshly
    /// built runtime's run exactly, and dynamic hosts stay runtime-local.
    #[test]
    fn shared_topology_runtimes_match_rebuilt_networks() {
        let (fresh, sink) = two_as_net(BorderPolicy::open(), BorderPolicy::open());
        let fresh = run_shooter(fresh, "192.0.2.1", "198.51.100.10");
        let fresh_counters = format!("{:?}", fresh.counters);
        assert_eq!(fresh.node::<SinkNode>(sink).unwrap().received, 1);

        // The same world, built again and frozen as a bare topology.
        let (mut b, _) = two_as_net(BorderPolicy::open(), BorderPolicy::open());
        b.add_host(
            host("192.0.2.1", 100, StackPolicy::permissive()),
            Box::new(SinkNode::default()),
        );
        let topo = Arc::new(b.finish().0);
        let digest_before = topo.digest();
        assert_eq!(digest_before, fresh.topology().digest());

        let spawn_nodes = || -> Vec<Box<dyn Node>> {
            vec![
                Box::new(SinkNode::default()),
                Box::new(Shooter {
                    src: ip("192.0.2.1"),
                    dst: ip("198.51.100.10"),
                }),
            ]
        };

        // Two runtimes off one Arc, run back to back.
        for _ in 0..2 {
            let mut rt = Runtime::new(Arc::clone(&topo), spawn_nodes());
            // A runtime-local extra host must not leak into the topology.
            let extra = rt.add_host(
                host("198.51.100.99", 200, StackPolicy::permissive()),
                Box::new(SinkNode::default()),
            );
            assert_eq!(extra, topo.host_count());
            rt.run();
            assert_eq!(format!("{:?}", rt.counters), fresh_counters);
            assert_eq!(rt.now(), fresh.now());
            assert_eq!(rt.events_processed(), fresh.events_processed());
            assert_eq!(rt.node::<SinkNode>(sink).unwrap().received, 1);
            assert_eq!(rt.node::<SinkNode>(extra).unwrap().received, 0);
        }
        assert_eq!(topo.digest(), digest_before, "topology mutated by a run");
        assert_eq!(topo.host_count(), 2, "dynamic host leaked into topology");
    }

    /// A lazy runtime builds exactly the hosts an event reaches, and a
    /// built host behaves as it does in a runtime built up front.
    #[test]
    fn lazy_runtime_builds_hosts_on_first_event() {
        let (mut b, sink) = two_as_net(BorderPolicy::open(), BorderPolicy::open());
        let idle = b.add_host(
            host("198.51.100.11", 200, StackPolicy::permissive()),
            Box::new(SinkNode::default()),
        );
        let topo = Arc::new(b.finish().0);
        let run = |mut rt: Runtime| {
            rt.add_host(
                host("192.0.2.1", 100, StackPolicy::permissive()),
                Box::new(Shooter {
                    src: ip("192.0.2.1"),
                    dst: ip("198.51.100.10"),
                }),
            );
            rt.run();
            rt
        };
        let eager = run(Runtime::new(
            Arc::clone(&topo),
            vec![Box::new(SinkNode::default()), Box::new(SinkNode::default())],
        ));
        let lazy = run(Runtime::lazy(Arc::clone(&topo), |_| {
            Box::new(SinkNode::default())
        }));
        assert_eq!(
            format!("{:?}", lazy.counters),
            format!("{:?}", eager.counters)
        );
        assert_eq!(lazy.events_processed(), eager.events_processed());
        assert_eq!(lazy.node::<SinkNode>(sink).unwrap().received, 1);
        assert!(lazy.node::<SinkNode>(idle).is_none(), "idle host was built");
        assert_eq!(eager.nodes::<SinkNode>().count(), 2);
        let built: Vec<HostId> = lazy.nodes::<SinkNode>().map(|(id, _)| id).collect();
        assert_eq!(built, vec![sink]);
    }

    #[test]
    #[should_panic(expected = "must stage nothing")]
    fn lazily_built_node_with_a_start_timer_panics() {
        struct Ticker;
        impl Node for Ticker {
            fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _pkt: Packet) {}
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
        }
        let (b, _) = two_as_net(BorderPolicy::open(), BorderPolicy::open());
        let mut rt = Runtime::lazy(Arc::new(b.finish().0), |_| Box::new(Ticker));
        rt.add_host(
            host("192.0.2.1", 100, StackPolicy::permissive()),
            Box::new(Shooter {
                src: ip("192.0.2.1"),
                dst: ip("198.51.100.10"),
            }),
        );
        rt.run();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn duplicate_address_panics_at_finish() {
        let (mut net, _) = two_as_net(BorderPolicy::open(), BorderPolicy::open());
        net.add_host(
            host("198.51.100.10", 200, StackPolicy::permissive()),
            Box::new(SinkNode::default()),
        );
        let _ = net.finish();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn runtime_host_on_a_topology_address_panics() {
        let (net, _) = two_as_net(BorderPolicy::open(), BorderPolicy::open());
        let mut rt = net.into_runtime();
        rt.add_host(
            host("198.51.100.10", 200, StackPolicy::permissive()),
            Box::new(SinkNode::default()),
        );
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn runtime_hosts_sharing_an_address_panic() {
        let (net, _) = two_as_net(BorderPolicy::open(), BorderPolicy::open());
        let mut rt = net.into_runtime();
        for _ in 0..2 {
            rt.add_host(
                host("198.51.100.20", 200, StackPolicy::permissive()),
                Box::new(SinkNode::default()),
            );
        }
    }

    #[test]
    fn topology_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Topology>();
    }
}
