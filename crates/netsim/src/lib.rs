//! # bcd-netsim — deterministic discrete-event Internet simulator
//!
//! This crate is the substrate on which the *Behind Closed Doors* (IMC 2020)
//! measurement methodology runs. It models exactly the pieces of the Internet
//! the paper's experiment observes:
//!
//! * **virtual time** with nanosecond resolution ([`SimTime`], [`SimDuration`]),
//! * an **event engine** split into an immutable, `Arc`-shareable world
//!   ([`Topology`]) and a cheap per-run execution state ([`Runtime`]) driving
//!   host nodes ([`Node`]) with packet deliveries and timers, fully
//!   deterministic for a given seed; one [`TopologyBuilder`] registers
//!   every AS, prefix and host, each host with its node or blueprint, and
//!   the host table is the one record of a host's addresses (a node reads
//!   its own through [`NodeCtx::addrs`]),
//! * **IPv4/IPv6 packets** carrying UDP datagrams or a simplified-but-
//!   fingerprintable TCP ([`Packet`], [`TcpSegment`]),
//! * **autonomous systems** announcing prefixes, with per-AS border policies:
//!   origin-side and destination-side source address validation (OSAV/DSAV)
//!   and bogon (private / loopback source) ingress filtering
//!   ([`AsInfo`], [`BorderPolicy`]),
//! * **longest-prefix-match routing** ([`PrefixTable`]),
//! * **links** with a fixed one-way delay: a configurable inter-AS delay
//!   ([`NetworkConfig`]) and a constant 50 µs intra-AS one,
//! * **seeded fault injection** — loss, jitter, reordering, duplication,
//!   burst loss, link flaps, crash epochs and spoofed responses, all pure
//!   hash draws over shard-invariant packet keys ([`FaultSchedule`]),
//! * **host network stacks** that accept or drop packets whose source equals
//!   the destination address ("destination-as-source") or the loopback
//!   address, per OS ([`StackPolicy`]; the per-OS tables live in
//!   `bcd-osmodel`),
//! * a **causal span flight recorder** for per-query tracing: deterministic
//!   [`TraceId`]s carried on packets, typed [`SpanKind`] steps, bounded
//!   shard-mergeable windows ([`FlightRecorder`]). Its packet-fate spans
//!   capture the packet itself, so the window is also the run's packet
//!   capture, exported as libpcap by [`pcap`].
//!
//! Determinism: all simulation randomness flows from one `u64` seed, through
//! per-host `ChaCha8Rng` streams ([`stream_seed`]) and hash draws over
//! canonical bytes ([`hash`]); event ties are broken by a monotone sequence
//! number, so a run is bit-for-bit reproducible across platforms.
//!
//! The design follows the smoltcp idiom from the session's networking guides:
//! event-driven, no async runtime (the workload is CPU-bound with virtual
//! time), typed packet layers, explicit state machines, and first-class fault
//! injection.

pub mod counters;
pub mod engine;
pub mod faults;
pub mod hash;
pub mod lpm;
pub mod merge;
pub mod node;
pub mod packet;
pub mod payload;
pub mod pcap;
pub mod prefix;
pub mod routing;
pub mod sched;
pub mod span;
pub mod time;
pub mod topology;

pub use counters::{DropReason, NetCounters};
pub use engine::{subnet_permille, HostConfig, NetworkConfig, Runtime, Topology, TopologyBuilder};
pub use faults::{
    BurstLoss, ChaosConfig, ChaosProfile, ChaosSpec, CrashRestart, FaultDomain, FaultEvent,
    FaultKind, FaultSchedule, LinkFate, LinkFlap,
};
pub use hash::{splitmix64, stream_seed};
pub use lpm::{LpmSweep, LpmTrie};
pub use merge::Merge;
pub use node::{HostId, Node, NodeCtx};
pub use packet::{Packet, TcpFlags, TcpOptions, TcpSegment, Transport, UdpDatagram};
pub use payload::Payload;
pub use prefix::Prefix;
pub use routing::{PrefixMap, PrefixTable};
pub use sched::{EngineSched, EventQueue, HeapSched, QueuedEvent, SchedKind, WheelSched};
pub use span::{trace_id, FlightRecorder, Span, SpanKind, TraceId, TraceSample};
pub use time::{SimDuration, SimTime};
pub use topology::{AsInfo, Asn, BorderPolicy, StackPolicy};
