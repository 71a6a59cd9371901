//! Property tests for the timing-wheel scheduler, plus the tie-break
//! regression suite.
//!
//! The wheel ([`bcd_netsim::WheelSched`]) is validated two ways:
//!
//! * **differentially** — arbitrary interleavings of pushes (time deltas
//!   spanning same-tick to beyond the wheel's 19.5 h horizon) and pops must
//!   produce the exact `(time, seq)` stream the reference
//!   [`bcd_netsim::HeapSched`] produces, with pushed = popped conservation;
//! * **axiomatically** — same-tick bursts fire in seq (enqueue) order,
//!   `clear` + reinsert behaves like a fresh wheel, and the pop stream is
//!   sorted even when every hierarchy level and the overflow calendar are
//!   populated at once.
//!
//! The engine-level tests at the bottom are the adversarial tie-break
//! regression: a same-instant timer flood and a same-instant packet flood,
//! run under both schedulers, must observe identical fire order and
//! identical counters — and the packet-conservation identity
//! `sent + duplicated = delivered + drops + pending` must hold under an
//! armed chaos fault schedule on either scheduler.

use bcd_netsim::{
    Asn, BorderPolicy, ChaosConfig, ChaosProfile, EngineSched, FaultDomain, FaultSchedule,
    HeapSched, HostConfig, Network, NetworkConfig, Node, NodeCtx, Packet, Prefix, QueuedEvent,
    SchedKind, SimDuration, SimTime, StackPolicy, WheelSched,
};
use proptest::prelude::*;
use std::sync::Arc;

fn timer(at_ns: u64, seq: u64) -> QueuedEvent {
    QueuedEvent {
        at: SimTime::from_nanos(at_ns),
        seq,
        kind: bcd_netsim::sched::EventKind::Timer {
            host: 0,
            token: seq,
        },
    }
}

fn drain(q: &mut impl EngineSched) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    while let Some(ev) = q.pop() {
        out.push((ev.at.as_nanos(), ev.seq));
    }
    out
}

/// One step of a differential run: a push with a delta drawn from one of
/// the wheel's structurally distinct regimes, optionally followed by a pop.
#[derive(Debug, Clone, Copy)]
struct Op {
    /// 0 same instant · 1 same bucket · 2 cross-bucket · 3 cross-slot ·
    /// 4 level 1 · 5 level 2 · 6 overflow calendar
    regime: u8,
    jitter: u64,
    pop: bool,
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..7, any::<u64>(), any::<bool>()).prop_map(|(regime, jitter, pop)| Op {
        regime,
        jitter,
        pop,
    })
}

fn delta(o: Op) -> u64 {
    match o.regime {
        0 => 0,
        1 => o.jitter % 1_000,                   // within a 65 µs bucket
        2 => o.jitter % 100_000,                 // a few buckets out
        3 => 1_000_000 + o.jitter % 50_000_000,  // across level-0 slots
        4 => 60_000_000_000,                     // level 1 (~68 s span)
        5 => 7_200_000_000_000,                  // level 2 (+2 h timers)
        _ => (1 << 46) + (o.jitter % (1 << 46)), // beyond level 2
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The wheel and the heap produce the same pop stream for any
    /// interleaving of pushes and pops, and conserve events exactly.
    #[test]
    fn wheel_is_heap_equivalent(ops in proptest::collection::vec(op(), 1..400)) {
        let mut w = WheelSched::new();
        let mut h = HeapSched::new();
        let mut now = 0u64;
        let mut pushed = 0u64;
        let mut popped = 0u64;
        for (seq, o) in ops.iter().enumerate() {
            let at = now + delta(*o);
            w.push(timer(at, seq as u64));
            h.push(timer(at, seq as u64));
            pushed += 1;
            if o.pop {
                let a = w.pop().map(|e| (e.at, e.seq));
                let b = h.pop().map(|e| (e.at, e.seq));
                prop_assert_eq!(a, b);
                prop_assert_eq!(w.peek_time(), h.peek_time());
                if let Some((t, _)) = a {
                    popped += 1;
                    // Like the engine: time never runs backwards.
                    now = t.as_nanos();
                }
            }
            prop_assert_eq!(w.len(), h.len());
        }
        let rest_w = drain(&mut w);
        let rest_h = drain(&mut h);
        prop_assert_eq!(&rest_w, &rest_h);
        prop_assert_eq!(pushed, popped + rest_w.len() as u64);
        prop_assert!(w.is_empty());
    }

    /// A burst of events at one instant pops back in exact seq (enqueue)
    /// order, wherever that instant lands in the hierarchy.
    #[test]
    fn same_tick_burst_pops_in_seq_order(
        n in 1usize..300,
        base in prop_oneof![
            Just(0u64),
            0u64..100_000_000,
            Just(7_200_000_000_000),
            (1u64 << 46)..(1u64 << 48),
        ],
    ) {
        let mut w = WheelSched::new();
        for seq in 0..n as u64 {
            w.push(timer(base, seq));
        }
        let got = drain(&mut w);
        let want: Vec<(u64, u64)> = (0..n as u64).map(|s| (base, s)).collect();
        prop_assert_eq!(got, want);
    }

    /// The pop stream is globally sorted by (time, seq) even when pushes
    /// land on every level and the overflow calendar simultaneously.
    #[test]
    fn pop_stream_is_sorted(ops in proptest::collection::vec(op(), 1..400)) {
        let mut w = WheelSched::new();
        for (seq, o) in ops.iter().enumerate() {
            w.push(timer(delta(*o), seq as u64));
        }
        let got = drain(&mut w);
        prop_assert_eq!(got.len(), ops.len());
        for pair in got.windows(2) {
            prop_assert!(pair[0] < pair[1], "out of order: {:?}", pair);
        }
    }

    /// clear() is a true cancel-all: the wheel afterwards behaves like a
    /// fresh one for any reinserted schedule (no stale cursor, bucket, or
    /// batch state survives).
    #[test]
    fn clear_then_reinsert_is_like_fresh(
        first in proptest::collection::vec(op(), 1..120),
        consume in 0usize..120,
        second in proptest::collection::vec(op(), 1..120),
    ) {
        let mut w = WheelSched::new();
        for (seq, o) in first.iter().enumerate() {
            w.push(timer(delta(*o), seq as u64));
        }
        for _ in 0..consume.min(first.len()) {
            w.pop();
        }
        w.clear();
        prop_assert!(w.is_empty());
        prop_assert_eq!(w.pending_delivers(), 0);

        let mut fresh = WheelSched::new();
        for (seq, o) in second.iter().enumerate() {
            w.push(timer(delta(*o), seq as u64));
            fresh.push(timer(delta(*o), seq as u64));
        }
        prop_assert_eq!(drain(&mut w), drain(&mut fresh));
    }
}

// ---------------------------------------------------------------------------
// Engine-level tie-break regression: adversarial same-instant floods
// ---------------------------------------------------------------------------

/// Sets every timer for the same deadline in `on_start`, records fire order.
struct TimerFlood {
    tokens: Vec<u64>,
    fired: Vec<u64>,
}

impl Node for TimerFlood {
    fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _pkt: Packet) {}
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        for &t in &self.tokens {
            ctx.set_timer(SimDuration::from_millis(5), t);
        }
    }
    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, token: u64) {
        self.fired.push(token);
    }
}

/// Fires one spoof-free packet per destination port at the same instant.
struct PacketFlood {
    src: std::net::IpAddr,
    dst: std::net::IpAddr,
    count: u16,
}

impl Node for PacketFlood {
    fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _pkt: Packet) {}
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        for i in 0..self.count {
            ctx.send(Packet::udp(self.src, self.dst, 1000 + i, 53, vec![]));
        }
    }
}

/// Counts deliveries and remembers the source-port arrival order.
#[derive(Default)]
struct PortRecorder {
    ports: Vec<u16>,
}

impl Node for PortRecorder {
    fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, pkt: Packet) {
        if let bcd_netsim::Transport::Udp(u) = &pkt.transport {
            self.ports.push(u.src_port);
        }
    }
}

/// Two ASes and a 500-packet same-instant flood between them, over links
/// faulted by `faults` (calm: no fault schedule at all).
fn flood_net(sched: SchedKind, faults: ChaosProfile) -> (Network, usize, usize) {
    let mut net = Network::new(NetworkConfig {
        sched,
        ..Default::default()
    });
    if !faults.is_calm() {
        let domain = FaultDomain {
            asns: vec![Asn(100), Asn(200)],
            crash_hosts: vec![],
        };
        let chaos = ChaosConfig::custom(1, "flood-faults", faults);
        net.set_faults(Some(Arc::new(FaultSchedule::compile(&chaos, &domain))));
    }
    net.add_simple_as(Asn(100), BorderPolicy::strict());
    net.add_simple_as(Asn(200), BorderPolicy::strict());
    net.announce("192.0.2.0/24".parse::<Prefix>().unwrap(), Asn(100));
    net.announce("198.51.100.0/24".parse::<Prefix>().unwrap(), Asn(200));
    let flooder = net.add_host(
        HostConfig {
            addrs: vec!["192.0.2.1".parse().unwrap()],
            asn: Asn(100),
            stack: StackPolicy::permissive(),
        },
        Box::new(PacketFlood {
            src: "192.0.2.1".parse().unwrap(),
            dst: "198.51.100.10".parse().unwrap(),
            count: 500,
        }),
    );
    let sink = net.add_host(
        HostConfig {
            addrs: vec!["198.51.100.10".parse().unwrap()],
            asn: Asn(200),
            stack: StackPolicy::permissive(),
        },
        Box::new(PortRecorder::default()),
    );
    (net, flooder, sink)
}

/// 2000 timers armed for the *same instant*: they must fire in enqueue
/// order (the `(time, seq)` tie-break), identically on both schedulers.
/// This is the adversarial case a scheduler with a payload-sensitive or
/// unstable tie-break gets wrong.
#[test]
fn same_instant_timer_flood_fires_in_enqueue_order() {
    // Token values deliberately descending and colliding, so any ordering
    // by token, hash, or bucket insertion artifact diverges from seq order.
    let tokens: Vec<u64> = (0..2000u64).map(|i| 5000 - (i % 1000)).collect();
    let mut orders = Vec::new();
    for sched in [SchedKind::Heap, SchedKind::Wheel] {
        let mut net = Network::new(NetworkConfig {
            sched,
            ..Default::default()
        });
        net.add_simple_as(Asn(100), BorderPolicy::strict());
        net.announce("192.0.2.0/24".parse::<Prefix>().unwrap(), Asn(100));
        let host = net.add_host(
            HostConfig {
                addrs: vec!["192.0.2.1".parse().unwrap()],
                asn: Asn(100),
                stack: StackPolicy::permissive(),
            },
            Box::new(TimerFlood {
                tokens: tokens.clone(),
                fired: Vec::new(),
            }),
        );
        net.run();
        let fired = net.node::<TimerFlood>(host).unwrap().fired.clone();
        assert_eq!(fired, tokens, "{sched:?}: flood fired out of enqueue order");
        orders.push(fired);
    }
    assert_eq!(orders[0], orders[1]);
}

/// 500 packets sent at the same instant over an unfaulted link all arrive
/// in the same tick; arrival order and counters must match across
/// schedulers byte for byte.
#[test]
fn same_instant_packet_flood_is_scheduler_invariant() {
    let mut runs = Vec::new();
    for sched in [SchedKind::Heap, SchedKind::Wheel] {
        let (mut net, _, sink) = flood_net(sched, ChaosProfile::calm());
        net.run();
        let ports = net.node::<PortRecorder>(sink).unwrap().ports.clone();
        assert_eq!(ports.len(), 500, "{sched:?}: lost deliveries");
        assert_eq!(
            ports,
            (1000u16..1500).collect::<Vec<_>>(),
            "{sched:?}: same-tick deliveries out of send order"
        );
        runs.push((ports, format!("{:?}", net.counters)));
    }
    assert_eq!(runs[0], runs[1]);
}

/// Packet conservation under chaos link faults, on both schedulers:
/// sent + duplicated = delivered + drops + pending.
#[test]
fn conservation_holds_under_faults_on_both_schedulers() {
    let mut summaries = Vec::new();
    for sched in [SchedKind::Heap, SchedKind::Wheel] {
        let faults = ChaosProfile {
            loss: 0.2,
            jitter: SimDuration::from_millis(20),
            duplicate: 0.1,
            ..ChaosProfile::calm()
        };
        let (mut net, _, _) = flood_net(sched, faults);
        net.run();
        let c = &net.counters;
        assert_eq!(
            c.sent + c.duplicated,
            c.delivered + c.total_drops() + net.pending_deliveries(),
            "{sched:?}: conservation violated: {c}"
        );
        assert!(c.total_drops() > 0, "{sched:?}: fault injection inert");
        summaries.push(format!("{c}"));
    }
    // Same seed, same world: the fault pattern itself must be identical.
    assert_eq!(summaries[0], summaries[1]);
}
