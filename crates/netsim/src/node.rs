//! The node programming model.
//!
//! A [`Node`] is the behaviour attached to a host: a recursive resolver, an
//! authoritative server, the scanner client, a middlebox... Nodes are driven
//! by two callbacks — packet delivery and timer expiry — and interact with
//! the world exclusively through [`NodeCtx`], which *stages* effects (sends,
//! timers) that the engine applies after the callback returns. This is the
//! classic discrete-event pattern: it keeps the engine borrow-safe and makes
//! node logic trivially unit-testable with a synthetic context.
//!
//! A node keeps no copy of its own addresses: the host table is the one
//! record of them, and [`NodeCtx::addrs`] lends the host's slice to every
//! callback.

use crate::packet::Packet;
use crate::span::{FlightRecorder, SpanKind, TraceId};
use crate::time::{SimDuration, SimTime};
use rand_chacha::ChaCha8Rng;
use std::net::IpAddr;

/// Identifier of a host within a [`crate::Topology`] (dense, in
/// registration order) or a [`crate::Runtime`]'s own hosts after it.
pub type HostId = usize;

/// An effect staged by a node during a callback.
#[derive(Debug)]
pub enum Effect {
    /// Transmit a packet (subject to routing, border policy, link faults).
    Send(Packet),
    /// Request a timer callback `after` from now with an opaque token.
    Timer { after: SimDuration, token: u64 },
}

/// Execution context passed to node callbacks.
pub struct NodeCtx<'a> {
    pub(crate) now: SimTime,
    pub(crate) addrs: &'a [IpAddr],
    pub(crate) rng: &'a mut ChaCha8Rng,
    pub(crate) effects: &'a mut Vec<Effect>,
    /// Span sink when the engine's flight recorder is armed; `None` keeps
    /// the disabled cost at one untaken branch per [`NodeCtx::span`] call.
    pub(crate) spans: Option<&'a mut FlightRecorder>,
}

impl<'a> NodeCtx<'a> {
    /// Construct a context (no span sink). Public so tests and alternative
    /// engines can drive nodes directly.
    pub fn new(
        now: SimTime,
        addrs: &'a [IpAddr],
        rng: &'a mut ChaCha8Rng,
        effects: &'a mut Vec<Effect>,
    ) -> NodeCtx<'a> {
        NodeCtx {
            now,
            addrs,
            rng,
            effects,
            spans: None,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The addresses bound to this node's host, in binding order — the
    /// host table's own slice, borrowed for the callback. The returned
    /// borrow outlives `&self`, so a node can hold it across `rng()` or
    /// `send()` calls.
    pub fn addrs(&self) -> &'a [IpAddr] {
        self.addrs
    }

    /// This host's first address in `peer`'s family, if it has one: the
    /// source a node uses to talk to `peer`.
    pub fn addr_for(&self, peer: IpAddr) -> Option<IpAddr> {
        self.addrs
            .iter()
            .copied()
            .find(|a| a.is_ipv6() == peer.is_ipv6())
    }

    /// Deterministic RNG shared by the simulation.
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        self.rng
    }

    /// Stage a packet for transmission.
    pub fn send(&mut self, pkt: Packet) {
        self.effects.push(Effect::Send(pkt));
    }

    /// Stage a timer that fires `after` from now, delivering `token` to
    /// [`Node::on_timer`].
    pub fn set_timer(&mut self, after: SimDuration, token: u64) {
        self.effects.push(Effect::Timer { after, token });
    }

    /// True when a flight recorder is armed (nodes can skip building
    /// expensive detail strings otherwise — though the closure form of
    /// [`NodeCtx::span`] already defers that).
    pub fn tracing(&self) -> bool {
        self.spans.is_some()
    }

    /// Origin-side sampling decision for a query qname: the trace id to
    /// stamp on the packet, or `0` (untraced / recorder unarmed). See
    /// [`crate::TraceSample`].
    pub fn sample_trace(&self, qname: &str) -> TraceId {
        self.spans.as_ref().map_or(0, |rec| rec.sample(qname))
    }

    /// Emit a span for `trace` at the current instant. No-op when the
    /// recorder is unarmed or `trace == 0`; the detail closure only runs
    /// when the span is actually recorded.
    pub fn span(&mut self, trace: TraceId, kind: SpanKind, detail: impl FnOnce() -> String) {
        if trace == 0 {
            return;
        }
        if let Some(rec) = self.spans.as_deref_mut() {
            rec.record(self.now, trace, kind, detail());
        }
    }
}

/// Behaviour attached to a host.
///
/// The `Any` supertrait lets tests and analyses downcast a stored
/// `Box<dyn Node>` back to its concrete type via
/// [`crate::Runtime::node`] / [`crate::Runtime::node_mut`].
pub trait Node: std::any::Any {
    /// A packet addressed to (one of) this host's addresses was delivered.
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, pkt: Packet);

    /// A timer set via [`NodeCtx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _token: u64) {}

    /// Called once when the simulation starts (in host-id order) — or, for
    /// a node a [`crate::Runtime::lazy`] runtime builds on the host's first
    /// event, right when it is built; such a node must stage nothing and
    /// draw nothing here.
    fn on_start(&mut self, _ctx: &mut NodeCtx<'_>) {}
}

/// A node that silently absorbs all traffic. Useful as a placeholder for
/// hosts that exist only to occupy an address.
#[derive(Debug, Default)]
pub struct SinkNode {
    /// Packets received, for assertions in tests.
    pub received: u64,
}

impl Node for SinkNode {
    fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _pkt: Packet) {
        self.received += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    struct Echo;
    impl Node for Echo {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, pkt: Packet) {
            // Reply by swapping addresses and ports.
            if let crate::packet::Transport::Udp(u) = &pkt.transport {
                ctx.send(Packet::udp(
                    pkt.dst,
                    pkt.src,
                    u.dst_port,
                    u.src_port,
                    u.payload.clone(),
                ));
                ctx.set_timer(SimDuration::from_secs(1), 7);
            }
        }
    }

    #[test]
    fn context_stages_effects() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut effects = Vec::new();
        let a: IpAddr = "192.0.2.1".parse().unwrap();
        let b: IpAddr = "198.51.100.1".parse().unwrap();
        let v6: IpAddr = "2001:db8::1".parse().unwrap();
        let addrs = [b, v6];
        let mut ctx = NodeCtx::new(SimTime::from_secs(5), &addrs, &mut rng, &mut effects);
        assert_eq!(ctx.now(), SimTime::from_secs(5));
        assert_eq!(ctx.addrs(), &addrs);
        assert_eq!(ctx.addr_for(a), Some(b));
        assert_eq!(ctx.addr_for("2001:db8::9".parse().unwrap()), Some(v6));
        let mut echo = Echo;
        echo.on_packet(&mut ctx, Packet::udp(a, b, 1000, 53, vec![9]));

        assert_eq!(effects.len(), 2);
        match &effects[0] {
            Effect::Send(p) => {
                assert_eq!(p.src, b);
                assert_eq!(p.dst, a);
                assert_eq!(p.transport.src_port(), 53);
            }
            other => panic!("expected send, got {other:?}"),
        }
        match &effects[1] {
            Effect::Timer { after, token } => {
                assert_eq!(*after, SimDuration::from_secs(1));
                assert_eq!(*token, 7);
            }
            other => panic!("expected timer, got {other:?}"),
        }
    }

    #[test]
    fn sink_counts() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut effects = Vec::new();
        let a: IpAddr = "192.0.2.1".parse().unwrap();
        let addrs = [a];
        let mut ctx = NodeCtx::new(SimTime::ZERO, &addrs, &mut rng, &mut effects);
        let mut sink = SinkNode::default();
        sink.on_packet(&mut ctx, Packet::udp(a, a, 1, 2, vec![]));
        sink.on_packet(&mut ctx, Packet::udp(a, a, 1, 2, vec![]));
        assert_eq!(sink.received, 2);
        assert!(effects.is_empty());
    }
}
