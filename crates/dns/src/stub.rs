//! A stub DNS client for lab harnesses (§5.3's controlled experiments) and
//! tests: sends a schedule of queries to a resolver and records responses.

use bcd_dnswire::{Message, Name, RCode, RType, WireWriter, MAX_NAME_WIRE_LEN};
use bcd_netsim::{Node, NodeCtx, Packet, SimDuration, SimTime, Transport};
use std::net::IpAddr;

/// One scheduled stub query.
#[derive(Debug, Clone)]
pub struct StubQuery {
    /// Delay after simulation start.
    pub at: SimDuration,
    /// Resolver to query.
    pub resolver: IpAddr,
    pub qname: Name,
    pub qtype: RType,
}

/// A recorded response.
#[derive(Debug, Clone)]
pub struct StubResponse {
    pub time: SimTime,
    pub from: IpAddr,
    pub txid: u16,
    pub rcode: RCode,
    pub answers: usize,
}

/// The stub client node. It sends every query from its host's one
/// address ([`NodeCtx::addrs`]).
pub struct StubClient {
    queries: Vec<StubQuery>,
    /// Reusable encode buffer for outgoing queries.
    scratch: WireWriter,
    /// Responses received, in arrival order.
    pub responses: Vec<StubResponse>,
}

impl StubClient {
    /// A stub with a query schedule.
    pub fn new(queries: Vec<StubQuery>) -> StubClient {
        StubClient {
            queries,
            scratch: WireWriter::new(),
            responses: Vec::new(),
        }
    }
}

impl Node for StubClient {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        for (i, q) in self.queries.iter().enumerate() {
            ctx.set_timer(q.at, i as u64);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        let Some(q) = self.queries.get(token as usize).cloned() else {
            return;
        };
        // Causal trace id from shard-invariant query identity (0 unless
        // the engine's flight recorder is armed and the sampler keeps it).
        let trace = if ctx.tracing() {
            let mut canon = [0u8; MAX_NAME_WIRE_LEN];
            let n = q.qname.canonical_into(&mut canon);
            ctx.sample_trace(std::str::from_utf8(&canon[..n]).unwrap_or("."))
        } else {
            0
        };
        // txid = schedule index, so tests can correlate.
        let msg = Message::query(token as u16, q.qname, q.qtype);
        msg.encode_into(&mut self.scratch);
        ctx.send(
            Packet::udp(
                ctx.addrs()[0],
                q.resolver,
                10_000 + (token as u16 % 50_000),
                53,
                self.scratch.as_bytes(),
            )
            .with_trace(trace),
        );
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, pkt: Packet) {
        let Transport::Udp(u) = &pkt.transport else {
            return;
        };
        let Ok(msg) = Message::decode(&u.payload) else {
            return;
        };
        if !msg.header.qr {
            return;
        }
        self.responses.push(StubResponse {
            time: ctx.now(),
            from: pkt.src,
            txid: msg.header.id,
            rcode: msg.header.rcode,
            answers: msg.answers.len(),
        });
    }
}
