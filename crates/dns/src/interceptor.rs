//! A transparent DNS-intercepting middlebox (§3.6.1).
//!
//! Some networks terminate all outbound-or-inbound UDP/53 at a middlebox
//! that answers on behalf of the nominal destination, typically by
//! forwarding to a public DNS service. For the experiment this matters
//! because a spoofed query can *enter the AS* (proving no DSAV) without the
//! target resolver itself handling it — the recursive-to-authoritative
//! query then arrives from Cloudflare/Google/etc. instead of the target AS.
//!
//! The engine redirects UDP/53 entering an AS to this node (see
//! [`bcd_netsim::TopologyBuilder::set_dns_interceptor`]); the node proxies
//! to its upstream from its host's one address ([`NodeCtx::addrs`]) and
//! relays the answer with the original destination spoofed as the
//! response source, like real intercepting middleboxes do.

use bcd_dnswire::MessageView;
use bcd_netsim::{Node, NodeCtx, Packet, Transport};
use rand::Rng;
use std::collections::HashMap;
use std::net::IpAddr;

struct Flow {
    client: IpAddr,
    client_port: u16,
    client_txid: u16,
    /// The address the client thought it was querying.
    original_dst: IpAddr,
    /// Causal trace id of the intercepted query (0 = untraced), restored
    /// onto the relayed answer.
    trace: u64,
}

/// The middlebox node.
pub struct Interceptor {
    /// Upstream resolver (a public DNS service in the simulation).
    upstream: IpAddr,
    flows: HashMap<u16, Flow>,
    /// Queries proxied, for tests.
    pub proxied: u64,
}

impl Interceptor {
    /// Create a middlebox proxying to `upstream`, which must share the
    /// family of the host's address (checked at start).
    pub fn new(upstream: IpAddr) -> Interceptor {
        Interceptor {
            upstream,
            flows: HashMap::new(),
            proxied: 0,
        }
    }
}

impl Node for Interceptor {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        assert_eq!(
            ctx.addrs()[0].is_ipv6(),
            self.upstream.is_ipv6(),
            "interceptor and upstream must share a family"
        );
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, pkt: Packet) {
        let Transport::Udp(u) = &pkt.transport else {
            return;
        };
        // Lazy decode: the middlebox only reads header fields and rewrites
        // the txid (plus RD on the forward leg), so it patches the wire
        // bytes in place instead of decode → modify → re-encode. For
        // messages our own encoder produced the two are byte-identical.
        let Ok(view) = MessageView::parse(&u.payload) else {
            return;
        };
        if !view.qr() && u.dst_port == 53 {
            // Client → middlebox (possibly addressed to someone else):
            // re-originate toward the upstream.
            let me = ctx.addrs()[0];
            if pkt.src.is_ipv6() != me.is_ipv6() {
                return;
            }
            // A loopback "client" has no reply path through a middlebox;
            // such packets are dropped rather than proxied.
            if pkt.has_loopback_src() {
                return;
            }
            // Sanity-check the QNAME parses before proxying garbage.
            let Ok(Some(_)) = view.question() else {
                return;
            };
            let txid: u16 = ctx.rng().gen();
            self.flows.insert(
                txid,
                Flow {
                    client: pkt.src,
                    client_port: u.src_port,
                    client_txid: view.id(),
                    original_dst: pkt.dst,
                    trace: pkt.trace,
                },
            );
            self.proxied += 1;
            ctx.span(pkt.trace, bcd_netsim::SpanKind::Intercept, || {
                format!(
                    "middlebox {} re-originated query for {} to upstream {} (txid rewritten)",
                    me, pkt.dst, self.upstream
                )
            });
            ctx.send(
                Packet::udp(
                    me,
                    self.upstream,
                    53_000,
                    53,
                    view.to_bytes_with_id_rd(txid),
                )
                .with_trace(pkt.trace),
            );
        } else if view.qr() && pkt.src == self.upstream {
            // Upstream → middlebox: relay to the client, spoofing the
            // original destination as the source.
            let Some(flow) = self.flows.remove(&view.id()) else {
                return;
            };
            ctx.span(flow.trace, bcd_netsim::SpanKind::Intercept, || {
                format!(
                    "middlebox relayed answer to {} spoofing source {}",
                    flow.client, flow.original_dst
                )
            });
            ctx.send(
                Packet::udp(
                    flow.original_dst,
                    flow.client,
                    53,
                    flow.client_port,
                    view.to_bytes_with_id(flow.client_txid),
                )
                .with_trace(flow.trace),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcd_dnswire::{Message, Name, RType};
    use bcd_netsim::SimTime;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn proxies_query_and_relays_response() {
        let mbx_addr: IpAddr = "198.51.100.53".parse().unwrap();
        let upstream: IpAddr = "203.0.113.1".parse().unwrap();
        let client: IpAddr = "192.0.2.9".parse().unwrap();
        let target: IpAddr = "198.51.100.10".parse().unwrap();
        let mut mbx = Interceptor::new(upstream);

        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut effects = Vec::new();
        let addrs = [mbx_addr];
        let mut ctx = NodeCtx::new(SimTime::ZERO, &addrs, &mut rng, &mut effects);

        // Client query addressed to the *target*, delivered to the middlebox.
        let q = Message::query(0x7777, "x.dns-lab.org".parse::<Name>().unwrap(), RType::A);
        mbx.on_packet(
            &mut ctx,
            Packet::udp(client, target, 40_000, 53, q.encode()),
        );
        assert_eq!(mbx.proxied, 1);
        assert_eq!(effects.len(), 1);
        let (fwd_txid, fwd);
        match &effects[0] {
            bcd_netsim::node::Effect::Send(p) => {
                assert_eq!(p.src, mbx_addr);
                assert_eq!(p.dst, upstream);
                fwd = Message::decode(p.transport.payload()).unwrap();
                assert!(fwd.header.rd);
                fwd_txid = fwd.header.id;
            }
            _ => panic!("expected send"),
        }

        // Upstream answer comes back; middlebox must relay with the original
        // destination spoofed as source and the client's txid restored.
        effects.clear();
        let mut ctx = NodeCtx::new(SimTime::ZERO, &addrs, &mut rng, &mut effects);
        let mut resp = Message::response_to(&fwd, bcd_dnswire::RCode::NXDomain);
        resp.header.id = fwd_txid;
        mbx.on_packet(
            &mut ctx,
            Packet::udp(upstream, mbx_addr, 53, 53_000, resp.encode()),
        );
        assert_eq!(effects.len(), 1);
        match &effects[0] {
            bcd_netsim::node::Effect::Send(p) => {
                assert_eq!(p.src, target, "source spoofed as original destination");
                assert_eq!(p.dst, client);
                let relayed = Message::decode(p.transport.payload()).unwrap();
                assert_eq!(relayed.header.id, 0x7777);
            }
            _ => panic!("expected send"),
        }
    }

    #[test]
    fn ignores_unrelated_responses() {
        let mbx_addr: IpAddr = "198.51.100.53".parse().unwrap();
        let upstream: IpAddr = "203.0.113.1".parse().unwrap();
        let mut mbx = Interceptor::new(upstream);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut effects = Vec::new();
        let addrs = [mbx_addr];
        let mut ctx = NodeCtx::new(SimTime::ZERO, &addrs, &mut rng, &mut effects);
        let q = Message::query(1, "x.org".parse::<Name>().unwrap(), RType::A);
        let mut resp = Message::response_to(&q, bcd_dnswire::RCode::NoError);
        resp.header.id = 0xBEEF;
        mbx.on_packet(
            &mut ctx,
            Packet::udp(upstream, mbx_addr, 53, 53_000, resp.encode()),
        );
        assert!(effects.is_empty());
    }
}
