//! The authoritative DNS server node.
//!
//! Serves a list of [`Zone`]s over UDP and (simplified) TCP, logs every
//! query to the shared [`crate::QueryLog`], and implements the experiment-specific
//! behaviours: NXDOMAIN-for-everything, wildcard synthesis, and TC=1 UDP
//! truncation (§3.3, §3.5).
//!
//! TCP model: SYN → SYN-ACK → PSH(query) → PSH(response). The SYN's header
//! metadata is remembered per `(src, port)` and attached to the query's log
//! entry — that is the material §5.3.1 feeds to p0f.

use crate::log::{LogProto, QueryLogEntry, SharedLog, SynInfo};
use crate::zone::{zone_for, Zone, ZoneMode};
use bcd_dnswire::{Message, Name, RCode, RData, RType, Record, WireWriter};
use bcd_netsim::{Node, NodeCtx, Packet, Payload, TcpFlags, TcpSegment, Transport};
use std::collections::HashMap;
use std::net::IpAddr;

/// Authoritative server configuration.
pub struct AuthServerConfig {
    /// Zones this server is authoritative for (and infrastructure zones it
    /// serves referrals from).
    pub zones: Vec<Zone>,
    /// Query log every answered query is appended to (the experiment's
    /// measurement instrument); `None` logs nothing.
    pub log: Option<SharedLog>,
}

/// The authoritative server node.
pub struct AuthServer {
    cfg: AuthServerConfig,
    /// SYN metadata per (peer addr, peer port), for TCP query logging.
    syn_seen: HashMap<(IpAddr, u16), SynInfo>,
    /// Reusable encode buffer: every response is serialized here, then
    /// copied once into the packet's shared payload.
    scratch: WireWriter,
    /// Queries answered, by transport.
    pub udp_queries: u64,
    pub tcp_queries: u64,
}

impl AuthServer {
    /// Create the node.
    pub fn new(cfg: AuthServerConfig) -> AuthServer {
        AuthServer {
            cfg,
            syn_seen: HashMap::new(),
            scratch: WireWriter::new(),
            udp_queries: 0,
            tcp_queries: 0,
        }
    }

    /// Compose the response for `query` (also used directly by tests).
    /// Returns `None` for unparseable or non-query messages.
    pub fn answer(&self, query: &Message, over_tcp: bool) -> Option<Message> {
        if query.header.qr {
            return None;
        }
        let q = query.question()?.clone();
        let Some(zone) = zone_for(&self.cfg.zones, &q.name) else {
            // Not authoritative for anything covering this name.
            let mut resp = Message::response_to(query, RCode::Refused);
            resp.header.aa = false;
            return Some(resp);
        };

        // Delegated below a cut? Refer.
        if let Some(del) = zone.delegation_for(&q.name) {
            let mut resp = Message::response_to(query, RCode::NoError);
            for (ns_name, glue) in &del.ns {
                resp.authorities.push(Record::new(
                    del.cut.clone(),
                    86_400,
                    RData::Ns(ns_name.clone()),
                ));
                for addr in glue {
                    let rdata = match addr {
                        IpAddr::V4(a) => RData::A(*a),
                        IpAddr::V6(a) => RData::Aaaa(*a),
                    };
                    resp.additionals
                        .push(Record::new(ns_name.clone(), 86_400, rdata));
                }
            }
            return Some(resp);
        }

        // In-zone answer per mode.
        let mut resp = Message::response_to(query, RCode::NoError);
        resp.header.aa = true;
        match &zone.mode {
            ZoneMode::Nxdomain => {
                if q.name == zone.apex {
                    // The apex itself exists (SOA).
                    if q.rtype == RType::Soa {
                        resp.answers.push(zone.soa_record());
                    } else {
                        resp.authorities.push(zone.soa_record());
                    }
                } else {
                    resp.header.rcode = RCode::NXDomain;
                    resp.authorities.push(zone.soa_record());
                }
            }
            ZoneMode::Wildcard => {
                resp.answers.push(Record::new(
                    q.name.clone(),
                    60,
                    RData::Txt(b"bcd-experiment".to_vec()),
                ));
            }
            ZoneMode::TruncateUdp => {
                if over_tcp {
                    resp.header.rcode = RCode::NXDomain;
                    resp.authorities.push(zone.soa_record());
                } else {
                    resp.header.tc = true;
                }
            }
            ZoneMode::Static(records) => {
                let matching: Vec<Record> = records
                    .iter()
                    .filter(|r| r.name == q.name && r.rdata.rtype() == q.rtype)
                    .cloned()
                    .collect();
                if matching.is_empty() {
                    let exists = records.iter().any(|r| r.name == q.name);
                    if !exists && q.name != zone.apex {
                        resp.header.rcode = RCode::NXDomain;
                    }
                    resp.authorities.push(zone.soa_record());
                } else {
                    resp.answers = matching;
                }
            }
        }
        Some(resp)
    }

    fn log(&self, ctx: &NodeCtx<'_>, pkt: &Packet, qname: &Name, proto: LogProto) {
        let Some(log) = &self.cfg.log else {
            return;
        };
        let syn = if proto == LogProto::Tcp {
            self.syn_seen
                .get(&(pkt.src, pkt.transport.src_port()))
                .copied()
        } else {
            None
        };
        log.borrow_mut().push(QueryLogEntry {
            time: ctx.now(),
            src: pkt.src,
            server: pkt.dst,
            src_port: pkt.transport.src_port(),
            qname: qname.clone(),
            proto,
            observed_ttl: pkt.ttl,
            syn,
        });
    }
}

impl Node for AuthServer {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, pkt: Packet) {
        match &pkt.transport {
            Transport::Udp(u) => {
                if u.dst_port != 53 {
                    return;
                }
                let Ok(query) = Message::decode(&u.payload) else {
                    return;
                };
                let Some(resp) = self.answer(&query, false) else {
                    return;
                };
                self.udp_queries += 1;
                if let Some(q) = query.question() {
                    self.log(ctx, &pkt, &q.name, LogProto::Udp);
                }
                ctx.span(pkt.trace, bcd_netsim::SpanKind::Reply, || {
                    format!("auth {} udp rcode={:?}", pkt.dst, resp.header.rcode)
                });
                resp.encode_into(&mut self.scratch);
                ctx.send(
                    Packet::udp(pkt.dst, pkt.src, 53, u.src_port, self.scratch.as_bytes())
                        .with_trace(pkt.trace),
                );
            }
            Transport::Tcp(t) => {
                if t.dst_port != 53 {
                    return;
                }
                if t.flags.syn && !t.flags.ack {
                    // Remember the SYN's fingerprint material and accept.
                    self.syn_seen.insert(
                        (pkt.src, t.src_port),
                        SynInfo {
                            observed_ttl: pkt.ttl,
                            window: t.window,
                            mss: t.options.mss.unwrap_or(0),
                            layout: t.options.layout,
                        },
                    );
                    ctx.send(
                        Packet::tcp(
                            pkt.dst,
                            pkt.src,
                            TcpSegment {
                                src_port: 53,
                                dst_port: t.src_port,
                                flags: TcpFlags::SYN_ACK,
                                seq: 0,
                                ack: t.seq.wrapping_add(1),
                                window: 65_535,
                                options: Default::default(),
                                payload: Payload::empty(),
                            },
                        )
                        .with_trace(pkt.trace),
                    );
                } else if t.flags.psh && !t.payload.is_empty() {
                    // DNS-over-TCP: payload is a bare DNS message (we omit
                    // the 2-byte length prefix; the simulation preserves
                    // message boundaries).
                    let Ok(query) = Message::decode(&t.payload) else {
                        return;
                    };
                    let Some(resp) = self.answer(&query, true) else {
                        return;
                    };
                    self.tcp_queries += 1;
                    if let Some(q) = query.question() {
                        self.log(ctx, &pkt, &q.name, LogProto::Tcp);
                    }
                    ctx.span(pkt.trace, bcd_netsim::SpanKind::Reply, || {
                        format!("auth {} tcp rcode={:?}", pkt.dst, resp.header.rcode)
                    });
                    resp.encode_into(&mut self.scratch);
                    ctx.send(
                        Packet::tcp(
                            pkt.dst,
                            pkt.src,
                            TcpSegment {
                                src_port: 53,
                                dst_port: t.src_port,
                                flags: TcpFlags::PSH_ACK,
                                seq: 1,
                                ack: t.seq.wrapping_add(t.payload.len() as u32),
                                window: 65_535,
                                options: Default::default(),
                                payload: Payload::from(self.scratch.as_bytes()),
                            },
                        )
                        .with_trace(pkt.trace),
                    );
                }
                // Bare ACK / FIN segments need no action in this model.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::shared_log;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn experiment_server() -> AuthServer {
        let zones = vec![
            Zone::new(n("dns-lab.org"), ZoneMode::Nxdomain).delegate(
                n("f4.dns-lab.org"),
                vec![(n("ns.f4.dns-lab.org"), vec!["192.0.2.20".parse().unwrap()])],
            ),
            Zone::new(n("tcp.dns-lab.org"), ZoneMode::TruncateUdp),
        ];
        AuthServer::new(AuthServerConfig {
            zones,
            log: Some(shared_log()),
        })
    }

    #[test]
    fn nxdomain_for_experiment_names() {
        let s = experiment_server();
        let q = Message::query(1, n("ts1.src.dst.asn.kw.dns-lab.org"), RType::A);
        let resp = s.answer(&q, false).unwrap();
        assert_eq!(resp.header.rcode, RCode::NXDomain);
        assert!(resp.header.aa);
        assert!(resp
            .authorities
            .iter()
            .any(|r| matches!(r.rdata, RData::Soa(_))));
    }

    #[test]
    fn apex_answers_soa() {
        let s = experiment_server();
        let q = Message::query(2, n("dns-lab.org"), RType::Soa);
        let resp = s.answer(&q, false).unwrap();
        assert_eq!(resp.header.rcode, RCode::NoError);
        assert_eq!(resp.answers.len(), 1);
    }

    #[test]
    fn delegation_returns_referral_with_glue() {
        let s = experiment_server();
        let q = Message::query(3, n("x.f4.dns-lab.org"), RType::A);
        let resp = s.answer(&q, false).unwrap();
        assert_eq!(resp.header.rcode, RCode::NoError);
        assert!(!resp.header.aa);
        assert!(resp
            .authorities
            .iter()
            .any(|r| matches!(&r.rdata, RData::Ns(ns) if *ns == n("ns.f4.dns-lab.org"))));
        assert!(resp
            .additionals
            .iter()
            .any(|r| matches!(r.rdata, RData::A(a) if a == "192.0.2.20".parse::<std::net::Ipv4Addr>().unwrap())));
    }

    #[test]
    fn tc_zone_truncates_udp_but_answers_tcp() {
        let s = experiment_server();
        let q = Message::query(4, n("probe.tcp.dns-lab.org"), RType::A);
        let udp = s.answer(&q, false).unwrap();
        assert!(udp.header.tc);
        assert_eq!(udp.header.rcode, RCode::NoError);
        let tcp = s.answer(&q, true).unwrap();
        assert!(!tcp.header.tc);
        assert_eq!(tcp.header.rcode, RCode::NXDomain);
    }

    #[test]
    fn off_zone_names_are_refused() {
        let s = experiment_server();
        let q = Message::query(5, n("example.com"), RType::A);
        let resp = s.answer(&q, false).unwrap();
        assert_eq!(resp.header.rcode, RCode::Refused);
    }

    #[test]
    fn responses_are_ignored() {
        let s = experiment_server();
        let q = Message::query(6, n("x.dns-lab.org"), RType::A);
        let mut as_resp = q.clone();
        as_resp.header.qr = true;
        assert!(s.answer(&as_resp, false).is_none());
    }

    #[test]
    fn wildcard_mode_synthesizes() {
        let zones = vec![Zone::new(n("dns-lab.org"), ZoneMode::Wildcard)];
        let s = AuthServer::new(AuthServerConfig { zones, log: None });
        let q = Message::query(7, n("anything.at.all.dns-lab.org"), RType::A);
        let resp = s.answer(&q, false).unwrap();
        assert_eq!(resp.header.rcode, RCode::NoError);
        assert_eq!(resp.answers.len(), 1);
    }

    #[test]
    fn static_zone_serves_records_and_nxdomain() {
        let zones = vec![Zone {
            apex: n("org"),
            soa: Zone::new(n("org"), ZoneMode::Nxdomain).soa,
            delegations: vec![],
            mode: ZoneMode::Static(vec![Record::new(
                n("www.org"),
                60,
                RData::A("203.0.113.1".parse().unwrap()),
            )]),
        }];
        let s = AuthServer::new(AuthServerConfig { zones, log: None });
        let hit = s
            .answer(&Message::query(8, n("www.org"), RType::A), false)
            .unwrap();
        assert_eq!(hit.answers.len(), 1);
        let nodata = s
            .answer(&Message::query(9, n("www.org"), RType::Aaaa), false)
            .unwrap();
        assert_eq!(nodata.header.rcode, RCode::NoError);
        assert!(nodata.answers.is_empty());
        let nx = s
            .answer(&Message::query(10, n("missing.org"), RType::A), false)
            .unwrap();
        assert_eq!(nx.header.rcode, RCode::NXDomain);
    }
}
