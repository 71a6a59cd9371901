//! End-to-end DNS tests on the simulator: a miniature copy of the
//! experiment's estate (root, `org` TLD, `dns-lab.org` + `tcp.dns-lab.org`
//! zones) plus recursive resolvers in a client AS.

use bcd_dns::log::shared_log;
use bcd_dns::stub::StubQuery;
use bcd_dns::{
    Acl, AuthServer, AuthServerConfig, LogProto, RecursiveResolver, ResolverConfig, SharedLog,
    StubClient, Zone, ZoneMode,
};
use bcd_dnswire::{Name, RCode, RType};
use bcd_netsim::{
    Asn, BorderPolicy, HostConfig, Network, NetworkConfig, Prefix, SimDuration, StackPolicy,
};
use bcd_osmodel::{DnsSoftware, Os};
use std::net::IpAddr;

fn n(s: &str) -> Name {
    s.parse().unwrap()
}

fn ip(s: &str) -> IpAddr {
    s.parse().unwrap()
}

fn pre(s: &str) -> Prefix {
    s.parse().unwrap()
}

const ROOT: &str = "198.41.0.4";
const ORG: &str = "199.19.56.1";
const LAB: &str = "203.0.113.53";
const RESOLVER: &str = "192.0.2.53";
const CLIENT: &str = "192.0.2.9";

/// Build the world; returns (network, shared auth log, resolver host id,
/// stub host id).
fn build_world(
    resolver_cfg_mut: impl FnOnce(&mut ResolverConfig),
    stub_queries: Vec<StubQuery>,
) -> (Network, SharedLog, usize, usize) {
    let mut net = Network::new(NetworkConfig {
        seed: 42,
        ..Default::default()
    });
    // Infrastructure AS (root/TLD/lab servers) and a client AS.
    net.add_simple_as(Asn(10), BorderPolicy::strict());
    net.add_simple_as(Asn(20), BorderPolicy::open());
    net.announce(pre("198.41.0.0/24"), Asn(10));
    net.announce(pre("199.19.56.0/24"), Asn(10));
    net.announce(pre("203.0.113.0/24"), Asn(10));
    net.announce(pre("192.0.2.0/24"), Asn(20));

    let log = shared_log();

    // Root zone: delegates org.
    let root_zone = Zone::new(Name::root(), ZoneMode::Static(vec![])).delegate(
        n("org"),
        vec![(n("a0.org.afilias-nst.info"), vec![ip(ORG)])],
    );
    net.add_host(
        HostConfig {
            addrs: vec![ip(ROOT)],
            asn: Asn(10),
            stack: StackPolicy::strict(),
        },
        Box::new(AuthServer::new(AuthServerConfig {
            zones: vec![root_zone],
            log: log.clone(),
            log_queries: false,
        })),
    );

    // org TLD: delegates dns-lab.org.
    let org_zone = Zone::new(n("org"), ZoneMode::Static(vec![])).delegate(
        n("dns-lab.org"),
        vec![(n("ns1.dns-lab.org"), vec![ip(LAB)])],
    );
    net.add_host(
        HostConfig {
            addrs: vec![ip(ORG)],
            asn: Asn(10),
            stack: StackPolicy::strict(),
        },
        Box::new(AuthServer::new(AuthServerConfig {
            zones: vec![org_zone],
            log: log.clone(),
            log_queries: false,
        })),
    );

    // The experiment zone + the TC zone, one server, logging.
    let lab_zone = Zone::new(n("dns-lab.org"), ZoneMode::Nxdomain).delegate(
        n("tcp.dns-lab.org"),
        vec![(n("ns1.tcp.dns-lab.org"), vec![ip(LAB)])],
    );
    let tcp_zone = Zone::new(n("tcp.dns-lab.org"), ZoneMode::TruncateUdp);
    net.add_host(
        HostConfig {
            addrs: vec![ip(LAB)],
            asn: Asn(10),
            stack: StackPolicy::strict(),
        },
        Box::new(AuthServer::new(AuthServerConfig {
            zones: vec![lab_zone, tcp_zone],
            log: log.clone(),
            log_queries: true,
        })),
    );

    // Recursive resolver in the client AS.
    let mut cfg = ResolverConfig::test_default(vec![ip(RESOLVER)], vec![ip(ROOT)]);
    resolver_cfg_mut(&mut cfg);
    let resolver_id = net.add_host(
        HostConfig {
            addrs: vec![ip(RESOLVER)],
            asn: Asn(20),
            stack: Os::LinuxModern.stack_policy(),
        },
        Box::new(RecursiveResolver::new(cfg)),
    );

    // Stub client in the same AS.
    let stub_id = net.add_host(
        HostConfig {
            addrs: vec![ip(CLIENT)],
            asn: Asn(20),
            stack: StackPolicy::strict(),
        },
        Box::new(StubClient::new(ip(CLIENT), stub_queries)),
    );
    (net, log, resolver_id, stub_id)
}

fn q(at_secs: u64, name: &str) -> StubQuery {
    StubQuery {
        at: SimDuration::from_secs(at_secs),
        resolver: ip(RESOLVER),
        qname: n(name),
        qtype: RType::A,
    }
}

#[test]
fn full_recursion_reaches_the_authoritative_log() {
    let (mut net, log, _, stub) =
        build_world(|_| {}, vec![q(1, "ts100.src.dst.asn.kw.dns-lab.org")]);
    net.run();
    // The stub got an NXDOMAIN answer.
    let stub_node = net.node::<StubClient>(stub).unwrap();
    assert_eq!(stub_node.responses.len(), 1);
    assert_eq!(stub_node.responses[0].rcode, RCode::NXDomain);
    // The lab auth server logged the recursive-to-authoritative query with
    // the resolver's source address and the full query name.
    let log = log.borrow();
    assert_eq!(
        log.len(),
        1,
        "exactly one logged query, got: {:?}",
        log.entries()
    );
    let e = &log.entries()[0];
    assert_eq!(e.src, ip(RESOLVER));
    assert_eq!(e.qname, n("ts100.src.dst.asn.kw.dns-lab.org"));
    assert_eq!(e.proto, LogProto::Udp);
    assert!(e.src_port >= 32_768 && (e.src_port as u32) < 32_768 + 28_232);
}

#[test]
fn second_query_skips_root_via_zone_cut_cache() {
    let (mut net, log, resolver, stub) = build_world(
        |_| {},
        vec![q(1, "ts1.a.kw.dns-lab.org"), q(100, "ts2.b.kw.dns-lab.org")],
    );
    net.run();
    assert_eq!(net.node::<StubClient>(stub).unwrap().responses.len(), 2);
    assert_eq!(log.borrow().len(), 2);
    // First resolution walks root -> org -> lab (3 upstream queries);
    // second goes straight to the lab server (1 more).
    let stats = &net.node::<RecursiveResolver>(resolver).unwrap().stats;
    assert_eq!(stats.upstream_queries, 4, "{stats:?}");
}

#[test]
fn unique_names_are_never_cache_hits_but_repeats_are() {
    let (mut net, _, resolver, stub) = build_world(
        |_| {},
        vec![
            q(1, "same.kw.dns-lab.org"),
            q(200, "same.kw.dns-lab.org"), // within negative TTL? 60s -> expired at 200
            q(210, "same.kw.dns-lab.org"), // 10s after previous -> cached NXDOMAIN
        ],
    );
    net.run();
    let stats = &net.node::<RecursiveResolver>(resolver).unwrap().stats;
    assert_eq!(stats.cache_hits, 1, "{stats:?}");
    assert_eq!(net.node::<StubClient>(stub).unwrap().responses.len(), 3);
}

#[test]
fn qmin_halts_on_nxdomain_hiding_the_full_qname() {
    let (mut net, log, _, stub) = build_world(
        |cfg| {
            cfg.qmin = true;
            cfg.qmin_halts_on_nxdomain = true;
        },
        vec![q(1, "ts9.src.dst.asn.kw.dns-lab.org")],
    );
    net.run();
    // Client still gets NXDOMAIN...
    let stub_node = net.node::<StubClient>(stub).unwrap();
    assert_eq!(stub_node.responses.len(), 1);
    assert_eq!(stub_node.responses[0].rcode, RCode::NXDomain);
    // ...but the auth server only ever saw the minimized label, never the
    // full QNAME (§3.6.4).
    let log = log.borrow();
    assert!(!log.is_empty());
    for e in log.entries() {
        assert_eq!(
            e.qname,
            n("kw.dns-lab.org"),
            "full QNAME must not appear, saw {}",
            e.qname
        );
    }
}

#[test]
fn qmin_without_halting_eventually_sends_full_qname() {
    let (mut net, log, _, _) = build_world(
        |cfg| {
            cfg.qmin = true;
            cfg.qmin_halts_on_nxdomain = false;
        },
        vec![q(1, "ts9.src.dst.asn.kw.dns-lab.org")],
    );
    net.run();
    let log = log.borrow();
    let saw_full = log
        .entries()
        .iter()
        .any(|e| e.qname == n("ts9.src.dst.asn.kw.dns-lab.org"));
    let saw_min = log.entries().iter().any(|e| e.qname == n("kw.dns-lab.org"));
    assert!(saw_full, "full QNAME expected");
    assert!(saw_min, "minimized first probe expected");
}

#[test]
fn tc_zone_forces_tcp_with_fingerprint() {
    let (mut net, log, resolver, stub) =
        build_world(|_| {}, vec![q(1, "probe1.x.tcp.dns-lab.org")]);
    net.run();
    let stub_node = net.node::<StubClient>(stub).unwrap();
    assert_eq!(stub_node.responses.len(), 1, "{:?}", stub_node.responses);
    assert_eq!(stub_node.responses[0].rcode, RCode::NXDomain);
    let stats = &net.node::<RecursiveResolver>(resolver).unwrap().stats;
    assert_eq!(stats.tcp_retries, 1, "{stats:?}");
    // The log must contain the TCP query with SYN fingerprint material.
    let log = log.borrow();
    let tcp_entries: Vec<_> = log
        .entries()
        .iter()
        .filter(|e| e.proto == LogProto::Tcp)
        .collect();
    assert_eq!(tcp_entries.len(), 1);
    let syn = tcp_entries[0].syn.expect("SYN info attached");
    // Linux signature survives TTL decay and classifies correctly.
    let class = bcd_osmodel::P0fClassifier::new().classify_fields(
        bcd_osmodel::P0fClassifier::infer_initial_ttl(syn.observed_ttl),
        syn.window,
        syn.mss,
        syn.layout,
    );
    assert_eq!(class, bcd_osmodel::P0fClass::Linux);
}

#[test]
fn scrubbed_resolver_is_unclassifiable() {
    let (mut net, log, _, _) = build_world(
        |cfg| cfg.p0f_visible = false,
        vec![q(1, "probe1.x.tcp.dns-lab.org")],
    );
    net.run();
    let log = log.borrow();
    let syn = log
        .entries()
        .iter()
        .find(|e| e.proto == LogProto::Tcp)
        .and_then(|e| e.syn)
        .expect("tcp query logged");
    let class = bcd_osmodel::P0fClassifier::new().classify_fields(
        bcd_osmodel::P0fClassifier::infer_initial_ttl(syn.observed_ttl),
        syn.window,
        syn.mss,
        syn.layout,
    );
    assert_eq!(class, bcd_osmodel::P0fClass::Unknown);
}

#[test]
fn closed_resolver_refuses_outside_acl() {
    let (mut net, log, resolver, stub) = build_world(
        |cfg| {
            // Allow only a prefix that does NOT contain the stub.
            cfg.acl = Acl::Allow(vec![pre("10.0.0.0/8")].into());
        },
        vec![q(1, "ts1.x.kw.dns-lab.org")],
    );
    net.run();
    let stub_node = net.node::<StubClient>(stub).unwrap();
    assert_eq!(stub_node.responses.len(), 1);
    assert_eq!(stub_node.responses[0].rcode, RCode::Refused);
    assert!(log.borrow().is_empty(), "no recursion for refused queries");
    let stats = &net.node::<RecursiveResolver>(resolver).unwrap().stats;
    assert_eq!(stats.refused, 1);
}

#[test]
fn closed_resolver_accepts_inside_acl() {
    let (mut net, log, _, stub) = build_world(
        |cfg| {
            cfg.acl = Acl::Allow(vec![pre("192.0.2.0/24")].into());
        },
        vec![q(1, "ts1.x.kw.dns-lab.org")],
    );
    net.run();
    assert_eq!(
        net.node::<StubClient>(stub).unwrap().responses[0].rcode,
        RCode::NXDomain
    );
    assert_eq!(log.borrow().len(), 1);
}

#[test]
fn forwarder_sends_through_upstream() {
    // Two resolvers: the target forwards to an open recursive upstream in
    // the infrastructure AS.
    let upstream_addr = "203.0.113.99";
    let (mut net, log, _, stub) = build_world(
        |cfg| {
            cfg.forward_to = Some(ip(upstream_addr));
        },
        vec![q(1, "ts1.fw.kw.dns-lab.org")],
    );
    // Add the upstream open resolver.
    net.add_host(
        HostConfig {
            addrs: vec![ip(upstream_addr)],
            asn: Asn(10),
            stack: Os::LinuxModern.stack_policy(),
        },
        Box::new(RecursiveResolver::new(ResolverConfig::test_default(
            vec![ip(upstream_addr)],
            vec![ip(ROOT)],
        ))),
    );
    net.run();
    let stub_node = net.node::<StubClient>(stub).unwrap();
    assert_eq!(stub_node.responses.len(), 1);
    assert_eq!(stub_node.responses[0].rcode, RCode::NXDomain);
    // The authoritative log shows the *upstream's* source address, not the
    // forwarder's — the §5.4 signal.
    let log = log.borrow();
    assert_eq!(log.len(), 1);
    assert_eq!(log.entries()[0].src, ip(upstream_addr));
}

#[test]
fn unreachable_servers_end_in_servfail_after_retries() {
    let (mut net, _, resolver, stub) = build_world(
        |cfg| {
            // Point root hints at a black hole.
            cfg.root_hints = vec![ip("203.0.113.250")].into();
            cfg.timeout = SimDuration::from_secs(1);
            cfg.max_attempts = 3;
        },
        vec![q(1, "ts1.x.kw.dns-lab.org")],
    );
    net.run();
    let stub_node = net.node::<StubClient>(stub).unwrap();
    assert_eq!(stub_node.responses.len(), 1);
    assert_eq!(stub_node.responses[0].rcode, RCode::ServFail);
    let stats = &net.node::<RecursiveResolver>(resolver).unwrap().stats;
    assert_eq!(stats.servfail, 1);
    assert_eq!(stats.upstream_queries, 3, "3 attempts before giving up");
}

#[test]
fn source_ports_follow_the_allocator() {
    // A fixed-port resolver uses port 53 for every upstream query — the
    // §5.2.1 vulnerable configuration.
    let (mut net, log, _, _) = build_world(
        |cfg| {
            cfg.allocator =
                DnsSoftware::FixedPort53.allocator(Os::LinuxModern, &mut rand::thread_rng());
        },
        (0..10)
            .map(|i| q(1 + i * 120, &format!("t{i}.u.kw.dns-lab.org")))
            .collect(),
    );
    net.run();
    let log = log.borrow();
    assert_eq!(log.len(), 10);
    assert!(log.entries().iter().all(|e| e.src_port == 53));
}

#[test]
fn deterministic_replay() {
    let run = || {
        let (mut net, log, _, _) = build_world(
            |_| {},
            (0..5)
                .map(|i| q(1 + i, &format!("t{i}.d.kw.dns-lab.org")))
                .collect(),
        );
        net.run();
        let log = log.borrow();
        log.entries()
            .iter()
            .map(|e| (e.time, e.src_port, e.qname.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}
