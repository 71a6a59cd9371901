//! Resolver resilience under adverse conditions: lossy links, refusing
//! upstreams, server rotation, and in-engine middlebox interception.

use bcd_dns::log::shared_log;
use bcd_dns::stub::StubQuery;
use bcd_dns::{
    AuthServer, AuthServerConfig, Interceptor, RecursiveResolver, ResolverConfig, SharedLog,
    StubClient, Zone, ZoneMode,
};
use bcd_dnswire::{Name, RCode, RType};
use bcd_netsim::{
    Asn, BorderPolicy, ChaosConfig, ChaosProfile, FaultDomain, FaultSchedule, HostConfig, Network,
    NetworkConfig, Prefix, SimDuration, StackPolicy,
};
use bcd_osmodel::Os;
use std::net::IpAddr;
use std::sync::Arc;

fn ip(s: &str) -> IpAddr {
    s.parse().unwrap()
}

fn n(s: &str) -> Name {
    s.parse().unwrap()
}

fn pre(s: &str) -> Prefix {
    s.parse().unwrap()
}

/// Arm a chaos fault schedule over both ASes of a two-AS test world.
fn arm_faults(net: &mut Network, seed: u64, name: &str, profile: ChaosProfile) {
    let domain = FaultDomain {
        asns: vec![Asn(1), Asn(2)],
        crash_hosts: vec![],
    };
    let chaos = ChaosConfig::custom(seed, name, profile);
    net.set_faults(Some(Arc::new(FaultSchedule::compile(&chaos, &domain))));
}

/// A world seeded with `seed`: a root+zone server reachable over a 40 ms
/// wide-area path faulted by `faults` (drawn from the same seed), a
/// resolver, and a stub client issuing `queries`.
fn world(
    seed: u64,
    faults: ChaosProfile,
    queries: Vec<StubQuery>,
) -> (Network, SharedLog, usize, usize) {
    let mut net = Network::new(NetworkConfig {
        seed,
        core_delay: SimDuration::from_millis(40),
        ..Default::default()
    });
    arm_faults(&mut net, seed, "lossy-path", faults);
    net.add_simple_as(Asn(1), BorderPolicy::strict());
    net.add_simple_as(Asn(2), BorderPolicy::open());
    net.announce(pre("20.0.0.0/24"), Asn(1));
    net.announce(pre("21.0.0.0/24"), Asn(2));

    let log = shared_log();
    let auth = ip("20.0.0.53");
    let root = Zone::new(Name::root(), ZoneMode::Static(vec![]))
        .delegate(n("zone.test"), vec![(n("ns.zone.test"), vec![auth])]);
    net.add_host(
        HostConfig {
            addrs: vec![auth],
            asn: Asn(1),
            stack: StackPolicy::strict(),
        },
        Box::new(AuthServer::new(AuthServerConfig {
            zones: vec![root, Zone::new(n("zone.test"), ZoneMode::Wildcard)],
            log: log.clone(),
            log_queries: true,
        })),
    );
    let resolver = net.add_host(
        HostConfig {
            addrs: vec![ip("21.0.0.53")],
            asn: Asn(2),
            stack: Os::LinuxModern.stack_policy(),
        },
        Box::new(RecursiveResolver::new(ResolverConfig {
            timeout: SimDuration::from_millis(500),
            ..ResolverConfig::test_default(vec![ip("21.0.0.53")], vec![auth])
        })),
    );
    let stub = net.add_host(
        HostConfig {
            addrs: vec![ip("21.0.0.9")],
            asn: Asn(2),
            stack: StackPolicy::strict(),
        },
        Box::new(StubClient::new(ip("21.0.0.9"), queries)),
    );
    (net, log, resolver, stub)
}

fn q(at: u64, name: &str) -> StubQuery {
    StubQuery {
        at: SimDuration::from_secs(at),
        resolver: ip("21.0.0.53"),
        qname: n(name),
        qtype: RType::A,
    }
}

#[test]
fn retransmission_recovers_from_heavy_loss() {
    // 40% loss on the wide-area path; with 3 attempts per stage most
    // resolutions still complete (p_fail per stage ≈ (1-0.36)^3 where a
    // round trip needs both directions: p_rt ≈ 0.36). The success rate is
    // measured over several fault seeds, so it checks the retransmission
    // property rather than one draw: at least 25 of every 40 resolutions
    // (62.5%) must succeed in total.
    const SEEDS: u64 = 8;
    const QUERIES: u64 = 40;
    let lossy = ChaosProfile {
        loss: 0.4,
        jitter: SimDuration::from_millis(20),
        duplicate: 0.0001,
        ..ChaosProfile::calm()
    };
    let mut per_seed = Vec::new();
    for seed in 1..=SEEDS {
        let queries: Vec<StubQuery> = (0..QUERIES)
            .map(|i| q(1 + i * 5, &format!("u{i}.zone.test")))
            .collect();
        let (mut net, _, resolver, stub) = world(seed, lossy.clone(), queries);
        net.run();
        let stub_node = net.node::<StubClient>(stub).unwrap();
        let ok = stub_node
            .responses
            .iter()
            .filter(|r| r.rcode == RCode::NoError)
            .count();
        per_seed.push(ok);
        let stats = &net.node::<RecursiveResolver>(resolver).unwrap().stats;
        assert!(
            stats.upstream_queries > QUERIES,
            "seed {seed}: retransmissions expected: {stats:?}"
        );
    }
    let total: usize = per_seed.iter().sum();
    assert!(
        total as u64 * 40 >= 25 * SEEDS * QUERIES,
        "only {total}/{} resolutions succeeded under 40% loss (per seed: {per_seed:?})",
        SEEDS * QUERIES
    );
}

#[test]
fn refused_upstream_rotates_to_working_server() {
    // Zone delegated to two servers; the first REFUSES (serves nothing for
    // the zone), the second answers. The resolver must rotate.
    let mut net = Network::new(NetworkConfig {
        seed: 3,
        ..Default::default()
    });
    net.add_simple_as(Asn(1), BorderPolicy::strict());
    net.add_simple_as(Asn(2), BorderPolicy::open());
    net.announce(pre("20.0.0.0/24"), Asn(1));
    net.announce(pre("21.0.0.0/24"), Asn(2));
    let log = shared_log();
    let bad = ip("20.0.0.66");
    let good = ip("20.0.0.53");
    let root = Zone::new(Name::root(), ZoneMode::Static(vec![]))
        .delegate(n("zone.test"), vec![(n("ns.zone.test"), vec![bad, good])]);
    // Root host also serves the root zone; the "bad" server serves an
    // unrelated zone so queries for zone.test come back REFUSED.
    net.add_host(
        HostConfig {
            addrs: vec![good],
            asn: Asn(1),
            stack: StackPolicy::strict(),
        },
        Box::new(AuthServer::new(AuthServerConfig {
            zones: vec![root, Zone::new(n("zone.test"), ZoneMode::Wildcard)],
            log: log.clone(),
            log_queries: false,
        })),
    );
    net.add_host(
        HostConfig {
            addrs: vec![bad],
            asn: Asn(1),
            stack: StackPolicy::strict(),
        },
        Box::new(AuthServer::new(AuthServerConfig {
            zones: vec![Zone::new(n("other.test"), ZoneMode::Wildcard)],
            log: log.clone(),
            log_queries: false,
        })),
    );
    let resolver = net.add_host(
        HostConfig {
            addrs: vec![ip("21.0.0.53")],
            asn: Asn(2),
            stack: Os::LinuxModern.stack_policy(),
        },
        Box::new(RecursiveResolver::new(ResolverConfig::test_default(
            vec![ip("21.0.0.53")],
            vec![good],
        ))),
    );
    // Many queries: server rotation starts at attempt 0 with server index
    // `attempts % len`, so some go to the bad server first and must retry.
    let queries: Vec<StubQuery> = (0..10)
        .map(|i| q(1 + i, &format!("r{i}.zone.test")))
        .collect();
    let stub = net.add_host(
        HostConfig {
            addrs: vec![ip("21.0.0.9")],
            asn: Asn(2),
            stack: StackPolicy::strict(),
        },
        Box::new(StubClient::new(ip("21.0.0.9"), queries)),
    );
    net.run();
    let stub_node = net.node::<StubClient>(stub).unwrap();
    let ok = stub_node
        .responses
        .iter()
        .filter(|r| r.rcode == RCode::NoError)
        .count();
    assert_eq!(ok, 10, "all queries must eventually succeed via rotation");
    let _ = resolver;
}

#[test]
fn middlebox_intercepts_inside_the_engine() {
    // Full in-engine interception: external client queries a *nonexistent*
    // internal resolver; the AS's middlebox answers via a public upstream.
    let mut net = Network::new(NetworkConfig {
        seed: 4,
        ..Default::default()
    });
    net.add_simple_as(Asn(1), BorderPolicy::strict()); // infra
    net.add_simple_as(Asn(2), BorderPolicy::open()); // victim AS w/ middlebox
    net.add_simple_as(Asn(3), BorderPolicy::open()); // client AS
    net.announce(pre("20.0.0.0/24"), Asn(1));
    net.announce(pre("21.0.0.0/24"), Asn(2));
    net.announce(pre("22.0.0.0/24"), Asn(3));
    let log = shared_log();
    let auth = ip("20.0.0.53");
    let root = Zone::new(Name::root(), ZoneMode::Static(vec![]))
        .delegate(n("zone.test"), vec![(n("ns.zone.test"), vec![auth])]);
    net.add_host(
        HostConfig {
            addrs: vec![auth],
            asn: Asn(1),
            stack: StackPolicy::strict(),
        },
        Box::new(AuthServer::new(AuthServerConfig {
            zones: vec![root, Zone::new(n("zone.test"), ZoneMode::Wildcard)],
            log: log.clone(),
            log_queries: true,
        })),
    );
    // Public upstream resolver in the infra AS.
    let upstream = ip("20.0.0.99");
    net.add_host(
        HostConfig {
            addrs: vec![upstream],
            asn: Asn(1),
            stack: Os::LinuxModern.stack_policy(),
        },
        Box::new(RecursiveResolver::new(ResolverConfig::test_default(
            vec![upstream],
            vec![auth],
        ))),
    );
    // The middlebox in AS 2.
    let mbx_addr = ip("21.0.0.250");
    let mbx = net.add_host(
        HostConfig {
            addrs: vec![mbx_addr],
            asn: Asn(2),
            stack: StackPolicy::permissive(),
        },
        Box::new(Interceptor::new(mbx_addr, upstream)),
    );
    net.set_dns_interceptor(Asn(2), mbx);
    // Client queries 21.0.0.53 — an address with NO host behind it.
    let stub = net.add_host(
        HostConfig {
            addrs: vec![ip("22.0.0.9")],
            asn: Asn(3),
            stack: StackPolicy::strict(),
        },
        Box::new(StubClient::new(
            ip("22.0.0.9"),
            vec![StubQuery {
                at: SimDuration::from_secs(1),
                resolver: ip("21.0.0.53"),
                qname: n("probe.zone.test"),
                qtype: RType::A,
            }],
        )),
    );
    net.run();
    // The client got an answer that *looks* like it came from 21.0.0.53.
    let stub_node = net.node::<StubClient>(stub).unwrap();
    assert_eq!(stub_node.responses.len(), 1);
    assert_eq!(stub_node.responses[0].from, ip("21.0.0.53"));
    assert_eq!(stub_node.responses[0].rcode, RCode::NoError);
    // And the authoritative log shows the upstream, not the ghost resolver.
    let log = log.borrow();
    assert!(log.entries().iter().all(|e| e.src == upstream));
    assert_eq!(net.counters.intercepted, 1);
}

#[test]
fn negative_cache_suppresses_repeat_upstream_traffic() {
    // Same NXDOMAIN name queried twice in quick succession: the second is
    // served from the negative cache.
    let mut net = Network::new(NetworkConfig {
        seed: 5,
        ..Default::default()
    });
    net.add_simple_as(Asn(1), BorderPolicy::strict());
    net.add_simple_as(Asn(2), BorderPolicy::open());
    net.announce(pre("20.0.0.0/24"), Asn(1));
    net.announce(pre("21.0.0.0/24"), Asn(2));
    let log = shared_log();
    let auth = ip("20.0.0.53");
    let root = Zone::new(Name::root(), ZoneMode::Static(vec![]))
        .delegate(n("zone.test"), vec![(n("ns.zone.test"), vec![auth])]);
    net.add_host(
        HostConfig {
            addrs: vec![auth],
            asn: Asn(1),
            stack: StackPolicy::strict(),
        },
        Box::new(AuthServer::new(AuthServerConfig {
            zones: vec![root, Zone::new(n("zone.test"), ZoneMode::Nxdomain)],
            log: log.clone(),
            log_queries: true,
        })),
    );
    let resolver = net.add_host(
        HostConfig {
            addrs: vec![ip("21.0.0.53")],
            asn: Asn(2),
            stack: Os::LinuxModern.stack_policy(),
        },
        Box::new(RecursiveResolver::new(ResolverConfig::test_default(
            vec![ip("21.0.0.53")],
            vec![auth],
        ))),
    );
    let stub = net.add_host(
        HostConfig {
            addrs: vec![ip("21.0.0.9")],
            asn: Asn(2),
            stack: StackPolicy::strict(),
        },
        Box::new(StubClient::new(
            ip("21.0.0.9"),
            vec![q(1, "gone.zone.test"), q(5, "gone.zone.test")],
        )),
    );
    net.run();
    let stub_node = net.node::<StubClient>(stub).unwrap();
    assert_eq!(stub_node.responses.len(), 2);
    assert!(stub_node
        .responses
        .iter()
        .all(|r| r.rcode == RCode::NXDomain));
    let stats = &net.node::<RecursiveResolver>(resolver).unwrap().stats;
    assert_eq!(stats.cache_hits, 1, "{stats:?}");
}

#[test]
fn duplicated_tcp_answer_does_not_panic_the_resolver() {
    // Regression: the resolver removed its pending entry when the first
    // TCP answer segment arrived, then `unwrap()`ed the (now-missing)
    // entry when a chaos-duplicated copy of the same PSH landed. A 100%
    // duplication fault schedule replays every inter-AS packet twice, so
    // the TCP answer to a TC-forced retry is guaranteed to arrive again
    // after the transaction completed.
    let mut net = Network::new(NetworkConfig {
        seed: 6,
        ..Default::default()
    });
    net.add_simple_as(Asn(1), BorderPolicy::strict());
    net.add_simple_as(Asn(2), BorderPolicy::open());
    net.announce(pre("20.0.0.0/24"), Asn(1));
    net.announce(pre("21.0.0.0/24"), Asn(2));
    let log = shared_log();
    let auth = ip("20.0.0.53");
    let root = Zone::new(Name::root(), ZoneMode::Static(vec![]))
        .delegate(n("zone.test"), vec![(n("ns.zone.test"), vec![auth])]);
    net.add_host(
        HostConfig {
            addrs: vec![auth],
            asn: Asn(1),
            stack: StackPolicy::strict(),
        },
        Box::new(AuthServer::new(AuthServerConfig {
            // TruncateUdp forces TC=1 over UDP; the real answer only
            // arrives over the TCP retry — the path under test.
            zones: vec![root, Zone::new(n("zone.test"), ZoneMode::TruncateUdp)],
            log: log.clone(),
            log_queries: true,
        })),
    );
    let resolver = net.add_host(
        HostConfig {
            addrs: vec![ip("21.0.0.53")],
            asn: Asn(2),
            stack: Os::LinuxModern.stack_policy(),
        },
        Box::new(RecursiveResolver::new(ResolverConfig::test_default(
            vec![ip("21.0.0.53")],
            vec![auth],
        ))),
    );
    let stub = net.add_host(
        HostConfig {
            addrs: vec![ip("21.0.0.9")],
            asn: Asn(2),
            stack: StackPolicy::strict(),
        },
        Box::new(StubClient::new(
            ip("21.0.0.9"),
            (0..5)
                .map(|i| q(1 + i, &format!("d{i}.zone.test")))
                .collect(),
        )),
    );
    arm_faults(
        &mut net,
        7,
        "dup-all",
        ChaosProfile {
            duplicate: 1.0,
            ..ChaosProfile::calm()
        },
    );
    net.run();
    let stub_node = net.node::<StubClient>(stub).unwrap();
    // TruncateUdp answers NXDOMAIN over TCP: five delivered NXDomains
    // prove five completed TCP exchanges (and no panic on the replayed
    // data segments).
    let ok = stub_node
        .responses
        .iter()
        .filter(|r| r.rcode == RCode::NXDomain)
        .count();
    assert_eq!(ok, 5, "every TC-forced resolution must still complete");
    let stats = &net.node::<RecursiveResolver>(resolver).unwrap().stats;
    assert!(stats.tcp_retries >= 5, "TCP path not exercised: {stats:?}");
}
