//! Substitution validation: the synthesized DITL trace stands in for a real
//! root-server collection. This test runs resolver *warmup* traffic through
//! the actual simulated root servers, converts the root log into DITL
//! records via the same path a real collection would take, and checks that
//! the paper's target-extraction pipeline produces the same targets either
//! way.

use behind_closed_doors::core::targets::TargetSet;
use behind_closed_doors::dns::log::shared_log;
use behind_closed_doors::dns::{
    Acl, AuthServer, AuthServerConfig, RecursiveResolver, ResolverConfig, Zone, ZoneMode,
};
use behind_closed_doors::dnswire::{Name, RType};
use behind_closed_doors::netsim::{
    Asn, BorderPolicy, HostConfig, Network, NetworkConfig, SimDuration, StackPolicy,
};
use behind_closed_doors::osmodel::Os;
use behind_closed_doors::worldgen::ditl;
use std::net::IpAddr;

#[test]
fn warmup_through_real_root_servers_yields_extractable_targets() {
    let mut net = Network::new(NetworkConfig {
        seed: 5,
        ..Default::default()
    });
    net.add_simple_as(Asn(1), BorderPolicy::strict()); // infrastructure
    net.add_simple_as(Asn(2), BorderPolicy::open()); // resolver AS
    net.announce("198.41.0.0/24".parse().unwrap(), Asn(1));
    net.announce("16.0.0.0/24".parse().unwrap(), Asn(2));
    net.announce("16.0.1.0/24".parse().unwrap(), Asn(2));

    let root_addr: IpAddr = "198.41.0.4".parse().unwrap();
    let root_log = shared_log();
    // A root zone with no delegations: every warmup query gets NXDOMAIN
    // straight from the root — and is logged, which is all DITL needs.
    net.add_host(
        HostConfig {
            addrs: vec![root_addr],
            asn: Asn(1),
            stack: StackPolicy::strict(),
        },
        Box::new(AuthServer::new(AuthServerConfig {
            zones: vec![Zone::new(Name::root(), ZoneMode::Static(vec![]))],
            log: root_log.clone(),
            log_queries: true,
        })),
    );

    // Three resolvers with warmup schedules (self-initiated background
    // queries — what populates a real DITL trace).
    let resolver_addrs: Vec<IpAddr> = vec![
        "16.0.0.53".parse().unwrap(),
        "16.0.0.54".parse().unwrap(),
        "16.0.1.53".parse().unwrap(),
    ];
    for (i, addr) in resolver_addrs.iter().enumerate() {
        let warmup = (0..3)
            .map(|k| {
                (
                    SimDuration::from_secs(1 + i as u64 * 10 + k * 25),
                    format!("w{k}.lookup{i}.example").parse::<Name>().unwrap(),
                    RType::A,
                )
            })
            .collect();
        let mut cfg = ResolverConfig::test_default(vec![*addr], vec![root_addr]);
        cfg.warmup = warmup;
        cfg.acl = Acl::Open;
        net.add_host(
            HostConfig {
                addrs: vec![*addr],
                asn: Asn(2),
                stack: Os::LinuxModern.stack_policy(),
            },
            Box::new(RecursiveResolver::new(cfg)),
        );
    }

    net.run();

    // Convert the root log exactly like a real collection would.
    let trace = ditl::from_query_log(root_log.borrow().entries());
    assert!(
        trace.len() >= resolver_addrs.len(),
        "every resolver should have hit the root at least once, got {} records",
        trace.len()
    );

    // The extraction pipeline finds exactly the three resolvers.
    let targets = TargetSet::extract(&trace, net.routes());
    let mut found: Vec<IpAddr> = targets.v4.iter().map(|t| t.addr).collect();
    found.sort();
    let mut expected = resolver_addrs.clone();
    expected.sort();
    assert_eq!(found, expected);
    assert!(targets.v4.iter().all(|t| t.asn == Asn(2)));
}
