//! The controlled lab environment (§5.3.2, §5.3.3, §5.5).
//!
//! The paper installed DNS software on real OS instances, issued 10,000
//! recursive queries per instance, and observed the source ports at its
//! own authoritative server (Table 5 / Figure 3a), and separately tested
//! each OS's acceptance of destination-as-source and loopback packets
//! (Table 6). Both harnesses are reproduced here against the simulator,
//! using the same node implementations the Internet-scale world runs.

use bcd_dns::log::shared_log;
use bcd_dns::stub::StubQuery;
use bcd_dns::{
    Acl, AuthServer, AuthServerConfig, RecursiveResolver, ResolverConfig, StubClient, Zone,
    ZoneMode,
};
use bcd_dnswire::{Name, RType};
use bcd_netsim::node::SinkNode;
use bcd_netsim::{
    Asn, BorderPolicy, HostConfig, Network, NetworkConfig, Node, NodeCtx, Packet, Prefix,
    SimDuration, StackPolicy,
};
use bcd_osmodel::{DnsSoftware, Os};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::net::IpAddr;

/// One-way delay of every inter-AS lab link, the same as the engine's fixed
/// intra-AS delay: latency is irrelevant to the lab harnesses (queries
/// still get strictly ordered by event sequence).
const LAB_DELAY: SimDuration = SimDuration::from_micros(50);

/// Result of one Table 5 lab run.
#[derive(Debug, Clone)]
pub struct LabPortResult {
    pub software: DnsSoftware,
    pub os: Os,
    /// Observed source ports, query order.
    pub ports: Vec<u16>,
    pub unique: usize,
    pub min: u16,
    pub max: u16,
}

impl LabPortResult {
    /// Observed pool span (`max - min + 1`); 1 for a single port.
    pub fn span(&self) -> u32 {
        self.max as u32 - self.min as u32 + 1
    }

    /// Split the observation into consecutive 10-query samples and return
    /// each sample's range — the Figure 3a construction ("we divided the
    /// 10,000 queries ... into samples of size 10").
    pub fn sample_ranges(&self, k: usize) -> Vec<u32> {
        self.ports
            .chunks_exact(k)
            .map(|chunk| {
                let mn = *chunk.iter().min().unwrap() as u32;
                let mx = *chunk.iter().max().unwrap() as u32;
                mx - mn
            })
            .collect()
    }
}

fn lab_ip(i: u128) -> IpAddr {
    Prefix::new("203.0.112.0".parse().unwrap(), 24)
        .nth(i)
        .unwrap()
}

/// Issue `n_queries` recursive queries to `software` running on `os` and
/// observe the upstream source ports — one row of Table 5.
pub fn measure_ports(software: DnsSoftware, os: Os, n_queries: usize, seed: u64) -> LabPortResult {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut net = Network::new(NetworkConfig {
        seed,
        core_delay: LAB_DELAY,
        ..Default::default()
    });
    net.add_simple_as(Asn(1), BorderPolicy::open());
    net.announce("203.0.112.0/24".parse().unwrap(), Asn(1));

    let log = shared_log();
    let auth_addr = lab_ip(1);
    let resolver_addr = lab_ip(2);
    let client_addr = lab_ip(3);

    // A single authoritative host serving root + the test zone, so the
    // resolver can recurse normally.
    let root_zone = Zone::new(Name::root(), ZoneMode::Static(vec![])).delegate(
        "lab.test".parse().unwrap(),
        vec![("ns.lab.test".parse().unwrap(), vec![auth_addr])],
    );
    let lab_zone = Zone::new("lab.test".parse().unwrap(), ZoneMode::Wildcard);
    net.add_host(
        HostConfig {
            addrs: vec![auth_addr],
            asn: Asn(1),
            stack: StackPolicy::strict(),
        },
        Box::new(AuthServer::new(AuthServerConfig {
            zones: vec![root_zone, lab_zone],
            log: log.clone(),
            log_queries: true,
        })),
    );

    let allocator = software.allocator(os, &mut rng);
    net.add_host(
        HostConfig {
            addrs: vec![resolver_addr],
            asn: Asn(1),
            stack: os.stack_policy(),
        },
        Box::new(RecursiveResolver::new(ResolverConfig {
            addrs: vec![resolver_addr],
            acl: Acl::Open,
            forward_to: None,
            qmin: false,
            qmin_halts_on_nxdomain: true,
            allocator,
            os,
            p0f_visible: true,
            root_hints: vec![auth_addr].into(),
            timeout: SimDuration::from_secs(2),
            max_attempts: 3,
            warmup: Vec::new(),
            identity_draw_salt: None,
            preload_cuts: Vec::new().into(),
        })),
    );

    let queries: Vec<StubQuery> = (0..n_queries)
        .map(|i| StubQuery {
            at: SimDuration::from_millis(i as u64 * 5),
            resolver: resolver_addr,
            qname: format!("u{i}.lab.test").parse().unwrap(),
            qtype: RType::A,
        })
        .collect();
    net.add_host(
        HostConfig {
            addrs: vec![client_addr],
            asn: Asn(1),
            stack: StackPolicy::strict(),
        },
        Box::new(StubClient::new(client_addr, queries)),
    );

    net.run();

    // Ports of queries arriving from the resolver, in arrival order;
    // skip the root/lab infrastructure warm-up queries for `lab.test`
    // delegations (they come from the same resolver — include them; they
    // use the same allocator, as in the real lab).
    let log = log.borrow();
    let ports: Vec<u16> = log
        .entries()
        .iter()
        .filter(|e| e.src == resolver_addr)
        .map(|e| e.src_port)
        .collect();
    let unique: std::collections::BTreeSet<u16> = ports.iter().copied().collect();
    let (min, max) = (
        ports.iter().copied().min().unwrap_or(0),
        ports.iter().copied().max().unwrap_or(0),
    );
    LabPortResult {
        software,
        os,
        ports,
        unique: unique.len(),
        min,
        max,
    }
}

/// Run the full Table 5 sweep.
pub fn table5(n_queries: usize, seed: u64) -> Vec<LabPortResult> {
    let cases: [(DnsSoftware, Os); 8] = [
        (DnsSoftware::Bind950, Os::LinuxModern),
        (DnsSoftware::Bind952To988, Os::LinuxModern),
        (DnsSoftware::Bind99Plus, Os::LinuxModern),
        (DnsSoftware::Knot32, Os::LinuxModern),
        (DnsSoftware::Unbound19, Os::LinuxModern),
        (DnsSoftware::PowerDns42, Os::LinuxModern),
        (DnsSoftware::WindowsDnsOld, Os::Windows2003),
        (DnsSoftware::WindowsDnsModern, Os::WindowsModern),
    ];
    cases
        .iter()
        .enumerate()
        .map(|(i, &(sw, os))| measure_ports(sw, os, n_queries, seed.wrapping_add(i as u64)))
        .collect()
}

/// The Figure 3a lab sweep: the three OS-default pools plus the full
/// unprivileged range, 10-query sample ranges each.
pub fn figure3a_samples(n_queries: usize, seed: u64) -> Vec<(&'static str, u32, Vec<u32>)> {
    let cases: [(&'static str, DnsSoftware, Os, u32); 4] = [
        (
            "Windows DNS",
            DnsSoftware::WindowsDnsModern,
            Os::WindowsModern,
            2_500,
        ),
        ("FreeBSD", DnsSoftware::Bind99Plus, Os::FreeBsd, 16_383),
        ("Linux", DnsSoftware::Bind99Plus, Os::LinuxModern, 28_232),
        (
            "Full Port Range",
            DnsSoftware::Unbound19,
            Os::LinuxModern,
            64_511,
        ),
    ];
    cases
        .iter()
        .enumerate()
        .map(|(i, &(label, sw, os, pool))| {
            let res = measure_ports(sw, os, n_queries, seed.wrapping_add(100 + i as u64));
            (label, pool, res.sample_ranges(10))
        })
        .collect()
}

/// One Table 6 acceptance cell.
#[derive(Debug, Clone, Copy)]
pub struct StackRow {
    pub os: Os,
    pub ds_v4: bool,
    pub lb_v4: bool,
    pub ds_v6: bool,
    pub lb_v6: bool,
}

/// A recorder node counting deliveries per destination port.
struct Recorder {
    hits: Vec<u16>,
}
impl Node for Recorder {
    fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, pkt: Packet) {
        self.hits.push(pkt.transport.dst_port());
    }
}

/// Reproduce Table 6: send destination-as-source and loopback packets (both
/// families) at a host running each OS's network stack, across an
/// unfiltered path, and record what reaches user space.
pub fn table6() -> Vec<StackRow> {
    Os::ALL
        .iter()
        .map(|&os| {
            let mut net = Network::new(NetworkConfig {
                seed: 7,
                core_delay: LAB_DELAY,
                ..Default::default()
            });
            net.add_simple_as(Asn(1), BorderPolicy::open());
            net.add_simple_as(Asn(2), BorderPolicy::open());
            net.announce("203.0.112.0/24".parse().unwrap(), Asn(1));
            net.announce("16.0.0.0/24".parse().unwrap(), Asn(2));
            net.announce("2600:0:1::/64".parse().unwrap(), Asn(1));
            net.announce("2600:0:2::/64".parse().unwrap(), Asn(2));
            let host_v4: IpAddr = "203.0.112.10".parse().unwrap();
            let host_v6: IpAddr = "2600:0:1::10".parse().unwrap();
            let probe = net.add_host(
                HostConfig {
                    addrs: vec![host_v4, host_v6],
                    asn: Asn(1),
                    stack: os.stack_policy(),
                },
                Box::new(Recorder { hits: Vec::new() }),
            );

            // The sender lives in another AS (both ASes have fully open
            // borders, isolating the *stack* decision).
            struct Sender {
                host_v4: IpAddr,
                host_v6: IpAddr,
            }
            impl Node for Sender {
                fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _pkt: Packet) {}
                fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                    // dst-as-src v4 (port 1), loopback v4 (2), dst-as-src
                    // v6 (3), loopback v6 (4).
                    ctx.send(Packet::udp(self.host_v4, self.host_v4, 9, 1, vec![]));
                    ctx.send(Packet::udp(
                        "127.0.0.1".parse().unwrap(),
                        self.host_v4,
                        9,
                        2,
                        vec![],
                    ));
                    ctx.send(Packet::udp(self.host_v6, self.host_v6, 9, 3, vec![]));
                    ctx.send(Packet::udp(
                        "::1".parse().unwrap(),
                        self.host_v6,
                        9,
                        4,
                        vec![],
                    ));
                }
            }
            net.add_host(
                HostConfig {
                    addrs: vec!["16.0.0.9".parse().unwrap(), "2600:0:2::9".parse().unwrap()],
                    asn: Asn(2),
                    stack: StackPolicy::strict(),
                },
                Box::new(Sender { host_v4, host_v6 }),
            );
            net.run();
            let hits = &net.node::<Recorder>(probe).unwrap().hits;
            StackRow {
                os,
                ds_v4: hits.contains(&1),
                lb_v4: hits.contains(&2),
                ds_v6: hits.contains(&3),
                lb_v6: hits.contains(&4),
            }
        })
        .collect()
}

// SinkNode is pulled in to keep the lab harness's imports aligned with the
// rest of the crate; it is used by example scenarios.
#[allow(unused)]
fn _sink_type_check(_s: SinkNode) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_port_lab_run() {
        let r = measure_ports(DnsSoftware::FixedPort53, Os::LinuxOld, 50, 1);
        assert!(r.ports.len() >= 50);
        assert_eq!(r.unique, 1);
        assert_eq!(r.min, 53);
        assert_eq!(r.span(), 1);
    }

    #[test]
    fn linux_pool_lab_run() {
        let r = measure_ports(DnsSoftware::Bind99Plus, Os::LinuxModern, 300, 2);
        assert!(r.min >= 32_768);
        assert!((r.max as u32) < 32_768 + 28_232);
        assert!(
            r.unique > 250,
            "near-unique ports expected, got {}",
            r.unique
        );
        let ranges = r.sample_ranges(10);
        assert_eq!(ranges.len(), r.ports.len() / 10);
        // Mean 10-sample range near (9/11)·28232 ≈ 23,099.
        let mean: f64 = ranges.iter().map(|&x| x as f64).sum::<f64>() / ranges.len() as f64;
        assert!((19_000.0..26_500.0).contains(&mean), "mean range {mean}");
    }

    #[test]
    fn windows_dns_lab_run() {
        let r = measure_ports(DnsSoftware::WindowsDnsModern, Os::WindowsModern, 300, 3);
        // All ports inside the IANA range, spanning ≤ 2,500 modulo wrap.
        assert!(r.min >= 49_152);
        let unique: std::collections::BTreeSet<u16> = r.ports.iter().copied().collect();
        assert!(unique.len() > 100);
    }

    #[test]
    fn table6_matches_paper_matrix() {
        let rows = table6();
        let get = |os: Os| *rows.iter().find(|r| r.os == os).unwrap();
        // Modern Linux: v6 DS only.
        let lm = get(Os::LinuxModern);
        assert!(!lm.ds_v4 && lm.ds_v6 && !lm.lb_v4 && !lm.lb_v6);
        // Old Linux: v6 DS + v6 LB.
        let lo = get(Os::LinuxOld);
        assert!(!lo.ds_v4 && lo.ds_v6 && !lo.lb_v4 && lo.lb_v6);
        // FreeBSD: DS both, no LB.
        let fb = get(Os::FreeBsd);
        assert!(fb.ds_v4 && fb.ds_v6 && !fb.lb_v4 && !fb.lb_v6);
        // Windows modern: DS both.
        let wm = get(Os::WindowsModern);
        assert!(wm.ds_v4 && wm.ds_v6 && !wm.lb_v4 && !wm.lb_v6);
        // Windows 2003: DS both + v4 LB.
        let w3 = get(Os::Windows2003);
        assert!(w3.ds_v4 && w3.ds_v6 && w3.lb_v4 && !w3.lb_v6);
    }
}
