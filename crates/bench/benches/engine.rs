//! Event-engine throughput: a two-node UDP ping-pong measures raw
//! event-processing cost including border checks and delivery.

use bcd_netsim::{
    Asn, BorderPolicy, HostConfig, NetworkConfig, Node, NodeCtx, Packet, Runtime, StackPolicy,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::net::IpAddr;

struct Pinger {
    me: IpAddr,
    peer: IpAddr,
    remaining: u64,
}

impl Node for Pinger {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.send(Packet::udp(self.me, self.peer, 1, 1, vec![0; 32]));
    }
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, pkt: Packet) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(Packet::udp(pkt.dst, pkt.src, 1, 1, vec![0; 32]));
        }
    }
}

fn run_pingpong(rounds: u64) -> u64 {
    let mut net = Runtime::builder(NetworkConfig::default());
    net.add_simple_as(Asn(1), BorderPolicy::open());
    net.add_simple_as(Asn(2), BorderPolicy::open());
    net.announce("16.0.0.0/24".parse().unwrap(), Asn(1));
    net.announce("17.0.0.0/24".parse().unwrap(), Asn(2));
    let a: IpAddr = "16.0.0.1".parse().unwrap();
    let b: IpAddr = "17.0.0.1".parse().unwrap();
    net.add_host(
        HostConfig {
            addrs: vec![a],
            asn: Asn(1),
            stack: StackPolicy::default(),
        },
        Box::new(Pinger {
            me: a,
            peer: b,
            remaining: rounds,
        }),
    );
    net.add_host(
        HostConfig {
            addrs: vec![b],
            asn: Asn(2),
            stack: StackPolicy::default(),
        },
        Box::new(Pinger {
            me: b,
            peer: a,
            remaining: rounds,
        }),
    );
    let mut net = net.into_runtime();
    net.run();
    net.events_processed()
}

fn bench(c: &mut Criterion) {
    c.bench_function("engine_pingpong_10k_events", |b| {
        b.iter(|| run_pingpong(5_000))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
