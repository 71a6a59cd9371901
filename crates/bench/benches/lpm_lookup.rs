//! LPM engine comparison: the compact arena trie behind `PrefixTable`
//! against the boxed-node `PrefixMap` reference, at an Internet-scale
//! table size. `routing.rs` covers the routing table at survey-scale
//! tables; this bench isolates the engine choice itself.

use bcd_netsim::{Asn, LpmTrie, Prefix, PrefixMap};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::net::IpAddr;

/// A deterministic routing table shaped like the generated world's:
/// per-AS runs of adjacent /24s plus a sprinkling of v6 /32s.
fn announcements(n: u32) -> Vec<(Prefix, Asn)> {
    let mut out = Vec::with_capacity(n as usize);
    for i in 0..n {
        let a = 1 + (i >> 16) % 220;
        let b = (i >> 8) & 0xFF;
        let c = i & 0xFF;
        let ip: IpAddr = format!("{a}.{b}.{c}.0").parse().unwrap();
        out.push((Prefix::new(ip, 24), Asn(i / 40)));
        if i % 13 == 0 {
            let ip6: IpAddr = format!("2600:{:x}::", i & 0xFFFF).parse().unwrap();
            out.push((Prefix::new(ip6, 32), Asn(i / 40)));
        }
    }
    out
}

fn fill_trie(ann: &[(Prefix, Asn)]) -> LpmTrie<Asn> {
    let mut t = LpmTrie::new();
    for &(p, asn) in ann {
        t.insert(p, asn);
    }
    t
}

fn fill_map(ann: &[(Prefix, Asn)]) -> PrefixMap<Asn> {
    let mut m = PrefixMap::new();
    for &(p, asn) in ann {
        m.insert(p, asn);
    }
    m
}

fn bench(c: &mut Criterion) {
    let ann = announcements(500_000); // ~540k prefixes: Internet-table order
    let trie = fill_trie(&ann);
    let map = fill_map(&ann);
    let probes: Vec<IpAddr> = (0..4_096u32)
        .map(|i| {
            format!("{}.{}.{}.7", 1 + (i % 200), (i * 7) & 0xFF, (i * 13) & 0xFF)
                .parse()
                .unwrap()
        })
        .collect();

    let mut g = c.benchmark_group("lpm_lookup_500k");
    g.bench_function("trie", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % probes.len();
            black_box(trie.get(probes[i]))
        })
    });
    g.bench_function("map", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % probes.len();
            black_box(map.get(probes[i]))
        })
    });
    g.finish();

    let mut g = c.benchmark_group("lpm_build_100k");
    let small: Vec<_> = ann.iter().take(100_000).copied().collect();
    g.bench_function("trie", |b| b.iter(|| fill_trie(black_box(&small))));
    g.bench_function("map", |b| b.iter(|| fill_map(black_box(&small))));
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
