//! Internet-scale smoke test: build the full `internet_scale` world — the
//! paper's ~62k measured ASes and ~12M DITL candidate sources — and check
//! that (a) the Table 1/2 marginals survive the scale-up, (b) the build
//! fits CI-class memory, and (c) the world's bytes equal the pinned
//! seed-2019 digests, so a set-up optimisation that moves one byte fails
//! here even though no default-tier world is this large.
//!
//! The test doubles as the scale profiler: each stage records a
//! [`bcd_obs::RunProfile`] phase with the process peak-RSS watermark
//! stamped at completion, the breakdown prints with `--nocapture`, and
//! `BCD_OBS=path.jsonl` exports it for the CI artifact — so a memory
//! blow-up names the phase that allocated, not just the total.
//!
//! Ignored by default: this is a release-mode batch job (`cargo test -r
//! -p bcd-worldgen -- --ignored internet_scale`), not part of tier-1. The
//! CI `scale-smoke` job runs it.

use bcd_netsim::hash::{fnv1a, fnv1a_addr, Fnv1aWriter, FNV_OFFSET};
use bcd_obs::{peak_rss_kib, ObsEnv, RunObservation, RunProfile};
use bcd_worldgen::{build, World, WorldConfig};
use std::fmt::Write;
use std::time::Instant;

/// FNV-1a fingerprints of everything `build` produces for the full-scale
/// world. Each field folds one structure in its stored order.
#[derive(Debug, PartialEq, Eq)]
struct WorldDigests {
    topo: u64,
    blueprints: u64,
    /// `(addr, asn, live, responsive, open)` per resolver, in `resolvers`
    /// order.
    resolvers: u64,
    by_addr: u64,
    ditl_candidates: u64,
    /// Each measured AS's hitlist /64s, in ASN order.
    hitlist: u64,
    /// `country_of` for every `resolvers` address in order, then
    /// `countries_of` for every measured ASN.
    geo: u64,
}

impl WorldDigests {
    fn of(w: &World) -> WorldDigests {
        let mut blueprints = Fnv1aWriter::default();
        for b in &w.blueprints {
            write!(blueprints, "{b:?}").unwrap();
        }
        let mut resolvers = FNV_OFFSET;
        for r in &w.resolvers {
            fnv1a_addr(&mut resolvers, r.addr);
            fnv1a(&mut resolvers, &r.asn.0.to_le_bytes());
            fnv1a(
                &mut resolvers,
                &[r.live as u8, r.responsive as u8, r.open as u8],
            );
        }
        let mut by_addr = FNV_OFFSET;
        for &(a, i) in &w.by_addr {
            fnv1a_addr(&mut by_addr, a);
            fnv1a(&mut by_addr, &i.to_le_bytes());
        }
        let mut ditl_candidates = FNV_OFFSET;
        for &a in &w.ditl_candidates {
            fnv1a_addr(&mut ditl_candidates, a);
        }
        let mut hitlist = Fnv1aWriter::default();
        for &asn in &w.measured_asns {
            for p in w.v6_hitlist.of_asn(asn) {
                write!(hitlist, "{p}").unwrap();
            }
        }
        let mut geo = FNV_OFFSET;
        for r in &w.resolvers {
            let c = w.geo.country_of(w.topo.routes(), r.addr);
            fnv1a(&mut geo, c.map_or("-", |c| c.0).as_bytes());
            fnv1a(&mut geo, b";");
        }
        for &asn in &w.measured_asns {
            for c in w.geo.countries_of(asn) {
                fnv1a(&mut geo, c.0.as_bytes());
                fnv1a(&mut geo, b",");
            }
            fnv1a(&mut geo, b";");
        }
        WorldDigests {
            topo: w.topo.digest(),
            blueprints: blueprints.0,
            resolvers,
            by_addr,
            ditl_candidates,
            hitlist: hitlist.0,
            geo,
        }
    }
}

/// The seed-2019 `internet_scale` world's digests.
const PINNED_2019: WorldDigests = WorldDigests {
    topo: 0x6672_8c87_94b7_3489,
    blueprints: 0x87bc_395f_589b_9991,
    resolvers: 0x6721_39a9_0b32_3de2,
    by_addr: 0xba92_7a77_7aa6_451c,
    ditl_candidates: 0x246d_6585_20c3_30b7,
    hitlist: 0x22c6_1e5d_4ff8_9cdf,
    geo: 0x03bf_bbf3_aeaa_0772,
};

#[test]
#[ignore = "release-mode batch job: builds the full 62k-AS world"]
fn internet_scale_world_builds_within_budget() {
    let mut profile = RunProfile::new();
    let t0 = Instant::now();
    let w = profile.time("worldgen-build", || {
        build::build(WorldConfig::internet_scale(2019))
    });
    let build_secs = t0.elapsed().as_secs_f64();

    // ---- Table 1 shape: population counts at the paper's order of
    // magnitude. Bands are generous — these are scale checks, not the
    // calibrated-marginal checks (marginals.rs covers those densely).
    let t_checks = Instant::now();
    assert_eq!(w.measured_asns.len(), 62_000);
    assert!(
        (8_000_000..=16_000_000).contains(&w.ditl_candidates.len()),
        "candidate sources: {}",
        w.ditl_candidates.len()
    );
    assert!(
        w.ditl2019.is_empty() && w.ditl2018.is_empty(),
        "internet_scale must stream, not materialize, the DITL traces"
    );
    assert!(
        w.ditl_candidates.windows(2).all(|p| p[0] < p[1]),
        "candidates must arrive deduplicated and sorted"
    );
    let n_targets = w.resolvers.len();
    assert!(
        (8_000_000..=16_000_000).contains(&n_targets),
        "targets: {n_targets}"
    );

    // ---- Table 2 / §3.6.2 shape: live-host population near the paper's
    // ~1M, responsive share at per-IP reachability order. At full
    // population the stale share is ~90% — ~12M DITL sources against ~1M
    // hosts still alive at scan time is exactly the churn gap the paper
    // leans on (unlike paper_shape, which inflates the live share so a
    // small world still has measurable populations).
    let live = w.resolvers.iter().filter(|r| r.live).count();
    let responsive = w.resolvers.iter().filter(|r| r.responsive).count();
    assert!((600_000..=1_800_000).contains(&live), "live hosts: {live}");
    assert!(
        responsive > 0 && responsive < live,
        "responsive: {responsive}"
    );
    let stale_frac = w.resolvers.iter().filter(|r| !r.live).count() as f64 / n_targets as f64;
    assert!(
        (0.80..0.97).contains(&stale_frac),
        "stale fraction {stale_frac:.3}"
    );
    let v6 = w.resolvers.iter().filter(|r| r.addr.is_ipv6()).count();
    assert!(v6 > 100_000, "v6 targets: {v6}");
    profile.record("marginal-checks", t_checks.elapsed());

    // ---- host table consistency: one simulated host per live target plus
    // shared infrastructure; the topology index must resolve a sample.
    let t_index = Instant::now();
    assert!(
        w.topo.host_count() >= live,
        "host table smaller than live set"
    );
    for r in w.resolvers.iter().step_by(1_000_000) {
        assert_eq!(w.meta_of(r.addr).map(|m| m.addr), Some(r.addr));
    }
    profile.record("host-index-probe", t_index.elapsed());

    // ---- same-bytes gate: a set-up optimisation must not move one byte of
    // the seed-2019 world. A deliberate behaviour change re-pins these.
    let t_pin = Instant::now();
    let digests = WorldDigests::of(&w);
    eprintln!("internet_scale digests: {digests:#x?}");
    assert_eq!(digests, PINNED_2019, "the seed-2019 world's bytes moved");
    profile.record("digest-pin", t_pin.elapsed());

    // ---- scale profile: per-phase wall + RSS-watermark breakdown. The
    // watermark is monotone, so the first phase whose rss_peak jumps is
    // the one that allocated.
    for p in &profile.phases {
        let rss_gib = p
            .rss_peak_kib
            .map(|k| k as f64 / (1024.0 * 1024.0))
            .unwrap_or(f64::NAN);
        eprintln!(
            "scale-profile: {:<16} {:>8.2}s  rss-peak {rss_gib:.2} GiB",
            p.name,
            p.wall.as_secs_f64()
        );
        assert!(
            p.rss_peak_kib.is_some(),
            "VmHWM must be readable on the Linux CI runner"
        );
    }
    let obs = RunObservation {
        seed: 2019,
        shards: 1,
        profile,
        ..RunObservation::default()
    };
    ObsEnv::from_env().export(&obs, None);

    // ---- resource budget: the acceptance bar is < 8 GiB peak RSS.
    let rss = peak_rss_kib().expect("VmHWM") as f64 / (1024.0 * 1024.0);
    eprintln!(
        "internet_scale: built in {build_secs:.1}s, peak RSS {rss:.2} GiB, \
         {n_targets} targets, {live} live, {} candidates",
        w.ditl_candidates.len()
    );
    assert!(rss < 8.0, "peak RSS {rss:.2} GiB exceeds the 8 GiB budget");
}
