//! The spoofed-response adversary vs the dual-method survey: chaos
//! regression tests for the `spoofy` profile and the cross-method
//! invariants ([`bcd_core::invariants`]).
//!
//! The adversary races DNS responses with forged copies carrying a wrong
//! txid ([`bcd_netsim::ChaosProfile::spoof`]). Both methods' evidence is a
//! query *arriving* at our authoritative servers, and receivers validate
//! `(txid, port)` on the demux path, so no spoof intensity may ever flip a
//! ground-truth-closed AS open — and faults may only *shrink* the inbound
//! method's open set. Violations delta-debug down to a replayable
//! `BCD_CHAOS=...` line with a handful of fault events.

use bcd_core::chaos::{self, run_clean};
use bcd_core::invariants::InvariantChecker;
use bcd_core::{entries_digest, run_dual, ExperimentConfig, ExperimentData};
use bcd_netsim::{ChaosConfig, ChaosProfile};
use bcd_obs::ObsEnv;

/// A very small world: each test pays for several end-to-end experiment
/// runs (and each dual run is two of them).
fn small(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::tiny(seed);
    cfg.world.n_as = 16;
    cfg.world.target_scale = 0.03;
    cfg.shards = 1;
    cfg
}

const SEED: u64 = 2021;

/// An escalating spoof ladder: at every intensity, neither method calls a
/// ground-truth-closed AS open, and the inbound method's open set only
/// shrinks relative to the clean baseline.
#[test]
fn spoof_ladder_never_flips_closed_open() {
    let base = small(SEED);
    let clean = run_dual(base.clone(), &ObsEnv::disabled());
    assert!(
        clean.matrix.is_exact(),
        "clean baseline must match the oracle before the ladder means anything"
    );
    let mut injected_total = 0u64;
    for intensity in [0.10f64, 0.35, 0.80] {
        let mut cfg = base.clone();
        cfg.world.chaos = Some(ChaosConfig::custom(
            chaos::chaos_seed(SEED, "spoofy"),
            "spoof-ladder",
            ChaosProfile {
                spoof: intensity,
                ..ChaosProfile::calm()
            },
        ));
        let dual = run_dual(cfg, &ObsEnv::disabled());
        injected_total += dual.a.counters.injected + dual.b.counters.injected;
        let inv = InvariantChecker::check_agreement(&dual.matrix, false);
        assert!(inv.is_ok(), "spoof={intensity}: {}", inv.render());
        let mono = InvariantChecker::check_crp_monotone(&clean.matrix, &dual.matrix);
        assert!(mono.is_ok(), "spoof={intensity}: {}", mono.render());
        // Packet accounting still balances with the forged copies on the
        // books (`sent + duplicated + injected`).
        let cons_a = InvariantChecker::check(&dual.a);
        assert!(cons_a.is_ok(), "spoof={intensity}: {}", cons_a.render());
        let cons_b = InvariantChecker::check_crp(&dual.b);
        assert!(cons_b.is_ok(), "spoof={intensity}: {}", cons_b.render());
    }
    assert!(
        injected_total > 0,
        "the ladder never injected a forged response — the adversary is not firing"
    );
}

/// The named `spoofy` profile replays byte-identically: the injection
/// pattern is a pure hash of shard-invariant packet keys, so the same
/// `(seed, profile)` line reproduces the same canonical query log.
#[test]
fn spoofy_profile_replays_byte_identically() {
    let base = small(SEED);
    let cfg = chaos::chaos_config(SEED, "spoofy").expect("spoofy is a registered profile");
    let first = chaos::run_chaotic(&base, cfg.clone());
    assert!(
        first.counters.injected > 0,
        "spoofy run injected nothing — nothing under test"
    );
    let again = chaos::replay(&base, &cfg.spec()).expect("spec round-trips");
    assert_eq!(
        entries_digest(&first),
        entries_digest(&again),
        "BCD_CHAOS={} did not replay byte-identically",
        cfg.spec()
    );
    assert_eq!(first.counters.injected, again.counters.injected);

    // And the shard layout is invisible to the adversary.
    let mut sharded_cfg = base;
    sharded_cfg.shards = 4;
    let sharded = chaos::run_chaotic(&sharded_cfg, cfg);
    assert_eq!(
        entries_digest(&first),
        entries_digest(&sharded),
        "spoofy run differs between 1 and 4 shards"
    );
}

/// Delta-debugging a spoof-affected run yields a tiny replayable witness:
/// the `spoofy` profile compiles to one ambient injection event, so the
/// minimal `BCD_CHAOS` line carries at most a handful of event ids.
#[test]
fn spoof_witness_shrinks_to_minimal_event_set() {
    let base = small(SEED);
    let clean = run_clean(&base);
    let cfg = chaos::chaos_config(SEED, "spoofy").unwrap();
    let failing = chaos::run_chaotic(&base, cfg);
    let violates = |_clean: &ExperimentData, d: &ExperimentData| d.counters.injected > 0;
    assert!(violates(&clean, &failing), "predicate must hold pre-shrink");
    let spec = chaos::shrink_schedule(&base, &clean, &failing, &violates);
    let events = spec
        .events
        .as_ref()
        .expect("shrink pins an explicit event set");
    assert!(
        events.len() <= 5,
        "minimal witness BCD_CHAOS={spec} carries {} events, expected <= 5",
        events.len()
    );
    let line = format!("BCD_CHAOS={spec}");
    assert!(line.contains("profile=spoofy") && line.contains("events="));
    // The minimal line still reproduces the behaviour it witnesses.
    let replayed = chaos::replay(&base, &spec).expect("minimal spec replays");
    assert!(
        violates(&clean, &replayed),
        "minimal reproducer {line} no longer triggers the predicate"
    );
}
