//! World-generation configuration.
//!
//! Defaults are calibrated so a generated world's *shape* matches the
//! paper's measured marginals. All fractions are documented with the paper
//! number they target.

// ---- paper-calibrated constants ----
//
// Every behaviour mix below has one value in every world preset, so it is a
// constant rather than a setting. Each is documented with the paper number
// it targets.

/// Fraction of ASes that also announce IPv6 space (paper: 7,904 of
/// ~54k–62k ≈ 0.13).
pub(crate) const V6_AS_FRACTION: f64 = 0.13;
/// Probability that a no-DSAV AS with targets but no responsive resolver
/// (an artifact of down-scaling) gets one promoted — DITL sources were
/// active resolvers months before the scan, so almost every AS in the
/// trace still hosts at least one live handler (§4.1's per-AS
/// reachability).
pub(crate) const ENSURE_RESPONSIVE_PROB: f64 = 0.90;
/// IPv6 acceptance multiplier over the per-country rate (§4.1 found v6
/// targets *more* reachable: 6.2% vs 4.6%).
pub(crate) const V6_ACCEPT_MULTIPLIER: f64 = 1.5;
/// IPv4 acceptance damping (compensates the responsive-promotion pass so
/// per-IP reachability stays at §4.1's 4.6%).
pub(crate) const V4_ACCEPT_MULTIPLIER: f64 = 0.80;

/// Fraction of responsive v4 resolvers that forward (§5.4: 47%).
pub const FORWARD_FRACTION_V4: f64 = 0.47;
/// Fraction of responsive v6 resolvers that forward (§5.4: 16%).
pub const FORWARD_FRACTION_V6: f64 = 0.16;
/// Open-resolver fraction among *forwarders* (derived so the global open
/// share lands at §5.1's 40%).
pub(crate) const FORWARDER_OPEN_FRACTION: f64 = 0.74;

/// Fraction of no-DSAV ASes whose inbound DNS is grabbed by a transparent
/// middlebox (§3.6.1: explains the ASes with no direct in-AS source at our
/// authoritatives — 14% of v4 reachable ASes).
pub(crate) const MIDDLEBOX_AS_FRACTION: f64 = 0.02;
/// Fraction of no-DSAV ASes filtering private-source ingress (Table 3:
/// private sources reached only 12–14% of reachable ASes).
pub(crate) const PRIVATE_FILTER_FRACTION: f64 = 0.80;
/// Fraction of no-DSAV ASes filtering IPv4 loopback-source ingress
/// (near-universal: Table 3 has a single v4 loopback hit).
pub(crate) const LOOPBACK_FILTER_FRACTION: f64 = 0.995;
/// Fraction filtering IPv6 loopback-source ingress (much weaker in
/// practice: Table 3's 106 v6 hits).
pub(crate) const LOOPBACK_FILTER_FRACTION_V6: f64 = 0.85;
/// Fraction of no-DSAV ASes dropping IPv4 dst-as-src martians at the
/// border (calibrates Table 3's 17% v4 vs 70% v6 asymmetry).
pub(crate) const DS_FILTER_FRACTION_V4: f64 = 0.35;
/// OSAV deployment among measured ASes (irrelevant to DSAV results but
/// part of the world; ~0.75 per the spoofer project).
pub(crate) const OSAV_FRACTION: f64 = 0.75;

/// Event budget for every engine spawned over a generated world. No paper
/// counterpart: a runaway guard (a run that hits it reports
/// `ExperimentData::budget_exhausted`).
pub(crate) const MAX_EVENTS: u64 = 500_000_000;

/// Knobs for the synthetic Internet: the values a preset, test, binary or
/// benchmark actually varies.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Number of measured ASes (the paper tested ~62,000; the default world
    /// is scaled down so a full survey runs in seconds).
    pub n_as: usize,
    /// Global multiplier on the per-country `targets_per_as` means, to
    /// shrink the resolver population proportionally with `n_as`.
    pub target_scale: f64,
    /// Of non-stale, non-handling targets: fraction that are live but
    /// REFUSE every spoofed source (§3.8's conservative-estimate evidence).
    pub refuse_all_fraction: f64,

    // ---- behaviour mixes among *responsive* resolvers ----
    /// QNAME-minimizing resolvers (§3.6.4: 0.16% of targets).
    pub qmin_fraction: f64,
    /// Of qmin resolvers: fraction that halt on NXDOMAIN, hiding the full
    /// QNAME (§3.6.4: 55%).
    pub qmin_halts_fraction: f64,

    // ---- AS-level knobs ----
    /// Fraction of no-DSAV ASes that nevertheless run subnet-granular SAVI
    /// (blocks same-prefix and dst-as-src spoofs; calibrated against
    /// Table 3's other-prefix-exclusive share).
    pub subnet_savi_fraction: f64,
    /// Fraction of no-DSAV ASes with *no* partial internal SAV at all
    /// (every internal-prefix spoof passes). The remainder filter most
    /// internal prefixes, which is why the paper's median reachable target
    /// responded to only ~3 of the 101 spoofed sources (§4.1).
    pub fully_spoofable_fraction: f64,
    /// For partially-filtered ASes: the permille of internal subnets whose
    /// spoofs pass, sampled uniformly from this range.
    pub partial_pass_permille: (u16, u16),

    // ---- §3.6.3 human intervention ----
    /// Probability that a spoofed query dropped at a *filtered* border is
    /// nevertheless logged by an IDS and later resolved by a curious human
    /// (producing a long-lifetime query the analysis must discard).
    pub human_lookup_fraction: f64,
    /// Seconds after the original query at which the human lookup happens.
    pub human_lookup_delay_secs: u64,

    // ---- scale ----
    /// Global multiplier on each AS's carved /24 (and derived /64) count.
    /// `1.0` reproduces the historical address plan byte-for-byte; Internet-
    /// scale worlds shrink it so 62k ASes fit the simulator's IPv4 space
    /// (~14.3M /24s below the 224.0.0.0 multicast line).
    pub address_density: f64,
    /// Materialize the DITL traces as in-memory record vectors (`ditl2019`
    /// / `ditl2018`). The default; analyses that replay the raw trace need
    /// it. Internet-scale worlds turn it off: the 2019 trace is streamed
    /// straight into the deduplicated candidate-source list
    /// (`World::ditl_candidates`) and the 2018 trace is skipped, so the
    /// ~2.3 records/target trace never exists in memory.
    pub materialize_ditl: bool,

    // ---- engine ----
    /// Event-scheduler implementation for every engine spawned over this
    /// world (heap oracle vs timing wheel; observationally identical).
    pub sched: bcd_netsim::SchedKind,
    /// Seeded fault injection: compile a [`bcd_netsim::FaultSchedule`]
    /// from this profile and arm it in every spawned runtime. Faults are
    /// keyed on packet identity, so lossy runs stay deterministic across
    /// shard layouts (plain link loss is
    /// [`bcd_netsim::ChaosProfile::loss_only`]).
    pub chaos: Option<bcd_netsim::ChaosConfig>,
}

impl WorldConfig {
    /// The default scaled-down world: ~600 ASes, ~20k targets. A full
    /// survey over it runs in a few seconds in release mode.
    pub fn paper_shape(seed: u64) -> WorldConfig {
        WorldConfig {
            seed,
            n_as: 600,
            target_scale: 0.22,
            refuse_all_fraction: 0.30,
            qmin_fraction: 0.0016,
            qmin_halts_fraction: 0.55,
            subnet_savi_fraction: 0.22,
            fully_spoofable_fraction: 0.20,
            partial_pass_permille: (10, 150),
            human_lookup_fraction: 0.00005,
            human_lookup_delay_secs: 7_200,
            address_density: 1.0,
            materialize_ditl: true,
            sched: bcd_netsim::SchedKind::default(),
            chaos: None,
        }
    }

    /// A tiny world for unit/integration tests (tens of ASes, hundreds of
    /// targets; runs in milliseconds even in debug builds).
    pub fn tiny(seed: u64) -> WorldConfig {
        WorldConfig {
            n_as: 40,
            target_scale: 0.05,
            qmin_fraction: 0.01,
            ..WorldConfig::paper_shape(seed)
        }
    }

    /// The full-population world: the paper's ~62k measured ASes, ~12M
    /// DITL candidate sources, and ~1M live resolver hosts. Tuned for
    /// *building* on CI hardware (struct-of-arrays topology, streamed DITL
    /// trace, shared resolver-config storage — see DESIGN.md); a full
    /// spoofing survey over it is a batch job, not a test.
    ///
    /// Calibration against [`WorldConfig::paper_shape`]:
    /// * `target_scale: 0.5` — the per-country `targets_per_as` means were
    ///   tuned for down-scaled worlds and overshoot ~2× at the full AS
    ///   count; 0.5 lands the 2019 candidate population at the paper's
    ///   ~12.1M unique sources (measured: ~11.9M at seed 2019).
    /// * `refuse_all_fraction: 0.06` — per-target live probability is
    ///   `accept + (1 − accept) · refuse_all` ≈ 9.5%, so ~12M targets
    ///   yield ~1.8M live hosts (the paper's ~1M-host order) while the
    ///   responsive share stays at §4.1's per-IP reachability.
    /// * `address_density: 0.35` — shrinks each AS's address plan so 62k
    ///   ASes fit the v4 unicast space (the allocator also switches to
    ///   packed /16 carving below 1.0); per-AS prefix counts stay ≥ 2 so
    ///   other-prefix spoof sources always exist.
    pub fn internet_scale(seed: u64) -> WorldConfig {
        WorldConfig {
            n_as: 62_000,
            target_scale: 0.5,
            refuse_all_fraction: 0.06,
            address_density: 0.35,
            materialize_ditl: false,
            ..WorldConfig::paper_shape(seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        for f in [
            V6_AS_FRACTION,
            ENSURE_RESPONSIVE_PROB,
            FORWARD_FRACTION_V4,
            FORWARD_FRACTION_V6,
            FORWARDER_OPEN_FRACTION,
            MIDDLEBOX_AS_FRACTION,
            PRIVATE_FILTER_FRACTION,
            LOOPBACK_FILTER_FRACTION,
            LOOPBACK_FILTER_FRACTION_V6,
            DS_FILTER_FRACTION_V4,
            OSAV_FRACTION,
        ] {
            assert!((0.0..=1.0).contains(&f));
        }
        let c = WorldConfig::paper_shape(1);
        let t = WorldConfig::tiny(1);
        let i = WorldConfig::internet_scale(1);
        assert!(c.n_as > 100);
        assert!(t.n_as < c.n_as && c.n_as < i.n_as);
        for w in [&c, &t, &i] {
            for f in [
                w.refuse_all_fraction,
                w.qmin_fraction,
                w.qmin_halts_fraction,
                w.subnet_savi_fraction,
                w.fully_spoofable_fraction,
                w.human_lookup_fraction,
            ] {
                assert!((0.0..=1.0).contains(&f));
            }
            let (lo, hi) = w.partial_pass_permille;
            assert!(lo <= hi && hi <= 1000);
            assert!(w.address_density > 0.0 && w.address_density <= 1.0);
        }
    }
}
