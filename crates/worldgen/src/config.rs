//! World-generation configuration.
//!
//! Defaults are calibrated so a generated world's *shape* matches the
//! paper's measured marginals. All fractions are documented with the paper
//! number they target.

/// Knobs for the synthetic Internet.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Number of measured ASes (the paper tested ~62,000; the default world
    /// is scaled down so a full survey runs in seconds).
    pub n_as: usize,
    /// Fraction of ASes that also announce IPv6 space (paper: 7,904 of
    /// ~54k–62k ≈ 0.13).
    pub v6_as_fraction: f64,
    /// Global multiplier on the per-country `targets_per_as` means, to
    /// shrink the resolver population proportionally with `n_as`.
    pub target_scale: f64,
    /// Fraction of DITL-derived targets that are *stale* — no longer (or
    /// never) a live resolver at experiment time (§3.6.2 churn; drives the
    /// gap between per-AS and per-IP reachability).
    pub stale_target_fraction: f64,
    /// Of non-stale, non-handling targets: fraction that are live but
    /// REFUSE every spoofed source (§3.8's conservative-estimate evidence).
    pub refuse_all_fraction: f64,
    /// Probability that a no-DSAV AS with targets but no responsive
    /// resolver (an artifact of down-scaling) gets one promoted — DITL
    /// sources were active resolvers months before the scan, so almost
    /// every AS in the trace still hosts at least one live handler.
    pub ensure_responsive_prob: f64,
    /// IPv6 acceptance multiplier over the per-country rate (the paper
    /// found v6 targets *more* reachable: 6.2% vs 4.6%).
    pub v6_accept_multiplier: f64,
    /// IPv4 acceptance damping (compensates the responsive-promotion pass
    /// so per-IP reachability stays at the paper's 4.6%).
    pub v4_accept_multiplier: f64,

    // ---- behaviour mixes among *responsive* resolvers ----
    /// Fraction of responsive v4 resolvers that forward (§5.4: 47%).
    pub forward_fraction_v4: f64,
    /// Fraction of responsive v6 resolvers that forward (§5.4: 16%).
    pub forward_fraction_v6: f64,
    /// Open-resolver fraction among *forwarders* (derived so the global
    /// open share lands at §5.1's 40%).
    pub forwarder_open_fraction: f64,
    /// QNAME-minimizing resolvers (§3.6.4: 0.16% of targets).
    pub qmin_fraction: f64,
    /// Of qmin resolvers: fraction that halt on NXDOMAIN, hiding the full
    /// QNAME (§3.6.4: 55%).
    pub qmin_halts_fraction: f64,

    // ---- AS-level knobs ----
    /// Fraction of no-DSAV ASes whose inbound DNS is grabbed by a
    /// transparent middlebox (§3.6.1: explains the ASes with no direct
    /// in-AS source at our authoritatives — 14% of v4 reachable ASes).
    pub middlebox_as_fraction: f64,
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
    /// Fraction of no-DSAV ASes filtering private-source ingress
    /// (Table 3: private sources reached only 12–14% of reachable ASes).
    pub private_filter_fraction: f64,
    /// Fraction of no-DSAV ASes filtering IPv4 loopback-source ingress
    /// (near-universal: the paper saw a single v4 loopback hit).
    pub loopback_filter_fraction: f64,
    /// Fraction filtering IPv6 loopback-source ingress (much weaker in
    /// practice: 106 v6 hits).
    pub loopback_filter_fraction_v6: f64,
    /// Fraction of no-DSAV ASes dropping IPv4 dst-as-src martians at the
    /// border (calibrates the paper's 17% v4 vs 70% v6 asymmetry).
    pub ds_filter_fraction_v4: f64,
    /// OSAV deployment among measured ASes (irrelevant to DSAV results but
    /// part of the world; ~0.75 per the spoofer project).
    pub osav_fraction: f64,

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
    /// Event budget for the simulation.
    pub max_events: u64,
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
            v6_as_fraction: 0.13,
            target_scale: 0.22,
            stale_target_fraction: 0.62,
            refuse_all_fraction: 0.30,
            ensure_responsive_prob: 0.90,
            v6_accept_multiplier: 1.5,
            v4_accept_multiplier: 0.80,
            forward_fraction_v4: 0.47,
            forward_fraction_v6: 0.16,
            forwarder_open_fraction: 0.74,
            qmin_fraction: 0.0016,
            qmin_halts_fraction: 0.55,
            middlebox_as_fraction: 0.02,
            subnet_savi_fraction: 0.22,
            fully_spoofable_fraction: 0.20,
            partial_pass_permille: (10, 150),
            private_filter_fraction: 0.80,
            loopback_filter_fraction: 0.995,
            loopback_filter_fraction_v6: 0.85,
            ds_filter_fraction_v4: 0.35,
            osav_fraction: 0.75,
            human_lookup_fraction: 0.00005,
            human_lookup_delay_secs: 7_200,
            address_density: 1.0,
            materialize_ditl: true,
            max_events: 500_000_000,
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
        let c = WorldConfig::paper_shape(1);
        assert!(c.n_as > 100);
        for f in [
            c.v6_as_fraction,
            c.stale_target_fraction,
            c.ensure_responsive_prob,
            c.forward_fraction_v4,
            c.forward_fraction_v6,
            c.forwarder_open_fraction,
            c.qmin_fraction,
            c.qmin_halts_fraction,
            c.middlebox_as_fraction,
            c.subnet_savi_fraction,
            c.fully_spoofable_fraction,
            c.private_filter_fraction,
            c.loopback_filter_fraction,
            c.osav_fraction,
            c.human_lookup_fraction,
        ] {
            assert!((0.0..=1.0).contains(&f));
        }
        let t = WorldConfig::tiny(1);
        assert!(t.n_as < c.n_as);
    }
}
