//! # bcd-bench — experiment regeneration binaries and benchmarks
//!
//! One binary per paper table/figure (see DESIGN.md's per-experiment
//! index):
//!
//! | binary        | regenerates                                        |
//! |---------------|----------------------------------------------------|
//! | `headline`    | §4 headline reachability numbers                   |
//! | `table1`      | Table 1 (top countries by AS count)                |
//! | `table2`      | Table 2 (top countries by IP reachability)         |
//! | `table3`      | Table 3 (source-category effectiveness)            |
//! | `table4`      | Table 4 (port-range bands, open/closed, p0f)       |
//! | `table5`      | Table 5 (lab port-allocation per software)         |
//! | `table6`      | Table 6 (lab OS acceptance matrix) + §5.5 field    |
//! | `fig2`        | Figure 2 (range histogram by open/closed)          |
//! | `fig3`        | Figure 3a/3b (lab + field histograms, Beta model)  |
//! | `methodology` | §3.6 (lifetime filter, qmin, middlebox)            |
//! | `openclosed`  | §5.1                                               |
//! | `forwarding`  | §5.4                                               |
//! | `passive`     | §5.2.2 (2018 DITL comparison)                      |
//! | `all`         | everything above, in order                         |
//!
//! Environment knobs (all binaries): `BCD_SEED`, `BCD_NAS` (AS count),
//! `BCD_SCALE` (targets-per-AS multiplier), `BCD_SHARDS` (parallel survey
//! shards; results are byte-identical for any value).

use bcd_core::{Experiment, ExperimentConfig, ExperimentData};

/// Read an env knob with a default.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Read a float env knob with a default.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The standard experiment configuration used by all regeneration
/// binaries.
pub fn standard_config() -> ExperimentConfig {
    let seed = env_u64("BCD_SEED", 2019);
    let mut cfg = ExperimentConfig::paper_shape(seed);
    cfg.world.n_as = env_u64("BCD_NAS", cfg.world.n_as as u64) as usize;
    cfg.world.target_scale = env_f64("BCD_SCALE", cfg.world.target_scale);
    cfg
}

/// Run the standard experiment (shared by all binaries).
pub fn standard_data() -> ExperimentData {
    let cfg = standard_config();
    eprintln!(
        "# running survey: seed={} ases={} scale={:.2} shards={}",
        cfg.world.seed, cfg.world.n_as, cfg.world.target_scale, cfg.shards
    );
    let t0 = std::time::Instant::now();
    let data = Experiment::run(cfg);
    eprintln!(
        "# survey done in {:.1}s: {} targets, {} log entries, {} events",
        t0.elapsed().as_secs_f64(),
        data.targets.len(),
        data.entries.len(),
        data.events
    );
    data
}
