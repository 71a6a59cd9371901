//! # bcd-bench — experiment regeneration binaries and benchmarks
//!
//! | binary           | regenerates                                           |
//! |------------------|-------------------------------------------------------|
//! | `all [section…]` | the paper's evaluation sections, by name (see below)  |
//! | `export_csv`     | `results/*.csv`: the series behind Figures 2, 3a, 3b and Table 4 |
//! | `ablate_sources` | causal Table 3: re-scans with source categories removed |
//! | `ablate_qmin`    | §3.6.4: NXDOMAIN vs wildcard experiment zone          |
//! | `ablate_borders` | internal border filtering vs the Table 3 shape        |
//!
//! `all` with no arguments prints every section of
//! [`bcd_core::report::SECTIONS`] in order, then the engine traffic
//! totals. With arguments it prints only the named sections, in the order
//! given:
//!
//! | section       | regenerates                                         |
//! |---------------|-----------------------------------------------------|
//! | `headline`    | §4 headline reachability numbers                    |
//! | `table1`      | Table 1 (top countries by AS count)                 |
//! | `table2`      | Table 2 (top countries by IP reachability)          |
//! | `table3`      | Table 3 (source-category effectiveness)             |
//! | `table4`      | Table 4 (port-range bands, open/closed, p0f)        |
//! | `table5`      | Table 5 (lab port allocation per software)          |
//! | `table6`      | Table 6 (lab OS acceptance matrix)                  |
//! | `figure2`     | Figure 2 (range histogram by open/closed)           |
//! | `figure3a`    | Figure 3a (lab sample ranges, Beta model)           |
//! | `figure3b`    | Figure 3b (field ranges by p0f class, Beta peaks)   |
//! | `openclosed`  | §5.1                                                |
//! | `forwarding`  | §5.4                                                |
//! | `local`       | §5.5 field counterpart of Table 6                   |
//! | `methodology` | §3.6 (lifetime filter, qmin, middlebox)             |
//! | `passive`     | §5.2.2 (2018 DITL comparison)                       |
//!
//! A selection made only of lab sections (`table5`, `table6`, `figure3a`)
//! runs no survey.
//!
//! Environment knobs: `BCD_SEED`, `BCD_NAS` (AS count), `BCD_SCALE`
//! (targets-per-AS multiplier), `BCD_LAB_QUERIES` (lab queries per software
//! instance), `BCD_SHARDS` (parallel survey shards; results are
//! byte-identical for any value). An unset or empty knob takes its default;
//! any other value that does not parse panics, naming the variable.

use bcd_core::{Experiment, ExperimentConfig, ExperimentData};
use bcd_obs::ObsEnv;
use std::str::FromStr;

/// Read an env knob: unset or empty gives `default`.
///
/// # Panics
/// On a value that does not parse as a `T`, naming the variable and the
/// value — `BCD_NAS=4O` must fail the run, not quietly survey the default
/// world.
pub fn env_or<T: FromStr>(var: &str, default: T) -> T {
    match std::env::var(var) {
        Ok(value) => parse_or(var, &value, default),
        Err(std::env::VarError::NotPresent) => default,
        Err(std::env::VarError::NotUnicode(value)) => panic!("{var}={value:?} does not parse"),
    }
}

fn parse_or<T: FromStr>(var: &str, value: &str, default: T) -> T {
    if value.is_empty() {
        return default;
    }
    value
        .parse()
        .unwrap_or_else(|_| panic!("{var}={value:?} does not parse"))
}

/// The paper-shape experiment at `BCD_SEED` (default 2019), with the AS
/// count and target scale read from `BCD_NAS` / `BCD_SCALE` (defaults
/// `n_as` / `target_scale`).
pub fn config(n_as: usize, target_scale: f64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_shape(env_or("BCD_SEED", 2019));
    cfg.world.n_as = env_or("BCD_NAS", n_as);
    cfg.world.target_scale = env_or("BCD_SCALE", target_scale);
    cfg
}

/// The standard experiment configuration of the regeneration binaries:
/// [`config`] with the paper-shape world's own size as the defaults.
pub fn standard_config() -> ExperimentConfig {
    let paper = bcd_worldgen::WorldConfig::paper_shape(0);
    config(paper.n_as, paper.target_scale)
}

/// Run the standard experiment (shared by all binaries) under `env`. Like
/// [`Experiment::run_observed`] it writes no file; the binary calls
/// [`ObsEnv::export`] after its last phase.
pub fn standard_data(env: &ObsEnv) -> ExperimentData {
    let cfg = standard_config();
    eprintln!(
        "# running survey: seed={} ases={} scale={:.2} shards={}",
        cfg.world.seed, cfg.world.n_as, cfg.world.target_scale, cfg.shards
    );
    let t0 = std::time::Instant::now();
    let data = Experiment::run_observed(cfg, env);
    eprintln!(
        "# survey done in {:.1}s: {} targets, {} log entries, {} events",
        t0.elapsed().as_secs_f64(),
        data.targets.len(),
        data.entries.len(),
        data.events
    );
    data
}

#[cfg(test)]
mod tests {
    use super::parse_or;

    #[test]
    fn empty_takes_the_default() {
        assert_eq!(parse_or("BCD_NAS", "", 600usize), 600);
        assert_eq!(parse_or("BCD_SCALE", "", 0.22f64), 0.22);
    }

    #[test]
    fn well_formed_values_parse() {
        assert_eq!(parse_or("BCD_NAS", "40", 600usize), 40);
        assert_eq!(parse_or("BCD_SEED", "7", 2019u64), 7);
        assert_eq!(parse_or("BCD_SCALE", "0.05", 0.22f64), 0.05);
    }

    #[test]
    #[should_panic(expected = "BCD_NAS=\"4O\" does not parse")]
    fn typo_panics_naming_the_variable() {
        parse_or("BCD_NAS", "4O", 600usize);
    }

    #[test]
    #[should_panic(expected = "BCD_SEED=\"-1\" does not parse")]
    fn negative_seed_panics() {
        parse_or("BCD_SEED", "-1", 2019u64);
    }

    #[test]
    #[should_panic(expected = "BCD_SCALE=\"0,2\" does not parse")]
    fn malformed_float_panics() {
        parse_or("BCD_SCALE", "0,2", 0.22f64);
    }
}
