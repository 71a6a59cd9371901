//! Ablation of the border-filtering model itself: how much of the paper's
//! "median reachable target answered only ~3 spoofed sources" comes from
//! partial internal SAV, and what subnet-granular SAVI does to the
//! category-exclusive structure.
//!
//! Three worlds, identical except for the internal-filtering knobs:
//! 1. no internal filtering at all (every in-AS spoof passes),
//! 2. the calibrated default (partial SAV + 22% subnet SAVI),
//! 3. maximal internal filtering (all partial, no fully-open ASes).

use bcd_core::analysis::categories::CategoryReport;
use bcd_core::analysis::reachability::Reachability;
use bcd_core::{Experiment, ExperimentConfig, SourceCategory};

struct Row {
    label: &'static str,
    reached: usize,
    asns: usize,
    median_sources: usize,
    other_exclusive: usize,
}

fn run(label: &'static str, tune: impl FnOnce(&mut ExperimentConfig)) -> Row {
    let mut cfg = bcd_bench::config(300, 0.15);
    tune(&mut cfg);
    let data = Experiment::run(cfg);
    let reach = Reachability::compute(&data.input());
    let cats = CategoryReport::compute(&reach);
    Row {
        label,
        reached: reach.reached.len(),
        asns: reach.reached_asns_all().len(),
        median_sources: cats.median_sources_v4,
        other_exclusive: cats.row(false, SourceCategory::OtherPrefix).exclusive_addrs,
    }
}

fn main() {
    let rows = [
        run("no internal filtering", |c| {
            c.world.fully_spoofable_fraction = 1.0;
            c.world.subnet_savi_fraction = 0.0;
        }),
        run("calibrated default", |_| {}),
        run("maximal internal SAV", |c| {
            c.world.fully_spoofable_fraction = 0.0;
            c.world.partial_pass_permille = (5, 40);
            c.world.subnet_savi_fraction = 0.5;
        }),
    ];
    println!("== ablation: internal border filtering vs observable shape ==");
    println!(
        "{:<24} {:>9} {:>7} {:>16} {:>18}",
        "internal filtering", "reached", "ASNs", "median sources", "other-prefix-excl"
    );
    for r in rows {
        println!(
            "{:<24} {:>9} {:>7} {:>16} {:>18}",
            r.label, r.reached, r.asns, r.median_sources, r.other_exclusive
        );
    }
    println!(
        "\npaper anchors: median 3 working sources (v4); other-prefix exclusively\n\
         reached 33% of v4 targets — only partial internal SAV produces both."
    );
}
