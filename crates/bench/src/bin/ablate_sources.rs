//! Ablation: re-run the scan with restricted source-category sets and
//! measure the coverage each category buys — the causal version of
//! Table 3's category-exclusive columns.
//!
//! The paper argues every category "independently contributed": removing
//! any one would have lowered both address and ASN coverage. Here we
//! actually remove them and re-scan.

use bcd_core::analysis::reachability::Reachability;
use bcd_core::{Experiment, SourceCategory};

fn run(label: &str, filter: Option<Vec<SourceCategory>>) -> (String, usize, usize) {
    let mut cfg = bcd_bench::config(300, 0.15);
    cfg.category_filter = filter;
    let data = Experiment::run(cfg);
    let reach = Reachability::compute(&data.input());
    (
        label.to_string(),
        reach.reached.len(),
        reach.reached_asns_all().len(),
    )
}

fn main() {
    use SourceCategory::*;
    let all = [OtherPrefix, SamePrefix, Private, DstAsSrc, Loopback];
    let mut rows = Vec::new();
    rows.push(run("all five categories", None));
    for drop in all {
        let keep: Vec<SourceCategory> = all.iter().copied().filter(|c| *c != drop).collect();
        rows.push(run(&format!("without {drop}"), Some(keep)));
    }
    rows.push(run("same-prefix only", Some(vec![SamePrefix])));
    rows.push(run("other-prefix only", Some(vec![OtherPrefix])));

    println!("== ablation: source-category contribution (re-scanned, not re-analyzed) ==");
    println!(
        "{:<28} {:>14} {:>12}",
        "scan configuration", "reached addrs", "reached ASNs"
    );
    let base = (rows[0].1, rows[0].2);
    for (label, addrs, asns) in &rows {
        println!(
            "{:<28} {:>8} ({:>+5}) {:>6} ({:>+4})",
            label,
            addrs,
            *addrs as i64 - base.0 as i64,
            asns,
            *asns as i64 - base.1 as i64
        );
    }
}
