//! Ablation: NXDOMAIN vs wildcard experiment zones (§3.6.4).
//!
//! The paper's authoritative servers answered NXDOMAIN, which makes
//! QNAME-minimizing resolvers halt before revealing the full query name —
//! 55% of qmin resolvers were lost. The paper proposes wildcard synthesis
//! for a future run; this binary runs both configurations over the same
//! world (qmin cranked up so the effect is visible) and quantifies the
//! recovered coverage.

use bcd_core::analysis::reachability::Reachability;
use bcd_core::Experiment;

fn run(wildcard: bool) -> (usize, usize, usize) {
    let mut cfg = bcd_bench::config(300, 0.15);
    // Make qmin common enough to matter (the 2019 Internet had 0.16%; the
    // ablation wants the mechanism visible).
    cfg.world.qmin_fraction = 0.25;
    cfg.world.qmin_halts_fraction = 0.55;
    cfg.wildcard_zone = wildcard;
    let data = Experiment::run(cfg);
    let reach = Reachability::compute(&data.input());
    (
        reach.reached.len(),
        reach.qmin.partial_only_sources.len(),
        reach.reached_asns_all().len(),
    )
}

fn main() {
    println!("== ablation: NXDOMAIN vs wildcard experiment zone (25% qmin world) ==");
    let (nx_addrs, nx_lost, nx_asns) = run(false);
    let (wc_addrs, wc_lost, wc_asns) = run(true);
    println!(
        "{:<22} {:>14} {:>18} {:>13}",
        "zone mode", "reached addrs", "qmin-lost targets", "reached ASNs"
    );
    println!(
        "{:<22} {:>14} {:>18} {:>13}",
        "NXDOMAIN (paper)", nx_addrs, nx_lost, nx_asns
    );
    println!(
        "{:<22} {:>14} {:>18} {:>13}",
        "wildcard (proposed)", wc_addrs, wc_lost, wc_asns
    );
    println!(
        "\nwildcard recovers {} targets that NXDOMAIN loses to RFC 8020 halting",
        wc_addrs as i64 - nx_addrs as i64
    );
}
