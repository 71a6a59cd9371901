//! Shard-count invariance (the sharding layer's contract).
//!
//! A sharded survey partitions probes by destination AS, runs one engine
//! per shard over the *same* shared world, and merges the artifacts
//! deterministically. These tests lock in the observable guarantees:
//!
//! * every survey section of the paper report renders *byte-identically*
//!   for 1, 2, and 8 shards — across seeds, so the invariance is not an
//!   accident of one topology (the lab sections do not read the survey);
//! * the *raw* merged log-entry count is *equal* at every shard count.
//!   Entry counts are the sharpest invariant: the shared public-DNS hosts
//!   relay queries from many ASes, and before their upstream draws were
//!   derived from query identity (and pending queries demuxed by
//!   `(txid, sport)`), rare txid collisions made one-in-a-thousand probes
//!   retry — or not — depending on the shard layout.

use bcd_core::report::{is_lab_section, PaperReport, SECTIONS};
use bcd_core::{Experiment, ExperimentConfig};

fn run(seed: u64, shards: usize) -> (usize, Vec<(&'static str, String)>) {
    let mut cfg = ExperimentConfig::tiny(seed);
    cfg.shards = shards;
    let data = Experiment::run(cfg);
    let paper = PaperReport::new(&data, 0);
    let renders = SECTIONS
        .into_iter()
        .filter(|s| !is_lab_section(s))
        .map(|s| (s, paper.render(s).expect("a known section")))
        .collect();
    (data.entries.len(), renders)
}

#[test]
fn renders_and_entry_counts_are_shard_count_invariant() {
    for seed in [11u64, 2019] {
        let (count1, single) = run(seed, 1);
        assert!(count1 > 0, "seed {seed} produced an empty log");
        for shards in [2usize, 8] {
            let (count_n, sharded) = run(seed, shards);
            assert_eq!(
                count1, count_n,
                "raw merged entry count differs between 1 and {shards} shards at seed {seed}"
            );
            for (one, many) in single.iter().zip(sharded.iter()) {
                assert_eq!(
                    one, many,
                    "{} differs between 1 and {shards} shards at seed {seed}",
                    one.0
                );
            }
        }
    }
}
