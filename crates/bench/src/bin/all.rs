//! Regenerate the paper's evaluation sections from one shared survey.
//!
//! ```text
//! all                     # every section, then the engine traffic totals
//! all table3 headline     # just those sections, in that order
//! all table5              # lab sections only: no survey runs
//! ```
//!
//! Section names are [`bcd_core::report::SECTIONS`]; an unknown name exits
//! with status 2 before any work starts.

use bcd_core::report::{self, PaperReport, SECTIONS};
use bcd_obs::ObsEnv;
use std::time::Instant;

fn main() {
    // First, so a malformed BCD_TRACE / BCD_PROGRESS stops every run,
    // lab-only selections included.
    let env = ObsEnv::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = args.iter().find(|a| !SECTIONS.contains(&a.as_str())) {
        eprintln!(
            "all: unknown section `{bad}`; valid sections: {}",
            SECTIONS.join(", ")
        );
        std::process::exit(2);
    }
    let sections: Vec<&str> = if args.is_empty() {
        SECTIONS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    let lab_queries = bcd_bench::env_or("BCD_LAB_QUERIES", 10_000);

    if sections.iter().all(|s| report::is_lab_section(s)) {
        let paper = PaperReport::lab_only(lab_queries, bcd_bench::standard_config().world.seed);
        for section in sections {
            println!("{}", paper.render(section).expect("a known section"));
        }
        return;
    }

    let mut data = bcd_bench::standard_data(&env);
    let t0 = Instant::now();
    let paper = PaperReport::new(&data, lab_queries);
    data.obs.profile.record("analysis", t0.elapsed());
    let t0 = Instant::now();
    for section in sections {
        println!("{}", paper.render(section).expect("a known section"));
    }
    if args.is_empty() {
        println!("{}", report::render_engine_totals(&data.counters));
    }
    data.obs.profile.record("report", t0.elapsed());

    // The run report goes to stderr (it is run metadata, not a paper
    // artifact). The files are written last, so they carry the analysis
    // and report phases too.
    eprintln!("{}", bcd_obs::report::render_run_report(&data.obs));
    env.export(&data.obs, data.flight.as_ref());
}
