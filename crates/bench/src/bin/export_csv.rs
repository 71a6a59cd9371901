//! Export the figure series as CSV (results/*.csv) for external plotting —
//! the numeric series behind Figures 2, 3a and 3b.

use bcd_core::lab;
use bcd_core::report::PaperReport;
use bcd_osmodel::P0fClass;
use bcd_stats::Beta;
use std::fmt::Write as _;
use std::fs;

fn main() -> std::io::Result<()> {
    fs::create_dir_all("results")?;
    let n = bcd_bench::env_or("BCD_LAB_QUERIES", 10_000);
    let env = bcd_obs::ObsEnv::from_env();
    let data = bcd_bench::standard_data(&env);
    env.export(&data.obs, data.flight.as_ref());
    let report = PaperReport::new(&data, n);
    let ports = report.ports();

    // Figure 2 / 3b: one row per resolver.
    let mut f2 = String::from("range,open,p0f\n");
    for (range, open, p0f) in ports.figure_points() {
        writeln!(f2, "{range},{},{}", open as u8, p0f).unwrap();
    }
    fs::write("results/fig2_field_ranges.csv", f2)?;

    // Figure 3a: lab sample ranges per pool, plus the Beta(9,2) curve.
    let samples = lab::figure3a_samples(n, data.cfg.world.seed);
    let mut f3 = String::from("pool_label,pool_size,sample_range\n");
    for (label, pool, ranges) in &samples {
        for r in ranges {
            writeln!(f3, "{label},{pool},{r}").unwrap();
        }
    }
    fs::write("results/fig3a_lab_ranges.csv", f3)?;

    let beta = Beta::range_model(10);
    let mut curve = String::from("x,pdf,cdf\n");
    for i in 0..=1_000 {
        let x = i as f64 / 1_000.0;
        writeln!(curve, "{x:.3},{:.6},{:.6}", beta.pdf(x), beta.cdf(x)).unwrap();
    }
    fs::write("results/beta_9_2_model.csv", curve)?;

    // Table 4 as CSV.
    let mut t4 = String::from("lo,hi,label,total,open,closed,p0f_win,p0f_lin\n");
    for b in &ports.bands {
        writeln!(
            t4,
            "{},{},{},{},{},{},{},{}",
            b.lo, b.hi, b.label, b.total, b.open, b.closed, b.p0f_windows, b.p0f_linux
        )
        .unwrap();
    }
    fs::write("results/table4_bands.csv", t4)?;

    let p0f_counts = ports.p0f_totals();
    eprintln!(
        "# wrote results/fig2_field_ranges.csv ({} resolvers, {} p0f-classified), \
         fig3a_lab_ranges.csv, beta_9_2_model.csv, table4_bands.csv",
        ports.observations.len(),
        ports.observations.len() - p0f_counts.get(&P0fClass::Unknown).copied().unwrap_or(0),
    );
    Ok(())
}
