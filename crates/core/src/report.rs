//! Plain-text rendering of every table and figure in the paper's
//! evaluation. [`SECTIONS`] lists the paper's artifacts by name and
//! [`PaperReport`] renders any of them from one survey; `bcd-bench`'s
//! `all [section…]` prints them, and EXPERIMENTS.md records the output
//! next to the paper's numbers.

use crate::analysis::categories::CategoryReport;
use crate::analysis::country::{CountryReport, CountryRow};
use crate::analysis::forwarding::ForwardingReport;
use crate::analysis::local::LocalInfiltrationReport;
use crate::analysis::openclosed::OpenClosedReport;
use crate::analysis::passive::PassiveReport;
use crate::analysis::ports::PortReport;
use crate::analysis::qmin::QminReport;
use crate::analysis::reachability::{MiddleboxReport, Reachability};
use crate::experiment::ExperimentData;
use crate::lab::{self, LabPortResult, StackRow};
use crate::sources::SourceCategory;
use crate::targets::TargetSet;
use bcd_geo::Country;
use bcd_stats::{Beta, StackedHistogram};
use std::fmt::Write;
use std::sync::Arc;

/// The paper's evaluation sections, in report order: the §4 headline,
/// Tables 1–6, Figures 2–3 and the §5/§3.6 numbers. Each name is also the
/// name of its golden snapshot (`crates/core/tests/golden/<name>.txt`).
pub const SECTIONS: [&str; 15] = [
    "headline",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "figure2",
    "figure3a",
    "figure3b",
    "openclosed",
    "forwarding",
    "local",
    "methodology",
    "passive",
];

/// True for the sections the controlled lab renders on its own (Table 5,
/// Table 6, Figure 3a): they need no survey.
pub fn is_lab_section(name: &str) -> bool {
    matches!(name, "table5" | "table6" | "figure3a")
}

/// Renders any of [`SECTIONS`] by name. The survey's analysis chain is
/// computed once, in [`PaperReport::new`]; the lab harnesses run only when
/// one of their sections is rendered.
pub struct PaperReport {
    survey: Option<SurveyAnalyses>,
    lab_queries: usize,
    lab_seed: u64,
}

/// Every survey analysis a paper section renders from.
struct SurveyAnalyses {
    targets: Arc<TargetSet>,
    reach: Reachability,
    countries: CountryReport,
    cats: CategoryReport,
    oc: OpenClosedReport,
    ports: PortReport,
    fwd: ForwardingReport,
    local: LocalInfiltrationReport,
    qmin: QminReport,
    mbx: MiddleboxReport,
    passive: PassiveReport,
}

impl PaperReport {
    /// Analyse one survey. The lab sections issue `lab_queries` queries per
    /// software instance, seeded with the survey's world seed.
    pub fn new(data: &ExperimentData, lab_queries: usize) -> PaperReport {
        let input = data.input();
        let reach = Reachability::compute(&input);
        let countries = CountryReport::compute(&input, &reach);
        let cats = CategoryReport::compute(&reach);
        let oc = OpenClosedReport::compute(&input, &reach);
        let ports = PortReport::compute(&input, &oc);
        let fwd = ForwardingReport::compute(&input);
        let local = LocalInfiltrationReport::compute(&reach);
        let qmin = QminReport::compute(&input, &reach);
        let mbx = MiddleboxReport::compute(&input, &reach);
        let passive = PassiveReport::compute(&ports, &data.world.ditl2018);
        PaperReport {
            survey: Some(SurveyAnalyses {
                targets: Arc::clone(&data.targets),
                reach,
                countries,
                cats,
                oc,
                ports,
                fwd,
                local,
                qmin,
                mbx,
                passive,
            }),
            lab_queries,
            lab_seed: data.cfg.world.seed,
        }
    }

    /// A report without a survey: it renders the lab sections only (see
    /// [`is_lab_section`]).
    pub fn lab_only(lab_queries: usize, seed: u64) -> PaperReport {
        PaperReport {
            survey: None,
            lab_queries,
            lab_seed: seed,
        }
    }

    fn survey(&self, what: &str) -> &SurveyAnalyses {
        self.survey
            .as_ref()
            .unwrap_or_else(|| panic!("{what} needs a survey"))
    }

    /// The §5.2 source-port analysis behind Table 4 and Figures 2 and 3b.
    ///
    /// # Panics
    /// On a [`PaperReport::lab_only`] report.
    pub fn ports(&self) -> &PortReport {
        &self.survey("the port analysis").ports
    }

    /// Render one section; `None` for a name not in [`SECTIONS`].
    ///
    /// # Panics
    /// On a survey section of a [`PaperReport::lab_only`] report.
    pub fn render(&self, section: &str) -> Option<String> {
        let a = || self.survey(section);
        let (n, seed) = (self.lab_queries, self.lab_seed);
        Some(match section {
            "headline" => render_headline(&a().targets, &a().reach),
            "table1" => render_table1(&a().countries, 10),
            "table2" => render_table2(&a().countries, 10),
            "table3" => render_table3(&a().cats),
            "table4" => render_table4(&a().ports),
            "table5" => render_table5(&lab::table5(n, seed)),
            "table6" => render_table6(&lab::table6()),
            "figure2" => render_figure2(&a().ports),
            "figure3a" => render_figure3a(&lab::figure3a_samples(n, seed)),
            "figure3b" => render_figure3b(&a().ports),
            "openclosed" => render_openclosed(&a().oc),
            "forwarding" => render_forwarding(&a().fwd),
            "local" => render_local(&a().local),
            "methodology" => render_methodology(&a().reach, &a().qmin, &a().mbx),
            "passive" => render_passive(&a().passive),
            _ => return None,
        })
    }
}

/// Engine traffic accounting: merged packet totals and the per-reason
/// drop breakdown. Not a paper artifact — a sanity surface that
/// `bcd-bench`'s `all` prints after the paper sections, answering "where
/// did the probes go?" at a glance. Deliberately omits the engine event
/// counter: that is per-engine bookkeeping that varies with the shard
/// layout, and this render goes to stdout, which must stay byte-identical
/// across `BCD_SHARDS` (events appear in the stderr run report instead).
pub fn render_engine_totals(counters: &bcd_netsim::NetCounters) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== engine traffic totals ==");
    let _ = writeln!(
        s,
        "packets: {} sent, {} delivered, {} duplicated, {} intercepted",
        counters.sent, counters.delivered, counters.duplicated, counters.intercepted
    );
    let total: u64 = counters.drops.values().sum();
    if total == 0 {
        let _ = writeln!(s, "drops: none");
    } else {
        let _ = writeln!(s, "drops by reason ({total} total):");
        for (reason, n) in &counters.drops {
            let _ = writeln!(
                s,
                "  {:<22} {n:>10}  ({:.1}%)",
                reason.to_string(),
                100.0 * *n as f64 / total as f64
            );
        }
    }
    s
}

/// `n (p%)` formatting helper.
pub fn pct(n: usize, d: usize) -> String {
    if d == 0 {
        format!("{n} (-)")
    } else {
        format!("{n} ({:.1}%)", 100.0 * n as f64 / d as f64)
    }
}

/// §4 headline numbers.
pub fn render_headline(targets: &TargetSet, reach: &Reachability) -> String {
    let mut s = String::new();
    let v4_total = targets.v4.len();
    let v6_total = targets.v6.len();
    let v4_reached = reach.reached_count(false);
    let v6_reached = reach.reached_count(true);
    let v4_asns = targets.asns_v4();
    let v6_asns = targets.asns_v6();
    let v4_asns_reached = reach.reached_asns(false);
    let v6_asns_reached = reach.reached_asns(true);
    writeln!(s, "== DSAV survey headline (paper §4) ==").unwrap();
    writeln!(
        s,
        "IPv4 targets reached : {} of {} ({:.1}%)   [paper: 519,447 of 11,204,889 = 4.6%]",
        v4_reached,
        v4_total,
        100.0 * v4_reached as f64 / v4_total.max(1) as f64
    )
    .unwrap();
    writeln!(
        s,
        "IPv6 targets reached : {} of {} ({:.1}%)   [paper: 49,008 of 784,777 = 6.2%]",
        v6_reached,
        v6_total,
        100.0 * v6_reached as f64 / v6_total.max(1) as f64
    )
    .unwrap();
    writeln!(
        s,
        "IPv4 ASes lacking DSAV: {} of {} ({:.1}%)  [paper: 26,206 of 53,922 = 49%]",
        v4_asns_reached.len(),
        v4_asns.len(),
        100.0 * v4_asns_reached.len() as f64 / v4_asns.len().max(1) as f64
    )
    .unwrap();
    writeln!(
        s,
        "IPv6 ASes lacking DSAV: {} of {} ({:.1}%)  [paper: 3,952 of 7,904 = 50%]",
        v6_asns_reached.len(),
        v6_asns.len(),
        100.0 * v6_asns_reached.len() as f64 / v6_asns.len().max(1) as f64
    )
    .unwrap();
    s
}

/// Table 1: top countries by AS count.
pub fn render_table1(report: &CountryReport, top: usize) -> String {
    render_country_table(
        &format!("Table 1: DSAV results, top {top} countries by AS count"),
        &report.table1(top),
    )
}

/// Table 2: top countries by IP reachability.
pub fn render_table2(report: &CountryReport, top: usize) -> String {
    render_country_table(
        &format!("Table 2: DSAV results, top {top} countries by reachable-IP percentage"),
        &report.table2(top),
    )
}

/// Tables 1 and 2 share their columns; only the title and the row order
/// differ.
fn render_country_table(title: &str, rows: &[(Country, &CountryRow)]) -> String {
    let mut s = String::new();
    writeln!(s, "== {title} ==").unwrap();
    writeln!(
        s,
        "{:<22} {:>8} {:>18} {:>10} {:>18}",
        "Country", "ASes", "Reachable", "IPs", "Reachable"
    )
    .unwrap();
    for (country, row) in rows {
        writeln!(
            s,
            "{:<22} {:>8} {:>18} {:>10} {:>18}",
            country.name(),
            row.ases_total.len(),
            pct(row.ases_reachable.len(), row.ases_total.len()),
            row.targets_total,
            pct(row.targets_reachable, row.targets_total),
        )
        .unwrap();
    }
    s
}

/// Table 3: source-category effectiveness.
pub fn render_table3(report: &CategoryReport) -> String {
    let mut s = String::new();
    writeln!(s, "== Table 3: spoofed-source category effectiveness ==").unwrap();
    writeln!(
        s,
        "{:<14} | {:>10} {:>8} {:>10} {:>8} | {:>10} {:>8} {:>10} {:>8}",
        "", "v4 incl", "v4 ASN", "v6 incl", "v6 ASN", "v4 excl", "v4 ASN", "v6 excl", "v6 ASN"
    )
    .unwrap();
    writeln!(
        s,
        "{:<14} | {:>10} {:>8} {:>10} {:>8} |",
        "All Reachable",
        report.reached_addrs_v4,
        report.reached_asns_v4,
        report.reached_addrs_v6,
        report.reached_asns_v6
    )
    .unwrap();
    for cat in SourceCategory::ALL {
        let r4 = report.row(false, cat);
        let r6 = report.row(true, cat);
        writeln!(
            s,
            "{:<14} | {:>10} {:>8} {:>10} {:>8} | {:>10} {:>8} {:>10} {:>8}",
            cat.to_string(),
            r4.inclusive_addrs,
            r4.inclusive_asns,
            r6.inclusive_addrs,
            r6.inclusive_asns,
            r4.exclusive_addrs,
            r4.exclusive_asns,
            r6.exclusive_addrs,
            r6.exclusive_asns,
        )
        .unwrap();
    }
    writeln!(
        s,
        "median working sources: v4 {} (paper 3), v6 {} (paper 2); >50 sources: v4 {:.0}% (paper 16%), v6 {:.0}% (paper 9%)",
        report.median_sources_v4,
        report.median_sources_v6,
        100.0 * report.many_sources_v4,
        100.0 * report.many_sources_v6
    )
    .unwrap();
    s
}

/// Table 4: port-range bands with open/closed and p0f columns.
pub fn render_table4(report: &PortReport) -> String {
    let mut s = String::new();
    writeln!(s, "== Table 4: reachable targets by source-port range ==").unwrap();
    writeln!(
        s,
        "{:<32} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "Range (OS)", "Total", "Open", "Closed", "p0f Win", "p0f Lin"
    )
    .unwrap();
    for band in &report.bands {
        let label = if band.label.is_empty() {
            format!("{}-{}", band.lo, band.hi)
        } else {
            format!("{}-{} ({})", band.lo, band.hi, band.label)
        };
        writeln!(
            s,
            "{:<32} {:>8} {:>8} {:>8} {:>8} {:>8}",
            label, band.total, band.open, band.closed, band.p0f_windows, band.p0f_linux
        )
        .unwrap();
    }
    writeln!(
        s,
        "zero-range: {} resolvers ({} open / {} closed), port 53 = {}, 32768 = {}, 32769 = {}; {} ASes, {} with a closed instance",
        report.zero.count,
        report.zero.open,
        report.zero.closed,
        report.zero.port53,
        report.zero.port32768,
        report.zero.port32769,
        report.zero.asns.len(),
        report.zero.asns_with_closed.len(),
    )
    .unwrap();
    writeln!(
        s,
        "1-200 range: {} resolvers, {} strictly increasing ({} wrapped), {} with <=7 unique ports",
        report.low.count, report.low.strictly_increasing, report.low.wrapped, report.low.few_unique
    )
    .unwrap();
    writeln!(
        s,
        "derived cutoffs: windows {}..{}, freebsd-lo {}, freebsd/linux {}, linux/full {}  [paper: 941..2488, 6125, 16331, 28222]",
        report.cutoffs.windows_lo,
        report.cutoffs.windows_hi,
        report.cutoffs.freebsd_lo,
        report.cutoffs.freebsd_linux,
        report.cutoffs.linux_full
    )
    .unwrap();
    s
}

/// Table 5: lab port-allocation behaviours.
pub fn render_table5(results: &[LabPortResult]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "== Table 5: default source-port allocation by DNS software =="
    )
    .unwrap();
    writeln!(
        s,
        "{:<48} {:>8} {:>8} {:>8} | expected default",
        "Software", "queries", "unique", "span"
    )
    .unwrap();
    for r in results {
        writeln!(
            s,
            "{:<48} {:>8} {:>8} {:>8} | {}",
            r.software.to_string(),
            r.ports.len(),
            r.unique,
            r.span(),
            r.software.pool_description()
        )
        .unwrap();
    }
    s
}

/// Table 6: OS acceptance matrix.
pub fn render_table6(rows: &[StackRow]) -> String {
    let mut s = String::new();
    writeln!(s, "== Table 6: OS acceptance of spoofed-source packets ==").unwrap();
    writeln!(
        s,
        "{:<28} {:>7} {:>7} {:>7} {:>7}",
        "OS", "DS v4", "LB v4", "DS v6", "LB v6"
    )
    .unwrap();
    let dot = |b: bool| if b { "yes" } else { "-" };
    for r in rows {
        writeln!(
            s,
            "{:<28} {:>7} {:>7} {:>7} {:>7}",
            r.os.to_string(),
            dot(r.ds_v4),
            dot(r.lb_v4),
            dot(r.ds_v6),
            dot(r.lb_v6)
        )
        .unwrap();
    }
    s
}

/// Figure 2: stacked (open/closed) histograms of port ranges, full scale
/// and the 0–3,000 zoom.
pub fn render_figure2(report: &PortReport) -> String {
    let mut full = StackedHistogram::new(2_048);
    let mut zoom = StackedHistogram::new(100);
    for (range, open, _) in report.figure_points() {
        let cat = if open { "open" } else { "closed" };
        full.add(range, cat);
        if range <= 3_000 {
            zoom.add(range, cat);
        }
    }
    let mut s = String::new();
    writeln!(
        s,
        "== Figure 2: source-port range distribution (open/closed) =="
    )
    .unwrap();
    writeln!(s, "-- full scale (bin 2048) --").unwrap();
    s.push_str(&full.render(40));
    writeln!(s, "-- zoom 0..3000 (bin 100) --").unwrap();
    s.push_str(&zoom.render(40));
    s
}

/// Figure 3a: lab sample ranges with the Beta(9,2) model peaks.
pub fn render_figure3a(samples: &[(&'static str, u32, Vec<u32>)]) -> String {
    let beta = Beta::range_model(10);
    let mut s = String::new();
    writeln!(
        s,
        "== Figure 3a: lab 10-query sample ranges vs Beta(9,2) model =="
    )
    .unwrap();
    for (label, pool, ranges) in samples {
        let mut hist = StackedHistogram::new(2_048);
        for &r in ranges {
            hist.add(r, label);
        }
        let mean = ranges.iter().map(|&r| r as f64).sum::<f64>() / ranges.len().max(1) as f64;
        let model_mean = beta.mean() * *pool as f64;
        let model_mode = beta.mode() * *pool as f64;
        writeln!(
            s,
            "-- {label} (pool {pool}): {} samples, mean {mean:.0} (model mean {model_mean:.0}, mode {model_mode:.0}) --",
            ranges.len()
        )
        .unwrap();
        s.push_str(&hist.render(40));
    }
    s
}

/// Figure 3b: field ranges stacked by p0f class, with Beta model peaks.
pub fn render_figure3b(report: &PortReport) -> String {
    let beta = Beta::range_model(10);
    let mut full = StackedHistogram::new(2_048);
    let mut zoom = StackedHistogram::new(100);
    for (range, _, p0f) in report.figure_points() {
        let cat: &'static str = match p0f {
            bcd_osmodel::P0fClass::Windows => "win",
            bcd_osmodel::P0fClass::Linux => "lin",
            bcd_osmodel::P0fClass::FreeBsd => "bsd",
            bcd_osmodel::P0fClass::BaiduSpider => "baidu",
            bcd_osmodel::P0fClass::Unknown => "unk",
        };
        full.add(range, cat);
        if range <= 3_000 {
            zoom.add(range, cat);
        }
    }
    let mut s = String::new();
    writeln!(
        s,
        "== Figure 3b: field port ranges by p0f class, Beta(9,2) peaks =="
    )
    .unwrap();
    for (label, pool) in [
        ("Windows DNS", 2_500u32),
        ("FreeBSD", 16_383),
        ("Linux", 28_232),
        ("Full Port Range", 64_511),
    ] {
        writeln!(
            s,
            "model peak for {label}: range ~{:.0} (pool {pool})",
            beta.mode() * pool as f64
        )
        .unwrap();
    }
    writeln!(s, "-- full scale (bin 2048) --").unwrap();
    s.push_str(&full.render(40));
    writeln!(s, "-- zoom 0..3000 (bin 100) --").unwrap();
    s.push_str(&zoom.render(40));
    s
}

/// §5.1 open/closed summary.
pub fn render_openclosed(report: &OpenClosedReport) -> String {
    let mut s = String::new();
    writeln!(s, "== §5.1: open vs closed resolvers ==").unwrap();
    writeln!(
        s,
        "closed: {}  open: {}  (open fraction {:.0}%; paper: 60%/40%)",
        report.closed.len(),
        report.open.len(),
        100.0 * report.open_fraction()
    )
    .unwrap();
    writeln!(
        s,
        "reachable ASes with >=1 closed resolver: {} of {} ({:.0}%; paper: 88%)",
        report.asns_with_closed.len(),
        report.reached_asns.len(),
        100.0 * report.closed_as_fraction()
    )
    .unwrap();
    s
}

/// §5.4 forwarding summary.
pub fn render_forwarding(report: &ForwardingReport) -> String {
    let mut s = String::new();
    writeln!(s, "== §5.4: direct vs forwarding resolvers ==").unwrap();
    writeln!(
        s,
        "IPv4: {} resolved; direct {} ({:.0}%), forwarded {} ({:.0}%), both {}  [paper: 53% direct]",
        report.resolved_v4(),
        report.direct_v4.len(),
        100.0 * report.direct_fraction_v4(),
        report.forwarded_v4.len(),
        100.0 * report.forwarded_v4.len() as f64 / report.resolved_v4().max(1) as f64,
        report.both_v4
    )
    .unwrap();
    writeln!(
        s,
        "IPv6: {} resolved; direct {} ({:.0}%), forwarded {} ({:.0}%), both {}  [paper: 85% direct]",
        report.resolved_v6(),
        report.direct_v6.len(),
        100.0 * report.direct_fraction_v6(),
        report.forwarded_v6.len(),
        100.0 * report.forwarded_v6.len() as f64 / report.resolved_v6().max(1) as f64,
        report.both_v6
    )
    .unwrap();
    s
}

/// §5.5 local infiltration summary.
pub fn render_local(report: &LocalInfiltrationReport) -> String {
    let mut s = String::new();
    writeln!(s, "== §5.5: local-system infiltration ==").unwrap();
    writeln!(
        s,
        "destination-as-source hits: {} (v4 {}, v6 {})  [paper: 123,592 total]",
        report.dst_as_src_total(),
        report.dst_as_src_v4.len(),
        report.dst_as_src_v6.len()
    )
    .unwrap();
    writeln!(
        s,
        "loopback hits: {} (v4 {}, v6 {})  [paper: 107 total — 1 v4, 106 v6]",
        report.loopback_total(),
        report.loopback_v4.len(),
        report.loopback_v6.len()
    )
    .unwrap();
    s
}

/// Cross-method validation: the AS-level agreement matrix between the
/// outbound survey and the inbound CRP scan, scored against the
/// generator's ground-truth SAV registry. Deterministic: sets are
/// `BTreeSet`s and only counts plus the first few ASN exemplars render.
pub fn render_agreement(m: &crate::analysis::agreement::AgreementMatrix) -> String {
    fn exemplars(set: &std::collections::BTreeSet<bcd_netsim::Asn>) -> String {
        if set.is_empty() {
            return String::new();
        }
        let head: Vec<String> = set.iter().take(5).map(|a| format!("AS{}", a.0)).collect();
        let more = if set.len() > 5 { ", ..." } else { "" };
        format!("  e.g. {}{}", head.join(", "), more)
    }
    let mut s = String::new();
    writeln!(
        s,
        "== cross-method validation: outbound survey vs inbound CRP scan =="
    )
    .unwrap();
    writeln!(
        s,
        "universe: {} ASes with >=1 scheduled target; agreement {:.1}%",
        m.universe,
        100.0 * m.agreement_rate()
    )
    .unwrap();
    for (label, set) in [
        ("agree-open   (both methods open)", &m.agree_open),
        ("agree-closed (both methods closed)", &m.agree_closed),
        ("method-A-only (outbound only)", &m.a_only),
        ("method-B-only (inbound only)", &m.b_only),
    ] {
        writeln!(s, "  {label:<36} {:>6}{}", set.len(), exemplars(set)).unwrap();
    }
    writeln!(s, "vs ground truth:").unwrap();
    for (label, set) in [
        ("false-open A", &m.false_open_a),
        ("false-closed A", &m.false_closed_a),
        ("false-open B", &m.false_open_b),
        ("false-closed B", &m.false_closed_b),
    ] {
        writeln!(s, "  {label:<36} {:>6}{}", set.len(), exemplars(set)).unwrap();
    }
    writeln!(
        s,
        "oracle match: {}",
        if m.is_exact() { "exact" } else { "divergent" }
    )
    .unwrap();
    s
}

/// §3.6 methodology summaries (lifetime, qmin, middlebox).
pub fn render_methodology(
    reach: &Reachability,
    qmin: &QminReport,
    middlebox: &MiddleboxReport,
) -> String {
    let mut s = String::new();
    writeln!(s, "== §3.6.3: lifetime (human-intervention) filter ==").unwrap();
    writeln!(
        s,
        "late entries discarded: {}; late-only targets: v4 {}, v6 {}; late-only ASes {} (rescued by on-time resolvers: {})",
        reach.lifetime.late_entries,
        reach.lifetime.excluded_addrs_v4,
        reach.lifetime.excluded_addrs_v6,
        reach.lifetime.excluded_asns.len(),
        reach.lifetime.rescued_asns.len(),
    )
    .unwrap();
    writeln!(s, "== §3.6.4: QNAME minimization ==").unwrap();
    writeln!(
        s,
        "qmin sources: {}; excluded (never sent full QNAME): {}; qmin ASNs {} of which still detected {} ({:.0}%; paper 98%)",
        qmin.qmin_sources,
        qmin.excluded_sources,
        qmin.qmin_asns.len(),
        qmin.asns_still_detected.len(),
        100.0 * qmin.detection_fraction()
    )
    .unwrap();
    writeln!(s, "== §3.6.1: middlebox attribution ==").unwrap();
    let total = middlebox.direct_asns.len()
        + middlebox.public_dns_only_asns.len()
        + middlebox.other_only_asns.len();
    writeln!(
        s,
        "reached ASes with direct in-AS source: {} of {} ({:.0}%; paper 86% v4); public-DNS-only: {}; other-only: {}",
        middlebox.direct_asns.len(),
        total,
        100.0 * middlebox.direct_asns.len() as f64 / total.max(1) as f64,
        middlebox.public_dns_only_asns.len(),
        middlebox.other_only_asns.len()
    )
    .unwrap();
    s
}

/// §5.2.2 passive comparison summary.
pub fn render_passive(report: &PassiveReport) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "== §5.2.2: passive (2018 DITL) comparison of zero-range resolvers =="
    )
    .unwrap();
    let t = report.total().max(1);
    writeln!(
        s,
        "fixed then: {} ({:.0}%; paper 51%)  varied then (regressed): {} ({:.0}%; paper 25%)  insufficient: {} ({:.0}%; paper 24%)",
        report.fixed_then,
        100.0 * report.fixed_then as f64 / t as f64,
        report.varied_then,
        100.0 * report.varied_then as f64 / t as f64,
        report.insufficient,
        100.0 * report.insufficient as f64 / t as f64,
    )
    .unwrap();
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_section_renders_none() {
        let report = PaperReport::lab_only(10, 1);
        assert_eq!(report.render("nosuch"), None);
        assert_eq!(report.render("Table3"), None);
        assert_eq!(report.render(""), None);
    }

    #[test]
    fn lab_sections_render_without_a_survey() {
        let report = PaperReport::lab_only(20, 1);
        for name in SECTIONS.into_iter().filter(|s| is_lab_section(s)) {
            assert!(report.render(name).is_some(), "{name}");
        }
    }
}
