//! Hand-constructed unit tests for the analysis layer: synthetic
//! authoritative logs with exactly-known contents, so each analysis rule
//! (lifetime filter, category exclusivity, band assignment, family
//! matching, passive outcomes…) is pinned down independent of the
//! simulator.

use bcd_core::analysis::categories::CategoryReport;
use bcd_core::analysis::country::CountryReport;
use bcd_core::analysis::forwarding::ForwardingReport;
use bcd_core::analysis::openclosed::OpenClosedReport;
use bcd_core::analysis::passive::PassiveReport;
use bcd_core::analysis::ports::PortReport;
use bcd_core::analysis::reachability::Reachability;
use bcd_core::analysis::AnalysisInput;
use bcd_core::qname::{QnameCodec, SuffixKind};
use bcd_core::sources::SourceCategory;
use bcd_core::targets::{Target, TargetSet};
use bcd_dns::log::{QueryLog, QueryLogEntry};
use bcd_dns::LogProto;
use bcd_geo::{Country, GeoDb};
use bcd_netsim::{Asn, Prefix, PrefixTable, SimTime};
use bcd_worldgen::DitlRecord;
use std::net::IpAddr;

const SCANNER_V4: &str = "9.9.0.10";
const SCANNER_V6: &str = "2600:9::10";

struct Fixture {
    codec: QnameCodec,
    routes: PrefixTable,
    geo: GeoDb,
    targets: TargetSet,
    log: QueryLog,
}

impl Fixture {
    fn new() -> Fixture {
        let mut routes = PrefixTable::new();
        // AS 100: two /24s (US). AS 200: one /24 (BR). AS 300: v6 (US).
        routes.announce("17.1.1.0/24".parse::<Prefix>().unwrap(), Asn(100));
        routes.announce("17.1.2.0/24".parse::<Prefix>().unwrap(), Asn(100));
        routes.announce("18.5.5.0/24".parse::<Prefix>().unwrap(), Asn(200));
        routes.announce("2600:100::/64".parse::<Prefix>().unwrap(), Asn(300));
        let mut geo = GeoDb::new();
        geo.insert("17.1.1.0/24".parse().unwrap(), Asn(100), Country("US"));
        geo.insert("17.1.2.0/24".parse().unwrap(), Asn(100), Country("US"));
        geo.insert("18.5.5.0/24".parse().unwrap(), Asn(200), Country("BR"));
        geo.insert("2600:100::/64".parse().unwrap(), Asn(300), Country("US"));

        let mut targets = TargetSet::default();
        for (addr, asn) in [
            ("17.1.1.53", 100u32),
            ("17.1.2.53", 100),
            ("18.5.5.53", 200),
        ] {
            targets.v4.push(Target {
                addr: addr.parse().unwrap(),
                asn: Asn(asn),
            });
        }
        targets.v6.push(Target {
            addr: "2600:100::53".parse().unwrap(),
            asn: Asn(300),
        });

        Fixture {
            codec: QnameCodec::new(&"dns-lab.org".parse().unwrap(), "x7"),
            routes,
            geo,
            targets,
            log: QueryLog::new(),
        }
    }

    /// Log a recursive-to-authoritative query: probe sent at `sent_s`,
    /// observed at `seen_s`, spoofed `src`, target `dst`, arriving from
    /// `from` at server `server`.
    #[allow(clippy::too_many_arguments)]
    fn entry(
        &mut self,
        sent_s: u64,
        seen_s: u64,
        src: &str,
        dst: &str,
        asn: u32,
        from: &str,
        suffix: SuffixKind,
        src_port: u16,
        server: &str,
    ) {
        let qname = self.codec.encode(
            SimTime::from_secs(sent_s),
            src.parse().unwrap(),
            dst.parse().unwrap(),
            asn,
            suffix,
        );
        self.log.push(QueryLogEntry {
            time: SimTime::from_secs(seen_s),
            src: from.parse().unwrap(),
            server: server.parse().unwrap(),
            src_port,
            qname,
            proto: LogProto::Udp,
            observed_ttl: 52,
            syn: None,
        });
    }

    fn input(&self) -> AnalysisInput<'_> {
        AnalysisInput {
            log: self.log.entries(),
            codec: &self.codec,
            targets: &self.targets,
            routes: &self.routes,
            geo: &self.geo,
            scanner_v4: SCANNER_V4.parse().unwrap(),
            scanner_v6: SCANNER_V6.parse().unwrap(),
            public_dns: &[],
        }
    }
}

#[test]
fn lifetime_filter_excludes_late_only_targets() {
    let mut fx = Fixture::new();
    // Target 1: on-time hit (lifetime 2 s).
    fx.entry(
        100,
        102,
        "17.1.2.9",
        "17.1.1.53",
        100,
        "17.1.1.53",
        SuffixKind::Main,
        40_000,
        "5.5.5.5",
    );
    // Target 2: only a late hit (lifetime 7200 s) — human intervention.
    fx.entry(
        100,
        7_300,
        "18.5.5.9",
        "18.5.5.53",
        200,
        "18.5.5.199",
        SuffixKind::Main,
        40_001,
        "5.5.5.5",
    );
    let input = fx.input();
    let reach = Reachability::compute(&input);
    assert_eq!(reach.reached.len(), 1);
    assert!(reach
        .reached
        .contains_key(&"17.1.1.53".parse::<IpAddr>().unwrap()));
    assert_eq!(reach.lifetime.late_entries, 1);
    assert_eq!(reach.lifetime.excluded_addrs_v4, 1);
    assert_eq!(reach.lifetime.excluded_asns.len(), 1);
    assert!(reach.lifetime.rescued_asns.is_empty());
}

#[test]
fn late_target_is_rescued_if_its_as_has_on_time_evidence() {
    let mut fx = Fixture::new();
    fx.entry(
        100,
        101,
        "17.1.2.9",
        "17.1.1.53",
        100,
        "17.1.1.53",
        SuffixKind::Main,
        1,
        "5.5.5.5",
    );
    fx.entry(
        100,
        9_000,
        "17.1.1.9",
        "17.1.2.53",
        100,
        "17.1.2.53",
        SuffixKind::Main,
        2,
        "5.5.5.5",
    );
    let reach = Reachability::compute(&fx.input());
    assert_eq!(reach.lifetime.excluded_addrs_v4, 1);
    assert_eq!(
        reach.lifetime.rescued_asns.len(),
        1,
        "AS 100 has on-time evidence"
    );
}

#[test]
fn exactly_at_threshold_is_kept() {
    let mut fx = Fixture::new();
    // Lifetime exactly 10 s: "a lifetime of 10 seconds or less" is kept.
    fx.entry(
        100,
        110,
        "17.1.2.9",
        "17.1.1.53",
        100,
        "17.1.1.53",
        SuffixKind::Main,
        1,
        "5.5.5.5",
    );
    let reach = Reachability::compute(&fx.input());
    assert_eq!(reach.reached.len(), 1);
}

#[test]
fn category_classification_from_recovered_labels() {
    let mut fx = Fixture::new();
    let dst = "17.1.1.53";
    for (src, _) in [
        ("17.1.2.77", SourceCategory::OtherPrefix),
        ("17.1.1.9", SourceCategory::SamePrefix),
        ("192.168.0.10", SourceCategory::Private),
        (dst, SourceCategory::DstAsSrc),
        ("127.0.0.1", SourceCategory::Loopback),
    ] {
        fx.entry(100, 101, src, dst, 100, dst, SuffixKind::Main, 1, "5.5.5.5");
    }
    let reach = Reachability::compute(&fx.input());
    let hit = &reach.reached[&dst.parse::<IpAddr>().unwrap()];
    assert_eq!(hit.categories.len(), 5);
    let cats = CategoryReport::compute(&reach);
    for cat in SourceCategory::ALL {
        assert_eq!(cats.row(false, cat).inclusive_addrs, 1, "{cat}");
        // With all five categories present, nothing is exclusive.
        assert_eq!(cats.row(false, cat).exclusive_addrs, 0, "{cat}");
    }
}

#[test]
fn exclusive_category_counting() {
    let mut fx = Fixture::new();
    // Target 1 reached only by other-prefix; target 2 by two categories.
    fx.entry(
        100,
        101,
        "17.1.2.77",
        "17.1.1.53",
        100,
        "17.1.1.53",
        SuffixKind::Main,
        1,
        "5.5.5.5",
    );
    fx.entry(
        100,
        101,
        "18.5.5.9",
        "18.5.5.53",
        200,
        "18.5.5.53",
        SuffixKind::Main,
        1,
        "5.5.5.5",
    );
    fx.entry(
        100,
        101,
        "18.5.5.53",
        "18.5.5.53",
        200,
        "18.5.5.53",
        SuffixKind::Main,
        1,
        "5.5.5.5",
    );
    let reach = Reachability::compute(&fx.input());
    let cats = CategoryReport::compute(&reach);
    let op = cats.row(false, SourceCategory::OtherPrefix);
    assert_eq!(op.inclusive_addrs, 1);
    assert_eq!(op.exclusive_addrs, 1);
    assert_eq!(
        op.exclusive_asns, 1,
        "AS 100 was only reached via other-prefix"
    );
    let sp = cats.row(false, SourceCategory::SamePrefix);
    assert_eq!(sp.inclusive_addrs, 1);
    assert_eq!(sp.exclusive_addrs, 0, "target 2 also had dst-as-src");
    assert_eq!(sp.exclusive_asns, 0);
}

#[test]
fn open_probe_evidence_classifies_open_and_closed() {
    let mut fx = Fixture::new();
    // Both targets reached via spoof; only target 1 answers the scanner's
    // real-source probe.
    fx.entry(
        100,
        101,
        "17.1.2.9",
        "17.1.1.53",
        100,
        "17.1.1.53",
        SuffixKind::Main,
        1,
        "5.5.5.5",
    );
    fx.entry(
        100,
        101,
        "18.5.5.9",
        "18.5.5.53",
        200,
        "18.5.5.53",
        SuffixKind::Main,
        1,
        "5.5.5.5",
    );
    fx.entry(
        200,
        201,
        SCANNER_V4,
        "17.1.1.53",
        100,
        "17.1.1.53",
        SuffixKind::Main,
        2,
        "5.5.5.5",
    );
    let input = fx.input();
    let reach = Reachability::compute(&input);
    // The scanner-source probe is not reachability evidence.
    assert_eq!(reach.reached.len(), 2);
    let oc = OpenClosedReport::compute(&input, &reach);
    assert!(oc.is_open("17.1.1.53".parse().unwrap()));
    assert!(!oc.is_open("18.5.5.53".parse().unwrap()));
    assert_eq!(oc.open.len(), 1);
    assert_eq!(oc.closed.len(), 1);
    assert_eq!(oc.asns_with_closed.len(), 1);
    assert!((oc.open_fraction() - 0.5).abs() < 1e-9);
}

#[test]
fn port_report_requires_ten_direct_samples() {
    let mut fx = Fixture::new();
    let dst = "17.1.1.53";
    // 10 direct F4 follow-ups with a fixed port.
    for i in 0..10 {
        fx.entry(
            100 + i,
            101 + i,
            "17.1.2.9",
            dst,
            100,
            dst,
            SuffixKind::F4,
            53,
            "5.5.5.5",
        );
    }
    // A second target with only 9 samples: insufficient.
    for i in 0..9 {
        fx.entry(
            100 + i,
            101 + i,
            "18.5.5.9",
            "18.5.5.53",
            200,
            "18.5.5.53",
            SuffixKind::F4,
            1000 + i as u16,
            "5.5.5.5",
        );
    }
    // A forwarded target: samples from an upstream (ignored entirely).
    for i in 0..10 {
        fx.entry(
            100 + i,
            101 + i,
            "17.1.1.9",
            "17.1.2.53",
            100,
            "17.1.2.99",
            SuffixKind::F4,
            2000,
            "5.5.5.5",
        );
    }
    let input = fx.input();
    let reach = Reachability::compute(&input);
    let oc = OpenClosedReport::compute(&input, &reach);
    let ports = PortReport::compute(&input, &oc);
    assert_eq!(ports.observations.len(), 1);
    assert_eq!(ports.insufficient, 1);
    assert_eq!(ports.zero.count, 1);
    assert_eq!(ports.zero.port53, 1);
    assert_eq!(ports.observations[0].range, 0);
}

#[test]
fn forwarding_family_attribution() {
    let mut fx = Fixture::new();
    let v6dst = "2600:100::53";
    // v6 target answers its F6 follow-ups directly over v6...
    fx.entry(
        100,
        101,
        "2600:100::9",
        v6dst,
        300,
        v6dst,
        SuffixKind::F6,
        1,
        "2600:5::5",
    );
    // ...and its F4 follow-ups from a v4 side-address (dual-stack, NOT
    // forwarding) — must be ignored by family matching.
    fx.entry(
        100,
        101,
        "2600:100::9",
        v6dst,
        300,
        "17.1.1.40",
        SuffixKind::F4,
        2,
        "5.5.5.5",
    );
    // A genuine v4 forwarder: F4 resolved by an upstream.
    fx.entry(
        100,
        101,
        "18.5.5.9",
        "18.5.5.53",
        200,
        "18.5.5.250",
        SuffixKind::F4,
        3,
        "5.5.5.5",
    );
    let fwd = ForwardingReport::compute(&fx.input());
    assert_eq!(fwd.direct_v6.len(), 1);
    assert_eq!(
        fwd.forwarded_v6.len(),
        0,
        "dual-stack must not look forwarded"
    );
    assert_eq!(fwd.forwarded_v4.len(), 1);
    assert_eq!(fwd.both_v4 + fwd.both_v6, 0);
    assert!(fwd
        .upstreams
        .contains(&"18.5.5.250".parse::<IpAddr>().unwrap()));
}

#[test]
fn country_report_aggregates_and_orders() {
    let mut fx = Fixture::new();
    // Reach one AS-100 target (US) and the AS-200 target (BR).
    fx.entry(
        100,
        101,
        "17.1.2.9",
        "17.1.1.53",
        100,
        "17.1.1.53",
        SuffixKind::Main,
        1,
        "5.5.5.5",
    );
    fx.entry(
        100,
        101,
        "18.5.5.9",
        "18.5.5.53",
        200,
        "18.5.5.53",
        SuffixKind::Main,
        1,
        "5.5.5.5",
    );
    let input = fx.input();
    let reach = Reachability::compute(&input);
    let report = CountryReport::compute(&input, &reach);
    let us = &report.rows[&Country("US")];
    assert_eq!(us.ases_total.len(), 2); // AS 100 (v4) + AS 300 (v6)
    assert_eq!(us.ases_reachable.len(), 1);
    assert_eq!(us.targets_total, 3); // two v4 + one v6 target
    assert_eq!(us.targets_reachable, 1);
    let br = &report.rows[&Country("BR")];
    assert_eq!(br.targets_total, 1);
    assert_eq!(br.targets_reachable, 1);
    assert!((br.ip_pct() - 100.0).abs() < 1e-9);
    // Table 1 ordering: US first (most ASes); Table 2: BR first (100%).
    assert_eq!(report.table1(2)[0].0, Country("US"));
    assert_eq!(report.table2(2)[0].0, Country("BR"));
}

#[test]
fn passive_outcomes_match_2018_trace_contents() {
    let mut fx = Fixture::new();
    // Three zero-range resolvers.
    for (dst, asn, from) in [
        ("17.1.1.53", 100u32, "17.1.1.53"),
        ("17.1.2.53", 100, "17.1.2.53"),
        ("18.5.5.53", 200, "18.5.5.53"),
    ] {
        for i in 0..10 {
            fx.entry(
                100 + i,
                101 + i,
                "192.168.0.10",
                dst,
                asn,
                from,
                SuffixKind::F4,
                53,
                "5.5.5.5",
            );
        }
    }
    let input = fx.input();
    let reach = Reachability::compute(&input);
    let oc = OpenClosedReport::compute(&input, &reach);
    let ports = PortReport::compute(&input, &oc);
    assert_eq!(ports.zero.count, 3);

    let rec = |src: &str, port: u16, q: &str| DitlRecord {
        time: SimTime::ZERO,
        src: src.parse().unwrap(),
        src_port: port,
        qname: q.parse().unwrap(),
    };
    let mut trace = Vec::new();
    // Resolver 1: ≥10 unique names, all port 53 → FixedThen.
    for i in 0..10 {
        trace.push(rec("17.1.1.53", 53, &format!("q{i}.example.com")));
    }
    // Resolver 2: ≥10 unique names, varied ports → VariedThen.
    for i in 0..10 {
        trace.push(rec("17.1.2.53", 2000 + i, &format!("q{i}.example.net")));
    }
    // Resolver 3: two queries, ports not matching 53 → Insufficient.
    trace.push(rec("18.5.5.53", 1111, "a.example.org"));
    trace.push(rec("18.5.5.53", 2222, "b.example.org"));

    let passive = PassiveReport::compute(&ports, &trace);
    assert_eq!(passive.fixed_then, 1);
    assert_eq!(passive.varied_then, 1);
    assert_eq!(passive.insufficient, 1);
    assert_eq!(passive.total(), 3);
}

#[test]
fn single_matching_port_makes_sparse_2018_data_comparable() {
    let mut fx = Fixture::new();
    let dst = "17.1.1.53";
    for i in 0..10 {
        fx.entry(
            100 + i,
            101 + i,
            "17.1.2.9",
            dst,
            100,
            dst,
            SuffixKind::F4,
            4242,
            "5.5.5.5",
        );
    }
    let input = fx.input();
    let reach = Reachability::compute(&input);
    let oc = OpenClosedReport::compute(&input, &reach);
    let ports = PortReport::compute(&input, &oc);
    // One 2018 query, but it uses exactly the port seen actively: the
    // paper's second comparability criterion.
    let trace = vec![DitlRecord {
        time: SimTime::ZERO,
        src: dst.parse().unwrap(),
        src_port: 4242,
        qname: "only.example.com".parse().unwrap(),
    }];
    let passive = PassiveReport::compute(&ports, &trace);
    assert_eq!(passive.fixed_then, 1);
    assert_eq!(passive.insufficient, 0);
}

#[test]
fn qmin_partial_entries_are_tracked_by_source() {
    let mut fx = Fixture::new();
    // A minimized query: just kw.dns-lab.org from a resolver in AS 100.
    fx.log.push(QueryLogEntry {
        time: SimTime::from_secs(5),
        src: "17.1.1.53".parse().unwrap(),
        server: "5.5.5.5".parse().unwrap(),
        src_port: 999,
        qname: "x7.dns-lab.org".parse().unwrap(),
        proto: LogProto::Udp,
        observed_ttl: 50,
        syn: None,
    });
    let reach = Reachability::compute(&fx.input());
    assert!(reach.reached.is_empty());
    assert_eq!(reach.qmin.partial_sources.len(), 1);
    assert_eq!(reach.qmin.partial_only_sources.len(), 1);
    assert!(reach.qmin.partial_asns.contains(&Asn(100)));
}
