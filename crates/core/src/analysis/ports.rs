//! Source-port randomization and OS identification — §5.2, §5.3.2–5.3.3,
//! Table 4, Figures 2, 3b.
//!
//! Only resolvers that contacted the authoritative servers **directly**
//! (query source equals the `dst` label) are analyzed, so the ports belong
//! to the target system and not to an upstream forwarder (§5.2). The range
//! of the 10 follow-up source ports is the classifier input; pool-specific
//! bands (computed from the exact range distribution, matching the paper's
//! Beta(9,2) model) attribute resolvers to OS port pools.

use crate::analysis::openclosed::OpenClosedReport;
use crate::analysis::AnalysisInput;
use crate::qname::{Decoded, SuffixKind};
use bcd_dns::LogProto;
use bcd_netsim::{Asn, SimTime};
use bcd_osmodel::ports::{IANA_HI, IANA_LO, WINDOWS_POOL_SIZE};
use bcd_osmodel::{P0fClass, P0fClassifier};
use bcd_stats::cutoff::{accuracy_cutoff, lower_accuracy_cutoff};
use bcd_stats::{optimal_cutoff, RangeDistribution};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::IpAddr;

/// Follow-up queries per family (fixed by the methodology).
pub const SAMPLE_SIZE: usize = 10;

/// One analyzed resolver.
#[derive(Debug, Clone)]
pub struct PortObservation {
    pub addr: IpAddr,
    pub asn: Asn,
    /// The first [`SAMPLE_SIZE`] direct follow-up source ports, arrival
    /// order.
    pub ports: Vec<u16>,
    /// Range after the Windows wrap adjustment (if applied).
    pub range: u32,
    /// Raw max−min range.
    pub raw_range: u32,
    /// The §5.3.2 wrap adjustment fired.
    pub adjusted: bool,
    pub open: bool,
    pub p0f: P0fClass,
}

/// §5.2.1 zero-range census.
#[derive(Debug, Default)]
pub struct ZeroRangeReport {
    pub count: usize,
    pub open: usize,
    pub closed: usize,
    pub port53: usize,
    pub port32768: usize,
    pub port32769: usize,
    pub asns: BTreeSet<Asn>,
    /// ASes (of the above) that host at least one *closed* zero-range
    /// resolver — where DSAV would actually reduce the attack surface.
    pub asns_with_closed: BTreeSet<Asn>,
}

/// §5.2.3 low-range (1–200) analysis.
#[derive(Debug, Default)]
pub struct LowRangeReport {
    pub count: usize,
    pub strictly_increasing: usize,
    pub wrapped: usize,
    /// ≤ 7 unique ports out of 10 — wildly unlikely under a uniform pool
    /// of ~200 (P ≈ 0.066%).
    pub few_unique: usize,
    pub asns: BTreeSet<Asn>,
}

/// One Table 4 band.
#[derive(Debug, Clone)]
pub struct BandRow {
    /// Inclusive range bounds for the observed port range.
    pub lo: u32,
    pub hi: u32,
    pub label: &'static str,
    pub total: usize,
    pub open: usize,
    pub closed: usize,
    pub p0f_windows: usize,
    pub p0f_linux: usize,
}

/// The computed band edges (the paper's cutoffs, re-derived from the exact
/// range distributions rather than copied).
#[derive(Debug, Clone, Copy)]
pub struct BandCutoffs {
    /// Lower edge of the Windows band (99.9% of Windows ranges above).
    pub windows_lo: u32,
    /// Upper edge of the Windows band.
    pub windows_hi: u32,
    /// Lower edge of the FreeBSD band.
    pub freebsd_lo: u32,
    /// FreeBSD/Linux minimum-misclassification cutoff (paper: 16,331).
    pub freebsd_linux: u32,
    /// Linux/full-range minimum-misclassification cutoff (paper: 28,222).
    pub linux_full: u32,
}

impl BandCutoffs {
    /// Derive all edges from the pool sizes with `n = 10` draws.
    pub fn derive() -> BandCutoffs {
        let windows = RangeDistribution::new(WINDOWS_POOL_SIZE, SAMPLE_SIZE as u32);
        let freebsd = RangeDistribution::new(16_383, SAMPLE_SIZE as u32);
        let linux = RangeDistribution::new(28_232, SAMPLE_SIZE as u32);
        let full = RangeDistribution::new(64_511, SAMPLE_SIZE as u32);
        BandCutoffs {
            windows_lo: lower_accuracy_cutoff(windows, 0.999),
            windows_hi: accuracy_cutoff(windows, 0.999),
            freebsd_lo: lower_accuracy_cutoff(freebsd, 0.999),
            freebsd_linux: optimal_cutoff(freebsd, linux).cutoff,
            linux_full: optimal_cutoff(linux, full).cutoff,
        }
    }
}

/// The complete §5.2–5.3 port analysis.
#[derive(Debug)]
pub struct PortReport {
    pub observations: Vec<PortObservation>,
    /// Direct resolvers with fewer than [`SAMPLE_SIZE`] observed ports.
    pub insufficient: usize,
    pub zero: ZeroRangeReport,
    pub low: LowRangeReport,
    pub cutoffs: BandCutoffs,
    pub bands: Vec<BandRow>,
}

impl PortReport {
    /// Run the analysis.
    pub fn compute(input: &AnalysisInput<'_>, open_closed: &OpenClosedReport) -> PortReport {
        // ---- gather direct follow-up ports and TCP fingerprints ----
        struct Acc {
            asn: Asn,
            ports: Vec<(SimTime, u16)>,
            p0f: P0fClass,
        }
        let mut acc: HashMap<IpAddr, Acc> = HashMap::new();
        let classifier = P0fClassifier::new();

        for entry in input.log {
            let Decoded::Full(tag) = input.codec.decode(&entry.qname) else {
                continue;
            };
            if entry.src != tag.dst {
                continue; // §5.2: direct resolvers only
            }
            if entry.time.saturating_since(tag.ts) > super::LIFETIME_THRESHOLD {
                continue;
            }
            match (tag.suffix, entry.proto) {
                (SuffixKind::F4 | SuffixKind::F6, LogProto::Udp) => {
                    let a = acc.entry(tag.dst).or_insert(Acc {
                        asn: Asn(tag.asn),
                        ports: Vec::new(),
                        p0f: P0fClass::Unknown,
                    });
                    a.ports.push((entry.time, entry.src_port));
                }
                (SuffixKind::Tcp, LogProto::Tcp) => {
                    if let Some(syn) = entry.syn {
                        let class = classifier.classify_fields(
                            P0fClassifier::infer_initial_ttl(syn.observed_ttl),
                            syn.window,
                            syn.mss,
                            syn.layout,
                        );
                        let a = acc.entry(tag.dst).or_insert(Acc {
                            asn: Asn(tag.asn),
                            ports: Vec::new(),
                            p0f: P0fClass::Unknown,
                        });
                        a.p0f = class;
                    }
                }
                _ => {}
            }
        }

        // ---- per-resolver observation ----
        let mut observations = Vec::new();
        let mut insufficient = 0;
        for (addr, mut a) in acc {
            a.ports.sort_by_key(|(t, _)| *t);
            if a.ports.len() < SAMPLE_SIZE {
                insufficient += 1;
                continue;
            }
            let ports: Vec<u16> = a.ports.iter().take(SAMPLE_SIZE).map(|(_, p)| *p).collect();
            let raw_range = range_of(&ports);
            // §5.3.2 wrap adjustment for resolvers p0f saw as Windows.
            let (range, adjusted) = if a.p0f == P0fClass::Windows {
                adjust_windows_wrap(&ports)
            } else {
                (raw_range, false)
            };
            observations.push(PortObservation {
                addr,
                asn: a.asn,
                ports,
                range,
                raw_range,
                adjusted,
                open: open_closed.is_open(addr),
                p0f: a.p0f,
            });
        }
        observations.sort_by_key(|o| o.addr);

        // ---- zero-range census (§5.2.1) ----
        let mut zero = ZeroRangeReport::default();
        for o in observations.iter().filter(|o| o.range == 0) {
            zero.count += 1;
            zero.asns.insert(o.asn);
            if o.open {
                zero.open += 1;
            } else {
                zero.closed += 1;
                zero.asns_with_closed.insert(o.asn);
            }
            match o.ports[0] {
                53 => zero.port53 += 1,
                32_768 => zero.port32768 += 1,
                32_769 => zero.port32769 += 1,
                _ => {}
            }
        }

        // ---- low-range analysis (§5.2.3) ----
        let mut low = LowRangeReport::default();
        for o in observations.iter().filter(|o| (1..=200).contains(&o.range)) {
            low.count += 1;
            low.asns.insert(o.asn);
            let (increasing, wrapped) = increasing_pattern(&o.ports);
            if increasing {
                low.strictly_increasing += 1;
                if wrapped {
                    low.wrapped += 1;
                }
            }
            let unique: BTreeSet<u16> = o.ports.iter().copied().collect();
            if unique.len() <= 7 {
                low.few_unique += 1;
            }
        }

        // ---- Table 4 bands ----
        let cutoffs = BandCutoffs::derive();
        let edges: [(u32, u32, &'static str); 8] = [
            (0, 0, ""),
            (1, 200, ""),
            (201, cutoffs.windows_lo - 1, ""),
            (cutoffs.windows_lo, cutoffs.windows_hi, "Windows DNS"),
            (cutoffs.windows_hi + 1, cutoffs.freebsd_lo - 1, ""),
            (cutoffs.freebsd_lo, cutoffs.freebsd_linux, "FreeBSD"),
            (cutoffs.freebsd_linux + 1, cutoffs.linux_full, "Linux"),
            (cutoffs.linux_full + 1, 65_536, "Full Port Range"),
        ];
        let mut bands: Vec<BandRow> = edges
            .iter()
            .map(|&(lo, hi, label)| BandRow {
                lo,
                hi,
                label,
                total: 0,
                open: 0,
                closed: 0,
                p0f_windows: 0,
                p0f_linux: 0,
            })
            .collect();
        for o in &observations {
            let band = bands
                .iter_mut()
                .find(|b| o.range >= b.lo && o.range <= b.hi)
                .expect("range must land in a band");
            band.total += 1;
            if o.open {
                band.open += 1;
            } else {
                band.closed += 1;
            }
            match o.p0f {
                P0fClass::Windows => band.p0f_windows += 1,
                P0fClass::Linux => band.p0f_linux += 1,
                _ => {}
            }
        }

        PortReport {
            observations,
            insufficient,
            zero,
            low,
            cutoffs,
            bands,
        }
    }

    /// Range histogram material for Figures 2 / 3b:
    /// `(range, open?, p0f class)` per resolver.
    pub fn figure_points(&self) -> impl Iterator<Item = (u32, bool, P0fClass)> + '_ {
        self.observations.iter().map(|o| (o.range, o.open, o.p0f))
    }

    /// Count of resolvers per p0f class.
    pub fn p0f_totals(&self) -> BTreeMap<P0fClass, usize> {
        let mut m = BTreeMap::new();
        for o in &self.observations {
            *m.entry(o.p0f).or_insert(0) += 1;
        }
        m
    }
}

/// max − min of a port sample.
pub fn range_of(ports: &[u16]) -> u32 {
    let mn = *ports.iter().min().unwrap() as u32;
    let mx = *ports.iter().max().unwrap() as u32;
    mx - mn
}

/// The §5.3.2 Windows wrap adjustment, verbatim:
///
/// With `s = 2500`, `i_min = 49152`, `i_max = 65535`, `R_low = [i_min,
/// i_min+s-1]` and `R_high = (i_max-(s-1), i_max]`: if **all** ports are in
/// `R_low ∪ R_high`, at least one is in `R_low` and at least one in
/// `R_high`, then every port in `R_low` is increased by `i_max − i_min`,
/// letting a pool split across the wrap be treated as contiguous.
///
/// Returns `(adjusted range, whether the adjustment fired)`.
pub fn adjust_windows_wrap(ports: &[u16]) -> (u32, bool) {
    let s = WINDOWS_POOL_SIZE;
    let (i_min, i_max) = (IANA_LO as u32, IANA_HI as u32);
    let r_low = i_min..=(i_min + s - 1);
    let r_high = (i_max - (s - 1) + 1)..=i_max;
    let all_in = ports
        .iter()
        .all(|&p| r_low.contains(&(p as u32)) || r_high.contains(&(p as u32)));
    let any_low = ports.iter().any(|&p| r_low.contains(&(p as u32)));
    let any_high = ports.iter().any(|&p| r_high.contains(&(p as u32)));
    if all_in && any_low && any_high {
        let adjusted: Vec<u32> = ports
            .iter()
            .map(|&p| {
                let p = p as u32;
                if r_low.contains(&p) {
                    p + (i_max - i_min)
                } else {
                    p
                }
            })
            .collect();
        let mn = *adjusted.iter().min().unwrap();
        let mx = *adjusted.iter().max().unwrap();
        (mx - mn, true)
    } else {
        let mn = *ports.iter().min().unwrap() as u32;
        let mx = *ports.iter().max().unwrap() as u32;
        (mx - mn, false)
    }
}

/// Detect a strictly-increasing allocation pattern, tolerating one wrap
/// (§5.2.3: 159 of 244 low-range resolvers increased strictly; 130 of
/// those wrapped after a maximum).
pub fn increasing_pattern(ports: &[u16]) -> (bool, bool) {
    let mut descents = 0;
    for w in ports.windows(2) {
        if w[1] <= w[0] {
            descents += 1;
        }
    }
    match descents {
        0 => (true, false),
        1 => {
            // Accept exactly one wrap: the post-wrap values must stay below
            // the pre-wrap maximum.
            let wrap_pos = ports.windows(2).position(|w| w[1] <= w[0]).unwrap();
            let pre_max = *ports[..=wrap_pos].iter().max().unwrap();
            let ok = ports[wrap_pos + 1..].iter().all(|&p| p < pre_max);
            (ok, ok)
        }
        _ => (false, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_of_samples() {
        assert_eq!(range_of(&[5, 5, 5]), 0);
        assert_eq!(range_of(&[10, 20, 15]), 10);
    }

    #[test]
    fn wrap_adjustment_fires_only_when_split() {
        // Split pool: some ports near the top, some wrapped to the bottom.
        let split = [
            65_400u16, 49_200, 65_500, 49_300, 65_300, 49_152, 65_535, 49_400, 65_450, 49_250,
        ];
        let (range, fired) = adjust_windows_wrap(&split);
        assert!(fired);
        // Without adjustment the range would be ~16k; adjusted it must be
        // within the 2,500 pool width.
        assert!(range < WINDOWS_POOL_SIZE, "adjusted range {range}");
        assert!(range_of(&split) > 14_000);

        // All ports in one region: no adjustment.
        let contiguous = [
            50_000u16, 50_100, 50_200, 51_000, 50_500, 50_700, 50_900, 50_050, 50_150, 50_250,
        ];
        let (range, fired) = adjust_windows_wrap(&contiguous);
        assert!(!fired);
        assert_eq!(range, 1_000);

        // Ports outside the IANA range: no adjustment.
        let outside = [
            1_024u16, 65_535, 49_152, 60_000, 50_000, 2_000, 3_000, 4_000, 5_000, 6_000,
        ];
        let (_, fired) = adjust_windows_wrap(&outside);
        assert!(!fired);
    }

    #[test]
    fn increasing_detection() {
        assert_eq!(increasing_pattern(&[1, 2, 3, 4, 5]), (true, false));
        // One wrap back to base.
        assert_eq!(increasing_pattern(&[7, 8, 9, 2, 3]), (true, true));
        // Two descents: not sequential.
        assert_eq!(increasing_pattern(&[5, 1, 5, 1, 5]), (false, false));
        // Random: not sequential.
        assert_eq!(increasing_pattern(&[9, 3, 7, 1, 8]), (false, false));
        // Post-wrap exceeding pre-wrap max: not a clean wrap.
        assert_eq!(increasing_pattern(&[7, 8, 2, 9, 10]), (false, false));
    }

    #[test]
    fn cutoffs_land_near_paper_values() {
        let c = BandCutoffs::derive();
        // Paper Table 4: bands 941–2,488 (Windows), 6,125–16,331 (FreeBSD),
        // 16,332–28,222 (Linux), 28,223+ (full). Our exact-distribution
        // derivations must land in the same neighbourhoods.
        assert!(
            (600..=1_400).contains(&c.windows_lo),
            "windows_lo {}",
            c.windows_lo
        );
        assert!(
            (2_300..=2_500).contains(&c.windows_hi),
            "windows_hi {}",
            c.windows_hi
        );
        assert!(
            (4_000..=9_000).contains(&c.freebsd_lo),
            "freebsd_lo {}",
            c.freebsd_lo
        );
        assert!(
            (15_800..=16_383).contains(&c.freebsd_linux),
            "freebsd_linux {}",
            c.freebsd_linux
        );
        assert!(
            (27_300..=28_232).contains(&c.linux_full),
            "linux_full {}",
            c.linux_full
        );
    }
}
