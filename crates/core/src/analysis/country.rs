//! Per-country aggregation — Tables 1 and 2 (§4).
//!
//! Each AS is associated with every country its prefixes geolocate to (so
//! an AS can be counted in several countries, as in the paper); targets are
//! attributed to the country of their covering prefix, the route the
//! routing table's longest-prefix match finds.

use crate::analysis::reachability::Reachability;
use crate::analysis::AnalysisInput;
use bcd_geo::Country;
use bcd_netsim::Asn;
use std::collections::{BTreeMap, BTreeSet};

/// Aggregates for one country.
#[derive(Debug, Default, Clone)]
pub struct CountryRow {
    pub ases_total: BTreeSet<Asn>,
    pub ases_reachable: BTreeSet<Asn>,
    pub targets_total: usize,
    pub targets_reachable: usize,
}

impl CountryRow {
    /// Target (IP) reachability percentage.
    pub fn ip_pct(&self) -> f64 {
        if self.targets_total == 0 {
            0.0
        } else {
            100.0 * self.targets_reachable as f64 / self.targets_total as f64
        }
    }
}

/// The country report backing Tables 1 and 2.
#[derive(Debug, Default)]
pub struct CountryReport {
    pub rows: BTreeMap<Country, CountryRow>,
}

impl CountryReport {
    /// Build from reachability + geo.
    pub fn compute(input: &AnalysisInput<'_>, reach: &Reachability) -> CountryReport {
        let mut rows: BTreeMap<Country, CountryRow> = BTreeMap::new();
        let reached_asns = reach.reached_asns_all();

        // AS attribution (possibly multiple countries per AS).
        let asns: BTreeSet<Asn> = input.targets.iter().map(|t| t.asn).collect();
        for asn in asns {
            for country in input.geo.countries_of(asn) {
                let row = rows.entry(country).or_default();
                row.ases_total.insert(asn);
                if reached_asns.contains(&asn) {
                    row.ases_reachable.insert(asn);
                }
            }
        }

        // Target attribution (one country per address).
        for t in input.targets.iter() {
            let Some(country) = input.geo.country_of(input.routes, t.addr) else {
                continue;
            };
            let row = rows.entry(country).or_default();
            row.targets_total += 1;
            if reach.reached.contains_key(&t.addr) {
                row.targets_reachable += 1;
            }
        }
        CountryReport { rows }
    }

    /// Table 1 ordering: countries by total AS count, descending.
    pub fn table1(&self, top: usize) -> Vec<(Country, &CountryRow)> {
        let mut v: Vec<(Country, &CountryRow)> = self.rows.iter().map(|(c, r)| (*c, r)).collect();
        v.sort_by_key(|(_, r)| std::cmp::Reverse(r.ases_total.len()));
        v.truncate(top);
        v
    }

    /// Table 2 ordering: countries by target-reachability percentage,
    /// descending (countries with at least one reachable target).
    pub fn table2(&self, top: usize) -> Vec<(Country, &CountryRow)> {
        let mut v: Vec<(Country, &CountryRow)> = self
            .rows
            .iter()
            .filter(|(_, r)| r.targets_reachable > 0)
            .map(|(c, r)| (*c, r))
            .collect();
        v.sort_by(|a, b| {
            b.1.ip_pct()
                .partial_cmp(&a.1.ip_pct())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        v.truncate(top);
        v
    }
}
