//! The prefix → country database and AS → countries aggregation.

use crate::country::Country;
use bcd_netsim::{Asn, Prefix, PrefixTable};
use std::collections::{BTreeSet, HashMap};
use std::net::IpAddr;

/// A GeoLite2-style database: address → country, plus the paper's per-AS
/// country set ("an AS might be counted multiple times in different
/// countries", §4).
///
/// It holds no prefix trie of its own. Every geolocated prefix is an
/// announced route, so an address's covering prefix is the one the route
/// table's longest-prefix match already finds; the database only keeps
/// each AS's home country and the few prefixes geolocated away from it.
#[derive(Default)]
pub struct GeoDb {
    by_asn: HashMap<Asn, AsGeo>,
    /// Prefixes whose country differs from their AS's home country.
    moved: HashMap<Prefix, Country>,
}

struct AsGeo {
    /// The country of the AS's first registered prefix: where each of its
    /// prefixes geolocates unless `moved` says otherwise.
    home: Country,
    countries: BTreeSet<Country>,
}

impl GeoDb {
    /// An empty database.
    pub fn new() -> GeoDb {
        GeoDb::default()
    }

    /// Register a prefix as located in `country`, announced by `asn`. The
    /// prefix must be announced by `asn` in the route table later passed
    /// to [`country_of`](Self::country_of), and registered once.
    pub fn insert(&mut self, prefix: Prefix, asn: Asn, country: Country) {
        let geo = self.by_asn.entry(asn).or_insert_with(|| AsGeo {
            home: country,
            countries: BTreeSet::new(),
        });
        if country != geo.home {
            self.moved.insert(prefix, country);
        }
        geo.countries.insert(country);
    }

    /// The country of the most specific route covering `ip`, if that
    /// route's prefix is registered here.
    pub fn country_of(&self, routes: &PrefixTable, ip: IpAddr) -> Option<Country> {
        let (prefix, asn) = routes.lookup(ip)?;
        let home = self.by_asn.get(&asn)?.home;
        Some(self.moved.get(&prefix).copied().unwrap_or(home))
    }

    /// All countries associated with an AS (usually one; multi-homed or
    /// multi-national ASes may have several), sorted.
    pub fn countries_of(&self, asn: Asn) -> impl Iterator<Item = Country> + '_ {
        self.by_asn
            .get(&asn)
            .into_iter()
            .flat_map(|g| g.countries.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// A route table and database registering the same `(prefix, asn,
    /// country)` triples.
    fn fill(entries: &[(&str, u32, &'static str)]) -> (PrefixTable, GeoDb) {
        let mut routes = PrefixTable::new();
        let mut db = GeoDb::new();
        for &(prefix, asn, country) in entries {
            routes.announce(p(prefix), Asn(asn));
            db.insert(p(prefix), Asn(asn), Country(country));
        }
        (routes, db)
    }

    #[test]
    fn lookup_by_longest_prefix() {
        let (mut routes, db) = fill(&[("10.0.0.0/8", 1, "US"), ("10.5.0.0/16", 1, "CA")]);
        let at = |routes: &PrefixTable, ip: &str| db.country_of(routes, ip.parse().unwrap());
        assert_eq!(at(&routes, "10.1.1.1"), Some(Country("US")));
        assert_eq!(at(&routes, "10.5.9.9"), Some(Country("CA")));
        assert_eq!(at(&routes, "11.0.0.1"), None);
        // A route the database never registered (an AS with no country)
        // geolocates nowhere, even inside a registered prefix.
        routes.announce(p("10.6.0.0/16"), Asn(2));
        assert_eq!(at(&routes, "10.6.0.1"), None);
    }

    #[test]
    fn multi_country_as() {
        let (routes, db) = fill(&[
            ("192.0.2.0/24", 7, "US"),
            ("198.51.100.0/24", 7, "CA"),
            ("203.0.113.0/24", 7, "US"),
        ]);
        let countries: Vec<Country> = db.countries_of(Asn(7)).collect();
        assert_eq!(countries, [Country("CA"), Country("US")]);
        assert_eq!(db.countries_of(Asn(9)).count(), 0);
        for (ip, country) in [
            ("192.0.2.1", "US"),
            ("198.51.100.1", "CA"),
            ("203.0.113.1", "US"),
        ] {
            assert_eq!(
                db.country_of(&routes, ip.parse().unwrap()),
                Some(Country(country))
            );
        }
    }

    #[test]
    fn home_is_the_first_prefix_country() {
        // The first prefix is the one moved away: the rest still answer
        // their own country, and the AS's set holds both.
        let (routes, db) = fill(&[
            ("192.0.2.0/24", 7, "CA"),
            ("198.51.100.0/24", 7, "US"),
            ("203.0.113.0/24", 7, "US"),
        ]);
        let at = |ip: &str| db.country_of(&routes, ip.parse().unwrap());
        assert_eq!(at("192.0.2.1"), Some(Country("CA")));
        assert_eq!(at("198.51.100.1"), Some(Country("US")));
        assert_eq!(at("203.0.113.1"), Some(Country("US")));
        assert_eq!(db.countries_of(Asn(7)).count(), 2);
    }

    #[test]
    fn v6_prefixes_supported() {
        let (routes, db) = fill(&[("2001:db8::/32", 3, "DE")]);
        assert_eq!(
            db.country_of(&routes, "2001:db8::1".parse().unwrap()),
            Some(Country("DE"))
        );
    }
}
