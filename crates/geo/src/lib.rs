//! # bcd-geo — synthetic geolocation (GeoLite2 stand-in)
//!
//! The paper geolocates every target with MaxMind GeoLite2 and associates an
//! AS "with one or more countries based on the GeoIP data for its
//! constituent IP addresses" (§4). This crate provides:
//!
//! * a [`Country`] registry with the 20 countries named in Tables 1–2 plus a
//!   long tail, each carrying the *calibration profile* the world generator
//!   samples from: relative AS share, probability that an AS lacks DSAV,
//!   and resolver density,
//! * a [`GeoDb`]: address → country through the announced route covering
//!   the address (each AS's home country, plus the prefixes geolocated
//!   elsewhere), and the paper's AS → countries aggregation.
//!
//! The substitution argument (DESIGN.md): geography only enters the analysis
//! as a *grouping key* for Tables 1–2; any consistent assignment whose
//! marginals match the paper's reproduces the tables' mechanics and shape.

pub mod country;
pub mod db;

pub use country::{sample_country, Country, CountryProfile, COUNTRIES};
pub use db::GeoDb;
