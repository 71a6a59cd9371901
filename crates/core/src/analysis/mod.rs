//! Every analysis in the paper, §§3.6–5.
//!
//! All analyses consume the same [`AnalysisInput`]: the authoritative query
//! log plus the planning artifacts (target set, routes, geo database) — the
//! same observables the authors had. Ground truth from `bcd-worldgen` is
//! never read here; validation joins happen in tests and reports only. The
//! one deliberate exception is [`agreement`], whose whole purpose is that
//! join: it scores both measurement methods' observable-only verdicts
//! against the generator's rolled SAV policies.

pub mod agreement;
pub mod categories;
pub mod country;
pub mod forwarding;
pub mod local;
pub mod openclosed;
pub mod passive;
pub mod ports;
pub mod qmin;
pub mod reachability;

use crate::qname::QnameCodec;
use crate::targets::TargetSet;
use bcd_dns::QueryLogEntry;
use bcd_geo::GeoDb;
use bcd_netsim::{PrefixTable, SimDuration};
use std::net::IpAddr;

/// Queries older than this when they arrive are attributed to human
/// intervention and excluded (§3.6.3's 10-second rule).
pub const LIFETIME_THRESHOLD: SimDuration = SimDuration::from_secs(10);

/// Shared input to all analyses.
pub struct AnalysisInput<'a> {
    /// Snapshot of the experiment estate's query log.
    pub log: &'a [QueryLogEntry],
    pub codec: &'a QnameCodec,
    pub targets: &'a TargetSet,
    /// The announced-routes table used at planning time.
    pub routes: &'a PrefixTable,
    pub geo: &'a GeoDb,
    /// The scanner's real addresses (identify open-resolver probes).
    pub scanner_v4: IpAddr,
    pub scanner_v6: IpAddr,
    /// Known public DNS service addresses (middlebox attribution, §3.6.1).
    pub public_dns: &'a [IpAddr],
}

impl<'a> AnalysisInput<'a> {
    /// Is `addr` one of the scanner's real addresses?
    pub fn is_scanner(&self, addr: IpAddr) -> bool {
        addr == self.scanner_v4 || addr == self.scanner_v6
    }
}
