//! Network-wide accounting: why packets were dropped, how many were
//! delivered. Tests and the analysis pipeline use these to assert filter
//! semantics (e.g. "the DSAV border dropped exactly the internal-source
//! probes").

use std::collections::BTreeMap;
use std::fmt;

/// The reason a packet failed to reach its destination node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DropReason {
    /// Egress-filtered by origin AS (BCP 38 / OSAV): source not internal.
    Osav,
    /// Ingress-filtered by destination AS (DSAV): source *was* internal.
    Dsav,
    /// Ingress-filtered at subnet granularity: source claimed the
    /// destination's own /24 (IPv4) or /64 (IPv6).
    SubnetSavi,
    /// Ingress-filtered by partial internal SAV: the source's subnet is one
    /// of the internally-filtered prefixes.
    PartialSav,
    /// Ingress bogon ACL: private / unique-local source.
    PrivateIngress,
    /// Ingress martian ACL: IPv4 source equals destination.
    MartianDs,
    /// Ingress bogon ACL: loopback source.
    LoopbackIngress,
    /// No announced route covers the destination address.
    NoRoute,
    /// Routed to an AS, but no host is bound to the destination address.
    NoHost,
    /// Host kernel refused a destination-as-source packet (Table 6).
    StackDstAsSrc,
    /// Host kernel refused a loopback-source packet (Table 6).
    StackLoopback,
    /// Never produced: links are a fixed delay, and every packet loss is a
    /// [`FaultSchedule`](crate::FaultSchedule) fate (`ChaosLoss`,
    /// `LinkFlap`, `HostDown`). The variant stays only because the
    /// benchmark package names it; it goes with that package's next change.
    LinkLoss,
    /// Seeded chaos loss (ambient or burst state, `FaultSchedule`).
    ChaosLoss,
    /// Dropped while an AS border was flapped dark (`FaultSchedule`).
    LinkFlap,
    /// Sender or destination host was inside a crash epoch
    /// (`FaultSchedule`).
    HostDown,
    /// Event budget exhausted while the packet was in flight.
    Truncated,
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DropReason::Osav => "osav-egress",
            DropReason::Dsav => "dsav-ingress",
            DropReason::SubnetSavi => "subnet-savi-ingress",
            DropReason::PartialSav => "partial-sav-ingress",
            DropReason::PrivateIngress => "private-ingress-acl",
            DropReason::MartianDs => "martian-ds-ingress",
            DropReason::LoopbackIngress => "loopback-ingress-acl",
            DropReason::NoRoute => "no-route",
            DropReason::NoHost => "no-host",
            DropReason::StackDstAsSrc => "stack-dst-as-src",
            DropReason::StackLoopback => "stack-loopback",
            DropReason::LinkLoss => "link-loss",
            DropReason::ChaosLoss => "chaos-loss",
            DropReason::LinkFlap => "link-flap",
            DropReason::HostDown => "host-down",
            DropReason::Truncated => "truncated",
        };
        f.write_str(s)
    }
}

/// Aggregate packet accounting for a simulation run.
#[derive(Debug, Default, Clone)]
pub struct NetCounters {
    /// Packets handed to the network by nodes.
    pub sent: u64,
    /// Packets delivered to a destination node.
    pub delivered: u64,
    /// Duplicated deliveries drawn by the chaos fault schedule.
    pub duplicated: u64,
    /// Forged packets injected by the off-path spoofed-response adversary
    /// (`FaultSchedule::spoof_response`).
    pub injected: u64,
    /// Packets redirected to a middlebox interceptor.
    pub intercepted: u64,
    /// Drop counts by reason.
    pub drops: BTreeMap<DropReason, u64>,
}

impl NetCounters {
    /// Record a drop.
    pub fn drop(&mut self, reason: DropReason) {
        *self.drops.entry(reason).or_insert(0) += 1;
    }

    /// Total drops across all reasons.
    pub fn total_drops(&self) -> u64 {
        self.drops.values().sum()
    }

    /// Drops for one reason (0 if none recorded).
    pub fn dropped(&self, reason: DropReason) -> u64 {
        self.drops.get(&reason).copied().unwrap_or(0)
    }
}

impl fmt::Display for NetCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sent={} delivered={} duplicated={} injected={} intercepted={} dropped={}",
            self.sent,
            self.delivered,
            self.duplicated,
            self.injected,
            self.intercepted,
            self.total_drops()
        )?;
        for (reason, n) in &self.drops {
            writeln!(f, "  {reason}: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_totals() {
        let mut c = NetCounters::default();
        c.drop(DropReason::Dsav);
        c.drop(DropReason::Dsav);
        c.drop(DropReason::NoHost);
        assert_eq!(c.dropped(DropReason::Dsav), 2);
        assert_eq!(c.dropped(DropReason::Osav), 0);
        assert_eq!(c.total_drops(), 3);
    }

    #[test]
    fn display_includes_reasons() {
        let mut c = NetCounters {
            sent: 10,
            delivered: 9,
            ..Default::default()
        };
        c.drop(DropReason::ChaosLoss);
        let s = c.to_string();
        assert!(s.contains("sent=10"));
        assert!(s.contains("chaos-loss: 1"));
    }
}
