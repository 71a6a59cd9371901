//! Deterministic combination of per-shard run artifacts.
//!
//! A sharded survey runs `S` independent [`crate::Runtime`] instances and
//! must fold their accounting back into one logical run. [`Merge`] is the
//! contract for that fold: commutative and associative for counter-like
//! types, so the merged result is independent of shard completion order
//! (the runner still merges in shard-id order for full determinism).

use crate::counters::NetCounters;

/// Fold another instance of `Self` into this one.
///
/// Implementations must be commutative and associative up to the semantics
/// of the type (counters: exact; the span window: canonical order, see
/// [`crate::FlightRecorder`]).
pub trait Merge {
    fn merge(&mut self, other: Self);
}

impl Merge for NetCounters {
    fn merge(&mut self, other: NetCounters) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.duplicated += other.duplicated;
        self.injected += other.injected;
        self.intercepted += other.intercepted;
        for (reason, n) in other.drops {
            *self.drops.entry(reason).or_insert(0) += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::DropReason;

    fn counters(sent: u64, dsav: u64) -> NetCounters {
        let mut c = NetCounters {
            sent,
            delivered: sent / 2,
            ..NetCounters::default()
        };
        for _ in 0..dsav {
            c.drop(DropReason::Dsav);
        }
        c
    }

    #[test]
    fn counters_merge_sums_everything() {
        let mut a = counters(10, 3);
        a.drop(DropReason::NoRoute);
        let b = counters(4, 2);
        a.merge(b);
        assert_eq!(a.sent, 14);
        assert_eq!(a.delivered, 7);
        assert_eq!(a.dropped(DropReason::Dsav), 5);
        assert_eq!(a.dropped(DropReason::NoRoute), 1);
        assert_eq!(a.total_drops(), 6);
    }

    #[test]
    fn counters_merge_commutes() {
        let mut ab = counters(10, 3);
        ab.merge(counters(4, 2));
        let mut ba = counters(4, 2);
        ba.merge(counters(10, 3));
        assert_eq!(ab.sent, ba.sent);
        assert_eq!(ab.drops, ba.drops);
    }
}
