//! Shared deterministic hashing for schedule-stable draws.
//!
//! Everything the survey derives per probe — txid, source port, noise
//! micro-jitter, and (since the streaming schedule) the per-target phase
//! and source-plan RNG seed — must depend only on *canonical bytes* (the
//! target address, the qname), never on iteration order or RNG stream
//! position. That is what keeps the schedule and every packet observable
//! byte-identical across `BCD_SHARDS`, `BCD_WORKERS` and the event scheduler.
//!
//! FNV-1a: tiny state, stable across platforms, and good enough spread
//! for bucketing/phases (we never need cryptographic strength here — the
//! adversary is nondeterminism, not an attacker).

use std::net::IpAddr;

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into the running FNV-1a state `h`.
pub(crate) fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Fold an address's canonical octets (4 or 16 bytes) into `h`.
pub(crate) fn fnv1a_addr(h: &mut u64, addr: IpAddr) {
    match addr {
        IpAddr::V4(a) => fnv1a(h, &a.octets()),
        IpAddr::V6(a) => fnv1a(h, &a.octets()),
    }
}

/// A salted, domain-separated 64-bit draw from an address. `salt` is a
/// seed-derived stream (see `bcd_netsim::stream_seed`); `domain` separates
/// independent uses of the same (salt, addr) pair — e.g. `b"phase"` vs
/// `b"plan"` — so one draw never aliases another.
pub(crate) fn addr_hash(salt: u64, addr: IpAddr, domain: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, &salt.to_le_bytes());
    fnv1a_addr(&mut h, addr);
    fnv1a(&mut h, domain);
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domains_are_separated() {
        let a: IpAddr = "192.0.2.7".parse().unwrap();
        assert_ne!(addr_hash(1, a, b"phase"), addr_hash(1, a, b"plan"));
        assert_ne!(addr_hash(1, a, b"phase"), addr_hash(2, a, b"phase"));
        let b: IpAddr = "192.0.2.8".parse().unwrap();
        assert_ne!(addr_hash(1, a, b"phase"), addr_hash(1, b, b"phase"));
        // Deterministic.
        assert_eq!(addr_hash(1, a, b"phase"), addr_hash(1, a, b"phase"));
    }
}
