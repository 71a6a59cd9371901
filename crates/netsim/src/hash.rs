//! The workspace's one deterministic hash toolkit.
//!
//! * **FNV-1a** ([`fnv1a`], [`fnv1a_addr`]) — tiny state, stable across
//!   platforms, and good enough spread for bucketing, packet keys and
//!   trace ids. Nothing here needs cryptographic strength: the adversary
//!   is nondeterminism, not an attacker. Every caller folds canonical
//!   bytes (addresses, qnames, little-endian integers), never iteration
//!   order or RNG stream position, which is what keeps derived draws
//!   byte-identical across shard layouts and schedulers.
//! * **splitmix64** ([`splitmix64`], [`stream_seed`]) — derives
//!   independent RNG seed streams from one master seed.

use std::net::IpAddr;

/// FNV-1a 64-bit offset basis: the initial state of every fold.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into the running FNV-1a state `h`.
pub fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Fold an address's canonical octets (4 or 16 bytes) into `h`.
pub fn fnv1a_addr(h: &mut u64, addr: IpAddr) {
    match addr {
        IpAddr::V4(a) => fnv1a(h, &a.octets()),
        IpAddr::V6(a) => fnv1a(h, &a.octets()),
    }
}

/// splitmix64 finalizer — mixes a 64-bit value into an avalanche-quality
/// hash. Used to derive independent seed streams from one master seed.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the seed for an independent RNG stream (`stream`) from a master
/// seed. Distinct streams of the same master are decorrelated by the
/// splitmix64 avalanche.
pub fn stream_seed(base: u64, stream: u64) -> u64 {
    splitmix64(base ^ splitmix64(stream.wrapping_add(0x5EED_CAFE_F00D_D00D)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        // Published FNV-1a 64 test vectors: "" and "a".
        let mut h = FNV_OFFSET;
        fnv1a(&mut h, b"");
        assert_eq!(h, 0xcbf2_9ce4_8422_2325);
        fnv1a(&mut h, b"a");
        assert_eq!(h, 0xaf63_dc4c_8601_ec8c);
        // Folding is streaming: split input hashes like joined input.
        let (mut a, mut b) = (FNV_OFFSET, FNV_OFFSET);
        fnv1a(&mut a, b"foobar");
        fnv1a(&mut b, b"foo");
        fnv1a(&mut b, b"bar");
        assert_eq!(a, b);
        assert_eq!(a, 0x8594_4171_f739_67e8);
    }
}
