//! Domain names.
//!
//! [`Name`] stores a sequence of labels (without the root's empty label).
//! Comparison and hashing are case-insensitive per RFC 1035 §2.3.3; the
//! original case is preserved for display. The experiment builds deeply
//! structured names (`ts.src.dst.asn.kw.dns-lab.org`, §3.3) and needs
//! parent/suffix navigation for QNAME minimization (§3.6.4), so those
//! operations are first-class.

use crate::wire::{WireError, WireReader, WireWriter};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

/// Maximum total wire length of a name (RFC 1035 §3.1).
pub const MAX_NAME_WIRE_LEN: usize = 255;
/// Maximum length of a single label.
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum compression-pointer indirections tolerated while decoding.
const MAX_POINTER_HOPS: usize = 64;

/// Errors constructing a [`Name`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A label was empty or exceeded 63 bytes.
    BadLabel(String),
    /// The total wire length would exceed 255 bytes.
    TooLong,
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::BadLabel(l) => write!(f, "bad label: {l:?}"),
            NameError::TooLong => write!(f, "name exceeds 255 wire bytes"),
        }
    }
}

impl std::error::Error for NameError {}

/// A domain name: zero or more labels, root last (implicit).
#[derive(Debug, Clone, Eq)]
pub struct Name {
    labels: Vec<Vec<u8>>,
}

impl Name {
    /// The root name (zero labels).
    pub fn root() -> Name {
        Name { labels: Vec::new() }
    }

    /// Build from label byte strings, validating lengths.
    pub fn from_labels<I, L>(labels: I) -> Result<Name, NameError>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let mut out = Vec::new();
        for l in labels {
            let l = l.as_ref();
            if l.is_empty() || l.len() > MAX_LABEL_LEN {
                return Err(NameError::BadLabel(String::from_utf8_lossy(l).into_owned()));
            }
            out.push(l.to_vec());
        }
        let name = Name { labels: out };
        if name.wire_len() > MAX_NAME_WIRE_LEN {
            return Err(NameError::TooLong);
        }
        Ok(name)
    }

    /// Number of labels (root excluded).
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    /// The labels, leftmost (most specific) first.
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> {
        self.labels.iter().map(Vec::as_slice)
    }

    /// Total encoded length without compression: each label costs `1 + len`,
    /// plus the terminating root byte.
    pub fn wire_len(&self) -> usize {
        1 + self.labels.iter().map(|l| 1 + l.len()).sum::<usize>()
    }

    /// The name with the leftmost label removed (`a.b.c` → `b.c`);
    /// root's parent is root.
    pub fn parent(&self) -> Name {
        if self.labels.is_empty() {
            Name::root()
        } else {
            Name {
                labels: self.labels[1..].to_vec(),
            }
        }
    }

    /// The suffix keeping the rightmost `n` labels (`n = 0` → root).
    /// `n` larger than the label count returns the whole name.
    pub fn suffix(&self, n: usize) -> Name {
        let keep = n.min(self.labels.len());
        Name {
            labels: self.labels[self.labels.len() - keep..].to_vec(),
        }
    }

    /// Prepend a label (`child("www")` on `example.org` → `www.example.org`).
    pub fn child<L: AsRef<[u8]>>(&self, label: L) -> Result<Name, NameError> {
        let l = label.as_ref();
        if l.is_empty() || l.len() > MAX_LABEL_LEN {
            return Err(NameError::BadLabel(String::from_utf8_lossy(l).into_owned()));
        }
        let mut labels = Vec::with_capacity(self.labels.len() + 1);
        labels.push(l.to_vec());
        labels.extend(self.labels.iter().cloned());
        let name = Name { labels };
        if name.wire_len() > MAX_NAME_WIRE_LEN {
            return Err(NameError::TooLong);
        }
        Ok(name)
    }

    /// True if `self` equals `other` or is a descendant of it
    /// (case-insensitive). Everything is under the root.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        if other.labels.len() > self.labels.len() {
            return false;
        }
        let offset = self.labels.len() - other.labels.len();
        self.labels[offset..]
            .iter()
            .zip(&other.labels)
            .all(|(a, b)| eq_label(a, b))
    }

    /// Canonical (lowercased) representation used for compression-dictionary
    /// keys and hashing.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        for l in &self.labels {
            out.extend(l.iter().map(|b| b.to_ascii_lowercase()));
            out.push(b'.');
        }
        if out.is_empty() {
            out.push(b'.');
        }
        out
    }

    /// Allocation-free [`canonical_bytes`](Self::canonical_bytes): writes
    /// the canonical form into `buf` and returns the length used. A name's
    /// canonical form is at most `MAX_NAME_WIRE_LEN` bytes (one less than
    /// its wire length, or a single dot for the root), so a
    /// `[u8; MAX_NAME_WIRE_LEN]` stack buffer always fits — hot paths that
    /// probe a [`NameArena`](crate::NameArena) per lookup use this instead
    /// of allocating a `Vec` per probe.
    pub fn canonical_into(&self, buf: &mut [u8; MAX_NAME_WIRE_LEN]) -> usize {
        let mut n = 0;
        for l in &self.labels {
            for &b in l {
                buf[n] = b.to_ascii_lowercase();
                n += 1;
            }
            buf[n] = b'.';
            n += 1;
        }
        if n == 0 {
            buf[0] = b'.';
            n = 1;
        }
        n
    }

    /// The reverse-DNS (PTR) name for an address: `d.c.b.a.in-addr.arpa`
    /// for IPv4, nibble-reversed `ip6.arpa` for IPv6 — what the paper used
    /// to find administrator contacts for vulnerable resolvers (§5.2.1).
    pub fn reverse_ptr(ip: std::net::IpAddr) -> Name {
        match ip {
            std::net::IpAddr::V4(a) => {
                let o = a.octets();
                format!("{}.{}.{}.{}.in-addr.arpa", o[3], o[2], o[1], o[0])
                    .parse()
                    .expect("constructed PTR name is valid")
            }
            std::net::IpAddr::V6(a) => {
                let mut labels: Vec<String> = Vec::with_capacity(34);
                for byte in a.octets().iter().rev() {
                    labels.push(format!("{:x}", byte & 0x0F));
                    labels.push(format!("{:x}", byte >> 4));
                }
                labels.push("ip6".into());
                labels.push("arpa".into());
                Name::from_labels(labels.iter().map(|l| l.as_bytes()))
                    .expect("constructed PTR name is valid")
            }
        }
    }

    /// Encode with compression against (and updating) the writer's
    /// dictionary.
    pub fn encode(&self, w: &mut WireWriter) {
        // Walk suffixes from the full name down; emit labels until a suffix
        // is found among the already-written names, then emit a pointer.
        // Matching is done against the wire bytes in place, so this path
        // allocates nothing.
        let n = self.labels.len();
        for i in 0..n {
            if let Some(off) = w.find_name(&self.labels[i..]) {
                w.u16(0xC000 | off as u16);
                return;
            }
            w.note_name_start(w.len());
            let label = &self.labels[i];
            w.u8(label.len() as u8);
            w.bytes(label);
        }
        w.u8(0); // root
    }

    /// Encode without compression (for contexts where pointers are not
    /// allowed, e.g. inside SOA RDATA in some conservative encoders).
    pub fn encode_uncompressed(&self, w: &mut WireWriter) {
        for label in &self.labels {
            w.u8(label.len() as u8);
            w.bytes(label);
        }
        w.u8(0);
    }

    /// Decode a (possibly compressed) name starting at the reader's
    /// position. The reader ends up just past the name's in-place bytes
    /// regardless of pointer following.
    pub fn decode(r: &mut WireReader<'_>) -> Result<Name, WireError> {
        let mut labels = Vec::new();
        let mut wire_len = 1usize; // terminating root byte
        let mut hops = 0usize;
        // Position to restore after following pointers: set on first pointer.
        let mut resume: Option<usize> = None;
        let mut pos = r.pos();

        loop {
            r.seek(pos)?;
            let len = r.u8()?;
            match len {
                0 => break,
                l if l & 0xC0 == 0xC0 => {
                    let lo = r.u8()? as usize;
                    let target = ((l as usize & 0x3F) << 8) | lo;
                    if resume.is_none() {
                        resume = Some(r.pos());
                    }
                    // Pointers must point strictly backwards to prevent
                    // loops; also bound total hops defensively.
                    if target >= pos {
                        return Err(WireError::BadPointer);
                    }
                    hops += 1;
                    if hops > MAX_POINTER_HOPS {
                        return Err(WireError::BadPointer);
                    }
                    pos = target;
                }
                l if l & 0xC0 != 0 => return Err(WireError::BadLabel),
                l => {
                    let bytes = r.bytes(l as usize)?;
                    wire_len += 1 + l as usize;
                    if wire_len > MAX_NAME_WIRE_LEN {
                        return Err(WireError::NameTooLong);
                    }
                    labels.push(bytes.to_vec());
                    pos = r.pos();
                }
            }
        }
        if let Some(p) = resume {
            r.seek(p)?;
        }
        Ok(Name { labels })
    }
}

fn eq_label(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.eq_ignore_ascii_case(y))
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.labels.len() == other.labels.len()
            && self
                .labels
                .iter()
                .zip(&other.labels)
                .all(|(a, b)| eq_label(a, b))
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for l in &self.labels {
            state.write_usize(l.len());
            for b in l {
                state.write_u8(b.to_ascii_lowercase());
            }
        }
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    /// Lexicographic over lowercased labels (not the DNSSEC canonical order;
    /// sufficient for deterministic map iteration).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let a = self.canonical_bytes();
        let b = other.canonical_bytes();
        a.cmp(&b)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() {
            return f.write_str(".");
        }
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            for &b in l {
                // Escape dots and non-printables inside labels.
                if b == b'.' || b == b'\\' {
                    write!(f, "\\{}", b as char)?;
                } else if (0x20..0x7F).contains(&b) {
                    write!(f, "{}", b as char)?;
                } else {
                    write!(f, "\\{:03}", b)?;
                }
            }
        }
        Ok(())
    }
}

impl FromStr for Name {
    type Err = NameError;

    /// Parse a dotted name; a single `"."` is the root; a trailing dot is
    /// allowed (and ignored). Escapes are not supported in parsing — the
    /// experiment's generated names never need them.
    fn from_str(s: &str) -> Result<Name, NameError> {
        if s == "." || s.is_empty() {
            return Ok(Name::root());
        }
        let s = s.strip_suffix('.').unwrap_or(s);
        Name::from_labels(s.split('.').map(str::as_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(n("www.Example.ORG").to_string(), "www.Example.ORG");
        assert_eq!(n("a.b.").label_count(), 2);
        assert_eq!(Name::root().to_string(), ".");
        assert_eq!(n(".").label_count(), 0);
    }

    #[test]
    fn case_insensitive_equality_and_hash() {
        use std::collections::HashSet;
        assert_eq!(n("WWW.example.Org"), n("www.EXAMPLE.org"));
        let mut set = HashSet::new();
        set.insert(n("Example.ORG"));
        assert!(set.contains(&n("example.org")));
    }

    #[test]
    fn navigation() {
        let x = n("a.b.c.example.org");
        assert_eq!(x.parent(), n("b.c.example.org"));
        assert_eq!(x.suffix(2), n("example.org"));
        assert_eq!(x.suffix(0), Name::root());
        assert_eq!(x.suffix(99), x);
        assert_eq!(n("example.org").child("www").unwrap(), n("www.example.org"));
        assert_eq!(Name::root().parent(), Name::root());
    }

    #[test]
    fn subdomain_relation() {
        assert!(n("a.b.example.org").is_subdomain_of(&n("example.org")));
        assert!(n("example.org").is_subdomain_of(&n("example.org")));
        assert!(n("example.org").is_subdomain_of(&Name::root()));
        assert!(!n("example.org").is_subdomain_of(&n("a.example.org")));
        assert!(!n("badexample.org").is_subdomain_of(&n("example.org")));
        assert!(n("A.EXAMPLE.org").is_subdomain_of(&n("a.example.ORG")));
    }

    #[test]
    fn label_validation() {
        assert!(Name::from_labels(["ok"]).is_ok());
        assert!(Name::from_labels([""]).is_err());
        assert!(Name::from_labels([&[b'x'; 64][..]]).is_err());
        assert!(Name::from_labels([&[b'x'; 63][..]]).is_ok());
        // 255-byte total cap: four 63-byte labels = 4*64+1 = 257 > 255.
        let l = [b'a'; 63];
        assert!(Name::from_labels([&l[..], &l[..], &l[..], &l[..]]).is_err());
    }

    #[test]
    fn wire_round_trip_plain() {
        let name = n("ts123.src.dst.asn.kw.dns-lab.org");
        let mut w = WireWriter::new();
        name.encode(&mut w);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        let back = Name::decode(&mut r).unwrap();
        assert_eq!(back, name);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn compression_round_trip() {
        let a = n("host.example.org");
        let b = n("other.example.org");
        let mut w = WireWriter::new();
        a.encode(&mut w);
        let mid = w.len();
        b.encode(&mut w);
        let buf = w.into_bytes();
        // Second encoding must be shorter thanks to the pointer.
        assert!(buf.len() - mid < b.wire_len());
        let mut r = WireReader::new(&buf);
        assert_eq!(Name::decode(&mut r).unwrap(), a);
        assert_eq!(Name::decode(&mut r).unwrap(), b);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn exact_duplicate_compresses_to_pointer_only() {
        let a = n("dup.example.org");
        let mut w = WireWriter::new();
        a.encode(&mut w);
        let mid = w.len();
        a.encode(&mut w);
        let buf = w.into_bytes();
        assert_eq!(buf.len() - mid, 2, "second copy should be a bare pointer");
        let mut r = WireReader::new(&buf);
        assert_eq!(Name::decode(&mut r).unwrap(), a);
        assert_eq!(Name::decode(&mut r).unwrap(), a);
    }

    #[test]
    fn compression_at_pointer_range_boundary() {
        // A name whose first occurrence starts exactly at offset 0x3FFF —
        // the largest representable 14-bit pointer target — must be
        // remembered and compressed to (0xC000 | 0x3FFF).
        let a = n("edge.example.org");
        let mut w = WireWriter::new();
        w.bytes(&vec![0u8; 0x3FFF]);
        assert_eq!(w.len(), 0x3FFF);
        a.encode(&mut w);
        let mid = w.len();
        a.encode(&mut w);
        let buf = w.into_bytes();
        assert_eq!(buf.len() - mid, 2, "second copy should be a bare pointer");
        assert_eq!(&buf[mid..], &[0xFF, 0xFF], "pointer to offset 0x3FFF");
        let mut r = WireReader::new(&buf);
        r.seek(mid).unwrap();
        assert_eq!(Name::decode(&mut r).unwrap(), a);

        // One byte further the offset no longer fits in 14 bits: the name
        // must be written in full again, never as a corrupt pointer.
        let mut w = WireWriter::new();
        w.bytes(&vec![0u8; 0x4000]);
        a.encode(&mut w);
        let mid = w.len();
        a.encode(&mut w);
        let buf = w.into_bytes();
        assert_eq!(buf.len() - mid, a.wire_len());
        let mut r = WireReader::new(&buf);
        r.seek(mid).unwrap();
        assert_eq!(Name::decode(&mut r).unwrap(), a);
    }

    #[test]
    fn decode_rejects_forward_pointer() {
        // Pointer at offset 0 pointing to offset 0 (self-loop).
        let buf = [0xC0, 0x00];
        let mut r = WireReader::new(&buf);
        assert_eq!(Name::decode(&mut r), Err(WireError::BadPointer));
    }

    #[test]
    fn decode_rejects_pointer_chain_loop() {
        // name at 0: pointer to 2; at 2: label "x" then pointer back to 0.
        let buf = [0xC0, 0x02, 0x01, b'x', 0xC0, 0x00];
        let mut r = WireReader::new(&buf);
        // Forward pointer (0 -> 2) already rejected.
        assert_eq!(Name::decode(&mut r), Err(WireError::BadPointer));
        // Start decoding at 2: pointer back to 0 -> pointer to 2 again = loop;
        // rejected because 2 >= 2 after the first backward hop.
        let mut r2 = WireReader::new(&buf);
        r2.seek(2).unwrap();
        assert_eq!(Name::decode(&mut r2), Err(WireError::BadPointer));
    }

    #[test]
    fn decode_rejects_truncation_and_bad_label_type() {
        let buf = [5, b'a', b'b']; // label claims 5 bytes, only 2 present
        let mut r = WireReader::new(&buf);
        assert_eq!(Name::decode(&mut r), Err(WireError::Truncated));

        let buf = [0x80, 0x01]; // reserved label type 10xxxxxx
        let mut r = WireReader::new(&buf);
        assert_eq!(Name::decode(&mut r), Err(WireError::BadLabel));
    }

    #[test]
    fn decode_rejects_overlong_assembled_name() {
        // Build 5 chained 63-byte labels (would be 321 wire bytes).
        let mut buf = Vec::new();
        for _ in 0..5 {
            buf.push(63);
            buf.extend_from_slice(&[b'a'; 63]);
        }
        buf.push(0);
        let mut r = WireReader::new(&buf);
        assert_eq!(Name::decode(&mut r), Err(WireError::NameTooLong));
    }

    #[test]
    fn display_escapes_weird_bytes() {
        let name = Name::from_labels([&b"a.b"[..], &b"c\\d"[..], &[0x07][..]]).unwrap();
        assert_eq!(name.to_string(), "a\\.b.c\\\\d.\\007");
    }

    #[test]
    fn reverse_ptr_names() {
        assert_eq!(
            Name::reverse_ptr("192.0.2.7".parse().unwrap()).to_string(),
            "7.2.0.192.in-addr.arpa"
        );
        let v6 = Name::reverse_ptr("2001:db8::1".parse().unwrap());
        let text = v6.to_string();
        assert!(text.starts_with("1.0.0.0."), "{text}");
        assert!(text.ends_with("8.b.d.0.1.0.0.2.ip6.arpa"), "{text}");
        assert_eq!(v6.label_count(), 34);
        assert!(v6.wire_len() <= 255);
    }

    #[test]
    fn canonical_into_matches_canonical_bytes() {
        for s in ["Example.ORG", "a.b.c.d.example.com", "x", "."] {
            let name: Name = s.parse().unwrap();
            let mut buf = [0u8; MAX_NAME_WIRE_LEN];
            let len = name.canonical_into(&mut buf);
            assert_eq!(&buf[..len], name.canonical_bytes().as_slice());
        }
    }

    #[test]
    fn ordering_is_deterministic() {
        let mut v = [n("b.org"), n("a.org"), n("A.com")];
        v.sort();
        assert_eq!(v[0], n("a.com"));
    }
}
