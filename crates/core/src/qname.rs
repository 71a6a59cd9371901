//! The experiment query-name codec (§3.3).
//!
//! Every probe query is for `ts.src.dst.asn.kw.<suffix>` where
//!
//! * `ts` — send timestamp (simulated nanoseconds, label `t<ns>`): makes
//!   every name globally unique (never a cache hit) and lets the analysis
//!   compute a query's *lifetime* (§3.6.3),
//! * `src` — the spoofed source address (label `s<addr>` with `-`
//!   separators),
//! * `dst` — the target address (`d<addr>`),
//! * `asn` — the target's ASN (`a<asn>`),
//! * `kw` — the experiment keyword,
//! * `<suffix>` — one of the experiment zones: the main `dns-lab.org`
//!   (reachability), `f4.`/`f6.` (IPv4-/IPv6-only follow-ups), or `tcp.`
//!   (the TC=1 zone forcing DNS-over-TCP).
//!
//! A query observed at the authoritative servers that carries all five
//! labels decodes to an [`ExperimentTag`]; queries cut short by QNAME
//! minimization decode to [`Decoded::Partial`] (§3.6.4).

use bcd_dnswire::{Name, WireReader, WireWriter, MAX_NAME_WIRE_LEN};
use bcd_netsim::SimTime;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Which experiment zone a name belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuffixKind {
    /// `dns-lab.org` — the initial reachability probes.
    Main,
    /// `f4.dns-lab.org` — delegated with IPv4-only glue.
    F4,
    /// `f6.dns-lab.org` — delegated with IPv6-only glue.
    F6,
    /// `tcp.dns-lab.org` — answers UDP with TC=1.
    Tcp,
}

/// The decoded identity of a fully-labelled experiment query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentTag {
    /// When the probe was sent.
    pub ts: SimTime,
    /// The spoofed source address used.
    pub src: IpAddr,
    /// The target address.
    pub dst: IpAddr,
    /// The target's ASN (as resolved at planning time).
    pub asn: u32,
    pub suffix: SuffixKind,
}

/// Outcome of decoding an authoritative-side query name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decoded {
    /// All five labels present.
    Full(ExperimentTag),
    /// Under an experiment zone but with fewer labels — the footprint of a
    /// QNAME-minimizing resolver that halted on NXDOMAIN (§3.6.4).
    Partial { suffix: SuffixKind, labels: usize },
    /// Not an experiment name.
    Foreign,
}

/// Encoder/decoder bound to the experiment's zones and keyword.
#[derive(Debug, Clone)]
pub struct QnameCodec {
    kw: String,
    main: Name,
    f4: Name,
    f6: Name,
    tcp: Name,
    /// Uncompressed wire bytes of `kw.<zone apex>` (root byte included),
    /// one per [`SuffixKind`] in declaration order: the constant tail of
    /// every probe name, copied whole by [`QnameCodec::write_wire`].
    tails: [Vec<u8>; 4],
}

/// Append `v` in decimal.
fn push_dec(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Append `v` in lowercase hex without leading zeros (`{:x}`).
fn push_hex(out: &mut Vec<u8>, v: u16) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut shift = 12;
    while shift > 0 && v >> shift == 0 {
        shift -= 4;
    }
    loop {
        out.push(HEX[usize::from((v >> shift) & 0xF)]);
        if shift == 0 {
            break;
        }
        shift -= 4;
    }
}

/// Append an address: dash-joined decimal octets (v4) or hex segments (v6).
fn push_addr(out: &mut Vec<u8>, ip: IpAddr) {
    match ip {
        IpAddr::V4(a) => {
            for (i, o) in a.octets().into_iter().enumerate() {
                if i > 0 {
                    out.push(b'-');
                }
                push_dec(out, u64::from(o));
            }
        }
        IpAddr::V6(a) => {
            for (i, s) in a.segments().into_iter().enumerate() {
                if i > 0 {
                    out.push(b'-');
                }
                push_hex(out, s);
            }
        }
    }
}

/// Append one label, length byte first: `tag`, then what `body` writes.
fn push_label(out: &mut Vec<u8>, tag: u8, body: impl FnOnce(&mut Vec<u8>)) {
    let len_at = out.len();
    out.push(0);
    out.push(tag);
    body(out);
    out[len_at] = (out.len() - len_at - 1) as u8;
}

fn decode_addr(label: &[u8]) -> Option<IpAddr> {
    let text = std::str::from_utf8(label).ok()?;
    let text = text.strip_prefix(['s', 'd'])?;
    let parts: Vec<&str> = text.split('-').collect();
    match parts.len() {
        4 => {
            let mut o = [0u8; 4];
            for (i, p) in parts.iter().enumerate() {
                o[i] = p.parse().ok()?;
            }
            Some(IpAddr::V4(Ipv4Addr::from(o)))
        }
        8 => {
            let mut s = [0u16; 8];
            for (i, p) in parts.iter().enumerate() {
                s[i] = u16::from_str_radix(p, 16).ok()?;
            }
            Some(IpAddr::V6(Ipv6Addr::from(s)))
        }
        _ => None,
    }
}

impl QnameCodec {
    /// A codec for the experiment zones rooted at `apex` (e.g.
    /// `dns-lab.org`) with keyword `kw`. Panics if `kw` is not a valid
    /// label.
    pub fn new(apex: &Name, kw: &str) -> QnameCodec {
        let main = apex.clone();
        let f4 = apex.child("f4").unwrap();
        let f6 = apex.child("f6").unwrap();
        let tcp = apex.child("tcp").unwrap();
        let tail = |zone: &Name| {
            let mut w = WireWriter::new();
            zone.child(kw)
                .expect("kw label")
                .encode_uncompressed(&mut w);
            w.into_bytes()
        };
        QnameCodec {
            kw: kw.to_string(),
            tails: [tail(&main), tail(&f4), tail(&f6), tail(&tcp)],
            main,
            f4,
            f6,
            tcp,
        }
    }

    /// Append the probe name `t<ns>.s<src>.d<dst>.a<asn>.<kw>.<zone apex>`
    /// to `out` in uncompressed wire form (length-prefixed labels, root
    /// byte last). This is the one label formatter: digits are written in
    /// place and the `kw.<apex>` tail is a precomputed copy, so nothing is
    /// allocated beyond `out`'s growth.
    pub fn write_wire(
        &self,
        out: &mut Vec<u8>,
        ts: SimTime,
        src: IpAddr,
        dst: IpAddr,
        asn: u32,
        suffix: SuffixKind,
    ) {
        let start = out.len();
        push_label(out, b't', |o| push_dec(o, ts.as_nanos()));
        push_label(out, b's', |o| push_addr(o, src));
        push_label(out, b'd', |o| push_addr(o, dst));
        push_label(out, b'a', |o| push_dec(o, u64::from(asn)));
        out.extend_from_slice(&self.tails[suffix as usize]);
        assert!(
            out.len() - start <= MAX_NAME_WIRE_LEN,
            "probe name too long"
        );
    }

    /// Build the probe name as a [`Name`]: [`QnameCodec::write_wire`]'s
    /// bytes, parsed. For callers that keep or compare names; the scanner
    /// sends the wire bytes directly.
    pub fn encode(
        &self,
        ts: SimTime,
        src: IpAddr,
        dst: IpAddr,
        asn: u32,
        suffix: SuffixKind,
    ) -> Name {
        let mut wire = Vec::with_capacity(MAX_NAME_WIRE_LEN);
        self.write_wire(&mut wire, ts, src, dst, asn, suffix);
        Name::decode(&mut WireReader::new(&wire)).expect("probe name")
    }

    /// Decode an observed query name.
    pub fn decode(&self, name: &Name) -> Decoded {
        // Longest suffix match among the four zones (tcp/f4/f6 are below
        // main, so check them first).
        let (suffix, apex) = if name.is_subdomain_of(&self.f4) {
            (SuffixKind::F4, &self.f4)
        } else if name.is_subdomain_of(&self.f6) {
            (SuffixKind::F6, &self.f6)
        } else if name.is_subdomain_of(&self.tcp) {
            (SuffixKind::Tcp, &self.tcp)
        } else if name.is_subdomain_of(&self.main) {
            (SuffixKind::Main, &self.main)
        } else {
            return Decoded::Foreign;
        };
        let extra = name.label_count() - apex.label_count();
        if extra < 5 {
            return Decoded::Partial {
                suffix,
                labels: extra,
            };
        }
        // Labels, leftmost first: ts, src, dst, asn, kw, (apex...).
        let labels: Vec<&[u8]> = name.labels().collect();
        let parse = || -> Option<ExperimentTag> {
            let skip = extra - 5; // tolerate junk labels prepended by others
            let ts_label = std::str::from_utf8(labels[skip]).ok()?;
            let ts = SimTime::from_nanos(ts_label.strip_prefix('t')?.parse().ok()?);
            let src = decode_addr(labels[skip + 1])?;
            let dst = decode_addr(labels[skip + 2])?;
            let asn_label = std::str::from_utf8(labels[skip + 3]).ok()?;
            let asn: u32 = asn_label.strip_prefix('a')?.parse().ok()?;
            let kw = std::str::from_utf8(labels[skip + 4]).ok()?;
            if !kw.eq_ignore_ascii_case(&self.kw) {
                return None;
            }
            Some(ExperimentTag {
                ts,
                src,
                dst,
                asn,
                suffix,
            })
        };
        match parse() {
            Some(tag) => Decoded::Full(tag),
            None => Decoded::Partial {
                suffix,
                labels: extra,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec() -> QnameCodec {
        QnameCodec::new(&"dns-lab.org".parse().unwrap(), "x7")
    }

    #[test]
    fn round_trip_v4() {
        let c = codec();
        let ts = SimTime::from_nanos(123_456_789_000);
        let src: IpAddr = "10.1.2.3".parse().unwrap();
        let dst: IpAddr = "203.0.113.77".parse().unwrap();
        let name = c.encode(ts, src, dst, 64_500, SuffixKind::Main);
        assert_eq!(
            name.to_string(),
            "t123456789000.s10-1-2-3.d203-0-113-77.a64500.x7.dns-lab.org"
        );
        match c.decode(&name) {
            Decoded::Full(tag) => {
                assert_eq!(tag.ts, ts);
                assert_eq!(tag.src, src);
                assert_eq!(tag.dst, dst);
                assert_eq!(tag.asn, 64_500);
                assert_eq!(tag.suffix, SuffixKind::Main);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn round_trip_v6_and_suffixes() {
        let c = codec();
        let src: IpAddr = "2001:db8::1".parse().unwrap();
        let dst: IpAddr = "2600:1:2:3::42".parse().unwrap();
        for suffix in [
            SuffixKind::F4,
            SuffixKind::F6,
            SuffixKind::Tcp,
            SuffixKind::Main,
        ] {
            let name = c.encode(SimTime::from_secs(9), src, dst, 7, suffix);
            match c.decode(&name) {
                Decoded::Full(tag) => {
                    assert_eq!(tag.src, src);
                    assert_eq!(tag.dst, dst);
                    assert_eq!(tag.suffix, suffix);
                }
                other => panic!("{suffix:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn qmin_partials_are_detected() {
        let c = codec();
        // What a QNAME-minimizing resolver asks first: kw.dns-lab.org.
        let partial: Name = "x7.dns-lab.org".parse().unwrap();
        assert_eq!(
            c.decode(&partial),
            Decoded::Partial {
                suffix: SuffixKind::Main,
                labels: 1
            }
        );
        let deeper: Name = "a64500.x7.dns-lab.org".parse().unwrap();
        assert_eq!(
            c.decode(&deeper),
            Decoded::Partial {
                suffix: SuffixKind::Main,
                labels: 2
            }
        );
        // The apex itself.
        assert_eq!(
            c.decode(&"dns-lab.org".parse().unwrap()),
            Decoded::Partial {
                suffix: SuffixKind::Main,
                labels: 0
            }
        );
    }

    #[test]
    fn foreign_names_are_rejected() {
        let c = codec();
        assert_eq!(
            c.decode(&"www.example.com".parse().unwrap()),
            Decoded::Foreign
        );
        assert_eq!(c.decode(&"dns-lab.com".parse().unwrap()), Decoded::Foreign);
        // Deceptively similar but not a subdomain.
        assert_eq!(c.decode(&"xdns-lab.org".parse().unwrap()), Decoded::Foreign);
    }

    #[test]
    fn wrong_keyword_degrades_to_partial() {
        let c = codec();
        let name: Name = "t1.s10-0-0-1.d10-0-0-2.a5.other.dns-lab.org"
            .parse()
            .unwrap();
        assert!(matches!(c.decode(&name), Decoded::Partial { .. }));
    }

    #[test]
    fn malformed_labels_degrade_to_partial() {
        let c = codec();
        let name: Name = "bogus.s10-0-0-1.d10-0-0-2.a5.x7.dns-lab.org"
            .parse()
            .unwrap();
        assert!(matches!(c.decode(&name), Decoded::Partial { .. }));
        let bad_ip: Name = "t1.s10-0-0.d10-0-0-2.a5.x7.dns-lab.org".parse().unwrap();
        assert!(matches!(c.decode(&bad_ip), Decoded::Partial { .. }));
    }

    #[test]
    fn f4_vs_main_disambiguation() {
        let c = codec();
        let src: IpAddr = "10.0.0.1".parse().unwrap();
        let dst: IpAddr = "10.0.0.2".parse().unwrap();
        let f4_name = c.encode(SimTime::ZERO, src, dst, 1, SuffixKind::F4);
        // The f4 name is also under dns-lab.org; decoding must pick F4.
        match c.decode(&f4_name) {
            Decoded::Full(tag) => assert_eq!(tag.suffix, SuffixKind::F4),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn labels_respect_dns_limits() {
        let c = codec();
        let name = c.encode(
            SimTime::from_nanos(u64::MAX),
            "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff".parse().unwrap(),
            "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff".parse().unwrap(),
            u32::MAX,
            SuffixKind::Tcp,
        );
        assert!(name.wire_len() <= 255);
        for l in name.labels() {
            assert!(l.len() <= 63);
        }
    }
}
