//! Export the flight recorder's captured packets as libpcap files.
//!
//! The engine's packet-fate spans (deliver, intercept, drop) carry the
//! packet they decided, so the span window is the run's packet capture:
//! traced queries only, in canonical `(time, trace, step)` order, and
//! therefore byte-identical at any shard count.
//!
//! The simulator's packets are abstract (typed fields, no wire bytes), so
//! export synthesizes standards-compliant IPv4/IPv6 + UDP/TCP headers —
//! including real checksums — and writes a classic pcap file
//! (`LINKTYPE_RAW`, so records begin directly with the IP header). The
//! result opens in Wireshark/tcpdump, which is exactly how the paper's
//! authors debugged their own spoofed traffic.

use crate::packet::{Packet, TcpSegment, Transport};
use crate::span::{FlightRecorder, SpanKind};
use std::net::IpAddr;

/// LINKTYPE_RAW: packets start with the IP header (v4 or v6).
const LINKTYPE_RAW: u32 = 101;

/// Serialize one simulated packet into on-the-wire bytes (IP + transport).
pub fn packet_bytes(pkt: &Packet) -> Vec<u8> {
    let l4 = transport_bytes(pkt);
    match (pkt.src, pkt.dst) {
        (IpAddr::V4(s), IpAddr::V4(d)) => {
            let mut out = Vec::with_capacity(20 + l4.len());
            let total_len = 20 + l4.len() as u16 as usize;
            out.extend_from_slice(&[0x45, 0x00]); // v4, IHL 5, DSCP 0
            out.extend_from_slice(&(total_len as u16).to_be_bytes());
            out.extend_from_slice(&[0x00, 0x00]); // identification
            out.extend_from_slice(&[0x00, 0x00]); // flags/fragment
            out.push(pkt.ttl);
            out.push(match pkt.transport {
                Transport::Udp(_) => 17,
                Transport::Tcp(_) => 6,
            });
            out.extend_from_slice(&[0x00, 0x00]); // checksum placeholder
            out.extend_from_slice(&s.octets());
            out.extend_from_slice(&d.octets());
            let csum = internet_checksum(&out[..20]);
            out[10..12].copy_from_slice(&csum.to_be_bytes());
            out.extend_from_slice(&l4);
            out
        }
        (IpAddr::V6(s), IpAddr::V6(d)) => {
            let mut out = Vec::with_capacity(40 + l4.len());
            out.extend_from_slice(&[0x60, 0x00, 0x00, 0x00]); // v6, no TC/flow
            out.extend_from_slice(&(l4.len() as u16).to_be_bytes());
            out.push(match pkt.transport {
                Transport::Udp(_) => 17,
                Transport::Tcp(_) => 6,
            });
            out.push(pkt.ttl); // hop limit
            out.extend_from_slice(&s.octets());
            out.extend_from_slice(&d.octets());
            out.extend_from_slice(&l4);
            out
        }
        _ => unreachable!("mixed-family packets cannot be constructed"),
    }
}

fn transport_bytes(pkt: &Packet) -> Vec<u8> {
    match &pkt.transport {
        Transport::Udp(u) => {
            let len = 8 + u.payload.len();
            let mut out = Vec::with_capacity(len);
            out.extend_from_slice(&u.src_port.to_be_bytes());
            out.extend_from_slice(&u.dst_port.to_be_bytes());
            out.extend_from_slice(&(len as u16).to_be_bytes());
            out.extend_from_slice(&[0, 0]); // checksum placeholder
            out.extend_from_slice(&u.payload);
            let csum = l4_checksum(pkt, &out, 17);
            out[6..8].copy_from_slice(&csum.to_be_bytes());
            out
        }
        Transport::Tcp(t) => {
            let opts = tcp_option_bytes(t);
            let data_offset_words = 5 + opts.len() / 4;
            let mut out = Vec::with_capacity(20 + opts.len() + t.payload.len());
            out.extend_from_slice(&t.src_port.to_be_bytes());
            out.extend_from_slice(&t.dst_port.to_be_bytes());
            out.extend_from_slice(&t.seq.to_be_bytes());
            out.extend_from_slice(&t.ack.to_be_bytes());
            out.push((data_offset_words as u8) << 4);
            let mut flags = 0u8;
            if t.flags.fin {
                flags |= 0x01;
            }
            if t.flags.syn {
                flags |= 0x02;
            }
            if t.flags.rst {
                flags |= 0x04;
            }
            if t.flags.psh {
                flags |= 0x08;
            }
            if t.flags.ack {
                flags |= 0x10;
            }
            out.push(flags);
            out.extend_from_slice(&t.window.to_be_bytes());
            out.extend_from_slice(&[0, 0]); // checksum placeholder
            out.extend_from_slice(&[0, 0]); // urgent pointer
            out.extend_from_slice(&opts);
            out.extend_from_slice(&t.payload);
            let csum = l4_checksum(pkt, &out, 6);
            out[16..18].copy_from_slice(&csum.to_be_bytes());
            out
        }
    }
}

/// TCP options in the order advertised, padded to a 4-byte boundary.
fn tcp_option_bytes(t: &TcpSegment) -> Vec<u8> {
    let mut out = Vec::new();
    if let Some(mss) = t.options.mss {
        out.extend_from_slice(&[2, 4]);
        out.extend_from_slice(&mss.to_be_bytes());
    }
    if t.options.sack_permitted {
        out.extend_from_slice(&[4, 2]);
    }
    if t.options.timestamps {
        out.extend_from_slice(&[8, 10]);
        out.extend_from_slice(&[0; 8]); // TSval/TSecr (synthetic)
    }
    if let Some(ws) = t.options.window_scale {
        out.extend_from_slice(&[3, 3, ws]);
    }
    while out.len() % 4 != 0 {
        out.push(1); // NOP padding
    }
    out
}

/// RFC 1071 internet checksum.
pub fn internet_checksum(bytes: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut chunks = bytes.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Transport checksum over the pseudo-header + segment.
fn l4_checksum(pkt: &Packet, segment: &[u8], proto: u8) -> u16 {
    let mut pseudo = Vec::with_capacity(40 + segment.len());
    match (pkt.src, pkt.dst) {
        (IpAddr::V4(s), IpAddr::V4(d)) => {
            pseudo.extend_from_slice(&s.octets());
            pseudo.extend_from_slice(&d.octets());
            pseudo.push(0);
            pseudo.push(proto);
            pseudo.extend_from_slice(&(segment.len() as u16).to_be_bytes());
        }
        (IpAddr::V6(s), IpAddr::V6(d)) => {
            pseudo.extend_from_slice(&s.octets());
            pseudo.extend_from_slice(&d.octets());
            pseudo.extend_from_slice(&(segment.len() as u32).to_be_bytes());
            pseudo.extend_from_slice(&[0, 0, 0]);
            pseudo.push(proto);
        }
        _ => unreachable!(),
    }
    pseudo.extend_from_slice(segment);
    let c = internet_checksum(&pseudo);
    // UDP uses 0xFFFF to represent a computed zero.
    if c == 0 && proto == 17 {
        0xFFFF
    } else {
        c
    }
}

/// Serialize the recorder's captured packets to classic pcap bytes. By
/// default only deliveries and middlebox intercepts are included (one copy
/// per hop); pass `include_drops` to also capture filtered packets (useful
/// to *see* DSAV at work in Wireshark).
pub fn pcap_bytes(flight: &FlightRecorder, include_drops: bool) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&0xa1b2_c3d4u32.to_le_bytes());
    out.extend_from_slice(&2u16.to_le_bytes()); // major
    out.extend_from_slice(&4u16.to_le_bytes()); // minor
    out.extend_from_slice(&0i32.to_le_bytes()); // thiszone
    out.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
    out.extend_from_slice(&65_535u32.to_le_bytes()); // snaplen
    out.extend_from_slice(&LINKTYPE_RAW.to_le_bytes());

    for (time, kind, pkt) in flight.packets() {
        if kind == SpanKind::Fate && !include_drops {
            continue;
        }
        let bytes = packet_bytes(pkt);
        let ns = time.as_nanos();
        out.extend_from_slice(&((ns / 1_000_000_000) as u32).to_le_bytes());
        out.extend_from_slice(&(((ns % 1_000_000_000) / 1_000) as u32).to_le_bytes());
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&bytes);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{TcpFlags, TcpOptions};
    use crate::time::SimTime;

    fn udp4() -> Packet {
        Packet::udp(
            "192.0.2.1".parse().unwrap(),
            "198.51.100.2".parse().unwrap(),
            40_000,
            53,
            vec![0xDE, 0xAD, 0xBE, 0xEF],
        )
        .with_trace(7)
    }

    fn syn6() -> Packet {
        Packet::tcp(
            "2001:db8::1".parse().unwrap(),
            "2001:db8::2".parse().unwrap(),
            TcpSegment {
                src_port: 50_000,
                dst_port: 53,
                flags: TcpFlags::SYN,
                seq: 7,
                ack: 0,
                window: 29_200,
                options: TcpOptions {
                    mss: Some(1_460),
                    window_scale: Some(7),
                    sack_permitted: true,
                    timestamps: true,
                    layout: "mss,sok,ts,nop,ws",
                },
                payload: crate::payload::Payload::empty(),
            },
        )
    }

    #[test]
    fn ipv4_header_is_well_formed() {
        let bytes = packet_bytes(&udp4());
        assert_eq!(bytes[0], 0x45);
        assert_eq!(bytes[9], 17); // UDP
        let total_len = u16::from_be_bytes([bytes[2], bytes[3]]) as usize;
        assert_eq!(total_len, bytes.len());
        assert_eq!(total_len, 20 + 8 + 4);
        // Header checksum verifies to zero.
        assert_eq!(internet_checksum(&bytes[..20]), 0);
        // Source/destination octets in place.
        assert_eq!(&bytes[12..16], &[192, 0, 2, 1]);
        assert_eq!(&bytes[16..20], &[198, 51, 100, 2]);
    }

    #[test]
    fn udp_checksum_verifies() {
        let pkt = udp4();
        let bytes = packet_bytes(&pkt);
        let seg = &bytes[20..];
        // Recomputing over pseudo-header + segment (checksum field included)
        // must give 0 (or 0xFFFF handling aside, the complement property).
        let mut pseudo = Vec::new();
        pseudo.extend_from_slice(&[192, 0, 2, 1, 198, 51, 100, 2, 0, 17]);
        pseudo.extend_from_slice(&(seg.len() as u16).to_be_bytes());
        pseudo.extend_from_slice(seg);
        assert_eq!(internet_checksum(&pseudo), 0);
    }

    #[test]
    fn ipv6_tcp_with_options_is_well_formed() {
        let bytes = packet_bytes(&syn6());
        assert_eq!(bytes[0] >> 4, 6);
        assert_eq!(bytes[6], 6); // next header TCP
        let payload_len = u16::from_be_bytes([bytes[4], bytes[5]]) as usize;
        assert_eq!(payload_len, bytes.len() - 40);
        // TCP data offset covers header + options (mss 4 + sack 2 + ts 10 +
        // ws 3 = 19 → padded to 20 → offset (20+20)/4 = 10 words).
        let tcp = &bytes[40..];
        assert_eq!(tcp[12] >> 4, 10);
        assert_eq!(tcp[13], 0x02); // SYN only
                                   // Options begin with MSS kind/len and the value.
        assert_eq!(&tcp[20..24], &[2, 4, 0x05, 0xB4]);
        // TCP checksum verifies over the v6 pseudo-header.
        let mut pseudo = Vec::new();
        let src: std::net::Ipv6Addr = "2001:db8::1".parse().unwrap();
        let dst: std::net::Ipv6Addr = "2001:db8::2".parse().unwrap();
        pseudo.extend_from_slice(&src.octets());
        pseudo.extend_from_slice(&dst.octets());
        pseudo.extend_from_slice(&(tcp.len() as u32).to_be_bytes());
        pseudo.extend_from_slice(&[0, 0, 0, 6]);
        pseudo.extend_from_slice(tcp);
        assert_eq!(internet_checksum(&pseudo), 0);
    }

    #[test]
    fn pcap_file_structure() {
        let pkt = udp4();
        let mut fr = FlightRecorder::with_capacity(10);
        fr.record(
            SimTime::from_secs(1),
            pkt.trace,
            SpanKind::Send,
            "tx".into(),
        );
        fr.record_packet(
            SimTime::from_secs(2),
            pkt.trace,
            SpanKind::Deliver,
            "rx".into(),
            &pkt,
        );
        fr.record_packet(
            SimTime::from_secs(3),
            pkt.trace,
            SpanKind::Fate,
            "drop dsav-ingress".into(),
            &pkt,
        );
        let bytes = pcap_bytes(&fr, false);
        // Global header + exactly one record (the delivery only).
        assert_eq!(
            u32::from_le_bytes(bytes[0..4].try_into().unwrap()),
            0xa1b2_c3d4
        );
        assert_eq!(
            u32::from_le_bytes(bytes[20..24].try_into().unwrap()),
            LINKTYPE_RAW
        );
        let rec_len = u32::from_le_bytes(bytes[32..36].try_into().unwrap()) as usize;
        assert_eq!(bytes.len(), 24 + 16 + rec_len);
        assert_eq!(u32::from_le_bytes(bytes[24..28].try_into().unwrap()), 2); // ts_sec

        // With drops, two records.
        let with_drops = pcap_bytes(&fr, true);
        assert_eq!(with_drops.len(), 24 + 2 * (16 + rec_len));
    }

    #[test]
    fn internet_checksum_known_vector() {
        // RFC 1071 example: 0x0001f203f4f5f6f7 → checksum 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2u16);
    }
}
