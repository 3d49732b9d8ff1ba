//! NVMe/TCP protocol data units.
//!
//! Wire layout follows the NVMe/TCP transport binding: every PDU starts
//! with an 8-byte common header (type, flags, hlen, pdo, plen) followed
//! by a PDU-specific header and optional data. The reproduction encodes
//! and decodes real bytes so tests can verify that NVMe-oPF's priority
//! information genuinely fits in reserved bits without growing any PDU
//! (§IV-A: "the size of the PDUs remains unchanged with our priority
//! flags and initiator IDs").
//!
//! NVMe-oPF extensions carried here:
//! * **Priority flags** — three reserved bits of the common-header FLAGS
//!   byte (bit 2: latency-sensitive, bit 3: throughput-critical, bit 4:
//!   draining). LS and TC are mutually exclusive by construction —
//!   [`Priority::to_flag_bits`] never sets both — so a capsule carrying
//!   LS|TC can only be forged or corrupted and decoding rejects it
//!   (§IV-A still holds: the bits are reserved, no PDU grows).
//! * **Initiator ID** — eight reserved bits; we use SQE byte 60 (command
//!   dword 15 is reserved for I/O commands).

use bytes::{BufMut, Bytes, BytesMut};
use nvme::{Cqe, Sqe};

/// Common header length.
pub const CH_LEN: usize = 8;
/// CapsuleCmd PDU: CH + 64-byte SQE.
pub const CAPSULE_CMD_LEN: usize = CH_LEN + 64;
/// CapsuleResp PDU: CH + 16-byte CQE.
pub const CAPSULE_RESP_LEN: usize = CH_LEN + 16;
/// R2T PDU: CH + 16-byte transfer header.
pub const R2T_LEN: usize = CH_LEN + 16;
/// Data PDU header: CH + 16-byte data header (cccid, datao, datal).
pub const DATA_HDR_LEN: usize = CH_LEN + 16;

/// PDU type codes (NVMe/TCP §3.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PduKind {
    /// Command capsule, host → controller.
    CapsuleCmd = 0x04,
    /// Response capsule, controller → host.
    CapsuleResp = 0x05,
    /// Host-to-controller data.
    H2CData = 0x06,
    /// Controller-to-host data.
    C2HData = 0x07,
    /// Ready-to-transfer, controller → host.
    R2T = 0x09,
}

impl PduKind {
    /// Decode a type byte.
    pub fn from_u8(v: u8) -> Option<PduKind> {
        match v {
            0x04 => Some(PduKind::CapsuleCmd),
            0x05 => Some(PduKind::CapsuleResp),
            0x06 => Some(PduKind::H2CData),
            0x07 => Some(PduKind::C2HData),
            0x09 => Some(PduKind::R2T),
            _ => None,
        }
    }
}

/// The NVMe-oPF request priority, encoded in reserved flag bits.
///
/// §III-C: latency-sensitive requests bypass the TC queues; throughput-
/// critical requests are queued and their completions coalesced; the
/// draining bit piggybacks on a TC request to flush the queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Baseline SPDK semantics: no priority information.
    #[default]
    None,
    /// Latency-sensitive: execute and complete immediately.
    LatencySensitive,
    /// Throughput-critical: queue; coalesce the completion.
    ThroughputCritical {
        /// Draining flag: flush all pending TC requests and send one
        /// coalesced completion.
        draining: bool,
    },
}

impl Priority {
    /// Reserved FLAGS bit: latency-sensitive.
    pub const FLAG_LS: u8 = 1 << 2;
    /// Reserved FLAGS bit: throughput-critical.
    pub const FLAG_TC: u8 = 1 << 3;
    /// Reserved FLAGS bit: draining (meaningful only with TC).
    pub const FLAG_DRAIN: u8 = 1 << 4;

    /// Encode into the reserved bits of the CH FLAGS byte.
    pub fn to_flag_bits(self) -> u8 {
        match self {
            Priority::None => 0,
            Priority::LatencySensitive => Self::FLAG_LS,
            Priority::ThroughputCritical { draining } => {
                Self::FLAG_TC | if draining { Self::FLAG_DRAIN } else { 0 }
            }
        }
    }

    /// Decode from the CH FLAGS byte. `None` for the contradictory
    /// LS|TC combination, which no encoder produces: a capsule carrying
    /// it is forged or corrupted, and silently preferring one priority
    /// would let an adversary smuggle traffic into the wrong queue.
    pub fn from_flag_bits(flags: u8) -> Option<Priority> {
        let ls = flags & Self::FLAG_LS != 0;
        let tc = flags & Self::FLAG_TC != 0;
        match (ls, tc) {
            (true, true) => None,
            (false, true) => Some(Priority::ThroughputCritical {
                draining: flags & Self::FLAG_DRAIN != 0,
            }),
            (true, false) => Some(Priority::LatencySensitive),
            (false, false) => Some(Priority::None),
        }
    }

    /// True for TC requests carrying the draining flag.
    pub fn is_draining(self) -> bool {
        matches!(self, Priority::ThroughputCritical { draining: true })
    }

    /// True for throughput-critical requests (draining or not).
    pub fn is_tc(self) -> bool {
        matches!(self, Priority::ThroughputCritical { .. })
    }

    /// True for latency-sensitive requests.
    pub fn is_ls(self) -> bool {
        matches!(self, Priority::LatencySensitive)
    }
}

/// A parsed PDU.
#[derive(Clone, Debug, PartialEq)]
pub enum Pdu {
    /// Command capsule with NVMe-oPF semantic data.
    CapsuleCmd {
        /// The embedded submission queue entry.
        sqe: Sqe,
        /// Request priority (reserved flag bits).
        priority: Priority,
        /// Sending initiator's ID (reserved SQE byte).
        initiator: u8,
    },
    /// Response capsule. For NVMe-oPF, a response to a draining request
    /// acknowledges *all* preceding TC requests of that initiator.
    CapsuleResp {
        /// The embedded completion queue entry.
        cqe: Cqe,
        /// Priority of the request this responds to.
        priority: Priority,
    },
    /// Host-to-controller data (write payload).
    H2CData {
        /// CID of the command this data belongs to.
        cccid: u16,
        /// Payload bytes.
        data: Bytes,
    },
    /// Controller-to-host data (read payload).
    C2HData {
        /// CID of the command this data belongs to.
        cccid: u16,
        /// Payload bytes.
        data: Bytes,
    },
    /// Ready-to-transfer: the controller grants the host permission to
    /// send `r2tl` bytes for command `cccid`.
    R2T {
        /// CID of the write command.
        cccid: u16,
        /// Transfer length granted.
        r2tl: u32,
    },
}

impl Pdu {
    /// The PDU type code.
    pub fn kind(&self) -> PduKind {
        match self {
            Pdu::CapsuleCmd { .. } => PduKind::CapsuleCmd,
            Pdu::CapsuleResp { .. } => PduKind::CapsuleResp,
            Pdu::H2CData { .. } => PduKind::H2CData,
            Pdu::C2HData { .. } => PduKind::C2HData,
            Pdu::R2T { .. } => PduKind::R2T,
        }
    }

    /// Total encoded length in bytes (what the fabric serializes).
    pub fn wire_len(&self) -> usize {
        match self {
            Pdu::CapsuleCmd { .. } => CAPSULE_CMD_LEN,
            Pdu::CapsuleResp { .. } => CAPSULE_RESP_LEN,
            Pdu::R2T { .. } => R2T_LEN,
            Pdu::H2CData { data, .. } | Pdu::C2HData { data, .. } => DATA_HDR_LEN + data.len(),
        }
    }

    /// Encode to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(self.wire_len());
        let (flags, plen) = match self {
            Pdu::CapsuleCmd { priority, .. } => (priority.to_flag_bits(), CAPSULE_CMD_LEN),
            Pdu::CapsuleResp { priority, .. } => (priority.to_flag_bits(), CAPSULE_RESP_LEN),
            Pdu::R2T { .. } => (0, R2T_LEN),
            Pdu::H2CData { data, .. } | Pdu::C2HData { data, .. } => (0, DATA_HDR_LEN + data.len()),
        };
        // Common header: type, flags, hlen, pdo, plen.
        b.put_u8(self.kind() as u8);
        b.put_u8(flags);
        b.put_u8(CH_LEN as u8);
        b.put_u8(0);
        b.put_u32_le(plen as u32);
        match self {
            Pdu::CapsuleCmd { sqe, initiator, .. } => {
                let mut raw = sqe.encode();
                raw[60] = *initiator; // reserved dword 15 byte
                b.put_slice(&raw);
            }
            Pdu::CapsuleResp { cqe, .. } => b.put_slice(&cqe.encode()),
            Pdu::R2T { cccid, r2tl } => {
                b.put_u16_le(*cccid);
                b.put_u16_le(0); // ttag (unused: one outstanding R2T per cmd)
                b.put_u32_le(0); // r2to
                b.put_u32_le(*r2tl);
                b.put_u32_le(0); // reserved
            }
            Pdu::H2CData { cccid, data } | Pdu::C2HData { cccid, data } => {
                b.put_u16_le(*cccid);
                b.put_u16_le(0);
                b.put_u32_le(0); // datao
                b.put_u32_le(data.len() as u32);
                b.put_u32_le(0); // reserved
                b.put_slice(data);
            }
        }
        debug_assert_eq!(b.len(), self.wire_len());
        b.freeze()
    }

    /// Decode from wire bytes. `None` on malformed input.
    pub fn decode(raw: &[u8]) -> Option<Pdu> {
        if raw.len() < CH_LEN {
            return None;
        }
        let kind = PduKind::from_u8(raw[0])?;
        let flags = raw[1];
        let plen = u32::from_le_bytes([raw[4], raw[5], raw[6], raw[7]]) as usize;
        if raw.len() != plen {
            return None;
        }
        let body = &raw[CH_LEN..];
        match kind {
            PduKind::CapsuleCmd => {
                let arr: &[u8; 64] = body.try_into().ok()?;
                let sqe = Sqe::decode(arr)?;
                Some(Pdu::CapsuleCmd {
                    sqe,
                    priority: Priority::from_flag_bits(flags)?,
                    initiator: arr[60],
                })
            }
            PduKind::CapsuleResp => {
                let arr: &[u8; 16] = body.try_into().ok()?;
                Some(Pdu::CapsuleResp {
                    cqe: Cqe::decode(arr),
                    priority: Priority::from_flag_bits(flags)?,
                })
            }
            PduKind::R2T => {
                if body.len() != 16 {
                    return None;
                }
                Some(Pdu::R2T {
                    cccid: u16::from_le_bytes([body[0], body[1]]),
                    r2tl: u32::from_le_bytes([body[8], body[9], body[10], body[11]]),
                })
            }
            PduKind::H2CData | PduKind::C2HData => {
                if body.len() < 16 {
                    return None;
                }
                let cccid = u16::from_le_bytes([body[0], body[1]]);
                let datal = u32::from_le_bytes([body[8], body[9], body[10], body[11]]) as usize;
                let data = &body[16..];
                if data.len() != datal {
                    return None;
                }
                let data = Bytes::copy_from_slice(data);
                Some(match kind {
                    PduKind::H2CData => Pdu::H2CData { cccid, data },
                    _ => Pdu::C2HData { cccid, data },
                })
            }
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tests copy payloads out to compare them"
)]
mod tests {
    use super::*;

    #[test]
    fn priority_flag_bits_roundtrip() {
        for p in [
            Priority::None,
            Priority::LatencySensitive,
            Priority::ThroughputCritical { draining: false },
            Priority::ThroughputCritical { draining: true },
        ] {
            assert_eq!(Priority::from_flag_bits(p.to_flag_bits()), Some(p));
        }
        assert!(Priority::ThroughputCritical { draining: true }.is_draining());
        assert!(!Priority::ThroughputCritical { draining: false }.is_draining());
        assert!(Priority::LatencySensitive.is_ls());
        assert!(!Priority::LatencySensitive.is_tc());
    }

    #[test]
    fn flag_bits_exhaustive() {
        // Every FLAGS byte decodes by the three reserved bits alone:
        // LS|TC together is invalid, otherwise the priority follows the
        // set bit (draining only meaningful on TC), and every valid
        // decode re-encodes to exactly those three bits.
        for flags in 0u8..=255 {
            let ls = flags & Priority::FLAG_LS != 0;
            let tc = flags & Priority::FLAG_TC != 0;
            let drain = flags & Priority::FLAG_DRAIN != 0;
            let got = Priority::from_flag_bits(flags);
            let want = match (ls, tc) {
                (true, true) => None,
                (true, false) => Some(Priority::LatencySensitive),
                (false, true) => Some(Priority::ThroughputCritical { draining: drain }),
                (false, false) => Some(Priority::None),
            };
            assert_eq!(got, want, "flags {flags:#010b}");
            if let Some(p) = got {
                // Round trip drops only the bits that carry no meaning
                // for this priority (e.g. DRAIN without TC).
                assert_eq!(Priority::from_flag_bits(p.to_flag_bits()), Some(p));
            }
        }
    }

    #[test]
    fn decode_rejects_contradictory_priority_flags() {
        // A forged LS|TC capsule must fail to parse rather than being
        // silently classified as TC.
        let raw = Pdu::CapsuleCmd {
            sqe: Sqe::read(1, 1, 0, 1),
            priority: Priority::LatencySensitive,
            initiator: 3,
        }
        .encode();
        let mut forged = raw.to_vec();
        forged[1] |= Priority::FLAG_TC;
        assert_eq!(Pdu::decode(&forged), None);
        let resp = Pdu::CapsuleResp {
            cqe: Cqe::success(1, 0),
            priority: Priority::LatencySensitive,
        }
        .encode();
        let mut forged = resp.to_vec();
        forged[1] |= Priority::FLAG_TC;
        assert_eq!(Pdu::decode(&forged), None);
    }

    #[test]
    fn priority_uses_only_reserved_bits() {
        // Bits 0 and 1 of FLAGS are spec-defined (HDGSTF/DDGSTF); the
        // NVMe-oPF flags must not touch them.
        for p in [
            Priority::LatencySensitive,
            Priority::ThroughputCritical { draining: true },
        ] {
            assert_eq!(p.to_flag_bits() & 0b11, 0);
        }
    }

    #[test]
    fn capsule_cmd_roundtrip_preserves_opf_fields() {
        let pdu = Pdu::CapsuleCmd {
            sqe: Sqe::write(0x1234, 1, 999, 8),
            priority: Priority::ThroughputCritical { draining: true },
            initiator: 0xAB,
        };
        let raw = pdu.encode();
        assert_eq!(raw.len(), CAPSULE_CMD_LEN);
        assert_eq!(Pdu::decode(&raw), Some(pdu));
    }

    #[test]
    fn flags_do_not_change_pdu_size() {
        // §IV-A: priority flags and initiator IDs ride reserved bits.
        let plain = Pdu::CapsuleCmd {
            sqe: Sqe::read(1, 1, 0, 1),
            priority: Priority::None,
            initiator: 0,
        };
        let tagged = Pdu::CapsuleCmd {
            sqe: Sqe::read(1, 1, 0, 1),
            priority: Priority::ThroughputCritical { draining: true },
            initiator: 255,
        };
        assert_eq!(plain.encode().len(), tagged.encode().len());
    }

    #[test]
    fn capsule_resp_roundtrip() {
        let pdu = Pdu::CapsuleResp {
            cqe: Cqe::success(77, 3),
            priority: Priority::ThroughputCritical { draining: true },
        };
        let raw = pdu.encode();
        assert_eq!(raw.len(), CAPSULE_RESP_LEN);
        assert_eq!(Pdu::decode(&raw), Some(pdu));
    }

    #[test]
    fn data_pdus_roundtrip() {
        let payload = Bytes::from(vec![7u8; 4096]);
        for pdu in [
            Pdu::H2CData {
                cccid: 5,
                data: payload.clone(),
            },
            Pdu::C2HData {
                cccid: 6,
                data: payload.clone(),
            },
        ] {
            let raw = pdu.encode();
            assert_eq!(raw.len(), DATA_HDR_LEN + 4096);
            assert_eq!(Pdu::decode(&raw), Some(pdu));
        }
    }

    #[test]
    fn r2t_roundtrip() {
        let pdu = Pdu::R2T {
            cccid: 9,
            r2tl: 4096,
        };
        let raw = pdu.encode();
        assert_eq!(raw.len(), R2T_LEN);
        assert_eq!(Pdu::decode(&raw), Some(pdu));
    }

    #[test]
    fn decode_rejects_malformed() {
        assert_eq!(Pdu::decode(&[]), None);
        assert_eq!(Pdu::decode(&[0xFF; 8]), None);
        // Truncated capsule.
        let raw = Pdu::CapsuleCmd {
            sqe: Sqe::read(1, 1, 0, 1),
            priority: Priority::None,
            initiator: 0,
        }
        .encode();
        assert_eq!(Pdu::decode(&raw[..raw.len() - 1]), None);
        // plen mismatch.
        let mut bad = raw.to_vec();
        bad[4] = 0xFF;
        assert_eq!(Pdu::decode(&bad), None);
    }

    proptest::proptest! {
        #[test]
        fn cmd_roundtrip_any(cid: u16, slba: u64, nlb in 0u16..64, init: u8,
                             flags in 0u8..4, draining: bool) {
            let priority = match flags {
                0 => Priority::None,
                1 => Priority::LatencySensitive,
                _ => Priority::ThroughputCritical { draining },
            };
            let pdu = Pdu::CapsuleCmd {
                sqe: Sqe { opcode: nvme::Opcode::Read, cid, nsid: 1, slba, nlb },
                priority,
                initiator: init,
            };
            proptest::prop_assert_eq!(Pdu::decode(&pdu.encode()), Some(pdu));
        }

        #[test]
        fn decode_never_panics(raw in proptest::collection::vec(
            proptest::prelude::any::<u8>(), 0..128)) {
            let _ = Pdu::decode(&raw);
        }
    }
}
