//! NVMe command set types: submission and completion queue entries.
//!
//! Layouts follow the NVMe 1.4 base specification closely enough that the
//! NVMe/TCP capsules built on top of them have realistic sizes (64-byte
//! SQE, 16-byte CQE) and that reserved fields exist for NVMe-oPF to claim
//! — the paper writes its priority flags and initiator IDs into reserved
//! PDU bits so that "the size of the PDUs remains unchanged" (§IV-A).

/// Logical block size used throughout the reproduction (the paper's I/O
/// unit is 4K).
pub const BLOCK_SIZE: usize = 4096;

/// Size of an encoded submission queue entry.
pub const SQE_BYTES: usize = 64;

/// Size of an encoded completion queue entry.
pub const CQE_BYTES: usize = 16;

/// NVM command opcodes (subset used by the reproduction).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// Flush volatile write cache.
    Flush = 0x00,
    /// Write logical blocks.
    Write = 0x01,
    /// Read logical blocks.
    Read = 0x02,
}

impl Opcode {
    /// Decode an opcode byte.
    pub fn from_u8(v: u8) -> Option<Opcode> {
        match v {
            0x00 => Some(Opcode::Flush),
            0x01 => Some(Opcode::Write),
            0x02 => Some(Opcode::Read),
            _ => None,
        }
    }

    /// True for commands that transfer data host→device.
    pub fn is_write(self) -> bool {
        matches!(self, Opcode::Write)
    }

    /// True for commands that transfer data device→host.
    pub fn is_read(self) -> bool {
        matches!(self, Opcode::Read)
    }
}

/// Command completion status (subset).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum Status {
    /// Successful completion.
    Success = 0x0,
    /// Invalid field in command (e.g. unknown opcode).
    InvalidField = 0x2,
    /// LBA out of range.
    LbaOutOfRange = 0x80,
    /// Internal device error.
    InternalError = 0x6,
}

impl Status {
    /// Decode a status code.
    pub fn from_u16(v: u16) -> Status {
        match v {
            0x0 => Status::Success,
            0x2 => Status::InvalidField,
            0x80 => Status::LbaOutOfRange,
            _ => Status::InternalError,
        }
    }

    /// True on success.
    pub fn is_ok(self) -> bool {
        self == Status::Success
    }
}

/// A submission queue entry: one I/O command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sqe {
    /// Command opcode.
    pub opcode: Opcode,
    /// Command identifier, unique among this queue's in-flight commands.
    pub cid: u16,
    /// Namespace identifier (1-based, per spec).
    pub nsid: u32,
    /// Starting logical block address.
    pub slba: u64,
    /// Number of logical blocks, **0-based** per spec (0 ⇒ 1 block).
    pub nlb: u16,
}

impl Sqe {
    /// Construct a read command covering `blocks` logical blocks.
    pub fn read(cid: u16, nsid: u32, slba: u64, blocks: u16) -> Sqe {
        assert!(blocks >= 1, "blocks is 1-based here");
        Sqe {
            opcode: Opcode::Read,
            cid,
            nsid,
            slba,
            nlb: blocks - 1,
        }
    }

    /// Construct a write command covering `blocks` logical blocks.
    pub fn write(cid: u16, nsid: u32, slba: u64, blocks: u16) -> Sqe {
        assert!(blocks >= 1, "blocks is 1-based here");
        Sqe {
            opcode: Opcode::Write,
            cid,
            nsid,
            slba,
            nlb: blocks - 1,
        }
    }

    /// Number of logical blocks this command covers (1-based).
    pub fn blocks(&self) -> u32 {
        u32::from(self.nlb) + 1
    }

    /// Bytes of data this command transfers.
    pub fn data_len(&self) -> usize {
        self.blocks() as usize * BLOCK_SIZE
    }

    /// Encode into the 64-byte SQE wire layout (DW0: opcode|…|CID,
    /// DW1: NSID, DW10/11: SLBA, DW12: NLB; unused DWs zero — those are
    /// the reserved bytes NVMe-oPF's transport borrows).
    pub fn encode(&self) -> [u8; SQE_BYTES] {
        let mut b = [0u8; SQE_BYTES];
        b[0] = self.opcode as u8;
        b[2..4].copy_from_slice(&self.cid.to_le_bytes());
        b[4..8].copy_from_slice(&self.nsid.to_le_bytes());
        b[40..48].copy_from_slice(&self.slba.to_le_bytes());
        b[48..50].copy_from_slice(&self.nlb.to_le_bytes());
        b
    }

    /// Decode from the 64-byte wire layout. `None` on unknown opcode.
    pub fn decode(b: &[u8; SQE_BYTES]) -> Option<Sqe> {
        Some(Sqe {
            opcode: Opcode::from_u8(b[0])?,
            cid: u16::from_le_bytes([b[2], b[3]]),
            nsid: u32::from_le_bytes([b[4], b[5], b[6], b[7]]),
            slba: u64::from_le_bytes([b[40], b[41], b[42], b[43], b[44], b[45], b[46], b[47]]),
            nlb: u16::from_le_bytes([b[48], b[49]]),
        })
    }
}

/// A completion queue entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cqe {
    /// CID of the completed command.
    pub cid: u16,
    /// Completion status.
    pub status: Status,
    /// Submission queue head pointer at completion time (flow control).
    pub sq_head: u16,
    /// Command-specific result (unused by I/O reads/writes).
    pub result: u32,
}

impl Cqe {
    /// A successful completion for `cid`.
    pub fn success(cid: u16, sq_head: u16) -> Cqe {
        Cqe {
            cid,
            status: Status::Success,
            sq_head,
            result: 0,
        }
    }

    /// An error completion for `cid`.
    pub fn error(cid: u16, sq_head: u16, status: Status) -> Cqe {
        Cqe {
            cid,
            status,
            sq_head,
            result: 0,
        }
    }

    /// Encode into the 16-byte CQE wire layout.
    pub fn encode(&self) -> [u8; CQE_BYTES] {
        let mut b = [0u8; CQE_BYTES];
        b[0..4].copy_from_slice(&self.result.to_le_bytes());
        b[8..10].copy_from_slice(&self.sq_head.to_le_bytes());
        b[12..14].copy_from_slice(&self.cid.to_le_bytes());
        b[14..16].copy_from_slice(&((self.status as u16) << 1).to_le_bytes());
        b
    }

    /// Decode from the 16-byte wire layout.
    pub fn decode(b: &[u8; CQE_BYTES]) -> Cqe {
        Cqe {
            result: u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
            sq_head: u16::from_le_bytes([b[8], b[9]]),
            cid: u16::from_le_bytes([b[12], b[13]]),
            status: Status::from_u16(u16::from_le_bytes([b[14], b[15]]) >> 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_roundtrip() {
        for op in [Opcode::Flush, Opcode::Write, Opcode::Read] {
            assert_eq!(Opcode::from_u8(op as u8), Some(op));
        }
        assert_eq!(Opcode::from_u8(0x99), None);
        assert!(Opcode::Read.is_read() && !Opcode::Read.is_write());
        assert!(Opcode::Write.is_write() && !Opcode::Write.is_read());
    }

    #[test]
    fn sqe_builders() {
        let r = Sqe::read(7, 1, 100, 1);
        assert_eq!(r.nlb, 0);
        assert_eq!(r.blocks(), 1);
        assert_eq!(r.data_len(), 4096);
        let w = Sqe::write(8, 1, 0, 4);
        assert_eq!(w.blocks(), 4);
        assert_eq!(w.data_len(), 16384);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_block_command_rejected() {
        let _ = Sqe::read(0, 1, 0, 0);
    }

    #[test]
    fn sqe_encode_decode_roundtrip() {
        let sqe = Sqe::write(0xBEEF, 3, 0x1234_5678_9ABC, 16);
        let enc = sqe.encode();
        assert_eq!(enc.len(), 64);
        assert_eq!(Sqe::decode(&enc), Some(sqe));
    }

    #[test]
    fn sqe_decode_rejects_bad_opcode() {
        let mut enc = Sqe::read(1, 1, 1, 1).encode();
        enc[0] = 0x77;
        assert_eq!(Sqe::decode(&enc), None);
    }

    #[test]
    fn cqe_encode_decode_roundtrip() {
        for status in [
            Status::Success,
            Status::InvalidField,
            Status::LbaOutOfRange,
            Status::InternalError,
        ] {
            let cqe = Cqe {
                cid: 0xACE,
                status,
                sq_head: 42,
                result: 0xDEAD_BEEF,
            };
            let enc = cqe.encode();
            assert_eq!(enc.len(), 16);
            assert_eq!(Cqe::decode(&enc), cqe);
        }
    }

    #[test]
    fn status_predicates() {
        assert!(Status::Success.is_ok());
        assert!(!Status::LbaOutOfRange.is_ok());
    }

    proptest::proptest! {
        #[test]
        fn sqe_roundtrip_any(cid: u16, nsid: u32, slba: u64, nlb: u16, op in 0u8..3) {
            let sqe = Sqe {
                opcode: Opcode::from_u8(op).unwrap(),
                cid, nsid, slba, nlb,
            };
            proptest::prop_assert_eq!(Sqe::decode(&sqe.encode()), Some(sqe));
        }

        #[test]
        fn cqe_roundtrip_any(cid: u16, sq_head: u16, result: u32) {
            let cqe = Cqe { cid, status: Status::Success, sq_head, result };
            proptest::prop_assert_eq!(Cqe::decode(&cqe.encode()), cqe);
        }
    }
}
