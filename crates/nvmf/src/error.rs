//! The one typed record of a protocol violation, for both runtimes.
//!
//! A malformed or misdirected PDU must not abort the simulation: in a
//! multi-tenant run one buggy tenant would take down the fabric. Every
//! detection site — in the transport [`crate::SpdkInitiator`] and
//! [`crate::SpdkTarget`], or in a priority policy over them — builds a
//! [`ProtocolError`] and hands it to the transport's `note`, which
//! counts it in `protocol_errors` and keeps it as `last_protocol_error`
//! (the target also traces it); the offending PDU is dropped, so the
//! tenant degrades (its request may strand) while every other tenant
//! keeps running.

use crate::pdu::PduKind;

/// Which protocol engine detected the violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolSide {
    /// An initiator (value = tenant id).
    Initiator(u8),
    /// A target (value = target id).
    Target(u32),
}

/// A protocol violation detected while processing a PDU.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// A PDU kind this side never expects (e.g. an R2T arriving at the
    /// target, or a command capsule arriving at an initiator).
    UnexpectedPdu {
        /// Engine that received the PDU.
        side: ProtocolSide,
        /// The offending PDU kind.
        kind: PduKind,
    },
    /// A response, data, or R2T PDU referenced a CID with no matching
    /// inflight command.
    UnknownCid {
        /// Engine that received the PDU.
        side: ProtocolSide,
        /// The CID that matched nothing.
        cid: u16,
    },
    /// A coalesced TC response named a CID absent from the initiator's CID
    /// queue (Algorithm 2 expects every drain CID to be queued). The CIDs
    /// dequeued while searching are still completed so they do not strand.
    CoalescedCidMissing {
        /// Initiator that received the response.
        initiator: u8,
        /// The drain CID that was not in the queue.
        cid: u16,
        /// How many queued CIDs were dequeued (and completed) in the search.
        drained: usize,
    },
    /// An R2T arrived for a command that has no payload to transfer, or
    /// granted another length than the payload (corrupted in flight).
    R2tWithoutPayload {
        /// Initiator that received the R2T.
        initiator: u8,
        /// The command the R2T referenced.
        cid: u16,
    },
    /// A command capsule's wire initiator byte did not match the
    /// connection it arrived on — the §IV-A identity field was forged
    /// (or corrupted). The capsule is dropped before classification so a
    /// spoofing tenant cannot plant commands in a victim's TC queue.
    IdentityMismatch {
        /// Engine that received the capsule.
        side: ProtocolSide,
        /// Initiator ID claimed by the wire byte.
        claimed: u8,
        /// Initiator the connection actually belongs to.
        expected: u8,
    },
    /// A command capsule carried a CID past the target's
    /// [`crate::target::Dialect::max_cid`] (for NVMe-oPF, the bound its
    /// queue keys can hold, `opf::MAX_QUEUE_DEPTH`) — corrupted in
    /// flight or forged, since no admissible queue pair allocates it.
    /// Dropped before anything is keyed by the CID; a retransmission
    /// recovers the command.
    CidOutOfRange {
        /// Target that dropped the capsule.
        target: u32,
        /// The CID as it arrived.
        cid: u16,
    },
    /// An initiator ID named no registered connection (a second connect
    /// for an already-connected tenant, or a send routed by a forged ID
    /// when identity enforcement is off).
    UnknownInitiator {
        /// Engine that detected the violation.
        side: ProtocolSide,
        /// The unregistered initiator ID.
        initiator: u8,
    },
    /// A tenant's TC staging queue was full; the command was dropped
    /// (counted, recoverable by retransmission) instead of panicking.
    /// Reachable only under adversarial floods — honest closed-loop
    /// tenants are bounded well under the queue capacity.
    TcQueueOverflow {
        /// Target that dropped the command.
        target: u32,
        /// Tenant whose queue overflowed.
        initiator: u8,
        /// The dropped command.
        cid: u16,
    },
    /// An LS-flagged command arrived on a connection registered as
    /// throughput-critical at connect time — the priority bit is forged
    /// (or corrupted). The command is demoted to plain TC so it cannot
    /// jump the bypass queue.
    ForgedPriority {
        /// Target that demoted the command.
        target: u32,
        /// Tenant whose connection carried the forged flag.
        initiator: u8,
        /// The demoted command.
        cid: u16,
    },
    /// A response's echoed priority bits named a different request class
    /// than the one the command was submitted with. The echoed bits are
    /// attacker-influencable (a forged LS flag is reflected back by the
    /// target), so completion handling always follows the locally
    /// recorded class; the mismatch is only recorded.
    RespClassMismatch {
        /// Initiator that received the response.
        initiator: u8,
        /// The command whose response carried the wrong class.
        cid: u16,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::UnexpectedPdu { side, kind } => {
                write!(f, "{side:?} received unexpected PDU {kind:?}")
            }
            ProtocolError::UnknownCid { side, cid } => {
                write!(f, "{side:?} received PDU for unknown CID {cid}")
            }
            ProtocolError::CoalescedCidMissing {
                initiator,
                cid,
                drained,
            } => write!(
                f,
                "Initiator({initiator}) coalesced response CID {cid} not in queue \
                 ({drained} CIDs force-drained)"
            ),
            ProtocolError::R2tWithoutPayload { initiator, cid } => {
                write!(
                    f,
                    "Initiator({initiator}) got R2T for CID {cid} with no payload"
                )
            }
            ProtocolError::IdentityMismatch {
                side,
                claimed,
                expected,
            } => write!(
                f,
                "{side:?} capsule claims initiator {claimed} on initiator {expected}'s connection"
            ),
            ProtocolError::CidOutOfRange { target, cid } => {
                write!(
                    f,
                    "Target({target}) dropped a command with out-of-range CID {cid}"
                )
            }
            ProtocolError::UnknownInitiator { side, initiator } => {
                write!(f, "{side:?} referenced unregistered initiator {initiator}")
            }
            ProtocolError::TcQueueOverflow {
                target,
                initiator,
                cid,
            } => write!(
                f,
                "Target({target}) TC queue full for initiator {initiator}; dropped CID {cid}"
            ),
            ProtocolError::ForgedPriority {
                target,
                initiator,
                cid,
            } => write!(
                f,
                "Target({target}) demoted forged LS flag from TC initiator {initiator}, CID {cid}"
            ),
            ProtocolError::RespClassMismatch { initiator, cid } => write!(
                f,
                "Initiator({initiator}) response for CID {cid} echoed the wrong request class"
            ),
        }
    }
}

impl std::error::Error for ProtocolError {}
