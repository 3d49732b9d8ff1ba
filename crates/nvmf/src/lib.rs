//! # nvmf — NVMe-over-Fabrics (TCP transport) runtime
//!
//! The comparator the paper measures against: a userspace, polled,
//! SPDK-v20.07-style NVMe-oF runtime. It provides:
//!
//! * [`pdu`] — NVMe/TCP PDU types with byte-level encode/decode
//!   (CapsuleCmd, CapsuleResp, H2CData, C2HData, R2T). The common-header
//!   flag bits and SQE reserved bytes that NVMe-oPF borrows for its
//!   priority flags and initiator IDs (§IV-A) are modelled explicitly so
//!   "the size of the PDUs remains unchanged".
//! * [`qpair`] — command-identifier allocation and outstanding-request
//!   tracking for one I/O queue pair.
//! * [`costs`] — the reactor/initiator CPU cost model (per-PDU parse,
//!   build, and send costs; Table I testbed scaling; the backpressured
//!   small-send penalty).
//! * [`error`] — [`ProtocolError`], the one typed record of a protocol
//!   violation, which both transports count and keep.
//! * [`admin`] — the fabrics control plane a keep-alive loop drives:
//!   Connect/Identify/Keep-Alive over the fabric, controller expiry
//!   after the keep-alive timeout, and reconnect.
//! * [`target`] — the one transport-level target (connection registry,
//!   identity and CID checks, R2T grant, duplicate suppression, sends)
//!   with a [`TargetPolicy`] hook. Under its own pass-through policy it
//!   is the baseline: single reactor, FIFO processing, **one completion
//!   capsule per request** regardless of tenant needs.
//! * [`initiator`] — the one transport-level initiator (queue pair,
//!   retry, wire, completion) with a [`PriorityPolicy`] hook. Under its
//!   own pass-through policy it is the baseline: closed queue-depth
//!   loop, one completion processed per request.
//!
//! The NVMe-oPF runtime in the `opf` crate reuses the PDU, qpair and cost
//! layers and drives this initiator and this target through its Priority
//! Manager policies.

// no-panic (DESIGN.md §10): bad input is a counted or typed error, never a crash.
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod admin;
pub mod costs;
pub mod error;
pub mod initiator;
pub mod pdu;
pub mod qpair;
pub mod target;

pub use admin::{AdminClient, AdminService, KeepAliveStats};
pub use costs::CpuCosts;
pub use error::{ProtocolError, ProtocolSide};
pub use initiator::{InitiatorStats, IoOutcome, PriorityPolicy, SpdkInitiator, TargetRx};
pub use pdu::{Pdu, PduKind, Priority};
pub use qpair::{QPair, RetryPolicy};
pub use target::{SpdkTarget, TargetPolicy, TargetStats};

use simkit::Kernel;

/// How a target delivers a PDU back to one initiator, and how an
/// initiator delivers to its target. Concrete runtimes register closures
/// capturing their `Shared<...>` handles, which keeps the baseline and
/// NVMe-oPF endpoints interoperable with the same plumbing.
pub type PduRx = std::rc::Rc<dyn Fn(&mut Kernel, Pdu)>;
