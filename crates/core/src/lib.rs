//! # opf — NVMe-over-Priority-Fabrics (NVMe-oPF)
//!
//! The paper's contribution: a userspace NVMe-oF runtime where
//! applications tag each I/O as **latency-sensitive (LS)** or
//! **throughput-critical (TC)** and the runtime honours the tag across
//! the fabric (§III):
//!
//! * **Request flags** ride reserved PDU bits ([`nvmf::Priority`]); an
//!   8-bit initiator ID makes the target tenant-aware.
//! * The **initiator Priority Manager** ([`OpfInitiator`]) queues the CID
//!   of every TC request in a lock-free, zero-copy [`queues::CidQueue`],
//!   tags every `window`-th request with the **draining** flag
//!   (Algorithm 1), and on the single coalesced completion marks every
//!   preceding request complete in issue order (Algorithm 2 — this is
//!   also what absorbs the device's out-of-order completions, §IV-C).
//! * The **target Priority Manager** ([`OpfTarget`]) keeps one TC queue
//!   *per initiator* (the lock-free design of §IV-A: queues are never
//!   shared between tenants), stages TC requests until a drain arrives,
//!   executes the batch, and replies with **one** completion capsule
//!   (Algorithms 3–4). LS requests bypass all TC queues and execute
//!   immediately.
//! * **Window-size optimization** (§IV-D): a static selection table over
//!   (network speed, workload mix) plus a runtime hill-climbing
//!   optimizer that retunes after drain completions.
//!
//! The crate deliberately reuses the `nvmf` PDU/cost/qpair layers and
//! its transport initiator and target — [`OpfInitiator`] is an
//! [`nvmf::SpdkInitiator`] plus a [`nvmf::PriorityPolicy`], [`OpfTarget`]
//! an [`nvmf::SpdkTarget`] plus a [`nvmf::TargetPolicy`] — so the
//! baseline and NVMe-oPF differ only in the priority logic: the same
//! discipline the paper follows by patching SPDK rather than rewriting
//! it.

// no-panic (DESIGN.md §10): bad input is a counted or typed error, never a crash.
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod config;
pub mod initiator;
pub mod target;
pub mod window;

pub use config::{
    DrainRateLimit, OpfInitiatorConfig, OpfTargetConfig, QueueMode, ReqClass, WindowPolicy,
};
pub use initiator::{OpfInitiator, OpfInitiatorStats};
pub use nvmf::{ProtocolError, ProtocolSide};
pub use target::{ExtractedTenant, OpfTarget, OpfTargetStats, MAX_QUEUE_DEPTH};
pub use window::{optimal_window, DynamicWindow};
