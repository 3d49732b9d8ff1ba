//! # nvme — NVMe SSD controller and device model
//!
//! Substitutes the testbed SSDs of Table I (3.2 TB on Chameleon Cloud,
//! 1.6 TB on CloudLab) with a controller model that preserves the device
//! behaviours the paper's evaluation depends on:
//!
//! * **Out-of-order completion**: commands are serviced by multiple
//!   internal flash units with jittered service times, so CQEs land in a
//!   different order than SQEs were submitted — the problem NVMe-oPF's
//!   initiator-side CID queue absorbs.
//! * **Read/write asymmetry**: 4K reads complete several times faster
//!   than sustained 4K writes ("Read requests complete faster than
//!   write", §V-B), which drives the Figure 7/8 shape differences.
//! * **Byte-accurate namespaces**: reads and writes move real bytes
//!   through a sparse store, so the whole stack (including the mini-HDF5
//!   layer) is verified end-to-end for data integrity, not just timing.

// no-panic (DESIGN.md §10): bad input is a counted or typed error, never a crash.
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod device;
pub mod flash;
pub mod namespace;
pub mod spec;

pub use device::{DeviceStats, NvmeDevice};
pub use flash::FlashProfile;
pub use namespace::Namespace;
pub use spec::{Cqe, Opcode, Sqe, Status, BLOCK_SIZE};
