//! # h5 — a miniature HDF5 stack for the application-level study
//!
//! Section V-E evaluates NVMe-oPF under HDF5/h5bench through a Virtual
//! Object Layer (VOL) connector that intercepts HDF5 API calls and routes
//! the I/O through NVMe-oPF priority managers. This crate rebuilds that
//! stack at the scale the reproduction needs:
//!
//! * [`store`] — block-store abstraction: an in-memory store for format
//!   unit tests plus a direct adapter over [`nvme::Namespace`], so files
//!   written *through the simulated fabric* can be re-opened and verified
//!   byte-for-byte.
//! * [`format`](mod@format) — a self-describing hierarchical file format (superblock,
//!   groups, 1-D datasets, contiguous layout) in the spirit of HDF5's
//!   disk format, with real byte-level encode/decode.
//! * [`vol`] — the VOL-style connector: dataset data I/O is issued over
//!   the fabric as **throughput-critical** 4K block I/O; metadata
//!   (superblock, object headers, group tables) as **latency-sensitive**
//!   I/O — exactly the per-request tagging §III-C describes.
//! * [`bench`](mod@bench) — h5bench-like write/read kernels (one 1-D particle
//!   dataset per timestep, dataset-loading overhead between read
//!   timesteps) and the Figure 9 scaling harness (ranks = initiators).

// no-panic (DESIGN.md §10): bad input is a counted or typed error, never a crash.
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod bench;
pub mod format;
pub mod store;
pub mod vol;

pub use bench::{run_h5bench, H5BenchConfig, H5BenchResult, H5Kernel};
pub use format::{Attribute, H5Error, H5File, ObjectKind};
pub use store::{MemStore, NamespaceStore, SyncStore};
