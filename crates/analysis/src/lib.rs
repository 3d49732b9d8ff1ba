//! # analysis — in-repo verification tooling for the NVMe-oPF workspace
//!
//! The paper's protocol guarantees rest on invariants no compiler
//! checks. This crate machine-checks them:
//!
//! * [`fsm`] — an explicit-state model checker of the CID lifecycle
//!   (run as `cargo run -p analysis --bin fsm`): exactly-once
//!   completion, no CID-queue overflow and no deadlock under a lossy,
//!   hostile network.
//!
//! The workspace's determinism rules (no panics in protocol code, one
//! simulation thread, no wall clock, no `HashMap` iteration, …) are
//! clippy lints configured in the root `clippy.toml` and the
//! `[workspace.lints]` table (DESIGN.md §10).
//!
//! Everything here is dependency-free by construction: the workspace
//! builds without crates.io access, so the tooling is vendored.

pub mod fsm;
