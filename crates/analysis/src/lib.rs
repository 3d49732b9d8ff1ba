//! # analysis — in-repo verification tooling for the NVMe-oPF workspace
//!
//! The paper's lock-free design (§IV-A: independent per-initiator TC
//! queues) lives in `crates/queues`, the only `unsafe` code in the
//! workspace. This crate machine-checks it, plus the workspace-wide
//! invariants the simulator's determinism depends on:
//!
//! * [`model`] — a vendored mini-loom: an exhaustive-interleaving
//!   explorer with shadow `Atomic*`/`UnsafeCell` types that track
//!   happens-before edges with vector clocks and flag data races and
//!   missing Acquire/Release edges. The real queue
//!   sources build against it through `queues`' `model` feature.
//! * [`lint`] — a repo-specific source linter (run as
//!   `cargo run -p analysis --bin lint`) enforcing rules no off-the-shelf
//!   tool knows about: ordering discipline in `queues`, no panics on
//!   protocol hot paths, virtual-time purity outside `simkit`, no
//!   `HashMap` iteration on output-affecting paths, and `// SAFETY:`
//!   comments on every `unsafe` site.
//!
//! Everything here is offline and dependency-free by construction: the
//! build container has no crates.io access, so the tooling is vendored.

pub mod fsm;
pub mod lex;
pub mod lint;
pub mod model;
