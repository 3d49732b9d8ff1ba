//! # analysis — in-repo verification tooling for the NVMe-oPF workspace
//!
//! The simulator's determinism and the paper's protocol guarantees rest
//! on invariants no compiler checks. This crate machine-checks them:
//!
//! * [`lint`] — a repo-specific source linter (run as
//!   `cargo run -p analysis --bin lint`) enforcing rules no off-the-shelf
//!   tool knows about: no panics on protocol hot paths, one simulation
//!   thread, virtual-time purity outside `simkit`, no `HashMap`
//!   iteration on output-affecting paths, and `// SAFETY:` comments on
//!   every `unsafe` site (the kernel's event-slot erasure is the only
//!   `unsafe` product code).
//! * [`fsm`] — an explicit-state model checker of the CID lifecycle
//!   (run as `cargo run -p analysis --bin fsm`): exactly-once
//!   completion, no CID-queue overflow and no deadlock under a lossy,
//!   hostile network.
//! * [`lex`] — the dependency-free Rust lexer the linter matches on.
//!
//! Everything here is dependency-free by construction: the workspace
//! builds without crates.io access, so the tooling is vendored.

pub mod fsm;
pub mod lex;
pub mod lint;
