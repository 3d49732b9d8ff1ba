//! # cluster — the multi-target cluster plane (DESIGN.md §16)
//!
//! Everything below this crate is one target's view of the world; this
//! crate is the path from 256 tenants on one box to a cluster: M targets
//! behind a switched [`fabric`] topology (tenant slot *i* lives on
//! target *i* mod *M*), a cluster-level **Priority
//! Manager** ([`ClusterPriorityManager`]) that aggregates per-target
//! drain/LS state and rebalances tenant drain weights, and **live tenant
//! migration** ([`MigrationEngine`]): drain → freeze + move the 16-bit
//! CID queue → re-register on the destination → epoch-bumped re-drive of
//! in-flight commands through the recovery re-issue path, exactly-once
//! per CID across the move.
//!
//! The fan-out point question (Cross-IP Request Coalescing, PAPERS.md):
//! coalescing stays at the *initiator↔target pair* — a tenant lives on
//! exactly one target at a time, and migration moves the whole pair
//! state rather than splitting one tenant's window across targets, so
//! Algorithm 2's prefix-marking never spans coalescers.

// no-panic (DESIGN.md §10): bad input is a counted or typed error, never a crash.
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod manager;
pub mod migration;
pub mod topology;

pub use manager::{ClusterPriorityManager, ManagerSnapshot, TenantLoad};
pub use migration::{Migration, MigrationEngine, MigrationSpec, MigrationState};
pub use topology::install_switched_topology;
