//! # fabric — Ethernet fabric model for NVMe-over-Fabrics
//!
//! Substitutes the paper's testbed networks (Chameleon Cloud 10/25 Gbps,
//! CloudLab 100 Gbps, Table I) with a discrete-event model that captures
//! the three effects the evaluation depends on:
//!
//! 1. **Serialization delay** — a message occupies its links for
//!    `bytes × 8 / rate`; 4 KiB data PDUs dominate, so 10 Gbps saturates
//!    at ≈290K 4K-read IOPS.
//! 2. **Per-packet overhead** — every MTU-sized frame pays fixed NIC/stack
//!    costs and wire framing bytes; thousands of small completion packets
//!    per second are what NVMe-oPF's coalescing eliminates.
//! 3. **FIFO queueing** — links are work-conserving single servers
//!    ([`simkit::Resource`]); concurrent tenants' traffic queues behind
//!    each other exactly as on a switch port.
//!
//! Topology: every [`Endpoint`] owns a duplex attachment (uplink +
//! downlink) to an ideal non-blocking switch, matching the star topology
//! of the paper's testbeds. A transfer from A to B crosses A's TX NIC,
//! A's uplink, B's downlink, the propagation delay, and B's RX NIC.
//! Cluster topologies layer [`LinkProfile`]s on top: per-(src, dst)
//! multi-hop paths with extra store-and-forward stages and bottleneck
//! bandwidth factors, consulted only when at least one is installed.

// no-panic (DESIGN.md §10): bad input is a counted or typed error, never a crash.
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod config;
pub mod endpoint;
pub mod network;

pub use config::{FabricConfig, Gbps};
pub use endpoint::{Endpoint, EndpointId, EndpointStats};
pub use network::{BandwidthModel, LinkProfile, Network};
