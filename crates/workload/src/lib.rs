//! # workload — perf-style workload generation and measurement
//!
//! Reproduces the paper's measurement methodology (§V): SPDK `perf`-style
//! closed-loop generators issuing 4K sequential I/O at fixed queue depth
//! (128 for throughput-critical initiators, 1 for latency-sensitive
//! ones), per-class latency histograms with 99.99th-percentile tail
//! reporting, and a scenario runner that wires any combination of
//! initiator-node/target-node pairs over a 10/25/100 Gbps fabric and
//! runs either the SPDK baseline or NVMe-oPF.
//!
//! Every scenario is a pure function of `(Scenario, seed)`; results carry
//! aggregate TC throughput, LS tail latency, and the completion-
//! notification counts that Figure 6(c) compares.

// no-panic (DESIGN.md §10): bad input is a counted or typed error, never a crash.
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod hist;
pub mod mix;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod trace;
pub mod traffic;
pub mod volume;

pub use cluster::{MigrationSpec, PlacementSpec};
pub use hist::Histogram;
pub use mix::Mix;
pub use report::{csv_table, render_table, Table};
pub use runner::{build_pair, build_pair_traced, run, run_on, Env, Pair, RunResult, TenantHandle};
pub use scenario::{Pattern, RuntimeKind, Scenario, ScenarioError, Transport, WindowSpec};
pub use trace::{replay, ReplayConfig, ReplayError, ReplayResult, TraceEvent, TraceLog};
pub use traffic::{ArrivalModel, ChurnStorm, Phase, TenantTraffic, TrafficSpec};
pub use volume::StripedVolume;
