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
// function-size (DESIGN.md §10): no function over the root clippy.toml's
// `too-many-lines-threshold`; a long one splits into stages.
#![cfg_attr(not(test), warn(clippy::too_many_lines))]

mod group;
pub mod hist;
pub mod mix;
pub mod pool;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod trace;
pub mod traffic;
pub mod volume;

pub use cluster::MigrationSpec;
pub use hist::Histogram;
pub use mix::Mix;
pub use pool::map;
pub use report::{csv_table, render_table, Table};
pub use runner::{build_pair, build_pair_traced, run, run_all, Env, Pair, RunResult, TenantHandle};
pub use scenario::{Pattern, RuntimeKind, Scenario, ScenarioError, Transport, WindowSpec};
pub use trace::{TraceEvent, TraceLog};
pub use traffic::{Arrival, ArrivalModel, ChurnStorm, Phase, TenantTraffic, TrafficSpec};
pub use volume::StripedVolume;
