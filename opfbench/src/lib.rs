//! # opfbench — the repository's benchmark
//!
//! Six simulated-fabric workloads, seven end-to-end metrics and a
//! per-layer ledger, all measured **from outside**: by timing calls into
//! the crates' public functions and reading the counters
//! `RunResult::metrics` already exposes. No file outside this package is
//! instrumented. The contract (names, units, directions, bounds) is
//! `BENCHMARK.json` at the repository root; `README.md` here is the
//! glossary.
//!
//! Two clocks: *host* time is what the simulator costs to run (noisy);
//! *simulated* time is what the modelled NVMe-oF stack would take
//! (bit-exact for a seed). Every metric says which it uses.
//!
//! * [`micro`] — micro loops over the hot data structures (one
//!   implementation for every driver that needs them);
//! * [`drivers`] — the isolated per-layer **D** drivers;
//! * [`workloads`] — the six workloads and their fixed protocol;
//! * [`ledger`] — `RunResult::metrics` → simulated facts and **C** counters;
//! * [`checks`] — correctness checks and the `sim_digest`;
//! * [`child`] — one timed repetition of one workload, in a fresh process;
//! * [`suite`] — a run (the driver's entry point: a workload's repetitions
//!   as child processes) and `opfbench run` / `opfbench trace`;
//! * [`compare`] — `opfbench compare A.json B.json`;
//! * [`twin`], [`spans`], [`alloc`] — the traced run's instruments.

pub mod alloc;
pub mod catalog;
pub mod checks;
pub mod child;
pub mod compare;
pub mod drivers;
pub mod ledger;
pub mod micro;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod twin;
pub mod workloads;
