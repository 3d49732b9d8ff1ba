//! # simkit — deterministic discrete-event simulation kernel
//!
//! The NVMe-oPF reproduction replaces the paper's hardware testbed
//! (Chameleon Cloud / CloudLab, 10/25/100 Gbps Ethernet, NVMe SSDs) with a
//! discrete-event simulation. This crate provides the kernel: a virtual
//! clock, an event queue with a total deterministic order, a seedable PCG
//! random number generator, and a small set of modelling primitives
//! (single-server [`Resource`]s, [`Shared`] component handles).
//!
//! Everything built on top of this kernel is a pure function of
//! `(configuration, seed)`: running the same experiment twice yields
//! bit-identical results, which is what lets the experiment harness compare
//! SPDK-baseline and NVMe-oPF runs without testbed noise.
//!
//! ## Example
//!
//! ```
//! use simkit::{Kernel, SimDuration};
//!
//! let mut k = Kernel::new(42);
//! k.schedule_in(SimDuration::from_micros(5), |k| {
//!     assert_eq!(k.now().as_micros(), 5);
//! });
//! k.run_to_completion();
//! assert_eq!(k.now().as_micros(), 5);
//! ```

// The kernel's event-slot erasure is the workspace's one `unsafe` product code.
#![allow(unsafe_code)]

pub mod fxhash;
pub mod kernel;
pub mod metrics;
pub mod resource;
pub mod rng;
pub mod time;
pub mod trace;

/// The workspace's one JSON reader (the leaf crate `json`), re-exported
/// where `sweep`, `experiments` and the benchmark have always found it.
pub use ::json;
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use kernel::Kernel;
pub use metrics::{Metrics, MetricsSource};
pub use resource::Resource;
pub use rng::Pcg32;
pub use time::{SimDuration, SimTime, Stopwatch};
pub use trace::{CountingSink, RecordingSink, TraceEvent, TraceSink, Tracer};

use std::cell::RefCell;
use std::rc::Rc;

/// A shared, interior-mutable handle to a simulation component.
///
/// Components (NICs, targets, initiators, devices) are owned by the
/// simulation graph and referenced from event closures; the classic Rust
/// discrete-event pattern is `Rc<RefCell<T>>`. Simulations are
/// single-threaded by construction (determinism), so `Rc` suffices.
pub type Shared<T> = Rc<RefCell<T>>;

/// Wrap a component in a [`Shared`] handle.
pub fn shared<T>(value: T) -> Shared<T> {
    Rc::new(RefCell::new(value))
}
