//! Shadow `Atomic*` / `UnsafeCell` types: the instrumented stand-ins the
//! queue sources build against under `--features model`.
//!
//! Executions are explored sequentially-consistent (one thread at a
//! time), but happens-before is tracked honestly: only Release stores
//! publish a clock and only Acquire loads join one. A `Relaxed` publish
//! therefore leaves the consumer's clock behind the producer's plain
//! writes, and the next `UnsafeCell` access on the consumer side trips
//! the race check — which is precisely how a missing `Release` shows up
//! on real weakly-ordered hardware.
//!
//! Every atomic operation is a scheduling point: the thread parks
//! *before* the operation, then performs it together with its
//! happens-before bookkeeping while holding the execution token, so the
//! clock it joins always corresponds to the value it actually read.
//!
//! Outside an active `model::check` execution every operation falls
//! through to the underlying `std` primitive, so a `model`-feature build
//! still behaves normally in ordinary tests.

use super::clock::VClock;
use super::exec::{current, lock};
use super::ModelError;
use std::panic::Location;
use std::sync::atomic::Ordering;
use std::sync::Mutex;

fn is_acquire(o: Ordering) -> bool {
    matches!(o, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(o: Ordering) -> bool {
    matches!(o, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

/// Per-atomic synchronization state: the clock published by the last
/// release store (and kept alive by the release sequence through RMWs).
#[derive(Default)]
struct SyncClock(Mutex<VClock>);

macro_rules! shadow_atomic_int {
    ($name:ident, $std:ty, $int:ty) => {
        /// Shadow integer atomic with vector-clock release/acquire
        /// tracking. API mirrors the `std` type (subset the queues use).
        #[derive(Default)]
        pub struct $name {
            real: $std,
            sync: SyncClock,
        }

        impl $name {
            pub fn new(v: $int) -> Self {
                $name {
                    real: <$std>::new(v),
                    sync: SyncClock::default(),
                }
            }

            pub fn load(&self, ord: Ordering) -> $int {
                if let Some((exec, tid)) = current() {
                    exec.yield_point(tid);
                    exec.tick(tid);
                    // Serialized execution: SeqCst costs nothing and
                    // keeps the interpreter simple; happens-before is
                    // what `ord` controls.
                    let v = self.real.load(Ordering::SeqCst);
                    if is_acquire(ord) {
                        exec.acquire(tid, &lock(&self.sync.0));
                    }
                    v
                } else {
                    self.real.load(ord)
                }
            }

            pub fn store(&self, v: $int, ord: Ordering) {
                if let Some((exec, tid)) = current() {
                    exec.yield_point(tid);
                    let clock = exec.tick(tid);
                    self.real.store(v, Ordering::SeqCst);
                    let mut sync = lock(&self.sync.0);
                    if is_release(ord) {
                        // Head of a new release sequence.
                        *sync = clock;
                    } else {
                        // A plain Relaxed store breaks the sequence.
                        sync.clear();
                    }
                } else {
                    self.real.store(v, ord)
                }
            }

            pub fn swap(&self, v: $int, ord: Ordering) -> $int {
                if let Some((exec, tid)) = current() {
                    exec.yield_point(tid);
                    exec.tick(tid);
                    let old = self.real.swap(v, Ordering::SeqCst);
                    self.rmw_edges(&exec, tid, ord);
                    old
                } else {
                    self.real.swap(v, ord)
                }
            }

            pub fn compare_exchange(
                &self,
                cur: $int,
                new: $int,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$int, $int> {
                if let Some((exec, tid)) = current() {
                    exec.yield_point(tid);
                    exec.tick(tid);
                    let r =
                        self.real
                            .compare_exchange(cur, new, Ordering::SeqCst, Ordering::SeqCst);
                    match r {
                        Ok(_) => self.rmw_edges(&exec, tid, success),
                        // A failed CAS is just a load.
                        Err(_) => {
                            if is_acquire(failure) {
                                exec.acquire(tid, &lock(&self.sync.0));
                            }
                        }
                    }
                    r
                } else {
                    self.real.compare_exchange(cur, new, success, failure)
                }
            }

            /// RMW happens-before: acquire the published clock, then
            /// extend the release sequence with this thread's clock. A
            /// fully Relaxed RMW leaves the sequence intact (post-C++17
            /// release-sequence rules).
            fn rmw_edges(
                &self,
                exec: &std::sync::Arc<super::exec::Execution>,
                tid: usize,
                ord: Ordering,
            ) {
                let mut sync = lock(&self.sync.0);
                if is_acquire(ord) {
                    exec.acquire(tid, &sync);
                }
                if is_release(ord) {
                    let clock = exec.clock_of(tid);
                    sync.join(&clock);
                }
            }
        }
    };
}

/// `fetch_add` separately, for the integer atomics only (`AtomicBool`
/// has no arithmetic RMWs).
macro_rules! shadow_atomic_fetch_add {
    ($name:ident, $int:ty) => {
        impl $name {
            pub fn fetch_add(&self, v: $int, ord: Ordering) -> $int {
                if let Some((exec, tid)) = current() {
                    exec.yield_point(tid);
                    exec.tick(tid);
                    let old = self.real.fetch_add(v, Ordering::SeqCst);
                    self.rmw_edges(&exec, tid, ord);
                    old
                } else {
                    self.real.fetch_add(v, ord)
                }
            }
        }
    };
}

shadow_atomic_int!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
shadow_atomic_int!(AtomicU64, std::sync::atomic::AtomicU64, u64);
shadow_atomic_int!(AtomicBool, std::sync::atomic::AtomicBool, bool);
shadow_atomic_fetch_add!(AtomicUsize, usize);
shadow_atomic_fetch_add!(AtomicU64, u64);

/// Who touched a plain-memory cell, and at what epoch.
struct CellMeta {
    last_write: Option<(usize, u32, &'static Location<'static>)>,
    reads: Vec<(usize, u32, &'static Location<'static>)>,
}

/// Shadow `UnsafeCell`: every access is race-checked against the vector
/// clocks. The loom-style `with`/`with_mut` closure API keeps the real
/// build zero-cost (see `queues::sync`). Cell accesses are *not*
/// scheduling points — the checker detects unordered (racy) access pairs
/// through the clocks regardless of where the scheduler interleaves.
pub struct UnsafeCell<T> {
    real: std::cell::UnsafeCell<T>,
    meta: Mutex<CellMeta>,
}

// SAFETY: the shadow cell is only meaningful under the model scheduler,
// which serializes all access; the race *checker* (not the type system)
// is what rejects unsynchronized use. Mirrors std's UnsafeCell bounds.
unsafe impl<T: Send> Send for UnsafeCell<T> {}
// SAFETY: as above — cross-thread `&UnsafeCell<T>` is the whole point;
// accesses are serialized by the model token and vetted by the checker.
unsafe impl<T: Send> Sync for UnsafeCell<T> {}

impl<T> UnsafeCell<T> {
    /// Creating a cell counts as a write by the creating thread, so a
    /// consumer that reaches the value without an acquire edge back to
    /// the constructor is flagged (e.g. a value published through a
    /// `Relaxed` store).
    #[track_caller]
    pub fn new(value: T) -> Self {
        let loc = Location::caller();
        let last_write = current().map(|(exec, tid)| {
            let c = exec.clock_of(tid);
            (tid, c.get(tid), loc)
        });
        UnsafeCell {
            real: std::cell::UnsafeCell::new(value),
            meta: Mutex::new(CellMeta {
                last_write,
                reads: Vec::new(),
            }),
        }
    }

    /// Shared (read) access to the raw pointer.
    #[track_caller]
    pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
        self.check(false, Location::caller());
        f(self.real.get())
    }

    /// Exclusive (write) access to the raw pointer.
    #[track_caller]
    pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        self.check(true, Location::caller());
        f(self.real.get())
    }

    fn check(&self, is_write: bool, loc: &'static Location<'static>) {
        let Some((exec, tid)) = current() else {
            return;
        };
        let clock = exec.clock_of(tid);
        let mut meta = lock(&self.meta);
        if let Some((wt, we, wloc)) = meta.last_write {
            if wt != tid && !clock.contains(wt, we) {
                exec.report(ModelError::DataRace {
                    kind: if is_write {
                        "write/write"
                    } else {
                        "write/read"
                    },
                    earlier: format!("write by thread {wt} at {wloc}"),
                    later: format!(
                        "{} by thread {tid} at {loc}",
                        if is_write { "write" } else { "read" }
                    ),
                });
            }
        }
        if is_write {
            for &(rt, re, rloc) in &meta.reads {
                if rt != tid && !clock.contains(rt, re) {
                    exec.report(ModelError::DataRace {
                        kind: "read/write",
                        earlier: format!("read by thread {rt} at {rloc}"),
                        later: format!("write by thread {tid} at {loc}"),
                    });
                }
            }
            meta.reads.clear();
            meta.last_write = Some((tid, clock.get(tid), loc));
        } else {
            meta.reads.retain(|&(rt, _, _)| rt != tid);
            meta.reads.push((tid, clock.get(tid), loc));
        }
    }
}
