//! A vendored mini-loom: exhaustive interleaving exploration with
//! happens-before tracking.
//!
//! # How it works
//!
//! [`check`] runs the supplied closure once per *schedule*. Model
//! threads ([`thread::spawn`]) are real OS threads, but a single
//! execution token serializes them: every shadow atomic operation
//! ([`AtomicUsize`], [`AtomicU64`], …) is a scheduling point where the
//! explorer chooses which runnable thread continues. Whenever two or
//! more threads were runnable the choice is recorded, and the driver
//! backtracks over recorded choices depth-first until every
//! interleaving of the episode has been executed — small episodes
//! (a few operations per thread) explore completely in well under a
//! second.
//!
//! Within an execution, happens-before is tracked with vector clocks:
//! Release stores publish the writer's clock on the atomic, Acquire
//! loads join it, spawn/join edges propagate clocks between threads,
//! and `Relaxed` does nothing — see [`shadow`](self) for the exact
//! rules. Every [`UnsafeCell`] access is checked against the clocks; an
//! unordered pair is a data race and fails the check with both source
//! locations.
//!
//! # What it does and does not model
//!
//! * Executions are sequentially consistent; weak behaviors show up as
//!   *missing happens-before edges* (race reports), not as stale
//!   values. This catches the bug class that matters for the queues —
//!   a publish downgraded to `Relaxed` is reported on the first
//!   consumer access — but cannot exhibit, e.g., IRIW outcomes.
//! * `std::sync::Arc` is not shadowed: reference-count edges don't
//!   enter the clocks. Tests must join threads before asserting on
//!   shared state (ours do; loom shadows `Arc` to lift this).
//! * Closures must be deterministic: replay assumes identical behavior
//!   under identical schedules.

mod clock;
mod exec;
mod shadow;
pub mod thread;

pub use shadow::{AtomicBool, AtomicU64, AtomicUsize, UnsafeCell};

use exec::{lock, set_current, Execution};
use std::fmt;
use std::sync::Arc;

/// Why a model check failed.
#[derive(Clone, Debug)]
pub enum ModelError {
    /// Two unsynchronized accesses to the same `UnsafeCell`.
    DataRace {
        /// Access pair, e.g. `write/read`.
        kind: &'static str,
        /// The earlier access (thread and source location).
        earlier: String,
        /// The later access that had no happens-before edge to it.
        later: String,
    },
    /// A model thread panicked (usually a failed assertion in the test
    /// body, on a specific interleaving).
    Panic { thread: usize, message: String },
    /// An execution exceeded the per-execution step budget (unbounded
    /// spin loop in the test body?).
    StepLimit(usize),
    /// No runnable thread but not all finished (join cycle).
    Deadlock,
    /// The schedule tree is larger than the execution budget; shrink
    /// the episode or raise `Checker::max_executions`.
    ExecLimit(usize),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::DataRace {
                kind,
                earlier,
                later,
            } => {
                write!(f, "{kind} data race: {earlier} not ordered before {later}")
            }
            ModelError::Panic { thread, message } => {
                write!(f, "thread {thread} panicked: {message}")
            }
            ModelError::StepLimit(n) => {
                write!(
                    f,
                    "execution exceeded {n} scheduling steps (unbounded spin?)"
                )
            }
            ModelError::Deadlock => write!(f, "deadlock: no runnable thread"),
            ModelError::ExecLimit(n) => {
                write!(f, "exploration exceeded {n} executions; shrink the episode")
            }
        }
    }
}

/// A failed check: the error plus where in the exploration it happened.
#[derive(Clone, Debug)]
pub struct Failure {
    /// What went wrong.
    pub error: ModelError,
    /// 1-based index of the failing execution.
    pub execution: usize,
    /// The branch choices that reproduce it (option index at each
    /// multi-way scheduling point).
    pub schedule: Vec<usize>,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (execution {}, schedule {:?})",
            self.error, self.execution, self.schedule
        )
    }
}

/// Summary of a completed (exhaustive) exploration.
#[derive(Clone, Copy, Debug)]
pub struct Report {
    /// Number of distinct interleavings executed.
    pub executions: usize,
}

/// Exploration budgets. The defaults fit episodes of a few operations
/// across 2–3 threads; `check`/`try_check` use them.
#[derive(Clone, Copy, Debug)]
pub struct Checker {
    /// Abort exploration after this many executions.
    pub max_executions: usize,
    /// Abort one execution after this many scheduling points.
    pub max_steps: usize,
}

impl Default for Checker {
    fn default() -> Self {
        Checker {
            max_executions: 1_000_000,
            max_steps: 100_000,
        }
    }
}

impl Checker {
    /// Explore every interleaving of `f`; return the first failure, or
    /// a report once the schedule tree is exhausted.
    pub fn try_check<F>(&self, f: F) -> Result<Report, Failure>
    where
        F: Fn() + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let mut replay: Vec<usize> = Vec::new();
        let mut executions = 0usize;
        loop {
            executions += 1;
            if executions > self.max_executions {
                return Err(Failure {
                    error: ModelError::ExecLimit(self.max_executions),
                    execution: executions,
                    schedule: replay,
                });
            }
            let exec = Arc::new(Execution::new(replay.clone(), self.max_steps));
            let root_exec = exec.clone();
            let root_f = f.clone();
            let root = std::thread::spawn(move || {
                set_current(Some((root_exec.clone(), 0)));
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| root_f()));
                if let Err(payload) = out {
                    root_exec.report(ModelError::Panic {
                        thread: 0,
                        message: thread::panic_message(payload.as_ref()),
                    });
                }
                root_exec.finish_thread(0);
                set_current(None);
            });
            exec.wait_all_finished();
            let _ = root.join();

            let (failure, mut schedule) = {
                let s = lock(&exec.state);
                (s.failure.clone(), s.schedule.clone())
            };
            if let Some(error) = failure {
                return Err(Failure {
                    error,
                    execution: executions,
                    schedule: schedule.iter().map(|d| d.chosen).collect(),
                });
            }

            // Depth-first backtrack: advance the deepest decision with an
            // untried option; exploration is complete when none remains.
            loop {
                match schedule.last_mut() {
                    None => return Ok(Report { executions }),
                    Some(d) if d.chosen + 1 < d.options => {
                        d.chosen += 1;
                        break;
                    }
                    Some(_) => {
                        schedule.pop();
                    }
                }
            }
            replay = schedule.iter().map(|d| d.chosen).collect();
        }
    }

    /// Like [`try_check`](Self::try_check), panicking on failure.
    pub fn check<F>(&self, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        match self.try_check(f) {
            Ok(r) => r,
            Err(fail) => panic!("model check failed: {fail}"),
        }
    }
}

/// Explore every interleaving of `f` with default budgets; panic on the
/// first data race, deadlock, or assertion failure.
pub fn check<F>(f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    Checker::default().check(f)
}

/// Explore every interleaving of `f` with default budgets; return the
/// first failure instead of panicking (negative tests).
pub fn try_check<F>(f: F) -> Result<Report, Failure>
where
    F: Fn() + Send + Sync + 'static,
{
    Checker::default().try_check(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn explores_both_orders_of_two_threads() {
        // Two threads each do one atomic store: 2 interleavings, plus
        // the spawn/continue branches — at least 2 executions, no race.
        let r = check(|| {
            let a = Arc::new(AtomicUsize::new(0));
            let a2 = a.clone();
            let t = thread::spawn(move || {
                a2.store(1, Ordering::Release);
            });
            a.store(2, Ordering::Release);
            t.join().unwrap();
        });
        assert!(r.executions >= 2, "got {}", r.executions);
    }

    #[test]
    fn release_acquire_publication_is_clean() {
        let r = check(|| {
            let cell = Arc::new(UnsafeCell::new(0u32));
            let flag = Arc::new(AtomicUsize::new(0));
            let (c2, f2) = (cell.clone(), flag.clone());
            let t = thread::spawn(move || {
                c2.with_mut(|p| {
                    // SAFETY: model-checked exclusive access — the
                    // reader only dereferences after the Acquire load
                    // observes the Release store below.
                    unsafe { *p = 42 }
                });
                f2.store(1, Ordering::Release);
            });
            if flag.load(Ordering::Acquire) == 1 {
                let v = cell.with(|p| {
                    // SAFETY: acquire edge above orders the write.
                    unsafe { *p }
                });
                assert_eq!(v, 42);
            }
            t.join().unwrap();
        });
        assert!(r.executions >= 2);
    }

    #[test]
    fn relaxed_publication_is_a_race() {
        let fail = try_check(|| {
            let cell = Arc::new(UnsafeCell::new(0u32));
            let flag = Arc::new(AtomicUsize::new(0));
            let (c2, f2) = (cell.clone(), flag.clone());
            let t = thread::spawn(move || {
                c2.with_mut(|p| {
                    // SAFETY: deliberately unsynchronized (the point of
                    // the test); the model serializes real accesses.
                    unsafe { *p = 42 }
                });
                f2.store(1, Ordering::Relaxed); // BUG: no release edge
            });
            if flag.load(Ordering::Acquire) == 1 {
                cell.with(|p| {
                    // SAFETY: as above; the checker flags this access.
                    unsafe { *p }
                });
            }
            t.join().unwrap();
        })
        .expect_err("relaxed publish must race");
        assert!(
            matches!(fail.error, ModelError::DataRace { .. }),
            "unexpected failure: {fail}"
        );
    }

    #[test]
    fn assertion_failures_surface_with_schedule() {
        let fail = try_check(|| {
            let a = Arc::new(AtomicUsize::new(0));
            let a2 = a.clone();
            let t = thread::spawn(move || a2.store(1, Ordering::Release));
            // Fails on schedules where the child runs first.
            assert_eq!(a.load(Ordering::Acquire), 0, "child ran first");
            t.join().unwrap();
        })
        .expect_err("some schedule must trip the assert");
        assert!(matches!(fail.error, ModelError::Panic { .. }));
    }
}
