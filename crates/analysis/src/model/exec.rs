//! One model execution: cooperative single-token scheduling over real
//! OS threads, plus the DFS bookkeeping that makes repeated executions
//! enumerate every interleaving.
//!
//! Exactly one model thread runs at a time. Each shadow synchronization
//! operation is a *scheduling point*: the running thread parks, the
//! scheduler picks the next thread to run (following the replay prefix
//! during re-exploration, lowest-id first beyond it), and records a
//! decision whenever two or more threads were runnable. The explorer
//! backtracks over those decisions depth-first until the tree is
//! exhausted — the same discipline as loom/CHESS, without preemption
//! bounding (our queue episodes are small enough to explore fully).

use super::clock::VClock;
use super::ModelError;
use std::cell::RefCell;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Lock that shrugs off poisoning: a panicking model thread must not
/// wedge the scheduler (panics are caught and reported as model errors).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Scheduling status of one model thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    /// Ready to run, waiting for the token.
    Runnable,
    /// Holds the token.
    Running,
    /// Parked in `join` until the target thread finishes.
    BlockedOnJoin(usize),
    /// Returned from its closure.
    Finished,
}

struct ThreadState {
    status: Status,
    clock: VClock,
}

/// One branch point: `options` runnable threads existed, `chosen` (an
/// index into the sorted options) was taken.
#[derive(Clone, Debug)]
pub(crate) struct Decision {
    pub options: usize,
    pub chosen: usize,
}

pub(crate) struct ExecState {
    threads: Vec<ThreadState>,
    /// Decisions made so far in this execution.
    pub schedule: Vec<Decision>,
    /// Prefix of option indices to replay (from the explorer).
    replay: Vec<usize>,
    cursor: usize,
    steps: usize,
    /// First failure observed; later ones are ignored.
    pub failure: Option<ModelError>,
    /// After a step-limit blowout the token is abandoned and threads
    /// free-run to termination so the driver can report the failure.
    freewheel: bool,
}

pub(crate) struct Execution {
    pub state: Mutex<ExecState>,
    pub cv: Condvar,
    max_steps: usize,
}

thread_local! {
    static CTX: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };
}

/// The executing model thread's context, if any. Shadow operations fall
/// back to plain behavior when this is `None` (code under test running
/// outside `model::check`, e.g. ordinary unit tests of a `model`-feature
/// build).
pub(crate) fn current() -> Option<(Arc<Execution>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

pub(crate) fn set_current(ctx: Option<(Arc<Execution>, usize)>) {
    CTX.with(|c| *c.borrow_mut() = ctx);
}

impl Execution {
    pub fn new(replay: Vec<usize>, max_steps: usize) -> Self {
        let mut root_clock = VClock::new();
        root_clock.tick(0);
        Execution {
            state: Mutex::new(ExecState {
                threads: vec![ThreadState {
                    status: Status::Running,
                    clock: root_clock,
                }],
                schedule: Vec::new(),
                replay,
                cursor: 0,
                steps: 0,
                failure: None,
                freewheel: false,
            }),
            cv: Condvar::new(),
            max_steps,
        }
    }

    /// Record the first failure. The execution keeps running serialized
    /// (scheduling stays cooperative, so no real data race can bite) and
    /// terminates naturally; the driver reports the stored error.
    pub fn report(&self, err: ModelError) {
        let mut s = lock(&self.state);
        if s.failure.is_none() {
            s.failure = Some(err);
        }
    }

    /// Pick the next thread to run from the runnable set, recording a
    /// decision when there was a real choice.
    fn schedule_next(&self, s: &mut ExecState) {
        let options: Vec<usize> = s
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Runnable)
            .map(|(i, _)| i)
            .collect();
        if options.is_empty() {
            let all_done = s.threads.iter().all(|t| t.status == Status::Finished);
            if !all_done {
                // Only possible via a join cycle, which user code cannot
                // express without already having deadlocked for real.
                if s.failure.is_none() {
                    s.failure = Some(ModelError::Deadlock);
                }
                s.freewheel = true;
            }
            return;
        }
        let idx = if options.len() == 1 {
            0
        } else {
            let chosen = if s.cursor < s.replay.len() {
                let c = s.replay[s.cursor];
                s.cursor += 1;
                c
            } else {
                0
            };
            s.schedule.push(Decision {
                options: options.len(),
                chosen,
            });
            chosen
        };
        let tid = options[idx];
        s.threads[tid].status = Status::Running;
    }

    /// Park at a scheduling point: hand the token to whichever thread
    /// the explorer says runs next, and wait until it is this thread.
    pub fn yield_point(self: &Arc<Self>, tid: usize) {
        let mut s = lock(&self.state);
        if s.freewheel {
            drop(s);
            std::thread::yield_now();
            return;
        }
        s.steps += 1;
        if s.steps > self.max_steps {
            if s.failure.is_none() {
                s.failure = Some(ModelError::StepLimit(self.max_steps));
            }
            // Abandon the token: likely an unbounded spin loop in the
            // test body, which only free-running concurrency can exit.
            s.freewheel = true;
            self.cv.notify_all();
            return;
        }
        s.threads[tid].status = Status::Runnable;
        self.schedule_next(&mut s);
        self.cv.notify_all();
        while !s.freewheel && s.threads[tid].status != Status::Running {
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Advance `tid`'s own clock and return a copy (epoch source for
    /// release stores).
    pub fn tick(&self, tid: usize) -> VClock {
        let mut s = lock(&self.state);
        s.threads[tid].clock.tick(tid);
        s.threads[tid].clock.clone()
    }

    /// Join `sync` into `tid`'s clock (acquire edge).
    pub fn acquire(&self, tid: usize, sync: &VClock) {
        let mut s = lock(&self.state);
        s.threads[tid].clock.join(sync);
    }

    /// Snapshot of `tid`'s clock (no tick): plain-memory accesses use
    /// this for race checks without creating synchronization.
    pub fn clock_of(&self, tid: usize) -> VClock {
        lock(&self.state).threads[tid].clock.clone()
    }

    /// Register a new model thread; returns its id. The child inherits
    /// the parent's clock (spawn is a happens-before edge).
    pub fn register_thread(&self, parent: usize) -> usize {
        let mut s = lock(&self.state);
        let tid = s.threads.len();
        let mut clock = s.threads[parent].clock.clone();
        clock.tick(tid);
        s.threads.push(ThreadState {
            status: Status::Runnable,
            clock,
        });
        s.threads[parent].clock.tick(parent);
        tid
    }

    /// Called by a freshly spawned real thread: wait to be scheduled for
    /// the first time.
    pub fn wait_first_schedule(self: &Arc<Self>, tid: usize) {
        let mut s = lock(&self.state);
        while !s.freewheel && s.threads[tid].status != Status::Running {
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Mark `tid` finished, wake its joiners, and pass the token on.
    pub fn finish_thread(self: &Arc<Self>, tid: usize) {
        let mut s = lock(&self.state);
        s.threads[tid].status = Status::Finished;
        for t in s.threads.iter_mut() {
            if t.status == Status::BlockedOnJoin(tid) {
                t.status = Status::Runnable;
            }
        }
        if !s.freewheel {
            self.schedule_next(&mut s);
        }
        self.cv.notify_all();
    }

    /// Block until `target` finishes, then join its final clock into
    /// `tid`'s (the join happens-before edge).
    pub fn join_thread(self: &Arc<Self>, tid: usize, target: usize) {
        let mut s = lock(&self.state);
        if s.threads[target].status != Status::Finished {
            s.threads[tid].status = Status::BlockedOnJoin(target);
            if !s.freewheel {
                self.schedule_next(&mut s);
            }
            self.cv.notify_all();
            while !s.freewheel && s.threads[tid].status != Status::Running {
                s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
            }
            // Freewheel escape: spin-wait for the real thread below.
            while s.threads[target].status != Status::Finished {
                if !s.freewheel {
                    // Spurious wake while still blocked cannot happen
                    // (we only become Running once the target finished),
                    // but be defensive.
                    s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
                } else {
                    drop(s);
                    std::thread::yield_now();
                    s = lock(&self.state);
                }
            }
        }
        let target_clock = s.threads[target].clock.clone();
        s.threads[tid].clock.join(&target_clock);
    }

    /// Driver-side wait for execution termination.
    pub fn wait_all_finished(&self) {
        let mut s = lock(&self.state);
        while !s.threads.iter().all(|t| t.status == Status::Finished) {
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }
}
