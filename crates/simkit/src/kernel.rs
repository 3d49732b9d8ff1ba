//! The event kernel: a virtual clock plus an event queue of closures.
//!
//! Events scheduled for the same instant execute in scheduling order (a
//! monotone sequence number breaks ties), which makes every simulation a
//! total deterministic order — a requirement for comparing the SPDK
//! baseline against NVMe-oPF without measurement noise.
//!
//! # Shards
//!
//! The kernel can be partitioned into N logical *shards* (lanes). A lane
//! is a label: every scheduled event carries the lane it runs on, and
//! every component (tenant, reactor) is pinned to one. Events inherit
//! the lane of the event that scheduled them, so a tenant's whole causal
//! chain stays on its lane; [`Kernel::schedule_at_on`] and
//! [`Kernel::with_shard`] move work across lanes explicitly (and are
//! counted, so cross-shard traffic is observable).
//!
//! Every lane's events sit in one queue ordered by `(time, seq)`, where
//! `seq` is a monotone stamp assigned at schedule time. The label never
//! enters that order, so shard count is *unobservable in results*: any
//! count replays the serial kernel's total order bit-identically. The
//! shard-differential test suite enforces it end to end (DESIGN.md §13).
//!
//! # The queue
//!
//! Nothing is ever scheduled before `now`, so the pending set is a
//! *monotone* priority queue, and the kernel keeps it in a timing wheel
//! of 256 ns ticks spanning 4.19 ms (DESIGN.md §8): a push links the
//! event onto its tick's list once, and a pop finds the next occupied
//! tick with a bit scan and sorts that tick's few events by
//! `(at, seq)`. Events due beyond the span wait in a binary heap until
//! the wheel comes within a span of them. Same-instant events leave in
//! `seq` order. Each event is one record (key, list link, lane and
//! erased closure) in one table that every list holds indices into: a
//! schedule writes the closure into a free record, a step calls it there.

use crate::rng::Pcg32;
use crate::time::{SimDuration, SimTime};
use queues::{MailboxRx, MailboxTx};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::marker::PhantomData;
use std::mem::MaybeUninit;

/// Closures up to this many machine words are stored inline in their
/// event record; larger (or over-aligned) ones fall back to a `Box`.
/// Sized to cover the deepest hot-path capture (the device-completion
/// closure: two `Rc` handles, an SQE, a payload handle and the nested
/// completion callback), so the steady state schedules without
/// allocating; a record is then 19 words (152 B).
const INLINE_WORDS: usize = 14;

type EventData = [MaybeUninit<usize>; INLINE_WORDS];
// SAFETY: callers must pass a pointer to storage initialized by
// `EventQueue::store` for the erased closure type, and never use it again.
type CallFn = unsafe fn(*mut usize, &mut Kernel);
// SAFETY: same contract as `CallFn`; consumes the stored closure unrun.
type DropFn = unsafe fn(*mut usize);

/// Run the closure stored inline in `data`, consuming it.
///
/// # Safety
/// `data` points at storage previously initialized by `store` for this
/// exact `F`, and is not used again afterwards. The other three entry
/// points share this contract.
unsafe fn call_inline<F: FnOnce(&mut Kernel)>(data: *mut usize, k: &mut Kernel) {
    // SAFETY: per the contract, `data` holds a valid `F` (inline layout
    // was checked at store time); `read` takes ownership before `f` can
    // schedule, so the record is dead after this line.
    let f = unsafe { (data as *mut F).read() };
    f(k);
}

/// Drop the closure stored inline in `data` unrun.
///
/// # Safety
/// As [`call_inline`], for this `F`.
unsafe fn drop_inline<F>(data: *mut usize) {
    // SAFETY: per the contract, `data` holds a valid `F` that will not
    // be read again.
    unsafe { std::ptr::drop_in_place(data as *mut F) }
}

/// Run the boxed closure whose pointer `data` holds, consuming it.
///
/// # Safety
/// As [`call_inline`], for this `F`.
unsafe fn call_boxed<F: FnOnce(&mut Kernel)>(data: *mut usize, k: &mut Kernel) {
    // SAFETY: per the contract, the first word holds the raw pointer
    // produced by `Box::into_raw` at store time; ownership returns to
    // the `Box` here, before `b` can schedule.
    let b = unsafe { Box::from_raw((data as *mut *mut F).read()) };
    b(k);
}

/// Drop the boxed closure whose pointer `data` holds unrun.
///
/// # Safety
/// As [`call_inline`], for this `F`.
unsafe fn drop_boxed<F>(data: *mut usize) {
    // SAFETY: as `call_boxed`, but the closure is dropped unrun.
    drop(unsafe { Box::from_raw((data as *mut *mut F).read()) });
}

/// One event: key, wheel-list link, lane and erased closure (inline or boxed).
///
/// Lifecycle is manual — `Record` deliberately has no `Drop` impl. A
/// record is *occupied* from `store` until exactly one of `call` (which
/// moves the closure out) or `drop` (kernel teardown with pending
/// events) runs; afterwards its index sits on the free list and the
/// stale bytes are never read again.
struct Record {
    at: SimTime,
    seq: u64,
    /// Next record on the same wheel list.
    next: u32,
    /// Lane the event runs on; a label, not part of the order.
    lane: u32,
    call: CallFn,
    drop: DropFn,
    data: EventData,
}

/// Ticks are `at >> TICK_SHIFT`: 256 ns each.
const TICK_SHIFT: u32 = 8;
/// Wheel slots, one tick each: the wheel spans 2^14 ticks (4.19 ms).
const SLOTS: usize = 1 << 14;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// End of a slot's list.
const NIL: u32 = u32::MAX;

/// The pop-order key of record `i`.
#[inline]
fn key(records: &[Record], i: u32) -> (SimTime, u64) {
    let r = &records[i as usize];
    (r.at, r.seq)
}

/// Every pending event of every lane, popped in `(at, seq)` order.
///
/// A timing wheel (Varghese and Lauck, SOSP 1987) of 256 ns ticks. It
/// relies on the kernel being *monotone* — nothing is ever scheduled
/// before `now` — so no pending event is due before `tick`, the tick
/// the wheel stands at, and `run` holds that tick's events sorted by
/// `(at, seq)`. An event due in one of the next `SLOTS - 1` ticks is
/// filed once, on the list of slot `tick mod SLOTS`, threaded through
/// the records' `next`; a two-level bitmap finds the next occupied
/// slot. An event due later waits in `far` until the wheel comes within
/// a span of it.
struct EventQueue {
    /// Every record, occupied or free, indexed by record number.
    records: Vec<Record>,
    /// Records whose closure was consumed; reused before the table
    /// grows, so steady-state scheduling is allocation-free.
    free: Vec<u32>,
    /// First record on each wheel slot's list, or `NIL`.
    heads: Box<[u32]>,
    /// Bit `i` is set iff `heads[i]` is not `NIL`.
    occupied: [u64; SLOTS / 64],
    /// Bit `w` is set iff `occupied[w]` is non-zero.
    summary: [u64; SLOTS / 4096],
    /// The events of `tick`, by descending `(at, seq)`: the head is last.
    run: Vec<u32>,
    /// `(at, record)` of every event at least `SLOTS` ticks past `tick`.
    far: BinaryHeap<Reverse<(u64, u32)>>,
    tick: u64,
    len: usize,
}

impl EventQueue {
    fn new() -> Self {
        EventQueue {
            records: Vec::with_capacity(1024),
            free: Vec::with_capacity(1024),
            heads: vec![NIL; SLOTS].into_boxed_slice(),
            occupied: [0; SLOTS / 64],
            summary: [0; SLOTS / 4096],
            run: Vec::with_capacity(64),
            far: BinaryHeap::new(),
            tick: 0,
            len: 0,
        }
    }

    /// Write `f` (inline when it fits, boxed otherwise) and its key and
    /// lane straight into a free record, and return the record's index.
    /// The record is not yet filed: [`Self::push`] does that.
    fn store<F: FnOnce(&mut Kernel) + 'static>(
        &mut self,
        at: SimTime,
        seq: u64,
        lane: u32,
        f: F,
    ) -> u32 {
        let inline = std::mem::size_of::<F>() <= std::mem::size_of::<EventData>()
            && std::mem::align_of::<F>() <= std::mem::align_of::<usize>();
        let (call, drop): (CallFn, DropFn) = if inline {
            (call_inline::<F>, drop_inline::<F>)
        } else {
            (call_boxed::<F>, drop_boxed::<F>)
        };
        let i = match self.free.pop() {
            Some(i) => i,
            None => {
                self.records.push(Record {
                    at,
                    seq,
                    next: NIL,
                    lane,
                    call,
                    drop,
                    data: [MaybeUninit::uninit(); INLINE_WORDS],
                });
                self.records.len() as u32 - 1
            }
        };
        // A freed record's previous closure was consumed: plain overwrite.
        let r = &mut self.records[i as usize];
        (r.at, r.seq, r.lane, r.call, r.drop) = (at, seq, lane, call, drop);
        let data = r.data.as_mut_ptr();
        if inline {
            // SAFETY: just checked that `F` fits in the inline words and
            // needs no stronger alignment than them; the record stays
            // untouched until `call_inline`/`drop_inline` consumes it.
            unsafe { (data as *mut F).write(f) };
        } else {
            let raw = Box::into_raw(Box::new(f));
            // SAFETY: a thin pointer always fits in the first inline
            // word; ownership transfers to `call_boxed`/`drop_boxed`.
            unsafe { (data as *mut *mut F).write(raw) };
        }
        i
    }

    /// File the stored record `i` by its key.
    fn push(&mut self, i: u32) {
        let (at, seq) = key(&self.records, i);
        self.len += 1;
        let tick = at.as_nanos() >> TICK_SHIFT;
        debug_assert!(tick >= self.tick, "scheduled before the wheel's tick");
        if tick == self.tick {
            // A schedule drained from the mesh can carry a lower `seq`
            // than one pushed directly in the same step.
            let pos = self
                .run
                .partition_point(|&j| key(&self.records, j) > (at, seq));
            self.run.insert(pos, i);
        } else if tick - self.tick < SLOTS as u64 {
            self.link(i, tick);
        } else {
            self.far.push(Reverse((at.as_nanos(), i)));
        }
    }

    /// Put record `i` on the list of `tick`, which lies within the wheel.
    #[inline]
    fn link(&mut self, i: u32, tick: u64) {
        let w = (tick & SLOT_MASK) as usize;
        self.records[i as usize].next = self.heads[w];
        self.heads[w] = i;
        self.occupied[w / 64] |= 1 << (w % 64);
        self.summary[w / 4096] |= 1 << (w / 64 % 64);
    }

    /// The first occupied wheel slot at or after `from`.
    #[inline]
    fn occupied_from(&self, from: usize) -> Option<usize> {
        let word = from / 64;
        let bits = self.occupied[word] & (u64::MAX << (from % 64));
        if bits != 0 {
            return Some(word * 64 + bits.trailing_zeros() as usize);
        }
        let word = word + 1;
        let mut mask = u64::MAX << (word % 64);
        for s in word / 64..self.summary.len() {
            let words = self.summary[s] & mask;
            if words != 0 {
                let w = s * 64 + words.trailing_zeros() as usize;
                return Some(w * 64 + self.occupied[w].trailing_zeros() as usize);
            }
            mask = u64::MAX;
        }
        None
    }

    /// Remove and return the record of the earliest `(at, seq)` event if
    /// its `at` is at most `limit`. The wheel never moves past `limit`'s
    /// tick, so it never passes the clock: a caller of
    /// [`Kernel::run_until`] may still schedule between `until` and a
    /// later head.
    fn pop(&mut self, limit: SimTime) -> Option<u32> {
        if self.run.is_empty() && !self.advance(limit) {
            return None;
        }
        let &i = self.run.last()?;
        if self.records[i as usize].at > limit {
            return None;
        }
        self.run.pop();
        self.len -= 1;
        Some(i)
    }

    /// With `run` empty: if the next occupied tick starts at or before
    /// `limit`, move the wheel to that tick, its events into `run` and
    /// the far events now within a span into the wheel. A tick that
    /// starts by `limit` is not past the clock once it reaches `limit`,
    /// even if all its events are later.
    fn advance(&mut self, limit: SimTime) -> bool {
        let from = ((self.tick + 1) & SLOT_MASK) as usize;
        let tick = match self.occupied_from(from).or_else(|| self.occupied_from(0)) {
            // The wheel's own tick is never occupied, so this is the
            // next occupied tick after it.
            Some(w) => self.tick + ((w as u64).wrapping_sub(self.tick) & SLOT_MASK),
            None => match self.far.peek() {
                Some(&Reverse((at, _))) => at >> TICK_SHIFT,
                None => return false,
            },
        };
        if tick << TICK_SHIFT > limit.as_nanos() {
            return false;
        }
        let w = (tick & SLOT_MASK) as usize;
        self.tick = tick;
        let mut i = std::mem::replace(&mut self.heads[w], NIL);
        if i != NIL {
            self.occupied[w / 64] &= !(1 << (w % 64));
            if self.occupied[w / 64] == 0 {
                self.summary[w / 4096] &= !(1 << (w / 64 % 64));
            }
        }
        while i != NIL {
            self.run.push(i);
            i = self.records[i as usize].next;
        }
        while let Some(&Reverse((at, i))) = self.far.peek() {
            let t = at >> TICK_SHIFT;
            if t - tick >= SLOTS as u64 {
                break;
            }
            self.far.pop();
            if t == tick {
                self.run.push(i);
            } else {
                self.link(i, t);
            }
        }
        self.run
            .sort_unstable_by_key(|&j| Reverse(key(&self.records, j)));
        true
    }

    /// Every pending record, each named exactly once, emptying the queue.
    fn drain(&mut self) -> Vec<u32> {
        let mut all = std::mem::take(&mut self.run);
        for head in self.heads.iter_mut() {
            let mut i = std::mem::replace(head, NIL);
            while i != NIL {
                all.push(i);
                i = self.records[i as usize].next;
            }
        }
        all.extend(self.far.drain().map(|Reverse((_, i))| i));
        self.occupied = [0; SLOTS / 64];
        self.summary = [0; SLOTS / 4096];
        self.len = 0;
        all
    }
}

/// Per-lane inbox of the routing mesh: cross-lane schedules are sent
/// here and drained into the queue at the top of the next `step()`.
/// The detour exercises the mailbox path and the slack audit, while the
/// `(at, seq)` order keeps results byte-identical to direct pushes.
struct MeshInbox {
    tx: MailboxTx<u32>,
    rx: MailboxRx<u32>,
}

/// Routing mesh state for `parallel: true` runs (see
/// [`Kernel::set_parallel`]).
struct Mesh {
    inboxes: Vec<MeshInbox>,
    /// Events sent to any inbox since the last drain, so the drain at
    /// the top of every step is one compare when nothing was routed.
    staged: usize,
    /// Cross-lane schedules routed through a mailbox.
    routed: u64,
    /// Smallest observed slack `at - now` on a routed schedule, in
    /// nanoseconds: how far ahead of the clock this workload's
    /// cross-lane messages land. `u64::MAX` until the first routing.
    min_slack: u64,
}

impl Mesh {
    /// Send the cross-lane record `i` to `lane`'s inbox, invisible until
    /// the next `step()` drains it: the first moment the direct path
    /// could have popped it. A full inbox empties every inbox into the
    /// queue and files `i` after them. Both are unobservable: the order
    /// is `(at, seq)`.
    fn route(&mut self, queue: &mut EventQueue, i: u32, lane: u32, slack: u64) {
        self.routed += 1;
        self.min_slack = self.min_slack.min(slack);
        match self.inboxes[lane as usize].tx.send(i) {
            Ok(()) => self.staged += 1,
            Err(i) => {
                self.drain_into(queue);
                queue.push(i);
            }
        }
    }

    /// Move every staged event into `queue`.
    #[inline]
    fn drain_into(&mut self, queue: &mut EventQueue) {
        if self.staged == 0 {
            return;
        }
        self.staged = 0;
        for inbox in &mut self.inboxes {
            while let Some(i) = inbox.rx.take() {
                queue.push(i);
            }
        }
    }
}

/// Discrete-event simulation kernel.
///
/// A kernel is neither `Send` nor `Sync`. Event closures may capture
/// `Rc`s, and the records they are erased into hide those captures from
/// the auto traits, so a marker field opts out explicitly:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<simkit::Kernel>();
/// ```
pub struct Kernel {
    now: SimTime,
    /// Monotone schedule stamp: the key `(at, seq)` totally orders
    /// events, whatever lane labels they carry.
    seq: u64,
    /// Every pending event of every lane, and every event record.
    queue: EventQueue,
    /// Number of lanes (always ≥ 1).
    shards: usize,
    /// Shard of the event currently executing; new events inherit it.
    current_shard: u32,
    /// Events explicitly placed on a lane other than the scheduler's.
    cross_shard_scheduled: u64,
    rng: Pcg32,
    executed: u64,
    /// Hard stop: events scheduled past this instant are dropped.
    horizon: SimTime,
    /// Events discarded at the horizon (observability for chaos runs:
    /// distinguishes "dropped by fault plane" from "dropped by horizon").
    horizon_dropped: u64,
    /// Latest instant within the horizon passed to [`Self::extend_to`].
    extent: SimTime,
    /// `Some` when cross-lane schedules detour through per-lane
    /// mailboxes (the `parallel: true` scenario knob).
    mesh: Option<Mesh>,
    /// Keeps the kernel on the thread that built it (see the type docs).
    _not_send: PhantomData<*const ()>,
}

impl Kernel {
    /// Create a kernel with the given RNG seed and no horizon.
    pub fn new(seed: u64) -> Self {
        Self::with_shards(seed, 1)
    }

    /// Most lanes a run may ask [`Self::with_shards`] for. The mesh
    /// detour preallocates an inbox per lane and lane ids are `u32`, so
    /// a count taken from outside input is checked against this first
    /// (the largest run on record uses 8).
    pub const MAX_SHARDS: usize = 1024;

    /// Create a kernel partitioned into `shards` logical lanes (clamped
    /// to at least one). Shard count never changes simulation results —
    /// see the module docs for why.
    pub fn with_shards(seed: u64, shards: usize) -> Self {
        Kernel {
            now: SimTime::ZERO,
            seq: 0,
            queue: EventQueue::new(),
            shards: shards.max(1),
            current_shard: 0,
            cross_shard_scheduled: 0,
            rng: Pcg32::new(seed),
            executed: 0,
            horizon: SimTime::MAX,
            horizon_dropped: 0,
            extent: SimTime::ZERO,
            mesh: None,
            _not_send: PhantomData,
        }
    }

    /// Route cross-lane schedules through per-lane mailboxes instead of
    /// pushing directly into the queue. The `(at, seq)` stamp is
    /// assigned before routing and every detoured event is drained
    /// into the queue before the next pop, so results stay
    /// byte-identical to the direct path; what changes is the
    /// mechanism, plus side-band audit counters
    /// ([`Self::mesh_routed`], [`Self::mesh_min_slack_nanos`]).
    pub fn set_parallel(&mut self, on: bool) {
        if !on {
            self.drain_mesh();
            self.mesh = None;
            return;
        }
        if self.mesh.is_none() {
            self.mesh = Some(Mesh {
                inboxes: (0..self.shards)
                    .map(|_| {
                        let (tx, rx) = queues::mailbox(1024);
                        MeshInbox { tx, rx }
                    })
                    .collect(),
                staged: 0,
                routed: 0,
                min_slack: u64::MAX,
            });
        }
    }

    /// Whether the parallel routing mesh is active.
    #[inline]
    pub fn parallel(&self) -> bool {
        self.mesh.is_some()
    }

    /// Cross-lane schedules that went through the mailbox mesh.
    #[inline]
    pub fn mesh_routed(&self) -> u64 {
        self.mesh.as_ref().map_or(0, |m| m.routed)
    }

    /// Smallest `at - now` slack observed on a routed schedule, in
    /// nanoseconds — the minimum distance between a cross-lane send
    /// and its delivery time. `None` before any routing.
    #[inline]
    pub fn mesh_min_slack_nanos(&self) -> Option<u64> {
        self.mesh
            .as_ref()
            .filter(|m| m.min_slack != u64::MAX)
            .map(|m| m.min_slack)
    }

    /// Number of logical shards (always ≥ 1).
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Shard of the event currently executing (0 outside any event).
    #[inline]
    pub fn current_shard(&self) -> u32 {
        self.current_shard
    }

    /// Events that were explicitly scheduled onto a lane other than the
    /// one their scheduler was running on.
    #[inline]
    pub fn cross_shard_scheduled(&self) -> u64 {
        self.cross_shard_scheduled
    }

    /// Run `f` with the current-shard context set to `shard`, restoring
    /// the previous context afterwards. Models a synchronous handoff to
    /// another reactor (e.g. a mailbox drain): everything `f` schedules
    /// lands on `shard`'s lane.
    pub fn with_shard<R>(&mut self, shard: u32, f: impl FnOnce(&mut Kernel) -> R) -> R {
        debug_assert!((shard as usize) < self.shards, "shard out of range");
        let prev = self.current_shard;
        self.current_shard = shard;
        let r = f(self);
        self.current_shard = prev;
        r
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending (across all shards, including
    /// cross-lane events still staged in the routing mesh).
    #[inline]
    pub fn events_pending(&self) -> usize {
        let staged: usize = self
            .mesh
            .as_ref()
            .map_or(0, |m| m.inboxes.iter().map(|i| i.rx.pending()).sum());
        self.queue.len + staged
    }

    /// The kernel RNG. Components should usually [`fork`](Pcg32::fork)
    /// their own stream at construction instead of sampling here, so that
    /// unrelated events don't perturb each other's sequences.
    #[inline]
    pub fn rng(&mut self) -> &mut Pcg32 {
        &mut self.rng
    }

    /// Set a hard horizon: events scheduled strictly after it are dropped.
    /// Used to cut off the tail of open workloads at experiment end.
    pub fn set_horizon(&mut self, horizon: SimTime) {
        self.horizon = horizon;
    }

    /// Events discarded because they were scheduled past the horizon.
    #[inline]
    pub fn horizon_dropped(&self) -> u64 {
        self.horizon_dropped
    }

    /// Note that simulated work lasts until `at` (a reservation's end) instead
    /// of scheduling an event that does nothing then: the drained clock and
    /// [`Self::horizon_dropped`] end where that event would have left them.
    pub fn extend_to(&mut self, at: SimTime) {
        let at = at.max(self.now);
        if at > self.horizon {
            self.horizon_dropped += 1;
        } else {
            self.extent = self.extent.max(at);
        }
    }

    /// Schedule `f` to run at absolute time `at` (clamped to `now` if in
    /// the past, which models "immediately, after the current event").
    /// The event lands on the scheduler's own lane.
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut Kernel) + 'static) {
        let shard = self.current_shard;
        self.schedule_at_on(shard, at, f);
    }

    /// Schedule `f` at `at` on an explicit shard lane. The lane is a
    /// label on the event: it never changes the order, only ownership
    /// accounting and which reactor "runs" the event.
    pub fn schedule_at_on(
        &mut self,
        shard: u32,
        at: SimTime,
        f: impl FnOnce(&mut Kernel) + 'static,
    ) {
        debug_assert!((shard as usize) < self.shards, "shard out of range");
        let at = at.max(self.now);
        if at > self.horizon {
            self.horizon_dropped += 1;
            return;
        }
        let cross = shard != self.current_shard;
        if cross {
            self.cross_shard_scheduled += 1;
        }
        let seq = self.seq;
        self.seq += 1;
        let i = self.queue.store(at, seq, shard, f);
        match &mut self.mesh {
            Some(mesh) if cross => {
                let slack = at.as_nanos() - self.now.as_nanos();
                mesh.route(&mut self.queue, i, shard, slack);
            }
            _ => self.queue.push(i),
        }
    }

    /// Move every staged mesh event into the queue. Called before each
    /// pop so the detour never reorders anything.
    #[inline]
    fn drain_mesh(&mut self) {
        if let Some(mesh) = &mut self.mesh {
            mesh.drain_into(&mut self.queue);
        }
    }

    /// Schedule `f` to run `delay` after now.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, f: impl FnOnce(&mut Kernel) + 'static) {
        self.schedule_at(self.now + delay, f);
    }

    /// Schedule `f` to run "now" but after the current event finishes.
    #[inline]
    pub fn defer(&mut self, f: impl FnOnce(&mut Kernel) + 'static) {
        self.schedule_at(self.now, f);
    }

    /// Execute a single event if one is pending. Returns `false` when the
    /// queue is empty.
    pub fn step(&mut self) -> bool {
        self.step_until(SimTime::MAX)
    }

    /// Execute the earliest pending event if its time is at most
    /// `limit`; `false` (and nothing popped) otherwise.
    fn step_until(&mut self, limit: SimTime) -> bool {
        self.drain_mesh();
        let Some(i) = self.queue.pop(limit) else {
            return false;
        };
        let r = &mut self.queue.records[i as usize];
        debug_assert!(r.at >= self.now, "time went backwards");
        self.now = r.at;
        self.current_shard = r.lane;
        let (call, data) = (r.call, r.data.as_mut_ptr() as *mut usize);
        self.executed += 1;
        // Free the record before the call: the closure may schedule into it.
        self.queue.free.push(i);
        // SAFETY: record `i` was occupied (its index came out of the
        // queue, which names each stored index exactly once) and is
        // consumed exactly here. The closure is called in place: `call`
        // moves it out of `data` before running it, so neither a
        // schedule that reuses this record nor one that grows (and so
        // moves) the record table can touch the bytes while they are
        // read, and nothing reads them afterwards.
        unsafe { call(data, self) };
        // Restore "0 outside any event": runner code scheduling between
        // steps would otherwise inherit the last lane and miscount
        // `cross_shard_scheduled`; the order is `(at, seq)` either way.
        self.current_shard = 0;
        true
    }

    /// Run until the event queue drains.
    pub fn run_to_completion(&mut self) {
        while self.step() {}
        self.now = self.now.max(self.extent);
    }

    /// Run until virtual time reaches `until` (inclusive of events exactly
    /// at `until`) or the queue drains. The clock is advanced to `until`
    /// even if the queue drained earlier.
    pub fn run_until(&mut self, until: SimTime) {
        while self.step_until(until) {}
        self.now = self.now.max(until);
    }
}

impl Drop for Kernel {
    fn drop(&mut self) {
        // Release closures still pending (e.g. after `run_until`): each
        // occupied record is named exactly once by the queue once the
        // mesh inboxes are drained into it.
        self.drain_mesh();
        for i in self.queue.drain() {
            let r = &mut self.queue.records[i as usize];
            // SAFETY: the record is occupied (see above) and this is its
            // single consumption.
            unsafe { (r.drop)(r.data.as_mut_ptr() as *mut usize) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    #[test]
    fn events_fire_in_time_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut k = Kernel::new(0);
        for &t in &[30u64, 10, 20] {
            let order = order.clone();
            k.schedule_at(SimTime::from_micros(t), move |k| {
                order.borrow_mut().push(k.now().as_micros());
            });
        }
        k.run_to_completion();
        assert_eq!(*order.borrow(), vec![10, 20, 30]);
        assert_eq!(k.events_executed(), 3);
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut k = Kernel::new(0);
        for i in 0..16 {
            let order = order.clone();
            k.schedule_at(SimTime::from_micros(5), move |_| {
                order.borrow_mut().push(i);
            });
        }
        k.run_to_completion();
        assert_eq!(*order.borrow(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut k = Kernel::new(0);
        let fired = Rc::new(RefCell::new(0u64));
        let f2 = fired.clone();
        k.schedule_at(SimTime::from_micros(10), move |k| {
            let f3 = f2.clone();
            // Scheduling "in the past" runs at current time, not before.
            k.schedule_at(SimTime::from_micros(1), move |k| {
                *f3.borrow_mut() = k.now().as_micros();
            });
        });
        k.run_to_completion();
        assert_eq!(*fired.borrow(), 10);
    }

    #[test]
    fn nested_scheduling_chains() {
        // An event that schedules an event that schedules an event...
        let count = Rc::new(RefCell::new(0u32));
        let mut k = Kernel::new(0);
        fn chain(k: &mut Kernel, count: Rc<RefCell<u32>>, left: u32) {
            if left == 0 {
                return;
            }
            k.schedule_in(SimDuration::from_micros(1), move |k| {
                *count.borrow_mut() += 1;
                chain(k, count.clone(), left - 1);
            });
        }
        chain(&mut k, count.clone(), 100);
        k.run_to_completion();
        assert_eq!(*count.borrow(), 100);
        assert_eq!(k.now(), SimTime::from_micros(100));
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut k = Kernel::new(0);
        for &t in &[5u64, 15, 25] {
            let fired = fired.clone();
            k.schedule_at(SimTime::from_micros(t), move |_| {
                fired.borrow_mut().push(t);
            });
        }
        k.run_until(SimTime::from_micros(15));
        assert_eq!(*fired.borrow(), vec![5, 15]);
        assert_eq!(k.now(), SimTime::from_micros(15));
        assert_eq!(k.events_pending(), 1);
        // Clock advances to `until` even with an empty relevant window.
        k.run_until(SimTime::from_micros(20));
        assert_eq!(k.now(), SimTime::from_micros(20));
    }

    #[test]
    fn horizon_drops_late_events_and_counts_them() {
        let fired = Rc::new(RefCell::new(0u32));
        let mut k = Kernel::new(0);
        k.set_horizon(SimTime::from_micros(10));
        let f = fired.clone();
        k.schedule_at(SimTime::from_micros(5), move |_| *f.borrow_mut() += 1);
        let f = fired.clone();
        k.schedule_at(SimTime::from_micros(50), move |_| *f.borrow_mut() += 1);
        k.run_to_completion();
        assert_eq!(*fired.borrow(), 1);
        // The loss is observable, not silent.
        assert_eq!(k.horizon_dropped(), 1);
        // A dropped closure's captures are released immediately.
        assert_eq!(Rc::strong_count(&fired), 1);
    }

    #[test]
    fn large_closures_take_the_boxed_path() {
        // Captures well past INLINE_WORDS force the Box fallback; the
        // event must still run exactly once with its payload intact.
        let big = [7u64; 32];
        let out = Rc::new(RefCell::new(0u64));
        let o = out.clone();
        let mut k = Kernel::new(0);
        k.schedule_at(SimTime::from_micros(1), move |_| {
            *o.borrow_mut() = big.iter().sum();
        });
        k.run_to_completion();
        assert_eq!(*out.borrow(), 7 * 32);
        assert_eq!(k.events_executed(), 1);
    }

    #[test]
    fn pending_events_release_captures_on_kernel_drop() {
        // Both inline and boxed pending closures must be dropped (not
        // leaked, not run) when the kernel is torn down mid-run, from
        // the current tick's run, the wheel and the far heap alike.
        let token = Rc::new(());
        {
            let mut k = Kernel::new(0);
            let ats = [5_000u64, 5_000, 5_100, 6_000, 300_000, 1 << 40, 1 << 40];
            for (i, &at) in ats.iter().enumerate() {
                let t = token.clone();
                if i % 2 == 0 {
                    k.schedule_at(SimTime::from_nanos(at), move |_| drop(t));
                } else {
                    let big = [0u64; 32];
                    k.schedule_at(SimTime::from_nanos(at), move |_| {
                        std::hint::black_box(big);
                        drop(t);
                    });
                }
            }
            k.run_until(SimTime::from_micros(1));
            assert_eq!(Rc::strong_count(&token), 1 + ats.len());
            // One 5 µs event runs; the other and the 5.1 µs one share its
            // tick and stay in the run, two more sit on two wheel slots
            // and the last two in the far heap.
            assert!(k.step());
            assert_eq!(k.queue.run.len(), 2);
            let slots: u32 = k.queue.occupied.iter().map(|w| w.count_ones()).sum();
            assert_eq!(slots, 2);
            assert_eq!(k.queue.far.len(), 2);
            assert_eq!(k.events_pending(), ats.len() - 1);
            assert_eq!(Rc::strong_count(&token), ats.len());
        }
        assert_eq!(Rc::strong_count(&token), 1);
    }

    /// `run_until` must not settle past its cutoff: the caller may still
    /// schedule between `until` and the pending head, and that event
    /// fires first.
    #[test]
    fn run_until_leaves_room_before_the_head() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut k = Kernel::new(0);
        let t = SimTime::from_micros(100);
        let o = order.clone();
        k.schedule_at(t + SimDuration::from_micros(10), move |_| {
            o.borrow_mut().push("head")
        });
        k.run_until(t);
        assert_eq!(k.now(), t);
        let o = order.clone();
        k.schedule_at(t + SimDuration::from_micros(5), move |_| {
            o.borrow_mut().push("new")
        });
        k.run_to_completion();
        assert_eq!(*order.borrow(), vec!["new", "head"]);
    }

    /// `extend_to` leaves the drained clock where an event that did
    /// nothing would have: at the latest extent within the horizon, and
    /// never before the last event. An extent past the horizon counts as
    /// a dropped event.
    #[test]
    fn extend_to_stands_in_for_an_empty_event() {
        fn end(extents: &[u64], empty_events: bool) -> (SimTime, u64, u64) {
            let mut k = Kernel::new(0);
            k.set_horizon(SimTime::from_micros(50));
            k.schedule_at(SimTime::from_micros(10), move |_| {});
            for &at in extents {
                let at = SimTime::from_micros(at);
                if empty_events {
                    k.schedule_at(at, |_| {});
                } else {
                    k.extend_to(at);
                }
            }
            k.run_until(SimTime::from_micros(5));
            k.run_to_completion();
            (k.now(), k.events_executed(), k.horizon_dropped())
        }
        for extents in [&[][..], &[4], &[20, 30], &[30, 20], &[20, 60], &[50], &[60]] {
            let (now, events, dropped) = end(extents, false);
            let (empty_now, _, empty_dropped) = end(extents, true);
            assert_eq!(now, empty_now, "extents {extents:?}");
            assert_eq!(dropped, empty_dropped, "extents {extents:?}");
            assert_eq!(events, 1, "extents schedule nothing");
        }
        assert_eq!(end(&[20, 60], false).0, SimTime::from_micros(20));
        assert_eq!(end(&[60, 70], false).2, 2);
        // Past a cutoff beyond the horizon, both are clamped to the clock.
        for empty_event in [false, true] {
            let mut k = Kernel::new(0);
            k.set_horizon(SimTime::from_micros(50));
            k.run_until(SimTime::from_micros(60));
            if empty_event {
                k.schedule_at(SimTime::from_micros(40), |_| {});
            } else {
                k.extend_to(SimTime::from_micros(40));
            }
            assert_eq!(k.horizon_dropped(), 1, "empty event: {empty_event}");
        }
    }

    /// One differential workload: how far ahead events are scheduled,
    /// where `run_until` cuts, and how many events it runs.
    struct Mix {
        /// Delay of a new event, given the clock in nanoseconds.
        delay: fn(&mut Pcg32, u64) -> u64,
        /// Next cutoff, given the last one and the earliest unfired
        /// `at` (if any).
        cutoff: fn(&mut Pcg32, u64, Option<u64>) -> u64,
        budget: u32,
    }

    /// Every schedule and every firing of one differential run, keyed
    /// by the kernel's own `seq` (the count of schedules before it).
    struct Diff {
        rng: RefCell<Pcg32>,
        delay: fn(&mut Pcg32, u64) -> u64,
        next_seq: Cell<u64>,
        /// Children events may still schedule.
        budget: Cell<u32>,
        scheduled: RefCell<Vec<(u64, u64)>>,
        fired: RefCell<Vec<(u64, u64)>>,
    }

    /// A delay from the mix the kernel sees plus the extremes: zero,
    /// sub-µs, ~241 µs, past 2^40 ns, and "the next 4 µs boundary",
    /// which piles many events onto one instant.
    fn diff_delay(rng: &mut Pcg32, now: u64) -> u64 {
        match rng.gen_below(6) {
            0 => 0,
            1 => rng.gen_range(1, 1_000),
            2 => 241_000 + rng.gen_range(0, 1_000),
            3 => (1 << 40) + rng.gen_range(0, 1 << 20),
            _ => 4_096 - now % 4_096,
        }
    }

    fn diff_cutoff(rng: &mut Pcg32, until: u64, _: Option<u64>) -> u64 {
        until + rng.gen_range(0, 300_000)
    }

    const TICK: u64 = 1 << TICK_SHIFT;
    const SPAN: u64 = SLOTS as u64 * TICK;

    /// Delays at the wheel's edges: inside the current tick, exactly on
    /// a tick boundary, span − 1, span and span + 1 ticks ahead (from
    /// the clock and from a boundary), and far past the span.
    fn edge_delay(rng: &mut Pcg32, now: u64) -> u64 {
        let to_boundary = TICK - now % TICK;
        match rng.gen_below(10) {
            0 => 0,
            1 => rng.gen_range(0, to_boundary),
            2 => to_boundary,
            3 => to_boundary + TICK * rng.gen_range(0, 64),
            4 => SPAN - TICK + rng.gen_range(0, 2) * to_boundary,
            5 => SPAN + rng.gen_range(0, 2) * to_boundary,
            6 => SPAN + TICK + rng.gen_range(0, 2) * to_boundary,
            7 => 2 * SPAN + rng.gen_range(0, SPAN),
            _ => rng.gen_range(1, 3 * TICK),
        }
    }

    /// Cutoffs that land on the next pending event, so its tick still
    /// holds later ones, or jump past a whole span.
    fn edge_cutoff(rng: &mut Pcg32, until: u64, next: Option<u64>) -> u64 {
        match (rng.gen_below(3), next) {
            (0, Some(at)) => at.max(until),
            (1, _) => until + SPAN + rng.gen_range(0, SPAN),
            _ => until + rng.gen_range(0, 3 * TICK),
        }
    }

    const BASE: Mix = Mix {
        delay: diff_delay,
        cutoff: diff_cutoff,
        budget: 2_000,
    };
    const EDGES: Mix = Mix {
        delay: edge_delay,
        cutoff: edge_cutoff,
        budget: 3_000,
    };

    fn diff_schedule(k: &mut Kernel, st: &Rc<Diff>, lane: u32, at: SimTime) {
        let seq = st.next_seq.get();
        st.next_seq.set(seq + 1);
        st.scheduled.borrow_mut().push((at.as_nanos(), seq));
        let st = st.clone();
        k.schedule_at_on(lane, at, move |k| {
            assert_eq!(k.current_shard(), lane, "event ran on the wrong lane");
            st.fired.borrow_mut().push((k.now().as_nanos(), seq));
            // Nested scheduling onto random lanes: zero-delay crossings
            // ride the mesh (when on) behind direct same-instant pushes.
            let children = st.rng.borrow_mut().gen_below(4);
            for _ in 0..children {
                if st.budget.get() == 0 {
                    break;
                }
                st.budget.set(st.budget.get() - 1);
                let (lane, delay) = {
                    let mut rng = st.rng.borrow_mut();
                    let lane = rng.gen_below(k.shards() as u32);
                    (lane, (st.delay)(&mut rng, k.now().as_nanos()))
                };
                diff_schedule(k, &st, lane, k.now() + SimDuration::from_nanos(delay));
            }
        });
    }

    /// The reference order: every schedule so far sorted by `(at, seq)`.
    fn diff_reference(st: &Diff) -> Vec<(u64, u64)> {
        let mut all = st.scheduled.borrow().clone();
        all.sort_unstable();
        all
    }

    /// What a differential run drove the wheel through.
    #[derive(Default)]
    struct Seen {
        /// Cutoffs that left a later event in the current tick's run.
        cut_inside_tick: u32,
        /// Cutoffs with events waiting in the far heap.
        far_pending: u32,
        /// The wheel's last tick.
        last_tick: u64,
    }

    fn run_diff(mix: &Mix, seed: u64, shards: usize, parallel: bool) -> (Vec<(u64, u64)>, Seen) {
        let st = Rc::new(Diff {
            rng: RefCell::new(Pcg32::new(seed)),
            delay: mix.delay,
            next_seq: 0.into(),
            budget: mix.budget.into(),
            scheduled: RefCell::new(Vec::new()),
            fired: RefCell::new(Vec::new()),
        });
        let mut seen = Seen::default();
        let mut k = Kernel::with_shards(seed, shards);
        k.set_parallel(parallel);
        let lanes = shards as u32;
        for i in 0..64 {
            let delay = (mix.delay)(&mut st.rng.borrow_mut(), 0);
            diff_schedule(&mut k, &st, i % lanes, SimTime::from_nanos(delay));
        }
        // Cutoffs, each followed by schedules from outside any event,
        // some of them between the cutoff and the pending head.
        let mut until = 0;
        for _ in 0..24 {
            let next = diff_reference(&st)
                .get(st.fired.borrow().len())
                .map(|&(at, _)| at);
            until = (mix.cutoff)(&mut st.rng.borrow_mut(), until, next);
            k.run_until(SimTime::from_nanos(until));
            assert_eq!(k.now(), SimTime::from_nanos(until));
            let fired = st.fired.borrow().clone();
            let reference = diff_reference(&st);
            assert_eq!(fired[..], reference[..fired.len()], "seed {seed}");
            assert!(
                reference.get(fired.len()).is_none_or(|&(at, _)| at > until),
                "run_until({until}) left a due event pending"
            );
            seen.cut_inside_tick += u32::from(!k.queue.run.is_empty());
            seen.far_pending += u32::from(!k.queue.far.is_empty());
            for _ in 0..4 {
                let (lane, delay) = {
                    let mut rng = st.rng.borrow_mut();
                    let delay = match rng.gen_below(3) {
                        0 => (mix.delay)(&mut rng, until),
                        _ => rng.gen_range(0, 3_000),
                    };
                    (rng.gen_below(lanes), delay)
                };
                diff_schedule(&mut k, &st, lane, SimTime::from_nanos(until + delay));
            }
        }
        k.run_to_completion();
        assert_eq!(k.events_pending(), 0);
        seen.last_tick = k.queue.tick;
        let reference = diff_reference(&st);
        assert!(reference.len() > 1_000, "too few events to compare");
        assert_eq!(*st.fired.borrow(), reference, "seed {seed}");
        if parallel {
            assert!(k.mesh_routed() > 0, "mesh never engaged");
        }
        (reference, seen)
    }

    /// The queue pops exactly the reference sort by `(at, seq)`, across
    /// the full range of delays, same-instant ties, nested scheduling,
    /// cross-lane schedules with the mesh off and on, and `run_until`
    /// cutoffs with schedules in between.
    #[test]
    fn queue_order_matches_reference_sort() {
        for seed in [1, 42] {
            let serial = run_diff(&BASE, seed, 1, false).0;
            assert_eq!(run_diff(&BASE, seed, 4, false).0, serial);
            assert_eq!(run_diff(&BASE, seed, 4, true).0, serial);
        }
    }

    /// The same at the wheel's edges: tick boundaries, delays of about
    /// one span, far events moving into the wheel, slot indices wrapping
    /// after the wheel has turned more than once, cutoffs inside a tick
    /// that still holds a later event, and mesh-drained lower-`seq`
    /// schedules landing in the current tick.
    #[test]
    fn wheel_edges_match_reference_sort() {
        for seed in [3, 7] {
            let (serial, seen) = run_diff(&EDGES, seed, 1, false);
            assert!(seen.cut_inside_tick > 0, "no cutoff fell inside a tick");
            assert!(seen.far_pending > 0, "nothing waited past the span");
            assert!(
                seen.last_tick > 2 * SLOTS as u64,
                "the wheel never wrapped twice"
            );
            assert_eq!(run_diff(&EDGES, seed, 4, true).0, serial);
        }
    }

    /// Both mixes over many more seeds and events, in a release build:
    /// `cargo test --release -p simkit --lib -- --ignored kernel::`.
    #[test]
    #[ignore = "high-budget differential; CI runs it in release"]
    fn queue_order_matches_reference_sort_at_scale() {
        for seed in 0..32 {
            for mix in [&BASE, &EDGES] {
                let big = Mix {
                    budget: 20_000,
                    ..*mix
                };
                let serial = run_diff(&big, seed, 1, false).0;
                assert_eq!(run_diff(&big, seed, 3, true).0, serial, "seed {seed}");
            }
        }
    }

    /// A cutoff inside a tick leaves that tick's later event pending; a
    /// schedule between the cutoff and that event, from outside any
    /// event, joins the same tick and fires first.
    #[test]
    fn run_until_inside_a_tick_keeps_its_later_events() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut k = Kernel::new(0);
        for at in [5_000u64, 5_100] {
            let o = order.clone();
            k.schedule_at(SimTime::from_nanos(at), move |_| o.borrow_mut().push(at));
        }
        k.run_until(SimTime::from_nanos(5_050));
        assert_eq!(*order.borrow(), vec![5_000]);
        assert_eq!(k.queue.run.len(), 1, "5.1 µs shares the 5 µs tick");
        for at in [5_060u64, 5_050] {
            let o = order.clone();
            k.schedule_at(SimTime::from_nanos(at), move |_| o.borrow_mut().push(at));
        }
        k.run_to_completion();
        assert_eq!(*order.borrow(), vec![5_000, 5_050, 5_060, 5_100]);
    }

    /// With the wheel empty, a cutoff exactly at a far event runs it, and
    /// one just before the next leaves room to schedule ahead of it.
    #[test]
    fn run_until_reaches_far_events_exactly() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut k = Kernel::new(0);
        for at in [2 * SPAN + 5, 3 * SPAN + 7] {
            let o = order.clone();
            k.schedule_at(SimTime::from_nanos(at), move |_| o.borrow_mut().push(at));
        }
        assert_eq!(k.queue.far.len(), 2);
        k.run_until(SimTime::from_nanos(2 * SPAN + 5));
        assert_eq!(*order.borrow(), vec![2 * SPAN + 5]);
        k.run_until(SimTime::from_nanos(3 * SPAN + 6));
        assert_eq!(order.borrow().len(), 1);
        let o = order.clone();
        k.schedule_at(SimTime::from_nanos(3 * SPAN + 6), move |_| {
            o.borrow_mut().push(0)
        });
        k.run_to_completion();
        assert_eq!(*order.borrow(), vec![2 * SPAN + 5, 0, 3 * SPAN + 7]);
    }

    /// A crossing detoured through the mesh reaches the queue one step
    /// late with a lower `seq` than a direct schedule for the same
    /// instant in the current tick; it must still fire first, and both
    /// before a later event already in that tick.
    #[test]
    fn mesh_crossing_into_the_current_tick_keeps_seq_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut k = Kernel::with_shards(0, 2);
        k.set_parallel(true);
        let start = SimTime::from_nanos(4 * TICK);
        let o = order.clone();
        k.schedule_at(start + SimDuration::from_nanos(200), move |_| {
            o.borrow_mut().push("later")
        });
        let o = order.clone();
        k.schedule_at(start, move |k| {
            let (a, b) = (o.clone(), o.clone());
            let at = k.now() + SimDuration::from_nanos(100);
            k.schedule_at_on(1, at, move |_| a.borrow_mut().push("crossing"));
            k.schedule_at(at, move |_| b.borrow_mut().push("local"));
        });
        k.run_to_completion();
        assert_eq!(k.mesh_routed(), 1);
        assert_eq!(*order.borrow(), vec!["crossing", "local", "later"]);
    }

    /// A zero-delay crossing detours through the mesh while a same-lane
    /// zero-delay child goes straight into the current tick's run; the
    /// detour carries the lower `seq`, so it must still fire first.
    #[test]
    fn mesh_zero_delay_crossing_fires_before_later_ties() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut k = Kernel::with_shards(0, 2);
        k.set_parallel(true);
        let o = order.clone();
        k.schedule_at(SimTime::from_micros(1), move |k| {
            let (a, b) = (o.clone(), o.clone());
            k.schedule_at_on(1, k.now(), move |_| a.borrow_mut().push("crossing"));
            k.defer(move |_| b.borrow_mut().push("local"));
        });
        k.run_to_completion();
        assert_eq!(k.mesh_routed(), 1);
        assert_eq!(*order.borrow(), vec!["crossing", "local"]);
    }

    #[test]
    fn slot_recycling_survives_reentrant_scheduling() {
        // An event that schedules from inside its own execution reuses
        // the record just freed; exercise a deep chain to churn the free
        // list in both inline and boxed flavours.
        let count = Rc::new(RefCell::new(0u32));
        let mut k = Kernel::new(0);
        fn chain(k: &mut Kernel, count: Rc<RefCell<u32>>, left: u32) {
            if left == 0 {
                return;
            }
            let big = [left as u64; 16];
            k.schedule_in(SimDuration::from_nanos(1), move |k| {
                std::hint::black_box(big);
                *count.borrow_mut() += 1;
                chain(k, count.clone(), left - 1);
            });
            // An inline-sized sibling at the same instant.
            k.schedule_in(SimDuration::from_nanos(1), |_| {});
        }
        chain(&mut k, count.clone(), 64);
        k.run_to_completion();
        assert_eq!(*count.borrow(), 64);
        assert_eq!(k.events_executed(), 128);
    }

    /// Schedule child `id` at `at`: inline when `id` is even, boxed
    /// (over `INLINE_WORDS`) when odd. It records that it ran and
    /// checks that its captures arrived intact.
    fn growth_child(k: &mut Kernel, ran: &Rc<RefCell<Vec<u64>>>, token: &Rc<()>, id: u64) {
        let (r, t) = (ran.clone(), token.clone());
        let at = SimTime::from_nanos(id);
        if id.is_multiple_of(2) {
            k.schedule_at(at, move |_| {
                r.borrow_mut().push(id);
                drop(t);
            });
        } else {
            let big = [id; 16];
            k.schedule_at(at, move |_| {
                assert_eq!(big, [id; 16]);
                r.borrow_mut().push(id);
                drop(t);
            });
        }
    }

    /// Schedule more children than the record table has room for, so it
    /// reallocates while the calling event's record is the one
    /// being consumed.
    fn grow_the_table(k: &mut Kernel, ran: &Rc<RefCell<Vec<u64>>>, token: &Rc<()>, from: u64) {
        let q = &k.queue;
        let (room, cap) = (
            q.records.capacity() - q.records.len() + q.free.len(),
            q.records.capacity(),
        );
        for id in from..from + room as u64 + 1 {
            growth_child(k, ran, token, id);
        }
        assert!(
            k.queue.records.capacity() > cap,
            "the record table did not grow"
        );
    }

    /// The in-place call: an inline and a boxed event each grow the
    /// record table from inside their own call, then use their captures.
    /// Every closure runs exactly once, and the children still pending
    /// when the kernel drops release their captures exactly once.
    #[test]
    fn in_place_call_survives_record_table_growth() {
        const LATE: u64 = 1_000_000;
        let ran = Rc::new(RefCell::new(Vec::new()));
        let token = Rc::new(());
        let mut expected = vec![1, 2];
        {
            let mut k = Kernel::new(0);
            let (r, t) = (ran.clone(), token.clone());
            let words = [3u64; 10];
            k.schedule_at(SimTime::from_nanos(1), move |k| {
                grow_the_table(k, &r, &t, 10);
                assert_eq!(words, [3; 10], "inline captures moved with the table");
                r.borrow_mut().push(1);
            });
            let (r, t) = (ran.clone(), token.clone());
            let big = [5u64; 32];
            k.schedule_at(SimTime::from_nanos(2), move |k| {
                grow_the_table(k, &r, &t, LATE);
                assert_eq!(big, [5; 32], "boxed captures survived the move");
                r.borrow_mut().push(2);
            });
            k.run_until(SimTime::from_nanos(LATE - 1));
            let pending = k.events_pending();
            assert!(pending > 1024, "the late children stay pending");
            expected.extend(10..10 + (k.events_executed() - 2));
            let mut got = ran.borrow().clone();
            got.sort_unstable();
            assert_eq!(got, expected, "every early event ran exactly once");
            assert!(ran.borrow().iter().all(|&id| id < LATE));
            assert_eq!(Rc::strong_count(&token), 1 + pending);
        }
        assert_eq!(Rc::strong_count(&token), 1);
        assert_eq!(ran.borrow().len(), expected.len(), "nothing ran at drop");
    }

    #[test]
    fn defer_runs_after_current_event_at_same_time() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut k = Kernel::new(0);
        let o = order.clone();
        k.schedule_at(SimTime::from_micros(1), move |k| {
            o.borrow_mut().push("outer");
            let o2 = o.clone();
            k.defer(move |_| o2.borrow_mut().push("deferred"));
            o.borrow_mut().push("outer-end");
        });
        k.run_to_completion();
        assert_eq!(*order.borrow(), vec!["outer", "outer-end", "deferred"]);
    }

    /// The tentpole invariant: any shard count replays the serial
    /// kernel's total order bit-identically, including same-instant ties
    /// and nested scheduling across lanes.
    #[test]
    fn sharded_merge_matches_serial_order() {
        fn run(shards: usize) -> Vec<(u64, u64)> {
            let order = Rc::new(RefCell::new(Vec::new()));
            let mut k = Kernel::with_shards(9, shards);
            let n = shards as u64;
            for i in 0..40u64 {
                let order = order.clone();
                let lane = (i % n.max(1)) as u32 % k.shards() as u32;
                // Deliberate tie storms: only 5 distinct timestamps.
                k.schedule_at_on(lane, SimTime::from_micros(i % 5), move |k| {
                    order.borrow_mut().push((i, k.now().as_micros()));
                    if i < 8 {
                        // Nested: child inherits the lane, same instant.
                        let order = order.clone();
                        k.defer(move |k| {
                            order.borrow_mut().push((100 + i, k.now().as_micros()));
                        });
                    }
                });
            }
            k.run_to_completion();
            Rc::try_unwrap(order).unwrap().into_inner()
        }
        let serial = run(1);
        for shards in [2, 3, 4, 8] {
            assert_eq!(run(shards), serial, "shards={shards} diverged from serial");
        }
    }

    #[test]
    fn events_inherit_and_with_shard_overrides_lane() {
        let lanes = Rc::new(RefCell::new(Vec::new()));
        let mut k = Kernel::with_shards(0, 4);
        let l = lanes.clone();
        k.schedule_at_on(2, SimTime::from_micros(1), move |k| {
            l.borrow_mut().push(k.current_shard());
            let l2 = l.clone();
            // Inherits lane 2.
            k.defer(move |k| l2.borrow_mut().push(k.current_shard()));
            let l3 = l.clone();
            // Synchronous handoff: nested schedules land on lane 3.
            k.with_shard(3, |k| {
                k.defer(move |k| l3.borrow_mut().push(k.current_shard()));
            });
            assert_eq!(k.current_shard(), 2, "context restored after with_shard");
        });
        k.run_to_completion();
        assert_eq!(*lanes.borrow(), vec![2, 2, 3]);
        // Only the explicit setup placement counts: inside `with_shard`
        // the context IS the target lane, so nested schedules are local.
        assert_eq!(k.cross_shard_scheduled(), 1);
    }

    /// Regression: `current_shard` documents "(0 outside any event)",
    /// but `step()` used to leave it at the last executed lane — runner
    /// code scheduling between steps then inherited a stale shard and
    /// was miscounted as cross-shard traffic (or silently landed on the
    /// wrong lane's ownership books).
    #[test]
    fn shard_context_resets_between_events() {
        let mut k = Kernel::with_shards(0, 4);
        k.schedule_at_on(3, SimTime::from_micros(1), |k| {
            assert_eq!(k.current_shard(), 3, "context set inside the event");
        });
        k.run_to_completion();
        assert_eq!(k.current_shard(), 0, "context cleared after the run");
        assert_eq!(k.cross_shard_scheduled(), 1);
        // Between-run scheduling is lane-0 work again: no stale lane-3
        // inheritance, no phantom cross-shard count.
        let lanes = Rc::new(RefCell::new(Vec::new()));
        let l = lanes.clone();
        k.schedule_at(SimTime::from_micros(2), move |k| {
            l.borrow_mut().push(k.current_shard())
        });
        assert_eq!(k.cross_shard_scheduled(), 1, "no phantom cross-shard count");
        k.run_to_completion();
        assert_eq!(*lanes.borrow(), vec![0]);
        assert_eq!(k.current_shard(), 0);
    }

    /// The `parallel: true` detour: cross-lane schedules ride per-lane
    /// mailboxes instead of direct pushes, and the result replays
    /// the direct path bit-identically (the order is `(at, seq)`
    /// either way).
    #[test]
    fn mesh_detour_replays_direct_path() {
        fn run(shards: usize, parallel: bool) -> (Vec<(u64, u64)>, u64) {
            let order = Rc::new(RefCell::new(Vec::new()));
            let mut k = Kernel::with_shards(9, shards);
            k.set_parallel(parallel);
            let n = shards as u64;
            for i in 0..40u64 {
                let order = order.clone();
                let lane = (i % n) as u32;
                k.schedule_at_on(lane, SimTime::from_micros(i % 5), move |k| {
                    order.borrow_mut().push((i, k.now().as_micros()));
                    if i < 8 {
                        let order = order.clone();
                        // Hop to the next lane from inside an event —
                        // the detour the mesh actually routes.
                        let to = (k.current_shard() + 1) % k.shards() as u32;
                        k.schedule_at_on(to, k.now() + SimDuration::from_micros(2), move |k| {
                            order.borrow_mut().push((100 + i, k.now().as_micros()));
                        });
                    }
                });
            }
            k.run_to_completion();
            let routed = k.mesh_routed();
            (Rc::try_unwrap(order).unwrap().into_inner(), routed)
        }
        let (direct, d_routed) = run(4, false);
        let (meshed, m_routed) = run(4, true);
        assert_eq!(direct, meshed, "mesh detour changed the replay");
        assert_eq!(d_routed, 0);
        assert!(m_routed > 0, "mesh never engaged");
    }

    /// More routed schedules than an inbox holds, posted from one event:
    /// the full ring empties into the queue and order still follows
    /// `(at, seq)`.
    #[test]
    fn mesh_ring_full_spills_into_the_queue() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut k = Kernel::with_shards(0, 2);
        k.set_parallel(true);
        let o = order.clone();
        k.schedule_at(SimTime::ZERO, move |k| {
            for i in 0..3000u64 {
                let o = o.clone();
                let at = SimTime::from_nanos(3000 - i);
                k.schedule_at_on(1, at, move |_| o.borrow_mut().push(i));
            }
        });
        k.run_to_completion();
        assert_eq!(k.mesh_routed(), 3000);
        assert_eq!(*order.borrow(), (0..3000).rev().collect::<Vec<_>>());
    }

    #[test]
    fn mesh_min_slack_reports_effective_lookahead() {
        let mut k = Kernel::with_shards(0, 2);
        k.set_parallel(true);
        assert!(k.parallel());
        assert_eq!(k.mesh_min_slack_nanos(), None);
        k.schedule_at_on(0, SimTime::from_micros(1), |k| {
            k.schedule_at_on(1, k.now() + SimDuration::from_micros(3), |_| {});
            k.schedule_at_on(1, k.now() + SimDuration::from_micros(7), |_| {});
        });
        k.run_to_completion();
        assert_eq!(k.mesh_routed(), 2);
        assert_eq!(k.mesh_min_slack_nanos(), Some(3_000));
    }

    #[test]
    fn mesh_staged_events_release_captures_on_drop() {
        let token = Rc::new(());
        {
            let mut k = Kernel::with_shards(0, 2);
            k.set_parallel(true);
            let t = token.clone();
            k.schedule_at_on(0, SimTime::from_micros(1), move |k| {
                let t2 = t.clone();
                // Routed through the mesh, drained into the queue by the
                // next step, then stranded there by the cutoff.
                k.schedule_at_on(1, k.now() + SimDuration::from_micros(1), move |_| drop(t2));
            });
            k.run_until(SimTime::from_micros(1));
            assert_eq!(k.events_pending(), 1, "staged event counted as pending");
            // A second one posted after the run stays in the mesh inbox
            // itself — the kernel is torn down before any step drains
            // it, exercising the inbox leg of Drop.
            let t = token.clone();
            k.schedule_at_on(1, SimTime::from_micros(3), move |_| drop(t));
            assert_eq!(k.events_pending(), 2);
            assert_eq!(Rc::strong_count(&token), 3);
        }
        assert_eq!(Rc::strong_count(&token), 1);
    }

    #[test]
    fn identical_seeds_identical_traces() {
        fn run(seed: u64) -> Vec<u64> {
            let out = Rc::new(RefCell::new(Vec::new()));
            let mut k = Kernel::new(seed);
            for i in 0..50u64 {
                let out = out.clone();
                k.schedule_at(SimTime::from_nanos(i), move |k| {
                    let jitter = k.rng().gen_range(0, 1000);
                    out.borrow_mut().push(jitter);
                });
            }
            k.run_to_completion();
            Rc::try_unwrap(out).unwrap().into_inner()
        }
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
