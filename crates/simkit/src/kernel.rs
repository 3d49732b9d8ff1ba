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
//! *monotone* priority queue, and the kernel keeps it in a radix heap
//! keyed on `at` (DESIGN.md §8): a push is a bit scan and a `Vec` push,
//! and a pop refiles one small bucket. Same-instant events leave in
//! `seq` order.

use crate::rng::Pcg32;
use crate::time::{SimDuration, SimTime};
use queues::{MailboxRx, MailboxTx};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::mem::MaybeUninit;

/// Closures up to this many machine words are stored inline in their
/// event slot; larger (or over-aligned) ones fall back to a `Box`. Sized
/// so an [`EventSlot`] is exactly two cache lines while still covering
/// the deepest hot-path capture (the device-completion closure: two `Rc`
/// handles, an SQE, a payload handle and the nested completion callback),
/// so the steady state schedules without allocating.
const INLINE_WORDS: usize = 14;

type EventData = [MaybeUninit<usize>; INLINE_WORDS];
// SAFETY: callers must pass a pointer to storage initialized by
// `store_event` for the erased closure type, and never use it again.
type CallFn = unsafe fn(*mut usize, &mut Kernel);
// SAFETY: same contract as `CallFn`; consumes the stored closure unrun.
type DropFn = unsafe fn(*mut usize);

/// One stored event closure: erased call/drop entry points plus either
/// the closure itself (inline) or a raw `Box` pointer to it.
///
/// Lifecycle is manual — `EventSlot` deliberately has no `Drop` impl.
/// A slot is *occupied* from `store_event` until exactly one of `call`
/// (which consumes the closure) or `drop` (kernel teardown with pending
/// events) runs; afterwards its index sits on the free list and the
/// stale bytes are never touched again.
#[derive(Clone, Copy)]
struct EventSlot {
    call: CallFn,
    drop: DropFn,
    data: EventData,
}

/// Run the closure stored inline in `data`, consuming it.
///
/// # Safety
/// `data` points at storage previously initialized by `store_event` for
/// this exact `F`, and is not used again afterwards. The other three
/// entry points share this contract.
unsafe fn call_inline<F: FnOnce(&mut Kernel)>(data: *mut usize, k: &mut Kernel) {
    // SAFETY: per the contract, `data` holds a valid `F` (inline layout
    // was checked at store time); `read` takes ownership, so the slot is
    // dead after this call.
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
    // the `Box` here and the slot is dead after this call.
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

/// One scheduled event: the mesh mailbox message, and the queue's
/// per-slot key table entry.
#[derive(Clone, Copy)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    slot: u32,
    /// Lane the event runs on; a label, not part of the order.
    lane: u32,
}

const _: () = assert!(std::mem::size_of::<Scheduled>() == 24);

/// Every pending event of every lane, popped in `(at, seq)` order.
///
/// A radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, JACM 1990) over
/// `at`. It relies on the kernel being *monotone* — nothing is ever
/// scheduled before `now` — so every pending `at` is at least `last`,
/// the `at` of the minimum most recently settled. An event sits in
/// bucket `b`, the highest bit at which its `at` differs from `last`;
/// every `at` in a lower bucket is then smaller than every `at` in a
/// higher one, so the lowest non-empty bucket holds the minimum.
/// Settling it moves `last` up to that minimum and refiles the bucket's
/// other entries into strictly lower buckets, so each event is refiled
/// at most 64 times and in practice a few. Events at `last` wait in
/// `ties` in `seq` order. Entries are slot indices, not keys, to keep
/// the buckets small; the keys sit in one table indexed by slot.
struct EventQueue {
    keys: Vec<Scheduled>,
    buckets: [Vec<u32>; 64],
    /// Bit `b` is set iff `buckets[b]` is non-empty.
    nonempty: u64,
    /// Slots whose `at == last`, ascending by `seq`: the queue's head.
    ties: VecDeque<u32>,
    last: SimTime,
}

impl EventQueue {
    fn new() -> Self {
        EventQueue {
            keys: Vec::with_capacity(1024),
            buckets: std::array::from_fn(|_| Vec::new()),
            nonempty: 0,
            ties: VecDeque::with_capacity(64),
            last: SimTime::ZERO,
        }
    }

    fn len(&self) -> usize {
        self.ties.len() + self.buckets.iter().map(Vec::len).sum::<usize>()
    }

    /// Put a slot whose `at > last` into its bucket.
    #[inline]
    fn file(&mut self, slot: u32, at: SimTime) {
        let b = 63 - (at.as_nanos() ^ self.last.as_nanos()).leading_zeros() as usize;
        self.buckets[b].push(slot);
        self.nonempty |= 1 << b;
    }

    fn push(&mut self, s: Scheduled) {
        debug_assert!(s.at >= self.last, "scheduled before the settled minimum");
        let i = s.slot as usize;
        if i < self.keys.len() {
            self.keys[i] = s;
        } else {
            // Slots are numbered densely, but a mesh-routed one may be
            // filed after a younger slot; the gap is overwritten when
            // its own event is pushed.
            self.keys.resize(i + 1, s);
        }
        if s.at > self.last {
            self.file(s.slot, s.at);
            return;
        }
        // Insert from the back: a schedule drained from the mesh can
        // carry a lower `seq` than one pushed directly in the same step.
        let keys = &self.keys;
        let pos = self
            .ties
            .iter()
            .rposition(|&j| keys[j as usize].seq < s.seq)
            .map_or(0, |p| p + 1);
        self.ties.insert(pos, s.slot);
    }

    /// Remove and return the earliest `(at, seq)` event if its `at` is
    /// at most `limit`. `last` only advances to an `at` that is popped
    /// here, so it never passes the clock: a caller of
    /// [`Kernel::run_until`] may still schedule between `until` and a
    /// later head.
    fn pop(&mut self, limit: SimTime) -> Option<Scheduled> {
        let ready = if self.ties.is_empty() {
            self.settle(limit)
        } else {
            self.last <= limit
        };
        if !ready {
            return None;
        }
        let slot = self.ties.pop_front()?;
        Some(self.keys[slot as usize])
    }

    /// With `ties` empty: if the earliest pending `at` is at most
    /// `limit`, make it `last` and move its events into `ties`.
    fn settle(&mut self, limit: SimTime) -> bool {
        if self.nonempty == 0 {
            return false;
        }
        let b = self.nonempty.trailing_zeros() as usize;
        let mut bucket = std::mem::take(&mut self.buckets[b]);
        let min = bucket
            .iter()
            .map(|&i| self.keys[i as usize].at)
            .min()
            .expect("a set bit names a non-empty bucket");
        if min > limit {
            self.buckets[b] = bucket;
            return false;
        }
        self.last = min;
        self.nonempty &= !(1 << b);
        for &i in &bucket {
            let at = self.keys[i as usize].at;
            if at == min {
                self.ties.push_back(i);
            } else {
                self.file(i, at);
            }
        }
        // Refiling only reached lower buckets; keep this one's capacity.
        bucket.clear();
        self.buckets[b] = bucket;
        if self.ties.len() > 1 {
            let keys = &self.keys;
            self.ties
                .make_contiguous()
                .sort_unstable_by_key(|&i| keys[i as usize].seq);
        }
        true
    }

    /// Every pending slot, each named exactly once, emptying the queue.
    fn drain(&mut self) -> impl Iterator<Item = u32> + '_ {
        self.nonempty = 0;
        self.ties
            .drain(..)
            .chain(self.buckets.iter_mut().flat_map(|b| b.drain(..)))
    }
}

/// Per-lane inbox of the routing mesh: cross-lane schedules are sent
/// here and drained into the queue at the top of the next `step()`.
/// The detour exercises the mailbox path and the slack audit, while the
/// `(at, seq)` order keeps results byte-identical to direct pushes.
struct MeshInbox {
    tx: MailboxTx<Scheduled>,
    rx: MailboxRx<Scheduled>,
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
    /// Move every staged event into `queue`.
    #[inline]
    fn drain_into(&mut self, queue: &mut EventQueue) {
        if self.staged == 0 {
            return;
        }
        self.staged = 0;
        for inbox in &mut self.inboxes {
            while let Some(s) = inbox.rx.take() {
                queue.push(s);
            }
        }
    }
}

/// Discrete-event simulation kernel.
///
/// A kernel is neither `Send` nor `Sync`. Event closures may capture
/// `Rc`s, and the slots they are erased into hide those captures from
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
    /// Every pending event of every lane.
    queue: EventQueue,
    /// Number of lanes (always ≥ 1).
    shards: usize,
    /// Shard of the event currently executing; new events inherit it.
    current_shard: u32,
    /// Events explicitly placed on a lane other than the scheduler's.
    cross_shard_scheduled: u64,
    /// Closure storage, indexed by slot number; recycled through
    /// `free_slots` so steady-state scheduling is allocation-free.
    slots: Vec<EventSlot>,
    free_slots: Vec<u32>,
    rng: Pcg32,
    executed: u64,
    /// Hard stop: events scheduled past this instant are dropped.
    horizon: SimTime,
    /// Events discarded at the horizon (observability for chaos runs:
    /// distinguishes "dropped by fault plane" from "dropped by horizon").
    horizon_dropped: u64,
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
            slots: Vec::with_capacity(1024),
            free_slots: Vec::with_capacity(1024),
            rng: Pcg32::new(seed),
            executed: 0,
            horizon: SimTime::MAX,
            horizon_dropped: 0,
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
        self.queue.len() + staged
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

    /// Stash `f` in a slot (inline when it fits, boxed otherwise) and
    /// return the slot index.
    fn store_event<F: FnOnce(&mut Kernel) + 'static>(&mut self, f: F) -> u32 {
        let mut data: EventData = [MaybeUninit::uninit(); INLINE_WORDS];
        let (call, drop): (CallFn, DropFn) = if std::mem::size_of::<F>()
            <= std::mem::size_of::<EventData>()
            && std::mem::align_of::<F>() <= std::mem::align_of::<usize>()
        {
            // SAFETY: just checked that `F` fits in the inline words and
            // needs no stronger alignment than them; the slot stays
            // untouched until `call_inline`/`drop_inline` consumes it.
            unsafe { (data.as_mut_ptr() as *mut F).write(f) };
            (call_inline::<F>, drop_inline::<F>)
        } else {
            let raw = Box::into_raw(Box::new(f));
            // SAFETY: a thin pointer always fits in the first inline
            // word; ownership transfers to `call_boxed`/`drop_boxed`.
            unsafe { (data.as_mut_ptr() as *mut *mut F).write(raw) };
            (call_boxed::<F>, drop_boxed::<F>)
        };
        let slot = EventSlot { call, drop, data };
        match self.free_slots.pop() {
            Some(i) => {
                // The previous occupant was consumed when the slot was
                // freed; plain overwrite (EventSlot has no Drop).
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
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
        let slot = self.store_event(f);
        let sched = Scheduled {
            at,
            seq,
            slot,
            lane: shard,
        };
        if cross && self.mesh.is_some() {
            self.route_through_mesh(sched);
        } else {
            self.queue.push(sched);
        }
    }

    /// Send a cross-lane schedule to its lane's inbox. The event stays
    /// invisible until the next `step()` drains it into the queue —
    /// which is also the first moment it could have been popped on the
    /// direct path, so the detour is unobservable in results.
    fn route_through_mesh(&mut self, sched: Scheduled) {
        let slack = sched.at.as_nanos() - self.now.as_nanos();
        let lane = sched.lane as usize;
        let mesh = self.mesh.as_mut().expect("caller checked mesh");
        mesh.routed += 1;
        mesh.min_slack = mesh.min_slack.min(slack);
        if let Err(sched) = mesh.inboxes[lane].tx.send(sched) {
            // Mailbox full: empty the inboxes into the queue and retry
            // into the now-empty mailbox.
            mesh.drain_into(&mut self.queue);
            mesh.inboxes[lane]
                .tx
                .send(sched)
                .unwrap_or_else(|_| unreachable!("mailbox empty after drain"));
        }
        mesh.staged += 1;
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
        let Some(ev) = self.queue.pop(limit) else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        self.executed += 1;
        self.current_shard = ev.lane;
        // Copy the slot out (plain words) and free it *before* running,
        // so the closure can schedule into it.
        let mut slot = self.slots[ev.slot as usize];
        self.free_slots.push(ev.slot);
        // SAFETY: the slot was occupied (its index came out of the
        // queue, which names each stored index exactly once) and is
        // consumed exactly here.
        unsafe { (slot.call)(slot.data.as_mut_ptr() as *mut usize, self) };
        // Restore the documented "0 outside any event" contract: without
        // this, runner code scheduling between steps inherits the last
        // executed lane, miscounting `cross_shard_scheduled` and lane
        // ownership. Result order is unaffected either way — the order
        // is `(at, seq)`, not the lane.
        self.current_shard = 0;
        true
    }

    /// Run until the event queue drains.
    pub fn run_to_completion(&mut self) {
        while self.step() {}
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
        // occupied slot is named exactly once by the queue once the
        // mesh inboxes are drained into it.
        self.drain_mesh();
        for index in self.queue.drain() {
            let mut slot = self.slots[index as usize];
            // SAFETY: the slot is occupied (see above) and this is its
            // single consumption.
            unsafe { (slot.drop)(slot.data.as_mut_ptr() as *mut usize) };
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
        // the tie list and from every bucket alike.
        let token = Rc::new(());
        {
            let mut k = Kernel::new(0);
            let ats = [5_000u64, 5_000, 5_000, 6_000, 300_000, 1 << 40, 1 << 40];
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
            // One of the three 5 µs events runs; two stay in the tie
            // list, the rest in three different buckets.
            assert!(k.step());
            assert_eq!(k.queue.ties.len(), 2);
            assert_eq!(k.queue.nonempty.count_ones(), 3);
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

    /// Every schedule and every firing of one differential run, keyed
    /// by the kernel's own `seq` (the count of schedules before it).
    struct Diff {
        rng: RefCell<Pcg32>,
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
                    (lane, diff_delay(&mut rng, k.now().as_nanos()))
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

    fn run_diff(seed: u64, shards: usize, parallel: bool) -> Vec<(u64, u64)> {
        let st = Rc::new(Diff {
            rng: RefCell::new(Pcg32::new(seed)),
            next_seq: 0.into(),
            budget: 2_000.into(),
            scheduled: RefCell::new(Vec::new()),
            fired: RefCell::new(Vec::new()),
        });
        let mut k = Kernel::with_shards(seed, shards);
        k.set_parallel(parallel);
        let lanes = shards as u32;
        for i in 0..64 {
            let delay = diff_delay(&mut st.rng.borrow_mut(), 0);
            diff_schedule(&mut k, &st, i % lanes, SimTime::from_nanos(delay));
        }
        // Cutoffs, each followed by schedules from outside any event,
        // some of them between the cutoff and the pending head.
        let mut until = 0;
        for _ in 0..24 {
            until += st.rng.borrow_mut().gen_range(0, 300_000);
            k.run_until(SimTime::from_nanos(until));
            assert_eq!(k.now(), SimTime::from_nanos(until));
            let fired = st.fired.borrow().clone();
            let reference = diff_reference(&st);
            assert_eq!(fired[..], reference[..fired.len()], "seed {seed}");
            assert!(
                reference.get(fired.len()).is_none_or(|&(at, _)| at > until),
                "run_until({until}) left a due event pending"
            );
            for _ in 0..4 {
                let (lane, delay) = {
                    let mut rng = st.rng.borrow_mut();
                    let delay = match rng.gen_below(3) {
                        0 => diff_delay(&mut rng, until),
                        _ => rng.gen_range(0, 3_000),
                    };
                    (rng.gen_below(lanes), delay)
                };
                diff_schedule(&mut k, &st, lane, SimTime::from_nanos(until + delay));
            }
        }
        k.run_to_completion();
        assert_eq!(k.events_pending(), 0);
        let reference = diff_reference(&st);
        assert!(reference.len() > 1_000, "too few events to compare");
        assert_eq!(*st.fired.borrow(), reference, "seed {seed}");
        if parallel {
            assert!(k.mesh_routed() > 0, "mesh never engaged");
        }
        reference
    }

    /// The queue pops exactly the reference sort by `(at, seq)`, across
    /// the full range of delays, same-instant ties, nested scheduling,
    /// cross-lane schedules with the mesh off and on, and `run_until`
    /// cutoffs with schedules in between.
    #[test]
    fn queue_order_matches_reference_sort() {
        for seed in [1, 42] {
            let serial = run_diff(seed, 1, false);
            assert_eq!(run_diff(seed, 4, false), serial);
            assert_eq!(run_diff(seed, 4, true), serial);
        }
    }

    /// A zero-delay crossing detours through the mesh while a same-lane
    /// zero-delay child goes straight into the tie list; the detour
    /// carries the lower `seq`, so it must still fire first.
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
        // the slot just freed; exercise a deep chain to churn the free
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
