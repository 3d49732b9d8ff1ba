//! The NVMe-oPF initiator Priority Manager (Algorithms 1 and 2).

use crate::config::{OpfInitiatorConfig, ReqClass, WindowPolicy};
use crate::error::{ProtocolError, ProtocolSide};
use crate::window::DynamicWindow;
use bytes::Bytes;
use fabric::{Endpoint, Network};
use nvme::{Opcode, Sqe, Status};
use nvmf::initiator::TargetRx;
use nvmf::qpair::{IoCallback, QPair, ReqCtx};
use nvmf::{CpuCosts, IoOutcome, Pdu, Priority};
use queues::{CidQueue, CompleteResult};
use simkit::{Kernel, Metrics, MetricsSource, Resource, Shared, SimTime, Tracer};
use std::collections::VecDeque;

/// Initiator-side counters.
#[derive(Clone, Debug, Default)]
pub struct OpfInitiatorStats {
    /// Commands submitted (all classes).
    pub submitted: u64,
    /// LS commands submitted.
    pub ls_submitted: u64,
    /// TC commands submitted.
    pub tc_submitted: u64,
    /// Draining flags sent.
    pub drains_sent: u64,
    /// Commands completed.
    pub completed: u64,
    /// Error completions.
    pub errors: u64,
    /// Response capsules received (coalesced + LS).
    pub resps_rx: u64,
    /// Requests completed via coalesced responses.
    pub coalesced_completions: u64,
    /// C2H data PDUs received.
    pub data_rx: u64,
    /// R2T PDUs received.
    pub r2ts_rx: u64,
    /// Payload bytes read.
    pub bytes_read: u64,
    /// Payload bytes written.
    pub bytes_written: u64,
    /// Times the dynamic optimizer changed the window.
    pub window_changes: u64,
    /// Protocol violations detected (malformed/misdirected PDUs). The
    /// offending PDU is dropped; the sim keeps running.
    pub protocol_errors: u64,
    /// Summed drain latency (draining flag sent → coalesced response
    /// received), in nanoseconds of virtual time.
    pub drain_latency_sum_ns: u64,
    /// Number of drain round trips measured.
    pub drain_latency_count: u64,
    /// Commands retransmitted after a response timeout (recovery mode).
    pub retries: u64,
    /// Commands failed locally after exhausting the retry budget.
    pub retry_exhausted: u64,
    /// Draining flags retransmitted after the redrain timeout.
    pub redrains: u64,
    /// Stale or duplicate responses suppressed (recovery mode).
    pub dup_resps_suppressed: u64,
    /// Times this initiator was rehomed onto a new target by a live
    /// migration (DESIGN.md §16).
    pub rehomes: u64,
    /// Outstanding commands re-driven at the destination after a rehome.
    pub rehome_redrives: u64,
}

/// Per-CID retransmission bookkeeping (mirrors the `nvmf` initiator).
#[derive(Clone, Default)]
struct RetrySlot {
    /// Bumped on every (re)allocation and completion of the CID, so an
    /// expiry timer armed for an earlier command finds a mismatch and
    /// dies instead of retransmitting the CID's new occupant.
    epoch: u64,
    /// Retransmissions attempted for the current command.
    attempts: u32,
    /// Write payload copy: the live payload is consumed by the first
    /// R2T exchange, so a retransmitted write serves re-grants from here.
    payload: Option<Bytes>,
}

/// What the drain-timeout path found when the current window is empty.
enum StaleDrain {
    /// No outstanding drain (or redrain disabled): nothing to do.
    None,
    /// Outstanding drains exist but the oldest is not overdue yet.
    Wait,
    /// The oldest outstanding drain is overdue: retransmit it.
    Resend {
        cid: u16,
        opcode: Opcode,
        slba: u64,
        blocks: u16,
        priority: Priority,
    },
}

/// The NVMe-oPF initiator.
///
/// Wraps the same qpair/fabric plumbing as [`nvmf::SpdkInitiator`] and
/// adds the Priority Manager: per-request class tags, automatic draining
/// every `window` TC requests, a lock-free zero-copy CID queue, and
/// batched completion marking on coalesced responses.
pub struct OpfInitiator {
    /// Tenant identifier carried in every command capsule (§IV-A: eight
    /// reserved PDU bits).
    pub id: u8,
    qpair: QPair,
    cpu: Resource,
    net: Network,
    ep: Shared<Endpoint>,
    target_ep: Shared<Endpoint>,
    target_rx: TargetRx,
    costs: CpuCosts,
    cfg: OpfInitiatorConfig,
    /// Pending TC CIDs in issue order (Algorithm 1's queue).
    cid_queue: CidQueue,
    /// TC requests sent since the last drain.
    sent_in_window: u32,
    /// Current window size, always clamped to the queue depth: a window
    /// larger than the number of issuable requests could never receive
    /// its draining flag and the qpair would lock — the §IV-A lock-up
    /// hazard ("request completions may never return and the NVMe-oPF
    /// initiator will lock").
    window: u32,
    /// Queue depth, the clamp bound.
    qd: u32,
    dynamic: Option<DynamicWindow>,
    /// Bumped whenever a drain is sent; the drain-timeout event only
    /// fires a flush when its captured generation is still current.
    window_generation: u64,
    /// A timeout event is pending (avoid stacking one per request).
    timer_armed: bool,
    /// Send times and CIDs of outstanding draining flags, FIFO: drains
    /// complete in issue order, so the front matches the next coalesced
    /// response. The CID lets the recovery path match responses to
    /// specific drains and retransmit a lost one.
    drain_sent_at: VecDeque<(SimTime, u16)>,
    /// Recycled CID buffers for the coalesced-completion path. A drain's
    /// dequeued CIDs travel into the deferred completion event and the
    /// emptied buffer returns here, so steady-state drains never allocate.
    cid_pool: Vec<Vec<u16>>,
    /// Retransmission slots, one per CID (empty when retry is disabled).
    slots: Vec<RetrySlot>,
    tracer: Tracer,
    /// Counters.
    pub stats: OpfInitiatorStats,
    /// Most recent protocol violation, kept for diagnostics.
    last_protocol_error: Option<ProtocolError>,
}

impl OpfInitiator {
    /// Create an initiator with queue depth `qd`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: u8,
        qd: usize,
        net: Network,
        ep: Shared<Endpoint>,
        target_ep: Shared<Endpoint>,
        target_rx: TargetRx,
        costs: CpuCosts,
        cfg: OpfInitiatorConfig,
        tracer: Tracer,
    ) -> Self {
        let window = cfg.window.initial().clamp(1, qd as u32);
        let dynamic = match cfg.window {
            WindowPolicy::Dynamic { initial } => Some(DynamicWindow::new(initial)),
            WindowPolicy::Static(_) => None,
        };
        let cap = cfg.cid_queue_capacity.max(qd + window as usize);
        let slots = if cfg.retry.is_some() {
            vec![RetrySlot::default(); qd]
        } else {
            Vec::new()
        };
        let mut qpair = QPair::new(qd);
        if cfg.retry.is_some() || cfg.redrain_timeout.is_some() {
            // FIFO CID reuse widens the window before a freed CID names a
            // new command — a stale duplicate response must not be
            // misattributed to the CID's next occupant.
            qpair.set_fifo_recycle(true);
        }
        OpfInitiator {
            id,
            qpair,
            cpu: Resource::new("opf_initiator_cpu"),
            net,
            ep,
            target_ep,
            target_rx,
            costs,
            cfg,
            cid_queue: CidQueue::new(cap),
            sent_in_window: 0,
            window,
            qd: qd as u32,
            dynamic,
            window_generation: 0,
            timer_armed: false,
            drain_sent_at: VecDeque::new(),
            cid_pool: Vec::new(),
            slots,
            tracer,
            stats: OpfInitiatorStats::default(),
            last_protocol_error: None,
        }
    }

    /// True when any fault-recovery mechanism is configured.
    fn recovery(&self) -> bool {
        self.cfg.retry.is_some() || self.cfg.redrain_timeout.is_some()
    }

    /// Most recent protocol violation, if any.
    pub fn last_protocol_error(&self) -> Option<&ProtocolError> {
        self.last_protocol_error.as_ref()
    }

    /// Record a protocol violation: count it, keep it for diagnostics,
    /// trace it — and let the caller drop the offending PDU.
    fn note_protocol_error(&mut self, now: simkit::SimTime, err: ProtocolError) {
        self.stats.protocol_errors += 1;
        self.tracer
            .emit(now, "opf.protocol_error", u32::from(self.id), 0);
        self.last_protocol_error = Some(err);
    }

    /// Queue pair depth.
    pub fn queue_depth(&self) -> usize {
        self.qpair.depth()
    }

    /// Commands currently in flight.
    pub fn inflight(&self) -> usize {
        self.qpair.inflight()
    }

    /// True when another command can be issued.
    pub fn has_capacity(&self) -> bool {
        self.qpair.has_capacity()
    }

    /// Drop the callbacks of commands still in flight (teardown; see
    /// [`QPair::abort_all`]).
    pub fn abort_pending(&mut self) {
        self.qpair.abort_all();
    }

    /// The window size currently in force.
    pub fn current_window(&self) -> u32 {
        self.window
    }

    /// TC requests sent since the last draining flag.
    pub fn pending_in_window(&self) -> u32 {
        self.sent_in_window
    }

    /// Submit one I/O tagged with `class`. Returns the CID, or `None`
    /// at queue depth.
    ///
    /// Algorithm 1: TC requests are appended to the CID queue and every
    /// `window`-th request carries the draining flag, which the PM sets
    /// automatically (§III-C).
    #[allow(clippy::too_many_arguments)]
    pub fn submit(
        this: &Shared<OpfInitiator>,
        k: &mut Kernel,
        class: ReqClass,
        opcode: Opcode,
        slba: u64,
        blocks: u16,
        payload: Option<Bytes>,
        cb: IoCallback,
    ) -> Option<u16> {
        let (cid, priority, finish, epoch) = {
            let mut i = this.borrow_mut();
            let payload_copy = if i.cfg.retry.is_some() {
                payload.clone()
            } else {
                None
            };
            let ctx = ReqCtx {
                opcode,
                slba,
                blocks,
                payload,
                data: None,
                priority: Priority::None, // final value set below
                issued_at: k.now(),
                cb,
            };
            let cid = i.qpair.begin(ctx)?;
            let epoch = if i.cfg.retry.is_some() {
                let slot = &mut i.slots[cid as usize];
                slot.epoch += 1;
                slot.attempts = 0;
                slot.payload = payload_copy;
                slot.epoch
            } else {
                0
            };
            i.stats.submitted += 1;
            let priority = match class {
                ReqClass::LatencySensitive => {
                    i.stats.ls_submitted += 1;
                    Priority::LatencySensitive
                }
                ReqClass::ThroughputCritical => {
                    i.stats.tc_submitted += 1;
                    // Alg 1: queue[tail] <- req.cid.
                    i.cid_queue
                        .push(cid)
                        // lint: allow(no-panic) internal invariant: sized for QD + window
                        .expect("CID queue sized for QD + window");
                    i.sent_in_window += 1;
                    let draining = i.sent_in_window >= i.window;
                    if draining {
                        i.sent_in_window = 0;
                        i.window_generation += 1;
                        i.stats.drains_sent += 1;
                        i.drain_sent_at.push_back((k.now(), cid));
                        i.tracer
                            .emit(k.now(), "opf.drain_tx", u32::from(i.id), u64::from(cid));
                    }
                    Priority::ThroughputCritical { draining }
                }
            };
            if let Some(ctx) = i.qpair.get_mut(cid) {
                ctx.priority = priority;
            }
            let c = i.costs.ini_submit;
            let finish = i.cpu.reserve(k.now(), c).finish;
            (cid, priority, finish, epoch)
        };
        let redrain = this.borrow().cfg.redrain_timeout.is_some();
        // A draining submit historically never armed the timer (its own
        // response resolves the window) — but with redrain enabled the
        // timer doubles as the drain-loss watchdog, so it must run.
        if priority.is_tc() && (!priority.is_draining() || redrain) {
            Self::arm_drain_timer(this, k);
        }
        Self::send_cmd_at(this, k, finish, opcode, cid, slba, blocks, priority);
        // Only commands that receive a direct response get an expiry
        // timer: LS commands and draining flags. Non-draining TC commands
        // complete through a later drain, so an individual timeout would
        // misfire on every healthy coalesced window.
        if this.borrow().cfg.retry.is_some() && (priority.is_ls() || priority.is_draining()) {
            Self::arm_expiry(this, k, cid, epoch);
        }
        Some(cid)
    }

    /// Schedule a command capsule onto the wire at `at` (the CPU work was
    /// already reserved by the caller). Shared by first transmission,
    /// retry, and redrain.
    #[allow(clippy::too_many_arguments)]
    fn send_cmd_at(
        this: &Shared<OpfInitiator>,
        k: &mut Kernel,
        at: SimTime,
        opcode: Opcode,
        cid: u16,
        slba: u64,
        blocks: u16,
        priority: Priority,
    ) {
        let this2 = this.clone();
        k.schedule_at(at, move |k| {
            let i = this2.borrow();
            let sqe = match opcode {
                Opcode::Read => Sqe::read(cid, 1, slba, blocks),
                Opcode::Write => Sqe::write(cid, 1, slba, blocks),
                Opcode::Flush => Sqe {
                    opcode,
                    cid,
                    nsid: 1,
                    slba: 0,
                    nlb: 0,
                },
            };
            let pdu = Pdu::CapsuleCmd {
                sqe,
                priority,
                initiator: i.id,
            };
            let rx = i.target_rx.clone();
            let from = i.id;
            i.net
                .send(k, &i.ep, &i.target_ep, pdu.wire_len(), move |k| {
                    rx(k, from, pdu)
                });
        });
    }

    /// Arm the per-command expiry timer for `cid` at the backoff implied
    /// by its attempt count. The captured epoch invalidates the timer if
    /// the command completes (or the CID is reused) first.
    fn arm_expiry(this: &Shared<OpfInitiator>, k: &mut Kernel, cid: u16, epoch: u64) {
        let backoff = {
            let i = this.borrow();
            let Some(policy) = i.cfg.retry else {
                return;
            };
            policy.timeout * (1u64 << i.slots[cid as usize].attempts.min(16))
        };
        let this2 = this.clone();
        k.schedule_in(backoff, move |k| {
            Self::on_expiry(&this2, k, cid, epoch);
        });
    }

    /// A command's expiry timer fired: retransmit it, or fail it locally
    /// once the budget is spent. Stale timers (epoch mismatch, CID no
    /// longer outstanding) die silently.
    fn on_expiry(this: &Shared<OpfInitiator>, k: &mut Kernel, cid: u16, epoch: u64) {
        enum Act {
            Exhausted,
            Resend(SimTime, Opcode, u64, u16, Priority),
        }
        let act = {
            let mut i = this.borrow_mut();
            let Some(policy) = i.cfg.retry else {
                return;
            };
            if i.slots[cid as usize].epoch != epoch {
                return;
            }
            let Some((opcode, slba, blocks, priority)) = i
                .qpair
                .get_mut(cid)
                .map(|c| (c.opcode, c.slba, c.blocks, c.priority))
            else {
                return;
            };
            if i.slots[cid as usize].attempts >= policy.max_retries {
                i.stats.retry_exhausted += 1;
                i.tracer.emit(
                    k.now(),
                    "opf.retry_exhausted",
                    u32::from(i.id),
                    u64::from(cid),
                );
                Act::Exhausted
            } else {
                i.slots[cid as usize].attempts += 1;
                i.stats.retries += 1;
                i.tracer
                    .emit(k.now(), "opf.retry", u32::from(i.id), u64::from(cid));
                let c = i.costs.ini_submit;
                let finish = i.cpu.reserve(k.now(), c).finish;
                Act::Resend(finish, opcode, slba, blocks, priority)
            }
        };
        match act {
            Act::Exhausted => Self::fail_locally(this, k, cid),
            Act::Resend(finish, opcode, slba, blocks, priority) => {
                Self::send_cmd_at(this, k, finish, opcode, cid, slba, blocks, priority);
                Self::arm_expiry(this, k, cid, epoch);
            }
        }
    }

    /// Complete `cid` (and, for a TC drain, everything queued behind it)
    /// with an internal error after the retry budget is exhausted.
    fn fail_locally(this: &Shared<OpfInitiator>, k: &mut Kernel, cid: u16) {
        let cids = {
            let mut i = this.borrow_mut();
            let tc = i
                .qpair
                .get_mut(cid)
                .map(|c| c.priority.is_tc())
                .unwrap_or(false);
            if tc {
                // A failed drain strands its whole window: fail the queued
                // prefix too, exactly as Algorithm 2 would complete it.
                let cids = match i.cid_queue.complete_through(cid) {
                    CompleteResult::Completed(v) => v,
                    CompleteResult::Missing(mut v) => {
                        v.push(cid);
                        v
                    }
                };
                i.drain_sent_at.retain(|&(_, c)| !cids.contains(&c));
                cids
            } else {
                vec![cid]
            }
        };
        for c in cids {
            Self::complete(this, k, c, Status::InternalError);
        }
    }

    /// Arm (or keep armed) the drain-timeout timer: if the current
    /// window is still partial when it fires, force a flush so coalesced
    /// completions are not held hostage by a paused TC stream. With
    /// `redrain_timeout` set, the same timer also watches outstanding
    /// drains whose response never arrived and retransmits them.
    fn arm_drain_timer(this: &Shared<OpfInitiator>, k: &mut Kernel) {
        let (timeout, generation) = {
            let mut i = this.borrow_mut();
            let Some(t) = i.cfg.drain_timeout.or(i.cfg.redrain_timeout) else {
                return;
            };
            if i.timer_armed {
                return;
            }
            i.timer_armed = true;
            (t, i.window_generation)
        };
        let this2 = this.clone();
        k.schedule_in(timeout, move |k| {
            enum Act {
                Done,
                Rearm,
                Flush,
                Redrain {
                    finish: SimTime,
                    cid: u16,
                    opcode: Opcode,
                    slba: u64,
                    blocks: u16,
                    priority: Priority,
                },
            }
            let act = {
                let mut i = this2.borrow_mut();
                i.timer_armed = false;
                if i.sent_in_window == 0 {
                    // No partial window. This used to return outright,
                    // assuming the outstanding drain (if any) was merely in
                    // flight — but a drain *lost* on the wire also lands
                    // here, and the generation bump it made when it was
                    // sent masks the loss forever. Distinguish the two by
                    // age: an overdue drain is presumed lost and resent.
                    match i.stale_drain(k.now()) {
                        StaleDrain::None => Act::Done,
                        StaleDrain::Wait => Act::Rearm,
                        StaleDrain::Resend {
                            cid,
                            opcode,
                            slba,
                            blocks,
                            priority,
                        } => {
                            i.stats.redrains += 1;
                            i.tracer
                                .emit(k.now(), "opf.redrain", u32::from(i.id), u64::from(cid));
                            let c = i.costs.ini_submit;
                            let finish = i.cpu.reserve(k.now(), c).finish;
                            Act::Redrain {
                                finish,
                                cid,
                                opcode,
                                slba,
                                blocks,
                                priority,
                            }
                        }
                    }
                } else if i.window_generation != generation {
                    // A drain went out since we were armed; the pending
                    // requests belong to a *newer* window that deserves
                    // its own full timeout.
                    Act::Rearm
                } else {
                    Act::Flush
                }
            };
            match act {
                Act::Done => {}
                Act::Rearm => OpfInitiator::arm_drain_timer(&this2, k),
                Act::Flush => {
                    if OpfInitiator::flush(&this2, k, Box::new(|_, _| {})).is_none() {
                        // Queue depth exhausted: retry shortly (completions
                        // from earlier drains will free a slot).
                        OpfInitiator::arm_drain_timer(&this2, k);
                    }
                }
                Act::Redrain {
                    finish,
                    cid,
                    opcode,
                    slba,
                    blocks,
                    priority,
                } => {
                    OpfInitiator::send_cmd_at(
                        &this2, k, finish, opcode, cid, slba, blocks, priority,
                    );
                    OpfInitiator::arm_drain_timer(&this2, k);
                }
            }
        });
    }

    /// Inspect the oldest outstanding drain: is it overdue for a
    /// retransmission? Entries whose CID already completed are pruned on
    /// the way (defensive; `on_resp` normally removes them).
    fn stale_drain(&mut self, now: SimTime) -> StaleDrain {
        let Some(rt) = self.cfg.redrain_timeout else {
            return StaleDrain::None;
        };
        loop {
            let Some(&(sent, cid)) = self.drain_sent_at.front() else {
                return StaleDrain::None;
            };
            let Some((opcode, slba, blocks, priority)) = self
                .qpair
                .get_mut(cid)
                .map(|c| (c.opcode, c.slba, c.blocks, c.priority))
            else {
                self.drain_sent_at.pop_front();
                continue;
            };
            if now.since(sent) < rt {
                return StaleDrain::Wait;
            }
            // Refresh the send time so the next timeout measures from
            // this retransmission, not the original loss.
            if let Some(front) = self.drain_sent_at.front_mut() {
                front.0 = now;
            }
            return StaleDrain::Resend {
                cid,
                opcode,
                slba,
                blocks,
                priority,
            };
        }
    }

    /// Force a drain of any partially filled window by issuing a flush
    /// command with the draining flag. Used at workload end so the tail
    /// of a TC stream does not wait forever for its window to fill.
    /// No-op (returns `None`) when nothing is pending.
    pub fn flush(this: &Shared<OpfInitiator>, k: &mut Kernel, cb: IoCallback) -> Option<u16> {
        {
            let i = this.borrow();
            // sent_in_window == 0 means the last TC request was itself a
            // drain (or nothing is pending): an outstanding drain will
            // complete everything already queued.
            if i.sent_in_window == 0 {
                return None;
            }
        }
        // A flush opcode rides the TC path; tagging it as the window
        // boundary drains everything queued before it.
        {
            let mut i = this.borrow_mut();
            // Force the next TC submit (the flush) to carry draining.
            let w = i.sent_in_window + 1;
            if i.window != w {
                i.window = w;
            }
        }
        let res = Self::submit(
            this,
            k,
            ReqClass::ThroughputCritical,
            Opcode::Flush,
            0,
            1,
            None,
            cb,
        );
        if res.is_some() {
            this.borrow_mut().window_generation += 1;
        }
        // Restore the policy window (clamped to the queue depth).
        {
            let mut i = this.borrow_mut();
            let w = match i.dynamic {
                Some(ref d) => d.current(),
                None => i.cfg.window.initial().max(1),
            };
            i.window = w.clamp(1, i.qd);
        }
        res
    }

    /// Live-migration rehome (DESIGN.md §16): point this initiator at a
    /// new target and epoch-bump + re-drive every outstanding command
    /// there through PR 3's re-issue path. TC commands are re-driven in
    /// CID-queue order so the destination stages any it has not already
    /// adopted in drain order; commands that crossed inside the frozen
    /// CID queue are suppressed at the destination as duplicates, so
    /// completion stays exactly-once per CID across the move. Returns
    /// the number of commands re-driven.
    ///
    /// Requires the recovery machinery (`cfg.retry`): re-driven writes
    /// serve their R2T re-grants from the retry payload copy, and the
    /// epoch bump is what invalidates expiry timers armed for the old
    /// incarnation.
    pub fn rehome(
        this: &Shared<OpfInitiator>,
        k: &mut Kernel,
        target_ep: Shared<Endpoint>,
        target_rx: TargetRx,
    ) -> usize {
        struct Redrive {
            cid: u16,
            opcode: Opcode,
            slba: u64,
            blocks: u16,
            priority: Priority,
            epoch: u64,
            at: SimTime,
        }
        let plan: Vec<Redrive> = {
            let mut i = this.borrow_mut();
            i.target_ep = target_ep;
            i.target_rx = target_rx;
            i.stats.rehomes += 1;
            i.tracer.emit(k.now(), "opf.rehome", u32::from(i.id), 0);
            // TC CIDs first, in issue order — the CID queue is the
            // drain-order ground truth. It has no non-destructive
            // iteration, so drain into scratch and re-push identically.
            let mut tc_cids = i.cid_pool.pop().unwrap_or_default();
            tc_cids.clear();
            i.cid_queue.drain_all_into(&mut tc_cids);
            for &cid in &tc_cids {
                i.cid_queue
                    .push(cid)
                    // lint: allow(no-panic) internal invariant: re-pushing
                    // exactly what was just drained cannot overflow.
                    .expect("re-push after drain");
            }
            // Then every other outstanding CID (LS commands), by index.
            let mut order = std::mem::take(&mut tc_cids);
            let tc_n = order.len();
            for cid in 0..i.qpair.depth() as u16 {
                if order[..tc_n].contains(&cid) {
                    continue;
                }
                if i.qpair.get_mut(cid).is_some() {
                    order.push(cid);
                }
            }
            let retry = i.cfg.retry.is_some();
            let mut plan = Vec::with_capacity(order.len());
            for &cid in &order {
                let Some((opcode, slba, blocks, priority)) = i
                    .qpair
                    .get_mut(cid)
                    .map(|c| (c.opcode, c.slba, c.blocks, c.priority))
                else {
                    continue;
                };
                let epoch = if retry {
                    // New incarnation: stale expiry timers die on the
                    // mismatch, and the retry budget starts fresh at the
                    // destination.
                    let slot = &mut i.slots[cid as usize];
                    slot.epoch += 1;
                    slot.attempts = 0;
                    slot.epoch
                } else {
                    0
                };
                let c = i.costs.ini_submit;
                let at = i.cpu.reserve(k.now(), c).finish;
                plan.push(Redrive {
                    cid,
                    opcode,
                    slba,
                    blocks,
                    priority,
                    epoch,
                    at,
                });
            }
            i.stats.rehome_redrives += plan.len() as u64;
            order.clear();
            i.cid_pool.push(order);
            plan
        };
        let retry = this.borrow().cfg.retry.is_some();
        let n = plan.len();
        for r in plan {
            Self::send_cmd_at(this, k, r.at, r.opcode, r.cid, r.slba, r.blocks, r.priority);
            if retry && (r.priority.is_ls() || r.priority.is_draining()) {
                Self::arm_expiry(this, k, r.cid, r.epoch);
            }
        }
        n
    }

    /// Deliver a PDU arriving from the target.
    pub fn on_pdu(this: &Shared<OpfInitiator>, k: &mut Kernel, pdu: Pdu) {
        match pdu {
            Pdu::C2HData { cccid, data } => {
                let finish = {
                    let mut i = this.borrow_mut();
                    i.stats.data_rx += 1;
                    i.stats.bytes_read += data.len() as u64;
                    let cost = i.costs.ini_on_data;
                    let finish = i.cpu.reserve(k.now(), cost).finish;
                    if let Some(ctx) = i.qpair.get_mut(cccid) {
                        ctx.data = Some(data);
                    }
                    finish
                };
                k.schedule_at(finish, |_| {});
            }
            Pdu::R2T { cccid, r2tl } => Self::on_r2t(this, k, cccid, r2tl),
            Pdu::CapsuleResp { cqe, priority } => Self::on_resp(this, k, cqe, priority),
            // A command capsule has no business arriving at an initiator:
            // record the violation and drop it rather than abort the sim.
            other => {
                let mut i = this.borrow_mut();
                let side = ProtocolSide::Initiator(i.id);
                i.note_protocol_error(
                    k.now(),
                    ProtocolError::UnexpectedPdu {
                        side,
                        kind: other.kind(),
                    },
                );
            }
        }
    }

    fn on_r2t(this: &Shared<OpfInitiator>, k: &mut Kernel, cccid: u16, r2tl: u32) {
        let (finish, data) = {
            let mut i = this.borrow_mut();
            i.stats.r2ts_rx += 1;
            let id = i.id;
            let mut taken = match i.qpair.get_mut(cccid) {
                None => Err(ProtocolError::UnknownCid {
                    side: ProtocolSide::Initiator(id),
                    cid: cccid,
                }),
                Some(ctx) => ctx.payload.take().ok_or(ProtocolError::R2tWithoutPayload {
                    initiator: id,
                    cid: cccid,
                }),
            };
            // Retransmitted write: the live payload was consumed by the
            // first (lost) exchange — serve the re-grant from the retry
            // copy instead of flagging a protocol violation.
            if taken.is_err() && i.cfg.retry.is_some() && i.qpair.get_mut(cccid).is_some() {
                if let Some(copy) = i.slots[cccid as usize].payload.clone() {
                    taken = Ok(copy);
                }
            }
            let data = match taken {
                Ok(d) => d,
                Err(e) => {
                    i.note_protocol_error(k.now(), e);
                    return;
                }
            };
            debug_assert_eq!(data.len(), r2tl as usize);
            let cost = i.costs.ini_on_r2t + i.costs.ini_send_data;
            let finish = i.cpu.reserve(k.now(), cost).finish;
            (finish, data)
        };
        let this2 = this.clone();
        k.schedule_at(finish, move |k| {
            let mut i = this2.borrow_mut();
            i.stats.bytes_written += data.len() as u64;
            let pdu = Pdu::H2CData { cccid, data };
            let rx = i.target_rx.clone();
            let from = i.id;
            i.net
                .send(k, &i.ep, &i.target_ep, pdu.wire_len(), move |k| {
                    rx(k, from, pdu)
                });
        });
    }

    /// Algorithm 2: a response for a draining TC request marks every
    /// queued CID up to and including it complete, in issue order. LS
    /// responses complete a single request as in the baseline.
    fn on_resp(this: &Shared<OpfInitiator>, k: &mut Kernel, cqe: nvme::Cqe, priority: Priority) {
        let (finish, cids) = {
            let mut i = this.borrow_mut();
            i.stats.resps_rx += 1;
            // The echoed priority bits are wire data an adversary can
            // influence (a forged LS flag on a TC capsule is reflected
            // back by the target); the locally recorded request class is
            // ground truth. Routing a TC completion down the LS path
            // would strand its CID-queue entry until the queue overflows.
            let priority = match i.qpair.get_mut(cqe.cid).map(|c| c.priority) {
                Some(local) if local.is_tc() != priority.is_tc() => {
                    let id = i.id;
                    i.note_protocol_error(
                        k.now(),
                        ProtocolError::RespClassMismatch {
                            initiator: id,
                            cid: cqe.cid,
                        },
                    );
                    local
                }
                _ => priority,
            };
            if priority.is_tc() {
                let recovery = i.recovery();
                if recovery {
                    // Retransmission can produce duplicate and reordered
                    // coalesced responses; completing through a stale one
                    // would mark a CID's *new* occupant complete. A
                    // response is genuine only while its drain CID is
                    // still outstanding.
                    let outstanding = i.qpair.get_mut(cqe.cid).is_some();
                    let pos = i.drain_sent_at.iter().position(|&(_, c)| c == cqe.cid);
                    if !outstanding {
                        if let Some(idx) = pos {
                            i.drain_sent_at.remove(idx);
                        }
                        i.stats.dup_resps_suppressed += 1;
                        return;
                    }
                    if let Some(idx) = pos {
                        if let Some((sent, _)) = i.drain_sent_at.remove(idx) {
                            i.stats.drain_latency_sum_ns += k.now().since(sent).as_nanos();
                            i.stats.drain_latency_count += 1;
                        }
                    }
                }
                let mut cids = i.cid_pool.pop().unwrap_or_default();
                let found = i.cid_queue.complete_through_into(cqe.cid, &mut cids);
                if !found {
                    // The drain CID is not queued — a malformed or replayed
                    // response. Everything dequeued during the search is
                    // still completed (stranding them would leak qpair
                    // slots); the violation is recorded and the sim runs on.
                    let id = i.id;
                    i.note_protocol_error(
                        k.now(),
                        ProtocolError::CoalescedCidMissing {
                            initiator: id,
                            cid: cqe.cid,
                            drained: cids.len(),
                        },
                    );
                }
                i.stats.coalesced_completions += cids.len() as u64;
                if recovery {
                    // A single response can complete *earlier* drains whose
                    // own responses were lost; their entries must not
                    // linger or the redrain watchdog would resend them.
                    i.drain_sent_at.retain(|&(_, c)| !cids.contains(&c));
                } else if let Some((sent, _)) = i.drain_sent_at.pop_front() {
                    // Drain round trip complete: draining flag out →
                    // coalesced response in. Forged responses (nothing
                    // outstanding) are simply not measured.
                    i.stats.drain_latency_sum_ns += k.now().since(sent).as_nanos();
                    i.stats.drain_latency_count += 1;
                }
                i.tracer.emit(
                    k.now(),
                    "opf.coalesced_rx",
                    u32::from(i.id),
                    cids.len() as u64,
                );
                // One response-processing cost plus per-CID bookkeeping —
                // the initiator-side saving of coalescing.
                let cost = i.costs.ini_on_resp + i.cfg.coalesced_complete_each * cids.len() as u64;
                let finish = i.cpu.reserve(k.now(), cost).finish;
                // Dynamic window retune (§IV-D).
                let now = k.now();
                let batch = cids.len() as u64;
                let qd = i.qd;
                if let Some(d) = i.dynamic.as_mut() {
                    if let Some(w) = d.on_drain_complete(now, batch) {
                        let w = w.clamp(1, qd);
                        if w != i.window {
                            i.window = w;
                            i.stats.window_changes += 1;
                        }
                    }
                }
                (finish, cids)
            } else {
                let cost = i.costs.ini_on_resp;
                let finish = i.cpu.reserve(k.now(), cost).finish;
                let mut v = i.cid_pool.pop().unwrap_or_default();
                v.clear();
                v.push(cqe.cid);
                (finish, v)
            }
        };
        let this2 = this.clone();
        let status = cqe.status;
        k.schedule_at(finish, move |k| {
            let mut cids = cids;
            for &cid in &cids {
                Self::complete(&this2, k, cid, status);
            }
            // Return the emptied buffer to the pool for the next drain.
            cids.clear();
            this2.borrow_mut().cid_pool.push(cids);
        });
    }

    fn complete(this: &Shared<OpfInitiator>, k: &mut Kernel, cid: u16, status: Status) {
        let (ctx, latency) = {
            let mut i = this.borrow_mut();
            let Some(ctx) = i.qpair.finish(cid) else {
                if i.recovery() {
                    // Duplicate completion raced a retransmission: already
                    // retired, nothing to do.
                    i.stats.dup_resps_suppressed += 1;
                    return;
                }
                // Completion for a CID with no inflight command (duplicate
                // or forged response): record and drop it.
                let id = i.id;
                i.note_protocol_error(
                    k.now(),
                    ProtocolError::UnknownCid {
                        side: ProtocolSide::Initiator(id),
                        cid,
                    },
                );
                return;
            };
            if i.cfg.retry.is_some() {
                // Invalidate any in-flight expiry timer and drop the
                // payload copy now that the command is done.
                let slot = &mut i.slots[cid as usize];
                slot.epoch += 1;
                slot.payload = None;
            }
            i.stats.completed += 1;
            if !status.is_ok() {
                i.stats.errors += 1;
            }
            let latency = k.now().since(ctx.issued_at);
            (ctx, latency)
        };
        let outcome = IoOutcome {
            status,
            data: ctx.data,
            latency,
        };
        (ctx.cb)(k, outcome);
    }
}

impl MetricsSource for OpfInitiator {
    fn metrics(&self, now: SimTime) -> Metrics {
        let mut m = Metrics::at(now);
        m.set("cpu_util", self.cpu.utilization(now));
        m.set("inflight", self.qpair.inflight() as f64);
        m.set("queue_depth", self.qpair.depth() as f64);
        m.set("window", self.window as f64);
        m.set("window_changes", self.stats.window_changes as f64);
        m.set("pending_in_window", self.sent_in_window as f64);
        m.set("submitted", self.stats.submitted as f64);
        m.set("ls_submitted", self.stats.ls_submitted as f64);
        m.set("tc_submitted", self.stats.tc_submitted as f64);
        m.set("completed", self.stats.completed as f64);
        m.set("errors", self.stats.errors as f64);
        m.set("pdu.resps_rx", self.stats.resps_rx as f64);
        m.set("pdu.data_rx", self.stats.data_rx as f64);
        m.set("pdu.r2ts_rx", self.stats.r2ts_rx as f64);
        m.set("drains_sent", self.stats.drains_sent as f64);
        m.set(
            "coalesced_completions",
            self.stats.coalesced_completions as f64,
        );
        // Mean completions retired per response processed — the
        // initiator-side saving Figure 6 quantifies.
        let coalesce_ratio = if self.stats.resps_rx > 0 {
            self.stats.completed as f64 / self.stats.resps_rx as f64
        } else {
            0.0
        };
        m.set("coalesce_ratio", coalesce_ratio);
        let drain_avg_us = if self.stats.drain_latency_count > 0 {
            self.stats.drain_latency_sum_ns as f64 / self.stats.drain_latency_count as f64 / 1e3
        } else {
            0.0
        };
        m.set("drain_latency_avg_us", drain_avg_us);
        m.set("drain_latency_count", self.stats.drain_latency_count as f64);
        m.set("protocol_errors", self.stats.protocol_errors as f64);
        // Recovery counters only exist when recovery is configured, so
        // fault-free snapshots stay bit-identical to the historical ones.
        if self.recovery() {
            m.set("retries", self.stats.retries as f64);
            m.set("retry_exhausted", self.stats.retry_exhausted as f64);
            m.set("redrains", self.stats.redrains as f64);
            m.set(
                "dup_resps_suppressed",
                self.stats.dup_resps_suppressed as f64,
            );
        }
        // Migration counters only exist once this initiator was rehomed,
        // so migration-free snapshots stay bit-identical.
        if self.stats.rehomes > 0 {
            m.set("rehomes", self.stats.rehomes as f64);
            m.set("rehome_redrives", self.stats.rehome_redrives as f64);
        }
        m
    }
}
