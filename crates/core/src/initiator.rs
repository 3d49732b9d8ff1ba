//! The NVMe-oPF initiator Priority Manager (Algorithms 1 and 2): class
//! tagging, the CID queue, the window and its drain timer, coalesced
//! completion, `flush`, `rehome` and the dynamic window — a
//! [`PriorityPolicy`] over the one transport initiator in `nvmf`.

use crate::config::{OpfInitiatorConfig, ReqClass, WindowPolicy};
use crate::error::{ProtocolError, ProtocolSide};
use crate::window::DynamicWindow;
use bytes::Bytes;
use fabric::{Endpoint, Network};
use nvme::{Cqe, Opcode, Sqe, Status};
use nvmf::initiator::{PriorityPolicy, TargetRx, Violation};
use nvmf::qpair::IoCallback;
use nvmf::{CpuCosts, Pdu, Priority, SpdkInitiator};
use queues::{CidQueue, CompleteResult};
use simkit::{Kernel, Metrics, MetricsSource, Shared, SimTime, Tracer};
use std::collections::VecDeque;

/// Priority Manager counters; the transport's are in
/// [`OpfInitiator::io`]`.stats`.
#[derive(Clone, Debug, Default)]
pub struct OpfInitiatorStats {
    /// LS commands submitted.
    pub ls_submitted: u64,
    /// TC commands submitted.
    pub tc_submitted: u64,
    /// Draining flags sent.
    pub drains_sent: u64,
    /// Requests completed via coalesced responses.
    pub coalesced_completions: u64,
    /// Times the dynamic optimizer changed the window.
    pub window_changes: u64,
    /// Summed drain latency (draining flag sent → coalesced response
    /// received), in nanoseconds of virtual time.
    pub drain_latency_sum_ns: u64,
    /// Number of drain round trips measured.
    pub drain_latency_count: u64,
    /// Draining flags retransmitted after the redrain timeout.
    pub redrains: u64,
    /// Times this initiator was rehomed onto a new target by a live
    /// migration (DESIGN.md §16).
    pub rehomes: u64,
    /// Outstanding commands re-driven at the destination after a rehome.
    pub rehome_redrives: u64,
}

/// What the drain-timeout path found when the current window is empty.
enum StaleDrain {
    /// No outstanding drain (or redrain disabled): nothing to do.
    None,
    /// Outstanding drains exist but the oldest is not overdue yet.
    Wait,
    /// The oldest outstanding drain is overdue: retransmit it.
    Resend(Sqe, Priority),
}

/// The NVMe-oPF initiator: the transport initiator
/// ([`nvmf::SpdkInitiator`] — queue pair, retry, wire, completion) plus
/// the Priority Manager: per-request class tags, automatic draining
/// every `window` TC requests, a lock-free zero-copy CID queue, and
/// batched completion marking on coalesced responses.
pub struct OpfInitiator {
    /// The transport this Priority Manager drives.
    pub io: SpdkInitiator,
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
        let mut io = SpdkInitiator::new(id, qd, net, ep, target_ep, target_rx, costs, tracer);
        if let Some(policy) = cfg.retry {
            io.set_retry(policy);
        }
        if cfg.redrain_timeout.is_some() {
            // A re-sent drain duplicates responses just as a retry does.
            io.enable_recovery();
        }
        OpfInitiator {
            io,
            cfg,
            cid_queue: CidQueue::new(cap),
            sent_in_window: 0,
            window,
            dynamic,
            window_generation: 0,
            timer_armed: false,
            drain_sent_at: VecDeque::new(),
            cid_pool: Vec::new(),
            stats: OpfInitiatorStats::default(),
            last_protocol_error: None,
        }
    }

    /// Most recent protocol violation, if any.
    pub fn last_protocol_error(&self) -> Option<&ProtocolError> {
        self.last_protocol_error.as_ref()
    }

    /// Record a protocol violation: count it, keep it for diagnostics,
    /// trace it — and let the caller drop the offending PDU.
    fn note_protocol_error(&mut self, now: SimTime, err: ProtocolError) {
        self.io.stats.protocol_errors += 1;
        self.io.trace(now, "opf.protocol_error", 0);
        self.last_protocol_error = Some(err);
    }

    /// Queue pair depth.
    pub fn queue_depth(&self) -> usize {
        self.io.queue_depth()
    }

    /// Commands currently in flight.
    pub fn inflight(&self) -> usize {
        self.io.inflight()
    }

    /// True when another command can be issued.
    pub fn has_capacity(&self) -> bool {
        self.io.has_capacity()
    }

    /// Drop the callbacks of commands still in flight (teardown).
    pub fn abort_pending(&mut self) {
        self.io.abort_pending();
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
        let (cid, epoch, priority, at, arm_drain) = {
            let mut i = this.borrow_mut();
            let i = &mut *i;
            let now = k.now();
            // The tag needs the CID (it goes on the CID queue and names
            // the drain), so the context starts untagged.
            let (cid, epoch) =
                i.io.begin(now, opcode, slba, blocks, payload, Priority::None, cb)?;
            let priority = match class {
                ReqClass::LatencySensitive => {
                    i.stats.ls_submitted += 1;
                    Priority::LatencySensitive
                }
                ReqClass::ThroughputCritical => {
                    i.stats.tc_submitted += 1;
                    // Alg 1: queue[tail] <- req.cid.
                    #[expect(
                        clippy::expect_used,
                        reason = "internal invariant: sized for QD + window"
                    )]
                    i.cid_queue
                        .push(cid)
                        .expect("CID queue sized for QD + window");
                    i.sent_in_window += 1;
                    let draining = i.sent_in_window >= i.window;
                    if draining {
                        i.sent_in_window = 0;
                        i.window_generation += 1;
                        i.stats.drains_sent += 1;
                        i.drain_sent_at.push_back((now, cid));
                        i.io.trace(now, "opf.drain_tx", u64::from(cid));
                    }
                    Priority::ThroughputCritical { draining }
                }
            };
            if let Some(ctx) = i.io.outstanding(cid) {
                ctx.priority = priority;
            }
            // A draining submit historically never armed the timer (its
            // own response resolves the window) — but with redrain enabled
            // the timer doubles as the drain-loss watchdog, so it must run.
            let arm_drain =
                priority.is_tc() && (!priority.is_draining() || i.cfg.redrain_timeout.is_some());
            (cid, epoch, priority, i.io.reserve_submit(now), arm_drain)
        };
        // Kernel sequence stamps break ties: drain timer, then the wire
        // send, then the expiry timer.
        if arm_drain {
            Self::arm_drain_timer(this, k);
        }
        let sqe = SpdkInitiator::build_sqe(opcode, cid, slba, blocks);
        SpdkInitiator::send_cmd_at(this, k, at, sqe, priority);
        // Only commands that receive a direct response get an expiry
        // timer: LS commands and draining flags. Non-draining TC commands
        // complete through a later drain, so an individual timeout would
        // misfire on every healthy coalesced window.
        if let Some(epoch) = epoch {
            if priority.is_ls() || priority.is_draining() {
                SpdkInitiator::arm_expiry(this, k, cid, epoch);
            }
        }
        Some(cid)
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
                Redrain(SimTime, Sqe, Priority),
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
                        StaleDrain::Resend(sqe, priority) => {
                            i.stats.redrains += 1;
                            i.io.trace(k.now(), "opf.redrain", u64::from(sqe.cid));
                            Act::Redrain(i.io.reserve_submit(k.now()), sqe, priority)
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
                Act::Redrain(at, sqe, priority) => {
                    SpdkInitiator::send_cmd_at(&this2, k, at, sqe, priority);
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
            let Some((sqe, priority)) = self.io.resend_args(cid) else {
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
            return StaleDrain::Resend(sqe, priority);
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
            i.window = w.clamp(1, i.io.queue_depth() as u32);
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
        let plan: Vec<(SimTime, Sqe, Priority, Option<u64>)> = {
            let mut i = this.borrow_mut();
            let i = &mut *i;
            i.io.retarget(target_ep, target_rx);
            i.stats.rehomes += 1;
            i.io.trace(k.now(), "opf.rehome", 0);
            // TC CIDs first, in issue order — the CID queue is the
            // drain-order ground truth. It has no non-destructive
            // iteration, so drain into scratch and re-push identically.
            let mut tc_cids = i.cid_pool.pop().unwrap_or_default();
            tc_cids.clear();
            i.cid_queue.drain_all_into(&mut tc_cids);
            for &cid in &tc_cids {
                #[expect(
                    clippy::expect_used,
                    reason = "internal invariant: re-pushing exactly what was just drained cannot overflow"
                )]
                i.cid_queue.push(cid).expect("re-push after drain");
            }
            // Then every other outstanding CID (LS commands), by index.
            let mut order = std::mem::take(&mut tc_cids);
            let tc_n = order.len();
            for cid in 0..i.io.queue_depth() as u16 {
                if order[..tc_n].contains(&cid) {
                    continue;
                }
                if i.io.outstanding(cid).is_some() {
                    order.push(cid);
                }
            }
            let mut plan = Vec::with_capacity(order.len());
            for &cid in &order {
                let Some((sqe, priority)) = i.io.resend_args(cid) else {
                    continue;
                };
                let epoch = i.io.reincarnate(cid);
                plan.push((i.io.reserve_submit(k.now()), sqe, priority, epoch));
            }
            i.stats.rehome_redrives += plan.len() as u64;
            order.clear();
            i.cid_pool.push(order);
            plan
        };
        let n = plan.len();
        for (at, sqe, priority, epoch) in plan {
            SpdkInitiator::send_cmd_at(this, k, at, sqe, priority);
            if let Some(epoch) = epoch {
                if priority.is_ls() || priority.is_draining() {
                    SpdkInitiator::arm_expiry(this, k, sqe.cid, epoch);
                }
            }
        }
        n
    }

    /// Deliver a PDU arriving from the target.
    pub fn on_pdu(this: &Shared<OpfInitiator>, k: &mut Kernel, pdu: Pdu) {
        SpdkInitiator::on_pdu(this, k, pdu);
    }
}

impl PriorityPolicy for OpfInitiator {
    const RETRY_TRACE: &'static str = "opf.retry";

    fn transport(&mut self) -> &mut SpdkInitiator {
        &mut self.io
    }

    fn violation(&mut self, now: SimTime, v: Violation) {
        let id = self.io.id;
        let side = ProtocolSide::Initiator(id);
        self.note_protocol_error(
            now,
            match v {
                Violation::UnexpectedPdu(kind) => ProtocolError::UnexpectedPdu { side, kind },
                Violation::UnknownCid(cid) => ProtocolError::UnknownCid { side, cid },
                Violation::R2tWithoutPayload(cid) => {
                    ProtocolError::R2tWithoutPayload { initiator: id, cid }
                }
            },
        );
    }

    /// Complete `cid` (and, for a TC drain, everything queued behind it)
    /// with an internal error after the retry budget is exhausted — a
    /// per-command failure would strand the rest of the window.
    fn retry_exhausted(this: &Shared<OpfInitiator>, k: &mut Kernel, cid: u16) {
        let cids = {
            let mut i = this.borrow_mut();
            i.io.trace(k.now(), "opf.retry_exhausted", u64::from(cid));
            let tc =
                i.io.outstanding(cid)
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
            SpdkInitiator::complete(this, k, c, Status::InternalError);
        }
    }

    /// Algorithm 2: a response for a draining TC request marks every
    /// queued CID up to and including it complete, in issue order. LS
    /// responses complete a single request as in the baseline.
    fn on_resp(this: &Shared<OpfInitiator>, k: &mut Kernel, cqe: Cqe, priority: Priority) {
        let (finish, cids) = {
            let mut i = this.borrow_mut();
            let i = &mut *i;
            i.io.stats.resps_rx += 1;
            // The echoed priority bits are wire data an adversary can
            // influence (a forged LS flag on a TC capsule is reflected
            // back by the target); the locally recorded request class is
            // ground truth. Routing a TC completion down the LS path
            // would strand its CID-queue entry until the queue overflows.
            let priority = match i.io.outstanding(cqe.cid).map(|c| c.priority) {
                Some(local) if local.is_tc() != priority.is_tc() => {
                    let id = i.io.id;
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
                let recovery = i.io.recovery();
                if recovery {
                    // Retransmission can produce duplicate and reordered
                    // coalesced responses; completing through a stale one
                    // would mark a CID's *new* occupant complete. A
                    // response is genuine only while its drain CID is
                    // still outstanding.
                    let outstanding = i.io.outstanding(cqe.cid).is_some();
                    let pos = i.drain_sent_at.iter().position(|&(_, c)| c == cqe.cid);
                    if !outstanding {
                        if let Some(idx) = pos {
                            i.drain_sent_at.remove(idx);
                        }
                        i.io.stats.dup_resps_suppressed += 1;
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
                    let id = i.io.id;
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
                i.io.trace(k.now(), "opf.coalesced_rx", cids.len() as u64);
                // One response-processing cost plus per-CID bookkeeping —
                // the initiator-side saving of coalescing.
                let cost =
                    i.io.costs().ini_on_resp + i.cfg.coalesced_complete_each * cids.len() as u64;
                let finish = i.io.reserve_cpu(k.now(), cost);
                // Dynamic window retune (§IV-D).
                let now = k.now();
                let batch = cids.len() as u64;
                let qd = i.io.queue_depth() as u32;
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
                let cost = i.io.costs().ini_on_resp;
                let finish = i.io.reserve_cpu(k.now(), cost);
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
                SpdkInitiator::complete(&this2, k, cid, status);
            }
            // Return the emptied buffer to the pool for the next drain.
            cids.clear();
            this2.borrow_mut().cid_pool.push(cids);
        });
    }
}

impl MetricsSource for OpfInitiator {
    fn metrics(&self, now: SimTime) -> Metrics {
        let mut m = self.io.transport_metrics(now);
        m.set("window", self.window as f64);
        m.set("window_changes", self.stats.window_changes as f64);
        m.set("pending_in_window", self.sent_in_window as f64);
        m.set("ls_submitted", self.stats.ls_submitted as f64);
        m.set("tc_submitted", self.stats.tc_submitted as f64);
        m.set("drains_sent", self.stats.drains_sent as f64);
        m.set(
            "coalesced_completions",
            self.stats.coalesced_completions as f64,
        );
        // Mean completions retired per response processed — the
        // initiator-side saving Figure 6 quantifies.
        let io = &self.io.stats;
        let coalesce_ratio = if io.resps_rx > 0 {
            io.completed as f64 / io.resps_rx as f64
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
        if self.io.recovery() {
            m.set("redrains", self.stats.redrains as f64);
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
