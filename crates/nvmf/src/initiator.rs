//! The one transport-level NVMe-oF initiator: queue pair, CPU
//! resource, endpoints, retry slots and epochs, wire sends,
//! `C2HData`/R2T handling, expiry timers and CID completion.
//!
//! What differs between the baseline and NVMe-oPF is a
//! [`PriorityPolicy`]: how a response capsule is routed to CIDs and
//! what retry exhaustion fails.
//! [`SpdkInitiator`] under its own pass-through policy *is* the
//! baseline (closed queue-depth loop, one completion capsule processed
//! per request); `opf::OpfInitiator` embeds one and adds the Priority
//! Manager. The transport functions are generic over the owner that
//! projects to the transport, so dispatch is static.

use crate::costs::CpuCosts;
use crate::error::{ProtocolError, ProtocolSide};
use crate::pdu::{Pdu, Priority};
use crate::qpair::{IoCallback, QPair, ReqCtx, RetryPolicy};
use bytes::Bytes;
use fabric::{Endpoint, Network};
use nvme::{Cqe, Opcode, Sqe, Status};
use simkit::{Kernel, Metrics, MetricsSource, Resource, Shared, SimDuration, SimTime};
use std::rc::Rc;

/// Result of one I/O as seen by the submitting application.
#[derive(Debug)]
pub struct IoOutcome {
    /// NVMe completion status.
    pub status: Status,
    /// Read data (successful reads only).
    pub data: Option<Bytes>,
    /// End-to-end latency (submit → completion callback).
    pub latency: SimDuration,
}

/// Transport-level counters. `resps_rx` counts completion notifications
/// processed — the initiator-CPU cost the paper's coalescing removes.
#[derive(Clone, Debug, Default)]
pub struct InitiatorStats {
    /// Commands submitted.
    pub submitted: u64,
    /// Commands completed.
    pub completed: u64,
    /// Error completions.
    pub errors: u64,
    /// Response capsules received.
    pub resps_rx: u64,
    /// C2H data PDUs received.
    pub data_rx: u64,
    /// R2T PDUs received.
    pub r2ts_rx: u64,
    /// Payload bytes read.
    pub bytes_read: u64,
    /// Payload bytes written.
    pub bytes_written: u64,
    /// Protocol violations detected (misdirected PDUs, R2Ts or
    /// completions naming no in-flight command). The offending PDU is
    /// dropped; the sim keeps running.
    pub protocol_errors: u64,
    /// Commands retransmitted after an expiry timeout (retry enabled).
    pub retries: u64,
    /// Commands failed locally after exhausting the retry budget.
    pub retry_exhausted: u64,
    /// Stale/duplicate completions dropped by the recovery layer instead
    /// of being counted as protocol errors.
    pub dup_resps_suppressed: u64,
}

/// Per-CID retransmission state (allocated only when retry is enabled).
#[derive(Clone, Debug, Default)]
struct RetrySlot {
    /// Incarnation counter: bumped on every (re)allocation and on
    /// completion, so expiry timers armed for an earlier life of this
    /// CID recognize themselves as stale.
    epoch: u64,
    /// Retransmissions performed for the current incarnation.
    attempts: u32,
    /// Copy of the write payload, kept because the live `ReqCtx` payload
    /// is consumed by the first R2T — a retransmitted write needs it
    /// again for the re-granted R2T.
    payload: Option<Bytes>,
}

/// How an initiator hands PDUs to its target (closure capturing the
/// target handle; the initiator id rides along).
pub type TargetRx = Rc<dyn Fn(&mut Kernel, u8, Pdu)>;

/// The priority-policy hook over the transport: everything the baseline
/// and NVMe-oPF initiators do differently once a command is on the
/// queue pair. `Self` is the owner the kernel events hold; it projects
/// to the transport it owns.
pub trait PriorityPolicy: Sized + 'static {
    /// The transport this policy drives.
    fn transport(&mut self) -> &mut SpdkInitiator;

    /// `cid` spent its retry budget: complete it (and whatever depends
    /// on it) with a local error.
    fn retry_exhausted(this: &Shared<Self>, k: &mut Kernel, cid: u16);

    /// Route a response capsule to the CIDs it completes: reserve the
    /// processing cost and schedule [`SpdkInitiator::complete`].
    fn on_resp(this: &Shared<Self>, k: &mut Kernel, cqe: Cqe, priority: Priority);
}

/// The transport-level initiator; with its own pass-through
/// [`PriorityPolicy`], the baseline SPDK-style initiator.
pub struct SpdkInitiator {
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
    retry: Option<RetryPolicy>,
    /// Some recovery mechanism can re-send a command, so a completion
    /// naming a finished CID is an expected duplicate, not a violation.
    recovery: bool,
    slots: Vec<RetrySlot>,
    /// Counters.
    pub stats: InitiatorStats,
    last_protocol_error: Option<ProtocolError>,
}

impl SpdkInitiator {
    /// Create an initiator with a queue pair of depth `qd`.
    pub fn new(
        id: u8,
        qd: usize,
        net: Network,
        ep: Shared<Endpoint>,
        target_ep: Shared<Endpoint>,
        target_rx: TargetRx,
        costs: CpuCosts,
    ) -> Self {
        SpdkInitiator {
            id,
            qpair: QPair::new(qd),
            cpu: Resource::new("initiator_cpu"),
            net,
            ep,
            target_ep,
            target_rx,
            costs,
            retry: None,
            recovery: false,
            slots: Vec::new(),
            stats: InitiatorStats::default(),
            last_protocol_error: None,
        }
    }

    /// Enable bounded retransmission with exponential backoff (a
    /// recovery mechanism, see [`Self::enable_recovery`]).
    pub fn set_retry(&mut self, policy: RetryPolicy) {
        self.retry = Some(policy);
        self.slots = vec![RetrySlot::default(); self.qpair.depth()];
        self.enable_recovery();
    }

    /// Declare that commands may be re-sent: duplicate completions are
    /// suppressed instead of flagged, the recovery counters appear in
    /// the metrics, and the queue pair recycles CIDs FIFO, so a freshly
    /// freed CID is not immediately renamed while stale duplicates of
    /// its old response may still be in flight.
    pub fn enable_recovery(&mut self) {
        self.recovery = true;
        self.qpair.set_fifo_recycle(true);
    }

    /// True when a recovery mechanism is armed.
    pub fn recovery(&self) -> bool {
        self.recovery
    }

    /// Queue pair depth.
    pub fn queue_depth(&self) -> usize {
        self.qpair.depth()
    }

    /// Commands currently in flight.
    pub fn inflight(&self) -> usize {
        self.qpair.inflight()
    }

    /// True when another command can be issued without exceeding the
    /// queue depth.
    pub fn has_capacity(&self) -> bool {
        self.qpair.has_capacity()
    }

    /// Drop the callbacks of commands still in flight (teardown; see
    /// [`QPair::abort_all`]).
    pub fn abort_pending(&mut self) {
        self.qpair.abort_all();
    }

    /// The CPU cost model.
    pub fn costs(&self) -> &CpuCosts {
        &self.costs
    }

    /// Context of the in-flight command `cid`, if any.
    pub fn outstanding(&mut self, cid: u16) -> Option<&mut ReqCtx> {
        self.qpair.get_mut(cid)
    }

    /// This initiator as the side that detects a violation.
    fn side(&self) -> ProtocolSide {
        ProtocolSide::Initiator(self.id)
    }

    /// Record a protocol violation: count it and keep it for
    /// diagnostics; the caller drops the offending PDU.
    pub fn note(&mut self, err: ProtocolError) {
        self.stats.protocol_errors += 1;
        self.last_protocol_error = Some(err);
    }

    /// Most recent protocol violation, if any.
    pub fn last_protocol_error(&self) -> Option<&ProtocolError> {
        self.last_protocol_error.as_ref()
    }

    /// Occupy the initiator core for `cost`; returns when the work ends.
    pub fn reserve_cpu(&mut self, now: SimTime, cost: SimDuration) -> SimTime {
        self.cpu.reserve(now, cost).finish
    }

    /// Occupy the core for building one command capsule.
    pub fn reserve_submit(&mut self, now: SimTime) -> SimTime {
        self.reserve_cpu(now, self.costs.ini_submit)
    }

    /// Point the initiator at another target (live migration). Sends
    /// already holding a CPU reservation go to the new target: the
    /// endpoint is read when the send fires.
    pub fn retarget(&mut self, target_ep: Shared<Endpoint>, target_rx: TargetRx) {
        self.target_ep = target_ep;
        self.target_rx = target_rx;
    }

    /// Start a new incarnation of the in-flight `cid` (its command is
    /// about to be re-driven): expiry timers armed for the old one die
    /// on the epoch mismatch and the retry budget starts fresh. Returns
    /// the new epoch, `None` when retry is off.
    pub fn reincarnate(&mut self, cid: u16) -> Option<u64> {
        self.retry?;
        let slot = &mut self.slots[cid as usize];
        slot.epoch += 1;
        slot.attempts = 0;
        Some(slot.epoch)
    }

    /// Allocate a CID for one command and open its retry incarnation.
    /// Returns the CID and, when retry is enabled, the epoch to arm an
    /// expiry timer with; `None` when the queue pair is at depth.
    ///
    /// `payload` is required for writes (exactly `blocks × 4096` bytes).
    #[allow(clippy::too_many_arguments)]
    pub fn begin(
        &mut self,
        now: SimTime,
        opcode: Opcode,
        slba: u64,
        blocks: u16,
        payload: Option<Bytes>,
        priority: Priority,
        cb: IoCallback,
    ) -> Option<(u16, Option<u64>)> {
        debug_assert!(
            opcode != Opcode::Write
                || payload.as_ref().map(|p| p.len()) == Some(blocks as usize * nvme::BLOCK_SIZE),
            "write payload must cover the request"
        );
        let payload_copy = self.retry.and_then(|_| payload.clone());
        let cid = self.qpair.begin(ReqCtx {
            opcode,
            slba,
            blocks,
            payload,
            data: None,
            priority,
            issued_at: now,
            cb,
        })?;
        self.stats.submitted += 1;
        let epoch = self.reincarnate(cid);
        if epoch.is_some() {
            self.slots[cid as usize].payload = payload_copy;
        }
        Some((cid, epoch))
    }

    /// Submit one I/O. Returns the allocated CID, or `None` when the
    /// queue pair is at depth (callers run closed loops and must respect
    /// this).
    ///
    /// The baseline transmits `priority` in the capsule's reserved bits
    /// but its target ignores it — which is exactly the baseline's
    /// multi-tenancy failure.
    #[allow(clippy::too_many_arguments)]
    pub fn submit(
        this: &Shared<SpdkInitiator>,
        k: &mut Kernel,
        opcode: Opcode,
        slba: u64,
        blocks: u16,
        payload: Option<Bytes>,
        priority: Priority,
        cb: IoCallback,
    ) -> Option<u16> {
        let (cid, epoch, at) = {
            let mut i = this.borrow_mut();
            let (cid, epoch) = i.begin(k.now(), opcode, slba, blocks, payload, priority, cb)?;
            let at = i.reserve_submit(k.now());
            (cid, epoch, at)
        };
        let sqe = Self::build_sqe(opcode, cid, slba, blocks);
        Self::send_cmd_at(this, k, at, sqe, priority);
        if let Some(epoch) = epoch {
            Self::arm_expiry(this, k, cid, epoch);
        }
        Some(cid)
    }

    /// The submission-queue entry of one command.
    pub fn build_sqe(opcode: Opcode, cid: u16, slba: u64, blocks: u16) -> Sqe {
        match opcode {
            Opcode::Read => Sqe::read(cid, 1, slba, blocks),
            Opcode::Write => Sqe::write(cid, 1, slba, blocks),
            Opcode::Flush => Sqe {
                opcode,
                cid,
                nsid: 1,
                slba: 0,
                nlb: 0,
            },
        }
    }

    /// The capsule contents that re-send the in-flight command `cid`.
    pub fn resend_args(&mut self, cid: u16) -> Option<(Sqe, Priority)> {
        let c = self.qpair.get_mut(cid)?;
        Some((Self::build_sqe(c.opcode, cid, c.slba, c.blocks), c.priority))
    }

    /// Put one PDU on the wire to the current target.
    fn send(&self, k: &mut Kernel, pdu: Pdu) {
        let rx = self.target_rx.clone();
        let from = self.id;
        self.net
            .send(k, &self.ep, &self.target_ep, pdu.wire_len(), move |k| {
                rx(k, from, pdu)
            });
    }

    /// Schedule a command capsule onto the wire at `at` (the CPU work
    /// was already reserved by the caller). Shared by first
    /// transmission, retry, redrain and rehome. The target is read when
    /// the send fires, not now: a rehome in between redirects it.
    pub fn send_cmd_at<O: PriorityPolicy>(
        this: &Shared<O>,
        k: &mut Kernel,
        at: SimTime,
        sqe: Sqe,
        priority: Priority,
    ) {
        let this2 = this.clone();
        k.schedule_at(at, move |k| {
            let mut o = this2.borrow_mut();
            let i = o.transport();
            let pdu = Pdu::CapsuleCmd {
                sqe,
                priority,
                initiator: i.id,
            };
            i.send(k, pdu);
        });
    }

    /// Schedule the expiry timer for the current attempt of `cid`'s
    /// incarnation `epoch`; the delay doubles with each attempt already
    /// made (exponential backoff). The captured epoch invalidates the
    /// timer if the command completes (or the CID is reused) first.
    pub fn arm_expiry<O: PriorityPolicy>(this: &Shared<O>, k: &mut Kernel, cid: u16, epoch: u64) {
        let backoff = {
            let mut o = this.borrow_mut();
            let i = o.transport();
            let Some(policy) = i.retry else { return };
            policy.timeout * (1u64 << i.slots[cid as usize].attempts.min(16))
        };
        let this2 = this.clone();
        k.schedule_in(backoff, move |k| {
            Self::on_expiry(&this2, k, cid, epoch);
        });
    }

    /// An expiry timer fired: if the command is still outstanding and the
    /// timer is not stale, retransmit it (or hand it to the policy's
    /// [`PriorityPolicy::retry_exhausted`] once the budget is spent).
    fn on_expiry<O: PriorityPolicy>(this: &Shared<O>, k: &mut Kernel, cid: u16, epoch: u64) {
        let resend = {
            let mut o = this.borrow_mut();
            let i = o.transport();
            let Some(policy) = i.retry else { return };
            if i.slots[cid as usize].epoch != epoch {
                return; // completed (or CID reincarnated): stale timer
            }
            let Some((sqe, priority)) = i.resend_args(cid) else {
                return;
            };
            if i.slots[cid as usize].attempts >= policy.max_retries {
                i.stats.retry_exhausted += 1;
                None
            } else {
                i.slots[cid as usize].attempts += 1;
                i.stats.retries += 1;
                Some((i.reserve_submit(k.now()), sqe, priority))
            }
        };
        match resend {
            None => O::retry_exhausted(this, k, cid),
            Some((at, sqe, priority)) => {
                Self::send_cmd_at(this, k, at, sqe, priority);
                Self::arm_expiry(this, k, cid, epoch);
            }
        }
    }

    /// Deliver a PDU arriving from the target.
    pub fn on_pdu<O: PriorityPolicy>(this: &Shared<O>, k: &mut Kernel, pdu: Pdu) {
        match pdu {
            Pdu::C2HData { cccid, data } => {
                let mut o = this.borrow_mut();
                let i = o.transport();
                i.stats.data_rx += 1;
                i.stats.bytes_read += data.len() as u64;
                // Data processing occupies the core, which the reservation
                // records. Nothing runs when it ends, so no event is
                // scheduled for it; the run just lasts at least that long.
                let finish = i.reserve_cpu(k.now(), i.costs.ini_on_data);
                k.extend_to(finish);
                if let Some(ctx) = i.qpair.get_mut(cccid) {
                    ctx.data = Some(data);
                }
            }
            Pdu::R2T { cccid, r2tl } => Self::on_r2t(this, k, cccid, r2tl),
            Pdu::CapsuleResp { cqe, priority } => O::on_resp(this, k, cqe, priority),
            // Command capsules and H2C data never travel controller → host:
            // record the violation and drop the PDU rather than abort.
            other => {
                let mut o = this.borrow_mut();
                let i = o.transport();
                let (side, kind) = (i.side(), other.kind());
                i.note(ProtocolError::UnexpectedPdu { side, kind });
            }
        }
    }

    fn on_r2t<O: PriorityPolicy>(this: &Shared<O>, k: &mut Kernel, cccid: u16, r2tl: u32) {
        let (finish, data) = {
            let mut o = this.borrow_mut();
            let i = o.transport();
            i.stats.r2ts_rx += 1;
            let ctx = i.qpair.get_mut(cccid);
            let known = ctx.is_some();
            let mut data = ctx.and_then(|ctx| ctx.payload.take());
            // Under retry, the live payload may have been consumed by an
            // earlier R2T of the same command (duplicate grant, or a grant
            // re-issued for a retransmitted capsule) — fall back to the
            // slot's copy.
            if data.is_none() && known && i.retry.is_some() {
                data = i.slots[cccid as usize].payload.clone();
            }
            let Some(data) = data.filter(|d| d.len() == r2tl as usize) else {
                // An R2T matching no in-flight write: record + drop.
                i.note(if known {
                    ProtocolError::R2tWithoutPayload {
                        initiator: i.id,
                        cid: cccid,
                    }
                } else {
                    ProtocolError::UnknownCid {
                        side: i.side(),
                        cid: cccid,
                    }
                });
                return;
            };
            let cost = i.costs.ini_on_r2t + i.costs.ini_send_data;
            (i.reserve_cpu(k.now(), cost), data)
        };
        let this2 = this.clone();
        k.schedule_at(finish, move |k| {
            let mut o = this2.borrow_mut();
            let i = o.transport();
            i.stats.bytes_written += data.len() as u64;
            i.send(k, Pdu::H2CData { cccid, data });
        });
    }

    /// Finish one command: release its CID and run the user callback.
    pub fn complete<O: PriorityPolicy>(this: &Shared<O>, k: &mut Kernel, cid: u16, status: Status) {
        let (ctx, latency) = {
            let mut o = this.borrow_mut();
            let i = o.transport();
            let Some(ctx) = i.qpair.finish(cid) else {
                if i.recovery {
                    // A completion for a finished command is an expected
                    // duplicate (the original response and a re-sent
                    // command's response both arrived): suppress it.
                    i.stats.dup_resps_suppressed += 1;
                } else {
                    // Completion naming no in-flight command (duplicate
                    // or forged response): record + drop.
                    let side = i.side();
                    i.note(ProtocolError::UnknownCid { side, cid });
                }
                return;
            };
            if i.retry.is_some() {
                // Invalidate any armed expiry timer and drop the stashed
                // payload copy.
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

    /// The metric keys both runtimes' initiators report. Recovery
    /// counters only exist when recovery is configured, so fault-free
    /// snapshots stay byte-identical to historical output.
    pub fn transport_metrics(&self, now: SimTime) -> Metrics {
        let mut m = Metrics::at(now);
        m.set("cpu_util", self.cpu.utilization(now));
        m.set("inflight", self.qpair.inflight() as f64);
        m.set("queue_depth", self.qpair.depth() as f64);
        m.set("submitted", self.stats.submitted as f64);
        m.set("completed", self.stats.completed as f64);
        m.set("errors", self.stats.errors as f64);
        m.set("pdu.resps_rx", self.stats.resps_rx as f64);
        m.set("pdu.data_rx", self.stats.data_rx as f64);
        m.set("pdu.r2ts_rx", self.stats.r2ts_rx as f64);
        m.set("protocol_errors", self.stats.protocol_errors as f64);
        if self.recovery {
            m.set("retries", self.stats.retries as f64);
            m.set("retry_exhausted", self.stats.retry_exhausted as f64);
            m.set(
                "dup_resps_suppressed",
                self.stats.dup_resps_suppressed as f64,
            );
        }
        m
    }
}

/// The pass-through policy: one CID per response capsule.
impl PriorityPolicy for SpdkInitiator {
    fn transport(&mut self) -> &mut SpdkInitiator {
        self
    }

    fn retry_exhausted(this: &Shared<Self>, k: &mut Kernel, cid: u16) {
        Self::complete(this, k, cid, Status::InternalError);
    }

    fn on_resp(this: &Shared<Self>, k: &mut Kernel, cqe: Cqe, _priority: Priority) {
        let finish = {
            let mut i = this.borrow_mut();
            i.stats.resps_rx += 1;
            let cost = i.costs.ini_on_resp;
            i.reserve_cpu(k.now(), cost)
        };
        let this2 = this.clone();
        k.schedule_at(finish, move |k| {
            Self::complete(&this2, k, cqe.cid, cqe.status);
        });
    }
}

impl MetricsSource for SpdkInitiator {
    fn metrics(&self, now: SimTime) -> Metrics {
        let mut m = self.transport_metrics(now);
        // The NVMe-oPF snapshot never carried the byte counters, and the
        // goldens pin each runtime's key set.
        m.set("bytes_read", self.stats.bytes_read as f64);
        m.set("bytes_written", self.stats.bytes_written as f64);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::SpdkTarget;
    use fabric::{FabricConfig, Gbps};
    use nvme::{FlashProfile, NvmeDevice, BLOCK_SIZE};
    use simkit::{shared, Tracer};
    use std::cell::RefCell;

    /// Wire one initiator and one target over a fabric; returns handles.
    fn rig(
        speed: Gbps,
        qd: usize,
    ) -> (
        Kernel,
        Shared<SpdkInitiator>,
        Shared<SpdkTarget>,
        Shared<NvmeDevice>,
    ) {
        let k = Kernel::new(42);
        let net = Network::new(FabricConfig::preset(speed));
        let iep = net.add_endpoint("ini0");
        let tep = net.add_endpoint("tgt0");
        let device = shared(NvmeDevice::new(FlashProfile::cc_ssd(), 1 << 24, 9));
        let target = shared(SpdkTarget::new(
            0,
            net.clone(),
            tep.clone(),
            device.clone(),
            CpuCosts::cl(),
            Tracer::disabled(),
        ));
        let t2 = target.clone();
        let target_rx: TargetRx = Rc::new(move |k, from, pdu| {
            SpdkTarget::on_pdu(&t2, k, from, pdu);
        });
        let initiator = shared(SpdkInitiator::new(
            0,
            qd,
            net.clone(),
            iep.clone(),
            tep,
            target_rx,
            CpuCosts::cl(),
        ));
        let i2 = initiator.clone();
        let ini_rx: crate::PduRx = Rc::new(move |k, pdu| {
            SpdkInitiator::on_pdu(&i2, k, pdu);
        });
        target.borrow_mut().connect(0, iep, ini_rx);
        (k, initiator, target, device)
    }

    #[test]
    fn read_roundtrip_returns_device_data() {
        let (mut k, ini, _tgt, dev) = rig(Gbps::G100, 4);
        // Seed the namespace directly.
        let golden: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i % 249) as u8).collect();
        dev.borrow_mut().namespace_mut().write(5, &golden).unwrap();

        let out = Rc::new(RefCell::new(None));
        let o = out.clone();
        let cid = SpdkInitiator::submit(
            &ini,
            &mut k,
            Opcode::Read,
            5,
            1,
            None,
            Priority::None,
            Box::new(move |_, r| {
                *o.borrow_mut() = Some(r);
            }),
        )
        .unwrap();
        k.run_to_completion();
        let out = out.borrow_mut().take().unwrap();
        assert!(out.status.is_ok());
        assert_eq!(out.data.as_deref(), Some(&golden[..]));
        assert!(
            out.latency > SimDuration::from_micros(40),
            "{:?}",
            out.latency
        );
        {
            let i = ini.borrow();
            assert_eq!(i.stats.completed, 1);
            assert_eq!(i.stats.resps_rx, 1);
            assert_eq!(i.stats.data_rx, 1);
            assert_eq!(i.stats.bytes_read, BLOCK_SIZE as u64);
            assert_eq!(i.stats.protocol_errors, 0);
        }
        // Without recovery, a second response for the finished command
        // is a violation: counted, kept as a typed record, dropped.
        let resp = Pdu::CapsuleResp {
            cqe: nvme::Cqe::success(cid, 0),
            priority: Priority::None,
        };
        SpdkInitiator::on_pdu(&ini, &mut k, resp);
        k.run_to_completion();
        let i = ini.borrow();
        assert_eq!(i.stats.completed, 1, "the callback ran once");
        assert_eq!(i.stats.protocol_errors, 1);
        assert_eq!(
            i.last_protocol_error(),
            Some(&ProtocolError::UnknownCid {
                side: ProtocolSide::Initiator(0),
                cid
            })
        );
    }

    #[test]
    fn write_roundtrip_persists_data() {
        let (mut k, ini, tgt, dev) = rig(Gbps::G100, 4);
        let payload: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i % 13) as u8).collect();
        let done = Rc::new(RefCell::new(false));
        let d = done.clone();
        SpdkInitiator::submit(
            &ini,
            &mut k,
            Opcode::Write,
            77,
            1,
            Some(Bytes::from(payload.clone())),
            Priority::None,
            Box::new(move |_, r| {
                assert!(r.status.is_ok());
                *d.borrow_mut() = true;
            }),
        )
        .unwrap();
        k.run_to_completion();
        assert!(*done.borrow());
        assert_eq!(
            dev.borrow_mut().namespace_mut().read(77, 1).unwrap(),
            payload
        );
        let t = tgt.borrow();
        assert_eq!(t.stats.r2ts_tx, 1, "writes take the R2T path");
        assert_eq!(t.stats.data_rx, 1);
        assert_eq!(t.stats.resps_tx, 1);
    }

    #[test]
    fn one_notification_per_request_in_baseline() {
        let (mut k, ini, tgt, _dev) = rig(Gbps::G100, 32);
        for i in 0..32u64 {
            SpdkInitiator::submit(
                &ini,
                &mut k,
                Opcode::Read,
                i,
                1,
                None,
                Priority::None,
                Box::new(|_, _| {}),
            )
            .unwrap();
        }
        k.run_to_completion();
        // The baseline's defining property (Fig. 3): #notifications ==
        // #requests.
        assert_eq!(tgt.borrow().stats.resps_tx, 32);
        assert_eq!(ini.borrow().stats.resps_rx, 32);
    }

    #[test]
    fn queue_depth_enforced() {
        let (mut k, ini, _tgt, _dev) = rig(Gbps::G100, 2);
        let submit = |ini: &Shared<SpdkInitiator>, k: &mut Kernel| {
            SpdkInitiator::submit(
                ini,
                k,
                Opcode::Read,
                0,
                1,
                None,
                Priority::None,
                Box::new(|_, _| {}),
            )
        };
        assert!(submit(&ini, &mut k).is_some());
        assert!(submit(&ini, &mut k).is_some());
        assert!(submit(&ini, &mut k).is_none(), "third submit exceeds QD=2");
        assert_eq!(ini.borrow().inflight(), 2);
        k.run_to_completion();
        assert!(ini.borrow().has_capacity());
        assert!(submit(&ini, &mut k).is_some());
        k.run_to_completion();
    }

    #[test]
    fn closed_loop_sustains_queue_depth() {
        // A self-refilling closed loop: every completion immediately
        // issues the next request; run for 20ms and check throughput is
        // device-bound (not stalling).
        let (mut k, ini, _tgt, _dev) = rig(Gbps::G100, 16);
        let count = Rc::new(RefCell::new(0u64));

        fn pump(ini: Shared<SpdkInitiator>, k: &mut Kernel, count: Rc<RefCell<u64>>, lba: u64) {
            let ini2 = ini.clone();
            let c2 = count.clone();
            SpdkInitiator::submit(
                &ini,
                k,
                Opcode::Read,
                lba % 1000,
                1,
                None,
                Priority::None,
                Box::new(move |k, r| {
                    assert!(r.status.is_ok());
                    *c2.borrow_mut() += 1;
                    pump(ini2, k, c2.clone(), lba + 1);
                }),
            );
        }
        for i in 0..16 {
            pump(ini.clone(), &mut k, count.clone(), i);
        }
        k.set_horizon(simkit::SimTime::from_millis(20));
        k.run_to_completion();
        let done = *count.borrow();
        let secs = 0.02;
        let iops = done as f64 / secs;
        // QD16 on a ~266K-IOPS device with ~100us service: expect
        // meaningful throughput, at least 100K IOPS.
        assert!(iops > 100_000.0, "closed loop too slow: {iops:.0} IOPS");
    }

    /// Rig with retry enabled and an interposer that drops the first
    /// `cmd_drops` command capsules and first `data_drops` H2C data PDUs
    /// on the initiator→target path.
    fn lossy_rig(
        cmd_drops: u32,
        data_drops: u32,
        qd: usize,
    ) -> (Kernel, Shared<SpdkInitiator>, Shared<SpdkTarget>) {
        let k = Kernel::new(42);
        let net = Network::new(FabricConfig::preset(Gbps::G100));
        let iep = net.add_endpoint("ini0");
        let tep = net.add_endpoint("tgt0");
        let device = shared(NvmeDevice::new(FlashProfile::cc_ssd(), 1 << 24, 9));
        let target = shared(SpdkTarget::new(
            0,
            net.clone(),
            tep.clone(),
            device,
            CpuCosts::cl(),
            Tracer::disabled(),
        ));
        target.borrow_mut().set_recovery(true);
        let t2 = target.clone();
        let cmds_left = Rc::new(RefCell::new(cmd_drops));
        let data_left = Rc::new(RefCell::new(data_drops));
        let target_rx: TargetRx = Rc::new(move |k, from, pdu| {
            let lost = match pdu {
                Pdu::CapsuleCmd { .. } if *cmds_left.borrow() > 0 => {
                    *cmds_left.borrow_mut() -= 1;
                    true
                }
                Pdu::H2CData { .. } if *data_left.borrow() > 0 => {
                    *data_left.borrow_mut() -= 1;
                    true
                }
                _ => false,
            };
            if !lost {
                SpdkTarget::on_pdu(&t2, k, from, pdu);
            }
        });
        let initiator = shared(SpdkInitiator::new(
            0,
            qd,
            net.clone(),
            iep.clone(),
            tep,
            target_rx,
            CpuCosts::cl(),
        ));
        initiator.borrow_mut().set_retry(RetryPolicy {
            timeout: SimDuration::from_micros(200),
            max_retries: 4,
        });
        let i2 = initiator.clone();
        let ini_rx: crate::PduRx = Rc::new(move |k, pdu| {
            SpdkInitiator::on_pdu(&i2, k, pdu);
        });
        target.borrow_mut().connect(0, iep, ini_rx);
        (k, initiator, target)
    }

    #[test]
    fn retry_recovers_a_dropped_command() {
        let (mut k, ini, _tgt) = lossy_rig(1, 0, 4);
        let out = Rc::new(RefCell::new(None));
        let o = out.clone();
        SpdkInitiator::submit(
            &ini,
            &mut k,
            Opcode::Read,
            3,
            1,
            None,
            Priority::None,
            Box::new(move |_, r| *o.borrow_mut() = Some(r)),
        )
        .unwrap();
        k.run_to_completion();
        let out = out.borrow_mut().take().expect("request completes");
        assert!(out.status.is_ok(), "{:?}", out.status);
        let i = ini.borrow();
        assert_eq!(i.stats.retries, 1);
        assert_eq!(i.stats.completed, 1);
        assert_eq!(i.stats.retry_exhausted, 0);
        assert_eq!(i.stats.protocol_errors, 0);
    }

    #[test]
    fn retry_budget_exhaustion_fails_locally() {
        let (mut k, ini, _tgt) = lossy_rig(u32::MAX, 0, 4);
        let out = Rc::new(RefCell::new(None));
        let o = out.clone();
        SpdkInitiator::submit(
            &ini,
            &mut k,
            Opcode::Read,
            3,
            1,
            None,
            Priority::None,
            Box::new(move |_, r| *o.borrow_mut() = Some(r)),
        )
        .unwrap();
        k.run_to_completion();
        let out = out.borrow_mut().take().expect("request must not strand");
        assert_eq!(out.status, Status::InternalError);
        let i = ini.borrow();
        assert_eq!(i.stats.retries, 4, "full budget spent");
        assert_eq!(i.stats.retry_exhausted, 1);
        assert!(i.qpair.has_capacity(), "exhausted CID is released");
    }

    #[test]
    fn retry_recovers_a_dropped_write_payload() {
        // First H2CData is lost after the R2T consumed the live payload:
        // the retransmitted command must re-trigger an R2T and the
        // initiator must replay the payload from its retry slot.
        let (mut k, ini, tgt) = lossy_rig(0, 1, 4);
        let payload: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i % 17) as u8).collect();
        let out = Rc::new(RefCell::new(None));
        let o = out.clone();
        SpdkInitiator::submit(
            &ini,
            &mut k,
            Opcode::Write,
            9,
            1,
            Some(Bytes::from(payload)),
            Priority::None,
            Box::new(move |_, r| *o.borrow_mut() = Some(r)),
        )
        .unwrap();
        k.run_to_completion();
        let out = out.borrow_mut().take().expect("write completes");
        assert!(out.status.is_ok(), "{:?}", out.status);
        let i = ini.borrow();
        assert!(i.stats.retries >= 1);
        assert_eq!(i.stats.completed, 1);
        let t = tgt.borrow();
        assert_eq!(t.stats.r2t_regrants, 1, "duplicate write cmd re-granted");
    }

    #[test]
    fn stale_duplicate_response_is_suppressed_under_retry() {
        let (mut k, ini, _tgt) = lossy_rig(0, 0, 4);
        let cid = SpdkInitiator::submit(
            &ini,
            &mut k,
            Opcode::Read,
            3,
            1,
            None,
            Priority::None,
            Box::new(|_, r| assert!(r.status.is_ok())),
        )
        .unwrap();
        k.run_to_completion();
        // A late duplicate of the response arrives after completion.
        SpdkInitiator::on_pdu(
            &ini,
            &mut k,
            Pdu::CapsuleResp {
                cqe: nvme::Cqe::success(cid, 0),
                priority: Priority::None,
            },
        );
        k.run_to_completion();
        let i = ini.borrow();
        assert_eq!(i.stats.dup_resps_suppressed, 1);
        assert_eq!(i.stats.protocol_errors, 0, "dup is not a violation");
        assert_eq!(i.stats.completed, 1, "user callback ran exactly once");
    }

    #[test]
    fn latency_grows_with_congestion() {
        // Single read on idle system vs read behind a deep queue.
        let (mut k, ini, _t, _d) = rig(Gbps::G100, 128);
        let idle_lat = Rc::new(RefCell::new(SimDuration::ZERO));
        let il = idle_lat.clone();
        SpdkInitiator::submit(
            &ini,
            &mut k,
            Opcode::Read,
            0,
            1,
            None,
            Priority::None,
            Box::new(move |_, r| *il.borrow_mut() = r.latency),
        )
        .unwrap();
        k.run_to_completion();

        let busy_lat = Rc::new(RefCell::new(SimDuration::ZERO));
        for i in 0..127 {
            SpdkInitiator::submit(
                &ini,
                &mut k,
                Opcode::Read,
                i,
                1,
                None,
                Priority::None,
                Box::new(|_, _| {}),
            )
            .unwrap();
        }
        let bl = busy_lat.clone();
        SpdkInitiator::submit(
            &ini,
            &mut k,
            Opcode::Read,
            500,
            1,
            None,
            Priority::None,
            Box::new(move |_, r| *bl.borrow_mut() = r.latency),
        )
        .unwrap();
        k.run_to_completion();
        assert!(
            *busy_lat.borrow() > *idle_lat.borrow() * 3,
            "FIFO queueing should inflate latency: idle {:?} busy {:?}",
            idle_lat.borrow(),
            busy_lat.borrow()
        );
    }
}
