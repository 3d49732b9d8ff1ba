//! The one transport-level NVMe-oF target: connection registry,
//! reactor, the identity and CID checks on wire-supplied fields, the
//! write R2T grant, duplicate suppression, wire sends and the
//! per-request "C2HData then CapsuleResp" emission.
//!
//! What differs between the baseline and NVMe-oPF is a [`TargetPolicy`]:
//! a [`Dialect`] of constants, under which class a command is admitted,
//! what runs once it is parsed, and where H2C data naming no pending
//! write belongs. [`SpdkTarget`] under its own pass-through policy *is*
//! the baseline — a single-reactor poll loop, strictly FIFO, one
//! response capsule per request: the two properties the paper
//! identifies as hostile to multi-tenancy.
//! `opf::OpfTarget` embeds one and adds the Priority Manager. The
//! transport functions are generic over the owner, so dispatch is static.

use crate::costs::CpuCosts;
use crate::error::{ProtocolError, ProtocolSide};
use crate::pdu::{Pdu, Priority};
use crate::PduRx;
use bytes::Bytes;
use fabric::{Endpoint, Network};
use nvme::device::IoResult;
use nvme::{Cqe, NvmeDevice, Opcode, Sqe};
use simkit::FxHashMap;
use simkit::{
    slot, Kernel, Metrics, MetricsSource, Resource, Shared, SimDuration, SimTime, Tracer,
};

/// Transport-level counters. `resps_tx` is the completion-notification
/// count Figure 6(c) compares between SPDK and NVMe-oPF (there roughly
/// `drains_rx + ls_rx` instead of one per command).
#[derive(Clone, Debug, Default)]
pub struct TargetStats {
    /// Command capsules received.
    pub cmds_rx: u64,
    /// H2C data PDUs received.
    pub data_rx: u64,
    /// Response capsules sent (completion notifications).
    pub resps_tx: u64,
    /// R2T PDUs sent.
    pub r2ts_tx: u64,
    /// C2H data PDUs sent.
    pub data_tx: u64,
    /// Commands completed by the device.
    pub completed: u64,
    /// Small sends that paid the backpressure penalty.
    pub backpressured_sends: u64,
    /// Protocol violations detected (malformed or misdirected PDUs, H2C
    /// data with no matching write). The offending PDU is dropped; the
    /// sim keeps running.
    pub protocol_errors: u64,
    /// Duplicate command capsules dropped (recovery mode): the command
    /// is still live at the target, so re-running it would
    /// double-complete.
    pub dup_cmds_dropped: u64,
    /// R2Ts re-granted for retransmitted writes (recovery mode).
    pub r2t_regrants: u64,
    /// Command capsules dropped because the wire initiator byte did not
    /// match the connection they arrived on (identity enforcement,
    /// DESIGN.md §14). Subset of `protocol_errors`.
    pub spoofs_dropped: u64,
}

struct Conn {
    ep: Shared<Endpoint>,
    rx: PduRx,
    /// Kernel shard hosting the initiator. Deliveries to a tenant run on
    /// its lane so the sharded kernel keeps per-tenant event chains local.
    lane: u32,
}

/// Everything the two targets do differently that is data rather than
/// code (tabulated in DESIGN.md §3).
pub struct Dialect {
    /// Trace kind of a command capsule's arrival.
    pub cmd_rx: &'static str,
    /// Trace kind of a device submission.
    pub dev_submit: &'static str,
    /// Trace kind of a device completion.
    pub dev_done: &'static str,
    /// Trace kind of a per-request response.
    pub resp_tx: &'static str,
    /// `resp_tx` is attributed to the target id, not to the tenant.
    pub resp_by_target: bool,
    /// Largest CID a command capsule may carry; a larger one is dropped
    /// before anything is keyed by it.
    pub max_cid: u16,
    /// Multi-reactor: device submission is pinned to this lane and each
    /// completion handed back to its tenant's lane. `None`: every event
    /// stays on the lane that delivered the command.
    pub device_lane: Option<u32>,
    /// The duplicate set forgets a command at device completion (a later
    /// retransmission re-executes, regenerating a lost response) rather
    /// than when its response is sent.
    pub forget_at_completion: bool,
    /// `submit_dev` is charged with the parse (a parsed command goes
    /// straight to the device), not by the policy at release.
    pub submit_with_parse: bool,
    /// A TC write enters the policy at R2T grant, so a drain covers it;
    /// its payload follows through [`TargetPolicy::on_data`]. Every
    /// other write waits in the transport for its H2C data.
    pub tc_writes_early: bool,
}

/// The priority-policy hook over the transport: everything the baseline
/// and NVMe-oPF targets do differently with a command. `Self` is the
/// owner the kernel events hold; it projects to the transport it owns.
pub trait TargetPolicy: Sized + 'static {
    /// The differences that are constants.
    const DIALECT: Dialect;

    /// The transport this policy drives.
    fn transport(&mut self) -> &mut SpdkTarget;

    /// A command capsule arrived from `from` (identity and CID already
    /// checked): settle the class it runs under — the wire bits, unless
    /// demoted — or `None` to drop it as a duplicate.
    fn admit(&mut self, now: SimTime, from: u8, sqe: &Sqe, priority: Priority) -> Option<Priority>;

    /// The reactor has parsed `sqe` — and, unless it is an early TC
    /// write, holds a write's payload: execute it.
    fn run(
        this: &Shared<Self>,
        k: &mut Kernel,
        from: u8,
        sqe: Sqe,
        priority: Priority,
        data: Option<Bytes>,
    );

    /// H2C data naming no write held by the transport.
    fn on_data(this: &Shared<Self>, k: &mut Kernel, from: u8, cccid: u16, data: Bytes);
}

/// The transport-level target; with its own pass-through
/// [`TargetPolicy`], the baseline SPDK-style target.
pub struct SpdkTarget {
    /// Target identifier (for traces).
    pub id: u32,
    reactor: Resource,
    costs: CpuCosts,
    net: Network,
    ep: Shared<Endpoint>,
    device: Shared<NvmeDevice>,
    /// Connected initiators, indexed by initiator ID: metrics enumerate
    /// tenants in ascending ID order.
    conns: Vec<Option<Conn>>,
    /// Write commands waiting for their H2C data, keyed by
    /// (initiator, CID): hashed, not indexed, as a baseline wire CID
    /// reaches 65 535. Lookup-only — never iterated — so HashMap
    /// order-nondeterminism cannot leak into any output.
    pending_writes: FxHashMap<(u8, u16), (Sqe, Priority)>,
    /// Duplicate-suppression mode for lossy fabrics (see
    /// [`SpdkTarget::set_recovery`]).
    recovery: bool,
    /// Enforce that a capsule's wire initiator byte matches the
    /// connection it arrived on (DESIGN.md §14). On by default; the
    /// adversary experiment's baseline column switches it off via
    /// [`SpdkTarget::set_hardening`] to reproduce the wire-trusting
    /// target.
    enforce_identity: bool,
    /// Emit the hardening counters in the baseline's metric snapshots.
    /// Opt-in (set by [`SpdkTarget::set_hardening`]) so pre-hardening
    /// snapshots stay byte-identical.
    hardening_metrics: bool,
    /// Commands admitted and still live: one CID bitset per initiator
    /// ID, grown on demand (a forged CID of 65 535 costs 8 KiB).
    inflight: Vec<Vec<u64>>,
    tracer: Tracer,
    /// Counters.
    pub stats: TargetStats,
    last_protocol_error: Option<ProtocolError>,
}

impl SpdkTarget {
    /// Create a target attached to `ep`, exposing `device`.
    pub fn new(
        id: u32,
        net: Network,
        ep: Shared<Endpoint>,
        device: Shared<NvmeDevice>,
        costs: CpuCosts,
        tracer: Tracer,
    ) -> Self {
        SpdkTarget {
            id,
            reactor: Resource::new("reactor"),
            costs,
            net,
            ep,
            device,
            conns: Vec::new(),
            pending_writes: FxHashMap::default(),
            recovery: false,
            enforce_identity: true,
            hardening_metrics: false,
            inflight: Vec::new(),
            tracer,
            stats: TargetStats::default(),
            last_protocol_error: None,
        }
    }

    /// Enable duplicate suppression: retransmitted command capsules for a
    /// command that is still live are dropped (writes get their R2T
    /// re-granted), so an initiator retrying over a lossy fabric cannot
    /// double-execute.
    pub fn set_recovery(&mut self, on: bool) {
        self.recovery = on;
    }

    /// Configure identity enforcement (DESIGN.md §14) and switch the
    /// hardening counters on in the baseline's metric snapshots.
    /// Enforcement itself defaults to on; the metric keys appear only
    /// after this is called, so pre-hardening snapshots stay
    /// byte-identical.
    pub fn set_hardening(&mut self, enforce: bool) {
        self.enforce_identity = enforce;
        self.hardening_metrics = true;
    }

    /// Register an initiator connection: its fabric endpoint and the
    /// closure that delivers PDUs to it. Hosted on kernel shard 0.
    pub fn connect(&mut self, initiator: u8, ep: Shared<Endpoint>, rx: PduRx) {
        self.connect_on(initiator, ep, rx, 0);
    }

    /// Register an initiator connection hosted on kernel shard `shard`:
    /// PDU deliveries back to the initiator are scheduled on its lane,
    /// keeping each tenant's event chain on its own shard even though
    /// the baseline target itself is a single reactor.
    pub fn connect_on(&mut self, initiator: u8, ep: Shared<Endpoint>, rx: PduRx, shard: u32) {
        if !self.register(initiator, ep, rx, shard) {
            self.note_unknown(SimTime::ZERO, initiator);
        }
    }

    /// Add `initiator` to the connection registry. A second connect for
    /// a live tenant is protocol-reachable (a confused or malicious
    /// host), not a program bug: the original connection is kept and
    /// `false` returned for the caller to record.
    pub fn register(&mut self, initiator: u8, ep: Shared<Endpoint>, rx: PduRx, lane: u32) -> bool {
        let conn = slot(&mut self.conns, initiator.into(), || None);
        if conn.is_some() {
            return false;
        }
        *conn = Some(Conn { ep, rx, lane });
        true
    }

    fn conn(&self, initiator: u8) -> Option<&Conn> {
        self.conns.get(usize::from(initiator))?.as_ref()
    }

    /// Remove `initiator` from the registry (live migration); returns
    /// the lane that hosted it, `None` if it was not connected.
    pub fn unregister(&mut self, initiator: u8) -> Option<u32> {
        Some(self.conns.get_mut(usize::from(initiator))?.take()?.lane)
    }

    /// Drop every initiator connection and the delivery closure it
    /// holds (teardown: each closure captures its initiator, which
    /// holds this target's receive path — an `Rc` cycle that would
    /// outlive the simulation).
    pub fn disconnect_all(&mut self) {
        self.conns.clear();
    }

    /// Connected tenant ids, in ascending order.
    pub fn tenant_ids(&self) -> impl Iterator<Item = u8> + '_ {
        (0..=u8::MAX)
            .zip(&self.conns)
            .filter_map(|(id, c)| c.as_ref().map(|_| id))
    }

    /// Lane (kernel shard) hosting `initiator`. Unknown initiators —
    /// possible only on protocol-error paths — map to lane 0.
    pub fn reactor_of(&self, initiator: u8) -> u32 {
        self.conn(initiator).map_or(0, |c| c.lane)
    }

    /// Reactor utilization snapshot.
    pub fn reactor_utilization(&self, now: simkit::SimTime) -> f64 {
        self.reactor.utilization(now)
    }

    /// The CPU cost model.
    pub fn costs(&self) -> &CpuCosts {
        &self.costs
    }

    /// Occupy the reactor for `cost`; returns when the work ends.
    pub fn reserve(&mut self, now: SimTime, cost: SimDuration) -> SimTime {
        self.reactor.reserve(now, cost).finish
    }

    /// Emit a trace point.
    pub fn trace(&self, now: SimTime, kind: &'static str, who: u32, detail: u64) {
        self.tracer.emit(now, kind, who, detail);
    }

    /// This target as the side that detects a violation.
    pub fn side(&self) -> ProtocolSide {
        ProtocolSide::Target(self.id)
    }

    /// Record a protocol violation: count it, keep it for diagnostics
    /// and trace it; the caller drops the offending PDU.
    pub fn note(&mut self, now: SimTime, err: ProtocolError) {
        self.stats.protocol_errors += 1;
        self.trace(now, "tgt.protocol_error", self.id, 0);
        self.last_protocol_error = Some(err);
    }

    /// Record an initiator ID that names no connection: a second connect
    /// for a live tenant, or a send to an ID with no connection (forged,
    /// with enforcement off, or migrated away).
    pub fn note_unknown(&mut self, now: SimTime, initiator: u8) {
        let side = self.side();
        self.note(now, ProtocolError::UnknownInitiator { side, initiator });
    }

    /// Most recent protocol violation, if any.
    pub fn last_protocol_error(&self) -> Option<&ProtocolError> {
        self.last_protocol_error.as_ref()
    }

    /// Emit a trace point about tenant `from`'s command `cid`.
    fn trace_cmd(&self, now: SimTime, kind: &'static str, from: u8, cid: u16) {
        self.trace(now, kind, u32::from(from), u64::from(cid));
    }

    /// Cost of sending one small PDU right now, including any
    /// backpressure penalty; also counts the penalty.
    pub fn small_send_cost(&mut self, k: &Kernel) -> SimDuration {
        let util = self.ep.borrow().uplink_utilization(k.now());
        let penalty = self.costs.small_send_penalty(util);
        if !penalty.is_zero() {
            self.stats.backpressured_sends += 1;
        }
        self.costs.send_small + penalty
    }

    /// Enter (`from`, `cid`) into the duplicate set. False when recovery
    /// is on and the command is already live: a retransmission.
    pub fn first_sighting(&mut self, from: u8, cid: u16) -> bool {
        if !self.recovery {
            return true;
        }
        let set = slot(&mut self.inflight, from.into(), Vec::new);
        let word = slot(set, usize::from(cid >> 6), || 0);
        let fresh = *word & (1 << (cid & 63)) == 0;
        *word |= 1 << (cid & 63);
        fresh
    }

    /// True when (`from`, `cid`) is in the duplicate set.
    pub fn is_live(&self, from: u8, cid: u16) -> bool {
        let word = self
            .inflight
            .get(usize::from(from))
            .and_then(|s| s.get(usize::from(cid >> 6)));
        word.is_some_and(|w| w & (1 << (cid & 63)) != 0)
    }

    /// End a command's life in the duplicate set: any later
    /// retransmission is a fresh (and idempotent) execution.
    pub fn forget(&mut self, from: u8, cid: u16) {
        let set = self.inflight.get_mut(usize::from(from));
        if let Some(word) = set.and_then(|s| s.get_mut(usize::from(cid >> 6))) {
            *word &= !(1 << (cid & 63));
        }
    }

    /// Deliver a PDU arriving from initiator `from`.
    pub fn on_pdu<O: TargetPolicy>(this: &Shared<O>, k: &mut Kernel, from: u8, pdu: Pdu) {
        match pdu {
            Pdu::CapsuleCmd {
                sqe,
                priority,
                initiator,
            } => {
                if initiator != from {
                    let mut o = this.borrow_mut();
                    let t = o.transport();
                    if t.enforce_identity {
                        // §14 defense: the wire byte is untrusted. The
                        // connection's `from` is ground truth, so a
                        // mismatched capsule can only be forged or
                        // corrupted — count and drop it before it
                        // reaches a victim's queue.
                        t.stats.spoofs_dropped += 1;
                        let err = ProtocolError::IdentityMismatch {
                            side: t.side(),
                            claimed: initiator,
                            expected: from,
                        };
                        t.note(k.now(), err);
                        return;
                    }
                    // Enforcement off (the unhardened baseline column):
                    // trust the wire, processing under the claimed ID.
                }
                Self::on_cmd(this, k, initiator, sqe, priority)
            }
            Pdu::H2CData { cccid, data } => Self::on_h2c_data(this, k, from, cccid, data),
            // Responses, R2Ts and C2H data never travel host → controller:
            // record the violation and drop the PDU rather than abort.
            other => {
                let mut o = this.borrow_mut();
                let t = o.transport();
                let (side, kind) = (t.side(), other.kind());
                t.note(k.now(), ProtocolError::UnexpectedPdu { side, kind });
            }
        }
    }

    fn on_cmd<O: TargetPolicy>(
        this: &Shared<O>,
        k: &mut Kernel,
        from: u8,
        sqe: Sqe,
        priority: Priority,
    ) {
        let d = O::DIALECT;
        let write = sqe.opcode == Opcode::Write;
        let (finish, priority, early) = {
            let mut o = this.borrow_mut();
            if sqe.cid > d.max_cid {
                // No honest queue pair allocates this CID: corrupted in
                // flight or forged. Dropped before anything is keyed by
                // it; the sender's retransmission recovers.
                let t = o.transport();
                let (target, cid) = (t.id, sqe.cid);
                t.note(k.now(), ProtocolError::CidOutOfRange { target, cid });
                return;
            }
            let verdict = o.admit(k.now(), from, &sqe, priority);
            let t = o.transport();
            t.stats.cmds_rx += 1;
            t.trace_cmd(k.now(), d.cmd_rx, from, sqe.cid);
            let Some(priority) = verdict else { return };
            let early = d.tc_writes_early && priority.is_tc();
            let mut cost = t.costs.parse_cmd;
            if write {
                // Command phase of a write: parse, then grant an R2T.
                cost += t.costs.build_r2t + t.small_send_cost(k);
                if !early {
                    t.pending_writes.insert((from, sqe.cid), (sqe, priority));
                }
            } else if d.submit_with_parse {
                cost += t.costs.submit_dev;
            }
            (t.reserve(k.now(), cost), priority, early)
        };
        let this2 = this.clone();
        k.schedule_at(finish, move |k| {
            if write {
                let mut o = this2.borrow_mut();
                let t = o.transport();
                t.stats.r2ts_tx += 1;
                let pdu = Pdu::R2T {
                    cccid: sqe.cid,
                    r2tl: sqe.data_len() as u32,
                };
                t.send_to(k, from, pdu);
                if !early {
                    return;
                }
            }
            O::run(&this2, k, from, sqe, priority, None);
        });
    }

    fn on_h2c_data<O: TargetPolicy>(
        this: &Shared<O>,
        k: &mut Kernel,
        from: u8,
        cccid: u16,
        data: Bytes,
    ) {
        let pending = {
            let mut o = this.borrow_mut();
            let t = o.transport();
            t.stats.data_rx += 1;
            t.pending_writes.remove(&(from, cccid)).map(|w| {
                let mut cost = t.costs.handle_data;
                if O::DIALECT.submit_with_parse {
                    cost += t.costs.submit_dev;
                }
                (t.reserve(k.now(), cost), w)
            })
        };
        let Some((finish, (sqe, priority))) = pending else {
            return O::on_data(this, k, from, cccid, data);
        };
        let this2 = this.clone();
        k.schedule_at(finish, move |k| {
            O::run(&this2, k, from, sqe, priority, Some(data));
        });
    }

    /// Record H2C data that names no write: under recovery the expected
    /// echo of a retransmission (the first copy of the payload consumed
    /// the entry), otherwise a violation — counted and dropped, so one
    /// misbehaving tenant cannot abort the fabric.
    pub fn stray_data(&mut self, now: SimTime, cccid: u16) {
        if self.recovery {
            self.stats.dup_cmds_dropped += 1;
        } else {
            let side = self.side();
            self.note(now, ProtocolError::UnknownCid { side, cid: cccid });
        }
    }

    /// Hand a command to the NVMe device, bracketed by the `dev_submit`
    /// and `dev_done` trace points; `done` runs at device completion.
    /// The completion closure captures as little as it can (no copy of
    /// the [`Dialect`]): past 14 words the kernel would box every event.
    pub fn submit_dev<O: TargetPolicy>(
        this: &Shared<O>,
        k: &mut Kernel,
        from: u8,
        sqe: Sqe,
        data: Option<Bytes>,
        done: impl FnOnce(&Shared<O>, &mut Kernel, IoResult) + 'static,
    ) {
        let cid = sqe.cid;
        let device = {
            let mut o = this.borrow_mut();
            let t = o.transport();
            t.trace_cmd(k.now(), O::DIALECT.dev_submit, from, cid);
            t.device.clone()
        };
        let this2 = this.clone();
        let lane = O::DIALECT.device_lane.unwrap_or(k.current_shard());
        k.with_shard(lane, |k| {
            NvmeDevice::submit(&device, k, sqe, data, move |k, result| {
                let kind = O::DIALECT.dev_done;
                this2
                    .borrow_mut()
                    .transport()
                    .trace_cmd(k.now(), kind, from, cid);
                done(&this2, k, result);
            })
        });
    }

    /// A command answered per request finished at the device: send its
    /// data (reads), then its response capsule.
    pub fn respond<O: TargetPolicy>(
        this: &Shared<O>,
        k: &mut Kernel,
        from: u8,
        sqe: Sqe,
        priority: Priority,
        result: IoResult,
    ) {
        let (finish, lane) = {
            let mut o = this.borrow_mut();
            let t = o.transport();
            t.stats.completed += 1;
            if O::DIALECT.forget_at_completion {
                t.forget(from, sqe.cid);
            }
            let mut cost = t.costs.build_resp + t.small_send_cost(k);
            if result.data.is_some() {
                cost += t.costs.send_data;
            }
            let lane = match O::DIALECT.device_lane {
                Some(_) => t.reactor_of(from),
                None => k.current_shard(),
            };
            (t.reserve(k.now(), cost), lane)
        };
        let this2 = this.clone();
        k.with_shard(lane, |k| {
            k.schedule_at(finish, move |k| {
                let mut o = this2.borrow_mut();
                let t = o.transport();
                if let Some(bytes) = result.data {
                    t.send_data(k, from, sqe.cid, bytes);
                }
                let who = if O::DIALECT.resp_by_target {
                    t.id
                } else {
                    u32::from(from)
                };
                t.trace(k.now(), O::DIALECT.resp_tx, who, u64::from(sqe.cid));
                if !O::DIALECT.forget_at_completion {
                    t.forget(from, sqe.cid);
                }
                t.send_resp(k, from, result.cqe, priority);
            })
        });
    }

    /// Send read data for `cid` to initiator `to` (counted).
    pub fn send_data(&mut self, k: &mut Kernel, to: u8, cid: u16, data: Bytes) {
        self.stats.data_tx += 1;
        self.send_to(k, to, Pdu::C2HData { cccid: cid, data });
    }

    /// Send a response capsule to initiator `to` (counted: one
    /// completion notification).
    pub fn send_resp(&mut self, k: &mut Kernel, to: u8, cqe: Cqe, priority: Priority) {
        self.stats.resps_tx += 1;
        self.send_to(k, to, Pdu::CapsuleResp { cqe, priority });
    }

    /// Transmit a PDU to initiator `to` over the fabric. The delivery
    /// event is scheduled on the recipient's kernel lane.
    fn send_to(&mut self, k: &mut Kernel, to: u8, pdu: Pdu) {
        let Some(conn) = self.conn(to) else {
            // Normal paths only send to initiators registered via
            // `connect`, but trust-the-wire routing (enforcement off)
            // can be steered to an ID that never connected, and a
            // migrated-away tenant's late completions land here too.
            // Count and drop rather than aborting the fabric.
            self.note_unknown(k.now(), to);
            return;
        };
        let rx = conn.rx.clone();
        let bytes = pdu.wire_len();
        k.with_shard(conn.lane, |k| {
            self.net
                .send(k, &self.ep, &conn.ep, bytes, move |k| rx(k, pdu))
        });
    }

    /// The metric keys both runtimes' targets report. Recovery counters
    /// only exist in recovery mode, so fault-free snapshots stay
    /// byte-identical to historical output.
    pub fn transport_metrics(&self, now: SimTime) -> Metrics {
        let mut m = Metrics::at(now);
        m.set("reactor_util", self.reactor_utilization(now));
        m.set("pdu.cmds_rx", self.stats.cmds_rx as f64);
        m.set("pdu.data_rx", self.stats.data_rx as f64);
        m.set("pdu.resps_tx", self.stats.resps_tx as f64);
        m.set("pdu.r2ts_tx", self.stats.r2ts_tx as f64);
        m.set("pdu.data_tx", self.stats.data_tx as f64);
        m.set("completed", self.stats.completed as f64);
        m.set("backpressured_sends", self.stats.backpressured_sends as f64);
        // Commands retired per completion notification — the Figure 6(c)
        // saving: the baseline is 1.0, NVMe-oPF approaches the window.
        let ratio = if self.stats.resps_tx > 0 {
            self.stats.completed as f64 / self.stats.resps_tx as f64
        } else {
            0.0
        };
        m.set("coalesce_ratio", ratio);
        m.set("protocol_errors", self.stats.protocol_errors as f64);
        if self.recovery {
            m.set("dup_cmds_dropped", self.stats.dup_cmds_dropped as f64);
            m.set("r2t_regrants", self.stats.r2t_regrants as f64);
        }
        m
    }
}

/// The pass-through policy: every command goes straight to the device
/// and gets its own response capsule.
impl TargetPolicy for SpdkTarget {
    const DIALECT: Dialect = Dialect {
        cmd_rx: "tgt.cmd_rx",
        dev_submit: "tgt.dev_submit",
        dev_done: "tgt.dev_done",
        resp_tx: "tgt.resp_tx",
        resp_by_target: false,
        max_cid: u16::MAX,
        device_lane: None,
        forget_at_completion: false,
        submit_with_parse: true,
        tc_writes_early: false,
    };

    fn transport(&mut self) -> &mut SpdkTarget {
        self
    }

    fn admit(&mut self, _: SimTime, from: u8, sqe: &Sqe, priority: Priority) -> Option<Priority> {
        if !self.first_sighting(from, sqe.cid) {
            if sqe.opcode == Opcode::Write && self.pending_writes.contains_key(&(from, sqe.cid)) {
                // Retransmitted write still waiting for its data: the
                // R2T (or the data itself) was lost. Grant again.
                self.stats.r2t_regrants += 1;
            } else {
                // The command is already executing; running the
                // duplicate would double-complete it.
                self.stats.dup_cmds_dropped += 1;
                return None;
            }
        }
        Some(priority)
    }

    fn run(
        this: &Shared<Self>,
        k: &mut Kernel,
        from: u8,
        sqe: Sqe,
        priority: Priority,
        data: Option<Bytes>,
    ) {
        Self::submit_dev(this, k, from, sqe, data, move |this, k, result| {
            Self::respond(this, k, from, sqe, priority, result)
        });
    }

    fn on_data(this: &Shared<Self>, k: &mut Kernel, _from: u8, cccid: u16, _data: Bytes) {
        this.borrow_mut().stray_data(k.now(), cccid);
    }
}

impl MetricsSource for SpdkTarget {
    fn metrics(&self, now: SimTime) -> Metrics {
        let mut m = self.transport_metrics(now);
        // Hardening counters are opt-in via `set_hardening`, so
        // pre-hardening snapshots stay byte-identical.
        if self.hardening_metrics {
            m.set("spoofs_dropped", self.stats.spoofs_dropped as f64);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::{FabricConfig, Gbps};
    use nvme::{FlashProfile, NvmeDevice};
    use simkit::shared;
    use std::rc::Rc;

    fn rig() -> (Kernel, Network, Shared<SpdkTarget>) {
        let k = Kernel::new(7);
        let net = Network::new(FabricConfig::preset(Gbps::G100));
        let tep = net.add_endpoint("tgt");
        let device = shared(NvmeDevice::new(FlashProfile::cl_ssd(), 1 << 20, 5));
        device.borrow_mut().set_store_data(false);
        let target = shared(SpdkTarget::new(
            0,
            net.clone(),
            tep,
            device,
            CpuCosts::cl(),
            Tracer::disabled(),
        ));
        let iep = net.add_endpoint("ini0");
        let rx: PduRx = Rc::new(|_, _| {});
        target.borrow_mut().connect(0, iep, rx);
        (k, net, target)
    }

    #[test]
    fn double_connect_is_counted_not_fatal() {
        let (_k, net, target) = rig();
        let dup_ep = net.add_endpoint("dup");
        let rx: PduRx = Rc::new(|_, _| {});
        target.borrow_mut().connect(0, dup_ep, rx);
        let t = target.borrow();
        assert_eq!(t.stats.protocol_errors, 1);
        // The original registration is intact.
        assert_eq!(t.tenant_ids().count(), 1);
    }

    #[test]
    fn tenant_ids_stay_ascending_across_out_of_order_connects() {
        let (_k, net, target) = rig();
        let mut t = target.borrow_mut();
        for id in [9u8, 254, 3, 200] {
            let rx: PduRx = Rc::new(|_, _| {});
            assert!(t.register(id, net.add_endpoint(format!("ini{id}")), rx, 0));
        }
        assert_eq!(t.tenant_ids().collect::<Vec<_>>(), [0, 3, 9, 200, 254]);
        assert_eq!(t.unregister(3), Some(0));
        assert_eq!(t.unregister(3), None);
        assert_eq!(t.unregister(77), None);
        assert_eq!(t.tenant_ids().collect::<Vec<_>>(), [0, 9, 200, 254]);
        let rx: PduRx = Rc::new(|_, _| {});
        assert!(t.register(3, net.add_endpoint("again"), rx, 0));
        assert_eq!(t.tenant_ids().collect::<Vec<_>>(), [0, 3, 9, 200, 254]);
        t.disconnect_all();
        assert_eq!(t.tenant_ids().count(), 0);
    }

    /// A wire CID is untrusted: the largest one round-trips through the
    /// duplicate set without a panic, and its bitset stays at 8 KiB.
    #[test]
    fn forged_max_cid_round_trips_through_the_duplicate_set() {
        let (_k, _net, target) = rig();
        let mut t = target.borrow_mut();
        t.set_recovery(true);
        for (from, cid) in [(7u8, u16::MAX), (255, u16::MAX), (0, 0), (0, 64)] {
            assert!(!t.is_live(from, cid));
            assert!(t.first_sighting(from, cid));
            assert!(t.is_live(from, cid));
            assert!(!t.first_sighting(from, cid), "a retransmission");
            t.forget(from, cid);
            assert!(!t.is_live(from, cid));
            assert!(t.first_sighting(from, cid), "fresh after forget");
        }
        assert!(t.is_live(0, 64) && !t.is_live(0, 65) && !t.is_live(1, 64));
        assert_eq!(t.inflight[7].len() * 8, 8 << 10);
        t.forget(42, u16::MAX);
        assert!(!t.is_live(42, u16::MAX));
    }

    #[test]
    fn spoofed_initiator_byte_is_dropped_when_enforcing() {
        let (mut k, _net, target) = rig();
        SpdkTarget::on_pdu(
            &target,
            &mut k,
            0,
            Pdu::CapsuleCmd {
                sqe: Sqe::read(3, 1, 0, 1),
                priority: Priority::None,
                initiator: 1,
            },
        );
        k.run_to_completion();
        let t = target.borrow();
        assert_eq!(t.stats.spoofs_dropped, 1);
        assert_eq!(t.stats.protocol_errors, 1);
        assert_eq!(
            t.last_protocol_error(),
            Some(&ProtocolError::IdentityMismatch {
                side: ProtocolSide::Target(0),
                claimed: 1,
                expected: 0,
            })
        );
        assert_eq!(t.stats.cmds_rx, 0);
        assert_eq!(t.stats.completed, 0);
    }

    #[test]
    fn enforcement_off_routes_by_forged_id_without_panicking() {
        let (mut k, _net, target) = rig();
        target.borrow_mut().set_hardening(false);
        // A capsule claiming initiator 7 (never connected) executes and
        // routes its response by the forged ID: counted drop, no panic.
        SpdkTarget::on_pdu(
            &target,
            &mut k,
            0,
            Pdu::CapsuleCmd {
                sqe: Sqe::read(4, 1, 0, 1),
                priority: Priority::None,
                initiator: 7,
            },
        );
        k.run_to_completion();
        let t = target.borrow();
        assert_eq!(t.stats.spoofs_dropped, 0);
        assert_eq!(t.stats.cmds_rx, 1);
        assert_eq!(t.stats.completed, 1);
        assert!(t.stats.protocol_errors >= 1);
    }
}
