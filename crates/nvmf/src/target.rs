//! The baseline NVMe-oF target: an SPDK-style single-reactor poll loop.
//!
//! Processing is strictly FIFO and every request gets its own response
//! capsule — the two properties the paper identifies as hostile to
//! multi-tenancy: a latency-sensitive request "might find itself delayed
//! by a backlog of requests from a high-throughput application" and every
//! completion notification costs reactor time and a network packet.

use crate::costs::CpuCosts;
use crate::pdu::{Pdu, Priority};
use crate::PduRx;
use bytes::Bytes;
use fabric::{Endpoint, Network};
use nvme::{NvmeDevice, Opcode, Sqe};
use simkit::FxHashMap;
use simkit::{Kernel, Metrics, MetricsSource, Resource, Shared, SimDuration, SimTime, Tracer};
use std::collections::BTreeMap;

/// Target-side counters. `resps_tx` is the completion-notification count
/// Figure 6(c) compares between SPDK and NVMe-oPF.
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
    /// Protocol violations detected (misdirected PDUs, H2C data with no
    /// matching write). The offending PDU is dropped; the sim keeps
    /// running.
    pub protocol_errors: u64,
    /// Duplicate command capsules dropped (recovery mode): the command
    /// is already executing, so re-running it would double-complete.
    pub dup_cmds_dropped: u64,
    /// R2Ts re-granted for retransmitted writes still waiting on their
    /// payload (recovery mode).
    pub r2t_regrants: u64,
    /// Command capsules dropped because the wire initiator byte did not
    /// match the connection they arrived on (identity enforcement,
    /// DESIGN.md §14). Subset of `protocol_errors`.
    pub spoofs_dropped: u64,
}

struct Conn {
    ep: Shared<Endpoint>,
    rx: PduRx,
}

/// The baseline SPDK-style target.
pub struct SpdkTarget {
    /// Target identifier (for traces).
    pub id: u32,
    reactor: Resource,
    costs: CpuCosts,
    net: Network,
    ep: Shared<Endpoint>,
    device: Shared<NvmeDevice>,
    /// Connected initiators. BTreeMap so any future enumeration (e.g.
    /// per-tenant metrics, as in `OpfTarget`) is deterministic by
    /// construction.
    conns: BTreeMap<u8, Conn>,
    /// Kernel shard hosting each connected initiator (see
    /// [`SpdkTarget::connect_on`]). Deliveries to a tenant run on its
    /// lane so the sharded kernel keeps per-tenant event chains local.
    lane_of: BTreeMap<u8, u32>,
    /// Write commands waiting for their H2C data, keyed by
    /// (initiator, CID). Lookup-only — never iterated — so HashMap
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
    /// Emit the hardening counters in metric snapshots. Opt-in (set by
    /// [`SpdkTarget::set_hardening`]) so pre-hardening snapshots stay
    /// byte-identical.
    hardening_metrics: bool,
    /// Commands accepted and not yet responded to, keyed by
    /// (initiator, CID). Membership-only — never iterated — so HashSet
    /// order-nondeterminism cannot leak into any output.
    inflight: simkit::FxHashSet<(u8, u16)>,
    tracer: Tracer,
    /// Counters.
    pub stats: TargetStats,
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
            conns: BTreeMap::new(),
            lane_of: BTreeMap::new(),
            pending_writes: FxHashMap::default(),
            recovery: false,
            enforce_identity: true,
            hardening_metrics: false,
            inflight: simkit::FxHashSet::default(),
            tracer,
            stats: TargetStats::default(),
        }
    }

    /// Enable duplicate suppression: retransmitted command capsules for a
    /// command that is already executing are dropped (writes still
    /// waiting on their payload get their R2T re-granted instead), so an
    /// initiator retrying over a lossy fabric cannot double-execute.
    pub fn set_recovery(&mut self, on: bool) {
        self.recovery = on;
    }

    /// Configure identity enforcement (DESIGN.md §14) and switch the
    /// hardening counters on in metric snapshots. Enforcement itself
    /// defaults to on; the metric keys appear only after this is called,
    /// so pre-hardening snapshots stay byte-identical.
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
        if self.conns.contains_key(&initiator) {
            // A second connect for a live tenant is protocol-reachable,
            // not a program bug: keep the original connection, count the
            // violation, drop the new endpoint.
            self.stats.protocol_errors += 1;
            self.tracer.emit(
                SimTime::ZERO,
                "tgt.protocol_error",
                self.id,
                u64::from(initiator),
            );
            return;
        }
        self.lane_of.insert(initiator, shard);
        self.conns.insert(initiator, Conn { ep, rx });
    }

    /// Drop every initiator connection and the delivery closure it
    /// holds (teardown: each closure captures its initiator, which
    /// holds this target's receive path — an `Rc` cycle that would
    /// outlive the simulation).
    pub fn disconnect_all(&mut self) {
        self.conns.clear();
    }

    /// Reactor utilization snapshot.
    pub fn reactor_utilization(&self, now: simkit::SimTime) -> f64 {
        self.reactor.utilization(now)
    }

    /// Cost of sending one small PDU right now, including any
    /// backpressure penalty; also counts the penalty.
    fn small_send_cost(&mut self, k: &Kernel) -> SimDuration {
        let util = self.ep.borrow().uplink_utilization(k.now());
        let penalty = self.costs.small_send_penalty(util);
        if !penalty.is_zero() {
            self.stats.backpressured_sends += 1;
        }
        self.costs.send_small + penalty
    }

    /// Deliver a PDU arriving from initiator `from`.
    pub fn on_pdu(this: &Shared<SpdkTarget>, k: &mut Kernel, from: u8, pdu: Pdu) {
        match pdu {
            Pdu::CapsuleCmd {
                sqe,
                priority,
                initiator,
            } => {
                if initiator != from {
                    let enforce = {
                        let mut t = this.borrow_mut();
                        if t.enforce_identity {
                            // §14 defense: the connection's `from` is
                            // ground truth; a mismatched wire byte can
                            // only be forged or corrupted. Count + drop.
                            t.stats.protocol_errors += 1;
                            t.stats.spoofs_dropped += 1;
                            t.tracer.emit(
                                k.now(),
                                "tgt.spoof_dropped",
                                u32::from(from),
                                u64::from(initiator),
                            );
                        }
                        t.enforce_identity
                    };
                    if enforce {
                        return;
                    }
                    // Enforcement off (the unhardened baseline column):
                    // trust the wire, processing under the claimed ID.
                    Self::on_cmd(this, k, initiator, sqe, priority);
                    return;
                }
                Self::on_cmd(this, k, from, sqe, priority)
            }
            Pdu::H2CData { cccid, data } => Self::on_h2c_data(this, k, from, cccid, data),
            // Responses, R2Ts and C2H data never travel host → controller:
            // count the violation and drop the PDU rather than abort.
            _ => {
                let mut t = this.borrow_mut();
                t.stats.protocol_errors += 1;
                t.tracer.emit(k.now(), "tgt.protocol_error", t.id, 0);
            }
        }
    }

    fn on_cmd(this: &Shared<SpdkTarget>, k: &mut Kernel, from: u8, sqe: Sqe, priority: Priority) {
        let finish = {
            let mut t = this.borrow_mut();
            t.stats.cmds_rx += 1;
            t.tracer
                .emit(k.now(), "tgt.cmd_rx", u32::from(from), u64::from(sqe.cid));
            if t.recovery {
                let key = (from, sqe.cid);
                if t.inflight.contains(&key) {
                    if sqe.opcode == Opcode::Write && t.pending_writes.contains_key(&key) {
                        // Retransmitted write still waiting for its data:
                        // the R2T (or the data itself) was lost. Fall
                        // through and grant again.
                        t.stats.r2t_regrants += 1;
                    } else {
                        // The command is already executing; running the
                        // duplicate would double-complete it.
                        t.stats.dup_cmds_dropped += 1;
                        return;
                    }
                } else {
                    t.inflight.insert(key);
                }
            }
            match sqe.opcode {
                Opcode::Write => {
                    // Command phase of a write: parse, then grant an R2T.
                    let cost = t.costs.parse_cmd + t.costs.build_r2t + t.small_send_cost(k);
                    let grant = t.reactor.reserve(k.now(), cost);
                    t.pending_writes.insert((from, sqe.cid), (sqe, priority));
                    grant.finish
                }
                _ => {
                    let cost = t.costs.parse_cmd + t.costs.submit_dev;
                    t.reactor.reserve(k.now(), cost).finish
                }
            }
        };

        let this2 = this.clone();
        match sqe.opcode {
            Opcode::Write => {
                k.schedule_at(finish, move |k| {
                    let mut t = this2.borrow_mut();
                    t.stats.r2ts_tx += 1;
                    let pdu = Pdu::R2T {
                        cccid: sqe.cid,
                        r2tl: sqe.data_len() as u32,
                    };
                    t.send_to(k, from, pdu);
                });
            }
            _ => {
                k.schedule_at(finish, move |k| {
                    Self::submit_to_device(&this2, k, from, sqe, priority, None);
                });
            }
        }
    }

    fn on_h2c_data(this: &Shared<SpdkTarget>, k: &mut Kernel, from: u8, cccid: u16, data: Bytes) {
        let staged = {
            let mut t = this.borrow_mut();
            t.stats.data_rx += 1;
            match t.pending_writes.remove(&(from, cccid)) {
                Some((sqe, priority)) => {
                    let cost = t.costs.handle_data + t.costs.submit_dev;
                    Some((t.reactor.reserve(k.now(), cost).finish, sqe, priority))
                }
                // H2C data naming no pending write: count + drop, don't
                // let one misbehaving tenant abort the fabric. Under
                // recovery this is an expected duplicate (the first copy
                // of the payload consumed the pending entry).
                None => {
                    if t.recovery {
                        t.stats.dup_cmds_dropped += 1;
                    } else {
                        t.stats.protocol_errors += 1;
                        t.tracer
                            .emit(k.now(), "tgt.protocol_error", t.id, u64::from(cccid));
                    }
                    None
                }
            }
        };
        let Some((finish, sqe, priority)) = staged else {
            return;
        };
        let this2 = this.clone();
        k.schedule_at(finish, move |k| {
            Self::submit_to_device(&this2, k, from, sqe, priority, Some(data));
        });
    }

    /// Hand a command to the NVMe device; on completion run the baseline
    /// response path (data + response per request).
    pub(crate) fn submit_to_device(
        this: &Shared<SpdkTarget>,
        k: &mut Kernel,
        from: u8,
        sqe: Sqe,
        priority: Priority,
        data: Option<Bytes>,
    ) {
        let device = this.borrow().device.clone();
        {
            let t = this.borrow();
            t.tracer.emit(
                k.now(),
                "tgt.dev_submit",
                u32::from(from),
                u64::from(sqe.cid),
            );
        }
        let this2 = this.clone();
        NvmeDevice::submit(&device, k, sqe, data, move |k, result| {
            {
                let t = this2.borrow();
                t.tracer
                    .emit(k.now(), "tgt.dev_done", u32::from(from), u64::from(sqe.cid));
            }
            Self::on_device_done(&this2, k, from, sqe, priority, result);
        });
    }

    fn on_device_done(
        this: &Shared<SpdkTarget>,
        k: &mut Kernel,
        from: u8,
        sqe: Sqe,
        priority: Priority,
        result: nvme::device::IoResult,
    ) {
        let finish = {
            let mut t = this.borrow_mut();
            t.stats.completed += 1;
            let mut cost = t.costs.build_resp + t.small_send_cost(k);
            if result.data.is_some() {
                cost += t.costs.send_data;
            }
            t.reactor.reserve(k.now(), cost).finish
        };
        let this2 = this.clone();
        k.schedule_at(finish, move |k| {
            let mut t = this2.borrow_mut();
            if let Some(bytes) = result.data {
                t.stats.data_tx += 1;
                let pdu = Pdu::C2HData {
                    cccid: sqe.cid,
                    data: bytes,
                };
                t.send_to(k, from, pdu);
            }
            t.stats.resps_tx += 1;
            t.tracer
                .emit(k.now(), "tgt.resp_tx", u32::from(from), u64::from(sqe.cid));
            if t.recovery {
                // The command's lifetime at the target ends with its
                // response; any later retransmission is a fresh (and
                // idempotent) execution rather than a duplicate.
                t.inflight.remove(&(from, sqe.cid));
            }
            let pdu = Pdu::CapsuleResp {
                cqe: result.cqe,
                priority,
            };
            t.send_to(k, from, pdu);
        });
    }

    /// Transmit a PDU to initiator `from` over the fabric. The delivery
    /// event is scheduled on the recipient's kernel lane.
    pub(crate) fn send_to(&mut self, k: &mut Kernel, to: u8, pdu: Pdu) {
        let Some(conn) = self.conns.get(&to) else {
            // Normal paths only send to initiators registered via
            // `connect`, but trust-the-wire routing (enforcement off)
            // can be steered to an ID that never connected. Count and
            // drop rather than aborting the fabric.
            self.stats.protocol_errors += 1;
            self.tracer
                .emit(k.now(), "tgt.protocol_error", self.id, u64::from(to));
            return;
        };
        let rx = conn.rx.clone();
        let bytes = pdu.wire_len();
        let lane = self.lane_of.get(&to).copied().unwrap_or(0);
        k.with_shard(lane, |k| {
            self.net
                .send(k, &self.ep, &conn.ep, bytes, move |k| rx(k, pdu))
        });
    }
}

impl MetricsSource for SpdkTarget {
    fn metrics(&self, now: SimTime) -> Metrics {
        let mut m = Metrics::at(now);
        m.set("reactor_util", self.reactor_utilization(now));
        m.set("pdu.cmds_rx", self.stats.cmds_rx as f64);
        m.set("pdu.data_rx", self.stats.data_rx as f64);
        m.set("pdu.resps_tx", self.stats.resps_tx as f64);
        m.set("pdu.r2ts_tx", self.stats.r2ts_tx as f64);
        m.set("pdu.data_tx", self.stats.data_tx as f64);
        m.set("completed", self.stats.completed as f64);
        m.set("backpressured_sends", self.stats.backpressured_sends as f64);
        // Baseline sends one response per completion: coalesce ratio 1.
        let ratio = if self.stats.resps_tx > 0 {
            self.stats.completed as f64 / self.stats.resps_tx as f64
        } else {
            0.0
        };
        m.set("coalesce_ratio", ratio);
        m.set("protocol_errors", self.stats.protocol_errors as f64);
        // Recovery counters only exist in recovery mode, so fault-free
        // snapshots stay byte-identical to historical output.
        if self.recovery {
            m.set("dup_cmds_dropped", self.stats.dup_cmds_dropped as f64);
            m.set("r2t_regrants", self.stats.r2t_regrants as f64);
        }
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
        assert_eq!(t.conns.len(), 1);
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
