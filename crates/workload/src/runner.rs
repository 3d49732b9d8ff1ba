//! Scenario runner: one staged pipeline builds every simulated stack
//! (DESIGN.md §16) — *environment* → *targets* → *tenants* → *cluster
//! extras* → *drive* → *collect* — and drives closed- or open-loop
//! generators against it. A single target is a cluster of one:
//! [`run`] simulates `pairs` independent groups of `targets` targets
//! each, one kernel per group, in parallel, and merges them in group
//! order; [`build_pair`] is the target and tenant stages on their own.

use crate::hist::Histogram;
use crate::pool::map;
use crate::scenario::{Pattern, RuntimeKind, Scenario, Speed, Transport};
use crate::traffic::{Arrival, ArrivalModel, TenantTraffic};
use bytes::Bytes;
use fabric::{Endpoint, FabricConfig, Gbps, Network};
use nvme::{FlashProfile, NvmeDevice, Opcode, BLOCK_SIZE};
use nvmf::initiator::TargetRx;
use nvmf::qpair::IoCallback;
use nvmf::{CpuCosts, IoOutcome, PduRx, RetryPolicy, SpdkInitiator, SpdkTarget};
use opf::{OpfInitiator, OpfInitiatorConfig, OpfTarget, OpfTargetConfig, QueueMode, ReqClass};
use simkit::{shared, Kernel, Metrics, MetricsSource, Pcg32, Shared, SimDuration, SimTime, Tracer};
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// Aggregated results of one scenario run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunResult {
    /// Aggregate throughput of all TC initiators (4K IOPS) in the
    /// measure window — what Figure 7's throughput bars show.
    pub tc_iops: f64,
    /// Same in MB/s (4 KiB per I/O).
    pub tc_mb_s: f64,
    /// Mean TC latency (µs).
    pub tc_avg_us: f64,
    /// 99.99th-percentile TC latency (µs).
    pub tc_p9999_us: f64,
    /// Aggregate LS throughput (IOPS).
    pub ls_iops: f64,
    /// Mean LS latency (µs).
    pub ls_avg_us: f64,
    /// 99.99th-percentile LS latency (µs) — Figure 7(d–f)'s metric.
    pub ls_p9999_us: f64,
    /// Completion notifications sent by all targets in the window —
    /// Figure 6(c)'s metric.
    pub notifications: u64,
    /// Commands completed in the window (all classes).
    pub completed: u64,
    /// Mean target reactor utilization over the run.
    pub reactor_util: f64,
    /// Simulation events executed (cost accounting), summed over the
    /// groups' kernels; each group runs its own warm-window marker.
    pub events: u64,
    /// Events scheduled across kernel shard lanes (0 with one shard).
    /// Bookkeeping, not a metric: proves the sharded routing actually
    /// engaged while results stay shard-invariant.
    pub cross_shard_events: u64,
    /// Device submissions for tenants hosted off the target's
    /// device-owner reactor (NVMe-oPF targets only; 0 with one shard).
    pub cross_reactor_submits: u64,
    /// Cross-lane schedules that detoured through the kernel's
    /// mailbox mesh (`parallel: true` runs only; 0 otherwise).
    /// Bookkeeping, not a metric: proves the mesh engaged while results
    /// stay byte-identical to the direct path.
    pub parallel_routed: u64,
    /// Smallest cross-lane scheduling slack observed by the mesh, in
    /// nanoseconds — the minimum distance between a cross-lane send
    /// and its delivery time (DESIGN.md §17). `None` when nothing was
    /// mesh-routed.
    pub parallel_min_slack_ns: Option<u64>,
    /// Unified whole-cluster snapshot: the scalar fields above plus every
    /// component's [`MetricsSource`] counters, prefixed by component
    /// (`pair0.tgt.*`, `pair0.dev.*`, `ini3.*`, …).
    pub metrics: Metrics,
}

/// Evaluate the same expression on whichever stack an `Any*` holds.
macro_rules! either {
    ($any:expr, $Any:ident, $x:ident => $body:expr) => {
        match $any {
            $Any::Spdk($x) => $body,
            $Any::Opf($x) => $body,
        }
    };
}

#[derive(Clone)]
enum AnyInitiator {
    Spdk(Shared<SpdkInitiator>),
    Opf(Shared<OpfInitiator>),
}

/// A tenant's initiator handle: runtime-agnostic submit, for the
/// runner's own generators and for [`Pair`] callers alike.
#[derive(Clone)]
pub struct TenantHandle(AnyInitiator);

impl TenantHandle {
    /// Submit one I/O. Returns false when the qpair is at depth.
    #[allow(clippy::too_many_arguments)]
    pub fn submit(
        &self,
        k: &mut Kernel,
        class: ReqClass,
        opcode: Opcode,
        slba: u64,
        blocks: u16,
        payload: Option<Bytes>,
        cb: IoCallback,
    ) -> bool {
        let cid = match &self.0 {
            AnyInitiator::Spdk(i) => {
                let priority = match class {
                    ReqClass::LatencySensitive => nvmf::Priority::LatencySensitive,
                    ReqClass::ThroughputCritical => {
                        nvmf::Priority::ThroughputCritical { draining: false }
                    }
                };
                SpdkInitiator::submit(i, k, opcode, slba, blocks, payload, priority, cb)
            }
            AnyInitiator::Opf(i) => {
                OpfInitiator::submit(i, k, class, opcode, slba, blocks, payload, cb)
            }
        };
        cid.is_some()
    }

    /// True when another command can be issued.
    pub fn has_capacity(&self) -> bool {
        either!(&self.0, AnyInitiator, i => i.borrow().has_capacity())
    }

    /// Drain a partially filled NVMe-oPF window; `cb` runs when the
    /// drain completes. Returns whether a drain was issued (never for
    /// SPDK, nor when nothing is pending — `cb` is then dropped).
    pub fn flush(&self, k: &mut Kernel, cb: IoCallback) -> bool {
        self.as_opf()
            .is_some_and(|i| OpfInitiator::flush(i, k, cb).is_some())
    }

    fn metrics(&self, now: SimTime) -> Metrics {
        either!(&self.0, AnyInitiator, i => i.borrow().metrics(now))
    }

    /// Drop the callbacks of commands still in flight at the horizon.
    fn abort_pending(&self) {
        either!(&self.0, AnyInitiator, i => i.borrow_mut().abort_pending())
    }

    fn as_opf(&self) -> Option<&Shared<OpfInitiator>> {
        match &self.0 {
            AnyInitiator::Opf(i) => Some(i),
            AnyInitiator::Spdk(_) => None,
        }
    }
}

#[derive(Clone)]
enum AnyTarget {
    Spdk(Shared<SpdkTarget>),
    Opf(Shared<OpfTarget>),
}

impl AnyTarget {
    /// Read the transport target both runtimes are built on.
    fn io<R>(&self, f: impl FnOnce(&SpdkTarget) -> R) -> R {
        match self {
            AnyTarget::Spdk(t) => f(&t.borrow()),
            AnyTarget::Opf(t) => f(&t.borrow().io),
        }
    }

    fn resps_tx(&self) -> u64 {
        self.io(|t| t.stats.resps_tx)
    }

    fn reactor_utilization(&self, now: SimTime) -> f64 {
        self.io(|t| t.reactor_utilization(now))
    }

    fn metrics(&self, now: SimTime) -> Metrics {
        either!(self, AnyTarget, t => t.borrow().metrics(now))
    }

    /// Drop every connection (and the initiator handle it captures).
    fn disconnect_all(&self) {
        match self {
            AnyTarget::Spdk(t) => t.borrow_mut().disconnect_all(),
            AnyTarget::Opf(t) => t.borrow_mut().io.disconnect_all(),
        }
    }

    fn as_opf(&self) -> Option<&Shared<OpfTarget>> {
        match self {
            AnyTarget::Opf(t) => Some(t),
            AnyTarget::Spdk(_) => None,
        }
    }
}

/// What the closed- and open-loop generators share: the tenant's
/// initiator, its LBA region and addressing stream, and the
/// measure-window latency record.
struct TenantIo {
    ini: TenantHandle,
    pattern: Pattern,
    rng: Pcg32,
    /// Requests addressed so far (the sequential cursor).
    n: u64,
    lba_base: u64,
    lba_span: u64,
    /// Prebuilt max-size write payload.
    payload: Bytes,
    /// The tenant's class histogram; its sample count is the class's
    /// in-window completion count.
    hist: Rc<RefCell<Histogram>>,
    win_start: SimTime,
    win_end: SimTime,
    /// Served completions, in total and in the measure window.
    done_total: u64,
    done_win: u64,
}

impl TenantIo {
    /// Starting LBA of the next request of `blocks` blocks.
    fn next_slba(&mut self, blocks: u16) -> u64 {
        let slots = (self.lba_span / u64::from(blocks)).max(1);
        let slot = match self.pattern {
            Pattern::Sequential => self.n % slots,
            Pattern::Random => self.rng.gen_range(0, slots),
        };
        self.n += 1;
        self.lba_base + slot * u64::from(blocks)
    }

    fn in_window(&self, now: SimTime) -> bool {
        now >= self.win_start && now < self.win_end
    }

    /// Account one completion at `now`, `latency` after it started. A
    /// failed I/O (retries exhausted, a device error) was not served: it
    /// counts in neither `done_*` nor a latency record. A served one in
    /// the measure window records into `hist`, or into the tenant's own
    /// class histogram when `hist` is `None`.
    fn complete(
        &mut self,
        now: SimTime,
        out: &IoOutcome,
        latency: SimDuration,
        hist: Option<&RefCell<Histogram>>,
    ) {
        if !out.status.is_ok() {
            return;
        }
        self.done_total += 1;
        if self.in_window(now) {
            self.done_win += 1;
            hist.unwrap_or(&self.hist)
                .borrow_mut()
                .record(latency.as_nanos());
        }
    }
}

struct Driver {
    io: TenantIo,
    class: ReqClass,
    mix: crate::Mix,
    io_blocks: u16,
}

/// Issue the driver's next request; each completion re-issues (closed
/// loop at the initiator's queue depth).
fn issue(d: Rc<RefCell<Driver>>, k: &mut Kernel) {
    let (class, opcode, slba, blocks, payload) = {
        let mut dr = d.borrow_mut();
        let opcode = if dr.mix.is_read(dr.io.n) {
            Opcode::Read
        } else {
            Opcode::Write
        };
        let blocks = dr.io_blocks;
        let slba = dr.io.next_slba(blocks);
        // The payload is sized for the largest open-loop request.
        let len = BLOCK_SIZE * blocks as usize;
        let payload = (opcode == Opcode::Write).then(|| dr.io.payload.slice(..len));
        (dr.class, opcode, slba, blocks, payload)
    };
    let d2 = d.clone();
    let cb: IoCallback = Box::new(move |k, out| {
        let win_end = {
            let io = &mut d2.borrow_mut().io;
            io.complete(k.now(), &out, out.latency, None);
            io.win_end
        };
        // A failed I/O re-issues too, so the loop keeps its depth.
        if k.now() < win_end {
            issue(d2, k);
        }
    });
    let io = &d.borrow().io;
    let ok = io.ini.submit(k, class, opcode, slba, blocks, payload, cb);
    debug_assert!(ok, "closed loop must respect queue depth");
}

/// One open-loop TC tenant (PR 10 traffic models): arrivals come from a
/// [`TenantTraffic`] generator or trace on the tenant's own kernel lane;
/// a request that finds the qpair full waits in the app-side `pending`
/// queue and its latency counts from *arrival* (queueing included).
struct OpenTenant {
    io: TenantIo,
    gen: TenantTraffic,
    pending: VecDeque<OpenReq>,
    /// Where a trace's LS events record (`io.hist` is the TC one).
    ls_hist: Rc<RefCell<Histogram>>,
    default_blocks: u16,
    base_mix: crate::Mix,
    offered_total: u64,
    offered_win: u64,
}

#[derive(Clone, Copy)]
struct OpenReq {
    arrival: Arrival,
    arrived: SimTime,
}

/// One arrival: draw the request shape, submit or queue it, and
/// schedule the next arrival (the chain stops once the next one would
/// land past the measure window, or a trace has none left).
fn open_arrival(t: Rc<RefCell<OpenTenant>>, k: &mut Kernel) {
    let now = k.now();
    let (req, gap, win_end) = {
        let mut s = t.borrow_mut();
        let (default_blocks, base_mix) = (s.default_blocks, s.base_mix);
        let Some(arrival) = s.gen.draw(now.as_nanos(), default_blocks, base_mix) else {
            return;
        };
        s.offered_total += 1;
        if s.io.in_window(now) {
            s.offered_win += 1;
        }
        let gap = s.gen.next_gap_ns(now.as_nanos());
        (
            OpenReq {
                arrival,
                arrived: now,
            },
            gap,
            s.io.win_end,
        )
    };
    if t.borrow().io.ini.has_capacity() {
        open_submit(&t, k, req);
    } else {
        t.borrow_mut().pending.push_back(req);
    }
    if now + SimDuration::from_nanos(gap) < win_end {
        let t2 = t.clone();
        k.schedule_in(SimDuration::from_nanos(gap), move |k| open_arrival(t2, k));
    }
}

/// Submit one open-loop request at its own LBA (a trace's) or the
/// tenant's next one; its completion pops the next queued arrival (if
/// any) straight into the freed slot.
fn open_submit(t: &Rc<RefCell<OpenTenant>>, k: &mut Kernel, req: OpenReq) {
    let Arrival {
        class,
        write,
        blocks,
        lba,
    } = req.arrival;
    let (opcode, slba, blocks, payload) = {
        let io = &mut t.borrow_mut().io;
        let opcode = if write { Opcode::Write } else { Opcode::Read };
        let blocks = blocks.max(1);
        let slba = lba.unwrap_or_else(|| io.next_slba(blocks));
        let payload = write.then(|| io.payload.slice(0..BLOCK_SIZE * blocks as usize));
        (opcode, slba, blocks, payload)
    };
    let t2 = t.clone();
    let arrived = req.arrived;
    let cb: IoCallback = Box::new(move |k, out| {
        {
            let mut guard = t2.borrow_mut();
            let s = &mut *guard;
            let now = k.now();
            let hist = match class {
                ReqClass::LatencySensitive => Some(&*s.ls_hist),
                ReqClass::ThroughputCritical => None,
            };
            // End-to-end latency counts from arrival: app-side queueing
            // is part of what an open-loop client sees.
            s.io.complete(now, &out, now.since(arrived), hist);
        }
        let next = t2.borrow_mut().pending.pop_front();
        if let Some(r) = next {
            open_submit(&t2, k, r);
        }
    });
    let io = &t.borrow().io;
    let ok = io.ini.submit(k, class, opcode, slba, blocks, payload, cb);
    debug_assert!(ok, "open-loop submit must respect capacity");
}

/// Periodic 1 ms queue re-fill: an NVMe-oPF drain-timer flush occupies a
/// queue slot whose completion does not pop the app queue, so without
/// this sweep a tenant could idle with work pending. The chain dies at
/// the kernel horizon.
fn open_drain(t: Rc<RefCell<OpenTenant>>, k: &mut Kernel) {
    loop {
        if !t.borrow().io.ini.has_capacity() {
            break;
        }
        let next = t.borrow_mut().pending.pop_front();
        match next {
            Some(req) => open_submit(&t, k, req),
            None => break,
        }
    }
    let t2 = t.clone();
    k.schedule_in(SimDuration::from_micros(1000), move |k| open_drain(t2, k));
}

/// One target and the tenants connected to it, for callers (the h5bench
/// harness, the phase breakdown, the examples) that drive their own
/// issue logic instead of [`run`]. Built by [`Env::pair`] and
/// [`Env::connect`].
pub struct Pair {
    /// Per-tenant initiator handles, in connect order.
    pub initiators: Vec<TenantHandle>,
    node: TargetNode,
}

impl Pair {
    /// Completion notifications the target has sent so far.
    pub fn notifications(&self) -> u64 {
        self.node.target.resps_tx()
    }

    /// Unified snapshot of the pair: the target's counters under `tgt.`
    /// and each tenant initiator's under `ini<N>.`.
    pub fn metrics(&self, now: SimTime) -> Metrics {
        let mut m = Metrics::at(now);
        m.merge("tgt.", &self.node.target.metrics(now));
        for (i, h) in self.initiators.iter().enumerate() {
            m.merge(&format!("ini{i}."), &h.metrics(now));
        }
        m
    }

    /// The target's SSD.
    pub fn device(&self) -> &Shared<NvmeDevice> {
        &self.node.device
    }

    /// Drop the target's connections and the tenants' pending callbacks
    /// once the kernel has run: they close the `Rc` cycles that would
    /// otherwise keep the whole stack alive after its run.
    pub fn teardown(&self) {
        teardown([&self.node], &self.initiators);
    }
}

/// The end of every built stack: targets hold each initiator's receive
/// closure, initiators their target's, and in-flight callbacks whatever
/// drives their initiator. Dropping the connections and the pending
/// callbacks cuts both `Rc` cycles.
fn teardown<'a>(
    nodes: impl IntoIterator<Item = &'a TargetNode>,
    tenants: impl IntoIterator<Item = &'a TenantHandle>,
) {
    for n in nodes {
        n.target.disconnect_all();
    }
    for t in tenants {
        t.abort_pending();
    }
}

/// Stage 1 — *environment*: what every target and tenant is built
/// against. The one stack builder: [`run`] builds its stages on it, and
/// callers that drive their own I/O build pairs through
/// [`Env::fault_free`], [`Env::pair`] and [`Env::connect`].
pub struct Env {
    net: Network,
    costs: CpuCosts,
    flash: FlashProfile,
    /// Fault plane. With `None` no interposing closure is installed and
    /// the event sequence is bit-identical to a build without faults.
    plane: Option<Shared<faults::FaultPlane>>,
    /// Targets tolerate retransmissions (duplicate-command suppression,
    /// R2T re-grants).
    recovery: bool,
    target_cfg: OpfTargetConfig,
    /// The baseline reads only `retry`.
    tenant_cfg: OpfInitiatorConfig,
}

impl Env {
    fn new(speed: Gbps, transport: Transport) -> Env {
        // Table I: the 10/25 Gbps testbed (Chameleon Cloud) has slower
        // CPUs and a larger SSD than the 100 Gbps one (CloudLab).
        let (costs, flash) = match speed {
            Gbps::G10 | Gbps::G25 => (CpuCosts::cc(), FlashProfile::cc_ssd()),
            Gbps::G100 => (CpuCosts::cl(), FlashProfile::cl_ssd()),
        };
        Env {
            net: Network::new(FabricConfig::preset(speed)),
            costs: match transport {
                Transport::Tcp => costs,
                Transport::Rdma => costs.to_rdma(),
            },
            flash,
            plane: None,
            recovery: false,
            target_cfg: OpfTargetConfig::default(),
            tenant_cfg: OpfInitiatorConfig::default(),
        }
    }

    /// A fault-free NVMe/TCP environment at `speed` whose NVMe-oPF
    /// tenants use `window`.
    pub fn fault_free(speed: Gbps, window: opf::WindowPolicy) -> Env {
        let mut env = Env::new(speed, Transport::Tcp);
        env.tenant_cfg.window = window;
        env
    }

    /// A fabric endpoint (one node's NIC).
    pub fn endpoint(&self, name: String) -> Shared<Endpoint> {
        self.net.add_endpoint(name)
    }

    /// Stage 2 on its own: target `id` of `runtime` (endpoint `tgt{id}`)
    /// with its SSD, no tenants yet.
    pub fn pair(
        &self,
        runtime: RuntimeKind,
        id: u32,
        device_seed: u64,
        timing_only: bool,
        tracer: Tracer,
    ) -> Pair {
        Pair {
            initiators: Vec::new(),
            node: build_target(self, runtime, id, device_seed, timing_only, tracer),
        }
    }

    /// Stage 3 on its own: connect tenant `id` at queue depth `qd` from
    /// endpoint `iep` to `pair`'s target (reactor 0), append it to
    /// `pair.initiators` and return its handle.
    pub fn connect(
        &self,
        pair: &mut Pair,
        iep: &Shared<Endpoint>,
        id: u8,
        qd: usize,
    ) -> TenantHandle {
        let link = pair.initiators.len();
        let (ini, _) = connect_tenant(self, &pair.node, iep, id, qd, 0, link);
        pair.initiators.push(ini.clone());
        ini
    }

    /// Interpose the fault plane on the initiator→target direction of
    /// fabric link `link` (flaps, crashes and the adversary address a
    /// tenant's path by this index).
    fn wrap_tx(&self, link: usize, rx: TargetRx) -> TargetRx {
        match &self.plane {
            Some(p) => faults::wrap_target_rx(p, link, rx),
            None => rx,
        }
    }

    /// Same for the target→initiator direction.
    fn wrap_rx(&self, link: usize, rx: PduRx) -> PduRx {
        match &self.plane {
            Some(p) => faults::wrap_pdu_rx(p, link, rx),
            None => rx,
        }
    }
}

/// Stage 2 — *targets*: one target with its fabric endpoint, its SSD
/// and the path initiators deliver PDUs to it on.
struct TargetNode {
    target: AnyTarget,
    rx: TargetRx,
    ep: Shared<Endpoint>,
    device: Shared<NvmeDevice>,
}

fn build_target(
    env: &Env,
    runtime: RuntimeKind,
    id: u32,
    device_seed: u64,
    timing_only: bool,
    tracer: Tracer,
) -> TargetNode {
    let ep = env.net.add_endpoint(format!("tgt{id}"));
    let device = shared(NvmeDevice::new(env.flash.clone(), 1 << 30, device_seed));
    device.borrow_mut().set_store_data(!timing_only);
    let (net, costs) = (env.net.clone(), env.costs.clone());
    let (target, rx): (AnyTarget, TargetRx) = match runtime {
        RuntimeKind::Spdk => {
            let t = shared(SpdkTarget::new(
                id,
                net,
                ep.clone(),
                device.clone(),
                costs,
                tracer,
            ));
            t.borrow_mut().set_recovery(env.recovery);
            let t2 = t.clone();
            let rx: TargetRx = Rc::new(move |k, from, pdu| SpdkTarget::on_pdu(&t2, k, from, pdu));
            (AnyTarget::Spdk(t), rx)
        }
        RuntimeKind::Opf => {
            let t = shared(OpfTarget::new(
                id,
                net,
                ep.clone(),
                device.clone(),
                costs,
                env.target_cfg.clone(),
                tracer,
            ));
            t.borrow_mut().set_recovery(env.recovery);
            let t2 = t.clone();
            let rx: TargetRx = Rc::new(move |k, from, pdu| OpfTarget::on_pdu(&t2, k, from, pdu));
            (AnyTarget::Opf(t), rx)
        }
    };
    TargetNode {
        target,
        rx,
        ep,
        device,
    }
}

/// Stage 3 — *tenants*: the one place a tenant meets a target. Builds
/// the initiator the home target's own variant calls for, interposes
/// the fault plane on fabric link `link`, and connects on reactor
/// `lane`. Also returns the tenant's inbound path, for migrations.
fn connect_tenant(
    env: &Env,
    home: &TargetNode,
    iep: &Shared<Endpoint>,
    id: u8,
    qd: usize,
    lane: u32,
    link: usize,
) -> (TenantHandle, PduRx) {
    let tx = env.wrap_tx(link, home.rx.clone());
    let (net, costs) = (env.net.clone(), env.costs.clone());
    match &home.target {
        AnyTarget::Spdk(t) => {
            let i = shared(SpdkInitiator::new(
                id,
                qd,
                net,
                iep.clone(),
                home.ep.clone(),
                tx,
                costs,
            ));
            if let Some(policy) = env.tenant_cfg.retry {
                i.borrow_mut().set_retry(policy);
            }
            let i2 = i.clone();
            let rx = env.wrap_rx(
                link,
                Rc::new(move |k, pdu| SpdkInitiator::on_pdu(&i2, k, pdu)),
            );
            t.borrow_mut().connect_on(id, iep.clone(), rx.clone(), lane);
            (TenantHandle(AnyInitiator::Spdk(i)), rx)
        }
        AnyTarget::Opf(t) => {
            let i = shared(OpfInitiator::new(
                id,
                qd,
                net,
                iep.clone(),
                home.ep.clone(),
                tx,
                costs,
                env.tenant_cfg.clone(),
            ));
            let i2 = i.clone();
            let rx = env.wrap_rx(
                link,
                Rc::new(move |k, pdu| OpfInitiator::on_pdu(&i2, k, pdu)),
            );
            t.borrow_mut().connect_on(id, iep.clone(), rx.clone(), lane);
            (TenantHandle(AnyInitiator::Opf(i)), rx)
        }
    }
}

/// Build one pair: a target (of `runtime` kind) exposing one simulated
/// SSD, plus `tenants` initiators each with queue depth `qd`, every
/// initiator on its own node.
#[allow(clippy::too_many_arguments)]
pub fn build_pair(
    k: &mut Kernel,
    runtime: RuntimeKind,
    speed: Speed,
    tenants: usize,
    qd: usize,
    window: opf::WindowPolicy,
    seed: u64,
    timing_only: bool,
) -> Pair {
    build_pair_traced(
        k,
        runtime,
        speed,
        tenants,
        qd,
        window,
        seed,
        timing_only,
        Tracer::disabled(),
    )
}

/// [`build_pair`] with a tracer wired into the target (for phase
/// breakdown experiments).
#[allow(clippy::too_many_arguments)]
pub fn build_pair_traced(
    _k: &mut Kernel,
    runtime: RuntimeKind,
    speed: Speed,
    tenants: usize,
    qd: usize,
    window: opf::WindowPolicy,
    seed: u64,
    timing_only: bool,
    tracer: Tracer,
) -> Pair {
    let env = Env::fault_free(speed, window);
    let mut pair = env.pair(runtime, 0, seed ^ 0xFACE, timing_only, tracer);
    for id in 0..tenants {
        let iep = env.endpoint(format!("ini{id}"));
        env.connect(&mut pair, &iep, id as u8, qd);
    }
    pair
}

/// A built tenant, kept for the cluster-extras and collect stages.
struct Tenant {
    /// Global index: metric prefix, fault-plane link, start stagger.
    idx: u64,
    /// Kernel lane (target reactor) the tenant's event chain runs on.
    lane: u32,
    /// Index of its home target within its group.
    home: usize,
    ep: Shared<Endpoint>,
    rx: PduRx,
    ini: TenantHandle,
}

/// Stage 4 — *cluster extras* (DESIGN.md §16), installed only when
/// [`Scenario::is_cluster`]: the leaf/spine topology, the cluster
/// priority manager's rebalance ticks, and the live migrations.
struct ClusterPlane {
    links_profiled: usize,
    mgr: Shared<cluster::ClusterPriorityManager>,
    engine: cluster::MigrationEngine,
}

fn install_cluster_plane(
    k: &mut Kernel,
    env: &Env,
    sc: &Scenario,
    nodes: &[TargetNode],
    tenants: &[Tenant],
    warm: SimTime,
    end: SimTime,
) -> ClusterPlane {
    // Non-home paths cross the spine.
    let tenant_eps: Vec<_> = tenants.iter().map(|t| t.ep.clone()).collect();
    let home: Vec<usize> = tenants.iter().map(|t| t.home).collect();
    let tgt_eps: Vec<_> = nodes.iter().map(|n| n.ep.clone()).collect();
    let links_profiled = cluster::install_switched_topology(
        &env.net,
        &tenant_eps,
        &home,
        &tgt_eps,
        cluster::topology::SPINE_LATENCY,
    );

    // The manager and the migration engine are typed on the NVMe-oPF
    // target; `Scenario::validate` admits no other cluster.
    let tgts: Vec<Shared<OpfTarget>> = nodes
        .iter()
        .filter_map(|n| n.target.as_opf().cloned())
        .collect();
    let mgr = shared(cluster::ClusterPriorityManager::new(tgts.clone()));
    fn tick_loop(
        mgr: Shared<cluster::ClusterPriorityManager>,
        end: SimTime,
        k: &mut Kernel,
        at: SimTime,
    ) {
        if at > end {
            return;
        }
        k.schedule_at_on(0, at, move |k| {
            mgr.borrow_mut().tick();
            let next = k.now() + SimDuration::from_micros(500);
            tick_loop(mgr, end, k, next);
        });
    }
    tick_loop(mgr.clone(), end, k, warm);

    let mut engine = cluster::MigrationEngine::new();
    let mut cur = home;
    for spec in &sc.migrations {
        let (ti, to) = (spec.tenant, spec.to_target);
        let from = cur[ti];
        if to == from {
            continue;
        }
        let tenant = &tenants[ti];
        let Some(initiator) = tenant.ini.as_opf() else {
            continue;
        };
        let m = cluster::Migration {
            tenant: ti as u8,
            lane: tenant.lane,
            at: warm + SimDuration::from_secs_f64(spec.at_s.max(0.0)),
            initiator: initiator.clone(),
            source: tgts[from].clone(),
            dest: tgts[to].clone(),
            dest_ep: nodes[to].ep.clone(),
            ini_ep: tenant.ep.clone(),
            // The tenant keeps its fault-plane link across the move, so
            // an attack or loss burst spans it.
            to_dest_rx: env.wrap_tx(ti, nodes[to].rx.clone()),
            from_dest_rx: tenant.rx.clone(),
            dest_shard: tenant.lane,
            state: cluster::MigrationState::Scheduled,
            history: Vec::new(),
            cmds_moved: 0,
            redriven: 0,
        };
        engine.schedule(k, m, SimDuration::from_micros(100));
        cur[ti] = to;
    }
    // The manager consults the engine's records on every tick so tenants
    // mid-migration are neither rebalanced nor decayed while their
    // queues are frozen or in flight between targets.
    mgr.borrow_mut().watch(engine.records());
    ClusterPlane {
        links_profiled,
        mgr,
        engine,
    }
}

/// Run one scenario to completion and collect its metrics: [`run_all`]
/// on this scenario alone, its pairs over every core.
///
/// A run is `pairs` independent *groups*, one per initiator-node /
/// target-node pair: the pair's `targets` targets, its initiator node or
/// nodes, and its tenants. Groups share nothing (the switch is
/// non-blocking), so each one is built, simulated and read on its own
/// kernel and fabric (DESIGN.md §16), at its own last event: what a
/// pair reports does not depend on its siblings. Everything derived
/// from a global position keeps its global value: a tenant's lane, LBA
/// base, metric prefix, start stagger, fault-plane link and traffic
/// index, a target's id and device seed. The groups merge in group
/// order into one result stamped at the latest group's last event.
///
/// Kernel sequence stamps break same-instant ties, so the order a group
/// schedules in is part of the byte-identity contract: its endpoints
/// (targets, the shared `ini-node{g}`, then slots), then admin
/// keep-alive → manager ticks → migrations → closed-loop starts →
/// open-loop starts → the warm notification marker.
///
/// # Panics
/// As [`run_all`].
pub fn run(sc: &Scenario) -> RunResult {
    run_all(std::slice::from_ref(sc), None)
        .pop()
        .unwrap_or_default()
}

/// Run every scenario, results in input order: each scenario's groups
/// (see [`run`]) are one task apiece on one [`map`] over up to
/// `threads` workers (defaults to available parallelism), the calling
/// thread among them, so `threads` caps every thread the runs start.
/// Results do not depend on `threads`.
///
/// # Panics
/// If [`Scenario::validate`] rejects any scenario, before any runs.
/// Every entry point that parses outside input validates first and
/// reports the error. A panic inside any group's simulation is
/// re-raised here with its payload.
#[expect(
    clippy::panic,
    reason = "the benchmark fixes this signature; callers validate first"
)]
pub fn run_all(scenarios: &[Scenario], threads: Option<usize>) -> Vec<RunResult> {
    let scenarios: Vec<Cow<'_, Scenario>> = scenarios
        .iter()
        .map(|sc| match sc.validate() {
            Ok(()) => with_churn(sc),
            Err(e) => panic!("invalid scenario: {e}"),
        })
        .collect();
    let tasks: Vec<(&Scenario, usize)> = scenarios
        .iter()
        .flat_map(|sc| (0..sc.pairs).map(move |g| (&**sc, g)))
        .collect();
    let mut groups = map(&tasks, threads, |&(sc, g)| run_group(sc, g)).into_iter();
    scenarios
        .iter()
        .map(|sc| merge(sc, groups.by_ref().take(sc.pairs).collect()))
        .collect()
}

/// Churn storms materialise as staggered fault-plane crash windows over
/// the TC slots *before* the plane is built; a scenario with churn but
/// no profile gets the default one (retry + re-drain + settle on),
/// since reconnect-recovery is the point of the storm.
fn with_churn(sc: &Scenario) -> Cow<'_, Scenario> {
    let Some(t) = sc.traffic.as_ref().filter(|t| !t.churn.is_empty()) else {
        return Cow::Borrowed(sc);
    };
    let mut s = sc.clone();
    let mut profile = s.faults.take().unwrap_or_default();
    for storm in &t.churn {
        profile.crashes.extend(faults::churn_storm(
            s.ls_per_node,
            storm.tenants.min(s.tc_per_node.max(1)),
            SimTime::from_nanos((storm.at_s * 1e9) as u64),
            SimDuration::from_secs_f64(storm.for_s),
            SimDuration::from_micros(20),
        ));
    }
    s.faults = Some(profile);
    Cow::Owned(s)
}

/// What a group's kernel counted.
struct KernelCounts {
    events: u64,
    cross_shard: u64,
    routed: u64,
    min_slack: Option<u64>,
    horizon_dropped: u64,
}

/// A group's share of stage 6, read at its own last event: plain data,
/// so it can leave its worker.
struct GroupOut {
    /// The group's last event time, when it was read.
    now: SimTime,
    ls_hist: Histogram,
    tc_hist: Histogram,
    notifications: u64,
    /// Reactor utilisation of each target, in node order.
    utils: Vec<f64>,
    cross_reactor_submits: u64,
    kernel: KernelCounts,
    /// Keys only this group has: its components under their run-wide
    /// prefixes, and group 0's cluster-plane and keep-alive counters.
    own: Metrics,
    /// Run-wide counters the groups add up: fault-plane injections,
    /// horizon drops, recovery aggregates and open-loop totals.
    summed: Metrics,
    /// Open-loop arrivals and completions inside the measure window.
    offered_win: u64,
    done_win: u64,
    /// Each open-loop tenant's popularity-normalised served count, in
    /// slot order.
    served: Vec<f64>,
}

/// Group `group`, start to end: its environment, targets and tenants
/// (and, in group 0, the keep-alive client and the cluster plane), its
/// kernel driven to the horizon, then its share of stage 6 read at its
/// last event. The stack is torn down and dropped here.
fn run_group(sc: &Scenario, group: usize) -> GroupOut {
    let is_cluster = sc.is_cluster();
    let profile = sc.faults.as_ref();
    let adversary = profile.and_then(|p| p.adversary);

    // --- Stage 1: environment -------------------------------------------
    // Shards are labels on the group's one event queue (see
    // `simkit::Kernel`): `shards` never changes results.
    let shards = sc.shards.max(1);
    let mut k = Kernel::with_shards(sc.seed, shards);
    k.set_parallel(sc.parallel);
    let mut env = Env::new(sc.speed, sc.transport);
    // Each group's plane forks its RNG off the group kernel's under a
    // tag of its own; group 0's is the historical `0xFA17`, so every
    // one-group run keeps its stream. With `faults: None` the fork never
    // happens.
    env.plane = profile.map(|p| {
        let rng = k.rng().fork(0xFA17 + ((group as u64) << 16));
        shared(faults::FaultPlane::new(p.clone(), rng))
    });
    if let Some(p) = &env.plane {
        if !p.borrow().profile().degrades.is_empty() {
            env.net.set_bandwidth_model(faults::bandwidth_model(p));
        }
    }

    let warm = SimTime::from_nanos((sc.warmup_s * 1e9) as u64);
    let end = SimTime::from_nanos(((sc.warmup_s + sc.measure_s) * 1e9) as u64);

    let ls_hist = Rc::new(RefCell::new(Histogram::new()));
    let tc_hist = Rc::new(RefCell::new(Histogram::new()));
    // Payload and per-tenant LBA spans are sized for the largest block
    // count an open-loop request can draw (`io_blocks` without traffic).
    let span_blocks = match &sc.traffic {
        Some(t) => t.max_blocks(sc.io_blocks.max(1)),
        None => sc.io_blocks.max(1),
    };
    let payload = Bytes::from(vec![0u8; BLOCK_SIZE * span_blocks as usize]);

    // Recovery (duplicate suppression on targets, retry + re-drain on
    // initiators) follows the fault profile — except in a cluster, where
    // it is always armed: a post-move re-drive rides the re-issue path,
    // and migration-free rows stay comparable. The profile may still
    // override the timer values.
    env.recovery = is_cluster || env.plane.is_some();
    let mut retry = profile.and_then(|p| p.retry);
    let mut redrain_timeout = profile.and_then(|p| p.redrain_timeout);
    if is_cluster {
        retry = retry.or(Some(RetryPolicy {
            timeout: SimDuration::from_micros(300),
            max_retries: 6,
        }));
        redrain_timeout = redrain_timeout.or(Some(SimDuration::from_micros(500)));
    }
    // With an adversary, §14 hardening follows its `harden` flag:
    // enforcement plus the drain rate limit, or the wire-trusting
    // baseline. Without one the defaults add no state and no metric keys.
    env.target_cfg = OpfTargetConfig {
        queue_mode: if sc.shared_queue {
            QueueMode::Shared
        } else {
            QueueMode::PerInitiator
        },
        ls_bypass: !sc.no_ls_bypass,
        enforce_identity: adversary.is_none_or(|a| a.harden),
        drain_rate: adversary.and_then(|a| a.harden.then(opf::DrainRateLimit::default)),
    };
    env.tenant_cfg = OpfInitiatorConfig {
        window: sc.resolve_window(),
        retry,
        redrain_timeout,
        ..OpfInitiatorConfig::default()
    };

    // --- Stage 2: the group's targets ------------------------------------
    let targets_n = sc.targets.max(1);
    let first = group * targets_n;
    let nodes: Vec<TargetNode> = (first..first + targets_n)
        .map(|idx| {
            let node = build_target(
                &env,
                sc.runtime,
                idx as u32,
                sc.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9),
                true,
                Tracer::disabled(),
            );
            // The baseline's identity enforcement follows the same
            // `harden` flag (and turns its hardening counters on).
            if let (Some(adv), AnyTarget::Spdk(t)) = (adversary, &node.target) {
                t.borrow_mut().set_hardening(adv.harden);
            }
            node
        })
        .collect();

    // --- Stage 3: the group's tenants ------------------------------------
    // Initiators either share a node NIC or each get their own node
    // (Figure 7 places every initiator on an individual node).
    let node_ep = (!sc.separate_nodes).then(|| env.net.add_endpoint(format!("ini-node{group}")));
    let per_node = sc.ls_per_node + sc.tc_per_node;
    let mut tenants: Vec<Tenant> = Vec::with_capacity(per_node);
    let mut drivers = Vec::new();
    let mut open_tenants: Vec<(Rc<RefCell<OpenTenant>>, SimTime, u32)> = Vec::new();
    for slot in 0..per_node {
        let iep = match &node_ep {
            Some(ep) => ep.clone(),
            None => env.net.add_endpoint(format!("ini{group}-{slot}")),
        };
        let (class, qd, hist) = if slot < sc.ls_per_node {
            (ReqClass::LatencySensitive, 1, ls_hist.clone())
        } else {
            (ReqClass::ThroughputCritical, sc.tc_qd, tc_hist.clone())
        };
        let global_idx = (group * per_node + slot) as u64;
        // The tenant's whole event chain — issue loop, deliveries, its
        // reactor's queue work — runs on this lane: round-robin over the
        // run's global tenant order (DESIGN.md §13). Its home target is
        // round-robin over the group's targets (§16).
        let lane = (global_idx % shards as u64) as u32;
        let home = slot % targets_n;
        let (ini, rx) = connect_tenant(
            &env,
            &nodes[home],
            &iep,
            slot as u8,
            qd,
            lane,
            global_idx as usize,
        );
        // Under an adversary, register each TC connection's class so
        // forged LS flags are demoted — on every target of the group, so
        // the demotion survives a migration.
        if adversary.is_some() && class == ReqClass::ThroughputCritical {
            for t in nodes.iter().filter_map(|n| n.target.as_opf()) {
                t.borrow_mut().deny_ls(slot as u8);
            }
        }

        let io = TenantIo {
            ini: ini.clone(),
            pattern: sc.pattern,
            rng: Pcg32::new(sc.seed ^ (global_idx + 1).wrapping_mul(0x1357_9BDF)),
            n: 0,
            lba_base: global_idx * 8192 * u64::from(span_blocks),
            lba_span: 8192 * u64::from(span_blocks),
            payload: payload.clone(),
            hist,
            win_start: warm,
            win_end: end,
            done_total: 0,
            done_win: 0,
        };
        // With a traffic block the TC tenants go open-loop; LS tenants
        // keep their closed-loop QD-1 probe so the paper's isolation
        // metric stays comparable.
        if let (Some(tspec), ReqClass::ThroughputCritical) = (&sc.traffic, class) {
            let tc_total = (sc.pairs * sc.tc_per_node).max(1);
            let tc_idx = group * sc.tc_per_node + (slot - sc.ls_per_node);
            let t = Rc::new(RefCell::new(OpenTenant {
                io,
                gen: TenantTraffic::new(tspec, sc.seed, tc_idx, tc_total),
                pending: VecDeque::new(),
                ls_hist: ls_hist.clone(),
                default_blocks: sc.io_blocks.max(1),
                base_mix: sc.mix,
                offered_total: 0,
                offered_win: 0,
            }));
            // A trace's timestamps are absolute: its tenants start at
            // zero, not staggered.
            let start = match tspec.model {
                ArrivalModel::Trace(_) => SimTime::ZERO,
                _ => SimTime::from_micros(global_idx),
            };
            open_tenants.push((t, start, lane));
        } else {
            let driver = Rc::new(RefCell::new(Driver {
                io,
                class,
                mix: sc.mix,
                io_blocks: sc.io_blocks.max(1),
            }));
            drivers.push((driver, qd, global_idx, lane));
        }
        tenants.push(Tenant {
            idx: global_idx,
            lane,
            home,
            ep: iep,
            rx,
            ini,
        });
    }

    // Optional admin keep-alive/reconnect loop on the run's first
    // initiator link (fault-plane link 0, in group 0): heartbeats skip
    // while it is flapped, the server expires the controller after
    // KATO, the next one reconnects.
    let admin = match (
        profile.and_then(|p| p.keepalive),
        &env.plane,
        tenants.first(),
    ) {
        (Some(ka), Some(p), Some(t0)) if group == 0 => {
            let tep0 = nodes[t0.home].ep.clone();
            let service = shared(nvmf::AdminService::new(ka.kato, env.net.clone(), tep0));
            let client = shared(nvmf::AdminClient::new(
                t0.ep.clone(),
                service,
                env.costs.ini_submit,
            ));
            nvmf::AdminClient::bring_up(&client, &mut k);
            let probe = faults::link_up_probe(p, 0);
            nvmf::AdminClient::start_keepalive_with_reconnect(&client, &mut k, ka.every, probe);
            Some(client)
        }
        _ => None,
    };

    // --- Stage 4: cluster extras (a cluster is one group) -----------------
    let cluster =
        is_cluster.then(|| install_cluster_plane(&mut k, &env, sc, &nodes, &tenants, warm, end));

    // --- Stage 5: drive -------------------------------------------------
    // Closed loops start staggered by a microsecond per initiator (no
    // artificial lockstep), each pinned to its tenant's lane: everything
    // the loop schedules afterwards inherits it.
    for (driver, qd, idx, lane) in drivers {
        k.schedule_at_on(lane, SimTime::from_micros(idx), move |k| {
            for _ in 0..qd {
                issue(driver.clone(), k);
            }
        });
    }

    // Open-loop tenants likewise: the lane-pinned start event kicks off
    // the arrival chain and the 1 ms drainer.
    for (t, start, lane) in &open_tenants {
        let t = t.clone();
        k.schedule_at_on(*lane, *start, move |k| {
            let now_ns = k.now().as_nanos();
            let gap = t.borrow_mut().gen.next_gap_ns(now_ns);
            let t2 = t.clone();
            k.schedule_in(SimDuration::from_nanos(gap), move |k| open_arrival(t2, k));
            open_drain(t, k);
        });
    }

    // Snapshot notification counters at the start of the measure window
    // so `notifications` is a within-window delta (Figure 6(c) counts a
    // fixed-duration run).
    let notif_at_warm = Rc::new(Cell::new(0u64));
    let marker = notif_at_warm.clone();
    let targets: Vec<AnyTarget> = nodes.iter().map(|n| n.target.clone()).collect();
    k.schedule_at(warm, move |_| {
        marker.set(targets.iter().map(AnyTarget::resps_tx).sum());
    });

    // A settle window past `end` (where issue and recording stop) lets
    // retry/re-drain timers recover the in-flight tail. Fault profiles
    // bring their own; open-loop and cluster runs always get ≥ 50 ms so
    // queued arrivals and post-move re-drives land and `offered ==
    // goodput` is checkable.
    let mut settle_s = profile.map_or(0.0, |p| p.settle_s);
    if is_cluster || sc.traffic.is_some() {
        settle_s = settle_s.max(0.05);
    }
    k.set_horizon(end + SimDuration::from_secs_f64(settle_s));
    k.run_to_completion();

    // --- Stage 6: read the group at its own last event -------------------
    // The kernel and the events past its horizon go first, so the
    // snapshot reuses their memory instead of adding to the peak.
    let now = k.now();
    let kernel = KernelCounts {
        events: k.events_executed(),
        cross_shard: k.cross_shard_scheduled(),
        routed: k.mesh_routed(),
        min_slack: k.mesh_min_slack_nanos(),
        horizon_dropped: k.horizon_dropped(),
    };
    drop(k);
    let notifications =
        nodes.iter().map(|n| n.target.resps_tx()).sum::<u64>() - notif_at_warm.get();

    // Component prefixes: classic runs name a group's parts under
    // `pair{g}.`, cluster runs (one group) name targets directly.
    // Both key unions are pinned by goldens, so this table is the
    // contract. Targets are numbered run-wide.
    let prefix = |i: usize, classic: &str, cluster: &str| {
        if is_cluster {
            cluster.replace("{}", &i.to_string())
        } else {
            format!("pair{i}.{classic}.")
        }
    };
    let mut own = Metrics::at(now);
    for (t, n) in (first..).zip(&nodes) {
        own.merge(&prefix(t, "tgt", "tgt{}."), &n.target.metrics(now));
        own.merge(&prefix(t, "dev", "dev{}."), &n.device.borrow().metrics(now));
        own.merge(
            &prefix(t, "tgt_ep", "tgt{}_ep."),
            &n.ep.borrow().metrics(now),
        );
    }
    if let Some(ep) = &node_ep {
        let p = prefix(group, "ini_node_ep", "ini_node_ep.");
        own.merge(&p, &ep.borrow().metrics(now));
    }
    for t in &tenants {
        if sc.separate_nodes {
            own.merge(&format!("ini{}.ep.", t.idx), &t.ep.borrow().metrics(now));
        }
        own.merge(&format!("ini{}.", t.idx), &t.ini.metrics(now));
    }
    if let Some(c) = &cluster {
        own.set("cluster.targets", nodes.len() as f64);
        own.set("cluster.links_profiled", c.links_profiled as f64);
        let snap = c.mgr.borrow().snapshot();
        own.set("cluster.mgr_ticks", snap.ticks as f64);
        own.set("cluster.weight_updates", snap.weight_updates as f64);
        own.set("cluster.max_imbalance", snap.max_imbalance as f64);
        // Gated on nonzero so runs that never exercise the decay or
        // the migration skip keep byte-identical snapshots.
        if snap.weight_decays > 0 {
            own.set("cluster.weight_decays", snap.weight_decays as f64);
        }
        if snap.migrating_skipped > 0 {
            own.set("cluster.migrating_skipped", snap.migrating_skipped as f64);
        }
        // Unconditional, so a no-op migration spec snapshots exactly
        // like a migration-free run of the same scenario.
        let tot = c.engine.totals();
        own.set("cluster.migrations_done", tot.done as f64);
        own.set("cluster.migrations_failed", tot.failed as f64);
        own.set("cluster.cmds_moved", tot.cmds_moved as f64);
        own.set("cluster.redriven", tot.redriven as f64);
    }
    if let Some(c) = &admin {
        let s = c.borrow().ka_stats;
        own.set("admin.heartbeats", s.heartbeats as f64);
        own.set("admin.heartbeat_misses", s.heartbeat_misses as f64);
        own.set("admin.reconnects", s.reconnects as f64);
    }

    // Fault-plane injection counters, only present when a profile is
    // installed, so fault-free runs keep their exact pre-faults key
    // set.
    let mut summed = Metrics::at(now);
    if let Some(p) = &env.plane {
        summed.merge("faults.", &p.borrow().metrics(now));
        // Events refused past the horizon; only fault timers can
        // realistically outlive it, so the key is gated with them.
        summed.set("kernel.horizon_dropped", kernel.horizon_dropped as f64);
    }
    // Recovery aggregates: under `faults.` with a plane in a classic
    // run; always under `recovery.` in a cluster, whose core
    // invariant is exactly-once (`offered == goodput`).
    let aggregates = if is_cluster {
        Some("recovery.")
    } else {
        env.plane.as_ref().map(|_| "faults.")
    };
    if let Some(prefix) = aggregates {
        let (mut retries, mut exhausted, mut redrains, mut dups) = (0u64, 0u64, 0u64, 0u64);
        let (mut offered, mut goodput) = (0u64, 0u64);
        for t in &tenants {
            // One transport under both runtimes, one set of counters.
            let s = match &t.ini.0 {
                AnyInitiator::Spdk(i) => i.borrow().stats.clone(),
                AnyInitiator::Opf(i) => i.borrow().io.stats.clone(),
            };
            retries += s.retries;
            exhausted += s.retry_exhausted;
            dups += s.dup_resps_suppressed;
            offered += s.submitted;
            goodput += s.completed;
            // Only NVMe-oPF has drains to re-send.
            if let Some(i) = t.ini.as_opf() {
                redrains += i.borrow().stats.redrains;
            }
        }
        summed.set(format!("{prefix}retries"), retries as f64);
        summed.set(format!("{prefix}retry_exhausted"), exhausted as f64);
        summed.set(format!("{prefix}redrains"), redrains as f64);
        summed.set(format!("{prefix}dup_resps_suppressed"), dups as f64);
        summed.set(format!("{prefix}offered"), offered as f64);
        summed.set(format!("{prefix}goodput"), goodput as f64);
    }
    // Open-loop traffic figures, only present with a `traffic` block
    // so legacy runs keep their exact metric key union.
    let (mut offered_win, mut done_win) = (0u64, 0u64);
    let mut served = Vec::with_capacity(open_tenants.len());
    if sc.traffic.is_some() {
        let (mut offered, mut done) = (0u64, 0u64);
        for (t, _, _) in &open_tenants {
            let s = t.borrow();
            offered += s.offered_total;
            done += s.io.done_total;
            offered_win += s.offered_win;
            done_win += s.io.done_win;
            served.push(s.io.done_win as f64 / s.gen.weight().max(1e-12));
        }
        summed.set("traffic.offered", offered as f64);
        summed.set("traffic.done", done as f64);
    }

    let out = GroupOut {
        now,
        ls_hist: ls_hist.take(),
        tc_hist: tc_hist.take(),
        notifications,
        utils: nodes
            .iter()
            .map(|n| n.target.reactor_utilization(end))
            .collect(),
        cross_reactor_submits: nodes
            .iter()
            .filter_map(|n| n.target.as_opf())
            .map(|t| t.borrow().cross_reactor_submits())
            .sum(),
        kernel,
        own,
        summed,
        offered_win,
        done_win,
        served,
    };
    teardown(&nodes, tenants.iter().map(|t| &t.ini));
    out
}

/// Stage 6, run-wide: merge the groups' outputs, in group order, into
/// one result stamped at the latest group's last event. Histograms merge exactly (integer counts
/// and sums), counters add, the reactor utilisation is the mean over
/// every target in node order, and the mesh's smallest slack is the
/// minimum over the groups.
fn merge(sc: &Scenario, groups: Vec<GroupOut>) -> RunResult {
    let now = groups.iter().map(|g| g.now).max().unwrap_or_default();
    let mut tc_hist = Histogram::new();
    let mut ls_hist = Histogram::new();
    let mut summed = Metrics::at(now);
    for g in &groups {
        tc_hist.merge(&g.tc_hist);
        ls_hist.merge(&g.ls_hist);
        summed.accumulate(&g.summed);
    }
    let sum = |f: fn(&GroupOut) -> u64| groups.iter().map(f).sum::<u64>();
    let notifications = sum(|g| g.notifications);
    let utils = || groups.iter().flat_map(|g| g.utils.iter().copied());
    let util = utils().sum::<f64>() / utils().count().max(1) as f64;
    let (tc_done, ls_done) = (tc_hist.count(), ls_hist.count());
    let events = sum(|g| g.kernel.events);

    // Unified snapshot: workload-level figures plus every component's
    // MetricsSource counters under a stable prefix.
    let mut metrics = Metrics::at(now);
    for (class, hist) in [("tc", &tc_hist), ("ls", &ls_hist)] {
        metrics.set(format!("{class}.iops"), hist.count() as f64 / sc.measure_s);
        metrics.set(
            format!("{class}.p50_us"),
            hist.percentile(0.50) as f64 / 1e3,
        );
        metrics.set(
            format!("{class}.p99_us"),
            hist.percentile(0.99) as f64 / 1e3,
        );
        metrics.set(
            format!("{class}.p9999_us"),
            hist.percentile(0.9999) as f64 / 1e3,
        );
        metrics.set(format!("{class}.avg_us"), hist.mean() / 1e3);
    }
    metrics.set("notifications", notifications as f64);
    metrics.set("completed", (tc_done + ls_done) as f64);
    metrics.set("reactor_util", util);
    metrics.set("events", events as f64);
    // `fairness_spread` is (max−min)/mean over per-tenant
    // *popularity-normalised* served counts: under Zipf skew every tenant
    // should still get service proportional to its offered share.
    if sc.traffic.is_some() {
        let (offered_win, done_win) = (sum(|g| g.offered_win), sum(|g| g.done_win));
        let ratio = match offered_win {
            0 => 1.0,
            n => done_win as f64 / n as f64,
        };
        metrics.set("traffic.completion_ratio", ratio);
        let served: Vec<f64> = groups
            .iter()
            .flat_map(|g| g.served.iter().copied())
            .collect();
        let max = served.iter().copied().fold(f64::MIN, f64::max);
        let min = served.iter().copied().fold(f64::MAX, f64::min);
        let mean = served.iter().sum::<f64>() / served.len().max(1) as f64;
        let spread = if served.len() < 2 || mean <= 0.0 {
            0.0
        } else {
            (max - min) / mean
        };
        metrics.set("traffic.fairness_spread", spread);
    }
    for g in &groups {
        metrics.merge("", &g.own);
    }
    metrics.merge("", &summed);

    RunResult {
        tc_iops: tc_done as f64 / sc.measure_s,
        tc_mb_s: tc_done as f64 * (BLOCK_SIZE * sc.io_blocks.max(1) as usize) as f64
            / 1e6
            / sc.measure_s,
        tc_avg_us: tc_hist.mean() / 1e3,
        tc_p9999_us: tc_hist.percentile(0.9999) as f64 / 1e3,
        ls_iops: ls_done as f64 / sc.measure_s,
        ls_avg_us: ls_hist.mean() / 1e3,
        ls_p9999_us: ls_hist.percentile(0.9999) as f64 / 1e3,
        notifications,
        completed: tc_done + ls_done,
        reactor_util: util,
        events,
        cross_shard_events: sum(|g| g.kernel.cross_shard),
        parallel_routed: sum(|g| g.kernel.routed),
        parallel_min_slack_ns: groups.iter().filter_map(|g| g.kernel.min_slack).min(),
        cross_reactor_submits: sum(|g| g.cross_reactor_submits),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::Mix;
    use crate::scenario::WindowSpec;

    fn quick(runtime: RuntimeKind, speed: Gbps, mix: Mix, ls: usize, tc: usize) -> RunResult {
        let mut sc = Scenario::ratio(runtime, speed, mix, ls, tc);
        sc.warmup_s = 0.05;
        sc.measure_s = 0.15;
        run(&sc)
    }

    #[test]
    fn spdk_read_baseline_is_cpu_bound() {
        let r = quick(RuntimeKind::Spdk, Gbps::G100, Mix::READ, 1, 1);
        assert!(r.tc_iops > 50_000.0, "tc_iops {}", r.tc_iops);
        assert!(r.tc_iops < 300_000.0, "tc_iops {}", r.tc_iops);
        assert!(r.reactor_util > 0.5, "util {}", r.reactor_util);
        assert!(r.completed > 0);
        assert!(r.notifications > 0);
    }

    #[test]
    fn opf_read_beats_spdk_at_100g() {
        let s = quick(RuntimeKind::Spdk, Gbps::G100, Mix::READ, 1, 4);
        let o = quick(RuntimeKind::Opf, Gbps::G100, Mix::READ, 1, 4);
        assert!(
            o.tc_iops > s.tc_iops * 1.2,
            "oPF {} vs SPDK {}",
            o.tc_iops,
            s.tc_iops
        );
        // Coalescing slashes notification counts.
        assert!(
            o.notifications * 4 < s.notifications,
            "oPF {} vs SPDK {} notifications",
            o.notifications,
            s.notifications
        );
    }

    #[test]
    fn opf_cuts_ls_tail_latency() {
        let s = quick(RuntimeKind::Spdk, Gbps::G100, Mix::READ, 1, 4);
        let o = quick(RuntimeKind::Opf, Gbps::G100, Mix::READ, 1, 4);
        assert!(
            o.ls_p9999_us < s.ls_p9999_us,
            "oPF {}us vs SPDK {}us",
            o.ls_p9999_us,
            s.ls_p9999_us
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = quick(RuntimeKind::Opf, Gbps::G25, Mix::MIXED, 1, 2);
        let b = quick(RuntimeKind::Opf, Gbps::G25, Mix::MIXED, 1, 2);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.notifications, b.notifications);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn write_workload_runs() {
        let r = quick(RuntimeKind::Opf, Gbps::G100, Mix::WRITE, 1, 2);
        assert!(r.tc_iops > 10_000.0, "tc_iops {}", r.tc_iops);
        assert!(r.ls_iops > 0.0);
    }

    /// A trace of 100 one-block reads past the end of the 2^30-block
    /// SSD: every read completes with an error status, so none of them
    /// was served. They count as offered, never as done, and leave no
    /// latency sample behind.
    #[test]
    fn failed_reads_are_not_served() {
        let text: String = (0..100u64)
            .map(|i| format!("{},0,TC,R,{},1\n", i * 1_000, 1u64 << 30))
            .collect();
        let log = std::sync::Arc::new(crate::TraceLog::from_text(&text).unwrap());
        for runtime in [RuntimeKind::Opf, RuntimeKind::Spdk] {
            let mut sc = Scenario::ratio(runtime, Gbps::G100, Mix::READ, 1, 1);
            sc.warmup_s = 0.0;
            sc.measure_s = 0.002;
            sc.traffic = Some(crate::TrafficSpec {
                model: ArrivalModel::Trace(log.clone()),
                ..crate::TrafficSpec::default()
            });
            let r = run(&sc);
            let m = |key: &str| r.metrics.get(key).unwrap();
            assert_eq!(m("pair0.dev.errors"), 100.0, "{runtime:?}");
            assert_eq!(m("traffic.offered"), 100.0, "{runtime:?}");
            assert_eq!(m("traffic.done"), 0.0, "{runtime:?}");
            assert_eq!(m("tc.iops"), 0.0, "{runtime:?}");
            assert_eq!(r.tc_iops, 0.0, "{runtime:?}");
        }
    }

    #[test]
    fn scale_out_pairs_multiply_throughput() {
        let mut one = Scenario::ratio(RuntimeKind::Opf, Gbps::G100, Mix::READ, 0, 4);
        one.warmup_s = 0.05;
        one.measure_s = 0.1;
        let mut three = one.clone();
        three.pairs = 3;
        let r1 = run(&one);
        let r3 = run(&three);
        assert!(
            r3.tc_iops > r1.tc_iops * 2.5,
            "3 pairs {} vs 1 pair {}",
            r3.tc_iops,
            r1.tc_iops
        );
    }

    #[test]
    fn large_io_reduces_coalescing_gain() {
        // 64K I/O: data transfer dominates, so coalescing matters less.
        let gain_for = |blocks: u16| {
            let mut s = Scenario::ratio(RuntimeKind::Spdk, Gbps::G100, Mix::READ, 0, 1);
            let mut o = Scenario::ratio(RuntimeKind::Opf, Gbps::G100, Mix::READ, 0, 1);
            for sc in [&mut s, &mut o] {
                sc.io_blocks = blocks;
                sc.warmup_s = 0.03;
                sc.measure_s = 0.1;
            }
            run(&o).tc_iops / run(&s).tc_iops
        };
        let small = gain_for(1);
        let large = gain_for(16);
        assert!(
            small > large + 0.2,
            "4K gain {small:.2} should exceed 64K gain {large:.2}"
        );
    }

    #[test]
    fn random_pattern_runs_and_differs_only_in_addressing() {
        let mut sc = Scenario::ratio(RuntimeKind::Opf, Gbps::G100, Mix::READ, 0, 1);
        sc.pattern = crate::Pattern::Random;
        sc.warmup_s = 0.02;
        sc.measure_s = 0.06;
        let r = run(&sc);
        assert!(r.tc_iops > 100_000.0, "{}", r.tc_iops);
    }

    #[test]
    fn rdma_transport_lifts_the_baseline() {
        let mut tcp = Scenario::ratio(RuntimeKind::Spdk, Gbps::G100, Mix::READ, 1, 4);
        tcp.warmup_s = 0.03;
        tcp.measure_s = 0.1;
        let mut rdma = tcp.clone();
        rdma.transport = crate::Transport::Rdma;
        let t = run(&tcp);
        let r = run(&rdma);
        assert!(
            r.tc_iops > t.tc_iops * 1.2,
            "RDMA baseline should beat TCP: {} vs {}",
            r.tc_iops,
            t.tc_iops
        );
    }

    #[test]
    fn lossy_run_recovers_every_request() {
        let mut sc = Scenario::ratio(RuntimeKind::Opf, Gbps::G100, Mix::READ, 1, 2);
        sc.warmup_s = 0.02;
        sc.measure_s = 0.08;
        sc.faults = Some(faults::FaultProfile {
            drop_p: 0.01,
            ..faults::FaultProfile::default()
        });
        let r = run(&sc);
        let m = &r.metrics;
        assert!(
            m.get("faults.drops").unwrap_or(0.0) > 0.0,
            "plane must fire"
        );
        assert!(
            m.get("faults.retries").unwrap_or(0.0) + m.get("faults.redrains").unwrap_or(0.0) > 0.0,
            "recovery must fire"
        );
        assert_eq!(
            m.get("faults.offered"),
            m.get("faults.goodput"),
            "every submitted request must complete within the settle window"
        );
        assert_eq!(m.get("faults.retry_exhausted"), Some(0.0));
    }

    #[test]
    fn lossy_spdk_run_recovers_every_request() {
        let mut sc = Scenario::ratio(RuntimeKind::Spdk, Gbps::G100, Mix::READ, 1, 2);
        sc.warmup_s = 0.02;
        sc.measure_s = 0.06;
        sc.faults = Some(faults::FaultProfile {
            drop_p: 0.01,
            ..faults::FaultProfile::default()
        });
        let r = run(&sc);
        let m = &r.metrics;
        assert!(m.get("faults.retries").unwrap_or(0.0) > 0.0);
        assert_eq!(m.get("faults.offered"), m.get("faults.goodput"));
    }

    #[test]
    fn zero_probability_profile_matches_fault_free_run() {
        // A plane with every knob at zero must not perturb the event
        // sequence: the interposing closures forward inline and draw no
        // RNG on the zero-probability paths.
        let mut clean = Scenario::ratio(RuntimeKind::Opf, Gbps::G100, Mix::READ, 1, 2);
        clean.warmup_s = 0.02;
        clean.measure_s = 0.06;
        let mut zeroed = clean.clone();
        zeroed.faults = Some(faults::FaultProfile {
            retry: None,
            redrain_timeout: None,
            settle_s: 0.0,
            ..faults::FaultProfile::default()
        });
        let a = run(&clean);
        let b = run(&zeroed);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.notifications, b.notifications);
        assert_eq!(a.tc_p9999_us, b.tc_p9999_us);
        assert_eq!(a.ls_p9999_us, b.ls_p9999_us);
    }

    #[test]
    fn link_flap_triggers_keepalive_reconnect() {
        let mut sc = Scenario::ratio(RuntimeKind::Opf, Gbps::G100, Mix::READ, 1, 2);
        sc.warmup_s = 0.02;
        sc.measure_s = 0.08;
        sc.faults = Some(faults::FaultProfile {
            flaps: vec![faults::LinkFlap {
                link: 0,
                at: SimTime::from_millis(30),
                dur: SimDuration::from_millis(15),
            }],
            keepalive: Some(faults::KeepAliveSpec {
                every: SimDuration::from_millis(4),
                kato: SimDuration::from_millis(10),
            }),
            ..faults::FaultProfile::default()
        });
        let r = run(&sc);
        let m = &r.metrics;
        assert!(m.get("faults.flap_drops").unwrap_or(0.0) > 0.0);
        assert!(m.get("admin.heartbeat_misses").unwrap_or(0.0) >= 2.0);
        assert!(
            m.get("admin.reconnects").unwrap_or(0.0) >= 1.0,
            "the outage outlives KATO, so the client must reconnect"
        );
    }

    #[test]
    fn cluster_two_targets_runs_and_ticks_the_manager() {
        let mut sc = Scenario::ratio(RuntimeKind::Opf, Gbps::G100, Mix::READ, 1, 4);
        sc.targets = 2;
        sc.warmup_s = 0.02;
        sc.measure_s = 0.06;
        let r = run(&sc);
        assert!(r.completed > 0);
        assert_eq!(r.metrics.get("cluster.targets"), Some(2.0));
        assert!(r.metrics.get("cluster.mgr_ticks").unwrap_or(0.0) > 0.0);
        // Round-robin placement puts tenants on both targets, so the
        // spine profiles exist and both devices served I/O.
        assert!(r.metrics.get("cluster.links_profiled").unwrap_or(0.0) > 0.0);
        assert_eq!(
            r.metrics.get("recovery.offered"),
            r.metrics.get("recovery.goodput"),
            "cluster closed loops must complete every submitted request"
        );
    }

    #[test]
    fn live_migration_completes_exactly_once() {
        let mut sc = Scenario::ratio(RuntimeKind::Opf, Gbps::G100, Mix::READ, 1, 4);
        sc.targets = 2;
        sc.warmup_s = 0.02;
        sc.measure_s = 0.08;
        // Tenant 1 is TC (slot 0 is the LS probe), homed on target 1 by
        // round-robin; move it to target 0 mid-measurement.
        sc.migrations = vec![cluster::MigrationSpec {
            tenant: 1,
            at_s: 0.03,
            to_target: 0,
        }];
        let r = run(&sc);
        let m = &r.metrics;
        assert_eq!(m.get("cluster.migrations_done"), Some(1.0));
        assert_eq!(m.get("cluster.migrations_failed"), Some(0.0));
        assert_eq!(
            m.get("recovery.offered"),
            m.get("recovery.goodput"),
            "every request must complete exactly once across the move"
        );
        assert_eq!(m.get("recovery.retry_exhausted"), Some(0.0));
        // The moved tenant keeps completing after the move: the source
        // counted one migrate-out, the destination one migrate-in.
        assert_eq!(m.get("tgt1.migrated_out"), m.get("tgt0.migrated_in"));
        assert_eq!(m.get("tgt1.migrated_out"), Some(1.0));
    }

    /// Four open-loop Poisson read tenants at an aggregate `rate_kiops`,
    /// measured from time zero for 40 ms.
    fn open_loop(runtime: RuntimeKind, rate_kiops: f64) -> RunResult {
        let mut sc = Scenario::ratio(runtime, Gbps::G100, Mix::READ, 0, 4);
        sc.window = WindowSpec::Static(32);
        sc.warmup_s = 0.0;
        sc.measure_s = 0.04;
        sc.seed = 5;
        sc.traffic = Some(crate::TrafficSpec {
            rate_kiops,
            ..crate::TrafficSpec::default()
        });
        run(&sc)
    }

    #[test]
    fn latency_explodes_past_saturation() {
        // Device read cap ~267K: offered 150K is fine, 400K is not.
        let low = open_loop(RuntimeKind::Opf, 150.0);
        let high = open_loop(RuntimeKind::Opf, 400.0);
        assert!(
            high.tc_avg_us > low.tc_avg_us * 3.0,
            "overload must inflate latency: {} vs {}",
            high.tc_avg_us,
            low.tc_avg_us
        );
    }

    #[test]
    fn opf_sustains_higher_open_loop_rate_than_spdk() {
        // 230K offered exceeds SPDK's ~178K capacity but not oPF's.
        let spdk = open_loop(RuntimeKind::Spdk, 230.0);
        let opf = open_loop(RuntimeKind::Opf, 230.0);
        assert!(
            spdk.tc_avg_us > opf.tc_avg_us * 3.0,
            "SPDK should be saturated: {} vs {}",
            spdk.tc_avg_us,
            opf.tc_avg_us
        );
    }

    /// A churn storm `validate` accepts at 1e30 s crashes nobody inside
    /// the run (its stagger sum used to overflow: a panic in debug
    /// builds, a crash window ~20 µs into the run in release).
    #[test]
    fn churn_storm_past_the_run_crashes_nobody() {
        let mut sc = Scenario::ratio(RuntimeKind::Opf, Gbps::G100, Mix::READ, 1, 3);
        sc.warmup_s = 0.0;
        sc.measure_s = 0.005;
        sc.traffic = Some(crate::TrafficSpec {
            churn: vec![crate::ChurnStorm {
                at_s: 1e30,
                for_s: 0.001,
                tenants: 3,
            }],
            ..crate::TrafficSpec::default()
        });
        assert_eq!(sc.validate(), Ok(()));
        let m = run(&sc).metrics;
        assert_eq!(m.get("faults.crash_drops"), Some(0.0));
        assert_eq!(m.get("traffic.offered"), m.get("traffic.done"));
    }

    /// A closed-loop LS writer beside open-loop tenants that draw larger
    /// requests: its writes carry their own size, not the payload sized
    /// for the largest draw (a debug assertion in the initiator).
    #[test]
    fn closed_loop_writes_beside_larger_open_loop_sizes() {
        let mut sc = Scenario::ratio(RuntimeKind::Opf, Gbps::G100, Mix::WRITE, 1, 1);
        sc.warmup_s = 0.0;
        sc.measure_s = 0.005;
        sc.traffic = Some(crate::TrafficSpec {
            size_mix: vec![(4, 1.0)],
            ..crate::TrafficSpec::default()
        });
        let r = run(&sc);
        assert!(r.ls_iops > 0.0 && r.tc_iops > 0.0, "{r:?}");
    }

    #[test]
    fn dynamic_window_scenario_runs() {
        let mut sc = Scenario::ratio(RuntimeKind::Opf, Gbps::G100, Mix::READ, 1, 1);
        sc.window = WindowSpec::Dynamic;
        sc.warmup_s = 0.05;
        sc.measure_s = 0.1;
        let r = run(&sc);
        assert!(r.tc_iops > 10_000.0);
    }
}
