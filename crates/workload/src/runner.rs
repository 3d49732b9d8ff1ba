//! Scenario runner: one staged pipeline builds every simulated stack
//! (DESIGN.md §16) — *environment* → *targets* → *tenants* → *cluster
//! extras* → *drive* → *collect* — and drives closed- or open-loop
//! generators against it. A single target is a cluster of one:
//! [`run`] simulates `pairs` independent groups of `targets` targets
//! each, one kernel per group, in parallel, and merges them in group
//! order; [`build_pair`] is the target and tenant stages on their own.

use crate::group::{Group, GroupOut};
use crate::hist::Histogram;
use crate::pool::map;
use crate::scenario::{RuntimeKind, Scenario, Speed, Transport};
use bytes::Bytes;
use fabric::{Endpoint, FabricConfig, Gbps, Network};
use nvme::{FlashProfile, NvmeDevice, Opcode, BLOCK_SIZE};
use nvmf::qpair::IoCallback;
use nvmf::{CpuCosts, InitiatorStats, PduRx, PriorityPolicy, RetryPolicy, TargetRx};
use nvmf::{SpdkInitiator, SpdkTarget, TargetPolicy};
use opf::{OpfInitiator, OpfInitiatorConfig, OpfTarget, OpfTargetConfig, QueueMode, ReqClass};
use simkit::{shared, Kernel, Metrics, MetricsSource, Shared, SimDuration, SimTime, Tracer};
use std::borrow::Cow;
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

    pub(crate) fn metrics(&self, now: SimTime) -> Metrics {
        either!(&self.0, AnyInitiator, i => i.borrow().metrics(now))
    }

    /// The transport's counters: one set under both runtimes.
    pub(crate) fn stats(&self) -> InitiatorStats {
        either!(&self.0, AnyInitiator, i => i.borrow_mut().transport().stats.clone())
    }

    /// Drop the callbacks of commands still in flight at the horizon.
    fn abort_pending(&self) {
        either!(&self.0, AnyInitiator, i => i.borrow_mut().abort_pending())
    }

    pub(crate) fn as_opf(&self) -> Option<&Shared<OpfInitiator>> {
        match &self.0 {
            AnyInitiator::Opf(i) => Some(i),
            AnyInitiator::Spdk(_) => None,
        }
    }
}

#[derive(Clone)]
pub(crate) enum AnyTarget {
    Spdk(Shared<SpdkTarget>),
    Opf(Shared<OpfTarget>),
}

impl AnyTarget {
    /// The one place the two runtimes differ in how a stack is built:
    /// target `id` of `runtime` on endpoint `ep` and SSD `dev`, and (in
    /// [`Self::new_initiator`]) the initiator that speaks to it, each
    /// with the configuration its runtime reads.
    fn new(
        env: &Env,
        runtime: RuntimeKind,
        id: u32,
        ep: Shared<Endpoint>,
        dev: Shared<NvmeDevice>,
        tracer: Tracer,
    ) -> AnyTarget {
        let (net, costs) = (env.net.clone(), env.costs.clone());
        match runtime {
            RuntimeKind::Spdk => {
                let mut t = SpdkTarget::new(id, net, ep, dev, costs, tracer);
                // Under an adversary the baseline's identity enforcement
                // follows its `harden` flag (and turns its hardening
                // counters on).
                let adversary = env
                    .plane
                    .as_ref()
                    .and_then(|p| p.borrow().profile().adversary);
                if let Some(adv) = adversary {
                    t.set_hardening(adv.harden);
                }
                AnyTarget::Spdk(shared(t))
            }
            RuntimeKind::Opf => {
                let t = OpfTarget::new(id, net, ep, dev, costs, env.target_cfg.clone(), tracer);
                AnyTarget::Opf(shared(t))
            }
        }
    }

    /// Tenant `id`'s initiator, from endpoint `ep` to this target (at
    /// `tep`, reached over `tx`).
    fn new_initiator(
        &self,
        env: &Env,
        id: u8,
        qd: usize,
        ep: Shared<Endpoint>,
        tep: Shared<Endpoint>,
        tx: TargetRx,
    ) -> AnyInitiator {
        let (net, costs) = (env.net.clone(), env.costs.clone());
        match self {
            AnyTarget::Spdk(_) => {
                let mut i = SpdkInitiator::new(id, qd, net, ep, tep, tx, costs);
                if let Some(policy) = env.tenant_cfg.retry {
                    i.set_retry(policy);
                }
                AnyInitiator::Spdk(shared(i))
            }
            AnyTarget::Opf(_) => {
                let i = OpfInitiator::new(id, qd, net, ep, tep, tx, costs, env.tenant_cfg.clone());
                AnyInitiator::Opf(shared(i))
            }
        }
    }

    /// Work on the transport target both runtimes are built on.
    fn io<R>(&self, f: impl FnOnce(&mut SpdkTarget) -> R) -> R {
        either!(self, AnyTarget, t => f(t.borrow_mut().transport()))
    }

    pub(crate) fn resps_tx(&self) -> u64 {
        self.io(|t| t.stats.resps_tx)
    }

    pub(crate) fn reactor_utilization(&self, now: SimTime) -> f64 {
        self.io(|t| t.reactor_utilization(now))
    }

    pub(crate) fn metrics(&self, now: SimTime) -> Metrics {
        either!(self, AnyTarget, t => t.borrow().metrics(now))
    }

    pub(crate) fn as_opf(&self) -> Option<&Shared<OpfTarget>> {
        match self {
            AnyTarget::Opf(t) => Some(t),
            AnyTarget::Spdk(_) => None,
        }
    }
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
pub(crate) fn teardown<'a>(
    nodes: impl IntoIterator<Item = &'a TargetNode>,
    tenants: impl IntoIterator<Item = &'a TenantHandle>,
) {
    for n in nodes {
        n.target.io(SpdkTarget::disconnect_all);
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
    pub(crate) net: Network,
    pub(crate) costs: CpuCosts,
    flash: FlashProfile,
    /// Fault plane. With `None` no interposing closure is installed and
    /// the event sequence is bit-identical to a build without faults.
    pub(crate) plane: Option<Shared<faults::FaultPlane>>,
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

    /// Stage 1 of pair group `group` of `sc`, on the group's kernel `k`:
    /// its fault plane, recovery, and the target and tenant configs.
    pub(crate) fn for_group(sc: &Scenario, group: usize, k: &mut Kernel) -> Env {
        let is_cluster = sc.is_cluster();
        let profile = sc.faults.as_ref();
        let adversary = profile.and_then(|p| p.adversary);
        let mut env = Env::new(sc.speed, sc.transport);
        // Each group's plane forks its RNG off the group kernel's under a
        // tag of its own; group 0's is the historical `0xFA17`, so every
        // one-group run keeps its stream. With `faults: None` the fork
        // never happens.
        env.plane = profile.map(|p| {
            let rng = k.rng().fork(0xFA17 + ((group as u64) << 16));
            shared(faults::FaultPlane::new(p.clone(), rng))
        });
        if let Some(p) = &env.plane {
            if !p.borrow().profile().degrades.is_empty() {
                env.net.set_bandwidth_model(faults::bandwidth_model(p));
            }
        }
        // Recovery (duplicate suppression on targets, retry + re-drain on
        // initiators) follows the fault profile — except in a cluster,
        // where it is always armed: a post-move re-drive rides the
        // re-issue path, and migration-free rows stay comparable. The
        // profile may still override the timer values.
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
        // baseline. Without one the defaults add no state and no metric
        // keys.
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
    pub(crate) fn wrap_tx(&self, link: usize, rx: TargetRx) -> TargetRx {
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
pub(crate) struct TargetNode {
    pub(crate) target: AnyTarget,
    pub(crate) rx: TargetRx,
    pub(crate) ep: Shared<Endpoint>,
    pub(crate) device: Shared<NvmeDevice>,
}

pub(crate) fn build_target(
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
    let target = AnyTarget::new(env, runtime, id, ep.clone(), device.clone(), tracer);
    target.io(|t| t.set_recovery(env.recovery));
    let rx = either!(&target, AnyTarget, t => {
        let t = t.clone();
        Rc::new(move |k: &mut Kernel, from, pdu| SpdkTarget::on_pdu(&t, k, from, pdu)) as TargetRx
    });
    TargetNode {
        target,
        rx,
        ep,
        device,
    }
}

/// Stage 3 — *tenants*: the one place a tenant meets a target. Builds
/// the initiator the home target's own runtime calls for, interposes
/// the fault plane on fabric link `link`, and connects on reactor
/// `lane`. Also returns the tenant's inbound path, for migrations.
pub(crate) fn connect_tenant(
    env: &Env,
    home: &TargetNode,
    iep: &Shared<Endpoint>,
    id: u8,
    qd: usize,
    lane: u32,
    link: usize,
) -> (TenantHandle, PduRx) {
    let tx = env.wrap_tx(link, home.rx.clone());
    let (ep, tep) = (iep.clone(), home.ep.clone());
    let ini = home.target.new_initiator(env, id, qd, ep, tep, tx);
    let rx = either!(&ini, AnyInitiator, i => {
        let i = i.clone();
        Rc::new(move |k: &mut Kernel, pdu| SpdkInitiator::on_pdu(&i, k, pdu)) as PduRx
    });
    let rx = env.wrap_rx(link, rx);
    either!(&home.target, AnyTarget, t => {
        t.borrow_mut().connect_on(id, iep.clone(), rx.clone(), lane);
    });
    (TenantHandle(ini), rx)
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

/// Run one scenario to completion and collect its metrics: [`run_all`]
/// on this scenario alone, its pairs over every core.
///
/// A run is `pairs` independent *groups*, one per initiator-node /
/// target-node pair: the pair's `targets` targets, its initiator node or
/// nodes, and its tenants. Groups share nothing (the switch is
/// non-blocking), so each one is built (`Group::build`), simulated
/// (`Group::drive`) and read (`Group::read`) on its own kernel and
/// fabric (DESIGN.md §16), at its own last event: what a pair reports
/// does not depend on its siblings. Everything derived
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
    let mut groups = map(&tasks, threads, |&(sc, g)| {
        let mut group = Group::build(sc, g);
        group.drive();
        group.read()
    })
    .into_iter();
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
    for (class, h) in [("tc", &tc_hist), ("ls", &ls_hist)] {
        let us = |q| h.percentile(q) as f64 / 1e3;
        metrics.set(format!("{class}.iops"), h.count() as f64 / sc.measure_s);
        metrics.set(format!("{class}.p50_us"), us(0.50));
        metrics.set(format!("{class}.p99_us"), us(0.99));
        metrics.set(format!("{class}.p9999_us"), us(0.9999));
        metrics.set(format!("{class}.avg_us"), h.mean() / 1e3);
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
        let served: Vec<f64> = groups.iter().flat_map(|g| g.served.clone()).collect();
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
    use crate::traffic::ArrivalModel;

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
