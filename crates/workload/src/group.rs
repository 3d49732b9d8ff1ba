//! One pair group, the unit [`run`](crate::run) simulates (DESIGN.md
//! §16): its kernel and the world the kernel's events act on — the
//! group's targets, its tenant table with each tenant's closed- or
//! open-loop generator, and, where the scenario asks for them, the
//! keep-alive client and the cluster plane. [`Group::build`] makes it,
//! [`Group::drive`] runs it to the horizon and [`Group::read`] reads it
//! at its own last event.

use crate::hist::Histogram;
use crate::runner::{build_target, connect_tenant, teardown};
use crate::runner::{AnyTarget, Env, TargetNode, TenantHandle};
use crate::scenario::{Pattern, Scenario};
use crate::traffic::{Arrival, ArrivalModel, TenantTraffic};
use bytes::Bytes;
use fabric::Endpoint;
use nvme::{Opcode, BLOCK_SIZE};
use nvmf::qpair::IoCallback;
use nvmf::{IoOutcome, PduRx};
use opf::{OpfTarget, ReqClass};
use simkit::{shared, Kernel, Metrics, MetricsSource, Pcg32, Shared, SimDuration, SimTime, Tracer};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// A tenant's closed loop, and what its open loop shares with it: the
/// tenant's initiator, its request shape, its LBA region and
/// addressing stream, and the measure-window latency record.
struct TenantIo {
    ini: TenantHandle,
    class: ReqClass,
    mix: crate::Mix,
    /// Blocks per request, unless an arrival draws its own.
    blocks: u16,
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

    /// Submit one `blocks`-block request at `lba`, or at the tenant's
    /// next address; `cb` sees its completion. The write payload is a
    /// view of the one sized for the largest request.
    fn submit(
        &mut self,
        k: &mut Kernel,
        class: ReqClass,
        write: bool,
        blocks: u16,
        lba: Option<u64>,
        cb: IoCallback,
    ) {
        let slba = lba.unwrap_or_else(|| self.next_slba(blocks));
        let payload = write.then(|| self.payload.slice(..BLOCK_SIZE * blocks as usize));
        let opcode = if write { Opcode::Write } else { Opcode::Read };
        let ok = self.ini.submit(k, class, opcode, slba, blocks, payload, cb);
        debug_assert!(ok, "a tenant must respect its queue depth");
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

/// Issue the closed loop's next request; each completion re-issues
/// (closed loop at the initiator's queue depth).
fn issue(d: Rc<RefCell<TenantIo>>, k: &mut Kernel) {
    let d2 = d.clone();
    let cb: IoCallback = Box::new(move |k, out| {
        let win_end = {
            let mut io = d2.borrow_mut();
            io.complete(k.now(), &out, out.latency, None);
            io.win_end
        };
        // A failed I/O re-issues too, so the loop keeps its depth.
        if k.now() < win_end {
            issue(d2, k);
        }
    });
    let mut io = d.borrow_mut();
    let (class, write, blocks) = (io.class, !io.mix.is_read(io.n), io.blocks);
    io.submit(k, class, write, blocks, None, cb);
}

/// One open-loop TC tenant: arrivals come from a
/// [`TenantTraffic`] generator or trace on the tenant's own kernel lane;
/// a request that finds the qpair full waits in the app-side `pending`
/// queue and its latency counts from *arrival* (queueing included).
struct OpenTenant {
    io: TenantIo,
    gen: TenantTraffic,
    pending: VecDeque<OpenReq>,
    /// Where a trace's LS events record (`io.hist` is the TC one).
    ls_hist: Rc<RefCell<Histogram>>,
    offered_total: u64,
    offered_win: u64,
}

#[derive(Clone, Copy)]
struct OpenReq {
    arrival: Arrival,
    /// Its arrival time.
    at: SimTime,
}

/// One arrival: draw the request shape, submit or queue it, and
/// schedule the next arrival (the chain stops once the next one would
/// land past the measure window, or a trace has none left).
fn open_arrival(t: Rc<RefCell<OpenTenant>>, k: &mut Kernel) {
    let now = k.now();
    let (req, gap, win_end) = {
        let mut s = t.borrow_mut();
        let (blocks, mix) = (s.io.blocks, s.io.mix);
        let Some(arrival) = s.gen.draw(now.as_nanos(), blocks, mix) else {
            return;
        };
        s.offered_total += 1;
        if s.io.in_window(now) {
            s.offered_win += 1;
        }
        let gap = s.gen.next_gap_ns(now.as_nanos());
        (OpenReq { arrival, at: now }, gap, s.io.win_end)
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
    let (a, arrived) = (req.arrival, req.at);
    let (class, t2) = (a.class, t.clone());
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
    let io = &mut t.borrow_mut().io;
    io.submit(k, class, a.write, a.blocks.max(1), a.lba, cb);
}

/// Periodic 1 ms queue re-fill: an NVMe-oPF drain-timer flush occupies a
/// queue slot whose completion does not pop the app queue, so without
/// this sweep a tenant could idle with work pending. The chain dies at
/// the kernel horizon.
fn open_drain(t: Rc<RefCell<OpenTenant>>, k: &mut Kernel) {
    while t.borrow().io.ini.has_capacity() {
        let Some(req) = t.borrow_mut().pending.pop_front() else {
            break;
        };
        open_submit(&t, k, req);
    }
    let t2 = t.clone();
    k.schedule_in(SimDuration::from_micros(1000), move |k| open_drain(t2, k));
}

/// One row of a group's tenant table: where the tenant sits, its
/// initiator, and the generator that drives it.
struct Tenant {
    /// Global index: metric prefix, fault-plane link, start stagger.
    idx: u64,
    /// Kernel lane (target reactor) the tenant's event chain runs on.
    lane: u32,
    /// Index of its home target within its group.
    home: usize,
    ep: Shared<Endpoint>,
    /// The tenant's inbound path, for migrations.
    rx: PduRx,
    ini: TenantHandle,
    gen: Generator,
}

/// A tenant's generator. With a traffic block the TC tenants go
/// open-loop; LS tenants keep their closed-loop QD-1 probe so the
/// paper's isolation metric stays comparable. So in slot order every
/// closed loop comes before every open one.
enum Generator {
    /// A closed loop at its queue depth.
    Closed(Rc<RefCell<TenantIo>>, usize),
    /// An open-loop arrival chain and its first arrival time.
    Open(Rc<RefCell<OpenTenant>>, SimTime),
}

/// Stage 4 — *cluster extras* (DESIGN.md §16), installed only when
/// [`Scenario::is_cluster`]: the leaf/spine topology, the cluster
/// priority manager's rebalance ticks, and the live migrations.
struct ClusterPlane {
    links_profiled: usize,
    mgr: Shared<cluster::ClusterPriorityManager>,
    engine: cluster::MigrationEngine,
}

/// What a group's kernel counted.
pub(crate) struct KernelCounts {
    pub(crate) events: u64,
    pub(crate) cross_shard: u64,
    pub(crate) routed: u64,
    pub(crate) min_slack: Option<u64>,
    horizon_dropped: u64,
}

/// A group's share of stage 6, read at its own last event: plain data,
/// so it can leave its worker.
pub(crate) struct GroupOut {
    /// The group's last event time, when it was read.
    pub(crate) now: SimTime,
    pub(crate) ls_hist: Histogram,
    pub(crate) tc_hist: Histogram,
    pub(crate) notifications: u64,
    /// Reactor utilisation of each target, in node order.
    pub(crate) utils: Vec<f64>,
    pub(crate) cross_reactor_submits: u64,
    pub(crate) kernel: KernelCounts,
    /// Keys only this group has: its components under their run-wide
    /// prefixes, and group 0's cluster-plane and keep-alive counters.
    pub(crate) own: Metrics,
    /// Run-wide counters the groups add up: fault-plane injections,
    /// horizon drops, recovery aggregates and open-loop totals.
    pub(crate) summed: Metrics,
    /// Open-loop arrivals and completions inside the measure window.
    pub(crate) offered_win: u64,
    pub(crate) done_win: u64,
    /// Each open-loop tenant's popularity-normalised served count, in
    /// slot order.
    pub(crate) served: Vec<f64>,
}

/// Group `g` of a scenario: its kernel and its world.
pub(crate) struct Group<'a> {
    k: Kernel,
    w: World<'a>,
}

/// Everything a group's events act on.
struct World<'a> {
    sc: &'a Scenario,
    g: usize,
    env: Env,
    /// The group's targets, numbered run-wide from `g · targets`.
    nodes: Vec<TargetNode>,
    /// The initiator node's shared NIC, unless `separate_nodes`.
    node_ep: Option<Shared<Endpoint>>,
    /// The tenant table, in slot order.
    tenants: Vec<Tenant>,
    /// Group 0's keep-alive client, with a keep-alive profile.
    admin: Option<Shared<nvmf::AdminClient>>,
    cluster: Option<ClusterPlane>,
    ls_hist: Rc<RefCell<Histogram>>,
    tc_hist: Rc<RefCell<Histogram>>,
    /// The measure window.
    warm: SimTime,
    end: SimTime,
    /// Notifications sent before the measure window, set at `warm`.
    notif_at_warm: Rc<Cell<u64>>,
}

impl<'a> Group<'a> {
    /// Stages 1–4: the group's kernel and environment, its targets, its
    /// tenants, the keep-alive client and the cluster plane. Kernel
    /// sequence stamps break same-instant ties, so this order — and the
    /// endpoints each stage adds — is part of the byte-identity contract
    /// (see [`run`](crate::run)).
    pub(crate) fn build(sc: &'a Scenario, g: usize) -> Group<'a> {
        // Shards are labels on the group's one event queue (see
        // `simkit::Kernel`): `shards` never changes results.
        let mut k = Kernel::with_shards(sc.seed, sc.shards.max(1));
        k.set_parallel(sc.parallel);
        let env = Env::for_group(sc, g, &mut k);
        let mut w = World {
            sc,
            g,
            nodes: targets(&env, sc, g),
            env,
            node_ep: None,
            tenants: Vec::new(),
            admin: None,
            cluster: None,
            ls_hist: Rc::default(),
            tc_hist: Rc::default(),
            warm: SimTime::from_nanos((sc.warmup_s * 1e9) as u64),
            end: SimTime::from_nanos(((sc.warmup_s + sc.measure_s) * 1e9) as u64),
            notif_at_warm: Rc::default(),
        };
        w.connect_tenants();
        w.admin = w.keepalive(&mut k);
        w.cluster = sc.is_cluster().then(|| w.cluster_plane(&mut k));
        Group { k, w }
    }

    /// Stage 5 — *drive*: every tenant's generator starts on its own
    /// lane, the warm marker snapshots the notification counters, and
    /// the kernel runs to the horizon.
    pub(crate) fn drive(&mut self) {
        let (k, w) = (&mut self.k, &self.w);
        for t in &w.tenants {
            match &t.gen {
                // Closed loops start staggered by a microsecond per
                // initiator (no artificial lockstep): everything the
                // loop schedules afterwards inherits the lane.
                Generator::Closed(driver, qd) => {
                    let (driver, qd) = (driver.clone(), *qd);
                    k.schedule_at_on(t.lane, SimTime::from_micros(t.idx), move |k| {
                        for _ in 0..qd {
                            issue(driver.clone(), k);
                        }
                    });
                }
                // The open-loop start kicks off the arrival chain and
                // the 1 ms drainer.
                Generator::Open(o, start) => {
                    let o = o.clone();
                    k.schedule_at_on(t.lane, *start, move |k| {
                        let gap = o.borrow_mut().gen.next_gap_ns(k.now().as_nanos());
                        let o2 = o.clone();
                        k.schedule_in(SimDuration::from_nanos(gap), move |k| open_arrival(o2, k));
                        open_drain(o, k);
                    });
                }
            }
        }

        // Snapshot notification counters at the start of the measure
        // window so `notifications` is a within-window delta (Figure
        // 6(c) counts a fixed-duration run).
        let marker = w.notif_at_warm.clone();
        let targets: Vec<AnyTarget> = w.nodes.iter().map(|n| n.target.clone()).collect();
        k.schedule_at(w.warm, move |_| {
            marker.set(targets.iter().map(AnyTarget::resps_tx).sum());
        });

        // A settle window past `end` (where issue and recording stop)
        // lets retry/re-drain timers recover the in-flight tail. Fault
        // profiles bring their own; open-loop and cluster runs always
        // get ≥ 50 ms so queued arrivals and post-move re-drives land
        // and `offered == goodput` is checkable.
        let mut settle_s = w.sc.faults.as_ref().map_or(0.0, |p| p.settle_s);
        if w.sc.is_cluster() || w.sc.traffic.is_some() {
            settle_s = settle_s.max(0.05);
        }
        k.set_horizon(w.end + SimDuration::from_secs_f64(settle_s));
        k.run_to_completion();
    }

    /// Stage 6, this group's share, at its own last event. The kernel
    /// and the events past its horizon go first, so the snapshot reuses
    /// their memory instead of adding to the peak; the stack is torn
    /// down last.
    pub(crate) fn read(self) -> GroupOut {
        let Group { k, w } = self;
        let now = k.now();
        let kernel = KernelCounts {
            events: k.events_executed(),
            cross_shard: k.cross_shard_scheduled(),
            routed: k.mesh_routed(),
            min_slack: k.mesh_min_slack_nanos(),
            horizon_dropped: k.horizon_dropped(),
        };
        drop(k);
        let out = w.read(now, kernel);
        teardown(&w.nodes, w.tenants.iter().map(|t| &t.ini));
        out
    }
}

/// Stage 2 — *targets*: group `g`'s targets, numbered run-wide.
fn targets(env: &Env, sc: &Scenario, g: usize) -> Vec<TargetNode> {
    let n = sc.targets.max(1);
    (g * n..(g + 1) * n)
        .map(|idx| {
            let seed = sc.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9);
            build_target(env, sc.runtime, idx as u32, seed, true, Tracer::disabled())
        })
        .collect()
}

impl World<'_> {
    /// Stage 3 — *tenants*: the tenant table, one row per slot.
    fn connect_tenants(&mut self) {
        let (sc, g) = (self.sc, self.g);
        // Initiators either share a node NIC or each get their own node
        // (Figure 7 places every initiator on an individual node).
        self.node_ep = (!sc.separate_nodes).then(|| self.env.endpoint(format!("ini-node{g}")));
        // Payload and per-tenant LBA spans are sized for the largest
        // block count an open-loop request can draw (`io_blocks` without
        // traffic).
        let blocks = sc.io_blocks.max(1);
        let span_blocks = sc.traffic.as_ref().map_or(blocks, |t| t.max_blocks(blocks));
        let payload = Bytes::from(vec![0u8; BLOCK_SIZE * span_blocks as usize]);
        let adversary = sc.faults.as_ref().and_then(|p| p.adversary);
        let per_node = sc.ls_per_node + sc.tc_per_node;
        for slot in 0..per_node {
            let ep = match &self.node_ep {
                Some(ep) => ep.clone(),
                None => self.env.endpoint(format!("ini{g}-{slot}")),
            };
            let (class, qd, hist) = if slot < sc.ls_per_node {
                (ReqClass::LatencySensitive, 1, self.ls_hist.clone())
            } else {
                (ReqClass::ThroughputCritical, sc.tc_qd, self.tc_hist.clone())
            };
            let idx = (g * per_node + slot) as u64;
            // The tenant's whole event chain — issue loop, deliveries,
            // its reactor's queue work — runs on this lane: round-robin
            // over the run's global tenant order (DESIGN.md §13). Its
            // home target is round-robin over the group's targets (§16).
            let lane = (idx % sc.shards.max(1) as u64) as u32;
            let home = slot % self.nodes.len();
            let (env, node) = (&self.env, &self.nodes[home]);
            let (ini, rx) = connect_tenant(env, node, &ep, slot as u8, qd, lane, idx as usize);
            // Under an adversary, register each TC connection's class so
            // forged LS flags are demoted — on every target of the group,
            // so the demotion survives a migration.
            if adversary.is_some() && class == ReqClass::ThroughputCritical {
                for t in self.nodes.iter().filter_map(|n| n.target.as_opf()) {
                    t.borrow_mut().deny_ls(slot as u8);
                }
            }
            let io = TenantIo {
                ini: ini.clone(),
                class,
                mix: sc.mix,
                blocks,
                pattern: sc.pattern,
                rng: Pcg32::new(sc.seed ^ (idx + 1).wrapping_mul(0x1357_9BDF)),
                n: 0,
                lba_base: idx * 8192 * u64::from(span_blocks),
                lba_span: 8192 * u64::from(span_blocks),
                payload: payload.clone(),
                hist,
                win_start: self.warm,
                win_end: self.end,
                done_total: 0,
                done_win: 0,
            };
            let gen = match (&sc.traffic, class) {
                (Some(tspec), ReqClass::ThroughputCritical) => {
                    let tc_total = (sc.pairs * sc.tc_per_node).max(1);
                    let tc_idx = g * sc.tc_per_node + (slot - sc.ls_per_node);
                    // A trace's timestamps are absolute: its tenants
                    // start at zero, not staggered.
                    let start = match tspec.model {
                        ArrivalModel::Trace(_) => SimTime::ZERO,
                        _ => SimTime::from_micros(idx),
                    };
                    let o = OpenTenant {
                        io,
                        gen: TenantTraffic::new(tspec, sc.seed, tc_idx, tc_total),
                        pending: VecDeque::new(),
                        ls_hist: self.ls_hist.clone(),
                        offered_total: 0,
                        offered_win: 0,
                    };
                    Generator::Open(Rc::new(RefCell::new(o)), start)
                }
                _ => Generator::Closed(Rc::new(RefCell::new(io)), qd),
            };
            self.tenants.push(Tenant {
                idx,
                lane,
                home,
                ep,
                rx,
                ini,
                gen,
            });
        }
    }

    /// Optional admin keep-alive/reconnect loop on the run's first
    /// initiator link (fault-plane link 0, in group 0): heartbeats skip
    /// while it is flapped, the server expires the controller after
    /// KATO, the next one reconnects.
    fn keepalive(&self, k: &mut Kernel) -> Option<Shared<nvmf::AdminClient>> {
        let ka = self.sc.faults.as_ref()?.keepalive?;
        let plane = self.env.plane.as_ref()?;
        let t0 = self.tenants.first().filter(|_| self.g == 0)?;
        let tep0 = self.nodes[t0.home].ep.clone();
        let service = shared(nvmf::AdminService::new(ka.kato, self.env.net.clone(), tep0));
        let client = nvmf::AdminClient::new(t0.ep.clone(), service, self.env.costs.ini_submit);
        let client = shared(client);
        nvmf::AdminClient::bring_up(&client, k);
        let probe = faults::link_up_probe(plane, 0);
        nvmf::AdminClient::start_keepalive_with_reconnect(&client, k, ka.every, probe);
        Some(client)
    }

    /// Stage 4 — *cluster extras* (a cluster is one group).
    fn cluster_plane(&self, k: &mut Kernel) -> ClusterPlane {
        let (nodes, tenants, warm, end) = (&self.nodes, &self.tenants, self.warm, self.end);
        // Non-home paths cross the spine.
        let tenant_eps: Vec<_> = tenants.iter().map(|t| t.ep.clone()).collect();
        let home: Vec<usize> = tenants.iter().map(|t| t.home).collect();
        let tgt_eps: Vec<_> = nodes.iter().map(|n| n.ep.clone()).collect();
        let links_profiled = cluster::install_switched_topology(
            &self.env.net,
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
        for spec in &self.sc.migrations {
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
                // The tenant keeps its fault-plane link across the move,
                // so an attack or loss burst spans it.
                to_dest_rx: self.env.wrap_tx(ti, nodes[to].rx.clone()),
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
        // The manager consults the engine's records on every tick so
        // tenants mid-migration are neither rebalanced nor decayed while
        // their queues are frozen or in flight between targets.
        mgr.borrow_mut().watch(engine.records());
        ClusterPlane {
            links_profiled,
            mgr,
            engine,
        }
    }

    /// The group's share of stage 6 at `now`, its kernel already gone.
    fn read(&self, now: SimTime, kernel: KernelCounts) -> GroupOut {
        let nodes = &self.nodes;
        let notifications =
            nodes.iter().map(|n| n.target.resps_tx()).sum::<u64>() - self.notif_at_warm.get();
        let mut summed = self.summed(now, &kernel);
        // Open-loop traffic figures, only present with a `traffic` block
        // so legacy runs keep their exact metric key union.
        let (mut offered_win, mut done_win) = (0u64, 0u64);
        let mut served = Vec::new();
        if self.sc.traffic.is_some() {
            let (mut offered, mut done) = (0u64, 0u64);
            for t in &self.tenants {
                if let Generator::Open(o, _) = &t.gen {
                    let s = o.borrow();
                    offered += s.offered_total;
                    done += s.io.done_total;
                    offered_win += s.offered_win;
                    done_win += s.io.done_win;
                    served.push(s.io.done_win as f64 / s.gen.weight().max(1e-12));
                }
            }
            summed.set("traffic.offered", offered as f64);
            summed.set("traffic.done", done as f64);
        }
        GroupOut {
            now,
            ls_hist: self.ls_hist.take(),
            tc_hist: self.tc_hist.take(),
            notifications,
            utils: nodes
                .iter()
                .map(|n| n.target.reactor_utilization(self.end))
                .collect(),
            cross_reactor_submits: nodes
                .iter()
                .filter_map(|n| n.target.as_opf())
                .map(|t| t.borrow().cross_reactor_submits())
                .sum(),
            kernel,
            own: self.own(now),
            summed,
            offered_win,
            done_win,
            served,
        }
    }

    /// Keys only this group has: each component's counters under its
    /// run-wide prefix, and the cluster-plane and keep-alive counters.
    fn own(&self, now: SimTime) -> Metrics {
        let is_cluster = self.sc.is_cluster();
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
        for (t, n) in (self.g * self.nodes.len()..).zip(&self.nodes) {
            own.merge(&prefix(t, "tgt", "tgt{}."), &n.target.metrics(now));
            own.merge(&prefix(t, "dev", "dev{}."), &n.device.borrow().metrics(now));
            own.merge(
                &prefix(t, "tgt_ep", "tgt{}_ep."),
                &n.ep.borrow().metrics(now),
            );
        }
        if let Some(ep) = &self.node_ep {
            let p = prefix(self.g, "ini_node_ep", "ini_node_ep.");
            own.merge(&p, &ep.borrow().metrics(now));
        }
        for t in &self.tenants {
            if self.sc.separate_nodes {
                own.merge(&format!("ini{}.ep.", t.idx), &t.ep.borrow().metrics(now));
            }
            own.merge(&format!("ini{}.", t.idx), &t.ini.metrics(now));
        }
        let mut set = |key: &str, n: u64| own.set(key, n as f64);
        if let Some(c) = &self.cluster {
            let (snap, tot) = (c.mgr.borrow().snapshot(), c.engine.totals());
            set("cluster.targets", self.nodes.len() as u64);
            set("cluster.links_profiled", c.links_profiled as u64);
            set("cluster.mgr_ticks", snap.ticks);
            set("cluster.weight_updates", snap.weight_updates);
            set("cluster.max_imbalance", snap.max_imbalance as u64);
            // Gated on nonzero so runs that never exercise the decay or
            // the migration skip keep byte-identical snapshots.
            for (key, n) in [
                ("cluster.weight_decays", snap.weight_decays),
                ("cluster.migrating_skipped", snap.migrating_skipped),
            ] {
                if n > 0 {
                    set(key, n);
                }
            }
            // Unconditional, so a no-op migration spec snapshots exactly
            // like a migration-free run of the same scenario.
            set("cluster.migrations_done", tot.done);
            set("cluster.migrations_failed", tot.failed);
            set("cluster.cmds_moved", tot.cmds_moved);
            set("cluster.redriven", tot.redriven);
        }
        if let Some(c) = &self.admin {
            let s = c.borrow().ka_stats;
            set("admin.heartbeats", s.heartbeats);
            set("admin.heartbeat_misses", s.heartbeat_misses);
            set("admin.reconnects", s.reconnects);
        }
        own
    }

    /// Run-wide counters the groups add up: the fault plane's and the
    /// recovery aggregates.
    fn summed(&self, now: SimTime, kernel: &KernelCounts) -> Metrics {
        let is_cluster = self.sc.is_cluster();
        let plane = self.env.plane.as_ref();
        // Fault-plane injection counters, only present when a profile is
        // installed, so fault-free runs keep their exact pre-faults key
        // set.
        let mut summed = Metrics::at(now);
        if let Some(p) = plane {
            summed.merge("faults.", &p.borrow().metrics(now));
            // Events refused past the horizon; only fault timers can
            // realistically outlive it, so the key is gated with them.
            summed.set("kernel.horizon_dropped", kernel.horizon_dropped as f64);
        }
        // Recovery aggregates: under `faults.` with a plane in a classic
        // run; always under `recovery.` in a cluster, whose core
        // invariant is exactly-once (`offered == goodput`).
        let prefix = if is_cluster {
            "recovery."
        } else if plane.is_some() {
            "faults."
        } else {
            return summed;
        };
        let (mut retries, mut exhausted, mut redrains, mut dups) = (0u64, 0u64, 0u64, 0u64);
        let (mut offered, mut goodput) = (0u64, 0u64);
        for t in &self.tenants {
            // One transport under both runtimes, one set of counters.
            let s = t.ini.stats();
            retries += s.retries;
            exhausted += s.retry_exhausted;
            dups += s.dup_resps_suppressed;
            offered += s.submitted;
            goodput += s.completed;
            // Only NVMe-oPF has drains to re-send.
            redrains += t.ini.as_opf().map_or(0, |i| i.borrow().stats.redrains);
        }
        summed.set(format!("{prefix}retries"), retries as f64);
        summed.set(format!("{prefix}retry_exhausted"), exhausted as f64);
        summed.set(format!("{prefix}redrains"), redrains as f64);
        summed.set(format!("{prefix}dup_resps_suppressed"), dups as f64);
        summed.set(format!("{prefix}offered"), offered as f64);
        summed.set(format!("{prefix}goodput"), goodput as f64);
        summed
    }
}
