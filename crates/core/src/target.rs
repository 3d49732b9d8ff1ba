//! The NVMe-oPF target Priority Manager (Algorithms 3 and 4).
//!
//! Per-initiator TC queues stage throughput-critical commands until the
//! tenant's draining flag arrives; the batch is then metered into the
//! device and acknowledged with **one** coalesced response capsule.
//! Latency-sensitive commands bypass every queue and execute
//! immediately.
//!
//! # Multi-reactor structure (DESIGN.md §13)
//!
//! The target is split into *reactors*, one per kernel shard hosting its
//! tenants: each reactor exclusively owns the TC [`CidQueue`]s, staging
//! maps and accounting for its assigned initiators, so the §IV-A
//! never-shared property holds not just per tenant but per core. The two
//! genuinely shared paths cross reactors explicitly: device submission
//! travels through a per-reactor [`queues::mailbox()`] to the device-owner
//! reactor (batched: post × N, one doorbell), and completions hand back
//! to the owning reactor via a kernel lane switch before the response is
//! sent. All handoffs are synchronous at simulation-time granularity, so
//! reactor count — like shard count — is unobservable in results; the
//! structure is the ownership substrate later PRs parallelize.

use crate::config::{OpfTargetConfig, QueueMode};
use crate::error::{ProtocolError, ProtocolSide};
use bytes::Bytes;
use fabric::{Endpoint, Network};
use nvme::{NvmeDevice, Opcode, Sqe, Status};
use nvmf::{CpuCosts, Pdu, PduRx, Priority};
use queues::{mailbox, CidQueue, MailboxRx, MailboxTx};
use simkit::FxHashMap;
use simkit::{Kernel, Metrics, MetricsSource, Resource, Shared, SimDuration, SimTime, Tracer};
use std::collections::{BTreeMap, VecDeque};

/// Target-side counters. `resps_tx` is the Figure 6(c) notification
/// count; in NVMe-oPF it is roughly `drains_rx + ls_rx` instead of the
/// baseline's one-per-command.
#[derive(Clone, Debug, Default)]
pub struct OpfTargetStats {
    /// Command capsules received.
    pub cmds_rx: u64,
    /// LS commands received.
    pub ls_rx: u64,
    /// TC commands received.
    pub tc_rx: u64,
    /// Draining flags received.
    pub drains_rx: u64,
    /// H2C data PDUs received.
    pub data_rx: u64,
    /// Response capsules sent (completion notifications).
    pub resps_tx: u64,
    /// Coalesced responses among `resps_tx`.
    pub coalesced_resps_tx: u64,
    /// R2T PDUs sent.
    pub r2ts_tx: u64,
    /// C2H data PDUs sent.
    pub data_tx: u64,
    /// Commands completed by the device.
    pub completed: u64,
    /// LS commands that bypassed the TC queues.
    pub ls_bypassed: u64,
    /// High-water mark of any per-initiator TC queue.
    pub max_tc_queue: usize,
    /// High-water mark of the metered ready queue.
    pub max_ready: usize,
    /// Small sends that paid the backpressure penalty.
    pub backpressured_sends: u64,
    /// Protocol violations detected (malformed/misdirected PDUs). The
    /// offending PDU is dropped; the sim keeps running.
    pub protocol_errors: u64,
    /// Duplicate command capsules dropped (recovery mode): retransmits
    /// of commands still live at the target.
    pub dup_cmds_dropped: u64,
    /// R2Ts re-granted to retransmitted writes (recovery mode).
    pub r2t_regrants: u64,
    /// Command capsules dropped because the wire initiator byte did not
    /// match the connection they arrived on (identity enforcement,
    /// DESIGN.md §14). Subset of `protocol_errors`.
    pub spoofs_dropped: u64,
    /// Draining flags stripped by the per-tenant rate limiter. The
    /// command itself is kept — staged as plain TC and flushed by the
    /// tenant's next in-rate drain — so honest traffic is never lost.
    pub drains_suppressed: u64,
    /// TC commands dropped because a tenant's staging queue overflowed
    /// (reachable only under floods). Subset of `protocol_errors`.
    pub tc_overflow_drops: u64,
    /// LS-flagged commands demoted to TC because their connection is
    /// registered throughput-critical (class admission control,
    /// DESIGN.md §14). Subset of `protocol_errors`.
    pub ls_demoted: u64,
    /// Tenants frozen and extracted for live migration (DESIGN.md §16).
    pub tenants_migrated_out: u64,
    /// Tenants adopted from another target via live migration.
    pub tenants_migrated_in: u64,
    /// Staged commands carried across a migration inside the moved CID
    /// queue (the frozen in-flight window).
    pub cmds_migrated: u64,
}

/// A tenant frozen off a target for live migration: its 16-bit CID
/// queue and the staged commands the queue orders, in drain order. The
/// command payloads are opaque to the cluster plane — only the source
/// and destination targets look inside.
pub struct ExtractedTenant {
    /// The tenant (initiator id) being moved.
    pub initiator: u8,
    /// Kernel shard that hosted the tenant on the source target.
    pub source_shard: u32,
    /// Staged commands in CID-queue (drain) order.
    cmds: Vec<MovedCmd>,
}

impl ExtractedTenant {
    /// Staged commands riding the move.
    pub fn staged_cmds(&self) -> usize {
        self.cmds.len()
    }
}

/// One staged command crossing targets inside an [`ExtractedTenant`].
struct MovedCmd {
    sqe: Sqe,
    data: Option<Bytes>,
    needs_data: bool,
}

/// A TC command staged in a tenant's queue, waiting for a drain.
struct StagedCmd {
    /// Owning tenant (needed by the shared-queue ablation, where one
    /// queue mixes tenants).
    owner: u8,
    sqe: Sqe,
    data: Option<Bytes>,
    /// Write whose H2C data has not arrived yet. TC writes are staged at
    /// *command* arrival so a drain covers every earlier command of the
    /// window (the R2T/data round trip would otherwise reorder them past
    /// the drain); execution waits for the data.
    needs_data: bool,
}

/// One tenant's TC state: the zero-copy CID order queue plus the staged
/// commands the transport already holds (§IV-B: the queue itself stores
/// only CIDs; the command buffers belong to the transport layer).
///
/// In the shared-queue ablation one `TcState` mixes tenants, so queue
/// entries carry the owner in the upper bits of the stored key (CIDs are
/// bounded by the qpair depth, well under 1024).
struct TcState {
    order: CidQueue,
    staged: FxHashMap<(u8, u16), StagedCmd>,
}

const OWNER_SHIFT: u16 = 10;
const CID_MASK: u16 = (1 << OWNER_SHIFT) - 1;

fn encode_key(owner: u8, cid: u16) -> u16 {
    debug_assert!(cid <= CID_MASK, "CID {cid} exceeds the shared-queue bound");
    debug_assert!(owner < 64, "owner {owner} exceeds the shared-queue bound");
    (u16::from(owner) << OWNER_SHIFT) | cid
}

fn decode_key(key: u16) -> (u8, u16) {
    ((key >> OWNER_SHIFT) as u8, key & CID_MASK)
}

impl TcState {
    fn new() -> Self {
        TcState {
            order: CidQueue::new(2048),
            staged: FxHashMap::default(),
        }
    }
}

/// A drained batch awaiting device completions (Algorithm 4's
/// bookkeeping: count completions, respond once on the drain).
struct Batch {
    initiator: u8,
    drain_cid: u16,
    remaining: usize,
    worst: Status,
    /// All device completions arrived; response may be released once
    /// every earlier batch of the same tenant has responded (coalesced
    /// responses must reach the initiator in drain order for
    /// Algorithm 2's prefix-marking to be sound).
    done: bool,
    /// True when this "batch" is a single LS command riding the metered
    /// path (the ls_bypass=false ablation); its response must carry the
    /// LS priority so the initiator completes it individually.
    is_ls: bool,
}

/// A command released from a TC queue, waiting for a device slot.
struct ReadyCmd {
    initiator: u8,
    sqe: Sqe,
    data: Option<Bytes>,
    batch: usize,
}

struct Conn {
    ep: Shared<Endpoint>,
    rx: PduRx,
}

/// Token-bucket state for one tenant's drain-flag rate limit
/// (DESIGN.md §14). Pure sim-time arithmetic: refills are computed
/// lazily from the elapsed time at each drain, so an in-rate tenant
/// costs two float ops per drain and no events.
struct DrainBucket {
    tokens: f64,
    last: SimTime,
}

/// Shard of the device-owner reactor: the metered ready queue, the batch
/// table and device submission live here. Pinned to shard 0 — the
/// runner's round-robin tenant assignment always populates lane 0 first,
/// and a fixed owner keeps the event schedule independent of connect
/// order.
const OWNER_SHARD: u32 = 0;

/// Capacity of each reactor's submission mailbox. Purely a batching
/// granularity: a full ring publishes and drains mid-batch (the handoff
/// is synchronous), so this never limits how much a drain can flush.
const SUBMIT_MAILBOX_CAP: usize = 256;

/// Summary of one reactor's ownership and traffic, for experiments and
/// tests (`repro scale` reports these). Bookkeeping only — reactor
/// counters never become metrics, so metric snapshots stay bit-identical
/// across shard counts.
#[derive(Clone, Debug, Default)]
pub struct ReactorSummary {
    /// Kernel shard (lane) this reactor runs on.
    pub shard: u32,
    /// Tenants assigned to the reactor.
    pub tenants: usize,
    /// Commands classified on this reactor.
    pub cmds: u64,
    /// Completions returned to this reactor's tenants.
    pub completions: u64,
    /// Device submissions posted through this reactor's mailbox.
    pub posted: u64,
}

/// Per-reactor state: everything a reactor touches on its tenants' fast
/// path, owned exclusively (DESIGN.md §13). The genuinely shared
/// structures — the device, the metered ready queue and the batch
/// table — belong to the device-owner reactor, reached only through
/// `submit_tx`.
struct ReactorState {
    /// Tenants assigned to this reactor.
    tenants: Vec<u8>,
    /// Per-initiator TC queues (the §IV-A lock-free design), or the one
    /// shared queue in the ablation mode (always on the owner reactor:
    /// one queue cannot be owned by many).
    tc: FxHashMap<u8, TcState>,
    /// Mailbox to the device-owner reactor: released commands are posted
    /// here (batched — post × N, one doorbell) and drained by the owner
    /// into the metered ready queue.
    submit_tx: MailboxTx<ReadyCmd>,
    /// Commands classified on this reactor.
    cmds: u64,
    /// Completions returned to this reactor's tenants.
    completions: u64,
}

/// The NVMe-oPF target.
pub struct OpfTarget {
    /// Target identifier (for traces).
    pub id: u32,
    reactor: Resource,
    costs: CpuCosts,
    cfg: OpfTargetConfig,
    net: Network,
    ep: Shared<Endpoint>,
    device: Shared<NvmeDevice>,
    /// Connected initiators. BTreeMap: metrics enumerate tenants in
    /// iteration order, which must be deterministic.
    conns: BTreeMap<u8, Conn>,
    /// Writes whose H2C data has not arrived yet.
    pending_writes: FxHashMap<(u8, u16), (Sqe, Priority)>,
    /// Per-reactor state, indexed by kernel shard. Sparse: a target only
    /// materializes the device owner plus the shards its tenants use.
    reactors: Vec<ReactorState>,
    /// Owner-reactor side of each reactor's submission mailbox (parallel
    /// to `reactors`).
    submit_rx: Vec<MailboxRx<ReadyCmd>>,
    /// Kernel shard hosting each connected initiator.
    lane_of: BTreeMap<u8, u32>,
    /// Drained batches in flight. Slots are recycled via a free list.
    batches: Vec<Option<Batch>>,
    free_batches: Vec<usize>,
    /// Per-tenant batch order: responses release strictly in drain order.
    batch_fifo: FxHashMap<u8, VecDeque<usize>>,
    /// Drained TC writes still waiting for their H2C data: batch slot to
    /// join once the payload lands.
    awaiting_data: FxHashMap<(u8, u16), (usize, Sqe)>,
    /// Metered commands waiting for a device slot.
    ready: VecDeque<ReadyCmd>,
    /// Scratch for [`CidQueue::drain_all_into`] in `flush_queue`: reused
    /// across drains so the steady-state hot path never allocates.
    drain_keys: Vec<u16>,
    /// Scratch for `flush_queue`'s per-tenant grouping, with a pool of
    /// retired inner vectors (their capacity is what we are reusing).
    groups: Vec<(u8, Vec<StagedCmd>)>,
    group_pool: Vec<Vec<StagedCmd>>,
    /// TC commands currently at the device.
    tc_inflight: usize,
    /// Recovery mode: suppress duplicate commands from retransmitting
    /// initiators instead of re-queueing them.
    recovery: bool,
    /// Commands accepted and not yet completed, keyed by (initiator,
    /// CID). Membership-only — never iterated, so its hash order can
    /// never leak into event order.
    live: simkit::FxHashSet<(u8, u16)>,
    /// Per-tenant drain rate-limit buckets. Only populated when
    /// `cfg.drain_rate` is set; membership-only lookups, never iterated.
    drain_buckets: FxHashMap<u8, DrainBucket>,
    /// Per-tenant drain-rate weights set by the cluster Priority Manager
    /// (default 1.0 = the configured rate untouched). Consulted only
    /// when `cfg.drain_rate` is set; membership-only, never iterated.
    drain_weights: FxHashMap<u8, f64>,
    /// Tenants registered throughput-critical at connect time: their
    /// LS flags are forged by definition and demoted under enforcement.
    /// Membership-only, never iterated.
    ls_denied: simkit::FxHashSet<u8>,
    tracer: Tracer,
    /// Counters.
    pub stats: OpfTargetStats,
    /// Most recent protocol violation, kept for diagnostics.
    last_protocol_error: Option<ProtocolError>,
}

/// Key used for the shared-queue ablation: all tenants map to one queue.
const SHARED_KEY: u8 = u8::MAX;

impl OpfTarget {
    /// Create a target attached to `ep`, exposing `device`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: u32,
        net: Network,
        ep: Shared<Endpoint>,
        device: Shared<NvmeDevice>,
        costs: CpuCosts,
        cfg: OpfTargetConfig,
        tracer: Tracer,
    ) -> Self {
        let mut t = OpfTarget {
            id,
            reactor: Resource::new("opf_reactor"),
            costs,
            cfg,
            net,
            ep,
            device,
            conns: BTreeMap::new(),
            pending_writes: FxHashMap::default(),
            reactors: Vec::new(),
            submit_rx: Vec::new(),
            lane_of: BTreeMap::new(),
            batches: Vec::new(),
            free_batches: Vec::new(),
            batch_fifo: FxHashMap::default(),
            awaiting_data: FxHashMap::default(),
            ready: VecDeque::new(),
            drain_keys: Vec::new(),
            groups: Vec::new(),
            group_pool: Vec::new(),
            tc_inflight: 0,
            recovery: false,
            live: simkit::FxHashSet::default(),
            drain_buckets: FxHashMap::default(),
            drain_weights: FxHashMap::default(),
            ls_denied: simkit::FxHashSet::default(),
            tracer,
            stats: OpfTargetStats::default(),
            last_protocol_error: None,
        };
        // The device owner always exists, even before any connect: the
        // protocol-error paths route unknown initiators to it.
        t.ensure_reactor(OWNER_SHARD);
        t
    }

    /// Materialize reactors (and their mailboxes) up to `shard`.
    fn ensure_reactor(&mut self, shard: u32) {
        while self.reactors.len() <= shard as usize {
            let (tx, rx) = mailbox(SUBMIT_MAILBOX_CAP);
            self.reactors.push(ReactorState {
                tenants: Vec::new(),
                tc: FxHashMap::default(),
                submit_tx: tx,
                cmds: 0,
                completions: 0,
            });
            self.submit_rx.push(rx);
        }
    }

    /// Reactor (kernel shard) hosting `initiator`. Unknown initiators —
    /// possible only on protocol-error paths — map to the device owner.
    pub fn reactor_of(&self, initiator: u8) -> u32 {
        self.lane_of.get(&initiator).copied().unwrap_or(OWNER_SHARD)
    }

    #[inline]
    fn lane_idx(&self, initiator: u8) -> usize {
        self.reactor_of(initiator) as usize
    }

    /// Number of reactors materialized on this target.
    pub fn reactor_count(&self) -> usize {
        self.reactors.len()
    }

    /// Per-reactor ownership/traffic summaries, in shard order.
    pub fn reactor_summaries(&self) -> Vec<ReactorSummary> {
        self.reactors
            .iter()
            .enumerate()
            .map(|(i, r)| ReactorSummary {
                shard: i as u32,
                tenants: r.tenants.len(),
                cmds: r.cmds,
                completions: r.completions,
                posted: r.submit_tx.posted() as u64,
            })
            .collect()
    }

    /// Device submissions that crossed reactors (posted from a reactor
    /// other than the device owner).
    pub fn cross_reactor_submits(&self) -> u64 {
        self.reactors
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != OWNER_SHARD as usize)
            .map(|(_, r)| r.submit_tx.posted() as u64)
            .sum()
    }

    /// Enable duplicate-command suppression (set by recovery-enabled
    /// deployments whose initiators may retransmit).
    pub fn set_recovery(&mut self, on: bool) {
        self.recovery = on;
    }

    /// Most recent protocol violation, if any.
    pub fn last_protocol_error(&self) -> Option<&ProtocolError> {
        self.last_protocol_error.as_ref()
    }

    /// Record a protocol violation: count it, keep it for diagnostics,
    /// trace it — and let the caller drop the offending PDU.
    fn note_protocol_error(&mut self, now: simkit::SimTime, err: ProtocolError) {
        self.stats.protocol_errors += 1;
        self.tracer.emit(now, "opf.protocol_error", self.id, 0);
        self.last_protocol_error = Some(err);
    }

    /// Register an initiator connection on the device-owner reactor
    /// (single-reactor targets).
    pub fn connect(&mut self, initiator: u8, ep: Shared<Endpoint>, rx: PduRx) {
        self.connect_on(initiator, ep, rx, OWNER_SHARD);
    }

    /// Register an initiator connection hosted by reactor `shard`. The
    /// shared-queue ablation collapses every tenant onto the device
    /// owner regardless of `shard`: its one queue cannot be owned by
    /// many reactors.
    pub fn connect_on(&mut self, initiator: u8, ep: Shared<Endpoint>, rx: PduRx, shard: u32) {
        assert_ne!(
            initiator, SHARED_KEY,
            "initiator id {SHARED_KEY} is reserved"
        );
        if self.conns.contains_key(&initiator) {
            // A second connect for a live tenant is protocol-reachable
            // (a confused or malicious host), not a program bug: keep
            // the original connection, count the violation, and drop
            // the new endpoint instead of aborting the fabric.
            let side = ProtocolSide::Target(self.id);
            self.note_protocol_error(
                SimTime::ZERO,
                ProtocolError::UnknownInitiator { side, initiator },
            );
            return;
        }
        let shard = match self.cfg.queue_mode {
            QueueMode::PerInitiator => shard,
            QueueMode::Shared => OWNER_SHARD,
        };
        self.ensure_reactor(shard);
        self.reactors[shard as usize].tenants.push(initiator);
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

    /// Register `initiator`'s connection as throughput-critical: any
    /// LS flag it carries is forged by definition and — while
    /// `enforce_identity` holds — is demoted to plain TC instead of
    /// jumping the bypass queue (class admission control, DESIGN.md
    /// §14). Untracked connections keep the historical trust-the-wire
    /// behavior, so existing setups are unaffected.
    pub fn deny_ls(&mut self, initiator: u8) {
        self.ls_denied.insert(initiator);
    }

    /// Route a released command to the device-owner reactor through the
    /// posting reactor's mailbox. Posts are batched; the caller publishes
    /// and drains with [`Self::collect_submissions`] once its batch is
    /// complete.
    fn post_ready(&mut self, cmd: ReadyCmd) {
        let lane = self.lane_idx(cmd.initiator);
        if let Err(cmd) = self.reactors[lane].submit_tx.post(cmd) {
            // Ring full mid-batch: publish and drain what is there, then
            // repost. The handoff is synchronous, so a full ring costs
            // only batching granularity, never correctness.
            self.collect_lane(lane);
            if self.reactors[lane].submit_tx.post(cmd).is_err() {
                // lint: allow(no-panic) internal invariant: the ring was
                // drained empty on the line above.
                unreachable!("mailbox full immediately after drain");
            }
        }
    }

    /// Owner side: ring one reactor's doorbell and drain its belled
    /// submissions into the metered ready queue.
    fn collect_lane(&mut self, lane: usize) {
        self.reactors[lane].submit_tx.ring();
        while let Some(cmd) = self.submit_rx[lane].take() {
            self.ready.push_back(cmd);
        }
    }

    /// Owner side: collect every reactor's published submissions in
    /// shard order and note the ready high-water mark. The handoff is
    /// synchronous at sim-time granularity — within one event only that
    /// event's reactor has posted, so ready order equals post order and
    /// reactor count stays unobservable in results.
    fn collect_submissions(&mut self) {
        for lane in 0..self.reactors.len() {
            self.collect_lane(lane);
        }
        let rlen = self.ready.len();
        if rlen > self.stats.max_ready {
            self.stats.max_ready = rlen;
        }
    }

    /// Reactor utilization snapshot.
    pub fn reactor_utilization(&self, now: simkit::SimTime) -> f64 {
        self.reactor.utilization(now)
    }

    fn queue_key(&self, initiator: u8) -> u8 {
        match self.cfg.queue_mode {
            QueueMode::PerInitiator => initiator,
            QueueMode::Shared => SHARED_KEY,
        }
    }

    fn small_send_cost(&mut self, k: &Kernel) -> SimDuration {
        let util = self.ep.borrow().uplink_utilization(k.now());
        let penalty = self.costs.small_send_penalty(util);
        if !penalty.is_zero() {
            self.stats.backpressured_sends += 1;
        }
        self.costs.send_small + penalty
    }

    /// Deliver a PDU arriving from initiator `from`.
    pub fn on_pdu(this: &Shared<OpfTarget>, k: &mut Kernel, from: u8, pdu: Pdu) {
        match pdu {
            Pdu::CapsuleCmd {
                sqe,
                priority,
                initiator,
            } => {
                if initiator != from {
                    let enforce = {
                        let mut t = this.borrow_mut();
                        if t.cfg.enforce_identity {
                            // §14 defense: the wire byte is untrusted.
                            // The connection's `from` is ground truth, so
                            // a mismatched capsule can only be forged or
                            // corrupted — count and drop it before it
                            // reaches a victim's queue.
                            t.stats.spoofs_dropped += 1;
                            let side = ProtocolSide::Target(t.id);
                            t.note_protocol_error(
                                k.now(),
                                ProtocolError::IdentityMismatch {
                                    side,
                                    claimed: initiator,
                                    expected: from,
                                },
                            );
                        }
                        t.cfg.enforce_identity
                    };
                    if enforce {
                        return;
                    }
                    // Enforcement off (the unhardened baseline column):
                    // trust the wire, classifying under the claimed ID.
                    Self::on_cmd(this, k, initiator, sqe, priority);
                    return;
                }
                Self::on_cmd(this, k, from, sqe, priority);
            }
            Pdu::H2CData { cccid, data } => Self::on_h2c_data(this, k, from, cccid, data),
            // Responses, R2Ts and C2H data never travel host → controller:
            // record the violation and drop the PDU rather than abort.
            other => {
                let mut t = this.borrow_mut();
                let side = ProtocolSide::Target(t.id);
                t.note_protocol_error(
                    k.now(),
                    ProtocolError::UnexpectedPdu {
                        side,
                        kind: other.kind(),
                    },
                );
            }
        }
    }

    /// Algorithm 3 entry: classify the command.
    fn on_cmd(this: &Shared<OpfTarget>, k: &mut Kernel, from: u8, sqe: Sqe, priority: Priority) {
        let priority = {
            let mut t = this.borrow_mut();
            // Class admission control: the LS bit on a connection
            // registered throughput-critical is forged — demote it to
            // plain TC so it cannot jump the bypass queue. Only under
            // enforcement; the baseline trusts the wire.
            if priority.is_ls() && t.cfg.enforce_identity && t.ls_denied.contains(&from) {
                t.stats.ls_demoted += 1;
                let target = t.id;
                t.note_protocol_error(
                    k.now(),
                    ProtocolError::ForgedPriority {
                        target,
                        initiator: from,
                        cid: sqe.cid,
                    },
                );
                Priority::ThroughputCritical { draining: false }
            } else {
                priority
            }
        };
        {
            let mut t = this.borrow_mut();
            t.stats.cmds_rx += 1;
            let lane = t.lane_idx(from);
            t.reactors[lane].cmds += 1;
            t.tracer
                .emit(k.now(), "opf.cmd_rx", u32::from(from), u64::from(sqe.cid));
            match priority {
                Priority::LatencySensitive => t.stats.ls_rx += 1,
                Priority::ThroughputCritical { draining } => {
                    t.stats.tc_rx += 1;
                    if draining {
                        t.stats.drains_rx += 1;
                    }
                }
                Priority::None => {}
            }
        }

        if sqe.opcode == Opcode::Write {
            let tc = priority.is_tc();
            // Grant the R2T now; LS/untagged writes classify once their
            // data arrives, TC writes stage immediately so the drain
            // ordering covers them (see StagedCmd::needs_data).
            let finish = {
                let mut t = this.borrow_mut();
                if t.recovery && t.live.contains(&(from, sqe.cid)) {
                    // Retransmitted write: the R2T below re-grants the
                    // transfer; classify will drop the duplicate command.
                    t.stats.r2t_regrants += 1;
                }
                let cost = t.costs.parse_cmd + t.costs.build_r2t + t.small_send_cost(k);
                let grant = t.reactor.reserve(k.now(), cost);
                if !tc {
                    t.pending_writes.insert((from, sqe.cid), (sqe, priority));
                }
                grant.finish
            };
            let this2 = this.clone();
            k.schedule_at(finish, move |k| {
                {
                    let mut t = this2.borrow_mut();
                    t.stats.r2ts_tx += 1;
                    let pdu = Pdu::R2T {
                        cccid: sqe.cid,
                        r2tl: sqe.data_len() as u32,
                    };
                    t.send_to(k, from, pdu);
                }
                if tc {
                    Self::classify(&this2, k, from, sqe, priority, None);
                }
            });
            return;
        }

        let finish = {
            let mut t = this.borrow_mut();
            let cost = t.costs.parse_cmd;
            t.reactor.reserve(k.now(), cost).finish
        };
        let this2 = this.clone();
        k.schedule_at(finish, move |k| {
            Self::classify(&this2, k, from, sqe, priority, None);
        });
    }

    fn on_h2c_data(this: &Shared<OpfTarget>, k: &mut Kernel, from: u8, cccid: u16, data: Bytes) {
        let (finish, pending) = {
            let mut t = this.borrow_mut();
            t.stats.data_rx += 1;
            let pending = t.pending_writes.remove(&(from, cccid));
            let cost = t.costs.handle_data;
            (t.reactor.reserve(k.now(), cost).finish, pending)
        };
        let this2 = this.clone();
        k.schedule_at(finish, move |k| {
            match pending {
                // LS/untagged write: classify now that the data is here.
                Some((sqe, priority)) => {
                    Self::classify(&this2, k, from, sqe, priority, Some(data));
                }
                // TC write: attach the payload to the staged command, or
                // release it into its batch if the drain already passed.
                None => {
                    let pump_now = {
                        let mut t = this2.borrow_mut();
                        if let Some((batch, sqe)) = t.awaiting_data.remove(&(from, cccid)) {
                            t.post_ready(ReadyCmd {
                                initiator: from,
                                sqe,
                                data: Some(data),
                                batch,
                            });
                            t.collect_submissions();
                            true
                        } else {
                            let key = t.queue_key(from);
                            let lane = t.lane_idx(from);
                            match t
                                .reactors
                                .get_mut(lane)
                                .and_then(|r| r.tc.get_mut(&key))
                                .and_then(|state| state.staged.get_mut(&(from, cccid)))
                            {
                                Some(staged) => {
                                    staged.data = Some(data);
                                    staged.needs_data = false;
                                }
                                // H2C data naming no staged TC write: a
                                // misbehaving tenant must not abort the
                                // fabric — count it and drop the payload.
                                // Under recovery this is the expected echo
                                // of a retransmitted write, not a
                                // violation.
                                None => {
                                    if t.recovery {
                                        t.stats.dup_cmds_dropped += 1;
                                    } else {
                                        let side = ProtocolSide::Target(t.id);
                                        t.note_protocol_error(
                                            k.now(),
                                            ProtocolError::UnknownCid { side, cid: cccid },
                                        );
                                    }
                                }
                            }
                            false
                        }
                    };
                    if pump_now {
                        Self::pump(&this2, k);
                    }
                }
            }
        });
    }

    /// Algorithm 3 body: LS (and untagged) commands go straight to
    /// execution; TC commands are staged; a draining TC command flushes
    /// its tenant's queue.
    fn classify(
        this: &Shared<OpfTarget>,
        k: &mut Kernel,
        from: u8,
        sqe: Sqe,
        priority: Priority,
        data: Option<Bytes>,
    ) {
        match priority {
            Priority::ThroughputCritical { draining } => {
                let flush = {
                    let mut t = this.borrow_mut();
                    if t.recovery && !t.live.insert((from, sqe.cid)) {
                        // Retransmit of a command still staged, batched or
                        // at the device: exactly-once execution demands we
                        // drop it here.
                        t.stats.dup_cmds_dropped += 1;
                        return;
                    }
                    // §14 drain rate limit: an out-of-rate draining flag
                    // is stripped, not dropped — the command stages as
                    // plain TC and the tenant's next in-rate drain (or
                    // re-drain timer) flushes it, so a flood cannot force
                    // one flush-plus-response per command.
                    let mut draining = draining;
                    if draining {
                        if let Some(rate) = t.cfg.drain_rate {
                            let now = k.now();
                            // Cluster Priority Manager weight: scales this
                            // tenant's refill rate (1.0 ⇒ bit-identical to
                            // the unweighted math).
                            let weight = t.drain_weights.get(&from).copied().unwrap_or(1.0);
                            let bucket = t.drain_buckets.entry(from).or_insert(DrainBucket {
                                tokens: f64::from(rate.burst),
                                last: now,
                            });
                            let refill =
                                now.since(bucket.last).as_secs_f64() * rate.per_sec * weight;
                            bucket.tokens = (bucket.tokens + refill).min(f64::from(rate.burst));
                            bucket.last = now;
                            if bucket.tokens >= 1.0 {
                                bucket.tokens -= 1.0;
                            } else {
                                draining = false;
                                t.stats.drains_suppressed += 1;
                            }
                        }
                    }
                    let key = t.queue_key(from);
                    let lane = t.lane_idx(from);
                    let state = t.reactors[lane].tc.entry(key).or_insert_with(TcState::new);
                    if state.order.push(encode_key(from, sqe.cid)).is_err() {
                        // Staging queue full. The queue is sized for
                        // QD + window, so honest closed-loop tenants never
                        // get here — only a flood does. Count and drop;
                        // a recovering sender retransmits.
                        if t.recovery {
                            t.live.remove(&(from, sqe.cid));
                        }
                        t.stats.tc_overflow_drops += 1;
                        let target = t.id;
                        t.note_protocol_error(
                            k.now(),
                            ProtocolError::TcQueueOverflow {
                                target,
                                initiator: from,
                                cid: sqe.cid,
                            },
                        );
                        return;
                    }
                    let needs_data = sqe.opcode == Opcode::Write && data.is_none();
                    state.staged.insert(
                        (from, sqe.cid),
                        StagedCmd {
                            owner: from,
                            sqe,
                            data,
                            needs_data,
                        },
                    );
                    let qlen = state.order.len();
                    if qlen > t.stats.max_tc_queue {
                        t.stats.max_tc_queue = qlen;
                    }
                    draining
                };
                if flush {
                    Self::flush_queue(this, k, from, sqe.cid);
                }
            }
            Priority::LatencySensitive if this.borrow().cfg.ls_bypass => {
                // Bypass: execute immediately, outside the TC meter.
                {
                    let mut t = this.borrow_mut();
                    if t.recovery && !t.live.insert((from, sqe.cid)) {
                        t.stats.dup_cmds_dropped += 1;
                        return;
                    }
                    t.stats.ls_bypassed += 1;
                    let cost = t.costs.submit_dev;
                    t.reactor.reserve(k.now(), cost);
                }
                Self::execute_ls(this, k, from, sqe, data);
            }
            _ => {
                // LS with bypass disabled (ablation) or untagged traffic:
                // ride the metered path as a degenerate one-command batch.
                {
                    let mut t = this.borrow_mut();
                    if t.recovery && !t.live.insert((from, sqe.cid)) {
                        t.stats.dup_cmds_dropped += 1;
                        return;
                    }
                }
                let is_ls = priority.is_ls();
                let batch = this.borrow_mut().new_batch(from, sqe.cid, 1, is_ls);
                {
                    let mut t = this.borrow_mut();
                    t.post_ready(ReadyCmd {
                        initiator: from,
                        sqe,
                        data,
                        batch,
                    });
                    t.collect_submissions();
                }
                Self::pump(this, k);
            }
        }
    }

    /// Allocate a batch slot.
    fn new_batch(&mut self, initiator: u8, drain_cid: u16, size: usize, is_ls: bool) -> usize {
        let batch = Batch {
            initiator,
            drain_cid,
            remaining: size,
            worst: Status::Success,
            done: false,
            is_ls,
        };
        let idx = if let Some(idx) = self.free_batches.pop() {
            self.batches[idx] = Some(batch);
            idx
        } else {
            self.batches.push(Some(batch));
            self.batches.len() - 1
        };
        self.batch_fifo.entry(initiator).or_default().push_back(idx);
        idx
    }

    /// Algorithm 3's drain: move every staged command of `from`'s queue
    /// to the ready list as one batch acknowledged by `drain_cid`.
    ///
    /// In the shared-queue ablation the drain flushes *all* tenants'
    /// staged commands (the §IV-A hazard); each tenant still gets its own
    /// response so the system stays live, which costs the coalescing
    /// factor the per-initiator design preserves.
    fn flush_queue(this: &Shared<OpfTarget>, k: &mut Kernel, from: u8, drain_cid: u16) {
        {
            let mut t = this.borrow_mut();
            let key = t.queue_key(from);
            // Scratch buffers cycle through `self` so steady-state drains
            // allocate nothing (they reuse the previous drain's capacity).
            let mut keys = std::mem::take(&mut t.drain_keys);
            let mut groups = std::mem::take(&mut t.groups);
            let mut pool = std::mem::take(&mut t.group_pool);
            debug_assert!(groups.is_empty());
            let put_back = |t: &mut OpfTarget, keys, groups, pool| {
                t.drain_keys = keys;
                t.groups = groups;
                t.group_pool = pool;
            };
            let lane = t.lane_idx(from);
            let Some(state) = t.reactors.get_mut(lane).and_then(|r| r.tc.get_mut(&key)) else {
                put_back(&mut t, keys, groups, pool);
                return;
            };
            state.order.drain_all_into(&mut keys);
            if keys.is_empty() {
                put_back(&mut t, keys, groups, pool);
                return;
            }
            // Group the flushed commands by owning tenant (one group in
            // per-initiator mode). Each group becomes a batch whose
            // coalesced response goes to that tenant, acknowledged by the
            // tenant's most recent flushed CID.
            // `order` and `staged` are updated together in `classify`,
            // so a queue key with no staged command is only reachable
            // when trust-the-wire mode (enforce_identity=false) lets a
            // spoofed duplicate collide with a staged CID. Skip and
            // count instead of panicking; batches are built only from
            // commands actually found, so accounting stays consistent.
            let mut stale: Option<u16> = None;
            let mut stale_n: u64 = 0;
            for &qkey in &keys {
                let (owner, cid) = decode_key(qkey);
                let Some(staged) = state.staged.remove(&(owner, cid)) else {
                    stale = Some(cid);
                    stale_n += 1;
                    continue;
                };
                debug_assert_eq!(staged.owner, owner);
                match groups.iter_mut().find(|(o, _)| *o == owner) {
                    Some((_, v)) => v.push(staged),
                    None => {
                        let mut v = pool.pop().unwrap_or_default();
                        v.push(staged);
                        groups.push((owner, v));
                    }
                }
            }
            if let Some(cid) = stale {
                let side = ProtocolSide::Target(t.id);
                t.stats.protocol_errors += stale_n - 1;
                t.note_protocol_error(k.now(), ProtocolError::UnknownCid { side, cid });
            }

            // Reactor cost: flushing is a queue walk + submits.
            let n: usize = groups.iter().map(|(_, v)| v.len()).sum();
            let cost = t.costs.submit_dev * n as u64;
            t.reactor.reserve(k.now(), cost);

            for (owner, cmds) in &mut groups {
                let owner = *owner;
                let ack_cid = if owner == from {
                    drain_cid
                } else {
                    // Shared-queue ablation: acknowledge the tenant's last
                    // flushed command.
                    // lint: allow(no-panic) internal invariant: groups are
                    // created non-empty just above.
                    cmds.last().expect("non-empty group").sqe.cid
                };
                let batch = t.new_batch(owner, ack_cid, cmds.len(), false);
                for cmd in cmds.drain(..) {
                    if cmd.needs_data {
                        // Drained before its H2C data landed: joins the
                        // batch when the payload arrives.
                        t.awaiting_data
                            .insert((owner, cmd.sqe.cid), (batch, cmd.sqe));
                    } else {
                        t.post_ready(ReadyCmd {
                            initiator: owner,
                            sqe: cmd.sqe,
                            data: cmd.data,
                            batch,
                        });
                    }
                }
            }
            for (_, v) in groups.drain(..) {
                pool.push(v);
            }
            put_back(&mut t, keys, groups, pool);
            t.collect_submissions();
        }
        Self::pump(this, k);
    }

    /// Feed ready commands into the device up to the TC in-flight cap.
    ///
    /// Runs on the device-owner reactor's lane: submission work — and
    /// therefore the device's completion events — lands on the owner
    /// shard regardless of which reactor released the commands, exactly
    /// like a real multi-reactor target polling one SSD from one core.
    fn pump(this: &Shared<OpfTarget>, k: &mut Kernel) {
        k.with_shard(OWNER_SHARD, |k| loop {
            let cmd = {
                let mut t = this.borrow_mut();
                if t.tc_inflight >= t.cfg.tc_inflight_cap {
                    return;
                }
                match t.ready.pop_front() {
                    Some(c) => {
                        t.tc_inflight += 1;
                        c
                    }
                    None => return,
                }
            };
            let device = this.borrow().device.clone();
            {
                let t = this.borrow();
                t.tracer.emit(
                    k.now(),
                    "opf.dev_submit",
                    u32::from(cmd.initiator),
                    u64::from(cmd.sqe.cid),
                );
            }
            let this2 = this.clone();
            NvmeDevice::submit(&device, k, cmd.sqe, cmd.data, move |k, result| {
                {
                    let t = this2.borrow();
                    t.tracer.emit(
                        k.now(),
                        "opf.dev_done",
                        u32::from(cmd.initiator),
                        u64::from(cmd.sqe.cid),
                    );
                }
                Self::on_tc_done(&this2, k, cmd.initiator, cmd.sqe, cmd.batch, result);
            });
        })
    }

    /// Execute an LS command immediately and respond per request.
    ///
    /// The bypass skips the mailbox — it is the express lane, and
    /// metering it through the owner's ready queue is exactly what §IV-A
    /// forbids — but the device submission itself still runs on the
    /// owner shard, like `pump`, so every device-side event lives on one
    /// lane.
    fn execute_ls(
        this: &Shared<OpfTarget>,
        k: &mut Kernel,
        from: u8,
        sqe: Sqe,
        data: Option<Bytes>,
    ) {
        let device = this.borrow().device.clone();
        {
            let t = this.borrow();
            t.tracer.emit(
                k.now(),
                "opf.dev_submit",
                u32::from(from),
                u64::from(sqe.cid),
            );
        }
        let this2 = this.clone();
        k.with_shard(OWNER_SHARD, |k| {
            NvmeDevice::submit(&device, k, sqe, data, move |k, result| {
                Self::on_ls_done(&this2, k, from, sqe, result);
            })
        })
    }

    /// An LS command finished at the device: build and send its response
    /// on the tenant's reactor.
    fn on_ls_done(
        this: &Shared<OpfTarget>,
        k: &mut Kernel,
        from: u8,
        sqe: Sqe,
        result: nvme::device::IoResult,
    ) {
        {
            let t = this.borrow();
            t.tracer
                .emit(k.now(), "opf.dev_done", u32::from(from), u64::from(sqe.cid));
        }
        let (finish, lane) = {
            let mut t = this.borrow_mut();
            t.stats.completed += 1;
            let lane = t.lane_idx(from);
            t.reactors[lane].completions += 1;
            if t.recovery {
                // As with TC completions: later retransmits re-execute
                // so a lost LS response can be regenerated.
                t.live.remove(&(from, sqe.cid));
            }
            let mut cost = t.costs.build_resp + t.small_send_cost(k);
            if result.data.is_some() {
                cost += t.costs.send_data;
            }
            (t.reactor.reserve(k.now(), cost).finish, lane as u32)
        };
        let this3 = this.clone();
        // Hand the completion back to the owning reactor: the response
        // build and send run on the tenant's lane.
        k.with_shard(lane, |k| {
            k.schedule_at(finish, move |k| {
                let mut t = this3.borrow_mut();
                if let Some(bytes) = result.data {
                    t.stats.data_tx += 1;
                    t.send_to(
                        k,
                        from,
                        Pdu::C2HData {
                            cccid: sqe.cid,
                            data: bytes,
                        },
                    );
                }
                t.stats.resps_tx += 1;
                t.tracer
                    .emit(k.now(), "opf.ls_resp_tx", t.id, u64::from(sqe.cid));
                t.send_to(
                    k,
                    from,
                    Pdu::CapsuleResp {
                        cqe: result.cqe,
                        priority: Priority::LatencySensitive,
                    },
                );
            })
        });
    }

    /// Algorithm 4: a TC command finished at the device. Send its data
    /// (reads) immediately; mark the batch and release any responses that
    /// are now deliverable in drain order.
    fn on_tc_done(
        this: &Shared<OpfTarget>,
        k: &mut Kernel,
        from: u8,
        sqe: Sqe,
        batch: usize,
        result: nvme::device::IoResult,
    ) {
        let (finish, lane) = {
            let mut t = this.borrow_mut();
            t.stats.completed += 1;
            t.tc_inflight -= 1;
            let lane = t.lane_idx(from);
            t.reactors[lane].completions += 1;
            if t.recovery {
                // From here on a retransmit of this command re-executes
                // (idempotently) rather than being suppressed — necessary,
                // since its response may still be lost on the way back.
                t.live.remove(&(from, sqe.cid));
            }
            let mut cost = SimDuration::ZERO;
            if result.data.is_some() {
                cost += t.costs.send_data;
            }
            // lint: allow(no-panic) internal invariant: batch slots are
            // freed only after their last completion (below).
            let b = t.batches[batch].as_mut().expect("live batch");
            b.remaining -= 1;
            if !result.cqe.status.is_ok() && b.worst == Status::Success {
                b.worst = result.cqe.status;
            }
            if b.remaining == 0 {
                b.done = true;
            }
            (t.reactor.reserve(k.now(), cost).finish, lane as u32)
        };

        let this2 = this.clone();
        // Hand the completion back to the owning reactor: data send,
        // response release and delivery all run on the tenant's lane
        // (`pump` re-enters the owner lane itself).
        k.with_shard(lane, |k| {
            k.schedule_at(finish, move |k| {
                {
                    let mut t = this2.borrow_mut();
                    if let Some(bytes) = result.data {
                        t.stats.data_tx += 1;
                        t.send_to(
                            k,
                            from,
                            Pdu::C2HData {
                                cccid: sqe.cid,
                                data: bytes,
                            },
                        );
                    }
                }
                Self::release_responses(&this2, k, from);
                // A device slot freed: feed the meter.
                Self::pump(&this2, k);
            })
        });
    }

    /// Send coalesced responses for every leading completed batch of
    /// tenant `owner`, preserving drain order.
    fn release_responses(this: &Shared<OpfTarget>, k: &mut Kernel, owner: u8) {
        loop {
            let (b, finish) = {
                let mut t = this.borrow_mut();
                let Some(fifo) = t.batch_fifo.get_mut(&owner) else {
                    return;
                };
                let Some(&front) = fifo.front() else {
                    return;
                };
                // lint: allow(no-panic) internal invariant: the FIFO only
                // holds live batch slots.
                if !t.batches[front].as_ref().expect("live batch").done {
                    return;
                }
                // lint: allow(no-panic) internal invariant: checked Some
                // a few lines up, nothing removed it since.
                t.batch_fifo.get_mut(&owner).expect("fifo").pop_front();
                // lint: allow(no-panic) internal invariant: as above.
                let b = t.batches[front].take().expect("live batch");
                t.free_batches.push(front);
                let cost = t.costs.build_resp + t.small_send_cost(k);
                let finish = t.reactor.reserve(k.now(), cost).finish;
                (b, finish)
            };
            let this2 = this.clone();
            k.schedule_at(finish, move |k| {
                let mut t = this2.borrow_mut();
                t.stats.resps_tx += 1;
                if !b.is_ls {
                    t.stats.coalesced_resps_tx += 1;
                }
                t.tracer
                    .emit(k.now(), "opf.coalesced_tx", t.id, u64::from(b.drain_cid));
                let cqe = if b.worst.is_ok() {
                    nvme::Cqe::success(b.drain_cid, 0)
                } else {
                    nvme::Cqe::error(b.drain_cid, 0, b.worst)
                };
                let priority = if b.is_ls {
                    Priority::LatencySensitive
                } else {
                    Priority::ThroughputCritical { draining: true }
                };
                t.send_to(k, b.initiator, Pdu::CapsuleResp { cqe, priority });
            });
        }
    }

    /// Transmit a PDU to initiator `to`. The delivery event is scheduled
    /// on the recipient's reactor lane — callers normally already run
    /// there (completion handlers switch lanes first), so this is a
    /// guarantee, not a handoff.
    fn send_to(&mut self, k: &mut Kernel, to: u8, pdu: Pdu) {
        let Some(conn) = self.conns.get(&to) else {
            // Normal paths only send to initiators registered via
            // `connect`, but trust-the-wire routing (enforcement off)
            // can be steered to an ID that never connected. Count and
            // drop rather than aborting the fabric.
            let side = ProtocolSide::Target(self.id);
            self.note_protocol_error(
                k.now(),
                ProtocolError::UnknownInitiator {
                    side,
                    initiator: to,
                },
            );
            return;
        };
        let rx = conn.rx.clone();
        let bytes = pdu.wire_len();
        let lane = self.lane_of.get(&to).copied().unwrap_or(OWNER_SHARD);
        k.with_shard(lane, |k| {
            self.net
                .send(k, &self.ep, &conn.ep, bytes, move |k| rx(k, pdu))
        });
    }

    /// Current length of tenant `initiator`'s TC staging queue (the
    /// shared-queue ablation reports the one shared queue for every
    /// tenant).
    pub fn tc_queue_depth(&self, initiator: u8) -> usize {
        self.reactors
            .get(self.lane_idx(initiator))
            .and_then(|r| r.tc.get(&self.queue_key(initiator)))
            .map_or(0, |s| s.order.len())
    }

    /// Connected tenant ids, in deterministic (BTreeMap) order.
    pub fn tenant_ids(&self) -> Vec<u8> {
        self.conns.keys().copied().collect()
    }

    /// Sum of every tenant's TC staging-queue depth: the load signal the
    /// cluster Priority Manager and the least-loaded placement policy
    /// aggregate per target.
    pub fn total_tc_depth(&self) -> usize {
        self.conns.keys().map(|&t| self.tc_queue_depth(t)).sum()
    }

    /// Set the cluster Priority Manager's drain-rate weight for one
    /// tenant (1.0 = the configured [`DrainRateLimit`] untouched).
    /// A no-op unless `cfg.drain_rate` is set, exactly like the limiter
    /// itself.
    ///
    /// [`DrainRateLimit`]: crate::config::DrainRateLimit
    pub fn set_tenant_weight(&mut self, initiator: u8, weight: f64) {
        self.drain_weights.insert(initiator, weight.max(0.0));
    }

    /// The cluster Priority Manager's current drain-rate weight for one
    /// tenant (1.0 when none has been applied).
    pub fn tenant_weight(&self, initiator: u8) -> f64 {
        self.drain_weights.get(&initiator).copied().unwrap_or(1.0)
    }

    /// Freeze tenant `initiator` and extract its per-tenant protocol
    /// state for live migration: the connection is unregistered, the
    /// 16-bit CID queue is drained in order, and the staged commands it
    /// orders travel with it (DESIGN.md §16).
    ///
    /// Everything already past staging stays put: drained batches keep
    /// their device in-flight slots (their completions are counted and
    /// dropped at `send_to` once the connection is gone), and
    /// writes awaiting H2C data resolve the same way. The initiator
    /// re-drives every outstanding CID at the destination through the
    /// epoch-guarded re-issue path, so nothing stranded here is lost.
    ///
    /// Returns `None` when the tenant is unknown or the target runs the
    /// shared-queue ablation (one queue mixed across tenants cannot be
    /// frozen per tenant) — counted as a protocol error, never a panic.
    pub fn extract_tenant(&mut self, now: SimTime, initiator: u8) -> Option<ExtractedTenant> {
        if matches!(self.cfg.queue_mode, QueueMode::Shared) || !self.conns.contains_key(&initiator)
        {
            let side = ProtocolSide::Target(self.id);
            self.note_protocol_error(now, ProtocolError::UnknownInitiator { side, initiator });
            return None;
        }
        self.conns.remove(&initiator);
        let lane = self.lane_of.remove(&initiator).unwrap_or(OWNER_SHARD);
        if let Some(r) = self.reactors.get_mut(lane as usize) {
            r.tenants.retain(|&t| t != initiator);
        }
        let mut cmds = Vec::new();
        if let Some(mut state) = self
            .reactors
            .get_mut(lane as usize)
            .and_then(|r| r.tc.remove(&initiator))
        {
            let mut keys = std::mem::take(&mut self.drain_keys);
            state.order.drain_all_into(&mut keys);
            for &qkey in &keys {
                let (owner, cid) = decode_key(qkey);
                debug_assert_eq!(owner, initiator);
                if let Some(staged) = state.staged.remove(&(owner, cid)) {
                    // The staged copy leaves with the queue; the source's
                    // recovery live-set entry goes too, so a late wire
                    // duplicate aimed here is handled as unknown, not
                    // double-executed.
                    self.live.remove(&(owner, cid));
                    cmds.push(MovedCmd {
                        sqe: staged.sqe,
                        data: staged.data,
                        needs_data: staged.needs_data,
                    });
                }
            }
            keys.clear();
            self.drain_keys = keys;
        }
        self.drain_buckets.remove(&initiator);
        self.drain_weights.remove(&initiator);
        self.stats.tenants_migrated_out += 1;
        self.stats.cmds_migrated += cmds.len() as u64;
        self.tracer.emit(
            now,
            "opf.migrate_out",
            u32::from(initiator),
            cmds.len() as u64,
        );
        Some(ExtractedTenant {
            initiator,
            source_shard: lane,
            cmds,
        })
    }

    /// Re-register a migrated tenant on this target: the moved CID queue
    /// is replayed into a fresh per-tenant staging queue on reactor
    /// `shard`, preserving drain order, and every moved command enters
    /// the recovery live-set so the initiator's epoch-bumped re-drive of
    /// the same CIDs is suppressed as duplicates (exactly-once across
    /// the move). Returns `false` — counted, nothing clobbered — if the
    /// tenant id is already connected here.
    pub fn adopt_tenant(
        &mut self,
        now: SimTime,
        moved: ExtractedTenant,
        ep: Shared<Endpoint>,
        rx: PduRx,
        shard: u32,
    ) -> bool {
        let initiator = moved.initiator;
        if self.conns.contains_key(&initiator) || initiator == SHARED_KEY {
            let side = ProtocolSide::Target(self.id);
            self.note_protocol_error(now, ProtocolError::UnknownInitiator { side, initiator });
            return false;
        }
        let shard = match self.cfg.queue_mode {
            QueueMode::PerInitiator => shard,
            QueueMode::Shared => OWNER_SHARD,
        };
        self.ensure_reactor(shard);
        self.reactors[shard as usize].tenants.push(initiator);
        self.lane_of.insert(initiator, shard);
        self.conns.insert(initiator, Conn { ep, rx });
        let n = moved.cmds.len() as u64;
        let key = self.queue_key(initiator);
        let lane = self.lane_idx(initiator);
        let recovery = self.recovery;
        let mut overflow = 0u64;
        {
            let state = self.reactors[lane]
                .tc
                .entry(key)
                .or_insert_with(TcState::new);
            for cmd in moved.cmds {
                let cid = cmd.sqe.cid;
                if state.order.push(encode_key(initiator, cid)).is_err() {
                    // A moved queue cannot exceed the destination's
                    // capacity in per-initiator mode (same bound both
                    // sides), but the no-panic rule holds regardless:
                    // shed like any other overflow and let the
                    // initiator's re-drive re-issue the command.
                    overflow += 1;
                    continue;
                }
                state.staged.insert(
                    (initiator, cid),
                    StagedCmd {
                        owner: initiator,
                        sqe: cmd.sqe,
                        data: cmd.data,
                        needs_data: cmd.needs_data,
                    },
                );
                if recovery {
                    self.live.insert((initiator, cid));
                }
            }
            let qlen = state.order.len();
            if qlen > self.stats.max_tc_queue {
                self.stats.max_tc_queue = qlen;
            }
        }
        if overflow > 0 {
            self.stats.tc_overflow_drops += overflow;
            let target = self.id;
            self.stats.protocol_errors += overflow - 1;
            self.note_protocol_error(
                now,
                ProtocolError::TcQueueOverflow {
                    target,
                    initiator,
                    cid: 0,
                },
            );
        }
        self.stats.tenants_migrated_in += 1;
        self.stats.cmds_migrated += n;
        self.tracer
            .emit(now, "opf.migrate_in", u32::from(initiator), n);
        true
    }
}

impl MetricsSource for OpfTarget {
    fn metrics(&self, now: SimTime) -> Metrics {
        let mut m = Metrics::at(now);
        m.set("reactor_util", self.reactor_utilization(now));
        m.set("pdu.cmds_rx", self.stats.cmds_rx as f64);
        m.set("pdu.ls_rx", self.stats.ls_rx as f64);
        m.set("pdu.tc_rx", self.stats.tc_rx as f64);
        m.set("pdu.drains_rx", self.stats.drains_rx as f64);
        m.set("pdu.data_rx", self.stats.data_rx as f64);
        m.set("pdu.resps_tx", self.stats.resps_tx as f64);
        m.set(
            "pdu.coalesced_resps_tx",
            self.stats.coalesced_resps_tx as f64,
        );
        m.set("pdu.r2ts_tx", self.stats.r2ts_tx as f64);
        m.set("pdu.data_tx", self.stats.data_tx as f64);
        m.set("completed", self.stats.completed as f64);
        m.set("ls_bypassed", self.stats.ls_bypassed as f64);
        m.set("max_tc_queue", self.stats.max_tc_queue as f64);
        m.set("max_ready", self.stats.max_ready as f64);
        m.set("backpressured_sends", self.stats.backpressured_sends as f64);
        m.set("tc_inflight", self.tc_inflight as f64);
        m.set("ready_queue", self.ready.len() as f64);
        // Commands retired per completion notification — the Figure 6(c)
        // saving: baseline is 1.0, oPF approaches the window size.
        let ratio = if self.stats.resps_tx > 0 {
            self.stats.completed as f64 / self.stats.resps_tx as f64
        } else {
            0.0
        };
        m.set("coalesce_ratio", ratio);
        // Per-tenant TC staging-queue depth at snapshot time. `conns` is
        // a BTreeMap precisely so this enumeration is deterministic.
        for t in self.conns.keys().copied() {
            m.set(
                format!("tenant{t}.tc_queue_depth"),
                self.tc_queue_depth(t) as f64,
            );
        }
        m.set("protocol_errors", self.stats.protocol_errors as f64);
        // Recovery counters only exist when recovery is enabled, so
        // fault-free snapshots stay bit-identical to the historical ones.
        if self.recovery {
            m.set("dup_cmds_dropped", self.stats.dup_cmds_dropped as f64);
            m.set("r2t_regrants", self.stats.r2t_regrants as f64);
        }
        // Hardening counters only exist when the config deviates from
        // the historical default (a drain limiter configured, or
        // identity enforcement switched off for the adversary baseline
        // column), so pre-hardening snapshots stay bit-identical.
        if self.cfg.drain_rate.is_some() || !self.cfg.enforce_identity {
            m.set("spoofs_dropped", self.stats.spoofs_dropped as f64);
            m.set("drains_suppressed", self.stats.drains_suppressed as f64);
            m.set("tc_overflow_drops", self.stats.tc_overflow_drops as f64);
            m.set("ls_demoted", self.stats.ls_demoted as f64);
        }
        // Migration counters only exist once a migration touched this
        // target, so single-target snapshots stay bit-identical.
        if self.stats.tenants_migrated_out > 0 || self.stats.tenants_migrated_in > 0 {
            m.set("migrated_out", self.stats.tenants_migrated_out as f64);
            m.set("migrated_in", self.stats.tenants_migrated_in as f64);
            m.set("cmds_migrated", self.stats.cmds_migrated as f64);
        }
        m
    }
}
