//! The NVMe-oPF target Priority Manager (Algorithms 3 and 4) — a
//! [`TargetPolicy`] over the one transport target in `nvmf`.
//!
//! Per-initiator TC queues stage throughput-critical commands until the
//! tenant's draining flag arrives; the batch is then metered into the
//! device and acknowledged with **one** coalesced response capsule.
//! Latency-sensitive commands bypass every queue and execute
//! immediately.
//!
//! # Reactors (DESIGN.md §13)
//!
//! Each tenant is hosted by one reactor — a kernel lane,
//! [`SpdkTarget::reactor_of`] — and owns its TC [`CidQueue`] and staged
//! commands. The §IV-A never-shared property is a property of each queue,
//! so one table indexed by tenant ID holds them all. The device, the metered ready
//! queue and the batch table belong to the device-owner reactor: a
//! released command goes straight onto the ready queue, counted in
//! [`OpfTarget::cross_reactor_submits`] when its tenant lives on another
//! reactor, and completions hand back to the tenant's lane before the
//! response is sent. Lanes are labels on kernel events, so reactor
//! count — like shard count — is unobservable in results.

use crate::config::{OpfTargetConfig, QueueMode};
use bytes::Bytes;
use fabric::{Endpoint, Network};
use nvme::{NvmeDevice, Opcode, Sqe, Status};
use nvmf::target::{Dialect, TargetPolicy};
use nvmf::{CpuCosts, Pdu, PduRx, Priority, ProtocolError, SpdkTarget};
use queues::CidQueue;
use simkit::{slot, Kernel, Metrics, MetricsSource, Shared, SimDuration, SimTime, Tracer};
use std::collections::VecDeque;

/// Priority Manager counters; the transport's are in
/// [`OpfTarget::io`]`.stats`.
#[derive(Clone, Debug, Default)]
pub struct OpfTargetStats {
    /// LS commands received.
    pub ls_rx: u64,
    /// TC commands received.
    pub tc_rx: u64,
    /// Draining flags received.
    pub drains_rx: u64,
    /// Coalesced responses among the transport's `resps_tx`.
    pub coalesced_resps_tx: u64,
    /// LS commands that bypassed the TC queues.
    pub ls_bypassed: u64,
    /// High-water mark of any per-initiator TC queue.
    pub max_tc_queue: usize,
    /// High-water mark of the metered ready queue.
    pub max_ready: usize,
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
    /// Staged commands in CID-queue (drain) order.
    cmds: Vec<StagedCmd>,
}

impl ExtractedTenant {
    /// Staged commands riding the move.
    pub fn staged_cmds(&self) -> usize {
        self.cmds.len()
    }
}

/// A TC command staged in a tenant's queue, waiting for a drain (or
/// crossing targets inside an [`ExtractedTenant`]).
struct StagedCmd {
    sqe: Sqe,
    data: Option<Bytes>,
    /// Write whose H2C data has not arrived yet. TC writes are staged at
    /// *command* arrival so a drain covers every earlier command of the
    /// window (the R2T/data round trip would otherwise reorder them past
    /// the drain); execution waits for the data.
    needs_data: bool,
}

/// One tenant's Priority Manager state, indexed by initiator ID.
///
/// In the shared-queue ablation the one order queue mixing tenants is
/// the record of the reserved ID `SHARED_KEY`, and its entries carry the
/// owner in the bits above the CID; staged commands stay with their owner.
#[derive(Default)]
struct Tenant {
    /// The zero-copy CID order queue (§IV-B: it stores only CIDs; the
    /// command buffers are `staged`), made at the first TC command.
    order: Option<CidQueue>,
    /// Staged TC commands, indexed by CID (at most [`CID_MASK`]).
    staged: Vec<Option<StagedCmd>>,
    /// Batch slots in drain order: responses release strictly in it.
    batch_fifo: VecDeque<usize>,
    /// Drained TC writes still waiting for their H2C data, one per CID:
    /// the batch slot to join once the payload lands, and the SQE. A
    /// short list: at most a window's writes wait, where a table indexed
    /// by CID would hold a slot per queue-pair entry.
    awaiting_data: Vec<(usize, Sqe)>,
    /// Drain rate-limit bucket, made at the first drain when
    /// `cfg.drain_rate` is set.
    bucket: Option<DrainBucket>,
    /// Drain-rate weight set by the cluster Priority Manager (`None` =
    /// 1.0, the configured rate untouched).
    weight: Option<f64>,
    /// Registered throughput-critical at connect time: its LS flags are
    /// forged by definition and demoted under enforcement.
    ls_denied: bool,
}

const OWNER_SHIFT: u16 = 10;
const CID_MASK: u16 = (1 << OWNER_SHIFT) - 1;

/// Deepest queue pair whose CIDs fit the queue keys' CID field; the
/// transport drops a command capsule carrying a CID past it
/// ([`Dialect::max_cid`]) before it can reach `encode_key`.
pub const MAX_QUEUE_DEPTH: usize = 1 << OWNER_SHIFT;

fn encode_key(owner: u8, cid: u16) -> u16 {
    debug_assert!(cid <= CID_MASK, "CID {cid} exceeds the shared-queue bound");
    debug_assert!(owner < 64, "owner {owner} exceeds the shared-queue bound");
    (u16::from(owner) << OWNER_SHIFT) | cid
}

fn decode_key(key: u16) -> (u8, u16) {
    ((key >> OWNER_SHIFT) as u8, key & CID_MASK)
}

impl Tenant {
    fn order(&mut self) -> &mut CidQueue {
        self.order.get_or_insert_with(|| CidQueue::new(2048))
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

/// Maximum TC commands in flight at the device. The PM meters drained
/// batches into the device so TC floods do not monopolise the flash
/// units ahead of bypassing LS requests (§III-A: the PMs "control
/// request completion times ... with respect to application
/// optimization objectives").
const TC_INFLIGHT_CAP: usize = 64;

/// The NVMe-oPF target: the transport target ([`nvmf::SpdkTarget`] —
/// connections, wire checks, R2T grants, duplicate suppression, sends)
/// plus the Priority Manager: per-tenant TC queues, drained batches
/// metered into the device, one coalesced response per drain, and the
/// LS bypass.
pub struct OpfTarget {
    /// The transport this Priority Manager drives.
    pub io: SpdkTarget,
    cfg: OpfTargetConfig,
    /// Per-tenant state indexed by initiator ID: the per-initiator TC
    /// queues of the §IV-A lock-free design (or the one shared queue
    /// under `SHARED_KEY` in the ablation mode) and what rides with them.
    tenants: Vec<Tenant>,
    /// Released commands whose tenant is hosted off the device owner.
    cross_reactor_submits: u64,
    /// Drained batches in flight. Slots are recycled via a free list.
    batches: Vec<Option<Batch>>,
    free_batches: Vec<usize>,
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
    /// Counters.
    pub stats: OpfTargetStats,
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
        let mut io = SpdkTarget::new(id, net, ep, device, costs, tracer);
        io.set_hardening(cfg.enforce_identity);
        OpfTarget {
            io,
            cfg,
            tenants: Vec::new(),
            cross_reactor_submits: 0,
            batches: Vec::new(),
            free_batches: Vec::new(),
            ready: VecDeque::new(),
            drain_keys: Vec::new(),
            groups: Vec::new(),
            group_pool: Vec::new(),
            tc_inflight: 0,
            stats: OpfTargetStats::default(),
        }
    }

    /// Device submissions that crossed reactors (released for a tenant
    /// hosted off the device owner).
    pub fn cross_reactor_submits(&self) -> u64 {
        self.cross_reactor_submits
    }

    /// Enable duplicate-command suppression (set by recovery-enabled
    /// deployments whose initiators may retransmit).
    pub fn set_recovery(&mut self, on: bool) {
        self.io.set_recovery(on);
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
        if !self.register(initiator, ep, rx, shard) {
            self.io.note_unknown(SimTime::ZERO, initiator);
        }
    }

    /// Enter `initiator` into the transport's registry and onto its
    /// reactor; false (nothing clobbered) when it is already connected
    /// or names the reserved shared-queue key.
    fn register(&mut self, initiator: u8, ep: Shared<Endpoint>, rx: PduRx, shard: u32) -> bool {
        let shard = match self.cfg.queue_mode {
            QueueMode::PerInitiator => shard,
            QueueMode::Shared => OWNER_SHARD,
        };
        initiator != SHARED_KEY && self.io.register(initiator, ep, rx, shard)
    }

    /// Register `initiator`'s connection as throughput-critical: any
    /// LS flag it carries is forged by definition and — while
    /// `enforce_identity` holds — is demoted to plain TC instead of
    /// jumping the bypass queue (class admission control, DESIGN.md
    /// §14). Untracked connections keep the historical trust-the-wire
    /// behavior, so existing setups are unaffected.
    pub fn deny_ls(&mut self, initiator: u8) {
        self.record(initiator).ls_denied = true;
    }

    /// Tenant `initiator`'s record, made on first use.
    fn record(&mut self, initiator: u8) -> &mut Tenant {
        slot(&mut self.tenants, initiator.into(), Tenant::default)
    }

    /// Hand a released command to the device-owner reactor's metered
    /// ready queue.
    fn post_ready(&mut self, cmd: ReadyCmd) {
        if self.io.reactor_of(cmd.initiator) != OWNER_SHARD {
            self.cross_reactor_submits += 1;
        }
        self.ready.push_back(cmd);
        self.stats.max_ready = self.stats.max_ready.max(self.ready.len());
    }

    fn queue_key(&self, initiator: u8) -> u8 {
        match self.cfg.queue_mode {
            QueueMode::PerInitiator => initiator,
            QueueMode::Shared => SHARED_KEY,
        }
    }

    /// The order-queue entry for `owner`'s `cid`: the CID itself, with
    /// the owner in the bits above it when one queue mixes tenants.
    fn queue_entry(&self, owner: u8, cid: u16) -> u16 {
        match self.cfg.queue_mode {
            QueueMode::PerInitiator => cid,
            QueueMode::Shared => encode_key(owner, cid),
        }
    }

    /// Deliver a PDU arriving from initiator `from`.
    pub fn on_pdu(this: &Shared<OpfTarget>, k: &mut Kernel, from: u8, pdu: Pdu) {
        SpdkTarget::on_pdu(this, k, from, pdu);
    }
}

/// The Priority Manager as a policy over the transport target.
impl TargetPolicy for OpfTarget {
    const DIALECT: Dialect = Dialect {
        cmd_rx: "opf.cmd_rx",
        dev_submit: "opf.dev_submit",
        dev_done: "opf.dev_done",
        resp_tx: "opf.ls_resp_tx",
        resp_by_target: true,
        max_cid: CID_MASK,
        device_lane: Some(OWNER_SHARD),
        forget_at_completion: true,
        submit_with_parse: false,
        tc_writes_early: true,
    };

    fn transport(&mut self) -> &mut SpdkTarget {
        &mut self.io
    }

    /// Algorithm 3 entry: settle the command's class. A TC write is
    /// taken at R2T grant so the drain ordering covers it (see
    /// `StagedCmd::needs_data`); LS and untagged writes classify once
    /// their data arrives.
    fn admit(&mut self, now: SimTime, from: u8, sqe: &Sqe, priority: Priority) -> Option<Priority> {
        // Class admission control: the LS bit on a connection registered
        // throughput-critical is forged — demote it to plain TC so it
        // cannot jump the bypass queue. Only under enforcement; the
        // baseline trusts the wire.
        let priority =
            if priority.is_ls() && self.cfg.enforce_identity && self.record(from).ls_denied {
                self.stats.ls_demoted += 1;
                let target = self.io.id;
                self.io.note(
                    now,
                    ProtocolError::ForgedPriority {
                        target,
                        initiator: from,
                        cid: sqe.cid,
                    },
                );
                Priority::ThroughputCritical { draining: false }
            } else {
                priority
            };
        match priority {
            Priority::LatencySensitive => self.stats.ls_rx += 1,
            Priority::ThroughputCritical { draining } => {
                self.stats.tc_rx += 1;
                if draining {
                    self.stats.drains_rx += 1;
                }
            }
            Priority::None => {}
        }
        if sqe.opcode == Opcode::Write && self.io.is_live(from, sqe.cid) {
            // Retransmitted write: the transport re-grants the transfer;
            // `run` will drop the duplicate command.
            self.io.stats.r2t_regrants += 1;
        }
        Some(priority)
    }

    /// The payload of a TC write: attach it to the staged command, or
    /// release the command into its batch if the drain already passed.
    fn on_data(this: &Shared<Self>, k: &mut Kernel, from: u8, cccid: u16, data: Bytes) {
        let finish = {
            let mut t = this.borrow_mut();
            let cost = t.io.costs().handle_data;
            t.io.reserve(k.now(), cost)
        };
        let this2 = this.clone();
        k.schedule_at(finish, move |k| {
            let mut t = this2.borrow_mut();
            let awaiting = &mut t.record(from).awaiting_data;
            let i = awaiting.iter().position(|(_, sqe)| sqe.cid == cccid);
            if let Some((batch, sqe)) = i.map(|i| awaiting.swap_remove(i)) {
                t.post_ready(ReadyCmd {
                    initiator: from,
                    sqe,
                    data: Some(data),
                    batch,
                });
                drop(t);
                return Self::pump(&this2, k);
            }
            match t.record(from).staged.get_mut(usize::from(cccid)) {
                Some(Some(staged)) => {
                    staged.data = Some(data);
                    staged.needs_data = false;
                }
                _ => t.io.stray_data(k.now(), cccid),
            }
        });
    }

    /// Algorithm 3 body: LS (and untagged) commands go straight to
    /// execution; TC commands are staged; a draining TC command flushes
    /// its tenant's queue.
    fn run(
        this: &Shared<Self>,
        k: &mut Kernel,
        from: u8,
        sqe: Sqe,
        priority: Priority,
        data: Option<Bytes>,
    ) {
        {
            let mut t = this.borrow_mut();
            if !t.io.first_sighting(from, sqe.cid) {
                // Retransmit of a command still staged, batched or at
                // the device: exactly-once execution demands we drop it
                // here.
                t.io.stats.dup_cmds_dropped += 1;
                return;
            }
        }
        match priority {
            Priority::ThroughputCritical { draining } => {
                let flush = {
                    let mut t = this.borrow_mut();
                    let t = &mut *t;
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
                            let rec = slot(&mut t.tenants, from.into(), Tenant::default);
                            let weight = rec.weight.unwrap_or(1.0);
                            let bucket = rec.bucket.get_or_insert(DrainBucket {
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
                    let (key, entry) = (t.queue_key(from), t.queue_entry(from, sqe.cid));
                    let order = t.record(key).order();
                    if order.push(entry).is_err() {
                        // Staging queue full. The queue is sized for
                        // QD + window, so honest closed-loop tenants never
                        // get here — only a flood does. Count and drop;
                        // a recovering sender retransmits.
                        t.io.forget(from, sqe.cid);
                        t.stats.tc_overflow_drops += 1;
                        let target = t.io.id;
                        t.io.note(
                            k.now(),
                            ProtocolError::TcQueueOverflow {
                                target,
                                initiator: from,
                                cid: sqe.cid,
                            },
                        );
                        return;
                    }
                    let qlen = order.len();
                    let needs_data = sqe.opcode == Opcode::Write && data.is_none();
                    let staged = &mut t.record(from).staged;
                    *slot(staged, sqe.cid.into(), || None) = Some(StagedCmd {
                        sqe,
                        data,
                        needs_data,
                    });
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
                // Bypass: execute immediately, outside the TC meter — it
                // is the express lane, and metering it through the
                // owner's ready queue is exactly what §IV-A forbids — and
                // respond per request on the tenant's reactor.
                {
                    let mut t = this.borrow_mut();
                    t.stats.ls_bypassed += 1;
                    let cost = t.io.costs().submit_dev;
                    t.io.reserve(k.now(), cost);
                }
                SpdkTarget::submit_dev(this, k, from, sqe, data, move |this, k, result| {
                    SpdkTarget::respond(this, k, from, sqe, priority, result);
                });
            }
            _ => {
                // LS with bypass disabled (ablation) or untagged traffic:
                // ride the metered path as a degenerate one-command batch.
                let mut t = this.borrow_mut();
                let batch = t.new_batch(from, sqe.cid, 1, priority.is_ls());
                t.post_ready(ReadyCmd {
                    initiator: from,
                    sqe,
                    data,
                    batch,
                });
                drop(t);
                Self::pump(this, k);
            }
        }
    }
}

impl OpfTarget {
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
        self.record(initiator).batch_fifo.push_back(idx);
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
            let Some(order) = t.record(key).order.as_mut() else {
                put_back(&mut t, keys, groups, pool);
                return;
            };
            order.drain_all_into(&mut keys);
            if keys.is_empty() {
                put_back(&mut t, keys, groups, pool);
                return;
            }
            // Group the flushed commands by owning tenant (one group in
            // per-initiator mode). Each group becomes a batch whose
            // coalesced response goes to that tenant, acknowledged by the
            // tenant's most recent flushed CID.
            // `order` and `staged` are updated together in `run`,
            // so a queue key with no staged command is only reachable
            // when trust-the-wire mode (enforce_identity=false) lets a
            // spoofed duplicate collide with a staged CID. Skip and
            // count instead of panicking; batches are built only from
            // commands actually found, so accounting stays consistent.
            let mut stale: Option<u16> = None;
            let mut stale_n: u64 = 0;
            for &entry in &keys {
                let (owner, cid) = match t.cfg.queue_mode {
                    QueueMode::PerInitiator => (from, entry),
                    QueueMode::Shared => decode_key(entry),
                };
                let staged = t.record(owner).staged.get_mut(usize::from(cid));
                let Some(staged) = staged.and_then(Option::take) else {
                    stale = Some(cid);
                    stale_n += 1;
                    continue;
                };
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
                let side = t.io.side();
                t.io.stats.protocol_errors += stale_n - 1;
                t.io.note(k.now(), ProtocolError::UnknownCid { side, cid });
            }

            // Reactor cost: flushing is a queue walk + submits.
            let n: usize = groups.iter().map(|(_, v)| v.len()).sum();
            let cost = t.io.costs().submit_dev * n as u64;
            t.io.reserve(k.now(), cost);

            for (owner, cmds) in &mut groups {
                let owner = *owner;
                #[expect(
                    clippy::expect_used,
                    reason = "internal invariant: groups are created non-empty just above"
                )]
                let ack_cid = if owner == from {
                    drain_cid
                } else {
                    // Shared-queue ablation: acknowledge the tenant's last
                    // flushed command.
                    cmds.last().expect("non-empty group").sqe.cid
                };
                let batch = t.new_batch(owner, ack_cid, cmds.len(), false);
                for cmd in cmds.drain(..) {
                    if cmd.needs_data {
                        // Drained before its H2C data landed: joins the
                        // batch when the payload arrives.
                        let awaiting = &mut t.record(owner).awaiting_data;
                        awaiting.retain(|(_, sqe)| sqe.cid != cmd.sqe.cid);
                        awaiting.push((batch, cmd.sqe));
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
                if t.tc_inflight >= TC_INFLIGHT_CAP {
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
            let ReadyCmd {
                initiator,
                sqe,
                data,
                batch,
            } = cmd;
            SpdkTarget::submit_dev(this, k, initiator, sqe, data, move |this, k, result| {
                Self::on_tc_done(this, k, initiator, sqe, batch, result);
            });
        })
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
            t.io.stats.completed += 1;
            t.tc_inflight -= 1;
            let lane = t.io.reactor_of(from);
            // From here on a retransmit of this command re-executes
            // (idempotently) rather than being suppressed — necessary,
            // since its response may still be lost on the way back.
            t.io.forget(from, sqe.cid);
            let mut cost = SimDuration::ZERO;
            if result.data.is_some() {
                cost += t.io.costs().send_data;
            }
            #[expect(
                clippy::expect_used,
                reason = "internal invariant: batch slots are freed only after their last completion (below)"
            )]
            let b = t.batches[batch].as_mut().expect("live batch");
            b.remaining -= 1;
            if !result.cqe.status.is_ok() && b.worst == Status::Success {
                b.worst = result.cqe.status;
            }
            if b.remaining == 0 {
                b.done = true;
            }
            (t.io.reserve(k.now(), cost), lane)
        };

        let this2 = this.clone();
        // Hand the completion back to the owning reactor: data send,
        // response release and delivery all run on the tenant's lane
        // (`pump` re-enters the owner lane itself).
        k.with_shard(lane, |k| {
            k.schedule_at(finish, move |k| {
                if let Some(bytes) = result.data {
                    this2.borrow_mut().io.send_data(k, from, sqe.cid, bytes);
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
                let Some(&front) = t.record(owner).batch_fifo.front() else {
                    return;
                };
                #[expect(
                    clippy::expect_used,
                    reason = "internal invariant: the FIFO only holds live batch slots"
                )]
                if !t.batches[front].as_ref().expect("live batch").done {
                    return;
                }
                t.record(owner).batch_fifo.pop_front();
                #[expect(
                    clippy::expect_used,
                    reason = "internal invariant: the FIFO only holds live batch slots"
                )]
                let b = t.batches[front].take().expect("live batch");
                t.free_batches.push(front);
                let cost = t.io.costs().build_resp + t.io.small_send_cost(k);
                (b, t.io.reserve(k.now(), cost))
            };
            let this2 = this.clone();
            k.schedule_at(finish, move |k| {
                let mut t = this2.borrow_mut();
                if !b.is_ls {
                    t.stats.coalesced_resps_tx += 1;
                }
                let id = t.io.id;
                t.io.trace(k.now(), "opf.coalesced_tx", id, u64::from(b.drain_cid));
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
                t.io.send_resp(k, b.initiator, cqe, priority);
            });
        }
    }

    /// Current length of tenant `initiator`'s TC staging queue (the
    /// shared-queue ablation reports the one shared queue for every
    /// tenant).
    pub fn tc_queue_depth(&self, initiator: u8) -> usize {
        let rec = self.tenants.get(usize::from(self.queue_key(initiator)));
        rec.and_then(|r| r.order.as_ref()).map_or(0, CidQueue::len)
    }

    /// Connected tenant ids, in ascending order.
    pub fn tenant_ids(&self) -> Vec<u8> {
        self.io.tenant_ids().collect()
    }

    /// Sum of every tenant's TC staging-queue depth: the load signal the
    /// cluster Priority Manager aggregates per target.
    pub fn total_tc_depth(&self) -> usize {
        self.io.tenant_ids().map(|t| self.tc_queue_depth(t)).sum()
    }

    /// Set the cluster Priority Manager's drain-rate weight for one
    /// tenant (1.0 = the configured [`DrainRateLimit`] untouched).
    /// A no-op unless `cfg.drain_rate` is set, exactly like the limiter
    /// itself.
    ///
    /// [`DrainRateLimit`]: crate::config::DrainRateLimit
    pub fn set_tenant_weight(&mut self, initiator: u8, weight: f64) {
        self.record(initiator).weight = Some(weight.max(0.0));
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
        let per_tenant = matches!(self.cfg.queue_mode, QueueMode::PerInitiator);
        if !per_tenant || self.io.unregister(initiator).is_none() {
            self.io.note_unknown(now, initiator);
            return None;
        }
        let mut cmds = Vec::new();
        let rec = self.record(initiator);
        let (order, mut staged) = (rec.order.take(), std::mem::take(&mut rec.staged));
        (rec.bucket, rec.weight) = (None, None);
        if let Some(mut order) = order {
            let mut keys = std::mem::take(&mut self.drain_keys);
            order.drain_all_into(&mut keys);
            for &cid in &keys {
                if let Some(cmd) = staged.get_mut(usize::from(cid)).and_then(Option::take) {
                    // The staged copy leaves with the queue; the source's
                    // recovery live-set entry goes too, so a late wire
                    // duplicate aimed here is handled as unknown, not
                    // double-executed.
                    self.io.forget(initiator, cid);
                    cmds.push(cmd);
                }
            }
            self.drain_keys = keys;
        }
        let n = cmds.len() as u64;
        self.stats.tenants_migrated_out += 1;
        self.stats.cmds_migrated += n;
        self.io
            .trace(now, "opf.migrate_out", u32::from(initiator), n);
        Some(ExtractedTenant { initiator, cmds })
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
        if !self.register(initiator, ep, rx, shard) {
            self.io.note_unknown(now, initiator);
            return false;
        }
        let n = moved.cmds.len() as u64;
        let key = self.queue_key(initiator);
        let mut overflow = 0u64;
        for cmd in moved.cmds {
            let cid = cmd.sqe.cid;
            let entry = self.queue_entry(initiator, cid);
            if self.record(key).order().push(entry).is_err() {
                // A moved queue cannot exceed the destination's
                // capacity in per-initiator mode (same bound both
                // sides), but the no-panic rule holds regardless:
                // shed like any other overflow and let the
                // initiator's re-drive re-issue the command.
                overflow += 1;
                continue;
            }
            *slot(&mut self.record(initiator).staged, cid.into(), || None) = Some(cmd);
            self.io.first_sighting(initiator, cid);
        }
        let qlen = self.record(key).order().len();
        if qlen > self.stats.max_tc_queue {
            self.stats.max_tc_queue = qlen;
        }
        if overflow > 0 {
            self.stats.tc_overflow_drops += overflow;
            let target = self.io.id;
            self.io.stats.protocol_errors += overflow - 1;
            self.io.note(
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
        self.io
            .trace(now, "opf.migrate_in", u32::from(initiator), n);
        true
    }
}

impl MetricsSource for OpfTarget {
    fn metrics(&self, now: SimTime) -> Metrics {
        let mut m = self.io.transport_metrics(now);
        m.set("pdu.ls_rx", self.stats.ls_rx as f64);
        m.set("pdu.tc_rx", self.stats.tc_rx as f64);
        m.set("pdu.drains_rx", self.stats.drains_rx as f64);
        m.set(
            "pdu.coalesced_resps_tx",
            self.stats.coalesced_resps_tx as f64,
        );
        m.set("ls_bypassed", self.stats.ls_bypassed as f64);
        m.set("max_tc_queue", self.stats.max_tc_queue as f64);
        m.set("max_ready", self.stats.max_ready as f64);
        m.set("tc_inflight", self.tc_inflight as f64);
        m.set("ready_queue", self.ready.len() as f64);
        // Per-tenant TC staging-queue depth at snapshot time, in the
        // registry's deterministic order.
        for t in self.io.tenant_ids() {
            m.set(
                format!("tenant{t}.tc_queue_depth"),
                self.tc_queue_depth(t) as f64,
            );
        }
        // Hardening counters only exist when the config deviates from
        // the historical default (a drain limiter configured, or
        // identity enforcement switched off for the adversary baseline
        // column), so pre-hardening snapshots stay bit-identical.
        if self.cfg.drain_rate.is_some() || !self.cfg.enforce_identity {
            m.set("spoofs_dropped", self.io.stats.spoofs_dropped as f64);
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

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::{FabricConfig, Gbps};
    use nvme::FlashProfile;
    use simkit::{shared, RecordingSink};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Every PDU the target sent, with the tenant it went to.
    type Inbox = Rc<RefCell<Vec<(u8, Pdu)>>>;

    fn target(
        net: &Network,
        id: u32,
        mode: QueueMode,
    ) -> (Shared<OpfTarget>, Shared<RecordingSink>) {
        let device = shared(NvmeDevice::new(FlashProfile::cl_ssd(), 1 << 20, 5));
        device.borrow_mut().set_store_data(false);
        let cfg = OpfTargetConfig {
            queue_mode: mode,
            ..OpfTargetConfig::default()
        };
        let (trace, tracer) = Tracer::recording();
        let ep = net.add_endpoint(format!("tgt{id}"));
        let t = OpfTarget::new(id, net.clone(), ep, device, CpuCosts::cl(), cfg, tracer);
        (shared(t), trace)
    }

    fn sink(id: u8, inbox: &Inbox) -> PduRx {
        let inbox = inbox.clone();
        Rc::new(move |_, pdu| inbox.borrow_mut().push((id, pdu)))
    }

    fn connect(net: &Network, t: &Shared<OpfTarget>, ids: &[u8], inbox: &Inbox) {
        for &id in ids {
            let ep = net.add_endpoint(format!("ini{id}"));
            t.borrow_mut().connect(id, ep, sink(id, inbox));
        }
    }

    /// A one-block TC read capsule from `from`.
    fn tc(t: &Shared<OpfTarget>, k: &mut Kernel, from: u8, cid: u16, draining: bool) {
        let pdu = Pdu::CapsuleCmd {
            sqe: Sqe::read(cid, 1, u64::from(cid), 1),
            priority: Priority::ThroughputCritical { draining },
            initiator: from,
        };
        OpfTarget::on_pdu(t, k, from, pdu);
    }

    /// (tenant, CID) of every response capsule sent, sorted.
    fn responses(inbox: &Inbox) -> Vec<(u8, u16)> {
        let mut r: Vec<_> = (inbox.borrow().iter())
            .filter_map(|(id, pdu)| match pdu {
                Pdu::CapsuleResp { cqe, .. } => Some((*id, cqe.cid)),
                _ => None,
            })
            .collect();
        r.sort_unstable();
        r
    }

    #[test]
    fn tenant_ids_0_and_254_work_and_the_shared_key_is_refused() {
        let (mut k, net) = (
            Kernel::new(3),
            Network::new(FabricConfig::preset(Gbps::G100)),
        );
        let (t, _) = target(&net, 0, QueueMode::PerInitiator);
        let inbox = Inbox::default();
        connect(&net, &t, &[254, 0, SHARED_KEY], &inbox);
        assert_eq!(t.borrow().tenant_ids(), [0, 254]);
        assert_eq!(t.borrow().io.stats.protocol_errors, 1, "255 refused");
        for id in [0, 254] {
            tc(&t, &mut k, id, 1, false);
            tc(&t, &mut k, id, 2, true);
        }
        k.run_to_completion();
        assert_eq!(responses(&inbox), [(0, 2), (254, 2)]);
        let t = t.borrow();
        assert_eq!(t.io.stats.completed, 4);
        assert_eq!(t.io.stats.protocol_errors, 1);
    }

    #[test]
    fn shared_queue_stages_the_same_cid_for_two_tenants() {
        let (mut k, net) = (
            Kernel::new(3),
            Network::new(FabricConfig::preset(Gbps::G100)),
        );
        let (t, _) = target(&net, 0, QueueMode::Shared);
        let inbox = Inbox::default();
        connect(&net, &t, &[1, 2], &inbox);
        tc(&t, &mut k, 1, 5, false);
        tc(&t, &mut k, 2, 5, false);
        k.run_to_completion();
        {
            let t = t.borrow();
            assert_eq!((t.tc_queue_depth(1), t.tc_queue_depth(2)), (2, 2));
            assert!(t.tenants[1].staged[5].is_some() && t.tenants[2].staged[5].is_some());
        }
        // Tenant 1's drain flushes both: each tenant gets its own response.
        tc(&t, &mut k, 1, 6, true);
        k.run_to_completion();
        assert_eq!(responses(&inbox), [(1, 6), (2, 5)]);
        let t = t.borrow();
        assert_eq!(t.io.stats.completed, 3);
        assert_eq!(t.io.stats.protocol_errors, 0);
    }

    #[test]
    fn a_partly_drained_queue_moves_across_targets_in_drain_order() {
        let (mut k, net) = (
            Kernel::new(3),
            Network::new(FabricConfig::preset(Gbps::G100)),
        );
        let (a, _) = target(&net, 0, QueueMode::PerInitiator);
        let (b, b_trace) = target(&net, 1, QueueMode::PerInitiator);
        let inbox = Inbox::default();
        connect(&net, &a, &[3], &inbox);
        // The drain on CID 0 flushes 2 and 0; 9, 3 and 6 stay staged.
        for (cid, draining) in [(2, false), (0, true), (9, false), (3, false), (6, false)] {
            tc(&a, &mut k, 3, cid, draining);
        }
        k.run_to_completion();
        assert_eq!(a.borrow().tc_queue_depth(3), 3);
        let moved = a
            .borrow_mut()
            .extract_tenant(k.now(), 3)
            .expect("connected");
        let cids: Vec<u16> = moved.cmds.iter().map(|c| c.sqe.cid).collect();
        assert_eq!(cids, [9, 3, 6]);
        assert_eq!(a.borrow().tc_queue_depth(3), 0);
        assert!(a.borrow().tenant_ids().is_empty());

        let ep = net.add_endpoint("ini3@b");
        assert!(b
            .borrow_mut()
            .adopt_tenant(k.now(), moved, ep, sink(3, &inbox), 0));
        assert_eq!(b.borrow().tc_queue_depth(3), 3);
        tc(&b, &mut k, 3, 8, true);
        k.run_to_completion();
        let submitted: Vec<u64> = (b_trace.borrow().events.iter())
            .filter(|e| e.kind == "opf.dev_submit")
            .map(|e| e.detail)
            .collect();
        assert_eq!(submitted, [9, 3, 6, 8]);
        assert_eq!(responses(&inbox), [(3, 0), (3, 8)]);
        assert_eq!(b.borrow().io.stats.completed, 4);
    }
}
