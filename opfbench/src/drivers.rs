//! The **D** drivers: each layer driven in isolation, from outside,
//! through its public functions only, on a kernel of the driver's own.
//!
//! A driver's time includes the event kernel underneath the layer, so
//! layer cost is reported as *self* time: driver time minus
//! `events × simkit hold cost` at the pending depth the driver ran at
//! (and, for the protocol pairs that cannot be built without a real
//! fabric and device, minus those layers' own self time per message and
//! per command). Self times are estimates composed from outside; the
//! attribution table built on them says so.

use crate::alloc;
use crate::micro::{self, best_of, Budget, HoldCurve, RepCounts, Timed};
use crate::workloads::{self, Scale, Workload};
use bytes::Bytes;
use fabric::{FabricConfig, Gbps, Network};
use nvme::{FlashProfile, NvmeDevice, Opcode, Sqe, BLOCK_SIZE};
use opf::ReqClass;
use simkit::{shared, Kernel, Shared, SimTime, Stopwatch};
use std::cell::Cell;
use std::rc::Rc;
use workload::scenario::Speed;
use workload::{Pair, RuntimeKind};

fn self_ns(t: &Timed, hold: &HoldCurve) -> f64 {
    (t.ns_per_op() - t.events_per_op() * hold.at(t.depth)).max(0.0)
}

struct FabricPump {
    net: Network,
    a: Shared<fabric::Endpoint>,
    b: Shared<fabric::Endpoint>,
    bytes: usize,
    left: Cell<u64>,
}

fn fabric_send(p: Rc<FabricPump>, k: &mut Kernel) {
    if p.left.get() == 0 {
        return;
    }
    p.left.set(p.left.get() - 1);
    let p2 = p.clone();
    p.net
        .send(k, &p.a, &p.b, p.bytes, move |k| fabric_send(p2, k));
}

/// `Network::send` of `bytes`-sized messages between two endpoints,
/// 64 in flight, with a delivery callback that only sends the next.
pub fn fabric_msgs(bytes: usize, b: Budget) -> Timed {
    let msgs = b.of(200_000);
    best_of(msgs, || {
        let mut k = Kernel::new(3);
        let net = Network::new(FabricConfig::preset(Gbps::G100));
        let p = Rc::new(FabricPump {
            a: net.add_endpoint("a"),
            b: net.add_endpoint("b"),
            net,
            bytes,
            left: Cell::new(msgs),
        });
        let sw = Stopwatch::start();
        for _ in 0..64 {
            fabric_send(p.clone(), &mut k);
        }
        k.run_to_completion();
        (
            sw.elapsed_secs(),
            RepCounts {
                events: k.events_executed(),
                depth: 64,
            },
        )
    })
}

struct DevicePump {
    dev: Shared<NvmeDevice>,
    opcode: Opcode,
    blocks: u16,
    payload: Option<Bytes>,
    left: Cell<u64>,
    next: Cell<u64>,
}

fn device_submit(p: Rc<DevicePump>, k: &mut Kernel) {
    if p.left.get() == 0 {
        return;
    }
    p.left.set(p.left.get() - 1);
    let n = p.next.get();
    p.next.set(n + 1);
    let slba = (n % 4096) * u64::from(p.blocks);
    let sqe = match p.opcode {
        Opcode::Write => Sqe::write((n % 1024) as u16, 1, slba, p.blocks),
        _ => Sqe::read((n % 1024) as u16, 1, slba, p.blocks),
    };
    let p2 = p.clone();
    NvmeDevice::submit(&p.dev, k, sqe, p.payload.clone(), move |k, r| {
        std::hint::black_box(r.data.as_ref().map(Bytes::len));
        device_submit(p2, k);
    });
}

/// `NvmeDevice::submit` in a closed loop of 32, timing-only media (the
/// mode every benchmark workload runs the device in).
pub fn nvme_cmds(opcode: Opcode, blocks: u16, b: Budget) -> Timed {
    // A 128 KiB read materialises its data: ~40x the cost of the others.
    let cmds = b.of(if blocks > 1 && opcode == Opcode::Read {
        8_000
    } else {
        100_000
    });
    best_of(cmds, || {
        let mut k = Kernel::new(5);
        let dev = shared(NvmeDevice::new(FlashProfile::cl_ssd(), 1 << 30, 5));
        dev.borrow_mut().set_store_data(false);
        let p = Rc::new(DevicePump {
            dev,
            opcode,
            blocks,
            payload: (opcode == Opcode::Write)
                .then(|| Bytes::from(vec![0u8; BLOCK_SIZE * blocks as usize])),
            left: Cell::new(cmds),
            next: Cell::new(0),
        });
        let sw = Stopwatch::start();
        for _ in 0..32 {
            device_submit(p.clone(), &mut k);
        }
        k.run_to_completion();
        (
            sw.elapsed_secs(),
            RepCounts {
                events: k.events_executed(),
                depth: 32,
            },
        )
    })
}

/// What a bench-owned closed-loop pump issues through a [`Pair`].
#[derive(Clone)]
pub struct PumpSpec {
    /// Request class (the SPDK pair ignores it).
    pub class: ReqClass,
    /// Read/write mix.
    pub mix: workload::Mix,
    /// I/O size in 4 KiB blocks.
    pub blocks: u16,
    /// Shared write payload.
    pub payload: Bytes,
    /// Stop issuing at this simulated instant.
    pub end: SimTime,
}

/// Issue request `n` of `tenant`; its completion issues `n + 1`.
pub fn pump(pair: Rc<Pair>, k: &mut Kernel, tenant: usize, spec: Rc<PumpSpec>, n: u64) {
    if k.now() >= spec.end {
        return;
    }
    let (opcode, payload) = if spec.mix.is_read(n) {
        (Opcode::Read, None)
    } else {
        (Opcode::Write, Some(spec.payload.clone()))
    };
    let slba = (tenant as u64 * 8192 + n % 4096) * u64::from(spec.blocks);
    let (p2, s2) = (pair.clone(), spec.clone());
    pair.initiators[tenant].submit(
        k,
        spec.class,
        opcode,
        slba,
        spec.blocks,
        payload,
        Box::new(move |k, _| pump(p2, k, tenant, s2, n + 1)),
    );
}

/// One protocol pair driven by a bench-owned pump.
pub struct PairRun {
    /// Timing; one operation = one completed I/O.
    pub timed: Timed,
    /// Fabric messages per completed I/O (PDUs through the target).
    pub msgs_per_io: f64,
}

/// One tenant at queue depth `qd` against one target of `runtime`,
/// built by `workload::build_pair`, for `sim_s` simulated seconds.
pub fn pair_run(
    runtime: RuntimeKind,
    class: ReqClass,
    mix: workload::Mix,
    qd: usize,
    sim_s: f64,
) -> PairRun {
    let end = SimTime::from_nanos((sim_s * 1e9) as u64);
    let ios = Cell::new(0u64);
    let msgs = Cell::new(0.0f64);
    let timed = best_of(1, || {
        let mut k = Kernel::new(11);
        let pair = Rc::new(workload::build_pair(
            &mut k,
            runtime,
            Speed::G100,
            1,
            qd,
            opf::WindowPolicy::Static(32),
            11,
            true,
        ));
        let spec = Rc::new(PumpSpec {
            class,
            mix,
            blocks: 1,
            payload: Bytes::from(vec![0u8; BLOCK_SIZE]),
            end,
        });
        let depth = Rc::new(Cell::new(0usize));
        let d2 = depth.clone();
        k.schedule_at(SimTime::from_nanos((sim_s * 0.5e9) as u64), move |k| {
            d2.set(k.events_pending())
        });
        k.set_horizon(end);
        let sw = Stopwatch::start();
        for q in 0..qd as u64 {
            pump(pair.clone(), &mut k, 0, spec.clone(), q);
        }
        k.run_to_completion();
        let wall = sw.elapsed_secs();
        let m = pair.metrics(k.now());
        ios.set(m.get("ini0.completed").unwrap_or(0.0) as u64);
        msgs.set(
            ["cmds_rx", "data_rx", "resps_tx", "r2ts_tx", "data_tx"]
                .iter()
                .map(|p| m.get(&format!("tgt.pdu.{p}")).unwrap_or(0.0))
                .sum(),
        );
        (
            wall,
            RepCounts {
                events: k.events_executed(),
                depth: depth.get(),
            },
        )
    });
    let ops = ios.get().max(1);
    PairRun {
        timed: Timed { ops, ..timed },
        msgs_per_io: msgs.get() / ops as f64,
    }
}

/// Everything the D drivers measured: the metric list plus the figures
/// the attribution table multiplies by the C op-counts.
pub struct DriverResults {
    /// `(metric name, value)` for every D metric.
    pub metrics: Vec<(&'static str, f64)>,
    /// Event-queue hold cost by pending depth.
    pub hold: HoldCurve,
    /// 8-lane sharded / meshed hold cost (ns/event).
    pub sharded8: f64,
    /// As above, through the mailbox mesh.
    pub meshed8: f64,
    /// Fabric self ns per message (4 KiB, 128 KiB).
    pub fabric_self: (f64, f64),
    /// Device self ns per command: read 4k, read 128k, write 4k, write 128k.
    pub nvme_self: [f64; 4],
    /// nvmf self ns per I/O: read 4k, write 4k.
    pub nvmf_self: (f64, f64),
    /// oPF self ns per I/O: TC read 4k, TC write 4k, LS read 4k.
    pub opf_self: (f64, f64, f64),
    /// Histogram ns per record.
    pub hist_ns: f64,
    /// Traffic generator ns per arrival.
    pub traffic_ns: f64,
    /// Mailbox ns per message.
    pub mailbox_ns: f64,
}

fn median_of(n: usize, mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..n).map(|_| f()).collect();
    crate::stats::median(&samples)
}

fn zero_run_ms_256t(seed: u64) -> f64 {
    let legs = workloads::plan(Workload::Scale256Sh8, seed, Scale::Zero).expect("plan builds");
    median_of(3, || {
        let sw = Stopwatch::start();
        for leg in &legs {
            std::hint::black_box(workloads::run_leg(leg));
        }
        sw.elapsed_secs() * 1e3
    })
}

fn spec_parse_expand_us() -> f64 {
    median_of(9, || {
        let sw = Stopwatch::start();
        for _ in 0..20 {
            let spec = sweep::SweepSpec::from_json(workloads::CLUSTER_SPEC_JSON)
                .expect("checked-in spec parses");
            std::hint::black_box(spec.expand());
        }
        sw.elapsed_secs() * 1e6 / 20.0
    })
}

/// `run_campaign` on a zero-length grid minus the same grid run
/// directly: what the campaign engine adds around the runs (grid
/// expansion, cross-seed statistics, gate evaluation).
fn campaign_reduce_ms(seed: u64) -> f64 {
    let legs =
        workloads::plan(Workload::CampaignOpenloopLossy, seed, Scale::Zero).expect("plan builds");
    let workloads::Leg::Campaign(spec) = &legs[0] else {
        unreachable!("the campaign workload is one campaign leg");
    };
    let grid = workloads::campaign_grid(spec);
    median_of(5, || {
        let sw = Stopwatch::start();
        std::hint::black_box(experiments::campaign::run_campaign(spec, Some(1)));
        let with_engine = sw.elapsed_secs();
        let sw = Stopwatch::start();
        for (_, sc) in &grid {
            std::hint::black_box(workload::run(sc));
        }
        (with_engine - sw.elapsed_secs()) * 1e3
    })
    .max(0.0)
}

/// CPUs the process may use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `sweep::run_all` on 2·nproc short scenarios: threads = nproc vs 1.
fn fanout_speedup(seed: u64) -> f64 {
    let n = cores();
    let scenarios: Vec<workload::Scenario> = (0..2 * n as u64)
        .map(|i| {
            let mut sc =
                workload::Scenario::ratio(RuntimeKind::Opf, Gbps::G100, workload::Mix::READ, 1, 4);
            sc.warmup_s = 0.01;
            sc.measure_s = 0.05;
            sc.seed = seed.wrapping_add(i);
            sc
        })
        .collect();
    let time = |threads: usize| {
        median_of(3, || {
            let sw = Stopwatch::start();
            std::hint::black_box(experiments::sweep::run_all(&scenarios, Some(threads)));
            sw.elapsed_secs()
        })
    };
    // The allocation counters are shared atomics: with two threads
    // allocating they would bounce one cache line and be what is timed.
    let counting = alloc::counting();
    alloc::set_counting(false);
    let serial = time(1);
    let speedup = serial / time(n);
    alloc::set_counting(counting);
    speedup
}

/// Run every D driver once.
pub fn run_all(seed: u64, b: Budget) -> DriverResults {
    let mut m: Vec<(&'static str, f64)> = Vec::new();

    // simkit
    let h64 = micro::hold_model(1, false, 64, b.of(1_000_000));
    let hold = HoldCurve {
        d64: h64.ns_per_op(),
        d4096: micro::hold_model(1, false, 4096, b.of(1_000_000)).ns_per_op(),
        d65536: micro::hold_model(1, false, 65_536, b.of(500_000)).ns_per_op(),
    };
    let sharded8 = micro::hold_model(8, false, 4096, b.of(500_000)).ns_per_op();
    let meshed8 = micro::hold_model(8, true, 4096, b.of(500_000)).ns_per_op();
    m.push(("simkit.hold_ns_per_event_d64", hold.d64));
    m.push(("simkit.hold_ns_per_event_d4096", hold.d4096));
    m.push(("simkit.hold_ns_per_event_d65536", hold.d65536));
    m.push(("simkit.sharded8_ns_per_event", sharded8));
    m.push(("simkit.meshed8_ns_per_event", meshed8));
    m.push(("simkit.allocs_per_event", h64.allocs_per_op()));
    m.push((
        "simkit.json_ns_per_kib",
        micro::json_parse_kib(b).ns_per_op(),
    ));

    // queues
    let mailbox_ns = micro::mailbox_send_take(b).ns_per_op();
    m.push((
        "queues.cid_ns_per_cid_w32",
        micro::cid_window32(b).ns_per_op(),
    ));
    m.push(("queues.spsc_ns_per_op", micro::spsc_push_pop(b).ns_per_op()));
    m.push(("queues.mailbox_ns_per_msg", mailbox_ns));

    // fabric
    let f4 = fabric_msgs(BLOCK_SIZE + 24, b);
    let f128 = fabric_msgs(32 * BLOCK_SIZE + 24, b);
    let fabric_self = (self_ns(&f4, &hold), self_ns(&f128, &hold));
    m.push(("fabric.self_ns_per_msg_4k", fabric_self.0));
    m.push(("fabric.self_ns_per_msg_128k", fabric_self.1));
    m.push(("fabric.events_per_msg_128k", f128.events_per_op()));
    m.push(("fabric.allocs_per_msg", f4.allocs_per_op()));

    // nvme
    let r4 = nvme_cmds(Opcode::Read, 1, b);
    let r128 = nvme_cmds(Opcode::Read, 32, b);
    let w4 = nvme_cmds(Opcode::Write, 1, b);
    let w128 = nvme_cmds(Opcode::Write, 32, b);
    let nvme_self = [&r4, &r128, &w4, &w128].map(|t| self_ns(t, &hold));
    m.push(("nvme.self_ns_per_read_4k", nvme_self[0]));
    m.push(("nvme.self_ns_per_read_128k", nvme_self[1]));
    m.push(("nvme.self_ns_per_write_4k", nvme_self[2]));
    m.push(("nvme.self_ns_per_write_128k", nvme_self[3]));
    m.push(("nvme.alloc_bytes_per_read_128k", r128.alloc_bytes_per_op()));

    // nvmf
    m.push((
        "nvmf.pdu_encode_ns_cmd",
        micro::pdu_encode_cmd(b).ns_per_op(),
    ));
    m.push((
        "nvmf.pdu_decode_ns_cmd",
        micro::pdu_decode_cmd(b).ns_per_op(),
    ));
    m.push((
        "nvmf.pdu_encode_ns_data_4k",
        micro::pdu_encode_data(BLOCK_SIZE, b).ns_per_op(),
    ));
    m.push((
        "nvmf.pdu_encode_ns_data_128k",
        micro::pdu_encode_data(32 * BLOCK_SIZE, b).ns_per_op(),
    ));
    m.push((
        "nvmf.pdu_decode_ns_data_128k",
        micro::pdu_decode_data(32 * BLOCK_SIZE, b).ns_per_op(),
    ));
    // A protocol pair cannot be built without a real fabric and device:
    // take those layers' measured self time out as well.
    let pair_self = |runtime, class, mix: workload::Mix, qd: usize, dev_ns: f64| {
        // A lone QD-1 probe completes ~30 I/Os per simulated ms; give it
        // enough simulated time to be timed at all.
        let sim_s = b.secs(if qd == 1 { 1.0 } else { 0.12 });
        let r = pair_run(runtime, class, mix, qd, sim_s);
        (self_ns(&r.timed, &hold) - r.msgs_per_io * fabric_self.0 - dev_ns).max(0.0)
    };
    let tc = ReqClass::ThroughputCritical;
    let nvmf_self = (
        pair_self(
            RuntimeKind::Spdk,
            tc,
            workload::Mix::READ,
            128,
            nvme_self[0],
        ),
        pair_self(
            RuntimeKind::Spdk,
            tc,
            workload::Mix::WRITE,
            128,
            nvme_self[2],
        ),
    );
    m.push(("nvmf.self_ns_per_io_read4k", nvmf_self.0));
    m.push(("nvmf.self_ns_per_io_write4k", nvmf_self.1));

    // opf
    let opf_self = (
        pair_self(RuntimeKind::Opf, tc, workload::Mix::READ, 128, nvme_self[0]),
        pair_self(
            RuntimeKind::Opf,
            tc,
            workload::Mix::WRITE,
            128,
            nvme_self[2],
        ),
        pair_self(
            RuntimeKind::Opf,
            ReqClass::LatencySensitive,
            workload::Mix::READ,
            1,
            nvme_self[0],
        ),
    );
    m.push(("opf.self_ns_per_io_tc_read4k", opf_self.0));
    m.push(("opf.self_ns_per_io_tc_write4k", opf_self.1));
    m.push(("opf.self_ns_per_io_ls_read4k", opf_self.2));
    m.push((
        "opf.window_ns_per_update",
        micro::window_update(b).ns_per_op(),
    ));

    // workload
    let hist_ns = micro::hist_record(b).ns_per_op();
    let traffic_ns = micro::traffic_arrival(b).ns_per_op();
    m.push(("workload.hist_ns_per_record", hist_ns));
    m.push(("workload.traffic_ns_per_arrival", traffic_ns));
    m.push(("workload.zero_run_ms_256t", zero_run_ms_256t(seed)));

    // sweep / experiments
    m.push(("sweep.spec_parse_expand_us", spec_parse_expand_us()));
    m.push(("experiments.campaign_reduce_ms", campaign_reduce_ms(seed)));
    m.push(("experiments.fanout_speedup", fanout_speedup(seed)));

    DriverResults {
        metrics: m,
        hold,
        sharded8,
        meshed8,
        fabric_self,
        nvme_self,
        nvmf_self,
        opf_self,
        hist_ns,
        traffic_ns,
        mailbox_ns,
    }
}
