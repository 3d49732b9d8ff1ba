//! Full-snapshot goldens for the run shapes no CSV golden pins in
//! full: every metric key and value of a 2-target run with one live
//! migration, of a lossy open-loop (`traffic` + `faults`) run, of a
//! lossy closed-loop run on each runtime, and of unhardened-adversary
//! runs on each runtime — plus a digest of the target trace stream.
//!
//! The first two files were rendered by [`render`] at commit d6a53a9,
//! when the first shape ran through the separate `run_cluster` driver
//! and the second through `run`; the single scenario pipeline must
//! reproduce them byte for byte (key union included). The third was
//! rendered at d6da634, when the baseline and NVMe-oPF initiators were
//! two copies of the transport code: it pins the baseline's retry,
//! R2T re-grant and duplicate-suppression paths. The rest
//! (`snapshot_opf_lossy_mixed`, `snapshot_unhardened_*`,
//! `trace_digest`) were rendered at 8b0c8ff, when `nvmf::SpdkTarget`
//! and `opf::OpfTarget` were two copies of the transport code: they pin
//! the TC-write staging / `awaiting_data` / R2T re-grant /
//! `dup_cmds_dropped` paths, trust-the-wire routing with the `send_to`
//! unknown-initiator drop, and the `tgt.*` / `opf.*` event stream that
//! `experiments::breakdown` and opfbench's spans pair on.
//! `snapshot_h5bench` was rendered at 363394b, when `h5::bench`
//! hand-built its own copy of the stack: every field of small h5bench
//! runs, which no CSV golden pins. `snapshot_replay` was rendered at
//! ac337c1, when the stand-alone trace replayer was folded into the
//! runner's open-loop path: every field and metric of a fixed trace
//! played through `ArrivalModel::Trace` on both runtimes.
//! `snapshot_sideband` was rendered at 42de97b, when the kernel kept one
//! event heap per lane and the oPF target one submission mailbox per
//! reactor: the lane and reactor counters of sharded and meshed runs,
//! which live outside the metric snapshot.
//! `snapshot_keepalive_{opf,spdk}` were rendered at d6b5036, when
//! `nvmf::admin` still carried discovery, property reads and byte codecs
//! beside the keep-alive path: the only goldens whose runs include the
//! admin control plane's traffic (`admin.*`, and its events in `events`).
//! `snapshot_pairs` was rendered at ac48d8c, when `run` drove every pair
//! of a multi-pair run through one kernel: every `RunResult` field and
//! every metric of fault-free three- and two-pair runs, which no other
//! golden covers in full (the scale goldens pin columns, not snapshots).
//! Since each group runs on its own kernel, with its own warm-window
//! marker, the `events` lines read `pairs − 1` more than at ac48d8c.
//! Its time-normalised lines (`cpu_util`, `reactor_util`,
//! `flash.busy_fraction`, `link.*_util`, `link.*_backlog_us`,
//! `nic.*_util`) were re-rendered at 16bada7, when each group began to
//! be read at its own last event instead of the latest group's; every
//! other line is as rendered at ac48d8c, plus the `events` delta.
//! The `events` tokens of `snapshot_{baseline_lossy, cluster_migrate,
//! keepalive_opf, keepalive_spdk, openloop_lossy, opf_lossy_mixed,
//! pairs, sideband, unhardened_*}` (and the `events` row of
//! `observe.csv`) were re-rendered, and nothing else, when the initiator
//! stopped scheduling an event that did nothing after each C2H data
//! PDU: every run with reads counts one event fewer per data PDU.
//!
//! The corrupting run has no golden: it pins that a bit-flipping fabric
//! cannot reach a `debug_assert!` (this file is built with debug
//! assertions on) and that every request still completes exactly once.

use bytes::Bytes;
use experiments::{scale, sweep::run_all, Durations};
use faults::{Adversary, FaultProfile};
use h5::{run_h5bench, H5BenchConfig, H5Kernel};
use nvme::Opcode;
use opf::ReqClass;
use simkit::metrics::format_f64;
use simkit::{Kernel, Pcg32, SimDuration, SimTime, Tracer};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;
use workload::{
    build_pair_traced, ArrivalModel, MigrationSpec, Mix, Pair, RunResult, RuntimeKind, Scenario,
    TraceEvent, TraceLog, TrafficSpec,
};

fn render(sc: &Scenario) -> String {
    workload::run(sc)
        .metrics
        .iter()
        .map(|(k, v)| format!("{k}={}\n", format_f64(v)))
        .collect()
}

fn assert_matches(name: &str, rendered: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let want =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {name}: {e}"));
    for (i, (r, w)) in rendered.lines().zip(want.lines()).enumerate() {
        assert_eq!(r, w, "{name} line {}", i + 1);
    }
    assert_eq!(rendered, want, "{name}: line count or trailing bytes");
}

/// 1 LS + 4 TC mixed-I/O tenants sharing one node NIC, two kernel
/// lanes, two targets; tenant 1 moves from target 1 to target 0
/// mid-measurement.
fn cluster_migrate() -> Scenario {
    let mut sc = Scenario::two_tenant(RuntimeKind::Opf, fabric::Gbps::G100, Mix::MIXED);
    sc.tc_per_node = 4;
    sc.targets = 2;
    sc.shards = 2;
    sc.warmup_s = 0.02;
    sc.measure_s = 0.08;
    sc.migrations = vec![MigrationSpec {
        tenant: 1,
        at_s: 0.03,
        to_target: 0,
    }];
    sc
}

/// 1 LS closed-loop probe + 3 open-loop Poisson TC tenants, each on
/// its own node, over a fabric dropping 2% and duplicating 1% of PDUs.
fn openloop_lossy() -> Scenario {
    let mut sc = Scenario::ratio(RuntimeKind::Opf, fabric::Gbps::G100, Mix::READ, 1, 3);
    sc.warmup_s = 0.01;
    sc.measure_s = 0.04;
    sc.traffic = Some(TrafficSpec {
        rate_kiops: 60.0,
        read_fraction: Some(1.0),
        ..TrafficSpec::default()
    });
    sc.faults = Some(FaultProfile {
        drop_p: 0.02,
        dup_p: 0.01,
        ..FaultProfile::default()
    });
    sc
}

/// 1 LS + 3 TC closed-loop mixed-I/O tenants over a fabric dropping 2%
/// and duplicating 1% of PDUs.
fn closed_lossy(runtime: RuntimeKind) -> Scenario {
    let mut sc = Scenario::ratio(runtime, fabric::Gbps::G100, Mix::MIXED, 1, 3);
    sc.warmup_s = 0.01;
    sc.measure_s = 0.04;
    sc.faults = Some(FaultProfile {
        drop_p: 0.02,
        dup_p: 0.01,
        ..FaultProfile::default()
    });
    sc
}

#[test]
fn cluster_migrate_snapshot_matches_golden() {
    assert_matches("snapshot_cluster_migrate.txt", &render(&cluster_migrate()));
}

#[test]
fn openloop_lossy_snapshot_matches_golden() {
    assert_matches("snapshot_openloop_lossy.txt", &render(&openloop_lossy()));
}

/// One run's lane and reactor counters: the `RunResult` side-band
/// fields plus every `*max_ready` key of its snapshot.
fn sideband(label: &str, r: &RunResult) -> String {
    let mut out = format!(
        "{label} events={} cross_shard_events={} cross_reactor_submits={} \
         parallel_routed={} parallel_min_slack_ns={:?}\n",
        r.events,
        r.cross_shard_events,
        r.cross_reactor_submits,
        r.parallel_routed,
        r.parallel_min_slack_ns,
    );
    for (k, v) in r.metrics.iter().filter(|(k, _)| k.ends_with("max_ready")) {
        writeln!(out, "{label} {k}={}", format_f64(v)).unwrap();
    }
    out
}

/// The quick scale grid with the mesh off and on, the cluster migration
/// at 2 and 4 shards, and the lossy open loop at 2 shards on the mesh.
#[test]
fn snapshot_sideband_matches_golden() {
    let mut out = String::new();
    for parallel in [false, true] {
        let scenarios = scale::scenarios(Durations::quick().with_parallel(parallel), true);
        for (sc, r) in scenarios.iter().zip(run_all(&scenarios, Some(1))) {
            let tenants = sc.total_initiators();
            let label = format!("scale/{tenants}t/{}sh/parallel={parallel}", sc.shards);
            out += &sideband(&label, &r);
        }
    }
    for shards in [2, 4] {
        let sc = Scenario {
            shards,
            ..cluster_migrate()
        };
        out += &sideband(&format!("cluster_migrate/{shards}sh"), &workload::run(&sc));
    }
    let sc = Scenario {
        shards: 2,
        parallel: true,
        ..openloop_lossy()
    };
    out += &sideband("openloop_lossy/2sh/parallel=true", &workload::run(&sc));
    assert_matches("snapshot_sideband.txt", &out);
}

/// Every `RunResult` field of one run, then every metric key and value.
fn render_result(label: &str, r: &RunResult) -> String {
    let mut out = String::new();
    for (name, v) in [
        ("tc_iops", r.tc_iops),
        ("tc_mb_s", r.tc_mb_s),
        ("tc_avg_us", r.tc_avg_us),
        ("tc_p9999_us", r.tc_p9999_us),
        ("ls_iops", r.ls_iops),
        ("ls_avg_us", r.ls_avg_us),
        ("ls_p9999_us", r.ls_p9999_us),
        ("reactor_util", r.reactor_util),
    ] {
        writeln!(out, "{label} {name}={}", format_f64(v)).unwrap();
    }
    for (name, v) in [
        ("notifications", r.notifications),
        ("completed", r.completed),
        ("events", r.events),
        ("cross_shard_events", r.cross_shard_events),
        ("cross_reactor_submits", r.cross_reactor_submits),
        ("parallel_routed", r.parallel_routed),
    ] {
        writeln!(out, "{label} {name}={v}").unwrap();
    }
    writeln!(
        out,
        "{label} parallel_min_slack_ns={:?}",
        r.parallel_min_slack_ns
    )
    .unwrap();
    let taken_at = r.metrics.taken_at().as_nanos();
    writeln!(out, "{label} metrics.taken_at_ns={taken_at}").unwrap();
    for (k, v) in r.metrics.iter() {
        writeln!(out, "{label} metrics.{k}={}", format_f64(v)).unwrap();
    }
    out
}

/// Three pairs of 1 LS + 3 TC closed-loop mixed-I/O tenants, each
/// pair's tenants sharing their node's NIC.
fn three_pairs(runtime: RuntimeKind, shards: usize) -> Scenario {
    let mut sc = Scenario::two_tenant(runtime, fabric::Gbps::G100, Mix::MIXED);
    sc.pairs = 3;
    sc.tc_per_node = 3;
    sc.shards = shards;
    sc.parallel = shards > 1;
    sc.warmup_s = 0.01;
    sc.measure_s = 0.04;
    sc
}

/// Two pairs of 1 LS closed-loop probe + 3 open-loop Poisson TC tenants
/// with Zipf-skewed rates, each tenant on its own node.
fn two_pairs_open() -> Scenario {
    let mut sc = Scenario::ratio(RuntimeKind::Opf, fabric::Gbps::G100, Mix::READ, 1, 3);
    sc.pairs = 2;
    sc.warmup_s = 0.01;
    sc.measure_s = 0.04;
    sc.traffic = Some(TrafficSpec {
        rate_kiops: 120.0,
        zipf: Some(1.1),
        ..TrafficSpec::default()
    });
    sc
}

/// Fault-free multi-pair runs: three pairs on each runtime, direct on
/// one lane and meshed over four, and two open-loop pairs.
#[test]
fn pairs_snapshot_matches_golden() {
    let mut out = String::new();
    for runtime in [RuntimeKind::Spdk, RuntimeKind::Opf] {
        for shards in [1, 4] {
            let label = format!("{runtime:?}/3p/{shards}sh");
            out += &render_result(&label, &workload::run(&three_pairs(runtime, shards)));
        }
    }
    out += &render_result("Opf/2p/open", &workload::run(&two_pairs_open()));
    assert_matches("snapshot_pairs.txt", &out);
}

/// 1 LS + 3 TC closed-loop mixed-I/O tenants, the last one spoofing
/// 30% of its capsules as `victim` against a wire-trusting target.
/// Victim 2 is an honest tenant (trust-the-wire routing into its
/// queues); victim 9 never connected (the `send_to` drop).
fn unhardened(runtime: RuntimeKind, victim: u8) -> Scenario {
    let mut sc = Scenario::ratio(runtime, fabric::Gbps::G100, Mix::MIXED, 1, 3);
    sc.warmup_s = 0.005;
    sc.measure_s = 0.02;
    sc.faults = Some(FaultProfile {
        adversary: Some(Adversary {
            link: 3,
            spoof_p: 0.3,
            spoof_victim: victim,
            harden: false,
            ..Adversary::default()
        }),
        ..FaultProfile::default()
    });
    sc
}

/// FNV-1a over every `(time, kind, who, detail)` the target emits in one
/// fault-free traced run (1 LS + 4 TC tenants, every third request a
/// write), with the per-kind event counts for diagnosis.
fn trace_digest(runtime: RuntimeKind) -> String {
    let mut k = Kernel::new(31);
    let (sink, tracer) = Tracer::recording();
    let pair = Rc::new(build_pair_traced(
        &mut k,
        runtime,
        workload::scenario::Speed::G100,
        5,
        32,
        opf::WindowPolicy::Static(8),
        31,
        true,
        tracer,
    ));
    fn pump(pair: Rc<Pair>, k: &mut Kernel, tenant: usize, class: ReqClass, n: u64, end: SimTime) {
        if k.now() >= end {
            return;
        }
        let p2 = pair.clone();
        let (opcode, payload) = if n.is_multiple_of(3) {
            let payload = Bytes::from(vec![0u8; nvme::BLOCK_SIZE]);
            (Opcode::Write, Some(payload))
        } else {
            (Opcode::Read, None)
        };
        pair.initiators[tenant].submit(
            k,
            class,
            opcode,
            n % 4096,
            1,
            payload,
            Box::new(move |k, _| pump(p2, k, tenant, class, n + 1, end)),
        );
    }
    let end = SimTime::from_micros(3_000);
    for tenant in 1..5 {
        for q in 0..32u64 {
            let class = ReqClass::ThroughputCritical;
            pump(pair.clone(), &mut k, tenant, class, q, end);
        }
    }
    pump(pair.clone(), &mut k, 0, ReqClass::LatencySensitive, 0, end);
    k.set_horizon(end);
    k.run_to_completion();

    let mut fnv = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            fnv = (fnv ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
    let events = &sink.borrow().events;
    for ev in events {
        eat(&ev.at.as_nanos().to_le_bytes());
        eat(ev.kind.as_bytes());
        eat(&ev.who.to_le_bytes());
        eat(&ev.detail.to_le_bytes());
        *kinds.entry(ev.kind).or_default() += 1;
    }
    let mut out = format!("{runtime:?} events={} fnv={fnv:016x}\n", events.len());
    for (kind, n) in kinds {
        writeln!(out, "{runtime:?} {kind}={n}").unwrap();
    }
    out
}

#[test]
fn baseline_lossy_snapshot_matches_golden() {
    let rendered = render(&closed_lossy(RuntimeKind::Spdk));
    assert_matches("snapshot_baseline_lossy.txt", &rendered);
}

#[test]
fn opf_lossy_mixed_snapshot_matches_golden() {
    let rendered = render(&closed_lossy(RuntimeKind::Opf));
    assert_matches("snapshot_opf_lossy_mixed.txt", &rendered);
}

/// 1 LS + 2 TC read tenants at 100 G; initiator 0's link goes dark for
/// 15 ms at 30 ms while the admin client heartbeats every 4 ms against
/// a 10 ms KATO, so the controller expires and the client reconnects.
fn keepalive(runtime: RuntimeKind) -> Scenario {
    let mut sc = Scenario::ratio(runtime, fabric::Gbps::G100, Mix::READ, 1, 2);
    sc.warmup_s = 0.02;
    sc.measure_s = 0.08;
    sc.faults = Some(FaultProfile {
        flaps: vec![faults::LinkFlap {
            link: 0,
            at: SimTime::from_millis(30),
            dur: SimDuration::from_millis(15),
        }],
        keepalive: Some(faults::KeepAliveSpec {
            every: SimDuration::from_millis(4),
            kato: SimDuration::from_millis(10),
        }),
        ..FaultProfile::default()
    });
    sc
}

#[test]
fn keepalive_snapshots_match_golden() {
    for (runtime, name) in [(RuntimeKind::Opf, "opf"), (RuntimeKind::Spdk, "spdk")] {
        let rendered = render(&keepalive(runtime));
        assert_matches(&format!("snapshot_keepalive_{name}.txt"), &rendered);
    }
}

#[test]
fn unhardened_adversary_snapshots_match_golden() {
    for (runtime, name) in [(RuntimeKind::Spdk, "spdk"), (RuntimeKind::Opf, "opf")] {
        for victim in [2u8, 9] {
            let rendered = render(&unhardened(runtime, victim));
            assert_matches(
                &format!("snapshot_unhardened_{name}_victim{victim}.txt"),
                &rendered,
            );
        }
    }
}

#[test]
fn target_trace_stream_matches_golden() {
    let rendered = trace_digest(RuntimeKind::Spdk) + &trace_digest(RuntimeKind::Opf);
    assert_matches("trace_digest.txt", &rendered);
}

/// Both runtimes × both kernels × {1 pair × 3 ranks, 2 pairs × 5 ranks},
/// 64 KiB per TC rank-timestep.
#[test]
fn h5bench_results_match_golden() {
    let mut out = String::new();
    for runtime in [RuntimeKind::Spdk, RuntimeKind::Opf] {
        for kernel in [H5Kernel::Write, H5Kernel::Read] {
            for (pairs, ranks_per_node) in [(1, 3), (2, 5)] {
                let cfg = H5BenchConfig {
                    pairs,
                    ranks_per_node,
                    particles: 16 * 1024,
                    timesteps: 2,
                    read_load_us_per_mib: 350.0,
                    seed: 7,
                    ..H5BenchConfig::fig9(runtime, kernel)
                };
                let r = run_h5bench(&cfg);
                writeln!(out, "{runtime:?} {kernel:?} {pairs}x{ranks_per_node} {r:?}").unwrap();
            }
        }
    }
    assert_matches("snapshot_h5bench.txt", &out);
}

/// A fixed 10 ms trace over 4 TC tenants at ~150K IOPS: every 8th
/// request latency-sensitive, every 4th a write, sizes of 1–2 blocks,
/// scattered LBAs, and every 16th request sharing the previous one's
/// arrival instant.
fn fixed_trace() -> TraceLog {
    let mut rng = Pcg32::new(77);
    let mut events = Vec::new();
    let mut at_ns = 0u64;
    for i in 0..1500u64 {
        if i % 16 != 0 {
            at_ns += u64::from(rng.gen_below(13_333));
        }
        events.push(TraceEvent {
            at_ns,
            tenant: (i % 4) as u8,
            ls: i % 8 == 3,
            write: i % 4 == 1,
            lba: u64::from(rng.gen_below(1 << 20)),
            blocks: 1 + (i % 3 == 0) as u16,
        });
    }
    TraceLog { events }
}

/// The fixed trace played through the runner's trace arrivals on both
/// runtimes: every `RunResult` field and metric.
#[test]
fn replay_results_match_golden() {
    let log = Arc::new(fixed_trace());
    let mut out = String::new();
    for runtime in [RuntimeKind::Spdk, RuntimeKind::Opf] {
        let mut sc = Scenario::ratio(runtime, fabric::Gbps::G100, Mix::READ, 0, 4);
        sc.warmup_s = 0.0;
        sc.measure_s = 0.01;
        sc.traffic = Some(TrafficSpec {
            model: ArrivalModel::Trace(log.clone()),
            ..TrafficSpec::default()
        });
        out += &render_result(&format!("{runtime:?}"), &workload::run(&sc));
    }
    assert_matches("snapshot_replay.txt", &out);
}

/// 1 LS + 4 TC mixed-I/O tenants over a fabric flipping one bit in 2% of
/// PDUs: CIDs, initiator bytes, priorities and R2T lengths all arrive
/// corrupted. Panicked at 8b0c8ff (`encode_key`'s CID bound, the R2T
/// length assert).
#[test]
fn corrupting_fabric_completes_exactly_once_on_both_runtimes() {
    for runtime in [RuntimeKind::Spdk, RuntimeKind::Opf] {
        let mut sc = Scenario::ratio(runtime, fabric::Gbps::G100, Mix::MIXED, 1, 4);
        sc.warmup_s = 0.05;
        sc.measure_s = 0.2;
        sc.faults = Some(FaultProfile {
            corrupt_p: 0.02,
            ..FaultProfile::default()
        });
        let m = workload::run(&sc).metrics;
        let get = |key: &str| {
            m.get(key)
                .unwrap_or_else(|| panic!("{runtime:?}: no {key}"))
        };
        assert!(get("faults.corrupts") > 0.0, "{runtime:?}");
        assert_eq!(get("faults.offered"), get("faults.goodput"), "{runtime:?}");
        let violations: f64 = m
            .iter()
            .filter(|(k, _)| k.ends_with("protocol_errors"))
            .map(|(_, v)| v)
            .sum();
        assert!(violations > 0.0, "{runtime:?}");
    }
}
