//! End-to-end behaviour tests for the NVMe-oPF runtime: initiator PM +
//! fabric + target PM + NVMe device.

use bytes::Bytes;
use fabric::{FabricConfig, Gbps, Network};
use nvme::{FlashProfile, NvmeDevice, Opcode, Status, BLOCK_SIZE};
use nvmf::initiator::TargetRx;
use nvmf::{CpuCosts, PduRx};
use opf::{
    OpfInitiator, OpfInitiatorConfig, OpfTarget, OpfTargetConfig, QueueMode, ReqClass, WindowPolicy,
};
use simkit::{shared, Kernel, Shared, SimDuration, SimTime, Tracer};
use std::cell::RefCell;
use std::rc::Rc;

struct Rig {
    k: Kernel,
    target: Shared<OpfTarget>,
    initiators: Vec<Shared<OpfInitiator>>,
    device: Shared<NvmeDevice>,
}

fn rig_with(
    speed: Gbps,
    n_initiators: usize,
    qd: usize,
    icfg: OpfInitiatorConfig,
    tcfg: OpfTargetConfig,
) -> Rig {
    let k = Kernel::new(1234);
    let net = Network::new(FabricConfig::preset(speed));
    let tep = net.add_endpoint("tgt");
    let device = shared(NvmeDevice::new(FlashProfile::cl_ssd(), 1 << 24, 99));
    let target = shared(OpfTarget::new(
        0,
        net.clone(),
        tep.clone(),
        device.clone(),
        CpuCosts::cl(),
        tcfg,
        Tracer::disabled(),
    ));
    let t2 = target.clone();
    let target_rx: TargetRx = Rc::new(move |k, from, pdu| OpfTarget::on_pdu(&t2, k, from, pdu));

    let mut initiators = Vec::new();
    for i in 0..n_initiators {
        let iep = net.add_endpoint(format!("ini{i}"));
        let ini = shared(OpfInitiator::new(
            i as u8,
            qd,
            net.clone(),
            iep.clone(),
            tep.clone(),
            target_rx.clone(),
            CpuCosts::cl(),
            icfg.clone(),
        ));
        let i2 = ini.clone();
        let rx: PduRx = Rc::new(move |k, pdu| OpfInitiator::on_pdu(&i2, k, pdu));
        target.borrow_mut().connect(i as u8, iep, rx);
        initiators.push(ini);
    }
    Rig {
        k,
        target,
        initiators,
        device,
    }
}

fn rig(speed: Gbps, n_initiators: usize, qd: usize, window: u32) -> Rig {
    rig_with(
        speed,
        n_initiators,
        qd,
        OpfInitiatorConfig {
            window: WindowPolicy::Static(window),
            ..OpfInitiatorConfig::default()
        },
        OpfTargetConfig::default(),
    )
}

#[test]
fn coalescing_sends_one_response_per_window() {
    let mut r = rig(Gbps::G100, 1, 64, 8);
    let done = Rc::new(RefCell::new(0u32));
    for i in 0..32u64 {
        let d = done.clone();
        OpfInitiator::submit(
            &r.initiators[0],
            &mut r.k,
            ReqClass::ThroughputCritical,
            Opcode::Read,
            i,
            1,
            None,
            Box::new(move |_, out| {
                assert!(out.status.is_ok());
                *d.borrow_mut() += 1;
            }),
        )
        .unwrap();
    }
    r.k.run_to_completion();
    assert_eq!(*done.borrow(), 32, "all requests complete");
    let t = r.target.borrow();
    // 32 requests / window 8 = 4 drains = 4 responses (vs 32 baseline).
    assert_eq!(t.stats.drains_rx, 4);
    assert_eq!(t.io.stats.resps_tx, 4);
    assert_eq!(t.stats.coalesced_resps_tx, 4);
    // Data PDUs cannot be coalesced: one per read.
    assert_eq!(t.io.stats.data_tx, 32);
    let i = r.initiators[0].borrow();
    assert_eq!(i.io.stats.resps_rx, 4);
    assert_eq!(i.stats.coalesced_completions, 32);
}

#[test]
fn tc_reads_return_correct_data() {
    let mut r = rig(Gbps::G100, 1, 64, 4);
    // Seed blocks with distinct patterns.
    for lba in 0..8u64 {
        let block = vec![lba as u8 + 1; BLOCK_SIZE];
        r.device
            .borrow_mut()
            .namespace_mut()
            .write(lba, &block)
            .unwrap();
    }
    let got = Rc::new(RefCell::new(Vec::new()));
    for lba in 0..8u64 {
        let g = got.clone();
        OpfInitiator::submit(
            &r.initiators[0],
            &mut r.k,
            ReqClass::ThroughputCritical,
            Opcode::Read,
            lba,
            1,
            None,
            Box::new(move |_, out| {
                let data = out.data.expect("read data");
                g.borrow_mut().push((lba, data[0], data.len()));
            }),
        )
        .unwrap();
    }
    r.k.run_to_completion();
    let got = got.borrow();
    assert_eq!(got.len(), 8);
    for &(lba, first, len) in got.iter() {
        assert_eq!(first, lba as u8 + 1, "data for LBA {lba}");
        assert_eq!(len, BLOCK_SIZE);
    }
}

#[test]
fn tc_writes_coalesce_and_persist() {
    let mut r = rig(Gbps::G100, 1, 64, 8);
    let done = Rc::new(RefCell::new(0u32));
    for lba in 0..16u64 {
        let d = done.clone();
        let payload = Bytes::from(vec![0xC0 | lba as u8; BLOCK_SIZE]);
        OpfInitiator::submit(
            &r.initiators[0],
            &mut r.k,
            ReqClass::ThroughputCritical,
            Opcode::Write,
            lba,
            1,
            Some(payload),
            Box::new(move |_, out| {
                assert!(out.status.is_ok());
                *d.borrow_mut() += 1;
            }),
        )
        .unwrap();
    }
    r.k.run_to_completion();
    assert_eq!(*done.borrow(), 16);
    let t = r.target.borrow();
    assert_eq!(t.io.stats.resps_tx, 2, "two windows of 8");
    assert_eq!(t.io.stats.r2ts_tx, 16, "R2T per write cannot be coalesced");
    drop(t);
    for lba in 0..16u64 {
        let data = r.device.borrow_mut().namespace_mut().read(lba, 1).unwrap();
        assert_eq!(data[0], 0xC0 | lba as u8);
    }
}

#[test]
fn partial_window_drains_via_flush() {
    let mut r = rig(Gbps::G100, 1, 64, 32);
    let done = Rc::new(RefCell::new(0u32));
    // 5 requests — less than the window of 32; they would hang without a
    // flush.
    for i in 0..5u64 {
        let d = done.clone();
        OpfInitiator::submit(
            &r.initiators[0],
            &mut r.k,
            ReqClass::ThroughputCritical,
            Opcode::Read,
            i,
            1,
            None,
            Box::new(move |_, _| *d.borrow_mut() += 1),
        )
        .unwrap();
    }
    let flushed = Rc::new(RefCell::new(false));
    let f = flushed.clone();
    OpfInitiator::flush(
        &r.initiators[0],
        &mut r.k,
        Box::new(move |_, out| {
            assert!(out.status.is_ok());
            *f.borrow_mut() = true;
        }),
    )
    .expect("flush issues a drain");
    r.k.run_to_completion();
    assert_eq!(*done.borrow(), 5);
    assert!(*flushed.borrow());
    // After completion another flush is a no-op.
    assert!(OpfInitiator::flush(&r.initiators[0], &mut r.k, Box::new(|_, _| {})).is_none());
}

#[test]
fn drain_timer_flushes_idle_partial_window() {
    // 3 TC requests against a window of 32 and NO explicit flush: the
    // 500us drain timer must complete them anyway.
    let mut r = rig_with(
        Gbps::G100,
        1,
        64,
        OpfInitiatorConfig {
            window: WindowPolicy::Static(32),
            drain_timeout: Some(SimDuration::from_micros(500)),
            ..OpfInitiatorConfig::default()
        },
        OpfTargetConfig::default(),
    );
    let done = Rc::new(RefCell::new(0u32));
    for i in 0..3u64 {
        let d = done.clone();
        OpfInitiator::submit(
            &r.initiators[0],
            &mut r.k,
            ReqClass::ThroughputCritical,
            Opcode::Read,
            i,
            1,
            None,
            Box::new(move |_, out| {
                assert!(out.status.is_ok());
                *d.borrow_mut() += 1;
            }),
        )
        .unwrap();
    }
    r.k.run_to_completion();
    assert_eq!(*done.borrow(), 3, "timer must drain the partial window");
    // And with the timer disabled the same workload hangs (requests
    // stay pending when the kernel drains its queue).
    let mut r = rig_with(
        Gbps::G100,
        1,
        64,
        OpfInitiatorConfig {
            window: WindowPolicy::Static(32),
            drain_timeout: None,
            ..OpfInitiatorConfig::default()
        },
        OpfTargetConfig::default(),
    );
    let done = Rc::new(RefCell::new(0u32));
    for i in 0..3u64 {
        let d = done.clone();
        OpfInitiator::submit(
            &r.initiators[0],
            &mut r.k,
            ReqClass::ThroughputCritical,
            Opcode::Read,
            i,
            1,
            None,
            Box::new(move |_, _| *d.borrow_mut() += 1),
        )
        .unwrap();
    }
    r.k.run_to_completion();
    assert_eq!(*done.borrow(), 0, "without timer or flush the window waits");
}

#[test]
fn ls_bypasses_tc_backlog() {
    // One TC tenant floods; one LS tenant sends a single read. Compare
    // the LS latency with bypass on vs off (ablation).
    fn ls_latency(ls_bypass: bool) -> SimDuration {
        let mut r = rig_with(
            Gbps::G100,
            2,
            128,
            OpfInitiatorConfig {
                window: WindowPolicy::Static(32),
                ..OpfInitiatorConfig::default()
            },
            OpfTargetConfig {
                ls_bypass,
                ..OpfTargetConfig::default()
            },
        );
        // Fill the TC tenant's queue depth.
        let tc = r.initiators[0].clone();
        fn pump(ini: Shared<OpfInitiator>, k: &mut Kernel, lba: u64) {
            let ini2 = ini.clone();
            OpfInitiator::submit(
                &ini,
                k,
                ReqClass::ThroughputCritical,
                Opcode::Read,
                lba % 4096,
                1,
                None,
                Box::new(move |k, _| pump(ini2, k, lba + 1)),
            );
        }
        for i in 0..128 {
            pump(tc.clone(), &mut r.k, i);
        }
        // Let the backlog build, then probe with an LS read.
        let lat = Rc::new(RefCell::new(SimDuration::ZERO));
        let l2 = lat.clone();
        let ls = r.initiators[1].clone();
        r.k.schedule_at(SimTime::from_millis(5), move |k| {
            OpfInitiator::submit(
                &ls,
                k,
                ReqClass::LatencySensitive,
                Opcode::Read,
                9999,
                1,
                None,
                Box::new(move |_, out| *l2.borrow_mut() = out.latency),
            );
        });
        r.k.set_horizon(SimTime::from_millis(20));
        r.k.run_to_completion();
        let l = *lat.borrow();
        assert!(l > SimDuration::ZERO, "LS probe must complete");
        l
    }
    let with_bypass = ls_latency(true);
    let without = ls_latency(false);
    // One TC tenant at QD 128 against a 64-deep device meter: the bypass
    // saves the metered-queue wait (the gap widens with more tenants —
    // Figure 7(d) — but a single tenant already shows it clearly).
    assert!(
        without.as_nanos() as f64 > with_bypass.as_nanos() as f64 * 1.3,
        "bypass should cut LS latency: with={with_bypass:?} without={without:?}"
    );
}

#[test]
fn per_initiator_queues_do_not_cross_drain() {
    // Two TC tenants with window 16; tenant 0 drains must never complete
    // tenant 1's requests (the §IV-A isolation property).
    let mut r = rig(Gbps::G100, 2, 64, 16);
    let counts = Rc::new(RefCell::new([0u32; 2]));
    for t in 0..2usize {
        for i in 0..32u64 {
            let c = counts.clone();
            OpfInitiator::submit(
                &r.initiators[t],
                &mut r.k,
                ReqClass::ThroughputCritical,
                Opcode::Read,
                i,
                1,
                None,
                Box::new(move |_, out| {
                    assert!(out.status.is_ok());
                    c.borrow_mut()[t] += 1;
                }),
            )
            .unwrap();
        }
    }
    r.k.run_to_completion();
    assert_eq!(*counts.borrow(), [32, 32]);
    let t = r.target.borrow();
    assert_eq!(t.stats.drains_rx, 4, "two drains per tenant");
    assert_eq!(t.io.stats.resps_tx, 4, "one coalesced response per drain");
}

#[test]
fn shared_queue_ablation_drains_early() {
    // With a single shared TC queue, tenant A's drain flushes tenant B's
    // half-filled window, producing extra (less-coalesced) responses.
    let run = |mode: QueueMode| -> u64 {
        let mut r = rig_with(
            Gbps::G100,
            2,
            64,
            OpfInitiatorConfig {
                window: WindowPolicy::Static(16),
                ..OpfInitiatorConfig::default()
            },
            OpfTargetConfig {
                queue_mode: mode,
                ..OpfTargetConfig::default()
            },
        );
        let done = Rc::new(RefCell::new(0u32));
        // Interleave the two tenants' submissions.
        for i in 0..32u64 {
            for t in 0..2usize {
                let d = done.clone();
                OpfInitiator::submit(
                    &r.initiators[t],
                    &mut r.k,
                    ReqClass::ThroughputCritical,
                    Opcode::Read,
                    i,
                    1,
                    None,
                    Box::new(move |_, _| *d.borrow_mut() += 1),
                )
                .unwrap();
            }
        }
        r.k.run_to_completion();
        assert_eq!(*done.borrow(), 64, "both tenants finish (no lock-up)");
        let resps = r.target.borrow().io.stats.resps_tx;
        resps
    };
    let isolated = run(QueueMode::PerInitiator);
    let shared_q = run(QueueMode::Shared);
    assert!(
        shared_q > isolated,
        "shared queue must send more responses (early drains): {shared_q} vs {isolated}"
    );
}

#[test]
fn batch_error_propagates_worst_status() {
    let mut r = rig(Gbps::G100, 1, 64, 4);
    // Third request reads beyond capacity -> LbaOutOfRange. The
    // coalesced response downgrades the whole batch (documented
    // coarse-grained semantics).
    let cap = r.device.borrow_mut().namespace_mut().capacity_blocks();
    let statuses = Rc::new(RefCell::new(Vec::new()));
    for i in 0..4u64 {
        let s = statuses.clone();
        let lba = if i == 2 { cap } else { i };
        OpfInitiator::submit(
            &r.initiators[0],
            &mut r.k,
            ReqClass::ThroughputCritical,
            Opcode::Read,
            lba,
            1,
            None,
            Box::new(move |_, out| s.borrow_mut().push(out.status)),
        )
        .unwrap();
    }
    r.k.run_to_completion();
    let statuses = statuses.borrow();
    assert_eq!(statuses.len(), 4);
    assert!(
        statuses.iter().all(|s| *s == Status::LbaOutOfRange),
        "batch carries the worst status: {statuses:?}"
    );
}

#[test]
fn completions_are_marked_in_issue_order() {
    // The device completes out of order; Algorithm 2 must still complete
    // CIDs in issue order within each drained window.
    let mut r = rig(Gbps::G100, 1, 128, 32);
    let order = Rc::new(RefCell::new(Vec::new()));
    for i in 0..96u64 {
        let o = order.clone();
        OpfInitiator::submit(
            &r.initiators[0],
            &mut r.k,
            ReqClass::ThroughputCritical,
            Opcode::Read,
            i,
            1,
            None,
            Box::new(move |_, _| o.borrow_mut().push(i)),
        )
        .unwrap();
    }
    r.k.run_to_completion();
    let order = order.borrow();
    assert_eq!(order.len(), 96);
    assert!(
        order.windows(2).all(|w| w[0] < w[1]),
        "completion callbacks must fire in issue order"
    );
    // Sanity: the device really did reorder internally.
    assert!(r.device.borrow().stats.out_of_order_completions > 0);
}

#[test]
fn dynamic_window_retunes_at_runtime() {
    let mut r = rig_with(
        Gbps::G100,
        1,
        128,
        OpfInitiatorConfig {
            window: WindowPolicy::Dynamic { initial: 4 },
            ..OpfInitiatorConfig::default()
        },
        OpfTargetConfig::default(),
    );
    let ini = r.initiators[0].clone();
    fn pump(ini: Shared<OpfInitiator>, k: &mut Kernel, lba: u64) {
        let ini2 = ini.clone();
        OpfInitiator::submit(
            &ini,
            k,
            ReqClass::ThroughputCritical,
            Opcode::Read,
            lba % 4096,
            1,
            None,
            Box::new(move |k, _| pump(ini2, k, lba + 1)),
        );
    }
    for i in 0..128 {
        pump(ini.clone(), &mut r.k, i);
    }
    r.k.set_horizon(SimTime::from_millis(200));
    r.k.run_to_completion();
    let i = r.initiators[0].borrow();
    assert!(
        i.stats.window_changes > 0,
        "dynamic policy should retune: {} changes",
        i.stats.window_changes
    );
    assert!(i.current_window() >= 4);
}

#[test]
fn window_one_degenerates_to_baseline_notifications() {
    // Coalescing off (window = 1): every TC request drains itself, so
    // notification counts match the baseline's one-per-request.
    let mut r = rig(Gbps::G100, 1, 64, 1);
    for i in 0..16u64 {
        OpfInitiator::submit(
            &r.initiators[0],
            &mut r.k,
            ReqClass::ThroughputCritical,
            Opcode::Read,
            i,
            1,
            None,
            Box::new(|_, _| {}),
        )
        .unwrap();
    }
    r.k.run_to_completion();
    let t = r.target.borrow();
    assert_eq!(t.io.stats.resps_tx, 16);
    assert_eq!(t.stats.drains_rx, 16);
}

#[test]
fn mixed_classes_from_one_initiator() {
    // A single tenant can tag per-request (§III-C): metadata as LS, bulk
    // as TC.
    let mut r = rig(Gbps::G100, 1, 64, 8);
    let ls_done = Rc::new(RefCell::new(false));
    let tc_done = Rc::new(RefCell::new(0u32));
    for i in 0..8u64 {
        let d = tc_done.clone();
        OpfInitiator::submit(
            &r.initiators[0],
            &mut r.k,
            ReqClass::ThroughputCritical,
            Opcode::Read,
            i,
            1,
            None,
            Box::new(move |_, _| *d.borrow_mut() += 1),
        )
        .unwrap();
    }
    let l = ls_done.clone();
    OpfInitiator::submit(
        &r.initiators[0],
        &mut r.k,
        ReqClass::LatencySensitive,
        Opcode::Read,
        100,
        1,
        None,
        Box::new(move |_, out| {
            assert!(out.status.is_ok());
            *l.borrow_mut() = true;
        }),
    )
    .unwrap();
    r.k.run_to_completion();
    assert!(*ls_done.borrow());
    assert_eq!(*tc_done.borrow(), 8);
    let i = r.initiators[0].borrow();
    assert_eq!(i.stats.ls_submitted, 1);
    assert_eq!(i.stats.tc_submitted, 8);
    let t = r.target.borrow();
    assert_eq!(t.stats.ls_bypassed, 1);
}
