//! Quickstart: bring up one NVMe-oPF initiator/target pair over a
//! simulated 100 Gbps fabric, write a block, read it back, and print
//! what happened.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bytes::Bytes;
use nvme_opf::fabric::{FabricConfig, Gbps, Network};
use nvme_opf::nvme::{FlashProfile, NvmeDevice, Opcode, BLOCK_SIZE};
use nvme_opf::nvmf::initiator::TargetRx;
use nvme_opf::nvmf::{CpuCosts, PduRx};
use nvme_opf::opf::{
    OpfInitiator, OpfInitiatorConfig, OpfTarget, OpfTargetConfig, ReqClass, WindowPolicy,
};
use nvme_opf::simkit::{shared, Kernel, Tracer};
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    // 1. A kernel (virtual clock + event queue) and a 100 Gbps fabric.
    let mut k = Kernel::new(7);
    let net = Network::new(FabricConfig::preset(Gbps::G100));
    let target_ep = net.add_endpoint("target-node");
    let initiator_ep = net.add_endpoint("initiator-node");

    // 2. An NVMe SSD and an NVMe-oPF target exposing it.
    let device = shared(NvmeDevice::new(FlashProfile::cl_ssd(), 1 << 20, 42));
    let target = shared(OpfTarget::new(
        0,
        net.clone(),
        target_ep.clone(),
        device.clone(),
        CpuCosts::cl(),
        OpfTargetConfig::default(),
        Tracer::disabled(),
    ));

    // 3. An NVMe-oPF initiator with a window of 16, connected to it.
    let t2 = target.clone();
    let target_rx: TargetRx = Rc::new(move |k, from, pdu| OpfTarget::on_pdu(&t2, k, from, pdu));
    let initiator = shared(OpfInitiator::new(
        0,
        128,
        net.clone(),
        initiator_ep.clone(),
        target_ep,
        target_rx,
        CpuCosts::cl(),
        OpfInitiatorConfig {
            window: WindowPolicy::Static(16),
            ..OpfInitiatorConfig::default()
        },
    ));
    let i2 = initiator.clone();
    let rx: PduRx = Rc::new(move |k, pdu| OpfInitiator::on_pdu(&i2, k, pdu));
    target.borrow_mut().connect(0, initiator_ep, rx);

    // 4. Write a block as throughput-critical I/O...
    let payload: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i % 251) as u8).collect();
    let expected = payload.clone();
    let read_back = Rc::new(RefCell::new(None));
    let rb = read_back.clone();
    let ini2 = initiator.clone();
    OpfInitiator::submit(
        &initiator,
        &mut k,
        ReqClass::ThroughputCritical,
        Opcode::Write,
        /* lba */ 100,
        1,
        Some(Bytes::from(payload)),
        Box::new(move |k, out| {
            println!(
                "write completed: status={:?}, latency={}",
                out.status, out.latency
            );
            // ...then read it back as latency-sensitive I/O.
            OpfInitiator::submit(
                &ini2,
                k,
                ReqClass::LatencySensitive,
                Opcode::Read,
                100,
                1,
                None,
                Box::new(move |_, out| {
                    println!(
                        "read  completed: status={:?}, latency={}",
                        out.status, out.latency
                    );
                    *rb.borrow_mut() = out.data;
                }),
            );
        }),
    )
    .expect("queue depth available");

    // The single TC write sits in a partial window; flush drains it.
    OpfInitiator::flush(&initiator, &mut k, Box::new(|_, _| {}));

    // 5. Run the simulation.
    k.run_to_completion();

    let data = read_back.borrow();
    assert_eq!(data.as_deref(), Some(&expected[..]), "data must round-trip");
    println!(
        "data verified: {} bytes identical after fabric + SSD round trip",
        expected.len()
    );
    let i = initiator.borrow();
    println!(
        "initiator stats: {} submitted, {} completed, {} coalesced-response(s)",
        i.io.stats.submitted, i.io.stats.completed, i.io.stats.resps_rx
    );
    let t = target.borrow();
    println!(
        "target stats: {} cmds, {} drains, {} responses, {} R2Ts",
        t.io.stats.cmds_rx, t.stats.drains_rx, t.io.stats.resps_tx, t.io.stats.r2ts_tx
    );
    println!("virtual time elapsed: {}", k.now());
}
