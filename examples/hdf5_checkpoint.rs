//! HDF5-style checkpoint over disaggregated storage: a scientific app
//! writes particle datasets through the mini-HDF5 VOL connector —
//! metadata as latency-sensitive I/O, bulk data as throughput-critical
//! coalesced I/O — then the file is verified straight off the simulated
//! SSD.
//!
//! ```text
//! cargo run --release --example hdf5_checkpoint
//! ```

use bytes::Bytes;
use nvme_opf::h5::format::Dtype;
use nvme_opf::h5::vol::{run_extent, BlockSource};
use nvme_opf::h5::{H5File, MemStore, NamespaceStore};
use nvme_opf::nvme::Opcode;
use nvme_opf::opf::{ReqClass, WindowPolicy};
use nvme_opf::simkit::{Kernel, SimTime};
use nvme_opf::workload::scenario::Speed;
use nvme_opf::workload::{build_pair, RuntimeKind, TenantHandle};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

const PARTICLES: usize = 200_000;
const TIMESTEPS: usize = 3;

fn main() {
    let mut k = Kernel::new(99);
    // One compute node, one storage server with real data storage.
    let pair = build_pair(
        &mut k,
        RuntimeKind::Opf,
        Speed::G25,
        1,
        128,
        WindowPolicy::Static(32),
        5,
        false,
    );
    let rank = pair.initiators[0].clone();

    // Simulated physics state: one f32 per particle, evolved per step.
    let datasets: Vec<Vec<u8>> = (0..TIMESTEPS)
        .map(|ts| {
            (0..PARTICLES)
                .flat_map(|p| ((p as f32) * 0.001 + ts as f32).to_le_bytes())
                .collect()
        })
        .collect();

    // Build the checkpoint plan locally (VOL metadata mirror).
    let mut mirror = H5File::create(MemStore::new(
        (TIMESTEPS * (PARTICLES * 4 / 4096 + 3) + 8) as u64,
    ))
    .unwrap();
    let mut steps = VecDeque::new();
    for ts in 0..TIMESTEPS {
        let plan = mirror
            .plan_dataset(&format!("/step{ts}/"), Dtype::F32, PARTICLES as u64)
            .or_else(|_| mirror.plan_dataset(&format!("/step{ts}"), Dtype::F32, PARTICLES as u64))
            .unwrap();
        steps.push_back((ts, plan));
    }

    // Issue each timestep: metadata (LS) then the particle extent (TC).
    fn checkpoint(
        rank: TenantHandle,
        k: &mut Kernel,
        mut steps: VecDeque<(usize, nvme_opf::h5::format::DatasetPlan)>,
        datasets: Rc<Vec<Vec<u8>>>,
        done: Rc<RefCell<Vec<(usize, SimTime)>>>,
    ) {
        let Some((ts, plan)) = steps.pop_front() else {
            return;
        };
        // Metadata phase, sequential LS writes.
        fn meta(
            rank: TenantHandle,
            k: &mut Kernel,
            mut q: VecDeque<(u64, Bytes)>,
            next: Box<dyn FnOnce(&mut Kernel)>,
        ) {
            match q.pop_front() {
                None => next(k),
                Some((lba, block)) => {
                    let r = rank.clone();
                    let ok = rank.submit(
                        k,
                        ReqClass::LatencySensitive,
                        Opcode::Write,
                        lba,
                        1,
                        Some(block),
                        Box::new(move |k, out| {
                            assert!(out.status.is_ok());
                            meta(r, k, q, next);
                        }),
                    );
                    assert!(ok);
                }
            }
        }
        let metaq: VecDeque<(u64, Bytes)> = plan
            .meta
            .iter()
            .map(|m| (m.lba, Bytes::from(m.block.clone())))
            .collect();
        let rank2 = rank.clone();
        let data = Bytes::from(datasets[ts].clone());
        meta(
            rank.clone(),
            k,
            metaq,
            Box::new(move |k| {
                let r3 = rank2.clone();
                let d3 = done.clone();
                let s3 = steps;
                let ds3 = datasets.clone();
                run_extent(
                    rank2,
                    k,
                    ReqClass::ThroughputCritical,
                    Opcode::Write,
                    plan.data_lba,
                    plan.data_blocks,
                    Some(BlockSource::Data(data)),
                    None,
                    Box::new(move |k| {
                        d3.borrow_mut().push((ts, k.now()));
                        checkpoint(r3, k, s3, ds3, d3);
                    }),
                );
            }),
        );
    }

    let done = Rc::new(RefCell::new(Vec::new()));
    checkpoint(rank, &mut k, steps, Rc::new(datasets.clone()), done.clone());
    k.run_to_completion();

    for (ts, at) in done.borrow().iter() {
        println!("checkpoint step {ts} durable at {at}");
    }
    assert_eq!(done.borrow().len(), TIMESTEPS);

    // Verify the checkpoint straight off the SSD (no fabric).
    let mut dev = pair.device().borrow_mut();
    let file = H5File::open(NamespaceStore::new(dev.namespace_mut())).expect("file opens");
    for (ts, data) in datasets.iter().enumerate() {
        let name = file
            .list("/")
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .find(|n| n.contains(&format!("step{ts}")))
            .expect("dataset listed");
        let bytes = file.read_dataset(&format!("/{name}")).unwrap();
        assert_eq!(&bytes, data, "step {ts} bytes identical");
    }
    println!(
        "verified: {TIMESTEPS} datasets x {PARTICLES} particles intact on the device \
         ({} MiB total), written in {}",
        TIMESTEPS * PARTICLES * 4 / (1024 * 1024),
        k.now()
    );
}
