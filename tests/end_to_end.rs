//! Cross-crate integration tests: the full stack from application file
//! format down to simulated flash, over the fabric, under both runtimes.

use bytes::Bytes;
use nvme_opf::h5::format::Dtype;
use nvme_opf::h5::vol::{run_extent, BlockSource};
use nvme_opf::h5::{H5File, MemStore, NamespaceStore};
use nvme_opf::nvme::{Opcode, BLOCK_SIZE};
use nvme_opf::opf::{ReqClass, WindowPolicy};
use nvme_opf::simkit::Kernel;
use nvme_opf::workload::scenario::Speed;
use nvme_opf::workload::{build_pair, Pair, RuntimeKind, TenantHandle};
use std::cell::RefCell;
use std::rc::Rc;

/// One NVMe-oPF tenant + target + device with real data storage.
fn opf_rig(window: u32) -> (Kernel, Pair) {
    let mut k = Kernel::new(2024);
    let pair = build_pair(
        &mut k,
        RuntimeKind::Opf,
        Speed::G100,
        1,
        128,
        WindowPolicy::Static(window),
        11,
        false,
    );
    (k, pair)
}

/// An HDF5-style file written across the simulated fabric — metadata as
/// latency-sensitive I/O, particle data as coalesced throughput-critical
/// I/O — must be byte-for-byte readable straight off the device
/// namespace afterwards.
#[test]
fn h5_file_written_over_fabric_is_readable_from_device() {
    let (mut k, pair) = opf_rig(8);
    let particles: Vec<u8> = (0..50_000u32)
        .flat_map(|i| (i as f32).sqrt().to_le_bytes())
        .collect();

    // Plan the file locally (the VOL's metadata mirror), including a
    // provenance attribute (one more metadata block image to ship).
    let mut mirror = H5File::create(MemStore::new(256)).unwrap();
    let plan = mirror
        .plan_dataset("/particles", Dtype::F32, 50_000)
        .unwrap();
    let attr_write = mirror
        .set_attr("/particles", "units", b"sqrt-index")
        .unwrap();

    let rank = pair.initiators[0].clone();
    let done = Rc::new(RefCell::new(false));

    // Metadata first (LS), then the bulk extent (TC) with REAL bytes.
    let mut meta: Vec<(u64, Bytes)> = plan
        .meta
        .iter()
        .map(|m| (m.lba, Bytes::from(m.block.clone())))
        .collect();
    meta.push((attr_write.lba, Bytes::from(attr_write.block)));
    fn write_meta(
        rank: TenantHandle,
        k: &mut Kernel,
        mut meta: std::collections::VecDeque<(u64, Bytes)>,
        next: Box<dyn FnOnce(&mut Kernel)>,
    ) {
        match meta.pop_front() {
            None => next(k),
            Some((lba, block)) => {
                let r2 = rank.clone();
                let ok = rank.submit(
                    k,
                    ReqClass::LatencySensitive,
                    Opcode::Write,
                    lba,
                    1,
                    Some(block),
                    Box::new(move |k, out| {
                        assert!(out.status.is_ok());
                        write_meta(r2, k, meta, next);
                    }),
                );
                assert!(ok);
            }
        }
    }

    let rank2 = rank.clone();
    let d2 = done.clone();
    let data = Bytes::from(particles.clone());
    let data_lba = plan.data_lba;
    let data_blocks = plan.data_blocks;
    write_meta(
        rank.clone(),
        &mut k,
        meta.into_iter().collect(),
        Box::new(move |k| {
            run_extent(
                rank2,
                k,
                ReqClass::ThroughputCritical,
                Opcode::Write,
                data_lba,
                data_blocks,
                Some(BlockSource::Data(data)),
                None,
                Box::new(move |_| *d2.borrow_mut() = true),
            );
        }),
    );
    k.run_to_completion();
    assert!(*done.borrow(), "write must complete");

    // Re-open the file straight from the device namespace (no fabric).
    let mut dev = pair.device().borrow_mut();
    let store = NamespaceStore::new(dev.namespace_mut());
    let file = H5File::open(store).expect("file written over fabric opens");
    let read_back = file.read_dataset("/particles").expect("dataset readable");
    assert_eq!(
        read_back, particles,
        "data integrity through the full stack"
    );
    assert_eq!(
        file.get_attr("/particles", "units")
            .expect("attribute readable"),
        b"sqrt-index",
        "attributes survive the fabric round trip"
    );
}

/// The same dataset read back over the fabric (TC coalesced reads)
/// matches what was written.
#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "the test copies each payload out to compare it"
)]
fn tc_reads_over_fabric_return_written_bytes() {
    let (mut k, pair) = opf_rig(4);
    // Seed the namespace directly with a pattern.
    let blocks = 16u64;
    for lba in 0..blocks {
        let block: Vec<u8> = (0..BLOCK_SIZE)
            .map(|i| ((lba as usize * 7 + i * 13) % 251) as u8)
            .collect();
        pair.device()
            .borrow_mut()
            .namespace_mut()
            .write(lba, &block)
            .unwrap();
    }
    let got: Rc<RefCell<Vec<Option<Vec<u8>>>>> = Rc::new(RefCell::new(vec![None; blocks as usize]));
    for lba in 0..blocks {
        let g = got.clone();
        let ok = pair.initiators[0].submit(
            &mut k,
            ReqClass::ThroughputCritical,
            Opcode::Read,
            lba,
            1,
            None,
            Box::new(move |_, out| {
                assert!(out.status.is_ok());
                g.borrow_mut()[lba as usize] = out.data.map(|b| b.to_vec());
            }),
        );
        assert!(ok);
    }
    k.run_to_completion();
    for lba in 0..blocks {
        let expect: Vec<u8> = (0..BLOCK_SIZE)
            .map(|i| ((lba as usize * 7 + i * 13) % 251) as u8)
            .collect();
        assert_eq!(
            got.borrow()[lba as usize].as_deref(),
            Some(&expect[..]),
            "block {lba}"
        );
    }
}
