//! Striped volumes: one client addressing many NVMe-oF targets.
//!
//! The paper's closing claim covers "multiple tenants accessing single
//! or many NVMe SSDs"; its experiments give each tenant one target. This
//! module adds the many-SSDs-per-tenant direction: a RAID-0-style volume
//! that stripes a flat LBA space across several NVMe-oF targets, each
//! reached through its own qpair (and its own NVMe-oPF priority manager,
//! so coalescing windows run per target).

use crate::runner::{build_pair_traced, Pair};
use crate::scenario::{RuntimeKind, Speed};
use bytes::Bytes;
use nvme::Opcode;
use nvmf::qpair::IoCallback;
use opf::ReqClass;
use simkit::{Kernel, Tracer};

/// A flat LBA space striped over `targets.len()` NVMe-oF targets.
pub struct StripedVolume {
    targets: Vec<Pair>,
    /// Blocks per stripe unit.
    stripe_blocks: u64,
}

/// Where a volume LBA lands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Index of the owning target.
    pub target: usize,
    /// LBA within that target's namespace.
    pub lba: u64,
}

impl StripedVolume {
    /// Build a volume over `n_targets` fresh targets (each with one SSD
    /// and a dedicated qpair of depth `qd`), striping in units of
    /// `stripe_blocks` 4K blocks.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        k: &mut Kernel,
        runtime: RuntimeKind,
        speed: Speed,
        n_targets: usize,
        qd: usize,
        window: opf::WindowPolicy,
        stripe_blocks: u64,
        seed: u64,
    ) -> Self {
        assert!(n_targets >= 1 && stripe_blocks >= 1);
        let targets = (0..n_targets)
            .map(|i| {
                build_pair_traced(
                    k,
                    runtime,
                    speed,
                    1,
                    qd,
                    window,
                    seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9),
                    true,
                    Tracer::disabled(),
                )
            })
            .collect();
        StripedVolume {
            targets,
            stripe_blocks,
        }
    }

    /// Number of backing targets.
    pub fn width(&self) -> usize {
        self.targets.len()
    }

    /// RAID-0 address mapping.
    pub fn place(&self, lba: u64) -> Placement {
        let n = self.targets.len() as u64;
        let stripe = lba / self.stripe_blocks;
        let offset = lba % self.stripe_blocks;
        Placement {
            target: (stripe % n) as usize,
            lba: (stripe / n) * self.stripe_blocks + offset,
        }
    }

    /// True when the owning target's qpair can take the request.
    pub fn has_capacity(&self, lba: u64) -> bool {
        let p = self.place(lba);
        self.targets[p.target].initiators[0].has_capacity()
    }

    /// Submit one single-block I/O at volume address `lba`.
    pub fn submit(
        &self,
        k: &mut Kernel,
        class: ReqClass,
        opcode: Opcode,
        lba: u64,
        payload: Option<Bytes>,
        cb: IoCallback,
    ) -> bool {
        let p = self.place(lba);
        self.targets[p.target].initiators[0].submit(k, class, opcode, p.lba, 1, payload, cb)
    }

    /// Drain partially filled windows on every backing target.
    pub fn flush(&self, k: &mut Kernel) {
        for t in &self.targets {
            t.initiators[0].flush(k, Box::new(|_, _| {}));
        }
    }

    /// Total completion notifications across backing targets.
    pub fn notifications(&self) -> u64 {
        self.targets.iter().map(|t| t.notifications()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::rc::Rc;

    #[test]
    fn placement_is_a_bijection_and_balanced() {
        let mut k = Kernel::new(1);
        let v = StripedVolume::build(
            &mut k,
            RuntimeKind::Opf,
            Speed::G100,
            4,
            16,
            opf::WindowPolicy::Static(8),
            8,
            7,
        );
        let mut seen: BTreeMap<(usize, u64), u64> = BTreeMap::new();
        let mut per_target = [0u64; 4];
        for lba in 0..4096 {
            let p = v.place(lba);
            assert!(p.target < 4);
            let prev = seen.insert((p.target, p.lba), lba);
            assert!(prev.is_none(), "collision at {p:?}");
            per_target[p.target] += 1;
        }
        // 4096 LBAs over 4 targets in stripes of 8: exactly 1024 each.
        assert!(per_target.iter().all(|&c| c == 1024), "{per_target:?}");
        // Consecutive LBAs within one stripe unit stay on one target.
        assert_eq!(v.place(0).target, v.place(7).target);
        assert_ne!(v.place(7).target, v.place(8).target);
    }

    #[test]
    fn striping_multiplies_single_tenant_throughput() {
        // One tenant is device-bound at ~267K IOPS on a single SSD; a
        // 3-wide stripe should blow past that.
        let run = |width: usize| -> f64 {
            let mut k = Kernel::new(11);
            let v = Rc::new(StripedVolume::build(
                &mut k,
                RuntimeKind::Opf,
                Speed::G100,
                width,
                128,
                opf::WindowPolicy::Static(32),
                16,
                11,
            ));
            let done = Rc::new(RefCell::new(0u64));
            fn pump(
                v: Rc<StripedVolume>,
                k: &mut Kernel,
                done: Rc<RefCell<u64>>,
                lba: u64,
                end: simkit::SimTime,
            ) {
                if k.now() >= end {
                    return;
                }
                let v2 = v.clone();
                let d2 = done.clone();
                let stride = v.width() as u64 * 16;
                v.submit(
                    k,
                    ReqClass::ThroughputCritical,
                    Opcode::Read,
                    lba % (1 << 20),
                    None,
                    Box::new(move |k, out| {
                        assert!(out.status.is_ok());
                        *d2.borrow_mut() += 1;
                        pump(v2, k, d2.clone(), lba + stride, end);
                    }),
                );
            }
            let end = simkit::SimTime::from_millis(60);
            // Spread the closed loop across stripes so all targets work.
            for q in 0..(128 * width as u64) {
                pump(v.clone(), &mut k, done.clone(), q * 16, end);
            }
            k.set_horizon(end);
            k.run_to_completion();
            let d = *done.borrow();
            d as f64 / 0.06
        };
        let one = run(1);
        let three = run(3);
        assert!(one < 300_000.0, "single SSD cap: {one}");
        assert!(
            three > one * 2.3,
            "3-wide stripe should scale: {three} vs {one}"
        );
    }

    #[test]
    fn flush_completes_partial_windows_across_targets() {
        let mut k = Kernel::new(3);
        let v = Rc::new(StripedVolume::build(
            &mut k,
            RuntimeKind::Opf,
            Speed::G100,
            2,
            32,
            opf::WindowPolicy::Static(16),
            4,
            3,
        ));
        let done = Rc::new(RefCell::new(0u32));
        // 3 blocks land on each of the two targets: partial windows.
        for lba in 0..6u64 {
            let d = done.clone();
            v.submit(
                &mut k,
                ReqClass::ThroughputCritical,
                Opcode::Read,
                lba * 4, // one per stripe unit, alternating targets
                None,
                Box::new(move |_, _| *d.borrow_mut() += 1),
            );
        }
        v.flush(&mut k);
        k.run_to_completion();
        assert_eq!(*done.borrow(), 6);
        assert!(v.notifications() >= 2, "one coalesced resp per target");
    }
}
