//! h5bench-style I/O kernels and the Figure 9 scaling harness.
//!
//! Mirrors the paper's §V-E setup: each MPI rank hosts one NVMe-oF
//! initiator; every initiator-node runs "one latency-sensitive initiator
//! and the rest as throughput-critical"; the write kernel stores one 1-D
//! particle dataset per timestep; the read kernel reads them back with a
//! dataset-loading overhead between timesteps (the h5bench behaviour the
//! paper discusses).

use crate::format::{Dtype, H5File};
use crate::store::MemStore;
use crate::vol::{run_extent, BlockSource, LatencyMeter};
use bytes::Bytes;
use fabric::Gbps;
use nvme::{Opcode, BLOCK_SIZE};
use opf::{ReqClass, WindowPolicy};
use simkit::{Kernel, SimDuration, SimTime, Tracer};
use std::cell::Cell;
use std::rc::Rc;
use workload::{Env, Pair, RuntimeKind, TenantHandle};

/// Which h5bench kernel to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum H5Kernel {
    /// Write one particle dataset per timestep.
    Write,
    /// Read the datasets back, paying a loading overhead per timestep.
    Read,
}

/// Benchmark configuration (Figure 9's knobs).
#[derive(Clone, Debug)]
pub struct H5BenchConfig {
    /// Runtime under test.
    pub runtime: RuntimeKind,
    /// Fabric speed (the paper's Figure 9 runs 25 Gbps per its caption).
    pub speed: Gbps,
    /// Initiator-node/target-node pairs (paper: 4).
    pub pairs: usize,
    /// Ranks per initiator-node (1 LS + rest TC, paper: up to 10).
    pub ranks_per_node: usize,
    /// Particles per rank per timestep (paper: 8*1024*1024; the harness
    /// defaults lower so sweeps stay tractable — bandwidth is
    /// steady-state and insensitive to total volume).
    pub particles: u64,
    /// Timesteps.
    pub timesteps: usize,
    /// Kernel.
    pub kernel: H5Kernel,
    /// Dataset-loading overhead between read timesteps, per MiB of
    /// dataset (the h5bench behaviour §V-E discusses).
    pub read_load_us_per_mib: f64,
    /// RNG seed.
    pub seed: u64,
}

impl H5BenchConfig {
    /// A Figure 9-shaped default.
    pub fn fig9(runtime: RuntimeKind, kernel: H5Kernel) -> Self {
        H5BenchConfig {
            runtime,
            speed: Gbps::G25,
            pairs: 4,
            ranks_per_node: 10,
            particles: 1024 * 1024,
            timesteps: 3,
            kernel,
            read_load_us_per_mib: 25_000.0,
            seed: 4242,
        }
    }

    /// Total ranks.
    pub fn total_ranks(&self) -> usize {
        self.pairs * self.ranks_per_node
    }

    /// Bytes per rank per timestep (f32 particles).
    pub fn bytes_per_timestep(&self) -> u64 {
        self.particles * 4
    }
}

/// Benchmark outcome.
#[derive(Clone, Debug)]
pub struct H5BenchResult {
    /// Aggregate bandwidth over all ranks (MiB/s of dataset payload).
    pub bandwidth_mib_s: f64,
    /// Mean per-4K-I/O latency (µs) across TC ranks.
    pub avg_latency_us: f64,
    /// Total payload bytes moved.
    pub total_bytes: u64,
    /// Virtual seconds from first issue to last completion.
    pub elapsed_s: f64,
    /// Ranks that completed (must equal the configured total).
    pub ranks_done: usize,
}

/// LS probe ranks move 1/16 of the TC volume: they exist to measure
/// latency under the bulk traffic (§V-E tags one rank per node LS), not
/// to contribute bandwidth, and must not dominate the critical path at
/// queue depth 1.
const LS_VOLUME_DIVISOR: u64 = 16;

/// One timestep's plan: metadata block writes, data extent start, and
/// extent length in blocks.
type TimestepPlan = (Vec<(u64, Bytes)>, u64, u64);

/// Build each rank's file layout locally (the VOL's metadata mirror).
#[expect(
    clippy::expect_used,
    reason = "the plan store is sized for this layout and every config is built in code (fig9's presets, tests), never read from input"
)]
fn plan_rank(cfg: &H5BenchConfig, base_lba: u64, particles: u64) -> Vec<TimestepPlan> {
    let bytes = particles * 4;
    let blocks_needed = 2 + cfg.timesteps as u64 * (1 + bytes.div_ceil(BLOCK_SIZE as u64));
    let mut file = H5File::create(MemStore::new(blocks_needed + 4)).expect("create plan file");
    let mut timesteps = Vec::new();
    for ts in 0..cfg.timesteps {
        let name = format!("/particles_ts{ts}");
        let plan = file
            .plan_dataset(&name, Dtype::F32, particles)
            .expect("plan dataset");
        let mut meta: Vec<(u64, Bytes)> = plan
            .meta
            .iter()
            .map(|m| (base_lba + m.lba, Bytes::from(m.block.clone())))
            .collect();
        // h5bench stamps provenance attributes on each dataset; these
        // ride as one more LS metadata write (the updated header block).
        let attr = file
            .set_attr(&name, "timestep", &(ts as u64).to_le_bytes())
            .expect("attr fits header");
        meta.push((base_lba + attr.lba, Bytes::from(attr.block)));
        timesteps.push((meta, base_lba + plan.data_lba, plan.data_blocks));
    }
    timesteps
}

/// Drive one rank through all timesteps, then call `on_done`.
#[allow(clippy::too_many_arguments)]
fn run_rank(
    ini: TenantHandle,
    k: &mut Kernel,
    cfg: H5BenchConfig,
    class: ReqClass,
    plan: Rc<Vec<TimestepPlan>>,
    meter: Rc<LatencyMeter>,
    ts: usize,
    on_done: Rc<dyn Fn(&mut Kernel)>,
) {
    if ts >= cfg.timesteps {
        on_done(k);
        return;
    }
    let (meta, data_lba, data_blocks) = plan[ts].clone();
    let opcode = match cfg.kernel {
        H5Kernel::Write => Opcode::Write,
        H5Kernel::Read => Opcode::Read,
    };

    // Metadata phase: LS block I/O, strictly ordered (header before
    // group table before superblock on write; opens read them back).
    fn meta_phase(
        ini: TenantHandle,
        k: &mut Kernel,
        mut meta: std::collections::VecDeque<(u64, Bytes)>,
        write: bool,
        next: Box<dyn FnOnce(&mut Kernel)>,
    ) {
        match meta.pop_front() {
            None => next(k),
            Some((lba, block)) => {
                let ini2 = ini.clone();
                let (opcode, payload) = if write {
                    (Opcode::Write, Some(block))
                } else {
                    (Opcode::Read, None)
                };
                let ok = ini.submit(
                    k,
                    ReqClass::LatencySensitive,
                    opcode,
                    lba,
                    1,
                    payload,
                    Box::new(move |k, out| {
                        assert!(out.status.is_ok());
                        meta_phase(ini2, k, meta, write, next);
                    }),
                );
                assert!(ok, "LS qpair has capacity");
            }
        }
    }

    let is_write = cfg.kernel == H5Kernel::Write;
    let meta_q: std::collections::VecDeque<(u64, Bytes)> = meta.into_iter().collect();
    let ini2 = ini.clone();
    let cfg2 = cfg.clone();
    let plan2 = plan.clone();
    let meter2 = meter.clone();
    let after_meta = Box::new(move |k: &mut Kernel| {
        // Read kernel: dataset loading overhead before the bulk reads.
        let load_delay = if cfg2.kernel == H5Kernel::Read {
            let mib = (data_blocks * BLOCK_SIZE as u64) as f64 / (1024.0 * 1024.0);
            SimDuration::from_micros_f64(cfg2.read_load_us_per_mib * mib)
        } else {
            SimDuration::ZERO
        };
        let ini3 = ini2.clone();
        let cfg3 = cfg2.clone();
        let plan3 = plan2.clone();
        let meter3 = meter2.clone();
        let on_done2 = on_done.clone();
        k.schedule_in(load_delay, move |k| {
            let source = if opcode == Opcode::Write {
                Some(BlockSource::Synthetic(Bytes::from(vec![0u8; BLOCK_SIZE])))
            } else {
                None
            };
            let ini4 = ini3.clone();
            let meter4 = meter3.clone();
            run_extent(
                ini3,
                k,
                class,
                opcode,
                data_lba,
                data_blocks,
                source,
                Some(meter4),
                Box::new(move |k| {
                    run_rank(ini4, k, cfg3, class, plan3, meter3, ts + 1, on_done2);
                }),
            );
        });
    });
    meta_phase(ini, k, meta_q, is_write, after_meta);
}

/// Run the benchmark to completion and report aggregate results.
pub fn run_h5bench(cfg: &H5BenchConfig) -> H5BenchResult {
    run_stack(cfg).0
}

/// [`run_h5bench`], handing back the torn-down pairs so a test can
/// watch them die.
fn run_stack(cfg: &H5BenchConfig) -> (H5BenchResult, Vec<Pair>) {
    assert!(cfg.pairs >= 1 && cfg.ranks_per_node >= 1 && cfg.timesteps >= 1);
    let mut k = Kernel::new(cfg.seed);
    let window = opf::optimal_window(
        cfg.speed,
        if cfg.kernel == H5Kernel::Write {
            1.0
        } else {
            0.0
        },
        cfg.ranks_per_node.saturating_sub(1).max(1),
    );
    let env = Env::fault_free(cfg.speed, WindowPolicy::Static(window));

    let done_count = Rc::new(Cell::new(0usize));
    let last_tc_done = Rc::new(Cell::new(SimTime::ZERO));
    let meter = Rc::new(LatencyMeter::default());
    let mut tc_ranks = 0u64;
    // Regions are sized by the largest (TC) rank so they never overlap
    // regardless of class.
    let tc_blocks = cfg.bytes_per_timestep().div_ceil(BLOCK_SIZE as u64);
    let tc_region = 4 + cfg.timesteps as u64 * (1 + tc_blocks) + 16;

    let mut pairs = Vec::with_capacity(cfg.pairs);
    for p in 0..cfg.pairs {
        let device_seed = cfg.seed ^ (p as u64 + 1).wrapping_mul(0xABCD_1234);
        let mut pair = env.pair(cfg.runtime, p as u32, device_seed, true, Tracer::disabled());
        // Every rank of a node shares its NIC.
        let node = env.endpoint(format!("node{p}"));

        for slot in 0..cfg.ranks_per_node {
            // One LS rank per node, the rest TC (§V-E).
            let class = if slot == 0 && cfg.ranks_per_node > 1 {
                ReqClass::LatencySensitive
            } else {
                ReqClass::ThroughputCritical
            };
            let qd = match class {
                ReqClass::LatencySensitive => 1,
                ReqClass::ThroughputCritical => 128,
            };
            let ini = env.connect(&mut pair, &node, slot as u8, qd);

            // Each rank owns a disjoint file region on the pair's SSD.
            // LS probe ranks move a fraction of the volume (see
            // LS_VOLUME_DIVISOR).
            let particles = match class {
                ReqClass::ThroughputCritical => {
                    tc_ranks += 1;
                    cfg.particles
                }
                ReqClass::LatencySensitive => (cfg.particles / LS_VOLUME_DIVISOR).max(1024),
            };
            let plan = Rc::new(plan_rank(cfg, slot as u64 * tc_region, particles));
            let dc = done_count.clone();
            let ld = last_tc_done.clone();
            let is_tc = class == ReqClass::ThroughputCritical;
            let on_done: Rc<dyn Fn(&mut Kernel)> = Rc::new(move |k: &mut Kernel| {
                dc.set(dc.get() + 1);
                if is_tc {
                    ld.set(k.now());
                }
            });
            let cfg2 = cfg.clone();
            let meter2 = if is_tc {
                meter.clone()
            } else {
                Rc::new(LatencyMeter::default())
            };
            let idx = (p * cfg.ranks_per_node + slot) as u64;
            k.schedule_at(SimTime::from_micros(idx), move |k| {
                run_rank(ini, k, cfg2, class, plan, meter2, 0, on_done);
            });
        }
        pairs.push(pair);
    }

    k.run_to_completion();
    let ranks_done = done_count.get();
    assert_eq!(
        ranks_done,
        cfg.total_ranks(),
        "all ranks must finish (deadlock otherwise)"
    );
    // Bandwidth is reported over the bulk (TC) ranks; the QD-1 LS probes
    // measure latency, not throughput.
    let elapsed_s = last_tc_done.get().as_secs_f64();
    let total_bytes = tc_ranks * cfg.timesteps as u64 * cfg.bytes_per_timestep();
    let result = H5BenchResult {
        bandwidth_mib_s: total_bytes as f64 / (1024.0 * 1024.0) / elapsed_s.max(1e-9),
        avg_latency_us: meter.mean_us(),
        total_bytes,
        elapsed_s,
        ranks_done,
    };
    for pair in &pairs {
        pair.teardown();
    }
    (result, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(runtime: RuntimeKind, kernel: H5Kernel) -> H5BenchConfig {
        H5BenchConfig {
            runtime,
            speed: Gbps::G25,
            pairs: 1,
            ranks_per_node: 3,
            particles: 32 * 1024, // 128 KiB per timestep
            timesteps: 2,
            kernel,
            read_load_us_per_mib: 350.0,
            seed: 7,
        }
    }

    #[test]
    fn write_kernel_completes_all_ranks() {
        let r = run_h5bench(&tiny(RuntimeKind::Opf, H5Kernel::Write));
        assert_eq!(r.ranks_done, 3);
        assert!(r.bandwidth_mib_s > 0.0);
        assert!(r.avg_latency_us > 0.0);
        // 3 ranks, one is the LS probe: bandwidth accounts the 2 TC
        // ranks' bytes.
        assert_eq!(r.total_bytes, 2 * 2 * 128 * 1024);
    }

    #[test]
    fn read_kernel_pays_loading_overhead() {
        let mut cfg = tiny(RuntimeKind::Opf, H5Kernel::Read);
        let fast = run_h5bench(&cfg);
        cfg.read_load_us_per_mib = 50_000.0;
        let slow = run_h5bench(&cfg);
        assert!(
            slow.bandwidth_mib_s < fast.bandwidth_mib_s * 0.8,
            "loading overhead must depress read bandwidth: {} vs {}",
            slow.bandwidth_mib_s,
            fast.bandwidth_mib_s
        );
    }

    #[test]
    fn opf_beats_spdk_on_writes() {
        let mut s_cfg = tiny(RuntimeKind::Spdk, H5Kernel::Write);
        let mut o_cfg = tiny(RuntimeKind::Opf, H5Kernel::Write);
        // More ranks and volume so steady state dominates.
        for c in [&mut s_cfg, &mut o_cfg] {
            c.ranks_per_node = 5;
            c.particles = 128 * 1024;
        }
        let s = run_h5bench(&s_cfg);
        let o = run_h5bench(&o_cfg);
        assert!(
            o.bandwidth_mib_s > s.bandwidth_mib_s,
            "oPF {} vs SPDK {}",
            o.bandwidth_mib_s,
            s.bandwidth_mib_s
        );
    }

    /// `run_h5bench` used to leak every pair through the target ↔
    /// initiator receive closures. Once the returned pairs go, nothing
    /// may keep a stack (and so its SSD) alive.
    #[test]
    fn run_frees_its_stack() {
        for runtime in [RuntimeKind::Spdk, RuntimeKind::Opf] {
            for kernel in [H5Kernel::Write, H5Kernel::Read] {
                let mut cfg = tiny(runtime, kernel);
                cfg.pairs = 2;
                let (_, pairs) = run_stack(&cfg);
                let devices: Vec<_> = pairs.iter().map(|p| Rc::downgrade(p.device())).collect();
                assert!(devices.iter().all(|d| d.upgrade().is_some()));
                drop(pairs);
                for d in &devices {
                    assert!(
                        d.upgrade().is_none(),
                        "{runtime:?} {kernel:?} outlives its run"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let a = run_h5bench(&tiny(RuntimeKind::Spdk, H5Kernel::Write));
        let b = run_h5bench(&tiny(RuntimeKind::Spdk, H5Kernel::Write));
        assert_eq!(a.elapsed_s, b.elapsed_s);
        assert_eq!(a.total_bytes, b.total_bytes);
    }

    #[test]
    fn scaling_ranks_increases_bandwidth() {
        let mut one = tiny(RuntimeKind::Opf, H5Kernel::Write);
        one.ranks_per_node = 2;
        let mut many = one.clone();
        many.pairs = 3;
        let r1 = run_h5bench(&one);
        let r3 = run_h5bench(&many);
        assert!(
            r3.bandwidth_mib_s > r1.bandwidth_mib_s * 2.0,
            "3 pairs {} vs 1 pair {}",
            r3.bandwidth_mib_s,
            r1.bandwidth_mib_s
        );
    }
}
