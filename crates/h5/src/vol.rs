//! VOL-style connector: routes file I/O over the simulated fabric.
//!
//! The paper co-designs h5bench with NVMe-oPF "with the HDF5 Virtual
//! Object Layer (VOL) to intercept HDF5 APIs and utilize NVMe-oPF
//! priority managers" (§V-E). This connector does the same job: every
//! rank owns an initiator; dataset payloads go out as
//! **throughput-critical** 4K writes/reads, metadata blocks as
//! **latency-sensitive** I/O (§III-C's "metadata or control information"
//! example).

use bytes::Bytes;
use nvme::{Opcode, BLOCK_SIZE};
use nvmf::qpair::IoCallback;
use opf::ReqClass;
use simkit::Kernel;
use workload::TenantHandle;

/// Content for a run of blocks: either real bytes (integration tests,
/// data verified end-to-end) or a shared synthetic block (timing runs).
#[derive(Clone)]
pub enum BlockSource {
    /// Slice real data into per-block payloads (zero-padded tail).
    Data(Bytes),
    /// Reuse one shared block image for every block.
    Synthetic(Bytes),
}

impl BlockSource {
    fn block(&self, index: u64) -> Bytes {
        match self {
            BlockSource::Synthetic(b) => b.clone(),
            BlockSource::Data(d) => {
                let start = (index as usize) * BLOCK_SIZE;
                let end = (start + BLOCK_SIZE).min(d.len());
                if start >= d.len() {
                    return Bytes::from(vec![0u8; BLOCK_SIZE]);
                }
                let chunk = d.slice(start..end);
                if chunk.len() == BLOCK_SIZE {
                    chunk
                } else {
                    let mut padded = vec![0u8; BLOCK_SIZE];
                    padded[..chunk.len()].copy_from_slice(&chunk);
                    Bytes::from(padded)
                }
            }
        }
    }
}

/// Accumulates per-I/O latency for mean-latency reporting.
#[derive(Default, Debug)]
pub struct LatencyMeter {
    /// Total latency in nanoseconds.
    pub sum_ns: std::cell::Cell<u64>,
    /// Number of I/Os recorded.
    pub count: std::cell::Cell<u64>,
}

impl LatencyMeter {
    /// Record one I/O latency.
    pub fn record(&self, ns: u64) {
        self.sum_ns.set(self.sum_ns.get() + ns);
        self.count.set(self.count.get() + 1);
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let c = self.count.get();
        if c == 0 {
            0.0
        } else {
            self.sum_ns.get() as f64 / c as f64 / 1e3
        }
    }
}

/// Issue `blocks` sequential block I/Os starting at `lba` through the
/// rank's initiator in a closed loop bounded by the queue depth, then
/// invoke `on_done`. Writes pull payloads from `source`; reads discard
/// data (the bench layer measures timing; data-path verification uses
/// the store adapters).
#[allow(clippy::too_many_arguments)]
pub fn run_extent(
    ini: TenantHandle,
    k: &mut Kernel,
    class: ReqClass,
    opcode: Opcode,
    lba: u64,
    blocks: u64,
    source: Option<BlockSource>,
    meter: Option<std::rc::Rc<LatencyMeter>>,
    on_done: ExtentDone,
) {
    debug_assert!(blocks > 0);
    let state = std::rc::Rc::new(std::cell::RefCell::new(ExtentState {
        next: 0,
        completed: 0,
        blocks,
        lba,
        class,
        opcode,
        source,
        meter,
        flushed: false,
        on_done: Some(on_done),
    }));
    pump(ini.clone(), state.clone(), k);
    maybe_flush_tail(&ini, &state, k);
}

/// Once every block has been issued, a partially filled NVMe-oPF window
/// would leave the tail waiting forever — force a drain. Retried from
/// completion callbacks until the flush command gets a queue slot.
fn maybe_flush_tail(
    ini: &TenantHandle,
    state: &std::rc::Rc<std::cell::RefCell<ExtentState>>,
    k: &mut Kernel,
) {
    let need = {
        let s = state.borrow();
        s.next >= s.blocks && s.completed < s.blocks && !s.flushed
    };
    if need && ini.flush(k, Box::new(|_, _| {})) {
        state.borrow_mut().flushed = true;
    }
}

/// Completion callback invoked when the whole extent is durable.
type ExtentDone = Box<dyn FnOnce(&mut Kernel)>;

struct ExtentState {
    next: u64,
    completed: u64,
    blocks: u64,
    lba: u64,
    class: ReqClass,
    opcode: Opcode,
    source: Option<BlockSource>,
    meter: Option<std::rc::Rc<LatencyMeter>>,
    flushed: bool,
    on_done: Option<ExtentDone>,
}

fn pump(ini: TenantHandle, state: std::rc::Rc<std::cell::RefCell<ExtentState>>, k: &mut Kernel) {
    loop {
        let (class, opcode, lba, payload) = {
            let mut s = state.borrow_mut();
            if s.next >= s.blocks || !ini.has_capacity() {
                break;
            }
            let i = s.next;
            s.next += 1;
            let payload = if s.opcode == Opcode::Write {
                Some(match &s.source {
                    Some(src) => src.block(i),
                    None => Bytes::from(vec![0u8; BLOCK_SIZE]),
                })
            } else {
                None
            };
            (s.class, s.opcode, s.lba + i, payload)
        };
        let ini2 = ini.clone();
        let state2 = state.clone();
        let cb: IoCallback = Box::new(move |k, out| {
            assert!(out.status.is_ok(), "extent I/O failed: {:?}", out.status);
            let finished = {
                let mut s = state2.borrow_mut();
                if let Some(m) = &s.meter {
                    m.record(out.latency.as_nanos());
                }
                s.completed += 1;
                s.completed == s.blocks
            };
            if finished {
                // `completed` reaches `blocks` once, so `on_done` is there.
                let Some(done) = state2.borrow_mut().on_done.take() else {
                    return;
                };
                // Drain a partially filled oPF window before reporting;
                // SPDK (or an already-drained window) completes directly.
                let done_cell = std::rc::Rc::new(std::cell::RefCell::new(Some(done)));
                let d2 = done_cell.clone();
                let fired = ini2.flush(
                    k,
                    Box::new(move |k, _| {
                        if let Some(f) = d2.borrow_mut().take() {
                            f(k);
                        }
                    }),
                );
                if !fired {
                    if let Some(f) = done_cell.borrow_mut().take() {
                        f(k);
                    }
                }
            } else {
                pump(ini2.clone(), state2.clone(), k);
                maybe_flush_tail(&ini2, &state2, k);
            }
        });
        let ok = ini.submit(k, class, opcode, lba, 1, payload, cb);
        assert!(ok, "has_capacity checked above");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opf::WindowPolicy;
    use std::cell::RefCell;
    use std::rc::Rc;
    use workload::scenario::Speed;
    use workload::RuntimeKind;

    #[test]
    fn latency_meter_means() {
        let m = LatencyMeter::default();
        assert_eq!(m.mean_us(), 0.0);
        m.record(1_000);
        m.record(3_000);
        assert_eq!(m.count.get(), 2);
        assert!((m.mean_us() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn block_source_synthetic_repeats() {
        let b = BlockSource::Synthetic(Bytes::from(vec![7u8; BLOCK_SIZE]));
        assert_eq!(b.block(0), b.block(99));
        assert_eq!(b.block(5).len(), BLOCK_SIZE);
    }

    #[test]
    fn block_source_data_slices_and_pads() {
        let mut data = vec![1u8; BLOCK_SIZE];
        data.extend(vec![2u8; 100]); // 100-byte tail
        let b = BlockSource::Data(Bytes::from(data));
        let b0 = b.block(0);
        assert!(b0.iter().all(|&x| x == 1));
        let b1 = b.block(1);
        assert_eq!(b1.len(), BLOCK_SIZE);
        assert!(b1[..100].iter().all(|&x| x == 2));
        assert!(b1[100..].iter().all(|&x| x == 0), "tail zero-padded");
        // Past the end: zeros.
        assert!(b.block(9).iter().all(|&x| x == 0));
    }

    #[test]
    fn run_extent_drives_queue_depth_and_finishes() {
        let mut k = Kernel::new(3);
        let pair = workload::build_pair(
            &mut k,
            RuntimeKind::Opf,
            Speed::G100,
            1,
            16,
            WindowPolicy::Static(8),
            4,
            true,
        );

        let meter = Rc::new(LatencyMeter::default());
        let done = Rc::new(RefCell::new(false));
        let d2 = done.clone();
        // 100 blocks through a QD-16 pipe with windows of 8 (not a
        // multiple: the tail needs the flush path).
        run_extent(
            pair.initiators[0].clone(),
            &mut k,
            ReqClass::ThroughputCritical,
            Opcode::Write,
            0,
            100,
            Some(BlockSource::Synthetic(Bytes::from(vec![0u8; BLOCK_SIZE]))),
            Some(meter.clone()),
            Box::new(move |_| *d2.borrow_mut() = true),
        );
        k.run_to_completion();
        assert!(*done.borrow());
        assert_eq!(meter.count.get(), 100);
        assert!(meter.mean_us() > 10.0);
    }
}
