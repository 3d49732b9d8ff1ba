//! The NVMe device: flash units + namespace, driven by events.

use crate::flash::FlashProfile;
use crate::namespace::{Namespace, NsError};
use crate::spec::{Cqe, Opcode, Sqe, Status, BLOCK_SIZE};
use bytes::Bytes;
use simkit::{Kernel, Metrics, MetricsSource, Pcg32, Resource, Shared, SimDuration, SimTime};

/// Outcome of one I/O delivered to the submitter's callback.
#[derive(Debug)]
pub struct IoResult {
    /// The completion entry (CID, status, SQ head).
    pub cqe: Cqe,
    /// Read data (present iff the command was a successful read).
    /// Reference-counted so the transport can forward it without copies.
    pub data: Option<Bytes>,
}

/// Device counters.
#[derive(Clone, Debug, Default)]
pub struct DeviceStats {
    /// Completed read commands.
    pub reads: u64,
    /// Completed write commands.
    pub writes: u64,
    /// Completed flushes.
    pub flushes: u64,
    /// Error completions.
    pub errors: u64,
    /// 4K blocks read.
    pub blocks_read: u64,
    /// 4K blocks written.
    pub blocks_written: u64,
    /// Highest number of simultaneously in-flight commands.
    pub max_inflight: usize,
    /// Completions that were posted out of submission order.
    pub out_of_order_completions: u64,
}

/// An NVMe SSD model.
///
/// Each command is fetched the moment it is submitted, dispatched to the
/// least-loaded flash unit with a jittered service time, mutates the
/// [`Namespace`] when service completes, and completes with a [`Cqe`]
/// carrying the SQ head of a 1024-entry queue. Because units drain
/// independently, CQEs land out of submission order under concurrency —
/// the §IV-C behaviour NVMe-oPF's initiator-side queue must absorb.
pub struct NvmeDevice {
    profile: FlashProfile,
    ns: Namespace,
    units: Vec<Resource>,
    rng: Pcg32,
    /// Monotone sequence of submissions, used to detect reordering and
    /// to report the SQ head.
    submit_seq: u64,
    complete_watermark: u64,
    inflight: usize,
    /// When false, the namespace is not touched: payloads are dropped and
    /// reads return cached zeros. Timing-only mode for large performance
    /// sweeps; correctness runs keep it on.
    store_data: bool,
    /// Probability that a media access fails with an internal error
    /// (deterministic per seed). Fault-injection knob for testing error
    /// propagation through coalesced batches.
    error_rate: f64,
    /// Cached zero buffer whose views timing-only reads hand out, as
    /// long as the longest such read.
    zero_block: Bytes,
    /// Counters.
    pub stats: DeviceStats,
}

impl NvmeDevice {
    /// Create a device with the given flash profile, capacity and seed.
    pub fn new(profile: FlashProfile, capacity_blocks: u64, seed: u64) -> Self {
        let units = (0..profile.units)
            .map(|_| Resource::new("flash_unit"))
            .collect();
        NvmeDevice {
            profile,
            ns: Namespace::new(1, capacity_blocks),
            units,
            rng: Pcg32::new(seed ^ 0x5511_D0D0),
            submit_seq: 0,
            complete_watermark: 0,
            inflight: 0,
            store_data: true,
            error_rate: 0.0,
            zero_block: Bytes::from(vec![0u8; BLOCK_SIZE]),
            stats: DeviceStats::default(),
        }
    }

    /// The device's flash profile.
    pub fn profile(&self) -> &FlashProfile {
        &self.profile
    }

    /// Disable (or re-enable) media data storage. With storage disabled
    /// the timing model is unchanged but payload bytes are neither kept
    /// nor returned (reads yield zeros), which large parameter sweeps use
    /// to stay memory- and allocation-free on the data path.
    pub fn set_store_data(&mut self, store: bool) {
        self.store_data = store;
    }

    /// Inject media failures: each command independently fails with an
    /// internal error with probability `rate` (sampled from the device's
    /// deterministic RNG).
    pub fn inject_errors(&mut self, rate: f64) {
        assert!((0.0..=1.0).contains(&rate));
        self.error_rate = rate;
    }

    /// Direct namespace access (used by tests and by format-level tools
    /// that bypass the fabric).
    pub fn namespace_mut(&mut self) -> &mut Namespace {
        &mut self.ns
    }

    /// Commands currently being serviced.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Mean busy fraction of the flash units over `[0, now]` — the
    /// device-level utilization figure the paper's throughput plots use.
    pub fn flash_busy_fraction(&self, now: SimTime) -> f64 {
        if self.units.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.units.iter().map(|u| u.utilization(now)).sum();
        sum / self.units.len() as f64
    }

    /// Pick the unit that frees up soonest (controller striping).
    fn least_loaded_unit(&self) -> usize {
        let mut best = 0;
        let mut best_free = self.units[0].next_free();
        for (i, u) in self.units.iter().enumerate().skip(1) {
            let f = u.next_free();
            if f < best_free {
                best = i;
                best_free = f;
            }
        }
        best
    }

    /// Submit a command. `data` must be `Some` for writes (one 4K block
    /// per `sqe.blocks()`), `None` otherwise. The payload is a refcounted
    /// [`Bytes`] handle — the transport's buffer is shared, never copied.
    /// The callback fires when the command completes.
    ///
    /// Free function over a [`Shared`] handle because completion events
    /// must re-borrow the device.
    pub fn submit(
        this: &Shared<NvmeDevice>,
        k: &mut Kernel,
        sqe: Sqe,
        data: Option<Bytes>,
        cb: impl FnOnce(&mut Kernel, IoResult) + 'static,
    ) {
        let (finish, seq) = {
            let mut dev = this.borrow_mut();

            let seq = dev.submit_seq;
            dev.submit_seq += 1;
            dev.inflight += 1;
            if dev.inflight > dev.stats.max_inflight {
                dev.stats.max_inflight = dev.inflight;
            }

            // Early validation: malformed commands complete fast without
            // occupying a flash unit.
            if let Some(status) = dev.validate(&sqe, data.as_deref()) {
                dev.inflight -= 1;
                dev.stats.errors += 1;
                let cqe = Cqe::error(sqe.cid, dev.sq_head(), status);
                drop(dev);
                // Spec-ish: error completions still take a controller
                // round trip (~5us).
                k.schedule_in(SimDuration::from_micros(5), move |k| {
                    cb(k, IoResult { cqe, data: None })
                });
                return;
            }

            let now = k.now();
            let unit = dev.least_loaded_unit();
            let mean = dev.profile.mean_service(sqe.opcode, sqe.blocks());
            let jitter = dev.profile.jitter_frac;
            let service =
                SimDuration::from_secs_f64(dev.rng.gen_jitter(mean.as_secs_f64(), jitter));
            let grant = dev.units[unit].reserve(now, service);
            (grant.finish, seq)
        };

        let this2 = this.clone();
        k.schedule_at(finish, move |k| {
            let result = {
                let mut dev = this2.borrow_mut();
                dev.inflight -= 1;
                if seq < dev.complete_watermark {
                    dev.stats.out_of_order_completions += 1;
                } else {
                    dev.complete_watermark = seq;
                }
                dev.execute(sqe, data)
            };
            cb(k, result);
        });
    }

    /// Returns an error status when the command cannot be serviced.
    fn validate(&self, sqe: &Sqe, data: Option<&[u8]>) -> Option<Status> {
        let end = sqe.slba.checked_add(u64::from(sqe.blocks()));
        match end {
            Some(e) if e <= self.ns.capacity_blocks() => {}
            _ => return Some(Status::LbaOutOfRange),
        }
        if sqe.opcode.is_write() {
            match data {
                Some(d) if d.len() == sqe.data_len() => {}
                _ => return Some(Status::InvalidField),
            }
        }
        None
    }

    /// The SQ head a CQE reports: the next slot of the 1024-entry queue
    /// the controller will fetch from. Every command is fetched as it is
    /// submitted, so that is the submission count modulo 1024.
    fn sq_head(&self) -> u16 {
        (self.submit_seq & 1023) as u16
    }

    /// Perform the media access and build the CQE.
    fn execute(&mut self, sqe: Sqe, data: Option<Bytes>) -> IoResult {
        let sq_head = self.sq_head();
        if self.error_rate > 0.0 && self.rng.gen_bool(self.error_rate) {
            self.stats.errors += 1;
            let cqe = Cqe::error(sqe.cid, sq_head, Status::InternalError);
            return IoResult { cqe, data: None };
        }
        let (cqe, out) = match sqe.opcode {
            Opcode::Read => {
                if self.store_data {
                    match self.ns.read(sqe.slba, u64::from(sqe.blocks())) {
                        Ok(bytes) => {
                            self.stats.reads += 1;
                            self.stats.blocks_read += u64::from(sqe.blocks());
                            (Cqe::success(sqe.cid, sq_head), Some(Bytes::from(bytes)))
                        }
                        Err(e) => {
                            self.stats.errors += 1;
                            (Cqe::error(sqe.cid, sq_head, ns_status(e)), None)
                        }
                    }
                } else {
                    self.stats.reads += 1;
                    self.stats.blocks_read += u64::from(sqe.blocks());
                    // One shared zero buffer, grown to the longest read;
                    // a shorter read gets a view of it.
                    let len = sqe.data_len();
                    if self.zero_block.len() < len {
                        self.zero_block = Bytes::from(vec![0u8; len]);
                    }
                    (
                        Cqe::success(sqe.cid, sq_head),
                        Some(self.zero_block.slice(..len)),
                    )
                }
            }
            Opcode::Write => {
                if self.store_data {
                    // `validate` admitted the write with its payload; a
                    // missing one would be an empty, bad-length write.
                    match self.ns.write(sqe.slba, &data.unwrap_or_default()) {
                        Ok(()) => {
                            self.stats.writes += 1;
                            self.stats.blocks_written += u64::from(sqe.blocks());
                            (Cqe::success(sqe.cid, sq_head), None)
                        }
                        Err(e) => {
                            self.stats.errors += 1;
                            (Cqe::error(sqe.cid, sq_head, ns_status(e)), None)
                        }
                    }
                } else {
                    self.stats.writes += 1;
                    self.stats.blocks_written += u64::from(sqe.blocks());
                    (Cqe::success(sqe.cid, sq_head), None)
                }
            }
            Opcode::Flush => {
                self.stats.flushes += 1;
                (Cqe::success(sqe.cid, sq_head), None)
            }
        };
        IoResult { cqe, data: out }
    }
}

impl MetricsSource for NvmeDevice {
    fn metrics(&self, now: SimTime) -> Metrics {
        let mut m = Metrics::at(now);
        m.set("flash.busy_fraction", self.flash_busy_fraction(now));
        m.set("flash.units", self.units.len() as f64);
        m.set("inflight", self.inflight as f64);
        m.set("max_inflight", self.stats.max_inflight as f64);
        m.set("reads", self.stats.reads as f64);
        m.set("writes", self.stats.writes as f64);
        m.set("flushes", self.stats.flushes as f64);
        m.set("errors", self.stats.errors as f64);
        m.set("blocks_read", self.stats.blocks_read as f64);
        m.set("blocks_written", self.stats.blocks_written as f64);
        // §IV-C: out-of-submission-order completions are what the
        // initiator-side CID queue must absorb (CQ reorder depth proxy).
        m.set(
            "cq.out_of_order_completions",
            self.stats.out_of_order_completions as f64,
        );
        m
    }
}

fn ns_status(e: NsError) -> Status {
    match e {
        NsError::OutOfRange { .. } => Status::LbaOutOfRange,
        NsError::BadLength { .. } => Status::InvalidField,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BLOCK_SIZE;
    use simkit::shared;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn new_dev() -> Shared<NvmeDevice> {
        shared(NvmeDevice::new(FlashProfile::cc_ssd(), 1 << 20, 7))
    }

    #[test]
    fn write_then_read_roundtrips_data() {
        let dev = new_dev();
        let mut k = Kernel::new(1);
        let payload = vec![0x5A; BLOCK_SIZE];
        let got = Rc::new(RefCell::new(None));

        let d2 = dev.clone();
        let g = got.clone();
        let p = payload.clone();
        NvmeDevice::submit(
            &dev,
            &mut k,
            Sqe::write(1, 1, 42, 1),
            Some(Bytes::from(p)),
            move |k, r| {
                assert!(r.cqe.status.is_ok());
                NvmeDevice::submit(&d2, k, Sqe::read(2, 1, 42, 1), None, move |_, r| {
                    assert!(r.cqe.status.is_ok());
                    *g.borrow_mut() = r.data;
                });
            },
        );
        k.run_to_completion();
        assert_eq!(got.borrow().as_deref(), Some(&payload[..]));
        let dev = dev.borrow();
        assert_eq!(dev.stats.reads, 1);
        assert_eq!(dev.stats.writes, 1);
    }

    /// Timing-only reads of any length hand out views of one shared
    /// zero buffer instead of allocating a fresh one per command: a
    /// longer read grows it once, and shorter reads never shrink it.
    #[test]
    fn timing_only_reads_share_one_zero_buffer() {
        let dev = new_dev();
        dev.borrow_mut().set_store_data(false);
        let mut k = Kernel::new(1);
        let got = Rc::new(RefCell::new(Vec::new()));
        let lens = [4u16, 32, 32, 1, 4, 16, 1, 32];
        for (cid, &blocks) in lens.iter().enumerate() {
            let g = got.clone();
            let sqe = Sqe::read(cid as u16, 1, 0, blocks);
            NvmeDevice::submit(&dev, &mut k, sqe, None, move |_, r| {
                g.borrow_mut()
                    .push(r.data.expect("timing-only read returns data"));
            });
            // One at a time, so completions follow submission order.
            k.run_to_completion();
        }
        let got = got.borrow();
        assert_eq!(got.len(), lens.len());
        for (data, &blocks) in got.iter().zip(&lens) {
            assert_eq!(data.len(), usize::from(blocks) * BLOCK_SIZE);
            assert!(data.iter().all(|&b| b == 0));
        }
        assert_ne!(
            got[0].as_ptr(),
            got[1].as_ptr(),
            "grew without a new buffer"
        );
        for data in &got[2..] {
            assert_eq!(data.as_ptr(), got[1].as_ptr(), "a read reallocated");
        }
    }

    #[test]
    fn read_latency_within_jitter_bounds() {
        let dev = new_dev();
        let mut k = Kernel::new(1);
        let done = Rc::new(RefCell::new(None));
        let d = done.clone();
        NvmeDevice::submit(&dev, &mut k, Sqe::read(1, 1, 0, 1), None, move |k, _| {
            *d.borrow_mut() = Some(k.now());
        });
        k.run_to_completion();
        let lat = done.borrow().unwrap().as_micros();
        // 60us ± 25%
        assert!((45..=75).contains(&lat), "latency {lat}us");
    }

    #[test]
    fn writes_slower_than_reads_on_average() {
        let dev = new_dev();
        let mut k = Kernel::new(2);
        let rt = Rc::new(RefCell::new((Vec::new(), Vec::new())));
        for i in 0..64u16 {
            let rt2 = rt.clone();
            let start = k.now();
            NvmeDevice::submit(
                &dev,
                &mut k,
                Sqe::read(i, 1, u64::from(i), 1),
                None,
                move |k, _| {
                    rt2.borrow_mut()
                        .0
                        .push(k.now().since(start).as_micros_f64());
                },
            );
        }
        k.run_to_completion();
        let mut k = Kernel::new(3);
        let dev = new_dev();
        for i in 0..64u16 {
            let rt2 = rt.clone();
            let start = k.now();
            NvmeDevice::submit(
                &dev,
                &mut k,
                Sqe::write(i, 1, u64::from(i), 1),
                Some(Bytes::from(vec![0; BLOCK_SIZE])),
                move |k, _| {
                    rt2.borrow_mut()
                        .1
                        .push(k.now().since(start).as_micros_f64());
                },
            );
        }
        k.run_to_completion();
        let rt = rt.borrow();
        let avg_r: f64 = rt.0.iter().sum::<f64>() / rt.0.len() as f64;
        let avg_w: f64 = rt.1.iter().sum::<f64>() / rt.1.len() as f64;
        assert!(avg_w > avg_r, "write {avg_w} <= read {avg_r}");
    }

    #[test]
    fn concurrency_produces_out_of_order_completions() {
        let dev = new_dev();
        let mut k = Kernel::new(4);
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..256u16 {
            let o = order.clone();
            NvmeDevice::submit(
                &dev,
                &mut k,
                Sqe::read(i, 1, u64::from(i), 1),
                None,
                move |_, r| {
                    o.borrow_mut().push(r.cqe.cid);
                },
            );
        }
        k.run_to_completion();
        let order = order.borrow();
        assert_eq!(order.len(), 256);
        let sorted: Vec<u16> = {
            let mut v = order.clone();
            v.sort_unstable();
            v
        };
        assert_ne!(*order, sorted, "jitter should reorder completions");
        assert!(dev.borrow().stats.out_of_order_completions > 0);
        assert_eq!(dev.borrow().stats.max_inflight, 256);
    }

    #[test]
    fn throughput_matches_unit_count() {
        // 16 units at ~60us mean => ~266K IOPS; drive 2000 reads
        // back-to-back and check the elapsed time.
        let dev = new_dev();
        let mut k = Kernel::new(5);
        let n = 2000u64;
        for i in 0..n {
            NvmeDevice::submit(
                &dev,
                &mut k,
                Sqe::read((i % 1024) as u16, 1, i, 1),
                None,
                |_, _| {},
            );
        }
        k.run_to_completion();
        let iops = n as f64 / k.now().as_secs_f64();
        let peak = dev.borrow().profile().peak_iops(Opcode::Read);
        let err = (iops - peak).abs() / peak;
        assert!(err < 0.1, "iops {iops:.0} vs peak {peak:.0}");
    }

    #[test]
    fn lba_out_of_range_errors() {
        let dev = shared(NvmeDevice::new(FlashProfile::cc_ssd(), 100, 7));
        let mut k = Kernel::new(6);
        let status = Rc::new(RefCell::new(None));
        let s = status.clone();
        NvmeDevice::submit(&dev, &mut k, Sqe::read(1, 1, 99, 2), None, move |_, r| {
            *s.borrow_mut() = Some(r.cqe.status);
        });
        k.run_to_completion();
        assert_eq!(*status.borrow(), Some(Status::LbaOutOfRange));
        assert_eq!(dev.borrow().stats.errors, 1);
    }

    #[test]
    fn write_without_data_is_invalid() {
        let dev = new_dev();
        let mut k = Kernel::new(7);
        let status = Rc::new(RefCell::new(None));
        let s = status.clone();
        NvmeDevice::submit(&dev, &mut k, Sqe::write(1, 1, 0, 1), None, move |_, r| {
            *s.borrow_mut() = Some(r.cqe.status);
        });
        k.run_to_completion();
        assert_eq!(*status.borrow(), Some(Status::InvalidField));
    }

    #[test]
    fn injected_errors_fail_some_commands() {
        let dev = new_dev();
        dev.borrow_mut().inject_errors(0.3);
        let mut k = Kernel::new(17);
        let outcomes = Rc::new(RefCell::new((0u32, 0u32)));
        for i in 0..200u16 {
            let o = outcomes.clone();
            NvmeDevice::submit(
                &dev,
                &mut k,
                Sqe::read(i % 128, 1, u64::from(i), 1),
                None,
                move |_, r| {
                    let mut o = o.borrow_mut();
                    if r.cqe.status.is_ok() {
                        o.0 += 1;
                    } else {
                        assert_eq!(r.cqe.status, Status::InternalError);
                        assert!(r.data.is_none());
                        o.1 += 1;
                    }
                },
            );
        }
        k.run_to_completion();
        let (ok, err) = *outcomes.borrow();
        assert_eq!(ok + err, 200);
        assert!((30..90).contains(&err), "~30% should fail: {err}");
        // Determinism: same seed, same failures.
        let dev2 = new_dev();
        dev2.borrow_mut().inject_errors(0.3);
        let mut k2 = Kernel::new(17);
        let errs2 = Rc::new(RefCell::new(0u32));
        for i in 0..200u16 {
            let e = errs2.clone();
            NvmeDevice::submit(
                &dev2,
                &mut k2,
                Sqe::read(i % 128, 1, u64::from(i), 1),
                None,
                move |_, r| {
                    if !r.cqe.status.is_ok() {
                        *e.borrow_mut() += 1;
                    }
                },
            );
        }
        k2.run_to_completion();
        assert_eq!(err, *errs2.borrow());
    }

    /// Every CQE reports the SQ head of a 1024-entry queue: the number of
    /// commands fetched so far, modulo 1024. A command that fails
    /// validation reports it at submission; every other command, media
    /// errors included, at completion.
    #[test]
    fn cqe_sq_head_counts_fetched_commands() {
        const BATCH: usize = 7;
        let dev = new_dev();
        dev.borrow_mut().inject_errors(0.1);
        let mut k = Kernel::new(23);
        let got = Rc::new(RefCell::new(Vec::new()));
        for batch in 0..300 {
            for j in 0..BATCH {
                let i = batch * BATCH + j;
                // Every fifth command reads past the namespace end.
                let slba = if i.is_multiple_of(5) {
                    u64::MAX
                } else {
                    i as u64
                };
                let g = got.clone();
                let sqe = Sqe::read(i as u16, 1, slba, 1);
                NvmeDevice::submit(&dev, &mut k, sqe, None, move |_, r| {
                    g.borrow_mut()
                        .push((r.cqe.cid, r.cqe.status, r.cqe.sq_head));
                });
            }
            k.run_to_completion();
        }
        let mut got = got.borrow().clone();
        got.sort_by_key(|&(cid, _, _)| cid);
        assert_eq!(got.len(), 2100);
        let mut media_errors = 0;
        for (i, &(cid, status, sq_head)) in got.iter().enumerate() {
            assert_eq!(usize::from(cid), i);
            let want = if i.is_multiple_of(5) {
                assert_eq!(status, Status::LbaOutOfRange);
                i + 1
            } else {
                media_errors += usize::from(status == Status::InternalError);
                (i / BATCH + 1) * BATCH
            };
            assert_eq!(usize::from(sq_head), want % 1024, "cid {cid}");
        }
        assert!(media_errors > 0, "no media error completions");
    }

    #[test]
    fn flush_completes_ok() {
        let dev = new_dev();
        let mut k = Kernel::new(8);
        let ok = Rc::new(RefCell::new(false));
        let o = ok.clone();
        let sqe = Sqe {
            opcode: Opcode::Flush,
            cid: 1,
            nsid: 1,
            slba: 0,
            nlb: 0,
        };
        NvmeDevice::submit(&dev, &mut k, sqe, None, move |_, r| {
            *o.borrow_mut() = r.cqe.status.is_ok();
        });
        k.run_to_completion();
        assert!(*ok.borrow());
        assert_eq!(dev.borrow().stats.flushes, 1);
    }
}
