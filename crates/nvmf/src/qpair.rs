//! I/O queue pair state: CID allocation and outstanding-request tracking.

use crate::initiator::IoOutcome;
use crate::pdu::Priority;
use bytes::Bytes;
use nvme::Opcode;
use simkit::{Kernel, SimTime};
use std::collections::VecDeque;

/// Callback invoked when a request completes.
pub type IoCallback = Box<dyn FnOnce(&mut Kernel, IoOutcome)>;

/// Bounded-retransmission policy for commands whose response never
/// arrives: each attempt is retried after `timeout << attempt`
/// (exponential backoff), at most `max_retries` times, after which the
/// command completes locally with an internal error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Expiry timeout of the first attempt.
    pub timeout: simkit::SimDuration,
    /// Retransmissions allowed before giving up.
    pub max_retries: u32,
}

/// Per-request context held while a command is outstanding.
pub struct ReqCtx {
    /// Command opcode.
    pub opcode: Opcode,
    /// Starting LBA.
    pub slba: u64,
    /// Blocks covered (1-based).
    pub blocks: u16,
    /// Write payload awaiting an R2T grant.
    pub payload: Option<Bytes>,
    /// Read data received so far (C2H arrives before the response).
    pub data: Option<Bytes>,
    /// Priority the request was tagged with.
    pub priority: Priority,
    /// When the request was issued (for latency accounting).
    pub issued_at: SimTime,
    /// Completion callback.
    pub cb: IoCallback,
}

/// A queue pair: a bounded set of command identifiers and the contexts of
/// in-flight commands.
///
/// CIDs are dense in `0..depth`, so contexts live in a slab indexed
/// directly by CID: begin/lookup/finish on the per-request hot path touch
/// one slot with no hashing.
pub struct QPair {
    free_cids: VecDeque<u16>,
    outstanding: Vec<Option<ReqCtx>>,
    inflight: usize,
    depth: usize,
    /// When set, freed CIDs are reused last (FIFO) instead of first
    /// (LIFO), maximizing the time before a CID names a new command —
    /// the window in which a stale duplicate response could be
    /// misattributed under retransmission.
    fifo_recycle: bool,
}

impl std::fmt::Debug for QPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QPair")
            .field("depth", &self.depth)
            .field("outstanding", &self.inflight)
            .finish()
    }
}

impl QPair {
    /// Deepest queue pair: one CID per depth slot, CIDs are `u16`.
    pub const MAX_DEPTH: usize = u16::MAX as usize;

    /// Create a queue pair with `depth` concurrently usable CIDs.
    pub fn new(depth: usize) -> Self {
        assert!((1..=Self::MAX_DEPTH).contains(&depth));
        // Hand out low CIDs first so traces are readable.
        let free_cids = (0..depth as u16).rev().collect();
        let mut outstanding = Vec::with_capacity(depth);
        outstanding.resize_with(depth, || None);
        QPair {
            free_cids,
            outstanding,
            inflight: 0,
            depth,
            fifo_recycle: false,
        }
    }

    /// Switch freed-CID reuse from LIFO to FIFO (see `fifo_recycle`).
    /// Recovery-enabled initiators set this; the default preserves the
    /// historical allocation order exactly.
    pub fn set_fifo_recycle(&mut self, on: bool) {
        self.fifo_recycle = on;
    }

    /// Queue depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Commands currently in flight.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// True when another command can be issued.
    pub fn has_capacity(&self) -> bool {
        !self.free_cids.is_empty()
    }

    /// Allocate a CID and register the request context. `None` when the
    /// queue pair is at depth.
    pub fn begin(&mut self, ctx: ReqCtx) -> Option<u16> {
        let cid = self.free_cids.pop_back()?;
        let slot = &mut self.outstanding[cid as usize];
        debug_assert!(slot.is_none(), "CID {cid} double-allocated");
        *slot = Some(ctx);
        self.inflight += 1;
        Some(cid)
    }

    /// Look up a request context mutably (e.g. to stash C2H data).
    pub fn get_mut(&mut self, cid: u16) -> Option<&mut ReqCtx> {
        self.outstanding.get_mut(cid as usize)?.as_mut()
    }

    /// Complete a request: release the CID and return its context.
    pub fn finish(&mut self, cid: u16) -> Option<ReqCtx> {
        let ctx = self.outstanding.get_mut(cid as usize)?.take()?;
        self.inflight -= 1;
        if self.fifo_recycle {
            // `begin` pops from the back, so pushing at the front makes
            // this CID the last one to be handed out again.
            self.free_cids.push_front(cid);
        } else {
            self.free_cids.push_back(cid);
        }
        Some(ctx)
    }

    /// Release every outstanding CID without completing it, dropping
    /// the contexts and the completion callbacks they own. Teardown
    /// only: a callback usually captures the driver that owns this
    /// queue pair's initiator, and that `Rc` cycle outlives the
    /// simulation unless the callbacks go first.
    pub fn abort_all(&mut self) {
        for cid in 0..self.depth as u16 {
            self.finish(cid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ReqCtx {
        ReqCtx {
            opcode: Opcode::Read,
            slba: 0,
            blocks: 1,
            payload: None,
            data: None,
            priority: Priority::None,
            issued_at: SimTime::ZERO,
            cb: Box::new(|_, _| {}),
        }
    }

    #[test]
    fn allocates_up_to_depth() {
        let mut q = QPair::new(3);
        let a = q.begin(ctx()).unwrap();
        let b = q.begin(ctx()).unwrap();
        let c = q.begin(ctx()).unwrap();
        assert!(q.begin(ctx()).is_none());
        assert_eq!(q.inflight(), 3);
        assert!(!q.has_capacity());
        let mut cids = [a, b, c];
        cids.sort_unstable();
        assert_eq!(cids, [0, 1, 2]);
    }

    #[test]
    fn finish_recycles_cids() {
        let mut q = QPair::new(1);
        let cid = q.begin(ctx()).unwrap();
        assert!(q.finish(cid).is_some());
        assert!(q.has_capacity());
        let again = q.begin(ctx()).unwrap();
        assert_eq!(again, cid);
    }

    #[test]
    fn fifo_recycle_reuses_freed_cids_last() {
        let mut q = QPair::new(3);
        q.set_fifo_recycle(true);
        let a = q.begin(ctx()).unwrap();
        let _b = q.begin(ctx()).unwrap();
        assert!(q.finish(a).is_some());
        // LIFO would hand `a` straight back; FIFO exhausts fresh CIDs
        // first and reuses `a` only once nothing else is free.
        assert_eq!(q.begin(ctx()).unwrap(), 2);
        assert_eq!(q.begin(ctx()).unwrap(), a);
    }

    /// LIFO and FIFO recycling hand CIDs out in exactly the order of a
    /// reference free list kept as a `Vec` (pop from the back; a freed
    /// CID pushed to the back, or inserted at the front under FIFO).
    #[test]
    fn recycling_order_matches_a_vec_free_list() {
        for fifo in [false, true] {
            let depth = 16u16;
            let mut q = QPair::new(depth.into());
            q.set_fifo_recycle(fifo);
            let mut free: Vec<u16> = (0..depth).rev().collect();
            let mut live: Vec<u16> = Vec::new();
            let mut rng = simkit::Pcg32::new(11);
            for _ in 0..4000 {
                if !live.is_empty() && (free.is_empty() || rng.gen_bool(0.5)) {
                    let cid = live.swap_remove(rng.gen_range(0, live.len() as u64) as usize);
                    assert!(q.finish(cid).is_some());
                    if fifo {
                        free.insert(0, cid);
                    } else {
                        free.push(cid);
                    }
                } else {
                    let cid = q.begin(ctx()).unwrap();
                    assert_eq!(Some(cid), free.pop(), "fifo {fifo}");
                    live.push(cid);
                }
            }
        }
    }

    #[test]
    fn finish_unknown_cid_is_none() {
        let mut q = QPair::new(2);
        assert!(q.finish(7).is_none());
    }

    #[test]
    fn get_mut_stashes_data() {
        let mut q = QPair::new(2);
        let cid = q.begin(ctx()).unwrap();
        q.get_mut(cid).unwrap().data = Some(Bytes::from_static(&[1, 2, 3]));
        let done = q.finish(cid).unwrap();
        assert_eq!(done.data.as_deref(), Some(&[1u8, 2, 3][..]));
    }
}
