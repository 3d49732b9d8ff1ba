//! The zero-copy CID queue (paper §IV-B, §IV-C and Algorithms 1–2).
//!
//! NVMe-oPF queues never store requests or payloads — only each pending
//! throughput-critical request's 16-bit command identifier (CID). This
//! keeps the queue's space cost independent of I/O size and tenant count
//! (§IV-B "Zero-Copy Queues").
//!
//! The same queue implements out-of-order completion handling (§IV-C):
//! because the initiator keeps CIDs in *issue order*, receiving the single
//! coalesced completion for a drain request lets it mark every preceding
//! request complete in order — Algorithm 2's loop
//! `for i = head; queue[i] && !cid; i++ { mark complete }`.

use std::collections::VecDeque;

/// Outcome of [`CidQueue::complete_through`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompleteResult {
    /// The target CID was found; all CIDs up to and including it were
    /// dequeued, in issue order (the matching CID is last).
    Completed(Vec<u16>),
    /// The queue drained without finding the CID — a protocol violation
    /// (e.g. a completion for a request we never queued). The dequeued
    /// CIDs are returned so the caller can recover or fail loudly.
    Missing(Vec<u16>),
}

impl CompleteResult {
    /// CIDs dequeued, regardless of outcome.
    pub fn cids(&self) -> &[u16] {
        match self {
            CompleteResult::Completed(v) | CompleteResult::Missing(v) => v,
        }
    }

    /// True when the target CID was found.
    pub fn found(&self) -> bool {
        matches!(self, CompleteResult::Completed(_))
    }
}

/// A bounded queue of pending command identifiers, in issue order.
pub struct CidQueue {
    cids: VecDeque<u16>,
    cap: usize,
}

impl std::fmt::Debug for CidQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CidQueue")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl CidQueue {
    /// Create a queue holding at least `cap` CIDs (rounded up to a power
    /// of two). Sized in practice as queue depth + window size so a full
    /// window of in-flight TC requests can never overflow it (§IV-A's
    /// lock-up scenario).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(2).next_power_of_two();
        CidQueue {
            cids: VecDeque::with_capacity(cap),
            cap,
        }
    }

    /// Algorithm 1: `queue[tail] <- req.cid; tail <- tail + 1`.
    /// Errors with the CID when full.
    pub fn push(&mut self, cid: u16) -> Result<(), u16> {
        if self.cids.len() == self.cap {
            return Err(cid);
        }
        self.cids.push_back(cid);
        Ok(())
    }

    /// Algorithm 2: dequeue and mark complete every CID up to and
    /// including `cid`.
    pub fn complete_through(&mut self, cid: u16) -> CompleteResult {
        let mut done = Vec::new();
        if self.complete_through_into(cid, &mut done) {
            CompleteResult::Completed(done)
        } else {
            CompleteResult::Missing(done)
        }
    }

    /// Allocation-free [`Self::complete_through`]: clears `out` and fills
    /// it with the dequeued CIDs in issue order (the matching CID last
    /// when found). Returns `true` when `cid` was found — `false` is the
    /// [`CompleteResult::Missing`] protocol-violation case. Callers keep
    /// `out` as a scratch buffer across drains so the steady-state hot
    /// path never allocates (§IV-B "Zero-Copy Queues").
    pub fn complete_through_into(&mut self, cid: u16, out: &mut Vec<u16>) -> bool {
        out.clear();
        while let Some(c) = self.cids.pop_front() {
            out.push(c);
            if c == cid {
                return true;
            }
        }
        false
    }

    /// Target-side drain (Algorithm 3): dequeue everything, in order.
    pub fn drain_all(&mut self) -> Vec<u16> {
        let mut out = Vec::with_capacity(self.len());
        self.drain_all_into(&mut out);
        out
    }

    /// Allocation-free [`Self::drain_all`]: clears `out` and fills it
    /// with every pending CID in issue order, reusing its capacity.
    pub fn drain_all_into(&mut self, out: &mut Vec<u16>) {
        out.clear();
        out.extend(self.cids.drain(..));
    }

    /// Dequeue the oldest pending CID.
    pub fn pop(&mut self) -> Option<u16> {
        self.cids.pop_front()
    }

    /// The oldest pending CID, if any.
    pub fn front(&mut self) -> Option<u16> {
        self.cids.front().copied()
    }

    /// Number of pending CIDs.
    pub fn len(&self) -> usize {
        self.cids.len()
    }

    /// True when no CIDs are pending.
    pub fn is_empty(&self) -> bool {
        self.cids.is_empty()
    }

    /// Queue capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_then_complete_through_tail_drains_all() {
        let mut q = CidQueue::new(16);
        for cid in [3u16, 9, 1, 7] {
            q.push(cid).unwrap();
        }
        let r = q.complete_through(7);
        assert_eq!(r, CompleteResult::Completed(vec![3, 9, 1, 7]));
        assert!(q.is_empty());
    }

    #[test]
    fn complete_through_middle_keeps_rest() {
        let mut q = CidQueue::new(16);
        for cid in 0..8u16 {
            q.push(cid).unwrap();
        }
        let r = q.complete_through(3);
        assert_eq!(r, CompleteResult::Completed(vec![0, 1, 2, 3]));
        assert_eq!(q.len(), 4);
        assert_eq!(q.front(), Some(4));
    }

    #[test]
    fn missing_cid_reports_protocol_violation() {
        let mut q = CidQueue::new(8);
        q.push(1).unwrap();
        q.push(2).unwrap();
        let r = q.complete_through(42);
        assert_eq!(r, CompleteResult::Missing(vec![1, 2]));
        assert!(!r.found());
        assert!(q.is_empty());
    }

    #[test]
    fn out_of_order_device_completions_resolve_in_issue_order() {
        // The device may complete 2 before 0; the initiator only sees the
        // coalesced drain completion (for the last CID, 3) and must mark
        // 0,1,2,3 complete in issue order regardless.
        let mut q = CidQueue::new(8);
        for cid in [10u16, 11, 12, 13] {
            q.push(cid).unwrap();
        }
        let r = q.complete_through(13);
        assert_eq!(r.cids(), &[10, 11, 12, 13]);
    }

    #[test]
    fn drain_all_returns_issue_order() {
        let mut q = CidQueue::new(8);
        for cid in [5u16, 4, 6] {
            q.push(cid).unwrap();
        }
        assert_eq!(q.drain_all(), vec![5, 4, 6]);
        assert!(q.drain_all().is_empty());
    }

    #[test]
    fn full_queue_rejects_push() {
        let mut q = CidQueue::new(4);
        let cap = q.capacity();
        for cid in 0..cap as u16 {
            q.push(cid).unwrap();
        }
        assert_eq!(q.push(99), Err(99));
    }

    #[test]
    fn duplicate_cids_complete_to_first_match() {
        // CIDs recycle in NVMe; a queue may briefly hold a recycled CID.
        // complete_through stops at the *first* (oldest) match.
        let mut q = CidQueue::new(8);
        for cid in [1u16, 2, 1, 3] {
            q.push(cid).unwrap();
        }
        let r = q.complete_through(1);
        assert_eq!(r, CompleteResult::Completed(vec![1]));
        assert_eq!(q.len(), 3);
    }

    proptest::proptest! {
        /// complete_through(x) over unique CIDs returns exactly the prefix
        /// ending at x, and leaves exactly the suffix.
        #[test]
        fn prefix_semantics(cids in proptest::collection::hash_set(0u16..512, 1..64),
                            pick in proptest::prelude::any::<proptest::sample::Index>()) {
            let cids: Vec<u16> = cids.into_iter().collect();
            let target_idx = pick.index(cids.len());
            let target = cids[target_idx];
            let mut q = CidQueue::new(512);
            for &c in &cids {
                q.push(c).unwrap();
            }
            let r = q.complete_through(target);
            proptest::prop_assert_eq!(r.cids(), &cids[..=target_idx]);
            proptest::prop_assert!(r.found());
            proptest::prop_assert_eq!(q.len(), cids.len() - target_idx - 1);
            proptest::prop_assert_eq!(q.drain_all(), cids[target_idx + 1..].to_vec());
        }

        /// The scratch-buffer drain used on the hot path must agree with
        /// the Vec-returning reference on any CID stream (duplicates
        /// included) and any probe CID — present or missing — even when
        /// the scratch buffer arrives dirty.
        #[test]
        fn scratch_matches_reference(cids in proptest::collection::vec(0u16..32, 0..64),
                                     probe in 0u16..40,
                                     dirt in proptest::collection::vec(proptest::prelude::any::<u16>(), 0..8)) {
            let mut reference = CidQueue::new(64);
            let mut scratch_q = CidQueue::new(64);
            for &c in &cids {
                reference.push(c).unwrap();
                scratch_q.push(c).unwrap();
            }
            let expected = reference.complete_through(probe);
            let mut out = dirt;
            let found = scratch_q.complete_through_into(probe, &mut out);
            proptest::prop_assert_eq!(found, expected.found());
            proptest::prop_assert_eq!(&out[..], expected.cids());
            proptest::prop_assert_eq!(scratch_q.len(), reference.len());
            // And the same agreement for the full drain.
            let expected_rest = reference.drain_all();
            let mut rest = out; // reuse, again dirty
            scratch_q.drain_all_into(&mut rest);
            proptest::prop_assert_eq!(rest, expected_rest);
        }
    }
}
