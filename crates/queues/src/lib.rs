//! # queues — lock-free queues for NVMe-oPF priority managers
//!
//! Section IV-A of the paper bases NVMe-oPF's lock-free design on
//! *independent per-initiator queues*: the target keeps one
//! throughput-critical (TC) queue per connected initiator, so no queue is
//! ever shared between producers, and the fast path needs no locks. This
//! crate implements those structures for real:
//!
//! * [`spsc`] — a bounded single-producer/single-consumer ring with
//!   acquire/release atomics: one producer (the transport receiving PDUs),
//!   one consumer (the priority manager flushing on a drain flag).
//! * [`cid`] — the paper's *zero-copy* queue (§IV-B): it stores only the
//!   16-bit NVMe command identifier (CID) of each pending request, never
//!   the request or its payload, so space cost is independent of I/O size.
//!   It also implements the initiator-side in-order completion marking of
//!   Algorithm 2 (§IV-C out-of-order handling).
//! * [`mod@mailbox`] — the SPSC ring plus a batch doorbell; its one user
//!   is the kernel's `set_parallel` detour (DESIGN.md §17), which drains
//!   per-lane inboxes into the kernel's single event queue.
//!
//! There is no shared multi-producer queue: the *shared-queue ablation*
//! is [`CidQueue`] under `QueueMode::Shared`. Every queue here is a
//! preallocated ring, so none allocates per element.
//!
//! All cross-thread primitives go through [`sync`], a facade over
//! `std::sync::atomic` that swaps in the `analysis` crate's shadow
//! types under `--features model` — the same queue sources are then
//! exhaustively model-checked for data races and ordering violations
//! (`cargo test -p analysis`).

pub mod cid;
pub mod mailbox;
pub mod spsc;
pub mod sync;

pub use cid::{CidQueue, CompleteResult};
pub use mailbox::{mailbox, MailboxRx, MailboxTx};
pub use spsc::{spsc_channel, Consumer, Producer};

/// Pads a value to a cache line to prevent false sharing between the
/// producer and consumer indices of a ring (see Rust Atomics and Locks,
/// ch. 7; crossbeam's `CachePadded` is the same idea).
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padded_is_aligned() {
        assert!(std::mem::align_of::<CachePadded<u8>>() >= 128);
        let p = CachePadded(5u32);
        assert_eq!(*p, 5);
    }
}
