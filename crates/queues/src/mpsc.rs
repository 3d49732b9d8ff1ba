//! Unbounded lock-free multi-producer/single-consumer queue.
//!
//! Used by the *shared-queue ablation* (DESIGN.md §6): the paper argues
//! (§IV-A) that a single TC queue shared between initiators breaks
//! draining — one tenant's drain flushes another tenant's incomplete
//! requests — and forces synchronization. This queue lets the ablation
//! actually share a queue between tenants so the experiment can show the
//! fairness/early-drain problem, while the production path uses
//! per-initiator [`crate::spsc`] rings.
//!
//! Design: an intrusive singly-linked list with a stub node — producers
//! swing an atomic `tail` pointer with a `swap` (wait-free per producer,
//! Vyukov's MPSC scheme) and link the previous tail to the new node; the
//! single consumer walks `next` pointers from `head`.
//!
//! Built against [`crate::sync`]: under `--features model` every node
//! allocation/free is registered with the `analysis` leak tracker and
//! the link/`next` pointers become happens-before-checked shadow
//! atomics, so the model tests prove no node (including the stub) leaks
//! on any interleaving. `MpscQueue::new_weak` exists only there, to
//! show the checker catches a `Relaxed` link store.

use crate::sync::{track_alloc, track_free, AtomicPtr, UnsafeCell};
use std::ptr;
use std::sync::atomic::Ordering;
use std::sync::Arc;

struct Node<T> {
    next: AtomicPtr<Node<T>>,
    value: UnsafeCell<Option<T>>,
}

impl<T> Node<T> {
    fn new(value: Option<T>) -> *mut Node<T> {
        let node = Box::into_raw(Box::new(Node {
            next: AtomicPtr::new(ptr::null_mut()),
            value: UnsafeCell::new(value),
        }));
        track_alloc(node as usize);
        node
    }

    /// Free a node previously produced by [`Node::new`].
    ///
    /// # Safety
    /// `node` must be a live pointer from [`Node::new`] to which the
    /// caller holds exclusive access; it is dangling afterwards.
    unsafe fn free(node: *mut Node<T>) {
        track_free(node as usize);
        // SAFETY: per the contract above, `node` came from Box::into_raw
        // and nobody else can reach it.
        unsafe { drop(Box::from_raw(node)) };
    }
}

/// Unbounded MPSC queue. Push from any thread; pop from one.
///
/// For concurrent push-while-pop use, prefer [`channel`], which
/// encapsulates the single-consumer requirement in a `!Clone` receiver
/// handle instead of `&mut self`.
pub struct MpscQueue<T> {
    /// Producers swap themselves in here.
    tail: AtomicPtr<Node<T>>,
    /// Consumer-owned: current stub node; its `next` is the queue head.
    head: AtomicPtr<Node<T>>,
    /// Ordering for the producer-side link store (model builds only;
    /// production is hard-wired to `Release`). Lets negative model tests
    /// inject a deliberately-broken `Relaxed` link.
    #[cfg(feature = "model")]
    link_ord: Ordering,
}

// SAFETY: values move across threads through Release (link) / Acquire
// (read) pairs on the `next` pointers.
unsafe impl<T: Send> Send for MpscQueue<T> {}
// SAFETY: as above — producers only swing `tail` and link nodes; the
// single consumer (enforced by `&mut self` / the one receiver handle) is
// the only side that unlinks and frees.
unsafe impl<T: Send> Sync for MpscQueue<T> {}

impl<T> Default for MpscQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> MpscQueue<T> {
    /// Create an empty queue.
    pub fn new() -> Self {
        let stub = Node::new(None);
        MpscQueue {
            tail: AtomicPtr::new(stub),
            head: AtomicPtr::new(stub),
            #[cfg(feature = "model")]
            // ordering-ok: default link edge; model negative tests weaken it.
            link_ord: Ordering::Release,
        }
    }

    /// Like [`new`](Self::new), but producers link nodes with `link_ord`
    /// instead of `Release`. Exists only for the model checker's
    /// negative tests: passing `Ordering::Relaxed` must make `analysis`
    /// report a data race on the node handoff.
    #[cfg(feature = "model")]
    pub fn new_weak(link_ord: Ordering) -> Self {
        let mut q = Self::new();
        q.link_ord = link_ord;
        q
    }

    /// Ordering used by producers to publish the link to a new node.
    #[inline]
    fn link_ord(&self) -> Ordering {
        #[cfg(feature = "model")]
        {
            self.link_ord
        }
        #[cfg(not(feature = "model"))]
        {
            // ordering-ok: linking publishes the node's value write; pairs
            // with the consumer's Acquire load of `next`.
            Ordering::Release
        }
    }

    /// Push a value. Callable concurrently from any number of threads.
    pub fn push(&self, value: T) {
        let node = Node::new(Some(value));
        // Swap ourselves in as the new tail, then link the old tail to us.
        // Between the swap and the store the queue is momentarily
        // "broken" (old tail not yet linked); the consumer handles that by
        // treating a null `next` on a non-tail node as empty-for-now.
        // ordering-ok: AcqRel — Release publishes our node to the next
        // producer that swaps; Acquire sees the previous tail's init.
        let prev = self.tail.swap(node, Ordering::AcqRel);
        // SAFETY: `prev` is a valid node; only this producer links it.
        unsafe { (*prev).next.store(node, self.link_ord()) };
    }

    /// Pop the oldest value. Must only be called from one thread at a
    /// time (single consumer); takes `&mut self` to enforce it.
    pub fn pop(&mut self) -> Option<T> {
        // SAFETY: `&mut self` is the exclusive-consumer proof.
        unsafe { self.pop_unsync() }
    }

    /// Single-consumer pop without the `&mut` proof.
    ///
    /// # Safety
    /// The caller must guarantee no other thread is concurrently calling
    /// `pop_unsync`/`pop`/`is_empty` on this queue (single consumer).
    unsafe fn pop_unsync(&self) -> Option<T> {
        // relaxed-ok: `head` is consumer-owned; only this thread stores it.
        let head = self.head.load(Ordering::Relaxed);
        // SAFETY: head is always a valid stub node owned by the consumer.
        // ordering-ok: pairs with the producer's Release link store — the
        // node's value write is visible before we dereference it.
        let next = unsafe { (*head).next.load(Ordering::Acquire) };
        if next.is_null() {
            return None;
        }
        // SAFETY: `next` was fully initialized before being linked
        // (Release/Acquire on the link); the single consumer has exclusive
        // access to its value slot.
        let value = unsafe { (*next).value.with_mut(|v| (*v).take()) };
        debug_assert!(value.is_some(), "non-stub node must carry a value");
        // relaxed-ok: consumer-owned pointer; producers never read `head`.
        self.head.store(next, Ordering::Relaxed);
        // The old stub is no longer reachable by any producer (they only
        // hold `tail` or nodes ahead of us), so free it.
        // SAFETY: exclusive access to the retired stub.
        unsafe { Node::free(head) };
        value
    }

    /// True when the queue appears empty (exact when quiescent).
    ///
    /// Takes `&mut self` like [`pop`](Self::pop): it dereferences the
    /// current stub node, which a concurrent pop would free under us.
    pub fn is_empty(&mut self) -> bool {
        // relaxed-ok: consumer-owned pointer, exclusive access.
        let head = self.head.load(Ordering::Relaxed);
        // SAFETY: head is a valid stub node; `&mut self` excludes a
        // concurrent pop freeing it.
        // ordering-ok: pairs with the producer's Release link store.
        unsafe { (*head).next.load(Ordering::Acquire).is_null() }
    }
}

impl<T> Drop for MpscQueue<T> {
    fn drop(&mut self) {
        while self.pop().is_some() {}
        // relaxed-ok: exclusive access during drop.
        let stub = self.head.load(Ordering::Relaxed);
        // SAFETY: after draining only the stub remains; we own it.
        unsafe { Node::free(stub) };
    }
}

/// Create an MPSC channel: cloneable senders, one receiver. This is the
/// safe interface for push-while-pop concurrency — the `!Clone` receiver
/// carries the single-consumer guarantee that `MpscQueue` itself can
/// only express through `&mut self`.
pub fn channel<T>() -> (MpscSender<T>, MpscReceiver<T>) {
    let q = Arc::new(MpscQueue::new());
    (MpscSender(q.clone()), MpscReceiver(q))
}

/// [`channel`] over a [`MpscQueue::new_weak`] queue: model-checker
/// negative tests only.
#[cfg(feature = "model")]
pub fn channel_weak<T>(link_ord: Ordering) -> (MpscSender<T>, MpscReceiver<T>) {
    let q = Arc::new(MpscQueue::new_weak(link_ord));
    (MpscSender(q.clone()), MpscReceiver(q))
}

/// Producing handle; clone freely across threads.
pub struct MpscSender<T>(Arc<MpscQueue<T>>);

impl<T> Clone for MpscSender<T> {
    fn clone(&self) -> Self {
        MpscSender(self.0.clone())
    }
}

impl<T> MpscSender<T> {
    /// Enqueue a value.
    pub fn send(&self, value: T) {
        self.0.push(value);
    }
}

/// Consuming handle. `!Clone`: single consumer.
pub struct MpscReceiver<T>(Arc<MpscQueue<T>>);

impl<T> MpscReceiver<T> {
    /// Pop the oldest value, or `None` when currently empty.
    pub fn recv(&mut self) -> Option<T> {
        // SAFETY: `channel` hands out exactly one receiver and it is not
        // Clone, so `&mut self` proves this is the only consumer call.
        unsafe { self.0.pop_unsync() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_fifo() {
        let mut q = MpscQueue::new();
        assert!(q.is_empty());
        for i in 0..100 {
            q.push(i);
        }
        assert!(!q.is_empty());
        for i in 0..100 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = MpscQueue::new();
        q.push(1);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
        q.push(2);
        q.push(3);
        assert_eq!(q.pop(), Some(2));
        q.push(4);
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn drop_frees_pending_values() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let q = MpscQueue::new();
            for _ in 0..10 {
                q.push(D);
            }
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn partially_consumed_queue_drops_exact_remainder() {
        // Regression for node/value leaks: consume some, drop the rest.
        // Every unconsumed value must be dropped exactly once — no leak,
        // no double drop. (Node-level coverage, including the stub, lives
        // in analysis's model tests via the allocation tracker.)
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D(#[allow(dead_code)] usize);
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let mut q = MpscQueue::new();
            for i in 0..10 {
                q.push(D(i));
            }
            for _ in 0..4 {
                drop(q.pop().expect("queue holds 10 items"));
            }
            assert_eq!(DROPS.load(Ordering::Relaxed), 4, "consumed values");
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 10, "remainder on drop");
    }

    #[test]
    fn multi_producer_stress_delivers_everything() {
        const PRODUCERS: usize = 4;
        const PER: usize = 50_000;
        let q = Arc::new(MpscQueue::new());
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..PER {
                    q.push(p * PER + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut seen = vec![false; PRODUCERS * PER];
        let mut got = 0usize;
        // Per-producer order check: each producer's items arrive in its
        // own order even though streams interleave.
        let mut last_per_producer = [None::<usize>; PRODUCERS];
        let mut q = Arc::try_unwrap(q).ok().expect("sole owner after join");
        while let Some(v) = q.pop() {
            assert!(!seen[v], "duplicate delivery of {v}");
            seen[v] = true;
            let p = v / PER;
            if let Some(prev) = last_per_producer[p] {
                assert!(v > prev, "per-producer order violated");
            }
            last_per_producer[p] = Some(v);
            got += 1;
        }
        assert_eq!(got, PRODUCERS * PER);
    }

    #[test]
    fn channel_concurrent_push_and_pop() {
        // Consumer drains concurrently with producers through the safe
        // handle API (no unsafe aliasing tricks needed in user code).
        const PRODUCERS: usize = 3;
        const PER: usize = 30_000;
        let (tx, mut rx) = channel::<usize>();
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..PER {
                        tx.send(p * PER + i);
                    }
                });
            }
            let mut got = 0usize;
            let mut last_per_producer = [None::<usize>; PRODUCERS];
            while got < PRODUCERS * PER {
                match rx.recv() {
                    Some(v) => {
                        let p = v / PER;
                        if let Some(prev) = last_per_producer[p] {
                            assert!(v > prev, "per-producer order violated");
                        }
                        last_per_producer[p] = Some(v);
                        got += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
        });
        assert_eq!(rx.recv(), None);
    }
}
