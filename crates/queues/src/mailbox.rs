//! Cross-shard mailbox: an SPSC ring plus a batch doorbell.
//!
//! Its one user is the kernel's `set_parallel` detour (DESIGN.md §17):
//! cross-lane schedules are posted to the target lane's mailbox and
//! drained into the kernel's single event queue before the next pop.
//! The mailbox is the existing [`crate::spsc`] ring with one addition: a
//! *doorbell*, a cumulative count of posted items that the producer
//! publishes once per batch (`post` × N, then one [`MailboxTx::ring`]).
//! The consumer drains exactly the belled count, so a reactor wakes once
//! per handoff instead of polling the ring, and a drain never observes a
//! half-published batch.
//!
//! Ordering contract: the bell is stored with `Release` *after* the ring
//! pushes and read with `Acquire`, so `belled count ≤ published tail`
//! always holds on the consumer side — if [`MailboxRx::pending`] says n,
//! n pops succeed immediately. Because the bell store follows every push
//! of its batch, the bell edge is by itself a full publication edge (one
//! amortized fence per batch); the ring's own acquire/release pair keeps
//! non-mailbox uses of the ring safe. This is exhaustively model-checked
//! (`cargo test -p analysis`): the handoff, the batch-visibility
//! property under a deliberately weakened ring, and a negative control
//! proving a `Relaxed` bell is caught as a data race.

use crate::spsc::{spsc_channel, Consumer, Producer};
use crate::sync::AtomicUsize;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Posting half of a mailbox. `!Clone`: one producer per mailbox; the
/// kernel's detour holds one per destination lane.
pub struct MailboxTx<T> {
    tx: Producer<T>,
    bell: Arc<AtomicUsize>,
    /// Cumulative items successfully posted (producer-local); `ring`
    /// publishes it as the bell.
    posted: usize,
    /// Ordering for bell publication (model builds only; production is
    /// hard-wired to `Release`).
    #[cfg(feature = "model")]
    bell_ord: Ordering,
}

/// Draining half of a mailbox. `!Clone`: single consumer (the owning
/// reactor).
pub struct MailboxRx<T> {
    rx: Consumer<T>,
    bell: Arc<AtomicUsize>,
    /// Cumulative items taken (consumer-local).
    taken: usize,
}

/// Create a mailbox with room for at least `cap` in-flight items
/// (rounded up to a power of two by the underlying ring).
pub fn mailbox<T>(cap: usize) -> (MailboxTx<T>, MailboxRx<T>) {
    let (tx, rx) = spsc_channel(cap);
    let bell = Arc::new(AtomicUsize::new(0));
    (
        MailboxTx {
            tx,
            bell: bell.clone(),
            posted: 0,
            #[cfg(feature = "model")]
            // ordering-ok: default bell edge; model negative tests weaken it.
            bell_ord: Ordering::Release,
        },
        MailboxRx { rx, bell, taken: 0 },
    )
}

/// Like [`mailbox`], but with the doorbell publication downgraded to
/// `bell_ord` and the ring built via [`crate::spsc::spsc_channel_weak`]
/// with `ring_ord`. Exists only for the model checker's negative tests:
/// a `Relaxed` ring must race on the slot handoff, and a `Relaxed` bell
/// must let `pending()` overtake the published tail.
#[cfg(feature = "model")]
pub fn mailbox_weak<T>(
    cap: usize,
    ring_ord: Ordering,
    bell_ord: Ordering,
) -> (MailboxTx<T>, MailboxRx<T>) {
    let (tx, rx) = crate::spsc::spsc_channel_weak(cap, ring_ord);
    let bell = Arc::new(AtomicUsize::new(0));
    (
        MailboxTx {
            tx,
            bell: bell.clone(),
            posted: 0,
            bell_ord,
        },
        MailboxRx { rx, bell, taken: 0 },
    )
}

impl<T> MailboxTx<T> {
    /// Ordering used to publish the bell.
    #[inline]
    fn bell_ord(&self) -> Ordering {
        #[cfg(feature = "model")]
        {
            self.bell_ord
        }
        #[cfg(not(feature = "model"))]
        {
            // ordering-ok: the bell publishes the whole posted batch;
            // pairs with `pending()`'s Acquire load.
            Ordering::Release
        }
    }

    /// Stage a value without waking the consumer; returns it back if the
    /// ring is full. Not visible to [`MailboxRx::pending`] until
    /// [`ring`](Self::ring) publishes the batch.
    pub fn post(&mut self, value: T) -> Result<(), T> {
        self.tx.push(value)?;
        self.posted += 1;
        Ok(())
    }

    /// Publish everything posted so far: one doorbell per batch. The
    /// single-producer contract makes a plain store sufficient (no
    /// read-modify-write); `Release` orders it after the ring pushes.
    pub fn ring(&mut self) {
        self.bell.store(self.posted, self.bell_ord());
    }

    /// Convenience: post one value and ring immediately.
    pub fn send(&mut self, value: T) -> Result<(), T> {
        self.post(value)?;
        self.ring();
        Ok(())
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.tx.capacity()
    }
}

impl<T> MailboxRx<T> {
    /// Belled items not yet taken. The batch contract: every one of
    /// these is already published in the ring, so that many [`Self::take`]
    /// calls succeed without spinning.
    pub fn pending(&self) -> usize {
        // ordering-ok: pairs with the producer's Release bell store — every
        // belled item's ring publication is visible before we count it.
        self.bell.load(Ordering::Acquire) - self.taken
    }

    /// Take the oldest *belled* item. Items posted but not yet belled
    /// are left alone even though they sit in the ring — the producer
    /// has not published that batch.
    pub fn take(&mut self) -> Option<T> {
        if self.pending() == 0 {
            return None;
        }
        let v = self.rx.pop();
        debug_assert!(v.is_some(), "doorbell overtook the ring publication");
        if v.is_some() {
            self.taken += 1;
        }
        v
    }

    /// Drain every belled item into `f`, returning how many were taken.
    pub fn drain(&mut self, mut f: impl FnMut(T)) -> usize {
        let mut n = 0;
        while let Some(v) = self.take() {
            f(v);
            n += 1;
        }
        n
    }

    /// Cumulative items taken over the mailbox lifetime.
    pub fn taken(&self) -> usize {
        self.taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbelled_posts_are_invisible() {
        let (mut tx, mut rx) = mailbox::<u32>(8);
        tx.post(1).unwrap();
        tx.post(2).unwrap();
        assert_eq!(rx.pending(), 0);
        assert_eq!(rx.take(), None, "batch not published yet");
        tx.ring();
        assert_eq!(rx.pending(), 2);
        assert_eq!(rx.take(), Some(1));
        assert_eq!(rx.take(), Some(2));
        assert_eq!(rx.take(), None);
    }

    #[test]
    fn send_posts_and_rings() {
        let (mut tx, mut rx) = mailbox::<&str>(4);
        tx.send("admin").unwrap();
        assert_eq!(rx.pending(), 1);
        assert_eq!(rx.take(), Some("admin"));
    }

    #[test]
    fn drain_takes_whole_batches_in_order() {
        let (mut tx, mut rx) = mailbox::<u32>(16);
        for batch in 0..3u32 {
            for i in 0..4 {
                tx.post(batch * 4 + i).unwrap();
            }
            tx.ring();
        }
        let mut got = Vec::new();
        assert_eq!(rx.drain(|v| got.push(v)), 12);
        assert_eq!(got, (0..12).collect::<Vec<_>>());
        assert_eq!(rx.taken(), 12);
    }

    #[test]
    fn full_ring_rejects_and_recovers() {
        let (mut tx, mut rx) = mailbox::<u32>(2);
        tx.post(1).unwrap();
        tx.post(2).unwrap();
        assert_eq!(tx.post(3), Err(3));
        tx.ring();
        assert_eq!(rx.take(), Some(1));
        tx.post(3).unwrap();
        tx.ring();
        assert_eq!(rx.take(), Some(2));
        assert_eq!(rx.take(), Some(3));
    }
}
