//! Cross-lane mailbox: the [`crate::spsc`] FIFO under the names the
//! kernel's `set_parallel` detour uses (DESIGN.md §17).
//!
//! Cross-lane schedules are sent to the target lane's mailbox and taken
//! into the kernel's single event queue before the next pop. Sender and
//! receiver run on the simulation thread, so a send is visible to the
//! very next `take`.
//!
//! ```compile_fail
//! fn assert_send<T: Send>() {}
//! assert_send::<queues::MailboxTx<u32>>();
//! ```
//!
//! ```compile_fail
//! fn assert_send<T: Send>() {}
//! assert_send::<queues::MailboxRx<u32>>();
//! ```

use crate::spsc::{spsc_channel, Consumer, Producer};

/// Sending half of a mailbox. `!Clone`: one sender per mailbox; the
/// kernel's detour holds one per destination lane.
pub struct MailboxTx<T>(Producer<T>);

/// Receiving half of a mailbox. `!Clone`: one receiver (the owning
/// lane).
pub struct MailboxRx<T>(Consumer<T>);

/// Create a mailbox with room for `cap` in-flight items.
pub fn mailbox<T>(cap: usize) -> (MailboxTx<T>, MailboxRx<T>) {
    let (tx, rx) = spsc_channel(cap);
    (MailboxTx(tx), MailboxRx(rx))
}

impl<T> MailboxTx<T> {
    /// Send one value; returns it back if the mailbox is full.
    pub fn send(&mut self, value: T) -> Result<(), T> {
        self.0.push(value)
    }
}

impl<T> MailboxRx<T> {
    /// Items sent and not yet taken.
    pub fn pending(&self) -> usize {
        self.0.len()
    }

    /// Take the oldest item, or `None` when the mailbox is empty.
    pub fn take(&mut self) -> Option<T> {
        self.0.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_then_take_in_order() {
        let (mut tx, mut rx) = mailbox::<u32>(16);
        for i in 0..12 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.pending(), 12);
        let got: Vec<u32> = std::iter::from_fn(|| rx.take()).collect();
        assert_eq!(got, (0..12).collect::<Vec<_>>());
        assert_eq!(rx.pending(), 0);
    }

    #[test]
    fn full_mailbox_rejects_and_recovers() {
        let (mut tx, mut rx) = mailbox::<u32>(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(tx.send(3), Err(3));
        assert_eq!(rx.take(), Some(1));
        tx.send(3).unwrap();
        assert_eq!(rx.take(), Some(2));
        assert_eq!(rx.take(), Some(3));
        assert_eq!(rx.take(), None);
    }
}
