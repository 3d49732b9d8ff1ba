//! Bounded single-producer/single-consumer FIFO with split handles.
//!
//! The simulator runs on one thread, so the two handles share a plain
//! `VecDeque` through an `Rc<RefCell<…>>`. Neither handle is `Send`: a
//! cross-thread handoff is a compile error rather than a data race.
//!
//! ```compile_fail
//! fn assert_send<T: Send>() {}
//! assert_send::<queues::Producer<u32>>();
//! ```
//!
//! ```compile_fail
//! fn assert_send<T: Send>() {}
//! assert_send::<queues::Consumer<u32>>();
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Producing half of an SPSC channel. `!Clone`: single producer.
pub struct Producer<T> {
    ring: Rc<RefCell<VecDeque<T>>>,
    cap: usize,
}

/// Consuming half of an SPSC channel. `!Clone`: single consumer.
pub struct Consumer<T> {
    ring: Rc<RefCell<VecDeque<T>>>,
}

/// Create a bounded SPSC channel with room for `cap` items.
pub fn spsc_channel<T>(cap: usize) -> (Producer<T>, Consumer<T>) {
    let ring = Rc::new(RefCell::new(VecDeque::with_capacity(cap)));
    (
        Producer {
            ring: ring.clone(),
            cap,
        },
        Consumer { ring },
    )
}

impl<T> Producer<T> {
    /// Push a value; returns it back if the ring is full.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let mut ring = self.ring.borrow_mut();
        if ring.len() == self.cap {
            return Err(value);
        }
        ring.push_back(value);
        Ok(())
    }
}

impl<T> Consumer<T> {
    /// Pop the oldest value, or `None` when empty.
    pub fn pop(&mut self) -> Option<T> {
        self.ring.borrow_mut().pop_front()
    }

    /// Number of items queued.
    pub(crate) fn len(&self) -> usize {
        self.ring.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_fifo() {
        let (mut tx, mut rx) = spsc_channel::<u32>(8);
        for i in 0..5 {
            tx.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn full_ring_rejects_until_a_pop() {
        let (mut tx, mut rx) = spsc_channel::<u64>(5);
        for i in 0..5 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.push(99), Err(99));
        assert_eq!(rx.pop(), Some(0));
        tx.push(99).unwrap(); // freed one slot
        assert_eq!(tx.push(100), Err(100));
    }

    #[test]
    fn drops_pending_items() {
        let token = Rc::new(());
        {
            let (mut tx, mut rx) = spsc_channel::<Rc<()>>(8);
            for _ in 0..6 {
                tx.push(token.clone()).unwrap();
            }
            drop(rx.pop()); // one dropped by consumption
            assert_eq!(Rc::strong_count(&token), 6);
        }
        assert_eq!(Rc::strong_count(&token), 1);
    }

    #[test]
    fn wraparound_many_times() {
        let (mut tx, mut rx) = spsc_channel::<usize>(4);
        for round in 0..1000 {
            for i in 0..3 {
                tx.push(round * 3 + i).unwrap();
            }
            for i in 0..3 {
                assert_eq!(rx.pop(), Some(round * 3 + i));
            }
        }
    }

    proptest::proptest! {
        /// Any interleaved sequence of pushes and pops behaves like a
        /// VecDeque of the same capacity.
        #[test]
        fn matches_vecdeque_model(ops in proptest::collection::vec(
            proptest::prelude::any::<(bool, u16)>(), 0..400)) {
            const CAP: usize = 16;
            let (mut tx, mut rx) = spsc_channel::<u16>(CAP);
            let mut model: VecDeque<u16> = VecDeque::new();
            for (is_push, v) in ops {
                if is_push {
                    let r = tx.push(v);
                    if model.len() == CAP {
                        proptest::prop_assert_eq!(r, Err(v));
                    } else {
                        proptest::prop_assert_eq!(r, Ok(()));
                        model.push_back(v);
                    }
                } else {
                    proptest::prop_assert_eq!(rx.pop(), model.pop_front());
                }
                proptest::prop_assert_eq!(rx.len(), model.len());
            }
        }
    }
}
