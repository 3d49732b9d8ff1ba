//! Seeded multi-thread stress tests for the lock-free queues.
//!
//! The model checker (`crates/analysis`) proves small configurations
//! exhaustively; these tests complement it with larger randomized runs on
//! real hardware: tens of thousands of operations across real threads,
//! with a deterministic per-test seed driving the operation mix so
//! failures reproduce. Waits use `thread::yield_now()` so the suite
//! stays tier-1 fast even on single-core CI runners.

use queues::spsc_channel;
use std::thread;

/// Tiny deterministic PRNG (xorshift64*): no external deps, stable
/// across platforms, seeded per test.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[test]
fn spsc_stress_fifo_no_loss() {
    const OPS: u64 = 50_000;
    let (mut tx, mut rx) = spsc_channel::<u64>(64);
    let mut rng = Rng::new(0xC0FFEE);

    let producer = thread::spawn(move || {
        let mut next = 0u64;
        while next < OPS {
            // Random short bursts exercise full-queue backoff.
            let burst = rng.next() % 17 + 1;
            for _ in 0..burst {
                if next >= OPS {
                    break;
                }
                while tx.push(next).is_err() {
                    thread::yield_now();
                }
                next += 1;
            }
        }
    });

    let mut expected = 0u64;
    while expected < OPS {
        if let Some(v) = rx.pop() {
            assert_eq!(v, expected, "SPSC must deliver strictly in order");
            expected += 1;
        } else {
            thread::yield_now();
        }
    }
    producer.join().unwrap();
    assert!(rx.pop().is_none(), "no phantom elements after drain");
}

#[test]
fn spsc_stress_wraparound_small_capacity() {
    // Capacity 2 forces a wraparound every other push: the strongest
    // hammer on slot-reuse publication.
    const OPS: u64 = 20_000;
    let (mut tx, mut rx) = spsc_channel::<u64>(2);

    let producer = thread::spawn(move || {
        for i in 0..OPS {
            while tx.push(i).is_err() {
                thread::yield_now();
            }
        }
    });

    for expected in 0..OPS {
        loop {
            if let Some(v) = rx.pop() {
                assert_eq!(v, expected);
                break;
            }
            thread::yield_now();
        }
    }
    producer.join().unwrap();
}
