//! # queues — the CID queues of NVMe-oPF's priority manager
//!
//! Section IV-A of the paper bases NVMe-oPF's lock-free design on
//! *independent per-initiator queues*: the target keeps one
//! throughput-critical (TC) queue per connected initiator, so no queue is
//! ever shared between producers, and the fast path needs no locks. In
//! this simulator each such queue is owned by one initiator's state and
//! driven by the one simulation thread, so the design needs no atomics:
//!
//! * [`cid`] — the paper's *zero-copy* queue (§IV-B): it stores only the
//!   16-bit NVMe command identifier (CID) of each pending request, never
//!   the request or its payload, so space cost is independent of I/O size.
//!   It also implements the initiator-side in-order completion marking of
//!   Algorithm 2 (§IV-C out-of-order handling).
//! * [`spsc`] — a bounded single-producer/single-consumer FIFO with split
//!   handles.
//! * [`mod@mailbox`] — that FIFO under the names of the kernel's
//!   `set_parallel` detour (DESIGN.md §17), which drains per-lane inboxes
//!   into the kernel's single event queue.
//!
//! There is no shared multi-producer queue: the *shared-queue ablation*
//! is [`CidQueue`] under `QueueMode::Shared`. Every queue here is
//! preallocated, so none allocates per element. The handles are not
//! `Send`: nothing here crosses a thread.

pub mod cid;
pub mod mailbox;
pub mod spsc;

pub use cid::{CidQueue, CompleteResult};
pub use mailbox::{mailbox, MailboxRx, MailboxTx};
pub use spsc::{spsc_channel, Consumer, Producer};
