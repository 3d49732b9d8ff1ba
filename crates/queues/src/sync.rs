//! Synchronization-primitive facade: the queues build against these
//! names instead of `std` so the *same* sources can be model-checked.
//!
//! * Default build: thin zero-cost re-exports/wrappers around
//!   `std::sync::atomic` and `std::cell::UnsafeCell`.
//! * `--features model`: the types come from `analysis::model` — shadow
//!   atomics and cells that track happens-before with vector clocks and
//!   turn every access into a scheduling point, so
//!   `analysis`'s model tests explore every interleaving of the real
//!   queue code and flag data races and ordering bugs.
//!   Outside an active `model::check` execution the shadow types fall
//!   through to plain `std` behavior, so ordinary unit tests still pass
//!   in a unified-feature workspace build.
//!
//! The cell uses loom's closure API (`with`/`with_mut`) rather than
//! `get()` because the checker must observe each access; the real
//! wrapper inlines to exactly the raw-pointer code it replaces.

#[cfg(feature = "model")]
pub use analysis::model::{AtomicUsize, UnsafeCell};

#[cfg(not(feature = "model"))]
pub use real::*;

#[cfg(not(feature = "model"))]
mod real {
    pub use std::sync::atomic::AtomicUsize;

    /// `std::cell::UnsafeCell` behind the loom-style closure API.
    #[derive(Debug, Default)]
    #[repr(transparent)]
    pub struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

    impl<T> UnsafeCell<T> {
        #[inline(always)]
        pub fn new(value: T) -> Self {
            UnsafeCell(std::cell::UnsafeCell::new(value))
        }

        /// Shared access to the raw pointer.
        #[inline(always)]
        pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.0.get())
        }

        /// Exclusive access to the raw pointer.
        #[inline(always)]
        pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.0.get())
        }
    }
}
