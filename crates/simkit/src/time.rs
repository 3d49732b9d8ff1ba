//! Virtual time: nanosecond-resolution instants and durations.
//!
//! `u64` nanoseconds give ~584 years of simulated range, far beyond the
//! 10-second experiment windows the paper uses, while keeping ordering
//! comparisons branch-free integer compares in the event queue.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the virtual clock, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant; used as "never" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since simulation start (truncated).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since simulation start as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`; saturates at zero if `earlier`
    /// is in the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// nanosecond. Negative or non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((s * 1e9).round() as u64)
    }

    /// Construct from fractional microseconds (common for device latency
    /// parameters expressed in µs).
    #[inline]
    pub fn from_micros_f64(us: f64) -> Self {
        Self::from_secs_f64(us / 1e6)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncated).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Microseconds as a float.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True when zero-length.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

/// Wall-clock stopwatch for harness-side progress reporting.
///
/// Simulation code must never read the host clock — results would stop
/// being reproducible, and the workspace linter's `wall-clock` rule
/// rejects `std::time::Instant`/`SystemTime` outside this crate. The one
/// legitimate use is a harness timing its own run (e.g. `repro` printing
/// how long regeneration took); routing that through `Stopwatch` keeps
/// `std::time` out of every other crate.
#[derive(Debug)]
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch(std::time::Instant::now())
    }

    /// Wall-clock seconds elapsed since `start`.
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 = self.0.saturating_add(d.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimTime) -> SimDuration {
        debug_assert!(self.0 >= other.0, "SimTime subtraction went negative");
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, other: SimDuration) {
        self.0 = self.0.saturating_add(other.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= other.0, "SimDuration subtraction went negative");
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, other: SimDuration) {
        *self = *self - other;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, n: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(n))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, n: u64) -> SimDuration {
        SimDuration(self.0 / n)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimTime::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_secs(2).as_secs_f64(), 2.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_micros(10) + SimDuration::from_micros(5);
        assert_eq!(t.as_micros(), 15);
        assert_eq!((t - SimTime::from_micros(10)).as_micros(), 5);
        assert_eq!((SimDuration::from_micros(4) * 3).as_micros(), 12);
        assert_eq!((SimDuration::from_micros(12) / 4).as_micros(), 3);
    }

    #[test]
    fn since_saturates() {
        let early = SimTime::from_micros(1);
        let late = SimTime::from_micros(9);
        assert_eq!(early.since(late), SimDuration::ZERO);
        assert_eq!(late.since(early).as_micros(), 8);
    }

    #[test]
    fn from_secs_f64_clamps_bad_inputs() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
    }

    #[test]
    fn micros_f64_roundtrip() {
        let d = SimDuration::from_micros_f64(85.5);
        assert_eq!(d.as_nanos(), 85_500);
        assert!((d.as_micros_f64() - 85.5).abs() < 1e-9);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(17)), "17ns");
        assert_eq!(format!("{}", SimDuration::from_micros(2)), "2.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(4)), "4.000s");
    }

    #[test]
    fn ordering_and_max() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert_eq!(
            SimTime::from_nanos(1).max(SimTime::from_nanos(2)),
            SimTime::from_nanos(2)
        );
    }
}
