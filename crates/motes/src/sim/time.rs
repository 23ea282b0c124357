//! Virtual time: nanosecond-resolution instants and durations.
//!
//! `std::time` types are deliberately not reused: simulated time must never
//! be confused with wall-clock time, and a plain `u64` keeps the event heap
//! entries small (see the type-size guidance in the Rust perf book).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in simulated time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Raw nanoseconds since start.
    #[inline]
    pub(crate) const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since start as a float (for reporting).
    #[inline]
    pub(crate) fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Instant from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Duration since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics (in debug) if `earlier` is later than `self`.
    #[inline]
    pub(crate) fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier.0 <= self.0, "time went backwards");
        SimDuration(self.0 - earlier.0)
    }
}

impl SimDuration {
    /// The zero-length span.
    pub(crate) const ZERO: SimDuration = SimDuration(0);

    /// Span from nanoseconds.
    #[inline]
    pub(crate) const fn nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Span from microseconds.
    #[inline]
    pub const fn micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Span from milliseconds.
    #[inline]
    pub(crate) const fn millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Raw nanoseconds.
    #[inline]
    pub(crate) const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.as_micros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::ZERO + SimDuration::micros(250);
        assert_eq!(t.as_nanos(), 250_000);
        let later = t + SimDuration::millis(1);
        assert_eq!(later - t, SimDuration::millis(1));
        assert_eq!(later.since(SimTime::ZERO), SimDuration::micros(1250));
    }

    #[test]
    fn duration_scaling() {
        assert_eq!(SimDuration::micros(320) * 3, SimDuration::micros(960));
        assert_eq!(SimDuration::millis(10) / 4, SimDuration::micros(2500));
        assert_eq!(SimDuration::millis(1000).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn saturating_add_at_the_horizon() {
        let horizon = SimTime::from_nanos(u64::MAX);
        assert_eq!(horizon + SimDuration::millis(1000), horizon);
    }

    #[test]
    fn sub_saturates_at_zero_for_durations() {
        assert_eq!(
            SimDuration::micros(5) - SimDuration::micros(9),
            SimDuration::ZERO
        );
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_nanos(5) < SimTime::from_nanos(6));
        assert!(SimDuration::micros(1) < SimDuration::millis(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::micros(192)), "192us");
        assert_eq!(
            format!("{}", SimTime::from_nanos(1_500_000_000)),
            "1.500000s"
        );
    }
}
