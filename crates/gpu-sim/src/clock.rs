//! Simulated time.
//!
//! All timing results reported by the benchmark harness are *simulated*
//! durations derived from deterministic event counts through the cost model
//! (see [`crate::cost`]). `SimTime` is a nanosecond-resolution duration
//! newtype used throughout; it is deliberately separate from
//! `std::time::Duration` so that simulated and wall-clock quantities cannot
//! be mixed up by accident.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A simulated duration with nanosecond resolution.
///
/// Arithmetic saturates rather than overflowing: the simulator adds many
/// independently-computed terms and a saturated value is far easier to spot
/// (and debug) than a wrapped one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime {
    nanos: u64,
}

impl SimTime {
    /// Zero duration.
    pub const ZERO: SimTime = SimTime { nanos: 0 };

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime { nanos }
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime {
            nanos: micros.saturating_mul(1_000),
        }
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimTime {
            nanos: millis.saturating_mul(1_000_000),
        }
    }

    /// Construct from (possibly fractional) seconds. Negative or NaN inputs
    /// clamp to zero.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return SimTime::ZERO;
        }
        let nanos = secs * 1e9;
        if nanos >= u64::MAX as f64 {
            SimTime { nanos: u64::MAX }
        } else {
            SimTime {
                nanos: nanos as u64,
            }
        }
    }

    /// Whole nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// Duration in seconds as a float (for reporting and ratio computation).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// `self / other`, returning `f64::INFINITY` when `other` is zero.
    ///
    /// Used for speedup computation in the harness; a zero denominator means
    /// the baseline did no modelled work, which we surface as infinity
    /// rather than panicking mid-report.
    #[inline]
    pub fn ratio(self, other: SimTime) -> f64 {
        if other.nanos == 0 {
            return f64::INFINITY;
        }
        self.nanos as f64 / other.nanos as f64
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: SimTime) -> SimTime {
        SimTime {
            nanos: self.nanos.saturating_add(rhs.nanos),
        }
    }

    /// The larger of the two durations.
    #[inline]
    pub fn max(self, rhs: SimTime) -> SimTime {
        if self.nanos >= rhs.nanos {
            self
        } else {
            rhs
        }
    }

    /// The smaller of the two durations.
    #[inline]
    pub fn min(self, rhs: SimTime) -> SimTime {
        if self.nanos <= rhs.nanos {
            self
        } else {
            rhs
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        self.saturating_add(rhs)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime {
            nanos: self.nanos.saturating_sub(rhs.nanos),
        }
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime {
            nanos: self.nanos.saturating_mul(rhs),
        }
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: f64) -> SimTime {
        SimTime::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime {
            nanos: self.nanos / rhs.max(1),
        }
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, SimTime::saturating_add)
    }
}

impl fmt::Display for SimTime {
    /// Human-readable rendering with an auto-selected unit, matching the
    /// granularity the paper's tables use (e.g. `1.22s`, `14.8s`, `0.07s`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.nanos;
        if n >= 1_000_000_000 {
            write!(f, "{:.2}s", self.as_secs_f64())
        } else if n >= 1_000_000 {
            write!(f, "{:.2}ms", n as f64 / 1e6)
        } else if n >= 1_000 {
            write!(f, "{:.2}us", n as f64 / 1e3)
        } else {
            write!(f, "{}ns", n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_nanos(1_500).as_nanos(), 1_500);
        assert_eq!(SimTime::from_micros(2).as_nanos(), 2_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn from_secs_clamps_garbage() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::INFINITY).as_nanos(), u64::MAX);
    }

    #[test]
    fn arithmetic_saturates() {
        let big = SimTime::from_nanos(u64::MAX - 1);
        assert_eq!((big + big).as_nanos(), u64::MAX);
        assert_eq!((big * 3).as_nanos(), u64::MAX);
        assert_eq!(SimTime::ZERO - SimTime::from_nanos(5), SimTime::ZERO);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        let a = SimTime::from_nanos(10);
        assert!(a.ratio(SimTime::ZERO).is_infinite());
        assert!((a.ratio(SimTime::from_nanos(5)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_sum() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(20);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let total: SimTime = [a, b, a].into_iter().sum();
        assert_eq!(total.as_nanos(), 40);
    }

    #[test]
    fn display_selects_units() {
        assert_eq!(SimTime::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimTime::from_nanos(12_345).to_string(), "12.35us");
        assert_eq!(SimTime::from_millis(12).to_string(), "12.00ms");
        assert_eq!(SimTime::from_secs_f64(1.22).to_string(), "1.22s");
    }

    #[test]
    fn div_rounds_down_and_guards_zero() {
        let t = SimTime::from_nanos(10);
        assert_eq!((t / 3).as_nanos(), 3);
        assert_eq!((t / 0).as_nanos(), 10); // divisor clamped to 1
    }
}
