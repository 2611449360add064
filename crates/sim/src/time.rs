//! Virtual time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A virtual-time instant or duration, in nanoseconds.
///
/// `Nanos` is used both as a point on a virtual thread's clock and as a
/// duration; the arithmetic is the same and the simulation never mixes
/// virtual time with wall-clock time, so a single newtype keeps the API
/// small.
///
/// # Example
///
/// ```
/// use msnap_sim::Nanos;
///
/// let io = Nanos::from_us(44);
/// let reset = Nanos::from_us(5) + Nanos::from_ns(100);
/// assert!(io > reset);
/// assert_eq!((io + reset).as_us_f64(), 49.1);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Nanos(u64);

impl Nanos {
    /// Zero time; the epoch of every virtual clock.
    pub const ZERO: Nanos = Nanos(0);
    /// The maximum representable instant; used as "never".
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a duration of `ns` nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a duration of `us` microseconds.
    pub const fn from_us(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a duration of `ms` milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a duration of `s` seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Raw nanosecond count.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// This time as fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This time as fractional milliseconds.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// This time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction; returns [`Nanos::ZERO`] on underflow.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// The later of two instants.
    pub fn max(self, other: Nanos) -> Nanos {
        Nanos(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: Nanos) -> Nanos {
        Nanos(self.0.min(other.0))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl fmt::Display for Nanos {
    /// Human-oriented rendering with an automatically chosen unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns} ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.1} us", self.as_us_f64())
        } else if ns < 1_000_000_000 {
            write!(f, "{:.1} ms", self.as_ms_f64())
        } else {
            write!(f, "{:.2} s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Nanos::from_us(7).as_ns(), 7_000);
        assert_eq!(Nanos::from_ms(3).as_ns(), 3_000_000);
        assert_eq!(Nanos::from_secs(2).as_ns(), 2_000_000_000);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos::from_us(10);
        let b = Nanos::from_us(4);
        assert_eq!(a + b, Nanos::from_us(14));
        assert_eq!(a - b, Nanos::from_us(6));
        assert_eq!(a * 3, Nanos::from_us(30));
        assert_eq!(a / 2, Nanos::from_us(5));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn sum_of_durations() {
        let total: Nanos = (1..=4).map(Nanos::from_us).sum();
        assert_eq!(total, Nanos::from_us(10));
    }

    #[test]
    fn display_units() {
        assert_eq!(Nanos::from_ns(5).to_string(), "5 ns");
        assert_eq!(Nanos::from_us(5).to_string(), "5.0 us");
        assert_eq!(Nanos::from_ms(5).to_string(), "5.0 ms");
        assert_eq!(Nanos::from_secs(5).to_string(), "5.00 s");
    }
}
