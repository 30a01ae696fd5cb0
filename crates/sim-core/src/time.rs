//! The virtual clock.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// 2^53: every integer below it is exactly representable as an `f64`.
const EXACT_INT: u64 = 1 << 53;

/// `n as f64`, bit for bit, through the signed conversion whenever `n`
/// fits in an `i64`.
///
/// Both conversions round to nearest, so for `n < 2^63` they return the
/// same value. The signed one is a single `cvtsi2sd` on baseline x86-64;
/// the unsigned one is a multi-instruction sequence there, on the
/// critical path of every conversion. Every nanosecond count and task
/// count the simulator converts fits. Past 2^63 the value is halved with
/// its low bit kept as a sticky bit, so rounding the half and doubling
/// rounds exactly as the unsigned conversion does; written as `n as f64`,
/// that arm would let the compiler fold both arms back into the unsigned
/// sequence.
#[inline]
#[must_use]
pub fn u64_to_f64(n: u64) -> f64 {
    match i64::try_from(n) {
        Ok(signed) => signed as f64,
        Err(_) => ((n >> 1 | n & 1) as i64 as f64) * 2.0,
    }
}

/// `x.round() as u64` for every `x`, rounding ties away from zero,
/// without the `f64::round` call (a libm routine on targets without
/// SSE4.1) and, in the common range, without the unsigned conversion
/// (a compare-and-subtract sequence on baseline x86-64).
///
/// For `0 <= x < 2^53` (NaN fails the range test) the truncation fits an
/// `i64`, so it is the single signed `cvttsd2si`; the truncated value is
/// an exact `f64`, and below 2^52 so is the fraction `x - t`, so comparing
/// it with 0.5 rounds ties away from zero exactly as `round` does (from
/// 2^52 up every `f64` is an integer and the fraction is 0). Every other
/// input takes the saturating path, the same arithmetic through `u64`:
/// negatives and NaN cast to 0, and past `u64::MAX` and at infinity the
/// cast saturates and the increment saturates with it.
#[inline]
fn round_to_ns(x: f64) -> u64 {
    if (0.0..EXACT_INT as f64).contains(&x) {
        let t = x as i64;
        return (t + i64::from(x - t as f64 >= 0.5)) as u64;
    }
    let t = x as u64;
    if x - t as f64 >= 0.5 {
        t.saturating_add(1)
    } else {
        t
    }
}

/// A point in (or span of) virtual time, with nanosecond resolution.
///
/// `SimTime` doubles as an instant and a duration, exactly like a plain
/// integer timestamp would; the arithmetic operators below keep the common
/// manipulations readable. Saturating semantics are used for subtraction so
/// that clock skew bugs show up as zero-length spans rather than panics in
/// release experiments (debug builds still catch overflow in `Add`).
///
/// # Example
///
/// ```
/// use flep_sim_core::SimTime;
/// let a = SimTime::from_us(5);
/// let b = SimTime::from_us(2);
/// assert_eq!((a + b).as_us(), 7.0);
/// assert_eq!((a - b).as_ns(), 3_000);
/// assert_eq!((b - a), SimTime::ZERO); // saturating
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero instant (simulation start).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time value from raw nanoseconds.
    #[must_use]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time value from microseconds.
    #[must_use]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time value from milliseconds.
    #[must_use]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time value from a fractional number of microseconds.
    ///
    /// Negative inputs clamp to zero; the fractional part is rounded to the
    /// nearest nanosecond.
    #[must_use]
    pub fn from_us_f64(us: f64) -> Self {
        if us <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime(round_to_ns(us * 1_000.0))
    }

    /// Raw nanosecond count.
    #[must_use]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// This time expressed in (fractional) microseconds.
    #[must_use]
    pub fn as_us(self) -> f64 {
        u64_to_f64(self.0) / 1_000.0
    }

    /// This time expressed in (fractional) milliseconds.
    #[must_use]
    pub fn as_ms(self) -> f64 {
        u64_to_f64(self.0) / 1_000_000.0
    }

    /// This time expressed in (fractional) seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        u64_to_f64(self.0) / 1_000_000_000.0
    }

    /// Saturating subtraction: `self - rhs`, or zero if `rhs > self`.
    #[must_use]
    pub const fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition, returning `None` on overflow.
    #[must_use]
    pub const fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(SimTime(v)),
            None => None,
        }
    }

    /// Scales this span by a floating-point factor (rounding to the nearest
    /// nanosecond; negative factors clamp to zero).
    ///
    /// A factor of exactly 1.0 returns the span untouched when it is below
    /// 2^53, where the round trip through `f64` is exact; above that the
    /// conversion rounds, so the full computation runs.
    #[must_use]
    pub fn scale(self, factor: f64) -> SimTime {
        if factor == 1.0 && self.0 < EXACT_INT {
            return self;
        }
        if factor <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime(round_to_ns(u64_to_f64(self.0) * factor))
    }

    /// Returns the larger of two times.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two times.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// True when this is the zero instant / an empty span.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The ratio `self / other` as `f64`.
    ///
    /// Returns 0.0 when `other` is zero so callers computing shares do not
    /// need a special case for empty denominators.
    #[must_use]
    pub fn ratio(self, other: SimTime) -> f64 {
        if other.0 == 0 {
            0.0
        } else {
            u64_to_f64(self.0) / u64_to_f64(other.0)
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = self.saturating_sub(rhs);
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_us())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
        assert_eq!(SimTime::from_us_f64(1.5), SimTime::from_ns(1_500));
    }

    #[test]
    fn from_us_f64_clamps_negative() {
        assert_eq!(SimTime::from_us_f64(-3.0), SimTime::ZERO);
    }

    #[test]
    fn saturating_subtraction() {
        let a = SimTime::from_us(1);
        let b = SimTime::from_us(2);
        assert_eq!(a - b, SimTime::ZERO);
        assert_eq!(b - a, SimTime::from_us(1));
    }

    #[test]
    fn sub_assign_saturates() {
        let mut t = SimTime::from_us(1);
        t -= SimTime::from_us(5);
        assert_eq!(t, SimTime::ZERO);
    }

    #[test]
    fn scale_rounds_and_clamps() {
        assert_eq!(SimTime::from_ns(10).scale(0.55), SimTime::from_ns(6));
        assert_eq!(SimTime::from_ns(10).scale(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_ns(10).scale(2.0), SimTime::from_ns(20));
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(SimTime::from_us(5).ratio(SimTime::ZERO), 0.0);
        assert!((SimTime::from_us(5).ratio(SimTime::from_us(10)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_ns(12).to_string(), "12ns");
        assert_eq!(SimTime::from_us(12).to_string(), "12.000us");
        assert_eq!(SimTime::from_ms(12).to_string(), "12.000ms");
        assert_eq!(SimTime::from_ms(1200).to_string(), "1.200s");
    }

    #[test]
    fn sum_of_times() {
        let total: SimTime = [1u64, 2, 3].iter().map(|&u| SimTime::from_us(u)).sum();
        assert_eq!(total, SimTime::from_us(6));
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_us(1);
        let b = SimTime::from_us(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn checked_add_overflow() {
        assert!(SimTime::MAX.checked_add(SimTime::from_ns(1)).is_none());
        assert_eq!(
            SimTime::from_ns(1).checked_add(SimTime::from_ns(2)),
            Some(SimTime::from_ns(3))
        );
    }
}
