//! Nanosecond-resolution simulated time.
//!
//! [`SimTime`] is an *instant* (nanoseconds since simulation start) and
//! [`Dur`] is a *duration*. Both wrap `u64`, so a simulation can span
//! ~584 years — far beyond any training run. Separate types keep
//! instant/duration arithmetic honest (`SimTime + Dur = SimTime`,
//! `SimTime - SimTime = Dur`).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(u64);

pub const NANOS_PER_MICRO: u64 = 1_000;
pub const NANOS_PER_MILLI: u64 = 1_000_000;
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * NANOS_PER_MICRO)
    }
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * NANOS_PER_MILLI)
    }
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }
    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0 && s.is_finite(), "invalid time {s}");
        SimTime((s * NANOS_PER_SEC as f64).round() as u64)
    }
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MICRO as f64
    }
    /// Duration since an earlier instant; saturates to zero if `earlier`
    /// is in the future.
    pub fn since(self, earlier: SimTime) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
    pub fn checked_add(self, d: Dur) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Dur {
    pub const ZERO: Dur = Dur(0);
    pub const MAX: Dur = Dur(u64::MAX);

    pub const fn from_nanos(ns: u64) -> Self {
        Dur(ns)
    }
    pub const fn from_micros(us: u64) -> Self {
        Dur(us * NANOS_PER_MICRO)
    }
    pub const fn from_millis(ms: u64) -> Self {
        Dur(ms * NANOS_PER_MILLI)
    }
    pub const fn from_secs(s: u64) -> Self {
        Dur(s * NANOS_PER_SEC)
    }
    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0 && s.is_finite(), "invalid duration {s}");
        Dur((s * NANOS_PER_SEC as f64).round() as u64)
    }
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MICRO as f64
    }
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }
    pub fn min(self, other: Dur) -> Dur {
        Dur(self.0.min(other.0))
    }
    pub fn max(self, other: Dur) -> Dur {
        Dur(self.0.max(other.0))
    }
    /// The time to move `bytes` at `bytes_per_sec`; rounds up to ≥ 1 ns for
    /// any nonzero amount so progress events never stall at the same instant.
    pub fn for_bytes(bytes: f64, bytes_per_sec: f64) -> Dur {
        debug_assert!(bytes >= 0.0 && bytes_per_sec > 0.0);
        if bytes == 0.0 {
            return Dur::ZERO;
        }
        let ns = (bytes / bytes_per_sec * NANOS_PER_SEC as f64).ceil();
        Dur((ns as u64).max(1))
    }
}

impl Add<Dur> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Dur) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime overflow: instant + duration exceeds u64 nanoseconds"),
        )
    }
}
impl AddAssign<Dur> for SimTime {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}
impl Sub<SimTime> for SimTime {
    type Output = Dur;
    fn sub(self, rhs: SimTime) -> Dur {
        Dur(self
            .0
            .checked_sub(rhs.0)
            .expect("SimTime underflow: subtracting a later instant"))
    }
}
impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.checked_add(rhs.0).expect("Dur overflow"))
    }
}
impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}
impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.checked_sub(rhs.0).expect("Dur underflow"))
    }
}
impl SubAssign for Dur {
    fn sub_assign(&mut self, rhs: Dur) {
        *self = *self - rhs;
    }
}
impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0.checked_mul(rhs).expect("Dur overflow"))
    }
}
impl Mul<f64> for Dur {
    type Output = Dur;
    fn mul(self, rhs: f64) -> Dur {
        debug_assert!(rhs >= 0.0 && rhs.is_finite());
        Dur((self.0 as f64 * rhs).round() as u64)
    }
}
impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Dur(self.0))
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= NANOS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= NANOS_PER_MILLI {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= NANOS_PER_MICRO {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimTime::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert!((Dur::from_secs_f64(0.25).as_secs_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn instant_duration_arithmetic() {
        let t = SimTime::from_micros(10);
        let d = Dur::from_micros(4);
        assert_eq!(t + d, SimTime::from_micros(14));
        assert_eq!((t + d) - t, d);
        assert_eq!(t.since(t + d), Dur::ZERO, "since saturates");
    }

    #[test]
    fn duration_scaling() {
        let d = Dur::from_micros(10);
        assert_eq!(d * 3u64, Dur::from_micros(30));
        assert_eq!(d * 0.5, Dur::from_micros(5));
        assert_eq!(d / 2, Dur::from_micros(5));
    }

    #[test]
    fn for_bytes_rounds_up_and_handles_zero() {
        assert_eq!(Dur::for_bytes(0.0, 1e9), Dur::ZERO);
        // 1 GB at 1 GB/s = 1 s.
        assert_eq!(Dur::for_bytes(1e9, 1e9), Dur::from_secs(1));
        // Tiny transfer still takes at least a nanosecond.
        assert_eq!(Dur::for_bytes(1.0, 1e30), Dur::from_nanos(1));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn instant_subtraction_panics_on_negative() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", Dur::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", Dur::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", Dur::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", Dur::from_secs(12)), "12.000s");
    }

    #[test]
    fn min_max_helpers() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(Dur::from_nanos(5).min(Dur::from_nanos(9)), Dur::from_nanos(5));
        assert_eq!(Dur::from_nanos(5).max(Dur::from_nanos(9)), Dur::from_nanos(9));
    }
}
