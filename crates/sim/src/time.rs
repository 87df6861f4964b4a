//! Virtual time.
//!
//! Simulation time is measured in whole microseconds, which comfortably
//! resolves 802.11 slot times (20 µs) and DIFS (50 µs) while keeping
//! arithmetic exact (no floating-point drift in the event queue).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant of virtual time, measured in microseconds from the start of
/// the simulation.
///
/// `SimTime` is an *instant*; the span between two instants is a
/// [`SimDuration`]. The two types cannot be mixed accidentally.
///
/// # Examples
///
/// ```
/// use pqs_sim::{SimTime, SimDuration};
/// let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
/// assert_eq!(t.as_micros(), 1_500_000);
/// assert_eq!(t - SimTime::from_secs(1), SimDuration::from_millis(500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, measured in microseconds.
///
/// # Examples
///
/// ```
/// use pqs_sim::SimDuration;
/// assert_eq!(SimDuration::from_millis(2) * 3, SimDuration::from_micros(6_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `micros` microseconds after the simulation start.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after the simulation start.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant `secs` seconds after the simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Creates an instant from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid time: {secs}");
        SimTime((secs * 1e6).round() as u64)
    }

    /// Returns the number of whole microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration elapsed since `earlier`, or zero if `earlier`
    /// is later than `self`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration: {secs}");
        SimDuration((secs * 1e6).round() as u64)
    }

    /// Returns the number of whole microseconds in this duration.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns `true` if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Returns the span from `rhs` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self` (virtual time
    /// never flows backwards; such a subtraction is a logic error).
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self >= rhs, "time went backwards: {self} - {rhs}");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
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
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_micros(3).as_micros(), 3);
        assert_eq!(SimTime::from_secs_f64(1.5).as_secs_f64(), 1.5);
        assert_eq!(SimDuration::from_secs_f64(0.25).as_micros(), 250_000);
    }

    #[test]
    fn instant_plus_duration() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(250);
        assert_eq!(t.as_micros(), 1_250_000);
        assert_eq!(t - SimTime::from_secs(1), SimDuration::from_millis(250));
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d * 3, SimDuration::from_millis(30));
        assert_eq!(d / 2, SimDuration::from_millis(5));
        assert_eq!(d + d, SimDuration::from_millis(20));
        assert_eq!(d - SimDuration::from_millis(4), SimDuration::from_millis(6));
    }

    #[test]
    fn saturating_behaviour() {
        let small = SimTime::from_secs(1);
        let big = SimTime::from_secs(2);
        assert_eq!(small.saturating_since(big), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs(1) - SimDuration::from_secs(2),
            SimDuration::ZERO
        );
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert!(SimDuration::from_micros(999) < SimDuration::from_millis(1));
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
        assert_eq!(SimDuration::from_micros(7).to_string(), "0.000007s");
    }

    #[test]
    #[should_panic(expected = "invalid time")]
    fn negative_seconds_rejected() {
        let _ = SimTime::from_secs_f64(-1.0);
    }
}
