//! Virtual time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point (or span) of simulated time, in microseconds.
///
/// Microsecond resolution covers everything from per-block disk service
/// times up to the multi-year horizons of Figure 4/5 without overflow
/// (u64 micros ≈ 584,000 years).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    pub fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "negative or non-finite duration: {s}");
        SimTime((s * 1e6).round() as u64)
    }

    pub fn from_mins(m: u64) -> Self {
        Self::from_secs(m * 60)
    }

    pub fn from_hours(h: u64) -> Self {
        Self::from_secs(h * 3_600)
    }

    pub fn from_days(d: u64) -> Self {
        Self::from_secs(d * 86_400)
    }

    pub fn as_micros(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    pub fn as_mins_f64(self) -> f64 {
        self.as_secs_f64() / 60.0
    }

    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3_600.0
    }

    /// Saturating difference (spans are non-negative).
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    pub fn max(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.max(rhs.0))
    }

    pub fn min(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.min(rhs.0))
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
        assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    /// Human-scale rendering: picks the largest sensible unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s < 1e-3 {
            write!(f, "{}us", self.0)
        } else if s < 1.0 {
            write!(f, "{:.1}ms", s * 1e3)
        } else if s < 120.0 {
            write!(f, "{s:.1}s")
        } else if s < 7_200.0 {
            write!(f, "{:.1}min", s / 60.0)
        } else if s < 172_800.0 {
            write!(f, "{:.1}h", s / 3_600.0)
        } else {
            write!(f, "{:.1}d", s / 86_400.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(1).as_micros(), 1_000_000);
        assert_eq!(SimTime::from_mins(10), SimTime::from_secs(600));
        assert_eq!(SimTime::from_days(1).as_hours_f64(), 24.0);
        assert_eq!(SimTime::from_secs_f64(0.5), SimTime::from_millis(500));
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(5);
        let b = SimTime::from_secs(3);
        assert_eq!(a + b, SimTime::from_secs(8));
        assert_eq!(a - b, SimTime::from_secs(2));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn display_units() {
        assert_eq!(SimTime::from_micros(10).to_string(), "10us");
        assert_eq!(SimTime::from_secs(90).to_string(), "90.0s");
        assert_eq!(SimTime::from_mins(30).to_string(), "30.0min");
        assert_eq!(SimTime::from_hours(48).to_string(), "2.0d");
    }
}
