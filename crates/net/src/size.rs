//! Data sizes and rates.
//!
//! The paper reports decimal units (MB of data, Mbit/s of throughput), so
//! this module uses SI decimal multiples throughout: 1 MB = 10^6 bytes,
//! 1 Mbit = 10^6 bits.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A quantity of data, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DataSize(u64);

impl DataSize {
    /// Zero bytes.
    pub const ZERO: DataSize = DataSize(0);

    /// Construct from raw bytes.
    pub const fn from_bytes(b: u64) -> Self {
        DataSize(b)
    }

    /// Construct from kilobytes (10^3 bytes).
    pub const fn from_kb(kb: u64) -> Self {
        DataSize(kb * 1_000)
    }

    /// Construct from megabytes (10^6 bytes).
    pub const fn from_mb(mb: u64) -> Self {
        DataSize(mb * 1_000_000)
    }

    /// Construct from gigabytes (10^9 bytes).
    pub const fn from_gb(gb: u64) -> Self {
        DataSize(gb * 1_000_000_000)
    }

    /// Construct from fractional megabytes (e.g. the paper's 10.7 MB
    /// dataset). Negative inputs clamp to zero.
    pub fn from_mb_f64(mb: f64) -> Self {
        if mb <= 0.0 || mb.is_nan() {
            DataSize::ZERO
        } else {
            DataSize((mb * 1e6).round() as u64)
        }
    }

    /// Raw bytes.
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// Megabytes as a float.
    pub fn as_mb_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Megabits as a float (8 bits per byte).
    pub fn as_megabits_f64(self) -> f64 {
        self.0 as f64 * 8.0 / 1e6
    }

    /// True if zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: DataSize) -> DataSize {
        DataSize(self.0.saturating_sub(other.0))
    }

    /// The smaller of two sizes.
    pub fn min(self, other: DataSize) -> DataSize {
        DataSize(self.0.min(other.0))
    }
}

impl Add for DataSize {
    type Output = DataSize;
    fn add(self, rhs: DataSize) -> DataSize {
        DataSize(self.0.checked_add(rhs.0).expect("DataSize overflow"))
    }
}

impl AddAssign for DataSize {
    fn add_assign(&mut self, rhs: DataSize) {
        *self = *self + rhs;
    }
}

impl Sub for DataSize {
    type Output = DataSize;
    fn sub(self, rhs: DataSize) -> DataSize {
        DataSize(self.0.checked_sub(rhs.0).expect("DataSize underflow"))
    }
}

impl fmt::Display for DataSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if b < 1e3 {
            write!(f, "{}B", self.0)
        } else if b < 1e6 {
            write!(f, "{:.1}KB", b / 1e3)
        } else if b < 1e9 {
            write!(f, "{:.1}MB", b / 1e6)
        } else {
            write!(f, "{:.2}GB", b / 1e9)
        }
    }
}

/// A data rate in megabits per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Rate(f64);

impl Rate {
    /// Zero throughput.
    pub const ZERO: Rate = Rate(0.0);

    /// Construct from Mbit/s. Negative and non-finite inputs clamp to zero.
    pub fn from_mbps(mbps: f64) -> Self {
        if mbps.is_finite() && mbps > 0.0 {
            Rate(mbps)
        } else {
            Rate(0.0)
        }
    }

    /// The rate in Mbit/s.
    pub fn as_mbps(self) -> f64 {
        self.0
    }

    /// Time to move `size` at this rate, in seconds. An idle (zero) rate
    /// returns infinity.
    pub fn seconds_for(self, size: DataSize) -> f64 {
        if self.0 <= 0.0 {
            f64::INFINITY
        } else {
            size.as_megabits_f64() / self.0
        }
    }

    /// Data moved in `seconds` at this rate.
    pub fn data_in_seconds(self, seconds: f64) -> DataSize {
        if self.0 <= 0.0 || seconds <= 0.0 {
            DataSize::ZERO
        } else {
            DataSize::from_bytes((self.0 * seconds * 1e6 / 8.0) as u64)
        }
    }

    /// Scale the rate by a non-negative factor.
    pub fn scaled(self, factor: f64) -> Rate {
        Rate::from_mbps(self.0 * factor)
    }

    /// The smaller of two rates.
    pub fn min(self, other: Rate) -> Rate {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}Mbit/s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_constructors() {
        assert_eq!(DataSize::from_kb(2).as_bytes(), 2_000);
        assert_eq!(DataSize::from_mb(3).as_bytes(), 3_000_000);
        assert_eq!(DataSize::from_gb(1).as_bytes(), 1_000_000_000);
        assert_eq!(DataSize::from_mb_f64(10.7).as_bytes(), 10_700_000);
        assert_eq!(DataSize::from_mb_f64(-1.0), DataSize::ZERO);
    }

    #[test]
    fn size_conversions() {
        let s = DataSize::from_mb(5);
        assert_eq!(s.as_mb_f64(), 5.0);
        assert_eq!(s.as_megabits_f64(), 40.0);
    }

    #[test]
    fn size_arithmetic() {
        let a = DataSize::from_mb(3);
        let b = DataSize::from_mb(1);
        assert_eq!(a + b, DataSize::from_mb(4));
        assert_eq!(a - b, DataSize::from_mb(2));
        assert_eq!(b.saturating_sub(a), DataSize::ZERO);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn size_display() {
        assert_eq!(DataSize::from_bytes(512).to_string(), "512B");
        assert_eq!(DataSize::from_kb(10).to_string(), "10.0KB");
        assert_eq!(DataSize::from_mb_f64(10.7).to_string(), "10.7MB");
        assert_eq!(DataSize::from_gb(2).to_string(), "2.00GB");
    }

    #[test]
    fn rate_seconds_for() {
        let r = Rate::from_mbps(8.0);
        // 1 MB = 8 Mbit at 8 Mbit/s = 1 second.
        assert!((r.seconds_for(DataSize::from_mb(1)) - 1.0).abs() < 1e-12);
        assert_eq!(Rate::ZERO.seconds_for(DataSize::from_mb(1)), f64::INFINITY);
    }

    #[test]
    fn rate_data_in_seconds_round_trips() {
        let r = Rate::from_mbps(37.0);
        let moved = r.data_in_seconds(10.0);
        assert!((moved.as_megabits_f64() - 370.0).abs() < 1e-6);
        assert_eq!(r.data_in_seconds(-1.0), DataSize::ZERO);
    }

    #[test]
    fn rate_clamping_and_ops() {
        assert_eq!(Rate::from_mbps(-3.0).as_mbps(), 0.0);
        assert_eq!(Rate::from_mbps(f64::NAN).as_mbps(), 0.0);
        assert_eq!(Rate::from_mbps(10.0).scaled(0.5).as_mbps(), 5.0);
        assert_eq!(
            Rate::from_mbps(10.0).min(Rate::from_mbps(4.0)).as_mbps(),
            4.0
        );
    }
}
