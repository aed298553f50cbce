//! Strongly-typed physical quantities.
//!
//! The Zhuyi model mixes distances, velocities, accelerations, latencies and
//! frame rates in a single search loop; newtypes keep those from being
//! accidentally interchanged ([C-NEWTYPE]). All quantities are `f64` in SI
//! units; conversions to the paper's mph / milliseconds are explicit.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Implements arithmetic shared by every scalar quantity newtype.
macro_rules! scalar_quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Returns the raw `f64` value in SI units.
            #[inline]
            pub fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Clamps to `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi` or either bound is NaN.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// `true` when the value is finite (not NaN or infinite).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.3} {}", self.0, $unit)
            }
        }
    };
}

scalar_quantity!(
    /// A duration or point in scenario time, in seconds.
    ///
    /// ```
    /// use av_core::units::Seconds;
    /// let latency = Seconds::from_millis(33.0);
    /// assert!((latency.value() - 0.033).abs() < 1e-12);
    /// ```
    Seconds,
    "s"
);

scalar_quantity!(
    /// A longitudinal distance in meters.
    ///
    /// ```
    /// use av_core::units::{Meters, MetersPerSecond, Seconds};
    /// let d: Meters = MetersPerSecond(10.0) * Seconds(2.0);
    /// assert_eq!(d, Meters(20.0));
    /// ```
    Meters,
    "m"
);

scalar_quantity!(
    /// A speed in meters per second.
    ///
    /// ```
    /// use av_core::units::{MetersPerSecond, Mph};
    /// let v = MetersPerSecond::from(Mph(70.0));
    /// assert!((v.value() - 31.2928).abs() < 1e-4);
    /// ```
    MetersPerSecond,
    "m/s"
);

scalar_quantity!(
    /// An acceleration in meters per second squared. Negative values
    /// decelerate.
    MetersPerSecondSquared,
    "m/s^2"
);

scalar_quantity!(
    /// An angle in radians. Positive is counter-clockwise in the world frame.
    Radians,
    "rad"
);

/// Conversion factor between miles per hour and meters per second.
const MPH_TO_MPS: f64 = 0.44704;

/// A speed in miles per hour, the unit Table 1 of the paper reports ego
/// speeds in.
///
/// ```
/// use av_core::units::{MetersPerSecond, Mph};
/// assert!((Mph::from(MetersPerSecond(31.2928)).value() - 70.0).abs() < 1e-9);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Mph(pub f64);

impl Mph {
    /// Returns the raw value in miles per hour.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }
}

impl From<Mph> for MetersPerSecond {
    #[inline]
    fn from(mph: Mph) -> Self {
        MetersPerSecond(mph.0 * MPH_TO_MPS)
    }
}

impl From<MetersPerSecond> for Mph {
    #[inline]
    fn from(mps: MetersPerSecond) -> Self {
        Mph(mps.0 / MPH_TO_MPS)
    }
}

impl fmt::Display for Mph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} mph", self.0)
    }
}

impl Seconds {
    /// Creates a duration from milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Seconds(ms / 1e3)
    }

    /// Returns the duration in milliseconds.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }
}

impl Radians {
    /// Creates an angle from degrees.
    #[inline]
    pub fn from_degrees(deg: f64) -> Self {
        Radians(deg.to_radians())
    }

    /// Returns the angle in degrees.
    #[inline]
    pub fn as_degrees(self) -> f64 {
        self.0.to_degrees()
    }

    /// Normalizes the angle to `(-pi, pi]`.
    #[inline]
    pub fn normalized(self) -> Self {
        // An angle already in range is returned as is. That is bit-identical
        // to the formula below: `%` of an |x| < tau is exact and returns x
        // (even -0.0), and neither correction applies. NaN fails the test.
        if self.0 > -std::f64::consts::PI && self.0 <= std::f64::consts::PI {
            return self;
        }
        let mut a = self.0 % std::f64::consts::TAU;
        if a <= -std::f64::consts::PI {
            a += std::f64::consts::TAU;
        } else if a > std::f64::consts::PI {
            a -= std::f64::consts::TAU;
        }
        Radians(a)
    }

    /// Sine of the angle.
    #[inline]
    pub fn sin(self) -> f64 {
        self.0.sin()
    }

    /// Cosine of the angle.
    #[inline]
    pub fn cos(self) -> f64 {
        self.0.cos()
    }
}

// Cross-unit arithmetic: only the physically meaningful combinations.

impl Mul<Seconds> for MetersPerSecond {
    type Output = Meters;
    #[inline]
    fn mul(self, rhs: Seconds) -> Meters {
        Meters(self.0 * rhs.0)
    }
}

impl Mul<MetersPerSecond> for Seconds {
    type Output = Meters;
    #[inline]
    fn mul(self, rhs: MetersPerSecond) -> Meters {
        Meters(self.0 * rhs.0)
    }
}

impl Mul<Seconds> for MetersPerSecondSquared {
    type Output = MetersPerSecond;
    #[inline]
    fn mul(self, rhs: Seconds) -> MetersPerSecond {
        MetersPerSecond(self.0 * rhs.0)
    }
}

impl Mul<MetersPerSecondSquared> for Seconds {
    type Output = MetersPerSecond;
    #[inline]
    fn mul(self, rhs: MetersPerSecondSquared) -> MetersPerSecond {
        MetersPerSecond(self.0 * rhs.0)
    }
}

impl Div<Seconds> for Meters {
    type Output = MetersPerSecond;
    #[inline]
    fn div(self, rhs: Seconds) -> MetersPerSecond {
        MetersPerSecond(self.0 / rhs.0)
    }
}

impl Div<MetersPerSecond> for Meters {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: MetersPerSecond) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

impl Div<Seconds> for MetersPerSecond {
    type Output = MetersPerSecondSquared;
    #[inline]
    fn div(self, rhs: Seconds) -> MetersPerSecondSquared {
        MetersPerSecondSquared(self.0 / rhs.0)
    }
}

impl Div<MetersPerSecondSquared> for MetersPerSecond {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: MetersPerSecondSquared) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

/// A sensor frame processing rate in frames per second.
///
/// The reciprocal of the maximum tolerable latency (paper Eq. 5). `Fpr`
/// intentionally does not implement general arithmetic: rates are derived
/// from latencies and compared, never integrated.
///
/// ```
/// use av_core::units::{Fpr, Seconds};
/// let rate = Fpr::from_latency(Seconds::from_millis(167.0));
/// assert!((rate.value() - 6.0).abs() < 0.05);
/// assert!(rate < Fpr(30.0));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Fpr(pub f64);

impl Fpr {
    /// The zero rate (no frames need processing).
    pub const ZERO: Self = Self(0.0);

    /// Converts a tolerable latency into the minimum processing rate,
    /// `FPR = 1 / l` (paper Eq. 5).
    ///
    /// A non-positive latency maps to `f64::INFINITY` (no achievable rate).
    #[inline]
    pub fn from_latency(latency: Seconds) -> Self {
        if latency.0 > 0.0 {
            Fpr(1.0 / latency.0)
        } else {
            Fpr(f64::INFINITY)
        }
    }

    /// The per-frame latency implied by this rate, `l = 1 / FPR`.
    ///
    /// A non-positive rate maps to `f64::INFINITY` seconds.
    #[inline]
    pub fn latency(self) -> Seconds {
        if self.0 > 0.0 {
            Seconds(1.0 / self.0)
        } else {
            Seconds(f64::INFINITY)
        }
    }

    /// Returns the raw value in frames per second.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Rounds up to the next whole frame rate, as a hardware scheduler
    /// would provision.
    #[inline]
    pub fn ceil(self) -> Self {
        Fpr(self.0.ceil())
    }

    /// Returns the larger of `self` and `other`.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        Fpr(self.0.max(other.0))
    }

    /// Returns the smaller of `self` and `other`.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        Fpr(self.0.min(other.0))
    }

    /// `true` when the value is finite (not NaN or infinite).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl Add for Fpr {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Fpr(self.0 + rhs.0)
    }
}

impl Sum for Fpr {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        Fpr(iter.map(|q| q.0).sum())
    }
}

impl fmt::Display for Fpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} FPR", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mph_round_trips_through_mps() {
        for v in [0.0, 20.0, 40.0, 60.0, 70.0] {
            let back = Mph::from(MetersPerSecond::from(Mph(v)));
            assert!((back.value() - v).abs() < 1e-9, "{v} mph");
        }
    }

    #[test]
    fn paper_speeds_convert_as_expected() {
        // Table 1 ego speeds: 20 mph ~ 8.94 m/s, 70 mph ~ 31.29 m/s.
        assert!((MetersPerSecond::from(Mph(20.0)).value() - 8.9408).abs() < 1e-4);
        assert!((MetersPerSecond::from(Mph(70.0)).value() - 31.2928).abs() < 1e-4);
    }

    #[test]
    fn kinematic_dimensional_analysis() {
        let v = MetersPerSecond(10.0);
        let t = Seconds(3.0);
        let a = MetersPerSecondSquared(2.0);
        assert_eq!(v * t, Meters(30.0));
        assert_eq!(a * t, MetersPerSecond(6.0));
        assert_eq!(Meters(30.0) / t, v);
        assert_eq!(Meters(30.0) / v, t);
        assert_eq!(v / a, Seconds(5.0));
        assert_eq!(v / MetersPerSecond(2.0), 5.0);
    }

    #[test]
    fn fpr_latency_reciprocity() {
        let l = Seconds::from_millis(100.0);
        let fpr = Fpr::from_latency(l);
        assert!((fpr.value() - 10.0).abs() < 1e-12);
        assert!((fpr.latency().value() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn fpr_degenerate_latency_is_infinite_rate() {
        assert!(!Fpr::from_latency(Seconds::ZERO).is_finite());
        assert!(!Fpr::from_latency(Seconds(-1.0)).is_finite());
        assert!(!Fpr::ZERO.latency().is_finite());
    }

    #[test]
    fn angle_normalization() {
        use std::f64::consts::PI;
        assert!((Radians(3.0 * PI).normalized().value() - PI).abs() < 1e-12);
        assert!((Radians(-3.0 * PI).normalized().value() - PI).abs() < 1e-12);
        assert!((Radians(0.5).normalized().value() - 0.5).abs() < 1e-12);
        assert!((Radians::from_degrees(120.0).as_degrees() - 120.0).abs() < 1e-12);
    }

    /// The in-range early return of [`Radians::normalized`] must answer
    /// every input bit for bit like the plain fmod formula.
    #[test]
    fn normalized_fast_path_matches_the_fmod_formula() {
        use std::f64::consts::{PI, TAU};
        fn fmod_formula(x: f64) -> f64 {
            let mut a = x % TAU;
            if a <= -PI {
                a += TAU;
            } else if a > PI {
                a -= TAU;
            }
            a
        }
        let ulp_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let ulp_down = |x: f64| f64::from_bits(x.to_bits() - 1);
        let mut inputs = vec![
            0.0,
            -0.0,
            PI,
            -PI,
            ulp_up(PI),
            ulp_down(PI),
            ulp_up(-PI),
            ulp_down(-PI),
            TAU,
            -TAU,
            ulp_down(TAU),
            ulp_down(-TAU),
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
        ];
        for k in [3.0, 1e3, 1e9, 1e15, 1e300] {
            inputs.extend([k * TAU, -k * TAU, k * TAU + 0.5, -k * TAU - 0.5]);
        }
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            inputs.push((x >> 11) as f64 / (1u64 << 53) as f64 * 8.0 * PI - 4.0 * PI);
        }
        for x in inputs {
            assert_eq!(
                Radians(x).normalized().value().to_bits(),
                fmod_formula(x).to_bits(),
                "x = {x:e}"
            );
        }
    }

    #[test]
    fn seconds_millis_round_trip() {
        let s = Seconds::from_millis(33.0);
        assert!((s.as_millis() - 33.0).abs() < 1e-12);
    }

    #[test]
    fn quantity_ordering_and_clamp() {
        assert!(Meters(1.0) < Meters(2.0));
        assert_eq!(Meters(5.0).clamp(Meters(0.0), Meters(3.0)), Meters(3.0));
        assert_eq!(Meters(-5.0).abs(), Meters(5.0));
        assert_eq!(Meters(1.0).max(Meters(2.0)), Meters(2.0));
        assert_eq!(Meters(1.0).min(Meters(2.0)), Meters(1.0));
    }

    #[test]
    fn sum_of_quantities() {
        let total: Meters = [Meters(1.0), Meters(2.0), Meters(3.0)].into_iter().sum();
        assert_eq!(total, Meters(6.0));
        let rate: Fpr = [Fpr(1.0), Fpr(2.0)].into_iter().sum();
        assert_eq!(rate, Fpr(3.0));
    }

    #[test]
    fn display_formats_contain_unit() {
        assert!(format!("{}", Meters(1.5)).contains('m'));
        assert!(format!("{}", Fpr(30.0)).contains("FPR"));
        assert!(format!("{}", Mph(70.0)).contains("mph"));
    }
}
