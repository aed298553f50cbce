//! Planar geometry: vectors and oriented rectangles.
//!
//! The paper works in a 2-D top view (Fig. 2a): `X` longitudinal, `Y`
//! lateral. Vehicles are oriented rectangles for collision checking.

use crate::units::{Meters, Radians};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 2-D vector / point in the world frame, in meters.
///
/// ```
/// use av_core::geometry::Vec2;
/// let v = Vec2::new(3.0, 4.0);
/// assert_eq!(v.norm(), 5.0);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Vec2 {
    /// Longitudinal world coordinate (meters).
    pub x: f64,
    /// Lateral world coordinate (meters).
    pub y: f64,
}

impl Vec2 {
    /// The origin.
    pub const ZERO: Self = Self { x: 0.0, y: 0.0 };

    /// Creates a vector from components in meters.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Unit vector pointing along `heading` (0 rad = +X, counter-clockwise).
    #[inline]
    pub fn from_heading(heading: Radians) -> Self {
        Self::new(heading.cos(), heading.sin())
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Self) -> f64 {
        self.x * rhs.x + self.y * rhs.y
    }

    /// Z-component of the cross product (signed parallelogram area).
    #[inline]
    pub fn cross(self, rhs: Self) -> f64 {
        self.x * rhs.y - self.y * rhs.x
    }

    /// Euclidean length.
    #[inline]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared Euclidean length (avoids the square root).
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// The vector rotated by `angle` counter-clockwise.
    #[inline]
    pub fn rotated(self, angle: Radians) -> Self {
        let (s, c) = (angle.sin(), angle.cos());
        Self::new(self.x * c - self.y * s, self.x * s + self.y * c)
    }

    /// The perpendicular vector (rotated +90 degrees).
    #[inline]
    pub fn perp(self) -> Self {
        Self::new(-self.y, self.x)
    }

    /// The unit vector in the same direction, or `None` for (near-)zero
    /// vectors.
    #[inline]
    pub fn normalized(self) -> Option<Self> {
        let n = self.norm();
        if n < 1e-12 {
            None
        } else {
            Some(self / n)
        }
    }

    /// The heading angle of this vector, `atan2(y, x)`.
    #[inline]
    pub fn heading(self) -> Radians {
        Radians(self.y.atan2(self.x))
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Self, t: f64) -> Self {
        self + (other - self) * t
    }
}

impl Add for Vec2 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Vec2 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Neg for Vec2 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.x, -self.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        Self::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: Vec2) -> Vec2 {
        rhs * self
    }
}

impl Div<f64> for Vec2 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Self::new(self.x / rhs, self.y / rhs)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2}) m", self.x, self.y)
    }
}

/// An oriented rectangle (vehicle footprint) for collision checking.
///
/// ```
/// use av_core::geometry::{OrientedRect, Vec2};
/// use av_core::units::{Meters, Radians};
/// let a = OrientedRect::new(Vec2::ZERO, Radians(0.0), Meters(4.5), Meters(1.8));
/// let b = OrientedRect::new(Vec2::new(4.0, 0.0), Radians(0.0), Meters(4.5), Meters(1.8));
/// assert!(a.intersects(&b)); // bumper overlap
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OrientedRect {
    center: Vec2,
    heading: Radians,
    half_length: f64,
    half_width: f64,
}

impl OrientedRect {
    /// Creates a rectangle centered at `center`, with its long axis along
    /// `heading`.
    ///
    /// # Panics
    ///
    /// Panics if `length` or `width` is negative or non-finite.
    pub fn new(center: Vec2, heading: Radians, length: Meters, width: Meters) -> Self {
        assert!(
            length.value() >= 0.0 && length.is_finite(),
            "rectangle length must be finite and non-negative, got {length}"
        );
        assert!(
            width.value() >= 0.0 && width.is_finite(),
            "rectangle width must be finite and non-negative, got {width}"
        );
        Self {
            center,
            heading,
            half_length: length.value() / 2.0,
            half_width: width.value() / 2.0,
        }
    }

    /// The rectangle's center.
    #[inline]
    pub fn center(&self) -> Vec2 {
        self.center
    }

    /// The rectangle's heading.
    #[inline]
    pub fn heading(&self) -> Radians {
        self.heading
    }

    /// The four corners, counter-clockwise.
    pub fn corners(&self) -> [Vec2; 4] {
        self.corners_along(Vec2::from_heading(self.heading))
    }

    /// The corners given the precomputed long-axis direction (lets callers
    /// that already evaluated the heading's sin/cos reuse it).
    fn corners_along(&self, axis: Vec2) -> [Vec2; 4] {
        let side = axis.perp();
        let l = axis * self.half_length;
        let w = side * self.half_width;
        [
            self.center + l + w,
            self.center - l + w,
            self.center - l - w,
            self.center + l - w,
        ]
    }

    /// Separating-axis overlap test between two oriented rectangles.
    pub fn intersects(&self, other: &Self) -> bool {
        let axis_a = Vec2::from_heading(self.heading);
        let axis_b = Vec2::from_heading(other.heading);
        let a = self.corners_along(axis_a);
        let b = other.corners_along(axis_b);
        let axes = [axis_a, axis_a.perp(), axis_b, axis_b.perp()];
        for axis in axes {
            let (amin, amax) = project(&a, axis);
            let (bmin, bmax) = project(&b, axis);
            if amax < bmin || bmax < amin {
                return false;
            }
        }
        true
    }

    /// `true` when `point` lies inside (or on the boundary of) the rectangle.
    pub fn contains(&self, point: Vec2) -> bool {
        let rel = (point - self.center).rotated(-self.heading);
        rel.x.abs() <= self.half_length && rel.y.abs() <= self.half_width
    }

    /// `true` when the segment `a`-`b` touches the rectangle — the
    /// line-of-sight test behind the perception occlusion model.
    pub fn intersects_segment(&self, a: Vec2, b: Vec2) -> bool {
        self.prepared().intersects_segment(a, b)
    }

    /// Precomputes the local-frame rotation terms, so callers that test
    /// many segments against the same rectangle (the per-tick occlusion
    /// sweep) pay the sin/cos once instead of per test.
    pub fn prepared(&self) -> PreparedRect {
        let angle = -self.heading;
        PreparedRect {
            center: self.center,
            half_length: self.half_length,
            half_width: self.half_width,
            sin: angle.sin(),
            cos: angle.cos(),
        }
    }
}

/// An [`OrientedRect`] with its local-frame rotation precomputed (see
/// [`OrientedRect::prepared`]); its segment test is bit-identical to
/// [`OrientedRect::intersects_segment`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedRect {
    center: Vec2,
    half_length: f64,
    half_width: f64,
    sin: f64,
    cos: f64,
}

impl PreparedRect {
    /// `true` when the segment `a`-`b` touches the rectangle — the same
    /// segment/AABB slab test as [`OrientedRect::intersects_segment`],
    /// with the rotation terms read from the cache.
    pub fn intersects_segment(&self, a: Vec2, b: Vec2) -> bool {
        let (s, c) = (self.sin, self.cos);
        let rot = |v: Vec2| Vec2::new(v.x * c - v.y * s, v.x * s + v.y * c);
        let la = rot(a - self.center);
        let lb = rot(b - self.center);
        let d = lb - la;
        let mut t0 = 0.0_f64;
        let mut t1 = 1.0_f64;
        for (origin, dir, half) in [(la.x, d.x, self.half_length), (la.y, d.y, self.half_width)] {
            if dir.abs() < 1e-12 {
                if origin.abs() > half {
                    return false;
                }
                continue;
            }
            let inv = 1.0 / dir;
            let mut near = (-half - origin) * inv;
            let mut far = (half - origin) * inv;
            if near > far {
                std::mem::swap(&mut near, &mut far);
            }
            t0 = t0.max(near);
            t1 = t1.min(far);
            if t0 > t1 {
                return false;
            }
        }
        true
    }
}

fn project(corners: &[Vec2; 4], axis: Vec2) -> (f64, f64) {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for c in corners {
        let p = c.dot(axis);
        min = min.min(p);
        max = max.max(p);
    }
    (min, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    fn car(center: Vec2, heading: f64) -> OrientedRect {
        OrientedRect::new(center, Radians(heading), Meters(4.5), Meters(1.8))
    }

    #[test]
    fn vector_algebra() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
        assert_eq!(a.dot(b), 1.0);
        assert_eq!(a.cross(b), -7.0);
    }

    #[test]
    fn rotation_is_ccw() {
        let v = Vec2::new(1.0, 0.0).rotated(Radians(FRAC_PI_2));
        assert!((v.x).abs() < 1e-12 && (v.y - 1.0).abs() < 1e-12);
        assert_eq!(Vec2::new(1.0, 0.0).perp(), Vec2::new(0.0, 1.0));
    }

    #[test]
    fn normalized_rejects_zero() {
        assert!(Vec2::ZERO.normalized().is_none());
        let n = Vec2::new(3.0, 4.0).normalized().expect("nonzero");
        assert!((n.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(10.0, -4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec2::new(5.0, -2.0));
    }

    #[test]
    fn aligned_rectangles_overlap_and_separate() {
        let a = car(Vec2::ZERO, 0.0);
        // Longitudinal gap: centers 5m apart, lengths 4.5m -> 0.5m gap.
        assert!(!a.intersects(&car(Vec2::new(5.0, 0.0), 0.0)));
        // Centers 4m apart -> 0.5m overlap.
        assert!(a.intersects(&car(Vec2::new(4.0, 0.0), 0.0)));
        // Adjacent lane (3.7m lateral): widths 1.8m -> no overlap.
        assert!(!a.intersects(&car(Vec2::new(0.0, 3.7), 0.0)));
    }

    #[test]
    fn rotated_rectangle_overlap() {
        let a = car(Vec2::ZERO, 0.0);
        // A crossing car rotated 90 degrees whose nose pokes into `a`.
        let b = car(Vec2::new(0.0, 2.0), FRAC_PI_2);
        assert!(a.intersects(&b));
        // Same crossing car far enough to the side.
        let c = car(Vec2::new(0.0, 3.3), FRAC_PI_2);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn intersects_is_symmetric() {
        let a = car(Vec2::ZERO, 0.2);
        let b = car(Vec2::new(3.0, 1.0), -0.4);
        assert_eq!(a.intersects(&b), b.intersects(&a));
    }

    #[test]
    fn contains_respects_orientation() {
        let r = car(Vec2::ZERO, FRAC_PI_2); // long axis along +Y
        assert!(r.contains(Vec2::new(0.0, 2.0)));
        assert!(!r.contains(Vec2::new(2.0, 0.0)));
    }

    #[test]
    #[should_panic(expected = "length")]
    fn negative_length_panics() {
        let _ = OrientedRect::new(Vec2::ZERO, Radians(0.0), Meters(-1.0), Meters(1.0));
    }

    #[test]
    fn segment_through_rectangle_intersects() {
        let r = car(Vec2::new(10.0, 0.0), 0.0);
        // Ray passing straight through.
        assert!(r.intersects_segment(Vec2::ZERO, Vec2::new(30.0, 0.0)));
        // Ray passing beside it.
        assert!(!r.intersects_segment(Vec2::new(0.0, 3.0), Vec2::new(30.0, 3.0)));
        // Segment ending before the rectangle.
        assert!(!r.intersects_segment(Vec2::ZERO, Vec2::new(5.0, 0.0)));
        // Segment fully inside.
        assert!(r.intersects_segment(Vec2::new(9.5, 0.0), Vec2::new(10.5, 0.2)));
    }

    #[test]
    fn segment_hits_rotated_rectangle() {
        let r = car(Vec2::new(10.0, 0.0), FRAC_PI_2);
        // The rotated car spans y in [-2.25, 2.25], x in [9.1, 10.9].
        assert!(r.intersects_segment(Vec2::new(0.0, 2.0), Vec2::new(20.0, 2.0)));
        assert!(!r.intersects_segment(Vec2::new(0.0, 2.5), Vec2::new(20.0, 2.5)));
    }

    #[test]
    fn degenerate_segment_is_point_test() {
        let r = car(Vec2::new(10.0, 0.0), 0.0);
        assert!(r.intersects_segment(Vec2::new(10.0, 0.0), Vec2::new(10.0, 0.0)));
        assert!(!r.intersects_segment(Vec2::new(0.0, 0.0), Vec2::new(0.0, 0.0)));
    }
}
