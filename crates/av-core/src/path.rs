//! Arc-length-parameterized paths and Frenet (road) coordinates.
//!
//! The *Challenging cut-in on a curved road* scenario (paper Fig. 5) needs a
//! road frame in which "longitudinal" follows the lane: a [`Path`] is a
//! polyline centerline; [`FrenetPose`] is the (arc length `s`, signed lateral
//! offset `d`) coordinate pair relative to it. Lateral offset is positive to
//! the left of the direction of travel.

use crate::geometry::Vec2;
use crate::units::{Meters, Radians};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error constructing a [`Path`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// A path needs at least two distinct points.
    TooFewPoints,
    /// Two consecutive points coincide, so the tangent is undefined there.
    DegenerateSegment {
        /// Index of the first point of the zero-length segment.
        index: usize,
    },
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::TooFewPoints => write!(f, "path needs at least two points"),
            PathError::DegenerateSegment { index } => {
                write!(f, "zero-length path segment at point {index}")
            }
        }
    }
}

impl std::error::Error for PathError {}

/// A position expressed in a path's Frenet frame.
///
/// `s` is the arc length along the path; `d` the signed lateral offset
/// (positive left).
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrenetPose {
    /// Arc length along the path from its start.
    pub s: Meters,
    /// Signed lateral offset; positive to the left of travel.
    pub d: Meters,
}

impl FrenetPose {
    /// Creates a Frenet pose.
    #[inline]
    pub const fn new(s: Meters, d: Meters) -> Self {
        Self { s, d }
    }
}

/// A pose on a path: world position plus tangent heading.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathPose {
    /// World-frame position.
    pub position: Vec2,
    /// Tangent direction of the path at this point.
    pub heading: Radians,
}

/// A full road frame on a path: pose plus the left normal, all terms
/// precomputed at path construction (no trig per query).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathFrame {
    /// World-frame position.
    pub position: Vec2,
    /// Tangent direction of the path at this point.
    pub heading: Radians,
    /// Unit normal pointing left of the direction of travel.
    pub left: Vec2,
}

/// Circle parameters remembered by [`Path::arc`] so projection can jump
/// straight to the right neighborhood instead of scanning the polyline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ArcIndex {
    /// Circle center.
    center: Vec2,
    /// Unsigned circle radius.
    radius: f64,
    /// Azimuth of the first vertex around the center.
    start_angle: f64,
    /// Signed angle swept per polyline segment (positive = CCW).
    seg_angle: f64,
    /// Longest segment chord (certification margin: any point of a
    /// segment lies within this of both its endpoints).
    max_seg: f64,
    /// The constants of [`Path::lateral_bounds`]; `None` when its proof
    /// does not cover the arc.
    bounds: Option<ArcBounds>,
}

/// The constants of [`Path::lateral_bounds`] for one arc.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct ArcBounds {
    /// Unit vector from the center toward the middle of the sweep.
    mid_dir: Vec2,
    /// Cosine of half the sweep: a direction from the center lies inside
    /// the sweep when its cosine against `mid_dir` exceeds this.
    cos_half_sweep: f64,
    /// Half-width of the certified interval: `max_seg²/(4·radius)` plus
    /// 1e-6 m for rounding.
    tol: f64,
}

/// The coordinate range, in meters, inside which the rounding slack of
/// [`Path::lateral_bounds`] is justified: the query point, the arc's
/// center and its radius must stay within it.
const BOUNDS_RANGE: f64 = 1e6;

fn within_bounds_range(p: Vec2) -> bool {
    p.x.abs() <= BOUNDS_RANGE && p.y.abs() <= BOUNDS_RANGE
}

/// A caller-owned memo of the last winning projection segment, exploiting
/// temporal coherence: a tracked vehicle moves a fraction of a segment per
/// tick, so last tick's winner tightly bounds this tick's search.
///
/// [`Path::project_with_hint`] reads the hint to seed its pruning bound
/// and rewrites it with the new winner. The hint **never** changes the
/// answer — a stale or wrong hint (even one from a different path) only
/// widens the certified search window; the returned pose is bit-identical
/// to [`Path::project`] for every input. `Default` is the empty hint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProjectionHint {
    /// Last winning segment index, if any (`u32::MAX` is never produced).
    seg: Option<u32>,
}

/// An arc-length-parameterized polyline used as a road centerline or a lane
/// centerline.
///
/// Queries beyond either end extrapolate along the end tangents, so
/// simulations that overrun the sampled geometry degrade gracefully instead
/// of panicking.
///
/// ```
/// use av_core::geometry::Vec2;
/// use av_core::path::Path;
/// use av_core::units::{Meters, Radians};
///
/// # fn main() -> Result<(), av_core::path::PathError> {
/// let road = Path::straight(Vec2::ZERO, Radians(0.0), Meters(500.0));
/// let f = road.project(Vec2::new(120.0, 1.85));
/// assert!((f.s.value() - 120.0).abs() < 1e-9);
/// assert!((f.d.value() - 1.85).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Path {
    points: Vec<Vec2>,
    /// Cumulative arc length at each point; `cum_s[0] == 0`.
    cum_s: Vec<f64>,
    /// Per-segment unit tangents, precomputed at construction so the
    /// per-tick pose queries pay no `hypot`/`atan2`.
    seg_unit: Vec<Vec2>,
    /// Per-segment tangent headings (`atan2` evaluated once, here).
    seg_heading: Vec<Radians>,
    /// Per-segment left normals, `from_heading(heading).perp()` evaluated
    /// once so Frenet-to-world conversions pay no trig per call.
    seg_left: Vec<Vec2>,
    /// Set when the polyline samples a circular arc; accelerates
    /// projection from O(segments) to a short certified walk.
    arc: Option<ArcIndex>,
}

impl Path {
    /// Builds a path from a polyline. A generic polyline carries no
    /// index: [`Path::project`] answers it by the exhaustive segment scan,
    /// O(segments) per query.
    ///
    /// # Errors
    ///
    /// Returns [`PathError::TooFewPoints`] for fewer than two points and
    /// [`PathError::DegenerateSegment`] if consecutive points coincide.
    pub fn from_points(points: Vec<Vec2>) -> Result<Self, PathError> {
        if points.len() < 2 {
            return Err(PathError::TooFewPoints);
        }
        let mut cum_s = Vec::with_capacity(points.len());
        let mut seg_unit = Vec::with_capacity(points.len() - 1);
        let mut seg_heading = Vec::with_capacity(points.len() - 1);
        let mut seg_left = Vec::with_capacity(points.len() - 1);
        cum_s.push(0.0);
        for i in 1..points.len() {
            let dir = points[i] - points[i - 1];
            let seg = dir.norm();
            if seg < 1e-9 {
                return Err(PathError::DegenerateSegment { index: i - 1 });
            }
            cum_s.push(cum_s[i - 1] + seg);
            let heading = dir.heading();
            seg_unit.push(dir / seg);
            seg_heading.push(heading);
            seg_left.push(Vec2::from_heading(heading).perp());
        }
        Ok(Self {
            points,
            cum_s,
            seg_unit,
            seg_heading,
            seg_left,
            arc: None,
        })
    }

    /// A straight path starting at `origin` along `heading`.
    ///
    /// # Panics
    ///
    /// Panics if `length` is not strictly positive and finite.
    pub fn straight(origin: Vec2, heading: Radians, length: Meters) -> Self {
        assert!(
            length.value() > 0.0 && length.is_finite(),
            "straight path length must be positive and finite, got {length}"
        );
        let end = origin + Vec2::from_heading(heading) * length.value();
        Self::from_points(vec![origin, end]).expect("two distinct points")
    }

    /// A circular arc starting at `origin` with initial tangent `heading`.
    ///
    /// `radius` is signed: positive curves left, negative curves right.
    /// The arc is sampled every `step` meters of arc length.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is zero/non-finite, or `arc_length`/`step` are not
    /// strictly positive and finite, or the arc would overlap itself:
    /// `arc_length` must stay under one full turn, `2π·|radius|`.
    pub fn arc(
        origin: Vec2,
        heading: Radians,
        radius: Meters,
        arc_length: Meters,
        step: Meters,
    ) -> Self {
        assert!(
            radius.value() != 0.0 && radius.is_finite(),
            "arc radius must be nonzero and finite, got {radius}"
        );
        assert!(
            arc_length.value() > 0.0 && arc_length.is_finite(),
            "arc length must be positive and finite, got {arc_length}"
        );
        assert!(
            step.value() > 0.0 && step.is_finite(),
            "arc sampling step must be positive and finite, got {step}"
        );
        let r = radius.value();
        assert!(
            arc_length.value() < std::f64::consts::TAU * r.abs(),
            "arc length {arc_length} reaches a full turn of radius {radius}; \
             an arc may not overlap itself"
        );
        // Center is perpendicular-left of the tangent for r > 0.
        let center = origin + Vec2::from_heading(heading).perp() * r;
        let start_angle = (origin - center).heading();
        let n = (arc_length.value() / step.value()).ceil().max(1.0) as usize;
        let mut points = Vec::with_capacity(n + 1);
        for i in 0..=n {
            let s = arc_length.value() * (i as f64) / (n as f64);
            let dtheta = s / r; // signed; negative r sweeps clockwise
            let angle = Radians(start_angle.value() + dtheta);
            points.push(center + Vec2::from_heading(angle) * r.abs());
        }
        let mut path = Self::from_points(points).expect("arc samples are distinct");
        let max_seg = (1..=n)
            .map(|i| path.cum_s[i] - path.cum_s[i - 1])
            .fold(0.0f64, f64::max);
        let seg_angle = arc_length.value() / (n as f64) / r;
        let half_sweep = 0.5 * arc_length.value() / r; // signed
        let bounds = (seg_angle.abs() < std::f64::consts::FRAC_PI_2
            && within_bounds_range(center)
            && r.abs() <= BOUNDS_RANGE)
            .then(|| ArcBounds {
                mid_dir: Vec2::from_heading(Radians(start_angle.value() + half_sweep)),
                cos_half_sweep: half_sweep.cos(),
                tol: max_seg * max_seg / (4.0 * r.abs()) + 1e-6,
            });
        path.arc = Some(ArcIndex {
            center,
            radius: r.abs(),
            start_angle: start_angle.value(),
            seg_angle,
            max_seg,
            bounds,
        });
        path
    }

    /// Total arc length of the path.
    #[inline]
    pub fn length(&self) -> Meters {
        Meters(*self.cum_s.last().expect("paths have at least two points"))
    }

    /// The polyline vertices.
    #[inline]
    pub fn points(&self) -> &[Vec2] {
        &self.points
    }

    /// `true` when the path is a single straight segment (every catalog
    /// road except the curved cut-in's arc). Conservative certificates in
    /// the lane-batched simulator only reason in Frenet coordinates on
    /// straight paths, where arc length and lateral offset are globally
    /// Euclidean; on anything else they decline.
    #[inline]
    pub fn is_straight(&self) -> bool {
        self.seg_heading.len() == 1
    }

    /// An upper bound on the path's curvature (1/m): the largest
    /// per-vertex heading change divided by the *shorter* adjacent
    /// segment. For a uniformly sampled arc this is exactly `1/radius`;
    /// on nonuniform polylines the short-segment denominator
    /// overestimates (never underestimates) localized curvature, which
    /// is the conservative direction — the lane-batch certificates
    /// decline whenever this bound exceeds their gentle-arc limit, so
    /// the bound must be allowed to cry wolf but never to understate.
    /// Zero for a straight path. O(segments); callers that care compute
    /// it once per run, not per query.
    pub fn max_abs_curvature(&self) -> f64 {
        let mut max = 0.0f64;
        for i in 1..self.seg_heading.len() {
            let dh = (self.seg_heading[i] - self.seg_heading[i - 1])
                .normalized()
                .value()
                .abs();
            let ds = (self.cum_s[i] - self.cum_s[i - 1]).min(self.cum_s[i + 1] - self.cum_s[i]);
            if ds > 1e-9 {
                max = max.max(dh / ds);
            }
        }
        max
    }

    /// The segment index whose arc-length interval contains `s` (clamped
    /// to real segments; callers handle extrapolation beyond the ends).
    fn segment_at(&self, s: f64) -> usize {
        let n = self.points.len();
        match self
            .cum_s
            .binary_search_by(|probe| probe.partial_cmp(&s).expect("finite arc lengths"))
        {
            Ok(i) => i.min(n - 2),
            Err(i) => i - 1,
        }
    }

    /// [`Path::segment_at`] by short neighbor walk from a previous
    /// segment index (temporal coherence), falling back to the binary
    /// search when the start is missing or far. For interior `s` the
    /// segment index is the unique `i` with `cum_s[i] <= s < cum_s[i+1]`
    /// — exactly what the binary search computes — so the walk returns
    /// the identical index for every start.
    fn segment_at_walked(&self, s: f64, start: Option<u32>) -> usize {
        let Some(start) = start else {
            return self.segment_at(s);
        };
        let mut i = (start as usize).min(self.points.len() - 2);
        for _ in 0..8 {
            if s < self.cum_s[i] {
                i -= 1;
            } else if s >= self.cum_s[i + 1] {
                i += 1;
            } else {
                return i;
            }
        }
        self.segment_at(s)
    }

    /// World pose at arc length `s`, extrapolating along the end tangents
    /// outside `[0, length]`.
    pub fn pose_at(&self, s: Meters) -> PathPose {
        let frame = self.frame_at(s);
        PathPose {
            position: frame.position,
            heading: frame.heading,
        }
    }

    /// World pose *and* left normal at arc length `s` — the full road
    /// frame, with every trig term precomputed at construction. The hot
    /// form of [`Path::pose_at`] for per-tick Frenet-to-world conversion.
    pub fn frame_at(&self, s: Meters) -> PathFrame {
        self.frame_at_impl(s, None)
    }

    /// [`Path::frame_at`] seeded by (and refreshing) a caller-owned
    /// [`ProjectionHint`]: a vehicle's arc-length position moves a
    /// fraction of a segment per tick, so a short walk from last tick's
    /// segment replaces the binary search on dense polylines. The
    /// returned frame is bit-identical to [`Path::frame_at`] for every
    /// hint state.
    pub fn frame_at_hinted(&self, s: Meters, hint: &mut ProjectionHint) -> PathFrame {
        self.frame_at_impl(s, Some(hint))
    }

    fn frame_at_impl(&self, s: Meters, hint: Option<&mut ProjectionHint>) -> PathFrame {
        let s = s.value();
        let n = self.points.len();
        if s <= 0.0 {
            return PathFrame {
                position: self.points[0] + self.seg_unit[0] * s,
                heading: self.seg_heading[0],
                left: self.seg_left[0],
            };
        }
        if s >= *self.cum_s.last().expect("nonempty") {
            let overshoot = s - self.cum_s[n - 1];
            return PathFrame {
                position: self.points[n - 1] + self.seg_unit[n - 2] * overshoot,
                heading: self.seg_heading[n - 2],
                left: self.seg_left[n - 2],
            };
        }
        let i = match hint {
            Some(hint) => {
                let i = self.segment_at_walked(s, hint.seg);
                hint.seg = Some(i as u32);
                i
            }
            None => self.segment_at(s),
        };
        let seg_len = self.cum_s[i + 1] - self.cum_s[i];
        let t = (s - self.cum_s[i]) / seg_len;
        PathFrame {
            position: self.points[i].lerp(self.points[i + 1], t),
            heading: self.seg_heading[i],
            left: self.seg_left[i],
        }
    }

    /// Scans segments `[i0, i1)` for a closer projection than
    /// `best`, exactly as the exhaustive scan visits them (ascending,
    /// strict improvement), so any pruned search that visits a superset of
    /// the winning segment returns bit-identical results.
    fn project_segments(
        &self,
        point: Vec2,
        i0: usize,
        i1: usize,
        best_d2: &mut f64,
        best: &mut FrenetPose,
    ) {
        let last = self.points.len() - 2;
        for i in i0..i1 {
            let a = self.points[i];
            let b = self.points[i + 1];
            let ab = b - a;
            let seg_len = self.cum_s[i + 1] - self.cum_s[i];
            let mut t = (point - a).dot(ab) / ab.norm_sq();
            // Allow extrapolation only on the terminal segments.
            let lo = if i == 0 { f64::NEG_INFINITY } else { 0.0 };
            let hi = if i == last { f64::INFINITY } else { 1.0 };
            t = t.clamp(lo, hi);
            let proj = a + ab * t;
            let offset = point - proj;
            let d2 = offset.norm_sq();
            if d2 < *best_d2 {
                *best_d2 = d2;
                let s = self.cum_s[i] + t * seg_len;
                // Sign: positive left of travel direction.
                let sign = if ab.cross(offset) >= 0.0 { 1.0 } else { -1.0 };
                *best = FrenetPose::new(Meters(s), Meters(sign * d2.sqrt()));
            }
        }
    }

    /// Projects a world point onto the path, returning its Frenet pose.
    ///
    /// Points beyond the ends project onto the extrapolated end tangents
    /// (yielding `s < 0` or `s > length`).
    ///
    /// The answer is exactly what the exhaustive segment scan returns
    /// (pinned by the oracle tests in this module). A [`Path::arc`] path
    /// answers by a short certified walk outward from a seed segment: the
    /// hinted one ([`Path::project_with_hint`]) first, else the one
    /// nearest the query's azimuth around the circle center. Every other
    /// path, and any query both walks decline, takes the exhaustive scan.
    ///
    /// ```
    /// use av_core::geometry::Vec2;
    /// use av_core::path::Path;
    /// use av_core::units::{Meters, Radians};
    ///
    /// // A sine-wave centerline: a generic polyline, scanned exhaustively.
    /// let path = Path::from_points(
    ///     (0..300)
    ///         .map(|i| Vec2::new(i as f64, (i as f64 * 0.1).sin() * 10.0))
    ///         .collect(),
    /// )
    /// .expect("valid polyline");
    /// let pose = path.project(Vec2::new(150.2, 3.0));
    /// // s advances along the wave; d is the signed lateral offset.
    /// assert!(pose.s.value() > 140.0);
    /// assert!(pose.d.value().abs() < 15.0);
    /// ```
    pub fn project(&self, point: Vec2) -> FrenetPose {
        self.project_impl(point, None)
    }

    /// [`Path::project`] seeded by (and refreshing) a caller-owned
    /// [`ProjectionHint`] — the temporal-coherence fast path for callers
    /// that re-project slowly moving points every tick, like the planner
    /// projecting each tracked vehicle into road coordinates.
    ///
    /// On an arc path the walk starts from the hinted segment, whose
    /// distance upper-bounds the optimum, and certifies a (usually tiny)
    /// candidate window around it without an `atan2`. Other paths only
    /// refresh the hint.
    /// The answer is therefore **bit-identical to [`Path::project`] for
    /// every hint state** — a stale hint only costs speed.
    pub fn project_with_hint(&self, point: Vec2, hint: &mut ProjectionHint) -> FrenetPose {
        self.project_impl(point, Some(hint))
    }

    /// An interval that provably contains the lateral offset `d` of
    /// [`Path::project`]`(point)`, read off the circle of a [`Path::arc`]
    /// alone: one square root and a few dot and cross products, no walk.
    ///
    /// With center `c`, radius `R`, per-segment turn `θ` and longest
    /// chord `m`, the interval is `d_c ± tol`: `d_c = sign(θ)·(R − |p − c|)`
    /// is the point's offset from the circle, `tol = m²/(4R) + 1e-6 m`.
    /// `None` where the certificate does not apply: a path that is not an
    /// arc, an arc whose segments turn by π/2 or more, a point or center
    /// with a coordinate beyond ±1e6 m, a radius over 1e6 m, a point whose
    /// azimuth around `c` lies outside the sweep, and a point an
    /// extrapolated end segment might claim (below).
    ///
    /// ```
    /// use av_core::geometry::Vec2;
    /// use av_core::path::Path;
    /// use av_core::units::{Meters, Radians};
    ///
    /// let road = Path::arc(Vec2::ZERO, Radians(0.0), Meters(400.0), Meters(1500.0), Meters(2.0));
    /// let point = Vec2::new(300.0, 120.0);
    /// let (lo, hi) = road.lateral_bounds(point).expect("inside the sweep");
    /// let d = road.project(point).d;
    /// assert!(lo <= d && d <= hi);
    /// assert!((hi - lo).value() < 0.01);
    /// ```
    ///
    /// # Why it holds
    ///
    /// Take a left arc (`θ > 0`, center on the left); a right arc is its
    /// mirror image. Let `r = |p − c|`, `h = R·cos(θ/2)` and `δ = R − h`.
    /// Every chord lies in the annulus `h ≤ |q − c| ≤ R`, and
    /// `m²/(4R) = δ·(1 + cos(θ/2)) ≥ δ`, so it is enough to show
    /// `d_c − δ ≤ d ≤ d_c + δ` in exact arithmetic. Let `q` be the winning
    /// segment's nearest point and `D = |d| = |p − q|`.
    ///
    /// - *The winner is near.* `p`'s azimuth lies inside the sweep, so the
    ///   ray from `c` through `p` crosses a chord at a distance
    ///   `ρ ∈ [h, R]` from `c`: `D ≤ |r − ρ| ≤ |R − r| + δ`.
    /// - *The winner is on a chord.* The end segments extrapolate along
    ///   their lines past the path's first and last vertex. A point behind
    ///   the first vertex, or past the last, must lie farther than
    ///   `|d_c| + tol` from that line, so the extrapolation loses to the
    ///   chord above. So `q` lies in the annulus: `D ≥ dist(r, [h, R])`.
    /// - *`q` inside its chord, `p` on the center side (`d ≥ 0`).* If
    ///   `r < h`, then `h − r ≤ D ≤ ρ − r ≤ R − r`: `d ∈ [d_c − δ, d_c]`.
    ///   If `h ≤ r ≤ R`, both `d` and `d_c` lie in `[0, δ]`. And `r > R`
    ///   cannot happen: with the chord's outward normal `n` and tangent
    ///   `t`, `p − c = (h − d)·n + x·t` with `|x| ≤ m/2`, so
    ///   `(h − d)² ≥ r² − m²/4 > R² − m²/4 = h²` forces `d > 2h`; then
    ///   `r ≤ d − h + m/2` and `d ≤ r − h` need `m ≥ 4h`, but
    ///   `m/h = 2·tan(θ/2) < 2`.
    /// - *`q` inside its chord, `p` on the outer side (`d < 0`).*
    ///   `(p − c)·n = h + D ≤ r`, so `d ≥ h − r = d_c − δ`; and
    ///   `d ≤ −dist(r, [h, R]) ≤ min(0, R − r) ≤ d_c`.
    /// - *`q` a vertex `v`.* It is not an end vertex (those extrapolate),
    ///   so a neighbouring segment leaves `v` turned by `θ` toward the
    ///   center. Write `p − v = a·u + b·w`, with `u` the winner's direction
    ///   continued past `v` (so `a ≥ 0`) and `w` its normal toward the
    ///   center. Moving from `v` into the neighbour changes the distance
    ///   to `p` at a rate of the sign of `−(a·cos θ + b·sin θ)`, and the
    ///   neighbour is not strictly closer than the winner, so
    ///   `b ≤ −a·cot θ ≤ 0`: `p` lies in the outward wedge at `v`
    ///   between the two segments' normals, every direction of which is
    ///   within `θ/2` of `v − c`. So
    ///   `r² ≥ R² + D² + 2RD·cos(θ/2) ≥ (R + D − δ)²` and `r ≤ R + D`:
    ///   `d = −D ∈ [d_c − δ, d_c]`.
    ///
    /// Rounding: with the point and the center inside ±1e6 m and `R` at
    /// most 1e6 m, every length here is below 2²² m, where one rounding
    /// costs at most 2⁻³¹ m ≈ 4.7e-10 m. The vertices sit that close to
    /// the ideal circle, and the scan's `d`, `d_c` and the end distances
    /// each take a few dozen roundings, so together they err by under
    /// 1e-7 m: inside the 1e-6 m slack.
    pub fn lateral_bounds(&self, point: Vec2) -> Option<(Meters, Meters)> {
        let arc = self.arc.as_ref()?;
        let bounds = arc.bounds.as_ref()?;
        if !within_bounds_range(point) {
            return None;
        }
        let rel = point - arc.center;
        let r = rel.norm_sq().sqrt();
        if rel.dot(bounds.mid_dir) <= r * bounds.cos_half_sweep {
            return None; // outside the sweep
        }
        let d_c = arc.seg_angle.signum() * (arc.radius - r);
        let clear = d_c.abs() + bounds.tol;
        let last = self.points.len() - 1;
        for (vertex, outward) in [
            (self.points[0], -self.seg_unit[0]),
            (self.points[last], self.seg_unit[last - 1]),
        ] {
            let rel = point - vertex;
            if rel.dot(outward) > 0.0 && outward.cross(rel).abs() <= clear {
                return None; // an extrapolated end segment might win
            }
        }
        Some((Meters(d_c - bounds.tol), Meters(d_c + bounds.tol)))
    }

    fn project_impl(&self, point: Vec2, hint: Option<&mut ProjectionHint>) -> FrenetPose {
        let nseg = self.points.len() - 1;
        let pose = self
            .arc
            .as_ref()
            .and_then(|arc| {
                hint.as_ref()
                    .and_then(|h| h.seg)
                    .and_then(|h| self.project_arc_seeded(point, arc, (h as usize).min(nseg - 1)))
                    .or_else(|| {
                        self.project_arc_seeded(point, arc, self.azimuth_segment(point, arc))
                    })
            })
            .unwrap_or_else(|| self.project_scan(point));
        if let Some(hint) = hint {
            // Remember the winning segment (derived from the winning arc
            // length; queries beyond the ends clamp to the terminals).
            let s = pose.s.value();
            let seg = if s <= 0.0 {
                0
            } else if s >= *self.cum_s.last().expect("nonempty") {
                nseg - 1
            } else {
                self.segment_at_walked(s, hint.seg)
            };
            hint.seg = Some(seg as u32);
        }
        pose
    }

    /// The exhaustive scan: every segment, ascending, strict improvement.
    /// The reference the arc walk reproduces bit for bit.
    fn project_scan(&self, point: Vec2) -> FrenetPose {
        let mut best_d2 = f64::INFINITY;
        let mut best = FrenetPose::default();
        self.project_segments(point, 0, self.points.len() - 1, &mut best_d2, &mut best);
        best
    }

    /// Arc projection by a certified walk outward from the seed segment
    /// `h` — no `atan2`, just a handful of squared distances. The seed
    /// only has to be a good guess: any seed certifies its own answer.
    ///
    /// Certification: the distance `upper` to the seed segment bounds
    /// the optimum. Every point of a segment lies within half the
    /// segment's chord of one of its endpoints, so the winning segment
    /// has a vertex within `b = upper + max_seg/2 (+ margin)` of the
    /// query — and so does the seed segment itself, which starts the
    /// walk. The vertex distances `sqrt(R² + r² − 2·R·r·cos Δθ)` are a
    /// function of the azimuth gap alone, so `{vertex: dist ≤ b}` is the
    /// arc's intersection with one circular azimuth interval of
    /// half-width `w = acos((R² + r² − b²)/(2·R·r))`; that intersection
    /// can split into two index runs only when the interval's complement
    /// fits strictly inside the sweep, i.e. `τ − 2w < sweep`. Requiring
    /// `w ≤ (τ − sweep)/2` (checked in cosines — no `acos` — with a
    /// millirad margin for the vertices' rounding off the ideal circle)
    /// therefore makes the run contiguous, and the two outward walks
    /// recover the complete certified hull. The hull (plus the
    /// always-scanned extrapolating terminals) is then scanned ascending
    /// with the strict-improvement rule — the exhaustive scan's discipline
    /// over a certified superset of every segment that could win, hence
    /// bit-identical results.
    ///
    /// Returns `None` (the caller tries its next seed, then the
    /// exhaustive scan) when the sweep is within the margin of a full
    /// turn, the bound is too wide for the contiguity argument, or the
    /// walk cannot seat its start vertex (an extrapolating terminal seed
    /// can lie far beyond it).
    fn project_arc_seeded(&self, point: Vec2, arc: &ArcIndex, h: usize) -> Option<FrenetPose> {
        use std::f64::consts::TAU;
        let nseg = self.points.len() - 1;
        let sweep = nseg as f64 * arc.seg_angle.abs();
        let w_max = 0.5 * (TAU - sweep) - 1e-3;
        if w_max <= 0.0 {
            return None;
        }
        let mut upper_d2 = f64::INFINITY;
        let mut scratch = FrenetPose::default();
        self.project_segments(point, h, h + 1, &mut upper_d2, &mut scratch);
        let b = upper_d2.sqrt() + 0.5 * arc.max_seg + 1e-6;
        let r2 = (point - arc.center).norm_sq();
        // `w ≤ w_max` ⟺ `cos w ≥ cos w_max` (both in [0, π]); `cos w`
        // from the law of cosines without ever taking the `acos`, and
        // `cos w_max` replaced by its truncated Taylor series — an upper
        // bound on `[0, π]` (alternating series, decreasing terms), so
        // the guard only gets *stricter*: a rejection here declines the
        // walk, never admits a split run. When `w_max ≥ π` any
        // interval is contiguous — skip the test (its cosine comparison
        // would be meaningless there).
        if w_max < std::f64::consts::PI {
            let two_rr = 2.0 * arc.radius * r2.sqrt();
            let w2 = w_max * w_max;
            let cos_upper = 1.0 - w2 / 2.0 + w2 * w2 / 24.0;
            if arc.radius * arc.radius + r2 - b * b < two_rr * cos_upper {
                return None;
            }
        }
        let b2 = b * b;
        let d2v = |v: usize| (point - self.points[v]).norm_sq();
        let (mut lo_v, mut hi_v) = if d2v(h) <= b2 {
            (h, h)
        } else if d2v(h + 1) <= b2 {
            (h + 1, h + 1)
        } else {
            return None;
        };
        while lo_v > 0 && d2v(lo_v - 1) <= b2 {
            lo_v -= 1;
        }
        while hi_v < nseg && d2v(hi_v + 1) <= b2 {
            hi_v += 1;
        }
        // Vertex run -> segment hull (segment i owns vertices i and i+1),
        // then the exhaustive scan's visit order: terminal start, hull,
        // terminal end, ascending with strict improvement.
        let (lo, hi) = (lo_v.saturating_sub(1), hi_v.min(nseg - 1) + 1);
        let mut best_d2 = f64::INFINITY;
        let mut best = FrenetPose::default();
        if lo > 0 {
            self.project_segments(point, 0, 1, &mut best_d2, &mut best);
        }
        // Hull scan with a per-segment lower bound: the exact distance to
        // a segment's infinite line (one cross product against the
        // precomputed unit tangent) never exceeds the distance to the
        // segment, so a segment whose line cannot strictly improve on the
        // running best would not have updated it — skipping is free of
        // bitwise effect.
        for i in lo..hi {
            let line_d = self.seg_unit[i].cross(point - self.points[i]);
            if line_d * line_d > best_d2 {
                continue;
            }
            self.project_segments(point, i, i + 1, &mut best_d2, &mut best);
        }
        if hi < nseg {
            self.project_segments(point, nseg - 1, nseg, &mut best_d2, &mut best);
        }
        Some(best)
    }

    /// The segment nearest the query's azimuth around the arc's center:
    /// the walk's seed when there is no usable hint. The swept angle from
    /// the first vertex is taken modulo a full turn, since the azimuth
    /// wraps at ±π; an azimuth outside the sweep seeds the nearer end.
    fn azimuth_segment(&self, point: Vec2, arc: &ArcIndex) -> usize {
        use std::f64::consts::TAU;
        let nseg = self.points.len() - 1;
        let rel = point - arc.center;
        let swept =
            ((rel.y.atan2(rel.x) - arc.start_angle) * arc.seg_angle.signum()).rem_euclid(TAU);
        let sweep = nseg as f64 * arc.seg_angle.abs();
        let i = if swept <= sweep {
            swept / arc.seg_angle.abs()
        } else if swept - sweep < TAU - swept {
            nseg as f64
        } else {
            0.0
        };
        (i as usize).min(nseg - 1)
    }

    /// Converts a Frenet pose back into a world point.
    pub fn frenet_to_world(&self, pose: FrenetPose) -> Vec2 {
        let frame = self.frame_at(pose.s);
        frame.position + frame.left * pose.d.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn straight_path_round_trip() {
        let p = Path::straight(Vec2::ZERO, Radians(0.0), Meters(100.0));
        assert_eq!(p.length(), Meters(100.0));
        let f = FrenetPose::new(Meters(40.0), Meters(-2.0));
        let w = p.frenet_to_world(f);
        assert!((w.x - 40.0).abs() < 1e-9 && (w.y + 2.0).abs() < 1e-9);
        let back = p.project(w);
        assert!((back.s.value() - 40.0).abs() < 1e-9);
        assert!((back.d.value() + 2.0).abs() < 1e-9);
    }

    #[test]
    fn rotated_straight_path_projects_correctly() {
        let p = Path::straight(Vec2::new(5.0, 5.0), Radians(FRAC_PI_2), Meters(50.0));
        // 10m along +Y from origin, 1m to the left (-X side).
        let f = p.project(Vec2::new(4.0, 15.0));
        assert!((f.s.value() - 10.0).abs() < 1e-9);
        assert!((f.d.value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn extrapolates_beyond_both_ends() {
        let p = Path::straight(Vec2::ZERO, Radians(0.0), Meters(10.0));
        let before = p.project(Vec2::new(-5.0, 1.0));
        assert!((before.s.value() + 5.0).abs() < 1e-9);
        assert!((before.d.value() - 1.0).abs() < 1e-9);
        let after = p.pose_at(Meters(15.0));
        assert!((after.position.x - 15.0).abs() < 1e-9);
    }

    #[test]
    fn left_arc_curves_left() {
        // Quarter circle, radius 100, starting along +X: ends near (100, 100).
        let p = Path::arc(
            Vec2::ZERO,
            Radians(0.0),
            Meters(100.0),
            Meters(100.0 * FRAC_PI_2),
            Meters(1.0),
        );
        let end = p.pose_at(p.length()).position;
        assert!((end.x - 100.0).abs() < 0.1, "end.x = {}", end.x);
        assert!((end.y - 100.0).abs() < 0.1, "end.y = {}", end.y);
        let end_heading = p.pose_at(p.length() - Meters(0.5)).heading;
        assert!((end_heading.value() - FRAC_PI_2).abs() < 0.05);
    }

    #[test]
    fn right_arc_curves_right() {
        let p = Path::arc(
            Vec2::ZERO,
            Radians(0.0),
            Meters(-100.0),
            Meters(100.0 * FRAC_PI_2),
            Meters(1.0),
        );
        let end = p.pose_at(p.length()).position;
        assert!((end.x - 100.0).abs() < 0.1);
        assert!((end.y + 100.0).abs() < 0.1);
    }

    #[test]
    fn arc_frenet_round_trip() {
        let p = Path::arc(
            Vec2::ZERO,
            Radians(0.3),
            Meters(200.0),
            Meters(150.0),
            Meters(0.5),
        );
        for &(s, d) in &[(10.0, 0.0), (75.0, 3.7), (140.0, -3.7)] {
            let w = p.frenet_to_world(FrenetPose::new(Meters(s), Meters(d)));
            let f = p.project(w);
            assert!((f.s.value() - s).abs() < 0.05, "s: {} vs {s}", f.s);
            assert!((f.d.value() - d).abs() < 0.05, "d: {} vs {d}", f.d);
        }
    }

    #[test]
    fn arc_length_is_accurate() {
        let p = Path::arc(
            Vec2::ZERO,
            Radians(0.0),
            Meters(100.0),
            Meters(100.0 * PI),
            Meters(0.5),
        );
        // Polyline slightly under-measures the true arc; within 0.1%.
        let err = (p.length().value() - 100.0 * PI).abs() / (100.0 * PI);
        assert!(err < 1e-3, "relative error {err}");
    }

    #[test]
    #[should_panic(expected = "may not overlap itself")]
    fn full_turn_arc_is_rejected() {
        // 2π·100 m is exactly one turn: the end would meet the start.
        let _ = Path::arc(
            Vec2::ZERO,
            Radians(0.0),
            Meters(-100.0),
            Meters(std::f64::consts::TAU * 100.0),
            Meters(1.0),
        );
    }

    #[test]
    fn construction_errors() {
        assert_eq!(
            Path::from_points(vec![Vec2::ZERO]),
            Err(PathError::TooFewPoints)
        );
        assert_eq!(
            Path::from_points(vec![Vec2::ZERO, Vec2::ZERO, Vec2::new(1.0, 0.0)]),
            Err(PathError::DegenerateSegment { index: 0 })
        );
        let msg = PathError::DegenerateSegment { index: 3 }.to_string();
        assert!(msg.contains('3'));
    }

    /// An arc just under one full turn (6.25 rad): its ends sit 16 m
    /// apart, so a query near one end is near the other too, and the
    /// walk's contiguity guard is at its tightest.
    fn near_full_turn() -> Path {
        Path::arc(
            Vec2::ZERO,
            Radians(0.0),
            Meters(480.0),
            Meters(3000.0),
            Meters(2.0),
        )
    }

    #[test]
    fn pruned_projection_matches_full_scan_oracle() {
        // Projection claims bit-identical results to the exhaustive scan
        // from either walk seed; pin it over a sweep of query points around
        // several dense paths, including on-path, off-path, near-center,
        // beyond-end and far-away points.
        let paths = [
            // The catalog's curved road geometry (left arc).
            Path::arc(
                Vec2::ZERO,
                Radians(0.0),
                Meters(400.0),
                Meters(1500.0),
                Meters(2.0),
            ),
            // A right arc sweeping more than a half turn.
            Path::arc(
                Vec2::new(5.0, -3.0),
                Radians(1.2),
                Meters(-80.0),
                Meters(400.0),
                Meters(1.0),
            ),
            near_full_turn(),
            // A dense non-arc polyline (sine wave): routed to the
            // exhaustive scan itself.
            Path::from_points(
                (0..400)
                    .map(|i| Vec2::new(i as f64, (i as f64 * 0.12).sin() * 25.0))
                    .collect(),
            )
            .expect("valid polyline"),
        ];
        // Deterministic pseudo-random offsets (LCG), no external RNG.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0 // in [-1, 1)
        };
        for path in &paths {
            let length = path.length().value();
            for i in 0..400 {
                let s = length * (i as f64 / 399.0) * 1.2 - 0.1 * length; // beyond both ends
                let base = path.pose_at(Meters(s)).position;
                let point = base + Vec2::new(next() * 60.0, next() * 60.0);
                let fast = path.project(point);
                let oracle = path.project_scan(point);
                assert_eq!(fast, oracle, "path len {length:.0}, query {point}");
            }
            // Degenerate-direction spot checks: the arc's circle center
            // and points straight out from each end.
            for point in [Vec2::ZERO, Vec2::new(-500.0, 0.0), Vec2::new(0.0, 900.0)] {
                assert_eq!(path.project(point), path.project_scan(point));
            }
        }
    }

    #[test]
    fn hinted_projection_is_bit_identical_for_any_hint() {
        // Two dense arcs, a dense sine wave, and a short path: the hinted
        // projection must equal the exhaustive scan under a coherent
        // hint, a stale hint, an adversarial hint, and an empty hint.
        let paths = [
            Path::arc(
                Vec2::ZERO,
                Radians(0.0),
                Meters(400.0),
                Meters(1500.0),
                Meters(2.0),
            ),
            near_full_turn(),
            Path::from_points(
                (0..400)
                    .map(|i| Vec2::new(i as f64, (i as f64 * 0.12).sin() * 25.0))
                    .collect(),
            )
            .expect("valid polyline"),
            Path::straight(Vec2::ZERO, Radians(0.3), Meters(100.0)),
        ];
        for path in &paths {
            let length = path.length().value();
            // Temporal coherence: a point crawling along the path with a
            // persistent hint.
            let mut hint = ProjectionHint::default();
            for i in 0..600 {
                let s = length * (i as f64 / 599.0) * 1.3 - 0.15 * length;
                let lateral = ((i % 13) as f64 - 6.0) * 1.5;
                let base = path.pose_at(Meters(s));
                let left = Vec2::from_heading(base.heading).perp();
                let point = base.position + left * lateral;
                assert_eq!(
                    path.project_with_hint(point, &mut hint),
                    path.project_scan(point),
                    "coherent hint diverged at i={i}"
                );
            }
            // Adversarial hints: every segment index (including an
            // out-of-range one) against a fixed set of queries.
            let nseg = path.points().len() - 1;
            let queries = [
                Vec2::new(-50.0, 7.0),
                path.pose_at(Meters(length * 0.7)).position + Vec2::new(3.0, -40.0),
                path.pose_at(Meters(length * 2.0)).position,
                Vec2::ZERO,
            ];
            for &point in &queries {
                let expected = path.project_scan(point);
                for seg in (0..nseg.min(64)).chain([nseg.saturating_sub(1), nseg, nseg + 1000]) {
                    let mut hint = ProjectionHint {
                        seg: Some(seg as u32),
                    };
                    assert_eq!(
                        path.project_with_hint(point, &mut hint),
                        expected,
                        "hint seg {seg} diverged on {point}"
                    );
                    // The refreshed hint is a real segment.
                    assert!(hint.seg.is_some_and(|s| (s as usize) < nseg));
                }
            }
        }
    }

    /// Asserts that the interval `lateral_bounds` gives for `point`, if
    /// any, holds the exhaustive scan's `d`; returns whether it answered.
    fn bounds_hold(path: &Path, point: Vec2) -> bool {
        let Some((lo, hi)) = path.lateral_bounds(point) else {
            return false;
        };
        let d = path.project_scan(point).d;
        assert!(
            lo <= d && d <= hi,
            "query {point}: d = {} outside [{}, {}]",
            d.value(),
            lo.value(),
            hi.value()
        );
        true
    }

    #[test]
    fn lateral_bounds_hold_the_scanned_offset() {
        // (path, whether the certificate covers it)
        let paths = [
            // The catalog's curved road (left, 3.75 rad).
            (
                Path::arc(
                    Vec2::ZERO,
                    Radians(0.0),
                    Meters(400.0),
                    Meters(1500.0),
                    Meters(2.0),
                ),
                true,
            ),
            // A right arc sweeping 5 rad, more than half a turn.
            (
                Path::arc(
                    Vec2::new(5.0, -3.0),
                    Radians(1.2),
                    Meters(-80.0),
                    Meters(400.0),
                    Meters(1.0),
                ),
                true,
            ),
            (near_full_turn(), true),
            // A short arc: 15 segments, 0.15 rad.
            (
                Path::arc(
                    Vec2::new(-30.0, 12.0),
                    Radians(-0.7),
                    Meters(200.0),
                    Meters(30.0),
                    Meters(2.0),
                ),
                true,
            ),
            // Three segments of 2 rad each, past the π/2 limit: a
            // vertex's neighbour can lie farther from a point on the
            // center side than the vertex itself.
            (
                Path::arc(
                    Vec2::ZERO,
                    Radians(0.0),
                    Meters(100.0),
                    Meters(600.0),
                    Meters(200.0),
                ),
                false,
            ),
            // A 10 km arc of radius 1e10 m at the origin: its vertices are
            // in range, its center is not, and `|p − c|` rounds by 2e-6 m.
            (
                Path::arc(
                    Vec2::ZERO,
                    Radians(0.0),
                    Meters(1e10),
                    Meters(1e4),
                    Meters(2.0),
                ),
                false,
            ),
        ];
        let mut state = 0x853c_49e6_748f_ea9bu64;
        let mut unit = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 // in [0, 1)
        };
        for (path, covered) in &paths {
            let arc = path.arc.as_ref().expect("an arc");
            let (center, radius) = (arc.center, arc.radius);
            let mut answered = 0;
            // Every azimuth, at distances from 0 to 3R from the center.
            for i in 0..1600 {
                let azimuth = std::f64::consts::TAU * (i as f64 + unit()) / 1600.0;
                for _ in 0..8 {
                    let r = 3.0 * radius * unit();
                    let point = center + Vec2::from_heading(Radians(azimuth)) * r;
                    answered += usize::from(bounds_hold(path, point));
                }
            }
            // Within 150 m of each end vertex.
            for end in [path.points()[0], *path.points().last().expect("nonempty")] {
                for _ in 0..2500 {
                    let offset = Vec2::new(unit() - 0.5, unit() - 0.5) * 300.0;
                    if offset.norm() <= 150.0 {
                        answered += usize::from(bounds_hold(path, end + offset));
                    }
                }
            }
            // Points 1e15 m out, where one rounding costs 0.125 m.
            for k in 0..64 {
                let direction = Vec2::from_heading(Radians(k as f64 * 0.1));
                answered += usize::from(bounds_hold(path, center + direction * 1e15));
            }
            if *covered {
                assert!(answered > 500, "the certificate answers ({answered})");
            }
        }
    }

    #[test]
    fn lateral_bounds_decline_where_an_end_segment_wins() {
        // Near the start of the 6.25 rad arc, 16 m from closing the turn:
        // the last segment, extended past the end, passes about 70 m from
        // this point, closer than the circle's 101.9 m.
        let path = near_full_turn();
        let point = Vec2::new(171.90, -75.93);
        let d = path.project_scan(point).d.value();
        assert!(
            (d + 69.52).abs() < 0.01,
            "the extended end segment wins: d = {d}"
        );
        let arc = path.arc.as_ref().expect("an arc");
        let circle = arc.radius - (point - arc.center).norm();
        assert!(
            (circle + 101.90).abs() < 0.01,
            "the circle's offset: {circle}"
        );
        assert_eq!(path.lateral_bounds(point), None);
    }

    #[test]
    fn projection_picks_nearest_segment() {
        // An L-shaped path; a point near the corner must pick the closer leg.
        let p = Path::from_points(vec![
            Vec2::ZERO,
            Vec2::new(10.0, 0.0),
            Vec2::new(10.0, 10.0),
        ])
        .expect("valid polyline");
        let f = p.project(Vec2::new(9.0, 5.0));
        assert!((f.s.value() - 15.0).abs() < 1e-9);
        assert!((f.d.value() - 1.0).abs() < 1e-9);
    }
}
