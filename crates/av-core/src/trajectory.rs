//! Time-stamped future trajectories of actors.
//!
//! Eq. 4 of the paper aggregates tolerable latencies over a set `T` of
//! predicted trajectories per actor, each with an associated probability.
//! Pre-deployment, `T` is a single ground-truth future taken from the
//! scenario trace (§3.1); post-deployment it comes from a predictor.

use crate::geometry::Vec2;
use crate::units::{MetersPerSecond, MetersPerSecondSquared, Radians, Seconds};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One sample of an actor's (predicted or recorded) future motion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryPoint {
    /// Time of this sample, relative to the same clock as the query (the
    /// scenario clock for traces, "now" for predictions).
    pub time: Seconds,
    /// World-frame position.
    pub position: Vec2,
    /// Direction of travel.
    pub heading: Radians,
    /// Longitudinal speed.
    pub speed: MetersPerSecond,
    /// Longitudinal acceleration.
    pub accel: MetersPerSecondSquared,
}

/// Error constructing a [`Trajectory`].
#[derive(Debug, Clone, PartialEq)]
pub enum TrajectoryError {
    /// A trajectory needs at least one point.
    Empty,
    /// Sample times must be strictly increasing.
    NonMonotonicTime {
        /// Index of the offending sample.
        index: usize,
    },
    /// Probability must lie in `[0, 1]`.
    InvalidProbability {
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for TrajectoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrajectoryError::Empty => write!(f, "trajectory has no points"),
            TrajectoryError::NonMonotonicTime { index } => {
                write!(
                    f,
                    "trajectory time not strictly increasing at sample {index}"
                )
            }
            TrajectoryError::InvalidProbability { value } => {
                write!(f, "trajectory probability {value} outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for TrajectoryError {}

/// A predicted (or recorded) future trajectory with an associated
/// probability.
///
/// Sample times are strictly increasing. Queries between samples linearly
/// interpolate; queries past the last sample extrapolate at constant
/// velocity, and queries before the first sample clamp to it.
///
/// ```
/// use av_core::prelude::*;
/// use av_core::trajectory::{Trajectory, TrajectoryPoint};
///
/// # fn main() -> Result<(), av_core::trajectory::TrajectoryError> {
/// let points = (0..=50)
///     .map(|i| {
///         let t = i as f64 * 0.1;
///         TrajectoryPoint {
///             time: Seconds(t),
///             position: Vec2::new(15.0 * t, 0.0),
///             heading: Radians(0.0),
///             speed: MetersPerSecond(15.0),
///             accel: MetersPerSecondSquared(0.0),
///         }
///     })
///     .collect();
/// let traj = Trajectory::new(points, 1.0)?;
/// let s = traj.sample(Seconds(2.05));
/// assert!((s.position.x - 30.75).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trajectory {
    points: Vec<TrajectoryPoint>,
    probability: f64,
}

impl Trajectory {
    /// Creates a trajectory from time-ordered samples.
    ///
    /// # Errors
    ///
    /// Returns an error if `points` is empty, times are not strictly
    /// increasing, or `probability` is outside `[0, 1]`.
    pub fn new(points: Vec<TrajectoryPoint>, probability: f64) -> Result<Self, TrajectoryError> {
        if points.is_empty() {
            return Err(TrajectoryError::Empty);
        }
        if !(0.0..=1.0).contains(&probability) || !probability.is_finite() {
            return Err(TrajectoryError::InvalidProbability { value: probability });
        }
        for i in 1..points.len() {
            if points[i].time.value() <= points[i - 1].time.value() {
                return Err(TrajectoryError::NonMonotonicTime { index: i });
            }
        }
        Ok(Self {
            points,
            probability,
        })
    }

    /// The probability mass assigned to this future.
    #[inline]
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// The underlying samples.
    #[inline]
    pub fn points(&self) -> &[TrajectoryPoint] {
        &self.points
    }

    /// Time of the first sample.
    #[inline]
    pub fn start_time(&self) -> Seconds {
        self.points[0].time
    }

    /// Time of the last sample.
    #[inline]
    pub fn end_time(&self) -> Seconds {
        self.points[self.points.len() - 1].time
    }

    /// Interpolated state at `time`.
    ///
    /// Before the first sample the first sample is returned; past the last
    /// sample the state is extrapolated at the final constant velocity.
    pub fn sample(&self, time: Seconds) -> TrajectoryPoint {
        let pts = &self.points;
        let t = time.value();
        if t <= pts[0].time.value() {
            return pts[0];
        }
        if t >= self.end_time().value() {
            return self.extrapolate(time);
        }
        self.sample_segment(self.search_segment(t), time)
    }

    /// [`Trajectory::sample`] seeded by (and refreshing) a caller-owned
    /// [`TrajectoryCursor`]. Callers that query nearby times in sequence,
    /// like a scan at a fixed timestep, walk a step or two from the last
    /// segment instead of binary-searching. The walk settles only on the
    /// segment `i` with `time[i] <= t < time[i + 1]`, which is the segment
    /// the binary search finds, and the same lerp follows: every answer is
    /// bit-identical to [`Trajectory::sample`] for every cursor state.
    pub fn sample_with_cursor(
        &self,
        time: Seconds,
        cursor: &mut TrajectoryCursor,
    ) -> TrajectoryPoint {
        match self.piece_at(time, cursor) {
            Piece::Head => self.points[0],
            Piece::Segment(i) => self.sample_segment(i, time),
            Piece::Tail => self.extrapolate(time),
        }
    }

    /// The piece of [`Trajectory::sample`]'s definition that answers
    /// `time`, located from (and refreshing) `cursor`.
    pub fn piece_at(&self, time: Seconds, cursor: &mut TrajectoryCursor) -> Piece {
        let pts = &self.points;
        let t = time.value();
        if t <= pts[0].time.value() {
            return Piece::Head;
        }
        if t >= self.end_time().value() {
            return Piece::Tail;
        }
        // Strictly inside: time[0] < t < time[n-1], so the walk never
        // leaves the samples and needs no bounds checks.
        let mut i = cursor.segment.min(pts.len() - 2);
        for _ in 0..CURSOR_WALK {
            if t < pts[i].time.value() {
                i -= 1;
            } else if t >= pts[i + 1].time.value() {
                i += 1;
            } else if pts[i].time.value() <= t {
                cursor.segment = i;
                return Piece::Segment(i);
            } else {
                break; // an unordered (NaN) time: the search decides
            }
        }
        let i = self.search_segment(t);
        cursor.segment = i;
        Piece::Segment(i)
    }

    /// The segment `i` with `time[i] <= t < time[i + 1]`, by binary search,
    /// for a `t` strictly inside the samples.
    fn search_segment(&self, t: f64) -> usize {
        match self.points.binary_search_by(|p| {
            p.time
                .value()
                .partial_cmp(&t)
                .expect("finite trajectory times")
        }) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    /// The state at `time` on segment `i`: sample `i` itself at its exact
    /// time, else the lerp toward sample `i + 1`.
    fn sample_segment(&self, i: usize, time: Seconds) -> TrajectoryPoint {
        let (a, b) = (self.points[i], self.points[i + 1]);
        if a.time.value() == time.value() {
            return a;
        }
        let span = b.time.value() - a.time.value();
        let u = (time.value() - a.time.value()) / span;
        TrajectoryPoint {
            time,
            position: a.position.lerp(b.position, u),
            heading: Radians(a.heading.value() + (b.heading - a.heading).normalized().value() * u)
                .normalized(),
            speed: a.speed + (b.speed - a.speed) * u,
            accel: a.accel + (b.accel - a.accel) * u,
        }
    }

    /// The constant-velocity ray from the last sample, at `time`.
    fn extrapolate(&self, time: Seconds) -> TrajectoryPoint {
        let last = self.points[self.points.len() - 1];
        let dt = time.value() - last.time.value();
        let dir = Vec2::from_heading(last.heading);
        TrajectoryPoint {
            time,
            position: last.position + dir * (last.speed.value() * dt),
            ..last
        }
    }
}

/// Segments a [`TrajectoryCursor`] walks before it falls back to a binary
/// search. A 10 ms scan over 0.05 s samples moves at most one segment per
/// query; long jumps, like the estimator's return from the horizon to the
/// reaction time, are cheaper searched.
const CURSOR_WALK: usize = 8;

/// The pieces of [`Trajectory::sample`]'s piecewise-linear definition.
/// On each piece the sampled position is an affine function of time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Piece {
    /// At or before the first sample: that sample, constant.
    Head,
    /// From sample `i` (inclusive) to sample `i + 1` (exclusive): the lerp
    /// between them.
    Segment(usize),
    /// At or after the last sample: a constant-velocity ray from it.
    Tail,
}

/// The last segment a [`Trajectory`] query landed on; see
/// [`Trajectory::sample_with_cursor`]. Any cursor works with any
/// trajectory: a stale or foreign one only costs a search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrajectoryCursor {
    segment: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(v: f64, n: usize, dt: f64) -> Trajectory {
        let points = (0..n)
            .map(|i| {
                let t = i as f64 * dt;
                TrajectoryPoint {
                    time: Seconds(t),
                    position: Vec2::new(v * t, 0.0),
                    heading: Radians(0.0),
                    speed: MetersPerSecond(v),
                    accel: MetersPerSecondSquared::ZERO,
                }
            })
            .collect();
        Trajectory::new(points, 1.0).expect("valid trajectory")
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(Trajectory::new(vec![], 1.0), Err(TrajectoryError::Empty));
        let p = TrajectoryPoint {
            time: Seconds(0.0),
            position: Vec2::ZERO,
            heading: Radians(0.0),
            speed: MetersPerSecond::ZERO,
            accel: MetersPerSecondSquared::ZERO,
        };
        assert_eq!(
            Trajectory::new(vec![p, p], 1.0),
            Err(TrajectoryError::NonMonotonicTime { index: 1 })
        );
        assert_eq!(
            Trajectory::new(vec![p], 1.5),
            Err(TrajectoryError::InvalidProbability { value: 1.5 })
        );
        assert!(Trajectory::new(vec![p], f64::NAN)
            .expect_err("NaN probability must be rejected")
            .to_string()
            .contains("probability"));
    }

    #[test]
    fn sample_interpolates_linearly() {
        let traj = line(10.0, 11, 0.1);
        let s = traj.sample(Seconds(0.55));
        assert!((s.position.x - 5.5).abs() < 1e-9);
        assert_eq!(s.speed, MetersPerSecond(10.0));
    }

    #[test]
    fn sample_at_exact_knot() {
        let traj = line(10.0, 11, 0.1);
        let s = traj.sample(Seconds(0.5));
        assert!((s.position.x - 5.0).abs() < 1e-9);
    }

    #[test]
    fn sample_clamps_before_start() {
        let traj = line(10.0, 11, 0.1);
        let s = traj.sample(Seconds(-1.0));
        assert_eq!(s.position, Vec2::ZERO);
    }

    #[test]
    fn sample_extrapolates_constant_velocity() {
        let traj = line(10.0, 11, 0.1); // ends at t=1.0, x=10
        let s = traj.sample(Seconds(2.0));
        assert!((s.position.x - 20.0).abs() < 1e-9);
        assert_eq!(s.speed, MetersPerSecond(10.0));
    }

    /// A trajectory with uneven spacing and a turning, accelerating
    /// actor, so every lerp term is live.
    fn winding() -> Trajectory {
        let mut t = 0.3;
        let points = (0..60)
            .map(|i| {
                let f = i as f64;
                let point = TrajectoryPoint {
                    time: Seconds(t),
                    position: Vec2::new(5.0 * f + 0.1 * f * f, (0.3 * f).sin() * 4.0),
                    heading: Radians((0.7 * f).sin() * 3.1 + if i % 7 == 0 { 3.0 } else { 0.0 }),
                    speed: MetersPerSecond(10.0 + (0.2 * f).cos()),
                    accel: MetersPerSecondSquared((0.5 * f).sin()),
                };
                t += 0.05 + 0.04 * ((i % 3) as f64);
                point
            })
            .collect();
        Trajectory::new(points, 1.0).expect("valid trajectory")
    }

    fn bits(p: TrajectoryPoint) -> [u64; 6] {
        [
            p.time.value().to_bits(),
            p.position.x.to_bits(),
            p.position.y.to_bits(),
            p.heading.value().to_bits(),
            p.speed.value().to_bits(),
            p.accel.value().to_bits(),
        ]
    }

    #[test]
    fn cursor_sampling_matches_sample_bit_for_bit() {
        let traj = winding();
        let (start, end) = (traj.start_time().value(), traj.end_time().value());
        let mut cursor = TrajectoryCursor::default();
        let mut check = |t: f64| {
            let time = Seconds(t);
            assert_eq!(
                bits(traj.sample_with_cursor(time, &mut cursor)),
                bits(traj.sample(time)),
                "t = {t}"
            );
        };
        // A forward 10 ms scan from before the first sample to well past
        // the last one.
        let mut t = start - 0.5;
        while t <= end + 2.0 {
            check(t);
            t += 0.01;
        }
        // Backward jumps, short and long, and every exact sample time,
        // visited last to first.
        for t in [end - 0.02, end - 0.3, start + 0.01, end - 0.001, 1.0, 0.9] {
            check(t);
        }
        for p in traj.points().iter().rev() {
            check(p.time.value());
        }
        // Before the first sample and past the last, after a mid query.
        for t in [start, start - 1e-9, -100.0, end, end + 1e-9, end + 100.0] {
            check(start + 0.5 * (end - start));
            check(t);
        }
    }

    #[test]
    fn pieces_follow_the_sample_definition() {
        let traj = line(10.0, 11, 0.1);
        let mut cursor = TrajectoryCursor::default();
        let mut piece = |t: f64| traj.piece_at(Seconds(t), &mut cursor);
        assert_eq!(piece(-1.0), Piece::Head);
        assert_eq!(piece(0.0), Piece::Head);
        assert_eq!(piece(0.05), Piece::Segment(0));
        assert_eq!(piece(0.55), Piece::Segment(5));
        assert_eq!(piece(traj.points()[3].time.value()), Piece::Segment(3));
        assert_eq!(piece(0.05), Piece::Segment(0));
        assert_eq!(piece(1.0), Piece::Tail);
        assert_eq!(piece(7.0), Piece::Tail);
    }

    #[test]
    fn times_exposed() {
        let traj = line(5.0, 21, 0.05);
        assert_eq!(traj.start_time(), Seconds(0.0));
        assert!((traj.end_time().value() - 1.0).abs() < 1e-9);
        assert_eq!(traj.points().len(), 21);
        assert_eq!(traj.probability(), 1.0);
    }
}
