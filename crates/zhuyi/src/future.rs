//! Actor futures: how the estimator sees one actor's predicted motion
//! relative to the ego's path.
//!
//! The tolerable-latency search (paper §2.1) only needs three things about
//! the actor at each candidate time t_n:
//!
//! 1. `s_n` — the distance available between the ego's position at t₀ and
//!    the actor's position at t_n (Eq. 1),
//! 2. `v_a_n` — the actor's velocity at t_n (Eq. 2),
//! 3. whether a collision is geometrically possible at t_n at all (the
//!    actor overlaps the ego's travel corridor).
//!
//! [`ActorFuture`] abstracts those three queries so the same search runs on
//! ground-truth traces (pre-deployment, §3.1), predicted trajectories
//! (post-deployment, §3.2) and the synthetic fixed-gap sweep of Fig. 8.

use av_core::prelude::*;
use av_core::trajectory::{Piece, TrajectoryCursor};
use std::cell::Cell;

/// The actor's situation relative to the ego's path at one future instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelativeState {
    /// Bumper-to-bumper distance along the ego's path from the ego's t₀
    /// position to the actor: the paper's `s_n`. Negative when the actor is
    /// behind the ego.
    pub gap: Meters,
    /// The actor's velocity component along the ego's path at t_n: the
    /// paper's `v_a_n`.
    pub speed_along: MetersPerSecond,
    /// `true` when the actor laterally overlaps the ego's travel corridor
    /// at t_n, i.e. a collision is geometrically possible.
    pub in_corridor: bool,
}

/// What an [`ActorFuture`] proves about the span of its future that
/// contains one instant. An instant is *active* when [`ActorFuture::at`]
/// puts the actor in the corridor at a gap ≥ 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanProof {
    /// Nothing: the caller must query the instant.
    Unproven,
    /// No instant of the span is active.
    Quiet,
    /// Every instant of the span is active.
    Active,
}

/// A [`SpanProof`] and how far it reaches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProvenSpan {
    /// The verdict on the queried instant `tn`.
    pub proof: SpanProof,
    /// Every instant `t'` with `tn ≤ t' < until` has the same verdict. An
    /// `until` at or before `tn` reaches no further instant.
    pub until: Seconds,
}

impl ProvenSpan {
    /// A verdict on the instant `tn` alone.
    pub(crate) fn instant(proof: SpanProof, tn: Seconds) -> Self {
        Self { proof, until: tn }
    }
}

/// One predicted future of one actor, as seen from the ego at t₀.
///
/// Times are relative: `at(Seconds(0.5))` is the state half a second after
/// the estimation instant.
pub trait ActorFuture {
    /// The actor's relative state at future offset `tn ≥ 0`.
    fn at(&self, tn: Seconds) -> RelativeState;

    /// The gap and the corridor bit of [`ActorFuture::at`], for a caller
    /// that reads nothing else. An override must return both bit for bit;
    /// the default reads `at`.
    fn gap_at(&self, tn: Seconds) -> (Meters, bool) {
        let s = self.at(tn);
        (s.gap, s.in_corridor)
    }

    /// Probability mass of this future within the actor's prediction set
    /// `T` (Eq. 4). Defaults to certainty.
    fn probability(&self) -> f64 {
        1.0
    }

    /// What this future proves about the span that contains `tn`, and how
    /// far that span reaches. A span may be a single instant.
    /// [`SpanProof::Quiet`] promises that `at(tn)` is inactive and
    /// [`SpanProof::Active`] that it is active, so a caller that needs only
    /// that bit may skip the query; [`ProvenSpan::until`] extends the
    /// promise to the later instants of the span. `horizon` is the caller's
    /// last instant and bounds a span that would otherwise run on forever.
    /// The default proves nothing.
    fn prove_span(&self, tn: Seconds, _horizon: Seconds) -> ProvenSpan {
        ProvenSpan::instant(SpanProof::Unproven, tn)
    }
}

/// A stationary obstacle at a fixed gap: the simplest threat (the revealed
/// obstacle of the Cut-out scenarios).
///
/// ```
/// use av_core::prelude::*;
/// use zhuyi::future::{ActorFuture, StationaryActor};
///
/// let obstacle = StationaryActor::new(Meters(60.0));
/// let s = obstacle.at(Seconds(3.0));
/// assert_eq!(s.gap, Meters(60.0));
/// assert_eq!(s.speed_along, MetersPerSecond(0.0));
/// assert!(s.in_corridor);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StationaryActor {
    gap: Meters,
}

impl StationaryActor {
    /// A stopped actor `gap` meters (bumper-to-bumper) ahead of the ego, in
    /// the ego's lane.
    pub fn new(gap: Meters) -> Self {
        Self { gap }
    }
}

impl ActorFuture for StationaryActor {
    fn at(&self, _tn: Seconds) -> RelativeState {
        RelativeState {
            gap: self.gap,
            speed_along: MetersPerSecond::ZERO,
            in_corridor: true,
        }
    }
}

/// The synthetic actor of the paper's Fig. 8 sensitivity sweep: the
/// distance `s_n` the ego may travel is *fixed* regardless of t_n, and the
/// actor's end velocity `v_a_n` is constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedGapActor {
    gap: Meters,
    speed: MetersPerSecond,
}

impl FixedGapActor {
    /// An in-lane actor with fixed available distance `gap` (the sweep's
    /// `s_n`) and constant end velocity `speed` (`v_a_n`).
    pub fn new(gap: Meters, speed: MetersPerSecond) -> Self {
        Self { gap, speed }
    }
}

impl ActorFuture for FixedGapActor {
    fn at(&self, _tn: Seconds) -> RelativeState {
        RelativeState {
            gap: self.gap,
            speed_along: self.speed,
            in_corridor: true,
        }
    }
}

/// An in-lane actor moving under constant acceleration — the closed-form
/// future used by the vehicle-following style examples and the online
/// constant-velocity/constant-acceleration predictors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantAccelActor {
    gap0: Meters,
    speed0: MetersPerSecond,
    accel: MetersPerSecondSquared,
    in_corridor: bool,
}

impl ConstantAccelActor {
    /// An actor `gap0` ahead, moving along the ego's path at `speed0` with
    /// constant acceleration `accel` (speed clamps at zero — a braking lead
    /// vehicle stops and stays stopped).
    pub fn new(gap0: Meters, speed0: MetersPerSecond, accel: MetersPerSecondSquared) -> Self {
        Self {
            gap0,
            speed0,
            accel,
            in_corridor: true,
        }
    }

    /// Marks the actor as outside the ego's corridor (e.g. an adjacent-lane
    /// vehicle tracked by a side camera).
    pub fn outside_corridor(mut self) -> Self {
        self.in_corridor = false;
        self
    }
}

impl ActorFuture for ConstantAccelActor {
    fn at(&self, tn: Seconds) -> RelativeState {
        let (d, v) = distance_speed_after(self.speed0, self.accel, tn);
        RelativeState {
            gap: self.gap0 + d,
            speed_along: v,
            in_corridor: self.in_corridor,
        }
    }
}

/// Geometry linking a recorded/predicted [`Trajectory`] to the ego's path:
/// the general-purpose future used by the offline pipeline and the online
/// system.
///
/// The actor's world positions are projected into the Frenet frame of the
/// ego's reference path. The available distance is measured bumper to
/// bumper; corridor membership compares lateral offsets against the
/// half-width sum plus a configurable margin.
///
/// The future borrows the path, so every future of one estimation step
/// shares it. It also keeps a [`ProjectionHint`] and a
/// [`TrajectoryCursor`]: the estimator queries instants 10 ms apart, so
/// the last winning path segment and trajectory segment are almost always
/// next to the answer. Both only save work; every answer is bit-identical
/// to an un-hinted projection of a searched sample.
///
/// # Span proofs
///
/// On a straight path the Frenet chart is affine: the single segment
/// extrapolates at both ends, so arc length `s` and lateral offset `d` are
/// affine functions of the world point. On each [`Piece`] of the
/// trajectory the sampled position is affine in time: constant before the
/// first sample, a lerp between samples, a constant-velocity ray after the
/// last (bounded here at the caller's horizon). So the gap and the lateral
/// offset are affine on each piece, and lie between their values at the
/// piece's two ends; the offset's distance from the ego's is convex, so it
/// lies below its larger end value. [`ActorFuture::prove_span`] decides a
/// piece from its two ends, with a rounding margin (`QUIET_MARGIN`,
/// 1e-6 m) on every comparison:
///
/// - [`SpanProof::Quiet`] when both ends lie past the same corridor edge,
///   or both behind the ego, by the margin: every instant is inactive;
/// - [`SpanProof::Active`] when both ends lie ahead of the ego by more
///   than the margin and inside the corridor by at least the margin:
///   every instant is active.
///
/// The argument and the rounding budget of `QUIET_MARGIN` are the same
/// for both verdicts: each compares two end values and one instant's
/// value against one threshold. The scan visits pieces in order, so only
/// the current piece's verdict is kept.
///
/// A quiet or active verdict reaches to the piece's end, less
/// `REACH_MARGIN` (see [`ProvenSpan::until`]): the first sample's time
/// for the head, the next sample's for a segment, the horizon for the
/// tail, each relative to t₀.
///
/// On any other path each instant is decided alone: the span is the
/// instant itself, and it is quiet or unproven, never active.
/// [`Path::lateral_bounds`] bounds the lateral offset that
/// [`ActorFuture::at`] would compute for the sampled position (it answers
/// on arcs), and an interval past one corridor edge by `QUIET_MARGIN`
/// proves the instant quiet. Rounding is monotone, so the offset relative
/// to the ego lies past that edge too. An interval inside the corridor
/// would prove nothing active: it bounds `d`, not the gap.
#[derive(Debug, Clone)]
pub struct TrajectoryFuture<'a> {
    path: &'a Path,
    trajectory: Trajectory,
    /// The last query's segment, seeding the next query's projection.
    hint: Cell<ProjectionHint>,
    /// The last query's trajectory segment, seeding the next sample.
    cursor: Cell<TrajectoryCursor>,
    /// The last piece's verdict.
    proof: Cell<Option<PieceProof>>,
    /// Whether the per-piece proof applies: a straight path, with the
    /// path and the ego inside `QUIET_RANGE`. Otherwise instants are
    /// decided one by one.
    affine_chart: bool,
    /// Absolute time corresponding to relative offset zero.
    t0: Seconds,
    /// Ego arc-length position at t₀.
    ego_s0: Meters,
    /// Ego lateral offset at t₀.
    ego_d0: Meters,
    /// Half the ego length plus half the actor length.
    length_allowance: Meters,
    /// Half-width sum plus margin: the corridor half-width.
    corridor_half_width: Meters,
}

impl<'a> TrajectoryFuture<'a> {
    /// Builds the future of `actor_dims`-sized actor following `trajectory`
    /// (absolute times), seen from an ego of `ego_dims` at `ego_state`, with
    /// `path` as the longitudinal reference.
    ///
    /// `corridor_margin` is added to the half-width sum when testing
    /// lateral overlap (paper's conservatism; see
    /// [`crate::ZhuyiConfig::corridor_margin`]).
    pub fn new(
        path: &'a Path,
        ego_state: &VehicleState,
        ego_dims: Dimensions,
        actor_dims: Dimensions,
        trajectory: Trajectory,
        t0: Seconds,
        corridor_margin: Meters,
    ) -> Self {
        let ego_frenet = path.project(ego_state.position);
        let affine_chart = path.is_straight()
            && path.points().iter().all(|&p| within_quiet_range(p))
            && ego_frenet.s.value().abs().max(ego_frenet.d.value().abs()) <= QUIET_RANGE;
        Self {
            path,
            trajectory,
            hint: Cell::default(),
            cursor: Cell::default(),
            proof: Cell::default(),
            affine_chart,
            t0,
            ego_s0: ego_frenet.s,
            ego_d0: ego_frenet.d,
            length_allowance: Meters((ego_dims.length.value() + actor_dims.length.value()) / 2.0),
            corridor_half_width: Meters(
                (ego_dims.width.value() + actor_dims.width.value()) / 2.0 + corridor_margin.value(),
            ),
        }
    }

    /// What the ends of the segment from world point `a` to world point
    /// `b` prove about every point on it (see the type docs). Sound only
    /// on an affine chart.
    fn prove_segment(&self, a: Vec2, b: Vec2) -> SpanProof {
        if !(within_quiet_range(a) && within_quiet_range(b)) {
            return SpanProof::Unproven;
        }
        let (fa, fb) = (self.path.project(a), self.path.project(b));
        let gap = |f: FrenetPose| (f.s - self.ego_s0 - self.length_allowance).value();
        let lateral = |f: FrenetPose| (f.d - self.ego_d0).value();
        let (ga, gb) = (gap(fa), gap(fb));
        let (da, db) = (lateral(fa), lateral(fb));
        let edge = self.corridor_half_width.value() + QUIET_MARGIN;
        let inner = self.corridor_half_width.value() - QUIET_MARGIN;
        if (ga < -QUIET_MARGIN && gb < -QUIET_MARGIN)
            || (da > edge && db > edge)
            || (da < -edge && db < -edge)
        {
            SpanProof::Quiet
        } else if ga > QUIET_MARGIN && gb > QUIET_MARGIN && da.abs() <= inner && db.abs() <= inner {
            SpanProof::Active
        } else {
            SpanProof::Unproven
        }
    }

    /// How far a quiet or active verdict on `piece` reaches, relative to
    /// t₀ (see `REACH_MARGIN`), or `None` outside `REACH_RANGE`.
    fn reach(&self, piece: Piece, horizon: Seconds) -> Option<Seconds> {
        let points = self.trajectory.points();
        let end = match piece {
            Piece::Head => points[0].time,
            Piece::Segment(i) => points[i + 1].time,
            Piece::Tail => self.t0 + horizon,
        };
        (self.t0.value().abs() <= REACH_RANGE && end.value().abs() <= REACH_RANGE)
            .then(|| end - self.t0 - Seconds(REACH_MARGIN))
    }

    /// The sample at `tn` and its projection onto the path, seeded by (and
    /// refreshing) the cursor and `hint`: the query [`ActorFuture::at`]
    /// and [`ActorFuture::gap_at`] share.
    fn locate(&self, tn: Seconds, hint: &mut ProjectionHint) -> (TrajectoryPoint, FrenetPose) {
        let mut cursor = self.cursor.get();
        let sample = self
            .trajectory
            .sample_with_cursor(self.t0 + tn, &mut cursor);
        self.cursor.set(cursor);
        (sample, self.path.project_with_hint(sample.position, hint))
    }

    /// The gap and the corridor bit of an actor at `frenet`.
    fn gap_of(&self, frenet: FrenetPose) -> (Meters, bool) {
        (
            frenet.s - self.ego_s0 - self.length_allowance,
            (frenet.d - self.ego_d0).abs() <= self.corridor_half_width,
        )
    }

    /// Whether the actor is outside the corridor at `tn` alone: the
    /// interval [`Path::lateral_bounds`] gives for the sampled position
    /// lies past one corridor edge by `QUIET_MARGIN` (see the type docs).
    fn instant_is_quiet(&self, tn: Seconds) -> bool {
        let mut cursor = self.cursor.get();
        let position = self
            .trajectory
            .sample_with_cursor(self.t0 + tn, &mut cursor)
            .position;
        self.cursor.set(cursor);
        let edge = self.corridor_half_width.value() + QUIET_MARGIN;
        self.path.lateral_bounds(position).is_some_and(|(lo, hi)| {
            (lo - self.ego_d0).value() > edge || (hi - self.ego_d0).value() < -edge
        })
    }
}

/// How far past a corridor edge, or behind the ego, both ends of a span
/// must lie before the span counts as quiet, and how far inside the
/// corridor and ahead of the ego before it counts as active. It absorbs
/// rounding: on an affine chart the exact gap and offset at any instant lie
/// between their exact values at the ends, and every computed value differs
/// from its exact one only by rounding. Inside `QUIET_RANGE` every length
/// in a sample and its projection stays below 2²² m, where one rounding
/// costs at most 2⁻³¹ m ≈ 4.7e-10 m. A sample plus its projection takes
/// about 20 roundings, each moving the result by a small multiple of that
/// once propagated, so one query errs by well under 1e-7 m, and the three
/// values the argument compares (two ends, one instant) together by under
/// 3e-7 m: inside the margin.
const QUIET_MARGIN: f64 = 1e-6;

/// The coordinate range, in meters, inside which `QUIET_MARGIN` is
/// justified. Spans reaching outside it (or not finite) prove nothing.
const QUIET_RANGE: f64 = 1e6;

fn within_quiet_range(p: Vec2) -> bool {
    p.x.abs() <= QUIET_RANGE && p.y.abs() <= QUIET_RANGE
}

/// How far, in seconds, a verdict's reach stops short of its piece's end.
/// It absorbs the rounding between a relative instant `t'` and the
/// absolute time `t0 + t'` that [`Trajectory::piece_at`] compares: with
/// the relative end `e = T − t0` of a piece ending at `T`, an instant
/// `t' < e − REACH_MARGIN` has `t0 + t' ≤ t0 + (e − REACH_MARGIN)`, as
/// rounding is monotone, and that sum lies within three roundings of
/// `T − REACH_MARGIN`. Inside `REACH_RANGE` every one of those values
/// stays below 2¹⁸ s, where one rounding costs at most 2⁻³⁶ s ≈ 1.5e-11 s,
/// so the instant stays before `T`. Its start needs no margin: `t' ≥ tn`
/// puts `t0 + t'` at or after `t0 + tn`.
const REACH_MARGIN: f64 = 1e-9;

/// The time range, in seconds, inside which `REACH_MARGIN` is justified:
/// for a larger (or non-finite) t₀ or piece end a verdict reaches no
/// further than its instant.
const REACH_RANGE: f64 = 1e5;

/// The verdict on one trajectory piece, for one horizon (which bounds the
/// tail).
#[derive(Debug, Clone, Copy)]
struct PieceProof {
    piece: Piece,
    end: f64,
    proof: SpanProof,
    /// The relative time the verdict reaches ([`ProvenSpan::until`]), or
    /// `None` when it reaches no further than its instant.
    until: Option<Seconds>,
}

impl PieceProof {
    /// The verdict on the instant `tn` of the piece.
    fn span(&self, tn: Seconds) -> ProvenSpan {
        ProvenSpan {
            proof: self.proof,
            until: self.until.unwrap_or(tn),
        }
    }
}

impl ActorFuture for TrajectoryFuture<'_> {
    fn at(&self, tn: Seconds) -> RelativeState {
        let mut hint = self.hint.get();
        let (sample, frenet) = self.locate(tn, &mut hint);
        let tangent = self.path.frame_at_hinted(frenet.s, &mut hint).heading;
        self.hint.set(hint);
        let along = sample.speed.value() * (sample.heading - tangent).normalized().cos();
        let (gap, in_corridor) = self.gap_of(frenet);
        RelativeState {
            gap,
            speed_along: MetersPerSecond(along),
            in_corridor,
        }
    }

    fn gap_at(&self, tn: Seconds) -> (Meters, bool) {
        let mut hint = self.hint.get();
        let (_, frenet) = self.locate(tn, &mut hint);
        self.hint.set(hint);
        self.gap_of(frenet)
    }

    fn probability(&self) -> f64 {
        self.trajectory.probability()
    }

    fn prove_span(&self, tn: Seconds, horizon: Seconds) -> ProvenSpan {
        if !self.affine_chart {
            let proof = if self.instant_is_quiet(tn) {
                SpanProof::Quiet
            } else {
                SpanProof::Unproven
            };
            return ProvenSpan::instant(proof, tn);
        }
        // The same absolute time, and so the same piece, that `at` samples.
        let t = self.t0 + tn;
        let end = (self.t0 + horizon).value();
        let mut cursor = self.cursor.get();
        let piece = self.trajectory.piece_at(t, &mut cursor);
        self.cursor.set(cursor);
        let within_horizon = t.value() <= end; // false for a NaN horizon too
        if piece == Piece::Tail && !within_horizon {
            return ProvenSpan::instant(SpanProof::Unproven, tn); // past the bounded ray
        }
        if let Some(v) = self.proof.get() {
            if v.piece == piece && v.end.to_bits() == end.to_bits() {
                return v.span(tn);
            }
        }
        let points = self.trajectory.points();
        let (a, b) = match piece {
            Piece::Head => (points[0].position, points[0].position),
            Piece::Segment(i) => (points[i].position, points[i + 1].position),
            Piece::Tail => (
                points[points.len() - 1].position,
                self.trajectory.sample(Seconds(end)).position,
            ),
        };
        let proof = self.prove_segment(a, b);
        let until = match proof {
            SpanProof::Unproven => None,
            SpanProof::Quiet | SpanProof::Active => self.reach(piece, horizon),
        };
        let v = PieceProof {
            piece,
            end,
            proof,
            until,
        };
        self.proof.set(Some(v));
        v.span(tn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_core::trajectory::TrajectoryPoint;

    fn straight_path() -> &'static Path {
        static PATH: std::sync::OnceLock<Path> = std::sync::OnceLock::new();
        PATH.get_or_init(|| Path::straight(Vec2::ZERO, Radians(0.0), Meters(2000.0)))
    }

    fn ego_at(x: f64) -> VehicleState {
        VehicleState::new(
            Vec2::new(x, 0.0),
            Radians(0.0),
            MetersPerSecond(20.0),
            MetersPerSecondSquared::ZERO,
        )
    }

    /// Straight-line trajectory at constant speed, offset `y`.
    fn traj(x0: f64, y: f64, v: f64, n: usize) -> Trajectory {
        let points = (0..n)
            .map(|i| {
                let t = i as f64 * 0.1;
                TrajectoryPoint {
                    time: Seconds(t),
                    position: Vec2::new(x0 + v * t, y),
                    heading: Radians(0.0),
                    speed: MetersPerSecond(v),
                    accel: MetersPerSecondSquared::ZERO,
                }
            })
            .collect();
        Trajectory::new(points, 1.0).expect("valid trajectory")
    }

    fn future(t: Trajectory) -> TrajectoryFuture<'static> {
        TrajectoryFuture::new(
            straight_path(),
            &ego_at(0.0),
            Dimensions::CAR,
            Dimensions::CAR,
            t,
            Seconds(0.0),
            Meters(0.3),
        )
    }

    #[test]
    fn gap_is_bumper_to_bumper() {
        // Actor center 50m ahead: gap = 50 - (4.5+4.5)/2 = 45.5.
        let f = future(traj(50.0, 0.0, 0.0, 30));
        let s = f.at(Seconds(0.0));
        assert!((s.gap.value() - 45.5).abs() < 1e-9);
        assert!(s.in_corridor);
    }

    #[test]
    fn moving_actor_gap_grows() {
        let f = future(traj(50.0, 0.0, 10.0, 30));
        let s0 = f.at(Seconds(0.0));
        let s2 = f.at(Seconds(2.0));
        assert!((s2.gap.value() - s0.gap.value() - 20.0).abs() < 1e-9);
        assert!((s2.speed_along.value() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn adjacent_lane_actor_outside_corridor() {
        // 3.7m lateral: way beyond (1.8+1.8)/2 + 0.3 = 2.1.
        let f = future(traj(30.0, 3.7, 10.0, 30));
        assert!(!f.at(Seconds(0.0)).in_corridor);
        // 1.5m lateral: inside the corridor.
        let f2 = future(traj(30.0, 1.5, 10.0, 30));
        assert!(f2.at(Seconds(0.0)).in_corridor);
    }

    #[test]
    fn actor_behind_has_negative_gap() {
        let f = future(traj(-30.0, 0.0, 10.0, 30));
        assert!(f.at(Seconds(0.0)).gap < Meters::ZERO);
    }

    #[test]
    fn oncoming_actor_has_negative_along_speed() {
        let points = (0..30)
            .map(|i| {
                let t = i as f64 * 0.1;
                TrajectoryPoint {
                    time: Seconds(t),
                    position: Vec2::new(100.0 - 15.0 * t, 0.0),
                    heading: Radians(std::f64::consts::PI),
                    speed: MetersPerSecond(15.0),
                    accel: MetersPerSecondSquared::ZERO,
                }
            })
            .collect();
        let f = future(Trajectory::new(points, 1.0).expect("valid"));
        let s = f.at(Seconds(1.0));
        assert!((s.speed_along.value() + 15.0).abs() < 1e-6);
    }

    #[test]
    fn constant_accel_actor_clamps_at_stop() {
        let a = ConstantAccelActor::new(
            Meters(50.0),
            MetersPerSecond(10.0),
            MetersPerSecondSquared(-5.0),
        );
        // Stops after 2s having advanced 10m; stays there.
        let s = a.at(Seconds(5.0));
        assert!((s.gap.value() - 60.0).abs() < 1e-9);
        assert_eq!(s.speed_along, MetersPerSecond::ZERO);
        let out = a.outside_corridor();
        assert!(!out.at(Seconds(0.0)).in_corridor);
    }

    #[test]
    fn fixed_gap_actor_is_time_invariant() {
        let a = FixedGapActor::new(Meters(30.0), MetersPerSecond(5.0));
        for t in [0.0, 1.0, 7.5] {
            let s = a.at(Seconds(t));
            assert_eq!(s.gap, Meters(30.0));
            assert_eq!(s.speed_along, MetersPerSecond(5.0));
        }
        assert_eq!(a.probability(), 1.0);
    }

    #[test]
    fn hinted_queries_match_fresh_futures_on_an_arc() {
        // The curved cut-in's road: a 751-vertex arc.
        let path = Path::arc(
            Vec2::ZERO,
            Radians(0.0),
            Meters(400.0),
            Meters(1500.0),
            Meters(2.0),
        );
        let points = (0..=80)
            .map(|i| {
                let t = i as f64 * 0.1;
                let s = Meters(50.0 + 25.0 * t);
                TrajectoryPoint {
                    time: Seconds(t),
                    position: path.frenet_to_world(FrenetPose::new(s, Meters(1.0))),
                    heading: path.pose_at(s).heading,
                    speed: MetersPerSecond(25.0),
                    accel: MetersPerSecondSquared::ZERO,
                }
            })
            .collect();
        let trajectory = Trajectory::new(points, 1.0).expect("valid trajectory");
        let make = || {
            TrajectoryFuture::new(
                &path,
                &ego_at(0.0),
                Dimensions::CAR,
                Dimensions::CAR,
                trajectory.clone(),
                Seconds(0.0),
                Meters(0.3),
            )
        };
        let bits = |s: RelativeState| {
            (
                s.gap.value().to_bits(),
                s.speed_along.value().to_bits(),
                s.in_corridor,
            )
        };
        // One future carries its hint through a 10 ms scan and then jumps
        // back and forth; a fresh future answers every query un-hinted.
        let hinted = make();
        let jumps = [0.5, 11.0, 0.0, 6.3, 12.0, 3.33];
        for t in (0..=1200).map(|k| k as f64 * 0.01).chain(jumps) {
            let tn = Seconds(t);
            assert_eq!(bits(hinted.at(tn)), bits(make().at(tn)), "t = {t}");
        }
    }
}
