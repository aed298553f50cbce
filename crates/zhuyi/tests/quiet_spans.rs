//! The threat scan skips instants a `TrajectoryFuture` proves quiet, and
//! instants it proves active once no pre-reaction guard can read their gap.
//! Those skips must be invisible: every estimate, explanation and
//! `SearchStats` equals the one computed through a wrapper that exposes
//! only `at` (and so proves nothing), and every verdict agrees with `at` at
//! its instant and at each later instant it reaches, which must lie in the
//! same trajectory piece. The reach cases flip the verdict exactly at piece
//! ends, placed on, near and between scan instants. The straight-road cases
//! put span ends where a wrong proof would change the answer: on opposite
//! sides of the corridor, one behind and one ahead of the ego, and within
//! 1e-9 m of an edge, before and past the guard's reach; they open
//! intervals past the reach, frontal and not, and vary the reach with the α
//! model and the horizon. On arcs each instant is decided alone from the
//! circle and never proved active; the arc cases put actors in the other
//! lanes, off the curve, past the arc's end, and where the extended end
//! segment rather than the circle is nearest.

use av_core::prelude::*;
use av_core::trajectory::{Piece, TrajectoryCursor, TrajectoryPoint};
use std::cell::RefCell;
use zhuyi::future::{ActorFuture, ProvenSpan, RelativeState, SpanProof, TrajectoryFuture};
use zhuyi::{AlphaModel, EgoKinematics, SearchOutcome, TolerableLatencyEstimator, ZhuyiConfig};

const L0: Seconds = Seconds(1.0 / 30.0);

/// Corridor half-width for two cars and the paper's 0.3 m margin.
const EDGE: f64 = 1.8 + 0.3;

/// Forwards only `at`: the reference scan, which queries every instant.
struct AtOnly<'a>(TrajectoryFuture<'a>);

impl ActorFuture for AtOnly<'_> {
    fn at(&self, tn: Seconds) -> RelativeState {
        self.0.at(tn)
    }
}

/// The instants one scan skipped.
#[derive(Debug, Default)]
struct Skips {
    /// Proved quiet.
    quiet: u64,
    /// Proved active and never queried, in scan order.
    active: Vec<f64>,
}

/// A future under test, with the trajectory and t₀ it was built from.
struct Subject<'a> {
    future: TrajectoryFuture<'a>,
    trajectory: Trajectory,
    t0: f64,
}

impl Subject<'_> {
    /// The verdict at `tn` alone.
    fn proof(&self, tn: Seconds, horizon: Seconds) -> SpanProof {
        self.future.prove_span(tn, horizon).proof
    }

    /// The trajectory piece that answers relative instant `tn`: the piece
    /// `at` samples.
    fn piece(&self, tn: f64) -> Piece {
        let t = Seconds(self.t0) + Seconds(tn);
        self.trajectory
            .piece_at(t, &mut TrajectoryCursor::default())
    }
}

/// Forwards everything, records what the scan skipped, and checks every
/// verdict against `at` at each instant it reaches, on the scan's own
/// clock: the instant asked about, then `dt` later, and so on while before
/// [`ProvenSpan::until`], past the horizon too. Each of those instants
/// must also lie in the asked instant's trajectory piece, which is the
/// reach's promise, and a tail's reach must end by the horizon.
struct Counting<'a, 's> {
    subject: &'s Subject<'a>,
    inner: TrajectoryFuture<'a>,
    /// A copy that answers the checks, leaving `inner`'s hint and cursor
    /// where the scan left them.
    oracle: TrajectoryFuture<'a>,
    /// The scan's timestep.
    dt: f64,
    skips: RefCell<Skips>,
    /// The instants of the last active span, until the scan queries them.
    pending: RefCell<Vec<f64>>,
}

impl<'a, 's> Counting<'a, 's> {
    fn new(subject: &'s Subject<'a>, dt: Seconds) -> Self {
        Self {
            subject,
            inner: subject.future.clone(),
            oracle: subject.future.clone(),
            dt: dt.value(),
            skips: RefCell::default(),
            pending: RefCell::default(),
        }
    }

    /// Files the pending active instants as skipped: the scan moved on
    /// without querying them.
    fn settle(&self) {
        let pending = self.pending.take();
        self.skips.borrow_mut().active.extend(pending);
    }
}

impl ActorFuture for Counting<'_, '_> {
    fn at(&self, tn: Seconds) -> RelativeState {
        self.inner.at(tn)
    }

    fn gap_at(&self, tn: Seconds) -> (Meters, bool) {
        self.pending.borrow_mut().retain(|&t| t != tn.value());
        self.inner.gap_at(tn)
    }

    fn prove_span(&self, tn: Seconds, horizon: Seconds) -> ProvenSpan {
        self.settle();
        let span = self.inner.prove_span(tn, horizon);
        let mut reached = vec![tn.value()];
        let mut t = tn.value() + self.dt;
        // Capped, so a runaway reach fails below instead of looping.
        while t < span.until.value() && reached.len() <= 100_000 {
            reached.push(t);
            t += self.dt;
        }
        if span.proof != SpanProof::Unproven {
            let piece = self.subject.piece(tn.value());
            if piece == Piece::Tail {
                assert!(span.until <= horizon, "{span:?} runs past {horizon:?}");
            }
            for &t in &reached {
                let s = self.oracle.at(Seconds(t));
                let active = s.in_corridor && s.gap.value() >= 0.0;
                assert_eq!(
                    active,
                    span.proof == SpanProof::Active,
                    "{span:?} from t = {} reaches t = {t}, but `at` returns {s:?}",
                    tn.value()
                );
                assert_eq!(
                    self.subject.piece(t),
                    piece,
                    "{span:?} from t = {} reaches t = {t}, past its piece",
                    tn.value()
                );
            }
        }
        // The scan visits only the instants up to its horizon.
        reached.retain(|&t| t <= horizon.value() + 1e-12);
        match span.proof {
            SpanProof::Quiet => self.skips.borrow_mut().quiet += reached.len() as u64,
            SpanProof::Active => *self.pending.borrow_mut() = reached,
            SpanProof::Unproven => {}
        }
        span
    }
}

fn estimator() -> TolerableLatencyEstimator {
    TolerableLatencyEstimator::new(ZhuyiConfig::paper()).expect("paper config valid")
}

/// The first instant no pre-reaction guard reads: the reaction time of
/// `max_latency`, capped at the horizon. Written out here, apart from the
/// estimator's own.
fn reach(cfg: &ZhuyiConfig, l0: Seconds) -> f64 {
    let (l, k) = (cfg.max_latency.value(), f64::from(cfg.confirmation_frames));
    let alpha = match cfg.alpha {
        AlphaModel::ExcessOverCurrent => (k * (l - l0.value())).max(0.0),
        AlphaModel::FullLatency => k * l,
    };
    (l + alpha).min(cfg.horizon.value())
}

fn road() -> Path {
    Path::straight(Vec2::ZERO, Radians(0.0), Meters(2000.0))
}

/// An ego on `path` at Frenet `(s, d)`, heading along the road.
fn ego_on(path: &Path, s: f64, d: f64, speed: f64, accel: f64) -> VehicleState {
    VehicleState::new(
        path.frenet_to_world(FrenetPose::new(Meters(s), Meters(d))),
        path.pose_at(Meters(s)).heading,
        MetersPerSecond(speed),
        MetersPerSecondSquared(accel),
    )
}

/// Samples `(time, s, d, heading relative to the road, speed)` in the
/// Frenet frame of `path`, converted to world points.
fn trajectory(path: &Path, samples: &[(f64, f64, f64, f64, f64)]) -> Trajectory {
    let points = samples
        .iter()
        .map(|&(t, s, d, heading, speed)| TrajectoryPoint {
            time: Seconds(t),
            position: path.frenet_to_world(FrenetPose::new(Meters(s), Meters(d))),
            heading: Radians(path.pose_at(Meters(s)).heading.value() + heading),
            speed: MetersPerSecond(speed),
            accel: MetersPerSecondSquared::ZERO,
        })
        .collect();
    Trajectory::new(points, 1.0).expect("valid trajectory")
}

/// Samples every 0.1 s over the 12 s horizon of `(s, d)` moving at
/// `(vs, vd)` in the Frenet frame of `path`, heading along the road.
fn frenet_line(path: &Path, s0: f64, d0: f64, vs: f64, vd: f64) -> Trajectory {
    let samples: Vec<_> = (0..=120)
        .map(|k| {
            let t = 0.1 * f64::from(k);
            (t, s0 + vs * t, d0 + vd * t, 0.0, vs)
        })
        .collect();
    trajectory(path, &samples)
}

fn future<'a>(path: &'a Path, ego: &VehicleState, trajectory: Trajectory, t0: f64) -> Subject<'a> {
    let future = TrajectoryFuture::new(
        path,
        ego,
        Dimensions::CAR,
        Dimensions::CAR,
        trajectory.clone(),
        Seconds(t0),
        Meters(0.3),
    );
    Subject {
        future,
        trajectory,
        t0,
    }
}

/// [`check_with`] at the paper's config and l₀ = 1/30 s.
fn check(case: &str, subject: &Subject<'_>, ego: &VehicleState) -> (Skips, SearchOutcome) {
    check_with(case, &estimator(), L0, subject, ego)
}

/// Runs `tolerable_latency` and `explain` through the skipping future and
/// through the `at`-only reference, asserts they agree bit for bit (the
/// `Debug` form prints every f64 exactly, so it separates any two values)
/// and that no instant before the reach was skipped as active, and
/// returns what the explain scan skipped and its outcome.
fn check_with(
    case: &str,
    e: &TolerableLatencyEstimator,
    l0: Seconds,
    subject: &Subject<'_>,
    ego: &VehicleState,
) -> (Skips, SearchOutcome) {
    let kin = EgoKinematics::from_state(ego);
    let skipping = Counting::new(subject, e.config().naive_timestep);
    let reference = AtOnly(subject.future.clone());
    let explained = e.explain(kin, &skipping, l0);
    skipping.settle();
    let skips = skipping.skips.take();
    assert_eq!(
        format!("{explained:?}"),
        format!("{:?}", e.explain(kin, &reference, l0)),
        "{case}: explain differs from the at-only scan"
    );
    assert_eq!(
        format!("{:?}", e.tolerable_latency(kin, &skipping, l0)),
        format!("{:?}", e.tolerable_latency(kin, &reference, l0)),
        "{case}: tolerable_latency differs from the at-only scan"
    );
    let r = reach(e.config(), l0);
    let early = skips.active.iter().find(|&&t| t < r - 1e-12);
    assert_eq!(early, None, "{case}: skipped before the reach {r}");
    (skips, explained.estimate.outcome)
}

#[test]
fn opposite_sides_in_a_sampled_segment_are_scanned() {
    // A car 40 m ahead crosses the lane from left to right between 1.0 s
    // and 1.5 s: both ends of that segment are outside the corridor, on
    // opposite sides. Every other span is quiet.
    let path = road();
    let ego = ego_on(&path, 0.0, 0.0, 25.0, 0.0);
    let crossing = trajectory(
        &path,
        &[
            (0.0, 40.0, 6.0, 0.0, 0.0),
            (1.0, 40.0, 6.0, -1.5, 24.0),
            (1.5, 40.0, -6.0, -1.5, 24.0),
            (3.0, 40.0, -6.0, 0.0, 0.0),
        ],
    );
    let (Skips { quiet: skipped, .. }, outcome) = check(
        "segment crossing",
        &future(&path, &ego, crossing, 0.0),
        &ego,
    );
    assert!(skipped > 1000, "the quiet spans were skipped ({skipped})");
    assert_ne!(
        outcome,
        SearchOutcome::Unconstrained,
        "the crossing is a threat"
    );
}

#[test]
fn opposite_sides_in_the_constant_velocity_tail_are_scanned() {
    // A car 120 m ahead. Its last sample is 6 m left of the lane, heading
    // right at 3 m/s: the tail ray crosses the lane between about 3.3 s
    // and 4.7 s, and its two ends (last sample, horizon) lie on opposite
    // sides.
    let path = road();
    let ego = ego_on(&path, 0.0, 0.0, 20.0, 0.0);
    let samples: Vec<_> = (0..=4)
        .map(|k| {
            let t = 0.5 * f64::from(k);
            (t, 120.0, 12.0 - 3.0 * t, -std::f64::consts::FRAC_PI_2, 3.0)
        })
        .collect();
    let f = future(&path, &ego, trajectory(&path, &samples), 0.0);
    let (Skips { quiet: skipped, .. }, outcome) = check("tail crossing", &f, &ego);
    assert!(skipped >= 200, "the sampled spans were skipped ({skipped})");
    assert_ne!(
        outcome,
        SearchOutcome::Unconstrained,
        "the crossing is a threat"
    );

    // The tail is bounded at the caller's horizon, and only there.
    let horizon = Seconds(1.0);
    let left = trajectory(&path, &[(0.0, 45.0, 8.0, 0.0, 10.0)]);
    let f = future(&path, &ego, left, 0.0);
    let quiet = SpanProof::Quiet;
    assert_eq!(f.proof(Seconds(0.5), horizon), quiet);
    assert_eq!(f.proof(horizon, horizon), quiet);
    let past = f.proof(Seconds(1.0 + 1e-9), horizon);
    assert_eq!(past, SpanProof::Unproven);
    assert_eq!(f.proof(Seconds(1.0 + 1e-9), Seconds(2.0)), quiet);
}

#[test]
fn ends_within_a_nanometre_of_an_edge_agree() {
    let path = road();
    let ego = ego_on(&path, 0.0, 0.0, 20.0, 0.0);
    let near = [EDGE + 1e-9, EDGE - 1e-9];
    let mut cases = 0;
    for side in [1.0, -1.0] {
        for &a in &near {
            for &b in &near {
                // Lateral edges: a car 30 m ahead drifting between the two
                // offsets, then holding the second.
                let drift = trajectory(
                    &path,
                    &[
                        (0.0, 34.5, side * a, 0.0, 10.0),
                        (2.0, 54.5, side * b, 0.0, 10.0),
                        (4.0, 74.5, side * b, 0.0, 10.0),
                    ],
                );
                check("lateral edge", &future(&path, &ego, drift, 0.0), &ego);
                cases += 1;
            }
        }
    }
    // The rear edge: gap = s - 4.5, so s = 4.5 ± 1e-9 puts the gap within
    // 1e-9 m of zero; the ego is stopped so any non-negative gap threatens.
    let stopped = ego_on(&path, 0.0, 0.0, 0.0, 0.0);
    for a in [4.5 + 1e-9, 4.5 - 1e-9] {
        for b in [4.5 + 1e-9, 4.5 - 1e-9] {
            let creep = trajectory(&path, &[(0.0, a, 0.0, 0.0, 0.0), (3.0, b, 0.0, 0.0, 0.0)]);
            check("rear edge", &future(&path, &stopped, creep, 0.0), &stopped);
            cases += 1;
        }
    }
    assert_eq!(cases, 12);
}

#[test]
fn an_actor_passing_a_stopped_ego_within_one_span_is_scanned() {
    // The ego stands still. An in-lane actor goes from 14.5 m behind
    // (gap < 0) to 5.5 m ahead inside the first segment, and back behind
    // inside the second; the tail then recedes, quiet.
    let path = road();
    let ego = ego_on(&path, 100.0, 0.0, 0.0, 0.0);
    let pass = trajectory(
        &path,
        &[
            (0.0, 90.0, 0.0, 0.0, 20.0),
            (1.0, 110.0, 0.0, std::f64::consts::PI, 20.0),
            (2.0, 90.0, 0.0, std::f64::consts::PI, 20.0),
        ],
    );
    let (Skips { quiet: skipped, .. }, outcome) =
        check("stopped ego", &future(&path, &ego, pass, 0.0), &ego);
    assert!(skipped > 900, "the receding tail was skipped ({skipped})");
    assert_ne!(
        outcome,
        SearchOutcome::Unconstrained,
        "the pass is a threat"
    );
}

#[test]
fn coordinates_near_ten_kilometres_agree() {
    let path = Path::straight(Vec2::new(9_000.0, -9_500.0), Radians(0.3), Meters(2000.0));
    let ego = ego_on(&path, 1_000.0, 0.4, 22.0, -0.5);
    let crossing = trajectory(
        &path,
        &[
            (3.0, 1_045.0, 7.0, 0.0, 0.0),
            (3.5, 1_045.0, 7.0, -1.5, 20.0),
            (4.2, 1_045.0, -7.0, -1.5, 20.0),
            (6.0, 1_045.0, -7.0, 0.0, 0.0),
        ],
    );
    let (Skips { quiet: skipped, .. }, outcome) =
        check("far crossing", &future(&path, &ego, crossing, 3.0), &ego);
    assert!(skipped > 1000, "far quiet spans were skipped ({skipped})");
    assert_ne!(outcome, SearchOutcome::Unconstrained);
    let stopped = ego_on(&path, 1_000.0, 0.0, 0.0, 0.0);
    let pass = trajectory(
        &path,
        &[
            (0.0, 990.0, 0.2, 0.0, 20.0),
            (1.0, 1_010.0, 0.2, std::f64::consts::PI, 20.0),
            (2.0, 990.0, 0.2, std::f64::consts::PI, 20.0),
        ],
    );
    let (Skips { quiet: skipped, .. }, outcome) =
        check("far pass", &future(&path, &stopped, pass, 0.0), &stopped);
    assert!(skipped > 900, "far receding tail was skipped ({skipped})");
    assert_ne!(outcome, SearchOutcome::Unconstrained);
}

#[test]
fn a_lead_held_in_lane_is_skipped_past_the_reach_only() {
    let path = road();
    let ego = ego_on(&path, 0.0, 0.0, 20.0, 0.0);
    let r = reach(&ZhuyiConfig::paper(), L0);
    assert!((r - (1.0 + 5.0 * (1.0 - 1.0 / 30.0))).abs() < 1e-12, "{r}");
    for (case, lead) in [
        ("0.1 s rollout", frenet_line(&path, 60.0, 0.3, 18.0, 0.0)),
        (
            "one sample, then the tail",
            trajectory(&path, &[(0.0, 60.0, 0.3, 0.0, 18.0)]),
        ),
    ] {
        let (skips, outcome) = check(case, &future(&path, &ego, lead, 0.0), &ego);
        assert_eq!(skips.quiet, 0, "{case}");
        // 617 of the 1,201 scan instants lie at or past 5.83 s.
        assert!(skips.active.len() > 600, "{case}: {}", skips.active.len());
        assert_ne!(outcome, SearchOutcome::Unconstrained, "{case}");
    }
}

#[test]
fn ends_within_a_nanometre_of_an_edge_past_the_reach_agree() {
    // Rotated and far from the origin, so every projection rounds (by
    // about 1e-12 m here). The offsets run from 1e-9 m inside an edge to
    // 1e-9 m outside it, in 0.2 pm steps near the edge, so rounding puts
    // piece ends on both sides of it and instants between them on both.
    let path = Path::straight(Vec2::new(9_000.0, -9_500.0), Radians(0.3), Meters(2000.0));
    let offsets: Vec<f64> = (-10..=10)
        .map(|k| f64::from(k) * 2e-13)
        .chain([-1e-9, 1e-9])
        .collect();
    let mut cases = 0;
    // Lateral edges: a lead in lane at t0, then at an edge from 6 s on, in
    // 1 s pieces.
    let ego = ego_on(&path, 1_000.0, 0.0, 10.0, 0.0);
    for side in [1.0, -1.0] {
        for &off in &offsets {
            let d = side * (EDGE + off);
            let mut samples = vec![(0.0, 1_080.0, 0.0, 0.0, 10.0)];
            samples.extend((6..=12).map(|k| {
                let t = f64::from(k);
                (t, 1_080.0 + 10.0 * t, d, 0.0, 10.0)
            }));
            let f = future(&path, &ego, trajectory(&path, &samples), 0.0);
            check("lateral edge past the reach", &f, &ego);
            cases += 1;
        }
    }
    // The rear edge: gap = s − 1004.5 for a stopped ego at s = 1000. The
    // actor is 30 m ahead at t0; from 6 s on it slides across the lane at
    // s = 1004.5 + off, its gap within 1e-9 m of zero.
    let stopped = ego_on(&path, 1_000.0, 0.0, 0.0, 0.0);
    for &off in &offsets {
        let mut samples = vec![(0.0, 1_034.5, 0.0, 0.0, 0.0)];
        samples.extend((6..=12).map(|k| {
            let d = -1.5 + 0.4 * f64::from(k - 6);
            (f64::from(k), 1_004.5 + off, d, 0.0, 0.0)
        }));
        let f = future(&path, &stopped, trajectory(&path, &samples), 0.0);
        check("rear edge past the reach", &f, &stopped);
        cases += 1;
    }
    assert_eq!(cases, 69);
}

#[test]
fn a_piece_past_the_reach_with_one_end_behind_the_ego_is_scanned() {
    // An oncoming car in the ego's lane, 60 m ahead at t0 and coming back
    // at 8 m/s: its piece from 7 s to 9 s runs from 4 m ahead of the ego's
    // t0 bumper to 12 m behind it.
    let path = road();
    let ego = ego_on(&path, 0.0, 0.0, 10.0, 0.0);
    let back = std::f64::consts::PI;
    let oncoming = trajectory(
        &path,
        &[
            (0.0, 64.5, 0.0, back, 8.0),
            (7.0, 8.5, 0.0, back, 8.0),
            (9.0, -7.5, 0.0, back, 8.0),
            (12.0, -31.5, 0.0, back, 8.0),
        ],
    );
    let f = future(&path, &ego, oncoming, 0.0);
    let past = |t: f64| f.proof(Seconds(t), Seconds(12.0));
    assert_eq!(past(6.5), SpanProof::Active);
    assert_eq!(past(8.0), SpanProof::Unproven);
    assert_eq!(past(10.0), SpanProof::Quiet);
    let (skips, outcome) = check("one end behind", &f, &ego);
    // From the reach to 7 s, and not one instant of the piece after it.
    assert!(skips.active.len() > 100, "{}", skips.active.len());
    assert!(skips.active.iter().all(|&t| t <= 7.0 + 1e-9));
    assert_ne!(outcome, SearchOutcome::Unconstrained);
}

#[test]
fn an_interval_opening_past_the_reach_queries_its_first_instant() {
    // A car stopped 5 m left of the ego's lane jumps into it between
    // 6.995 s and 7.005 s. The scan instant 7.00 s still sees it 2.5 m
    // out; 7.01 s lies in a piece that is in the lane throughout, so the
    // interval opens past the reach at an instant proved active. Only its
    // gap decides whether the interval is frontal: the unreacting ego has
    // driven 70.1 m by then.
    let path = road();
    let ego = ego_on(&path, 0.0, 0.0, 10.0, 0.0);
    for (case, s, frontal) in [
        ("cut-in ahead of the unreacting ego", 150.0, true),
        ("cut-in behind the unreacting ego", 40.0, false),
    ] {
        let cut_in = trajectory(
            &path,
            &[
                (0.0, s, 5.0, 0.0, 0.0),
                (6.995, s, 5.0, 0.0, 0.0),
                (7.005, s, 0.0, 0.0, 0.0),
                (12.0, s, 0.0, 0.0, 0.0),
            ],
        );
        let f = future(&path, &ego, cut_in, 0.0);
        assert_eq!(f.proof(Seconds(7.01), Seconds(12.0)), SpanProof::Active);
        let (skips, outcome) = check(case, &f, &ego);
        assert_eq!(outcome != SearchOutcome::Unconstrained, frontal, "{case}");
        // Every instant after the opening one is skipped.
        assert_eq!(skips.active.len(), 499, "{case}");
        assert!(skips.active[0] > 7.015, "{case}: {}", skips.active[0]);
    }
}

#[test]
fn a_non_frontal_interval_past_the_reach_stays_unrecorded() {
    // A car closes from 30 m behind at 25 m/s against the ego's 20 m/s. Its
    // gap turns non-negative at 1.38 s, when the unreacting ego is 27.6 m
    // further on, so the interval it opens is not frontal. It stays open,
    // in lane, to the horizon.
    let path = road();
    let ego = ego_on(&path, 100.0, 0.0, 20.0, 0.0);
    let f = future(&path, &ego, frenet_line(&path, 70.0, 0.2, 25.0, 0.0), 0.0);
    let (skips, outcome) = check("closing from behind", &f, &ego);
    assert!(skips.active.len() > 600, "{}", skips.active.len());
    assert_eq!(outcome, SearchOutcome::Unconstrained);
}

#[test]
fn the_reach_follows_the_alpha_model_and_the_horizon() {
    let path = road();
    let ego = ego_on(&path, 0.0, 0.0, 20.0, 0.0);
    let lead = future(&path, &ego, frenet_line(&path, 60.0, 0.0, 18.0, 0.0), 0.0);
    let configs = {
        // α = K·l whatever l₀: t_r = 1 + 5 s.
        let mut full = ZhuyiConfig::paper();
        full.alpha = AlphaModel::FullLatency;
        // t_r = 1 + 12·(1 − 1/30) s, past the horizon.
        let mut slow = ZhuyiConfig::paper();
        slow.confirmation_frames = 12;
        // The horizon before t_r = 5.83 s.
        let mut short = ZhuyiConfig::paper();
        short.horizon = Seconds(5.0);
        [
            ("full latency, l0 = 0.2 s", full, Seconds(0.2), 6.0),
            ("reach at the horizon", slow, L0, 12.0),
            ("horizon before t_r", short, L0, 5.0),
        ]
    };
    for (case, cfg, l0, expected) in configs {
        assert_eq!(reach(&cfg, l0), expected, "{case}");
        let e = TolerableLatencyEstimator::new(cfg).expect("valid config");
        let (skips, outcome) = check_with(case, &e, l0, &lead, &ego);
        assert_ne!(outcome, SearchOutcome::Unconstrained, "{case}");
        // The instants from the reach to the horizon, give or take the
        // one the accumulated clock rounds to either side of the reach.
        let past = ((cfg.horizon.value() - expected) / 0.01).round() as usize;
        assert!(
            skips.active.len() <= past + 1,
            "{case}: {}",
            skips.active.len()
        );
        assert!(
            skips.active.len() + 1 >= past,
            "{case}: {}",
            skips.active.len()
        );
    }
}

/// The scan's instants on its own clock: 0, then `dt` later, and so on,
/// `n` of them.
fn scan_clock(n: usize) -> Vec<f64> {
    std::iter::successors(Some(0.0), |t| Some(t + 0.01))
        .take(n)
        .collect()
}

/// Lateral offsets of a car out of the corridor, on the left, and in lane.
const OUT: f64 = 6.0;
const IN: f64 = 0.2;

#[test]
fn verdicts_flip_exactly_at_piece_ends() {
    // A lead 60 m ahead of a slow ego leaves and re-enters the lane every
    // 0.8 s, each time within 1 ms, so the pieces alternate between a
    // quiet one, a 1 ms crossing and an active one. Each piece ends
    // `offset` after a scan instant: halfway to the next (the next instant
    // already has the other verdict), on it (the absolute time `at`
    // samples there is the sample time itself), or within 1e-12 s of it.
    // t₀ is no multiple of the timestep, so the relative and absolute
    // times round differently. The first sample lies 0.5 s after t₀, so
    // the head is a piece of its own. The last one, at 11 s, heads into
    // the lane and crosses it 2 ms past the horizon, so the tail is quiet
    // only because the horizon bounds it.
    let path = road();
    let ego = ego_on(&path, 0.0, 0.0, 5.0, 0.0);
    let clock = scan_clock(1201);
    let (mut cases, mut margin_decides) = (0, 0);
    for t0 in [0.0037, 2.345_678_9, 1_234.567_89] {
        for offset in [0.005, 0.0, 1e-12, -1e-12, 2e-13, -2e-13] {
            let mut samples = Vec::new();
            let mut d = OUT;
            for k in (50..=1050).step_by(80) {
                // Sample times relative to t₀, as the trajectory holds them
                // less t₀.
                let t = t0 + clock[k] + offset - t0;
                samples.push((t, 60.0 + 10.0 * t, d, 0.0, 10.0));
                if offset == 0.0 && (Seconds(t0 + clock[k]) - Seconds(t0)).value() > clock[k] {
                    margin_decides += 1;
                }
                d = if d == OUT { IN } else { OUT };
                samples.push((t + 0.001, 60.0 + 10.0 * (t + 0.001), d, 0.0, 10.0));
            }
            // The tail: 0.02 m outside the corridor at the horizon, moving
            // into it at 10 m/s.
            let last = EDGE + 0.02 + 10.0 * (12.0 - 11.0);
            samples.push((11.0, 170.0, last, -std::f64::consts::FRAC_PI_2, 10.0));
            let absolute: Vec<_> = samples
                .iter()
                .map(|&(t, s, d, heading, speed)| (t0 + t, s, d, heading, speed))
                .collect();
            let f = future(&path, &ego, trajectory(&path, &absolute), t0);
            let (skips, outcome) = check(&format!("t0 = {t0}, offset {offset}"), &f, &ego);
            assert_ne!(outcome, SearchOutcome::Unconstrained, "{t0}, {offset}");
            assert!(skips.quiet > 400, "{t0}, {offset}: {}", skips.quiet);
            assert!(!skips.active.is_empty(), "{t0}, {offset}");
            cases += 1;
        }
    }
    assert_eq!(cases, 18);
    // Without `REACH_MARGIN` some verdict would reach an instant of the
    // next piece.
    assert!(margin_decides > 0, "the margin is never needed");
}

#[test]
fn a_single_sample_heads_a_tail_that_flips_at_once() {
    // One sample 3.005 s after t₀, moving sideways at 10 m/s from 0.02 m
    // beyond a corridor edge. The head holds it there; the tail carries it
    // across the edge before the next scan instant.
    let path = road();
    let ego = ego_on(&path, 0.0, 0.0, 10.0, 0.0);
    let t0 = 0.123_456_7;
    let side = std::f64::consts::FRAC_PI_2;
    // The quiet head skips the 301 instants from 0 to 3.00 s; the active
    // one ends before the reach, so each of its instants is queried.
    for (case, d, heading, quiet) in [
        ("quiet head, entering tail", EDGE + 0.02, -side, 301),
        ("active head, leaving tail", EDGE - 0.02, side, 0),
    ] {
        let one = trajectory(&path, &[(t0 + 3.005, 80.0, d, heading, 10.0)]);
        let f = future(&path, &ego, one, t0);
        let head = f.future.prove_span(Seconds(1.0), Seconds(12.0));
        assert_ne!(head.proof, SpanProof::Unproven, "{case}");
        assert!(
            (head.until.value() - 3.005).abs() < 2e-9,
            "{case}: {head:?}"
        );
        let (skips, outcome) = check(case, &f, &ego);
        assert_ne!(outcome, SearchOutcome::Unconstrained, "{case}");
        assert_eq!(skips.quiet, quiet, "{case}");
    }
}

/// xorshift64: a fixed, dependency-free stream for the sweep.
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

#[test]
fn seeded_random_futures_agree() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let (mut skipped, mut active, mut threats) = (0u64, 0usize, 0usize);
    for case in 0..250 {
        let origin = Vec2::new(rng.range(-1e4, 1e4), rng.range(-1e4, 1e4));
        let path = Path::straight(origin, Radians(rng.range(-3.1, 3.1)), Meters(3000.0));
        let ego_s = rng.range(50.0, 500.0);
        let ego = ego_on(
            &path,
            ego_s,
            rng.range(-0.5, 0.5),
            if case % 5 == 0 {
                0.0
            } else {
                rng.range(0.0, 35.0)
            },
            rng.range(-4.0, 2.0),
        );
        // Every third case keeps to the lane: its lateral draws shrink
        // tenfold and its headings a hundredfold, so the tail stays in the
        // corridor and spans past the reach prove active.
        let lane = if case % 3 == 1 { 0.1 } else { 1.0 };
        let n = 1 + (rng.unit() * 30.0) as usize;
        let (mut t, mut s, mut d) = (rng.range(-1.0, 1.0), ego_s + rng.range(-40.0, 90.0), 0.0);
        let mut samples = Vec::with_capacity(n);
        let (mut vs, mut vd) = (rng.range(-5.0, 30.0), lane * rng.range(-4.0, 4.0));
        d += lane * rng.range(-8.0, 8.0);
        for _ in 0..n {
            let heading = lane * lane * rng.range(-3.1, 3.1);
            samples.push((t, s, d, heading, rng.range(0.0, 30.0)));
            let dt = rng.range(0.03, 0.6);
            t += dt;
            s += vs * dt;
            d += vd * dt;
            vs += rng.range(-3.0, 3.0);
            vd += lane * rng.range(-2.0, 2.0);
        }
        let f = future(
            &path,
            &ego,
            trajectory(&path, &samples),
            rng.range(-0.5, 1.0),
        );
        let (skips, outcome) = check(&format!("random case {case}"), &f, &ego);
        skipped += skips.quiet;
        active += skips.active.len();
        threats += usize::from(outcome != SearchOutcome::Unconstrained);
    }
    assert!(skipped > 50_000, "the sweep exercises the skip ({skipped})");
    assert!(
        active > 10_000,
        "the sweep skips active instants ({active})"
    );
    assert!(threats > 25, "the sweep finds threats ({threats})");
}

/// The curved cut-in's road: a left arc of radius 400 m sweeping 3.75 rad.
fn arc_road() -> Path {
    Path::arc(
        Vec2::ZERO,
        Radians(0.0),
        Meters(400.0),
        Meters(1500.0),
        Meters(2.0),
    )
}

#[test]
fn arc_instants_in_other_lanes_are_skipped() {
    // The ego in the middle lane (d = 3.7) of the three-lane curved road.
    let path = arc_road();
    let ego = ego_on(&path, 100.0, 3.7, 25.0, 0.0);
    for (case, d0, vd, threat) in [
        ("left lane", 7.4, 0.0, false),
        ("right lane", 0.0, 0.0, false),
        ("cut-in from the left", 7.4, -1.2, true),
    ] {
        let f = future(&path, &ego, frenet_line(&path, 150.0, d0, 20.0, vd), 0.0);
        let (Skips { quiet: skipped, .. }, outcome) = check(case, &f, &ego);
        assert!(
            skipped > 200,
            "{case}: arc instants were skipped ({skipped})"
        );
        assert_eq!(outcome != SearchOutcome::Unconstrained, threat, "{case}");
    }
}

#[test]
fn a_straight_line_prediction_drifting_off_the_arc_is_skipped() {
    // A constant-acceleration rollout is a straight world line: an actor
    // 40 m ahead in the ego's lane, heading along the road, leaves the
    // corridor to the outside of the left curve after about 40 m.
    let path = arc_road();
    let ego = ego_on(&path, 50.0, 0.0, 25.0, 0.0);
    let start = path.pose_at(Meters(90.0));
    let direction = Vec2::from_heading(start.heading);
    let points = (0..=50)
        .map(|k| {
            let t = 0.1 * f64::from(k);
            TrajectoryPoint {
                time: Seconds(t),
                position: start.position + direction * (18.0 * t + 0.5 * t * t),
                heading: start.heading,
                speed: MetersPerSecond(18.0 + t),
                accel: MetersPerSecondSquared(1.0),
            }
        })
        .collect();
    let drifting = Trajectory::new(points, 1.0).expect("valid trajectory");
    let f = future(&path, &ego, drifting, 0.0);
    assert!(
        f.proof(Seconds(0.0), Seconds(12.0)) == SpanProof::Unproven,
        "in lane at t0"
    );
    let (Skips { quiet: skipped, .. }, outcome) = check("straight-line drift", &f, &ego);
    assert!(
        skipped > 500,
        "the drifted instants were skipped ({skipped})"
    );
    assert_ne!(
        outcome,
        SearchOutcome::Unconstrained,
        "the lead is a threat"
    );
}

#[test]
fn instants_past_the_arc_end_are_scanned() {
    // The road ends at s = 1500; beyond it the last segment extrapolates
    // and the certificate declines, so those instants are queried.
    let path = arc_road();
    let ego = ego_on(&path, 1440.0, 0.0, 20.0, 0.0);
    let beside = future(&path, &ego, frenet_line(&path, 1460.0, 3.7, 22.0, 0.0), 0.0);
    let quiet = SpanProof::Quiet;
    assert_eq!(beside.proof(Seconds(0.5), Seconds(12.0)), quiet);
    assert!(
        beside.proof(Seconds(4.0), Seconds(12.0)) == SpanProof::Unproven,
        "s = 1548"
    );
    let (Skips { quiet: skipped, .. }, _) = check("beside, past the end", &beside, &ego);
    assert!(
        skipped > 100,
        "instants before the end were skipped ({skipped})"
    );
    let ahead = future(&path, &ego, frenet_line(&path, 1480.0, 0.0, 12.0, 0.0), 0.0);
    let (_, outcome) = check("ahead, past the end", &ahead, &ego);
    assert_ne!(
        outcome,
        SearchOutcome::Unconstrained,
        "the lead is a threat"
    );
}

#[test]
fn the_start_of_a_near_full_turn_is_claimed_by_the_extended_end() {
    // A 6.25 rad arc whose end stops 16 m short of its start. The ego
    // drives on, 25 m to the right of the extended last segment and
    // 30 m past the end: that line, not the circle, is the nearest part
    // of the path to it, and to the actor ahead in its lane, whose
    // distance to the circle is about 31.7 m. A certificate that trusted
    // the circle there would put the actor 6.7 m out of the corridor.
    let path = Path::arc(
        Vec2::ZERO,
        Radians(0.0),
        Meters(480.0),
        Meters(3000.0),
        Meters(2.0),
    );
    let ego = ego_on(&path, 3030.0, -25.0, 25.0, 0.0);
    let lead = future(
        &path,
        &ego,
        frenet_line(&path, 3080.0, -25.0, 10.0, 0.0),
        0.0,
    );
    let at_t0 = lead.proof(Seconds(0.0), Seconds(12.0));
    assert_eq!(at_t0, SpanProof::Unproven);
    let (Skips { quiet: skipped, .. }, outcome) = check("in lane past the end", &lead, &ego);
    assert_eq!(skipped, 0, "the extension claims every instant");
    assert_ne!(
        outcome,
        SearchOutcome::Unconstrained,
        "the lead is a threat"
    );
    // 35 m to the left the circle wins again, and the actor is quiet.
    let inside = future(
        &path,
        &ego,
        frenet_line(&path, 3080.0, 10.0, 10.0, 0.0),
        0.0,
    );
    let (Skips { quiet: skipped, .. }, _) = check("inside the circle", &inside, &ego);
    assert!(skipped > 500, "the circle proves it quiet ({skipped})");
}

#[test]
fn seeded_random_arc_futures_agree() {
    let mut rng = Rng(0x2545_f491_4f6c_dd1d);
    let (mut skipped, mut threats) = (0u64, 0usize);
    for case in 0..120 {
        let radius = rng.range(150.0, 900.0) * if case % 2 == 0 { 1.0 } else { -1.0 };
        let sweep = rng.range(0.3, 6.2);
        let path = Path::arc(
            Vec2::new(rng.range(-1e4, 1e4), rng.range(-1e4, 1e4)),
            Radians(rng.range(-3.1, 3.1)),
            Meters(radius),
            Meters(sweep * radius.abs()),
            Meters(2.0),
        );
        let length = path.length().value();
        let ego_s = rng.range(-50.0, length + 50.0);
        let ego = ego_on(
            &path,
            ego_s,
            rng.range(-1.0, 8.0),
            if case % 5 == 0 {
                0.0
            } else {
                rng.range(0.0, 35.0)
            },
            rng.range(-4.0, 2.0),
        );
        let n = 1 + (rng.unit() * 30.0) as usize;
        let (mut t, mut s, mut d) = (rng.range(-1.0, 1.0), ego_s + rng.range(-40.0, 90.0), 0.0);
        let mut samples = Vec::with_capacity(n);
        let (mut vs, mut vd) = (rng.range(-5.0, 30.0), rng.range(-4.0, 4.0));
        d += rng.range(-10.0, 14.0);
        for _ in 0..n {
            samples.push((t, s, d, rng.range(-3.1, 3.1), rng.range(0.0, 30.0)));
            let dt = rng.range(0.03, 0.6);
            t += dt;
            s += vs * dt;
            d += vd * dt;
            vs += rng.range(-3.0, 3.0);
            vd += rng.range(-2.0, 2.0);
        }
        let f = future(
            &path,
            &ego,
            trajectory(&path, &samples),
            rng.range(-0.5, 1.0),
        );
        let (skips, outcome) = check(&format!("random arc case {case}"), &f, &ego);
        assert_eq!(
            skips.active,
            [],
            "random arc case {case}: an arc proves nothing active"
        );
        skipped += skips.quiet;
        threats += usize::from(outcome != SearchOutcome::Unconstrained);
    }
    assert!(skipped > 20_000, "the sweep exercises the skip ({skipped})");
    assert!(threats > 10, "the sweep finds threats ({threats})");
}
