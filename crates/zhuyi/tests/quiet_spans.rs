//! The threat scan skips instants a `TrajectoryFuture` proves quiet. That
//! skip must be invisible: every estimate, explanation and `SearchStats`
//! equals the one computed through a wrapper that exposes only `at` (and so
//! proves nothing). The straight-road cases put span ends where a wrong
//! proof would change the answer: on opposite sides of the corridor, one
//! behind and one ahead of the ego, and within 1e-9 m of an edge. On arcs
//! each instant is decided alone from the circle; the arc cases put
//! actors in the other lanes, off the curve, past the arc's end, and
//! where the extended end segment rather than the circle is nearest.

use av_core::prelude::*;
use av_core::trajectory::TrajectoryPoint;
use std::cell::Cell;
use zhuyi::future::{ActorFuture, RelativeState, TrajectoryFuture};
use zhuyi::{EgoKinematics, SearchOutcome, TolerableLatencyEstimator, ZhuyiConfig};

const L0: Seconds = Seconds(1.0 / 30.0);

/// Corridor half-width for two cars and the paper's 0.3 m margin.
const EDGE: f64 = 1.8 + 0.3;

/// Forwards only `at`: the reference scan, which queries every instant.
struct AtOnly<'a>(TrajectoryFuture<'a>);

impl ActorFuture for AtOnly<'_> {
    fn at(&self, tn: Seconds) -> RelativeState {
        self.0.at(tn)
    }

    fn horizon(&self) -> Seconds {
        self.0.horizon()
    }
}

/// Forwards everything and counts the instants proved quiet.
struct Counting<'a> {
    inner: TrajectoryFuture<'a>,
    quiet: Cell<u64>,
}

impl ActorFuture for Counting<'_> {
    fn at(&self, tn: Seconds) -> RelativeState {
        self.inner.at(tn)
    }

    fn horizon(&self) -> Seconds {
        self.inner.horizon()
    }

    fn provably_quiet(&self, tn: Seconds, horizon: Seconds) -> bool {
        let quiet = self.inner.provably_quiet(tn, horizon);
        self.quiet.set(self.quiet.get() + u64::from(quiet));
        quiet
    }
}

fn estimator() -> TolerableLatencyEstimator {
    TolerableLatencyEstimator::new(ZhuyiConfig::paper()).expect("paper config valid")
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

fn future<'a>(
    path: &'a Path,
    ego: &VehicleState,
    trajectory: Trajectory,
    t0: f64,
) -> TrajectoryFuture<'a> {
    TrajectoryFuture::new(
        path,
        ego,
        Dimensions::CAR,
        Dimensions::CAR,
        trajectory,
        Seconds(t0),
        Meters(0.3),
    )
}

/// Runs `tolerable_latency` and `explain` through the skipping future and
/// through the `at`-only reference, asserts they agree bit for bit (the
/// `Debug` form prints every f64 exactly, so it separates any two values),
/// and returns the number of instants the explain scan skipped and its
/// outcome.
fn check(case: &str, future: &TrajectoryFuture<'_>, ego: &VehicleState) -> (u64, SearchOutcome) {
    let e = estimator();
    let kin = EgoKinematics::from_state(ego);
    let skipping = Counting {
        inner: future.clone(),
        quiet: Cell::new(0),
    };
    let reference = AtOnly(future.clone());
    let explained = e.explain(kin, &skipping, L0);
    let skipped = skipping.quiet.get();
    assert_eq!(
        format!("{explained:?}"),
        format!("{:?}", e.explain(kin, &reference, L0)),
        "{case}: explain differs from the at-only scan"
    );
    assert_eq!(
        format!("{:?}", e.tolerable_latency(kin, &skipping, L0)),
        format!("{:?}", e.tolerable_latency(kin, &reference, L0)),
        "{case}: tolerable_latency differs from the at-only scan"
    );
    (skipped, explained.estimate.outcome)
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
    let (skipped, outcome) = check(
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
    let (skipped, outcome) = check("tail crossing", &f, &ego);
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
    assert!(f.provably_quiet(Seconds(0.5), horizon));
    assert!(f.provably_quiet(horizon, horizon));
    assert!(!f.provably_quiet(Seconds(1.0 + 1e-9), horizon));
    assert!(f.provably_quiet(Seconds(1.0 + 1e-9), Seconds(2.0)));
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
    let (skipped, outcome) = check("stopped ego", &future(&path, &ego, pass, 0.0), &ego);
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
    let (skipped, outcome) = check("far crossing", &future(&path, &ego, crossing, 3.0), &ego);
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
    let (skipped, outcome) = check("far pass", &future(&path, &stopped, pass, 0.0), &stopped);
    assert!(skipped > 900, "far receding tail was skipped ({skipped})");
    assert_ne!(outcome, SearchOutcome::Unconstrained);
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
    let (mut skipped, mut threats) = (0u64, 0usize);
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
        let n = 1 + (rng.unit() * 30.0) as usize;
        let (mut t, mut s, mut d) = (rng.range(-1.0, 1.0), ego_s + rng.range(-40.0, 90.0), 0.0);
        let mut samples = Vec::with_capacity(n);
        let (mut vs, mut vd) = (rng.range(-5.0, 30.0), rng.range(-4.0, 4.0));
        d += rng.range(-8.0, 8.0);
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
        let (quiet, outcome) = check(&format!("random case {case}"), &f, &ego);
        skipped += quiet;
        threats += usize::from(outcome != SearchOutcome::Unconstrained);
    }
    assert!(skipped > 50_000, "the sweep exercises the skip ({skipped})");
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
        let (skipped, outcome) = check(case, &f, &ego);
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
        !f.provably_quiet(Seconds(0.0), Seconds(12.0)),
        "in lane at t0"
    );
    let (skipped, outcome) = check("straight-line drift", &f, &ego);
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
    assert!(beside.provably_quiet(Seconds(0.5), Seconds(12.0)));
    assert!(
        !beside.provably_quiet(Seconds(4.0), Seconds(12.0)),
        "s = 1548"
    );
    let (skipped, _) = check("beside, past the end", &beside, &ego);
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
    assert!(!lead.provably_quiet(Seconds(0.0), Seconds(12.0)));
    let (skipped, outcome) = check("in lane past the end", &lead, &ego);
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
    let (skipped, _) = check("inside the circle", &inside, &ego);
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
        let (quiet, outcome) = check(&format!("random arc case {case}"), &f, &ego);
        skipped += quiet;
        threats += usize::from(outcome != SearchOutcome::Unconstrained);
    }
    assert!(skipped > 20_000, "the sweep exercises the skip ({skipped})");
    assert!(threats > 10, "the sweep finds threats ({threats})");
}
