//! Zhuyi's model over a scene ([`estimate_scene`]), and the offline
//! (pre-deployment) analysis of a recorded scenario trace (paper §3.1).
//!
//! [`estimate_scene`] is the one step both uses of the model run: Eqs. 1–5
//! over one scene, given each actor's futures. The online estimator passes
//! its predictor's futures (§3.2); the offline analysis passes the trace's.
//!
//! After a scenario-based test, the trace contains the ground-truth states
//! of the ego and all actors at every timestep. The pipeline replays the
//! trace: at each analyzed step the future of each actor is taken *from the
//! trace itself* (the oracle predictor — the set `T` has size one, exactly
//! as §3.1 describes), and [`estimate_scene`] turns those futures into
//! per-camera FPR requirements.

use crate::aggregate::{aggregate_latencies, Aggregation};
use crate::camera_fpr::{per_camera_fpr, ActorEstimate, CameraEstimate};
use crate::estimator::{EgoKinematics, SearchOutcome, SearchStats, TolerableLatencyEstimator};
use crate::future::{ActorFuture, TrajectoryFuture};
use av_core::prelude::*;
use av_core::scene::Scene;
use av_core::trajectory::TrajectoryPoint;
use av_perception::camera::CameraKind;
use av_perception::rig::CameraRig;
use serde::{Deserialize, Serialize};

/// Parameters of a trace analysis run.
///
/// There is no Eq. 4 aggregation to choose: the oracle gives each actor
/// one future, and every aggregation of one latency is that latency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// The processing latency l₀ the traced system was running at
    /// (1 / FPR₀; the paper's tests default to FPR₀ = 30).
    pub current_latency: Seconds,
    /// Analyze every `stride`-th scene (1 = every step). The trace is
    /// recorded at simulation resolution; Zhuyi need not run that often.
    pub stride: usize,
    /// Subsample actor future trajectories to roughly this spacing to
    /// bound per-query cost; interpolation fills the gaps.
    pub future_sample_spacing: Seconds,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            current_latency: Seconds(1.0 / 30.0),
            stride: 10,
            future_sample_spacing: Seconds(0.05),
        }
    }
}

/// Zhuyi's output at one analyzed timestep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepAnalysis {
    /// Scenario time of the analyzed scene.
    pub time: Seconds,
    /// Ego speed at that time (for the figures' acceleration panels).
    pub ego_speed: MetersPerSecond,
    /// Ego acceleration at that time.
    pub ego_accel: MetersPerSecondSquared,
    /// Per-actor tolerable latencies.
    pub actors: Vec<ActorEstimate>,
    /// Per-camera requirements (Eq. 5), indexed like the rig.
    pub cameras: Vec<CameraEstimate>,
}

/// The full per-timestep analysis of one trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TraceAnalysis {
    /// One entry per analyzed step, in time order.
    pub steps: Vec<StepAnalysis>,
}

impl TraceAnalysis {
    /// The highest per-camera FPR estimate across all cameras and all
    /// times — Table 1's "maximum estimated FPR" for a run.
    pub fn max_camera_fpr(&self) -> Option<Fpr> {
        self.steps
            .iter()
            .flat_map(|s| s.cameras.iter())
            .map(|c| c.fpr())
            .max_by(|a, b| a.value().partial_cmp(&b.value()).expect("finite rates"))
    }

    /// The maximum over time of the *sum* of FPR estimates across the given
    /// camera kinds — Table 1's max(F_c1 + F_c2 + F_c3) column.
    pub fn max_total_fpr(&self, kinds: &[CameraKind]) -> Option<Fpr> {
        self.steps
            .iter()
            .map(|s| {
                s.cameras
                    .iter()
                    .filter(|c| kinds.contains(&c.kind))
                    .map(|c| c.fpr())
                    .sum::<Fpr>()
            })
            .max_by(|a, b| a.value().partial_cmp(&b.value()).expect("finite rates"))
    }

    /// Time series of one camera's tolerable latency (the per-camera panels
    /// of Figs. 4–6).
    pub fn camera_latency_series(&self, kind: CameraKind) -> Vec<(Seconds, Seconds)> {
        self.steps
            .iter()
            .filter_map(|s| {
                s.cameras
                    .iter()
                    .find(|c| c.kind == kind)
                    .map(|c| (s.time, c.latency))
            })
            .collect()
    }

    /// Time series of ego acceleration (the figures' panel (e)).
    pub fn accel_series(&self) -> Vec<(Seconds, MetersPerSecondSquared)> {
        self.steps.iter().map(|s| (s.time, s.ego_accel)).collect()
    }

    /// Total constraint evaluations spent across the whole analysis.
    pub fn total_constraint_evaluations(&self) -> u64 {
        self.steps
            .iter()
            .flat_map(|s| s.actors.iter())
            .map(|a| a.stats.constraint_evaluations)
            .sum()
    }
}

/// Runs the pre-deployment Zhuyi analysis over a recorded trace.
///
/// `path` is the road reference the scenario was driven on (longitudinal
/// distances are measured along it), `rig` the camera configuration for
/// Eq. 5.
///
/// Scenes must be in time order. Returns an empty analysis for an empty
/// trace.
///
/// ```no_run
/// use av_core::prelude::*;
/// use av_perception::rig::CameraRig;
/// use av_scenarios::prelude::*;
/// use zhuyi::pipeline::{analyze_trace, PipelineConfig};
/// use zhuyi::{TolerableLatencyEstimator, ZhuyiConfig};
///
/// # fn main() -> Result<(), zhuyi::config::ConfigError> {
/// let scenario = Scenario::build(ScenarioId::VehicleFollowing, 0);
/// let trace = scenario.run_at(Fpr(30.0));
/// let estimator = TolerableLatencyEstimator::new(ZhuyiConfig::paper())?;
/// let analysis = analyze_trace(&trace.scenes, scenario.road.path(),
///                              &CameraRig::drive_av(), &estimator,
///                              &PipelineConfig::default());
/// println!("peak requirement: {}", analysis.max_camera_fpr().expect("steps"));
/// # Ok(())
/// # }
/// ```
pub fn analyze_trace(
    scenes: &[Scene],
    path: &Path,
    rig: &CameraRig,
    estimator: &TolerableLatencyEstimator,
    config: &PipelineConfig,
) -> TraceAnalysis {
    let stride = config.stride.max(1);
    let mut steps = Vec::new();
    for i in (0..scenes.len()).step_by(stride) {
        steps.push(analyze_step(scenes, i, path, rig, estimator, config));
    }
    TraceAnalysis { steps }
}

/// Analyzes a single step `i` of the trace (exposed for incremental use):
/// [`estimate_scene`] over the oracle's one recorded future per actor.
///
/// # Panics
///
/// Panics if `i` is out of bounds for `scenes`.
pub fn analyze_step(
    scenes: &[Scene],
    i: usize,
    path: &Path,
    rig: &CameraRig,
    estimator: &TolerableLatencyEstimator,
    config: &PipelineConfig,
) -> StepAnalysis {
    let scene = &scenes[i];
    let (actors, cameras) = estimate_scene(
        scene,
        path,
        rig,
        estimator,
        Aggregation::default(),
        config.current_latency,
        |actor| oracle_trajectory(scenes, i, actor.id, config, estimator),
    );
    StepAnalysis {
        time: scene.time,
        ego_speed: scene.ego.state.speed,
        ego_accel: scene.ego.state.accel,
        actors,
        cameras,
    }
}

/// Runs Eqs. 1–5 over one scene: the step both uses of the model share.
///
/// `futures` yields each actor's futures as absolute-time trajectories;
/// an actor with none is left out. Each future is measured along `path`
/// ([`TrajectoryFuture`]) and searched for its tolerable latency
/// (Eqs. 1–3) at l₀ = `current_latency`. Eq. 4 folds an actor's latencies
/// by `aggregation` and sums its search stats; the actor is
/// `Unconstrained` when every future was, `Infeasible` when some future
/// was and the folded latency is at `min_latency`, and `Tolerable`
/// otherwise. Eq. 5 then gives the per-camera requirements, indexed like
/// `rig`.
///
/// For one future the fold returns that future's latency, outcome and
/// stats unchanged, so the oracle's analysis ([`analyze_step`]) and the
/// online estimator agree bit for bit on the same future.
pub fn estimate_scene<F, I>(
    scene: &Scene,
    path: &Path,
    rig: &CameraRig,
    estimator: &TolerableLatencyEstimator,
    aggregation: Aggregation,
    current_latency: Seconds,
    mut futures: F,
) -> (Vec<ActorEstimate>, Vec<CameraEstimate>)
where
    F: FnMut(&Agent) -> I,
    I: IntoIterator<Item = Trajectory>,
{
    let cfg = estimator.config();
    let ego = EgoKinematics::from_state(&scene.ego.state);
    let mut actors = Vec::with_capacity(scene.actors.len());
    for actor in &scene.actors {
        let mut samples = Vec::new();
        let mut stats = SearchStats::default();
        let mut any_infeasible = false;
        let mut all_unconstrained = true;
        for trajectory in futures(actor) {
            let future = TrajectoryFuture::new(
                path,
                &scene.ego.state,
                scene.ego.dims,
                actor.dims,
                trajectory,
                scene.time,
                cfg.corridor_margin,
            );
            let est = estimator.tolerable_latency(ego, &future, current_latency);
            stats.absorb(est.stats);
            any_infeasible |= est.outcome == SearchOutcome::Infeasible;
            all_unconstrained &= est.outcome == SearchOutcome::Unconstrained;
            samples.push((est.latency, future.probability()));
        }
        if samples.is_empty() {
            continue;
        }
        let latency = aggregate_latencies(&samples, aggregation).unwrap_or(cfg.max_latency);
        let outcome = if all_unconstrained {
            SearchOutcome::Unconstrained
        } else if any_infeasible && latency <= cfg.min_latency {
            SearchOutcome::Infeasible
        } else {
            SearchOutcome::Tolerable
        };
        actors.push(ActorEstimate {
            actor: actor.id,
            latency,
            outcome,
            stats,
        });
    }
    let cameras = per_camera_fpr(rig, scene, &actors, cfg.max_latency);
    (actors, cameras)
}

/// Extracts the ground-truth future of `actor` starting at scene `i`: the
/// oracle predictor of §3.1 (|T| = 1).
fn oracle_trajectory(
    scenes: &[Scene],
    i: usize,
    actor: ActorId,
    config: &PipelineConfig,
    estimator: &TolerableLatencyEstimator,
) -> Option<Trajectory> {
    let t0 = scenes[i].time;
    let horizon = estimator.config().horizon;
    let spacing = config.future_sample_spacing.value().max(1e-6);
    let mut points: Vec<TrajectoryPoint> = Vec::new();
    let mut next_sample = t0.value();
    for scene in &scenes[i..] {
        if (scene.time - t0).value() > horizon.value() {
            break;
        }
        if scene.time.value() + 1e-12 < next_sample {
            continue;
        }
        let Some(agent) = scene.actor(actor) else {
            break; // actor despawned; its recorded future ends here
        };
        points.push(TrajectoryPoint {
            time: scene.time,
            position: agent.state.position,
            heading: agent.state.heading,
            speed: agent.state.speed,
            accel: agent.state.accel,
        });
        next_sample = scene.time.value() + spacing;
    }
    Trajectory::new(points, 1.0).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ZhuyiConfig;

    fn car(id: u32, x: f64, v: f64, a: f64) -> Agent {
        Agent::new(
            ActorId(id),
            if v == 0.0 && a == 0.0 && id != 0 {
                ActorKind::StaticObstacle
            } else {
                ActorKind::Vehicle
            },
            Dimensions::CAR,
            VehicleState::new(
                Vec2::new(x, 0.0),
                Radians(0.0),
                MetersPerSecond(v),
                MetersPerSecondSquared(a),
            ),
        )
    }

    /// A trace of an ego cruising at 20 m/s toward a stopped obstacle
    /// ~100 m ahead (closing over time).
    fn closing_trace(steps: usize, dt: f64) -> Vec<Scene> {
        (0..steps)
            .map(|k| {
                let t = k as f64 * dt;
                Scene::new(
                    Seconds(t),
                    car(0, 20.0 * t, 20.0, 0.0),
                    vec![car(1, 100.0, 0.0, 0.0)],
                )
            })
            .collect()
    }

    fn setup() -> (Path, CameraRig, TolerableLatencyEstimator, PipelineConfig) {
        (
            Path::straight(Vec2::ZERO, Radians(0.0), Meters(2000.0)),
            CameraRig::drive_av(),
            TolerableLatencyEstimator::new(ZhuyiConfig::paper()).expect("valid"),
            PipelineConfig::default(),
        )
    }

    #[test]
    fn empty_trace_yields_empty_analysis() {
        let (path, rig, est, cfg) = setup();
        let analysis = analyze_trace(&[], &path, &rig, &est, &cfg);
        assert!(analysis.steps.is_empty());
        assert_eq!(analysis.max_camera_fpr(), None);
    }

    #[test]
    fn requirement_tightens_as_ego_closes() {
        let (path, rig, est, mut cfg) = setup();
        cfg.stride = 50; // analyze every 0.5 s
        let trace = closing_trace(400, 0.01); // 4 s, ends 20 m short
        let analysis = analyze_trace(&trace, &path, &rig, &est, &cfg);
        assert!(!analysis.steps.is_empty());
        let front: Vec<_> = analysis.camera_latency_series(CameraKind::FrontWide);
        let first = front.first().expect("nonempty").1;
        let last = front.last().expect("nonempty").1;
        assert!(
            last < first,
            "front-camera latency must tighten while closing: {first} -> {last}"
        );
    }

    #[test]
    fn side_cameras_stay_idle_without_side_actors() {
        let (path, rig, est, mut cfg) = setup();
        cfg.stride = 100;
        let trace = closing_trace(300, 0.01);
        let analysis = analyze_trace(&trace, &path, &rig, &est, &cfg);
        for (_, latency) in analysis.camera_latency_series(CameraKind::Left) {
            assert_eq!(
                latency,
                Seconds(1.0),
                "idle side camera must sit at max latency"
            );
        }
        // Max camera FPR is therefore set by the front camera.
        let max = analysis.max_camera_fpr().expect("nonempty");
        let front_max = analysis
            .camera_latency_series(CameraKind::FrontWide)
            .iter()
            .map(|(_, l)| Fpr::from_latency(*l).value())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((max.value() - front_max.max(1.0)).abs() < 1e-9);
    }

    #[test]
    fn total_fpr_sums_selected_cameras() {
        let (path, rig, est, mut cfg) = setup();
        cfg.stride = 100;
        let trace = closing_trace(300, 0.01);
        let analysis = analyze_trace(&trace, &path, &rig, &est, &cfg);
        let kinds = [CameraKind::FrontWide, CameraKind::Left, CameraKind::Right];
        let total = analysis.max_total_fpr(&kinds).expect("nonempty");
        let front_only = analysis
            .max_total_fpr(&[CameraKind::FrontWide])
            .expect("nonempty");
        // Idle sides contribute 1 FPR each.
        assert!((total.value() - front_only.value() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stride_reduces_step_count() {
        let (path, rig, est, mut cfg) = setup();
        let trace = closing_trace(200, 0.01);
        cfg.stride = 1;
        let dense = analyze_trace(&trace, &path, &rig, &est, &cfg);
        cfg.stride = 20;
        let sparse = analyze_trace(&trace, &path, &rig, &est, &cfg);
        assert_eq!(dense.steps.len(), 200);
        assert_eq!(sparse.steps.len(), 10);
        assert!(sparse.total_constraint_evaluations() < dense.total_constraint_evaluations());
    }

    #[test]
    fn despawned_actor_future_truncates() {
        let (path, rig, est, mut cfg) = setup();
        cfg.stride = 1;
        // Actor exists for the first 50 steps only.
        let mut trace = closing_trace(100, 0.01);
        for scene in trace.iter_mut().skip(50) {
            scene.actors.clear();
        }
        let analysis = analyze_trace(&trace, &path, &rig, &est, &cfg);
        // Steps after despawn have no actor estimates.
        assert!(analysis.steps[60].actors.is_empty());
        // Steps before still do.
        assert!(!analysis.steps[0].actors.is_empty());
    }

    #[test]
    fn accel_series_matches_trace() {
        let (path, rig, est, mut cfg) = setup();
        cfg.stride = 10;
        let trace = closing_trace(100, 0.01);
        let analysis = analyze_trace(&trace, &path, &rig, &est, &cfg);
        for (_, a) in analysis.accel_series() {
            assert_eq!(a, MetersPerSecondSquared(0.0));
        }
    }
}
