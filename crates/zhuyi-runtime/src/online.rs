//! Online (post-deployment) Zhuyi estimation (paper §3.2, Fig. 3).
//!
//! The deployed AV cannot see ground truth: the ego's and actors' current
//! states come from the perceived world model, and future states from a
//! trajectory predictor. The online estimator runs the same Eq. 1–5 step
//! as the offline analysis ([`zhuyi::pipeline::estimate_scene`]) over
//! that perceived information, producing the per-camera processing-rate
//! requirements that feed the safety check and the work prioritizer.

use av_core::prelude::*;
use av_core::scene::Scene;
use av_perception::rig::CameraRig;
use av_prediction::predictor::TrajectoryPredictor;
use serde::{Deserialize, Serialize};
use zhuyi::aggregate::Aggregation;
use zhuyi::camera_fpr::{ActorEstimate, CameraEstimate};
use zhuyi::config::{validate_duration, ConfigError};
use zhuyi::estimator::TolerableLatencyEstimator;
use zhuyi::pipeline::estimate_scene;
use zhuyi::ZhuyiConfig;

/// Configuration of the online estimator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineConfig {
    /// The underlying Zhuyi model parameters.
    pub zhuyi: ZhuyiConfig,
    /// Eq. 4 aggregation across predicted trajectories.
    pub aggregation: Aggregation,
    /// How far ahead the predictor is asked to roll trajectories. Must be
    /// positive and finite.
    pub prediction_horizon: Seconds,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            zhuyi: ZhuyiConfig::paper(),
            aggregation: Aggregation::WorstCase,
            prediction_horizon: Seconds(8.0),
        }
    }
}

/// One online estimation step's output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineEstimates {
    /// When the estimate was produced.
    pub time: Seconds,
    /// Per-actor aggregated tolerable latencies.
    pub actors: Vec<ActorEstimate>,
    /// Per-camera requirements (Eq. 5), indexed like the rig.
    pub cameras: Vec<CameraEstimate>,
}

impl OnlineEstimates {
    /// The requirement for a camera of the given kind, if present.
    pub fn camera(&self, kind: av_perception::camera::CameraKind) -> Option<&CameraEstimate> {
        self.cameras.iter().find(|c| c.kind == kind)
    }
}

/// Runs the Zhuyi model online over perceived state.
#[derive(Debug, Clone)]
pub struct OnlineEstimator {
    estimator: TolerableLatencyEstimator,
    aggregation: Aggregation,
    horizon: Seconds,
}

impl OnlineEstimator {
    /// Creates the estimator.
    ///
    /// # Errors
    ///
    /// Returns the first violated configuration invariant, including a
    /// prediction horizon that is not positive and finite.
    pub fn new(config: OnlineConfig) -> Result<Self, ConfigError> {
        validate_duration("prediction_horizon", config.prediction_horizon)?;
        config
            .aggregation
            .validate()
            .map_err(|_| ConfigError::FactorOutOfRange {
                name: "aggregation percentile",
                value: match config.aggregation {
                    Aggregation::Percentile(n) => n,
                    _ => f64::NAN,
                },
            })?;
        Ok(Self {
            estimator: TolerableLatencyEstimator::new(config.zhuyi)?,
            aggregation: config.aggregation,
            horizon: config.prediction_horizon,
        })
    }

    /// The underlying Zhuyi configuration.
    pub fn config(&self) -> &ZhuyiConfig {
        self.estimator.config()
    }

    /// Produces per-actor and per-camera estimates from the *perceived*
    /// scene (ego from localization, actors from confirmed world-model
    /// tracks), using `predictor` for future states: [`estimate_scene`]
    /// over the predictor's futures up to the configured horizon, folded
    /// by the configured Eq. 4 aggregation.
    ///
    /// `current_latency` is l₀, the per-frame processing latency the
    /// perception system currently runs at (feeds the α confirmation-delay
    /// term).
    pub fn estimate(
        &self,
        perceived: &Scene,
        path: &Path,
        rig: &CameraRig,
        predictor: &dyn TrajectoryPredictor,
        current_latency: Seconds,
    ) -> OnlineEstimates {
        let (actors, cameras) = estimate_scene(
            perceived,
            path,
            rig,
            &self.estimator,
            self.aggregation,
            current_latency,
            |actor| predictor.predict(actor, perceived.time, self.horizon),
        );
        OnlineEstimates {
            time: perceived.time,
            actors,
            cameras,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_perception::camera::CameraKind;
    use av_prediction::kinematic::{ConstantAcceleration, ConstantVelocity};

    fn scene(actors: Vec<Agent>) -> Scene {
        let ego = Agent::new(
            ActorId::EGO,
            ActorKind::Vehicle,
            Dimensions::CAR,
            VehicleState::new(
                Vec2::new(0.0, 0.0),
                Radians(0.0),
                MetersPerSecond(25.0),
                MetersPerSecondSquared::ZERO,
            ),
        );
        Scene::new(Seconds(5.0), ego, actors)
    }

    fn lead(v: f64, a: f64, x: f64) -> Agent {
        Agent::new(
            ActorId(1),
            ActorKind::Vehicle,
            Dimensions::CAR,
            VehicleState::new(
                Vec2::new(x, 0.0),
                Radians(0.0),
                MetersPerSecond(v),
                MetersPerSecondSquared(a),
            ),
        )
    }

    fn setup() -> (OnlineEstimator, Path, CameraRig) {
        (
            OnlineEstimator::new(OnlineConfig::default()).expect("valid config"),
            Path::straight(Vec2::new(-100.0, 0.0), Radians(0.0), Meters(3000.0)),
            CameraRig::drive_av(),
        )
    }

    const L0: Seconds = Seconds(1.0 / 30.0);

    #[test]
    fn braking_lead_constrains_front_camera() {
        let (est, path, rig) = setup();
        let sc = scene(vec![lead(20.0, -5.0, 60.0)]);
        let out = est.estimate(&sc, &path, &rig, &ConstantAcceleration, L0);
        assert_eq!(out.actors.len(), 1);
        let front = out.camera(CameraKind::FrontWide).expect("front camera");
        assert!(
            front.latency < Seconds(1.0),
            "braking lead must constrain, got {}",
            front.latency
        );
        assert_eq!(front.limiting_actor, Some(ActorId(1)));
        // Side cameras idle.
        let left = out.camera(CameraKind::Left).expect("left camera");
        assert_eq!(left.latency, Seconds(1.0));
    }

    #[test]
    fn prediction_model_changes_estimate() {
        let (est, path, rig) = setup();
        // Lead currently braking hard: CA foresees it stopping (dangerous),
        // CV assumes it keeps speed (benign).
        let sc = scene(vec![lead(22.0, -6.0, 70.0)]);
        let ca = est.estimate(&sc, &path, &rig, &ConstantAcceleration, L0);
        let cv = est.estimate(&sc, &path, &rig, &ConstantVelocity, L0);
        let l_ca = ca.camera(CameraKind::FrontWide).expect("front").latency;
        let l_cv = cv.camera(CameraKind::FrontWide).expect("front").latency;
        assert!(
            l_ca < l_cv,
            "constant-acceleration future must be stricter: {l_ca} vs {l_cv}"
        );
    }

    #[test]
    fn empty_scene_keeps_all_cameras_idle() {
        let (est, path, rig) = setup();
        let out = est.estimate(&scene(vec![]), &path, &rig, &ConstantVelocity, L0);
        assert!(out.actors.is_empty());
        assert_eq!(out.cameras.len(), rig.len());
        for cam in &out.cameras {
            assert_eq!(cam.latency, Seconds(1.0));
            assert!((cam.fpr().value() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn time_is_propagated() {
        let (est, path, rig) = setup();
        let out = est.estimate(&scene(vec![]), &path, &rig, &ConstantVelocity, L0);
        assert_eq!(out.time, Seconds(5.0));
    }

    #[test]
    fn invalid_percentile_rejected() {
        let cfg = OnlineConfig {
            aggregation: Aggregation::Percentile(500.0),
            ..Default::default()
        };
        assert!(OnlineEstimator::new(cfg).is_err());
    }

    #[test]
    fn non_positive_or_non_finite_horizon_rejected() {
        for horizon in [0.0, -0.1, f64::NAN, f64::INFINITY] {
            let cfg = OnlineConfig {
                prediction_horizon: Seconds(horizon),
                ..Default::default()
            };
            assert!(
                matches!(
                    OnlineEstimator::new(cfg),
                    Err(ConfigError::NonPositiveDuration {
                        name: "prediction_horizon",
                        ..
                    })
                ),
                "horizon {horizon} accepted"
            );
        }
    }
}
