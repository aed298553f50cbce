//! The complete Zhuyi-based AV system loop (paper Fig. 3).
//!
//! Perception → world model → trajectory prediction → **Zhuyi model** →
//! safety check + work prioritization → back into perception's per-camera
//! rates. [`drive`] runs a closed-loop simulation with this feedback
//! attached, which is how the paper's post-deployment experiments (Fig. 7)
//! and the prioritization examples are produced.

use crate::online::{OnlineConfig, OnlineEstimates, OnlineEstimator};
use crate::prioritize::{Allocation, BudgetAllocator};
use crate::safety_check::{check, SafetyVerdict};
use av_core::prelude::*;
use av_core::scene::Scene;
use av_prediction::predictor::TrajectoryPredictor;
use av_sim::engine::{Simulation, StepOutcome};
use av_sim::observer::TraceRecorder;
use av_sim::trace::Trace;
use serde::{Deserialize, Serialize};
use zhuyi::config::{validate_duration, ConfigError};

/// Configuration of the runtime loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Online estimator parameters.
    pub online: OnlineConfig,
    /// How often the Zhuyi model runs (the paper estimates it completes
    /// within 2 ms, so 100 ms control periods are generous). Must be
    /// positive and finite.
    pub control_period: Seconds,
    /// Frame budget for work prioritization; `None` runs the safety check
    /// only.
    pub budget: Option<BudgetAllocator>,
    /// Whether allocations are written back into the perception system
    /// (the work-prioritization loop), or merely recorded (monitoring).
    pub apply_allocation: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            online: OnlineConfig::default(),
            control_period: Seconds(0.1),
            budget: None,
            apply_allocation: false,
        }
    }
}

/// Everything the runtime decided at one control step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeDecision {
    /// When the decision was taken.
    pub time: Seconds,
    /// The online Zhuyi estimates.
    pub estimates: OnlineEstimates,
    /// Safety check against the rates in force *before* this decision.
    pub verdict: SafetyVerdict,
    /// Budget split, when prioritization is enabled.
    pub allocation: Option<Allocation>,
}

/// The online Zhuyi subsystem: estimator + safety check + prioritizer.
#[derive(Debug, Clone)]
pub struct ZhuyiRuntime {
    online: OnlineEstimator,
    config: RuntimeConfig,
}

impl ZhuyiRuntime {
    /// Creates the runtime.
    ///
    /// # Errors
    ///
    /// Returns the first violated model-configuration invariant, including
    /// a control period that is not positive and finite.
    pub fn new(config: RuntimeConfig) -> Result<Self, ConfigError> {
        validate_duration("control_period", config.control_period)?;
        Ok(Self {
            online: OnlineEstimator::new(config.online)?,
            config,
        })
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Runs one control step against a live simulation: estimate from the
    /// perceived world, check safety, optionally re-prioritize camera
    /// rates.
    pub fn control_step(
        &self,
        sim: &mut Simulation,
        predictor: &dyn TrajectoryPredictor,
    ) -> RuntimeDecision {
        let now = sim.time();
        // Perceived scene: the ego knows its own state (localization);
        // actors come from confirmed, dead-reckoned world-model tracks.
        let ego = sim.ego().to_agent(sim.road());
        let tracked = sim.perception().world().coasted_agents(now);
        let perceived = Scene::new(now, ego, tracked);
        let rates = sim.perception().rates();
        let current_latency = rates
            .iter()
            .map(|r| r.latency())
            .fold(Seconds(f64::INFINITY), Seconds::min);

        let estimates = self.online.estimate(
            &perceived,
            sim.road().path(),
            sim.perception().rig(),
            predictor,
            current_latency,
        );
        let verdict = check(&rates, &estimates.cameras);
        let allocation = self.config.budget.and_then(|b| {
            let alloc = b.allocate(&estimates.cameras).ok()?;
            if self.config.apply_allocation {
                for (i, rate) in alloc.rates.iter().enumerate() {
                    let _ = sim
                        .perception_mut()
                        .set_rate(av_perception::rig::CameraId(i), *rate);
                }
            }
            Some(alloc)
        });
        RuntimeDecision {
            time: now,
            estimates,
            verdict,
            allocation,
        }
    }
}

/// Drives `sim` to completion with the Zhuyi runtime in the loop, running
/// a control step every [`RuntimeConfig::control_period`].
///
/// Returns the scenario trace and the decision log.
pub fn drive(
    mut sim: Simulation,
    runtime: &ZhuyiRuntime,
    predictor: &dyn TrajectoryPredictor,
) -> (Trace, Vec<RuntimeDecision>) {
    let mut decisions = Vec::new();
    let mut recorder = TraceRecorder::new(sim.config().dt);
    let period = runtime.config().control_period.value();
    let mut next_control = 0.0;
    loop {
        if sim.time().value() + 1e-12 >= next_control {
            decisions.push(runtime.control_step(&mut sim, predictor));
            next_control = sim.time().value() + period;
        }
        match sim.step_with(&mut recorder) {
            StepOutcome::Running => continue,
            StepOutcome::Collided | StepOutcome::Finished => break,
        }
    }
    (recorder.into_trace(), decisions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_perception::camera::CameraKind;
    use av_perception::rig::CameraRig;
    use av_perception::system::{PerceptionSystem, RatePlan};
    use av_perception::world_model::TrackerConfig;
    use av_prediction::kinematic::ConstantAcceleration;
    use av_sim::engine::SimulationConfig;
    use av_sim::policy::{EgoVehicle, PolicyConfig};
    use av_sim::road::{LaneId, Road};
    use av_sim::script::{Action, ActorScript, Placement, Trigger};

    /// Vehicle-following-style scenario: lead brakes at t = 2 s.
    fn sim(fpr: f64) -> Simulation {
        sim_with_lead(fpr, 110.0)
    }

    /// Same with a configurable lead position (closer = harsher).
    fn sim_with_lead(fpr: f64, lead_s: f64) -> Simulation {
        let road = Road::straight_three_lane(Meters(3000.0));
        let ego = EgoVehicle::spawn(
            &road,
            LaneId(1),
            Meters(50.0),
            PolicyConfig::cruise(MetersPerSecond(28.0)),
        );
        let lead = ActorScript::cruising(
            ActorId(1),
            Placement {
                lane: LaneId(1),
                s: Meters(lead_s),
                speed: MetersPerSecond(28.0),
            },
        )
        .with_maneuver(
            Trigger::AtTime(Seconds(2.0)),
            Action::HardBrake {
                decel: MetersPerSecondSquared(6.0),
            },
        );
        let perception = PerceptionSystem::new(
            CameraRig::drive_av(),
            RatePlan::Uniform(Fpr(fpr)),
            TrackerConfig::default(),
        )
        .expect("valid plan");
        Simulation::new(
            road,
            ego,
            vec![lead],
            perception,
            SimulationConfig {
                duration: Seconds(15.0),
                ..Default::default()
            },
        )
    }

    #[test]
    fn non_positive_or_non_finite_control_period_rejected() {
        for period in [0.0, -0.1, f64::NAN, f64::INFINITY] {
            let config = RuntimeConfig {
                control_period: Seconds(period),
                ..Default::default()
            };
            assert!(
                matches!(
                    ZhuyiRuntime::new(config),
                    Err(ConfigError::NonPositiveDuration {
                        name: "control_period",
                        ..
                    })
                ),
                "control period {period} accepted"
            );
        }
    }

    #[test]
    fn decisions_are_logged_each_period() {
        let runtime = ZhuyiRuntime::new(RuntimeConfig::default()).expect("valid");
        let (trace, decisions) = drive(sim(30.0), &runtime, &ConstantAcceleration);
        assert!(!trace.collided());
        // 15 s at 10 Hz control: ~150 decisions.
        assert!(
            (140..=160).contains(&decisions.len()),
            "{}",
            decisions.len()
        );
    }

    #[test]
    fn front_camera_requirement_spikes_during_braking() {
        let runtime = ZhuyiRuntime::new(RuntimeConfig::default()).expect("valid");
        let (_, decisions) = drive(sim(30.0), &runtime, &ConstantAcceleration);
        let front_latency = |d: &RuntimeDecision| {
            d.estimates
                .camera(CameraKind::FrontWide)
                .expect("front camera")
                .latency
        };
        let before: Seconds = decisions
            .iter()
            .filter(|d| d.time < Seconds(1.5))
            .map(front_latency)
            .fold(Seconds(f64::INFINITY), Seconds::min);
        let during: Seconds = decisions
            .iter()
            .filter(|d| d.time > Seconds(2.5) && d.time < Seconds(6.0))
            .map(front_latency)
            .fold(Seconds(f64::INFINITY), Seconds::min);
        assert!(
            during < before,
            "braking must tighten the requirement: before {before}, during {during}"
        );
    }

    #[test]
    fn safety_check_fires_when_underprovisioned() {
        // Cameras at 2 FPR with a close, hard-braking lead: the
        // requirement exceeds the actual rate and an alarm must fire.
        let runtime = ZhuyiRuntime::new(RuntimeConfig::default()).expect("valid");
        let (_, decisions) = drive(sim_with_lead(2.0, 80.0), &runtime, &ConstantAcceleration);
        assert!(
            decisions.iter().any(|d| !d.verdict.safe),
            "no alarm despite 2 FPR cameras in a braking scenario"
        );
    }

    #[test]
    fn prioritization_reallocates_toward_front() {
        let config = RuntimeConfig {
            budget: Some(BudgetAllocator {
                total: Fpr(40.0),
                min_per_camera: Fpr(1.0),
                max_per_camera: Fpr(30.0),
            }),
            apply_allocation: true,
            ..Default::default()
        };
        let runtime = ZhuyiRuntime::new(config).expect("valid");
        let simulation = sim(8.0);
        let rig = simulation.perception().rig().clone();
        let front = rig.find(CameraKind::FrontWide).expect("front camera");
        let rear = rig.find(CameraKind::Rear).expect("rear camera");
        let (trace, decisions) = drive(simulation, &runtime, &ConstantAcceleration);
        assert!(!trace.collided());
        // Find a decision during braking: the front camera must be granted
        // more than the rear.
        let braking = decisions
            .iter()
            .filter(|d| d.time > Seconds(3.0) && d.time < Seconds(6.0))
            .filter_map(|d| d.allocation.as_ref())
            .collect::<Vec<_>>();
        assert!(!braking.is_empty());
        assert!(
            braking
                .iter()
                .any(|a| a.rates[front.0].value() > a.rates[rear.0].value() + 1.0),
            "front camera never prioritized over rear"
        );
    }
}
