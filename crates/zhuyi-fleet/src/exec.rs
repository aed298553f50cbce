//! Job execution: turning one [`JobSpec`] into one [`JobOutcome`].
//!
//! Execution is a pure function of the spec — scenarios are rebuilt from
//! their (source, seed) pair, the simulator is deterministic, and the Zhuyi
//! estimator is deterministic — which is the property the worker pool's
//! deterministic merge relies on.
//!
//! Execution is *metrics-only* wherever the outcome allows it: collision
//! probes stream each run through an
//! [`av_sim::observer::MetricsObserver`], minimum-safe-FPR searches
//! consult only collision bits, and neither stores a scene. Full traces
//! are recorded only for jobs that export them (probes with
//! `keep_trace`) or analyze them (Zhuyi trace analysis). [`ExecOptions`]
//! only picks which of the two minimum-safe-FPR searches runs; no option
//! changes an exported byte.
//!
//! An analysis job walks its trace once, whatever the predictor: each
//! analyzed scene goes through Zhuyi's one estimation step
//! ([`zhuyi::pipeline::estimate_scene`]), fed the trace's own future by
//! the oracle ([`analyze_step`]) or a predictor's futures by the online
//! estimator ([`OnlineEstimator::estimate`]).

use crate::job::{JobKind, JobSpec, PredictorChoice};
use crate::search::{min_safe_fpr, min_safe_fpr_batched};
use crate::store::{AnalysisOutcome, JobOutcome, ProbeOutcome};
use av_core::units::Seconds;
use av_perception::rig::CameraRig;
use av_prediction::kinematic::{ConstantAcceleration, ConstantVelocity};
use av_prediction::predictor::TrajectoryPredictor;
use av_scenarios::catalog::Scenario;
use av_sim::io::trace_to_csv;
use av_sim::observer::{MetricsObserver, RunSummary};
use av_sim::trace::Trace;
use zhuyi::pipeline::{analyze_step, PipelineConfig};
use zhuyi::{TolerableLatencyEstimator, ZhuyiConfig};
use zhuyi_runtime::online::{OnlineConfig, OnlineEstimator};

/// Execution-wide options, orthogonal to the per-job [`JobSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecOptions {
    /// Run minimum-safe-FPR searches through the per-rate reference
    /// search ([`crate::search::min_safe_fpr`]) instead of the
    /// default one-pass lane-batched search
    /// ([`crate::search::min_safe_fpr_batched`]). Both produce
    /// byte-identical exports; other job kinds ignore the flag.
    pub per_rate: bool,
}

/// Executes one job to completion with default options.
///
/// # Panics
///
/// Panics if the job's rate plan is rejected by the perception system
/// (non-positive or non-finite rates, wrong per-camera arity) — plan
/// validation belongs at plan-building time, not in the fleet hot loop.
pub fn execute(spec: &JobSpec) -> JobOutcome {
    execute_with(spec, ExecOptions::default())
}

/// Executes one job to completion under explicit [`ExecOptions`].
///
/// # Panics
///
/// See [`execute`].
pub fn execute_with(spec: &JobSpec, options: ExecOptions) -> JobOutcome {
    let scenario = spec.scenario.build(spec.seed);
    match &spec.kind {
        JobKind::Probe { plan, keep_trace } => {
            if *keep_trace {
                JobOutcome::Probe(probe_outcome(&run(&scenario, plan)))
            } else {
                let mut metrics = MetricsObserver::new();
                scenario
                    .run_with(plan.to_rate_plan(), &mut metrics)
                    .expect("fleet plans are validated at build time");
                JobOutcome::Probe(probe_from_summary(&metrics.summary()))
            }
        }
        JobKind::MinSafeFpr { candidates } => JobOutcome::MinSafeFpr(if options.per_rate {
            min_safe_fpr(&scenario, candidates)
        } else {
            min_safe_fpr_batched(&scenario, candidates)
        }),
        JobKind::Analyze {
            plan,
            predictor,
            stride,
        } => {
            let trace = run(&scenario, plan);
            JobOutcome::Analysis(analyze(
                &scenario,
                &trace,
                plan.min_rate(),
                *predictor,
                *stride,
            ))
        }
    }
}

fn run(scenario: &Scenario, plan: &crate::job::RateSpec) -> Trace {
    scenario
        .simulation(plan.to_rate_plan())
        .expect("fleet plans are validated at build time")
        .run()
}

fn probe_outcome(trace: &Trace) -> ProbeOutcome {
    let collision = trace.collision();
    ProbeOutcome {
        collided: trace.collided(),
        collision_time: collision.map(|(t, _)| t),
        collision_actor: collision.map(|(_, a)| a),
        min_clearance: trace.min_clearance(),
        duration: trace.duration(),
        trace_csv: Some(trace_to_csv(trace)),
    }
}

fn probe_from_summary(summary: &RunSummary) -> ProbeOutcome {
    ProbeOutcome {
        collided: summary.collided(),
        collision_time: summary.collision.map(|(t, _)| t),
        collision_actor: summary.collision.map(|(_, a)| a),
        min_clearance: summary.min_clearance,
        duration: summary.duration,
        trace_csv: None,
    }
}

fn analyze(
    scenario: &Scenario,
    trace: &Trace,
    min_rate: f64,
    predictor: PredictorChoice,
    stride: usize,
) -> AnalysisOutcome {
    let mut outcome = AnalysisOutcome {
        collided: trace.collided(),
        steps: 0,
        max_camera_fpr: None,
        constraint_evaluations: 0,
    };
    if outcome.collided {
        // A collided run has no meaningful "required rate" — the paper
        // analyzes collision-free reference traces only.
        return outcome;
    }
    let current_latency = Seconds(1.0 / min_rate.max(f64::MIN_POSITIVE));
    let rig = CameraRig::drive_av();
    let path = scenario.road.path();
    let oracle =
        TolerableLatencyEstimator::new(ZhuyiConfig::paper()).expect("paper config is valid");
    let online =
        OnlineEstimator::new(OnlineConfig::default()).expect("default online config is valid");
    let config = PipelineConfig {
        current_latency,
        stride,
        ..Default::default()
    };
    let predictor: Option<&dyn TrajectoryPredictor> = match predictor {
        PredictorChoice::Oracle => None,
        PredictorChoice::ConstantVelocity => Some(&ConstantVelocity),
        PredictorChoice::ConstantAcceleration => Some(&ConstantAcceleration),
    };
    for i in (0..trace.scenes.len()).step_by(stride.max(1)) {
        let (actors, cameras) = match predictor {
            None => {
                let step = analyze_step(&trace.scenes, i, path, &rig, &oracle, &config);
                (step.actors, step.cameras)
            }
            Some(predictor) => {
                let step =
                    online.estimate(&trace.scenes[i], path, &rig, predictor, current_latency);
                (step.actors, step.cameras)
            }
        };
        outcome.steps += 1;
        outcome.constraint_evaluations += actors
            .iter()
            .map(|a| a.stats.constraint_evaluations)
            .sum::<u64>();
        for camera in &cameras {
            let fpr = camera.fpr().value();
            outcome.max_camera_fpr = Some(outcome.max_camera_fpr.map_or(fpr, |m| m.max(fpr)));
        }
    }
    outcome
}
