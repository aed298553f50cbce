//! The threat scan skips instants a `TrajectoryFuture` proves quiet, and
//! instants it proves active once no pre-reaction guard can read their
//! gap. Over the catalog's own futures, `explain` through a
//! `TrajectoryFuture` must equal `explain` through a wrapper that exposes
//! only `at`, bit for bit. `crates/zhuyi/tests/quiet_spans.rs` holds the
//! constructed edge cases; this is the same comparison on the catalog's
//! drives, through the predictors the runtime and the offline analysis
//! use.

use zhuyi_repro::core::prelude::*;
use zhuyi_repro::model::future::{ActorFuture, RelativeState, TrajectoryFuture};
use zhuyi_repro::model::{EgoKinematics, PipelineConfig, TolerableLatencyEstimator, ZhuyiConfig};
use zhuyi_repro::prediction::kinematic::{ConstantAcceleration, ConstantVelocity};
use zhuyi_repro::prediction::oracle::OraclePredictor;
use zhuyi_repro::prediction::predictor::TrajectoryPredictor;
use zhuyi_repro::scenarios::catalog::{Scenario, ScenarioId};

/// Forwards only `at`: the reference scan, which queries every instant.
struct AtOnly<'a>(TrajectoryFuture<'a>);

impl ActorFuture for AtOnly<'_> {
    fn at(&self, tn: Seconds) -> RelativeState {
        self.0.at(tn)
    }
}

/// The catalog at `seed` and 30 FPR, every 50th scene, every actor, with
/// the constant-acceleration, constant-velocity and oracle futures. Each
/// seed runs as its own test, so the two share the CPUs: together about
/// 4.7 s in a debug build on a 2-CPU x86-64 box.
fn catalog_explanations_match_the_at_only_scan(seed: u64) {
    let estimator = TolerableLatencyEstimator::new(ZhuyiConfig::paper()).expect("valid config");
    let cfg = estimator.config();
    let pipeline = PipelineConfig::default();
    let mut compared = 0usize;
    for id in ScenarioId::ALL {
        let scenario = Scenario::build(id, seed);
        let path = scenario.road.path();
        let trace = scenario.run_at(Fpr(30.0));
        let oracle = OraclePredictor::new(trace.scenes.clone(), pipeline.future_sample_spacing);
        let predictors: [(&str, &dyn TrajectoryPredictor); 3] = [
            ("CA", &ConstantAcceleration),
            ("CV", &ConstantVelocity),
            ("oracle", &oracle),
        ];
        for scene in trace.scenes.iter().step_by(50) {
            let ego = EgoKinematics::from_state(&scene.ego.state);
            for actor in &scene.actors {
                for (name, predictor) in predictors {
                    for trajectory in predictor.predict(actor, scene.time, cfg.horizon) {
                        let future = TrajectoryFuture::new(
                            path,
                            &scene.ego.state,
                            scene.ego.dims,
                            actor.dims,
                            trajectory,
                            scene.time,
                            cfg.corridor_margin,
                        );
                        let reference = AtOnly(future.clone());
                        let l0 = pipeline.current_latency;
                        assert_eq!(
                            format!("{:?}", estimator.explain(ego, &future, l0)),
                            format!("{:?}", estimator.explain(ego, &reference, l0)),
                            "{id} seed {seed}, t = {}, actor {:?}, {name} future",
                            scene.time,
                            actor.id
                        );
                        compared += 1;
                    }
                }
            }
        }
    }
    assert!(compared > 500, "seed {seed}: compared {compared} futures");
}

#[test]
fn catalog_seed_0_explanations_match_the_at_only_scan() {
    catalog_explanations_match_the_at_only_scan(0);
}

#[test]
fn catalog_seed_7_explanations_match_the_at_only_scan() {
    catalog_explanations_match_the_at_only_scan(7);
}
