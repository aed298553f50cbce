//! The threat scan skips instants a `TrajectoryFuture` proves quiet, and
//! instants it proves active once no pre-reaction guard can read their
//! gap; it asks the instants it queries only for their position
//! (`gap_at`). Over the catalog's own futures, `explain` through a
//! `TrajectoryFuture` must equal `explain` through a wrapper that exposes
//! only `at`, bit for bit, and `gap_at` must return `at`'s gap and
//! corridor bit at every scan instant.
//! `crates/zhuyi/tests/quiet_spans.rs` holds the constructed edge cases;
//! these are the same comparisons on the catalog's drives, through the
//! predictors the runtime and the offline analysis use.

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

/// Calls `visit` with every future of the catalog at `seed` and 30 FPR,
/// every 50th scene, every actor, with the constant-acceleration,
/// constant-velocity and oracle futures, and a label naming it. Returns
/// how many it visited.
fn for_each_catalog_future(
    seed: u64,
    mut visit: impl FnMut(&str, EgoKinematics, &TrajectoryFuture<'_>),
) -> usize {
    let cfg = ZhuyiConfig::paper();
    let pipeline = PipelineConfig::default();
    let mut visited = 0usize;
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
                        let label = format!(
                            "{id} seed {seed}, t = {}, actor {:?}, {name} future",
                            scene.time, actor.id
                        );
                        visit(&label, ego, &future);
                        visited += 1;
                    }
                }
            }
        }
    }
    visited
}

/// `explain` through each catalog future equals `explain` through its
/// `at`-only wrapper. Each seed runs as its own test, so the two share the
/// CPUs: together about 2.6 s in a debug build on a 2-CPU x86-64 box.
fn catalog_explanations_match_the_at_only_scan(seed: u64) {
    let estimator = TolerableLatencyEstimator::new(ZhuyiConfig::paper()).expect("valid config");
    let l0 = PipelineConfig::default().current_latency;
    let compared = for_each_catalog_future(seed, |label, ego, future| {
        let reference = AtOnly(future.clone());
        assert_eq!(
            format!("{:?}", estimator.explain(ego, future, l0)),
            format!("{:?}", estimator.explain(ego, &reference, l0)),
            "{label}"
        );
    });
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

/// At every scan instant of each catalog future, `gap_at` returns `at`'s
/// gap and corridor bit, bit for bit. One copy of the future answers the
/// position queries in scan order, as the threat scan asks them; another
/// answers `at`. The two seeds together take about 3.7 s in a debug build
/// on the same box.
fn catalog_position_queries_match_at(seed: u64) {
    let cfg = ZhuyiConfig::paper();
    let (dt, end) = (cfg.naive_timestep.value(), cfg.horizon.value());
    let mut instants = 0u64;
    let compared = for_each_catalog_future(seed, |label, _, future| {
        let (query, full) = (future.clone(), future.clone());
        let mut t = 0.0;
        while t <= end + 1e-12 {
            let (gap, in_corridor) = query.gap_at(Seconds(t));
            let s = full.at(Seconds(t));
            assert_eq!(
                (gap.value().to_bits(), in_corridor),
                (s.gap.value().to_bits(), s.in_corridor),
                "{label}: gap_at({t}) = ({gap:?}, {in_corridor}), at returns {s:?}"
            );
            instants += 1;
            t += dt;
        }
    });
    assert!(compared > 500, "seed {seed}: compared {compared} futures");
    assert!(
        instants > 500_000,
        "seed {seed}: compared {instants} instants"
    );
}

#[test]
fn catalog_seed_0_position_queries_match_at() {
    catalog_position_queries_match_at(0);
}

#[test]
fn catalog_seed_7_position_queries_match_at() {
    catalog_position_queries_match_at(7);
}
