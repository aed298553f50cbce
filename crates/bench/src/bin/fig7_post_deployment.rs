//! Figure 7: post-deployment latency estimate for the *Cut-in* scenario.
//!
//! The online Zhuyi estimator runs inside the AV loop: current states come
//! from the perceived world model, future states from a trajectory
//! predictor. The figure compares the resulting front-camera latency
//! series against the pre-deployment (ground-truth oracle) series of
//! Fig. 6 — the paper attributes most of the variance between them to the
//! difference in future predictions, which this binary quantifies by
//! running both a constant-velocity and a multi-hypothesis maneuver
//! predictor.
//!
//! Run: `cargo run --release -p zhuyi-bench --bin fig7_post_deployment`

use av_core::prelude::*;
use av_perception::camera::CameraKind;
use av_perception::system::RatePlan;
use av_prediction::kinematic::ConstantVelocity;
use av_prediction::maneuver::{ManeuverConfig, ManeuverPredictor};
use av_prediction::predictor::TrajectoryPredictor;
use av_scenarios::catalog::{Scenario, ScenarioId};
use zhuyi::Aggregation;
use zhuyi_bench::figures::run_and_analyze;
use zhuyi_bench::{write_results, Table};
use zhuyi_runtime::online::OnlineConfig;
use zhuyi_runtime::system::{drive, RuntimeConfig, ZhuyiRuntime};

fn online_front_series(
    scenario: &Scenario,
    predictor: &dyn TrajectoryPredictor,
) -> Vec<(f64, f64)> {
    online_front_series_with(scenario, predictor, Aggregation::WorstCase)
}

fn online_front_series_with(
    scenario: &Scenario,
    predictor: &dyn TrajectoryPredictor,
    aggregation: Aggregation,
) -> Vec<(f64, f64)> {
    let sim = scenario
        .simulation(RatePlan::Uniform(Fpr(30.0)))
        .expect("uniform plan is valid");
    let runtime = ZhuyiRuntime::new(RuntimeConfig {
        online: OnlineConfig {
            aggregation,
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("paper config is valid");
    let (trace, decisions) = drive(sim, &runtime, predictor);
    assert!(!trace.collided(), "the 30-FPR online run must be safe");
    decisions
        .iter()
        .filter_map(|d| {
            d.estimates
                .camera(CameraKind::FrontWide)
                .map(|c| (d.time.value(), c.latency.as_millis()))
        })
        .collect()
}

const USAGE: &str = "USAGE: fig7_post_deployment   (no arguments; -h/--help prints this)";

fn main() {
    zhuyi_bench::switches(USAGE, []);
    let scenario = Scenario::build(ScenarioId::CutIn, 0);

    // Pre-deployment reference (Fig. 6's front panel).
    let (_, offline) = run_and_analyze(ScenarioId::CutIn, 0, 30.0, 10);
    let offline_series: Vec<(f64, f64)> = offline
        .camera_latency_series(CameraKind::FrontWide)
        .iter()
        .map(|(t, l)| (t.value(), l.as_millis()))
        .collect();

    // Post-deployment: perceived state + predicted futures.
    let cv_series = online_front_series(&scenario, &ConstantVelocity);
    let maneuver = ManeuverPredictor::new(scenario.road.path().clone(), ManeuverConfig::default());
    let mh_series = online_front_series(&scenario, &maneuver);

    println!("== Figure 7: post-deployment front-camera latency, Cut-in ==\n");
    let mut table = Table::new([
        "time_s",
        "offline_oracle_ms",
        "online_cv_ms",
        "online_maneuver_ms",
    ]);
    let lookup = |series: &[(f64, f64)], t: f64| -> f64 {
        series
            .iter()
            .min_by(|a, b| {
                (a.0 - t)
                    .abs()
                    .partial_cmp(&(b.0 - t).abs())
                    .expect("finite times")
            })
            .map_or(f64::NAN, |(_, v)| *v)
    };
    let end = offline_series.last().map_or(0.0, |(t, _)| *t);
    let mut t = 0.0;
    while t <= end {
        table.row([
            format!("{t:.1}"),
            format!("{:.0}", lookup(&offline_series, t)),
            format!("{:.0}", lookup(&cv_series, t)),
            format!("{:.0}", lookup(&mh_series, t)),
        ]);
        t += 0.5;
    }
    println!("{}", table.render());

    let min_of =
        |series: &[(f64, f64)]| series.iter().map(|(_, v)| *v).fold(f64::INFINITY, f64::min);
    println!("tightest front-camera latency (ms):");
    println!("  offline oracle      : {:.0}", min_of(&offline_series));
    println!("  online, CV futures  : {:.0}", min_of(&cv_series));
    println!("  online, maneuver set: {:.0}", min_of(&mh_series));

    // Eq.-4 aggregation ablation over the same maneuver hypothesis set.
    println!("\nmaneuver set under other Eq.-4 aggregations (tightest ms):");
    for (label, agg) in [
        ("mean      ", Aggregation::Mean),
        ("p99       ", Aggregation::P99),
        ("worst case", Aggregation::WorstCase),
    ] {
        let series = online_front_series_with(&scenario, &maneuver, agg);
        println!("  {label}: {:.0}", min_of(&series));
    }
    println!(
        "\nThe online estimates vary with the predictor — the paper's analysis \
         that \"the main latency differences are due to the differences in \
         future predictions\"."
    );
    let path = write_results("fig7_post_deployment.csv", &table.to_csv());
    println!("written to {}", path.display());
}
