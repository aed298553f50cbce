//! Extensions of paper §5: perception-uncertainty and yet-to-be-detected
//! objects.
//!
//! Two tables beyond the paper's evaluation:
//!
//! 1. **Necessary accuracy** — for a vehicle-following situation, the
//!    largest detector position error each processing rate tolerates
//!    (the quantization/pruning budget of §5's accuracy-vs-compute
//!    trade-off).
//! 2. **Phantom floors** — the per-camera minimum FPR implied by a
//!    hypothetical stationary obstacle at the sensing boundary, as a
//!    function of ego speed (the "yet-to-be-detected objects" direction).
//!
//! Run: `cargo run --release -p zhuyi-bench --bin necessary_accuracy`

use av_core::prelude::*;
use zhuyi::estimator::{EgoKinematics, SearchOutcome, TolerableLatencyEstimator};
use zhuyi::future::ConstantAccelActor;
use zhuyi::phantom::phantom_requirement;
use zhuyi::uncertainty::required_accuracy;
use zhuyi::ZhuyiConfig;
use zhuyi_bench::{write_results, Table};

const USAGE: &str = "USAGE: necessary_accuracy   (no arguments; -h/--help prints this)";

fn main() {
    zhuyi_bench::switches(USAGE, []);
    let estimator =
        TolerableLatencyEstimator::new(ZhuyiConfig::paper()).expect("paper config is valid");
    let l0 = Seconds(1.0 / 30.0);

    println!("== Necessary perception accuracy (extension of paper 5) ==");
    println!("situation: 70 mph following, lead 50 m ahead braking hard at 6.5 m/s^2\n");
    let ego = EgoKinematics::new(Mph(70.0).into(), MetersPerSecondSquared::ZERO);
    let lead =
        ConstantAccelActor::new(Meters(50.0), Mph(70.0).into(), MetersPerSecondSquared(-6.5));
    let mut acc_table = Table::new(["processing rate (FPR)", "tolerable position error (m)"]);
    for fpr in [30.0, 15.0, 10.0, 8.0, 6.0, 5.0, 4.0] {
        let sigma = required_accuracy(&estimator, ego, &lead, Fpr(fpr), Meters(45.0), l0);
        acc_table.row([
            format!("{fpr:.0}"),
            sigma.map_or("rate insufficient".into(), |s| format!("{:.1}", s.value())),
        ]);
    }
    println!("{}", acc_table.render());
    println!(
        "Reading: a detector quantized/pruned until its worst-case position \
         error\nreaches the listed bound still supports the listed rate.\n"
    );

    println!("== Phantom floors: yet-to-be-detected objects ==");
    println!("front camera, 150 m sensing range, empty FOV\n");
    let mut floor_table = Table::new(["ego speed", "floor latency", "floor FPR"]);
    for mph in [20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0] {
        let ego = EgoKinematics::new(Mph(mph).into(), MetersPerSecondSquared::ZERO);
        let est = phantom_requirement(&estimator, ego, Meters(150.0), l0);
        floor_table.row([
            format!("{mph:.0} mph"),
            if est.outcome == SearchOutcome::Infeasible {
                "overdriving sensors".to_string()
            } else {
                format!("{:.0} ms", est.latency.as_millis())
            },
            format!("{:.1}", est.fpr().value()),
        ]);
    }
    println!("{}", floor_table.render());
    println!(
        "Reading: even an empty field of view implies a speed-dependent \
         minimum rate\n(replacing Eq. 5's flat 1-FPR idle floor)."
    );
    let path = write_results(
        "necessary_accuracy.csv",
        &format!("{}\n{}", acc_table.to_csv(), floor_table.to_csv()),
    );
    println!("written to {}", path.display());
}
