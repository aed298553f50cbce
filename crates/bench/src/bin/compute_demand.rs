//! §4.2 "Compute demand": the cost of running the Zhuyi model itself.
//!
//! Reproduces the paper's accounting — work = |A|·|T|·M·L·C with C ≈ 100
//! ops per iteration, capped at 60 kOps for two actors with one predicted
//! trajectory each, executing "within 2 ms" on a 10+ GOPS processor — and
//! compares it against *measured* search effort and wall-clock time of
//! this implementation.
//!
//! Run: `cargo run --release -p zhuyi-bench --bin compute_demand`

use av_core::prelude::*;
use std::time::Instant;
use zhuyi::estimator::{EgoKinematics, TolerableLatencyEstimator};
use zhuyi::future::{ConstantAccelActor, StationaryActor};
use zhuyi::ops::{measured_ops, OpsBound};
use zhuyi::ZhuyiConfig;
use zhuyi_bench::{write_results, Table};

const USAGE: &str = "USAGE: compute_demand   (no arguments; -h/--help prints this)";

fn main() {
    zhuyi_bench::switches(USAGE, []);
    let config = ZhuyiConfig::paper();
    println!("== Zhuyi model compute demand (paper 4.2) ==\n");

    let mut table = Table::new([
        "actors",
        "trajectories",
        "analytic bound (ops)",
        "t @10 GOPS (ms)",
    ]);
    for (a, t) in [(1, 1), (2, 1), (2, 5), (10, 5)] {
        let bound = OpsBound::for_config(&config, a, t);
        table.row([
            a.to_string(),
            t.to_string(),
            bound.total_ops().to_string(),
            format!("{:.3}", bound.execution_time_secs(10.0) * 1e3),
        ]);
    }
    println!("{}", table.render());
    let two_actor = OpsBound::for_config(&config, 2, 1);
    println!(
        "paper check: 2 actors, single future -> {} ops (paper: capped at 60 kOps)\n",
        two_actor.total_ops()
    );

    // Measured effort: run the real search on representative situations.
    let estimator = TolerableLatencyEstimator::new(config).expect("paper config is valid");
    let ego = EgoKinematics::new(MetersPerSecond(26.8), MetersPerSecondSquared::ZERO);
    let situations: [(&str, Box<dyn zhuyi::future::ActorFuture>); 3] = [
        (
            "stationary obstacle @60m",
            Box::new(StationaryActor::new(Meters(60.0))),
        ),
        (
            "braking lead @50m",
            Box::new(ConstantAccelActor::new(
                Meters(50.0),
                MetersPerSecond(26.8),
                MetersPerSecondSquared(-6.0),
            )),
        ),
        (
            "receding lead @40m",
            Box::new(ConstantAccelActor::new(
                Meters(40.0),
                MetersPerSecond(35.0),
                MetersPerSecondSquared::ZERO,
            )),
        ),
    ];
    let mut measured = Table::new(["situation", "evaluations", "est. ops", "wall time (us)"]);
    for (name, future) in &situations {
        let start = Instant::now();
        let mut last = None;
        // Repeat to get a stable wall-time (the search is microseconds).
        const REPS: u32 = 1000;
        for _ in 0..REPS {
            last = Some(estimator.tolerable_latency(ego, future.as_ref(), Seconds(1.0 / 30.0)));
        }
        let elapsed = start.elapsed().as_secs_f64() / f64::from(REPS);
        let est = last.expect("ran at least once");
        measured.row([
            (*name).to_string(),
            est.stats.constraint_evaluations.to_string(),
            measured_ops(&est.stats).to_string(),
            format!("{:.1}", elapsed * 1e6),
        ]);
    }
    println!("{}", measured.render());
    println!(
        "Every measured situation completes orders of magnitude inside the \
         paper's 2 ms budget."
    );
    let path = write_results("compute_demand.csv", &measured.to_csv());
    println!("written to {}", path.display());
}
