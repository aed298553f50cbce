//! Ablation: how each conservatism knob moves the estimate
//! (DESIGN.md §6, items 2–4).
//!
//! Sweeps C1 (distance margin), C2 (velocity margin), K (confirmation
//! frames) and the corridor margin over three representative situations,
//! reporting the tolerable latency each configuration grants. Monotone
//! behavior is the property suite's job; this binary quantifies the
//! magnitudes so a deployer can see what each 0.05 of margin costs.
//!
//! Run: `cargo run --release -p zhuyi-bench --bin ablation_conservatism`

use av_core::prelude::*;
use zhuyi::estimator::{EgoKinematics, TolerableLatencyEstimator};
use zhuyi::future::{ActorFuture, ConstantAccelActor, StationaryActor};
use zhuyi::ZhuyiConfig;
use zhuyi_bench::{write_results, Table};

fn situations() -> Vec<(&'static str, EgoKinematics, Box<dyn ActorFuture>)> {
    vec![
        (
            "city obstacle 60m @20m/s",
            EgoKinematics::new(MetersPerSecond(20.0), MetersPerSecondSquared::ZERO),
            Box::new(StationaryActor::new(Meters(60.0))),
        ),
        (
            "highway brake 50m @70mph",
            EgoKinematics::new(Mph(70.0).into(), MetersPerSecondSquared::ZERO),
            Box::new(ConstantAccelActor::new(
                Meters(50.0),
                Mph(70.0).into(),
                MetersPerSecondSquared(-6.5),
            )),
        ),
        (
            "slow lead 30m @60mph",
            EgoKinematics::new(Mph(60.0).into(), MetersPerSecondSquared::ZERO),
            Box::new(ConstantAccelActor::new(
                Meters(30.0),
                Mph(40.0).into(),
                MetersPerSecondSquared::ZERO,
            )),
        ),
    ]
}

fn latency_ms(cfg: ZhuyiConfig, ego: EgoKinematics, future: &dyn ActorFuture) -> String {
    let estimator = TolerableLatencyEstimator::new(cfg).expect("swept config is valid");
    let est = estimator.tolerable_latency(ego, future, Seconds(1.0 / 30.0));
    format!("{:.0}", est.latency.as_millis())
}

fn sweep(title: &str, configs: &[(String, ZhuyiConfig)]) -> Table {
    println!("-- {title} --");
    let mut header = vec!["situation".to_string()];
    header.extend(configs.iter().map(|(label, _)| label.clone()));
    let mut table = Table::new(header);
    for (name, ego, future) in &situations() {
        let mut row = vec![(*name).to_string()];
        for (_, cfg) in configs {
            row.push(latency_ms(*cfg, *ego, future.as_ref()));
        }
        table.row(row);
    }
    println!("{}", table.render());
    table
}

const USAGE: &str = "USAGE: ablation_conservatism   (no arguments; -h/--help prints this)";

fn main() {
    zhuyi_bench::switches(USAGE, []);
    println!("== Conservatism ablation: tolerable latency (ms) per knob ==\n");
    let base = ZhuyiConfig::paper();

    let c1: Vec<(String, ZhuyiConfig)> = [0.8, 0.9, 1.0]
        .iter()
        .map(|&v| (format!("C1={v}"), ZhuyiConfig { c1: v, ..base }))
        .collect();
    let t1 = sweep("C1 — distance margin (paper 0.9)", &c1);

    let c2: Vec<(String, ZhuyiConfig)> = [0.8, 0.9, 1.0]
        .iter()
        .map(|&v| (format!("C2={v}"), ZhuyiConfig { c2: v, ..base }))
        .collect();
    let t2 = sweep("C2 — velocity margin (paper 0.9)", &c2);

    let k: Vec<(String, ZhuyiConfig)> = [0u32, 3, 5, 8]
        .iter()
        .map(|&v| {
            (
                format!("K={v}"),
                ZhuyiConfig {
                    confirmation_frames: v,
                    ..base
                },
            )
        })
        .collect();
    let t3 = sweep("K — confirmation frames (paper 5)", &k);

    let brake: Vec<(String, ZhuyiConfig)> = [3.5, 4.9, 6.5]
        .iter()
        .map(|&v| {
            (
                format!("C3={v}"),
                ZhuyiConfig {
                    min_brake_decel: MetersPerSecondSquared(v),
                    ..base
                },
            )
        })
        .collect();
    let t4 = sweep("C3 — assumed braking decel, m/s^2 (paper 4.9)", &brake);

    println!(
        "Reading: larger C1/C2 (less margin) and stronger assumed braking relax \
         the estimate;\nmore confirmation frames tighten it. 1000 ms = the model \
         maximum (1 FPR)."
    );
    let csv = [t1, t2, t3, t4]
        .iter()
        .map(Table::to_csv)
        .collect::<Vec<_>>()
        .join("\n");
    let path = write_results("ablation_conservatism.csv", &csv);
    println!("written to {}", path.display());
}
