//! Baseline comparison: Suraksha-style grid search vs. Zhuyi (paper §5).
//!
//! The paper's related work argues that "the grid search adopted in
//! Suraksha could easily become infeasible in \[a\] multi-camera setting".
//! This harness makes that argument quantitative on our substrate:
//!
//! 1. **Uniform grid search** — find the minimum safe uniform FPR by
//!    running the closed-loop scenario at every candidate rate (what
//!    Suraksha does for a single-camera setting);
//! 2. **Per-camera grid search** — the same over independent
//!    front/left/right rates: the search space is exponential in the
//!    camera count;
//! 3. **Zhuyi** — one 30-FPR run plus the offline model, giving per-camera
//!    requirements directly.
//!
//! Run: `cargo run --release -p zhuyi-bench --bin baseline_grid_search`

use av_core::prelude::*;
use av_perception::camera::CameraKind;
use av_perception::rig::CameraRig;
use av_perception::system::RatePlan;
use av_scenarios::catalog::{Scenario, ScenarioId};
use zhuyi_bench::figures::run_and_analyze;
use zhuyi_bench::{write_results, Table};

/// Builds a per-camera plan: the `front` knob drives both front cameras
/// (otherwise the 60° camera would silently cover for a throttled 120°
/// one), the side knobs drive the side cameras, and the rear camera stays
/// at 30.
fn plan(rig: &CameraRig, front: f64, left: f64, right: f64) -> RatePlan {
    let mut rates = vec![Fpr(30.0); rig.len()];
    for (kind, rate) in [
        (CameraKind::FrontWide, front),
        (CameraKind::FrontNarrow, front),
        (CameraKind::Left, left),
        (CameraKind::Right, right),
    ] {
        if let Some(id) = rig.find(kind) {
            rates[id.0] = Fpr(rate);
        }
    }
    RatePlan::PerCamera(rates)
}

const USAGE: &str = "USAGE: baseline_grid_search   (no arguments; -h/--help prints this)";

fn main() {
    zhuyi_bench::switches(USAGE, []);
    let id = ScenarioId::CutOutFast;
    let scenario = Scenario::build(id, 0);
    let rig = CameraRig::drive_av();
    println!("== Baseline: grid search vs. Zhuyi ({}) ==\n", id.name());

    // --- 1. Uniform grid search (single-knob Suraksha setting).
    let mut sims = 0u32;
    let candidates = [1u32, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 30];
    let mut uniform_mrf = None;
    for &fpr in candidates.iter().rev() {
        let trace = scenario.run_at(Fpr(f64::from(fpr)));
        sims += 1;
        if trace.collided() {
            break; // rates are descending; previous candidate was minimal
        }
        uniform_mrf = Some(fpr);
    }
    let uniform_sims = sims;
    println!(
        "uniform grid search: minimum safe uniform rate = {} FPR ({} simulations)",
        uniform_mrf.map_or("-".into(), |f| f.to_string()),
        uniform_sims
    );

    // --- 2. Per-camera grid search over front x left x right.
    let grid = [1.0, 5.0, 10.0, 30.0];
    let mut evaluated = 0u32;
    let mut best: Option<(f64, f64, f64, f64)> = None; // (sum, f, l, r)
    for &f in &grid {
        for &l in &grid {
            for &r in &grid {
                evaluated += 1;
                let trace = scenario
                    .simulation(plan(&rig, f, l, r))
                    .expect("valid plan")
                    .run();
                if !trace.collided() {
                    let sum = f + l + r;
                    if best.is_none_or(|(s, ..)| sum < s) {
                        best = Some((sum, f, l, r));
                    }
                }
            }
        }
    }
    let (sum, f, l, r) = best.expect("some grid point is safe");
    println!(
        "per-camera grid search: cheapest safe allocation front={f} left={l} right={r} \
         (sum {sum}; {evaluated} simulations over a {}-point grid; 12 cameras would need {} points)",
        grid.len().pow(3),
        grid.len().pow(12),
    );

    // --- 3. Zhuyi: one reference run + the model.
    let (_, analysis) = run_and_analyze(id, 0, 30.0, 10);
    let peak = |kind: CameraKind| {
        analysis
            .camera_latency_series(kind)
            .iter()
            .map(|(_, lat)| Fpr::from_latency(*lat).value())
            .fold(0.0_f64, f64::max)
    };
    let (zf, zl, zr) = (
        peak(CameraKind::FrontWide),
        peak(CameraKind::Left),
        peak(CameraKind::Right),
    );
    println!(
        "Zhuyi: per-camera requirements front={zf:.1} left={zl:.1} right={zr:.1} \
         (1 simulation + the model)\n"
    );

    // Validate Zhuyi's allocation closed-loop.
    let trace = scenario
        .simulation(plan(&rig, zf.ceil(), zl.ceil(), zr.ceil()))
        .expect("valid plan")
        .run();
    println!(
        "closed-loop check of the Zhuyi allocation (ceil'd): {}",
        if trace.collided() {
            "COLLISION"
        } else {
            "safe"
        }
    );

    let mut table = Table::new(["method", "simulations", "front", "left", "right"]);
    table.row([
        "uniform grid".to_string(),
        uniform_sims.to_string(),
        uniform_mrf.map_or("-".into(), |v| v.to_string()),
        uniform_mrf.map_or("-".into(), |v| v.to_string()),
        uniform_mrf.map_or("-".into(), |v| v.to_string()),
    ]);
    table.row([
        "per-camera grid".to_string(),
        evaluated.to_string(),
        format!("{f}"),
        format!("{l}"),
        format!("{r}"),
    ]);
    table.row([
        "Zhuyi".to_string(),
        "1".to_string(),
        format!("{zf:.1}"),
        format!("{zl:.1}"),
        format!("{zr:.1}"),
    ]);
    println!("\n{}", table.render());
    println!(
        "The grid search cost grows as grid^cameras; Zhuyi's stays one run. \
         This is the paper's Suraksha infeasibility argument, measured."
    );
    let path = write_results("baseline_grid_search.csv", &table.to_csv());
    println!("written to {}", path.display());
}
