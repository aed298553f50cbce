//! Figure 5: per-camera latency estimates for *Challenging cut-in on a
//! curved road*.
//!
//! The paper's observations: the cut-in forces hard ego braking and the
//! highest front-camera FPR requirement, while the side cameras stay at a
//! maximum of ~2 FPR even though an actor cuts in from the adjacent lane.
//!
//! Run: `cargo run --release -p zhuyi-bench --bin fig5_curved_cut_in`

use av_scenarios::catalog::ScenarioId;
use zhuyi_bench::figures::{emit_camera_figure, run_and_analyze};

const USAGE: &str = "USAGE: fig5_curved_cut_in   (no arguments; -h/--help prints this)";

fn main() {
    zhuyi_bench::switches(USAGE, []);
    let (trace, analysis) = run_and_analyze(ScenarioId::ChallengingCutInCurved, 0, 30.0, 10);
    assert!(!trace.collided(), "the 30-FPR reference run must be safe");
    emit_camera_figure(
        "Figure 5: Challenging cut-in on a curved road (40 mph)",
        "fig5_curved_cut_in",
        &analysis,
    );
}
