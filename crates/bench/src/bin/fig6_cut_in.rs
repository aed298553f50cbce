//! Figure 6: per-camera latency estimates for the *Cut-in* scenario.
//!
//! The paper's observations: side cameras sit at the 1000 ms maximum (no
//! side actors), and the tightest front-camera estimate coincides with the
//! ego's *second* deceleration dip (when the ego has closed on the
//! settled-in actor), not the largest deceleration.
//!
//! Run: `cargo run --release -p zhuyi-bench --bin fig6_cut_in`

use av_scenarios::catalog::ScenarioId;
use zhuyi_bench::figures::{emit_camera_figure, run_and_analyze};

const USAGE: &str = "USAGE: fig6_cut_in   (no arguments; -h/--help prints this)";

fn main() {
    zhuyi_bench::switches(USAGE, []);
    let (trace, analysis) = run_and_analyze(ScenarioId::CutIn, 0, 30.0, 10);
    assert!(!trace.collided(), "the 30-FPR reference run must be safe");
    emit_camera_figure(
        "Figure 6: Cut-in (70 mph), per-camera latency estimates",
        "fig6_cut_in",
        &analysis,
    );
}
