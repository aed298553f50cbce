//! Figure 4: per-camera latency estimates for the *Cut-out fast* scenario.
//!
//! Panels (b)-(d) are the left/front/right camera tolerable-latency series
//! produced by the offline Zhuyi pipeline over a 30-FPR ground-truth
//! trace; panel (e) is the ego's acceleration. The paper's observations to
//! look for: the front camera tightens to ~167 ms during the reveal while
//! the side cameras stay at >= 500 ms, and front-camera demand correlates
//! with ego deceleration.
//!
//! Run: `cargo run --release -p zhuyi-bench --bin fig4_cut_out_fast`

use av_scenarios::catalog::ScenarioId;
use zhuyi_bench::figures::{emit_camera_figure, run_and_analyze};

const USAGE: &str = "USAGE: fig4_cut_out_fast   (no arguments; -h/--help prints this)";

fn main() {
    zhuyi_bench::switches(USAGE, []);
    let (trace, analysis) = run_and_analyze(ScenarioId::CutOutFast, 0, 30.0, 10);
    assert!(!trace.collided(), "the 30-FPR reference run must be safe");
    emit_camera_figure(
        "Figure 4: Cut-out fast (40 mph), per-camera latency estimates",
        "fig4_cut_out_fast",
        &analysis,
    );
}
