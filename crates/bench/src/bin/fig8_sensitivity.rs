//! Figure 8: estimated minimum FPR over (ego speed, actor end velocity)
//! with a fixed tolerable distance s_n.
//!
//! Two heat maps (s_n = 30 m and 100 m), swept over 0–70 mph on both
//! axes. Cells print the required FPR; `30+` marks rates above the
//! 30-FPR reference (gray in the paper) and `X` marks unavoidable
//! collisions (white in the paper).
//!
//! Run: `cargo run --release -p zhuyi-bench --bin fig8_sensitivity`
//! (add `-- --aggregate` to print the per-mode ablation of Eq. 4 — the
//! DESIGN.md item on aggregation functions.)

use av_core::prelude::*;
use zhuyi::sensitivity::{paper_axis, sweep_fixed_gap, CellOutcome, SensitivityGrid};
use zhuyi::ZhuyiConfig;
use zhuyi_bench::{write_results, Table};

fn cell_label(cell: &CellOutcome) -> String {
    match cell {
        CellOutcome::RequiredFpr(f) => format!("{f:.1}"),
        CellOutcome::AboveLimit => "30+".into(),
        CellOutcome::Unavoidable => "X".into(),
    }
}

fn emit(grid: &SensitivityGrid, stem: &str) {
    println!(
        "-- s_n = {:.0} m (rows: ego speed, columns: actor end velocity, both mph) --",
        grid.gap.value()
    );
    let mut header: Vec<String> = vec!["ve0\\van".into()];
    header.extend(
        grid.actor_speeds
            .iter()
            .map(|v| format!("{:.0}", v.value())),
    );
    let mut table = Table::new(header);
    for (i, ve) in grid.ego_speeds.iter().enumerate() {
        let mut row = vec![format!("{:.0}", ve.value())];
        row.extend(grid.cells[i].iter().map(cell_label));
        table.row(row);
    }
    println!("{}", table.render());
    let (finite, above, unavoidable) = grid.census();
    println!(
        "cells: {finite} feasible, {above} above 30 FPR, {unavoidable} unavoidable; \
         max finite requirement {:.1} FPR\n",
        grid.max_finite_fpr().unwrap_or(f64::NAN)
    );
    let path = write_results(&format!("{stem}.csv"), &table.to_csv());
    println!("written to {}\n", path.display());
}

const USAGE: &str = "USAGE: fig8_sensitivity [--aggregate]
  --aggregate  also print the C1 ablation at s_n = 30 m";

fn main() {
    let [ablate] = zhuyi_bench::switches(USAGE, ["--aggregate"]);
    println!("== Figure 8: minimum-FPR sensitivity over velocities ==\n");
    println!(
        "(following the paper's setting, the confirmation-delay term is \
         inactive here: l0 = max latency)\n"
    );
    let axis = paper_axis();
    for (gap, stem) in [(30.0, "fig8a_sn30"), (100.0, "fig8b_sn100")] {
        let grid = sweep_fixed_gap(ZhuyiConfig::paper(), Meters(gap), &axis, &axis, Fpr(1.0))
            .expect("paper config is valid");
        emit(&grid, stem);
    }

    if ablate {
        // Ablation: how the corridor margin (the lateral-overlap gate)
        // shifts nothing here (fixed-gap actors are always in corridor),
        // but the search-strategy choice does change cost (counted by
        // `SearchStats`; see the estimator's
        // `accelerated_uses_fewer_evaluations` test). What *is* sweepable
        // here is the braking conservatism C1.
        println!("== C1 ablation at s_n = 30 m (max finite FPR per C1) ==");
        let mut table = Table::new(["C1", "max finite FPR", "unavoidable cells"]);
        for c1 in [0.8, 0.9, 1.0] {
            let mut cfg = ZhuyiConfig::paper();
            cfg.c1 = c1;
            let grid =
                sweep_fixed_gap(cfg, Meters(30.0), &axis, &axis, Fpr(1.0)).expect("valid config");
            let (_, _, unavoidable) = grid.census();
            table.row([
                format!("{c1:.1}"),
                format!("{:.1}", grid.max_finite_fpr().unwrap_or(f64::NAN)),
                unavoidable.to_string(),
            ]);
        }
        println!("{}", table.render());
    }
}
