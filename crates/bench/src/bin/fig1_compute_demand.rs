//! Figure 1: expected throughput demand for state-of-the-art camera
//! perception versus in-vehicle SoC capability.
//!
//! Regenerates the paper's motivating figure: the TOPS demand of SSD-Large
//! perception on 12 cameras (+20% feature-sharing models) at 10–40 FPR,
//! against NVIDIA DRIVE AGX Xavier and Jetson AGX Orin.
//!
//! Run: `cargo run -p zhuyi-bench --bin fig1_compute_demand`

use compute_model::{PerceptionWorkload, Soc};
use zhuyi_bench::{write_results, Table};

const USAGE: &str = "USAGE: fig1_compute_demand   (no arguments; -h/--help prints this)";

fn main() {
    zhuyi_bench::switches(USAGE, []);
    let workload = PerceptionWorkload::paper_default();
    let socs = [Soc::xavier(), Soc::orin()];
    let rates = [10.0, 20.0, 30.0, 40.0];

    println!("== Figure 1: camera-perception compute demand vs. SoC capability ==");
    println!(
        "workload: {} cameras x {} Gops/frame x {:.1} overhead\n",
        workload.cameras, workload.gops_per_frame, workload.feature_reuse_overhead
    );

    let mut table = Table::new([
        "per-camera FPR",
        "demand (TOPS)",
        "Xavier (30)",
        "Orin (275)",
    ]);
    for &fpr in &rates {
        let demand = workload.tops_demand(fpr);
        table.row([
            format!("{fpr:.0}"),
            format!("{demand:.1}"),
            if socs[0].sustains(demand) {
                "ok"
            } else {
                "EXCEEDED"
            }
            .to_string(),
            if socs[1].sustains(demand) {
                "ok"
            } else {
                "EXCEEDED"
            }
            .to_string(),
        ]);
    }
    println!("{}", table.render());

    for soc in &socs {
        println!(
            "{}: sustains up to {:.1} FPR per camera",
            soc.name(),
            soc.max_sustainable_fpr(&workload)
        );
    }
    let zhuyi_fraction = 0.36;
    println!(
        "\nwith Zhuyi-style prioritization ({}% of frames), the 30-FPR demand drops \
         from {:.1} to {:.1} TOPS",
        (zhuyi_fraction * 100.0) as u32,
        workload.tops_demand(30.0),
        workload.tops_demand_at_fraction(30.0, zhuyi_fraction)
    );

    let path = write_results("fig1_compute_demand.csv", &table.to_csv());
    println!("series written to {}", path.display());
}
