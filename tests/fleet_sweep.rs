//! Tier-1 smoke of the fleet subsystem through the facade: the Table-1
//! catalog sweep must merge deterministically at every worker count,
//! export the same bytes through both MSF search paths, and reproduce
//! every Table-1 minimum required FPR on both.

use zhuyi_repro::fleet::{run_sweep, run_sweep_with, ExecOptions, JobOutcome, SweepPlan};
use zhuyi_repro::scenarios::catalog::{Mrf, ScenarioId, PAPER_RATE_GRID};

#[test]
fn fleet_sweep_is_deterministic_and_matches_table1_shapes() {
    let plan = SweepPlan::builder()
        .scenarios(ScenarioId::ALL)
        .seeds([0])
        .min_safe_fpr(PAPER_RATE_GRID.to_vec())
        .build();

    let sequential = run_sweep(&plan, 1);
    let parallel = run_sweep(&plan, 3);
    assert_eq!(
        sequential.to_csv(),
        parallel.to_csv(),
        "worker count changed the merged results"
    );
    assert_eq!(sequential.to_json(), parallel.to_json());
    let per_rate = run_sweep_with(&plan, 2, ExecOptions { per_rate: true });
    assert_eq!(
        sequential.to_csv(),
        per_rate.to_csv(),
        "the per-rate search changed the merged results"
    );
    assert_eq!(sequential.to_json(), per_rate.to_json());

    // Table 1's MRF column at nominal geometry: `<1` means the scenario
    // survives the lowest tested rate.
    let table1 = [
        (ScenarioId::CutOut, Mrf::Fpr(2)),
        (ScenarioId::CutOutFast, Mrf::Fpr(6)),
        (ScenarioId::CutIn, Mrf::BelowMinimumTested),
        (ScenarioId::ChallengingCutIn, Mrf::Fpr(3)),
        (ScenarioId::ChallengingCutInCurved, Mrf::Fpr(4)),
        (ScenarioId::VehicleFollowing, Mrf::BelowMinimumTested),
        (ScenarioId::FrontRightActivity1, Mrf::BelowMinimumTested),
        (ScenarioId::FrontRightActivity2, Mrf::BelowMinimumTested),
        (ScenarioId::FrontRightActivity3, Mrf::BelowMinimumTested),
    ];
    for (path, store) in [("batched", &sequential), ("per-rate", &per_rate)] {
        for (id, want) in table1 {
            let got = store
                .results()
                .iter()
                .find(|r| r.job.spec.scenario == id.into())
                .map(|r| match &r.outcome {
                    JobOutcome::MinSafeFpr(m) => m.mrf,
                    other => panic!("expected MSF outcome, got {other:?}"),
                })
                .expect("scenario present in sweep");
            assert_eq!(got, want, "{path} path: {id} MRF");
        }
    }
}
