//! Fleet-level batched-vs-per-rate export equality: whether
//! `ExecOptions::per_rate` is set or not, a sweep's CSV and JSON exports
//! must be byte-identical — the batched backend replays the per-rate
//! search's accounting, so not even `sims_run` may drift.

use zhuyi_fleet::{run_sweep_with, ExecOptions, SweepPlan};

const PER_RATE: ExecOptions = ExecOptions { per_rate: true };

#[test]
fn msf_sweep_exports_are_identical_on_both_paths() {
    // The full jittered catalog (all nine scenarios, two variants each)
    // over the full paper rate grid: per-rate reference vs whole-grid
    // batching.
    let plan = SweepPlan::builder()
        .scenarios(av_scenarios::catalog::ScenarioId::ALL)
        .jittered_variants(2)
        .min_safe_fpr(av_scenarios::catalog::PAPER_RATE_GRID.to_vec())
        .build();
    let per_rate = run_sweep_with(&plan, 2, PER_RATE);
    let batched = run_sweep_with(&plan, 2, ExecOptions::default());
    assert_eq!(
        per_rate.to_csv(),
        batched.to_csv(),
        "CSV export diverged from the per-rate path"
    );
    assert_eq!(
        per_rate.to_json(),
        batched.to_json(),
        "JSON export diverged from the per-rate path"
    );
}

#[test]
fn per_rate_does_not_perturb_other_job_kinds() {
    // Probe, per-camera and analyze jobs (all three predictors) never
    // consult per_rate; a mixed plan pins that the flag cannot change a
    // byte of their exports either.
    use zhuyi_fleet::PredictorChoice;
    let scenarios = [
        av_scenarios::catalog::ScenarioId::CutOut,
        av_scenarios::catalog::ScenarioId::VehicleFollowing,
    ];
    let mut plans = vec![
        SweepPlan::builder()
            .scenarios(scenarios)
            .jittered_variants(2)
            .probe(4.0, false)
            .build(),
        SweepPlan::builder()
            .scenarios(scenarios)
            .jittered_variants(1)
            .probe_per_camera_plans(
                av_scenarios::catalog::PER_CAMERA_PLANS
                    .iter()
                    .map(|p| p.rates.to_vec()),
                false,
            )
            .build(),
    ];
    for predictor in [
        PredictorChoice::Oracle,
        PredictorChoice::ConstantVelocity,
        PredictorChoice::ConstantAcceleration,
    ] {
        plans.push(
            SweepPlan::builder()
                .scenarios([av_scenarios::catalog::ScenarioId::CutOut])
                .jittered_variants(1)
                .analyze(8.0, predictor, 50)
                .build(),
        );
    }
    for (i, plan) in plans.iter().enumerate() {
        let per_rate = run_sweep_with(plan, 2, PER_RATE);
        let batched = run_sweep_with(plan, 2, ExecOptions::default());
        assert_eq!(
            per_rate.to_csv(),
            batched.to_csv(),
            "plan {i}: non-MSF exports diverged under per_rate"
        );
    }
}
