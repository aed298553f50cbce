//! Telemetry aggregate determinism: the `"deterministic"` section of a
//! sweep's merged snapshot is a function of the executed job set alone.
//! Shard counts (worker threads), scheduling order, and wall-clock noise
//! must all cancel out — every deterministic value is a commutative u64
//! sum, and shards merge in id order. This pins the contract the
//! distributed fold relies on: coordinator-side aggregates are
//! comparable across runs and across cluster shapes.

use std::sync::Arc;

use av_scenarios::catalog::ScenarioId;
use zhuyi_fleet::{run_sweep_with, ExecOptions, SweepPlan};

/// Scenarios with distinct actor mixes, plus jittered variants for real
/// geometry diversity.
fn mixed_plan() -> SweepPlan {
    SweepPlan::builder()
        .scenarios([
            ScenarioId::CutOut,
            ScenarioId::VehicleFollowing,
            ScenarioId::FrontRightActivity1,
        ])
        .jittered_variants(2)
        .probe(4.0, true)
        .min_safe_fpr(vec![1, 4, 30])
        .build()
}

/// Runs the plan under a fresh registry and returns the deterministic
/// section of the merged snapshot.
fn deterministic_section(plan: &SweepPlan, workers: usize, options: ExecOptions) -> String {
    let registry = Arc::new(zhuyi_telemetry::Registry::new());
    let _guard = zhuyi_telemetry::install(&registry);
    run_sweep_with(plan, workers, options);
    registry.snapshot().deterministic_json()
}

#[test]
fn deterministic_section_is_shard_count_independent_and_repeatable() {
    let plan = mixed_plan();
    let options = ExecOptions::default();

    let reference = deterministic_section(&plan, 1, options);
    assert_ne!(
        reference,
        Arc::new(zhuyi_telemetry::Registry::new())
            .snapshot()
            .deterministic_json(),
        "the sweep recorded nothing; the comparison below is vacuous"
    );

    for workers in [2usize, 4] {
        assert_eq!(
            deterministic_section(&plan, workers, options),
            reference,
            "deterministic telemetry diverged at {workers} workers"
        );
    }
    assert_eq!(
        deterministic_section(&plan, 2, options),
        deterministic_section(&plan, 2, options),
        "deterministic telemetry diverged between identical runs"
    );
}

#[test]
fn deterministic_section_is_execution_path_independent() {
    // The per-rate and rate-batched paths walk different loops but
    // execute the same job set; phase-tick totals differ by
    // construction (batched loops lap once per shared tick), so this
    // pin is narrower: counters that count *jobs* must agree. Certificate
    // declines legitimately differ (only the batched path attempts
    // certificates), which is exactly why they are interesting to record.
    let plan = mixed_plan();
    let per_job = |options: ExecOptions| {
        let registry = Arc::new(zhuyi_telemetry::Registry::new());
        let _guard = zhuyi_telemetry::install(&registry);
        run_sweep_with(&plan, 2, options);
        let snap = registry.snapshot();
        (
            snap.counters[zhuyi_telemetry::Counter::JobsExecuted.index()],
            snap.jobs.iter().map(|&(id, _)| id).collect::<Vec<u64>>(),
        )
    };

    let reference = per_job(ExecOptions { per_rate: true });
    assert_eq!(reference.0, plan.len() as u64);
    assert_eq!(
        per_job(ExecOptions::default()),
        reference,
        "rate-batched path recorded a different job set"
    );
}
