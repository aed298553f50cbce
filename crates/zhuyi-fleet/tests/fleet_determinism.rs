//! Fleet determinism and correctness: a multi-threaded sweep must be
//! byte-identical to the same sweep on one thread, and both
//! minimum-safe-FPR searches (lane-batched and per-rate binary) must
//! agree with a reference built here from a fresh scenario and a full
//! recorded trace per candidate rate.

use av_core::units::Fpr;
use av_scenarios::catalog::{Mrf, Scenario, ScenarioId};
use zhuyi_fleet::store::ProbeOutcome;
use zhuyi_fleet::{
    run_sweep, run_sweep_with, ExecOptions, JobOutcome, PredictorChoice, ResultStore, SweepPlan,
};

/// Three scenarios spanning the corpus: one that collides at low rates
/// (Cut-out), one benign highway case (Vehicle following), one with side
/// activity (Front & right 1).
const SCENARIOS: [ScenarioId; 3] = [
    ScenarioId::CutOut,
    ScenarioId::VehicleFollowing,
    ScenarioId::FrontRightActivity1,
];

fn mixed_plan() -> SweepPlan {
    SweepPlan::builder()
        .scenarios(SCENARIOS)
        .jittered_variants(2)
        .probe(4.0, true)
        .min_safe_fpr(vec![1, 4, 30])
        .build()
}

/// The reference minimum safe rate over `grid`, scanned from the top:
/// each candidate runs on a freshly built scenario and records its full
/// trace, so no state can carry from one run to the next. The answer is
/// the candidate above the highest colliding one, as in Table 1.
fn rebuilt_msf(id: ScenarioId, seed: u64, grid: &[u32]) -> Mrf {
    let collides = |c: u32| {
        Scenario::build(id, seed)
            .run_at(Fpr(f64::from(c)))
            .collided()
    };
    match grid.iter().rposition(|&c| collides(c)) {
        None => Mrf::BelowMinimumTested,
        Some(h) if h + 1 < grid.len() => Mrf::Fpr(grid[h + 1]),
        Some(_) => Mrf::AboveMaximumTested,
    }
}

fn fingerprint(store: &ResultStore) -> String {
    let mut bytes = String::new();
    bytes.push_str(&store.to_csv());
    bytes.push_str(&store.to_json());
    for (name, csv) in store.kept_traces() {
        bytes.push_str(&name);
        bytes.push_str(csv);
    }
    bytes
}

#[test]
fn parallel_sweep_is_byte_identical_to_sequential() {
    let plan = mixed_plan();
    let sequential = fingerprint(&run_sweep(&plan, 1));
    for workers in [2, 4] {
        let parallel = fingerprint(&run_sweep(&plan, workers));
        assert_eq!(
            parallel, sequential,
            "sweep output diverged at {workers} workers"
        );
    }
}

#[test]
fn binary_search_agrees_with_exhaustive_scan_across_seeds() {
    // Both searches, against the rebuilt reference: the default sweep
    // runs the lane-batched search, `per_rate` the binary search this
    // test is named for.
    let grid = [1u32, 4, 30];
    let plan = SweepPlan::builder()
        .scenarios(SCENARIOS)
        .jittered_variants(2)
        .min_safe_fpr(grid.to_vec())
        .build();
    for options in [ExecOptions::default(), ExecOptions { per_rate: true }] {
        for result in run_sweep_with(&plan, 4, options).results() {
            let JobOutcome::MinSafeFpr(search) = &result.outcome else {
                panic!("plan only contains MSF jobs");
            };
            let spec = &result.job.spec;
            let id = spec.scenario.catalog_id().expect("catalog scenarios");
            assert_eq!(
                search.mrf,
                rebuilt_msf(id, spec.seed, &grid),
                "{} seed {} ({options:?}): search disagrees with exhaustive scan",
                spec.scenario,
                spec.seed
            );
            assert!(search.sims_run <= search.grid_size);
        }
    }
}

#[test]
fn metrics_only_sweep_matches_trace_recording_sweep() {
    // The streaming fast path is an optimization, not a different
    // experiment: every probe must report what a full recorded trace of
    // the same run reports, and every search must answer as the rebuilt
    // reference does.
    let plan = SweepPlan::builder()
        .scenarios(SCENARIOS)
        .jittered_variants(2)
        .probe(4.0, false)
        .min_safe_fpr(vec![1, 4, 30])
        .build();
    for result in run_sweep(&plan, 2).results() {
        let spec = &result.job.spec;
        let id = spec.scenario.catalog_id().expect("catalog scenarios");
        match &result.outcome {
            JobOutcome::Probe(probe) => {
                let trace = Scenario::build(id, spec.seed).run_at(Fpr(4.0));
                let collision = trace.collision();
                let recorded = ProbeOutcome {
                    collided: trace.collided(),
                    collision_time: collision.map(|(t, _)| t),
                    collision_actor: collision.map(|(_, a)| a),
                    min_clearance: trace.min_clearance(),
                    duration: trace.duration(),
                    trace_csv: None,
                };
                assert_eq!(probe, &recorded, "{}: probe diverged", result.job.id);
            }
            JobOutcome::MinSafeFpr(search) => assert_eq!(
                search.mrf,
                rebuilt_msf(id, spec.seed, &[1, 4, 30]),
                "{}: MsfSearch diverged",
                result.job.id
            ),
            other => panic!("unexpected outcome {other:?}"),
        }
    }
}

#[test]
fn jittered_variants_multiply_the_corpus() {
    let plan = SweepPlan::builder()
        .scenarios(SCENARIOS)
        .jittered_variants(12)
        .probe(30.0, false)
        .build();
    assert_eq!(plan.len(), 3 * 12);
    // Seeds produce distinct jobs, and each rebuilds a distinct scenario
    // instance (seed 0 nominal, others jittered).
    let seeds: std::collections::BTreeSet<u64> = plan.jobs().iter().map(|j| j.spec.seed).collect();
    assert_eq!(seeds.len(), 12);
}

#[test]
fn analyze_jobs_produce_conservative_estimates() {
    // At a safe rate, the Zhuyi estimate must exist and be positive; the
    // CV-predictor path must run the same number of strided steps.
    let store = run_sweep(
        &SweepPlan::builder()
            .scenarios([ScenarioId::VehicleFollowing])
            .seeds([0])
            .analyze(10.0, PredictorChoice::Oracle, 50)
            .analyze(10.0, PredictorChoice::ConstantVelocity, 50)
            .build(),
        2,
    );
    let outcomes: Vec<_> = store
        .results()
        .iter()
        .map(|r| match &r.outcome {
            JobOutcome::Analysis(a) => a,
            other => panic!("expected analysis outcome, got {other:?}"),
        })
        .collect();
    assert_eq!(outcomes.len(), 2);
    for a in &outcomes {
        assert!(!a.collided, "reference run at 10 FPR must be safe");
        assert!(a.steps > 0);
        let est = a.max_camera_fpr.expect("safe run produces an estimate");
        assert!(est > 0.0 && est.is_finite());
    }
}

#[test]
fn shared_context_search_matches_rebuild_per_candidate_across_catalog() {
    // Sweep-level scene sharing: `min_safe_fpr` runs every candidate on
    // one shared, reset-per-candidate simulation (`SweepContext`), while
    // the reference rebuilds the scenario from scratch for every
    // candidate. Both must answer identically across the whole jittered
    // catalog — any divergence means a reset leaked state between
    // candidate runs.
    use zhuyi_fleet::min_safe_fpr;
    let grid = [1u32, 4, 30];
    for id in ScenarioId::ALL {
        for seed in [0u64, 6] {
            let shared = min_safe_fpr(&Scenario::build(id, seed), &grid);
            assert_eq!(
                shared.mrf,
                rebuilt_msf(id, seed, &grid),
                "{id} seed {seed}: shared-context search diverged from per-candidate rebuild"
            );
            assert!(shared.sims_run <= shared.grid_size);
        }
    }
}
