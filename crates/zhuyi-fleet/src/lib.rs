//! **zhuyi-fleet** — parallel fleet-scale scenario sweeps for the Zhuyi
//! (DAC 2022) reproduction.
//!
//! Zhuyi's pre-deployment use case (§3.1) answers a per-instant question —
//! the minimum per-camera frame processing rate that keeps the ego
//! collision-free — but it pays off only when that question is asked
//! across an entire scenario corpus: every Table-1 scenario, times
//! hundreds of jittered variants, times candidate rate plans and predictor
//! choices. This crate turns the repo's one-scenario-at-a-time machinery
//! into that batch engine:
//!
//! - [`job`] — the [`job::SweepJob`] unit of work: *scenario × jitter
//!   seed × rate plan × predictor choice*, plus the question asked
//!   (collision probe, minimum-safe-FPR search, Zhuyi trace analysis);
//! - [`plan`] — [`plan::SweepPlan`] expansion of the corpus cross product
//!   into a dense, id-ordered job list;
//! - [`pool`] — a sharded `std::thread` worker pool whose result merge is
//!   byte-deterministic regardless of worker count;
//! - [`search`] — the per-instance minimum-safe-FPR driver: binary
//!   localization of the safety boundary plus a memoized verification of
//!   every higher rate, answering exactly like the old brute-force scans
//!   while skipping the candidates below the boundary;
//! - [`exec`] — pure job execution (the function the pool parallelizes),
//!   metrics-only wherever the outcome allows: probes and MSF searches
//!   stream each run and never store a scene, recording full traces only
//!   for jobs that export or analyze them;
//! - [`store`] — the merged [`store::ResultStore`]: percentile
//!   aggregation per scenario, aligned tables and CSV via
//!   [`zhuyi_bench::Table`], JSON, and full-trace export via
//!   [`av_sim::io`].
//!
//! The `fleet_sweep` binary wraps all of this in a CLI; the
//! `scenario_sweep` and `mrf_probe` examples are ports of the repo's
//! original hand-rolled loops onto this API.
//!
//! # Quickstart
//!
//! ```no_run
//! use zhuyi_fleet::{run_sweep, SweepPlan};
//!
//! // Table 1, fleet-style: all nine scenarios x 10 jittered variants,
//! // each binary-searching its minimum safe rate.
//! let plan = SweepPlan::builder()
//!     .jittered_variants(10)
//!     .min_safe_fpr(vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 30])
//!     .build();
//! let store = run_sweep(&plan, 8);
//! println!("{}", store.summary_table().render());
//! std::fs::write("results/fleet.json", store.to_json()).unwrap();
//! ```
//!
//! # Determinism
//!
//! A sweep is a pure function of its plan: scenarios rebuild from
//! (id, seed), the simulator and estimator are deterministic, results
//! merge in job-id order, and no wall-clock data enters any export. The
//! `tests/fleet_determinism.rs` suite pins the resulting guarantee —
//! multi-threaded sweeps are byte-identical to single-threaded ones.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod exec;
pub mod job;
pub mod plan;
pub mod pool;
pub mod search;
pub mod store;

pub use exec::ExecOptions;
pub use job::{JobId, JobKind, JobSpec, PredictorChoice, RateSpec, SweepJob};
pub use plan::{SweepPlan, SweepPlanBuilder};
pub use search::{min_safe_fpr, min_safe_fpr_batched, MsfSearch};
pub use store::{JobOutcome, JobResult, ResultStore, ScenarioSummary};

/// Runs every job of `plan` on `workers` threads and merges the results
/// into an id-ordered [`ResultStore`]. Execution is metrics-only wherever
/// the outcome allows it (see [`exec`]).
///
/// The output is identical for any `workers >= 1`; see the crate docs'
/// determinism section.
pub fn run_sweep(plan: &SweepPlan, workers: usize) -> ResultStore {
    run_sweep_with(plan, workers, ExecOptions::default())
}

/// [`run_sweep`] under explicit [`ExecOptions`]: `per_rate` runs
/// minimum-safe-FPR searches one candidate at a time (identical results,
/// higher cost; the reference the batched search is checked and
/// measured against).
pub fn run_sweep_with(plan: &SweepPlan, workers: usize, options: ExecOptions) -> ResultStore {
    let results = pool::run_indexed(plan.jobs().to_vec(), workers, move |job| {
        let timer = zhuyi_telemetry::JobTimer::start();
        let outcome = exec::execute_with(&job.spec, options);
        timer.finish(job.id.0);
        JobResult {
            job: job.clone(),
            outcome,
        }
    });
    ResultStore::new(results)
}
