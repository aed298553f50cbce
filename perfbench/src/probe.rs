//! The per-job probe of the traced sweep workloads.
//!
//! Each job runs in process on two pool threads. Under one `probe` span
//! per job, the probe times `exec::execute_with`, then re-issues the
//! layer calls that the job makes inside the program, each as its own
//! span: the scenario build and `SweepContext::new`, the lockstep run
//! (`collides_batched_with_stats`), and the wire encoding of the job's
//! Assign and Result frames. The re-issued calls are checked against the
//! job's outcome.

use crate::layers::Counters;
use crate::trace::{Tracer, ROOT};
use av_core::units::Fpr;
use av_scenarios::catalog::Mrf;
use av_scenarios::sweep::SweepContext;
use std::sync::Mutex;
use zhuyi_distd::wire::{decode_frame, encode_frame, Frame};
use zhuyi_fleet::exec::execute_with;
use zhuyi_fleet::{ExecOptions, JobKind, JobOutcome, JobResult, SweepJob};

/// The MSF rule over a verdict row: one above the highest colliding
/// candidate.
fn mrf_of(collided: &[bool], candidates: &[u32]) -> Mrf {
    match collided.iter().rposition(|&c| c) {
        None => Mrf::BelowMinimumTested,
        Some(h) if h + 1 < candidates.len() => Mrf::Fpr(candidates[h + 1]),
        Some(_) => Mrf::AboveMaximumTested,
    }
}

/// Encodes the job's share of an Assign frame and its Result frame, and
/// checks that both decode back to the same bytes.
fn codec(job: &SweepJob, result: &JobResult) -> (usize, bool) {
    let assign = encode_frame(&Frame::Assign {
        batch: 0,
        options: ExecOptions::default(),
        jobs: vec![job.clone()],
    });
    let reply = encode_frame(&Frame::Result {
        result: Box::new(result.clone()),
    });
    let same = |bytes: &[u8]| decode_frame(bytes).is_ok_and(|f| encode_frame(&f) == bytes);
    (assign.len() + reply.len(), same(&assign) && same(&reply))
}

/// Result of probing a job set.
#[derive(Debug)]
pub struct Probed {
    /// Counts taken at the probed boundaries.
    pub counters: Counters,
    /// Jobs whose re-issued layer calls disagreed with their outcome.
    pub mismatches: u64,
}

/// Probes every job of `jobs`. Op ids are `op_base + job id`.
pub fn run(tracer: &Tracer, jobs: &[SweepJob], op_base: u64) -> Probed {
    let shared = Mutex::new((Counters::default(), 0u64));
    zhuyi_fleet::pool::run_indexed(jobs.to_vec(), 2, |job| {
        let op = op_base + job.id.0;
        let root = tracer.open("probe", ROOT, op);
        let outcome = tracer.time("zhuyi_fleet.exec", root.id, op, || {
            execute_with(&job.spec, ExecOptions::default())
        });
        let mut counters = Counters::default();
        let mut agree = true;
        if let (JobKind::MinSafeFpr { candidates }, JobOutcome::MinSafeFpr(search)) =
            (&job.spec.kind, &outcome)
        {
            let build = tracer.open("av_scenarios.build", root.id, op);
            let scenario = job.spec.scenario.build(job.spec.seed);
            let mut context = SweepContext::new(&scenario);
            tracer.close(build);
            let rates: Vec<Fpr> = candidates.iter().map(|&c| Fpr(f64::from(c))).collect();
            let (collided, stats) = tracer.time("av_sim.batch.lockstep", root.id, op, || {
                context.collides_batched_with_stats(&rates)
            });
            counters.batch.merge(&stats);
            counters.lockstep_jobs += 1;
            agree &= mrf_of(&collided, candidates) == search.mrf;
        }
        let result = JobResult {
            job: job.clone(),
            outcome,
        };
        let (bytes, same) = tracer.time("zhuyi_distd.wire.codec", root.id, op, || {
            codec(job, &result)
        });
        counters.wire_bytes += bytes as u64;
        counters.codec_jobs += 1;
        agree &= same;
        tracer.close(root);
        let mut guard = shared.lock().expect("probe counters poisoned");
        guard.0.merge(&counters);
        guard.1 += u64::from(!agree);
    });
    let (counters, mismatches) = shared.into_inner().expect("probe counters poisoned");
    Probed {
        counters,
        mismatches,
    }
}
