//! `table1`: the Table-1 minimum-safe-FPR sweep.
//!
//! The nine catalog scenarios at the nominal seed and derived jitter
//! seeds, searched over the paper's rate grid through
//! `zhuyi_fleet::run_sweep_with` on two pool threads, with CSV and JSON
//! exports rendered. One op is one job; one request is one sweep.
//!
//! The traced run also probes, after its sweeps, each job's layer calls
//! ([`probe`]), the telemetry on/off ratio, and the distribution layers
//! on the same plan ([`distd`]).

use crate::calib::Calibrator;
use crate::layers::{Counters, Phase, REQUEST};
use crate::report::{EndToEnd, Outcome};
use crate::trace::{Tracer, ROOT};
use crate::{distd, exports, inputs, probe, Args};
use av_scenarios::catalog::ScenarioId;
use std::sync::Arc;
use std::time::Instant;
use zhuyi_fleet::exec::execute_with;
use zhuyi_fleet::{run_sweep_with, ExecOptions, JobOutcome, JobResult, ResultStore, SweepPlan};

/// Pool threads of every sweep.
const WORKERS: usize = 2;

/// Table 1's MRF column for the nominal instances.
fn paper_mrf(id: ScenarioId) -> &'static str {
    match id {
        ScenarioId::CutOut => "2",
        ScenarioId::CutOutFast => "6",
        ScenarioId::ChallengingCutIn => "3",
        ScenarioId::ChallengingCutInCurved => "4",
        _ => "<1",
    }
}

/// The MSF answer of a job, if it has one.
fn label(outcome: &JobOutcome) -> Option<String> {
    match outcome {
        JobOutcome::MinSafeFpr(search) => Some(search.label()),
        _ => None,
    }
}

/// Output-check tallies across sweeps.
#[derive(Default)]
struct Tally {
    nominal: u64,
    nominal_ok: u64,
    jittered: u64,
    jittered_ok: u64,
}

impl Tally {
    /// Checks one sweep: the nominal instances reproduce Table 1's MRF
    /// column, and every jittered instance is safe at the grid's top rate
    /// (30 FPR), as every catalog scenario is.
    fn add(&mut self, plan: &SweepPlan, store: &ResultStore, out: &mut Outcome) {
        let mut wrong = plan.len() as u64 - store.len() as u64;
        for r in store.results() {
            let id = r
                .job
                .spec
                .scenario
                .catalog_id()
                .expect("table1 sweeps the catalog");
            let label = label(&r.outcome);
            let ok = if r.job.spec.seed == 0 {
                let ok = label.as_deref() == Some(paper_mrf(id));
                self.nominal += 1;
                self.nominal_ok += u64::from(ok);
                ok
            } else {
                let ok = label.is_some_and(|l| !l.starts_with('>'));
                self.jittered += 1;
                self.jittered_ok += u64::from(ok);
                ok
            };
            wrong += u64::from(!ok);
        }
        out.attempted += plan.len() as u64;
        out.failed += wrong;
    }

    fn report(&self, out: &mut Outcome) {
        out.check("nominal MRFs match Table 1", self.nominal_ok, self.nominal);
        out.check(
            "jittered instances safe at 30 FPR",
            self.jittered_ok,
            self.jittered,
        );
    }
}

/// Sweeps until `seconds` are measured; each sweep is one window and its
/// plan build one set-up.
fn measure(
    args: &Args,
    seconds: f64,
    calib: &mut Calibrator,
    tally: &mut Tally,
    out: &mut Outcome,
) -> EndToEnd {
    let mut e2e = EndToEnd::new("sweep");
    while e2e.measured_s() < seconds {
        let k = e2e.windows.len() as u64;
        let plan = e2e.setup(calib, || inputs::table1_plan(args.seed, k));
        let store = e2e.window(calib, |window| {
            let t = Instant::now();
            let store = run_sweep_with(&plan, WORKERS, ExecOptions::default());
            std::hint::black_box(exports(&store));
            window.wall_s = t.elapsed().as_secs_f64();
            window.ops = plan.len() as u64;
            window.latencies_ms.push(window.wall_s * 1e3);
            store
        });
        tally.add(&plan, &store, out);
    }
    e2e
}

/// One sweep under spans: the plan build, then a request holding the
/// pool run (one exec span per job) and the export.
fn traced_sweep(args: &Args, tracer: &Tracer, k: u64, op: u64) -> (SweepPlan, ResultStore) {
    let plan = tracer.time("zhuyi_fleet.plan.build", ROOT, op, || {
        inputs::table1_plan(args.seed, k)
    });
    let request = tracer.open(REQUEST, ROOT, op);
    let pool = tracer.open("zhuyi_fleet.pool", request.id, op);
    let pool_id = pool.id;
    let results = zhuyi_fleet::pool::run_indexed(plan.jobs().to_vec(), WORKERS, |job| {
        let outcome = tracer.time("zhuyi_fleet.exec", pool_id, op + 1 + job.id.0, || {
            execute_with(&job.spec, ExecOptions::default())
        });
        JobResult {
            job: job.clone(),
            outcome,
        }
    });
    tracer.close(pool);
    let store = tracer.time("zhuyi_fleet.store.export", request.id, op, || {
        let store = ResultStore::new(results);
        std::hint::black_box(exports(&store));
        store
    });
    tracer.close(request);
    (plan, store)
}

/// Sweep wall with a telemetry registry installed ÷ without one: the
/// median of alternating pairs.
fn telemetry_on_off(plan: &SweepPlan, pairs: usize) -> f64 {
    let sweep = |on: bool| {
        let registry = Arc::new(zhuyi_telemetry::Registry::new());
        let _guard = on.then(|| zhuyi_telemetry::install(&registry));
        let t = Instant::now();
        let store = run_sweep_with(plan, WORKERS, ExecOptions::default());
        std::hint::black_box(exports(&store));
        t.elapsed().as_secs_f64()
    };
    let mut on = Vec::new();
    let mut off = Vec::new();
    for pair in 0..pairs {
        if pair % 2 == 0 {
            off.push(sweep(false));
            on.push(sweep(true));
        } else {
            on.push(sweep(true));
            off.push(sweep(false));
        }
    }
    crate::stats::median(&on) / crate::stats::median(&off)
}

/// Runs the workload.
pub fn run(args: &Args, calib: &mut Calibrator) -> Outcome {
    let mut out = Outcome::default();
    let mut tally = Tally::default();
    if !args.trace {
        let e2e = measure(args, args.seconds, calib, &mut tally, &mut out);
        e2e.report(&mut out, crate::rss::peak_mib());
        tally.report(&mut out);
        return out;
    }

    let untraced = measure(args, args.seconds / 2.0, calib, &mut tally, &mut out);
    let first_burst = calib.speeds.len();
    let tracer = Tracer::new();
    let mut op = 0;
    let mut ops = 0;
    let mut plan = None;
    let mut k = untraced.windows.len() as u64;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < args.seconds / 2.0 {
        calib.speed();
        let (p, store) = traced_sweep(args, &tracer, k, op);
        op += 1 + p.len() as u64;
        ops += p.len() as u64;
        k += 1;
        tally.add(&p, &store, &mut out);
        plan = Some(p);
    }
    let plan = plan.expect("at least one traced sweep");
    let probed = probe::run(&tracer, plan.jobs(), op);
    out.failed += probed.mismatches;
    out.check(
        "probed layer calls agree with job outcomes",
        plan.len() as u64 - probed.mismatches,
        plan.len() as u64,
    );
    let mut counters = Counters::default();
    counters.merge(&probed.counters);
    counters.on_off_ratio = Some(telemetry_on_off(&plan, 4));
    distd::coordinator(&tracer, &plan, &mut counters, &mut out);
    distd::daemon(&tracer, args.seed, &mut counters, &mut out);
    distd::registry(&tracer, args.seed, &mut out);
    tally.report(&mut out);
    let spans = tracer.spans();
    crate::layers::report(
        &mut out,
        &spans,
        &counters,
        Phase {
            threads: WORKERS as u32,
            ops,
            speed: calib.mean_speed_since(first_burst),
            untraced_ops_per_s: untraced.ops_per_s(),
        },
    );
    crate::layers::write_spans(args, &spans);
    out
}
