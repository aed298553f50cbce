//! `online`: the paper's post-deployment loop (Figs. 3 and 7).
//!
//! Every catalog scenario at a few jitter seeds is driven at 30 FPR on
//! one thread, with `ZhuyiRuntime::control_step` every control period
//! (the constant-acceleration predictor, and a 30-FPR-provisioned budget
//! whose allocations are recorded but not applied). One op is one control
//! step; one request of the closed loop is one step as well.
//!
//! The traced run makes each control step from its public calls
//! (perceive, predict, estimate, per-camera FPR, check and allocate)
//! under spans, and checks every decision against what `control_step`
//! returns on the same drive, run again untimed.

use crate::calib::Calibrator;
use crate::inputs;
use crate::layers::{Counters, REQUEST};
use crate::report::{EndToEnd, Outcome};
use crate::trace::{Tracer, ROOT};
use crate::Args;
use av_core::prelude::*;
use av_core::scene::Scene;
use av_perception::rig::CameraRig;
use av_perception::system::RatePlan;
use av_prediction::kinematic::ConstantAcceleration;
use av_prediction::predictor::TrajectoryPredictor;
use av_scenarios::catalog::Scenario;
use av_sim::engine::{Simulation, StepOutcome};
use av_sim::observer::NullObserver;
use std::hint::black_box;
use std::time::Instant;
use zhuyi::camera_fpr::per_camera_fpr;
use zhuyi_runtime::online::OnlineEstimator;
use zhuyi_runtime::{check, BudgetAllocator, RuntimeConfig, RuntimeDecision, ZhuyiRuntime};

/// The runtime configuration of every drive.
fn config() -> RuntimeConfig {
    RuntimeConfig {
        budget: Some(BudgetAllocator::provisioned_for_30(
            CameraRig::drive_av().len(),
        )),
        apply_allocation: false,
        ..RuntimeConfig::default()
    }
}

/// Window `k`'s drives: the simulations, ready to run.
fn setup(seed: u64, k: u64) -> Vec<Simulation> {
    inputs::online_group(seed, k)
        .into_iter()
        .map(|(id, jitter)| {
            Scenario::build(id, jitter)
                .simulation(RatePlan::Uniform(Fpr(30.0)))
                .expect("30 FPR is a valid uniform plan")
        })
        .collect()
}

/// What one drive did.
struct Drive {
    decisions: Vec<RuntimeDecision>,
    collided: bool,
    /// One decision per control period, none skipped or repeated.
    periodic: bool,
}

impl Drive {
    fn new(decisions: Vec<RuntimeDecision>, collided: bool, period: f64, end: f64) -> Self {
        let expected = ((end - 1e-9) / period).floor() as usize + 1;
        let periodic = decisions.len() == expected
            && decisions
                .iter()
                .enumerate()
                .all(|(i, d)| (d.time.value() - i as f64 * period).abs() < 1e-6);
        Self {
            decisions,
            collided,
            periodic,
        }
    }

    fn steps(&self) -> u64 {
        self.decisions.len() as u64
    }
}

/// The layers' state for the traced control step.
struct Stack<'a> {
    runtime: &'a ZhuyiRuntime,
    estimator: OnlineEstimator,
    predictor: ConstantAcceleration,
    budget: BudgetAllocator,
    horizon: Seconds,
    max_latency: Seconds,
}

impl<'a> Stack<'a> {
    fn new(runtime: &'a ZhuyiRuntime) -> Self {
        let cfg = runtime.config();
        let estimator = OnlineEstimator::new(cfg.online).expect("default online config is valid");
        let max_latency = estimator.config().max_latency;
        Self {
            runtime,
            estimator,
            predictor: ConstantAcceleration,
            budget: cfg.budget.expect("the workload sets a budget"),
            horizon: cfg.online.prediction_horizon,
            max_latency,
        }
    }

    /// `control_step`, made from its public calls under spans. Returns the
    /// decision and the estimator's constraint evaluations.
    fn step(
        &self,
        tracer: &Tracer,
        parent: u64,
        op: u64,
        sim: &Simulation,
    ) -> (RuntimeDecision, u64) {
        let perceived = tracer.time("zhuyi_runtime.perceive", parent, op, || {
            let now = sim.time();
            let ego = sim.ego().to_agent(sim.road());
            let tracked = sim.perception().world().coasted_agents(now);
            Scene::new(now, ego, tracked)
        });
        let now = perceived.time;
        let path = sim.road().path().clone();
        let rates = sim.perception().rates();
        let rig = sim.perception().rig();
        let current_latency = rates
            .iter()
            .map(|r| r.latency())
            .fold(Seconds(f64::INFINITY), Seconds::min);
        tracer.time("av_prediction.predict", parent, op, || {
            for actor in &perceived.actors {
                black_box(self.predictor.predict(actor, now, self.horizon));
            }
        });
        let estimates = tracer.time("zhuyi_runtime.online.estimate", parent, op, || {
            self.estimator
                .estimate(&perceived, &path, rig, &self.predictor, current_latency)
        });
        let cameras = tracer.time("zhuyi.camera_fpr", parent, op, || {
            per_camera_fpr(rig, &perceived, &estimates.actors, self.max_latency)
        });
        debug_assert_eq!(cameras, estimates.cameras);
        black_box(cameras);
        let (verdict, allocation) = tracer.time("zhuyi_runtime.check", parent, op, || {
            (
                check(&rates, &estimates.cameras),
                self.budget.allocate(&estimates.cameras).ok(),
            )
        });
        let evals = estimates
            .actors
            .iter()
            .map(|a| a.stats.constraint_evaluations)
            .sum();
        let decision = RuntimeDecision {
            time: now,
            estimates,
            verdict,
            allocation,
        };
        (decision, evals)
    }
}

/// Drives `sim` to the end with `control_step` every period, timing each
/// step into `latencies_ms`.
fn drive(sim: &mut Simulation, runtime: &ZhuyiRuntime, latencies_ms: &mut Vec<f64>) -> Drive {
    let predictor = ConstantAcceleration;
    let period = runtime.config().control_period.value();
    let mut next = 0.0;
    let mut decisions = Vec::new();
    let collided = loop {
        if sim.time().value() + 1e-12 >= next {
            let t = Instant::now();
            let decision = runtime.control_step(sim, &predictor);
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            decisions.push(decision);
            next = sim.time().value() + period;
        }
        match sim.step_with(&mut NullObserver) {
            StepOutcome::Running => {}
            StepOutcome::Collided => break true,
            StepOutcome::Finished => break false,
        }
    };
    Drive::new(decisions, collided, period, sim.time().value())
}

/// [`drive`] under spans. Each control period is one op: a `request`
/// span holding the step's layer spans and the period's engine ticks.
fn drive_traced(
    sim: &mut Simulation,
    stack: &Stack<'_>,
    tracer: &Tracer,
    next_op: &mut u64,
    counters: &mut Counters,
) -> Drive {
    let period = stack.runtime.config().control_period.value();
    let mut next = 0.0;
    let mut decisions = Vec::new();
    let mut open = None;
    let collided = loop {
        if sim.time().value() + 1e-12 >= next {
            if let Some(root) = open.take() {
                tracer.close(root);
            }
            *next_op += 1;
            let root = tracer.open(REQUEST, ROOT, *next_op);
            let (decision, evals) = stack.step(tracer, root.id, *next_op, sim);
            counters.evals += evals;
            decisions.push(decision);
            open = Some(root);
            next = sim.time().value() + period;
        }
        let parent = open.as_ref().map_or(ROOT, |root| root.id);
        let outcome = tracer.time("av_sim.engine.tick", parent, *next_op, || {
            sim.step_with(&mut NullObserver)
        });
        match outcome {
            StepOutcome::Running => {}
            StepOutcome::Collided => break true,
            StepOutcome::Finished => break false,
        }
    };
    if let Some(root) = open {
        tracer.close(root);
    }
    Drive::new(decisions, collided, period, sim.time().value())
}

/// Tallies of the output checks.
#[derive(Default)]
struct Tally {
    drives: u64,
    collision_free: u64,
    periodic: u64,
    decisions: u64,
    decisions_equal: u64,
}

impl Tally {
    fn add(&mut self, drive: &Drive, out: &mut Outcome) {
        self.drives += 1;
        self.collision_free += u64::from(!drive.collided);
        self.periodic += u64::from(drive.periodic);
        out.attempted += drive.steps();
        if drive.collided || !drive.periodic {
            out.failed += drive.steps();
        }
    }

    fn report(&self, out: &mut Outcome) {
        out.check(
            "drives end collision-free",
            self.collision_free,
            self.drives,
        );
        out.check(
            "one decision per control period",
            self.periodic,
            self.drives,
        );
        if self.decisions > 0 {
            out.check(
                "decomposed step equals control_step",
                self.decisions_equal,
                self.decisions,
            );
        }
    }
}

/// Drives window after window until `seconds` of drive time are
/// measured. A window is the nine catalog scenarios at one jitter seed;
/// building its simulations is one set-up.
fn measure(
    args: &Args,
    seconds: f64,
    calib: &mut Calibrator,
    tally: &mut Tally,
    out: &mut Outcome,
) -> EndToEnd {
    let runtime = ZhuyiRuntime::new(config()).expect("default runtime config is valid");
    let mut e2e = EndToEnd::new("step");
    while e2e.measured_s() < seconds {
        let k = e2e.windows.len() as u64;
        let mut sims = e2e.setup(calib, || setup(args.seed, k));
        e2e.window(calib, |window| {
            for sim in &mut sims {
                let t = Instant::now();
                let drive = drive(sim, &runtime, &mut window.latencies_ms);
                window.wall_s += t.elapsed().as_secs_f64();
                window.ops += drive.steps();
                tally.add(&drive, out);
            }
        });
    }
    e2e
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

    // Traced run: the first half untraced, for the overhead baseline.
    let untraced = measure(args, args.seconds / 2.0, calib, &mut tally, &mut out);
    let first_burst = calib.speeds.len();
    let tracer = Tracer::new();
    let runtime = ZhuyiRuntime::new(config()).expect("default runtime config is valid");
    let stack = Stack::new(&runtime);
    let mut counters = Counters::default();
    let mut next_op = 0;
    let mut traced_s = 0.0;
    let mut steps = 0;
    let mut k = untraced.windows.len() as u64;
    while traced_s < args.seconds / 2.0 {
        for sim in &mut setup(args.seed, k) {
            calib.speed();
            // The same drive, untimed, through `control_step` itself: the
            // decomposed decisions must equal its decisions.
            let expected = drive(&mut sim.clone(), &runtime, &mut Vec::new()).decisions;
            let before = tracer.now();
            let traced = drive_traced(sim, &stack, &tracer, &mut next_op, &mut counters);
            traced_s += (tracer.now() - before) as f64 * 1e-9;
            let equal = traced
                .decisions
                .iter()
                .zip(&expected)
                .filter(|(a, b)| a == b)
                .count() as u64;
            let mismatches = traced.decisions.len().max(expected.len()) as u64 - equal;
            steps += traced.steps();
            tally.decisions += traced.steps();
            tally.decisions_equal += traced.steps().saturating_sub(mismatches);
            out.failed += mismatches;
            tally.add(&traced, &mut out);
        }
        k += 1;
    }
    tally.report(&mut out);
    let spans = tracer.spans();
    crate::layers::report(
        &mut out,
        &spans,
        &counters,
        crate::layers::Phase {
            threads: 1,
            ops: steps,
            speed: calib.mean_speed_since(first_burst),
            untraced_ops_per_s: untraced.ops_per_s(),
        },
    );
    crate::layers::write_spans(args, &spans);
    out
}
