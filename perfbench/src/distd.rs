//! Probes of the distribution layers, run by the traced `table1` run.
//!
//! The distributed coordinator, the daemon and its client are measured
//! here, through their public API, on the `table1` plan and on
//! Table-1-sized plans, and the registry on a fuzz corpus. Every result
//! is checked against the in-process `run_sweep` of the same plan.

use crate::layers::Counters;
use crate::report::Outcome;
use crate::trace::{Tracer, ROOT};
use crate::{digest, inputs};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use zhuyi_distd::client::{fetch_results, plan_status};
use zhuyi_distd::{
    run_daemon, run_distributed, submit_plan, ClientConfig, DaemonConfig, DaemonError,
    DaemonReport, DistConfig, PlanState,
};
use zhuyi_fleet::{run_sweep, ExecOptions, JobResult, ResultStore, SweepPlan};
use zhuyi_registry::ScenarioDef;

/// Distributed sweeps of the plan per probe.
const SWEEPS: usize = 3;
/// One-job distributed sweeps for the coordinator's fixed cost.
const FIXED_REPS: usize = 5;
/// Plans sent through the daemon per probe.
const PLANS: u64 = 16;
/// The client's status poll interval: fine enough that turnaround
/// measures the daemon rather than the poll timer.
const POLL: Duration = Duration::from_millis(2);
/// Op ids of the probes, far above the sweeps' ids.
const OP_BASE: u64 = 1 << 48;

/// The coordinator configuration: two spawned workers, this binary
/// serving as the worker.
fn dist_config() -> DistConfig {
    DistConfig {
        spawn_workers: 2,
        worker_binary: Some(crate::worker_binary()),
        ..DistConfig::default()
    }
}

/// Wall of a one-job distributed sweep minus the job's in-process time,
/// ms (medians of [`FIXED_REPS`]).
fn fixed_cost_ms(plan: &SweepPlan) -> f64 {
    let one = SweepPlan::from_jobs(plan.jobs()[..1].to_vec());
    let config = dist_config();
    let mut dist = Vec::new();
    let mut local = Vec::new();
    for _ in 0..FIXED_REPS {
        let t = Instant::now();
        let report = run_distributed(&one, &config).expect("one-job distributed sweep");
        dist.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(report);
        let t = Instant::now();
        std::hint::black_box(run_sweep(&one, 1));
        local.push(t.elapsed().as_secs_f64() * 1e3);
    }
    crate::stats::median(&dist) - crate::stats::median(&local)
}

/// Sweeps `plan` through `run_distributed` with two spawned workers, each
/// sweep one `zhuyi_distd.coord` span, and checks every sweep's exports
/// against the in-process `run_sweep`.
pub fn coordinator(tracer: &Tracer, plan: &SweepPlan, counters: &mut Counters, out: &mut Outcome) {
    let reference = digest(&run_sweep(plan, 2));
    let config = dist_config();
    let mut identical = 0;
    for k in 0..SWEEPS as u64 {
        let report = tracer.time("zhuyi_distd.coord", ROOT, OP_BASE + k, || {
            run_distributed(plan, &config)
        });
        match report {
            Ok(r) if digest(&r.store) == reference => {
                identical += 1;
                counters.jobs_stolen.push(r.stats.jobs_stolen as f64);
            }
            Ok(_) => out.failed += plan.len() as u64,
            Err(e) => {
                eprintln!("perfbench: distributed sweep failed: {e}");
                out.failed += plan.len() as u64;
            }
        }
    }
    out.attempted += (SWEEPS * plan.len()) as u64;
    out.check(
        "distributed exports equal in-process run_sweep",
        identical,
        SWEEPS as u64,
    );
    counters.coord_fixed_ms = Some(fixed_cost_ms(plan));
}

/// A daemon running on a thread of this process.
struct Daemon {
    client: ClientConfig,
    journal: PathBuf,
    thread: JoinHandle<Result<DaemonReport, DaemonError>>,
}

/// A loopback address that was free a moment ago.
fn free_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    listener.local_addr().expect("local address").to_string()
}

impl Daemon {
    /// Starts a daemon with two spawned workers on a fresh journal and
    /// waits until it accepts connections.
    fn start(journal: &Path) -> Self {
        let _ = std::fs::remove_file(journal);
        let addr = free_addr();
        let config = DaemonConfig {
            listen: addr.clone(),
            journal: journal.to_path_buf(),
            spawn_workers: 2,
            worker_binary: Some(crate::worker_binary()),
            ..DaemonConfig::default()
        };
        let thread = std::thread::spawn(move || run_daemon(&config));
        let deadline = Instant::now() + Duration::from_secs(30);
        while TcpStream::connect(&addr).is_err() {
            assert!(Instant::now() < deadline, "daemon at {addr} never came up");
            std::thread::sleep(Duration::from_millis(1));
        }
        Self {
            client: ClientConfig {
                addr,
                name: "perfbench".to_string(),
                poll_interval: POLL,
                ..ClientConfig::default()
            },
            journal: journal.to_path_buf(),
            thread,
        }
    }

    /// Drains the daemon and waits for it (and its workers) to exit.
    fn stop(self) -> DaemonReport {
        zhuyi_distd::client::drain(&self.client).expect("drain the daemon");
        let report = self
            .thread
            .join()
            .expect("daemon thread panicked")
            .expect("daemon exits cleanly after a drain");
        let _ = std::fs::remove_file(&self.journal);
        report
    }

    fn journal_len(&self) -> u64 {
        std::fs::metadata(&self.journal).map_or(0, |m| m.len())
    }
}

/// Submit, wait, fetch under spans: a `plan` span holding
/// `submit_plan`, the wait and `fetch_results`. The wait is
/// `wait_for_plan`'s loop made from `plan_status` calls, so that each
/// poll is a span.
fn round_trip(
    tracer: &Tracer,
    op: u64,
    client: &ClientConfig,
    plan: &SweepPlan,
) -> Result<(bool, Vec<JobResult>), String> {
    let root = tracer.open("plan", ROOT, op);
    let submitted = tracer
        .time("zhuyi_distd.client.submit", root.id, op, || {
            submit_plan(client, plan, ExecOptions::default())
        })
        .map_err(|e| e.to_string())?;
    let wait = tracer.open("zhuyi_distd.client.wait", root.id, op);
    loop {
        let status = tracer
            .time("zhuyi_distd.client.status", wait.id, op, || {
                plan_status(client, submitted.fingerprint)
            })
            .map_err(|e| e.to_string())?;
        match status.state {
            PlanState::Completed => break,
            PlanState::Queued | PlanState::Running => std::thread::sleep(POLL),
            other => return Err(format!("plan ended {}", other.name())),
        }
    }
    tracer.close(wait);
    let results = tracer
        .time("zhuyi_distd.client.fetch", root.id, op, || {
            fetch_results(client, submitted.fingerprint)
        })
        .map_err(|e| e.to_string())?;
    tracer.close(root);
    Ok((submitted.deduped, results))
}

/// Sends [`PLANS`] distinct Table-1-sized plans, one at a time, through a
/// fresh daemon, recording the journal's growth per plan. Every plan must
/// be admitted fresh, never shed, and fetch the in-process `run_sweep`'s
/// exports.
pub fn daemon(tracer: &Tracer, seed: u64, counters: &mut Counters, out: &mut Outcome) {
    let journal = crate::out_dir().join(format!("daemon-{}.journal", std::process::id()));
    let daemon = Daemon::start(&journal);
    let mut good = 0;
    for k in 0..PLANS {
        let plan = inputs::service_plan(seed, k);
        let before = daemon.journal_len();
        let fetched = round_trip(tracer, OP_BASE + SWEEPS as u64 + k, &daemon.client, &plan);
        counters
            .journal_bytes
            .push((daemon.journal_len() - before) as f64);
        out.attempted += plan.len() as u64;
        let ok = match fetched {
            Ok((deduped, results)) => {
                !deduped && digest(&ResultStore::new(results)) == digest(&run_sweep(&plan, 2))
            }
            Err(e) => {
                eprintln!("perfbench: plan failed: {e}");
                false
            }
        };
        good += u64::from(ok);
        if !ok {
            out.failed += plan.len() as u64;
        }
    }
    let shed = daemon.stop().stats.submits_shed as u64;
    out.failed += shed;
    out.check(
        "daemon plans fresh and equal to in-process run_sweep",
        good,
        PLANS,
    );
    out.check("daemon submits never shed as Busy", u64::from(shed == 0), 1);
}

/// Generates the fuzz corpus and round-trips every definition through its
/// canonical text, each under its own span.
pub fn registry(tracer: &Tracer, seed: u64, out: &mut Outcome) {
    let defs = tracer.time("zhuyi_registry.generate", ROOT, OP_BASE, || {
        inputs::corpus_defs(seed)
    });
    let mut same = 0;
    for (k, def) in defs.iter().enumerate() {
        same += u64::from(tracer.time(
            "zhuyi_registry.roundtrip",
            ROOT,
            OP_BASE + k as u64,
            || ScenarioDef::parse(&def.to_text()).is_ok_and(|parsed| parsed == *def),
        ));
    }
    out.check("registry text round-trips", same, defs.len() as u64);
}
