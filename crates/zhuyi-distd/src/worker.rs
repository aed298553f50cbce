//! The worker half of the protocol: connect, handshake, execute assigned
//! shards job-by-job through the fleet engine's metrics-only execution
//! path, and stream each result back the moment it finishes.
//!
//! A worker is deliberately single-threaded about simulation — process
//! count is the parallelism axis — but runs two side threads: a reader
//! pumping coordinator frames ([`crate::wire::Frame::Assign`] /
//! [`crate::wire::Frame::Revoke`] / [`crate::wire::Frame::Shutdown`])
//! into an inbox, and a heartbeat ticker, so a multi-second simulation
//! never reads as a crash and a revoke can overtake the jobs queued
//! behind the one currently simulating.
//!
//! # Panic containment
//!
//! Engine panics are *contained*: `execute_with` runs under
//! [`std::panic::catch_unwind`], a panicking job becomes a
//! [`Frame::JobFailed`] with the panic message, and the worker moves on
//! to the next job — one pathological job costs one strike at the
//! coordinator, not a dead process and its whole queue. A custom panic
//! hook keeps the contained backtrace off stderr while delegating
//! anything *outside* job execution to the default hook.
//!
//! # Fault hooks
//!
//! All outbound frames go through a [`FaultTransport`], so a worker
//! given `--chaos-seed`/`--chaos-profile` injects a deterministic fault
//! stream into its own uplink. The remaining options (`fail_after`,
//! `poison_job`, `wedge_job`, `corrupt_job`, `slow_start`) are test
//! fault hooks; see [`WorkerOptions`].

use crate::daemon::HEARTBEAT_INTERVAL;
use crate::faultnet::{ChaosSpec, FaultTransport};
use crate::wire::{self, Frame, JobError, JobErrorKind, PROTOCOL_VERSION};
use std::cell::{Cell, RefCell};
use std::collections::{HashSet, VecDeque};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex, Once};
use std::time::{Duration, Instant};
use zhuyi_fleet::{exec, ExecOptions, JobOutcome, JobResult, SweepJob};
use zhuyi_telemetry::{Counter, Registry};

/// Exit code of a worker whose `--fail-after` fault injection fired.
pub const FAULT_EXIT_CODE: u8 = 17;

/// How a worker run can fail.
#[derive(Debug)]
pub enum WorkerError {
    /// Could not reach the coordinator.
    Connect(String),
    /// Handshake failed (version mismatch, rejected, bad frame).
    Handshake(String),
    /// The coordinator vanished mid-sweep.
    ConnectionLost(String),
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::Connect(what) => write!(f, "cannot connect to coordinator: {what}"),
            WorkerError::Handshake(what) => write!(f, "handshake failed: {what}"),
            WorkerError::ConnectionLost(what) => write!(f, "coordinator connection lost: {what}"),
        }
    }
}

impl std::error::Error for WorkerError {}

/// Options of one worker session.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Coordinator address (`host:port`).
    pub connect: String,
    /// Name sent in the handshake (shows up in coordinator diagnostics).
    pub name: String,
    /// Whether the coordinator spawned this process itself (spawned
    /// workers are eligible for respawning after a crash).
    pub spawned: bool,
    /// Fault injection: `process::exit(17)` after this many results were
    /// streamed — the hook the crash-recovery tests use.
    pub fail_after: Option<u32>,
    /// Deterministic fault injection on every outbound frame (the
    /// `--chaos-seed`/`--chaos-profile` flags).
    pub chaos: Option<ChaosSpec>,
    /// Test fault hook: executing this job id panics (inside the
    /// containment boundary, so it surfaces as [`Frame::JobFailed`]).
    pub poison_job: Option<u64>,
    /// Test fault hook: executing this job id never returns (exercises
    /// the coordinator's per-job deadline).
    pub wedge_job: Option<u64>,
    /// Test fault hook `(job, delta)`: results for this job id are
    /// perturbed by `delta * n` on the n-th corruption this process
    /// performs — so any two executions (same worker or not, given
    /// distinct deltas) disagree, which duplicate-execution
    /// cross-checking must catch.
    pub corrupt_job: Option<(u64, u64)>,
    /// Test hook: sleep this long before connecting, pinning the order
    /// of worker startup against coordinator-side events in tests.
    pub slow_start: Option<Duration>,
}

impl WorkerOptions {
    /// Defaults for connecting to `addr`.
    pub fn new(connect: impl Into<String>) -> Self {
        Self {
            connect: connect.into(),
            name: format!("worker-{}", std::process::id()),
            spawned: false,
            fail_after: None,
            chaos: None,
            poison_job: None,
            wedge_job: None,
            corrupt_job: None,
            slow_start: None,
        }
    }
}

thread_local! {
    /// True while this thread is inside the job-execution containment
    /// boundary (panics are captured, not printed).
    static CONTAINING: Cell<bool> = const { Cell::new(false) };
    /// The captured message of the last contained panic on this thread.
    static PANIC_MESSAGE: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Installs the process-wide containment-aware panic hook exactly once:
/// contained panics are captured silently for the [`Frame::JobFailed`]
/// detail; everything else goes to the previously installed hook.
fn install_containment_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if CONTAINING.with(Cell::get) {
                PANIC_MESSAGE.with(|m| *m.borrow_mut() = Some(info.to_string()));
            } else {
                previous(info);
            }
        }));
    });
}

/// Executes one job inside the containment boundary, applying the
/// poison/wedge test hooks; a panic comes back as its message.
fn execute_contained(
    job: &SweepJob,
    exec_options: ExecOptions,
    options: &WorkerOptions,
) -> Result<JobOutcome, String> {
    CONTAINING.with(|c| c.set(true));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if options.poison_job == Some(job.id.0) {
            panic!("injected test fault: poisoned job {}", job.id.0);
        }
        if options.wedge_job == Some(job.id.0) {
            // Never returns: the coordinator's per-job deadline is the
            // only way out.
            loop {
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        exec::execute_with(&job.spec, exec_options)
    }));
    CONTAINING.with(|c| c.set(false));
    outcome.map_err(|payload| {
        PANIC_MESSAGE
            .with(|m| m.borrow_mut().take())
            .unwrap_or_else(|| {
                payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string())
            })
    })
}

/// Applies the `corrupt_job` test perturbation: a visible, kind-specific
/// nudge that a duplicate execution (with a different strike value)
/// cannot reproduce.
fn corrupt_outcome(outcome: &mut JobOutcome, amount: u64) {
    match outcome {
        JobOutcome::Probe(p) => {
            p.duration = av_core::units::Seconds(p.duration.value() + amount as f64);
        }
        JobOutcome::MinSafeFpr(m) => m.sims_run += amount as u32,
        JobOutcome::Analysis(a) => a.steps += amount as usize,
    }
}

#[derive(Default)]
struct Inbox {
    batches: VecDeque<(u32, ExecOptions, Vec<SweepJob>)>,
    revoked: HashSet<u64>,
    shutdown: bool,
    dead: Option<String>,
}

/// Runs one worker session to completion: returns `Ok(jobs_executed)`
/// after a clean [`Frame::Shutdown`].
///
/// # Errors
///
/// See [`WorkerError`]. Never panics on protocol garbage — malformed
/// frames surface as [`WorkerError::ConnectionLost`].
pub fn run_worker(options: &WorkerOptions) -> Result<u64, WorkerError> {
    install_containment_hook();
    if let Some(delay) = options.slow_start {
        std::thread::sleep(delay);
    }
    // A spawned worker can race the coordinator's accept loop by a few
    // milliseconds; an external one may be started just before the
    // coordinator. A short retry window forgives both.
    let mut stream = None;
    for attempt in 0..25 {
        match TcpStream::connect(&options.connect) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(e) if attempt == 24 => return Err(WorkerError::Connect(e.to_string())),
            Err(_) => std::thread::sleep(Duration::from_millis(200)),
        }
    }
    let mut stream = stream.expect("loop either sets the stream or returns");
    let _ = stream.set_nodelay(true);

    // Handshake.
    wire::write_frame(
        &mut stream,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            spawned: options.spawned,
            name: options.name.clone(),
        },
    )
    .map_err(|e| WorkerError::Handshake(e.to_string()))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    // v7: the Welcome no longer carries `ExecOptions` — those arrive with
    // every Assign, so one warm session can serve plans with different
    // execution shapes back to back (the daemon keeps workers connected
    // across plans).
    let telemetry_on = match wire::read_frame(&mut stream) {
        Ok(Frame::Welcome { telemetry, .. }) => telemetry,
        Ok(Frame::Reject { reason }) => return Err(WorkerError::Handshake(reason)),
        Ok(other) => {
            return Err(WorkerError::Handshake(format!(
                "expected Welcome, got {other:?}"
            )))
        }
        Err(e) => return Err(WorkerError::Handshake(e.to_string())),
    };
    let _ = stream.set_read_timeout(None);

    // Telemetry: one registry for the whole session, installed on this
    // (the executing) thread and handed as explicit `Arc`s to the side
    // threads — thread-local bindings do not cross `std::thread::spawn`.
    let registry = telemetry_on.then(|| Arc::new(Registry::new()));
    let _telemetry_guard = registry.as_ref().map(zhuyi_telemetry::install);
    // The send instant of the most recent un-echoed heartbeat, stamped by
    // the heartbeat thread and consumed by the reader when the
    // coordinator's echo arrives: one round-trip sample per echo.
    let last_beat: Arc<Mutex<Option<Instant>>> = Arc::new(Mutex::new(None));

    let write_half = stream
        .try_clone()
        .map_err(|e| WorkerError::Connect(e.to_string()))?;
    // The handshake above went out clean; chaos (if any) starts at the
    // first post-handshake frame, so a session always establishes.
    let mut transport = match options.chaos {
        Some(spec) => FaultTransport::chaotic(write_half, spec),
        None => FaultTransport::plain(write_half),
    };
    if let Some(reg) = &registry {
        transport.set_telemetry(Arc::clone(reg));
    }
    let writer = Arc::new(Mutex::new(transport));
    let inbox = Arc::new((Mutex::new(Inbox::default()), Condvar::new()));

    // Reader: coordinator frames → inbox.
    {
        let inbox = Arc::clone(&inbox);
        let registry = registry.clone();
        let last_beat = Arc::clone(&last_beat);
        let mut reader = stream;
        std::thread::spawn(move || loop {
            let frame = wire::read_frame_recorded(&mut reader, registry.as_deref());
            let (lock, signal) = &*inbox;
            let mut inbox = lock.lock().expect("inbox poisoned");
            match frame {
                Ok(Frame::Assign {
                    batch,
                    options,
                    jobs,
                }) => {
                    // A fresh assignment supersedes any earlier Revoke of
                    // the same job (the thief died and the coordinator
                    // handed the job back): the coordinator writes frames
                    // to this worker in decision order, so whatever
                    // arrives last wins. Without this, a once-revoked id
                    // would be skipped forever and the sweep would stall.
                    for job in &jobs {
                        inbox.revoked.remove(&job.id.0);
                    }
                    inbox.batches.push_back((batch, options, jobs));
                }
                Ok(Frame::Revoke { jobs }) => inbox.revoked.extend(jobs),
                Ok(Frame::Shutdown) => inbox.shutdown = true,
                Ok(Frame::Heartbeat) => {
                    // v6: the coordinator echoes heartbeats; the elapsed
                    // time since ours went out is one round-trip sample.
                    if let Some(reg) = &registry {
                        reg.inc(Counter::HeartbeatEchoes);
                        if let Some(sent) = last_beat.lock().expect("beat clock poisoned").take() {
                            reg.record_rtt_us(sent.elapsed().as_micros() as u64);
                        }
                    }
                }
                Ok(_) => {} // coordinator sends nothing else post-handshake
                Err(e) => {
                    inbox.dead = Some(e.to_string());
                    signal.notify_all();
                    return;
                }
            }
            signal.notify_all();
        });
    }

    // Heartbeat: liveness while a job simulates for seconds.
    {
        let writer = Arc::clone(&writer);
        let registry = registry.clone();
        let last_beat = Arc::clone(&last_beat);
        std::thread::spawn(move || loop {
            std::thread::sleep(HEARTBEAT_INTERVAL);
            let mut w = writer.lock().expect("writer poisoned");
            if let Some(reg) = &registry {
                reg.inc(Counter::HeartbeatsSent);
                let mut beat = last_beat.lock().expect("beat clock poisoned");
                // Stamp only when the previous echo was consumed, so a
                // sample always pairs one send with its own echo.
                if beat.is_none() {
                    *beat = Some(Instant::now());
                }
            }
            if w.send(&Frame::Heartbeat).is_err() {
                return;
            }
        });
    }

    let mut executed: u64 = 0;
    let mut streamed_results: u32 = 0;
    let mut corruptions: u64 = 0;
    loop {
        let batch = {
            let (lock, signal) = &*inbox;
            let mut guard = lock.lock().expect("inbox poisoned");
            loop {
                if let Some(batch) = guard.batches.pop_front() {
                    break batch;
                }
                // Shutdown outranks a dead socket: the coordinator closes
                // the connection right after the Shutdown frame, so both
                // flags are routinely set together on a clean exit.
                if guard.shutdown {
                    return Ok(executed);
                }
                if let Some(dead) = &guard.dead {
                    return Err(WorkerError::ConnectionLost(dead.clone()));
                }
                guard = signal.wait(guard).expect("inbox poisoned");
            }
        };
        let (batch_id, exec_options, jobs) = batch;
        for job in jobs {
            let revoked = {
                let (lock, _) = &*inbox;
                lock.lock()
                    .expect("inbox poisoned")
                    .revoked
                    .contains(&job.id.0)
            };
            if revoked {
                continue;
            }
            let job_id = job.id.0;
            let timer = zhuyi_telemetry::JobTimer::start();
            match execute_contained(&job, exec_options, options) {
                Ok(mut outcome) => {
                    timer.finish(job_id);
                    if let Some((target, delta)) = options.corrupt_job {
                        if target == job_id {
                            corruptions += 1;
                            corrupt_outcome(&mut outcome, delta * corruptions);
                        }
                    }
                    let result = JobResult { job, outcome };
                    {
                        let mut w = writer.lock().expect("writer poisoned");
                        // v6: a cumulative snapshot precedes every Result,
                        // so once the coordinator holds a worker's last
                        // Result it also holds metrics covering it (TCP
                        // preserves the order).
                        if let Some(reg) = &registry {
                            if let Err(e) = w.send(&Frame::Metrics {
                                snapshot: Box::new(reg.snapshot()),
                            }) {
                                return Err(WorkerError::ConnectionLost(e.to_string()));
                            }
                        }
                        if let Err(e) = w.send(&Frame::Result {
                            result: Box::new(result),
                        }) {
                            return Err(WorkerError::ConnectionLost(e.to_string()));
                        }
                    }
                    executed += 1;
                    streamed_results += 1;
                    if options.fail_after == Some(streamed_results) {
                        // Fault injection: die *hard*, mid-batch, exactly
                        // like a crashed or OOM-killed process would.
                        std::process::exit(i32::from(FAULT_EXIT_CODE));
                    }
                }
                Err(detail) => {
                    // Contained panic: report the strike and keep serving
                    // the rest of the batch — the process survives. A
                    // panicked job records no wall time: its strike is
                    // accounted by the coordinator, not the job histogram.
                    let mut w = writer.lock().expect("writer poisoned");
                    if let Err(e) = w.send(&Frame::JobFailed {
                        job: job_id,
                        error: JobError {
                            kind: JobErrorKind::Panic,
                            detail,
                        },
                    }) {
                        return Err(WorkerError::ConnectionLost(e.to_string()));
                    }
                }
            }
        }
        let mut w = writer.lock().expect("writer poisoned");
        if let Some(reg) = &registry {
            if let Err(e) = w.send(&Frame::Metrics {
                snapshot: Box::new(reg.snapshot()),
            }) {
                return Err(WorkerError::ConnectionLost(e.to_string()));
            }
        }
        if let Err(e) = w.send(&Frame::BatchDone { batch: batch_id }) {
            return Err(WorkerError::ConnectionLost(e.to_string()));
        }
    }
}
