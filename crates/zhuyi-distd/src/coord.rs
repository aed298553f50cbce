//! The scheduler, and [`run_distributed`]: one plan run as a one-plan
//! daemon.
//!
//! The scheduler here is the crate's only scheduler. It executes every
//! plan: the one plan `run_distributed` is given, and each plan a
//! [`crate::daemon`] admits. Both run inside the daemon's service loop,
//! the crate's only event loop. `run_distributed` admits its plan into
//! that loop with drain already requested, so the loop exits when the
//! plan completes; a `--dist` listener answers client sessions the way a
//! draining daemon does.
//!
//! # Scheduler
//!
//! Pending jobs are chunked into contiguous *shards* (batches) that idle
//! workers pull from a shared queue — dynamic self-scheduling, so fast
//! workers naturally take more shards. When the queue runs dry and a
//! worker goes idle, the scheduler **steals the tail half** of the busiest
//! in-flight shard: the stolen job ids are revoked from the victim (which
//! skips any of them it has not started) and assigned to the idle worker.
//! A job that both workers end up executing is harmless — execution is a
//! pure function of the job, and the merge keeps only the first result
//! per id.
//!
//! Frames are credited by batch: a worker's `Result` or `JobFailed`
//! counts only for the plan that owns the batch the worker is executing.
//! A victim's late copy of a finished plan's job is dropped, never
//! credited to a later plan that happens to have a job with the same id.
//!
//! # Worker lifecycle
//!
//! ```text
//!           spawn/accept          Assign             BatchDone
//!  (child) ────────────► idle ──────────► busy ────────────► idle ─► ...
//!                          │                │ socket EOF /
//!                          │                │ heartbeat timeout
//!                          ▼                ▼
//!                        dead ◄──────── dead: shard's unfinished jobs
//!                    (respawn while       requeue at the front
//!                     work remains and
//!                     budget allows)
//! ```
//!
//! Crash detection is two-layered: a closed socket (EOF mid-read) is
//! immediate, and a heartbeat timeout catches connections that died
//! without an EOF (half-open sockets, vanished hosts). A worker whose
//! *simulation* wedges is deliberately not declared dead by heartbeats —
//! its ticker thread keeps beating, and since job execution is
//! deterministic, a wedged job would wedge identically on any other
//! worker; [`DistConfig::stall_timeout`] is the backstop that ends such
//! a run with an explicit error. Workers the loop spawned itself are
//! respawned (fresh, without fault-injection flags) unless the loop is
//! about to exit — that is, while it is not draining or while any plan
//! is running or queued — and the respawn budget allows; externally
//! joined workers are simply dropped.
//!
//! # Fault tolerance
//!
//! Beyond whole-worker crashes, the scheduler survives *per-job*
//! failures without aborting the sweep:
//!
//! - a worker's contained panic arrives as [`Frame::JobFailed`] and
//!   counts one **strike** against the job; the job is requeued;
//! - an optional per-job deadline ([`DistConfig::job_deadline`]) strikes
//!   a job whose shard stops yielding results — the wedged worker is
//!   dropped (and its spawned process killed, so the respawn path brings
//!   up a replacement) and the shard's remainder requeued;
//! - at [`DistConfig::max_job_failures`] strikes a job is **quarantined**:
//!   pulled from every queue, revoked wherever assigned, and reported in
//!   the [`DistReport::quarantine`] manifest. The sweep then *completes*
//!   over the surviving jobs — graceful degradation, never a poisoned
//!   hang;
//! - an optional sampled fraction of jobs
//!   ([`DistConfig::verify_fraction`]) is executed **twice**, on the
//!   back of the queue; because execution is bit-deterministic the two
//!   encoded results must match byte-for-byte, so any mismatch is
//!   executor corruption and fails the run loudly with
//!   [`DistError::VerifyMismatch`].
//!
//! Deadlines, verify sampling and flight dumps are set only through
//! [`DistConfig`]; daemon plans get stealing and strikes.
//!
//! # Checkpoints
//!
//! [`DistConfig::checkpoint`] is a one-plan [`crate::journal`]: a
//! `Submitted` record, then one `Result` record per completed job, each
//! flushed before the job is credited. An existing file is resumed —
//! its results are credited, the rest execute — only if it holds exactly
//! this plan. A file holding another plan fails with
//! [`JournalError::PlanMismatch`], and a file in the retired pre-journal
//! checkpoint format fails the journal's header check; either way the
//! file is left byte-identical.
//!
//! # Determinism invariant
//!
//! The merged [`ResultStore`] is built exclusively from id-deduplicated
//! results sorted by [`zhuyi_fleet::JobId`] — the same merge a
//! single-process [`zhuyi_fleet::run_sweep`] performs — so worker count,
//! shard boundaries, steals, crashes, and checkpoint resumes cannot change
//! a single exported byte. `tests/dist_determinism.rs` pins this, and
//! `tests/chaos.rs` extends it under injected fault storms: completed-job
//! exports stay byte-identical to a clean single-process run over the
//! same surviving job set.

use crate::daemon::{self, Daemon, HEARTBEAT_TIMEOUT};
use crate::faultnet::{self, ChaosSpec};
use crate::journal::{self, plan_fingerprint, JournalError, JournalRecord, JournalWriter};
use crate::quarantine::{QuarantineEntry, QuarantineManifest};
use crate::wire::{self, Frame, JobError, JobErrorKind, PlanState};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use zhuyi_fleet::{ExecOptions, JobResult, ResultStore, SweepJob, SweepPlan};
use zhuyi_telemetry::{Counter, FlightRecorder, Gauge, Registry, Snapshot};

/// Configuration of one distributed sweep run.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Worker processes the coordinator spawns itself (0 is allowed when
    /// [`DistConfig::listen`] accepts external workers).
    pub spawn_workers: usize,
    /// Path of the `fleet_shard` worker binary; `None` resolves a sibling
    /// of the current executable (see [`default_worker_binary`]).
    pub worker_binary: Option<PathBuf>,
    /// Additional listen address (`host:port`) for workers joining from
    /// other processes or hosts via `fleet_shard --connect`; client
    /// sessions on it are answered as by a draining daemon. `None` binds
    /// an ephemeral loopback port used only by spawned workers.
    pub listen: Option<String>,
    /// Checkpoint file, a one-plan journal: completed jobs append here,
    /// and an existing file holding this plan is resumed instead of
    /// re-simulated (see the module docs).
    pub checkpoint: Option<PathBuf>,
    /// Sweep-wide execution options, forwarded to every worker.
    pub options: ExecOptions,
    /// Jobs per shard; `None` derives `ceil(pending / (workers * 4))`,
    /// small enough for the pull queue to balance, large enough to
    /// amortize frames.
    pub batch_size: Option<usize>,
    /// Hard cap on sweep-wide silence: if no result arrives for this long
    /// the run aborts with [`DistError::Stalled`] instead of hanging.
    pub stall_timeout: Duration,
    /// Replacement processes the coordinator may spawn for crashed
    /// spawned workers.
    pub max_respawns: usize,
    /// Extra argv appended to the k-th *initially* spawned worker —
    /// the fault-injection hook (`--fail-after N`) the crash tests use.
    /// Respawned replacements never inherit these.
    pub worker_extra_args: Vec<Vec<String>>,
    /// Extra argv appended to every *respawned* replacement worker.
    /// Empty (the default) keeps respawns clean; the chaos tests use it
    /// to make replacements inherit a `--poison-job`/`--wedge-job` fault
    /// (but never chaos or `--fail-after` flags, which must not recur).
    pub respawn_extra_args: Vec<String>,
    /// Strikes (contained panics, expired deadlines) a job may accrue
    /// before it is quarantined; clamped to at least 1.
    pub max_job_failures: usize,
    /// If set, a shard that yields no result for this long strikes the
    /// job it is stuck on and drops (and kills, if spawned) its worker.
    /// Must comfortably exceed the slowest honest job.
    pub job_deadline: Option<Duration>,
    /// Fraction (0.0–1.0) of jobs sampled for duplicate-execution
    /// cross-checking; sampled ids are chosen by a hash of the job id
    /// and the plan fingerprint, so the same sweep verifies the same
    /// jobs on every run.
    pub verify_fraction: f64,
    /// Deterministic fault injection: spawned workers receive
    /// `--chaos-profile`/`--chaos-seed` flags derived from this spec
    /// (per-worker seeds via [`faultnet::derive_worker_seed`]).
    /// Respawned replacements never inherit chaos.
    pub chaos: Option<ChaosSpec>,
    /// Test hook: abort the run (checkpoint intact) after this many fresh
    /// results, simulating a coordinator crash mid-sweep.
    pub abort_after_results: Option<usize>,
    /// Collect telemetry: workers run with an installed registry and
    /// piggyback cumulative [`Frame::Metrics`] snapshots on the result
    /// stream; the coordinator folds them (in worker-id order) with its
    /// own scheduling counters into [`DistReport::telemetry`]. Telemetry
    /// is strictly out-of-band — it cannot change a single exported byte.
    pub telemetry: bool,
    /// Serve a Prometheus-style plaintext exposition of the live folded
    /// telemetry on this `host:port` for the duration of the run.
    /// Implies telemetry collection even when [`DistConfig::telemetry`]
    /// is off.
    pub metrics_listen: Option<String>,
    /// Directory for flight-recorder dumps. When set, the coordinator
    /// keeps a bounded ring of recent scheduling events and writes
    /// `flight-job<ID>-<trigger>.json` post-mortems on every job panic,
    /// deadline strike, and quarantine.
    pub flight_dir: Option<PathBuf>,
}

impl Default for DistConfig {
    fn default() -> Self {
        Self {
            spawn_workers: 2,
            worker_binary: None,
            listen: None,
            checkpoint: None,
            options: ExecOptions::default(),
            batch_size: None,
            stall_timeout: Duration::from_secs(600),
            max_respawns: 3,
            worker_extra_args: Vec::new(),
            respawn_extra_args: Vec::new(),
            max_job_failures: 3,
            job_deadline: None,
            verify_fraction: 0.0,
            chaos: None,
            abort_after_results: None,
            telemetry: false,
            metrics_listen: None,
            flight_dir: None,
        }
    }
}

/// Counters describing how a distributed run actually unfolded. None of
/// these influence the merged output (see the determinism invariant).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistStats {
    /// Workers that completed the handshake.
    pub workers_connected: usize,
    /// Workers lost to EOF or heartbeat timeout.
    pub workers_lost: usize,
    /// Replacement processes spawned for crashed spawned workers.
    pub workers_respawned: usize,
    /// Shards assigned (including reassignments and stolen shards).
    pub batches_assigned: usize,
    /// Shards whose unfinished jobs were requeued after a worker died.
    pub batches_reassigned: usize,
    /// Jobs moved to an idle worker by tail stealing.
    pub jobs_stolen: usize,
    /// Results discarded because another worker delivered the job first,
    /// or because no running plan owns the batch they came from.
    pub duplicate_results: usize,
    /// Jobs recovered from the checkpoint journal instead of executed.
    pub resumed_jobs: usize,
    /// Jobs executed (first results) this run.
    pub executed_jobs: usize,
    /// Strikes recorded (contained panics + deadline expiries).
    pub job_failures: usize,
    /// Strikes that came from an expired per-job deadline.
    pub deadline_strikes: usize,
    /// Jobs that reached the strike limit and were quarantined.
    pub jobs_quarantined: usize,
    /// Jobs sampled for duplicate-execution cross-checking.
    pub verify_jobs: usize,
    /// Cross-checked job pairs whose encoded results matched exactly.
    pub verify_confirmed: usize,
    /// Respawn attempts that failed to start a process (each consumes
    /// one unit of the respawn budget and is retried after a backoff).
    pub respawn_failures: usize,
}

/// A finished distributed sweep: the merged store plus run statistics.
#[derive(Debug)]
pub struct DistReport {
    /// Merged, id-ordered results — byte-identical exports to a
    /// single-process sweep of the same plan (minus any quarantined
    /// jobs).
    pub store: ResultStore,
    /// How the run unfolded.
    pub stats: DistStats,
    /// Jobs the sweep gave up on, with their recorded strikes; empty on
    /// a clean run.
    pub quarantine: QuarantineManifest,
    /// The folded telemetry snapshot — the coordinator's own scheduling
    /// registry merged with every worker's final cumulative snapshot in
    /// worker-id order. `None` unless [`DistConfig::telemetry`] (or
    /// [`DistConfig::metrics_listen`]) asked for collection.
    pub telemetry: Option<Snapshot>,
}

/// Errors a distributed run can end with.
#[derive(Debug)]
pub enum DistError {
    /// Socket or process plumbing failed.
    Io(String),
    /// No worker could serve the sweep (none spawned, none joined, none
    /// respawnable).
    NoWorkers(String),
    /// The worker binary could not be resolved.
    WorkerBinary(String),
    /// Checkpoint journal problems, including a file that holds another
    /// plan or is not a journal.
    Checkpoint(JournalError),
    /// The `abort_after_results` test hook fired.
    Aborted {
        /// Fresh results recorded before aborting.
        completed: usize,
    },
    /// No result arrived within [`DistConfig::stall_timeout`].
    Stalled {
        /// Jobs finished before the stall.
        completed: usize,
        /// Jobs the plan wanted.
        total: usize,
    },
    /// Duplicate-execution cross-checking caught two byte-different
    /// results for the same job — executor corruption or lost
    /// determinism; the results cannot be trusted.
    VerifyMismatch {
        /// The job whose two executions disagreed.
        job: u64,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Io(what) => write!(f, "distributed sweep i/o failure: {what}"),
            DistError::NoWorkers(what) => write!(f, "no workers available: {what}"),
            DistError::WorkerBinary(what) => write!(f, "{what}"),
            DistError::Checkpoint(e) => write!(f, "{e}"),
            DistError::Aborted { completed } => {
                write!(f, "aborted by test hook after {completed} results")
            }
            DistError::Stalled { completed, total } => {
                write!(f, "sweep stalled at {completed}/{total} jobs")
            }
            DistError::VerifyMismatch { job } => {
                write!(
                    f,
                    "duplicate-execution cross-check failed: job {job} produced two \
                     byte-different results — executor corruption or lost determinism"
                )
            }
        }
    }
}

impl std::error::Error for DistError {}

impl From<JournalError> for DistError {
    fn from(e: JournalError) -> Self {
        DistError::Checkpoint(e)
    }
}

/// Resolves the `fleet_shard` worker binary as a sibling of the running
/// executable (where cargo places every binary of the workspace).
///
/// # Errors
///
/// A human-readable message naming the missing path and the build command
/// that produces it.
pub fn default_worker_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate current exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or_else(|| "current exe has no parent directory".to_string())?;
    let candidate = dir.join(format!("fleet_shard{}", std::env::consts::EXE_SUFFIX));
    if candidate.exists() {
        Ok(candidate)
    } else {
        Err(format!(
            "worker binary not found at {} — build it first \
             (`cargo build --release -p zhuyi-distd --bin fleet_shard`) \
             or pass an explicit path",
            candidate.display()
        ))
    }
}

/// Chunks `jobs` into contiguous shards of at most `size` jobs.
pub(crate) fn chunk_batches(jobs: &[SweepJob], size: usize) -> VecDeque<Vec<SweepJob>> {
    jobs.chunks(size.max(1)).map(<[SweepJob]>::to_vec).collect()
}

/// The derived default shard size: small enough for the pull queue to
/// balance across `workers`, large enough to amortize protocol frames.
/// An external-only coordinator (`workers == 0`, `--listen`) cannot know
/// how many workers will join, so it assumes a fleet of 8 — fine-grained
/// enough that late joiners pull real work instead of living off steals.
pub(crate) fn default_batch_size(pending: usize, workers: usize) -> usize {
    let workers = if workers == 0 { 8 } else { workers };
    pending.div_ceil(workers * 4).max(1)
}

pub(crate) type WorkerId = u64;

/// Locks a possibly-poisoned mutex, recovering the inner value instead of
/// panicking. A metrics scrape or fold that panicked while holding the
/// lock poisons it, but the snapshot map inside is plain data and stays
/// valid — letting the poison flag take down the whole coordinator (or
/// daemon) would turn one observability hiccup into a lost sweep. Each
/// recovery is counted in telemetry when a registry is at hand.
pub(crate) fn lock_recovering<'a, T>(
    mutex: &'a Mutex<T>,
    registry: Option<&Registry>,
) -> std::sync::MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(|poisoned| {
        if let Some(reg) = registry {
            reg.inc(Counter::PoisonRecoveries);
        }
        poisoned.into_inner()
    })
}

/// A connected worker session.
struct WorkerConn {
    writer: TcpStream,
    name: String,
    spawned: bool,
    /// The batch the worker is executing. Its plan owns every `Result`
    /// and `JobFailed` the worker sends until the matching `BatchDone`.
    busy: Option<u32>,
    last_seen: Instant,
}

struct Inflight {
    /// Fingerprint of the plan this shard belongs to.
    plan: u64,
    worker: WorkerId,
    remaining: BTreeMap<u64, SweepJob>,
    /// When this shard last yielded a result (or was assigned) — what
    /// the per-job deadline measures against.
    last_result: Instant,
}

pub(crate) struct ChildSlot {
    pub(crate) name: String,
    pub(crate) child: Child,
    pub(crate) exited: bool,
}

/// The plan being executed: its jobs, the results credited so far, and
/// its fault ledgers.
pub(crate) struct PlanRun {
    pub(crate) fingerprint: u64,
    options: ExecOptions,
    /// Every job of the plan, for requeues and the quarantine manifest.
    jobs_by_id: BTreeMap<u64, SweepJob>,
    /// Credited results, resumed ones included.
    pub(crate) results: BTreeMap<u64, JobResult>,
    /// Strikes recorded against jobs not (yet) quarantined.
    failures: BTreeMap<u64, Vec<JobError>>,
    /// Jobs the plan gave up on.
    pub(crate) quarantined: BTreeMap<u64, QuarantineEntry>,
    /// Duplicate-execution slots: `None` until the first result arrives,
    /// then its encoded bytes until the second confirms (and the entry
    /// is removed) or mismatches (and the run fails).
    verify_pending: BTreeMap<u64, Option<Vec<u8>>>,
}

impl PlanRun {
    /// True while any job still needs executing: unfinished plan jobs,
    /// or outstanding duplicate-execution copies.
    fn outstanding(&self) -> bool {
        self.results.len() + self.quarantined.len() < self.jobs_by_id.len()
            || !self.verify_pending.is_empty()
    }
}

/// The crate's one scheduler: the worker set, the shard queue and the
/// in-flight ledger, executing one plan at a time. The daemon's service
/// loop feeds it events.
pub(crate) struct Scheduler {
    config: DistConfig,
    workers: BTreeMap<WorkerId, WorkerConn>,
    /// The plan being executed, if any.
    pub(crate) running: Option<PlanRun>,
    /// Shards of the running plan waiting for a worker.
    pending: VecDeque<Vec<SweepJob>>,
    /// Assigned shards by batch id. A shard outlives its plan until its
    /// worker reports `BatchDone` or is lost, so late frames can still be
    /// traced to the plan that owns them.
    inflight: BTreeMap<u32, Inflight>,
    next_batch: u32,
    pub(crate) stats: DistStats,
    /// The scheduler's own registry (scheduling counters, gauges, and
    /// received-frame accounting); `None` when telemetry is off.
    pub(crate) telemetry: Option<Arc<Registry>>,
    /// Latest cumulative snapshot per worker, shared with the metrics
    /// endpoint thread. A worker's snapshot survives its death — the
    /// work it reported on still happened.
    pub(crate) worker_metrics: Arc<Mutex<BTreeMap<WorkerId, Snapshot>>>,
    /// Bounded ring of recent scheduling events, dumped on job panics,
    /// deadline strikes, and quarantines; `None` without a dump dir.
    flight: Option<(FlightRecorder, PathBuf)>,
}

impl Scheduler {
    /// An idle scheduler with no workers and no plan.
    ///
    /// # Errors
    ///
    /// [`DistError::Io`] if the flight-dump directory cannot be created.
    pub(crate) fn new(config: &DistConfig) -> Result<Self, DistError> {
        let flight = match &config.flight_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| DistError::Io(format!("creating {}: {e}", dir.display())))?;
                Some((
                    FlightRecorder::new(FlightRecorder::DEFAULT_CAPACITY),
                    dir.clone(),
                ))
            }
            None => None,
        };
        // Metrics serving needs a registry to read even when plain
        // collection was not requested.
        let telemetry_on = config.telemetry || config.metrics_listen.is_some();
        Ok(Self {
            config: config.clone(),
            workers: BTreeMap::new(),
            running: None,
            pending: VecDeque::new(),
            inflight: BTreeMap::new(),
            next_batch: 0,
            stats: DistStats::default(),
            telemetry: telemetry_on.then(|| Arc::new(Registry::new())),
            worker_metrics: Arc::default(),
            flight,
        })
    }

    pub(crate) fn note(&self, counter: Counter) {
        if let Some(reg) = &self.telemetry {
            reg.inc(counter);
        }
    }

    /// Records one scheduling event into the flight ring (no-op without
    /// a recorder).
    fn flight_note(&self, kind: &'static str, worker: WorkerId, job: Option<u64>, detail: String) {
        if let Some((recorder, _)) = &self.flight {
            recorder.record(kind, worker, job, detail);
        }
    }

    /// Dumps the flight ring for `job` into the configured dump dir as
    /// `flight-job<ID>-<trigger>.json` (best-effort: a failed write must
    /// not take down the sweep).
    fn flight_dump(&self, trigger: &'static str, job: u64) {
        if let Some((recorder, dir)) = &self.flight {
            let path = dir.join(format!("flight-job{job}-{trigger}.json"));
            if std::fs::write(&path, recorder.dump_json(trigger, Some(job))).is_ok() {
                self.note(Counter::FlightDumps);
            } else {
                eprintln!(
                    "fleet coordinator: could not write flight dump {}",
                    path.display()
                );
            }
        }
    }

    /// Starts executing a plan. `results` are already credited; the rest
    /// of `jobs` is chunked into shards.
    pub(crate) fn start(
        &mut self,
        fingerprint: u64,
        options: ExecOptions,
        jobs: &[SweepJob],
        results: BTreeMap<u64, JobResult>,
    ) {
        let pending_jobs: Vec<SweepJob> = jobs
            .iter()
            .filter(|j| !results.contains_key(&j.id.0))
            .cloned()
            .collect();
        let batch_size = self
            .config
            .batch_size
            .unwrap_or_else(|| default_batch_size(pending_jobs.len(), self.config.spawn_workers));
        self.pending = chunk_batches(&pending_jobs, batch_size);

        // Duplicate-execution sampling: the verify set is a pure function
        // of (job id, plan fingerprint), so reruns of the same sweep
        // verify the same jobs. Second copies ride at the back of the
        // queue — the first-result-wins merge makes them invisible in the
        // output, and the byte-compare in `handle_result` turns
        // bit-determinism into a corruption detector.
        let mut verify_pending = BTreeMap::new();
        if self.config.verify_fraction > 0.0 {
            let threshold = (self.config.verify_fraction.min(1.0) * 1_000_000.0) as u64;
            let verify_jobs: Vec<SweepJob> = pending_jobs
                .iter()
                .filter(|j| faultnet::splitmix64(j.id.0 ^ fingerprint) % 1_000_000 < threshold)
                .cloned()
                .collect();
            self.stats.verify_jobs += verify_jobs.len();
            for job in &verify_jobs {
                verify_pending.insert(job.id.0, None);
            }
            self.pending.extend(chunk_batches(&verify_jobs, batch_size));
        }
        self.running = Some(PlanRun {
            fingerprint,
            options,
            jobs_by_id: jobs.iter().map(|j| (j.id.0, j.clone())).collect(),
            results,
            failures: BTreeMap::new(),
            quarantined: BTreeMap::new(),
            verify_pending,
        });
        self.dispatch_idle();
    }

    /// Takes the running plan once nothing of it is outstanding.
    pub(crate) fn take_finished(&mut self) -> Option<PlanRun> {
        if self.running.as_ref()?.outstanding() {
            return None;
        }
        // Leftovers (a retry whose job was confirmed by its other copy)
        // are moot once the plan is done.
        self.pending.clear();
        self.running.take()
    }

    /// The running plan's (credited, total) job counts.
    pub(crate) fn progress(&self) -> (usize, usize) {
        self.running
            .as_ref()
            .map_or((0, 0), |run| (run.results.len(), run.jobs_by_id.len()))
    }

    pub(crate) fn has_workers(&self) -> bool {
        !self.workers.is_empty()
    }

    fn running_plan(&self) -> Option<u64> {
        self.running.as_ref().map(|run| run.fingerprint)
    }

    /// The running plan, if it owns the batch `worker` is executing.
    fn owner(&self, worker: WorkerId) -> Option<u64> {
        let batch = self.workers.get(&worker)?.busy?;
        let plan = self.inflight.get(&batch)?.plan;
        (self.running_plan() == Some(plan)).then_some(plan)
    }

    /// Admits a worker that completed the handshake and gives it work.
    pub(crate) fn connect(
        &mut self,
        worker: WorkerId,
        writer: TcpStream,
        spawned: bool,
        name: String,
    ) {
        self.stats.workers_connected += 1;
        self.note(Counter::WorkersConnected);
        self.flight_note("connect", worker, None, name.clone());
        self.workers.insert(
            worker,
            WorkerConn {
                writer,
                name,
                spawned,
                busy: None,
                last_seen: Instant::now(),
            },
        );
        self.dispatch(worker);
    }

    /// Handles one frame from a worker session. Returns whether it was
    /// progress: a fresh result, or a contained failure that counted.
    /// With a `journal`, a fresh result is appended to it before it is
    /// credited.
    ///
    /// # Errors
    ///
    /// [`DistError::VerifyMismatch`] on a failed cross-check, and
    /// [`DistError::Checkpoint`] if the journal append fails.
    pub(crate) fn handle_frame(
        &mut self,
        worker: WorkerId,
        frame: Frame,
        journal: Option<&mut JournalWriter>,
    ) -> Result<bool, DistError> {
        if let Some(conn) = self.workers.get_mut(&worker) {
            conn.last_seen = Instant::now();
        }
        match frame {
            Frame::Heartbeat => {
                // v6: echo the beat so the worker can sample its
                // round-trip time (it ignores echoes when its own
                // telemetry is off).
                if let Some(conn) = self.workers.get_mut(&worker) {
                    let _ = wire::write_frame(&mut conn.writer, &Frame::Heartbeat);
                }
            }
            Frame::Metrics { snapshot } => {
                // Snapshots are cumulative; the latest one per worker
                // supersedes everything before it.
                lock_recovering(&self.worker_metrics, self.telemetry.as_deref())
                    .insert(worker, *snapshot);
            }
            Frame::Result { result } => return self.handle_result(worker, *result, journal),
            Frame::JobFailed { job, error } => {
                return Ok(self.handle_job_failed(worker, job, error))
            }
            Frame::BatchDone { batch } => self.batch_done(worker, batch),
            // Workers never send anything else (coordinator-bound control
            // frames, client-session frames): ignore rather than trust.
            _ => {}
        }
        Ok(false)
    }

    /// Ingests one streamed result: journal first, then credit. Returns
    /// whether it was fresh (first for its id in its plan).
    fn handle_result(
        &mut self,
        worker: WorkerId,
        result: JobResult,
        journal: Option<&mut JournalWriter>,
    ) -> Result<bool, DistError> {
        let id = result.job.id.0;
        let Some(fingerprint) = self.owner(worker) else {
            // A copy from a finished plan's batch (or from a dropped
            // worker): crediting it to the running plan could land it on
            // a different job that shares the id.
            self.stats.duplicate_results += 1;
            return Ok(false);
        };
        let run = self
            .running
            .as_mut()
            .expect("an owned batch has a running plan");
        // Quarantine is final: a straggler result for a quarantined job
        // (say, a wedged copy that eventually finished) is discarded so
        // the manifest and the completed set stay mutually exclusive.
        if run.quarantined.contains_key(&id) {
            self.stats.duplicate_results += 1;
            return Ok(false);
        }
        let verified = match run.verify_pending.get_mut(&id) {
            None => false,
            Some(slot) => {
                let mut bytes = Vec::with_capacity(160);
                wire::put_job_result(&mut bytes, &result);
                match slot.take() {
                    None => *slot = Some(bytes),
                    Some(first) => {
                        if first != bytes {
                            return Err(DistError::VerifyMismatch { job: id });
                        }
                        self.stats.verify_confirmed += 1;
                        run.verify_pending.remove(&id);
                    }
                }
                true
            }
        };
        let fresh = !run.results.contains_key(&id);
        if verified {
            // Clear only the copy this worker reported on; the other
            // copy stays tracked so a crash still requeues it.
            self.clear_copy(worker, id);
        } else {
            for fl in self
                .inflight
                .values_mut()
                .filter(|fl| fl.plan == fingerprint)
            {
                if fl.remaining.remove(&id).is_some() {
                    fl.last_result = Instant::now();
                }
            }
        }
        if !fresh {
            self.stats.duplicate_results += 1;
            return Ok(false);
        }
        if let Some(journal) = journal {
            journal.append(&JournalRecord::Result {
                fingerprint,
                result: Box::new(result.clone()),
            })?;
        }
        self.stats.executed_jobs += 1;
        self.flight_note("result", worker, Some(id), String::new());
        if let Some(run) = &mut self.running {
            run.results.insert(id, result);
        }
        Ok(true)
    }

    /// Records a contained panic as a strike against `job`, requeueing
    /// it below the limit. Returns whether the strike counted.
    fn handle_job_failed(&mut self, worker: WorkerId, job: u64, error: JobError) -> bool {
        if self.owner(worker).is_none() {
            return false;
        }
        eprintln!(
            "fleet coordinator: job {job} failed on worker {}: {error}",
            self.workers.get(&worker).map_or("?", |c| c.name.as_str()),
        );
        self.clear_copy(worker, job);
        self.note(Counter::PanicStrikes);
        self.flight_note("job_failed", worker, Some(job), error.to_string());
        self.flight_dump("panic", job);
        if self.strike(job, error) {
            // Retry rides at the back so healthy work drains first; a
            // fresh worker (or the same one, later) gets another attempt.
            if let Some(j) = self
                .running
                .as_ref()
                .and_then(|run| run.jobs_by_id.get(&job).cloned())
            {
                self.pending.push_back(vec![j]);
            }
        }
        self.dispatch_idle();
        // A contained failure is still forward progress: the worker lives
        // and the job is accounted for.
        true
    }

    fn batch_done(&mut self, worker: WorkerId, batch: u32) {
        if let Some(conn) = self.workers.get_mut(&worker) {
            if conn.busy == Some(batch) {
                conn.busy = None;
            }
        }
        if let Some(fl) = self.inflight.remove(&batch) {
            // Defensive: anything of the running plan not delivered and
            // not stolen goes back on the queue.
            if !fl.remaining.is_empty() && self.running_plan() == Some(fl.plan) {
                self.pending
                    .push_front(fl.remaining.into_values().collect());
            }
        }
        self.dispatch(worker);
    }

    /// Removes the one assigned copy of `id` that `worker` just reported
    /// on (result or failure), leaving any duplicate-execution copy
    /// tracked elsewhere.
    fn clear_copy(&mut self, worker: WorkerId, id: u64) {
        for fl in self.inflight.values_mut() {
            if fl.worker == worker && fl.remaining.remove(&id).is_some() {
                fl.last_result = Instant::now();
                return;
            }
        }
    }

    /// Records one strike against `id` and quarantines it at the limit.
    /// Returns whether the job deserves another attempt: false once it
    /// is quarantined, or if it was already done or quarantined.
    fn strike(&mut self, id: u64, error: JobError) -> bool {
        let Some(run) = self.running.as_mut() else {
            return false;
        };
        if run.results.contains_key(&id) || run.quarantined.contains_key(&id) {
            return false;
        }
        self.stats.job_failures += 1;
        let strikes = run.failures.entry(id).or_default();
        strikes.push(error);
        let retry = strikes.len() < self.config.max_job_failures.max(1);
        if !retry {
            self.quarantine(id);
        }
        retry
    }

    /// Pulls `id` out of the running plan entirely: every queued copy
    /// dropped, every assigned copy revoked, the verify slot cancelled,
    /// and the job recorded in the manifest with its strikes.
    fn quarantine(&mut self, id: u64) {
        let Some(run) = self.running.as_mut() else {
            return;
        };
        let strikes = run.failures.remove(&id).unwrap_or_default();
        eprintln!(
            "fleet coordinator: quarantining job {id} after {} strike(s); last: {}",
            strikes.len(),
            strikes.last().map_or_else(String::new, |s| s.to_string()),
        );
        let count = strikes.len();
        run.verify_pending.remove(&id);
        let job = run
            .jobs_by_id
            .get(&id)
            .cloned()
            .expect("a struck job is always a plan job");
        run.quarantined.insert(id, QuarantineEntry { job, strikes });
        let plan = run.fingerprint;
        for batch in &mut self.pending {
            batch.retain(|j| j.id.0 != id);
        }
        self.pending.retain(|batch| !batch.is_empty());
        let holders: Vec<WorkerId> = self
            .inflight
            .values_mut()
            .filter(|fl| fl.plan == plan)
            .filter_map(|fl| fl.remaining.remove(&id).map(|_| fl.worker))
            .collect();
        for worker in holders {
            if let Some(conn) = self.workers.get_mut(&worker) {
                let _ = wire::write_frame(&mut conn.writer, &Frame::Revoke { jobs: vec![id] });
            }
        }
        self.stats.jobs_quarantined += 1;
        self.note(Counter::QuarantinedJobs);
        self.flight_note("quarantine", 0, Some(id), format!("{count} strike(s)"));
        self.flight_dump("quarantine", id);
    }

    /// Gives `worker` its next shard: pull from the queue, or steal the
    /// tail half of the running plan's busiest in-flight shard.
    fn dispatch(&mut self, worker: WorkerId) {
        let Some(plan) = self.running_plan() else {
            return;
        };
        if self.workers.get(&worker).is_none_or(|c| c.busy.is_some()) {
            return;
        }
        if let Some(jobs) = self.pending.pop_front() {
            self.assign(worker, jobs);
            return;
        }
        // Steal: the in-flight shard with the most remaining jobs, as long
        // as there are at least two to split.
        let victim = self
            .inflight
            .iter()
            .filter(|(_, fl)| fl.plan == plan && fl.worker != worker && fl.remaining.len() >= 2)
            .max_by_key(|(_, fl)| fl.remaining.len())
            .map(|(&batch, _)| batch);
        let Some(victim_batch) = victim else {
            return;
        };
        let (victim_worker, stolen) = {
            let fl = self.inflight.get_mut(&victim_batch).expect("victim exists");
            let keep = fl.remaining.len().div_ceil(2);
            let stolen_ids: Vec<u64> = fl.remaining.keys().skip(keep).copied().collect();
            let stolen: Vec<SweepJob> = stolen_ids
                .iter()
                .map(|id| fl.remaining.remove(id).expect("stolen id present"))
                .collect();
            (fl.worker, stolen)
        };
        if stolen.is_empty() {
            return;
        }
        self.stats.jobs_stolen += stolen.len();
        if let Some(reg) = &self.telemetry {
            reg.add(Counter::Steals, stolen.len() as u64);
        }
        self.flight_note(
            "steal",
            worker,
            None,
            format!("{} jobs from worker {victim_worker}", stolen.len()),
        );
        // Tell the victim to skip anything it has not started; failure to
        // deliver only costs a duplicated (identical) result.
        if let Some(victim_conn) = self.workers.get_mut(&victim_worker) {
            let revoke = Frame::Revoke {
                jobs: stolen.iter().map(|j| j.id.0).collect(),
            };
            let _ = wire::write_frame(&mut victim_conn.writer, &revoke);
        }
        self.assign(worker, stolen);
    }

    fn assign(&mut self, worker: WorkerId, jobs: Vec<SweepJob>) {
        let Some((plan, options)) = self.running.as_ref().map(|r| (r.fingerprint, r.options))
        else {
            return;
        };
        let batch = self.next_batch;
        self.next_batch += 1;
        let Some(conn) = self.workers.get_mut(&worker) else {
            self.pending.push_front(jobs);
            return;
        };
        if wire::write_assign(&mut conn.writer, batch, options, &jobs).is_err() {
            self.pending.push_front(jobs);
            self.lose_worker(worker);
            return;
        }
        conn.busy = Some(batch);
        self.stats.batches_assigned += 1;
        self.flight_note("assign", worker, None, format!("batch {batch}"));
        self.inflight.insert(
            batch,
            Inflight {
                plan,
                worker,
                remaining: jobs.into_iter().map(|j| (j.id.0, j)).collect(),
                last_result: Instant::now(),
            },
        );
    }

    /// Removes a worker and requeues the running plan's unfinished jobs
    /// of its shards. Returns the worker's name if the loop spawned its
    /// process (so the caller can kill a wedged child and trigger a
    /// respawn).
    pub(crate) fn lose_worker(&mut self, worker: WorkerId) -> Option<String> {
        let conn = self.workers.remove(&worker)?;
        let _ = conn.writer.shutdown(Shutdown::Both);
        self.stats.workers_lost += 1;
        self.note(Counter::WorkersLost);
        self.flight_note("worker_lost", worker, None, conn.name.clone());
        eprintln!(
            "fleet coordinator: lost {}worker {}; reassigning its shard",
            if conn.spawned { "spawned " } else { "" },
            conn.name,
        );
        let plan = self.running_plan();
        let orphaned: Vec<u32> = self
            .inflight
            .iter()
            .filter(|(_, fl)| fl.worker == worker)
            .map(|(&batch, _)| batch)
            .collect();
        for batch in orphaned {
            let fl = self.inflight.remove(&batch).expect("batch listed");
            if !fl.remaining.is_empty() && plan == Some(fl.plan) {
                self.stats.batches_reassigned += 1;
                self.pending
                    .push_front(fl.remaining.into_values().collect());
            }
        }
        conn.spawned.then_some(conn.name)
    }

    pub(crate) fn dispatch_idle(&mut self) {
        let idle: Vec<WorkerId> = self
            .workers
            .iter()
            .filter(|(_, c)| c.busy.is_none())
            .map(|(&id, _)| id)
            .collect();
        for worker in idle {
            self.dispatch(worker);
        }
    }

    /// Drops workers silent past the heartbeat timeout, and enforces the
    /// per-job deadline: a shard that stops yielding results is stuck on
    /// its first remaining id (in-shard execution is serial and
    /// id-ordered), so that job gets a strike and the worker — which may
    /// be wedged in a loop its heartbeat thread happily outlives — is
    /// dropped. Returns the names of spawned workers dropped by a
    /// deadline (the caller kills them, which routes them through the
    /// ordinary crash-respawn path) and whether any deadline struck.
    pub(crate) fn expire(&mut self) -> (Vec<String>, bool) {
        let timed_out: Vec<WorkerId> = self
            .workers
            .iter()
            .filter(|(_, c)| c.last_seen.elapsed() > HEARTBEAT_TIMEOUT)
            .map(|(&id, _)| id)
            .collect();
        for worker in timed_out {
            self.lose_worker(worker);
        }
        let (Some(deadline), Some(plan)) = (self.config.job_deadline, self.running_plan()) else {
            return (Vec::new(), false);
        };
        let expired: Vec<u32> = self
            .inflight
            .iter()
            .filter(|(_, fl)| {
                fl.plan == plan && !fl.remaining.is_empty() && fl.last_result.elapsed() > deadline
            })
            .map(|(&batch, _)| batch)
            .collect();
        let struck = !expired.is_empty();
        let mut killed = Vec::new();
        for batch in expired {
            let Some(fl) = self.inflight.get(&batch) else {
                continue;
            };
            let stuck = *fl.remaining.keys().next().expect("filtered non-empty");
            let victim = fl.worker;
            self.stats.deadline_strikes += 1;
            let detail = format!(
                "no result within {deadline:?} on worker {}",
                self.workers.get(&victim).map_or("?", |c| c.name.as_str()),
            );
            self.note(Counter::DeadlineStrikes);
            self.flight_note("deadline", victim, Some(stuck), detail.clone());
            self.flight_dump("deadline", stuck);
            self.strike(
                stuck,
                JobError {
                    kind: JobErrorKind::Deadline,
                    detail,
                },
            );
            killed.extend(self.lose_worker(victim));
        }
        (killed, struck)
    }

    /// Publishes the scheduling gauges (no-op without telemetry).
    pub(crate) fn set_gauges(&self, queued_plans: usize) {
        if let Some(reg) = &self.telemetry {
            reg.set_gauge(Gauge::LiveWorkers, self.workers.len() as u64);
            reg.set_gauge(Gauge::PendingBatches, self.pending.len() as u64);
            reg.set_gauge(Gauge::InflightBatches, self.inflight.len() as u64);
            reg.set_gauge(Gauge::QueuedPlans, queued_plans as u64);
        }
    }

    /// Sends every connected worker `Shutdown` and forgets it; returns
    /// their ids, whose sessions the caller waits out.
    pub(crate) fn shutdown_workers(&mut self) -> Vec<WorkerId> {
        for conn in self.workers.values_mut() {
            // Send the frame but do not hard-close the socket: a worker
            // may still be flushing its final BatchDone, and exits
            // cleanly on its own once it reads Shutdown.
            let _ = wire::write_frame(&mut conn.writer, &Frame::Shutdown);
        }
        std::mem::take(&mut self.workers).into_keys().collect()
    }

    /// The scheduler's registry folded with the final cumulative snapshot
    /// of every worker, in worker-id order — deterministic regardless of
    /// the order snapshots arrived in.
    pub(crate) fn folded_telemetry(&self) -> Option<Snapshot> {
        self.telemetry.as_ref().map(|reg| {
            let mut folded = reg.snapshot();
            for snap in lock_recovering(&self.worker_metrics, Some(reg)).values() {
                folded.merge(snap);
            }
            folded
        })
    }
}

/// Starts one worker process: exactly `--connect ADDR --name NAME
/// --spawned`, then `extra`.
pub(crate) fn spawn_worker(
    binary: &PathBuf,
    addr: &str,
    name: String,
    extra: &[String],
) -> Result<ChildSlot, DistError> {
    let child = Command::new(binary)
        .arg("--connect")
        .arg(addr)
        .arg("--name")
        .arg(&name)
        .arg("--spawned")
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| DistError::Io(format!("spawning {}: {e}", binary.display())))?;
    Ok(ChildSlot {
        name,
        child,
        exited: false,
    })
}

/// How long teardown waits for workers to exit on their own before
/// spawned ones are killed.
pub(crate) const REAP_TIMEOUT: Duration = Duration::from_secs(5);

pub(crate) fn reap_children(children: &mut [ChildSlot]) {
    let deadline = Instant::now() + REAP_TIMEOUT;
    loop {
        let mut alive = false;
        for slot in children.iter_mut() {
            if slot.exited {
                continue;
            }
            match slot.child.try_wait() {
                Ok(Some(_)) | Err(_) => slot.exited = true,
                Ok(None) => alive = true,
            }
        }
        if !alive {
            return;
        }
        if Instant::now() >= deadline {
            for slot in children.iter_mut() {
                if !slot.exited {
                    let _ = slot.child.kill();
                    let _ = slot.child.wait();
                    slot.exited = true;
                }
            }
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The journal client name of a `--dist` plan.
const DIST_CLIENT: &str = "dist";

/// Opens a checkpoint as a one-plan journal and returns its writer and
/// the results to resume. A new file gets the plan's `Submitted` record.
/// An existing file must hold exactly this plan; it is compacted only
/// after every check passed.
fn open_checkpoint(
    path: &Path,
    plan: &SweepPlan,
    options: ExecOptions,
    fingerprint: u64,
) -> Result<(JournalWriter, Vec<JobResult>), JournalError> {
    let mut plans = if path.exists() {
        journal::replay(&journal::load(path)?)
    } else {
        Vec::new()
    };
    let Some(mut resumed) = plans.pop() else {
        let mut writer = JournalWriter::create(path)?;
        writer.append(&JournalRecord::Submitted {
            fingerprint,
            client: DIST_CLIENT.to_string(),
            options,
            jobs: plan.jobs().to_vec(),
        })?;
        return Ok((writer, Vec::new()));
    };
    if !plans.is_empty() {
        return Err(JournalError::Corrupt(format!(
            "a checkpoint holds one plan, this journal holds {}",
            plans.len() + 1
        )));
    }
    if resumed.fingerprint != fingerprint {
        return Err(JournalError::PlanMismatch {
            found: resumed.fingerprint,
            expected: fingerprint,
        });
    }
    // Whatever the last run did not finish (quarantined jobs included)
    // runs again; this run journals its own `Completed`.
    resumed.completed = false;
    let writer = JournalWriter::resume(path, &resumed.to_records())?;
    Ok((writer, resumed.results))
}

/// Runs every job of `plan` across worker processes and merges the
/// results; see the module docs for scheduling, fault handling, and the
/// determinism invariant.
///
/// # Errors
///
/// See [`DistError`]. On any error, spawned workers are torn down and the
/// checkpoint (if configured) retains everything completed so far.
pub fn run_distributed(plan: &SweepPlan, config: &DistConfig) -> Result<DistReport, DistError> {
    if config.spawn_workers == 0 && config.listen.is_none() {
        return Err(DistError::NoWorkers(
            "spawn_workers is 0 and no listen address accepts external workers".into(),
        ));
    }
    let fingerprint = plan_fingerprint(plan, config.options);
    let mut scheduler = Scheduler::new(config)?;
    let (journal, resumed) = match &config.checkpoint {
        Some(path) => {
            let (writer, resumed) = open_checkpoint(path, plan, config.options, fingerprint)?;
            (Some(writer), resumed)
        }
        None => (None, Vec::new()),
    };
    scheduler.stats.resumed_jobs = resumed.len();

    // A one-plan daemon: the plan is admitted, drain is already
    // requested, nothing expires while it runs, and its results are
    // collected here rather than fetched by a client.
    let mut daemon = Daemon::new(scheduler, journal, 0, Duration::MAX);
    daemon.admit(
        fingerprint,
        DIST_CLIENT,
        config.options,
        plan.jobs().to_vec(),
        resumed,
        PlanState::Queued,
    );
    daemon.draining = true;
    daemon.holds_results = false;
    // A fully checkpointed plan completes right here, before any socket
    // opens or worker spawns.
    daemon.start_next_plan();
    if !daemon.settled() {
        let listener = match &config.listen {
            Some(addr) => TcpListener::bind(addr)
                .map_err(|e| DistError::Io(format!("binding {addr}: {e}")))?,
            None => TcpListener::bind("127.0.0.1:0")
                .map_err(|e| DistError::Io(format!("binding loopback: {e}")))?,
        };
        daemon::serve(&mut daemon, listener, config)?;
    }
    let (results, quarantined) = daemon
        .take_plan(fingerprint)
        .expect("the admitted plan stays in the book");
    Ok(DistReport {
        store: ResultStore::new(results),
        stats: daemon.sched.stats,
        quarantine: QuarantineManifest::new(quarantined),
        telemetry: daemon.sched.folded_telemetry(),
    })
}

/// Maps a bound socket address to one a client can dial: wildcard binds
/// (`0.0.0.0`, `[::]`) become the same-family loopback with the bound
/// port; anything else round-trips unchanged.
pub(crate) fn routable_addr(bound: std::net::SocketAddr) -> String {
    if bound.ip().is_unspecified() {
        let loopback: std::net::IpAddr = if bound.is_ipv4() {
            std::net::Ipv4Addr::LOCALHOST.into()
        } else {
            std::net::Ipv6Addr::LOCALHOST.into()
        };
        std::net::SocketAddr::new(loopback, bound.port()).to_string()
    } else {
        bound.to_string()
    }
}

/// The metrics endpoint thread: answers every connection with a
/// Prometheus-style plaintext exposition of the scheduler registry
/// folded with the latest worker snapshots. Exits on the stop flag (the
/// service loop self-connects to unblock the accept).
pub(crate) fn serve_metrics(
    listener: &TcpListener,
    registry: &Registry,
    worker_metrics: &Mutex<BTreeMap<WorkerId, Snapshot>>,
    stop: &AtomicBool,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(mut stream) = stream else { continue };
        // Drain (best-effort) whatever request line the client sent; the
        // endpoint serves one document regardless of the path.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        let mut request = [0u8; 1024];
        let _ = std::io::Read::read(&mut stream, &mut request);
        let mut folded = registry.snapshot();
        {
            let workers = lock_recovering(worker_metrics, Some(registry));
            for snap in workers.values() {
                folded.merge(snap);
            }
        }
        let body = folded.to_prometheus();
        let response = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len(),
        );
        let _ = std::io::Write::write_all(&mut stream, response.as_bytes());
        let _ = stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_core::units::Seconds;
    use av_scenarios::catalog::ScenarioId;
    use zhuyi_fleet::store::ProbeOutcome;
    use zhuyi_fleet::JobOutcome;

    fn plan_seeded(seeds: std::ops::Range<u64>) -> Vec<SweepJob> {
        let plan = SweepPlan::builder()
            .scenarios([ScenarioId::CutOut])
            .seeds(seeds)
            .probe(4.0, false)
            .build();
        plan.jobs().to_vec()
    }

    fn plan(jobs: usize) -> Vec<SweepJob> {
        plan_seeded(0..jobs as u64)
    }

    #[test]
    fn batches_chunk_contiguously_and_cover_everything() {
        let jobs = plan(10);
        let batches = chunk_batches(&jobs, 4);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 4);
        assert_eq!(batches[2].len(), 2);
        let flat: Vec<u64> = batches.iter().flatten().map(|j| j.id.0).collect();
        assert_eq!(flat, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn default_batch_size_balances_without_degenerating() {
        assert_eq!(default_batch_size(160, 4), 10);
        assert_eq!(default_batch_size(3, 4), 1);
        assert_eq!(default_batch_size(0, 4), 1);
        // External-only coordinators assume an 8-worker fleet.
        assert_eq!(default_batch_size(96, 0), 3);
    }

    #[test]
    fn zero_workers_without_listen_is_rejected_up_front() {
        let plan = SweepPlan::from_jobs(plan(1));
        let config = DistConfig {
            spawn_workers: 0,
            ..DistConfig::default()
        };
        assert!(matches!(
            run_distributed(&plan, &config),
            Err(DistError::NoWorkers(_))
        ));
    }

    fn result(job: &SweepJob) -> JobResult {
        JobResult {
            job: job.clone(),
            outcome: JobOutcome::Probe(ProbeOutcome {
                collided: false,
                collision_time: None,
                collision_actor: None,
                min_clearance: None,
                duration: Seconds(job.spec.seed as f64),
                trace_csv: None,
            }),
        }
    }

    /// Frames are credited by batch: plans A and B both have a job 0, and
    /// a worker still executing A's batch reports job 0 while B runs.
    /// That late copy must change none of B's results, strike none of B's
    /// jobs, and journal nothing.
    #[test]
    fn a_finished_plans_late_frames_never_reach_the_next_plan() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let config = DistConfig {
            batch_size: Some(2),
            ..DistConfig::default()
        };
        let mut sched = Scheduler::new(&config).expect("scheduler");
        // The scheduler's frames go to peers nobody reads; they are few
        // and small enough to sit in the socket buffers.
        let mut peers = Vec::new();
        for worker in 0..2 {
            peers.push(TcpStream::connect(addr).expect("connect"));
            let (stream, _) = listener.accept().expect("accept");
            sched.connect(worker, stream, false, format!("w{worker}"));
        }
        let (plan_a, plan_b) = (plan_seeded(0..2), plan_seeded(10..12));
        let options = ExecOptions::default();

        // A's one shard [0, 1] goes to worker 0; worker 1 steals job 1.
        sched.start(0xA, options, &plan_a, BTreeMap::new());
        assert_eq!(sched.stats.jobs_stolen, 1);
        let frame = |job: &SweepJob| Frame::Result {
            result: Box::new(result(job)),
        };
        assert!(sched.handle_frame(1, frame(&plan_a[1]), None).unwrap());
        sched
            .handle_frame(1, Frame::BatchDone { batch: 1 }, None)
            .unwrap();
        assert!(sched.handle_frame(0, frame(&plan_a[0]), None).unwrap());
        let finished = sched.take_finished().expect("plan A is complete");
        assert_eq!(finished.results.len(), 2);

        // B starts while worker 0 has not yet reported BatchDone for A's
        // shard; only the idle worker 1 gets B's work.
        let path =
            std::env::temp_dir().join(format!("zhuyi-distd-stale-{}.journal", std::process::id()));
        let mut journal = JournalWriter::create(&path).expect("journal");
        sched.start(0xB, options, &plan_b, BTreeMap::new());
        let failure = Frame::JobFailed {
            job: 0,
            error: JobError {
                kind: JobErrorKind::Panic,
                detail: "late".into(),
            },
        };
        assert!(!sched
            .handle_frame(0, frame(&plan_a[0]), Some(&mut journal))
            .unwrap());
        assert!(!sched.handle_frame(0, failure, Some(&mut journal)).unwrap());
        let run = sched.running.as_ref().expect("plan B runs");
        assert!(
            run.results.is_empty(),
            "A's job 0 must not credit B's job 0"
        );
        assert!(run.failures.is_empty(), "A's failure must not strike B");
        assert_eq!(sched.stats.job_failures, 0);
        assert_eq!(journal.records(), 0, "a stale frame journals nothing");

        // B's own copy of job 0, from the worker B assigned it to, counts.
        assert!(sched
            .handle_frame(1, frame(&plan_b[0]), Some(&mut journal))
            .unwrap());
        assert_eq!(journal.records(), 1);
        let run = sched.running.as_ref().expect("plan B runs");
        assert_eq!(run.results.get(&0), Some(&result(&plan_b[0])));
        drop(peers);
        let _ = std::fs::remove_file(&path);
    }
}
