//! The persistent sweep daemon, and the crate's one service loop.
//!
//! `serve` is the only event loop in the crate. It accepts worker and
//! client sessions on one listener, spawns and respawns its own workers,
//! and drives every plan through the scheduler in [`crate::coord`].
//! [`run_daemon`] runs it as a long-lived service;
//! [`crate::coord::run_distributed`] runs it as a one-plan daemon whose
//! drain is requested from the start.
//!
//! Where `run_distributed` runs one plan and dies with its process, the
//! daemon decouples plan lifetime from process lifetime:
//!
//! - **Durable plan queue.** Every admission, per-job result, completion,
//!   cancellation, and fetch is appended to a write-ahead [`crate::journal`]
//!   and flushed per record. A restarted daemon replays the journal and
//!   resumes every queued and in-flight sweep exactly where it stopped —
//!   `kill -9` mid-sweep costs at most the jobs whose results had not yet
//!   been journaled, never a queued plan.
//! - **Idempotent submission.** Plans are identified by their client-side
//!   fingerprint ([`crate::journal::plan_fingerprint`]); a retried
//!   [`Frame::Submit`] matches the known fingerprint and is answered
//!   `Accepted { deduped: true }` without enqueueing a second copy, so a
//!   client that lost the first `Accepted` to a flaky link can retry
//!   blindly.
//! - **Bounded admission.** At most [`DaemonConfig::max_queue`] plans
//!   wait at a time; the daemon answers [`Frame::Busy`] beyond that (and
//!   while draining) — explicit load-shedding, never a hang and never a
//!   silent drop.
//! - **Per-client round-robin fairness.** Queued plans live in per-client
//!   FIFO lanes; the next plan to run is drawn from the lanes in rotation
//!   so one chatty client cannot starve the rest.
//! - **Lease-based orphan handling.** Every client frame naming a
//!   fingerprint renews that plan's lease. A queued plan whose lease
//!   expires is cancelled; a completed-but-unfetched plan whose lease
//!   expires has its results released. A *running* plan always finishes —
//!   execution is deterministic and the work is worth keeping.
//! - **Warm workers.** Worker sessions persist across plans (v7 carries
//!   [`ExecOptions`] per [`Frame::Assign`], not per handshake), so
//!   back-to-back plans skip process spawn and reconnect entirely.
//!   Spawned workers that crash are respawned with backoff unless the
//!   loop is about to exit: while the daemon is not draining, or while
//!   any plan is running or queued.
//! - **One scheduler.** Every plan gets the scheduler `--dist` uses:
//!   tail-stealing, and strikes that end in quarantine (a quarantined
//!   job is absent from the fetched results). Deadlines, verify
//!   sampling, flight dumps and the metrics endpoint stay `--dist`-only,
//!   because [`DaemonConfig`] has no field for them.
//! - **Graceful drain.** [`Frame::Drain`] stops admission, finishes every
//!   queued and running plan, waits until each completed plan is fetched
//!   (or released by its lease), shuts the fleet down, and returns — zero
//!   journal loss, ready for an upgrade restart.
//!
//! # Determinism invariant
//!
//! The results a client fetches are id-deduplicated and ascending by job
//! id — the exact single-process merge. Daemon restarts, worker churn,
//! queue order, chaos on the submit link: all invisible in the exported
//! bytes. `tests/daemon.rs` pins this with `kill -9` restarts and storm
//! chaos.

use crate::coord::{self, ChildSlot, DistConfig, DistError, Scheduler};
use crate::faultnet;
use crate::journal::{self, JournalError, JournalRecord, JournalWriter};
use crate::quarantine::QuarantineEntry;
use crate::wire::{self, Frame, PlanState, PROTOCOL_VERSION};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use zhuyi_fleet::{ExecOptions, JobResult, SweepJob};
use zhuyi_telemetry::{Counter, Registry, Snapshot};

/// Configuration of one daemon process.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address for both workers and clients (`host:port`).
    pub listen: String,
    /// The write-ahead journal path; created if missing, replayed (and
    /// compacted) if present.
    pub journal: PathBuf,
    /// Worker processes the daemon spawns itself (external workers may
    /// join on [`DaemonConfig::listen`] regardless).
    pub spawn_workers: usize,
    /// Path of the `fleet_shard` worker binary; `None` resolves a
    /// sibling of the current executable.
    pub worker_binary: Option<PathBuf>,
    /// Admission-queue bound: plans *waiting* (not running) beyond this
    /// are answered [`Frame::Busy`].
    pub max_queue: usize,
    /// Plan lease duration; renewed by any client frame naming the plan.
    pub lease: Duration,
    /// Jobs per shard; `None` derives the scheduler's default.
    pub batch_size: Option<usize>,
    /// Strikes before a job is quarantined out of its plan.
    pub max_job_failures: usize,
    /// Collect telemetry (daemon counters folded with worker snapshots
    /// into [`DaemonReport::telemetry`]).
    pub telemetry: bool,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".to_string(),
            journal: PathBuf::from("fleet.journal"),
            spawn_workers: 2,
            worker_binary: None,
            max_queue: 8,
            lease: Duration::from_secs(300),
            batch_size: None,
            max_job_failures: 3,
            telemetry: false,
        }
    }
}

/// How a daemon run can fail. Once serving, the daemon only returns
/// through a drain; errors are limited to startup (bind, journal, worker
/// binary) and unrecoverable journal writes.
#[derive(Debug)]
pub enum DaemonError {
    /// Socket or process plumbing failed.
    Io(String),
    /// The journal could not be created, replayed, or appended to.
    Journal(JournalError),
    /// The worker binary could not be resolved.
    WorkerBinary(String),
}

impl fmt::Display for DaemonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaemonError::Io(what) => write!(f, "daemon i/o failure: {what}"),
            DaemonError::Journal(e) => write!(f, "{e}"),
            DaemonError::WorkerBinary(what) => write!(f, "{what}"),
        }
    }
}

impl std::error::Error for DaemonError {}

impl From<JournalError> for DaemonError {
    fn from(e: JournalError) -> Self {
        DaemonError::Journal(e)
    }
}

impl From<DistError> for DaemonError {
    fn from(e: DistError) -> Self {
        match e {
            DistError::WorkerBinary(what) => DaemonError::WorkerBinary(what),
            DistError::Checkpoint(e) => DaemonError::Journal(e),
            other => DaemonError::Io(other.to_string()),
        }
    }
}

/// Counters describing a daemon's service lifetime, returned on drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Fresh plans admitted into the queue.
    pub plans_admitted: usize,
    /// Retried submits answered from the fingerprint index.
    pub submits_deduped: usize,
    /// Submits shed with [`Frame::Busy`] (full queue or draining).
    pub submits_shed: usize,
    /// Plans that ran to completion.
    pub plans_completed: usize,
    /// Plans cancelled (client request or queued-lease expiry).
    pub plans_cancelled: usize,
    /// Leases that expired (cancelled queued plans + released results).
    pub lease_expiries: usize,
    /// Plans recovered from the journal at startup.
    pub plans_replayed: usize,
    /// Journaled results resumed at startup (jobs not re-executed).
    pub resumed_results: usize,
    /// Workers that completed the handshake.
    pub workers_connected: usize,
    /// Workers lost to EOF or heartbeat timeout.
    pub workers_lost: usize,
    /// Replacement worker processes spawned.
    pub workers_respawned: usize,
}

/// What a drained daemon hands back.
#[derive(Debug)]
pub struct DaemonReport {
    /// Service-lifetime counters.
    pub stats: DaemonStats,
    /// The folded telemetry snapshot (daemon registry + final worker
    /// snapshots in worker-id order); `None` unless
    /// [`DaemonConfig::telemetry`].
    pub telemetry: Option<Snapshot>,
}

/// One plan's in-daemon state. `results` carries what the journal knows
/// (the scheduler holds them while the plan runs); the merge a client
/// fetches is this map's values ascending by id.
struct PlanEntry {
    client: String,
    options: ExecOptions,
    jobs: Vec<SweepJob>,
    results: BTreeMap<u64, JobResult>,
    /// Jobs the plan gave up on, set when it completes.
    quarantined: Vec<QuarantineEntry>,
    state: PlanState,
    /// Results released: fetched by the client, or abandoned by lease
    /// expiry. Retired entries stay in memory for fingerprint dedup and
    /// are compacted out of the journal on the next restart.
    fetched: bool,
    lease: Instant,
}

struct ClientConn {
    writer: TcpStream,
    name: String,
}

/// Session events pumped into the service loop's single thread.
enum Event {
    WorkerConnected {
        id: u64,
        writer: TcpStream,
        spawned: bool,
        name: String,
    },
    ClientConnected {
        id: u64,
        writer: TcpStream,
        name: String,
    },
    Frame {
        id: u64,
        frame: Frame,
    },
    Disconnected {
        id: u64,
    },
}

/// First retry delay after a failed respawn attempt; doubles per
/// consecutive failure up to [`RESPAWN_BACKOFF_CEIL`].
const RESPAWN_BACKOFF_FLOOR: Duration = Duration::from_millis(250);
/// Upper bound on the respawn retry backoff.
const RESPAWN_BACKOFF_CEIL: Duration = Duration::from_secs(2);
/// A worker silent for longer than this is declared dead.
pub(crate) const HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(30);
/// How often a worker sends a heartbeat, well inside
/// [`HEARTBEAT_TIMEOUT`].
pub(crate) const HEARTBEAT_INTERVAL: Duration = Duration::from_secs(1);

/// The plan book, the client sessions and the journal around the one
/// scheduler.
pub(crate) struct Daemon {
    pub(crate) sched: Scheduler,
    plans: BTreeMap<u64, PlanEntry>,
    /// Per-client FIFO lanes in first-appearance order; the round-robin
    /// cursor rotates across them.
    lanes: Vec<(String, VecDeque<u64>)>,
    rr_next: usize,
    clients: BTreeMap<u64, ClientConn>,
    journal: Option<JournalWriter>,
    pub(crate) draining: bool,
    /// Whether a completed plan is held until its client fetches it (or
    /// its lease releases it) before a drain may finish. A one-plan
    /// daemon's caller collects the results itself.
    pub(crate) holds_results: bool,
    max_queue: usize,
    lease: Duration,
    stats: DaemonStats,
}

impl Daemon {
    pub(crate) fn new(
        sched: Scheduler,
        journal: Option<JournalWriter>,
        max_queue: usize,
        lease: Duration,
    ) -> Self {
        Self {
            sched,
            plans: BTreeMap::new(),
            lanes: Vec::new(),
            rr_next: 0,
            clients: BTreeMap::new(),
            journal,
            draining: false,
            holds_results: true,
            max_queue,
            lease,
            stats: DaemonStats::default(),
        }
    }

    fn append(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        match &mut self.journal {
            Some(journal) => journal.append(record),
            None => Ok(()),
        }
    }

    /// Enters a plan into the book with `results` already credited; a
    /// queued plan joins its client's lane.
    pub(crate) fn admit(
        &mut self,
        fingerprint: u64,
        client: &str,
        options: ExecOptions,
        jobs: Vec<SweepJob>,
        results: Vec<JobResult>,
        state: PlanState,
    ) {
        self.plans.insert(
            fingerprint,
            PlanEntry {
                client: client.to_string(),
                options,
                jobs,
                results: results.into_iter().map(|r| (r.job.id.0, r)).collect(),
                quarantined: Vec::new(),
                state,
                fetched: false,
                lease: Instant::now(),
            },
        );
        if state == PlanState::Queued {
            self.enqueue(client, fingerprint);
        }
    }

    /// Removes a plan from the book, returning its results (ascending by
    /// id) and its quarantined jobs.
    pub(crate) fn take_plan(
        &mut self,
        fingerprint: u64,
    ) -> Option<(Vec<JobResult>, Vec<QuarantineEntry>)> {
        let entry = self.plans.remove(&fingerprint)?;
        Some((entry.results.into_values().collect(), entry.quarantined))
    }

    /// Draining with no plan running or queued: no work is left.
    fn idle(&self) -> bool {
        self.draining && self.sched.running.is_none() && self.queued_count() == 0
    }

    /// Idle, and no completed plan is still held for its client: the
    /// service loop may exit.
    pub(crate) fn settled(&self) -> bool {
        self.idle()
            && !(self.holds_results
                && self
                    .plans
                    .values()
                    .any(|e| e.state == PlanState::Completed && !e.fetched))
    }

    /// Plans waiting in the lanes (excludes the running plan).
    fn queued_count(&self) -> usize {
        self.lanes.iter().map(|(_, lane)| lane.len()).sum()
    }

    /// Admits `fingerprint` into its client's lane, creating the lane on
    /// the client's first submission.
    fn enqueue(&mut self, client: &str, fingerprint: u64) {
        match self.lanes.iter_mut().find(|(name, _)| name == client) {
            Some((_, lane)) => lane.push_back(fingerprint),
            None => {
                self.lanes
                    .push((client.to_string(), VecDeque::from([fingerprint])));
            }
        }
    }

    /// Removes `fingerprint` from whatever lane holds it (cancellation).
    fn unqueue(&mut self, fingerprint: u64) {
        for (_, lane) in &mut self.lanes {
            lane.retain(|&f| f != fingerprint);
        }
    }

    /// Round-robin draw: the next queued plan, rotating across client
    /// lanes so one client cannot starve the rest. Empty lanes are
    /// skipped but kept (their clients may submit again).
    fn next_plan(&mut self) -> Option<u64> {
        if self.lanes.is_empty() {
            return None;
        }
        for offset in 0..self.lanes.len() {
            let i = (self.rr_next + offset) % self.lanes.len();
            if let Some(fingerprint) = self.lanes[i].1.pop_front() {
                self.rr_next = (i + 1) % self.lanes.len();
                return Some(fingerprint);
            }
        }
        None
    }

    /// Starts the next queued plan if nothing is running.
    pub(crate) fn start_next_plan(&mut self) {
        if self.sched.running.is_some() {
            return;
        }
        let Some(fingerprint) = self.next_plan() else {
            return;
        };
        let Some(entry) = self.plans.get_mut(&fingerprint) else {
            return;
        };
        entry.state = PlanState::Running;
        eprintln!(
            "fleet daemon: starting plan {fingerprint:#018x} for client {} \
             ({} jobs, {} already journaled)",
            entry.client,
            entry.jobs.len(),
            entry.results.len(),
        );
        let results = std::mem::take(&mut entry.results);
        self.sched
            .start(fingerprint, entry.options, &entry.jobs, results);
        // A fully journaled plan (every result resumed) completes without
        // dispatching anything.
        self.check_plan_complete();
    }

    /// Completes the running plan once every job is credited or
    /// quarantined, then starts the next one.
    fn check_plan_complete(&mut self) {
        let Some(run) = self.sched.take_finished() else {
            return;
        };
        let fingerprint = run.fingerprint;
        if let Err(e) = self.append(&JournalRecord::Completed { fingerprint }) {
            // An unwritable journal is fatal for durability but not for
            // this plan's in-memory results; scream and serve on.
            eprintln!("fleet daemon: journal append failed: {e}");
        }
        let quarantined = run.quarantined.len();
        if let Some(entry) = self.plans.get_mut(&fingerprint) {
            entry.state = PlanState::Completed;
            entry.lease = Instant::now();
            entry.results = run.results;
            entry.quarantined = run.quarantined.into_values().collect();
        }
        self.stats.plans_completed += 1;
        self.sched.note(Counter::PlansCompleted);
        eprintln!("fleet daemon: plan {fingerprint:#018x} completed ({quarantined} quarantined)");
        self.start_next_plan();
    }

    /// Cancels a plan: journals the record, retires the entry, and frees
    /// its lane slot. Running plans are not cancellable (determinism
    /// makes finishing cheaper than unwinding); the caller reports the
    /// actual resulting state back to the client.
    fn cancel(&mut self, fingerprint: u64) {
        if self.plans.get(&fingerprint).map(|e| e.state) != Some(PlanState::Queued) {
            return;
        }
        if let Err(e) = self.append(&JournalRecord::Cancelled { fingerprint }) {
            eprintln!("fleet daemon: journal append failed: {e}");
        }
        if let Some(entry) = self.plans.get_mut(&fingerprint) {
            entry.state = PlanState::Cancelled;
        }
        self.unqueue(fingerprint);
        self.stats.plans_cancelled += 1;
    }

    /// Lease housekeeping: queued plans with expired leases are
    /// cancelled; completed-but-unfetched plans are released. Running
    /// plans always finish.
    fn expire_leases(&mut self) {
        let expired: Vec<(u64, PlanState)> = self
            .plans
            .iter()
            .filter(|(_, e)| e.lease.elapsed() > self.lease)
            .filter(|(_, e)| match e.state {
                PlanState::Queued => true,
                PlanState::Completed => !e.fetched,
                _ => false,
            })
            .map(|(&f, e)| (f, e.state))
            .collect();
        for (fingerprint, state) in expired {
            self.stats.lease_expiries += 1;
            self.sched.note(Counter::LeaseExpiries);
            match state {
                PlanState::Queued => {
                    eprintln!(
                        "fleet daemon: lease expired on queued plan {fingerprint:#018x}; \
                         cancelling"
                    );
                    self.cancel(fingerprint);
                }
                _ => {
                    eprintln!(
                        "fleet daemon: lease expired on completed plan {fingerprint:#018x}; \
                         releasing results"
                    );
                    if let Err(e) = self.append(&JournalRecord::Fetched { fingerprint }) {
                        eprintln!("fleet daemon: journal append failed: {e}");
                    }
                    if let Some(entry) = self.plans.get_mut(&fingerprint) {
                        entry.fetched = true;
                    }
                }
            }
        }
    }

    /// Handles one client request frame, writing the reply directly to
    /// the client's socket (best-effort: a dead client just retries).
    fn handle_client_frame(&mut self, id: u64, frame: Frame) -> Result<(), JournalError> {
        let client_name = match self.clients.get(&id) {
            Some(c) => c.name.clone(),
            None => return Ok(()),
        };
        let reply = match frame {
            Frame::Submit {
                fingerprint,
                options,
                jobs,
            } => {
                let known_state = self.plans.get_mut(&fingerprint).map(|entry| {
                    entry.lease = Instant::now();
                    entry.state
                });
                if let Some(state) = known_state {
                    self.stats.submits_deduped += 1;
                    self.sched.note(Counter::SubmitsDeduped);
                    Frame::Accepted {
                        fingerprint,
                        deduped: true,
                        position: match state {
                            PlanState::Queued => self.queued_count().saturating_sub(1) as u32,
                            _ => 0,
                        },
                    }
                } else if self.draining || self.queued_count() >= self.max_queue {
                    self.stats.submits_shed += 1;
                    self.sched.note(Counter::SubmitsShed);
                    Frame::Busy {
                        queue_limit: if self.draining {
                            0
                        } else {
                            self.max_queue as u32
                        },
                    }
                } else {
                    self.append(&JournalRecord::Submitted {
                        fingerprint,
                        client: client_name.clone(),
                        options,
                        jobs: jobs.clone(),
                    })?;
                    let position = self.queued_count() as u32;
                    self.admit(
                        fingerprint,
                        &client_name,
                        options,
                        jobs,
                        Vec::new(),
                        PlanState::Queued,
                    );
                    self.stats.plans_admitted += 1;
                    self.sched.note(Counter::PlanSubmits);
                    self.start_next_plan();
                    Frame::Accepted {
                        fingerprint,
                        deduped: false,
                        position,
                    }
                }
            }
            Frame::Status { fingerprint } => self.status_report(fingerprint),
            Frame::Cancel { fingerprint } => {
                self.cancel(fingerprint);
                self.status_report(fingerprint)
            }
            Frame::FetchResults { fingerprint } => {
                let ready = self.plans.get_mut(&fingerprint).is_some_and(|entry| {
                    if entry.state == PlanState::Completed {
                        entry.lease = Instant::now();
                        true
                    } else {
                        false
                    }
                });
                if ready {
                    if !self.plans[&fingerprint].fetched {
                        self.append(&JournalRecord::Fetched { fingerprint })?;
                    }
                    let entry = self.plans.get_mut(&fingerprint).expect("checked above");
                    entry.fetched = true;
                    Frame::Results {
                        fingerprint,
                        results: entry.results.values().cloned().collect(),
                    }
                } else {
                    // Not done yet (or unknown): report where it stands
                    // so the client keeps polling instead of misreading
                    // an empty result set as a finished sweep.
                    self.status_report(fingerprint)
                }
            }
            Frame::Drain => {
                if !self.draining {
                    self.draining = true;
                    self.sched.note(Counter::DrainRequests);
                    eprintln!(
                        "fleet daemon: drain requested; {} plan(s) to finish",
                        self.queued_count() + usize::from(self.sched.running.is_some()),
                    );
                }
                Frame::DrainAck {
                    queued: (self.queued_count() + usize::from(self.sched.running.is_some()))
                        as u32,
                }
            }
            // Anything else on a client session is a protocol violation;
            // ignore rather than trust.
            _ => return Ok(()),
        };
        if let Some(conn) = self.clients.get_mut(&id) {
            let _ = wire::write_frame(&mut conn.writer, &reply);
        }
        Ok(())
    }

    fn status_report(&mut self, fingerprint: u64) -> Frame {
        match self.plans.get_mut(&fingerprint) {
            Some(entry) => {
                entry.lease = Instant::now();
                let completed = match &self.sched.running {
                    Some(run) if run.fingerprint == fingerprint => run.results.len(),
                    _ => entry.results.len(),
                };
                Frame::StatusReport {
                    fingerprint,
                    state: entry.state,
                    completed: completed as u64,
                    total: entry.jobs.len() as u64,
                }
            }
            None => Frame::StatusReport {
                fingerprint,
                state: PlanState::Unknown,
                completed: 0,
                total: 0,
            },
        }
    }
}

/// Runs the daemon until a client drains it; see the module docs.
///
/// # Errors
///
/// See [`DaemonError`]: startup failures (bind, journal replay, worker
/// binary) and unrecoverable journal appends on the admission path.
pub fn run_daemon(config: &DaemonConfig) -> Result<DaemonReport, DaemonError> {
    // The scheduler settings of a service: it waits for plans without a
    // stall limit and respawns crashed workers for its whole lifetime.
    let dist = DistConfig {
        spawn_workers: config.spawn_workers,
        worker_binary: config.worker_binary.clone(),
        listen: Some(config.listen.clone()),
        batch_size: config.batch_size,
        stall_timeout: Duration::MAX,
        max_respawns: usize::MAX,
        max_job_failures: config.max_job_failures,
        telemetry: config.telemetry,
        ..DistConfig::default()
    };
    let sched = Scheduler::new(&dist)?;
    let mut stats = DaemonStats::default();

    // --- journal replay: the restart path. -----------------------------
    let (journal_writer, recovered) = if config.journal.exists() {
        sched.note(Counter::JournalReplays);
        let live_plans: Vec<journal::ReplayedPlan> =
            journal::replay(&journal::load(&config.journal)?)
                .into_iter()
                .filter(journal::ReplayedPlan::live)
                .collect();
        let live: Vec<JournalRecord> = live_plans
            .iter()
            .flat_map(journal::ReplayedPlan::to_records)
            .collect();
        let writer = JournalWriter::resume(&config.journal, &live)?;
        stats.plans_replayed = live_plans.len();
        stats.resumed_results = live_plans.iter().map(|p| p.results.len()).sum();
        eprintln!(
            "fleet daemon: journal replayed — {} live plan(s), {} journaled result(s)",
            stats.plans_replayed, stats.resumed_results,
        );
        (writer, live_plans)
    } else {
        (JournalWriter::create(&config.journal)?, Vec::new())
    };

    let mut daemon = Daemon::new(sched, Some(journal_writer), config.max_queue, config.lease);
    daemon.stats = stats;
    // Re-admit recovered plans in their journaled submission order:
    // completed-but-unfetched plans go straight to the fetch index,
    // everything else requeues (with its journaled results credited, so
    // only the remainder re-executes).
    for plan in recovered {
        let state = if plan.completed {
            PlanState::Completed
        } else {
            PlanState::Queued
        };
        daemon.admit(
            plan.fingerprint,
            &plan.client,
            plan.options,
            plan.jobs,
            plan.results,
            state,
        );
    }

    // A daemon restarted right after a crash can race its predecessor's
    // half-closed sockets out of TIME_WAIT on the same port; retry the
    // bind briefly instead of refusing to come back up.
    let listener = {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match TcpListener::bind(&config.listen) {
                Ok(l) => break l,
                Err(e)
                    if e.kind() == std::io::ErrorKind::AddrInUse && Instant::now() < deadline =>
                {
                    std::thread::sleep(Duration::from_millis(250));
                }
                Err(e) => {
                    return Err(DaemonError::Io(format!("binding {}: {e}", config.listen)));
                }
            }
        }
    };
    eprintln!(
        "fleet daemon: serving on {}, journal {}",
        config.listen,
        config.journal.display()
    );
    serve(&mut daemon, listener, &dist)?;
    eprintln!(
        "fleet daemon: drained cleanly ({} plan(s) completed over the service lifetime)",
        daemon.stats.plans_completed,
    );
    let mut stats = daemon.stats;
    stats.workers_connected = daemon.sched.stats.workers_connected;
    stats.workers_lost = daemon.sched.stats.workers_lost;
    stats.workers_respawned = daemon.sched.stats.workers_respawned;
    Ok(DaemonReport {
        stats,
        telemetry: daemon.sched.folded_telemetry(),
    })
}

/// The service loop: accepts worker and client sessions on `listener`,
/// spawns `config.spawn_workers` workers (respawning crashed ones), and
/// drives `daemon` until it settles — drained, with
/// nothing running or queued — or a run-ending error. Workers, sessions,
/// the metrics endpoint and spawned processes never outlive the call.
///
/// # Errors
///
/// The run-ending [`DistError`]s; see [`DistConfig`] for which limits
/// apply.
pub(crate) fn serve(
    daemon: &mut Daemon,
    listener: TcpListener,
    config: &DistConfig,
) -> Result<(), DistError> {
    // Spawned workers (and the shutdown self-connect that unblocks the
    // accept loop) must dial a *routable* address: a wildcard bind like
    // 0.0.0.0:7700 is a listen address, not a destination, so map it to
    // the same-family loopback with the bound port.
    let local_addr = coord::routable_addr(
        listener
            .local_addr()
            .map_err(|e| DistError::Io(format!("local_addr: {e}")))?,
    );

    // The live metrics endpoint: a plaintext Prometheus-style exposition
    // of the scheduler registry folded with the latest worker snapshots,
    // served for the duration of the run.
    let metrics = match &config.metrics_listen {
        Some(addr) => {
            let metrics_listener = TcpListener::bind(addr)
                .map_err(|e| DistError::Io(format!("binding metrics {addr}: {e}")))?;
            let metrics_addr = coord::routable_addr(
                metrics_listener
                    .local_addr()
                    .map_err(|e| DistError::Io(format!("metrics local_addr: {e}")))?,
            );
            let metrics_stop = Arc::new(AtomicBool::new(false));
            let reg = Arc::clone(
                daemon
                    .sched
                    .telemetry
                    .as_ref()
                    .expect("metrics imply a registry"),
            );
            let worker_metrics = Arc::clone(&daemon.sched.worker_metrics);
            let stop = Arc::clone(&metrics_stop);
            std::thread::spawn(move || {
                coord::serve_metrics(&metrics_listener, &reg, &worker_metrics, &stop)
            });
            Some((metrics_addr, metrics_stop))
        }
        None => None,
    };

    let (events_tx, events_rx) = mpsc::channel::<Event>();
    let stop = Arc::new(AtomicBool::new(false));
    let draining = Arc::new(AtomicBool::new(daemon.draining));
    {
        let stop = Arc::clone(&stop);
        let draining = Arc::clone(&draining);
        let registry = daemon.sched.telemetry.clone();
        let telemetry_on = config.telemetry;
        std::thread::spawn(move || {
            let mut next_id: u64 = 0;
            loop {
                let Ok((stream, _)) = listener.accept() else {
                    return;
                };
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let id = next_id;
                next_id += 1;
                let events = events_tx.clone();
                let registry = registry.clone();
                let draining = Arc::clone(&draining);
                std::thread::spawn(move || {
                    serve_session(stream, id, telemetry_on, &draining, registry, &events);
                });
            }
        });
    }

    let mut children: Vec<ChildSlot> = Vec::new();
    let result = drive(
        daemon,
        config,
        &local_addr,
        &events_rx,
        &draining,
        &mut children,
    );

    // Teardown, shared by every exit path: the journal flushes per
    // record, so only the fleet, the accept thread and the metrics
    // endpoint are left. Each worker's session closes once the worker
    // has read Shutdown and exited; waiting for that lets an external
    // worker finish its last write (a final BatchDone) before this
    // process exits under it. Spawned workers are also reaped below.
    let mut open = daemon.sched.shutdown_workers();
    let deadline = Instant::now() + coord::REAP_TIMEOUT;
    while !open.is_empty() {
        match events_rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(Event::Disconnected { id }) => open.retain(|&worker| worker != id),
            Ok(_) => {}
            Err(_) => break,
        }
    }
    stop.store(true, Ordering::SeqCst);
    // Unblock the accept loop so its thread exits.
    let _ = TcpStream::connect(&local_addr);
    if let Some((metrics_addr, metrics_stop)) = &metrics {
        metrics_stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(metrics_addr);
    }
    coord::reap_children(&mut children);
    result
}

/// Spawns the fleet, then runs the event loop until `daemon` settles.
fn drive(
    daemon: &mut Daemon,
    config: &DistConfig,
    addr: &str,
    events: &mpsc::Receiver<Event>,
    draining: &AtomicBool,
    children: &mut Vec<ChildSlot>,
) -> Result<(), DistError> {
    let binary = match (&config.worker_binary, config.spawn_workers) {
        (_, 0) => None,
        (Some(path), _) => Some(path.clone()),
        (None, _) => Some(coord::default_worker_binary().map_err(DistError::WorkerBinary)?),
    };
    for k in 0..config.spawn_workers {
        let mut extra = config.worker_extra_args.get(k).cloned().unwrap_or_default();
        if let Some(chaos) = config.chaos {
            extra.extend([
                "--chaos-seed".to_string(),
                faultnet::derive_worker_seed(chaos.seed, k as u64).to_string(),
                "--chaos-profile".to_string(),
                chaos.profile.name.to_string(),
            ]);
        }
        children.push(coord::spawn_worker(
            binary.as_ref().expect("binary resolved when spawning"),
            addr,
            format!("spawned-{k}"),
            &extra,
        )?);
    }

    let mut spawned_total = config.spawn_workers;
    let mut respawns_used = 0usize;
    let mut respawn_queue = 0usize;
    let mut respawn_backoff = RESPAWN_BACKOFF_FLOOR;
    let mut next_respawn_at = Instant::now();
    let mut last_progress = Instant::now();
    loop {
        if daemon.settled() {
            return Ok(());
        }
        match events.recv_timeout(Duration::from_millis(200)) {
            Ok(Event::WorkerConnected {
                id,
                writer,
                spawned,
                name,
            }) => daemon.sched.connect(id, writer, spawned, name),
            Ok(Event::ClientConnected { id, writer, name }) => {
                daemon.clients.insert(id, ClientConn { writer, name });
            }
            Ok(Event::Frame { id, frame }) if daemon.clients.contains_key(&id) => {
                daemon.handle_client_frame(id, frame)?;
            }
            Ok(Event::Frame { id, frame }) => {
                if daemon
                    .sched
                    .handle_frame(id, frame, daemon.journal.as_mut())?
                {
                    last_progress = Instant::now();
                }
                if let Some(limit) = config.abort_after_results {
                    let completed = daemon.sched.stats.executed_jobs;
                    if completed >= limit {
                        return Err(DistError::Aborted { completed });
                    }
                }
            }
            Ok(Event::Disconnected { id }) => {
                if daemon.clients.remove(&id).is_none() {
                    daemon.sched.lose_worker(id);
                    daemon.sched.dispatch_idle();
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err(DistError::Io("event channel closed".into()));
            }
        }

        // Housekeeping on every iteration (cheap at these event rates).
        draining.store(daemon.draining, Ordering::SeqCst);
        daemon.expire_leases();
        let (killed, struck) = daemon.sched.expire();
        if struck {
            last_progress = Instant::now();
        }
        for slot in children.iter_mut() {
            if killed.contains(&slot.name) && !slot.exited {
                // Reaped (and respawned) by try_wait below.
                let _ = slot.child.kill();
            }
        }
        daemon.check_plan_complete();

        // Respawn crashed spawned workers unless the loop is about to
        // exit: while not draining, or while any plan is running or
        // queued. A failed attempt consumes one unit of the budget and is
        // retried after a bounded backoff — never written off wholesale,
        // so a transiently missing binary or a brief fork failure costs
        // attempts, not the whole budget.
        let idle = daemon.idle();
        for slot in children.iter_mut().filter(|slot| !slot.exited) {
            if let Ok(Some(status)) = slot.child.try_wait() {
                slot.exited = true;
                if !status.success() && !idle {
                    respawn_queue += 1;
                }
            }
        }
        while respawn_queue > 0
            && !idle
            && respawns_used < config.max_respawns
            && Instant::now() >= next_respawn_at
        {
            respawns_used += 1;
            match coord::spawn_worker(
                binary.as_ref().expect("respawn implies spawned workers"),
                addr,
                format!("spawned-{spawned_total}"),
                &config.respawn_extra_args,
            ) {
                Ok(slot) => {
                    spawned_total += 1;
                    respawn_queue -= 1;
                    respawn_backoff = RESPAWN_BACKOFF_FLOOR;
                    daemon.sched.stats.workers_respawned += 1;
                    children.push(slot);
                }
                Err(e) => {
                    daemon.sched.stats.respawn_failures += 1;
                    next_respawn_at = Instant::now() + respawn_backoff;
                    eprintln!(
                        "fleet coordinator: respawn attempt {respawns_used} failed \
                         (retrying in {respawn_backoff:?}): {e}"
                    );
                    respawn_backoff = (respawn_backoff * 2).min(RESPAWN_BACKOFF_CEIL);
                    break;
                }
            }
        }
        daemon.start_next_plan();
        daemon.sched.dispatch_idle();
        daemon.sched.set_gauges(daemon.queued_count());

        if config.listen.is_none()
            && !idle
            && !daemon.sched.has_workers()
            && children.iter().all(|slot| slot.exited)
            && (respawn_queue == 0 || respawns_used >= config.max_respawns)
        {
            return Err(DistError::NoWorkers(
                "every spawned worker exited and the respawn budget is spent".into(),
            ));
        }
        if last_progress.elapsed() > config.stall_timeout {
            let (completed, total) = daemon.sched.progress();
            return Err(DistError::Stalled { completed, total });
        }
    }
}

/// Per-connection thread: discriminate worker vs client on the first
/// frame, handshake accordingly, then pump frames into the event channel
/// until the socket dies.
fn serve_session(
    mut stream: TcpStream,
    id: u64,
    telemetry: bool,
    draining: &AtomicBool,
    registry: Option<Arc<Registry>>,
    events: &mpsc::Sender<Event>,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    // The first frame picks the session kind: its welcome, and the event
    // that hands the session to the loop.
    type Admit = Box<dyn FnOnce(TcpStream) -> Event>;
    let (version, welcome, admit): (u16, Frame, Admit) = match wire::read_frame(&mut stream) {
        Ok(Frame::Hello {
            version,
            spawned,
            name,
        }) => (
            version,
            Frame::Welcome {
                version: PROTOCOL_VERSION,
                telemetry,
            },
            Box::new(move |writer| Event::WorkerConnected {
                id,
                writer,
                spawned,
                name,
            }),
        ),
        Ok(Frame::ClientHello { version, client }) => (
            version,
            Frame::ClientWelcome {
                version: PROTOCOL_VERSION,
                draining: draining.load(Ordering::SeqCst),
            },
            Box::new(move |writer| Event::ClientConnected {
                id,
                writer,
                name: client,
            }),
        ),
        _ => return, // neither handshake: drop silently
    };
    if version != PROTOCOL_VERSION {
        let _ = wire::write_frame(
            &mut stream,
            &Frame::Reject {
                reason: format!("protocol version {version} != service {PROTOCOL_VERSION}"),
            },
        );
        return;
    }
    if wire::write_frame(&mut stream, &welcome).is_err() {
        return;
    }
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let _ = stream.set_read_timeout(None);
    if events.send(admit(writer)).is_err() {
        return;
    }
    loop {
        match wire::read_frame_recorded(&mut stream, registry.as_deref()) {
            Ok(frame) => {
                if events.send(Event::Frame { id, frame }).is_err() {
                    return;
                }
            }
            Err(_) => {
                let _ = events.send(Event::Disconnected { id });
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn daemon() -> Daemon {
        let sched = Scheduler::new(&DistConfig::default()).expect("scheduler");
        Daemon::new(sched, None, 8, Duration::from_secs(300))
    }

    #[test]
    fn round_robin_lanes_interleave_clients() {
        let mut daemon = daemon();
        // Client a floods three plans; client b submits one.
        daemon.enqueue("a", 1);
        daemon.enqueue("a", 2);
        daemon.enqueue("a", 3);
        daemon.enqueue("b", 10);
        let order: Vec<u64> = std::iter::from_fn(|| daemon.next_plan()).collect();
        assert_eq!(
            order,
            vec![1, 10, 2, 3],
            "b's plan must not wait behind all of a's"
        );
    }

    #[test]
    fn unqueue_frees_a_cancelled_plans_slot() {
        let mut daemon = daemon();
        daemon.enqueue("a", 1);
        daemon.enqueue("a", 2);
        assert_eq!(daemon.queued_count(), 2);
        daemon.unqueue(1);
        assert_eq!(daemon.queued_count(), 1);
        assert_eq!(daemon.next_plan(), Some(2));
    }
}
