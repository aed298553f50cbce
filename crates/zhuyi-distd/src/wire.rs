//! The coordinator/worker wire protocol: length-prefixed frames over any
//! byte stream, with a versioned handshake.
//!
//! The workspace is hermetic (its `serde` is a no-op marker shim, like
//! every other persisted format in the repo — CSV, JSON, traces — the
//! encoding here is hand-rolled), so this module defines an explicit,
//! byte-deterministic binary codec for exactly the types that cross a
//! process boundary: [`SweepJob`] assignments going out and [`JobResult`]s
//! coming back.
//!
//! # Framing
//!
//! Every frame is `u32-LE payload length` + `u32-LE FNV-1a checksum` +
//! payload; the payload is a one-byte [`Frame`] tag followed by
//! tag-specific fields. Integers are little-endian, `f64`s travel as
//! their IEEE-754 bit pattern ([`f64::to_bits`]) so results round-trip
//! **bit-exactly** — the property the distributed==single-process
//! byte-determinism guarantee rests on — and strings are `u32` length +
//! UTF-8 bytes. The checksum (see [`payload_checksum`]) turns in-flight
//! payload corruption into a loud [`WireError::Malformed`] disconnect
//! instead of a silently wrong result; the coordinator then requeues the
//! dead connection's work, so the determinism guarantee survives a
//! corrupting transport.
//!
//! # Session shape
//!
//! Worker sessions (unchanged since v4 except that execution options
//! moved from `Welcome` into each `Assign` under v7, so a warm worker
//! can serve consecutive plans with different options):
//!
//! ```text
//! worker → Hello{version, spawned, name}
//! coord  → Welcome{version, telemetry}          (or Reject{reason} + close)
//! coord  → Assign{batch, options, jobs}         (repeatedly)
//! worker → Result{job_result}                   (streamed, one per job)
//! worker → JobFailed{job, error}                (contained panic / fault)
//! worker → BatchDone{batch}
//! worker → Heartbeat                            (periodic, from a side thread)
//! coord  → Revoke{job_ids}                      (work stealing: skip if unstarted)
//! coord  → Shutdown                             (sweep complete)
//! ```
//!
//! Client sessions (new under v7; see [`crate::daemon`]):
//!
//! ```text
//! client → ClientHello{version, client}
//! daemon → ClientWelcome{version, draining}     (or Reject{reason} + close)
//! client → Submit{fingerprint, options, jobs}
//! daemon → Accepted{fingerprint, deduped, position}
//!                                               (or Busy{queue_limit}: shed, retry later)
//! client → Status{fingerprint}                  (poll; every client frame renews the lease)
//! daemon → StatusReport{fingerprint, state, completed, total}
//! client → FetchResults{fingerprint}            (once StatusReport says Completed)
//! daemon → Results{fingerprint, results}
//! client → Cancel{fingerprint}                  (queued plans only)
//! client → Drain                                (finish in-flight, refuse new, exit)
//! daemon → DrainAck{queued}
//! ```
//!
//! A version mismatch at handshake is answered with [`Frame::Reject`] and
//! a closed connection; the worker exits non-zero.

use std::fmt;
use std::io::{Read, Write};
use zhuyi_fleet::store::{AnalysisOutcome, ProbeOutcome};
use zhuyi_fleet::{
    ExecOptions, JobId, JobKind, JobOutcome, JobResult, JobSpec, MsfSearch, SweepJob,
};
use zhuyi_fleet::{PredictorChoice, RateSpec};

use av_scenarios::catalog::{Mrf, ScenarioId};
use zhuyi_registry::{ScenarioDef, ScenarioSource};

/// Protocol version sent in the handshake; bumped on any frame-layout
/// change. Coordinator and worker must match exactly. v4 added per-frame
/// payload checksums and the [`Frame::JobFailed`] error taxonomy; v5
/// added a sweep-wide seed-block count to [`Frame::Welcome`];
/// v6 added the `telemetry` flag to [`Frame::Welcome`], the
/// [`Frame::Metrics`] snapshot piggyback, and heartbeat echoes
/// (coordinator → worker) for round-trip latency measurement; v7 moved
/// the execution options from [`Frame::Welcome`] into each
/// [`Frame::Assign`] (warm workers serve consecutive plans with
/// different options) and added the client-session frames
/// ([`Frame::ClientHello`] through [`Frame::DrainAck`]); v8 shrank the
/// encoded execution options to two bools, dropping the lane-chunk and
/// seed-block counts; v9 shrank them to one bool, `per_rate`, when the
/// trace-recording option was deleted.
pub const PROTOCOL_VERSION: u16 = 9;

/// Upper bound on a single frame's payload (defends both sides against a
/// corrupt or hostile length prefix). Kept traces are the largest payload
/// in practice and sit well under this.
pub const MAX_FRAME_LEN: u32 = 256 * 1024 * 1024;

/// Errors produced while encoding, decoding, or transporting frames.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed (includes EOF mid-frame).
    Io(std::io::Error),
    /// The bytes did not decode as the claimed frame.
    Malformed(String),
    /// The length prefix exceeded [`MAX_FRAME_LEN`].
    FrameTooLarge(u32),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::FrameTooLarge(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN} cap")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// FNV-1a (32-bit) over a frame payload — the per-frame integrity check
/// written between the length prefix and the payload. Also used for
/// journal records, so both persisted and in-flight bytes share one
/// corruption detector.
pub fn payload_checksum(payload: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &byte in payload {
        hash ^= u32::from(byte);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// Why a job failed on a worker — the structured taxonomy carried by
/// [`Frame::JobFailed`] and recorded per strike in the coordinator's
/// quarantine manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobErrorKind {
    /// The engine panicked while executing the job; the worker contained
    /// the panic and kept serving its queue.
    Panic,
    /// The coordinator's per-job deadline expired without a result (the
    /// job wedged, or its worker stopped making progress).
    Deadline,
}

impl JobErrorKind {
    /// Stable lower-case name used in exports and logs.
    pub fn name(self) -> &'static str {
        match self {
            JobErrorKind::Panic => "panic",
            JobErrorKind::Deadline => "deadline",
        }
    }
}

/// One recorded job failure: what kind, plus a human-readable detail
/// (panic message, deadline duration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// The failure class.
    pub kind: JobErrorKind,
    /// Free-text detail for logs and the quarantine manifest.
    pub detail: String,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.name(), self.detail)
    }
}

/// One protocol message. See the module docs for the session shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Worker → coordinator: open a session.
    Hello {
        /// The worker's [`PROTOCOL_VERSION`].
        version: u16,
        /// Whether the coordinator spawned this worker itself (spawned
        /// workers are respawned on crash; externally joined ones are not).
        spawned: bool,
        /// Human-readable worker name for logs and stats.
        name: String,
    },
    /// Coordinator → worker: session accepted. Execution options travel
    /// per-[`Frame::Assign`] since v7, so a warm worker session can span
    /// plans with different options.
    Welcome {
        /// The coordinator's [`PROTOCOL_VERSION`] (echoed back).
        version: u16,
        /// Whether the sweep runs with telemetry: the worker installs a
        /// local registry and piggybacks cumulative [`Frame::Metrics`]
        /// snapshots onto its result stream. Strictly out of band —
        /// sweep exports are byte-identical either way.
        telemetry: bool,
    },
    /// Coordinator → worker: session refused (version mismatch, shutting
    /// down); the connection closes right after.
    Reject {
        /// Why the session was refused.
        reason: String,
    },
    /// Coordinator → worker: execute these jobs in order.
    Assign {
        /// Batch id echoed back in [`Frame::BatchDone`].
        batch: u32,
        /// The plan-wide execution options for this shard.
        options: ExecOptions,
        /// The shard's jobs, ascending by id.
        jobs: Vec<SweepJob>,
    },
    /// Coordinator → worker: these job ids were reassigned elsewhere
    /// (work stealing); skip any of them not yet started.
    Revoke {
        /// Raw [`JobId`] values to skip.
        jobs: Vec<u64>,
    },
    /// Worker → coordinator: one finished job (streamed as soon as it
    /// completes, so a crash loses at most the job in progress).
    Result {
        /// The finished job and its outcome.
        result: Box<JobResult>,
    },
    /// Worker → coordinator: a job failed in a contained way (the worker
    /// survives and keeps executing the rest of its batch). The
    /// coordinator counts this as one strike against the job.
    JobFailed {
        /// Raw [`JobId`] of the failed job.
        job: u64,
        /// What went wrong.
        error: JobError,
    },
    /// Worker → coordinator: every non-revoked job of the batch was
    /// executed and its result already streamed.
    BatchDone {
        /// The batch id from [`Frame::Assign`].
        batch: u32,
    },
    /// Worker → coordinator: liveness signal (sent from a side thread so
    /// long-running jobs do not read as crashes). Under protocol v6 the
    /// coordinator echoes every heartbeat straight back, and the worker
    /// times the round trip.
    Heartbeat,
    /// Coordinator → worker: the sweep is complete; exit cleanly.
    Shutdown,
    /// Worker → coordinator: cumulative telemetry snapshot, sent
    /// immediately before each [`Frame::Result`] when the sweep runs
    /// with telemetry. Cumulative (not a delta): the coordinator keeps
    /// only the latest per worker, so stream ordering guarantees the
    /// fold is complete once the last result has landed.
    Metrics {
        /// The worker's registry snapshot, whole-session cumulative.
        /// Boxed: a snapshot is by far the largest payload and would
        /// otherwise bloat every `Frame` on the stack.
        snapshot: Box<zhuyi_telemetry::Snapshot>,
    },
    /// Client → daemon: open a client session (distinguished from a
    /// worker session by this first frame — workers open with
    /// [`Frame::Hello`]).
    ClientHello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u16,
        /// Human-readable client name for logs and lease bookkeeping.
        client: String,
    },
    /// Daemon → client: session accepted.
    ClientWelcome {
        /// The daemon's [`PROTOCOL_VERSION`] (echoed back).
        version: u16,
        /// Whether the daemon is draining: submits will be answered with
        /// [`Frame::Busy`], but status/fetch still work.
        draining: bool,
    },
    /// Client → daemon: submit a plan for execution. Retrying the exact
    /// same submit is safe: the daemon dedups on `fingerprint` and
    /// answers [`Frame::Accepted`] with `deduped: true`.
    Submit {
        /// The client-side plan fingerprint
        /// ([`crate::journal::plan_fingerprint`] over `jobs`; no option
        /// is part of it) — the plan's identity for dedup, status,
        /// cancel and fetch.
        fingerprint: u64,
        /// Plan-wide execution options.
        options: ExecOptions,
        /// The plan's jobs, ascending by id from 0.
        jobs: Vec<SweepJob>,
    },
    /// Daemon → client: the submit was admitted (or matched an already
    /// known plan).
    Accepted {
        /// Echo of the submitted fingerprint.
        fingerprint: u64,
        /// `true` when the fingerprint was already known (a retried
        /// submit); the plan was **not** enqueued a second time.
        deduped: bool,
        /// Plans ahead of this one (0 = running or done).
        position: u32,
    },
    /// Daemon → client: the admission queue is full (or the daemon is
    /// draining); the plan was **not** enqueued. Back off and retry.
    Busy {
        /// The admission-queue capacity that was exhausted.
        queue_limit: u32,
    },
    /// Client → daemon: poll a submitted plan. Any client frame naming a
    /// fingerprint renews that plan's lease.
    Status {
        /// The plan fingerprint to query.
        fingerprint: u64,
    },
    /// Daemon → client: answer to [`Frame::Status`].
    StatusReport {
        /// Echo of the queried fingerprint.
        fingerprint: u64,
        /// Where the plan stands.
        state: PlanState,
        /// Results recorded so far.
        completed: u64,
        /// Total jobs in the plan (0 when the plan is unknown).
        total: u64,
    },
    /// Client → daemon: cancel a **queued** plan (a running plan
    /// finishes regardless — determinism makes the result worth keeping).
    Cancel {
        /// The plan fingerprint to cancel.
        fingerprint: u64,
    },
    /// Client → daemon: stream back a completed plan's results.
    FetchResults {
        /// The plan fingerprint to fetch.
        fingerprint: u64,
    },
    /// Daemon → client: a completed plan's results, id-deduplicated and
    /// ascending by job id — exactly the single-process merge order.
    Results {
        /// Echo of the fetched fingerprint.
        fingerprint: u64,
        /// Every job result of the plan, ascending by job id.
        results: Vec<JobResult>,
    },
    /// Client → daemon: finish in-flight work, refuse new submits, flush
    /// the journal and exit.
    Drain,
    /// Daemon → client: drain accepted.
    DrainAck {
        /// Plans still queued or running that the drain will finish.
        queued: u32,
    },
}

/// Where a submitted plan stands in the daemon's lifecycle, as reported
/// by [`Frame::StatusReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanState {
    /// The fingerprint is not (or no longer) known to the daemon.
    Unknown,
    /// Admitted, waiting in the queue.
    Queued,
    /// Currently executing.
    Running,
    /// Every job finished; results are ready to fetch.
    Completed,
    /// Cancelled while queued (or its lease expired before it ran).
    Cancelled,
}

impl PlanState {
    /// Stable lower-case name used in logs and exports.
    pub fn name(self) -> &'static str {
        match self {
            PlanState::Unknown => "unknown",
            PlanState::Queued => "queued",
            PlanState::Running => "running",
            PlanState::Completed => "completed",
            PlanState::Cancelled => "cancelled",
        }
    }
}

/// The telemetry catalog slot for a frame, for the frames/bytes-by-kind
/// wire accounting.
pub fn frame_kind(frame: &Frame) -> zhuyi_telemetry::WireKind {
    use zhuyi_telemetry::WireKind;
    match frame {
        Frame::Hello { .. } => WireKind::Hello,
        Frame::Welcome { .. } => WireKind::Welcome,
        Frame::Reject { .. } => WireKind::Reject,
        Frame::Assign { .. } => WireKind::Assign,
        Frame::Revoke { .. } => WireKind::Revoke,
        Frame::Result { .. } => WireKind::Result,
        Frame::JobFailed { .. } => WireKind::JobFailed,
        Frame::BatchDone { .. } => WireKind::BatchDone,
        Frame::Heartbeat => WireKind::Heartbeat,
        Frame::Shutdown => WireKind::Shutdown,
        Frame::Metrics { .. } => WireKind::Metrics,
        Frame::ClientHello { .. } => WireKind::ClientHello,
        Frame::ClientWelcome { .. } => WireKind::ClientWelcome,
        Frame::Submit { .. } => WireKind::Submit,
        Frame::Accepted { .. } => WireKind::Accepted,
        Frame::Busy { .. } => WireKind::Busy,
        Frame::Status { .. } => WireKind::Status,
        Frame::StatusReport { .. } => WireKind::StatusReport,
        Frame::Cancel { .. } => WireKind::Cancel,
        Frame::FetchResults { .. } => WireKind::FetchResults,
        Frame::Results { .. } => WireKind::Results,
        Frame::Drain => WireKind::Drain,
        Frame::DrainAck { .. } => WireKind::DrainAck,
    }
}

// --- primitive encoders -------------------------------------------------

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

pub(crate) fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            put_f64(out, x);
        }
    }
}

// --- primitive decoder --------------------------------------------------

/// Cursor over one frame's payload bytes.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| WireError::Malformed("payload truncated".into()))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn boolean(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Malformed(format!("bool byte {other}"))),
        }
    }

    pub(crate) fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("non-UTF-8 string".into()))
    }

    pub(crate) fn opt_f64(&mut self) -> Result<Option<f64>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            other => Err(WireError::Malformed(format!("option tag {other}"))),
        }
    }

    pub(crate) fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "{} trailing bytes",
                self.buf.len() - self.pos
            )))
        }
    }
}

// --- domain codecs ------------------------------------------------------

pub(crate) fn put_exec_options(out: &mut Vec<u8>, options: ExecOptions) {
    put_bool(out, options.per_rate);
}

pub(crate) fn exec_options(r: &mut Reader<'_>) -> Result<ExecOptions, WireError> {
    Ok(ExecOptions {
        per_rate: r.boolean()?,
    })
}

fn put_plan_state(out: &mut Vec<u8>, state: PlanState) {
    out.push(match state {
        PlanState::Unknown => 0,
        PlanState::Queued => 1,
        PlanState::Running => 2,
        PlanState::Completed => 3,
        PlanState::Cancelled => 4,
    });
}

fn plan_state(r: &mut Reader<'_>) -> Result<PlanState, WireError> {
    Ok(match r.u8()? {
        0 => PlanState::Unknown,
        1 => PlanState::Queued,
        2 => PlanState::Running,
        3 => PlanState::Completed,
        4 => PlanState::Cancelled,
        other => return Err(WireError::Malformed(format!("plan-state tag {other}"))),
    })
}

fn put_rate_spec(out: &mut Vec<u8>, spec: &RateSpec) {
    match spec {
        RateSpec::Uniform(r) => {
            out.push(0);
            put_f64(out, *r);
        }
        RateSpec::PerCamera(rs) => {
            out.push(1);
            put_u32(out, rs.len() as u32);
            for &r in rs {
                put_f64(out, r);
            }
        }
    }
}

fn rate_spec(r: &mut Reader<'_>) -> Result<RateSpec, WireError> {
    match r.u8()? {
        0 => Ok(RateSpec::Uniform(r.f64()?)),
        1 => {
            let n = r.u32()? as usize;
            // Capacity capped: `n` is untrusted bytes, and the per-element
            // reads below bound the real length anyway.
            let mut rates = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                rates.push(r.f64()?);
            }
            Ok(RateSpec::PerCamera(rates))
        }
        other => Err(WireError::Malformed(format!("rate-spec tag {other}"))),
    }
}

fn put_scenario(out: &mut Vec<u8>, scenario: &ScenarioSource) {
    match scenario {
        ScenarioSource::Catalog(id) => {
            out.push(0);
            out.push(id.index() as u8);
        }
        ScenarioSource::Def(def) => {
            // Registry-defined scenarios travel as their canonical text:
            // `parse(to_text(d)) == d`, so the worker rebuilds the exact
            // same definition and the distributed==single-process
            // byte-determinism guarantee extends to generated corpora.
            out.push(1);
            put_str(out, &def.to_text());
        }
    }
}

fn scenario(r: &mut Reader<'_>) -> Result<ScenarioSource, WireError> {
    match r.u8()? {
        0 => {
            let index = r.u8()? as usize;
            let id = ScenarioId::from_index(index)
                .ok_or_else(|| WireError::Malformed(format!("scenario index {index}")))?;
            Ok(ScenarioSource::Catalog(id))
        }
        1 => {
            let text = r.string()?;
            let def = ScenarioDef::parse(&text)
                .map_err(|e| WireError::Malformed(format!("scenario definition: {e}")))?;
            Ok(ScenarioSource::from(def))
        }
        other => Err(WireError::Malformed(format!("scenario tag {other}"))),
    }
}

pub(crate) fn put_job(out: &mut Vec<u8>, job: &SweepJob) {
    put_u64(out, job.id.0);
    put_scenario(out, &job.spec.scenario);
    put_u64(out, job.spec.seed);
    match &job.spec.kind {
        JobKind::Probe { plan, keep_trace } => {
            out.push(0);
            put_rate_spec(out, plan);
            put_bool(out, *keep_trace);
        }
        JobKind::MinSafeFpr { candidates } => {
            out.push(1);
            put_u32(out, candidates.len() as u32);
            for &c in candidates {
                put_u32(out, c);
            }
        }
        JobKind::Analyze {
            plan,
            predictor,
            stride,
        } => {
            out.push(2);
            put_rate_spec(out, plan);
            out.push(match predictor {
                PredictorChoice::Oracle => 0,
                PredictorChoice::ConstantVelocity => 1,
                PredictorChoice::ConstantAcceleration => 2,
            });
            put_u64(out, *stride as u64);
        }
    }
}

pub(crate) fn job(r: &mut Reader<'_>) -> Result<SweepJob, WireError> {
    let id = JobId(r.u64()?);
    let scenario = scenario(r)?;
    let seed = r.u64()?;
    let kind = match r.u8()? {
        0 => JobKind::Probe {
            plan: rate_spec(r)?,
            keep_trace: r.boolean()?,
        },
        1 => {
            let n = r.u32()? as usize;
            // Capacity capped against untrusted counts (see rate_spec).
            let mut candidates = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                candidates.push(r.u32()?);
            }
            JobKind::MinSafeFpr { candidates }
        }
        2 => JobKind::Analyze {
            plan: rate_spec(r)?,
            predictor: match r.u8()? {
                0 => PredictorChoice::Oracle,
                1 => PredictorChoice::ConstantVelocity,
                2 => PredictorChoice::ConstantAcceleration,
                other => return Err(WireError::Malformed(format!("predictor tag {other}"))),
            },
            stride: r.u64()? as usize,
        },
        other => return Err(WireError::Malformed(format!("job-kind tag {other}"))),
    };
    Ok(SweepJob {
        id,
        spec: JobSpec {
            scenario,
            seed,
            kind,
        },
    })
}

/// Encodes one [`JobResult`] (also the body of a journal `Result`
/// record — see [`crate::journal`]).
pub fn put_job_result(out: &mut Vec<u8>, result: &JobResult) {
    put_job(out, &result.job);
    match &result.outcome {
        JobOutcome::Probe(p) => {
            out.push(0);
            put_bool(out, p.collided);
            put_opt_f64(out, p.collision_time.map(|t| t.value()));
            match p.collision_actor {
                None => out.push(0),
                Some(a) => {
                    out.push(1);
                    put_u32(out, a.0);
                }
            }
            put_opt_f64(out, p.min_clearance.map(|c| c.value()));
            put_f64(out, p.duration.value());
            match &p.trace_csv {
                None => out.push(0),
                Some(csv) => {
                    out.push(1);
                    put_str(out, csv);
                }
            }
        }
        JobOutcome::MinSafeFpr(m) => {
            out.push(1);
            match m.mrf {
                Mrf::BelowMinimumTested => out.push(0),
                Mrf::Fpr(rate) => {
                    out.push(1);
                    put_u32(out, rate);
                }
                Mrf::AboveMaximumTested => out.push(2),
            }
            put_u32(out, m.sims_run);
            put_u32(out, m.grid_size);
            put_u32(out, m.grid_min);
            put_u32(out, m.grid_max);
        }
        JobOutcome::Analysis(a) => {
            out.push(2);
            put_bool(out, a.collided);
            put_u64(out, a.steps as u64);
            put_opt_f64(out, a.max_camera_fpr);
            put_u64(out, a.constraint_evaluations);
        }
    }
}

pub(crate) fn job_result(r: &mut Reader<'_>) -> Result<JobResult, WireError> {
    use av_core::state::ActorId;
    use av_core::units::{Meters, Seconds};
    let job = job(r)?;
    let outcome = match r.u8()? {
        0 => {
            let collided = r.boolean()?;
            let collision_time = r.opt_f64()?.map(Seconds);
            let collision_actor = match r.u8()? {
                0 => None,
                1 => Some(ActorId(r.u32()?)),
                other => return Err(WireError::Malformed(format!("actor tag {other}"))),
            };
            let min_clearance = r.opt_f64()?.map(Meters);
            let duration = Seconds(r.f64()?);
            let trace_csv = match r.u8()? {
                0 => None,
                1 => Some(r.string()?),
                other => return Err(WireError::Malformed(format!("trace tag {other}"))),
            };
            JobOutcome::Probe(ProbeOutcome {
                collided,
                collision_time,
                collision_actor,
                min_clearance,
                duration,
                trace_csv,
            })
        }
        1 => {
            let mrf = match r.u8()? {
                0 => Mrf::BelowMinimumTested,
                1 => Mrf::Fpr(r.u32()?),
                2 => Mrf::AboveMaximumTested,
                other => return Err(WireError::Malformed(format!("mrf tag {other}"))),
            };
            JobOutcome::MinSafeFpr(MsfSearch {
                mrf,
                sims_run: r.u32()?,
                grid_size: r.u32()?,
                grid_min: r.u32()?,
                grid_max: r.u32()?,
            })
        }
        2 => JobOutcome::Analysis(AnalysisOutcome {
            collided: r.boolean()?,
            steps: r.u64()? as usize,
            max_camera_fpr: r.opt_f64()?,
            constraint_evaluations: r.u64()?,
        }),
        other => return Err(WireError::Malformed(format!("outcome tag {other}"))),
    };
    Ok(JobResult { job, outcome })
}

/// Decodes a [`JobResult`] from exactly `bytes` (the inverse of
/// [`put_job_result`]).
///
/// # Errors
///
/// [`WireError::Malformed`] on truncated, trailing, or invalid bytes.
pub fn decode_job_result(bytes: &[u8]) -> Result<JobResult, WireError> {
    let mut r = Reader::new(bytes);
    let result = job_result(&mut r)?;
    r.finish()?;
    Ok(result)
}

// --- frame codec --------------------------------------------------------

/// Encodes a frame payload (tag + fields, *without* the length prefix).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match frame {
        Frame::Hello {
            version,
            spawned,
            name,
        } => {
            out.push(0);
            put_u16(&mut out, *version);
            put_bool(&mut out, *spawned);
            put_str(&mut out, name);
        }
        Frame::Welcome { version, telemetry } => {
            out.push(1);
            put_u16(&mut out, *version);
            put_bool(&mut out, *telemetry);
        }
        Frame::Reject { reason } => {
            out.push(2);
            put_str(&mut out, reason);
        }
        Frame::Assign {
            batch,
            options,
            jobs,
        } => {
            out.push(3);
            put_u32(&mut out, *batch);
            put_exec_options(&mut out, *options);
            put_u32(&mut out, jobs.len() as u32);
            for j in jobs {
                put_job(&mut out, j);
            }
        }
        Frame::Revoke { jobs } => {
            out.push(4);
            put_u32(&mut out, jobs.len() as u32);
            for &id in jobs {
                put_u64(&mut out, id);
            }
        }
        Frame::Result { result } => {
            out.push(5);
            put_job_result(&mut out, result);
        }
        Frame::BatchDone { batch } => {
            out.push(6);
            put_u32(&mut out, *batch);
        }
        Frame::Heartbeat => out.push(7),
        Frame::Shutdown => out.push(8),
        Frame::JobFailed { job, error } => {
            out.push(9);
            put_u64(&mut out, *job);
            out.push(match error.kind {
                JobErrorKind::Panic => 0,
                JobErrorKind::Deadline => 1,
            });
            put_str(&mut out, &error.detail);
        }
        Frame::Metrics { snapshot } => {
            out.push(10);
            // The telemetry crate owns its own versioned codec; the frame
            // carries it as opaque length-prefixed bytes.
            let bytes = snapshot.encode();
            put_u32(&mut out, bytes.len() as u32);
            out.extend_from_slice(&bytes);
        }
        Frame::ClientHello { version, client } => {
            out.push(11);
            put_u16(&mut out, *version);
            put_str(&mut out, client);
        }
        Frame::ClientWelcome { version, draining } => {
            out.push(12);
            put_u16(&mut out, *version);
            put_bool(&mut out, *draining);
        }
        Frame::Submit {
            fingerprint,
            options,
            jobs,
        } => {
            out.push(13);
            put_u64(&mut out, *fingerprint);
            put_exec_options(&mut out, *options);
            put_u32(&mut out, jobs.len() as u32);
            for j in jobs {
                put_job(&mut out, j);
            }
        }
        Frame::Accepted {
            fingerprint,
            deduped,
            position,
        } => {
            out.push(14);
            put_u64(&mut out, *fingerprint);
            put_bool(&mut out, *deduped);
            put_u32(&mut out, *position);
        }
        Frame::Busy { queue_limit } => {
            out.push(15);
            put_u32(&mut out, *queue_limit);
        }
        Frame::Status { fingerprint } => {
            out.push(16);
            put_u64(&mut out, *fingerprint);
        }
        Frame::StatusReport {
            fingerprint,
            state,
            completed,
            total,
        } => {
            out.push(17);
            put_u64(&mut out, *fingerprint);
            put_plan_state(&mut out, *state);
            put_u64(&mut out, *completed);
            put_u64(&mut out, *total);
        }
        Frame::Cancel { fingerprint } => {
            out.push(18);
            put_u64(&mut out, *fingerprint);
        }
        Frame::FetchResults { fingerprint } => {
            out.push(19);
            put_u64(&mut out, *fingerprint);
        }
        Frame::Results {
            fingerprint,
            results,
        } => {
            out.push(20);
            put_u64(&mut out, *fingerprint);
            put_u32(&mut out, results.len() as u32);
            for result in results {
                put_job_result(&mut out, result);
            }
        }
        Frame::Drain => out.push(21),
        Frame::DrainAck { queued } => {
            out.push(22);
            put_u32(&mut out, *queued);
        }
    }
    out
}

/// Decodes a frame from exactly `payload` (the inverse of
/// [`encode_frame`]).
///
/// # Errors
///
/// [`WireError::Malformed`] on truncated, trailing, or invalid bytes.
pub fn decode_frame(payload: &[u8]) -> Result<Frame, WireError> {
    let mut r = Reader::new(payload);
    let frame = match r.u8()? {
        0 => Frame::Hello {
            version: r.u16()?,
            spawned: r.boolean()?,
            name: r.string()?,
        },
        1 => Frame::Welcome {
            version: r.u16()?,
            telemetry: r.boolean()?,
        },
        2 => Frame::Reject {
            reason: r.string()?,
        },
        3 => {
            let batch = r.u32()?;
            let options = exec_options(&mut r)?;
            let n = r.u32()? as usize;
            let mut jobs = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                jobs.push(job(&mut r)?);
            }
            Frame::Assign {
                batch,
                options,
                jobs,
            }
        }
        4 => {
            let n = r.u32()? as usize;
            let mut jobs = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                jobs.push(r.u64()?);
            }
            Frame::Revoke { jobs }
        }
        5 => Frame::Result {
            result: Box::new(job_result(&mut r)?),
        },
        6 => Frame::BatchDone { batch: r.u32()? },
        7 => Frame::Heartbeat,
        8 => Frame::Shutdown,
        9 => Frame::JobFailed {
            job: r.u64()?,
            error: JobError {
                kind: match r.u8()? {
                    0 => JobErrorKind::Panic,
                    1 => JobErrorKind::Deadline,
                    other => {
                        return Err(WireError::Malformed(format!("job-error tag {other}")));
                    }
                },
                detail: r.string()?,
            },
        },
        10 => {
            let len = r.u32()? as usize;
            let bytes = r.take(len)?;
            Frame::Metrics {
                snapshot: Box::new(
                    zhuyi_telemetry::Snapshot::decode(bytes)
                        .map_err(|e| WireError::Malformed(format!("metrics snapshot: {e}")))?,
                ),
            }
        }
        11 => Frame::ClientHello {
            version: r.u16()?,
            client: r.string()?,
        },
        12 => Frame::ClientWelcome {
            version: r.u16()?,
            draining: r.boolean()?,
        },
        13 => {
            let fingerprint = r.u64()?;
            let options = exec_options(&mut r)?;
            let n = r.u32()? as usize;
            let mut jobs = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                jobs.push(job(&mut r)?);
            }
            Frame::Submit {
                fingerprint,
                options,
                jobs,
            }
        }
        14 => Frame::Accepted {
            fingerprint: r.u64()?,
            deduped: r.boolean()?,
            position: r.u32()?,
        },
        15 => Frame::Busy {
            queue_limit: r.u32()?,
        },
        16 => Frame::Status {
            fingerprint: r.u64()?,
        },
        17 => Frame::StatusReport {
            fingerprint: r.u64()?,
            state: plan_state(&mut r)?,
            completed: r.u64()?,
            total: r.u64()?,
        },
        18 => Frame::Cancel {
            fingerprint: r.u64()?,
        },
        19 => Frame::FetchResults {
            fingerprint: r.u64()?,
        },
        20 => {
            let fingerprint = r.u64()?;
            let n = r.u32()? as usize;
            let mut results = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                results.push(job_result(&mut r)?);
            }
            Frame::Results {
                fingerprint,
                results,
            }
        }
        21 => Frame::Drain,
        22 => Frame::DrainAck { queued: r.u32()? },
        other => return Err(WireError::Malformed(format!("frame tag {other}"))),
    };
    r.finish()?;
    Ok(frame)
}

/// Writes one length-prefixed frame and flushes.
///
/// # Errors
///
/// [`WireError::Io`] on stream failure, [`WireError::FrameTooLarge`] for
/// a payload over [`MAX_FRAME_LEN`] (checked before any u32 narrowing,
/// so an absurd payload can never wrap into a small length prefix).
pub fn write_frame(stream: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    write_payload(stream, &encode_frame(frame))
}

/// Encodes and writes an [`Frame::Assign`] directly from a borrowed job
/// slice — what the coordinator's hot assign/steal path uses, so shards
/// are serialized without first cloning every job into an owned `Frame`.
/// Byte-identical to `write_frame(&Frame::Assign { .. })`.
///
/// # Errors
///
/// See [`write_frame`].
pub fn write_assign(
    stream: &mut impl Write,
    batch: u32,
    options: ExecOptions,
    jobs: &[SweepJob],
) -> Result<(), WireError> {
    let mut out = Vec::with_capacity(16 + jobs.len() * 48);
    out.push(3);
    put_u32(&mut out, batch);
    put_exec_options(&mut out, options);
    put_u32(&mut out, jobs.len() as u32);
    for job in jobs {
        put_job(&mut out, job);
    }
    write_payload(stream, &out)
}

pub(crate) fn write_payload(stream: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(WireError::FrameTooLarge(
            u32::try_from(payload.len()).unwrap_or(u32::MAX),
        ));
    }
    stream.write_all(&(payload.len() as u32).to_le_bytes())?;
    stream.write_all(&payload_checksum(payload).to_le_bytes())?;
    stream.write_all(payload)?;
    stream.flush()?;
    Ok(())
}

/// Reads one length-prefixed, checksummed frame (blocking until complete).
///
/// # Errors
///
/// [`WireError::Io`] on stream failure or EOF mid-frame;
/// [`WireError::FrameTooLarge`] / [`WireError::Malformed`] on bad bytes,
/// including any payload whose checksum does not match — a corrupted
/// frame never decodes.
pub fn read_frame(stream: &mut impl Read) -> Result<Frame, WireError> {
    read_frame_recorded(stream, None)
}

/// [`read_frame`] with inbound telemetry: a decoded frame is accounted
/// by kind and payload bytes; checksum mismatches bump the
/// checksum-failure counter and every other failure the read-error
/// counter. With `telemetry: None` this is exactly [`read_frame`].
///
/// # Errors
///
/// See [`read_frame`].
pub fn read_frame_recorded(
    stream: &mut impl Read,
    telemetry: Option<&zhuyi_telemetry::Registry>,
) -> Result<Frame, WireError> {
    use zhuyi_telemetry::Counter;
    let read = |stream: &mut dyn Read| -> Result<(Frame, usize), (WireError, bool)> {
        let mut header = [0u8; 8];
        stream
            .read_exact(&mut header)
            .map_err(|e| (e.into(), false))?;
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4"));
        let expected = u32::from_le_bytes(header[4..8].try_into().expect("4"));
        if len > MAX_FRAME_LEN {
            return Err((WireError::FrameTooLarge(len), false));
        }
        let mut payload = vec![0u8; len as usize];
        stream
            .read_exact(&mut payload)
            .map_err(|e| (e.into(), false))?;
        let actual = payload_checksum(&payload);
        if actual != expected {
            return Err((
                WireError::Malformed(format!(
                    "frame checksum mismatch: header says {expected:#010x}, \
                     payload hashes to {actual:#010x}"
                )),
                true,
            ));
        }
        let frame = decode_frame(&payload).map_err(|e| (e, false))?;
        Ok((frame, payload.len()))
    };
    match read(stream) {
        Ok((frame, len)) => {
            if let Some(reg) = telemetry {
                reg.wire_recv(frame_kind(&frame), len as u64);
            }
            Ok(frame)
        }
        Err((e, checksum)) => {
            if let Some(reg) = telemetry {
                reg.inc(if checksum {
                    Counter::ChecksumFailures
                } else {
                    Counter::WireReadErrors
                });
            }
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_core::state::ActorId;
    use av_core::units::{Meters, Seconds};

    fn sample_def() -> ScenarioDef {
        ScenarioDef::parse(
            "zhuyi-scenario v1\n\
             \n\
             name = Wire sample\n\
             tags = test\n\
             duration = 10.0\n\
             \n\
             [road]\n\
             kind = straight\n\
             length = 500.0\n\
             \n\
             [ego]\n\
             lane = 1\n\
             s = 10.0\n\
             speed = mph(30.0)\n\
             \n\
             [actor block]\n\
             id = 1\n\
             kind = obstacle\n\
             lane = 1\n\
             s = 200.0\n",
        )
        .expect("sample definition parses")
    }

    fn sample_jobs() -> Vec<SweepJob> {
        let mk = |id: u64, scenario: ScenarioSource, seed: u64, kind: JobKind| SweepJob {
            id: JobId(id),
            spec: JobSpec {
                scenario,
                seed,
                kind,
            },
        };
        vec![
            mk(
                0,
                ScenarioId::CutOut.into(),
                3,
                JobKind::Probe {
                    plan: RateSpec::Uniform(4.0),
                    keep_trace: true,
                },
            ),
            mk(
                1,
                ScenarioId::ChallengingCutInCurved.into(),
                6,
                JobKind::MinSafeFpr {
                    candidates: vec![1, 4, 30],
                },
            ),
            mk(
                17,
                ScenarioId::FrontRightActivity3.into(),
                0,
                JobKind::Analyze {
                    plan: RateSpec::PerCamera(vec![30.0, 15.0, 4.0, 4.0, 2.0]),
                    predictor: PredictorChoice::ConstantVelocity,
                    stride: 20,
                },
            ),
            mk(
                18,
                sample_def().into(),
                2,
                JobKind::MinSafeFpr {
                    candidates: vec![1, 4, 30],
                },
            ),
        ]
    }

    fn sample_results() -> Vec<JobResult> {
        let jobs = sample_jobs();
        vec![
            JobResult {
                job: jobs[0].clone(),
                outcome: JobOutcome::Probe(ProbeOutcome {
                    collided: true,
                    collision_time: Some(Seconds(3.7500000000001)),
                    collision_actor: Some(ActorId(2)),
                    min_clearance: Some(Meters(0.0)),
                    duration: Seconds(3.76),
                    trace_csv: Some("t,x,y\n0,1,2\n".to_string()),
                }),
            },
            JobResult {
                job: jobs[1].clone(),
                outcome: JobOutcome::MinSafeFpr(MsfSearch {
                    mrf: Mrf::Fpr(4),
                    sims_run: 3,
                    grid_size: 3,
                    grid_min: 1,
                    grid_max: 30,
                }),
            },
            JobResult {
                job: jobs[2].clone(),
                outcome: JobOutcome::Analysis(AnalysisOutcome {
                    collided: false,
                    steps: 42,
                    // A deliberately awkward double: must survive bit-exactly.
                    max_camera_fpr: Some(f64::from_bits(0x3FF5_5555_5555_5555)),
                    constraint_evaluations: 12345,
                }),
            },
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        let frames = vec![
            Frame::Hello {
                version: PROTOCOL_VERSION,
                spawned: true,
                name: "spawned-0".into(),
            },
            Frame::Welcome {
                version: PROTOCOL_VERSION,
                telemetry: true,
            },
            Frame::Reject {
                reason: "protocol version 9 != 1".into(),
            },
            Frame::Assign {
                batch: 7,
                options: ExecOptions { per_rate: true },
                jobs: sample_jobs(),
            },
            Frame::Revoke {
                jobs: vec![3, 9, 11],
            },
            Frame::Result {
                result: Box::new(sample_results().remove(0)),
            },
            Frame::BatchDone { batch: 7 },
            Frame::Heartbeat,
            Frame::Shutdown,
            Frame::JobFailed {
                job: 42,
                error: JobError {
                    kind: JobErrorKind::Panic,
                    detail: "index out of bounds: the len is 3".into(),
                },
            },
            Frame::JobFailed {
                job: 7,
                error: JobError {
                    kind: JobErrorKind::Deadline,
                    detail: "no result within 30s".into(),
                },
            },
            Frame::Metrics {
                snapshot: Box::new({
                    let reg = zhuyi_telemetry::Registry::new();
                    reg.inc(zhuyi_telemetry::Counter::JobsExecuted);
                    reg.record_rtt_us(850);
                    reg.snapshot()
                }),
            },
            Frame::ClientHello {
                version: PROTOCOL_VERSION,
                client: "client-1234".into(),
            },
            Frame::ClientWelcome {
                version: PROTOCOL_VERSION,
                draining: true,
            },
            Frame::Submit {
                fingerprint: 0xdead_beef_cafe_f00d,
                options: ExecOptions::default(),
                jobs: sample_jobs(),
            },
            Frame::Accepted {
                fingerprint: 0xdead_beef_cafe_f00d,
                deduped: true,
                position: 3,
            },
            Frame::Busy { queue_limit: 8 },
            Frame::Status {
                fingerprint: 0xdead_beef_cafe_f00d,
            },
            Frame::StatusReport {
                fingerprint: 0xdead_beef_cafe_f00d,
                state: PlanState::Running,
                completed: 17,
                total: 42,
            },
            Frame::Cancel {
                fingerprint: 0xdead_beef_cafe_f00d,
            },
            Frame::FetchResults {
                fingerprint: 0xdead_beef_cafe_f00d,
            },
            Frame::Results {
                fingerprint: 0xdead_beef_cafe_f00d,
                results: sample_results(),
            },
            Frame::Drain,
            Frame::DrainAck { queued: 2 },
        ];
        for frame in frames {
            let bytes = encode_frame(&frame);
            let back = decode_frame(&bytes).expect("round trip");
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn results_round_trip_bit_exactly() {
        for result in sample_results() {
            let mut bytes = Vec::new();
            put_job_result(&mut bytes, &result);
            let back = decode_job_result(&bytes).expect("round trip");
            assert_eq!(back, result);
        }
    }

    #[test]
    fn write_assign_matches_the_owned_frame_encoding() {
        let jobs = sample_jobs();
        let options = ExecOptions { per_rate: true };
        let mut borrowed: Vec<u8> = Vec::new();
        write_assign(&mut borrowed, 7, options, &jobs).expect("write into a Vec");
        let mut owned: Vec<u8> = Vec::new();
        write_frame(
            &mut owned,
            &Frame::Assign {
                batch: 7,
                options,
                jobs,
            },
        )
        .expect("write into a Vec");
        assert_eq!(
            borrowed, owned,
            "the two assign writers must agree byte-for-byte"
        );
    }

    #[test]
    fn stream_framing_round_trips_multiple_frames() {
        let mut buf: Vec<u8> = Vec::new();
        let frames = vec![
            Frame::Heartbeat,
            Frame::Assign {
                batch: 0,
                options: ExecOptions::default(),
                jobs: sample_jobs(),
            },
            Frame::Shutdown,
        ];
        for frame in &frames {
            write_frame(&mut buf, frame).expect("write into a Vec");
        }
        let mut cursor = std::io::Cursor::new(buf);
        for frame in &frames {
            assert_eq!(&read_frame(&mut cursor).expect("read back"), frame);
        }
        // EOF afterwards surfaces as an I/O error, not a panic.
        assert!(matches!(read_frame(&mut cursor), Err(WireError::Io(_))));
    }

    #[test]
    fn malformed_bytes_are_rejected_not_panicked() {
        assert!(matches!(decode_frame(&[99]), Err(WireError::Malformed(_))));
        assert!(matches!(decode_frame(&[]), Err(WireError::Malformed(_))));
        // Truncated Assign.
        let mut bytes = encode_frame(&Frame::Assign {
            batch: 0,
            options: ExecOptions::default(),
            jobs: sample_jobs(),
        });
        bytes.truncate(bytes.len() - 3);
        assert!(matches!(decode_frame(&bytes), Err(WireError::Malformed(_))));
        // Trailing garbage.
        let mut bytes = encode_frame(&Frame::Heartbeat);
        bytes.push(0);
        assert!(matches!(decode_frame(&bytes), Err(WireError::Malformed(_))));
        // Oversized length prefix.
        let mut framed = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        framed.extend_from_slice(&[0; 8]);
        let mut cursor = std::io::Cursor::new(framed);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn corrupted_payload_bytes_fail_the_frame_checksum() {
        let frame = Frame::Result {
            result: Box::new(sample_results().remove(0)),
        };
        let mut framed: Vec<u8> = Vec::new();
        write_frame(&mut framed, &frame).expect("write into a Vec");
        // Flip one bit in every payload byte position in turn (past the
        // 8-byte len+checksum header); each corruption must be caught.
        for pos in 8..framed.len() {
            let mut corrupt = framed.clone();
            corrupt[pos] ^= 0x10;
            let mut cursor = std::io::Cursor::new(corrupt);
            assert!(
                matches!(read_frame(&mut cursor), Err(WireError::Malformed(_))),
                "bit-flip at byte {pos} must be detected, not decoded"
            );
        }
        // An intact frame still reads back.
        let mut cursor = std::io::Cursor::new(framed);
        assert_eq!(read_frame(&mut cursor).expect("clean read"), frame);
    }

    #[test]
    fn checksum_is_a_pure_deterministic_function() {
        assert_eq!(payload_checksum(b""), 0x811c_9dc5);
        assert_eq!(payload_checksum(b"zhuyi"), payload_checksum(b"zhuyi"));
        assert_ne!(payload_checksum(b"zhuyi"), payload_checksum(b"zhuyj"));
    }
}
