//! The daemon client: submit a plan over TCP, ride out a flaky link and
//! daemon restarts, and come back with the exact bytes a single-process
//! sweep would have produced.
//!
//! The client is built around one deliberately boring primitive:
//! **request-per-connection**. Every operation — submit, status poll,
//! fetch, drain — opens a fresh connection, handshakes, sends one frame,
//! reads one reply, and closes. There is no session state to resume, so
//! a retry after *any* failure (connect refused while the daemon
//! restarts, a chaos-dropped frame, a read timeout) is always safe; the
//! daemon's fingerprint dedup makes even a re-sent `Submit` idempotent.
//!
//! Retries back off exponentially with deterministic jitter: the delay
//! stream is a pure function of [`ClientConfig::seed`] and the attempt
//! number, so chaos tests replay bit-for-bit. Chaos itself
//! ([`ClientConfig::chaos`]) rides the same [`crate::faultnet`] machinery
//! as the worker link, with the seed re-derived per attempt so each retry
//! sees a fresh (but reproducible) fault pattern instead of deadlocking
//! on the same drop forever.

use crate::faultnet::{self, ChaosSpec, FaultTransport};
use crate::wire::{self, Frame, PlanState, PROTOCOL_VERSION};
use std::fmt;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use zhuyi_fleet::{ExecOptions, JobResult, ResultStore, SweepPlan};

/// Configuration of one client (all operations share it).
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// Client name sent in the handshake; the daemon keys its fairness
    /// lanes on it, so two cooperating processes sharing a name share a
    /// lane.
    pub name: String,
    /// Retry budget per operation: an operation is attempted at most
    /// `retry_max + 1` times before [`ClientError::Exhausted`].
    pub retry_max: u32,
    /// First backoff delay; doubles per retry (capped at 5 s) plus
    /// deterministic jitter derived from [`ClientConfig::seed`].
    pub retry_base: Duration,
    /// Seed for backoff jitter (and nothing else — chaos carries its
    /// own seed in [`ClientConfig::chaos`]).
    pub seed: u64,
    /// How long to wait for a reply before declaring the attempt lost.
    /// This is the drop-recovery clock: a chaos-eaten `Submit` costs one
    /// read timeout, then the retry path takes over.
    pub read_timeout: Duration,
    /// Delay between status polls while waiting for a plan.
    pub poll_interval: Duration,
    /// Total patience for one plan to complete before
    /// [`ClientError::Timeout`].
    pub poll_timeout: Duration,
    /// Fault injection on the submit link (tests); the spec's seed is
    /// re-derived per attempt via [`faultnet::derive_worker_seed`].
    pub chaos: Option<ChaosSpec>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            addr: String::new(),
            name: "client".to_string(),
            retry_max: 8,
            retry_base: Duration::from_millis(100),
            seed: 0,
            read_timeout: Duration::from_secs(10),
            poll_interval: Duration::from_millis(200),
            poll_timeout: Duration::from_secs(600),
            chaos: None,
        }
    }
}

/// How a client operation can fail *after* the retry budget is spent
/// (transient faults never surface directly).
#[derive(Debug)]
pub enum ClientError {
    /// The daemon refused the handshake (version mismatch).
    Rejected(String),
    /// Every attempt failed; `last` is the final attempt's failure.
    Exhausted {
        /// Attempts made (`retry_max + 1`).
        attempts: u32,
        /// The last transport-level failure or `Busy` answer.
        last: String,
    },
    /// The plan did not complete within [`ClientConfig::poll_timeout`].
    Timeout {
        /// How long the client waited.
        waited: Duration,
    },
    /// The daemon answered something the protocol does not allow here,
    /// or the plan reached a state the caller cannot recover from
    /// (cancelled, forgotten).
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Rejected(reason) => write!(f, "daemon rejected session: {reason}"),
            ClientError::Exhausted { attempts, last } => {
                write!(
                    f,
                    "gave up after {attempts} attempt(s); last failure: {last}"
                )
            }
            ClientError::Timeout { waited } => {
                write!(f, "plan not complete after {waited:?}")
            }
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// What a submission came back with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitOutcome {
    /// The plan fingerprint (also the handle for status/fetch).
    pub fingerprint: u64,
    /// `true` when the daemon already knew the fingerprint — a retried
    /// or duplicate submission that enqueued nothing.
    pub deduped: bool,
    /// Plans queued ahead at admission time.
    pub position: u32,
}

/// A status poll's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanStatus {
    /// Where the plan stands.
    pub state: PlanState,
    /// Results journaled so far.
    pub completed: u64,
    /// Total jobs in the plan.
    pub total: u64,
}

enum AttemptError {
    /// Transient: retry with backoff.
    Retry(String),
    /// Hopeless: surface immediately.
    Fatal(ClientError),
}

/// Backoff before retry `attempt` (0-based): `base * 2^attempt` plus
/// seeded jitter in `[0, base)`, capped at 5 s. Pure function of the
/// config — chaos runs replay identically.
fn backoff_delay(config: &ClientConfig, attempt: u32) -> Duration {
    let base = config.retry_base.max(Duration::from_millis(1));
    let exp = base.saturating_mul(1u32 << attempt.min(6));
    let base_ms = u64::try_from(base.as_millis()).unwrap_or(u64::MAX).max(1);
    let jitter = faultnet::splitmix64(config.seed ^ u64::from(attempt).wrapping_add(1)) % base_ms;
    (exp + Duration::from_millis(jitter)).min(Duration::from_secs(5))
}

/// One attempt: connect, handshake, send `frame`, read the reply.
fn request(config: &ClientConfig, attempt: u32, frame: &Frame) -> Result<Frame, AttemptError> {
    let retry = |what: String| AttemptError::Retry(what);
    let mut stream = TcpStream::connect(&config.addr)
        .map_err(|e| retry(format!("connect {}: {e}", config.addr)))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(config.read_timeout))
        .map_err(|e| retry(format!("set_read_timeout: {e}")))?;
    // The handshake is always clean — chaos models the request link, and
    // a handshake that cannot complete is indistinguishable from a dead
    // daemon anyway (the retry path covers both).
    wire::write_frame(
        &mut stream,
        &Frame::ClientHello {
            version: PROTOCOL_VERSION,
            client: config.name.clone(),
        },
    )
    .map_err(|e| retry(format!("handshake send: {e}")))?;
    match wire::read_frame(&mut stream) {
        Ok(Frame::ClientWelcome { .. }) => {}
        Ok(Frame::Reject { reason }) => {
            return Err(AttemptError::Fatal(ClientError::Rejected(reason)));
        }
        Ok(other) => {
            return Err(retry(format!(
                "unexpected handshake reply: {:?}",
                wire::frame_kind(&other)
            )));
        }
        Err(e) => return Err(retry(format!("handshake read: {e}"))),
    }
    let writer = stream
        .try_clone()
        .map_err(|e| retry(format!("clone stream: {e}")))?;
    let mut transport = match &config.chaos {
        Some(spec) => FaultTransport::chaotic(
            writer,
            ChaosSpec {
                seed: faultnet::derive_worker_seed(spec.seed, u64::from(attempt)),
                profile: spec.profile,
            },
        ),
        None => FaultTransport::plain(writer),
    };
    transport
        .send(frame)
        .map_err(|e| retry(format!("request send: {e}")))?;
    match wire::read_frame(&mut stream) {
        Ok(reply) => Ok(reply),
        Err(e) => Err(retry(format!("reply read: {e}"))),
    }
}

/// Runs one operation through the retry loop. `Busy` answers count as
/// transient (the queue may drain); everything else is returned to the
/// caller to interpret.
fn rpc(config: &ClientConfig, frame: &Frame) -> Result<Frame, ClientError> {
    let mut last = String::from("no attempt made");
    for attempt in 0..=config.retry_max {
        if attempt > 0 {
            std::thread::sleep(backoff_delay(config, attempt - 1));
        }
        match request(config, attempt, frame) {
            Ok(Frame::Busy { queue_limit }) => {
                last = format!("daemon busy (queue limit {queue_limit})");
            }
            Ok(reply) => return Ok(reply),
            Err(AttemptError::Fatal(e)) => return Err(e),
            Err(AttemptError::Retry(what)) => last = what,
        }
    }
    Err(ClientError::Exhausted {
        attempts: config.retry_max + 1,
        last,
    })
}

/// Submits `plan` (idempotently — the fingerprint is derived from the
/// plan's jobs, so resubmitting the same sweep dedups server-side).
///
/// # Errors
///
/// [`ClientError::Exhausted`] once the retry budget is spent (including
/// persistent `Busy`), [`ClientError::Rejected`] on version mismatch.
pub fn submit_plan(
    config: &ClientConfig,
    plan: &SweepPlan,
    options: ExecOptions,
) -> Result<SubmitOutcome, ClientError> {
    let fingerprint = crate::journal::plan_fingerprint(plan, options);
    match rpc(
        config,
        &Frame::Submit {
            fingerprint,
            options,
            jobs: plan.jobs().to_vec(),
        },
    )? {
        Frame::Accepted {
            fingerprint,
            deduped,
            position,
        } => Ok(SubmitOutcome {
            fingerprint,
            deduped,
            position,
        }),
        other => Err(ClientError::Protocol(format!(
            "submit answered with {:?}",
            wire::frame_kind(&other)
        ))),
    }
}

/// Polls one plan's status.
///
/// # Errors
///
/// [`ClientError::Exhausted`] when the daemon stays unreachable.
pub fn plan_status(config: &ClientConfig, fingerprint: u64) -> Result<PlanStatus, ClientError> {
    match rpc(config, &Frame::Status { fingerprint })? {
        Frame::StatusReport {
            state,
            completed,
            total,
            ..
        } => Ok(PlanStatus {
            state,
            completed,
            total,
        }),
        other => Err(ClientError::Protocol(format!(
            "status answered with {:?}",
            wire::frame_kind(&other)
        ))),
    }
}

/// Blocks until `fingerprint` completes, polling on
/// [`ClientConfig::poll_interval`].
///
/// # Errors
///
/// [`ClientError::Timeout`] past [`ClientConfig::poll_timeout`];
/// [`ClientError::Protocol`] if the plan is cancelled or forgotten
/// (lease expiry) while waiting.
pub fn wait_for_plan(config: &ClientConfig, fingerprint: u64) -> Result<(), ClientError> {
    let started = Instant::now();
    loop {
        let status = plan_status(config, fingerprint)?;
        match status.state {
            PlanState::Completed => return Ok(()),
            PlanState::Cancelled => {
                return Err(ClientError::Protocol(format!(
                    "plan {fingerprint:#018x} was cancelled"
                )));
            }
            PlanState::Unknown => {
                return Err(ClientError::Protocol(format!(
                    "daemon does not know plan {fingerprint:#018x} (lease expired?)"
                )));
            }
            PlanState::Queued | PlanState::Running => {}
        }
        if started.elapsed() >= config.poll_timeout {
            return Err(ClientError::Timeout {
                waited: started.elapsed(),
            });
        }
        std::thread::sleep(config.poll_interval);
    }
}

/// Fetches a completed plan's results.
///
/// # Errors
///
/// [`ClientError::Protocol`] when the plan is not complete (the daemon
/// answers a status report instead of results — fetch never hands back
/// a partial sweep).
pub fn fetch_results(
    config: &ClientConfig,
    fingerprint: u64,
) -> Result<Vec<JobResult>, ClientError> {
    match rpc(config, &Frame::FetchResults { fingerprint })? {
        Frame::Results { results, .. } => Ok(results),
        Frame::StatusReport { state, .. } => Err(ClientError::Protocol(format!(
            "plan {fingerprint:#018x} not fetchable: {}",
            state.name()
        ))),
        other => Err(ClientError::Protocol(format!(
            "fetch answered with {:?}",
            wire::frame_kind(&other)
        ))),
    }
}

/// The whole client arc: submit, wait, fetch, merge. The returned store
/// is id-deduplicated and ascending by job id — byte-identical to what
/// [`zhuyi_fleet::run_sweep_with`] produces for the same plan and
/// options, no matter how many retries, restarts, or queue waits
/// happened in between.
///
/// # Errors
///
/// Any of [`submit_plan`], [`wait_for_plan`], [`fetch_results`].
pub fn run_via_daemon(
    config: &ClientConfig,
    plan: &SweepPlan,
    options: ExecOptions,
) -> Result<ResultStore, ClientError> {
    let outcome = submit_plan(config, plan, options)?;
    if outcome.deduped {
        eprintln!(
            "fleet client: plan {:#018x} already known to the daemon (deduped)",
            outcome.fingerprint,
        );
    } else {
        eprintln!(
            "fleet client: plan {:#018x} admitted at queue position {}",
            outcome.fingerprint, outcome.position,
        );
    }
    wait_for_plan(config, outcome.fingerprint)?;
    let results = fetch_results(config, outcome.fingerprint)?;
    Ok(ResultStore::new(results))
}

/// Asks the daemon to drain: finish every admitted plan, refuse new
/// ones, then exit. Returns the number of plans the drain will finish.
///
/// # Errors
///
/// [`ClientError::Exhausted`] when the daemon stays unreachable.
pub fn drain(config: &ClientConfig) -> Result<u32, ClientError> {
    match rpc(config, &Frame::Drain)? {
        Frame::DrainAck { queued } => Ok(queued),
        other => Err(ClientError::Protocol(format!(
            "drain answered with {:?}",
            wire::frame_kind(&other)
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let config = ClientConfig {
            retry_base: Duration::from_millis(100),
            seed: 42,
            ..ClientConfig::default()
        };
        let d0 = backoff_delay(&config, 0);
        let d3 = backoff_delay(&config, 3);
        assert!(d0 >= Duration::from_millis(100) && d0 < Duration::from_millis(200));
        assert!(d3 >= Duration::from_millis(800) && d3 < Duration::from_millis(900));
        // Deep attempts pin to the cap rather than overflowing.
        assert_eq!(backoff_delay(&config, 30), Duration::from_secs(5));
    }

    #[test]
    fn backoff_jitter_is_deterministic_in_the_seed() {
        let mk = |seed| ClientConfig {
            seed,
            ..ClientConfig::default()
        };
        assert_eq!(backoff_delay(&mk(7), 2), backoff_delay(&mk(7), 2));
        // Different seeds decorrelate (not a hard guarantee for every
        // pair, but these two differ — pinned so a jitter regression to
        // "constant zero" cannot sneak in).
        assert_ne!(backoff_delay(&mk(1), 2), backoff_delay(&mk(2), 2));
    }

    #[test]
    fn rpc_exhausts_against_a_dead_address() {
        // Nothing listens on this port (reserved doc range is not
        // routable); the retry loop must give up cleanly, not hang.
        let config = ClientConfig {
            addr: "127.0.0.1:1".to_string(),
            retry_max: 1,
            retry_base: Duration::from_millis(1),
            ..ClientConfig::default()
        };
        match rpc(&config, &Frame::Drain) {
            Err(ClientError::Exhausted { attempts, .. }) => assert_eq!(attempts, 2),
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }
}
