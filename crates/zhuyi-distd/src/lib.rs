//! **zhuyi-distd** — the multi-process sharded sweep subsystem: a
//! coordinator/worker runtime that distributes a
//! [`zhuyi_fleet::SweepPlan`] across OS processes (and, over TCP, across
//! hosts) using only the standard library.
//!
//! PR 1–3 made a sweep a pure function of its plan and gave results an
//! id-ordered, location-independent merge; this crate adds the layer the
//! ROADMAP's sharding north star asks for on top of that invariant:
//!
//! - [`wire`] — the length-prefixed framed protocol: versioned handshake,
//!   shard assignment, streamed per-job results, heartbeats, revocation;
//! - [`coord`] — the one shard scheduler (tail-stealing, strikes that
//!   end in quarantine, deadlines, verify sampling) and
//!   [`coord::run_distributed`], which runs one plan as a one-plan
//!   daemon; its `--checkpoint` is a one-plan [`journal`], and a file in
//!   the old pre-journal checkpoint format is refused;
//! - [`worker`] — the worker loop (`fleet_shard --connect`, spawned by
//!   a coordinator or started on another host) executing jobs through
//!   the fleet engine's metrics-only [`zhuyi_fleet::exec`] path;
//! - [`cli`] — the value parsers the sweep binaries share (which flags
//!   each `fleet_sweep` role reads is one table in that binary);
//! - [`faultnet`] — deterministic seeded fault injection over the wire
//!   (chaos testing that replays exactly);
//! - [`quarantine`] — the poisoned-job manifest behind the scheduler's
//!   K-strikes graceful-degradation path;
//! - [`daemon`] — the crate's one service loop (worker and client
//!   sessions, spawning with respawn backoff) and the persistent sweep
//!   service ([`daemon::run_daemon`], `fleet_sweep --daemon`): a durable
//!   write-ahead [`journal`] of plan submissions and results, bounded
//!   admission with `Busy` load-shedding, per-client round-robin
//!   fairness, lease-based orphan handling, warm workers kept across
//!   plans, and graceful drain — a `kill -9` mid-sweep resumes from the
//!   journal on restart;
//! - [`client`] — the submit-side library (`fleet_sweep --submit`):
//!   request-per-connection retries with exponential backoff and
//!   deterministic jitter, riding the daemon's fingerprint dedup for
//!   exactly-once admission over a flaky link;
//! - [`journal`] — the one append-only, per-record-flushed record log,
//!   for the daemon and for checkpoints (FNV-checksummed records, torn
//!   tails tolerated, mid-file corruption refused).
//!
//! # Determinism
//!
//! A distributed sweep exports **byte-identical** CSV/JSON to the same
//! sweep run single-process: jobs are executed by the exact same
//! deterministic `exec` code, `f64`s cross the wire as IEEE-754 bit
//! patterns, and the merge is the same id-ordered
//! [`zhuyi_fleet::ResultStore`] merge — so worker count, shard shape,
//! steals, crashes, and checkpoint resumes are all invisible in the
//! output. `tests/dist_determinism.rs` pins every one of those claims.
//!
//! # Quickstart
//!
//! ```no_run
//! use zhuyi_distd::{run_distributed, DistConfig};
//! use zhuyi_fleet::SweepPlan;
//!
//! let plan = SweepPlan::builder()
//!     .jittered_variants(10)
//!     .min_safe_fpr(vec![1, 2, 4, 6, 10, 30])
//!     .build();
//! let report = run_distributed(&plan, &DistConfig {
//!     spawn_workers: 4,
//!     ..DistConfig::default()
//! }).expect("distributed sweep");
//! println!("{}", report.store.summary_table().render());
//! assert_eq!(report.stats.executed_jobs, plan.len());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod client;
pub mod coord;
pub mod daemon;
pub mod faultnet;
pub mod journal;
pub mod quarantine;
pub mod wire;
pub mod worker;

pub use client::{run_via_daemon, submit_plan, ClientConfig, ClientError, SubmitOutcome};
pub use coord::{
    default_worker_binary, run_distributed, DistConfig, DistError, DistReport, DistStats,
};
pub use daemon::{run_daemon, DaemonConfig, DaemonError, DaemonReport, DaemonStats};
pub use faultnet::{ChaosProfile, ChaosSpec, FaultTransport};
pub use journal::{plan_fingerprint, JournalError, JournalRecord, JournalWriter};
pub use quarantine::{QuarantineEntry, QuarantineManifest};
pub use wire::{Frame, JobError, JobErrorKind, PlanState, WireError, PROTOCOL_VERSION};
pub use worker::{run_worker, WorkerError, WorkerOptions, FAULT_EXIT_CODE};
