//! **zhuyi-telemetry** — a zero-overhead-when-off metrics, tracing, and
//! flight-recorder layer for the Zhuyi (DAC 2022) reproduction.
//!
//! The whole stack — `av-sim` hot loops, the fleet worker pool, the
//! distributed coordinator/worker pair — records into one fixed-slot
//! [`Registry`] of counters, gauges, and log-scale histograms. The
//! design contract, in priority order:
//!
//! 1. **Zero overhead when off.** No registry installed means every
//!    hook is a thread-local load and a branch; no `Instant::now`, no
//!    atomics, no allocation. The counting-allocator test in `av-sim`
//!    pins "no allocation per warm tick" with telemetry disabled *and*
//!    enabled.
//! 2. **Out of band.** Telemetry never feeds back into scheduling or
//!    results: sweep exports (CSV/JSON/traces) are byte-identical with
//!    telemetry off, on, or distributed. The cross-path equivalence
//!    harness pins this.
//! 3. **Deterministic aggregates.** Each recording thread owns a shard
//!    registry; shards are merged in id order, and every value in the
//!    artifact's `"deterministic"` section is a commutative u64 sum over
//!    the executed job set — identical at any worker count. Wall-clock
//!    data (durations, queue depths, RTTs) lives in a documented
//!    `"wall_clock"` section.
//!
//! # Installing
//!
//! Telemetry is scoped, not global: [`install`] binds a registry to the
//! *current thread* and returns a [`Guard`] that restores the previous
//! binding on drop. Thread pools and the distributed worker propagate
//! the binding themselves (each worker thread installs its own shard
//! and the owner folds the shards afterwards). Nothing is recorded on
//! threads that never install — so tests and embedded uses cannot
//! cross-contaminate.
//!
//! ```
//! use std::sync::Arc;
//! use zhuyi_telemetry as telemetry;
//!
//! let registry = Arc::new(telemetry::Registry::new());
//! {
//!     let _guard = telemetry::install(&registry);
//!     telemetry::with(|t| t.inc(telemetry::Counter::JobsExecuted));
//! }
//! // Out of scope: hooks are no-ops again.
//! telemetry::with(|t| t.inc(telemetry::Counter::JobsExecuted));
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counters[telemetry::Counter::JobsExecuted.index()], 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod catalog;
mod flight;
mod registry;
mod snapshot;

pub use catalog::{CertReason, Counter, Gauge, Phase, WireKind};
pub use flight::{FlightEvent, FlightRecorder};
pub use registry::{Histogram, Registry, HISTOGRAM_BUCKETS};
pub use snapshot::{HistogramSnapshot, Snapshot, SCHEMA};

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    static CURRENT: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

/// Restores the previous thread-local registry binding on drop (see
/// [`install`]).
#[derive(Debug)]
pub struct Guard {
    previous: Option<Arc<Registry>>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        CURRENT.with(|current| *current.borrow_mut() = self.previous.take());
    }
}

/// Binds `registry` as the current thread's telemetry sink until the
/// returned [`Guard`] drops. Nestable: the guard restores whatever was
/// bound before.
#[must_use = "telemetry is recorded only while the guard is live"]
pub fn install(registry: &Arc<Registry>) -> Guard {
    CURRENT.with(|current| Guard {
        previous: current.borrow_mut().replace(Arc::clone(registry)),
    })
}

/// The current thread's registry, if one is installed. Cloning the
/// `Arc` is a refcount bump — no allocation — so hot loops may call
/// this once per tick and hold the handle across the tick.
pub fn current() -> Option<Arc<Registry>> {
    CURRENT.with(|current| current.borrow().clone())
}

/// Whether the current thread has a registry installed.
pub fn enabled() -> bool {
    CURRENT.with(|current| current.borrow().is_some())
}

/// Runs `f` against the installed registry, or does nothing — the
/// branch-on-disabled fast path every instrumentation hook compiles to.
#[inline]
pub fn with<F: FnOnce(&Registry)>(f: F) {
    CURRENT.with(|current| {
        if let Some(registry) = &*current.borrow() {
            f(registry);
        }
    });
}

/// Counts one certificate decline (no-op when disabled). Free-standing
/// so `av-sim`'s `decline!` macro stays a single expression.
#[inline]
pub fn cert_decline(reason: CertReason) {
    with(|t| t.cert_decline(reason));
}

/// Per-tick phase profiler: resolves the registry once at tick start,
/// then each [`PhaseTimer::lap`] records the segment since the previous
/// lap (or [`PhaseTimer::skip`]) as one tick of `phase` plus its
/// duration. With no registry installed every method is a branch on
/// `None` — no clock reads, no atomics.
#[derive(Debug)]
pub struct PhaseTimer {
    inner: Option<(Arc<Registry>, Instant)>,
}

impl PhaseTimer {
    /// Starts timing at the current instant (if telemetry is on).
    #[inline]
    pub fn start() -> Self {
        Self {
            inner: current().map(|registry| (registry, Instant::now())),
        }
    }

    /// Whether a registry is attached (telemetry enabled at start).
    pub fn active(&self) -> bool {
        self.inner.is_some()
    }

    /// Re-stamps the segment start without recording — used to skip
    /// bookkeeping stretches that belong to no phase.
    #[inline]
    pub fn skip(&mut self) {
        if let Some((_, last)) = &mut self.inner {
            *last = Instant::now();
        }
    }

    /// Ends the current segment, recording it as one `phase` tick.
    #[inline]
    pub fn lap(&mut self, phase: Phase) {
        if let Some((registry, last)) = &mut self.inner {
            let now = Instant::now();
            registry.phase_lap(phase, now.duration_since(*last).as_nanos() as u64);
            *last = now;
        }
    }
}

/// Per-job wall timer: start before executing, finish with the job id.
/// No-op when telemetry is off.
#[derive(Debug)]
pub struct JobTimer {
    started: Option<Instant>,
}

impl JobTimer {
    /// Starts the clock (if telemetry is on).
    pub fn start() -> Self {
        Self {
            started: enabled().then(Instant::now),
        }
    }

    /// Records the elapsed wall time against `job`.
    pub fn finish(self, job: u64) {
        if let Some(started) = self.started {
            let micros = started.elapsed().as_micros() as u64;
            with(|t| t.record_job(job, micros));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_is_scoped_and_nestable() {
        assert!(!enabled());
        let outer = Arc::new(Registry::new());
        let inner = Arc::new(Registry::new());
        {
            let _outer_guard = install(&outer);
            assert!(enabled());
            with(|t| t.inc(Counter::Steals));
            {
                let _inner_guard = install(&inner);
                with(|t| t.inc(Counter::Steals));
                with(|t| t.inc(Counter::Steals));
            }
            // Back to the outer registry.
            with(|t| t.inc(Counter::Steals));
        }
        assert!(!enabled());
        with(|t| t.inc(Counter::Steals)); // dropped on the floor
        assert_eq!(outer.snapshot().counters[Counter::Steals.index()], 2);
        assert_eq!(inner.snapshot().counters[Counter::Steals.index()], 2);
    }

    #[test]
    fn phase_timer_is_inert_when_disabled() {
        let mut timer = PhaseTimer::start();
        assert!(!timer.active());
        timer.skip();
        timer.lap(Phase::Policy); // must not panic, must record nowhere
    }

    #[test]
    fn phase_timer_records_ticks_and_durations() {
        let registry = Arc::new(Registry::new());
        let _guard = install(&registry);
        let mut timer = PhaseTimer::start();
        assert!(timer.active());
        timer.lap(Phase::Perception);
        timer.lap(Phase::Policy);
        timer.lap(Phase::Perception);
        let snap = registry.snapshot();
        assert_eq!(snap.phase_ticks[Phase::Perception.index()], 2);
        assert_eq!(snap.phase_ticks[Phase::Policy.index()], 1);
        assert_eq!(snap.phase_ns[Phase::Perception.index()].count, 2);
    }

    #[test]
    fn job_timer_records_jobs_in_id_order() {
        let registry = Arc::new(Registry::new());
        let _guard = install(&registry);
        for job in [7, 1, 3] {
            JobTimer::start().finish(job);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.jobs.len(), 3);
        assert_eq!(snap.counters[Counter::JobsExecuted.index()], 3);
        let ids: Vec<u64> = snap.jobs.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![1, 3, 7]);
    }

    #[test]
    fn cross_thread_shard_merge_in_id_order() {
        let parent = Arc::new(Registry::new());
        let shards: Vec<Arc<Registry>> = (0..4).map(|_| Arc::new(Registry::new())).collect();
        std::thread::scope(|scope| {
            for (i, shard) in shards.iter().enumerate() {
                scope.spawn(move || {
                    let _guard = install(shard);
                    with(|t| t.add(Counter::EngineTicks, (i as u64 + 1) * 10));
                });
            }
        });
        for shard in &shards {
            parent.absorb(&shard.snapshot());
        }
        let snap = parent.snapshot();
        assert_eq!(snap.counters[Counter::EngineTicks.index()], 100);
        assert_eq!(snap.shards_folded, 1); // absorb folds values, not shard counts
    }
}
