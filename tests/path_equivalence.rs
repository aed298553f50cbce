//! Cross-path equivalence harness: the same fuzzed registry corpus must
//! export byte-identical results through both execution paths the fleet
//! layer offers — the per-rate reference search (one closed-loop run per
//! candidate rate) and the default rate-batched lockstep search (all
//! candidate rates of one instance as lanes of one sim).
//!
//! The batched path earns its speed from aggressive sharing (one actor
//! step per tick for all rate lanes) and from safe-suffix certificates
//! retiring lanes early, so the pin here is deliberately end-to-end:
//! CSV, JSON, and kept probe traces all compared as bytes over a 50+
//! scenario generated corpus. A second test drives the same corpus
//! through the low-level batched sweep API and asserts the certificate
//! machinery actually fired both ways — retirements *and* declines — so
//! the equivalence above can't pass by quietly skipping the interesting
//! paths.

use std::sync::Arc;

use zhuyi_repro::core::units::Fpr;
use zhuyi_repro::fleet::{run_sweep_with, ExecOptions, SweepPlan};
use zhuyi_repro::registry::{FuzzConfig, ScenarioSource};
use zhuyi_repro::scenarios::sweep::SweepContext;
use zhuyi_repro::sim::batch::BatchStats;
use zhuyi_repro::telemetry;

/// The pinned corpus: `(prefix, count, seed)` fully determine the
/// definitions, byte for byte, so every CI run sees the same scenarios.
const CORPUS_PREFIX: &str = "path-eq";
const CORPUS_COUNT: usize = 50;
const CORPUS_SEED: u64 = 20221207;

/// The candidate grid the MSF jobs search. Spread so low rates collide,
/// high rates survive, and the binary localization has real work.
const GRID: &[u32] = &[1, 2, 4, 8, 15, 30];

fn corpus() -> Vec<ScenarioSource> {
    let defs = FuzzConfig {
        prefix: CORPUS_PREFIX.to_string(),
        count: CORPUS_COUNT,
        seed: CORPUS_SEED,
    }
    .generate();
    assert_eq!(defs.len(), CORPUS_COUNT);
    defs.into_iter().map(Into::into).collect()
}

#[test]
fn fuzzed_corpus_exports_identically_through_every_execution_path() {
    // Two jitter seeds per scenario (jitter perturbs the road itself),
    // and the fuzz templates make ~a quarter of the corpus curved, so
    // both paths see straight and curved geometry.
    let plan = SweepPlan::builder()
        .sources(corpus())
        .seeds([0, 1])
        .probe(30.0, true)
        .min_safe_fpr(GRID.to_vec())
        .build();

    let per_rate = run_sweep_with(&plan, 2, ExecOptions { per_rate: true });
    let batched = run_sweep_with(&plan, 2, ExecOptions::default());

    assert_eq!(
        per_rate.to_csv(),
        batched.to_csv(),
        "rate-batched CSV diverged from the per-rate path"
    );
    assert_eq!(
        per_rate.to_json(),
        batched.to_json(),
        "rate-batched JSON diverged from the per-rate path"
    );
    // Probe jobs keep full traces; neither path batches them, but their
    // bytes must still come out identical — file names and CSV contents
    // both.
    assert_eq!(
        per_rate.kept_traces(),
        batched.kept_traces(),
        "rate-batched traces diverged from the per-rate path"
    );
    assert!(
        !per_rate.kept_traces().is_empty(),
        "trace comparison compared nothing"
    );
}

#[test]
fn telemetry_changes_no_exported_byte_and_records_the_sweep() {
    // Telemetry's "out of band" contract, end to end: the same corpus
    // swept with a registry installed must export the exact bytes of the
    // uninstrumented sweep — while the snapshot proves the sweep was
    // actually observed (phase ticks, certificate declines, one wall
    // time per job). The default batched search keeps the certificate
    // machinery (and so the decline counters) in play.
    let plan = SweepPlan::builder()
        .sources(corpus())
        .seeds([0, 1])
        .probe(30.0, true)
        .min_safe_fpr(GRID.to_vec())
        .build();
    let options = ExecOptions::default();

    let off = run_sweep_with(&plan, 2, options);
    let registry = Arc::new(telemetry::Registry::new());
    let on = {
        let _guard = telemetry::install(&registry);
        run_sweep_with(&plan, 2, options)
    };
    let snapshot = registry.snapshot();

    assert_eq!(
        off.to_csv(),
        on.to_csv(),
        "telemetry changed the exported CSV bytes"
    );
    assert_eq!(
        off.to_json(),
        on.to_json(),
        "telemetry changed the exported JSON bytes"
    );
    assert_eq!(
        off.kept_traces(),
        on.kept_traces(),
        "telemetry changed the kept probe traces"
    );

    assert!(
        snapshot.phase_ticks.iter().sum::<u64>() > 0,
        "instrumented sweep recorded no tick phases"
    );
    assert!(
        snapshot.cert_declines.iter().sum::<u64>() > 0,
        "instrumented sweep recorded no certificate declines"
    );
    assert_eq!(
        snapshot.jobs.len(),
        plan.len(),
        "every job must have exactly one wall-time record"
    );
}

#[test]
fn batched_corpus_exercises_certificate_retirement_and_decline() {
    // Same corpus, every instance's grid as one lockstep batch, cost
    // accounting summed over the corpus. The stats must show both
    // certificate outcomes: lanes retired early (the speed half) and
    // attempts declined (the caution half) — otherwise the
    // byte-equivalence above never stressed the paths where batched
    // execution could actually diverge.
    let rates: Vec<Fpr> = GRID.iter().map(|&c| Fpr(f64::from(c))).collect();
    let mut verdicts: Vec<Vec<bool>> = Vec::new();
    let mut stats = BatchStats::default();
    for source in corpus() {
        let scenario = source.build(1);
        let (row, run) = SweepContext::new(&scenario).collides_batched_with_stats(&rates);
        verdicts.push(row);
        stats.merge(&run);
    }

    assert_eq!(verdicts.len(), CORPUS_COUNT);
    assert!(
        verdicts.iter().flatten().any(|&collided| collided),
        "corpus produced no collisions; the grid no longer stresses the boundary"
    );
    assert!(
        verdicts.iter().flatten().any(|&collided| !collided),
        "corpus produced no safe runs; the grid no longer stresses the boundary"
    );
    assert!(
        stats.certified_lanes > 0 && stats.ticks_retired > 0,
        "no lane was certificate-retired: the batched fast path went unexercised ({stats:?})"
    );
    assert!(
        stats.cert_declines > 0,
        "no certificate attempt declined: the conservative path went unexercised ({stats:?})"
    );
    assert!(
        stats.idle_lane_ticks > 0,
        "no tick took the verdict-only idle fast path ({stats:?})"
    );
}
