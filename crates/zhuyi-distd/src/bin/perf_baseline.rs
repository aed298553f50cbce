//! `perf_baseline` — measure the streaming simulation core and the two
//! minimum-safe-FPR searches, and record the result as
//! `results/BENCH_sim.json`.
//!
//! Five measurements, all over the real scenario catalog:
//!
//! 1. **single-run throughput** (ticks/sec): every selected scenario at
//!    30 FPR, once through `Scenario::run_at` (full trace) and once
//!    through `Scenario::outcome_at` (streaming `MetricsObserver`);
//! 2. **MSF catalog sweep** (sims/sec): the paper's Table-1 workload —
//!    scenarios × jittered variants × `min_safe_fpr` over the rate grid —
//!    executed by the fleet engine through the per-rate search
//!    (`ExecOptions::per_rate`);
//! 3. **batched MSF sweep** (sims/sec): the same workload through the
//!    default lane-batched lockstep backend, measured
//!    *interleaved* with the per-rate path — alternating A/B within each
//!    repetition — so co-tenant load hits both sides equally; exports
//!    are asserted byte-identical across backends;
//! 4. **telemetry overhead**: the batched MSF sweep with no telemetry
//!    registry installed vs. with one recording, interleaved the same
//!    way; the disabled side pins the zero-overhead-when-off contract
//!    and the committed `on_vs_off` ratio is CI-asserted;
//! 5. **shard scaling** (sims/sec per worker-process count): the same
//!    streaming MSF sweep distributed across 1/2/4 spawned `fleet_shard`
//!    processes via `zhuyi-distd`, each run's exports asserted
//!    byte-identical to the single-process sweep. Skipped (and annotated
//!    as such) on single-core machines, where the committed numbers
//!    would only record scheduler noise.
//!
//! Every timed section runs `--reps` repetitions (default 5) and reports
//! the **median** with the min/max spread — medians reject co-tenant
//! noise far better than best-of, and the spread makes residual noise
//! visible in the committed artifact instead of silently shaping it.
//!
//! Every mode must produce identical sweep exports (asserted here), so
//! the speedups are like-for-like measurements, not changed experiments.
//!
//! Defaults reproduce the acceptance workload: all nine scenarios,
//! 10 variants, the paper rate grid, one worker (pure single-thread
//! core comparison), writing `results/BENCH_sim.json`. `--help` prints
//! every flag.

use av_core::prelude::*;
use av_scenarios::catalog::{Scenario, ScenarioId, PAPER_RATE_GRID};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use zhuyi_distd::cli::parse_count;
use zhuyi_distd::{default_worker_binary, run_distributed, DistConfig};
use zhuyi_fleet::{cli, run_sweep_with, ExecOptions, JobOutcome, SweepPlan};

#[derive(Debug)]
struct Args {
    scenarios: Vec<ScenarioId>,
    variants: u64,
    rates: Vec<u32>,
    workers: usize,
    shards: Vec<u32>,
    shards_explicit: bool,
    reps: u32,
    baseline_s: Option<f64>,
    prev_sims_per_s: Option<f64>,
    prev_remeasured_sims_per_s: Option<f64>,
    out: String,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            scenarios: ScenarioId::ALL.to_vec(),
            variants: 10,
            rates: PAPER_RATE_GRID.to_vec(),
            workers: 1,
            shards: vec![1, 2, 4],
            shards_explicit: false,
            reps: 5,
            baseline_s: None,
            prev_sims_per_s: None,
            prev_remeasured_sims_per_s: None,
            out: "BENCH_sim.json".to_string(),
        }
    }
}

/// The previous committed benchmark's streaming MSF throughput, read from
/// the existing `results/<out>` before it is overwritten — the
/// before/after hook that makes each regenerated `BENCH_sim.json` carry
/// its own against-last-PR speedup.
fn previous_streaming_sims_per_s(out: &str) -> Option<f64> {
    let text = std::fs::read_to_string(zhuyi_bench::results_dir().join(out)).ok()?;
    // Hand-rolled extraction (serde is a shim): the field appears once,
    // inside the "msf_sweep" object.
    let tail = &text[text.find("\"msf_sweep\"")?..];
    let tail = &tail[tail.find("\"streaming_sims_per_s\":")?..];
    let value = tail.split(':').nth(1)?.split([',', '}']).next()?.trim();
    value.parse().ok()
}

const USAGE: &str = "USAGE:
  perf_baseline [--scenarios all|0,1,5] [--variants N]
                [--rates 1,2,...,30] [--workers N] [--reps N]
                [--shards 1,2,4|none] [--baseline-s SECS] [--out NAME]
                [--prev-sims-per-s X] [--prev-remeasured-sims-per-s X]

perf_baseline — simulation-core and MSF-search benchmark

Writes results/<NAME> (default BENCH_sim.json): single-run ticks/sec and
MSF-sweep sims/sec for the per-rate and batched searches, plus speedups,
plus a shard_scaling section measuring the same streaming sweep sharded
across --shards spawned fleet_shard worker processes (build fleet_shard
first; every distributed run's exports are asserted byte-identical).
Each measurement is the median of --reps repetitions, reported with its
min/max spread.
--baseline-s records an externally measured wall time for the identical
sweep on the pre-streaming engine (e.g. the previous commit's
`fleet_sweep --mode msf --variants N --workers 1`) into the JSON, so the
against-baseline speedup is part of the committed artifact.
The streaming throughput of the existing results/<NAME> (or an explicit
--prev-sims-per-s, e.g. the previous commit's binary re-measured on this
machine) is carried into a vs_previous section with the before/after ratio.";

fn parse(argv: Vec<String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        let mut number = || {
            let spec = value()?;
            spec.trim()
                .parse::<f64>()
                .map_err(|_| format!("{flag} expects a number, got {spec:?}"))
        };
        match flag.as_str() {
            "--scenarios" => args.scenarios = cli::parse_scenarios(&value()?)?,
            "--variants" => args.variants = parse_count(&flag, &value()?, 1)?,
            "--rates" => args.rates = cli::parse_rates(&value()?)?,
            "--workers" => args.workers = parse_count(&flag, &value()?, 1)?,
            // `none` skips the shard-scaling phase; otherwise a set of
            // worker-process counts, sorted and deduplicated.
            "--shards" => {
                let spec = value()?;
                args.shards = if spec.trim() == "none" {
                    Vec::new()
                } else {
                    spec.split(',')
                        .map(|count| parse_count(&flag, count, 1))
                        .collect::<Result<_, _>>()?
                };
                args.shards.sort_unstable();
                args.shards.dedup();
                args.shards_explicit = true;
            }
            "--reps" => args.reps = parse_count(&flag, &value()?, 1)?,
            "--baseline-s" => args.baseline_s = Some(number()?),
            "--prev-sims-per-s" => args.prev_sims_per_s = Some(number()?),
            "--prev-remeasured-sims-per-s" => args.prev_remeasured_sims_per_s = Some(number()?),
            "--out" => args.out = value()?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.rates.is_empty() {
        return Err("--rates must name at least one rate".to_string());
    }
    Ok(args)
}

/// Median / min / max of a set of timing samples (seconds).
#[derive(Debug, Clone, Copy)]
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

fn spread(samples: &[f64]) -> Spread {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "spread of no samples");
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    Spread {
        median,
        min: sorted[0],
        max: sorted[n - 1],
    }
}

/// One pass over every selected scenario (seed 0) at 30 FPR; returns
/// (total ticks, seconds).
fn single_run_pass(scenarios: &[ScenarioId], streaming: bool) -> (u64, f64) {
    let start = Instant::now();
    let mut ticks = 0u64;
    for &id in scenarios {
        let scenario = Scenario::build(id, 0);
        if streaming {
            ticks += scenario.outcome_at(Fpr(30.0)).ticks;
        } else {
            ticks += scenario.run_at(Fpr(30.0)).scenes.len() as u64;
        }
    }
    (ticks, start.elapsed().as_secs_f64())
}

fn main() -> ExitCode {
    let args = zhuyi_bench::command_line(USAGE, parse);

    // --- Phase 1: single-run throughput (ticks/sec). -------------------
    // One throwaway pass warms code and allocator; sections are measured
    // interleaved (recorded/streaming alternating within each rep) and
    // summarized as median + min/max over --reps repetitions.
    let _ = single_run_pass(&args.scenarios[..1.min(args.scenarios.len())], true);
    let mut recorded_samples = Vec::new();
    let mut streaming_samples = Vec::new();
    let mut recorded_ticks = 0u64;
    let mut streaming_ticks = 0u64;
    for _ in 0..args.reps {
        let (ticks, seconds) = single_run_pass(&args.scenarios, false);
        recorded_ticks = ticks;
        recorded_samples.push(seconds);
        let (ticks, seconds) = single_run_pass(&args.scenarios, true);
        streaming_ticks = ticks;
        streaming_samples.push(seconds);
    }
    assert_eq!(
        recorded_ticks, streaming_ticks,
        "both paths must simulate the same ticks"
    );
    let recorded_run = spread(&recorded_samples);
    let streaming_run = spread(&streaming_samples);
    println!(
        "single-run ({} scenarios @ 30 FPR, median of {} reps): recorded {:.0} ticks/s, streaming {:.0} ticks/s ({:.2}x)",
        args.scenarios.len(),
        args.reps,
        recorded_ticks as f64 / recorded_run.median.max(1e-9),
        streaming_ticks as f64 / streaming_run.median.max(1e-9),
        recorded_run.median / streaming_run.median.max(1e-9),
    );

    // --- Phase 2: the MSF catalog sweep (sims/sec). --------------------
    let plan = SweepPlan::builder()
        .scenarios(args.scenarios.iter().copied())
        .jittered_variants(args.variants)
        .min_safe_fpr(args.rates.clone())
        .build();
    println!(
        "msf sweep: {} jobs ({} scenarios x {} variants, grid {:?}), {} worker(s)",
        plan.len(),
        args.scenarios.len(),
        args.variants,
        args.rates,
        args.workers
    );

    // Capture the previous committed number before overwriting the file.
    // An explicitly re-measured baseline stands in when no committed
    // number exists, so `--prev-remeasured-sims-per-s` is never silently
    // dropped.
    let previous_sims_per_s = args
        .prev_sims_per_s
        .or_else(|| previous_streaming_sims_per_s(&args.out))
        .or(args.prev_remeasured_sims_per_s);

    // The two sweep backends, measured interleaved (one rep of each per
    // round) so machine noise lands on both sides equally: the per-rate
    // streaming path and the lane-batched lockstep path.
    let per_rate_options = ExecOptions { per_rate: true };
    let batched_options = ExecOptions::default();
    let mut per_rate_samples = Vec::new();
    let mut batched_samples = Vec::new();
    let mut stores = None;
    for _ in 0..args.reps {
        let start = Instant::now();
        let per_rate_store = run_sweep_with(&plan, args.workers, per_rate_options);
        per_rate_samples.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let batched_store = run_sweep_with(&plan, args.workers, batched_options);
        batched_samples.push(start.elapsed().as_secs_f64());
        assert_eq!(
            per_rate_store.to_csv(),
            batched_store.to_csv(),
            "batched and per-rate sweeps must export identical results"
        );
        assert_eq!(
            per_rate_store.to_json(),
            batched_store.to_json(),
            "batched and per-rate sweeps must export identical JSON"
        );
        stores = Some((per_rate_store, batched_store));
    }
    let (streaming_store, _batched_store) = stores.expect("reps >= 1");
    let per_rate_sweep = spread(&per_rate_samples);
    let batched_sweep = spread(&batched_samples);
    let sims: u64 = streaming_store
        .results()
        .iter()
        .map(|r| match &r.outcome {
            JobOutcome::MinSafeFpr(m) => u64::from(m.sims_run),
            _ => 0,
        })
        .sum();
    let batched_speedup = per_rate_sweep.median / batched_sweep.median.max(1e-9);
    println!(
        "msf sweep (median of {} reps): {} sims; per-rate streaming {:.2}s ({:.1} sims/s)",
        args.reps,
        sims,
        per_rate_sweep.median,
        sims as f64 / per_rate_sweep.median.max(1e-9),
    );
    println!(
        "batched msf sweep: {:.2}s ({:.1} sims/s) -> {:.2}x over the per-rate path (interleaved; spread {:.2}-{:.2}s vs {:.2}-{:.2}s)",
        batched_sweep.median,
        sims as f64 / batched_sweep.median.max(1e-9),
        batched_speedup,
        batched_sweep.min,
        batched_sweep.max,
        per_rate_sweep.min,
        per_rate_sweep.max,
    );

    // --- Phase 3: telemetry overhead (disabled vs enabled). ------------
    // The same batched streaming sweep with no registry installed and
    // with one recording, alternating within each rep so co-tenant noise
    // lands on both sides equally. The disabled side is the
    // zero-overhead-when-off contract: its median must sit within noise
    // of the plain batched sweep above (CI asserts the committed ratio).
    let mut telemetry_off_samples = Vec::new();
    let mut telemetry_on_samples = Vec::new();
    let mut telemetry_jobs = 0u64;
    for _ in 0..args.reps {
        let start = Instant::now();
        let off_store = run_sweep_with(&plan, args.workers, batched_options);
        telemetry_off_samples.push(start.elapsed().as_secs_f64());
        let registry = std::sync::Arc::new(zhuyi_telemetry::Registry::new());
        let start = Instant::now();
        let on_store = {
            let _guard = zhuyi_telemetry::install(&registry);
            run_sweep_with(&plan, args.workers, batched_options)
        };
        telemetry_on_samples.push(start.elapsed().as_secs_f64());
        telemetry_jobs =
            registry.snapshot().counters[zhuyi_telemetry::Counter::JobsExecuted.index()];
        assert_eq!(
            off_store.to_csv(),
            on_store.to_csv(),
            "telemetry must not change exported results"
        );
    }
    let telemetry_off = spread(&telemetry_off_samples);
    let telemetry_on = spread(&telemetry_on_samples);
    let telemetry_ratio = telemetry_on.median / telemetry_off.median.max(1e-9);
    assert_eq!(
        telemetry_jobs,
        plan.len() as u64,
        "the enabled side must have recorded every job"
    );
    println!(
        "telemetry overhead: off {:.2}s, on {:.2}s -> {:.3}x enabled/disabled (interleaved; spread {:.2}-{:.2}s vs {:.2}-{:.2}s)",
        telemetry_off.median,
        telemetry_on.median,
        telemetry_ratio,
        telemetry_on.min,
        telemetry_on.max,
        telemetry_off.min,
        telemetry_off.max,
    );

    // --- Phase 4: shard scaling (sims/sec per worker-process count). ---
    // One rep per point: each point spawns OS processes, so best-of-reps
    // buys little against that startup noise, and the equality assert
    // below is the correctness half regardless of timing.
    //
    // On a single-core machine every worker count collapses onto one CPU
    // and the points would only record scheduler noise dressed up as a
    // failed scaling experiment — skip the section (and say so in the
    // artifact) unless the caller explicitly insisted with --shards.
    let machine_parallelism =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut shards_skipped = false;
    let mut shards = args.shards.clone();
    if machine_parallelism == 1 && !shards.is_empty() && !args.shards_explicit {
        println!(
            "shard scaling: skipped (machine_parallelism = 1; pass --shards explicitly to force)"
        );
        shards_skipped = true;
        shards.clear();
    }
    let mut shard_rows: Vec<(u32, f64, f64)> = Vec::new();
    if !shards.is_empty() {
        let worker_binary = match default_worker_binary() {
            Ok(path) => path,
            Err(message) => {
                eprintln!("error: shard scaling needs the worker binary: {message}");
                return ExitCode::from(2);
            }
        };
        for &workers in &shards {
            let config = DistConfig {
                spawn_workers: workers as usize,
                worker_binary: Some(worker_binary.clone()),
                ..DistConfig::default()
            };
            let start = Instant::now();
            let report = match run_distributed(&plan, &config) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("error: shard-scaling run with {workers} worker(s) failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let wall_s = start.elapsed().as_secs_f64();
            assert_eq!(
                report.store.to_csv(),
                streaming_store.to_csv(),
                "{workers}-worker distributed sweep must export identical results"
            );
            let sims_per_s = sims as f64 / wall_s.max(1e-9);
            println!(
                "shard scaling: {workers} worker process(es): {wall_s:.2}s ({sims_per_s:.1} sims/s)"
            );
            shard_rows.push((workers, wall_s, sims_per_s));
        }
    }

    // --- Write BENCH_sim.json (hand-rolled JSON; serde is a shim). -----
    let mut json = String::new();
    let scenario_names: Vec<String> = args
        .scenarios
        .iter()
        .map(|s| format!("\"{}\"", s.name()))
        .collect();
    let rate_cells: Vec<String> = args.rates.iter().map(|r| r.to_string()).collect();
    let _ = write!(
        json,
        "{{\n  \"schema\": \"zhuyi.bench_sim.v2\",\n  \"config\": {{\"scenarios\": [{}], \"variants\": {}, \"rates\": [{}], \"workers\": {}, \"reps\": {}, \"statistic\": \"median\"}},\n",
        scenario_names.join(", "),
        args.variants,
        rate_cells.join(", "),
        args.workers,
        args.reps,
    );
    let _ = writeln!(
        json,
        "  \"single_run\": {{\"ticks\": {}, \"recorded_s\": {:.6}, \"recorded_s_min\": {:.6}, \"recorded_s_max\": {:.6}, \"streaming_s\": {:.6}, \"streaming_s_min\": {:.6}, \"streaming_s_max\": {:.6}, \"recorded_ticks_per_s\": {:.1}, \"streaming_ticks_per_s\": {:.1}, \"speedup\": {:.3}}},",
        recorded_ticks,
        recorded_run.median,
        recorded_run.min,
        recorded_run.max,
        streaming_run.median,
        streaming_run.min,
        streaming_run.max,
        recorded_ticks as f64 / recorded_run.median.max(1e-9),
        streaming_ticks as f64 / streaming_run.median.max(1e-9),
        recorded_run.median / streaming_run.median.max(1e-9),
    );
    let _ = writeln!(
        json,
        "  \"msf_sweep\": {{\"jobs\": {}, \"sims\": {}, \"streaming_s\": {:.6}, \"streaming_s_min\": {:.6}, \"streaming_s_max\": {:.6}, \"streaming_sims_per_s\": {:.2}}},",
        plan.len(),
        sims,
        per_rate_sweep.median,
        per_rate_sweep.min,
        per_rate_sweep.max,
        sims as f64 / per_rate_sweep.median.max(1e-9),
    );
    let _ = writeln!(
        json,
        "  \"batched_msf_sweep\": {{\"batch_lanes\": {}, \"interleaved_with_per_rate\": true, \"sims\": {}, \"batched_s\": {:.6}, \"batched_s_min\": {:.6}, \"batched_s_max\": {:.6}, \"streaming_sims_per_s\": {:.2}, \"per_rate_sims_per_s\": {:.2}, \"speedup_vs_per_rate\": {:.3}, \"exports_identical\": true}},",
        args.rates.len(),
        sims,
        batched_sweep.median,
        batched_sweep.min,
        batched_sweep.max,
        sims as f64 / batched_sweep.median.max(1e-9),
        sims as f64 / per_rate_sweep.median.max(1e-9),
        batched_speedup,
    );
    let _ = write!(
        json,
        "  \"telemetry_overhead\": {{\"jobs_recorded\": {}, \"off_s\": {:.6}, \"off_s_min\": {:.6}, \"off_s_max\": {:.6}, \"on_s\": {:.6}, \"on_s_min\": {:.6}, \"on_s_max\": {:.6}, \"on_vs_off\": {:.3}, \"off_vs_plain_batched\": {:.3}, \"exports_identical\": true}}",
        telemetry_jobs,
        telemetry_off.median,
        telemetry_off.min,
        telemetry_off.max,
        telemetry_on.median,
        telemetry_on.min,
        telemetry_on.max,
        telemetry_ratio,
        telemetry_off.median / batched_sweep.median.max(1e-9),
    );
    if shards_skipped {
        let _ = write!(
            json,
            ",\n  \"shard_scaling\": {{\"machine_parallelism\": {machine_parallelism}, \"skipped\": true, \"reason\": \"single-core machine: worker counts collapse onto one CPU, so the points would measure scheduler noise, not scaling\"}}",
        );
    }
    if !shard_rows.is_empty() {
        let base_sims_per_s = shard_rows[0].2;
        let cells: Vec<String> = shard_rows
            .iter()
            .map(|&(workers, wall_s, sims_per_s)| {
                format!(
                    "\n    {{\"workers\": {workers}, \"wall_s\": {wall_s:.6}, \"sims_per_s\": {sims_per_s:.2}, \"scaling_vs_smallest\": {:.3}}}",
                    sims_per_s / base_sims_per_s.max(1e-9),
                )
            })
            .collect();
        // machine_parallelism is the reading key: on a multi-core box
        // the points show real scaling; single-core machines skip this
        // section entirely (see above) unless --shards insists.
        let _ = write!(
            json,
            ",\n  \"shard_scaling\": {{\"machine_parallelism\": {machine_parallelism}, \"skipped\": false, \"points\": [{}\n  ]}}",
            cells.join(","),
        );
    }
    if let Some(previous) = previous_sims_per_s {
        let current = sims as f64 / per_rate_sweep.median.max(1e-9);
        let _ = write!(
            json,
            ",\n  \"vs_previous\": {{\"previous_streaming_sims_per_s\": {:.2}, \"streaming_sims_per_s\": {:.2}, \"speedup\": {:.3}",
            previous,
            current,
            current / previous.max(1e-9),
        );
        println!(
            "vs previous: {:.1} -> {:.1} streaming sims/s ({:.2}x)",
            previous,
            current,
            current / previous.max(1e-9),
        );
        if let Some(remeasured) = args.prev_remeasured_sims_per_s {
            // The previous commit's binary re-run on this machine at bench
            // time — the like-for-like ratio when the committed number was
            // recorded under different machine load.
            let _ = write!(
                json,
                ", \"previous_remeasured_sims_per_s\": {:.2}, \"speedup_same_machine\": {:.3}",
                remeasured,
                current / remeasured.max(1e-9),
            );
            println!(
                "vs previous (re-measured on this machine): {:.1} -> {:.1} sims/s ({:.2}x)",
                remeasured,
                current,
                current / remeasured.max(1e-9),
            );
        }
        json.push('}');
    }
    if let Some(baseline_s) = args.baseline_s {
        let _ = write!(
            json,
            ",\n  \"pre_streaming_baseline\": {{\"method\": \"identical msf sweep on the pre-streaming engine (previous commit's fleet_sweep --mode msf), measured externally on the same machine\", \"wall_s\": {:.6}, \"streaming_speedup\": {:.3}}}",
            baseline_s,
            baseline_s / per_rate_sweep.median.max(1e-9),
        );
        println!(
            "pre-streaming baseline: {:.2}s -> streaming speedup {:.2}x",
            baseline_s,
            baseline_s / per_rate_sweep.median.max(1e-9),
        );
    }
    json.push_str("\n}\n");
    let path = zhuyi_bench::write_results(&args.out, &json);
    println!("wrote {}", path.display());
    ExitCode::SUCCESS
}
