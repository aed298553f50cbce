//! `fleet_sweep` — run a fleet-scale scenario sweep from the command
//! line, on this process's thread pool or sharded across worker
//! processes/hosts.
//!
//! The paper's pre-deployment workflow (§3.1) at corpus scale: expand the
//! nine Table-1 scenarios into jittered variants, fan the resulting jobs
//! across workers, and aggregate/export the merged results.
//!
//! ```text
//! USAGE:
//!   fleet_sweep [--mode msf|probe|percam|analyze] [--scenarios all|0,1,5]
//!               [--scenario-dir DIR] [--variants N] [--workers N] [--rates 1,2,...,30]
//!               [--fpr F] [--plans all|0,2] [--predictor oracle|cv|ca]
//!               [--stride N] [--csv NAME] [--json NAME] [--traces]
//!               [--per-rate] [--baseline]
//!               [--dist] [--listen ADDR] [--checkpoint PATH] [--batch N]
//!               [--connect ADDR] [--chaos-seed N] [--chaos-profile NAME]
//!               [--max-job-failures K] [--verify-fraction F]
//!               [--fail-after N] [--telemetry] [--telemetry-out NAME]
//!               [--metrics-listen ADDR]
//!               [--daemon --listen ADDR --journal PATH [--max-queue N] [--lease-secs N]]
//!               [--submit ADDR [--drain] [--retry-max N] [--retry-base-ms N]]
//!               [--help]
//! ```
//!
//! Defaults reproduce Table 1 fleet-style: `--mode msf --scenarios all
//! --variants 10` over the paper's rate grid, on all available cores.
//!
//! **Distributed modes.** `--dist` shards the sweep across `--workers N`
//! spawned `fleet_shard` OS processes (plus any external workers when
//! `--listen HOST:PORT` is given); exports stay byte-identical to the
//! single-process run. `--checkpoint PATH` makes the run resumable (the
//! file is a one-plan journal; an old pre-journal checkpoint is refused)
//! and `--batch N` pins the shard size. `--connect HOST:PORT` turns this
//! invocation into a *worker* that joins a coordinator elsewhere (the
//! multi-host story: run `fleet_sweep --dist --listen` on one box and
//! `fleet_sweep --connect` on the others).
//!
//! **Chaos testing.** `--chaos-seed N [--chaos-profile NAME]` makes each
//! spawned worker inject a deterministic fault stream (drops, delays,
//! duplicates, truncations, bit-flips) into its uplink — the sweep must
//! still complete with byte-identical exports. `--max-job-failures K`
//! sets the quarantine strike limit, `--verify-fraction F` samples jobs
//! for duplicate-execution cross-checking, and `--fail-after N` crashes
//! the first spawned worker after N results. Quarantined jobs are
//! reported and exported as a sibling `*.quarantine.csv/json` artifact.
//!
//! **Sweep service.** `--daemon --listen ADDR --journal PATH` runs the
//! persistent coordinator: plans arrive from `--submit` clients, every
//! admission and result is journaled (a `kill -9` resumes from the
//! journal on restart), admission is bounded by `--max-queue` with
//! `Busy` load-shedding, and `--lease-secs` bounds how long orphaned
//! plans are kept. `--submit ADDR` sends this invocation's plan to a
//! daemon instead of running it, retrying with exponential backoff
//! (`--retry-max`, `--retry-base-ms`), then polls, fetches, and exports
//! exactly what a local run would have written. `--submit ADDR --drain`
//! asks the daemon to finish everything admitted and exit.
//!
//! **Telemetry.** `--telemetry` collects per-phase tick profiles,
//! per-job wall times, cert-decline reason counters, and (in dist mode)
//! wire/runtime metrics folded from every worker — strictly out-of-band,
//! exports stay byte-identical — and writes a sibling
//! `NAME.telemetry.json` (override with `--telemetry-out NAME`).
//! `--metrics-listen ADDR` (dist only) additionally serves a live
//! Prometheus-style plaintext exposition from the coordinator.

use av_scenarios::catalog::{PerCameraPlan, ScenarioId, PAPER_RATE_GRID};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use zhuyi_distd::{
    cli as dcli, client, run_daemon, run_distributed, run_via_daemon, run_worker, ChaosProfile,
    ChaosSpec, ClientConfig, DaemonConfig, DistConfig, QuarantineManifest, WorkerOptions,
};
use zhuyi_fleet::{cli, pool, run_sweep_with, ExecOptions, PredictorChoice, SweepPlan};
use zhuyi_registry::{Registry, ScenarioSource};

#[derive(Debug)]
struct Args {
    mode: Mode,
    scenarios: Vec<ScenarioSource>,
    scenario_dir: Option<PathBuf>,
    variants: u64,
    workers: usize,
    rates: Vec<u32>,
    fpr: f64,
    plans: Vec<PerCameraPlan>,
    predictor: PredictorChoice,
    stride: usize,
    csv: Option<String>,
    json: Option<String>,
    traces: bool,
    per_rate: bool,
    baseline: bool,
    dist: bool,
    listen: Option<String>,
    connect: Option<String>,
    checkpoint: Option<PathBuf>,
    batch: Option<usize>,
    chaos_seed: Option<u64>,
    chaos_profile: Option<&'static ChaosProfile>,
    max_job_failures: Option<usize>,
    verify_fraction: Option<f64>,
    fail_after: Option<u32>,
    telemetry: bool,
    telemetry_out: Option<String>,
    metrics_listen: Option<String>,
    daemon: bool,
    journal: Option<PathBuf>,
    submit: Option<String>,
    drain: bool,
    max_queue: Option<usize>,
    lease_secs: Option<u64>,
    retry_max: Option<u32>,
    retry_base_ms: Option<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Msf,
    Probe,
    PerCamera,
    Analyze,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Msf => "msf",
            Mode::Probe => "probe",
            Mode::PerCamera => "percam",
            Mode::Analyze => "analyze",
        }
    }
}

impl Default for Args {
    fn default() -> Self {
        Self {
            mode: Mode::Msf,
            scenarios: ScenarioId::ALL.iter().map(|&id| id.into()).collect(),
            scenario_dir: None,
            variants: 10,
            workers: pool::default_workers(),
            rates: PAPER_RATE_GRID.to_vec(),
            fpr: 30.0,
            plans: av_scenarios::catalog::PER_CAMERA_PLANS.to_vec(),
            predictor: PredictorChoice::Oracle,
            stride: 20,
            csv: None,
            json: None,
            traces: false,
            per_rate: false,
            baseline: false,
            dist: false,
            listen: None,
            connect: None,
            checkpoint: None,
            batch: None,
            chaos_seed: None,
            chaos_profile: None,
            max_job_failures: None,
            verify_fraction: None,
            fail_after: None,
            telemetry: false,
            telemetry_out: None,
            metrics_listen: None,
            daemon: false,
            journal: None,
            submit: None,
            drain: false,
            max_queue: None,
            lease_secs: None,
            retry_max: None,
            retry_base_ms: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut seen: Vec<String> = Vec::new();
    // `--scenarios` means different things with and without
    // `--scenario-dir` (Table-1 indexes vs registry name/tag filter), so
    // the raw spec is kept and resolved after the flag loop.
    let mut scenarios_spec = String::from("all");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        seen.push(flag.clone());
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--mode" => {
                args.mode = match value("--mode")?.as_str() {
                    "msf" => Mode::Msf,
                    "probe" => Mode::Probe,
                    "percam" => Mode::PerCamera,
                    "analyze" => Mode::Analyze,
                    other => return Err(format!("unknown mode {other:?}")),
                }
            }
            "--scenarios" => scenarios_spec = value("--scenarios")?,
            "--scenario-dir" => args.scenario_dir = Some(PathBuf::from(value("--scenario-dir")?)),
            "--variants" => {
                args.variants = value("--variants")?
                    .parse()
                    .map_err(|_| "bad --variants".to_string())?
            }
            "--workers" => {
                let raw = value("--workers")?;
                args.workers = if raw.trim() == "0" {
                    0
                } else {
                    dcli::parse_workers(&raw)?
                };
            }
            "--rates" => args.rates = cli::parse_rates(&value("--rates")?)?,
            "--fpr" => {
                args.fpr = value("--fpr")?
                    .parse()
                    .map_err(|_| "bad --fpr".to_string())?
            }
            "--plans" => args.plans = cli::parse_per_camera_plans(&value("--plans")?)?,
            "--predictor" => {
                args.predictor = match value("--predictor")?.as_str() {
                    "oracle" => PredictorChoice::Oracle,
                    "cv" => PredictorChoice::ConstantVelocity,
                    "ca" => PredictorChoice::ConstantAcceleration,
                    other => return Err(format!("unknown predictor {other:?}")),
                }
            }
            "--stride" => {
                args.stride = value("--stride")?
                    .parse()
                    .map_err(|_| "bad --stride".to_string())?
            }
            "--csv" => args.csv = Some(value("--csv")?),
            "--json" => args.json = Some(value("--json")?),
            "--traces" => args.traces = true,
            "--per-rate" => args.per_rate = true,
            "--baseline" => args.baseline = true,
            "--dist" => args.dist = true,
            "--listen" => args.listen = Some(dcli::parse_addr("--listen", &value("--listen")?)?),
            "--connect" => {
                args.connect = Some(dcli::parse_addr("--connect", &value("--connect")?)?)
            }
            "--checkpoint" => {
                args.checkpoint = Some(dcli::parse_journal(
                    "--checkpoint",
                    &value("--checkpoint")?,
                )?)
            }
            "--batch" => args.batch = Some(dcli::parse_batch(&value("--batch")?)?),
            "--chaos-seed" => {
                args.chaos_seed = Some(dcli::parse_chaos_seed(&value("--chaos-seed")?)?)
            }
            "--chaos-profile" => {
                args.chaos_profile = Some(dcli::parse_chaos_profile(&value("--chaos-profile")?)?)
            }
            "--max-job-failures" => {
                args.max_job_failures =
                    Some(dcli::parse_max_job_failures(&value("--max-job-failures")?)?)
            }
            "--verify-fraction" => {
                args.verify_fraction =
                    Some(dcli::parse_verify_fraction(&value("--verify-fraction")?)?)
            }
            "--fail-after" => {
                args.fail_after = Some(dcli::parse_fail_after(&value("--fail-after")?)?)
            }
            "--daemon" => args.daemon = true,
            "--journal" => {
                args.journal = Some(dcli::parse_journal("--journal", &value("--journal")?)?)
            }
            "--submit" => args.submit = Some(dcli::parse_addr("--submit", &value("--submit")?)?),
            "--drain" => args.drain = true,
            "--max-queue" => args.max_queue = Some(dcli::parse_max_queue(&value("--max-queue")?)?),
            "--lease-secs" => {
                args.lease_secs = Some(dcli::parse_lease_secs(&value("--lease-secs")?)?)
            }
            "--retry-max" => args.retry_max = Some(dcli::parse_retry_max(&value("--retry-max")?)?),
            "--retry-base-ms" => {
                args.retry_base_ms = Some(dcli::parse_retry_base_ms(&value("--retry-base-ms")?)?)
            }
            "--telemetry" => args.telemetry = true,
            "--telemetry-out" => args.telemetry_out = Some(value("--telemetry-out")?),
            "--metrics-listen" => {
                args.metrics_listen = Some(dcli::parse_addr(
                    "--metrics-listen",
                    &value("--metrics-listen")?,
                )?)
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.workers == 0 && !(args.listen.is_some() && (args.dist || args.daemon)) {
        return Err(
            "--workers 0 is only valid with --dist --listen or --daemon --listen \
             (external workers only)"
                .to_string(),
        );
    }
    if args.variants == 0 {
        return Err("--variants must be >= 1".to_string());
    }
    if args.stride == 0 {
        return Err("--stride must be >= 1".to_string());
    }
    if !(args.fpr.is_finite() && args.fpr > 0.0) {
        return Err("--fpr must be positive and finite".to_string());
    }
    dcli::validate_dist_flags(&dcli::DistFlags {
        dist: args.dist,
        connect: args.connect.clone(),
        listen: args.listen.clone(),
        checkpoint: args.checkpoint.clone(),
        batch: args.batch,
        chaos_seed: args.chaos_seed.is_some(),
        chaos_profile: args.chaos_profile.is_some(),
        max_job_failures: args.max_job_failures.is_some(),
        verify_fraction: args.verify_fraction.is_some(),
        fail_after: args.fail_after.is_some(),
        telemetry: args.telemetry,
        telemetry_out: args.telemetry_out.is_some(),
        metrics_listen: args.metrics_listen.is_some(),
        export_flags: ["--csv", "--json", "--traces", "--baseline"]
            .iter()
            .filter(|f| seen.iter().any(|s| s == *f))
            .map(ToString::to_string)
            .collect(),
        daemon: args.daemon,
        journal: args.journal.clone(),
        submit: args.submit.clone(),
        drain: args.drain,
        max_queue: args.max_queue.is_some(),
        lease_secs: args.lease_secs.is_some(),
        retry_max: args.retry_max.is_some(),
        retry_base_ms: args.retry_base_ms.is_some(),
    })?;
    if args.daemon {
        // The daemon runs whatever plans clients submit; its own
        // invocation carries no plan, so plan-shaping flags would be
        // silently ignored — reject them loudly (--workers stays: it
        // sizes the daemon's spawned fleet).
        let plan_flags = [
            "--mode",
            "--scenarios",
            "--scenario-dir",
            "--variants",
            "--rates",
            "--fpr",
            "--plans",
            "--predictor",
            "--stride",
            "--per-rate",
        ];
        if let Some(flag) = seen.iter().find(|f| plan_flags.contains(&f.as_str())) {
            return Err(format!(
                "{flag} does not apply to --daemon (submitting clients own the plan)"
            ));
        }
    }
    if args.connect.is_some() {
        // A worker has no plan of its own: every plan-shaping flag would
        // be silently ignored, so reject them loudly instead.
        let plan_flags = [
            "--mode",
            "--scenarios",
            "--scenario-dir",
            "--variants",
            "--workers",
            "--rates",
            "--fpr",
            "--plans",
            "--predictor",
            "--stride",
            "--per-rate",
        ];
        if let Some(flag) = seen.iter().find(|f| plan_flags.contains(&f.as_str())) {
            return Err(format!(
                "{flag} does not apply to a --connect worker (the coordinator owns the plan)"
            ));
        }
    }
    // Reject flags the selected mode would silently ignore — a dropped
    // `--rates` or `--fpr` quietly changes what safety question was asked.
    if args.connect.is_none() {
        let irrelevant: &[&str] = match args.mode {
            Mode::Msf => &["--fpr", "--plans", "--predictor", "--stride", "--traces"],
            Mode::Probe => &[
                "--rates",
                "--plans",
                "--predictor",
                "--stride",
                "--per-rate",
            ],
            Mode::PerCamera => &["--rates", "--fpr", "--predictor", "--stride", "--per-rate"],
            Mode::Analyze => &["--rates", "--plans", "--traces", "--per-rate"],
        };
        if let Some(flag) = seen.iter().find(|f| irrelevant.contains(&f.as_str())) {
            return Err(format!(
                "{flag} does not apply to --mode {}",
                args.mode.name()
            ));
        }
    }
    args.scenarios = match &args.scenario_dir {
        Some(dir) => {
            let registry = Registry::load_dir(dir).map_err(|e| e.to_string())?;
            registry
                .filter(&scenarios_spec)
                .map_err(|e| e.to_string())?
        }
        None => cli::parse_scenarios(&scenarios_spec)?
            .into_iter()
            .map(ScenarioSource::from)
            .collect(),
    };
    Ok(args)
}

/// Builds the daemon-client configuration shared by `--submit` and
/// `--drain`: retry/backoff knobs from the CLI, a per-process client
/// name (each invocation gets its own fairness lane), and optional chaos
/// on the submit link mirroring the `--dist` chaos flags.
fn client_config(args: &Args) -> ClientConfig {
    ClientConfig {
        addr: args
            .submit
            .clone()
            .expect("validated: client operations require --submit"),
        name: format!("fleet_sweep-{}", std::process::id()),
        retry_max: args.retry_max.unwrap_or(8),
        retry_base: Duration::from_millis(args.retry_base_ms.unwrap_or(100)),
        seed: args.chaos_seed.unwrap_or(0),
        chaos: args.chaos_seed.map(|seed| ChaosSpec {
            seed,
            profile: args
                .chaos_profile
                .unwrap_or_else(|| dcli::parse_chaos_profile("mild").expect("built-in")),
        }),
        ..ClientConfig::default()
    }
}

/// `msf.csv` → `msf.quarantine.csv`: the sibling artifact carrying the
/// quarantine manifest next to a main export (always written in dist
/// mode, header-only on a clean pass so CI can assert emptiness).
fn quarantine_name(name: &str) -> String {
    match name.rsplit_once('.') {
        Some((stem, ext)) => format!("{stem}.quarantine.{ext}"),
        None => format!("{name}.quarantine"),
    }
}

/// `msf.json`/`msf.csv` → `msf.telemetry.json`: the sibling telemetry
/// artifact; always JSON regardless of the main export's format.
fn telemetry_name(name: &str) -> String {
    match name.rsplit_once('.') {
        Some((stem, _)) => format!("{stem}.telemetry.json"),
        None => format!("{name}.telemetry.json"),
    }
}

fn usage() {
    eprintln!(
        "fleet_sweep — parallel fleet-scale scenario sweeps (threads or processes)\n\n\
         USAGE:\n  fleet_sweep [--mode msf|probe|percam|analyze] [--scenarios all|0,1,5]\n\
         \x20             [--scenario-dir DIR] [--variants N] [--workers N] [--rates 1,2,...,30]\n\
         \x20             [--fpr F] [--plans all|0,2] [--predictor oracle|cv|ca]\n\
         \x20             [--stride N] [--csv NAME] [--json NAME] [--traces]\n\
         \x20             [--per-rate] [--baseline]\n\
         \x20             [--dist] [--listen ADDR] [--checkpoint PATH] [--batch N]\n\
         \x20             [--connect ADDR] [--chaos-seed N] [--chaos-profile NAME]\n\
         \x20             [--max-job-failures K] [--verify-fraction F] [--fail-after N]\n\
         \x20             [--telemetry] [--telemetry-out NAME] [--metrics-listen ADDR]\n\
         \x20             [--daemon --listen ADDR --journal PATH [--max-queue N] [--lease-secs N]]\n\
         \x20             [--submit ADDR [--drain] [--retry-max N] [--retry-base-ms N]]\n\n\
         MODES:\n\
         \x20 msf      search each instance's minimum safe rate over --rates (default),\n\
         \x20          every candidate rate as a lane of one lockstep pass; --per-rate\n\
         \x20          runs the per-rate reference search instead (identical exports)\n\
         \x20 probe    run each instance closed-loop at --fpr and record collisions\n\
         \x20 percam   probe each instance against the heterogeneous per-camera rate\n\
         \x20          plans selected by --plans (catalog presets, see below)\n\
         \x20 analyze  run at --fpr, then Zhuyi-analyze the trace with --predictor\n\n\
         DISTRIBUTION:\n\
         \x20 --dist            shard across --workers N spawned fleet_shard processes\n\
         \x20 --listen ADDR     (with --dist) also accept external workers on ADDR\n\
         \x20 --checkpoint P    one-plan journal: completed jobs append to P, a rerun\n\
         \x20                   resumes it; an old pre-journal checkpoint is refused\n\
         \x20 --batch N         jobs per shard (default: pending/(workers*4))\n\
         \x20 --connect ADDR    be a worker for the coordinator at ADDR instead\n\n\
         CHAOS / FAULT TOLERANCE (with --dist):\n\
         \x20 --chaos-seed N        deterministic fault injection on worker uplinks\n\
         \x20 --chaos-profile NAME  mild (default) | storm | drops | corrupt\n\
         \x20 --max-job-failures K  strikes before a job is quarantined (default 3)\n\
         \x20 --verify-fraction F   re-execute this fraction of jobs on a second\n\
         \x20                       worker and cross-check results bit-for-bit\n\
         \x20 --fail-after N        crash the first spawned worker after N results\n\
         \x20 Quarantined jobs export as sibling NAME.quarantine.csv/json artifacts\n\
         \x20 (header-only when nothing was quarantined).\n\n\
         SWEEP SERVICE (persistent daemon + submitting clients):\n\
         \x20 --daemon          serve submitted plans until drained; requires --listen\n\
         \x20                   (the service address) and --journal (durability)\n\
         \x20 --journal PATH    write-ahead log: every admission/result/completion is\n\
         \x20                   flushed per record; a restarted daemon replays it and\n\
         \x20                   resumes queued and in-flight sweeps (kill -9 safe)\n\
         \x20 --max-queue N     admission bound; beyond it submits get Busy (default 8)\n\
         \x20 --lease-secs N    plan lease: queued plans whose client vanishes this\n\
         \x20                   long are cancelled, unfetched results released (300)\n\
         \x20 --submit ADDR     send this plan to the daemon at ADDR, poll, fetch, and\n\
         \x20                   export locally; submission is fingerprint-deduped, so\n\
         \x20                   blind retries are exactly-once\n\
         \x20 --drain           (with --submit) ask the daemon to finish and exit\n\
         \x20 --retry-max N     client retry budget per operation (default 8)\n\
         \x20 --retry-base-ms N first backoff delay; doubles per retry, jittered (100)\n\
         \x20 --chaos-seed/--chaos-profile with --submit perturb the submit link\n\n\
         TELEMETRY (strictly out-of-band; exports stay byte-identical):\n\
         \x20 --telemetry           collect tick-phase profiles, job wall times, cert\n\
         \x20                       decline reasons, and fleet runtime metrics; writes\n\
         \x20                       a sibling NAME.telemetry.json next to --csv/--json\n\
         \x20 --telemetry-out NAME  telemetry artifact name (requires --telemetry)\n\
         \x20 --metrics-listen ADDR serve live Prometheus-style metrics from the\n\
         \x20                       coordinator for the run's duration (requires --dist)\n\n\
         SCENARIO REGISTRY:\n\
         \x20 --scenario-dir DIR loads every *.scn definition in DIR instead of the\n\
         \x20 built-in catalog; --scenarios then filters by name or tag with * globs\n\
         \x20 (e.g. --scenarios 'Cut-*,following'), and 'all' keeps every definition.\n\n\
         Without --scenario-dir, scenario indexes follow Table-1 order\n\
         (0 = Cut-out ... 8 = Front & right 3).\n\
         Per-camera plan indexes follow catalog order (0 = front-heavy, 1 = side-heavy,\n\
         2 = economy, 3 = rear-heavy). --csv/--json write into results/ under the\n\
         working directory. Distributed exports are byte-identical to single-process\n\
         exports (worker count, shard shape, crashes and resumes never change the output)."
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}\n");
            }
            usage();
            return if message.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            };
        }
    };

    // Daemon mode: serve submitted plans until drained; clients own
    // plans and exports.
    if args.daemon {
        let config = DaemonConfig {
            listen: args
                .listen
                .clone()
                .expect("validated: --daemon requires --listen"),
            journal: args
                .journal
                .clone()
                .expect("validated: --daemon requires --journal"),
            spawn_workers: args.workers,
            worker_binary: None,
            max_queue: args.max_queue.unwrap_or(8),
            lease: Duration::from_secs(args.lease_secs.unwrap_or(300)),
            batch_size: args.batch,
            heartbeat_timeout: Duration::from_secs(30),
            max_job_failures: args.max_job_failures.unwrap_or(3),
            telemetry: args.telemetry,
        };
        println!(
            "fleet_sweep: sweep daemon on {} (journal {}, {} spawned workers, queue {})",
            config.listen,
            config.journal.display(),
            config.spawn_workers,
            config.max_queue,
        );
        return match run_daemon(&config) {
            Ok(report) => {
                let s = report.stats;
                println!(
                    "daemon drained: {} plans admitted ({} deduped, {} shed), {} completed, \
                     {} cancelled, {} replayed from journal ({} journaled results resumed)",
                    s.plans_admitted,
                    s.submits_deduped,
                    s.submits_shed,
                    s.plans_completed,
                    s.plans_cancelled,
                    s.plans_replayed,
                    s.resumed_results,
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Drain: a client operation that needs no plan.
    if args.drain {
        let config = client_config(&args);
        return match client::drain(&config) {
            Ok(queued) => {
                println!("daemon draining: {queued} plan(s) left to finish before it exits");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Worker mode: join a coordinator elsewhere; it owns plan and exports.
    if let Some(addr) = &args.connect {
        println!("fleet_sweep: joining coordinator at {addr} as a worker");
        return match run_worker(&WorkerOptions::new(addr.clone())) {
            Ok(executed) => {
                println!("worker done: executed {executed} jobs");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut builder = SweepPlan::builder()
        .sources(args.scenarios.iter().cloned())
        .jittered_variants(args.variants);
    builder = match args.mode {
        Mode::Msf => builder.min_safe_fpr(args.rates.clone()),
        Mode::Probe => builder.probe(args.fpr, args.traces),
        Mode::PerCamera => {
            builder.probe_per_camera_plans(args.plans.iter().map(|p| p.rates.to_vec()), args.traces)
        }
        Mode::Analyze => builder.analyze(args.fpr, args.predictor, args.stride),
    };
    let plan = builder.build();

    println!(
        "fleet_sweep: {} jobs ({} scenarios x {} variants), {} {}",
        plan.len(),
        args.scenarios.len(),
        args.variants,
        args.workers,
        if args.dist {
            "worker processes"
        } else {
            "worker threads"
        }
    );

    let options = ExecOptions {
        per_rate: args.per_rate,
    };
    let start = Instant::now();
    let mut quarantine: Option<QuarantineManifest> = None;
    let telemetry_snapshot: Option<zhuyi_telemetry::Snapshot>;
    let store = if let Some(addr) = &args.submit {
        // Client mode: the daemon executes; this process submits, waits,
        // fetches, and exports. The merged store is byte-identical to a
        // local run of the same plan.
        telemetry_snapshot = None;
        println!("fleet_sweep: submitting plan to the sweep daemon at {addr}");
        match run_via_daemon(&client_config(&args), &plan, options) {
            Ok(store) => store,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if args.dist {
        let config = DistConfig {
            spawn_workers: args.workers,
            listen: args.listen.clone(),
            checkpoint: args.checkpoint.clone(),
            batch_size: args.batch,
            options,
            chaos: args.chaos_seed.map(|seed| ChaosSpec {
                seed,
                profile: args
                    .chaos_profile
                    .unwrap_or_else(|| dcli::parse_chaos_profile("mild").expect("built-in")),
            }),
            max_job_failures: args.max_job_failures.unwrap_or(3),
            verify_fraction: args.verify_fraction.unwrap_or(0.0),
            worker_extra_args: args
                .fail_after
                .map(|n| vec![vec!["--fail-after".to_string(), n.to_string()]])
                .unwrap_or_default(),
            telemetry: args.telemetry,
            metrics_listen: args.metrics_listen.clone(),
            // Telemetry runs own a flight-dump directory so panic,
            // deadline, and quarantine post-mortems land next to the
            // other artifacts.
            flight_dir: args
                .telemetry
                .then(|| zhuyi_bench::results_dir().join("flight")),
            ..DistConfig::default()
        };
        let report = match run_distributed(&plan, &config) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        telemetry_snapshot = report.telemetry.filter(|_| args.telemetry);
        let s = report.stats;
        println!(
            "distributed: {} workers ({} lost, {} respawned), {} shards ({} reassigned, \
             {} jobs stolen, {} duplicate results), {} jobs resumed from checkpoint",
            s.workers_connected,
            s.workers_lost,
            s.workers_respawned,
            s.batches_assigned,
            s.batches_reassigned,
            s.jobs_stolen,
            s.duplicate_results,
            s.resumed_jobs,
        );
        if s.job_failures > 0 || s.jobs_quarantined > 0 || s.verify_jobs > 0 {
            println!(
                "fault tolerance: {} job failures ({} deadline strikes), {} quarantined, \
                 {} cross-checked jobs ({} confirmed), {} respawn failures",
                s.job_failures,
                s.deadline_strikes,
                s.jobs_quarantined,
                s.verify_jobs,
                s.verify_confirmed,
                s.respawn_failures,
            );
        }
        quarantine = Some(report.quarantine);
        report.store
    } else {
        // Local telemetry: install a registry for the sweep's duration;
        // the pool gives each worker thread a shard registry and folds
        // them back deterministically. Strictly out-of-band — the store
        // (and every export) is byte-identical with or without it.
        let registry = args
            .telemetry
            .then(|| std::sync::Arc::new(zhuyi_telemetry::Registry::new()));
        let guard = registry.as_ref().map(zhuyi_telemetry::install);
        let store = run_sweep_with(&plan, args.workers, options);
        drop(guard);
        telemetry_snapshot = registry.map(|reg| reg.snapshot());
        store
    };
    let elapsed = start.elapsed();
    println!(
        "completed {} jobs in {:.2}s ({:.1} jobs/s)\n",
        store.len(),
        elapsed.as_secs_f64(),
        store.len() as f64 / elapsed.as_secs_f64().max(1e-9),
    );

    if args.baseline {
        let start = Instant::now();
        let sequential = run_sweep_with(&plan, 1, options);
        let baseline = start.elapsed();
        assert_eq!(
            sequential.to_csv(),
            store.to_csv(),
            "parallel and sequential sweeps must merge identically"
        );
        println!(
            "single-thread baseline: {:.2}s -> speedup {:.2}x on {} workers (identical output)\n",
            baseline.as_secs_f64(),
            baseline.as_secs_f64() / elapsed.as_secs_f64().max(1e-9),
            args.workers
        );
    }

    if let Some(manifest) = quarantine.as_ref().filter(|m| !m.is_empty()) {
        eprintln!(
            "warning: {} job(s) quarantined after repeated failures; the exports below \
             cover completed jobs only",
            manifest.len()
        );
        println!("{}", manifest.to_table().render());
    }

    println!("{}", store.summary_table().render());

    if let Some(name) = &args.csv {
        let path = zhuyi_bench::write_results(name, &store.to_csv());
        println!("wrote {}", path.display());
        if let Some(manifest) = &quarantine {
            let path = zhuyi_bench::write_results(&quarantine_name(name), &manifest.to_csv());
            println!("wrote {}", path.display());
        }
    }
    if let Some(name) = &args.json {
        let path = zhuyi_bench::write_results(name, &store.to_json());
        println!("wrote {}", path.display());
        if let Some(manifest) = &quarantine {
            let path = zhuyi_bench::write_results(&quarantine_name(name), &manifest.to_json());
            println!("wrote {}", path.display());
        }
    }
    if args.traces {
        for (name, csv) in store.kept_traces() {
            let path = zhuyi_bench::write_results(&name, csv);
            println!("wrote {}", path.display());
        }
    }
    if let Some(snapshot) = &telemetry_snapshot {
        let name = args.telemetry_out.clone().unwrap_or_else(|| {
            args.json
                .as_deref()
                .or(args.csv.as_deref())
                .map_or_else(|| "telemetry.json".to_string(), telemetry_name)
        });
        let path = zhuyi_bench::write_results(&name, &snapshot.to_json());
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}
