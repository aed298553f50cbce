//! `fleet_sweep` — run a fleet-scale scenario sweep from the command
//! line: on this process's thread pool, sharded across `fleet_shard`
//! worker processes and hosts, or through a persistent sweep daemon.
//!
//! The paper's pre-deployment workflow (§3.1) at corpus scale: expand the
//! nine Table-1 scenarios into jittered variants, fan the resulting jobs
//! across workers, and aggregate/export the merged results. Defaults
//! reproduce Table 1 fleet-style: `--mode msf --scenarios all --variants
//! 10` over the paper's rate grid, on all available cores. `--help`
//! prints every flag.
//!
//! **Roles.** `--dist`, `--daemon` and `--submit` pick what one
//! invocation does; without any of them it sweeps locally. The table
//! [`FLAGS`] lists every flag once with the roles that read it and, for
//! plan flags, the modes they apply to: any other use is a usage error
//! (exit 2), never a silently ignored flag.
//!
//! **Distributed sweeps.** `--dist` shards the sweep across `--workers N`
//! spawned `fleet_shard` OS processes (plus any external workers when
//! `--listen HOST:PORT` is given); exports stay byte-identical to the
//! single-process run. `--checkpoint PATH` makes the run resumable (the
//! file is a one-plan journal; an old pre-journal checkpoint is refused)
//! and `--batch N` pins the shard size. On other hosts, `fleet_shard
//! --connect HOST:PORT` joins the coordinator as a worker.
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
//! per-job wall times, cert-decline reason counters, and (in dist and
//! daemon runs) wire/runtime metrics folded from every worker — strictly
//! out-of-band, exports stay byte-identical — and writes a sibling
//! `NAME.telemetry.json` (override with `--telemetry-out NAME`; a daemon
//! writes `telemetry.json` when it drains). `--metrics-listen ADDR` (dist
//! only) additionally serves a live Prometheus-style plaintext exposition
//! from the coordinator.

use av_scenarios::catalog::{PerCameraPlan, PAPER_RATE_GRID, PER_CAMERA_PLANS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use zhuyi_distd::cli::{
    parse_addr, parse_chaos_profile, parse_count, parse_journal, parse_verify_fraction,
};
use zhuyi_distd::{
    client, run_daemon, run_distributed, run_via_daemon, ChaosProfile, ChaosSpec, ClientConfig,
    DaemonConfig, DistConfig,
};
use zhuyi_fleet::{cli, pool, run_sweep_with, ExecOptions, PredictorChoice, SweepPlan};
use zhuyi_registry::{Registry, ScenarioSource};
use zhuyi_telemetry::Snapshot;

const USAGE: &str = "USAGE:
  fleet_sweep [--mode msf|probe|percam|analyze] [--scenarios all|0,1,5]
              [--scenario-dir DIR] [--variants N] [--workers N] [--rates 1,2,...,30]
              [--fpr F] [--plans all|0,2] [--predictor oracle|cv|ca]
              [--stride N] [--csv NAME] [--json NAME] [--traces]
              [--per-rate] [--baseline]
              [--dist] [--listen ADDR] [--checkpoint PATH] [--batch N]
              [--chaos-seed N] [--chaos-profile NAME]
              [--max-job-failures K] [--verify-fraction F] [--fail-after N]
              [--telemetry] [--telemetry-out NAME] [--metrics-listen ADDR]
              [--daemon --listen ADDR --journal PATH [--max-queue N] [--lease-secs N]]
              [--submit ADDR [--drain] [--retry-max N] [--retry-base-ms N]]

fleet_sweep — parallel fleet-scale scenario sweeps (threads or processes)

MODES:
  msf      search each instance's minimum safe rate over --rates (default),
           every candidate rate as a lane of one lockstep pass; --per-rate
           runs the per-rate reference search instead (identical exports)
  probe    run each instance closed-loop at --fpr and record collisions
  percam   probe each instance against the heterogeneous per-camera rate
           plans selected by --plans (catalog presets, see below)
  analyze  run at --fpr, then Zhuyi-analyze the trace with --predictor

DISTRIBUTION:
  --dist            shard across --workers N spawned fleet_shard processes
  --listen ADDR     (with --dist) also accept external workers on ADDR; start
                    them with `fleet_shard --connect ADDR` (--workers 0: only
                    external workers)
  --checkpoint P    one-plan journal: completed jobs append to P, a rerun
                    resumes it; an old pre-journal checkpoint is refused
  --batch N         jobs per shard (default: pending/(workers*4))

CHAOS / FAULT TOLERANCE (with --dist):
  --chaos-seed N        deterministic fault injection on worker uplinks
  --chaos-profile NAME  mild (default) | storm | drops | corrupt
  --max-job-failures K  strikes before a job is quarantined (default 3)
  --verify-fraction F   re-execute this fraction of jobs on a second
                        worker and cross-check results bit-for-bit
  --fail-after N        crash the first spawned worker after N results
  Quarantined jobs export as sibling NAME.quarantine.csv/json artifacts
  (header-only when nothing was quarantined).

SWEEP SERVICE (persistent daemon + submitting clients):
  --daemon          serve submitted plans until drained; requires --listen
                    (the service address) and --journal (durability)
  --journal PATH    write-ahead log: every admission/result/completion is
                    flushed per record; a restarted daemon replays it and
                    resumes queued and in-flight sweeps (kill -9 safe)
  --max-queue N     admission bound; beyond it submits get Busy (default 8)
  --lease-secs N    plan lease: queued plans whose client vanishes this
                    long are cancelled, unfetched results released (300)
  --submit ADDR     send this plan to the daemon at ADDR, poll, fetch, and
                    export locally; submission is fingerprint-deduped, so
                    blind retries are exactly-once
  --drain           (with --submit, and no plan) ask the daemon to finish
                    and exit
  --retry-max N     client retry budget per operation (default 8)
  --retry-base-ms N first backoff delay; doubles per retry, jittered (100)
  --chaos-seed/--chaos-profile with --submit perturb the submit link

TELEMETRY (strictly out-of-band; exports stay byte-identical):
  --telemetry           collect tick-phase profiles, job wall times, cert
                        decline reasons, and fleet runtime metrics; writes
                        a sibling NAME.telemetry.json next to --csv/--json,
                        else telemetry.json (a daemon writes it on drain)
  --telemetry-out NAME  telemetry artifact name (requires --telemetry)
  --metrics-listen ADDR serve live Prometheus-style metrics from the
                        coordinator for the run's duration (requires --dist)

SCENARIO REGISTRY:
  --scenario-dir DIR loads every *.scn definition in DIR instead of the
  built-in catalog; --scenarios then filters by name or tag with * globs
  (e.g. --scenarios 'Cut-*,following'), and 'all' keeps every definition.

Without --scenario-dir, scenario indexes follow Table-1 order
(0 = Cut-out ... 8 = Front & right 3).
Per-camera plan indexes follow catalog order (0 = front-heavy, 1 = side-heavy,
2 = economy, 3 = rear-heavy). --csv/--json write into results/ under the
working directory. Distributed exports are byte-identical to single-process
exports (worker count, shard shape, crashes and resumes never change the output).";

/// What one invocation does, picked by `--dist`, `--daemon`, `--submit`
/// and `--drain`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Sweep on this process's thread pool.
    Local,
    /// Coordinate spawned (and, with `--listen`, external) workers.
    Dist,
    /// Serve submitted plans until drained.
    Daemon,
    /// Run the plan through a daemon and export its results.
    Submit,
    /// Ask a daemon to finish everything admitted and exit.
    Drain,
}

impl Role {
    /// The flag that selects the role.
    fn selector(self) -> &'static str {
        match self {
            Role::Local => "a local sweep",
            Role::Dist => "--dist",
            Role::Daemon => "--daemon",
            Role::Submit | Role::Drain => "--submit",
        }
    }

    /// The role as usage errors name it.
    fn name(self) -> &'static str {
        match self {
            Role::Drain => "--submit --drain",
            _ => self.selector(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Msf,
    Probe,
    PerCamera,
    Analyze,
}

impl Mode {
    const ALL: &'static [Mode] = &[Mode::Msf, Mode::Probe, Mode::PerCamera, Mode::Analyze];

    fn name(self) -> &'static str {
        match self {
            Mode::Msf => "msf",
            Mode::Probe => "probe",
            Mode::PerCamera => "percam",
            Mode::Analyze => "analyze",
        }
    }
}

/// The roles that build a plan and export its results.
const PLANNING: &[Role] = &[Role::Local, Role::Dist, Role::Submit];
/// The roles that execute jobs, on threads or through workers.
const EXECUTING: &[Role] = &[Role::Local, Role::Dist, Role::Daemon];
/// The roles that talk to a daemon as its client.
const CLIENT: &[Role] = &[Role::Submit, Role::Drain];

/// Every flag `fleet_sweep` reads, once: the roles that read it and the
/// modes it applies to. [`parse`] rejects a flag given outside either.
const FLAGS: &[(&str, &[Role], &[Mode])] = &[
    ("--mode", PLANNING, Mode::ALL),
    ("--scenarios", PLANNING, Mode::ALL),
    ("--scenario-dir", PLANNING, Mode::ALL),
    ("--variants", PLANNING, Mode::ALL),
    ("--rates", PLANNING, &[Mode::Msf]),
    ("--per-rate", PLANNING, &[Mode::Msf]),
    ("--fpr", PLANNING, &[Mode::Probe, Mode::Analyze]),
    ("--traces", PLANNING, &[Mode::Probe, Mode::PerCamera]),
    ("--plans", PLANNING, &[Mode::PerCamera]),
    ("--predictor", PLANNING, &[Mode::Analyze]),
    ("--stride", PLANNING, &[Mode::Analyze]),
    ("--csv", PLANNING, Mode::ALL),
    ("--json", PLANNING, Mode::ALL),
    ("--baseline", PLANNING, Mode::ALL),
    ("--workers", EXECUTING, Mode::ALL),
    ("--telemetry", EXECUTING, Mode::ALL),
    ("--telemetry-out", EXECUTING, Mode::ALL),
    ("--dist", &[Role::Dist], Mode::ALL),
    ("--listen", &[Role::Dist, Role::Daemon], Mode::ALL),
    ("--checkpoint", &[Role::Dist], Mode::ALL),
    ("--batch", &[Role::Dist, Role::Daemon], Mode::ALL),
    ("--max-job-failures", &[Role::Dist, Role::Daemon], Mode::ALL),
    ("--verify-fraction", &[Role::Dist], Mode::ALL),
    ("--fail-after", &[Role::Dist], Mode::ALL),
    ("--metrics-listen", &[Role::Dist], Mode::ALL),
    (
        "--chaos-seed",
        &[Role::Dist, Role::Submit, Role::Drain],
        Mode::ALL,
    ),
    (
        "--chaos-profile",
        &[Role::Dist, Role::Submit, Role::Drain],
        Mode::ALL,
    ),
    ("--daemon", &[Role::Daemon], Mode::ALL),
    ("--journal", &[Role::Daemon], Mode::ALL),
    ("--max-queue", &[Role::Daemon], Mode::ALL),
    ("--lease-secs", &[Role::Daemon], Mode::ALL),
    ("--submit", CLIENT, Mode::ALL),
    ("--drain", &[Role::Drain], Mode::ALL),
    ("--retry-max", CLIENT, Mode::ALL),
    ("--retry-base-ms", CLIENT, Mode::ALL),
];

#[derive(Debug)]
struct Args {
    role: Role,
    mode: Mode,
    scenarios: Vec<ScenarioSource>,
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
    listen: Option<String>,
    checkpoint: Option<PathBuf>,
    batch: Option<usize>,
    chaos: Option<ChaosSpec>,
    max_job_failures: usize,
    verify_fraction: f64,
    fail_after: Option<u32>,
    telemetry: bool,
    telemetry_out: Option<String>,
    metrics_listen: Option<String>,
    journal: Option<PathBuf>,
    submit: Option<String>,
    max_queue: usize,
    lease_secs: u64,
    retry_max: u32,
    retry_base_ms: u64,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            role: Role::Local,
            mode: Mode::Msf,
            scenarios: Vec::new(),
            variants: 10,
            workers: pool::default_workers(),
            rates: PAPER_RATE_GRID.to_vec(),
            fpr: 30.0,
            plans: PER_CAMERA_PLANS.to_vec(),
            predictor: PredictorChoice::Oracle,
            stride: 20,
            csv: None,
            json: None,
            traces: false,
            per_rate: false,
            baseline: false,
            listen: None,
            checkpoint: None,
            batch: None,
            chaos: None,
            max_job_failures: 3,
            verify_fraction: 0.0,
            fail_after: None,
            telemetry: false,
            telemetry_out: None,
            metrics_listen: None,
            journal: None,
            submit: None,
            max_queue: 8,
            lease_secs: 300,
            retry_max: 8,
            retry_base_ms: 100,
        }
    }
}

/// Reads the command line (without the program name) against [`FLAGS`].
fn parse(argv: Vec<String>) -> Result<Args, String> {
    let mut args = Args::default();
    // `--scenarios` means different things with and without
    // `--scenario-dir` (Table-1 indexes vs registry name/tag filter), so
    // the raw spec is kept and resolved after the flag loop.
    let mut scenarios_spec = String::from("all");
    let mut scenario_dir: Option<PathBuf> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut chaos_profile: &'static ChaosProfile = parse_chaos_profile("mild")?;
    let mut given: Vec<(&str, &[Role], &[Mode])> = Vec::new();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let &(flag, roles, modes) = FLAGS
            .iter()
            .find(|entry| entry.0 == arg)
            .ok_or_else(|| format!("unknown flag {arg:?}"))?;
        given.push((flag, roles, modes));
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        // Switches are read from `given` below.
        match flag {
            "--mode" => {
                let name = value()?;
                args.mode = *Mode::ALL
                    .iter()
                    .find(|mode| mode.name() == name)
                    .ok_or_else(|| format!("unknown mode {name:?}"))?;
            }
            "--scenarios" => scenarios_spec = value()?,
            "--scenario-dir" => scenario_dir = Some(PathBuf::from(value()?)),
            "--variants" => args.variants = parse_count(flag, &value()?, 1)?,
            "--workers" => args.workers = parse_count(flag, &value()?, 0)?,
            "--rates" => args.rates = cli::parse_rates(&value()?)?,
            "--fpr" => {
                let spec = value()?;
                args.fpr = spec
                    .trim()
                    .parse()
                    .ok()
                    .filter(|fpr: &f64| fpr.is_finite() && *fpr > 0.0)
                    .ok_or_else(|| format!("--fpr must be positive and finite, got {spec:?}"))?;
            }
            "--plans" => args.plans = cli::parse_per_camera_plans(&value()?)?,
            "--predictor" => {
                args.predictor = match value()?.as_str() {
                    "oracle" => PredictorChoice::Oracle,
                    "cv" => PredictorChoice::ConstantVelocity,
                    "ca" => PredictorChoice::ConstantAcceleration,
                    other => return Err(format!("unknown predictor {other:?}")),
                }
            }
            "--stride" => args.stride = parse_count(flag, &value()?, 1)?,
            "--csv" => args.csv = Some(value()?),
            "--json" => args.json = Some(value()?),
            "--listen" => args.listen = Some(parse_addr(flag, &value()?)?),
            "--checkpoint" => args.checkpoint = Some(parse_journal(flag, &value()?)?),
            "--batch" => args.batch = Some(parse_count(flag, &value()?, 1)?),
            "--chaos-seed" => chaos_seed = Some(parse_count(flag, &value()?, 0)?),
            "--chaos-profile" => chaos_profile = parse_chaos_profile(&value()?)?,
            "--max-job-failures" => args.max_job_failures = parse_count(flag, &value()?, 1)?,
            "--verify-fraction" => args.verify_fraction = parse_verify_fraction(&value()?)?,
            "--fail-after" => args.fail_after = Some(parse_count(flag, &value()?, 1)?),
            "--telemetry-out" => args.telemetry_out = Some(value()?),
            "--metrics-listen" => args.metrics_listen = Some(parse_addr(flag, &value()?)?),
            "--journal" => args.journal = Some(parse_journal(flag, &value()?)?),
            "--max-queue" => args.max_queue = parse_count(flag, &value()?, 1)?,
            "--lease-secs" => args.lease_secs = parse_count(flag, &value()?, 1)?,
            "--submit" => args.submit = Some(parse_addr(flag, &value()?)?),
            "--retry-max" => args.retry_max = parse_count(flag, &value()?, 0)?,
            "--retry-base-ms" => args.retry_base_ms = parse_count(flag, &value()?, 1)?,
            _ => {}
        }
    }
    let has = |flag: &str| given.iter().any(|entry| entry.0 == flag);
    args.traces = has("--traces");
    args.per_rate = has("--per-rate");
    args.baseline = has("--baseline");
    args.telemetry = has("--telemetry");
    args.chaos = chaos_seed.map(|seed| ChaosSpec {
        seed,
        profile: chaos_profile,
    });

    let selectors: Vec<&str> = ["--dist", "--daemon", "--submit"]
        .into_iter()
        .filter(|flag| has(flag))
        .collect();
    if let [first, second, ..] = selectors[..] {
        return Err(format!("{first} and {second} are mutually exclusive"));
    }
    args.role = if has("--dist") {
        Role::Dist
    } else if has("--daemon") {
        Role::Daemon
    } else if args.submit.is_none() {
        Role::Local
    } else if has("--drain") {
        Role::Drain
    } else {
        Role::Submit
    };
    if let Some((flag, roles, _)) = given.iter().find(|entry| !entry.1.contains(&args.role)) {
        return Err(match args.role {
            Role::Local => format!("{flag} requires {}", roles[0].selector()),
            role => format!("{flag} does not apply to {}", role.name()),
        });
    }
    // A flag the mode would ignore quietly changes the safety question
    // asked (a dropped `--rates` or `--fpr`).
    if let Some((flag, ..)) = given.iter().find(|entry| !entry.2.contains(&args.mode)) {
        return Err(format!(
            "{flag} does not apply to --mode {}",
            args.mode.name()
        ));
    }
    // Flags that need a companion.
    if args.role == Role::Daemon && args.listen.is_none() {
        return Err("--daemon requires --listen (the service address)".to_string());
    }
    if args.role == Role::Daemon && args.journal.is_none() {
        return Err(
            "--daemon requires --journal (durability is the point of the daemon)".to_string(),
        );
    }
    if has("--chaos-profile") && chaos_seed.is_none() {
        return Err(
            "--chaos-profile requires --chaos-seed (the fault stream is seeded)".to_string(),
        );
    }
    if args.telemetry_out.is_some() && !args.telemetry {
        return Err(
            "--telemetry-out requires --telemetry (nothing to write otherwise)".to_string(),
        );
    }
    // `--listen` is read only by --dist and --daemon.
    if args.workers == 0 && args.listen.is_none() {
        return Err(
            "--workers 0 is only valid with --dist --listen or --daemon --listen \
             (external workers only)"
                .to_string(),
        );
    }

    args.scenarios = match &scenario_dir {
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
            .expect("client roles are selected by --submit"),
        name: format!("fleet_sweep-{}", std::process::id()),
        retry_max: args.retry_max,
        retry_base: Duration::from_millis(args.retry_base_ms),
        seed: args.chaos.map_or(0, |chaos| chaos.seed),
        chaos: args.chaos,
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

/// Writes the telemetry artifact: `--telemetry-out NAME`, else
/// `msf.json`/`msf.csv` → `msf.telemetry.json` next to the main export,
/// else `telemetry.json`. Always JSON, whatever the main export's format.
fn write_telemetry(args: &Args, snapshot: &Snapshot) {
    let name = args.telemetry_out.clone().unwrap_or_else(|| {
        match args.json.as_deref().or(args.csv.as_deref()) {
            Some(export) => match export.rsplit_once('.') {
                Some((stem, _)) => format!("{stem}.telemetry.json"),
                None => format!("{export}.telemetry.json"),
            },
            None => "telemetry.json".to_string(),
        }
    });
    let path = zhuyi_bench::write_results(&name, &snapshot.to_json());
    println!("wrote {}", path.display());
}

fn main() -> ExitCode {
    let args = zhuyi_bench::command_line(USAGE, parse);
    let outcome = match args.role {
        Role::Daemon => serve(&args),
        Role::Drain => client::drain(&client_config(&args))
            .map(|queued| {
                println!("daemon draining: {queued} plan(s) left to finish before it exits");
            })
            .map_err(|e| e.to_string()),
        Role::Local | Role::Dist | Role::Submit => sweep(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Daemon role: serve submitted plans until drained; clients own plans
/// and exports.
fn serve(args: &Args) -> Result<(), String> {
    let config = DaemonConfig {
        listen: args.listen.clone().expect("--daemon requires --listen"),
        journal: args.journal.clone().expect("--daemon requires --journal"),
        spawn_workers: args.workers,
        max_queue: args.max_queue,
        lease: Duration::from_secs(args.lease_secs),
        batch_size: args.batch,
        max_job_failures: args.max_job_failures,
        telemetry: args.telemetry,
        ..DaemonConfig::default()
    };
    println!(
        "fleet_sweep: sweep daemon on {} (journal {}, {} spawned workers, queue {})",
        config.listen,
        config.journal.display(),
        config.spawn_workers,
        config.max_queue,
    );
    let report = run_daemon(&config).map_err(|e| e.to_string())?;
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
    if let Some(snapshot) = &report.telemetry {
        write_telemetry(args, snapshot);
    }
    Ok(())
}

/// The planning roles: build the plan, run it locally, across workers or
/// through a daemon, and export the merged results.
fn sweep(args: &Args) -> Result<(), String> {
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

    let executor = match args.role {
        Role::Dist => format!("{} worker processes", args.workers),
        Role::Submit => "the sweep daemon".to_string(),
        _ => format!("{} worker threads", args.workers),
    };
    println!(
        "fleet_sweep: {} jobs ({} scenarios x {} variants), {executor}",
        plan.len(),
        args.scenarios.len(),
        args.variants,
    );

    let options = ExecOptions {
        per_rate: args.per_rate,
    };
    let start = Instant::now();
    let mut quarantine = None;
    let mut telemetry: Option<Snapshot> = None;
    let store = match args.role {
        Role::Submit => {
            // The daemon executes; this process submits, waits, fetches,
            // and exports. The merged store is byte-identical to a local
            // run of the same plan.
            let config = client_config(args);
            println!(
                "fleet_sweep: submitting plan to the sweep daemon at {}",
                config.addr
            );
            run_via_daemon(&config, &plan, options).map_err(|e| e.to_string())?
        }
        Role::Dist => {
            let config = DistConfig {
                spawn_workers: args.workers,
                listen: args.listen.clone(),
                checkpoint: args.checkpoint.clone(),
                batch_size: args.batch,
                options,
                chaos: args.chaos,
                max_job_failures: args.max_job_failures,
                verify_fraction: args.verify_fraction,
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
            let report = run_distributed(&plan, &config).map_err(|e| e.to_string())?;
            telemetry = report.telemetry.filter(|_| args.telemetry);
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
        }
        _ => {
            // Local telemetry: install a registry for the sweep's
            // duration; the pool gives each worker thread a shard
            // registry and folds them back deterministically. Strictly
            // out-of-band — the store (and every export) is
            // byte-identical with or without it.
            let registry = args
                .telemetry
                .then(|| std::sync::Arc::new(zhuyi_telemetry::Registry::new()));
            let guard = registry.as_ref().map(zhuyi_telemetry::install);
            let store = run_sweep_with(&plan, args.workers, options);
            drop(guard);
            telemetry = registry.map(|reg| reg.snapshot());
            store
        }
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
    if let Some(snapshot) = &telemetry {
        write_telemetry(args, snapshot);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(String::from).collect())
    }

    /// The shortest command line that takes `role`.
    fn role_line(role: Role) -> &'static str {
        match role {
            Role::Local => "",
            Role::Dist => "--dist",
            Role::Daemon => "--daemon --listen 127.0.0.1:0 --journal fleet.journal",
            Role::Submit => "--submit 127.0.0.1:7700",
            Role::Drain => "--submit 127.0.0.1:7700 --drain",
        }
    }

    /// `flag` with a well-formed value and any companion it needs.
    fn flag_line(flag: &str) -> String {
        let scenario_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
        let value = match flag {
            "--mode" => "msf",
            "--scenarios" | "--plans" => "all",
            "--scenario-dir" => scenario_dir,
            "--variants" | "--workers" | "--batch" | "--max-job-failures" | "--fail-after"
            | "--retry-max" => "2",
            "--rates" => "1,4,30",
            "--fpr" | "--stride" | "--max-queue" | "--lease-secs" | "--retry-base-ms" => "20",
            "--predictor" => "ca",
            "--csv" => "x.csv",
            "--json" => "x.json",
            "--listen" | "--metrics-listen" => "127.0.0.1:0",
            "--submit" => "127.0.0.1:7700",
            "--checkpoint" => "sweep.ckpt",
            "--journal" => "fleet.journal",
            "--chaos-seed" => "7",
            "--chaos-profile" => "storm --chaos-seed 7",
            "--verify-fraction" => "0.5",
            "--telemetry-out" => "t.json --telemetry",
            _ => "",
        };
        format!("{flag} {value}")
    }

    #[test]
    fn every_flag_is_read_in_its_first_role_and_mode() {
        for &(flag, roles, modes) in FLAGS {
            let mode = match modes[0] {
                Mode::Msf => String::new(),
                mode => format!("--mode {}", mode.name()),
            };
            let line = format!("{} {mode} {}", role_line(roles[0]), flag_line(flag));
            let args = run(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(args.role, roles[0], "{line}");
            assert_eq!(args.mode, modes[0], "{line}");
        }
    }

    #[test]
    fn accepted_combinations_parse() {
        for line in [
            "--telemetry",
            "--dist --checkpoint ckpt.bin --batch 4 --listen 127.0.0.1:0",
            "--dist --chaos-seed 7 --chaos-profile storm --max-job-failures 3 \
             --verify-fraction 0.5 --fail-after 2",
            "--dist --telemetry --telemetry-out t.json --metrics-listen 127.0.0.1:0",
            "--dist --workers 0 --listen 127.0.0.1:0",
            "--daemon --listen 127.0.0.1:0 --journal fleet.journal --max-queue 4 \
             --lease-secs 60 --telemetry --batch 4 --max-job-failures 3",
            "--daemon --listen 127.0.0.1:0 --journal fleet.journal --workers 0 \
             --telemetry --telemetry-out daemon.json",
            "--submit 127.0.0.1:7700 --retry-max 3 --retry-base-ms 50 --chaos-seed 7 \
             --chaos-profile storm --json out.json",
            "--submit 127.0.0.1:7700 --drain --retry-max 3 --chaos-seed 7",
            "--mode analyze --fpr 10 --predictor cv --stride 5 --csv a.csv",
            "--mode percam --plans 0,2 --traces",
        ] {
            if let Err(e) = run(line) {
                panic!("{line}: {e}");
            }
        }
        assert_eq!(
            run("--submit 127.0.0.1:7700 --drain").map(|a| a.role),
            Ok(Role::Drain)
        );
    }

    #[test]
    fn flags_outside_their_role_or_mode_are_named() {
        for (line, message) in [
            ("--batch 4", "--batch requires --dist"),
            ("--journal fj.j", "--journal requires --daemon"),
            ("--drain", "--drain requires --submit"),
            ("--retry-max 3", "--retry-max requires --submit"),
            (
                "--dist --journal fj.j",
                "--journal does not apply to --dist",
            ),
            ("--dist --drain", "--drain does not apply to --dist"),
            (
                "--daemon --listen 127.0.0.1:0 --journal fj.j --mode msf",
                "--mode does not apply to --daemon",
            ),
            (
                "--submit 127.0.0.1:7700 --workers 4",
                "--workers does not apply to --submit",
            ),
            (
                "--submit 127.0.0.1:7700 --drain --mode probe",
                "--mode does not apply to --submit --drain",
            ),
            (
                "--submit 127.0.0.1:7700 --drain --csv x.csv",
                "--csv does not apply to --submit --drain",
            ),
            (
                "--mode probe --rates 1,2",
                "--rates does not apply to --mode probe",
            ),
            ("--traces", "--traces does not apply to --mode msf"),
            (
                "--daemon --dist",
                "--dist and --daemon are mutually exclusive",
            ),
            (
                "--submit 127.0.0.1:7700 --daemon",
                "--daemon and --submit are mutually exclusive",
            ),
            ("--connect 127.0.0.1:7700", "unknown flag \"--connect\""),
        ] {
            assert_eq!(run(line).map(|_| ()), Err(message.to_string()), "{line}");
        }
    }

    #[test]
    fn companion_rules_hold() {
        for (line, hint) in [
            ("--daemon --journal fj.j", "--daemon requires --listen"),
            (
                "--daemon --listen 127.0.0.1:0",
                "--daemon requires --journal",
            ),
            (
                "--dist --chaos-profile storm",
                "--chaos-profile requires --chaos-seed",
            ),
            (
                "--telemetry-out t.json",
                "--telemetry-out requires --telemetry",
            ),
            ("--workers 0", "--workers 0 is only valid"),
            ("--dist --workers 0", "--workers 0 is only valid"),
        ] {
            let err = run(line).map(|_| ()).expect_err(line);
            assert!(err.starts_with(hint), "{line}: {err}");
        }
    }
}
