//! `fleet_shard` — one sweep worker process, and the only way to start
//! one.
//!
//! Connects to a `fleet_sweep --dist` coordinator or a `fleet_sweep
//! --daemon`, executes the shards it is assigned through the fleet
//! engine's metrics-only execution path, and streams each job's result
//! back the moment it finishes. Normally spawned by the coordinator
//! itself; run it by hand (or on another host) to join a coordinator that
//! passed `--listen`. `--help` prints every flag.
//!
//! `--spawned` marks the worker as coordinator-spawned (eligible for
//! respawn after a crash). The remaining flags are fault-injection hooks
//! for the chaos and crash-recovery tests: `--fail-after N` exits hard
//! (code 17) after streaming N results; `--chaos-seed`/`--chaos-profile`
//! inject a deterministic fault stream into every outbound frame;
//! `--poison-job ID` panics executing that job (containment turns it into
//! a `JobFailed` strike); `--wedge-job ID` hangs on that job forever;
//! `--corrupt-job ID[:DELTA]` perturbs that job's result (detected by
//! `--verify-fraction` cross-checking); `--slow-start MS` delays the
//! connect.

use std::process::ExitCode;
use std::time::Duration;
use zhuyi_distd::cli::{parse_addr, parse_chaos_profile, parse_count};
use zhuyi_distd::{run_worker, ChaosSpec, WorkerOptions};

const USAGE: &str = "USAGE:
  fleet_shard --connect HOST:PORT [--name NAME] [--spawned]
              [--fail-after N] [--chaos-seed N] [--chaos-profile NAME]
              [--poison-job ID] [--wedge-job ID] [--corrupt-job ID[:DELTA]]
              [--slow-start MS]

fleet_shard — distributed sweep worker

Joins the fleet coordinator at HOST:PORT (a `fleet_sweep --dist` or
`fleet_sweep --daemon` run that passed --listen), executes assigned job
shards and streams results back.

FAULT INJECTION (chaos / crash-recovery tests):
  --fail-after N         exit hard (code 17) after N results
  --chaos-seed N         deterministic faults on every outbound frame
  --chaos-profile NAME   mild (default) | storm | drops | corrupt
  --poison-job ID        panic executing job ID (contained -> JobFailed)
  --wedge-job ID         hang forever on job ID (deadline fodder)
  --corrupt-job ID[:D]   perturb job ID's result by D*n on the n-th run
  --slow-start MS        sleep MS ms before connecting";

/// `ID` or `ID:DELTA` (delta defaults to 1; the n-th corruption shifts
/// the result by `delta * n`, so two corrupt executions never agree).
fn parse_corrupt_job(spec: &str) -> Result<(u64, u64), String> {
    let (id, delta) = spec.trim().split_once(':').unwrap_or((spec, "1"));
    let flag = "--corrupt-job ID[:DELTA]";
    Ok((parse_count(flag, id, 0)?, parse_count(flag, delta, 1)?))
}

fn parse(argv: Vec<String>) -> Result<WorkerOptions, String> {
    let mut connect: Option<String> = None;
    let mut options = WorkerOptions::new(String::new());
    let mut chaos_seed: Option<u64> = None;
    let mut chaos_profile = None;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--connect" => connect = Some(parse_addr(&flag, &value()?)?),
            "--name" => options.name = value()?,
            "--spawned" => options.spawned = true,
            "--fail-after" => options.fail_after = Some(parse_count(&flag, &value()?, 1)?),
            "--chaos-seed" => chaos_seed = Some(parse_count(&flag, &value()?, 0)?),
            "--chaos-profile" => chaos_profile = Some(parse_chaos_profile(&value()?)?),
            "--poison-job" => options.poison_job = Some(parse_count(&flag, &value()?, 0)?),
            "--wedge-job" => options.wedge_job = Some(parse_count(&flag, &value()?, 0)?),
            "--corrupt-job" => options.corrupt_job = Some(parse_corrupt_job(&value()?)?),
            "--slow-start" => {
                let ms = parse_count(&flag, &value()?, 0)?;
                options.slow_start = Some(Duration::from_millis(ms));
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    options.connect = connect.ok_or_else(|| "--connect HOST:PORT is required".to_string())?;
    if chaos_profile.is_some() && chaos_seed.is_none() {
        return Err("--chaos-profile requires --chaos-seed (the fault stream is seeded)".into());
    }
    let profile = chaos_profile.map_or_else(|| parse_chaos_profile("mild"), Ok)?;
    options.chaos = chaos_seed.map(|seed| ChaosSpec { seed, profile });
    Ok(options)
}

fn main() -> ExitCode {
    let options = zhuyi_bench::command_line(USAGE, parse);
    match run_worker(&options) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fleet_shard[{}]: {e}", options.name);
            ExitCode::FAILURE
        }
    }
}
