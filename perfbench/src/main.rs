//! `perfbench` — the end-to-end and per-layer benchmark of the Zhuyi
//! reproduction.
//!
//! ```text
//! perfbench --workload online|table1|all
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Untraced (`--trace 0`), a workload runs its closed loop for `S`
//! seconds and reports the end-to-end metrics. Traced (`--trace 1`), it
//! runs the first half untraced and the second half with a span around
//! every call into a layer, then reports the per-layer metrics. Either
//! way it checks every output, prints a human-readable report, and ends
//! with one JSON line. `all` runs both workloads one after another in
//! this process. Run it from the repository root; output files go to
//! `perfbench/out/`.
//!
//! The binary is also the sweep worker that the coordinator and the
//! daemon of the traced `table1` run's probes spawn (`--connect
//! HOST:PORT ...`).

mod calib;
mod distd;
mod inputs;
mod layers;
mod online;
mod probe;
mod report;
mod rss;
mod stats;
mod table1;
mod trace;

use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;

/// The benchmark's workloads, in the order `all` runs them.
const WORKLOADS: [&str; 2] = ["online", "table1"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// The seed every input derives from.
    pub seed: u64,
    /// Length of the measured phase, s.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

fn usage() -> &'static str {
    "usage: perfbench --workload online|table1|all \
     --seed N --seconds S --trace 0|1"
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Directory for run output (spans, journals, worker reports).
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

/// A sweep's CSV and JSON exports.
pub fn exports(store: &zhuyi_fleet::ResultStore) -> (String, String) {
    (store.to_csv(), store.to_json())
}

/// FNV-1a digest of a sweep's CSV and JSON exports.
pub fn digest(store: &zhuyi_fleet::ResultStore) -> u64 {
    let (csv, json) = exports(store);
    [csv.as_bytes(), &[0], json.as_bytes()]
        .concat()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h: u64, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// This executable, which doubles as the sweep worker.
pub fn worker_binary() -> PathBuf {
    std::env::current_exe().expect("locate the benchmark executable")
}

/// Worker mode: the flags the coordinator and the daemon pass to a
/// spawned `fleet_shard`.
fn worker(args: &[String]) -> ExitCode {
    let mut connect = None;
    let mut name = None;
    let mut spawned = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--connect" => connect = it.next().cloned(),
            "--name" => name = it.next().cloned(),
            "--spawned" => spawned = true,
            other => {
                eprintln!("perfbench worker: unknown flag {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(connect) = connect else {
        eprintln!("perfbench worker: --connect is required");
        return ExitCode::from(2);
    };
    let mut options = zhuyi_distd::WorkerOptions::new(connect);
    if let Some(name) = name {
        options.name = name;
    }
    options.spawned = spawned;
    let result = zhuyi_distd::run_worker(&options);
    rss::report_worker_peak();
    match result {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench worker[{}]: {e}", options.name);
            ExitCode::FAILURE
        }
    }
}

fn run_one(args: &Args, calib: &mut calib::Calibrator) -> Outcome {
    match args.workload.as_str() {
        "online" => online::run(args, calib),
        "table1" => table1::run(args, calib),
        other => unreachable!("workload {other} was validated"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "--connect") {
        return worker(&argv);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut total = Outcome::default();
    for name in names {
        if let Err(e) = rss::collect_workers_into(&out_dir().join("rss")) {
            eprintln!("perfbench: cannot prepare {}: {e}", out_dir().display());
            return ExitCode::FAILURE;
        }
        let one = Args {
            workload: name.to_string(),
            ..args.clone()
        };
        let mut calib = calib::Calibrator::new(calib::threads(name));
        let outcome = run_one(&one, &mut calib);
        let mode = if args.trace { "traced" } else { "untraced" };
        print!(
            "{}",
            outcome.render(&format!(
                "{name} (seed {}, {} s, {mode})",
                args.seed, args.seconds
            ))
        );
        total.attempted += outcome.attempted;
        total.failed += outcome.failed;
        total.checks.extend(outcome.checks);
        if args.workload == "all" {
            total
                .metrics
                .extend(outcome.metrics.into_iter().map(|mut m| {
                    m.name = format!("{name}/{}", m.name);
                    m
                }));
        } else {
            total.metrics = outcome.metrics;
        }
    }
    // A printed result carries its own verdict in `correct`.
    println!("{}", total.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a =
            parse_args(&argv("--workload table1 --seed 3 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("table1", 3, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload online --seed 3 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload online --seconds 1")).is_err());
    }
}
