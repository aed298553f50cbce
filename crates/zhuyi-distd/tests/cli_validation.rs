//! The distribution CLIs must reject malformed flag values loudly: a
//! clear message on stderr and a non-zero exit code, never a silently
//! reinterpreted sweep — and must write the exports they do produce
//! where the caller runs them.

use std::process::{Command, Output};

fn fleet_sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fleet_sweep"))
        .args(args)
        .output()
        .expect("run fleet_sweep")
}

fn fleet_shard(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fleet_shard"))
        .args(args)
        .output()
        .expect("run fleet_shard")
}

/// Asserts a usage failure: exit code 2 and a message mentioning `hint`.
fn assert_rejected(out: &Output, hint: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "expected exit 2, got {:?}; stderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains("error:"),
        "stderr must carry an error line: {stderr}"
    );
    assert!(
        stderr.contains(hint),
        "stderr must mention {hint:?}: {stderr}"
    );
}

#[test]
fn exports_land_under_the_working_directory() {
    // `--csv NAME` writes `results/NAME` relative to where the binary
    // runs, not into the checkout it was built in.
    let dir = std::env::temp_dir().join(format!("fleet-sweep-cwd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_fleet_sweep"))
        .args([
            "--mode",
            "probe",
            "--scenarios",
            "0",
            "--variants",
            "1",
            "--csv",
            "x.csv",
        ])
        .current_dir(&dir)
        .output()
        .expect("run fleet_sweep");
    assert!(
        out.status.success(),
        "sweep failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read_to_string(dir.join("results").join("x.csv"))
        .expect("the CSV must land in <cwd>/results/x.csv");
    assert!(csv.lines().count() > 1, "the CSV holds no rows: {csv:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_refuses_an_old_journal_by_name_and_leaves_it_untouched() {
    // The previous journal version's header: the daemon stops before it
    // compacts or appends anything.
    let dir = std::env::temp_dir().join(format!("fleet-sweep-old-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("old.journal");
    std::fs::write(&path, b"ZHUYIDJ2").expect("write old journal");
    let journal = path.to_str().expect("UTF-8 temp path");
    let out = fleet_sweep(&[
        "--daemon",
        "--listen",
        "127.0.0.1:0",
        "--workers",
        "0",
        "--journal",
        journal,
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("header ZHUYIDJ2") && stderr.contains("reads ZHUYIDJ3"),
        "{stderr}"
    );
    assert_eq!(std::fs::read(&path).expect("reread"), b"ZHUYIDJ2");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_exits_zero() {
    assert_eq!(fleet_sweep(&["--help"]).status.code(), Some(0));
    assert_eq!(fleet_shard(&["--help"]).status.code(), Some(0));
}

#[test]
fn malformed_workers_values_are_rejected() {
    assert_rejected(&fleet_sweep(&["--workers", "zero"]), "--workers");
    assert_rejected(&fleet_sweep(&["--workers", "-3"]), "--workers");
    // 0 is reserved for an external-workers-only coordinator.
    assert_rejected(&fleet_sweep(&["--workers", "0"]), "--listen");
    assert_rejected(&fleet_sweep(&["--workers"]), "expects a value");
}

#[test]
fn malformed_connect_addresses_are_rejected() {
    assert_rejected(&fleet_shard(&["--connect", "127.0.0.1"]), "host:port");
    assert_rejected(&fleet_shard(&["--connect", "not an address"]), "--connect");
    assert_rejected(&fleet_shard(&["--connect", "nohost:"]), "--connect");
    assert_rejected(&fleet_shard(&[]), "--connect");
}

#[test]
fn malformed_checkpoint_paths_are_rejected() {
    assert_rejected(
        &fleet_sweep(&["--dist", "--checkpoint", "/no/such/dir/anywhere/sweep.ckpt"]),
        "does not exist",
    );
    assert_rejected(
        &fleet_sweep(&["--dist", "--checkpoint", ""]),
        "--checkpoint",
    );
}

#[test]
fn conflicting_distribution_flags_are_rejected() {
    assert_rejected(
        &fleet_sweep(&["--checkpoint", "sweep.ckpt"]),
        "requires --dist",
    );
    assert_rejected(&fleet_sweep(&["--batch", "4"]), "requires --dist");
    assert_rejected(
        &fleet_shard(&["--connect", "127.0.0.1:7700", "--json", "out.json"]),
        "--json",
    );
    assert_rejected(
        &fleet_shard(&["--connect", "127.0.0.1:7700", "--mode", "msf"]),
        "--mode",
    );
    assert_rejected(&fleet_sweep(&["--dist", "--batch", "0"]), "--batch");
}

#[test]
fn malformed_mode_specific_values_are_rejected() {
    assert_rejected(&fleet_sweep(&["--mode", "warp"]), "unknown mode");
    assert_rejected(
        &fleet_sweep(&["--mode", "percam", "--plans", "sideways"]),
        "unknown per-camera plan",
    );
    assert_rejected(
        &fleet_sweep(&["--mode", "percam", "--plans", "99"]),
        "out of 0..",
    );
    assert_rejected(&fleet_shard(&["--fail-after", "0"]), "--fail-after");
    // A zero stride would be read as 1 by the executor, yet the job
    // would carry (and be fingerprinted with) 0.
    assert_rejected(
        &fleet_sweep(&["--mode", "analyze", "--stride", "0"]),
        "--stride",
    );
}

#[test]
fn per_rate_is_rejected_where_it_would_be_ignored() {
    assert_rejected(&fleet_sweep(&["--record-traces"]), "unknown flag");
    // The per-rate switch only exists for the MSF candidate search.
    assert_rejected(
        &fleet_sweep(&["--mode", "probe", "--per-rate"]),
        "--per-rate",
    );
    // A worker receives its options from the coordinator with every
    // Assign frame; a local flag would be dead.
    assert_rejected(
        &fleet_shard(&["--connect", "127.0.0.1:7700", "--per-rate"]),
        "--per-rate",
    );
}

#[test]
fn malformed_chaos_values_are_rejected() {
    assert_rejected(
        &fleet_sweep(&["--dist", "--chaos-seed", "lots"]),
        "--chaos-seed",
    );
    assert_rejected(
        &fleet_sweep(&["--dist", "--chaos-seed", "-1"]),
        "--chaos-seed",
    );
    assert_rejected(
        &fleet_sweep(&[
            "--dist",
            "--chaos-seed",
            "7",
            "--chaos-profile",
            "hurricane",
        ]),
        "--chaos-profile",
    );
    // The unknown-profile message lists what is valid.
    let out = fleet_sweep(&["--dist", "--chaos-seed", "7", "--chaos-profile", "bogus"]);
    assert_rejected(&out, "storm");
    assert_rejected(&fleet_sweep(&["--dist", "--chaos-seed"]), "expects a value");
    assert_rejected(&fleet_shard(&["--chaos-seed", "many"]), "--chaos-seed");
    assert_rejected(
        &fleet_shard(&["--connect", "127.0.0.1:7700", "--chaos-profile", "storm"]),
        "--chaos-seed",
    );
}

#[test]
fn chaos_and_verify_flags_require_dist() {
    assert_rejected(&fleet_sweep(&["--chaos-seed", "7"]), "requires --dist");
    assert_rejected(
        &fleet_sweep(&["--max-job-failures", "3"]),
        "requires --dist",
    );
    assert_rejected(
        &fleet_sweep(&["--verify-fraction", "0.5"]),
        "requires --dist",
    );
    assert_rejected(&fleet_sweep(&["--fail-after", "2"]), "requires --dist");
    // A profile without a seed has no fault stream to shape.
    assert_rejected(
        &fleet_sweep(&["--dist", "--chaos-profile", "storm"]),
        "--chaos-seed",
    );
    // A worker has its own fault flags, not these coordinator knobs.
    assert_rejected(
        &fleet_shard(&["--connect", "127.0.0.1:7700", "--verify-fraction", "1"]),
        "--verify-fraction",
    );
}

#[test]
fn malformed_quarantine_and_verify_values_are_rejected() {
    assert_rejected(
        &fleet_sweep(&["--dist", "--max-job-failures", "0"]),
        "--max-job-failures",
    );
    assert_rejected(
        &fleet_sweep(&["--dist", "--max-job-failures", "three"]),
        "--max-job-failures",
    );
    for bad in ["1.5", "-0.1", "nan", "inf", "half"] {
        assert_rejected(
            &fleet_sweep(&["--dist", "--verify-fraction", bad]),
            "--verify-fraction",
        );
    }
    assert_rejected(
        &fleet_sweep(&["--dist", "--fail-after", "0"]),
        "--fail-after",
    );
}

#[test]
fn telemetry_flags_are_cross_validated() {
    // --metrics-listen binds a coordinator-side endpoint; without --dist
    // there is no coordinator to serve it.
    assert_rejected(
        &fleet_sweep(&["--metrics-listen", "127.0.0.1:9100"]),
        "requires --dist",
    );
    // --telemetry-out names the artifact --telemetry produces.
    assert_rejected(&fleet_sweep(&["--telemetry-out", "t.json"]), "--telemetry");
    assert_rejected(
        &fleet_sweep(&["--dist", "--telemetry-out", "t.json"]),
        "--telemetry",
    );
    // Malformed bind addresses are caught before any socket opens.
    assert_rejected(
        &fleet_sweep(&["--dist", "--metrics-listen", "nonsense"]),
        "--metrics-listen",
    );
    assert_rejected(&fleet_sweep(&["--telemetry-out"]), "expects a value");
    // A worker inherits telemetry from the Welcome handshake; local
    // flags would be dead.
    for flag in [
        &["--telemetry"][..],
        &["--telemetry-out", "t.json"][..],
        &["--metrics-listen", "127.0.0.1:9100"][..],
    ] {
        let mut args = vec!["--connect", "127.0.0.1:7700"];
        args.extend_from_slice(flag);
        assert_rejected(&fleet_shard(&args), flag[0]);
    }
}

#[test]
fn malformed_shard_fault_hooks_are_rejected() {
    let base = ["--connect", "127.0.0.1:7700"];
    let with = |extra: &[&str]| {
        let mut args = base.to_vec();
        args.extend_from_slice(extra);
        fleet_shard(&args)
    };
    assert_rejected(&with(&["--poison-job", "five"]), "--poison-job");
    assert_rejected(&with(&["--wedge-job", "-2"]), "--wedge-job");
    assert_rejected(&with(&["--corrupt-job", "5:"]), "--corrupt-job");
    assert_rejected(&with(&["--corrupt-job", "5:0"]), "--corrupt-job");
    assert_rejected(&with(&["--corrupt-job", ":3"]), "--corrupt-job");
    assert_rejected(&with(&["--corrupt-job", "x:y"]), "--corrupt-job");
    assert_rejected(&with(&["--slow-start", "soon"]), "--slow-start");
    assert_rejected(&with(&["--slow-start"]), "expects a value");
}

#[test]
fn daemon_mode_flags_are_cross_validated() {
    // --daemon without its two required companions.
    assert_rejected(&fleet_sweep(&["--daemon"]), "--listen");
    assert_rejected(
        &fleet_sweep(&["--daemon", "--listen", "127.0.0.1:0"]),
        "--journal",
    );
    // Malformed values for the daemon knobs.
    assert_rejected(
        &fleet_sweep(&[
            "--daemon",
            "--listen",
            "127.0.0.1:0",
            "--journal",
            "/no/such/dir/anywhere/fleet.journal",
        ]),
        "does not exist",
    );
    assert_rejected(&fleet_sweep(&["--journal", ""]), "--journal");
    let daemon = |extra: &[&str]| {
        let mut args = vec!["--daemon", "--listen", "127.0.0.1:0", "--journal", "fj.j"];
        args.extend_from_slice(extra);
        fleet_sweep(&args)
    };
    assert_rejected(&daemon(&["--max-queue", "0"]), "--max-queue");
    assert_rejected(&daemon(&["--max-queue", "full"]), "--max-queue");
    assert_rejected(&daemon(&["--lease-secs", "0"]), "--lease-secs");
    assert_rejected(&daemon(&["--lease-secs"]), "expects a value");
    // Mode conflicts: the daemon is neither a one-shot coordinator nor a
    // client nor a worker.
    assert_rejected(&daemon(&["--dist"]), "--dist");
    assert_rejected(&daemon(&["--submit", "127.0.0.1:7700"]), "--submit");
    assert_rejected(&daemon(&["--checkpoint", "sweep.ckpt"]), "--checkpoint");
    assert_rejected(&daemon(&["--drain"]), "--drain");
    assert_rejected(&daemon(&["--json", "out.json"]), "--json");
    // Plan-shaping flags belong to submitting clients.
    assert_rejected(&daemon(&["--mode", "msf"]), "--mode");
    assert_rejected(&daemon(&["--variants", "5"]), "--variants");
    // Daemon/client knobs floating free of their mode.
    assert_rejected(&fleet_sweep(&["--journal", "fj.j"]), "requires --daemon");
    assert_rejected(&fleet_sweep(&["--max-queue", "4"]), "requires --daemon");
    assert_rejected(&fleet_sweep(&["--lease-secs", "60"]), "requires --daemon");
}

#[test]
fn submit_mode_flags_are_cross_validated() {
    // Malformed daemon addresses are caught before any socket opens.
    assert_rejected(&fleet_sweep(&["--submit", "127.0.0.1"]), "host:port");
    assert_rejected(&fleet_sweep(&["--submit"]), "expects a value");
    let submit = |extra: &[&str]| {
        let mut args = vec!["--submit", "127.0.0.1:7700"];
        args.extend_from_slice(extra);
        fleet_sweep(&args)
    };
    // --submit hands the sweep to the daemon; local execution modes and
    // daemon-side knobs conflict.
    assert_rejected(&submit(&["--dist"]), "--dist");
    assert_rejected(&submit(&["--listen", "127.0.0.1:0"]), "--listen");
    assert_rejected(&submit(&["--connect", "127.0.0.1:7700"]), "--connect");
    assert_rejected(&submit(&["--checkpoint", "sweep.ckpt"]), "--checkpoint");
    assert_rejected(&submit(&["--journal", "fj.j"]), "--journal");
    assert_rejected(&submit(&["--max-queue", "4"]), "--max-queue");
    assert_rejected(&submit(&["--telemetry"]), "--telemetry");
    // The daemon sizes its own fleet.
    assert_rejected(&submit(&["--workers", "4"]), "--workers");
    // A drain carries no plan and exports nothing.
    assert_rejected(
        &submit(&[
            "--drain",
            "--mode",
            "probe",
            "--variants",
            "5",
            "--csv",
            "x.csv",
        ]),
        "--submit --drain",
    );
    // Retry knob values are validated.
    assert_rejected(&submit(&["--retry-max", "many"]), "--retry-max");
    assert_rejected(&submit(&["--retry-base-ms", "0"]), "--retry-base-ms");
    assert_rejected(&submit(&["--retry-base-ms", "soon"]), "--retry-base-ms");
    // Chaos on the submit link still needs its seed.
    assert_rejected(&submit(&["--chaos-profile", "storm"]), "--chaos-seed");
    // Client knobs floating free of --submit.
    assert_rejected(&fleet_sweep(&["--drain"]), "requires --submit");
    assert_rejected(&fleet_sweep(&["--retry-max", "3"]), "requires --submit");
    assert_rejected(
        &fleet_sweep(&["--retry-base-ms", "50"]),
        "requires --submit",
    );
    // And a worker rejects the whole daemon/client family.
    for extra in [
        &["--daemon"][..],
        &["--submit", "127.0.0.1:7701"][..],
        &["--journal", "fj.j"][..],
        &["--drain"][..],
        &["--retry-max", "3"][..],
    ] {
        let mut args = vec!["--connect", "127.0.0.1:7700"];
        args.extend_from_slice(extra);
        assert_rejected(&fleet_shard(&args), extra[0]);
    }
}

#[test]
fn scenario_registry_flags_are_validated() {
    // The committed catalog ports, for cases that need a loadable dir.
    let catalog = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");

    // Missing or unreadable directory.
    assert_rejected(
        &fleet_sweep(&["--scenario-dir", "/nonexistent-zhuyi-scenarios"]),
        "cannot read scenario dir",
    );

    // A directory with no definitions at all.
    let empty = std::env::temp_dir().join(format!("zhuyi-cli-empty-{}", std::process::id()));
    std::fs::create_dir_all(&empty).expect("temp dir");
    assert_rejected(
        &fleet_sweep(&["--scenario-dir", empty.to_str().expect("utf-8 path")]),
        "no .scn files",
    );

    // A filter that matches no definition names that error names the
    // available scenarios so the typo is findable.
    let out = fleet_sweep(&["--scenario-dir", catalog, "--scenarios", "no-such-*"]);
    assert_rejected(&out, "matched nothing");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("Cut-out"),
        "the empty-match error must list what is available"
    );

    // A malformed definition fails loudly with its path and line.
    let broken = std::env::temp_dir().join(format!("zhuyi-cli-broken-{}", std::process::id()));
    std::fs::create_dir_all(&broken).expect("temp dir");
    std::fs::write(
        broken.join("bad.scn"),
        "zhuyi-scenario v1\n\nname = Bad\nwheels = 5\n",
    )
    .expect("write bad.scn");
    assert_rejected(
        &fleet_sweep(&["--scenario-dir", broken.to_str().expect("utf-8 path")]),
        "bad.scn",
    );

    // A curved road of a full turn or more would overlap itself; the
    // error names the road's length and radius.
    let looped = std::env::temp_dir().join(format!("zhuyi-cli-looped-{}", std::process::id()));
    std::fs::create_dir_all(&looped).expect("temp dir");
    std::fs::write(
        looped.join("loop.scn"),
        "zhuyi-scenario v1\nname = Loop\nduration = 10.0\n\n\
         [road]\nkind = curved\nlength = 3000.0\nradius = 400.0\n\n\
         [ego]\nlane = 1\ns = 50.0\nspeed = 10.0\n",
    )
    .expect("write loop.scn");
    let out = fleet_sweep(&["--scenario-dir", looped.to_str().expect("utf-8 path")]);
    assert_rejected(&out, "loop.scn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("road.length") && stderr.contains("road.radius"),
        "the overlap error must name the road: {stderr}"
    );

    // A worker has no plan of its own; registry flags are plan-shaping
    // and must be rejected like the rest.
    assert_rejected(
        &fleet_shard(&["--connect", "127.0.0.1:7700", "--scenario-dir", catalog]),
        "--scenario-dir",
    );
}
