//! Sweep-service robustness: the persistent daemon must survive
//! `kill -9` mid-queue and resume every admitted plan from its journal,
//! a full admission queue must answer `Busy` (never hang, never drop
//! silently), drain must exit cleanly with zero journal loss — and
//! through all of it, fetched exports must stay byte-identical to a
//! single-process sweep of the same plan.
//!
//! The daemon runs as a real OS process (the `fleet_sweep` binary cargo
//! builds alongside these tests) so SIGKILL means what it means in
//! production; clients ride the in-crate library with retry/backoff.

use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use av_scenarios::catalog::ScenarioId;
use zhuyi_distd::client;
use zhuyi_distd::journal::{self, JournalRecord};
use zhuyi_distd::wire::{self, Frame, PlanState};
use zhuyi_distd::{faultnet, ChaosSpec, ClientConfig, PROTOCOL_VERSION};
use zhuyi_fleet::{run_sweep, ExecOptions, ResultStore, SweepPlan};

/// The daemon binary cargo built for this test run.
fn daemon_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_fleet_sweep"))
}

/// The worker binary cargo built for this test run.
fn worker_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_fleet_shard"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zhuyi-daemon-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Reserves a loopback port: bind ephemeral, note it, release it. The
/// tiny race against another process is tolerable in a test harness.
fn free_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr").to_string();
    drop(listener);
    addr
}

fn spawn_daemon(addr: &str, journal: &Path, workers: usize, extra: &[&str]) -> Child {
    let mut cmd = Command::new(daemon_binary());
    cmd.args([
        "--daemon",
        "--listen",
        addr,
        "--journal",
        &journal.display().to_string(),
        "--workers",
        &workers.to_string(),
    ])
    .args(extra)
    .current_dir(journal.parent().expect("the journal lives in a directory"))
    .stdout(Stdio::null())
    .stderr(Stdio::null());
    cmd.spawn().expect("spawn daemon")
}

/// Blocks until the daemon accepts TCP connections (it may be retrying
/// its bind out of a predecessor's TIME_WAIT after a fast restart).
fn wait_ready(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match TcpStream::connect(addr) {
            Ok(_) => return,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => panic!("daemon at {addr} never came up: {e}"),
        }
    }
}

/// Waits for the daemon process to exit on its own (post-drain).
fn wait_exit(child: &mut Child) -> std::process::ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        assert!(
            Instant::now() < deadline,
            "daemon did not exit within 60 s of the drain"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn client_config(addr: &str, name: &str, seed: u64) -> ClientConfig {
    ClientConfig {
        addr: addr.to_string(),
        name: name.to_string(),
        // Generous budget: the backoff ladder must outlast a daemon
        // kill + restart (a couple of seconds) with margin.
        retry_max: 12,
        retry_base: Duration::from_millis(100),
        seed,
        poll_interval: Duration::from_millis(100),
        ..ClientConfig::default()
    }
}

/// Every exported byte: per-job CSV ledger, JSON document, kept traces.
fn export_bytes(store: &ResultStore) -> String {
    let mut bytes = String::new();
    bytes.push_str(&store.to_csv());
    bytes.push_str(&store.to_json());
    for (name, csv) in store.kept_traces() {
        bytes.push_str(&name);
        bytes.push_str(csv);
    }
    bytes
}

/// A plan big enough that SIGKILL lands mid-sweep (all job kinds, both
/// rate-plan variants, kept traces crossing the wire).
fn plan_a() -> SweepPlan {
    SweepPlan::builder()
        .scenarios([ScenarioId::CutOut, ScenarioId::VehicleFollowing])
        .jittered_variants(6)
        .probe(4.0, true)
        .probe_per_camera(vec![30.0, 15.0, 4.0, 4.0, 2.0], false)
        .min_safe_fpr(vec![1, 4, 30])
        .build()
}

/// A second, distinct plan that sits queued behind `plan_a`.
fn plan_b() -> SweepPlan {
    SweepPlan::builder()
        .scenarios([ScenarioId::FrontRightActivity2])
        .jittered_variants(2)
        .min_safe_fpr(vec![1, 2, 30])
        .build()
}

fn poll_until(config: &ClientConfig, fingerprint: u64, wanted: PlanState) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client::plan_status(config, fingerprint).expect("status poll");
        if status.state == wanted {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "plan {fingerprint:#018x} never reached {}, stuck at {}",
            wanted.name(),
            status.state.name()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The survivability pin: one plan running, one queued, daemon killed
/// with SIGKILL, restarted on the same journal. Backoff clients
/// reconnect on their own, both plans complete, resubmission dedups
/// across the restart, exports are byte-identical to single-process
/// sweeps, each plan is journaled exactly once, and the final drain
/// exits cleanly with the whole history still replayable. The submit
/// link runs under the storm chaos profile throughout — retries, not
/// clean sends, carry every frame.
#[test]
fn sigkilled_daemon_resumes_both_plans_byte_identically() {
    let dir = tmp_dir("pin");
    let journal_path = dir.join("fleet.journal");
    let addr = free_addr();
    let mut daemon = spawn_daemon(&addr, &journal_path, 2, &[]);
    wait_ready(&addr);

    let storm = ChaosSpec {
        seed: 0x5709_1100,
        profile: faultnet::profile("storm").expect("storm profile exists"),
    };
    let mut cfg_a = client_config(&addr, "client-a", 1);
    cfg_a.chaos = Some(storm);
    let mut cfg_b = client_config(&addr, "client-b", 2);
    cfg_b.chaos = Some(storm);
    let options = ExecOptions::default();
    let (plan_a, plan_b) = (plan_a(), plan_b());

    // Plan A admitted and running; plan B queued behind it.
    let out_a = client::submit_plan(&cfg_a, &plan_a, options).expect("submit plan A");
    assert!(!out_a.deduped, "first submission cannot dedup");
    poll_until(&cfg_a, out_a.fingerprint, PlanState::Running);
    let out_b = client::submit_plan(&cfg_b, &plan_b, options).expect("submit plan B");
    assert!(!out_b.deduped);
    assert_eq!(
        client::plan_status(&cfg_b, out_b.fingerprint)
            .expect("status B")
            .state,
        PlanState::Queued,
        "plan B must sit queued behind the running plan A"
    );

    // SIGKILL mid-queue: no drain, no journal fsync beyond the per-record
    // flushes already done.
    daemon.kill().expect("SIGKILL daemon");
    daemon.wait().expect("reap daemon");

    // Plan A's client starts waiting *while the daemon is down*: its
    // backoff ladder must carry it across the outage.
    let waiter_cfg = cfg_a.clone();
    let fp_a = out_a.fingerprint;
    let waiter_a = std::thread::spawn(move || {
        client::wait_for_plan(&waiter_cfg, fp_a)?;
        client::fetch_results(&waiter_cfg, fp_a)
    });
    std::thread::sleep(Duration::from_millis(300));

    // Restart on the same journal: replay re-admits both plans.
    let mut daemon = spawn_daemon(&addr, &journal_path, 2, &[]);
    wait_ready(&addr);

    // Idempotent submission across the restart: the journal already
    // knows plan B, so a retried submit dedups instead of double-running.
    let again = client::submit_plan(&cfg_b, &plan_b, options).expect("resubmit plan B");
    assert!(
        again.deduped,
        "resubmission after restart must dedup by fingerprint"
    );
    assert_eq!(again.fingerprint, out_b.fingerprint);

    // Both plans complete; exports match the single-process bytes.
    let results_a = waiter_a
        .join()
        .expect("waiter thread")
        .expect("plan A completes across the restart");
    client::wait_for_plan(&cfg_b, out_b.fingerprint).expect("plan B completes");
    let results_b = client::fetch_results(&cfg_b, out_b.fingerprint).expect("plan B results fetch");
    assert_eq!(
        export_bytes(&ResultStore::new(results_a)),
        export_bytes(&run_sweep(&plan_a, 1)),
        "plan A exports diverged from the single-process sweep"
    );
    assert_eq!(
        export_bytes(&ResultStore::new(results_b)),
        export_bytes(&run_sweep(&plan_b, 1)),
        "plan B exports diverged from the single-process sweep"
    );

    // Drain: nothing left to finish, daemon exits cleanly.
    let left = client::drain(&cfg_b).expect("drain");
    assert_eq!(left, 0, "both plans were already complete");
    let status = wait_exit(&mut daemon);
    assert!(status.success(), "drained daemon must exit 0: {status:?}");

    // Zero journal loss, exactly-once submission: the full history is
    // still replayable, and each plan was journaled exactly once even
    // though plan B's submit frame was retried across a chaos link and
    // a daemon restart.
    let records = journal::load(&journal_path).expect("journal replays after drain");
    for fp in [out_a.fingerprint, out_b.fingerprint] {
        let submits = records
            .iter()
            .filter(
                |r| matches!(r, JournalRecord::Submitted { fingerprint, .. } if *fingerprint == fp),
            )
            .count();
        assert_eq!(submits, 1, "plan {fp:#018x} must be journaled exactly once");
    }
    let plans = journal::replay(&records);
    assert_eq!(plans.len(), 2);
    for plan in &plans {
        assert!(
            plan.completed && plan.fetched && !plan.live(),
            "drained history must show every plan completed and fetched: {:#018x}",
            plan.fingerprint
        );
    }
}

/// Admission control: a full queue answers `Busy` immediately — it
/// never hangs the session and never drops a submit silently — and a
/// draining daemon sheds every new submit with `Busy {{ queue_limit: 0 }}`.
/// Raw wire frames, so the answer is observed without client retries
/// papering over anything.
#[test]
fn full_queue_answers_busy_and_draining_sheds_submits() {
    let dir = tmp_dir("busy");
    let journal_path = dir.join("fleet.journal");
    let addr = free_addr();
    // Zero workers: admitted plans never finish, so the queue stays full.
    let mut daemon = spawn_daemon(&addr, &journal_path, 0, &["--max-queue", "1"]);
    wait_ready(&addr);

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    wire::write_frame(
        &mut stream,
        &Frame::ClientHello {
            version: PROTOCOL_VERSION,
            client: "busy-probe".to_string(),
        },
    )
    .expect("client hello");
    match wire::read_frame(&mut stream).expect("client welcome") {
        Frame::ClientWelcome { version, draining } => {
            assert_eq!(version, PROTOCOL_VERSION);
            assert!(!draining);
        }
        other => panic!("expected ClientWelcome, got {other:?}"),
    }

    // Keep submitting distinct plans until the daemon sheds load. One
    // slot may drain into the (never-finishing) running plan, so at most
    // two are admitted before `Busy`.
    let jobs = plan_b().jobs().to_vec();
    let mut accepted = Vec::new();
    let mut shed = None;
    for i in 0..6u64 {
        wire::write_frame(
            &mut stream,
            &Frame::Submit {
                fingerprint: 0xB05E_0000 + i,
                options: ExecOptions::default(),
                jobs: jobs.clone(),
            },
        )
        .expect("submit");
        match wire::read_frame(&mut stream).expect("submit answer (never a hang)") {
            Frame::Accepted { fingerprint, .. } => accepted.push(fingerprint),
            Frame::Busy { queue_limit } => {
                shed = Some(queue_limit);
                break;
            }
            other => panic!("expected Accepted or Busy, got {other:?}"),
        }
    }
    assert_eq!(
        shed,
        Some(1),
        "a full queue must answer Busy with its bound"
    );
    assert!(
        (1..=2).contains(&accepted.len()),
        "one running slot plus one queue slot: {accepted:?}"
    );

    // Admitted plans are still individually addressable — nothing was
    // silently dropped on the way to the Busy answer.
    wire::write_frame(
        &mut stream,
        &Frame::Status {
            fingerprint: accepted[0],
        },
    )
    .expect("status");
    match wire::read_frame(&mut stream).expect("status answer") {
        Frame::StatusReport { state, .. } => {
            assert!(matches!(state, PlanState::Queued | PlanState::Running));
        }
        other => panic!("expected StatusReport, got {other:?}"),
    }

    // Drain acknowledges every admitted plan, then sheds all new work
    // with a zero-slot Busy.
    wire::write_frame(&mut stream, &Frame::Drain).expect("drain");
    match wire::read_frame(&mut stream).expect("drain answer") {
        Frame::DrainAck { queued } => assert_eq!(queued as usize, accepted.len()),
        other => panic!("expected DrainAck, got {other:?}"),
    }
    wire::write_frame(
        &mut stream,
        &Frame::Submit {
            fingerprint: 0xDEAD_0001,
            options: ExecOptions::default(),
            jobs,
        },
    )
    .expect("submit while draining");
    match wire::read_frame(&mut stream).expect("draining answer") {
        Frame::Busy { queue_limit } => assert_eq!(queue_limit, 0),
        other => panic!("expected Busy{{queue_limit: 0}}, got {other:?}"),
    }

    // Workerless and draining, the daemon can never finish its queue —
    // the test owns its shutdown.
    daemon.kill().expect("kill workerless daemon");
    daemon.wait().expect("reap daemon");
}

/// The undramatic path, end to end through the public client arc:
/// submit + wait + fetch returns the single-process bytes, drain exits
/// zero, and the drained journal still replays the fetched plan.
#[test]
fn run_via_daemon_matches_single_process_and_drains_cleanly() {
    let dir = tmp_dir("arc");
    let journal_path = dir.join("fleet.journal");
    let addr = free_addr();
    let mut daemon = spawn_daemon(&addr, &journal_path, 2, &[]);
    wait_ready(&addr);

    let cfg = client_config(&addr, "client-arc", 7);
    let plan = plan_b();
    let store =
        client::run_via_daemon(&cfg, &plan, ExecOptions::default()).expect("submit + wait + fetch");
    assert_eq!(
        export_bytes(&store),
        export_bytes(&run_sweep(&plan, 1)),
        "daemon-run exports diverged from the single-process sweep"
    );

    assert_eq!(client::drain(&cfg).expect("drain"), 0);
    let status = wait_exit(&mut daemon);
    assert!(status.success(), "drained daemon must exit 0: {status:?}");

    let plans = journal::replay(&journal::load(&journal_path).expect("journal replays"));
    assert_eq!(plans.len(), 1);
    assert!(plans[0].completed && plans[0].fetched && !plans[0].live());
}

/// Whether `text` is exactly one well-formed JSON value.
fn is_json(text: &str) -> bool {
    fn skip_ws(b: &[u8], i: &mut usize) {
        while b.get(*i).is_some_and(|c| b" \t\n\r".contains(c)) {
            *i += 1;
        }
    }
    fn string(b: &[u8], i: &mut usize) -> bool {
        *i += 1;
        while let Some(&c) = b.get(*i) {
            *i += 1;
            match c {
                b'"' => return true,
                b'\\' => *i += 1,
                c if c < 0x20 => return false,
                _ => {}
            }
        }
        false
    }
    fn value(b: &[u8], i: &mut usize) -> bool {
        skip_ws(b, i);
        let ok = match b.get(*i) {
            Some(&open @ (b'{' | b'[')) => {
                let close = if open == b'{' { b'}' } else { b']' };
                *i += 1;
                skip_ws(b, i);
                if b.get(*i) == Some(&close) {
                    *i += 1;
                    true
                } else {
                    loop {
                        if open == b'{' {
                            skip_ws(b, i);
                            if !(b.get(*i) == Some(&b'"') && string(b, i)) {
                                break false;
                            }
                            skip_ws(b, i);
                            if b.get(*i) != Some(&b':') {
                                break false;
                            }
                            *i += 1;
                        }
                        if !value(b, i) {
                            break false;
                        }
                        match b.get(*i) {
                            Some(b',') => *i += 1,
                            Some(&c) if c == close => {
                                *i += 1;
                                break true;
                            }
                            _ => break false,
                        }
                    }
                }
            }
            Some(b'"') => string(b, i),
            Some(_) => {
                let start = *i;
                while b
                    .get(*i)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || b"+-.".contains(c))
                {
                    *i += 1;
                }
                let token = std::str::from_utf8(&b[start..*i]).unwrap_or("");
                matches!(token, "true" | "false" | "null")
                    || (token.parse::<f64>().is_ok_and(f64::is_finite) && !token.starts_with('+'))
            }
            None => false,
        };
        skip_ws(b, i);
        ok
    }
    let mut i = 0;
    value(text.as_bytes(), &mut i) && i == text.len()
}

/// A daemon started with `--telemetry` writes its folded snapshot when
/// it drains: `results/telemetry.json` under its working directory,
/// valid JSON whose deterministic job count is the plan's.
#[test]
fn drained_daemon_writes_its_telemetry() {
    assert!(is_json(
        r#" {"a": [1, -2.5e3, true, null, "x\"y"], "b": {}} "#
    ));
    assert!(!is_json(r#"{"a":}"#) && !is_json("{} {}") && !is_json("[1,]"));
    let dir = tmp_dir("telemetry");
    let journal_path = dir.join("fleet.journal");
    let addr = free_addr();
    // One worker, so no job is executed twice and the count is exact.
    let mut daemon = spawn_daemon(&addr, &journal_path, 1, &["--telemetry"]);
    wait_ready(&addr);

    let cfg = client_config(&addr, "client-telemetry", 3);
    let plan = SweepPlan::builder()
        .scenarios([ScenarioId::CutOut, ScenarioId::VehicleFollowing])
        .jittered_variants(2)
        .probe(4.0, false)
        .build();
    client::run_via_daemon(&cfg, &plan, ExecOptions::default()).expect("submit + wait + fetch");
    client::drain(&cfg).expect("drain");
    let status = wait_exit(&mut daemon);
    assert!(status.success(), "drained daemon must exit 0: {status:?}");

    let text = std::fs::read_to_string(dir.join("results").join("telemetry.json"))
        .expect("the daemon writes results/telemetry.json on drain");
    assert!(is_json(&text), "the telemetry artifact is not JSON: {text}");
    // deterministic.counters is the first "counters" object in the file.
    let deterministic = &text[text.find("\"deterministic\"").expect("deterministic")..];
    let counters = &deterministic[deterministic.find("\"counters\":{").expect("counters")..];
    let counters = &counters[..counters.find('}').expect("a closed object")];
    let jobs: usize = counters
        .split("\"jobs_executed\":")
        .nth(1)
        .and_then(|tail| tail.split(',').next())
        .and_then(|count| count.trim().parse().ok())
        .expect("deterministic.counters.jobs_executed");
    assert_eq!(jobs, plan.len(), "every job of the plan, executed once");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A draining daemon must still respawn a crashed worker: with drain
/// requested and a plan running, `kill -9` of its only spawned worker
/// costs a respawn, not a hung daemon. The client fetches the
/// single-process bytes and the daemon exits 0 within 60 s.
#[test]
fn draining_daemon_respawns_a_killed_worker_and_exits() {
    let dir = tmp_dir("drain-respawn");
    let journal_path = dir.join("fleet.journal");
    let addr = free_addr();
    let mut daemon = spawn_daemon(&addr, &journal_path, 1, &[]);
    wait_ready(&addr);

    // Long enough on one worker that the kill lands mid-plan.
    let plan = SweepPlan::builder()
        .jittered_variants(24)
        .min_safe_fpr(vec![1, 2, 4, 6, 10, 30])
        .build();
    let cfg = client_config(&addr, "client-drain", 11);
    let out = client::submit_plan(&cfg, &plan, ExecOptions::default()).expect("submit");
    poll_until(&cfg, out.fingerprint, PlanState::Running);
    assert_eq!(client::drain(&cfg).expect("drain"), 1);

    let pgrep = Command::new("pgrep")
        .args(["-P", &daemon.id().to_string()])
        .output()
        .expect("pgrep");
    let children = String::from_utf8(pgrep.stdout).expect("pgrep output");
    let worker = children
        .lines()
        .next()
        .expect("the daemon's spawned worker");
    let killed = Command::new("kill")
        .args(["-9", worker])
        .status()
        .expect("kill");
    assert!(killed.success(), "kill -9 {worker}: {killed:?}");

    let deadline = Instant::now() + Duration::from_secs(60);
    while client::plan_status(&cfg, out.fingerprint)
        .expect("status poll")
        .state
        != PlanState::Completed
    {
        if Instant::now() >= deadline {
            let _ = daemon.kill();
            let _ = daemon.wait();
            panic!("the draining daemon never finished the plan after its worker died");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let results = client::fetch_results(&cfg, out.fingerprint).expect("fetch");
    assert_eq!(
        export_bytes(&ResultStore::new(results)),
        export_bytes(&run_sweep(&plan, 1)),
        "exports diverged after the respawn"
    );
    let status = wait_exit(&mut daemon);
    assert!(status.success(), "drained daemon must exit 0: {status:?}");
}

/// The daemon's strike path: two external workers panic on job 3 every
/// time, so the plan quarantines it after two strikes and completes over
/// the rest — the fetched store is the single-process store minus job 3.
#[test]
fn daemon_quarantines_a_poisoned_job_and_completes() {
    let dir = tmp_dir("poison");
    let journal_path = dir.join("fleet.journal");
    let addr = free_addr();
    let mut daemon = spawn_daemon(&addr, &journal_path, 0, &["--max-job-failures", "2"]);
    wait_ready(&addr);
    let mut workers: Vec<Child> = (0..2)
        .map(|_| {
            Command::new(worker_binary())
                .args(["--connect", &addr, "--poison-job", "3"])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn worker")
        })
        .collect();

    let plan = SweepPlan::builder()
        .scenarios([ScenarioId::CutOut, ScenarioId::VehicleFollowing])
        .jittered_variants(4)
        .probe(4.0, false)
        .build();
    assert!(plan.len() >= 6);
    let cfg = client_config(&addr, "client-poison", 13);
    let out = client::submit_plan(&cfg, &plan, ExecOptions::default()).expect("submit");
    poll_until(&cfg, out.fingerprint, PlanState::Completed);
    let results = client::fetch_results(&cfg, out.fingerprint).expect("fetch");
    let expected: Vec<_> = run_sweep(&plan, 1)
        .results()
        .iter()
        .filter(|r| r.job.id.0 != 3)
        .cloned()
        .collect();
    assert_eq!(
        export_bytes(&ResultStore::new(results)),
        export_bytes(&ResultStore::new(expected)),
        "the fetched store must be the single-process store minus job 3"
    );

    assert_eq!(client::drain(&cfg).expect("drain"), 0);
    let status = wait_exit(&mut daemon);
    assert!(status.success(), "drained daemon must exit 0: {status:?}");
    for worker in &mut workers {
        worker.wait().expect("worker exits after the drain");
    }
}
