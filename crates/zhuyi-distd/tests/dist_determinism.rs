//! Distribution correctness: a multi-process sweep must export the very
//! bytes a single-process sweep exports — with healthy workers, with a
//! worker killed mid-sweep, and across a checkpoint abort/resume.
//!
//! Workers are real OS processes (the `fleet_shard` binary cargo builds
//! alongside these tests), talking to the coordinator over loopback TCP.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use zhuyi_distd::journal;
use zhuyi_distd::wire::{self, Frame};
use zhuyi_distd::{
    plan_fingerprint, run_distributed, DistConfig, DistError, JournalError, PROTOCOL_VERSION,
};
use zhuyi_fleet::{
    run_sweep, ExecOptions, JobId, JobKind, JobResult, JobSpec, RateSpec, ResultStore, SweepJob,
    SweepPlan,
};

use av_scenarios::catalog::ScenarioId;

/// The worker binary cargo built for this test run.
fn worker_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_fleet_shard"))
}

/// A compact plan covering all three job kinds and *both* rate-plan
/// variants (uniform and per-camera), plus a kept trace so trace CSV
/// bytes cross the wire too.
fn mixed_plan() -> SweepPlan {
    SweepPlan::builder()
        .scenarios([ScenarioId::CutOut, ScenarioId::VehicleFollowing])
        .jittered_variants(2)
        .probe(4.0, true)
        .probe_per_camera(vec![30.0, 15.0, 4.0, 4.0, 2.0], false)
        .min_safe_fpr(vec![1, 4, 30])
        .build()
}

/// Every exported byte: per-job CSV ledger, JSON document, kept traces.
fn fingerprint(store: &ResultStore) -> String {
    let mut bytes = String::new();
    bytes.push_str(&store.to_csv());
    bytes.push_str(&store.to_json());
    for (name, csv) in store.kept_traces() {
        bytes.push_str(&name);
        bytes.push_str(csv);
    }
    bytes
}

fn config() -> DistConfig {
    DistConfig {
        spawn_workers: 2,
        worker_binary: Some(worker_binary()),
        // Small shards so both workers hold work and reassignment has
        // something to reassign.
        batch_size: Some(3),
        ..DistConfig::default()
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zhuyi-distd-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn distributed_sweep_is_byte_identical_to_single_process() {
    let plan = mixed_plan();
    let single = fingerprint(&run_sweep(&plan, 1));
    let report = run_distributed(&plan, &config()).expect("distributed sweep");
    assert_eq!(
        fingerprint(&report.store),
        single,
        "distributed exports diverged from the single-process sweep"
    );
    assert_eq!(report.stats.executed_jobs, plan.len());
    assert_eq!(report.stats.workers_connected, 2);
    assert_eq!(report.stats.resumed_jobs, 0);
}

#[test]
fn distributed_batched_sweep_matches_per_rate_single_process() {
    // Workers receive the execution options with every Assign frame;
    // whichever MSF search they run, the merged exports must stay
    // byte-equal to a per-rate single-process sweep of the same plan.
    let plan = SweepPlan::builder()
        .scenarios([ScenarioId::CutOut, ScenarioId::FrontRightActivity2])
        .jittered_variants(2)
        .min_safe_fpr(vec![1, 2, 4, 6, 30])
        .build();
    let per_rate_options = ExecOptions { per_rate: true };
    let per_rate = fingerprint(&zhuyi_fleet::run_sweep_with(&plan, 1, per_rate_options));
    for options in [ExecOptions::default(), per_rate_options] {
        let dist_config = DistConfig {
            options,
            ..config()
        };
        let report = run_distributed(&plan, &dist_config).expect("distributed batched sweep");
        assert_eq!(
            fingerprint(&report.store),
            per_rate,
            "{options:?}: distributed exports diverged from per-rate"
        );
    }
}

#[test]
fn killed_worker_is_reassigned_and_output_unchanged() {
    let plan = mixed_plan();
    let single = fingerprint(&run_sweep(&plan, 1));
    let mut config = config();
    // Worker 0 crashes hard (exit 17) after streaming two results —
    // mid-shard, since shards carry three jobs. Worker 1 connects half a
    // second late, so it cannot drain the plan before worker 0 has taken
    // the first shard and died inside it.
    config.worker_extra_args = vec![
        vec!["--fail-after".into(), "2".into()],
        vec!["--slow-start".into(), "500".into()],
    ];
    let report = run_distributed(&plan, &config).expect("sweep survives the crash");
    assert_eq!(
        fingerprint(&report.store),
        single,
        "a worker crash must not change the merged output"
    );
    let stats = report.stats;
    assert!(
        stats.workers_lost >= 1,
        "the fault injection must have killed a worker: {stats:?}"
    );
    assert!(
        stats.batches_reassigned >= 1,
        "the dead worker's shard must have been reassigned: {stats:?}"
    );
    assert_eq!(stats.executed_jobs, plan.len());
}

#[test]
fn checkpoint_resume_completes_the_sweep_identically() {
    let plan = mixed_plan();
    let single = fingerprint(&run_sweep(&plan, 1));
    let checkpoint = tmp_dir("resume").join("sweep.ckpt");

    // First attempt: the abort hook kills the coordinator (checkpoint
    // intact) after three fresh results — a stand-in for a crashed or
    // interrupted coordinator process.
    let mut first = config();
    first.checkpoint = Some(checkpoint.clone());
    first.abort_after_results = Some(3);
    match run_distributed(&plan, &first) {
        Err(DistError::Aborted { completed }) => assert!(completed >= 3),
        other => panic!("expected the abort hook to fire, got {other:?}"),
    }

    // Resume: completed jobs load from the checkpoint, the rest execute.
    let mut second = config();
    second.checkpoint = Some(checkpoint.clone());
    let report = run_distributed(&plan, &second).expect("resumed sweep");
    assert_eq!(
        fingerprint(&report.store),
        single,
        "an abort/resume cycle must not change the merged output"
    );
    let stats = report.stats;
    assert!(
        stats.resumed_jobs >= 3,
        "the resume must reuse checkpointed jobs: {stats:?}"
    );
    assert_eq!(
        stats.resumed_jobs + stats.executed_jobs,
        plan.len(),
        "every job is either resumed or executed exactly once: {stats:?}"
    );

    // A third run over the now-complete checkpoint simulates nothing.
    let mut third = config();
    third.checkpoint = Some(checkpoint);
    let report = run_distributed(&plan, &third).expect("fully checkpointed sweep");
    assert_eq!(fingerprint(&report.store), single);
    assert_eq!(report.stats.executed_jobs, 0);
    assert_eq!(report.stats.resumed_jobs, plan.len());
}

/// A checkpoint is a one-plan journal. A file in the retired checkpoint
/// format, or a journal written for another plan, is refused — and left
/// byte-identical, never overwritten and never compacted.
#[test]
fn checkpoint_refusals_leave_the_file_untouched() {
    let dir = tmp_dir("refusals");
    let options = ExecOptions::default();

    // A file in the retired format: its magic, the plan's fingerprint and
    // one checksummed result record.
    let plan = mixed_plan();
    let mut payload = Vec::new();
    wire::put_job_result(&mut payload, &run_sweep(&plan, 1).results()[0]);
    let mut old = b"ZHUYIDC2".to_vec();
    old.extend_from_slice(&plan_fingerprint(&plan, options).to_le_bytes());
    old.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    old.extend_from_slice(&wire::payload_checksum(&payload).to_le_bytes());
    old.extend_from_slice(&payload);
    let old_path = dir.join("old.ckpt");
    std::fs::write(&old_path, &old).expect("write old checkpoint");
    let mut config = config();
    config.checkpoint = Some(old_path.clone());
    match run_distributed(&plan, &config) {
        Err(DistError::Checkpoint(JournalError::Corrupt(what))) => {
            assert!(what.contains("header ZHUYIDC2"), "{what}");
            assert!(what.contains("reads ZHUYIDJ3"), "{what}");
        }
        other => panic!("an old-format checkpoint must be refused, got {other:?}"),
    }
    assert_eq!(std::fs::read(&old_path).expect("reread"), old);

    // A checkpoint journal of plan P, resumed with plan Q.
    let probe = |seeds: std::ops::Range<u64>| {
        SweepPlan::builder()
            .scenarios([ScenarioId::CutOut])
            .seeds(seeds)
            .probe(4.0, false)
            .build()
    };
    let (p, q) = (probe(0..2), probe(5..7));
    let path = dir.join("p.ckpt");
    config.checkpoint = Some(path.clone());
    run_distributed(&p, &config).expect("plan P completes");
    let plans = journal::replay(&journal::load(&path).expect("a checkpoint is a journal"));
    assert_eq!(plans.len(), 1, "a checkpoint holds one plan");
    assert_eq!(plans[0].fingerprint, plan_fingerprint(&p, options));
    assert_eq!(plans[0].results.len(), p.len());
    let written = std::fs::read(&path).expect("read checkpoint");
    match run_distributed(&q, &config) {
        Err(DistError::Checkpoint(JournalError::PlanMismatch { found, expected })) => {
            assert_eq!(found, plan_fingerprint(&p, options));
            assert_eq!(expected, plan_fingerprint(&q, options));
        }
        other => panic!("another plan's checkpoint must be refused, got {other:?}"),
    }
    assert_eq!(std::fs::read(&path).expect("reread"), written);
}

/// Regression: a job revoked from a worker (stolen) and later handed
/// *back* to that same worker — because the thief died — must execute.
/// A worker that never forgets a revocation would skip the job forever
/// and stall the sweep. Driven against a real `fleet_shard` process by a
/// scripted coordinator, so the exact frame order is deterministic.
#[test]
fn reassignment_supersedes_an_earlier_revoke() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let mut child = std::process::Command::new(worker_binary())
        .args(["--connect", &addr])
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn worker");

    let (mut stream, _) = listener.accept().expect("worker connects");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .expect("read timeout");
    assert!(matches!(
        wire::read_frame(&mut stream).expect("hello"),
        Frame::Hello { version, .. } if version == PROTOCOL_VERSION
    ));
    wire::write_frame(
        &mut stream,
        &Frame::Welcome {
            version: PROTOCOL_VERSION,
            telemetry: false,
        },
    )
    .expect("welcome");

    let job = |id: u64| SweepJob {
        id: JobId(id),
        spec: JobSpec {
            scenario: ScenarioId::VehicleFollowing.into(),
            seed: 0,
            kind: JobKind::Probe {
                plan: RateSpec::Uniform(30.0),
                keep_trace: false,
            },
        },
    };
    // Read worker frames until the wanted BatchDone, collecting which
    // job ids produced results (heartbeats interleave freely).
    let drain_batch = |stream: &mut std::net::TcpStream, batch: u32| -> Vec<u64> {
        let mut delivered = Vec::new();
        loop {
            match wire::read_frame(stream).expect("worker frame") {
                Frame::Result { result } => delivered.push(result.job.id.0),
                Frame::BatchDone { batch: done } if done == batch => return delivered,
                Frame::Heartbeat | Frame::BatchDone { .. } => {}
                other => panic!("unexpected worker frame {other:?}"),
            }
        }
    };

    // Shard [1, 2] with job 2 stolen away (Revoke may win or lose the
    // race against the worker starting job 2 — both are legal).
    wire::write_frame(
        &mut stream,
        &Frame::Assign {
            batch: 0,
            options: ExecOptions::default(),
            jobs: vec![job(1), job(2)],
        },
    )
    .expect("assign batch 0");
    wire::write_frame(&mut stream, &Frame::Revoke { jobs: vec![2] }).expect("revoke");
    let first = drain_batch(&mut stream, 0);
    assert!(first.contains(&1), "job 1 was never revoked: {first:?}");

    // The thief "died": hand job 2 back. It must run now, whatever
    // happened above.
    wire::write_frame(
        &mut stream,
        &Frame::Assign {
            batch: 1,
            options: ExecOptions::default(),
            jobs: vec![job(2)],
        },
    )
    .expect("assign batch 1");
    let second = drain_batch(&mut stream, 1);
    assert_eq!(
        second,
        vec![2],
        "a reassigned job must supersede its earlier revocation"
    );

    wire::write_frame(&mut stream, &Frame::Shutdown).expect("shutdown");
    let status = child.wait().expect("worker exit");
    assert!(status.success(), "worker must exit cleanly: {status:?}");
}

#[test]
fn generated_corpus_sweeps_identically_distributed_and_single_process() {
    // Registry-defined scenarios cross the wire as canonical definition
    // text (no shared files, no catalog index); a 100-scenario fuzzed
    // corpus must still export the single-process bytes.
    let corpus = zhuyi_registry::FuzzConfig {
        prefix: "dist-fuzz".to_string(),
        count: 100,
        seed: 42,
    }
    .generate();
    assert_eq!(corpus.len(), 100);
    let plan = SweepPlan::builder()
        .sources(corpus.into_iter().map(Into::into))
        .seeds([0])
        .min_safe_fpr(vec![1, 4, 30])
        .build();
    let single = fingerprint(&run_sweep(&plan, 1));
    let report = run_distributed(&plan, &config()).expect("distributed corpus sweep");
    assert_eq!(
        fingerprint(&report.store),
        single,
        "generated-corpus distributed exports diverged from the single-process sweep"
    );
    assert_eq!(report.stats.executed_jobs, plan.len());
}

#[test]
fn external_workers_export_single_process_bytes_and_exit_cleanly() {
    // The multi-host shape as real processes: `fleet_sweep --dist
    // --workers 0 --listen` and two `fleet_shard --connect` workers. The
    // exports must equal the single-process bytes and every process must
    // exit 0: the coordinator waits for each worker's session to close
    // before it exits, so no worker's last write meets a closed socket.
    // (An in-process `run_distributed` cannot show this: its sessions'
    // sockets outlive the call.)
    let plan = SweepPlan::builder()
        .jittered_variants(3)
        .min_safe_fpr(vec![1, 4, 30])
        .build();
    let single = run_sweep(&plan, 1);
    let dir = tmp_dir("external");
    let spawn = |binary: PathBuf, args: &[&str]| {
        Command::new(binary)
            .args(args)
            .current_dir(&dir)
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn")
    };
    for round in 0..8 {
        // Reserve a loopback port for the coordinator.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|listener| listener.local_addr())
            .expect("reserve a port")
            .to_string();
        let mut coordinator = spawn(
            PathBuf::from(env!("CARGO_BIN_EXE_fleet_sweep")),
            &[
                "--variants",
                "3",
                "--rates",
                "1,4,30",
                "--dist",
                "--workers",
                "0",
                "--listen",
                &addr,
                "--csv",
                "ext.csv",
                "--json",
                "ext.json",
            ],
        );
        // Start the workers once the coordinator listens, so both join.
        let deadline = Instant::now() + Duration::from_secs(30);
        while std::net::TcpStream::connect(&addr).is_err() {
            assert!(
                Instant::now() < deadline && coordinator.try_wait().expect("poll").is_none(),
                "round {round}: the coordinator never listened on {addr}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let workers: Vec<Child> = (0..2)
            .map(|_| spawn(worker_binary(), &["--connect", &addr]))
            .collect();
        let status = coordinator.wait().expect("coordinator exit");
        assert!(status.success(), "round {round}: coordinator {status:?}");
        for mut worker in workers {
            let status = worker.wait().expect("worker exit");
            assert!(status.success(), "round {round}: worker {status:?}");
        }
        let read = |name: &str| std::fs::read_to_string(dir.join("results").join(name));
        assert_eq!(
            read("ext.csv").expect("csv"),
            single.to_csv(),
            "round {round}"
        );
        assert_eq!(
            read("ext.json").expect("json"),
            single.to_json(),
            "round {round}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coordinator_outlives_an_open_worker_session() {
    // A worker that delivers every result, then holds its final
    // BatchDone back: the coordinator process must still be up when the
    // worker writes it, and exit 0 once the worker hangs up.
    let dir = tmp_dir("held-session");
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|listener| listener.local_addr())
        .expect("reserve a port")
        .to_string();
    let mut coordinator = Command::new(env!("CARGO_BIN_EXE_fleet_sweep"))
        .args(["--mode", "probe", "--scenarios", "5", "--variants", "1"])
        .args(["--dist", "--workers", "0", "--listen", &addr])
        .current_dir(&dir)
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn coordinator");
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut stream = loop {
        match std::net::TcpStream::connect(&addr) {
            Ok(stream) => break stream,
            Err(e) => assert!(Instant::now() < deadline, "never listened: {e}"),
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        spawned: false,
        name: "held".into(),
    };
    wire::write_frame(&mut stream, &hello).expect("hello");
    assert!(matches!(
        wire::read_frame(&mut stream).expect("welcome"),
        Frame::Welcome { .. }
    ));
    let Frame::Assign {
        batch,
        options,
        jobs,
    } = wire::read_frame(&mut stream).expect("assign")
    else {
        panic!("expected the plan's one shard");
    };
    for job in jobs {
        let outcome = zhuyi_fleet::exec::execute_with(&job.spec, options);
        let result = Box::new(JobResult { job, outcome });
        wire::write_frame(&mut stream, &Frame::Result { result }).expect("result");
    }
    // Every result is in, so the plan is complete and Shutdown is sent.
    std::thread::sleep(Duration::from_millis(500));
    assert!(
        coordinator.try_wait().expect("poll").is_none(),
        "the coordinator exited under an open worker session"
    );
    wire::write_frame(&mut stream, &Frame::BatchDone { batch }).expect("final BatchDone");
    while !matches!(
        wire::read_frame(&mut stream).expect("shutdown"),
        Frame::Shutdown
    ) {}
    drop(stream);
    let status = coordinator.wait().expect("coordinator exit");
    assert!(status.success(), "coordinator {status:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
