//! Parsing and validation of the distribution CLI flags (`--workers`,
//! `--connect`, `--checkpoint`, `--listen`, `--batch`), shared by
//! `fleet_sweep` and `fleet_shard` so both reject malformed values with
//! the same clear messages (and a non-zero exit code, pinned by
//! `tests/cli_validation.rs`).

use std::path::PathBuf;

/// Parses a `--workers` value: a base-10 process count, `>= 1`.
///
/// # Errors
///
/// A human-readable message for non-numeric or zero values.
pub fn parse_workers(spec: &str) -> Result<usize, String> {
    let workers: usize = spec
        .trim()
        .parse()
        .map_err(|_| format!("--workers expects a whole number, got {spec:?}"))?;
    if workers == 0 {
        return Err(
            "--workers must be >= 1 (use --listen to run with only external workers)".to_string(),
        );
    }
    Ok(workers)
}

/// Parses a `--connect`/`--listen` value: syntactically a `host:port`
/// pair (non-empty host, valid `u16` port). The *original string* is
/// returned and DNS resolution is deliberately deferred to connect/bind
/// time — a worker started while the resolver is briefly unavailable
/// must fall into the connect retry loop, not die with a syntax error.
///
/// # Errors
///
/// A human-readable message naming the flag for port-less or
/// malformed-port addresses.
pub fn parse_addr(flag: &str, spec: &str) -> Result<String, String> {
    let spec = spec.trim();
    let well_formed = spec
        .rsplit_once(':')
        .is_some_and(|(host, port)| !host.is_empty() && port.parse::<u16>().is_ok());
    if well_formed {
        Ok(spec.to_string())
    } else {
        Err(format!(
            "{flag} expects host:port (e.g. 127.0.0.1:7700), got {spec:?}"
        ))
    }
}

/// Parses a `--checkpoint` or `--journal` value: a journal path whose
/// parent directory exists (the file itself may not yet — a first run
/// creates it, a later one resumes it).
///
/// # Errors
///
/// A human-readable message, naming `flag`, for empty paths or missing
/// parent directories.
pub fn parse_journal(flag: &str, spec: &str) -> Result<PathBuf, String> {
    if spec.trim().is_empty() {
        return Err(format!("{flag} expects a file path"));
    }
    let path = PathBuf::from(spec);
    let parent = match path.parent() {
        None => std::path::Path::new("."),
        Some(p) if p.as_os_str().is_empty() => std::path::Path::new("."),
        Some(p) => p,
    };
    if !parent.is_dir() {
        return Err(format!(
            "{flag} directory {} does not exist",
            parent.display()
        ));
    }
    Ok(path)
}

/// Parses a `--max-queue` value: the daemon's admission bound, `>= 1`
/// (a zero-slot queue could never admit anything — the daemon would
/// answer `Busy` forever).
///
/// # Errors
///
/// A human-readable message for non-numeric or zero values.
pub fn parse_max_queue(spec: &str) -> Result<usize, String> {
    let n: usize = spec
        .trim()
        .parse()
        .map_err(|_| format!("--max-queue expects a whole number, got {spec:?}"))?;
    if n == 0 {
        return Err("--max-queue must be >= 1".to_string());
    }
    Ok(n)
}

/// Parses a `--lease-secs` value: plan lease duration in seconds, `>= 1`.
///
/// # Errors
///
/// A human-readable message for non-numeric or zero values.
pub fn parse_lease_secs(spec: &str) -> Result<u64, String> {
    let n: u64 = spec
        .trim()
        .parse()
        .map_err(|_| format!("--lease-secs expects a whole number, got {spec:?}"))?;
    if n == 0 {
        return Err("--lease-secs must be >= 1".to_string());
    }
    Ok(n)
}

/// Parses a `--retry-max` value: extra submit attempts after the first
/// (`0` = exactly one try, no retries).
///
/// # Errors
///
/// A human-readable message for non-numeric values.
pub fn parse_retry_max(spec: &str) -> Result<u32, String> {
    spec.trim()
        .parse()
        .map_err(|_| format!("--retry-max expects a whole number (0 = no retries), got {spec:?}"))
}

/// Parses a `--retry-base-ms` value: first backoff delay in
/// milliseconds, `>= 1` (the exponential ladder and jitter are both
/// multiples of it).
///
/// # Errors
///
/// A human-readable message for non-numeric or zero values.
pub fn parse_retry_base_ms(spec: &str) -> Result<u64, String> {
    let n: u64 = spec
        .trim()
        .parse()
        .map_err(|_| format!("--retry-base-ms expects a whole number, got {spec:?}"))?;
    if n == 0 {
        return Err("--retry-base-ms must be >= 1".to_string());
    }
    Ok(n)
}

/// Parses a `--batch` value: jobs per shard, `>= 1`.
///
/// # Errors
///
/// A human-readable message for non-numeric or zero values.
pub fn parse_batch(spec: &str) -> Result<usize, String> {
    let batch: usize = spec
        .trim()
        .parse()
        .map_err(|_| format!("--batch expects a whole number, got {spec:?}"))?;
    if batch == 0 {
        return Err("--batch must be >= 1".to_string());
    }
    Ok(batch)
}

/// Parses a `--fail-after` value (worker fault injection): `>= 1`.
///
/// # Errors
///
/// A human-readable message for non-numeric or zero values.
pub fn parse_fail_after(spec: &str) -> Result<u32, String> {
    let n: u32 = spec
        .trim()
        .parse()
        .map_err(|_| format!("--fail-after expects a whole number, got {spec:?}"))?;
    if n == 0 {
        return Err("--fail-after must be >= 1".to_string());
    }
    Ok(n)
}

/// Parses a `--chaos-seed` value: the base seed of the deterministic
/// fault stream (each worker derives its own from it).
///
/// # Errors
///
/// A human-readable message for non-numeric values.
pub fn parse_chaos_seed(spec: &str) -> Result<u64, String> {
    spec.trim()
        .parse()
        .map_err(|_| format!("--chaos-seed expects a whole number, got {spec:?}"))
}

/// Parses a `--chaos-profile` value against the named profiles in
/// [`crate::faultnet::PROFILES`].
///
/// # Errors
///
/// A human-readable message listing the valid names.
pub fn parse_chaos_profile(spec: &str) -> Result<&'static crate::faultnet::ChaosProfile, String> {
    crate::faultnet::profile(spec.trim()).ok_or_else(|| {
        let names: Vec<&str> = crate::faultnet::PROFILES.iter().map(|p| p.name).collect();
        format!(
            "--chaos-profile expects one of {}, got {spec:?}",
            names.join("/")
        )
    })
}

/// Parses a `--max-job-failures` value (the quarantine strike limit K):
/// `>= 1`.
///
/// # Errors
///
/// A human-readable message for non-numeric or zero values.
pub fn parse_max_job_failures(spec: &str) -> Result<usize, String> {
    let k: usize = spec
        .trim()
        .parse()
        .map_err(|_| format!("--max-job-failures expects a whole number, got {spec:?}"))?;
    if k == 0 {
        return Err("--max-job-failures must be >= 1".to_string());
    }
    Ok(k)
}

/// Parses a `--verify-fraction` value: the fraction of jobs sampled for
/// duplicate-execution cross-checking, a finite number in `0..=1`.
///
/// # Errors
///
/// A human-readable message for non-numeric, non-finite, or
/// out-of-range values.
pub fn parse_verify_fraction(spec: &str) -> Result<f64, String> {
    let fraction: f64 = spec
        .trim()
        .parse()
        .map_err(|_| format!("--verify-fraction expects a number in 0..=1, got {spec:?}"))?;
    if !fraction.is_finite() || !(0.0..=1.0).contains(&fraction) {
        return Err(format!(
            "--verify-fraction must be within 0..=1, got {spec:?}"
        ));
    }
    Ok(fraction)
}

/// The distribution-relevant subset of `fleet_sweep` flags, checked for
/// internal consistency by [`validate_dist_flags`].
#[derive(Debug, Clone, Default)]
pub struct DistFlags {
    /// `--dist` was given.
    pub dist: bool,
    /// `--connect ADDR` was given (worker mode).
    pub connect: Option<String>,
    /// `--listen ADDR` was given.
    pub listen: Option<String>,
    /// `--checkpoint PATH` was given.
    pub checkpoint: Option<PathBuf>,
    /// `--batch N` was given.
    pub batch: Option<usize>,
    /// `--chaos-seed N` was given.
    pub chaos_seed: bool,
    /// `--chaos-profile NAME` was given.
    pub chaos_profile: bool,
    /// `--max-job-failures K` was given.
    pub max_job_failures: bool,
    /// `--verify-fraction F` was given.
    pub verify_fraction: bool,
    /// `--fail-after N` was given (spawned-worker fault injection).
    pub fail_after: bool,
    /// `--telemetry` was given.
    pub telemetry: bool,
    /// `--telemetry-out NAME` was given.
    pub telemetry_out: bool,
    /// `--metrics-listen ADDR` was given.
    pub metrics_listen: bool,
    /// Export/reporting flags that a worker cannot honor (`--csv`,
    /// `--json`, `--traces`, `--baseline`), by flag name.
    pub export_flags: Vec<String>,
    /// `--daemon` was given (persistent sweep service).
    pub daemon: bool,
    /// `--journal PATH` was given (daemon write-ahead log).
    pub journal: Option<PathBuf>,
    /// `--submit ADDR` was given (client mode: run the plan through a
    /// daemon at `ADDR`).
    pub submit: Option<String>,
    /// `--drain` was given (client mode: ask the daemon to finish and
    /// exit).
    pub drain: bool,
    /// `--max-queue N` was given (daemon admission bound).
    pub max_queue: bool,
    /// `--lease-secs N` was given (daemon plan leases).
    pub lease_secs: bool,
    /// `--retry-max N` was given (client retry budget).
    pub retry_max: bool,
    /// `--retry-base-ms N` was given (client backoff base).
    pub retry_base_ms: bool,
}

/// Cross-flag validation for the distribution modes: `--connect` turns
/// the process into a worker (which exports nothing and coordinates
/// nothing), `--listen`/`--checkpoint`/`--batch` only make sense on a
/// `--dist` coordinator, `--daemon` is the persistent service (requires
/// `--listen` and `--journal`), and `--submit` is the client side of the
/// daemon (mutually exclusive with running any sweep locally).
///
/// # Errors
///
/// A human-readable message naming the conflicting flags.
pub fn validate_dist_flags(flags: &DistFlags) -> Result<(), String> {
    if let Some(addr) = &flags.connect {
        if flags.dist {
            return Err(
                "--connect joins another coordinator; it cannot be combined with --dist"
                    .to_string(),
            );
        }
        if flags.listen.is_some() {
            return Err("--connect and --listen are mutually exclusive".to_string());
        }
        for (value, flag) in [
            (flags.daemon, "--daemon"),
            (flags.submit.is_some(), "--submit"),
            (flags.journal.is_some(), "--journal"),
            (flags.drain, "--drain"),
            (flags.max_queue, "--max-queue"),
            (flags.lease_secs, "--lease-secs"),
            (flags.retry_max, "--retry-max"),
            (flags.retry_base_ms, "--retry-base-ms"),
        ] {
            if value {
                return Err(format!(
                    "{flag} does not apply to a --connect worker (workers neither run \
                     the daemon nor submit to it)"
                ));
            }
        }
        if flags.checkpoint.is_some() {
            return Err(
                "--checkpoint belongs to the coordinator, not a --connect worker".to_string(),
            );
        }
        if flags.batch.is_some() {
            return Err("--batch belongs to the coordinator, not a --connect worker".to_string());
        }
        for (value, flag) in [
            (flags.chaos_seed, "--chaos-seed"),
            (flags.chaos_profile, "--chaos-profile"),
            (flags.max_job_failures, "--max-job-failures"),
            (flags.verify_fraction, "--verify-fraction"),
            (flags.fail_after, "--fail-after"),
        ] {
            if value {
                return Err(format!(
                    "{flag} belongs to the coordinator, not a --connect worker \
                     (use fleet_shard's own fault flags to perturb a single worker)"
                ));
            }
        }
        for (value, flag) in [
            (flags.telemetry, "--telemetry"),
            (flags.telemetry_out, "--telemetry-out"),
            (flags.metrics_listen, "--metrics-listen"),
        ] {
            if value {
                return Err(format!(
                    "{flag} belongs to the coordinator, not a --connect worker \
                     (workers are told to collect telemetry in the Welcome handshake)"
                ));
            }
        }
        if let Some(flag) = flags.export_flags.first() {
            return Err(format!(
                "{flag} does not apply to a --connect worker (the coordinator at {addr} owns \
                 all exports)"
            ));
        }
        return Ok(());
    }
    if flags.daemon {
        if flags.submit.is_some() {
            return Err("--daemon and --submit are mutually exclusive".to_string());
        }
        if flags.dist {
            return Err("--daemon is its own mode; it cannot be combined with --dist".to_string());
        }
        if flags.listen.is_none() {
            return Err("--daemon requires --listen (the service address)".to_string());
        }
        if flags.journal.is_none() {
            return Err(
                "--daemon requires --journal (durability is the point of the daemon)".to_string(),
            );
        }
        if flags.checkpoint.is_some() {
            return Err(
                "--checkpoint belongs to a one-shot --dist run; the daemon journals instead"
                    .to_string(),
            );
        }
        for (value, flag) in [
            (flags.drain, "--drain"),
            (flags.retry_max, "--retry-max"),
            (flags.retry_base_ms, "--retry-base-ms"),
        ] {
            if value {
                return Err(format!(
                    "{flag} is a --submit client operation, not a --daemon one"
                ));
            }
        }
        for (value, flag) in [
            (flags.chaos_seed, "--chaos-seed"),
            (flags.chaos_profile, "--chaos-profile"),
            (flags.verify_fraction, "--verify-fraction"),
            (flags.fail_after, "--fail-after"),
            (flags.telemetry_out, "--telemetry-out"),
            (flags.metrics_listen, "--metrics-listen"),
        ] {
            if value {
                return Err(format!("{flag} is not supported in --daemon mode"));
            }
        }
        if let Some(flag) = flags.export_flags.first() {
            return Err(format!(
                "{flag} does not apply to --daemon (results are fetched by --submit clients)"
            ));
        }
        return Ok(());
    }
    if let Some(addr) = &flags.submit {
        if flags.dist {
            return Err(format!(
                "--submit sends the plan to the daemon at {addr}; it cannot be combined \
                 with --dist"
            ));
        }
        if flags.listen.is_some() {
            return Err("--listen belongs to the daemon, not a --submit client".to_string());
        }
        if flags.checkpoint.is_some() {
            return Err(
                "--checkpoint does not apply to --submit (the daemon's journal is the \
                 durability layer)"
                    .to_string(),
            );
        }
        if flags.journal.is_some() {
            return Err("--journal belongs to the daemon, not a --submit client".to_string());
        }
        for (value, flag) in [
            (flags.batch.is_some(), "--batch"),
            (flags.max_queue, "--max-queue"),
            (flags.lease_secs, "--lease-secs"),
            (flags.max_job_failures, "--max-job-failures"),
            (flags.verify_fraction, "--verify-fraction"),
            (flags.fail_after, "--fail-after"),
            (flags.telemetry, "--telemetry"),
            (flags.telemetry_out, "--telemetry-out"),
            (flags.metrics_listen, "--metrics-listen"),
        ] {
            if value {
                return Err(format!(
                    "{flag} belongs to the daemon or coordinator, not a --submit client"
                ));
            }
        }
        // Chaos flags ARE allowed with --submit: they perturb the
        // client→daemon link (the retry/backoff story under test).
        if flags.chaos_profile && !flags.chaos_seed {
            return Err(
                "--chaos-profile requires --chaos-seed (the fault stream is seeded)".to_string(),
            );
        }
        return Ok(());
    }
    // Neither worker, daemon, nor client: the daemon/client knobs are
    // orphans here.
    for (value, flag, owner) in [
        (flags.journal.is_some(), "--journal", "--daemon"),
        (flags.max_queue, "--max-queue", "--daemon"),
        (flags.lease_secs, "--lease-secs", "--daemon"),
        (flags.drain, "--drain", "--submit"),
        (flags.retry_max, "--retry-max", "--submit"),
        (flags.retry_base_ms, "--retry-base-ms", "--submit"),
    ] {
        if value {
            return Err(format!("{flag} requires {owner}"));
        }
    }
    if !flags.dist {
        for (value, flag) in [
            (flags.listen.is_some(), "--listen"),
            (flags.checkpoint.is_some(), "--checkpoint"),
            (flags.batch.is_some(), "--batch"),
            (flags.chaos_seed, "--chaos-seed"),
            (flags.chaos_profile, "--chaos-profile"),
            (flags.max_job_failures, "--max-job-failures"),
            (flags.verify_fraction, "--verify-fraction"),
            (flags.fail_after, "--fail-after"),
            (flags.metrics_listen, "--metrics-listen"),
        ] {
            if value {
                return Err(format!("{flag} requires --dist"));
            }
        }
    }
    if flags.chaos_profile && !flags.chaos_seed {
        return Err(
            "--chaos-profile requires --chaos-seed (the fault stream is seeded)".to_string(),
        );
    }
    if flags.telemetry_out && !flags.telemetry {
        return Err(
            "--telemetry-out requires --telemetry (nothing to write otherwise)".to_string(),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_must_be_a_positive_count() {
        assert_eq!(parse_workers("4"), Ok(4));
        assert_eq!(parse_workers(" 2 "), Ok(2));
        assert!(parse_workers("0").is_err());
        assert!(parse_workers("-1").is_err());
        assert!(parse_workers("two").is_err());
        assert!(parse_workers("").is_err());
    }

    #[test]
    fn addresses_need_host_and_port() {
        assert_eq!(
            parse_addr("--connect", "127.0.0.1:7700"),
            Ok("127.0.0.1:7700".to_string())
        );
        assert_eq!(
            parse_addr("--listen", "localhost:0"),
            Ok("localhost:0".to_string())
        );
        // Resolution is deferred to connect time: a well-formed but
        // (currently) unresolvable host must parse, so workers retry
        // instead of dying with a syntax error.
        assert!(parse_addr("--connect", "coord-host.invalid:7700").is_ok());
        assert!(parse_addr("--listen", "[::1]:7700").is_ok());
        let err = parse_addr("--connect", "127.0.0.1").expect_err("port required");
        assert!(err.contains("--connect"), "message names the flag: {err}");
        assert!(parse_addr("--connect", "not a host:port").is_err());
        assert!(parse_addr("--connect", "").is_err());
    }

    #[test]
    fn checkpoint_paths_need_an_existing_directory() {
        let parse = |spec| parse_journal("--checkpoint", spec);
        assert!(parse("ckpt.bin").is_ok(), "cwd-relative is fine");
        let tmp = std::env::temp_dir().join("ckpt.bin");
        assert!(parse(tmp.to_str().expect("utf-8 temp dir")).is_ok());
        assert!(parse("").is_err());
        let err = parse("/no/such/dir/anywhere/ckpt.bin").expect_err("missing dir");
        assert!(err.contains("--checkpoint directory"), "{err}");
        assert!(err.contains("does not exist"), "{err}");
    }

    #[test]
    fn batch_and_fail_after_are_positive_counts() {
        assert_eq!(parse_batch("8"), Ok(8));
        assert!(parse_batch("0").is_err());
        assert!(parse_batch("x").is_err());
        assert_eq!(parse_fail_after("3"), Ok(3));
        assert!(parse_fail_after("0").is_err());
        assert!(parse_fail_after("3.5").is_err());
    }

    #[test]
    fn chaos_and_verify_values_are_validated() {
        assert_eq!(parse_chaos_seed("42"), Ok(42));
        assert!(parse_chaos_seed("-3").is_err());
        assert!(parse_chaos_seed("many").is_err());
        assert_eq!(parse_chaos_profile("storm").map(|p| p.name), Ok("storm"));
        assert_eq!(parse_chaos_profile(" mild ").map(|p| p.name), Ok("mild"));
        let err = parse_chaos_profile("hurricane").expect_err("unknown profile");
        assert!(err.contains("storm"), "message lists valid names: {err}");
        assert_eq!(parse_max_job_failures("3"), Ok(3));
        assert!(parse_max_job_failures("0").is_err());
        assert!(parse_max_job_failures("k").is_err());
        assert_eq!(parse_verify_fraction("0.25"), Ok(0.25));
        assert_eq!(parse_verify_fraction("1"), Ok(1.0));
        assert_eq!(parse_verify_fraction("0"), Ok(0.0));
        assert!(parse_verify_fraction("1.5").is_err());
        assert!(parse_verify_fraction("-0.1").is_err());
        assert!(parse_verify_fraction("nan").is_err());
        assert!(parse_verify_fraction("inf").is_err());
        assert!(parse_verify_fraction("lots").is_err());
    }

    #[test]
    fn chaos_flags_require_dist_and_a_seed() {
        for flags in [
            DistFlags {
                chaos_seed: true,
                ..DistFlags::default()
            },
            DistFlags {
                max_job_failures: true,
                ..DistFlags::default()
            },
            DistFlags {
                verify_fraction: true,
                ..DistFlags::default()
            },
            DistFlags {
                fail_after: true,
                ..DistFlags::default()
            },
        ] {
            let err = validate_dist_flags(&flags).expect_err("requires --dist");
            assert!(err.contains("--dist"), "{err}");
        }
        let profile_without_seed = DistFlags {
            dist: true,
            chaos_profile: true,
            ..DistFlags::default()
        };
        let err = validate_dist_flags(&profile_without_seed).expect_err("needs a seed");
        assert!(err.contains("--chaos-seed"), "{err}");
        let ok = DistFlags {
            dist: true,
            chaos_seed: true,
            chaos_profile: true,
            max_job_failures: true,
            verify_fraction: true,
            fail_after: true,
            ..DistFlags::default()
        };
        assert_eq!(validate_dist_flags(&ok), Ok(()));
        let worker = DistFlags {
            connect: Some("127.0.0.1:7700".into()),
            chaos_seed: true,
            ..DistFlags::default()
        };
        let err = validate_dist_flags(&worker).expect_err("worker rejects chaos flags");
        assert!(err.contains("coordinator"), "{err}");
    }

    #[test]
    fn coordinator_only_flags_require_dist() {
        let ok = DistFlags {
            dist: true,
            checkpoint: Some(PathBuf::from("ckpt.bin")),
            batch: Some(4),
            listen: Some("127.0.0.1:0".into()),
            ..DistFlags::default()
        };
        assert_eq!(validate_dist_flags(&ok), Ok(()));
        for flags in [
            DistFlags {
                checkpoint: Some(PathBuf::from("ckpt.bin")),
                ..DistFlags::default()
            },
            DistFlags {
                listen: Some("127.0.0.1:0".into()),
                ..DistFlags::default()
            },
            DistFlags {
                batch: Some(4),
                ..DistFlags::default()
            },
        ] {
            let err = validate_dist_flags(&flags).expect_err("requires --dist");
            assert!(err.contains("--dist"), "{err}");
        }
    }

    #[test]
    fn telemetry_flags_are_cross_checked() {
        // --telemetry alone is fine for a local (non-dist) sweep.
        let local = DistFlags {
            telemetry: true,
            ..DistFlags::default()
        };
        assert_eq!(validate_dist_flags(&local), Ok(()));
        // --telemetry-out without --telemetry has nothing to write.
        let orphan_out = DistFlags {
            telemetry_out: true,
            ..DistFlags::default()
        };
        let err = validate_dist_flags(&orphan_out).expect_err("needs --telemetry");
        assert!(err.contains("--telemetry"), "{err}");
        // --metrics-listen serves the live coordinator; local pools have
        // no coordinator to observe.
        let orphan_listen = DistFlags {
            metrics_listen: true,
            ..DistFlags::default()
        };
        let err = validate_dist_flags(&orphan_listen).expect_err("needs --dist");
        assert!(err.contains("--dist"), "{err}");
        let full = DistFlags {
            dist: true,
            telemetry: true,
            telemetry_out: true,
            metrics_listen: true,
            ..DistFlags::default()
        };
        assert_eq!(validate_dist_flags(&full), Ok(()));
        // A --connect worker takes telemetry orders from the Welcome
        // frame, not from its own flags.
        for flags in [
            DistFlags {
                connect: Some("127.0.0.1:7700".into()),
                telemetry: true,
                ..DistFlags::default()
            },
            DistFlags {
                connect: Some("127.0.0.1:7700".into()),
                metrics_listen: true,
                ..DistFlags::default()
            },
        ] {
            let err = validate_dist_flags(&flags).expect_err("worker rejects telemetry flags");
            assert!(err.contains("coordinator"), "{err}");
        }
    }

    #[test]
    fn daemon_mode_requires_listen_and_journal() {
        let ok = DistFlags {
            daemon: true,
            listen: Some("127.0.0.1:0".into()),
            journal: Some(PathBuf::from("fleet.journal")),
            max_queue: true,
            lease_secs: true,
            telemetry: true,
            batch: Some(4),
            max_job_failures: true,
            ..DistFlags::default()
        };
        assert_eq!(validate_dist_flags(&ok), Ok(()));
        let no_listen = DistFlags {
            daemon: true,
            journal: Some(PathBuf::from("fleet.journal")),
            ..DistFlags::default()
        };
        let err = validate_dist_flags(&no_listen).expect_err("needs --listen");
        assert!(err.contains("--listen"), "{err}");
        let no_journal = DistFlags {
            daemon: true,
            listen: Some("127.0.0.1:0".into()),
            ..DistFlags::default()
        };
        let err = validate_dist_flags(&no_journal).expect_err("needs --journal");
        assert!(err.contains("--journal"), "{err}");
        for conflict in [
            DistFlags {
                dist: true,
                ..ok.clone()
            },
            DistFlags {
                submit: Some("127.0.0.1:7700".into()),
                ..ok.clone()
            },
            DistFlags {
                checkpoint: Some(PathBuf::from("ckpt.bin")),
                ..ok.clone()
            },
            DistFlags {
                drain: true,
                ..ok.clone()
            },
            DistFlags {
                export_flags: vec!["--json".into()],
                ..ok.clone()
            },
        ] {
            assert!(validate_dist_flags(&conflict).is_err(), "{conflict:?}");
        }
    }

    #[test]
    fn submit_mode_is_a_pure_client() {
        let ok = DistFlags {
            submit: Some("127.0.0.1:7700".into()),
            drain: true,
            retry_max: true,
            retry_base_ms: true,
            chaos_seed: true,
            chaos_profile: true,
            export_flags: vec!["--json".into()],
            ..DistFlags::default()
        };
        assert_eq!(validate_dist_flags(&ok), Ok(()));
        for conflict in [
            DistFlags {
                dist: true,
                ..ok.clone()
            },
            DistFlags {
                listen: Some("127.0.0.1:0".into()),
                ..ok.clone()
            },
            DistFlags {
                checkpoint: Some(PathBuf::from("ckpt.bin")),
                ..ok.clone()
            },
            DistFlags {
                journal: Some(PathBuf::from("fleet.journal")),
                ..ok.clone()
            },
            DistFlags {
                telemetry: true,
                ..ok.clone()
            },
        ] {
            assert!(validate_dist_flags(&conflict).is_err(), "{conflict:?}");
        }
        // Chaos on the submit link still needs its seed.
        let profile_only = DistFlags {
            submit: Some("127.0.0.1:7700".into()),
            chaos_profile: true,
            ..DistFlags::default()
        };
        let err = validate_dist_flags(&profile_only).expect_err("needs a seed");
        assert!(err.contains("--chaos-seed"), "{err}");
    }

    #[test]
    fn daemon_client_knobs_require_their_mode() {
        for (flags, owner) in [
            (
                DistFlags {
                    journal: Some(PathBuf::from("fleet.journal")),
                    ..DistFlags::default()
                },
                "--daemon",
            ),
            (
                DistFlags {
                    max_queue: true,
                    ..DistFlags::default()
                },
                "--daemon",
            ),
            (
                DistFlags {
                    lease_secs: true,
                    ..DistFlags::default()
                },
                "--daemon",
            ),
            (
                DistFlags {
                    drain: true,
                    ..DistFlags::default()
                },
                "--submit",
            ),
            (
                DistFlags {
                    retry_max: true,
                    ..DistFlags::default()
                },
                "--submit",
            ),
            (
                DistFlags {
                    retry_base_ms: true,
                    ..DistFlags::default()
                },
                "--submit",
            ),
        ] {
            let err = validate_dist_flags(&flags).expect_err("orphan knob");
            assert!(err.contains(owner), "{err}");
        }
        // And a --connect worker rejects all of them.
        let worker = DistFlags {
            connect: Some("127.0.0.1:7700".into()),
            drain: true,
            ..DistFlags::default()
        };
        let err = validate_dist_flags(&worker).expect_err("worker rejects client knobs");
        assert!(err.contains("--connect worker"), "{err}");
    }

    #[test]
    fn daemon_value_parsers_validate_ranges() {
        assert_eq!(parse_max_queue("8"), Ok(8));
        assert!(parse_max_queue("0").is_err());
        assert!(parse_max_queue("full").is_err());
        assert_eq!(parse_lease_secs("300"), Ok(300));
        assert!(parse_lease_secs("0").is_err());
        assert_eq!(parse_retry_max("0"), Ok(0), "0 = single attempt is legal");
        assert_eq!(parse_retry_max("8"), Ok(8));
        assert!(parse_retry_max("-1").is_err());
        assert_eq!(parse_retry_base_ms("100"), Ok(100));
        assert!(parse_retry_base_ms("0").is_err());
        assert!(parse_journal("--journal", "fleet.journal").is_ok());
        assert!(parse_journal("--journal", "").is_err());
        let err = parse_journal("--journal", "/no/such/dir/anywhere/fleet.journal")
            .expect_err("missing dir");
        assert!(err.contains("does not exist"), "{err}");
    }

    #[test]
    fn worker_mode_excludes_coordinator_and_export_flags() {
        let base = DistFlags {
            connect: Some("127.0.0.1:7700".into()),
            ..DistFlags::default()
        };
        assert_eq!(validate_dist_flags(&base), Ok(()));
        let conflicts = [
            DistFlags {
                dist: true,
                ..base.clone()
            },
            DistFlags {
                listen: Some("127.0.0.1:0".into()),
                ..base.clone()
            },
            DistFlags {
                checkpoint: Some(PathBuf::from("ckpt.bin")),
                ..base.clone()
            },
            DistFlags {
                batch: Some(2),
                ..base.clone()
            },
            DistFlags {
                export_flags: vec!["--json".into()],
                ..base.clone()
            },
        ];
        for flags in conflicts {
            assert!(validate_dist_flags(&flags).is_err(), "{flags:?}");
        }
    }
}
