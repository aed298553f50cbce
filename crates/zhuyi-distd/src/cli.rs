//! Value parsers shared by the sweep CLIs (`fleet_sweep`, `fleet_shard`
//! and `perf_baseline`). Each error message names its flag, so a
//! malformed value exits 2 with a clear message (pinned by
//! `tests/cli_validation.rs`).

use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

/// Parses `flag`'s value as a base-10 whole number of at least `min`.
///
/// # Errors
///
/// A message naming `flag` for non-numeric values and values below
/// `min`.
pub fn parse_count<T: FromStr + PartialOrd + Display>(
    flag: &str,
    spec: &str,
    min: T,
) -> Result<T, String> {
    let n: T = spec
        .trim()
        .parse()
        .map_err(|_| format!("{flag} expects a whole number, got {spec:?}"))?;
    if n < min {
        return Err(format!("{flag} must be >= {min}, got {spec:?}"));
    }
    Ok(n)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_whole_numbers_at_or_above_their_minimum() {
        assert_eq!(parse_count("--workers", "4", 1usize), Ok(4));
        assert_eq!(parse_count("--workers", " 2 ", 1usize), Ok(2));
        assert_eq!(parse_count("--retry-max", "0", 0u32), Ok(0));
        assert_eq!(parse_count("--chaos-seed", "42", 0u64), Ok(42));
        for bad in ["0", "-1", "two", "", "3.5"] {
            let err = parse_count("--batch", bad, 1usize).expect_err(bad);
            assert!(err.contains("--batch"), "message names the flag: {err}");
        }
        let err = parse_count("--max-queue", "0", 1usize).expect_err("below the minimum");
        assert!(err.contains(">= 1"), "{err}");
        assert!(parse_count("--chaos-seed", "-3", 0u64).is_err());
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
        assert!(parse_journal("--journal", "fleet.journal").is_ok());
        assert!(parse_journal("--journal", "").is_err());
    }

    #[test]
    fn chaos_and_verify_values_are_validated() {
        assert_eq!(parse_chaos_profile("storm").map(|p| p.name), Ok("storm"));
        assert_eq!(parse_chaos_profile(" mild ").map(|p| p.name), Ok("mild"));
        let err = parse_chaos_profile("hurricane").expect_err("unknown profile");
        assert!(err.contains("storm"), "message lists valid names: {err}");
        assert_eq!(parse_verify_fraction("0.25"), Ok(0.25));
        assert_eq!(parse_verify_fraction("1"), Ok(1.0));
        assert_eq!(parse_verify_fraction("0"), Ok(0.0));
        assert!(parse_verify_fraction("1.5").is_err());
        assert!(parse_verify_fraction("-0.1").is_err());
        assert!(parse_verify_fraction("nan").is_err());
        assert!(parse_verify_fraction("inf").is_err());
        assert!(parse_verify_fraction("lots").is_err());
    }
}
