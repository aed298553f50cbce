//! The experiment binaries reject a malformed command line before running
//! anything: exit 2, the usage text on stderr, and no `results/` written.
//! A zero seed count is malformed too: it would leave nothing to measure.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `bin` with `args` in a fresh temporary directory and asserts a
/// usage failure.
fn assert_usage_error(bin: &str, args: &[&str]) {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "zhuyi-bench-usage-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run the binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let wrote_results = dir.join("results").exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?}: expected exit 2; stderr: {stderr}"
    );
    assert!(
        stderr.contains("error:") && stderr.contains("USAGE:"),
        "{args:?}: stderr must carry an error line and the usage text: {stderr}"
    );
    assert!(!wrote_results, "{args:?}: a usage error wrote results/");
}

const TABLE1_VALIDATION: &str = env!("CARGO_BIN_EXE_table1_validation");
const CERTPROBE: &str = env!("CARGO_BIN_EXE_certprobe");

#[test]
fn table1_validation_rejects_malformed_arguments() {
    for args in [
        &["--seeds", "0", "--quick"][..],
        &["--seeds", "abc", "--quick"],
        &["--seeds", "-1", "--quick"],
        &["--quick", "--seeds"],
        &["--bogus", "--quick"],
        &["--quick", "3"],
    ] {
        assert_usage_error(TABLE1_VALIDATION, args);
    }
}

#[test]
fn certprobe_rejects_malformed_arguments() {
    for args in [
        &["0", "--check"][..],
        &["0"],
        &["abc", "--check"],
        &["--bogus"],
    ] {
        assert_usage_error(CERTPROBE, args);
    }
}
