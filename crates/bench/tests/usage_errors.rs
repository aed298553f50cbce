//! The experiment binaries reject a malformed command line before running
//! anything: exit 2, an `error:` line and the usage text on stderr, and no
//! `results/` written. A zero seed count is malformed too: it would leave
//! nothing to measure. `--help` and `-h` print the usage text and exit 0.

use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `bin` with `args` in a fresh temporary directory; returns its
/// output and whether it wrote `results/`.
fn run_in_fresh_dir(bin: &str, args: &[&str]) -> (Output, bool) {
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
    let wrote_results = dir.join("results").exists();
    let _ = std::fs::remove_dir_all(&dir);
    (out, wrote_results)
}

/// Asserts a usage failure of `bin` on `args`.
fn assert_usage_error(bin: &str, args: &[&str]) {
    let (out, wrote_results) = run_in_fresh_dir(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
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

/// Asserts that `--help` and `-h` print the usage text and exit 0.
fn assert_help(bin: &str) {
    for flag in ["--help", "-h"] {
        let (out, wrote_results) = run_in_fresh_dir(bin, &[flag]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{flag}: expected exit 0");
        assert!(
            stdout.starts_with("USAGE:"),
            "{flag}: usage on stdout: {stdout}"
        );
        assert!(!wrote_results, "{flag}: help wrote results/");
    }
}

const TABLE1_VALIDATION: &str = env!("CARGO_BIN_EXE_table1_validation");
const CERTPROBE: &str = env!("CARGO_BIN_EXE_certprobe");
const FIG8_SENSITIVITY: &str = env!("CARGO_BIN_EXE_fig8_sensitivity");

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
    assert_help(TABLE1_VALIDATION);
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
    assert_help(CERTPROBE);
}

#[test]
fn fig8_sensitivity_rejects_a_misspelt_switch() {
    for args in [&["--agregate"][..], &["--aggregate", "--bogus"], &["30"]] {
        assert_usage_error(FIG8_SENSITIVITY, args);
    }
    assert_help(FIG8_SENSITIVITY);
}

/// One test per binary that takes no arguments at all.
macro_rules! takes_no_arguments {
    ($($test:ident => $bin:literal),* $(,)?) => {$(
        #[test]
        fn $test() {
            let bin = env!(concat!("CARGO_BIN_EXE_", $bin));
            assert_usage_error(bin, &["--bogus"]);
            assert_usage_error(bin, &["1"]);
            assert_help(bin);
        }
    )*};
}

takes_no_arguments! {
    ablation_conservatism_takes_no_arguments => "ablation_conservatism",
    baseline_grid_search_takes_no_arguments => "baseline_grid_search",
    compute_demand_takes_no_arguments => "compute_demand",
    fig1_compute_demand_takes_no_arguments => "fig1_compute_demand",
    fig4_cut_out_fast_takes_no_arguments => "fig4_cut_out_fast",
    fig5_curved_cut_in_takes_no_arguments => "fig5_curved_cut_in",
    fig6_cut_in_takes_no_arguments => "fig6_cut_in",
    fig7_post_deployment_takes_no_arguments => "fig7_post_deployment",
    necessary_accuracy_takes_no_arguments => "necessary_accuracy",
}
