//! `scenario_gen`'s command line: `--help` prints the usage and exits 0;
//! an unknown flag exits 2 with the usage on stderr, writing nothing.

use std::process::{Command, Output};

fn scenario_gen(args: &[&str], dir: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scenario_gen"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run scenario_gen")
}

#[test]
fn help_exits_zero_and_unknown_flags_exit_two() {
    let dir = std::env::temp_dir().join(format!("scenario-gen-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    for flag in ["--help", "-h"] {
        let out = scenario_gen(&[flag], &dir);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with("Usage: scenario_gen"),
            "{flag}: {stdout}"
        );
    }
    let out = scenario_gen(&["--out", "generated", "--bogus"], &dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("error: unknown flag \"--bogus\""),
        "{stderr}"
    );
    assert!(stderr.contains("Usage: scenario_gen"), "{stderr}");
    let wrote = std::fs::read_dir(&dir).expect("temp dir").count();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(wrote, 0, "a usage error wrote files");
}
