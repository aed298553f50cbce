//! Peak resident set size of the benchmark and of the worker processes
//! it spawns.
//!
//! Workers are spawned by the library (coordinator or daemon), so the
//! benchmark cannot wait on them itself. Instead every worker writes its
//! own peak into the directory named by [`DIR_ENV`] just before it exits,
//! and the benchmark reads the largest one back.

use std::path::{Path, PathBuf};

/// Environment variable naming the directory workers report into.
pub const DIR_ENV: &str = "PERFBENCH_RSS_DIR";

/// This process's peak RSS (`VmHWM`) in KiB.
pub fn own_peak_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Prepares `dir` for worker reports and points spawned workers at it.
/// Call before any thread or worker is started.
pub fn collect_workers_into(dir: &Path) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    std::env::set_var(DIR_ENV, dir);
    Ok(())
}

/// Worker side: records this process's peak, if a directory was given.
pub fn report_worker_peak() {
    if let Some(dir) = std::env::var_os(DIR_ENV) {
        let path = PathBuf::from(dir).join(format!("{}.kib", std::process::id()));
        let _ = std::fs::write(path, own_peak_kib().to_string());
    }
}

/// The largest peak among this process and every worker that reported,
/// in MiB. This process's peak excludes the calibration tables, which
/// stay resident from the start of the run to its end.
pub fn peak_mib() -> f64 {
    let workers = std::env::var_os(DIR_ENV)
        .and_then(|dir| std::fs::read_dir(dir).ok())
        .into_iter()
        .flatten()
        .filter_map(|entry| std::fs::read_to_string(entry.ok()?.path()).ok())
        .filter_map(|text| text.trim().parse::<u64>().ok())
        .max()
        .unwrap_or(0);
    let own = own_peak_kib().saturating_sub(crate::calib::TABLE_BYTES / 1024);
    own.max(workers) as f64 / 1024.0
}
