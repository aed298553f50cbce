//! Shared harness utilities for the experiment binaries that regenerate
//! every table and figure of the Zhuyi paper.
//!
//! Each `src/bin/*.rs` binary reproduces one artifact (see DESIGN.md's
//! experiment index); this library provides the common plumbing: aligned
//! ASCII tables, CSV export into `results/`, and tiny statistics helpers.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod figures;

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// A simple aligned ASCII table printer.
#[derive(Debug, Default, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// The rows as CSV lines (header first).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let escape = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        out.push_str(
            &self
                .header
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Reads an experiment binary's command line against its usage text,
/// which starts with `USAGE:`. `--help` or `-h` anywhere prints `usage`
/// and exits 0. Otherwise `parse` reads the arguments; its `Err` is a
/// usage error, reported as an `error:` line plus `usage` on stderr with
/// exit code 2, before the binary has written anything.
pub fn command_line<T>(usage: &str, parse: impl FnOnce(Vec<String>) -> Result<T, String>) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|arg| arg == "--help" || arg == "-h") {
        println!("{usage}");
        std::process::exit(0);
    }
    parse(args).unwrap_or_else(|message| {
        eprintln!("error: {message}\n{usage}");
        std::process::exit(2)
    })
}

/// [`command_line`] for a binary whose arguments are on/off switches:
/// which of `names` were given. Any other argument is a usage error.
pub fn switches<const N: usize>(usage: &str, names: [&str; N]) -> [bool; N] {
    command_line(usage, |args| {
        let mut given = [false; N];
        for arg in args {
            let i = names
                .iter()
                .position(|&name| name == arg)
                .ok_or_else(|| format!("unknown argument {arg:?}"))?;
            given[i] = true;
        }
        Ok(given)
    })
}

/// The directory experiment binaries write their CSVs into: `results/`
/// under the current working directory, so a binary writes into the
/// checkout it is run from (the repo root, in every documented command),
/// never into the one it happened to be built in.
pub fn results_dir() -> PathBuf {
    PathBuf::from("results")
}

/// Writes `contents` under `results/<name>`, creating the directory.
///
/// # Panics
///
/// Panics on I/O errors — experiment binaries have nothing better to do
/// with a failed write than abort loudly.
pub fn write_results(name: &str, contents: &str) -> PathBuf {
    let dir = results_dir();
    fs::create_dir_all(&dir).expect("create results directory");
    let path = dir.join(name);
    let mut f = fs::File::create(&path).expect("create results file");
    f.write_all(contents.as_bytes())
        .expect("write results file");
    path
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Maximum of an `f64` slice; `None` for an empty slice.
pub fn max(values: &[f64]) -> Option<f64> {
    values.iter().copied().reduce(f64::max)
}

/// Formats an `f64` with one decimal, using `-` for `None`.
pub fn fmt1(value: Option<f64>) -> String {
    value.map_or_else(|| "-".to_string(), |v| format!("{v:.1}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["scenario", "mrf"]);
        t.row(["Cut-out", "2"]);
        t.row(["Cut-out fast", "6"]);
        let s = t.render();
        assert!(s.contains("Cut-out fast"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[1]
                .chars()
                .collect::<std::collections::HashSet<_>>()
                .len(),
            1
        );
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new(["a", "b"]);
        t.row(["x,y", "plain"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(max(&[1.0, 5.0, 3.0]), Some(5.0));
        assert_eq!(fmt1(Some(1.25)), "1.2");
        assert_eq!(fmt1(None), "-");
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["only-one"]);
        assert!(t.render().contains("only-one"));
        assert_eq!(t.to_csv().lines().nth(1), Some("only-one,,"));
    }
}
