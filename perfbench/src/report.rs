//! What a workload run hands back, and how it is printed.

use crate::calib::Calibrator;
use crate::stats;
use std::fmt::Write as _;
use std::time::Instant;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `ms` or `ops/s`.
    pub unit: &'static str,
}

/// The tally of one output check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Items that passed.
    pub passed: u64,
    /// Items checked.
    pub total: u64,
}

impl Check {
    /// Whether every item passed.
    pub fn ok(&self) -> bool {
        self.passed == self.total
    }
}

/// The result of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed: an error, a refusal, a quarantine or a failed
    /// output check.
    pub failed: u64,
    /// Output checks.
    pub checks: Vec<Check>,
    /// The metrics the JSON line carries.
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (informational figures, layer tables).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Every op succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(Check::ok)
    }

    /// Adds a check tally.
    pub fn check(&mut self, name: &'static str, passed: u64, total: u64) {
        self.checks.push(Check {
            name,
            passed,
            total,
        });
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Human-readable report lines.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("== {title} ==\n");
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        for c in &self.checks {
            let verdict = if c.ok() { "ok" } else { "FAILED" };
            let _ = writeln!(
                out,
                "  check {:<44} {}/{} {verdict}",
                c.name, c.passed, c.total
            );
        }
        let _ = writeln!(
            out,
            "  attempted {}  failed {}",
            self.attempted, self.failed
        );
        out
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number in full precision; non-finite values (which no
/// metric should produce) print as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// One window of the measured phase: consecutive requests whose ops and
/// wall time are taken together.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Ops completed in the window.
    pub ops: u64,
    /// Wall time of the window's requests, s.
    pub wall_s: f64,
    /// Latency of every request in the window, ms.
    pub latencies_ms: Vec<f64>,
    /// Host speed around the window (see [`crate::calib`]).
    pub speed: f64,
}

/// The end-to-end metrics every workload reports.
///
/// The measured phase is cut into windows of fresh inputs. Every time is
/// normalised by the host speed measured around it ([`crate::calib`]):
/// `ops_per_s` is all ops over all normalised window time, `lat_p50_ms`
/// the median of the windows' median request latencies, and `setup_s`
/// the median set-up.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// The measured phase, window by window.
    pub windows: Vec<Window>,
    /// Every set-up repetition: its wall time, s, and the host speed.
    pub setups: Vec<(f64, f64)>,
    /// The request's name in the informational lines (e.g. `step`).
    pub request: &'static str,
}

impl EndToEnd {
    /// An empty record for requests named `request`.
    pub fn new(request: &'static str) -> Self {
        Self {
            request,
            ..Self::default()
        }
    }

    /// Runs one set-up repetition and records its time.
    pub fn setup<T>(&mut self, calib: &mut Calibrator, f: impl FnOnce() -> T) -> T {
        let speed = calib.speed();
        let t = Instant::now();
        let out = f();
        self.setups.push((t.elapsed().as_secs_f64(), speed));
        out
    }

    /// Measures one window: `f` fills it in; the host speed is taken on
    /// both sides of it.
    pub fn window<T>(&mut self, calib: &mut Calibrator, f: impl FnOnce(&mut Window) -> T) -> T {
        let before = calib.speed();
        let mut window = Window::default();
        let out = f(&mut window);
        window.speed = (before * calib.speed()).sqrt();
        self.windows.push(window);
        out
    }

    /// Wall time measured so far, s.
    pub fn measured_s(&self) -> f64 {
        self.windows.iter().map(|w| w.wall_s).sum()
    }

    /// Ops completed so far.
    pub fn ops(&self) -> u64 {
        self.windows.iter().map(|w| w.ops).sum()
    }

    /// Ops per second over the whole phase, each window's wall time
    /// normalised by the host speed around it.
    pub fn ops_per_s(&self) -> f64 {
        let speed_s: f64 = self.windows.iter().map(|w| w.wall_s * w.speed).sum();
        self.ops() as f64 / speed_s.max(f64::MIN_POSITIVE)
    }

    /// Median of the windows' normalised median request latencies, ms.
    pub fn lat_p50_ms(&self) -> f64 {
        let medians: Vec<f64> = self
            .windows
            .iter()
            .map(|w| stats::median(&w.latencies_ms) * w.speed)
            .collect();
        stats::median(&medians)
    }

    /// Appends the end-to-end metrics and their informational lines.
    pub fn report(&self, out: &mut Outcome, peak_rss_mib: f64) {
        let setups: Vec<f64> = self.setups.iter().map(|(s, speed)| s * speed).collect();
        out.metric("ops_per_s", self.ops_per_s(), "ops/s");
        out.metric("lat_p50_ms", self.lat_p50_ms(), "ms");
        out.metric("setup_s", stats::median(&setups), "s");
        out.metric("peak_rss_mib", peak_rss_mib, "MiB");
        let speeds: Vec<f64> = self.windows.iter().map(|w| w.speed).collect();
        let raw_setups: Vec<f64> = self.setups.iter().map(|(s, _)| *s).collect();
        out.notes.push(format!(
            "{} ops in {:.3} s over {} windows; {} set-ups",
            self.ops(),
            self.measured_s(),
            self.windows.len(),
            self.setups.len()
        ));
        out.notes.push(format!(
            "raw (not normalised): ops_per_s {:.3}, setup_s {:.6}; host speed median {:.3} (min {:.3}, max {:.3})",
            self.ops() as f64 / self.measured_s().max(f64::MIN_POSITIVE),
            stats::median(&raw_setups),
            stats::median(&speeds),
            speeds.iter().copied().fold(f64::INFINITY, f64::min),
            speeds.iter().copied().fold(0.0, f64::max),
        ));
        let lat = stats::sorted(
            &self
                .windows
                .iter()
                .flat_map(|w| w.latencies_ms.iter().copied())
                .collect::<Vec<_>>(),
        );
        match stats::tail(&lat) {
            Some(t) => out.notes.push(format!(
                "raw {}s: {} pooled; p50 {:.6} ms; p{} {:.6} ms ({} beyond it)",
                self.request,
                lat.len(),
                stats::median(&lat),
                t.percentile,
                t.value,
                t.beyond
            )),
            None => out.notes.push(format!(
                "raw {}s: {} pooled, too few for a percentile with 10 beyond it",
                self.request,
                lat.len()
            )),
        }
    }
}
