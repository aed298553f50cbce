//! Per-layer metrics of the traced run, computed from its spans and from
//! the counts the layers return at the same boundaries.
//!
//! Every workload reports every per-layer metric. A layer that the
//! workload does not run reports 0, so such rows cannot move.

use crate::report::Outcome;
use crate::stats;
use crate::trace::{self, Layer, Span};
use av_sim::batch::BatchStats;
use std::collections::{BTreeMap, HashMap};

/// Name of the span around each request of the closed loop.
pub const REQUEST: &str = "request";

/// Counts gathered beside the spans.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Estimator constraint evaluations (`SearchStats`), summed.
    pub evals: u64,
    /// Lockstep accounting (`BatchStats`), summed over probed jobs.
    pub batch: BatchStats,
    /// Jobs whose lockstep run was probed.
    pub lockstep_jobs: u64,
    /// Encoded Assign + Result payload bytes, summed over probed jobs.
    pub wire_bytes: u64,
    /// Jobs whose frames were encoded.
    pub codec_jobs: u64,
    /// `DistStats::jobs_stolen` of every distributed sweep.
    pub jobs_stolen: Vec<f64>,
    /// Wall of a 1-job distributed sweep minus the job's in-process
    /// time, ms (median of repetitions).
    pub coord_fixed_ms: Option<f64>,
    /// Journal growth of every plan, bytes.
    pub journal_bytes: Vec<f64>,
    /// Table-1 sweep wall with telemetry on ÷ off.
    pub on_off_ratio: Option<f64>,
}

impl Counters {
    /// Folds another set of counts into this one.
    pub fn merge(&mut self, other: &Counters) {
        self.evals += other.evals;
        self.batch.merge(&other.batch);
        self.lockstep_jobs += other.lockstep_jobs;
        self.wire_bytes += other.wire_bytes;
        self.codec_jobs += other.codec_jobs;
        self.jobs_stolen.extend_from_slice(&other.jobs_stolen);
        self.journal_bytes.extend_from_slice(&other.journal_bytes);
        self.coord_fixed_ms = other.coord_fixed_ms.or(self.coord_fixed_ms);
        self.on_off_ratio = other.on_off_ratio.or(self.on_off_ratio);
    }
}

/// The traced phase, for the residual and the tracing overhead.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Threads that run a request's work in this process.
    pub threads: u32,
    /// Ops completed inside `request` spans.
    pub ops: u64,
    /// Mean host speed during the traced phase ([`crate::calib`]).
    pub speed: f64,
    /// Speed-normalised ops per second of the untraced half of the run.
    pub untraced_ops_per_s: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Appends every per-layer metric and a layer table.
pub fn report(out: &mut Outcome, spans: &[Span], counters: &Counters, phase: Phase) {
    let by_name = trace::layers(spans);
    let empty = Layer::default();
    let layer = |name: &str| by_name.get(name).unwrap_or(&empty);
    let mean = |name: &str, scale: f64| layer(name).mean_ns() / scale;
    let (us, ms) = (1e3, 1e6);

    let estimate = layer("zhuyi_runtime.online.estimate");
    let lockstep = layer("av_sim.batch.lockstep");
    let exec = stats::sorted(&layer("zhuyi_fleet.exec").durations);
    let b = &counters.batch;
    let pool_wall = layer("zhuyi_fleet.pool").total as f64;
    let pooled_exec = exec_ns_under(spans, "zhuyi_fleet.pool");
    let coord = layer("zhuyi_distd.coord");
    let wait = layer("zhuyi_distd.client.wait");
    let pct = |p: f64| {
        if exec.is_empty() {
            0.0
        } else {
            stats::percentile(&exec, p) / ms
        }
    };

    out.metric(
        "zhuyi_runtime.perceive_us",
        mean("zhuyi_runtime.perceive", us),
        "us",
    );
    out.metric(
        "zhuyi_runtime.online.estimate_us",
        estimate.mean_ns() / us,
        "us",
    );
    out.metric(
        "av_prediction.predict_us",
        mean("av_prediction.predict", us),
        "us",
    );
    out.metric(
        "zhuyi.estimator.evals_per_step",
        ratio(counters.evals as f64, estimate.count as f64),
        "count",
    );
    out.metric(
        "zhuyi.estimator.ns_per_eval",
        ratio(estimate.total as f64, counters.evals as f64),
        "ns",
    );
    out.metric("zhuyi.camera_fpr_us", mean("zhuyi.camera_fpr", us), "us");
    out.metric(
        "zhuyi_runtime.check_us",
        mean("zhuyi_runtime.check", us),
        "us",
    );
    out.metric(
        "av_sim.engine.tick_ns",
        mean("av_sim.engine.tick", 1.0),
        "ns",
    );
    out.metric(
        "av_scenarios.build_us",
        mean("av_scenarios.build", us),
        "us",
    );
    out.metric("av_sim.batch.lockstep_ms", lockstep.mean_ns() / ms, "ms");
    out.metric(
        "av_sim.batch.lane_ticks",
        ratio(b.lane_ticks as f64, counters.lockstep_jobs as f64),
        "count",
    );
    out.metric(
        "av_sim.batch.ns_per_lane_tick",
        ratio(lockstep.total as f64, b.lane_ticks as f64),
        "ns",
    );
    out.metric(
        "av_sim.batch.retired_frac",
        ratio(
            b.ticks_retired as f64,
            (b.lane_ticks + b.ticks_retired) as f64,
        ),
        "fraction",
    );
    out.metric(
        "av_sim.batch.cert_decline_frac",
        ratio(b.cert_declines as f64, b.cert_attempts as f64),
        "fraction",
    );
    out.metric(
        "zhuyi_fleet.plan.build_ms",
        mean("zhuyi_fleet.plan.build", ms),
        "ms",
    );
    out.metric("zhuyi_fleet.exec.job_p50_ms", pct(50.0), "ms");
    out.metric("zhuyi_fleet.exec.job_p99_ms", pct(99.0), "ms");
    out.metric(
        "zhuyi_fleet.exec.heavy_share",
        stats::top_share(&exec, 0.05),
        "fraction",
    );
    out.metric(
        "zhuyi_fleet.pool.busy_frac",
        ratio(pooled_exec, 2.0 * pool_wall),
        "fraction",
    );
    out.metric(
        "zhuyi_fleet.store.export_ms",
        mean("zhuyi_fleet.store.export", ms),
        "ms",
    );
    out.metric(
        "zhuyi_registry.generate_ms",
        mean("zhuyi_registry.generate", ms),
        "ms",
    );
    out.metric(
        "zhuyi_registry.roundtrip_us",
        mean("zhuyi_registry.roundtrip", us),
        "us",
    );
    out.metric(
        "zhuyi_distd.coord.fixed_ms",
        counters.coord_fixed_ms.unwrap_or(0.0),
        "ms",
    );
    out.metric(
        "zhuyi_distd.coord.overhead_frac",
        if coord.count == 0 {
            0.0
        } else {
            1.0 - ratio(
                exec_ns_under(spans, "probe"),
                2.0 * stats::median(&coord.durations),
            )
        },
        "fraction",
    );
    out.metric(
        "zhuyi_distd.coord.jobs_stolen",
        stats::median(&counters.jobs_stolen),
        "count",
    );
    out.metric(
        "zhuyi_distd.wire.bytes_per_job",
        ratio(counters.wire_bytes as f64, counters.codec_jobs as f64),
        "bytes",
    );
    out.metric(
        "zhuyi_distd.wire.codec_us",
        mean("zhuyi_distd.wire.codec", us),
        "us",
    );
    out.metric(
        "zhuyi_distd.client.submit_ms",
        mean("zhuyi_distd.client.submit", ms),
        "ms",
    );
    out.metric("zhuyi_distd.client.wait_ms", wait.mean_ns() / ms, "ms");
    out.metric(
        "zhuyi_distd.client.status_rpcs",
        ratio(
            layer("zhuyi_distd.client.status").count as f64,
            wait.count as f64,
        ),
        "count",
    );
    out.metric(
        "zhuyi_distd.client.fetch_ms",
        mean("zhuyi_distd.client.fetch", ms),
        "ms",
    );
    out.metric(
        "zhuyi_distd.journal.bytes_per_plan",
        stats::median(&counters.journal_bytes),
        "bytes",
    );
    out.metric(
        "zhuyi_telemetry.on_off_ratio",
        counters.on_off_ratio.unwrap_or(0.0),
        "ratio",
    );

    let accounting = Accounting::of(spans);
    let requests = layer(REQUEST);
    let thread_time = f64::from(phase.threads) * requests.total as f64;
    out.metric(
        "trace.residual_frac",
        1.0 - ratio(accounting.layer_self_ns, thread_time),
        "fraction",
    );
    let traced_ops_per_s = ratio(phase.ops as f64, requests.total as f64 * 1e-9 * phase.speed);
    out.metric(
        "trace.overhead_frac",
        ratio(traced_ops_per_s, phase.untraced_ops_per_s) - 1.0,
        "fraction",
    );
    table(out, &by_name, &accounting, thread_time);
}

/// Sum of `zhuyi_fleet.exec` durations whose parent span is named
/// `parent`.
fn exec_ns_under(spans: &[Span], parent: &str) -> f64 {
    let parents: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == parent)
        .map(|s| s.id)
        .collect();
    spans
        .iter()
        .filter(|s| s.name == "zhuyi_fleet.exec" && parents.contains(&s.parent))
        .map(|s| s.duration() as f64)
        .sum()
}

/// Name of the outermost ancestor of `span`.
fn root_name<'a>(by_id: &HashMap<u64, &'a Span>, mut span: &'a Span) -> &'static str {
    while let Some(parent) = by_id.get(&span.parent) {
        span = parent;
    }
    span.name
}

/// Self time of the spans inside `request` spans, per layer.
struct Accounting {
    per_layer: BTreeMap<&'static str, f64>,
    layer_self_ns: f64,
}

impl Accounting {
    fn of(spans: &[Span]) -> Self {
        let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        let mut per_layer = BTreeMap::new();
        let mut layer_self_ns = 0.0;
        for (span, self_ns) in spans.iter().zip(trace::self_times(spans)) {
            if span.name != REQUEST && root_name(&by_id, span) == REQUEST {
                *per_layer.entry(span.name).or_insert(0.0) += self_ns as f64;
                layer_self_ns += self_ns as f64;
            }
        }
        Self {
            per_layer,
            layer_self_ns,
        }
    }
}

/// The layer table: every span name with its count, total and mean,
/// and for spans inside requests their share of request thread time.
fn table(
    out: &mut Outcome,
    by_name: &BTreeMap<&'static str, Layer>,
    accounting: &Accounting,
    thread_time: f64,
) {
    out.notes.push(format!(
        "{:<32} {:>9} {:>12} {:>12} {:>10}",
        "span", "count", "total_ms", "mean_us", "self_share"
    ));
    for (name, layer) in by_name {
        let share = accounting
            .per_layer
            .get(name)
            .map_or(String::from("-"), |s| {
                format!("{:.4}", ratio(*s, thread_time))
            });
        out.notes.push(format!(
            "{:<32} {:>9} {:>12.3} {:>12.3} {:>10}",
            name,
            layer.count,
            layer.total as f64 / 1e6,
            layer.mean_ns() / 1e3,
            share
        ));
    }
}

/// Writes the spans out as TSV beside the benchmark's other output.
pub fn write_spans(args: &crate::Args, spans: &[Span]) {
    let path = crate::out_dir().join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
    if let Err(e) = trace::write_tsv(spans, &path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
