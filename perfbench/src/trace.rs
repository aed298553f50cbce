//! In-memory span recording for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public API. A span records its name, start and end, its parent span
//! and the op it belongs to. Spans stay in memory until the run ends;
//! then they are summarised per layer and written out as TSV.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a span that has none.
pub const ROOT: u64 = 0;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique, non-zero id.
    pub id: u64,
    /// Id of the enclosing span, or [`ROOT`].
    pub parent: u64,
    /// Id shared by every span of one op.
    pub op: u64,
    /// Layer name, e.g. `av_sim.batch.lockstep`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// A span that has been opened but not closed.
#[derive(Debug)]
#[must_use = "an open span records nothing until closed"]
pub struct Open {
    /// The span's id, to pass as the parent of child spans.
    pub id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start: u64,
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span.
    pub fn open(&self, name: &'static str, parent: u64, op: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            op,
            name,
            start: self.now(),
        }
    }

    /// Closes a span and returns its duration in ns.
    pub fn close(&self, open: Open) -> u64 {
        let end = self.now();
        self.record(Span {
            id: open.id,
            parent: open.parent,
            op: open.op,
            name: open.name,
            start: open.start,
            end,
        });
        end - open.start
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, parent: u64, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.open(name, parent, op);
        let out = f();
        self.close(open);
        out
    }

    fn record(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Every span recorded so far, ascending by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span store poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span, in the order given: its duration minus the
/// part of its interval covered by its children. Overlapping children
/// (from several threads) are subtracted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != ROOT) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| union_within(c, s.start, s.end));
            s.duration() - covered
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layer {
    /// Spans of this name.
    pub count: u64,
    /// Sum of durations, ns.
    pub total: u64,
    /// Sum of self times, ns.
    pub self_time: u64,
    /// Every duration, ns, in span-id order.
    pub durations: Vec<f64>,
}

impl Layer {
    /// Mean duration in ns (0 for no spans).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }
}

/// Groups spans by name.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (span, self_time) in spans.iter().zip(selfs) {
        let layer = out.entry(span.name).or_default();
        layer.count += 1;
        layer.total += span.duration();
        layer.self_time += self_time;
        layer.durations.push(span.duration() as f64);
    }
    out
}

/// Writes spans as TSV: `id parent op name start_ns end_ns`.
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.op, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "t",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = [
            span(1, ROOT, 0, 100),
            // Two children from different threads overlap on [20, 40).
            span(2, 1, 10, 40),
            span(3, 1, 20, 50),
            // A grandchild does not count against the root.
            span(4, 2, 15, 30),
            // A child sticking out of its parent is clipped.
            span(5, 1, 90, 130),
        ];
        let selfs = self_times(&spans);
        // Root: 100 - |[10,50) ∪ [90,100)| = 100 - 50.
        assert_eq!(selfs[0], 50);
        // Span 2: 30 - 15 (its grandchild).
        assert_eq!(selfs[1], 15);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 15);
        assert_eq!(selfs[4], 40);
    }

    #[test]
    fn nested_and_identical_children_are_not_double_counted() {
        let spans = [
            span(1, ROOT, 0, 10),
            span(2, 1, 2, 8),
            span(3, 1, 2, 8),
            span(4, 1, 3, 5),
        ];
        assert_eq!(self_times(&spans)[0], 4);
    }

    #[test]
    fn tracer_records_parent_and_op() {
        let tracer = Tracer::new();
        let root = tracer.open("root", ROOT, 7);
        tracer.time("child", root.id, 7, || ());
        let root_id = root.id;
        tracer.close(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "child").expect("child");
        assert_eq!((child.parent, child.op), (root_id, 7));
        let by_name = layers(&spans);
        assert_eq!(by_name["root"].count, 1);
        assert!(by_name["root"].self_time <= by_name["root"].total);
    }
}
