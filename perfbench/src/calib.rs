//! Host-speed calibration.
//!
//! The host's speed drifts by up to ~1.9× in phases of 10–30 s, in step
//! with how fast memory-bound code runs (co-tenants contending for the
//! caches), so a 20 s run lands wherever the host happens to be. Every
//! run therefore times a fixed kernel of the benchmark's own, a
//! pointer chase over a 1 MiB and a 4 MiB table, in short bursts between
//! its windows, on as many threads as the workload keeps busy. A burst's
//! speed is its rate relative to a reference rate, and every time the
//! benchmark reports is multiplied by (every rate divided by) the speed
//! measured around it. The kernel never calls the program, so a change to
//! the program moves the normalised figures exactly as it moves the raw
//! ones.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Entries of the small table (1 MiB of `u64`): stays in L2.
const SMALL: usize = 1 << 17;
/// Entries of the large table (4 MiB of `u64`): spills into L3.
const LARGE: usize = 1 << 19;
/// Bytes the tables keep resident for the whole run.
pub const TABLE_BYTES: u64 = ((SMALL + LARGE) * 8) as u64;
/// Dependent loads per timed chase.
const LOADS: usize = 40_000;
/// Timed chases of each table per burst.
const REPS: usize = 5;
/// Chases per second (geometric mean of the two tables) that count as
/// speed 1.0: about the median on the 2-vCPU Xeon VM (2 MiB of L2 per
/// core, 300 MiB of shared L3) where the benchmark was sized.
const REFERENCE_RATE: f64 = 1400.0;
/// A burst older than this is stale.
const STALE: Duration = Duration::from_millis(500);

/// Calibration threads for `workload`: as many as it keeps busy.
pub fn threads(workload: &str) -> usize {
    if workload == "online" {
        1
    } else {
        2
    }
}

/// Times the kernel in bursts and remembers the latest speed.
#[derive(Debug)]
pub struct Calibrator {
    small: Vec<u64>,
    large: Vec<u64>,
    threads: usize,
    last: Option<(Instant, f64)>,
    /// Every burst's speed.
    pub speeds: Vec<f64>,
}

/// A table whose entries scatter the chase pseudo-randomly over it.
fn table(len: usize) -> Vec<u64> {
    (0..len as u64)
        .map(|i| crate::inputs::splitmix64(i) % len as u64)
        .collect()
}

/// `LOADS` dependent loads over `table`.
fn chase(table: &[u64]) -> u64 {
    let mut at = 0usize;
    let mut sum = 0u64;
    for _ in 0..LOADS {
        let next = table[at];
        sum = sum.wrapping_add(next);
        at = (next as usize ^ (sum as usize & 7)) % table.len();
    }
    sum
}

/// Median chases per second of `table` over `REPS` chases.
fn rate(table: &[u64]) -> f64 {
    let mut rates: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(chase(black_box(table)));
            1.0 / t.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[REPS / 2]
}

impl Calibrator {
    /// Allocates and touches the tables; bursts run on `threads` threads
    /// at once.
    pub fn new(threads: usize) -> Self {
        Self {
            small: table(SMALL),
            large: table(LARGE),
            threads,
            last: None,
            speeds: Vec::new(),
        }
    }

    /// Runs one burst and returns the speed it measured: the geometric
    /// mean over threads and tables.
    fn burst(&mut self) -> f64 {
        let (small, large) = (&self.small, &self.large);
        let logs: f64 = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..self.threads)
                .map(|_| scope.spawn(|| rate(small).ln() + rate(large).ln()))
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("calibration thread panicked"))
                .sum()
        });
        let speed = (logs / (2 * self.threads) as f64).exp() / REFERENCE_RATE;
        self.last = Some((Instant::now(), speed));
        self.speeds.push(speed);
        speed
    }

    /// The latest speed, measured afresh if the last burst is stale.
    pub fn speed(&mut self) -> f64 {
        match self.last {
            Some((at, speed)) if at.elapsed() < STALE => speed,
            _ => self.burst(),
        }
    }

    /// Geometric mean of the bursts from the `from`-th on (1.0 if none).
    pub fn mean_speed_since(&self, from: usize) -> f64 {
        let speeds = &self.speeds[from.min(self.speeds.len())..];
        if speeds.is_empty() {
            return 1.0;
        }
        let logs: f64 = speeds.iter().map(|s| s.ln()).sum();
        (logs / speeds.len() as f64).exp()
    }
}
