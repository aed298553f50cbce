//! Per-instance minimum-safe-FPR search: binary localization plus an
//! exhaustive upper verification.
//!
//! The repo's original probes ([`av_scenarios::catalog::minimum_required_fpr`],
//! the `mrf_probe` example, the Table-1 binary) evaluate *every* candidate
//! rate — O(grid) closed-loop simulations per scenario instance.
//! [`min_safe_fpr`] first localizes the safety boundary with a first-safe
//! binary search, then **verifies every candidate above it** before
//! answering.
//!
//! The verification phase is not optional. Safety is *mostly* monotone in
//! the processing rate (faster processing shortens perception latency),
//! but the closed loop discretizes frame times against maneuver triggers,
//! and that sampling interaction produces real non-monotone blips — e.g.
//! the curved challenging cut-in at some jitter seeds survives 2 FPR yet
//! collides at 3 FPR. A bare binary search would report "2 is safe" for
//! such an instance; for a safety tool that is the one unacceptable
//! answer. With verification, the result is always identical to the
//! exhaustive scan's (pinned by this module's tests and
//! `tests/fleet_determinism.rs`), every candidate is memoized so no
//! simulation runs twice, and the saving over the scan is the candidates
//! below the boundary that were never simulated. The cost profile is
//! therefore boundary-position-dependent: `sims_run` ranges from ~log(grid)
//! savings for hard scenarios down to scan parity for benign ones.

use av_core::units::Fpr;
use av_scenarios::catalog::{Mrf, Scenario};
use av_scenarios::sweep::SweepContext;
use serde::{Deserialize, Serialize};

/// Outcome of one minimum-safe-FPR search, with its cost accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MsfSearch {
    /// The minimum safe rate, in the same encoding as Table 1's MRF
    /// column (`<grid_min` / exact / `>grid_max`).
    pub mrf: Mrf,
    /// The candidate evaluations the per-rate search algorithm charges
    /// for this answer (every candidate at most once; at most
    /// `grid_size`). Both backends report the same number — the batched
    /// backend replays the per-rate binary-plus-verification accounting
    /// over its verdict table — so exports are byte-identical whichever
    /// backend produced them. What differs is wall-clock: the batched
    /// backend runs the whole grid as lockstep lanes with early lane
    /// retirement (see [`min_safe_fpr_batched`]).
    pub sims_run: u32,
    /// Simulations the brute-force grid scan always runs.
    pub grid_size: u32,
    /// Smallest candidate rate in the searched grid.
    pub grid_min: u32,
    /// Largest candidate rate in the searched grid.
    pub grid_max: u32,
}

impl MsfSearch {
    /// Grid-aware label for exports: `<grid_min`, the exact rate, or
    /// `>grid_max`. Unlike [`Mrf`]'s `Display` (which hard-codes Table 1's
    /// `<1`/`>30` bounds), this stays honest for custom `--rates` grids.
    pub fn label(&self) -> String {
        match self.mrf {
            Mrf::BelowMinimumTested => format!("<{}", self.grid_min),
            Mrf::Fpr(rate) => rate.to_string(),
            Mrf::AboveMaximumTested => format!(">{}", self.grid_max),
        }
    }

    /// Numeric encoding for percentile math: a below-grid result counts
    /// as half the grid floor, an exact rate as itself, and an above-grid
    /// result as infinity (propagating honestly into max columns).
    pub fn numeric(&self) -> f64 {
        match self.mrf {
            Mrf::BelowMinimumTested => f64::from(self.grid_min) / 2.0,
            Mrf::Fpr(rate) => f64::from(rate),
            Mrf::AboveMaximumTested => f64::INFINITY,
        }
    }
}

/// Memoizing safety oracle over one scenario instance's candidate grid.
struct Probe<'a> {
    /// Shared simulation: the scenario is built once and reset per
    /// candidate (sweep-level scene sharing).
    context: SweepContext<'a>,
    candidates: &'a [u32],
    evals: Vec<Option<bool>>,
    sims_run: u32,
}

impl Probe<'_> {
    fn safe_at(&mut self, index: usize) -> bool {
        if let Some(known) = self.evals[index] {
            return known;
        }
        self.sims_run += 1;
        // Only the collision bit is consulted, so the probe runs
        // streaming under a NullObserver (nothing recorded, nothing
        // folded).
        let safe = !self
            .context
            .collides_at(Fpr(f64::from(self.candidates[index])));
        self.evals[index] = Some(safe);
        safe
    }
}

/// Finds the smallest rate in `candidates` (ascending) at which
/// `scenario` completes collision-free **and every higher candidate is
/// also collision-free** — the same answer as running the whole grid
/// through [`av_scenarios::catalog::minimum_required_fpr`], usually in
/// fewer simulations (see the module docs for why the upper candidates
/// must all be checked). Probes are metrics-only (streaming, zero stored
/// scenes).
///
/// Returns [`Mrf::BelowMinimumTested`] when every candidate is safe (the
/// probe cannot distinguish rates below the grid floor), and
/// [`Mrf::AboveMaximumTested`] when the largest candidate still collides.
///
/// Each probe runs on a shared [`SweepContext`]: the scenario instance
/// is built once and the simulation reset — never rebuilt — between
/// candidate rates.
///
/// ```no_run
/// use av_scenarios::catalog::{Mrf, Scenario, ScenarioId};
/// use zhuyi_fleet::min_safe_fpr;
///
/// // Cut-out, nominal geometry: unsafe at 1 FPR, safe from 2 up —
/// // Table 1's MRF 2 — at the cost of at most one sim per candidate.
/// let scenario = Scenario::build(ScenarioId::CutOut, 0);
/// let result = min_safe_fpr(&scenario, &[1, 2, 4, 30]);
/// assert_eq!(result.mrf, Mrf::Fpr(2));
/// assert!(result.sims_run <= result.grid_size);
/// println!("{} in {} sims", result.label(), result.sims_run);
/// ```
///
/// # Panics
///
/// Panics if `candidates` is empty or not strictly ascending.
pub fn min_safe_fpr(scenario: &Scenario, candidates: &[u32]) -> MsfSearch {
    check_grid(candidates);
    let mut probe = Probe {
        context: SweepContext::new(scenario),
        candidates,
        evals: vec![None; candidates.len()],
        sims_run: 0,
    };
    let highest_unsafe = search_schedule(candidates.len(), |index| probe.safe_at(index));
    answer(candidates, highest_unsafe, probe.sims_run)
}

/// The search schedule over `n` ascending candidates, with `safe_at`
/// the safety oracle; returns the highest unsafe index.
///
/// Phase 1, binary localization, finds the first safe index under a
/// monotonicity reading. Invariant: when `lo > 0`, index `lo - 1` was
/// read unsafe. Phase 2, verification, reads every candidate from `lo`
/// up. The highest unsafe index is therefore exactly the exhaustive
/// scan's: any candidate never read sits below `lo - 1` and cannot raise
/// it. An index may be read more than once; the callers memoize.
fn search_schedule(n: usize, mut safe_at: impl FnMut(usize) -> bool) -> Option<usize> {
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if safe_at(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let mut highest_unsafe = lo.checked_sub(1);
    for index in lo..n {
        if !safe_at(index) {
            highest_unsafe = Some(index);
        }
    }
    highest_unsafe
}

/// [`min_safe_fpr`] through the lane-batched backend: the whole candidate
/// grid runs as lockstep lanes of one shared simulation in one pass
/// ([`SweepContext::collides_batched`]). Collided lanes retire where
/// their standalone runs would stop, and conservative certificates
/// retire provably-safe suffixes early (`av_sim::batch::cert`), which is
/// where the wall-clock win over the per-rate search comes from.
///
/// The answer — and the exported accounting — is **identical** to
/// [`min_safe_fpr`]: the same search schedule runs over the batched
/// verdict table, and `sims_run` counts the distinct candidates it
/// reads, exactly the candidates the per-rate search would have
/// simulated. Pinned by this module's tests and the fleet batched
/// equivalence suite.
///
/// # Panics
///
/// Panics if `candidates` is empty or not strictly ascending.
pub fn min_safe_fpr_batched(scenario: &Scenario, candidates: &[u32]) -> MsfSearch {
    check_grid(candidates);
    let rates: Vec<Fpr> = candidates.iter().map(|&c| Fpr(f64::from(c))).collect();
    let safe: Vec<bool> = SweepContext::new(scenario)
        .collides_batched(&rates)
        .into_iter()
        .map(|collided| !collided)
        .collect();
    let mut read = vec![false; safe.len()];
    let highest_unsafe = search_schedule(safe.len(), |index| {
        read[index] = true;
        safe[index]
    });
    let sims_run = read.iter().filter(|&&r| r).count() as u32;
    answer(candidates, highest_unsafe, sims_run)
}

/// Panics unless `candidates` is a nonempty, strictly ascending grid.
fn check_grid(candidates: &[u32]) {
    assert!(!candidates.is_empty(), "empty candidate grid");
    assert!(
        candidates.windows(2).all(|w| w[0] < w[1]),
        "candidate grid must be strictly ascending"
    );
}

/// The search record for `candidates` whose highest unsafe index is
/// `highest_unsafe`: the answer is the candidate just above it, exactly
/// like the exhaustive scan's.
fn answer(candidates: &[u32], highest_unsafe: Option<usize>, sims_run: u32) -> MsfSearch {
    let n = candidates.len();
    let mrf = match highest_unsafe {
        None => Mrf::BelowMinimumTested,
        Some(h) if h + 1 < n => Mrf::Fpr(candidates[h + 1]),
        Some(_) => Mrf::AboveMaximumTested,
    };
    MsfSearch {
        mrf,
        sims_run,
        grid_size: n as u32,
        grid_min: candidates[0],
        grid_max: candidates[n - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_scenarios::catalog::{minimum_required_fpr, ScenarioId, PAPER_RATE_GRID};

    #[test]
    fn batched_search_is_byte_equivalent_to_per_rate_search() {
        // Whole MsfSearch records — answer AND accounting — must match,
        // including the non-monotone instance that forces verification
        // and a mid-grid boundary.
        for (id, seed) in [
            (ScenarioId::CutOut, 0u64),
            (ScenarioId::CutOutFast, 0),
            (ScenarioId::ChallengingCutInCurved, 6),
            (ScenarioId::VehicleFollowing, 2),
        ] {
            let scenario = Scenario::build(id, seed);
            assert_eq!(
                min_safe_fpr_batched(&scenario, &PAPER_RATE_GRID),
                min_safe_fpr(&scenario, &PAPER_RATE_GRID),
                "{id} seed {seed}: batched search diverged"
            );
        }
    }

    #[test]
    fn search_matches_exhaustive_probe() {
        // A compact grid keeps this affordable in debug builds; the full
        // Table-1 grid is exercised by the fleet integration tests.
        let grid = [1u32, 2, 4, 6, 30];
        for id in [
            ScenarioId::CutOut,
            ScenarioId::CutIn,
            ScenarioId::VehicleFollowing,
        ] {
            let scenario = Scenario::build(id, 0);
            let fast = min_safe_fpr(&scenario, &grid);
            let slow = minimum_required_fpr(id, &grid, &[0]);
            assert_eq!(fast.mrf, slow, "{id}: search disagrees with scan");
            assert!(
                fast.sims_run <= fast.grid_size,
                "{id}: search ran more sims than the grid"
            );
        }
    }

    #[test]
    fn non_monotone_instances_are_not_misreported() {
        // The curved challenging cut-in at seed 6 is unsafe at 1, safe at
        // 2, unsafe again at 3, and safe from 4 up — the boundary blip
        // that makes the verification phase mandatory. A bare binary
        // search answers 2 here; the verified search must answer 4, like
        // the exhaustive scan.
        let scenario = Scenario::build(ScenarioId::ChallengingCutInCurved, 6);
        let result = min_safe_fpr(&scenario, &PAPER_RATE_GRID);
        assert_eq!(result.mrf, Mrf::Fpr(4), "must not report the unsafe 2");
        let scan = minimum_required_fpr(ScenarioId::ChallengingCutInCurved, &PAPER_RATE_GRID, &[6]);
        assert_eq!(result.mrf, scan);
    }

    #[test]
    fn search_saves_simulations_on_hard_scenarios() {
        // Cut-out fast (MRF 6): the boundary sits mid-grid, so the
        // binary phase skips several low candidates the scan would run.
        let scenario = Scenario::build(ScenarioId::CutOutFast, 0);
        let result = min_safe_fpr(&scenario, &PAPER_RATE_GRID);
        assert_eq!(result.mrf, Mrf::Fpr(6), "Table 1: Cut-out fast MRF is 6");
        assert!(
            result.sims_run < result.grid_size,
            "expected savings over the {} scan, ran {}",
            result.grid_size,
            result.sims_run
        );
        // And never more than the scan, anywhere.
        assert!(result.sims_run <= result.grid_size);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted_grids() {
        let scenario = Scenario::build(ScenarioId::CutOut, 0);
        min_safe_fpr(&scenario, &[4, 1]);
    }
}
