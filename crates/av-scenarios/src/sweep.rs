//! Sweep-level scene sharing: run one scenario instance many times
//! without rebuilding it.
//!
//! A minimum-safe-FPR search re-simulates the *same* scenario instance
//! once per candidate rate. Building a fresh [`av_sim::engine::Simulation`]
//! per candidate pays for a road clone (a dense polyline with its
//! projection indexes), per-actor script clones, and cold scratch buffers
//! — every time, for geometry that never changes within the search.
//!
//! [`SweepContext`] builds the simulation once and rewinds it between
//! candidates via [`av_sim::engine::Simulation::reset`], which keeps the
//! road, scripts and every scratch allocation (scene columns, perceived
//! buffer, projection hints) and replaces only what a new rate actually
//! changes: the ego spawn and the perception system. A reset run is
//! observably identical to a fresh build — pinned by the sweep-sharing
//! determinism tests in `zhuyi-fleet`.

use crate::catalog::Scenario;
use av_core::units::Fpr;
use av_perception::system::{PerceptionError, PerceptionSystem, RatePlan};
use av_sim::batch::{BatchStats, LaneSpec};
use av_sim::engine::{Simulation, StepOutcome};
use av_sim::observer::{MetricsObserver, NullObserver, RunSummary, SimObserver};
use av_sim::policy::{EgoVehicle, PolicyConfig};

/// A reusable execution context for one scenario instance: the simulation
/// is built once and reset (never rebuilt) between runs.
///
/// Results are bit-identical to the build-per-run [`Scenario`] entry
/// points ([`Scenario::collides_at`], [`Scenario::outcome_at`]); the
/// context is purely a cost optimization for rate sweeps.
///
/// ```no_run
/// use av_core::prelude::*;
/// use av_scenarios::catalog::{Scenario, ScenarioId};
/// use av_scenarios::sweep::SweepContext;
///
/// let scenario = Scenario::build(ScenarioId::CutOut, 0);
/// let mut context = SweepContext::new(&scenario);
/// // One build, many runs: probe the whole rate grid.
/// let verdicts: Vec<bool> = [1.0, 2.0, 4.0, 30.0]
///     .map(|fpr| context.collides_at(Fpr(fpr)))
///     .to_vec();
/// assert!(!verdicts[3], "every catalog scenario survives 30 FPR");
/// ```
#[derive(Debug)]
pub struct SweepContext<'a> {
    scenario: &'a Scenario,
    sim: Simulation,
}

impl<'a> SweepContext<'a> {
    /// Builds the shared simulation for `scenario` (the one build this
    /// context ever performs; the initial rate plan is irrelevant because
    /// every run resets perception).
    pub fn new(scenario: &'a Scenario) -> Self {
        let sim = scenario
            .simulation(RatePlan::Uniform(Fpr(30.0)))
            .expect("uniform positive rate plans are valid");
        Self { scenario, sim }
    }

    /// The scenario instance this context runs.
    pub fn scenario(&self) -> &'a Scenario {
        self.scenario
    }

    /// Rewinds the shared simulation for a run at `rates`.
    fn reset(&mut self, rates: RatePlan) -> Result<(), PerceptionError> {
        let perception: PerceptionSystem = self.scenario.perception(rates)?;
        let ego = EgoVehicle::spawn(
            &self.scenario.road,
            self.scenario.ego_lane,
            self.scenario.ego_start,
            PolicyConfig::cruise(self.scenario.ego_speed),
        );
        self.sim.reset(ego, perception);
        Ok(())
    }

    /// Runs the scenario closed-loop at `rates`, streaming every tick to
    /// `observer` — [`Scenario::run_with`] minus the per-run rebuild.
    ///
    /// # Errors
    ///
    /// Propagates invalid rate plans.
    pub fn run_with(
        &mut self,
        rates: RatePlan,
        observer: &mut dyn SimObserver,
    ) -> Result<StepOutcome, PerceptionError> {
        self.reset(rates)?;
        Ok(self.sim.run_with(observer))
    }

    /// The cheapest safety probe — [`Scenario::collides_at`] on the shared
    /// simulation: a [`NullObserver`] run whose verdict is the engine's
    /// own [`StepOutcome`].
    ///
    /// # Panics
    ///
    /// Panics if `fpr` is not a valid rate (positive, finite).
    pub fn collides_at(&mut self, fpr: Fpr) -> bool {
        let outcome = self
            .run_with(RatePlan::Uniform(fpr), &mut NullObserver)
            .expect("uniform positive rate plans are valid");
        outcome == StepOutcome::Collided
    }

    /// The scalar run outcome — [`Scenario::outcome_at`] on the shared
    /// simulation: a streaming [`MetricsObserver`] fold, no stored scenes.
    ///
    /// # Panics
    ///
    /// Panics if `fpr` is not a valid rate (positive, finite).
    pub fn outcome_at(&mut self, fpr: Fpr) -> RunSummary {
        let mut metrics = MetricsObserver::new();
        self.run_with(RatePlan::Uniform(fpr), &mut metrics)
            .expect("uniform positive rate plans are valid");
        metrics.summary()
    }

    /// One fresh [`LaneSpec`] for a uniform-rate lane of this scenario.
    fn lane_spec(&self, fpr: Fpr) -> LaneSpec {
        LaneSpec {
            ego: EgoVehicle::spawn(
                &self.scenario.road,
                self.scenario.ego_lane,
                self.scenario.ego_start,
                PolicyConfig::cruise(self.scenario.ego_speed),
            ),
            perception: self
                .scenario
                .perception(RatePlan::Uniform(fpr))
                .expect("uniform positive rate plans are valid"),
        }
    }

    /// [`SweepContext::collides_at`] for a whole candidate-rate grid in
    /// one lockstep pass: every rate becomes a lane of
    /// [`Simulation::run_batched_verdicts`] over the shared scenario, so
    /// rate-independent per-tick work is paid once instead of once per
    /// rate, collided lanes retire where their standalone run would have
    /// stopped, and provably-safe suffixes retire early (see
    /// `av_sim::batch`). The returned verdicts are identical to calling
    /// [`SweepContext::collides_at`] per rate — pinned by this module's
    /// tests and the fleet equivalence suite.
    ///
    /// # Panics
    ///
    /// Panics if any rate is invalid (non-positive or non-finite).
    pub fn collides_batched(&mut self, rates: &[Fpr]) -> Vec<bool> {
        self.collides_batched_with_stats(rates).0
    }

    /// [`SweepContext::collides_batched`] plus the run's cost accounting
    /// (ticks simulated vs. retired, collided/certified lane counts) —
    /// what `perf_baseline` reports for the batched MSF sweep.
    ///
    /// # Panics
    ///
    /// Panics if any rate is invalid (non-positive or non-finite).
    pub fn collides_batched_with_stats(&mut self, rates: &[Fpr]) -> (Vec<bool>, BatchStats) {
        let specs: Vec<LaneSpec> = rates.iter().map(|&fpr| self.lane_spec(fpr)).collect();
        let (outcomes, stats) = self.sim.run_batched_verdicts_with_stats(specs);
        (
            outcomes
                .into_iter()
                .map(|outcome| outcome == StepOutcome::Collided)
                .collect(),
            stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ScenarioId;

    #[test]
    fn shared_context_matches_fresh_builds() {
        // Every probe through the reused simulation must agree with the
        // build-per-run path, across rates in any order (resets must not
        // leak state between runs).
        for id in [ScenarioId::CutOut, ScenarioId::ChallengingCutIn] {
            let scenario = Scenario::build(id, 3);
            let mut context = SweepContext::new(&scenario);
            for fpr in [4.0, 1.0, 30.0, 1.0, 2.0] {
                assert_eq!(
                    context.collides_at(Fpr(fpr)),
                    scenario.collides_at(Fpr(fpr)),
                    "{id} diverged at {fpr} FPR"
                );
            }
        }
    }

    #[test]
    fn batched_verdicts_match_per_rate_probes() {
        // Straight and curved roads, nominal and jittered seeds: the
        // lockstep grid must agree with one-rate-at-a-time probing bit
        // for bit (including wherever a retirement certificate fired).
        let grid = [1.0, 2.0, 4.0, 6.0, 30.0];
        for (id, seed) in [
            (ScenarioId::CutOut, 0),
            (ScenarioId::CutOut, 3),
            (ScenarioId::VehicleFollowing, 1),
            (ScenarioId::ChallengingCutInCurved, 6),
            (ScenarioId::FrontRightActivity2, 2),
        ] {
            let scenario = Scenario::build(id, seed);
            let mut context = SweepContext::new(&scenario);
            let batched = context.collides_batched(&grid.map(Fpr));
            for (k, fpr) in grid.iter().enumerate() {
                assert_eq!(
                    batched[k],
                    context.collides_at(Fpr(*fpr)),
                    "{id} seed {seed} diverged at {fpr} FPR"
                );
            }
        }
    }

    #[test]
    fn shared_context_outcomes_are_bit_identical() {
        let scenario = Scenario::build(ScenarioId::VehicleFollowing, 1);
        let mut context = SweepContext::new(&scenario);
        for fpr in [2.0, 30.0, 2.0] {
            assert_eq!(
                context.outcome_at(Fpr(fpr)),
                scenario.outcome_at(Fpr(fpr)),
                "summary diverged at {fpr} FPR"
            );
        }
    }
}
