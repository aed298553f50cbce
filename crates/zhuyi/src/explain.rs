//! Explainable estimates: *why* a latency was granted or refused.
//!
//! A safety tool that emits a bare "167 ms" invites mistrust. An
//! [`Explanation`] carries the full arithmetic behind an estimate — the
//! reaction-time split l + α, the assumed braking, the maneuver-completion
//! time the search verified, and the distance/velocity budget at that
//! instant — so a reviewer can recompute Eqs. 1 and 2 by hand.

use crate::estimator::{
    candidate_latencies, EgoKinematics, InnerSolution, LatencyEstimate, SearchOutcome,
    TolerableLatencyEstimator,
};
use crate::future::ActorFuture;
use av_core::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A latency estimate together with the inner solution that justifies it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Explanation {
    /// The estimate being explained.
    pub estimate: LatencyEstimate,
    /// The verified inner solution, present for
    /// [`SearchOutcome::Tolerable`] results (absent for unconstrained
    /// actors, where no maneuver is needed, and infeasible ones, where
    /// none exists).
    pub solution: Option<InnerSolution>,
    /// For a [`SearchOutcome::Infeasible`] result, the smallest candidate
    /// latency the search tested, which failed like every larger one. The
    /// estimate reports `min_latency`, which the grid can step past
    /// untested.
    pub smallest_tested: Option<Seconds>,
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.estimate.outcome {
            SearchOutcome::Unconstrained => write!(
                f,
                "unconstrained: the actor never becomes a frontal threat within the horizon \
                 -> {} ({})",
                self.estimate.latency,
                self.estimate.fpr()
            ),
            SearchOutcome::Infeasible => {
                write!(f, "infeasible: no candidate latency avoids the collision")?;
                if let Some(l) = self.smallest_tested {
                    write!(
                        f,
                        "; even the smallest tested, {l} ({}), fails",
                        Fpr::from_latency(l)
                    )?;
                }
                write!(
                    f,
                    " -> reported as {} ({})",
                    self.estimate.latency,
                    self.estimate.fpr()
                )
            }
            SearchOutcome::Tolerable => {
                write!(
                    f,
                    "tolerable latency {} ({})",
                    self.estimate.latency,
                    self.estimate.fpr()
                )?;
                if let Some(sol) = &self.solution {
                    write!(
                        f,
                        ": react within {} (latency + confirmation {}), then brake at {}; \
                         by t_n = {} the ego has used {} + {} of the allowed {} and runs {} \
                         against an allowance of {}",
                        sol.reaction_time,
                        sol.alpha,
                        sol.assumed_braking,
                        sol.maneuver_complete_at,
                        sol.reaction_distance,
                        sol.braking_distance,
                        sol.allowed_distance,
                        sol.ego_end_speed,
                        sol.actor_speed_allowance,
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl TolerableLatencyEstimator {
    /// Like [`TolerableLatencyEstimator::tolerable_latency`], but also
    /// returns the verified inner solution for tolerable outcomes.
    ///
    /// Runs the same single search and keeps the solution that accepted
    /// the latency, so it costs no more than the plain estimate. An
    /// infeasible result also replays the candidate grid to name the last
    /// latency tested.
    ///
    /// ```
    /// use av_core::prelude::*;
    /// use zhuyi::future::StationaryActor;
    /// use zhuyi::{EgoKinematics, TolerableLatencyEstimator, ZhuyiConfig};
    ///
    /// # fn main() -> Result<(), zhuyi::config::ConfigError> {
    /// let estimator = TolerableLatencyEstimator::new(ZhuyiConfig::paper())?;
    /// let ego = EgoKinematics::new(MetersPerSecond(20.0), MetersPerSecondSquared(0.0));
    /// let explanation = estimator.explain(ego, &StationaryActor::new(Meters(60.0)),
    ///                                     Seconds(1.0 / 30.0));
    /// let sol = explanation.solution.expect("tolerable outcome has a solution");
    /// // Eq. 1 holds at the verified maneuver point:
    /// assert!(sol.reaction_distance + sol.braking_distance <= sol.allowed_distance);
    /// println!("{explanation}");
    /// # Ok(())
    /// # }
    /// ```
    pub fn explain(
        &self,
        ego: EgoKinematics,
        future: &dyn ActorFuture,
        current_latency: Seconds,
    ) -> Explanation {
        let (estimate, solution) = self.search(ego, future, current_latency);
        let smallest_tested = (estimate.outcome == SearchOutcome::Infeasible)
            .then(|| candidate_latencies(self.config()).last())
            .flatten();
        Explanation {
            estimate,
            solution,
            smallest_tested,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::future::{ConstantAccelActor, StationaryActor};
    use crate::ZhuyiConfig;

    fn estimator() -> TolerableLatencyEstimator {
        TolerableLatencyEstimator::new(ZhuyiConfig::paper()).expect("valid")
    }

    fn ego(v: f64) -> EgoKinematics {
        EgoKinematics::new(MetersPerSecond(v), MetersPerSecondSquared::ZERO)
    }

    const L0: Seconds = Seconds(1.0 / 30.0);

    #[test]
    fn tolerable_explanation_satisfies_both_equations() {
        let e = estimator();
        let exp = e.explain(ego(20.0), &StationaryActor::new(Meters(60.0)), L0);
        assert_eq!(exp.estimate.outcome, SearchOutcome::Tolerable);
        let sol = exp.solution.expect("solution recorded");
        // Eq. 1.
        assert!(
            (sol.reaction_distance + sol.braking_distance).value()
                <= sol.allowed_distance.value() + 1e-6
        );
        // Eq. 2.
        assert!(sol.ego_end_speed.value() <= sol.actor_speed_allowance.value() + 1e-6);
        // Timeline sanity.
        assert!(sol.maneuver_complete_at >= sol.reaction_time);
        assert!(sol.reaction_time >= exp.estimate.latency);
        assert!(sol.alpha.value() >= 0.0);
        // Braking at least C3.
        assert!(sol.assumed_braking.value() >= 4.9 - 1e-9);
    }

    #[test]
    fn explanation_matches_plain_estimate() {
        let e = estimator();
        let future = ConstantAccelActor::new(
            Meters(50.0),
            MetersPerSecond(25.0),
            MetersPerSecondSquared(-5.0),
        );
        let plain = e.tolerable_latency(ego(28.0), &future, L0);
        let exp = e.explain(ego(28.0), &future, L0);
        assert_eq!(plain.outcome, SearchOutcome::Tolerable);
        assert!(exp.solution.is_some());
        // The whole estimate, search effort included: explaining costs no
        // extra constraint checks.
        assert_eq!(plain, exp.estimate);
    }

    #[test]
    fn infeasible_and_unconstrained_have_no_solution() {
        let e = estimator();
        let too_close = e.explain(ego(30.0), &StationaryActor::new(Meters(5.0)), L0);
        assert_eq!(too_close.estimate.outcome, SearchOutcome::Infeasible);
        assert!(too_close.solution.is_none());
        assert!(too_close.to_string().contains("infeasible"));

        let behind = ConstantAccelActor::new(
            Meters(-30.0),
            MetersPerSecond(5.0),
            MetersPerSecondSquared::ZERO,
        );
        let un = e.explain(ego(20.0), &behind, L0);
        assert_eq!(un.estimate.outcome, SearchOutcome::Unconstrained);
        assert!(un.solution.is_none());
        assert!(un.to_string().contains("unconstrained"));
    }

    #[test]
    fn infeasible_names_the_last_candidate_tested() {
        let e = estimator();
        let exp = e.explain(ego(30.0), &StationaryActor::new(Meters(5.0)), L0);
        assert_eq!(exp.estimate.outcome, SearchOutcome::Infeasible);
        assert_eq!(exp.estimate.stats.latency_steps, e.config().latency_steps());
        assert_eq!(exp.estimate.stats.latency_steps, 30);
        // 1 s − 29 × 33 ms: the next step, 10 ms, lies below min_latency.
        let last = exp
            .smallest_tested
            .expect("infeasible names its last candidate");
        assert!((last.value() - 0.043).abs() < 1e-12, "{last:?}");
        assert_eq!(exp.estimate.latency, e.config().min_latency);
        let text = exp.to_string();
        assert!(text.contains("smallest tested, 0.043 s"), "{text}");

        let tolerable = e.explain(ego(20.0), &StationaryActor::new(Meters(60.0)), L0);
        assert_eq!(tolerable.smallest_tested, None);
    }

    #[test]
    fn display_is_recomputable_prose() {
        let e = estimator();
        let exp = e.explain(ego(20.0), &StationaryActor::new(Meters(60.0)), L0);
        let text = exp.to_string();
        assert!(text.contains("react within"));
        assert!(text.contains("brake at"));
        assert!(text.contains("FPR"));
    }
}
