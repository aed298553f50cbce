//! Perception-uncertainty extension (paper §5, future work).
//!
//! The paper closes with: "When extended to account for perception
//! uncertainty, Zhuyi can be used to determine the necessary accuracy for
//! the perception stack. As DNN models naturally present accuracy versus
//! computation demand trade-offs (through quantization and pruning), Zhuyi
//! can inform when to trade-off accuracy for computation reduction."
//!
//! This module implements that extension conservatively: a perceived actor
//! with position error bound σ_pos and velocity error bound σ_vel is
//! replaced by its *worst plausible* twin — closer by σ_pos, slower (for a
//! frontal threat) by σ_vel, and laterally possibly in the corridor
//! whenever its lateral error allows. Running the standard search on the
//! worst twin yields a latency safe under the stated uncertainty, and
//! [`required_accuracy`] inverts the relation: the largest σ_pos a
//! perception stack may exhibit while a given processing rate stays
//! sufficient.

use crate::estimator::{EgoKinematics, LatencyEstimate, TolerableLatencyEstimator};
use crate::future::{ActorFuture, RelativeState};
use av_core::prelude::*;
use serde::{Deserialize, Serialize};

/// Conservative error bounds on a perceived actor's state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct PerceptionUncertainty {
    /// Longitudinal position error bound (the actor may be this much
    /// closer than perceived).
    pub position: Meters,
    /// Velocity error bound (a frontal actor may be this much slower
    /// than perceived).
    pub velocity: MetersPerSecond,
    /// Lateral error bound; an out-of-corridor actor whose lateral
    /// clearance is within this bound is treated as in-corridor.
    pub lateral: Meters,
}

impl PerceptionUncertainty {
    /// No uncertainty: the wrapper becomes the identity.
    pub const EXACT: Self = Self {
        position: Meters(0.0),
        velocity: MetersPerSecond(0.0),
        lateral: Meters(0.0),
    };

    /// Validates that all bounds are non-negative and finite.
    ///
    /// # Errors
    ///
    /// Returns the offending bound's name.
    pub fn validate(&self) -> Result<(), &'static str> {
        if !(self.position.value() >= 0.0 && self.position.is_finite()) {
            return Err("position");
        }
        if !(self.velocity.value() >= 0.0 && self.velocity.is_finite()) {
            return Err("velocity");
        }
        if !(self.lateral.value() >= 0.0 && self.lateral.is_finite()) {
            return Err("lateral");
        }
        Ok(())
    }
}

/// An [`ActorFuture`] degraded to its worst plausible twin under the given
/// uncertainty bounds.
///
/// ```
/// use av_core::prelude::*;
/// use zhuyi::future::{ActorFuture, StationaryActor};
/// use zhuyi::uncertainty::{PerceptionUncertainty, UncertainFuture};
///
/// let perceived = StationaryActor::new(Meters(60.0));
/// let bounds = PerceptionUncertainty { position: Meters(5.0), ..Default::default() };
/// let worst = UncertainFuture::new(perceived, bounds);
/// assert_eq!(worst.at(Seconds(0.0)).gap, Meters(55.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UncertainFuture<F> {
    inner: F,
    bounds: PerceptionUncertainty,
}

impl<F: ActorFuture> UncertainFuture<F> {
    /// Wraps `inner` with `bounds`.
    pub fn new(inner: F, bounds: PerceptionUncertainty) -> Self {
        Self { inner, bounds }
    }

    /// The wrapped future.
    pub fn into_inner(self) -> F {
        self.inner
    }
}

/// Proves no span, so every instant is queried: a shifted gap or a forced
/// corridor overlap can make either verdict of the inner future false.
impl<F: ActorFuture> ActorFuture for UncertainFuture<F> {
    fn at(&self, tn: Seconds) -> RelativeState {
        let s = self.inner.at(tn);
        RelativeState {
            gap: s.gap - self.bounds.position,
            speed_along: (s.speed_along - self.bounds.velocity).max(MetersPerSecond::ZERO),
            // A lateral error can only *add* corridor membership
            // (conservative); the wrapper cannot know the clearance, so a
            // nonzero lateral bound forces membership.
            in_corridor: s.in_corridor || self.bounds.lateral.value() > 0.0,
        }
    }

    fn probability(&self) -> f64 {
        self.inner.probability()
    }
}

/// The largest longitudinal position error bound (meters) under which
/// `target_rate` still satisfies the situation, found by bisection over
/// σ_pos ∈ [0, `max_sigma`].
///
/// Returns `None` when even exact perception needs more than
/// `target_rate` — the rate itself is insufficient regardless of
/// accuracy. This is the "necessary accuracy for the perception stack"
/// query of paper §5: quantize/prune the detector only while its position
/// error stays under the returned bound.
///
/// ```
/// use av_core::prelude::*;
/// use zhuyi::estimator::EgoKinematics;
/// use zhuyi::future::StationaryActor;
/// use zhuyi::uncertainty::required_accuracy;
/// use zhuyi::{TolerableLatencyEstimator, ZhuyiConfig};
///
/// # fn main() -> Result<(), zhuyi::config::ConfigError> {
/// let estimator = TolerableLatencyEstimator::new(ZhuyiConfig::paper())?;
/// let ego = EgoKinematics::new(MetersPerSecond(20.0), MetersPerSecondSquared(0.0));
/// let sigma = required_accuracy(
///     &estimator, ego, &StationaryActor::new(Meters(80.0)),
///     Fpr(10.0), Meters(40.0), Seconds(1.0 / 30.0),
/// );
/// // With 80 m of room and 10 FPR available, several meters of position
/// // error are tolerable.
/// assert!(sigma.expect("rate is sufficient").value() > 1.0);
/// # Ok(())
/// # }
/// ```
pub fn required_accuracy(
    estimator: &TolerableLatencyEstimator,
    ego: EgoKinematics,
    future: &dyn ActorFuture,
    target_rate: Fpr,
    max_sigma: Meters,
    current_latency: Seconds,
) -> Option<Meters> {
    // A position error larger than the current gap would push the worst
    // twin *behind* the ego and make it spuriously unconstraining; the
    // bisection domain must stay strictly inside the gap.
    let gap_now = future.at(Seconds::ZERO).gap.value();
    let max_sigma = Meters(max_sigma.value().min((gap_now - 0.5).max(0.0)));
    let satisfies = |sigma: f64| -> bool {
        let wrapped = UncertainFuture::new(
            ForwardFuture(future),
            PerceptionUncertainty {
                position: Meters(sigma),
                ..PerceptionUncertainty::EXACT
            },
        );
        let est: LatencyEstimate = estimator.tolerable_latency(ego, &wrapped, current_latency);
        est.fpr().value() <= target_rate.value() + 1e-9
    };
    if !satisfies(0.0) {
        return None;
    }
    if satisfies(max_sigma.value()) {
        return Some(max_sigma);
    }
    let (mut lo, mut hi) = (0.0, max_sigma.value());
    for _ in 0..40 {
        let mid = (lo + hi) / 2.0;
        if satisfies(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(Meters(lo))
}

/// Adapter so `&dyn ActorFuture` can be wrapped by the generic
/// [`UncertainFuture`].
struct ForwardFuture<'a>(&'a dyn ActorFuture);

impl ActorFuture for ForwardFuture<'_> {
    fn at(&self, tn: Seconds) -> RelativeState {
        self.0.at(tn)
    }
    fn probability(&self) -> f64 {
        self.0.probability()
    }
}

impl std::fmt::Debug for ForwardFuture<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ForwardFuture(..)")
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
    fn exact_bounds_are_identity() {
        let inner = StationaryActor::new(Meters(60.0));
        let wrapped = UncertainFuture::new(inner, PerceptionUncertainty::EXACT);
        let e = estimator();
        let a = e.tolerable_latency(ego(20.0), &inner, L0);
        let b = e.tolerable_latency(ego(20.0), &wrapped, L0);
        assert_eq!(a.latency, b.latency);
    }

    #[test]
    fn uncertainty_only_tightens() {
        let inner = ConstantAccelActor::new(
            Meters(70.0),
            MetersPerSecond(15.0),
            MetersPerSecondSquared(-3.0),
        );
        let e = estimator();
        let exact = e.tolerable_latency(ego(25.0), &inner, L0).latency;
        for (pos, vel) in [(2.0, 0.0), (0.0, 2.0), (5.0, 3.0)] {
            let wrapped = UncertainFuture::new(
                inner,
                PerceptionUncertainty {
                    position: Meters(pos),
                    velocity: MetersPerSecond(vel),
                    lateral: Meters(0.0),
                },
            );
            let noisy = e.tolerable_latency(ego(25.0), &wrapped, L0).latency;
            assert!(
                noisy <= exact,
                "σ=({pos},{vel}) relaxed the estimate: {noisy} > {exact}"
            );
        }
    }

    #[test]
    fn lateral_uncertainty_flips_corridor_membership() {
        let outside = ConstantAccelActor::new(
            Meters(40.0),
            MetersPerSecond(5.0),
            MetersPerSecondSquared::ZERO,
        )
        .outside_corridor();
        let bounds = PerceptionUncertainty {
            lateral: Meters(0.5),
            ..PerceptionUncertainty::EXACT
        };
        let wrapped = UncertainFuture::new(outside, bounds);
        assert!(wrapped.at(Seconds(0.0)).in_corridor);
        // And the estimator now treats it as a threat.
        let e = estimator();
        let est = e.tolerable_latency(ego(25.0), &wrapped, L0);
        assert!(est.latency < Seconds(1.0));
    }

    #[test]
    fn velocity_bound_clamps_at_zero() {
        let inner = StationaryActor::new(Meters(50.0));
        let wrapped = UncertainFuture::new(
            inner,
            PerceptionUncertainty {
                velocity: MetersPerSecond(3.0),
                ..PerceptionUncertainty::EXACT
            },
        );
        assert_eq!(wrapped.at(Seconds(1.0)).speed_along, MetersPerSecond::ZERO);
    }

    #[test]
    fn required_accuracy_decreases_with_rate() {
        let e = estimator();
        let future = StationaryActor::new(Meters(80.0));
        let tight = required_accuracy(&e, ego(20.0), &future, Fpr(30.0), Meters(40.0), L0)
            .expect("30 FPR suffices");
        let loose = required_accuracy(&e, ego(20.0), &future, Fpr(5.0), Meters(40.0), L0)
            .expect("5 FPR suffices with enough accuracy");
        assert!(
            tight >= loose,
            "a faster rate must tolerate no less error: {tight} vs {loose}"
        );
    }

    #[test]
    fn insufficient_rate_returns_none() {
        let e = estimator();
        // 25 m/s with 45 m of room needs far more than 1 FPR even with
        // perfect perception.
        let future = StationaryActor::new(Meters(45.0));
        assert_eq!(
            required_accuracy(&e, ego(25.0), &future, Fpr(1.0), Meters(40.0), L0),
            None
        );
    }

    #[test]
    fn bounds_validation() {
        assert!(PerceptionUncertainty::EXACT.validate().is_ok());
        let bad = PerceptionUncertainty {
            position: Meters(-1.0),
            ..PerceptionUncertainty::EXACT
        };
        assert_eq!(bad.validate(), Err("position"));
        let bad = PerceptionUncertainty {
            velocity: MetersPerSecond(f64::NAN),
            ..PerceptionUncertainty::EXACT
        };
        assert_eq!(bad.validate(), Err("velocity"));
    }

    #[test]
    fn into_inner_round_trips() {
        let inner = StationaryActor::new(Meters(10.0));
        let wrapped = UncertainFuture::new(inner, PerceptionUncertainty::EXACT);
        assert_eq!(wrapped.into_inner(), inner);
    }
}
