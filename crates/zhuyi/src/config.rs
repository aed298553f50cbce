//! Configuration of the Zhuyi model (paper §2 and §4.1).

use av_core::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How the actor-confirmation delay α is modeled (paper §2.1).
///
/// The reaction time is t_r = l + α, where `l` is the candidate tolerable
/// latency. The paper models α = K·(l − l₀) with `l₀` the processing latency
/// the system is currently running at; "based on the smoothing/filtering
/// algorithm employed by the perception solution, a different model can be
/// used".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AlphaModel {
    /// α = K·(l − l₀), clamped at zero when `l < l₀` (a candidate rate
    /// faster than the current one adds no confirmation delay). The paper's
    /// model.
    #[default]
    ExcessOverCurrent,
    /// α = K·l: every confirmation frame costs a full candidate period.
    /// More conservative; used as an ablation.
    FullLatency,
}

/// Which inner-loop search the estimator runs over candidate collision
/// times t'_n (paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SearchStrategy {
    /// Advance t'_n by the paper's Eq. 3 δt_n step, for at most `M`
    /// iterations per candidate latency. The paper's optimized algorithm.
    #[default]
    Accelerated,
    /// Advance t'_n by one fixed timestep at a time until the horizon.
    /// The paper's "naive approach"; used to validate the accelerated
    /// search and as the baseline in the ablation benchmark.
    Naive,
}

/// Error validating a [`ZhuyiConfig`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A conservatism factor is outside its valid range.
    FactorOutOfRange {
        /// Which factor ("C1", "C2", "C4").
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A duration must be positive and finite.
    NonPositiveDuration {
        /// Which duration field.
        name: &'static str,
        /// The rejected value.
        value: Seconds,
    },
    /// The latency range is inverted (`min_latency > max_latency`).
    InvertedLatencyRange {
        /// Lower bound supplied.
        min: Seconds,
        /// Upper bound supplied.
        max: Seconds,
    },
    /// The braking deceleration must be positive and finite.
    NonPositiveBraking(MetersPerSecondSquared),
    /// The inner iteration budget must be nonzero.
    ZeroIterations,
    /// The lateral corridor margin must be non-negative and finite.
    NegativeCorridorMargin(Meters),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::FactorOutOfRange { name, value } => {
                write!(f, "factor {name} = {value} outside its valid range")
            }
            ConfigError::NonPositiveDuration { name, value } => {
                write!(f, "duration {name} = {value} must be positive and finite")
            }
            ConfigError::InvertedLatencyRange { min, max } => {
                write!(f, "latency range inverted: min {min} > max {max}")
            }
            ConfigError::NonPositiveBraking(a) => {
                write!(f, "braking deceleration {a} must be positive and finite")
            }
            ConfigError::ZeroIterations => write!(f, "inner iteration budget must be nonzero"),
            ConfigError::NegativeCorridorMargin(m) => {
                write!(f, "corridor margin {m} must be non-negative and finite")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Checks that the duration field `name` is positive and finite.
///
/// # Errors
///
/// Returns [`ConfigError::NonPositiveDuration`] for zero, negative and
/// non-finite values (NaN included).
pub fn validate_duration(name: &'static str, value: Seconds) -> Result<(), ConfigError> {
    if value.value() > 0.0 && value.is_finite() {
        Ok(())
    } else {
        Err(ConfigError::NonPositiveDuration { name, value })
    }
}

/// All knobs of the Zhuyi model.
///
/// [`ZhuyiConfig::paper`] reproduces §4.1 exactly: C1 = C2 = 0.9,
/// C3 = 4.9 m/s², C4 = 1.1, K = 5, M = 10, δl = 33 ms, l ∈ [33 ms, 1 s].
///
/// ```
/// use zhuyi::config::ZhuyiConfig;
/// let cfg = ZhuyiConfig::paper();
/// assert_eq!(cfg.latency_steps(), 30); // the paper's L = 1s / 33ms
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ZhuyiConfig {
    /// Distance conservatism factor C1 ∈ (0, 1] (Eq. 1).
    pub c1: f64,
    /// Velocity conservatism factor C2 ∈ (0, 1] (Eq. 2).
    pub c2: f64,
    /// Minimum braking deceleration C3, as a positive magnitude (m/s²).
    pub min_brake_decel: MetersPerSecondSquared,
    /// Braking headroom factor C4 ≥ 1: a_b = max(C3, C4·|a₀|) when the ego
    /// is already decelerating at a₀.
    pub brake_headroom: f64,
    /// Frames needed to confirm an actor, K.
    pub confirmation_frames: u32,
    /// Inner-loop iteration budget M for the accelerated search.
    pub max_inner_iterations: u32,
    /// Largest candidate latency (the search starts here), max(l).
    pub max_latency: Seconds,
    /// Smallest candidate latency, min(l): the search stops at the last
    /// `latency_step` decrement not below it, which may lie above it (see
    /// [`crate::SearchOutcome::Infeasible`]).
    pub min_latency: Seconds,
    /// Latency decrement δl between candidates.
    pub latency_step: Seconds,
    /// Fixed timestep of the naive search, and the granularity used to scan
    /// for threat intervals.
    pub naive_timestep: Seconds,
    /// How far into the future actor trajectories are examined.
    pub horizon: Seconds,
    /// Inner-loop search strategy.
    pub strategy: SearchStrategy,
    /// Confirmation-delay model.
    pub alpha: AlphaModel,
    /// Extra lateral slack added to the half-width sum when deciding whether
    /// an actor occupies the ego's corridor.
    pub corridor_margin: Meters,
}

impl ZhuyiConfig {
    /// The exact parameterization of the paper's §4.1.
    pub fn paper() -> Self {
        Self {
            c1: 0.9,
            c2: 0.9,
            min_brake_decel: MetersPerSecondSquared(4.9),
            brake_headroom: 1.1,
            confirmation_frames: 5,
            max_inner_iterations: 10,
            max_latency: Seconds(1.0),
            min_latency: Seconds::from_millis(33.0),
            latency_step: Seconds::from_millis(33.0),
            naive_timestep: Seconds::from_millis(10.0),
            horizon: Seconds(12.0),
            strategy: SearchStrategy::Accelerated,
            alpha: AlphaModel::ExcessOverCurrent,
            corridor_margin: Meters(0.3),
        }
    }

    /// Number of candidate latencies the outer loop visits,
    /// L = max(l)/δl (paper: 30).
    pub fn latency_steps(&self) -> u32 {
        (self.max_latency.value() / self.latency_step.value()).round() as u32
    }

    /// Checks every invariant; [`crate::TolerableLatencyEstimator::new`]
    /// calls this so an estimator can only exist over a valid config.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (name, value) in [("C1", self.c1), ("C2", self.c2)] {
            if !(value > 0.0 && value <= 1.0 && value.is_finite()) {
                return Err(ConfigError::FactorOutOfRange { name, value });
            }
        }
        if !(self.brake_headroom >= 1.0 && self.brake_headroom.is_finite()) {
            return Err(ConfigError::FactorOutOfRange {
                name: "C4",
                value: self.brake_headroom,
            });
        }
        if !(self.min_brake_decel.value() > 0.0 && self.min_brake_decel.is_finite()) {
            return Err(ConfigError::NonPositiveBraking(self.min_brake_decel));
        }
        for (name, value) in [
            ("max_latency", self.max_latency),
            ("min_latency", self.min_latency),
            ("latency_step", self.latency_step),
            ("naive_timestep", self.naive_timestep),
            ("horizon", self.horizon),
        ] {
            validate_duration(name, value)?;
        }
        if self.min_latency > self.max_latency {
            return Err(ConfigError::InvertedLatencyRange {
                min: self.min_latency,
                max: self.max_latency,
            });
        }
        if self.max_inner_iterations == 0 {
            return Err(ConfigError::ZeroIterations);
        }
        if !(self.corridor_margin.value() >= 0.0 && self.corridor_margin.is_finite()) {
            return Err(ConfigError::NegativeCorridorMargin(self.corridor_margin));
        }
        Ok(())
    }

    /// The braking deceleration magnitude a_b = max(C3, C4·|a₀|) the model
    /// assumes the ego can apply, given the ego's current acceleration
    /// (deceleration contributes; forward acceleration does not).
    pub fn braking_decel(&self, current_accel: MetersPerSecondSquared) -> MetersPerSecondSquared {
        let current_decel = (-current_accel.value()).max(0.0);
        MetersPerSecondSquared(
            self.min_brake_decel
                .value()
                .max(self.brake_headroom * current_decel),
        )
    }
}

impl Default for ZhuyiConfig {
    /// The paper's parameters.
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_matches_section_4_1() {
        let c = ZhuyiConfig::paper();
        assert_eq!(c.c1, 0.9);
        assert_eq!(c.c2, 0.9);
        assert_eq!(c.min_brake_decel, MetersPerSecondSquared(4.9));
        assert_eq!(c.brake_headroom, 1.1);
        assert_eq!(c.confirmation_frames, 5);
        assert_eq!(c.max_inner_iterations, 10);
        assert_eq!(c.latency_steps(), 30);
        c.validate().expect("paper preset is valid");
    }

    #[test]
    fn braking_decel_uses_headroom_when_already_braking() {
        let c = ZhuyiConfig::paper();
        // Accelerating ego: the model can still brake at C3.
        assert_eq!(
            c.braking_decel(MetersPerSecondSquared(2.0)),
            MetersPerSecondSquared(4.9)
        );
        // Mild braking: C3 still dominates.
        assert_eq!(
            c.braking_decel(MetersPerSecondSquared(-2.0)),
            MetersPerSecondSquared(4.9)
        );
        // Hard braking at 6 m/s^2: C4 * 6 = 6.6 dominates.
        let hard = c.braking_decel(MetersPerSecondSquared(-6.0));
        assert!((hard.value() - 6.6).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_factors() {
        let mut c = ZhuyiConfig::paper();
        c.c1 = 0.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::FactorOutOfRange { name: "C1", .. })
        ));
        let mut c = ZhuyiConfig::paper();
        c.c2 = 1.5;
        assert!(c.validate().is_err());
        let mut c = ZhuyiConfig::paper();
        c.brake_headroom = 0.5;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::FactorOutOfRange { name: "C4", .. })
        ));
    }

    #[test]
    fn validation_rejects_bad_durations() {
        let mut c = ZhuyiConfig::paper();
        c.latency_step = Seconds(0.0);
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NonPositiveDuration {
                name: "latency_step",
                ..
            })
        ));
        let mut c = ZhuyiConfig::paper();
        c.min_latency = Seconds(2.0);
        assert!(matches!(
            c.validate(),
            Err(ConfigError::InvertedLatencyRange { .. })
        ));
        let mut c = ZhuyiConfig::paper();
        c.max_inner_iterations = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroIterations));
        let mut c = ZhuyiConfig::paper();
        c.min_brake_decel = MetersPerSecondSquared(-1.0);
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NonPositiveBraking(_))
        ));
        let mut c = ZhuyiConfig::paper();
        c.corridor_margin = Meters(-0.1);
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NegativeCorridorMargin(_))
        ));
    }

    #[test]
    fn error_messages_are_informative() {
        let msg = ConfigError::FactorOutOfRange {
            name: "C1",
            value: 2.0,
        }
        .to_string();
        assert!(msg.contains("C1") && msg.contains('2'));
        let msg = ConfigError::InvertedLatencyRange {
            min: Seconds(2.0),
            max: Seconds(1.0),
        }
        .to_string();
        assert!(msg.contains("inverted"));
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(ZhuyiConfig::default(), ZhuyiConfig::paper());
    }
}
