//! The tolerable-latency search (paper §2.1, Eqs. 1–3).
//!
//! For one actor future, Zhuyi finds the **maximum** perception latency `l`
//! such that, if the ego reacts after t_r = l + α and then hard-brakes at
//! a_b = max(C3, C4·|a₀|), there exists a maneuver-completion time t_n with:
//!
//! - Eq. 1 (distance): d_e1 + d_e2 ≤ C1·s_n — the ego's travel during
//!   reaction plus braking fits inside the available distance, and
//! - Eq. 2 (velocity): 0 ≤ v_e_n ≤ C2·v_a_n — the ego ends no faster than
//!   (a conservative fraction of) the actor.
//!
//! The outer loop walks candidate latencies downward from `max_latency` in
//! `latency_step` decrements and returns the first (largest) safe one. The
//! inner loop searches t_n, either naively at a fixed timestep or with the
//! paper's Eq. 3 δt_n acceleration capped at M iterations.

use crate::config::{AlphaModel, ConfigError, SearchStrategy, ZhuyiConfig};
use crate::future::{ActorFuture, RelativeState, SpanProof};
use av_core::prelude::*;
use serde::{Deserialize, Serialize};

/// Longitudinal kinematics of the ego at the estimation instant t₀.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EgoKinematics {
    /// Ego speed v_e0 (clamped at zero by the estimator; the ego does not
    /// reverse).
    pub speed: MetersPerSecond,
    /// Ego longitudinal acceleration a₀; negative is deceleration.
    pub accel: MetersPerSecondSquared,
}

impl EgoKinematics {
    /// Creates ego kinematics.
    pub fn new(speed: MetersPerSecond, accel: MetersPerSecondSquared) -> Self {
        Self { speed, accel }
    }

    /// Extracts the longitudinal kinematics from a full vehicle state.
    pub fn from_state(state: &VehicleState) -> Self {
        Self {
            speed: state.speed,
            accel: state.accel,
        }
    }
}

/// How the search concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchOutcome {
    /// The actor never threatens the ego's corridor within the horizon; the
    /// maximum latency is tolerable by construction.
    Unconstrained,
    /// A tolerable latency within `[min_latency, max_latency]` was found.
    Tolerable,
    /// Every candidate latency the search tested fails: per the model no
    /// processing rate on the grid avoids a collision (Fig. 8's white
    /// cells). The candidates run from `max_latency` down in
    /// `latency_step` decrements while they stay above
    /// `min_latency − 1e-9`, so the last one tested can lie above
    /// `min_latency`: at [`ZhuyiConfig::paper`] it is 43 ms, and 33 ms is
    /// never tested. The estimate reports `min_latency` regardless;
    /// [`crate::Explanation::smallest_tested`] names the last candidate.
    Infeasible,
}

/// Search-effort counters, the basis of the §4.2 compute-demand analysis.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Candidate latencies visited by the outer loop (≤ L).
    pub latency_steps: u32,
    /// Constraint checks performed: threat-scan instants, pre-reaction
    /// guard instants and inner-loop iterations, across all candidate
    /// latencies. This is the compute basis of the paper's §4.2
    /// analysis, not a count of [`ActorFuture::at`] calls: the guard
    /// checks reuse the gaps the threat scan already queried.
    pub constraint_evaluations: u64,
}

impl SearchStats {
    /// Merges counters from another (sub-)search.
    pub fn absorb(&mut self, other: SearchStats) {
        self.latency_steps += other.latency_steps;
        self.constraint_evaluations += other.constraint_evaluations;
    }
}

/// The inner-loop solution backing a [`SearchOutcome::Tolerable`] result:
/// the maneuver-completion time t_n at which Eqs. 1 and 2 were verified,
/// and every quantity that entered the check. This is what makes an
/// estimate *explainable* — see
/// [`TolerableLatencyEstimator::explain`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InnerSolution {
    /// Reaction time t_r = l + α at the accepted latency.
    pub reaction_time: Seconds,
    /// Confirmation delay α.
    pub alpha: Seconds,
    /// Braking deceleration a_b = max(C3, C4·|a₀|) the model assumed.
    pub assumed_braking: MetersPerSecondSquared,
    /// Maneuver-completion time t_n where both constraints held.
    pub maneuver_complete_at: Seconds,
    /// Ego travel during reaction, d_e1.
    pub reaction_distance: Meters,
    /// Ego travel while braking, d_e2.
    pub braking_distance: Meters,
    /// Distance available at t_n *after* the C1 margin, C1·s_n.
    pub allowed_distance: Meters,
    /// Ego speed at t_n, v_e_n.
    pub ego_end_speed: MetersPerSecond,
    /// Actor speed bound at t_n, C2·v_a_n.
    pub actor_speed_allowance: MetersPerSecond,
}

/// Result of the tolerable-latency search for one future.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyEstimate {
    /// The tolerable latency. Equal to `max_latency` for
    /// [`SearchOutcome::Unconstrained`], and clamped to `min_latency` for
    /// [`SearchOutcome::Infeasible`].
    pub latency: Seconds,
    /// How the search concluded.
    pub outcome: SearchOutcome,
    /// Search effort.
    pub stats: SearchStats,
}

impl LatencyEstimate {
    /// The minimum frame processing rate implied by this latency
    /// (Eq. 5's per-actor term).
    pub fn fpr(&self) -> Fpr {
        Fpr::from_latency(self.latency)
    }
}

/// The per-actor tolerable-latency estimator.
///
/// ```
/// use av_core::prelude::*;
/// use zhuyi::{EgoKinematics, TolerableLatencyEstimator, ZhuyiConfig};
/// use zhuyi::future::StationaryActor;
///
/// # fn main() -> Result<(), zhuyi::config::ConfigError> {
/// let estimator = TolerableLatencyEstimator::new(ZhuyiConfig::paper())?;
/// let ego = EgoKinematics::new(MetersPerSecond(20.0), MetersPerSecondSquared(0.0));
/// // Stopped obstacle 200 m ahead: plenty of room, max latency tolerable.
/// let far = estimator.tolerable_latency(ego, &StationaryActor::new(Meters(200.0)),
///                                       Seconds::from_millis(33.0));
/// assert_eq!(far.latency, Seconds(1.0));
/// // Same obstacle 45 m ahead: the ego must perceive it faster.
/// let near = estimator.tolerable_latency(ego, &StationaryActor::new(Meters(45.0)),
///                                        Seconds::from_millis(33.0));
/// assert!(near.latency < Seconds(1.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TolerableLatencyEstimator {
    config: ZhuyiConfig,
}

impl TolerableLatencyEstimator {
    /// Creates an estimator over a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated configuration invariant.
    pub fn new(config: ZhuyiConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The configuration this estimator runs.
    pub fn config(&self) -> &ZhuyiConfig {
        &self.config
    }

    /// Finds the maximum tolerable latency for one actor future.
    ///
    /// `current_latency` is l₀, the processing latency the system runs at
    /// t₀, used by the confirmation-delay model α = K·(l − l₀).
    pub fn tolerable_latency(
        &self,
        ego: EgoKinematics,
        future: &dyn ActorFuture,
        current_latency: Seconds,
    ) -> LatencyEstimate {
        self.search(ego, future, current_latency).0
    }

    /// The search behind [`Self::tolerable_latency`] and
    /// [`Self::explain`]: one threat scan, then the outer loop over
    /// candidate latencies. Returns the estimate and, for a
    /// [`SearchOutcome::Tolerable`] one, the inner solution that accepted
    /// it.
    pub(crate) fn search(
        &self,
        ego: EgoKinematics,
        future: &dyn ActorFuture,
        current_latency: Seconds,
    ) -> (LatencyEstimate, Option<InnerSolution>) {
        let cfg = &self.config;
        let mut stats = SearchStats::default();

        // No pre-reaction guard reads a gap at or past the reach: the first
        // candidate, `max_latency`, reacts last (see `reaction_time`).
        let (_, t_r) = self.reaction_time(cfg.max_latency, current_latency);
        let reach = t_r.value().min(cfg.horizon.value());
        let scan = self.threat_scan(ego, future, reach, &mut stats);
        if scan.intervals.is_empty() {
            let estimate = LatencyEstimate {
                latency: cfg.max_latency,
                outcome: SearchOutcome::Unconstrained,
                stats,
            };
            return (estimate, None);
        }

        for latency in candidate_latencies(cfg) {
            stats.latency_steps += 1;
            let solution =
                self.try_latency(latency, ego, future, current_latency, &scan, &mut stats);
            if solution.is_some() {
                let estimate = LatencyEstimate {
                    latency,
                    outcome: SearchOutcome::Tolerable,
                    stats,
                };
                return (estimate, solution);
            }
        }

        let estimate = LatencyEstimate {
            latency: cfg.min_latency,
            outcome: SearchOutcome::Infeasible,
            stats,
        };
        (estimate, None)
    }

    /// Convenience wrapper: tolerable latency for a stationary in-lane
    /// actor, measuring the bumper-to-bumper gap from world positions.
    ///
    /// Useful for quick checks; the full pipeline builds
    /// [`crate::future::TrajectoryFuture`]s instead.
    pub fn estimate_stationary_actor(
        &self,
        ego: &VehicleState,
        actor: &Agent,
    ) -> crate::ActorEstimate {
        let center_gap = (actor.state.position - ego.position).dot(Vec2::from_heading(ego.heading));
        let gap =
            Meters(center_gap - (Dimensions::CAR.length.value() + actor.dims.length.value()) / 2.0);
        let est = self.tolerable_latency(
            EgoKinematics::from_state(ego),
            &crate::future::StationaryActor::new(gap),
            self.config.min_latency,
        );
        crate::ActorEstimate::new(actor.id, est)
    }

    /// Scans the future at every `naive_timestep` instant of the horizon
    /// for the maximal time intervals in which the actor is a *frontal
    /// threat*: inside the ego's corridor, ahead of the ego's t₀
    /// position, and — at the instant the interval opens — still ahead of
    /// where the unreacting ego would be. The last condition excludes
    /// actors approaching from behind (the ego cannot resolve a rear
    /// approach by braking; the paper's model addresses frontal
    /// obstacles).
    ///
    /// This is the only pass that queries the future at scan instants, and
    /// it asks only for the gap and the corridor bit
    /// ([`ActorFuture::gap_at`]): it records the gap at each one before
    /// `reach` for the pre-reaction guard, which reads no later instant.
    /// An instant the future proves quiet ([`ActorFuture::prove_span`]) is
    /// inactive without a query. One it proves active at or past `reach`,
    /// inside an interval that is already open, is active without a query:
    /// no check reads its gap. The instant that opens an interval is always
    /// queried, since the frontal test reads its gap. A verdict holds to
    /// the end of its span ([`crate::future::ProvenSpan::until`]), so the
    /// scan asks the future again only past it. A skipped instant still
    /// counts as a constraint evaluation, so the §4.2 compute basis does
    /// not depend on the proof.
    fn threat_scan(
        &self,
        ego: EgoKinematics,
        future: &dyn ActorFuture,
        reach: f64,
        stats: &mut SearchStats,
    ) -> ThreatScan {
        let cfg = &self.config;
        let v_e0 = ego.speed.max(MetersPerSecond::ZERO);
        let dt = cfg.naive_timestep.value();
        let end = cfg.horizon.value();
        let mut scan = ThreatScan::default();
        // The current span's verdict, and the instant its reach ends.
        let (mut proof, mut until) = (SpanProof::Unproven, 0.0);
        let mut open: Option<(f64, usize, bool)> = None; // (start, first, frontal)
        let mut t = 0.0;
        while t <= end + 1e-12 {
            stats.constraint_evaluations += 1;
            let in_span = t < until; // false for a NaN reach too
            if !in_span {
                let span = future.prove_span(Seconds(t), cfg.horizon);
                (proof, until) = (span.proof, span.until.value());
            }
            let guarded = t < reach - 1e-12; // the guard's own bound
            let active = match proof {
                SpanProof::Quiet => false,
                SpanProof::Active if open.is_some() && !guarded => true,
                _ => {
                    let (gap, in_corridor) = future.gap_at(Seconds(t));
                    let gap = gap.value();
                    let active = in_corridor && gap >= 0.0;
                    if active && open.is_none() {
                        let (d_unreacted, _) = distance_speed_after(v_e0, ego.accel, Seconds(t));
                        let frontal = gap >= d_unreacted.value() - 1e-9;
                        open = Some((t, scan.gaps.len(), frontal));
                    }
                    if active && guarded && matches!(open, Some((_, _, true))) {
                        scan.gaps.push(gap);
                    }
                    active
                }
            };
            if let (false, Some((start, first, frontal))) = (active, open) {
                if frontal {
                    scan.intervals.push(FrontalInterval {
                        start,
                        stop: t - dt,
                        first,
                    });
                }
                open = None;
            }
            t += dt;
        }
        if let Some((start, first, true)) = open {
            scan.intervals.push(FrontalInterval {
                start,
                stop: end,
                first,
            });
        }
        scan
    }

    /// Checks whether candidate latency `l` is safe: there exists a
    /// maneuver-completion time satisfying Eqs. 1 and 2, and no collision
    /// occurs before the ego even reacts. Returns the verified inner
    /// solution on success.
    #[allow(clippy::too_many_arguments)]
    fn try_latency(
        &self,
        l: Seconds,
        ego: EgoKinematics,
        future: &dyn ActorFuture,
        l0: Seconds,
        scan: &ThreatScan,
        stats: &mut SearchStats,
    ) -> Option<InnerSolution> {
        let cfg = &self.config;
        let v_e0 = ego.speed.max(MetersPerSecond::ZERO);
        let a0 = ego.accel;
        let (alpha, t_r) = self.reaction_time(l, l0);

        // Pre-reaction guard: while the ego has not yet reacted it travels
        // at unchanged acceleration; it must not out-run the available
        // distance at any threatened instant t < t_r. Each instant is a
        // scan instant: `t` accumulates from the interval's start exactly
        // as the scan's clock did, so `gaps[k]` is the gap at `t`. The
        // interval's last instant, `stop`, is threatened too, as
        // `next_threat_time` reads it.
        let guard_end = t_r.value().min(cfg.horizon.value());
        let dt = cfg.naive_timestep.value();
        for interval in &scan.intervals {
            let mut t = interval.start;
            let mut k = interval.first;
            while t < guard_end - 1e-12 && t <= interval.stop + 1e-12 {
                stats.constraint_evaluations += 1;
                let (d, _) = distance_speed_after(v_e0, a0, Seconds(t));
                if d.value() > cfg.c1 * scan.gaps[k] {
                    return None;
                }
                t += dt;
                k += 1;
            }
        }

        let a_b = cfg.braking_decel(a0);
        let (d_e1, v_reacted) = distance_speed_after(v_e0, a0, t_r.min(cfg.horizon));

        if t_r.value() >= cfg.horizon.value() {
            // The ego never reacts inside the analysis window, and the
            // guard found no pre-reaction collision.
            return Some(InnerSolution {
                reaction_time: t_r,
                alpha,
                assumed_braking: a_b,
                maneuver_complete_at: cfg.horizon,
                reaction_distance: d_e1,
                braking_distance: Meters::ZERO,
                allowed_distance: Meters(f64::INFINITY),
                ego_end_speed: v_reacted,
                actor_speed_allowance: MetersPerSecond(f64::INFINITY),
            });
        }

        let budget = match cfg.strategy {
            SearchStrategy::Accelerated => cfg.max_inner_iterations as u64,
            SearchStrategy::Naive => {
                ((cfg.horizon - t_r).value() / cfg.naive_timestep.value()).ceil() as u64 + 1
            }
        };

        let mut t_n = t_r;
        let mut clamped = false;
        for iter in 0..=budget {
            // A collision is only possible while the actor is a frontal
            // threat; skip to the next threatened time.
            let Some(t_eval) = next_threat_time(&scan.intervals, t_n.value()) else {
                // The actor stops being a frontal threat before the
                // maneuver needed to conclude: safe as-is.
                return Some(InnerSolution {
                    reaction_time: t_r,
                    alpha,
                    assumed_braking: a_b,
                    maneuver_complete_at: t_n,
                    reaction_distance: d_e1,
                    braking_distance: Meters::ZERO,
                    allowed_distance: Meters(f64::INFINITY),
                    ego_end_speed: v_reacted,
                    actor_speed_allowance: MetersPerSecond(f64::INFINITY),
                });
            };
            t_n = Seconds(t_eval);

            stats.constraint_evaluations += 1;
            let s = future.at(t_n);
            let t_b = Seconds((t_n - t_r).value().max(0.0));
            let (d_e2, v_e_n) = distance_speed_after(v_reacted, -a_b, t_b);
            let v_a_n = s.speed_along.max(MetersPerSecond::ZERO);

            let distance_ok = (d_e1 + d_e2).value() <= cfg.c1 * s.gap.value() + 1e-9;
            let velocity_ok = v_e_n.value() <= cfg.c2 * v_a_n.value() + 1e-9;
            if distance_ok && velocity_ok {
                return Some(InnerSolution {
                    reaction_time: t_r,
                    alpha,
                    assumed_braking: a_b,
                    maneuver_complete_at: t_n,
                    reaction_distance: d_e1,
                    braking_distance: d_e2,
                    allowed_distance: Meters(cfg.c1 * s.gap.value()),
                    ego_end_speed: v_e_n,
                    actor_speed_allowance: MetersPerSecond(cfg.c2 * v_a_n.value()),
                });
            }
            if iter == budget || clamped {
                break;
            }

            let step = match cfg.strategy {
                SearchStrategy::Naive => cfg.naive_timestep,
                SearchStrategy::Accelerated => self.eq3_step(s, d_e1, d_e2, v_e_n, v_a_n, a_b),
            };
            if !step.is_finite() {
                return None;
            }
            t_n += step;
            if t_n.value() >= cfg.horizon.value() {
                // Evaluate once at the horizon boundary, then give up.
                t_n = cfg.horizon;
                clamped = true;
            }
        }
        None
    }

    /// The confirmation delay α and the reaction time t_r = l + α of
    /// candidate latency `l` at current latency `l0`. Neither decreases as
    /// `l` grows, under either [`AlphaModel`]: each is a product, a
    /// difference, a clamp or a sum of `l` with fixed values, and each of
    /// those rounds monotonically.
    fn reaction_time(&self, l: Seconds, l0: Seconds) -> (Seconds, Seconds) {
        let cfg = &self.config;
        let alpha = match cfg.alpha {
            AlphaModel::ExcessOverCurrent => {
                Seconds((cfg.confirmation_frames as f64 * (l - l0).value()).max(0.0))
            }
            AlphaModel::FullLatency => Seconds(cfg.confirmation_frames as f64 * l.value()),
        };
        (alpha, l + alpha)
    }

    /// Eq. 3: the δt_n update that lets the accelerated search jump toward
    /// the next critical time instead of stepping naively. `δt_v` is the
    /// braking time needed to shed the velocity excess; `δt_d` the time
    /// scale over which the remaining distance discrepancy resolves.
    fn eq3_step(
        &self,
        s: RelativeState,
        d_e1: Meters,
        d_e2: Meters,
        v_e_n: MetersPerSecond,
        v_a_n: MetersPerSecond,
        a_b: MetersPerSecondSquared,
    ) -> Seconds {
        let cfg = &self.config;
        let gap_d = cfg.c1 * s.gap.value() - d_e1.value() - d_e2.value();
        let gap_v = v_e_n.value() - cfg.c2 * v_a_n.value();
        let ab = a_b.value();
        let dt_d = (v_e_n.value() + (v_e_n.value().powi(2) + 2.0 * ab * gap_d.abs()).sqrt()) / ab;
        let dt_v = gap_v / ab;
        let distance_ok = gap_d >= 0.0;
        let velocity_violated = gap_v >= 0.0;
        let raw = match (distance_ok, velocity_violated) {
            // Distance satisfied, velocity not: brake just long enough.
            (true, true) => dt_v,
            // Distance violated, velocity satisfied: wait for the actor to
            // open distance (re-checked against the actual future).
            (false, false) => dt_d,
            // Both violated: the earlier critical event decides.
            (false, true) => dt_d.min(dt_v),
            // Both satisfied is unreachable (the caller returned already),
            // but step minimally if it happens.
            (true, false) => 0.0,
        };
        // Guarantee forward progress: never step less than the naive
        // timestep.
        Seconds(raw.max(cfg.naive_timestep.value()))
    }
}

/// What the threat scan learned about one future.
#[derive(Debug, Default)]
struct ThreatScan {
    /// The frontal-threat intervals, sorted and disjoint.
    intervals: Vec<FrontalInterval>,
    /// The gap `s_n` at every scan instant inside a frontal interval and
    /// before the reach, in scan order.
    gaps: Vec<f64>,
}

/// A maximal run of scan instants in which the actor is a frontal threat.
#[derive(Debug)]
struct FrontalInterval {
    /// The scan instant that opened the interval.
    start: f64,
    /// The end of the interval: one timestep before the instant that
    /// closed it, or the horizon.
    stop: f64,
    /// Index of `start` in [`ThreatScan::gaps`].
    first: usize,
}

/// The candidate latencies of the outer loop, largest first: `max_latency`
/// down in `latency_step` decrements while they stay above
/// `min_latency − 1e-9`.
pub(crate) fn candidate_latencies(cfg: &ZhuyiConfig) -> impl Iterator<Item = Seconds> + '_ {
    std::iter::successors(Some(cfg.max_latency), |&l| Some(l - cfg.latency_step))
        .take_while(|l| l.value() >= cfg.min_latency.value() - 1e-9)
}

/// First time ≥ `from` that lies inside one of the (sorted, disjoint)
/// frontal-threat intervals.
fn next_threat_time(intervals: &[FrontalInterval], from: f64) -> Option<f64> {
    for interval in intervals {
        if from <= interval.stop + 1e-12 {
            return Some(from.max(interval.start));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::future::{ConstantAccelActor, FixedGapActor, StationaryActor};

    fn estimator() -> TolerableLatencyEstimator {
        TolerableLatencyEstimator::new(ZhuyiConfig::paper()).expect("paper config valid")
    }

    fn ego(v: f64, a: f64) -> EgoKinematics {
        EgoKinematics::new(MetersPerSecond(v), MetersPerSecondSquared(a))
    }

    const L0: Seconds = Seconds(1.0 / 30.0);

    #[test]
    fn far_obstacle_tolerates_max_latency() {
        let est =
            estimator().tolerable_latency(ego(20.0, 0.0), &StationaryActor::new(Meters(200.0)), L0);
        assert_eq!(est.outcome, SearchOutcome::Tolerable);
        assert_eq!(est.latency, Seconds(1.0));
    }

    #[test]
    fn latency_decreases_as_gap_shrinks() {
        let e = estimator();
        let mut last = Seconds(f64::INFINITY);
        for gap in [150.0, 80.0, 60.0, 50.0, 45.0] {
            let est = e.tolerable_latency(ego(20.0, 0.0), &StationaryActor::new(Meters(gap)), L0);
            assert!(
                est.latency <= last,
                "gap {gap}: latency {} > previous {last}",
                est.latency
            );
            last = est.latency;
        }
    }

    #[test]
    fn too_close_obstacle_is_infeasible() {
        // 20 m/s with 10 m of room: stopping needs v^2/(2*4.9) ~ 41 m.
        let est =
            estimator().tolerable_latency(ego(20.0, 0.0), &StationaryActor::new(Meters(10.0)), L0);
        assert_eq!(est.outcome, SearchOutcome::Infeasible);
        assert_eq!(est.latency, estimator().config().min_latency);
    }

    #[test]
    fn stationary_obstacle_physics_sanity() {
        // v = 20 m/s, a_b = 4.9: braking distance = 40.8 m. With C1 = 0.9
        // and gap 60 m the allowance is 54 m, leaving ~13 m of reaction
        // travel -> t_r ~ 0.66 s. With K = 5 and l0 = 33 ms, t_r = l +
        // 5(l - l0) = 6l - 0.166, so l ~ 0.14 s. The search (33 ms grid)
        // should land within one step of that.
        let est =
            estimator().tolerable_latency(ego(20.0, 0.0), &StationaryActor::new(Meters(60.0)), L0);
        assert_eq!(est.outcome, SearchOutcome::Tolerable);
        let l = est.latency.value();
        assert!((0.066..=0.20).contains(&l), "latency {l}");
    }

    #[test]
    fn receding_actor_is_unconstraining() {
        // Actor ahead moving away much faster than the ego.
        let f = ConstantAccelActor::new(
            Meters(30.0),
            MetersPerSecond(40.0),
            MetersPerSecondSquared::ZERO,
        );
        let est = estimator().tolerable_latency(ego(20.0, 0.0), &f, L0);
        assert_eq!(est.outcome, SearchOutcome::Tolerable);
        assert_eq!(est.latency, Seconds(1.0));
    }

    #[test]
    fn actor_outside_corridor_is_unconstrained() {
        let f = ConstantAccelActor::new(
            Meters(30.0),
            MetersPerSecond(5.0),
            MetersPerSecondSquared::ZERO,
        )
        .outside_corridor();
        let est = estimator().tolerable_latency(ego(30.0, 0.0), &f, L0);
        assert_eq!(est.outcome, SearchOutcome::Unconstrained);
        assert_eq!(est.latency, Seconds(1.0));
    }

    #[test]
    fn actor_behind_is_unconstrained() {
        let f = ConstantAccelActor::new(
            Meters(-30.0),
            MetersPerSecond(10.0),
            MetersPerSecondSquared::ZERO,
        );
        let est = estimator().tolerable_latency(ego(20.0, 0.0), &f, L0);
        // Gap stays negative: the follower never becomes a frontal threat
        // within the horizon... unless it overtakes. At 10 m/s it never
        // catches a 20 m/s ego.
        assert_eq!(est.outcome, SearchOutcome::Unconstrained);
    }

    #[test]
    fn braking_lead_vehicle_constrains() {
        // Vehicle following (Table 1): lead at 50 m braking to zero.
        let lead = ConstantAccelActor::new(
            Meters(50.0),
            MetersPerSecond(31.3),
            MetersPerSecondSquared(-6.0),
        );
        let est = estimator().tolerable_latency(ego(31.3, 0.0), &lead, L0);
        assert_eq!(est.outcome, SearchOutcome::Tolerable);
        assert!(
            est.latency < Seconds(1.0),
            "a hard-braking lead must constrain latency, got {}",
            est.latency
        );
    }

    #[test]
    fn naive_and_accelerated_agree() {
        let mut naive_cfg = ZhuyiConfig::paper();
        naive_cfg.strategy = SearchStrategy::Naive;
        let naive = TolerableLatencyEstimator::new(naive_cfg).expect("valid");
        let accel = estimator();
        for (v, gap, van) in [
            (20.0, 60.0, 0.0),
            (31.3, 50.0, 10.0),
            (13.4, 30.0, 5.0),
            (26.8, 100.0, 20.0),
            (8.9, 25.0, 0.0),
        ] {
            let f = FixedGapActor::new(Meters(gap), MetersPerSecond(van));
            let ln = naive.tolerable_latency(ego(v, 0.0), &f, L0);
            let la = accel.tolerable_latency(ego(v, 0.0), &f, L0);
            // The accelerated search may be up to one δl more conservative
            // (it can miss a satisfiable t_n the naive scan finds).
            let diff = (ln.latency - la.latency).value();
            assert!(
                (0.0..=0.034).contains(&diff),
                "v={v} gap={gap} van={van}: naive {} vs accelerated {}",
                ln.latency,
                la.latency
            );
        }
    }

    #[test]
    fn accelerated_uses_fewer_evaluations() {
        let mut naive_cfg = ZhuyiConfig::paper();
        naive_cfg.strategy = SearchStrategy::Naive;
        let naive = TolerableLatencyEstimator::new(naive_cfg).expect("valid");
        let accel = estimator();
        let f = StationaryActor::new(Meters(45.0));
        let ln = naive.tolerable_latency(ego(20.0, 0.0), &f, L0);
        let la = accel.tolerable_latency(ego(20.0, 0.0), &f, L0);
        assert!(
            la.stats.constraint_evaluations < ln.stats.constraint_evaluations,
            "accelerated {} vs naive {}",
            la.stats.constraint_evaluations,
            ln.stats.constraint_evaluations
        );
    }

    #[test]
    fn ego_speed_raises_requirement() {
        let e = estimator();
        let f = StationaryActor::new(Meters(80.0));
        let slow = e.tolerable_latency(ego(10.0, 0.0), &f, L0);
        let fast = e.tolerable_latency(ego(25.0, 0.0), &f, L0);
        assert!(fast.latency < slow.latency);
    }

    #[test]
    fn accelerating_ego_needs_lower_latency_than_cruising() {
        let e = estimator();
        let f = StationaryActor::new(Meters(70.0));
        let cruise = e.tolerable_latency(ego(20.0, 0.0), &f, L0);
        let accel = e.tolerable_latency(ego(20.0, 2.5), &f, L0);
        assert!(
            accel.latency <= cruise.latency,
            "accelerating ego covers more d_e1, so tolerable latency must not grow"
        );
    }

    #[test]
    fn current_latency_feeds_alpha() {
        // With alpha = K (l - l0), running at a faster current rate (small
        // l0) makes confirmation of a *higher* candidate latency costlier,
        // so the tolerable latency cannot increase when l0 shrinks.
        let e = estimator();
        let f = StationaryActor::new(Meters(55.0));
        let at_30 = e.tolerable_latency(ego(20.0, 0.0), &f, Seconds(1.0 / 30.0));
        let at_5 = e.tolerable_latency(ego(20.0, 0.0), &f, Seconds(1.0 / 5.0));
        assert!(at_5.latency >= at_30.latency);
    }

    #[test]
    fn full_latency_alpha_is_more_conservative() {
        let mut cfg = ZhuyiConfig::paper();
        cfg.alpha = AlphaModel::FullLatency;
        let strict = TolerableLatencyEstimator::new(cfg).expect("valid");
        let base = estimator();
        let f = StationaryActor::new(Meters(60.0));
        let ls = strict.tolerable_latency(ego(20.0, 0.0), &f, L0);
        let lb = base.tolerable_latency(ego(20.0, 0.0), &f, L0);
        assert!(ls.latency <= lb.latency);
    }

    #[test]
    fn stats_are_populated() {
        let est =
            estimator().tolerable_latency(ego(20.0, 0.0), &StationaryActor::new(Meters(45.0)), L0);
        assert!(est.stats.latency_steps >= 1);
        assert!(est.stats.constraint_evaluations > 0);
        let mut merged = SearchStats::default();
        merged.absorb(est.stats);
        assert_eq!(merged, est.stats);
    }

    #[test]
    fn fpr_reciprocal_of_latency() {
        let est =
            estimator().tolerable_latency(ego(20.0, 0.0), &StationaryActor::new(Meters(45.0)), L0);
        assert!((est.fpr().value() - 1.0 / est.latency.value()).abs() < 1e-9);
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let mut cfg = ZhuyiConfig::paper();
        cfg.c1 = -1.0;
        assert!(TolerableLatencyEstimator::new(cfg).is_err());
    }

    /// Logs the instant of every `at` call on the wrapped future.
    struct Logged<F> {
        inner: F,
        calls: std::cell::RefCell<Vec<f64>>,
    }

    impl<F: ActorFuture> ActorFuture for Logged<F> {
        fn at(&self, tn: Seconds) -> RelativeState {
            self.calls.borrow_mut().push(tn.value());
            self.inner.at(tn)
        }
    }

    #[test]
    fn future_is_queried_once_per_scan_instant_and_inner_check() {
        let e = estimator();
        let cfg = *e.config();
        let future = Logged {
            inner: StationaryActor::new(Meters(60.0)),
            calls: Default::default(),
        };
        let est = e.tolerable_latency(ego(20.0, 0.0), &future, L0);
        assert_eq!(est.outcome, SearchOutcome::Tolerable);
        assert!(est.latency < cfg.max_latency, "the case must constrain");
        let calls = future.calls.take();

        // The threat scan queries each instant of the horizon once, in
        // order.
        let mut scan = Vec::new();
        let mut t = 0.0;
        while t <= cfg.horizon.value() + 1e-12 {
            scan.push(t);
            t += cfg.naive_timestep.value();
        }
        assert_eq!(calls[..scan.len()], scan[..]);

        // Every later query is an inner-loop check, made no earlier than
        // the accepted latency's reaction time (the smallest of all
        // visited candidates). The pre-reaction guard, which checks from
        // t = 0, queries nothing.
        let t_r = e
            .explain(ego(20.0, 0.0), &StationaryActor::new(Meters(60.0)), L0)
            .solution
            .expect("tolerable")
            .reaction_time
            .value();
        let inner = &calls[scan.len()..];
        assert!(!inner.is_empty());
        let early = inner.iter().find(|&&t| t < t_r);
        assert_eq!(early, None, "queried before the reaction time {t_r}");

        // `at` calls = scan instants + inner-loop checks, fewer than the
        // constraint checks, which still count the guard's.
        let checks = est.stats.constraint_evaluations;
        assert_eq!(calls.len(), scan.len() + inner.len());
        assert!((calls.len() as u64) < checks, "{} vs {checks}", calls.len());
    }

    /// In the corridor from 1.0 s through 2.0 s, 100 m ahead except 40 m
    /// at 2.0 s, and out of it before and after; never moving.
    struct ClosesInAtTheLastInstant;

    impl ActorFuture for ClosesInAtTheLastInstant {
        fn at(&self, tn: Seconds) -> RelativeState {
            let t = tn.value();
            let last = (t - 2.0).abs() < 0.005;
            RelativeState {
                gap: Meters(if last { 40.0 } else { 100.0 }),
                speed_along: MetersPerSecond::ZERO,
                in_corridor: (0.995..2.005).contains(&t),
            }
        }
    }

    #[test]
    fn guard_reads_the_last_instant_of_an_interval() {
        // By 2.0 s the unreacting ego has covered 40 m, more than C1 of
        // the 40 m gap there, so every candidate that reacts after 2.0 s
        // fails its guard. The largest that reacts before it is 0.340 s:
        // t_r = 0.340 + 5·(0.340 − 1/30) = 1.873 s.
        let e = estimator();
        let est = e.tolerable_latency(ego(20.0, 0.0), &ClosesInAtTheLastInstant, L0);
        assert_eq!(est.outcome, SearchOutcome::Tolerable);
        assert!((est.latency.value() - 0.340).abs() < 1e-9, "{est:?}");
        let (_, t_r) = e.reaction_time(est.latency, L0);
        assert!(t_r.value() < 2.0, "{t_r}");
    }

    #[test]
    fn negative_ego_speed_treated_as_stopped() {
        let est =
            estimator().tolerable_latency(ego(-5.0, 0.0), &StationaryActor::new(Meters(20.0)), L0);
        // A stopped ego is always safe against a stopped obstacle.
        assert_eq!(est.outcome, SearchOutcome::Tolerable);
        assert_eq!(est.latency, Seconds(1.0));
    }
}
