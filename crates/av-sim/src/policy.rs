//! The ego's driving policy: lane keeping with IDM car-following and an
//! automatic-emergency-braking (AEB) overlay.
//!
//! This substitutes for the planner of the paper's AV stack. The policy
//! consumes the *perceived* world model — confirmed, possibly stale tracks —
//! so that lowering the camera frame processing rate directly lengthens the
//! reaction chain: sample → confirm (K frames) → plan → brake. That chain is
//! exactly what the paper's minimum-required-FPR experiments measure.

use crate::road::{LaneId, Road};
use av_core::prelude::*;
use serde::{Deserialize, Serialize};

/// Tunables of the ego policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyConfig {
    /// Cruise set-speed (the scenario's ego speed).
    pub desired_speed: MetersPerSecond,
    /// Maximum forward acceleration.
    pub max_accel: MetersPerSecondSquared,
    /// Comfortable braking deceleration (IDM's `b`), positive magnitude.
    pub comfort_decel: MetersPerSecondSquared,
    /// Physical braking limit (AEB), positive magnitude.
    pub max_decel: MetersPerSecondSquared,
    /// IDM desired time headway.
    pub headway: Seconds,
    /// IDM standstill minimum gap.
    pub min_gap: Meters,
    /// Extra lateral slack when deciding whether a perceived actor blocks
    /// the ego's corridor.
    pub corridor_margin: Meters,
    /// Required-deceleration threshold that escalates to emergency braking.
    pub aeb_trigger: MetersPerSecondSquared,
    /// Acceleration slew-rate limit (jerk), positive magnitude.
    pub jerk_limit: f64,
}

impl PolicyConfig {
    /// The IDM desired gap `s*(v, v_lead)` — standstill gap + headway
    /// term + the approach term — exactly as the planner's interaction
    /// term evaluates it ([`EgoVehicle::plan`] calls this method). The
    /// lane-batch retirement certificates use the same method as their
    /// near-equilibrium reference, so the two can never drift apart.
    #[inline]
    pub fn idm_desired_gap(&self, v: f64, v_lead: f64) -> f64 {
        let dv = v - v_lead;
        self.min_gap.value()
            + v * self.headway.value()
            + v * dv / (2.0 * (self.max_accel.value() * self.comfort_decel.value()).sqrt())
    }

    /// A reasonable highway configuration at the given cruise speed.
    pub fn cruise(desired_speed: MetersPerSecond) -> Self {
        Self {
            desired_speed,
            max_accel: MetersPerSecondSquared(2.0),
            comfort_decel: MetersPerSecondSquared(2.5),
            max_decel: MetersPerSecondSquared(7.5),
            headway: Seconds(1.2),
            min_gap: Meters(2.5),
            corridor_margin: Meters(0.3),
            aeb_trigger: MetersPerSecondSquared(3.0),
            jerk_limit: 15.0,
        }
    }
}

/// The ego vehicle: state, fixed lane, and policy.
///
/// ```
/// use av_core::prelude::*;
/// use av_sim::prelude::*;
///
/// let road = Road::straight_three_lane(Meters(1000.0));
/// let mut ego = EgoVehicle::spawn(&road, LaneId(1), Meters(0.0),
///                                 PolicyConfig::cruise(MetersPerSecond(25.0)));
/// // Free road: the plan holds the desired speed.
/// let cmd = ego.plan(&[], &road);
/// ego.integrate(cmd, Seconds(0.01));
/// assert!((ego.speed().value() - 25.0).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EgoVehicle {
    config: PolicyConfig,
    dims: Dimensions,
    lane: LaneId,
    /// Arc-length position along the road.
    s: Meters,
    /// Lateral offset (the ego keeps its lane in all Table-1 scenarios).
    d: Meters,
    speed: MetersPerSecond,
    accel: MetersPerSecondSquared,
}

impl EgoVehicle {
    /// Spawns the ego in `lane` at arc length `s`, cruising at the policy's
    /// desired speed.
    ///
    /// # Panics
    ///
    /// Panics if `lane` does not exist on `road`.
    pub fn spawn(road: &Road, lane: LaneId, s: Meters, config: PolicyConfig) -> Self {
        let d = road
            .lane_offset(lane)
            .unwrap_or_else(|e| panic!("invalid ego placement: {e}"));
        Self {
            config,
            dims: Dimensions::CAR,
            lane,
            s,
            d,
            speed: config.desired_speed,
            accel: MetersPerSecondSquared::ZERO,
        }
    }

    /// The policy configuration.
    pub fn config(&self) -> &PolicyConfig {
        &self.config
    }

    /// Current arc-length position.
    pub fn s(&self) -> Meters {
        self.s
    }

    /// Current speed.
    pub fn speed(&self) -> MetersPerSecond {
        self.speed
    }

    /// Current acceleration.
    pub fn accel(&self) -> MetersPerSecondSquared {
        self.accel
    }

    /// The ego's lane.
    pub fn lane(&self) -> LaneId {
        self.lane
    }

    /// The ego's lateral Frenet offset (fixed: the ego keeps its lane in
    /// every Table-1 scenario).
    pub fn d(&self) -> Meters {
        self.d
    }

    /// The ego's footprint dimensions.
    pub fn dims(&self) -> Dimensions {
        self.dims
    }

    /// Snapshot as a world-frame [`Agent`].
    pub fn to_agent(&self, road: &Road) -> Agent {
        self.agent_from(road.path().frame_at(self.s))
    }

    /// [`EgoVehicle::to_agent`] with a caller-owned [`ProjectionHint`]
    /// memoizing the road segment under the ego (temporal coherence;
    /// bit-identical results for any hint state).
    pub fn to_agent_hinted(&self, road: &Road, hint: &mut ProjectionHint) -> Agent {
        self.agent_from(road.path().frame_at_hinted(self.s, hint))
    }

    fn agent_from(&self, frame: PathFrame) -> Agent {
        Agent::new(
            ActorId::EGO,
            ActorKind::Vehicle,
            self.dims,
            VehicleState::new(
                frame.position + frame.left * self.d.value(),
                frame.heading,
                self.speed,
                self.accel,
            ),
        )
    }

    /// Chooses the lead obstacle among perceived agents: the nearest one
    /// ahead whose lateral offset overlaps the ego's corridor.
    ///
    /// `hints` (when provided, one slot per perceived agent) memoizes each
    /// agent's last winning projection segment across ticks — the
    /// temporal-coherence fast path of [`Path::project_with_hint`], which
    /// is bit-identical to the plain projection.
    ///
    /// On an arc, an agent whose [`Path::lateral_bounds`] interval
    /// `[lo, hi]` lies wholly past one corridor edge is skipped without
    /// projecting it. The skip is exact: the projected offset `d` lies in
    /// `[lo, hi]`, and the rounded subtraction `d − d_ego` is monotone in
    /// `d`, so `lo − d_ego > corridor` (or `hi − d_ego < −corridor`)
    /// forces `|d − d_ego| > corridor`, the test below that would skip
    /// the agent after projecting it. A hint left unrefreshed by the skip
    /// only costs its next projection speed.
    fn lead<'a>(
        &self,
        perceived: &'a [Agent],
        road: &Road,
        mut hints: Option<&mut [ProjectionHint]>,
    ) -> Option<(&'a Agent, Meters)> {
        let mut best: Option<(&Agent, Meters)> = None;
        for (i, agent) in perceived.iter().enumerate() {
            if agent.id.is_ego() {
                continue;
            }
            let corridor = Meters(
                (self.dims.width.value() + agent.dims.width.value()) / 2.0
                    + self.config.corridor_margin.value(),
            );
            if let Some((lo, hi)) = road.path().lateral_bounds(agent.state.position) {
                if (lo - self.d).value() > corridor.value()
                    || (hi - self.d).value() < -corridor.value()
                {
                    continue;
                }
            }
            let f = match hints.as_deref_mut() {
                Some(hints) => road
                    .path()
                    .project_with_hint(agent.state.position, &mut hints[i]),
                None => road.to_frenet(agent.state.position),
            };
            let lateral = (f.d - self.d).abs();
            if lateral > corridor {
                continue;
            }
            let gap = Meters(
                (f.s - self.s).value()
                    - (self.dims.length.value() + agent.dims.length.value()) / 2.0,
            );
            if (f.s - self.s).value() <= 0.0 {
                continue; // beside or behind
            }
            if best.is_none_or(|(_, g)| gap < g) {
                best = Some((agent, gap));
            }
        }
        best
    }

    /// Computes the commanded acceleration from the perceived world.
    ///
    /// IDM free-road + interaction terms, overridden by emergency braking
    /// when the kinematically required deceleration exceeds the AEB
    /// trigger.
    pub fn plan(&self, perceived: &[Agent], road: &Road) -> MetersPerSecondSquared {
        self.plan_impl(perceived, road, None)
    }

    /// [`EgoVehicle::plan`] with per-agent [`ProjectionHint`]s (one slot
    /// per perceived agent, caller-owned across ticks) so each Frenet
    /// projection starts from last tick's winning segment. Identical
    /// command for identical inputs — hints affect only the search cost.
    ///
    /// # Panics
    ///
    /// Panics if `hints` is shorter than `perceived`.
    pub fn plan_with_hints(
        &self,
        perceived: &[Agent],
        road: &Road,
        hints: &mut [ProjectionHint],
    ) -> MetersPerSecondSquared {
        assert!(
            hints.len() >= perceived.len(),
            "one projection hint per perceived agent"
        );
        self.plan_impl(perceived, road, Some(hints))
    }

    fn plan_impl(
        &self,
        perceived: &[Agent],
        road: &Road,
        hints: Option<&mut [ProjectionHint]>,
    ) -> MetersPerSecondSquared {
        let cfg = &self.config;
        let v = self.speed.value().max(0.0);
        let v0 = cfg.desired_speed.value().max(0.1);
        let free = cfg.max_accel.value() * (1.0 - (v / v0).powi(4));
        let Some((leader, gap)) = self.lead(perceived, road, hints) else {
            return MetersPerSecondSquared(
                free.clamp(-cfg.max_decel.value(), cfg.max_accel.value()),
            );
        };
        let gap = gap.value().max(0.1);
        let v_lead = leader.state.speed.value().max(0.0);
        let dv = v - v_lead;

        // AEB: the deceleration needed to match the leader's speed within
        // the available gap (minus the standstill buffer).
        if dv > 0.0 {
            let usable = (gap - cfg.min_gap.value()).max(0.1);
            let required = (v * v - v_lead * v_lead) / (2.0 * usable);
            if required >= cfg.aeb_trigger.value() {
                let brake = (required * 1.2).min(cfg.max_decel.value());
                return MetersPerSecondSquared(-brake.max(cfg.comfort_decel.value()));
            }
        }

        // IDM interaction term.
        let s_star = cfg.idm_desired_gap(v, v_lead);
        let accel =
            cfg.max_accel.value() * (1.0 - (v / v0).powi(4) - (s_star.max(0.0) / gap).powi(2));
        MetersPerSecondSquared(accel.clamp(-cfg.max_decel.value(), cfg.max_accel.value()))
    }

    /// Applies a commanded acceleration through the jerk limiter and
    /// integrates one tick.
    pub fn integrate(&mut self, command: MetersPerSecondSquared, dt: Seconds) {
        let max_delta = self.config.jerk_limit * dt.value();
        let delta = (command - self.accel).value().clamp(-max_delta, max_delta);
        self.accel = MetersPerSecondSquared(self.accel.value() + delta);
        let (ds, v) = distance_speed_after(self.speed, self.accel, dt);
        self.s += ds;
        self.speed = v;
        if self.speed.value() <= 0.0 {
            self.speed = MetersPerSecond::ZERO;
            if self.accel.value() < 0.0 {
                self.accel = MetersPerSecondSquared::ZERO;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn road() -> Road {
        Road::straight_three_lane(Meters(3000.0))
    }

    fn ego(v: f64) -> EgoVehicle {
        EgoVehicle::spawn(
            &road(),
            LaneId(1),
            Meters(0.0),
            PolicyConfig::cruise(MetersPerSecond(v)),
        )
    }

    fn lead_agent(s: f64, lane_d: f64, v: f64) -> Agent {
        Agent::new(
            ActorId(1),
            ActorKind::Vehicle,
            Dimensions::CAR,
            VehicleState::new(
                Vec2::new(s, lane_d),
                Radians(0.0),
                MetersPerSecond(v),
                MetersPerSecondSquared::ZERO,
            ),
        )
    }

    /// Runs the closed loop against a ground-truth-perceived world.
    fn simulate(mut ego: EgoVehicle, mut agents: Vec<Agent>, seconds: f64) -> (EgoVehicle, f64) {
        let road = road();
        let dt = Seconds(0.01);
        let mut min_gap = f64::INFINITY;
        for _ in 0..(seconds / 0.01) as usize {
            let cmd = ego.plan(&agents, &road);
            ego.integrate(cmd, dt);
            for a in &mut agents {
                let adv = a.state.speed.value() * 0.01;
                a.state.position.x += adv;
            }
            for a in &agents {
                let gap = a.state.position.x - ego.s().value() - 4.5;
                if (a.state.position.y - 3.7).abs() < 2.0 {
                    min_gap = min_gap.min(gap);
                }
            }
        }
        (ego, min_gap)
    }

    #[test]
    fn free_road_holds_desired_speed() {
        let (ego, _) = simulate(ego(25.0), vec![], 10.0);
        assert!((ego.speed().value() - 25.0).abs() < 0.2);
    }

    #[test]
    fn stops_behind_stopped_lead_with_perfect_perception() {
        // 25 m/s toward a stopped car 150 m ahead in the same lane.
        let (ego, min_gap) = simulate(ego(25.0), vec![lead_agent(150.0, 3.7, 0.0)], 20.0);
        assert_eq!(ego.speed(), MetersPerSecond::ZERO);
        assert!(min_gap > 0.5, "kept a positive gap, got {min_gap}");
        assert!(min_gap < 30.0, "stopped unreasonably early ({min_gap} m)");
    }

    #[test]
    fn follows_slower_lead_without_collision() {
        let (ego, min_gap) = simulate(ego(30.0), vec![lead_agent(60.0, 3.7, 15.0)], 20.0);
        assert!(
            (ego.speed().value() - 15.0).abs() < 1.0,
            "speed {}",
            ego.speed()
        );
        assert!(min_gap > 1.0);
    }

    #[test]
    fn ignores_adjacent_lane_traffic() {
        // A stopped car in the next lane must not trigger braking.
        let (ego, _) = simulate(ego(25.0), vec![lead_agent(100.0, 7.4, 0.0)], 10.0);
        assert!((ego.speed().value() - 25.0).abs() < 0.3);
    }

    #[test]
    fn aeb_escalates_beyond_comfort() {
        let road = road();
        let ego = ego(30.0);
        // Stopped obstacle 60 m ahead at 30 m/s: required decel ~8.5,
        // clamped to max_decel.
        let cmd = ego.plan(&[lead_agent(60.0, 3.7, 0.0)], &road);
        assert!(
            cmd.value() <= -ego.config().max_decel.value() + 1e-9,
            "expected emergency braking, got {cmd}"
        );
    }

    #[test]
    fn jerk_limit_smooths_brake_onset() {
        let mut e = ego(30.0);
        e.integrate(MetersPerSecondSquared(-7.5), Seconds(0.01));
        // After one tick the accel can have moved at most jerk*dt = 0.15.
        assert!(e.accel().value() >= -0.16, "accel jumped to {}", e.accel());
    }

    #[test]
    fn never_reverses() {
        let mut e = ego(1.0);
        for _ in 0..500 {
            e.integrate(MetersPerSecondSquared(-7.5), Seconds(0.01));
        }
        assert_eq!(e.speed(), MetersPerSecond::ZERO);
        assert_eq!(e.accel(), MetersPerSecondSquared::ZERO);
    }

    /// [`EgoVehicle::lead`] without the `lateral_bounds` shortcut: every
    /// agent projected, then the same corridor and gap tests. Returns
    /// the leader's id and the bits of its gap.
    fn lead_by_projection(
        ego: &EgoVehicle,
        perceived: &[Agent],
        road: &Road,
    ) -> Option<(ActorId, u64)> {
        let mut best: Option<(ActorId, Meters)> = None;
        for agent in perceived {
            let f = road.to_frenet(agent.state.position);
            let corridor = Meters(
                (ego.dims.width.value() + agent.dims.width.value()) / 2.0
                    + ego.config.corridor_margin.value(),
            );
            let ahead = (f.s - ego.s).value();
            if (f.d - ego.d).abs() > corridor || ahead <= 0.0 {
                continue;
            }
            let gap = Meters(ahead - (ego.dims.length.value() + agent.dims.length.value()) / 2.0);
            if best.is_none_or(|(_, g)| gap < g) {
                best = Some((agent.id, gap));
            }
        }
        best.map(|(id, gap)| (id, gap.value().to_bits()))
    }

    fn lead_bits(
        ego: &EgoVehicle,
        perceived: &[Agent],
        road: &Road,
        hints: Option<&mut [ProjectionHint]>,
    ) -> Option<(ActorId, u64)> {
        ego.lead(perceived, road, hints)
            .map(|(agent, gap)| (agent.id, gap.value().to_bits()))
    }

    #[test]
    fn lead_on_arcs_matches_projecting_every_agent() {
        use std::f64::consts::{FRAC_PI_2, TAU};
        // Deterministic pseudo-random draws (LCG), no external RNG.
        let mut state = 0x5851_f42d_4c95_7f2du64;
        let mut unit = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 // in [0, 1)
        };
        // (radius, length): the catalog's arc, the fuzzer's sharpest and
        // longest (6 rad at 500 m), then fuzzed arcs of radius 500–800 m
        // sweeping up to 6 rad.
        let mut arcs = vec![(400.0, 1500.0), (500.0, 3000.0)];
        for _ in 0..14 {
            let radius = 500.0 + 300.0 * unit();
            arcs.push((radius, radius * (0.5 + 5.5 * unit())));
        }
        let corridor = Dimensions::CAR.width.value() + 0.3;
        let (mut skipped, mut straddling, mut led) = (0, 0, 0);
        for (radius, length) in arcs {
            let road = Road::curved_three_lane(Meters(radius), Meters(length));
            let path = road.path();
            let at = |s: f64, d: f64| path.frenet_to_world(FrenetPose::new(Meters(s), Meters(d)));
            let center = Vec2::new(0.0, radius);
            let sweep = length / radius;
            for _ in 0..8 {
                let ego = EgoVehicle::spawn(
                    &road,
                    LaneId(1),
                    Meters(length * unit()),
                    PolicyConfig::cruise(MetersPerSecond(25.0)),
                );
                let (e_s, e_d) = (ego.s().value(), ego.d().value());
                let mut points = Vec::new();
                // Offsets within 1e-9 m of either corridor edge, mostly
                // ahead of the ego.
                for edge in [e_d - corridor, e_d + corridor] {
                    for k in -4..=4 {
                        let s = e_s + 250.0 * (unit() - 0.2);
                        points.push(at(s, edge + f64::from(k) * 2.5e-10));
                    }
                }
                // Any offset across the road and beyond it, along the arc
                // and past either of its ends.
                for _ in 0..24 {
                    let s = length * (1.4 * unit() - 0.2);
                    points.push(at(s, 30.0 * unit() - 11.3));
                }
                // In the ego's lane past either end, where an extended end
                // segment is nearer than the circle.
                for _ in 0..6 {
                    let past = 0.35 * radius * unit();
                    let d = e_d + 2.0 * corridor * (unit() - 0.5);
                    points.push(at(length + past, d));
                    points.push(at(-past, d));
                }
                // Outside the sweep, at any distance from the center.
                for _ in 0..8 {
                    let azimuth = -FRAC_PI_2 + sweep + (TAU - sweep) * unit();
                    let r = 2.0 * radius * unit();
                    points.push(center + Vec2::from_heading(Radians(azimuth)) * r);
                }
                let agents: Vec<Agent> = points
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| {
                        let mut agent = lead_agent(0.0, 0.0, 20.0);
                        agent.id = ActorId(i as u32 + 1);
                        agent.state.position = p;
                        agent
                    })
                    .collect();
                for agent in &agents {
                    let alone = std::slice::from_ref(agent);
                    let expected = lead_by_projection(&ego, alone, &road);
                    assert_eq!(lead_bits(&ego, alone, &road, None), expected);
                    let mut hint = [ProjectionHint::default()];
                    assert_eq!(lead_bits(&ego, alone, &road, Some(&mut hint)), expected);
                    led += usize::from(expected.is_some());
                    if let Some((lo, hi)) = path.lateral_bounds(agent.state.position) {
                        let (lo, hi) = (lo.value() - e_d, hi.value() - e_d);
                        if lo > corridor || hi < -corridor {
                            skipped += 1;
                        } else if lo.abs() > corridor || hi.abs() > corridor {
                            let d = road.to_frenet(agent.state.position).d.value();
                            straddling += usize::from((d - e_d).abs() <= corridor);
                        }
                    }
                }
                let expected = lead_by_projection(&ego, &agents, &road);
                assert_eq!(lead_bits(&ego, &agents, &road, None), expected);
                let mut hints = vec![ProjectionHint::default(); agents.len()];
                for _ in 0..2 {
                    let hinted = lead_bits(&ego, &agents, &road, Some(&mut hints));
                    assert_eq!(hinted, expected);
                }
            }
        }
        assert!(
            skipped > 1400 && straddling > 800 && led > 1400,
            "skipped {skipped}, straddling {straddling}, led {led}"
        );
    }

    #[test]
    fn to_agent_reports_pose() {
        let e = ego(20.0);
        let agent = e.to_agent(&road());
        assert_eq!(agent.id, ActorId::EGO);
        assert!((agent.state.position.y - 3.7).abs() < 1e-9);
    }
}
