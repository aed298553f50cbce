//! Conservative safe-suffix certificates for verdict-only lanes.
//!
//! A certificate retires a lane early by proving its remaining run
//! cannot collide. Every rule errs toward *refusing*: a lane that
//! fails certification simply keeps simulating, so the only cost of
//! conservatism is ticks, never correctness. The rules reason about
//! the *closed loop* — scripts, planner, and perception together —
//! and decline whenever any ingredient resists a static argument
//! (curved roads, pending ego-coupled maneuvers, injected frame
//! loss, stale in-corridor tracks, unconverged speeds).
//!
//! Three shapes are certified, matching the Table-1 endgames:
//!
//! 1. **All-separated** — every actor is (and provably remains)
//!    laterally separated from the ego's corridor by more than the
//!    footprints plus the planner's corridor margin can ever bridge.
//!    Collision is geometrically impossible regardless of what the
//!    ego does, so no perception reasoning is needed at all.
//! 2. **Parked ego** — the ego is (almost) stopped behind a static
//!    in-corridor blocker it has confirmed at standstill gap. IDM
//!    creep toward the standstill gap is bounded by the remaining
//!    perceived gap; every other actor is separated or beyond the
//!    blocker and receding.
//! 3. **Steady following** — the ego tracks a constant-speed (or
//!    ego-speed-matching) lead near the IDM equilibrium. Inside the
//!    entry band the closed loop is a damped follower; the drift
//!    bound [`FOLLOW_DRIFT`]·[`FOLLOW_DAMP_HORIZON`] over-covers the
//!    worst transient the band admits, and the gap floor keeps the
//!    certificate far from any state the planner could turn into a
//!    collision.
//!
//! The constants below are deliberately conservative envelopes, not
//! tuned-to-pass values; the batched-vs-per-rate equivalence suite
//! (full jittered catalog × rate grid) and the late-collision
//! adversarial test pin, per commit, that no certificate fires on a
//! run whose suffix still held a collision.

use super::*;
use av_perception::occlusion::BLOCKER_SHRINK;
use zhuyi_telemetry::CertReason;

/// Whether `ZHUYI_CERT_DEBUG` is set, read once (the per-call
/// environment lookup would allocate, and certificate attempts must
/// stay allocation-free on the decline path).
fn debug_declines() -> bool {
    static DEBUG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *DEBUG.get_or_init(|| std::env::var_os("ZHUYI_CERT_DEBUG").is_some())
}

/// Decline telemetry: every decline bumps the structured per-reason
/// counter in the installed telemetry registry (a branch plus one
/// relaxed atomic add when enabled, a branch when not); set
/// `ZHUYI_CERT_DEBUG=1` to additionally log the full per-instance
/// message (reason + tick + parameters) to stderr, for tuning the
/// conservative envelopes against real sweeps.
macro_rules! decline {
    ($tick:expr, $reason:expr, $($why:tt)*) => {{
        zhuyi_telemetry::cert_decline($reason);
        if debug_declines() {
            eprintln!("cert declined @tick {}: {}", $tick, format!($($why)*));
        }
        return false;
    }};
}

/// First tick at which a lane attempts certification.
pub const FIRST_ATTEMPT_TICK: u64 = 32;
/// Initial retry backoff after a failed attempt, in ticks.
pub const RETRY_BACKOFF_TICKS: u64 = 32;
/// Backoff cap: a lane re-attempts at least this often.
pub const MAX_BACKOFF_TICKS: u64 = 64;

/// Extra lateral slack (m) beyond footprints + corridor margin
/// required before an actor counts as separated for good.
pub const SEP_SLACK: f64 = 0.7;
/// How close to the ego's own lateral offset an in-corridor lead or
/// trailer must sit (m) — the sight-corridor half-extent.
pub const LEAD_D_TOL: f64 = 0.25;
/// Parked-ego certificate: ego speed ceiling (m/s). Covers the IDM
/// standstill creep, which peaks well below this.
pub const PARKED_EGO_VMAX: f64 = 0.5;
/// Parked-ego certificate: ego acceleration ceiling (m/s²).
pub const PARKED_EGO_AMAX: f64 = 0.2;
/// Parked-ego: the perceived gap may exceed the IDM standstill gap by
/// at most this much (m) — the creep budget.
pub const PARKED_GAP_SLACK: f64 = 1.0;
/// Parked-ego: minimum true bumper gap (m) below which the
/// certificate declines (too close to bound the residual creep).
pub const PARKED_GAP_FLOOR: f64 = 0.8;
/// Steady-following: relative-speed entry band (m/s).
pub const FOLLOW_DV: f64 = 1.0;
/// Steady-following: additional drift allowance (m/s) on top of the
/// entry-band relative speed when bounding future gap change.
pub const FOLLOW_DRIFT: f64 = 0.4;
/// Steady-following: ego acceleration entry band (m/s²).
pub const FOLLOW_AMAX: f64 = 1.5;
/// Steady-following: horizon (s) over which the band's worst
/// relative-speed transient is integrated. The IDM follower damps
/// in-band perturbations well inside this window.
pub const FOLLOW_DAMP_HORIZON: f64 = 8.0;
/// Steady-following: bumper-gap floor (m) that must survive the
/// worst-case drift.
pub const FOLLOW_GAP_FLOOR: f64 = 4.0;
/// Steady-following: the fraction of the IDM desired gap `s*` the
/// current gap must exceed. The damped approach to the equilibrium
/// gap (`s*/sqrt(1-(v/v0)^4)`, just above `s*`) undershoots it
/// transiently, so this is a near-equilibrium gate, not the safety
/// margin — the drift bound and the gap floor carry that.
pub const FOLLOW_GAP_FRACTION: f64 = 0.8;
/// Steady-following: absolute minimum bumper gap (m).
pub const FOLLOW_MIN_GAP: f64 = 8.0;
/// Minimum acceleration bound (m/s²) an ego-speed-matching actor must
/// have for its tracking lag to stay inside the band.
pub const MATCH_LIMIT_MIN: f64 = 1.5;
/// Relative-speed band (m/s) for ego-speed-matching leads/trailers.
pub const MATCH_DV: f64 = 0.5;
/// Slack (m) kept below a camera's range when bounding the lead's
/// future distance.
pub const RANGE_MARGIN: f64 = 10.0;
/// Longitudinal margin (m) an actor beyond the lead must keep from
/// it.
pub const BEYOND_MARGIN: f64 = 2.0;
/// Convergence tolerance (m/s) for treating a `Toward` speed mode as
/// settled at its target.
pub const SPEED_CONVERGED: f64 = 1e-6;
/// Extra bumper gap (m) kept above a pending `GapAheadOfEgo` trigger
/// threshold when certifying the trigger never fires.
pub const INERT_TRIGGER_MARGIN: f64 = 1.5;
/// Parked-ego: ceiling (m) on ego speed × slowest frame period —
/// bounds how far a stale perceived gap can overstate the true one
/// while the ego creeps.
pub const PARKED_STALE_CREEP: f64 = 0.35;
/// Sharpest curvature (1/m) the certificates reason about; the
/// catalog's arc is 1/400.
pub const CURVE_KAPPA_MAX: f64 = 1.0 / 250.0;
/// Extra lateral slack (m) on an arc: covers the polyline sampling
/// of the arc (millimeters at a 2 m step) with two orders of margin.
pub const CURVE_LAT_SLACK: f64 = 0.15;
/// Extra longitudinal floor slack (m) on an arc: covers arc-vs-chord
/// shortening of Frenet gaps at certificate scales.
pub const CURVE_GAP_SLACK: f64 = 0.5;
/// Extra dead-reckoning slack (m) on an arc: a coasted track runs
/// straight while the road bends; at catalog speeds and periods the
/// lateral error stays under `(v·T)²·κ/2 ≈ 0.4 m`.
pub const CURVE_STALE_SLACK: f64 = 0.5;

/// Certificate-relevant classification of one actor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Class {
    /// Laterally separated from the ego corridor, forever.
    Separated,
    /// In-corridor, ahead of the ego: candidate lead.
    ///
    /// `inert_floor` is the bumper gap the certificate must keep the
    /// lead above for the rest of the run: `0` for a completed
    /// script, or `G +` [`INERT_TRIGGER_MARGIN`] when the actor's
    /// next maneuver is gated on a `GapAheadOfEgo(G)` trigger —
    /// holding the gap above `G` forever keeps that maneuver (and
    /// every maneuver behind it) unfired, so the actor behaves as if
    /// its script were complete.
    Lead {
        /// Minimum future bumper gap that keeps the script inert.
        inert_floor: f64,
    },
    /// In-corridor, behind the ego: candidate trailer.
    Trailer,
}

/// A lead/trailer's certified future-speed behavior.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SpeedLaw {
    /// Holds `v` (± ulp wobble) forever.
    Constant(f64),
    /// Chases the ego's speed with at least [`MATCH_LIMIT_MIN`]
    /// authority.
    MatchesEgo,
}

/// Whether the actor's remaining script can be certified inert: no
/// pending maneuvers (`Some(0.0)`), or a first pending maneuver gated
/// on an ego-gap-ahead trigger that a gap floor keeps unfired
/// (`Some(required_gap)`). Anything else returns `None`.
fn pending_inertia(actor: &ScriptedActor) -> Option<f64> {
    match actor.pending_maneuvers().first() {
        None => Some(0.0),
        Some(m) => match m.trigger {
            Trigger::GapAheadOfEgo(g) => Some(g.value() + INERT_TRIGGER_MARGIN),
            _ => None,
        },
    }
}

fn speed_law(actor: &ScriptedActor) -> Option<SpeedLaw> {
    match actor.mode_view() {
        SpeedModeView::Hold => Some(SpeedLaw::Constant(actor.speed().value())),
        SpeedModeView::Toward { target, .. } => {
            if (actor.speed().value() - target.value()).abs() <= SPEED_CONVERGED {
                Some(SpeedLaw::Constant(actor.speed().value()))
            } else {
                None
            }
        }
        SpeedModeView::MatchEgo { limit } => {
            (limit.value() >= MATCH_LIMIT_MIN).then_some(SpeedLaw::MatchesEgo)
        }
    }
}

/// The hull of every lateral offset the actor can ever occupy: its
/// current offset, an in-flight lane change's destination, and the
/// destinations of every unfired `ChangeLane`. Lateral motion is a
/// monotone blend between consecutive lane centers, so the hull
/// contains the whole future `d` trajectory.
fn d_hull(actor: &ScriptedActor, road: &Road) -> (f64, f64) {
    let mut lo = actor.d().value();
    let mut hi = lo;
    let mut cover = |d: f64| {
        lo = lo.min(d);
        hi = hi.max(d);
    };
    if let Some(target) = actor.lane_change_target() {
        cover(target.value());
    }
    for m in actor.pending_maneuvers() {
        if let Action::ChangeLane { target, .. } = m.action {
            if let Ok(d) = road.lane_offset(target) {
                cover(d.value());
            }
        }
    }
    (lo, hi)
}

fn interval_distance(lo: f64, hi: f64, point: f64) -> f64 {
    if point < lo {
        lo - point
    } else if point > hi {
        point - hi
    } else {
        0.0
    }
}

/// Attempts every certificate for `lane` at `tick`; `true` retires
/// the lane as provably collision-free for the rest of the run.
pub(super) fn certifies_safe_suffix(
    sim: &Simulation,
    lane: &Lane,
    forked: &[bool],
    tick: u64,
    curvature: f64,
    classes: &mut Vec<Class>,
) -> bool {
    let now = Seconds(tick as f64 * sim.config.dt.value());
    // Frenet reasoning below needs an (s, d) chart whose distances
    // are honest. On a straight path it is globally Euclidean; on a
    // gentle arc, offset curves are concentric — lateral separation
    // is exact, and the longitudinal chord-vs-arc and dead-reckoning
    // distortions are covered by [`CURVE_LAT_SLACK`],
    // [`CURVE_GAP_SLACK`] and [`CURVE_STALE_SLACK`] below. Sharper
    // curvature declines.
    if curvature > CURVE_KAPPA_MAX {
        decline!(
            tick,
            CertReason::CurvatureBeyondBound,
            "curvature {curvature:.5} beyond certificate bound"
        );
    }
    let curved = curvature > 0.0;
    let lat_slack = if curved { CURVE_LAT_SLACK } else { 0.0 };
    let gap_slack = if curved { CURVE_GAP_SLACK } else { 0.0 };
    let stale_slack = if curved { CURVE_STALE_SLACK } else { 0.0 };
    let remaining = (sim.total_ticks.saturating_sub(tick)) as f64 * sim.config.dt.value();
    let ego = &lane.ego;
    let e_d = ego.d().value();
    let e_s = ego.s().value();
    let e_len = ego.dims().length.value();
    let e_w = ego.dims().width.value();
    let cfg = *ego.config();
    let corridor_margin = cfg.corridor_margin.value();

    // Classify every actor, declining on anything unclassifiable.
    classes.clear();
    let mut lead: Option<usize> = None;
    let mut trailer: Option<usize> = None;
    for (i, _) in sim.actors.iter().enumerate() {
        let actor = lane_actor(sim, lane, forked, i);
        let (d_lo, d_hi) = d_hull(actor, &sim.road);
        let w = actor.script().dims.width.value();
        let lateral = interval_distance(d_lo, d_hi, e_d);
        let sep_needed = (w + e_w) / 2.0 + corridor_margin + SEP_SLACK + lat_slack;
        // An occluder that can never overlap the sight corridor: its
        // shrunken half-width plus the corridor half-extent.
        let occ_needed = LEAD_D_TOL + BLOCKER_SHRINK * w / 2.0 + 0.3 + lat_slack;
        if lateral >= sep_needed.max(occ_needed) {
            classes.push(Class::Separated);
            continue;
        }
        // In-corridor actors must sit dead on the ego's lateral
        // line, have an inert-certifiable script, and follow a
        // certifiable speed law.
        let inertia = pending_inertia(actor);
        let tight = (actor.d().value() - e_d).abs() <= LEAD_D_TOL
            && actor.lane_change_target().is_none()
            && inertia.is_some()
            && speed_law(actor).is_some();
        if !tight {
            decline!(
                tick,
                CertReason::ActorUnclassifiable,
                "actor {} unclassifiable (d {:.2} vs ego {:.2}, pending {}, law {:?})",
                actor.script().id,
                actor.d().value(),
                e_d,
                actor.pending_maneuvers().len(),
                speed_law(actor)
            );
        }
        if actor.s().value() > e_s {
            classes.push(Class::Lead {
                inert_floor: inertia.expect("checked above"),
            });
            match lead {
                // Keep the nearest as "the" lead; remember the rest
                // for the beyond-the-lead check below.
                None => lead = Some(i),
                Some(prev) => {
                    let prev_s = lane_actor(sim, lane, forked, prev).s().value();
                    if actor.s().value() < prev_s {
                        lead = Some(i);
                    }
                }
            }
        } else {
            if trailer.is_some() {
                decline!(tick, CertReason::MultipleTrailers, "multiple trailers");
            }
            if inertia != Some(0.0) {
                decline!(
                    tick,
                    CertReason::TrailerPendingManeuvers,
                    "trailer with pending maneuvers"
                );
            }
            classes.push(Class::Trailer);
            trailer = Some(i);
        }
    }

    // Corridor actors beyond the nearest lead must clear it and never
    // fall back into the sight segment.
    if let Some(li) = lead {
        let l = lane_actor(sim, lane, forked, li);
        let l_s = l.s().value();
        let l_len = l.script().dims.length.value();
        let l_law = speed_law(l).expect("leads have a speed law");
        for (i, class) in classes.iter().enumerate() {
            let Class::Lead { inert_floor } = *class else {
                continue;
            };
            if i == li {
                continue;
            }
            let b = lane_actor(sim, lane, forked, i);
            let clears = b.s().value() - l_s
                > (b.script().dims.length.value() + l_len) / 2.0 + BEYOND_MARGIN;
            let receding = match (speed_law(b), l_law) {
                (Some(SpeedLaw::Constant(vb)), SpeedLaw::Constant(vl)) => {
                    vb >= vl - SPEED_CONVERGED
                }
                _ => false,
            };
            if !(clears && receding && inert_floor == 0.0) {
                decline!(
                    tick,
                    CertReason::BeyondLeadUnclear,
                    "actor beyond the lead too close, closing or scripted"
                );
            }
        }
    }

    // Shape 1 — all separated: collision is geometrically impossible
    // whatever the ego or its (possibly phantom) perception does.
    if lead.is_none() && trailer.is_none() {
        return true;
    }

    // The remaining shapes reason about what the planner will do,
    // which requires trusting the lead's track to keep refreshing.
    if lane.perception.has_frame_loss() {
        decline!(tick, CertReason::FrameLoss, "injected frame loss");
    }

    // Every confirmed track other than the lead/trailer must already
    // be out of the corridor: a stale in-corridor track could still
    // be elected lead by the planner, taking the closed loop outside
    // this certificate's model. (Coasting preserves a track's
    // lateral offset — track headings are road-tangent — so one
    // check now holds until the track refreshes further out.)
    let lead_id = lead.map(|i| lane_actor(sim, lane, forked, i).script().id);
    let trailer_id = trailer.map(|i| lane_actor(sim, lane, forked, i).script().id);
    for track in lane.perception.world().tracks() {
        let id = track.agent.id;
        if Some(id) == lead_id || Some(id) == trailer_id {
            continue;
        }
        let f = sim.road.to_frenet(track.agent.state.position);
        let lateral = (f.d.value() - e_d).abs();
        let needed = (track.agent.dims.width.value() + e_w) / 2.0 + corridor_margin + 0.2;
        if lateral <= needed {
            decline!(
                tick,
                CertReason::StaleInCorridorTrack,
                "stale in-corridor track {}",
                id
            );
        }
    }

    // On an arc, every certified body must stay on the sampled path
    // for the rest of the run (the concentric-offset argument does
    // not extend past the ends, where frames extrapolate straight).
    if curved {
        let length = sim.road.path().length().value();
        let ego_v_max = ego.speed().value().max(cfg.desired_speed.value()) + 0.2;
        let mut s_hi = e_s + ego_v_max * remaining;
        for (i, class) in classes.iter().enumerate() {
            if *class == Class::Separated {
                continue;
            }
            let a = lane_actor(sim, lane, forked, i);
            let v_hi = match speed_law(a) {
                Some(SpeedLaw::Constant(v)) => v,
                Some(SpeedLaw::MatchesEgo) => ego_v_max,
                None => unreachable!("corridor actors have a speed law"),
            };
            s_hi = s_hi.max(a.s().value() + v_hi * remaining);
        }
        if s_hi > length - 10.0 || e_s < 2.0 {
            decline!(
                tick,
                CertReason::LeavesSampledArc,
                "run leaves the sampled arc"
            );
        }
    }

    // Trailer condition (shared by shapes 2 and 3): an ego-matching
    // follower whose tracking lag cannot consume the gap.
    if let Some(ti) = trailer {
        let t = lane_actor(sim, lane, forked, ti);
        let gap_b = (e_s - t.s().value()) - (e_len + t.script().dims.length.value()) / 2.0;
        let ok = match speed_law(t) {
            Some(SpeedLaw::MatchesEgo) => {
                let dv = (t.speed().value() - ego.speed().value()).abs();
                dv <= MATCH_DV
                    && gap_b >= FOLLOW_MIN_GAP
                    && gap_b - (dv + FOLLOW_DRIFT) * remaining.min(FOLLOW_DAMP_HORIZON)
                        >= FOLLOW_GAP_FLOOR
            }
            _ => false,
        };
        if !ok {
            decline!(
                tick,
                CertReason::TrailerOutsideBand,
                "trailer {} outside band (law {:?}, gap {:.1})",
                t.script().id,
                speed_law(t),
                gap_b
            );
        }
    }

    let Some(li) = lead else {
        // Trailer-only corridors: certified above; nothing ahead can
        // collide.
        return true;
    };
    let l = lane_actor(sim, lane, forked, li);
    let l_dims = l.script().dims;
    let gap_true = (l.s().value() - e_s) - (e_len + l_dims.length.value()) / 2.0;
    let law = speed_law(l).expect("leads have a speed law");
    let Class::Lead { inert_floor } = classes[li] else {
        unreachable!("lead index tracks lead classifications")
    };
    let slowest_period = 1.0 / lane.perception.slowest_rate().value();

    // The planner must currently hold a confirmed, fresh-shaped track
    // of the lead.
    let Some(track) = lane.perception.world().track(l.script().id) else {
        decline!(
            tick,
            CertReason::LeadUntracked,
            "lead {} untracked",
            l.script().id
        );
    };
    if !track.confirmed {
        decline!(
            tick,
            CertReason::LeadUnconfirmed,
            "lead {} unconfirmed",
            l.script().id
        );
    }
    // What the planner consumes is the *coasted* track — for a
    // constant-speed lead the dead-reckoned state tracks the truth,
    // which is exactly what the consistency checks below pin.
    let coasted = track.coasted(now);
    let f = sim.road.to_frenet(coasted.state.position);
    if (f.d.value() - e_d).abs() > LEAD_D_TOL + 0.2 + stale_slack {
        decline!(
            tick,
            CertReason::LeadLaterallyStale,
            "lead track laterally stale"
        );
    }
    let gap_perceived = (f.s.value() - e_s) - (e_len + l_dims.length.value()) / 2.0;

    // Current visibility, to anchor the refresh argument.
    let ego_state = lane.scratch.ego.state;
    let lead_agent = Agent::new(
        l.script().id,
        l.script().kind,
        l_dims,
        VehicleState::new(
            lane.scratch.positions()[li],
            lane.scratch.headings()[li],
            l.speed(),
            l.accel(),
        ),
    );
    let visible = lane
        .perception
        .rig()
        .cameras()
        .iter()
        .any(|cam| cam.sees_agent(&ego_state, &lead_agent));
    if !visible {
        decline!(
            tick,
            CertReason::LeadNotVisible,
            "lead not currently visible"
        );
    }

    let shape = match law {
        SpeedLaw::Constant(0.0) => {
            // Shape 2 — parked ego behind a static blocker.
            [
                (
                    CertReason::ParkedEgoMoving,
                    ego.speed().value() <= PARKED_EGO_VMAX,
                ),
                (
                    CertReason::ParkedStaleCreep,
                    ego.speed().value() * slowest_period <= PARKED_STALE_CREEP,
                ),
                (CertReason::ParkedLeadScriptPending, inert_floor == 0.0),
                (
                    CertReason::ParkedEgoAccelerating,
                    ego.accel().value() <= PARKED_EGO_AMAX,
                ),
                (
                    CertReason::ParkedGapFloor,
                    gap_true >= PARKED_GAP_FLOOR + gap_slack,
                ),
                (
                    CertReason::ParkedTrackNotAtRest,
                    track.agent.state.speed.value() == 0.0
                        && track.agent.state.accel.value() == 0.0,
                ),
                (
                    CertReason::ParkedCreepBudget,
                    gap_perceived <= cfg.min_gap.value() + PARKED_GAP_SLACK,
                ),
                (CertReason::ParkedTrailerPresent, trailer.is_none()),
            ]
            .iter()
            .find(|(_, ok)| !ok)
            .map(|(why, _)| *why)
        }
        SpeedLaw::Constant(v_l) => {
            // Shape 3 — steady following of a constant-speed lead.
            let dv = ego.speed().value() - v_l;
            let drift = (dv.abs() + FOLLOW_DRIFT) * remaining.min(FOLLOW_DAMP_HORIZON) + 0.1;
            let desired = cfg.idm_desired_gap(ego.speed().value().max(0.0), v_l.max(0.0));
            let range_ok = max_forward_range(lane) - RANGE_MARGIN
                >= gap_true + drift + (e_len + l_dims.length.value()) / 2.0;
            [
                (CertReason::FollowRelativeSpeed, dv.abs() <= FOLLOW_DV),
                (
                    CertReason::FollowEgoAccel,
                    ego.accel().value().abs() <= FOLLOW_AMAX,
                ),
                (CertReason::FollowGapTooSmall, gap_true >= FOLLOW_MIN_GAP),
                (
                    CertReason::FollowBelowIdmGap,
                    gap_true >= desired * FOLLOW_GAP_FRACTION,
                ),
                (
                    CertReason::FollowDriftEatsGap,
                    gap_true - drift >= (FOLLOW_GAP_FLOOR + gap_slack).max(inert_floor),
                ),
                (
                    CertReason::FollowTrackUnsettled,
                    (coasted.state.speed.value() - v_l).abs() <= 1e-3,
                ),
                (
                    CertReason::FollowGapInconsistent,
                    (gap_perceived - gap_true).abs() <= 0.6 + stale_slack,
                ),
                (CertReason::FollowOutOfRange, range_ok),
            ]
            .iter()
            .find(|(_, ok)| !ok)
            .map(|(why, _)| *why)
        }
        SpeedLaw::MatchesEgo => {
            // Shape 3 — lead pacing the ego's speed.
            let dv = ego.speed().value() - l.speed().value();
            let period = slowest_period;
            let stale = 2.0 * period * period + 0.1;
            let match_limit = match l.mode_view() {
                SpeedModeView::MatchEgo { limit } => limit.value(),
                _ => MATCH_LIMIT_MIN,
            };
            let drift = (dv.abs() + FOLLOW_DRIFT) * remaining.min(FOLLOW_DAMP_HORIZON) + stale;
            let range_ok = max_forward_range(lane) - RANGE_MARGIN
                >= gap_true + drift + (e_len + l_dims.length.value()) / 2.0;
            [
                (CertReason::MatchRelativeSpeed, dv.abs() <= MATCH_DV),
                (
                    CertReason::MatchEgoAccel,
                    ego.accel().value().abs() <= FOLLOW_AMAX,
                ),
                (CertReason::MatchGapTooSmall, gap_true >= FOLLOW_MIN_GAP),
                (
                    CertReason::MatchDriftEatsGap,
                    gap_true - drift >= (FOLLOW_GAP_FLOOR + gap_slack).max(inert_floor),
                ),
                (
                    CertReason::MatchTrackStale,
                    (coasted.state.speed.value() - l.speed().value()).abs()
                        <= match_limit * period + 0.2,
                ),
                (
                    CertReason::MatchGapInconsistent,
                    (gap_perceived - gap_true).abs() <= stale + 0.6 + stale_slack,
                ),
                (CertReason::MatchOutOfRange, range_ok),
            ]
            .iter()
            .find(|(_, ok)| !ok)
            .map(|(why, _)| *why)
        }
    };
    if let Some(why) = shape {
        decline!(tick, why, "{}", why.label());
    }
    true
}

fn lane_actor<'a>(
    sim: &'a Simulation,
    lane: &'a Lane,
    forked: &[bool],
    i: usize,
) -> &'a ScriptedActor {
    if forked[i] {
        lane.forks[i].as_ref().expect("forked lanes hold copies")
    } else {
        &sim.actors[i]
    }
}

/// The longest range among cameras mounted dead ahead.
fn max_forward_range(lane: &Lane) -> f64 {
    lane.perception
        .rig()
        .cameras()
        .iter()
        .filter(|c| c.mount().value().abs() < 1e-9)
        .map(|c| c.range().value())
        .fold(0.0, f64::max)
}
