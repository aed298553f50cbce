//! The end-to-end perception pipeline: per-camera sampling into a fused
//! world model.
//!
//! This is the substitute for the paper's DNN perception stack. Each camera
//! samples frames at its own configurable FPR; a processed frame observes
//! the ground-truth agents inside that camera's FOV; observations feed the
//! shared [`WorldModel`], which applies K-frame confirmation. The planner
//! then reacts only to confirmed (and stale) tracks — reproducing exactly
//! the latency-safety coupling the paper studies.

use crate::dropout::{DropPolicy, FrameDropper};
use crate::occlusion::{fill_shrunken_footprints, occluded, occluded_against};
use crate::rig::{CameraId, CameraRig};
use crate::sampler::FrameSampler;
use crate::world_model::{TrackerConfig, WorldModel};
use av_core::prelude::*;
use av_core::scene::{Scene, SceneColumns};
use serde::{Deserialize, Serialize};

/// Per-camera rates used to construct a [`PerceptionSystem`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RatePlan {
    /// Every camera runs at the same rate (the paper's experimental
    /// framework "only allows the same FPR settings for all the cameras in
    /// one experiment", §4.2).
    Uniform(Fpr),
    /// Explicit per-camera rates, indexed like the rig.
    PerCamera(Vec<Fpr>),
}

/// Error constructing or reconfiguring a [`PerceptionSystem`].
#[derive(Debug, Clone, PartialEq)]
pub enum PerceptionError {
    /// The rate plan length does not match the rig.
    RatePlanMismatch {
        /// Cameras in the rig.
        cameras: usize,
        /// Rates supplied.
        rates: usize,
    },
    /// Camera id out of range.
    UnknownCamera(CameraId),
    /// Rates must be positive and finite.
    InvalidRate(Fpr),
}

impl std::fmt::Display for PerceptionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PerceptionError::RatePlanMismatch { cameras, rates } => {
                write!(f, "rate plan has {rates} rates for {cameras} cameras")
            }
            PerceptionError::UnknownCamera(id) => write!(f, "unknown camera {id}"),
            PerceptionError::InvalidRate(r) => write!(f, "invalid frame rate {r}"),
        }
    }
}

impl std::error::Error for PerceptionError {}

/// What one tick of the perception system did.
///
/// [`PerceptionSystem::tick`] lends its report by reference from a buffer
/// the system owns and reuses, so frame ticks cost no allocation; callers
/// that need to keep a report across ticks clone it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TickReport {
    /// Cameras that processed a frame at this tick.
    pub frames: Vec<CameraId>,
    /// Cameras whose frame was due this tick but lost to the injected
    /// drop policy.
    pub dropped: Vec<CameraId>,
    /// Actors observed at this tick (deduplicated across cameras).
    pub observed: Vec<ActorId>,
}

impl TickReport {
    fn clear(&mut self) {
        self.frames.clear();
        self.dropped.clear();
        self.observed.clear();
    }
}

/// Camera rig + per-camera frame samplers + fused world model.
///
/// ```
/// use av_core::prelude::*;
/// use av_core::scene::Scene;
/// use av_perception::rig::CameraRig;
/// use av_perception::system::{PerceptionSystem, RatePlan};
/// use av_perception::world_model::TrackerConfig;
///
/// # fn main() -> Result<(), av_perception::system::PerceptionError> {
/// let mut sys = PerceptionSystem::new(
///     CameraRig::drive_av(),
///     RatePlan::Uniform(Fpr(30.0)),
///     TrackerConfig::default(),
/// )?;
/// let ego = Agent::new(ActorId::EGO, ActorKind::Vehicle, Dimensions::CAR,
///                      VehicleState::at_rest(Vec2::ZERO, Radians(0.0)));
/// let scene = Scene::new(Seconds(0.0), ego, vec![]);
/// let report = sys.tick(&scene);
/// assert_eq!(report.frames.len(), 5); // all cameras fire their first frame
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerceptionSystem {
    rig: CameraRig,
    samplers: Vec<FrameSampler>,
    droppers: Vec<FrameDropper>,
    world: WorldModel,
    /// Reused per-tick observation buffer; always empty between ticks.
    observed_scratch: Vec<Agent>,
    /// Reused per-tick blocker-footprint buffer for the occlusion sweep.
    blocker_scratch: Vec<PreparedRect>,
    /// Cached earliest `next_due` across samplers: ticks before it skip
    /// the per-sampler walk entirely (most ticks, at low rates). Derived
    /// state — rebuilt after every frame tick, conservatively reset on
    /// rate changes.
    next_frame_due: Seconds,
    /// Reused per-tick report, lent by reference from
    /// [`PerceptionSystem::tick`]; holds the *last* tick's report between
    /// ticks, which is why it is excluded from [`PartialEq`].
    report: TickReport,
}

/// Equality compares configuration and accumulated perception state
/// (rig, samplers, droppers, world model) and ignores the reusable
/// per-tick scratch buffers.
impl PartialEq for PerceptionSystem {
    fn eq(&self, other: &Self) -> bool {
        self.rig == other.rig
            && self.samplers == other.samplers
            && self.droppers == other.droppers
            && self.world == other.world
    }
}

impl PerceptionSystem {
    /// Creates a perception system over `rig` with the given rate plan.
    ///
    /// # Errors
    ///
    /// Returns [`PerceptionError::RatePlanMismatch`] when a per-camera plan
    /// does not match the rig size, or [`PerceptionError::InvalidRate`] for
    /// non-positive rates.
    pub fn new(
        rig: CameraRig,
        rates: RatePlan,
        tracker: TrackerConfig,
    ) -> Result<Self, PerceptionError> {
        let rates = match rates {
            RatePlan::Uniform(r) => vec![r; rig.len()],
            RatePlan::PerCamera(v) => {
                if v.len() != rig.len() {
                    return Err(PerceptionError::RatePlanMismatch {
                        cameras: rig.len(),
                        rates: v.len(),
                    });
                }
                v
            }
        };
        if let Some(&bad) = rates.iter().find(|r| !(r.value() > 0.0 && r.is_finite())) {
            return Err(PerceptionError::InvalidRate(bad));
        }
        let samplers: Vec<FrameSampler> = rates.into_iter().map(FrameSampler::new).collect();
        let droppers = vec![FrameDropper::default(); samplers.len()];
        Ok(Self {
            rig,
            samplers,
            droppers,
            world: WorldModel::new(tracker),
            observed_scratch: Vec::new(),
            blocker_scratch: Vec::new(),
            next_frame_due: Seconds(f64::NEG_INFINITY),
            report: TickReport::default(),
        })
    }

    /// Injects a frame-loss pattern on every camera (failure injection;
    /// see [`crate::dropout`]). Default: no loss.
    pub fn with_drop_policy(mut self, policy: DropPolicy) -> Self {
        self.droppers = vec![FrameDropper::new(policy); self.samplers.len()];
        self
    }

    /// The camera rig.
    #[inline]
    pub fn rig(&self) -> &CameraRig {
        &self.rig
    }

    /// The fused world model.
    #[inline]
    pub fn world(&self) -> &WorldModel {
        &self.world
    }

    /// Current rate of one camera.
    pub fn rate(&self, id: CameraId) -> Option<Fpr> {
        self.samplers.get(id.0).map(|s| s.rate())
    }

    /// Current rates of every camera, in rig order.
    pub fn rates(&self) -> Vec<Fpr> {
        self.samplers.iter().map(|s| s.rate()).collect()
    }

    /// The slowest camera's rate — the longest frame period in the rig —
    /// without allocating (unlike [`PerceptionSystem::rates`]). Used by
    /// the lane-retirement certificates' staleness bounds.
    pub fn slowest_rate(&self) -> Fpr {
        Fpr(self
            .samplers
            .iter()
            .map(|s| s.rate().value())
            .fold(f64::INFINITY, f64::min))
    }

    /// `true` when any camera has a frame-loss policy other than
    /// [`DropPolicy::None`] injected. Retirement certificates refuse to
    /// reason about track liveness under injected loss, so they consult
    /// this before assuming a visible actor keeps refreshing its track.
    pub fn has_frame_loss(&self) -> bool {
        self.droppers.iter().any(|d| d.policy() != DropPolicy::None)
    }

    /// Reconfigures one camera's rate (work prioritization, §3.2).
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown camera or a non-positive rate.
    pub fn set_rate(&mut self, id: CameraId, rate: Fpr) -> Result<(), PerceptionError> {
        if !(rate.value() > 0.0 && rate.is_finite()) {
            return Err(PerceptionError::InvalidRate(rate));
        }
        self.samplers
            .get_mut(id.0)
            .ok_or(PerceptionError::UnknownCamera(id))?
            .set_rate(rate);
        // Conservatively invalidate the earliest-due cache: the next tick
        // walks every sampler again. (Today's samplers keep their already
        // scheduled frame on a rate change, so this is belt-and-braces,
        // not a correctness requirement.)
        self.next_frame_due = Seconds(f64::NEG_INFINITY);
        Ok(())
    }

    /// Fires the per-camera samplers for the tick at `now`, filling the
    /// reusable report's `frames`/`dropped`. Returns `true` when at least
    /// one frame survives to be processed.
    fn sample_frames(&mut self, now: Seconds) -> bool {
        self.report.clear();
        // No sampler can fire before the cached earliest due time — the
        // common non-frame tick costs one comparison, not a rig walk.
        // (`on_tick` fires iff `now + 1e-12 >= next_due`, so skipping
        // while `now + 1e-12 < min(next_due)` is exact.)
        if now.value() + 1e-12 < self.next_frame_due.value() {
            return false;
        }
        for (i, sampler) in self.samplers.iter_mut().enumerate() {
            if !sampler.on_tick(now) {
                continue;
            }
            let cam_id = CameraId(i);
            if self.droppers[i].survives() {
                self.report.frames.push(cam_id);
            } else {
                self.report.dropped.push(cam_id);
            }
        }
        self.next_frame_due = Seconds(
            self.samplers
                .iter()
                .map(|s| s.next_due().value())
                .fold(f64::INFINITY, f64::min),
        );
        !self.report.frames.is_empty()
    }

    /// Advances perception by one simulation tick against the ground-truth
    /// `scene`. Cameras whose samplers fire observe the actors in their
    /// FOV; the world model ingests the union.
    ///
    /// The returned report is lent from a buffer the system reuses every
    /// tick (no per-tick allocation once the buffers are warm); clone it
    /// to keep it past the next call.
    pub fn tick(&mut self, scene: &Scene) -> &TickReport {
        let now = scene.time;
        if !self.sample_frames(now) {
            self.world.prune(now);
            return &self.report;
        }
        // An actor is observed this tick when any processed frame's camera
        // sees it and its sight line is clear. Visibility is per-camera but
        // occlusion is not, so actors iterate outermost and each pays the
        // occlusion test at most once per tick. (The per-camera loop this
        // replaces observed the same set, camera-major; the world model
        // ingests observations per-id, so order is immaterial.)
        let mut observed = std::mem::take(&mut self.observed_scratch);
        let cameras = self.rig.cameras();
        for actor in &scene.actors {
            let seen = self
                .report
                .frames
                .iter()
                .any(|cam_id| cameras[cam_id.0].sees_agent(&scene.ego.state, actor));
            if seen && !occluded(scene.ego.state.position, actor, &scene.actors) {
                observed.push(*actor);
            }
        }
        self.world.observe(now, &observed);
        self.report.observed.extend(observed.iter().map(|a| a.id));
        observed.clear();
        self.observed_scratch = observed;
        &self.report
    }

    /// [`PerceptionSystem::tick`] over a struct-of-arrays snapshot — the
    /// form the simulation hot loop feeds. The visibility sweep reads the
    /// contiguous position/heading/dims columns directly and the
    /// occlusion sweep tests prebuilt blocker footprints
    /// ([`occluded_against`]); the observed set, the world-model
    /// ingestion and the report are arithmetic-identical to the AoS
    /// [`PerceptionSystem::tick`] on the equivalent [`Scene`].
    ///
    /// [`occluded_against`]: crate::occlusion::occluded_against
    pub fn tick_columns(&mut self, columns: &SceneColumns) -> &TickReport {
        let now = columns.time;
        if !self.sample_frames(now) {
            self.world.prune(now);
            return &self.report;
        }
        let mut observed = std::mem::take(&mut self.observed_scratch);
        let mut blockers = std::mem::take(&mut self.blocker_scratch);
        let mut blockers_ready = false;
        let cameras = self.rig.cameras();
        let ego = &columns.ego.state;
        let (positions, headings, dims) = (columns.positions(), columns.headings(), columns.dims());
        for i in 0..columns.len() {
            // Visibility is an `any` over (frame camera × reference point)
            // pairs of a pure predicate, so it can be evaluated
            // point-major: the center's distance and world bearing (the
            // `atan2`) are computed once and shared across the rig, and
            // the corner expansion runs at most once per actor instead of
            // once per camera. Same pairs, same per-pair arithmetic, same
            // answer as the camera-major `sees_body` sweep.
            let rel = positions[i] - ego.position;
            let d2 = rel.norm_sq();
            let circ = dims[i].circumradius();
            let mut world_bearing = None;
            let mut any_reach = false;
            let mut seen = false;
            for cam_id in &self.report.frames {
                let cam = &cameras[cam_id.0];
                if !cam.reaches_body_sq(d2, circ) {
                    continue;
                }
                any_reach = true;
                if cam.in_range_sq(d2) {
                    if d2 < 1e-18 {
                        seen = true;
                        break;
                    }
                    let bearing = *world_bearing.get_or_insert_with(|| rel.heading());
                    if cam.sees_bearing(ego.heading, bearing) {
                        seen = true;
                        break;
                    }
                }
            }
            if !seen && any_reach {
                let corners =
                    OrientedRect::new(positions[i], headings[i], dims[i].length, dims[i].width)
                        .corners();
                'corners: for corner in corners {
                    let crel = corner - ego.position;
                    let cd2 = crel.norm_sq();
                    let mut corner_bearing = None;
                    for cam_id in &self.report.frames {
                        let cam = &cameras[cam_id.0];
                        if !cam.reaches_body_sq(d2, circ) || !cam.in_range_sq(cd2) {
                            continue;
                        }
                        if cd2 < 1e-18 {
                            seen = true;
                            break 'corners;
                        }
                        let bearing = *corner_bearing.get_or_insert_with(|| crel.heading());
                        if cam.sees_bearing(ego.heading, bearing) {
                            seen = true;
                            break 'corners;
                        }
                    }
                }
            }
            if !seen {
                continue;
            }
            // The 20%-shrunken blocker rects are shared by every target
            // this tick; build them on the first test.
            if !blockers_ready {
                fill_shrunken_footprints(columns, &mut blockers);
                blockers_ready = true;
            }
            if !occluded_against(ego.position, i, columns, &blockers) {
                observed.push(columns.actor(i));
            }
        }
        self.world.observe(now, &observed);
        self.report.observed.extend(observed.iter().map(|a| a.id));
        observed.clear();
        self.observed_scratch = observed;
        self.blocker_scratch = blockers;
        &self.report
    }

    /// `true` when no sampler can fire at `now`: the tick is *idle* for
    /// this system — [`PerceptionSystem::tick_columns`] would touch
    /// neither samplers, droppers nor observations, only clear the
    /// report and prune the world model. Callers that build the
    /// ground-truth snapshot solely to feed perception may consult this
    /// first and call [`PerceptionSystem::idle_tick`] instead, skipping
    /// the snapshot entirely. (`sample_frames` fires iff
    /// `now + 1e-12 >= next_due`, so this predicate is exact, not a
    /// heuristic.)
    #[inline]
    pub fn frame_idle(&self, now: Seconds) -> bool {
        now.value() + 1e-12 < self.next_frame_due.value()
    }

    /// Advances one tick known to be idle ([`PerceptionSystem::frame_idle`]):
    /// bitwise identical to [`PerceptionSystem::tick_columns`] on such a
    /// tick — clear the report, prune the world model — without needing
    /// a snapshot to be built at all.
    ///
    /// # Panics
    ///
    /// Debug builds assert the tick really is idle; calling this on a
    /// frame tick would silently skip the samplers.
    pub fn idle_tick(&mut self, now: Seconds) -> &TickReport {
        debug_assert!(
            self.frame_idle(now),
            "idle_tick called on a frame tick at {now}"
        );
        self.report.clear();
        self.world.prune(now);
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ego() -> Agent {
        Agent::new(
            ActorId::EGO,
            ActorKind::Vehicle,
            Dimensions::CAR,
            VehicleState::at_rest(Vec2::ZERO, Radians(0.0)),
        )
    }

    fn front_actor(x: f64) -> Agent {
        Agent::new(
            ActorId(1),
            ActorKind::Vehicle,
            Dimensions::CAR,
            VehicleState::at_rest(Vec2::new(x, 0.0), Radians(0.0)),
        )
    }

    fn system(fpr: f64, k: u32) -> PerceptionSystem {
        PerceptionSystem::new(
            CameraRig::drive_av(),
            RatePlan::Uniform(Fpr(fpr)),
            TrackerConfig {
                confirmation_frames: k,
                drop_after: Seconds(1.0),
            },
        )
        .expect("valid uniform plan")
    }

    #[test]
    fn confirmation_latency_scales_with_rate() {
        // At 10 FPR with K = 5, a newly appearing actor confirms after
        // ~0.4-0.5 s (5 frames, 100 ms apart).
        let mut sys = system(10.0, 5);
        let mut confirmed_at = None;
        for i in 0..200 {
            let t = i as f64 * 0.01;
            let scene = Scene::new(Seconds(t), ego(), vec![front_actor(40.0)]);
            sys.tick(&scene);
            if confirmed_at.is_none() && !sys.world().confirmed_agents(Seconds(t)).is_empty() {
                confirmed_at = Some(t);
            }
        }
        let t = confirmed_at.expect("actor eventually confirmed");
        assert!((0.35..=0.55).contains(&t), "confirmed at {t}");
    }

    #[test]
    fn higher_rate_confirms_faster() {
        for (fpr, bound) in [(30.0, 0.20), (5.0, 1.1)] {
            let mut sys = system(fpr, 5);
            let mut confirmed_at = None;
            for i in 0..400 {
                let t = i as f64 * 0.01;
                let scene = Scene::new(Seconds(t), ego(), vec![front_actor(40.0)]);
                sys.tick(&scene);
                if confirmed_at.is_none() && !sys.world().confirmed_agents(Seconds(t)).is_empty() {
                    confirmed_at = Some(t);
                    break;
                }
            }
            let t = confirmed_at.expect("confirmed");
            assert!(
                t <= bound,
                "{fpr} FPR confirmed at {t}, expected <= {bound}"
            );
        }
    }

    #[test]
    fn per_camera_plan_validated() {
        let err = PerceptionSystem::new(
            CameraRig::drive_av(),
            RatePlan::PerCamera(vec![Fpr(30.0); 3]),
            TrackerConfig::default(),
        )
        .expect_err("3 rates for 5 cameras");
        assert!(matches!(
            err,
            PerceptionError::RatePlanMismatch {
                cameras: 5,
                rates: 3
            }
        ));
        let err2 = PerceptionSystem::new(
            CameraRig::drive_av(),
            RatePlan::Uniform(Fpr(0.0)),
            TrackerConfig::default(),
        )
        .expect_err("zero rate");
        assert!(matches!(err2, PerceptionError::InvalidRate(_)));
    }

    #[test]
    fn set_rate_round_trips() {
        let mut sys = system(30.0, 5);
        sys.set_rate(CameraId(2), Fpr(5.0)).expect("camera exists");
        assert_eq!(sys.rate(CameraId(2)), Some(Fpr(5.0)));
        assert!(sys.set_rate(CameraId(99), Fpr(5.0)).is_err());
        assert!(sys.set_rate(CameraId(0), Fpr(-1.0)).is_err());
        assert_eq!(sys.rates().len(), 5);
    }

    #[test]
    fn actor_behind_is_seen_by_rear_camera_only_tick() {
        let mut sys = system(30.0, 1);
        let rear_actor = Agent::new(
            ActorId(7),
            ActorKind::Vehicle,
            Dimensions::CAR,
            VehicleState::at_rest(Vec2::new(-30.0, 0.0), Radians(0.0)),
        );
        let scene = Scene::new(Seconds(0.0), ego(), vec![rear_actor]);
        let report = sys.tick(&scene);
        assert!(report.observed.contains(&ActorId(7)));
    }

    #[test]
    fn columns_tick_matches_scene_tick() {
        // The SoA fast path must produce the identical report and the
        // identical world model as the AoS path, tick for tick — including
        // occlusion (the rear actor hides behind the front one until the
        // front one drifts aside).
        let mut aos = system(10.0, 3);
        let mut soa = aos.clone();
        for i in 0..150 {
            let t = i as f64 * 0.01;
            let drift = 0.03 * i as f64;
            let blocker = Agent::new(
                ActorId(1),
                ActorKind::Vehicle,
                Dimensions::CAR,
                VehicleState::at_rest(Vec2::new(30.0, drift), Radians(0.0)),
            );
            let hidden = Agent::new(
                ActorId(2),
                ActorKind::StaticObstacle,
                Dimensions::OBSTACLE,
                VehicleState::at_rest(Vec2::new(70.0, 0.0), Radians(0.0)),
            );
            let side = Agent::new(
                ActorId(3),
                ActorKind::Vehicle,
                Dimensions::CAR,
                VehicleState::at_rest(Vec2::new(10.0, 20.0), Radians(0.3)),
            );
            let scene = Scene::new(Seconds(t), ego(), vec![blocker, hidden, side]);
            let columns = SceneColumns::from_scene(&scene);
            let from_scene = aos.tick(&scene).clone();
            let from_columns = soa.tick_columns(&columns);
            assert_eq!(&from_scene, from_columns, "tick {i}: reports diverged");
            assert_eq!(aos, soa, "tick {i}: perception state diverged");
        }
        assert_eq!(aos.world().len(), soa.world().len());
        assert!(!aos.world().is_empty(), "nothing was ever tracked");
    }

    #[test]
    fn out_of_range_actor_never_tracked() {
        let mut sys = system(30.0, 1);
        for i in 0..50 {
            let t = i as f64 * 0.01;
            let scene = Scene::new(Seconds(t), ego(), vec![front_actor(400.0)]);
            sys.tick(&scene);
        }
        // 400 m ahead: beyond front-wide range (150 m) but within
        // front-narrow's 250 m? No: 400 > 250, invisible to all.
        assert!(sys.world().is_empty());
    }
}
