//! Rate-batched lockstep simulation: N lanes of one scenario, one tick
//! loop.
//!
//! The minimum-safe-FPR search re-simulates the *same* scenario instance
//! once per candidate perception rate. [`Simulation::run_batched`]
//! advances every candidate — one **lane** per rate — through a single
//! lockstep tick loop over the shared scenario, so that everything the
//! rate cannot touch is computed once per tick instead of once per lane:
//!
//! - **Shared**: the road, the actor scripts, and — while an actor's
//!   behavior provably never reads the ego observation
//!   ([`ScriptedActor::step_consults_ego`]) — the actor's integration and
//!   its per-tick pose projection. Scripted actors *do* react to the ego
//!   in general (gap triggers, `MatchEgoSpeed`), and each lane's ego
//!   diverges as soon as its perception latency changes a plan, so an
//!   actor is **forked** into per-lane copies at the first tick where its
//!   step could consult the ego; before that, one shared step is bitwise
//!   identical for every lane.
//! - **Per lane (forked)**: the frame samplers and droppers (the rate
//!   itself), the world-model tracks, the perceived-agent coast, the ego
//!   policy/plan/integration, the collision check against the lane's own
//!   ego, and the observer fold.
//!
//! Results are **bit-identical** to running each lane through
//! [`Simulation::run_with`] on its own: the per-lane tick replays the
//! engine's exact phase order (snapshot → observer → collision →
//! perception → plan → integrate → actor steps) with the same arithmetic,
//! and sharing only ever deduplicates computations whose inputs are
//! bitwise equal across lanes. The equivalence suites in `av-scenarios`
//! and `zhuyi-fleet` pin this across the scenario catalog.
//!
//! # Lane retirement
//!
//! A lane leaves the loop early when its outcome is decided:
//!
//! - **Collision** — the engine stops a run at the first collision
//!   (`stop_on_collision`), so a collided lane retires exactly where its
//!   standalone run would have ended.
//! - **Certified-safe suffix** (verdict-only runs,
//!   [`Simulation::run_batched_verdicts`]) — when a conservative
//!   closed-loop certificate ([`cert`]) proves no collision can occur in
//!   the remainder of the run, the lane retires with a `Finished`
//!   verdict. Certificates never fire for metrics-folding runs, whose
//!   observers need every remaining tick.
//!
//! Retirement is where the batched mode's throughput comes from: across
//! the Table-1 catalog roughly half of all simulated ticks lie in
//! suffixes whose outcome is already decided (an ego parked behind the
//! revealed obstacle, a steady IDM car-following equilibrium, actors
//! separated into other lanes for good).

use crate::engine::{Simulation, StepOutcome};
use crate::observer::{NullObserver, SimObserver};
use crate::policy::EgoVehicle;
use crate::road::Road;
use crate::script::{Action, EgoObservation, ScriptedActor, SpeedModeView, Trigger};
use crate::trace::SimEvent;
use av_core::geometry::OrientedRect;
use av_core::prelude::*;
use av_core::scene::{Scene, SceneColumns};
use av_perception::system::PerceptionSystem;

pub mod cert;

/// Everything a lane forks from its siblings at construction: the ego
/// (identical spawn state across lanes) and the perception system (the
/// rate axis itself).
#[derive(Debug, Clone)]
pub struct LaneSpec {
    /// The lane's ego vehicle, freshly spawned.
    pub ego: EgoVehicle,
    /// The lane's perception system, configured at the candidate rate.
    pub perception: PerceptionSystem,
}

/// Per-lane simulation state inside a [`BatchSim`].
#[derive(Debug)]
struct Lane {
    ego: EgoVehicle,
    perception: PerceptionSystem,
    /// Per-lane struct-of-arrays snapshot (the lane's ego differs, and
    /// forked actors differ, so each lane rebuilds its own columns).
    scratch: SceneColumns,
    scratch_aos: Scene,
    perceived: Vec<Agent>,
    hints: Vec<ProjectionHint>,
    ego_pose_hint: ProjectionHint,
    /// Pose hints for forked actors, indexed like the actor vector.
    fork_hints: Vec<ProjectionHint>,
    /// Per-lane actor copies; `None` while the actor is globally shared.
    forks: Vec<Option<ScriptedActor>>,
    ego_circumradius: f64,
    /// `StepOutcome::Running` while live; the final outcome once retired.
    outcome: StepOutcome,
    /// Ego observation captured this tick (pre-integration), consumed by
    /// the forked-actor steps at the tick's end.
    pending_obs: EgoObservation,
    /// Next tick at which to attempt a retirement certificate.
    next_cert_tick: u64,
    /// Current certificate retry backoff, in ticks.
    cert_backoff: u64,
}

/// A lockstep batched run over one scenario instance.
///
/// Use [`Simulation::run_batched`] / [`Simulation::run_batched_verdicts`]
/// for the one-call form; this type exposes the tick-stepped form so
/// tests (e.g. the counting-allocator suite) can drive and observe the
/// loop tick by tick.
#[allow(missing_debug_implementations)] // observers are unsized trait objects
pub struct BatchSim<'sim, 'obs> {
    sim: &'sim mut Simulation,
    lanes: Vec<Lane>,
    observers: Vec<&'obs mut dyn SimObserver>,
    /// Global per-actor fork flags: forking happens for every lane at the
    /// same tick (eligibility is a function of the still-shared state).
    forked: Vec<bool>,
    /// Shared actor poses for the current tick (garbage at forked slots).
    shared_agents: Vec<Agent>,
    /// Pose hints for the shared actors.
    shared_hints: Vec<ProjectionHint>,
    /// Shared actor Frenet stations for the idle fast path, rebuilt each
    /// tick (garbage at forked slots — the prefilter reads the fork).
    actor_s: Vec<f64>,
    /// Shared actor lateral offsets, indexed like `actor_s`.
    actor_d: Vec<f64>,
    /// Whether certificates may retire lanes (verdict-only runs).
    certify: bool,
    /// Memoized `road.path().max_abs_curvature()`.
    curvature: f64,
    tick: u64,
    live: usize,
    /// Reused classification scratch for certificate attempts.
    classes: Vec<cert::Class>,
    stats: BatchStats,
}

/// Cost accounting of one batched run, for benchmarks and logs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Lanes that ended in a collision.
    pub collided_lanes: usize,
    /// Lanes retired early by a safe-suffix certificate.
    pub certified_lanes: usize,
    /// Per-lane ticks actually simulated (sum over lanes).
    pub lane_ticks: u64,
    /// Per-lane ticks skipped by certificate retirement (sum over lanes).
    pub ticks_retired: u64,
    /// Per-lane ticks that took the verdict-only idle fast path (no
    /// snapshot rebuild, Frenet-space collision prefilter).
    pub idle_lane_ticks: u64,
    /// Idle fast-path ticks whose Frenet prefilter could not prove
    /// separation, forcing the exact world-frame collision check.
    pub prefilter_fallbacks: u64,
    /// Safe-suffix certificate attempts.
    pub cert_attempts: u64,
    /// Certificate attempts that declined (the lane kept simulating).
    pub cert_declines: u64,
}

impl BatchStats {
    /// Folds another run's accounting into this one (multi-run sweeps).
    pub fn merge(&mut self, other: &BatchStats) {
        self.collided_lanes += other.collided_lanes;
        self.certified_lanes += other.certified_lanes;
        self.lane_ticks += other.lane_ticks;
        self.ticks_retired += other.ticks_retired;
        self.idle_lane_ticks += other.idle_lane_ticks;
        self.prefilter_fallbacks += other.prefilter_fallbacks;
        self.cert_attempts += other.cert_attempts;
        self.cert_declines += other.cert_declines;
    }

    /// Folds this accounting into the installed telemetry registry (a
    /// no-op without one), unifying batch cost accounting with the
    /// `zhuyi-telemetry` export schema. Called once per batched run by
    /// [`BatchSim::finish_with_stats`]; every field maps to a
    /// deterministic `batch_*` counter.
    pub fn fold_into_telemetry(&self) {
        use zhuyi_telemetry::Counter;
        zhuyi_telemetry::with(|t| {
            t.add(Counter::BatchCollidedLanes, self.collided_lanes as u64);
            t.add(Counter::BatchCertifiedLanes, self.certified_lanes as u64);
            t.add(Counter::BatchLaneTicks, self.lane_ticks);
            t.add(Counter::BatchTicksRetired, self.ticks_retired);
            t.add(Counter::BatchIdleLaneTicks, self.idle_lane_ticks);
            t.add(Counter::BatchPrefilterFallbacks, self.prefilter_fallbacks);
            t.add(Counter::BatchCertAttempts, self.cert_attempts);
            t.add(Counter::BatchCertDeclines, self.cert_declines);
        });
    }
}

/// Extra slack (m) the idle-tick Frenet-space circumcircle prefilter
/// adds on top of the footprint radii before it may *skip* the exact
/// world-frame collision check.
///
/// Why it holds: on an exactly straight reference line (every segment
/// heading bitwise equal) the (s, d) chart is an isometry. Both the ego
/// and an actor are placed by `frame_at(s) + left·d`, so in exact
/// arithmetic their world-frame center offset is `u·Δs + n·Δd`, with
/// `u` the road's unit tangent and `n` its left normal, and its length
/// is `√(Δs² + Δd²)`. Each pose coordinate takes a few roundings of
/// values no larger than the coordinates themselves, so the computed
/// world and Frenet distances differ by floating-point noise alone
/// (≲ 1e-9 m at catalog coordinates). A full meter of slack makes the
/// skip decision robust by six orders of magnitude while still
/// filtering out essentially every far-apart pair. Pairs inside the
/// slack go on to [`FRENET_AXIS_SLACK`]'s test and else to the
/// engine-identical world-frame check, so outcomes stay bitwise equal
/// either way.
const FRENET_PREFILTER_SLACK: f64 = 1.0;

/// Extra reach (m) the idle-tick prefilter adds to the actor's
/// circumradius when it evaluates [`collision_check_lean`]'s ego-axis
/// early-out ([`separated_on_ego_axes`]) on the Frenet offsets
/// (Δs, Δd) rather than on the world-frame offset's projections onto
/// the ego's axes.
///
/// Why it holds: the argument of [`FRENET_PREFILTER_SLACK`]. On an
/// exactly straight road the ego's heading is the road's, so its axes
/// are `u` and `n` up to a rounding of the tangent, and the world-frame
/// projections the lean check computes equal Δs and ±Δd up to the same
/// floating-point noise (≲ 1e-9 m). A pair whose Frenet offsets clear
/// the early-out's bounds by this slack therefore clears them in the
/// world frame too: the lean check would skip it at its early-out, so
/// skipping it here changes no verdict. 0.1 m is robust by eight orders
/// of magnitude and still settles a car riding alongside in the next
/// lane: there |Δd| = 3.7 m, against half the ego's width plus the
/// car's circumradius, 0.9 + 2.42 m, plus this slack.
const FRENET_AXIS_SLACK: f64 = 0.1;

impl<'sim, 'obs> BatchSim<'sim, 'obs> {
    /// Builds a batched run over `sim`'s scenario. Shared actors are
    /// rewound to their spawn state; each lane starts from its spec's
    /// fresh ego and perception. When `certify` is set, lanes may retire
    /// through the conservative safe-suffix certificates — callers must
    /// only set it when observers ignore the stream (verdict-only runs).
    ///
    /// # Panics
    ///
    /// Panics when `specs` and `observers` disagree in length, or when
    /// the simulation is not configured to stop on collision (batched
    /// lanes retire at the first collision, like the engine does).
    fn new(
        sim: &'sim mut Simulation,
        specs: Vec<LaneSpec>,
        observers: Vec<&'obs mut dyn SimObserver>,
        certify: bool,
    ) -> Self {
        assert_eq!(
            specs.len(),
            observers.len(),
            "one observer per batched lane"
        );
        assert!(
            sim.config.stop_on_collision,
            "batched runs require stop_on_collision (lanes retire at the first collision)"
        );
        let actor_count = sim.actors.len();
        for actor in &mut sim.actors {
            actor.reset(&sim.road);
        }
        let finished = sim.total_ticks == 0;
        let curvature = sim.road.path().max_abs_curvature();
        let lanes: Vec<Lane> = specs
            .into_iter()
            .map(|spec| {
                let ego_agent = spec.ego.to_agent(&sim.road);
                Lane {
                    ego_circumradius: spec.ego.dims().circumradius(),
                    scratch: SceneColumns::new(Seconds::ZERO, ego_agent),
                    scratch_aos: Scene::new(
                        Seconds::ZERO,
                        ego_agent,
                        Vec::with_capacity(actor_count),
                    ),
                    perceived: Vec::new(),
                    hints: Vec::new(),
                    ego_pose_hint: ProjectionHint::default(),
                    fork_hints: vec![ProjectionHint::default(); actor_count],
                    forks: vec![None; actor_count],
                    outcome: if finished {
                        StepOutcome::Finished
                    } else {
                        StepOutcome::Running
                    },
                    pending_obs: EgoObservation {
                        s: spec.ego.s(),
                        speed: spec.ego.speed(),
                        half_length: Meters(spec.ego.dims().length.value() / 2.0),
                    },
                    next_cert_tick: cert::FIRST_ATTEMPT_TICK,
                    cert_backoff: cert::RETRY_BACKOFF_TICKS,
                    ego: spec.ego,
                    perception: spec.perception,
                }
            })
            .collect();
        let live = if finished { 0 } else { lanes.len() };
        Self {
            sim,
            live,
            lanes,
            observers,
            forked: vec![false; actor_count],
            shared_agents: Vec::with_capacity(actor_count),
            shared_hints: vec![ProjectionHint::default(); actor_count],
            actor_s: Vec::with_capacity(actor_count),
            actor_d: Vec::with_capacity(actor_count),
            certify,
            curvature,
            tick: 0,
            classes: Vec::with_capacity(actor_count),
            stats: BatchStats::default(),
        }
    }

    /// Cost accounting so far (final after [`BatchSim::finish`] — read it
    /// through [`Simulation::run_batched_verdicts_with_stats`]).
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Number of lanes still running.
    pub fn live_lanes(&self) -> usize {
        self.live
    }

    /// Completed lockstep ticks.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Advances every live lane by one tick. Returns `false` once no lane
    /// is live (the batch is done).
    pub fn step_all(&mut self) -> bool {
        if self.live == 0 {
            return false;
        }
        self.stats.lane_ticks += self.live as u64;
        let time = Seconds(self.tick as f64 * self.sim.config.dt.value());
        let dt = self.sim.config.dt;
        // Tick-phase profiling, mirroring the engine's hooks: one
        // thread-local lookup per lockstep tick, branch-on-disabled laps.
        let mut phases = zhuyi_telemetry::PhaseTimer::start();

        // Verdict-only runs take the *idle fast path* on ticks where a
        // lane's perception cannot fire a frame and no certificate
        // attempt is due: the per-lane snapshot rebuild (world-frame
        // columns of the ego and every actor) exists only to feed the
        // observer, the perception frame and the certificate — with a
        // null observer, a guaranteed-idle perception tick and no
        // certificate due, only the collision check remains, and that
        // check reads world poses directly ([`collision_check_lean`])
        // instead of materializing the snapshot. On an exactly straight
        // road a Frenet-space prefilter over the raw (s, d) state
        // ([`frenet_near`]) settles the far-apart and the side-by-side
        // cases without any world-frame math at all; on curved roads
        // every idle tick runs the lean check. Either way the check is
        // input-for-input the engine's, so outcomes are bitwise
        // unchanged.
        let fast = self.certify;
        let straight = self.curvature == 0.0;
        let mut shared_ready = false;

        // Phase 1 — shared actor poses, one projection per actor per tick
        // regardless of lane count. (Forked actors are projected per lane
        // in phase 2: their states differ.) The fast path defers the
        // projections until some lane actually needs world-frame poses
        // this tick; on straight roads it instead fills the shared Frenet
        // columns the prefilter sweeps.
        if fast {
            if straight {
                self.actor_s.clear();
                self.actor_d.clear();
                for (i, actor) in self.sim.actors.iter().enumerate() {
                    // Garbage at forked slots: the prefilter reads the fork.
                    self.actor_s.push(if self.forked[i] {
                        0.0
                    } else {
                        actor.s().value()
                    });
                    self.actor_d.push(if self.forked[i] {
                        0.0
                    } else {
                        actor.d().value()
                    });
                }
            }
        } else {
            // Placeholder at forked slots, never read (phase 2 checks the
            // fork flag).
            let placeholder = self.lanes[0].scratch.ego;
            fill_shared_agents(
                self.sim,
                &self.forked,
                &mut self.shared_hints,
                &mut self.shared_agents,
                placeholder,
            );
            shared_ready = true;
        }
        phases.lap(zhuyi_telemetry::Phase::Actors);

        // Phase 2 — per-lane engine tick, replaying `Simulation::step_with`
        // phase for phase on the lane's own state.
        let next_tick = self.tick + 1;
        for (lane, observer) in self.lanes.iter_mut().zip(self.observers.iter_mut()) {
            if lane.outcome != StepOutcome::Running {
                continue;
            }
            // A certificate attempt (phase 5, after the tick increment)
            // reads this lane's snapshot, so the attempt tick must build
            // it even when perception idles.
            let cert_due = self.certify
                && next_tick < self.sim.total_ticks
                && next_tick >= lane.next_cert_tick;
            let idle = fast && !cert_due && lane.perception.frame_idle(time);

            let collided = if idle {
                self.stats.idle_lane_ticks += 1;
                // Frenet-space prefilter sweep over the shared columns
                // (straight roads only — curved Frenet distances don't
                // bound world distances, so every curved idle tick takes
                // the lean world-frame check).
                let near = if straight {
                    let e_s = lane.ego.s().value();
                    let e_d = lane.ego.d().value();
                    (0..self.sim.actor_circumradii.len()).any(|i| {
                        let (a_s, a_d) = match &lane.forks[i] {
                            Some(fork) => (fork.s().value(), fork.d().value()),
                            None => (self.actor_s[i], self.actor_d[i]),
                        };
                        frenet_near(
                            a_s - e_s,
                            a_d - e_d,
                            lane.ego.dims(),
                            lane.ego_circumradius,
                            self.sim.actor_circumradii[i],
                        )
                    })
                } else {
                    true
                };
                if near {
                    if straight {
                        self.stats.prefilter_fallbacks += 1;
                    }
                    if !shared_ready {
                        fill_shared_agents(
                            self.sim,
                            &self.forked,
                            &mut self.shared_hints,
                            &mut self.shared_agents,
                            lane.scratch.ego,
                        );
                        shared_ready = true;
                    }
                    collision_check_lean(lane, self.sim, &self.shared_agents, &mut **observer, time)
                } else {
                    false
                }
            } else {
                if !shared_ready {
                    fill_shared_agents(
                        self.sim,
                        &self.forked,
                        &mut self.shared_hints,
                        &mut self.shared_agents,
                        lane.scratch.ego,
                    );
                    shared_ready = true;
                }
                rebuild_snapshot(lane, self.sim, &self.shared_agents, time);
                observer.on_scene_columns(&lane.scratch, &mut lane.scratch_aos);
                collision_check(lane, self.sim, &mut **observer, time)
            };
            phases.lap(zhuyi_telemetry::Phase::Collision);
            if collided {
                lane.outcome = StepOutcome::Collided;
                self.live -= 1;
                self.stats.collided_lanes += 1;
                continue;
            }

            // Perception, perceived-world coast, plan, integrate. On the
            // idle path the perception tick is, bitwise, what
            // `tick_columns` does on a frameless tick — without the
            // snapshot it would not have read anyway.
            if idle {
                lane.perception.idle_tick(time);
            } else {
                lane.perception.tick_columns(&lane.scratch);
            }
            phases.lap(zhuyi_telemetry::Phase::Perception);
            lane.perception
                .world()
                .coast_into(&mut lane.perceived, time);
            phases.lap(zhuyi_telemetry::Phase::Prediction);
            lane.hints
                .resize(lane.perceived.len(), ProjectionHint::default());
            let command =
                lane.ego
                    .plan_with_hints(&lane.perceived, &self.sim.road, &mut lane.hints);
            lane.pending_obs = EgoObservation {
                s: lane.ego.s(),
                speed: lane.ego.speed(),
                half_length: Meters(lane.ego.dims().length.value() / 2.0),
            };
            lane.ego.integrate(command, dt);
            phases.lap(zhuyi_telemetry::Phase::Policy);
        }

        // Phase 3 — actor integration, in actor order (event order must
        // match the engine's). A shared actor is forked for every lane at
        // the first tick where its step could actually *read diverged*
        // ego state: an armed ego-coupled trigger only forces the fork
        // when the lanes' egos disagree on its decision this tick (the
        // firing predicate is re-evaluated per lane through the same code
        // path the step uses, so an all-lanes-equal decision makes one
        // shared step exact for everyone). Ego-speed *tracking* always
        // forks: it reads the ego continuously.
        for i in 0..self.sim.actors.len() {
            if !self.forked[i] && self.must_fork(i, time) {
                self.forked[i] = true;
                for lane in &mut self.lanes {
                    if lane.outcome == StepOutcome::Running {
                        lane.forks[i] = Some(self.sim.actors[i].clone());
                    }
                }
            }
            if self.forked[i] {
                for (lane, observer) in self.lanes.iter_mut().zip(self.observers.iter_mut()) {
                    if lane.outcome != StepOutcome::Running {
                        continue;
                    }
                    let fork = lane.forks[i].as_mut().expect("forked lanes hold copies");
                    if let Some(description) =
                        fork.step(time, dt, &lane.pending_obs, &self.sim.road)
                    {
                        observer.on_event(&SimEvent::Maneuver { time, description });
                    }
                }
            } else {
                // The shared step must not read the observation — pinned
                // by the eligibility check above; any live lane's works.
                let obs = self
                    .lanes
                    .iter()
                    .find(|l| l.outcome == StepOutcome::Running)
                    .map(|l| l.pending_obs);
                let Some(obs) = obs else { break };
                if let Some(description) = self.sim.actors[i].step(time, dt, &obs, &self.sim.road) {
                    let event = SimEvent::Maneuver { time, description };
                    for (lane, observer) in self.lanes.iter_mut().zip(self.observers.iter_mut()) {
                        if lane.outcome == StepOutcome::Running {
                            observer.on_event(&event);
                        }
                    }
                }
            }
        }
        phases.lap(zhuyi_telemetry::Phase::Actors);

        // Phase 4 — tick accounting and end-of-run retirement.
        self.tick += 1;
        if self.tick >= self.sim.total_ticks {
            for lane in &mut self.lanes {
                if lane.outcome == StepOutcome::Running {
                    lane.outcome = StepOutcome::Finished;
                    self.live -= 1;
                }
            }
            return false;
        }

        // Phase 5 — certified-safe retirement attempts (verdict-only).
        if self.certify {
            phases.skip(); // tick accounting belongs to no phase
            for lane in &mut self.lanes {
                if lane.outcome != StepOutcome::Running || self.tick < lane.next_cert_tick {
                    continue;
                }
                self.stats.cert_attempts += 1;
                if cert::certifies_safe_suffix(
                    self.sim,
                    lane,
                    &self.forked,
                    self.tick,
                    self.curvature,
                    &mut self.classes,
                ) {
                    lane.outcome = StepOutcome::Finished;
                    self.live -= 1;
                    self.stats.certified_lanes += 1;
                    self.stats.ticks_retired += self.sim.total_ticks - self.tick;
                } else {
                    self.stats.cert_declines += 1;
                    lane.next_cert_tick = self.tick + lane.cert_backoff;
                    lane.cert_backoff = (lane.cert_backoff * 2).min(cert::MAX_BACKOFF_TICKS);
                }
            }
            phases.lap(zhuyi_telemetry::Phase::Certificate);
        }
        self.live > 0
    }

    /// Whether shared actor `i` must fork into per-lane copies before
    /// this tick's step (see the phase-3 comment in
    /// [`BatchSim::step_all`]).
    fn must_fork(&self, i: usize, time: Seconds) -> bool {
        let actor = &self.sim.actors[i];
        if !actor.step_consults_ego() {
            return false;
        }
        if matches!(actor.mode_view(), SpeedModeView::MatchEgo { .. }) {
            return true;
        }
        // Armed ego-coupled trigger: shared exactly when every live lane
        // decides it the same way this tick (and a unanimous *fire* of an
        // ego-tracking action still forks — the new mode reads the ego in
        // this very step).
        let mut decision: Option<bool> = None;
        for lane in &self.lanes {
            if lane.outcome != StepOutcome::Running {
                continue;
            }
            let met = actor
                .armed_trigger_met(time, &lane.pending_obs)
                .expect("step_consults_ego implies an armed maneuver");
            if *decision.get_or_insert(met) != met {
                return true;
            }
        }
        let fires = decision.unwrap_or(false);
        fires
            && matches!(
                actor.armed_maneuver().map(|m| m.action),
                Some(Action::MatchEgoSpeed { .. })
            )
    }

    /// Runs to completion and returns the per-lane outcomes, in lane
    /// order.
    pub fn finish(self) -> Vec<StepOutcome> {
        self.finish_with_stats().0
    }

    /// [`BatchSim::finish`] plus the run's cost accounting.
    pub fn finish_with_stats(mut self) -> (Vec<StepOutcome>, BatchStats) {
        while self.step_all() {}
        let stats = self.stats;
        stats.fold_into_telemetry();
        (
            self.lanes.into_iter().map(|lane| lane.outcome).collect(),
            stats,
        )
    }
}

/// Shared-actor world poses for one tick (phase 1): one projection per
/// unforked actor regardless of lane count. `placeholder` fills forked
/// slots and is never read — phase 2 consults the fork flag first.
fn fill_shared_agents(
    sim: &Simulation,
    forked: &[bool],
    shared_hints: &mut [ProjectionHint],
    shared_agents: &mut Vec<Agent>,
    placeholder: Agent,
) {
    shared_agents.clear();
    for (i, actor) in sim.actors.iter().enumerate() {
        shared_agents.push(if forked[i] {
            placeholder
        } else {
            actor.to_agent_hinted(&sim.road, &mut shared_hints[i])
        });
    }
}

/// Rebuilds `lane`'s snapshot columns at `time`, exactly as the engine
/// does: the lane's ego pose, then every actor — a forked actor projects
/// its own state, a shared one copies the phase-1 pose.
fn rebuild_snapshot(lane: &mut Lane, sim: &Simulation, shared_agents: &[Agent], time: Seconds) {
    lane.scratch.time = time;
    lane.scratch.ego = lane.ego.to_agent_hinted(&sim.road, &mut lane.ego_pose_hint);
    lane.scratch.clear_actors();
    for ((fork, hint), shared) in lane
        .forks
        .iter()
        .zip(lane.fork_hints.iter_mut())
        .zip(shared_agents)
    {
        let agent = match fork {
            Some(fork) => fork.to_agent_hinted(&sim.road, hint),
            None => *shared,
        };
        lane.scratch.push_actor(agent);
    }
}

/// Ground-truth collision check (circumcircle prefilter + SAT) over the
/// lane's freshly rebuilt snapshot, identical to the engine's. Returns
/// whether the lane collided this tick (the event is already streamed).
fn collision_check(
    lane: &Lane,
    sim: &Simulation,
    observer: &mut dyn SimObserver,
    time: Seconds,
) -> bool {
    let ego = &lane.scratch.ego;
    let positions = lane.scratch.positions();
    let mut ego_fp = None;
    for (i, (&position, r_actor)) in positions.iter().zip(&sim.actor_circumradii).enumerate() {
        let r_sum = lane.ego_circumradius + r_actor;
        if (position - ego.state.position).norm_sq() > r_sum * r_sum {
            continue;
        }
        let ego_fp = ego_fp.get_or_insert_with(|| ego.footprint());
        let dims = lane.scratch.dims()[i];
        let footprint = OrientedRect::new(
            position,
            lane.scratch.headings()[i],
            dims.length,
            dims.width,
        );
        if ego_fp.intersects(&footprint) {
            observer.on_event(&SimEvent::Collision {
                time,
                actor: lane.scratch.ids()[i],
            });
            return true;
        }
    }
    false
}

/// The idle-tick collision check: same inputs, same circumcircle + SAT
/// sequence, same event as [`collision_check`] — but fed straight from
/// the lane's ego pose and the phase-1 shared poses (forks project their
/// own state), without materializing the snapshot columns nobody else
/// reads this tick. Every value equals what [`rebuild_snapshot`] would
/// have written, so the verdict is bitwise the engine's.
fn collision_check_lean(
    lane: &mut Lane,
    sim: &Simulation,
    shared_agents: &[Agent],
    observer: &mut dyn SimObserver,
    time: Seconds,
) -> bool {
    let ego = lane.ego.to_agent_hinted(&sim.road, &mut lane.ego_pose_hint);
    let mut ego_axis = None;
    let mut ego_fp = None;
    for (((fork, hint), shared), &circumradius) in lane
        .forks
        .iter()
        .zip(lane.fork_hints.iter_mut())
        .zip(shared_agents)
        .zip(&sim.actor_circumradii)
    {
        let agent = match fork {
            Some(fork) => fork.to_agent_hinted(&sim.road, hint),
            None => *shared,
        };
        let r_sum = lane.ego_circumradius + circumradius;
        let delta = agent.state.position - ego.state.position;
        if delta.norm_sq() > r_sum * r_sum {
            continue;
        }
        // Separating-axis early-out on the ego's own axes, with the
        // actor's circumradius over-approximating its extent: separation
        // here implies the SAT below separates on its first axis pair, so
        // skipping it cannot change the verdict. This settles the common
        // close-following case (inside the circumcircle, separated along
        // the ego's length) with two dot products instead of the full
        // corner projections.
        let axis = *ego_axis.get_or_insert_with(|| Vec2::from_heading(ego.state.heading));
        if separated_on_ego_axes(
            delta.dot(axis),
            delta.cross(axis),
            ego.dims,
            circumradius + 1e-6,
        ) {
            continue;
        }
        let ego_fp = ego_fp.get_or_insert_with(|| ego.footprint());
        let footprint = OrientedRect::new(
            agent.state.position,
            agent.state.heading,
            agent.dims.length,
            agent.dims.width,
        );
        if ego_fp.intersects(&footprint) {
            observer.on_event(&SimEvent::Collision {
                time,
                actor: agent.id,
            });
            return true;
        }
    }
    false
}

/// [`collision_check_lean`]'s separating-axis early-out: an actor whose
/// center lies `along` the ego's heading and `across` it from the ego's
/// center, and whose footprint lies within `reach` of its own center,
/// is separated from the ego's footprint on one of the ego's axes.
fn separated_on_ego_axes(along: f64, across: f64, ego: Dimensions, reach: f64) -> bool {
    along.abs() > ego.length.value() / 2.0 + reach || across.abs() > ego.width.value() / 2.0 + reach
}

/// Whether the straight-road idle prefilter must hand an (ego, actor)
/// pair to [`collision_check_lean`]: `(ds, dd)` is the actor's Frenet
/// offset from the ego. A pair is settled (`false`) when its centers lie
/// farther apart than both circumradii plus [`FRENET_PREFILTER_SLACK`],
/// or when the lean check's ego-axis early-out, evaluated on `(ds, dd)`
/// with [`FRENET_AXIS_SLACK`], separates it. Either way the lean check
/// would skip the pair too.
fn frenet_near(
    ds: f64,
    dd: f64,
    ego: Dimensions,
    ego_circumradius: f64,
    actor_circumradius: f64,
) -> bool {
    let r = ego_circumradius + actor_circumradius + FRENET_PREFILTER_SLACK;
    ds * ds + dd * dd <= r * r
        && !separated_on_ego_axes(ds, dd, ego, actor_circumradius + 1e-6 + FRENET_AXIS_SLACK)
}

impl Simulation {
    /// Runs `specs.len()` lanes of this scenario in lockstep — one lane
    /// per candidate perception configuration — streaming each lane's
    /// ticks and events to its observer. Returns the per-lane outcomes.
    ///
    /// Each lane's stream and outcome are bit-identical to resetting this
    /// simulation to the lane's spec and calling
    /// [`Simulation::run_with`]; see the [module docs](self) for the
    /// sharing argument. Lanes retire at their first collision; no other
    /// early exit is taken, so metrics observers fold every tick exactly
    /// as in a standalone run.
    ///
    /// The simulation's shared actors are rewound before the run and left
    /// at their end-of-run state; [`Simulation::reset`] restores them, as
    /// after any run.
    ///
    /// # Panics
    ///
    /// Panics when `specs` and `observers` disagree in length, or when
    /// the engine is not configured to stop on collision.
    pub fn run_batched(
        &mut self,
        specs: Vec<LaneSpec>,
        observers: Vec<&mut dyn SimObserver>,
    ) -> Vec<StepOutcome> {
        BatchSim::new(self, specs, observers, false).finish()
    }

    /// [`Simulation::run_batched`] for verdict-only lanes: nothing is
    /// observed (every lane runs under a [`NullObserver`]), which allows
    /// the conservative safe-suffix certificates to retire lanes whose
    /// remaining ticks provably cannot produce a collision. The returned
    /// outcomes — `Collided` or `Finished` per lane — are identical to
    /// the per-lane [`Simulation::run_with`] outcomes.
    pub fn run_batched_verdicts(&mut self, specs: Vec<LaneSpec>) -> Vec<StepOutcome> {
        self.run_batched_verdicts_with_stats(specs).0
    }

    /// [`Simulation::run_batched_verdicts`] plus the run's cost
    /// accounting ([`BatchStats`]), for benchmarks and retirement logs.
    pub fn run_batched_verdicts_with_stats(
        &mut self,
        specs: Vec<LaneSpec>,
    ) -> (Vec<StepOutcome>, BatchStats) {
        let mut nulls: Vec<NullObserver> = vec![NullObserver; specs.len()];
        let observers: Vec<&mut dyn SimObserver> = nulls
            .iter_mut()
            .map(|n| n as &mut dyn SimObserver)
            .collect();
        BatchSim::new(self, specs, observers, true).finish_with_stats()
    }

    /// The tick-stepped form of [`Simulation::run_batched`], for tests
    /// that drive the lockstep loop manually (e.g. the counting-allocator
    /// suite asserting warm batched ticks stay allocation-free).
    pub fn batched<'sim, 'obs>(
        &'sim mut self,
        specs: Vec<LaneSpec>,
        observers: Vec<&'obs mut dyn SimObserver>,
    ) -> BatchSim<'sim, 'obs> {
        BatchSim::new(self, specs, observers, false)
    }

    /// The tick-stepped form of [`Simulation::run_batched_verdicts`]:
    /// certificates enabled, so callers must pass observers that ignore
    /// the stream (retired lanes stop producing ticks for them).
    pub fn batched_verdicts<'sim, 'obs>(
        &'sim mut self,
        specs: Vec<LaneSpec>,
        observers: Vec<&'obs mut dyn SimObserver>,
    ) -> BatchSim<'sim, 'obs> {
        BatchSim::new(self, specs, observers, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimulationConfig;
    use crate::observer::{MetricsObserver, TraceRecorder};
    use crate::policy::PolicyConfig;
    use crate::road::LaneId;
    use crate::script::{ActorScript, Placement, Trigger};
    use av_perception::rig::CameraRig;
    use av_perception::system::RatePlan;
    use av_perception::world_model::TrackerConfig;

    fn perception(fpr: f64) -> PerceptionSystem {
        PerceptionSystem::new(
            CameraRig::drive_av(),
            RatePlan::Uniform(Fpr(fpr)),
            TrackerConfig::default(),
        )
        .expect("valid plan")
    }

    fn ego(road: &Road, speed: f64) -> EgoVehicle {
        EgoVehicle::spawn(
            road,
            LaneId(1),
            Meters(50.0),
            PolicyConfig::cruise(MetersPerSecond(speed)),
        )
    }

    /// A scenario exercising every sharing path: an ego-coupled cutter
    /// (forks), a time-triggered braker (stays shared through its fire),
    /// a static obstacle and an adjacent cruiser (shared forever).
    fn scripts() -> Vec<ActorScript> {
        vec![
            ActorScript::cruising(
                ActorId(1),
                Placement {
                    lane: LaneId(0),
                    s: Meters(120.0),
                    speed: MetersPerSecond(18.0),
                },
            )
            .with_maneuver(
                Trigger::GapAheadOfEgo(Meters(40.0)),
                Action::ChangeLane {
                    target: LaneId(1),
                    duration: Seconds(2.0),
                },
            ),
            ActorScript::cruising(
                ActorId(2),
                Placement {
                    lane: LaneId(1),
                    s: Meters(220.0),
                    speed: MetersPerSecond(24.0),
                },
            )
            .with_maneuver(
                Trigger::AtTime(Seconds(4.0)),
                Action::HardBrake {
                    decel: MetersPerSecondSquared(5.0),
                },
            ),
            ActorScript::obstacle(ActorId(3), LaneId(1), Meters(700.0)),
            ActorScript::cruising(
                ActorId(4),
                Placement {
                    lane: LaneId(2),
                    s: Meters(40.0),
                    speed: MetersPerSecond(22.0),
                },
            ),
        ]
    }

    fn sim(duration: f64) -> Simulation {
        let road = Road::straight_three_lane(Meters(3000.0));
        let e = ego(&road, 24.0);
        Simulation::new(
            road,
            e,
            scripts(),
            perception(30.0),
            SimulationConfig {
                duration: Seconds(duration),
                ..Default::default()
            },
        )
    }

    const RATES: [f64; 4] = [1.0, 3.0, 8.0, 30.0];

    #[test]
    fn batched_traces_are_bitwise_identical_to_standalone_runs() {
        // Reference: each rate through its own standalone run.
        let mut reference = Vec::new();
        for &fpr in &RATES {
            let mut s = sim(8.0);
            let road = s.road().clone();
            s.reset(ego(&road, 24.0), perception(fpr));
            let mut recorder = TraceRecorder::new(Seconds(0.01));
            let outcome = s.run_with(&mut recorder);
            reference.push((outcome, recorder.into_trace()));
        }
        // Batched: all rates through one lockstep loop.
        let mut batch_sim = sim(8.0);
        let road = batch_sim.road().clone();
        let specs: Vec<LaneSpec> = RATES
            .iter()
            .map(|&fpr| LaneSpec {
                ego: ego(&road, 24.0),
                perception: perception(fpr),
            })
            .collect();
        let mut recorders: Vec<TraceRecorder> = RATES
            .iter()
            .map(|_| TraceRecorder::new(Seconds(0.01)))
            .collect();
        let observers: Vec<&mut dyn SimObserver> = recorders
            .iter_mut()
            .map(|r| r as &mut dyn SimObserver)
            .collect();
        let outcomes = batch_sim.run_batched(specs, observers);
        for (i, recorder) in recorders.into_iter().enumerate() {
            assert_eq!(outcomes[i], reference[i].0, "lane {i} outcome diverged");
            assert_eq!(
                recorder.into_trace(),
                reference[i].1,
                "lane {i} trace diverged from its standalone run"
            );
        }
    }

    #[test]
    fn batched_metrics_match_standalone_runs() {
        let mut reference = Vec::new();
        for &fpr in &RATES {
            let mut s = sim(6.0);
            let road = s.road().clone();
            s.reset(ego(&road, 24.0), perception(fpr));
            let mut metrics = MetricsObserver::new();
            s.run_with(&mut metrics);
            reference.push(metrics.summary());
        }
        let mut batch_sim = sim(6.0);
        let road = batch_sim.road().clone();
        let specs: Vec<LaneSpec> = RATES
            .iter()
            .map(|&fpr| LaneSpec {
                ego: ego(&road, 24.0),
                perception: perception(fpr),
            })
            .collect();
        let mut folds: Vec<MetricsObserver> =
            RATES.iter().map(|_| MetricsObserver::new()).collect();
        let observers: Vec<&mut dyn SimObserver> = folds
            .iter_mut()
            .map(|m| m as &mut dyn SimObserver)
            .collect();
        batch_sim.run_batched(specs, observers);
        for (i, fold) in folds.iter().enumerate() {
            assert_eq!(fold.summary(), reference[i], "lane {i} summary diverged");
        }
    }

    #[test]
    fn verdict_lanes_match_standalone_outcomes() {
        let mut batch_sim = sim(8.0);
        let road = batch_sim.road().clone();
        let specs: Vec<LaneSpec> = RATES
            .iter()
            .map(|&fpr| LaneSpec {
                ego: ego(&road, 24.0),
                perception: perception(fpr),
            })
            .collect();
        let verdicts = batch_sim.run_batched_verdicts(specs);
        for (i, &fpr) in RATES.iter().enumerate() {
            let mut s = sim(8.0);
            let road = s.road().clone();
            s.reset(ego(&road, 24.0), perception(fpr));
            let outcome = s.run_with(&mut NullObserver);
            assert_eq!(verdicts[i], outcome, "verdict diverged at {fpr} FPR");
        }
    }

    #[test]
    fn a_batched_run_leaves_the_simulation_resettable() {
        let mut s = sim(4.0);
        let road = s.road().clone();
        let specs = vec![LaneSpec {
            ego: ego(&road, 24.0),
            perception: perception(30.0),
        }];
        let mut null = NullObserver;
        let observers: Vec<&mut dyn SimObserver> = vec![&mut null];
        s.run_batched(specs, observers);
        // The engine path still works and matches a fresh build.
        s.reset(ego(&road, 24.0), perception(30.0));
        let mut metrics = MetricsObserver::new();
        s.run_with(&mut metrics);
        let mut fresh = sim(4.0);
        let road = fresh.road().clone();
        fresh.reset(ego(&road, 24.0), perception(30.0));
        let mut fresh_metrics = MetricsObserver::new();
        fresh.run_with(&mut fresh_metrics);
        assert_eq!(metrics.summary(), fresh_metrics.summary());
    }

    #[test]
    #[should_panic(expected = "one observer per batched lane")]
    fn lane_observer_arity_is_enforced() {
        let mut s = sim(1.0);
        let road = s.road().clone();
        let specs = vec![LaneSpec {
            ego: ego(&road, 24.0),
            perception: perception(30.0),
        }];
        s.run_batched(specs, Vec::new());
    }

    #[test]
    fn frenet_prefilter_settles_a_pair_only_where_the_lean_check_skips_it() {
        // Deterministic pseudo-random draws (LCG), no external RNG.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut unit = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 // in [0, 1)
        };
        let car = Dimensions::CAR;
        let car_r = car.circumradius();
        // The lean early-out's bounds for two cars.
        let along = car.length.value() / 2.0 + car_r + 1e-6;
        let across = car.width.value() / 2.0 + car_r + 1e-6;
        // (road, whether its next lane sits 3.7 m over): the catalog's
        // road; rotated roads far from the origin, where world and Frenet
        // offsets differ in their last bits; and rotated roads whose next
        // lane sits within a few rounding steps of `across`.
        let rotated = |origin: Vec2, heading: f64, lane_width: f64| {
            let path = Path::straight(origin, Radians(heading), Meters(3000.0));
            Road::new(path, 3, Meters(lane_width)).expect("valid road")
        };
        let mut roads = vec![(Road::straight_three_lane(Meters(3000.0)), true)];
        for k in 0..6 {
            let origin = Vec2::new(-41_234.5 + 9_000.0 * unit(), 17_020.25 - 30_000.0 * unit());
            roads.push((rotated(origin, 6.0 * unit() - 3.0, 3.7), true));
            let width = across + f64::from(k - 3) * 4e-12;
            roads.push((rotated(origin, 6.0 * unit() - 3.0, width), false));
        }
        let place = |lane: u32, s: f64| Placement {
            lane: LaneId(lane),
            s: Meters(s),
            speed: MetersPerSecond(20.0),
        };
        let (mut side_by_side, mut settled_inside, mut at_bound) = (0, 0, 0);
        for (road, next_lane_far) in &roads {
            for _ in 0..40 {
                let e_s = 200.0 + 2000.0 * unit();
                let cruise = PolicyConfig::cruise(MetersPerSecond(25.0));
                let ego = EgoVehicle::spawn(road, LaneId(1), Meters(e_s), cruise);
                // (actor, whether it rides alongside in the next lane)
                let mut actors = Vec::new();
                let spawn = |script| ScriptedActor::spawn(script, road);
                for lane in [0, 2] {
                    let s = e_s + 12.0 * (unit() - 0.5);
                    actors.push((
                        spawn(ActorScript::cruising(ActorId(1), place(lane, s))),
                        true,
                    ));
                }
                // Bumper to bumper, and within a few rounding steps of the
                // along bound, with and without the prefilter's slack.
                for sign in [-1.0, 1.0] {
                    let s = e_s + sign * (car.length.value() + 0.5 * unit() - 0.25);
                    actors.push((spawn(ActorScript::cruising(ActorId(1), place(1, s))), false));
                    for bound in [along, along + FRENET_AXIS_SLACK] {
                        for k in -8..=8 {
                            let s = e_s + sign * (bound + f64::from(k) * 4e-12);
                            let script = ActorScript::cruising(ActorId(1), place(1, s));
                            actors.push((spawn(script), false));
                        }
                    }
                }
                // Mid lane change from either neighbouring lane into the
                // ego's, a seeded number of ticks in.
                let obs = EgoObservation {
                    s: ego.s(),
                    speed: ego.speed(),
                    half_length: Meters(car.length.value() / 2.0),
                };
                for lane in [0, 2] {
                    let script =
                        ActorScript::cruising(ActorId(1), place(lane, e_s + 8.0 * (unit() - 0.5)))
                            .with_maneuver(
                                Trigger::Immediately,
                                Action::ChangeLane {
                                    target: LaneId(1),
                                    duration: Seconds(2.0),
                                },
                            );
                    let mut actor = spawn(script);
                    for tick in 0..(200.0 * unit()) as u32 {
                        let now = Seconds(f64::from(tick) * 0.01);
                        actor.step(now, Seconds(0.01), &obs, road);
                    }
                    actors.push((actor, false));
                }
                let ego_agent = ego.to_agent(road);
                let axis = Vec2::from_heading(ego_agent.state.heading);
                for (actor, alongside) in &actors {
                    let agent = actor.to_agent(road);
                    let (ds, dd) = ((actor.s() - ego.s()).value(), (actor.d() - ego.d()).value());
                    let near = frenet_near(ds, dd, ego.dims(), car_r, car_r);
                    if *alongside && *next_lane_far {
                        assert!(!near, "a car alongside in the next lane is settled");
                        side_by_side += 1;
                    }
                    if near {
                        continue;
                    }
                    // What `collision_check_lean` does with the pair.
                    let delta = agent.state.position - ego_agent.state.position;
                    let r_sum = car_r + car_r;
                    let outside = delta.norm_sq() > r_sum * r_sum;
                    let separated = separated_on_ego_axes(
                        delta.dot(axis),
                        delta.cross(axis),
                        ego_agent.dims,
                        car_r + 1e-6,
                    );
                    assert!(
                        outside || separated,
                        "settled (Δs {ds}, Δd {dd}), but the lean check reaches its SAT"
                    );
                    assert!(!ego_agent.footprint().intersects(&agent.footprint()));
                    settled_inside += usize::from(!outside);
                    at_bound += usize::from((ds.abs() - along - FRENET_AXIS_SLACK).abs() < 1e-9);
                }
            }
        }
        assert!(
            side_by_side > 500 && settled_inside > 4000 && at_bound > 4000,
            "alongside {side_by_side}, settled inside the circle {settled_inside}, at the bound {at_bound}"
        );
    }
}
