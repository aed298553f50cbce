//! Counting-allocator proof of the zero-allocation claim: once the
//! engine's scratch buffers are warm, a metrics-only streaming tick
//! allocates nothing — not in the engine, not in perception (the
//! [`av_perception::system::TickReport`] is lent from a reused buffer),
//! not in the observer fold.
//!
//! This lives in its own integration-test binary because the counting
//! allocator is process-global; the counter itself is thread-local, so
//! the tests here (engine ticks, batched lockstep ticks) measure only
//! their own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation (alloc, alloc_zeroed, realloc) made through
/// the global allocator **on the calling thread**; frees are not counted
/// — the claim under test is "no allocation", which implies "no free"
/// for a leak-free program. Per-thread counting keeps the libtest
/// harness's own background threads out of the measurement.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` so allocations during TLS teardown never panic.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn warm_metrics_only_ticks_are_allocation_free() {
    use av_core::prelude::*;
    use av_perception::rig::CameraRig;
    use av_perception::system::{PerceptionSystem, RatePlan};
    use av_perception::world_model::TrackerConfig;
    use av_sim::engine::{Simulation, SimulationConfig, StepOutcome};
    use av_sim::observer::{MetricsObserver, NullObserver};
    use av_sim::policy::{EgoVehicle, PolicyConfig};
    use av_sim::road::{LaneId, Road};
    use av_sim::script::ActorScript;

    // A scenario with perception, tracking, planning and an actor in view
    // — but no scripted maneuvers, whose event descriptions are the one
    // documented per-run allocation.
    let build = || {
        let road = Road::straight_three_lane(Meters(3000.0));
        let ego = EgoVehicle::spawn(
            &road,
            LaneId(1),
            Meters(50.0),
            PolicyConfig::cruise(MetersPerSecond(20.0)),
        );
        let perception = PerceptionSystem::new(
            CameraRig::drive_av(),
            RatePlan::Uniform(Fpr(30.0)),
            TrackerConfig::default(),
        )
        .expect("valid plan");
        Simulation::new(
            road,
            ego,
            vec![
                ActorScript::obstacle(ActorId(1), LaneId(1), Meters(2500.0)),
                ActorScript::cruising(
                    ActorId(2),
                    av_sim::script::Placement {
                        lane: LaneId(0),
                        s: Meters(80.0),
                        speed: MetersPerSecond(20.0),
                    },
                ),
            ],
            perception,
            SimulationConfig {
                duration: Seconds(20.0),
                ..Default::default()
            },
        )
    };

    for (name, observer) in [
        (
            "metrics",
            &mut MetricsObserver::new() as &mut dyn av_sim::observer::SimObserver,
        ),
        ("null", &mut NullObserver),
    ] {
        let mut sim = build();
        // Warm-up: grow every scratch buffer, confirm every track, let
        // the planner see a populated perceived world.
        for _ in 0..300 {
            assert_eq!(sim.step_with(observer), StepOutcome::Running);
        }
        let before = allocations();
        for _ in 0..1000 {
            assert_eq!(sim.step_with(observer), StepOutcome::Running);
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{name}: {} allocations across 1000 warm ticks",
            after - before
        );
    }
}

#[test]
fn warm_ticks_with_telemetry_enabled_stay_allocation_free() {
    use av_core::prelude::*;
    use av_perception::rig::CameraRig;
    use av_perception::system::{PerceptionSystem, RatePlan};
    use av_perception::world_model::TrackerConfig;
    use av_sim::engine::{Simulation, SimulationConfig, StepOutcome};
    use av_sim::observer::MetricsObserver;
    use av_sim::policy::{EgoVehicle, PolicyConfig};
    use av_sim::road::{LaneId, Road};
    use av_sim::script::ActorScript;
    use std::sync::Arc;

    // The telemetry contract is two-sided: disabled telemetry is a
    // branch (covered by the other tests — no registry is ever installed
    // there), and *enabled* telemetry is atomic counter adds only. The
    // phase timer resolves its registry once per tick and every lap is
    // a fetch_add — the hot loop must stay allocation-free even while
    // recording.
    let road = Road::straight_three_lane(Meters(3000.0));
    let ego = EgoVehicle::spawn(
        &road,
        LaneId(1),
        Meters(50.0),
        PolicyConfig::cruise(MetersPerSecond(20.0)),
    );
    let perception = PerceptionSystem::new(
        CameraRig::drive_av(),
        RatePlan::Uniform(Fpr(30.0)),
        TrackerConfig::default(),
    )
    .expect("valid plan");
    let mut sim = Simulation::new(
        road,
        ego,
        vec![
            ActorScript::obstacle(ActorId(1), LaneId(1), Meters(2500.0)),
            ActorScript::cruising(
                ActorId(2),
                av_sim::script::Placement {
                    lane: LaneId(0),
                    s: Meters(80.0),
                    speed: MetersPerSecond(20.0),
                },
            ),
        ],
        perception,
        SimulationConfig {
            duration: Seconds(20.0),
            ..Default::default()
        },
    );
    let registry = Arc::new(zhuyi_telemetry::Registry::new());
    let _guard = zhuyi_telemetry::install(&registry);
    let mut observer = MetricsObserver::new();
    for _ in 0..300 {
        assert_eq!(sim.step_with(&mut observer), StepOutcome::Running);
    }
    let before = allocations();
    for _ in 0..1000 {
        assert_eq!(sim.step_with(&mut observer), StepOutcome::Running);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "{} allocations across 1000 warm telemetry-enabled ticks",
        after - before
    );
    // And it actually recorded: the ticks above are in the registry.
    let snapshot = registry.snapshot();
    let ticks: u64 = snapshot.phase_ticks.iter().sum();
    assert!(
        ticks >= 1300,
        "telemetry was installed but recorded only {ticks} phase ticks"
    );
}

#[test]
fn warm_batched_lockstep_ticks_are_allocation_free() {
    use av_core::prelude::*;
    use av_perception::rig::CameraRig;
    use av_perception::system::{PerceptionSystem, RatePlan};
    use av_perception::world_model::TrackerConfig;
    use av_sim::batch::LaneSpec;
    use av_sim::engine::{Simulation, SimulationConfig};
    use av_sim::observer::{NullObserver, SimObserver};
    use av_sim::policy::{EgoVehicle, PolicyConfig};
    use av_sim::road::{LaneId, Road};
    use av_sim::script::ActorScript;

    // Same maneuver-less scenario as the engine test (scripted-maneuver
    // descriptions are the one documented per-run allocation), with the
    // far obstacle keeping every retirement certificate *declining* —
    // the decline path runs every backoff interval and must not allocate
    // either. Both geometries: the straight road exercises the
    // Frenet-prefilter idle path, the curved one the world-frame path.
    let perception = |fpr: f64| {
        PerceptionSystem::new(
            CameraRig::drive_av(),
            RatePlan::Uniform(Fpr(fpr)),
            TrackerConfig::default(),
        )
        .expect("valid plan")
    };
    for road in [
        Road::straight_three_lane(Meters(3000.0)),
        // 6 rad: under one full turn, so the arc does not overlap itself.
        Road::curved_three_lane(Meters(500.0), Meters(3000.0)),
    ] {
        let ego = || {
            EgoVehicle::spawn(
                &road,
                LaneId(1),
                Meters(50.0),
                PolicyConfig::cruise(MetersPerSecond(20.0)),
            )
        };
        let mut sim = Simulation::new(
            road.clone(),
            ego(),
            vec![
                ActorScript::obstacle(ActorId(1), LaneId(1), Meters(2500.0)),
                ActorScript::cruising(
                    ActorId(2),
                    av_sim::script::Placement {
                        lane: LaneId(0),
                        s: Meters(80.0),
                        speed: MetersPerSecond(20.0),
                    },
                ),
            ],
            perception(30.0),
            SimulationConfig {
                duration: Seconds(20.0),
                ..Default::default()
            },
        );
        let specs: Vec<LaneSpec> = [2.0, 8.0, 30.0]
            .iter()
            .map(|&fpr| LaneSpec {
                ego: ego(),
                perception: perception(fpr),
            })
            .collect();
        let mut nulls = vec![NullObserver; specs.len()];
        let observers: Vec<&mut dyn SimObserver> = nulls
            .iter_mut()
            .map(|n| n as &mut dyn SimObserver)
            .collect();
        let mut batch = sim.batched_verdicts(specs, observers);
        for _ in 0..300 {
            assert!(batch.step_all(), "warm-up must not end the batch");
        }
        assert_eq!(batch.live_lanes(), 3, "no lane may retire in this setup");
        let before = allocations();
        for _ in 0..1000 {
            assert!(batch.step_all());
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{} allocations across 1000 warm batched ticks x 3 lanes",
            after - before
        );
    }
}
