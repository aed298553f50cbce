//! Integration tests of the post-deployment loop: online estimation,
//! safety checking and budget prioritization driving a live simulation.

use zhuyi_repro::core::prelude::*;
use zhuyi_repro::model::pipeline::{analyze_trace, PipelineConfig};
use zhuyi_repro::model::{ActorEstimate, CameraEstimate, TolerableLatencyEstimator, ZhuyiConfig};
use zhuyi_repro::perception::camera::CameraKind;
use zhuyi_repro::perception::rig::CameraRig;
use zhuyi_repro::perception::system::RatePlan;
use zhuyi_repro::prediction::kinematic::{ConstantAcceleration, ConstantVelocity};
use zhuyi_repro::prediction::maneuver::{ManeuverConfig, ManeuverPredictor};
use zhuyi_repro::runtime::prioritize::BudgetAllocator;
use zhuyi_repro::runtime::system::{drive, RuntimeConfig, ZhuyiRuntime};
use zhuyi_repro::scenarios::catalog::{Scenario, ScenarioId};

#[test]
fn online_loop_survives_every_scenario_at_30_fpr() {
    let runtime = ZhuyiRuntime::new(RuntimeConfig::default()).expect("valid config");
    for id in [
        ScenarioId::CutIn,
        ScenarioId::VehicleFollowing,
        ScenarioId::FrontRightActivity2,
    ] {
        let sim = Scenario::build(id, 0)
            .simulation(RatePlan::Uniform(Fpr(30.0)))
            .expect("valid plan");
        let (trace, decisions) = drive(sim, &runtime, &ConstantVelocity);
        assert!(!trace.collided(), "{id} collided with the runtime attached");
        assert!(!decisions.is_empty());
        // Every decision carries a full camera vector.
        for d in &decisions {
            assert_eq!(d.estimates.cameras.len(), 5);
        }
    }
}

#[test]
fn prioritized_budget_keeps_hard_scenario_safe() {
    // Cut-out fast needs ~6 FPR on the front camera (MRF 6). A uniform
    // split of a 35-frame budget gives each camera 7 FPR — safe but with
    // zero headroom. The Zhuyi-prioritized allocation instead starves the
    // idle cameras and gives the front camera up to 30.
    let scenario = Scenario::build(ScenarioId::CutOutFast, 0);
    let sim = scenario
        .simulation(RatePlan::Uniform(Fpr(7.0)))
        .expect("valid plan");
    let runtime = ZhuyiRuntime::new(RuntimeConfig {
        budget: Some(BudgetAllocator {
            total: Fpr(35.0),
            min_per_camera: Fpr(1.0),
            max_per_camera: Fpr(30.0),
        }),
        apply_allocation: true,
        ..Default::default()
    })
    .expect("valid config");
    let (trace, decisions) = drive(sim, &runtime, &ConstantAcceleration);
    assert!(
        !trace.collided(),
        "prioritized budget failed to keep the run safe"
    );
    // The allocator must have granted the front camera a super-uniform
    // share at some point.
    let rig = zhuyi_repro::perception::rig::CameraRig::drive_av();
    let front = rig.find(CameraKind::FrontWide).expect("front camera");
    let boosted = decisions
        .iter()
        .filter_map(|d| d.allocation.as_ref())
        .any(|a| a.rates[front.0].value() > 7.0 + 1e-9);
    assert!(boosted, "front camera never received extra budget");
}

#[test]
fn multi_hypothesis_prediction_is_more_conservative() {
    let scenario = Scenario::build(ScenarioId::CutIn, 0);
    let runtime = ZhuyiRuntime::new(RuntimeConfig::default()).expect("valid config");

    let sim1 = scenario
        .simulation(RatePlan::Uniform(Fpr(30.0)))
        .expect("valid plan");
    let (_, cv) = drive(sim1, &runtime, &ConstantVelocity);

    let sim2 = scenario
        .simulation(RatePlan::Uniform(Fpr(30.0)))
        .expect("valid plan");
    let maneuver = ManeuverPredictor::new(scenario.road.path().clone(), ManeuverConfig::default());
    let (_, mh) = drive(sim2, &runtime, &maneuver);

    let min_front = |ds: &[zhuyi_repro::runtime::RuntimeDecision]| {
        ds.iter()
            .filter_map(|d| {
                d.estimates
                    .camera(CameraKind::FrontWide)
                    .map(|c| c.latency.value())
            })
            .fold(f64::INFINITY, f64::min)
    };
    // Worst-case aggregation over a hypothesis set that includes braking
    // futures can only tighten the estimate.
    assert!(
        min_front(&mh) <= min_front(&cv) + 1e-9,
        "maneuver set must be at least as conservative as CV"
    );
}

/// The Fig.-1 story closed end to end: a 12-camera rig under a budget of
/// 36% of full provisioning (the paper's measured need) still grants every
/// camera at least its floor and concentrates surplus on demand.
#[test]
fn hyperion_twelve_camera_budget_allocates() {
    use zhuyi_repro::model::camera_fpr::CameraEstimate;
    use zhuyi_repro::perception::rig::CameraId;
    use zhuyi_repro::perception::rig::CameraRig;
    use zhuyi_repro::runtime::prioritize::BudgetAllocator;

    let rig = CameraRig::hyperion_12();
    assert_eq!(rig.len(), 12);
    // 36% of 12 x 30 FPR.
    let allocator = BudgetAllocator {
        total: Fpr(0.36 * 12.0 * 30.0),
        min_per_camera: Fpr(1.0),
        max_per_camera: Fpr(30.0),
    };
    // A demanding front camera (33 ms), a moderate side, ten idle.
    let estimates: Vec<CameraEstimate> = rig
        .iter()
        .map(|(id, cam)| CameraEstimate {
            camera: id,
            kind: cam.kind(),
            latency: match id.0 {
                1 => Seconds(0.033),
                2 => Seconds(0.25),
                _ => Seconds(1.0),
            },
            limiting_actor: None,
        })
        .collect();
    let allocation = allocator.allocate(&estimates).expect("valid allocator");
    assert!(allocation.satisfied, "36% budget covers this scene");
    assert!(
        allocation.rates[1].value() >= 30.0 - 1e-6,
        "front gets its 30"
    );
    assert!(allocation.rates[2].value() >= 4.0, "side gets its 4");
    for (i, rate) in allocation.rates.iter().enumerate() {
        assert!(rate.value() >= 1.0 - 1e-9, "camera {i} starved");
        assert!(rate.value() <= 30.0 + 1e-9, "camera {i} over cap");
    }
    assert!(allocation.granted_total().value() <= allocator.total.value() + 1e-6);
    let _ = CameraId(0); // silence unused import on some cfgs
}

/// FNV-1a over the exact bits of runtime decisions.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn estimates(&mut self, actors: &[ActorEstimate], cameras: &[CameraEstimate]) {
        self.u64(actors.len() as u64);
        for a in actors {
            self.u64(u64::from(a.actor.0));
            self.f64(a.latency.value());
            self.u64(a.outcome as u64);
            self.u64(u64::from(a.stats.latency_steps));
            self.u64(a.stats.constraint_evaluations);
        }
        self.u64(cameras.len() as u64);
        for c in cameras {
            self.u64(c.camera.0 as u64);
            self.u64(c.kind as u64);
            self.f64(c.latency.value());
            self.u64(c.limiting_actor.map_or(u64::MAX, |a| u64::from(a.0)));
        }
    }

    fn decision(&mut self, d: &zhuyi_repro::runtime::RuntimeDecision) {
        use zhuyi_repro::runtime::SafetyAction;
        self.f64(d.time.value());
        let est = &d.estimates;
        self.f64(est.time.value());
        self.estimates(&est.actors, &est.cameras);
        self.u64(u64::from(d.verdict.safe));
        self.u64(d.verdict.alarms.len() as u64);
        for a in &d.verdict.alarms {
            self.u64(a.camera.0 as u64);
            self.u64(a.kind as u64);
            self.f64(a.required.value());
            self.f64(a.actual.value());
        }
        self.u64(d.verdict.recommended.len() as u64);
        for action in &d.verdict.recommended {
            match action {
                SafetyAction::RaiseRate { camera, to } => {
                    self.u64(0);
                    self.u64(camera.0 as u64);
                    self.f64(to.value());
                }
                SafetyAction::DegradeNonEssential => self.u64(1),
                SafetyAction::ActivateBackup => self.u64(2),
            }
        }
        match &d.allocation {
            None => self.u64(0),
            Some(alloc) => {
                self.u64(1);
                self.u64(alloc.rates.len() as u64);
                for r in &alloc.rates {
                    self.f64(r.value());
                }
                self.f64(alloc.demand_total.value());
                self.u64(u64::from(alloc.satisfied));
            }
        }
    }
}

/// Pins every online decision bit for bit: all 9 catalog scenarios at
/// seed 0 and 30 FPR, constant-acceleration prediction, default config.
/// The curved cut-in is the only drive on an arc road, so hinted
/// projection onto curved paths is covered here. Any change to the
/// estimator's answers or to its `SearchStats` moves the digest.
#[test]
fn online_decisions_match_pinned_digest() {
    let runtime = ZhuyiRuntime::new(RuntimeConfig::default()).expect("valid config");
    let mut fnv = Fnv::new();
    let mut total = 0usize;
    for id in ScenarioId::ALL {
        let sim = Scenario::build(id, 0)
            .simulation(RatePlan::Uniform(Fpr(30.0)))
            .expect("valid plan");
        let (_, decisions) = drive(sim, &runtime, &ConstantAcceleration);
        fnv.u64(decisions.len() as u64);
        for d in &decisions {
            fnv.decision(d);
        }
        total += decisions.len();
    }
    assert!(total > 0);
    assert_eq!(
        fnv.0, 0x974b_6958_be42_74df,
        "online decision digest moved ({total} decisions)"
    );
}

/// Pins every offline analysis bit for bit: the oracle pipeline
/// (`analyze_trace`) over all 9 catalog scenarios at seed 0 and 30 FPR,
/// paper estimator, default `PipelineConfig` (stride 10). Oracle futures
/// are ground-truth traces sampled every 0.05 s, a denser span layout than
/// the online digest's 0.1 s predictor rollouts. Any change to an
/// estimate, an outcome or a `SearchStats` count moves the digest. The
/// default stride is cheap enough: about 4.6 s in a debug build and 0.8 s
/// in release on a 2-CPU x86-64 box.
#[test]
fn offline_analysis_matches_pinned_digest() {
    let estimator = TolerableLatencyEstimator::new(ZhuyiConfig::paper()).expect("valid config");
    let config = PipelineConfig::default();
    let mut fnv = Fnv::new();
    let mut total = 0usize;
    for id in ScenarioId::ALL {
        let scenario = Scenario::build(id, 0);
        let trace = scenario.run_at(Fpr(30.0));
        let analysis = analyze_trace(
            &trace.scenes,
            scenario.road.path(),
            &CameraRig::drive_av(),
            &estimator,
            &config,
        );
        fnv.u64(analysis.steps.len() as u64);
        for step in &analysis.steps {
            fnv.f64(step.time.value());
            fnv.f64(step.ego_speed.value());
            fnv.f64(step.ego_accel.value());
            fnv.estimates(&step.actors, &step.cameras);
        }
        total += analysis.steps.len();
    }
    assert!(total > 0);
    assert_eq!(
        fnv.0, 0x17b8_b5d4_ee2f_d1db,
        "offline analysis digest moved ({total} steps)"
    );
}

#[test]
fn underprovisioned_system_alarms_before_collision_risk() {
    // Vehicle following at 2 FPR stays collision-free (MRF < 1) but the
    // estimates during the braking transient exceed 2 FPR, so the check
    // must alarm at least once — the "online safety check" use case.
    let scenario = Scenario::build(ScenarioId::VehicleFollowing, 0);
    let sim = scenario
        .simulation(RatePlan::Uniform(Fpr(2.0)))
        .expect("valid plan");
    let runtime = ZhuyiRuntime::new(RuntimeConfig::default()).expect("valid config");
    let (trace, decisions) = drive(sim, &runtime, &ConstantAcceleration);
    assert!(!trace.collided());
    assert!(
        decisions.iter().any(|d| !d.verdict.safe),
        "no alarm despite running at 2 FPR through a hard-braking episode"
    );
    // And the alarm names the front camera.
    let alarmed_front = decisions
        .iter()
        .flat_map(|d| d.verdict.alarms.iter())
        .any(|a| a.kind == CameraKind::FrontWide);
    assert!(alarmed_front);
}
