//! Deterministic closed-loop driving simulator for the Zhuyi (DAC 2022)
//! reproduction.
//!
//! This crate substitutes for NVIDIA DriveSim + the DRIVE AV planner in the
//! paper's evaluation. It provides exactly what the experiments need:
//!
//! - [`road`] — straight and curved 3-lane roads with Frenet lane geometry,
//! - [`script`] — choreographed actors (cut-ins, cut-outs, sudden braking,
//!   lane changes, ego-relative triggers),
//! - [`policy`] — the ego's IDM + AEB driving policy consuming the
//!   *perceived* (sampled, confirmed, stale) world model,
//! - [`engine`] — the tick loop wiring ground truth → perception → planning
//!   → integration, with collision detection, streaming each tick's scene
//!   to a pluggable [`observer::SimObserver`],
//! - [`observer`] — what a run keeps: the full [`trace::Trace`]
//!   ([`observer::TraceRecorder`]), incremental scalars with zero stored
//!   scenes ([`observer::MetricsObserver`]), or nothing
//!   ([`observer::NullObserver`]),
//! - [`trace`] — the recorded artifact the offline Zhuyi pipeline analyzes.
//!
//! # Example: a minimum-required-FPR probe
//!
//! ```
//! use av_core::prelude::*;
//! use av_perception::prelude::*;
//! use av_sim::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let road = Road::straight_three_lane(Meters(3000.0));
//! let ego = EgoVehicle::spawn(&road, LaneId(1), Meters(0.0),
//!                             PolicyConfig::cruise(MetersPerSecond(25.0)));
//! let obstacle = ActorScript::obstacle(ActorId(1), LaneId(1), Meters(400.0));
//! let perception = PerceptionSystem::new(CameraRig::drive_av(),
//!     RatePlan::Uniform(Fpr(30.0)), TrackerConfig::default())?;
//! let trace = Simulation::new(road, ego, vec![obstacle], perception,
//!                             SimulationConfig::default()).run();
//! assert!(!trace.collided());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod engine;
pub mod io;
pub mod metrics;
pub mod observer;
pub mod policy;
pub mod road;
pub mod script;
pub mod trace;

/// Glob import of the crate's main types.
pub mod prelude {
    pub use crate::batch::{BatchSim, BatchStats, LaneSpec};
    pub use crate::engine::{Simulation, SimulationConfig, StepOutcome};
    pub use crate::metrics::{instant_metrics, run_metrics, InstantMetrics, RunMetrics};
    pub use crate::observer::{
        MetricsObserver, NullObserver, RunSummary, SimObserver, TraceRecorder,
    };
    pub use crate::policy::{EgoVehicle, PolicyConfig};
    pub use crate::road::{LaneId, Road, RoadError};
    pub use crate::script::{
        Action, ActorScript, EgoObservation, Placement, ScriptedActor, ScriptedManeuver, Trigger,
    };
    pub use crate::trace::{SimEvent, Trace};
}
