//! **Zhuyi** — perception processing rate estimation for safety in
//! autonomous vehicles (Hsiao et al., DAC 2022).
//!
//! Zhuyi answers, at every instant of a driving scenario: *how slowly may
//! each camera's frames be processed while the ego can still avoid every
//! possible collision?* It does so with a kinematics-based search:
//!
//! 1. [`estimator`] — per actor, find the maximum tolerable latency `l`
//!    such that reacting after t_r = l + α and hard-braking satisfies the
//!    paper's distance (Eq. 1) and velocity (Eq. 2) constraints at some
//!    future time, accelerating the inner search with Eq. 3;
//! 2. [`aggregate`] — combine latencies across an actor's predicted
//!    trajectories (Eq. 4: worst case / mean / percentile);
//! 3. [`camera_fpr`] — fold per-actor latencies into per-camera minimum
//!    frame processing rates over each camera's FOV (Eq. 5);
//! 4. [`pipeline`] — Eqs. 1–5 over one scene ([`estimate_scene`], the
//!    step online and offline estimation share), and the pre-deployment
//!    replay of a recorded trace (§3.1) producing the per-camera time
//!    series of Figs. 4–6;
//! 5. [`sensitivity`] — the Fig. 8 velocity sweep;
//! 6. [`ops`] — the §4.2 compute-demand accounting.
//!
//! Two of the paper's §5 future-work directions are implemented as
//! extensions: [`uncertainty`] (perception-error-aware estimation and the
//! "necessary accuracy" query) and [`phantom`] (floor requirements for
//! yet-to-be-detected objects).
//!
//! # Example
//!
//! ```
//! use av_core::prelude::*;
//! use zhuyi::{EgoKinematics, TolerableLatencyEstimator, ZhuyiConfig};
//! use zhuyi::future::ConstantAccelActor;
//!
//! # fn main() -> Result<(), zhuyi::config::ConfigError> {
//! let estimator = TolerableLatencyEstimator::new(ZhuyiConfig::paper())?;
//! // Vehicle following at 70 mph, 50 m behind a lead that brakes hard.
//! let ego = EgoKinematics::new(Mph(70.0).into(), MetersPerSecondSquared(0.0));
//! let lead = ConstantAccelActor::new(Meters(50.0), Mph(70.0).into(),
//!                                    MetersPerSecondSquared(-6.0));
//! let est = estimator.tolerable_latency(ego, &lead, Seconds(1.0 / 30.0));
//! println!("tolerable latency {} -> minimum {}", est.latency, est.fpr());
//! assert!(est.latency < Seconds(1.0));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aggregate;
pub mod camera_fpr;
pub mod config;
pub mod estimator;
pub mod explain;
pub mod future;
pub mod ops;
pub mod phantom;
pub mod pipeline;
pub mod sensitivity;
pub mod uncertainty;

pub use aggregate::Aggregation;
pub use camera_fpr::{
    per_camera_fpr, rank_by_importance, truncate_work, ActorEstimate, CameraEstimate,
};
pub use config::{AlphaModel, SearchStrategy, ZhuyiConfig};
pub use estimator::{
    EgoKinematics, InnerSolution, LatencyEstimate, SearchOutcome, SearchStats,
    TolerableLatencyEstimator,
};
pub use explain::Explanation;
pub use pipeline::{analyze_trace, estimate_scene, PipelineConfig, StepAnalysis, TraceAnalysis};
pub use sensitivity::{sweep_fixed_gap, CellOutcome, SensitivityGrid};
