//! Multi-lane road geometry.
//!
//! All of the paper's Table-1 scenarios "take place on a 3-lane road"
//! (§4.1), straight except for *Challenging cut-in on a curved road*.
//! Lane 0 is the rightmost lane; lane centers sit at lateral Frenet
//! offsets `i · lane_width` from the reference path (the rightmost lane's
//! centerline).

use av_core::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a lane, 0 = rightmost.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct LaneId(pub u32);

impl fmt::Display for LaneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lane{}", self.0)
    }
}

/// Error constructing a [`Road`] or resolving a lane.
#[derive(Debug, Clone, PartialEq)]
pub enum RoadError {
    /// Roads need at least one lane.
    NoLanes,
    /// Lane width must be positive and finite.
    InvalidLaneWidth(Meters),
    /// A lane index beyond the road was requested.
    UnknownLane {
        /// The requested lane.
        lane: LaneId,
        /// How many lanes the road has.
        lanes: u32,
    },
}

impl fmt::Display for RoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoadError::NoLanes => write!(f, "a road needs at least one lane"),
            RoadError::InvalidLaneWidth(w) => {
                write!(f, "lane width {w} must be positive and finite")
            }
            RoadError::UnknownLane { lane, lanes } => {
                write!(f, "{lane} does not exist on a {lanes}-lane road")
            }
        }
    }
}

impl std::error::Error for RoadError {}

/// A multi-lane road over a reference centerline.
///
/// ```
/// use av_core::prelude::*;
/// use av_sim::road::{LaneId, Road};
///
/// # fn main() -> Result<(), av_sim::road::RoadError> {
/// let road = Road::straight_three_lane(Meters(1500.0));
/// let center = road.lane_offset(LaneId(1))?;
/// assert_eq!(center, Meters(3.7));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Road {
    path: Path,
    lanes: u32,
    lane_width: Meters,
}

impl Road {
    /// US-standard lane width used by the presets.
    pub const DEFAULT_LANE_WIDTH: Meters = Meters(3.7);

    /// Builds a road over `path` (the rightmost lane's centerline).
    ///
    /// # Errors
    ///
    /// Rejects zero lanes or a non-positive lane width.
    pub fn new(path: Path, lanes: u32, lane_width: Meters) -> Result<Self, RoadError> {
        if lanes == 0 {
            return Err(RoadError::NoLanes);
        }
        if !(lane_width.value() > 0.0 && lane_width.is_finite()) {
            return Err(RoadError::InvalidLaneWidth(lane_width));
        }
        Ok(Self {
            path,
            lanes,
            lane_width,
        })
    }

    /// The paper's straight 3-lane road.
    pub fn straight_three_lane(length: Meters) -> Self {
        Self::new(
            Path::straight(Vec2::ZERO, Radians(0.0), length),
            3,
            Self::DEFAULT_LANE_WIDTH,
        )
        .expect("preset parameters are valid")
    }

    /// The curved 3-lane road of *Challenging cut-in on a curved road*:
    /// a gentle left arc (signed `radius`, positive = left).
    ///
    /// # Panics
    ///
    /// Panics if the arc would overlap itself: `length` must stay under
    /// one full turn, `2π·|radius|` (see [`Path::arc`]).
    pub fn curved_three_lane(radius: Meters, length: Meters) -> Self {
        Self::new(
            Path::arc(Vec2::ZERO, Radians(0.0), radius, length, Meters(2.0)),
            3,
            Self::DEFAULT_LANE_WIDTH,
        )
        .expect("preset parameters are valid")
    }

    /// The reference centerline (rightmost lane).
    #[inline]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of lanes.
    #[inline]
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// Lane width.
    #[inline]
    pub fn lane_width(&self) -> Meters {
        self.lane_width
    }

    /// Lateral Frenet offset of a lane's centerline.
    ///
    /// # Errors
    ///
    /// Returns [`RoadError::UnknownLane`] for lanes beyond the road.
    pub fn lane_offset(&self, lane: LaneId) -> Result<Meters, RoadError> {
        if lane.0 >= self.lanes {
            return Err(RoadError::UnknownLane {
                lane,
                lanes: self.lanes,
            });
        }
        Ok(Meters(lane.0 as f64 * self.lane_width.value()))
    }

    /// The lane whose centerline is nearest to lateral offset `d`
    /// (clamped to the road).
    pub fn lane_at(&self, d: Meters) -> LaneId {
        let idx = (d.value() / self.lane_width.value()).round();
        LaneId(idx.clamp(0.0, (self.lanes - 1) as f64) as u32)
    }

    /// World pose of the point at arc length `s` in `lane`.
    ///
    /// # Errors
    ///
    /// Returns [`RoadError::UnknownLane`] for lanes beyond the road.
    pub fn lane_pose(&self, lane: LaneId, s: Meters) -> Result<PathPose, RoadError> {
        let d = self.lane_offset(lane)?;
        let base = self.path.pose_at(s);
        let left = Vec2::from_heading(base.heading).perp();
        Ok(PathPose {
            position: base.position + left * d.value(),
            heading: base.heading,
        })
    }

    /// World position for a Frenet pose on this road.
    pub fn to_world(&self, pose: FrenetPose) -> Vec2 {
        self.path.frenet_to_world(pose)
    }

    /// Frenet pose of a world point on this road.
    pub fn to_frenet(&self, position: Vec2) -> FrenetPose {
        self.path.project(position)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_preset_geometry() {
        let road = Road::straight_three_lane(Meters(1000.0));
        assert_eq!(road.lanes(), 3);
        assert_eq!(road.lane_offset(LaneId(0)).expect("lane 0"), Meters(0.0));
        assert_eq!(road.lane_offset(LaneId(2)).expect("lane 2"), Meters(7.4));
        assert!(matches!(
            road.lane_offset(LaneId(3)),
            Err(RoadError::UnknownLane { .. })
        ));
    }

    #[test]
    fn lane_at_rounds_and_clamps() {
        let road = Road::straight_three_lane(Meters(100.0));
        assert_eq!(road.lane_at(Meters(0.4)), LaneId(0));
        assert_eq!(road.lane_at(Meters(2.0)), LaneId(1));
        assert_eq!(road.lane_at(Meters(9.0)), LaneId(2));
        assert_eq!(road.lane_at(Meters(-5.0)), LaneId(0));
        assert_eq!(road.lane_at(Meters(50.0)), LaneId(2));
    }

    #[test]
    fn lane_pose_offsets_leftward() {
        let road = Road::straight_three_lane(Meters(100.0));
        let pose = road.lane_pose(LaneId(1), Meters(20.0)).expect("lane 1");
        assert!((pose.position.x - 20.0).abs() < 1e-9);
        assert!((pose.position.y - 3.7).abs() < 1e-9);
    }

    #[test]
    fn curved_road_lane_separation_is_constant() {
        let road = Road::curved_three_lane(Meters(400.0), Meters(600.0));
        for s in [0.0, 150.0, 300.0, 550.0] {
            let inner = road.lane_pose(LaneId(0), Meters(s)).expect("lane 0");
            let outer = road.lane_pose(LaneId(2), Meters(s)).expect("lane 2");
            let sep = (outer.position - inner.position).norm();
            assert!((sep - 7.4).abs() < 0.05, "s={s}: separation {sep}");
        }
    }

    #[test]
    fn frenet_round_trip_on_curve() {
        let road = Road::curved_three_lane(Meters(-300.0), Meters(500.0));
        let p = road.to_world(FrenetPose::new(Meters(123.0), Meters(3.7)));
        let back = road.to_frenet(p);
        assert!((back.s.value() - 123.0).abs() < 0.1);
        assert!((back.d.value() - 3.7).abs() < 0.05);
    }

    #[test]
    fn construction_validation() {
        let path = Path::straight(Vec2::ZERO, Radians(0.0), Meters(10.0));
        assert_eq!(
            Road::new(path.clone(), 0, Meters(3.7)),
            Err(RoadError::NoLanes)
        );
        assert!(matches!(
            Road::new(path, 3, Meters(0.0)),
            Err(RoadError::InvalidLaneWidth(_))
        ));
    }
}
