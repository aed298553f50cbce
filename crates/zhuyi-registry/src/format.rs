//! The versioned scenario definition file format (`.scn`).
//!
//! A definition file is a line-oriented, sectioned text format (the same
//! hand-rolled-parser discipline as the repo's CSV/JSON/wire codecs — the
//! workspace's serde is a no-op shim, so every persisted format owns its
//! bytes). The grammar:
//!
//! ```text
//! zhuyi-scenario v1            # required version header
//!
//! name = Cut-out               # must be unique within a registry
//! tags = catalog, table1       # optional, comma-separated
//! duration = 25.0              # seconds (expression)
//!
//! [road]
//! kind = straight              # or `curved` (requires `radius`)
//! length = 3000.0
//! lanes = 3
//! lane_width = 3.7
//!
//! [param v]                    # ordered: declaration order IS jitter order
//! jitter = speed               # none | speed | position | duration
//! value = mph(20.0)            # may reference earlier params
//!
//! [ego]
//! lane = 1
//! s = 50.0
//! speed = v
//!
//! [actor lead]
//! id = 1
//! kind = vehicle               # or `obstacle` (no speed, no maneuvers)
//! lane = 1
//! s = 50.0 + 30.0
//! speed = v
//!
//! [maneuver]                   # attaches to the most recent [actor]
//! trigger = ego_passes(trigger_s)
//! action = change_lane(2, 2.5)
//! ```
//!
//! Triggers: `immediately`, `at_time(t)`, `gap_ahead(m)`, `gap_behind(m)`,
//! `ego_passes(s)`. Actions: `change_lane(lane, duration)`,
//! `set_speed(target, accel_limit)`, `hard_brake(decel)`,
//! `match_ego_speed(accel_limit)`.
//!
//! # The jitter contract
//!
//! [`ScenarioDef::instantiate`] reproduces the hand-coded catalog builders
//! bit-exactly because `av-scenarios`' [`Jitter`] draws depend only on the
//! *ordered sequence* of (kind, spread) calls, never on nominal values.
//! `[param]` declarations are the only jitter draws in a definition, made
//! in file order through the very same `Jitter` methods; every other
//! expression is pure arithmetic over the drawn values. A port of a
//! hand-coded scenario therefore only has to declare its jittered
//! quantities in builder order to replay the identical RNG stream.
//!
//! # Validation
//!
//! Structural problems (unknown fields, bad version, duplicate names,
//! malformed expressions, obstacle constraints) are parse errors carrying a
//! line number. Numeric problems (non-finite geometry, placements off the
//! road, unsatisfiable triggers) are instantiation errors, checked per
//! seed, since jitter and parameter arithmetic decide the final values.

use std::collections::BTreeMap;
use std::fmt;

use av_core::prelude::*;
use av_scenarios::catalog::Scenario;
use av_scenarios::jitter::Jitter;
use av_sim::road::{LaneId, Road};
use av_sim::script::{Action, ActorScript, Placement, Trigger};

use crate::expr::{parse_expr, Expr};

/// The format version this build reads and writes.
pub const FORMAT_VERSION: &str = "v1";

const HEADER_PREFIX: &str = "zhuyi-scenario";

/// A parsed, structurally valid scenario definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDef {
    /// Unique scenario name (export identity, like the catalog's Table-1
    /// names).
    pub name: String,
    /// Free-form tags for registry filtering.
    pub tags: Vec<String>,
    /// Scenario duration in seconds.
    pub duration: Expr,
    /// Road geometry.
    pub road: RoadDef,
    /// Ordered parameter declarations — file order is jitter-draw order.
    pub params: Vec<ParamDef>,
    /// Ego configuration.
    pub ego: EgoDef,
    /// Scripted actors, in scene order.
    pub actors: Vec<ActorDef>,
}

/// Road geometry of a definition.
#[derive(Debug, Clone, PartialEq)]
pub struct RoadDef {
    /// Straight or arc centerline.
    pub kind: RoadKind,
    /// Road length in meters.
    pub length: Expr,
    /// Number of lanes (0 = rightmost).
    pub lanes: u32,
    /// Lane width in meters.
    pub lane_width: Expr,
    /// Signed arc radius in meters (curved roads only; positive = left).
    pub radius: Option<Expr>,
}

/// Road centerline shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoadKind {
    /// Straight centerline.
    Straight,
    /// Constant-curvature arc.
    Curved,
}

/// Which [`Jitter`] draw a parameter makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JitterKind {
    /// No draw: the parameter is its nominal value at every seed.
    None,
    /// `Jitter::speed` (±1% multiplicative).
    Speed,
    /// `Jitter::position` (± `spread` meters additive).
    Position,
    /// `Jitter::duration` (±5% multiplicative).
    Duration,
}

/// One ordered parameter declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDef {
    /// Identifier later expressions reference.
    pub name: String,
    /// The jitter draw applied to the nominal value.
    pub jitter: JitterKind,
    /// Nominal value; may reference earlier parameters.
    pub value: Expr,
    /// Position jitter half-width in meters (position params only).
    pub spread: Option<f64>,
}

/// Ego configuration of a definition.
#[derive(Debug, Clone, PartialEq)]
pub struct EgoDef {
    /// Starting lane.
    pub lane: u32,
    /// Starting arc-length position in meters.
    pub s: Expr,
    /// Cruise speed in m/s.
    pub speed: Expr,
}

/// Actor kind of a definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActorKindDef {
    /// A scripted vehicle.
    Vehicle,
    /// A static obstacle (no speed, no maneuvers).
    Obstacle,
}

/// One scripted actor.
#[derive(Debug, Clone, PartialEq)]
pub struct ActorDef {
    /// Label from the `[actor <label>]` heading (documentation and error
    /// messages only; `id` is the simulation identity).
    pub label: String,
    /// Simulation actor id (>= 1; 0 is reserved for the ego).
    pub id: u32,
    /// Vehicle or static obstacle.
    pub kind: ActorKindDef,
    /// Starting lane.
    pub lane: u32,
    /// Starting arc-length position in meters.
    pub s: Expr,
    /// Initial speed in m/s (vehicles only).
    pub speed: Option<Expr>,
    /// Triggered maneuvers, in declaration order.
    pub maneuvers: Vec<ManeuverDef>,
}

/// One triggered maneuver.
#[derive(Debug, Clone, PartialEq)]
pub struct ManeuverDef {
    /// When the action fires.
    pub trigger: TriggerDef,
    /// What the actor does.
    pub action: ActionDef,
}

/// Data-level mirror of [`av_sim::script::Trigger`].
#[derive(Debug, Clone, PartialEq)]
pub enum TriggerDef {
    /// Fires on the first tick.
    Immediately,
    /// Fires at an absolute time (seconds).
    AtTime(Expr),
    /// Fires when the actor's bumper gap ahead of the ego closes below a
    /// threshold (meters).
    GapAhead(Expr),
    /// Fires when the gap behind the ego closes below a threshold (meters).
    GapBehind(Expr),
    /// Fires when the ego passes an arc-length position (meters).
    EgoPasses(Expr),
}

/// Data-level mirror of [`av_sim::script::Action`].
#[derive(Debug, Clone, PartialEq)]
pub enum ActionDef {
    /// Lane change over a duration.
    ChangeLane {
        /// Target lane.
        target: u32,
        /// Maneuver duration in seconds.
        duration: Expr,
    },
    /// Accelerate or brake toward a target speed.
    SetSpeed {
        /// Target speed in m/s.
        target: Expr,
        /// Acceleration magnitude limit in m/s².
        accel_limit: Expr,
    },
    /// Emergency braking to a stop.
    HardBrake {
        /// Deceleration in m/s².
        decel: Expr,
    },
    /// Track the ego's current speed.
    MatchEgoSpeed {
        /// Acceleration magnitude limit in m/s².
        accel_limit: Expr,
    },
}

/// A structural error in a definition file, with its 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct FormatError {
    /// 1-based line the error was detected on (0 when the file ended too
    /// early).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            f.write_str(&self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for FormatError {}

/// A per-seed numeric error raised while instantiating a definition.
#[derive(Debug, Clone, PartialEq)]
pub struct InstantiateError {
    /// Human-readable description, including the offending field.
    pub message: String,
}

impl fmt::Display for InstantiateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for InstantiateError {}

fn inst_err<T>(message: String) -> Result<T, InstantiateError> {
    Err(InstantiateError { message })
}

/// Strictly-positive check that a NaN fails (NaN loses every comparison,
/// so `!positive(NaN)` rejects it like any other bad value).
fn positive(x: f64) -> bool {
    x > 0.0
}

/// Non-negative check that a NaN fails, for the same reason.
fn non_negative(x: f64) -> bool {
    x >= 0.0
}

impl ScenarioDef {
    /// Parses a definition from its textual form.
    ///
    /// # Errors
    ///
    /// Returns a [`FormatError`] (with line number) for version mismatches,
    /// unknown sections/fields, duplicate or missing fields, malformed
    /// expressions, references to undeclared parameters, and obstacle
    /// constraint violations.
    pub fn parse(text: &str) -> Result<Self, FormatError> {
        parse_def(text)
    }

    /// Renders the canonical textual form.
    ///
    /// `ScenarioDef::parse(def.to_text()) == *def` for every parseable
    /// definition — this is what the distd wire format ships and what the
    /// generators write to disk.
    pub fn to_text(&self) -> String {
        write_def(self)
    }

    /// Instantiates the definition at a jitter seed, through the same
    /// [`Jitter`] machinery as the hand-coded catalog (seed 0 = nominal).
    ///
    /// # Errors
    ///
    /// Returns an [`InstantiateError`] when any evaluated quantity is
    /// non-finite, geometry is degenerate, a placement falls off the road,
    /// or a trigger can never fire.
    pub fn instantiate(&self, seed: u64) -> Result<Scenario, InstantiateError> {
        let mut jitter = Jitter::new(seed);
        let mut env: BTreeMap<String, f64> = BTreeMap::new();
        for param in &self.params {
            let ctx = format!("param `{}`", param.name);
            let nominal = eval(&param.value, &env, &ctx)?;
            let drawn = match param.jitter {
                JitterKind::None => nominal,
                JitterKind::Speed => jitter.speed(MetersPerSecond(nominal)).value(),
                JitterKind::Position => {
                    let spread = param.spread.expect("parser requires spread on position");
                    jitter.position(Meters(nominal), Meters(spread)).value()
                }
                JitterKind::Duration => jitter.duration(Seconds(nominal)).value(),
            };
            if !drawn.is_finite() {
                return inst_err(format!("{ctx} evaluates to a non-finite value ({drawn})"));
            }
            env.insert(param.name.clone(), drawn);
        }

        let road = self.build_road(&env)?;
        let length = road_length(&road);
        let lanes = road.lanes();

        let check_lane = |what: &str, lane: u32| {
            if lane >= lanes {
                inst_err(format!(
                    "{what} lane {lane} does not exist on a {lanes}-lane road"
                ))
            } else {
                Ok(())
            }
        };
        let check_on_road = |what: &str, s: f64| {
            if !(0.0..=length).contains(&s) {
                inst_err(format!(
                    "{what} s = {s} is outside the road [0, {length}] m"
                ))
            } else {
                Ok(())
            }
        };

        check_lane("ego", self.ego.lane)?;
        let ego_start = eval(&self.ego.s, &env, "ego.s")?;
        check_on_road("ego", ego_start)?;
        let ego_speed = eval(&self.ego.speed, &env, "ego.speed")?;
        if !non_negative(ego_speed) {
            return inst_err(format!("ego.speed must be non-negative (got {ego_speed})"));
        }

        let duration = eval(&self.duration, &env, "duration")?;
        if !(duration > 0.0 && duration <= 600.0) {
            return inst_err(format!(
                "duration must be in (0, 600] seconds (got {duration})"
            ));
        }

        let mut scripts = Vec::with_capacity(self.actors.len());
        for actor in &self.actors {
            let ctx = format!("actor `{}`", actor.label);
            check_lane(&ctx, actor.lane)?;
            let s = eval(&actor.s, &env, &format!("{ctx} s"))?;
            check_on_road(&ctx, s)?;
            let mut script = match actor.kind {
                ActorKindDef::Obstacle => {
                    ActorScript::obstacle(ActorId(actor.id), LaneId(actor.lane), Meters(s))
                }
                ActorKindDef::Vehicle => {
                    let speed_expr = actor
                        .speed
                        .as_ref()
                        .expect("parser requires speed on vehicles");
                    let speed = eval(speed_expr, &env, &format!("{ctx} speed"))?;
                    if !non_negative(speed) {
                        return inst_err(format!("{ctx} speed must be non-negative (got {speed})"));
                    }
                    ActorScript::cruising(
                        ActorId(actor.id),
                        Placement {
                            lane: LaneId(actor.lane),
                            s: Meters(s),
                            speed: MetersPerSecond(speed),
                        },
                    )
                }
            };
            for (index, m) in actor.maneuvers.iter().enumerate() {
                let mctx = format!("{ctx} maneuver {}", index + 1);
                let trigger = build_trigger(&m.trigger, &env, &mctx, duration, length)?;
                let action = build_action(&m.action, &env, &mctx, &check_lane)?;
                script = script.with_maneuver(trigger, action);
            }
            scripts.push(script);
        }

        Ok(Scenario {
            name: self.name.clone(),
            seed,
            road,
            ego_lane: LaneId(self.ego.lane),
            ego_start: Meters(ego_start),
            ego_speed: MetersPerSecond(ego_speed),
            scripts,
            duration: Seconds(duration),
        })
    }

    fn build_road(&self, env: &BTreeMap<String, f64>) -> Result<Road, InstantiateError> {
        let length = eval(&self.road.length, env, "road.length")?;
        if !positive(length) {
            return inst_err(format!("road.length must be positive (got {length})"));
        }
        let lane_width = eval(&self.road.lane_width, env, "road.lane_width")?;
        if !positive(lane_width) {
            return inst_err(format!(
                "road.lane_width must be positive (got {lane_width})"
            ));
        }
        let path = match self.road.kind {
            RoadKind::Straight => Path::straight(Vec2::ZERO, Radians(0.0), Meters(length)),
            RoadKind::Curved => {
                let radius_expr = self
                    .road
                    .radius
                    .as_ref()
                    .expect("parser requires radius on curved roads");
                let radius = eval(radius_expr, env, "road.radius")?;
                if radius.abs() < 2.0 * lane_width {
                    return inst_err(format!(
                        "road.radius {radius} is degenerate (|radius| must be at least \
                         two lane widths)"
                    ));
                }
                if length >= std::f64::consts::TAU * radius.abs() {
                    return inst_err(format!(
                        "road.length {length} reaches a full turn of road.radius {radius} \
                         (a curved road may not overlap itself)"
                    ));
                }
                // Same arc construction (including the 2 m sampling step)
                // as Road::curved_three_lane.
                Path::arc(
                    Vec2::ZERO,
                    Radians(0.0),
                    Meters(radius),
                    Meters(length),
                    Meters(2.0),
                )
            }
        };
        Road::new(path, self.road.lanes, Meters(lane_width)).map_err(|e| InstantiateError {
            message: format!("road: {e}"),
        })
    }
}

fn road_length(road: &Road) -> f64 {
    road.path().length().value()
}

fn eval(expr: &Expr, env: &BTreeMap<String, f64>, ctx: &str) -> Result<f64, InstantiateError> {
    let value = expr.eval(env).map_err(|e| InstantiateError {
        message: format!("{ctx}: {e}"),
    })?;
    if !value.is_finite() {
        return inst_err(format!("{ctx} evaluates to a non-finite value ({value})"));
    }
    Ok(value)
}

fn build_trigger(
    def: &TriggerDef,
    env: &BTreeMap<String, f64>,
    ctx: &str,
    duration: f64,
    road_length: f64,
) -> Result<Trigger, InstantiateError> {
    Ok(match def {
        TriggerDef::Immediately => Trigger::Immediately,
        TriggerDef::AtTime(e) => {
            let t = eval(e, env, &format!("{ctx} at_time"))?;
            if t < 0.0 {
                return inst_err(format!("{ctx}: at_time({t}) is negative"));
            }
            if t > duration {
                return inst_err(format!(
                    "{ctx}: at_time({t}) never fires — the scenario ends at \
                     {duration} s (unsatisfiable trigger)"
                ));
            }
            Trigger::AtTime(Seconds(t))
        }
        TriggerDef::GapAhead(e) => {
            let g = eval(e, env, &format!("{ctx} gap_ahead"))?;
            if !positive(g) {
                return inst_err(format!("{ctx}: gap_ahead({g}) must be positive"));
            }
            Trigger::GapAheadOfEgo(Meters(g))
        }
        TriggerDef::GapBehind(e) => {
            let g = eval(e, env, &format!("{ctx} gap_behind"))?;
            if !positive(g) {
                return inst_err(format!("{ctx}: gap_behind({g}) must be positive"));
            }
            Trigger::GapBehindEgo(Meters(g))
        }
        TriggerDef::EgoPasses(e) => {
            let s = eval(e, env, &format!("{ctx} ego_passes"))?;
            if !(0.0..=road_length).contains(&s) {
                return inst_err(format!(
                    "{ctx}: ego_passes({s}) is outside the {road_length} m road \
                     (unsatisfiable trigger)"
                ));
            }
            Trigger::EgoPasses(Meters(s))
        }
    })
}

fn build_action(
    def: &ActionDef,
    env: &BTreeMap<String, f64>,
    ctx: &str,
    check_lane: &impl Fn(&str, u32) -> Result<(), InstantiateError>,
) -> Result<Action, InstantiateError> {
    Ok(match def {
        ActionDef::ChangeLane { target, duration } => {
            check_lane(&format!("{ctx} change_lane target"), *target)?;
            let d = eval(duration, env, &format!("{ctx} change_lane duration"))?;
            if !positive(d) {
                return inst_err(format!(
                    "{ctx}: change_lane duration must be positive (got {d})"
                ));
            }
            Action::ChangeLane {
                target: LaneId(*target),
                duration: Seconds(d),
            }
        }
        ActionDef::SetSpeed {
            target,
            accel_limit,
        } => {
            let t = eval(target, env, &format!("{ctx} set_speed target"))?;
            if !non_negative(t) {
                return inst_err(format!(
                    "{ctx}: set_speed target must be non-negative (got {t})"
                ));
            }
            let a = eval(accel_limit, env, &format!("{ctx} set_speed accel_limit"))?;
            if !positive(a) {
                return inst_err(format!(
                    "{ctx}: set_speed accel_limit must be positive (got {a})"
                ));
            }
            Action::SetSpeed {
                target: MetersPerSecond(t),
                accel_limit: MetersPerSecondSquared(a),
            }
        }
        ActionDef::HardBrake { decel } => {
            let d = eval(decel, env, &format!("{ctx} hard_brake decel"))?;
            if !positive(d) {
                return inst_err(format!(
                    "{ctx}: hard_brake decel must be positive (got {d})"
                ));
            }
            Action::HardBrake {
                decel: MetersPerSecondSquared(d),
            }
        }
        ActionDef::MatchEgoSpeed { accel_limit } => {
            let a = eval(
                accel_limit,
                env,
                &format!("{ctx} match_ego_speed accel_limit"),
            )?;
            if !positive(a) {
                return inst_err(format!(
                    "{ctx}: match_ego_speed accel_limit must be positive (got {a})"
                ));
            }
            Action::MatchEgoSpeed {
                accel_limit: MetersPerSecondSquared(a),
            }
        }
    })
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[derive(Debug)]
enum Section {
    Top,
    Road,
    Param(usize),
    Ego,
    Actor(usize),
    Maneuver(usize, usize),
}

#[derive(Debug, Default)]
struct RoadBuilder {
    kind: Option<RoadKind>,
    length: Option<Expr>,
    lanes: Option<u32>,
    lane_width: Option<Expr>,
    radius: Option<Expr>,
}

#[derive(Debug)]
struct ParamBuilder {
    name: String,
    jitter: Option<JitterKind>,
    value: Option<Expr>,
    spread: Option<f64>,
    line: usize,
}

#[derive(Debug, Default)]
struct EgoBuilder {
    lane: Option<u32>,
    s: Option<Expr>,
    speed: Option<Expr>,
}

#[derive(Debug)]
struct ActorBuilder {
    label: String,
    id: Option<u32>,
    kind: ActorKindDef,
    kind_set: bool,
    lane: Option<u32>,
    s: Option<Expr>,
    speed: Option<Expr>,
    maneuvers: Vec<ManeuverBuilder>,
    line: usize,
}

#[derive(Debug, Default)]
struct ManeuverBuilder {
    trigger: Option<TriggerDef>,
    action: Option<ActionDef>,
    line: usize,
}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, FormatError> {
    Err(FormatError {
        line,
        message: message.into(),
    })
}

fn set_once<T>(slot: &mut Option<T>, value: T, line: usize, what: &str) -> Result<(), FormatError> {
    if slot.is_some() {
        return err(line, format!("duplicate `{what}`"));
    }
    *slot = Some(value);
    Ok(())
}

fn parse_expr_at(line: usize, what: &str, src: &str) -> Result<Expr, FormatError> {
    parse_expr(src).map_err(|e| FormatError {
        line,
        message: format!("bad expression for `{what}`: {e}"),
    })
}

/// Splits `name(arg1, arg2)` into the name and top-level comma-separated
/// argument list; `name` alone yields an empty list.
fn split_call(line: usize, src: &str) -> Result<(String, Vec<String>), FormatError> {
    let src = src.trim();
    let Some(open) = src.find('(') else {
        return Ok((src.to_string(), Vec::new()));
    };
    if !src.ends_with(')') {
        return err(line, format!("expected closing `)` in {src:?}"));
    }
    let name = src[..open].trim().to_string();
    let inner = &src[open + 1..src.len() - 1];
    let mut args = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in inner.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth = depth.checked_sub(1).ok_or(FormatError {
                    line,
                    message: format!("unbalanced parentheses in {src:?}"),
                })?;
            }
            ',' if depth == 0 => {
                args.push(inner[start..i].trim().to_string());
                start = i + 1;
            }
            _ => {}
        }
    }
    if depth != 0 {
        return err(line, format!("unbalanced parentheses in {src:?}"));
    }
    args.push(inner[start..].trim().to_string());
    Ok((name, args))
}

fn expect_args(line: usize, what: &str, args: &[String], count: usize) -> Result<(), FormatError> {
    if args.len() != count || args.iter().any(|a| a.is_empty()) {
        return err(
            line,
            format!("`{what}` takes {count} argument(s), got {args:?}"),
        );
    }
    Ok(())
}

fn parse_trigger(line: usize, src: &str) -> Result<TriggerDef, FormatError> {
    let (name, args) = split_call(line, src)?;
    match name.as_str() {
        "immediately" => {
            if !args.is_empty() {
                return err(line, "`immediately` takes no arguments");
            }
            Ok(TriggerDef::Immediately)
        }
        "at_time" => {
            expect_args(line, "at_time", &args, 1)?;
            Ok(TriggerDef::AtTime(parse_expr_at(
                line, "at_time", &args[0],
            )?))
        }
        "gap_ahead" => {
            expect_args(line, "gap_ahead", &args, 1)?;
            Ok(TriggerDef::GapAhead(parse_expr_at(
                line,
                "gap_ahead",
                &args[0],
            )?))
        }
        "gap_behind" => {
            expect_args(line, "gap_behind", &args, 1)?;
            Ok(TriggerDef::GapBehind(parse_expr_at(
                line,
                "gap_behind",
                &args[0],
            )?))
        }
        "ego_passes" => {
            expect_args(line, "ego_passes", &args, 1)?;
            Ok(TriggerDef::EgoPasses(parse_expr_at(
                line,
                "ego_passes",
                &args[0],
            )?))
        }
        other => err(
            line,
            format!(
                "unknown trigger `{other}` (known: immediately, at_time, gap_ahead, \
                 gap_behind, ego_passes)"
            ),
        ),
    }
}

fn parse_action(line: usize, src: &str) -> Result<ActionDef, FormatError> {
    let (name, args) = split_call(line, src)?;
    match name.as_str() {
        "change_lane" => {
            expect_args(line, "change_lane", &args, 2)?;
            let target: u32 = args[0].parse().map_err(|_| FormatError {
                line,
                message: format!(
                    "change_lane target lane must be an integer literal, got {:?}",
                    args[0]
                ),
            })?;
            Ok(ActionDef::ChangeLane {
                target,
                duration: parse_expr_at(line, "change_lane duration", &args[1])?,
            })
        }
        "set_speed" => {
            expect_args(line, "set_speed", &args, 2)?;
            Ok(ActionDef::SetSpeed {
                target: parse_expr_at(line, "set_speed target", &args[0])?,
                accel_limit: parse_expr_at(line, "set_speed accel_limit", &args[1])?,
            })
        }
        "hard_brake" => {
            expect_args(line, "hard_brake", &args, 1)?;
            Ok(ActionDef::HardBrake {
                decel: parse_expr_at(line, "hard_brake decel", &args[0])?,
            })
        }
        "match_ego_speed" => {
            expect_args(line, "match_ego_speed", &args, 1)?;
            Ok(ActionDef::MatchEgoSpeed {
                accel_limit: parse_expr_at(line, "match_ego_speed accel_limit", &args[0])?,
            })
        }
        other => err(
            line,
            format!(
                "unknown action `{other}` (known: change_lane, set_speed, hard_brake, \
                 match_ego_speed)"
            ),
        ),
    }
}

#[allow(clippy::too_many_lines)]
fn parse_def(text: &str) -> Result<ScenarioDef, FormatError> {
    let mut name: Option<String> = None;
    let mut tags: Option<Vec<String>> = None;
    let mut duration: Option<Expr> = None;
    let mut road: Option<RoadBuilder> = None;
    let mut params: Vec<ParamBuilder> = Vec::new();
    let mut ego: Option<EgoBuilder> = None;
    let mut actors: Vec<ActorBuilder> = Vec::new();

    let mut section = Section::Top;
    let mut header_seen = false;

    for (index, raw) in text.lines().enumerate() {
        let lineno = index + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }

        if !header_seen {
            let Some(version) = line.strip_prefix(HEADER_PREFIX) else {
                return err(
                    lineno,
                    format!(
                        "missing `{HEADER_PREFIX} {FORMAT_VERSION}` header \
                         (got {line:?})"
                    ),
                );
            };
            let version = version.trim();
            if version != FORMAT_VERSION {
                return err(
                    lineno,
                    format!(
                        "unsupported scenario format version `{version}` \
                         (this build supports {FORMAT_VERSION})"
                    ),
                );
            }
            header_seen = true;
            continue;
        }

        if let Some(heading) = line.strip_prefix('[') {
            let Some(heading) = heading.strip_suffix(']') else {
                return err(lineno, format!("unterminated section heading {line:?}"));
            };
            let heading = heading.trim();
            section = if heading == "road" {
                if road.is_some() {
                    return err(lineno, "duplicate `[road]` section");
                }
                road = Some(RoadBuilder::default());
                Section::Road
            } else if heading == "ego" {
                if ego.is_some() {
                    return err(lineno, "duplicate `[ego]` section");
                }
                ego = Some(EgoBuilder::default());
                Section::Ego
            } else if let Some(pname) = heading.strip_prefix("param ") {
                let pname = pname.trim();
                if !is_ident(pname) || pname == "mph" {
                    return err(lineno, format!("bad parameter name {pname:?}"));
                }
                if params.iter().any(|p| p.name == pname) {
                    return err(lineno, format!("duplicate parameter `{pname}`"));
                }
                params.push(ParamBuilder {
                    name: pname.to_string(),
                    jitter: None,
                    value: None,
                    spread: None,
                    line: lineno,
                });
                Section::Param(params.len() - 1)
            } else if let Some(label) = heading.strip_prefix("actor ") {
                let label = label.trim();
                if label.is_empty() {
                    return err(lineno, "actor label must not be empty");
                }
                if actors.iter().any(|a| a.label == label) {
                    return err(lineno, format!("duplicate actor label `{label}`"));
                }
                actors.push(ActorBuilder {
                    label: label.to_string(),
                    id: None,
                    kind: ActorKindDef::Vehicle,
                    kind_set: false,
                    lane: None,
                    s: None,
                    speed: None,
                    maneuvers: Vec::new(),
                    line: lineno,
                });
                Section::Actor(actors.len() - 1)
            } else if heading == "maneuver" {
                let Some(actor_index) = actors.len().checked_sub(1) else {
                    return err(lineno, "`[maneuver]` before any `[actor]`");
                };
                let actor = &mut actors[actor_index];
                if actor.kind_set && actor.kind == ActorKindDef::Obstacle {
                    return err(
                        lineno,
                        format!(
                            "actor `{}` is an obstacle and cannot have maneuvers",
                            actor.label
                        ),
                    );
                }
                actor.maneuvers.push(ManeuverBuilder {
                    line: lineno,
                    ..ManeuverBuilder::default()
                });
                Section::Maneuver(actor_index, actor.maneuvers.len() - 1)
            } else {
                return err(
                    lineno,
                    format!(
                        "unknown section `[{heading}]` (known: road, ego, \
                         param <name>, actor <label>, maneuver)"
                    ),
                );
            };
            continue;
        }

        let Some((key, value)) = line.split_once('=') else {
            return err(lineno, format!("expected `key = value`, got {line:?}"));
        };
        let key = key.trim();
        let value = value.trim();
        if value.is_empty() {
            return err(lineno, format!("empty value for `{key}`"));
        }

        match section {
            Section::Top => match key {
                "name" => set_once(&mut name, value.to_string(), lineno, "name")?,
                "tags" => {
                    let list: Vec<String> = value
                        .split(',')
                        .map(|t| t.trim().to_string())
                        .filter(|t| !t.is_empty())
                        .collect();
                    set_once(&mut tags, list, lineno, "tags")?;
                }
                "duration" => {
                    let e = parse_expr_at(lineno, "duration", value)?;
                    set_once(&mut duration, e, lineno, "duration")?;
                }
                other => {
                    return err(
                        lineno,
                        format!("unknown field `{other}` (top-level fields: name, tags, duration)"),
                    )
                }
            },
            Section::Road => {
                let r = road.as_mut().expect("in road section");
                match key {
                    "kind" => {
                        let kind = match value {
                            "straight" => RoadKind::Straight,
                            "curved" => RoadKind::Curved,
                            other => {
                                return err(
                                    lineno,
                                    format!("unknown road kind {other:?} (straight or curved)"),
                                )
                            }
                        };
                        set_once(&mut r.kind, kind, lineno, "kind")?;
                    }
                    "length" => {
                        let e = parse_expr_at(lineno, "length", value)?;
                        set_once(&mut r.length, e, lineno, "length")?;
                    }
                    "lanes" => {
                        let lanes: u32 = value.parse().map_err(|_| FormatError {
                            line: lineno,
                            message: format!("lanes must be an integer, got {value:?}"),
                        })?;
                        if lanes == 0 {
                            return err(lineno, "a road needs at least one lane");
                        }
                        set_once(&mut r.lanes, lanes, lineno, "lanes")?;
                    }
                    "lane_width" => {
                        let e = parse_expr_at(lineno, "lane_width", value)?;
                        set_once(&mut r.lane_width, e, lineno, "lane_width")?;
                    }
                    "radius" => {
                        let e = parse_expr_at(lineno, "radius", value)?;
                        set_once(&mut r.radius, e, lineno, "radius")?;
                    }
                    other => {
                        return err(
                            lineno,
                            format!(
                                "unknown field `{other}` in [road] (known: kind, length, \
                                 lanes, lane_width, radius)"
                            ),
                        )
                    }
                }
            }
            Section::Param(i) => {
                let p = &mut params[i];
                match key {
                    "jitter" => {
                        let kind = match value {
                            "none" => JitterKind::None,
                            "speed" => JitterKind::Speed,
                            "position" => JitterKind::Position,
                            "duration" => JitterKind::Duration,
                            other => {
                                return err(
                                    lineno,
                                    format!(
                                        "unknown jitter kind {other:?} (none, speed, \
                                         position, duration)"
                                    ),
                                )
                            }
                        };
                        set_once(&mut p.jitter, kind, lineno, "jitter")?;
                    }
                    "value" => {
                        let e = parse_expr_at(lineno, "value", value)?;
                        // A param's value may only reference params declared
                        // before it — file order is jitter-draw order, so
                        // forward references would be unresolvable.
                        for r in e.refs() {
                            if !params[..i].iter().any(|q| q.name == r) {
                                return err(
                                    lineno,
                                    format!(
                                        "param `{}` references `{r}`, which is not \
                                         declared before it",
                                        params[i].name
                                    ),
                                );
                            }
                        }
                        set_once(&mut params[i].value, e, lineno, "value")?;
                    }
                    "spread" => {
                        let spread: f64 = value.parse().map_err(|_| FormatError {
                            line: lineno,
                            message: format!("spread must be a number, got {value:?}"),
                        })?;
                        if !(spread.is_finite() && spread >= 0.0) {
                            return err(
                                lineno,
                                format!("spread must be finite and non-negative, got {value}"),
                            );
                        }
                        set_once(&mut p.spread, spread, lineno, "spread")?;
                    }
                    other => {
                        return err(
                            lineno,
                            format!(
                                "unknown field `{other}` in [param] (known: jitter, \
                                 value, spread)"
                            ),
                        )
                    }
                }
            }
            Section::Ego => {
                let e = ego.as_mut().expect("in ego section");
                match key {
                    "lane" => {
                        let lane: u32 = value.parse().map_err(|_| FormatError {
                            line: lineno,
                            message: format!("lane must be an integer, got {value:?}"),
                        })?;
                        set_once(&mut e.lane, lane, lineno, "lane")?;
                    }
                    "s" => {
                        let expr = parse_expr_at(lineno, "s", value)?;
                        set_once(&mut e.s, expr, lineno, "s")?;
                    }
                    "speed" => {
                        let expr = parse_expr_at(lineno, "speed", value)?;
                        set_once(&mut e.speed, expr, lineno, "speed")?;
                    }
                    other => {
                        return err(
                            lineno,
                            format!("unknown field `{other}` in [ego] (known: lane, s, speed)"),
                        )
                    }
                }
            }
            Section::Actor(i) => {
                let a = &mut actors[i];
                match key {
                    "id" => {
                        let id: u32 = value.parse().map_err(|_| FormatError {
                            line: lineno,
                            message: format!("id must be an integer, got {value:?}"),
                        })?;
                        if id == 0 {
                            return err(lineno, "actor id 0 is reserved for the ego");
                        }
                        set_once(&mut a.id, id, lineno, "id")?;
                    }
                    "kind" => {
                        if a.kind_set {
                            return err(lineno, "duplicate `kind`");
                        }
                        a.kind = match value {
                            "vehicle" => ActorKindDef::Vehicle,
                            "obstacle" => {
                                if a.speed.is_some() {
                                    return err(
                                        lineno,
                                        format!(
                                            "actor `{}` is an obstacle and cannot have a speed",
                                            a.label
                                        ),
                                    );
                                }
                                ActorKindDef::Obstacle
                            }
                            other => {
                                return err(
                                    lineno,
                                    format!("unknown actor kind {other:?} (vehicle or obstacle)"),
                                )
                            }
                        };
                        a.kind_set = true;
                    }
                    "lane" => {
                        let lane: u32 = value.parse().map_err(|_| FormatError {
                            line: lineno,
                            message: format!("lane must be an integer, got {value:?}"),
                        })?;
                        set_once(&mut a.lane, lane, lineno, "lane")?;
                    }
                    "s" => {
                        let expr = parse_expr_at(lineno, "s", value)?;
                        set_once(&mut a.s, expr, lineno, "s")?;
                    }
                    "speed" => {
                        if a.kind_set && a.kind == ActorKindDef::Obstacle {
                            return err(
                                lineno,
                                format!(
                                    "actor `{}` is an obstacle and cannot have a speed",
                                    a.label
                                ),
                            );
                        }
                        let expr = parse_expr_at(lineno, "speed", value)?;
                        set_once(&mut a.speed, expr, lineno, "speed")?;
                    }
                    other => {
                        return err(
                            lineno,
                            format!(
                                "unknown field `{other}` in [actor] (known: id, kind, \
                                 lane, s, speed)"
                            ),
                        )
                    }
                }
            }
            Section::Maneuver(ai, mi) => {
                let m = &mut actors[ai].maneuvers[mi];
                match key {
                    "trigger" => {
                        let t = parse_trigger(lineno, value)?;
                        set_once(&mut m.trigger, t, lineno, "trigger")?;
                    }
                    "action" => {
                        let a = parse_action(lineno, value)?;
                        set_once(&mut m.action, a, lineno, "action")?;
                    }
                    other => {
                        return err(
                            lineno,
                            format!(
                                "unknown field `{other}` in [maneuver] (known: trigger, action)"
                            ),
                        )
                    }
                }
            }
        }
    }

    if !header_seen {
        return err(
            0,
            format!("missing `{HEADER_PREFIX} {FORMAT_VERSION}` header"),
        );
    }

    // Completeness checks, with the section's opening line for context.
    let name = name.ok_or(FormatError {
        line: 0,
        message: "missing top-level `name`".to_string(),
    })?;
    let duration = duration.ok_or(FormatError {
        line: 0,
        message: "missing top-level `duration`".to_string(),
    })?;
    let road = road.ok_or(FormatError {
        line: 0,
        message: "missing `[road]` section".to_string(),
    })?;
    let ego = ego.ok_or(FormatError {
        line: 0,
        message: "missing `[ego]` section".to_string(),
    })?;

    let road_kind = road.kind.ok_or(FormatError {
        line: 0,
        message: "missing `kind` in [road]".to_string(),
    })?;
    let road = RoadDef {
        kind: road_kind,
        length: road.length.ok_or(FormatError {
            line: 0,
            message: "missing `length` in [road]".to_string(),
        })?,
        lanes: road.lanes.unwrap_or(3),
        lane_width: road
            .lane_width
            .unwrap_or(Expr::Num(Road::DEFAULT_LANE_WIDTH.value())),
        radius: road.radius,
    };
    match road_kind {
        RoadKind::Curved if road.radius.is_none() => {
            return err(0, "curved roads require `radius` in [road]");
        }
        RoadKind::Straight if road.radius.is_some() => {
            return err(0, "straight roads must not declare `radius`");
        }
        _ => {}
    }

    let params: Vec<ParamDef> = params
        .into_iter()
        .map(|p| {
            let jitter = p.jitter.unwrap_or(JitterKind::None);
            let value = p.value.ok_or(FormatError {
                line: p.line,
                message: format!("param `{}` is missing `value`", p.name),
            })?;
            match jitter {
                JitterKind::Position if p.spread.is_none() => {
                    return err(
                        p.line,
                        format!("position param `{}` requires `spread`", p.name),
                    );
                }
                JitterKind::Position => {}
                _ if p.spread.is_some() => {
                    return err(
                        p.line,
                        format!(
                            "param `{}`: `spread` only applies to position jitter",
                            p.name
                        ),
                    );
                }
                _ => {}
            }
            Ok(ParamDef {
                name: p.name,
                jitter,
                value,
                spread: p.spread,
            })
        })
        .collect::<Result<_, FormatError>>()?;

    let check_refs = |line: usize, what: &str, e: &Expr| -> Result<(), FormatError> {
        for r in e.refs() {
            if !params.iter().any(|p| p.name == r) {
                return err(
                    line,
                    format!("{what} references undeclared parameter `{r}`"),
                );
            }
        }
        Ok(())
    };
    check_refs(0, "duration", &duration)?;
    check_refs(0, "road.length", &road.length)?;
    check_refs(0, "road.lane_width", &road.lane_width)?;
    if let Some(radius) = &road.radius {
        check_refs(0, "road.radius", radius)?;
    }

    let ego = EgoDef {
        lane: ego.lane.ok_or(FormatError {
            line: 0,
            message: "missing `lane` in [ego]".to_string(),
        })?,
        s: ego.s.ok_or(FormatError {
            line: 0,
            message: "missing `s` in [ego]".to_string(),
        })?,
        speed: ego.speed.ok_or(FormatError {
            line: 0,
            message: "missing `speed` in [ego]".to_string(),
        })?,
    };
    check_refs(0, "ego.s", &ego.s)?;
    check_refs(0, "ego.speed", &ego.speed)?;

    let mut seen_ids = Vec::new();
    let actors: Vec<ActorDef> = actors
        .into_iter()
        .map(|a| {
            let id = a.id.ok_or(FormatError {
                line: a.line,
                message: format!("actor `{}` is missing `id`", a.label),
            })?;
            if seen_ids.contains(&id) {
                return err(a.line, format!("duplicate actor id {id}"));
            }
            seen_ids.push(id);
            let lane = a.lane.ok_or(FormatError {
                line: a.line,
                message: format!("actor `{}` is missing `lane`", a.label),
            })?;
            let s = a.s.ok_or(FormatError {
                line: a.line,
                message: format!("actor `{}` is missing `s`", a.label),
            })?;
            check_refs(a.line, &format!("actor `{}` s", a.label), &s)?;
            if a.kind == ActorKindDef::Vehicle && a.speed.is_none() {
                return err(
                    a.line,
                    format!("vehicle actor `{}` is missing `speed`", a.label),
                );
            }
            if a.kind == ActorKindDef::Obstacle && !a.maneuvers.is_empty() {
                return err(
                    a.line,
                    format!(
                        "actor `{}` is an obstacle and cannot have maneuvers",
                        a.label
                    ),
                );
            }
            if let Some(speed) = &a.speed {
                check_refs(a.line, &format!("actor `{}` speed", a.label), speed)?;
            }
            let maneuvers = a
                .maneuvers
                .into_iter()
                .map(|m| {
                    let trigger = m.trigger.ok_or(FormatError {
                        line: m.line,
                        message: format!("maneuver of actor `{}` is missing `trigger`", a.label),
                    })?;
                    let action = m.action.ok_or(FormatError {
                        line: m.line,
                        message: format!("maneuver of actor `{}` is missing `action`", a.label),
                    })?;
                    for e in trigger_exprs(&trigger)
                        .into_iter()
                        .chain(action_exprs(&action))
                    {
                        check_refs(m.line, &format!("maneuver of actor `{}`", a.label), e)?;
                    }
                    Ok(ManeuverDef { trigger, action })
                })
                .collect::<Result<Vec<_>, FormatError>>()?;
            Ok(ActorDef {
                label: a.label,
                id,
                kind: a.kind,
                lane,
                s,
                speed: a.speed,
                maneuvers,
            })
        })
        .collect::<Result<_, FormatError>>()?;

    Ok(ScenarioDef {
        name,
        tags: tags.unwrap_or_default(),
        duration,
        road,
        params,
        ego,
        actors,
    })
}

fn trigger_exprs(t: &TriggerDef) -> Vec<&Expr> {
    match t {
        TriggerDef::Immediately => Vec::new(),
        TriggerDef::AtTime(e)
        | TriggerDef::GapAhead(e)
        | TriggerDef::GapBehind(e)
        | TriggerDef::EgoPasses(e) => vec![e],
    }
}

fn action_exprs(a: &ActionDef) -> Vec<&Expr> {
    match a {
        ActionDef::ChangeLane { duration, .. } => vec![duration],
        ActionDef::SetSpeed {
            target,
            accel_limit,
        } => vec![target, accel_limit],
        ActionDef::HardBrake { decel } => vec![decel],
        ActionDef::MatchEgoSpeed { accel_limit } => vec![accel_limit],
    }
}

// ---------------------------------------------------------------------------
// Canonical writer
// ---------------------------------------------------------------------------

fn write_def(def: &ScenarioDef) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER_PREFIX} {FORMAT_VERSION}");
    out.push('\n');
    let _ = writeln!(out, "name = {}", def.name);
    if !def.tags.is_empty() {
        let _ = writeln!(out, "tags = {}", def.tags.join(", "));
    }
    let _ = writeln!(out, "duration = {}", def.duration);
    out.push('\n');
    let _ = writeln!(out, "[road]");
    let _ = writeln!(
        out,
        "kind = {}",
        match def.road.kind {
            RoadKind::Straight => "straight",
            RoadKind::Curved => "curved",
        }
    );
    let _ = writeln!(out, "length = {}", def.road.length);
    let _ = writeln!(out, "lanes = {}", def.road.lanes);
    let _ = writeln!(out, "lane_width = {}", def.road.lane_width);
    if let Some(radius) = &def.road.radius {
        let _ = writeln!(out, "radius = {radius}");
    }
    for p in &def.params {
        out.push('\n');
        let _ = writeln!(out, "[param {}]", p.name);
        let _ = writeln!(
            out,
            "jitter = {}",
            match p.jitter {
                JitterKind::None => "none",
                JitterKind::Speed => "speed",
                JitterKind::Position => "position",
                JitterKind::Duration => "duration",
            }
        );
        if let Some(spread) = p.spread {
            let _ = writeln!(out, "spread = {spread:?}");
        }
        let _ = writeln!(out, "value = {}", p.value);
    }
    out.push('\n');
    let _ = writeln!(out, "[ego]");
    let _ = writeln!(out, "lane = {}", def.ego.lane);
    let _ = writeln!(out, "s = {}", def.ego.s);
    let _ = writeln!(out, "speed = {}", def.ego.speed);
    for a in &def.actors {
        out.push('\n');
        let _ = writeln!(out, "[actor {}]", a.label);
        let _ = writeln!(out, "id = {}", a.id);
        let _ = writeln!(
            out,
            "kind = {}",
            match a.kind {
                ActorKindDef::Vehicle => "vehicle",
                ActorKindDef::Obstacle => "obstacle",
            }
        );
        let _ = writeln!(out, "lane = {}", a.lane);
        let _ = writeln!(out, "s = {}", a.s);
        if let Some(speed) = &a.speed {
            let _ = writeln!(out, "speed = {speed}");
        }
        for m in &a.maneuvers {
            out.push('\n');
            let _ = writeln!(out, "[maneuver]");
            let _ = writeln!(
                out,
                "trigger = {}",
                match &m.trigger {
                    TriggerDef::Immediately => "immediately".to_string(),
                    TriggerDef::AtTime(e) => format!("at_time({e})"),
                    TriggerDef::GapAhead(e) => format!("gap_ahead({e})"),
                    TriggerDef::GapBehind(e) => format!("gap_behind({e})"),
                    TriggerDef::EgoPasses(e) => format!("ego_passes({e})"),
                }
            );
            let _ = writeln!(
                out,
                "action = {}",
                match &m.action {
                    ActionDef::ChangeLane { target, duration } =>
                        format!("change_lane({target}, {duration})"),
                    ActionDef::SetSpeed {
                        target,
                        accel_limit,
                    } => format!("set_speed({target}, {accel_limit})"),
                    ActionDef::HardBrake { decel } => format!("hard_brake({decel})"),
                    ActionDef::MatchEgoSpeed { accel_limit } =>
                        format!("match_ego_speed({accel_limit})"),
                }
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "\
zhuyi-scenario v1
name = Minimal
duration = 10.0

[road]
kind = straight
length = 500.0

[param v]
jitter = speed
value = mph(30.0)

[ego]
lane = 1
s = 50.0
speed = v

[actor lead]
id = 1
lane = 1
s = 90.0
speed = v

[maneuver]
trigger = at_time(2.0)
action = hard_brake(6.0)
";

    #[test]
    fn parses_and_round_trips() {
        let def = ScenarioDef::parse(MINIMAL).expect("parse");
        assert_eq!(def.name, "Minimal");
        assert_eq!(def.road.lanes, 3);
        assert_eq!(def.actors.len(), 1);
        let text = def.to_text();
        let reparsed = ScenarioDef::parse(&text).expect("reparse");
        assert_eq!(def, reparsed);
        assert_eq!(text, reparsed.to_text());
    }

    #[test]
    fn instantiates_with_jitter_parity() {
        let def = ScenarioDef::parse(MINIMAL).expect("parse");
        let nominal = def.instantiate(0).expect("seed 0");
        assert_eq!(nominal.ego_speed, MetersPerSecond::from(Mph(30.0)));
        // Seed 7 draws through the same Jitter stream as a hand-coded
        // builder making one speed draw.
        let jittered = def.instantiate(7).expect("seed 7");
        let mut j = Jitter::new(7);
        assert_eq!(
            jittered.ego_speed,
            j.speed(MetersPerSecond::from(Mph(30.0)))
        );
        assert_ne!(nominal.ego_speed, jittered.ego_speed);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let text = MINIMAL.replace("zhuyi-scenario v1", "zhuyi-scenario v2");
        let e = ScenarioDef::parse(&text).unwrap_err();
        assert!(
            e.to_string()
                .contains("unsupported scenario format version"),
            "{e}"
        );
    }

    #[test]
    fn unknown_field_is_rejected_with_line_number() {
        let text = MINIMAL.replace("length = 500.0", "length = 500.0\nbanked = yes");
        let e = ScenarioDef::parse(&text).unwrap_err();
        assert!(e.to_string().contains("unknown field `banked`"), "{e}");
        assert!(e.line > 0, "{e}");
    }

    #[test]
    fn negative_geometry_is_rejected_at_instantiation() {
        for (road, hint) in [
            (
                "kind = straight\nlength = -500.0",
                "road.length must be positive",
            ),
            // 3,000 m around a 400 m radius sweeps 7.5 rad: the arc would
            // overlap itself.
            (
                "kind = curved\nlength = 3000.0\nradius = 400.0",
                "road.length 3000 reaches a full turn of road.radius 400",
            ),
        ] {
            let text = MINIMAL.replace("kind = straight\nlength = 500.0", road);
            let def = ScenarioDef::parse(&text).expect("structurally fine");
            let e = def.instantiate(0).unwrap_err();
            assert!(e.to_string().contains(hint), "{e}");
        }
    }

    #[test]
    fn nan_geometry_is_rejected_at_instantiation() {
        let text = MINIMAL.replace("length = 500.0", "length = 0.0 / 0.0");
        let def = ScenarioDef::parse(&text).expect("structurally fine");
        let e = def.instantiate(0).unwrap_err();
        assert!(e.to_string().contains("non-finite"), "{e}");
    }

    #[test]
    fn unsatisfiable_at_time_trigger_is_rejected() {
        let text = MINIMAL.replace("at_time(2.0)", "at_time(99.0)");
        let def = ScenarioDef::parse(&text).expect("structurally fine");
        let e = def.instantiate(0).unwrap_err();
        assert!(e.to_string().contains("unsatisfiable"), "{e}");
    }

    #[test]
    fn obstacles_cannot_move_or_maneuver() {
        let speedy = MINIMAL.replace("id = 1", "id = 1\nkind = obstacle");
        let e = ScenarioDef::parse(&speedy).unwrap_err();
        assert!(e.to_string().contains("obstacle"), "{e}");
    }

    #[test]
    fn undeclared_parameter_is_rejected() {
        let text = MINIMAL.replace("speed = v", "speed = w");
        let e = ScenarioDef::parse(&text).unwrap_err();
        assert!(
            e.to_string().contains("undeclared parameter `w`")
                || e.to_string().contains("references `w`"),
            "{e}"
        );
    }
}
