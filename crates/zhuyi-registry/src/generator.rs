//! Scenario corpus generators.
//!
//! Two generator kinds turn one definition (or nothing at all) into many,
//! both driven by a small `.gen` config file and both *replayable*: the
//! output is a pure function of `(config, seed)`, holding the fleet's
//! byte-identical-export invariant all the way down to generated corpora.
//!
//! ```text
//! zhuyi-generator v1
//! kind = grid                  # combinatorial axis expansion
//! prefix = grid
//! base = 2_cut_in.scn          # resolved relative to the config file
//!
//! [axis cutter_s]
//! values = 150.0, 160.0, 170.0
//! ```
//!
//! A **grid** takes a base definition and a list of parameter axes and
//! emits the row-major cross product, substituting each axis value into
//! the named `[param]`'s `value` expression. A **fuzz** generator
//! (`kind = fuzz`, `count = N`, `seed = S`) samples `N` scenarios from
//! four structural templates (cut-in, braking lead, side traffic, tailing
//! follower) with a seeded RNG; all sampled quantities land in the emitted
//! definitions as literals, so replay needs nothing but the same config.
//!
//! Generated definitions still draw per-seed jitter at instantiation time
//! like any other definition — the generator seed decides *which*
//! scenarios exist, the sweep seed decides each run's perturbation.

use std::fmt;
use std::fs;
use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::expr::{parse_expr, Expr};
use crate::format::{
    ActionDef, ActorDef, ActorKindDef, EgoDef, FormatError, JitterKind, ManeuverDef, ParamDef,
    RoadDef, RoadKind, ScenarioDef, TriggerDef,
};

const HEADER_PREFIX: &str = "zhuyi-generator";

/// The generator config format version this build reads.
pub const GENERATOR_VERSION: &str = "v1";

/// Largest corpus a single config may produce.
pub const MAX_GENERATED: usize = 10_000;

/// An error expanding a generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for GeneratorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for GeneratorError {}

fn gen_err<T>(message: String) -> Result<T, GeneratorError> {
    Err(GeneratorError { message })
}

/// A parsed `.gen` config.
#[derive(Debug, Clone, PartialEq)]
pub enum GeneratorConfig {
    /// Combinatorial axis expansion over a base definition.
    Grid(GridConfig),
    /// Seeded random scenario fuzzer.
    Fuzz(FuzzConfig),
}

/// Config of a grid generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GridConfig {
    /// Name prefix of generated scenarios (`{prefix}-{index:04}`).
    pub prefix: String,
    /// Base definition file, relative to the config file's directory.
    pub base: String,
    /// Parameter axes, outermost first (row-major expansion).
    pub axes: Vec<AxisDef>,
}

/// One grid axis: the values substituted into a base `[param]`.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisDef {
    /// Name of the base definition's parameter to vary.
    pub param: String,
    /// Replacement `value` expressions, in expansion order.
    pub values: Vec<Expr>,
}

/// Config of a fuzz generator.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzConfig {
    /// Name prefix of generated scenarios (`{prefix}-{index:04}`).
    pub prefix: String,
    /// How many scenarios to sample.
    pub count: usize,
    /// RNG seed; `(config, seed)` fully determines the corpus.
    pub seed: u64,
}

impl GeneratorConfig {
    /// Parses a `.gen` config from its textual form.
    ///
    /// # Errors
    ///
    /// Returns a [`FormatError`] (with line number) for version mismatches,
    /// unknown fields, missing required fields, and kind/field mismatches
    /// (e.g. axes on a fuzz config).
    pub fn parse(text: &str) -> Result<Self, FormatError> {
        parse_config(text)
    }

    /// Loads a config file and expands it, resolving a grid's `base`
    /// relative to the config's directory.
    ///
    /// # Errors
    ///
    /// Returns a [`GeneratorError`] for unreadable files, config parse
    /// errors, and expansion failures.
    pub fn expand_file(path: impl AsRef<Path>) -> Result<Vec<ScenarioDef>, GeneratorError> {
        let path = path.as_ref();
        let text = fs::read_to_string(path).map_err(|e| GeneratorError {
            message: format!("cannot read {}: {e}", path.display()),
        })?;
        let config = Self::parse(&text).map_err(|e| GeneratorError {
            message: format!("{}: {e}", path.display()),
        })?;
        match &config {
            GeneratorConfig::Fuzz(fuzz) => Ok(fuzz.generate()),
            GeneratorConfig::Grid(grid) => {
                let base_path = path
                    .parent()
                    .unwrap_or_else(|| Path::new("."))
                    .join(&grid.base);
                let base_text = fs::read_to_string(&base_path).map_err(|e| GeneratorError {
                    message: format!("cannot read grid base {}: {e}", base_path.display()),
                })?;
                let base = ScenarioDef::parse(&base_text).map_err(|e| GeneratorError {
                    message: format!("{}: {e}", base_path.display()),
                })?;
                grid.expand(&base)
            }
        }
    }
}

impl GridConfig {
    /// Expands the row-major cross product of the axes over `base`.
    ///
    /// # Errors
    ///
    /// Returns a [`GeneratorError`] when an axis names a parameter the
    /// base does not declare, or the product exceeds [`MAX_GENERATED`].
    pub fn expand(&self, base: &ScenarioDef) -> Result<Vec<ScenarioDef>, GeneratorError> {
        for axis in &self.axes {
            if !base.params.iter().any(|p| p.name == axis.param) {
                return gen_err(format!(
                    "axis `{}` is not a [param] of base `{}`",
                    axis.param, base.name
                ));
            }
        }
        let total: usize = self.axes.iter().map(|a| a.values.len()).product();
        if total == 0 {
            return gen_err("grid axes must have at least one value each".to_string());
        }
        if total > MAX_GENERATED {
            return gen_err(format!(
                "grid would generate {total} scenarios (max {MAX_GENERATED})"
            ));
        }
        let mut out = Vec::with_capacity(total);
        for index in 0..total {
            let mut def = base.clone();
            def.name = format!("{}-{index:04}", self.prefix);
            add_tag(&mut def, "generated");
            add_tag(&mut def, "grid");
            // Row-major: the last axis varies fastest.
            let mut rem = index;
            for axis in self.axes.iter().rev() {
                let pick = rem % axis.values.len();
                rem /= axis.values.len();
                let param = def
                    .params
                    .iter_mut()
                    .find(|p| p.name == axis.param)
                    .expect("validated above");
                param.value = axis.values[pick].clone();
            }
            out.push(def);
        }
        Ok(out)
    }
}

fn add_tag(def: &mut ScenarioDef, tag: &str) {
    if !def.tags.iter().any(|t| t == tag) {
        def.tags.push(tag.to_string());
    }
}

impl FuzzConfig {
    /// Samples `count` scenarios from the template library. Deterministic:
    /// the same config yields the same definitions, byte for byte.
    pub fn generate(&self) -> Vec<ScenarioDef> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.count)
            .map(|index| fuzz_one(&mut rng, &format!("{}-{index:04}", self.prefix)))
            .collect()
    }
}

fn num(n: f64) -> Expr {
    Expr::Num(n)
}

fn param(name: &str, jitter: JitterKind, value: Expr, spread: Option<f64>) -> ParamDef {
    ParamDef {
        name: name.to_string(),
        jitter,
        value,
        spread,
    }
}

/// Samples one scenario. Ranges are chosen so every template passes
/// instantiation validation at every sweep seed (jitter moves positions by
/// at most `spread` meters and speeds by ±1%) and stays clear of
/// spawn-overlap with the ego at s = 50 m. Curved roads stay under one
/// full turn: 3,000 m at a radius of at least 500 m sweeps at most 6 rad.
fn fuzz_one(rng: &mut StdRng, name: &str) -> ScenarioDef {
    let curved = rng.gen_range(0..4u32) == 0;
    let radius = if curved {
        Some(num(round2(rng.gen_range(500.0..800.0))))
    } else {
        None
    };
    let road = RoadDef {
        kind: if curved {
            RoadKind::Curved
        } else {
            RoadKind::Straight
        },
        length: num(3000.0),
        lanes: 3,
        lane_width: num(3.7),
        radius,
    };
    let ego_mph = round2(rng.gen_range(30.0..70.0));
    let duration = round2(rng.gen_range(12.0..20.0));
    let mut params = vec![param(
        "v",
        JitterKind::Speed,
        Expr::Mph(Box::new(num(ego_mph))),
        None,
    )];
    let mut tags = vec!["generated".to_string(), "fuzz".to_string()];
    let template = rng.gen_range(0..4u32);
    let actors = match template {
        0 => {
            // Cut-in: an adjacent-lane actor merges in front of the ego.
            tags.push("cut-in".to_string());
            let lane = if rng.gen_range(0..2u32) == 0 { 0 } else { 2 };
            let actor_mph = round2(rng.gen_range(20.0..50.0));
            params.push(param(
                "actor_v",
                JitterKind::Speed,
                Expr::Mph(Box::new(num(actor_mph))),
                None,
            ));
            params.push(param(
                "cutter_s",
                JitterKind::Position,
                num(round2(rng.gen_range(80.0..200.0))),
                Some(4.0),
            ));
            vec![ActorDef {
                label: "cutter".to_string(),
                id: 1,
                kind: ActorKindDef::Vehicle,
                lane,
                s: Expr::Ref("cutter_s".to_string()),
                speed: Some(Expr::Ref("actor_v".to_string())),
                maneuvers: vec![ManeuverDef {
                    trigger: TriggerDef::GapAhead(num(round2(rng.gen_range(15.0..45.0)))),
                    action: ActionDef::ChangeLane {
                        target: 1,
                        duration: num(round2(rng.gen_range(1.5..3.0))),
                    },
                }],
            }]
        }
        1 => {
            // Braking lead: a same-lane lead brakes hard shortly in.
            tags.push("braking-lead".to_string());
            params.push(param(
                "brake_at",
                JitterKind::Duration,
                num(round2(rng.gen_range(2.0..6.0))),
                None,
            ));
            let lead_gap = round2(rng.gen_range(40.0..120.0));
            vec![ActorDef {
                label: "lead".to_string(),
                id: 1,
                kind: ActorKindDef::Vehicle,
                lane: 1,
                s: Expr::Add(Box::new(num(50.0)), Box::new(num(lead_gap))),
                speed: Some(Expr::Ref("v".to_string())),
                maneuvers: vec![ManeuverDef {
                    trigger: TriggerDef::AtTime(Expr::Ref("brake_at".to_string())),
                    action: ActionDef::HardBrake {
                        decel: num(round2(rng.gen_range(4.0..7.0))),
                    },
                }],
            }]
        }
        2 => {
            // Side traffic: cruisers pin both adjacent lanes.
            tags.push("side-traffic".to_string());
            params.push(param(
                "left_s",
                JitterKind::Position,
                num(round2(rng.gen_range(10.0..130.0))),
                Some(3.0),
            ));
            params.push(param(
                "right_s",
                JitterKind::Position,
                num(round2(rng.gen_range(10.0..130.0))),
                Some(3.0),
            ));
            let pace = round2(rng.gen_range(0.9..1.1));
            vec![
                ActorDef {
                    label: "left".to_string(),
                    id: 1,
                    kind: ActorKindDef::Vehicle,
                    lane: 2,
                    s: Expr::Ref("left_s".to_string()),
                    speed: Some(Expr::Ref("v".to_string())),
                    maneuvers: Vec::new(),
                },
                ActorDef {
                    label: "right".to_string(),
                    id: 2,
                    kind: ActorKindDef::Vehicle,
                    lane: 0,
                    s: Expr::Ref("right_s".to_string()),
                    speed: Some(Expr::Mul(
                        Box::new(Expr::Ref("v".to_string())),
                        Box::new(num(pace)),
                    )),
                    maneuvers: Vec::new(),
                },
            ]
        }
        _ => {
            // Tailing follower: an actor behind the ego matches its speed.
            tags.push("follower".to_string());
            vec![ActorDef {
                label: "follower".to_string(),
                id: 1,
                kind: ActorKindDef::Vehicle,
                lane: 1,
                s: num(round2(rng.gen_range(10.0..32.0))),
                speed: Some(Expr::Ref("v".to_string())),
                maneuvers: vec![ManeuverDef {
                    trigger: TriggerDef::Immediately,
                    action: ActionDef::MatchEgoSpeed {
                        accel_limit: num(round2(rng.gen_range(1.5..3.0))),
                    },
                }],
            }]
        }
    };
    ScenarioDef {
        name: name.to_string(),
        tags,
        duration: num(duration),
        road,
        params,
        ego: EgoDef {
            lane: 1,
            s: num(50.0),
            speed: Expr::Ref("v".to_string()),
        },
        actors,
    }
}

/// Rounds a sampled value to 2 decimals — purely cosmetic (readable
/// generated files); determinism does not depend on it.
fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

// ---------------------------------------------------------------------------
// Config parsing
// ---------------------------------------------------------------------------

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, FormatError> {
    Err(FormatError {
        line,
        message: message.into(),
    })
}

#[allow(clippy::too_many_lines)]
fn parse_config(text: &str) -> Result<GeneratorConfig, FormatError> {
    let mut kind: Option<&str> = None;
    let mut prefix: Option<String> = None;
    let mut base: Option<String> = None;
    let mut count: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut axes: Vec<AxisDef> = Vec::new();
    let mut in_axis = false;
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
                    format!("missing `{HEADER_PREFIX} {GENERATOR_VERSION}` header (got {line:?})"),
                );
            };
            let version = version.trim();
            if version != GENERATOR_VERSION {
                return err(
                    lineno,
                    format!(
                        "unsupported generator config version `{version}` \
                         (this build supports {GENERATOR_VERSION})"
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
            let Some(pname) = heading.trim().strip_prefix("axis ") else {
                return err(
                    lineno,
                    format!(
                        "unknown section `[{}]` (known: axis <param>)",
                        heading.trim()
                    ),
                );
            };
            let pname = pname.trim();
            if axes.iter().any(|a| a.param == pname) {
                return err(lineno, format!("duplicate axis `{pname}`"));
            }
            axes.push(AxisDef {
                param: pname.to_string(),
                values: Vec::new(),
            });
            in_axis = true;
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return err(lineno, format!("expected `key = value`, got {line:?}"));
        };
        let key = key.trim();
        let value = value.trim();
        if in_axis {
            if key != "values" {
                return err(
                    lineno,
                    format!("unknown field `{key}` in [axis] (known: values)"),
                );
            }
            let axis = axes.last_mut().expect("in axis section");
            if !axis.values.is_empty() {
                return err(lineno, "duplicate `values`");
            }
            for piece in value.split(',') {
                let expr = parse_expr(piece).map_err(|e| FormatError {
                    line: lineno,
                    message: format!("bad axis value {piece:?}: {e}"),
                })?;
                axis.values.push(expr);
            }
            continue;
        }
        match key {
            "kind" => match value {
                "grid" => kind = Some("grid"),
                "fuzz" => kind = Some("fuzz"),
                other => {
                    return err(
                        lineno,
                        format!("unknown generator kind {other:?} (grid or fuzz)"),
                    )
                }
            },
            "prefix" => prefix = Some(value.to_string()),
            "base" => base = Some(value.to_string()),
            "count" => {
                count = Some(value.parse().map_err(|_| FormatError {
                    line: lineno,
                    message: format!("count must be an integer, got {value:?}"),
                })?);
            }
            "seed" => {
                seed = Some(value.parse().map_err(|_| FormatError {
                    line: lineno,
                    message: format!("seed must be an integer, got {value:?}"),
                })?);
            }
            other => {
                return err(
                    lineno,
                    format!("unknown field `{other}` (known: kind, prefix, base, count, seed)"),
                )
            }
        }
    }

    if !header_seen {
        return err(
            0,
            format!("missing `{HEADER_PREFIX} {GENERATOR_VERSION}` header"),
        );
    }
    let prefix = prefix.unwrap_or_else(|| "gen".to_string());
    match kind {
        Some("grid") => {
            if count.is_some() || seed.is_some() {
                return err(0, "`count`/`seed` only apply to fuzz generators");
            }
            let base = base.ok_or(FormatError {
                line: 0,
                message: "grid generators require `base`".to_string(),
            })?;
            if axes.is_empty() {
                return err(0, "grid generators require at least one [axis]");
            }
            Ok(GeneratorConfig::Grid(GridConfig { prefix, base, axes }))
        }
        Some("fuzz") => {
            if base.is_some() || !axes.is_empty() {
                return err(0, "`base`/[axis] only apply to grid generators");
            }
            let count = count.ok_or(FormatError {
                line: 0,
                message: "fuzz generators require `count`".to_string(),
            })?;
            if count == 0 || count > MAX_GENERATED {
                return err(0, format!("count must be in 1..={MAX_GENERATED}"));
            }
            let seed = seed.ok_or(FormatError {
                line: 0,
                message: "fuzz generators require `seed` (replay = (config, seed))".to_string(),
            })?;
            Ok(GeneratorConfig::Fuzz(FuzzConfig {
                prefix,
                count,
                seed,
            }))
        }
        Some(_) => unreachable!("kind is grid or fuzz"),
        None => err(0, "missing `kind` (grid or fuzz)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzzed_curved_roads_stay_under_one_turn() {
        let defs = FuzzConfig {
            prefix: "turn".to_string(),
            count: 1000,
            seed: 20221207,
        }
        .generate();
        let mut curved = 0;
        for def in defs.iter().filter(|d| d.road.kind == RoadKind::Curved) {
            let env = std::collections::BTreeMap::new();
            let literal = |e: &Expr| e.eval(&env).expect("literal geometry");
            let length = literal(&def.road.length);
            let radius = literal(
                def.road
                    .radius
                    .as_ref()
                    .expect("curved roads carry a radius"),
            );
            assert!(
                length < std::f64::consts::TAU * radius.abs(),
                "{}: {length} m around radius {radius} m overlaps itself",
                def.name
            );
            curved += 1;
        }
        assert!(curved > 150, "the fuzz drew only {curved} curved roads");
    }

    #[test]
    fn fuzz_is_deterministic_and_valid() {
        let config = FuzzConfig {
            prefix: "fz".to_string(),
            count: 40,
            seed: 9,
        };
        let a = config.generate();
        let b = config.generate();
        assert_eq!(a, b);
        assert_eq!(a.len(), 40);
        for def in &a {
            // Every generated definition round-trips and instantiates at
            // several sweep seeds.
            let text = def.to_text();
            assert_eq!(&ScenarioDef::parse(&text).expect("reparse"), def);
            for seed in [0, 1, 7] {
                def.instantiate(seed)
                    .unwrap_or_else(|e| panic!("{}: {e}", def.name));
            }
        }
        // Different generator seeds sample different corpora.
        let other = FuzzConfig { seed: 10, ..config }.generate();
        assert_ne!(a, other);
    }

    #[test]
    fn grid_expands_row_major() {
        let base = ScenarioDef::parse(
            "zhuyi-scenario v1\nname = Base\nduration = 10.0\n\n\
             [road]\nkind = straight\nlength = 500.0\n\n\
             [param x]\njitter = none\nvalue = 1.0\n\n\
             [param y]\njitter = none\nvalue = 2.0\n\n\
             [ego]\nlane = 1\ns = 50.0\nspeed = x + y\n",
        )
        .expect("base");
        let grid = GridConfig {
            prefix: "g".to_string(),
            base: "base.scn".to_string(),
            axes: vec![
                AxisDef {
                    param: "x".to_string(),
                    values: vec![Expr::Num(10.0), Expr::Num(20.0)],
                },
                AxisDef {
                    param: "y".to_string(),
                    values: vec![Expr::Num(1.0), Expr::Num(2.0), Expr::Num(3.0)],
                },
            ],
        };
        let defs = grid.expand(&base).expect("expand");
        assert_eq!(defs.len(), 6);
        assert_eq!(defs[0].name, "g-0000");
        // Last axis varies fastest: (10,1), (10,2), (10,3), (20,1), ...
        let speeds: Vec<f64> = defs
            .iter()
            .map(|d| d.instantiate(0).expect("ok").ego_speed.value())
            .collect();
        assert_eq!(speeds, vec![11.0, 12.0, 13.0, 21.0, 22.0, 23.0]);
        assert!(defs[0].tags.iter().any(|t| t == "generated"));

        let missing = GridConfig {
            axes: vec![AxisDef {
                param: "zzz".to_string(),
                values: vec![Expr::Num(1.0)],
            }],
            ..grid
        };
        let e = missing.expand(&base).unwrap_err();
        assert!(e.to_string().contains("not a [param]"), "{e}");
    }

    #[test]
    fn config_parse_and_validation() {
        let fuzz = GeneratorConfig::parse(
            "zhuyi-generator v1\nkind = fuzz\nprefix = fz\ncount = 5\nseed = 3\n",
        )
        .expect("fuzz config");
        assert_eq!(
            fuzz,
            GeneratorConfig::Fuzz(FuzzConfig {
                prefix: "fz".to_string(),
                count: 5,
                seed: 3
            })
        );
        let e = GeneratorConfig::parse("zhuyi-generator v9\nkind = fuzz\n").unwrap_err();
        assert!(
            e.to_string()
                .contains("unsupported generator config version"),
            "{e}"
        );
        let e = GeneratorConfig::parse("zhuyi-generator v1\nkind = fuzz\ncount = 5\n").unwrap_err();
        assert!(e.to_string().contains("require `seed`"), "{e}");
        let e =
            GeneratorConfig::parse("zhuyi-generator v1\nkind = grid\nbase = x.scn\n").unwrap_err();
        assert!(e.to_string().contains("at least one [axis]"), "{e}");
    }
}
