//! Batched-vs-per-rate audit + retirement accounting over the corpus.
//!
//! `certprobe [seeds] [--check]` runs every Table-1 scenario × jitter
//! seed × the paper rate grid through both the per-rate probe and the
//! lane-batched verdict pass, asserts verdict equality everywhere, and
//! reports how many ticks lane retirement saved. This is the tuning loop
//! for the `av_sim::batch::cert` envelopes (`ZHUYI_CERT_DEBUG=1` explains
//! every decline).
//!
//! `--check` additionally enforces per-scenario retirement-rate floors
//! and a per-scenario ceiling on idle-tick prefilter fallbacks, so an
//! envelope regression that quietly stops retiring lanes, or a prefilter
//! that stops settling pairs, fails CI instead of just slowing the sweep
//! down. A seed count of 0, which would leave nothing to measure, is a
//! usage error (exit 2), like any other malformed argument.
use av_core::prelude::*;
use av_scenarios::catalog::{Scenario, ScenarioId, PAPER_RATE_GRID};
use av_scenarios::sweep::SweepContext;
use std::process::ExitCode;

const USAGE: &str = "USAGE: certprobe [seeds] [--check]   (seeds >= 1, default 5)";

/// Minimum acceptable retirement percentage per Table-1 scenario,
/// calibrated against `certprobe 3` (measured: Cut-out 37.4, Cut-out fast
/// 58.0, Cut-in 17.0, Challenging cut-in 36.2, curved 47.0, Vehicle
/// following 54.1, Front & right 77.6 / 79.5 / 55.2) with a wide margin
/// for jitter-seed variation. A scenario dropping below its floor means
/// the certification envelopes stopped retiring lanes there.
const RETIREMENT_FLOORS: [(ScenarioId, f64); 9] = [
    (ScenarioId::CutOut, 30.0),
    (ScenarioId::CutOutFast, 50.0),
    (ScenarioId::CutIn, 11.0),
    (ScenarioId::ChallengingCutIn, 29.0),
    (ScenarioId::ChallengingCutInCurved, 39.0),
    (ScenarioId::VehicleFollowing, 46.0),
    (ScenarioId::FrontRightActivity1, 70.0),
    (ScenarioId::FrontRightActivity2, 72.0),
    (ScenarioId::FrontRightActivity3, 47.0),
];

/// Maximum share of a scenario's simulated lane ticks, in percent, that
/// may fall back from the straight-road idle prefilter to the
/// world-frame collision check. `certprobe 3` measures Cut-out 18 of
/// 53,901, Cut-out fast 73 of 25,884 and Challenging cut-in 48 of
/// 51,897 (at most 0.3 %), and 0 elsewhere; before the prefilter settled
/// side-by-side pairs, Cut-out read 35,649 and Cut-out fast 17,448.
const FALLBACK_CEILING: f64 = 1.0;

fn main() -> ExitCode {
    let (seeds, check) = zhuyi_bench::command_line(USAGE, |args| {
        let (mut seeds, mut check) = (5u64, false);
        for arg in args {
            if arg == "--check" {
                check = true;
            } else if let Ok(n @ 1..) = arg.parse() {
                seeds = n;
            } else {
                return Err(format!(
                    "bad argument {arg:?}: expected a seed count of at least 1 or --check"
                ));
            }
        }
        Ok((seeds, check))
    });
    let mut tot_ticks = 0u64;
    let mut tot_retired = 0u64;
    let mut mismatches = 0usize;
    let mut below_floor = 0usize;
    let mut above_ceiling = 0usize;
    for id in ScenarioId::ALL {
        let mut ticks = 0u64;
        let mut retired = 0u64;
        let mut certified = 0usize;
        let mut collided = 0usize;
        let mut idle = 0u64;
        let mut fallbacks = 0u64;
        let mut declines = 0u64;
        for seed in 0..seeds {
            let scenario = Scenario::build(id, seed);
            let mut context = SweepContext::new(&scenario);
            let rates: Vec<Fpr> = PAPER_RATE_GRID.iter().map(|&c| Fpr(c as f64)).collect();
            let (verdicts, stats) = context.collides_batched_with_stats(&rates);
            for (k, &rate) in rates.iter().enumerate() {
                let reference = context.collides_at(rate);
                if verdicts[k] != reference {
                    mismatches += 1;
                    eprintln!(
                        "MISMATCH {id} seed {seed} rate {rate}: batched {} vs per-rate {}",
                        verdicts[k], reference
                    );
                }
            }
            ticks += stats.lane_ticks;
            retired += stats.ticks_retired;
            certified += stats.certified_lanes;
            collided += stats.collided_lanes;
            idle += stats.idle_lane_ticks;
            fallbacks += stats.prefilter_fallbacks;
            declines += stats.cert_declines;
        }
        let lanes = seeds as usize * PAPER_RATE_GRID.len();
        let rate = 100.0 * retired as f64 / (ticks + retired) as f64;
        let idle_pct = 100.0 * idle as f64 / ticks.max(1) as f64;
        println!(
            "{:<38} ticks {:>8} retired {:>8} ({rate:>4.1}%) certified {:>3}/{lanes} collided {:>3} idle {idle_pct:>4.1}% fallbacks {fallbacks:>7} declines {declines:>4}",
            id.name(),
            ticks,
            retired,
            certified,
            collided
        );
        if check {
            let (_, floor) = RETIREMENT_FLOORS
                .iter()
                .find(|(fid, _)| *fid == id)
                .expect("every catalog scenario has a retirement floor");
            if rate < *floor {
                below_floor += 1;
                eprintln!(
                    "FLOOR {}: retirement {rate:.1}% is below the {floor:.1}% floor",
                    id.name()
                );
            }
            let fallback_pct = 100.0 * fallbacks as f64 / ticks.max(1) as f64;
            if fallback_pct > FALLBACK_CEILING {
                above_ceiling += 1;
                eprintln!(
                    "CEILING {}: {fallback_pct:.2}% of lane ticks fell back from the prefilter, above the {FALLBACK_CEILING:.1}% ceiling",
                    id.name()
                );
            }
        }
        tot_ticks += ticks;
        tot_retired += retired;
    }
    println!(
        "TOTAL retired {:.1}%  mismatches {}",
        100.0 * tot_retired as f64 / (tot_ticks + tot_retired) as f64,
        mismatches
    );
    assert_eq!(mismatches, 0, "batched verdicts diverged from per-rate");
    if below_floor > 0 {
        eprintln!("error: {below_floor} scenario(s) below their retirement floor");
    }
    if above_ceiling > 0 {
        eprintln!("error: {above_ceiling} scenario(s) above the prefilter fallback ceiling");
    }
    if below_floor + above_ceiling > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
