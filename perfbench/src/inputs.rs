//! Workload inputs, every one derived from the single `--seed`.
//!
//! Each workload draws from its own stream of a splitmix64 sequence, so
//! changing one workload's sizes never shifts another's inputs. Every
//! window of a run (and every daemon-probe plan) gets fresh inputs, item
//! `k` of the stream, so a run averages over many draws. The program
//! under test only ever sees the generated scenarios and plans.

use av_scenarios::catalog::{ScenarioId, PAPER_RATE_GRID};
use zhuyi_fleet::{SweepPlan, SweepPlanBuilder};
use zhuyi_registry::{FuzzConfig, ScenarioDef};

/// Jitter seeds per catalog scenario in `table1`, the nominal seed 0
/// included.
pub const TABLE1_VARIANTS: u64 = 8;
/// Fuzzed definitions in the registry probe's corpus.
pub const CORPUS_SIZE: usize = 1000;
/// Jitter seeds per catalog scenario in one daemon-probe plan.
pub const SERVICE_SEEDS_PER_PLAN: u64 = 2;

/// Independent input streams.
#[derive(Debug, Clone, Copy)]
enum Stream {
    Online = 1,
    Table1 = 2,
    CorpusFuzz = 3,
    Service = 4,
}

/// splitmix64's output function.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `index`-th value of `stream` under `seed`.
fn draw(seed: u64, stream: Stream, index: u64) -> u64 {
    splitmix64(splitmix64(seed ^ ((stream as u64) << 56)) ^ index)
}

/// A non-zero jitter seed below 10⁹ (seed 0 is the nominal geometry).
fn jitter_seed(seed: u64, stream: Stream, index: u64) -> u64 {
    1 + draw(seed, stream, index) % 1_000_000_000
}

/// `online` window `k`: every catalog scenario at one jitter seed, as
/// `(scenario, jitter seed)` pairs.
pub fn online_group(seed: u64, k: u64) -> Vec<(ScenarioId, u64)> {
    let jitter = jitter_seed(seed, Stream::Online, k);
    ScenarioId::ALL.iter().map(|&id| (id, jitter)).collect()
}

/// The paper's MSF question over its rate grid.
fn msf(builder: SweepPlanBuilder) -> SweepPlan {
    builder.min_safe_fpr(PAPER_RATE_GRID.to_vec()).build()
}

/// `table1` sweep `k`: the nine catalog scenarios at the nominal seed 0
/// plus `TABLE1_VARIANTS - 1` derived jitter seeds, searched for MSF over
/// the paper's rate grid.
pub fn table1_plan(seed: u64, k: u64) -> SweepPlan {
    let seeds = std::iter::once(0).chain(
        (1..TABLE1_VARIANTS).map(|i| jitter_seed(seed, Stream::Table1, k * TABLE1_VARIANTS + i)),
    );
    msf(SweepPlan::builder().seeds(seeds))
}

/// The registry probe's corpus: [`CORPUS_SIZE`] fuzzed definitions.
pub fn corpus_defs(seed: u64) -> Vec<ScenarioDef> {
    FuzzConfig {
        prefix: "bench".to_string(),
        count: CORPUS_SIZE,
        seed: draw(seed, Stream::CorpusFuzz, 0),
    }
    .generate()
}

/// Daemon-probe plan `k`: the nine catalog scenarios at
/// [`SERVICE_SEEDS_PER_PLAN`] fresh jitter seeds. Every `k` gives a
/// distinct plan, so the daemon never answers from its dedup index.
pub fn service_plan(seed: u64, k: u64) -> SweepPlan {
    let seeds = (0..SERVICE_SEEDS_PER_PLAN)
        .map(|i| jitter_seed(seed, Stream::Service, k * SERVICE_SEEDS_PER_PLAN + i));
    msf(SweepPlan::builder().seeds(seeds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zhuyi_distd::plan_fingerprint;
    use zhuyi_fleet::ExecOptions;

    fn fingerprints(seed: u64) -> Vec<u64> {
        let fp = |plan: &SweepPlan| plan_fingerprint(plan, ExecOptions::default());
        vec![
            fp(&table1_plan(seed, 0)),
            fp(&table1_plan(seed, 1)),
            fp(&service_plan(seed, 0)),
            fp(&service_plan(seed, 1)),
        ]
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        assert_eq!(fingerprints(7), fingerprints(7));
        assert_eq!(corpus_defs(7), corpus_defs(7));
        assert_ne!(corpus_defs(7), corpus_defs(8));
        assert_eq!(online_group(7, 3), online_group(7, 3));
        let (a, b) = (fingerprints(7), fingerprints(8));
        assert!(
            a.iter().zip(&b).all(|(x, y)| x != y),
            "seeds 7 and 8 collide"
        );
        assert_ne!(online_group(7, 3), online_group(8, 3));
        assert_ne!(online_group(7, 3), online_group(7, 4));
    }

    #[test]
    fn windows_get_fresh_inputs_and_table1_keeps_the_nominal_seed() {
        let a = fingerprints(3);
        assert_ne!(a[0], a[1], "table1 sweeps 0 and 1 share a plan");
        assert_ne!(a[2], a[3], "daemon-probe plans 0 and 1 share a plan");
        let plan = table1_plan(3, 5);
        assert_eq!(plan.len(), 9 * TABLE1_VARIANTS as usize);
        assert_eq!(plan.jobs().iter().filter(|j| j.spec.seed == 0).count(), 9);
    }
}
