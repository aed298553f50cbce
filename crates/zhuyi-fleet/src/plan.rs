//! Plan expansion: scenario corpus × jitter seeds × job kinds → a flat,
//! id-ordered job list.
//!
//! The nine Table-1 scenarios multiply into hundreds of jittered variants
//! through [`av_scenarios::jitter`]: seed 0 is the nominal geometry and
//! every other seed perturbs speeds, gaps and trigger positions slightly
//! (the paper's ten-repeats methodology, §4.2). The builder expands the
//! cross product in a fixed nesting order — scenario, then seed, then job
//! kind — and numbers jobs densely from 0, so a plan is a pure function of
//! its inputs and two identical plans produce identical sweeps.

use crate::job::{JobId, JobKind, JobSpec, PredictorChoice, RateSpec, SweepJob};
use av_scenarios::catalog::ScenarioId;
use zhuyi_registry::ScenarioSource;

/// A fully expanded sweep: the unit handed to [`crate::run_sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPlan {
    jobs: Vec<SweepJob>,
}

impl SweepPlan {
    /// Starts building a plan (all nine scenarios, nominal seed only, no
    /// job kinds yet).
    pub fn builder() -> SweepPlanBuilder {
        SweepPlanBuilder::default()
    }

    /// Reassembles a plan from an explicit job list — the deserialization
    /// path for plans that crossed a process boundary (the sweep daemon's
    /// client submissions and journal replays). The job list must uphold
    /// the builder's invariant of strictly ascending ids; it is asserted
    /// here so a corrupted source cannot smuggle an out-of-order plan
    /// past the id-ordered merge.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is not strictly ascending by id.
    pub fn from_jobs(jobs: Vec<SweepJob>) -> Self {
        assert!(
            jobs.windows(2).all(|w| w[0].id.0 < w[1].id.0),
            "plan jobs must be strictly ascending by id"
        );
        Self { jobs }
    }

    /// The jobs, ascending by id.
    pub fn jobs(&self) -> &[SweepJob] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

/// Builder for [`SweepPlan`]; see the module docs for expansion order.
#[derive(Debug, Clone)]
pub struct SweepPlanBuilder {
    scenarios: Vec<ScenarioSource>,
    seeds: Vec<u64>,
    kinds: Vec<JobKind>,
}

impl Default for SweepPlanBuilder {
    fn default() -> Self {
        Self {
            scenarios: ScenarioId::ALL.iter().map(|&id| id.into()).collect(),
            seeds: vec![0],
            kinds: Vec::new(),
        }
    }
}

impl SweepPlanBuilder {
    /// Restricts the sweep to the given catalog scenarios (in the given
    /// order).
    pub fn scenarios(self, ids: impl IntoIterator<Item = ScenarioId>) -> Self {
        self.sources(ids.into_iter().map(ScenarioSource::from))
    }

    /// Restricts the sweep to the given scenario sources (in the given
    /// order) — catalog entries and registry definitions mix freely.
    pub fn sources(mut self, sources: impl IntoIterator<Item = ScenarioSource>) -> Self {
        self.scenarios = sources.into_iter().collect();
        self
    }

    /// Uses exactly these jitter seeds.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Uses the nominal scenario plus `n - 1` jittered variants (seeds
    /// `0..n`) — the fleet way of saying "run each scenario `n` times".
    pub fn jittered_variants(self, n: u64) -> Self {
        self.seeds(0..n)
    }

    /// Adds a collision probe at a uniform rate.
    pub fn probe(mut self, fpr: f64, keep_trace: bool) -> Self {
        self.kinds.push(JobKind::Probe {
            plan: RateSpec::Uniform(fpr),
            keep_trace,
        });
        self
    }

    /// Adds a collision probe at an explicit per-camera plan.
    pub fn probe_per_camera(mut self, rates: Vec<f64>, keep_trace: bool) -> Self {
        self.kinds.push(JobKind::Probe {
            plan: RateSpec::PerCamera(rates),
            keep_trace,
        });
        self
    }

    /// Adds one per-camera collision probe per plan — the heterogeneous
    /// rate-grid experiment (`fleet_sweep --mode percam` feeds the
    /// catalog's `PER_CAMERA_PLANS` presets through this).
    pub fn probe_per_camera_plans(
        mut self,
        plans: impl IntoIterator<Item = Vec<f64>>,
        keep_trace: bool,
    ) -> Self {
        for rates in plans {
            self = self.probe_per_camera(rates, keep_trace);
        }
        self
    }

    /// Adds a minimum-safe-FPR binary search over `candidates`
    /// (ascending).
    pub fn min_safe_fpr(mut self, candidates: Vec<u32>) -> Self {
        self.kinds.push(JobKind::MinSafeFpr { candidates });
        self
    }

    /// Adds a Zhuyi trace analysis at a uniform rate.
    pub fn analyze(mut self, fpr: f64, predictor: PredictorChoice, stride: usize) -> Self {
        self.kinds.push(JobKind::Analyze {
            plan: RateSpec::Uniform(fpr),
            predictor,
            stride,
        });
        self
    }

    /// Expands the cross product into an id-ordered plan.
    ///
    /// # Panics
    ///
    /// Panics if no job kinds were added (an empty sweep is always a
    /// caller bug) or if a rate plan contains a non-positive or non-finite
    /// rate (validated here so workers never trip on it mid-sweep).
    pub fn build(self) -> SweepPlan {
        assert!(
            !self.kinds.is_empty(),
            "sweep plan has no job kinds; add probe()/min_safe_fpr()/analyze()"
        );
        for kind in &self.kinds {
            validate_kind(kind);
        }
        let mut jobs =
            Vec::with_capacity(self.scenarios.len() * self.seeds.len() * self.kinds.len());
        for scenario in &self.scenarios {
            for &seed in &self.seeds {
                for kind in &self.kinds {
                    jobs.push(SweepJob {
                        id: JobId(jobs.len() as u64),
                        spec: JobSpec {
                            scenario: scenario.clone(),
                            seed,
                            kind: kind.clone(),
                        },
                    });
                }
            }
        }
        SweepPlan { jobs }
    }
}

fn validate_kind(kind: &JobKind) {
    let check_rate = |r: f64| {
        assert!(
            r.is_finite() && r > 0.0,
            "rate plans must be positive and finite, got {r}"
        );
    };
    match kind {
        JobKind::Probe { plan, .. } | JobKind::Analyze { plan, .. } => match plan {
            RateSpec::Uniform(r) => check_rate(*r),
            RateSpec::PerCamera(rs) => {
                let rig_cameras = av_perception::rig::CameraRig::drive_av().len();
                assert!(
                    rs.len() == rig_cameras,
                    "per-camera plan has {} rates but the rig has {rig_cameras} cameras",
                    rs.len()
                );
                rs.iter().copied().for_each(check_rate);
            }
        },
        JobKind::MinSafeFpr { candidates } => {
            assert!(!candidates.is_empty(), "empty MSF candidate grid");
            assert!(
                candidates.windows(2).all(|w| w[0] < w[1]),
                "MSF candidate grid must be strictly ascending"
            );
            assert!(candidates[0] > 0, "MSF candidates must be positive");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_dense_and_ordered() {
        let plan = SweepPlan::builder()
            .scenarios([ScenarioId::CutOut, ScenarioId::CutIn])
            .jittered_variants(3)
            .probe(30.0, false)
            .min_safe_fpr(vec![1, 4, 30])
            .build();
        // 2 scenarios x 3 seeds x 2 kinds.
        assert_eq!(plan.len(), 12);
        for (i, job) in plan.jobs().iter().enumerate() {
            assert_eq!(job.id.0, i as u64, "ids must be dense and ordered");
        }
        // Nesting order: scenario outermost, kind innermost.
        assert_eq!(plan.jobs()[0].spec.scenario, ScenarioId::CutOut.into());
        assert_eq!(plan.jobs()[0].spec.seed, 0);
        assert_eq!(plan.jobs()[1].spec.seed, 0);
        assert_eq!(plan.jobs()[2].spec.seed, 1);
        assert_eq!(plan.jobs()[6].spec.scenario, ScenarioId::CutIn.into());
    }

    #[test]
    fn per_camera_plan_sets_expand_one_probe_each() {
        let plans = vec![
            vec![30.0, 15.0, 4.0, 4.0, 2.0],
            vec![6.0, 4.0, 2.0, 2.0, 1.0],
        ];
        let plan = SweepPlan::builder()
            .scenarios([ScenarioId::CutOut])
            .jittered_variants(3)
            .probe_per_camera_plans(plans.clone(), false)
            .build();
        // 1 scenario x 3 seeds x 2 per-camera plans.
        assert_eq!(plan.len(), 6);
        let kinds: Vec<&JobKind> = plan.jobs().iter().map(|j| &j.spec.kind).collect();
        assert!(kinds.iter().all(|k| matches!(
            k,
            JobKind::Probe {
                plan: RateSpec::PerCamera(_),
                ..
            }
        )));
        let JobKind::Probe {
            plan: RateSpec::PerCamera(first),
            ..
        } = kinds[0]
        else {
            unreachable!("checked above");
        };
        assert_eq!(first, &plans[0]);
    }

    #[test]
    fn identical_builders_build_identical_plans() {
        let mk = || {
            SweepPlan::builder()
                .jittered_variants(5)
                .min_safe_fpr(vec![1, 2, 4, 6, 10, 30])
                .build()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    #[should_panic(expected = "no job kinds")]
    fn empty_plans_are_rejected() {
        let _ = SweepPlan::builder().build();
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn bad_rates_are_rejected_at_build_time() {
        let _ = SweepPlan::builder().probe(0.0, false).build();
    }

    #[test]
    #[should_panic(expected = "cameras")]
    fn per_camera_arity_is_checked_against_the_rig() {
        // The drive_av rig has 5 cameras; a 2-rate plan must fail at
        // build time, not panic mid-sweep inside a worker.
        let _ = SweepPlan::builder()
            .probe_per_camera(vec![1.0, 2.0], false)
            .build();
    }
}
