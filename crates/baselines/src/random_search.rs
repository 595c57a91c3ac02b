//! Random search: the weakest multi-plan baseline of the evaluation.
//!
//! It samples the same number of candidate plans as Atlas and the affinity
//! GA, keeps the feasible ones and returns the Pareto front under the same
//! traffic/cost objectives as the affinity GA. Whatever quality it achieves
//! is "purely by chance" (paper §5.2.2).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use atlas_core::{random_site, MigrationPlan};
use atlas_ga::pareto_front_indices;
use atlas_sim::SiteId;

use crate::context::{BaselineContext, BaselineScorer};

/// The random-search advisor.
#[derive(Debug, Clone, Copy)]
pub struct RandomSearchAdvisor {
    /// Number of candidate plans sampled.
    pub samples: usize,
    /// Random seed.
    pub seed: u64,
}

impl Default for RandomSearchAdvisor {
    fn default() -> Self {
        Self {
            samples: 10_000,
            seed: 53,
        }
    }
}

impl RandomSearchAdvisor {
    /// A small configuration for tests and examples.
    pub fn fast() -> Self {
        Self {
            samples: 400,
            seed: 53,
        }
    }

    /// Sample plans and return the feasible Pareto front under the
    /// traffic/cost objectives. Scoring goes through a fresh
    /// [`BaselineScorer`]; use [`Self::recommend_with`] to share one.
    pub fn recommend(&self, ctx: &BaselineContext) -> Vec<MigrationPlan> {
        self.recommend_with(&ctx.scorer())
    }

    /// Sample plans through a caller-supplied scorer: the whole sample set
    /// is scored as one deduplicated, thread-parallel batch.
    pub fn recommend_with(&self, scorer: &BaselineScorer<'_>) -> Vec<MigrationPlan> {
        let ctx = scorer.context();
        let n = ctx.component_count();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let samples: Vec<Vec<SiteId>> = (0..self.samples)
            .map(|_| {
                let fraction = rng.gen_range(0.0..1.0);
                let mut sites: Vec<SiteId> = (0..n)
                    .map(|_| random_site(&mut rng, fraction, ctx.site_count))
                    .collect();
                ctx.preferences.apply_pins(&mut sites);
                sites
            })
            .collect();
        let scores = scorer.score_batch(&samples);
        let mut plans = Vec::new();
        let mut objectives = Vec::new();
        for (sites, score) in samples.into_iter().zip(&scores) {
            if !score.feasible {
                continue;
            }
            objectives.push([score.cross_dc_bytes, score.cost]);
            plans.push(sites);
        }
        let front = pareto_front_indices(&objectives);
        let mut seen = std::collections::HashSet::new();
        front
            .into_iter()
            .map(|i| &plans[i])
            .filter(|p| seen.insert((*p).clone()))
            .map(|p| BaselineContext::to_plan(p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_context;

    #[test]
    fn returns_feasible_unique_plans() {
        let ctx = test_context(7.0);
        let plans = RandomSearchAdvisor::fast().recommend(&ctx);
        assert!(!plans.is_empty());
        let mut seen = std::collections::HashSet::new();
        for plan in &plans {
            assert!(ctx.scorer().score(plan.sites()).feasible);
            assert!(seen.insert(plan.sites()), "plans must be unique");
        }
    }

    #[test]
    fn deterministic_per_seed_and_sensitive_to_it() {
        let ctx = test_context(7.0);
        let a = RandomSearchAdvisor::fast().recommend(&ctx);
        let b = RandomSearchAdvisor::fast().recommend(&ctx);
        assert_eq!(a, b);
        let c = RandomSearchAdvisor {
            seed: 99,
            ..RandomSearchAdvisor::fast()
        }
        .recommend(&ctx);
        // Different seeds usually give different fronts on this tiny space;
        // at minimum the call must succeed.
        assert!(!c.is_empty());
    }

    #[test]
    fn infeasible_contexts_yield_empty_recommendations() {
        // CPU limit that even full offloading cannot satisfy is impossible;
        // here full offloading always works, so use a budget of zero instead.
        let mut ctx = test_context(7.0);
        ctx.preferences = ctx.preferences.clone().with_budget(0.0);
        // Offloading costs money; staying on-prem violates the CPU limit.
        let plans = RandomSearchAdvisor::fast().recommend(&ctx);
        assert!(plans.is_empty());
    }
}
