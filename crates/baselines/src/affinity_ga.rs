//! The affinity-based NSGA-II baseline (paper §5.2, "affinity-based GA").
//!
//! A multi-plan approach representative of \[29, 39, 44, 47, 53\]: NSGA-II
//! with two objectives — cross-datacenter traffic (a proxy for performance)
//! and cloud hosting cost (using the same cost model as Atlas) — with
//! uniform crossover and bit-flip mutation. It has no notion of per-API
//! workflows, which is what Figures 12–15 exploit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use atlas_core::{random_site, MigrationPlan, ARCHIVE_CAPACITY};
use atlas_ga::nsga2::{survive, take_selected};
use atlas_ga::{
    alphabet_mutation, binary_tournament, pareto_front_indices, uniform_crossover, ParetoArchive,
};
use atlas_sim::SiteId;

use crate::context::{BaselineContext, BaselineScorer, PlacementScore};

/// The affinity-based NSGA-II advisor.
#[derive(Debug, Clone, Copy)]
pub struct AffinityGaAdvisor {
    /// Population size (the paper uses 100, like Atlas).
    pub population: usize,
    /// Search budget: *unique* candidate placements scored (the paper caps
    /// at 10,000). Duplicates are served from the shared scorer's cache and
    /// do not burn budget, matching the Atlas recommender's semantics.
    pub max_visited: usize,
    /// Mutation rate of offspring.
    pub mutation_rate: f64,
    /// Random seed.
    pub seed: u64,
}

impl Default for AffinityGaAdvisor {
    fn default() -> Self {
        Self {
            population: 100,
            max_visited: 10_000,
            mutation_rate: 0.02,
            seed: 41,
        }
    }
}

impl AffinityGaAdvisor {
    /// A small configuration for tests and examples.
    pub fn fast() -> Self {
        Self {
            population: 20,
            max_visited: 500,
            mutation_rate: 0.03,
            seed: 41,
        }
    }

    fn objectives_of(score: &PlacementScore) -> [f64; 2] {
        [score.cross_dc_bytes, score.cost]
    }

    /// Run the search and return the Pareto-optimal plans under the
    /// traffic/cost objectives. Scoring goes through a fresh
    /// [`BaselineScorer`]; use [`Self::recommend_with`] to share one.
    pub fn recommend(&self, ctx: &BaselineContext) -> Vec<MigrationPlan> {
        self.recommend_with(&ctx.scorer())
    }

    /// Run the search on a caller-supplied scorer, sharing its memo cache.
    /// The budget counts unique placements scored by this run.
    pub fn recommend_with(&self, scorer: &BaselineScorer<'_>) -> Vec<MigrationPlan> {
        let ctx = scorer.context();
        let n = ctx.component_count();
        let site_alphabet: Vec<SiteId> = (0..ctx.site_count as u16).map(SiteId).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let already_cached = scorer.unique_evaluations();
        let visited = |scorer: &BaselineScorer<'_>| {
            scorer.unique_evaluations().saturating_sub(already_cached)
        };
        // Safety valve against a converged population producing only cached
        // offspring (see the same guard in the Atlas recommender).
        let mut requested = 0usize;
        let request_cap = self.max_visited.saturating_mul(8).max(64);

        // Every feasible placement scored during the search is offered to
        // the external archive under the GA's own two objectives, so the
        // final front survives population churn.
        let mut archive: ParetoArchive<Vec<SiteId>, [f64; 2]> =
            ParetoArchive::new(ARCHIVE_CAPACITY);

        let mut population: Vec<Vec<SiteId>> = (0..self.population)
            .map(|_| {
                let fraction = rng.gen_range(0.05..0.95);
                let mut sites: Vec<SiteId> = (0..n)
                    .map(|_| random_site(&mut rng, fraction, ctx.site_count))
                    .collect();
                ctx.preferences.apply_pins(&mut sites);
                sites
            })
            .collect();
        let scores = scorer.score_batch(&population);
        requested += population.len();
        let mut objectives: Vec<[f64; 2]> = scores.iter().map(Self::objectives_of).collect();
        let mut feasible: Vec<bool> = scores.iter().map(|s| s.feasible).collect();
        for (member, score) in population.iter().zip(&scores) {
            if score.feasible {
                archive.insert(member, Self::objectives_of(score));
            }
        }

        while visited(scorer) < self.max_visited && requested < request_cap {
            let survival = survive(&objectives, &feasible, self.population);
            population = take_selected(population, &survival.selected);
            objectives = survival.selected.iter().map(|&i| objectives[i]).collect();
            feasible = survival.selected.iter().map(|&i| feasible[i]).collect();
            let (rank, crowding) = (survival.rank, survival.crowding);

            // saturating: a concurrently shared scorer can grow between the
            // loop guard and this read.
            let offspring_target = self
                .population
                .min(self.max_visited.saturating_sub(visited(scorer)))
                .max(1);
            let mut offspring = Vec::with_capacity(offspring_target);
            while offspring.len() < offspring_target {
                let a = binary_tournament(&mut rng, &rank, &crowding);
                let b = binary_tournament(&mut rng, &rank, &crowding);
                let mut sites = uniform_crossover(&mut rng, &population[a], &population[b]);
                alphabet_mutation(&mut rng, &mut sites, &site_alphabet, self.mutation_rate);
                ctx.preferences.apply_pins(&mut sites);
                offspring.push(sites);
            }
            let child_scores = scorer.score_batch(&offspring);
            requested += offspring.len();
            for (child, score) in offspring.into_iter().zip(&child_scores) {
                if score.feasible {
                    archive.insert(&child, Self::objectives_of(score));
                }
                objectives.push(Self::objectives_of(score));
                feasible.push(score.feasible);
                population.push(child);
            }
        }

        // The answer is the archive front; an empty archive (no feasible
        // placement within budget) falls back to the Pareto front of the
        // final population, deduped by borrowed genome (no allocation).
        if !archive.is_empty() {
            return archive
                .entries()
                .iter()
                .map(|(sites, _)| BaselineContext::to_plan(sites))
                .collect();
        }
        let front = pareto_front_indices(&objectives);
        let mut seen: std::collections::HashSet<&[SiteId]> = std::collections::HashSet::new();
        front
            .into_iter()
            .filter(|&i| seen.insert(&population[i]))
            .map(|i| BaselineContext::to_plan(&population[i]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{test_context, test_context_over, three_site_catalog};

    #[test]
    fn produces_feasible_pareto_plans() {
        let ctx = test_context(7.0);
        let plans = AffinityGaAdvisor::fast().recommend(&ctx);
        assert!(!plans.is_empty());
        for plan in &plans {
            assert!(ctx.scorer().score(plan.sites()).feasible);
        }
        // No plan dominates another under the GA's own objectives.
        let objectives = |plan: &MigrationPlan| {
            [
                ctx.cross_site_bytes(plan.sites()),
                ctx.site_cost(plan.sites()),
            ]
        };
        for a in &plans {
            for b in &plans {
                assert!(a == b || !atlas_ga::dominates(&objectives(a), &objectives(b)));
            }
        }
    }

    #[test]
    fn respects_the_visit_budget() {
        let ctx = test_context(7.0);
        let advisor = AffinityGaAdvisor {
            population: 10,
            max_visited: 50,
            mutation_rate: 0.05,
            seed: 3,
        };
        // Just check it terminates quickly and returns something sane.
        let plans = advisor.recommend(&ctx);
        assert!(!plans.is_empty());
        assert!(plans.len() <= 50);
    }

    #[test]
    fn is_deterministic_per_seed() {
        let ctx = test_context(7.0);
        let a = AffinityGaAdvisor::fast().recommend(&ctx);
        let b = AffinityGaAdvisor::fast().recommend(&ctx);
        assert_eq!(a, b);
    }

    #[test]
    fn searches_the_full_site_alphabet_of_a_catalog() {
        let ctx = test_context_over(7.0, &three_site_catalog());
        assert_eq!(ctx.site_count, 3);

        let plans = AffinityGaAdvisor::fast().recommend(&ctx);
        assert!(!plans.is_empty());
        for plan in &plans {
            assert!(ctx.scorer().score(plan.sites()).feasible);
            // Every gene names a catalog site.
            assert!(plan.sites().iter().all(|s| s.index() < 3));
        }
        // The population initialiser and mutation range over all three
        // sites: across the run, some plan must use a site beyond the
        // first two (sampled uniformly over {1, 2}, this fails with
        // probability ≈ 2^-#offloaded-genes).
        let sampler_uses_site_2 = {
            let mut rng = StdRng::seed_from_u64(3);
            (0..64).any(|_| random_site(&mut rng, 0.9, 3) == atlas_sim::SiteId(2))
        };
        assert!(sampler_uses_site_2);
    }

    #[test]
    fn duplicate_placements_hit_the_shared_scorer_cache() {
        let ctx = test_context(7.0);
        let scorer = ctx.scorer();
        let plans = AffinityGaAdvisor::fast().recommend_with(&scorer);
        assert!(!plans.is_empty());
        let stats = scorer.stats();
        // Three components → at most 8 distinct placements; everything else
        // the GA generates is a cache hit that burns no budget.
        assert!(stats.unique_evaluations <= 8);
        assert!(stats.cache_hits > stats.unique_evaluations);
    }
}
