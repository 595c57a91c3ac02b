//! The DRL-based genetic algorithm producing migration recommendations
//! (paper §4.2.1, Figure 5 steps ①–⑤).
//!
//! The search keeps a small population of plans, evaluates their three
//! quality indicators, keeps the NSGA-II survivors, pairs parents with a
//! binary tournament, and creates offspring either with the learned
//! reward-driven crossover agent (Atlas) or with uniform crossover (the
//! affinity-style baseline ablation). The search budget is expressed as the
//! total number of plans visited (the paper caps all multi-plan approaches
//! at 10,000 ≈ 0.002 % of the space).
//!
//! Population members are [`RecommendedPlan`]s (plan plus quality), and each
//! generation's offspring are scored as one batch in lane groups
//! ([`PlanEvaluator::evaluate_batch`]).
//! Every feasible plan the search evaluates (initial population,
//! GA offspring, RL training rollouts) is offered to an external
//! [`ParetoArchive`], and the recommendation is that archive's front — a
//! Pareto-optimal plan discovered early can no longer be displaced from
//! the answer by later population churn.
//!
//! # Uniform crossover by default; the agent is opt-in
//!
//! [`RecommenderConfig::default`] and [`RecommenderConfig::fast`] select
//! [`CrossoverStrategy::Uniform`], the NSGA-II baseline of paper Fig. 21a:
//! on this reproduction the learned agent never beat it, at the
//! benchmark's settings or at any budget from 250 to 10,000 plans, and it
//! cost most of each request's time. [`CrossoverStrategy::ReinforcementLearning`]
//! asks for the agent by name. Such a run trains a fresh agent inline,
//! right after the initial population, on every call — there is no
//! trained artefact to share across requests. The training rollouts are
//! part of the recommendation: each is scored, counted against the
//! budget and offered to the archive as it is drawn, and the generations
//! then sample the trained agent for their offspring.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use atlas_ga::nsga2::{survive, take_selected};
use atlas_ga::{
    alphabet_mutation, binary_tournament, pareto_front_indices, uniform_crossover, ParetoArchive,
};
use atlas_sim::SiteId;

use crate::eval::{EvalStats, PlanEvaluator, PlanKeySet};
use crate::quality::{PlanQuality, QualityModel, RecommendedPlan};
use crate::rl_crossover::{CrossoverAgent, RlCrossoverConfig};
use crate::MigrationPlan;

/// Capacity of the external non-dominated archive accumulating every
/// feasible plan the search evaluates. Beyond this many mutually
/// non-dominated plans, the most crowded archive entry is pruned
/// (NSGA-II crowding over the archive as one front), preserving spread.
pub const ARCHIVE_CAPACITY: usize = 256;

/// Which crossover operator the search uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossoverStrategy {
    /// The reward-driven learned crossover (Atlas), trained inline on every
    /// run that asks for it.
    ReinforcementLearning,
    /// Plain uniform crossover + mutation (NSGA-II baseline of Figure 21a);
    /// the default.
    Uniform,
}

/// Configuration of the recommender.
#[derive(Debug, Clone, PartialEq)]
pub struct RecommenderConfig {
    /// Population size (the paper uses 100).
    pub population: usize,
    /// Search budget: *distinct* candidate plans this run asks the
    /// evaluator to score, including the initial population and the RL
    /// training rollouts (the paper caps all multi-plan approaches at
    /// 10,000). Duplicates within the run do not burn budget. The count is
    /// request-local — it depends only on the run's own trajectory, never
    /// on how warm a shared evaluator cache happens to be — so a
    /// recommendation is bit-identical whether its evaluator is cold, warm
    /// or concurrently shared.
    pub max_visited: usize,
    /// Mutation rate applied to offspring (keeps diversity).
    pub mutation_rate: f64,
    /// Crossover operator.
    pub strategy: CrossoverStrategy,
    /// Configuration of the RL crossover agent (ignored for
    /// [`CrossoverStrategy::Uniform`]).
    pub rl: RlCrossoverConfig,
    /// Random seed.
    pub seed: u64,
    /// Worker threads of the plan evaluator (`0` = one per available core).
    /// The thread count never changes the recommendation, only its speed.
    pub threads: usize,
}

impl Default for RecommenderConfig {
    fn default() -> Self {
        Self {
            population: 100,
            max_visited: 10_000,
            mutation_rate: 0.02,
            strategy: CrossoverStrategy::Uniform,
            rl: RlCrossoverConfig::default(),
            seed: 23,
            threads: 0,
        }
    }
}

impl RecommenderConfig {
    /// A light-weight configuration for unit tests and examples.
    pub fn fast() -> Self {
        Self {
            population: 24,
            max_visited: 600,
            mutation_rate: 0.03,
            strategy: CrossoverStrategy::Uniform,
            rl: RlCrossoverConfig {
                iterations: 120,
                actor_hidden: vec![48, 48],
                ..RlCrossoverConfig::default()
            },
            seed: 23,
            threads: 0,
        }
    }

    /// Select plain uniform crossover (builder style). It is already the
    /// default; the builder names the choice where a caller depends on it.
    pub fn with_uniform_crossover(mut self) -> Self {
        self.strategy = CrossoverStrategy::Uniform;
        self
    }

    /// Replace the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the evaluator thread count (builder style; `0` = one per
    /// available core).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Wall-clock milliseconds one run spent in the stages of the search that
/// are not plan scoring (scoring is [`EvalStats::wall_time_ms`] of
/// [`RecommendationReport::eval`]). Measured inside the recommender; what
/// the stages and scoring leave of the
/// request is archive upkeep, tournaments, mutation and bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SearchStages {
    /// ① Drawing the random initial population.
    pub init_ms: f64,
    /// Building and training the crossover agent — parent sampling, policy
    /// sampling, policy-gradient updates — without the time its rollout
    /// children spent being scored. Zero for uniform crossover.
    pub rl_train_ms: f64,
    /// The crossover operator producing offspring: policy inference for the
    /// learned agent, the coin flips for uniform crossover.
    pub crossover_ms: f64,
    /// The NSGA-II survival sorts (one per generation).
    pub survive_ms: f64,
}

/// Summary of one recommendation run.
#[derive(Debug, Clone)]
pub struct RecommendationReport {
    /// The Pareto-optimal plans found, sorted by predicted performance.
    pub plans: Vec<RecommendedPlan>,
    /// Number of *distinct* candidate plans behind this recommendation —
    /// initial population, training rollouts and offspring: what the
    /// [`RecommenderConfig::max_visited`] budget counts. Request-local:
    /// independent of cache warmth or concurrent sharing.
    pub visited: usize,
    /// Reward progression of the crossover agent (empty for uniform
    /// crossover) — the curve of paper Figure 21b.
    pub reward_progression: Vec<f64>,
    /// Per-request evaluation statistics: the computes, cache hits and
    /// scoring wall time attributable to *this run alone*, exact even when
    /// the evaluator's cache is shared with other runs or tenants.
    pub eval: EvalStats,
    /// Where the run's own time went, stage by stage.
    pub stages: SearchStages,
}

impl RecommendationReport {
    /// The plan minimising `key`, compared field by field under
    /// [`f64::total_cmp`] so a NaN indicator loses instead of panicking.
    fn min_by_key(&self, key: impl Fn(&PlanQuality) -> [f64; 2]) -> Option<&RecommendedPlan> {
        self.plans.iter().min_by(|a, b| {
            let (a, b) = (key(&a.quality), key(&b.quality));
            a[0].total_cmp(&b[0]).then(a[1].total_cmp(&b[1]))
        })
    }

    /// The plan with the best (lowest) predicted performance impact.
    pub fn performance_optimized(&self) -> Option<&RecommendedPlan> {
        self.min_by_key(|q| [q.performance, q.performance])
    }

    /// The plan with the least predicted disruption, ties broken by
    /// performance.
    pub fn availability_optimized(&self) -> Option<&RecommendedPlan> {
        self.min_by_key(|q| [q.availability, q.performance])
    }

    /// The cheapest plan, ties broken by performance.
    pub fn cost_optimized(&self) -> Option<&RecommendedPlan> {
        self.min_by_key(|q| [q.cost, q.performance])
    }
}

fn millis(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1_000.0
}

/// The DRL-based genetic recommender.
pub struct Recommender<'a> {
    quality: &'a QualityModel,
    config: RecommenderConfig,
}

/// Count `plan` against the request-local budget (cloning it only the first
/// time it is seen).
fn mark_seen(seen: &mut PlanKeySet<MigrationPlan>, plan: &MigrationPlan) {
    if !seen.contains(plan) {
        seen.insert(plan.clone());
    }
}

impl<'a> Recommender<'a> {
    /// Create a recommender over a quality model.
    pub fn new(quality: &'a QualityModel, config: RecommenderConfig) -> Self {
        Self { quality, config }
    }

    /// Run the search and return the Pareto-optimal recommendations.
    ///
    /// All scoring goes through a fresh [`PlanEvaluator`] with
    /// [`RecommenderConfig::threads`] workers; use [`Self::recommend_with`]
    /// to share a warm evaluator across runs.
    pub fn recommend(&self) -> RecommendationReport {
        let evaluator = PlanEvaluator::new(self.quality).with_threads(self.config.threads);
        self.recommend_with(&evaluator)
    }

    /// [`Self::recommend`] on a caller-supplied evaluator, sharing its memo
    /// cache (and accumulating into its statistics). The budget counts the
    /// *distinct plans this run requests* — tracked in a request-local set,
    /// not by watching the cache grow — so the search trajectory, the
    /// stopping point and therefore the recommendation are bit-identical
    /// whether the cache is cold, warm from earlier runs, or being filled
    /// concurrently by other requests (the multi-tenant hub relies on
    /// this). [`RecommendationReport::eval`] likewise reports only this
    /// run's computes and hits.
    pub fn recommend_with(&self, evaluator: &PlanEvaluator<'_>) -> RecommendationReport {
        let local_start = evaluator.stats();
        // The gene alphabet of the search: every site of the catalog. On
        // the paper's testbed this is {on-prem, cloud}: uniform crossover
        // draws one bool per gene at any alphabet size and the alphabet
        // mutation degenerates to a bit flip, which keeps 2-site searches
        // on the random stream their recorded fronts were found on.
        let site_alphabet: Vec<SiteId> =
            (0..self.quality.site_count() as u16).map(SiteId).collect();
        let (mut population, mut rng, init_ms) = self.initial_population(evaluator);
        let mut stages = SearchStages {
            init_ms,
            ..SearchStages::default()
        };
        // The request-local visited set: every distinct plan this run asks
        // the evaluator to score, whether the (possibly shared) cache
        // answers it or not. Scoring is pure, so tracking requests instead
        // of cache growth keeps the trajectory — and the recommendation —
        // independent of cache warmth and of concurrent requests.
        let mut seen: PlanKeySet<MigrationPlan> = PlanKeySet::default();
        // The budget counts distinct plans, so a converged population
        // producing mostly repeated offspring could spin for a long time;
        // cap the total number of evaluation *requests* as a safety valve.
        let mut requested = population.len();
        let request_cap = self.config.max_visited.saturating_mul(8).max(64);

        // Every feasible plan the search evaluates is offered to the
        // external archive, so the final front survives population churn.
        let mut archive: ParetoArchive<MigrationPlan, [f64; 3]> =
            ParetoArchive::new(ARCHIVE_CAPACITY);
        for member in &population {
            mark_seen(&mut seen, &member.plan);
            if member.quality.feasible {
                archive.insert(&member.plan, member.quality.objectives());
            }
        }

        // The learned agent, when asked for, is built and trained here.
        // Parent qualities come from the scored population; each rollout
        // child is scored, counted against the budget and offered to the
        // archive as it is drawn.
        let train_start = Instant::now();
        let mut agent = self.untrained_agent(&population, seen.len());
        if let Some(agent) = &mut agent {
            let mut scoring = Duration::ZERO;
            agent.train_scored(&population, |_, _, child| {
                let scoring_start = Instant::now();
                let quality = evaluator.evaluate(child);
                scoring += scoring_start.elapsed();
                mark_seen(&mut seen, child);
                requested += 1;
                if quality.feasible {
                    archive.insert(child, quality.objectives());
                }
                quality
            });
            stages.rl_train_ms = millis(train_start.elapsed().saturating_sub(scoring));
        }

        // Generations: evaluate, survive, pair, cross over. One fused
        // non-dominated sort per generation yields both the survivors and
        // the rank/crowding driving the tournaments. Survivors are moved
        // (not cloned) into the next generation by index permutation.
        while seen.len() < self.config.max_visited && requested < request_cap {
            let feasible: Vec<bool> = population.iter().map(|p| p.quality.feasible).collect();
            let objectives: Vec<[f64; 3]> =
                population.iter().map(|p| p.quality.objectives()).collect();
            let survive_start = Instant::now();
            let survival = survive(&objectives, &feasible, self.config.population);
            population = take_selected(population, &survival.selected);
            let (rank, crowding) = (survival.rank, survival.crowding);
            stages.survive_ms += millis(survive_start.elapsed());

            let offspring_target = self
                .config
                .population
                .min(self.config.max_visited.saturating_sub(seen.len()))
                .max(1);
            let mut offspring: Vec<MigrationPlan> = Vec::with_capacity(offspring_target);
            while offspring.len() < offspring_target {
                let a = binary_tournament(&mut rng, &rank, &crowding);
                let b = binary_tournament(&mut rng, &rank, &crowding);
                let crossover_start = Instant::now();
                let (parent_a, parent_b) = (population[a].sites(), population[b].sites());
                let mut sites = match &mut agent {
                    Some(agent) => agent.crossover_sites(parent_a, parent_b),
                    None => uniform_crossover(&mut rng, parent_a, parent_b),
                };
                stages.crossover_ms += millis(crossover_start.elapsed());
                alphabet_mutation(
                    &mut rng,
                    &mut sites,
                    &site_alphabet,
                    self.config.mutation_rate,
                );
                self.quality.preferences().apply_pins(&mut sites);
                offspring.push(MigrationPlan::from_sites(sites));
            }
            let qualities = evaluator.evaluate_batch(&offspring);
            requested += offspring.len();
            for (plan, quality) in offspring.into_iter().zip(qualities) {
                mark_seen(&mut seen, &plan);
                if quality.feasible {
                    archive.insert(&plan, quality.objectives());
                }
                population.push(RecommendedPlan { plan, quality });
            }
        }

        // The recommendation is the archive: every feasible plan the search
        // ever evaluated, non-dominated and crowding-pruned. An empty
        // archive means no feasible plan exists within the budget — fall
        // back to the Pareto front of the final (infeasible) population so
        // the caller still sees the least-bad trade-offs.
        let mut plans: Vec<RecommendedPlan> = if archive.is_empty() {
            let objectives: Vec<[f64; 3]> =
                population.iter().map(|p| p.quality.objectives()).collect();
            let mut distinct: PlanKeySet<&MigrationPlan> = PlanKeySet::default();
            pareto_front_indices(&objectives)
                .into_iter()
                .filter(|&i| distinct.insert(&population[i].plan))
                .map(|i| population[i].clone())
                .collect()
        } else {
            archive
                .entries()
                .iter()
                .map(|(plan, objectives)| RecommendedPlan {
                    plan: plan.clone(),
                    quality: PlanQuality {
                        performance: objectives[0],
                        availability: objectives[1],
                        cost: objectives[2],
                        feasible: true,
                    },
                })
                .collect()
        };
        // total_cmp: a NaN indicator (hostile telemetry) sorts last instead
        // of aborting the request; finite values order as before.
        plans.sort_by(|a, b| a.quality.performance.total_cmp(&b.quality.performance));

        RecommendationReport {
            plans,
            visited: seen.len(),
            reward_progression: agent.map_or_else(Vec::new, |a| a.reward_history().to_vec()),
            eval: evaluator.stats().since(&local_start),
            stages,
        }
    }

    /// ① Population initialisation: random plans that respect the pins
    /// (cheap to enforce up-front) with varying off-prem fractions, scored.
    /// Off-prem genes pick their site uniformly; in the two-site model the
    /// site is forced (no extra draw), preserving the historical random
    /// stream. Returns the population, the search's random stream
    /// positioned after its draws, and the milliseconds spent drawing.
    fn initial_population(
        &self,
        evaluator: &PlanEvaluator<'_>,
    ) -> (Vec<RecommendedPlan>, StdRng, f64) {
        let n = self.quality.component_count();
        let site_count = self.quality.site_count();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let init_start = Instant::now();
        let mut seeds: Vec<MigrationPlan> = Vec::with_capacity(self.config.population);
        while seeds.len() < self.config.population {
            let cloud_fraction = rng.gen_range(0.05..0.95);
            let mut sites: Vec<SiteId> = (0..n)
                .map(|_| random_site(&mut rng, cloud_fraction, site_count))
                .collect();
            self.quality.preferences().apply_pins(&mut sites);
            seeds.push(MigrationPlan::from_sites(sites));
        }
        let init_ms = millis(init_start.elapsed());
        let qualities = evaluator.evaluate_batch(&seeds);
        let population = (seeds.into_iter().zip(qualities))
            .map(|(plan, quality)| RecommendedPlan { plan, quality })
            .collect();
        (population, rng, init_ms)
    }

    /// The untrained crossover agent for this run, or `None` when there is
    /// nothing to train: uniform crossover, fewer than two plans to pair,
    /// or no budget left after the `visited` plans of the initial
    /// population. Training is capped at half of the remaining budget.
    fn untrained_agent(
        &self,
        population: &[RecommendedPlan],
        visited: usize,
    ) -> Option<CrossoverAgent> {
        let remaining = self.config.max_visited.saturating_sub(visited);
        if self.config.strategy != CrossoverStrategy::ReinforcementLearning
            || population.len() < 2
            || remaining == 0
        {
            return None;
        }
        let mut rl_config = self.config.rl.clone();
        rl_config.iterations = rl_config.iterations.min((remaining / 2).max(1));
        let agent = CrossoverAgent::new(self.quality.component_count(), rl_config)
            .with_site_count(self.quality.site_count());
        Some(agent)
    }
}

/// Draw one placement gene: off-prem with probability `cloud_fraction`,
/// and if so a uniformly chosen elastic site.
///
/// The two-site case spends exactly one `f64` draw per gene (the site is
/// forced, no second draw), matching the binary sampler this generalises —
/// the invariant that keeps 2-site searches bit-identical to the
/// historical random stream. Shared by the Atlas recommender and the
/// GA/random-search baselines so the two search families cannot drift
/// apart in sampling semantics.
pub fn random_site<R: Rng + ?Sized>(rng: &mut R, cloud_fraction: f64, site_count: usize) -> SiteId {
    if rng.gen::<f64>() < cloud_fraction {
        if site_count <= 2 {
            SiteId::CLOUD
        } else {
            SiteId(rng.gen_range(1..site_count as u16))
        }
    } else {
        SiteId::ON_PREM
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::FootprintLearner;
    use crate::preferences::MigrationPreferences;
    use crate::profile::ApplicationProfile;
    use atlas_apps::{social_network, SocialNetworkOptions, WorkloadGenerator, WorkloadOptions};
    use atlas_cloud::{ResourceEstimator, ScalingEstimator};
    use atlas_sim::{
        ClusterSpec, ComponentId, OverloadModel, Placement, SimConfig, Simulator, SiteCatalog,
    };
    use atlas_telemetry::TelemetryStore;

    fn build_quality(preferences: MigrationPreferences) -> QualityModel {
        let app = social_network(SocialNetworkOptions::default());
        let n = app.component_count();
        let current = Placement::all_onprem(n);
        let sim = Simulator::new(
            app.clone(),
            current.clone(),
            SimConfig {
                cluster: ClusterSpec::default(),
                overload: OverloadModel::disabled(),
                metric_window_s: 5,
                seed: 8,
            },
        );
        let schedule =
            WorkloadGenerator::new(WorkloadOptions::social_network_default().with_seed(8))
                .generate(&app)
                .unwrap();
        let store = TelemetryStore::new();
        sim.run(&schedule, &store);

        let component_index: Vec<String> =
            app.components().iter().map(|c| c.name.clone()).collect();
        let stateful: Vec<String> = app
            .stateful_components()
            .into_iter()
            .map(|c| app.component_name(c).to_string())
            .collect();
        let profile = ApplicationProfile::learn(&store, &stateful, 25);
        let footprint = FootprintLearner::default().learn(&store);
        let demand = ScalingEstimator::with_scale(5.0).estimate(&store, &component_index, 8, 600);
        QualityModel::for_catalog(
            profile,
            footprint,
            &SiteCatalog::default(),
            demand,
            preferences,
            current,
            component_index,
        )
    }

    /// Preferences forcing some offloading: on-prem CPU may not hold all of
    /// the burst demand, and user data must stay on-prem.
    fn burst_preferences(quality_cpu_limit: f64) -> MigrationPreferences {
        MigrationPreferences::with_cpu_limit(quality_cpu_limit)
    }

    /// [`RecommenderConfig::fast`] with the learned agent asked for by name.
    fn fast_rl() -> RecommenderConfig {
        RecommenderConfig {
            strategy: CrossoverStrategy::ReinforcementLearning,
            ..RecommenderConfig::fast()
        }
    }

    #[test]
    fn recommendations_are_feasible_and_pareto_optimal() {
        let quality = build_quality(burst_preferences(12.0));
        let report = Recommender::new(&quality, RecommenderConfig::fast()).recommend();
        assert!(!report.plans.is_empty(), "should find at least one plan");
        assert!(report.visited <= RecommenderConfig::fast().max_visited);
        for plan in &report.plans {
            assert!(plan.quality.feasible, "recommended plans must be feasible");
        }
        // Pareto property: no recommended plan dominates another.
        for a in &report.plans {
            for b in &report.plans {
                if a.plan != b.plan {
                    assert!(!atlas_ga::dominates(
                        &a.quality.objectives(),
                        &b.quality.objectives()
                    ));
                }
            }
        }
    }

    #[test]
    fn pinned_components_are_never_offloaded() {
        let prefs = burst_preferences(12.0)
            .pin(ComponentId(23), SiteId::ON_PREM) // UserMongoDB
            .pin(ComponentId(25), SiteId::ON_PREM); // PostStorageMongoDB
        let quality = build_quality(prefs);
        let report = Recommender::new(&quality, RecommenderConfig::fast()).recommend();
        for plan in &report.plans {
            assert_eq!(plan.plan.site(ComponentId(23)), SiteId::ON_PREM);
            assert_eq!(plan.plan.site(ComponentId(25)), SiteId::ON_PREM);
        }
    }

    #[test]
    fn selector_helpers_pick_extremes() {
        let quality = build_quality(burst_preferences(12.0));
        let report = Recommender::new(&quality, RecommenderConfig::fast()).recommend();
        let perf = report.performance_optimized().unwrap();
        let cost = report.cost_optimized().unwrap();
        let avail = report.availability_optimized().unwrap();
        for p in &report.plans {
            assert!(perf.quality.performance <= p.quality.performance + 1e-12);
            assert!(cost.quality.cost <= p.quality.cost + 1e-12);
            assert!(avail.quality.availability <= p.quality.availability + 1e-12);
        }
    }

    /// A NaN indicator (hostile telemetry) must not abort a request: the
    /// selectors order with `total_cmp`, under which NaN sorts after every
    /// finite value, so a NaN-quality plan simply never wins.
    #[test]
    fn selectors_survive_a_nan_quality_plan() {
        let plan = |performance: f64, availability: f64, cost: f64| RecommendedPlan {
            plan: MigrationPlan::all_onprem(2),
            quality: PlanQuality {
                performance,
                availability,
                cost,
                feasible: true,
            },
        };
        let report = RecommendationReport {
            plans: vec![
                plan(f64::NAN, f64::NAN, f64::NAN),
                plan(1.5, 0.0, 9.0),
                plan(1.1, 2.0, 3.0),
                plan(1.3, 0.0, 3.0),
            ],
            visited: 4,
            reward_progression: Vec::new(),
            eval: EvalStats::default(),
            stages: SearchStages::default(),
        };
        assert_eq!(
            report.performance_optimized().unwrap().quality.performance,
            1.1
        );
        // Ties on the first key break by performance.
        assert_eq!(
            report.availability_optimized().unwrap().quality.performance,
            1.3
        );
        assert_eq!(report.cost_optimized().unwrap().quality.performance, 1.1);
        // The front sort uses the same order: NaN goes last.
        let mut plans = report.plans.clone();
        plans.sort_by(|a, b| a.quality.performance.total_cmp(&b.quality.performance));
        assert!(plans[3].quality.performance.is_nan());
        // Only NaN plans: still an answer, not a panic.
        let only_nan = RecommendationReport {
            plans: vec![plan(f64::NAN, f64::NAN, f64::NAN)],
            ..report
        };
        assert!(only_nan.cost_optimized().is_some());
    }

    #[test]
    fn budget_counts_unique_evaluations_and_reports_cache_hits() {
        let quality = build_quality(burst_preferences(12.0));
        let report = Recommender::new(&quality, fast_rl()).recommend();
        assert!(report.visited <= RecommenderConfig::fast().max_visited);
        assert_eq!(report.visited, report.eval.unique_evaluations);
        // The RL trainer re-scores the just-evaluated initial population, so
        // cache hits are guaranteed and do not burn budget.
        assert!(report.eval.cache_hits >= RecommenderConfig::fast().population);
        assert!(report.eval.cache_hit_rate() > 0.0);
        assert!(report.eval.wall_time_ms > 0.0);
        assert!(report.eval.threads >= 1);
    }

    #[test]
    fn warm_evaluators_are_shared_across_runs() {
        let quality = build_quality(burst_preferences(12.0));
        let config = RecommenderConfig::fast();
        let recommender = Recommender::new(&quality, config.clone());
        let cache = crate::eval::MemoCache::default();
        let evaluator = crate::eval::PlanEvaluator::with_shared_cache(&quality, &cache);
        let cold = recommender.recommend_with(&evaluator);
        let after_cold = cache.stats(1);
        let warm = recommender.recommend_with(&evaluator);
        // The budget is request-local, so the warm run replays the cold
        // run's trajectory bit-for-bit — entirely from the shared cache.
        assert_eq!(warm.plans, cold.plans, "cache warmth never changes plans");
        assert_eq!(warm.visited, cold.visited);
        assert_eq!(
            warm.eval.unique_evaluations, 0,
            "the warm run computed nothing of its own"
        );
        assert!(warm.eval.cache_hits > 0);
        // The per-request view splits what the cache's lifetime view
        // aggregates.
        assert_eq!(cold.eval.unique_evaluations, cold.visited);
        assert_eq!(
            cache.stats(1).cache_hits,
            after_cold.cache_hits + warm.eval.cache_hits
        );
        assert_eq!(cache.unique(), cold.visited);
        assert!(!warm.plans.is_empty());
    }

    /// Degenerate budgets train nothing instead of panicking or
    /// overspending, even when the agent is asked for: one plan cannot be
    /// paired, and a budget the initial population already used up leaves
    /// no rollout to pay for. Both fall back to uniform crossover.
    #[test]
    fn degenerate_budgets_skip_training() {
        let quality = build_quality(burst_preferences(12.0));
        let single = RecommenderConfig {
            population: 1,
            max_visited: 12,
            ..fast_rl()
        };
        let report = Recommender::new(&quality, single).recommend();
        assert!(report.reward_progression.is_empty());
        assert!(report.visited <= 12);

        let spent = RecommenderConfig {
            population: 8,
            max_visited: 8,
            ..fast_rl()
        };
        let report = Recommender::new(&quality, spent).recommend();
        assert!(
            report.visited <= 8,
            "visited {} > max_visited",
            report.visited
        );
        assert!(report.reward_progression.is_empty());
        assert_eq!(report.stages.rl_train_ms, 0.0);
    }

    #[test]
    fn rl_strategy_records_reward_progression_and_uniform_does_not() {
        for default in [RecommenderConfig::default(), RecommenderConfig::fast()] {
            assert_eq!(default.strategy, CrossoverStrategy::Uniform);
        }
        let quality = build_quality(burst_preferences(12.0));
        let rl = Recommender::new(&quality, fast_rl()).recommend();
        assert!(!rl.reward_progression.is_empty());
        let uniform = Recommender::new(&quality, RecommenderConfig::fast()).recommend();
        assert!(uniform.reward_progression.is_empty());
        assert!(!uniform.plans.is_empty());

        // The stage breakdown follows the strategy: only the learned agent
        // trains; both draw a population, cross over and run survival sorts.
        assert!(rl.stages.rl_train_ms > 0.0);
        assert_eq!(uniform.stages.rl_train_ms, 0.0);
        for report in [&rl, &uniform] {
            let stages = report.stages;
            assert!(stages.init_ms > 0.0 && stages.crossover_ms > 0.0 && stages.survive_ms > 0.0);
        }
    }
}
