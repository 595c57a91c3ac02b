//! The reward-driven crossover agent `Λ_θ` (paper §4.2.1, Eq. 5).
//!
//! Instead of combining two parent plans uniformly at random, Atlas trains a
//! small actor-critic network that maps the concatenation of the parents to
//! a probability distribution over child plans. The reward encourages
//! children that (i) satisfy every constraint of Eq. 4 and (ii) beat both
//! parents in as many quality aspects as possible:
//!
//! ```text
//! Reward(p; p_i, p_j) = (−1)^{1−λ(p)} · Σ_Q 𝟙[ min(Q(p_i), Q(p_j)) > Q(p) ]
//! ```
//!
//! Two types split the agent's life the way the paper does: a
//! [`CrossoverAgent`] is the agent *while it trains* (actor, critic, both
//! optimizers, every training buffer), and the recommender ends that by
//! reducing it to a [`TrainedCrossover`] — the inference-only artefact a
//! recommendation uses. The artefact holds
//!
//! * the actor's weights ([`atlas_nn::Policy`]), read through `&self`;
//! * the policy-sampling random stream as training left it;
//! * the training rollouts — every child the policy proposed, with the
//!   quality it scored — and the reward curve.
//!
//! It is a pure function of (model, recommender config), so it is built
//! once per model epoch and shared behind an `Arc`: each search takes a
//! sampler that owns its activation buffers and its own copy of the random
//! stream, and never writes to the artefact. The rollouts are
//! kept because the search counts them: they are plans the recommendation
//! visited, so a search that uses the artefact replays them into its own
//! budget and archive (see [`Recommender`](crate::recommender::Recommender))
//! and returns exactly the front it would have found by training inline.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use atlas_nn::{Activations, ActorCritic, ActorCriticConfig, Policy};

use atlas_sim::{ComponentId, SiteId};

use crate::quality::{PlanQuality, RecommendedPlan};
use crate::MigrationPlan;

/// Hyperparameters of the crossover agent and its training loop.
#[derive(Debug, Clone, PartialEq)]
pub struct RlCrossoverConfig {
    /// Training iterations (the paper trains for 1,000).
    pub iterations: usize,
    /// Hidden sizes of the actor (the paper uses three ReLU layers of 128).
    pub actor_hidden: Vec<usize>,
    /// Seed for sampling parents and actions.
    pub seed: u64,
}

impl Default for RlCrossoverConfig {
    fn default() -> Self {
        Self {
            iterations: 1_000,
            actor_hidden: vec![128, 128, 128],
            seed: 17,
        }
    }
}

/// The trained crossover agent plus its reward bookkeeping.
///
/// The policy network has one Bernoulli output per component. In the
/// paper's two-site model that output *is* the child's placement bit. Over
/// an N-site catalog ([`CrossoverAgent::with_site_count`]) the same output
/// is interpreted as an **inheritance mask**: output `i` picks whether gene
/// `i` of the child comes from parent A or parent B, so the learned
/// operator recombines arbitrary site assignments without growing the
/// action space. State inputs are the parents' site indices normalised to
/// `[0, 1]` (site `s` maps to `s / (site_count − 1)`), which is the paper's
/// binary feature when `site_count == 2`.
#[derive(Debug)]
pub struct CrossoverAgent {
    agent: ActorCritic,
    config: RlCrossoverConfig,
    site_count: usize,
    rng: StdRng,
    reward_history: Vec<f64>,
    /// The policy input and the sampled action of the current parent pair,
    /// reused by every training step and every crossover.
    state: Vec<f64>,
    action: Vec<bool>,
}

impl CrossoverAgent {
    /// Create an untrained agent for plans over `component_count` components
    /// in the paper's two-site model.
    pub fn new(component_count: usize, config: RlCrossoverConfig) -> Self {
        let ac_config = ActorCriticConfig {
            actor_hidden: config.actor_hidden.clone(),
            seed: config.seed,
            ..ActorCriticConfig::default()
        };
        let agent = ActorCritic::new(component_count * 2, component_count, ac_config);
        let rng = StdRng::seed_from_u64(config.seed.wrapping_mul(31).wrapping_add(7));
        Self {
            agent,
            config,
            site_count: 2,
            rng,
            reward_history: Vec::new(),
            state: Vec::with_capacity(component_count * 2),
            action: Vec::with_capacity(component_count),
        }
    }

    /// Builder: set the number of sites plans range over. With more than two
    /// sites the policy's outputs act as an inheritance mask over the two
    /// parents (see the type docs); with two they emit the placement
    /// directly, exactly like the paper.
    pub fn with_site_count(mut self, site_count: usize) -> Self {
        assert!(site_count >= 2, "plans need at least two sites");
        self.site_count = site_count;
        self
    }

    /// Reward of a child given its parents' qualities (Eq. 5).
    pub fn reward(
        &self,
        child: &PlanQuality,
        parent_a: &PlanQuality,
        parent_b: &PlanQuality,
    ) -> f64 {
        let improvements = [
            (
                parent_a.performance.min(parent_b.performance),
                child.performance,
            ),
            (
                parent_a.availability.min(parent_b.availability),
                child.availability,
            ),
            (parent_a.cost.min(parent_b.cost), child.cost),
        ]
        .iter()
        .filter(|(best_parent, child_q)| *best_parent > *child_q)
        .count() as f64;
        if !child.feasible {
            -improvements.max(1.0)
        } else {
            improvements
        }
    }

    /// Train the agent on random parent pairs drawn from an already-scored
    /// `dataset`: parent qualities come from the [`RecommendedPlan`]s (no
    /// re-evaluation), and each rollout child is scored by the
    /// caller-supplied closure, which can observe every evaluated child
    /// (e.g. to feed an external Pareto archive). The closure also receives
    /// both parents; nothing in the library reads them, and they stay for
    /// the benchmark's training probe. Returns the per-iteration rewards
    /// (the reward-progression curve of paper Figure 21b).
    pub fn train_scored(
        &mut self,
        dataset: &[RecommendedPlan],
        mut score: impl FnMut(&RecommendedPlan, &RecommendedPlan, &MigrationPlan) -> PlanQuality,
    ) -> Vec<f64> {
        assert!(dataset.len() >= 2, "training needs at least two plans");
        let mut rewards = Vec::with_capacity(self.config.iterations);
        let mut child = MigrationPlan::all_onprem(self.agent.action_dim());
        for _ in 0..self.config.iterations {
            let i = self.rng.gen_range(0..dataset.len());
            let mut j = self.rng.gen_range(0..dataset.len());
            if i == j {
                j = (j + 1) % dataset.len();
            }
            let (parent_a, parent_b) = (&dataset[i], &dataset[j]);
            self.sample_action(parent_a.sites(), parent_b.sites());
            let genes = child_sites_of(
                self.site_count,
                &self.action,
                parent_a.sites(),
                parent_b.sites(),
            );
            for (c, site) in genes.enumerate() {
                child.set(ComponentId(c), site);
            }
            let child_quality = score(parent_a, parent_b, &child);
            let reward = self.reward(&child_quality, &parent_a.quality, &parent_b.quality);
            self.agent.update(&self.state, &self.action, reward);
            rewards.push(reward);
        }
        self.reward_history.extend_from_slice(&rewards);
        rewards
    }

    /// Produce a child from two parents by sampling the learned policy on
    /// their site assignments (borrowed genomes).
    pub fn crossover_sites(&mut self, parent_a: &[SiteId], parent_b: &[SiteId]) -> Vec<SiteId> {
        self.sample_action(parent_a, parent_b);
        child_sites_of(self.site_count, &self.action, parent_a, parent_b).collect()
    }

    /// End training and keep what inference needs: the actor's weights
    /// (moved, not copied), the policy-sampling stream where it stands, the
    /// reward curve — plus the `rollouts` the caller observed through
    /// [`Self::train_scored`]'s closure and the `train_ms` it measured.
    /// The critic, both optimizers and every training buffer are dropped.
    pub(crate) fn into_trained(
        self,
        rollouts: Vec<RecommendedPlan>,
        train_ms: f64,
    ) -> TrainedCrossover {
        let (policy, rng) = self.agent.into_policy();
        TrainedCrossover {
            policy,
            rng,
            site_count: self.site_count,
            rollouts,
            reward_progression: self.reward_history,
            train_ms,
        }
    }

    /// All rewards observed during training, in order.
    pub fn reward_history(&self) -> &[f64] {
        &self.reward_history
    }

    /// Load a parent pair and sample the policy's action for it.
    fn sample_action(&mut self, a: &[SiteId], b: &[SiteId]) {
        load_state(&mut self.state, self.site_count, a, b);
        self.agent.sample_into(&self.state, &mut self.action);
    }
}

/// Load the policy input for a parent pair: both site assignments, one
/// input per component, normalised to `[0, 1]` by the catalog size.
fn load_state(state: &mut Vec<f64>, site_count: usize, a: &[SiteId], b: &[SiteId]) {
    let scale = (site_count.saturating_sub(1)).max(1) as f64;
    state.clear();
    state.extend(a.iter().chain(b).map(|s| s.0 as f64 / scale));
}

/// Decode one policy action into a child genome. Two-site agents emit the
/// placement directly (the paper's formulation, bit-identical to the
/// historical decode); N-site agents treat the action as a per-gene
/// parent-inheritance mask.
fn child_sites_of<'a>(
    site_count: usize,
    action: &'a [bool],
    a: &'a [SiteId],
    b: &'a [SiteId],
) -> impl Iterator<Item = SiteId> + 'a {
    let two_site = site_count <= 2;
    let genes = action.iter().enumerate();
    genes.map(move |(i, &bit)| match (two_site, bit) {
        (true, true) => SiteId::CLOUD,
        (true, false) => SiteId::ON_PREM,
        (false, true) => a[i],
        (false, false) => b[i],
    })
}

/// A crossover agent whose training has ended, reduced to what a search
/// needs (see the [module docs](self)): immutable, `Sync`, and shared —
/// not cloned — by every search at the model epoch it was trained for.
#[derive(Debug)]
pub struct TrainedCrossover {
    policy: Policy,
    /// The policy-sampling stream as training left it; every sampler starts
    /// from a copy.
    rng: StdRng,
    site_count: usize,
    rollouts: Vec<RecommendedPlan>,
    reward_progression: Vec<f64>,
    train_ms: f64,
}

impl TrainedCrossover {
    /// The training rollouts — each child the policy proposed, with the
    /// quality the evaluator gave it — in training order.
    pub fn rollouts(&self) -> &[RecommendedPlan] {
        &self.rollouts
    }

    /// The reward of each training iteration (paper Figure 21b).
    pub fn reward_progression(&self) -> &[f64] {
        &self.reward_progression
    }

    /// Wall-clock milliseconds the training run spent outside plan scoring
    /// (what [`SearchStages::rl_train_ms`](crate::recommender::SearchStages)
    /// reports for the run that trained).
    pub fn train_ms(&self) -> f64 {
        self.train_ms
    }

    /// A sampler over the shared policy, positioned where training ended.
    /// Samplers are independent: each replays the same stream.
    pub(crate) fn sampler(&self) -> CrossoverSampler<'_> {
        CrossoverSampler {
            trained: self,
            rng: self.rng.clone(),
            activations: self.policy.activations(),
            state: Vec::with_capacity(self.policy.state_dim()),
            action: Vec::with_capacity(self.policy.action_dim()),
        }
    }
}

/// One search's handle on a [`TrainedCrossover`]: the activation buffers
/// and the random-stream position are its own, the weights are borrowed.
#[derive(Debug)]
pub(crate) struct CrossoverSampler<'a> {
    trained: &'a TrainedCrossover,
    rng: StdRng,
    activations: Activations,
    state: Vec<f64>,
    action: Vec<bool>,
}

impl CrossoverSampler<'_> {
    /// [`CrossoverAgent::crossover_sites`] on the shared policy: the same
    /// child, from the same draws, that the agent itself would have
    /// produced at this point of its stream.
    pub(crate) fn crossover_sites(
        &mut self,
        parent_a: &[SiteId],
        parent_b: &[SiteId],
    ) -> Vec<SiteId> {
        let trained = self.trained;
        load_state(&mut self.state, trained.site_count, parent_a, parent_b);
        trained.policy.sample_into(
            &mut self.activations,
            &mut self.rng,
            &self.state,
            &mut self.action,
        );
        child_sites_of(trained.site_count, &self.action, parent_a, parent_b).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::plan;

    fn quality(perf: f64, avail: f64, cost: f64, feasible: bool) -> PlanQuality {
        PlanQuality {
            performance: perf,
            availability: avail,
            cost,
            feasible,
        }
    }

    fn agent(n: usize) -> CrossoverAgent {
        CrossoverAgent::new(
            n,
            RlCrossoverConfig {
                iterations: 10,
                actor_hidden: vec![16, 16],
                seed: 4,
            },
        )
    }

    #[test]
    fn reward_counts_improved_objectives() {
        let a = agent(4);
        let pa = quality(2.0, 1.0, 100.0, true);
        let pb = quality(3.0, 0.0, 80.0, true);
        // Child beats min(perf)=2.0 and min(cost)=80 but not min(avail)=0.
        let child = quality(1.5, 0.5, 50.0, true);
        assert_eq!(a.reward(&child, &pa, &pb), 2.0);
        // Child worse everywhere → reward 0.
        let bad = quality(5.0, 2.0, 200.0, true);
        assert_eq!(a.reward(&bad, &pa, &pb), 0.0);
        // Child better everywhere → 3.
        let best = quality(1.0, -1.0, 10.0, true);
        assert_eq!(a.reward(&best, &pa, &pb), 3.0);
    }

    #[test]
    fn infeasible_children_get_negative_reward() {
        let a = agent(4);
        let pa = quality(2.0, 1.0, 100.0, true);
        let pb = quality(3.0, 0.0, 80.0, true);
        let infeasible_good = quality(1.0, -1.0, 10.0, false);
        assert!(a.reward(&infeasible_good, &pa, &pb) < 0.0);
        let infeasible_bad = quality(9.0, 9.0, 900.0, false);
        assert!(a.reward(&infeasible_bad, &pa, &pb) < 0.0);
    }

    #[test]
    fn crossover_produces_plans_of_the_right_size() {
        let mut a = agent(6);
        let p1 = plan(&[0, 0, 0, 1, 1, 1]);
        let p2 = plan(&[1, 1, 1, 0, 0, 0]);
        let child = a.crossover_sites(p1.sites(), p2.sites());
        assert_eq!(child.len(), 6);
        assert!(child.iter().all(|s| s.index() <= 1));
    }

    #[test]
    fn policy_input_normalises_site_indices_by_the_catalog_size() {
        use atlas_sim::SiteId;
        let a = [SiteId(0), SiteId(2), SiteId(3)];
        let b = [SiteId(1), SiteId(0), SiteId(3)];
        let mut state = Vec::new();
        // A 4-site catalog divides by 3.
        load_state(&mut state, 4, &a, &b);
        assert_eq!(state.len(), 6);
        assert_eq!(state[0], 0.0);
        assert!((state[1] - 2.0 / 3.0).abs() < 1e-15);
        assert_eq!(state[2], 1.0);
        assert!((state[3] - 1.0 / 3.0).abs() < 1e-15);
        // Two sites divide by 1: the input is the raw plan variable.
        load_state(&mut state, 2, &b[..2], &a[..1]);
        assert_eq!(state, vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn multi_site_crossover_inherits_genes_from_the_parents() {
        use atlas_sim::SiteId;
        let mut a = agent(6).with_site_count(4);
        let (p1, p2) = ([SiteId(3); 6], [SiteId(1); 6]);
        for _ in 0..8 {
            let child = a.crossover_sites(&p1, &p2);
            assert_eq!(child.len(), 6);
            // Every gene comes from one of the parents: only sites 1 and 3
            // can appear, never an arbitrary site.
            assert!(child.iter().all(|&s| s == SiteId(1) || s == SiteId(3)));
        }
    }

    #[test]
    fn training_appends_its_rewards_to_the_history() {
        let mut a = agent(4);
        assert!(a.reward_history().is_empty());
        let dataset: Vec<RecommendedPlan> = [[0, 0, 1, 1], [1, 0, 1, 0], [1, 1, 0, 0]]
            .iter()
            .map(|sites| RecommendedPlan {
                plan: plan(sites),
                quality: quality(2.0, 1.0, 50.0, true),
            })
            .collect();
        let rewards = a.train_scored(&dataset, |_, _, _| quality(1.0, 0.5, 40.0, true));
        assert_eq!(rewards, vec![3.0; 10]);
        assert_eq!(a.reward_history(), rewards);
    }
}
