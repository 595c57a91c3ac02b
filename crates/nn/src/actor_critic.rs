//! Actor-critic training for a Bernoulli policy.
//!
//! The crossover agent `Λ_θ` of paper §4.2.1 maps the concatenation of two
//! parent plans to a probability distribution over child plans. Because a
//! plan is a binary vector (one bit per component: on-prem or cloud), the
//! natural policy is a product of independent Bernoulli variables: the actor
//! network outputs one logit per component and the child plan is sampled
//! bit-by-bit. The reward (Eq. 5) is non-differentiable, so the actor is
//! trained with a policy gradient whose baseline is provided by a critic
//! network predicting the expected reward of the state — the standard
//! actor-critic recipe referenced by the paper.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::adam::Adam;
use crate::mlp::Mlp;

/// Hyperparameters of the actor-critic agent.
#[derive(Debug, Clone, PartialEq)]
pub struct ActorCriticConfig {
    /// Hidden-layer sizes of the actor (the paper uses three ReLU layers of
    /// 128 units).
    pub actor_hidden: Vec<usize>,
    /// Hidden-layer sizes of the critic.
    pub critic_hidden: Vec<usize>,
    /// Actor learning rate.
    pub actor_lr: f64,
    /// Critic learning rate.
    pub critic_lr: f64,
    /// Entropy-bonus coefficient keeping the policy stochastic (the paper
    /// relies on sampling for GA-style mutation diversity).
    pub entropy_coeff: f64,
    /// Seed for parameter initialisation and action sampling.
    pub seed: u64,
}

impl Default for ActorCriticConfig {
    fn default() -> Self {
        Self {
            actor_hidden: vec![128, 128, 128],
            critic_hidden: vec![64, 64],
            actor_lr: 3e-3,
            critic_lr: 1e-2,
            entropy_coeff: 1e-3,
            seed: 7,
        }
    }
}

/// A Bernoulli-policy actor plus a scalar critic. The agent owns every
/// buffer of its training step: [`ActorCritic::update`] allocates nothing.
#[derive(Debug, Clone)]
pub struct ActorCritic {
    actor: Mlp,
    critic: Mlp,
    actor_opt: Adam,
    critic_opt: Adam,
    config: ActorCriticConfig,
    rng: StdRng,
    /// Loss gradient at the actor's logits, rebuilt by every update.
    d_logits: Vec<f64>,
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl ActorCritic {
    /// Create an agent mapping `state_dim` inputs to `action_dim` Bernoulli
    /// probabilities.
    pub fn new(state_dim: usize, action_dim: usize, config: ActorCriticConfig) -> Self {
        let mut actor_sizes = vec![state_dim];
        actor_sizes.extend_from_slice(&config.actor_hidden);
        actor_sizes.push(action_dim);
        let mut critic_sizes = vec![state_dim];
        critic_sizes.extend_from_slice(&config.critic_hidden);
        critic_sizes.push(1);

        let actor = Mlp::new(&actor_sizes, config.seed);
        let critic = Mlp::new(&critic_sizes, config.seed.wrapping_add(1));
        let actor_opt = Adam::new(actor.parameter_count(), config.actor_lr);
        let critic_opt = Adam::new(critic.parameter_count(), config.critic_lr);
        let rng = StdRng::seed_from_u64(config.seed.wrapping_add(2));
        Self {
            actor,
            critic,
            actor_opt,
            critic_opt,
            config,
            rng,
            d_logits: vec![0.0; action_dim],
        }
    }

    /// Dimensionality of the action (number of Bernoulli bits).
    pub fn action_dim(&self) -> usize {
        self.actor.output_dim()
    }

    /// Dimensionality of the state.
    pub fn state_dim(&self) -> usize {
        self.actor.input_dim()
    }

    /// Sample an action (bit vector) from the current policy.
    pub fn sample(&mut self, state: &[f64]) -> Vec<bool> {
        let mut action = Vec::with_capacity(self.action_dim());
        self.sample_into(state, &mut action);
        action
    }

    /// [`Self::sample`] into a caller-owned buffer (cleared first): the
    /// same draws from the same random stream, one uniform per bit in
    /// order.
    pub fn sample_into(&mut self, state: &[f64], action: &mut Vec<bool>) {
        let logits = self.actor.forward(state);
        action.clear();
        action.extend(logits.iter().map(|&l| self.rng.gen::<f64>() < sigmoid(l)));
    }

    /// Critic's estimate of the expected reward of a state.
    pub fn value(&mut self, state: &[f64]) -> f64 {
        self.critic.forward(state)[0]
    }

    /// One actor-critic update from a single `(state, action, reward)`
    /// sample. Returns the advantage used for the actor update.
    pub fn update(&mut self, state: &[f64], action: &[bool], reward: f64) -> f64 {
        assert_eq!(state.len(), self.state_dim(), "state width mismatch");
        assert_eq!(action.len(), self.action_dim(), "action width mismatch");

        // ---- Critic: minimise 0.5 (V(s) - r)^2. ----
        let value = self.critic.forward(state)[0];
        let advantage = reward - value;
        self.critic.backward(&[value - reward]);
        self.critic.step(&mut self.critic_opt);

        // ---- Actor: maximise advantage-weighted log-likelihood + entropy. --
        // For a Bernoulli policy parameterised by logits z with p = σ(z):
        //   ∂ log π(a|s) / ∂z_i = a_i - p_i
        //   ∂ H(π) / ∂z_i       = -z_i · p_i · (1 - p_i)
        // We minimise  -(A · log π + c · H), so the output gradient is
        //   -(A · (a_i - p_i)) + c · z_i · p_i · (1 - p_i).
        let logits = self.actor.forward(state);
        for ((d, &z), &a) in self.d_logits.iter_mut().zip(logits).zip(action) {
            let p = sigmoid(z);
            let a = if a { 1.0 } else { 0.0 };
            *d = -(advantage * (a - p)) + self.config.entropy_coeff * z * p * (1.0 - p);
        }
        self.actor.backward(&self.d_logits);
        self.actor.step(&mut self.actor_opt);

        advantage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    impl ActorCritic {
        /// The per-bit probabilities `P(bit = 1 | state)`.
        fn probabilities(&mut self, state: &[f64]) -> Vec<f64> {
            let logits = self.actor.forward(state);
            logits.iter().map(|&l| sigmoid(l)).collect()
        }
    }

    fn small_config(seed: u64) -> ActorCriticConfig {
        ActorCriticConfig {
            actor_hidden: vec![32, 32],
            critic_hidden: vec![16],
            actor_lr: 5e-3,
            critic_lr: 1e-2,
            entropy_coeff: 1e-4,
            seed,
        }
    }

    #[test]
    fn shapes_and_probabilities_are_valid() {
        let mut agent = ActorCritic::new(6, 3, small_config(1));
        assert_eq!(agent.state_dim(), 6);
        assert_eq!(agent.action_dim(), 3);
        let probs = agent.probabilities(&[0.0; 6]);
        assert_eq!(probs.len(), 3);
        assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn critic_learns_a_constant_reward() {
        let mut agent = ActorCritic::new(4, 2, small_config(2));
        let state = [0.3, -0.2, 0.8, 0.1];
        for _ in 0..400 {
            let action = agent.sample(&state);
            agent.update(&state, &action, 1.0);
        }
        let v = agent.value(&state);
        assert!((v - 1.0).abs() < 0.2, "critic should approach 1.0, got {v}");
    }

    /// The policy must learn to set the bits that are rewarded: reward is
    /// the number of bits matching a fixed target pattern.
    #[test]
    fn policy_learns_a_target_bit_pattern() {
        let target = [true, false, true, false, true];
        let mut agent = ActorCritic::new(3, 5, small_config(3));
        let state = [1.0, 0.5, -0.5];
        for _ in 0..1_500 {
            let action = agent.sample(&state);
            let reward = action
                .iter()
                .zip(target.iter())
                .filter(|(a, t)| a == t)
                .count() as f64
                / target.len() as f64;
            agent.update(&state, &action, reward);
        }
        let probs = agent.probabilities(&state);
        for (i, (&p, &t)) in probs.iter().zip(target.iter()).enumerate() {
            if t {
                assert!(p > 0.7, "bit {i} should favour 1, p = {p}");
            } else {
                assert!(p < 0.3, "bit {i} should favour 0, p = {p}");
            }
        }
    }

    #[test]
    fn sampling_draws_one_bit_per_output() {
        let mut agent = ActorCritic::new(2, 4, small_config(4));
        let s = agent.sample(&[0.2, 0.4]);
        assert_eq!(s.len(), 4);
    }

    #[test]
    #[should_panic(expected = "state width mismatch")]
    fn mismatched_state_panics() {
        let mut agent = ActorCritic::new(3, 2, small_config(5));
        agent.update(&[0.0; 5], &[true, false], 0.0);
    }

    #[test]
    fn advantage_reflects_surprise() {
        let mut agent = ActorCritic::new(2, 2, small_config(6));
        let state = [0.1, 0.9];
        // Train the critic towards zero reward first.
        for _ in 0..200 {
            let action = agent.sample(&state);
            agent.update(&state, &action, 0.0);
        }
        let action = agent.sample(&state);
        let advantage = agent.update(&state, &action, 1.0);
        assert!(
            advantage > 0.5,
            "a surprising reward should have positive advantage"
        );
    }
    /// Train the fused agent and the allocating oracle side by side for
    /// `steps` steps on fresh random states whose features are
    /// `site / (site_count − 1)`, sampling every action from both so the
    /// random streams stay pinned, with rewards that drive the advantage
    /// positive, negative and (every fifth step) exactly zero. Advantages
    /// are compared with `to_bits()` every step, all actor and critic
    /// parameters at the end.
    fn assert_training_matches_the_reference(
        state_dim: usize,
        action_dim: usize,
        config: ActorCriticConfig,
        site_count: u32,
        steps: usize,
    ) {
        let mut fused = ActorCritic::new(state_dim, action_dim, config.clone());
        let mut oracle = reference::ActorCritic::new(state_dim, action_dim, config);
        let mut rng = StdRng::seed_from_u64(99);
        let rewards = [3.0, -1.0, 0.0, 2.0, -3.0, 1.0, -2.0];
        let (mut positive, mut negative, mut zero) = (0, 0, 0);
        for step in 0..steps {
            let state: Vec<f64> = (0..state_dim)
                .map(|_| f64::from(rng.gen_range(0..site_count)) / f64::from(site_count - 1))
                .collect();
            let action = fused.sample(&state);
            assert_eq!(
                action,
                oracle.sample(&state),
                "step {step}: sampled actions"
            );
            let reward = if step % 5 == 4 {
                fused.value(&state)
            } else {
                rewards[step % rewards.len()]
            };
            let advantage = fused.update(&state, &action, reward);
            let expected = oracle.update(&state, &action, reward);
            assert_eq!(
                advantage.to_bits(),
                expected.to_bits(),
                "step {step}: advantage"
            );
            match advantage {
                a if a > 0.0 => positive += 1,
                a if a < 0.0 => negative += 1,
                _ => zero += 1,
            }
        }
        assert!(
            positive > 0 && negative > 0 && zero > 0,
            "all advantage signs seen"
        );
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<u64>>();
        assert_eq!(
            bits(fused.actor.parameters()),
            bits(oracle.actor.parameters())
        );
        assert_eq!(
            bits(fused.critic.parameters()),
            bits(oracle.critic.parameters())
        );
    }

    /// The dims an agent of `RecommenderConfig::fast()` trains at on 100
    /// components: its hidden sizes, the default critic.
    fn serving_config() -> ActorCriticConfig {
        ActorCriticConfig {
            actor_hidden: vec![48, 48],
            seed: 17,
            ..ActorCriticConfig::default()
        }
    }

    #[test]
    fn fused_training_is_bit_identical_at_the_serving_dims() {
        assert_training_matches_the_reference(200, 100, serving_config(), 2, 150);
    }

    #[test]
    fn fused_training_is_bit_identical_on_fractional_site_features() {
        assert_training_matches_the_reference(200, 100, serving_config(), 4, 150);
    }

    /// The paper's actor on the social network: 58 → 128 → 128 → 128 → 29.
    #[test]
    fn fused_training_is_bit_identical_at_the_paper_dims() {
        for site_count in [2, 3] {
            let config = ActorCriticConfig::default();
            assert_training_matches_the_reference(58, 29, config, site_count, 150);
        }
    }
}
