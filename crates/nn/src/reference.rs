//! The reference oracle: the batch-`Matrix` training path this crate used
//! before the single-sample rewrite, kept verbatim (a fresh `Matrix` per
//! `matmul`/`add`/`map`/`transpose`, a transposed weight matrix per layer
//! per step, flatten → Adam → unflatten around every update) so the
//! differential tests can hold the fused path to it bit for bit. Compiled
//! for tests only; nothing here is reachable from the library.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::actor_critic::ActorCriticConfig;
use crate::matrix::Matrix;

impl Matrix {
    /// A 1×n row vector.
    pub(crate) fn row_vector(values: &[f64]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Matrix product `self × other`.
    pub(crate) fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data_mut()[i * other.cols + j] += a * other.get(k, j);
                }
            }
        }
        out
    }

    /// Transpose.
    pub(crate) fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data_mut()[j * self.rows + i] = self.get(i, j);
            }
        }
        out
    }

    fn zip_with(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data()
            .iter()
            .zip(other.data())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Element-wise sum with another matrix of identical shape.
    pub(crate) fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise product (Hadamard).
    pub(crate) fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a * b)
    }

    /// Add a row vector to every row (bias broadcast).
    pub(crate) fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        assert_eq!(row.rows, 1);
        assert_eq!(row.cols, self.cols);
        let mut out = self.clone();
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data_mut()[i * self.cols + j] += row.get(0, j);
            }
        }
        out
    }

    /// Element-wise map.
    pub(crate) fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let data = self.data().iter().map(|&x| f(x)).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Column-wise sums, returned as a 1×cols row vector.
    pub(crate) fn column_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data_mut()[j] += self.get(i, j);
            }
        }
        out
    }
}

/// One dense layer: `y = x·W + b`.
struct Dense {
    weights: Matrix,
    bias: Matrix,
    grad_weights: Matrix,
    grad_bias: Matrix,
}

/// Cached activations of one forward pass.
pub(crate) struct ForwardCache {
    /// Input and the post-activation output of every layer (len = layers+1).
    activations: Vec<Matrix>,
    /// Pre-activation outputs of every layer (len = layers).
    pre_activations: Vec<Matrix>,
}

impl ForwardCache {
    pub(crate) fn output(&self) -> &Matrix {
        self.activations.last().expect("cache has activations")
    }
}

/// The allocating multi-layer perceptron.
pub(crate) struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Same He-init draw order as [`crate::Mlp::new`].
    pub(crate) fn new(sizes: &[usize], seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = sizes
            .windows(2)
            .map(|w| Dense {
                weights: Matrix::he_init(w[0], w[1], &mut rng),
                bias: Matrix::zeros(1, w[1]),
                grad_weights: Matrix::zeros(w[0], w[1]),
                grad_bias: Matrix::zeros(1, w[1]),
            })
            .collect();
        Self { layers }
    }

    pub(crate) fn parameter_count(&self) -> usize {
        self.parameters().len()
    }

    pub(crate) fn forward(&self, input: &Matrix) -> ForwardCache {
        let mut activations = vec![input.clone()];
        let mut pre_activations = Vec::with_capacity(self.layers.len());
        for (i, layer) in self.layers.iter().enumerate() {
            let z = activations
                .last()
                .expect("non-empty")
                .matmul(&layer.weights)
                .add_row_broadcast(&layer.bias);
            pre_activations.push(z.clone());
            let a = if i + 1 == self.layers.len() {
                z // linear output layer
            } else {
                z.map(|x| x.max(0.0)) // ReLU
            };
            activations.push(a);
        }
        ForwardCache {
            activations,
            pre_activations,
        }
    }

    pub(crate) fn backward(&mut self, cache: &ForwardCache, d_output: &Matrix) -> Matrix {
        let mut grad = d_output.clone();
        for i in (0..self.layers.len()).rev() {
            if i + 1 != self.layers.len() {
                let mask = cache.pre_activations[i].map(|x| if x > 0.0 { 1.0 } else { 0.0 });
                grad = grad.hadamard(&mask);
            }
            let input_act = &cache.activations[i];
            let gw = input_act.transpose().matmul(&grad);
            let gb = grad.column_sums();
            self.layers[i].grad_weights = self.layers[i].grad_weights.add(&gw);
            self.layers[i].grad_bias = self.layers[i].grad_bias.add(&gb);
            grad = grad.matmul(&self.layers[i].weights.transpose());
        }
        grad
    }

    pub(crate) fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.grad_weights = Matrix::zeros(layer.weights.rows, layer.weights.cols);
            layer.grad_bias = Matrix::zeros(1, layer.bias.cols);
        }
    }

    /// All parameters, flattened (weights then bias per layer).
    pub(crate) fn parameters(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for layer in &self.layers {
            out.extend_from_slice(layer.weights.data());
            out.extend_from_slice(layer.bias.data());
        }
        out
    }

    /// All accumulated gradients, in the order of [`Self::parameters`].
    pub(crate) fn gradients(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for layer in &self.layers {
            out.extend_from_slice(layer.grad_weights.data());
            out.extend_from_slice(layer.grad_bias.data());
        }
        out
    }

    pub(crate) fn set_parameters(&mut self, params: &[f64]) {
        let mut offset = 0;
        for layer in &mut self.layers {
            for tensor in [&mut layer.weights, &mut layer.bias] {
                let len = tensor.len();
                tensor
                    .data_mut()
                    .copy_from_slice(&params[offset..offset + len]);
                offset += len;
            }
        }
        assert_eq!(offset, params.len(), "parameter count mismatch");
    }
}

/// Adam over one flat parameter vector.
struct Adam {
    learning_rate: f64,
    beta1: f64,
    beta2: f64,
    epsilon: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    fn new(parameter_count: usize, learning_rate: f64) -> Self {
        Self {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            m: vec![0.0; parameter_count],
            v: vec![0.0; parameter_count],
            t: 0,
        }
    }

    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = self.m[i] / b1t;
            let v_hat = self.v[i] / b2t;
            params[i] -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
        }
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// The allocating actor-critic: `sample` and `update` as they were.
pub(crate) struct ActorCritic {
    pub(crate) actor: Mlp,
    pub(crate) critic: Mlp,
    actor_opt: Adam,
    critic_opt: Adam,
    entropy_coeff: f64,
    rng: StdRng,
}

impl ActorCritic {
    pub(crate) fn new(state_dim: usize, action_dim: usize, config: ActorCriticConfig) -> Self {
        let mut actor_sizes = vec![state_dim];
        actor_sizes.extend_from_slice(&config.actor_hidden);
        actor_sizes.push(action_dim);
        let mut critic_sizes = vec![state_dim];
        critic_sizes.extend_from_slice(&config.critic_hidden);
        critic_sizes.push(1);
        let actor = Mlp::new(&actor_sizes, config.seed);
        let critic = Mlp::new(&critic_sizes, config.seed.wrapping_add(1));
        Self {
            actor_opt: Adam::new(actor.parameter_count(), config.actor_lr),
            critic_opt: Adam::new(critic.parameter_count(), config.critic_lr),
            actor,
            critic,
            entropy_coeff: config.entropy_coeff,
            rng: StdRng::seed_from_u64(config.seed.wrapping_add(2)),
        }
    }

    pub(crate) fn sample(&mut self, state: &[f64]) -> Vec<bool> {
        let logits = self.actor.forward(&Matrix::row_vector(state));
        let probs: Vec<f64> = logits.output().data().iter().map(|&l| sigmoid(l)).collect();
        probs.iter().map(|&p| self.rng.gen::<f64>() < p).collect()
    }

    pub(crate) fn update(&mut self, state: &[f64], action: &[bool], reward: f64) -> f64 {
        let input = Matrix::row_vector(state);

        let critic_cache = self.critic.forward(&input);
        let value = critic_cache.output().get(0, 0);
        let advantage = reward - value;
        self.critic.zero_grad();
        self.critic
            .backward(&critic_cache, &Matrix::row_vector(&[value - reward]));
        let mut critic_params = self.critic.parameters();
        let critic_grads = self.critic.gradients();
        self.critic_opt.step(&mut critic_params, &critic_grads);
        self.critic.set_parameters(&critic_params);

        let actor_cache = self.actor.forward(&input);
        let logits = actor_cache.output().data().to_vec();
        let d_out: Vec<f64> = logits
            .iter()
            .zip(action.iter())
            .map(|(&z, &a)| {
                let p = sigmoid(z);
                let a = if a { 1.0 } else { 0.0 };
                -(advantage * (a - p)) + self.entropy_coeff * z * p * (1.0 - p)
            })
            .collect();
        self.actor.zero_grad();
        self.actor
            .backward(&actor_cache, &Matrix::row_vector(&d_out));
        let mut actor_params = self.actor.parameters();
        let actor_grads = self.actor.gradients();
        self.actor_opt.step(&mut actor_params, &actor_grads);
        self.actor.set_parameters(&actor_params);

        advantage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!((c.rows, c.cols), (2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!((t.rows, t.cols), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn elementwise_operations() {
        let a = Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![10.0, 20.0, 30.0]);
        assert_eq!(a.add(&b).data(), &[11.0, 18.0, 33.0]);
        assert_eq!(a.hadamard(&b).data(), &[10.0, -40.0, 90.0]);
        assert_eq!(a.map(f64::abs).data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn broadcasting_and_column_sums() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let bias = Matrix::row_vector(&[10.0, 20.0]);
        let shifted = a.add_row_broadcast(&bias);
        assert_eq!(shifted.data(), &[11.0, 22.0, 13.0, 24.0]);
        assert_eq!(a.column_sums().data(), &[4.0, 6.0]);
    }
}
