//! Multi-layer perceptrons with manual backpropagation, one sample at a
//! time, over preallocated buffers.
//!
//! The network is a stack of dense layers with ReLU activations on every
//! hidden layer and a linear final layer. An [`Mlp`] owns its parameters
//! and every buffer of its single-sample training step: one activation row
//! per layer, one gradient tensor pair per layer and two delta rows.
//! [`Mlp::forward`] overwrites the activation rows, [`Mlp::backward`]
//! overwrites each layer's gradient buffers from those rows, and
//! [`Mlp::step`] hands weights and gradients to [`Adam`] tensor by tensor —
//! a training step allocates nothing and copies no parameter.
//!
//! The loops keep the floating-point operations, and their order, of the
//! batch-matrix implementation they replaced (see the crate docs for the
//! contract); the `reference` oracle holds them to it bit for bit.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adam::Adam;
use crate::matrix::Matrix;

/// One dense layer's tensors: `y = x·W + b`, with `W` stored
/// `inputs × outputs`. The same shape holds a layer's parameters and its
/// gradients.
#[derive(Debug, Clone, PartialEq)]
struct Dense {
    weights: Matrix,
    bias: Vec<f64>,
}

impl Dense {
    fn zeros(inputs: usize, outputs: usize) -> Self {
        Self {
            weights: Matrix::zeros(inputs, outputs),
            bias: vec![0.0; outputs],
        }
    }

    /// `out = x·W + b`, through ReLU when `relu`. Each output accumulates
    /// `x_k · W[k][j]` over `k` ascending, skipping `x_k == 0`, and adds the
    /// bias last.
    fn forward(&self, input: &[f64], out: &mut [f64], relu: bool) {
        out.fill(0.0);
        let rows = self.weights.data().chunks_exact(self.weights.cols);
        for (&x, row) in input.iter().zip(rows) {
            if x == 0.0 {
                continue;
            }
            for (o, &w) in out.iter_mut().zip(row) {
                *o += x * w;
            }
        }
        for (o, &b) in out.iter_mut().zip(&self.bias) {
            *o += b;
            if relu {
                *o = o.max(0.0);
            }
        }
    }

    /// Overwrite `grad` from this layer's input row and `delta` (the loss
    /// gradient at its pre-activations), and write the gradient at the
    /// input when someone downstream reads it. `0.0 + x` is what
    /// accumulating into a zeroed buffer computed: it turns `-0.0` into
    /// `0.0` and changes nothing else. `delta · Wᵀ` is a dot product per
    /// row of `W`, summed over `j` ascending and skipping `delta_j == 0`.
    fn backward(
        &self,
        grad: &mut Dense,
        input: &[f64],
        delta: &[f64],
        input_grad: Option<&mut [f64]>,
    ) {
        let cols = self.weights.cols;
        let grad_rows = grad.weights.data_mut().chunks_exact_mut(cols);
        for (&x, grad_row) in input.iter().zip(grad_rows) {
            if x == 0.0 {
                grad_row.fill(0.0);
            } else {
                for (g, &d) in grad_row.iter_mut().zip(delta) {
                    *g = 0.0 + x * d;
                }
            }
        }
        for (g, &d) in grad.bias.iter_mut().zip(delta) {
            *g = 0.0 + d;
        }
        let Some(input_grad) = input_grad else { return };
        let rows = self.weights.data().chunks_exact(cols);
        for (out, row) in input_grad.iter_mut().zip(rows) {
            let mut sum = 0.0;
            for (&d, &w) in delta.iter().zip(row) {
                if d != 0.0 {
                    sum += d * w;
                }
            }
            *out = sum;
        }
    }
}

/// A multi-layer perceptron with ReLU hidden layers and a linear output
/// layer, together with the workspace of its single-sample training step.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Dense>,
    sizes: Vec<usize>,
    /// One gradient tensor pair per layer, overwritten by every backward
    /// pass.
    grads: Vec<Dense>,
    /// `rows[0]` is the last input, `rows[i + 1]` the output of layer `i`
    /// (after its ReLU, for hidden layers).
    rows: Vec<Vec<f64>>,
    /// Two rows as wide as the widest layer: the backward pass reads the
    /// current layer's delta from one and writes the next one's into the
    /// other.
    deltas: [Vec<f64>; 2],
}

impl Mlp {
    /// Create an MLP with the given layer sizes, e.g. `\[58, 128, 128, 128, 29\]`
    /// for the paper's actor network on the social network application.
    /// Parameters are He-initialised, drawn layer by layer in row-major
    /// order from `seed`.
    pub fn new(sizes: &[usize], seed: u64) -> Self {
        assert!(
            sizes.len() >= 2,
            "an MLP needs at least input and output sizes"
        );
        assert!(sizes.iter().all(|&s| s > 0), "layers cannot be empty");
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = sizes
            .windows(2)
            .map(|w| Dense {
                weights: Matrix::he_init(w[0], w[1], &mut rng),
                bias: vec![0.0; w[1]],
            })
            .collect();
        let widest = *sizes.iter().max().expect("sizes validated above");
        Self {
            layers,
            sizes: sizes.to_vec(),
            grads: sizes.windows(2).map(|w| Dense::zeros(w[0], w[1])).collect(),
            rows: sizes.iter().map(|&s| vec![0.0; s]).collect(),
            deltas: [vec![0.0; widest], vec![0.0; widest]],
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.sizes[0]
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        *self.sizes.last().expect("sizes validated in constructor")
    }

    /// Number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights.len() + l.bias.len())
            .sum()
    }

    /// Run the network on one sample and return its output, which stays
    /// readable (and is what [`Self::backward`] differentiates) until the
    /// next call.
    pub fn forward(&mut self, input: &[f64]) -> &[f64] {
        assert_eq!(input.len(), self.input_dim(), "input width mismatch");
        let rows = &mut self.rows;
        rows[0].copy_from_slice(input);
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let (before, after) = rows.split_at_mut(i + 1);
            layer.forward(&before[i], &mut after[0], i != last);
        }
        &rows[last + 1]
    }

    /// Backpropagate `d_output` (gradient of the loss w.r.t. the output of
    /// the last [`Self::forward`]) and *overwrite* every layer's parameter
    /// gradients. The gradient w.r.t. the network input is not computed:
    /// nothing reads it.
    pub fn backward(&mut self, d_output: &[f64]) {
        assert_eq!(d_output.len(), self.output_dim(), "output width mismatch");
        let sizes = &self.sizes;
        let rows = &self.rows;
        let last = self.grads.len() - 1;
        let [delta, next] = &mut self.deltas;
        delta[..d_output.len()].copy_from_slice(d_output);
        let layers = self.layers.iter().zip(&mut self.grads);
        for (i, (layer, grad)) in layers.enumerate().rev() {
            let delta_i = &mut delta[..sizes[i + 1]];
            if i != last {
                // Through the ReLU: an output is positive exactly when its
                // pre-activation was.
                for (d, &a) in delta_i.iter_mut().zip(&rows[i + 1]) {
                    *d *= if a > 0.0 { 1.0 } else { 0.0 };
                }
            }
            let input_grad = (i > 0).then(|| &mut next[..sizes[i]]);
            layer.backward(grad, &rows[i], delta_i, input_grad);
            std::mem::swap(delta, next);
        }
    }

    /// One optimizer step on the gradients of the last [`Self::backward`],
    /// in place: `optimizer` sees each layer's weights, then its bias.
    pub fn step(&mut self, optimizer: &mut Adam) {
        let layers = self.layers.iter_mut().zip(&self.grads);
        optimizer.step(layers.flat_map(|(layer, grad)| {
            [
                (layer.weights.data_mut(), grad.weights.data()),
                (&mut layer.bias[..], &grad.bias[..]),
            ]
        }));
    }
}

/// Flattened views for tests: the differential and finite-difference
/// checks address parameters by index, the training path never does.
#[cfg(test)]
impl Mlp {
    /// All parameters (weights then bias per layer — [`Self::step`]'s order).
    pub(crate) fn parameters(&self) -> Vec<f64> {
        let layers = self.layers.iter();
        let tensors = layers.flat_map(|l| [l.weights.data(), &l.bias]);
        tensors.flatten().copied().collect()
    }

    /// The gradients of the last backward pass, in the same order.
    pub(crate) fn gradients(&self) -> Vec<f64> {
        let tensors = self.grads.iter().flat_map(|l| [l.weights.data(), &l.bias]);
        tensors.flatten().copied().collect()
    }

    /// Overwrite all parameters (inverse of [`Self::parameters`]).
    pub(crate) fn set_parameters(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.parameter_count());
        let mut rest = params;
        for layer in &mut self.layers {
            for tensor in [layer.weights.data_mut(), &mut layer.bias[..]] {
                let (head, tail) = rest.split_at(tensor.len());
                tensor.copy_from_slice(head);
                rest = tail;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    #[test]
    fn shapes_and_parameter_count() {
        let mut mlp = Mlp::new(&[4, 8, 3], 0);
        assert_eq!(mlp.input_dim(), 4);
        assert_eq!(mlp.output_dim(), 3);
        assert_eq!(mlp.parameter_count(), 4 * 8 + 8 + 8 * 3 + 3);
        let out = mlp.forward(&[0.1, -0.2, 0.3, 0.4]);
        assert_eq!(out.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn too_few_sizes_panics() {
        let _ = Mlp::new(&[4], 0);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn mismatched_input_panics() {
        let _ = Mlp::new(&[4, 2], 0).forward(&[0.0; 3]);
    }

    #[test]
    fn parameters_round_trip() {
        let mut mlp = Mlp::new(&[3, 5, 2], 7);
        let params = mlp.parameters();
        let doubled: Vec<f64> = params.iter().map(|p| p * 2.0).collect();
        mlp.set_parameters(&doubled);
        assert_eq!(mlp.parameters(), doubled);
    }

    #[test]
    fn deterministic_construction_per_seed() {
        let a = Mlp::new(&[6, 10, 2], 3);
        let b = Mlp::new(&[6, 10, 2], 3);
        let c = Mlp::new(&[6, 10, 2], 4);
        assert_eq!(a.parameters(), b.parameters());
        assert_ne!(a.parameters(), c.parameters());
        // The oracle draws the same initial weights in the same order.
        assert_eq!(
            a.parameters(),
            reference::Mlp::new(&[6, 10, 2], 3).parameters()
        );
    }

    /// Numerical gradient check: backprop must agree with finite differences
    /// on a small network and a quadratic loss.
    #[test]
    fn gradient_check_against_finite_differences() {
        let mut mlp = Mlp::new(&[3, 4, 2], 11);
        let input = [0.5, -0.3, 0.8];
        let target = [0.2, -0.1];

        // Loss = 0.5 * ||out - target||^2 → dL/dout = out - target.
        let loss_of = |mlp: &mut Mlp| {
            let out = mlp.forward(&input);
            out.iter()
                .zip(target.iter())
                .map(|(o, t)| 0.5 * (o - t).powi(2))
                .sum::<f64>()
        };

        let d_out: Vec<f64> = mlp
            .forward(&input)
            .iter()
            .zip(target.iter())
            .map(|(o, t)| o - t)
            .collect();
        mlp.backward(&d_out);
        let analytic = mlp.gradients();

        let params = mlp.parameters();
        let eps = 1e-6;
        for idx in (0..params.len()).step_by(7) {
            let mut plus = params.clone();
            plus[idx] += eps;
            let mut minus = params.clone();
            minus[idx] -= eps;
            let mut m_plus = mlp.clone();
            m_plus.set_parameters(&plus);
            let mut m_minus = mlp.clone();
            m_minus.set_parameters(&minus);
            let numeric = (loss_of(&mut m_plus) - loss_of(&mut m_minus)) / (2.0 * eps);
            assert!(
                (numeric - analytic[idx]).abs() < 1e-4,
                "gradient mismatch at {idx}: numeric {numeric} vs analytic {}",
                analytic[idx]
            );
        }
    }

    /// The MLP + gradients must be able to fit XOR, which requires the
    /// hidden non-linearity to work.
    #[test]
    fn learns_xor_with_plain_gradient_descent() {
        // Inputs use a ±1 encoding so that no sample lands exactly on the
        // all-zero dead spot of freshly-initialised ReLU units.
        let mut mlp = Mlp::new(&[2, 16, 1], 5);
        let data = [
            ([-1.0, -1.0], 0.0),
            ([-1.0, 1.0], 1.0),
            ([1.0, -1.0], 1.0),
            ([1.0, 1.0], 0.0),
        ];
        let lr = 0.05;
        for _ in 0..4_000 {
            // Full-batch descent: sum the per-sample gradients.
            let mut grads = vec![0.0; mlp.parameter_count()];
            for (x, y) in &data {
                let out = mlp.forward(x)[0];
                mlp.backward(&[out - y]);
                for (sum, g) in grads.iter_mut().zip(mlp.gradients()) {
                    *sum += g;
                }
            }
            let params = mlp.parameters();
            let updated: Vec<f64> = params.iter().zip(&grads).map(|(p, g)| p - lr * g).collect();
            mlp.set_parameters(&updated);
        }
        for (x, y) in &data {
            let out = mlp.forward(x)[0];
            assert!(
                (out - y).abs() < 0.2,
                "XOR({x:?}) predicted {out}, expected {y}"
            );
        }
    }

    #[test]
    fn backward_overwrites_the_previous_gradients() {
        let mut mlp = Mlp::new(&[2, 3, 1], 9);
        mlp.forward(&[1.0, -1.0]);
        mlp.backward(&[1.0]);
        let first = mlp.gradients();
        assert!(first.iter().any(|&g| g != 0.0));
        mlp.backward(&[1.0]);
        assert_eq!(mlp.gradients(), first, "gradients must not accumulate");
        mlp.backward(&[0.0]);
        assert!(mlp.gradients().iter().all(|&g| g == 0.0));
    }

    /// Forward outputs and every gradient equal the oracle's bit for bit,
    /// on binary inputs (zero skips taken) and fractional ones.
    #[test]
    fn forward_and_backward_match_the_reference_bit_for_bit() {
        let sizes = [6, 9, 7, 4];
        let mut fused = Mlp::new(&sizes, 21);
        let mut oracle = reference::Mlp::new(&sizes, 21);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for input in [
            [1.0, 0.0, 0.0, 1.0, 1.0, 0.0],
            [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0, 0.0, 1.0 / 3.0],
            [0.0; 6],
        ] {
            let cache = oracle.forward(&Matrix::row_vector(&input));
            let out = fused.forward(&input).to_vec();
            assert_eq!(bits(&out), bits(cache.output().data()));
            let d_out: Vec<f64> = out.iter().map(|o| o - 0.25).collect();
            oracle.zero_grad();
            oracle.backward(&cache, &Matrix::row_vector(&d_out));
            fused.backward(&d_out);
            assert_eq!(bits(&fused.gradients()), bits(&oracle.gradients()));
        }
    }
}
