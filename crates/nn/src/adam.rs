//! The Adam optimizer (Kingma & Ba, 2014), used by the paper to train the
//! actor network for 1,000 iterations.

/// Adam state for one flat parameter vector, updated tensor by tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    /// Learning rate.
    pub learning_rate: f64,
    /// Exponential decay of the first moment.
    pub beta1: f64,
    /// Exponential decay of the second moment.
    pub beta2: f64,
    /// Numerical-stability epsilon.
    pub epsilon: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Create an optimizer for `parameter_count` parameters with the usual
    /// defaults (`β1 = 0.9`, `β2 = 0.999`, `ε = 1e-8`).
    pub fn new(parameter_count: usize, learning_rate: f64) -> Self {
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

    /// Number of update steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Apply one Adam update in place: `params -= lr * m̂ / (√v̂ + ε)`.
    ///
    /// The parameter vector arrives as its tensors — `(params, grads)`
    /// slice pairs in a fixed order, e.g. each layer's weights then bias —
    /// and tensor `k` owns the moments at the offset where the tensors
    /// before it end. Every element goes through exactly this expression,
    /// divisions and square root included: hoisting a reciprocal would move
    /// the last bits of every trained weight (see the crate docs).
    ///
    /// # Panics
    ///
    /// Panics if a pair's lengths differ or the tensors do not add up to
    /// the parameter count the optimizer was created with.
    pub fn step<'a>(&mut self, tensors: impl IntoIterator<Item = (&'a mut [f64], &'a [f64])>) {
        self.t += 1;
        let (beta1, beta2) = (self.beta1, self.beta2);
        let (learning_rate, epsilon) = (self.learning_rate, self.epsilon);
        let b1t = 1.0 - beta1.powi(self.t as i32);
        let b2t = 1.0 - beta2.powi(self.t as i32);
        let mut offset = 0;
        for (params, grads) in tensors {
            assert_eq!(grads.len(), params.len(), "gradient count mismatch");
            let end = offset + params.len();
            assert!(end <= self.m.len(), "parameter count mismatch");
            let moments = self.m[offset..end].iter_mut().zip(&mut self.v[offset..end]);
            for ((p, &g), (m, v)) in params.iter_mut().zip(grads).zip(moments) {
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                let m_hat = *m / b1t;
                let v_hat = *v / b2t;
                *p -= learning_rate * m_hat / (v_hat.sqrt() + epsilon);
            }
            offset = end;
        }
        assert_eq!(offset, self.m.len(), "parameter count mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimises_a_quadratic() {
        // f(x) = (x - 3)^2, gradient 2(x - 3).
        let mut params = [10.0];
        let mut adam = Adam::new(1, 0.1);
        for _ in 0..500 {
            let grads = [2.0 * (params[0] - 3.0)];
            adam.step([(&mut params[..], &grads[..])]);
        }
        assert!((params[0] - 3.0).abs() < 1e-3, "converged to {}", params[0]);
        assert_eq!(adam.steps(), 500);
    }

    #[test]
    fn minimises_a_multidimensional_bowl() {
        // f(x) = Σ (x_i - i)^2.
        let mut params = [5.0; 4];
        let mut adam = Adam::new(4, 0.05);
        for _ in 0..2_000 {
            let grads: Vec<f64> = params
                .iter()
                .enumerate()
                .map(|(i, &x)| 2.0 * (x - i as f64))
                .collect();
            adam.step([(&mut params[..], &grads[..])]);
        }
        for (i, &x) in params.iter().enumerate() {
            assert!((x - i as f64).abs() < 1e-2, "dim {i} converged to {x}");
        }
    }

    #[test]
    fn zero_gradient_leaves_parameters_unchanged() {
        let mut params = [1.0, 2.0];
        let mut adam = Adam::new(2, 0.1);
        adam.step([(&mut params[..], &[0.0, 0.0][..])]);
        assert_eq!(params, [1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "parameter count mismatch")]
    fn mismatched_lengths_panic() {
        let mut adam = Adam::new(3, 0.1);
        let mut params = [0.0; 2];
        adam.step([(&mut params[..], &[0.0, 0.0][..])]);
    }
}
