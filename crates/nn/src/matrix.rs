//! Dense row-major matrices: the storage of a layer's weights.
//!
//! A [`Matrix`] is a shape plus one flat `f64` buffer. The training path
//! never builds a temporary matrix — the layers in [`crate::mlp`] walk the
//! rows of [`Matrix::data`] directly — so this type carries construction
//! and access only, no algebra.

use rand::Rng;

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A matrix initialised with He/Kaiming-style uniform noise, suitable
    /// for ReLU layers.
    pub fn he_init<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let bound = (6.0 / cols as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..=bound))
            .collect();
        Self { rows, cols, data }
    }

    /// Build from a row-major data vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must match dimensions");
        Self { rows, cols, data }
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// The underlying row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!(m.len(), 6);
        assert!(!m.is_empty());
        m.data_mut()[5] = 5.0;
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.get(0, 0), 0.0);
        let v = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        assert_eq!((v.rows, v.cols), (1, 2));
        assert_eq!(v.data(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_checks_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn he_init_is_bounded_and_seeded() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Matrix::he_init(10, 20, &mut rng);
        let bound = (6.0 / 20.0f64).sqrt();
        assert!(m.data().iter().all(|&x| x.abs() <= bound));
        let mut rng2 = StdRng::seed_from_u64(1);
        assert_eq!(m, Matrix::he_init(10, 20, &mut rng2));
    }
}
