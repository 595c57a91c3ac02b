//! Overload model: what happens when on-prem demand exceeds capacity.
//!
//! The motivation for hybrid-cloud bursting (paper §1, Figure 2) is that an
//! inelastic on-prem cluster saturates during traffic peaks: requests queue,
//! latency spikes and some requests fail outright. The cloud side autoscales
//! (paper §3, "Elastic Microservices"), so it never saturates in our model.
//!
//! The model is intentionally simple — an M/M/1-style latency inflation plus
//! a failure probability above saturation — because Atlas itself never looks
//! at it; it only needs the simulator to reproduce the qualitative behaviour
//! that overloaded on-prem components get slow and flaky.

/// Latency inflation and failure behaviour as a function of CPU utilization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadModel {
    /// Utilization below which no inflation is applied.
    pub knee_utilization: f64,
    /// Maximum latency-inflation factor applied as utilization approaches
    /// and exceeds 1.0.
    pub max_inflation: f64,
    /// Failure probability per request when utilization exceeds 1.0,
    /// proportional to the excess demand (capped at
    /// [`OverloadModel::max_failure_probability`]).
    pub failure_per_excess: f64,
    /// Upper bound on the per-request failure probability.
    pub max_failure_probability: f64,
}

impl Default for OverloadModel {
    fn default() -> Self {
        Self {
            knee_utilization: 0.7,
            max_inflation: 12.0,
            failure_per_excess: 0.25,
            max_failure_probability: 0.5,
        }
    }
}

impl OverloadModel {
    /// A model that never inflates or fails (useful to isolate network
    /// effects in tests).
    pub fn disabled() -> Self {
        Self {
            knee_utilization: f64::INFINITY,
            max_inflation: 1.0,
            failure_per_excess: 0.0,
            max_failure_probability: 0.0,
        }
    }

    /// Multiplicative service-time inflation at the given CPU utilization.
    ///
    /// Below the knee the factor is exactly 1.0; above it the factor grows
    /// like an M/M/1 waiting curve `1 / (1 - u)` rescaled to start at the
    /// knee, and saturates at [`OverloadModel::max_inflation`].
    pub fn inflation(&self, utilization: f64) -> f64 {
        if !utilization.is_finite() || utilization <= self.knee_utilization {
            return 1.0;
        }
        // Normalize so that inflation(knee) == 1.0; beyond full saturation the
        // curve is pinned near u = 0.999 and the clamp takes over.
        let u = utilization.min(0.999);
        let base = 1.0 - self.knee_utilization.min(0.999);
        let factor = base / (1.0 - u);
        factor.clamp(1.0, self.max_inflation)
    }

    /// Per-request failure probability at the given CPU utilization.
    pub fn failure_probability(&self, utilization: f64) -> f64 {
        if !utilization.is_finite() || utilization <= 1.0 {
            return 0.0;
        }
        ((utilization - 1.0) * self.failure_per_excess).min(self.max_failure_probability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_inflation_below_knee() {
        let m = OverloadModel::default();
        assert_eq!(m.inflation(0.0), 1.0);
        assert_eq!(m.inflation(0.5), 1.0);
        assert_eq!(m.inflation(0.7), 1.0);
    }

    #[test]
    fn inflation_grows_with_utilization_and_saturates() {
        let m = OverloadModel::default();
        let a = m.inflation(0.8);
        let b = m.inflation(0.95);
        let c = m.inflation(1.5);
        let d = m.inflation(2.64); // the paper's peak 264 % utilization
        assert!(a > 1.0);
        assert!(b > a);
        assert!(c > 1.0);
        assert!(d <= m.max_inflation + 1e-9);
        assert!(m.inflation(10.0) <= m.max_inflation + 1e-9);
    }

    #[test]
    fn failure_probability_only_above_saturation() {
        let m = OverloadModel::default();
        assert_eq!(m.failure_probability(0.9), 0.0);
        assert_eq!(m.failure_probability(1.0), 0.0);
        assert!(m.failure_probability(1.5) > 0.0);
        assert!(m.failure_probability(5.0) <= m.max_failure_probability);
    }

    #[test]
    fn disabled_model_is_inert() {
        let m = OverloadModel::disabled();
        assert_eq!(m.inflation(2.0), 1.0);
        assert_eq!(m.failure_probability(3.0), 0.0);
    }

    #[test]
    fn inflation_handles_non_finite_utilization() {
        let m = OverloadModel::default();
        assert_eq!(m.inflation(f64::NAN), 1.0);
        assert_eq!(m.failure_probability(f64::NAN), 0.0);
    }
}
