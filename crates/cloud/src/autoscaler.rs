//! Cluster-autoscaler simulation (paper Appendix A, Eq. 6 and Eq. 8).
//!
//! The cloud side of the hybrid deployment is elastic: a cluster autoscaler
//! adjusts the number of nodes at minute granularity based on the resource
//! demand of the components placed there, and cloud storage grows in steps
//! whenever the free fraction falls below the headroom threshold.

use crate::pricing::PricingModel;

/// Computes node counts and storage capacities over time for a given demand.
#[derive(Debug, Clone, PartialEq)]
pub struct Autoscaler {
    /// Pricing model providing node granularity (`Ω`) and headroom (`δ`).
    pub pricing: PricingModel,
}

impl Autoscaler {
    /// Create an autoscaler for a pricing model.
    pub fn new(pricing: PricingModel) -> Self {
        Self { pricing }
    }

    /// Number of nodes required at one time step (Eq. 6): the maximum over
    /// CPU and memory of `ceil((1 + δ) * demand / Ω_r)`.
    pub fn nodes_required(&self, cpu_cores: f64, memory_gb: f64) -> usize {
        let headroom = 1.0 + self.pricing.headroom;
        let by_cpu = (headroom * cpu_cores / self.pricing.node_cpu_cores).ceil();
        let by_mem = (headroom * memory_gb / self.pricing.node_memory_gb).ceil();
        by_cpu.max(by_mem).max(0.0) as usize
    }

    /// Storage capacity trace (Eq. 8): start from `initial_gb` and scale up
    /// by the headroom factor whenever the free fraction drops to `δ` or
    /// below, repeating the growth step until the headroom is restored.
    ///
    /// A usage spike larger than one `(1 + δ)` step (say 10 GB → 50 GB)
    /// therefore provisions enough capacity within the step it appears in,
    /// instead of reporting a capacity below the actual usage for many steps.
    pub fn storage_trace(&self, initial_gb: f64, used_gb_per_step: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(used_gb_per_step.len());
        self.storage_trace_into(initial_gb, used_gb_per_step, &mut out);
        out
    }

    /// [`Self::storage_trace`] into a caller-provided buffer (cleared
    /// first), the allocation-free variant used by hot evaluation loops.
    pub fn storage_trace_into(
        &self,
        initial_gb: f64,
        used_gb_per_step: &[f64],
        out: &mut Vec<f64>,
    ) {
        // A free fraction can never exceed 1, so a (nonsensical) headroom of
        // 1 or more would loop forever; clamp to keep the loop terminating
        // for any `pricing.headroom`.
        let delta = self.pricing.headroom.clamp(0.0, 0.99);
        let mut capacity = initial_gb.max(1.0);
        out.clear();
        out.reserve(used_gb_per_step.len());
        for &used in used_gb_per_step {
            while 1.0 - used / capacity <= delta {
                // `max` guards against a zero-headroom pricing model, where
                // `ceil` alone could leave an integer capacity unchanged.
                capacity = ((1.0 + delta) * capacity).ceil().max(capacity + 1.0);
            }
            out.push(capacity);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pricing::Provider;

    fn scaler() -> Autoscaler {
        Autoscaler::new(PricingModel::preset(Provider::AwsLike))
    }

    #[test]
    fn nodes_follow_eq6() {
        let a = scaler();
        // 4-core nodes, 20 % headroom: 3.4 cores → ceil(1.2*3.4/4)=ceil(1.02)=2.
        assert_eq!(a.nodes_required(3.4, 1.0), 2);
        assert_eq!(a.nodes_required(3.0, 1.0), 1);
        assert_eq!(a.nodes_required(0.0, 0.0), 0);
        assert_eq!(a.nodes_required(10.0, 4.0), 3);
        // Memory-bound: 40 GB with 16 GB nodes → ceil(1.2*40/16)=3.
        assert_eq!(a.nodes_required(0.5, 40.0), 3);
    }

    #[test]
    fn storage_scales_up_when_headroom_exhausted() {
        let a = scaler();
        let trace = a.storage_trace(10.0, &[5.0, 8.0, 8.5, 9.0, 9.0]);
        assert_eq!(trace.len(), 5);
        assert_eq!(trace[0], 10.0);
        // 8.0/10 leaves 20 % free → trigger (free fraction <= δ).
        assert!(trace[1] > 10.0);
        // Capacity never shrinks and always covers usage with headroom.
        for (i, &cap) in trace.iter().enumerate() {
            if i > 0 {
                assert!(cap >= trace[i - 1]);
            }
        }
    }

    /// Regression test: a spike bigger than one `(1 + δ)` growth step used to
    /// grow capacity only once per step, reporting capacity *below* actual
    /// usage (a negative free fraction) for many steps and under-billing
    /// storage in the cost model.
    #[test]
    fn storage_spike_is_covered_within_the_step() {
        let a = scaler();
        let delta = a.pricing.headroom;
        let used = [5.0, 50.0, 50.0, 55.0, 120.0];
        let trace = a.storage_trace(10.0, &used);
        for (&cap, &used) in trace.iter().zip(used.iter()) {
            assert!(cap > used, "capacity {cap} must always cover usage {used}");
            assert!(
                1.0 - used / cap > delta,
                "free fraction must exceed the headroom δ after scaling \
                 (capacity {cap}, used {used})"
            );
        }
        // Capacity never shrinks.
        for w in trace.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    /// A misconfigured headroom ≥ 1 must not hang the growth loop (a free
    /// fraction can never exceed 1); the clamp keeps the trace finite and
    /// covering usage.
    #[test]
    fn degenerate_headroom_still_terminates() {
        let mut a = scaler();
        a.pricing.headroom = 1.0;
        let trace = a.storage_trace(10.0, &[5.0, 80.0]);
        assert_eq!(trace.len(), 2);
        assert!(trace.iter().all(|c| c.is_finite()));
        assert!(trace[1] > 80.0);
    }

    #[test]
    fn storage_never_drops_below_initial() {
        let a = scaler();
        let trace = a.storage_trace(50.0, &[1.0, 1.0, 1.0]);
        assert_eq!(trace, vec![50.0, 50.0, 50.0]);
    }
}
