//! Greedy cloud-bursting baselines (Seagull-style \[45\]).
//!
//! The simplest policies in the paper's comparison: offload the busiest (or
//! the least busy) components one by one until the remaining on-prem demand
//! fits the cluster. They ignore inter-component interactions entirely,
//! which is exactly why they incur large latency and egress costs.

use atlas_core::MigrationPlan;

use crate::context::BaselineContext;

/// Which end of the busyness ranking gets offloaded first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GreedyOrder {
    /// Offload the busiest (largest CPU) components first — frees the most
    /// on-prem resources per move.
    LargestFirst,
    /// Offload the least busy (smallest CPU) components first.
    SmallestFirst,
}

/// The greedy advisor.
#[derive(Debug, Clone, Copy)]
pub struct GreedyAdvisor {
    /// Offloading order.
    pub order: GreedyOrder,
}

impl GreedyAdvisor {
    /// A largest-first advisor.
    pub fn largest_first() -> Self {
        Self {
            order: GreedyOrder::LargestFirst,
        }
    }

    /// A smallest-first advisor.
    pub fn smallest_first() -> Self {
        Self {
            order: GreedyOrder::SmallestFirst,
        }
    }

    /// Recommend a single placement: offload components in busyness order —
    /// to the context's offload site (the catalog's cheapest elastic site;
    /// the cloud on the paper's testbed) — until the placement satisfies
    /// Eq. 4, as the context's scorer ([`BaselineContext::scorer`]) judges
    /// it for every baseline. Demands rank by `total_cmp`, so a NaN one cannot
    /// abort the sort.
    pub fn recommend(&self, ctx: &BaselineContext) -> MigrationPlan {
        let n = ctx.component_count();
        let mut sites = vec![atlas_sim::SiteId::ON_PREM; n];
        ctx.preferences.apply_pins(&mut sites);

        let mut candidates: Vec<usize> = (0..n)
            .filter(|&i| {
                !ctx.preferences
                    .pinned
                    .contains_key(&atlas_sim::ComponentId(i))
            })
            .collect();
        candidates.sort_by(|&a, &b| {
            let (ca, cb) = (ctx.peak_cpu_of(a), ctx.peak_cpu_of(b));
            match self.order {
                GreedyOrder::LargestFirst => cb.total_cmp(&ca),
                GreedyOrder::SmallestFirst => ca.total_cmp(&cb),
            }
        });

        let scorer = ctx.scorer();
        for &c in &candidates {
            if scorer.score(&sites).feasible {
                break;
            }
            sites[c] = ctx.offload_site;
        }
        BaselineContext::to_plan(&sites)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_context;
    use atlas_sim::{ComponentId, SiteId};

    #[test]
    fn largest_first_offloads_the_busiest_component() {
        // CPU demands: A=2, B=6, C=3; limit 7 → offloading B alone suffices.
        let ctx = test_context(7.0);
        let plan = GreedyAdvisor::largest_first().recommend(&ctx);
        assert_eq!(plan.cloud_components(), vec![ComponentId(1)]);
    }

    #[test]
    fn smallest_first_offloads_more_components() {
        let ctx = test_context(7.0);
        let plan = GreedyAdvisor::smallest_first().recommend(&ctx);
        // A (2) then C (3) must both go before the limit is met (leaves 6).
        assert!(plan.cloud_components().len() >= 2);
        assert!(!plan.cloud_components().contains(&ComponentId(1)));
    }

    #[test]
    fn no_offloading_when_the_cluster_is_large_enough() {
        let ctx = test_context(100.0);
        for advisor in [
            GreedyAdvisor::largest_first(),
            GreedyAdvisor::smallest_first(),
        ] {
            assert!(advisor.recommend(&ctx).cloud_components().is_empty());
        }
    }

    #[test]
    fn pinned_components_stay_put() {
        let mut ctx = test_context(7.0);
        ctx.preferences = ctx.preferences.clone().pin(ComponentId(1), SiteId::ON_PREM);
        let plan = GreedyAdvisor::largest_first().recommend(&ctx);
        assert_eq!(plan.site(ComponentId(1)), SiteId::ON_PREM);
        // It must offload others to compensate (A and C).
        assert!(plan.cloud_components().len() >= 2);
    }

    /// A NaN peak-CPU demand (hostile telemetry) does not abort the
    /// ranking: greedy still returns a plan over every component.
    #[test]
    fn a_nan_demand_still_yields_a_plan() {
        let mut ctx = test_context(7.0);
        ctx.demand.fill_cpu(2, f64::NAN);
        for advisor in [
            GreedyAdvisor::largest_first(),
            GreedyAdvisor::smallest_first(),
        ] {
            assert_eq!(advisor.recommend(&ctx).len(), 3);
        }
    }
}
