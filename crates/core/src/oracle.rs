//! The interpretive oracle: the paper's Eq. 1–4 evaluated the long way, as
//! an independent check on the compiled scoring path.
//!
//! Nothing here serves a recommendation or arms a detector — every plan is
//! scored by [`crate::kernel`]. This module recomputes the same answers
//! from the model's learned inputs without its compiled state:
//! [`DelayInjector`] replays each retained trace recursively (paper §4.1.1,
//! Figure 6), `Q_Avai` resolves stateful components by name, `Q_Cost`
//! prices through the uncompiled cost model, and [`why_infeasible`]
//! re-derives Eq. 4 from the demand's subset sums. Property tests hold the
//! kernel bit-identical to [`evaluate`]. The module is not re-exported at
//! the crate root.

mod delay;

pub use delay::DelayInjector;

use atlas_sim::ComponentId;

use crate::profile::ApiProfile;
use crate::quality::{PlanQuality, QualityModel};
use crate::MigrationPlan;

/// All three indicators of `plan` and its feasibility, interpretively: the
/// reference [`QualityModel::evaluate`] is pinned to bit for bit.
pub fn evaluate(model: &QualityModel, plan: &MigrationPlan) -> PlanQuality {
    PlanQuality {
        performance: performance(model, plan),
        availability: availability(model, plan),
        cost: cost(model, plan),
        feasible: why_infeasible(model, plan).is_none(),
    }
}

/// The learned APIs in sorted order: the summation order of `Q_Perf` and
/// `Q_Avai`.
fn sorted_apis(model: &QualityModel) -> Vec<(&String, &ApiProfile)> {
    let mut apis: Vec<_> = model.profile().apis.iter().collect();
    apis.sort_unstable_by_key(|&(name, _)| name);
    apis
}

/// `Q_Perf` (Eq. 1): the weighted mean over APIs of the delay-injected
/// latency relative to today's.
fn performance(model: &QualityModel, plan: &MigrationPlan) -> f64 {
    let apis = sorted_apis(model);
    if apis.is_empty() {
        return 1.0;
    }
    let injector = DelayInjector::new(&model.network, model.component_index());
    let (mut total, mut weight_sum) = (0.0, 0.0);
    for (name, api) in apis {
        let weight = model.preferences().api_weight(name);
        let estimated = injector
            .estimate_api_latency_ms_weighted(
                &api.traces,
                &api.trace_weights,
                model.footprint(),
                model.current_placement(),
                plan,
            )
            .max(1e-9);
        total += weight * estimated / api.mean_latency_ms.max(1e-6);
        weight_sum += weight;
    }
    total / weight_sum
}

/// `Q_Avai`: the weighted count of APIs a stateful component of which
/// moves.
fn availability(model: &QualityModel, plan: &MigrationPlan) -> f64 {
    let moved = |component: &String| {
        let index = model.component_index().iter().position(|n| n == component);
        index.is_some_and(|i| {
            plan.site(ComponentId(i)) != model.current_placement().site(ComponentId(i))
        })
    };
    let mut disruption = 0.0;
    for (name, api) in sorted_apis(model) {
        if api.stateful_components.iter().any(moved) {
            disruption += model.preferences().api_weight(name);
        }
    }
    disruption
}

/// `Q_Cost`: the uncompiled cost model over the plan's components.
fn cost(model: &QualityModel, plan: &MigrationPlan) -> f64 {
    let sites = &plan.sites()[..model.component_count()];
    model.cost_model.evaluate(&model.demand, sites).total()
}

/// The first constraint of Eq. 4 that `plan` violates, in words, or `None`
/// if it is feasible: placement pins, the on-prem resource limits, the
/// capacity of owned sites beyond site 0 and the budget, each recomputed
/// from the demand.
pub fn why_infeasible(model: &QualityModel, plan: &MigrationPlan) -> Option<String> {
    let n = model.component_count();
    if plan.len() != n {
        return Some("plan does not cover every component".to_string());
    }
    let preferences = model.preferences();
    if preferences.violates_pins(plan) {
        return Some("violates a placement constraint".to_string());
    }
    let demand = &model.demand;
    let at = |site| -> Vec<usize> { (0..n).filter(|&i| plan.sites()[i] == site).collect() };
    let onprem = at(atlas_sim::SiteId::ON_PREM);
    let peak_cpu = demand.peak_cpu(&onprem);
    if peak_cpu > preferences.onprem_cpu_limit {
        return Some(format!(
            "on-prem CPU demand {peak_cpu:.1} exceeds limit {:.1}",
            preferences.onprem_cpu_limit
        ));
    }
    let peak_mem = demand.peak_memory_gb(&onprem);
    if peak_mem > preferences.onprem_memory_limit_gb {
        return Some(format!(
            "on-prem memory demand {peak_mem:.1} GB exceeds limit {:.1} GB",
            preferences.onprem_memory_limit_gb
        ));
    }
    let peak_storage = demand.peak_storage_gb(&onprem);
    if peak_storage > preferences.onprem_storage_limit_gb {
        return Some(format!(
            "on-prem storage demand {peak_storage:.1} GB exceeds limit {:.1} GB",
            preferences.onprem_storage_limit_gb
        ));
    }
    // Capacity limits of owned sites at index > 0 (catalog-declared; empty
    // in the two-site model, where site 1 is elastic).
    for limits in model.kernel().constraints().owned_site_limits() {
        let members = at(limits.site);
        let site = limits.site.index();
        let cpu = demand.peak_cpu(&members);
        if limits.cpu_cores.is_finite() && cpu > limits.cpu_cores {
            return Some(format!(
                "site {site} CPU demand {cpu:.1} exceeds capacity {:.1}",
                limits.cpu_cores
            ));
        }
        let mem = demand.peak_memory_gb(&members);
        if limits.memory_gb.is_finite() && mem > limits.memory_gb {
            return Some(format!(
                "site {site} memory demand {mem:.1} GB exceeds capacity {:.1} GB",
                limits.memory_gb
            ));
        }
        let storage = demand.peak_storage_gb(&members);
        if limits.storage_gb.is_finite() && storage > limits.storage_gb {
            return Some(format!(
                "site {site} storage demand {storage:.1} GB exceeds capacity {:.1} GB",
                limits.storage_gb
            ));
        }
    }
    if let Some(budget) = preferences.budget {
        let cost = cost(model, plan);
        if cost > budget {
            return Some(format!("cost {cost:.2} exceeds budget {budget:.2}"));
        }
    }
    None
}
