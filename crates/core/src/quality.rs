//! Migration-quality modeling: `Q_Perf`, `Q_Avai`, `Q_Cost` and the
//! feasibility constraints of Eq. 4.
//!
//! Scoring is two-tier since PR 4: [`QualityModel::for_catalog`] compiles the
//! learned traces into a [`CompiledQuality`] kernel (see [`crate::kernel`])
//! and every hot entry point — `evaluate`, `performance`, `availability`,
//! `cost`, `is_feasible`, `estimate_api_latency_ms` — scores through it.
//! The kernel has one trace walk, run at the width of the group it scores:
//! `evaluate` and `evaluate_lanes` are one group scorer, a lone plan being
//! a group of width 1, and the per-API estimate walks at width 1 too. The
//! original interpretive
//! implementations remain available as `*_interpretive` reference oracles;
//! property tests pin the two paths bit-identical.

use std::collections::HashMap;

use atlas_cloud::{CompiledCost, CostScratch, ResourceDemand, SiteCostModel};
use atlas_sim::{Placement, SiteCatalog, SiteId};

use crate::delay::DelayInjector;
use crate::footprint::NetworkFootprint;
use crate::kernel::{with_scratch, CompiledQuality};
use crate::plan::MigrationPlan;
use crate::preferences::MigrationPreferences;
use crate::profile::ApplicationProfile;

/// The three quality indicators of one plan, plus its feasibility.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanQuality {
    /// `Q_Perf`: weighted mean latency ratio (new / current) across APIs;
    /// 1.0 means "as fast as today", larger is worse.
    pub performance: f64,
    /// `Q_Avai`: weighted number of APIs disrupted by the migration.
    pub availability: f64,
    /// `Q_Cost`: cloud hosting cost (dollars) over the demand horizon.
    pub cost: f64,
    /// Whether the plan satisfies all constraints of Eq. 4 (`λ(p)`).
    pub feasible: bool,
}

impl PlanQuality {
    /// The objective vector `[Q_Perf, Q_Avai, Q_Cost]` used by NSGA-II.
    ///
    /// Returns a fixed-size array (API change in PR 4: previously a
    /// `Vec<f64>`) so the O(N²) dominance loops of `atlas-ga` compare
    /// objectives without a heap allocation per population member; the GA
    /// entry points are generic over `AsRef<[f64]>` and accept it directly.
    pub fn objectives(&self) -> [f64; 3] {
        [self.performance, self.availability, self.cost]
    }
}

/// A scored plan: its site assignment paired with its [`PlanQuality`], the
/// form in which the search keeps its population. Produced by
/// [`QualityModel::evaluate_scored`] and the plan evaluator's scored
/// batches.
#[derive(Debug, Clone)]
pub struct ScoredPlan {
    sites: Vec<SiteId>,
    quality: PlanQuality,
}

impl ScoredPlan {
    /// Pair a site assignment with its quality.
    pub fn new(sites: Vec<SiteId>, quality: PlanQuality) -> Self {
        Self { sites, quality }
    }

    /// The plan's site assignment, indexed like the component index.
    pub fn sites(&self) -> &[SiteId] {
        &self.sites
    }

    /// The plan's quality indicators.
    pub fn quality(&self) -> PlanQuality {
        self.quality
    }
}

/// Models the quality of candidate plans without executing them.
#[derive(Debug, Clone)]
pub struct QualityModel {
    profile: ApplicationProfile,
    footprint: NetworkFootprint,
    injector: DelayInjector,
    cost_model: SiteCostModel,
    demand: ResourceDemand,
    preferences: MigrationPreferences,
    current: Placement,
    /// Component names in plan-index order.
    component_index: Vec<String>,
    /// Current mean latency per API (ms), the denominator of `Q_Perf`.
    baseline_latency_ms: HashMap<String, f64>,
    /// API endpoints in sorted order: the deterministic summation order of
    /// `Q_Perf`/`Q_Avai`, shared by the kernel and the interpretive path.
    api_order: Vec<String>,
    /// The compiled evaluation kernel (see [`crate::kernel`]).
    kernel: CompiledQuality,
    /// The cost model pre-bound to `demand` (edge totals and step-major
    /// resource columns hoisted); bit-identical to `cost_model`, used by
    /// every kernel scoring path. [`Self::cost_interpretive`] and
    /// [`Self::feasibility`] stay on the uncompiled oracle.
    cost_kernel: CompiledCost,
}

impl QualityModel {
    /// Assemble a quality model over a [`SiteCatalog`]: the delay injector
    /// replays traces against the catalog's per-ordered-pair links, and
    /// `Q_Cost` bills every elastic site under its own pricing.
    /// [`SiteCatalog::default`] is the paper's two-site testbed.
    ///
    /// `component_index` defines the component ordering used by plans and by
    /// the demand; `current` is the placement the application runs under
    /// today (all on-prem in the paper's experiments).
    #[allow(clippy::too_many_arguments)]
    pub fn for_catalog(
        profile: ApplicationProfile,
        footprint: NetworkFootprint,
        catalog: &SiteCatalog,
        demand: ResourceDemand,
        preferences: MigrationPreferences,
        current: Placement,
        component_index: Vec<String>,
    ) -> Self {
        assert_eq!(
            current.len(),
            component_index.len(),
            "current placement must cover every component"
        );
        assert!(
            current.sites().iter().all(|&s| catalog.contains(s)),
            "the current placement names a site outside the catalog"
        );
        let injector = DelayInjector::new(catalog.network().clone(), component_index.clone());
        let cost_model = catalog.cost_model();
        let baseline_latency_ms: HashMap<String, f64> = profile
            .apis
            .iter()
            .map(|(k, v)| (k.clone(), v.mean_latency_ms.max(1e-6)))
            .collect();
        let mut api_order: Vec<String> = profile.apis.keys().cloned().collect();
        api_order.sort();
        let mut kernel = CompiledQuality::compile(
            &profile,
            &footprint,
            injector.site_network(),
            &preferences,
            &current,
            &component_index,
            &api_order,
        );
        kernel.set_owned_site_limits(catalog.owned_site_limits());
        let cost_kernel = cost_model.compile(&demand);
        Self {
            profile,
            footprint,
            injector,
            cost_model,
            demand,
            preferences,
            current,
            component_index,
            baseline_latency_ms,
            api_order,
            kernel,
            cost_kernel,
        }
    }

    /// Incrementally refresh the model after the telemetry store reports
    /// `dirty` APIs: relearn only those APIs' profiles from the store's
    /// retained traces ([`ApplicationProfile::relearn_dirty`]) and recompile
    /// only their op arenas in place
    /// (`CompiledQuality::recompile_apis`). APIs whose retained traces
    /// were all evicted are dropped from the model.
    ///
    /// The network footprint, demand and cost model are deliberately held
    /// fixed: footprint learning regresses *jointly* across every API
    /// sharing an edge, so it has no per-API incremental form — refresh it
    /// with a full [`Atlas::learn`](crate::advisor::Atlas::learn) pass when
    /// the traffic mix shifts structurally. Under that fixed context the
    /// result is bit-identical to a cold model built from the same retained
    /// traces, footprint and demand (pinned by property test).
    pub fn relearn_dirty(
        &mut self,
        store: &atlas_telemetry::TelemetryStore,
        stateful_components: &[String],
        traces_per_api: usize,
        dirty: &[String],
    ) {
        self.profile
            .relearn_dirty(store, stateful_components, traces_per_api, dirty);
        for name in dirty {
            match self.profile.apis.get(name) {
                Some(api) => {
                    self.baseline_latency_ms
                        .insert(name.clone(), api.mean_latency_ms.max(1e-6));
                }
                None => {
                    self.baseline_latency_ms.remove(name);
                }
            }
        }
        let mut api_order: Vec<String> = self.profile.apis.keys().cloned().collect();
        api_order.sort();
        self.api_order = api_order;
        self.kernel.recompile_apis(
            &self.profile,
            &self.footprint,
            self.injector.site_network(),
            &self.preferences,
            &self.current,
            &self.component_index,
            &self.api_order,
            dirty,
        );
    }

    /// Number of components (the plan length this model expects).
    pub fn component_count(&self) -> usize {
        self.component_index.len()
    }

    /// Number of sites plans may place components at (2 on the paper's
    /// testbed).
    pub fn site_count(&self) -> usize {
        self.cost_model.site_count()
    }

    /// Debug guard on every scoring entry point: a plan naming a site
    /// outside the catalog would silently index a neighbouring hop's
    /// link-cost table (and price the component in no pool). Construct
    /// plans over a catalog with [`MigrationPlan::try_from_sites`] to get
    /// the checked error in every build.
    #[inline]
    fn debug_assert_in_catalog(&self, sites: &[SiteId]) {
        debug_assert!(
            sites.iter().all(|s| s.index() < self.site_count()),
            "plan names a site outside the {}-site catalog; build plans with \
             MigrationPlan::try_from_sites",
            self.site_count()
        );
    }

    /// The component names in plan-index order.
    pub fn component_index(&self) -> &[String] {
        &self.component_index
    }

    /// The preferences in effect.
    pub fn preferences(&self) -> &MigrationPreferences {
        &self.preferences
    }

    /// The learned application profile.
    pub fn profile(&self) -> &ApplicationProfile {
        &self.profile
    }

    /// The learned network footprint.
    pub fn footprint(&self) -> &NetworkFootprint {
        &self.footprint
    }

    /// The current placement.
    pub fn current_placement(&self) -> &Placement {
        &self.current
    }

    /// Milliseconds the construction-time kernel compile pass took
    /// (surfaced as `EvalStats::kernel_compile_ms`).
    pub fn kernel_compile_ms(&self) -> f64 {
        self.kernel.compile_ms()
    }

    /// The compiled evaluation kernel backing the hot scoring paths.
    pub fn kernel(&self) -> &CompiledQuality {
        &self.kernel
    }

    /// Estimated post-migration mean latency (ms) of one API under a plan
    /// (compiled kernel; bit-identical to
    /// `estimate_api_latency_ms_interpretive`); 0.0 for an API the model
    /// did not learn.
    ///
    /// # Panics
    ///
    /// Panics if `api` was learned and the plan does not cover every
    /// component.
    pub fn estimate_api_latency_ms(&self, api: &str, plan: &MigrationPlan) -> f64 {
        self.debug_assert_in_catalog(plan.sites());
        let Some(slot) = self.kernel.api_slot(api) else {
            return 0.0;
        };
        with_scratch(|s| self.kernel.api_latency_ms(slot, plan.sites(), &mut s.lanes))
    }

    /// Interpretive reference of [`Self::estimate_api_latency_ms`]: replays
    /// the retained traces through the recursive [`DelayInjector`].
    pub(crate) fn estimate_api_latency_ms_interpretive(
        &self,
        api: &str,
        plan: &MigrationPlan,
    ) -> f64 {
        let Some(profile) = self.profile.apis.get(api) else {
            return 0.0;
        };
        self.injector.estimate_api_latency_ms_weighted(
            &profile.traces,
            &profile.trace_weights,
            &self.footprint,
            &self.current,
            plan.placement(),
        )
    }

    /// `Q_Perf(p)`: weighted mean of per-API latency ratios (compiled
    /// kernel).
    ///
    /// # Panics
    ///
    /// Panics if the plan does not cover every component.
    pub fn performance(&self, plan: &MigrationPlan) -> f64 {
        self.debug_assert_in_catalog(plan.sites());
        with_scratch(|s| self.kernel.performance(&[plan.sites()], &mut s.lanes)[0])
    }

    /// Interpretive reference of [`Self::performance`], summing the APIs in
    /// the same sorted order as the kernel.
    pub fn performance_interpretive(&self, plan: &MigrationPlan) -> f64 {
        if self.api_order.is_empty() {
            return 1.0;
        }
        let mut total = 0.0;
        let mut weight_sum = 0.0;
        for api in &self.api_order {
            let weight = self.preferences.api_weight(api);
            let baseline = self.baseline_latency_ms[api];
            let estimated = self
                .estimate_api_latency_ms_interpretive(api, plan)
                .max(1e-9);
            total += weight * estimated / baseline;
            weight_sum += weight;
        }
        total / weight_sum
    }

    /// `Q_Avai(p)`: weighted count of APIs whose stateful dependencies move
    /// (compiled kernel).
    pub fn availability(&self, plan: &MigrationPlan) -> f64 {
        self.debug_assert_in_catalog(plan.sites());
        self.kernel
            .availability(plan.placement().sites(), self.current.sites())
    }

    /// Interpretive reference of [`Self::availability`], resolving stateful
    /// component names with the original index scan.
    pub fn availability_interpretive(&self, plan: &MigrationPlan) -> f64 {
        let mut disruption = 0.0;
        for api in &self.api_order {
            let profile = &self.profile.apis[api];
            let disrupted = profile.stateful_components.iter().any(|c| {
                self.component_index
                    .iter()
                    .position(|n| n == c)
                    .map(|i| {
                        plan.site(atlas_sim::ComponentId(i))
                            != self.current.site(atlas_sim::ComponentId(i))
                    })
                    .unwrap_or(false)
            });
            if disrupted {
                disruption += self.preferences.api_weight(api);
            }
        }
        disruption
    }

    /// `Q_Cost(p)`: hosting cost over the demand horizon (dollars), each
    /// elastic site billed under its own pricing, computed with the
    /// kernel's reusable scratch buffers.
    pub fn cost(&self, plan: &MigrationPlan) -> f64 {
        self.debug_assert_in_catalog(plan.sites());
        with_scratch(|s| {
            self.cost_kernel
                .evaluate_with_scratch(&plan.sites()[..self.component_count()], &mut s.cost)
                .total()
        })
    }

    /// Interpretive reference of [`Self::cost`] (allocating per call).
    pub fn cost_interpretive(&self, plan: &MigrationPlan) -> f64 {
        let sites: Vec<SiteId> = (0..self.component_count())
            .map(|i| plan.site(atlas_sim::ComponentId(i)))
            .collect();
        self.cost_model.evaluate(&self.demand, &sites).total()
    }

    /// Cost expressed per day, the unit the paper reports.
    pub fn cost_per_day(&self, plan: &MigrationPlan) -> f64 {
        let sites: Vec<SiteId> = (0..self.component_count())
            .map(|i| plan.site(atlas_sim::ComponentId(i)))
            .collect();
        self.cost_model
            .evaluate(&self.demand, &sites)
            .per_day(self.demand.duration_s())
            .total()
    }

    /// `λ(p)`: whether the plan satisfies every constraint of Eq. 4
    /// (compiled constraint kernel; same verdict as
    /// [`Self::feasibility`]`.is_none()`, without the diagnostics or their
    /// allocations).
    pub fn is_feasible(&self, plan: &MigrationPlan) -> bool {
        self.debug_assert_in_catalog(plan.sites());
        if plan.len() != self.component_count() {
            return false;
        }
        with_scratch(|s| self.cost_and_feasibility(plan.sites(), &mut s.cost).1)
    }

    /// The first violated constraint, if any (useful for diagnostics).
    pub fn feasibility(&self, plan: &MigrationPlan) -> Option<String> {
        if plan.len() != self.component_count() {
            return Some("plan does not cover every component".to_string());
        }
        // Placement pins.
        if self.preferences.violates_pins(plan) {
            return Some("violates a placement constraint".to_string());
        }
        // On-prem resource limits: peak expected usage of on-prem components.
        let onprem: Vec<usize> = (0..self.component_count())
            .filter(|&i| plan.site(atlas_sim::ComponentId(i)).is_on_prem())
            .collect();
        let peak_cpu = self.demand.peak_cpu(&onprem);
        if peak_cpu > self.preferences.onprem_cpu_limit {
            return Some(format!(
                "on-prem CPU demand {peak_cpu:.1} exceeds limit {:.1}",
                self.preferences.onprem_cpu_limit
            ));
        }
        let peak_mem = self.demand.peak_memory_gb(&onprem);
        if peak_mem > self.preferences.onprem_memory_limit_gb {
            return Some(format!(
                "on-prem memory demand {peak_mem:.1} GB exceeds limit {:.1} GB",
                self.preferences.onprem_memory_limit_gb
            ));
        }
        let peak_storage = self.demand.peak_storage_gb(&onprem);
        if peak_storage > self.preferences.onprem_storage_limit_gb {
            return Some(format!(
                "on-prem storage demand {peak_storage:.1} GB exceeds limit {:.1} GB",
                self.preferences.onprem_storage_limit_gb
            ));
        }
        // Capacity limits of owned sites at index > 0 (catalog-declared;
        // empty in the two-site model, where site 1 is elastic).
        for limits in self.kernel.constraints().owned_site_limits() {
            let members: Vec<usize> = (0..self.component_count())
                .filter(|&i| plan.site(atlas_sim::ComponentId(i)) == limits.site)
                .collect();
            let site = limits.site.index();
            let cpu = self.demand.peak_cpu(&members);
            if limits.cpu_cores.is_finite() && cpu > limits.cpu_cores {
                return Some(format!(
                    "site {site} CPU demand {cpu:.1} exceeds capacity {:.1}",
                    limits.cpu_cores
                ));
            }
            let mem = self.demand.peak_memory_gb(&members);
            if limits.memory_gb.is_finite() && mem > limits.memory_gb {
                return Some(format!(
                    "site {site} memory demand {mem:.1} GB exceeds capacity {:.1} GB",
                    limits.memory_gb
                ));
            }
            let storage = self.demand.peak_storage_gb(&members);
            if limits.storage_gb.is_finite() && storage > limits.storage_gb {
                return Some(format!(
                    "site {site} storage demand {storage:.1} GB exceeds capacity {:.1} GB",
                    limits.storage_gb
                ));
            }
        }
        // Budget (interpretive cost, keeping this diagnostic an oracle
        // that shares nothing with the compiled kernels).
        if let Some(budget) = self.preferences.budget {
            let cost = self.cost_interpretive(plan);
            if cost > budget {
                return Some(format!("cost {cost:.2} exceeds budget {budget:.2}"));
            }
        }
        None
    }

    /// `Q_Cost` and `λ(p)` of one site assignment, off one pass of the
    /// compiled cost kernel: the cost is computed once and reused by the
    /// budget constraint, and the peaks the pass accumulates feed Eq. 4. A
    /// plan longer than the model is priced over its first
    /// [`Self::component_count`] components and is infeasible.
    fn cost_and_feasibility(&self, sites: &[SiteId], scratch: &mut CostScratch) -> (f64, bool) {
        let covered = &sites[..self.component_count()];
        let (breakdown, peaks) = self.cost_kernel.evaluate_with_peaks(covered, scratch);
        let cost = breakdown.total();
        let feasible = sites.len() == covered.len()
            && self.kernel.constraints().feasible_with_peaks(
                covered,
                &peaks,
                |site| self.cost_kernel.site_peaks(scratch, site.index()),
                || cost,
            );
        (cost, feasible)
    }

    /// The one group scorer behind every entry point: `Q_Perf` of a lane
    /// group in one walk of the compiled arenas at the group's width (a
    /// lone plan is width 1), then per plan `Q_Avai`, `Q_Cost` and
    /// feasibility, which are pure functions of its sites; each plan's
    /// quality goes to `emit`, in order. A plan longer than the model is
    /// priced over its first [`Self::component_count`] components and is
    /// infeasible; a shorter one panics.
    fn score(&self, plans: &[&[SiteId]], mut emit: impl FnMut(PlanQuality)) {
        plans
            .iter()
            .for_each(|sites| self.debug_assert_in_catalog(sites));
        with_scratch(|s| {
            let performance = self.kernel.performance(plans, &mut s.lanes);
            for (&performance, sites) in performance.iter().zip(plans) {
                let (cost, feasible) = self.cost_and_feasibility(sites, &mut s.cost);
                emit(PlanQuality {
                    performance,
                    availability: self.kernel.availability(sites, self.current.sites()),
                    cost,
                    feasible,
                });
            }
        })
    }

    /// Evaluate all three qualities plus feasibility of a plan through the
    /// compiled kernel.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not cover every component.
    pub fn evaluate(&self, plan: &MigrationPlan) -> PlanQuality {
        let mut quality = None;
        self.score(&[plan.sites()], |q| quality = Some(q));
        quality.expect("one plan scores to one quality")
    }

    /// Batched [`Self::evaluate`]: score one group of plans through a
    /// single structure-of-arrays walk of the compiled arenas. Every
    /// returned quality is bit-identical to evaluating its plan alone.
    ///
    /// # Panics
    ///
    /// Panics if a plan does not cover every component.
    pub fn evaluate_lanes(&self, plans: &[&MigrationPlan]) -> Vec<PlanQuality> {
        let sites: Vec<&[SiteId]> = plans.iter().map(|p| p.sites()).collect();
        let mut qualities = Vec::with_capacity(plans.len());
        self.score(&sites, |q| qualities.push(q));
        qualities
    }

    /// [`Self::evaluate`] paired with the plan's sites.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not cover every component.
    pub fn evaluate_scored(&self, plan: &MigrationPlan) -> ScoredPlan {
        ScoredPlan::new(plan.to_sites(), self.evaluate(plan))
    }

    /// The quality of `parent` with `changes` applied in order (last write
    /// per component wins): exactly [`Self::evaluate`] of the changed plan,
    /// which is how it is computed. Kept as the single-move probe the
    /// benchmark measures.
    ///
    /// # Panics
    ///
    /// Panics if a change names a component beyond the parent's sites or a
    /// site outside the catalog — checked in every build, since such a site
    /// would index another hop's link-cost table — or if the parent does
    /// not cover every component.
    pub fn probe_delta(
        &self,
        parent: &ScoredPlan,
        changes: &[(atlas_sim::ComponentId, SiteId)],
    ) -> PlanQuality {
        let mut sites = parent.sites.clone();
        let site_count = self.site_count();
        for &(component, site) in changes {
            assert!(
                component.0 < sites.len(),
                "delta change names component {} outside the {}-component model",
                component.0,
                sites.len()
            );
            assert!(
                site.index() < site_count,
                "delta change names a site outside the {site_count}-site catalog"
            );
            sites[component.0] = site;
        }
        self.evaluate(&MigrationPlan::from_sites(sites))
    }

    /// Interpretive reference of [`Self::evaluate`]: scores every indicator
    /// through the original recursive/allocating implementations. The
    /// compiled kernel is pinned bit-identical to this oracle by property
    /// tests; prefer [`Self::evaluate`] everywhere else.
    pub fn evaluate_interpretive(&self, plan: &MigrationPlan) -> PlanQuality {
        PlanQuality {
            performance: self.performance_interpretive(plan),
            availability: self.availability_interpretive(plan),
            cost: self.cost_interpretive(plan),
            feasible: self.feasibility(plan).is_none(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::FootprintLearner;
    use atlas_apps::{social_network, SocialNetworkOptions, WorkloadGenerator, WorkloadOptions};
    use atlas_cloud::{ResourceEstimator, ScalingEstimator};
    use atlas_sim::{AppTopology, ClusterSpec, ComponentId, OverloadModel, SimConfig, Simulator};
    use atlas_telemetry::TelemetryStore;

    /// Build a fully-learned quality model from a short simulated run of the
    /// social network.
    fn build_model(preferences: MigrationPreferences) -> (QualityModel, AppTopology) {
        let app = social_network(SocialNetworkOptions::default());
        let n = app.component_count();
        let current = Placement::all_onprem(n);
        let sim = Simulator::new(
            app.clone(),
            current.clone(),
            SimConfig {
                cluster: ClusterSpec::default(),
                overload: OverloadModel::disabled(),
                metric_window_s: 5,
                seed: 3,
            },
        );
        let schedule =
            WorkloadGenerator::new(WorkloadOptions::social_network_default().with_seed(3))
                .generate(&app)
                .unwrap();
        let store = TelemetryStore::new();
        sim.run(&schedule, &store);

        let component_index: Vec<String> =
            app.components().iter().map(|c| c.name.clone()).collect();
        let stateful: Vec<String> = app
            .stateful_components()
            .into_iter()
            .map(|c| app.component_name(c).to_string())
            .collect();
        let profile = ApplicationProfile::learn(&store, &stateful, 40);
        let footprint = FootprintLearner::default().learn(&store);
        let demand = ScalingEstimator::with_scale(5.0).estimate(&store, &component_index, 12, 600);
        let model = QualityModel::for_catalog(
            profile,
            footprint,
            &SiteCatalog::default(),
            demand,
            preferences,
            current,
            component_index,
        );
        (model, app)
    }

    #[test]
    fn identity_plan_is_neutral() {
        let (model, app) = build_model(MigrationPreferences::default());
        let identity = MigrationPlan::all_onprem(app.component_count());
        let q = model.evaluate(&identity);
        assert!(
            (q.performance - 1.0).abs() < 0.05,
            "Q_Perf ≈ 1.0, got {}",
            q.performance
        );
        assert_eq!(q.availability, 0.0);
        assert_eq!(q.cost, 0.0);
        assert!(q.feasible);
    }

    #[test]
    fn offloading_stateful_components_costs_availability() {
        let (model, app) = build_model(MigrationPreferences::default());
        let user_db = app.component_id("UserMongoDB").unwrap();
        let mut plan = MigrationPlan::all_onprem(app.component_count());
        plan.set(user_db, SiteId::CLOUD);
        let q = model.evaluate(&plan);
        // UserMongoDB is used by several APIs → several disrupted APIs.
        assert!(
            q.availability >= 2.0,
            "expected multiple disrupted APIs, got {}",
            q.availability
        );
        assert!(q.cost > 0.0);
        // The per-day figure rescales the 12 × 600 s horizon.
        let per_day = model.cost_per_day(&plan);
        assert!((per_day - q.cost * 12.0).abs() < 1e-9 * per_day);
    }

    #[test]
    fn offloading_a_foreground_service_degrades_performance_more_than_a_background_one() {
        let (model, app) = build_model(MigrationPreferences::default());
        let post_storage = app.component_id("PostStorageService").unwrap();
        let write_ht = app.component_id("WriteHomeTimelineService").unwrap();
        let mut fg = MigrationPlan::all_onprem(app.component_count());
        fg.set(post_storage, SiteId::CLOUD);
        let mut bg = MigrationPlan::all_onprem(app.component_count());
        bg.set(write_ht, SiteId::CLOUD);
        let q_fg = model.performance(&fg);
        let q_bg = model.performance(&bg);
        assert!(
            q_fg > q_bg,
            "foreground offload ({q_fg}) should hurt more than background offload ({q_bg})"
        );
        assert!(
            q_bg < 1.3,
            "background offload should be nearly free, got {q_bg}"
        );
    }

    #[test]
    fn cpu_limit_makes_the_identity_plan_infeasible() {
        // The 5×-burst demand cannot fit in a tiny on-prem budget unless
        // enough components are offloaded.
        let (model, app) = build_model(MigrationPreferences::with_cpu_limit(2.0));
        let identity = MigrationPlan::all_onprem(app.component_count());
        assert!(!model.is_feasible(&identity));
        assert!(model.feasibility(&identity).unwrap().contains("CPU"));
        // Offloading everything trivially satisfies the on-prem limit.
        let all_cloud = MigrationPlan::new(Placement::all_cloud(app.component_count()));
        assert!(model.is_feasible(&all_cloud));
    }

    #[test]
    fn placement_pins_and_budget_are_enforced() {
        let (model, app) = build_model(
            MigrationPreferences::default()
                .pin(ComponentId(0), SiteId::ON_PREM)
                .with_budget(0.000001),
        );
        let mut plan = MigrationPlan::all_onprem(app.component_count());
        plan.set(ComponentId(0), SiteId::CLOUD);
        assert!(model.feasibility(&plan).unwrap().contains("placement"));

        let mut cheap_violation = MigrationPlan::all_onprem(app.component_count());
        cheap_violation.set(ComponentId(5), SiteId::CLOUD);
        assert!(model
            .feasibility(&cheap_violation)
            .unwrap()
            .contains("budget"));
    }

    #[test]
    fn critical_apis_change_the_weighting() {
        let (plain, app) = build_model(MigrationPreferences::default());
        let (critical, _) =
            build_model(MigrationPreferences::default().critical("/homeTimelineAPI"));
        // Offload a component heavily used by /homeTimelineAPI.
        let ht_service = app.component_id("HomeTimelineService").unwrap();
        let mut plan = MigrationPlan::all_onprem(app.component_count());
        plan.set(ht_service, SiteId::CLOUD);
        let q_plain = plain.performance(&plan);
        let q_critical = critical.performance(&plan);
        assert!(
            q_critical > q_plain,
            "weighting the affected API as critical must increase Q_Perf ({q_critical} vs {q_plain})"
        );
    }

    #[test]
    fn wrong_sized_plans_are_infeasible() {
        let (model, _) = build_model(MigrationPreferences::default());
        let tiny = MigrationPlan::all_onprem(3);
        assert!(!model.is_feasible(&tiny));
    }
}
