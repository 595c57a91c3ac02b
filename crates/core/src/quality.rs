//! Migration-quality modeling: `Q_Perf`, `Q_Avai`, `Q_Cost` and the
//! feasibility constraints of Eq. 4.
//!
//! [`QualityModel::for_catalog`] compiles the learned traces into a
//! [`CompiledQuality`] kernel (see [`crate::kernel`]) and every entry point
//! — `evaluate`, `performance`, `availability`, `cost`, `is_feasible`, the
//! per-API estimate and its per-trace distribution — scores through it.
//! The kernel has one trace walk, run at the width of the group it scores:
//! `evaluate` and `evaluate_lanes` are one group scorer, a lone plan being
//! a group of width 1, and the per-API estimates walk at width 1 too. The
//! interpretive Eq. 1–4 live apart, in [`crate::oracle`]; property tests
//! pin the two bit-identical.

use std::sync::Arc;

use atlas_cloud::{CompiledCost, CostScratch, ResourceDemand, SiteCostModel};
use atlas_sim::{Placement, SiteCatalog, SiteId, SiteNetwork};

use crate::footprint::NetworkFootprint;
use crate::kernel::{covering, with_scratch, CompiledQuality};
use crate::preferences::MigrationPreferences;
use crate::profile::ApplicationProfile;
use crate::MigrationPlan;

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

/// A plan paired with its [`PlanQuality`]: a recommendation, a member of
/// the search's population and an RL training rollout alike. Produced by
/// [`QualityModel::evaluate_scored`], the plan evaluator's scored batches
/// and the recommender.
#[derive(Debug, Clone, PartialEq)]
pub struct RecommendedPlan {
    /// The plan itself.
    pub plan: MigrationPlan,
    /// Its predicted quality.
    pub quality: PlanQuality,
}

impl RecommendedPlan {
    /// The plan's sites, indexed like the component index (the search's
    /// genome view).
    pub fn sites(&self) -> &[SiteId] {
        self.plan.sites()
    }
}

/// [`RecommendedPlan`] under the name the benchmark package uses.
pub type ScoredPlan = RecommendedPlan;

/// Models the quality of candidate plans without executing them.
///
/// The learned profile, footprint and demand are held behind [`Arc`], so a
/// model built by [`Atlas::quality_model`](crate::Atlas::quality_model)
/// shares them with the advisor instead of copying them.
#[derive(Debug, Clone)]
pub struct QualityModel {
    profile: Arc<ApplicationProfile>,
    footprint: Arc<NetworkFootprint>,
    /// The catalog's links, which the oracle injects delays against.
    pub(crate) network: SiteNetwork,
    pub(crate) cost_model: SiteCostModel,
    pub(crate) demand: Arc<ResourceDemand>,
    preferences: MigrationPreferences,
    current: Placement,
    /// Component names in plan-index order.
    component_index: Vec<String>,
    /// The compiled evaluation kernel (see [`crate::kernel`]).
    kernel: CompiledQuality,
    /// The cost model pre-bound to `demand` (edge totals and step-major
    /// resource columns hoisted); bit-identical to `cost_model`, used by
    /// every scoring path. [`crate::oracle`] prices with `cost_model`.
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
    /// today (all on-prem in the paper's experiments). The profile,
    /// footprint and demand are taken by value or as shared [`Arc`]s.
    #[allow(clippy::too_many_arguments)]
    pub fn for_catalog(
        profile: impl Into<Arc<ApplicationProfile>>,
        footprint: impl Into<Arc<NetworkFootprint>>,
        catalog: &SiteCatalog,
        demand: impl Into<Arc<ResourceDemand>>,
        preferences: MigrationPreferences,
        current: Placement,
        component_index: Vec<String>,
    ) -> Self {
        let (profile, footprint, demand) = (profile.into(), footprint.into(), demand.into());
        assert_eq!(
            current.len(),
            component_index.len(),
            "current placement must cover every component"
        );
        assert!(
            current.sites().iter().all(|&s| catalog.contains(s)),
            "the current placement names a site outside the catalog"
        );
        let cost_model = catalog.cost_model();
        // Sorted: the deterministic summation order of `Q_Perf`/`Q_Avai`.
        let mut api_order: Vec<String> = profile.apis.keys().cloned().collect();
        api_order.sort();
        let mut kernel = CompiledQuality::compile(
            &profile,
            &footprint,
            catalog.network(),
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
            network: catalog.network().clone(),
            cost_model,
            demand,
            preferences,
            current,
            component_index,
            kernel,
            cost_kernel,
        }
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

    /// Estimated post-migration mean latency (ms) of one API under a plan:
    /// the weighted mean of [`Self::estimate_latency_distribution_ms`]; 0.0
    /// for an API the model did not learn.
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

    /// The delay-injection latency distribution (ms) of one API under a
    /// plan: one sample per retained trace, in trace order, each trace
    /// walked by the kernel at width 1 — the `b_approx` a drift detector is
    /// armed against (§4.3). Empty for an API the model did not learn.
    ///
    /// # Panics
    ///
    /// Panics if `api` was learned and the plan does not cover every
    /// component.
    pub fn estimate_latency_distribution_ms(&self, api: &str, plan: &MigrationPlan) -> Vec<f64> {
        self.debug_assert_in_catalog(plan.sites());
        let Some(slot) = self.kernel.api_slot(api) else {
            return Vec::new();
        };
        with_scratch(|s| {
            self.kernel
                .api_latency_samples_ms(slot, plan.sites(), &mut s.lanes)
        })
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

    /// `Q_Avai(p)`: weighted count of APIs whose stateful dependencies move
    /// (compiled kernel).
    ///
    /// # Panics
    ///
    /// Panics if the plan does not cover every component.
    pub fn availability(&self, plan: &MigrationPlan) -> f64 {
        self.kernel
            .availability(self.covered(plan), self.current.sites())
    }

    /// `Q_Cost(p)`: hosting cost over the demand horizon (dollars), each
    /// elastic site billed under its own pricing, computed with the
    /// kernel's reusable scratch buffers.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not cover every component.
    pub fn cost(&self, plan: &MigrationPlan) -> f64 {
        with_scratch(|s| {
            self.cost_kernel
                .evaluate_with_scratch(self.covered(plan), &mut s.cost)
                .total()
        })
    }

    /// Cost expressed per day, the unit the paper reports.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not cover every component.
    pub fn cost_per_day(&self, plan: &MigrationPlan) -> f64 {
        let cost = (self.cost_model).evaluate(&self.demand, self.covered(plan));
        cost.per_day(self.demand.duration_s()).total()
    }

    /// The plan's sites over the model's components, refused as
    /// [`Self::evaluate`] refuses a plan that does not cover them all.
    fn covered<'p>(&self, plan: &'p MigrationPlan) -> &'p [SiteId] {
        self.debug_assert_in_catalog(plan.sites());
        covering(plan.sites(), self.component_count())
    }

    /// `λ(p)`: whether the plan satisfies every constraint of Eq. 4
    /// (compiled constraint kernel; same verdict as
    /// [`oracle::why_infeasible`](crate::oracle::why_infeasible)`.is_none()`,
    /// without the diagnostics or their allocations).
    pub fn is_feasible(&self, plan: &MigrationPlan) -> bool {
        self.debug_assert_in_catalog(plan.sites());
        if plan.len() != self.component_count() {
            return false;
        }
        with_scratch(|s| self.cost_and_feasibility(plan.sites(), &mut s.cost).1)
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

    /// [`Self::evaluate`] paired with a clone of the plan. Kept because the
    /// benchmark package calls it.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not cover every component.
    pub fn evaluate_scored(&self, plan: &MigrationPlan) -> RecommendedPlan {
        RecommendedPlan {
            plan: plan.clone(),
            quality: self.evaluate(plan),
        }
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
        parent: &RecommendedPlan,
        changes: &[(atlas_sim::ComponentId, SiteId)],
    ) -> PlanQuality {
        let mut plan = parent.plan.clone();
        let site_count = self.site_count();
        for &(component, site) in changes {
            assert!(
                component.0 < plan.len(),
                "delta change names component {} outside the {}-component model",
                component.0,
                plan.len()
            );
            assert!(
                site.index() < site_count,
                "delta change names a site outside the {site_count}-site catalog"
            );
            plan.set(component, site);
        }
        self.evaluate(&plan)
    }

    /// [`oracle::evaluate`](crate::oracle::evaluate), kept as a method
    /// only because the benchmark package calls it; everything else calls
    /// the oracle directly.
    pub fn evaluate_interpretive(&self, plan: &MigrationPlan) -> PlanQuality {
        crate::oracle::evaluate(self, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::FootprintLearner;
    use crate::oracle;
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
        let why = oracle::why_infeasible(&model, &identity);
        assert!(why.unwrap().contains("CPU"));
        // Offloading everything trivially satisfies the on-prem limit.
        let all_cloud = Placement::all_cloud(app.component_count());
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
        let why = oracle::why_infeasible(&model, &plan);
        assert!(why.unwrap().contains("placement"));

        let mut cheap_violation = MigrationPlan::all_onprem(app.component_count());
        cheap_violation.set(ComponentId(5), SiteId::CLOUD);
        let why = oracle::why_infeasible(&model, &cheap_violation);
        assert!(why.unwrap().contains("budget"));
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
