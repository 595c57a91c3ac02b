//! Shared inputs of all baseline advisors, plus the cached placement scorer
//! every baseline routes its objective/constraint queries through.

use atlas_cloud::{CompiledCost, CostScratch, ResourceDemand, SiteCostModel};
use atlas_core::eval::{effective_threads, EvalStats, MemoCache};
use atlas_core::kernel::{with_scratch, ConstraintKernel, EvalScratch};
use atlas_core::{MigrationPlan, MigrationPreferences};
use atlas_sim::{OwnedSiteLimits, SiteCatalog, SiteId};
use atlas_telemetry::TelemetryStore;

use crate::affinity::AffinityMatrix;

/// Everything a baseline advisor needs: the component index, the expected
/// resource demand, the pairwise affinity observed by the network metrics,
/// the owner's preferences and the per-site cost model.
///
/// The baselines search the same site space as Atlas: the catalog passed to
/// [`BaselineContext::from_store`] ([`SiteCatalog::default`] for the paper's
/// comparison).
#[derive(Debug, Clone)]
pub struct BaselineContext {
    /// Component names in plan-index order.
    pub component_index: Vec<String>,
    /// Expected resource demand over the period of interest.
    pub demand: ResourceDemand,
    /// Pairwise affinity (bytes and message counts).
    pub affinity: AffinityMatrix,
    /// The owner's constraints (the same ones Atlas receives).
    pub preferences: MigrationPreferences,
    /// Per-site cost model (the paper gives the affinity GA the same cost
    /// model as Atlas).
    pub cost_model: SiteCostModel,
    /// Number of sites placements range over.
    pub site_count: usize,
    /// The elastic site single-target advisors (greedy) offload to: the
    /// catalog's cheapest elastic site.
    pub offload_site: SiteId,
    /// Eq. 4 capacity limits of owned sites at index > 0 (empty on the
    /// paper's testbed, where site 1 is elastic).
    pub owned_site_limits: Vec<OwnedSiteLimits>,
}

impl BaselineContext {
    /// Build a context from the telemetry store and the shared inputs, over
    /// the sites of `catalog`: the cost model bills each elastic site under
    /// its own pricing and the searches range over the catalog's site
    /// alphabet.
    pub fn from_store(
        store: &TelemetryStore,
        component_index: Vec<String>,
        demand: ResourceDemand,
        preferences: MigrationPreferences,
        catalog: &SiteCatalog,
    ) -> Self {
        let affinity = AffinityMatrix::from_store(store, &component_index);
        Self {
            component_index,
            demand,
            affinity,
            preferences,
            cost_model: catalog.cost_model(),
            site_count: catalog.len(),
            offload_site: catalog.cheapest_elastic_site().unwrap_or(SiteId::CLOUD),
            owned_site_limits: catalog.owned_site_limits(),
        }
    }

    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.component_index.len()
    }

    /// Peak expected CPU (cores) of one component over the horizon.
    pub fn peak_cpu_of(&self, c: usize) -> f64 {
        self.demand.peak_cpu(&[c])
    }

    /// Cross-site traffic (bytes over the learning period) of a site
    /// assignment: the affinity objective of REMaP/IntMA and the affinity
    /// GA.
    pub fn cross_site_bytes(&self, sites: &[SiteId]) -> f64 {
        self.affinity.cross_site_bytes(sites)
    }

    /// Hosting cost of a site assignment under the shared cost model.
    pub fn site_cost(&self, sites: &[SiteId]) -> f64 {
        self.cost_model.evaluate(&self.demand, sites).total()
    }

    /// Wrap a site assignment as a migration plan.
    pub fn to_plan(sites: &[SiteId]) -> MigrationPlan {
        MigrationPlan::from_sites(sites.to_vec())
    }

    /// Wrap this context in a cached, batched placement scorer with one
    /// worker per available core (see [`BaselineScorer`]).
    pub fn scorer(&self) -> BaselineScorer<'_> {
        BaselineScorer::new(self)
    }
}

/// Everything a baseline ever asks about one placement, scored once: the two
/// affinity objectives, the hosting cost and the constraint check of Eq. 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementScore {
    /// Cross-site traffic bytes (REMaP/IntMA/affinity-GA objective; the
    /// paper's cross-datacenter bytes).
    pub cross_dc_bytes: f64,
    /// Cross-site message exchanges (REMaP's second affinity term).
    pub cross_dc_messages: f64,
    /// Hosting cost over the horizon under the shared per-site cost model.
    pub cost: f64,
    /// Whether the placement satisfies pins, on-prem limits and budget.
    pub feasible: bool,
}

/// The baselines' counterpart of `atlas-core`'s `PlanEvaluator`: a cached,
/// batched, thread-parallel scorer over [`BaselineContext`] placements,
/// backed by the same [`MemoCache`] machinery.
///
/// The GA-style baselines batch whole generations through
/// [`BaselineScorer::score_batch`]; the greedy/affinity single-plan advisors
/// route their repeated constraint and affinity probes through
/// [`BaselineScorer::score`], where local-search re-probes hit the cache.
///
/// Since PR 4 the scorer rides the same evaluation kernel as the core
/// quality model: constraints are checked through a precompiled
/// [`ConstraintKernel`], the cloud cost is computed with the kernel's
/// reusable scratch buffers, and the cost feeding `PlacementScore::cost` is
/// reused by the budget constraint instead of being evaluated twice.
#[derive(Debug)]
pub struct BaselineScorer<'a> {
    ctx: &'a BaselineContext,
    threads: usize,
    constraints: ConstraintKernel,
    /// The context's cost model pre-bound to its demand (bit-identical,
    /// allocation-free; see [`atlas_cloud::CompiledCost`]).
    cost: CompiledCost,
    cache: MemoCache<Vec<SiteId>, PlacementScore>,
}

impl<'a> BaselineScorer<'a> {
    /// Wrap a context with one worker per available core.
    pub fn new(ctx: &'a BaselineContext) -> Self {
        Self {
            ctx,
            threads: effective_threads(0),
            constraints: ConstraintKernel::new(&ctx.preferences)
                .with_owned_site_limits(ctx.owned_site_limits.clone()),
            cost: ctx.cost_model.compile(&ctx.demand),
            cache: MemoCache::default(),
        }
    }

    /// Set the worker-thread count (builder style); `0` restores the
    /// one-per-core default. Thread count never changes scores, only speed.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = effective_threads(threads);
        self
    }

    /// The wrapped context.
    pub fn context(&self) -> &'a BaselineContext {
        self.ctx
    }

    /// Score one placement using caller-supplied scratch buffers (the body
    /// of every scoring path; pure in `sites`).
    fn compute_on(&self, sites: &[SiteId], cost_scratch: &mut CostScratch) -> PlacementScore {
        let (breakdown, peaks) = self.cost.evaluate_with_peaks(sites, cost_scratch);
        let cost = breakdown.total();
        PlacementScore {
            cross_dc_bytes: self.ctx.affinity.cross_site_bytes(sites),
            cross_dc_messages: self.ctx.affinity.cross_site_messages(sites),
            cost,
            feasible: self.constraints.feasible_with_peaks(
                sites,
                &peaks,
                |site| self.cost.site_peaks(cost_scratch, site.index()),
                || cost,
            ),
        }
    }

    fn compute(&self, sites: &[SiteId]) -> PlacementScore {
        with_scratch(|s| self.compute_on(sites, &mut s.cost))
    }

    /// Score one site assignment, serving duplicates from the cache.
    pub fn score(&self, sites: &[SiteId]) -> PlacementScore {
        self.cache
            .get_or_compute(sites, <[SiteId]>::to_vec, |k| self.compute(k))
    }

    /// Score `base` with one component moved to another site — the shape of
    /// every REMaP/IntMA local-search probe. See [`Self::score_changes`].
    pub fn score_move(&self, base: &[SiteId], component: usize, site: SiteId) -> PlacementScore {
        self.score_changes(base, &[(component, site)])
    }

    /// Score `base` with a few components moved (applied in order) — the
    /// shape of a GA mutation offspring whose parent is known. The probe
    /// placement is materialised in the thread-local scratch and looked up
    /// in the cache by reference, so a cache hit (the common case of local
    /// search re-probing its neighbourhood) allocates nothing. Scores and
    /// cache accounting are identical to applying the changes to a clone of
    /// the base and calling [`Self::score`].
    pub fn score_changes(&self, base: &[SiteId], changes: &[(usize, SiteId)]) -> PlacementScore {
        with_scratch(|s| {
            let EvalScratch { sites, cost, .. } = s;
            sites.clear();
            sites.extend_from_slice(base);
            for &(c, s2) in changes {
                sites[c] = s2;
            }
            self.cache.get_or_compute(
                sites.as_slice(),
                |k: &[SiteId]| k.to_vec(),
                |k| self.compute_on(k, cost),
            )
        })
    }

    /// Score a batch of site assignments, returning scores in input order.
    /// Cached and in-batch duplicates are scored once; the remaining unique
    /// placements are fanned out across the scorer's worker threads.
    pub fn score_batch(&self, placements: &[Vec<SiteId>]) -> Vec<PlacementScore> {
        self.cache
            .get_or_compute_batch(placements, self.threads, |p| self.compute(p))
    }

    /// Distinct placements scored so far (what GA-style visit budgets
    /// count — cache hits are free).
    pub fn unique_evaluations(&self) -> usize {
        self.cache.unique()
    }

    /// Snapshot of the scoring statistics (same shape as the core
    /// evaluator's).
    pub fn stats(&self) -> EvalStats {
        self.cache.stats(self.threads)
    }
}

/// Helper shared by the tests of this crate: ingest a tiny three-component
/// store with known traffic, on the paper's two-site testbed.
#[cfg(test)]
pub(crate) fn test_context(cpu_limit: f64) -> BaselineContext {
    test_context_over(cpu_limit, &SiteCatalog::default())
}

/// [`test_context`] over an explicit catalog.
#[cfg(test)]
pub(crate) fn test_context_over(cpu_limit: f64, catalog: &SiteCatalog) -> BaselineContext {
    use atlas_telemetry::Direction;

    let store = TelemetryStore::new();
    let names = vec!["A".to_string(), "B".to_string(), "C".to_string()];
    for t in 0..20u64 {
        store.record_traffic("A", "B", Direction::Request, t, 10_000.0);
        store.record_traffic("A", "B", Direction::Response, t, 5_000.0);
        store.record_traffic("B", "C", Direction::Request, t, 100.0);
        store.record_traffic("B", "C", Direction::Response, t, 50.0);
    }
    let mut demand = ResourceDemand::zeros(names.clone(), 4, 600);
    demand.fill_cpu(0, 2.0);
    demand.fill_cpu(1, 6.0);
    demand.fill_cpu(2, 3.0);
    demand.fill_memory(0, 1.0);
    demand.fill_memory(1, 2.0);
    demand.fill_memory(2, 1.0);
    demand.fill_edge(0, 1, 1.0e7);
    demand.fill_edge(1, 2, 1.0e5);
    let preferences = MigrationPreferences::with_cpu_limit(cpu_limit);
    BaselineContext::from_store(&store, names, demand, preferences, catalog)
}

/// The paper's testbed plus a second elastic region, all links intra-speed.
#[cfg(test)]
pub(crate) fn three_site_catalog() -> SiteCatalog {
    use atlas_sim::{ClusterSpec, SiteNetwork, SiteSpec};

    let cluster = ClusterSpec::default();
    let pricing = atlas_cloud::PricingModel::default();
    SiteCatalog::new(
        vec![
            SiteSpec::owned("dc", cluster.onprem_cpu_cores, 1_000.0, 1_000.0),
            SiteSpec::elastic("east", pricing.clone()),
            SiteSpec::elastic("west", pricing),
        ],
        SiteNetwork::from_links(3, vec![cluster.network.intra; 9]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_core::{oracle, ApplicationProfile, NetworkFootprint, QualityModel};
    use atlas_sim::{ComponentId as Cid, Placement};

    const P: SiteId = SiteId::ON_PREM;
    const C: SiteId = SiteId::CLOUD;

    /// The scorer's Eq. 4 verdict on `sites`, held to the interpretive
    /// oracle's over a quality model that shares the context's demand,
    /// preferences and catalog and learned no API.
    fn feasible(ctx: &BaselineContext, catalog: &SiteCatalog, sites: &[SiteId]) -> bool {
        let nothing_learned = ApplicationProfile {
            apis: Default::default(),
            components: Default::default(),
        };
        let model = QualityModel::for_catalog(
            nothing_learned,
            NetworkFootprint::new(),
            catalog,
            ctx.demand.clone(),
            ctx.preferences.clone(),
            Placement::all_onprem(ctx.component_count()),
            ctx.component_index.clone(),
        );
        let verdict = ctx.scorer().score(sites).feasible;
        let why = oracle::why_infeasible(&model, &BaselineContext::to_plan(sites));
        assert_eq!(verdict, why.is_none(), "{sites:?}: {why:?}");
        verdict
    }

    #[test]
    fn constraint_checks_cover_cpu_and_pins() {
        let testbed = SiteCatalog::default();
        let ctx = test_context(7.0);
        // All on-prem: 11 cores > 7 → infeasible.
        assert!(!feasible(&ctx, &testbed, &[P, P, P]));
        // Offload B (6 cores): 5 remain → feasible.
        assert!(feasible(&ctx, &testbed, &[P, C, P]));

        let mut pinned = test_context(100.0);
        pinned.preferences = pinned.preferences.pin(Cid(1), P);
        assert!(!feasible(&pinned, &testbed, &[P, C, P]));
        assert!(feasible(&pinned, &testbed, &[C, P, P]));
    }

    /// Eq. 4 owned-site limits at sites beyond index 0: the constructor
    /// extracts the owned edge site's finite pools, and the compiled scorer
    /// and the interpretive oracle agree that the undersized site rejects
    /// components its pools cannot hold.
    #[test]
    fn owned_site_limits_gate_baseline_feasibility() {
        use atlas_cloud::PricingModel;
        use atlas_sim::{ClusterSpec, SiteNetwork, SiteSpec};

        let cluster = ClusterSpec::default();
        let links = (0..9).map(|_| cluster.network.intra).collect();
        // Site 2 is owned hardware with 4 cores: B (6 cores) cannot go
        // there, A (2 cores) can.
        let catalog = SiteCatalog::new(
            vec![
                SiteSpec::owned(
                    "on-prem",
                    cluster.onprem_cpu_cores,
                    cluster.onprem_memory_gb,
                    cluster.onprem_storage_gb,
                ),
                SiteSpec::elastic("east", PricingModel::default()),
                SiteSpec::owned("edge", 4.0, 64.0, 100.0),
            ],
            SiteNetwork::from_links(3, links),
        );
        let ctx = test_context_over(100.0, &catalog);
        assert_eq!(
            ctx.owned_site_limits,
            vec![OwnedSiteLimits {
                site: SiteId(2),
                cpu_cores: 4.0,
                memory_gb: 64.0,
                storage_gb: 100.0,
            }]
        );

        let b_on_edge = vec![SiteId(0), SiteId(2), SiteId(0)];
        let a_on_edge = vec![SiteId(2), SiteId(0), SiteId(0)];
        assert!(!feasible(&ctx, &catalog, &b_on_edge));
        assert!(feasible(&ctx, &catalog, &a_on_edge));
    }

    #[test]
    fn cross_dc_bytes_reflects_the_heavy_edge() {
        let ctx = test_context(7.0);
        let split_heavy = ctx.cross_site_bytes(&[P, C, C]); // cuts A-B
        let split_light = ctx.cross_site_bytes(&[P, P, C]); // cuts B-C
        assert!(split_heavy > split_light);
        assert_eq!(ctx.cross_site_bytes(&[P, P, P]), 0.0);
    }

    #[test]
    fn scorer_matches_direct_queries_and_caches_duplicates() {
        let ctx = test_context(7.0);
        let scorer = ctx.scorer().with_threads(2);
        let placements: Vec<Vec<SiteId>> = vec![
            vec![P, P, P],
            vec![P, C, P],
            vec![C, C, C],
            vec![P, C, P], // duplicate
        ];
        let scores = scorer.score_batch(&placements);
        for (sites, score) in placements.iter().zip(&scores) {
            assert_eq!(score.cross_dc_bytes, ctx.cross_site_bytes(sites));
            assert_eq!(
                score.cross_dc_messages,
                ctx.affinity.cross_site_messages(sites)
            );
            assert_eq!(score.cost, ctx.site_cost(sites));
            assert_eq!(
                score.feasible,
                feasible(&ctx, &SiteCatalog::default(), sites)
            );
        }
        assert_eq!(scores[1], scores[3]);
        assert_eq!(scorer.unique_evaluations(), 3);
        let stats = scorer.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.threads, 2);
        // Single queries hit the same cache.
        let single = scorer.score(&placements[0]);
        assert_eq!(single, scores[0]);
        assert_eq!(scorer.stats().cache_hits, 2);
    }

    /// `score_changes(base, changes) == score(&applied)`, scores and cache
    /// accounting alike, whichever of the two reaches a placement first.
    #[test]
    fn change_probes_match_scoring_the_applied_placement() {
        let ctx = test_context(7.0);
        let apply = |base: &[SiteId], changes: &[(usize, SiteId)]| {
            let mut sites = base.to_vec();
            for &(c, s) in changes {
                sites[c] = s;
            }
            sites
        };
        let base = vec![SiteId::ON_PREM; 3];
        let probes: [&[(usize, SiteId)]; 4] = [
            &[(1, SiteId::CLOUD)],
            &[(0, SiteId::CLOUD), (2, SiteId::CLOUD)],
            &[(1, SiteId::CLOUD), (1, SiteId::ON_PREM)], // a no-op: the base itself
            &[],
        ];
        // Probe first, then score the applied placement: the second lookup
        // of each placement is a hit.
        let probed = ctx.scorer();
        // Score first, then probe: same scores, same accounting.
        let scored = ctx.scorer();
        for changes in probes {
            let applied = apply(&base, changes);
            let a = probed.score_changes(&base, changes);
            assert_eq!(a, probed.score(&applied));
            let b = scored.score(&applied);
            assert_eq!(b, scored.score_changes(&base, changes));
            assert_eq!(a, b);
            assert_eq!(a, ctx.scorer().score(&applied), "a cold scorer agrees");
            assert_eq!(probed.stats().cache_hits, scored.stats().cache_hits);
            assert_eq!(probed.unique_evaluations(), scored.unique_evaluations());
        }
        // Three distinct placements (the last two probes are the base);
        // every other request — 8 in total — was a cache hit.
        assert_eq!(probed.unique_evaluations(), 3);
        assert_eq!(probed.stats().cache_hits, 5);
        assert_eq!(
            probed.score_move(&base, 1, SiteId::CLOUD),
            probed.score(&apply(&base, probes[0]))
        );
    }

    /// Later changes overwrite earlier ones for the same component, exactly
    /// like applying them in order to a cloned placement.
    #[test]
    fn score_changes_applies_changes_in_order() {
        let ctx = test_context(7.0);
        let scorer = ctx.scorer();
        let base = vec![SiteId::ON_PREM; 3];
        let score = scorer.score_changes(&base, &[(1, SiteId::CLOUD), (1, SiteId::ON_PREM)]);
        assert_eq!(score, scorer.score(&base));
    }

    #[test]
    fn pins_are_applied_and_plans_wrap_sites() {
        let mut ctx = test_context(7.0);
        ctx.preferences = ctx.preferences.clone().pin(Cid(0), C);
        let mut sites = vec![P; 3];
        ctx.preferences.apply_pins(&mut sites);
        assert_eq!(sites, vec![C, P, P]);
        assert_eq!(BaselineContext::to_plan(&sites).sites(), sites.as_slice());
        assert_eq!(ctx.component_count(), 3);
        assert!(ctx.peak_cpu_of(1) > ctx.peak_cpu_of(0));
        assert!(ctx.site_cost(&[P, C, P]) > 0.0);
    }

    #[test]
    fn site_set_pins_snap_to_the_first_allowed_site() {
        let mut ctx = test_context(100.0);
        ctx.preferences = ctx
            .preferences
            .clone()
            .pin_to_sites(Cid(1), vec![SiteId(1)]);
        let mut sites = vec![SiteId::ON_PREM; 3];
        ctx.preferences.apply_pins(&mut sites);
        assert_eq!(sites[1], SiteId(1), "snapped to the set's first site");
        let testbed = SiteCatalog::default();
        assert!(feasible(&ctx, &testbed, &sites));
        let violating = vec![SiteId(0), SiteId(0), SiteId(0)];
        assert!(!feasible(&ctx, &testbed, &violating));
        // A gene already inside the set is left untouched.
        let mut inside = vec![SiteId(0), SiteId(1), SiteId(0)];
        ctx.preferences.apply_pins(&mut inside);
        assert_eq!(inside[1], SiteId(1));
    }
}
