//! The cloud hosting cost model `Q_Cost` (paper §4.1.3 and Appendix A).
//!
//! Given the expected resource demand and a placement, the model computes
//! the three cost terms of Eq. 11:
//!
//! * **compute** (Eq. 6–7): nodes provisioned by the cluster autoscaler for
//!   the cloud-placed components, priced per node and time step;
//! * **storage** (Eq. 8–9): cloud storage capacity scaling with the
//!   stateful data placed in the cloud;
//! * **traffic** (Eq. 10): egress traffic leaving the cloud on edges whose
//!   endpoints sit in different locations (ingress is free).

use crate::autoscaler::Autoscaler;
use crate::demand::ResourceDemand;
use crate::pricing::PricingModel;
use crate::site::SiteId;

/// Breakdown of the cloud hosting cost of one plan, in dollars over the
/// demand's horizon.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// Compute-induced cost (Eq. 7).
    pub compute: f64,
    /// Storage-induced cost (Eq. 9).
    pub storage: f64,
    /// Egress-traffic-induced cost (Eq. 10).
    pub traffic: f64,
}

impl CostBreakdown {
    /// Total cost (Eq. 11).
    pub fn total(&self) -> f64 {
        self.compute + self.storage + self.traffic
    }

    /// Scale the breakdown to a per-day figure given the horizon it covers.
    pub fn per_day(&self, horizon_s: u64) -> CostBreakdown {
        if horizon_s == 0 {
            return *self;
        }
        let f = 86_400.0 / horizon_s as f64;
        CostBreakdown {
            compute: self.compute * f,
            storage: self.storage * f,
            traffic: self.traffic * f,
        }
    }
}

/// Reusable buffers for [`CompiledCost`], so hot evaluation loops (the
/// plan-evaluation kernel, the baselines' scorer) do not allocate the
/// per-site accumulators and the storage capacity trace on every call.
#[derive(Debug, Clone, Default)]
pub struct CostScratch {
    /// Storage capacity trace of the site being priced.
    used_per_step: Vec<f64>,
    /// Per-site egress-byte accumulators.
    egress: Vec<f64>,
    /// Per-site per-step resource accumulators of [`CompiledCost`]: one
    /// `2 * steps` block per site (cpu row, then memory row).
    site_res: Vec<f64>,
    /// Per-site per-step storage accumulators of [`CompiledCost`].
    site_storage: Vec<f64>,
}

/// One elastic site's cost model: its pricing plus the autoscaler it
/// implies.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    pricing: PricingModel,
    autoscaler: Autoscaler,
}

impl CostModel {
    /// Create a cost model from a pricing model.
    pub fn new(pricing: PricingModel) -> Self {
        let autoscaler = Autoscaler::new(pricing.clone());
        Self {
            pricing,
            autoscaler,
        }
    }

    /// The pricing model in use.
    pub fn pricing(&self) -> &PricingModel {
        &self.pricing
    }

    /// Compute (Eq. 6–7) and storage (Eq. 8–9) cost of hosting the
    /// components listed in `pool` (ascending indices) at this model's
    /// site.
    fn pool_compute_storage(&self, demand: &ResourceDemand, pool: &[usize]) -> (f64, f64) {
        let step_seconds = demand.step_s as f64;

        // --- Compute (Eq. 6-7): nodes per step from CPU and memory. ---
        let mut compute = 0.0;
        for t in 0..demand.steps {
            let cpu: f64 = pool.iter().map(|&c| demand.cpu_cores[c][t]).sum();
            let mem: f64 = pool.iter().map(|&c| demand.memory_gb[c][t]).sum();
            let nodes = self.autoscaler.nodes_required(cpu, mem);
            compute += self.pricing.compute_cost_for(nodes, step_seconds);
        }

        // --- Storage (Eq. 8-9): capacity trace from the stateful data. ---
        let used_per_step: Vec<f64> = (0..demand.steps)
            .map(|t| pool.iter().map(|&c| demand.storage_gb[c][t]).sum::<f64>())
            .collect();
        let initial_gb = 2.0 * used_per_step.first().copied().unwrap_or(0.0);
        let mut storage = 0.0;
        if used_per_step.iter().any(|&u| u > 0.0) {
            let capacity = self.autoscaler.storage_trace(initial_gb, &used_per_step);
            for cap in capacity {
                storage += self.pricing.storage_cost_for(cap, step_seconds);
            }
        }
        (compute, storage)
    }
}

/// The N-site hosting cost model: one [`CostModel`] per elastic site, each
/// billing its own pool under its own [`PricingModel`] (per-site node
/// granularity, storage price, egress price and autoscaler headroom).
///
/// Site `0` (on-prem) carries no model — owned hardware has no marginal
/// hosting cost. A two-entry instance ([`SiteCostModel::two_site`]) is the
/// paper's `Q_Cost`.
///
/// Egress (Eq. 10 generalised): every cross-site edge splits its traffic in
/// half — the request leg leaves the caller's site, the response leg leaves
/// the callee's site — and each half is billed at the *sending* site's
/// egress price (free when the sender is on-prem). With one cloud site this
/// reduces to the paper's rule: half the bytes of every on-prem↔cloud edge
/// leave the cloud.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteCostModel {
    /// Per-site models, indexed by [`SiteId`]; `None` = no marginal cost
    /// (the on-prem pool, or any other owned site).
    sites: Vec<Option<CostModel>>,
}

impl SiteCostModel {
    /// Build from per-site models (`None` entries are free pools).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sites are given.
    pub fn from_models(sites: Vec<Option<CostModel>>) -> Self {
        assert!(sites.len() >= 2, "a site cost model needs at least 2 sites");
        Self { sites }
    }

    /// Build from per-site pricing (`None` entries are free pools).
    pub fn from_pricings(pricings: Vec<Option<PricingModel>>) -> Self {
        Self::from_models(
            pricings
                .into_iter()
                .map(|p| p.map(CostModel::new))
                .collect(),
        )
    }

    /// The paper's two-site model: free on-prem plus one cloud priced by
    /// `pricing`.
    pub fn two_site(pricing: PricingModel) -> Self {
        Self::from_models(vec![None, Some(CostModel::new(pricing))])
    }

    /// Number of sites this model prices.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Evaluate the hosting cost of a site assignment (indexed like
    /// `demand.component_names`): the interpretive Eq. 6–11 that the
    /// oracle prices plans with. Hot loops score through
    /// [`SiteCostModel::compile`] instead, which is bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `sites.len()` differs from the demand's component count,
    /// or if an assignment names a site this model does not price.
    pub fn evaluate(&self, demand: &ResourceDemand, sites: &[SiteId]) -> CostBreakdown {
        assert_eq!(
            sites.len(),
            demand.component_count(),
            "placement must cover every component"
        );
        debug_assert!(
            sites.iter().all(|s| s.index() < self.sites.len()),
            "site assignment outside the catalog"
        );
        // Egress leaving each site, accumulated in one pass over the edge
        // map: every cross-site edge splits its traffic in half between its
        // endpoints' sites (request leg leaves the caller's site, response
        // leg the callee's). Per-site bucket sums see the same additions in
        // the same (map) order as a per-site edge scan would, so the totals
        // are bit-identical at a single traversal.
        let mut egress = vec![0.0; self.sites.len()];
        for (&(from, to), series) in &demand.edge_bytes {
            if sites[from] != sites[to] {
                let half = series.iter().sum::<f64>() / 2.0;
                egress[sites[from].index()] += half;
                egress[sites[to].index()] += half;
            }
        }
        let mut total = CostBreakdown::default();
        for (index, model) in self.sites.iter().enumerate() {
            let Some(model) = model else { continue };
            let site = SiteId(index as u16);
            let pool: Vec<usize> = (0..sites.len()).filter(|&i| sites[i] == site).collect();
            let (compute, storage) = model.pool_compute_storage(demand, &pool);
            total.compute += compute;
            total.storage += storage;
            total.traffic += model.pricing.egress_cost_for(egress[index]);
        }
        total
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::new(PricingModel::default())
    }
}

/// A [`SiteCostModel`] bound to one demand matrix at compile time, the
/// allocation-free fast path of hot evaluation loops.
///
/// Two placement-independent computations dominate
/// [`SiteCostModel::evaluate`] and are hoisted here once per
/// model instead of being repeated per plan:
///
/// * the per-edge traffic totals (each edge's series is summed and halved
///   up front, in the demand map's iteration order, so the per-site egress
///   buckets see the identical additions), and
/// * the resource matrices flattened to contiguous component rows, scanned
///   once per evaluation to accumulate per-site per-step usage (instead of
///   one indexed-gather pass per site); components with no storage at any
///   step skip the storage accumulation outright (their contribution is an
///   exact `+0.0`).
///
/// Each site's per-step sums still receive the identical additions in
/// ascending component order, and its storage trace still grows through
/// [`Autoscaler::storage_trace_into`], so scoring is bit-identical to the
/// uncompiled model over the same demand — pinned by unit and property
/// tests.
#[derive(Debug, Clone)]
pub struct CompiledCost {
    sites: Vec<Option<CostModel>>,
    components: usize,
    steps: usize,
    step_s: u64,
    /// Flattened cpu+memory rows: one `2 * steps` block per component (its
    /// cpu row, then its memory row), so each component accumulates with a
    /// single contiguous add.
    res: Vec<f64>,
    /// Flattened storage rows: step `t` of component `c` at `c * steps + t`.
    storage: Vec<f64>,
    /// Whether a component stores anything at any step (all-zero rows are
    /// skipped by the storage accumulation).
    has_storage: Vec<bool>,
    /// Cross-component edges with nonzero traffic, in the demand map's
    /// iteration order, each carrying its precomputed half-total.
    edges: Vec<CompiledEdge>,
}

/// Element-wise `acc[t] += row[t]` over two equal-length step rows (slice
/// form so the compiler drops the bounds checks and vectorises).
#[inline]
fn add_rows(acc: &mut [f64], row: &[f64]) {
    for (a, &v) in acc.iter_mut().zip(row) {
        *a += v;
    }
}

/// One compiled demand edge: endpoints plus the placement-independent half
/// of its total bytes (the share each endpoint's site egresses when the
/// edge crosses sites).
#[derive(Debug, Clone, Copy)]
struct CompiledEdge {
    from: u32,
    to: u32,
    half_bytes: f64,
}

impl SiteCostModel {
    /// Compile this model against one demand matrix (see [`CompiledCost`]).
    ///
    /// # Panics
    ///
    /// Panics if the demand's edge map names a component outside its own
    /// index space.
    pub fn compile(&self, demand: &ResourceDemand) -> CompiledCost {
        let n = demand.component_count();
        let steps = demand.steps;
        let mut res = vec![0.0; n * 2 * steps];
        let mut storage = vec![0.0; n * steps];
        for c in 0..n {
            let block = c * 2 * steps;
            res[block..block + steps].copy_from_slice(&demand.cpu_cores[c]);
            res[block + steps..block + 2 * steps].copy_from_slice(&demand.memory_gb[c]);
            storage[c * steps..(c + 1) * steps].copy_from_slice(&demand.storage_gb[c]);
        }
        let has_storage = (0..n)
            .map(|c| demand.storage_gb[c].iter().any(|&v| v != 0.0))
            .collect();
        let edges = demand
            .edge_bytes
            .iter()
            .map(|(&(from, to), series)| {
                assert!(from < n && to < n, "edge outside the component index");
                CompiledEdge {
                    from: from as u32,
                    to: to as u32,
                    half_bytes: series.iter().sum::<f64>() / 2.0,
                }
            })
            .filter(|e| e.half_bytes != 0.0)
            .collect();
        CompiledCost {
            sites: self.sites.clone(),
            components: n,
            steps,
            step_s: demand.step_s,
            res,
            storage,
            has_storage,
            edges,
        }
    }
}

impl CompiledCost {
    /// Number of sites the compiled model prices.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Evaluate the hosting cost of a site assignment — bit-identical to
    /// [`SiteCostModel::evaluate`] over the demand this kernel
    /// was compiled against.
    ///
    /// # Panics
    ///
    /// Panics if `sites.len()` differs from the compiled component count.
    pub fn evaluate_with_scratch(
        &self,
        sites: &[SiteId],
        scratch: &mut CostScratch,
    ) -> CostBreakdown {
        self.evaluate_with_peaks(sites, scratch).0
    }

    /// [`Self::evaluate_with_scratch`] plus the on-prem peak demands, both
    /// read off the same accumulation pass. The peaks are bit-identical to
    /// [`ResourceDemand::peak_cpu`] (and the memory/storage twins) over the
    /// ascending on-prem component subset — the feasibility inputs of
    /// Eq. 4 — so a fused cost-plus-constraints evaluation scores each
    /// component row exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `sites.len()` differs from the compiled component count.
    pub fn evaluate_with_peaks(
        &self,
        sites: &[SiteId],
        scratch: &mut CostScratch,
    ) -> (CostBreakdown, OnPremPeaks) {
        assert_eq!(
            sites.len(),
            self.components,
            "placement must cover every component"
        );
        debug_assert!(
            sites.iter().all(|s| s.index() < self.sites.len()),
            "site assignment outside the catalog"
        );
        scratch.egress.clear();
        scratch.egress.resize(self.sites.len(), 0.0);
        for e in &self.edges {
            let (from, to) = (e.from as usize, e.to as usize);
            if sites[from] != sites[to] {
                scratch.egress[sites[from].index()] += e.half_bytes;
                scratch.egress[sites[to].index()] += e.half_bytes;
            }
        }
        // One contiguous pass over the demand rows accumulates every
        // site's per-step usage; each accumulator sees its components in
        // ascending order, exactly like the uncompiled per-site pool sums
        // and the interpretive on-prem peak scans.
        let steps = self.steps;
        scratch.site_res.clear();
        scratch.site_res.resize(self.sites.len() * 2 * steps, 0.0);
        scratch.site_storage.clear();
        scratch.site_storage.resize(self.sites.len() * steps, 0.0);
        for (c, &site) in sites.iter().enumerate() {
            let acc = site.index() * 2 * steps;
            let block = c * 2 * steps;
            add_rows(
                &mut scratch.site_res[acc..acc + 2 * steps],
                &self.res[block..block + 2 * steps],
            );
            if self.has_storage[c] {
                let acc = site.index() * steps;
                let row = c * steps;
                add_rows(
                    &mut scratch.site_storage[acc..acc + steps],
                    &self.storage[row..row + steps],
                );
            }
        }
        let peaks = OnPremPeaks {
            cpu: peak_of(&scratch.site_res[..steps]),
            memory_gb: peak_of(&scratch.site_res[steps..2 * steps]),
            storage_gb: peak_of(&scratch.site_storage[..steps]),
        };
        let step_seconds = self.step_s as f64;
        let mut total = CostBreakdown::default();
        for (index, model) in self.sites.iter().enumerate() {
            let Some(model) = model else { continue };
            let res = &scratch.site_res[index * 2 * steps..(index + 1) * 2 * steps];
            let (cpu, mem) = res.split_at(steps);
            let acc = index * steps;
            // Per-site subtotals first, added to the breakdown once — the
            // same summation tree as the uncompiled per-site pool pricing.
            let mut compute = 0.0;
            for t in 0..steps {
                let nodes = model.autoscaler.nodes_required(cpu[t], mem[t]);
                compute += model.pricing.compute_cost_for(nodes, step_seconds);
            }
            let used = &scratch.site_storage[acc..acc + steps];
            let mut storage = 0.0;
            if used.iter().any(|&u| u > 0.0) {
                let initial_gb = 2.0 * used.first().copied().unwrap_or(0.0);
                model
                    .autoscaler
                    .storage_trace_into(initial_gb, used, &mut scratch.used_per_step);
                for &cap in &scratch.used_per_step {
                    storage += model.pricing.storage_cost_for(cap, step_seconds);
                }
            }
            total.compute += compute;
            total.storage += storage;
            total.traffic += model.pricing.egress_cost_for(scratch.egress[index]);
        }
        (total, peaks)
    }

    /// Peak per-step demands accumulated at `site` by the latest
    /// [`Self::evaluate_with_peaks`] call on `scratch`, read off the
    /// retained accumulation rows without re-scanning the demand matrix.
    /// Site 0 reproduces the returned [`OnPremPeaks`] bit-for-bit; owned
    /// sites at higher indices feed their Eq. 4 capacity checks from the
    /// same pass.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` was not filled by this kernel (row bounds
    /// mismatch) or `site` is outside the catalog.
    pub fn site_peaks(&self, scratch: &CostScratch, site: usize) -> OnPremPeaks {
        let steps = self.steps;
        let res = &scratch.site_res[site * 2 * steps..(site + 1) * 2 * steps];
        OnPremPeaks {
            cpu: peak_of(&res[..steps]),
            memory_gb: peak_of(&res[steps..]),
            storage_gb: peak_of(&scratch.site_storage[site * steps..(site + 1) * steps]),
        }
    }
}

/// Peak on-prem (site 0) resource demands of one placement, read off the
/// accumulation pass of [`CompiledCost::evaluate_with_peaks`]. Bit-identical
/// to the interpretive per-step subset sums, so constraint verdicts built on
/// them match the uncompiled path exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnPremPeaks {
    /// Peak summed CPU cores of on-prem components over the horizon.
    pub cpu: f64,
    /// Peak summed memory (GB) of on-prem components over the horizon.
    pub memory_gb: f64,
    /// Peak summed storage (GB) of on-prem components over the horizon.
    pub storage_gb: f64,
}

/// `max` of a per-step series, starting from zero like the interpretive
/// peak scans.
#[inline]
fn peak_of(series: &[f64]) -> f64 {
    series.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pricing::Provider;

    fn demand() -> ResourceDemand {
        let names = vec![
            "Frontend".to_string(),
            "Service".to_string(),
            "MongoDB".to_string(),
        ];
        let mut d = ResourceDemand::zeros(names, 6, 600); // one hour in 10-minute steps
        d.fill_cpu(0, 2.0);
        d.fill_cpu(1, 6.0);
        d.fill_cpu(2, 1.0);
        d.fill_memory(0, 1.0);
        d.fill_memory(1, 4.0);
        d.fill_memory(2, 8.0);
        d.fill_storage(2, 40.0);
        d.fill_edge(0, 1, 5.0e8); // 500 MB per step between Frontend and Service
        d.fill_edge(1, 2, 2.0e8);
        d
    }

    const P: SiteId = SiteId::ON_PREM;
    const C: SiteId = SiteId::CLOUD;

    fn two_site() -> SiteCostModel {
        SiteCostModel::two_site(PricingModel::default())
    }

    #[test]
    fn all_onprem_costs_nothing() {
        let model = two_site();
        assert_eq!(model.site_count(), 2);
        assert!(model.sites[P.index()].is_none());
        assert!(model.sites[C.index()].is_some());
        let cost = model.evaluate(&demand(), &[P, P, P]);
        assert_eq!(cost.total(), 0.0);
    }

    #[test]
    fn compute_cost_counts_only_cloud_components() {
        let model = two_site();
        let only_service = model.evaluate(&demand(), &[P, C, P]);
        assert!(only_service.compute > 0.0);
        assert_eq!(only_service.storage, 0.0, "no stateful component offloaded");
        let service_and_db = model.evaluate(&demand(), &[P, C, C]);
        assert!(service_and_db.compute >= only_service.compute);
        assert!(service_and_db.storage > 0.0);
    }

    #[test]
    fn traffic_cost_only_on_cross_location_edges() {
        let model = two_site();
        // Frontend on-prem, Service+DB in cloud → only the 0→1 edge crosses.
        let split = model.evaluate(&demand(), &[P, C, C]);
        // Everything in cloud → no cross edge, no egress.
        let all_cloud = model.evaluate(&demand(), &[C, C, C]);
        assert!(split.traffic > 0.0);
        assert_eq!(all_cloud.traffic, 0.0);
    }

    #[test]
    fn colocating_chatty_components_is_cheaper() {
        let model = two_site();
        // Offloading only the Service splits both of its heavy edges.
        let split_both = model.evaluate(&demand(), &[P, C, P]);
        // Offloading Service + DB keeps the 1→2 edge local.
        let keep_pair = model.evaluate(&demand(), &[P, C, C]);
        assert!(split_both.traffic > keep_pair.traffic);
    }

    #[test]
    fn per_day_scaling() {
        let model = two_site();
        let cost = model.evaluate(&demand(), &[P, C, C]);
        let per_day = cost.per_day(3_600);
        assert!((per_day.total() - cost.total() * 24.0).abs() < 1e-9);
        // Degenerate horizon returns the original.
        assert_eq!(cost.per_day(0).total(), cost.total());
    }

    #[test]
    fn providers_change_the_price_not_the_structure() {
        let d = demand();
        let aws = SiteCostModel::two_site(PricingModel::preset(Provider::AwsLike))
            .evaluate(&d, &[P, C, C]);
        let gcp = SiteCostModel::two_site(PricingModel::preset(Provider::GcpLike))
            .evaluate(&d, &[P, C, C]);
        assert_ne!(aws.total(), gcp.total());
        assert!(aws.compute > 0.0 && gcp.compute > 0.0);
    }

    #[test]
    #[should_panic(expected = "placement must cover every component")]
    fn mismatched_placement_panics() {
        let model = two_site();
        let _ = model.evaluate(&demand(), &[C]);
    }

    /// Each elastic site bills its own pool under its own pricing, and a
    /// cross-cloud edge pays egress at *both* sites.
    #[test]
    fn per_site_pricing_and_cross_cloud_egress() {
        let d = demand();
        let aws = PricingModel::preset(Provider::AwsLike);
        let gcp = PricingModel::preset(Provider::GcpLike);
        let model = SiteCostModel::from_pricings(vec![None, Some(aws.clone()), Some(gcp.clone())]);
        assert_eq!(model.site_count(), 3);

        // Frontend on-prem, Service at site 1, MongoDB at site 2: the 0→1
        // edge pays egress at site 1 only; the 1→2 edge pays at both.
        let split = model.evaluate(&d, &[SiteId(0), SiteId(1), SiteId(2)]);
        // Same shape but the pair collocated at site 1: the 1→2 edge
        // becomes intra-site and free.
        let collocated = model.evaluate(&d, &[SiteId(0), SiteId(1), SiteId(1)]);
        assert!(split.traffic > collocated.traffic);

        // Moving a component between sites with different compute prices
        // changes the compute bill.
        let on_aws = model.evaluate(&d, &[SiteId(0), SiteId(1), SiteId(0)]);
        let on_gcp = model.evaluate(&d, &[SiteId(0), SiteId(2), SiteId(0)]);
        assert!(on_aws.compute > 0.0 && on_gcp.compute > 0.0);
        assert_ne!(on_aws.compute, on_gcp.compute);

        // All components on-prem: nothing to bill.
        assert_eq!(model.evaluate(&d, &[SiteId(0); 3]).total(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 2 sites")]
    fn degenerate_site_models_are_rejected() {
        let _ = SiteCostModel::from_pricings(vec![None]);
    }

    /// The compiled kernel reproduces the uncompiled model bit-for-bit over
    /// every assignment of a 3-site catalog, including all-on-prem,
    /// collocated, and fully split placements.
    #[test]
    fn compiled_cost_is_bit_identical_to_the_model() {
        let d = demand();
        let aws = PricingModel::preset(Provider::AwsLike);
        let gcp = PricingModel::preset(Provider::GcpLike);
        let model = SiteCostModel::from_pricings(vec![None, Some(aws), Some(gcp)]);
        let compiled = model.compile(&d);
        assert_eq!(compiled.site_count(), 3);
        let mut scratch = CostScratch::default();
        for a in 0..3u16 {
            for b in 0..3u16 {
                for c in 0..3u16 {
                    let sites = [SiteId(a), SiteId(b), SiteId(c)];
                    let want = model.evaluate(&d, &sites);
                    let got = compiled.evaluate_with_scratch(&sites, &mut scratch);
                    assert_eq!(want.compute.to_bits(), got.compute.to_bits(), "{sites:?}");
                    assert_eq!(want.storage.to_bits(), got.storage.to_bits(), "{sites:?}");
                    assert_eq!(want.traffic.to_bits(), got.traffic.to_bits(), "{sites:?}");
                }
            }
        }
    }

    /// Compiling hoists only placement-independent work: edges with no
    /// traffic drop out and all-zero storage columns are skipped, neither
    /// of which can shift a sum.
    #[test]
    fn compiled_cost_prunes_dead_edges_and_storage() {
        let names = vec!["A".to_string(), "B".to_string(), "C".to_string()];
        let mut d = ResourceDemand::zeros(names, 4, 600);
        d.fill_cpu(0, 1.0);
        d.fill_cpu(1, 2.0);
        d.fill_cpu(2, 0.5);
        d.fill_memory(0, 1.0);
        d.fill_memory(1, 1.0);
        d.fill_memory(2, 1.0);
        d.fill_edge(0, 1, 0.0); // dead edge: pruned at compile time
        d.fill_edge(1, 2, 3.0e8);
        let model = SiteCostModel::two_site(PricingModel::default());
        let compiled = model.compile(&d);
        assert_eq!(compiled.edges.len(), 1, "zero-traffic edge must be pruned");
        assert!(
            compiled.has_storage.iter().all(|&h| !h),
            "no component stores anything"
        );
        let mut scratch = CostScratch::default();
        for mask in 0..8u16 {
            let sites = [
                SiteId(mask & 1),
                SiteId((mask >> 1) & 1),
                SiteId((mask >> 2) & 1),
            ];
            let want = model.evaluate(&d, &sites);
            let got = compiled.evaluate_with_scratch(&sites, &mut scratch);
            assert_eq!(want.total().to_bits(), got.total().to_bits(), "{sites:?}");
        }
    }
}
