//! Hybrid cluster, site catalog and network model.
//!
//! The paper's testbed spans a ten-node on-prem cluster (Wisconsin) and a
//! public-cloud datacenter (Massachusetts). The only properties Atlas's
//! models consume are (i) the capacity of each site, (ii) the node
//! granularity and pricing of its elastic pools, and (iii) the latency and
//! bandwidth on every ordered site pair. A deployment is a [`SiteCatalog`]
//! (per-site capacity + pricing) over a [`SiteNetwork`] (per-ordered-pair
//! [`LinkSpec`]s), with on-prem as site 0; the paper's testbed is the
//! 2-entry default catalog, built from [`ClusterSpec`] and the two measured
//! links of [`NetworkModel`].

pub use atlas_cloud::SiteId;
use atlas_cloud::{PricingModel, SiteCostModel};

/// Latency/bandwidth description of one link class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// One-way network latency in milliseconds.
    pub latency_ms: f64,
    /// Bandwidth in megabits per second.
    pub bandwidth_mbps: f64,
}

impl LinkSpec {
    /// Time in microseconds to move `bytes` across this link, including the
    /// propagation latency. This is the `γ + ν·d` term of paper Eq. (2) for
    /// one direction.
    pub fn transfer_us(&self, bytes: f64) -> f64 {
        let propagation_us = self.latency_ms * 1_000.0;
        let bytes_per_us = self.bandwidth_mbps * 1.0e6 / 8.0 / 1.0e6; // bytes per microsecond
        let serialization_us = if bytes_per_us > 0.0 {
            bytes / bytes_per_us
        } else {
            0.0
        };
        propagation_us + serialization_us
    }
}

/// The two measured links of the paper's hybrid deployment (§5.1), the
/// input of [`SiteNetwork::two_site`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Link between two components in the same datacenter.
    pub intra: LinkSpec,
    /// Link between a component on-prem and one in the cloud.
    pub inter: LinkSpec,
}

impl Default for NetworkModel {
    /// The paper's measured values (§5.1): 0.168 ms / 941 Mbps collocated,
    /// 23.015 ms / 921 Mbps across datacenters.
    fn default() -> Self {
        Self {
            intra: LinkSpec {
                latency_ms: 0.168,
                bandwidth_mbps: 941.0,
            },
            inter: LinkSpec {
                latency_ms: 23.015,
                bandwidth_mbps: 921.0,
            },
        }
    }
}

/// Per-ordered-pair network model over N sites: one [`LinkSpec`] for every
/// `(from, to)` site pair, stored row-major (`links[from * n + to]`).
///
/// The paper's two measured links ([`NetworkModel`]) make the symmetric 2×2
/// instance `[intra, inter; inter, intra]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteNetwork {
    site_count: usize,
    links: Vec<LinkSpec>,
}

impl SiteNetwork {
    /// Build from an explicit row-major link matrix.
    ///
    /// # Panics
    ///
    /// Panics if `links.len() != site_count²` or `site_count < 2`.
    pub fn from_links(site_count: usize, links: Vec<LinkSpec>) -> Self {
        assert!(site_count >= 2, "a site network needs at least 2 sites");
        assert_eq!(
            links.len(),
            site_count * site_count,
            "link matrix must cover every ordered site pair"
        );
        Self { site_count, links }
    }

    /// The 2-site matrix of a [`NetworkModel`]:
    /// `[intra, inter; inter, intra]`.
    pub fn two_site(model: NetworkModel) -> Self {
        Self {
            site_count: 2,
            links: vec![model.intra, model.inter, model.inter, model.intra],
        }
    }

    /// Number of sites covered.
    pub fn site_count(&self) -> usize {
        self.site_count
    }

    /// The link used when `from` sends to `to` (same-site pairs return the
    /// site's intra link).
    pub fn link(&self, from: SiteId, to: SiteId) -> LinkSpec {
        self.links[from.index() * self.site_count + to.index()]
    }

    /// One-way transfer time (µs) for `bytes` from one site to another.
    pub fn transfer_us(&self, from: SiteId, to: SiteId, bytes: f64) -> f64 {
        self.link(from, to).transfer_us(bytes)
    }

    /// Cost (µs) of one request/response exchange between a caller at `a`
    /// and a callee at `b`: the request leg crosses `a → b`, the response
    /// leg `b → a`. On a symmetric matrix this is the paper's
    /// `2γ + (d_req + d_resp)/ν`.
    pub fn exchange_us(
        &self,
        a: SiteId,
        b: SiteId,
        request_bytes: f64,
        response_bytes: f64,
    ) -> f64 {
        self.link(a, b).transfer_us(request_bytes) + self.link(b, a).transfer_us(response_bytes)
    }

    /// The paper's Δ (Eq. 2) generalised to sites: the additional delay of
    /// one exchange when the endpoints move from `(caller_before,
    /// callee_before)` to `(caller_after, callee_after)`.
    #[allow(clippy::too_many_arguments)]
    pub fn delay_delta_us(
        &self,
        caller_before: SiteId,
        callee_before: SiteId,
        caller_after: SiteId,
        callee_after: SiteId,
        request_bytes: f64,
        response_bytes: f64,
    ) -> f64 {
        self.exchange_us(caller_after, callee_after, request_bytes, response_bytes)
            - self.exchange_us(caller_before, callee_before, request_bytes, response_bytes)
    }
}

impl From<NetworkModel> for SiteNetwork {
    fn from(model: NetworkModel) -> Self {
        Self::two_site(model)
    }
}

impl Default for SiteNetwork {
    /// The paper's two-site network.
    fn default() -> Self {
        Self::two_site(NetworkModel::default())
    }
}

/// One site of a [`SiteCatalog`]: a capacity pool plus, for elastic sites,
/// the pricing the autoscaler bills it under.
///
/// **Constraint semantics** (paper Eq. 4): resource-limit feasibility of
/// the *on-prem* site (site 0) is governed by
/// `MigrationPreferences::onprem_*_limit` — the paper's operator knobs —
/// while owned sites at index > 0 are capacity-constrained by their own
/// finite `cpu_cores` / `memory_gb` / `storage_gb` fields, surfaced to the
/// constraint kernel through [`SiteCatalog::owned_site_limits`]. Elastic
/// sites are capacity-unbounded by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteSpec {
    /// Human-readable site name (e.g. `on-prem`, `aws-us-east`).
    pub name: String,
    /// CPU cores of the site's inelastic pool (`f64::INFINITY` for elastic
    /// sites, whose autoscaler provisions nodes on demand).
    pub cpu_cores: f64,
    /// Memory (GB) of the inelastic pool (`f64::INFINITY` when elastic).
    pub memory_gb: f64,
    /// Storage (GB) of the inelastic pool (`f64::INFINITY` when elastic).
    pub storage_gb: f64,
    /// Pricing of the site's elastic pool; `None` marks owned hardware with
    /// no marginal hosting cost (the on-prem site).
    pub pricing: Option<PricingModel>,
}

impl SiteSpec {
    /// An owned, fixed-capacity site (no marginal cost).
    pub fn owned(name: impl Into<String>, cpu_cores: f64, memory_gb: f64, storage_gb: f64) -> Self {
        Self {
            name: name.into(),
            cpu_cores,
            memory_gb,
            storage_gb,
            pricing: None,
        }
    }

    /// An elastic site: capacity is provisioned on demand and billed under
    /// `pricing`.
    pub fn elastic(name: impl Into<String>, pricing: PricingModel) -> Self {
        Self {
            name: name.into(),
            cpu_cores: f64::INFINITY,
            memory_gb: f64::INFINITY,
            storage_gb: f64::INFINITY,
            pricing: Some(pricing),
        }
    }

    /// Whether the site autoscales (and is billed) rather than being owned.
    pub fn is_elastic(&self) -> bool {
        self.pricing.is_some()
    }
}

/// The N-site generalisation of the hybrid cluster: per-site capacity and
/// pricing ([`SiteSpec`]) over a per-ordered-pair [`SiteNetwork`]. Site 0 is
/// the on-premises cluster by convention; [`SiteCatalog::hybrid`] builds the
/// 2-entry catalog of the paper's testbed.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteCatalog {
    sites: Vec<SiteSpec>,
    network: SiteNetwork,
}

impl SiteCatalog {
    /// Assemble a catalog.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sites are given or the network covers a
    /// different number of sites.
    pub fn new(sites: Vec<SiteSpec>, network: SiteNetwork) -> Self {
        assert!(sites.len() >= 2, "a site catalog needs at least 2 sites");
        assert_eq!(
            sites.len(),
            network.site_count(),
            "the link matrix must cover exactly the catalog's sites"
        );
        Self { sites, network }
    }

    /// The paper's hybrid deployment as a 2-entry catalog: the cluster's
    /// on-prem pool at site 0, one elastic site priced by `pricing`, and the
    /// cluster's [`NetworkModel`] as the link matrix.
    pub fn hybrid(cluster: &ClusterSpec, pricing: PricingModel) -> Self {
        Self::new(
            vec![
                SiteSpec::owned(
                    "on-prem",
                    cluster.onprem_cpu_cores,
                    cluster.onprem_memory_gb,
                    cluster.onprem_storage_gb,
                ),
                SiteSpec::elastic("cloud", pricing),
            ],
            SiteNetwork::two_site(cluster.network),
        )
    }

    /// Number of sites in the catalog.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Catalogs always hold at least two sites.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The sites in index order.
    pub fn sites(&self) -> &[SiteSpec] {
        &self.sites
    }

    /// One site's spec.
    ///
    /// # Panics
    ///
    /// Panics if the site is not in the catalog.
    pub fn site(&self, site: SiteId) -> &SiteSpec {
        &self.sites[site.index()]
    }

    /// Whether a site id is within the catalog.
    pub fn contains(&self, site: SiteId) -> bool {
        site.index() < self.sites.len()
    }

    /// The per-ordered-pair network.
    pub fn network(&self) -> &SiteNetwork {
        &self.network
    }

    /// Every site id in index order.
    pub fn site_ids(&self) -> impl Iterator<Item = SiteId> + '_ {
        (0..self.sites.len() as u16).map(SiteId)
    }

    /// The elastic site with the cheapest compute per core-hour (the greedy
    /// baselines' default offload target); `None` when no site is elastic.
    pub fn cheapest_elastic_site(&self) -> Option<SiteId> {
        self.site_ids()
            .filter_map(|s| {
                self.site(s).pricing.as_ref().map(|p| {
                    (
                        s,
                        p.compute_per_node_hour / p.node_cpu_cores.max(f64::MIN_POSITIVE),
                    )
                })
            })
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(s, _)| s)
    }

    /// Per-site pricing in the shape [`SiteCostModel`] consumes.
    pub fn pricings(&self) -> Vec<Option<PricingModel>> {
        self.sites.iter().map(|s| s.pricing.clone()).collect()
    }

    /// The catalog's cost model: each elastic site billed under its own
    /// pricing.
    pub fn cost_model(&self) -> SiteCostModel {
        SiteCostModel::from_pricings(self.pricings())
    }

    /// Eq. 4 capacity limits of the owned (non-elastic) sites at index > 0
    /// that declare at least one finite capacity. Site 0 is omitted: its
    /// limits are governed by `MigrationPreferences::onprem_*_limit`, the
    /// paper's operator knobs.
    pub fn owned_site_limits(&self) -> Vec<OwnedSiteLimits> {
        self.sites
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, s)| {
                !s.is_elastic()
                    && (s.cpu_cores.is_finite()
                        || s.memory_gb.is_finite()
                        || s.storage_gb.is_finite())
            })
            .map(|(i, s)| OwnedSiteLimits {
                site: SiteId(i as u16),
                cpu_cores: s.cpu_cores,
                memory_gb: s.memory_gb,
                storage_gb: s.storage_gb,
            })
            .collect()
    }
}

/// The Eq. 4 capacity limits of one owned site at index > 0, extracted by
/// [`SiteCatalog::owned_site_limits`] and enforced by the core constraint
/// kernel alongside the site-0 preference limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OwnedSiteLimits {
    /// The owned site these limits bound (never site 0).
    pub site: SiteId,
    /// CPU-core capacity (finite unless unbounded on this axis).
    pub cpu_cores: f64,
    /// Memory capacity in GB.
    pub memory_gb: f64,
    /// Storage capacity in GB.
    pub storage_gb: f64,
}

impl Default for SiteCatalog {
    /// The 2-entry catalog of the paper's testbed with default pricing.
    fn default() -> Self {
        Self::hybrid(&ClusterSpec::default(), PricingModel::default())
    }
}

/// Hardware description of one node type.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Marketing name of the node type (e.g. `m5.large`).
    pub name: String,
    /// CPU cores per node.
    pub cpu_cores: f64,
    /// Memory per node in GB.
    pub memory_gb: f64,
}

impl NodeSpec {
    /// Create a node spec.
    pub fn new(name: impl Into<String>, cpu_cores: f64, memory_gb: f64) -> Self {
        Self {
            name: name.into(),
            cpu_cores,
            memory_gb,
        }
    }
}

/// The hybrid cluster: a fixed-capacity on-prem side plus an autoscaling
/// cloud side built from `cloud_node` instances.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Total CPU cores available on-prem.
    pub onprem_cpu_cores: f64,
    /// Total memory available on-prem, in GB.
    pub onprem_memory_gb: f64,
    /// Total storage available on-prem, in GB.
    pub onprem_storage_gb: f64,
    /// Node type the cloud autoscaler provisions.
    pub cloud_node: NodeSpec,
    /// Network characteristics between and within the locations.
    pub network: NetworkModel,
}

impl Default for ClusterSpec {
    /// A cluster shaped like the paper's testbed: ten on-prem nodes with two
    /// 10-core CPUs each (200 cores total), and a 16-core cloud node type.
    fn default() -> Self {
        Self {
            onprem_cpu_cores: 200.0,
            onprem_memory_gb: 1600.0,
            onprem_storage_gb: 4800.0,
            cloud_node: NodeSpec::new("cloud-16c", 16.0, 64.0),
            network: NetworkModel::default(),
        }
    }
}

impl ClusterSpec {
    /// A small cluster useful in unit tests and examples: the on-prem side
    /// holds `cpu_cores` cores and the cloud node type has 8 cores.
    pub fn small(cpu_cores: f64) -> Self {
        Self {
            onprem_cpu_cores: cpu_cores,
            onprem_memory_gb: cpu_cores * 4.0,
            onprem_storage_gb: cpu_cores * 20.0,
            cloud_node: NodeSpec::new("cloud-8c", 8.0, 32.0),
            network: NetworkModel::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_transfer_time_includes_propagation_and_serialization() {
        let link = LinkSpec {
            latency_ms: 1.0,
            bandwidth_mbps: 8.0, // 1 byte per microsecond
        };
        // 1 ms propagation + 500 bytes at 1 B/µs = 1500 µs.
        assert!((link.transfer_us(500.0) - 1_500.0).abs() < 1e-9);
        assert!((link.transfer_us(0.0) - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn default_network_matches_paper_measurements() {
        let n = NetworkModel::default();
        assert!((n.intra.latency_ms - 0.168).abs() < 1e-12);
        assert!((n.inter.latency_ms - 23.015).abs() < 1e-12);
        assert!(n.inter.transfer_us(0.0) > n.intra.transfer_us(0.0));
    }

    #[test]
    fn two_site_matrix_selects_links_by_site_pair() {
        let n = NetworkModel::default();
        let sites = SiteNetwork::two_site(n);
        assert_eq!(sites.site_count(), 2);
        assert_eq!(sites.link(SiteId::ON_PREM, SiteId::ON_PREM), n.intra);
        assert_eq!(sites.link(SiteId::CLOUD, SiteId::CLOUD), n.intra);
        assert_eq!(sites.link(SiteId::ON_PREM, SiteId::CLOUD), n.inter);
        assert_eq!(sites.link(SiteId::CLOUD, SiteId::ON_PREM), n.inter);
        assert_eq!(
            sites.transfer_us(SiteId::ON_PREM, SiteId::CLOUD, 512.0),
            n.inter.transfer_us(512.0)
        );
        // One exchange is the request leg plus the response leg.
        assert_eq!(
            sites.exchange_us(SiteId::CLOUD, SiteId::ON_PREM, 1_000.0, 2_000.0),
            n.inter.transfer_us(1_000.0) + n.inter.transfer_us(2_000.0)
        );
        assert_eq!(SiteNetwork::from(n), SiteNetwork::default());
    }

    /// Eq. 2 with the caller staying on-prem and only the callee moving.
    fn callee_moves(before: SiteId, after: SiteId, bytes: f64) -> f64 {
        SiteNetwork::default().delay_delta_us(
            SiteId::ON_PREM,
            before,
            SiteId::ON_PREM,
            after,
            bytes,
            bytes,
        )
    }

    #[test]
    fn delay_delta_positive_when_offloading_and_negative_when_returning() {
        let offload = callee_moves(SiteId::ON_PREM, SiteId::CLOUD, 1_000.0);
        assert!(offload > 0.0, "offloading must add delay, got {offload}");
        let restore = callee_moves(SiteId::CLOUD, SiteId::ON_PREM, 1_000.0);
        assert!(
            (offload + restore).abs() < 1e-6,
            "delta must be antisymmetric"
        );
        assert_eq!(callee_moves(SiteId::CLOUD, SiteId::CLOUD, 1_000.0), 0.0);
    }

    #[test]
    fn delay_delta_grows_with_payload() {
        let small = callee_moves(SiteId::ON_PREM, SiteId::CLOUD, 100.0);
        let large = callee_moves(SiteId::ON_PREM, SiteId::CLOUD, 1.0e6);
        assert!(large > small);
    }

    #[test]
    fn asymmetric_links_split_request_and_response_legs() {
        let fast = LinkSpec {
            latency_ms: 1.0,
            bandwidth_mbps: 8.0, // 1 byte per µs
        };
        let slow = LinkSpec {
            latency_ms: 10.0,
            bandwidth_mbps: 8.0,
        };
        let intra = LinkSpec {
            latency_ms: 0.0,
            bandwidth_mbps: 8.0,
        };
        // 0→1 fast, 1→0 slow.
        let net = SiteNetwork::from_links(2, vec![intra, fast, slow, intra]);
        // Request (100 B) over fast: 1000 + 100; response (200 B) over slow:
        // 10000 + 200.
        let exchange = net.exchange_us(SiteId(0), SiteId(1), 100.0, 200.0);
        assert!((exchange - (1_100.0 + 10_200.0)).abs() < 1e-9);
        // Reversing caller and callee swaps the legs.
        let reverse = net.exchange_us(SiteId(1), SiteId(0), 100.0, 200.0);
        assert!((reverse - (10_100.0 + 1_200.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "ordered site pair")]
    fn mismatched_link_matrix_is_rejected() {
        let l = NetworkModel::default().intra;
        let _ = SiteNetwork::from_links(3, vec![l; 4]);
    }

    #[test]
    fn hybrid_catalog_reproduces_the_two_site_world() {
        let catalog = SiteCatalog::default();
        assert_eq!(catalog.len(), 2);
        assert!(!catalog.is_empty());
        assert!(catalog.contains(SiteId(1)));
        assert!(!catalog.contains(SiteId(2)));
        let onprem = catalog.site(SiteId::ON_PREM);
        assert!(!onprem.is_elastic());
        assert_eq!(onprem.cpu_cores, ClusterSpec::default().onprem_cpu_cores);
        let cloud = catalog.site(SiteId::CLOUD);
        assert!(cloud.is_elastic());
        assert!(cloud.cpu_cores.is_infinite());
        assert_eq!(catalog.cheapest_elastic_site(), Some(SiteId::CLOUD));
        assert_eq!(catalog.network(), &SiteNetwork::default());
        assert_eq!(catalog.cost_model().site_count(), 2);
        assert_eq!(catalog.pricings()[0], None);
        assert_eq!(
            catalog.site_ids().collect::<Vec<_>>(),
            vec![SiteId(0), SiteId(1)]
        );
    }

    #[test]
    fn cheapest_elastic_site_compares_per_core_prices() {
        use atlas_cloud::Provider;
        let cluster = ClusterSpec::default();
        let mut gcp = PricingModel::preset(Provider::GcpLike);
        gcp.compute_per_node_hour *= 0.5; // clearly cheapest per core
        let catalog = SiteCatalog::new(
            vec![
                SiteSpec::owned("dc", cluster.onprem_cpu_cores, 100.0, 100.0),
                SiteSpec::elastic("aws", PricingModel::preset(Provider::AwsLike)),
                SiteSpec::elastic("gcp-cheap", gcp),
            ],
            SiteNetwork::from_links(3, vec![cluster.network.intra; 9]),
        );
        assert_eq!(catalog.cheapest_elastic_site(), Some(SiteId(2)));
        assert!(!catalog.site(SiteId(0)).is_elastic());
        assert!(catalog.site(SiteId(1)).is_elastic() && catalog.site(SiteId(2)).is_elastic());

        // A NaN price must not panic: it orders after every number, so a
        // finitely priced site still wins.
        let mut unpriced = PricingModel::preset(Provider::GcpLike);
        unpriced.compute_per_node_hour = f64::NAN;
        let catalog = SiteCatalog::new(
            vec![
                SiteSpec::owned("dc", cluster.onprem_cpu_cores, 100.0, 100.0),
                SiteSpec::elastic("nan", unpriced),
                SiteSpec::elastic("aws", PricingModel::preset(Provider::AwsLike)),
            ],
            SiteNetwork::from_links(3, vec![cluster.network.intra; 9]),
        );
        assert_eq!(catalog.cheapest_elastic_site(), Some(SiteId(2)));
    }

    #[test]
    fn cluster_defaults_are_sane() {
        let c = ClusterSpec::default();
        assert_eq!(c.onprem_cpu_cores, 200.0);
        assert!(c.cloud_node.cpu_cores > 0.0);
        let s = ClusterSpec::small(10.0);
        assert_eq!(s.onprem_cpu_cores, 10.0);
        assert_eq!(s.onprem_memory_gb, 40.0);
    }
}
