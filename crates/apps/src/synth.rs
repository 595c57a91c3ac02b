//! Procedural scenario generation: stress Atlas beyond the two seed apps.
//!
//! The paper evaluates Atlas on two hand-built DeathStarBench applications
//! (~30 components each, one diurnal workload shape). Real migration targets
//! span far wider architectures — layered monolith decompositions with dozens
//! of extracted services, fan-out heavy mixed IaaS/FaaS deployments, deep
//! call chains, dense service meshes. This module generates such scenarios
//! procedurally: given a seed and a [`SynthOptions`], [`synthesize`] builds a
//! complete, deterministic [`SynthScenario`] — an [`AppTopology`] with per-API
//! call trees, dataset statistics scaling the payloads, a paired
//! [`WorkloadOptions`] (diurnal base plus the [`WorkloadShape`] extensions),
//! and an analytic [`ResourceDemand`] — that plugs into everything the two
//! hand-built applications plug into today: the simulator, the learning
//! pipeline, the recommender and every baseline.
//!
//! # Example
//!
//! Generate a 60-component layered application and run its paired workload
//! through the simulator:
//!
//! ```
//! use atlas_apps::synth::{synthesize, CallGraphShape, SynthOptions};
//! use atlas_apps::WorkloadGenerator;
//! use atlas_sim::{OverloadModel, Placement, SimConfig, Simulator};
//! use atlas_telemetry::TelemetryStore;
//!
//! let scenario = synthesize(SynthOptions {
//!     components: 60,
//!     shape: CallGraphShape::Layered,
//!     seed: 7,
//!     ..SynthOptions::default()
//! })
//! .unwrap();
//! assert_eq!(scenario.topology.component_count(), 60);
//!
//! let mut workload = scenario.workload.clone();
//! workload.profile.day_seconds = 30; // compressed day keeps the example fast
//! let schedule = WorkloadGenerator::new(workload)
//!     .generate(&scenario.topology)
//!     .unwrap();
//! let store = TelemetryStore::new();
//! let report = Simulator::new(
//!     scenario.topology.clone(),
//!     Placement::all_onprem(60),
//!     SimConfig {
//!         overload: OverloadModel::disabled(),
//!         ..SimConfig::default()
//!     },
//! )
//! .run(&schedule, &store);
//! assert!(report.success_count() > 0);
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use atlas_cloud::{PricingModel, Provider, ResourceDemand};
use atlas_sim::{
    ApiSpec, AppTopology, CallEdge, CallNode, ClusterSpec, ComponentId, ComponentSpec, LinkSpec,
    SiteCatalog, SiteNetwork, SiteSpec, SizeDist, TimeDist,
};

use crate::datasets::{MediaStats, SocialGraphStats};
use crate::workload::{DiurnalProfile, WorkloadOptions, WorkloadShape};

/// Macro-structure of the generated call graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallGraphShape {
    /// A layered architecture (gateway → logic tiers → storage tier), the
    /// shape of monolith decompositions: each tier fans out in parallel to a
    /// slice of the next.
    Layered,
    /// One wide parallel fan-out under the entry point with shallow
    /// per-worker subtrees, the shape of scatter/gather and FaaS-style
    /// deployments.
    FanOut,
    /// A deep sequential chain of services ending in the storage tier —
    /// the worst case for cross-WAN placement, every hop is on the critical
    /// path.
    Chain,
    /// A random service mesh: irregular stage/parallelism mixes and
    /// occasional background edges, the shape of organically grown systems.
    Mesh,
}

/// Options of one generated scenario. All fields participate in determinism:
/// the same options always produce the bit-identical scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthOptions {
    /// Total number of components (entry gateways + services + stores),
    /// between 10 and 500.
    pub components: usize,
    /// Macro-structure of the per-API call trees.
    pub shape: CallGraphShape,
    /// Fraction of components that are stateful stores, in `[0, 0.8]`.
    pub stateful_fraction: f64,
    /// Number of user-facing APIs (each gets its own call tree), between 1
    /// and `components / 3`.
    pub apis: usize,
    /// Maximum depth of each API's call tree (root inclusive), between 2 and
    /// 12. Shapes treat it as a ceiling: a chain uses all of it, a fan-out
    /// stays shallow.
    pub call_depth: usize,
    /// Data-footprint scale: multiplies store payload sizes and persistent
    /// storage volumes (1.0 reproduces seed-app magnitudes).
    pub data_scale: f64,
    /// Shape of the paired workload.
    pub workload: WorkloadShape,
    /// Traffic-volume scale of the paired workload: multiplies the requests
    /// per day without changing the shape or the mix (1.0 reproduces the
    /// historical volume). Use it to stress learning throughput with more
    /// observations of the same behaviours.
    pub volume_scale: f64,
    /// Number of placement sites of the paired [`SiteCatalog`], between 2
    /// and 16. `2` (the default) reproduces the paper's on-prem + one-cloud
    /// world exactly; larger counts generate additional elastic regions
    /// with per-ordered-pair latencies drawn from a deterministic
    /// geographic model and pricing cycled over the provider presets.
    pub site_count: usize,
    /// Master seed for every random choice of the generator.
    pub seed: u64,
}

impl Default for SynthOptions {
    fn default() -> Self {
        Self {
            components: 50,
            shape: CallGraphShape::Layered,
            stateful_fraction: 0.2,
            apis: 6,
            call_depth: 4,
            data_scale: 1.0,
            workload: WorkloadShape::Diurnal,
            volume_scale: 1.0,
            site_count: 2,
            seed: 42,
        }
    }
}

/// Error raised when [`SynthOptions`] are out of the supported ranges.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthError {
    /// Component count outside 10–500.
    ComponentCount(usize),
    /// Stateful fraction outside `[0, 0.8]`.
    StatefulFraction(f64),
    /// API count outside 1–`components / 3`.
    ApiCount(usize),
    /// Call depth outside 2–12.
    CallDepth(usize),
    /// Non-positive or non-finite data scale.
    DataScale(f64),
    /// Non-positive or non-finite volume scale.
    VolumeScale(f64),
    /// Site count outside 2–16.
    SiteCount(usize),
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::ComponentCount(n) => {
                write!(f, "component count {n} outside the supported 10–500")
            }
            SynthError::StatefulFraction(x) => {
                write!(f, "stateful fraction {x} outside [0, 0.8]")
            }
            SynthError::ApiCount(n) => write!(f, "API count {n} outside 1–components/3"),
            SynthError::CallDepth(d) => write!(f, "call depth {d} outside 2–12"),
            SynthError::DataScale(s) => write!(f, "data scale {s} must be positive and finite"),
            SynthError::VolumeScale(s) => write!(f, "volume scale {s} must be positive and finite"),
            SynthError::SiteCount(n) => write!(f, "site count {n} outside the supported 2–16"),
        }
    }
}

impl std::error::Error for SynthError {}

/// A complete generated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthScenario {
    /// The options the scenario was generated from.
    pub options: SynthOptions,
    /// The application: components plus per-API call trees.
    pub topology: AppTopology,
    /// The paired workload (API mix over exactly the generated APIs, diurnal
    /// base plus the requested [`WorkloadShape`]).
    pub workload: WorkloadOptions,
    /// Social-graph-like dataset statistics used to size record payloads.
    pub graph: SocialGraphStats,
    /// Media-corpus-like dataset statistics used to size blob payloads.
    pub media: MediaStats,
    /// The placement sites of the scenario: on-prem at site 0 plus
    /// `site_count − 1` elastic regions over a geographic link model. For
    /// `site_count == 2` this is exactly [`SiteCatalog::default`], the
    /// paper's testbed.
    pub catalog: SiteCatalog,
}

impl SynthScenario {
    /// Component names in plan-index order, the form the learning pipeline
    /// and the baselines consume.
    pub fn component_index(&self) -> Vec<String> {
        self.topology
            .components()
            .iter()
            .map(|c| c.name.clone())
            .collect()
    }

    /// Names of the stateful components.
    pub fn stateful_names(&self) -> Vec<String> {
        self.topology
            .stateful_components()
            .into_iter()
            .map(|c| self.topology.component_name(c).to_string())
            .collect()
    }

    /// Analytic expected resource demand over `steps` steps of `step_s`
    /// seconds under a traffic multiplier of `traffic_scale` (e.g. the
    /// paper's 5× burst), derived from the call trees and the paired
    /// workload instead of simulated telemetry.
    ///
    /// CPU is the base draw plus the expected per-request compute of every
    /// call-tree node; memory mirrors the simulator's 5-second metric
    /// window (base plus per-request memory of the requests in flight over
    /// one window); storage is the static persistent footprint; edge bytes
    /// are the mean per-request payloads times the expected request rate.
    pub fn analytic_demand(&self, traffic_scale: f64, steps: usize, step_s: u64) -> ResourceDemand {
        let topology = &self.topology;
        let n = topology.component_count();
        let mut demand = ResourceDemand::zeros(self.component_index(), steps, step_s);

        // Step-invariant per-API quantities, hoisted out of the step loop:
        // per-request compute (µs) and invocation counts per component, mean
        // request+response bytes per directed edge, and the mix weight.
        let mut compute_us: Vec<Vec<f64>> = Vec::with_capacity(topology.api_count());
        let mut invocations: Vec<Vec<f64>> = Vec::with_capacity(topology.api_count());
        let mut edge_means: Vec<Vec<((usize, usize), f64)>> =
            Vec::with_capacity(topology.api_count());
        let mut weights: Vec<f64> = Vec::with_capacity(topology.api_count());
        for api in topology.apis() {
            let mut compute = vec![0.0f64; n];
            accumulate_compute(&api.root, &mut compute);
            compute_us.push(compute);
            invocations.push((0..n).map(|c| requests_of(&api.root, c)).collect());
            let mut means: Vec<((usize, usize), f64)> = Vec::new();
            api.root.visit_edges(&mut |parent, edge| {
                means.push((
                    (parent.0, edge.child.component.0),
                    edge.request.mean_bytes + edge.response.mean_bytes,
                ));
            });
            edge_means.push(means);
            weights.push(
                self.workload
                    .api_mix
                    .iter()
                    .find(|(name, _)| name == &api.endpoint)
                    .map_or(0.0, |(_, w)| *w),
            );
        }
        let total_weight: f64 = self.workload.api_mix.iter().map(|(_, w)| w).sum();
        let day_s = self.workload.profile.day_seconds.max(1);
        let critical = self.workload.shape.critical_seconds(day_s);

        for t in 0..steps {
            // A step can span a large part of (or several) compressed days;
            // sample the shaped intensity at several offsets — plus the
            // shape's own critical points (a flash crowd narrower than the
            // grid spacing would otherwise vanish) — and use the maximum for
            // the rate-driven resources (the demand feeds peak-based
            // feasibility constraints). A single mid-point sample can alias
            // against the diurnal period and land in the trough every step.
            const SAMPLES: u64 = 16;
            let step_range = t as u64 * step_s..(t as u64 + 1) * step_s;
            let grid =
                (0..SAMPLES).map(|j| t as u64 * step_s + (2 * j + 1) * step_s / (2 * SAMPLES));
            let intensity = grid
                .chain(critical.iter().copied().filter(|s| step_range.contains(s)))
                .map(|at_s| {
                    let day = (at_s / day_s) as u32;
                    let fraction = (at_s % day_s) as f64 / day_s as f64;
                    self.workload
                        .shape
                        .intensity(&self.workload.profile, day, fraction)
                })
                .fold(0.0f64, f64::max);
            let rate = self.workload.peak_rps
                * intensity
                * self.workload.burst_factor
                * self.workload.volume_scale
                * traffic_scale;
            for api_idx in 0..topology.api_count() {
                let api_rate = rate * weights[api_idx] / total_weight;
                for c in 0..n {
                    demand.cpu_cores[c][t] += api_rate * compute_us[api_idx][c] / 1.0e6;
                    let spec = topology.component(ComponentId(c));
                    // One request keeps its per-request memory for roughly a
                    // metric window (5 s), matching the simulator.
                    demand.memory_gb[c][t] +=
                        api_rate * 5.0 * spec.memory_per_request_gb * invocations[api_idx][c];
                }
                for &(edge, mean_bytes) in &edge_means[api_idx] {
                    *demand
                        .edge_bytes
                        .entry(edge)
                        .or_insert_with(|| vec![0.0; steps])
                        .get_mut(t)
                        .expect("step in range") += mean_bytes * api_rate * step_s as f64;
                }
            }
            for (c, spec) in topology.components().iter().enumerate() {
                demand.cpu_cores[c][t] += spec.base_cpu_cores;
                demand.memory_gb[c][t] += spec.base_memory_gb;
                demand.storage_gb[c][t] = spec.storage_gb;
            }
        }
        demand
    }

    /// An on-prem CPU limit that forces offloading under a
    /// `traffic_scale`× burst: `fraction` of the peak analytic CPU demand
    /// over the standard 8 × 600 s horizon. Experiments and tests share this
    /// so the burst convention lives in one place.
    pub fn burst_cpu_limit(&self, traffic_scale: f64, fraction: f64) -> f64 {
        let all: Vec<usize> = (0..self.topology.component_count()).collect();
        self.analytic_demand(traffic_scale, 8, 600).peak_cpu(&all) * fraction
    }
}

impl SynthOptions {
    /// The options of the second phase of a drift episode: the *same*
    /// application (identical seed, so identical component and API names
    /// and call-tree structure) after its user behaviour changed — the
    /// data footprint grown 2× (posts, media and store payloads all
    /// heavier, inflating per-API service and transfer times) and the
    /// traffic volume grown 1.5×. Deterministic per seed: the same base
    /// options always derive the same drift phase.
    ///
    /// Synthesize the phase with [`synthesize_drift_phase`] to also get
    /// the rotated API mix and the re-jittered day.
    pub fn drift_phase(&self) -> SynthOptions {
        SynthOptions {
            data_scale: self.data_scale * 2.0,
            volume_scale: self.volume_scale * 1.5,
            ..*self
        }
    }
}

/// Synthesize the second phase of a drift episode from the base options:
/// [`SynthOptions::drift_phase`] grows the data footprint and volume, the
/// API mix is rotated by one position (popularity shifts between the same
/// APIs) and the workload seed is re-derived so day-2 arrivals don't replay
/// day-1 jitter. Component and API names are identical to the base
/// scenario's, so phase-2 telemetry streams into the same store, profiles
/// and drift detectors — with genuinely different per-API latency
/// distributions for them to catch.
pub fn synthesize_drift_phase(options: &SynthOptions) -> Result<SynthScenario, SynthError> {
    let mut scenario = synthesize(options.drift_phase())?;
    let weights: Vec<f64> = scenario.workload.api_mix.iter().map(|&(_, w)| w).collect();
    let k = weights.len();
    for (i, (_, w)) in scenario.workload.api_mix.iter_mut().enumerate() {
        *w = weights[(i + 1) % k];
    }
    scenario.workload.seed ^= 0xD21F_7D11;

    // The heavier data also costs compute: serialising, filtering and
    // ranking 2× the payload roughly doubles per-operation service time.
    // (Payload inflation alone barely moves end-to-end latency while every
    // component is on-prem, but the drift phase must shift the per-API
    // latency distributions that the monitors watch.)
    let mut apis = scenario.topology.apis().to_vec();
    for api in &mut apis {
        scale_compute(&mut api.root, DRIFT_COMPUTE_SCALE);
    }
    scenario.topology = AppTopology::new(
        scenario.topology.name.clone(),
        scenario.topology.components().to_vec(),
        apis,
    )
    .expect("rescaling compute keeps the topology valid");
    Ok(scenario)
}

/// Service-time inflation of the drift phase (see
/// [`synthesize_drift_phase`]).
const DRIFT_COMPUTE_SCALE: f64 = 2.0;

/// Scale every operation's mean service time in a call tree.
fn scale_compute(node: &mut CallNode, factor: f64) {
    node.compute.mean_us *= factor;
    for edge in node
        .stages
        .iter_mut()
        .flatten()
        .chain(node.background.iter_mut())
    {
        scale_compute(&mut edge.child, factor);
    }
}

fn accumulate_compute(node: &CallNode, acc: &mut [f64]) {
    acc[node.component.0] += node.compute.mean_us;
    for edge in node.stages.iter().flatten().chain(node.background.iter()) {
        accumulate_compute(&edge.child, acc);
    }
}

/// Number of times component `c` is invoked in one request of the tree.
fn requests_of(node: &CallNode, c: usize) -> f64 {
    let own = if node.component.0 == c { 1.0 } else { 0.0 };
    own + node
        .stages
        .iter()
        .flatten()
        .chain(node.background.iter())
        .map(|e| requests_of(&e.child, c))
        .sum::<f64>()
}

// ---------------------------------------------------------------------------
// Generation.
// ---------------------------------------------------------------------------

/// Component roles in index order: entries first, then services, then stores.
struct Layout {
    entries: usize,
    services: usize,
    stores: usize,
}

impl Layout {
    fn service_ids(&self) -> std::ops::Range<usize> {
        self.entries..self.entries + self.services
    }

    fn store_ids(&self) -> std::ops::Range<usize> {
        self.entries + self.services..self.entries + self.services + self.stores
    }
}

/// Generate a scenario from options.
///
/// The construction is fully deterministic in `options` (including the
/// seed): components are laid out as entry gateways, stateless services and
/// stateful stores; services are partitioned across the APIs so every
/// component participates in at least one call tree; stores are shared
/// round-robin (databases serve several APIs, like the seed applications);
/// and the per-shape tree builders consume each API's whole partition.
pub fn synthesize(options: SynthOptions) -> Result<SynthScenario, SynthError> {
    validate(&options)?;
    let mut rng = StdRng::seed_from_u64(options.seed);

    // Dataset statistics scaled by the data footprint.
    let graph = SocialGraphStats {
        users: (10_000.0 * options.data_scale).round().max(100.0) as usize,
        mean_followers: 18.0,
        mean_post_bytes: 280.0 * options.data_scale,
        mean_timeline_posts: 10.0,
    };
    let media = MediaStats {
        mean_media_bytes: 90_000.0 * options.data_scale,
        media_attach_probability: 0.3,
    };

    let layout = layout_of(&options);
    let specs = component_specs(&options, &layout, &mut rng);

    // Partition the services across APIs (every service used exactly once)
    // and deal the stores round-robin (every store used at least once).
    let mut services: Vec<usize> = layout.service_ids().collect();
    shuffle(&mut services, &mut rng);
    let chunks = partition(&services, options.apis);
    let stores: Vec<usize> = layout.store_ids().collect();

    let mut apis = Vec::with_capacity(options.apis);
    for (api_idx, chunk) in chunks.iter().enumerate() {
        let entry = api_idx % layout.entries;
        let api_stores: Vec<usize> = if stores.is_empty() {
            Vec::new()
        } else {
            // Each API gets a deterministic, round-robin slice of stores;
            // collectively the slices cover every store (databases serve
            // several APIs, like the seed applications').
            let per_api = stores.len().div_ceil(options.apis).max(1);
            (0..per_api)
                .map(|k| stores[(api_idx + k * options.apis) % stores.len()])
                .collect()
        };
        let mut builder = TreeBuilder {
            rng: &mut rng,
            options: &options,
            graph: &graph,
            media: &media,
        };
        let endpoint = format!("/api{api_idx:02}");
        let root = builder.build_api(&endpoint, entry, chunk, &api_stores);
        apis.push(ApiSpec::new(endpoint, root));
    }

    let topology = AppTopology::new(
        format!("synthetic-{}-{:?}", options.components, options.shape),
        specs,
        apis,
    )
    .expect("generated topologies are valid by construction");

    // Paired workload: a deterministic heavy-tailed API mix over exactly the
    // generated endpoints.
    let mut api_mix = Vec::with_capacity(options.apis);
    for api_idx in 0..options.apis {
        let weight = rng.gen_range(0.5..4.0) / (1.0 + api_idx as f64 * 0.35);
        api_mix.push((format!("/api{api_idx:02}"), weight));
    }
    let workload = WorkloadOptions {
        days: 1,
        peak_rps: 30.0,
        burst_factor: 1.0,
        volume_scale: options.volume_scale,
        api_mix,
        day_jitter: 0.1,
        profile: DiurnalProfile::default(),
        shape: options.workload,
        seed: options.seed ^ 0x9E37_79B9,
    };

    Ok(SynthScenario {
        options,
        topology,
        workload,
        graph,
        media,
        catalog: generate_catalog(options.site_count, options.seed),
    })
}

fn validate(options: &SynthOptions) -> Result<(), SynthError> {
    if !(10..=500).contains(&options.components) {
        return Err(SynthError::ComponentCount(options.components));
    }
    if !(0.0..=0.8).contains(&options.stateful_fraction) || !options.stateful_fraction.is_finite() {
        return Err(SynthError::StatefulFraction(options.stateful_fraction));
    }
    if options.apis == 0 || options.apis > options.components / 3 {
        return Err(SynthError::ApiCount(options.apis));
    }
    if !(2..=12).contains(&options.call_depth) {
        return Err(SynthError::CallDepth(options.call_depth));
    }
    if options.data_scale <= 0.0 || !options.data_scale.is_finite() {
        return Err(SynthError::DataScale(options.data_scale));
    }
    if options.volume_scale <= 0.0 || !options.volume_scale.is_finite() {
        return Err(SynthError::VolumeScale(options.volume_scale));
    }
    if !(2..=16).contains(&options.site_count) {
        return Err(SynthError::SiteCount(options.site_count));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Site-catalog generation (the geographic model).
// ---------------------------------------------------------------------------

/// Generate the scenario's [`SiteCatalog`] deterministically from the master
/// seed.
///
/// The two-site case returns [`SiteCatalog::default`] — the paper's
/// measured testbed numbers — so every historical scenario is reproduced
/// exactly. Larger catalogs place the elastic regions on a plane around the
/// on-prem site: each region gets a deterministic position (ring angle +
/// radial distance in km), per-ordered-pair latencies follow fibre
/// propagation at ~100 km/ms one-way over the pair's euclidean distance
/// (plus the measured intra-DC floor and a small per-direction jitter),
/// bandwidths are drawn per direction, and pricing cycles the AWS/Azure/GCP
/// presets with a per-region price multiplier.
///
/// The catalog draws from its own seeded stream (`seed ^ SITE_STREAM`), so
/// adding sites never perturbs the topology/workload generation stream —
/// the same seed at any `site_count` yields the identical application.
fn generate_catalog(site_count: usize, seed: u64) -> SiteCatalog {
    if site_count == 2 {
        return SiteCatalog::default();
    }
    const SITE_STREAM: u64 = 0xA11A_5C0F_FEE5_17E5;
    let mut rng = StdRng::seed_from_u64(seed ^ SITE_STREAM);
    let cluster = ClusterSpec::default();
    let intra = cluster.network.intra;

    // Positions (km): on-prem at the origin, regions on a deterministic
    // scatter 300–6000 km out.
    let mut positions: Vec<(f64, f64)> = vec![(0.0, 0.0)];
    for _ in 1..site_count {
        let angle = rng.gen_range(0.0..std::f64::consts::TAU);
        let radius_km = rng.gen_range(300.0..6_000.0);
        positions.push((radius_km * angle.cos(), radius_km * angle.sin()));
    }

    let providers = [Provider::AwsLike, Provider::AzureLike, Provider::GcpLike];
    let mut sites = Vec::with_capacity(site_count);
    sites.push(SiteSpec::owned(
        "on-prem",
        cluster.onprem_cpu_cores,
        cluster.onprem_memory_gb,
        cluster.onprem_storage_gb,
    ));
    for k in 1..site_count {
        let mut pricing = PricingModel::preset(providers[(k - 1) % providers.len()]);
        let regional = rng.gen_range(0.85..1.35);
        pricing.compute_per_node_hour *= regional;
        pricing.storage_per_gb_month *= regional;
        pricing.egress_per_gb *= regional;
        sites.push(SiteSpec::elastic(format!("region-{k:02}"), pricing));
    }

    // Per-ordered-pair links: distance-driven latency, mildly asymmetric
    // jitter and bandwidth per direction.
    let mut links = Vec::with_capacity(site_count * site_count);
    for a in 0..site_count {
        for b in 0..site_count {
            if a == b {
                links.push(intra);
                continue;
            }
            let (xa, ya) = positions[a];
            let (xb, yb) = positions[b];
            let distance_km = ((xa - xb).powi(2) + (ya - yb).powi(2)).sqrt();
            // One-way fibre propagation ≈ distance / 100 km/ms plus the
            // intra-DC floor and routing jitter.
            let latency_ms = intra.latency_ms + distance_km / 100.0 * rng.gen_range(0.95..1.15);
            let bandwidth_mbps = rng.gen_range(500.0..950.0);
            links.push(LinkSpec {
                latency_ms,
                bandwidth_mbps,
            });
        }
    }
    SiteCatalog::new(sites, SiteNetwork::from_links(site_count, links))
}

fn layout_of(options: &SynthOptions) -> Layout {
    let entries = (options.apis / 4 + 1).min(3);
    let stores = ((options.components as f64 * options.stateful_fraction).round() as usize)
        // Leave at least one service per API after entries and stores.
        .min(options.components - entries - options.apis);
    Layout {
        entries,
        services: options.components - entries - stores,
        stores,
    }
}

fn component_specs(
    options: &SynthOptions,
    layout: &Layout,
    rng: &mut StdRng,
) -> Vec<ComponentSpec> {
    let mut specs = Vec::with_capacity(options.components);
    for i in 0..layout.entries {
        specs.push(ComponentSpec::stateless(
            format!("Edge{i:02}"),
            rng.gen_range(0.18..0.3),
            0.5,
        ));
    }
    for i in 0..layout.services {
        specs.push(ComponentSpec::stateless(
            format!("Svc{i:03}"),
            rng.gen_range(0.05..0.18),
            rng.gen_range(0.4..1.2),
        ));
    }
    for i in 0..layout.stores {
        specs.push(ComponentSpec::stateful(
            format!("Store{i:03}"),
            rng.gen_range(0.1..0.2),
            rng.gen_range(1.0..2.0),
            rng.gen_range(5.0..40.0) * options.data_scale,
        ));
    }
    specs
}

/// Deterministic Fisher–Yates shuffle.
fn shuffle(items: &mut [usize], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

/// Split `items` into `parts` non-empty chunks (sizes differ by at most 1).
fn partition(items: &[usize], parts: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::with_capacity(parts);
    let base = items.len() / parts;
    let extra = items.len() % parts;
    let mut cursor = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(items[cursor..cursor + len].to_vec());
        cursor += len;
    }
    out
}

/// Per-API call-tree builder.
struct TreeBuilder<'a> {
    rng: &'a mut StdRng,
    options: &'a SynthOptions,
    graph: &'a SocialGraphStats,
    media: &'a MediaStats,
}

impl TreeBuilder<'_> {
    fn build_api(
        &mut self,
        endpoint: &str,
        entry: usize,
        services: &[usize],
        stores: &[usize],
    ) -> CallNode {
        let subtree = match self.options.shape {
            CallGraphShape::Layered => self.layered(services, stores),
            CallGraphShape::FanOut => self.fan_out(services, stores),
            CallGraphShape::Chain => self.chain(services, stores),
            CallGraphShape::Mesh => self.mesh(services, stores, self.options.call_depth - 1),
        };
        // The root span carries the endpoint name: telemetry keys APIs by
        // root operation, so each generated API must stay distinguishable
        // in the collected traces (like the seed applications' endpoints).
        let root = self.node(entry, endpoint, 400.0..900.0);
        match subtree {
            Some(child) => root.with_stage(vec![self.service_edge(child)]),
            // An API whose partition came up empty degenerates to the entry
            // component answering alone (static content).
            None => root,
        }
    }

    /// Layered: services split across `depth - 2` tiers, each node fans out
    /// in parallel to its slice of the next tier; the API's stores hang off
    /// the deepest tier, dealt round-robin so every one is reached.
    fn layered(&mut self, services: &[usize], stores: &[usize]) -> Option<CallNode> {
        if services.is_empty() {
            return None;
        }
        let tiers = (self.options.call_depth - 1).min(services.len()).max(1);
        let tier_slices = partition(services, tiers);
        // Build bottom-up: the deepest tier first.
        let mut below: Vec<CallNode> = Vec::new();
        for (level, slice) in tier_slices.iter().enumerate().rev() {
            let deepest = level == tier_slices.len() - 1;
            let mut tier_nodes: Vec<CallNode> = Vec::with_capacity(slice.len());
            for &svc in slice.iter() {
                tier_nodes.push(self.node(svc, "Process", 400.0..2_500.0));
            }
            if deepest {
                for (k, &store) in stores.iter().enumerate() {
                    let store_node = self.store_node(store);
                    let edge = self.store_edge(store_node);
                    let target = &mut tier_nodes[k % slice.len()];
                    *target = target.clone().with_stage(vec![edge]);
                }
            }
            // Attach the previous (deeper) tier's nodes to this tier's nodes
            // as parallel stages, spreading them round-robin.
            if !below.is_empty() {
                let mut stages: Vec<Vec<CallEdge>> = vec![Vec::new(); tier_nodes.len()];
                for (k, child) in below.drain(..).enumerate() {
                    stages[k % tier_nodes.len()].push(self.service_edge(child));
                }
                for (node, stage) in tier_nodes.iter_mut().zip(stages) {
                    if !stage.is_empty() {
                        *node = node.clone().with_stage(stage);
                    }
                }
            }
            below = tier_nodes;
        }
        // Collapse the top tier under a single aggregator (the first node).
        let mut top = below;
        let mut aggregator = top.remove(0);
        if !top.is_empty() {
            aggregator =
                aggregator.with_stage(top.into_iter().map(|n| self.service_edge(n)).collect());
        }
        Some(aggregator)
    }

    /// Fan-out: one aggregator calls every other service of the partition in
    /// wide parallel stages; the API's stores are spread round-robin over
    /// the workers so every one is reached.
    fn fan_out(&mut self, services: &[usize], stores: &[usize]) -> Option<CallNode> {
        let (&aggregator, workers) = services.split_first()?;
        let mut node = self.node(aggregator, "Gather", 800.0..2_000.0);
        if workers.is_empty() {
            // Degenerate single-service partition: the aggregator consults
            // the stores itself.
            for &store in stores {
                let store_node = self.store_node(store);
                node = node.with_stage(vec![self.store_edge(store_node)]);
            }
            return Some(node);
        }
        // Cap stage width at 8 so huge partitions become a few giant stages.
        let mut global = 0usize;
        for chunk in workers.chunks(8) {
            let mut stage = Vec::with_capacity(chunk.len());
            for &worker in chunk.iter() {
                let mut w = self.node(worker, "Work", 300.0..1_800.0);
                // Worker k serves the stores congruent to k mod worker-count.
                let mut store_idx = global;
                while store_idx < stores.len() {
                    let store_node = self.store_node(stores[store_idx]);
                    let edge = self.store_edge(store_node);
                    w = w.with_stage(vec![edge]);
                    store_idx += workers.len();
                }
                stage.push(self.service_edge(w));
                global += 1;
            }
            node = node.with_stage(stage);
        }
        // The aggregator journals the gather in the background.
        if let Some(&store) = stores.first() {
            let store_node = self.store_node(store);
            node = node.with_background(self.background_edge(store_node));
        }
        Some(node)
    }

    /// Chain: every service strictly sequential; all of the API's stores
    /// terminate it as sequential accesses (the chain stays width-1).
    fn chain(&mut self, services: &[usize], stores: &[usize]) -> Option<CallNode> {
        let spine_len = (self.options.call_depth - 1).min(services.len());
        let (spine, rest) = services.split_at(spine_len);
        // Build the tail first.
        let mut tail: Option<CallNode> = None;
        for (i, &svc) in spine.iter().enumerate().rev() {
            let mut node = self.node(svc, "Step", 500.0..2_200.0);
            if i == spine.len() - 1 {
                for &store in stores {
                    let store_node = self.store_node(store);
                    node = node.with_stage(vec![self.store_edge(store_node)]);
                }
            }
            if let Some(child) = tail.take() {
                node = node.with_stage(vec![self.service_edge(child)]);
            }
            tail = Some(node);
        }
        let mut head = tail?;
        // Services that don't fit in the depth budget become extra
        // *sequential* stages on the head — the chain stays a chain.
        for &svc in rest {
            let node = self.node(svc, "Step", 400.0..1_500.0);
            head = head.with_stage(vec![self.service_edge(node)]);
        }
        Some(head)
    }

    /// Mesh: irregular recursive trees with mixed stage widths and
    /// occasional background store writes.
    fn mesh(
        &mut self,
        services: &[usize],
        stores: &[usize],
        depth_left: usize,
    ) -> Option<CallNode> {
        let (&head, rest) = services.split_first()?;
        let mut node = self.node(head, "Handle", 300.0..2_400.0);
        if depth_left <= 1 || rest.is_empty() {
            // Leaves of the mesh absorb the remaining partition as one wide
            // stage so every service stays reachable.
            if !rest.is_empty() {
                let mut stage = Vec::with_capacity(rest.len());
                for &svc in rest {
                    let leaf = self.leaf_of(svc);
                    stage.push(self.service_edge(leaf));
                }
                node = node.with_stage(stage);
            }
        } else {
            // Split the remaining services into 1–3 subtrees across 1–2
            // sequential stages.
            let subtrees = self.rng.gen_range(1..=3usize).min(rest.len());
            let slices = partition(rest, subtrees);
            let two_stages = subtrees > 1 && self.rng.gen_bool(0.5);
            let mut first_stage = Vec::new();
            let mut second_stage = Vec::new();
            for (k, slice) in slices.iter().enumerate() {
                if let Some(child) = self.mesh(slice, &[], depth_left - 1) {
                    let edge = self.service_edge(child);
                    if two_stages && k == subtrees - 1 {
                        second_stage.push(edge);
                    } else {
                        first_stage.push(edge);
                    }
                }
            }
            if !first_stage.is_empty() {
                node = node.with_stage(first_stage);
            }
            if !second_stage.is_empty() {
                node = node.with_stage(second_stage);
            }
        }
        for (k, &store) in stores.iter().enumerate() {
            let store_node = self.store_node(store);
            // Mix foreground reads and background writes.
            if k % 2 == 0 {
                node = node.with_stage(vec![self.store_edge(store_node)]);
            } else {
                node = node.with_background(self.background_edge(store_node));
            }
        }
        Some(node)
    }

    fn leaf_of(&mut self, svc: usize) -> CallNode {
        self.node(svc, "Work", 300.0..1_500.0)
    }

    fn node(&mut self, component: usize, op: &str, compute_us: std::ops::Range<f64>) -> CallNode {
        let us = self.rng.gen_range(compute_us);
        CallNode::leaf(ComponentId(component), op, TimeDist::new(us))
    }

    fn store_node(&mut self, store: usize) -> CallNode {
        self.node(store, "Query", 800.0..3_000.0)
    }

    /// Service↔service edge: record-sized payloads.
    fn service_edge(&mut self, child: CallNode) -> CallEdge {
        let req = self.rng.gen_range(0.3..2.5) * self.graph.mean_post_bytes;
        let resp = self.rng.gen_range(0.3..4.0) * self.graph.mean_post_bytes;
        CallEdge::sync(child, SizeDist::new(req), SizeDist::new(resp))
    }

    /// Service→store edge: responses carry data-scaled payloads, and a
    /// fraction of the stores serve blob-sized objects from the media
    /// corpus.
    fn store_edge(&mut self, child: CallNode) -> CallEdge {
        let req = self.rng.gen_range(0.5..2.0) * self.graph.mean_post_bytes;
        let resp = if self.rng.gen_bool(self.media.media_attach_probability) {
            self.rng.gen_range(0.2..1.0) * self.media.mean_media_bytes
        } else {
            self.rng.gen_range(1.0..8.0) * self.graph.mean_post_bytes
        };
        CallEdge::sync(child, SizeDist::new(req), SizeDist::new(resp))
    }

    fn background_edge(&mut self, child: CallNode) -> CallEdge {
        let req = self.rng.gen_range(0.5..2.0) * self.graph.mean_post_bytes;
        CallEdge::background(child, SizeDist::new(req), SizeDist::new(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadGenerator;

    fn all_shapes() -> [CallGraphShape; 4] {
        [
            CallGraphShape::Layered,
            CallGraphShape::FanOut,
            CallGraphShape::Chain,
            CallGraphShape::Mesh,
        ]
    }

    #[test]
    fn generates_requested_component_and_api_counts() {
        for shape in all_shapes() {
            for components in [10, 37, 120] {
                let scenario = synthesize(SynthOptions {
                    components,
                    shape,
                    apis: (components / 8).max(1),
                    ..SynthOptions::default()
                })
                .unwrap();
                assert_eq!(scenario.topology.component_count(), components, "{shape:?}");
                assert_eq!(scenario.topology.api_count(), (components / 8).max(1));
            }
        }
    }

    #[test]
    fn every_component_is_reachable_from_some_api() {
        for shape in all_shapes() {
            let scenario = synthesize(SynthOptions {
                components: 80,
                shape,
                apis: 7,
                ..SynthOptions::default()
            })
            .unwrap();
            let mut reachable = std::collections::HashSet::new();
            for api in scenario.topology.apis() {
                for c in api.root.reachable_components() {
                    reachable.insert(c.0);
                }
            }
            assert_eq!(
                reachable.len(),
                scenario.topology.component_count(),
                "{shape:?}: every component must participate in at least one API"
            );
        }
    }

    #[test]
    fn stateful_fraction_is_respected() {
        let scenario = synthesize(SynthOptions {
            components: 100,
            stateful_fraction: 0.3,
            ..SynthOptions::default()
        })
        .unwrap();
        let stateful = scenario.topology.stateful_components().len();
        assert_eq!(stateful, 30);
        assert_eq!(scenario.stateful_names().len(), 30);
        assert!(scenario
            .stateful_names()
            .iter()
            .all(|n| n.starts_with("Store")));
    }

    #[test]
    fn generation_is_bit_identical_per_seed() {
        for shape in all_shapes() {
            let options = SynthOptions {
                components: 64,
                shape,
                seed: 99,
                ..SynthOptions::default()
            };
            let a = synthesize(options).unwrap();
            let b = synthesize(options).unwrap();
            assert_eq!(a, b, "{shape:?}");
            let c = synthesize(SynthOptions {
                seed: 100,
                ..options
            })
            .unwrap();
            assert_ne!(a.topology, c.topology, "{shape:?}: seed must matter");
        }
    }

    #[test]
    fn shapes_have_their_macro_structure() {
        let opts = |shape| SynthOptions {
            components: 60,
            shape,
            apis: 4,
            call_depth: 5,
            ..SynthOptions::default()
        };

        // Chain: the deepest path dominates; few parallel edges per stage.
        let chain = synthesize(opts(CallGraphShape::Chain)).unwrap();
        for api in chain.topology.apis() {
            let mut max_width = 0;
            fn widths(node: &CallNode, max_width: &mut usize) {
                for stage in &node.stages {
                    *max_width = (*max_width).max(stage.len());
                }
                for e in node.stages.iter().flatten().chain(node.background.iter()) {
                    widths(&e.child, max_width);
                }
            }
            widths(&api.root, &mut max_width);
            assert!(max_width <= 2, "chains stay narrow, got width {max_width}");
        }

        // FanOut: at least one wide parallel stage.
        let fan = synthesize(opts(CallGraphShape::FanOut)).unwrap();
        let mut max_width = 0;
        for api in fan.topology.apis() {
            fn widths(node: &CallNode, max_width: &mut usize) {
                for stage in &node.stages {
                    *max_width = (*max_width).max(stage.len());
                }
                for e in node.stages.iter().flatten().chain(node.background.iter()) {
                    widths(&e.child, max_width);
                }
            }
            widths(&api.root, &mut max_width);
        }
        assert!(
            max_width >= 5,
            "fan-out must fan out, got width {max_width}"
        );

        // Depth budget is respected by the bounded shapes.
        for shape in [CallGraphShape::Layered, CallGraphShape::Chain] {
            let scenario = synthesize(opts(shape)).unwrap();
            for api in scenario.topology.apis() {
                // Chains may append overflow services as extra sequential
                // stages (which deepens the *stage* count, not the tree), so
                // measure node depth only.
                fn depth(node: &CallNode) -> usize {
                    1 + node
                        .stages
                        .iter()
                        .flatten()
                        .chain(node.background.iter())
                        .map(|e| depth(&e.child))
                        .max()
                        .unwrap_or(0)
                }
                // +2: the entry hop and the store hop sit outside the
                // service-tier budget.
                assert!(
                    depth(&api.root) <= 5 + 2,
                    "{shape:?} exceeded its depth budget: {}",
                    depth(&api.root)
                );
            }
        }
    }

    #[test]
    fn drift_phase_keeps_names_and_changes_behaviour() {
        let options = SynthOptions {
            components: 40,
            apis: 5,
            seed: 31,
            ..SynthOptions::default()
        };
        let base = synthesize(options).unwrap();
        let drift = synthesize_drift_phase(&options).unwrap();
        // Deterministic per seed.
        assert_eq!(drift, synthesize_drift_phase(&options).unwrap());
        // Same application identity: component and API names line up, so
        // phase-2 telemetry streams into phase-1 stores and detectors.
        assert_eq!(base.component_index(), drift.component_index());
        assert_eq!(base.stateful_names(), drift.stateful_names());
        let apis = |s: &SynthScenario| -> Vec<String> {
            s.workload.api_mix.iter().map(|(a, _)| a.clone()).collect()
        };
        assert_eq!(apis(&base), apis(&drift));
        // But the behaviour drifted: heavier data, more volume, rotated mix.
        assert_eq!(drift.options.data_scale, 2.0 * base.options.data_scale);
        assert_eq!(drift.options.volume_scale, 1.5 * base.options.volume_scale);
        assert_ne!(base.topology, drift.topology, "payloads/compute grew");
        let base_w: Vec<f64> = base.workload.api_mix.iter().map(|&(_, w)| w).collect();
        let drift_w: Vec<f64> = drift.workload.api_mix.iter().map(|&(_, w)| w).collect();
        assert_ne!(base_w, drift_w);
        let mut rotated = base_w.clone();
        rotated.rotate_left(1);
        assert_eq!(drift_w, rotated, "mix rotated by one API");
        assert_ne!(base.workload.seed, drift.workload.seed);
    }

    #[test]
    fn paired_workload_matches_the_topology() {
        let scenario = synthesize(SynthOptions {
            components: 40,
            apis: 5,
            ..SynthOptions::default()
        })
        .unwrap();
        assert_eq!(scenario.workload.api_mix.len(), 5);
        let mut workload = scenario.workload.clone();
        workload.profile.day_seconds = 30;
        let schedule = WorkloadGenerator::new(workload)
            .generate(&scenario.topology)
            .unwrap();
        assert!(schedule.len() > 100);
        // Every generated API receives traffic.
        assert_eq!(schedule.counts_per_api().len(), 5);
    }

    #[test]
    fn volume_scale_reaches_the_paired_workload_without_perturbing_the_app() {
        let calm = synthesize(SynthOptions {
            seed: 17,
            ..SynthOptions::default()
        })
        .unwrap();
        let dense = synthesize(SynthOptions {
            volume_scale: 10.0,
            seed: 17,
            ..SynthOptions::default()
        })
        .unwrap();
        // Same application, denser workload.
        assert_eq!(calm.topology, dense.topology);
        assert_eq!(dense.workload.volume_scale, 10.0);
        let mut a = calm.workload.clone();
        let mut b = dense.workload.clone();
        a.profile.day_seconds = 30;
        b.profile.day_seconds = 30;
        let calm_schedule = WorkloadGenerator::new(a).generate(&calm.topology).unwrap();
        let dense_schedule = WorkloadGenerator::new(b).generate(&dense.topology).unwrap();
        let ratio = dense_schedule.len() as f64 / calm_schedule.len() as f64;
        assert!((8.0..12.0).contains(&ratio), "10x volume, got {ratio}x");
        // And the analytic demand scales its rate-driven part accordingly.
        let all: Vec<usize> = (0..50).collect();
        let base = calm.topology.total_base_cpu();
        let p_calm = calm.analytic_demand(1.0, 8, 600).peak_cpu(&all);
        let p_dense = dense.analytic_demand(1.0, 8, 600).peak_cpu(&all);
        assert!(
            (p_dense - base) > 8.0 * (p_calm - base),
            "analytic demand must track volume: {p_dense} vs {p_calm} (base {base})"
        );
    }

    #[test]
    fn data_scale_grows_payloads_and_storage() {
        let small = synthesize(SynthOptions {
            data_scale: 1.0,
            seed: 3,
            ..SynthOptions::default()
        })
        .unwrap();
        let big = synthesize(SynthOptions {
            data_scale: 8.0,
            seed: 3,
            ..SynthOptions::default()
        })
        .unwrap();
        let total_storage = |s: &SynthScenario| {
            s.topology
                .components()
                .iter()
                .map(|c| c.storage_gb)
                .sum::<f64>()
        };
        assert!(total_storage(&big) > 6.0 * total_storage(&small));
        let total_bytes = |s: &SynthScenario| {
            s.topology
                .ground_truth_footprints()
                .iter()
                .map(|(_, _, _, req, resp)| req + resp)
                .sum::<f64>()
        };
        assert!(total_bytes(&big) > 4.0 * total_bytes(&small));
    }

    #[test]
    fn analytic_demand_is_positive_and_sized_right() {
        let scenario = synthesize(SynthOptions {
            components: 30,
            apis: 3,
            ..SynthOptions::default()
        })
        .unwrap();
        let demand = scenario.analytic_demand(5.0, 8, 600);
        assert_eq!(demand.component_count(), 30);
        assert_eq!(demand.steps, 8);
        let all: Vec<usize> = (0..30).collect();
        assert!(demand.peak_cpu(&all) > scenario.topology.total_base_cpu());
        assert!(demand.peak_memory_gb(&all) > 0.0);
        assert!(demand.peak_storage_gb(&all) > 0.0);
        assert!(!demand.edge_bytes.is_empty());
        // Scaling the traffic scales the marginal CPU.
        let calm = scenario.analytic_demand(1.0, 8, 600);
        assert!(demand.peak_cpu(&all) > calm.peak_cpu(&all));
    }

    /// The demand must be peak-correct for narrow workload features: a
    /// flash crowd thinner than the sampling grid still sets the peak.
    #[test]
    fn analytic_demand_catches_narrow_flash_crowds() {
        let quiet = synthesize(SynthOptions {
            components: 30,
            apis: 3,
            seed: 6,
            ..SynthOptions::default()
        })
        .unwrap();
        let crowd = SynthScenario {
            workload: WorkloadOptions {
                shape: crate::workload::WorkloadShape::FlashCrowd {
                    day: 0,
                    at: 0.6,
                    width: 0.002, // far narrower than any 16-point grid step
                    magnitude: 5.0,
                },
                ..quiet.workload.clone()
            },
            ..quiet.clone()
        };
        let all: Vec<usize> = (0..30).collect();
        let p_quiet = quiet.analytic_demand(1.0, 8, 600).peak_cpu(&all);
        let p_crowd = crowd.analytic_demand(1.0, 8, 600).peak_cpu(&all);
        let base = quiet.topology.total_base_cpu();
        // The marginal (rate-driven) part of the peak must grow by nearly
        // the spike magnitude — the spike centre is sampled exactly (the
        // diurnal peak itself caps the quiet marginal at intensity ~1.0,
        // the crowd at ~5 × intensity(0.6) ≈ 3).
        assert!(
            p_crowd - base > 2.5 * (p_quiet - base),
            "flash crowd must dominate the peak: {p_crowd} vs {p_quiet} (base {base})"
        );
        // And the shared burst-limit helper reflects it.
        assert!(crowd.burst_cpu_limit(1.0, 0.6) > quiet.burst_cpu_limit(1.0, 0.6));
    }

    #[test]
    fn invalid_options_are_rejected() {
        let ok = SynthOptions::default();
        assert!(synthesize(ok).is_ok());
        let cases = [
            (
                SynthOptions {
                    components: 9,
                    ..ok
                },
                SynthError::ComponentCount(9),
            ),
            (
                SynthOptions {
                    site_count: 1,
                    ..ok
                },
                SynthError::SiteCount(1),
            ),
            (
                SynthOptions {
                    site_count: 17,
                    ..ok
                },
                SynthError::SiteCount(17),
            ),
            (
                SynthOptions {
                    components: 501,
                    ..ok
                },
                SynthError::ComponentCount(501),
            ),
            (
                SynthOptions {
                    stateful_fraction: 0.9,
                    ..ok
                },
                SynthError::StatefulFraction(0.9),
            ),
            (SynthOptions { apis: 0, ..ok }, SynthError::ApiCount(0)),
            (SynthOptions { apis: 40, ..ok }, SynthError::ApiCount(40)),
            (
                SynthOptions {
                    call_depth: 1,
                    ..ok
                },
                SynthError::CallDepth(1),
            ),
            (
                SynthOptions {
                    data_scale: 0.0,
                    ..ok
                },
                SynthError::DataScale(0.0),
            ),
            (
                SynthOptions {
                    volume_scale: 0.0,
                    ..ok
                },
                SynthError::VolumeScale(0.0),
            ),
        ];
        for (options, expected) in cases {
            assert_eq!(synthesize(options).unwrap_err(), expected);
        }
        // Errors display something useful.
        assert!(SynthError::ComponentCount(9).to_string().contains("10"));
    }

    #[test]
    fn two_site_scenarios_carry_the_default_catalog() {
        let scenario = synthesize(SynthOptions::default()).unwrap();
        assert_eq!(scenario.catalog, atlas_sim::SiteCatalog::default());
        assert_eq!(scenario.catalog.len(), 2);
    }

    #[test]
    fn multi_site_catalogs_follow_the_geographic_model() {
        use atlas_sim::SiteId;
        let scenario = synthesize(SynthOptions {
            site_count: 5,
            seed: 12,
            ..SynthOptions::default()
        })
        .unwrap();
        let catalog = &scenario.catalog;
        assert_eq!(catalog.len(), 5);
        assert!(!catalog.site(SiteId(0)).is_elastic());
        for k in 1..5u16 {
            assert!(catalog.site(SiteId(k)).is_elastic());
            let pricing = catalog.site(SiteId(k)).pricing.as_ref().unwrap();
            assert!(pricing.compute_per_node_hour > 0.0);
        }
        let network = catalog.network();
        let intra = network.link(SiteId(0), SiteId(0));
        for a in 0..5u16 {
            for b in 0..5u16 {
                let link = network.link(SiteId(a), SiteId(b));
                if a == b {
                    assert_eq!(link, intra, "same-site links use the intra spec");
                } else {
                    // Distance-driven latencies: at least 300 km apart at
                    // ~100 km/ms → ≥ ~3 ms one way, well above the intra
                    // floor; bandwidths stay in the drawn range.
                    assert!(link.latency_ms > 1.0, "{a}->{b}: {}", link.latency_ms);
                    assert!((500.0..950.0).contains(&link.bandwidth_mbps));
                }
            }
        }
        // Pricing differs across regions (regional multipliers).
        let p1 = &catalog.site(SiteId(1)).pricing;
        let p2 = &catalog.site(SiteId(2)).pricing;
        assert_ne!(p1, p2);
    }

    #[test]
    fn site_count_does_not_perturb_the_generated_application() {
        let two = synthesize(SynthOptions {
            seed: 31,
            ..SynthOptions::default()
        })
        .unwrap();
        let five = synthesize(SynthOptions {
            site_count: 5,
            seed: 31,
            ..SynthOptions::default()
        })
        .unwrap();
        // The catalog has its own random stream: the application and its
        // workload are bit-identical at any site count.
        assert_eq!(two.topology, five.topology);
        assert_eq!(two.workload, five.workload);
        assert_ne!(two.catalog, five.catalog);
        // And catalog generation itself is deterministic per seed.
        let again = synthesize(SynthOptions {
            site_count: 5,
            seed: 31,
            ..SynthOptions::default()
        })
        .unwrap();
        assert_eq!(five.catalog, again.catalog);
    }

    #[test]
    fn scale_extremes_generate_cleanly() {
        for components in [10, 500] {
            let scenario = synthesize(SynthOptions {
                components,
                apis: (components / 10).max(1).min(components / 3),
                ..SynthOptions::default()
            })
            .unwrap();
            assert_eq!(scenario.topology.component_count(), components);
        }
    }
}
