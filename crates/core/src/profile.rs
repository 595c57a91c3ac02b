//! Application learning: API and component profiling from telemetry
//! (paper §3, "Application Learning" stage).
//!
//! Atlas never looks at application code or configuration beyond what the
//! telemetry exposes: it discovers the set of user-facing APIs from the
//! trace roots, the components each API touches (and which of those hold
//! state) from the trace trees, and each component's resource profile from
//! the cAdvisor-style metrics.

use std::collections::{HashMap, HashSet};

use atlas_telemetry::{MetricKind, TelemetryStore, Trace};

/// Profile of one user-facing API learned from traces.
#[derive(Debug, Clone)]
pub struct ApiProfile {
    /// Endpoint name (root operation of its traces).
    pub endpoint: String,
    /// Sample traces retained for delay injection (the paper keeps ~100 per
    /// API once the latency stabilises). With clustering these are weighted
    /// *representatives*: one trace per distinct call-tree structure.
    pub traces: Vec<Trace>,
    /// Weight of each retained trace (parallel to `traces`): the number of
    /// raw traces the representative stands for. An empty vector means every
    /// retained trace has weight 1.0 (unclustered learning).
    ///
    /// Invariant: all downstream per-API latency means are the weighted mean
    /// `Σ wᵢ·latᵢ / Σ wᵢ`. With unit weights this reproduces the unweighted
    /// mean bit for bit (`1.0 · x == x` and a sum of ones equals the exact
    /// integer length), so weighted and unweighted scoring agree exactly
    /// whenever every trace is structurally unique.
    pub trace_weights: Vec<f64>,
    /// Components used by the API (any span in any of its traces).
    pub components: HashSet<String>,
    /// Stateful components used by the API (`SC(A)` in Eq. 3).
    pub stateful_components: HashSet<String>,
    /// Mean observed end-to-end latency in milliseconds (over *all* observed
    /// traces, not only the retained representatives).
    pub mean_latency_ms: f64,
    /// Number of requests observed over the learning period.
    pub request_count: usize,
}

impl ApiProfile {
    /// Observed latency samples (ms) of the retained traces.
    pub fn latency_samples_ms(&self) -> Vec<f64> {
        self.traces
            .iter()
            .map(|t| atlas_telemetry::us_to_ms(t.end_to_end_latency_us()))
            .collect()
    }

    /// Weight of retained trace `i` (1.0 when no weights were recorded).
    pub fn trace_weight(&self, i: usize) -> f64 {
        self.trace_weights.get(i).copied().unwrap_or(1.0)
    }

    /// Total weight of the retained traces (the raw trace count they stand
    /// for). Summed in trace order so unit weights reproduce `len() as f64`
    /// exactly.
    pub fn weight_total(&self) -> f64 {
        if self.trace_weights.is_empty() {
            self.traces.len() as f64
        } else {
            self.trace_weights.iter().sum()
        }
    }
}

/// Resource profile of one component learned from metrics.
#[derive(Debug, Clone)]
pub struct ComponentProfile {
    /// Component name.
    pub name: String,
    /// Whether the component holds persistent state (provided by the
    /// operator's deployment manifest, not inferred from code).
    pub stateful: bool,
    /// Mean CPU cores over the learning period.
    pub mean_cpu_cores: f64,
    /// Peak CPU cores over the learning period.
    pub peak_cpu_cores: f64,
    /// Mean memory (GB).
    pub mean_memory_gb: f64,
    /// Mean storage (GB); zero for stateless components.
    pub mean_storage_gb: f64,
    /// Total bytes sent plus received over the learning period.
    pub total_network_bytes: f64,
}

/// The learned application profile: everything the recommendation stage
/// needs apart from the network footprints.
#[derive(Debug, Clone)]
pub struct ApplicationProfile {
    /// Per-API profiles keyed by endpoint.
    pub apis: HashMap<String, ApiProfile>,
    /// Per-component profiles keyed by name.
    pub components: HashMap<String, ComponentProfile>,
}

impl ApplicationProfile {
    /// Learn the application profile from the telemetry store, collapsing
    /// each API's traces into weighted structural representatives.
    ///
    /// `stateful_components` is deployment-level knowledge (which containers
    /// have persistent volumes); `traces_per_api` caps how many weighted
    /// *representatives* are retained per API for delay injection, so the
    /// retained set scales with distinct behaviours rather than traffic
    /// volume.
    pub fn learn(
        store: &TelemetryStore,
        stateful_components: &[String],
        traces_per_api: usize,
    ) -> Self {
        Self::learn_with(store, stateful_components, traces_per_api, true)
    }

    /// Learn without trace clustering: retain the `traces_per_api` most
    /// recent traces of each API with unit weights, reproducing the
    /// pre-clustering (full-trace) data path. Used as the comparison
    /// baseline for the clustered learner in tests and benchmarks.
    pub fn learn_unclustered(
        store: &TelemetryStore,
        stateful_components: &[String],
        traces_per_api: usize,
    ) -> Self {
        Self::learn_with(store, stateful_components, traces_per_api, false)
    }

    fn learn_with(
        store: &TelemetryStore,
        stateful_components: &[String],
        traces_per_api: usize,
        clustered: bool,
    ) -> Self {
        let stateful: HashSet<&str> = stateful_components.iter().map(String::as_str).collect();
        let mut apis = HashMap::new();
        for endpoint in store.apis() {
            apis.insert(
                endpoint.clone(),
                learn_api(store, &endpoint, traces_per_api, &stateful, clustered),
            );
        }
        Self {
            apis,
            components: learn_components(store, &stateful),
        }
    }

    /// Endpoints of all learned APIs, sorted.
    pub fn api_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.apis.keys().cloned().collect();
        v.sort();
        v
    }

    /// Names of all learned components, sorted.
    pub fn component_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.components.keys().cloned().collect();
        v.sort();
        v
    }
}

/// Learn one API profile: the per-endpoint pipeline of
/// [`ApplicationProfile::learn`], clustered or not.
fn learn_api(
    store: &TelemetryStore,
    endpoint: &str,
    traces_per_api: usize,
    stateful: &HashSet<&str>,
    clustered: bool,
) -> ApiProfile {
    // Request count and mean latency come straight from the arena's
    // root-latency column: no trace is materialised for them.
    let request_count = store.api_trace_count(endpoint);
    let mean_latency_ms = store.api_mean_latency_ms(endpoint);
    let (traces, trace_weights) = if clustered {
        let reps = store.weighted_traces_for_api(endpoint, traces_per_api);
        let weights: Vec<f64> = reps.iter().map(|r| r.weight).collect();
        (reps.into_iter().map(|r| r.trace).collect(), weights)
    } else {
        let traces = store.recent_traces_for_api(endpoint, traces_per_api);
        let weights = vec![1.0; traces.len()];
        (traces, weights)
    };
    let mut components = HashSet::new();
    let mut stateful_used = HashSet::new();
    for c in store.api_components(endpoint) {
        if stateful.contains(c.as_str()) {
            stateful_used.insert(c.clone());
        }
        components.insert(c);
    }
    ApiProfile {
        endpoint: endpoint.to_string(),
        traces,
        trace_weights,
        components,
        stateful_components: stateful_used,
        mean_latency_ms,
        request_count,
    }
}

/// Learn every component profile from the store's metric aggregates.
fn learn_components(
    store: &TelemetryStore,
    stateful: &HashSet<&str>,
) -> HashMap<String, ComponentProfile> {
    let mut components = HashMap::new();
    for name in store.components() {
        let metrics = store.component_metrics(&name);
        let (mean_cpu, peak_cpu, mean_mem, mean_sto, net) = match metrics {
            Some(m) => (
                m.mean(MetricKind::CpuCores),
                m.max(MetricKind::CpuCores),
                m.mean(MetricKind::MemoryGb),
                m.mean(MetricKind::StorageGb),
                m.series(MetricKind::IngressBytes)
                    .map(|s| s.points().iter().map(|p| p.value).sum::<f64>())
                    .unwrap_or(0.0)
                    + m.series(MetricKind::EgressBytes)
                        .map(|s| s.points().iter().map(|p| p.value).sum::<f64>())
                        .unwrap_or(0.0),
            ),
            None => (0.0, 0.0, 0.0, 0.0, 0.0),
        };
        components.insert(
            name.clone(),
            ComponentProfile {
                stateful: stateful.contains(name.as_str()),
                name,
                mean_cpu_cores: mean_cpu,
                peak_cpu_cores: peak_cpu,
                mean_memory_gb: mean_mem,
                mean_storage_gb: mean_sto,
                total_network_bytes: net,
            },
        );
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_apps::{social_network, SocialNetworkOptions, WorkloadGenerator, WorkloadOptions};
    use atlas_sim::{ClusterSpec, OverloadModel, Placement, SimConfig, Simulator};

    fn learned_profile() -> ApplicationProfile {
        let app = social_network(SocialNetworkOptions::default());
        let sim = Simulator::new(
            app.clone(),
            Placement::all_onprem(app.component_count()),
            SimConfig {
                cluster: ClusterSpec::default(),
                overload: OverloadModel::disabled(),
                metric_window_s: 5,
                seed: 2,
            },
        );
        let schedule =
            WorkloadGenerator::new(WorkloadOptions::social_network_default().with_seed(2))
                .generate(&app)
                .unwrap();
        let store = atlas_telemetry::TelemetryStore::new();
        sim.run(&schedule, &store);
        let stateful: Vec<String> = app
            .stateful_components()
            .into_iter()
            .map(|c| app.component_name(c).to_string())
            .collect();
        ApplicationProfile::learn(&store, &stateful, 50)
    }

    #[test]
    fn learns_every_api_and_component() {
        let profile = learned_profile();
        assert_eq!(profile.apis.len(), 9);
        assert_eq!(profile.components.len(), 29);
        for api in profile.apis.values() {
            assert!(api.request_count > 0);
            assert!(api.mean_latency_ms > 0.0);
            assert!(!api.traces.is_empty());
            assert!(api.traces.len() <= 50);
            assert!(!api.components.is_empty());
        }
    }

    #[test]
    fn stateful_usage_matches_the_application() {
        let profile = learned_profile();
        let compose_stateful = &profile.apis["/composeAPI"].stateful_components;
        assert!(compose_stateful.contains("PostStorageMongoDB"));
        assert!(compose_stateful.contains("UserMongoDB"));
        let follow_stateful = &profile.apis["/followAPI"].stateful_components;
        assert!(follow_stateful.contains("SocialGraphMongoDB"));
        assert!(!follow_stateful.contains("MediaMongoDB"));
        assert!(!profile.apis.contains_key("/unknown"));
    }

    #[test]
    fn component_profiles_capture_resource_usage() {
        let profile = learned_profile();
        let frontend = &profile.components["FrontendNGINX"];
        assert!(frontend.mean_cpu_cores > 0.0);
        assert!(frontend.peak_cpu_cores >= frontend.mean_cpu_cores);
        assert!(!frontend.stateful);
        let mongo = &profile.components["UserMongoDB"];
        assert!(mongo.stateful);
        assert!(mongo.mean_storage_gb > 0.0);
        assert!(frontend.total_network_bytes > 0.0);
    }

    #[test]
    fn latency_samples_match_trace_count() {
        let profile = learned_profile();
        let api = &profile.apis["/loginAPI"];
        assert_eq!(api.latency_samples_ms().len(), api.traces.len());
        assert!(api.latency_samples_ms().iter().all(|&l| l > 0.0));
    }

    #[test]
    fn clustered_weights_cover_the_observed_requests() {
        let profile = learned_profile();
        for api in profile.apis.values() {
            assert_eq!(api.trace_weights.len(), api.traces.len());
            assert!(api.trace_weights.iter().all(|&w| w >= 1.0));
            let total = api.weight_total();
            assert!(
                total <= api.request_count as f64,
                "{}: weights {} exceed requests {}",
                api.endpoint,
                total,
                api.request_count
            );
            // The representative cap binds on structures, not volume: when
            // every structure fits, the weights account for every request.
            if api.traces.len() < 50 {
                assert_eq!(total, api.request_count as f64);
            }
        }
    }
}
