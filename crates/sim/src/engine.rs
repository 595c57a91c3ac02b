//! The simulation engine: executes API requests against a placement and
//! emits telemetry.
//!
//! For every scheduled request the engine walks the API's call tree,
//! sampling compute times and payload sizes, adding network transfer time on
//! every caller→callee hop according to the placement and the
//! [`NetworkModel`](crate::cluster::NetworkModel), and applying the
//! [`OverloadModel`] inflation to
//! components running on the saturated on-prem cluster. The walk produces a
//! Jaeger-style trace, Istio-style pairwise byte counters and cAdvisor-style
//! resource metrics — exactly the telemetry Atlas consumes.
//!
//! # Example
//!
//! Simulate a two-component application serving one API and inspect both the
//! report and the emitted telemetry:
//!
//! ```
//! use atlas_sim::{
//!     ApiSpec, AppTopology, CallEdge, CallNode, ComponentId, ComponentSpec, OverloadModel,
//!     Placement, RequestSchedule, SimConfig, SizeDist, Simulator, TimeDist,
//! };
//! use atlas_telemetry::TelemetryStore;
//!
//! // Frontend forwards /loginAPI to UserService (300 µs of compute) behind
//! // a 1 KiB request and a 256 B response.
//! let components = vec![
//!     ComponentSpec::stateless("Frontend", 0.2, 0.5),
//!     ComponentSpec::stateless("UserService", 0.1, 0.5),
//! ];
//! let callee = CallNode::leaf(ComponentId(1), "login", TimeDist::constant(300.0));
//! let root = CallNode::leaf(ComponentId(0), "/loginAPI", TimeDist::constant(100.0))
//!     .with_stage(vec![CallEdge::sync(
//!         callee,
//!         SizeDist::constant(1024.0),
//!         SizeDist::constant(256.0),
//!     )]);
//! let app = AppTopology::new("tiny", components, vec![ApiSpec::new("/loginAPI", root)])?;
//!
//! // Ten requests, one per second, everything on-prem.
//! let mut schedule = RequestSchedule::new();
//! for s in 0u64..10 {
//!     schedule.push(s * 1_000_000, "/loginAPI");
//! }
//! let store = TelemetryStore::new();
//! let report = Simulator::new(
//!     app,
//!     Placement::all_onprem(2),
//!     SimConfig {
//!         overload: OverloadModel::disabled(),
//!         ..SimConfig::default()
//!     },
//! )
//! .run(&schedule, &store);
//!
//! assert_eq!(report.success_count(), 10);
//! assert_eq!(store.trace_count(), 10);
//! assert!(report.api_mean_latency_ms("/loginAPI").unwrap() > 0.0);
//! # Ok::<(), atlas_sim::topology::TopologyError>(())
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use atlas_telemetry::{
    Direction, IdGenerator, MetricKind, Micros, Span, SpanId, TelemetryStore, Trace,
};

use crate::calltree::{CallMode, CallNode};
use crate::cluster::{ClusterSpec, SiteId, SiteNetwork};
use crate::component::ComponentId;
use crate::overload::OverloadModel;
use crate::placement::Placement;
use crate::schedule::RequestSchedule;
use crate::topology::AppTopology;

/// Configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The hybrid cluster (capacity + network model).
    pub cluster: ClusterSpec,
    /// Overload behaviour of the on-prem side.
    pub overload: OverloadModel,
    /// Window length (seconds) used when recording metrics and computing
    /// utilization. The paper's telemetry stack scrapes at a few seconds;
    /// 5 s matches the footprint-learning window of Eq. (1).
    pub metric_window_s: u64,
    /// Seed for all stochastic choices, making runs reproducible.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            cluster: ClusterSpec::default(),
            overload: OverloadModel::default(),
            metric_window_s: 5,
            seed: 42,
        }
    }
}

/// Outcome of a single simulated API request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// The API endpoint invoked.
    pub api: String,
    /// Arrival time in microseconds.
    pub at_us: Micros,
    /// End-to-end latency in milliseconds (None if the request failed).
    pub latency_ms: Option<f64>,
}

impl RequestOutcome {
    /// Whether the request failed due to overload.
    pub fn failed(&self) -> bool {
        self.latency_ms.is_none()
    }
}

/// Per-API latency summary, built once when the report is constructed so
/// that repeated latency queries don't rescan the outcome list.
#[derive(Debug, Clone, Default)]
struct ApiLatencySummary {
    /// Number of successful requests (zero if every request failed).
    count: usize,
    /// Sum of the successful latencies.
    sum_ms: f64,
}

/// Summary of a simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// One outcome per scheduled request, in arrival order. Treat as
    /// read-only: the per-API latency index serving the query methods is
    /// built once at construction.
    pub outcomes: Vec<RequestOutcome>,
    /// On-prem CPU utilization per metric window.
    pub onprem_utilization: Vec<f64>,
    /// Cloud CPU demand (cores) per metric window.
    pub cloud_demand_cores: Vec<f64>,
    /// Per-API latency index (one entry per API seen, even if all of its
    /// requests failed).
    api_index: HashMap<String, ApiLatencySummary>,
}

impl SimReport {
    /// Assemble a report, building the per-API latency index that
    /// [`Self::api_mean_latency_ms`] and [`Self::apis`] answer from.
    pub fn new(
        outcomes: Vec<RequestOutcome>,
        onprem_utilization: Vec<f64>,
        cloud_demand_cores: Vec<f64>,
    ) -> Self {
        let mut api_index: HashMap<String, ApiLatencySummary> = HashMap::new();
        for outcome in &outcomes {
            let entry = api_index.entry(outcome.api.clone()).or_default();
            if let Some(latency) = outcome.latency_ms {
                entry.count += 1;
                entry.sum_ms += latency;
            }
        }
        Self {
            outcomes,
            onprem_utilization,
            cloud_demand_cores,
            api_index,
        }
    }

    /// Number of failed requests.
    pub fn failed_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.failed()).count()
    }

    /// Number of successful requests.
    pub fn success_count(&self) -> usize {
        self.outcomes.len() - self.failed_count()
    }

    /// Mean end-to-end latency of an API in milliseconds (successful
    /// requests only); `None` if the API saw no successful request.
    pub fn api_mean_latency_ms(&self, api: &str) -> Option<f64> {
        let summary = self.api_index.get(api)?;
        if summary.count == 0 {
            None
        } else {
            Some(summary.sum_ms / summary.count as f64)
        }
    }

    /// All distinct APIs that appear in the outcomes.
    pub fn apis(&self) -> Vec<String> {
        let mut v: Vec<String> = self.api_index.keys().cloned().collect();
        v.sort();
        v
    }

    /// Peak on-prem utilization across windows.
    pub fn peak_onprem_utilization(&self) -> f64 {
        self.onprem_utilization.iter().copied().fold(0.0, f64::max)
    }
}

/// Expected CPU microseconds each component spends per request of each API
/// (mean of the call-tree compute times). Used for the open-loop utilization
/// estimate that drives the overload model.
fn expected_compute_per_api(topology: &AppTopology) -> HashMap<String, Vec<f64>> {
    let mut out = HashMap::new();
    for api in topology.apis() {
        let mut per_component = vec![0.0f64; topology.component_count()];
        accumulate_compute(&api.root, &mut per_component);
        out.insert(api.endpoint.clone(), per_component);
    }
    out
}

fn accumulate_compute(node: &CallNode, acc: &mut [f64]) {
    acc[node.component.0] += node.compute.mean_us;
    for stage in &node.stages {
        for edge in stage {
            accumulate_compute(&edge.child, acc);
        }
    }
    for edge in &node.background {
        accumulate_compute(&edge.child, acc);
    }
}

/// The simulator: owns the application model, the placement under test and
/// the run configuration.
#[derive(Debug, Clone)]
pub struct Simulator {
    topology: AppTopology,
    placement: Placement,
    config: SimConfig,
    /// Per-ordered-pair link model; defaults to the two-site matrix of the
    /// cluster's [`NetworkModel`](crate::cluster::NetworkModel).
    sites: SiteNetwork,
    /// Component names by id, built once: every span of a component shares
    /// its one allocation.
    component_names: Vec<Arc<str>>,
}

impl Simulator {
    /// Create a simulator for a topology under a placement.
    ///
    /// # Panics
    ///
    /// Panics if the placement does not cover exactly the topology's
    /// components.
    pub fn new(topology: AppTopology, placement: Placement, config: SimConfig) -> Self {
        assert_eq!(
            placement.len(),
            topology.component_count(),
            "placement must cover every component"
        );
        let sites = SiteNetwork::two_site(config.cluster.network);
        let component_names = topology
            .components()
            .iter()
            .map(|c| Arc::from(c.name.as_str()))
            .collect();
        Self {
            topology,
            placement,
            config,
            sites,
            component_names,
        }
    }

    /// Replace the link model with an N-site matrix (builder style), so
    /// multi-region placements pay each ordered pair's own latency and
    /// bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if the placement names a site outside the matrix.
    pub fn with_site_network(mut self, sites: SiteNetwork) -> Self {
        assert!(
            self.placement
                .sites()
                .iter()
                .all(|s| s.index() < sites.site_count()),
            "placement names a site outside the link matrix"
        );
        self.sites = sites;
        self
    }

    /// The application under simulation.
    pub fn topology(&self) -> &AppTopology {
        &self.topology
    }

    /// The placement under test.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Run a request schedule, ingesting telemetry into `store`, and return
    /// the per-request outcomes.
    pub fn run(&self, schedule: &RequestSchedule, store: &TelemetryStore) -> SimReport {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut ids = IdGenerator::new();
        let window_us = self.config.metric_window_s * 1_000_000;
        let window_count = schedule
            .duration_s()
            .div_ceil(self.config.metric_window_s)
            .max(1) as usize;

        // ------------------------------------------------------------------
        // Pass 1: open-loop utilization estimate per window per location.
        // ------------------------------------------------------------------
        let per_api_compute = expected_compute_per_api(&self.topology);
        let mut onprem_busy_us = vec![0.0f64; window_count];
        let mut cloud_busy_us = vec![0.0f64; window_count];
        for req in schedule.requests() {
            let Some(compute) = per_api_compute.get(&req.api) else {
                continue;
            };
            let w = (req.at_us / window_us) as usize;
            if w >= window_count {
                continue;
            }
            for (i, us) in compute.iter().enumerate() {
                if self.placement.site(ComponentId(i)).is_on_prem() {
                    onprem_busy_us[w] += us;
                } else {
                    cloud_busy_us[w] += us;
                }
            }
        }
        let onprem_base: f64 = self
            .topology
            .components()
            .iter()
            .enumerate()
            .filter(|(i, _)| self.placement.site(ComponentId(*i)).is_on_prem())
            .map(|(_, c)| c.base_cpu_cores)
            .sum();
        let capacity = self.config.cluster.onprem_cpu_cores.max(1e-9);
        let onprem_utilization: Vec<f64> = onprem_busy_us
            .iter()
            .map(|&busy| (onprem_base + busy / window_us as f64) / capacity)
            .collect();
        let cloud_demand_cores: Vec<f64> = cloud_busy_us
            .iter()
            .map(|&busy| busy / window_us as f64)
            .collect();

        // ------------------------------------------------------------------
        // Pass 2: execute requests with inflation + failures, emit telemetry.
        // ------------------------------------------------------------------
        let mut outcomes = Vec::with_capacity(schedule.len());
        let mut busy_us_per_component: Vec<Vec<f64>> =
            vec![vec![0.0; window_count]; self.topology.component_count()];
        let mut requests_per_component: Vec<Vec<u64>> =
            vec![vec![0; window_count]; self.topology.component_count()];
        // Traffic and per-component network I/O are accumulated locally and
        // flushed to the store in time order afterwards, because in-flight
        // requests can emit samples with interleaved timestamps.
        let mut traffic_acc: HashMap<(usize, usize), WindowedBytes> = HashMap::new();
        let mut netio_acc: HashMap<usize, WindowedBytes> = HashMap::new();

        for req in schedule.requests() {
            let Some(api) = self.topology.api(&req.api) else {
                outcomes.push(RequestOutcome {
                    api: req.api.clone(),
                    at_us: req.at_us,
                    latency_ms: None,
                });
                continue;
            };
            let w = ((req.at_us / window_us) as usize).min(window_count - 1);
            let utilization = onprem_utilization[w];
            let failure_p = self.config.overload.failure_probability(utilization);
            if failure_p > 0.0 && rng.gen::<f64>() < failure_p {
                outcomes.push(RequestOutcome {
                    api: req.api.clone(),
                    at_us: req.at_us,
                    latency_ms: None,
                });
                continue;
            }
            let inflation = self.config.overload.inflation(utilization);

            let trace_id = ids.next_trace_id();
            let mut ctx = ExecContext {
                sim: self,
                rng: &mut rng,
                ids: &mut ids,
                spans: Vec::new(),
                busy: &mut busy_us_per_component,
                requests: &mut requests_per_component,
                traffic: &mut traffic_acc,
                netio: &mut netio_acc,
                window_us,
                window_count,
                inflation_onprem: inflation,
                trace_id,
            };
            let root_end = ctx.exec_node(&api.root, None, req.at_us);
            let spans = ctx.spans;
            let latency_us = root_end.saturating_sub(req.at_us);
            let trace = Trace::from_spans(spans).expect("engine emits well-formed traces");
            store.ingest_trace(trace);
            outcomes.push(RequestOutcome {
                api: req.api.clone(),
                at_us: req.at_us,
                latency_ms: Some(latency_us as f64 / 1_000.0),
            });
        }

        // ------------------------------------------------------------------
        // Pass 3: flush the accumulated traffic and network I/O in time
        // order, then the per-window component metrics.
        // ------------------------------------------------------------------
        let mut traffic_edges: Vec<_> = traffic_acc.into_iter().collect();
        traffic_edges.sort_by_key(|((a, b), _)| (*a, *b));
        for ((from, to), samples) in traffic_edges {
            let from_name = self.topology.component_name(ComponentId(from));
            let to_name = self.topology.component_name(ComponentId(to));
            for (t_s, (req, resp)) in samples {
                store.record_traffic(from_name, to_name, Direction::Request, t_s, req);
                store.record_traffic(from_name, to_name, Direction::Response, t_s, resp);
            }
        }
        let mut netio: Vec<_> = netio_acc.into_iter().collect();
        netio.sort_by_key(|(c, _)| *c);
        for (c, samples) in netio {
            let name = self.topology.component_name(ComponentId(c));
            for (t_s, (ingress, egress)) in samples {
                store.record_metric(name, MetricKind::IngressBytes, t_s, ingress);
                store.record_metric(name, MetricKind::EgressBytes, t_s, egress);
            }
        }
        for (i, comp) in self.topology.components().iter().enumerate() {
            for w in 0..window_count {
                let t_s = w as u64 * self.config.metric_window_s;
                let cpu = comp.base_cpu_cores + busy_us_per_component[i][w] / window_us as f64;
                let mem = comp.base_memory_gb
                    + comp.memory_per_request_gb * requests_per_component[i][w] as f64;
                store.record_metric(&comp.name, MetricKind::CpuCores, t_s, cpu);
                store.record_metric(&comp.name, MetricKind::MemoryGb, t_s, mem);
                if comp.stateful {
                    store.record_metric(&comp.name, MetricKind::StorageGb, t_s, comp.storage_gb);
                }
            }
        }

        SimReport::new(outcomes, onprem_utilization, cloud_demand_cores)
    }

    /// Execute a single request at time zero with no overload, returning its
    /// trace. Useful in tests and for generating reference traces.
    pub fn execute_single(&self, api: &str, seed: u64) -> Option<Trace> {
        let store = TelemetryStore::new();
        let mut schedule = RequestSchedule::new();
        schedule.push(0, api);
        let mut config = self.config.clone();
        config.overload = OverloadModel::disabled();
        config.seed = seed;
        let sim = Simulator::new(self.topology.clone(), self.placement.clone(), config);
        let report = sim.run(&schedule, &store);
        if report.outcomes.first()?.failed() {
            return None;
        }
        store.traces_for_api(api).into_iter().next()
    }
}

/// Per-window `(request, response)` byte counters, keyed by window index.
type WindowedBytes = std::collections::BTreeMap<u64, (f64, f64)>;

/// Mutable state threaded through the recursive call-tree walk of one
/// request.
struct ExecContext<'a> {
    sim: &'a Simulator,
    rng: &'a mut StdRng,
    ids: &'a mut IdGenerator,
    spans: Vec<Span>,
    busy: &'a mut Vec<Vec<f64>>,
    requests: &'a mut Vec<Vec<u64>>,
    traffic: &'a mut HashMap<(usize, usize), WindowedBytes>,
    netio: &'a mut HashMap<usize, WindowedBytes>,
    window_us: u64,
    window_count: usize,
    inflation_onprem: f64,
    trace_id: atlas_telemetry::TraceId,
}

impl ExecContext<'_> {
    fn window(&self, at_us: Micros) -> usize {
        ((at_us / self.window_us) as usize).min(self.window_count - 1)
    }

    fn site(&self, c: ComponentId) -> SiteId {
        self.sim.placement.site(c)
    }

    fn inflation_for(&self, c: ComponentId) -> f64 {
        if self.site(c).is_on_prem() {
            self.inflation_onprem
        } else {
            // Elastic-site autoscaling keeps utilization below the knee.
            1.0
        }
    }

    /// Execute a call-tree node starting at `start_us`; returns the time the
    /// node's foreground work completes (i.e. when its response is ready).
    fn exec_node(&mut self, node: &CallNode, parent: Option<SpanId>, start_us: Micros) -> Micros {
        let span_id = self.ids.next_span_id();
        let compute_us = node.compute.sample(self.rng) * self.inflation_for(node.component);
        let slices = (node.stages.len() + 1) as f64;
        let slice_us = compute_us / slices;

        // Book-keep resource usage for the metrics pass.
        let w = self.window(start_us);
        self.busy[node.component.0][w] += compute_us;
        self.requests[node.component.0][w] += 1;

        let mut t = start_us + slice_us.round() as Micros;
        let parent_site = self.site(node.component);

        for stage in &node.stages {
            let mut stage_end = t;
            for edge in stage {
                let child_site = self.site(edge.child.component);
                let req_bytes = edge.request.sample(self.rng);
                let resp_bytes = edge.response.sample(self.rng);
                self.record_traffic(
                    node.component,
                    edge.child.component,
                    req_bytes,
                    resp_bytes,
                    t,
                );
                let net = &self.sim.sites;
                let child_start =
                    t + net.transfer_us(parent_site, child_site, req_bytes).round() as Micros;
                let child_end = self.exec_node(&edge.child, Some(span_id), child_start);
                let response_arrives = child_end
                    + net.transfer_us(child_site, parent_site, resp_bytes).round() as Micros;
                stage_end = stage_end.max(response_arrives);
            }
            t = stage_end + slice_us.round() as Micros;
        }

        // Background dispatches: the parent pays only a small dispatch cost,
        // the child's execution proceeds concurrently.
        for edge in &node.background {
            let child_site = self.site(edge.child.component);
            let req_bytes = edge.request.sample(self.rng);
            let resp_bytes = edge.response.sample(self.rng);
            self.record_traffic(
                node.component,
                edge.child.component,
                req_bytes,
                resp_bytes,
                t,
            );
            let net = &self.sim.sites;
            let dispatch_us = (compute_us * 0.05).max(20.0).round() as Micros;
            let child_start =
                t + net.transfer_us(parent_site, child_site, req_bytes).round() as Micros;
            let _ = self.exec_node(&edge.child, Some(span_id), child_start);
            debug_assert_eq!(edge.mode, CallMode::Background);
            let _ = resp_bytes;
            t += dispatch_us;
        }

        let duration = t.saturating_sub(start_us).max(1);
        self.spans.push(Span::new(
            self.trace_id,
            span_id,
            parent,
            Arc::clone(&self.sim.component_names[node.component.0]),
            Arc::clone(&node.operation),
            start_us,
            duration,
        ));
        t
    }

    fn record_traffic(
        &mut self,
        from: ComponentId,
        to: ComponentId,
        req_bytes: f64,
        resp_bytes: f64,
        at_us: Micros,
    ) {
        let t_s = at_us / 1_000_000;
        let e = self
            .traffic
            .entry((from.0, to.0))
            .or_default()
            .entry(t_s)
            .or_insert((0.0, 0.0));
        e.0 += req_bytes;
        e.1 += resp_bytes;
        // Ingress/egress component metrics mirror what cAdvisor would report:
        // the caller sends the request (egress) and receives the response
        // (ingress); the callee sees the reverse.
        let caller = self
            .netio
            .entry(from.0)
            .or_default()
            .entry(t_s)
            .or_insert((0.0, 0.0));
        caller.0 += resp_bytes;
        caller.1 += req_bytes;
        let callee = self
            .netio
            .entry(to.0)
            .or_default()
            .entry(t_s)
            .or_insert((0.0, 0.0));
        callee.0 += req_bytes;
        callee.1 += resp_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calltree::{CallEdge, SizeDist, TimeDist};
    use crate::component::ComponentSpec;
    use crate::topology::ApiSpec;

    /// Frontend -> {UrlShorten || Media} -> PostStorage -> (bg) HomeTimeline,
    /// mirroring paper Figure 6.
    fn figure6_app() -> AppTopology {
        let components = vec![
            ComponentSpec::stateless("FrontendNGINX", 0.2, 0.5),
            ComponentSpec::stateless("URLShortenService", 0.1, 0.25),
            ComponentSpec::stateless("MediaService", 0.1, 0.25),
            ComponentSpec::stateful("PostStorageService", 0.15, 1.0, 10.0),
            ComponentSpec::stateless("WriteHomeTimelineService", 0.1, 0.25),
        ];
        let url = CallNode::leaf(ComponentId(1), "shorten", TimeDist::constant(2_000.0));
        let media = CallNode::leaf(ComponentId(2), "filter", TimeDist::constant(3_000.0));
        let post = CallNode::leaf(ComponentId(3), "store", TimeDist::constant(2_500.0));
        let wht = CallNode::leaf(ComponentId(4), "fanout", TimeDist::constant(8_000.0));
        let root = CallNode::leaf(ComponentId(0), "/composeAPI", TimeDist::constant(1_500.0))
            .with_stage(vec![
                CallEdge::sync(url, SizeDist::constant(300.0), SizeDist::constant(60.0)),
                CallEdge::sync(
                    media,
                    SizeDist::constant(5_000.0),
                    SizeDist::constant(100.0),
                ),
            ])
            .with_stage(vec![CallEdge::sync(
                post,
                SizeDist::constant(1_200.0),
                SizeDist::constant(80.0),
            )])
            .with_background(CallEdge::background(
                wht,
                SizeDist::constant(900.0),
                SizeDist::constant(0.0),
            ));
        AppTopology::new(
            "figure6",
            components,
            vec![ApiSpec::new("/composeAPI", root)],
        )
        .unwrap()
    }

    fn quiet_config() -> SimConfig {
        SimConfig {
            cluster: ClusterSpec::small(64.0),
            overload: OverloadModel::disabled(),
            metric_window_s: 5,
            seed: 1,
        }
    }

    #[test]
    fn single_request_produces_wellformed_trace() {
        let app = figure6_app();
        let sim = Simulator::new(app.clone(), Placement::all_onprem(5), quiet_config());
        let trace = sim.execute_single("/composeAPI", 3).unwrap();
        assert_eq!(trace.len(), 5);
        assert_eq!(trace.api(), "/composeAPI");
        assert_eq!(&*trace.root().component, "FrontendNGINX");
        // Background fan-out must outlive the root.
        let wht_idx = trace
            .nodes
            .iter()
            .position(|n| &*n.span.component == "WriteHomeTimelineService")
            .unwrap();
        assert!(trace.is_background(wht_idx));
    }

    #[test]
    fn offloading_a_foreground_component_increases_latency() {
        let app = figure6_app();
        let onprem = Simulator::new(app.clone(), Placement::all_onprem(5), quiet_config());
        let base = onprem
            .execute_single("/composeAPI", 7)
            .unwrap()
            .end_to_end_latency_us();

        // Offload PostStorageService (sequential, foreground) → latency grows
        // by roughly one inter-DC round trip (~46 ms).
        let offload_post = Placement::all_onprem(5).with_cloud(ComponentId(3));
        let slower = Simulator::new(app.clone(), offload_post, quiet_config())
            .execute_single("/composeAPI", 7)
            .unwrap()
            .end_to_end_latency_us();
        assert!(
            slower as f64 > base as f64 + 40_000.0,
            "offloading a sequential dependency must add an inter-DC round trip: {base} -> {slower}"
        );
    }

    #[test]
    fn offloading_a_background_component_barely_affects_latency() {
        let app = figure6_app();
        let base = Simulator::new(app.clone(), Placement::all_onprem(5), quiet_config())
            .execute_single("/composeAPI", 11)
            .unwrap()
            .end_to_end_latency_us();
        let offload_bg = Placement::all_onprem(5).with_cloud(ComponentId(4));
        let after = Simulator::new(app, offload_bg, quiet_config())
            .execute_single("/composeAPI", 11)
            .unwrap()
            .end_to_end_latency_us();
        let diff_ms = (after as f64 - base as f64).abs() / 1_000.0;
        assert!(
            diff_ms < 5.0,
            "background offload should not add a foreground round trip (diff {diff_ms} ms)"
        );
    }

    #[test]
    fn run_schedule_emits_metrics_traffic_and_traces() {
        let app = figure6_app();
        let sim = Simulator::new(app, Placement::all_onprem(5), quiet_config());
        let mut schedule = RequestSchedule::new();
        for i in 0..50u64 {
            schedule.push(i * 200_000, "/composeAPI");
        }
        let store = TelemetryStore::new();
        let report = sim.run(&schedule, &store);
        assert_eq!(report.outcomes.len(), 50);
        assert_eq!(report.failed_count(), 0);
        assert_eq!(store.trace_count(), 50);
        assert!(store.metric_mean("FrontendNGINX", MetricKind::CpuCores) > 0.0);
        assert!(!store.traffic_edges().is_empty());
        assert!(report.api_mean_latency_ms("/composeAPI").unwrap() > 0.0);
        assert_eq!(report.apis(), vec!["/composeAPI"]);
    }

    #[test]
    fn spans_of_one_component_share_one_name_allocation() {
        let sim = Simulator::new(figure6_app(), Placement::all_onprem(5), quiet_config());
        let mut schedule = RequestSchedule::new();
        schedule.push(0, "/composeAPI");
        schedule.push(200_000, "/composeAPI");
        let store = TelemetryStore::new();
        sim.run(&schedule, &store);
        let traces = store.traces_for_api("/composeAPI");
        assert_eq!(traces.len(), 2);
        // The store keeps the first span's names, so each trace it hands back
        // names a component with the simulator's own allocation.
        let root = &sim.topology.api("/composeAPI").unwrap().root;
        for trace in &traces {
            for span in trace.spans() {
                let id = sim.topology.component_id(&span.component).unwrap();
                assert!(Arc::ptr_eq(&span.component, &sim.component_names[id.0]));
            }
            assert!(Arc::ptr_eq(&trace.root().operation, &root.operation));
        }
        assert!(Arc::ptr_eq(
            &traces[0].root().component,
            &traces[1].root().component
        ));
    }

    /// The index built at construction must answer exactly what a full
    /// rescan of the outcome list would, including all-failed APIs.
    #[test]
    fn latency_index_matches_a_full_outcome_rescan() {
        let outcomes = vec![
            RequestOutcome {
                api: "/a".to_string(),
                at_us: 0,
                latency_ms: Some(30.0),
            },
            RequestOutcome {
                api: "/b".to_string(),
                at_us: 10,
                latency_ms: Some(5.0),
            },
            RequestOutcome {
                api: "/a".to_string(),
                at_us: 20,
                latency_ms: Some(10.0),
            },
            RequestOutcome {
                api: "/a".to_string(),
                at_us: 30,
                latency_ms: None, // failed request: excluded from latencies
            },
            RequestOutcome {
                api: "/dead".to_string(),
                at_us: 40,
                latency_ms: None, // an API whose every request failed
            },
        ];
        let report = SimReport::new(outcomes, vec![0.5], vec![0.0]);
        assert_eq!(report.api_mean_latency_ms("/a"), Some(20.0));
        assert_eq!(report.api_mean_latency_ms("/b"), Some(5.0));
        assert_eq!(report.api_mean_latency_ms("/dead"), None);
        assert_eq!(report.api_mean_latency_ms("/missing"), None);
        // All-failed APIs still show up in the API listing.
        assert_eq!(report.apis(), vec!["/a", "/b", "/dead"]);
        assert_eq!(report.failed_count(), 2);
        assert_eq!(report.success_count(), 3);
    }

    #[test]
    fn overload_inflates_latency_and_causes_failures() {
        let app = figure6_app();
        // A tiny on-prem cluster that cannot absorb the offered load.
        let config = SimConfig {
            cluster: ClusterSpec::small(1.0),
            overload: OverloadModel::default(),
            metric_window_s: 5,
            seed: 5,
        };
        let sim = Simulator::new(app.clone(), Placement::all_onprem(5), config);
        let mut schedule = RequestSchedule::new();
        for i in 0..400u64 {
            schedule.push(i * 20_000, "/composeAPI");
        }
        let store = TelemetryStore::new();
        let report = sim.run(&schedule, &store);
        assert!(report.peak_onprem_utilization() > 1.0);
        assert!(
            report.failed_count() > 0,
            "saturation should cause failures"
        );

        // The same workload on a large cluster is faster and fully succeeds.
        let relaxed = Simulator::new(app, Placement::all_onprem(5), quiet_config());
        let store2 = TelemetryStore::new();
        let relaxed_report = relaxed.run(&schedule, &store2);
        assert_eq!(relaxed_report.failed_count(), 0);
        assert!(
            relaxed_report.api_mean_latency_ms("/composeAPI").unwrap()
                < report.api_mean_latency_ms("/composeAPI").unwrap()
        );
    }

    #[test]
    fn unknown_api_requests_fail_gracefully() {
        let app = figure6_app();
        let sim = Simulator::new(app, Placement::all_onprem(5), quiet_config());
        let mut schedule = RequestSchedule::new();
        schedule.push(0, "/doesNotExist");
        let store = TelemetryStore::new();
        let report = sim.run(&schedule, &store);
        assert_eq!(report.failed_count(), 1);
        assert_eq!(store.trace_count(), 0);
    }

    #[test]
    #[should_panic(expected = "placement must cover every component")]
    fn mismatched_placement_panics() {
        let app = figure6_app();
        let _ = Simulator::new(app, Placement::all_onprem(3), quiet_config());
    }

    #[test]
    fn deterministic_given_same_seed() {
        let app = figure6_app();
        let sim = Simulator::new(app, Placement::all_onprem(5), quiet_config());
        let mut schedule = RequestSchedule::new();
        for i in 0..20u64 {
            schedule.push(i * 100_000, "/composeAPI");
        }
        let (s1, s2) = (TelemetryStore::new(), TelemetryStore::new());
        let r1 = sim.run(&schedule, &s1);
        let r2 = sim.run(&schedule, &s2);
        assert_eq!(r1.outcomes, r2.outcomes);
        assert_eq!(
            s1.api_latencies_ms("/composeAPI"),
            s2.api_latencies_ms("/composeAPI")
        );
    }
}
