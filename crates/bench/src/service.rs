//! Resident-advisor service bench: replay a generated scenario's day as a
//! stream with a drift corpus spliced mid-way.
//!
//! Day 1 of a [`synthesize`]d scenario streams into an
//! [`AdvisorService`] in batches; the service bootstraps (cold learn +
//! first recommendation + armed drift detectors), then day 2 — the
//! deterministic [`synthesize_drift_phase`] corpus: same component/API
//! names, 2× data footprint, 1.5× volume, rotated mix — streams in behind
//! it. The bench measures:
//!
//! * **ingest throughput** — traces/second through the service's streaming
//!   ingest path (arena append + index upkeep + retention eviction);
//! * **drift-to-new-recommendation latency** — wall time from the first
//!   drift confirmation to the re-recommendation it triggers (incremental
//!   relearn + per-API recompile + GA search);
//! * **incremental vs cold relearn** — a controlled single-API episode:
//!   one API's telemetry changes, [`QualityModel::relearn_dirty`] relearns
//!   just that API while a cold rebuild relearns everything; both models
//!   must score bit-identically (asserted here and pinned by property
//!   test), and the speedup is the point of the per-API path.
//!
//! A second sweep exercises the multi-tenant serving layer: N independent
//! tenants behind one [`AdvisorHub`], a round-robin request pattern served
//! first as a serial loop (the ground truth) and then concurrently at
//! 1/2/8 per-request evaluator threads, measuring requests/second, p50/p99
//! request latency, speedup over the serial loop and scaling efficiency —
//! while asserting every concurrent answer is bit-identical to the serial
//! one (the hub's epoch-snapshot contract). A request at a published epoch
//! searches with the agent the tenant's service trained once for that
//! epoch, so it costs about a millisecond; the pattern is therefore sized
//! from a timed warm round until one `serve` call runs long enough to
//! measure, and every figure is the median of [`SERVING_RUNS`] calls.
//!
//! The `service` bench target runs both and emits `BENCH_service.json` at
//! the workspace root next to `BENCH_scale.json` for CI tracking.

use std::time::Instant;

use atlas_apps::{synthesize, synthesize_drift_phase, SynthScenario, WorkloadGenerator};
use atlas_core::eval::effective_threads;
use atlas_core::{
    AdvisorHub, AdvisorService, AdvisorServiceConfig, ApplicationProfile, Atlas, AtlasConfig,
    MigrationPlan, MigrationPreferences, QualityModel, RecommenderConfig, ServiceEvent, TenantId,
};
use atlas_sim::{ClusterSpec, OverloadModel, Placement, SimConfig, Simulator};
use atlas_telemetry::{Direction, MetricKind, TelemetryStore, Trace, TraceId};

use crate::scale::options_for;

/// Representative cap per API (matches the scale harness).
const TRACES_PER_API: usize = 40;

/// One measured service-bench point.
#[derive(Debug, Clone, PartialEq)]
pub struct ServicePoint {
    /// Number of components of the generated application.
    pub components: usize,
    /// Number of placement sites.
    pub sites: usize,
    /// Number of user-facing APIs.
    pub apis: usize,
    /// Traces streamed on day 1 (the learning day).
    pub day1_traces: usize,
    /// Traces streamed on day 2 (the drift corpus).
    pub day2_traces: usize,
    /// Traces/second through the service's streaming ingest path
    /// (measured over the day-1 stream, before any model exists).
    pub ingest_traces_per_sec: f64,
    /// Traces evicted by the retention window across the whole replay.
    pub evicted_traces: usize,
    /// Distinct APIs that fired a drift event during day 2.
    pub drift_apis: usize,
    /// Wall milliseconds from the first drift confirmation to the new
    /// recommendation (incremental relearn + recompile + training + search).
    pub drift_to_recommendation_ms: f64,
    /// The part of `drift_to_recommendation_ms` spent training the
    /// crossover agent for the new model generation.
    pub train_ms: f64,
    /// Incremental relearn+recompile milliseconds of the controlled
    /// single-API episode.
    pub incremental_relearn_ms: f64,
    /// Cold full-rebuild milliseconds over the same retained telemetry.
    pub cold_relearn_ms: f64,
    /// `cold_relearn_ms / incremental_relearn_ms`.
    pub relearn_speedup: f64,
}

/// All traces of a store, in root-start order (the replay stream).
pub fn corpus_of(store: &TelemetryStore) -> Vec<Trace> {
    let mut traces: Vec<Trace> = store
        .apis()
        .into_iter()
        .flat_map(|api| store.traces_for_api(&api))
        .collect();
    traces.sort_by(|a, b| (a.root().start_us, a.trace_id).cmp(&(b.root().start_us, b.trace_id)));
    traces
}

/// Shift a corpus forward in time by `offset_us` and tag its trace ids (so
/// a day-2 corpus generated from its own epoch follows day 1 without id
/// collisions).
pub fn shift_corpus(traces: &mut [Trace], offset_us: u64, id_tag: u64) {
    for trace in traces.iter_mut() {
        trace.trace_id = TraceId(trace.trace_id.0 ^ id_tag);
        for node in &mut trace.nodes {
            node.span.trace_id = trace.trace_id;
            node.span.start_us += offset_us;
        }
    }
}

/// Copy the non-trace telemetry context (component metrics + pairwise
/// traffic) of one store into another, shifted by `offset_s`. The trace
/// stream goes through [`AdvisorService::feed`]; metrics and traffic ride
/// alongside it the way a scrape pipeline would.
pub fn copy_telemetry_context(from: &TelemetryStore, to: &TelemetryStore, offset_s: u64) {
    for component in from.components() {
        if let Some(metrics) = from.component_metrics(&component) {
            for kind in MetricKind::ALL {
                if let Some(series) = metrics.series(kind) {
                    for p in series.points() {
                        to.record_metric(&component, kind, p.timestamp_s + offset_s, p.value);
                    }
                }
            }
        }
    }
    let traffic = from.traffic();
    for edge in traffic.edges() {
        for direction in [Direction::Request, Direction::Response] {
            if let Some(samples) = traffic.samples(&edge, direction) {
                for s in samples {
                    to.record_traffic(
                        &edge.from,
                        &edge.to,
                        direction,
                        s.timestamp_s + offset_s,
                        s.bytes,
                    );
                }
            }
        }
    }
}

/// Simulate one compressed day of a scenario's workload against its
/// topology, into a fresh store.
fn simulate_day(scenario: &SynthScenario, day_seconds: u64, seed: u64) -> TelemetryStore {
    let mut workload = scenario.workload.clone();
    workload.profile.day_seconds = day_seconds;
    let store = TelemetryStore::new();
    let current = Placement::all_onprem(scenario.topology.component_count());
    let sim = Simulator::new(
        scenario.topology.clone(),
        current,
        SimConfig {
            cluster: ClusterSpec::default(),
            overload: OverloadModel::disabled(),
            metric_window_s: 5,
            seed,
        },
    );
    let schedule = WorkloadGenerator::new(workload)
        .generate(&scenario.topology)
        .expect("workload matches the topology");
    sim.run(&schedule, &store);
    store
}

/// Split a corpus into `chunks` contiguous batches.
fn batches(corpus: &[Trace], chunks: usize) -> Vec<Vec<Trace>> {
    let size = corpus.len().div_ceil(chunks.max(1)).max(1);
    corpus.chunks(size).map(<[Trace]>::to_vec).collect()
}

/// Compressed day length of the replay, in seconds.
const DAY_SECONDS: u64 = 60;

/// Retention window of the service under test: 1.5 compressed days, so the
/// day-2 stream progressively evicts day-1 traces.
const RETENTION_WINDOW_S: u64 = 90;

/// Run the service bench at one component count (two-site scenario).
pub fn run_service_point(components: usize) -> ServicePoint {
    let options = options_for(components);
    let base = synthesize(options).expect("service options are valid");
    let drift = synthesize_drift_phase(&options).expect("drift options are valid");

    let day1_store = simulate_day(&base, DAY_SECONDS, options.seed);
    let day2_store = simulate_day(&drift, DAY_SECONDS, options.seed ^ 0x5EED);
    let day1 = corpus_of(&day1_store);
    let mut day2 = corpus_of(&day2_store);
    // Day 2 follows day 1 on the same clock.
    shift_corpus(&mut day2, (DAY_SECONDS + 1) * 1_000_000, 1 << 60);

    let component_index = base.component_index();
    let stateful = base.stateful_names();
    let preferences = MigrationPreferences::with_cpu_limit(base.burst_cpu_limit(5.0, 0.6));
    let current = Placement::all_onprem(components);

    let mut atlas_config = AtlasConfig::new(component_index.clone(), stateful.clone());
    atlas_config.sites = Some(base.catalog.clone());
    atlas_config.traces_per_api = TRACES_PER_API;
    atlas_config.horizon_steps = 8;
    atlas_config.recommender = RecommenderConfig {
        population: 16,
        max_visited: 250,
        ..RecommenderConfig::fast()
    };

    let mut service_config = AdvisorServiceConfig::new(atlas_config.clone(), preferences.clone())
        .with_retention_window_s(RETENTION_WINDOW_S);
    service_config.min_detector_samples = 60;
    let mut service = AdvisorService::new(service_config, current.clone());

    // Day 1: stream in, then bootstrap. No model exists yet, so the timed
    // region is the pure streaming-ingest path (arena append + indexes +
    // retention checks).
    copy_telemetry_context(&day1_store, service.store(), 0);
    let day1_batches = batches(&day1, 8);
    let start = Instant::now();
    for batch in day1_batches {
        service.feed(batch);
    }
    let ingest_s = start.elapsed().as_secs_f64();
    let ingest_traces_per_sec = day1.len() as f64 / ingest_s.max(1e-9);
    service.bootstrap();

    // Day 2: the drift corpus streams in behind day 1; the service detects
    // the drift, relearns the dirty APIs and re-recommends.
    copy_telemetry_context(&day2_store, service.store(), DAY_SECONDS + 1);
    for batch in batches(&day2, 12) {
        service.feed(batch);
    }

    let mut drift_apis = std::collections::HashSet::new();
    let mut evicted_traces = 0usize;
    let mut drift_to_recommendation_ms = 0.0;
    let mut train_ms = 0.0;
    let mut saw_drift = false;
    for event in service.timeline() {
        match event {
            ServiceEvent::Ingested { evicted, .. } => evicted_traces += evicted,
            ServiceEvent::DriftFired { api, .. } => {
                saw_drift = true;
                drift_apis.insert(api.clone());
            }
            ServiceEvent::Rerecommended {
                latency_ms,
                train_ms: trained_in_ms,
                ..
            } => {
                if saw_drift && drift_to_recommendation_ms == 0.0 {
                    drift_to_recommendation_ms = *latency_ms;
                    train_ms = *trained_in_ms;
                }
            }
            ServiceEvent::Relearned { .. } => {}
        }
    }
    assert!(
        saw_drift,
        "the drift corpus must trip at least one detector"
    );
    assert!(
        evicted_traces > 0,
        "the retention window must evict day-1 traces during day 2"
    );

    let (incremental_relearn_ms, cold_relearn_ms) = single_api_episode(
        &day1,
        &day1_store,
        &day2,
        &base,
        &atlas_config,
        &preferences,
        &current,
    );

    ServicePoint {
        components,
        sites: base.catalog.len(),
        apis: options.apis,
        day1_traces: day1.len(),
        day2_traces: day2.len(),
        ingest_traces_per_sec,
        evicted_traces,
        drift_apis: drift_apis.len(),
        drift_to_recommendation_ms,
        train_ms,
        incremental_relearn_ms,
        cold_relearn_ms,
        relearn_speedup: cold_relearn_ms / incremental_relearn_ms.max(1e-9),
    }
}

/// The controlled incremental-vs-cold episode: after a full day-1 learn,
/// exactly one API's telemetry changes (its day-2 traces arrive);
/// [`QualityModel::relearn_dirty`] relearns that one API in place while the
/// cold path rebuilds profile and kernel from scratch. Returns
/// `(incremental_ms, cold_ms)` after asserting both models score
/// bit-identically.
fn single_api_episode(
    day1: &[Trace],
    day1_store: &TelemetryStore,
    day2: &[Trace],
    base: &SynthScenario,
    atlas_config: &AtlasConfig,
    preferences: &MigrationPreferences,
    current: &Placement,
) -> (f64, f64) {
    let store = TelemetryStore::new();
    copy_telemetry_context(day1_store, &store, 0);
    store.ingest_batch(day1.to_vec());

    let mut atlas = Atlas::new(atlas_config.clone());
    atlas.learn(&store);
    let mut model = atlas.quality_model(current.clone(), preferences.clone());
    let synced = store.epoch();

    // The busiest API drifts: its day-2 traces arrive, nothing else's do.
    let api = store
        .apis()
        .into_iter()
        .max_by_key(|api| store.api_trace_count(api))
        .expect("day 1 observed at least one API");
    let single: Vec<Trace> = day2
        .iter()
        .filter(|t| t.root().operation == api)
        .cloned()
        .collect();
    assert!(!single.is_empty(), "the drift corpus exercises every API");
    store.ingest_batch(single);
    let (_, dirty) = store.dirty_apis_since(synced);
    assert_eq!(dirty, vec![api.clone()], "exactly one API is dirty");

    let stateful = base.stateful_names();
    let start = Instant::now();
    model.relearn_dirty(&store, &stateful, TRACES_PER_API, &dirty);
    let incremental_ms = start.elapsed().as_secs_f64() * 1_000.0;

    let start = Instant::now();
    let cold_profile = ApplicationProfile::learn(&store, &stateful, TRACES_PER_API);
    let cold = QualityModel::for_catalog(
        cold_profile,
        atlas.footprint().clone(),
        &base.catalog,
        atlas.demand().clone(),
        preferences.clone(),
        current.clone(),
        base.component_index(),
    );
    let cold_ms = start.elapsed().as_secs_f64() * 1_000.0;

    // Differential sanity (the property tests pin this exhaustively).
    let n = current.len();
    let sites = base.catalog.len();
    for shift in 0..3usize {
        let plan = MigrationPlan::from_sites(
            (0..n)
                .map(|i| atlas_sim::SiteId(((i + shift) % sites) as u16))
                .collect(),
        );
        assert_eq!(
            model.evaluate(&plan),
            cold.evaluate(&plan),
            "incremental relearn must score bit-identically to a cold rebuild"
        );
    }

    (incremental_ms, cold_ms)
}

/// One measured concurrent-serving point of the tenants × request-threads
/// grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingPoint {
    /// Number of components of each tenant's application.
    pub components: usize,
    /// Number of tenants behind the hub.
    pub tenants: usize,
    /// Requests in the round-robin pattern (per measured `serve` call).
    pub requests: usize,
    /// Per-request evaluator threads (the grid's second dimension).
    pub request_threads: usize,
    /// Hub worker threads actually used by the concurrent run.
    pub workers: usize,
    /// Requests/second of the serial loop (one request at a time, one
    /// evaluator thread) over the same pattern: median of
    /// [`SERVING_RUNS`] calls.
    pub serial_requests_per_sec: f64,
    /// Requests/second of the hub's concurrent worker pool: median of
    /// [`SERVING_RUNS`] calls.
    pub concurrent_requests_per_sec: f64,
    /// `concurrent_requests_per_sec / serial_requests_per_sec`.
    pub speedup_vs_serial: f64,
    /// `speedup_vs_serial / workers` — 1.0 is perfect scaling.
    pub scaling_efficiency: f64,
    /// Median per-request latency over the concurrent runs, milliseconds.
    pub p50_latency_ms: f64,
    /// 99th-percentile per-request latency over the concurrent runs.
    pub p99_latency_ms: f64,
    /// Milliseconds a tenant's service spent training the crossover agent
    /// its epoch's requests share (median over tenants): paid once per
    /// published epoch, by none of the requests measured here.
    pub train_ms: f64,
    /// Mean per-request unique evaluations (the request-local
    /// `RecommendationReport::eval` view).
    pub request_unique_evals: f64,
    /// Mean per-request memo-cache hits (request-local view).
    pub request_cache_hits: f64,
    /// Unique evaluations accumulated by the epoch's shared cache over its
    /// lifetime (the `eval_lifetime` view), maximised over tenants.
    pub lifetime_unique_evals: usize,
    /// Lifetime memo-cache hits of the busiest tenant's epoch cache.
    pub lifetime_cache_hits: usize,
    /// Whether every concurrent answer (plans and visited count) was
    /// bit-identical to the serial ground truth.
    pub deterministic: bool,
}

/// `p`-th percentile of an already-sorted latency slice (nearest-rank).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Fewest requests per tenant in the serving pattern.
const SERVING_ROUNDS: usize = 6;

/// Measured `serve` calls per figure: each requests/second is the median
/// of this many back-to-back calls over the same pattern.
pub const SERVING_RUNS: usize = 5;

/// Shortest useful `serve` call. Scoped-thread start-up and scheduler
/// jitter are a fixed cost per call, so the pattern is grown (from a timed
/// warm round, never from a per-machine setting) until a perfectly scaling
/// worker pool would still need this long to drain it.
const MIN_SERVE_SECONDS: f64 = 0.5;

/// Median of a sample (nearest rank, like [`percentile`]).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(&values, 0.50)
}

/// Build a bootstrapped multi-tenant hub: `tenants` independent synthetic
/// applications (distinct seeds) at the given component count, each fed its
/// own simulated day and bootstrapped behind the hub.
fn serving_hub(components: usize, tenants: usize) -> (AdvisorHub, Vec<TenantId>) {
    let mut hub = AdvisorHub::new();
    let mut ids = Vec::with_capacity(tenants);
    for t in 0..tenants {
        let mut options = options_for(components);
        options.seed = options
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1));
        let scenario = synthesize(options).expect("serving options are valid");
        let store = simulate_day(&scenario, DAY_SECONDS, options.seed);
        let corpus = corpus_of(&store);

        let preferences = MigrationPreferences::with_cpu_limit(scenario.burst_cpu_limit(5.0, 0.6));
        let current = Placement::all_onprem(components);
        let mut atlas_config =
            AtlasConfig::new(scenario.component_index(), scenario.stateful_names());
        atlas_config.sites = Some(scenario.catalog.clone());
        atlas_config.traces_per_api = TRACES_PER_API;
        atlas_config.horizon_steps = 8;
        atlas_config.recommender = RecommenderConfig {
            population: 16,
            max_visited: 250,
            ..RecommenderConfig::fast()
        };
        let config = AdvisorServiceConfig::new(atlas_config, preferences);
        let mut service = AdvisorService::new(config, current);
        copy_telemetry_context(&store, service.store(), 0);
        service.feed(corpus);
        let id = hub.add_tenant(format!("tenant-{t}"), service);
        hub.bootstrap(id);
        ids.push(id);
    }
    (hub, ids)
}

/// Run the concurrent-serving grid at one (components, tenants) point:
/// serve a round-robin request pattern serially (the ground truth), then
/// concurrently at 1/2/8 per-request evaluator threads, measuring
/// throughput, latency percentiles and scaling — and checking every
/// concurrent answer bit-identical to the serial one.
pub fn run_serving_grid(components: usize, tenants: usize) -> Vec<ServingPoint> {
    serving_grid(components, tenants, MIN_SERVE_SECONDS)
}

/// [`run_serving_grid`] with the shortest acceptable `serve` call given.
fn serving_grid(components: usize, tenants: usize, min_serve_s: f64) -> Vec<ServingPoint> {
    let (mut hub, ids) = serving_hub(components, tenants);
    let workers = effective_threads(0);

    // Warm each tenant's epoch cache once so both the serial loop and the
    // concurrent runs measure the steady-state serving path, then time one
    // warm serial round to size the pattern.
    for &id in &ids {
        hub.recommend(id, 1);
    }
    hub.set_threads(1);
    let start = Instant::now();
    let round = hub.serve(&ids, 1);
    let round_s = start.elapsed().as_secs_f64().max(1e-9);
    let rounds = ((min_serve_s * workers as f64 / round_s).ceil() as usize).max(SERVING_ROUNDS);
    let requests: Vec<TenantId> = (0..rounds).flat_map(|_| ids.iter().copied()).collect();
    let workers = workers.min(requests.len());
    let requests_per_sec = |elapsed_s: f64| requests.len() as f64 / elapsed_s.max(1e-9);

    let train_ms = median(
        ids.iter()
            .map(|&id| hub.with_tenant(id, |s| s.shared_policy().map_or(0.0, |p| p.train_ms())))
            .collect(),
    );

    // Serial-loop ground truth: one worker, one evaluator thread. The
    // sizing round already answered every tenant once, in `ids` order.
    let truths: Vec<HubTruth> = round
        .into_iter()
        .map(|r| HubTruth {
            plans: r.report.plans,
            visited: r.report.visited,
        })
        .collect();
    let serial_runs = (0..SERVING_RUNS).map(|_| {
        let start = Instant::now();
        hub.serve(&requests, 1);
        requests_per_sec(start.elapsed().as_secs_f64())
    });
    let serial_requests_per_sec = median(serial_runs.collect());

    let mut points = Vec::new();
    for request_threads in [1usize, 2, 8] {
        hub.set_threads(0); // all available cores
        let mut concurrent_runs = Vec::with_capacity(SERVING_RUNS);
        let mut reports = Vec::with_capacity(SERVING_RUNS * requests.len());
        for _ in 0..SERVING_RUNS {
            let start = Instant::now();
            let served = hub.serve(&requests, request_threads);
            concurrent_runs.push(requests_per_sec(start.elapsed().as_secs_f64()));
            reports.extend(served);
        }
        let concurrent_requests_per_sec = median(concurrent_runs);
        let speedup = concurrent_requests_per_sec / serial_requests_per_sec.max(1e-9);

        let mut latencies: Vec<f64> = reports.iter().map(|r| r.latency_ms).collect();
        latencies.sort_by(f64::total_cmp);

        let deterministic = reports.iter().all(|r| {
            let truth = &truths[r.tenant.0];
            r.report.plans == truth.plans && r.report.visited == truth.visited
        });
        let n = reports.len().max(1) as f64;
        let request_unique_evals = reports
            .iter()
            .map(|r| r.report.eval.unique_evaluations as f64)
            .sum::<f64>()
            / n;
        let request_cache_hits = reports
            .iter()
            .map(|r| r.report.eval.cache_hits as f64)
            .sum::<f64>()
            / n;
        let lifetime_unique_evals = reports
            .iter()
            .map(|r| r.report.eval_lifetime.unique_evaluations)
            .max()
            .unwrap_or(0);
        let lifetime_cache_hits = reports
            .iter()
            .map(|r| r.report.eval_lifetime.cache_hits)
            .max()
            .unwrap_or(0);

        points.push(ServingPoint {
            components,
            tenants,
            requests: requests.len(),
            request_threads,
            workers,
            serial_requests_per_sec,
            concurrent_requests_per_sec,
            speedup_vs_serial: speedup,
            scaling_efficiency: speedup / workers as f64,
            p50_latency_ms: percentile(&latencies, 0.50),
            p99_latency_ms: percentile(&latencies, 0.99),
            train_ms,
            request_unique_evals,
            request_cache_hits,
            lifetime_unique_evals,
            lifetime_cache_hits,
            deterministic,
        });
    }
    points
}

/// A tenant's serial ground truth for the determinism check.
struct HubTruth {
    plans: Vec<atlas_core::RecommendedPlan>,
    visited: usize,
}

/// Render the machine-readable service snapshot: the day-replay `points`
/// sweep followed by the concurrent-serving grid.
pub fn service_json(points: &[ServicePoint], serving: &[ServingPoint]) -> String {
    let mut out = String::from("{\n  \"bench\": \"service\",\n  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"components\": {},\n",
                "      \"sites\": {},\n",
                "      \"apis\": {},\n",
                "      \"day1_traces\": {},\n",
                "      \"day2_traces\": {},\n",
                "      \"ingest_traces_per_sec\": {:.1},\n",
                "      \"evicted_traces\": {},\n",
                "      \"drift_apis\": {},\n",
                "      \"drift_to_recommendation_ms\": {:.1},\n",
                "      \"train_ms\": {:.2},\n",
                "      \"incremental_relearn_ms\": {:.2},\n",
                "      \"cold_relearn_ms\": {:.2},\n",
                "      \"relearn_speedup\": {:.2}\n",
                "    }}{}\n"
            ),
            p.components,
            p.sites,
            p.apis,
            p.day1_traces,
            p.day2_traces,
            p.ingest_traces_per_sec,
            p.evicted_traces,
            p.drift_apis,
            p.drift_to_recommendation_ms,
            p.train_ms,
            p.incremental_relearn_ms,
            p.cold_relearn_ms,
            p.relearn_speedup,
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n  \"serving\": [\n");
    for (i, s) in serving.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"components\": {},\n",
                "      \"tenants\": {},\n",
                "      \"requests\": {},\n",
                "      \"request_threads\": {},\n",
                "      \"workers\": {},\n",
                "      \"serial_requests_per_sec\": {:.1},\n",
                "      \"concurrent_requests_per_sec\": {:.1},\n",
                "      \"speedup_vs_serial\": {:.2},\n",
                "      \"scaling_efficiency\": {:.2},\n",
                "      \"p50_latency_ms\": {:.2},\n",
                "      \"p99_latency_ms\": {:.2},\n",
                "      \"train_ms\": {:.2},\n",
                "      \"request_unique_evals\": {:.1},\n",
                "      \"request_cache_hits\": {:.1},\n",
                "      \"lifetime_unique_evals\": {},\n",
                "      \"lifetime_cache_hits\": {},\n",
                "      \"deterministic\": {}\n",
                "    }}{}\n"
            ),
            s.components,
            s.tenants,
            s.requests,
            s.request_threads,
            s.workers,
            s.serial_requests_per_sec,
            s.concurrent_requests_per_sec,
            s.speedup_vs_serial,
            s.scaling_efficiency,
            s.p50_latency_ms,
            s.p99_latency_ms,
            s.train_ms,
            s.request_unique_evals,
            s.request_cache_hits,
            s.lifetime_unique_evals,
            s.lifetime_cache_hits,
            if s.deterministic { 1 } else { 0 },
            if i + 1 == serving.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Write `BENCH_service.json` at the workspace root and return the JSON.
pub fn write_service_json(points: &[ServicePoint], serving: &[ServingPoint]) -> String {
    let json = service_json(points, serving);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote BENCH_service.json"),
        Err(e) => println!("could not write {path}: {e}"),
    }
    json
}

/// Component counts of the service bench (overridable with
/// `ATLAS_SERVICE_COMPONENTS=50,100`). The default is the acceptance
/// point: 100 components.
pub fn service_sizes_from_env() -> Vec<usize> {
    match std::env::var("ATLAS_SERVICE_COMPONENTS") {
        Ok(raw) => raw
            .split(',')
            .filter_map(|t| t.trim().parse().ok())
            .collect(),
        Err(_) => vec![100],
    }
}

/// Tenant counts of the concurrent-serving grid (overridable with
/// `ATLAS_SERVING_TENANTS=2,4`). The default is the acceptance point:
/// 4 tenants.
pub fn serving_tenants_from_env() -> Vec<usize> {
    match std::env::var("ATLAS_SERVING_TENANTS") {
        Ok(raw) => raw
            .split(',')
            .filter_map(|t| t.trim().parse().ok())
            .collect(),
        Err(_) => vec![4],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_point_detects_drift_and_beats_cold_relearn() {
        let p = run_service_point(25);
        assert_eq!(p.components, 25);
        assert!(p.day1_traces > 0 && p.day2_traces > 0);
        assert!(p.ingest_traces_per_sec > 0.0);
        assert!(p.drift_apis > 0, "drift corpus must fire: {p:?}");
        assert!(p.drift_to_recommendation_ms > p.train_ms && p.train_ms > 0.0);
        assert!(p.evicted_traces > 0);
        assert!(
            p.incremental_relearn_ms < p.cold_relearn_ms,
            "single-API relearn must beat the cold rebuild: {p:?}"
        );
    }

    #[test]
    fn service_json_is_wellformed() {
        let p = ServicePoint {
            components: 100,
            sites: 2,
            apis: 12,
            day1_traces: 1000,
            day2_traces: 1500,
            ingest_traces_per_sec: 50_000.0,
            evicted_traces: 400,
            drift_apis: 3,
            drift_to_recommendation_ms: 120.0,
            train_ms: 15.0,
            incremental_relearn_ms: 2.0,
            cold_relearn_ms: 9.0,
            relearn_speedup: 4.5,
        };
        let s = ServingPoint {
            components: 100,
            tenants: 4,
            requests: 24,
            request_threads: 2,
            workers: 8,
            serial_requests_per_sec: 40.0,
            concurrent_requests_per_sec: 130.0,
            speedup_vs_serial: 3.25,
            scaling_efficiency: 0.41,
            p50_latency_ms: 21.5,
            p99_latency_ms: 48.0,
            train_ms: 14.25,
            request_unique_evals: 0.0,
            request_cache_hits: 310.5,
            lifetime_unique_evals: 250,
            lifetime_cache_hits: 7800,
            deterministic: true,
        };
        let json = service_json(&[p], &[s]);
        assert!(json.contains("\"bench\": \"service\""));
        assert!(json.contains("\"ingest_traces_per_sec\": 50000.0"));
        assert!(json.contains("\"relearn_speedup\": 4.50"));
        assert!(json.contains("\"serving\": ["));
        assert!(json.contains("\"tenants\": 4"));
        assert!(json.contains("\"speedup_vs_serial\": 3.25"));
        assert!(json.contains("\"p99_latency_ms\": 48.00"));
        assert!(json.contains("\"train_ms\": 15.00") && json.contains("\"train_ms\": 14.25"));
        assert!(json.contains("\"deterministic\": 1"));
        assert!(!json.contains(",\n  ]"));
    }

    #[test]
    fn sizes_env_parses() {
        assert_eq!(service_sizes_from_env(), vec![100]);
        assert_eq!(serving_tenants_from_env(), vec![4]);
    }

    #[test]
    fn serving_grid_is_deterministic_and_scales() {
        // No minimum call length: the pattern stays at its floor.
        let points = serving_grid(25, 2, 0.0);
        assert_eq!(points.len(), 3, "one point per request-thread count");
        for p in &points {
            assert_eq!(p.components, 25);
            assert_eq!(p.tenants, 2);
            assert_eq!(p.requests, 2 * SERVING_ROUNDS);
            assert!(p.train_ms > 0.0, "the services trained their agents");
            assert!(p.deterministic, "concurrent != serial at {p:?}");
            assert!(p.serial_requests_per_sec > 0.0);
            assert!(p.concurrent_requests_per_sec > 0.0);
            assert!(p.p50_latency_ms <= p.p99_latency_ms);
            assert!(p.workers >= 1);
            // Warm steady-state serving: the epoch caches were pre-warmed,
            // so requests replay entirely out of the shared memo cache.
            assert_eq!(p.request_unique_evals, 0.0);
            assert!(p.request_cache_hits > 0.0);
            assert!(p.lifetime_unique_evals > 0);
            assert!(p.lifetime_cache_hits >= p.request_cache_hits as usize);
        }
        assert_eq!(
            [1, 2, 8],
            [
                points[0].request_threads,
                points[1].request_threads,
                points[2].request_threads
            ]
        );
    }
}
