//! The telemetry store: the "telemetry server" Atlas queries.
//!
//! In the paper's deployment this role is played by Jaeger's query service
//! and Prometheus. Here the store holds everything the simulator emitted and
//! offers the query surface Atlas needs during application learning (paper
//! §3): traces by API and time range, per-component metric series, pairwise
//! traffic aggregates, and trace-derived invocation counts aligned on the
//! same windows as the traffic counters.
//!
//! Traces are not kept as a flat `Vec<Trace>`: they are normalised into a
//! columnar [`TraceArena`] at ingest (interned names, SoA span columns,
//! per-API and per-edge indexes), so every query answers from an index
//! instead of rescanning the whole store, and learning-stage consumers get
//! counts, latencies and weighted representatives without cloning span trees.

use std::collections::{BTreeMap, HashMap};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::arena::{TraceArena, WeightedTrace};
use crate::metrics::{ComponentMetrics, MetricKind};
use crate::network::{Direction, PairKey, PairwiseTraffic};
use crate::trace::Trace;
use crate::window::Windowing;
use crate::Seconds;

/// In-memory telemetry server.
///
/// The store is internally synchronised so that a simulator thread can keep
/// appending while the advisor reads, mirroring a live telemetry backend.
///
/// # Streaming ingest
///
/// Beyond the batch surface, the store supports resident-service operation:
/// [`TelemetryStore::ingest_batch`] appends a batch of traces and (when a
/// retention window is configured) evicts traces older than the window
/// behind the latest observed root start, keeping every index consistent.
/// Every ingest call that appends a trace bumps the store
/// [epoch](TelemetryStore::epoch), a change counter the caller can log.
#[derive(Debug, Default)]
pub struct TelemetryStore {
    inner: RwLock<StoreInner>,
}

#[derive(Debug, Default)]
struct StoreInner {
    arena: TraceArena,
    metrics: BTreeMap<String, ComponentMetrics>,
    traffic: PairwiseTraffic,
    /// Monotonic change counter: bumped once per mutating ingest call.
    epoch: u64,
    /// When set, [`TelemetryStore::ingest_batch`] evicts traces whose root
    /// starts more than this many seconds before the latest root start.
    retention_window_s: Option<Seconds>,
}

impl StoreInner {
    /// The one write path: append `traces` to the arena and bump the epoch
    /// (a batch that appends nothing bumps nothing). Returns the number of
    /// traces appended and the number of malformed ones skipped.
    fn append(&mut self, traces: impl IntoIterator<Item = Trace>) -> (usize, usize) {
        let (ingested, rejected) = self.arena.append_batch(traces);
        if ingested > 0 {
            self.epoch += 1;
        }
        (ingested, rejected)
    }

    /// Enforce the retention window, if any. Returns the eviction count.
    fn enforce_retention(&mut self) -> usize {
        let (Some(window_s), Some(max_us)) =
            (self.retention_window_s, self.arena.max_root_start_us())
        else {
            return 0;
        };
        let cutoff_us = max_us.saturating_sub(window_s.saturating_mul(1_000_000));
        if cutoff_us == 0 {
            return 0;
        }
        self.arena.evict_older_than(cutoff_us)
    }
}

/// Whether a scraped metric or byte count can enter the store: finite and
/// not negative.
fn is_sample(value: f64) -> bool {
    value.is_finite() && value >= 0.0
}

/// What one [`TelemetryStore::ingest_batch`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Number of traces appended by the batch.
    pub ingested: usize,
    /// Number of malformed traces skipped whole: no nodes, a root other than
    /// node 0, or a parent index outside the trace. Only a hand-built
    /// `Trace` can be one; [`Trace::from_spans`] never returns one.
    pub rejected: usize,
    /// Number of traces evicted by the retention window.
    pub evicted: usize,
    /// The store epoch after the batch (see [`TelemetryStore::epoch`]).
    pub epoch: u64,
}

impl TelemetryStore {
    // Both accessors recover a poisoned guard: a writer panics only inside
    // the caller's trace iterator, between two traces, and answering from the
    // traces already held beats failing every later query. A malformed
    // `Trace` is checked before any of it is written and skipped whole.
    fn read(&self) -> RwLockReadGuard<'_, StoreInner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, StoreInner> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty store that retains only the trailing `window_s`
    /// seconds of traces (relative to the latest observed root start).
    /// Retention is enforced on every [`TelemetryStore::ingest_batch`] and
    /// [`TelemetryStore::ingest_trace`]; an eviction compacts the columns,
    /// so a resident feed should arrive in batches.
    pub fn with_retention_window_s(window_s: Seconds) -> Self {
        let store = Self::default();
        store.write().retention_window_s = Some(window_s);
        store
    }

    /// The configured retention window, if any.
    pub fn retention_window_s(&self) -> Option<Seconds> {
        self.read().retention_window_s
    }

    // ------------------------------------------------------------------
    // Ingestion (used by the simulator and the resident service).
    // ------------------------------------------------------------------

    /// Ingest a completed trace: a one-trace [`TelemetryStore::ingest_batch`].
    pub fn ingest_trace(&self, trace: Trace) {
        self.ingest_batch(std::iter::once(trace));
    }

    /// Streaming ingest: append a batch of traces, then enforce the
    /// retention window (evicting traces older than the window behind the
    /// latest root start, with every index kept consistent). The whole
    /// batch bumps the epoch once. A malformed trace is skipped whole and
    /// counted in [`IngestReport::rejected`].
    pub fn ingest_batch(&self, traces: impl IntoIterator<Item = Trace>) -> IngestReport {
        let mut inner = self.write();
        let (ingested, rejected) = inner.append(traces);
        let evicted = if ingested > 0 {
            inner.enforce_retention()
        } else {
            0
        };
        IngestReport {
            ingested,
            rejected,
            evicted,
            epoch: inner.epoch,
        }
    }

    /// The current store epoch. Starts at 0; bumped once per mutating
    /// ingest call and by [`TelemetryStore::clear`].
    pub fn epoch(&self) -> u64 {
        self.read().epoch
    }

    /// Record a component metric observation at its time position (see
    /// [`MetricSeries::push`](crate::MetricSeries::push)), so a late scrape
    /// sample is accepted. A NaN, infinite or negative value is dropped and
    /// `false` returned: no resource usage is negative, and one bad sample
    /// must not reach the learned demand.
    pub fn record_metric(
        &self,
        component: &str,
        kind: MetricKind,
        timestamp_s: Seconds,
        value: f64,
    ) -> bool {
        if !is_sample(value) {
            return false;
        }
        let mut inner = self.write();
        inner
            .metrics
            .entry(component.to_string())
            .or_insert_with(|| ComponentMetrics::new(component))
            .record(kind, timestamp_s, value);
        true
    }

    /// Record pairwise traffic bytes at their time position (see
    /// [`PairwiseTraffic::record`]). A NaN, infinite or negative byte count
    /// is dropped and `false` returned, as in
    /// [`TelemetryStore::record_metric`].
    pub fn record_traffic(
        &self,
        from: &str,
        to: &str,
        direction: Direction,
        timestamp_s: Seconds,
        bytes: f64,
    ) -> bool {
        if !is_sample(bytes) {
            return false;
        }
        self.write()
            .traffic
            .record(PairKey::new(from, to), direction, timestamp_s, bytes);
        true
    }

    // ------------------------------------------------------------------
    // Query surface (used by Atlas and the baselines).
    // ------------------------------------------------------------------

    /// Total number of stored traces.
    pub fn trace_count(&self) -> usize {
        self.read().arena.len()
    }

    /// Total number of stored spans.
    pub fn span_count(&self) -> usize {
        self.read().arena.span_count()
    }

    /// Names of all user-facing APIs observed (root operations of traces),
    /// sorted and deduplicated. Answered from the per-API index: O(#APIs),
    /// not O(#traces).
    pub fn apis(&self) -> Vec<String> {
        self.read().arena.api_names()
    }

    /// Names of all components observed in traces or metrics, sorted.
    /// Answered from the interner and the metric keys: no per-span scan.
    pub fn components(&self) -> Vec<String> {
        let inner = self.read();
        let mut v: Vec<String> = inner.metrics.keys().cloned().collect();
        v.extend(inner.arena.component_names().map(str::to_string));
        v.sort();
        v.dedup();
        v
    }

    /// All traces belonging to a given API, materialised in time order.
    pub fn traces_for_api(&self, api: &str) -> Vec<Trace> {
        self.read().arena.traces_for_api(api)
    }

    /// Up to `limit` most recent traces of an API (by root start time).
    /// Only the selected traces are materialised.
    pub fn recent_traces_for_api(&self, api: &str, limit: usize) -> Vec<Trace> {
        self.read().arena.recent_traces_for_api(api, limit)
    }

    /// All traces of an API whose root span starts inside `[start_s, end_s)`,
    /// located by binary search over the time-sorted per-API index.
    pub fn traces_for_api_in(&self, api: &str, start_s: Seconds, end_s: Seconds) -> Vec<Trace> {
        let inner = self.read();
        inner
            .arena
            .api_trace_indices_in(api, start_s, end_s)
            .iter()
            .map(|&t| inner.arena.materialize(t))
            .collect()
    }

    /// Number of traces stored for an API (no materialisation).
    pub fn api_trace_count(&self, api: &str) -> usize {
        self.read().arena.api_trace_count(api)
    }

    /// Mean end-to-end latency (ms) over all traces of an API, computed from
    /// the root-latency column without materialising a single trace.
    pub fn api_mean_latency_ms(&self, api: &str) -> f64 {
        self.read().arena.api_mean_latency_ms(api)
    }

    /// Sorted names of the distinct components touched by an API's traces.
    pub fn api_components(&self, api: &str) -> Vec<String> {
        self.read().arena.api_component_names(api)
    }

    /// Collapse an API's traces into at most `cap` weighted representative
    /// traces by structural signature (see
    /// [`TraceArena::weighted_representatives`]).
    pub fn weighted_traces_for_api(&self, api: &str, cap: usize) -> Vec<WeightedTrace> {
        self.read().arena.weighted_representatives(api, cap)
    }

    /// Latest root start time over all traces, in whole seconds.
    pub fn latest_trace_second(&self) -> Option<Seconds> {
        self.read()
            .arena
            .max_root_start_us()
            .map(|us| us / 1_000_000)
    }

    /// Metrics of a component, if observed.
    pub fn component_metrics(&self, component: &str) -> Option<ComponentMetrics> {
        self.read().metrics.get(component).cloned()
    }

    /// Convenience: mean of a metric for a component over the whole period.
    pub fn metric_mean(&self, component: &str, kind: MetricKind) -> f64 {
        self.read()
            .metrics
            .get(component)
            .map_or(0.0, |m| m.mean(kind))
    }

    /// A clone of the pairwise traffic record.
    pub fn traffic(&self) -> PairwiseTraffic {
        self.read().traffic.clone()
    }

    /// All directed communication edges observed by the network metrics.
    pub fn traffic_edges(&self) -> Vec<PairKey> {
        self.read().traffic.edges()
    }

    /// `U^{req/resp}_{ci→cj}[t]`: bytes per window on an edge (Eq. 1 input).
    pub fn windowed_traffic(
        &self,
        pair: &PairKey,
        direction: Direction,
        windowing: &Windowing,
        window_count: usize,
    ) -> Vec<f64> {
        self.read()
            .traffic
            .windowed_bytes(pair, direction, windowing, window_count)
    }

    /// `I^A_{ci→cj}[t]`: per-API invocation counts on an edge, per window
    /// (Eq. 1 input). Returns a map API → per-window invocation counts.
    ///
    /// A trace contributes all its edge invocations to the window containing
    /// its root start time, matching how the paper aligns traces with the
    /// network counters. Invocation counts are pre-aggregated per edge at
    /// ingest, so only traces that cross the edge are visited.
    pub fn windowed_invocations(
        &self,
        pair: &PairKey,
        windowing: &Windowing,
        window_count: usize,
    ) -> HashMap<String, Vec<f64>> {
        self.read()
            .arena
            .windowed_invocations(pair, windowing, window_count)
    }

    /// Number of requests per API whose root start falls in `[start_s, end_s)`.
    pub fn api_request_counts_in(&self, start_s: Seconds, end_s: Seconds) -> HashMap<String, u64> {
        self.read().arena.api_request_counts_in(start_s, end_s)
    }

    /// End-to-end latencies (ms) of all traces of an API, in time order.
    /// Read straight from the root-latency column.
    pub fn api_latencies_ms(&self, api: &str) -> Vec<f64> {
        self.read().arena.api_latencies_ms(api)
    }

    /// Remove every stored trace, metric, and traffic sample. The epoch
    /// keeps counting (a clear is a change) and the retention window is
    /// preserved.
    pub fn clear(&self) {
        let mut inner = self.write();
        inner.arena.clear();
        inner.metrics.clear();
        inner.traffic = PairwiseTraffic::new();
        inner.epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Span, SpanId, TraceId};

    fn trace(id: u64, api: &str, start_us: u64, latency_us: u64) -> Trace {
        let t = TraceId(id);
        let spans = vec![
            Span::new(
                t,
                SpanId(id * 10),
                None,
                "Frontend",
                api,
                start_us,
                latency_us,
            ),
            Span::new(
                t,
                SpanId(id * 10 + 1),
                Some(SpanId(id * 10)),
                "UserService",
                "op",
                start_us + 10,
                latency_us / 2,
            ),
        ];
        Trace::from_spans(spans).unwrap()
    }

    #[test]
    fn ingest_and_query_traces() {
        let store = TelemetryStore::new();
        store.ingest_trace(trace(1, "/login", 0, 1000));
        store.ingest_trace(trace(2, "/login", 5_000_000, 2000));
        store.ingest_trace(trace(3, "/register", 1_000_000, 3000));
        assert_eq!(store.trace_count(), 3);
        assert_eq!(store.apis(), vec!["/login", "/register"]);
        assert_eq!(store.traces_for_api("/login").len(), 2);
        assert_eq!(store.traces_for_api("/missing").len(), 0);
        assert_eq!(store.traces_for_api_in("/login", 0, 5).len(), 1);
        assert_eq!(store.api_latencies_ms("/login"), vec![1.0, 2.0]);
        assert_eq!(store.api_trace_count("/login"), 2);
        assert_eq!(store.api_mean_latency_ms("/login"), 1.5);
        assert_eq!(store.latest_trace_second(), Some(5));
        assert_eq!(
            store.api_components("/login"),
            vec!["Frontend", "UserService"]
        );
    }

    #[test]
    fn recent_traces_respects_limit_and_order() {
        let store = TelemetryStore::new();
        for i in 0..10 {
            store.ingest_trace(trace(i, "/x", i * 1_000_000, 100));
        }
        let recent = store.recent_traces_for_api("/x", 3);
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].root().start_us, 7_000_000);
        assert_eq!(recent[2].root().start_us, 9_000_000);
        assert_eq!(store.recent_traces_for_api("/x", 100).len(), 10);
    }

    #[test]
    fn metric_ingestion_and_queries() {
        let store = TelemetryStore::new();
        store.record_metric("A", MetricKind::CpuCores, 0, 1.0);
        store.record_metric("A", MetricKind::CpuCores, 1, 3.0);
        store.record_metric("B", MetricKind::MemoryGb, 0, 4.0);
        assert_eq!(store.metric_mean("A", MetricKind::CpuCores), 2.0);
        let a = store.component_metrics("A").expect("A was recorded");
        assert_eq!(a.max(MetricKind::CpuCores), 3.0);
        assert_eq!(store.metric_mean("C", MetricKind::CpuCores), 0.0);
        assert!(store.component_metrics("B").is_some());
        assert!(store.component_metrics("C").is_none());
    }

    #[test]
    fn non_finite_or_negative_samples_are_dropped() {
        let store = TelemetryStore::new();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            assert!(!store.record_metric("A", MetricKind::CpuCores, 0, bad));
            assert!(!store.record_traffic("A", "B", Direction::Request, 0, bad));
        }
        assert!(store.component_metrics("A").is_none());
        assert!(store.traffic_edges().is_empty());
        assert!(store.record_metric("A", MetricKind::CpuCores, 0, 0.0));
        assert!(store.record_traffic("A", "B", Direction::Request, 0, 0.0));
        assert_eq!(store.traffic_edges().len(), 1);
    }

    #[test]
    fn components_cover_metrics_and_traces() {
        let store = TelemetryStore::new();
        store.ingest_trace(trace(1, "/login", 0, 1000));
        store.record_metric("OnlyMetrics", MetricKind::CpuCores, 0, 1.0);
        let comps = store.components();
        assert!(comps.contains(&"Frontend".to_string()));
        assert!(comps.contains(&"UserService".to_string()));
        assert!(comps.contains(&"OnlyMetrics".to_string()));
    }

    #[test]
    fn traffic_and_invocation_windows_align() {
        let store = TelemetryStore::new();
        // Two /login traces in window 0, one in window 1.
        store.ingest_trace(trace(1, "/login", 0, 1000));
        store.ingest_trace(trace(2, "/login", 2_000_000, 1000));
        store.ingest_trace(trace(3, "/login", 6_000_000, 1000));
        store.record_traffic("Frontend", "UserService", Direction::Request, 0, 600.0);
        store.record_traffic("Frontend", "UserService", Direction::Request, 6, 300.0);

        let w = Windowing::new(0, 5);
        let pair = PairKey::new("Frontend", "UserService");
        let traffic = store.windowed_traffic(&pair, Direction::Request, &w, 2);
        assert_eq!(traffic, vec![600.0, 300.0]);

        let inv = store.windowed_invocations(&pair, &w, 2);
        assert_eq!(inv["/login"], vec![2.0, 1.0]);
    }

    #[test]
    fn api_request_counts_by_window() {
        let store = TelemetryStore::new();
        store.ingest_trace(trace(1, "/a", 0, 10));
        store.ingest_trace(trace(2, "/a", 1_000_000, 10));
        store.ingest_trace(trace(3, "/b", 9_000_000, 10));
        let counts = store.api_request_counts_in(0, 5);
        assert_eq!(counts["/a"], 2);
        assert!(!counts.contains_key("/b"));
    }

    #[test]
    fn weighted_traces_collapse_structural_duplicates() {
        let store = TelemetryStore::new();
        for i in 0..6 {
            store.ingest_trace(trace(i, "/a", i * 1_000_000, 100 * (i + 1)));
        }
        let reps = store.weighted_traces_for_api("/a", 50);
        assert_eq!(reps.len(), 1, "six structurally identical traces");
        assert_eq!(reps[0].weight, 6.0);
    }

    #[test]
    fn ingest_batch_reports_and_bumps_the_epoch() {
        let store = TelemetryStore::new();
        assert_eq!(store.epoch(), 0);
        let report = store.ingest_batch([trace(1, "/a", 0, 10), trace(2, "/b", 1_000_000, 10)]);
        assert_eq!(report.ingested, 2);
        assert_eq!(report.evicted, 0);
        assert_eq!(report.epoch, 1);
        assert_eq!(store.epoch(), 1);

        let report = store.ingest_batch([trace(3, "/b", 2_000_000, 10)]);
        assert_eq!(report.epoch, 2);

        // Empty batches change nothing.
        let report = store.ingest_batch(std::iter::empty());
        assert_eq!((report.ingested, report.evicted, report.epoch), (0, 0, 2));

        // Single-trace ingest shares the same epoch discipline.
        store.ingest_trace(trace(4, "/a", 3_000_000, 10));
        assert_eq!(store.epoch(), 3);
    }

    #[test]
    fn a_malformed_trace_in_a_batch_is_rejected_and_changes_nothing() {
        let good = || [trace(1, "/a", 9_000_000, 10), trace(2, "/a", 1_000_000, 20)];
        let reference = TelemetryStore::new();
        reference.ingest_batch(good());

        let mut dangling = trace(3, "/b", 5_000_000, 30);
        dangling.nodes[1].parent = Some(2);
        let [first, second] = good();
        let store = TelemetryStore::new();
        let report = store.ingest_batch([first, dangling, second]);
        assert_eq!((report.ingested, report.rejected, report.epoch), (2, 1, 1));

        assert_eq!(store.span_count(), reference.span_count());
        assert_eq!(store.apis(), reference.apis());
        assert_eq!(store.components(), reference.components());
        assert_eq!(store.traces_for_api("/a"), reference.traces_for_api("/a"));

        // A batch of nothing but malformed traces is no change.
        let empty = Trace {
            trace_id: TraceId(4),
            nodes: Vec::new(),
        };
        let report = store.ingest_batch([empty]);
        assert_eq!((report.ingested, report.rejected, report.epoch), (0, 1, 1));
    }

    #[test]
    fn retention_window_evicts_old_traces() {
        let store = TelemetryStore::with_retention_window_s(10);
        assert_eq!(store.retention_window_s(), Some(10));
        let report = store.ingest_batch([
            trace(1, "/old", 0, 10),
            trace(2, "/both", 2_000_000, 10),
            trace(3, "/both", 5_000_000, 10),
        ]);
        assert_eq!(report.evicted, 0, "everything inside the window");

        // A batch at t=15s pushes the cutoff to 5s: /old's trace and
        // /both's first trace fall out.
        let report = store.ingest_batch([trace(4, "/new", 15_000_000, 10)]);
        assert_eq!(report.ingested, 1);
        assert_eq!(report.evicted, 2);
        assert_eq!(store.trace_count(), 2);
        assert_eq!(store.apis(), vec!["/both", "/new"]);
        assert_eq!(store.api_trace_count("/old"), 0);
        assert_eq!(store.api_trace_count("/both"), 1);
    }

    #[test]
    fn clear_removes_everything() {
        let store = TelemetryStore::new();
        store.ingest_trace(trace(1, "/a", 0, 10));
        store.record_metric("A", MetricKind::CpuCores, 0, 1.0);
        store.record_traffic("A", "B", Direction::Request, 0, 1.0);
        store.clear();
        assert_eq!(store.trace_count(), 0);
        assert!(store.apis().is_empty());
        assert!(store.traffic_edges().is_empty());
        assert!(store.component_metrics("A").is_none());
    }
}
