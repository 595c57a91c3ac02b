//! Network-footprint learning (paper §4.1.1, Eq. 1).
//!
//! Istio only reports the *aggregate* bytes exchanged between two components
//! across all APIs; Atlas needs per-API request/response sizes to inject the
//! right delay. Footprint learning recovers them by regressing the windowed
//! byte counters `U_{ci→cj}[t]` on the per-API invocation counts
//! `I^A_{ci→cj}[t]` derived from traces:
//!
//! ```text
//! argmin_d Σ_t ( U[t] − Σ_A I^A[t]·d^A )²      subject to d^A ≥ 0
//! ```
//!
//! One small non-negative least-squares problem is solved per directed edge
//! and direction (request / response), using projected gradient descent —
//! adequate because each problem has at most one unknown per API.

use std::collections::HashMap;

use atlas_telemetry::{Direction, TelemetryStore, Windowing};

/// One learned edge of an API: `(from, to, (request_bytes, response_bytes))`.
type Edge = (String, String, (f64, f64));

/// The learned network footprint: per API, per directed component edge, the
/// average request and response payload sizes in bytes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetworkFootprint {
    /// Per API, its learned edges sorted by `(from, to)`, so that a probe by
    /// `&str` names is a binary search that allocates nothing. No list is
    /// ever empty.
    entries: HashMap<String, Vec<Edge>>,
}

/// Where the `from → to` edge sits in one API's sorted edges: `Ok` at its
/// index, or `Err` where it would be inserted.
fn search(edges: &[Edge], from: &str, to: &str) -> Result<usize, usize> {
    edges.binary_search_by(|(f, t, _)| (f.as_str(), t.as_str()).cmp(&(from, to)))
}

impl NetworkFootprint {
    /// An empty footprint.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the learned sizes of an edge for an API.
    pub fn insert(
        &mut self,
        api: impl Into<String>,
        from: impl Into<String>,
        to: impl Into<String>,
        request_bytes: f64,
        response_bytes: f64,
    ) {
        let edges = self.entries.entry(api.into()).or_default();
        let (from, to, sizes) = (from.into(), to.into(), (request_bytes, response_bytes));
        match search(edges, &from, &to) {
            Ok(i) => edges[i].2 = sizes,
            Err(i) => edges.insert(i, (from, to, sizes)),
        }
    }

    /// The learned `(request, response)` sizes of an edge for an API, or
    /// `None` if the API never exercised that edge.
    pub fn get(&self, api: &str, from: &str, to: &str) -> Option<(f64, f64)> {
        let edges = self.entries.get(api)?;
        search(edges, from, to).ok().map(|i| edges[i].2)
    }

    /// Like [`NetworkFootprint::get`] but falling back to zero-byte payloads.
    pub fn get_or_zero(&self, api: &str, from: &str, to: &str) -> (f64, f64) {
        self.get(api, from, to).unwrap_or((0.0, 0.0))
    }

    /// Number of learned (api, edge) entries.
    pub fn len(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// Whether nothing has been learned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Expected bytes between a component pair per request of each API
    /// (request + response), used by the breach detector (§6).
    pub fn expected_bytes_per_request(&self, api: &str, from: &str, to: &str) -> f64 {
        let (req, resp) = self.get_or_zero(api, from, to);
        req + resp
    }

    /// Percentage accuracy of the learned footprint of one API against
    /// ground-truth sizes, as plotted in paper Figure 20. For every edge the
    /// accuracy is `100 · (1 − |est − real| / max(real, ε))`, averaged over
    /// request and response directions and over edges.
    pub fn accuracy_against(&self, api: &str, ground_truth: &[(String, String, f64, f64)]) -> f64 {
        if ground_truth.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        let mut count = 0usize;
        for (from, to, real_req, real_resp) in ground_truth {
            let (est_req, est_resp) = self.get_or_zero(api, from, to);
            for (est, real) in [(est_req, *real_req), (est_resp, *real_resp)] {
                if real <= 1.0 {
                    continue; // ignore empty payloads (e.g. background acks)
                }
                let err = (est - real).abs() / real;
                total += (1.0 - err).max(0.0) * 100.0;
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }
}

/// Learns [`NetworkFootprint`]s from a telemetry store.
#[derive(Debug, Clone, Copy)]
pub struct FootprintLearner {
    /// Window length in seconds used to align traffic and invocation counts
    /// (the paper uses 5-second windows).
    pub window_s: u64,
    /// Number of projected-gradient iterations per edge.
    pub iterations: usize,
}

impl Default for FootprintLearner {
    fn default() -> Self {
        Self {
            window_s: 5,
            iterations: 400,
        }
    }
}

impl FootprintLearner {
    /// Learn the footprint of every API on every observed edge.
    pub fn learn(&self, store: &TelemetryStore) -> NetworkFootprint {
        let mut footprint = NetworkFootprint::new();
        let windowing = Windowing::new(0, self.window_s);
        // Number of windows: derived from the latest trace/traffic timestamp.
        let window_count = self.window_count(store, &windowing);
        if window_count == 0 {
            return footprint;
        }

        for edge in store.traffic_edges() {
            let invocations = store.windowed_invocations(&edge, &windowing, window_count);
            if invocations.is_empty() {
                continue;
            }
            let apis: Vec<String> = {
                let mut v: Vec<String> = invocations.keys().cloned().collect();
                v.sort();
                v
            };
            let design: Vec<&Vec<f64>> = apis.iter().map(|a| &invocations[a]).collect();

            for direction in [Direction::Request, Direction::Response] {
                let observed = store.windowed_traffic(&edge, direction, &windowing, window_count);
                let sizes = solve_nnls(&design, &observed, self.iterations);
                for (api, &size) in apis.iter().zip(sizes.iter()) {
                    let (req, resp) = footprint.get_or_zero(api, &edge.from, &edge.to);
                    let (req, resp) = match direction {
                        Direction::Request => (size, resp),
                        Direction::Response => (req, size),
                    };
                    footprint.insert(
                        api.as_str(),
                        edge.from.as_str(),
                        edge.to.as_str(),
                        req,
                        resp,
                    );
                }
            }
        }
        footprint
    }

    fn window_count(&self, store: &TelemetryStore, windowing: &Windowing) -> usize {
        // The latest trace timestamp is tracked incrementally at ingest; no
        // trace needs to be materialised (let alone all of them) to find it.
        let mut max_s = store.latest_trace_second().unwrap_or(0);
        let traffic = store.traffic();
        for edge in traffic.edges() {
            for dir in [Direction::Request, Direction::Response] {
                if let Some(samples) = traffic.samples(&edge, dir) {
                    if let Some(last) = samples.last() {
                        max_s = max_s.max(last.timestamp_s);
                    }
                }
            }
        }
        windowing.count_until(max_s + 1)
    }
}

/// Solve `min_d ||X·d − y||²` with `d ≥ 0` by projected gradient descent.
///
/// `design[k]` is the column of invocation counts of API `k` (one entry per
/// window); `observed` is the byte counter per window.
fn solve_nnls(design: &[&Vec<f64>], observed: &[f64], iterations: usize) -> Vec<f64> {
    let k = design.len();
    let t = observed.len();
    if k == 0 || t == 0 {
        return vec![0.0; k];
    }
    // Initial guess: ratio of totals, the "every API sends the average"
    // solution, which is already exact when only one API uses the edge.
    let mut d: Vec<f64> = design
        .iter()
        .map(|col| {
            let calls: f64 = col.iter().sum();
            let total: f64 = observed.iter().sum();
            let all_calls: f64 = design.iter().map(|c| c.iter().sum::<f64>()).sum();
            if calls > 0.0 && all_calls > 0.0 {
                total / all_calls
            } else {
                0.0
            }
        })
        .collect();

    // Lipschitz-ish step size from the squared column norms.
    let norm: f64 = design
        .iter()
        .map(|col| col.iter().map(|x| x * x).sum::<f64>())
        .sum::<f64>()
        .max(1e-9);
    let step = 1.0 / norm;

    let mut residual = vec![0.0; t];
    for _ in 0..iterations {
        // residual = X·d − y
        for (i, r) in residual.iter_mut().enumerate() {
            let mut pred = 0.0;
            for (j, col) in design.iter().enumerate() {
                pred += col[i] * d[j];
            }
            *r = pred - observed[i];
        }
        // gradient_j = Σ_i X[i][j] · residual[i]
        let mut max_update = 0.0f64;
        for (j, col) in design.iter().enumerate() {
            let grad: f64 = col.iter().zip(residual.iter()).map(|(x, r)| x * r).sum();
            let new = (d[j] - step * grad).max(0.0);
            max_update = max_update.max((new - d[j]).abs());
            d[j] = new;
        }
        if max_update < 1e-9 {
            break;
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_telemetry::{Span, SpanId, Trace, TraceId};

    /// Build a store where two APIs share the Frontend→Service edge with
    /// different request sizes (A sends 100 B, B sends 500 B) and
    /// non-collinear request mixes across windows.
    fn two_api_store() -> TelemetryStore {
        let store = TelemetryStore::new();
        let mut next_id = 0u64;
        let mut make_trace = |api: &str, at_s: u64| {
            next_id += 1;
            let t = TraceId(next_id);
            let start = at_s * 1_000_000;
            let spans = vec![
                Span::new(t, SpanId(next_id * 10), None, "Frontend", api, start, 5_000),
                Span::new(
                    t,
                    SpanId(next_id * 10 + 1),
                    Some(SpanId(next_id * 10)),
                    "Service",
                    "op",
                    start + 500,
                    3_000,
                ),
            ];
            Trace::from_spans(spans).unwrap()
        };
        // Window 0 (0-4s): 3×A, 1×B. Window 1 (5-9s): 1×A, 4×B.
        // Window 2 (10-14s): 2×A, 2×B.
        let mix = [(0u64, 3usize, 1usize), (5, 1, 4), (10, 2, 2)];
        for (base_s, a_count, b_count) in mix {
            let mut req_bytes = 0.0;
            for i in 0..a_count {
                store.ingest_trace(make_trace("/a", base_s + (i as u64 % 5)));
                req_bytes += 100.0;
            }
            for i in 0..b_count {
                store.ingest_trace(make_trace("/b", base_s + (i as u64 % 5)));
                req_bytes += 500.0;
            }
            store.record_traffic("Frontend", "Service", Direction::Request, base_s, req_bytes);
            store.record_traffic(
                "Frontend",
                "Service",
                Direction::Response,
                base_s,
                (a_count as f64) * 40.0 + (b_count as f64) * 250.0,
            );
        }
        store
    }

    #[test]
    fn recovers_per_api_sizes_from_aggregates() {
        let store = two_api_store();
        let footprint = FootprintLearner::default().learn(&store);
        let (a_req, a_resp) = footprint.get("/a", "Frontend", "Service").unwrap();
        let (b_req, b_resp) = footprint.get("/b", "Frontend", "Service").unwrap();
        assert!(
            (a_req - 100.0).abs() < 20.0,
            "A request ≈ 100 B, got {a_req}"
        );
        assert!(
            (b_req - 500.0).abs() < 40.0,
            "B request ≈ 500 B, got {b_req}"
        );
        assert!(
            (a_resp - 40.0).abs() < 15.0,
            "A response ≈ 40 B, got {a_resp}"
        );
        assert!(
            (b_resp - 250.0).abs() < 25.0,
            "B response ≈ 250 B, got {b_resp}"
        );
    }

    #[test]
    fn footprint_accuracy_metric_reflects_the_fit() {
        let store = two_api_store();
        let footprint = FootprintLearner::default().learn(&store);
        let truth_a = vec![("Frontend".to_string(), "Service".to_string(), 100.0, 40.0)];
        let acc = footprint.accuracy_against("/a", &truth_a);
        assert!(acc > 80.0, "accuracy should be high, got {acc}");
        // A deliberately wrong ground truth scores poorly.
        let wrong = vec![(
            "Frontend".to_string(),
            "Service".to_string(),
            10_000.0,
            9_000.0,
        )];
        assert!(footprint.accuracy_against("/a", &wrong) < 30.0);
        assert_eq!(footprint.accuracy_against("/a", &[]), 0.0);
    }

    #[test]
    fn learning_from_an_empty_store_yields_empty_footprint() {
        let footprint = FootprintLearner::default().learn(&TelemetryStore::new());
        assert!(footprint.is_empty());
        assert_eq!(footprint.len(), 0);
        assert_eq!(footprint.get_or_zero("/a", "X", "Y"), (0.0, 0.0));
    }

    #[test]
    fn an_api_holds_only_its_observed_edges() {
        let footprint = FootprintLearner::default().learn(&two_api_store());
        assert_eq!(footprint.entries["/a"].len(), 1);
        assert!(footprint.get("/a", "Frontend", "Service").is_some());
        assert!(footprint.get("/nothing", "Frontend", "Service").is_none());
    }

    #[test]
    fn nnls_handles_single_api_exactly() {
        let col = vec![2.0, 4.0, 1.0];
        let observed: Vec<f64> = col.iter().map(|c| c * 300.0).collect();
        let d = solve_nnls(&[&col], &observed, 500);
        assert!((d[0] - 300.0).abs() < 1.0);
    }

    #[test]
    fn nnls_never_returns_negative_sizes() {
        // Observed traffic is smaller than any consistent solution; the
        // estimates must stay non-negative.
        let a = vec![1.0, 0.0, 2.0];
        let b = vec![0.0, 3.0, 1.0];
        let observed = vec![0.0, 0.0, 0.0];
        let d = solve_nnls(&[&a, &b], &observed, 300);
        assert!(d.iter().all(|&x| x >= 0.0));
        assert!(d.iter().all(|&x| x < 1.0));
    }

    #[test]
    fn manual_insert_and_per_request_expectation() {
        let mut fp = NetworkFootprint::new();
        fp.insert("/x", "A", "B", 120.0, 30.0);
        assert_eq!(fp.get("/x", "A", "B"), Some((120.0, 30.0)));
        assert_eq!(fp.expected_bytes_per_request("/x", "A", "B"), 150.0);
        assert_eq!(fp.expected_bytes_per_request("/x", "A", "C"), 0.0);
        assert_eq!(fp.len(), 1);
    }
}
