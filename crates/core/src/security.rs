//! Footprint-based anomaly detection (paper §6, Figure 22).
//!
//! The learned network footprints say how many bytes a component pair
//! *should* exchange to serve the API traffic the application actually
//! received. Reconstructing the expected traffic from the per-API request
//! counts and comparing it with the observed counters exposes exfiltration:
//! a data breach shows up as observed traffic far above what the served
//! API requests can justify.

use atlas_telemetry::{Direction, PairKey, TelemetryStore, Windowing};

use crate::footprint::NetworkFootprint;

/// One monitored window on one edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowObservation {
    /// Index of the window.
    pub window: usize,
    /// Bytes expected from the footprints and the API request counts.
    pub expected_bytes: f64,
    /// Bytes observed by the network metrics.
    pub observed_bytes: f64,
    /// Whether this window is flagged as anomalous.
    pub anomalous: bool,
}

/// Report of one breach check on one directed edge.
#[derive(Debug, Clone, PartialEq)]
pub struct BreachReport {
    /// The monitored edge.
    pub from: String,
    /// The monitored edge.
    pub to: String,
    /// Per-window comparison.
    pub windows: Vec<WindowObservation>,
}

impl BreachReport {
    /// Whether any window was flagged.
    pub fn breach_detected(&self) -> bool {
        self.windows.iter().any(|w| w.anomalous)
    }

    /// Indices of the flagged windows.
    pub fn anomalous_windows(&self) -> Vec<usize> {
        self.windows
            .iter()
            .filter(|w| w.anomalous)
            .map(|w| w.window)
            .collect()
    }

    /// Total unexplained bytes (observed − expected, clamped at zero).
    pub fn unexplained_bytes(&self) -> f64 {
        self.windows
            .iter()
            .map(|w| (w.observed_bytes - w.expected_bytes).max(0.0))
            .sum()
    }
}

/// Window length (seconds) used for the comparison.
const WINDOW_S: u64 = 60;
/// Multiplicative tolerance: a window is anomalous when
/// `observed > TOLERANCE_FACTOR · expected + ABSOLUTE_SLACK_BYTES`.
const TOLERANCE_FACTOR: f64 = 1.5;
/// Absolute slack added to the expectation (absorbs keep-alive chatter).
const ABSOLUTE_SLACK_BYTES: f64 = 10_000.0;

/// Check one directed edge over `[0, horizon_s)` for traffic that the served
/// API requests cannot justify, using the footprints and the API request
/// counts recorded in the store.
pub fn check_edge(
    store: &TelemetryStore,
    footprint: &NetworkFootprint,
    from: &str,
    to: &str,
    horizon_s: u64,
) -> BreachReport {
    let windowing = Windowing::new(0, WINDOW_S);
    let window_count = windowing.count_until(horizon_s).max(1);
    let pair = PairKey::new(from, to);
    let observed_req = store.windowed_traffic(&pair, Direction::Request, &windowing, window_count);
    let observed_resp =
        store.windowed_traffic(&pair, Direction::Response, &windowing, window_count);

    let mut windows = Vec::with_capacity(window_count);
    for w in 0..window_count {
        let start_s = w as u64 * WINDOW_S;
        let end_s = start_s + WINDOW_S;
        let api_counts = store.api_request_counts_in(start_s, end_s);
        let mut expected = 0.0;
        for (api, count) in &api_counts {
            expected += footprint.expected_bytes_per_request(api, from, to) * *count as f64;
        }
        let observed = observed_req[w] + observed_resp[w];
        let anomalous = observed > TOLERANCE_FACTOR * expected + ABSOLUTE_SLACK_BYTES;
        windows.push(WindowObservation {
            window: w,
            expected_bytes: expected,
            observed_bytes: observed,
            anomalous,
        });
    }
    BreachReport {
        from: from.to_string(),
        to: to.to_string(),
        windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_telemetry::{Span, SpanId, Trace, TraceId};

    /// Store with a steady /read API (Service → MongoDB, ~1 KB per request)
    /// plus, in the breach scenario, a large unexplained transfer in the
    /// third minute.
    fn build_store(with_breach: bool) -> (TelemetryStore, NetworkFootprint) {
        let store = TelemetryStore::new();
        let mut id = 0u64;
        for minute in 0..5u64 {
            for i in 0..20u64 {
                id += 1;
                let start = (minute * 60 + i * 3) * 1_000_000;
                let t = TraceId(id);
                let spans = vec![
                    Span::new(t, SpanId(id * 10), None, "Service", "/read", start, 4_000),
                    Span::new(
                        t,
                        SpanId(id * 10 + 1),
                        Some(SpanId(id * 10)),
                        "MongoDB",
                        "find",
                        start + 500,
                        2_000,
                    ),
                ];
                store.ingest_trace(Trace::from_spans(spans).unwrap());
                store.record_traffic(
                    "Service",
                    "MongoDB",
                    Direction::Request,
                    minute * 60 + i * 3,
                    200.0,
                );
                store.record_traffic(
                    "Service",
                    "MongoDB",
                    Direction::Response,
                    minute * 60 + i * 3,
                    800.0,
                );
            }
            if with_breach && minute == 2 {
                // 50 MB copied out of the database, unrelated to any API.
                store.record_traffic(
                    "Service",
                    "MongoDB",
                    Direction::Response,
                    minute * 60 + 59,
                    5.0e7,
                );
            }
        }
        let mut footprint = NetworkFootprint::new();
        footprint.insert("/read", "Service", "MongoDB", 200.0, 800.0);
        (store, footprint)
    }

    #[test]
    fn normal_traffic_is_not_flagged() {
        let (store, footprint) = build_store(false);
        let report = check_edge(&store, &footprint, "Service", "MongoDB", 300);
        assert!(!report.breach_detected(), "no breach expected: {report:?}");
        assert!(report.anomalous_windows().is_empty());
        // Expected and observed roughly agree per window.
        for w in &report.windows {
            assert!(w.observed_bytes <= 1.5 * w.expected_bytes + 10_000.0);
            assert!(w.expected_bytes > 0.0);
        }
    }

    #[test]
    fn exfiltration_is_flagged_in_the_right_window() {
        let (store, footprint) = build_store(true);
        let report = check_edge(&store, &footprint, "Service", "MongoDB", 300);
        assert!(report.breach_detected());
        assert_eq!(report.anomalous_windows(), vec![2]);
        assert!(report.unexplained_bytes() > 4.0e7);
    }

    #[test]
    fn unknown_edges_have_zero_expectation_and_tolerate_slack() {
        let (store, footprint) = build_store(false);
        let report = check_edge(&store, &footprint, "Ghost", "MongoDB", 300);
        assert!(
            !report.breach_detected(),
            "no observed traffic, nothing to flag"
        );
        assert!(report.windows.iter().all(|w| w.expected_bytes == 0.0));
    }
}
