//! Pairwise network metrics (Istio-style).
//!
//! Istio's sidecar proxies report, for every pair of communicating
//! components, how many bytes were transferred during requests and during
//! responses over time. Crucially this is *aggregated over all APIs* — the
//! whole point of Atlas's footprint-learning step (paper Eq. 1) is to
//! decompose these aggregates into per-API request/response sizes using the
//! invocation counts derived from traces.

use std::collections::BTreeMap;

use crate::window::Windowing;
use crate::Seconds;

/// Direction of a data transfer on a caller→callee edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// Bytes flowing from the caller to the callee (the request payload).
    Request,
    /// Bytes flowing back from the callee to the caller (the response).
    Response,
}

/// A directed component pair: caller → callee.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PairKey {
    /// Component initiating the communication.
    pub from: String,
    /// Component receiving the request.
    pub to: String,
}

impl PairKey {
    /// Create a pair key.
    pub fn new(from: impl Into<String>, to: impl Into<String>) -> Self {
        Self {
            from: from.into(),
            to: to.into(),
        }
    }
}

impl std::fmt::Display for PairKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} -> {}", self.from, self.to)
    }
}

/// One aggregated observation: bytes transferred on an edge, in a direction,
/// within a time window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSample {
    /// Timestamp of the containing window start, in seconds.
    pub timestamp_s: Seconds,
    /// Bytes transferred during the window.
    pub bytes: f64,
}

/// Pairwise network traffic for the whole application.
///
/// Internally a map from (edge, direction) to a time series of byte counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PairwiseTraffic {
    samples: BTreeMap<(PairKey, Direction), Vec<TrafficSample>>,
}

impl PairwiseTraffic {
    /// Create an empty traffic record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record bytes transferred on `pair` in `direction` at `timestamp_s`.
    ///
    /// The sample lands at its time position, so samples may arrive out of
    /// order and an in-order record is an append. Multiple records with the
    /// same timestamp are accumulated, which is what a sidecar counter would
    /// report when several requests fall in the same scrape interval.
    pub fn record(
        &mut self,
        pair: PairKey,
        direction: Direction,
        timestamp_s: Seconds,
        bytes: f64,
    ) {
        let series = self.samples.entry((pair, direction)).or_default();
        let at = match series.last() {
            Some(last) if last.timestamp_s > timestamp_s => {
                series.partition_point(|s| s.timestamp_s < timestamp_s)
            }
            Some(last) if last.timestamp_s == timestamp_s => series.len() - 1,
            _ => series.len(),
        };
        match series.get_mut(at) {
            Some(sample) if sample.timestamp_s == timestamp_s => sample.bytes += bytes,
            _ => series.insert(at, TrafficSample { timestamp_s, bytes }),
        }
    }

    /// All directed edges with at least one sample.
    pub fn edges(&self) -> Vec<PairKey> {
        let mut v: Vec<PairKey> = self.samples.keys().map(|(k, _)| k.clone()).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Raw samples for an edge/direction, if any.
    pub fn samples(&self, pair: &PairKey, direction: Direction) -> Option<&[TrafficSample]> {
        self.samples
            .get(&(pair.clone(), direction))
            .map(Vec::as_slice)
    }

    /// Total bytes on an edge/direction over the whole observation period.
    pub fn total_bytes(&self, pair: &PairKey, direction: Direction) -> f64 {
        self.samples(pair, direction)
            .map_or(0.0, |s| s.iter().map(|x| x.bytes).sum())
    }

    /// Aggregate the samples of an edge/direction onto fixed windows:
    /// `U^{req/resp}_{ci→cj}[t]` of paper Eq. (1). Returns one total per
    /// window index, covering `window_count` windows.
    pub fn windowed_bytes(
        &self,
        pair: &PairKey,
        direction: Direction,
        windowing: &Windowing,
        window_count: usize,
    ) -> Vec<f64> {
        let mut out = vec![0.0; window_count];
        if let Some(samples) = self.samples(pair, direction) {
            for s in samples {
                let idx = windowing.index_of_s(s.timestamp_s);
                if idx < window_count {
                    out[idx] += s.bytes;
                }
            }
        }
        out
    }

    /// Merge another traffic record into this one (used when combining
    /// telemetry from several simulation shards).
    pub fn merge(&mut self, other: &PairwiseTraffic) {
        for ((pair, dir), samples) in &other.samples {
            for s in samples {
                self.record(pair.clone(), *dir, s.timestamp_s, s.bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> PairKey {
        PairKey::new("FrontendNGINX", "UserService")
    }

    #[test]
    fn record_accumulates_same_timestamp() {
        let mut t = PairwiseTraffic::new();
        t.record(pair(), Direction::Request, 10, 100.0);
        t.record(pair(), Direction::Request, 10, 50.0);
        t.record(pair(), Direction::Request, 11, 25.0);
        let samples = t.samples(&pair(), Direction::Request).unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].bytes, 150.0);
        assert_eq!(t.total_bytes(&pair(), Direction::Request), 175.0);
    }

    #[test]
    fn a_shuffled_record_equals_the_in_order_one() {
        let samples = [(0, 1.0), (5, 3.0), (5, 4.0), (9, 2.0), (30, 0.5), (59, 7.0)];
        let mut in_order = PairwiseTraffic::new();
        for &(t, bytes) in &samples {
            in_order.record(pair(), Direction::Request, t, bytes);
        }
        let mut shuffled = PairwiseTraffic::new();
        for i in [4, 2, 5, 0, 1, 3] {
            let (t, bytes) = samples[i];
            shuffled.record(pair(), Direction::Request, t, bytes);
        }
        assert_eq!(shuffled, in_order);
        assert_eq!(
            in_order.samples(&pair(), Direction::Request).unwrap().len(),
            5
        );
    }

    #[test]
    fn directions_are_independent() {
        let mut t = PairwiseTraffic::new();
        t.record(pair(), Direction::Request, 0, 10.0);
        t.record(pair(), Direction::Response, 0, 99.0);
        assert_eq!(t.total_bytes(&pair(), Direction::Request), 10.0);
        assert_eq!(t.total_bytes(&pair(), Direction::Response), 99.0);
    }

    #[test]
    fn edges_are_unique_and_sorted() {
        let mut t = PairwiseTraffic::new();
        t.record(PairKey::new("B", "C"), Direction::Request, 0, 1.0);
        t.record(PairKey::new("A", "B"), Direction::Request, 0, 1.0);
        t.record(PairKey::new("A", "B"), Direction::Response, 0, 1.0);
        let edges = t.edges();
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0], PairKey::new("A", "B"));
        assert_eq!(edges[1], PairKey::new("B", "C"));
    }

    #[test]
    fn windowed_aggregation_matches_eq1_inputs() {
        let mut t = PairwiseTraffic::new();
        // Two samples in window 0 ([0,5)), one in window 2 ([10,15)).
        t.record(pair(), Direction::Request, 1, 100.0);
        t.record(pair(), Direction::Request, 4, 200.0);
        t.record(pair(), Direction::Request, 11, 300.0);
        let w = Windowing::new(0, 5);
        let windowed = t.windowed_bytes(&pair(), Direction::Request, &w, 4);
        assert_eq!(windowed, vec![300.0, 0.0, 300.0, 0.0]);
    }

    #[test]
    fn merge_combines_records() {
        let mut a = PairwiseTraffic::new();
        a.record(pair(), Direction::Request, 0, 5.0);
        let mut b = PairwiseTraffic::new();
        b.record(pair(), Direction::Request, 1, 7.0);
        b.record(PairKey::new("X", "Y"), Direction::Response, 3, 2.0);
        a.merge(&b);
        assert_eq!(a.total_bytes(&pair(), Direction::Request), 12.0);
        assert_eq!(
            a.total_bytes(&PairKey::new("X", "Y"), Direction::Response),
            2.0
        );
    }

    #[test]
    fn missing_edge_queries_return_zero() {
        let t = PairwiseTraffic::new();
        assert_eq!(t.total_bytes(&pair(), Direction::Request), 0.0);
        assert!(t.samples(&pair(), Direction::Request).is_none());
        let w = Windowing::new(0, 5);
        assert_eq!(
            t.windowed_bytes(&pair(), Direction::Request, &w, 3),
            vec![0.0, 0.0, 0.0]
        );
    }
}
