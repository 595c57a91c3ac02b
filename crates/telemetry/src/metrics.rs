//! Component-focused resource metrics (cAdvisor-style).
//!
//! Each component (container) exposes time series for CPU, memory, storage
//! and network traffic. Atlas consumes these series to (i) derive expected
//! resource usage `Ũ^r_c[t]` for the constraint and cost models and (ii) let
//! baseline advisors rank components by busyness (paper §5.2, the greedy
//! baselines).

use std::collections::BTreeMap;

use crate::window::Windowing;
use crate::Seconds;

/// The resource dimensions recorded per component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MetricKind {
    /// CPU usage in cores (1.0 = one fully-busy core).
    CpuCores,
    /// Memory usage in gigabytes.
    MemoryGb,
    /// Persistent storage usage in gigabytes.
    StorageGb,
    /// Ingress traffic in bytes per window.
    IngressBytes,
    /// Egress traffic in bytes per window.
    EgressBytes,
}

impl MetricKind {
    /// All metric kinds, in a stable order.
    pub const ALL: [MetricKind; 5] = [
        MetricKind::CpuCores,
        MetricKind::MemoryGb,
        MetricKind::StorageGb,
        MetricKind::IngressBytes,
        MetricKind::EgressBytes,
    ];
}

impl std::fmt::Display for MetricKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MetricKind::CpuCores => "cpu_cores",
            MetricKind::MemoryGb => "memory_gb",
            MetricKind::StorageGb => "storage_gb",
            MetricKind::IngressBytes => "ingress_bytes",
            MetricKind::EgressBytes => "egress_bytes",
        };
        f.write_str(s)
    }
}

/// A single observation of a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricPoint {
    /// Timestamp of the observation in seconds since the epoch.
    pub timestamp_s: Seconds,
    /// Observed value (unit depends on [`MetricKind`]).
    pub value: f64,
}

/// A time-ordered series of observations for one metric of one component.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSeries {
    points: Vec<MetricPoint>,
}

impl MetricSeries {
    /// Create an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an observation. Observations must be pushed in non-decreasing
    /// timestamp order; out-of-order pushes are rejected.
    pub fn push(&mut self, timestamp_s: Seconds, value: f64) {
        if let Some(last) = self.points.last() {
            assert!(
                timestamp_s >= last.timestamp_s,
                "metric observations must be pushed in time order"
            );
        }
        self.points.push(MetricPoint { timestamp_s, value });
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no observations.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All observations in time order.
    pub fn points(&self) -> &[MetricPoint] {
        &self.points
    }

    /// Average value over the whole series (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.value).sum::<f64>() / self.points.len() as f64
    }

    /// Maximum value over the whole series (0.0 if empty).
    pub fn max(&self) -> f64 {
        self.points.iter().map(|p| p.value).fold(0.0, f64::max)
    }

    /// Average value restricted to `[start_s, end_s)` (0.0 if no points).
    pub fn mean_in(&self, start_s: Seconds, end_s: Seconds) -> f64 {
        let vals: Vec<f64> = self
            .points
            .iter()
            .filter(|p| p.timestamp_s >= start_s && p.timestamp_s < end_s)
            .map(|p| p.value)
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }

    /// Sum of values restricted to `[start_s, end_s)`.
    pub fn sum_in(&self, start_s: Seconds, end_s: Seconds) -> f64 {
        self.points
            .iter()
            .filter(|p| p.timestamp_s >= start_s && p.timestamp_s < end_s)
            .map(|p| p.value)
            .sum()
    }

    /// Re-aggregate the series onto fixed windows, averaging the points that
    /// fall into each window. Returns one value per window index covering the
    /// full series; windows with no observations carry the previous value
    /// (or 0.0 at the beginning).
    pub fn resample_mean(&self, windowing: &Windowing) -> Vec<f64> {
        if self.points.is_empty() {
            return Vec::new();
        }
        let last_ts = self.points.last().expect("non-empty").timestamp_s;
        let n = windowing.count_until(last_ts + 1).max(1);
        let mut sums = vec![0.0f64; n];
        let mut counts = vec![0usize; n];
        for p in &self.points {
            let idx = windowing.index_of_s(p.timestamp_s);
            if idx < n {
                sums[idx] += p.value;
                counts[idx] += 1;
            }
        }
        let mut out = vec![0.0f64; n];
        let mut prev = 0.0;
        for i in 0..n {
            if counts[i] > 0 {
                prev = sums[i] / counts[i] as f64;
            }
            out[i] = prev;
        }
        out
    }
}

/// All metric series of a single component.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ComponentMetrics {
    /// Component (container) name.
    pub component: String,
    series: BTreeMap<MetricKind, MetricSeries>,
}

impl ComponentMetrics {
    /// Create an empty metric set for a component.
    pub fn new(component: impl Into<String>) -> Self {
        Self {
            component: component.into(),
            series: BTreeMap::new(),
        }
    }

    /// Record one observation.
    pub fn record(&mut self, kind: MetricKind, timestamp_s: Seconds, value: f64) {
        self.series
            .entry(kind)
            .or_default()
            .push(timestamp_s, value);
    }

    /// Series for a metric kind, if any observation exists.
    pub fn series(&self, kind: MetricKind) -> Option<&MetricSeries> {
        self.series.get(&kind)
    }

    /// Mean of a metric over the whole observation period (0.0 if absent).
    pub fn mean(&self, kind: MetricKind) -> f64 {
        self.series.get(&kind).map_or(0.0, MetricSeries::mean)
    }

    /// Peak of a metric over the whole observation period (0.0 if absent).
    pub fn max(&self, kind: MetricKind) -> f64 {
        self.series.get(&kind).map_or(0.0, MetricSeries::max)
    }

    /// Mean of a metric over `[start_s, end_s)`.
    pub fn mean_in(&self, kind: MetricKind, start_s: Seconds, end_s: Seconds) -> f64 {
        self.series
            .get(&kind)
            .map_or(0.0, |s| s.mean_in(start_s, end_s))
    }

    /// Which metric kinds have at least one observation.
    pub fn kinds(&self) -> impl Iterator<Item = MetricKind> + '_ {
        self.series.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_statistics() {
        let mut s = MetricSeries::new();
        s.push(0, 1.0);
        s.push(1, 3.0);
        s.push(2, 2.0);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert_eq!(s.max(), 3.0);
        assert_eq!(s.mean_in(1, 3), 2.5);
        assert_eq!(s.sum_in(0, 2), 4.0);
        assert_eq!(s.mean_in(10, 20), 0.0);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_push_panics() {
        let mut s = MetricSeries::new();
        s.push(5, 1.0);
        s.push(4, 1.0);
    }

    #[test]
    fn empty_series_statistics_are_zero() {
        let s = MetricSeries::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert!(s.is_empty());
        assert!(s.resample_mean(&Windowing::new(0, 5)).is_empty());
    }

    #[test]
    fn resampling_averages_within_windows_and_forward_fills() {
        let mut s = MetricSeries::new();
        s.push(0, 2.0);
        s.push(1, 4.0); // window 0 → mean 3.0
        s.push(12, 10.0); // window 2 → 10.0; window 1 forward-fills 3.0
        let w = Windowing::new(0, 5);
        let resampled = s.resample_mean(&w);
        assert_eq!(resampled.len(), 3);
        assert_eq!(resampled[0], 3.0);
        assert_eq!(resampled[1], 3.0);
        assert_eq!(resampled[2], 10.0);
    }

    #[test]
    fn component_metrics_record_and_query() {
        let mut m = ComponentMetrics::new("UserService");
        m.record(MetricKind::CpuCores, 0, 0.5);
        m.record(MetricKind::CpuCores, 10, 1.5);
        m.record(MetricKind::MemoryGb, 0, 2.0);
        assert_eq!(m.component, "UserService");
        assert!((m.mean(MetricKind::CpuCores) - 1.0).abs() < 1e-12);
        assert_eq!(m.max(MetricKind::CpuCores), 1.5);
        assert_eq!(m.mean(MetricKind::StorageGb), 0.0);
        assert_eq!(m.mean_in(MetricKind::CpuCores, 5, 15), 1.5);
        assert_eq!(m.kinds().count(), 2);
    }

    #[test]
    fn metric_kind_display_is_snake_case() {
        assert_eq!(MetricKind::CpuCores.to_string(), "cpu_cores");
        assert_eq!(MetricKind::EgressBytes.to_string(), "egress_bytes");
        assert_eq!(MetricKind::ALL.len(), 5);
    }
}
