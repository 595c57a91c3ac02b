//! Component-focused resource metrics (cAdvisor-style).
//!
//! Each component (container) exposes time series for CPU, memory, storage
//! and network traffic. Atlas consumes these series to (i) derive expected
//! resource usage `Ũ^r_c[t]` for the constraint and cost models and (ii) let
//! baseline advisors rank components by busyness (paper §5.2, the greedy
//! baselines).

use std::collections::BTreeMap;

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

    /// Record an observation at its time position: after every point at or
    /// before `timestamp_s`, so an in-order push is an append and points
    /// sharing a timestamp keep the order they arrived in.
    pub fn push(&mut self, timestamp_s: Seconds, value: f64) {
        let at = match self.points.last() {
            Some(last) if last.timestamp_s > timestamp_s => self
                .points
                .partition_point(|p| p.timestamp_s <= timestamp_s),
            _ => self.points.len(),
        };
        self.points.insert(at, MetricPoint { timestamp_s, value });
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
        assert_eq!(s.mean_in(10, 20), 0.0);
    }

    #[test]
    fn a_shuffled_series_equals_the_in_order_one() {
        let points = [(0, 1.0), (5, 3.0), (5, 4.0), (9, 2.0), (30, 0.5), (59, 7.0)];
        let mut in_order = MetricSeries::new();
        for &(t, v) in &points {
            in_order.push(t, v);
        }
        // The two points at t = 5 arrive in the same relative order.
        let mut shuffled = MetricSeries::new();
        for i in [4, 1, 5, 0, 2, 3] {
            let (t, v) = points[i];
            shuffled.push(t, v);
        }
        assert_eq!(shuffled, in_order);
    }

    #[test]
    fn empty_series_statistics_are_zero() {
        let s = MetricSeries::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert!(s.is_empty());
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
    }

    #[test]
    fn metric_kind_display_is_snake_case() {
        assert_eq!(MetricKind::CpuCores.to_string(), "cpu_cores");
        assert_eq!(MetricKind::EgressBytes.to_string(), "egress_bytes");
        assert_eq!(MetricKind::ALL.len(), 5);
    }
}
