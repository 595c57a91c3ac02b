//! Telemetry substrate for Atlas.
//!
//! Atlas (EuroSys '24) is an observability-driven migration advisor: every
//! decision it makes is derived from three telemetry streams that are
//! standard in production microservice deployments (paper §3, Figure 4):
//!
//! 1. **Per-request distributed traces** (Jaeger-style) — a [`trace::Trace`]
//!    is a tree of [`span::Span`]s, one per operation executed on behalf of a
//!    single user-facing API request.
//! 2. **Component-focused resource metrics** (cAdvisor-style) — CPU, memory,
//!    storage, ingress and egress time series per component, modeled by
//!    [`metrics::ComponentMetrics`].
//! 3. **Pairwise network metrics** (Istio-style) — bytes transferred between
//!    every pair of components during requests and responses, modeled by
//!    [`network::PairwiseTraffic`].
//!
//! The [`store::TelemetryStore`] plays the role of the telemetry server
//! (Prometheus + Jaeger query service): the rest of the workspace only ever
//! *queries* it, mirroring the paper's non-intrusive design principle.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod metrics;
pub mod network;
pub mod span;
pub mod store;
pub mod trace;
pub mod window;

pub use arena::{NameInterner, TraceArena, WeightedTrace};
pub use metrics::{ComponentMetrics, MetricKind, MetricPoint, MetricSeries};
pub use network::{Direction, PairKey, PairwiseTraffic, TrafficSample};
pub use span::{IdGenerator, Span, SpanId, TraceId};
pub use store::{IngestReport, TelemetryStore};
pub use trace::{Trace, TraceNode};
pub use window::Windowing;

/// Microseconds since the start of an observation epoch.
///
/// All span timestamps and durations in this workspace are expressed in
/// microseconds, matching the resolution used by Jaeger.
pub type Micros = u64;

/// Seconds since the start of an observation epoch (used for metric windows).
pub type Seconds = u64;

/// Convert microseconds to (floating-point) milliseconds.
#[inline]
pub fn us_to_ms(us: Micros) -> f64 {
    us as f64 / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microseconds_convert_to_milliseconds() {
        assert_eq!(us_to_ms(1_500), 1.5);
        assert_eq!(us_to_ms(0), 0.0);
    }
}
