//! Spans: the unit of work recorded by distributed tracing.
//!
//! A span corresponds to one operation executed by one component while
//! serving a single API request (paper §3, Figure 4). Spans carry the parent
//! span that triggered them, so a set of spans sharing a trace id forms a
//! tree rooted at the entry component (e.g. `FrontendNGINX`).

use std::sync::Arc;

use crate::Micros;

/// Identifier of a trace: one trace per API request received by the
/// application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifier of a span within the whole telemetry stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace-{:016x}", self.0)
    }
}

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "span-{:016x}", self.0)
    }
}

/// A single operation executed by a component on behalf of an API request.
///
/// The attribute set intentionally mirrors the Jaeger span model the paper
/// relies on: component (service) name, operation name, start timestamp and
/// duration, plus the parent span id that lets a [`crate::Trace`] reconstruct
/// the execution tree.
///
/// Names are shared, not owned: a trace corpus names a few hundred
/// components and operations across hundreds of thousands of spans, so
/// every producer (the simulator, [`crate::TraceArena::materialize`]) hands
/// out one `Arc<str>` per distinct name and a span clone is a reference
/// count bump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Trace this span belongs to.
    pub trace_id: TraceId,
    /// Unique id of this span.
    pub span_id: SpanId,
    /// Parent span that triggered this operation (`None` for the root span).
    pub parent_id: Option<SpanId>,
    /// Name of the component (container / service) executing the operation.
    pub component: Arc<str>,
    /// Operation name, e.g. `/composeAPI` or `MongoFind`.
    pub operation: Arc<str>,
    /// Start timestamp in microseconds since the observation epoch.
    pub start_us: Micros,
    /// Duration of the operation in microseconds.
    pub duration_us: Micros,
}

impl Span {
    /// Create a new span.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        trace_id: TraceId,
        span_id: SpanId,
        parent_id: Option<SpanId>,
        component: impl Into<Arc<str>>,
        operation: impl Into<Arc<str>>,
        start_us: Micros,
        duration_us: Micros,
    ) -> Self {
        Self {
            trace_id,
            span_id,
            parent_id,
            component: component.into(),
            operation: operation.into(),
            start_us,
            duration_us,
        }
    }

    /// End timestamp (start + duration) in microseconds.
    #[inline]
    pub fn end_us(&self) -> Micros {
        self.start_us + self.duration_us
    }
}

/// Monotonic generator for span / trace identifiers.
///
/// The simulator uses one generator per run so that ids are deterministic
/// given a seed, which keeps the experiments reproducible.
#[derive(Debug, Default, Clone)]
pub struct IdGenerator {
    next_trace: u64,
    next_span: u64,
}

impl IdGenerator {
    /// Create a generator starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate the next trace id.
    pub fn next_trace_id(&mut self) -> TraceId {
        let id = TraceId(self.next_trace);
        self.next_trace += 1;
        id
    }

    /// Allocate the next span id.
    pub fn next_span_id(&mut self) -> SpanId {
        let id = SpanId(self.next_span);
        self.next_span += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: Micros, dur: Micros) -> Span {
        Span::new(TraceId(1), SpanId(1), None, "A", "op", start, dur)
    }

    #[test]
    fn end_is_start_plus_duration() {
        let s = span(100, 50);
        assert_eq!(s.end_us(), 150);
    }

    #[test]
    fn id_generator_is_monotonic_and_unique() {
        let mut g = IdGenerator::new();
        let t0 = g.next_trace_id();
        let t1 = g.next_trace_id();
        let s0 = g.next_span_id();
        let s1 = g.next_span_id();
        assert_ne!(t0, t1);
        assert_ne!(s0, s1);
        assert!(t0 < t1);
        assert!(s0 < s1);
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(TraceId(255).to_string(), "trace-00000000000000ff");
        assert_eq!(SpanId(16).to_string(), "span-0000000000000010");
    }
}
