//! Benchmark-side spans: one per call into a layer's public function, kept
//! in memory during the run and written out when it ends.
//!
//! The op loops take the same timestamps traced or not (they need them for
//! the op latency); a traced op additionally records them here, after the
//! timed region. A *derived* span is one whose duration the program itself
//! reported (a `ServiceEvent`, `HubReport::latency_ms`, `EvalStats`): it is
//! placed inside its parent because the benchmark cannot see the call from
//! outside.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

pub type SpanId = u32;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    /// Identifier shared by the spans of one op.
    op: u32,
    derived: bool,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span measured from outside, between two instants.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(name, parent, op, start_ns, end_ns, false)
    }

    /// Record a derived span of `duration_ms` ending `end_offset_ms` before
    /// its parent ends (clamped into the parent).
    pub fn derived(
        &mut self,
        name: &'static str,
        parent: SpanId,
        duration_ms: f64,
        end_offset_ms: f64,
    ) -> SpanId {
        let (p_start, p_end, op) = {
            let p = &self.spans[parent as usize];
            (p.start_ns, p.end_ns, p.op)
        };
        let end = p_end.saturating_sub((end_offset_ms.max(0.0) * 1e6) as u64);
        let start = end
            .saturating_sub((duration_ms.max(0.0) * 1e6) as u64)
            .max(p_start);
        self.push(name, Some(parent), op, start, end.max(start), true)
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u32,
        start_ns: u64,
        end_ns: u64,
        derived: bool,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
            derived,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent as usize].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.clamp(cursor, span.end_ns);
                    let end = end.clamp(start, span.end_ns);
                    covered += end - start;
                    cursor = end;
                }
                (span.end_ns - span.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Share of root-span time covered by child spans.
    pub fn accounted_ratio(&self) -> f64 {
        let selfs = self.self_times_ns();
        let (mut total, mut own) = (0u64, 0u64);
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            if span.parent.is_none() {
                total += span.end_ns - span.start_ns;
                own += self_ns;
            }
        }
        if total == 0 {
            0.0
        } else {
            1.0 - own as f64 / total as f64
        }
    }

    /// The ranked "where the time goes" rows: `(name, self ms per op, share
    /// of all op time)`, largest first. `ops` is the number of root spans.
    pub fn ranked(&self) -> Vec<(&'static str, f64, f64)> {
        let ops = self.spans.iter().filter(|s| s.parent.is_none()).count();
        let total: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            *self_ns.entry(span.name).or_default() += own;
        }
        let mut rows: Vec<(&'static str, f64, f64)> = self_ns
            .into_iter()
            .map(|(name, own)| {
                (
                    name,
                    own as f64 / 1e6 / ops.max(1) as f64,
                    own as f64 / total.max(1) as f64,
                )
            })
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
        rows
    }

    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::Str(s.name.into())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                    ("op", Json::Num(f64::from(s.op))),
                    ("derived", Json::Bool(s.derived)),
                ])
            })
            .collect();
        let ranked = self
            .ranked()
            .into_iter()
            .map(|(name, ms, share)| {
                Json::obj([
                    ("name", Json::Str(name.into())),
                    ("self_ms_per_op", Json::Num(ms)),
                    ("share", Json::Num(share)),
                ])
            })
            .collect();
        Json::obj([
            ("self_time", Json::Arr(ranked)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_the_span_minus_what_children_cover() {
        let origin = Instant::now();
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let mut tracer = Tracer::new(origin);
        let op = tracer.span("op", None, 0, at(0), at(100));
        tracer.span("a", Some(op), 0, at(0), at(30));
        let b = tracer.span("b", Some(op), 0, at(30), at(90));
        tracer.derived("b.inner", b, 20.0, 10.0);
        let selfs = tracer.self_times_ns();
        assert_eq!(selfs[0], 10_000_000);
        assert_eq!(selfs[1], 30_000_000);
        assert_eq!(selfs[2], 40_000_000);
        assert_eq!(selfs[3], 20_000_000);
        // The derived span sits inside its parent, 10 ms before its end.
        assert_eq!(tracer.spans[3].end_ns, 80_000_000);
        assert!((tracer.accounted_ratio() - 0.9).abs() < 1e-9);
        // Self times partition the op.
        assert_eq!(selfs.iter().sum::<u64>(), 100_000_000);
        assert_eq!(tracer.ranked()[0].0, "b");
    }
}
