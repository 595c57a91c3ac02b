//! Arena-vs-Vec equivalence: the columnar, index-backed [`TelemetryStore`]
//! must answer every trace query exactly like the naive flat `Vec<Trace>`
//! store it replaced — same traces, same order, bit-identical floats.
//!
//! The reference implementation below is a deliberate re-creation of the
//! pre-arena data path: a flat list of traces in ingest order, every query a
//! full scan. Property tests feed both stores the same randomly structured
//! traces (duplicate start timestamps, out-of-order ingest, self-calls,
//! repeated call-tree shapes) and compare the whole query surface.
//!
//! A second reference, [`RetainedReference`], adds the retention window and
//! the epoch counter on top of the flat list, and pins that a stream leaves
//! the same store behind however it is cut into ingest calls.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use atlas::telemetry::{
    us_to_ms, PairKey, Span, SpanId, TelemetryStore, Trace, TraceId, Windowing,
};

/// The pre-arena reference store: a flat `Vec<Trace>` in ingest order.
struct VecStore {
    traces: Vec<Trace>,
}

impl VecStore {
    fn new(traces: Vec<Trace>) -> Self {
        Self { traces }
    }

    fn trace_count(&self) -> usize {
        self.traces.len()
    }

    fn span_count(&self) -> usize {
        self.traces.iter().map(|t| t.nodes.len()).sum()
    }

    fn apis(&self) -> Vec<String> {
        let mut v: Vec<String> = self.traces.iter().map(|t| t.api().to_string()).collect();
        v.sort();
        v.dedup();
        v
    }

    fn components(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .traces
            .iter()
            .flat_map(|t| t.spans().map(|s| s.component.to_string()))
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// All traces of an API in time order. A *stable* sort on the root start
    /// keeps ingest order among equal timestamps, which is the arena's
    /// `(root_start_us, trace index)` ordering.
    fn traces_for_api(&self, api: &str) -> Vec<Trace> {
        let mut v: Vec<Trace> = self
            .traces
            .iter()
            .filter(|t| t.api() == api)
            .cloned()
            .collect();
        v.sort_by_key(|t| t.root().start_us);
        v
    }

    fn recent_traces_for_api(&self, api: &str, limit: usize) -> Vec<Trace> {
        let all = self.traces_for_api(api);
        all[all.len().saturating_sub(limit)..].to_vec()
    }

    fn traces_for_api_in(&self, api: &str, start_s: u64, end_s: u64) -> Vec<Trace> {
        let lo = start_s.saturating_mul(1_000_000);
        let hi = end_s.saturating_mul(1_000_000);
        self.traces_for_api(api)
            .into_iter()
            .filter(|t| (lo..hi).contains(&t.root().start_us))
            .collect()
    }

    fn api_trace_count(&self, api: &str) -> usize {
        self.traces.iter().filter(|t| t.api() == api).count()
    }

    /// Mean latency summed in time order, mirroring the arena's summation
    /// over its time-sorted index so the result is bit-identical.
    fn api_mean_latency_ms(&self, api: &str) -> f64 {
        let lat = self.api_latencies_ms(api);
        if lat.is_empty() {
            return 0.0;
        }
        lat.iter().sum::<f64>() / lat.len() as f64
    }

    fn api_latencies_ms(&self, api: &str) -> Vec<f64> {
        self.traces_for_api(api)
            .iter()
            .map(|t| us_to_ms(t.end_to_end_latency_us()))
            .collect()
    }

    fn api_components(&self, api: &str) -> Vec<String> {
        let mut v: Vec<String> = self
            .traces
            .iter()
            .filter(|t| t.api() == api)
            .flat_map(|t| t.spans().map(|s| s.component.to_string()))
            .collect();
        v.sort();
        v.dedup();
        v
    }

    fn api_request_counts_in(&self, start_s: u64, end_s: u64) -> HashMap<String, u64> {
        let lo = start_s.saturating_mul(1_000_000);
        let hi = end_s.saturating_mul(1_000_000);
        let mut out = HashMap::new();
        for t in &self.traces {
            if (lo..hi).contains(&t.root().start_us) {
                *out.entry(t.api().to_string()).or_insert(0u64) += 1;
            }
        }
        out
    }

    /// Invocations of a directed component edge per trace: child spans whose
    /// component differs from the parent's (self-calls are not network
    /// traffic and are never counted).
    fn edge_invocations(trace: &Trace, pair: &PairKey) -> u32 {
        let mut n = 0;
        for node in &trace.nodes {
            if let Some(p) = node.parent {
                let from = &*trace.nodes[p].span.component;
                let to = &*node.span.component;
                if from != to && from == pair.from && to == pair.to {
                    n += 1;
                }
            }
        }
        n
    }

    fn windowed_invocations(
        &self,
        pair: &PairKey,
        windowing: &Windowing,
        window_count: usize,
    ) -> HashMap<String, Vec<f64>> {
        let mut out: HashMap<String, Vec<f64>> = HashMap::new();
        for t in &self.traces {
            let n = Self::edge_invocations(t, pair);
            if n == 0 {
                continue;
            }
            let idx = windowing.index_of_us(t.root().start_us);
            if idx >= window_count {
                continue;
            }
            out.entry(t.api().to_string())
                .or_insert_with(|| vec![0.0; window_count])[idx] += n as f64;
        }
        out
    }

    fn latest_trace_second(&self) -> Option<u64> {
        self.traces
            .iter()
            .map(|t| t.root().start_us)
            .max()
            .map(|us| us / 1_000_000)
    }

    /// Every directed component edge crossed by any trace.
    fn edges(&self) -> Vec<PairKey> {
        let mut seen = HashSet::new();
        for t in &self.traces {
            for node in &t.nodes {
                if let Some(p) = node.parent {
                    let from = &t.nodes[p].span.component;
                    let to = &node.span.component;
                    if from != to {
                        seen.insert((from.clone(), to.clone()));
                    }
                }
            }
        }
        let mut v: Vec<PairKey> = seen
            .into_iter()
            .map(|(from, to)| PairKey::new(&*from, &*to))
            .collect();
        v.sort_by(|a, b| (&a.from, &a.to).cmp(&(&b.from, &b.to)));
        v
    }
}

/// The naive model of a store with a retention window: the flat list, plus
/// the epoch discipline and the eviction rule of
/// `TelemetryStore::ingest_batch` applied by full scans.
struct RetainedReference {
    kept: VecStore,
    window_s: u64,
    epoch: u64,
    ingested: usize,
    evicted: usize,
}

impl RetainedReference {
    fn new(window_s: u64) -> Self {
        Self {
            kept: VecStore::new(Vec::new()),
            window_s,
            epoch: 0,
            ingested: 0,
            evicted: 0,
        }
    }

    fn ingest_batch(&mut self, batch: &[Trace]) {
        if batch.is_empty() {
            return;
        }
        self.epoch += 1;
        self.ingested += batch.len();
        self.kept.traces.extend_from_slice(batch);
        let latest = self.kept.traces.iter().map(|t| t.root().start_us).max();
        let cutoff = latest
            .expect("the batch was not empty")
            .saturating_sub(self.window_s * 1_000_000);
        let before = self.kept.traces.len();
        self.kept.traces.retain(|t| t.root().start_us >= cutoff);
        self.evicted += before - self.kept.traces.len();
    }
}

/// The window grid and the time range the queries are probed with.
struct Probe {
    window_width: u64,
    window_count: usize,
    start_s: u64,
    end_s: u64,
}

/// The arena-backed store answers every trace query like the flat list.
fn assert_matches_reference(store: &TelemetryStore, reference: &VecStore, probe: &Probe) {
    assert_eq!(store.trace_count(), reference.trace_count());
    assert_eq!(store.span_count(), reference.span_count());
    assert_eq!(store.apis(), reference.apis());
    assert_eq!(store.latest_trace_second(), reference.latest_trace_second());

    let mut apis = reference.apis();
    apis.push("/missing".to_string());
    for api in &apis {
        assert_eq!(store.traces_for_api(api), reference.traces_for_api(api));
        for limit in [0usize, 1, 3, 1_000] {
            assert_eq!(
                store.recent_traces_for_api(api, limit),
                reference.recent_traces_for_api(api, limit)
            );
        }
        assert_eq!(
            store.traces_for_api_in(api, probe.start_s, probe.end_s),
            reference.traces_for_api_in(api, probe.start_s, probe.end_s)
        );
        assert_eq!(store.api_trace_count(api), reference.api_trace_count(api));
        assert_eq!(
            store.api_mean_latency_ms(api).to_bits(),
            reference.api_mean_latency_ms(api).to_bits()
        );
        let (got, want) = (store.api_latencies_ms(api), reference.api_latencies_ms(api));
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
        assert_eq!(store.api_components(api), reference.api_components(api));
    }

    assert_eq!(
        store.api_request_counts_in(probe.start_s, probe.end_s),
        reference.api_request_counts_in(probe.start_s, probe.end_s)
    );

    let windowing = Windowing::new(0, probe.window_width);
    let mut edges = reference.edges();
    edges.push(PairKey::new("Nowhere", "Elsewhere"));
    for pair in &edges {
        assert_eq!(
            store.windowed_invocations(pair, &windowing, probe.window_count),
            reference.windowed_invocations(pair, &windowing, probe.window_count)
        );
    }
}

/// Build a deterministic but varied trace from a handful of random words:
/// 1–5 spans, arbitrary tree shape, components drawn from a small pool so
/// duplicate structures, shared edges and self-calls all occur.
fn build_trace(index: usize, api_idx: u8, start_us: u64, seed: u64) -> Trace {
    let t = TraceId(index as u64 + 1);
    let mix = |x: u64| {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 27)
    };
    let root_duration = 1_000 + mix(seed) % 2_000_000;
    let mut spans = vec![Span::new(
        t,
        SpanId(1),
        None,
        format!("C{}", mix(seed ^ 1) % 4),
        format!("/api{api_idx}"),
        start_us,
        root_duration,
    )];
    let extra = (mix(seed ^ 2) % 5) as usize;
    for k in 0..extra {
        let h = mix(seed ^ (k as u64 + 3));
        // Parent is any already-created span, so chains and fan-outs both
        // appear; the component pool overlaps the parent's, so self-calls
        // (never network invocations) appear too.
        let parent = 1 + h % (k as u64 + 1);
        spans.push(Span::new(
            t,
            SpanId(k as u64 + 2),
            Some(SpanId(parent)),
            format!("C{}", (h >> 16) % 6),
            format!("op{}", h % 7),
            start_us + (h >> 24) % 1_000_000,
            1 + (h >> 40) % 500_000,
        ));
    }
    Trace::from_spans(spans).expect("generated spans form a valid trace")
}

proptest! {
    /// The arena-backed store and the flat-Vec reference agree on the whole
    /// query surface for arbitrary trace streams: same traces in the same
    /// order, bit-identical latency statistics, identical window counts and
    /// edge invocation series.
    #[test]
    fn arena_store_matches_the_vec_reference(
        specs in prop::collection::vec(
            (0u8..3, 0u64..20, any::<u64>()), 1..40),
        window_width in 1u64..10,
        window_count in 1usize..8,
        probe_start in 0u64..12,
        probe_len in 1u64..12,
    ) {
        // Quantized start times (500 ms slots) force duplicate root
        // timestamps, so the `(root start, ingest order)` tie-break is
        // exercised, and ingest order is deliberately not time order.
        let traces: Vec<Trace> = specs
            .iter()
            .enumerate()
            .map(|(i, &(api, slot, seed))| build_trace(i, api, slot * 500_000, seed))
            .collect();

        let store = TelemetryStore::new();
        store.ingest_batch(traces.iter().cloned());
        let reference = VecStore::new(traces);

        // Interned names are never evicted, so the component list is only
        // comparable on a store that has not evicted.
        prop_assert_eq!(store.components(), reference.components());
        assert_matches_reference(
            &store,
            &reference,
            &Probe {
                window_width,
                window_count,
                start_s: probe_start,
                end_s: probe_start + probe_len,
            },
        );
    }

    /// A stream leaves the same store behind however it is cut into ingest
    /// calls — one batch, several batches, one `ingest_trace` per trace —
    /// with a retention window evicting (and renumbering) along the way:
    /// each store matches the naive retention model fed the same cuts
    /// (queries, epochs, report sums), and the three
    /// agree on the clustering pass too.
    #[test]
    fn a_stream_ingests_the_same_however_it_is_batched(
        specs in prop::collection::vec(
            (0u8..3, 0u64..60, any::<u64>()), 1..40),
        window_s in 1u64..20,
        cuts in (0usize..40, 0usize..40),
        window_width in 1u64..10,
        probe_start in 0u64..30,
        probe_len in 1u64..12,
    ) {
        let traces: Vec<Trace> = specs
            .iter()
            .enumerate()
            .map(|(i, &(api, slot, seed))| build_trace(i, api, slot * 500_000, seed))
            .collect();
        let probe = Probe {
            window_width,
            window_count: 6,
            start_s: probe_start,
            end_s: probe_start + probe_len,
        };
        let (lo, hi) = (cuts.0.min(cuts.1), cuts.0.max(cuts.1));
        let (lo, hi) = (lo.min(traces.len()), hi.min(traces.len()));
        let one_batch = vec![&traces[..]];
        let split = vec![&traces[..lo], &traces[lo..hi], &traces[hi..]];
        let singly: Vec<&[Trace]> = traces.chunks(1).collect();

        let mut stores = Vec::new();
        for (batches, by_trace) in [(one_batch, false), (split, false), (singly, true)] {
            let store = TelemetryStore::with_retention_window_s(window_s);
            let mut reference = RetainedReference::new(window_s);
            let (mut ingested, mut evicted) = (0, 0);
            for batch in batches {
                reference.ingest_batch(batch);
                if by_trace {
                    store.ingest_trace(batch[0].clone());
                } else {
                    let report = store.ingest_batch(batch.iter().cloned());
                    ingested += report.ingested;
                    evicted += report.evicted;
                    prop_assert_eq!(report.epoch, reference.epoch);
                }
            }
            if !by_trace {
                prop_assert_eq!((ingested, evicted), (reference.ingested, reference.evicted));
            }
            assert_matches_reference(&store, &reference.kept, &probe);
            prop_assert_eq!(store.epoch(), reference.epoch);
            stores.push(store);
        }

        for api in stores[0].apis() {
            for cap in [1usize, 3, 50] {
                let want = stores[0].weighted_traces_for_api(&api, cap);
                for other in &stores[1..] {
                    let got = other.weighted_traces_for_api(&api, cap);
                    prop_assert_eq!(got.len(), want.len());
                    for (g, w) in got.iter().zip(&want) {
                        prop_assert_eq!(&g.trace, &w.trace);
                        prop_assert_eq!(g.weight.to_bits(), w.weight.to_bits());
                    }
                }
            }
        }
    }

    /// Materialising from the columns is lossless: every ingested trace
    /// comes back equal to the original, whichever query returns it.
    #[test]
    fn materialized_traces_round_trip(
        specs in prop::collection::vec((0u8..2, 0u64..50, any::<u64>()), 1..20),
    ) {
        let traces: Vec<Trace> = specs
            .iter()
            .enumerate()
            .map(|(i, &(api, slot, seed))| build_trace(i, api, slot * 1_000_000, seed))
            .collect();
        let store = TelemetryStore::new();
        store.ingest_batch(traces.iter().cloned());

        let mut by_id: HashMap<TraceId, &Trace> = HashMap::new();
        for t in &traces {
            by_id.insert(t.trace_id, t);
        }
        let mut seen = 0;
        for api in store.apis() {
            for got in store.traces_for_api(&api) {
                let original = by_id[&got.trace_id];
                prop_assert_eq!(&got, original);
                seen += 1;
            }
        }
        prop_assert_eq!(seen, traces.len());
    }
}
