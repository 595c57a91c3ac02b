//! Delay injection: estimating post-migration API latency from existing
//! traces (paper §4.1.1, Figure 6).
//!
//! Given a trace collected under the current placement, a candidate plan and
//! the learned network footprint, the injector replays the trace's execution
//! workflow and shifts span timestamps by the extra (or saved) network delay
//! `Δ` (Eq. 2) on every caller→callee hop whose endpoints' relative location
//! changes. Downstream operations cascade: sequential successors start
//! later, parallel siblings shift independently, and background operations
//! never extend the end-to-end latency.

use atlas_sim::{Placement, SiteId, SiteNetwork};
use atlas_telemetry::Trace;

use crate::footprint::NetworkFootprint;

/// Estimates post-migration latencies by replaying traces with injected
/// delays over a [`SiteNetwork`] ([`SiteNetwork::default`] is the paper's
/// two measured links).
#[derive(Debug, Clone, Copy)]
pub struct DelayInjector<'a> {
    network: &'a SiteNetwork,
    /// Component name → index used by the placements.
    component_index: &'a [String],
}

impl<'a> DelayInjector<'a> {
    /// Create an injector over a link matrix for an application whose
    /// components are indexed by `component_index` (the same order used by
    /// [`Placement`]).
    pub fn new(network: &'a SiteNetwork, component_index: &'a [String]) -> Self {
        Self {
            network,
            component_index,
        }
    }

    fn site_of(&self, placement: &Placement, component: &str) -> SiteId {
        match self.component_index.iter().position(|c| c == component) {
            Some(i) => placement.site(atlas_sim::ComponentId(i)),
            // Unknown components (e.g. external clients) are treated as
            // collocated with the on-prem entry point.
            None => SiteId::ON_PREM,
        }
    }

    /// The delay delta Δ (µs) of one caller→callee exchange when moving from
    /// `current` to `candidate` placement (Eq. 2).
    fn delta_us(
        &self,
        api: &str,
        caller: &str,
        callee: &str,
        footprint: &NetworkFootprint,
        current: &Placement,
        candidate: &Placement,
    ) -> f64 {
        let (req, resp) = footprint.get_or_zero(api, caller, callee);
        self.network.delay_delta_us(
            self.site_of(current, caller),
            self.site_of(current, callee),
            self.site_of(candidate, caller),
            self.site_of(candidate, callee),
            req,
            resp,
        )
    }

    /// Estimate the end-to-end latency (ms) of one trace under `candidate`.
    pub fn estimate_trace_latency_ms(
        &self,
        trace: &Trace,
        footprint: &NetworkFootprint,
        current: &Placement,
        candidate: &Placement,
    ) -> f64 {
        let api = trace.api();
        let root_start = trace.root().start_us;
        let new_end = self.inject(
            trace,
            0,
            root_start as f64,
            api,
            footprint,
            current,
            candidate,
        );
        (new_end - root_start as f64).max(0.0) / 1_000.0
    }

    /// Estimate the mean post-migration latency (ms) of an API from a set of
    /// its traces (the paper repeats delay injection over ~100 traces and
    /// uses the average).
    pub fn estimate_api_latency_ms(
        &self,
        traces: &[Trace],
        footprint: &NetworkFootprint,
        current: &Placement,
        candidate: &Placement,
    ) -> f64 {
        if traces.is_empty() {
            return 0.0;
        }
        traces
            .iter()
            .map(|t| self.estimate_trace_latency_ms(t, footprint, current, candidate))
            .sum::<f64>()
            / traces.len() as f64
    }

    /// Weighted mean post-migration latency (ms) of an API: each trace is a
    /// clustered representative standing for `weights[i]` raw traces, so the
    /// mean is `Σ wᵢ·latᵢ / Σ wᵢ`. With an empty (or all-ones) weight slice
    /// this reproduces [`DelayInjector::estimate_api_latency_ms`] bit for
    /// bit, which is what keeps the compiled kernel and this interpretive
    /// oracle exactly aligned on unclustered profiles.
    pub fn estimate_api_latency_ms_weighted(
        &self,
        traces: &[Trace],
        weights: &[f64],
        footprint: &NetworkFootprint,
        current: &Placement,
        candidate: &Placement,
    ) -> f64 {
        if traces.is_empty() {
            return 0.0;
        }
        if weights.is_empty() {
            return self.estimate_api_latency_ms(traces, footprint, current, candidate);
        }
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, t) in traces.iter().enumerate() {
            let w = weights.get(i).copied().unwrap_or(1.0);
            num += w * self.estimate_trace_latency_ms(t, footprint, current, candidate);
            den += w;
        }
        num / den
    }

    /// The estimated latency distribution (ms, one sample per trace): the
    /// reference the kernel's drift baseline (Figure 7 / §4.3) is pinned to.
    pub fn estimate_latency_distribution_ms(
        &self,
        traces: &[Trace],
        footprint: &NetworkFootprint,
        current: &Placement,
        candidate: &Placement,
    ) -> Vec<f64> {
        traces
            .iter()
            .map(|t| self.estimate_trace_latency_ms(t, footprint, current, candidate))
            .collect()
    }

    /// Recursively re-time the subtree rooted at `node`, starting it at
    /// `new_start` (µs, fractional), and return the new end time of its
    /// foreground work.
    #[allow(clippy::too_many_arguments)]
    fn inject(
        &self,
        trace: &Trace,
        node: usize,
        new_start: f64,
        api: &str,
        footprint: &NetworkFootprint,
        current: &Placement,
        candidate: &Placement,
    ) -> f64 {
        let span = &trace.nodes[node].span;
        let orig_start = span.start_us as f64;
        let orig_end = span.end_us() as f64;

        // Partition children into foreground and background, keeping the
        // original start order (children are already sorted by start time).
        let children = trace.children(node);
        let foreground: Vec<usize> = children
            .iter()
            .copied()
            .filter(|&c| !trace.is_background(c))
            .collect();
        let background: Vec<usize> = children
            .iter()
            .copied()
            .filter(|&c| trace.is_background(c))
            .collect();

        // Group foreground children into sequential "waves" of parallel
        // siblings: a child joins the current wave if it starts before the
        // wave's latest end so far (i.e. it overlaps the wave).
        let mut waves: Vec<Vec<usize>> = Vec::new();
        let mut wave_end = f64::NEG_INFINITY;
        for &c in &foreground {
            let cs = trace.nodes[c].span.start_us as f64;
            let ce = trace.nodes[c].span.end_us() as f64;
            if waves.is_empty() || cs >= wave_end {
                waves.push(vec![c]);
                wave_end = ce;
            } else {
                waves.last_mut().expect("non-empty").push(c);
                wave_end = wave_end.max(ce);
            }
        }

        let mut prev_end_orig = orig_start;
        let mut prev_end_new = new_start;

        for wave in &waves {
            let wave_orig_start = wave
                .iter()
                .map(|&c| trace.nodes[c].span.start_us as f64)
                .fold(f64::INFINITY, f64::min);
            // Time the parent spent before triggering this wave.
            let gap = (wave_orig_start - prev_end_orig).max(0.0);
            let wave_new_base = prev_end_new + gap;

            let mut wave_end_orig = prev_end_orig;
            let mut wave_end_new = prev_end_new;
            for &c in wave {
                let child_span = &trace.nodes[c].span;
                let child_orig_start = child_span.start_us as f64;
                let delta = self.delta_us(
                    api,
                    &span.component,
                    &child_span.component,
                    footprint,
                    current,
                    candidate,
                );
                let child_new_start = wave_new_base + (child_orig_start - wave_orig_start) + delta;
                let child_new_end = self.inject(
                    trace,
                    c,
                    child_new_start,
                    api,
                    footprint,
                    current,
                    candidate,
                );
                wave_end_orig = wave_end_orig.max(child_span.end_us() as f64);
                wave_end_new = wave_end_new.max(child_new_end);
            }
            prev_end_orig = wave_end_orig;
            prev_end_new = wave_end_new;
        }

        // Background children: re-timed for completeness (their own spans
        // shift) but they do not extend the parent's foreground end.
        for &c in &background {
            let child_span = &trace.nodes[c].span;
            let delta = self.delta_us(
                api,
                &span.component,
                &child_span.component,
                footprint,
                current,
                candidate,
            );
            let gap = (child_span.start_us as f64 - prev_end_orig).max(0.0);
            let child_new_start = prev_end_new + gap + delta;
            let _ = self.inject(
                trace,
                c,
                child_new_start,
                api,
                footprint,
                current,
                candidate,
            );
        }

        // The parent's trailing own-compute after its last foreground wave.
        prev_end_new + (orig_end - prev_end_orig).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_sim::ComponentId;
    use atlas_telemetry::{Span, SpanId, TraceId};

    /// The Figure 6 trace: Frontend(0..10000) with URLShorten(1000..3000) ∥
    /// Media(1200..4000), then PostStorage(4500..6500), then background
    /// WriteHomeTimeline(7000..15000); root ends at 10000.
    fn figure6_trace() -> Trace {
        let t = TraceId(1);
        let spans = vec![
            Span::new(t, SpanId(0), None, "Frontend", "/composeAPI", 0, 10_000),
            Span::new(
                t,
                SpanId(1),
                Some(SpanId(0)),
                "URLShorten",
                "shorten",
                1_000,
                2_000,
            ),
            Span::new(
                t,
                SpanId(2),
                Some(SpanId(0)),
                "Media",
                "filter",
                1_200,
                2_800,
            ),
            Span::new(
                t,
                SpanId(3),
                Some(SpanId(0)),
                "PostStorage",
                "store",
                4_500,
                2_000,
            ),
            Span::new(
                t,
                SpanId(4),
                Some(SpanId(0)),
                "WriteHomeTimeline",
                "fanout",
                7_000,
                8_000,
            ),
        ];
        Trace::from_spans(spans).unwrap()
    }

    fn injector() -> DelayInjector<'static> {
        static PARTS: std::sync::OnceLock<(SiteNetwork, Vec<String>)> = std::sync::OnceLock::new();
        let (network, components) = PARTS.get_or_init(|| {
            let names = [
                "Frontend",
                "URLShorten",
                "Media",
                "PostStorage",
                "WriteHomeTimeline",
            ];
            (SiteNetwork::default(), names.map(String::from).to_vec())
        });
        DelayInjector::new(network, components)
    }

    fn footprint() -> NetworkFootprint {
        let mut fp = NetworkFootprint::new();
        fp.insert("/composeAPI", "Frontend", "URLShorten", 300.0, 60.0);
        fp.insert("/composeAPI", "Frontend", "Media", 5_000.0, 100.0);
        fp.insert("/composeAPI", "Frontend", "PostStorage", 1_200.0, 80.0);
        fp.insert("/composeAPI", "Frontend", "WriteHomeTimeline", 900.0, 0.0);
        fp
    }

    #[test]
    fn identity_plan_preserves_latency() {
        let trace = figure6_trace();
        let inj = injector();
        let current = Placement::all_onprem(5);
        let est = inj.estimate_trace_latency_ms(&trace, &footprint(), &current, &current);
        assert!(
            (est - 10.0).abs() < 1e-6,
            "identity injection must be exact, got {est}"
        );
    }

    #[test]
    fn offloading_background_component_does_not_change_latency() {
        let trace = figure6_trace();
        let inj = injector();
        let current = Placement::all_onprem(5);
        let candidate = Placement::all_onprem(5).with_cloud(ComponentId(4));
        let est = inj.estimate_trace_latency_ms(&trace, &footprint(), &current, &candidate);
        assert!(
            (est - 10.0).abs() < 1e-6,
            "background offload must be free, got {est}"
        );
    }

    #[test]
    fn offloading_sequential_component_adds_a_round_trip() {
        let trace = figure6_trace();
        let inj = injector();
        let current = Placement::all_onprem(5);
        let candidate = Placement::all_onprem(5).with_cloud(ComponentId(3));
        let est = inj.estimate_trace_latency_ms(&trace, &footprint(), &current, &candidate);
        // Inter-DC RTT ≈ 2 × 23.015 ms ≈ 46 ms on top of the original 10 ms.
        assert!(
            est > 50.0,
            "sequential offload must add ≈ one RTT, got {est}"
        );
        assert!(est < 70.0, "only one exchange crosses the WAN, got {est}");
    }

    #[test]
    fn offloading_the_shorter_parallel_branch_is_cheaper_than_the_critical_one() {
        let trace = figure6_trace();
        let inj = injector();
        let current = Placement::all_onprem(5);
        // URLShorten (ends at 3000) hides behind Media (ends at 4000):
        // offloading it only costs the delay exceeding the 1000 µs of slack.
        let offload_url = Placement::all_onprem(5).with_cloud(ComponentId(1));
        let offload_media = Placement::all_onprem(5).with_cloud(ComponentId(2));
        let est_url = inj.estimate_trace_latency_ms(&trace, &footprint(), &current, &offload_url);
        let est_media =
            inj.estimate_trace_latency_ms(&trace, &footprint(), &current, &offload_media);
        assert!(
            est_media > est_url,
            "offloading the critical parallel branch ({est_media}) must hurt more than the hidden one ({est_url})"
        );
    }

    #[test]
    fn moving_both_endpoints_to_the_cloud_keeps_them_collocated() {
        let trace = figure6_trace();
        let inj = injector();
        let current = Placement::all_onprem(5);
        // Moving the Frontend itself to the cloud keeps the Frontend→child
        // links fast only for children that also moved.
        let all_cloud = Placement::all_cloud(5);
        let est = inj.estimate_trace_latency_ms(&trace, &footprint(), &current, &all_cloud);
        assert!(
            (est - 10.0).abs() < 1e-6,
            "fully-cloud placement has no WAN hop, got {est}"
        );
    }

    #[test]
    fn distribution_has_one_sample_per_trace() {
        let traces = vec![figure6_trace(), figure6_trace(), figure6_trace()];
        let inj = injector();
        let current = Placement::all_onprem(5);
        let candidate = Placement::all_onprem(5).with_cloud(ComponentId(3));
        let dist =
            inj.estimate_latency_distribution_ms(&traces, &footprint(), &current, &candidate);
        assert_eq!(dist.len(), 3);
        assert!(
            (dist[0] - dist[1]).abs() < 1e-9,
            "identical traces, identical estimates"
        );
        let mean = inj.estimate_api_latency_ms(&traces, &footprint(), &current, &candidate);
        assert!((mean - dist[0]).abs() < 1e-9);
        assert_eq!(
            inj.estimate_api_latency_ms(&[], &footprint(), &current, &candidate),
            0.0
        );
    }

    #[test]
    fn unknown_components_default_to_onprem() {
        let trace = figure6_trace();
        // The injector only knows about a subset of the components.
        let (network, known) = (SiteNetwork::default(), ["Frontend".to_string()]);
        let inj = DelayInjector::new(&network, &known);
        let current = Placement::all_onprem(1);
        let est = inj.estimate_trace_latency_ms(&trace, &footprint(), &current, &current);
        assert!((est - 10.0).abs() < 1e-6);
    }
}
