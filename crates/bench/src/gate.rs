//! The bench regression gate: fail CI loudly when the evaluation layer
//! gets slower.
//!
//! The benches write machine-readable snapshots (`BENCH_recommender.json`,
//! `BENCH_scale.json`, `BENCH_service.json`) at the workspace root, and the
//! committed copies act as the performance baseline of the previous PR.
//! [`check`] compares freshly generated documents against the committed
//! ones and reports a failure when
//!
//! * the fresh `parallel_speedup` drops below 1.0 (threads must never make
//!   evaluation slower — the regression PR 4 fixed),
//! * a tracked evaluations-per-second figure (the scale sweep's smallest
//!   point and the recommender's end-to-end run) regresses by more than 2×
//!   against its committed value,
//! * the batched structure-of-arrays scoring path falls behind the scalar
//!   kernel (`batch_evals_per_sec` vs `scalar_evals_per_sec`) at any fresh
//!   sweep point,
//! * a batch-only search scores its plans at the one-plan rate: at any
//!   fresh uniform-crossover sweep point with [`MIN_ROUTED_COMPONENTS`]+
//!   components the in-search `evals_per_sec` is nearer
//!   `scalar_evals_per_sec` than `batch_evals_per_sec` (offspring routed
//!   to the wrong scorer),
//! * the arena ingest throughput (`ingest_traces_per_sec`) regresses by more
//!   than 2× against its committed value,
//! * the delta-native offspring scoring throughput
//!   (`search_evals_per_sec` at the sweep's smallest point) regresses by
//!   more than 2× against its committed value,
//! * the recommendation front shrinks: at any fresh sweep point with 100+
//!   components, `front_size` drops below the committed snapshot's (an
//!   exact integer comparison — the search is seeded, so losing a plan
//!   means the archive or the delta path changed behaviour, not noise), or
//! * at the high-volume companion point, clustered learning loses its edge
//!   over the Vec-store baseline (`learn_speedup` below
//!   [`MIN_LEARN_SPEEDUP`]) or `learn_ms` more than doubles against the
//!   committed snapshot, or
//! * the resident-advisor service sweep misbehaves: its streaming-ingest
//!   throughput regresses by more than 2×, the drift corpus trips no
//!   detector, single-API incremental relearn loses its edge over a cold
//!   rebuild (`relearn_speedup` below [`MIN_RELEARN_SPEEDUP`]), or the
//!   drift-to-new-recommendation latency more than doubles against the
//!   committed snapshot, or
//! * the multi-tenant serving grid misbehaves: a concurrent answer diverges
//!   from the serial ground truth (`deterministic` 0 — a hard gate, the
//!   hub's epoch-snapshot contract), the single-evaluator-thread point's
//!   concurrent throughput loses its edge over the serial loop
//!   (`speedup_vs_serial` below [`MIN_SERVING_SPEEDUP`] with more than one
//!   worker), or a serving point's requests/second or p99 latency regresses
//!   by more than 2× against the committed snapshot.
//!
//! The comparison reads the JSON with a purpose-built scanner rather than a
//! JSON crate: the files are generated by this workspace, and the offline
//! build environment has no `serde_json`. `cargo run -p atlas-bench --bin
//! bench_check -- <baseline-dir>` is the CI entry point; CI snapshots the
//! committed files into `<baseline-dir>` *before* the benches overwrite
//! them.

/// Maximum tolerated slow-down of a tracked evals/sec figure vs the
/// committed baseline (2× = "regresses by more than half").
///
/// The committed snapshots are absolute throughput numbers from whatever
/// machine last regenerated them, so the 2× headroom deliberately doubles
/// as cross-machine tolerance: CI runners and contributor machines within
/// 2× of each other never trip the gate on hardware alone, while the
/// order-of-magnitude regressions the gate exists for (e.g. losing the
/// compiled kernel) blow well past it. Regenerate the snapshots on
/// CI-comparable hardware when the gap grows suspicious.
pub const MAX_EVALS_PER_SEC_REGRESSION: f64 = 2.0;

/// Minimum tolerated ratio of `batch_evals_per_sec` over
/// `scalar_evals_per_sec` at every fresh scale point. The batched
/// structure-of-arrays path must at least keep up with the scalar kernel at
/// every tracked size — it exists to be faster — but the two microbenches
/// are separate wall-clock measurements, so a 10 % allowance absorbs timer
/// noise without letting a real "batching makes scoring slower" regression
/// through.
pub const MIN_BATCH_VS_SCALAR: f64 = 0.9;

/// Smallest sweep size at which a batch-only (uniform-crossover) search's
/// in-search `evals_per_sec` is held against the raw kernel rates. From
/// here up walking the compiled traces is most of an evaluation, so where a
/// generation's children are scored shows in the figure; below it an
/// evaluation costs a few microseconds and the search figure is dominated
/// by per-batch overheads (memo probing, state assembly) the raw kernel
/// microbenches never pay.
pub const MIN_ROUTED_COMPONENTS: usize = 250;

/// Minimum tolerated `learn_speedup` (clustered arena learning vs the
/// Vec-store baseline) at the sweep's high-volume companion point. The
/// speedup is a same-machine ratio, so hardware never excuses falling below
/// it: clustered learning must stay this much faster than full-trace
/// learning when the traffic is structurally redundant.
pub const MIN_LEARN_SPEEDUP: f64 = 5.0;

/// Maximum tolerated growth of `learn_ms` at the high-volume point against
/// the committed snapshot (a wall-time figure, so — like
/// [`MAX_EVALS_PER_SEC_REGRESSION`] — the 2× headroom doubles as
/// cross-machine tolerance).
pub const MAX_LEARN_MS_REGRESSION: f64 = 2.0;

/// Minimum tolerated `relearn_speedup` (single-API incremental relearn vs a
/// cold full rebuild) at every service point. A same-machine ratio, so
/// hardware never excuses falling below it: relearning one dirty API must
/// stay measurably faster than rebuilding the whole model, or the
/// incremental path has lost its reason to exist.
pub const MIN_RELEARN_SPEEDUP: f64 = 1.5;

/// Maximum tolerated growth of `drift_to_recommendation_ms` at a service
/// point against the committed snapshot (wall time, so the 2× headroom
/// doubles as cross-machine tolerance, like [`MAX_LEARN_MS_REGRESSION`]).
pub const MAX_DRIFT_LATENCY_REGRESSION: f64 = 2.0;

/// Minimum tolerated `speedup_vs_serial` at a serving point's
/// single-evaluator-thread row when the hub actually had more than one
/// worker. A same-machine ratio over the identical request pattern — each
/// side the median of five `serve` calls long enough that thread start-up
/// is noise (see `service::run_serving_grid`) — so hardware never excuses
/// falling below it: the concurrent worker pool must beat a serial request
/// loop by this much or the multi-tenant hub has lost its reason to exist.
/// On a single-core runner (`workers` 1) the "concurrent" run is the
/// identical serial path and the gate is vacuous.
pub const MIN_SERVING_SPEEDUP: f64 = 1.5;

/// Extract the number following `"key":` in a JSON document generated by
/// this workspace's benches. Returns `None` when the key is absent.
pub fn json_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract a number from the first scale-sweep point with the given
/// component count: finds the `"components": <n>` marker and scans the
/// enclosing object for `key`. The sweep lists its 2-site points before the
/// multi-site companions, so this resolves to the historical 2-site entry.
pub fn scale_point_number(doc: &str, components: usize, key: &str) -> Option<f64> {
    scale_point_objects(doc, components)
        .next()
        .and_then(|object| json_number(object, key))
}

/// Extract a number from the scale-sweep point with the given component
/// *and site* count (points without a `sites` field — pre-multi-region
/// snapshots — count as 2-site).
pub fn scale_point_number_at(doc: &str, components: usize, sites: usize, key: &str) -> Option<f64> {
    scale_point_objects(doc, components)
        .find(|object| json_number(object, "sites").unwrap_or(2.0) as usize == sites)
        .and_then(|object| json_number(object, key))
}

/// The `(components, sites)` pairs of every point in a scale document, in
/// file order.
pub fn scale_points(doc: &str) -> Vec<(usize, usize)> {
    let mut points = Vec::new();
    let needle = "\"components\":";
    let mut from = 0;
    while let Some(hit) = doc[from..].find(needle) {
        let at = from + hit;
        let object_end = doc[at..].find('}').map(|e| at + e).unwrap_or(doc.len());
        let object = &doc[at..object_end];
        if let Some(components) = json_number(object, "components") {
            let sites = json_number(object, "sites").unwrap_or(2.0) as usize;
            points.push((components as usize, sites));
        }
        from = at + needle.len();
    }
    points
}

/// The object slice of the first point whose `volume_scale` exceeds 1 — the
/// sweep's high-volume companion (points without the field count as 1×).
fn volume_point_object(doc: &str) -> Option<&str> {
    let needle = "\"components\":";
    let mut from = 0;
    while let Some(hit) = doc[from..].find(needle) {
        let at = from + hit;
        let object_end = doc[at..].find('}').map(|e| at + e).unwrap_or(doc.len());
        let object = &doc[at..object_end];
        if json_number(object, "volume_scale").unwrap_or(1.0) > 1.0 {
            return Some(object);
        }
        from = at + needle.len();
    }
    None
}

/// Extract a number from the sweep's high-volume companion point.
pub fn volume_point_number(doc: &str, key: &str) -> Option<f64> {
    volume_point_object(doc).and_then(|object| json_number(object, key))
}

/// Split a service document at its `"serving"` key: the day-replay points
/// before it, the concurrent-serving grid from it on. Documents without the
/// key (pre-hub snapshots) are all replay, with an empty serving slice.
pub fn split_serving(doc: &str) -> (&str, &str) {
    match doc.find("\"serving\":") {
        Some(at) => (&doc[..at], &doc[at..]),
        None => (doc, ""),
    }
}

/// The object slices of a serving grid, scanned by their `"tenants"`
/// markers.
fn serving_point_objects(doc: &str) -> impl Iterator<Item = &str> {
    let needle = "\"tenants\":";
    let mut from = 0;
    let mut objects = Vec::new();
    while let Some(hit) = doc[from..].find(needle) {
        let at = from + hit;
        let object_end = doc[at..].find('}').map(|e| at + e).unwrap_or(doc.len());
        objects.push(&doc[at..object_end]);
        from = at + needle.len();
    }
    objects.into_iter()
}

/// The `(tenants, request_threads)` pairs of every serving-grid point, in
/// file order. Pass the serving slice of [`split_serving`].
pub fn serving_points(doc: &str) -> Vec<(usize, usize)> {
    serving_point_objects(doc)
        .filter_map(|object| {
            Some((
                json_number(object, "tenants")? as usize,
                json_number(object, "request_threads")? as usize,
            ))
        })
        .collect()
}

/// Extract a number from the serving point with the given tenant and
/// request-thread counts.
pub fn serving_point_number(
    doc: &str,
    tenants: usize,
    request_threads: usize,
    key: &str,
) -> Option<f64> {
    serving_point_objects(doc)
        .find(|object| {
            json_number(object, "tenants").map(|t| t as usize) == Some(tenants)
                && json_number(object, "request_threads").map(|t| t as usize)
                    == Some(request_threads)
        })
        .and_then(|object| json_number(object, key))
}

/// Iterate the object slices of the points with the given component count
/// (collected eagerly — a sweep holds only a handful of points).
fn scale_point_objects(doc: &str, components: usize) -> impl Iterator<Item = &str> {
    let marker = format!("\"components\": {components}");
    let mut from = 0;
    let mut objects = Vec::new();
    while let Some(hit) = doc[from..].find(&marker) {
        let at = from + hit;
        from = at + marker.len();
        // Skip digit-prefix matches (the 25-marker inside "components": 250).
        if matches!(doc[at + marker.len()..].chars().next(), Some(c) if c.is_ascii_digit()) {
            continue;
        }
        let object_end = doc[at..].find('}').map(|e| at + e).unwrap_or(doc.len());
        objects.push(&doc[at..object_end]);
    }
    objects.into_iter()
}

/// One comparison outcome: either an informational line or a failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The check passed (or was skipped); the string says why.
    Ok(String),
    /// The check failed; the string is the loud message.
    Fail(String),
}

/// Compare fresh bench JSON against the committed baselines. `fresh_*` are
/// the just-regenerated documents; `baseline_*` are the committed copies
/// (pass `None` when a baseline is unavailable — its relative checks are
/// skipped, but the absolute gates — `parallel_speedup >= 1.0`, the service
/// sweep's drift detection and relearn speedup — still apply).
pub fn check(
    fresh_recommender: &str,
    fresh_scale: &str,
    fresh_service: &str,
    baseline_recommender: Option<&str>,
    baseline_scale: Option<&str>,
    baseline_service: Option<&str>,
) -> Vec<Verdict> {
    let mut verdicts = Vec::new();

    // The service document carries two sweeps: the day-replay points and
    // the concurrent-serving grid. Split them so the component-keyed
    // scanners below never misread a serving object as a replay point.
    let (fresh_service, fresh_serving) = split_serving(fresh_service);
    let baseline_split = baseline_service.map(split_serving);
    let baseline_service = baseline_split.map(|(replay, _)| replay);
    let baseline_serving = baseline_split.and_then(|(_, serving)| {
        if serving.is_empty() {
            None
        } else {
            Some(serving)
        }
    });

    // Absolute gate: threads must help on any machine that has them. On a
    // single-core machine (`parallel_workers` 1) the "parallel" run is the
    // identical serial code path, so the ratio is pure measurement noise
    // and the gate is vacuous.
    let workers = json_number(fresh_recommender, "parallel_workers").unwrap_or(f64::INFINITY);
    match json_number(fresh_recommender, "parallel_speedup") {
        _ if workers <= 1.0 => verdicts.push(Verdict::Ok(
            "single-core machine (parallel_workers 1): parallel-speedup gate vacuous".to_string(),
        )),
        Some(speedup) if speedup >= 1.0 => {
            verdicts.push(Verdict::Ok(format!("parallel_speedup {speedup:.2} >= 1.0")));
        }
        Some(speedup) => verdicts.push(Verdict::Fail(format!(
            "parallel_speedup {speedup:.2} < 1.0: the thread fan-out makes evaluation SLOWER; \
             check parallel_map's serial fallback and per-worker chunking"
        ))),
        None => verdicts.push(Verdict::Fail(
            "BENCH_recommender.json has no parallel_speedup field".to_string(),
        )),
    }

    // Relative gates: a tracked throughput figure within 2x of the
    // committed snapshot.
    let mut relative = |label: &str, unit: &str, fresh: Option<f64>, committed: Option<f64>| match (
        fresh, committed,
    ) {
        (Some(f), Some(c)) if c > 0.0 => {
            if f * MAX_EVALS_PER_SEC_REGRESSION < c {
                verdicts.push(Verdict::Fail(format!(
                    "{label} regressed more than {MAX_EVALS_PER_SEC_REGRESSION}x: \
                         {f:.1} {unit} vs committed {c:.1}"
                )));
            } else {
                verdicts.push(Verdict::Ok(format!(
                    "{label}: {f:.1} {unit} vs committed {c:.1}"
                )));
            }
        }
        (Some(f), _) => verdicts.push(Verdict::Ok(format!(
            "{label}: {f:.1} {unit} (no committed baseline, skipping the relative gate)"
        ))),
        (None, _) => verdicts.push(Verdict::Fail(format!("{label}: missing from fresh JSON"))),
    };

    relative(
        "scale sweep @ 25 components",
        "evals/sec",
        scale_point_number(fresh_scale, 25, "evals_per_sec"),
        baseline_scale.and_then(|b| scale_point_number(b, 25, "evals_per_sec")),
    );
    relative(
        "recommender end-to-end",
        "evals/sec",
        json_number(fresh_recommender, "recommend_evals_per_sec"),
        baseline_recommender.and_then(|b| json_number(b, "recommend_evals_per_sec")),
    );

    // Arena ingest gate: trace ingest throughput at the sweep's smallest
    // point must stay within 2x of the committed snapshot.
    relative(
        "arena ingest @ 25 components",
        "traces/sec",
        scale_point_number(fresh_scale, 25, "ingest_traces_per_sec"),
        baseline_scale.and_then(|b| scale_point_number(b, 25, "ingest_traces_per_sec")),
    );

    // Offspring-search gate: the delta-native GA scoring path
    // (evaluate_offspring_batch with the memo cache, diff routing and lane
    // batching engaged) must stay within 2x of the committed snapshot at
    // the sweep's smallest point. A fresh sweep without the field was
    // generated by a stale bench — the `relative` helper fails it loudly.
    relative(
        "offspring search @ 25 components",
        "evals/sec",
        scale_point_number(fresh_scale, 25, "search_evals_per_sec"),
        baseline_scale.and_then(|b| scale_point_number(b, 25, "search_evals_per_sec")),
    );

    // Multi-site gate: the sweep always carries one N-site point (the N×N
    // kernel path). Compare against the committed point with the *same*
    // shape when one exists (narrow CI runs move the companion to the
    // smallest size, where the committed sweep may not have it).
    match scale_points(fresh_scale)
        .into_iter()
        .find(|&(_, sites)| sites > 2)
    {
        Some((components, sites)) => relative(
            &format!("scale sweep @ {components} components / {sites} sites"),
            "evals/sec",
            scale_point_number_at(fresh_scale, components, sites, "evals_per_sec"),
            baseline_scale
                .and_then(|b| scale_point_number_at(b, components, sites, "evals_per_sec")),
        ),
        // No multi-site point at all: the N×N kernel path went unexercised.
        None => relative(
            "scale sweep multi-site point (N×N kernel path)",
            "evals/sec",
            None,
            None,
        ),
    }

    // Service ingest gate: the resident advisor's streaming-ingest
    // throughput at the service sweep's smallest point must stay within 2x
    // of the committed snapshot.
    let service_smallest = scale_points(fresh_service)
        .into_iter()
        .map(|(components, _)| components)
        .min();
    if let Some(components) = service_smallest {
        relative(
            &format!("service ingest @ {components} components"),
            "traces/sec",
            scale_point_number(fresh_service, components, "ingest_traces_per_sec"),
            baseline_service
                .and_then(|b| scale_point_number(b, components, "ingest_traces_per_sec")),
        );
    }

    // High-volume learn gates: the sweep always carries one point at >1x
    // traffic volume. There, (a) clustered learning must hold its edge over
    // the Vec-store baseline, and (b) the learn wall time must not blow up
    // against the committed snapshot.
    match volume_point_object(fresh_scale) {
        Some(object) => {
            let components = json_number(object, "components").unwrap_or(0.0) as usize;
            let volume = json_number(object, "volume_scale").unwrap_or(0.0);
            let label = format!("learn @ {components} components / {volume:.0}x volume");
            match json_number(object, "learn_speedup") {
                Some(s) if s >= MIN_LEARN_SPEEDUP => verdicts.push(Verdict::Ok(format!(
                    "{label}: clustered learning {s:.1}x faster than the Vec-store baseline"
                ))),
                Some(s) => verdicts.push(Verdict::Fail(format!(
                    "{label}: learn_speedup {s:.2} < {MIN_LEARN_SPEEDUP}: clustered learning \
                     lost its edge over full-trace learning; check the trace arena's indexes \
                     and the representative clustering"
                ))),
                None => verdicts.push(Verdict::Fail(format!(
                    "{label}: fresh BENCH_scale.json lacks learn_speedup \
                     (regenerate with the current bench)"
                ))),
            }
            let fresh_ms = json_number(object, "learn_ms");
            let committed_ms = baseline_scale.and_then(|b| volume_point_number(b, "learn_ms"));
            match (fresh_ms, committed_ms) {
                (Some(f), Some(c)) if c > 0.0 => {
                    if f > c * MAX_LEARN_MS_REGRESSION {
                        verdicts.push(Verdict::Fail(format!(
                            "{label}: learn_ms grew more than {MAX_LEARN_MS_REGRESSION}x: \
                             {f:.2} ms vs committed {c:.2} ms"
                        )));
                    } else {
                        verdicts.push(Verdict::Ok(format!(
                            "{label}: {f:.2} ms vs committed {c:.2} ms"
                        )));
                    }
                }
                (Some(f), _) => verdicts.push(Verdict::Ok(format!(
                    "{label}: {f:.2} ms (no committed volume point, skipping the relative gate)"
                ))),
                (None, _) => verdicts.push(Verdict::Fail(format!(
                    "{label}: learn_ms missing from fresh JSON"
                ))),
            }
        }
        // No high-volume point at all: learning-at-volume went unexercised.
        None => verdicts.push(Verdict::Fail(
            "scale sweep has no high-volume point (volume_scale > 1): the learn gates \
             went unexercised (regenerate with the current bench)"
                .to_string(),
        )),
    }

    // Batch-vs-scalar gate: at every fresh sweep point the batched SoA
    // scoring path must keep up with the scalar kernel (see
    // MIN_BATCH_VS_SCALAR). The fields come from this workspace's own
    // bench, so their absence means the sweep was generated by a stale
    // binary — fail loudly rather than skip.
    for (components, sites) in scale_points(fresh_scale) {
        let label = format!("batch vs scalar @ {components} components / {sites} sites");
        let scalar = scale_point_number_at(fresh_scale, components, sites, "scalar_evals_per_sec");
        let batch = scale_point_number_at(fresh_scale, components, sites, "batch_evals_per_sec");
        match (scalar, batch) {
            (Some(s), Some(b)) if s > 0.0 && b >= s * MIN_BATCH_VS_SCALAR => {
                verdicts.push(Verdict::Ok(format!(
                    "{label}: {b:.1} vs {s:.1} evals/sec ({:.2}x)",
                    b / s
                )));
            }
            (Some(s), Some(b)) => verdicts.push(Verdict::Fail(format!(
                "{label}: batched scoring ({b:.1} evals/sec) fell behind the scalar kernel \
                 ({s:.1} evals/sec); the SoA lane path must not lose to one-plan-at-a-time"
            ))),
            _ => verdicts.push(Verdict::Fail(format!(
                "{label}: fresh BENCH_scale.json lacks scalar_evals_per_sec/batch_evals_per_sec \
                 (regenerate with the current bench)"
            ))),
        }
    }

    // Routing gate: from MIN_ROUTED_COMPONENTS up, a search that trains no
    // agent scores every plan through a batch path, so its in-search
    // throughput (memo cache, offspring routing, lane groups and delta
    // re-scores all engaged) must sit nearer the lane kernel's rate than the
    // scalar kernel's — above their geometric mean. All three figures come
    // from the same run on the same machine. This is the check that catches
    // offspring sent to the wrong route: PR 15 found wide crossover
    // children re-run trace by trace, one plan at a time, reading as
    // "in-search 2.9 k/s, scalar 2.8 k/s, lanes 11.8 k/s". Searches that
    // train the agent carry no such gate: their ~120 rollouts are single-
    // plan scores by construction, each cache-cold after a policy-gradient
    // step, and put the blend at 1.0–1.3x scalar whatever the routing.
    for (components, sites) in scale_points(fresh_scale) {
        let number = |key| scale_point_number_at(fresh_scale, components, sites, key);
        if components < MIN_ROUTED_COMPONENTS || number("uniform_crossover") != Some(1.0) {
            continue;
        }
        let label = format!("batch-only search @ {components} components / {sites} sites");
        match (
            number("evals_per_sec"),
            number("scalar_evals_per_sec"),
            number("batch_evals_per_sec"),
        ) {
            (Some(e), Some(s), Some(b)) if e >= (s * b).sqrt() => verdicts.push(Verdict::Ok(
                format!("{label}: {e:.1} evals/sec in-search vs {s:.1} scalar / {b:.1} lanes"),
            )),
            (Some(e), Some(s), Some(b)) => verdicts.push(Verdict::Fail(format!(
                "{label}: the search scored its plans at {e:.1} evals/sec, nearer the scalar \
                 kernel's {s:.1} than the lane kernel's {b:.1}; check which route offspring \
                 take (delta_scored / lane_scored in BENCH_scale.json) and \
                 PlanEvaluator::evaluate_offspring_batch"
            ))),
            _ => verdicts.push(Verdict::Fail(format!(
                "{label}: fresh BENCH_scale.json lacks evals_per_sec/scalar_evals_per_sec/\
                 batch_evals_per_sec (regenerate with the current bench)"
            ))),
        }
    }

    // Front-size gate: at every fresh sweep point with 100+ components the
    // recommendation front must not shrink against the committed snapshot.
    // The search is fully seeded, so front_size is deterministic on any
    // machine: losing a plan means the archive or the delta-offspring path
    // changed behaviour, never hardware or timer noise — the comparison is
    // an exact integer one with no headroom. Smaller points are skipped
    // (their fronts are tiny and any real regression also shows at 100+);
    // committed snapshots without the point or the field skip the gate.
    for (components, sites) in scale_points(fresh_scale) {
        if components < 100 {
            continue;
        }
        let label = format!("front size @ {components} components / {sites} sites");
        let fresh = scale_point_number_at(fresh_scale, components, sites, "front_size");
        let committed =
            baseline_scale.and_then(|b| scale_point_number_at(b, components, sites, "front_size"));
        match (fresh, committed) {
            (Some(f), Some(c)) if f >= c => verdicts.push(Verdict::Ok(format!(
                "{label}: {f:.0} plan(s) vs committed {c:.0}"
            ))),
            (Some(f), Some(c)) => verdicts.push(Verdict::Fail(format!(
                "{label}: the Pareto front shrank from {c:.0} committed plan(s) to {f:.0}; \
                 check the non-dominated archive's capacity pruning and the delta-offspring \
                 scoring path"
            ))),
            (Some(f), None) => verdicts.push(Verdict::Ok(format!(
                "{label}: {f:.0} plan(s) (no committed point, skipping the non-regression gate)"
            ))),
            (None, _) => verdicts.push(Verdict::Fail(format!(
                "{label}: fresh BENCH_scale.json lacks front_size \
                 (regenerate with the current bench)"
            ))),
        }
    }

    // Service-loop gates, at every point of the service sweep: the drift
    // corpus must actually trip a detector, single-API incremental relearn
    // must hold its edge over a cold rebuild, and the drift-to-new-
    // recommendation wall time must not blow up against the committed
    // snapshot.
    match service_smallest {
        None => verdicts.push(Verdict::Fail(
            "BENCH_service.json has no points: the resident-advisor loop went unexercised \
             (regenerate with the current bench)"
                .to_string(),
        )),
        Some(_) => {
            for (components, _) in scale_points(fresh_service) {
                let label = format!("service @ {components} components");
                match scale_point_number(fresh_service, components, "drift_apis") {
                    Some(n) if n >= 1.0 => verdicts.push(Verdict::Ok(format!(
                        "{label}: drift fired on {n:.0} API(s)"
                    ))),
                    _ => verdicts.push(Verdict::Fail(format!(
                        "{label}: the drift corpus tripped no detector; check the KL monitors \
                         and the drift-phase latency shift"
                    ))),
                }
                match scale_point_number(fresh_service, components, "relearn_speedup") {
                    Some(s) if s >= MIN_RELEARN_SPEEDUP => verdicts.push(Verdict::Ok(format!(
                        "{label}: incremental relearn {s:.1}x faster than a cold rebuild"
                    ))),
                    Some(s) => verdicts.push(Verdict::Fail(format!(
                        "{label}: relearn_speedup {s:.2} < {MIN_RELEARN_SPEEDUP}: relearning one \
                         dirty API no longer beats rebuilding the whole model; check the per-API \
                         recompile path"
                    ))),
                    None => verdicts.push(Verdict::Fail(format!(
                        "{label}: fresh BENCH_service.json lacks relearn_speedup \
                         (regenerate with the current bench)"
                    ))),
                }
                let fresh_ms =
                    scale_point_number(fresh_service, components, "drift_to_recommendation_ms");
                let committed_ms = baseline_service
                    .and_then(|b| scale_point_number(b, components, "drift_to_recommendation_ms"));
                match (fresh_ms, committed_ms) {
                    (Some(f), Some(c)) if c > 0.0 => {
                        if f > c * MAX_DRIFT_LATENCY_REGRESSION {
                            verdicts.push(Verdict::Fail(format!(
                                "{label}: drift_to_recommendation_ms grew more than \
                                 {MAX_DRIFT_LATENCY_REGRESSION}x: {f:.1} ms vs committed {c:.1} ms"
                            )));
                        } else {
                            verdicts.push(Verdict::Ok(format!(
                                "{label}: drift→recommendation {f:.1} ms vs committed {c:.1} ms"
                            )));
                        }
                    }
                    (Some(f), _) => verdicts.push(Verdict::Ok(format!(
                        "{label}: drift→recommendation {f:.1} ms (no committed point, \
                         skipping the relative gate)"
                    ))),
                    (None, _) => verdicts.push(Verdict::Fail(format!(
                        "{label}: drift_to_recommendation_ms missing from fresh JSON"
                    ))),
                }
            }
        }
    }

    // Serving gates, at every point of the concurrent-serving grid: every
    // concurrent answer must be bit-identical to the serial ground truth (a
    // hard gate — the hub's epoch-snapshot contract), the worker pool must
    // hold its edge over the serial loop at the single-evaluator-thread
    // point, and neither throughput nor tail latency may blow up against
    // the committed snapshot.
    let serving = serving_points(fresh_serving);
    if serving.is_empty() {
        verdicts.push(Verdict::Fail(
            "BENCH_service.json has no serving grid: the multi-tenant hub went unexercised \
             (regenerate with the current bench)"
                .to_string(),
        ));
    }
    for &(tenants, request_threads) in &serving {
        let label = format!("serving @ {tenants} tenants / {request_threads} request threads");
        let point = |key: &str| serving_point_number(fresh_serving, tenants, request_threads, key);
        let committed = |key: &str| {
            baseline_serving.and_then(|b| serving_point_number(b, tenants, request_threads, key))
        };

        // Determinism: hard gate, no baseline needed, no tolerance.
        match point("deterministic") {
            Some(d) if d >= 1.0 => verdicts.push(Verdict::Ok(format!(
                "{label}: concurrent answers bit-identical to serial"
            ))),
            Some(_) => verdicts.push(Verdict::Fail(format!(
                "{label}: concurrent serving DIVERGED from the serial ground truth; check the \
                 request-local visited budget and the epoch-snapshot publication"
            ))),
            None => verdicts.push(Verdict::Fail(format!(
                "{label}: fresh BENCH_service.json lacks deterministic \
                 (regenerate with the current bench)"
            ))),
        }

        // Concurrency edge: only the single-evaluator-thread row isolates
        // across-request parallelism (more evaluator threads oversubscribe
        // the same cores the worker pool uses).
        if request_threads == 1 {
            let workers = point("workers").unwrap_or(f64::INFINITY);
            match point("speedup_vs_serial") {
                _ if workers <= 1.0 => verdicts.push(Verdict::Ok(format!(
                    "{label}: single worker: serving-speedup gate vacuous"
                ))),
                Some(s) if s >= MIN_SERVING_SPEEDUP => verdicts.push(Verdict::Ok(format!(
                    "{label}: concurrent serving {s:.2}x faster than the serial loop"
                ))),
                Some(s) => verdicts.push(Verdict::Fail(format!(
                    "{label}: speedup_vs_serial {s:.2} < {MIN_SERVING_SPEEDUP} with \
                     {workers:.0} workers: the hub's worker pool no longer beats a serial \
                     request loop; check serve()'s fan-out and contention on the epoch \
                     cache's lock"
                ))),
                None => verdicts.push(Verdict::Fail(format!(
                    "{label}: fresh BENCH_service.json lacks speedup_vs_serial \
                     (regenerate with the current bench)"
                ))),
            }
        }

        // Relative gates vs the committed snapshot: requests/second within
        // 2x, p99 latency not more than doubled (both inherit the
        // cross-machine headroom of MAX_EVALS_PER_SEC_REGRESSION).
        match (
            point("concurrent_requests_per_sec"),
            committed("concurrent_requests_per_sec"),
        ) {
            (Some(f), Some(c)) if c > 0.0 => {
                if f * MAX_EVALS_PER_SEC_REGRESSION < c {
                    verdicts.push(Verdict::Fail(format!(
                        "{label} regressed more than {MAX_EVALS_PER_SEC_REGRESSION}x: \
                         {f:.1} req/s vs committed {c:.1}"
                    )));
                } else {
                    verdicts.push(Verdict::Ok(format!(
                        "{label}: {f:.1} req/s vs committed {c:.1}"
                    )));
                }
            }
            (Some(f), _) => verdicts.push(Verdict::Ok(format!(
                "{label}: {f:.1} req/s (no committed serving point, skipping the relative gate)"
            ))),
            (None, _) => verdicts.push(Verdict::Fail(format!(
                "{label}: concurrent_requests_per_sec missing from fresh JSON"
            ))),
        }
        match (point("p99_latency_ms"), committed("p99_latency_ms")) {
            (Some(f), Some(c)) if c > 0.0 => {
                if f > c * MAX_EVALS_PER_SEC_REGRESSION {
                    verdicts.push(Verdict::Fail(format!(
                        "{label}: p99_latency_ms grew more than \
                         {MAX_EVALS_PER_SEC_REGRESSION}x: {f:.2} ms vs committed {c:.2} ms"
                    )));
                } else {
                    verdicts.push(Verdict::Ok(format!(
                        "{label}: p99 {f:.2} ms vs committed {c:.2} ms"
                    )));
                }
            }
            (Some(f), _) => verdicts.push(Verdict::Ok(format!(
                "{label}: p99 {f:.2} ms (no committed serving point, skipping the relative gate)"
            ))),
            (None, _) => verdicts.push(Verdict::Fail(format!(
                "{label}: p99_latency_ms missing from fresh JSON"
            ))),
        }
    }

    verdicts
}

/// Whether any verdict is a failure.
pub fn failed(verdicts: &[Verdict]) -> bool {
    verdicts.iter().any(|v| matches!(v, Verdict::Fail(_)))
}

#[cfg(test)]
mod tests {
    use super::*;

    const RECOMMENDER: &str = r#"{
  "bench": "recommender",
  "threads": 8,
  "single_thread_evals_per_sec": 20000.0,
  "parallel_evals_per_sec": 60000.0,
  "parallel_workers": 8,
  "parallel_speedup": 3.00,
  "recommend_ms": 12.0,
  "recommend_evals_per_sec": 18000.5,
  "kernel_compile_ms": 2.10
}
"#;

    const SCALE: &str = r#"{
  "bench": "scale",
  "points": [
    {
      "components": 25,
      "sites": 2,
      "front_size": 1,
      "evals_per_sec": 50000.0,
      "scalar_evals_per_sec": 48000.0,
      "batch_evals_per_sec": 150000.0,
      "delta_probe_evals_per_sec": 400000.0,
      "search_evals_per_sec": 180000.0,
      "ingest_traces_per_sec": 300000.0,
      "learn_ms": 2.0,
      "learn_speedup": 8.0
    },
    {
      "components": 250,
      "sites": 2,
      "front_size": 1,
      "evals_per_sec": 9000.0,
      "scalar_evals_per_sec": 9500.0,
      "batch_evals_per_sec": 30000.0,
      "delta_probe_evals_per_sec": 90000.0,
      "search_evals_per_sec": 65000.0
    },
    {
      "components": 100,
      "sites": 4,
      "front_size": 4,
      "evals_per_sec": 20000.0,
      "scalar_evals_per_sec": 21000.0,
      "batch_evals_per_sec": 60000.0,
      "delta_probe_evals_per_sec": 150000.0,
      "search_evals_per_sec": 110000.0
    },
    {
      "components": 100,
      "sites": 2,
      "front_size": 3,
      "evals_per_sec": 19000.0,
      "scalar_evals_per_sec": 20000.0,
      "batch_evals_per_sec": 58000.0,
      "delta_probe_evals_per_sec": 140000.0,
      "search_evals_per_sec": 105000.0,
      "volume_scale": 10.0,
      "ingest_traces_per_sec": 280000.0,
      "learn_ms": 30.0,
      "learn_baseline_ms": 360.0,
      "learn_speedup": 12.0
    }
  ]
}
"#;

    const SERVICE: &str = r#"{
  "bench": "service",
  "points": [
    {
      "components": 25,
      "sites": 2,
      "apis": 3,
      "day1_traces": 1262,
      "day2_traces": 1951,
      "ingest_traces_per_sec": 200000.0,
      "evicted_traces": 900,
      "drift_apis": 3,
      "drift_to_recommendation_ms": 150.0,
      "incremental_relearn_ms": 2.0,
      "cold_relearn_ms": 9.0,
      "relearn_speedup": 4.5
    }
  ],
  "serving": [
    {
      "components": 25,
      "tenants": 4,
      "requests": 24,
      "request_threads": 1,
      "workers": 8,
      "serial_requests_per_sec": 40.0,
      "concurrent_requests_per_sec": 130.0,
      "speedup_vs_serial": 3.25,
      "scaling_efficiency": 0.41,
      "p50_latency_ms": 21.50,
      "p99_latency_ms": 48.00,
      "request_unique_evals": 0.0,
      "request_cache_hits": 310.5,
      "lifetime_unique_evals": 250,
      "lifetime_cache_hits": 7800,
      "deterministic": 1
    },
    {
      "components": 25,
      "tenants": 4,
      "requests": 24,
      "request_threads": 2,
      "workers": 8,
      "serial_requests_per_sec": 40.0,
      "concurrent_requests_per_sec": 120.0,
      "speedup_vs_serial": 3.00,
      "scaling_efficiency": 0.38,
      "p50_latency_ms": 23.00,
      "p99_latency_ms": 52.00,
      "request_unique_evals": 0.0,
      "request_cache_hits": 310.5,
      "lifetime_unique_evals": 250,
      "lifetime_cache_hits": 15200,
      "deterministic": 1
    },
    {
      "components": 25,
      "tenants": 4,
      "requests": 24,
      "request_threads": 8,
      "workers": 8,
      "serial_requests_per_sec": 40.0,
      "concurrent_requests_per_sec": 100.0,
      "speedup_vs_serial": 2.50,
      "scaling_efficiency": 0.31,
      "p50_latency_ms": 28.00,
      "p99_latency_ms": 61.00,
      "request_unique_evals": 0.0,
      "request_cache_hits": 310.5,
      "lifetime_unique_evals": 250,
      "lifetime_cache_hits": 22600,
      "deterministic": 1
    }
  ]
}
"#;

    #[test]
    fn numbers_are_extracted_from_generated_json() {
        assert_eq!(json_number(RECOMMENDER, "parallel_speedup"), Some(3.0));
        assert_eq!(
            json_number(RECOMMENDER, "recommend_evals_per_sec"),
            Some(18000.5)
        );
        assert_eq!(json_number(RECOMMENDER, "missing"), None);
        assert_eq!(
            scale_point_number(SCALE, 25, "evals_per_sec"),
            Some(50000.0)
        );
        assert_eq!(
            scale_point_number(SCALE, 250, "evals_per_sec"),
            Some(9000.0)
        );
        assert_eq!(scale_point_number(SCALE, 500, "evals_per_sec"), None);
        // Prefix safety: a sweep holding only the 250-point must not be
        // misread as the 25-point.
        let only_250 = r#"{"points": [ { "components": 250, "evals_per_sec": 9000.0 } ]}"#;
        assert_eq!(scale_point_number(only_250, 25, "evals_per_sec"), None);
        assert_eq!(
            scale_point_number(only_250, 250, "evals_per_sec"),
            Some(9000.0)
        );
    }

    #[test]
    fn site_dimension_is_parsed_and_addressable() {
        assert_eq!(
            scale_points(SCALE),
            vec![(25, 2), (250, 2), (100, 4), (100, 2)],
            "every point with its site count, in file order"
        );
        assert_eq!(
            scale_point_number_at(SCALE, 100, 4, "evals_per_sec"),
            Some(20000.0)
        );
        assert_eq!(
            scale_point_number_at(SCALE, 100, 2, "evals_per_sec"),
            Some(19000.0),
            "the volume companion is the only 2-site point at 100 components"
        );
        assert_eq!(scale_point_number_at(SCALE, 250, 4, "evals_per_sec"), None);
        // Pre-multi-region snapshots (no `sites` field) count as 2-site.
        let legacy = r#"{"points": [ { "components": 25, "evals_per_sec": 1.0 } ]}"#;
        assert_eq!(scale_points(legacy), vec![(25, 2)]);
        assert_eq!(
            scale_point_number_at(legacy, 25, 2, "evals_per_sec"),
            Some(1.0)
        );
        // Two points sharing a component count resolve by sites; the plain
        // lookup keeps answering the first (2-site) one.
        let mixed = r#"{"points": [
            { "components": 100, "sites": 2, "evals_per_sec": 7.0 },
            { "components": 100, "sites": 4, "evals_per_sec": 3.0 } ]}"#;
        assert_eq!(scale_point_number(mixed, 100, "evals_per_sec"), Some(7.0));
        assert_eq!(
            scale_point_number_at(mixed, 100, 4, "evals_per_sec"),
            Some(3.0)
        );
    }

    #[test]
    fn healthy_run_passes_all_gates() {
        let verdicts = check(
            RECOMMENDER,
            SCALE,
            SERVICE,
            Some(RECOMMENDER),
            Some(SCALE),
            Some(SERVICE),
        );
        assert!(!failed(&verdicts));
        // speedup + 2 relative + ingest + offspring search + multi-site
        // + service ingest + 2 volume-point learn gates + 4 batch-vs-scalar
        // + 3 front-size (the 100+-component points) + 3 service gates
        // (drift fired, relearn speedup, drift latency) + 10 serving gates
        // (3 determinism + 1 speedup-over-serial + 3 req/s relative
        // + 3 p99 relative).
        assert_eq!(verdicts.len(), 29);
    }

    #[test]
    fn volume_point_is_parsed() {
        assert_eq!(volume_point_number(SCALE, "learn_speedup"), Some(12.0));
        assert_eq!(volume_point_number(SCALE, "learn_ms"), Some(30.0));
        assert_eq!(volume_point_number(SCALE, "components"), Some(100.0));
        // Only the >1x point answers; a sweep without one yields None.
        let no_volume = r#"{"points": [ { "components": 25, "volume_scale": 1.0 } ]}"#;
        assert_eq!(volume_point_number(no_volume, "components"), None);
    }

    /// The learn gates fire when clustered learning loses its edge, when
    /// the learn wall time blows past the committed snapshot, and when the
    /// sweep carries no high-volume point at all.
    #[test]
    fn learn_gates_guard_the_volume_point() {
        // Speedup below the floor fails (same-machine ratio, no tolerance).
        let slow = SCALE.replace("\"learn_speedup\": 12.0", "\"learn_speedup\": 3.0");
        let verdicts = check(
            RECOMMENDER,
            &slow,
            SERVICE,
            Some(RECOMMENDER),
            Some(SCALE),
            Some(SERVICE),
        );
        assert!(failed(&verdicts));
        assert!(verdicts
            .iter()
            .any(|v| matches!(v, Verdict::Fail(m) if m.contains("lost its edge"))));

        // learn_ms more than doubling against the committed snapshot fails.
        let bloated = SCALE.replace("\"learn_ms\": 30.0", "\"learn_ms\": 75.0");
        let verdicts = check(
            RECOMMENDER,
            &bloated,
            SERVICE,
            Some(RECOMMENDER),
            Some(SCALE),
            Some(SERVICE),
        );
        assert!(failed(&verdicts));
        assert!(verdicts
            .iter()
            .any(|v| matches!(v, Verdict::Fail(m) if m.contains("learn_ms grew"))));
        // Within 2x: passes.
        let mild = SCALE.replace("\"learn_ms\": 30.0", "\"learn_ms\": 55.0");
        assert!(!failed(&check(
            RECOMMENDER,
            &mild,
            SERVICE,
            None,
            Some(SCALE),
            None
        )));

        // A sweep with no >1x-volume point fails loudly.
        let flat = SCALE.replace("\"volume_scale\": 10.0", "\"volume_scale\": 1.0");
        let verdicts = check(
            RECOMMENDER,
            &flat,
            SERVICE,
            Some(RECOMMENDER),
            Some(SCALE),
            Some(SERVICE),
        );
        assert!(failed(&verdicts));
        assert!(verdicts
            .iter()
            .any(|v| matches!(v, Verdict::Fail(m) if m.contains("no high-volume point"))));
    }

    /// An ingest-throughput collapse at the smallest point fails.
    #[test]
    fn ingest_throughput_regression_fails() {
        let slow = SCALE.replace(
            "\"ingest_traces_per_sec\": 300000.0",
            "\"ingest_traces_per_sec\": 20000.0",
        );
        let verdicts = check(
            RECOMMENDER,
            &slow,
            SERVICE,
            Some(RECOMMENDER),
            Some(SCALE),
            Some(SERVICE),
        );
        assert!(failed(&verdicts));
        assert!(verdicts.iter().any(
            |v| matches!(v, Verdict::Fail(m) if m.contains("arena ingest") && m.contains("regressed"))
        ));
        // A mild slow-down (within 2x) passes.
        let mild = SCALE.replace(
            "\"ingest_traces_per_sec\": 300000.0",
            "\"ingest_traces_per_sec\": 160000.0",
        );
        assert!(!failed(&check(
            RECOMMENDER,
            &mild,
            SERVICE,
            None,
            Some(SCALE),
            None
        )));
    }

    /// The batch gate fires when the SoA lane path falls behind the scalar
    /// kernel at any sweep point, and tolerates timer noise within
    /// [`MIN_BATCH_VS_SCALAR`].
    #[test]
    fn batch_path_falling_behind_scalar_fails() {
        let slow = SCALE.replace(
            "\"batch_evals_per_sec\": 30000.0",
            "\"batch_evals_per_sec\": 7000.0",
        );
        let verdicts = check(
            RECOMMENDER,
            &slow,
            SERVICE,
            Some(RECOMMENDER),
            Some(SCALE),
            Some(SERVICE),
        );
        assert!(failed(&verdicts));
        assert!(verdicts.iter().any(
            |v| matches!(v, Verdict::Fail(m) if m.contains("250 components") && m.contains("fell behind"))
        ));
        // Within the noise allowance (10 %): passes.
        let noisy = SCALE.replace(
            "\"batch_evals_per_sec\": 30000.0",
            "\"batch_evals_per_sec\": 8700.0",
        );
        assert!(!failed(&check(
            RECOMMENDER,
            &noisy,
            SERVICE,
            None,
            None,
            None
        )));
    }

    /// The routing gate fires when a batch-only search scores nearer the
    /// scalar rate than the lane rate — PR 15's parent read 2.9 k against
    /// 2.8 k scalar and 11.5 k lanes — and when a stale bench left a field
    /// out; searches that train the agent and small points never carry it.
    #[test]
    fn batch_only_search_at_the_scalar_rate_fails() {
        let sweep = |components: usize, uniform: u8, evals: &str| {
            format!(
                r#"{{"points": [ {{ "components": {components}, "sites": 4, {evals}
                    "uniform_crossover": {uniform}, "scalar_evals_per_sec": 2800.0,
                    "batch_evals_per_sec": 11500.0 }} ]}}"#
            )
        };
        let gate = |doc: &str| -> Vec<Verdict> {
            check(RECOMMENDER, doc, SERVICE, None, None, None)
                .into_iter()
                .filter(
                    |v| matches!(v, Verdict::Ok(m) | Verdict::Fail(m) if m.contains("batch-only")),
                )
                .collect()
        };
        let healthy = gate(&sweep(500, 1, r#""evals_per_sec": 9700.0,"#));
        assert!(matches!(&healthy[..], [Verdict::Ok(m)] if m.contains("500 components / 4 sites")));
        let misrouted = gate(&sweep(500, 1, r#""evals_per_sec": 2900.0,"#));
        assert!(matches!(&misrouted[..], [Verdict::Fail(m)] if m.contains("nearer the scalar")));
        let stale = gate(&sweep(500, 1, ""));
        assert!(matches!(&stale[..], [Verdict::Fail(m)] if m.contains("lacks evals_per_sec")));
        // A search that trains the agent, a small point, and the shared
        // fixture (whose 250-component point scores below its scalar rate
        // with the agent) carry no such gate.
        assert!(gate(&sweep(500, 0, r#""evals_per_sec": 2900.0,"#)).is_empty());
        assert!(gate(&sweep(240, 1, r#""evals_per_sec": 2900.0,"#)).is_empty());
        assert!(gate(SCALE).is_empty());
    }

    /// The offspring-search gate fires on a >2x throughput collapse and
    /// when the field is absent from the fresh sweep, and tolerates mild
    /// (within-2x) slow-downs.
    #[test]
    fn search_throughput_regression_fails() {
        let slow = SCALE.replace(
            "\"search_evals_per_sec\": 180000.0",
            "\"search_evals_per_sec\": 50000.0",
        );
        let verdicts = check(
            RECOMMENDER,
            &slow,
            SERVICE,
            Some(RECOMMENDER),
            Some(SCALE),
            Some(SERVICE),
        );
        assert!(failed(&verdicts));
        assert!(verdicts.iter().any(
            |v| matches!(v, Verdict::Fail(m) if m.contains("offspring search") && m.contains("regressed"))
        ));
        // A mild slow-down (within 2x) passes.
        let mild = SCALE.replace(
            "\"search_evals_per_sec\": 180000.0",
            "\"search_evals_per_sec\": 100000.0",
        );
        assert!(!failed(&check(
            RECOMMENDER,
            &mild,
            SERVICE,
            None,
            Some(SCALE),
            None
        )));
        // A fresh sweep without the field (stale bench) fails loudly.
        let stale = r#"{"points": [
            { "components": 25, "sites": 2, "front_size": 1, "evals_per_sec": 50000.0,
              "scalar_evals_per_sec": 48000.0, "batch_evals_per_sec": 150000.0,
              "ingest_traces_per_sec": 300000.0,
              "volume_scale": 10.0, "learn_ms": 3.0, "learn_speedup": 9.0 },
            { "components": 25, "sites": 4, "front_size": 1, "evals_per_sec": 1.0,
              "scalar_evals_per_sec": 1.0, "batch_evals_per_sec": 3.0 } ]}"#;
        let verdicts = check(RECOMMENDER, stale, SERVICE, None, None, None);
        assert!(failed(&verdicts));
        assert!(verdicts.iter().any(
            |v| matches!(v, Verdict::Fail(m) if m.contains("offspring search") && m.contains("missing from fresh JSON"))
        ));
    }

    /// The front-size gate fires when a 100+-component front shrinks or the
    /// field is missing, skips committed snapshots without the point, and
    /// ignores the small points entirely.
    #[test]
    fn front_size_shrink_fails_and_novel_points_skip() {
        // The 4-site front dropping from 4 committed plans to 2 fails.
        let shrunk = SCALE.replace("\"front_size\": 4", "\"front_size\": 2");
        let verdicts = check(
            RECOMMENDER,
            &shrunk,
            SERVICE,
            Some(RECOMMENDER),
            Some(SCALE),
            Some(SERVICE),
        );
        assert!(failed(&verdicts));
        assert!(verdicts.iter().any(
            |v| matches!(v, Verdict::Fail(m) if m.contains("front size @ 100 components / 4 sites")
                && m.contains("shrank"))
        ));
        // A grown front passes.
        let grown = SCALE.replace("\"front_size\": 4", "\"front_size\": 6");
        assert!(!failed(&check(
            RECOMMENDER,
            &grown,
            SERVICE,
            None,
            Some(SCALE),
            None
        )));
        // No committed baseline: every front-size gate skips.
        let verdicts = check(RECOMMENDER, SCALE, SERVICE, None, None, None);
        assert!(!failed(&verdicts));
        assert!(verdicts.iter().any(
            |v| matches!(v, Verdict::Ok(m) if m.contains("front size") && m.contains("skipping"))
        ));
        // A 100+-component fresh point without the field (stale bench)
        // fails loudly; sub-100 points never carry the gate.
        let stale = r#"{"points": [
            { "components": 250, "sites": 2, "evals_per_sec": 9000.0,
              "scalar_evals_per_sec": 9500.0, "batch_evals_per_sec": 30000.0,
              "search_evals_per_sec": 65000.0 } ]}"#;
        let verdicts = check(RECOMMENDER, stale, SERVICE, None, None, None);
        assert!(verdicts.iter().any(
            |v| matches!(v, Verdict::Fail(m) if m.contains("front size") && m.contains("lacks front_size"))
        ));
    }

    /// A fresh sweep generated by a stale bench (no batch/scalar fields)
    /// fails the batch gate instead of silently skipping it.
    #[test]
    fn missing_batch_fields_fail_the_batch_gate() {
        let legacy = r#"{"points": [
            { "components": 25, "sites": 2, "evals_per_sec": 50000.0 },
            { "components": 25, "sites": 4, "evals_per_sec": 20000.0 } ]}"#;
        let verdicts = check(RECOMMENDER, legacy, SERVICE, None, None, None);
        assert!(failed(&verdicts));
        assert!(verdicts
            .iter()
            .any(|v| matches!(v, Verdict::Fail(m) if m.contains("lacks scalar_evals_per_sec"))));
    }

    #[test]
    fn missing_multi_site_point_fails() {
        let two_site_only =
            r#"{"points": [ { "components": 25, "sites": 2, "evals_per_sec": 50000.0 } ]}"#;
        let verdicts = check(
            RECOMMENDER,
            two_site_only,
            SERVICE,
            Some(RECOMMENDER),
            Some(SCALE),
            Some(SERVICE),
        );
        assert!(failed(&verdicts));
        assert!(verdicts
            .iter()
            .any(|v| matches!(v, Verdict::Fail(m) if m.contains("multi-site"))));
    }

    #[test]
    fn multi_site_regression_fails_and_novel_shapes_skip() {
        // A >2x regression on the committed 4-site point fails.
        let slow = SCALE.replace("\"evals_per_sec\": 20000.0", "\"evals_per_sec\": 900.0");
        assert!(failed(&check(
            RECOMMENDER,
            &slow,
            SERVICE,
            Some(RECOMMENDER),
            Some(SCALE),
            Some(SERVICE)
        )));
        // A fresh 4-site point at a size the committed sweep lacks (narrow
        // CI override) skips the relative check instead of failing.
        let narrow = r#"{"points": [
            { "components": 25, "sites": 2, "front_size": 1, "evals_per_sec": 50000.0,
              "scalar_evals_per_sec": 48000.0, "batch_evals_per_sec": 150000.0,
              "search_evals_per_sec": 180000.0, "ingest_traces_per_sec": 300000.0,
              "volume_scale": 10.0, "learn_ms": 3.0, "learn_speedup": 9.0 },
            { "components": 25, "sites": 4, "front_size": 1, "evals_per_sec": 1.0,
              "scalar_evals_per_sec": 1.0, "batch_evals_per_sec": 3.0,
              "search_evals_per_sec": 4.0 } ]}"#;
        let verdicts = check(
            RECOMMENDER,
            narrow,
            SERVICE,
            Some(RECOMMENDER),
            Some(SCALE),
            Some(SERVICE),
        );
        assert!(!failed(&verdicts));
        assert!(verdicts
            .iter()
            .any(|v| matches!(v, Verdict::Ok(m) if m.contains("25 components / 4 sites"))));
    }

    #[test]
    fn negative_parallel_speedup_fails_loudly() {
        let slow = RECOMMENDER.replace("\"parallel_speedup\": 3.00", "\"parallel_speedup\": 0.91");
        let verdicts = check(
            &slow,
            SCALE,
            SERVICE,
            Some(RECOMMENDER),
            Some(SCALE),
            Some(SERVICE),
        );
        assert!(failed(&verdicts));
        assert!(verdicts
            .iter()
            .any(|v| matches!(v, Verdict::Fail(m) if m.contains("SLOWER"))));
    }

    #[test]
    fn single_core_machines_skip_the_speedup_gate() {
        // On one core both measurements run the identical serial path, so a
        // sub-1.0 ratio is measurement noise, not a regression.
        let one_core = RECOMMENDER
            .replace("\"parallel_workers\": 8", "\"parallel_workers\": 1")
            .replace("\"parallel_speedup\": 3.00", "\"parallel_speedup\": 0.97");
        let verdicts = check(
            &one_core,
            SCALE,
            SERVICE,
            Some(RECOMMENDER),
            Some(SCALE),
            Some(SERVICE),
        );
        assert!(!failed(&verdicts));
        assert!(verdicts
            .iter()
            .any(|v| matches!(v, Verdict::Ok(m) if m.contains("vacuous"))));
    }

    #[test]
    fn large_evals_per_sec_regression_fails() {
        let slow = SCALE.replace("\"evals_per_sec\": 50000.0", "\"evals_per_sec\": 700.0");
        let verdicts = check(
            RECOMMENDER,
            &slow,
            SERVICE,
            Some(RECOMMENDER),
            Some(SCALE),
            Some(SERVICE),
        );
        assert!(failed(&verdicts));
        // A mild slow-down (within 2x) passes.
        let mild = SCALE.replace("\"evals_per_sec\": 50000.0", "\"evals_per_sec\": 26000.0");
        assert!(!failed(&check(
            RECOMMENDER,
            &mild,
            SERVICE,
            None,
            Some(SCALE),
            None
        )));
    }

    #[test]
    fn missing_baselines_skip_the_relative_gates() {
        let verdicts = check(RECOMMENDER, SCALE, SERVICE, None, None, None);
        assert!(!failed(&verdicts));
        assert!(verdicts
            .iter()
            .any(|v| matches!(v, Verdict::Ok(m) if m.contains("skipping"))));
    }

    /// The service gates fire when the drift corpus trips no detector,
    /// when incremental relearn loses its edge, when the drift-to-
    /// recommendation latency blows up against the committed snapshot, and
    /// when the sweep is empty.
    #[test]
    fn service_gates_guard_the_resident_loop() {
        // No drift detected fails (absolute gate, no baseline needed).
        let deaf = SERVICE.replace("\"drift_apis\": 3", "\"drift_apis\": 0");
        let verdicts = check(RECOMMENDER, SCALE, &deaf, None, None, None);
        assert!(failed(&verdicts));
        assert!(verdicts
            .iter()
            .any(|v| matches!(v, Verdict::Fail(m) if m.contains("tripped no detector"))));

        // Relearn speedup below the floor fails (same-machine ratio).
        let slow = SERVICE.replace("\"relearn_speedup\": 4.5", "\"relearn_speedup\": 1.1");
        let verdicts = check(RECOMMENDER, SCALE, &slow, None, None, None);
        assert!(failed(&verdicts));
        assert!(verdicts
            .iter()
            .any(|v| matches!(v, Verdict::Fail(m) if m.contains("no longer beats"))));

        // Drift latency more than doubling against the snapshot fails.
        let laggy = SERVICE.replace(
            "\"drift_to_recommendation_ms\": 150.0",
            "\"drift_to_recommendation_ms\": 400.0",
        );
        let verdicts = check(RECOMMENDER, SCALE, &laggy, None, None, Some(SERVICE));
        assert!(failed(&verdicts));
        assert!(verdicts.iter().any(
            |v| matches!(v, Verdict::Fail(m) if m.contains("drift_to_recommendation_ms grew"))
        ));
        // Within 2x: passes.
        let mild = SERVICE.replace(
            "\"drift_to_recommendation_ms\": 150.0",
            "\"drift_to_recommendation_ms\": 280.0",
        );
        assert!(!failed(&check(
            RECOMMENDER,
            SCALE,
            &mild,
            None,
            None,
            Some(SERVICE)
        )));

        // Service ingest throughput is gated like the arena's (2x relative).
        let choked = SERVICE.replace(
            "\"ingest_traces_per_sec\": 200000.0",
            "\"ingest_traces_per_sec\": 50000.0",
        );
        let verdicts = check(RECOMMENDER, SCALE, &choked, None, None, Some(SERVICE));
        assert!(failed(&verdicts));
        assert!(verdicts.iter().any(
            |v| matches!(v, Verdict::Fail(m) if m.contains("service ingest") && m.contains("regressed"))
        ));

        // An empty service sweep fails loudly.
        let empty = r#"{"bench": "service", "points": []}"#;
        let verdicts = check(RECOMMENDER, SCALE, empty, None, None, None);
        assert!(failed(&verdicts));
        assert!(verdicts
            .iter()
            .any(|v| matches!(v, Verdict::Fail(m) if m.contains("no points"))));
    }

    #[test]
    fn serving_grid_is_parsed_and_split() {
        let (replay, serving) = split_serving(SERVICE);
        assert!(replay.contains("\"relearn_speedup\": 4.5"));
        assert!(!replay.contains("speedup_vs_serial"));
        assert_eq!(serving_points(serving), vec![(4, 1), (4, 2), (4, 8)]);
        assert_eq!(
            serving_point_number(serving, 4, 2, "p99_latency_ms"),
            Some(52.0)
        );
        assert_eq!(
            serving_point_number(serving, 4, 1, "speedup_vs_serial"),
            Some(3.25)
        );
        assert_eq!(serving_point_number(serving, 4, 4, "workers"), None);
        assert_eq!(serving_point_number(serving, 2, 1, "workers"), None);
        // The replay slice never leaks serving objects into the
        // component-keyed scanners.
        assert_eq!(scale_points(replay), vec![(25, 2)]);
        // Pre-hub documents are all replay.
        let legacy = r#"{"bench": "service", "points": []}"#;
        let (replay, serving) = split_serving(legacy);
        assert_eq!(replay, legacy);
        assert!(serving.is_empty());
    }

    /// The serving gates fire when a concurrent answer diverges from the
    /// serial ground truth, when the worker pool loses its edge over the
    /// serial loop, when throughput or tail latency blows up against the
    /// committed snapshot, and when the grid is missing entirely — and stay
    /// vacuous on a single-worker (one-core) runner.
    #[test]
    fn serving_gates_guard_the_hub() {
        // A diverged answer fails no matter the baselines: determinism is
        // the hub's contract, not a perf figure.
        let diverged = SERVICE.replacen("\"deterministic\": 1", "\"deterministic\": 0", 1);
        let verdicts = check(RECOMMENDER, SCALE, &diverged, None, None, None);
        assert!(failed(&verdicts));
        assert!(verdicts
            .iter()
            .any(|v| matches!(v, Verdict::Fail(m) if m.contains("DIVERGED"))));

        // The single-evaluator-thread point losing its concurrency edge
        // fails (same-machine ratio, no tolerance).
        let flat = SERVICE.replace("\"speedup_vs_serial\": 3.25", "\"speedup_vs_serial\": 1.10");
        let verdicts = check(RECOMMENDER, SCALE, &flat, None, None, None);
        assert!(failed(&verdicts));
        assert!(verdicts
            .iter()
            .any(|v| matches!(v, Verdict::Fail(m) if m.contains("no longer beats a serial"))));

        // On a single-worker runner the same ratio is vacuous: serve()
        // falls back to the identical serial path.
        let one_core = SERVICE
            .replace("\"workers\": 8", "\"workers\": 1")
            .replace("\"speedup_vs_serial\": 3.25", "\"speedup_vs_serial\": 0.97");
        let verdicts = check(RECOMMENDER, SCALE, &one_core, None, None, None);
        assert!(!failed(&verdicts));
        assert!(verdicts
            .iter()
            .any(|v| matches!(v, Verdict::Ok(m) if m.contains("serving-speedup gate vacuous"))));

        // Requests/second collapsing past 2x against the snapshot fails; a
        // mild (within-2x) slow-down passes.
        let choked = SERVICE.replace(
            "\"concurrent_requests_per_sec\": 130.0",
            "\"concurrent_requests_per_sec\": 30.0",
        );
        let verdicts = check(RECOMMENDER, SCALE, &choked, None, None, Some(SERVICE));
        assert!(failed(&verdicts));
        assert!(verdicts.iter().any(
            |v| matches!(v, Verdict::Fail(m) if m.contains("serving @ 4 tenants / 1 request threads regressed"))
        ));
        let mild = SERVICE.replace(
            "\"concurrent_requests_per_sec\": 130.0",
            "\"concurrent_requests_per_sec\": 70.0",
        );
        assert!(!failed(&check(
            RECOMMENDER,
            SCALE,
            &mild,
            None,
            None,
            Some(SERVICE)
        )));

        // p99 more than doubling against the snapshot fails.
        let laggy = SERVICE.replace("\"p99_latency_ms\": 48.00", "\"p99_latency_ms\": 120.00");
        let verdicts = check(RECOMMENDER, SCALE, &laggy, None, None, Some(SERVICE));
        assert!(failed(&verdicts));
        assert!(verdicts
            .iter()
            .any(|v| matches!(v, Verdict::Fail(m) if m.contains("p99_latency_ms grew"))));

        // A committed baseline from before the hub existed (no serving
        // section) skips the relative gates instead of failing.
        let (pre_hub, _) = split_serving(SERVICE);
        let verdicts = check(RECOMMENDER, SCALE, SERVICE, None, None, Some(pre_hub));
        assert!(!failed(&verdicts));
        assert!(verdicts
            .iter()
            .any(|v| matches!(v, Verdict::Ok(m) if m.contains("no committed serving point"))));

        // A fresh document without the grid fails loudly: the hub went
        // unexercised.
        let verdicts = check(RECOMMENDER, SCALE, pre_hub, None, None, None);
        assert!(failed(&verdicts));
        assert!(verdicts
            .iter()
            .any(|v| matches!(v, Verdict::Fail(m) if m.contains("no serving grid"))));
    }
}
