//! Scale experiments over procedurally generated scenarios.
//!
//! One [`ScalePoint`] runs the full Atlas pipeline — generate a synthetic
//! application, simulate its learning workload, learn, recommend — at a given
//! component count and reports the recommendation wall time, the evaluation
//! throughput and the cache behaviour of the shared
//! [`PlanEvaluator`]. The `scale` bench target and
//! the `fig_scale` binary both drive this module; the bench additionally
//! writes the machine-readable `BENCH_scale.json` CI tracks alongside
//! `BENCH_recommender.json`.

use std::collections::HashSet;
use std::time::Instant;

use atlas_apps::{synthesize, CallGraphShape, SynthOptions, WorkloadShape};
use atlas_core::{
    ApiProfile, ApplicationProfile, MigrationPlan, PlanEvaluator, QualityModel, Recommender,
    RecommenderConfig, ScoredPlan, LANE_WIDTH,
};
use atlas_sim::{ComponentId, SiteId};
use atlas_telemetry::{us_to_ms, TelemetryStore, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::harness::{Application, Experiment, ExperimentOptions};

/// Component counts the scale experiments sweep by default.
pub const DEFAULT_SIZES: [usize; 5] = [25, 50, 100, 250, 500];

/// Component count of the default multi-site point (run at
/// [`MULTI_SITE_COUNT`] sites next to the 2-site sweep, so the snapshot
/// records the cost of the N×N kernel tables at a fixed size).
pub const MULTI_SITE_COMPONENTS: usize = 100;

/// Site count of the multi-site sweep point.
pub const MULTI_SITE_COUNT: usize = 4;

/// Component count of the high-volume companion point (run at
/// [`VOLUME_SCALE_FACTOR`]× the normal traffic next to the 2-site sweep, so
/// the snapshot records how learning scales with traffic *volume* as opposed
/// to application size).
pub const VOLUME_COMPONENTS: usize = 100;

/// Traffic-volume multiplier of the high-volume companion point.
pub const VOLUME_SCALE_FACTOR: f64 = 10.0;

/// Component count of the wide companion point: a [`MULTI_SITE_COUNT`]-site
/// application searched with uniform crossover — the shape of the
/// end-to-end benchmark's `cold-wide` workload, where plan scoring is most
/// of a request and nearly every crossover child touches nearly every
/// compiled trace, so the snapshot records which scoring route the search's
/// plans took at the size where the choice matters.
pub const WIDE_COMPONENTS: usize = 500;

/// Representative cap per API used by the learn microbench (matches the
/// harness's `traces_per_api`).
const LEARN_TRACES_PER_API: usize = 40;

/// One measured point of the scale sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Number of components of the generated application.
    pub components: usize,
    /// Number of placement sites of the scenario (2 = the paper's binary
    /// model; larger counts exercise the N×N kernel path).
    pub sites: usize,
    /// Number of user-facing APIs.
    pub apis: usize,
    /// Pareto-optimal plans recommended.
    pub plans: usize,
    /// Size of the recommendation's Pareto front (the external archive
    /// front — every feasible plan the search visited, non-dominated). The
    /// CI gate holds this at or above the committed snapshot at the larger
    /// sweep sizes: the archive must never thin the answer.
    pub front_size: usize,
    /// End-to-end `Recommender::recommend` wall time in milliseconds.
    pub recommend_ms: f64,
    /// Unique plan evaluations performed by the search.
    pub unique_evaluations: usize,
    /// Evaluations served from the memo cache.
    pub cache_hits: usize,
    /// Cache hit rate of the evaluation layer.
    pub cache_hit_rate: f64,
    /// Unique evaluations per second of scoring wall time.
    pub evals_per_sec: f64,
    /// Milliseconds spent compiling the quality model's evaluation kernel
    /// (paid once per model, amortised over every evaluation).
    pub kernel_compile_ms: f64,
    /// Milliseconds spent scoring uncached plans (the evaluator's wall
    /// time), the denominator of `evals_per_sec`.
    pub score_ms: f64,
    /// Of the search's unique evaluations, the plans re-scored incrementally
    /// against a retained parent ([`atlas_core::EvalStats::delta_scored`]).
    pub delta_scored: usize,
    /// Of the search's unique evaluations, the plans cold-scored in lane
    /// groups ([`atlas_core::EvalStats::lane_scored`]).
    pub lane_scored: usize,
    /// Whether the search ran plain uniform crossover instead of training
    /// the crossover agent (the wide companion point).
    pub uniform_crossover: bool,
    /// Milliseconds the request spent building and training its crossover
    /// agent, rollout scoring excluded
    /// ([`atlas_core::SearchStages::rl_train_ms`]).
    pub rl_train_ms: f64,
    /// Milliseconds the request spent in the crossover operator producing
    /// offspring ([`atlas_core::SearchStages::crossover_ms`]).
    pub crossover_ms: f64,
    /// Raw single-plan `QualityModel::evaluate` throughput (evals/sec) of
    /// the scoring microbench — no cache, no threads, just the kernel.
    pub scalar_evals_per_sec: f64,
    /// Raw batched `evaluate_lanes` throughput at [`LANE_WIDTH`] lanes on
    /// the same plans; the CI gate requires this to keep up with the scalar
    /// path at every size.
    pub batch_evals_per_sec: f64,
    /// Raw single-move `probe_delta` re-score throughput against a retained
    /// parent state (the local-search probe shape).
    pub delta_probe_evals_per_sec: f64,
    /// Offspring scored per second through the delta-native search path
    /// ([`PlanEvaluator::evaluate_offspring_batch`]): freshly generated
    /// GA-shaped children (a few mutated genes against a retained parent)
    /// in generation-sized batches, with the evaluator's worker threads,
    /// lane batching, memo cache and diff routing all engaged — the
    /// throughput the generational loop actually sees. The CI gate requires
    /// this to stay well ahead of the cold batch path.
    pub search_evals_per_sec: f64,
    /// Traffic-volume multiplier of the learning workload (1.0 = the normal
    /// sweep; the volume companion runs at [`VOLUME_SCALE_FACTOR`]).
    pub volume_scale: f64,
    /// Total raw traces collected during the learning period.
    pub raw_traces: usize,
    /// Weighted representatives the clustered learner retains across every
    /// API — the number of traces the kernel compiles, bounded by distinct
    /// call-tree structures rather than traffic volume.
    pub representative_traces: usize,
    /// `representative_traces / raw_traces`: how much of the traffic is
    /// structurally redundant (small = heavy dedup).
    pub distinct_trace_ratio: f64,
    /// Traces ingested per second when replaying the collected corpus into a
    /// fresh arena-backed store (interning + column append + index upkeep).
    pub ingest_traces_per_sec: f64,
    /// Milliseconds of the shipped learning path: arena-indexed
    /// `ApplicationProfile::learn` (clustered, weighted representatives)
    /// plus the quality-kernel compile over those representatives.
    pub learn_ms: f64,
    /// Milliseconds of the Vec-store baseline: full-trace learning where
    /// every per-API query clones the trace list, plus the kernel compile
    /// over the retained (uncollapsed) traces.
    pub learn_baseline_ms: f64,
    /// `learn_baseline_ms / learn_ms`.
    pub learn_speedup: f64,
}

/// The synthetic options used for one sweep size (public so tests and the
/// figure binary agree on the scenario).
pub fn options_for(components: usize) -> SynthOptions {
    options_for_sites(components, 2)
}

/// The synthetic options of one `(components, sites)` sweep point.
pub fn options_for_sites(components: usize, sites: usize) -> SynthOptions {
    options_for_volume(components, sites, 1.0)
}

/// The synthetic options of one `(components, sites, volume)` sweep point.
pub fn options_for_volume(components: usize, sites: usize, volume_scale: f64) -> SynthOptions {
    SynthOptions {
        components,
        shape: CallGraphShape::Layered,
        stateful_fraction: 0.2,
        apis: (components / 8).clamp(3, 12),
        call_depth: 4,
        data_scale: 1.0,
        workload: WorkloadShape::Diurnal,
        volume_scale,
        site_count: sites,
        seed: 11,
    }
}

/// Run the full pipeline at one component count in the two-site model.
pub fn run_scale_point(components: usize) -> ScalePoint {
    run_scale_point_sites(components, 2)
}

/// Run the full pipeline at one `(components, sites)` point: multi-site
/// points compile N×N link-cost tables and search the full site alphabet.
pub fn run_scale_point_sites(components: usize, sites: usize) -> ScalePoint {
    run_scale_point_volume(components, sites, 1.0)
}

/// Run the full pipeline at one `(components, sites, volume)` point: the
/// volume companion multiplies the learning traffic without changing the
/// application, so its learn metrics isolate how ingest, profiling and
/// kernel compilation scale with observation count.
pub fn run_scale_point_volume(components: usize, sites: usize, volume_scale: f64) -> ScalePoint {
    run_point(components, sites, volume_scale, false)
}

/// Run the full pipeline at one `(components, sites)` point searched with
/// plain uniform crossover: no agent is trained, so scoring is the search.
pub fn run_scale_point_uniform(components: usize, sites: usize) -> ScalePoint {
    run_point(components, sites, 1.0, true)
}

fn run_point(
    components: usize,
    sites: usize,
    volume_scale: f64,
    uniform_crossover: bool,
) -> ScalePoint {
    let synth = options_for_volume(components, sites, volume_scale);
    // Derive an on-prem CPU limit that forces offloading: 60 % of the peak
    // expected demand under the 5× burst, computed from the generator's
    // analytic demand (no simulation needed).
    let scenario = synthesize(synth).expect("scale options are valid");
    let cpu_limit = scenario.burst_cpu_limit(5.0, 0.6);

    let exp = Experiment::set_up(ExperimentOptions {
        application: Application::Synthetic(synth),
        onprem_cpu_limit: cpu_limit,
        learn_day_seconds: Some(60),
        max_visited: 250,
        population: 16,
        ..ExperimentOptions::quick()
    });

    let mut config = RecommenderConfig {
        population: 16,
        max_visited: 250,
        ..RecommenderConfig::fast()
    };
    if uniform_crossover {
        config = config.with_uniform_crossover();
    }
    let start = Instant::now();
    let report = Recommender::new(&exp.quality, config).recommend();
    let recommend_ms = start.elapsed().as_secs_f64() * 1_000.0;
    let stats = report.eval;
    let (scalar_evals_per_sec, batch_evals_per_sec, delta_probe_evals_per_sec) =
        throughput_microbench(&exp.quality, sites);
    let search_evals_per_sec = search_microbench(&exp.quality, sites);
    let learn = learn_microbench(&exp);

    ScalePoint {
        components,
        sites,
        apis: synth.apis,
        plans: report.plans.len(),
        front_size: report.plans.len(),
        recommend_ms,
        unique_evaluations: stats.unique_evaluations,
        cache_hits: stats.cache_hits,
        cache_hit_rate: stats.cache_hit_rate(),
        evals_per_sec: stats.evaluations_per_sec(),
        kernel_compile_ms: stats.kernel_compile_ms,
        score_ms: stats.wall_time_ms,
        delta_scored: stats.delta_scored,
        lane_scored: stats.lane_scored,
        uniform_crossover,
        rl_train_ms: report.stages.rl_train_ms,
        crossover_ms: report.stages.crossover_ms,
        scalar_evals_per_sec,
        batch_evals_per_sec,
        delta_probe_evals_per_sec,
        search_evals_per_sec,
        volume_scale,
        raw_traces: learn.raw_traces,
        representative_traces: learn.representative_traces,
        distinct_trace_ratio: learn.distinct_trace_ratio,
        ingest_traces_per_sec: learn.ingest_traces_per_sec,
        learn_ms: learn.learn_ms,
        learn_baseline_ms: learn.learn_baseline_ms,
        learn_speedup: learn.learn_speedup,
    }
}

/// The learn microbench's measurements (folded into [`ScalePoint`]).
struct LearnMetrics {
    raw_traces: usize,
    representative_traces: usize,
    distinct_trace_ratio: f64,
    ingest_traces_per_sec: f64,
    learn_ms: f64,
    learn_baseline_ms: f64,
    learn_speedup: f64,
}

/// Measure the learning path against a Vec-store baseline on the
/// experiment's collected telemetry.
///
/// Three timed regions:
///
/// 1. **Ingest**: replay the collected trace corpus into a fresh
///    arena-backed store (name interning, column appends, per-API and
///    per-edge index upkeep) → `ingest_traces_per_sec`.
/// 2. **Clustered learn** (the shipped path): arena-indexed
///    [`ApplicationProfile::learn`] — counts and means from columns,
///    weighted structural representatives — plus the quality-kernel compile
///    over those representatives → `learn_ms`.
/// 3. **Vec-store baseline**: the pre-arena data path over the same corpus —
///    every per-API query clones the full trace list (`traces_for_api` for
///    counts/means/components, `recent_traces_for_api` for retention), and
///    the kernel compiles every retained trace uncollapsed →
///    `learn_baseline_ms`. Component resource profiles are cloned rather
///    than re-learned (identical work in both paths), which under-counts
///    the baseline and makes the reported speedup conservative.
fn learn_microbench(exp: &Experiment) -> LearnMetrics {
    let component_index: Vec<String> = exp
        .topology
        .components()
        .iter()
        .map(|c| c.name.clone())
        .collect();
    let stateful: Vec<String> = exp
        .topology
        .stateful_components()
        .into_iter()
        .map(|c| exp.topology.component_name(c).to_string())
        .collect();

    // The raw corpus, materialized once: this is the Vec store's native
    // state, and the replay source for the ingest measurement.
    let corpus: Vec<(String, Vec<Trace>)> = exp
        .store
        .apis()
        .into_iter()
        .map(|api| {
            let traces = exp.store.traces_for_api(&api);
            (api, traces)
        })
        .collect();
    let raw_traces: usize = corpus.iter().map(|(_, t)| t.len()).sum();

    // 1. Ingest throughput (clone the corpus outside the timed region).
    let replay: Vec<Trace> = corpus
        .iter()
        .flat_map(|(_, traces)| traces.iter().cloned())
        .collect();
    let fresh = TelemetryStore::new();
    let start = Instant::now();
    for trace in replay {
        fresh.ingest_trace(trace);
    }
    let ingest_s = start.elapsed().as_secs_f64();
    let ingest_traces_per_sec = raw_traces as f64 / ingest_s.max(1e-9);

    // 2. The shipped clustered path: learn + kernel compile.
    let start = Instant::now();
    let profile = ApplicationProfile::learn(&exp.store, &stateful, LEARN_TRACES_PER_API);
    let model = QualityModel::for_catalog(
        profile,
        exp.atlas.footprint().clone(),
        &exp.catalog,
        exp.atlas.demand().clone(),
        exp.preferences.clone(),
        exp.current.clone(),
        component_index.clone(),
    );
    let learn_ms = start.elapsed().as_secs_f64() * 1_000.0;
    let representative_traces = model.kernel().trace_count();

    // 3. The Vec-store baseline over the same corpus.
    let start = Instant::now();
    let mut apis = std::collections::HashMap::new();
    for (endpoint, traces) in &corpus {
        // `traces_for_api` semantics: one full clone per query.
        let all: Vec<Trace> = traces.clone();
        let request_count = all.len();
        let mean_latency_ms = all
            .iter()
            .map(|t| us_to_ms(t.end_to_end_latency_us()))
            .sum::<f64>()
            / request_count.max(1) as f64;
        let mut components = HashSet::new();
        let mut stateful_used = HashSet::new();
        for trace in &all {
            for node in &trace.nodes {
                if stateful.contains(&node.span.component) {
                    stateful_used.insert(node.span.component.clone());
                }
                components.insert(node.span.component.clone());
            }
        }
        // `recent_traces_for_api` semantics: clone, sort, keep the tail.
        let mut sorted = traces.clone();
        sorted.sort_by(|a, b| {
            let (sa, sb) = (a.root().start_us, b.root().start_us);
            sa.cmp(&sb).then_with(|| a.trace_id.cmp(&b.trace_id))
        });
        let retained: Vec<Trace> =
            sorted[sorted.len().saturating_sub(LEARN_TRACES_PER_API)..].to_vec();
        apis.insert(
            endpoint.clone(),
            ApiProfile {
                endpoint: endpoint.clone(),
                trace_weights: vec![1.0; retained.len()],
                traces: retained,
                components,
                stateful_components: stateful_used,
                mean_latency_ms,
                request_count,
            },
        );
    }
    let baseline_profile = ApplicationProfile {
        apis,
        components: exp.atlas.profile().components.clone(),
    };
    let baseline_model = QualityModel::for_catalog(
        baseline_profile,
        exp.atlas.footprint().clone(),
        &exp.catalog,
        exp.atlas.demand().clone(),
        exp.preferences.clone(),
        exp.current.clone(),
        component_index,
    );
    let learn_baseline_ms = start.elapsed().as_secs_f64() * 1_000.0;
    std::hint::black_box(baseline_model.kernel().trace_count());

    LearnMetrics {
        raw_traces,
        representative_traces,
        distinct_trace_ratio: representative_traces as f64 / (raw_traces as f64).max(1.0),
        ingest_traces_per_sec,
        learn_ms,
        learn_baseline_ms,
        learn_speedup: learn_baseline_ms / learn_ms.max(1e-9),
    }
}

/// Distinct random plans the throughput microbenches cycle through.
const MICROBENCH_PLANS: usize = 256;

/// Minimum measured wall time of one microbench path, in seconds.
const MICROBENCH_SECONDS: f64 = 0.2;

/// Repeat `pass` (one sweep over the plan set, returning how many plans it
/// scored) until [`MICROBENCH_SECONDS`] of wall time accumulate; returns
/// evaluations per second.
fn throughput(mut pass: impl FnMut() -> usize) -> f64 {
    let start = Instant::now();
    let mut evals = 0usize;
    loop {
        evals += pass();
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= MICROBENCH_SECONDS {
            return evals as f64 / elapsed;
        }
    }
}

/// Measure the raw scoring throughput of the three kernel paths on one
/// scenario, in evals/sec: single-plan [`QualityModel::evaluate`], batched
/// [`QualityModel::evaluate_lanes`] at [`LANE_WIDTH`] lanes, and the
/// single-move [`QualityModel::probe_delta`] local-search probe. All three
/// score the same deterministic random plans without cache or threads, so
/// the ratios isolate what the batch transposition and the delta re-score
/// buy per evaluation.
fn throughput_microbench(quality: &QualityModel, sites: usize) -> (f64, f64, f64) {
    let n = quality.component_count();
    let mut rng = StdRng::seed_from_u64(2024);
    let plans: Vec<MigrationPlan> = (0..MICROBENCH_PLANS)
        .map(|_| {
            MigrationPlan::from_sites(
                (0..n)
                    .map(|_| SiteId(rng.gen_range(0..sites as u16)))
                    .collect(),
            )
        })
        .collect();

    let scalar = throughput(|| {
        for p in &plans {
            std::hint::black_box(quality.evaluate(p));
        }
        plans.len()
    });

    let refs: Vec<&MigrationPlan> = plans.iter().collect();
    let batch = throughput(|| {
        for group in refs.chunks(LANE_WIDTH) {
            std::hint::black_box(quality.evaluate_lanes(group));
        }
        refs.len()
    });

    let parent = quality.evaluate_scored(&plans[0]);
    let delta = throughput(|| {
        for k in 0..MICROBENCH_PLANS {
            let c = k % n;
            let to = SiteId((parent.sites()[c].0 + 1) % sites as u16);
            std::hint::black_box(quality.probe_delta(&parent, &[(ComponentId(c), to)]));
        }
        MICROBENCH_PLANS
    });

    (scalar, batch, delta)
}

/// Parent population of the search-throughput microbench (the generational
/// loop's survivor count at the sweep's search settings).
const SEARCH_BENCH_PARENTS: usize = 16;

/// Mutated genes per GA-shaped microbench child: one — the smallest GA
/// step and the delta path's canonical shape. Cold scoring already has its
/// own figure (`batch_evals_per_sec`), so the search figure deliberately
/// keeps children as narrow as a child can be: it isolates the incremental
/// offspring machinery (parent diffing, routing, memo probing,
/// touched-trace re-scoring, retained-state assembly) that the
/// generational loop adds on top. Where one gene's traces are a small share
/// of the kernel the child is delta-scored — nearly all of them from 250
/// components up; a 25- or 50-component kernel has 3–7 traces, so many
/// genes alone touch more than the routing cutoff and those children join
/// a lane group.
const SEARCH_BENCH_GENES: usize = 1;

/// Measure the delta-native search throughput, in offspring/sec: score
/// freshly generated GA-shaped children — each [`SEARCH_BENCH_GENES`]
/// mutated gene(s) away from one of [`SEARCH_BENCH_PARENTS`] retained
/// parents, every mutation a real site move — in generation-sized batches
/// of [`MICROBENCH_PLANS`] through
/// [`PlanEvaluator::evaluate_offspring_batch`]. Children are generated
/// inside the timed region (as the real loop does), with worker threads
/// and diff routing engaged. Each pass scores through a fresh memo cache:
/// at small component counts the one-gene neighbourhood of the parent set
/// is finite, and a shared cache would turn the figure into memo-replay
/// throughput (replay is equally free in every path), swamping the
/// incremental-scoring signal this number exists to track.
fn search_microbench(quality: &QualityModel, sites: usize) -> f64 {
    let n = quality.component_count();
    let mut rng = StdRng::seed_from_u64(4096);
    let seeds: Vec<MigrationPlan> = (0..SEARCH_BENCH_PARENTS)
        .map(|_| {
            MigrationPlan::from_sites(
                (0..n)
                    .map(|_| SiteId(rng.gen_range(0..sites as u16)))
                    .collect(),
            )
        })
        .collect();
    let parents: Vec<ScoredPlan> = PlanEvaluator::new(quality).evaluate_scored_batch(&seeds);
    throughput(|| {
        let evaluator = PlanEvaluator::new(quality);
        let mut anchors: Vec<&ScoredPlan> = Vec::with_capacity(MICROBENCH_PLANS);
        let mut children: Vec<MigrationPlan> = Vec::with_capacity(MICROBENCH_PLANS);
        for k in 0..MICROBENCH_PLANS {
            let parent = &parents[k % parents.len()];
            let mut sites_vec = parent.sites().to_vec();
            for _ in 0..SEARCH_BENCH_GENES {
                let g = rng.gen_range(0..n);
                let hop = rng.gen_range(1..sites.max(2) as u16);
                sites_vec[g] = SiteId((sites_vec[g].0 + hop) % sites as u16);
            }
            anchors.push(parent);
            children.push(MigrationPlan::from_sites(sites_vec));
        }
        std::hint::black_box(evaluator.evaluate_offspring_batch(&anchors, &children));
        MICROBENCH_PLANS
    })
}

/// Component counts to sweep: `ATLAS_SCALE_COMPONENTS` (a comma-separated
/// list, e.g. `25` in CI) or [`DEFAULT_SIZES`].
pub fn sizes_from_env() -> Vec<usize> {
    match std::env::var("ATLAS_SCALE_COMPONENTS") {
        Ok(raw) => parse_sizes(&raw),
        Err(_) => DEFAULT_SIZES.to_vec(),
    }
}

/// The `(components, sites)` pairs of one sweep: every size at 2 sites,
/// plus one [`MULTI_SITE_COUNT`]-site companion point so the snapshot and
/// the CI gate always exercise the N×N kernel path. The companion runs at
/// [`MULTI_SITE_COMPONENTS`] when the sweep covers it (the committed
/// default), otherwise at the smallest swept size (CI's narrow
/// `ATLAS_SCALE_COMPONENTS=25` override).
pub fn sweep_points(sizes: &[usize]) -> Vec<(usize, usize)> {
    let mut points: Vec<(usize, usize)> = sizes.iter().map(|&n| (n, 2)).collect();
    if let Some(&smallest) = sizes.iter().min() {
        let companion = if sizes.contains(&MULTI_SITE_COMPONENTS) {
            MULTI_SITE_COMPONENTS
        } else {
            smallest
        };
        points.push((companion, MULTI_SITE_COUNT));
    }
    points
}

/// The `(components, volume_scale)` of the sweep's high-volume companion: a
/// 2-site point at [`VOLUME_SCALE_FACTOR`]× the learning traffic, run at
/// [`VOLUME_COMPONENTS`] when the sweep covers it, otherwise at the smallest
/// swept size (narrow CI overrides). `None` only for an empty sweep.
pub fn volume_point(sizes: &[usize]) -> Option<(usize, f64)> {
    let smallest = *sizes.iter().min()?;
    let components = if sizes.contains(&VOLUME_COMPONENTS) {
        VOLUME_COMPONENTS
    } else {
        smallest
    };
    Some((components, VOLUME_SCALE_FACTOR))
}

/// The `(components, sites)` of the sweep's wide companion, run with
/// uniform crossover ([`run_scale_point_uniform`]): only when the sweep
/// covers [`WIDE_COMPONENTS`] — the full local sweep; narrow CI overrides
/// skip it.
pub fn wide_point(sizes: &[usize]) -> Option<(usize, usize)> {
    sizes
        .contains(&WIDE_COMPONENTS)
        .then_some((WIDE_COMPONENTS, MULTI_SITE_COUNT))
}

/// Run every point of one sweep, in `BENCH_scale.json` order: the
/// [`sweep_points`], the [`volume_point`] and the [`wide_point`].
pub fn run_sweep(sizes: &[usize]) -> Vec<ScalePoint> {
    let mut points: Vec<ScalePoint> = sweep_points(sizes)
        .into_iter()
        .map(|(n, s)| run_scale_point_sites(n, s))
        .collect();
    if let Some((n, volume)) = volume_point(sizes) {
        points.push(run_scale_point_volume(n, 2, volume));
    }
    if let Some((n, s)) = wide_point(sizes) {
        points.push(run_scale_point_uniform(n, s));
    }
    points
}

/// Parse an `ATLAS_SCALE_COMPONENTS`-style override. An override that
/// yields no usable size falls back to the *smallest* default only (never
/// silently to the full sweep: whoever sets the variable wants a narrow
/// run), with a warning naming what was dropped.
fn parse_sizes(raw: &str) -> Vec<usize> {
    let sizes: Vec<usize> = raw
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&n| (10..=500).contains(&n))
        .collect();
    if sizes.is_empty() {
        let smallest = *DEFAULT_SIZES.iter().min().expect("defaults are non-empty");
        eprintln!(
            "ATLAS_SCALE_COMPONENTS={raw:?} contains no usable size \
             (want comma-separated integers in 10..=500); running {smallest} only"
        );
        vec![smallest]
    } else {
        sizes
    }
}

/// Render the sweep as the `BENCH_scale.json` document.
pub fn scale_json(points: &[ScalePoint]) -> String {
    let mut out = String::from("{\n  \"bench\": \"scale\",\n  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"components\": {},\n",
                "      \"sites\": {},\n",
                "      \"apis\": {},\n",
                "      \"plans\": {},\n",
                "      \"front_size\": {},\n",
                "      \"recommend_ms\": {:.1},\n",
                "      \"unique_evaluations\": {},\n",
                "      \"cache_hits\": {},\n",
                "      \"cache_hit_rate\": {:.4},\n",
                "      \"evals_per_sec\": {:.1},\n",
                "      \"kernel_compile_ms\": {:.2},\n",
                "      \"score_ms\": {:.2},\n",
                "      \"delta_scored\": {},\n",
                "      \"lane_scored\": {},\n",
                "      \"uniform_crossover\": {},\n",
                "      \"rl_train_ms\": {:.2},\n",
                "      \"crossover_ms\": {:.2},\n",
                "      \"scalar_evals_per_sec\": {:.1},\n",
                "      \"batch_evals_per_sec\": {:.1},\n",
                "      \"delta_probe_evals_per_sec\": {:.1},\n",
                "      \"search_evals_per_sec\": {:.1},\n",
                "      \"volume_scale\": {:.1},\n",
                "      \"raw_traces\": {},\n",
                "      \"representative_traces\": {},\n",
                "      \"distinct_trace_ratio\": {:.4},\n",
                "      \"ingest_traces_per_sec\": {:.1},\n",
                "      \"learn_ms\": {:.2},\n",
                "      \"learn_baseline_ms\": {:.2},\n",
                "      \"learn_speedup\": {:.2}\n",
                "    }}{}\n"
            ),
            p.components,
            p.sites,
            p.apis,
            p.plans,
            p.front_size,
            p.recommend_ms,
            p.unique_evaluations,
            p.cache_hits,
            p.cache_hit_rate,
            p.evals_per_sec,
            p.kernel_compile_ms,
            p.score_ms,
            p.delta_scored,
            p.lane_scored,
            u8::from(p.uniform_crossover),
            p.rl_train_ms,
            p.crossover_ms,
            p.scalar_evals_per_sec,
            p.batch_evals_per_sec,
            p.delta_probe_evals_per_sec,
            p.search_evals_per_sec,
            p.volume_scale,
            p.raw_traces,
            p.representative_traces,
            p.distinct_trace_ratio,
            p.ingest_traces_per_sec,
            p.learn_ms,
            p.learn_baseline_ms,
            p.learn_speedup,
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Write `BENCH_scale.json` at the workspace root; returns the JSON either
/// way so callers can print it.
pub fn write_scale_json(points: &[ScalePoint]) -> String {
    let json = scale_json(points);
    // CARGO_MANIFEST_DIR is crates/bench; the report lands at the workspace
    // root next to BENCH_recommender.json where CI picks it up.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote BENCH_scale.json"),
        Err(e) => println!("could not write {path}: {e}"),
    }
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_point_runs_end_to_end_at_the_smallest_size() {
        let point = run_scale_point(25);
        assert_eq!(point.components, 25);
        assert_eq!(point.sites, 2);
        assert_eq!(point.volume_scale, 1.0);
        assert!(point.plans > 0, "the recommender must produce plans");
        assert!(point.unique_evaluations > 0);
        assert!(point.recommend_ms > 0.0);
        assert!(point.evals_per_sec > 0.0);
        assert!(point.kernel_compile_ms > 0.0);
        assert!(point.score_ms > 0.0);
        assert!(point.delta_scored + point.lane_scored <= point.unique_evaluations);
        assert!(
            point.lane_scored >= 16,
            "the initial population is lane-scored"
        );
        assert!(!point.uniform_crossover);
        assert!(point.scalar_evals_per_sec > 0.0);
        assert!(point.batch_evals_per_sec > 0.0);
        assert!(point.delta_probe_evals_per_sec > 0.0);
        assert!(point.search_evals_per_sec > 0.0);
        assert_eq!(point.front_size, point.plans);
        // Learn metrics: the kernel compiles representatives, never more
        // traces than the raw corpus holds.
        assert!(point.raw_traces > 0);
        assert!(point.representative_traces > 0);
        assert!(point.representative_traces <= point.raw_traces);
        assert!((0.0..=1.0).contains(&point.distinct_trace_ratio));
        assert!(point.ingest_traces_per_sec > 0.0);
        assert!(point.learn_ms > 0.0);
        assert!(point.learn_baseline_ms > 0.0);
        assert!(point.learn_speedup > 0.0);
    }

    #[test]
    fn volume_point_collapses_traffic_into_representatives() {
        let calm = run_scale_point_volume(25, 2, 1.0);
        let dense = run_scale_point_volume(25, 2, VOLUME_SCALE_FACTOR);
        assert_eq!(dense.volume_scale, VOLUME_SCALE_FACTOR);
        // 10× the traffic is observed…
        assert!(
            dense.raw_traces as f64 > 5.0 * calm.raw_traces as f64,
            "volume must grow the corpus: {} vs {}",
            dense.raw_traces,
            calm.raw_traces
        );
        // …but the kernel still compiles a capped representative set.
        assert!(
            dense.representative_traces <= dense.apis * LEARN_TRACES_PER_API,
            "representatives stay bounded by the per-API cap: {}",
            dense.representative_traces
        );
        assert!(dense.distinct_trace_ratio < calm.distinct_trace_ratio * 0.5);
    }

    #[test]
    fn multi_site_scale_point_runs_end_to_end() {
        let point = run_scale_point_sites(25, MULTI_SITE_COUNT);
        assert_eq!(point.components, 25);
        assert_eq!(point.sites, MULTI_SITE_COUNT);
        assert!(point.plans > 0, "the multi-site recommender produces plans");
        assert!(point.unique_evaluations > 0);
        assert!(point.evals_per_sec > 0.0);
    }

    #[test]
    fn json_lists_every_point() {
        let p = ScalePoint {
            components: 25,
            sites: 2,
            apis: 3,
            plans: 4,
            front_size: 4,
            recommend_ms: 12.5,
            unique_evaluations: 200,
            cache_hits: 40,
            cache_hit_rate: 0.1667,
            evals_per_sec: 1_000.0,
            kernel_compile_ms: 3.25,
            score_ms: 200.0,
            delta_scored: 120,
            lane_scored: 64,
            uniform_crossover: false,
            rl_train_ms: 14.5,
            crossover_ms: 0.75,
            scalar_evals_per_sec: 30_000.0,
            batch_evals_per_sec: 90_000.0,
            delta_probe_evals_per_sec: 150_000.0,
            search_evals_per_sec: 200_000.0,
            volume_scale: 1.0,
            raw_traces: 1_200,
            representative_traces: 60,
            distinct_trace_ratio: 0.05,
            ingest_traces_per_sec: 250_000.0,
            learn_ms: 4.5,
            learn_baseline_ms: 45.0,
            learn_speedup: 10.0,
        };
        let mut q = p.clone();
        q.components = 50;
        q.sites = 4;
        q.uniform_crossover = true;
        let json = scale_json(&[p, q]);
        assert!(json.contains("\"components\": 25"));
        assert!(json.contains("\"components\": 50"));
        assert!(json.contains("\"sites\": 2"));
        assert!(json.contains("\"sites\": 4"));
        assert!(json.contains("\"bench\": \"scale\""));
        assert!(json.contains("\"kernel_compile_ms\": 3.25"));
        assert!(json.contains("\"score_ms\": 200.00"));
        assert!(json.contains("\"delta_scored\": 120"));
        assert!(json.contains("\"lane_scored\": 64"));
        assert!(json.contains("\"uniform_crossover\": 0"));
        assert!(json.contains("\"uniform_crossover\": 1"));
        assert!(json.contains("\"rl_train_ms\": 14.50"));
        assert!(json.contains("\"crossover_ms\": 0.75"));
        assert!(json.contains("\"scalar_evals_per_sec\": 30000.0"));
        assert!(json.contains("\"batch_evals_per_sec\": 90000.0"));
        assert!(json.contains("\"delta_probe_evals_per_sec\": 150000.0"));
        assert!(json.contains("\"front_size\": 4"));
        assert!(json.contains("\"search_evals_per_sec\": 200000.0"));
        assert!(json.contains("\"volume_scale\": 1.0"));
        assert!(json.contains("\"raw_traces\": 1200"));
        assert!(json.contains("\"representative_traces\": 60"));
        assert!(json.contains("\"distinct_trace_ratio\": 0.0500"));
        assert!(json.contains("\"ingest_traces_per_sec\": 250000.0"));
        assert!(json.contains("\"learn_ms\": 4.50"));
        assert!(json.contains("\"learn_baseline_ms\": 45.00"));
        assert!(json.contains("\"learn_speedup\": 10.00"));
        // No trailing comma after the last point.
        assert!(!json.contains("},\n  ]"));
    }

    #[test]
    fn size_overrides_filter_and_never_widen() {
        assert_eq!(parse_sizes("25, 90, bogus, 9999"), vec![25, 90]);
        // An unusable override narrows to the smallest default — it must
        // never silently fall back to the full sweep.
        assert_eq!(parse_sizes("bogus"), vec![25]);
        assert_eq!(parse_sizes(""), vec![25]);
    }

    #[test]
    fn sweeps_always_carry_a_multi_site_companion() {
        // Full default sweep: the companion runs at 100 components.
        let full = sweep_points(&DEFAULT_SIZES);
        assert_eq!(full.len(), DEFAULT_SIZES.len() + 1);
        assert!(full.contains(&(MULTI_SITE_COMPONENTS, MULTI_SITE_COUNT)));
        // 2-site points come first so component-keyed lookups keep finding
        // the historical entries.
        assert!(full[..DEFAULT_SIZES.len()].iter().all(|&(_, s)| s == 2));
        // Narrow CI override: the companion follows the smallest size.
        let narrow = sweep_points(&[25]);
        assert_eq!(narrow, vec![(25, 2), (25, MULTI_SITE_COUNT)]);
    }

    #[test]
    fn only_the_full_sweep_carries_the_wide_companion() {
        assert_eq!(
            wide_point(&DEFAULT_SIZES),
            Some((WIDE_COMPONENTS, MULTI_SITE_COUNT))
        );
        assert_eq!(wide_point(&[25]), None);
        assert_eq!(wide_point(&[25, 250]), None);
    }

    #[test]
    fn sweeps_always_carry_a_volume_companion() {
        // Full default sweep: the companion runs at 100 components.
        assert_eq!(
            volume_point(&DEFAULT_SIZES),
            Some((VOLUME_COMPONENTS, VOLUME_SCALE_FACTOR))
        );
        // Narrow CI override: it follows the smallest size.
        assert_eq!(volume_point(&[25]), Some((25, VOLUME_SCALE_FACTOR)));
        assert_eq!(volume_point(&[]), None);
    }
}
