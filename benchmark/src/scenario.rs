//! Set-up shared by the workloads: generate an application from the seed,
//! simulate its traffic, build the trace corpus, and configure the advisor.
//! Everything here is what `setup_s` times; none of it runs inside an op.
//!
//! The corpus, day-shift and context-replay helpers do what
//! `atlas-bench::service` does for `BENCH_service.json`. They are written out
//! here because this package depends on the library crates only: `atlas-bench`
//! is what ROADMAP item 4 folds into this benchmark.

use atlas_apps::{
    synthesize, synthesize_drift_phase, CallGraphShape, SynthOptions, SynthScenario,
    WorkloadGenerator, WorkloadShape,
};
use atlas_core::{AtlasConfig, MigrationPreferences, RecommenderConfig};
use atlas_sim::{ClusterSpec, OverloadModel, Placement, SimConfig, Simulator};
use atlas_telemetry::{Direction, MetricKind, TelemetryStore, Trace, TraceId};

/// Compressed day length of every simulated day, in seconds.
pub const DAY_SECONDS: u64 = 60;

/// Retention window of the resident services: 1.5 compressed days, so the
/// second day progressively evicts the first.
pub const RETENTION_WINDOW_S: u64 = 90;

/// Representative traces kept per API (the repo's bench convention).
pub const TRACES_PER_API: usize = 40;

/// The fixed shape of one workload's application; the seed fills in the
/// rest (topology, traffic, search).
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub components: usize,
    pub sites: usize,
    pub volume_scale: f64,
    /// Uniform crossover (the NSGA-II configuration of paper Fig. 21a)
    /// instead of the RL agent.
    pub uniform_crossover: bool,
}

/// A stream of independent sub-seeds of the run seed (SplitMix64 finaliser
/// over `seed` and a stream number), so that scenario, traffic, search,
/// probe and arrival generators never share a random stream.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn synth_options(shape: &Shape, seed: u64) -> SynthOptions {
    SynthOptions {
        components: shape.components,
        shape: CallGraphShape::Layered,
        stateful_fraction: 0.2,
        apis: (shape.components / 8).clamp(3, 12),
        call_depth: 4,
        data_scale: 1.0,
        workload: WorkloadShape::Diurnal,
        volume_scale: shape.volume_scale,
        site_count: shape.sites,
        seed,
    }
}

/// The search settings of every workload: population 16, 250 visited
/// plans, one evaluator thread.
pub fn recommender_config(shape: &Shape, seed: u64) -> RecommenderConfig {
    let config = RecommenderConfig {
        population: 16,
        max_visited: 250,
        threads: 1,
        ..RecommenderConfig::fast()
    }
    .with_seed(seed);
    if shape.uniform_crossover {
        config.with_uniform_crossover()
    } else {
        config
    }
}

pub fn atlas_config(scenario: &SynthScenario, recommender: RecommenderConfig) -> AtlasConfig {
    let mut config = AtlasConfig::new(scenario.component_index(), scenario.stateful_names());
    config.sites = Some(scenario.catalog.clone());
    config.traces_per_api = TRACES_PER_API;
    config.horizon_steps = 8;
    config.recommender = recommender;
    config
}

/// An on-prem CPU limit that forces offloading under the paper's 5× burst.
pub fn preferences(scenario: &SynthScenario) -> MigrationPreferences {
    MigrationPreferences::with_cpu_limit(scenario.burst_cpu_limit(5.0, 0.6))
}

pub fn current_placement(scenario: &SynthScenario) -> Placement {
    Placement::all_onprem(scenario.topology.component_count())
}

/// One simulated day: the store the simulator wrote (the source of the
/// metric/traffic context) and its traces in root-start order.
pub struct Day {
    pub source: TelemetryStore,
    pub corpus: Vec<Trace>,
}

impl Day {
    pub fn span_count(&self) -> usize {
        self.corpus.iter().map(|t| t.nodes.len()).sum()
    }
}

/// Simulate one compressed day of the scenario's workload on an all-on-prem
/// placement. Day-to-day rate jitter is off so that every seed offers the
/// same volume and op latencies compare across seeds.
pub fn simulate_day(scenario: &SynthScenario, seed: u64) -> Day {
    let mut workload = scenario.workload.clone().with_seed(seed);
    workload.profile.day_seconds = DAY_SECONDS;
    workload.day_jitter = 0.0;
    let source = TelemetryStore::new();
    let sim = Simulator::new(
        scenario.topology.clone(),
        current_placement(scenario),
        SimConfig {
            cluster: ClusterSpec::default(),
            overload: OverloadModel::disabled(),
            metric_window_s: 5,
            seed,
        },
    );
    let schedule = WorkloadGenerator::new(workload)
        .generate(&scenario.topology)
        .expect("the generated workload matches its topology");
    sim.run(&schedule, &source);
    let mut corpus: Vec<Trace> = source
        .apis()
        .into_iter()
        .flat_map(|api| source.traces_for_api(&api))
        .collect();
    corpus.sort_by_key(|t| (t.root().start_us, t.trace_id));
    Day { source, corpus }
}

/// A base scenario and its first day.
pub struct Scenario {
    pub scenario: SynthScenario,
    pub day1: Day,
}

pub fn build(shape: &Shape, seed: u64) -> Scenario {
    let scenario =
        synthesize(synth_options(shape, derive(seed, 0))).expect("workload shapes are valid");
    let day1 = simulate_day(&scenario, derive(seed, 1));
    Scenario { scenario, day1 }
}

/// The drifting second day of a scenario (2× data, 1.5× volume, rotated
/// mix), shifted to follow day 1 on the same clock with re-tagged ids.
pub fn drift_day(shape: &Shape, seed: u64) -> Day {
    let drift = synthesize_drift_phase(&synth_options(shape, derive(seed, 0)))
        .expect("workload shapes are valid");
    let mut day2 = simulate_day(&drift, derive(seed, 2));
    for trace in &mut day2.corpus {
        trace.trace_id = TraceId(trace.trace_id.0 ^ (1 << 60));
        for node in &mut trace.nodes {
            node.span.trace_id = trace.trace_id;
            node.span.start_us += (DAY_SECONDS + 1) * 1_000_000;
        }
    }
    day2
}

/// Replay the non-trace telemetry (component metrics and pairwise traffic)
/// of one store into another, shifted by `offset_s`, the way a scrape
/// pipeline delivers it beside the trace stream.
pub fn copy_context(from: &TelemetryStore, to: &TelemetryStore, offset_s: u64) {
    for component in from.components() {
        if let Some(metrics) = from.component_metrics(&component) {
            for kind in MetricKind::ALL {
                if let Some(series) = metrics.series(kind) {
                    for p in series.points() {
                        to.record_metric(&component, kind, p.timestamp_s + offset_s, p.value);
                    }
                }
            }
        }
    }
    let traffic = from.traffic();
    for edge in traffic.edges() {
        for direction in [Direction::Request, Direction::Response] {
            if let Some(samples) = traffic.samples(&edge, direction) {
                for s in samples {
                    to.record_traffic(
                        &edge.from,
                        &edge.to,
                        direction,
                        s.timestamp_s + offset_s,
                        s.bytes,
                    );
                }
            }
        }
    }
}

/// Split a corpus into `chunks` contiguous batches.
pub fn batches(corpus: &[Trace], chunks: usize) -> Vec<Vec<Trace>> {
    let size = corpus.len().div_ceil(chunks.max(1)).max(1);
    corpus.chunks(size).map(<[Trace]>::to_vec).collect()
}

/// FNV-1a digest of a corpus (ids, timestamps, durations, names), folded to
/// 32 bits so it survives a trip through an `f64`.
pub fn digest32(corpus: &[Trace]) -> u32 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for trace in corpus {
        eat(&trace.trace_id.0.to_le_bytes());
        for node in &trace.nodes {
            eat(&node.span.start_us.to_le_bytes());
            eat(&node.span.duration_us.to_le_bytes());
            eat(node.span.component.as_bytes());
            eat(node.span.operation.as_bytes());
        }
    }
    (hash ^ (hash >> 32)) as u32
}
