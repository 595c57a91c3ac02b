//! The cold workloads: *traces in → recommendation out*.
//!
//! One op is a fresh `TelemetryStore`, then `ingest_batch(corpus)` →
//! `Atlas::learn` → `Atlas::quality_model` → `Recommender::recommend`; its
//! latency is those four calls. Closed loop, one client. Cloning the corpus,
//! replaying the metric/traffic context into the fresh store, the output
//! checks and dropping the op's state all happen outside the timed region.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use atlas_core::recommender::RecommendationReport;
use atlas_core::{Atlas, QualityModel, RecommendedPlan, Recommender};
use atlas_telemetry::TelemetryStore;

use crate::front::{
    front_hypervolume, oracle_agrees, same_front, SearchStats, ORACLE_SAMPLE, RELEARN_TOLERANCE,
};
use crate::probes::{self, ProbeInput};
use crate::run::{ms, panic_message, Metrics, RunArgs, Tally};
use crate::scenario::{self, derive, Scenario, Shape};
use crate::stats;
use crate::trace::Tracer;

/// 100 components, 2 sites, 20× traffic: ~20 k traces and ~190 k spans a
/// day, so ingest and learn do most of an op's work.
pub const FIREHOSE: Shape = Shape {
    components: 100,
    sites: 2,
    volume_scale: 20.0,
    uniform_crossover: false,
};

/// 500 components over 4 sites at normal traffic, searched with uniform
/// crossover: kernel compile and scoring do most of the work, the N×N-site
/// tables are exercised, and the neural net is never called.
pub const WIDE: Shape = Shape {
    components: 500,
    sites: 4,
    volume_scale: 1.0,
    uniform_crossover: true,
};

/// Untimed ops at the start of every scenario (allocator and caches warm).
const WARM_UP_OPS: usize = 3;

/// Measured ops a scenario runs at least, whatever its share of the time
/// (two, so that a smoke run still compares one front with another).
const MIN_OPS: usize = 2;

/// The timestamps around the four calls of one op, and what it returned.
struct Op {
    at: [Instant; 5],
    store: TelemetryStore,
    model: QualityModel,
    report: RecommendationReport,
}

fn one_op(sc: &Scenario, atlas_config: &atlas_core::AtlasConfig) -> Result<Op, String> {
    let batch = sc.day1.corpus.clone();
    let store = TelemetryStore::new();
    scenario::copy_context(&sc.day1.source, &store, 0);
    let preferences = scenario::preferences(&sc.scenario);
    let current = scenario::current_placement(&sc.scenario);
    catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        store.ingest_batch(batch);
        let t1 = Instant::now();
        let mut atlas = Atlas::new(atlas_config.clone());
        atlas.learn(&store);
        let t2 = Instant::now();
        let model = atlas.quality_model(current, preferences);
        let t3 = Instant::now();
        let report = Recommender::new(&model, atlas_config.recommender.clone()).recommend();
        let t4 = Instant::now();
        (model, report, [t0, t1, t2, t3, t4])
    }))
    .map(|(model, report, at)| Op {
        at,
        store,
        model,
        report,
    })
    .map_err(|payload| format!("op panicked: {}", panic_message(payload.as_ref())))
}

pub fn run(shape: &Shape, args: &RunArgs, m: &mut Metrics) -> Tally {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let mut tally = Tally::default();
    let scenarios = args.scenarios();
    let share = Duration::from_secs_f64(args.seconds / scenarios as f64);

    let mut setup_s = Vec::new();
    // Latencies of ops that recorded spans and of ops that did not; a traced
    // run alternates so the two medians compare like with like.
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut hypervolumes = Vec::new();
    let mut search = SearchStats::default();
    let mut op_id = 0u32;

    for k in 0..scenarios {
        let (seed, reference) = args.scenario_seed(k);
        let start = Instant::now();
        let sc = scenario::build(shape, seed);
        setup_s.push(start.elapsed().as_secs_f64());
        let atlas_config = scenario::atlas_config(
            &sc.scenario,
            scenario::recommender_config(shape, derive(seed, 3)),
        );
        if k == 0 {
            m.set("input.traces", sc.day1.corpus.len() as f64);
            m.set("input.spans", sc.day1.span_count() as f64);
            m.set(
                "input.digest32",
                f64::from(scenario::digest32(&sc.day1.corpus)),
            );
        }

        for _ in 0..args.repeats(WARM_UP_OPS) {
            drop(one_op(&sc, &atlas_config));
        }

        // The front every later op of this scenario must reproduce.
        let mut first_front: Option<Vec<RecommendedPlan>> = None;
        // Scenario 0's first op, kept for the probes to run on once the
        // scenario's timed share is over.
        let mut probe_op: Option<Op> = None;
        let started = Instant::now();
        let mut measured = 0usize;
        while measured < MIN_OPS || started.elapsed() < share {
            let traced = args.trace && measured % 2 == 0;
            let op = match one_op(&sc, &atlas_config) {
                Ok(op) => op,
                Err(reason) => {
                    tally.op(Some(reason));
                    measured += 1;
                    continue;
                }
            };
            let latency_ms = ms(op.at[4] - op.at[0]);
            if traced {
                traced_ms.push(latency_ms);
                let root = tracer.span("op", None, op_id, op.at[0], op.at[4]);
                let names = [
                    "telemetry.ingest",
                    "learn.atlas_learn",
                    "kernel.compile",
                    "search.recommend",
                ];
                let mut last = root;
                for (i, name) in names.into_iter().enumerate() {
                    last = tracer.span(name, Some(root), op_id, op.at[i], op.at[i + 1]);
                }
                tracer.derived("eval.score", last, op.report.eval.wall_time_ms, 0.0);
                search.add(&op.report);
            } else {
                plain_ms.push(latency_ms);
            }
            op_id += 1;

            let failure = if op.report.plans.is_empty() {
                Some("no plan returned".to_string())
            } else if first_front
                .as_ref()
                .is_some_and(|first| !same_front(first, &op.report.plans, RELEARN_TOLERANCE))
            {
                Some(format!(
                    "scenario {k}: front differs from the scenario's first op"
                ))
            } else if measured % ORACLE_SAMPLE == 0 && !oracle_agrees(&op.model, &op.report.plans) {
                Some(format!(
                    "scenario {k}: a reported quality differs from the interpretive oracle"
                ))
            } else {
                None
            };
            tally.op(failure);

            if first_front.is_none() {
                if reference {
                    hypervolumes.push(front_hypervolume(
                        &op.model,
                        &op.report.plans,
                        derive(seed, 4),
                    ));
                }
                if k == 0 {
                    let kernel_traces = op.model.kernel().trace_count() as f64;
                    m.set("kernel.trace_count", kernel_traces);
                    m.set("learn.representative_traces", kernel_traces);
                    m.set(
                        "learn.distinct_trace_ratio",
                        kernel_traces / (sc.day1.corpus.len() as f64).max(1.0),
                    );
                }
                first_front = Some(op.report.plans.clone());
                if k == 0 && args.trace {
                    probe_op = Some(op);
                }
            }
            measured += 1;
        }
        if let Some(op) = probe_op {
            probes::run(
                &ProbeInput {
                    model: &op.model,
                    store: &op.store,
                    context: &sc.day1.source,
                    atlas: &atlas_config,
                    report: &op.report,
                    seed,
                    budget: args.probe_time(),
                    reps: args.repeats(3),
                },
                m,
            );
        }
    }

    let all_ms: Vec<f64> = plain_ms.iter().chain(&traced_ms).copied().collect();
    tally.samples = m.set_latency(&all_ms);
    m.set("setup_s", stats::median(&setup_s));
    m.set(
        "ops_per_s",
        all_ms.len() as f64 / (all_ms.iter().sum::<f64>() / 1e3).max(1e-9),
    );
    m.set("front_hypervolume", stats::geometric_mean(&hypervolumes));
    m.set("input.scenarios", scenarios as f64);
    m.set("env.workers", 1.0);

    if args.trace {
        let ingest_ms = stats::median(&tracer.durations_ms("telemetry.ingest"));
        m.set("telemetry.ingest_ms", ingest_ms);
        m.set(
            "telemetry.ingest_traces_per_s",
            m.get("input.traces").unwrap_or(0.0) / (ingest_ms / 1e3).max(1e-9),
        );
        for (metric, span) in [
            ("learn.atlas_learn_ms", "learn.atlas_learn"),
            ("kernel.compile_ms", "kernel.compile"),
            ("search.recommend_ms", "search.recommend"),
        ] {
            m.set(metric, stats::median(&tracer.durations_ms(span)));
        }
        m.set_all(search.metrics());
        m.set(
            "trace.overhead_ratio",
            stats::median(&traced_ms) / stats::median(&plain_ms).max(1e-9),
        );
        m.set("trace.accounted_ratio", tracer.accounted_ratio());
        crate::write_trace(args, &tracer);
    }
    tally
}
