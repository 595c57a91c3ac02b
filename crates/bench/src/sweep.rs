//! The 25–500-component sweep, as a front-end of the end-to-end benchmark's
//! library: a point is one traced run of one of `atlas_benchmark`'s op loops,
//! recorded as one [`Json`] object — what the point is, how many ops it
//! attempted and failed, and every metric of the benchmark's spec under its
//! benchmark name. The `sweep` binary writes the document to
//! `BENCH_sweep.json` and holds it against the committed one with
//! [`crate::gate`]. Points, seed and seconds are constants, so any two
//! `BENCH_sweep.json` files compare.

use std::hint::black_box;
use std::time::Instant;

use atlas_benchmark::json::Json;
use atlas_benchmark::run::{self, Metrics, RunArgs};
use atlas_benchmark::scenario::{self, Shape};
use atlas_benchmark::{cold, front, hub, resident, spec};
use atlas_core::{Atlas, PlanEvaluator};

/// Seconds every point's op loop measures for.
const SECONDS_PER_POINT: f64 = 2.0;

/// Seed of every point's run.
const SEED: u64 = 11;

/// The one metric the benchmark's spec does not have: evaluations per second
/// of a fresh [`PlanEvaluator`] on every core over the same on one thread.
pub(crate) const PARALLEL_SPEEDUP: &str = "eval.parallel_speedup";

/// The point [`PARALLEL_SPEEDUP`] is measured and recorded at: big enough
/// that one pass over the probe's 4,096 plans takes tenths of a second.
pub(crate) const PARALLEL_PROBE_POINT: &str = "250x2";

/// One point: its name in `BENCH_sweep.json` and the generated application.
/// `resident-drift` and `hub-open` run the benchmark's op loops of those
/// names (on their own [`resident::SHAPE`]); every other point is cold.
pub(crate) type Point = (&'static str, Shape);

/// A point of the component-count ladder: the benchmark's volume, and the
/// crossover `RecommenderConfig::fast()` selects (uniform).
const fn ladder(components: usize, sites: usize) -> Shape {
    Shape {
        components,
        sites,
        volume_scale: 1.0,
        uniform_crossover: false,
    }
}

/// The sweep: the component-count ladder on 2 sites, its 4-site companion,
/// then the benchmark's own four workloads under their benchmark names
/// (`cold-firehose` is the high-volume point, `cold-wide` the 500-component,
/// 4-site one).
pub(crate) const POINTS: [Point; 10] = [
    ("25x2", ladder(25, 2)),
    ("50x2", ladder(50, 2)),
    ("100x2", ladder(100, 2)),
    ("250x2", ladder(250, 2)),
    ("500x2", ladder(500, 2)),
    ("100x4", ladder(100, 4)),
    (spec::COLD_FIREHOSE, cold::FIREHOSE),
    (spec::COLD_WIDE, cold::WIDE),
    (spec::RESIDENT_DRIFT, resident::SHAPE),
    (spec::HUB_OPEN, resident::SHAPE),
];

/// The fields that say what a point is; the gate selects points by these,
/// never by position.
pub(crate) fn identity(&(name, shape): &Point) -> Vec<(&'static str, Json)> {
    vec![
        ("name", Json::Str(name.into())),
        ("components", Json::Num(shape.components as f64)),
        ("sites", Json::Num(shape.sites as f64)),
        ("volume_scale", Json::Num(shape.volume_scale)),
        ("uniform_crossover", Json::Bool(shape.uniform_crossover)),
    ]
}

/// Every metric of the benchmark's spec: `(name, unit, better)`.
pub(crate) fn spec_metrics() -> impl Iterator<Item = (&'static str, &'static str, &'static str)> {
    let end_to_end = spec::END_TO_END.iter().map(|e| (e.name, e.unit, e.better));
    end_to_end.chain(spec::PER_LAYER.iter().map(|p| (p.name, p.unit, p.better)))
}

fn four_digits(value: f64) -> f64 {
    let text = format!("{value:.3e}");
    text.parse().expect("a formatted float parses")
}

/// A metric as it is written. Counts, `front_hypervolume` and `ok_ratio` are
/// deterministic (or must not round up to a pass) and keep every digit; a
/// timing keeps four significant digits, so a re-recorded file differs in
/// the digits that mean something. A layer the workload does not exercise
/// reads 0, as in the benchmark's own output.
fn recorded(name: &str, unit: &str, value: Option<f64>) -> Json {
    let value = value.filter(|v| v.is_finite()).unwrap_or(0.0);
    let exact = unit == "count" || matches!(name, "front_hypervolume" | "ok_ratio");
    Json::Num(if exact { value } else { four_digits(value) })
}

/// Run one point (`smoke`: the benchmark's 1/50-size run); its object of
/// `BENCH_sweep.json`.
pub(crate) fn run_point(point: &Point, smoke: bool) -> Json {
    let &(name, shape) = point;
    // Trace files go beside the running executable: under the target
    // directory, never in the repository.
    let exe = std::env::current_exe().expect("the running executable has a path");
    let args = RunArgs {
        workload: name.to_string(),
        seed: SEED,
        seconds: SECONDS_PER_POINT / if smoke { 50.0 } else { 1.0 },
        trace: true,
        smoke,
        out: exe.with_file_name("sweep-traces"),
    };
    let mut m = Metrics::default();
    let tally = match name {
        spec::RESIDENT_DRIFT => resident::run(&args, &mut m),
        spec::HUB_OPEN => hub::run(&args, &mut m),
        _ => cold::run(&shape, &args, &mut m),
    };
    for reason in &tally.invalid {
        eprintln!("{name}: INVALID: {reason}");
    }
    // What the benchmark's command line adds to a run before it prints it.
    // The RSS figures are the whole sweep's so far, not the point's, and
    // `search.other_ms`, which only that command line derives, reads 0.
    let passed = (tally.attempted - tally.failed) as f64;
    m.set("ok_ratio", passed / tally.attempted.max(1) as f64);
    m.set("peak_rss_mb", run::proc_status_mb("VmHWM"));
    m.set("proc.rss_end_mb", run::proc_status_mb("VmRSS"));
    m.set("env.cores", run::cores() as f64);

    let mut metrics: Vec<(&str, Json)> = spec_metrics()
        .map(|(metric, unit, _)| (metric, recorded(metric, unit, m.get(metric))))
        .collect();
    if name == PARALLEL_PROBE_POINT {
        let speedup = recorded(PARALLEL_SPEEDUP, "ratio", Some(parallel_speedup(&shape)));
        metrics.push((PARALLEL_SPEEDUP, speedup));
    }
    let invalid = tally.invalid.into_iter().map(Json::Str).collect();
    let mut fields = identity(point);
    fields.extend([
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("invalid", Json::Arr(invalid)),
        ("metrics", Json::obj(metrics)),
    ]);
    Json::obj(fields)
}

/// [`PARALLEL_SPEEDUP`] on a model of `shape` built the benchmark's way:
/// the best of three alternated passes on each side, because a neighbour on
/// a shared machine can only ever slow a pass down.
fn parallel_speedup(shape: &Shape) -> f64 {
    let sc = scenario::build(shape, SEED);
    let recommender = scenario::recommender_config(shape, SEED);
    let mut atlas = Atlas::new(scenario::atlas_config(&sc.scenario, recommender));
    atlas.learn(&sc.day1.source);
    let current = scenario::current_placement(&sc.scenario);
    let model = atlas.quality_model(current, scenario::preferences(&sc.scenario));
    let plans = front::random_plans(&model, 4_096, SEED);
    let evals_per_s = |threads: usize| {
        let evaluator = PlanEvaluator::new(&model).with_threads(threads);
        let start = Instant::now();
        black_box(evaluator.evaluate_batch(&plans));
        plans.len() as f64 / start.elapsed().as_secs_f64().max(1e-9)
    };
    let (mut one_thread, mut every_core) = (0.0f64, 0.0f64);
    for _ in 0..3 {
        one_thread = one_thread.max(evals_per_s(1));
        every_core = every_core.max(evals_per_s(0));
    }
    every_core / one_thread
}

/// Run every point; the `BENCH_sweep.json` document.
pub fn run() -> Json {
    let points = POINTS.iter().map(|point| run_point(point, false));
    Json::obj([
        ("bench", Json::Str("sweep".into())),
        ("seed", Json::Num(SEED as f64)),
        ("seconds_per_point", Json::Num(SECONDS_PER_POINT)),
        ("points", Json::Arr(points.collect())),
    ])
}

/// The points of a sweep document.
pub(crate) fn points(document: &Json) -> &[Json] {
    document.get("points").map_or(&[], Json::as_array)
}

/// A point's name.
pub(crate) fn name(point: &Json) -> &str {
    point.get("name").and_then(Json::as_str).unwrap_or("?")
}

/// A metric of a point, if the point *measured* it: a layer the workload
/// does not exercise reads 0, and no metric the gate reads can be 0.
pub(crate) fn metric(point: &Json, name: &str) -> Option<f64> {
    let value = point.get("metrics")?.get(name)?.as_f64()?;
    (value > 0.0).then_some(value)
}

/// A sweep document as README's "Current numbers" table: a row per point.
pub fn table(document: &Json) -> String {
    const COLUMNS: [&str; 9] = [
        "latency_p50_ms",
        "telemetry.ingest_traces_per_s",
        "learn.atlas_learn_ms",
        "kernel.compile_ms",
        "kernel.scalar_evals_per_s",
        "kernel.lanes_evals_per_s",
        "eval.score_ms",
        "rl.train_ms",
        "front_hypervolume",
    ];
    let mut out = format!("| point | `{}` |\n|---|", COLUMNS.join("` | `"));
    out += &"---:|".repeat(COLUMNS.len());
    for point in points(document) {
        out += &format!("\n| `{}` |", name(point));
        for column in COLUMNS {
            let cell = metric(point, column).map(|v| four_digits(v).to_string());
            out += &format!(" {} |", cell.unwrap_or("–".into()));
        }
    }
    out + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 25 × 2, 100 × 4 and firehose shapes at 1/50 size: no op fails an
    /// output check, every spec metric is there, finite and written as
    /// [`recorded`] says, and the codec round-trips.
    #[test]
    fn smoke_points_record_every_spec_metric_and_round_trip() {
        let smoke = ["25x2", "100x4", spec::COLD_FIREHOSE];
        for point in POINTS.iter().filter(|(name, _)| smoke.contains(name)) {
            let written = run_point(point, true);
            assert_eq!(written.get("failed"), Some(&Json::Num(0.0)), "{written}");
            assert_eq!(metric(&written, "ok_ratio"), Some(1.0));
            for (name, unit, _) in spec_metrics() {
                let value = written.get("metrics").and_then(|m| m.get(name));
                let value = value.and_then(Json::as_f64).expect(name);
                assert!(value.is_finite(), "{} {name}", point.0);
                assert_eq!(Json::Num(value), recorded(name, unit, Some(value)));
            }
            assert!(metric(&written, "kernel.scalar_evals_per_s").is_some());
            assert_eq!(Json::parse(&written.to_string()).as_ref(), Ok(&written));
            let document = Json::obj([("points", Json::Arr(vec![written]))]);
            assert!(table(&document).contains(&format!("\n| `{}` | ", point.0)));
        }
    }

    #[test]
    fn timings_keep_four_digits_and_deterministic_values_every_digit() {
        let written = |name, unit, value| recorded(name, unit, Some(value)).as_f64();
        assert_eq!(written("latency_p50_ms", "ms", 62.3456789), Some(62.35));
        assert_eq!(written("ops_per_s", "1/s", 1_234_567.0), Some(1_235_000.0));
        assert_eq!(written("ok_ratio", "ratio", 0.99996), Some(0.99996));
        assert_eq!(written("input.spans", "count", 228_832.1), Some(228_832.1));
        assert_eq!(written("nn.update_us", "us", f64::NAN), Some(0.0));
    }
}
