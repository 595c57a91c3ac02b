//! The benchmark's contract: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end metric each
//! is expected to move. `BENCHMARK.json` at the repository root is printed
//! from these tables (`--print-spec`) and the package's smoke test holds the
//! two equal.

/// Seconds one run measures for (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 25;

/// The command of `BENCHMARK.json`; the driver appends
/// `--workload NAME --seed N --seconds S --trace 0|1`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const COLD_FIREHOSE: &str = "cold-firehose";
pub const COLD_WIDE: &str = "cold-wide";
pub const RESIDENT_DRIFT: &str = "resident-drift";
pub const HUB_OPEN: &str = "hub-open";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: COLD_FIREHOSE,
        why: "cold path on a day of heavy traffic (100 components, 24k traces): ingest and learn do most of the work, so arena, clustering and telemetry-validation costs show here",
    },
    Workload {
        name: COLD_WIDE,
        why: "cold path on a 500-component, 4-site application with uniform crossover: kernel compile and scoring do most of the work and the neural net does none",
    },
    Workload {
        name: RESIDENT_DRIFT,
        why: "warm path: a resident service ingests a drifting second day with eviction, relearns dirty APIs and re-recommends; work moved to publish time lands on this path",
    },
    Workload {
        name: HUB_OPEN,
        why: "4 tenants behind the hub under Poisson arrivals at 16 req/s with feeds beside reads: queueing, publish stalls, shared cache and snapshot growth on more than one worker",
    },
];

/// One end-to-end metric. `bound` is the share of the parent's median by
/// which the metric may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "median time to set one scenario up: synthesize, simulate, build the corpus and (resident, hub) the first bootstrap",
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "median op latency (hub-open: open-loop phase, from the due time)",
    },
    EndToEnd {
        name: "latency_p90_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "90th percentile of the same samples",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        what: "ops completed per second of timed wall time (resident-drift: drift responses per second of whole-replay feed time; hub-open: closed loop with W workers)",
    },
    EndToEnd {
        name: "front_hypervolume",
        unit: "ratio",
        better: "higher",
        bound: 0.001,
        what: "3-D hypervolume of the returned front in the unit cube under a reference point of 1.1 x the per-objective maximum over 256 seeded random plans, geometric mean over the run's reference scenarios",
    },
    EndToEnd {
        name: "ok_ratio",
        unit: "ratio",
        better: "higher",
        bound: 0.001,
        what: "ops that passed every output check / ops attempted (1 - failed ratio; the contract forbids a metric that reads 0)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
        what: "VmHWM of the workload's process at exit",
    },
];

/// One per-layer metric. `moves` names the end-to-end metric and workload
/// the metric is expected to move, written down before measuring. A `†` in
/// `what` marks a probe: one public function called in isolation with the
/// workload's shapes, not a span of the op loop.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub layer: &'static str,
    pub moves: &'static str,
    pub what: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
    what: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        moves,
        what,
    }
}

const COLD_INGEST: &str = "latency_p50_ms on cold-firehose (~2/3 of an op with learn), ~1/6 on cold-wide; none on hub-open requests";
const KERNEL: &str =
    "latency_p50_ms on cold-wide (~3/4 of an op with eval); <= 5 % on the 100-component workloads";
const RL: &str = "latency_p50_ms and ops_per_s on hub-open and resident-drift (~90 % of an op), ~1/3 of cold-firehose, none on cold-wide; on hub-open also latency_p90_ms through hub.queue_wait";
const CACHE: &str = "hub-open only, worth <= 2 ms of a request today: no end-to-end move predicted until the RL share falls";
const QUALITY: &str = "front_hypervolume on every workload";
const QUEUE: &str = "latency_p90_ms on hub-open (arrivals queue behind a busy worker; latency rises before ops_per_s stops rising)";
const DESCRIPTOR: &str = "none: describes the run";

pub const PER_LAYER: [PerLayer; 67] = [
    m("telemetry.ingest_ms", "ms", "lower", "telemetry", COLD_INGEST, "median ingest span (cold: ingest_batch of the corpus; resident-drift: the ingest + drift-check share of a feed)"),
    m("telemetry.ingest_traces_per_s", "1/s", "higher", "telemetry", COLD_INGEST, "traces ingested per second of ingest span"),
    m("telemetry.evicted_traces", "count", "lower", "telemetry", "peak_rss_mb on resident-drift (retention keeps the arena bounded)", "traces evicted by the retention window over one replay"),
    m("telemetry.context_ms", "ms", "lower", "telemetry", "setup only: the metric/traffic replay is outside every op", "† record_metric/record_traffic replay of one day into a fresh store"),
    m("learn.atlas_learn_ms", "ms", "lower", "learn", COLD_INGEST, "median Atlas::learn span (resident-drift, hub-open: the cold bootstrap relearn)"),
    m("learn.profile_ms", "ms", "lower", "learn", COLD_INGEST, "† ApplicationProfile::learn"),
    m("learn.footprint_ms", "ms", "lower", "learn", COLD_INGEST, "† FootprintLearner::learn"),
    m("learn.demand_ms", "ms", "lower", "learn", COLD_INGEST, "† ScalingEstimator::estimate"),
    m("learn.relearn_dirty_ms", "ms", "lower", "learn", "latency_p50_ms on resident-drift (< 5 % of a drift response)", "median ServiceEvent::Relearned{cold:false}.elapsed_ms"),
    m("learn.representative_traces", "count", "lower", "learn", KERNEL, "weighted representatives the kernel compiles"),
    m("learn.distinct_trace_ratio", "ratio", "lower", "learn", KERNEL, "representatives / raw traces"),
    m("kernel.compile_ms", "ms", "lower", "kernel", KERNEL, "median Atlas::quality_model span (resident-drift, hub-open: the model's own compile time)"),
    m("kernel.trace_count", "count", "lower", "kernel", KERNEL, "traces in the compiled kernel"),
    m("kernel.scalar_evals_per_s", "1/s", "higher", "kernel", KERNEL, "† QualityModel::evaluate over 256 seeded plans"),
    m("kernel.lanes_evals_per_s", "1/s", "higher", "kernel", KERNEL, "† QualityModel::evaluate_lanes over the same plans"),
    m("kernel.delta_probe_evals_per_s", "1/s", "higher", "kernel", KERNEL, "† QualityModel::probe_delta single moves against a retained parent"),
    m("eval.score_ms", "ms", "lower", "eval", KERNEL, "mean RecommendationReport::eval.wall_time_ms per request"),
    m("eval.unique_evals", "count", "lower", "eval", KERNEL, "mean unique evaluations per request"),
    m("eval.cache_hits", "count", "higher", "eval", CACHE, "mean memo-cache hits per request"),
    m("eval.cache_hit_ratio", "ratio", "higher", "eval", CACHE, "cache hits / evaluation requests"),
    m("eval.offspring_evals_per_s", "1/s", "higher", "eval", KERNEL, "† PlanEvaluator::evaluate_offspring_batch on one-gene children"),
    m("nn.update_us", "us", "lower", "nn", RL, "† ActorCritic::update at the workload's 2n -> hidden -> n dims"),
    m("nn.sample_us", "us", "lower", "nn", RL, "† ActorCritic::sample at the same dims"),
    m("rl.train_ms", "ms", "lower", "rl_crossover", RL, "† CrossoverAgent::train_scored with the request's iteration count, scoring time subtracted"),
    m("rl.train_steps", "count", "lower", "rl_crossover", RL, "policy-gradient steps per request (reward_progression length)"),
    m("rl.infer_ms", "ms", "lower", "rl_crossover", RL, "† CrossoverAgent::crossover_sites x the request's offspring count"),
    m("rl.final_reward", "ratio", "higher", "rl_crossover", QUALITY, "mean of the last 20 rewards of reward_progression"),
    m("ga.survive_ms", "ms", "lower", "ga", "latency_p50_ms on every workload, < 2 % of an op", "† survive on 2 x population vectors x the request's generations"),
    m("ga.archive_insert_us", "us", "lower", "ga", "latency_p50_ms on every workload, < 1 % of an op", "† ParetoArchive::insert, mean per offered point"),
    m("search.recommend_ms", "ms", "lower", "recommender", "latency_p50_ms on every workload", "median Recommender::recommend span"),
    m("search.uniform_ms", "ms", "lower", "recommender", "latency_p50_ms on cold-wide", "† the same model searched with uniform crossover"),
    m("search.other_ms", "ms", "lower", "recommender", "latency_p50_ms on every workload", "recommend - score - rl.train - rl.infer - survive"),
    m("search.visited", "count", "higher", "recommender", QUALITY, "distinct plans the request scored"),
    m("search.front_size", "count", "higher", "recommender", QUALITY, "plans on the returned front"),
    m("search.hv_rl", "ratio", "higher", "recommender", QUALITY, "† hypervolume of the front found with RL crossover"),
    m("search.hv_uniform", "ratio", "higher", "recommender", QUALITY, "† hypervolume of the front found with uniform crossover on the same model"),
    m("service.bootstrap_ms", "ms", "lower", "service", "setup_s on resident-drift and hub-open", "median AdvisorService::bootstrap"),
    m("service.feed_quiet_ms", "ms", "lower", "service", "ops_per_s on resident-drift (quiet-feed ingest is charged to the replay)", "median feed that fires no detector"),
    m("service.feed_drift_ms", "ms", "lower", "service", "latency_p50_ms on resident-drift (it is that figure, traced)", "median feed that re-recommends"),
    m("service.drift_fired", "count", "higher", "service", "ok_ratio on resident-drift (a replay with no drift fails)", "mean DriftFired events per replay"),
    m("service.rerecommendations", "count", "higher", "service", "ops_per_s on resident-drift", "mean Rerecommended events per replay"),
    m("monitor.check_us", "us", "lower", "monitor", "service.feed_quiet_ms, then ops_per_s on resident-drift", "† DriftDetector::check on one API's window"),
    m("hub.service_p50_ms", "ms", "lower", "hub", RL, "median HubReport::latency_ms in the open-loop phase"),
    m("hub.queue_wait_p50_ms", "ms", "lower", "hub", QUEUE, "median start - due"),
    m("hub.queue_wait_p90_ms", "ms", "lower", "hub", QUEUE, "90th percentile start - due"),
    m("hub.generator_lag_p90_ms", "ms", "lower", "hub", "none: above 2 ms the run is invalid (a late generator must not read as a slow hub)", "90th percentile start - due over slots an idle, waiting worker took"),
    m("hub.offered_per_s", "1/s", "higher", "hub", DESCRIPTOR, "arrivals / schedule length"),
    m("hub.completed_per_s", "1/s", "higher", "hub", QUEUE, "open-loop completions / (last completion - first due)"),
    m("hub.backlog_end", "count", "lower", "hub", QUEUE, "slots still waiting when the last arrival came due"),
    m("hub.within_limit_ratio", "ratio", "higher", "hub", QUEUE, "requests answered within 250 ms of their due time"),
    m("hub.capacity_per_s", "1/s", "higher", "hub", "ops_per_s on hub-open (it is that figure)", "closed-loop throughput with W workers"),
    m("hub.capacity_1w_per_s", "1/s", "higher", "hub", RL, "closed-loop throughput with one worker"),
    m("hub.scaling_efficiency", "ratio", "higher", "hub", "ops_per_s on hub-open", "capacity / (W x one-worker capacity)"),
    m("hub.feed_p50_ms", "ms", "lower", "hub", QUEUE, "median hub.feed in the open-loop phase (it holds one of W workers)"),
    m("hub.epochs_published", "count", "higher", "hub", QUEUE, "model epochs published over the run, all tenants"),
    m("hub.request_unique_evals", "count", "lower", "hub", CACHE, "mean unique evaluations per open-loop request"),
    m("hub.cache_hit_ratio", "ratio", "higher", "hub", CACHE, "cache hits / evaluation requests over open-loop requests"),
    m("hub.rss_growth_mb", "MiB", "lower", "hub", "peak_rss_mb on hub-open (retired snapshots are never reclaimed)", "RSS at the end - RSS after set-up"),
    m("proc.rss_end_mb", "MiB", "lower", "process", "peak_rss_mb", "VmRSS at exit"),
    m("trace.overhead_ratio", "ratio", "lower", "process", DESCRIPTOR, "median latency of traced ops / untraced ops of the same run"),
    m("trace.accounted_ratio", "ratio", "higher", "process", DESCRIPTOR, "share of op time covered by child spans"),
    m("input.traces", "count", "higher", "inputs", DESCRIPTOR, "traces in one scenario's corpus"),
    m("input.spans", "count", "higher", "inputs", DESCRIPTOR, "spans in one scenario's corpus"),
    m("input.digest32", "count", "higher", "inputs", DESCRIPTOR, "32-bit digest of the first scenario's corpus, so a changed generator is visible"),
    m("env.cores", "count", "higher", "inputs", DESCRIPTOR, "available_parallelism"),
    m("env.workers", "count", "higher", "inputs", DESCRIPTOR, "hub workers W = min(cores, 2); 1 on the closed-loop workloads"),
    m("input.scenarios", "count", "higher", "inputs", DESCRIPTOR, "scenarios set up over the run"),
];

/// `BENCHMARK.json`, printed from the tables above.
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| -> String {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": [{}],\n", quoted(&COMMAND)));
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 == WORKLOADS.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, e) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            e.name, e.unit, e.better, e.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, p) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            p.name, p.unit, p.better
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The workload, end-to-end and per-layer tables of `README.md`, as
/// markdown (`--describe`).
pub fn glossary_markdown() -> String {
    let mut out = String::from("| workload | why it exists |\n|---|---|\n");
    for w in &WORKLOADS {
        out.push_str(&format!("| `{}` | {} |\n", w.name, w.why));
    }
    out.push_str(
        "\n| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|\n",
    );
    for e in &END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} % | {} |\n",
            e.name,
            e.unit,
            e.better,
            e.bound * 100.0,
            e.what
        ));
    }
    out.push_str(
        "\n| per-layer metric | layer | unit | what | should move |\n|---|---|---|---|---|\n",
    );
    for p in &PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            p.name, p.layer, p.unit, p.what, p.moves
        ));
    }
    out
}
