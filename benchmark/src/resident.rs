//! The warm workload: *drift → new recommendation* on a resident service.
//!
//! A replay is a new `AdvisorService` (retention 90 s, detectors armed from
//! 60 samples) with day 1 fed and bootstrapped, untimed, then the drifting
//! day 2 fed in 12 batches. One op is a `feed(batch)` that re-recommends
//! (drift check → `relearn_dirty` → search); its latency is that call.
//! Closed loop, one client. Feeds that fire no detector are not ops, but
//! their time is charged to `ops_per_s`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use atlas_core::{AdvisorService, AdvisorServiceConfig, RecommendedPlan, ServiceEvent};
use atlas_telemetry::Trace;

use crate::front::{
    front_hypervolume, oracle_agrees, same_front, SearchStats, ORACLE_SAMPLE, RELEARN_TOLERANCE,
};
use crate::probes::{self, ProbeInput};
use crate::run::{ms, panic_message, Metrics, RunArgs, Tally};
use crate::scenario::{self, derive, Day, Scenario, Shape, DAY_SECONDS, RETENTION_WINDOW_S};
use crate::stats;
use crate::trace::Tracer;

/// 100 components, 2 sites, normal traffic, RL crossover.
pub const SHAPE: Shape = Shape {
    components: 100,
    sites: 2,
    volume_scale: 1.0,
    uniform_crossover: false,
};

/// Batches day 1 and day 2 are streamed in.
const DAY1_BATCHES: usize = 8;
const DAY2_BATCHES: usize = 12;

/// Samples an API needs before its drift detector is armed.
pub const MIN_DETECTOR_SAMPLES: usize = 60;

/// Untimed replays at the start of every scenario.
const WARM_UP_REPLAYS: usize = 1;

/// Measured replays a scenario runs at least (two, so that one replay's
/// fronts are always compared with another's).
const MIN_REPLAYS: usize = 2;

pub fn service_config(sc: &Scenario, shape: &Shape, seed: u64) -> AdvisorServiceConfig {
    let atlas = scenario::atlas_config(
        &sc.scenario,
        scenario::recommender_config(shape, derive(seed, 3)),
    );
    let mut config = AdvisorServiceConfig::new(atlas, scenario::preferences(&sc.scenario))
        .with_retention_window_s(RETENTION_WINDOW_S);
    config.min_detector_samples = MIN_DETECTOR_SAMPLES;
    config
}

/// A new service with day 1 streamed in and bootstrapped; returns the
/// bootstrap call's milliseconds and its cold-learn milliseconds too.
pub fn bootstrapped(sc: &Scenario, config: &AdvisorServiceConfig) -> (AdvisorService, f64, f64) {
    let mut service =
        AdvisorService::new(config.clone(), scenario::current_placement(&sc.scenario));
    scenario::copy_context(&sc.day1.source, service.store(), 0);
    for batch in scenario::batches(&sc.day1.corpus, DAY1_BATCHES) {
        service.feed(batch);
    }
    let start = Instant::now();
    let events = service.bootstrap();
    let bootstrap_ms = ms(start.elapsed());
    let learn_ms = events
        .iter()
        .find_map(|e| match e {
            ServiceEvent::Relearned { elapsed_ms, .. } => Some(*elapsed_ms),
            _ => None,
        })
        .unwrap_or(0.0);
    (service, bootstrap_ms, learn_ms)
}

/// What one replay's samples add up to, across the run.
#[derive(Default)]
struct Samples {
    /// Latency of every drift response, in run order, and whether the
    /// replay it belongs to recorded spans.
    drift_ms: Vec<(f64, bool)>,
    quiet_ms: Vec<f64>,
    feed_s: f64,
    bootstrap_ms: Vec<f64>,
    cold_learn_ms: Vec<f64>,
    relearn_ms: Vec<f64>,
    drift_fired: Vec<f64>,
    rerecommendations: Vec<f64>,
    fed_traces: Vec<f64>,
}

pub fn run(args: &RunArgs, m: &mut Metrics) -> Tally {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let mut tally = Tally::default();
    let scenarios = args.scenarios();
    let share = Duration::from_secs_f64(args.seconds / scenarios as f64);

    let mut setup_s = Vec::new();
    let mut samples = Samples::default();
    let mut hypervolumes = Vec::new();
    let mut search = SearchStats::default();
    let mut op_id = 0u32;

    for k in 0..scenarios {
        let (seed, reference) = args.scenario_seed(k);
        let start = Instant::now();
        let sc = scenario::build(&SHAPE, seed);
        let day2 = scenario::drift_day(&SHAPE, seed);
        let config = service_config(&sc, &SHAPE, seed);
        let mut prepared = Some(bootstrapped(&sc, &config));
        setup_s.push(start.elapsed().as_secs_f64());
        let day2_batches = scenario::batches(&day2.corpus, DAY2_BATCHES);

        if k == 0 {
            let (service, _, _) = prepared.as_ref().expect("just prepared");
            let model = service.model().expect("bootstrapped");
            let traces = (sc.day1.corpus.len() + day2.corpus.len()) as f64;
            m.set("input.traces", traces);
            m.set(
                "input.spans",
                (sc.day1.span_count() + day2.span_count()) as f64,
            );
            m.set(
                "input.digest32",
                f64::from(scenario::digest32(&day2.corpus)),
            );
            let kernel_traces = model.kernel().trace_count() as f64;
            m.set("kernel.trace_count", kernel_traces);
            m.set("kernel.compile_ms", model.kernel_compile_ms());
            m.set("learn.representative_traces", kernel_traces);
            m.set(
                "learn.distinct_trace_ratio",
                kernel_traces / (sc.day1.corpus.len() as f64).max(1.0),
            );
        }

        // Front after each batch's drift response in the scenario's first
        // measured replay; every later replay must reproduce them.
        let mut first_fronts: Option<Vec<Option<Vec<RecommendedPlan>>>> = None;
        let mut replay = |measured: Option<usize>,
                          first: Option<&[Option<Vec<RecommendedPlan>>]>| {
            let (service, bootstrap_ms, learn_ms) = prepared
                .take()
                .unwrap_or_else(|| bootstrapped(&sc, &config));
            let how = Replay {
                scenario: k,
                traced: args.trace && measured.is_some_and(|n| n % 2 == 0),
                check_oracle: measured.is_some_and(|n| n % ORACLE_SAMPLE == 0),
                record_evictions: k == 0 && measured == Some(0),
                hv_seed: derive(seed, 4),
            };
            let outcome = one_replay(service, &day2, &day2_batches, how, first);
            (outcome, bootstrap_ms, learn_ms)
        };
        for _ in 0..args.repeats(WARM_UP_REPLAYS) {
            drop(replay(None, None));
        }
        let started = Instant::now();
        let mut measured = 0usize;
        while measured < MIN_REPLAYS || started.elapsed() < share {
            let (outcome, bootstrap_ms, learn_ms) = replay(Some(measured), first_fronts.as_deref());
            samples.bootstrap_ms.push(bootstrap_ms);
            samples.cold_learn_ms.push(learn_ms);
            outcome.account(
                &mut tally,
                &mut samples,
                &mut tracer,
                &mut search,
                &mut op_id,
                m,
            );
            if first_fronts.is_none() {
                hypervolumes.extend(outcome.hypervolume.filter(|_| reference));
                first_fronts = Some(outcome.fronts);
            }
            measured += 1;
        }
        if k == 0 && args.trace {
            // Probes once the scenario's timed share is over, on a service
            // bootstrapped the way every replay's is.
            let (service, _, _) = bootstrapped(&sc, &config);
            probes::run(
                &ProbeInput {
                    model: service.model().expect("bootstrapped"),
                    store: service.store(),
                    context: &sc.day1.source,
                    atlas: &config.atlas,
                    report: service.recommendation().expect("bootstrapped"),
                    seed,
                    budget: args.probe_time(),
                    reps: args.repeats(3),
                },
                m,
            );
        }
    }

    let all_ms: Vec<f64> = samples.drift_ms.iter().map(|&(ms, _)| ms).collect();
    tally.samples = m.set_latency(&all_ms);
    m.set("setup_s", stats::median(&setup_s));
    m.set("ops_per_s", all_ms.len() as f64 / samples.feed_s.max(1e-9));
    m.set("front_hypervolume", stats::geometric_mean(&hypervolumes));
    m.set("input.scenarios", scenarios as f64);
    m.set("env.workers", 1.0);

    if args.trace {
        let by = |traced: bool| -> Vec<f64> {
            samples
                .drift_ms
                .iter()
                .filter(|&&(_, t)| t == traced)
                .map(|&(ms, _)| ms)
                .collect()
        };
        let ingest_ms = stats::median(&tracer.durations_ms("service.ingest_check"));
        m.set("telemetry.ingest_ms", ingest_ms);
        m.set(
            "telemetry.ingest_traces_per_s",
            stats::mean(&samples.fed_traces) / (ingest_ms / 1e3).max(1e-9),
        );
        m.set(
            "learn.atlas_learn_ms",
            stats::median(&samples.cold_learn_ms),
        );
        m.set("learn.relearn_dirty_ms", stats::median(&samples.relearn_ms));
        m.set(
            "search.recommend_ms",
            stats::median(&tracer.durations_ms("search.recommend")),
        );
        m.set_all(search.metrics());
        m.set("service.bootstrap_ms", stats::median(&samples.bootstrap_ms));
        m.set("service.feed_quiet_ms", stats::median(&samples.quiet_ms));
        m.set("service.feed_drift_ms", stats::median(&by(true)));
        m.set("service.drift_fired", stats::mean(&samples.drift_fired));
        m.set(
            "service.rerecommendations",
            stats::mean(&samples.rerecommendations),
        );
        m.set(
            "trace.overhead_ratio",
            stats::median(&by(true)) / stats::median(&by(false)).max(1e-9),
        );
        m.set("trace.accounted_ratio", tracer.accounted_ratio());
        crate::write_trace(args, &tracer);
    }
    tally
}

/// How one replay is to be run and checked.
struct Replay {
    scenario: usize,
    traced: bool,
    check_oracle: bool,
    record_evictions: bool,
    hv_seed: u64,
}

/// One feed of a replay, as measured from outside plus what the service's
/// own events say about it.
struct Feed {
    start: Instant,
    end: Instant,
    traces: usize,
    /// `(relearn ms, drift-to-recommendation ms, scoring ms)` of a drift
    /// response.
    response: Option<(f64, f64, f64)>,
    failure: Option<String>,
}

struct ReplayOutcome {
    replay: Replay,
    feeds: Vec<Feed>,
    /// Front after each batch, where the batch re-recommended.
    fronts: Vec<Option<Vec<RecommendedPlan>>>,
    /// Search counters of each drift response.
    search: SearchStats,
    drift_fired: usize,
    evicted: usize,
    /// Hypervolume of the front after the last drift response.
    hypervolume: Option<f64>,
    /// A panic that ended the replay early.
    aborted: Option<String>,
}

fn one_replay(
    mut service: AdvisorService,
    day2: &Day,
    batches: &[Vec<Trace>],
    replay: Replay,
    first_fronts: Option<&[Option<Vec<RecommendedPlan>>]>,
) -> ReplayOutcome {
    scenario::copy_context(&day2.source, service.store(), DAY_SECONDS + 1);
    let mut outcome = ReplayOutcome {
        feeds: Vec::with_capacity(batches.len()),
        fronts: vec![None; batches.len()],
        search: SearchStats::default(),
        drift_fired: 0,
        evicted: 0,
        hypervolume: None,
        aborted: None,
        replay,
    };
    for (j, batch) in batches.iter().enumerate() {
        let (batch, traces) = (batch.clone(), batch.len());
        let start = Instant::now();
        let fed = catch_unwind(AssertUnwindSafe(|| service.feed(batch)));
        let end = Instant::now();
        let events = match fed {
            Ok(events) => events,
            Err(payload) => {
                outcome.aborted = Some(format!(
                    "feed panicked: {}",
                    panic_message(payload.as_ref())
                ));
                return outcome;
            }
        };
        let (mut relearn_ms, mut response_ms) = (0.0, None);
        for event in &events {
            match event {
                ServiceEvent::Ingested { evicted, .. } => outcome.evicted += evicted,
                ServiceEvent::DriftFired { .. } => outcome.drift_fired += 1,
                ServiceEvent::Relearned { elapsed_ms, .. } => relearn_ms = *elapsed_ms,
                ServiceEvent::Rerecommended { latency_ms, .. } => response_ms = Some(*latency_ms),
            }
        }
        let mut feed = Feed {
            start,
            end,
            traces,
            response: None,
            failure: None,
        };
        if let Some(response_ms) = response_ms {
            let report = service.recommendation().expect("the feed re-recommended");
            let model = service.model().expect("the service is bootstrapped");
            feed.response = Some((relearn_ms, response_ms, report.eval.wall_time_ms));
            outcome.search.add(report);
            feed.failure = if report.plans.is_empty() {
                Some("no plan returned".to_string())
            } else if first_fronts.is_some_and(|first| {
                !first[j]
                    .as_ref()
                    .is_some_and(|front| same_front(front, &report.plans, RELEARN_TOLERANCE))
            }) {
                Some(format!(
                    "scenario {}: batch {j}'s front differs from the first replay's",
                    outcome.replay.scenario
                ))
            } else if outcome.replay.check_oracle && !oracle_agrees(model, &report.plans) {
                Some(format!(
                    "scenario {}: a reported quality differs from the interpretive oracle",
                    outcome.replay.scenario
                ))
            } else {
                None
            };
            outcome.fronts[j] = Some(report.plans.clone());
            if first_fronts.is_none() {
                outcome.hypervolume = Some(front_hypervolume(
                    model,
                    &report.plans,
                    outcome.replay.hv_seed,
                ));
            }
        }
        outcome.feeds.push(feed);
    }
    if let Some(j) = first_fronts.and_then(|first| {
        (0..batches.len()).find(|&j| first[j].is_some() && outcome.fronts[j].is_none())
    }) {
        outcome.aborted = Some(format!(
            "scenario {}: batch {j} re-recommended in the first replay but not in this one",
            outcome.replay.scenario
        ));
    }
    outcome
}

impl ReplayOutcome {
    /// Fold a measured replay into the run: ops and failures into the
    /// tally, samples into their series, spans into the tracer.
    fn account(
        &self,
        tally: &mut Tally,
        samples: &mut Samples,
        tracer: &mut Tracer,
        search: &mut SearchStats,
        op_id: &mut u32,
        m: &mut Metrics,
    ) {
        let responses = self.feeds.iter().filter(|f| f.response.is_some()).count();
        if let Some(reason) = &self.aborted {
            tally.op(Some(reason.clone()));
        } else if responses == 0 {
            // A replay in which no detector fires fails all its feeds.
            for _ in &self.feeds {
                tally.op(Some(format!(
                    "scenario {}: no drift detector fired over day 2",
                    self.replay.scenario
                )));
            }
        }
        for feed in &self.feeds {
            let latency_ms = ms(feed.end - feed.start);
            samples.feed_s += latency_ms / 1e3;
            let Some((relearn_ms, response_ms, score_ms)) = feed.response else {
                samples.quiet_ms.push(latency_ms);
                continue;
            };
            tally.op(feed.failure.clone());
            samples.drift_ms.push((latency_ms, self.replay.traced));
            samples.relearn_ms.push(relearn_ms);
            samples.fed_traces.push(feed.traces as f64);
            if self.replay.traced {
                // The service reports how long the relearn and the whole
                // drift response took; what precedes them in the feed is
                // ingest, eviction and the drift checks.
                let root = tracer.span("op", None, *op_id, feed.start, feed.end);
                let search_ms = (response_ms - relearn_ms).max(0.0);
                let recommend = tracer.derived("search.recommend", root, search_ms, 0.0);
                tracer.derived("eval.score", recommend, score_ms, 0.0);
                tracer.derived("learn.relearn_dirty", root, relearn_ms, search_ms);
                tracer.derived(
                    "service.ingest_check",
                    root,
                    (latency_ms - response_ms).max(0.0),
                    response_ms,
                );
            }
            *op_id += 1;
        }
        if self.replay.traced {
            search.merge(&self.search);
        }
        samples.drift_fired.push(self.drift_fired as f64);
        samples.rerecommendations.push(responses as f64);
        if self.replay.record_evictions {
            m.set("telemetry.evicted_traces", self.evicted as f64);
        }
    }
}
