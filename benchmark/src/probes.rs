//! The † probes: one public function of a layer called in isolation with
//! the workload's shapes. They give numbers to layers whose calls the
//! benchmark cannot see from outside an op (the RL agent and the survival
//! sort run inside `Recommender::recommend`), and raw throughputs to
//! compare a layer against itself across commits. A probe is not a span:
//! its inputs are warm and nothing contends with it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use atlas_cloud::{ResourceEstimator, ScalingEstimator};
use atlas_core::recommender::{CrossoverStrategy, RecommendationReport};
use atlas_core::{
    ApplicationProfile, AtlasConfig, CrossoverAgent, DriftDetector, FootprintLearner,
    MigrationPlan, PlanEvaluator, QualityModel, Recommender, ScoredPlan, LANE_WIDTH,
};
use atlas_ga::nsga2::survive;
use atlas_ga::ParetoArchive;
use atlas_nn::{ActorCritic, ActorCriticConfig};
use atlas_sim::{ComponentId, SiteId};
use atlas_telemetry::TelemetryStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::front::{front_hypervolume, random_plans, REFERENCE_PLANS};
use crate::run::{ms, Metrics};
use crate::scenario::{copy_context, derive};
use crate::stats;

/// What the probes run on: one scenario of the workload, learned.
pub struct ProbeInput<'a> {
    pub model: &'a QualityModel,
    /// A store holding the scenario's traces and context.
    pub store: &'a TelemetryStore,
    /// The simulator's store, the source of the context replay.
    pub context: &'a TelemetryStore,
    pub atlas: &'a AtlasConfig,
    /// One request's report on `model`: its iteration and evaluation counts
    /// size the RL and GA replays.
    pub report: &'a RecommendationReport,
    pub seed: u64,
    /// Wall time one throughput probe measures for.
    pub budget: Duration,
    /// Calls a one-shot probe takes the median of.
    pub reps: usize,
}

/// Repeat `pass` (returning how many operations it did) until `budget` of
/// wall time has passed; operations per second.
fn throughput(budget: Duration, mut pass: impl FnMut() -> usize) -> f64 {
    let start = Instant::now();
    let mut done = 0usize;
    loop {
        done += pass();
        let elapsed = start.elapsed();
        if elapsed >= budget {
            return done as f64 / elapsed.as_secs_f64();
        }
    }
}

/// Median of `reps` calls that each return their own milliseconds.
fn median_ms_of(reps: usize, mut call: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| call()).collect();
    stats::median(&samples)
}

/// Median milliseconds of `reps` calls.
fn median_ms<R>(reps: usize, mut call: impl FnMut() -> R) -> f64 {
    median_ms_of(reps, || {
        let start = Instant::now();
        black_box(call());
        ms(start.elapsed())
    })
}

pub fn run(input: &ProbeInput<'_>, m: &mut Metrics) {
    learn_probes(input, m);
    kernel_probes(input, m);
    nn_probes(input, m);
    search_probes(input, m);
    monitor_probe(input, m);
}

fn learn_probes(input: &ProbeInput<'_>, m: &mut Metrics) {
    let atlas = input.atlas;
    m.set(
        "telemetry.context_ms",
        median_ms(input.reps, || {
            copy_context(input.context, &TelemetryStore::new(), 0)
        }),
    );
    m.set(
        "learn.profile_ms",
        median_ms(input.reps, || {
            ApplicationProfile::learn(
                input.store,
                &atlas.stateful_components,
                atlas.traces_per_api,
            )
        }),
    );
    m.set(
        "learn.footprint_ms",
        median_ms(input.reps, || {
            FootprintLearner::default().learn(input.store)
        }),
    );
    m.set(
        "learn.demand_ms",
        median_ms(input.reps, || {
            ScalingEstimator::with_scale(atlas.expected_traffic_scale).estimate(
                input.store,
                &atlas.component_index,
                atlas.horizon_steps,
                atlas.horizon_step_s,
            )
        }),
    );
}

fn kernel_probes(input: &ProbeInput<'_>, m: &mut Metrics) {
    let model = input.model;
    let (n, sites) = (model.component_count(), model.site_count() as u16);
    let plans = random_plans(model, REFERENCE_PLANS, derive(input.seed, 10));

    m.set(
        "kernel.scalar_evals_per_s",
        throughput(input.budget, || {
            for plan in &plans {
                black_box(model.evaluate(plan));
            }
            plans.len()
        }),
    );
    let refs: Vec<&MigrationPlan> = plans.iter().collect();
    m.set(
        "kernel.lanes_evals_per_s",
        throughput(input.budget, || {
            for group in refs.chunks(LANE_WIDTH) {
                black_box(model.evaluate_lanes(group));
            }
            refs.len()
        }),
    );
    let parent = model.evaluate_scored(&plans[0]);
    m.set(
        "kernel.delta_probe_evals_per_s",
        throughput(input.budget, || {
            for k in 0..REFERENCE_PLANS {
                let c = k % n;
                let to = SiteId((parent.sites()[c].0 + 1) % sites);
                black_box(model.probe_delta(&parent, &[(ComponentId(c), to)]));
            }
            REFERENCE_PLANS
        }),
    );

    // One-gene children of 16 retained parents, generated inside the timed
    // region as the generational loop does, through a fresh memo cache per
    // pass so the figure is scoring and not cache replay.
    let parents: Vec<ScoredPlan> = PlanEvaluator::new(model)
        .with_threads(1)
        .evaluate_scored_batch(&plans[..16]);
    let mut rng = StdRng::seed_from_u64(derive(input.seed, 11));
    m.set(
        "eval.offspring_evals_per_s",
        throughput(input.budget, || {
            let evaluator = PlanEvaluator::new(model).with_threads(1);
            let mut anchors = Vec::with_capacity(REFERENCE_PLANS);
            let mut children = Vec::with_capacity(REFERENCE_PLANS);
            for k in 0..REFERENCE_PLANS {
                let parent = &parents[k % parents.len()];
                let mut genome = parent.sites().to_vec();
                let gene = rng.gen_range(0..n);
                let hop = rng.gen_range(1..sites.max(2));
                genome[gene] = SiteId((genome[gene].0 + hop) % sites);
                anchors.push(parent);
                children.push(MigrationPlan::from_sites(genome));
            }
            black_box(evaluator.evaluate_offspring_batch(&anchors, &children));
            REFERENCE_PLANS
        }),
    );
}

fn nn_probes(input: &ProbeInput<'_>, m: &mut Metrics) {
    let n = input.model.component_count();
    let mut net = ActorCritic::new(
        2 * n,
        n,
        ActorCriticConfig {
            actor_hidden: input.atlas.recommender.rl.actor_hidden.clone(),
            seed: derive(input.seed, 12),
            ..ActorCriticConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(derive(input.seed, 13));
    let state: Vec<f64> = (0..2 * n)
        .map(|_| f64::from(rng.gen_range(0..2u8)))
        .collect();
    let action = net.sample(&state);
    let per_s = throughput(input.budget, || {
        black_box(net.sample(&state));
        1
    });
    m.set("nn.sample_us", 1e6 / per_s);
    let per_s = throughput(input.budget, || {
        black_box(net.update(&state, &action, 1.0));
        1
    });
    m.set("nn.update_us", 1e6 / per_s);
}

fn search_probes(input: &ProbeInput<'_>, m: &mut Metrics) {
    let (model, report) = (input.model, input.report);
    let config = &input.atlas.recommender;
    let (n, population_size) = (model.component_count(), config.population);
    let hv_seed = derive(input.seed, 14);

    // The request's own shape: policy-gradient steps, offspring asked of
    // the crossover operator, and generations of the survival sort.
    let iterations = report.reward_progression.len();
    let offspring = report
        .eval
        .requests()
        .saturating_sub(population_size + iterations);
    let generations = offspring.div_ceil(population_size.max(1));

    let evaluator = PlanEvaluator::new(model).with_threads(1);
    let population: Vec<ScoredPlan> = evaluator.evaluate_scored_batch(&random_plans(
        model,
        population_size,
        derive(input.seed, 15),
    ));

    let (mut train_ms, mut infer_ms) = (0.0, 0.0);
    if iterations > 0 {
        let mut rl = config.rl.clone();
        rl.iterations = iterations;
        let mut trained = None;
        train_ms = median_ms_of(input.reps, || {
            let mut agent = CrossoverAgent::new(n, rl.clone()).with_site_count(model.site_count());
            let mut scoring = Duration::ZERO;
            let start = Instant::now();
            agent.train_scored(&population, |parent, _, child| {
                let scored = Instant::now();
                let quality = evaluator.evaluate_offspring(parent, child);
                scoring += scored.elapsed();
                quality
            });
            let own = start.elapsed().saturating_sub(scoring);
            trained = Some(agent);
            ms(own)
        });
        let mut agent = trained.expect("trained at least once");
        infer_ms = median_ms(input.reps, || {
            for k in 0..offspring {
                let a = population[k % population.len()].sites();
                let b = population[(k + 1) % population.len()].sites();
                black_box(agent.crossover_sites(a, b));
            }
        });
    }
    m.set("rl.train_ms", train_ms);
    m.set("rl.infer_ms", infer_ms);

    let mut rng = StdRng::seed_from_u64(derive(input.seed, 16));
    let mut objectives = |count: usize| -> Vec<[f64; 3]> {
        (0..count)
            .map(|_| [rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()])
            .collect()
    };
    let crowd = objectives(2 * population_size);
    let feasible = vec![true; crowd.len()];
    m.set(
        "ga.survive_ms",
        median_ms(input.reps, || {
            for _ in 0..generations {
                black_box(survive(&crowd, &feasible, population_size));
            }
        }),
    );
    let offers = objectives(1_000);
    let start = Instant::now();
    let mut archive: ParetoArchive<usize, [f64; 3]> =
        ParetoArchive::new(atlas_core::ARCHIVE_CAPACITY);
    for (i, offer) in offers.iter().enumerate() {
        black_box(archive.insert(&i, *offer));
    }
    m.set(
        "ga.archive_insert_us",
        ms(start.elapsed()) * 1e3 / offers.len() as f64,
    );

    // The same model searched both ways: what the agent buys at this
    // budget, in time and in front quality.
    let uniform = config.clone().with_uniform_crossover();
    let mut uniform_front = Vec::new();
    m.set(
        "search.uniform_ms",
        median_ms(input.reps, || {
            uniform_front = Recommender::new(model, uniform.clone()).recommend().plans
        }),
    );
    m.set(
        "search.hv_uniform",
        front_hypervolume(model, &uniform_front, hv_seed),
    );
    let rl_front = if config.strategy == CrossoverStrategy::ReinforcementLearning {
        report.plans.clone()
    } else {
        let mut rl = config.clone();
        rl.strategy = CrossoverStrategy::ReinforcementLearning;
        Recommender::new(model, rl).recommend().plans
    };
    m.set("search.hv_rl", front_hypervolume(model, &rl_front, hv_seed));
}

fn monitor_probe(input: &ProbeInput<'_>, m: &mut Metrics) {
    let busiest = input
        .store
        .apis()
        .into_iter()
        .max_by_key(|api| input.store.api_trace_count(api));
    let Some(api) = busiest else {
        m.set("monitor.check_us", 0.0);
        return;
    };
    let samples = input.store.api_latencies_ms(&api);
    let window = 50.min(samples.len() / 2).max(1);
    let recent = samples[samples.len() - window..].to_vec();
    let detector = DriftDetector::new(samples, &recent);
    let per_s = throughput(input.budget, || {
        black_box(detector.check(&recent));
        1
    });
    m.set("monitor.check_us", 1e6 / per_s);
}
