//! Ablation benches for the design choices called out in DESIGN.md:
//! RL crossover vs uniform crossover, and the feasibility term of Eq. 5.
use atlas_bench::{Experiment, ExperimentOptions};
use atlas_core::{
    CrossoverAgent, MigrationPlan, PlanEvaluator, Recommender, RecommenderConfig, RlCrossoverConfig,
};
use atlas_sim::SiteId;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_ablation(c: &mut Criterion) {
    let exp = Experiment::set_up(ExperimentOptions::quick());
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);

    let rl = RecommenderConfig {
        population: 16,
        max_visited: 200,
        ..RecommenderConfig::fast()
    };
    group.bench_function("crossover_rl", |b| {
        b.iter(|| Recommender::new(&exp.quality, rl.clone()).recommend())
    });
    group.bench_function("crossover_uniform", |b| {
        b.iter(|| Recommender::new(&exp.quality, rl.clone().with_uniform_crossover()).recommend())
    });

    // Reward-ablation: training with and without the feasibility penalty.
    let dataset: Vec<MigrationPlan> = (0..16)
        .map(|i| {
            MigrationPlan::from_sites((0..29).map(|j| SiteId(((i + j) % 3 == 0) as u16)).collect())
        })
        .collect();
    for (name, penalty) in [
        ("reward_with_feasibility", true),
        ("reward_without_feasibility", false),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut agent = CrossoverAgent::new(
                    29,
                    RlCrossoverConfig {
                        iterations: 30,
                        actor_hidden: vec![32, 32],
                        feasibility_penalty: penalty,
                        seed: 5,
                    },
                );
                let evaluator = PlanEvaluator::new(&exp.quality);
                agent.train(&evaluator, std::hint::black_box(&dataset))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
