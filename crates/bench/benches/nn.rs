//! Crossover-agent micro-benchmarks (paper §6 reports 0.459 ms inference and
//! ~19 s training for 1,000 iterations).

use atlas_nn::{ActorCritic, ActorCriticConfig};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_nn(c: &mut Criterion) {
    let config = ActorCriticConfig::default();
    let mut agent = ActorCritic::new(58, 29, config);
    let state = vec![0.5; 58];
    let mut group = c.benchmark_group("actor_critic");
    group.bench_function("crossover_inference_29_components", |b| {
        b.iter(|| agent.greedy(std::hint::black_box(&state)))
    });
    group.bench_function("actor_critic_update", |b| {
        let action = vec![true; 29];
        b.iter(|| agent.update(std::hint::black_box(&state), &action, 1.0))
    });
    // Scalability claim: a 10x larger input grows sub-linearly in inference
    // time; expose both sizes for comparison.
    let mut big = ActorCritic::new(580, 290, ActorCriticConfig::default());
    let big_state = vec![0.5; 580];
    group.bench_function("crossover_inference_290_components", |b| {
        b.iter(|| big.greedy(std::hint::black_box(&big_state)))
    });
    group.finish();
}

criterion_group!(benches, bench_nn);
criterion_main!(benches);
