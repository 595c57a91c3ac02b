//! Crossover-agent micro-benchmarks (paper §6 reports 0.459 ms inference and
//! ~19 s training for 1,000 iterations).
//!
//! Besides the criterion-style timings, this bench emits a machine-readable
//! `BENCH_nn.json` at the workspace root: microseconds per
//! `ActorCritic::update` and `ActorCritic::sample` at the dims every serving
//! request trains at and at the paper's dims, so CI can track the training
//! step that owns most of a recommendation request.
use std::time::Instant;

use atlas_nn::{ActorCritic, ActorCriticConfig};
use criterion::{criterion_group, criterion_main, Criterion};

/// The agents the JSON point measures: `(name, components, actor_hidden)`.
/// `serving` is a 100-component request under `RecommenderConfig::fast()`;
/// `paper` is the paper's actor on the 29-component social network.
const JSON_DIMS: [(&str, usize, &[usize]); 2] =
    [("serving", 100, &[48, 48]), ("paper", 29, &[128, 128, 128])];

/// Mean microseconds per call of `f`, after a discarded warm-up.
fn micros_per_call(mut f: impl FnMut()) -> f64 {
    const CALLS: u32 = 2_000;
    for _ in 0..CALLS / 10 {
        f();
    }
    let start = Instant::now();
    for _ in 0..CALLS {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS)
}

/// Measure update/sample cost at [`JSON_DIMS`] and write `BENCH_nn.json`.
fn emit_bench_json() {
    let points: Vec<String> = JSON_DIMS
        .iter()
        .map(|&(name, components, actor_hidden)| {
            let config = ActorCriticConfig {
                actor_hidden: actor_hidden.to_vec(),
                ..ActorCriticConfig::default()
            };
            let mut agent = ActorCritic::new(2 * components, components, config);
            // Binary parent features, half of them set.
            let state: Vec<f64> = (0..2 * components).map(|i| (i % 2) as f64).collect();
            let action = agent.sample(&state);
            let sample_us = micros_per_call(|| {
                std::hint::black_box(agent.sample(std::hint::black_box(&state)));
            });
            let update_us = micros_per_call(|| {
                std::hint::black_box(agent.update(std::hint::black_box(&state), &action, 1.0));
            });
            format!(
                concat!(
                    "    {{\n",
                    "      \"dims\": \"{}\",\n",
                    "      \"state_dim\": {},\n",
                    "      \"actor_hidden\": {:?},\n",
                    "      \"action_dim\": {},\n",
                    "      \"update_us\": {:.1},\n",
                    "      \"sample_us\": {:.2}\n",
                    "    }}"
                ),
                name,
                2 * components,
                actor_hidden,
                components,
                update_us,
                sample_us,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"nn\",\n  \"points\": [\n{}\n  ]\n}}\n",
        points.join(",\n")
    );
    // CARGO_MANIFEST_DIR is crates/bench; the report lands at the workspace
    // root where CI picks it up.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_nn.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote BENCH_nn.json:\n{json}"),
        Err(e) => println!("could not write {path}: {e}\n{json}"),
    }
}

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

    emit_bench_json();
}

criterion_group!(benches, bench_nn);
criterion_main!(benches);
