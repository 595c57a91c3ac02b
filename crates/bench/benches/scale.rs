//! Scale of the recommendation pipeline on procedurally generated scenarios:
//! recommend wall time, evaluation throughput and cache behaviour as the
//! component count grows (25 → 500 by default).
//!
//! Besides the criterion-style timing of the smallest size, this bench runs
//! the full sweep and emits the machine-readable `BENCH_scale.json` at the
//! workspace root (one entry per component count) so CI can track the scale
//! trajectory across PRs next to `BENCH_recommender.json`. Override the
//! sweep with `ATLAS_SCALE_COMPONENTS=25,50` (CI runs the smallest size
//! only).

use atlas_bench::scale::{run_scale_point, run_sweep, sizes_from_env, write_scale_json};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_scale(c: &mut Criterion) {
    let sizes = sizes_from_env();

    let mut group = c.benchmark_group("scale");
    group.sample_size(10);
    let smallest = *sizes.iter().min().expect("at least one size");
    group.bench_function("recommend_smallest_size_end_to_end", |b| {
        b.iter(|| run_scale_point(std::hint::black_box(smallest)))
    });
    group.finish();

    let points = run_sweep(&sizes);
    for p in &points {
        println!(
            "scale: {:>3} components  {} sites  {:>4.0}x volume  {:>4} apis  \
             recommend {:>8.1} ms  {:>6.1} evals/s ({} delta / {} lane)  \
             learn {:>7.2} ms ({:>5.1}x vs vec)  cache hit rate {:.2}  {} plans",
            p.components,
            p.sites,
            p.volume_scale,
            p.apis,
            p.recommend_ms,
            p.evals_per_sec,
            p.delta_scored,
            p.lane_scored,
            p.learn_ms,
            p.learn_speedup,
            p.cache_hit_rate,
            p.plans
        );
    }
    let json = write_scale_json(&points);
    println!("{json}");
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
