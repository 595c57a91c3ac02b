//! Delay-injection throughput: how quickly Atlas previews API latency.
use atlas_bench::{Experiment, ExperimentOptions};
use atlas_core::MigrationPlan;
use atlas_sim::Placement;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_delay(c: &mut Criterion) {
    let exp = Experiment::set_up(ExperimentOptions::quick());
    let plan = MigrationPlan::new(Placement::all_cloud(29));
    let mut group = c.benchmark_group("delay_injection");
    group.sample_size(20);
    group.bench_function("estimate_compose_latency", |b| {
        b.iter(|| {
            exp.quality
                .estimate_api_latency_ms(std::hint::black_box("/composeAPI"), &plan)
        })
    });
    group.bench_function("q_perf_all_apis", |b| {
        b.iter(|| exp.quality.performance(std::hint::black_box(&plan)))
    });
    group.finish();
}

criterion_group!(benches, bench_delay);
criterion_main!(benches);
