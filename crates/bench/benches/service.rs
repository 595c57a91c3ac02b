//! Resident-advisor service bench: stream a generated scenario's day into
//! an [`atlas_core::AdvisorService`] with a drift corpus spliced mid-way,
//! and measure ingest throughput, drift-to-new-recommendation latency and
//! the incremental-vs-cold relearn speedup. A second sweep serves a
//! round-robin request pattern through a multi-tenant [`atlas_core::AdvisorHub`]
//! — serial loop vs concurrent worker pool at 1/2/8 per-request evaluator
//! threads, each figure the median of five `serve` calls over a pattern
//! sized to keep one call measurable — measuring requests/second, p50/p99
//! latency, scaling efficiency and the per-epoch training time the requests
//! no longer pay, while checking bit-identical answers.
//!
//! The sweeps (defaults: the 100-component acceptance point and the
//! 4-tenant serving grid; override with `ATLAS_SERVICE_COMPONENTS=25,100`
//! and `ATLAS_SERVING_TENANTS=2,4`) emit the machine-readable
//! `BENCH_service.json` at the workspace root so CI can track the service
//! trajectory across PRs next to `BENCH_scale.json`.

use atlas_bench::service::{
    run_service_point, run_serving_grid, service_sizes_from_env, serving_tenants_from_env,
    write_service_json,
};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_service(c: &mut Criterion) {
    let sizes = service_sizes_from_env();

    let mut group = c.benchmark_group("service");
    group.sample_size(10);
    let smallest = *sizes.iter().min().expect("at least one size");
    group.bench_function("service_day_replay_smallest_size", |b| {
        b.iter(|| run_service_point(std::hint::black_box(smallest)))
    });
    group.finish();

    let points: Vec<_> = sizes.iter().map(|&n| run_service_point(n)).collect();
    for p in &points {
        println!(
            "service: {:>3} components  {} sites  {:>4} apis  \
             ingest {:>9.0} traces/s  drift→rec {:>7.1} ms (train {:.1} ms)  \
             relearn {:>6.2} ms vs cold {:>7.2} ms ({:>5.1}x)  \
             {} drift apis  {} evicted",
            p.components,
            p.sites,
            p.apis,
            p.ingest_traces_per_sec,
            p.drift_to_recommendation_ms,
            p.train_ms,
            p.incremental_relearn_ms,
            p.cold_relearn_ms,
            p.relearn_speedup,
            p.drift_apis,
            p.evicted_traces
        );
    }

    // Concurrent-serving grid: the largest day-replay size carries the
    // acceptance point (100 components by default; CI narrows both sweeps
    // via the env overrides).
    let serving_components = *sizes.iter().max().expect("at least one size");
    let mut serving = Vec::new();
    for tenants in serving_tenants_from_env() {
        serving.extend(run_serving_grid(serving_components, tenants));
    }
    for s in &serving {
        println!(
            "serving: {:>3} components  {} tenants  {} req  rt={}  workers={}  \
             serial {:>6.1} req/s  concurrent {:>6.1} req/s ({:.2}x, eff {:.2})  \
             p50 {:>6.2} ms  p99 {:>6.2} ms  train/epoch {:.1} ms  {}",
            s.components,
            s.tenants,
            s.requests,
            s.request_threads,
            s.workers,
            s.serial_requests_per_sec,
            s.concurrent_requests_per_sec,
            s.speedup_vs_serial,
            s.scaling_efficiency,
            s.p50_latency_ms,
            s.p99_latency_ms,
            s.train_ms,
            if s.deterministic {
                "deterministic"
            } else {
                "DIVERGED"
            }
        );
    }

    let json = write_service_json(&points, &serving);
    println!("{json}");
}

criterion_group!(benches, bench_service);
criterion_main!(benches);
