//! Scale sweep over procedurally generated scenarios (beyond the paper):
//! how the recommendation pipeline behaves as the application grows from 25
//! to 500 components.
//!
//! The paper's evaluation stops at the two ~30-component DeathStarBench
//! applications; this figure stresses every stage of the pipeline — scenario
//! generation, simulation, learning, cached/batched plan evaluation, the
//! DRL-GA search — on synthetic layered applications of increasing size, and
//! writes the machine-readable `BENCH_scale.json` at the workspace root.
//!
//! Run with `cargo run --release -p atlas-bench --bin fig_scale`; narrow the
//! sweep with `ATLAS_SCALE_COMPONENTS=25,50`.

use atlas_bench::print_row;
use atlas_bench::scale::{run_sweep, sizes_from_env, write_scale_json};

fn main() {
    println!("Scale sweep: Atlas end-to-end on generated scenarios");
    println!("----------------------------------------------------");
    let points = run_sweep(&sizes_from_env());
    for p in &points {
        print_row(
            &format!(
                "{} components / {} sites / {:.0}x volume",
                p.components, p.sites, p.volume_scale
            ),
            &[
                ("apis", p.apis as f64),
                ("recommend_ms", p.recommend_ms),
                ("evals_per_sec", p.evals_per_sec),
                ("delta_scored", p.delta_scored as f64),
                ("lane_scored", p.lane_scored as f64),
                ("scalar_evals_per_sec", p.scalar_evals_per_sec),
                ("batch_evals_per_sec", p.batch_evals_per_sec),
                ("delta_probe_evals_per_sec", p.delta_probe_evals_per_sec),
                ("search_evals_per_sec", p.search_evals_per_sec),
                ("ingest_traces_per_sec", p.ingest_traces_per_sec),
                ("learn_ms", p.learn_ms),
                ("learn_speedup", p.learn_speedup),
                ("distinct_trace_ratio", p.distinct_trace_ratio),
                ("cache_hit_rate", p.cache_hit_rate),
                ("plans", p.plans as f64),
                ("front_size", p.front_size as f64),
            ],
        );
    }
    write_scale_json(&points);
    println!(
        "\nRecommendations stay end-to-end viable as the component count grows \
         an order of magnitude past the paper's applications."
    );
}
