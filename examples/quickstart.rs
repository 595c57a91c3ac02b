//! Quickstart: learn an application from telemetry and ask Atlas for
//! migration recommendations.
//!
//! Run with `cargo run --example quickstart`.

use atlas::apps::{social_network, SocialNetworkOptions, WorkloadGenerator, WorkloadOptions};
use atlas::core::{Atlas, AtlasConfig, MigrationPreferences, RecommenderConfig};
use atlas::sim::{ClusterSpec, OverloadModel, Placement, SimConfig, Simulator};
use atlas::telemetry::TelemetryStore;

fn main() {
    // 1. A microservice application instrumented with tracing + metrics.
    //    Here: the DeathStarBench-like social network on the simulator.
    let app = social_network(SocialNetworkOptions::default());
    let current = Placement::all_onprem(app.component_count());
    let store = TelemetryStore::new();
    let sim = Simulator::new(
        app.clone(),
        current.clone(),
        SimConfig {
            cluster: ClusterSpec::default(),
            overload: OverloadModel::disabled(),
            metric_window_s: 5,
            seed: 1,
        },
    );
    let schedule = WorkloadGenerator::new(WorkloadOptions::social_network_default())
        .generate(&app)
        .expect("workload matches the app");
    sim.run(&schedule, &store);
    println!(
        "collected {} traces across {} APIs",
        store.trace_count(),
        store.apis().len()
    );

    // 2. Application learning.
    let component_index: Vec<String> = app.components().iter().map(|c| c.name.clone()).collect();
    let stateful: Vec<String> = app
        .stateful_components()
        .into_iter()
        .map(|c| app.component_name(c).to_string())
        .collect();
    let mut config = AtlasConfig::new(component_index, stateful);
    config.recommender = RecommenderConfig::fast();
    let mut atlas = Atlas::new(config);
    atlas.learn(&store);

    // 3. Ask for recommendations: the on-prem cluster can only keep 14 cores
    //    during the expected 5x burst, and user data must stay on-prem.
    let preferences = MigrationPreferences::with_cpu_limit(14.0)
        .pin(
            app.component_id("UserMongoDB").unwrap(),
            atlas::sim::SiteId::ON_PREM,
        )
        .critical("/composeAPI");
    let report = atlas.recommend(current, preferences);
    println!(
        "Atlas recommends {} Pareto-optimal plans:",
        report.plans.len()
    );
    for (i, plan) in report.plans.iter().enumerate() {
        let moved: Vec<&str> = plan
            .plan
            .cloud_components()
            .into_iter()
            .map(|c| app.component_name(c))
            .collect();
        println!(
            "  plan {i}: q_perf={:.2} q_avai={:.1} cost=${:.2}  offload {:?}",
            plan.quality.performance, plan.quality.availability, plan.quality.cost, moved
        );
    }
    let stats = report.eval;
    println!(
        "evaluated {} unique plans ({} cache hits, {:.0}% hit rate) at {:.0} plans/s on {} thread(s)",
        stats.unique_evaluations,
        stats.cache_hits,
        stats.cache_hit_rate() * 100.0,
        stats.evaluations_per_sec(),
        stats.threads,
    );
}
