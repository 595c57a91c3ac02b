//! Synthetic scale: run the whole advisor stack — Atlas *and* the baselines —
//! on a procedurally generated 100-component application.
//!
//! The paper's evaluation stops at two hand-built ~30-component apps; the
//! scenario generator goes far beyond them. This example generates a
//! 100-component mesh with a flash-crowd workload, learns it from simulated
//! telemetry, and compares Atlas against every baseline advisor on the same
//! preferences.
//!
//! Run with `cargo run --release --example synthetic_scale`.

use atlas::apps::{synthesize, CallGraphShape, SynthOptions, WorkloadGenerator, WorkloadShape};
use atlas::baselines::{
    AffinityGaAdvisor, BaselineContext, GreedyAdvisor, IntMaAdvisor, RandomSearchAdvisor,
    RemapAdvisor,
};
use atlas::cloud::{ResourceEstimator, ScalingEstimator};
use atlas::core::{Atlas, AtlasConfig, MigrationPreferences, RecommenderConfig};
use atlas::sim::{
    ClusterSpec, OverloadModel, Placement, SimConfig, Simulator, SiteCatalog, SiteId,
};
use atlas::telemetry::TelemetryStore;

fn main() {
    // 1. Generate the scenario: 100 components, mesh call graphs, a flash
    //    crowd on top of the diurnal curve.
    let scenario = synthesize(SynthOptions {
        components: 100,
        shape: CallGraphShape::Mesh,
        stateful_fraction: 0.25,
        apis: 10,
        call_depth: 5,
        data_scale: 1.0,
        workload: WorkloadShape::FlashCrowd {
            day: 0,
            at: 0.6,
            width: 0.02,
            magnitude: 5.0,
        },
        site_count: 2,
        volume_scale: 1.0,
        seed: 2024,
    })
    .expect("options are valid");
    let app = &scenario.topology;
    println!(
        "generated {}: {} components ({} stateful), {} APIs",
        app.name,
        app.component_count(),
        app.stateful_components().len(),
        app.api_count()
    );

    // 2. Simulate the learning period and learn, exactly like the seed apps.
    let n = app.component_count();
    let current = Placement::all_onprem(n);
    let mut workload = scenario.workload.clone();
    workload.profile.day_seconds = 120; // compressed day keeps the example fast
    let schedule = WorkloadGenerator::new(workload)
        .generate(app)
        .expect("paired workload matches the topology");
    let store = TelemetryStore::new();
    Simulator::new(
        app.clone(),
        current.clone(),
        SimConfig {
            cluster: ClusterSpec::default(),
            overload: OverloadModel::disabled(),
            metric_window_s: 5,
            seed: 9,
        },
    )
    .run(&schedule, &store);
    println!(
        "simulated {} requests, {} traces collected",
        schedule.len(),
        store.trace_count()
    );

    let mut config = AtlasConfig::new(scenario.component_index(), scenario.stateful_names());
    config.recommender = RecommenderConfig {
        max_visited: 1_500,
        ..RecommenderConfig::fast()
    };
    config.traces_per_api = 30;
    config.horizon_steps = 8;
    let mut atlas = Atlas::new(config);
    atlas.learn(&store);

    // 3. Preferences: the burst demand must not keep more than 60 % of its
    //    peak on-prem, and the first store holds pinned user data.
    let cpu_limit = scenario.burst_cpu_limit(5.0, 0.6);
    let pinned = app.component_id("Store000").expect("first store exists");
    let preferences = MigrationPreferences::with_cpu_limit(cpu_limit).pin(pinned, SiteId::ON_PREM);

    // 4. Atlas recommendations.
    let report = atlas.recommend(current, preferences.clone());
    println!(
        "\nAtlas: {} Pareto-optimal plans, {} unique evaluations, \
         cache hit rate {:.2}",
        report.plans.len(),
        report.eval.unique_evaluations,
        report.eval.cache_hit_rate()
    );
    if let Some(best) = report.performance_optimized() {
        println!(
            "  performance-optimized plan offloads {} components (Q_Perf {:.3})",
            best.plan.cloud_components().len(),
            best.quality.performance
        );
    }

    // 5. Every baseline runs on the same generated scenario.
    let learned_demand =
        ScalingEstimator::with_scale(5.0).estimate(&store, &scenario.component_index(), 8, 600);
    let ctx = BaselineContext::from_store(
        &store,
        scenario.component_index(),
        learned_demand,
        preferences,
        &SiteCatalog::default(),
    );
    let quality = atlas.quality_model(Placement::all_onprem(n), ctx.preferences.clone());
    let summarize = |name: &str, plans: Vec<atlas::core::MigrationPlan>| {
        let best = plans
            .iter()
            .map(|p| quality.evaluate(p))
            .filter(|q| q.feasible)
            .map(|q| q.performance)
            .fold(f64::INFINITY, f64::min);
        println!(
            "  {name:<22} plans={:<3} best Q_Perf={best:.3}",
            plans.len()
        );
    };
    summarize(
        "greedy (largest)",
        vec![GreedyAdvisor::largest_first().recommend(&ctx)],
    );
    summarize("REMaP", vec![RemapAdvisor.recommend(&ctx)]);
    summarize("IntMA", vec![IntMaAdvisor.recommend(&ctx)]);
    summarize("affinity GA", AffinityGaAdvisor::fast().recommend(&ctx));
    summarize("random search", RandomSearchAdvisor::fast().recommend(&ctx));
}
