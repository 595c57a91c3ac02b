//! Hotel-reservation scenario: the paper's second application (Figure 10).
//!
//! Learns the hotel reservation system, asks Atlas for recommendations under
//! a tight on-prem budget with the reservation database pinned on-prem, and
//! walks the hierarchical plan-selection dendrogram of paper §4.2.2
//! (Figure 8): coarse clusters first, then representatives, then the leaves.
//!
//! Run with `cargo run --example hotel_reservation`.

use atlas::apps::{hotel_reservation, WorkloadGenerator, WorkloadOptions};
use atlas::core::{Atlas, AtlasConfig, MigrationPreferences, RecommenderConfig};
use atlas::sim::{ClusterSpec, OverloadModel, Placement, SimConfig, Simulator, SiteId};
use atlas::telemetry::TelemetryStore;

fn main() {
    // 1. Simulate the learning period.
    let app = hotel_reservation();
    let current = Placement::all_onprem(app.component_count());
    let store = TelemetryStore::new();
    let sim = Simulator::new(
        app.clone(),
        current.clone(),
        SimConfig {
            cluster: ClusterSpec::default(),
            overload: OverloadModel::disabled(),
            metric_window_s: 5,
            seed: 5,
        },
    );
    let schedule = WorkloadGenerator::new(WorkloadOptions::hotel_reservation_default())
        .generate(&app)
        .expect("workload matches the app");
    sim.run(&schedule, &store);

    // 2. Application learning.
    let component_index: Vec<String> = app.components().iter().map(|c| c.name.clone()).collect();
    let stateful: Vec<String> = app
        .stateful_components()
        .into_iter()
        .map(|c| app.component_name(c).to_string())
        .collect();
    let mut config = AtlasConfig::new(component_index, stateful);
    config.recommender = RecommenderConfig::fast();
    config.expected_traffic_scale = 5.0;
    let mut atlas = Atlas::new(config);
    atlas.learn(&store);

    // 3. Recommendation: reservations (bookings) must stay on-prem and the
    //    burst no longer fits in 5 on-prem cores.
    let preferences = MigrationPreferences::with_cpu_limit(5.0)
        .pin(app.component_id("ReserveMongoDB").unwrap(), SiteId::ON_PREM)
        .pin(app.component_id("UserMongoDB").unwrap(), SiteId::ON_PREM)
        .critical("/reservationAPI");
    let report = atlas.recommend(current, preferences);
    println!(
        "Atlas found {} Pareto-optimal plans after visiting {} candidates",
        report.plans.len(),
        report.visited
    );

    // 4. Hierarchical selection (paper Figure 8): show 2-3 coarse clusters
    //    with a representative plan each, then the chosen cluster's leaves.
    let dendrogram = atlas.organize(&report);
    let points: Vec<Vec<f64>> = report
        .plans
        .iter()
        .map(|p| p.quality.objectives().to_vec())
        .collect();
    let clusters = dendrogram.cut(3.min(report.plans.len()));
    let representatives = dendrogram.representatives(&points, 3.min(report.plans.len()));
    println!("\nHigh-level clusters (choose one):");
    for (i, (cluster, rep)) in clusters.iter().zip(&representatives).enumerate() {
        let q = &report.plans[*rep].quality;
        println!(
            "  cluster {i}: {} plans, representative: q_perf={:.2} q_avai={:.1} cost=${:.2}",
            cluster.len(),
            q.performance,
            q.availability,
            q.cost
        );
    }
    println!("\nAll recommended plans (leaves):");
    for (i, plan) in report.plans.iter().enumerate() {
        let offloaded: Vec<&str> = plan
            .plan
            .cloud_components()
            .into_iter()
            .map(|c| app.component_name(c))
            .collect();
        println!(
            "  plan {i}: q_perf={:.2} q_avai={:.1} cost=${:.2} offload={:?}",
            plan.quality.performance, plan.quality.availability, plan.quality.cost, offloaded
        );
    }
    println!("\nEstimated /reservationAPI latency of the performance-optimized plan:");
    let best = report.performance_optimized().expect("plans");
    let quality = atlas.quality_model(
        Placement::all_onprem(app.component_count()),
        MigrationPreferences::default(),
    );
    println!(
        "  {:.1} ms (currently {:.1} ms)",
        quality.estimate_api_latency_ms("/reservationAPI", &best.plan),
        atlas.profile().apis["/reservationAPI"].mean_latency_ms
    );
}
