//! Failure-injection and degenerate-input integration tests: the advisor
//! must degrade gracefully when the telemetry is thin, the constraints are
//! unsatisfiable, or the cluster is saturated.

use atlas::apps::{social_network, SocialNetworkOptions, WorkloadGenerator, WorkloadOptions};
use atlas::core::{
    AdvisorService, Atlas, AtlasConfig, FootprintLearner, MigrationPlan, MigrationPreferences,
    RecommenderConfig,
};
use atlas::sim::{
    ClusterSpec, OverloadModel, Placement, RequestSchedule, SimConfig, Simulator, SiteId,
};
use atlas::telemetry::{Direction, MetricKind, TelemetryStore};
use atlas_bench::golden::{check, front_text};
use atlas_bench::scenario::{self, Scenario};
use atlas_bench::{copy_context, resident};

fn small_recommender() -> RecommenderConfig {
    RecommenderConfig {
        population: 16,
        max_visited: 300,
        ..RecommenderConfig::fast()
    }
}

/// An overloaded on-prem cluster drops requests; the telemetry collected
/// under duress must still be learnable.
#[test]
fn learning_survives_an_overloaded_collection_period() {
    let app = social_network(SocialNetworkOptions::default());
    let store = TelemetryStore::new();
    let sim = Simulator::new(
        app.clone(),
        Placement::all_onprem(app.component_count()),
        SimConfig {
            cluster: ClusterSpec::small(4.0), // far too small for the workload
            overload: OverloadModel::default(),
            metric_window_s: 5,
            seed: 91,
        },
    );
    let schedule = WorkloadGenerator::new(WorkloadOptions::social_network_default().with_seed(91))
        .generate(&app)
        .unwrap();
    let report = sim.run(&schedule, &store);
    assert!(
        report.failed_count() > 0,
        "the tiny cluster must drop requests"
    );
    assert!(
        store.trace_count() > 0,
        "surviving requests still produce traces"
    );

    let component_index: Vec<String> = app.components().iter().map(|c| c.name.clone()).collect();
    let stateful: Vec<String> = app
        .stateful_components()
        .into_iter()
        .map(|c| app.component_name(c).to_string())
        .collect();
    let mut config = AtlasConfig::new(component_index, stateful);
    config.recommender = small_recommender();
    config.traces_per_api = 20;
    config.horizon_steps = 6;
    let mut atlas = Atlas::new(config);
    atlas.learn(&store);
    assert!(atlas.is_learned());
    assert!(!atlas.profile().apis.is_empty());
}

/// With an empty telemetry store the learning stage produces empty profiles
/// and the footprint learner returns nothing, without panicking.
#[test]
fn empty_telemetry_is_handled_gracefully() {
    let store = TelemetryStore::new();
    let footprint = FootprintLearner::default().learn(&store);
    assert!(footprint.is_empty());

    let mut config = AtlasConfig::new(vec!["A".to_string(), "B".to_string()], vec![]);
    config.recommender = small_recommender();
    config.horizon_steps = 4;
    let mut atlas = Atlas::new(config);
    atlas.learn(&store);
    assert!(atlas.profile().apis.is_empty());
    assert_eq!(atlas.demand().component_count(), 2);
}

/// Contradictory constraints (everything pinned on-prem but the on-prem
/// cluster cannot hold the demand) leave no feasible plan; the recommender
/// must still terminate and report only what it found.
#[test]
fn unsatisfiable_constraints_do_not_hang_the_recommender() {
    let app = social_network(SocialNetworkOptions::default());
    let store = TelemetryStore::new();
    let current = Placement::all_onprem(app.component_count());
    let sim = Simulator::new(
        app.clone(),
        current.clone(),
        SimConfig {
            cluster: ClusterSpec::default(),
            overload: OverloadModel::disabled(),
            metric_window_s: 5,
            seed: 92,
        },
    );
    let schedule = WorkloadGenerator::new(WorkloadOptions::social_network_default().with_seed(92))
        .generate(&app)
        .unwrap();
    sim.run(&schedule, &store);

    let component_index: Vec<String> = app.components().iter().map(|c| c.name.clone()).collect();
    let stateful: Vec<String> = app
        .stateful_components()
        .into_iter()
        .map(|c| app.component_name(c).to_string())
        .collect();
    let mut config = AtlasConfig::new(component_index, stateful);
    config.recommender = small_recommender();
    config.horizon_steps = 6;
    let mut atlas = Atlas::new(config);
    atlas.learn(&store);

    // Pin every component on-prem and demand an impossible CPU limit.
    let mut preferences = MigrationPreferences::with_cpu_limit(0.5);
    for i in 0..app.component_count() {
        preferences = preferences.pin(atlas::sim::ComponentId(i), SiteId::ON_PREM);
    }
    let report = atlas.recommend(current.clone(), preferences.clone());
    // Nothing can be feasible: the recommender falls back to the final
    // population's front, and every plan of it is marked infeasible.
    assert!(!report.plans.is_empty());
    check("unsatisfiable.txt", &front_text(&report));
    let quality = atlas.quality_model(current, preferences);
    for plan in &report.plans {
        assert!(!quality.is_feasible(&plan.plan));
    }
}

/// A quality model built from one placement still evaluates plans of the
/// correct size only; the simulator rejects schedules for unknown APIs.
#[test]
fn unknown_apis_in_the_schedule_fail_without_corrupting_telemetry() {
    let app = social_network(SocialNetworkOptions::default());
    let store = TelemetryStore::new();
    let sim = Simulator::new(
        app.clone(),
        Placement::all_onprem(app.component_count()),
        SimConfig {
            cluster: ClusterSpec::default(),
            overload: OverloadModel::disabled(),
            metric_window_s: 5,
            seed: 93,
        },
    );
    let mut schedule = RequestSchedule::new();
    schedule.push(0, "/loginAPI");
    schedule.push(100_000, "/doesNotExist");
    schedule.push(200_000, "/composeAPI");
    let report = sim.run(&schedule, &store);
    assert_eq!(report.failed_count(), 1);
    assert_eq!(report.success_count(), 2);
    assert_eq!(store.trace_count(), 2);
    assert_eq!(store.apis(), vec!["/composeAPI", "/loginAPI"]);
}

/// The availability model only charges APIs whose stateful dependencies
/// actually move, even when many stateless components are offloaded.
#[test]
fn offloading_only_stateless_components_causes_no_disruption() {
    let app = social_network(SocialNetworkOptions::default());
    let store = TelemetryStore::new();
    let current = Placement::all_onprem(app.component_count());
    let sim = Simulator::new(
        app.clone(),
        current.clone(),
        SimConfig {
            cluster: ClusterSpec::default(),
            overload: OverloadModel::disabled(),
            metric_window_s: 5,
            seed: 94,
        },
    );
    let schedule = WorkloadGenerator::new(WorkloadOptions::social_network_default().with_seed(94))
        .generate(&app)
        .unwrap();
    sim.run(&schedule, &store);

    let component_index: Vec<String> = app.components().iter().map(|c| c.name.clone()).collect();
    let stateful: Vec<String> = app
        .stateful_components()
        .into_iter()
        .map(|c| app.component_name(c).to_string())
        .collect();
    let mut config = AtlasConfig::new(component_index, stateful);
    config.recommender = small_recommender();
    config.horizon_steps = 6;
    let mut atlas = Atlas::new(config);
    atlas.learn(&store);
    let quality = atlas.quality_model(current, MigrationPreferences::default());

    let mut plan = MigrationPlan::all_onprem(app.component_count());
    for name in [
        "TextService",
        "UniqueIDService",
        "WriteHomeTimelineService",
        "HomeTimelineRedis",
        "UserMemcached",
    ] {
        plan.set(app.component_id(name).unwrap(), SiteId::CLOUD);
    }
    assert_eq!(quality.availability(&plan), 0.0);

    // Moving a MongoDB immediately disrupts the APIs that use it.
    plan.set(
        app.component_id("UserTimelineMongoDB").unwrap(),
        SiteId::CLOUD,
    );
    assert!(quality.availability(&plan) >= 1.0);
}

/// The benchmark's resident scenario (100 components, 2 sites, seed 11)
/// with its day-1 context in a fresh service, then `fault` applied to the
/// store, then the day's traces fed and bootstrapped: the bootstrap front.
fn resident_front(fault: impl FnOnce(&Scenario, &TelemetryStore)) -> String {
    const SEED: u64 = 11;
    let sc = scenario::build(&resident::SHAPE, SEED);
    let config = resident::service_config(&sc, &resident::SHAPE, SEED);
    let mut service = AdvisorService::new(config, scenario::current_placement(&sc.scenario));
    copy_context(&sc.day1.source, service.store(), 0);
    fault(&sc, service.store());
    for batch in scenario::batches(&sc.day1.corpus, 8) {
        service.feed(batch);
    }
    service.bootstrap();
    let report = service.recommendation().expect("a bootstrap recommends");
    front_text(report)
}

/// One NaN, infinite or negative scrape sample is dropped at the store, so
/// it can neither panic the bootstrap (a NaN byte count would reach the
/// search's crowding distance) nor move its front (a NaN CPU or storage
/// sample on a stateless component would change the learned demand).
#[test]
fn a_non_finite_scrape_sample_leaves_the_bootstrap_front_unchanged() {
    let clean = resident_front(|_, _| {});
    // `None` is the request bytes of one traffic edge.
    for metric in [
        None,
        Some(MetricKind::CpuCores),
        Some(MetricKind::StorageGb),
    ] {
        let front = resident_front(|sc, store| {
            let edge = &store.traffic_edges()[0];
            let component = &sc.scenario.component_index()[0];
            for bad in [f64::NAN, f64::INFINITY, -1.0] {
                let accepted = match metric {
                    None => store.record_traffic(&edge.from, &edge.to, Direction::Request, 59, bad),
                    Some(kind) => store.record_metric(component, kind, 59, bad),
                };
                assert!(!accepted, "{metric:?} = {bad} must be rejected");
            }
        });
        assert_eq!(front, clean, "a bad {metric:?} sample moved the front");
    }
}

/// A scrape pipeline may deliver samples late. Replaying a day's metric and
/// traffic context newest-first builds the same series as replaying it in
/// time order, and a late sample does not take the service down.
#[test]
fn late_scrape_samples_land_at_their_time_position() {
    let sc = scenario::build(&resident::SHAPE, 11);
    let in_order = TelemetryStore::new();
    copy_context(&sc.day1.source, &in_order, 0);

    let reversed = TelemetryStore::new();
    let source = &sc.day1.source;
    for component in source.components() {
        let Some(metrics) = source.component_metrics(&component) else {
            continue;
        };
        for kind in MetricKind::ALL {
            for p in metrics
                .series(kind)
                .map_or(&[][..], |s| s.points())
                .iter()
                .rev()
            {
                reversed.record_metric(&component, kind, p.timestamp_s, p.value);
            }
        }
    }
    let traffic = source.traffic();
    for edge in traffic.edges().iter().rev() {
        for direction in [Direction::Response, Direction::Request] {
            for s in traffic.samples(edge, direction).unwrap_or(&[]).iter().rev() {
                reversed.record_traffic(&edge.from, &edge.to, direction, s.timestamp_s, s.bytes);
            }
        }
    }
    assert_eq!(reversed.traffic(), in_order.traffic());
    assert_eq!(reversed.components(), in_order.components());
    for component in in_order.components() {
        assert_eq!(
            reversed.component_metrics(&component),
            in_order.component_metrics(&component),
            "{component}"
        );
    }

    // One late CPU and traffic sample, after the whole day's context.
    let front = resident_front(|sc, store| {
        let component = &sc.scenario.component_index()[0];
        assert!(store.record_metric(component, MetricKind::CpuCores, 30, 0.5));
        let edge = &store.traffic_edges()[0];
        assert!(store.record_traffic(&edge.from, &edge.to, Direction::Request, 30, 100.0));
    });
    assert!(!front.is_empty());
}
