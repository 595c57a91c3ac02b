//! Multi-tenant hub serving against its serial ground truth.
//!
//! Three pinned relationships:
//!
//! * **Concurrent == serial** — a recommendation served to callers racing
//!   on the hub is the very report (`Arc::ptr_eq`) a single request gets,
//!   for arbitrary request patterns and caller counts, and that report is
//!   the tenant's own serial recommendation.
//! * **Batch-split invariance** — splitting a tenant's ingest corpus into
//!   arbitrary order-preserving batches produces the same bootstrap
//!   recommendation as one monolithic feed.
//! * **Mid-relearn consistency** — requests racing a tenant's
//!   drift-triggered relearn are each served at a well-defined epoch:
//!   every answer is that epoch's serial recommendation — its plans and,
//!   for tenants that opted into the learned crossover agent, the reward
//!   curve of the agent the publish run trained — and other tenants are
//!   entirely unaffected.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use atlas::apps::{synthesize, CallGraphShape, SynthOptions, WorkloadGenerator, WorkloadShape};
use atlas::core::hub::{AdvisorHub, HubReport, TenantId};
use atlas::core::recommender::CrossoverStrategy;
use atlas::core::service::{AdvisorService, AdvisorServiceConfig};
use atlas::core::{AtlasConfig, MigrationPreferences, RecommendedPlan, RecommenderConfig};
use atlas::sim::{ClusterSpec, OverloadModel, Placement, SimConfig, Simulator};
use atlas::telemetry::{TelemetryStore, Trace, TraceId};

const DAY_S: u64 = 60;

/// A small synthetic tenant: its configuration, current placement and the
/// day-1 trace corpus (root-start ordered), ready to feed.
fn tenant_parts(seed: u64) -> (AdvisorServiceConfig, Placement, Vec<Trace>) {
    let options = SynthOptions {
        components: 12,
        shape: CallGraphShape::Layered,
        stateful_fraction: 0.2,
        apis: 2,
        call_depth: 3,
        data_scale: 1.0,
        workload: WorkloadShape::Diurnal,
        volume_scale: 1.0,
        site_count: 2,
        seed,
    };
    let scenario = synthesize(options).unwrap();
    let current = Placement::all_onprem(scenario.topology.component_count());
    let scratch = TelemetryStore::new();
    let mut workload = scenario.workload.clone();
    workload.profile.day_seconds = DAY_S;
    let sim = Simulator::new(
        scenario.topology.clone(),
        current.clone(),
        SimConfig {
            cluster: ClusterSpec::default(),
            overload: OverloadModel::disabled(),
            metric_window_s: 5,
            seed,
        },
    );
    let schedule = WorkloadGenerator::new(workload)
        .generate(&scenario.topology)
        .unwrap();
    sim.run(&schedule, &scratch);
    let mut corpus: Vec<Trace> = scratch
        .apis()
        .into_iter()
        .flat_map(|api| scratch.traces_for_api(&api))
        .collect();
    corpus.sort_by_key(|t| (t.root().start_us, t.trace_id));

    let mut atlas = AtlasConfig::new(scenario.component_index(), scenario.stateful_names());
    atlas.sites = Some(scenario.catalog.clone());
    atlas.traces_per_api = 15;
    atlas.horizon_steps = 4;
    atlas.recommender = RecommenderConfig {
        population: 8,
        max_visited: 30,
        ..RecommenderConfig::fast()
    };
    let preferences = MigrationPreferences::with_cpu_limit(scenario.burst_cpu_limit(5.0, 0.6));
    let mut config = AdvisorServiceConfig::new(atlas, preferences);
    config.min_detector_samples = 30;
    config.drift_window = 20;
    (config, current, corpus)
}

/// A fed (not yet bootstrapped) tenant service plus its corpus.
fn tenant(seed: u64) -> (AdvisorService, Vec<Trace>) {
    tenant_with(seed, CrossoverStrategy::Uniform)
}

/// [`tenant`] with the crossover operator its recommender asks for.
fn tenant_with(seed: u64, strategy: CrossoverStrategy) -> (AdvisorService, Vec<Trace>) {
    let (mut config, current, corpus) = tenant_parts(seed);
    config.atlas.recommender.strategy = strategy;
    let mut service = AdvisorService::new(config, current);
    service.feed(corpus.clone());
    (service, corpus)
}

/// Clone one API's traces as a later, slower day.
fn slow_replay(corpus: &[Trace], api: &str, offset_us: u64, factor: u64) -> Vec<Trace> {
    corpus
        .iter()
        .filter(|t| t.api() == api)
        .cloned()
        .map(|mut t| {
            t.trace_id = TraceId(t.trace_id.0 ^ (1 << 62));
            for node in &mut t.nodes {
                node.span.trace_id = t.trace_id;
                node.span.start_us += offset_us;
                node.span.duration_us *= factor;
            }
            t
        })
        .collect()
}

/// Shared serving fixture: a bootstrapped 3-tenant hub plus each tenant's
/// serial ground truth (one request at a time).
struct ServingFixture {
    hub: AdvisorHub,
    serial: Vec<HubReport>,
}

fn serving_fixture() -> &'static ServingFixture {
    static FIXTURE: OnceLock<ServingFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut hub = AdvisorHub::new();
        let mut serial = Vec::new();
        for seed in [31, 32, 33] {
            let id = hub.add_tenant(format!("tenant-{seed}"), tenant(seed).0);
            hub.bootstrap(id);
            let answer = hub.recommend(id, 1);
            // The hub's serial answer IS the tenant's own serial answer:
            // the report the service computed at bootstrap.
            hub.with_tenant(id, |s| {
                assert!(std::ptr::eq(&*answer.report, s.recommendation().unwrap()));
            });
            assert_eq!(answer.epoch, 1);
            serial.push(answer);
        }
        ServingFixture { hub, serial }
    })
}

/// Shared batch-split fixture: one tenant's parts plus the plans of a
/// monolithic single-batch feed + bootstrap.
struct SplitFixture {
    config: AdvisorServiceConfig,
    current: Placement,
    corpus: Vec<Trace>,
    monolithic_plans: Vec<RecommendedPlan>,
}

fn split_fixture() -> &'static SplitFixture {
    static FIXTURE: OnceLock<SplitFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (config, current, corpus) = tenant_parts(34);
        let mut service = AdvisorService::new(config.clone(), current.clone());
        service.feed(corpus.clone());
        service.bootstrap();
        let monolithic_plans = service.recommendation().unwrap().plans.clone();
        SplitFixture {
            config,
            current,
            corpus,
            monolithic_plans,
        }
    })
}

proptest! {
    /// Hub-concurrent == hub-serial: arbitrary request patterns over 1–3
    /// tenants, served to 1, 2 or 8 callers at once.
    #[test]
    fn concurrent_serving_matches_serial_ground_truth(
        pattern in prop::collection::vec(0usize..3, 1..7),
        callers_pick in 0usize..3,
    ) {
        let fixture = serving_fixture();
        let callers = [1usize, 2, 8][callers_pick];
        let requests: Vec<TenantId> = pattern.iter().map(|&i| TenantId(i)).collect();
        let served: Vec<Vec<HubReport>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..callers)
                .map(|_| scope.spawn(|| fixture.hub.serve(&requests, 1)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for reports in &served {
            prop_assert_eq!(reports.len(), requests.len());
            for (request, report) in requests.iter().zip(reports) {
                let serial = &fixture.serial[request.0];
                prop_assert_eq!(report.tenant, *request);
                prop_assert_eq!(report.epoch, 1);
                prop_assert!(Arc::ptr_eq(&report.report, &serial.report));
                prop_assert_eq!(&report.report.plans, &serial.report.plans);
                prop_assert_eq!(report.report.visited, serial.report.visited);
            }
        }
    }

    /// Splitting the ingest corpus into arbitrary order-preserving batches
    /// never changes the bootstrap recommendation.
    #[test]
    fn bootstrap_is_invariant_to_ingest_batch_splits(
        raw_cuts in prop::collection::vec(1usize..10_000, 0..4),
    ) {
        let fixture = split_fixture();
        let len = fixture.corpus.len();
        let mut cuts: Vec<usize> = raw_cuts.iter().map(|&c| c % len).collect();
        cuts.sort_unstable();
        cuts.dedup();
        cuts.retain(|&c| c > 0);

        let mut service = AdvisorService::new(fixture.config.clone(), fixture.current.clone());
        let mut start = 0usize;
        for &cut in &cuts {
            service.feed(fixture.corpus[start..cut].to_vec());
            start = cut;
        }
        service.feed(fixture.corpus[start..].to_vec());
        service.bootstrap();
        prop_assert_eq!(
            &service.recommendation().unwrap().plans,
            &fixture.monolithic_plans
        );
    }
}

/// A tenant relearning mid-flight never disturbs another tenant's
/// concurrent requests, and its own racing requests are each served at a
/// well-defined epoch whose answer matches that epoch's serial run — the
/// report of the snapshot the request took, even when the feed published
/// the next epoch right after. Both tenants opted into the learned
/// crossover agent, so each publish trains one, and an answer's reward
/// curve is that of its epoch's serial run too. (The forced version of
/// that interleaving is
/// `hub::tests::a_request_keeps_its_epoch_across_a_publish`.)
#[test]
fn mid_relearn_requests_stay_epoch_consistent() {
    let learned = CrossoverStrategy::ReinforcementLearning;
    let (drifting, corpus) = tenant_with(41, learned);
    let (steady, _) = tenant_with(42, learned);
    let mut hub = AdvisorHub::new();
    let a = hub.add_tenant("drifting", drifting);
    let b = hub.add_tenant("steady", steady);
    hub.bootstrap(a);
    hub.bootstrap(b);
    // A request reports the reward curve of the agent the service's own
    // run at that epoch trained.
    let trained_rewards = |t: TenantId| {
        hub.with_tenant(t, |s| {
            s.recommendation().unwrap().reward_progression.clone()
        })
    };
    let a_rewards1 = trained_rewards(a);
    assert!(
        !a_rewards1.is_empty(),
        "the tenants search with a learned agent"
    );
    let a_epoch1 = hub.recommend(a, 1);
    let b_epoch1 = hub.recommend(b, 1);

    let api = corpus[0].api().to_string();
    let drift = slow_replay(&corpus, &api, (DAY_S + 1) * 1_000_000, 5);

    let racing = std::thread::scope(|scope| {
        let hub = &hub;
        let racer = scope.spawn(move || {
            let mut reports = Vec::new();
            for _ in 0..4 {
                reports.push(hub.recommend(b, 1));
                reports.push(hub.recommend(a, 1));
            }
            reports
        });
        // Relearn tenant A while the racer keeps recommending both
        // tenants; feed_all exercises the parallel ingest path.
        hub.feed_all(vec![(a, drift)]);
        racer.join().unwrap()
    });

    assert_eq!(hub.published_epoch(a), Some(2), "the drift must relearn");
    assert_eq!(hub.published_epoch(b), Some(1));
    let a_epoch2 = hub.recommend(a, 1);
    let a_plans2 = hub.with_tenant(a, |s| {
        assert!(std::ptr::eq(&*a_epoch2.report, s.recommendation().unwrap()));
        s.recommendation().unwrap().plans.clone()
    });
    let a_rewards2 = trained_rewards(a);
    assert!(!Arc::ptr_eq(&a_epoch2.report, &a_epoch1.report));

    for report in racing {
        if report.tenant == b {
            assert_eq!(report.epoch, 1, "tenant B never relearned");
            assert!(Arc::ptr_eq(&report.report, &b_epoch1.report));
        } else {
            let (epoch, plans, rewards) = match report.epoch {
                1 => (&a_epoch1, &a_epoch1.report.plans, &a_rewards1),
                2 => (&a_epoch2, &a_plans2, &a_rewards2),
                epoch => panic!("request served at impossible epoch {epoch}"),
            };
            assert!(Arc::ptr_eq(&report.report, &epoch.report));
            assert_eq!(&report.report.plans, plans);
            assert_eq!(&report.report.reward_progression, rewards);
        }
    }

    // After the dust settles, serving A matches its new serial ground truth.
    for report in hub.serve(&[a, a], 1) {
        assert_eq!(report.epoch, 2);
        assert!(Arc::ptr_eq(&report.report, &a_epoch2.report));
    }
}
