//! Cross-crate integration tests: the full Atlas loop on both applications.
//!
//! The fronts these tests pin are recorded as text under `tests/golden/`
//! (see `atlas_bench::golden`), so a change that claims "fronts did not
//! move" is checked by `cargo test -q`, and one that moves a front on
//! purpose shows how in the diff of those files.

use atlas::apps::{
    hotel_reservation, social_network, synthesize, synthesize_drift_phase, CallGraphShape,
    SocialNetworkOptions, SynthOptions, WorkloadGenerator, WorkloadOptions,
};
use atlas::baselines::{AffinityGaAdvisor, BaselineContext};
use atlas::cloud::{PricingModel, ResourceDemand};
use atlas::core::{
    AdvisorService, AdvisorServiceConfig, Atlas, AtlasConfig, DriftDetector, MigrationPlan,
    MigrationPreferences, Recommender, RecommenderConfig, ServiceEvent,
};
use atlas::sim::{
    AppTopology, ClusterSpec, OverloadModel, Placement, SimConfig, Simulator, SiteCatalog, SiteId,
    SiteNetwork, SiteSpec,
};
use atlas::telemetry::{Direction, TelemetryStore, Trace};
use atlas_bench::golden::{check, front_text, sites_text};
use atlas_bench::{copy_context, corpus_of, shift_corpus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One simulated day of `app` under `workload`, all on-prem, overload off.
fn simulate(app: &AppTopology, workload: WorkloadOptions, seed: u64) -> TelemetryStore {
    let store = TelemetryStore::new();
    let sim = Simulator::new(
        app.clone(),
        Placement::all_onprem(app.component_count()),
        SimConfig {
            cluster: ClusterSpec::default(),
            overload: OverloadModel::disabled(),
            metric_window_s: 5,
            seed,
        },
    );
    let schedule = WorkloadGenerator::new(workload.with_seed(seed))
        .generate(app)
        .expect("workload matches the app");
    sim.run(&schedule, &store);
    store
}

fn learn(
    app: &AppTopology,
    workload: WorkloadOptions,
    seed: u64,
) -> (Atlas, Placement, TelemetryStore) {
    let current = Placement::all_onprem(app.component_count());
    let store = simulate(app, workload, seed);
    let component_index: Vec<String> = app.components().iter().map(|c| c.name.clone()).collect();
    let stateful: Vec<String> = app
        .stateful_components()
        .into_iter()
        .map(|c| app.component_name(c).to_string())
        .collect();
    let mut config = AtlasConfig::new(component_index, stateful);
    config.recommender = RecommenderConfig::fast();
    config.traces_per_api = 25;
    config.horizon_steps = 8;
    let mut atlas = Atlas::new(config);
    atlas.learn(&store);
    (atlas, current, store)
}

#[test]
fn social_network_end_to_end_recommendation() {
    let app = social_network(SocialNetworkOptions::default());
    let (atlas, current, _store) = learn(&app, WorkloadOptions::social_network_default(), 21);

    let preferences = MigrationPreferences::with_cpu_limit(14.0)
        .pin(app.component_id("UserMongoDB").unwrap(), SiteId::ON_PREM)
        .critical("/composeAPI");
    let report = atlas.recommend(current.clone(), preferences.clone());

    assert!(!report.plans.is_empty(), "Atlas must find feasible plans");
    check("social_network.txt", &front_text(&report));
    for recommended in &report.plans {
        assert!(recommended.quality.feasible);
        // Pinned user data never leaves the on-prem cluster.
        assert_eq!(
            recommended
                .plan
                .site(app.component_id("UserMongoDB").unwrap()),
            SiteId::ON_PREM
        );
        // Something must be offloaded: the 5x burst does not fit in 14 cores.
        assert!(!recommended.plan.cloud_components().is_empty());
    }

    // The identity plan is infeasible under the same preferences.
    let quality = atlas.quality_model(current, preferences);
    assert!(!quality.is_feasible(&MigrationPlan::all_onprem(app.component_count())));

    // The dendrogram covers every recommended plan.
    let dendrogram = atlas.organize(&report);
    assert_eq!(dendrogram.len(), report.plans.len());
}

#[test]
fn hotel_reservation_end_to_end_recommendation() {
    let app = hotel_reservation();
    let (atlas, current, _store) = learn(&app, WorkloadOptions::hotel_reservation_default(), 33);
    let preferences = MigrationPreferences::with_cpu_limit(5.0)
        .pin(app.component_id("ReserveMongoDB").unwrap(), SiteId::ON_PREM);
    let report = atlas.recommend(current, preferences);
    assert!(!report.plans.is_empty());
    for recommended in &report.plans {
        assert!(recommended.quality.feasible);
        assert_eq!(
            recommended
                .plan
                .site(app.component_id("ReserveMongoDB").unwrap()),
            SiteId::ON_PREM
        );
    }
}

/// Determinism regression: evaluation is pure and the parallel batch layer
/// reassembles results in input order, so the number of evaluator threads
/// must not change a recommendation in any way.
#[test]
fn recommendation_is_identical_across_evaluator_thread_counts() {
    let app = social_network(SocialNetworkOptions::default());
    let (atlas, current, _store) = learn(&app, WorkloadOptions::social_network_default(), 21);
    let preferences = MigrationPreferences::with_cpu_limit(14.0)
        .pin(app.component_id("UserMongoDB").unwrap(), SiteId::ON_PREM);
    let quality = atlas.quality_model(current, preferences);

    let reports: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            Recommender::new(&quality, RecommenderConfig::fast().with_threads(threads)).recommend()
        })
        .collect();
    let reference = &reports[0];
    assert!(!reference.plans.is_empty());
    let want = front_text(reference);
    for (report, threads) in reports.iter().zip([1usize, 2, 8]) {
        // The same plans, bit-identical qualities, budget accounting and
        // training trajectory.
        assert_eq!(front_text(report), want, "{threads} threads");
        assert_eq!(
            report.eval.unique_evaluations, reference.eval.unique_evaluations,
            "{threads} threads"
        );
        assert_eq!(
            report.eval.cache_hits, reference.eval.cache_hits,
            "{threads} threads"
        );
        assert_eq!(report.eval.threads, threads);
    }
}

/// The PR-2 thread-count bit-identity regression, extended to a generated
/// 100-component scenario: the evaluator's thread fan-out must not change a
/// recommendation on synthetic topologies either. Doubles as the end-to-end
/// proof that `Recommender::recommend` completes on a 100-component
/// generated scenario, and that the same seed + options give a bit-identical
/// scenario and recommendation.
#[test]
fn synthetic_100_component_recommendation_is_thread_and_seed_deterministic() {
    let options = SynthOptions {
        components: 100,
        shape: CallGraphShape::Layered,
        stateful_fraction: 0.2,
        apis: 8,
        call_depth: 4,
        data_scale: 1.0,
        seed: 77,
        ..SynthOptions::default()
    };
    let scenario = synthesize(options).unwrap();
    assert_eq!(
        scenario,
        synthesize(options).unwrap(),
        "same options ⇒ bit-identical scenario"
    );
    let app = scenario.topology.clone();
    assert_eq!(app.component_count(), 100);

    let mut workload = scenario.workload.clone();
    workload.profile.day_seconds = 90; // compressed learning day
    let (atlas, current, _store) = learn(&app, workload, 41);

    // Force offloading: keep at most 60 % of the expected burst peak
    // on-prem, and pin the first store like the seed apps' user data.
    let preferences = MigrationPreferences::with_cpu_limit(scenario.burst_cpu_limit(5.0, 0.6))
        .pin(app.component_id("Store000").unwrap(), SiteId::ON_PREM);
    let quality = atlas.quality_model(current, preferences);

    let reports: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            Recommender::new(&quality, RecommenderConfig::fast().with_threads(threads)).recommend()
        })
        .collect();
    let reference = &reports[0];
    assert!(
        !reference.plans.is_empty(),
        "the recommender must complete with plans on a 100-component scenario"
    );
    let want = front_text(reference);
    check("synthetic_100x2.txt", &want);
    for plan in &reference.plans {
        assert!(plan.quality.feasible);
        assert_eq!(
            plan.plan.site(app.component_id("Store000").unwrap()),
            SiteId::ON_PREM
        );
    }
    for (report, threads) in reports.iter().zip([1usize, 2, 8]) {
        assert_eq!(front_text(report), want, "{threads} threads");
        assert_eq!(report.eval.threads, threads);
    }

    // Re-running the whole pipeline from the same seeds reproduces the
    // recommendation bit-for-bit.
    let again = Recommender::new(&quality, RecommenderConfig::fast().with_threads(1)).recommend();
    assert_eq!(front_text(&again), want);
}

/// Multi-region smoke: the full pipeline on a generated 4-site,
/// 100-component scenario. Same-seed recommendations are bit-identical at
/// 1/2/8 evaluator threads under the N-site encoding (extending the
/// PR-2/PR-3 regression), the site-set pin survives the search, and the
/// drift detector's narrative works against the catalog's link matrix.
#[test]
fn multi_region_4_site_recommendation_is_thread_deterministic() {
    let options = SynthOptions {
        components: 100,
        shape: CallGraphShape::Layered,
        stateful_fraction: 0.2,
        apis: 8,
        call_depth: 4,
        site_count: 4,
        seed: 77,
        ..SynthOptions::default()
    };
    let scenario = synthesize(options).unwrap();
    assert_eq!(scenario.catalog.len(), 4);
    let app = scenario.topology.clone();

    // Learn from a compressed simulated day with the catalog wired in.
    let current = Placement::all_onprem(app.component_count());
    let mut workload = scenario.workload.clone();
    workload.profile.day_seconds = 90;
    let store = simulate(&app, workload, 41);
    let component_index: Vec<String> = app.components().iter().map(|c| c.name.clone()).collect();
    let stateful: Vec<String> = app
        .stateful_components()
        .into_iter()
        .map(|c| app.component_name(c).to_string())
        .collect();
    let mut config = AtlasConfig::new(component_index, stateful);
    config.recommender = RecommenderConfig::fast();
    config.traces_per_api = 25;
    config.horizon_steps = 8;
    config.sites = Some(scenario.catalog.clone());
    let mut atlas = Atlas::new(config);
    atlas.learn(&store);

    // Force offloading; pin the first store on-prem exactly and restrict
    // the second one to a site set (on-prem or region 1).
    let pinned_exact = app.component_id("Store000").unwrap();
    let pinned_set = app.component_id("Store001").unwrap();
    let preferences = MigrationPreferences::with_cpu_limit(scenario.burst_cpu_limit(5.0, 0.6))
        .pin(pinned_exact, SiteId::ON_PREM)
        .pin_to_sites(pinned_set, vec![SiteId(0), SiteId(1)]);
    let quality = atlas.quality_model(current.clone(), preferences);
    assert_eq!(quality.site_count(), 4);

    let reports: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            Recommender::new(&quality, RecommenderConfig::fast().with_threads(threads)).recommend()
        })
        .collect();
    let reference = &reports[0];
    assert!(
        !reference.plans.is_empty(),
        "the multi-region recommender must complete with plans"
    );
    let want = front_text(reference);
    check("synthetic_100x4.txt", &want);
    for plan in &reference.plans {
        assert!(plan.quality.feasible);
        assert_eq!(plan.plan.site(pinned_exact), SiteId::ON_PREM);
        assert!(
            plan.plan.site(pinned_set) == SiteId(0) || plan.plan.site(pinned_set) == SiteId(1),
            "the site-set pin restricts Store001 to {{site0, site1}}, got {}",
            plan.plan.site(pinned_set)
        );
        assert!(plan.plan.sites().iter().all(|s| s.index() < 4));
    }
    for (report, threads) in reports.iter().zip([1usize, 2, 8]) {
        assert_eq!(front_text(report), want, "{threads} threads");
        assert_eq!(report.eval.threads, threads);
    }

    // Drift narrative against the multi-region link matrix: the detector's
    // approximation is the model's estimate of the executed plan, every
    // retained trace walked over the catalog's per-ordered-pair links.
    // Post-migration reality matching that approximation is quiet; a 6×
    // shift is flagged.
    let executed = &reference.plans[0].plan;
    let api = atlas
        .profile()
        .apis
        .keys()
        .min()
        .expect("scenario has APIs")
        .clone();
    let approx = quality.estimate_latency_distribution_ms(&api, executed);
    let detector = DriftDetector::from_model(&quality, &api, executed, approx.clone());
    assert!(
        !detector.check(&approx).drifted,
        "reality matching the multi-region estimate must stay quiet"
    );
    let shifted: Vec<f64> = approx.iter().map(|l| l * 6.0 + 80.0).collect();
    assert!(
        detector.check(&shifted).drifted,
        "a 6x shift must be flagged"
    );
}

#[test]
fn delay_injection_estimates_track_simulated_migrations() {
    let app = social_network(SocialNetworkOptions::default());
    let (atlas, current, _store) = learn(&app, WorkloadOptions::social_network_default(), 55);
    let quality = atlas.quality_model(current.clone(), MigrationPreferences::default());

    // Offload the media pipeline to the cloud and compare Atlas's preview
    // with an actual simulated deployment of the same placement.
    let mut plan = MigrationPlan::all_onprem(app.component_count());
    for name in [
        "MediaService",
        "MediaMongoDB",
        "MediaNGINX",
        "MediaMemcached",
    ] {
        plan.set(app.component_id(name).unwrap(), SiteId::CLOUD);
    }

    let sim = Simulator::new(
        app.clone(),
        plan.clone(),
        SimConfig {
            cluster: ClusterSpec::default(),
            overload: OverloadModel::disabled(),
            metric_window_s: 5,
            seed: 56,
        },
    );
    let schedule = WorkloadGenerator::new(WorkloadOptions::social_network_default().with_seed(56))
        .generate(&app)
        .unwrap();
    let throwaway = TelemetryStore::new();
    let measured = sim.run(&schedule, &throwaway);

    for api in ["/uploadMediaAPI", "/getMediaAPI", "/loginAPI"] {
        let estimate = quality.estimate_api_latency_ms(api, &plan);
        let real = measured.api_mean_latency_ms(api).unwrap();
        let error = (estimate - real).abs() / real;
        assert!(
            error < 0.35,
            "{api}: estimate {estimate:.1} ms vs measured {real:.1} ms (error {:.0}%)",
            error * 100.0
        );
    }
}

#[test]
fn footprints_are_accurate_for_most_apis() {
    let app = social_network(SocialNetworkOptions::default());
    let (atlas, _current, _store) = learn(&app, WorkloadOptions::social_network_default(), 77);
    let mut per_api: std::collections::HashMap<String, Vec<(String, String, f64, f64)>> =
        std::collections::HashMap::new();
    for (api, from, to, req, resp) in app.ground_truth_footprints() {
        per_api.entry(api).or_default().push((
            app.component_name(from).to_string(),
            app.component_name(to).to_string(),
            req,
            resp,
        ));
    }
    let mut good = 0;
    for (api, truth) in &per_api {
        let acc = atlas.footprint().accuracy_against(api, truth);
        if acc > 60.0 {
            good += 1;
        }
    }
    assert!(
        good >= 6,
        "at least two thirds of the APIs should have well-learned footprints, got {good}/9"
    );
}

/// The resident advisor's event loop, pinned feed by feed. A generated
/// application's day 1 streams in under a retention window of 1.5 days and
/// the service bootstraps. Then a drift-phase day 2 streams in, evicting
/// day-1 traces of every API. Last, two batches each replay one API's day-2
/// traces five times slower. Each replay touches its API alone and evicts
/// nothing, so the second resync follows a batch that changed one API of
/// three. Each feed's line names the APIs whose detector fired; a feed that
/// re-recommended is followed by its front.
///
/// The detectors re-arm at the first day-2 resync from a window of the new
/// day against a reference that still holds the old one, so their baseline
/// divergence is high; a 1.25× threshold lets the replays fire.
#[test]
fn resident_drift_event_loop_is_pinned() {
    const DAY_S: u64 = 60;
    let options = SynthOptions {
        components: 24,
        apis: 3,
        seed: 7,
        ..SynthOptions::default()
    };
    let scenario = synthesize(options).unwrap();
    let drift = synthesize_drift_phase(&options).unwrap();
    let day = |s: &atlas::apps::SynthScenario, seed| {
        let mut workload = s.workload.clone();
        workload.profile.day_seconds = DAY_S;
        simulate(&s.topology, workload, seed)
    };
    let (day1_store, day2_store) = (day(&scenario, 7), day(&drift, 8));
    let day1 = corpus_of(&day1_store);
    let mut day2 = corpus_of(&day2_store);
    shift_corpus(&mut day2, (DAY_S + 1) * 1_000_000, 1 << 60);

    let mut atlas = AtlasConfig::new(scenario.component_index(), scenario.stateful_names());
    atlas.sites = Some(scenario.catalog.clone());
    atlas.traces_per_api = 30;
    atlas.horizon_steps = 8;
    atlas.recommender = RecommenderConfig {
        population: 8,
        max_visited: 60,
        ..RecommenderConfig::fast()
    };
    let preferences = MigrationPreferences::with_cpu_limit(scenario.burst_cpu_limit(5.0, 0.6));
    let mut config =
        AdvisorServiceConfig::new(atlas, preferences).with_retention_window_s(DAY_S * 3 / 2);
    config.min_detector_samples = 30;
    config.drift_window = 20;
    config.threshold_factor = 1.25;
    let current = Placement::all_onprem(scenario.topology.component_count());
    let mut service = AdvisorService::new(config, current);

    for batch in day1.chunks(day1.len().div_ceil(4)) {
        service.feed(batch.to_vec());
    }
    copy_context(&day1_store, service.store(), 0);
    service.bootstrap();
    let mut text = format!(
        "bootstrap\n{}",
        front_text(service.recommendation().unwrap())
    );

    // One API's day-2 traces again, five times slower, every one starting
    // when day 2 ends: the latest root start does not move, so nothing evicts.
    let end_us = day2.last().unwrap().root().start_us;
    let slow_replay = |api: &str, id_tag: u64| {
        let mut slow: Vec<Trace> = day2
            .iter()
            .filter(|t| t.root().operation == api)
            .cloned()
            .collect();
        shift_corpus(&mut slow, 0, id_tag);
        for trace in &mut slow {
            let shift_us = end_us - trace.root().start_us;
            for node in &mut trace.nodes {
                node.span.start_us += shift_us;
                node.span.duration_us *= 5;
            }
        }
        slow
    };
    let apis = service.store().apis();
    let replays = [
        slow_replay(&apis[0], 1 << 61),
        slow_replay(&apis[1], 1 << 62),
    ];
    copy_context(&day2_store, service.store(), DAY_S + 1);
    let batches = day2.chunks(day2.len().div_ceil(8)).map(<[Trace]>::to_vec);
    for (i, batch) in batches.chain(replays).enumerate() {
        let events = service.feed(batch);
        let mut fired: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                ServiceEvent::DriftFired { api, .. } => Some(api.as_str()),
                _ => None,
            })
            .collect();
        fired.sort_unstable();
        text += &format!("feed {i} drift [{}]\n", fired.join(" "));
        if events
            .iter()
            .any(|e| matches!(e, ServiceEvent::Rerecommended { .. }))
        {
            text += &front_text(service.recommendation().unwrap());
        }
    }
    check("resident_drift.txt", &text);
}

/// A seeded `n`-component baseline context, a search space too large to
/// enumerate: a call chain plus seeded long-range edges, with seeded
/// per-component demand and a CPU limit of half the total, so every
/// feasible placement offloads something.
fn seeded_context(n: usize, seed: u64, catalog: &SiteCatalog) -> BaselineContext {
    let mut rng = StdRng::seed_from_u64(seed);
    let store = TelemetryStore::new();
    let names: Vec<String> = (0..n).map(|i| format!("C{i:02}")).collect();
    let mut demand = ResourceDemand::zeros(names.clone(), 4, 600);
    let mut total_cpu = 0.0;
    for c in 0..n {
        let cpu = rng.gen_range(0.5..4.0);
        total_cpu += cpu;
        demand.fill_cpu(c, cpu);
        demand.fill_memory(c, rng.gen_range(0.5..4.0));
    }
    for from in 0..n {
        let chain = (from + 1 < n).then_some(from + 1);
        let long_range = (from + 2 < n).then(|| rng.gen_range(from + 2..n));
        for to in chain.into_iter().chain(long_range) {
            let request = rng.gen_range(100.0..50_000.0);
            for t in 0..4u64 {
                store.record_traffic(&names[from], &names[to], Direction::Request, t, request);
                store.record_traffic(
                    &names[from],
                    &names[to],
                    Direction::Response,
                    t,
                    request / 4.0,
                );
            }
            demand.fill_edge(from, to, request * 1_000.0);
        }
    }
    BaselineContext::from_store(
        &store,
        names,
        demand,
        MigrationPreferences::with_cpu_limit(total_cpu / 2.0),
        catalog,
    )
}

/// Figures 12–15 compare Atlas against the affinity-based GA, so its fronts
/// are pinned like Atlas's own, on the paper's two sites and on three: the
/// front size and cache accounting, then each plan's sites and its two
/// objectives (cross-site bytes, site cost). The thread count changes
/// neither.
#[test]
fn affinity_ga_fronts_are_pinned_on_a_seeded_40_component_context() {
    let cluster = ClusterSpec::default();
    let pricing = PricingModel::default();
    let three_sites = SiteCatalog::new(
        vec![
            SiteSpec::owned("dc", cluster.onprem_cpu_cores, 1_000.0, 1_000.0),
            SiteSpec::elastic("east", pricing.clone()),
            SiteSpec::elastic("west", pricing),
        ],
        SiteNetwork::from_links(3, vec![cluster.network.intra; 9]),
    );
    for catalog in [SiteCatalog::default(), three_sites] {
        let ctx = seeded_context(40, 17, &catalog);
        for threads in [1, 2] {
            let scorer = ctx.scorer().with_threads(threads);
            let plans = AffinityGaAdvisor::fast().recommend_with(&scorer);
            let stats = scorer.stats();
            let (unique, hits) = (stats.unique_evaluations, stats.cache_hits);
            let mut text = format!("front {} unique {unique} hits {hits}\n", plans.len());
            for plan in &plans {
                let sites = plan.sites();
                let (bytes, cost) = (ctx.cross_site_bytes(sites), ctx.site_cost(sites));
                text += &format!("{} {bytes:?} {cost:?}\n", sites_text(sites));
            }
            check(&format!("affinity_ga_{}_sites.txt", ctx.site_count), &text);
        }
    }
}
