//! The resident advisor: a continuously-running event loop over streaming
//! telemetry (paper §4.3 operationalised).
//!
//! [`Atlas`] is a batch advisor: learn once from a
//! full day of telemetry, recommend once. [`AdvisorService`] keeps the
//! advisor *resident*: traces stream in through [`AdvisorService::feed`],
//! the telemetry store retains a bounded window, a [`DriftDetector`] per
//! API continuously compares the freshest latency window against the
//! distribution the current model was learned from, and when drift fires
//! the service rebuilds the model the way the bootstrap builds it — the
//! application profile relearned from the retained traces, the kernel
//! compiled cold, the network footprint and resource demand held from the
//! bootstrap — then re-runs the recommender and reports how the preferred
//! plan moved.
//!
//! ```text
//!          ┌──────────── feed(batch) ────────────┐
//!          ▼                                     │
//!   TelemetryStore ──ingest_batch──▶ retention eviction
//!          │                                     │
//!          ▼ recent window per API               │
//!   DriftDetector.check ──drifted?──▶ Atlas::learn_profile (every API)
//!                                     │
//!                                     ▼
//!            Atlas::quality_model (kernel compiled cold)
//!                                     │
//!                                     ▼
//!                        Recommender::recommend
//!                                     │
//!                                     ▼
//!         one Arc<Epoch> { generation, model, empty eval cache }
//! ```
//!
//! What the service publishes is one epoch: the model generation, the
//! compiled model and an eval cache for the requests a serving layer (the
//! multi-tenant [`hub`](crate::hub)) answers at that generation. The epoch
//! is built after the service's own re-recommendation returns and is never
//! mutated: a relearn builds the next one. The hub serves the same `Arc`.
//!
//! [`AdvisorService::feed`] and [`AdvisorService::bootstrap`] return the
//! [`ServiceEvent`]s of their round, so a caller replaying a day of traffic
//! gets an auditable log of what the advisor saw, when it retrained, how
//! long the drift-to-new-plan path took, and which components the new
//! recommendation moved. The service keeps no copy of them.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use atlas_sim::{Placement, SiteId};
use atlas_telemetry::{TelemetryStore, Trace};

use crate::advisor::{Atlas, AtlasConfig};
use crate::eval::MemoCache;
use crate::monitor::{DriftDetector, DriftReport};
use crate::preferences::MigrationPreferences;
use crate::quality::{PlanQuality, QualityModel};
use crate::recommender::{RecommendationReport, Recommender};
use crate::MigrationPlan;

/// Configuration of a resident [`AdvisorService`].
#[derive(Debug, Clone)]
pub struct AdvisorServiceConfig {
    /// The wrapped advisor configuration (learning + recommender settings).
    pub atlas: AtlasConfig,
    /// The owner's migration preferences, applied to every recommendation
    /// round.
    pub preferences: MigrationPreferences,
    /// Telemetry retention window in seconds: traces whose root started
    /// more than this long before the newest trace are evicted at ingest.
    /// `None` retains everything (not recommended for a resident service).
    pub retention_window_s: Option<u64>,
    /// Number of the freshest latency samples compared against the learned
    /// distribution on every drift check.
    pub drift_window: usize,
    /// Minimum retained samples an API needs before a detector is armed
    /// (below this, window-vs-distribution divergence is sampling noise).
    pub min_detector_samples: usize,
    /// Factor over the baseline divergence that flags drift
    /// (see [`DriftDetector::with_threshold_factor`]).
    pub threshold_factor: f64,
}

impl AdvisorServiceConfig {
    /// A service configuration with the detector defaults (50-sample drift
    /// window, armed from 100 samples, 5× threshold).
    pub fn new(atlas: AtlasConfig, preferences: MigrationPreferences) -> Self {
        Self {
            atlas,
            preferences,
            retention_window_s: None,
            drift_window: 50,
            min_detector_samples: 100,
            threshold_factor: DriftDetector::DEFAULT_THRESHOLD_FACTOR,
        }
    }

    /// Set the telemetry retention window (builder style).
    pub fn with_retention_window_s(mut self, window_s: u64) -> Self {
        self.retention_window_s = Some(window_s);
        self
    }
}

/// One component move between the previously preferred plan and the newly
/// preferred one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanDelta {
    /// Component name.
    pub component: String,
    /// Site under the previous recommendation.
    pub from: SiteId,
    /// Site under the new recommendation.
    pub to: SiteId,
}

/// One event of a service round, as returned by [`AdvisorService::feed`]
/// and [`AdvisorService::bootstrap`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceEvent {
    /// A telemetry batch was ingested.
    Ingested {
        /// Traces ingested by this batch.
        traces: usize,
        /// Traces evicted by the retention window.
        evicted: usize,
        /// Store epoch after the batch.
        epoch: u64,
    },
    /// An API's recent latency window drifted from the learned
    /// distribution.
    DriftFired {
        /// The drifted API.
        api: String,
        /// The detector's report.
        report: DriftReport,
    },
    /// The model was (re)learned.
    Relearned {
        /// The APIs relearned: every API the store retains.
        apis: Vec<String>,
        /// Whether this was the bootstrap, which also learns the network
        /// footprint and resource demand, rather than a drift resync, which
        /// holds them.
        cold: bool,
        /// Wall-clock milliseconds of the relearn + compile.
        elapsed_ms: f64,
    },
    /// The recommender produced a fresh Pareto front.
    Rerecommended {
        /// Number of Pareto-optimal plans.
        plans: usize,
        /// Component moves of the preferred (performance-optimised) plan
        /// relative to the previous round's preferred plan.
        deltas: Vec<PlanDelta>,
        /// Wall-clock milliseconds from drift confirmation to the new
        /// recommendation (relearn + compile + search, and training when
        /// the recommender asks for the learned crossover agent).
        latency_ms: f64,
    },
}

/// One published model generation: the generation number, the compiled
/// model and the eval cache of the requests served at it. Built whole and
/// never mutated, so the three retire together: a score computed against
/// an older model cannot answer a request at a newer one.
pub(crate) struct Epoch {
    pub(crate) generation: u64,
    pub(crate) model: Arc<QualityModel>,
    pub(crate) cache: MemoCache<MigrationPlan, PlanQuality>,
}

/// A resident advisor: streaming ingest, continuous per-API drift
/// detection, relearning and re-recommendation. See the
/// [module docs](self) for the event loop.
pub struct AdvisorService {
    config: AdvisorServiceConfig,
    store: TelemetryStore,
    atlas: Atlas,
    current: Placement,
    /// The current epoch (`None` before bootstrap), shared by `Arc` with
    /// the hub and with every request in flight at it.
    epoch: Option<Arc<Epoch>>,
    detectors: HashMap<String, DriftDetector>,
    recommendation: Option<RecommendationReport>,
}

impl AdvisorService {
    /// Create a resident advisor for an application currently deployed as
    /// `current`. The service owns its telemetry store (with the
    /// configured retention window); feed it traces with
    /// [`AdvisorService::feed`], then arm the model with
    /// [`AdvisorService::bootstrap`].
    pub fn new(config: AdvisorServiceConfig, current: Placement) -> Self {
        let store = match config.retention_window_s {
            Some(w) => TelemetryStore::with_retention_window_s(w),
            None => TelemetryStore::new(),
        };
        let atlas = Atlas::new(config.atlas.clone());
        Self {
            config,
            store,
            atlas,
            current,
            epoch: None,
            detectors: HashMap::new(),
            recommendation: None,
        }
    }

    /// The service's telemetry store (for recording metrics/traffic
    /// alongside the trace stream).
    pub fn store(&self) -> &TelemetryStore {
        &self.store
    }

    /// The current quality model, if bootstrapped.
    pub fn model(&self) -> Option<&QualityModel> {
        self.epoch.as_deref().map(|e| &*e.model)
    }

    /// A shared handle to the current quality model, if bootstrapped. The
    /// `Arc` stays valid across later relearns (each builds a new model
    /// instead of mutating the shared one), so a recommender holding it
    /// never observes a model change mid-search.
    pub fn shared_model(&self) -> Option<Arc<QualityModel>> {
        self.epoch.as_ref().map(|e| e.model.clone())
    }

    /// The model generation: `0` before bootstrap, bumped by the bootstrap
    /// and by every drift resync. Two equal generations guarantee the same
    /// model (and therefore the same scores).
    pub fn model_generation(&self) -> u64 {
        self.epoch.as_ref().map_or(0, |e| e.generation)
    }

    /// The current epoch, the one `Arc` a serving layer publishes.
    pub(crate) fn epoch(&self) -> Option<&Arc<Epoch>> {
        self.epoch.as_ref()
    }

    /// The service configuration.
    pub fn config(&self) -> &AdvisorServiceConfig {
        &self.config
    }

    /// The placement the application is currently deployed as.
    pub fn current_placement(&self) -> &Placement {
        &self.current
    }

    /// The latest recommendation report, if any.
    pub fn recommendation(&self) -> Option<&RecommendationReport> {
        self.recommendation.as_ref()
    }

    /// Ingest one batch of traces and run the event loop: retention
    /// eviction, per-API drift checks and — when drift fires — relearn
    /// and re-recommendation. Returns the events this batch
    /// produced.
    ///
    /// Before [`AdvisorService::bootstrap`] the loop only ingests: there is
    /// no model to drift from yet.
    pub fn feed(&mut self, traces: Vec<Trace>) -> Vec<ServiceEvent> {
        let report = self.store.ingest_batch(traces);
        let mut events = vec![ServiceEvent::Ingested {
            traces: report.ingested,
            evicted: report.evicted,
            epoch: report.epoch,
        }];
        if self.epoch.is_some() && self.check_drift(&mut events) {
            // The drift response: relearn the profile from the retained
            // traces, hold the footprint and demand, rebuild and publish.
            let start = Instant::now();
            self.atlas.learn_profile(&self.store);
            self.publish(start, false, &mut events);
        }
        events
    }

    /// Cold-start the model from everything the store currently retains:
    /// full application learning, first recommendation, and one armed
    /// drift detector per API with enough samples. Returns the bootstrap
    /// events.
    ///
    /// # Panics
    ///
    /// Panics if the store holds no traces.
    pub fn bootstrap(&mut self) -> Vec<ServiceEvent> {
        assert!(
            self.store.trace_count() > 0,
            "feed the service telemetry before bootstrapping"
        );
        let start = Instant::now();
        self.atlas.learn(&self.store);
        let mut events = Vec::new();
        self.publish(start, true, &mut events);
        events
    }

    /// Publish what `atlas` has learned as the next epoch: build the model,
    /// log [`ServiceEvent::Relearned`] (timed from `start`), re-arm one
    /// drift detector per retained API, re-recommend, and only then swap in
    /// the new epoch. `cold` is whether
    /// `atlas` relearned the footprint and demand too (the bootstrap) or
    /// only the profile (a drift resync).
    fn publish(&mut self, start: Instant, cold: bool, events: &mut Vec<ServiceEvent>) {
        let model = self
            .atlas
            .quality_model(self.current.clone(), self.config.preferences.clone());
        let apis = self.store.apis();
        events.push(ServiceEvent::Relearned {
            apis: apis.clone(),
            cold,
            elapsed_ms: start.elapsed().as_secs_f64() * 1_000.0,
        });
        self.detectors.clear();
        for api in &apis {
            self.arm_detector(api);
        }
        self.recommend(&model, start, events);
        self.epoch = Some(Arc::new(Epoch {
            generation: self.model_generation() + 1,
            model: Arc::new(model),
            // A new epoch starts from an empty cache: scores computed
            // against the previous model retire with it.
            cache: MemoCache::default(),
        }));
    }

    /// (Re)arm the drift detector of one API from the store's retained
    /// latency distribution: the reference is the full distribution, the
    /// baseline divergence is the freshest window's divergence from it —
    /// i.e. the sampling noise a healthy window shows. Later windows
    /// exceeding that noise by the threshold factor flag drift. APIs with
    /// fewer than the configured minimum of samples are left unarmed.
    fn arm_detector(&mut self, api: &str) {
        let samples = self.store.api_latencies_ms(api);
        if samples.len() < self.config.min_detector_samples.max(2) {
            return;
        }
        let window = self.config.drift_window.min(samples.len() / 2).max(1);
        let freshest = samples[samples.len() - window..].to_vec();
        let detector = DriftDetector::new(samples, &freshest)
            .with_threshold_factor(self.config.threshold_factor);
        self.detectors.insert(api.to_string(), detector);
    }

    /// Run every armed detector against its API's freshest latency window,
    /// log a [`ServiceEvent::DriftFired`] per hit (in API order) and return
    /// whether any fired.
    fn check_drift(&self, events: &mut Vec<ServiceEvent>) -> bool {
        let mut names: Vec<&String> = self.detectors.keys().collect();
        names.sort();
        let logged = events.len();
        for api in names {
            let samples = self.store.api_latencies_ms(api);
            if samples.len() < self.config.drift_window {
                continue;
            }
            let recent = &samples[samples.len() - self.config.drift_window..];
            let report = self.detectors[api].check(recent);
            if report.drifted {
                events.push(ServiceEvent::DriftFired {
                    api: api.clone(),
                    report,
                });
            }
        }
        events.len() > logged
    }

    /// Run the recommender on `model`, record the report and log the plan
    /// deltas against the previous round's preferred plan.
    fn recommend(&mut self, model: &QualityModel, since: Instant, events: &mut Vec<ServiceEvent>) {
        let report = Recommender::new(model, self.config.atlas.recommender.clone()).recommend();
        let old = self
            .recommendation
            .as_ref()
            .and_then(|r| r.performance_optimized());
        let deltas = match (old, report.performance_optimized()) {
            (Some(old), Some(new)) if old.plan.len() == new.plan.len() => {
                (new.plan.moved_components(&old.plan).into_iter())
                    .map(|c| PlanDelta {
                        component: model.component_index()[c.0].clone(),
                        from: old.plan.site(c),
                        to: new.plan.site(c),
                    })
                    .collect()
            }
            _ => Vec::new(),
        };
        events.push(ServiceEvent::Rerecommended {
            plans: report.plans.len(),
            deltas,
            latency_ms: since.elapsed().as_secs_f64() * 1_000.0,
        });
        self.recommendation = Some(report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recommender::RecommenderConfig;
    use atlas_apps::{synthesize, CallGraphShape, SynthOptions, WorkloadGenerator, WorkloadShape};
    use atlas_sim::{ClusterSpec, ComponentId, OverloadModel, SimConfig, Simulator};
    use atlas_telemetry::TraceId;

    const DAY_S: u64 = 60;

    /// A small synthetic scenario's one-day trace corpus (root-start
    /// ordered) plus the matching service configuration.
    fn scenario() -> (AdvisorServiceConfig, Placement, Vec<Trace>) {
        let options = SynthOptions {
            components: 20,
            shape: CallGraphShape::Layered,
            stateful_fraction: 0.2,
            apis: 3,
            call_depth: 4,
            data_scale: 1.0,
            workload: WorkloadShape::Diurnal,
            volume_scale: 1.0,
            site_count: 2,
            seed: 7,
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
                seed: 7,
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
        atlas.traces_per_api = 30;
        atlas.horizon_steps = 8;
        atlas.recommender = RecommenderConfig {
            population: 8,
            max_visited: 60,
            ..RecommenderConfig::fast()
        };
        let preferences = MigrationPreferences::with_cpu_limit(scenario.burst_cpu_limit(5.0, 0.6));
        let mut config = AdvisorServiceConfig::new(atlas, preferences);
        config.min_detector_samples = 30;
        config.drift_window = 20;
        (config, current, corpus)
    }

    /// Clone one API's traces as a later, slower day: every span shifted
    /// forward and its duration scaled, trace ids re-tagged.
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

    #[test]
    fn feed_before_bootstrap_only_ingests() {
        let (config, current, corpus) = scenario();
        let mut service = AdvisorService::new(config, current);
        let events = service.feed(corpus);
        assert!(service.epoch.is_none());
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0],
            ServiceEvent::Ingested { traces, evicted: 0, .. } if traces > 0
        ));
    }

    #[test]
    #[should_panic(expected = "feed the service telemetry")]
    fn bootstrapping_an_empty_service_panics() {
        let (config, current, _) = scenario();
        AdvisorService::new(config, current).bootstrap();
    }

    #[test]
    fn bootstrap_learns_recommends_and_stays_calm_on_familiar_traffic() {
        let (config, current, corpus) = scenario();
        let mut service = AdvisorService::new(config, current);
        let replay = slow_replay(&corpus, corpus[0].api(), (DAY_S + 1) * 1_000_000, 1);
        service.feed(corpus);
        let events = service.bootstrap();
        assert!(service.epoch.is_some());
        assert!(matches!(
            &events[0],
            ServiceEvent::Relearned { cold: true, apis, .. } if apis.len() == 3
        ));
        assert!(matches!(&events[1], ServiceEvent::Rerecommended { plans, .. } if *plans > 0));
        assert!(service.recommendation().is_some());

        // A same-shape replay (duration factor 1) must not trip a detector.
        let events = service.feed(replay);
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, ServiceEvent::DriftFired { .. })),
            "familiar traffic drifted: {events:?}"
        );
    }

    #[test]
    fn drift_episode_relearns_every_api_and_rerecommends() {
        let (config, current, corpus) = scenario();
        let mut service = AdvisorService::new(config, current);
        service.feed(corpus.clone());
        service.bootstrap();

        let api = corpus[0].api().to_string();
        let before = service.model().unwrap().profile().apis[&api].mean_latency_ms;
        let events = service.feed(slow_replay(&corpus, &api, (DAY_S + 1) * 1_000_000, 5));

        assert!(
            events
                .iter()
                .any(|e| matches!(e, ServiceEvent::DriftFired { api: a, report } if a == &api && report.drifted)),
            "5x slower traffic must fire the {api} detector: {events:?}"
        );
        let learned = service.model().unwrap().profile().api_names();
        assert_eq!(learned.len(), 3);
        assert!(
            events.iter().any(|e| matches!(
                e,
                ServiceEvent::Relearned { cold: false, apis, .. } if apis == &learned
            )),
            "a resync relearns every API: {events:?}"
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, ServiceEvent::Rerecommended { .. })));
        let after = service.model().unwrap().profile().apis[&api].mean_latency_ms;
        assert!(
            after > before * 1.5,
            "the relearned profile must absorb the slowdown: {before:.2} -> {after:.2}"
        );
    }

    /// The preferred (performance-optimised) plan of the service's current
    /// recommendation.
    fn preferred(service: &AdvisorService) -> MigrationPlan {
        let report = service.recommendation().expect("a recommendation");
        report.performance_optimized().expect("a plan").plan.clone()
    }

    /// The deltas of the one `Rerecommended` event among `events`.
    fn deltas_of(events: &[ServiceEvent]) -> &[PlanDelta] {
        let mut deltas = events.iter().filter_map(|e| match e {
            ServiceEvent::Rerecommended { deltas, .. } => Some(deltas.as_slice()),
            _ => None,
        });
        let first = deltas.next().expect("a re-recommendation");
        assert!(deltas.next().is_none(), "one re-recommendation per round");
        first
    }

    #[test]
    fn rerecommendations_list_the_preferred_plans_moves_by_name() {
        let (config, current, corpus) = scenario();
        let mut service = AdvisorService::new(config, current);
        service.feed(corpus.clone());
        let events = service.bootstrap();
        assert!(
            deltas_of(&events).is_empty(),
            "bootstrap has nothing to diff"
        );
        let before = preferred(&service);

        // The owner pins an offloaded component on-prem, so the next
        // round's preferred plan must move it back.
        let pinned = ComponentId(before.sites().iter().position(|s| !s.is_on_prem()).unwrap());
        let preferences = service.config.preferences.clone();
        service.config.preferences = preferences.pin(pinned, SiteId::ON_PREM);
        let api = corpus[0].api().to_string();
        let events = service.feed(slow_replay(&corpus, &api, (DAY_S + 1) * 1_000_000, 5));
        let after = preferred(&service);
        let names = service.model().unwrap().component_index();
        let expected: Vec<PlanDelta> = (0..names.len())
            .filter(|&i| before.sites()[i] != after.sites()[i])
            .map(|i| PlanDelta {
                component: names[i].clone(),
                from: before.sites()[i],
                to: after.sites()[i],
            })
            .collect();
        assert!(expected
            .iter()
            .any(|d| d.component == names[pinned.0] && d.to == SiteId::ON_PREM));
        assert_eq!(deltas_of(&events), expected.as_slice());
    }

    #[test]
    fn model_generation_tracks_bootstrap_and_relearns() {
        let (config, current, corpus) = scenario();
        let mut service = AdvisorService::new(config, current);
        assert_eq!(service.model_generation(), 0);
        service.feed(corpus.clone());
        assert_eq!(service.model_generation(), 0, "ingest alone never bumps");
        service.bootstrap();
        assert_eq!(service.model_generation(), 1);

        // Hold the published snapshot across a drift-triggered relearn: the
        // relearn builds a new model, so the held one is untouched while the
        // service moves to generation 2.
        let snapshot = service.shared_model().unwrap();
        let api = corpus[0].api().to_string();
        let before = snapshot.profile().apis[&api].mean_latency_ms;
        service.feed(slow_replay(&corpus, &api, (DAY_S + 1) * 1_000_000, 5));
        assert_eq!(service.model_generation(), 2);
        let after_held = snapshot.profile().apis[&api].mean_latency_ms;
        assert_eq!(
            before.to_bits(),
            after_held.to_bits(),
            "a held snapshot never observes a relearn"
        );
        let fresh = service.model().unwrap().profile().apis[&api].mean_latency_ms;
        assert!(
            fresh > before * 1.5,
            "the new generation absorbed the drift"
        );
    }

    #[test]
    fn retention_window_evicts_old_traces_during_later_days() {
        let (mut config, current, corpus) = scenario();
        config = config.with_retention_window_s(DAY_S + DAY_S / 2);
        let mut service = AdvisorService::new(config, current);
        service.feed(corpus.clone());
        service.bootstrap();

        // Day 2 ends past the retention window, so day-1 traces evict.
        let api = corpus[0].api().to_string();
        let events = service.feed(slow_replay(&corpus, &api, (DAY_S + 1) * 1_000_000, 1));
        let evicted: usize = events
            .iter()
            .map(|e| match e {
                ServiceEvent::Ingested { evicted, .. } => *evicted,
                _ => 0,
            })
            .sum();
        assert!(evicted > 0, "day-2 ingest must evict day-1 traces");
        assert!(service.store().trace_count() > 0);
    }
}
