//! The multi-tenant advisor hub: concurrent serving over epoch-stamped
//! model snapshots.
//!
//! [`AdvisorService`] is a single-tenant event loop behind `&mut self`: one
//! application, one model, strictly serial rounds. A hosted advisor serves
//! *many* applications at once — concurrent recommendation requests must
//! not queue behind each other, and one tenant's ingest or relearn must not
//! stall another tenant's (or even its own) in-flight recommendations.
//! [`AdvisorHub`] provides that serving layer over N independent tenant
//! services:
//!
//! * **One published epoch** — a tenant's service builds one `Arc` per
//!   model generation (bootstrap or drift-triggered relearn) holding the
//!   generation, the compiled
//!   [`QualityModel`](crate::quality::QualityModel) and a *fresh*
//!   [`MemoCache`](crate::eval::MemoCache). After every service round the
//!   hub stores a clone of that same `Arc` behind a small lock; it copies
//!   nothing out of it, so the model and the generation it serves can only
//!   move together.
//!   A recommendation request ([`AdvisorHub::recommend`]) holds that lock
//!   only to clone the `Arc`: it never touches the tenant's service mutex,
//!   so ingest, drift detection and relearn proceed while any number of
//!   recommenders are in flight — and a recommender keeps scoring against
//!   the epoch it started with even if a relearn lands mid-search. A
//!   retired epoch is freed when the last request still holding it
//!   finishes; nothing needs pruning.
//! * **A request is one search** with the tenant's recommender
//!   configuration ([`Recommender::recommend_with`]). Under the default
//!   uniform crossover nothing is trained anywhere. A tenant that opts into
//!   the learned crossover agent
//!   ([`CrossoverStrategy::ReinforcementLearning`](crate::recommender::CrossoverStrategy))
//!   pays for that on every request: each search trains its own agent
//!   inline, exactly as the tenant's service did, so the answer is still
//!   the service's own, bit for bit.
//! * **Per-epoch shared eval caches** — every request served at one epoch
//!   warms the same memo cache (scores are pure, so sharing can only add
//!   cache hits, never change a result), and a new epoch starts from an
//!   empty cache *by construction*: a stale score cannot survive a relearn
//!   because the cache it lived in is retired with its epoch.
//! * **Determinism** — the recommender's search budget is request-local
//!   (see [`RecommenderConfig::max_visited`]), so a tenant's
//!   recommendation is bit-identical to running its `AdvisorService`
//!   serially, at any hub worker count, request-thread count and
//!   interleaving with other tenants.
//!
//! ```text
//!   feed_all ──┬── tenant A: Mutex<AdvisorService> ─ relearn ─┐ Arc<Epoch>
//!              └── tenant B: Mutex<AdvisorService> ─ relearn ─┤ (clone)
//!                                                             ▼
//!   Mutex<Option<Arc<Epoch>>> ──▶ { generation, Arc<QualityModel>, MemoCache }
//!                                                             ▲  Arc clone per request
//!   serve ────── worker pool ── recommend(tenant) ────────────┘  (one search each)
//! ```
//!
//! # Example
//!
//! Run two tenants through the hub and serve their recommendations
//! concurrently — each identical to what the tenant's own serial service
//! computed at bootstrap:
//!
//! ```
//! use atlas_apps::{synthesize, SynthOptions, WorkloadGenerator};
//! use atlas_core::hub::{AdvisorHub, TenantId};
//! use atlas_core::service::{AdvisorService, AdvisorServiceConfig};
//! use atlas_core::{AtlasConfig, MigrationPreferences, RecommenderConfig};
//! use atlas_sim::{OverloadModel, Placement, SimConfig, Simulator};
//! use atlas_telemetry::TelemetryStore;
//!
//! // One tiny synthetic tenant application with a compressed day.
//! fn tenant_service(seed: u64) -> AdvisorService {
//!     let options = SynthOptions {
//!         components: 10,
//!         apis: 2,
//!         call_depth: 3,
//!         seed,
//!         ..SynthOptions::default()
//!     };
//!     let scenario = synthesize(options).unwrap();
//!     let current = Placement::all_onprem(scenario.topology.component_count());
//!     let mut workload = scenario.workload.clone();
//!     workload.profile.day_seconds = 30;
//!     let schedule = WorkloadGenerator::new(workload)
//!         .generate(&scenario.topology)
//!         .unwrap();
//!     let scratch = TelemetryStore::new();
//!     Simulator::new(
//!         scenario.topology.clone(),
//!         current.clone(),
//!         SimConfig {
//!             overload: OverloadModel::disabled(),
//!             ..SimConfig::default()
//!         },
//!     )
//!     .run(&schedule, &scratch);
//!
//!     let mut atlas = AtlasConfig::new(scenario.component_index(), scenario.stateful_names());
//!     atlas.sites = Some(scenario.catalog.clone());
//!     atlas.traces_per_api = 10;
//!     atlas.horizon_steps = 4;
//!     atlas.recommender = RecommenderConfig {
//!         population: 6,
//!         max_visited: 30,
//!         ..RecommenderConfig::fast()
//!     };
//!     let config = AdvisorServiceConfig::new(atlas, MigrationPreferences::default());
//!     let mut service = AdvisorService::new(config, current);
//!     let mut corpus: Vec<_> = scratch
//!         .apis()
//!         .into_iter()
//!         .flat_map(|api| scratch.traces_for_api(&api))
//!         .collect();
//!     corpus.sort_by(|a, b| (a.root().start_us, a.trace_id).cmp(&(b.root().start_us, b.trace_id)));
//!     service.feed(corpus);
//!     service
//! }
//!
//! let mut hub = AdvisorHub::new();
//! let a = hub.add_tenant("checkout", tenant_service(3));
//! let b = hub.add_tenant("search", tenant_service(4));
//! hub.bootstrap(a);
//! hub.bootstrap(b);
//!
//! // Four concurrent requests across the two tenants...
//! let reports = hub.serve(&[a, b, a, b], 1);
//! assert_eq!(reports.len(), 4);
//! // ...are bit-identical to each tenant's own serial recommendation.
//! for report in &reports {
//!     let serial = hub.with_tenant(report.tenant, |service| {
//!         service.recommendation().unwrap().plans.clone()
//!     });
//!     assert_eq!(report.report.plans, serial);
//!     assert_eq!(report.epoch, 1);
//! }
//! ```

use std::mem;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use atlas_telemetry::Trace;

use crate::eval::{effective_threads, PlanEvaluator};
use crate::recommender::{RecommendationReport, Recommender, RecommenderConfig};
use crate::service::{AdvisorService, Epoch, ServiceEvent};

/// Lock `mutex`, recovering the guard when a holder panicked. The snapshot
/// mutex only guards whole assignments, so its data is always valid. A
/// tenant's service can be left mid-update by a panicking feed; it keeps
/// serving its last published epoch, and ROADMAP item 9 replaces this
/// recovery with tenant quarantine.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Identifier of one tenant registered with an [`AdvisorHub`] (its
/// registration index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(pub usize);

/// One registered tenant: its serialised service state, the service's
/// current epoch (`None` before the first publish; requests clone the `Arc`
/// out and never touch the service mutex), and the request-side
/// configuration captured at registration.
struct TenantSlot {
    name: String,
    service: Mutex<AdvisorService>,
    snapshot: Mutex<Option<Arc<Epoch>>>,
    recommender: RecommenderConfig,
}

impl TenantSlot {
    /// The tenant's published epoch, if any.
    fn snapshot(&self) -> Option<Arc<Epoch>> {
        lock(&self.snapshot).clone()
    }

    /// Publish the service's current epoch: the same `Arc`, cloned. Called
    /// with the service lock held, so epochs publish in order. A retired
    /// epoch is dropped after the snapshot lock is released.
    fn publish(&self, service: &AdvisorService) {
        let epoch = service.epoch().cloned();
        let _retired = mem::replace(&mut *lock(&self.snapshot), epoch);
    }
}

/// One answered recommendation request.
#[derive(Debug, Clone)]
pub struct HubReport {
    /// The tenant that was asked.
    pub tenant: TenantId,
    /// The model epoch the request was served at (the tenant's
    /// [`AdvisorService::model_generation`] when its snapshot was
    /// published).
    pub epoch: u64,
    /// Wall-clock latency of this request, in milliseconds.
    pub latency_ms: f64,
    /// The recommendation itself. `report.eval` is this request's own
    /// compute/hit accounting over the epoch's shared cache.
    pub report: RecommendationReport,
}

/// A multi-tenant serving layer over independent [`AdvisorService`]s. See
/// the [module docs](self) for the architecture and an end-to-end example.
pub struct AdvisorHub {
    tenants: Vec<TenantSlot>,
    threads: usize,
}

impl Default for AdvisorHub {
    fn default() -> Self {
        Self::new()
    }
}

impl AdvisorHub {
    /// An empty hub with one serving worker per available core.
    pub fn new() -> Self {
        Self {
            tenants: Vec::new(),
            threads: 0,
        }
    }

    /// Set the serving worker-pool size (`0` = one per available core), on
    /// a new or a live hub. Like every concurrency knob in the evaluator
    /// stack, this never changes any recommendation, only throughput.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Register a tenant. If the service is already bootstrapped its model
    /// is published immediately; otherwise the first
    /// [`Self::bootstrap`]/[`Self::feed`] that produces a model publishes
    /// it.
    pub fn add_tenant(&mut self, name: impl Into<String>, service: AdvisorService) -> TenantId {
        let slot = TenantSlot {
            name: name.into(),
            recommender: service.config().atlas.recommender.clone(),
            service: Mutex::new(service),
            snapshot: Mutex::new(None),
        };
        slot.publish(&lock(&slot.service));
        self.tenants.push(slot);
        TenantId(self.tenants.len() - 1)
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The name a tenant was registered under.
    pub fn tenant_name(&self, tenant: TenantId) -> &str {
        &self.tenants[tenant.0].name
    }

    /// The model epoch a tenant currently serves at, or `None` before its
    /// first publish.
    pub fn published_epoch(&self, tenant: TenantId) -> Option<u64> {
        self.tenants[tenant.0].snapshot().map(|s| s.generation)
    }

    /// Run `f` against a tenant's service under its lock — the maintenance
    /// hatch for inspecting stores or recommendations. Reads on
    /// the serving path never come through here.
    pub fn with_tenant<R>(&self, tenant: TenantId, f: impl FnOnce(&AdvisorService) -> R) -> R {
        f(&lock(&self.tenants[tenant.0].service))
    }

    /// Ingest one trace batch into one tenant: runs the tenant's full
    /// event loop (retention, drift, relearn,
    /// re-recommendation) under its service lock, then publishes the
    /// service's epoch. Other tenants — and every
    /// in-flight [`Self::recommend`] — are unaffected.
    pub fn feed(&self, tenant: TenantId, traces: Vec<Trace>) -> Vec<ServiceEvent> {
        let slot = &self.tenants[tenant.0];
        let mut service = lock(&slot.service);
        let events = service.feed(traces);
        slot.publish(&service);
        events
    }

    /// Cold-start one tenant's model from everything its store retains and
    /// publish the first snapshot. See [`AdvisorService::bootstrap`].
    pub fn bootstrap(&self, tenant: TenantId) -> Vec<ServiceEvent> {
        let slot = &self.tenants[tenant.0];
        let mut service = lock(&slot.service);
        let events = service.bootstrap();
        slot.publish(&service);
        events
    }

    /// Ingest many `(tenant, batch)` pairs, different tenants in parallel:
    /// one scoped worker per tenant present in the input, each processing
    /// its tenant's batches in input order (so every tenant observes
    /// exactly the event sequence a serial replay would produce). Results
    /// come back in input order.
    pub fn feed_all(&self, batches: Vec<(TenantId, Vec<Trace>)>) -> Vec<Vec<ServiceEvent>> {
        let mut per_tenant: Vec<Vec<(usize, Vec<Trace>)>> = vec![Vec::new(); self.tenants.len()];
        for (i, (tenant, traces)) in batches.into_iter().enumerate() {
            per_tenant[tenant.0].push((i, traces));
        }
        let mut results: Vec<(usize, Vec<ServiceEvent>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = per_tenant
                .into_iter()
                .enumerate()
                .filter(|(_, group)| !group.is_empty())
                .map(|(tenant, group)| {
                    scope.spawn(move || {
                        group
                            .into_iter()
                            .map(|(i, traces)| (i, self.feed(TenantId(tenant), traces)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|e| resume_unwind(e)))
                .collect()
        });
        results.sort_unstable_by_key(|&(i, _)| i);
        results.into_iter().map(|(_, events)| events).collect()
    }

    /// Answer one recommendation request: take the tenant's published
    /// snapshot, search its model over the epoch's shared eval cache with
    /// `request_threads` evaluator workers (`0` = the tenant's configured
    /// count), and stamp the result with the epoch it was served at. The
    /// request never touches the tenant's service mutex, so ingest and
    /// relearn proceed concurrently; a relearn landing mid-request is
    /// invisible (the request keeps its snapshot — model and cache — alive
    /// until it returns). A tenant that opted into the learned crossover
    /// agent trains one per request (see the [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics if the tenant has never published a model (bootstrap it
    /// first).
    pub fn recommend(&self, tenant: TenantId, request_threads: usize) -> HubReport {
        let slot = &self.tenants[tenant.0];
        let snapshot = slot
            .snapshot()
            .expect("bootstrap the tenant before requesting recommendations");
        Self::answer(slot, tenant, &snapshot, request_threads)
    }

    /// Answer a request from the snapshot it took, whatever has been
    /// published since.
    fn answer(
        slot: &TenantSlot,
        tenant: TenantId,
        snapshot: &Epoch,
        request_threads: usize,
    ) -> HubReport {
        let start = Instant::now();
        let mut config = slot.recommender.clone();
        if request_threads != 0 {
            config.threads = request_threads;
        }
        let evaluator = PlanEvaluator::with_shared_cache(&snapshot.model, &snapshot.cache)
            .with_threads(config.threads);
        let report = Recommender::new(&snapshot.model, config).recommend_with(&evaluator);
        HubReport {
            tenant,
            epoch: snapshot.generation,
            latency_ms: start.elapsed().as_secs_f64() * 1_000.0,
            report,
        }
    }

    /// Answer a slice of recommendation requests from the hub's worker
    /// pool, each request with `request_threads` evaluator workers (`1` is
    /// the natural choice when the pool itself saturates the cores).
    /// Requests to the same tenant share that epoch's eval cache — pure
    /// scores, so sharing only adds hits. Results come back in input
    /// order, each bit-identical to a serial [`Self::recommend`] of the
    /// same tenant at the same epoch.
    pub fn serve(&self, requests: &[TenantId], request_threads: usize) -> Vec<HubReport> {
        let workers = effective_threads(self.threads).min(requests.len()).max(1);
        if workers <= 1 {
            return requests
                .iter()
                .map(|&tenant| self.recommend(tenant, request_threads))
                .collect();
        }
        let next = AtomicUsize::new(0);
        let mut reports: Vec<Option<HubReport>> = Vec::with_capacity(requests.len());
        reports.resize_with(requests.len(), || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    scope.spawn(move || {
                        let mut answered = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= requests.len() {
                                break;
                            }
                            answered.push((i, self.recommend(requests[i], request_threads)));
                        }
                        answered
                    })
                })
                .collect();
            for handle in handles {
                for (i, report) in handle.join().expect("serving worker panicked") {
                    reports[i] = Some(report);
                }
            }
        });
        reports
            .into_iter()
            .map(|r| r.expect("every request answered"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::AtlasConfig;
    use crate::preferences::MigrationPreferences;
    use crate::recommender::CrossoverStrategy;
    use crate::service::AdvisorServiceConfig;
    use atlas_apps::{synthesize, CallGraphShape, SynthOptions, WorkloadGenerator, WorkloadShape};
    use atlas_sim::{ClusterSpec, OverloadModel, Placement, SimConfig, Simulator};
    use atlas_telemetry::{TelemetryStore, TraceId};

    const DAY_S: u64 = 60;

    /// A small synthetic tenant: its fed (not yet bootstrapped) service
    /// plus the day-1 corpus for drift replays.
    fn tenant(seed: u64) -> (AdvisorService, Vec<Trace>) {
        tenant_with(seed, CrossoverStrategy::Uniform)
    }

    /// [`tenant`] with the crossover operator its recommender asks for.
    fn tenant_with(seed: u64, strategy: CrossoverStrategy) -> (AdvisorService, Vec<Trace>) {
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
        atlas.traces_per_api = 20;
        atlas.horizon_steps = 6;
        atlas.recommender = RecommenderConfig {
            population: 8,
            max_visited: 40,
            strategy,
            ..RecommenderConfig::fast()
        };
        let preferences = MigrationPreferences::with_cpu_limit(scenario.burst_cpu_limit(5.0, 0.6));
        let mut config = AdvisorServiceConfig::new(atlas, preferences);
        config.min_detector_samples = 30;
        config.drift_window = 20;
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

    #[test]
    fn hub_is_send_and_sync() {
        fn require<T: Send + Sync>() {}
        require::<AdvisorHub>();
        require::<HubReport>();
    }

    #[test]
    fn concurrent_serving_is_bit_identical_to_serial() {
        let mut hub = AdvisorHub::new();
        let a = hub.add_tenant("a", tenant(11).0);
        let b = hub.add_tenant("b", tenant(12).0);
        hub.bootstrap(a);
        hub.bootstrap(b);
        let requests = [a, b, a, b, a, b];
        let serial: Vec<HubReport> = requests.iter().map(|&t| hub.recommend(t, 1)).collect();
        for threads in [2, 8] {
            hub.threads = threads;
            let concurrent = hub.serve(&requests, 1);
            for (s, c) in serial.iter().zip(&concurrent) {
                assert_eq!(s.report.plans, c.report.plans);
                assert_eq!(s.report.visited, c.report.visited);
                assert_eq!(s.epoch, c.epoch);
            }
        }
    }

    #[test]
    fn relearn_retires_the_epoch_cache() {
        let (service, corpus) = tenant(13);
        let mut hub = AdvisorHub::new();
        hub.set_threads(2);
        let t = hub.add_tenant("drifty", service);
        hub.bootstrap(t);
        assert_eq!(hub.published_epoch(t), Some(1));

        // Warm the epoch-1 cache with a request.
        let before = hub.recommend(t, 1);
        assert_eq!(before.epoch, 1);
        let warm = hub.recommend(t, 1);
        assert_eq!(
            warm.report.eval.unique_evaluations, 0,
            "the second epoch-1 request replays entirely from the shared cache"
        );
        assert_eq!(warm.report.plans, before.report.plans);

        // Drift → relearn → new epoch with a *fresh* cache: the request
        // after the swap must recompute everything against the new model —
        // a stale epoch-1 score cannot survive into epoch 2.
        let api = corpus[0].api().to_string();
        hub.feed(t, slow_replay(&corpus, &api, (DAY_S + 1) * 1_000_000, 5));
        assert_eq!(hub.published_epoch(t), Some(2));
        let after = hub.recommend(t, 1);
        assert_eq!(after.epoch, 2);
        // The epoch-2 cache starts empty: this request computed every plan
        // it visited itself, and the cache's lifetime totals are exactly
        // this one request — nothing was inherited from epoch 1.
        assert_eq!(after.report.eval.unique_evaluations, after.report.visited);
        let lifetime = hub.tenants[t.0].snapshot().unwrap().cache.stats(1);
        assert_eq!(
            lifetime.unique_evaluations, after.report.eval.unique_evaluations,
            "a stale epoch-1 entry survived into the epoch-2 cache"
        );
        assert_eq!(lifetime.cache_hits, after.report.eval.cache_hits);
        // And the answer matches the serial service's own post-drift run.
        let serial = hub.with_tenant(t, |s| s.recommendation().unwrap().plans.clone());
        assert_eq!(after.report.plans, serial);
    }

    /// A retired epoch is reclaimed while serving through `&self`: with no
    /// request in flight, publishing epoch 2 drops the last reference to
    /// the epoch-1 model (and, with it, the epoch-1 cache).
    #[test]
    fn retired_epochs_are_freed_without_exclusive_access() {
        let (service, corpus) = tenant(16);
        let mut hub = AdvisorHub::new();
        let t = hub.add_tenant("drifty", service);
        hub.bootstrap(t);
        let epoch1 = Arc::downgrade(&hub.with_tenant(t, |s| s.shared_model().unwrap()));
        hub.recommend(t, 1);
        assert!(
            epoch1.upgrade().is_some(),
            "epoch 1 is live while published"
        );

        let hub = &hub; // serving-side access only from here on
        let api = corpus[0].api().to_string();
        hub.feed(t, slow_replay(&corpus, &api, (DAY_S + 1) * 1_000_000, 5));
        assert_eq!(hub.published_epoch(t), Some(2));
        assert!(
            epoch1.upgrade().is_none(),
            "the retired epoch-1 model is still retained"
        );
        assert_eq!(hub.recommend(t, 1).epoch, 2);
    }

    /// The hub serves the service's own epoch — the same `Arc`, so the
    /// published generation is the service's — after every kind of round.
    fn assert_serves_the_services_epoch(hub: &AdvisorHub, t: TenantId) {
        let published = hub.tenants[t.0].snapshot().expect("published");
        hub.with_tenant(t, |service| {
            assert!(Arc::ptr_eq(&published, service.epoch().unwrap()));
            assert_eq!(hub.published_epoch(t), Some(service.model_generation()));
        });
    }

    /// A request answers from the snapshot it took — model and cache of one
    /// epoch — even when the next epoch is published before it finishes.
    #[test]
    fn a_request_keeps_its_epoch_across_a_publish() {
        let (service, corpus) = tenant(17);
        let mut hub = AdvisorHub::new();
        let t = hub.add_tenant("drifty", service);
        hub.bootstrap(t);
        assert_serves_the_services_epoch(&hub, t);
        let on_time = hub.recommend(t, 1);
        let slot = &hub.tenants[t.0];
        let taken = slot.snapshot().expect("published at bootstrap");

        let api = corpus[0].api().to_string();
        hub.feed(t, slow_replay(&corpus, &api, (DAY_S + 1) * 1_000_000, 1));
        assert_eq!(
            hub.published_epoch(t),
            Some(1),
            "a quiet feed publishes nothing new"
        );
        assert_serves_the_services_epoch(&hub, t);
        hub.feed(
            t,
            slow_replay(&corpus, &api, (2 * DAY_S + 2) * 1_000_000, 5),
        );
        assert_eq!(hub.published_epoch(t), Some(2));
        assert_serves_the_services_epoch(&hub, t);

        let late = AdvisorHub::answer(slot, t, &taken, 1);
        assert_eq!(late.epoch, 1);
        assert_eq!(late.report.plans, on_time.report.plans);
        assert_eq!(late.report.visited, on_time.report.visited);
        let after = hub.recommend(t, 1);
        let serial = hub.with_tenant(t, |s| s.recommendation().unwrap().clone());
        assert_eq!(after.epoch, 2);
        assert_eq!(after.report.plans, serial.plans);
    }

    /// A tenant that opted into the learned crossover agent gets its serial
    /// service's answer — plans, `visited` and the agent's reward curve —
    /// and pays for it: every request trains an agent of its own.
    #[test]
    fn a_tenant_that_opts_into_rl_gets_its_services_answer() {
        let mut hub = AdvisorHub::new();
        let (service, _) = tenant_with(18, CrossoverStrategy::ReinforcementLearning);
        let t = hub.add_tenant("learned", service);
        hub.bootstrap(t);
        let serial = hub.with_tenant(t, |s| s.recommendation().unwrap().clone());
        assert!(!serial.reward_progression.is_empty());
        for _ in 0..2 {
            let served = hub.recommend(t, 1).report;
            assert_eq!(served.plans, serial.plans);
            assert_eq!(served.visited, serial.visited);
            assert_eq!(served.reward_progression, serial.reward_progression);
            assert!(served.stages.rl_train_ms > 0.0);
        }
    }

    /// A panic under a tenant's service lock poisons the mutex; the hub
    /// recovers the guard, so the tenant still ingests and both tenants
    /// still answer, with the fronts they had before. (ROADMAP item 9 will
    /// change the first half on purpose: the tenant gets quarantined.)
    #[test]
    fn a_panic_under_the_service_lock_does_not_wedge_the_hub() {
        let (sa, corpus) = tenant(17);
        let mut hub = AdvisorHub::new();
        let a = hub.add_tenant("a", sa);
        let b = hub.add_tenant("b", tenant(18).0);
        hub.bootstrap(a);
        hub.bootstrap(b);
        let before_a = hub.recommend(a, 1).report.plans;
        let before_b = hub.recommend(b, 1).report.plans;

        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            hub.with_tenant(a, |_| panic!("maintenance closure failed"))
        }));
        assert!(panicked.is_err());

        // A same-shape replay: ingested under the poisoned lock, no drift.
        let api = corpus[0].api().to_string();
        let events = hub.feed(a, slow_replay(&corpus, &api, (DAY_S + 1) * 1_000_000, 1));
        assert!(matches!(events[0], ServiceEvent::Ingested { traces, .. } if traces > 0));
        assert_eq!(hub.published_epoch(a), Some(1));
        assert_eq!(hub.recommend(a, 1).report.plans, before_a);
        assert_eq!(hub.recommend(b, 1).report.plans, before_b);
    }

    #[test]
    fn feed_all_ingests_tenants_in_parallel_and_in_order() {
        let (sa, corpus_a) = tenant(14);
        let (sb, corpus_b) = tenant(15);
        let mut hub = AdvisorHub::new();
        let a = hub.add_tenant("a", sa);
        let b = hub.add_tenant("b", sb);
        hub.bootstrap(a);
        hub.bootstrap(b);
        let api_a = corpus_a[0].api().to_string();
        let api_b = corpus_b[0].api().to_string();
        // Two same-shape replays of tenant a cut to different lengths around
        // a 5x drift of tenant b, so every batch has its own size and only
        // the middle one relearns.
        let mut first = slow_replay(&corpus_a, &api_a, (DAY_S + 1) * 1_000_000, 1);
        first.truncate(first.len() - 1);
        let drift = slow_replay(&corpus_b, &api_b, (DAY_S + 1) * 1_000_000, 5);
        let mut last = slow_replay(&corpus_a, &api_a, (2 * DAY_S + 2) * 1_000_000, 1);
        last.truncate(last.len() / 2);
        let sizes = [first.len(), drift.len(), last.len()];
        assert!(sizes[0] != sizes[1] && sizes[1] != sizes[2] && sizes[0] != sizes[2]);

        let results = hub.feed_all(vec![(a, first), (b, drift), (a, last)]);
        assert_eq!(results.len(), 3);
        for (events, &size) in results.iter().zip(&sizes) {
            assert!(
                matches!(events[0], ServiceEvent::Ingested { traces, .. } if traces == size),
                "a result belongs to its own batch: {:?} vs {size} traces",
                events[0]
            );
        }
        let relearned: Vec<bool> = results
            .iter()
            .map(|events| {
                events
                    .iter()
                    .any(|e| matches!(e, ServiceEvent::Relearned { .. }))
            })
            .collect();
        assert_eq!(relearned, [false, true, false]);
        // Same-shape replays must not drift tenant a; the drift moved b.
        assert_eq!(hub.published_epoch(a), Some(1));
        assert_eq!(hub.published_epoch(b), Some(2));
    }
}
