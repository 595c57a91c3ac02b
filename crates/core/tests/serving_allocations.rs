//! A hub request shares the epoch's trained crossover agent instead of
//! copying it: a byte-counting global allocator sees one whole request
//! allocate less than the actor's weights alone occupy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use atlas_apps::{synthesize, SynthOptions, WorkloadGenerator};
use atlas_core::{
    AdvisorHub, AdvisorService, AdvisorServiceConfig, AtlasConfig, MigrationPreferences,
    RecommenderConfig, RlCrossoverConfig,
};
use atlas_sim::{OverloadModel, Placement, SimConfig, Simulator};
use atlas_telemetry::TelemetryStore;

thread_local! {
    /// Bytes requested by the current thread (const-initialised and
    /// without a destructor, so touching it never allocates itself).
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local counter
// bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.with(|bytes| bytes.set(bytes.get() + layout.size()));
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A bootstrapped one-tenant hub over a 12-component application whose
/// recommender trains the paper's actor (three hidden layers of 128).
fn hub() -> (AdvisorHub, atlas_core::TenantId) {
    let options = SynthOptions {
        components: 12,
        apis: 2,
        call_depth: 3,
        seed: 5,
        ..SynthOptions::default()
    };
    let scenario = synthesize(options).unwrap();
    let current = Placement::all_onprem(scenario.topology.component_count());
    let mut workload = scenario.workload.clone();
    workload.profile.day_seconds = 30;
    let schedule = WorkloadGenerator::new(workload)
        .generate(&scenario.topology)
        .unwrap();
    let store = TelemetryStore::new();
    let sim_config = SimConfig {
        overload: OverloadModel::disabled(),
        ..SimConfig::default()
    };
    Simulator::new(scenario.topology.clone(), current.clone(), sim_config).run(&schedule, &store);
    let mut corpus: Vec<_> = store
        .apis()
        .into_iter()
        .flat_map(|api| store.traces_for_api(&api))
        .collect();
    corpus.sort_by_key(|t| (t.root().start_us, t.trace_id));

    let mut atlas = AtlasConfig::new(scenario.component_index(), scenario.stateful_names());
    atlas.sites = Some(scenario.catalog.clone());
    atlas.traces_per_api = 10;
    atlas.horizon_steps = 4;
    atlas.recommender = RecommenderConfig {
        population: 8,
        max_visited: 40,
        rl: RlCrossoverConfig::default(),
        threads: 1,
        ..RecommenderConfig::fast()
    };
    let config = AdvisorServiceConfig::new(atlas, MigrationPreferences::default());
    let mut service = AdvisorService::new(config, current);
    service.feed(corpus);
    let mut hub = AdvisorHub::new();
    let tenant = hub.add_tenant("tenant", service);
    hub.bootstrap(tenant);
    (hub, tenant)
}

#[test]
fn a_hub_request_allocates_less_than_the_actor_it_samples() {
    let (hub, tenant) = hub();
    // The actor is 24 → 128 → 128 → 128 → 12: weights and biases, as f64.
    let weights = (24 * 128 + 128 + 2 * (128 * 128 + 128) + 128 * 12 + 12) * 8;

    for _ in 0..2 {
        let before = BYTES.with(Cell::get);
        let report = hub.recommend(tenant, 1);
        let allocated = BYTES.with(Cell::get) - before;
        assert!(
            !report.report.reward_progression.is_empty(),
            "sampled the learned agent"
        );
        assert!(
            allocated < weights,
            "one request allocated {allocated} bytes; the actor's weights are {weights}"
        );
    }
}
