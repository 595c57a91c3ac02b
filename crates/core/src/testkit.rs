//! Test support: a quality model learned from one simulated, compressed day
//! of a procedurally generated application, for the unit tests that need
//! more traces, components or sites than the hand-built fixtures carry.

use atlas_apps::{synthesize, CallGraphShape, SynthOptions, SynthScenario, WorkloadGenerator};
use atlas_sim::{ClusterSpec, OverloadModel, Placement, SimConfig, Simulator, SiteId};
use atlas_telemetry::TelemetryStore;

use crate::advisor::{Atlas, AtlasConfig};
use crate::plan::MigrationPlan;
use crate::preferences::MigrationPreferences;
use crate::quality::QualityModel;

/// A plan from raw site indices: `plan(&[0, 1, 0])` offloads component 1 to
/// site 1.
pub(crate) fn plan(sites: &[u16]) -> MigrationPlan {
    MigrationPlan::from_sites(sites.iter().map(|&s| SiteId(s)).collect())
}

/// Representative traces retained per API.
pub(crate) const TRACES_PER_API: usize = 40;

/// A generated application, the telemetry of its simulated day and the
/// model learned from it.
pub(crate) struct Generated {
    pub scenario: SynthScenario,
    pub store: TelemetryStore,
    pub model: QualityModel,
}

/// Generate a layered application of `components` components over `sites`
/// sites, simulate `day_seconds` of its workload on an all-on-prem
/// placement and learn a quality model under a CPU limit that forces
/// offloading.
pub(crate) fn generated(components: usize, sites: usize, day_seconds: u64, seed: u64) -> Generated {
    let scenario = synthesize(SynthOptions {
        components,
        shape: CallGraphShape::Layered,
        stateful_fraction: 0.2,
        apis: (components / 8).clamp(3, 12),
        call_depth: 4,
        site_count: sites,
        seed,
        ..SynthOptions::default()
    })
    .expect("valid synthetic options");
    let current = Placement::all_onprem(components);
    let store = TelemetryStore::new();
    let mut workload = scenario.workload.clone();
    workload.profile.day_seconds = day_seconds;
    let schedule = WorkloadGenerator::new(workload)
        .generate(&scenario.topology)
        .expect("the generated workload names the generated APIs");
    Simulator::new(
        scenario.topology.clone(),
        current.clone(),
        SimConfig {
            cluster: ClusterSpec::default(),
            overload: OverloadModel::disabled(),
            metric_window_s: 5,
            seed,
        },
    )
    .run(&schedule, &store);

    let mut config = AtlasConfig::new(scenario.component_index(), scenario.stateful_names());
    config.sites = Some(scenario.catalog.clone());
    config.traces_per_api = TRACES_PER_API;
    config.horizon_steps = 8;
    let mut atlas = Atlas::new(config);
    atlas.learn(&store);
    let preferences = MigrationPreferences::with_cpu_limit(scenario.burst_cpu_limit(5.0, 0.6));
    let model = atlas.quality_model(current, preferences);
    Generated {
        scenario,
        store,
        model,
    }
}
