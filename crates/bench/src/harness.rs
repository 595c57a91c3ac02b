//! Shared experiment set-up: simulate, learn, compare.

use atlas_apps::{
    hotel_reservation, social_network, synthesize, SocialNetworkOptions, SynthOptions,
    WorkloadGenerator, WorkloadOptions,
};
use atlas_baselines::BaselineContext;
use atlas_cloud::{ResourceEstimator, ScalingEstimator};
use atlas_core::{
    Atlas, AtlasConfig, MigrationPlan, MigrationPreferences, PlanEvaluator, QualityModel,
    RecommenderConfig,
};
use atlas_sim::{
    AppTopology, ClusterSpec, OverloadModel, Placement, RequestSchedule, SimConfig, SimReport,
    Simulator, SiteCatalog, SiteId,
};
use atlas_telemetry::{TelemetryStore, Trace, TraceId};

/// Which application an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Application {
    /// The social network (default in the paper).
    SocialNetwork,
    /// The hotel reservation system.
    HotelReservation,
    /// A procedurally generated application (see [`atlas_apps::synth`]): the
    /// topology and its paired workload are derived deterministically from
    /// the options.
    Synthetic(SynthOptions),
}

impl Application {
    /// The topology, learning workload and site catalog of this
    /// application. The seed applications run on the paper's default
    /// 2-entry catalog; synthetic scenarios carry their generated one.
    pub fn scenario_parts(&self) -> (AppTopology, WorkloadOptions, SiteCatalog) {
        match self {
            Application::SocialNetwork => (
                social_network(SocialNetworkOptions::default()),
                WorkloadOptions::social_network_default(),
                SiteCatalog::default(),
            ),
            Application::HotelReservation => (
                hotel_reservation(),
                WorkloadOptions::hotel_reservation_default(),
                SiteCatalog::default(),
            ),
            Application::Synthetic(options) => {
                let scenario = synthesize(*options).expect("valid synthetic options");
                (scenario.topology, scenario.workload, scenario.catalog)
            }
        }
    }
}

/// Options of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// Which application to use.
    pub application: Application,
    /// Seed for the workload and the simulator.
    pub seed: u64,
    /// Burst factor of the *expected* traffic relative to the learning
    /// workload (the paper evaluates a 5× surge).
    pub burst: f64,
    /// On-prem CPU cores available during the burst (forces offloading).
    pub onprem_cpu_limit: f64,
    /// Search budget: candidate plans visited by the multi-plan methods.
    pub max_visited: usize,
    /// Population size of the genetic methods.
    pub population: usize,
    /// Whether to mark the user databases as non-relocatable (the paper pins
    /// user-generated data on-prem for regulatory compliance; synthetic
    /// applications pin their first store).
    pub pin_user_data: bool,
    /// Override of the compressed-day length in seconds for *both* the
    /// learning workload and the plan-measurement replays (`None` keeps the
    /// application default; the two must match for learned estimates to be
    /// comparable with measurements). Scale benches shorten the day so large
    /// synthetic scenarios run quickly.
    pub learn_day_seconds: Option<u64>,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        Self {
            application: Application::SocialNetwork,
            seed: 7,
            burst: 5.0,
            onprem_cpu_limit: 14.0,
            max_visited: 1_500,
            population: 40,
            pin_user_data: true,
            learn_day_seconds: None,
        }
    }
}

impl ExperimentOptions {
    /// A configuration small enough for CI-style runs.
    pub fn quick() -> Self {
        Self {
            max_visited: 600,
            population: 24,
            ..Self::default()
        }
    }
}

/// A fully set-up experiment: simulated telemetry, learned Atlas, baseline
/// context and the quality model used to compare plans.
pub struct Experiment {
    /// The application topology.
    pub topology: AppTopology,
    /// The telemetry collected during the learning period.
    pub store: TelemetryStore,
    /// The learned Atlas advisor.
    pub atlas: Atlas,
    /// The current (all on-prem) placement.
    pub current: Placement,
    /// The owner's preferences used throughout the comparison.
    pub preferences: MigrationPreferences,
    /// Quality model shared by all method comparisons.
    pub quality: QualityModel,
    /// Context consumed by the baseline advisors.
    pub baseline_ctx: BaselineContext,
    /// The site catalog plans range over (2 entries for the seed apps;
    /// synthetic scenarios carry their generated N-site catalog).
    pub catalog: SiteCatalog,
    /// The application's base workload with the `learn_day_seconds` override
    /// applied (reseed/burst it via [`Experiment::workload_with`]); cached at
    /// set-up so synthetic scenarios are not regenerated per measurement.
    pub workload: WorkloadOptions,
    /// The experiment options.
    pub options: ExperimentOptions,
}

impl Experiment {
    /// Simulate the learning period, learn Atlas, and prepare the baselines.
    pub fn set_up(options: ExperimentOptions) -> Self {
        let (topology, mut base_workload, catalog) = options.application.scenario_parts();
        if let Some(day_seconds) = options.learn_day_seconds {
            base_workload.profile.day_seconds = day_seconds;
        }
        let workload = base_workload.clone().with_seed(options.seed);

        let n = topology.component_count();
        let current = Placement::all_onprem(n);
        let store = TelemetryStore::new();
        let sim = Simulator::new(
            topology.clone(),
            current.clone(),
            SimConfig {
                cluster: ClusterSpec::default(),
                overload: OverloadModel::disabled(),
                metric_window_s: 5,
                seed: options.seed,
            },
        );
        let schedule = WorkloadGenerator::new(workload)
            .generate(&topology)
            .expect("workload matches the topology");
        sim.run(&schedule, &store);

        let component_index: Vec<String> = topology
            .components()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let stateful: Vec<String> = topology
            .stateful_components()
            .into_iter()
            .map(|c| topology.component_name(c).to_string())
            .collect();

        let mut config = AtlasConfig::new(component_index.clone(), stateful);
        config.expected_traffic_scale = options.burst;
        config.traces_per_api = 40;
        config.horizon_steps = 12;
        config.sites = Some(catalog.clone());
        config.recommender = RecommenderConfig {
            population: options.population,
            max_visited: options.max_visited,
            ..RecommenderConfig::fast()
        };
        let mut atlas = Atlas::new(config);
        atlas.learn(&store);

        let mut preferences = MigrationPreferences::with_cpu_limit(options.onprem_cpu_limit);
        if options.pin_user_data {
            for name in [
                "UserMongoDB",
                "PostStorageMongoDB",
                "MediaMongoDB",
                "ReserveMongoDB",
                // Synthetic applications pin their first store.
                "Store000",
            ] {
                if let Some(c) = topology.component_id(name) {
                    preferences = preferences.pin(c, SiteId::ON_PREM);
                }
            }
        }

        let quality = atlas.quality_model(current.clone(), preferences.clone());
        let demand =
            ScalingEstimator::with_scale(options.burst).estimate(&store, &component_index, 12, 600);
        let baseline_ctx = BaselineContext::from_store(
            &store,
            component_index,
            demand,
            preferences.clone(),
            &catalog,
        );

        Self {
            topology,
            store,
            atlas,
            current,
            preferences,
            quality,
            baseline_ctx,
            catalog,
            workload: base_workload,
            options,
        }
    }

    /// The experiment's base workload with a seed and burst factor applied.
    pub fn workload_with(&self, seed: u64, burst: f64) -> WorkloadOptions {
        self.workload.clone().with_seed(seed).with_burst(burst)
    }

    /// A fresh plan evaluator over the experiment's quality model (one
    /// worker per core). A figure shares one of these so plans scored by
    /// several methods are evaluated once.
    pub fn evaluator(&self) -> PlanEvaluator<'_> {
        PlanEvaluator::new(&self.quality)
    }

    /// Names of the user-facing APIs of the application.
    pub fn api_names(&self) -> Vec<String> {
        self.topology
            .apis()
            .iter()
            .map(|a| a.endpoint.clone())
            .collect()
    }

    /// "Ground truth" latency of each API under a candidate plan: re-run the
    /// simulator with the placement applied and a burst workload, standing
    /// in for the paper's actual migration + measurement.
    pub fn measure_plan(&self, plan: &MigrationPlan, burst: f64) -> SimReport {
        let sim = Simulator::new(
            self.topology.clone(),
            plan.clone(),
            SimConfig {
                cluster: ClusterSpec::default(),
                overload: OverloadModel::disabled(),
                metric_window_s: 5,
                seed: self.options.seed + 1,
            },
        )
        // Multi-region plans pay each ordered pair's own link.
        .with_site_network(self.catalog.network().clone());
        let schedule = WorkloadGenerator::new(self.workload_with(self.options.seed + 1, burst))
            .generate(&self.topology)
            .expect("workload matches the topology");
        let throwaway = TelemetryStore::new();
        sim.run(&schedule, &throwaway)
    }

    /// The burst workload replayed against the *current* (all on-prem)
    /// placement with the real on-prem capacity, reproducing the overload of
    /// paper Figure 2.
    pub fn measure_overloaded_baseline(&self, onprem_cores: f64) -> SimReport {
        let sim = Simulator::new(
            self.topology.clone(),
            self.current.clone(),
            SimConfig {
                cluster: ClusterSpec::small(onprem_cores),
                overload: OverloadModel::default(),
                metric_window_s: 5,
                seed: self.options.seed + 2,
            },
        );
        let schedule = self.burst_schedule(self.options.burst, self.options.seed + 2);
        let throwaway = TelemetryStore::new();
        sim.run(&schedule, &throwaway)
    }

    /// The application's own workload at `burst` and `seed`, as a request
    /// schedule (the replay of drift experiments).
    pub fn burst_schedule(&self, burst: f64, seed: u64) -> RequestSchedule {
        WorkloadGenerator::new(self.workload_with(seed, burst))
            .generate(&self.topology)
            .expect("workload matches the topology")
    }
}

/// All traces of a store, in root-start order (the replay stream).
pub fn corpus_of(store: &TelemetryStore) -> Vec<Trace> {
    let mut traces: Vec<Trace> = store
        .apis()
        .into_iter()
        .flat_map(|api| store.traces_for_api(&api))
        .collect();
    traces.sort_by_key(|t| (t.root().start_us, t.trace_id));
    traces
}

/// Shift a corpus forward in time by `offset_us` and tag its trace ids (so
/// a day-2 corpus generated from its own epoch follows day 1 without id
/// collisions).
pub fn shift_corpus(traces: &mut [Trace], offset_us: u64, id_tag: u64) {
    for trace in traces.iter_mut() {
        trace.trace_id = TraceId(trace.trace_id.0 ^ id_tag);
        for node in &mut trace.nodes {
            node.span.trace_id = trace.trace_id;
            node.span.start_us += offset_us;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiment_sets_up_consistently() {
        let exp = Experiment::set_up(ExperimentOptions {
            max_visited: 200,
            population: 12,
            ..ExperimentOptions::quick()
        });
        assert_eq!(exp.api_names().len(), 9);
        assert_eq!(exp.quality.component_count(), 29);
        assert_eq!(exp.baseline_ctx.component_count(), 29);
        assert!(exp.atlas.is_learned());
        // The identity plan violates the CPU limit under the 5× burst.
        let identity = MigrationPlan::all_onprem(29);
        assert!(!exp.quality.is_feasible(&identity));
    }

    #[test]
    fn synthetic_applications_set_up_like_the_seed_apps() {
        let synth = SynthOptions {
            components: 24,
            apis: 3,
            seed: 5,
            ..SynthOptions::default()
        };
        let exp = Experiment::set_up(ExperimentOptions {
            application: Application::Synthetic(synth),
            onprem_cpu_limit: 3.0,
            learn_day_seconds: Some(45),
            max_visited: 150,
            population: 10,
            ..ExperimentOptions::quick()
        });
        assert_eq!(exp.quality.component_count(), 24);
        assert_eq!(exp.baseline_ctx.component_count(), 24);
        assert_eq!(exp.api_names().len(), 3);
        assert!(exp.atlas.is_learned());
        // The first store is pinned on-prem like the seed apps' user data.
        let store = exp.topology.component_id("Store000").unwrap();
        assert_eq!(
            exp.preferences.pinned.get(&store),
            Some(&atlas_sim::SiteId::ON_PREM)
        );
        // Measuring a plan replays the scenario's own workload.
        let plan = MigrationPlan::all_onprem(24);
        let report = exp.measure_plan(&plan, 1.0);
        assert!(report.success_count() > 0);
    }

    #[test]
    fn burst_schedules_replay_the_experiments_own_application() {
        let exp = Experiment::set_up(ExperimentOptions {
            application: Application::HotelReservation,
            max_visited: 200,
            population: 12,
            ..ExperimentOptions::quick()
        });
        assert!(!exp.burst_schedule(1.0, 77).is_empty());
    }

    #[test]
    fn measuring_a_plan_returns_latencies_for_every_api() {
        let exp = Experiment::set_up(ExperimentOptions {
            max_visited: 200,
            population: 12,
            ..ExperimentOptions::quick()
        });
        let plan = MigrationPlan::all_onprem(29);
        let report = exp.measure_plan(&plan, 1.0);
        for api in exp.api_names() {
            assert!(
                report.api_mean_latency_ms(&api).unwrap_or(0.0) > 0.0,
                "{api}"
            );
        }
    }
}
