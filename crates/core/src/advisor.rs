//! The end-to-end advisor: application learning → recommendation →
//! post-migration monitoring (paper Figure 5).
//!
//! # Example
//!
//! Learn the social-network application from simulated telemetry and ask
//! Atlas for Pareto-optimal migration plans under a CPU constraint (a
//! compressed version of `examples/quickstart.rs`):
//!
//! ```
//! use atlas_apps::{social_network, SocialNetworkOptions, WorkloadGenerator, WorkloadOptions};
//! use atlas_core::{Atlas, AtlasConfig, MigrationPreferences, RecommenderConfig};
//! use atlas_sim::{ClusterSpec, OverloadModel, Placement, SimConfig, Simulator};
//! use atlas_telemetry::TelemetryStore;
//!
//! // Collect learning telemetry by simulating the current deployment.
//! let app = social_network(SocialNetworkOptions::default());
//! let current = Placement::all_onprem(app.component_count());
//! let mut options = WorkloadOptions::social_network_default().with_seed(7);
//! options.profile.day_seconds = 60; // compressed day keeps the example fast
//! let schedule = WorkloadGenerator::new(options).generate(&app).unwrap();
//! let store = TelemetryStore::new();
//! Simulator::new(
//!     app.clone(),
//!     current.clone(),
//!     SimConfig {
//!         overload: OverloadModel::disabled(),
//!         ..SimConfig::default()
//!     },
//! )
//! .run(&schedule, &store);
//!
//! // Stage 1 — application learning.
//! let component_index: Vec<String> =
//!     app.components().iter().map(|c| c.name.clone()).collect();
//! let stateful: Vec<String> = app
//!     .stateful_components()
//!     .into_iter()
//!     .map(|c| app.component_name(c).to_string())
//!     .collect();
//! let mut config = AtlasConfig::new(component_index, stateful);
//! config.recommender = RecommenderConfig::fast();
//! config.traces_per_api = 30;
//! config.horizon_steps = 8;
//! let mut atlas = Atlas::new(config);
//! atlas.learn(&store);
//!
//! // Stage 2 — recommendation under a 12-core on-prem CPU limit. All plan
//! // scoring runs through the shared cached/batched evaluation layer
//! // ([`crate::eval`]); the report carries its statistics.
//! let report = atlas.recommend(current, MigrationPreferences::with_cpu_limit(12.0));
//! assert!(!report.plans.is_empty());
//! assert!(report.plans.iter().all(|p| p.quality.feasible));
//! assert_eq!(report.visited, report.eval.unique_evaluations);
//! assert!(report.eval.cache_hits > 0);
//! ```

use std::sync::Arc;

use atlas_cloud::{ResourceDemand, ResourceEstimator, ScalingEstimator};
use atlas_sim::{Placement, SiteCatalog};
use atlas_telemetry::TelemetryStore;

use crate::footprint::{FootprintLearner, NetworkFootprint};
use crate::hierarchy::Dendrogram;
use crate::preferences::MigrationPreferences;
use crate::profile::ApplicationProfile;
use crate::quality::QualityModel;
use crate::recommender::{RecommendationReport, Recommender, RecommenderConfig};

/// Static configuration of an Atlas deployment.
#[derive(Debug, Clone)]
pub struct AtlasConfig {
    /// Component names in plan-index order (from the deployment manifest).
    pub component_index: Vec<String>,
    /// Names of the stateful components (those with persistent volumes).
    pub stateful_components: Vec<String>,
    /// The sites components can be placed at: per-site capacity and pricing
    /// over per-ordered-pair links. `None` (the default) means
    /// [`SiteCatalog::default`], the paper's two-site testbed; pass
    /// `Some(SiteCatalog::hybrid(&cluster, pricing))` for other links or
    /// prices.
    pub sites: Option<SiteCatalog>,
    /// Expected traffic growth relative to the learning period (the paper's
    /// burst scenario uses 5×).
    pub expected_traffic_scale: f64,
    /// Number of traces retained per API for delay injection.
    pub traces_per_api: usize,
    /// Steps and step length of the cost/constraint horizon.
    pub horizon_steps: usize,
    /// Length of one horizon step in seconds.
    pub horizon_step_s: u64,
    /// Recommender settings.
    pub recommender: RecommenderConfig,
}

impl AtlasConfig {
    /// A configuration for an application with the given component names and
    /// stateful subset, using defaults everywhere else.
    pub fn new(component_index: Vec<String>, stateful_components: Vec<String>) -> Self {
        Self {
            component_index,
            stateful_components,
            sites: None,
            expected_traffic_scale: 5.0,
            traces_per_api: 100,
            horizon_steps: 24,
            horizon_step_s: 600,
            recommender: RecommenderConfig::default(),
        }
    }
}

/// A share of one learned input of the advisor.
///
/// # Panics
///
/// Panics if [`Atlas::learn`] has not been called.
fn learned<T>(field: &Option<Arc<T>>) -> Arc<T> {
    Arc::clone(field.as_ref().expect("call Atlas::learn first"))
}

/// The Atlas advisor.
pub struct Atlas {
    config: AtlasConfig,
    profile: Option<Arc<ApplicationProfile>>,
    footprint: Option<Arc<NetworkFootprint>>,
    demand: Option<Arc<ResourceDemand>>,
}

impl Atlas {
    /// Create an advisor with the given configuration. `sites: None` is
    /// resolved here, once, to the paper's testbed.
    pub fn new(mut config: AtlasConfig) -> Self {
        config.sites.get_or_insert_with(SiteCatalog::default);
        Self {
            config,
            profile: None,
            footprint: None,
            demand: None,
        }
    }

    /// The configuration in use (its `sites` is always `Some`).
    pub fn config(&self) -> &AtlasConfig {
        &self.config
    }

    /// **Stage 1 — application learning**: query the telemetry store and
    /// learn the API/component profiles, the network footprints and the
    /// expected resource demand.
    pub fn learn(&mut self, store: &TelemetryStore) {
        self.learn_profile(store);
        self.footprint = Some(Arc::new(FootprintLearner::default().learn(store)));
        self.demand = Some(Arc::new(
            ScalingEstimator::with_scale(self.config.expected_traffic_scale).estimate(
                store,
                &self.config.component_index,
                self.config.horizon_steps,
                self.config.horizon_step_s,
            ),
        ));
    }

    /// Relearn only the application profile from `store`, holding the
    /// network footprint and resource demand of the last [`Atlas::learn`]:
    /// what a resident advisor does when drift fires.
    pub fn learn_profile(&mut self, store: &TelemetryStore) {
        self.profile = Some(Arc::new(ApplicationProfile::learn(
            store,
            &self.config.stateful_components,
            self.config.traces_per_api,
        )));
    }

    /// Whether [`Atlas::learn`] has been called.
    pub fn is_learned(&self) -> bool {
        self.profile.is_some()
    }

    /// The learned application profile.
    ///
    /// # Panics
    ///
    /// Panics if [`Atlas::learn`] has not been called.
    pub fn profile(&self) -> &ApplicationProfile {
        self.profile.as_deref().expect("call Atlas::learn first")
    }

    /// The learned network footprint.
    ///
    /// # Panics
    ///
    /// Panics if [`Atlas::learn`] has not been called.
    pub fn footprint(&self) -> &NetworkFootprint {
        self.footprint.as_deref().expect("call Atlas::learn first")
    }

    /// The expected resource demand over the horizon.
    ///
    /// # Panics
    ///
    /// Panics if [`Atlas::learn`] has not been called.
    pub fn demand(&self) -> &ResourceDemand {
        self.demand.as_deref().expect("call Atlas::learn first")
    }

    /// The catalog in effect.
    fn catalog(&self) -> &SiteCatalog {
        let sites = self.config.sites.as_ref();
        sites.expect("Atlas::new resolves `sites: None` to the default catalog")
    }

    /// Build the quality model for a current placement and a set of owner
    /// preferences (reusable across recommendation rounds), over the sites
    /// of [`AtlasConfig::sites`]. Its estimate of an executed plan is what
    /// **stage 3 — post-migration monitoring** arms a drift detector
    /// against ([`DriftDetector::from_model`]).
    ///
    /// The model shares the learned profile, footprint and demand with this
    /// advisor (one [`Arc`] each) rather than copying them: building a
    /// model pays only for compiling it.
    ///
    /// [`DriftDetector::from_model`]: crate::monitor::DriftDetector::from_model
    pub fn quality_model(
        &self,
        current: Placement,
        preferences: MigrationPreferences,
    ) -> QualityModel {
        QualityModel::for_catalog(
            learned(&self.profile),
            learned(&self.footprint),
            self.catalog(),
            learned(&self.demand),
            preferences,
            current,
            self.config.component_index.clone(),
        )
    }

    /// **Stage 2 — migration recommendation**: run the genetic algorithm
    /// (with the crossover [`RecommenderConfig::strategy`](crate::recommender::RecommenderConfig)
    /// selects) and return the Pareto-optimal plans.
    ///
    /// All candidate scoring flows through the cached, batched,
    /// thread-parallel [`crate::eval::PlanEvaluator`]
    /// ([`RecommenderConfig::threads`](crate::recommender::RecommenderConfig)
    /// controls the fan-out); the returned report's `eval` field carries the
    /// evaluation statistics.
    pub fn recommend(
        &self,
        current: Placement,
        preferences: MigrationPreferences,
    ) -> RecommendationReport {
        let quality = self.quality_model(current, preferences);
        Recommender::new(&quality, self.config.recommender.clone()).recommend()
    }

    /// Organise a recommendation report as a dendrogram for hierarchical
    /// plan selection (§4.2.2).
    pub fn organize(&self, report: &RecommendationReport) -> Dendrogram {
        let points: Vec<Vec<f64>> = report
            .plans
            .iter()
            .map(|p| p.quality.objectives().to_vec())
            .collect();
        Dendrogram::build(&points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::DriftDetector;
    use crate::MigrationPlan;
    use atlas_apps::{social_network, SocialNetworkOptions, WorkloadGenerator, WorkloadOptions};
    use atlas_sim::{ClusterSpec, OverloadModel, SimConfig, Simulator};

    fn learned_atlas() -> (Atlas, Placement) {
        let app = social_network(SocialNetworkOptions::default());
        let n = app.component_count();
        let current = Placement::all_onprem(n);
        let sim = Simulator::new(
            app.clone(),
            current.clone(),
            SimConfig {
                cluster: ClusterSpec::default(),
                overload: OverloadModel::disabled(),
                metric_window_s: 5,
                seed: 12,
            },
        );
        let schedule =
            WorkloadGenerator::new(WorkloadOptions::social_network_default().with_seed(12))
                .generate(&app)
                .unwrap();
        let store = TelemetryStore::new();
        sim.run(&schedule, &store);

        let component_index: Vec<String> =
            app.components().iter().map(|c| c.name.clone()).collect();
        let stateful: Vec<String> = app
            .stateful_components()
            .into_iter()
            .map(|c| app.component_name(c).to_string())
            .collect();
        let mut config = AtlasConfig::new(component_index, stateful);
        config.recommender = RecommenderConfig::fast();
        config.traces_per_api = 30;
        config.horizon_steps = 8;
        let mut atlas = Atlas::new(config);
        atlas.learn(&store);
        (atlas, current)
    }

    #[test]
    fn learning_populates_all_stages() {
        let (atlas, _) = learned_atlas();
        assert!(atlas.is_learned());
        assert_eq!(atlas.profile().apis.len(), 9);
        assert!(!atlas.footprint().is_empty());
        assert_eq!(atlas.demand().component_count(), 29);
    }

    #[test]
    fn a_model_shares_the_learned_state_rather_than_copying_it() {
        let (atlas, current) = learned_atlas();
        let model = atlas.quality_model(current, MigrationPreferences::default());
        assert!(std::ptr::eq(atlas.profile(), model.profile()));
        assert!(std::ptr::eq(atlas.footprint(), model.footprint()));
        assert!(std::ptr::eq(atlas.demand(), &*model.demand));
    }

    #[test]
    fn end_to_end_recommendation_produces_feasible_pareto_plans() {
        let (atlas, current) = learned_atlas();
        let preferences = MigrationPreferences::with_cpu_limit(12.0);
        let report = atlas.recommend(current, preferences);
        assert!(!report.plans.is_empty());
        assert!(report.plans.iter().all(|p| p.quality.feasible));
        let dendrogram = atlas.organize(&report);
        assert_eq!(dendrogram.len(), report.plans.len());
    }

    #[test]
    fn drift_detector_round_trip() {
        let (atlas, current) = learned_atlas();
        let model = atlas.quality_model(current, MigrationPreferences::default());
        let plan = MigrationPlan::all_onprem(29);
        // Reality matches the approximation → low divergence, no drift.
        let approx_like: Vec<f64> = atlas.profile().apis["/composeAPI"].latency_samples_ms();
        let detector = DriftDetector::from_model(&model, "/composeAPI", &plan, approx_like.clone());
        assert!(!detector.check(&approx_like).drifted);
        // A large shift is flagged.
        let shifted: Vec<f64> = approx_like.iter().map(|l| l * 6.0 + 80.0).collect();
        assert!(detector.check(&shifted).drifted);
    }

    #[test]
    #[should_panic(expected = "call Atlas::learn first")]
    fn using_an_unlearned_advisor_panics() {
        let atlas = Atlas::new(AtlasConfig::new(vec!["A".to_string()], vec![]));
        let _ = atlas.profile();
    }
}
