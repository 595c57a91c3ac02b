//! Migration preferences: the application owner's constraints and weights
//! (paper §3 and Eq. 4).

use std::collections::HashMap;

use atlas_sim::{ComponentId, SiteId};

/// The application owner's migration preferences.
///
/// These drive both the constraints of Eq. 4 (placement pins, on-prem
/// resource limits, budget) and the per-API weights `τ_A` used by the
/// performance and availability models (critical APIs count double by
/// default).
///
/// Placement pins come in two kinds: [`MigrationPreferences::pin`] fixes a
/// component to one site, and [`MigrationPreferences::pin_to_sites`]
/// restricts a component to a *set* of allowed sites (e.g. "any region
/// inside the jurisdiction").
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationPreferences {
    /// APIs that are critical to the business; weighted
    /// [`MigrationPreferences::critical_weight`]× in the quality models.
    pub critical_apis: Vec<String>,
    /// Weight multiplier applied to critical APIs (the paper defaults to 2).
    pub critical_weight: f64,
    /// Hard placement constraints, e.g. data that must stay on-prem for
    /// regulatory compliance (`M_placement`): component → required site.
    pub pinned: HashMap<ComponentId, SiteId>,
    /// Site-set placement constraints: component → non-empty list of allowed
    /// sites. The first entry is the site searches snap a violating plan to.
    pub allowed_sites: HashMap<ComponentId, Vec<SiteId>>,
    /// Maximum CPU cores the application may keep using on-prem
    /// (`M^CPU_onprem-limit`).
    pub onprem_cpu_limit: f64,
    /// Maximum memory (GB) the application may keep using on-prem.
    pub onprem_memory_limit_gb: f64,
    /// Maximum storage (GB) the application may keep using on-prem.
    pub onprem_storage_limit_gb: f64,
    /// Cloud budget over the period of interest (`M_budget`); `None` means
    /// unlimited (the paper's default).
    pub budget: Option<f64>,
}

impl Default for MigrationPreferences {
    fn default() -> Self {
        Self {
            critical_apis: Vec::new(),
            critical_weight: 2.0,
            pinned: HashMap::new(),
            allowed_sites: HashMap::new(),
            onprem_cpu_limit: f64::INFINITY,
            onprem_memory_limit_gb: f64::INFINITY,
            onprem_storage_limit_gb: f64::INFINITY,
            budget: None,
        }
    }
}

impl MigrationPreferences {
    /// Preferences with the given on-prem CPU limit and everything else at
    /// its default.
    pub fn with_cpu_limit(limit: f64) -> Self {
        Self {
            onprem_cpu_limit: limit,
            ..Self::default()
        }
    }

    /// Builder: mark an API as critical.
    pub fn critical(mut self, api: impl Into<String>) -> Self {
        self.critical_apis.push(api.into());
        self
    }

    /// Builder: pin a component to a site (e.g. regulatory data that must
    /// stay on-prem).
    pub fn pin(mut self, component: ComponentId, site: impl Into<SiteId>) -> Self {
        self.pinned.insert(component, site.into());
        self
    }

    /// Builder: restrict a component to a set of allowed sites. The first
    /// entry is the site searches snap a violating plan to.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is empty.
    pub fn pin_to_sites(mut self, component: ComponentId, sites: Vec<SiteId>) -> Self {
        assert!(!sites.is_empty(), "a site-set pin needs at least one site");
        self.allowed_sites.insert(component, sites);
        self
    }

    /// Builder: set the cloud budget.
    pub fn with_budget(mut self, budget: f64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Builder: set the on-prem memory limit.
    pub fn with_memory_limit(mut self, gb: f64) -> Self {
        self.onprem_memory_limit_gb = gb;
        self
    }

    /// The weight `τ_A` of an API.
    pub fn api_weight(&self, api: &str) -> f64 {
        if self.critical_apis.iter().any(|a| a == api) {
            self.critical_weight
        } else {
            1.0
        }
    }

    /// Repair a site assignment to honour the placement pins: exact pins
    /// overwrite their gene, and a gene outside its site-set pin snaps to
    /// the set's first site. Pins naming a component beyond `sites` are
    /// ignored.
    pub fn apply_pins(&self, sites: &mut [SiteId]) {
        for (&c, &site) in &self.pinned {
            if let Some(gene) = sites.get_mut(c.0) {
                *gene = site;
            }
        }
        for (&c, allowed) in &self.allowed_sites {
            if let Some(gene) = sites.get_mut(c.0).filter(|gene| !allowed.contains(gene)) {
                *gene = allowed[0];
            }
        }
    }

    /// Whether a plan violates any placement pin (exact or site-set).
    pub fn violates_pins(&self, plan: &crate::MigrationPlan) -> bool {
        self.pinned
            .iter()
            .any(|(&c, &site)| c.0 < plan.len() && plan.site(c) != site)
            || self
                .allowed_sites
                .iter()
                .any(|(&c, allowed)| c.0 < plan.len() && !allowed.contains(&plan.site(c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::plan;
    use crate::MigrationPlan;

    #[test]
    fn defaults_are_unconstrained() {
        let p = MigrationPreferences::default();
        assert!(p.critical_apis.is_empty());
        assert_eq!(p.critical_weight, 2.0);
        assert!(p.budget.is_none());
        assert!(p.onprem_cpu_limit.is_infinite());
        assert!(p.allowed_sites.is_empty());
        assert_eq!(p.api_weight("/any"), 1.0);
    }

    #[test]
    fn critical_apis_get_double_weight() {
        let p = MigrationPreferences::default()
            .critical("/composeAPI")
            .critical("/homeTimelineAPI");
        assert_eq!(p.api_weight("/composeAPI"), 2.0);
        assert_eq!(p.api_weight("/loginAPI"), 1.0);
    }

    #[test]
    fn pins_are_checked_against_plans() {
        let p = MigrationPreferences::default()
            .pin(ComponentId(0), SiteId::ON_PREM)
            .pin(ComponentId(2), SiteId::ON_PREM);
        let ok = plan(&[0, 1, 0]);
        let bad = plan(&[0, 0, 1]);
        assert!(!p.violates_pins(&ok));
        assert!(p.violates_pins(&bad));
    }

    #[test]
    fn site_pins_generalize_the_binary_ones() {
        // Pin component 1 to site 2 exactly.
        let exact = MigrationPreferences::default().pin(ComponentId(1), SiteId(2));
        let at_2 = MigrationPlan::from_sites(vec![SiteId(0), SiteId(2), SiteId(0)]);
        let at_1 = MigrationPlan::from_sites(vec![SiteId(0), SiteId(1), SiteId(0)]);
        assert!(!exact.violates_pins(&at_2));
        assert!(exact.violates_pins(&at_1));

        // Restrict component 0 to sites {0, 3}.
        let set = MigrationPreferences::default()
            .pin_to_sites(ComponentId(0), vec![SiteId(0), SiteId(3)]);
        let at_0 = MigrationPlan::from_sites(vec![SiteId(0), SiteId(1)]);
        let at_3 = MigrationPlan::from_sites(vec![SiteId(3), SiteId(1)]);
        let at_1 = MigrationPlan::from_sites(vec![SiteId(1), SiteId(1)]);
        assert!(!set.violates_pins(&at_0));
        assert!(!set.violates_pins(&at_3));
        assert!(set.violates_pins(&at_1));
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn empty_site_sets_are_rejected() {
        let _ = MigrationPreferences::default().pin_to_sites(ComponentId(0), vec![]);
    }

    #[test]
    fn builders_compose() {
        let p = MigrationPreferences::with_cpu_limit(100.0)
            .with_budget(50.0)
            .with_memory_limit(256.0)
            .critical("/x");
        assert_eq!(p.onprem_cpu_limit, 100.0);
        assert_eq!(p.budget, Some(50.0));
        assert_eq!(p.onprem_memory_limit_gb, 256.0);
        assert_eq!(p.api_weight("/x"), 2.0);
    }
}
