//! Migration plans: the unit Atlas recommends and evaluates.

use atlas_sim::{ComponentId, Placement, PlacementError, SiteId};

/// A migration plan: a target placement for every component, evaluated
/// relative to the current (original) placement.
///
/// Plans are site-indexed (see [`Placement`]):
/// [`MigrationPlan::from_sites`]/[`MigrationPlan::sites`] carry the
/// assignment, and the paper's binary plan variable is the two-site case.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MigrationPlan {
    placement: Placement,
}

impl MigrationPlan {
    /// Wrap a placement as a plan.
    pub fn new(placement: Placement) -> Self {
        Self { placement }
    }

    /// The "do nothing" plan: every component stays on-prem.
    pub fn all_onprem(component_count: usize) -> Self {
        Self::new(Placement::all_onprem(component_count))
    }

    /// Build from an explicit site assignment.
    pub fn from_sites(sites: Vec<SiteId>) -> Self {
        Self::new(Placement::from_sites(sites))
    }

    /// Build from a site assignment, rejecting sites outside an
    /// `site_count`-site catalog.
    pub fn try_from_sites(sites: Vec<SiteId>, site_count: usize) -> Result<Self, PlacementError> {
        Placement::try_from_sites(sites, site_count).map(Self::new)
    }

    /// The underlying placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The site assignment of the plan.
    pub fn to_sites(&self) -> Vec<SiteId> {
        self.placement.to_sites()
    }

    /// The sites of the plan, borrowed (the search paths' genome view).
    pub fn sites(&self) -> &[SiteId] {
        self.placement.sites()
    }

    /// Number of components covered by the plan.
    pub fn len(&self) -> usize {
        self.placement.len()
    }

    /// Whether the plan covers no components.
    pub fn is_empty(&self) -> bool {
        self.placement.is_empty()
    }

    /// Site assigned to a component.
    pub fn site(&self, c: ComponentId) -> SiteId {
        self.placement.site(c)
    }

    /// Set a component's site.
    pub fn set(&mut self, c: ComponentId, site: impl Into<SiteId>) {
        self.placement.set(c, site);
    }

    /// Components offloaded off-prem by this plan.
    pub fn cloud_components(&self) -> Vec<ComponentId> {
        self.placement.cloud_components()
    }

    /// Components that must move given the current placement.
    pub fn moved_components(&self, current: &Placement) -> Vec<ComponentId> {
        self.placement.moved_components(current)
    }
}

impl From<Placement> for MigrationPlan {
    fn from(placement: Placement) -> Self {
        Self::new(placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::plan;

    #[test]
    fn site_encoding_round_trips() {
        let sites = vec![SiteId(0), SiteId(2), SiteId(3), SiteId(0)];
        let plan = MigrationPlan::from_sites(sites.clone());
        assert_eq!(plan.to_sites(), sites);
        assert_eq!(plan.sites(), sites.as_slice());
        assert_eq!(plan.len(), 4);
        assert!(!plan.is_empty());
        assert_eq!(plan.site(ComponentId(1)), SiteId(2));
        assert_eq!(
            plan.cloud_components(),
            vec![ComponentId(1), ComponentId(2)]
        );
    }

    #[test]
    fn checked_site_construction() {
        assert!(MigrationPlan::try_from_sites(vec![SiteId(0), SiteId(2)], 3).is_ok());
        assert!(MigrationPlan::try_from_sites(vec![SiteId(0), SiteId(3)], 3).is_err());
    }

    #[test]
    fn all_onprem_is_the_identity_plan() {
        let plan = MigrationPlan::all_onprem(3);
        assert!(plan.cloud_components().is_empty());
        let current = Placement::all_onprem(3);
        assert!(plan.moved_components(&current).is_empty());
    }

    #[test]
    fn mutation_and_conversion() {
        let mut moved = MigrationPlan::all_onprem(3);
        moved.set(ComponentId(2), SiteId::CLOUD);
        assert_eq!(moved, plan(&[0, 0, 1]));
        moved.set(ComponentId(0), 2u16);
        assert_eq!(moved.site(ComponentId(0)), SiteId(2));
        let placement = Placement::from_sites(vec![SiteId::CLOUD, SiteId::ON_PREM]);
        let from_placement: MigrationPlan = placement.clone().into();
        assert_eq!(from_placement.placement(), &placement);
    }
}
