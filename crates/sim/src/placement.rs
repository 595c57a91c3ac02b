//! Placements: where every component of an application runs.
//!
//! A placement is also Atlas's migration plan: `atlas_core::MigrationPlan`
//! is this type under the paper's name, scored against the placement the
//! application runs under today.
//!
//! A placement is a vector of [`SiteId`]s (site 0 = on-prem); the paper's
//! binary plan variable `p_c ∈ {0, 1}` is the 2-site case, with
//! [`SiteId::CLOUD`] as site 1.

use crate::cluster::SiteId;
use crate::component::ComponentId;

/// Error returned by the checked placement constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// A site assignment named a site outside the catalog.
    SiteOutOfRange {
        /// Index of the offending component.
        component: usize,
        /// The out-of-range site.
        site: SiteId,
        /// Number of sites in the catalog.
        site_count: usize,
    },
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::SiteOutOfRange {
                component,
                site,
                site_count,
            } => write!(
                f,
                "component {component}: {site} is outside the {site_count}-site catalog"
            ),
        }
    }
}

impl std::error::Error for PlacementError {}

/// Assignment of every component to a site, indexed by [`ComponentId`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Placement {
    sites: Vec<SiteId>,
}

impl Placement {
    /// A placement with every component on-prem (the pre-migration state in
    /// the paper's experiments).
    pub fn all_onprem(component_count: usize) -> Self {
        Self::all_at(SiteId::ON_PREM, component_count)
    }

    /// A placement with every component in the cloud (site 1).
    pub fn all_cloud(component_count: usize) -> Self {
        Self::all_at(SiteId::CLOUD, component_count)
    }

    /// A placement with every component at one site.
    pub fn all_at(site: SiteId, component_count: usize) -> Self {
        Self {
            sites: vec![site; component_count],
        }
    }

    /// Build from an explicit site vector.
    pub fn from_sites(sites: Vec<SiteId>) -> Self {
        Self { sites }
    }

    /// Build from a site vector, rejecting assignments outside an
    /// `site_count`-site catalog.
    pub fn try_from_sites(sites: Vec<SiteId>, site_count: usize) -> Result<Self, PlacementError> {
        for (component, &site) in sites.iter().enumerate() {
            if site.index() >= site_count {
                return Err(PlacementError::SiteOutOfRange {
                    component,
                    site,
                    site_count,
                });
            }
        }
        Ok(Self { sites })
    }

    /// The site vector of this placement (cloned; see [`Placement::sites`]
    /// for the borrowed form).
    pub fn to_sites(&self) -> Vec<SiteId> {
        self.sites.clone()
    }

    /// Number of components covered.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the placement covers no components.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Site of a component.
    pub fn site(&self, c: ComponentId) -> SiteId {
        self.sites[c.0]
    }

    /// Set the site of a component.
    pub fn set(&mut self, c: ComponentId, site: impl Into<SiteId>) {
        self.sites[c.0] = site.into();
    }

    /// Move a component to the cloud (builder style).
    pub fn with_cloud(mut self, c: ComponentId) -> Self {
        self.set(c, SiteId::CLOUD);
        self
    }

    /// Move a component to a site (builder style).
    pub fn with_site(mut self, c: ComponentId, site: impl Into<SiteId>) -> Self {
        self.set(c, site);
        self
    }

    /// All sites indexed by component id.
    pub fn sites(&self) -> &[SiteId] {
        &self.sites
    }

    /// Ids of components placed off-prem (at any elastic site).
    pub fn cloud_components(&self) -> Vec<ComponentId> {
        self.sites
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_on_prem())
            .map(|(i, _)| ComponentId(i))
            .collect()
    }

    /// Ids of components placed on-prem.
    pub fn onprem_components(&self) -> Vec<ComponentId> {
        self.components_at(SiteId::ON_PREM)
    }

    /// Ids of the components placed at one site.
    pub fn components_at(&self, site: SiteId) -> Vec<ComponentId> {
        self.sites
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == site)
            .map(|(i, _)| ComponentId(i))
            .collect()
    }

    /// Number of components placed off-prem.
    pub fn cloud_count(&self) -> usize {
        self.sites.iter().filter(|s| !s.is_on_prem()).count()
    }

    /// Components whose site differs between `self` (the candidate) and
    /// `original` (the current deployment): the set that must be migrated.
    pub fn moved_components(&self, original: &Placement) -> Vec<ComponentId> {
        assert_eq!(self.len(), original.len(), "placement sizes must match");
        (0..self.len())
            .map(ComponentId)
            .filter(|&c| self.site(c) != original.site(c))
            .collect()
    }

    /// Hamming distance to another placement (number of differing
    /// components).
    pub fn distance(&self, other: &Placement) -> usize {
        self.moved_components(other).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_onprem_and_all_cloud() {
        let p = Placement::all_onprem(4);
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        assert_eq!(p.cloud_count(), 0);
        assert_eq!(p.onprem_components().len(), 4);
        let c = Placement::all_cloud(4);
        assert_eq!(c.cloud_count(), 4);
    }

    #[test]
    fn site_encoding_round_trip() {
        let sites = vec![SiteId(0), SiteId(2), SiteId(1), SiteId(3)];
        let p = Placement::from_sites(sites.clone());
        assert_eq!(p.sites(), sites.as_slice());
        assert_eq!(p.to_sites(), sites);
        assert_eq!(p.site(ComponentId(1)), SiteId(2));
        // Every elastic site counts as off-prem.
        assert_eq!(p.cloud_count(), 3);
        assert_eq!(
            p.cloud_components(),
            vec![ComponentId(1), ComponentId(2), ComponentId(3)]
        );
        assert_eq!(p.components_at(SiteId(2)), vec![ComponentId(1)]);
        assert_eq!(
            Placement::all_at(SiteId(2), 2).site(ComponentId(0)),
            SiteId(2)
        );
    }

    #[test]
    fn checked_constructors_reject_out_of_range_values() {
        let sites = vec![SiteId(0), SiteId(3)];
        assert_eq!(
            Placement::try_from_sites(sites.clone(), 3),
            Err(PlacementError::SiteOutOfRange {
                component: 1,
                site: SiteId(3),
                site_count: 3
            })
        );
        assert_eq!(
            Placement::try_from_sites(sites.clone(), 4).unwrap(),
            Placement::from_sites(sites)
        );
        // Errors render something useful.
        assert!(PlacementError::SiteOutOfRange {
            component: 0,
            site: SiteId(9),
            site_count: 4
        }
        .to_string()
        .contains("site9"));
    }

    #[test]
    fn set_and_builder() {
        let mut p = Placement::all_onprem(3);
        p.set(ComponentId(1), SiteId::CLOUD);
        assert_eq!(p.cloud_components(), vec![ComponentId(1)]);
        // A raw site index converts.
        p.set(ComponentId(0), 2u16);
        assert_eq!(p.site(ComponentId(0)), SiteId(2));
        let q = Placement::all_onprem(3).with_cloud(ComponentId(2));
        assert_eq!(q.cloud_components(), vec![ComponentId(2)]);
        let r = Placement::all_onprem(3).with_site(ComponentId(0), SiteId(2));
        assert_eq!(r.site(ComponentId(0)), SiteId(2));
    }

    #[test]
    fn moved_components_and_distance() {
        let orig = Placement::all_onprem(5);
        let plan = Placement::all_onprem(5)
            .with_cloud(ComponentId(1))
            .with_cloud(ComponentId(3));
        assert_eq!(
            plan.moved_components(&orig),
            vec![ComponentId(1), ComponentId(3)]
        );
        assert_eq!(plan.distance(&orig), 2);
        assert_eq!(orig.distance(&orig), 0);
        // Moving between two elastic sites is still a move.
        let a = Placement::from_sites(vec![SiteId(1), SiteId(0)]);
        let b = Placement::from_sites(vec![SiteId(2), SiteId(0)]);
        assert_eq!(a.distance(&b), 1);
    }

    #[test]
    #[should_panic(expected = "sizes must match")]
    fn mismatched_sizes_panic() {
        let a = Placement::all_onprem(3);
        let b = Placement::all_onprem(4);
        let _ = a.moved_components(&b);
    }
}
