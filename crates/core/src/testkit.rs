//! Test support shared by the unit tests.

use atlas_sim::SiteId;

use crate::MigrationPlan;

/// A plan from raw site indices: `plan(&[0, 1, 0])` offloads component 1 to
/// site 1.
pub(crate) fn plan(sites: &[u16]) -> MigrationPlan {
    MigrationPlan::from_sites(sites.iter().map(|&s| SiteId(s)).collect())
}
