//! Site identifiers: the index type of the N-site placement model.
//!
//! Atlas originally modeled placement as the paper's binary plan variable
//! `p_c ∈ {0, 1}` (on-prem vs *the* cloud). The N-site generalisation keeps
//! the same structure but indexes an arbitrary catalog of sites: site `0` is
//! always the on-premises cluster, and sites `1..N` are elastic pools, each
//! billed under its own [`PricingModel`](crate::PricingModel). The id lives
//! in `atlas-cloud` (the lowest crate that prices sites) and is re-exported
//! by `atlas-sim` next to the `SiteCatalog` describing the sites themselves.

/// Index of a site in a site catalog. Site `0` is the on-premises cluster by
/// convention; every other index is an elastic (cloud-like) pool.
///
/// The paper's binary `p_c` is the two-site special case: `SiteId(0)` is
/// `p_c = 0` (on-prem) and `SiteId(1)` is `p_c = 1` (the cloud).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SiteId(pub u16);

impl SiteId {
    /// The on-premises site (index 0, the paper's `p_c = 0`).
    pub const ON_PREM: SiteId = SiteId(0);

    /// The single cloud site of the paper's two-site model (`p_c = 1`).
    pub const CLOUD: SiteId = SiteId(1);

    /// The site index as a `usize`, for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the on-premises site.
    #[inline]
    pub fn is_on_prem(self) -> bool {
        self.0 == 0
    }
}

impl From<u16> for SiteId {
    fn from(index: u16) -> Self {
        SiteId(index)
    }
}

impl From<SiteId> for u16 {
    fn from(site: SiteId) -> Self {
        site.0
    }
}

impl std::fmt::Display for SiteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_on_prem() {
            f.write_str("site0(on-prem)")
        } else {
            write!(f, "site{}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_conversions() {
        assert_eq!(SiteId::ON_PREM, SiteId(0));
        assert_eq!(SiteId::CLOUD, SiteId(1));
        assert!(SiteId::ON_PREM.is_on_prem());
        assert!(!SiteId(3).is_on_prem());
        assert_eq!(SiteId(7).index(), 7);
        assert_eq!(SiteId::from(4u16), SiteId(4));
        assert_eq!(u16::from(SiteId(4)), 4);
        assert_eq!(SiteId(0).to_string(), "site0(on-prem)");
        assert_eq!(SiteId(2).to_string(), "site2");
        assert!(SiteId(1) < SiteId(2));
    }
}
