//! Component specifications: the containers that make up an application.

/// Index of a component inside an [`crate::AppTopology`].
///
/// Components are referenced by dense indices so that a migration plan can
/// be represented as a flat vector of locations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(pub usize);

impl std::fmt::Display for ComponentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Static description of one application component (one container image).
///
/// The resource figures describe the *baseline* footprint of the component
/// plus its marginal per-request demand; the simulator combines them with the
/// workload to produce cAdvisor-style metric series.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentSpec {
    /// Human-readable name, e.g. `UserMongoDB`.
    pub name: String,
    /// Whether the component holds persistent state (databases, caches with
    /// durable storage). Stateful components require data transfer when
    /// migrated, which is what the availability model (paper Eq. 3) charges.
    pub stateful: bool,
    /// CPU cores consumed when completely idle.
    pub base_cpu_cores: f64,
    /// Memory footprint in GB (dominated by the base footprint).
    pub base_memory_gb: f64,
    /// Persistent storage in GB (zero for stateless components).
    pub storage_gb: f64,
    /// Additional memory consumed per in-flight request, in GB.
    pub memory_per_request_gb: f64,
}

impl ComponentSpec {
    /// A stateless service component with the given baseline footprint.
    pub fn stateless(name: impl Into<String>, base_cpu_cores: f64, base_memory_gb: f64) -> Self {
        Self {
            name: name.into(),
            stateful: false,
            base_cpu_cores,
            base_memory_gb,
            storage_gb: 0.0,
            memory_per_request_gb: 1.0e-5,
        }
    }

    /// A stateful component (database / durable cache) with persistent
    /// storage.
    pub fn stateful(
        name: impl Into<String>,
        base_cpu_cores: f64,
        base_memory_gb: f64,
        storage_gb: f64,
    ) -> Self {
        Self {
            name: name.into(),
            stateful: true,
            base_cpu_cores,
            base_memory_gb,
            storage_gb,
            memory_per_request_gb: 2.0e-5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stateless_components_have_no_storage() {
        let c = ComponentSpec::stateless("TextService", 0.1, 0.25);
        assert!(!c.stateful);
        assert_eq!(c.storage_gb, 0.0);
        assert_eq!(c.name, "TextService");
        assert_eq!(c.base_cpu_cores, 0.1);
    }

    #[test]
    fn stateful_components_carry_storage() {
        let c = ComponentSpec::stateful("UserMongoDB", 0.2, 1.0, 12.0);
        assert!(c.stateful);
        assert_eq!(c.storage_gb, 12.0);
    }

    #[test]
    fn component_id_display() {
        assert_eq!(ComponentId(3).to_string(), "c3");
    }
}
