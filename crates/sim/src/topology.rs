//! Application topologies: components plus per-API call trees.

use std::collections::HashMap;

use crate::calltree::CallNode;
use crate::component::{ComponentId, ComponentSpec};

/// A user-facing API endpoint of the application.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiSpec {
    /// Endpoint name, e.g. `/composeAPI`.
    pub endpoint: String,
    /// The call tree executed for one request of this API. Its root runs on
    /// the entry component (e.g. `FrontendNGINX`).
    pub root: CallNode,
}

impl ApiSpec {
    /// Create an API spec.
    pub fn new(endpoint: impl Into<String>, root: CallNode) -> Self {
        Self {
            endpoint: endpoint.into(),
            root,
        }
    }
}

/// Error raised when assembling or querying a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Two components share a name.
    DuplicateComponent(String),
    /// An API call tree references a component index that does not exist.
    UnknownComponent(ComponentId),
    /// Two APIs share an endpoint name.
    DuplicateApi(String),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::DuplicateComponent(n) => write!(f, "duplicate component name {n}"),
            TopologyError::UnknownComponent(c) => write!(f, "call tree references unknown {c}"),
            TopologyError::DuplicateApi(e) => write!(f, "duplicate API endpoint {e}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// An application: its components and its user-facing APIs.
#[derive(Debug, Clone, PartialEq)]
pub struct AppTopology {
    /// Human-readable application name.
    pub name: String,
    components: Vec<ComponentSpec>,
    apis: Vec<ApiSpec>,
    name_index: HashMap<String, ComponentId>,
}

impl AppTopology {
    /// Build a topology, validating component references.
    pub fn new(
        name: impl Into<String>,
        components: Vec<ComponentSpec>,
        apis: Vec<ApiSpec>,
    ) -> Result<Self, TopologyError> {
        let mut name_index = HashMap::with_capacity(components.len());
        for (i, c) in components.iter().enumerate() {
            if name_index.insert(c.name.clone(), ComponentId(i)).is_some() {
                return Err(TopologyError::DuplicateComponent(c.name.clone()));
            }
        }
        let mut seen_api = std::collections::HashSet::new();
        for api in &apis {
            if !seen_api.insert(api.endpoint.clone()) {
                return Err(TopologyError::DuplicateApi(api.endpoint.clone()));
            }
            for c in api.root.reachable_components() {
                if c.0 >= components.len() {
                    return Err(TopologyError::UnknownComponent(c));
                }
            }
        }
        Ok(Self {
            name: name.into(),
            components,
            apis,
            name_index,
        })
    }

    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// All components, indexed by [`ComponentId`].
    pub fn components(&self) -> &[ComponentSpec] {
        &self.components
    }

    /// Component spec by id.
    pub fn component(&self, id: ComponentId) -> &ComponentSpec {
        &self.components[id.0]
    }

    /// Component name by id.
    pub fn component_name(&self, id: ComponentId) -> &str {
        &self.components[id.0].name
    }

    /// Look a component up by name.
    pub fn component_id(&self, name: &str) -> Option<ComponentId> {
        self.name_index.get(name).copied()
    }

    /// All user-facing APIs.
    pub fn apis(&self) -> &[ApiSpec] {
        &self.apis
    }

    /// Number of user-facing APIs.
    pub fn api_count(&self) -> usize {
        self.apis.len()
    }

    /// Look an API up by endpoint name.
    pub fn api(&self, endpoint: &str) -> Option<&ApiSpec> {
        self.apis.iter().find(|a| a.endpoint == endpoint)
    }

    /// Ids of all stateful components.
    pub fn stateful_components(&self) -> Vec<ComponentId> {
        self.components
            .iter()
            .enumerate()
            .filter(|(_, c)| c.stateful)
            .map(|(i, _)| ComponentId(i))
            .collect()
    }

    /// Ids of the stateful components used (reachable) by a given API.
    pub fn stateful_components_of_api(&self, endpoint: &str) -> Vec<ComponentId> {
        let Some(api) = self.api(endpoint) else {
            return Vec::new();
        };
        api.root
            .reachable_components()
            .into_iter()
            .filter(|c| self.components[c.0].stateful)
            .collect()
    }

    /// Expected mean bytes exchanged per request of each API on each directed
    /// component edge: `(api, from, to, request_bytes, response_bytes)`.
    ///
    /// This is the ground truth that footprint learning (Eq. 1) tries to
    /// recover from aggregate telemetry; the accuracy evaluation of Figure 19
    /// and Figure 20 compares against it.
    pub fn ground_truth_footprints(&self) -> Vec<(String, ComponentId, ComponentId, f64, f64)> {
        let mut out = Vec::new();
        for api in &self.apis {
            let mut per_edge: HashMap<(ComponentId, ComponentId), (f64, f64, f64)> = HashMap::new();
            api.root.visit_edges(&mut |parent, edge| {
                let entry = per_edge
                    .entry((parent, edge.child.component))
                    .or_insert((0.0, 0.0, 0.0));
                entry.0 += edge.request.mean_bytes;
                entry.1 += edge.response.mean_bytes;
                entry.2 += 1.0;
            });
            let mut edges: Vec<_> = per_edge.into_iter().collect();
            edges.sort_by_key(|((a, b), _)| (a.0, b.0));
            for ((from, to), (req, resp, n)) in edges {
                // Average per invocation on that edge.
                out.push((api.endpoint.clone(), from, to, req / n, resp / n));
            }
        }
        out
    }

    /// Total baseline CPU demand (cores) of all components.
    pub fn total_base_cpu(&self) -> f64 {
        self.components.iter().map(|c| c.base_cpu_cores).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calltree::{CallEdge, SizeDist, TimeDist};

    fn tiny_app() -> AppTopology {
        let components = vec![
            ComponentSpec::stateless("Frontend", 0.2, 0.5),
            ComponentSpec::stateless("UserService", 0.1, 0.5),
            ComponentSpec::stateful("UserMongoDB", 0.1, 1.0, 8.0),
        ];
        let db = CallNode::leaf(ComponentId(2), "find", TimeDist::constant(200.0));
        let svc =
            CallNode::leaf(ComponentId(1), "login", TimeDist::constant(300.0)).with_stage(vec![
                CallEdge::sync(db, SizeDist::constant(500.0), SizeDist::constant(120.0)),
            ]);
        let root = CallNode::leaf(ComponentId(0), "/loginAPI", TimeDist::constant(100.0))
            .with_stage(vec![CallEdge::sync(
                svc,
                SizeDist::constant(230.0),
                SizeDist::constant(60.0),
            )]);
        AppTopology::new("tiny", components, vec![ApiSpec::new("/loginAPI", root)]).unwrap()
    }

    #[test]
    fn lookup_by_name_and_id() {
        let app = tiny_app();
        assert_eq!(app.component_count(), 3);
        assert_eq!(app.api_count(), 1);
        assert_eq!(app.component_id("UserMongoDB"), Some(ComponentId(2)));
        assert_eq!(app.component_id("Nope"), None);
        assert_eq!(app.component_name(ComponentId(0)), "Frontend");
        assert!(app.api("/loginAPI").is_some());
        assert!(app.api("/missing").is_none());
    }

    #[test]
    fn stateful_queries() {
        let app = tiny_app();
        assert_eq!(app.stateful_components(), vec![ComponentId(2)]);
        assert_eq!(
            app.stateful_components_of_api("/loginAPI"),
            vec![ComponentId(2)]
        );
        assert!(app.stateful_components_of_api("/other").is_empty());
    }

    #[test]
    fn ground_truth_footprints_cover_every_edge() {
        let app = tiny_app();
        let fp = app.ground_truth_footprints();
        assert_eq!(fp.len(), 2);
        let (api, from, to, req, resp) = &fp[0];
        assert_eq!(api, "/loginAPI");
        assert_eq!(*from, ComponentId(0));
        assert_eq!(*to, ComponentId(1));
        assert_eq!(*req, 230.0);
        assert_eq!(*resp, 60.0);
    }

    #[test]
    fn rejects_duplicate_components_and_apis() {
        let dup = vec![
            ComponentSpec::stateless("A", 0.1, 0.1),
            ComponentSpec::stateless("A", 0.1, 0.1),
        ];
        let err = AppTopology::new("x", dup, vec![]).unwrap_err();
        assert_eq!(err, TopologyError::DuplicateComponent("A".into()));

        let comps = vec![ComponentSpec::stateless("A", 0.1, 0.1)];
        let node = CallNode::leaf(ComponentId(0), "/x", TimeDist::constant(1.0));
        let apis = vec![
            ApiSpec::new("/x", node.clone()),
            ApiSpec::new("/x", node.clone()),
        ];
        let err = AppTopology::new("x", comps, apis).unwrap_err();
        assert_eq!(err, TopologyError::DuplicateApi("/x".into()));
    }

    #[test]
    fn rejects_dangling_component_reference() {
        let comps = vec![ComponentSpec::stateless("A", 0.1, 0.1)];
        let node = CallNode::leaf(ComponentId(5), "/x", TimeDist::constant(1.0));
        let err = AppTopology::new("x", comps, vec![ApiSpec::new("/x", node)]).unwrap_err();
        assert_eq!(err, TopologyError::UnknownComponent(ComponentId(5)));
    }

    #[test]
    fn total_base_cpu_sums_components() {
        let app = tiny_app();
        assert!((app.total_base_cpu() - 0.4).abs() < 1e-12);
    }
}
