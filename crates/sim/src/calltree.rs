//! Call trees: how an API request fans out across components.
//!
//! Each user-facing API is described by a tree of [`CallNode`]s. A node is
//! one operation executed on one component; its children are grouped into
//! sequential *stages*, the calls inside a stage run in parallel, and an
//! extra set of *background* calls is fired right before the node returns.
//! This directly encodes the three execution-workflow patterns of paper
//! §4.1.1 (parallel, sequential, background) so that the simulator emits
//! traces with the same structure Jaeger would record.

use std::sync::Arc;

use rand::Rng;

use crate::component::ComponentId;

/// A service-time distribution in microseconds.
///
/// Sampled as a mean plus uniform multiplicative jitter, which is enough to
/// obtain realistic latency histograms (e.g. Figure 7) without pulling in a
/// statistics crate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeDist {
    /// Mean duration in microseconds.
    pub mean_us: f64,
    /// Relative jitter: samples fall in `mean * [1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl TimeDist {
    /// A distribution with the given mean and 20 % jitter.
    pub fn new(mean_us: f64) -> Self {
        Self {
            mean_us,
            jitter: 0.2,
        }
    }

    /// A deterministic (zero-jitter) distribution.
    pub fn constant(mean_us: f64) -> Self {
        Self {
            mean_us,
            jitter: 0.0,
        }
    }

    /// Draw a sample in microseconds.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.jitter <= 0.0 {
            return self.mean_us.max(0.0);
        }
        let factor = 1.0 + rng.gen_range(-self.jitter..=self.jitter);
        (self.mean_us * factor).max(0.0)
    }
}

/// A payload-size distribution in bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeDist {
    /// Mean size in bytes.
    pub mean_bytes: f64,
    /// Relative jitter: samples fall in `mean * [1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl SizeDist {
    /// A distribution with the given mean and 10 % jitter.
    pub fn new(mean_bytes: f64) -> Self {
        Self {
            mean_bytes,
            jitter: 0.1,
        }
    }

    /// A deterministic (zero-jitter) size.
    pub fn constant(mean_bytes: f64) -> Self {
        Self {
            mean_bytes,
            jitter: 0.0,
        }
    }

    /// Draw a sample in bytes.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.jitter <= 0.0 {
            return self.mean_bytes.max(0.0);
        }
        let factor = 1.0 + rng.gen_range(-self.jitter..=self.jitter);
        (self.mean_bytes * factor).max(0.0)
    }

    /// Scale the mean size by a factor (used to model behaviour drift, e.g.
    /// larger `/homeTimeline` responses as the application grows, §4.3).
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            mean_bytes: self.mean_bytes * factor,
            jitter: self.jitter,
        }
    }
}

/// Whether a child call blocks its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallMode {
    /// The parent waits for the child to complete (foreground).
    Sync,
    /// The parent only pays a dispatch cost; the child completes on its own
    /// (e.g. `WriteHomeTimelineService` fan-out in Figure 6).
    Background,
}

/// An edge in the call tree: the parent invokes `child` transferring
/// `request` bytes and receiving `response` bytes back.
#[derive(Debug, Clone, PartialEq)]
pub struct CallEdge {
    /// The invoked child operation.
    pub child: CallNode,
    /// Request payload size (caller → callee).
    pub request: SizeDist,
    /// Response payload size (callee → caller).
    pub response: SizeDist,
    /// Foreground or background invocation.
    pub mode: CallMode,
}

impl CallEdge {
    /// A synchronous (foreground) edge.
    pub fn sync(child: CallNode, request: SizeDist, response: SizeDist) -> Self {
        Self {
            child,
            request,
            response,
            mode: CallMode::Sync,
        }
    }

    /// A background edge.
    pub fn background(child: CallNode, request: SizeDist, response: SizeDist) -> Self {
        Self {
            child,
            request,
            response,
            mode: CallMode::Background,
        }
    }
}

/// One operation of the call tree.
#[derive(Debug, Clone, PartialEq)]
pub struct CallNode {
    /// Component executing the operation.
    pub component: ComponentId,
    /// Operation name recorded in the span; every span of this node shares
    /// this one allocation.
    pub operation: Arc<str>,
    /// Compute time spent by this operation itself (excluding children).
    pub compute: TimeDist,
    /// Sequential stages; the edges inside one stage run in parallel.
    pub stages: Vec<Vec<CallEdge>>,
    /// Background invocations fired right before the operation returns.
    pub background: Vec<CallEdge>,
}

impl CallNode {
    /// A leaf operation with no downstream calls.
    pub fn leaf(component: ComponentId, operation: impl Into<Arc<str>>, compute: TimeDist) -> Self {
        Self {
            component,
            operation: operation.into(),
            compute,
            stages: Vec::new(),
            background: Vec::new(),
        }
    }

    /// Builder: append a sequential stage of parallel edges.
    pub fn with_stage(mut self, edges: Vec<CallEdge>) -> Self {
        self.stages.push(edges);
        self
    }

    /// Builder: append a background edge.
    pub fn with_background(mut self, edge: CallEdge) -> Self {
        self.background.push(edge);
        self
    }

    /// All components reachable from this node (including itself), with
    /// duplicates removed, in discovery order.
    pub fn reachable_components(&self) -> Vec<ComponentId> {
        let mut out = Vec::new();
        self.collect_components(&mut out);
        let mut seen = std::collections::HashSet::new();
        out.retain(|c| seen.insert(*c));
        out
    }

    fn collect_components(&self, out: &mut Vec<ComponentId>) {
        out.push(self.component);
        for stage in &self.stages {
            for edge in stage {
                edge.child.collect_components(out);
            }
        }
        for edge in &self.background {
            edge.child.collect_components(out);
        }
    }

    /// Total number of operations (nodes) in the subtree.
    pub fn node_count(&self) -> usize {
        1 + self
            .stages
            .iter()
            .flatten()
            .chain(self.background.iter())
            .map(|e| e.child.node_count())
            .sum::<usize>()
    }

    /// Visit every edge (parent component, edge) in the subtree.
    pub fn visit_edges<'a>(&'a self, f: &mut impl FnMut(ComponentId, &'a CallEdge)) {
        for stage in &self.stages {
            for edge in stage {
                f(self.component, edge);
                edge.child.visit_edges(f);
            }
        }
        for edge in &self.background {
            f(self.component, edge);
            edge.child.visit_edges(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn time_dist_sampling_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let d = TimeDist::new(1000.0);
        for _ in 0..200 {
            let s = d.sample(&mut rng);
            assert!((800.0..=1200.0).contains(&s), "sample {s} out of bounds");
        }
        assert_eq!(TimeDist::constant(500.0).sample(&mut rng), 500.0);
    }

    #[test]
    fn size_dist_sampling_and_scaling() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = SizeDist::new(100.0);
        for _ in 0..100 {
            let s = d.sample(&mut rng);
            assert!((90.0..=110.0).contains(&s));
        }
        let scaled = d.scaled(3.0);
        assert_eq!(scaled.mean_bytes, 300.0);
        assert_eq!(scaled.jitter, d.jitter);
    }

    fn small_tree() -> CallNode {
        let db = CallNode::leaf(ComponentId(2), "find", TimeDist::constant(100.0));
        let svc =
            CallNode::leaf(ComponentId(1), "login", TimeDist::constant(200.0)).with_stage(vec![
                CallEdge::sync(db, SizeDist::constant(500.0), SizeDist::constant(100.0)),
            ]);
        CallNode::leaf(ComponentId(0), "/login", TimeDist::constant(300.0))
            .with_stage(vec![CallEdge::sync(
                svc,
                SizeDist::constant(250.0),
                SizeDist::constant(50.0),
            )])
            .with_background(CallEdge::background(
                CallNode::leaf(ComponentId(3), "audit", TimeDist::constant(50.0)),
                SizeDist::constant(10.0),
                SizeDist::constant(0.0),
            ))
    }

    #[test]
    fn reachable_components_and_node_count() {
        let tree = small_tree();
        assert_eq!(tree.node_count(), 4);
        let comps = tree.reachable_components();
        assert_eq!(
            comps,
            vec![
                ComponentId(0),
                ComponentId(1),
                ComponentId(2),
                ComponentId(3)
            ]
        );
    }

    #[test]
    fn visit_edges_covers_all_edges() {
        let tree = small_tree();
        let mut edges = Vec::new();
        tree.visit_edges(&mut |parent, e| edges.push((parent, e.child.component)));
        assert_eq!(edges.len(), 3);
        assert!(edges.contains(&(ComponentId(0), ComponentId(1))));
        assert!(edges.contains(&(ComponentId(1), ComponentId(2))));
        assert!(edges.contains(&(ComponentId(0), ComponentId(3))));
    }
}
