//! Traces: trees of spans describing the lifetime of one API request.
//!
//! The trace structure is what lets Atlas learn execution workflows without
//! any knowledge of the application implementation (paper §4.1.1): sibling
//! spans can run in *parallel*, *sequentially*, or in the *background*
//! relative to their parent, and delay injection must respect those
//! relations when propagating a network delay through the tree.

use std::collections::HashMap;

use crate::span::{Span, SpanId, TraceId};
use crate::Micros;

/// Error raised when a set of spans cannot be assembled into a valid trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The span set is empty.
    Empty,
    /// No root span (span without a parent) was found.
    MissingRoot,
    /// More than one root span was found.
    MultipleRoots,
    /// A span references a parent id that is not part of the trace.
    DanglingParent(SpanId),
    /// Two spans share the same span id.
    DuplicateSpan(SpanId),
    /// Spans from different trace ids were mixed together.
    MixedTraceIds,
    /// A span the root cannot reach through parent links: it sits on a
    /// parent cycle (a self-parent included) or hangs below one.
    Unreachable(SpanId),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Empty => write!(f, "trace has no spans"),
            TraceError::MissingRoot => write!(f, "trace has no root span"),
            TraceError::MultipleRoots => write!(f, "trace has more than one root span"),
            TraceError::DanglingParent(id) => {
                write!(f, "span references unknown parent {id}")
            }
            TraceError::DuplicateSpan(id) => write!(f, "duplicate span id {id}"),
            TraceError::MixedTraceIds => write!(f, "spans from different traces were mixed"),
            TraceError::Unreachable(id) => write!(f, "span {id} is not reachable from the root"),
        }
    }
}

impl std::error::Error for TraceError {}

/// A node of the reconstructed trace tree: a span, its parent's index and
/// where its children sit in the trace's one child array
/// ([`Trace::children`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceNode {
    /// The span stored at this node.
    pub span: Span,
    /// Index of the parent node, if any.
    pub parent: Option<usize>,
    /// Start of this node's children in [`Trace`]'s child array.
    first_child: u32,
    /// Number of children.
    child_count: u32,
}

/// A fully-assembled distributed trace: a tree of spans rooted at the entry
/// component that received the API request.
///
/// The tree owns two heap blocks whatever its shape: the nodes and one child
/// array that every node indexes into, so cloning or dropping a trace costs
/// two allocations, not one per internal node. The child array is built by
/// [`Trace::from_spans`] from the nodes' `parent` links; a caller that edits
/// `nodes[i].parent` afterwards leaves [`Trace::children`] describing the
/// tree as it was assembled.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Trace identifier shared by all spans.
    pub trace_id: TraceId,
    /// All nodes; index 0 is always the root.
    pub nodes: Vec<TraceNode>,
    /// Every node's children, node by node, each run ordered by
    /// `(start_us, node index)`.
    children: Vec<usize>,
}

impl Trace {
    /// Assemble a trace from an unordered set of spans.
    ///
    /// Validates that the spans form a single-rooted tree and share a trace
    /// id. Children are ordered by start timestamp, which the delay-injection
    /// algorithm relies on.
    pub fn from_spans(mut spans: Vec<Span>) -> Result<Self, TraceError> {
        if spans.is_empty() {
            return Err(TraceError::Empty);
        }
        let trace_id = spans[0].trace_id;
        if spans.iter().any(|s| s.trace_id != trace_id) {
            return Err(TraceError::MixedTraceIds);
        }
        // Stable order: by start time, then span id, so tree construction is
        // deterministic regardless of input order.
        spans.sort_by_key(|s| (s.start_us, s.span_id));

        let mut index_of: HashMap<SpanId, usize> = HashMap::with_capacity(spans.len());
        for (i, s) in spans.iter().enumerate() {
            if index_of.insert(s.span_id, i).is_some() {
                return Err(TraceError::DuplicateSpan(s.span_id));
            }
        }

        let mut roots = 0usize;
        let mut nodes = Vec::with_capacity(spans.len());
        for span in spans {
            let parent = match span.parent_id {
                None => {
                    roots += 1;
                    None
                }
                Some(pid) => match index_of.get(&pid) {
                    Some(&pi) => Some(pi),
                    None => return Err(TraceError::DanglingParent(span.span_id)),
                },
            };
            nodes.push(TraceNode {
                span,
                parent,
                first_child: 0,
                child_count: 0,
            });
        }
        if roots == 0 {
            return Err(TraceError::MissingRoot);
        }
        if roots > 1 {
            return Err(TraceError::MultipleRoots);
        }
        let root_idx = nodes
            .iter()
            .position(|n| n.parent.is_none())
            .expect("root existence checked above");

        // Move the root to index 0 for convenient access: swap it with the
        // first node and rename the two indices in every parent link.
        let moved = |i: usize| match i {
            0 => root_idx,
            i if i == root_idx => 0,
            i => i,
        };
        if root_idx != 0 {
            nodes.swap(0, root_idx);
            for node in &mut nodes {
                node.parent = node.parent.map(moved);
            }
        }

        // One child array: count each node's children, lay the runs out in
        // node order, then fill each run in index order.
        for i in 0..nodes.len() {
            if let Some(p) = nodes[i].parent {
                nodes[p].child_count += 1;
            }
        }
        let mut next = 0u32;
        for node in &mut nodes {
            node.first_child = next;
            next += node.child_count;
            node.child_count = 0;
        }
        let mut children = vec![0usize; nodes.len() - 1];
        for i in 0..nodes.len() {
            if let Some(p) = nodes[i].parent {
                let parent = &mut nodes[p];
                children[(parent.first_child + parent.child_count) as usize] = i;
                parent.child_count += 1;
            }
        }
        // Index order is start-time order except where the root moved, so
        // only then does a run need sorting.
        if root_idx != 0 {
            for node in &nodes {
                let run = node.first_child as usize..(node.first_child + node.child_count) as usize;
                children[run].sort_by_key(|&c| (nodes[c].span.start_us, c));
            }
        }
        let trace = Self {
            trace_id,
            nodes,
            children,
        };

        // One root and one parent per span still admits a parent cycle
        // beside the root's tree: walk the tree and name the first span (in
        // start-time order) it misses.
        let mut reached = vec![false; trace.nodes.len()];
        let mut stack = vec![0];
        while let Some(i) = stack.pop() {
            reached[i] = true;
            stack.extend_from_slice(trace.children(i));
        }
        if let Some(i) = (0..reached.len()).map(moved).find(|&i| !reached[i]) {
            return Err(TraceError::Unreachable(trace.nodes[i].span.span_id));
        }
        Ok(trace)
    }

    /// A trace of no nodes at all, which [`Trace::from_spans`] never returns:
    /// the malformed input the arena's and the store's tests feed ingest.
    #[cfg(test)]
    pub(crate) fn without_nodes(trace_id: TraceId) -> Self {
        Self {
            trace_id,
            nodes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Indices (into [`Trace::nodes`]) of node `i`'s children, ordered by
    /// `(start_us, index)`.
    pub fn children(&self, i: usize) -> &[usize] {
        let node = &self.nodes[i];
        let first = node.first_child as usize;
        &self.children[first..first + node.child_count as usize]
    }

    /// The root span (entry component of the API request).
    pub fn root(&self) -> &Span {
        &self.nodes[0].span
    }

    /// Name of the user-facing API endpoint this trace belongs to, which by
    /// convention is the operation name of the root span.
    pub fn api(&self) -> &str {
        &self.root().operation
    }

    /// Number of spans in the trace.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the trace is empty (never true for a validated trace).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// End-to-end latency of the API request in microseconds.
    ///
    /// This is the makespan of the foreground work: from the root's start to
    /// the root span's end. Background spans that outlive the root do not
    /// contribute (the client has already received its response).
    pub fn end_to_end_latency_us(&self) -> Micros {
        self.root().duration_us
    }

    /// Iterate over all spans (pre-order is not guaranteed; use
    /// [`Trace::preorder`] for tree order).
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.nodes.iter().map(|n| &n.span)
    }

    /// Pre-order traversal of node indices (root first, children in start
    /// time order).
    pub fn preorder(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![0usize];
        while let Some(i) = stack.pop() {
            out.push(i);
            // Push children in reverse start order so they pop in order.
            for &c in self.children(i).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Count the number of caller→callee invocations between distinct
    /// components, i.e. `I^A_{ci→cj}` of paper Eq. (1) for this single trace.
    ///
    /// Self-calls (parent and child on the same component) are ignored since
    /// they do not cross the network.
    pub fn invocation_counts(&self) -> HashMap<(&str, &str), u64> {
        let mut counts: HashMap<(&str, &str), u64> = HashMap::new();
        for node in &self.nodes {
            let Some(pi) = node.parent else { continue };
            let caller = &*self.nodes[pi].span.component;
            let callee = &*node.span.component;
            if caller == callee {
                continue;
            }
            *counts.entry((caller, callee)).or_insert(0) += 1;
        }
        counts
    }

    /// Classify the relation between a span and its *background* status:
    /// a span is a background operation if it ends after its parent ends
    /// (paper §4.1.1, e.g. `WriteHomeTimeline`).
    pub fn is_background(&self, node_idx: usize) -> bool {
        let node = &self.nodes[node_idx];
        match node.parent {
            None => false,
            Some(pi) => node.span.end_us() > self.nodes[pi].span.end_us(),
        }
    }

    /// The depth of the trace tree (root has depth 1).
    pub fn depth(&self) -> usize {
        fn rec(t: &Trace, i: usize) -> usize {
            1 + t.children(i).iter().map(|&c| rec(t, c)).max().unwrap_or(0)
        }
        rec(self, 0)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::span::{SpanId, TraceId};

    /// Build the /compose-like trace of paper Figure 6a:
    /// Frontend (0..1000)
    ///   ├── URLShorten  (100..300)   parallel with Media
    ///   ├── Media       (150..400)
    ///   ├── PostStorage (450..600)   sequential after the two
    ///   └── WriteHomeTimeline (650..1500)  background (ends after parent)
    fn compose_trace() -> Trace {
        let t = TraceId(9);
        let spans = vec![
            Span::new(t, SpanId(0), None, "FrontendNGINX", "/composeAPI", 0, 1000),
            Span::new(
                t,
                SpanId(1),
                Some(SpanId(0)),
                "URLShortenService",
                "shorten",
                100,
                200,
            ),
            Span::new(
                t,
                SpanId(2),
                Some(SpanId(0)),
                "MediaService",
                "store",
                150,
                250,
            ),
            Span::new(
                t,
                SpanId(3),
                Some(SpanId(0)),
                "PostStorageService",
                "write",
                450,
                150,
            ),
            Span::new(
                t,
                SpanId(4),
                Some(SpanId(0)),
                "WriteHomeTimelineService",
                "fanout",
                650,
                850,
            ),
        ];
        Trace::from_spans(spans).unwrap()
    }

    #[test]
    fn builds_tree_and_finds_root() {
        let tr = compose_trace();
        assert_eq!(tr.len(), 5);
        assert_eq!(&*tr.root().component, "FrontendNGINX");
        assert_eq!(tr.api(), "/composeAPI");
        assert_eq!(tr.end_to_end_latency_us(), 1000);
        assert_eq!(tr.depth(), 2);
    }

    #[test]
    fn children_sorted_by_start_time() {
        let tr = compose_trace();
        let starts: Vec<u64> = tr
            .children(0)
            .iter()
            .map(|&c| tr.nodes[c].span.start_us)
            .collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }

    #[test]
    fn root_is_index_zero_even_if_not_first_by_time() {
        // A root span starting *after* one of its children's recorded start
        // (possible with clock skew) must still end up at index 0.
        let t = TraceId(1);
        let spans = vec![
            Span::new(t, SpanId(10), Some(SpanId(11)), "B", "op", 5, 10),
            Span::new(t, SpanId(11), None, "A", "/api", 6, 100),
        ];
        let tr = Trace::from_spans(spans).unwrap();
        assert_eq!(&*tr.root().component, "A");
        assert!(tr.nodes[0].parent.is_none());
    }

    #[test]
    fn rejects_invalid_span_sets() {
        assert_eq!(Trace::from_spans(vec![]).unwrap_err(), TraceError::Empty);

        let t = TraceId(2);
        let no_root = vec![Span::new(t, SpanId(0), Some(SpanId(99)), "A", "x", 0, 1)];
        assert_eq!(
            Trace::from_spans(no_root).unwrap_err(),
            TraceError::DanglingParent(SpanId(0))
        );

        let two_roots = vec![
            Span::new(t, SpanId(0), None, "A", "x", 0, 1),
            Span::new(t, SpanId(1), None, "B", "y", 0, 1),
        ];
        assert_eq!(
            Trace::from_spans(two_roots).unwrap_err(),
            TraceError::MultipleRoots
        );

        let dup = vec![
            Span::new(t, SpanId(0), None, "A", "x", 0, 1),
            Span::new(t, SpanId(0), Some(SpanId(0)), "B", "y", 0, 1),
        ];
        assert_eq!(
            Trace::from_spans(dup).unwrap_err(),
            TraceError::DuplicateSpan(SpanId(0))
        );

        let mixed = vec![
            Span::new(TraceId(1), SpanId(0), None, "A", "x", 0, 1),
            Span::new(TraceId(2), SpanId(1), Some(SpanId(0)), "B", "y", 0, 1),
        ];
        assert_eq!(
            Trace::from_spans(mixed).unwrap_err(),
            TraceError::MixedTraceIds
        );

        // One root beside a 2-cycle, and beside a self-parent: neither
        // cycle is part of the root's tree.
        let two_cycle = vec![
            Span::new(t, SpanId(1), None, "A", "x", 0, 10),
            Span::new(t, SpanId(2), Some(SpanId(3)), "B", "y", 1, 1),
            Span::new(t, SpanId(3), Some(SpanId(2)), "C", "z", 2, 1),
        ];
        assert_eq!(
            Trace::from_spans(two_cycle).unwrap_err(),
            TraceError::Unreachable(SpanId(2))
        );
        let self_parent = vec![
            Span::new(t, SpanId(1), None, "A", "x", 0, 10),
            Span::new(t, SpanId(2), Some(SpanId(1)), "B", "y", 1, 1),
            Span::new(t, SpanId(3), Some(SpanId(3)), "C", "z", 2, 1),
        ];
        assert_eq!(
            Trace::from_spans(self_parent).unwrap_err(),
            TraceError::Unreachable(SpanId(3))
        );
    }

    /// Index of the node holding a span.
    fn node_of(trace: &Trace, span: SpanId) -> usize {
        let node = trace.nodes.iter().position(|n| n.span.span_id == span);
        node.expect("span is in the trace")
    }

    #[test]
    fn background_detection_matches_figure6() {
        let tr = compose_trace();
        let wht = node_of(&tr, SpanId(4));
        let post = node_of(&tr, SpanId(3));
        assert!(tr.is_background(wht));
        assert!(!tr.is_background(post));
        assert!(!tr.is_background(0), "root is never background");
    }

    #[test]
    fn invocation_counts_cover_all_cross_component_edges() {
        let tr = compose_trace();
        let counts = tr.invocation_counts();
        assert_eq!(counts.len(), 4);
        assert_eq!(counts[&("FrontendNGINX", "URLShortenService")], 1);
    }

    #[test]
    fn self_calls_are_not_counted_as_invocations() {
        let t = TraceId(3);
        let spans = vec![
            Span::new(t, SpanId(0), None, "A", "/x", 0, 100),
            Span::new(t, SpanId(1), Some(SpanId(0)), "A", "internal", 10, 20),
            Span::new(t, SpanId(2), Some(SpanId(1)), "B", "db", 12, 5),
        ];
        let tr = Trace::from_spans(spans).unwrap();
        let counts = tr.invocation_counts();
        assert_eq!(counts.len(), 1);
        assert_eq!(counts[&("A", "B")], 1);
    }

    #[test]
    fn preorder_visits_every_node_once_root_first() {
        let tr = compose_trace();
        let order = tr.preorder();
        assert_eq!(order.len(), tr.len());
        assert_eq!(order[0], 0);
        let mut seen = order.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), tr.len());
    }

    #[test]
    fn a_cloned_trace_shares_its_span_names() {
        let tr = compose_trace();
        let copy = tr.clone();
        assert_eq!(copy, tr);
        for (a, b) in tr.spans().zip(copy.spans()) {
            assert!(Arc::ptr_eq(&a.component, &b.component));
            assert!(Arc::ptr_eq(&a.operation, &b.operation));
        }
    }
}
