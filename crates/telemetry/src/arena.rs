//! Columnar trace arena: the storage engine behind [`crate::TelemetryStore`].
//!
//! The paper's telemetry server retains one trace per request; at realistic
//! traffic that is millions of heap-heavy span trees per day. The arena
//! normalises ingested [`Trace`]s the way a columnar engine would:
//!
//! * **Interning** — component and operation names are mapped to dense `u32`
//!   ids once at ingest ([`NameInterner`]); queries and indexes operate on
//!   ids and only resolve back to strings at the API boundary. A name is
//!   looked up first by the address of its `Arc` in a small direct-mapped
//!   cache, and only on a miss in the name → id map, which keeps std's
//!   keyed hash because its keys arrive in telemetry; the two are the only
//!   hashed structures on the write path.
//! * **SoA span columns** — spans live in flat parallel columns
//!   (`span_parent` / `span_component` / `span_start_us` / …) addressed
//!   through a CSR-style `trace_offsets` column, with per-trace root
//!   columns (`api`, `root_start_us`, `root_duration_us`) denormalised for
//!   O(1) access. One span costs ~44 bytes of column data instead of a
//!   [`crate::TraceNode`]: an owned `Span` (80 bytes, whose two names point
//!   into shared `Arc<str>`s) plus 24 bytes of tree bookkeeping (a parent
//!   index and its children's place in the trace's one child array, which
//!   holds another 8 bytes per span).
//! * **Incremental indexes** — a per-API posting list kept sorted by
//!   `(root_start_us, trace)` and a per-directed-edge posting list of
//!   `(trace, invocation count)` are maintained at ingest, so
//!   `apis()` / `traces_for_api` / `windowed_invocations` /
//!   `api_request_counts_in` answer from indexes instead of O(total-traces)
//!   rescans. Both are addressed by the dense ids, not hashed: the API
//!   lists sit in a `Vec` indexed by operation id, the edge lists in an
//!   adjacency `Vec` indexed by caller id whose few out-edges are sorted by
//!   callee.
//! * **One write path** — a batch is ingested in one streaming pass
//!   (`append_batch`): each trace's shape is checked first, without
//!   hashing (a malformed trace — no root at node 0, a second root, a
//!   parent out of range or on a cycle, a span id twice — is skipped
//!   whole), its spans are appended to the columns, its edges are read back from the columns just written and
//!   counted by sorting a reused scratch buffer, and its index is appended
//!   to its API's list; a list the batch appended to out of time order is
//!   sorted once when the batch ends.
//!
//! Queries answer from the columns and indexes; full [`Trace`] values are
//! materialised ([`TraceArena::materialize`]) only when a caller needs an
//! owned tree (e.g. the retained representatives of an API profile). A
//! materialised span's names are the interner's own `Arc<str>`s, so every
//! trace handed out shares one allocation per distinct name.
//!
//! On top of the columns the arena offers a **structural clustering** pass
//! ([`TraceArena::weighted_representatives`]): traces of one API are grouped
//! by call-tree signature (parent indices + component ids, which is exactly
//! the information delay injection consumes — operation names and absolute
//! timestamps do not change how a plan re-times a trace tree), and each
//! cluster is collapsed to one representative weighted by its member count.
//! The representative is the member whose end-to-end latency is closest to
//! the cluster mean, so per-API weighted means stay close to the full-trace
//! means. A cluster of size one is represented by the trace itself with
//! weight 1.0, which keeps downstream weighted scoring bit-identical to
//! unweighted scoring when every trace is structurally unique.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Arc;

use crate::network::PairKey;
use crate::span::{Span, SpanId, TraceId};
use crate::trace::Trace;
use crate::window::Windowing;
use crate::{us_to_ms, Micros, Seconds};

/// Sentinel parent index marking the root span of a trace.
const NO_PARENT: u32 = u32::MAX;

/// Narrow a column length or index to the `u32` the columns store. A store
/// that outgrows them fails loudly here instead of wrapping.
fn index_u32(n: usize, what: &str) -> u32 {
    u32::try_from(n).expect(what)
}

/// The check every trace passes before it enters the columns, with the
/// scratch it reuses across a batch. No hashing: a pass over the nodes, a
/// parent walk only when a child precedes its parent, and a sort of the
/// trace's span ids.
#[derive(Debug, Default)]
struct ShapeCheck {
    /// Per node: the walk that first reached it (0 while none has; the root
    /// is marked `usize::MAX`).
    walk: Vec<usize>,
    /// The trace's span ids, sorted to find one twice.
    ids: Vec<u64>,
}

impl ShapeCheck {
    /// Whether the columns can hold `trace` and [`TraceArena::materialize`]
    /// can rebuild it: at least one node, the root at index 0 and nowhere
    /// else, every other parent index in range, every node reaching the
    /// root through its parents (no parent cycle beside the root's tree),
    /// and no span id twice. [`Trace::from_spans`] guarantees all of it,
    /// but `Trace`'s fields are public, and a hand-built trace that breaks
    /// one would panic [`TraceArena::append`] after it had written part of
    /// the trace, or `materialize` later.
    fn is_appendable(&mut self, trace: &Trace) -> bool {
        let n = trace.nodes.len();
        if n == 0 || trace.nodes[0].parent.is_some() {
            return false;
        }
        // One pass for the links. A trace whose every parent precedes its
        // child cannot hold a cycle, so only one whose node order breaks
        // that (a child that started before its parent) is walked.
        let mut parents_first = true;
        for (i, node) in trace.nodes.iter().enumerate().skip(1) {
            match node.parent {
                Some(p) if p < n => parents_first &= p < i,
                _ => return false,
            }
        }
        (parents_first || self.every_node_reaches_the_root(trace))
            && self.span_ids_are_distinct(trace)
    }

    /// Walk up from each node until a node the root or an earlier walk
    /// reached; a walk that meets its own mark is on a cycle. Each node is
    /// marked once, so the whole check is O(nodes).
    fn every_node_reaches_the_root(&mut self, trace: &Trace) -> bool {
        let walk = &mut self.walk;
        walk.clear();
        walk.resize(trace.nodes.len(), 0);
        walk[0] = usize::MAX;
        for i in 1..trace.nodes.len() {
            let mut j = i;
            while walk[j] == 0 {
                walk[j] = i;
                j = trace.nodes[j].parent.unwrap_or(0);
            }
            if walk[j] == i {
                return false;
            }
        }
        true
    }

    /// Sorts a scratch copy of the trace's span ids, which may be random
    /// 64-bit ones; a trace holds about ten spans on the benchmark's corpus.
    fn span_ids_are_distinct(&mut self, trace: &Trace) -> bool {
        self.ids.clear();
        self.ids
            .extend(trace.nodes.iter().map(|node| node.span.span_id.0));
        self.ids.sort_unstable();
        self.ids.windows(2).all(|pair| pair[0] != pair[1])
    }
}

/// Slots of [`NameInterner`]'s pointer cache, as a power of two. A corpus
/// names a few hundred components and operations, each slot holds at most
/// one of them, and two names whose addresses share a slot evict each other.
/// Measured share of component lookups that hit: on a 100-component day,
/// 100 % from 256 slots up; on a 500-component application, 52 % at 256
/// slots, 89 % at 1,024 and 99 % at 2,048. The simulator's operations
/// share 14 allocations on both, and hit 100 % at 2,048 slots.
const RECENT_SLOT_BITS: u32 = 11;

/// A string interner mapping names to dense `u32` ids.
///
/// Ids are assigned in first-seen order and never recycled; resolution is an
/// index into a flat name table. Names arrive in telemetry, so the
/// name → id map keeps std's keyed hash; a name is stored once, as the
/// `Arc<str>` it first arrived in, and shared between the table, the map and
/// every span materialised from the arena.
///
/// In front of the map sits a direct-mapped cache keyed by the *address* of
/// the caller's `Arc`: a producer hands out one `Arc` per distinct name, so
/// after the first sight of an allocation its address alone names the id,
/// with no hash of the content and no string compare. Each slot holds a
/// clone of its `Arc`, so the address cannot be freed and reused by another
/// name while the slot names it. An address is not chosen by telemetry, so
/// a multiplicative hash is enough to spread it.
#[derive(Debug, Clone)]
pub struct NameInterner {
    names: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, u32>,
    recent: Box<[RecentSlot]>,
}

/// One slot of [`NameInterner`]'s pointer cache: the allocation it last
/// saw and that name's id.
type RecentSlot = Option<(Arc<str>, u32)>;

impl Default for NameInterner {
    fn default() -> Self {
        Self {
            names: Vec::new(),
            ids: HashMap::new(),
            recent: vec![None; 1 << RECENT_SLOT_BITS].into_boxed_slice(),
        }
    }
}

impl NameInterner {
    /// The pointer cache's slot of an allocation.
    fn slot(name: &Arc<str>) -> usize {
        let address = Arc::as_ptr(name).cast::<u8>() as usize as u64;
        (address.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - RECENT_SLOT_BITS)) as usize
    }

    /// Intern `name`, returning its id (allocating one if unseen). An unseen
    /// name is kept as the caller's `Arc`, not copied.
    pub fn intern(&mut self, name: &Arc<str>) -> u32 {
        let slot = Self::slot(name);
        if let Some((cached, id)) = &self.recent[slot] {
            if Arc::ptr_eq(cached, name) {
                return *id;
            }
        }
        let id = match self.ids.get(&**name) {
            Some(&id) => id,
            None => {
                let id = index_u32(self.names.len(), "interned name count fits u32");
                self.names.push(Arc::clone(name));
                self.ids.insert(Arc::clone(name), id);
                id
            }
        };
        self.recent[slot] = Some((Arc::clone(name), id));
        id
    }

    /// Id of `name` if it has been interned.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// The name behind `id`, as the shared allocation the interner holds.
    pub fn resolve(&self, id: u32) -> &Arc<str> {
        &self.names[id as usize]
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no name has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate over all interned names in id order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(|name| &**name)
    }
}

/// An owned representative trace produced by the clustering pass, carrying
/// the number of raw traces it stands for.
#[derive(Debug, Clone)]
pub struct WeightedTrace {
    /// The materialised representative trace.
    pub trace: Trace,
    /// Number of raw traces collapsed into this representative (≥ 1). Used
    /// as the weight of the representative in per-API weighted means.
    pub weight: f64,
}

/// The posting list of one operation id, plus what the batch being appended
/// has done to it so far.
#[derive(Debug, Default)]
struct ApiPostings {
    /// Trace indices sorted by `(root_start_us, trace index)`; empty for an
    /// operation that never was a root.
    traces: Vec<u32>,
    /// The current batch appended to `traces`.
    touched: bool,
    /// The current batch appended a trace that starts before its
    /// predecessor, so `traces` has to be re-sorted when the batch ends.
    unsorted: bool,
}

/// `(trace index, invocation count)` postings of one directed edge, in
/// ingest order.
type EdgePostings = Vec<(u32, u32)>;

/// Columnar, index-accelerated storage for ingested traces.
#[derive(Debug, Default)]
pub struct TraceArena {
    components: NameInterner,
    operations: NameInterner,

    // Per-trace columns.
    trace_ids: Vec<TraceId>,
    /// CSR offsets into the span columns; `trace_offsets[i]..trace_offsets[i+1]`
    /// is the span range of trace `i`. Always `trace_count + 1` entries.
    trace_offsets: Vec<u32>,
    /// Interned root-operation (API endpoint) id per trace.
    api: Vec<u32>,
    root_start_us: Vec<Micros>,
    root_duration_us: Vec<Micros>,

    // Per-span columns, root first, in `Trace::nodes` order (sorted by
    // `(start_us, span_id)` with the root relocated to slot 0).
    span_parent: Vec<u32>,
    span_component: Vec<u32>,
    span_operation: Vec<u32>,
    span_id: Vec<SpanId>,
    span_start_us: Vec<Micros>,
    span_duration_us: Vec<Micros>,

    // Incremental indexes, addressed by dense interned ids: no hashing.
    /// Operation id → the traces rooted at that operation.
    by_api: Vec<ApiPostings>,
    /// Caller component id → `(callee component id, postings)` sorted by
    /// callee. Self-calls are never recorded.
    by_edge: Vec<Vec<(u32, EdgePostings)>>,
    max_root_start_us: Option<Micros>,

    // Scratch reused across appends.
    /// The check a trace passes before it is appended.
    shape: ShapeCheck,
    /// `(caller, callee)` of every cross-component call of the trace being
    /// appended.
    edge_scratch: Vec<(u32, u32)>,
    /// Operation ids whose posting list the current batch appended to.
    touched_apis: Vec<u32>,
}

impl TraceArena {
    /// Create an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored traces.
    pub fn len(&self) -> usize {
        self.trace_ids.len()
    }

    /// Whether the arena holds no traces.
    pub fn is_empty(&self) -> bool {
        self.trace_ids.is_empty()
    }

    /// Total number of stored spans across all traces.
    pub fn span_count(&self) -> usize {
        self.span_parent.len()
    }

    /// Ingest a batch of traces in one streaming pass — each trace is
    /// consumed (and, when owned, dropped) right after its spans are
    /// appended — then restore the order of the posting lists the batch
    /// appended to out of time order. A trace whose shape the columns cannot
    /// hold (see [`ShapeCheck::is_appendable`]) is skipped whole. Returns the number of
    /// traces added and the number skipped.
    pub(crate) fn append_batch<T: Borrow<Trace>>(
        &mut self,
        traces: impl IntoIterator<Item = T>,
    ) -> (usize, usize) {
        let before = self.trace_ids.len();
        let mut rejected = 0;
        for trace in traces {
            let trace = trace.borrow();
            if self.shape.is_appendable(trace) {
                self.append(trace);
            } else {
                rejected += 1;
            }
        }
        for api_id in self.touched_apis.drain(..) {
            let postings = &mut self.by_api[api_id as usize];
            if postings.unsorted {
                let starts = &self.root_start_us;
                postings.traces.sort_by_key(|&t| (starts[t as usize], t));
            }
            postings.touched = false;
            postings.unsorted = false;
        }
        (self.trace_ids.len() - before, rejected)
    }

    /// The one place spans enter the columns and the indexes. Leaves the
    /// trace's per-API posting list possibly out of order, flagged for
    /// [`TraceArena::append_batch`] to sort once. The caller has checked
    /// [`ShapeCheck::is_appendable`], so nothing below can panic partway through a trace.
    fn append(&mut self, trace: &Trace) {
        let idx = index_u32(self.trace_ids.len(), "trace count fits u32");
        let base = self.span_parent.len();
        let end = index_u32(base + trace.nodes.len(), "span count fits u32");
        let root = trace.root();
        let api_id = self.operations.intern(&root.operation);

        self.trace_ids.push(trace.trace_id);
        self.api.push(api_id);
        self.root_start_us.push(root.start_us);
        self.root_duration_us.push(root.duration_us);

        if self.trace_offsets.is_empty() {
            self.trace_offsets.push(0);
        }
        for node in &trace.nodes {
            self.span_parent.push(match node.parent {
                Some(p) => index_u32(p, "parent index fits u32"),
                None => NO_PARENT,
            });
            self.span_component
                .push(self.components.intern(&node.span.component));
            self.span_operation
                .push(self.operations.intern(&node.span.operation));
            self.span_id.push(node.span.span_id);
            self.span_start_us.push(node.span.start_us);
            self.span_duration_us.push(node.span.duration_us);
        }
        self.trace_offsets.push(end);

        // Directed edges, read back from the columns just written: a parent
        // may sort after its child (`Trace::nodes` is start-time ordered),
        // so the callers are only all known once the trace is in.
        let components = &self.span_component[base..];
        self.edge_scratch.clear();
        for (&parent, &callee) in self.span_parent[base..].iter().zip(components) {
            if parent != NO_PARENT {
                let caller = components[parent as usize];
                if caller != callee {
                    self.edge_scratch.push((caller, callee));
                }
            }
        }
        self.edge_scratch.sort_unstable();
        if self.by_edge.len() < self.components.len() {
            self.by_edge.resize_with(self.components.len(), Vec::new);
        }
        let mut edges = self.edge_scratch.iter().copied().peekable();
        while let Some(edge @ (caller, callee)) = edges.next() {
            let mut count = 1u32;
            while edges.next_if_eq(&edge).is_some() {
                count += 1;
            }
            let out = &mut self.by_edge[caller as usize];
            let at = match out.binary_search_by_key(&callee, |&(to, _)| to) {
                Ok(at) => at,
                Err(at) => {
                    out.insert(at, (callee, Vec::new()));
                    at
                }
            };
            out[at].1.push((idx, count));
        }

        if self.by_api.len() < self.operations.len() {
            self.by_api
                .resize_with(self.operations.len(), ApiPostings::default);
        }
        let postings = &mut self.by_api[api_id as usize];
        if !postings.touched {
            postings.touched = true;
            self.touched_apis.push(api_id);
        }
        if let Some(&last) = postings.traces.last() {
            postings.unsorted |= self.root_start_us[last as usize] > root.start_us;
        }
        postings.traces.push(idx);

        self.max_root_start_us = Some(match self.max_root_start_us {
            Some(m) => m.max(root.start_us),
            None => root.start_us,
        });
    }

    /// Remove every stored trace and index (interned names included).
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// Evict every trace whose root starts before `cutoff_us`, compacting
    /// the columns in place.
    ///
    /// Kept traces are renumbered densely in their original relative order,
    /// and the posting lists are filtered and remapped under the same
    /// renumbering — the per-API lists stay `(root_start_us, index)`-sorted
    /// because both the time order and the relative index order survive the
    /// compaction. Interned name ids are never recycled, so ids observed
    /// before an eviction stay valid after it.
    ///
    /// Returns the number of traces evicted.
    pub fn evict_older_than(&mut self, cutoff_us: Micros) -> usize {
        let n = self.trace_ids.len();
        let keep: Vec<bool> = (0..n).map(|t| self.root_start_us[t] >= cutoff_us).collect();
        if keep.iter().all(|&k| k) {
            return 0;
        }

        // New index of each kept trace, assigned in kept order.
        let mut remap = vec![u32::MAX; n];
        let mut next = 0u32;
        for t in 0..n {
            if keep[t] {
                remap[t] = next;
                next += 1;
            }
        }

        // Compact the per-trace and per-span columns. `span_parent` holds
        // within-trace relative indices, so span ranges copy verbatim.
        let kept = next as usize;
        let mut trace_ids = Vec::with_capacity(kept);
        let mut api = Vec::with_capacity(kept);
        let mut root_start_us = Vec::with_capacity(kept);
        let mut root_duration_us = Vec::with_capacity(kept);
        let mut trace_offsets = Vec::with_capacity(kept + 1);
        trace_offsets.push(0u32);
        let mut span_parent = Vec::new();
        let mut span_component = Vec::new();
        let mut span_operation = Vec::new();
        let mut span_id = Vec::new();
        let mut span_start_us = Vec::new();
        let mut span_duration_us = Vec::new();
        for t in (0..n).filter(|&t| keep[t]) {
            let (lo, hi) = self.span_range(t as u32);
            trace_ids.push(self.trace_ids[t]);
            api.push(self.api[t]);
            root_start_us.push(self.root_start_us[t]);
            root_duration_us.push(self.root_duration_us[t]);
            span_parent.extend_from_slice(&self.span_parent[lo..hi]);
            span_component.extend_from_slice(&self.span_component[lo..hi]);
            span_operation.extend_from_slice(&self.span_operation[lo..hi]);
            span_id.extend_from_slice(&self.span_id[lo..hi]);
            span_start_us.extend_from_slice(&self.span_start_us[lo..hi]);
            span_duration_us.extend_from_slice(&self.span_duration_us[lo..hi]);
            trace_offsets.push(span_parent.len() as u32);
        }
        self.trace_ids = trace_ids;
        self.api = api;
        self.root_start_us = root_start_us;
        self.root_duration_us = root_duration_us;
        self.trace_offsets = trace_offsets;
        self.span_parent = span_parent;
        self.span_component = span_component;
        self.span_operation = span_operation;
        self.span_id = span_id;
        self.span_start_us = span_start_us;
        self.span_duration_us = span_duration_us;

        // Keep a posting of a surviving trace, under its new index.
        let renumber = |t: &mut u32| {
            let old = *t as usize;
            if keep[old] {
                *t = remap[old];
            }
            keep[old]
        };
        for postings in &mut self.by_api {
            postings.traces.retain_mut(renumber);
        }
        for out in &mut self.by_edge {
            out.retain_mut(|(_, postings)| {
                postings.retain_mut(|(t, _)| renumber(t));
                !postings.is_empty()
            });
        }

        // Eviction keeps exactly the traces at or after the cutoff, so
        // whenever anything survives the maximum-start trace survives too.
        if self.trace_ids.is_empty() {
            self.max_root_start_us = None;
        }
        n - kept
    }

    /// Latest root start timestamp over all traces (µs), if any.
    pub fn max_root_start_us(&self) -> Option<Micros> {
        self.max_root_start_us
    }

    /// Sorted, deduplicated names of all APIs (root operations) observed.
    pub fn api_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .api_ids()
            .map(|id| self.operations.resolve(id).to_string())
            .collect();
        v.sort();
        v
    }

    /// Iterate over all component names observed in spans, in id order.
    pub fn component_names(&self) -> impl Iterator<Item = &str> {
        self.components.iter()
    }

    /// Ids of the operations that root at least one stored trace.
    fn api_ids(&self) -> impl Iterator<Item = u32> + '_ {
        (0u32..)
            .zip(&self.by_api)
            .filter(|(_, postings)| !postings.traces.is_empty())
            .map(|(id, _)| id)
    }

    /// Trace indices of an API, sorted by `(root_start_us, trace index)`.
    pub fn api_trace_indices(&self, api: &str) -> &[u32] {
        self.operations
            .get(api)
            .and_then(|id| self.by_api.get(id as usize))
            .map_or(&[], |postings| &postings.traces)
    }

    /// Number of traces stored for an API.
    pub fn api_trace_count(&self, api: &str) -> usize {
        self.api_trace_indices(api).len()
    }

    /// Mean end-to-end latency (ms) over all traces of an API, summed in
    /// time order. Returns 0.0 for an unknown API.
    pub fn api_mean_latency_ms(&self, api: &str) -> f64 {
        let indices = self.api_trace_indices(api);
        if indices.is_empty() {
            return 0.0;
        }
        indices
            .iter()
            .map(|&t| us_to_ms(self.root_duration_us[t as usize]))
            .sum::<f64>()
            / indices.len() as f64
    }

    /// End-to-end latencies (ms) of all traces of an API, in time order.
    pub fn api_latencies_ms(&self, api: &str) -> Vec<f64> {
        self.api_trace_indices(api)
            .iter()
            .map(|&t| us_to_ms(self.root_duration_us[t as usize]))
            .collect()
    }

    /// Sorted names of the distinct components touched by an API's traces.
    pub fn api_component_names(&self, api: &str) -> Vec<String> {
        let mut seen = vec![false; self.components.len()];
        for &t in self.api_trace_indices(api) {
            let (lo, hi) = self.span_range(t);
            for &c in &self.span_component[lo..hi] {
                seen[c as usize] = true;
            }
        }
        let mut v: Vec<String> = seen
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s)
            .map(|(id, _)| self.components.resolve(id as u32).to_string())
            .collect();
        v.sort();
        v
    }

    /// Trace indices of an API whose root start lies in `[start_s, end_s)`,
    /// located by binary search over the time-sorted per-API index.
    pub fn api_trace_indices_in(&self, api: &str, start_s: Seconds, end_s: Seconds) -> &[u32] {
        self.trace_indices_in(self.api_trace_indices(api), start_s, end_s)
    }

    /// The part of a time-sorted posting list whose root starts lie in
    /// `[start_s, end_s)`.
    fn trace_indices_in<'a>(
        &self,
        indices: &'a [u32],
        start_s: Seconds,
        end_s: Seconds,
    ) -> &'a [u32] {
        let lo_us = start_s.saturating_mul(1_000_000);
        let hi_us = end_s.saturating_mul(1_000_000);
        let lo = indices.partition_point(|&t| self.root_start_us[t as usize] < lo_us);
        let hi = indices.partition_point(|&t| self.root_start_us[t as usize] < hi_us);
        &indices[lo..hi]
    }

    /// Requests per API whose root start falls in `[start_s, end_s)`,
    /// answered per API by binary search instead of a full-store scan.
    pub fn api_request_counts_in(&self, start_s: Seconds, end_s: Seconds) -> HashMap<String, u64> {
        let mut out = HashMap::new();
        for id in self.api_ids() {
            let traces = &self.by_api[id as usize].traces;
            let n = self.trace_indices_in(traces, start_s, end_s).len() as u64;
            if n > 0 {
                out.insert(self.operations.resolve(id).to_string(), n);
            }
        }
        out
    }

    /// Per-API windowed invocation counts on a directed component edge,
    /// answered from the per-edge posting list: only traces that actually
    /// cross the edge are touched, and each posting already carries its
    /// invocation count, so no per-trace tree walk or key rebuild happens.
    pub fn windowed_invocations(
        &self,
        pair: &PairKey,
        windowing: &Windowing,
        window_count: usize,
    ) -> HashMap<String, Vec<f64>> {
        let mut out = HashMap::new();
        let (Some(from), Some(to)) = (
            self.components.get(&pair.from),
            self.components.get(&pair.to),
        ) else {
            return out;
        };
        let mut by_api: HashMap<u32, Vec<f64>> = HashMap::new();
        for &(t, n) in self.edge_postings(from, to) {
            let idx = windowing.index_of_us(self.root_start_us[t as usize]);
            if idx >= window_count {
                continue;
            }
            by_api
                .entry(self.api[t as usize])
                .or_insert_with(|| vec![0.0; window_count])[idx] += n as f64;
        }
        for (api_id, windows) in by_api {
            out.insert(self.operations.resolve(api_id).to_string(), windows);
        }
        out
    }

    /// `(trace index, invocation count)` postings of the directed edge
    /// between two component ids, in ingest order.
    fn edge_postings(&self, from: u32, to: u32) -> &[(u32, u32)] {
        self.by_edge
            .get(from as usize)
            .and_then(|out| {
                let at = out.binary_search_by_key(&to, |&(callee, _)| callee).ok()?;
                Some(out[at].1.as_slice())
            })
            .unwrap_or(&[])
    }

    /// Rebuild an owned [`Trace`] from the columns.
    ///
    /// The spans are stored in validated `Trace::nodes` order, so the
    /// reconstruction reproduces the ingested trace exactly.
    pub fn materialize(&self, trace: u32) -> Trace {
        let (lo, hi) = self.span_range(trace);
        let trace_id = self.trace_ids[trace as usize];
        let spans: Vec<Span> = (lo..hi)
            .map(|s| {
                let parent = self.span_parent[s];
                let parent_id = if parent == NO_PARENT {
                    None
                } else {
                    Some(self.span_id[lo + parent as usize])
                };
                Span::new(
                    trace_id,
                    self.span_id[s],
                    parent_id,
                    Arc::clone(self.components.resolve(self.span_component[s])),
                    Arc::clone(self.operations.resolve(self.span_operation[s])),
                    self.span_start_us[s],
                    self.span_duration_us[s],
                )
            })
            .collect();
        Trace::from_spans(spans).expect("arena columns hold a validated trace")
    }

    /// Materialise every trace of an API in time order.
    pub fn traces_for_api(&self, api: &str) -> Vec<Trace> {
        self.api_trace_indices(api)
            .iter()
            .map(|&t| self.materialize(t))
            .collect()
    }

    /// Materialise the up-to-`limit` most recent traces of an API. Only the
    /// selected tail of the time-sorted index is materialised.
    pub fn recent_traces_for_api(&self, api: &str, limit: usize) -> Vec<Trace> {
        let indices = self.api_trace_indices(api);
        let skip = indices.len().saturating_sub(limit);
        indices[skip..]
            .iter()
            .map(|&t| self.materialize(t))
            .collect()
    }

    /// The structural signature of a trace: one packed `(parent index,
    /// component id)` word per span in node order. Two traces share a
    /// signature iff their call trees have the same shape over the same
    /// components — the exact inputs delay injection re-times a tree by.
    fn signature(&self, trace: u32) -> Vec<u64> {
        let (lo, hi) = self.span_range(trace);
        (lo..hi)
            .map(|s| ((self.span_parent[s] as u64) << 32) | self.span_component[s] as u64)
            .collect()
    }

    /// Collapse an API's traces into at most `cap` weighted representatives.
    ///
    /// Traces are grouped by structural signature in time order; each
    /// cluster keeps the member whose end-to-end latency is closest to the
    /// cluster mean (earliest member on ties) and is weighted by its member
    /// count. When more than `cap` clusters exist, the heaviest clusters are
    /// retained (most recent on equal weight), so with all-unique traces the
    /// retained set degenerates to the `cap` most recent traces — exactly
    /// the pre-clustering retention policy.
    pub fn weighted_representatives(&self, api: &str, cap: usize) -> Vec<WeightedTrace> {
        let indices = self.api_trace_indices(api);
        if indices.is_empty() || cap == 0 {
            return Vec::new();
        }
        // members[k] = trace indices of cluster k, in time order.
        let mut members: Vec<Vec<u32>> = Vec::new();
        let mut cluster_of: HashMap<Vec<u64>, usize> = HashMap::new();
        for &t in indices {
            let sig = self.signature(t);
            match cluster_of.get(&sig) {
                Some(&k) => members[k].push(t),
                None => {
                    cluster_of.insert(sig, members.len());
                    members.push(vec![t]);
                }
            }
        }
        let mut retained: Vec<usize> = (0..members.len()).collect();
        if retained.len() > cap {
            // Heaviest first; ties go to the cluster seen most recently.
            retained.sort_by_key(|&k| {
                let last = *members[k].last().expect("clusters are non-empty");
                (
                    std::cmp::Reverse(members[k].len()),
                    std::cmp::Reverse((self.root_start_us[last as usize], last)),
                )
            });
            retained.truncate(cap);
            // Emit representatives in first-seen order for determinism.
            retained.sort_unstable();
        }
        retained
            .into_iter()
            .map(|k| {
                let m = &members[k];
                let mean = m
                    .iter()
                    .map(|&t| self.root_duration_us[t as usize] as f64)
                    .sum::<f64>()
                    / m.len() as f64;
                let rep = *m
                    .iter()
                    .reduce(|best, t| {
                        let db = (self.root_duration_us[*best as usize] as f64 - mean).abs();
                        let dt = (self.root_duration_us[*t as usize] as f64 - mean).abs();
                        if dt < db {
                            t
                        } else {
                            best
                        }
                    })
                    .expect("clusters are non-empty");
                WeightedTrace {
                    trace: self.materialize(rep),
                    weight: m.len() as f64,
                }
            })
            .collect()
    }

    fn span_range(&self, trace: u32) -> (usize, usize) {
        let t = trace as usize;
        (
            self.trace_offsets[t] as usize,
            self.trace_offsets[t + 1] as usize,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Span, SpanId, TraceId};

    impl TraceArena {
        /// Ingest one well-formed trace as a one-trace batch; its index.
        fn push(&mut self, trace: &Trace) -> u32 {
            assert_eq!(self.append_batch([trace]), (1, 0), "a well-formed trace");
            index_u32(self.trace_ids.len() - 1, "trace count fits u32")
        }
    }

    fn tree_trace(id: u64, api: &str, start: Micros, dur: Micros, comps: &[&str]) -> Trace {
        let t = TraceId(id);
        let mut spans = vec![Span::new(
            t,
            SpanId(id * 100),
            None,
            comps[0],
            api,
            start,
            dur,
        )];
        for (i, c) in comps.iter().enumerate().skip(1) {
            spans.push(Span::new(
                t,
                SpanId(id * 100 + i as u64),
                Some(SpanId(id * 100)),
                *c,
                "op",
                start + 10 * i as u64,
                dur / 2,
            ));
        }
        Trace::from_spans(spans).unwrap()
    }

    #[test]
    fn round_trips_traces_through_columns() {
        let mut arena = TraceArena::new();
        let t = tree_trace(1, "/a", 5, 100, &["Frontend", "User", "Media"]);
        let idx = arena.push(&t);
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.span_count(), 3);
        assert_eq!(arena.materialize(idx), t);
    }

    #[test]
    fn per_api_index_stays_time_sorted_under_out_of_order_ingest() {
        let mut arena = TraceArena::new();
        arena.push(&tree_trace(1, "/a", 9_000_000, 10, &["F", "U"]));
        arena.push(&tree_trace(2, "/a", 1_000_000, 10, &["F", "U"]));
        arena.push(&tree_trace(3, "/a", 4_000_000, 10, &["F", "U"]));
        let starts: Vec<Micros> = arena
            .api_trace_indices("/a")
            .iter()
            .map(|&t| arena.root_start_us[t as usize])
            .collect();
        assert_eq!(starts, vec![1_000_000, 4_000_000, 9_000_000]);
        assert_eq!(arena.api_trace_indices_in("/a", 1, 5).len(), 2);
        assert_eq!(arena.max_root_start_us(), Some(9_000_000));
    }

    /// A trace from `(span id, parent span id, component, start)` rows; the
    /// first row is the root.
    fn shaped_trace(id: u64, rows: &[(u64, Option<u64>, &str, Micros)]) -> Trace {
        let spans = rows
            .iter()
            .map(|&(span, parent, component, start)| {
                Span::new(
                    TraceId(id),
                    SpanId(span),
                    parent.map(SpanId),
                    component,
                    if parent.is_none() { "/a" } else { "op" },
                    start,
                    10,
                )
            })
            .collect();
        Trace::from_spans(spans).unwrap()
    }

    fn postings(arena: &TraceArena, from: &str, to: &str) -> Vec<(u32, u32)> {
        let id = |name| arena.components.get(name).expect("component was ingested");
        arena.edge_postings(id(from), id(to)).to_vec()
    }

    #[test]
    fn a_child_that_starts_before_its_parent_still_counts_the_edge() {
        // `Trace::nodes` is start-time ordered, so `U` (start 50) sorts
        // before the span that called it (`M`, start 100): its parent index
        // is larger than its own.
        let t = shaped_trace(
            1,
            &[
                (1, None, "F", 0),
                (2, Some(1), "M", 100),
                (3, Some(2), "U", 50),
            ],
        );
        assert_eq!(&*t.nodes[1].span.component, "U");
        assert_eq!(t.nodes[1].parent, Some(2));
        let mut arena = TraceArena::new();
        let idx = arena.push(&t);
        assert_eq!(postings(&arena, "M", "U"), vec![(idx, 1)]);
        assert_eq!(postings(&arena, "F", "M"), vec![(idx, 1)]);
        assert!(postings(&arena, "F", "U").is_empty());
        assert_eq!(arena.materialize(idx), t);
    }

    #[test]
    fn a_self_call_is_never_an_edge() {
        let t = shaped_trace(
            1,
            &[
                (1, None, "F", 0),
                (2, Some(1), "F", 10),
                (3, Some(2), "U", 20),
            ],
        );
        let mut arena = TraceArena::new();
        let idx = arena.push(&t);
        assert!(postings(&arena, "F", "F").is_empty());
        assert_eq!(postings(&arena, "F", "U"), vec![(idx, 1)]);
        assert_eq!(arena.by_edge.iter().map(Vec::len).sum::<usize>(), 1);
    }

    #[test]
    fn an_edge_crossed_three_times_is_one_posting_with_count_three() {
        let t = shaped_trace(
            7,
            &[
                (1, None, "F", 0),
                (2, Some(1), "U", 10),
                (3, Some(1), "M", 20),
                (4, Some(1), "U", 30),
                (5, Some(1), "U", 40),
            ],
        );
        let mut arena = TraceArena::new();
        arena.push(&tree_trace(1, "/a", 0, 100, &["F", "U"]));
        let idx = arena.push(&t);
        assert_eq!(postings(&arena, "F", "U"), vec![(0, 1), (idx, 3)]);
        assert_eq!(postings(&arena, "F", "M"), vec![(idx, 1)]);
        let w = Windowing::new(0, 5);
        let inv = arena.windowed_invocations(&PairKey::new("F", "U"), &w, 1);
        assert_eq!(inv["/a"], vec![4.0]);
    }

    #[test]
    fn a_fully_reversed_batch_leaves_the_posting_lists_sorted() {
        // Newest first, with duplicate start times, over two APIs; the
        // batch must end in the order one-at-a-time pushes keep.
        let traces: Vec<Trace> = (0..40u64)
            .map(|i| {
                let api = if i % 3 == 0 { "/a" } else { "/b" };
                tree_trace(i + 1, api, (40 - i) / 2 * 1_000_000, 10, &["F", "U"])
            })
            .collect();
        let mut batched = TraceArena::new();
        assert_eq!(batched.append_batch(&traces), (traces.len(), 0));

        let mut pushed = TraceArena::new();
        for t in &traces {
            pushed.push(t);
        }
        for api in ["/a", "/b"] {
            let indices = batched.api_trace_indices(api);
            assert_eq!(indices, pushed.api_trace_indices(api));
            let keys: Vec<(Micros, u32)> = indices
                .iter()
                .map(|&t| (batched.root_start_us[t as usize], t))
                .collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "{api}: {keys:?}");
        }
    }

    #[test]
    fn interned_names_are_stored_once_and_resolve_back() {
        let mut names = NameInterner::default();
        let (frontend, user): (Arc<str>, Arc<str>) = (Arc::from("Frontend"), Arc::from("User"));
        let (a, b) = (names.intern(&frontend), names.intern(&user));
        assert_eq!((a, b), (0, 1));
        assert_eq!(names.intern(&Arc::from("Frontend")), a);
        assert_eq!(names.get("User"), Some(b));
        assert_eq!(names.get("Media"), None);
        assert_eq!(&**names.resolve(b), "User");
        assert_eq!(names.iter().collect::<Vec<_>>(), vec!["Frontend", "User"]);
        // The caller's allocation, shared by the id → name table, the
        // name → id map and its pointer-cache slot; the second `Frontend`
        // was not kept.
        assert!(Arc::ptr_eq(names.resolve(a), &frontend));
        assert_eq!(Arc::strong_count(&frontend), 4);
    }

    #[test]
    fn one_name_in_two_allocations_gets_one_id() {
        let mut names = NameInterner::default();
        let (first, second): (Arc<str>, Arc<str>) = (Arc::from("User"), Arc::from("User"));
        assert!(!Arc::ptr_eq(&first, &second));
        let id = names.intern(&first);
        for _ in 0..3 {
            assert_eq!(names.intern(&second), id);
            assert_eq!(names.intern(&first), id);
        }
        assert_eq!(names.len(), 1);
        assert!(Arc::ptr_eq(names.resolve(id), &first));
    }

    #[test]
    fn two_names_in_one_slot_each_resolve_to_their_own_id() {
        // One more live allocation than there are slots: two share one.
        let live: Vec<Arc<str>> = (0..=1usize << RECENT_SLOT_BITS)
            .map(|i| Arc::from(format!("C{i}")))
            .collect();
        let mut slots = vec![None; 1 << RECENT_SLOT_BITS];
        let (a, b) = live
            .iter()
            .enumerate()
            .find_map(|(i, name)| {
                let earlier = slots[NameInterner::slot(name)].replace(i)?;
                Some((&live[earlier], name))
            })
            .expect("pigeonhole");
        let mut names = NameInterner::default();
        let (id_a, id_b) = (names.intern(a), names.intern(b));
        assert_ne!(id_a, id_b);
        // Each evicts the other from the shared slot, and neither is
        // answered with the other's id.
        for _ in 0..3 {
            assert_eq!(names.intern(a), id_a);
            assert_eq!(names.intern(b), id_b);
        }
        assert_eq!(
            (&**names.resolve(id_a), &**names.resolve(id_b)),
            (&**a, &**b)
        );
    }

    #[test]
    fn a_cached_allocation_stays_alive() {
        let mut names = NameInterner::default();
        names.intern(&Arc::from("User"));
        // A second producer's `User`: the interner keeps the first one, and
        // the cache holds this one, so its address cannot be handed to
        // another name while the slot names it.
        let second: Arc<str> = Arc::from("User");
        names.intern(&second);
        assert_eq!(Arc::strong_count(&second), 2);
        let weak = Arc::downgrade(&second);
        drop(second);
        assert!(weak.upgrade().is_some(), "the cache slot keeps it alive");
    }

    #[test]
    fn ids_match_a_plain_map_interner_on_reallocated_names() {
        // A stream over more distinct names than the cache has slots, each
        // re-allocated at random, so evicted allocations are freed and
        // their addresses reused by other names; against a map keyed by
        // content alone.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let count = 3 << RECENT_SLOT_BITS;
        let mut live: Vec<Arc<str>> = (0..count).map(|i| Arc::from(format!("N{i}"))).collect();
        let mut names = NameInterner::default();
        let mut reference: HashMap<String, u32> = HashMap::new();
        let mut named_at: HashMap<usize, String> = HashMap::new();
        let mut reused = 0;
        for _ in 0..50_000 {
            let k = next(count as u64) as usize;
            if next(4) == 0 {
                live[k] = Arc::from(format!("N{}", next(count as u64)));
            }
            let name = &live[k];
            let address = Arc::as_ptr(name).cast::<u8>() as usize;
            if let Some(before) = named_at.insert(address, name.to_string()) {
                reused += usize::from(before != **name);
            }
            let fresh = reference.len() as u32;
            let expected = *reference.entry(name.to_string()).or_insert(fresh);
            assert_eq!(names.intern(name), expected);
        }
        assert!(reused > 0, "no address was reused by another name");
        assert_eq!(names.len(), reference.len());
    }

    #[test]
    fn materialized_spans_share_the_interned_names() {
        let mut arena = TraceArena::new();
        arena.push(&tree_trace(1, "/a", 0, 100, &["F", "U", "U"]));
        arena.push(&tree_trace(2, "/a", 1_000, 100, &["F", "U"]));
        for trace in arena.traces_for_api("/a") {
            for span in trace.spans() {
                let component = arena.components.get(&span.component).unwrap();
                let operation = arena.operations.get(&span.operation).unwrap();
                assert!(Arc::ptr_eq(
                    &span.component,
                    arena.components.resolve(component)
                ));
                assert!(Arc::ptr_eq(
                    &span.operation,
                    arena.operations.resolve(operation)
                ));
            }
        }
    }

    /// Each of `bad` between two good traces of one batch is skipped whole:
    /// nothing of it reaches a column, a name table or an index, and the
    /// batch still sorts its API's list.
    fn assert_skipped_whole(bad: &[Trace]) {
        let good = [
            tree_trace(1, "/a", 9_000_000, 10, &["F", "U"]),
            tree_trace(2, "/a", 1_000_000, 20, &["F", "M"]),
        ];
        let mut reference = TraceArena::new();
        assert_eq!(reference.append_batch(&good), (2, 0));
        for bad in bad {
            let mut arena = TraceArena::new();
            assert_eq!(arena.append_batch([&good[0], bad, &good[1]]), (2, 1));
            assert_eq!(arena.span_count(), reference.span_count());
            assert!(arena.components.iter().eq(reference.components.iter()));
            assert!(arena.operations.iter().eq(reference.operations.iter()));
            assert_eq!(arena.by_edge, reference.by_edge);
            assert_eq!(arena.api_trace_indices("/a"), [1, 0]);
            for (t, trace) in (0..).zip(&good) {
                assert_eq!(&arena.materialize(t), trace);
            }
        }
    }

    #[test]
    fn a_malformed_trace_is_skipped_whole() {
        let empty = Trace::without_nodes(TraceId(3));
        let mut late_root = tree_trace(3, "/a", 5_000_000, 10, &["F", "U"]);
        late_root.nodes[0].parent = Some(1);
        let mut two_roots = tree_trace(3, "/a", 5_000_000, 10, &["F", "U"]);
        two_roots.nodes[1].parent = None;
        let mut dangling = tree_trace(3, "/b", 5_000_000, 10, &["F", "U", "M"]);
        dangling.nodes[2].parent = Some(7);
        assert_skipped_whole(&[empty, late_root, two_roots, dangling]);
    }

    #[test]
    fn a_parent_cycle_beside_the_root_is_skipped_whole() {
        // Every parent index is in range and only node 0 lacks one, yet
        // some nodes never reach the root: `materialize` would panic on
        // them, because `Trace::from_spans` refuses the cycle.
        let mut two_cycle = tree_trace(3, "/b", 5_000_000, 10, &["F", "U", "M", "D"]);
        two_cycle.nodes[2].parent = Some(3);
        two_cycle.nodes[3].parent = Some(2);
        let mut self_parent = tree_trace(3, "/b", 5_000_000, 10, &["F", "U", "M"]);
        self_parent.nodes[2].parent = Some(2);
        // A three-cycle with `U` hanging below it.
        let mut below = tree_trace(3, "/b", 5_000_000, 10, &["F", "U", "M", "D", "E"]);
        for (node, parent) in [(1, 4), (2, 3), (3, 4), (4, 2)] {
            below.nodes[node].parent = Some(parent);
        }
        assert_skipped_whole(&[two_cycle, self_parent, below]);
    }

    #[test]
    fn a_span_id_twice_is_skipped_whole() {
        // Consecutive ids, as one generator hands out ...
        let mut dense = tree_trace(3, "/b", 5_000_000, 10, &["F", "U", "M"]);
        dense.nodes[2].span.span_id = dense.nodes[1].span.span_id;
        // ... and sparse ones, as random 64-bit ids are.
        let rows = [
            (1 << 40, None, "F", 0),
            (3 << 40, Some(1 << 40), "U", 10),
            (2 << 40, Some(1 << 40), "D", 20),
        ];
        let mut arena = TraceArena::new();
        assert_eq!(arena.append_batch([shaped_trace(3, &rows)]), (1, 0));
        let mut sparse = shaped_trace(3, &rows);
        sparse.nodes[2].span.span_id = sparse.nodes[0].span.span_id;
        assert_skipped_whole(&[dense, sparse]);
    }

    #[test]
    #[should_panic(expected = "span count fits u32")]
    fn outgrowing_the_u32_columns_fails_loudly() {
        index_u32(u32::MAX as usize + 1, "span count fits u32");
    }

    #[test]
    fn clustering_collapses_identical_structures() {
        let mut arena = TraceArena::new();
        // Three structurally identical traces with latencies 100/200/900 and
        // one with a different component set.
        arena.push(&tree_trace(1, "/a", 0, 100, &["F", "U"]));
        arena.push(&tree_trace(2, "/a", 1_000, 200, &["F", "U"]));
        arena.push(&tree_trace(3, "/a", 2_000, 900, &["F", "U"]));
        arena.push(&tree_trace(4, "/a", 3_000, 50, &["F", "M"]));
        let reps = arena.weighted_representatives("/a", 10);
        assert_eq!(reps.len(), 2);
        assert_eq!(reps[0].weight, 3.0);
        // Mean latency is 400 µs; 200 µs is the closest member.
        assert_eq!(reps[0].trace.end_to_end_latency_us(), 200);
        assert_eq!(reps[1].weight, 1.0);
    }

    #[test]
    fn eviction_compacts_columns_and_keeps_indexes_consistent() {
        let mut arena = TraceArena::new();
        arena.push(&tree_trace(1, "/a", 1_000_000, 100, &["F", "U"]));
        arena.push(&tree_trace(2, "/b", 2_000_000, 200, &["F", "M"]));
        arena.push(&tree_trace(3, "/a", 5_000_000, 300, &["F", "U", "M"]));
        arena.push(&tree_trace(4, "/b", 9_000_000, 400, &["F", "M"]));

        assert_eq!(arena.evict_older_than(3_000_000), 2);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.span_count(), 5);
        assert_eq!(arena.max_root_start_us(), Some(9_000_000));

        // The kept traces round-trip exactly under their new indices.
        let a = arena.api_trace_indices("/a").to_vec();
        assert_eq!(a.len(), 1);
        let t = arena.materialize(a[0]);
        assert_eq!(t.trace_id, TraceId(3));
        assert_eq!(t.root().start_us, 5_000_000);
        assert_eq!(t.nodes.len(), 3);

        // The edge index survives the renumbering: /b's remaining trace
        // still answers windowed invocation queries.
        let w = crate::window::Windowing::new(0, 5);
        let inv = arena.windowed_invocations(&PairKey::new("F", "M"), &w, 2);
        assert_eq!(inv["/b"], vec![0.0, 1.0]);

        // Evicting nothing reports nothing.
        assert_eq!(arena.evict_older_than(0), 0);

        // Evicting everything empties the arena.
        assert_eq!(arena.evict_older_than(10_000_000), 2);
        assert!(arena.is_empty());
        assert_eq!(arena.span_count(), 0);
        assert_eq!(arena.max_root_start_us(), None);
        assert!(arena.api_names().is_empty());
    }

    #[test]
    fn eviction_preserves_time_sort_and_clustering() {
        let mut arena = TraceArena::new();
        // Out-of-order ingest across the cutoff.
        arena.push(&tree_trace(1, "/a", 9_000_000, 10, &["F", "U"]));
        arena.push(&tree_trace(2, "/a", 1_000_000, 10, &["F", "U"]));
        arena.push(&tree_trace(3, "/a", 4_000_000, 10, &["F", "U"]));
        arena.push(&tree_trace(4, "/a", 6_000_000, 10, &["F", "U", "M"]));
        arena.evict_older_than(4_000_000);
        let starts: Vec<Micros> = arena
            .api_trace_indices("/a")
            .iter()
            .map(|&t| arena.root_start_us[t as usize])
            .collect();
        assert_eq!(starts, vec![4_000_000, 6_000_000, 9_000_000]);
        let reps = arena.weighted_representatives("/a", 10);
        assert_eq!(reps.len(), 2);
        assert_eq!(reps[0].weight, 2.0);
        assert_eq!(reps[1].weight, 1.0);
    }

    #[test]
    fn unique_structures_cap_to_the_most_recent_traces() {
        let mut arena = TraceArena::new();
        // Each trace has a distinct fanout, so every cluster has one member.
        for i in 1..=5u64 {
            let comps: Vec<String> = (0..=i).map(|j| format!("C{j}")).collect();
            let refs: Vec<&str> = comps.iter().map(String::as_str).collect();
            arena.push(&tree_trace(i, "/a", i * 1_000_000, 100, &refs));
        }
        let reps = arena.weighted_representatives("/a", 2);
        assert_eq!(reps.len(), 2);
        assert!(reps.iter().all(|r| r.weight == 1.0));
        let starts: Vec<Micros> = reps.iter().map(|r| r.trace.root().start_us).collect();
        assert_eq!(starts, vec![4_000_000, 5_000_000]);
    }
}
