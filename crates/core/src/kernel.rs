//! The compiled plan-evaluation kernel: compile once, score many.
//!
//! Delay injection over retained traces (paper §4.1.1, Figure 6) is the
//! inner loop of every search path in the workspace, and the interpretive
//! implementation in [`crate::oracle`] pays for its generality on every call:
//! each caller→callee hop resolves component names with an O(n) scan over
//! `component_index`, looks payload sizes up in a `(String, String, String)`
//! hash map (allocating three `String` keys per probe), and walks the trace
//! tree with a recursion that re-derives the sequential-wave / parallel-
//! sibling / background structure from span timestamps — all of which is
//! invariant across the thousands of candidate plans a search scores.
//!
//! # Compile/score contract
//!
//! [`CompiledQuality::compile`] runs once at [`QualityModel`] construction
//! and bakes everything that does not depend on the candidate plan:
//!
//! * component names are resolved to `u32` indices (unknown/external
//!   components — e.g. clients — get a sentinel that always reads as
//!   [`SiteId::ON_PREM`], matching the interpretive injector);
//! * a hop's exchange cost depends only on its API's learned
//!   request/response bytes on that caller→callee edge, so the
//!   [`NetworkFootprint`] is probed once per edge and folded into a
//!   precomputed `N×N` exchange-cost table over the site catalog — one
//!   table per distinct (API, caller, callee) edge, held per API and shared
//!   by every hop over that edge (the two-site model compiles the familiar
//!   `[collocated, split]` pair as a 2×2 table) — so the paper's Δ of Eq. 2
//!   becomes `delta = cost_table[caller_site × N + callee_site] −
//!   before_cost` — still a table lookup and one subtraction,
//!   zero-allocation per evaluation;
//! * because the **`current` placement is fixed per model** (it is the
//!   deployment the traces were collected under), `before_cost` is a baked
//!   constant per edge — this is why a `CompiledQuality` cannot be reused
//!   across different current placements and is rebuilt by
//!   [`QualityModel::for_catalog`];
//! * the wave grouping, inter-wave gaps and each node's trailing
//!   own-compute time are placement-independent functions of the span
//!   timestamps, so each trace compiles to a flat, recursion-free
//!   instruction arena (an `Op` stream) whose evaluation is driven only by
//!   the candidate [`Placement`] and a reusable wave-frame stack.
//!
//! Scoring a plan is then an iterative, zero-allocation pass: thread-local
//! [`EvalScratch`] buffers hold the walk's per-lane state (site columns,
//! wave stack, latencies, accumulators), the site assignment and the cost
//! model's scratch, so concurrent evaluator workers never contend on the
//! allocator.
//!
//! # Bit-identity with the oracle
//!
//! The kernel performs the *same floating-point operations in the same
//! order* as the interpretive oracle, so its scores are bit-identical to
//! [`oracle::evaluate`], and each sample of
//! [`QualityModel::estimate_latency_distribution_ms`] to the oracle's
//! [`DelayInjector`] replay of the same trace — property tests pin this on
//! generated scenarios, at every walk width (see below). Nothing falls back
//! to the oracle: every estimate, a drift detector's `b_approx` included,
//! is taken against the current placement the model was compiled for, the
//! one its traces were collected under.
//!
//! # One walk at any width
//!
//! The kernel has one trace interpreter, and it scores a *lane group* of
//! plans in **one** walk of the instruction arena: a lone plan is a group
//! of width 1, the plan evaluator's batches are groups of
//! [`LANE_WIDTH`](crate::eval::LANE_WIDTH). The walk reads the group's
//! sites as component-major columns — `soa[c * lanes + l]` is the site
//! component `c` occupies in lane `l` — so when an op touches a component,
//! the sites it occupies across all lanes sit in one contiguous strip; at
//! width 1 that layout *is* the plan's own site slice, read in place. The
//! interpreter state (the wave-frame stack with one frame per lane per open
//! wave, the per-API accumulator and the `Q_Perf` totals) is a per-lane
//! array updated in a tight inner loop over the lanes, while the op decode,
//! the wave bookkeeping and the resolution of unindexed components are paid
//! once per op. Each op reads and writes wave frames only — a child's start
//! opens its first wave in the same op, a leaf child starts and ends in
//! one — so no value passes between ops outside the frames, and a trace
//! walks in about one op per hop and wave. One fold turns the walked
//! latencies into `Q_Perf`: a score of any width and the per-API estimate
//! are both calls of it. The lanes are arithmetically independent and
//! every lane performs the floating-point operations of a lone plan's walk
//! in the same order, so a plan's score depends neither on the width nor on
//! its lane; the differential property suite pins widths 1, 3, 8, 16 and
//! 64 against [`QualityModel::evaluate`] (width 1) and the interpretive
//! oracle.
//!
//! # Example
//!
//! Lane-batched scoring, matching the plain evaluator exactly (the quality
//! model is learned from a compressed simulated run of the social network):
//!
//! ```
//! use atlas_apps::{social_network, SocialNetworkOptions, WorkloadGenerator, WorkloadOptions};
//! use atlas_core::{Atlas, AtlasConfig, MigrationPlan, MigrationPreferences};
//! use atlas_sim::{OverloadModel, Placement, SimConfig, Simulator};
//! use atlas_telemetry::TelemetryStore;
//!
//! let app = social_network(SocialNetworkOptions::default());
//! let current = Placement::all_onprem(app.component_count());
//! let mut options = WorkloadOptions::social_network_default().with_seed(5);
//! options.profile.day_seconds = 60; // compressed day keeps the example fast
//! let schedule = WorkloadGenerator::new(options).generate(&app).unwrap();
//! let store = TelemetryStore::new();
//! Simulator::new(
//!     app.clone(),
//!     current.clone(),
//!     SimConfig {
//!         overload: OverloadModel::disabled(),
//!         ..SimConfig::default()
//!     },
//! )
//! .run(&schedule, &store);
//!
//! let component_index: Vec<String> =
//!     app.components().iter().map(|c| c.name.clone()).collect();
//! let mut config = AtlasConfig::new(component_index, vec![]);
//! config.traces_per_api = 20;
//! config.horizon_steps = 4;
//! let mut atlas = Atlas::new(config);
//! atlas.learn(&store);
//! let quality = atlas.quality_model(current, MigrationPreferences::default());
//!
//! let n = app.component_count();
//! let onprem = MigrationPlan::all_onprem(n);
//! let cloud = Placement::all_cloud(n);
//!
//! // Batched lanes score both plans in one arena walk, bit-identically.
//! let batch = quality.evaluate_lanes(&[&onprem, &cloud]);
//! assert_eq!(batch[0], quality.evaluate(&onprem));
//! assert_eq!(batch[1], quality.evaluate(&cloud));
//! ```
//!
//! [`QualityModel`]: crate::quality::QualityModel
//! [`QualityModel::evaluate`]: crate::quality::QualityModel::evaluate
//! [`QualityModel::for_catalog`]: crate::quality::QualityModel::for_catalog
//! [`QualityModel::estimate_latency_distribution_ms`]: crate::quality::QualityModel::estimate_latency_distribution_ms
//! [`oracle::evaluate`]: crate::oracle::evaluate
//! [`DelayInjector`]: crate::oracle::DelayInjector

use std::cell::RefCell;
use std::collections::HashMap;

use atlas_cloud::{CostScratch, OnPremPeaks};
use atlas_sim::{ComponentId, OwnedSiteLimits, Placement, SiteId, SiteNetwork};
use atlas_telemetry::Trace;

use crate::footprint::NetworkFootprint;
use crate::preferences::MigrationPreferences;
use crate::profile::ApplicationProfile;

/// Sentinel component id for names absent from the component index
/// (external clients); they are treated as collocated with the on-prem
/// entry point (site 0), exactly like the interpretive injector's
/// `site_of`.
const UNKNOWN: u32 = u32::MAX;

/// One frame of the wave stack: the wave's base timestamp and the running
/// maximum end time of its children ("wave end"). A walk keeps one frame
/// per lane per open wave, the wave's `lanes` frames side by side.
#[derive(Debug, Clone, Copy)]
struct WaveFrame {
    base: f64,
    wend: f64,
}

/// Reusable per-thread scratch buffers for kernel evaluation. Obtain one
/// with [`with_scratch`]; buffers grow to the working-set size once and are
/// reused across evaluations on the same thread.
#[derive(Debug, Default)]
pub struct EvalScratch {
    /// Site assignment of the candidate plan, indexed like the component
    /// index.
    pub sites: Vec<SiteId>,
    /// Scratch of the cloud cost model.
    pub cost: CostScratch,
    /// Per-lane state of the trace walk, at any width.
    pub lanes: LaneScratch,
}

/// Reusable buffers of the trace walk: a lane group's component-major site
/// columns plus the per-lane wave-stack, latency and accumulator arrays that
/// let one walk of a trace's instruction stream price every lane. See the
/// [module docs](self#one-walk-at-any-width) for the layout.
#[derive(Debug, Default)]
pub struct LaneScratch {
    /// The columns of a group wider than one plan (see [`load`]).
    soa: Vec<SiteId>,
    /// One on-prem site per lane: the column unindexed components read.
    onprem: Vec<SiteId>,
    /// Per-lane latency (ms) of the trace just walked; after a fold, the
    /// last API's weighted mean latency.
    latency: Vec<f64>,
    /// The wave-frame stack, `lanes` frames per open wave.
    stack: Vec<WaveFrame>,
    /// Per-lane weighted latency sum of the API being folded; zero between
    /// APIs.
    acc: Vec<f64>,
    /// Per-lane `Q_Perf` totals.
    total: Vec<f64>,
}

/// The first `n` sites of `plan`, the part an `n`-component model scores:
/// the one refusal of a short plan that every scoring path shares.
///
/// # Panics
///
/// Panics if the plan is shorter than `n`.
pub(crate) fn covering(plan: &[SiteId], n: usize) -> &[SiteId] {
    assert!(
        plan.len() >= n,
        "scoring needs a plan covering every component ({} of {n})",
        plan.len()
    );
    &plan[..n]
}

/// The component-major site columns of one lane group over an
/// `n`-component kernel — `soa[c * lanes + l]` is the site component `c`
/// occupies in lane `l` — read off each plan's first `n` sites. One plan's
/// own sites already have that layout and are read in place; a wider group
/// is transposed into `soa`.
///
/// # Panics
///
/// Panics if a plan is shorter than the kernel.
fn load<'a>(soa: &'a mut Vec<SiteId>, plans: &[&'a [SiteId]], n: usize) -> &'a [SiteId] {
    if let [plan] = plans {
        return covering(plan, n);
    }
    let lanes = plans.len();
    soa.clear();
    soa.resize(n * lanes, SiteId::ON_PREM);
    for (l, plan) in plans.iter().enumerate() {
        for (c, &site) in covering(plan, n).iter().enumerate() {
            soa[c * lanes + l] = site;
        }
    }
    soa
}

thread_local! {
    static SCRATCH: RefCell<EvalScratch> = RefCell::new(EvalScratch::default());
}

/// Run `f` with this thread's [`EvalScratch`]. Do not call [`with_scratch`]
/// again from inside `f` (the scratch is a `RefCell`; re-entry panics).
pub fn with_scratch<R>(f: impl FnOnce(&mut EvalScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// One instruction of a compiled trace: the pre-order linearisation of the
/// interpretive injector's recursion (see [`CompiledTrace`]), with every
/// value a node hands to the next step of the recursion kept in the wave
/// frames. The innermost open wave's frame is the *top* frame.
#[derive(Debug, Clone)]
enum Op {
    /// Start one child of the top wave and open the child's first wave: at
    /// the child's `start = hop.start(top.base)`, push a frame with
    /// `base = start + gap` (the child's own compute before triggering the
    /// wave) and `wend = start`.
    Call { hop: Hop, gap: f64 },
    /// Start and close one child without foreground calls of its own:
    /// `top.wend = max(top.wend, hop.start(top.base) + tail)`, `tail` being
    /// the child's own compute.
    Leaf { hop: Hop, tail: f64 },
    /// Close the top wave and open the same node's next one (the root's
    /// first wave too): `top.base = top.wend + gap`.
    Next { gap: f64 },
    /// Close a child's last wave and the child: pop its frame, add its
    /// trailing own-compute after that wave and fold its end into the
    /// caller's wave (`top.wend = max(top.wend, popped.wend + tail)`).
    Ret { tail: f64 },
}

/// One caller → callee hop of a trace, started from its wave's base.
#[derive(Debug, Clone, Copy)]
struct Hop {
    offset: f64,
    caller: u32,
    callee: u32,
    /// Offset of this hop's `site_count²` exchange-cost table in its API's
    /// [`CompiledApi::link_costs`] arena, which holds one table per
    /// distinct (API, caller, callee) edge: every hop over the same edge
    /// shares it.
    cost_base: u32,
    before: f64,
}

impl Hop {
    /// The child's start under the candidate's `(caller, callee)` sites
    /// over an `n`-site catalog: `(base + offset) + (after − before)`, the
    /// after-cost being the entry for the pair in `table`, the hop's
    /// exchange-cost table.
    fn start(&self, base: f64, table: &[f64], a: SiteId, b: SiteId, n: usize) -> f64 {
        (base + self.offset) + (table[a.index() * n + b.index()] - self.before)
    }
}

/// One retained trace compiled to a flat instruction arena. Evaluating it
/// replays the exact floating-point schedule of
/// [`DelayInjector::estimate_trace_latency_ms`](crate::oracle::DelayInjector::estimate_trace_latency_ms)
/// without recursion, name resolution or hashing. Background subtrees are
/// not emitted at all: the interpretive path re-times them but discards the
/// result, so they cannot affect the returned latency.
///
/// Its hops' exchange-cost tables are not its own: there is one table per
/// distinct (API, caller, callee) edge, held per API in
/// [`CompiledApi::link_costs`], which the walk is handed.
#[derive(Debug, Clone)]
struct CompiledTrace {
    root_start: f64,
    /// Clustering weight: how many raw traces this (representative) trace
    /// stands for. 1.0 for unclustered profiles, which keeps the weighted
    /// per-API mean bit-identical to the unweighted one.
    weight: f64,
    ops: Vec<Op>,
    /// The root's trailing own-compute after its last foreground wave.
    tail: f64,
}

impl CompiledTrace {
    /// The trace interpreter: walk the instruction stream once for every
    /// lane of a group, writing each lane's end-to-end latency (ms) to
    /// `latency`. `link_costs` is the trace's API's table arena, `soa`
    /// holds the group's site columns (see [`load`]) over a
    /// `site_count`-site catalog and `onprem` is one on-prem site per
    /// lane, the column unindexed components read. Interleaving the
    /// arithmetically independent lanes keeps each one's floating-point
    /// schedule that of a lone walk, while the op decode, the wave
    /// bookkeeping and the `UNKNOWN` resolution are paid once per op.
    fn run_lanes(
        &self,
        link_costs: &[f64],
        soa: &[SiteId],
        onprem: &[SiteId],
        site_count: usize,
        latency: &mut [f64],
        stack: &mut Vec<WaveFrame>,
    ) {
        let lanes = latency.len();
        let n = site_count;
        let table = |hop: &Hop| &link_costs[hop.cost_base as usize..][..n * n];
        let sites = |hop: &Hop| {
            let column = |id: u32| match id {
                UNKNOWN => onprem,
                id => &soa[id as usize * lanes..][..lanes],
            };
            column(hop.caller).iter().zip(column(hop.callee))
        };
        let root = WaveFrame {
            base: self.root_start,
            wend: self.root_start,
        };
        stack.clear();
        stack.resize(lanes, root);
        // The top wave's frames are `stack[top - lanes..top]`; the root's,
        // which ends the walk holding the root's end, are `stack[..lanes]`.
        let mut top = lanes;
        for op in &self.ops {
            match *op {
                Op::Call { ref hop, gap } => {
                    if stack.len() < top + lanes {
                        stack.resize(top + lanes, root);
                    }
                    let (wave, child) = stack[top - lanes..top + lanes].split_at_mut(lanes);
                    let table = table(hop);
                    for ((frame, opened), (&a, &b)) in wave.iter().zip(child).zip(sites(hop)) {
                        let start = hop.start(frame.base, table, a, b, n);
                        *opened = WaveFrame {
                            base: start + gap,
                            wend: start,
                        };
                    }
                    top += lanes;
                }
                Op::Leaf { ref hop, tail } => {
                    let table = table(hop);
                    for (frame, (&a, &b)) in stack[top - lanes..top].iter_mut().zip(sites(hop)) {
                        let start = hop.start(frame.base, table, a, b, n);
                        frame.wend = frame.wend.max(start + tail);
                    }
                }
                Op::Next { gap } => {
                    for frame in &mut stack[top - lanes..top] {
                        frame.base = frame.wend + gap;
                    }
                }
                Op::Ret { tail } => {
                    top -= lanes;
                    let (wave, child) = stack[top - lanes..top + lanes].split_at_mut(lanes);
                    for (frame, closed) in wave.iter_mut().zip(&*child) {
                        frame.wend = frame.wend.max(closed.wend + tail);
                    }
                }
            }
        }
        for (latency, end) in latency.iter_mut().zip(&stack[..lanes]) {
            *latency = ((end.wend + self.tail) - self.root_start).max(0.0) / 1_000.0;
        }
    }
}

/// Compiles one API's retained traces against the model-wide footprint,
/// network, current placement and component index, into one
/// [`CompiledApi::link_costs`] arena: one exchange-cost table per distinct
/// (API, caller, callee) edge, baked the first time a hop crosses it.
struct ApiCompiler<'a> {
    api: &'a str,
    footprint: &'a NetworkFootprint,
    network: &'a SiteNetwork,
    current: &'a Placement,
    id_of: &'a HashMap<&'a str, u32>,
    link_costs: Vec<f64>,
    /// Each edge met so far, as its hop at offset 0. Keyed by the caller's
    /// and callee's names, not their ids: every unindexed component
    /// resolves to [`UNKNOWN`], yet each has its own learned bytes.
    edges: HashMap<(&'a str, &'a str), Hop>,
}

impl<'a> ApiCompiler<'a> {
    /// The hop over `caller → callee`, at offset 0: on first sight, the
    /// edge's footprint is probed once and its exchange cost baked for
    /// every ordered site pair (row-major by caller site).
    fn edge(&mut self, caller: &'a str, callee: &'a str) -> Hop {
        if let Some(&hop) = self.edges.get(&(caller, callee)) {
            return hop;
        }
        let (req, resp) = self.footprint.get_or_zero(self.api, caller, callee);
        let (caller_id, callee_id) = (resolve(self.id_of, caller), resolve(self.id_of, callee));
        let n = self.network.site_count();
        let cost_base = self.link_costs.len() as u32;
        for a in 0..n as u16 {
            for b in 0..n as u16 {
                let cost = self.network.exchange_us(SiteId(a), SiteId(b), req, resp);
                self.link_costs.push(cost);
            }
        }
        let before_a = current_site(self.current, caller_id);
        let before_b = current_site(self.current, callee_id);
        let hop = Hop {
            offset: 0.0,
            caller: caller_id,
            callee: callee_id,
            cost_base,
            before: self.link_costs[cost_base as usize + before_a.index() * n + before_b.index()],
        };
        self.edges.insert((caller, callee), hop);
        hop
    }

    fn trace(&mut self, trace: &'a Trace, weight: f64) -> CompiledTrace {
        let mut ops = Vec::new();
        let tail = self.node(trace, 0, None, &mut ops);
        CompiledTrace {
            root_start: trace.root().start_us as f64,
            weight,
            ops,
            tail,
        }
    }

    /// Emit the instruction stream of one trace node, which `enter` starts
    /// (`None` for the root). Mirrors `DelayInjector::inject`: the wave
    /// grouping and every placement-independent quantity (gaps, child
    /// offsets, trailing compute) are computed here, once, with the same
    /// arithmetic the interpretive path performs per evaluation, and each
    /// hop takes its edge's table from [`Self::edge`]. Returns the node's
    /// trailing own-compute after its last foreground wave, which closes
    /// the node: in the caller's `Leaf` or `Ret`, or, for the root, in the
    /// trace.
    fn node(
        &mut self,
        trace: &'a Trace,
        node: usize,
        mut enter: Option<Hop>,
        ops: &mut Vec<Op>,
    ) -> f64 {
        let span = &trace.nodes[node].span;
        let orig_start = span.start_us as f64;
        let orig_end = span.end_us() as f64;
        let start_of = |c: usize| trace.nodes[c].span.start_us as f64;
        let end_of = |c: usize| trace.nodes[c].span.end_us() as f64;
        let foreground = |c: &usize| !trace.is_background(*c);

        // Foreground children in sequential waves of parallel siblings
        // (same rule as the interpretive injector): a wave runs from a
        // foreground child through every later one that starts before the
        // wave's running end. `rest` holds the children not yet grouped,
        // background ones included and skipped, so nothing is collected.
        let mut rest = trace.children(node);
        let mut prev_end_orig = orig_start;
        while let Some(first) = rest.iter().position(foreground) {
            rest = &rest[first..];
            let mut wave_end = end_of(rest[0]);
            let mut len = 1;
            for (i, &c) in rest.iter().enumerate().skip(1) {
                if foreground(&c) {
                    if start_of(c) >= wave_end {
                        break;
                    }
                    wave_end = wave_end.max(end_of(c));
                    len = i + 1;
                }
            }
            let (wave, after) = rest.split_at(len);
            rest = after;
            let wave = wave.iter().copied().filter(foreground);
            let wave_orig_start = wave.clone().map(start_of).fold(f64::INFINITY, f64::min);
            let gap = (wave_orig_start - prev_end_orig).max(0.0);
            ops.push(match enter.take() {
                Some(hop) => Op::Call { hop, gap },
                None => Op::Next { gap },
            });

            let mut wave_end_orig = prev_end_orig;
            for c in wave {
                let hop = Hop {
                    offset: start_of(c) - wave_orig_start,
                    ..self.edge(&span.component, &trace.nodes[c].span.component)
                };
                let emitted = ops.len();
                let tail = self.node(trace, c, Some(hop), ops);
                ops.push(if ops.len() == emitted {
                    Op::Leaf { hop, tail }
                } else {
                    Op::Ret { tail }
                });
                wave_end_orig = wave_end_orig.max(end_of(c));
            }
            prev_end_orig = wave_end_orig;
        }
        (orig_end - prev_end_orig).max(0.0)
    }
}

fn resolve(id_of: &HashMap<&str, u32>, name: &str) -> u32 {
    id_of.get(name).copied().unwrap_or(UNKNOWN)
}

fn current_site(current: &Placement, id: u32) -> SiteId {
    if id == UNKNOWN {
        SiteId::ON_PREM
    } else {
        current.site(ComponentId(id as usize))
    }
}

/// The feasibility side of Eq. 4, precompiled: placement pins resolved to
/// `(index, site)` pairs (plus the site-set pins of the N-site model), the
/// on-prem resource limits, the capacity limits of any owned sites at
/// index > 0 (from [`SiteCatalog::owned_site_limits`]), and the budget.
/// Shared by the core quality kernel and the baselines' placement scorer so
/// every search path pays the same (allocation-free) constraint check.
///
/// [`SiteCatalog::owned_site_limits`]: atlas_sim::SiteCatalog::owned_site_limits
#[derive(Debug, Clone)]
pub struct ConstraintKernel {
    pinned: Vec<(usize, SiteId)>,
    allowed: Vec<(usize, Vec<SiteId>)>,
    cpu_limit: f64,
    memory_limit_gb: f64,
    storage_limit_gb: f64,
    owned: Vec<OwnedSiteLimits>,
    budget: Option<f64>,
}

impl ConstraintKernel {
    /// Compile the constraints of a set of migration preferences.
    pub fn new(preferences: &MigrationPreferences) -> Self {
        let mut pinned: Vec<(usize, SiteId)> =
            preferences.pinned.iter().map(|(&c, &s)| (c.0, s)).collect();
        pinned.sort_unstable_by_key(|&(i, _)| i);
        let mut allowed: Vec<(usize, Vec<SiteId>)> = preferences
            .allowed_sites
            .iter()
            .map(|(&c, sites)| (c.0, sites.clone()))
            .collect();
        allowed.sort_unstable_by_key(|&(i, _)| i);
        Self {
            pinned,
            allowed,
            cpu_limit: preferences.onprem_cpu_limit,
            memory_limit_gb: preferences.onprem_memory_limit_gb,
            storage_limit_gb: preferences.onprem_storage_limit_gb,
            owned: Vec::new(),
            budget: preferences.budget,
        }
    }

    /// Attach Eq. 4 capacity limits for owned sites at index > 0 (typically
    /// [`SiteCatalog::owned_site_limits`]). The preference-driven site-0
    /// limits are unaffected.
    ///
    /// [`SiteCatalog::owned_site_limits`]: atlas_sim::SiteCatalog::owned_site_limits
    pub fn with_owned_site_limits(mut self, limits: Vec<OwnedSiteLimits>) -> Self {
        self.owned = limits;
        self
    }

    /// The attached owned-site capacity limits (empty unless the catalog
    /// declares finite-capacity owned sites beyond site 0).
    pub fn owned_site_limits(&self) -> &[OwnedSiteLimits] {
        &self.owned
    }

    /// Whether the demand peaks of one owned site fit its capacity limits.
    fn owned_site_fits(limits: &OwnedSiteLimits, peaks: &OnPremPeaks) -> bool {
        !(limits.cpu_cores.is_finite() && peaks.cpu > limits.cpu_cores
            || limits.memory_gb.is_finite() && peaks.memory_gb > limits.memory_gb
            || limits.storage_gb.is_finite() && peaks.storage_gb > limits.storage_gb)
    }

    /// Whether any placement pin (exact or site-set) is violated by the
    /// site assignment.
    pub(crate) fn violates_pins(&self, sites: &[SiteId]) -> bool {
        self.pinned
            .iter()
            .any(|&(i, site)| i < sites.len() && sites[i] != site)
            || self
                .allowed
                .iter()
                .any(|(i, set)| *i < sites.len() && !set.contains(&sites[*i]))
    }

    /// Whether a placement satisfies every constraint of Eq. 4, fed the
    /// on-prem peaks the cost pass already accumulated
    /// ([`CompiledCost::evaluate_with_peaks`]) instead of re-scanning the
    /// demand matrix per call. The peaks are bit-identical to the
    /// interpretive subset sums of
    /// [`oracle::why_infeasible`](crate::oracle::why_infeasible),
    /// so the verdict is too. `site_peaks` is consulted only for the owned
    /// sites beyond site 0 that carry capacity limits (typically
    /// [`CompiledCost::site_peaks`] over the scratch the cost pass just
    /// filled); with no such limits it is never called. `cost` is called at
    /// most once, and only when a budget is set — pass the already-computed
    /// plan cost to avoid scoring it twice per evaluation.
    ///
    /// [`CompiledCost::evaluate_with_peaks`]: atlas_cloud::CompiledCost::evaluate_with_peaks
    /// [`CompiledCost::site_peaks`]: atlas_cloud::CompiledCost::site_peaks
    pub fn feasible_with_peaks(
        &self,
        sites: &[SiteId],
        peaks: &OnPremPeaks,
        mut site_peaks: impl FnMut(SiteId) -> OnPremPeaks,
        cost: impl FnOnce() -> f64,
    ) -> bool {
        if self.violates_pins(sites) {
            return false;
        }
        if self.cpu_limit.is_finite() && peaks.cpu > self.cpu_limit {
            return false;
        }
        if self.memory_limit_gb.is_finite() && peaks.memory_gb > self.memory_limit_gb {
            return false;
        }
        if self.storage_limit_gb.is_finite() && peaks.storage_gb > self.storage_limit_gb {
            return false;
        }
        for limits in &self.owned {
            if !Self::owned_site_fits(limits, &site_peaks(limits.site)) {
                return false;
            }
        }
        if let Some(budget) = self.budget {
            if cost() > budget {
                return false;
            }
        }
        true
    }
}

/// One API compiled for scoring: its preference weight, baseline latency,
/// the indices of its stateful components (for `Q_Avai`), its retained
/// traces as instruction arenas and the exchange-cost tables their hops
/// read.
#[derive(Debug, Clone)]
struct CompiledApi {
    weight: f64,
    baseline_ms: f64,
    /// Total clustering weight of the compiled traces (Σ wᵢ in trace
    /// order). With unit weights this is exactly `traces.len() as f64`, so
    /// the weighted per-API mean `Σ wᵢ·latᵢ / Σ wᵢ` degenerates bitwise to
    /// the unweighted `Σ latᵢ / len`.
    trace_weight_total: f64,
    stateful: Vec<u32>,
    traces: Vec<CompiledTrace>,
    /// One `site_count × site_count` exchange-cost table per distinct
    /// (API, caller, callee) edge the traces cross (row-major by caller
    /// site), baked from the edge's learned request/response bytes and the
    /// catalog's per-ordered-pair links.
    link_costs: Vec<f64>,
}

/// Compile one API's profile entry into its flat op arenas and edge
/// tables, against the model-wide footprint, network, preferences and
/// current placement.
fn compile_api<'a>(
    profile: &'a ApplicationProfile,
    name: &'a str,
    id_of: &'a HashMap<&'a str, u32>,
    footprint: &NetworkFootprint,
    network: &SiteNetwork,
    preferences: &MigrationPreferences,
    current: &Placement,
) -> CompiledApi {
    let api = &profile.apis[name];
    let mut stateful: Vec<u32> = api
        .stateful_components
        .iter()
        .filter_map(|c| id_of.get(c.as_str()).copied())
        .collect();
    stateful.sort_unstable();
    let mut compiler = ApiCompiler {
        api: name,
        footprint,
        network,
        current,
        id_of,
        link_costs: Vec::new(),
        edges: HashMap::new(),
    };
    let traces: Vec<CompiledTrace> = (api.traces.iter().enumerate())
        .map(|(i, t)| compiler.trace(t, api.trace_weight(i)))
        .collect();
    // Σ wᵢ in trace order, so unit weights reproduce `len() as f64`
    // exactly.
    let trace_weight_total = traces.iter().map(|t| t.weight).sum();
    CompiledApi {
        weight: preferences.api_weight(name),
        baseline_ms: api.mean_latency_ms.max(1e-6),
        trace_weight_total,
        stateful,
        traces,
        link_costs: compiler.link_costs,
    }
}

/// The compiled evaluation kernel of one [`QualityModel`]: every API's
/// traces as flat instruction arenas plus the precompiled constraint
/// kernel. See the [module docs](self) for the compile/score contract.
///
/// [`QualityModel`]: crate::quality::QualityModel
#[derive(Debug, Clone)]
pub struct CompiledQuality {
    apis: Vec<CompiledApi>,
    api_index: HashMap<String, usize>,
    constraints: ConstraintKernel,
    /// The plan length the kernel reads: the component index's.
    components: usize,
    site_count: usize,
    compile_ms: f64,
}

impl CompiledQuality {
    /// Compile a learned profile + footprint against a per-ordered-pair
    /// link model, the current placement and the owner's preferences.
    /// `api_order` fixes the API summation order of `Q_Perf`/`Q_Avai` (the
    /// quality model passes its sorted API list so kernel and interpretive
    /// sums agree bitwise).
    #[allow(clippy::too_many_arguments)]
    pub fn compile(
        profile: &ApplicationProfile,
        footprint: &NetworkFootprint,
        network: &SiteNetwork,
        preferences: &MigrationPreferences,
        current: &Placement,
        component_index: &[String],
        api_order: &[String],
    ) -> Self {
        let start = std::time::Instant::now();
        let id_of: HashMap<&str, u32> = component_index
            .iter()
            .enumerate()
            .map(|(i, name)| (name.as_str(), i as u32))
            .collect();

        let mut apis = Vec::with_capacity(api_order.len());
        let mut api_index = HashMap::with_capacity(api_order.len());
        for name in api_order {
            api_index.insert(name.clone(), apis.len());
            apis.push(compile_api(
                profile,
                name,
                &id_of,
                footprint,
                network,
                preferences,
                current,
            ));
        }
        Self {
            apis,
            api_index,
            constraints: ConstraintKernel::new(preferences),
            components: component_index.len(),
            site_count: network.site_count(),
            compile_ms: start.elapsed().as_secs_f64() * 1_000.0,
        }
    }

    /// Attach owned-site capacity limits to the compiled constraint kernel
    /// (see [`ConstraintKernel::with_owned_site_limits`]).
    pub(crate) fn set_owned_site_limits(&mut self, limits: Vec<OwnedSiteLimits>) {
        self.constraints = self.constraints.clone().with_owned_site_limits(limits);
    }

    /// Wall-clock time the compile pass took, in milliseconds.
    pub fn compile_ms(&self) -> f64 {
        self.compile_ms
    }

    /// Number of sites the exchange-cost tables cover — one table per
    /// distinct (API, caller, callee) edge, held per API.
    pub fn site_count(&self) -> usize {
        self.site_count
    }

    /// The precompiled constraint kernel.
    pub fn constraints(&self) -> &ConstraintKernel {
        &self.constraints
    }

    /// Index of an API in the compiled order, if it was learned.
    pub(crate) fn api_slot(&self, api: &str) -> Option<usize> {
        self.api_index.get(api).copied()
    }

    /// The one `Q_Perf` fold (Eq. 1), over one lane group of `plans` (see
    /// [`load`]): walk every trace of `apis` at the group's width, sum each
    /// lane's weighted per-API mean `Σ wᵢ·latᵢ / Σ wᵢ` in trace order (0.0
    /// without traces) and return each lane's weighted mean of per-API
    /// latency ratios. The last API's per-lane mean is left in
    /// `scratch.latency`. Every scoring path is this fold, which is what
    /// keeps them bit-identical to each other.
    fn fold<'s>(
        &self,
        apis: &[CompiledApi],
        plans: &[&[SiteId]],
        scratch: &'s mut LaneScratch,
    ) -> &'s [f64] {
        let lanes = plans.len();
        let LaneScratch {
            soa,
            onprem,
            latency,
            stack,
            acc,
            total,
        } = scratch;
        let soa = load(soa, plans, self.components);
        onprem.resize(lanes, SiteId::ON_PREM);
        for column in [&mut *latency, &mut *acc, &mut *total] {
            column.clear();
            column.resize(lanes, 0.0);
        }
        let mut weight_sum = 0.0;
        for api in apis {
            for trace in &api.traces {
                trace.run_lanes(
                    &api.link_costs,
                    soa,
                    onprem,
                    self.site_count,
                    latency,
                    stack,
                );
                for (&latency_ms, sum) in latency.iter().zip(acc.iter_mut()) {
                    *sum += trace.weight * latency_ms;
                }
            }
            for ((sum, mean), q) in acc.iter_mut().zip(latency.iter_mut()).zip(total.iter_mut()) {
                *mean = if api.traces.is_empty() {
                    0.0
                } else {
                    *sum / api.trace_weight_total
                };
                *sum = 0.0;
                *q += api.weight * mean.max(1e-9) / api.baseline_ms;
            }
            weight_sum += api.weight;
        }
        for q in total.iter_mut() {
            *q = if apis.is_empty() {
                1.0
            } else {
                *q / weight_sum
            };
        }
        total
    }

    /// `Q_Perf` of every plan of one lane group — a lone plan is a group of
    /// one — in one walk of the instruction arenas. A plan longer than the
    /// kernel is read over its first components; a plan's result is the
    /// same at any width and in any lane.
    ///
    /// # Panics
    ///
    /// Panics if a plan is shorter than the kernel.
    pub fn performance<'s>(&self, plans: &[&[SiteId]], scratch: &'s mut LaneScratch) -> &'s [f64] {
        self.fold(&self.apis, plans, scratch)
    }

    /// Weighted mean post-migration latency (ms) of one compiled API under
    /// the candidate site assignment: `Σ wᵢ·latᵢ / Σ wᵢ` over the retained
    /// (representative) traces. 0.0 when no traces were retained, like the
    /// interpretive estimate.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is shorter than the kernel.
    pub(crate) fn api_latency_ms(
        &self,
        slot: usize,
        sites: &[SiteId],
        scratch: &mut LaneScratch,
    ) -> f64 {
        self.fold(&self.apis[slot..=slot], &[sites], scratch);
        scratch.latency[0]
    }

    /// The latency (ms) of every retained trace of one compiled API under
    /// the candidate site assignment, in trace order: each trace's width-1
    /// walk, the samples [`Self::api_latency_ms`] averages.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is shorter than the kernel.
    pub(crate) fn api_latency_samples_ms(
        &self,
        slot: usize,
        sites: &[SiteId],
        scratch: &mut LaneScratch,
    ) -> Vec<f64> {
        let LaneScratch { soa, stack, .. } = scratch;
        let soa = load(soa, &[sites], self.components);
        let (onprem, mut latency) = ([SiteId::ON_PREM], [0.0]);
        let api = &self.apis[slot];
        let walk = |trace: &CompiledTrace| {
            let n = self.site_count;
            trace.run_lanes(&api.link_costs, soa, &onprem, n, &mut latency, stack);
            latency[0]
        };
        api.traces.iter().map(walk).collect()
    }

    /// Total number of compiled traces across every API.
    pub fn trace_count(&self) -> usize {
        self.apis.iter().map(|api| api.traces.len()).sum()
    }

    /// `Q_Avai(p)`: weighted count of APIs whose stateful dependencies move
    /// relative to the compiled current placement (any site change counts,
    /// including moves between two elastic sites).
    pub fn availability(&self, sites: &[SiteId], current: &[SiteId]) -> f64 {
        let mut disruption = 0.0;
        for api in &self.apis {
            let disrupted = api
                .stateful
                .iter()
                .any(|&i| sites[i as usize] != current[i as usize]);
            if disrupted {
                disruption += api.weight;
            }
        }
        disruption
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{self, DelayInjector};
    use crate::profile::{ApiProfile, ApplicationProfile};
    use crate::quality::{PlanQuality, QualityModel};
    use crate::testkit::plan as plan_of;
    use crate::MigrationPlan;
    use atlas_cloud::{PricingModel, ResourceDemand};
    use atlas_sim::SiteCatalog;
    use atlas_telemetry::{Span, SpanId, TraceId};
    use std::collections::{HashMap as Map, HashSet};

    /// The Figure 6 trace shape, but with components the model does *not*
    /// index (`ExternalClient`, `ThirdPartyCDN`, `PaymentGateway`) mixed
    /// in: unknown names must resolve to on-prem in both paths. The
    /// Frontend calls two of them in the foreground, in waves of their own
    /// and with different learned bytes, so both resolve to the same
    /// unknown id yet must price their own edges.
    fn trace_with_externals() -> Trace {
        let t = TraceId(3);
        let spans = vec![
            Span::new(t, SpanId(0), None, "Frontend", "/api", 0, 10_000),
            Span::new(
                t,
                SpanId(1),
                Some(SpanId(0)),
                "ThirdPartyCDN",
                "fetch",
                1_000,
                2_000,
            ),
            Span::new(t, SpanId(2), Some(SpanId(0)), "Store", "put", 4_000, 3_000),
            Span::new(
                t,
                SpanId(5),
                Some(SpanId(0)),
                "PaymentGateway",
                "charge",
                7_200,
                1_500,
            ),
            Span::new(
                t,
                SpanId(3),
                Some(SpanId(2)),
                "ExternalClient",
                "ack",
                4_500,
                500,
            ),
            // Background fan-out, outliving the root.
            Span::new(
                t,
                SpanId(4),
                Some(SpanId(0)),
                "Notifier",
                "notify",
                8_000,
                9_000,
            ),
        ];
        Trace::from_spans(spans).unwrap()
    }

    /// A one-API model over [`trace_with_externals`] (retained twice),
    /// learned on `catalog` with the Store at `store_site`.
    fn externals_model(catalog: &SiteCatalog, store_site: SiteId) -> QualityModel {
        let component_index = vec!["Frontend".to_string(), "Store".to_string()];
        let trace = trace_with_externals();
        let mut footprint = NetworkFootprint::new();
        footprint.insert("/api", "Frontend", "ThirdPartyCDN", 2_000.0, 50_000.0);
        footprint.insert("/api", "Frontend", "PaymentGateway", 40_000.0, 500.0);
        footprint.insert("/api", "Frontend", "Store", 9_000.0, 200.0);
        footprint.insert("/api", "Store", "ExternalClient", 100.0, 100.0);
        footprint.insert("/api", "Frontend", "Notifier", 700.0, 0.0);

        let names = |names: &[&str]| names.iter().map(|s| s.to_string()).collect::<HashSet<_>>();
        let api = ApiProfile {
            endpoint: "/api".to_string(),
            traces: vec![trace.clone(), trace],
            trace_weights: vec![],
            components: names(&["Frontend", "Store", "ThirdPartyCDN"]),
            stateful_components: names(&["Store", "GhostStore"]),
            mean_latency_ms: 10.0,
            request_count: 2,
        };
        let profile = ApplicationProfile {
            apis: Map::from([("/api".to_string(), api)]),
            components: Map::new(),
        };
        let current = Placement::from_sites(vec![SiteId::ON_PREM, store_site]);
        let mut demand = ResourceDemand::zeros(component_index.clone(), 4, 600);
        demand.fill_cpu(0, 2.0);
        demand.fill_cpu(1, 3.0);
        demand.fill_storage(1, 10.0);
        QualityModel::for_catalog(
            profile,
            footprint,
            catalog,
            demand,
            MigrationPreferences::with_cpu_limit(4.0).with_budget(1.0e9),
            current,
            component_index,
        )
    }

    /// [`externals_model`] on the paper's testbed, everything on-prem.
    fn model_with_externals() -> QualityModel {
        externals_model(&SiteCatalog::default(), SiteId::ON_PREM)
    }

    /// [`externals_model`] over a 3-site catalog whose links are
    /// deliberately asymmetric: unknown components must resolve to site 0
    /// in both the kernel and the interpretive oracle, for every site
    /// assignment. The Store starts at site 2, the caller's: an elastic
    /// region by default, or an owned edge site for the Eq. 4 capacity
    /// tests.
    fn three_site_model_with_externals() -> QualityModel {
        three_site_model_with_site2(atlas_sim::SiteSpec::elastic(
            "west",
            PricingModel::preset(atlas_cloud::Provider::GcpLike),
        ))
    }

    fn three_site_model_with_site2(site2: atlas_sim::SiteSpec) -> QualityModel {
        use atlas_sim::{ClusterSpec, LinkSpec, SiteSpec};

        let cluster = ClusterSpec::default();
        let mut links = Vec::new();
        for a in 0..3 {
            for b in 0..3 {
                links.push(if a == b {
                    cluster.network.intra
                } else {
                    LinkSpec {
                        // Asymmetric: each direction pays its own latency.
                        latency_ms: 5.0 + 7.0 * a as f64 + 11.0 * b as f64,
                        bandwidth_mbps: 600.0 + 40.0 * (a + 2 * b) as f64,
                    }
                });
            }
        }
        let catalog = SiteCatalog::new(
            vec![
                SiteSpec::owned(
                    "on-prem",
                    cluster.onprem_cpu_cores,
                    cluster.onprem_memory_gb,
                    cluster.onprem_storage_gb,
                ),
                SiteSpec::elastic("east", PricingModel::default()),
                site2,
            ],
            SiteNetwork::from_links(3, links),
        );
        externals_model(&catalog, SiteId(2))
    }

    /// A quality as the bits of its three indicators and its verdict.
    fn bits(q: PlanQuality) -> (u64, u64, u64, bool) {
        let PlanQuality {
            performance,
            availability,
            cost,
            feasible,
        } = q;
        (
            performance.to_bits(),
            availability.to_bits(),
            cost.to_bits(),
            feasible,
        )
    }

    #[test]
    fn three_site_kernel_matches_the_oracle_with_unknown_components() {
        let model = three_site_model_with_externals();
        assert_eq!(model.site_count(), 3);
        for a in 0..3u16 {
            for b in 0..3u16 {
                let plan = MigrationPlan::from_sites(vec![SiteId(a), SiteId(b)]);
                let (kernel, reference) = (model.evaluate(&plan), oracle::evaluate(&model, &plan));
                assert_eq!(bits(kernel), bits(reference), "sites ({a}, {b})");
                assert_distribution_matches_the_injector(&model, "/api", &plan);
            }
        }
        // Moving the Store between the two regions pays the asymmetric
        // links and disrupts availability relative to current site 2.
        let moved = MigrationPlan::from_sites(vec![SiteId(0), SiteId(1)]);
        assert!(model.availability(&moved) > 0.0);
        let stayed = MigrationPlan::from_sites(vec![SiteId(0), SiteId(2)]);
        assert_eq!(model.availability(&stayed), 0.0);
    }

    /// Eq. 4 owned-site capacity at sites beyond index 0: an owned edge
    /// site's finite pools gate feasibility exactly like the on-prem
    /// cluster's, in both the compiled kernel and the interpretive oracle.
    #[test]
    fn owned_edge_site_capacity_gates_feasibility() {
        use atlas_sim::{SiteId, SiteSpec};
        // Site 2 is owned hardware: 2.5 cores, plenty of memory, 5 GB of
        // storage. Frontend (2.0 cores, no storage) fits; Store (3.0
        // cores, 10 GB) does not.
        let model = three_site_model_with_site2(SiteSpec::owned("edge", 2.5, 64.0, 5.0));
        assert_eq!(model.kernel().constraints().owned_site_limits().len(), 1);

        let frontend_on_edge = MigrationPlan::from_sites(vec![SiteId(2), SiteId(0)]);
        assert!(model.is_feasible(&frontend_on_edge));
        assert_eq!(oracle::why_infeasible(&model, &frontend_on_edge), None);

        let store_on_edge = MigrationPlan::from_sites(vec![SiteId(0), SiteId(2)]);
        assert!(!model.is_feasible(&store_on_edge));
        assert!(!model.evaluate(&store_on_edge).feasible);
        let why = oracle::why_infeasible(&model, &store_on_edge).expect("a diagnostic");
        assert!(
            why.contains("exceeds capacity"),
            "the diagnostic names the violated pool: {why}"
        );

        // The same placement is fine when site 2 is elastic instead.
        let elastic = three_site_model_with_externals();
        assert!(elastic.is_feasible(&store_on_edge));

        // Kernel and oracle agree on feasibility for every assignment.
        for a in 0..3u16 {
            for b in 0..3u16 {
                let plan = MigrationPlan::from_sites(vec![SiteId(a), SiteId(b)]);
                assert_eq!(
                    model.evaluate(&plan).feasible,
                    oracle::evaluate(&model, &plan).feasible,
                    "sites ({a}, {b})"
                );
            }
        }
    }

    /// An API holds one exchange-cost table per distinct (caller, callee)
    /// name pair, not one per hop: the fixture's trace, retained twice,
    /// crosses four foreground edges (its background `Notifier` call is
    /// never compiled), two of them from the Frontend to unindexed
    /// components that share the unknown id.
    #[test]
    fn an_api_holds_one_table_per_distinct_edge() {
        for model in [model_with_externals(), three_site_model_with_externals()] {
            let n = model.site_count();
            let api = &model.kernel().apis[0];
            let hops = |trace: &CompiledTrace| {
                let hops = trace.ops.iter();
                hops.filter(|op| matches!(op, Op::Call { .. } | Op::Leaf { .. }))
                    .count()
            };
            assert_eq!(api.traces.iter().map(hops).collect::<Vec<_>>(), [4, 4]);
            assert_eq!(api.link_costs.len(), 4 * n * n, "{n} sites");
        }
    }

    #[test]
    fn unknown_components_default_to_onprem_bitwise() {
        let model = model_with_externals();
        for genes in [[0u16, 0], [0, 1], [1, 0], [1, 1]] {
            let plan = plan_of(&genes);
            let (kernel, reference) = (model.evaluate(&plan), oracle::evaluate(&model, &plan));
            assert_eq!(bits(kernel), bits(reference), "genes {genes:?}");
            let why = oracle::why_infeasible(&model, &plan);
            assert_eq!(model.is_feasible(&plan), why.is_none(), "genes {genes:?}");
        }
    }

    /// A plan shorter than the model is refused with a message that says
    /// why, by `evaluate` and by every per-indicator accessor alike (and
    /// inside a lane group, below); `is_feasible` already calls it
    /// infeasible.
    #[test]
    fn a_plan_shorter_than_the_model_is_refused() {
        let model = model_with_externals();
        let short = plan_of(&[1]);
        assert!(!model.is_feasible(&short));
        type Accessor = fn(&QualityModel, &MigrationPlan) -> f64;
        let accessors: [(&str, Accessor); 5] = [
            ("evaluate", |model, plan| model.evaluate(plan).cost),
            ("performance", QualityModel::performance),
            ("availability", QualityModel::availability),
            ("cost", QualityModel::cost),
            ("cost_per_day", QualityModel::cost_per_day),
        ];
        for (name, score) in accessors {
            let refused = || score(&model, &short);
            let panic =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(refused)).expect_err(name);
            assert_eq!(
                panic.downcast_ref::<String>().map(String::as_str),
                Some("scoring needs a plan covering every component (1 of 2)"),
                "{name}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "scoring needs a plan covering every component (1 of 2)")]
    fn a_lane_group_holding_a_short_plan_is_refused() {
        let model = model_with_externals();
        model.evaluate_lanes(&[&plan_of(&[0, 1]), &plan_of(&[1])]);
    }

    #[test]
    #[should_panic(expected = "scoring needs a plan covering every component")]
    fn the_per_api_estimate_refuses_a_short_plan() {
        model_with_externals().estimate_api_latency_ms("/api", &plan_of(&[1]));
    }

    /// Each of the kernel's per-trace samples of `api` under `plan` is
    /// bit-equal to the injector's replay of that trace, and their weighted
    /// mean is bit-equal to the kernel's per-API estimate.
    fn assert_distribution_matches_the_injector(
        model: &QualityModel,
        api: &str,
        plan: &MigrationPlan,
    ) {
        let learned = &model.profile().apis[api];
        let samples = model.estimate_latency_distribution_ms(api, plan);
        let replayed = DelayInjector::new(&model.network, model.component_index())
            .estimate_latency_distribution_ms(
                &learned.traces,
                model.footprint(),
                model.current_placement(),
                plan,
            );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&samples), bits(&replayed), "{api} under {plan:?}");
        let (sum, total) =
            (samples.iter().enumerate()).fold((0.0, 0.0), |(sum, total), (i, &latency)| {
                let weight = learned.trace_weight(i);
                (sum + weight * latency, total + weight)
            });
        let mean = model.estimate_api_latency_ms(api, plan);
        assert_eq!(
            (sum / total).to_bits(),
            mean.to_bits(),
            "{api} under {plan:?}"
        );
    }

    #[test]
    fn kernel_latency_matches_the_interpretive_injector() {
        let model = model_with_externals();
        let (network, known) = (SiteNetwork::default(), model.component_index());
        let injector = DelayInjector::new(&network, known);
        let current = Placement::all_onprem(2);
        for bits in [[0u16, 0], [0, 1], [1, 0], [1, 1]] {
            let plan = plan_of(&bits);
            let direct = injector.estimate_api_latency_ms(
                &model.profile().apis["/api"].traces,
                model.footprint(),
                &current,
                &plan,
            );
            let compiled = model.estimate_api_latency_ms("/api", &plan);
            assert_eq!(compiled.to_bits(), direct.to_bits(), "bits {bits:?}");
            assert_distribution_matches_the_injector(&model, "/api", &plan);
        }
        // Unknown APIs estimate to zero and to no samples, like the
        // interpretive path.
        let plan = MigrationPlan::all_onprem(2);
        assert_eq!(model.estimate_api_latency_ms("/missing", &plan), 0.0);
        assert!(model
            .estimate_latency_distribution_ms("/missing", &plan)
            .is_empty());
    }

    #[test]
    fn constraint_kernel_matches_preference_semantics() {
        let prefs = MigrationPreferences::with_cpu_limit(4.0)
            .pin(ComponentId(0), SiteId::ON_PREM)
            .with_budget(100.0);
        let kernel = ConstraintKernel::new(&prefs);
        assert!(kernel.violates_pins(&[SiteId(1), SiteId(0)]));
        assert!(!kernel.violates_pins(&[SiteId(0), SiteId(1)]));

        let mut demand = ResourceDemand::zeros(vec!["A".into(), "B".into()], 2, 600);
        demand.fill_cpu(0, 3.0);
        demand.fill_cpu(1, 3.0);
        let feasible = |sites: &[SiteId], cost: fn() -> f64| {
            let onprem: Vec<usize> = (0..2).filter(|&i| sites[i].is_on_prem()).collect();
            let peaks = OnPremPeaks {
                cpu: demand.peak_cpu(&onprem),
                memory_gb: demand.peak_memory_gb(&onprem),
                storage_gb: demand.peak_storage_gb(&onprem),
            };
            kernel.feasible_with_peaks(sites, &peaks, |_| unreachable!("no owned sites"), cost)
        };
        let both_onprem = [SiteId(0), SiteId(0)];
        let b_offloaded = [SiteId(0), SiteId(1)];
        // 6 cores on-prem > 4 → infeasible without calling the cost closure.
        assert!(!feasible(&both_onprem, || panic!("no cost")));
        // Offloading B leaves 3 cores; cheap → feasible.
        assert!(feasible(&b_offloaded, || 1.0));
        // Budget violation.
        assert!(!feasible(&b_offloaded, || 1_000.0));
    }

    #[test]
    fn constraint_kernel_enforces_site_set_pins() {
        let prefs = MigrationPreferences::default()
            .pin_to_sites(ComponentId(1), vec![SiteId(0), SiteId(2)]);
        let kernel = ConstraintKernel::new(&prefs);
        assert!(!kernel.violates_pins(&[SiteId(3), SiteId(0)]));
        assert!(!kernel.violates_pins(&[SiteId(3), SiteId(2)]));
        assert!(kernel.violates_pins(&[SiteId(0), SiteId(1)]));
    }
}
