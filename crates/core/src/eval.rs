//! Shared plan-evaluation layer: cached, batched, thread-parallel scoring.
//!
//! Every search path in Atlas — the DRL-GA recommender, the RL crossover
//! trainer, the baselines and the bench harness — ultimately spends its
//! budget in [`QualityModel::evaluate`]. This module wraps that hot path in
//! a [`PlanEvaluator`]:
//!
//! * **Memoisation** — results are cached keyed on [`MigrationPlan`]'s
//!   `Hash`, so duplicate plans (common after pin-application and low-rate
//!   mutation) are scored exactly once. One lock guards the map and its
//!   counters; scoring always happens outside it;
//! * **Batching** — [`PlanEvaluator::evaluate_batch`] dedupes a whole
//!   generation and fans the uncached plans out, [`LANE_WIDTH`] to a
//!   structure-of-arrays lane group, across [`std::thread::scope`] workers
//!   ([`QualityModel`] is `Send + Sync`, so scoring needs no locks);
//! * **Statistics** — [`EvalStats`] reports unique evaluations, cache hits
//!   and scoring wall time, surfaced in
//!   [`RecommendationReport`](crate::recommender::RecommendationReport).
//!   A run on a warm evaluator reports its own share with
//!   [`EvalStats::since`].
//!
//! Evaluation is pure, so neither the cache nor the thread count changes any
//! score: a recommendation run is bit-identical at 1 or N worker threads.
//!
//! # Example
//!
//! Score a small batch of plans through the evaluator and observe that
//! duplicates hit the cache (the quality model is learned from a compressed
//! simulated run of the social network):
//!
//! ```
//! use atlas_apps::{social_network, SocialNetworkOptions, WorkloadGenerator, WorkloadOptions};
//! use atlas_core::eval::PlanEvaluator;
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
//! let evaluator = PlanEvaluator::new(&quality);
//! let n = app.component_count();
//! let batch = vec![
//!     MigrationPlan::all_onprem(n),
//!     Placement::all_cloud(n),
//!     MigrationPlan::all_onprem(n), // duplicate → cache hit
//! ];
//! let qualities = evaluator.evaluate_batch(&batch);
//! assert_eq!(qualities[0], qualities[2]);
//! assert_eq!(qualities[0], quality.evaluate(&batch[0]));
//! let stats = evaluator.stats();
//! assert_eq!(stats.unique_evaluations, 2);
//! assert_eq!(stats.cache_hits, 1);
//! ```

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::quality::{PlanQuality, QualityModel, RecommendedPlan};
use crate::MigrationPlan;

/// Evaluation statistics of one [`PlanEvaluator`] over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvalStats {
    /// Plans the underlying [`QualityModel`] scored: the evaluator's cache
    /// misses. The `max_visited` search budget counts something else,
    /// the distinct plans a run asked for
    /// ([`RecommendationReport::visited`](crate::recommender::RecommendationReport::visited)).
    pub unique_evaluations: usize,
    /// Evaluation requests answered from the memo cache, including
    /// duplicates resolved inside a single batch.
    pub cache_hits: usize,
    /// Number of [`PlanEvaluator::evaluate_batch`] calls served.
    pub batches: usize,
    /// Wall-clock time spent scoring uncached plans, in milliseconds.
    /// Parallel batches count elapsed time once, not per worker.
    pub wall_time_ms: f64,
    /// Worker threads the evaluator fans batches out across.
    pub threads: usize,
    /// Milliseconds the quality model spent compiling its evaluation kernel
    /// at construction (see [`crate::kernel`]); `0.0` for scorers without a
    /// compiled kernel (e.g. the baselines' placement scorer).
    pub kernel_compile_ms: f64,
}

impl EvalStats {
    /// Total evaluation requests (unique evaluations + cache hits).
    pub fn requests(&self) -> usize {
        self.unique_evaluations + self.cache_hits
    }

    /// Fraction of requests answered from the cache (0.0 when idle).
    pub fn cache_hit_rate(&self) -> f64 {
        let requests = self.requests();
        if requests == 0 {
            0.0
        } else {
            self.cache_hits as f64 / requests as f64
        }
    }

    /// Unique plans scored per second of scoring wall time (0.0 when idle).
    pub fn evaluations_per_sec(&self) -> f64 {
        if self.wall_time_ms <= 0.0 {
            0.0
        } else {
            self.unique_evaluations as f64 * 1_000.0 / self.wall_time_ms
        }
    }

    /// The growth of this accounting stream since an `earlier` snapshot of
    /// it: the per-request view of a warm evaluator. Thread count and
    /// kernel compile time are properties of the evaluator, not of the
    /// interval, so they carry over from `self`.
    pub fn since(&self, earlier: &EvalStats) -> EvalStats {
        EvalStats {
            unique_evaluations: self
                .unique_evaluations
                .saturating_sub(earlier.unique_evaluations),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            batches: self.batches.saturating_sub(earlier.batches),
            wall_time_ms: (self.wall_time_ms - earlier.wall_time_ms).max(0.0),
            threads: self.threads,
            kernel_compile_ms: self.kernel_compile_ms,
        }
    }
}

/// Resolve a requested thread count: `0` means "one worker per available
/// core", anything else is used as given (minimum 1).
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Minimum number of items each worker must receive before
/// `parallel_map_grouped` spawns a thread scope. Spawning scoped workers costs tens of
/// microseconds per batch; fanning out a generation-sized batch of cheap
/// kernel evaluations used to *lose* wall time (PR 3 measured a 0.91×
/// "speedup"), so small batches now run serially and large batches cap
/// their worker count at one worker per `MIN_ITEMS_PER_WORKER` items.
pub const MIN_ITEMS_PER_WORKER: usize = 16;

/// Number of plans scored per structure-of-arrays lane group by every
/// [`PlanEvaluator`] batch path (see
/// [`QualityModel::evaluate_lanes`]). Sixteen lanes amortise the op decode
/// and wave bookkeeping of the compiled kernel without spilling the
/// per-lane cursor/stack working set out of cache (measured on a
/// 250-component scenario: 16 lanes ≈ 1.5× the throughput of 8, and 32
/// adds only a few percent more).
pub const LANE_WIDTH: usize = 16;

/// Deterministically map a pure function over a slice with up to `threads`
/// scoped workers, `f` mapping whole *groups* of up to `group` consecutive
/// items to one result per item (the shape of the lane-batched kernel).
/// Results come back in input order regardless of the thread count.
/// Batches smaller than 2 × [`MIN_ITEMS_PER_WORKER`] items run serially on
/// the calling thread (no scope is spawned); larger batches are distributed
/// in contiguous chunks — rounded to whole groups, so no group straddles a
/// thread boundary — across at most `items.len() / MIN_ITEMS_PER_WORKER`
/// workers, so every spawned thread has enough work to amortise its
/// start-up cost. `f` must return exactly as many results as it was given
/// items.
///
/// This is the fan-out primitive behind every [`PlanEvaluator`] and
/// [`MemoCache`] batch path.
pub(crate) fn parallel_map_grouped<T, R, I, F>(
    items: &[T],
    threads: usize,
    group: usize,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: IntoIterator<Item = R>,
    F: Fn(&[T]) -> I + Sync,
{
    let group = group.max(1);
    let run = |chunk: &[T]| {
        let mut out = Vec::with_capacity(chunk.len());
        for items in chunk.chunks(group) {
            let before = out.len();
            out.extend(f(items));
            debug_assert_eq!(out.len() - before, items.len(), "one result per item");
        }
        out
    };
    let workers = effective_threads(threads)
        .min(items.len() / MIN_ITEMS_PER_WORKER)
        .max(1);
    if workers <= 1 {
        return run(items);
    }
    let chunk = items.len().div_ceil(group).div_ceil(workers) * group;
    let run = &run;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|chunk| scope.spawn(move || run(chunk)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// [`parallel_map_grouped`] at group size 1: one call of `f` per item.
pub(crate) fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_grouped(items, threads, 1, |item| Some(f(&item[0])))
}

/// Deterministic word-folding hasher for plan-keyed tables (the memo cache,
/// the batch dedupe maps and the recommender's request-local visited set).
/// A plan key hashes as hundreds of site ids, which the standard library's
/// DoS-resistant SipHash pays for on every lookup; these tables are
/// process-local and never fed attacker-chosen keys, so a multiply-xor
/// fold (one rotate + xor + multiply per 8-byte word) is safe and several
/// times cheaper. Only lookup
/// speed changes: nothing iterates these maps, so bucket order — the only
/// thing a hasher can influence — is unobservable.
#[derive(Debug, Default)]
pub struct PlanKeyHasher(u64);

impl Hasher for PlanKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let fold = |state: u64, word: u64| {
            (state.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
        };
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.0 = fold(self.0, u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.0 = fold(self.0, u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed through [`PlanKeyHasher`].
type PlanKeyMap<K, V> = HashMap<K, V, BuildHasherDefault<PlanKeyHasher>>;

/// A `HashSet` keyed through [`PlanKeyHasher`] — the recommender's
/// request-local visited-budget tracker.
pub type PlanKeySet<K> = HashSet<K, BuildHasherDefault<PlanKeyHasher>>;

/// Everything a [`MemoCache`] guards with its one lock: the entries and the
/// accounting, so a probe counts its hit under the lock it already holds.
#[derive(Debug)]
struct MemoState<K, V> {
    cache: PlanKeyMap<K, V>,
    cache_hits: usize,
    batches: usize,
    wall_time: Duration,
}

/// Which cache/batch slot serves one input position of a batched lookup:
/// a cache hit, or the `k`-th freshly computed result (shared by every
/// in-batch duplicate of the same key).
enum Slot<V> {
    Hit(V),
    Pending(usize),
}

/// The memoisation + batching core of [`PlanEvaluator`] and the baselines'
/// placement scorer: a result cache behind one lock with hit/batch/wall-time
/// accounting and a deduplicated, thread-parallel batch path. The compute
/// function is supplied per call, so one cache can serve any pure scoring
/// function over its key type. Computation always happens outside the lock
/// — a lookup of one key or of a whole batch takes it twice, to probe and to
/// insert.
#[derive(Debug)]
pub struct MemoCache<K, V> {
    state: Mutex<MemoState<K, V>>,
}

impl<K, V> Default for MemoCache<K, V> {
    fn default() -> Self {
        Self {
            state: Mutex::new(MemoState {
                cache: PlanKeyMap::default(),
                cache_hits: 0,
                batches: 0,
                wall_time: Duration::ZERO,
            }),
        }
    }
}

impl<K, V> MemoCache<K, V>
where
    K: Hash + Eq + Clone,
    V: Copy,
{
    // Recovers a poisoned guard: scoring runs outside the lock, and under it
    // there are only whole map operations and counter additions, so the state
    // is valid wherever a panic (a key's `Hash`/`Eq`) could have struck.
    fn state(&self) -> MutexGuard<'_, MemoState<K, V>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up one key, computing and caching its value on a miss. The
    /// lookup goes through a borrowed form of the key (e.g. `&[SiteId]` for
    /// a `Vec<SiteId>` cache), so probes that hit the cache never allocate
    /// an owned key; on a miss, `own` materialises the owned key for
    /// insertion and `compute` scores it. Two callers racing to compute the
    /// same key both insert the same value (computation is pure), so
    /// last-write-wins is benign.
    pub fn get_or_compute<Q>(
        &self,
        key: &Q,
        own: impl FnOnce(&Q) -> K,
        compute: impl FnOnce(&Q) -> V,
    ) -> V
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        {
            let mut state = self.state();
            if let Some(&value) = state.cache.get(key) {
                state.cache_hits += 1;
                return value;
            }
        }
        let start = Instant::now();
        let value = compute(key);
        let elapsed = start.elapsed();
        let owned = own(key);
        let mut state = self.state();
        state.wall_time += elapsed;
        state.cache.insert(owned, value);
        value
    }

    /// The batched lookup core behind every batch path: probe the whole
    /// batch under one lock, dedupe the misses against each other, compute
    /// the first appearances with `compute_all` (given their input
    /// positions; one value per position, in order), then cache each and
    /// account the batch under one more lock. Returns the values in input
    /// order.
    fn values_batch(&self, keys: &[K], compute_all: impl FnOnce(&[usize]) -> Vec<V>) -> Vec<V> {
        let start = Instant::now();
        let probed: Vec<Option<V>> = {
            let state = self.state();
            keys.iter()
                .map(|key| state.cache.get(key).copied())
                .collect()
        };
        let mut uncached: Vec<usize> = Vec::new();
        let mut pending_of: PlanKeyMap<&K, usize> = PlanKeyMap::default();
        let slots: Vec<Slot<V>> = probed
            .into_iter()
            .enumerate()
            .map(|(i, cached)| match cached {
                Some(value) => Slot::Hit(value),
                None => Slot::Pending(*pending_of.entry(&keys[i]).or_insert_with(|| {
                    uncached.push(i);
                    uncached.len() - 1
                })),
            })
            .collect();
        let computed = compute_all(&uncached);
        debug_assert_eq!(computed.len(), uncached.len(), "one result per unique key");
        let elapsed = start.elapsed();
        {
            let mut state = self.state();
            for (&i, &value) in uncached.iter().zip(&computed) {
                state.cache.insert(keys[i].clone(), value);
            }
            state.cache_hits += keys.len() - uncached.len();
            state.batches += 1;
            state.wall_time += elapsed;
        }
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Hit(value) => value,
                Slot::Pending(k) => computed[k],
            })
            .collect()
    }

    /// Look up a batch of keys, returning values in input order. Cached and
    /// in-batch duplicate keys are computed once; the remaining unique keys
    /// fan out across up to `threads` scoped workers.
    pub fn get_or_compute_batch<F>(&self, keys: &[K], threads: usize, compute: F) -> Vec<V>
    where
        K: Sync,
        V: Send,
        F: Fn(&K) -> V + Sync,
    {
        let compute_all =
            |uncached: &[usize]| parallel_map(uncached, threads, |&i| compute(&keys[i]));
        self.values_batch(keys, compute_all)
    }

    /// Distinct keys computed so far (the cache size).
    pub fn unique(&self) -> usize {
        self.state().cache.len()
    }

    /// Snapshot of the accounting as [`EvalStats`], stamped with the worker
    /// count the owner fans batches out across.
    pub fn stats(&self, threads: usize) -> EvalStats {
        let state = self.state();
        EvalStats {
            unique_evaluations: state.cache.len(),
            cache_hits: state.cache_hits,
            batches: state.batches,
            wall_time_ms: state.wall_time.as_secs_f64() * 1e3,
            threads,
            kernel_compile_ms: 0.0,
        }
    }
}

/// Cached, batched, thread-parallel front end to a [`QualityModel`].
///
/// The evaluator is `Sync`: it can be shared by reference across the search,
/// the RL trainer and bench code, accumulating one cache and one set of
/// statistics. See the [module docs](self) for an end-to-end example.
#[derive(Debug)]
pub struct PlanEvaluator<'a> {
    quality: &'a QualityModel,
    threads: usize,
    cache: MemoCache<MigrationPlan, PlanQuality>,
}

impl<'a> PlanEvaluator<'a> {
    /// Wrap a quality model with one worker per available core.
    pub fn new(quality: &'a QualityModel) -> Self {
        Self {
            quality,
            threads: effective_threads(0),
            cache: MemoCache::default(),
        }
    }

    /// Set the worker-thread count (builder style); `0` restores the
    /// one-per-core default. Thread count never changes scores, only speed.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = effective_threads(threads);
        self
    }

    /// The worker-thread count batches fan out across.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The wrapped quality model.
    pub fn quality(&self) -> &'a QualityModel {
        self.quality
    }

    /// Evaluate one plan, serving duplicates from the cache.
    pub fn evaluate(&self, plan: &MigrationPlan) -> PlanQuality {
        self.cache
            .get_or_compute(plan, MigrationPlan::clone, |plan| {
                self.quality.evaluate(plan)
            })
    }

    /// Evaluate a batch of plans, returning qualities in input order.
    ///
    /// Plans already cached (or repeated within the batch) are scored once;
    /// the remaining unique plans are scored in structure-of-arrays lane
    /// groups of [`LANE_WIDTH`] plans (see [`QualityModel::evaluate_lanes`])
    /// fanned out across the evaluator's worker threads. The result is
    /// bit-identical to calling [`QualityModel::evaluate`] on each plan
    /// directly, at any thread count.
    pub fn evaluate_batch(&self, plans: &[MigrationPlan]) -> Vec<PlanQuality> {
        self.cache.values_batch(plans, |uncached| {
            let uncached: Vec<&MigrationPlan> = uncached.iter().map(|&i| &plans[i]).collect();
            parallel_map_grouped(&uncached, self.threads, LANE_WIDTH, |group| {
                self.quality.evaluate_lanes(group)
            })
        })
    }
    /// [`Self::evaluate_batch`] with each quality paired with a clone of its
    /// plan. Qualities, cache accounting and panics are those of
    /// [`Self::evaluate_batch`]. Kept because the benchmark package calls
    /// it; the search pairs its own plans with their qualities.
    pub fn evaluate_scored_batch(&self, plans: &[MigrationPlan]) -> Vec<RecommendedPlan> {
        plans
            .iter()
            .zip(self.evaluate_batch(plans))
            .map(|(plan, quality)| RecommendedPlan {
                plan: plan.clone(),
                quality,
            })
            .collect()
    }

    /// [`Self::evaluate_scored_batch`] of `children`; the parents are not
    /// read. Kept, with its parent argument, for the benchmark's offspring
    /// probe.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length, or as
    /// [`Self::evaluate_batch`] does.
    pub fn evaluate_offspring_batch(
        &self,
        parents: &[&RecommendedPlan],
        children: &[MigrationPlan],
    ) -> Vec<RecommendedPlan> {
        assert_eq!(parents.len(), children.len(), "one parent per child");
        self.evaluate_scored_batch(children)
    }

    /// [`Self::evaluate`] of `child`; the parent is not read. Kept, with its
    /// parent argument, for the benchmark's rollout probe.
    pub fn evaluate_offspring(
        &self,
        _parent: &RecommendedPlan,
        child: &MigrationPlan,
    ) -> PlanQuality {
        self.evaluate(child)
    }

    /// Snapshot of the evaluator's cache accounting — its computes, cache
    /// hits, batches and scoring wall time — stamped with the worker count
    /// and the wrapped model's kernel compile time.
    pub fn stats(&self) -> EvalStats {
        EvalStats {
            kernel_compile_ms: self.quality.kernel_compile_ms(),
            ..self.cache.stats(self.threads)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::FootprintLearner;
    use crate::preferences::MigrationPreferences;
    use crate::profile::ApplicationProfile;
    use atlas_apps::{social_network, SocialNetworkOptions, WorkloadGenerator, WorkloadOptions};
    use atlas_cloud::{ResourceEstimator, ScalingEstimator};
    use atlas_sim::{
        ClusterSpec, OverloadModel, Placement, SimConfig, Simulator, SiteCatalog, SiteId,
    };
    use atlas_telemetry::TelemetryStore;

    fn build_quality() -> QualityModel {
        let app = social_network(SocialNetworkOptions::default());
        let n = app.component_count();
        let current = Placement::all_onprem(n);
        let sim = Simulator::new(
            app.clone(),
            current.clone(),
            SimConfig {
                cluster: ClusterSpec::default(),
                overload: OverloadModel::disabled(),
                metric_window_s: 5,
                seed: 6,
            },
        );
        let schedule =
            WorkloadGenerator::new(WorkloadOptions::social_network_default().with_seed(6))
                .generate(&app)
                .unwrap();
        let store = TelemetryStore::new();
        sim.run(&schedule, &store);
        let component_index: Vec<String> =
            app.components().iter().map(|c| c.name.clone()).collect();
        let stateful: Vec<String> = app
            .stateful_components()
            .into_iter()
            .map(|c| app.component_name(c).to_string())
            .collect();
        let profile = ApplicationProfile::learn(&store, &stateful, 20);
        let footprint = FootprintLearner::default().learn(&store);
        let demand = ScalingEstimator::with_scale(5.0).estimate(&store, &component_index, 6, 600);
        QualityModel::for_catalog(
            profile,
            footprint,
            &SiteCatalog::default(),
            demand,
            MigrationPreferences::with_cpu_limit(12.0),
            current,
            component_index,
        )
    }

    /// `count` pairwise-distinct plans: plan `k` encodes `k` in binary.
    fn plans(n: usize, count: usize) -> Vec<MigrationPlan> {
        assert!(count < (1 << n));
        (0..count)
            .map(|k| {
                MigrationPlan::from_sites((0..n).map(|i| SiteId(((k >> i) & 1) as u16)).collect())
            })
            .collect()
    }

    #[test]
    fn quality_model_and_evaluator_are_send_and_sync() {
        fn require<T: Send + Sync>() {}
        require::<QualityModel>();
        require::<PlanEvaluator<'_>>();
        require::<EvalStats>();
        require::<MemoCache<MigrationPlan, PlanQuality>>();
    }

    #[test]
    fn cache_serves_duplicates_once() {
        let quality = build_quality();
        let evaluator = PlanEvaluator::new(&quality);
        let n = quality.component_count();
        let plan = MigrationPlan::all_onprem(n);
        let first = evaluator.evaluate(&plan);
        let second = evaluator.evaluate(&plan);
        assert_eq!(first, second);
        assert_eq!(evaluator.cache.unique(), 1);
        let stats = evaluator.stats();
        assert_eq!(stats.unique_evaluations, 1);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn batches_dedupe_within_and_across_calls() {
        let quality = build_quality();
        let evaluator = PlanEvaluator::new(&quality);
        let n = quality.component_count();
        let mut batch = plans(n, 5);
        batch.push(batch[0].clone()); // in-batch duplicate
        let qualities = evaluator.evaluate_batch(&batch);
        assert_eq!(qualities.len(), 6);
        assert_eq!(qualities[0], qualities[5]);
        assert_eq!(evaluator.stats().unique_evaluations, 5);
        assert_eq!(evaluator.stats().cache_hits, 1);
        // Re-submitting the same batch is all hits.
        let again = evaluator.evaluate_batch(&batch);
        assert_eq!(again, qualities);
        let stats = evaluator.stats();
        assert_eq!(stats.unique_evaluations, 5);
        assert_eq!(stats.cache_hits, 7);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.requests(), 12);
        assert!(stats.cache_hit_rate() > 0.5);
    }

    #[test]
    fn thread_count_does_not_change_scores() {
        let quality = build_quality();
        let n = quality.component_count();
        // 80 distinct plans: enough to cross the serial-fallback threshold,
        // so 2 and 8 threads genuinely exercise the parallel path while 1
        // thread stays serial — the scores must be bit-identical anyway.
        let batch = plans(n, 80);
        let direct: Vec<PlanQuality> = batch.iter().map(|p| quality.evaluate(p)).collect();
        for threads in [1, 2, 8] {
            let evaluator = PlanEvaluator::new(&quality).with_threads(threads);
            let scored = evaluator.evaluate_batch(&batch);
            for (a, b) in direct.iter().zip(&scored) {
                assert_eq!(a.performance.to_bits(), b.performance.to_bits());
                assert_eq!(a.availability.to_bits(), b.availability.to_bits());
                assert_eq!(a.cost.to_bits(), b.cost.to_bits());
                assert_eq!(a.feasible, b.feasible);
            }
            assert_eq!(evaluator.threads(), effective_threads(threads));
        }
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 3, 7, 0] {
            let doubled = parallel_map(&items, threads, |&x| x * 2);
            assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        }
        let empty: Vec<usize> = Vec::new();
        assert!(parallel_map(&empty, 4, |&x: &usize| x).is_empty());
    }

    #[test]
    fn grouped_map_never_splits_a_group_across_workers() {
        // 100 items in groups of 16: every call sees a whole group (the
        // last one short), in order, at any worker count.
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 3, 8] {
            let firsts = parallel_map_grouped(&items, threads, 16, |group| {
                assert!(group.len() == 16 || group[0] == 96);
                group.iter().map(|_| group[0]).collect::<Vec<_>>()
            });
            let expected: Vec<usize> = items.iter().map(|x| x / 16 * 16).collect();
            assert_eq!(firsts, expected);
        }
    }

    #[test]
    fn small_batches_fall_back_to_the_calling_thread() {
        // Below the per-worker work threshold no scope is spawned: every
        // item is computed on the calling thread.
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..MIN_ITEMS_PER_WORKER * 2 - 1).collect();
        let seen = parallel_map(&items, 8, |&x| (x, std::thread::current().id()));
        assert!(seen.iter().all(|&(_, id)| id == caller));
        // At and beyond 2 × the threshold, with >1 requested workers, at
        // least one item runs off-thread.
        let items: Vec<usize> = (0..MIN_ITEMS_PER_WORKER * 4).collect();
        let seen = parallel_map(&items, 4, |&x| (x, std::thread::current().id()));
        assert!(seen.iter().any(|&(_, id)| id != caller));
        assert_eq!(
            seen.iter().map(|&(x, _)| x).collect::<Vec<_>>(),
            items,
            "order preserved across the fan-out"
        );
    }

    #[test]
    fn stats_track_wall_time_and_threads() {
        let quality = build_quality();
        let evaluator = PlanEvaluator::new(&quality).with_threads(2);
        evaluator.evaluate_batch(&plans(quality.component_count(), 4));
        let stats = evaluator.stats();
        assert_eq!(stats.unique_evaluations, 4);
        assert_eq!(stats.threads, 2);
        assert!(stats.wall_time_ms > 0.0);
        assert!(stats.evaluations_per_sec() > 0.0);
        assert!(
            stats.kernel_compile_ms > 0.0,
            "the quality model's kernel compile time is surfaced"
        );
    }

    /// Hammer one evaluator from many threads: every value is correct and
    /// the cache holds each plan once.
    #[test]
    fn an_evaluator_is_consistent_under_concurrent_batches() {
        let quality = build_quality();
        let evaluator = PlanEvaluator::new(&quality).with_threads(1);
        let n = quality.component_count();
        let batch = plans(n, 40);
        let direct: Vec<PlanQuality> = batch.iter().map(|p| quality.evaluate(p)).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| assert_eq!(evaluator.evaluate_batch(&batch), direct));
            }
        });
        assert_eq!(
            evaluator.cache.unique(),
            40,
            "racing computes insert equal values"
        );
        let stats = evaluator.stats();
        // Racing threads may each compute a plan the others also computed
        // (benign — the values are equal), so the hit count is only bounded
        // by the requests the cache did not have to answer cold: at least
        // one thread computed each plan, at most all four did.
        assert!(stats.cache_hits <= 3 * batch.len());
        assert_eq!(stats.batches, 4);
    }
}
