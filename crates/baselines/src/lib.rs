//! Baseline migration advisors from the Atlas evaluation (paper §5.2).
//!
//! Two families are implemented:
//!
//! * **Single-plan approaches** — greedy offloading of the busiest /
//!   least-busy components (Seagull-style cloud bursting \[45\]) and the
//!   affinity-minimising placement managers REMaP \[68\] (traffic size +
//!   message count) and IntMA \[57\] (traffic size only);
//! * **Multi-plan approaches** — an affinity-based NSGA-II optimising
//!   cross-datacenter traffic and cloud cost (representative of
//!   \[29, 39, 44, 47, 53\]) and a random search, both visiting the same
//!   number of candidate plans as Atlas for a fair comparison.
//!
//! All baselines consume only the information Atlas itself uses (telemetry,
//! expected demand, preferences), never the application's call graphs.
//!
//! The searching baselines route their objective and constraint queries
//! through the shared [`BaselineScorer`] — the baselines' counterpart of
//! `atlas-core`'s cached, batched, thread-parallel `PlanEvaluator` — so
//! duplicate placements are scored once and GA generations fan out across
//! worker threads. Like Atlas, the multi-plan baselines count their
//! `max_visited` budget in *unique* placements scored. (The greedy
//! advisors probe each placement once for feasibility only, so they query
//! the context directly rather than pay for scores they would never
//! reuse.)

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod affinity;
pub mod affinity_ga;
pub mod context;
pub mod greedy;
pub mod random_search;

pub use affinity::{AffinityMatrix, IntMaAdvisor, RemapAdvisor};
pub use affinity_ga::AffinityGaAdvisor;
pub use context::{BaselineContext, BaselineScorer, PlacementScore};
pub use greedy::{GreedyAdvisor, GreedyOrder};
pub use random_search::RandomSearchAdvisor;
