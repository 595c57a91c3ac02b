//! Atlas core: the hybrid-cloud migration advisor.
//!
//! This crate implements the paper's contribution (§3–§4): an
//! observability-driven advisor that learns how every user-facing API uses
//! the application's components and recommends which components to offload
//! to the cloud, optimising three quality indicators — API latency, API
//! availability (migration disruption) and cloud hosting cost — under the
//! application owner's preferences.
//!
//! The pipeline mirrors Figure 5 of the paper:
//!
//! 1. **Application learning** — [`profile`] extracts per-API and
//!    per-component profiles from telemetry; [`footprint`] learns the
//!    network footprint of every API (Eq. 1).
//! 2. **Migration recommendation** — [`quality`] models the three quality
//!    indicators of a candidate plan ([`kernel`] compiles the
//!    delay-injection latency estimate of §4.1.1 into a flat,
//!    index-resolved, allocation-free scoring pass; [`oracle`] evaluates
//!    Eq. 1–4 interpretively, as the check the kernel is pinned to), [`eval`]
//!    wraps the quality model in a cached, batched, thread-parallel
//!    evaluation layer shared by every search path, [`MigrationPlan`] and
//!    [`preferences`] describe plans and constraints (Eq. 4),
//!    [`recommender`] runs the genetic algorithm — NSGA-II with uniform
//!    crossover by default, or with the reward-driven crossover agent of
//!    [`rl_crossover`] (Eq. 5) when asked for;
//!    [`hierarchy`] organises the Pareto-optimal plans into a dendrogram for
//!    selection (§4.2.2).
//! 3. **Post-migration monitoring** — [`monitor`] detects latency-
//!    distribution drift with KL divergence against the model's own
//!    estimate (§4.3); [`security`] reuses the footprints to flag
//!    data-exfiltration anomalies (§6).
//!
//! [`advisor::Atlas`] wires the stages together behind one entry point for
//! batch use; [`service::AdvisorService`] runs the same pipeline as a
//! resident event loop — streaming ingest, continuous drift detection,
//! relearning and re-recommendation — and
//! [`hub::AdvisorHub`] serves many such tenants concurrently, answering
//! each request with the report its tenant published at the current
//! epoch.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod advisor;
pub mod eval;
pub mod footprint;
pub mod hierarchy;
pub mod hub;
pub mod kernel;
pub mod monitor;
pub mod oracle;
pub mod preferences;
pub mod profile;
pub mod quality;
pub mod recommender;
pub mod rl_crossover;
pub mod security;
pub mod service;
#[cfg(test)]
mod testkit;

/// A migration plan, the paper's plan variable `p_c` (§4.1): the site of
/// every component, as the [`Placement`](atlas_sim::Placement) the
/// application would run under, scored relative to the current one.
pub type MigrationPlan = atlas_sim::Placement;

pub use advisor::{Atlas, AtlasConfig};
pub use eval::{EvalStats, MemoCache, PlanEvaluator, LANE_WIDTH};
pub use footprint::{FootprintLearner, NetworkFootprint};
pub use hierarchy::{Dendrogram, DendrogramNode};
pub use hub::{AdvisorHub, HubReport, TenantId};
pub use kernel::{CompiledQuality, ConstraintKernel};
pub use monitor::{kl_divergence, DriftDetector, DriftReport};
pub use preferences::MigrationPreferences;
pub use profile::{ApiProfile, ApplicationProfile, ComponentProfile};
pub use quality::{PlanQuality, QualityModel, RecommendedPlan, ScoredPlan};
pub use recommender::{
    random_site, RecommendationReport, Recommender, RecommenderConfig, SearchStages,
    ARCHIVE_CAPACITY,
};
pub use rl_crossover::{CrossoverAgent, RlCrossoverConfig};
pub use security::BreachReport;
pub use service::{AdvisorService, AdvisorServiceConfig, PlanDelta, ServiceEvent};
