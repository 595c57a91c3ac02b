//! Atlas: a hybrid cloud migration advisor for interactive microservices.
//!
//! This umbrella crate re-exports the public API of the whole workspace so
//! that examples and downstream users can depend on a single crate. See the
//! individual crates for details:
//!
//! * [`core`] (`atlas-core`) — the advisor itself: application learning,
//!   migration-quality modeling, the genetic recommender (uniform
//!   crossover by default, the paper's learned crossover agent by name),
//!   hierarchical post-processing, post-migration monitoring and
//!   footprint-based breach detection.
//! * [`sim`] (`atlas-sim`) — the discrete-event microservice simulator used
//!   as the testbed substrate.
//! * [`apps`] (`atlas-apps`) — DeathStarBench-like application models and the
//!   workload generator.
//! * [`telemetry`] (`atlas-telemetry`) — traces, metrics and network
//!   counters plus the queryable store.
//! * [`cloud`] (`atlas-cloud`) — pricing, autoscaling, cost model and the
//!   resource estimator.
//! * [`nn`] / [`ga`] — the neural-network and NSGA-II machinery behind the
//!   genetic algorithm and its learned crossover agent.
//! * [`baselines`] (`atlas-baselines`) — the comparison advisors from the
//!   paper's evaluation.

#![deny(missing_docs)]

pub use atlas_apps as apps;
pub use atlas_baselines as baselines;
pub use atlas_cloud as cloud;
pub use atlas_core as core;
pub use atlas_ga as ga;
pub use atlas_nn as nn;
pub use atlas_sim as sim;
pub use atlas_telemetry as telemetry;
