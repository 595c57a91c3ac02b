//! Cloud pricing, autoscaling, cost modeling and resource estimation.
//!
//! This crate implements the cloud-side substrate of Atlas:
//!
//! * [`pricing`] — the generalised public-cloud pricing model of paper
//!   Appendix A (per-node compute price, per-GB storage price, per-GB egress
//!   price) with AWS/Azure/GCP-like presets;
//! * [`demand`] — the expected resource usage `Ũ^r_c[t]` per component per
//!   time step, plus expected per-edge traffic, that the cost and constraint
//!   models consume;
//! * [`estimator`] — a resource estimator that derives the expected demand
//!   from observed telemetry (the paper plugs in DeepRest \[34\]; here a
//!   seasonal/scaling estimator exercises the same interface);
//! * [`cost`] — the cost model itself (Eq. 6–11): compute nodes via the
//!   cluster autoscaler, storage with fine-grained scaling, and egress
//!   traffic;
//! * [`autoscaler`] — the minute-granularity cluster-autoscaler simulation
//!   used to derive node counts over time.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod autoscaler;
pub mod cost;
pub mod demand;
pub mod estimator;
pub mod pricing;
pub mod site;

pub use autoscaler::Autoscaler;
pub use cost::{CompiledCost, CostBreakdown, CostModel, CostScratch, OnPremPeaks, SiteCostModel};
pub use demand::ResourceDemand;
pub use estimator::{ResourceEstimator, ScalingEstimator};
pub use pricing::{PricingModel, Provider};
pub use site::SiteId;
