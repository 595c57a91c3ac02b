//! Discrete-event microservice simulator: the testbed substrate for Atlas.
//!
//! The paper evaluates Atlas on DeathStarBench applications deployed on a
//! real hybrid Kubernetes cluster (CloudLab Wisconsin + Massachusetts). That
//! testbed is replaced here by a simulator that preserves exactly the
//! behaviour Atlas depends on:
//!
//! * applications are modeled as [`topology::AppTopology`]: a set of
//!   components plus, for every user-facing API, a *call tree* describing
//!   which components are invoked, in which order (sequential stages),
//!   which run in parallel within a stage, and which run in the background
//!   (paper §4.1.1, Figure 6);
//! * a [`cluster::SiteCatalog`] describes the sites components can run at
//!   (per-site capacity + pricing) over a [`cluster::SiteNetwork`]
//!   (per-ordered-pair links), with placements as vectors of
//!   [`cluster::SiteId`]; the default catalog is the paper's hybrid testbed,
//!   a [`cluster::ClusterSpec`] plus one cloud over the measured links of
//!   [`cluster::NetworkModel`] (0.168 ms / 941 Mbps intra, 23.015 ms /
//!   921 Mbps inter);
//! * the [`engine::Simulator`] executes API requests against a
//!   [`placement::Placement`], producing Jaeger-style traces, Istio-style
//!   pairwise traffic and cAdvisor-style component metrics into a
//!   [`atlas_telemetry::TelemetryStore`];
//! * an [`overload::OverloadModel`] inflates on-prem service times when CPU
//!   demand exceeds capacity, reproducing the latency spikes and failures of
//!   paper Figure 2.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod calltree;
pub mod cluster;
pub mod component;
pub mod engine;
pub mod overload;
pub mod placement;
pub mod schedule;
pub mod topology;

pub use calltree::{CallEdge, CallMode, CallNode, SizeDist, TimeDist};
pub use cluster::{
    ClusterSpec, LinkSpec, NetworkModel, NodeSpec, OwnedSiteLimits, SiteCatalog, SiteId,
    SiteNetwork, SiteSpec,
};
pub use component::{ComponentId, ComponentSpec};
pub use engine::{RequestOutcome, SimConfig, SimReport, Simulator};
pub use overload::OverloadModel;
pub use placement::{Placement, PlacementError};
pub use schedule::{RequestSchedule, ScheduledRequest};
pub use topology::{ApiSpec, AppTopology};
