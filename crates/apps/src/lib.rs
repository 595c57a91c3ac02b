//! Application models and workload generation for the Atlas evaluation.
//!
//! The paper evaluates Atlas on two DeathStarBench applications deployed on
//! a real cluster and driven by Locust with real-world datasets (a Facebook
//! social graph and INRIA person images). This crate provides the
//! corresponding substrate:
//!
//! * [`social_network()`] — the social network application (23 stateless + 6
//!   stateful components, 9 user-facing APIs, paper Figure 1);
//! * [`hotel_reservation()`] — the hotel reservation application (12 stateless
//!   + 6 stateful components, 5 user-facing APIs, paper Figure 10);
//! * [`datasets`] — synthetic substitutes for the Facebook graph and the
//!   INRIA media corpus, used to parameterise payload sizes and fan-outs;
//! * [`workload`] — a Locust-like open-loop workload generator producing
//!   [`atlas_sim::RequestSchedule`]s with a compressed diurnal profile, two
//!   daily peaks, per-API mixes, day-to-day jitter, burst scaling, the
//!   behaviour-change event used in the drift experiment (paper §5.4) and
//!   higher-level shapes (flash crowds, weekday/weekend alternation,
//!   batch-heavy nights);
//! * [`synth`] — a procedural scenario generator producing deterministic
//!   topologies of 10–500 components (layered / fan-out / chain / mesh call
//!   graphs) with paired workloads and analytic resource demand, so the
//!   advisor can be stressed far beyond the two hand-built applications.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod datasets;
pub mod hotel_reservation;
pub mod social_network;
pub mod synth;
pub mod workload;

pub use datasets::{MediaStats, SocialGraphStats};
pub use hotel_reservation::hotel_reservation;
pub use social_network::{social_network, SocialNetworkOptions};
pub use synth::{
    synthesize, synthesize_drift_phase, CallGraphShape, SynthError, SynthOptions, SynthScenario,
};
pub use workload::{DiurnalProfile, WorkloadGenerator, WorkloadOptions, WorkloadShape};
