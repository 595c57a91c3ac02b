//! Minimal neural-network library for Atlas.
//!
//! The DRL-based genetic algorithm of the paper (§4.2.1) trains a small
//! actor network (three ReLU layers with 128 hidden units) with the
//! actor-critic algorithm and the Adam optimizer. This crate provides just
//! enough machinery to do that from scratch:
//!
//! * [`matrix`] — dense row-major weight storage;
//! * [`mlp`] — multi-layer perceptrons with ReLU hidden activations and
//!   manual backpropagation;
//! * [`adam`] — the Adam optimizer;
//! * [`actor_critic`] — a Bernoulli-policy actor plus a scalar critic with a
//!   single-sample advantage update, which is exactly what the
//!   reward-driven crossover agent of Atlas needs.
//!
//! # Design: one sample, no allocation
//!
//! Atlas trains its agent one `(state, action, reward)` sample per step,
//! inside the recommendation that asked for it, and then samples it for
//! that recommendation's offspring. There is no batch dimension
//! and no matrix algebra: an [`Mlp`] owns one activation row per layer and
//! two delta rows, `forward` and `backward` overwrite those and the
//! per-layer gradient buffers, and [`Adam`] updates weights in place
//! through an offset into its moment vectors. After construction,
//! [`ActorCritic::update`] and [`ActorCritic::sample_into`] touch the heap
//! only to read and write buffers they already own.
//!
//! # The operation-order contract
//!
//! A trained agent decides which plans a search visits, so the last bit of
//! a weight can move a Pareto front. The loops therefore perform exactly
//! the floating-point operations of the textbook formulation, in a fixed
//! order, and any change to them must keep it:
//!
//! * **forward** — output `j` of a layer starts at `0.0`, accumulates
//!   `x_k · W[k][j]` over `k` ascending, skips `x_k == 0`, and adds the
//!   bias last (then ReLU on hidden layers). There is one implementation,
//!   [`Mlp::forward`], which training and sampling both run;
//! * **backward** — a weight gradient is `0.0 + x_k · δ_j` (all zeros
//!   where `x_k == 0`), a bias gradient `0.0 + δ_j`; the delta handed to
//!   the layer below is, per input `k`, the sum of `δ_j · W[k][j]` over `j`
//!   ascending, skipping `δ_j == 0`, then masked by that layer's ReLU;
//! * **Adam** — every element goes through the literal expression
//!   `p -= lr · (m / (1 − β₁ᵗ)) / (√(v / (1 − β₂ᵗ)) + ε)`: three divisions
//!   and a square root, no hoisted reciprocal;
//! * **randomness** — He-init draws weights layer by layer in row-major
//!   order, and sampling draws one uniform per action bit, in order, from
//!   one stream the agent owns.
//!
//! The allocating batch-matrix implementation this replaced survives as a
//! test-only oracle, and differential tests compare the two with
//! `to_bits()` over whole training runs.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod actor_critic;
pub mod adam;
pub mod matrix;
pub mod mlp;
#[cfg(test)]
mod reference;

pub use actor_critic::{ActorCritic, ActorCriticConfig};
pub use adam::Adam;
pub use matrix::Matrix;
pub use mlp::Mlp;
