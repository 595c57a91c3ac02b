//! Multi-objective genetic-algorithm machinery (NSGA-II).
//!
//! Atlas selects parent plans for crossover using non-dominated sorting,
//! crowding distance and binary tournament from NSGA-II (paper §4.2.1,
//! citing Deb et al. \[36\]); the affinity-based baseline of the evaluation
//! also uses NSGA-II directly. This crate implements that machinery for
//! minimisation problems over arbitrary genomes:
//!
//! * [`pareto`] — Pareto-dominance tests and front extraction;
//! * [`nsga2`] — fast non-dominated sorting, crowding distance,
//!   constraint-aware survival selection and binary tournaments;
//! * [`operators`] — uniform crossover and alphabet mutation for
//!   the placement genomes Atlas uses;
//! * [`archive`] — a capped, crowding-pruned external non-dominated archive
//!   that accumulates every evaluated candidate, so the final front
//!   survives population churn.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod archive;
pub mod nsga2;
pub mod operators;
pub mod pareto;

pub use archive::ParetoArchive;
pub use nsga2::{
    binary_tournament, crowding_distance, fast_non_dominated_sort, select_survivors, take_selected,
};
pub use operators::{alphabet_mutation, uniform_crossover};
pub use pareto::{dominates, pareto_front_indices};
