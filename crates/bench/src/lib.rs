//! Experiment harness regenerating the figures of the Atlas evaluation, and
//! the performance sweep with its regression gate.
//!
//! [`figures`] reproduces the fifteen figures of the paper's §5 as values;
//! the `figures` binary prints them (README, "Reproducing the paper
//! figures", has the index). They share the set-up code in [`harness`]:
//! simulate the application under the learning workload, let Atlas learn,
//! build the baseline context, and evaluate candidate plans either with
//! Atlas's quality model or by re-running the simulator under the candidate
//! placement (the "ground truth" substitute for an actual migration).
//!
//! [`golden`] writes a front as text and holds it, like the figures, against
//! its recorded file under `tests/golden/`.
//!
//! [`sweep`] and [`gate`] measure nothing themselves: they run the op loops
//! and probes of the end-to-end benchmark's library (`benchmark/`, the
//! `atlas_benchmark` crate) over a fixed table of points and hold the result
//! against the committed `BENCH_sweep.json`.

#![deny(missing_docs)]

pub mod figures;
pub mod gate;
pub mod golden;
pub mod harness;
pub mod sweep;

pub use atlas_benchmark::scenario::copy_context;
pub use atlas_benchmark::{resident, scenario};
pub use harness::{corpus_of, shift_corpus, Application, Experiment, ExperimentOptions};
