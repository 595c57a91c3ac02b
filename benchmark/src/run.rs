//! What every workload shares: the arguments of one run, the metric table
//! it fills, the op tally, and the process counters.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use crate::stats;

/// Seed of every run's first reference scenario (see
/// [`RunArgs::scenario_seed`]).
pub const REFERENCE_SEED: u64 = 11;

/// Arguments of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Seconds the op loops measure for.
    pub seconds: f64,
    /// Record spans, run the † probes and report the per-layer metrics.
    pub trace: bool,
    /// 1/50 size: one scenario, a sliver of the time, millisecond probes.
    pub smoke: bool,
    /// Directory the run writes its result files into.
    pub out: PathBuf,
}

impl RunArgs {
    /// Scenarios a closed-loop workload sets up and measures in turn. Each
    /// gets an equal share of the run's seconds, so a run's figures average
    /// over several applications drawn from the seed instead of riding on
    /// one.
    pub fn scenarios(&self) -> usize {
        if self.smoke {
            1
        } else {
            6
        }
    }

    /// Seed of the run's `k`-th scenario (tenant, on hub-open), and whether
    /// it is a *reference scenario*. Even scenarios are: their seeds are
    /// fixed, so `front_hypervolume` is measured on the same applications
    /// in every run and repeats to the last digits. Hypervolume is the
    /// product of three gaps to a reference point and swings 100-fold
    /// between generated applications, so a figure taken over seed-drawn
    /// scenarios could carry no bound. Odd scenarios derive from `--seed`.
    pub fn scenario_seed(&self, k: usize) -> (u64, bool) {
        if k % 2 == 0 {
            (REFERENCE_SEED + (k / 2) as u64, true)
        } else {
            (crate::scenario::derive(self.seed, 100 + k as u64), false)
        }
    }

    /// A repeat count (warm-up ops, set-up builds) at full size; one in a
    /// smoke run.
    pub fn repeats(&self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }

    /// Wall time one † throughput probe measures for.
    pub fn probe_time(&self) -> Duration {
        Duration::from_millis(if self.smoke { 5 } else { 200 })
    }
}

/// Metric name → value, filled by a workload and checked against the spec
/// when the run is printed.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn set_all(&mut self, values: impl IntoIterator<Item = (&'static str, f64)>) {
        self.0.extend(values);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Median, 90th percentile and sample count of a latency sample, under
    /// the end-to-end names.
    pub fn set_latency(&mut self, samples_ms: &[f64]) -> usize {
        let mut sorted = samples_ms.to_vec();
        stats::sort(&mut sorted);
        self.set("latency_p50_ms", stats::percentile(&sorted, 0.5));
        self.set("latency_p90_ms", stats::percentile(&sorted, 0.9));
        sorted.len()
    }
}

/// Ops attempted and failed, plus the reasons a run is invalid (a failed
/// output check, or a measurement that cannot be trusted).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Latency samples behind `latency_p50_ms` / `latency_p90_ms`.
    pub samples: usize,
    pub invalid: Vec<String>,
}

impl Tally {
    /// Count one op; `failure` names the output check it failed, if any.
    pub fn op(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(reason) = failure {
            self.failed += 1;
            // Keep the report readable when every op fails the same way.
            if self.invalid.len() < 8 {
                self.invalid.push(reason);
            }
        }
    }
}

/// The message of a caught panic.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// A field of `/proc/self/status` in MiB (`VmHWM`: peak resident set;
/// `VmRSS`: current). 0 where procfs is unavailable.
pub fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let rest = line.strip_prefix(field)?.strip_prefix(':')?;
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}
