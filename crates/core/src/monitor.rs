//! Post-migration monitoring: drift detection over API latency
//! distributions (paper §4.3).
//!
//! After a plan is executed, the approximated latency distribution of each
//! API (from delay injection) should keep matching reality. User-behaviour
//! or footprint drift invalidates it; Atlas detects this by comparing the
//! KL divergence of the most recent latency distribution against the
//! divergence observed right after the migration, and triggers a new round
//! of recommendations when the information loss grows by a large factor
//! (the paper reports 0.47 → 6.09, a 13× loss, for `/homeTimeline`).
//! [`DriftDetector::from_model`] arms a detector against the quality
//! model's own estimate of the executed plan.

use crate::quality::QualityModel;
use crate::MigrationPlan;

/// Kullback–Leibler divergence `D_KL(P ‖ Q)` between two empirical latency
/// distributions, computed over a shared histogram with `bins` bins spanning
/// the combined range of both sample sets. Each bin receives an ε
/// pseudo-count proportional to `1 / total_samples`, which keeps the
/// divergence finite when a bin is empty in `Q` without drowning small
/// sample sets: add-one smoothing would inject `bins` pseudo-counts (about
/// 30 % of the mass of a 50-sample window at the default 20 bins), flat
/// enough to hide a clearly shifted distribution from the drift detector.
pub fn kl_divergence(p_samples: &[f64], q_samples: &[f64], bins: usize) -> f64 {
    if p_samples.is_empty() || q_samples.is_empty() || bins == 0 {
        return 0.0;
    }
    let min = p_samples
        .iter()
        .chain(q_samples.iter())
        .copied()
        .fold(f64::INFINITY, f64::min);
    let max = p_samples
        .iter()
        .chain(q_samples.iter())
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let width = ((max - min) / bins as f64).max(1e-9);

    let histogram = |samples: &[f64]| -> Vec<f64> {
        let total = samples.len() as f64;
        let epsilon = 1.0 / total; // ε-smoothing proportional to 1/total
        let mut counts = vec![epsilon; bins];
        for &s in samples {
            let idx = (((s - min) / width) as usize).min(bins - 1);
            counts[idx] += 1.0;
        }
        let mass = total + bins as f64 * epsilon;
        counts.into_iter().map(|c| c / mass).collect()
    };

    let p = histogram(p_samples);
    let q = histogram(q_samples);
    p.iter()
        .zip(q.iter())
        .map(|(&pi, &qi)| if pi > 0.0 { pi * (pi / qi).ln() } else { 0.0 })
        .sum()
}

/// Outcome of one drift check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftReport {
    /// Baseline divergence `D_KL(b_real ‖ b_approx)` captured right after
    /// the migration.
    pub baseline_kl: f64,
    /// Divergence of the most recent window `D_KL(b_real ‖ b_recent)`.
    pub recent_kl: f64,
    /// `recent / baseline` — the "information loss" factor the paper quotes.
    pub information_loss_factor: f64,
    /// Whether the drift threshold was exceeded.
    pub drifted: bool,
}

/// Drift detector for one API.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftDetector {
    /// Latency samples (ms) observed right after the last migration — the
    /// reference distribution `b_real`.
    reference: Vec<f64>,
    /// Baseline divergence `D_KL(b_real ‖ b_approx)` where `b_approx` is the
    /// delay-injection estimate of the executed plan.
    baseline_kl: f64,
    /// Factor over the baseline divergence that triggers a new round of
    /// recommendations.
    threshold_factor: f64,
}

impl DriftDetector {
    /// Number of histogram bins of every divergence a detector takes.
    pub const DEFAULT_BINS: usize = 20;
    /// Default trigger factor: the recent divergence must exceed the
    /// baseline by this factor to flag drift (the paper's example is 13×; a
    /// conservative 5× default catches it with margin).
    pub const DEFAULT_THRESHOLD_FACTOR: f64 = 5.0;

    /// Create a detector from the post-migration reality (`reference`, the
    /// measured latency samples) and the approximation used when the plan
    /// was selected (`approximation`, the delay-injection samples).
    pub fn new(reference: Vec<f64>, approximation: &[f64]) -> Self {
        let baseline_kl = kl_divergence(&reference, approximation, Self::DEFAULT_BINS).max(1e-6);
        Self {
            reference,
            baseline_kl,
            threshold_factor: Self::DEFAULT_THRESHOLD_FACTOR,
        }
    }

    /// Arm a detector for `api` after `plan` was executed: `measured` is the
    /// post-migration reality `b_real`, and `b_approx` is the model's
    /// delay-injection estimate of the plan,
    /// [`QualityModel::estimate_latency_distribution_ms`].
    pub fn from_model(
        model: &QualityModel,
        api: &str,
        plan: &MigrationPlan,
        measured: Vec<f64>,
    ) -> Self {
        Self::new(measured, &model.estimate_latency_distribution_ms(api, plan))
    }

    /// Override the trigger factor (builder style).
    pub fn with_threshold_factor(mut self, factor: f64) -> Self {
        self.threshold_factor = factor;
        self
    }

    /// The baseline divergence.
    pub fn baseline_kl(&self) -> f64 {
        self.baseline_kl
    }

    /// Check the most recent latency samples for drift.
    pub fn check(&self, recent: &[f64]) -> DriftReport {
        let recent_kl = kl_divergence(&self.reference, recent, Self::DEFAULT_BINS);
        let factor = recent_kl / self.baseline_kl;
        DriftReport {
            baseline_kl: self.baseline_kl,
            recent_kl,
            information_loss_factor: factor,
            drifted: factor > self.threshold_factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn samples(rng: &mut StdRng, mean: f64, spread: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| mean + rng.gen_range(-spread..=spread))
            .collect()
    }

    #[test]
    fn kl_is_near_zero_for_similar_distributions() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = samples(&mut rng, 50.0, 5.0, 500);
        let b = samples(&mut rng, 50.0, 5.0, 500);
        let d = kl_divergence(&a, &b, 20);
        assert!(d < 0.2, "similar distributions should have low KL, got {d}");
    }

    #[test]
    fn kl_grows_when_distributions_shift() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = samples(&mut rng, 50.0, 5.0, 500);
        let near = samples(&mut rng, 52.0, 5.0, 500);
        let far = samples(&mut rng, 150.0, 5.0, 500);
        assert!(kl_divergence(&a, &far, 20) > kl_divergence(&a, &near, 20));
        assert!(kl_divergence(&a, &far, 20) > 1.0);
    }

    #[test]
    fn kl_handles_degenerate_inputs() {
        assert_eq!(kl_divergence(&[], &[1.0], 10), 0.0);
        assert_eq!(kl_divergence(&[1.0], &[], 10), 0.0);
        assert_eq!(kl_divergence(&[1.0], &[1.0], 0), 0.0);
        // Identical constant samples.
        let d = kl_divergence(&[5.0; 50], &[5.0; 50], 10);
        assert!(d.abs() < 1e-9);
    }

    #[test]
    fn detector_stays_quiet_without_drift() {
        let mut rng = StdRng::seed_from_u64(3);
        let reality = samples(&mut rng, 80.0, 8.0, 400);
        let approximation = samples(&mut rng, 82.0, 8.0, 400);
        let detector = DriftDetector::new(reality, &approximation);
        let recent_same = samples(&mut rng, 80.0, 8.0, 400);
        let report = detector.check(&recent_same);
        assert!(!report.drifted, "no drift expected, got {report:?}");
        assert!(report.information_loss_factor < 5.0);
    }

    #[test]
    fn detector_flags_a_latency_shift_like_figure17() {
        let mut rng = StdRng::seed_from_u64(4);
        // After migration: ~80 ms; the approximation was accurate.
        let reality = samples(&mut rng, 80.0, 8.0, 400);
        let approximation = samples(&mut rng, 81.0, 8.0, 400);
        let detector = DriftDetector::new(reality, &approximation);
        assert!(detector.baseline_kl() > 0.0);
        // New user behaviour: /compose latency jumps to ~160 ms.
        let recent_shifted = samples(&mut rng, 160.0, 10.0, 400);
        let report = detector.check(&recent_shifted);
        assert!(report.drifted);
        assert!(
            report.information_loss_factor > 10.0,
            "expected an order-of-magnitude information loss, got {}",
            report.information_loss_factor
        );
    }

    /// Regression test: with add-one smoothing, two *fully disjoint* small
    /// sample sets looked only mildly divergent (the 20 pseudo-counts held
    /// ~30 % of a 50-sample histogram's mass), capping the divergence well
    /// below what ε-smoothing reports.
    #[test]
    fn small_disjoint_windows_have_large_divergence() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = samples(&mut rng, 50.0, 5.0, 50);
        let b = samples(&mut rng, 100.0, 5.0, 50);
        let d = kl_divergence(&a, &b, 20);
        assert!(
            d > 3.0,
            "disjoint 50-sample windows should diverge strongly, got {d}"
        );
    }

    /// Regression test for the drift detector: a clearly shifted *small*
    /// recent window (50 samples, the first scrapes after a behaviour
    /// change) must flag drift at the default threshold factor. Add-one
    /// smoothing flattened small windows so much that this shift stayed
    /// below the 5× trigger.
    #[test]
    fn detector_flags_a_shifted_small_window_at_default_threshold() {
        let mut rng = StdRng::seed_from_u64(7);
        let reality = samples(&mut rng, 80.0, 20.0, 400);
        // The delay-injection estimate over-estimated the spread (the usual
        // case: the paper reports a baseline divergence of 0.47 for
        // /homeTimeline), so the baseline divergence is moderate, not tiny.
        let approximation = samples(&mut rng, 80.0, 38.0, 400);
        let detector = DriftDetector::new(reality, &approximation);
        let recent_small = samples(&mut rng, 160.0, 10.0, 50);
        let report = detector.check(&recent_small);
        assert!(
            report.drifted,
            "a doubled latency in a 50-sample window must trigger at the \
             default threshold, got {report:?}"
        );
    }

    #[test]
    fn threshold_factor_is_configurable() {
        let mut rng = StdRng::seed_from_u64(5);
        let reality = samples(&mut rng, 80.0, 8.0, 300);
        let approximation = samples(&mut rng, 81.0, 8.0, 300);
        let strict = DriftDetector::new(reality.clone(), &approximation).with_threshold_factor(0.5);
        let recent = samples(&mut rng, 85.0, 8.0, 300);
        assert!(
            strict.check(&recent).drifted,
            "a 0.5x threshold flags everything"
        );
        let lenient = DriftDetector::new(reality, &approximation).with_threshold_factor(1e9);
        assert!(!lenient.check(&recent).drifted);
    }
}
