//! What the benchmark checks and counts on every returned front: the output
//! checks that decide whether an op failed, the front's hypervolume, and the
//! request's own search counters.

use atlas_core::recommender::RecommendationReport;
use atlas_core::{MigrationPlan, PlanQuality, QualityModel, RecommendedPlan};
use atlas_sim::SiteId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::hypervolume::hypervolume;

/// Plans the hypervolume reference point is taken over, and the † probes
/// cycle through.
pub const REFERENCE_PLANS: usize = 256;

/// After op 0, one op in this many has its front checked against the
/// interpretive oracle.
pub const ORACLE_SAMPLE: usize = 20;

/// Relative tolerance of the determinism check between two *learns* of the
/// same telemetry. Two models learned from the same corpus in one process
/// score the same plan a last-place unit apart (measured on the seed code:
/// about half of all cold ops differ from their scenario's first op in the
/// 16th digit of `cost`), so fronts are compared plan for plan, in order,
/// with qualities this close. Checks on one model stay bit-exact.
pub const RELEARN_TOLERANCE: f64 = 1e-9;

fn same_quality(a: &PlanQuality, b: &PlanQuality, tolerance: f64) -> bool {
    let close = |x: f64, y: f64| {
        x.to_bits() == y.to_bits() || (x - y).abs() <= tolerance * x.abs().max(y.abs())
    };
    close(a.performance, b.performance)
        && close(a.availability, b.availability)
        && close(a.cost, b.cost)
        && a.feasible == b.feasible
}

/// Whether two fronts are the same plans in the same order with qualities
/// within `tolerance` (relative; 0 demands bit-equality): the determinism
/// check.
pub fn same_front(a: &[RecommendedPlan], b: &[RecommendedPlan], tolerance: f64) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.plan == y.plan && same_quality(&x.quality, &y.quality, tolerance))
}

/// Whether every plan's reported quality is bit-equal to the interpretive
/// oracle's (the paper's Eq. 1–4 evaluated without the compiled kernel).
pub fn oracle_agrees(model: &QualityModel, plans: &[RecommendedPlan]) -> bool {
    plans
        .iter()
        .all(|p| same_quality(&p.quality, &model.evaluate_interpretive(&p.plan), 0.0))
}

/// `count` seeded uniform-random plans over the model's components and
/// sites.
pub fn random_plans(model: &QualityModel, count: usize, seed: u64) -> Vec<MigrationPlan> {
    let (n, sites) = (model.component_count(), model.site_count() as u16);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            MigrationPlan::from_sites((0..n).map(|_| SiteId(rng.gen_range(0..sites))).collect())
        })
        .collect()
}

/// The hypervolume reference point of a model: 1.1 × the per-objective
/// maximum of `QualityModel::evaluate` over [`REFERENCE_PLANS`] seeded
/// random plans.
pub fn reference_point(model: &QualityModel, seed: u64) -> [f64; 3] {
    let mut worst = [0.0f64; 3];
    let n = model.component_count();
    let everything_moved =
        (1..model.site_count() as u16).map(|site| MigrationPlan::from_sites(vec![SiteId(site); n]));
    for plan in random_plans(model, REFERENCE_PLANS, seed)
        .into_iter()
        .chain(everything_moved)
    {
        let objectives = model.evaluate(&plan).objectives();
        for k in 0..3 {
            worst[k] = worst[k].max(objectives[k]);
        }
    }
    worst.map(|w| w * 1.1)
}

/// Hypervolume of a returned front under the model's reference point.
pub fn front_hypervolume(model: &QualityModel, plans: &[RecommendedPlan], seed: u64) -> f64 {
    let objectives: Vec<[f64; 3]> = plans.iter().map(|p| p.quality.objectives()).collect();
    hypervolume(&objectives, reference_point(model, seed))
}

/// Running means of the per-request search counters
/// (`RecommendationReport::eval` and friends).
#[derive(Debug, Default, Clone)]
pub struct SearchStats {
    requests: usize,
    score_ms: f64,
    unique_evals: f64,
    cache_hits: f64,
    visited: f64,
    front_size: f64,
    rl_steps: f64,
    final_reward: f64,
}

impl SearchStats {
    pub fn add(&mut self, report: &RecommendationReport) {
        self.requests += 1;
        self.score_ms += report.eval.wall_time_ms;
        self.unique_evals += report.eval.unique_evaluations as f64;
        self.cache_hits += report.eval.cache_hits as f64;
        self.visited += report.visited as f64;
        self.front_size += report.plans.len() as f64;
        self.rl_steps += report.reward_progression.len() as f64;
        let tail = &report.reward_progression[report.reward_progression.len().saturating_sub(20)..];
        if !tail.is_empty() {
            self.final_reward += tail.iter().sum::<f64>() / tail.len() as f64;
        }
    }

    pub fn merge(&mut self, other: &SearchStats) {
        self.requests += other.requests;
        self.score_ms += other.score_ms;
        self.unique_evals += other.unique_evals;
        self.cache_hits += other.cache_hits;
        self.visited += other.visited;
        self.front_size += other.front_size;
        self.rl_steps += other.rl_steps;
        self.final_reward += other.final_reward;
    }

    fn per_request(&self, total: f64) -> f64 {
        total / self.requests.max(1) as f64
    }

    pub fn unique_evals(&self) -> f64 {
        self.per_request(self.unique_evals)
    }

    pub fn cache_hit_ratio(&self) -> f64 {
        let requests = self.unique_evals + self.cache_hits;
        if requests > 0.0 {
            self.cache_hits / requests
        } else {
            0.0
        }
    }

    /// The `eval.*`, `search.visited`, `search.front_size`, `rl.train_steps`
    /// and `rl.final_reward` metrics.
    pub fn metrics(&self) -> [(&'static str, f64); 8] {
        [
            ("eval.score_ms", self.per_request(self.score_ms)),
            ("eval.unique_evals", self.unique_evals()),
            ("eval.cache_hits", self.per_request(self.cache_hits)),
            ("eval.cache_hit_ratio", self.cache_hit_ratio()),
            ("search.visited", self.per_request(self.visited)),
            ("search.front_size", self.per_request(self.front_size)),
            ("rl.train_steps", self.per_request(self.rl_steps)),
            ("rl.final_reward", self.per_request(self.final_reward)),
        ]
    }
}
