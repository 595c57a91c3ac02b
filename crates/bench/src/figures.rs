//! The fifteen figures of the paper's evaluation (§5) as values.
//!
//! [`all`] sets up the two applications the paper evaluates once each at
//! [`ExperimentOptions::quick`], runs Atlas's default recommendation and the
//! baselines once per application, and hands both to one function per
//! figure. Each returns a [`Figure`]: labelled rows of named numbers, which
//! the `figures` binary prints and the tests read.

use std::collections::BTreeMap;
use std::fmt;

use atlas_apps::{social_network, SocialNetworkOptions};
use atlas_baselines::{
    AffinityGaAdvisor, GreedyAdvisor, IntMaAdvisor, RandomSearchAdvisor, RemapAdvisor,
};
use atlas_core::recommender::CrossoverStrategy;
use atlas_core::security::check_edge;
use atlas_core::{
    kl_divergence, DriftDetector, MigrationPlan, PlanQuality, RecommendationReport, Recommender,
    RecommenderConfig,
};
use atlas_sim::{ClusterSpec, OverloadModel, SimConfig, SimReport, Simulator};
use atlas_telemetry::{Direction, TelemetryStore};

use crate::harness::{Application, Experiment, ExperimentOptions};

/// One reproduced figure.
#[derive(Debug)]
pub struct Figure {
    /// `Figure NN: what it shows`.
    pub title: String,
    /// One row per series point: a label and its named values.
    pub rows: Vec<(String, Vec<(&'static str, f64)>)>,
}

impl Figure {
    fn new(title: impl Into<String>) -> Self {
        let (title, rows) = (title.into(), Vec::new());
        Self { title, rows }
    }

    fn row(&mut self, label: impl Into<String>, values: &[(&'static str, f64)]) {
        self.rows.push((label.into(), values.to_vec()));
    }
}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# {}", self.title)?;
        for (label, values) in &self.rows {
            write!(f, "{label:<28}")?;
            for (name, value) in values {
                write!(f, "  {name}={value:.3}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// One application's experiment and every method's answer on it.
struct Run {
    exp: Experiment,
    /// Atlas's default recommendation.
    report: RecommendationReport,
    /// The plans of the two multi-plan baselines.
    fronts: Vec<(&'static str, Vec<MigrationPlan>)>,
    /// The plan of each single-plan baseline.
    singles: Vec<(&'static str, MigrationPlan)>,
}

impl Run {
    fn new(options: ExperimentOptions) -> Self {
        let exp = Experiment::set_up(options);
        let report =
            Recommender::new(&exp.quality, exp.atlas.config().recommender.clone()).recommend();
        let ctx = &exp.baseline_ctx;
        let fronts = vec![
            ("affinity-ga", AffinityGaAdvisor::fast().recommend(ctx)),
            ("random-search", RandomSearchAdvisor::fast().recommend(ctx)),
        ];
        let largest = GreedyAdvisor::largest_first().recommend(ctx);
        let smallest = GreedyAdvisor::smallest_first().recommend(ctx);
        let singles = vec![
            ("remap", RemapAdvisor.recommend(ctx)),
            ("intma", IntMaAdvisor.recommend(ctx)),
            ("greedy-largest", largest),
            ("greedy-smallest", smallest),
        ];
        Self {
            exp,
            report,
            fronts,
            singles,
        }
    }

    /// Atlas's performance-optimized plan.
    fn best(&self) -> &MigrationPlan {
        &self.report.performance_optimized().expect("plans").plan
    }
}

/// What the figures read: the social network (all of them) and the hotel
/// reservation (Figure 15).
struct Runs {
    social: Run,
    hotel: Run,
}

/// Every figure, in the paper's order.
pub fn all() -> Vec<Figure> {
    let runs = Runs {
        social: Run::new(ExperimentOptions::quick()),
        hotel: Run::new(ExperimentOptions {
            application: Application::HotelReservation,
            onprem_cpu_limit: 6.0,
            ..ExperimentOptions::quick()
        }),
    };
    vec![
        fig02(&runs),
        fig03(&runs),
        fig07(&runs),
        fig11(&runs),
        best_plans(&runs, 12, "performance", |q| q.performance),
        best_plans(&runs, 13, "availability", |q| q.availability),
        best_plans(&runs, 14, "cost", |q| q.cost),
        fig15(&runs),
        fig16(&runs),
        fig17(&runs),
        fig18(&runs),
        fig19(&runs),
        fig20(&runs),
        fig21(&runs),
        // Last: it writes an exfiltration into the shared telemetry store,
        // which has no `Clone` to give it a copy of its own.
        fig22(&runs),
    ]
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

fn flag(set: bool) -> f64 {
    f64::from(u8::from(set))
}

/// Every latency `report` measured for `api`, in outcome order.
fn latencies(report: &SimReport, api: &str) -> Vec<f64> {
    let of_api = report.outcomes.iter().filter(|o| o.api == api);
    of_api.filter_map(|o| o.latency_ms).collect()
}

/// Figure 2: latency spikes and failures when the on-prem cluster cannot
/// absorb the burst.
fn fig02(runs: &Runs) -> Figure {
    let exp = &runs.social.exp;
    let mut fig = Figure::new("Figure 2: inelastic on-prem cluster under a 5x burst");
    // Probe the burst's peak CPU demand with effectively unlimited capacity,
    // then size the inelastic cluster 30% below it: the paper's point is
    // that the on-prem cluster was provisioned for normal traffic, not for
    // the 5x surge, so the surge drives utilization past saturation.
    let probe_cores = 1_000.0;
    let probe = exp.measure_overloaded_baseline(probe_cores);
    let demand = probe.peak_onprem_utilization() * probe_cores;
    let capacity = demand / 1.3;
    let overloaded = exp.measure_overloaded_baseline(capacity);
    let relaxed = exp.measure_plan(&exp.current, 1.0);
    fig.row("cores", &[("peak_demand", demand), ("capacity", capacity)]);
    let utilization = overloaded.peak_onprem_utilization();
    fig.row("overloaded", &[("peak_utilization", utilization)]);
    let failed = overloaded.failed_count() as f64;
    let total = overloaded.outcomes.len() as f64;
    fig.row("requests", &[("failed", failed), ("total", total)]);
    for api in ["/homeTimelineAPI", "/composeAPI"] {
        let normal = relaxed.api_mean_latency_ms(api).unwrap_or(0.0);
        let burst = overloaded.api_mean_latency_ms(api).unwrap_or(0.0);
        fig.row(api, &[("normal_ms", normal), ("overloaded_ms", burst)]);
    }
    fig
}

/// Figure 3: a poor choice of offloaded components degrades APIs by an
/// order of magnitude more than Atlas's recommendation.
fn fig03(runs: &Runs) -> Figure {
    let exp = &runs.social.exp;
    let mut fig =
        Figure::new("Figure 3: poor offload choice vs Atlas (latency ratio vs no-stress baseline)");
    let poor = GreedyAdvisor::largest_first().recommend(&exp.baseline_ctx);
    for (label, plan) in [
        ("atlas", runs.social.best()),
        ("poor-choice (greedy largest)", &poor),
    ] {
        let baseline = |api: &String| exp.atlas.profile().apis[api].mean_latency_ms;
        let ratio = |api: &String| exp.quality.estimate_api_latency_ms(api, plan) / baseline(api);
        let ratios: Vec<f64> = exp.api_names().iter().map(ratio).collect();
        let (mean_ratio, worst) = (mean(&ratios), ratios.iter().copied().fold(0.0, f64::max));
        fig.row(label, &[("mean_ratio", mean_ratio), ("worst_ratio", worst)]);
    }
    fig
}

/// Figure 7: the delay-injection latency distribution matches the measured
/// post-migration distribution.
fn fig07(runs: &Runs) -> Figure {
    let exp = &runs.social.exp;
    let plan = runs.social.best();
    let api = "/homeTimelineAPI";
    let mut fig =
        Figure::new("Figure 7: estimated vs measured latency distribution (/homeTimelineAPI)");
    let measured = exp.measure_plan(plan, 1.0);
    let estimated = exp.quality.estimate_api_latency_ms(api, plan);
    let real = measured.api_mean_latency_ms(api).unwrap_or(0.0);
    fig.row(
        "mean latency (ms)",
        &[("estimated", estimated), ("measured", real)],
    );
    let injected = exp.quality.estimate_latency_distribution_ms(api, plan);
    let kl = kl_divergence(&injected, &latencies(&measured, api), 20);
    fig.row("KL(estimated || measured)", &[("kl_divergence", kl)]);
    fig
}

/// Figure 11: Atlas vs the single-plan approaches (REMaP, IntMA, greedy) on
/// mean API latency and cost per day.
fn fig11(runs: &Runs) -> Figure {
    let Run { exp, singles, .. } = &runs.social;
    let mut fig =
        Figure::new("Figure 11: single-plan comparison (per-API latency in ms, cost per day in $)");
    let atlas = ("atlas", runs.social.best());
    for (name, plan) in std::iter::once(atlas).chain(singles.iter().map(|(n, p)| (*n, p))) {
        let latency = |api: &String| exp.quality.estimate_api_latency_ms(api, plan);
        let latency = mean(&exp.api_names().iter().map(latency).collect::<Vec<_>>());
        let cost = exp.quality.cost_per_day(plan);
        let perf = exp.quality.performance(plan);
        fig.row(
            name,
            &[
                ("mean_api_latency_ms", latency),
                ("cost_per_day", cost),
                ("q_perf", perf),
            ],
        );
    }
    fig
}

/// Figures 12–14: each of the seven methods' best plan under `criterion`
/// (lower is better) with all three quality indicators of that plan. Every
/// method's candidates go through one shared evaluator, so a plan several
/// methods propose is scored once.
fn best_plans(runs: &Runs, number: u32, what: &str, criterion: fn(&PlanQuality) -> f64) -> Figure {
    let run = &runs.social;
    let mut fig = Figure::new(format!(
        "Figure {number}: {what}-optimized plans \
         (q_perf = weighted latency ratio, q_avai = weighted disrupted APIs)"
    ));
    let atlas: Vec<MigrationPlan> = run.report.plans.iter().map(|p| p.plan.clone()).collect();
    let mut methods = vec![("atlas", atlas)];
    methods.extend(run.fronts.iter().cloned());
    methods.extend(
        run.singles
            .iter()
            .map(|(name, plan)| (*name, vec![plan.clone()])),
    );
    let evaluator = run.exp.evaluator();
    for (name, plans) in methods {
        let qualities = evaluator.evaluate_batch(&plans);
        let best = plans.iter().zip(&qualities);
        let best = best.min_by(|(_, a), (_, b)| criterion(a).total_cmp(&criterion(b)));
        let Some((plan, q)) = best else {
            fig.row(format!("{name} (no feasible plan)"), &[]);
            continue;
        };
        let (perf, avai) = (q.performance, q.availability);
        let cost = run.exp.quality.cost_per_day(plan);
        fig.row(
            name,
            &[("q_perf", perf), ("q_avai", avai), ("cost_per_day", cost)],
        );
    }
    fig
}

/// Figure 15: the Pareto fronts (performance impact vs cost) of Atlas, the
/// affinity GA and random search on both applications. The baselines' plans
/// are scored through one shared evaluator per application.
fn fig15(runs: &Runs) -> Figure {
    let mut fig =
        Figure::new("Figure 15: Pareto front points (q_perf, cost_per_day) on both applications");
    for run in [&runs.social, &runs.hotel] {
        let exp = &run.exp;
        let app = format!("{:?}", exp.options.application);
        let mut point = |label: &str, plan: &MigrationPlan, perf: f64| {
            let cost = exp.quality.cost_per_day(plan);
            let values = [("q_perf", perf), ("cost_per_day", cost)];
            fig.row(format!("{app} {label}"), &values);
        };
        for p in &run.report.plans {
            point("atlas", &p.plan, p.quality.performance);
        }
        let evaluator = exp.evaluator();
        for (label, plans) in &run.fronts {
            for (plan, q) in plans.iter().zip(evaluator.evaluate_batch(plans)) {
                point(label, plan, q.performance);
            }
        }
    }
    fig
}

/// Figure 16: personalized recommendations honouring critical APIs.
fn fig16(runs: &Runs) -> Figure {
    let exp = &runs.social.exp;
    let mut fig = Figure::new(
        "Figure 16: estimated latency (ms) of APIs under different critical-API settings",
    );
    let follow = ["/followAPI", "/unfollowAPI"];
    let timeline = ["/homeTimelineAPI", "/composeAPI"];
    for (scenario, criticals) in [
        ("follow/unfollow", follow),
        ("homeTimeline/compose", timeline),
    ] {
        let mut preferences = exp.preferences.clone();
        for api in criticals {
            preferences = preferences.critical(api);
        }
        let quality = exp.atlas.quality_model(exp.current.clone(), preferences);
        let report = Recommender::new(&quality, exp.atlas.config().recommender.clone()).recommend();
        let plan = &report.performance_optimized().expect("plans").plan;
        for api in follow.into_iter().chain(timeline) {
            let baseline = exp.atlas.profile().apis[api].mean_latency_ms;
            let estimated = quality.estimate_api_latency_ms(api, plan);
            let values = [("baseline_ms", baseline), ("estimated_ms", estimated)];
            fig.row(format!("{scenario} critical: {api}"), &values);
        }
    }
    fig
}

/// Figure 17: post-migration monitoring detects a user-behaviour change.
fn fig17(runs: &Runs) -> Figure {
    let exp = &runs.social.exp;
    let plan = runs.social.best();
    let api = "/composeAPI";
    let mut fig = Figure::new("Figure 17: drift detection on /composeAPI after a behaviour change");
    // Measured latency right after the migration (no mentions yet).
    let measured = latencies(&exp.measure_plan(plan, 1.0), api);
    let detector = DriftDetector::from_model(&exp.quality, api, plan, measured);
    fig.row("baseline", &[("kl_divergence", detector.baseline_kl())]);
    // At 12:00 users start tagging friends: rebuild the app with active
    // mentions and replay the workload under the same placement.
    let drifted_app = social_network(SocialNetworkOptions {
        active_user_mentions: true,
        ..SocialNetworkOptions::default()
    });
    let config = SimConfig {
        cluster: ClusterSpec::default(),
        overload: OverloadModel::disabled(),
        metric_window_s: 5,
        seed: 77,
    };
    let sim = Simulator::new(drifted_app, plan.clone(), config);
    let drifted = sim.run(&exp.burst_schedule(1.0, 77), &TelemetryStore::new());
    let check = detector.check(&latencies(&drifted, api));
    let (kl, loss) = (check.recent_kl, check.information_loss_factor);
    fig.row(
        "recent",
        &[("kl_divergence", kl), ("information_loss", loss)],
    );
    fig.row("drift", &[("detected", flag(check.drifted))]);
    fig
}

/// Figure 18: delay-injection estimates vs measured latency for the
/// performance- and cost-optimized plans.
fn fig18(runs: &Runs) -> Figure {
    let report = &runs.social.report;
    let exp = &runs.social.exp;
    let mut fig =
        Figure::new("Figure 18: estimated vs measured API latency (ms) of two recommended plans");
    for (label, plan) in [
        ("performance-optimized", report.performance_optimized()),
        ("cost-optimized", report.cost_optimized()),
    ] {
        let plan = &plan.expect("plans").plan;
        let measured = exp.measure_plan(plan, 1.0);
        let mut errors = Vec::new();
        for api in exp.api_names() {
            let estimate = exp.quality.estimate_api_latency_ms(&api, plan);
            let real = measured.api_mean_latency_ms(&api).unwrap_or(0.0);
            errors.push((estimate - real).abs());
            let values = [("estimated", estimate), ("measured", real)];
            fig.row(format!("{label} {api}"), &values);
        }
        fig.row(label, &[("mean_abs_error_ms", mean(&errors))]);
    }
    fig
}

/// Figure 19: the learned network footprint of /registerAPI vs the real
/// request/response sizes.
fn fig19(runs: &Runs) -> Figure {
    let exp = &runs.social.exp;
    let api = "/registerAPI";
    let mut fig = Figure::new("Figure 19: learned vs real footprint of /registerAPI (bytes)");
    for (truth_api, from, to, real_req, real_resp) in exp.topology.ground_truth_footprints() {
        if truth_api != api {
            continue;
        }
        let from = exp.topology.component_name(from);
        let to = exp.topology.component_name(to);
        let (est_req, est_resp) = exp.atlas.footprint().get_or_zero(api, from, to);
        let request = [("request_est", est_req), ("request_real", real_req)];
        let response = [("response_est", est_resp), ("response_real", real_resp)];
        fig.row(format!("{from} -> {to}"), &[request, response].concat());
    }
    fig
}

/// Figure 20: footprint accuracy for all nine social-network APIs.
fn fig20(runs: &Runs) -> Figure {
    let exp = &runs.social.exp;
    let mut fig = Figure::new("Figure 20: network footprint accuracy per API (%)");
    let mut truth: BTreeMap<String, Vec<(String, String, f64, f64)>> = BTreeMap::new();
    for (api, from, to, req, resp) in exp.topology.ground_truth_footprints() {
        let from = exp.topology.component_name(from).to_string();
        let to = exp.topology.component_name(to).to_string();
        truth.entry(api).or_default().push((from, to, req, resp));
    }
    for (api, edges) in &truth {
        let accuracy = exp.atlas.footprint().accuracy_against(api, edges);
        fig.row(api, &[("accuracy_pct", accuracy)]);
    }
    fig
}

/// Figure 21: the DRL-based GA vs a plain NSGA-II variant (a), and the
/// reward progression of the crossover agent (b), both searches on the
/// default recommendation's configuration with the crossover named.
fn fig21(runs: &Runs) -> Figure {
    let exp = &runs.social.exp;
    let mut fig = Figure::new(
        "Figure 21: fronts (q_perf, q_avai, cost) of the DRL GA vs NSGA-II (a) \
         and the agent's mean reward per 10% chunk (b)",
    );
    let config = exp.atlas.config().recommender.clone();
    let rl = RecommenderConfig {
        strategy: CrossoverStrategy::ReinforcementLearning,
        ..config.clone()
    };
    let rl = Recommender::new(&exp.quality, rl).recommend();
    let nsga = Recommender::new(&exp.quality, config.with_uniform_crossover()).recommend();
    for (label, report) in [("atlas-drl-ga", &rl), ("nsga2-uniform", &nsga)] {
        for p in &report.plans {
            let q = &p.quality;
            let (perf, avai, cost) = (q.performance, q.availability, q.cost);
            fig.row(label, &[("q_perf", perf), ("q_avai", avai), ("cost", cost)]);
        }
    }
    let rewards = &rl.reward_progression;
    let chunk = (rewards.len() / 10).max(1);
    for (i, window) in rewards.chunks(chunk).enumerate() {
        let reward = mean(window);
        fig.row(format!("reward chunk {i}"), &[("mean_reward", reward)]);
    }
    fig
}

/// Figure 22: detecting a data breach by comparing observed traffic with the
/// traffic the served API requests can justify.
fn fig22(runs: &Runs) -> Figure {
    let exp = &runs.social.exp;
    let (from, to, horizon) = ("UserService", "UserMongoDB", 300);
    let mut fig = Figure::new("Figure 22: data-breach detection on UserService -> UserMongoDB");
    let check = || check_edge(&exp.store, exp.atlas.footprint(), from, to, horizon);
    let clean = flag(check().breach_detected());
    fig.row("normal operation", &[("breach_detected", clean)]);
    // Inject a 100 MB exfiltration into the horizon's last minute.
    let store = &exp.store;
    store.record_traffic(from, to, Direction::Response, 299, 1.0e8);
    let attacked = check();
    let mut after = vec![("breach_detected", flag(attacked.breach_detected()))];
    for window in attacked.anomalous_windows() {
        after.push(("anomalous_window", window as f64));
    }
    after.push(("unexplained_bytes", attacked.unexplained_bytes()));
    fig.row("after exfiltration", &after);
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure(figures: &[Figure], number: u32) -> &Figure {
        let prefix = format!("Figure {number}:");
        let found = figures.iter().find(|f| f.title.starts_with(&prefix));
        found.unwrap_or_else(|| panic!("no {prefix}"))
    }

    fn value(figure: &Figure, label: &str, name: &str) -> f64 {
        let row = figure.rows.iter().filter(|(l, _)| l == label);
        let found = row.flat_map(|(_, v)| v).find(|(n, _)| *n == name);
        let missing = || panic!("{}: no {label} {name}", figure.title);
        found.unwrap_or_else(missing).1
    }

    #[test]
    fn every_figure_runs_and_shows_what_its_title_says() {
        let figures = all();
        // Exactly what the `figures` binary prints.
        let printed: String = figures.iter().map(|f| format!("{f}\n")).collect();
        crate::golden::check("figures.txt", &printed);

        let fig2 = figure(&figures, 2);
        assert!(value(fig2, "overloaded", "peak_utilization") > 1.0);
        assert!(value(fig2, "requests", "failed") > 0.0);
        for api in ["/homeTimelineAPI", "/composeAPI"] {
            let (normal, burst) = (
                value(fig2, api, "normal_ms"),
                value(fig2, api, "overloaded_ms"),
            );
            assert!(burst > normal, "{api}: {burst} vs {normal}");
        }

        let fig18 = figure(&figures, 18);
        for plan in ["performance-optimized", "cost-optimized"] {
            assert!(value(fig18, plan, "mean_abs_error_ms") < 1.0, "{plan}");
        }

        let fig19 = figure(&figures, 19);
        for (edge, _) in &fig19.rows {
            for size in ["request", "response"] {
                let est = value(fig19, edge, &format!("{size}_est"));
                let real = value(fig19, edge, &format!("{size}_real"));
                let within = (est - real).abs() <= 0.05 * real;
                assert!(within, "{edge} {size}: {est} vs {real}");
            }
        }

        let fig22 = figure(&figures, 22);
        assert_eq!(value(fig22, "normal operation", "breach_detected"), 0.0);
        assert_eq!(value(fig22, "after exfiltration", "breach_detected"), 1.0);
    }
}
