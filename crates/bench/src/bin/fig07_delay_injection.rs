//! Figure 7: the delay-injection latency distribution matches the measured
//! post-migration distribution.
use atlas_bench::{Experiment, ExperimentOptions};
use atlas_core::{kl_divergence, Recommender};

fn main() {
    let exp = Experiment::set_up(ExperimentOptions::quick());
    let report = Recommender::new(&exp.quality, exp.atlas.config().recommender.clone()).recommend();
    let plan = &report.performance_optimized().expect("plans").plan;
    println!("# Figure 7: estimated vs measured latency distribution (/homeTimelineAPI)");
    let api = "/homeTimelineAPI";
    let estimated = exp.quality.estimate_api_latency_ms(api, plan);
    let measured = exp
        .measure_plan(plan, 1.0)
        .api_mean_latency_ms(api)
        .unwrap_or(0.0);
    println!("estimated mean: {estimated:.1} ms, measured mean: {measured:.1} ms");
    let injector = atlas_core::DelayInjector::new(
        exp.catalog.network().clone(),
        exp.atlas.config().component_index.clone(),
    );
    let injector_dist = injector.estimate_latency_distribution_ms(
        &exp.atlas.profile().apis[api].traces,
        exp.atlas.footprint(),
        &exp.current,
        plan.placement(),
    );
    let measured_dist: Vec<f64> = {
        let r = exp.measure_plan(plan, 1.0);
        r.outcomes
            .iter()
            .filter(|o| o.api == api)
            .filter_map(|o| o.latency_ms)
            .collect()
    };
    println!(
        "KL divergence(estimated || measured) = {:.3}",
        kl_divergence(&injector_dist, &measured_dist, 20)
    );
}
