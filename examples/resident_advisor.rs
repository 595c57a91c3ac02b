//! The resident advisor event loop: stream a generated application's day
//! into an [`AdvisorService`], bootstrap it, then splice in a drift corpus
//! and watch the service detect the drift, relearn the profile and
//! re-recommend — printing the event timeline as it unfolds.
//!
//! Run with `cargo run --example resident_advisor`.

use atlas::apps::{synthesize, synthesize_drift_phase, SynthScenario, WorkloadGenerator};
use atlas::core::{
    AdvisorService, AdvisorServiceConfig, AtlasConfig, MigrationPreferences, RecommenderConfig,
    ServiceEvent,
};
use atlas::sim::{ClusterSpec, OverloadModel, Placement, SimConfig, Simulator};
use atlas::telemetry::TelemetryStore;
use atlas_bench::{copy_context, corpus_of, shift_corpus};

/// Compressed day length of the replay, in seconds.
const DAY_S: u64 = 60;

fn simulate_day(scenario: &SynthScenario, seed: u64) -> TelemetryStore {
    let mut workload = scenario.workload.clone();
    workload.profile.day_seconds = DAY_S;
    let store = TelemetryStore::new();
    let sim = Simulator::new(
        scenario.topology.clone(),
        Placement::all_onprem(scenario.topology.component_count()),
        SimConfig {
            cluster: ClusterSpec::default(),
            overload: OverloadModel::disabled(),
            metric_window_s: 5,
            seed,
        },
    );
    let schedule = WorkloadGenerator::new(workload)
        .generate(&scenario.topology)
        .expect("workload matches the topology");
    sim.run(&schedule, &store);
    store
}

/// Print one round's events, counting them into `totals` as (events,
/// drift confirmations).
fn print_events(label: &str, events: &[ServiceEvent], totals: &mut (usize, usize)) {
    totals.0 += events.len();
    for event in events {
        match event {
            ServiceEvent::Ingested {
                traces,
                evicted,
                epoch,
            } => {
                println!("[{label}] ingested {traces} traces (evicted {evicted}, epoch {epoch})");
            }
            ServiceEvent::DriftFired { api, report } => {
                totals.1 += 1;
                println!(
                    "[{label}] DRIFT on {api}: KL {:.3} vs baseline {:.3} ({:.1}x information loss)",
                    report.recent_kl, report.baseline_kl, report.information_loss_factor
                );
            }
            ServiceEvent::Relearned {
                apis,
                cold,
                elapsed_ms,
            } => println!(
                "[{label}] relearned {} ({}) in {elapsed_ms:.1} ms",
                apis.join(", "),
                if *cold {
                    "cold bootstrap"
                } else {
                    "footprint and demand held"
                },
            ),
            ServiceEvent::Rerecommended {
                plans,
                deltas,
                latency_ms,
            } => {
                println!(
                    "[{label}] re-recommended: {plans} Pareto plans in {latency_ms:.1} ms, \
                     {} component moves",
                    deltas.len()
                );
                for d in deltas.iter().take(5) {
                    println!(
                        "[{label}]   move {} from site {} to site {}",
                        d.component, d.from.0, d.to.0
                    );
                }
            }
        }
    }
}

fn main() {
    // A generated 30-component two-site application and its drift phase:
    // same component/API names, heavier payloads and compute, rotated mix.
    let options = atlas::apps::SynthOptions {
        components: 30,
        apis: 3,
        site_count: 2,
        seed: 11,
        ..atlas::apps::SynthOptions::default()
    };
    let base = synthesize(options).expect("options are valid");
    let drift = synthesize_drift_phase(&options).expect("drift options are valid");

    let day1_store = simulate_day(&base, options.seed);
    let day2_store = simulate_day(&drift, options.seed ^ 0x5EED);
    let day1 = corpus_of(&day1_store);
    let mut day2 = corpus_of(&day2_store);
    shift_corpus(&mut day2, (DAY_S + 1) * 1_000_000, 1 << 60);
    println!(
        "replaying {} day-1 traces + {} drift traces through the resident advisor\n",
        day1.len(),
        day2.len()
    );

    let mut atlas_config = AtlasConfig::new(base.component_index(), base.stateful_names());
    atlas_config.sites = Some(base.catalog.clone());
    atlas_config.traces_per_api = 40;
    atlas_config.horizon_steps = 8;
    atlas_config.recommender = RecommenderConfig {
        population: 16,
        max_visited: 250,
        ..RecommenderConfig::fast()
    };
    let preferences = MigrationPreferences::with_cpu_limit(base.burst_cpu_limit(5.0, 0.6));

    // Retention covers 1.5 compressed days, so day 2 evicts day-1 traces.
    let mut config =
        AdvisorServiceConfig::new(atlas_config, preferences).with_retention_window_s(DAY_S * 3 / 2);
    config.min_detector_samples = 60;
    let mut service = AdvisorService::new(config, Placement::all_onprem(30));
    let mut totals = (0, 0);

    // Day 1 streams in; the service only ingests (no model yet), then the
    // bootstrap learns every API cold and recommends a first plan.
    for batch in day1.chunks(day1.len().div_ceil(4)) {
        print_events("day 1", &service.feed(batch.to_vec()), &mut totals);
    }
    copy_context(&day1_store, service.store(), 0);
    println!();
    print_events("bootstrap", &service.bootstrap(), &mut totals);

    // Day 2: the drift corpus streams in behind day 1. Detectors fire, the
    // profile relearns from the retained traces, and a fresh recommendation
    // lands.
    println!();
    copy_context(&day2_store, service.store(), DAY_S + 1);
    for batch in day2.chunks(day2.len().div_ceil(8)) {
        print_events("day 2", &service.feed(batch.to_vec()), &mut totals);
    }

    let (events, drifts) = totals;
    println!("\ntimeline: {events} events, {drifts} drift confirmations");
}
