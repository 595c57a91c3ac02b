//! Clustered (weighted-representative) learning against the full-trace
//! path it replaced.
//!
//! Two pinned relationships:
//!
//! * **Exact degeneration** — when every trace of an API is structurally
//!   unique, clustering has nothing to collapse and
//!   [`ApplicationProfile::learn`] must reproduce
//!   [`ApplicationProfile::learn_unclustered`] bit for bit: same retained
//!   traces in the same order, unit weights, identical statistics.
//! * **Bounded approximation** — on real telemetry (seed applications and
//!   generated scenarios) the clustered model scores plans within a pinned
//!   relative tolerance of the full-trace model on the performance
//!   indicator, while availability, cost and feasibility — none of which
//!   depend on the retained trace sample — stay bit-identical.

use proptest::prelude::*;

use atlas::apps::{CallGraphShape, SynthOptions};
use atlas::core::{ApplicationProfile, MigrationPlan, QualityModel};
use atlas::sim::{Placement, SiteId};
use atlas::telemetry::{Span, SpanId, TelemetryStore, Trace, TraceId};
use atlas_bench::{Application, Experiment, ExperimentOptions};

/// Pinned relative tolerance on the performance indicator between the
/// clustered and full-trace models. Clustering retains one representative
/// per call-tree structure (the member nearest its cluster's mean latency)
/// and the full-trace path retains the most recent traces, so the two score
/// from different — but equally representative — latency samples.
const PERF_REL_TOL: f64 = 0.15;

/// Learn the same telemetry both ways and compile both quality models.
fn models_for(application: Application, seed: u64) -> (Experiment, QualityModel, QualityModel) {
    let exp = Experiment::set_up(ExperimentOptions {
        application,
        max_visited: 30,
        population: 6,
        seed,
        ..ExperimentOptions::quick()
    });
    let component_index: Vec<String> = exp
        .topology
        .components()
        .iter()
        .map(|c| c.name.clone())
        .collect();
    let stateful: Vec<String> = exp
        .topology
        .stateful_components()
        .into_iter()
        .map(|c| exp.topology.component_name(c).to_string())
        .collect();
    let clustered = ApplicationProfile::learn(&exp.store, &stateful, 40);
    let unclustered = ApplicationProfile::learn_unclustered(&exp.store, &stateful, 40);
    let build = |profile: ApplicationProfile| {
        QualityModel::for_catalog(
            profile,
            exp.atlas.footprint().clone(),
            &exp.catalog,
            exp.atlas.demand().clone(),
            exp.preferences.clone(),
            exp.current.clone(),
            component_index.clone(),
        )
    };
    let clustered_model = build(clustered);
    let unclustered_model = build(unclustered);
    (exp, clustered_model, unclustered_model)
}

/// Plans across the feasibility spectrum for an `n`-component application.
fn probe_plans(n: usize, seed: u64) -> Vec<MigrationPlan> {
    let mut plans = vec![
        MigrationPlan::all_onprem(n),
        MigrationPlan::new(Placement::all_cloud(n)),
    ];
    for salt in 0u64..6 {
        let sites = (0..n)
            .map(|i| {
                let bit =
                    (seed ^ salt.wrapping_mul(0x9E37_79B9)).wrapping_add(i as u64 * 0x85EB) >> 7;
                SiteId(bit as u16 & 1)
            })
            .collect();
        plans.push(MigrationPlan::from_sites(sites));
    }
    plans
}

/// Assert the pinned relationship between the two models on every probe
/// plan: performance within `PERF_REL_TOL`, everything else bit-identical.
fn assert_models_agree(clustered: &QualityModel, unclustered: &QualityModel, n: usize, seed: u64) {
    for plan in probe_plans(n, seed) {
        let c = clustered.evaluate(&plan);
        let u = unclustered.evaluate(&plan);
        // Availability and cost read component sets, resource demand and
        // site pricing — not the retained trace sample.
        assert_eq!(c.availability.to_bits(), u.availability.to_bits());
        assert_eq!(c.cost.to_bits(), u.cost.to_bits());
        assert_eq!(c.feasible, u.feasible);
        let rel = (c.performance - u.performance).abs() / u.performance.abs().max(1e-6);
        assert!(
            rel <= PERF_REL_TOL,
            "performance diverged beyond the pinned tolerance: \
             clustered {} vs full-trace {} (rel {rel:.4})",
            c.performance,
            u.performance
        );
        // Both models' compiled kernels stay pinned to their interpretive
        // oracles (the oracle scores weighted representatives too).
        for model in [clustered, unclustered] {
            let kernel = model.evaluate(&plan);
            let oracle = atlas::core::oracle::evaluate(model, &plan);
            assert_eq!(kernel.performance.to_bits(), oracle.performance.to_bits());
            assert_eq!(kernel.availability.to_bits(), oracle.availability.to_bits());
            assert_eq!(kernel.cost.to_bits(), oracle.cost.to_bits());
            assert_eq!(kernel.feasible, oracle.feasible);
        }
    }
}

#[test]
fn clustered_learning_tracks_the_full_trace_model_on_the_social_network() {
    let (exp, clustered, unclustered) = models_for(Application::SocialNetwork, 7);
    let n = exp.topology.components().len();
    assert_models_agree(&clustered, &unclustered, n, 7);
}

#[test]
fn clustered_learning_tracks_the_full_trace_model_on_the_hotel_reservation() {
    let (exp, clustered, unclustered) = models_for(Application::HotelReservation, 11);
    let n = exp.topology.components().len();
    assert_models_agree(&clustered, &unclustered, n, 11);
}

/// A call chain of `depth + 1` spans: within one API, every depth yields a
/// distinct structural signature, so a set of traces with distinct depths
/// is entirely collapse-free.
fn chain_trace(id: u64, api: &str, depth: usize, start_us: u64, duration_us: u64) -> Trace {
    let t = TraceId(id);
    let mut spans = vec![Span::new(
        t,
        SpanId(1),
        None,
        "C0",
        api,
        start_us,
        duration_us,
    )];
    for k in 1..=depth {
        spans.push(Span::new(
            t,
            SpanId(k as u64 + 1),
            Some(SpanId(k as u64)),
            format!("C{}", k % 5),
            "op",
            start_us + 10 * k as u64,
            duration_us / (k as u64 + 1) + 1,
        ));
    }
    Trace::from_spans(spans).expect("chain spans form a valid trace")
}

proptest! {
    /// With every trace structurally unique, clustered learning degenerates
    /// to the full-trace path bit for bit — retained traces, order, unit
    /// weights and statistics — for any trace timing, any API split and any
    /// retention cap (including caps smaller than the trace count, where
    /// both paths keep the same most-recent tail).
    #[test]
    fn unique_structures_make_clustering_a_bitwise_no_op(
        per_api in prop::collection::vec(
            prop::collection::vec((0u64..50, 1_000u64..2_000_000), 1..12), 1..4),
        cap in 1usize..15,
    ) {
        let store = TelemetryStore::new();
        let mut id = 0u64;
        for (a, specs) in per_api.iter().enumerate() {
            for (depth, &(slot, duration)) in specs.iter().enumerate() {
                id += 1;
                store.ingest_trace(chain_trace(
                    id,
                    &format!("/api{a}"),
                    depth,
                    slot * 500_000,
                    duration,
                ));
            }
        }
        let stateful = vec!["C1".to_string()];
        let clustered = ApplicationProfile::learn(&store, &stateful, cap);
        let unclustered = ApplicationProfile::learn_unclustered(&store, &stateful, cap);

        prop_assert_eq!(clustered.apis.len(), unclustered.apis.len());
        for (endpoint, c) in &clustered.apis {
            let u = &unclustered.apis[endpoint];
            prop_assert_eq!(&c.traces, &u.traces);
            prop_assert_eq!(c.weight_total().to_bits(), u.weight_total().to_bits());
            for i in 0..c.traces.len() {
                prop_assert_eq!(c.trace_weight(i).to_bits(), 1.0f64.to_bits());
                prop_assert_eq!(u.trace_weight(i).to_bits(), 1.0f64.to_bits());
            }
            prop_assert_eq!(&c.components, &u.components);
            prop_assert_eq!(&c.stateful_components, &u.stateful_components);
            prop_assert_eq!(c.mean_latency_ms.to_bits(), u.mean_latency_ms.to_bits());
            prop_assert_eq!(c.request_count, u.request_count);
        }
    }

    /// On generated scenarios the clustered model stays within the pinned
    /// performance tolerance of the full-trace model, with availability,
    /// cost and feasibility bit-identical (shapes beyond the seed apps:
    /// fan-out, chain and mesh call graphs).
    #[test]
    fn clustered_learning_tracks_the_full_trace_model_on_generated_scenarios(
        components in 10usize..18,
        shape_idx in 0usize..4,
        seed in 0u64..50_000,
    ) {
        let shape = [
            CallGraphShape::Layered,
            CallGraphShape::FanOut,
            CallGraphShape::Chain,
            CallGraphShape::Mesh,
        ][shape_idx];
        let synth = SynthOptions {
            components,
            shape,
            apis: (components / 8).max(1),
            seed,
            ..SynthOptions::default()
        };
        let exp = Experiment::set_up(ExperimentOptions {
            application: Application::Synthetic(synth),
            learn_day_seconds: Some(20),
            max_visited: 20,
            population: 6,
            seed: seed ^ 0x71c3,
            ..ExperimentOptions::quick()
        });
        let component_index: Vec<String> = exp
            .topology
            .components()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let stateful: Vec<String> = exp
            .topology
            .stateful_components()
            .into_iter()
            .map(|c| exp.topology.component_name(c).to_string())
            .collect();
        let build = |profile: ApplicationProfile| {
            QualityModel::for_catalog(
                profile,
                exp.atlas.footprint().clone(),
                &exp.catalog,
                exp.atlas.demand().clone(),
                exp.preferences.clone(),
                exp.current.clone(),
                component_index.clone(),
            )
        };
        let clustered = build(ApplicationProfile::learn(&exp.store, &stateful, 40));
        let unclustered = build(ApplicationProfile::learn_unclustered(&exp.store, &stateful, 40));
        assert_models_agree(&clustered, &unclustered, components, seed);
    }
}
