//! Property-based tests on the substrate crates: trace assembly, workload
//! generation, cost model, NSGA-II survival and footprint regression.

use proptest::prelude::*;

use atlas::cloud::{CostBreakdown, PricingModel, ResourceDemand, SiteCostModel, SiteId};
use atlas::ga::nsga2::{fast_non_dominated_sort, select_survivors};
use atlas::telemetry::{Span, SpanId, Trace, TraceId};

/// Build a random single-rooted span tree: each span after the first picks
/// an earlier span as its parent.
fn arbitrary_trace(parents: Vec<usize>, starts: Vec<u64>, durations: Vec<u64>) -> Trace {
    let n = parents.len() + 1;
    let t = TraceId(1);
    let mut spans = vec![Span::new(t, SpanId(0), None, "c0", "/api", 0, 1_000_000)];
    for i in 1..n {
        let parent = parents[i - 1] % i;
        spans.push(Span::new(
            t,
            SpanId(i as u64),
            Some(SpanId(parent as u64)),
            format!("c{}", i % 5),
            format!("op{i}"),
            starts[i - 1] % 900_000,
            durations[i - 1] % 200_000 + 1,
        ));
    }
    Trace::from_spans(spans).expect("single-rooted span sets always assemble")
}

proptest! {
    /// Any single-rooted span set assembles into a tree that preserves every
    /// span, puts the root at index 0, and visits each node exactly once in
    /// pre-order.
    #[test]
    fn trace_assembly_preserves_spans(
        parents in prop::collection::vec(0usize..16, 1..16),
        starts in prop::collection::vec(0u64..1_000_000, 16),
        durations in prop::collection::vec(1u64..500_000, 16),
    ) {
        let trace = arbitrary_trace(parents.clone(), starts, durations);
        prop_assert_eq!(trace.len(), parents.len() + 1);
        prop_assert!(trace.nodes[0].parent.is_none());
        let order = trace.preorder();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), trace.len());
        // Invocation counts never exceed the number of edges.
        let invocations: u64 = trace.invocation_counts().values().sum();
        prop_assert!(invocations <= (trace.len() - 1) as u64);
    }

    /// NSGA-II survival returns exactly `min(capacity, n)` distinct members
    /// and never keeps a member that is dominated by a discarded one from a
    /// strictly better front.
    #[test]
    fn nsga2_survival_is_well_formed(
        objectives in prop::collection::vec(
            prop::collection::vec(0.0f64..10.0, 2..3), 1..30),
        capacity in 1usize..20,
    ) {
        // Pad objective vectors to equal length (proptest may vary lengths).
        let dim = objectives.iter().map(Vec::len).min().unwrap_or(2);
        let objectives: Vec<Vec<f64>> = objectives
            .into_iter()
            .map(|mut v| { v.truncate(dim); v })
            .collect();
        let feasible = vec![true; objectives.len()];
        let survivors = select_survivors(&objectives, &feasible, capacity);
        prop_assert_eq!(survivors.len(), capacity.min(objectives.len()));
        let mut unique = survivors.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(unique.len(), survivors.len());

        // Everyone in front 0 with index within capacity must survive when
        // capacity is at least the size of front 0.
        let fronts = fast_non_dominated_sort(&objectives, &feasible);
        if fronts[0].len() <= capacity {
            for &i in &fronts[0] {
                prop_assert!(survivors.contains(&i));
            }
        }
    }

    /// Hosting cost is zero when nothing is placed off-prem, and the
    /// breakdown's total always equals the sum of its parts.
    #[test]
    fn cost_model_total_is_consistent(
        cpu in prop::collection::vec(0.0f64..8.0, 3),
        storage in prop::collection::vec(0.0f64..50.0, 3),
        sites in prop::collection::vec(0u16..3, 3),
    ) {
        let sites: Vec<SiteId> = sites.into_iter().map(SiteId).collect();
        let names: Vec<String> = (0..3).map(|i| format!("c{i}")).collect();
        let mut demand = ResourceDemand::zeros(names, 4, 600);
        for (i, &cores) in cpu.iter().enumerate() {
            demand.fill_cpu(i, cores);
            demand.fill_memory(i, cores * 2.0);
            demand.fill_storage(i, storage[i]);
        }
        demand.fill_edge(0, 1, 1.0e6);
        demand.fill_edge(1, 2, 2.0e6);
        let cloud = Some(PricingModel::default());
        let model = SiteCostModel::from_pricings(vec![None, cloud.clone(), cloud]);
        let cost = model.evaluate(&demand, &sites);
        prop_assert!((cost.total() - (cost.compute + cost.storage + cost.traffic)).abs() < 1e-9);
        if sites.iter().all(|s| s.is_on_prem()) {
            prop_assert_eq!(cost.total(), 0.0);
        }
        prop_assert!(cost.compute >= 0.0 && cost.storage >= 0.0 && cost.traffic >= 0.0);
        // Per-day rescaling preserves proportions.
        let per_day: CostBreakdown = cost.per_day(demand.duration_s());
        prop_assert!(per_day.total() >= cost.total() - 1e-9);
    }

    /// The workload generator always produces schedules whose arrivals are
    /// sorted and whose APIs all belong to the requested mix.
    #[test]
    fn workload_schedules_are_sorted_and_well_formed(seed in 0u64..500, burst in 1.0f64..4.0) {
        use atlas::apps::{social_network, SocialNetworkOptions, WorkloadGenerator, WorkloadOptions};
        let app = social_network(SocialNetworkOptions::default());
        let mut options = WorkloadOptions::social_network_default().with_seed(seed).with_burst(burst);
        options.profile.day_seconds = 60; // keep the property test fast
        let schedule = WorkloadGenerator::new(options.clone()).generate(&app).unwrap();
        let requests = schedule.requests();
        prop_assert!(!requests.is_empty());
        for pair in requests.windows(2) {
            prop_assert!(pair[0].at_us <= pair[1].at_us);
        }
        let allowed: std::collections::HashSet<&str> =
            options.api_mix.iter().map(|(a, _)| a.as_str()).collect();
        for r in requests {
            prop_assert!(allowed.contains(r.api.as_str()));
        }
    }
}
