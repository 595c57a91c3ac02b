//! Cross-crate property-based tests on the core invariants.

use std::sync::OnceLock;

use proptest::prelude::*;

use atlas::apps::{synthesize, CallGraphShape, SynthOptions};
use atlas::core::oracle::{self, DelayInjector};
use atlas::core::recommender::CrossoverStrategy;
use atlas::core::{
    kl_divergence, MigrationPlan, PlanEvaluator, PlanQuality, QualityModel, RecommendedPlan,
    Recommender, RecommenderConfig, LANE_WIDTH,
};
use atlas::ga::{dominates, pareto_front_indices, ParetoArchive};
use atlas::sim::{ComponentId, Placement, SiteCatalog, SiteId, SiteNetwork};
use atlas_bench::golden::front_text;
use atlas_bench::{Application, Experiment, ExperimentOptions};

/// A plan from raw site indices.
fn plan_of(sites: &[u16]) -> MigrationPlan {
    MigrationPlan::from_sites(sites.iter().map(|&s| SiteId(s)).collect())
}

/// One quality model (29 components, CPU limit + pinned user data, so random
/// plans mix feasible and infeasible) shared by every property case.
fn shared_quality() -> &'static QualityModel {
    static QUALITY: OnceLock<QualityModel> = OnceLock::new();
    QUALITY.get_or_init(|| {
        Experiment::set_up(ExperimentOptions {
            max_visited: 100,
            population: 8,
            ..ExperimentOptions::quick()
        })
        .quality
    })
}

/// The generated 40-component 4-site scenario behind [`offspring_model`]
/// and [`search_model`].
fn four_site_experiment() -> Experiment {
    Experiment::set_up(ExperimentOptions {
        application: Application::Synthetic(SynthOptions {
            components: 40,
            shape: CallGraphShape::Layered,
            stateful_fraction: 0.2,
            apis: 6,
            call_depth: 4,
            site_count: 4,
            ..SynthOptions::default()
        }),
        seed: 77,
        max_visited: 100,
        population: 8,
        learn_day_seconds: Some(30),
        ..ExperimentOptions::quick()
    })
}

/// The two models of the scored-children property: the 2-site
/// social network of [`shared_quality`] and a generated 40-component
/// 4-site scenario.
fn offspring_model(idx: usize) -> &'static QualityModel {
    static FOUR_SITE: OnceLock<QualityModel> = OnceLock::new();
    if idx == 0 {
        return shared_quality();
    }
    FOUR_SITE.get_or_init(|| four_site_experiment().quality)
}

/// The three models of the train-once property: the two of
/// [`offspring_model`], plus the 4-site scenario under a preference set
/// that pins components both ways — some to one site, some to a site set —
/// so every initial plan and offspring passes through the pin repair while
/// the rollout children are scored as the policy emitted them.
fn search_model(idx: usize) -> &'static QualityModel {
    static PINNED: OnceLock<QualityModel> = OnceLock::new();
    if idx < 2 {
        return offspring_model(idx);
    }
    PINNED.get_or_init(|| {
        let exp = four_site_experiment();
        let preferences = exp
            .preferences
            .clone()
            .pin(ComponentId(3), SiteId(2))
            .pin(ComponentId(11), SiteId::ON_PREM)
            .pin_to_sites(ComponentId(7), vec![SiteId(1), SiteId(3)])
            .pin_to_sites(ComponentId(19), vec![SiteId(0), SiteId(2)]);
        exp.atlas.quality_model(exp.current.clone(), preferences)
    })
}

/// A quality as the bits of its three indicators and its verdict, so two
/// qualities compare equal only when they are bit-identical.
fn bits(q: PlanQuality) -> (u64, u64, u64, bool) {
    (
        q.performance.to_bits(),
        q.availability.to_bits(),
        q.cost.to_bits(),
        q.feasible,
    )
}

proptest! {
    /// A placement survives the sites → plan → sites round trip.
    #[test]
    fn placement_bit_round_trip(sites in prop::collection::vec(0u16..4, 1..64)) {
        let sites: Vec<SiteId> = sites.into_iter().map(SiteId).collect();
        let plan = MigrationPlan::from_sites(sites.clone());
        prop_assert_eq!(plan.sites(), sites.as_slice());
        prop_assert_eq!(plan.to_sites(), sites);
    }

    /// Moved components are exactly the positions whose sites differ.
    #[test]
    fn moved_components_match_bit_difference(
        bits_a in prop::collection::vec(0u16..=1, 1..48),
    ) {
        let bits_b: Vec<u16> = bits_a.iter().map(|b| 1 - b).collect();
        let a = plan_of(&bits_a);
        let b = plan_of(&bits_b);
        prop_assert_eq!(a.moved_components(&b).len(), bits_a.len());
        prop_assert_eq!(a.moved_components(&a).len(), 0);
    }

    /// Pareto-front members never dominate each other, and every dominated
    /// member is excluded.
    #[test]
    fn pareto_front_is_mutually_non_dominated(
        objectives in prop::collection::vec(
            prop::collection::vec(0.0f64..100.0, 3), 1..40)
    ) {
        let front = pareto_front_indices(&objectives);
        prop_assert!(!front.is_empty());
        for &i in &front {
            for &j in &front {
                if i != j {
                    prop_assert!(!dominates(&objectives[i], &objectives[j]));
                }
            }
        }
        // Everything outside the front is dominated by someone.
        for k in 0..objectives.len() {
            if !front.contains(&k) {
                prop_assert!(objectives.iter().any(|other| dominates(other, &objectives[k])));
            }
        }
    }

    /// With capacity for every offer, the external archive holds a mutually
    /// non-dominated front that contains every Pareto-optimal offer point:
    /// for arbitrary insertion sequences, nothing Pareto-optimal is ever
    /// lost and nothing dominated ever survives. Integer-valued objectives
    /// make duplicates and exact domination chains likely.
    #[test]
    fn archive_front_is_non_dominated_and_covers_the_offer_front(
        offers in prop::collection::vec(prop::array::uniform3(0u32..12), 1..60)
    ) {
        let points: Vec<[f64; 3]> =
            offers.iter().map(|o| [o[0] as f64, o[1] as f64, o[2] as f64]).collect();
        let mut archive: ParetoArchive<usize, [f64; 3]> = ParetoArchive::new(points.len());
        for (i, p) in points.iter().enumerate() {
            archive.insert(&i, *p);
        }
        prop_assert!(!archive.is_empty());
        for (gi, si) in archive.entries() {
            for (gj, sj) in archive.entries() {
                if gi != gj {
                    prop_assert!(!dominates(si, sj));
                }
            }
        }
        // Front-wise coverage: every Pareto-optimal offer has an archive
        // entry with equal objectives (equal-objective ties included, since
        // distinct genomes are never collapsed).
        let front = pareto_front_indices(&points);
        for k in front {
            prop_assert!(
                archive.entries().iter().any(|(_, s)| *s == points[k]),
                "front point {:?} missing from the archive", points[k]
            );
        }
    }

    /// The archive front is a front-wise superset of any final population's
    /// front: for an arbitrary subset of the offers (the plans NSGA-II
    /// survival happened to keep), every member of that subset's Pareto
    /// front is equalled or dominated by an archive entry — the external
    /// archive can only improve on the population front, never lose to it.
    #[test]
    fn archive_front_is_a_front_wise_superset_of_any_population_front(
        offers in prop::collection::vec((prop::array::uniform3(0u32..12), prop::bool::ANY), 1..60)
    ) {
        let points: Vec<[f64; 3]> =
            offers.iter().map(|(o, _)| [o[0] as f64, o[1] as f64, o[2] as f64]).collect();
        let mut archive: ParetoArchive<usize, [f64; 3]> = ParetoArchive::new(points.len());
        for (i, p) in points.iter().enumerate() {
            archive.insert(&i, *p);
        }
        let survivors: Vec<[f64; 3]> = offers
            .iter()
            .zip(&points)
            .filter(|((_, kept), _)| *kept)
            .map(|(_, p)| *p)
            .collect();
        for k in pareto_front_indices(&survivors) {
            let member = survivors[k];
            prop_assert!(
                archive
                    .entries()
                    .iter()
                    .any(|(_, s)| *s == member || dominates(s, &member)),
                "population front point {member:?} neither matched nor dominated"
            );
        }
    }

    /// The network delay delta of Eq. 2 is antisymmetric in before/after and
    /// zero when nothing changes.
    #[test]
    fn delay_delta_is_antisymmetric(req in 0.0f64..1.0e6, resp in 0.0f64..1.0e6) {
        let network = SiteNetwork::default();
        // The caller stays on-prem; only the callee moves.
        let callee_moves = |before: SiteId, after: SiteId| {
            network.delay_delta_us(SiteId::ON_PREM, before, SiteId::ON_PREM, after, req, resp)
        };
        let offload = callee_moves(SiteId::ON_PREM, SiteId::CLOUD);
        let restore = callee_moves(SiteId::CLOUD, SiteId::ON_PREM);
        prop_assert!((offload + restore).abs() < 1e-6);
        prop_assert!(offload >= 0.0);
        prop_assert_eq!(callee_moves(SiteId::CLOUD, SiteId::CLOUD), 0.0);
    }

    /// The compiled evaluation kernel is bit-identical to the interpretive
    /// oracle (`atlas_core::oracle`): every indicator and the feasibility
    /// verdict agree to the last bit for arbitrary plans over the shared
    /// 29-component model — feasible ones, budget/CPU violators
    /// (all-on-prem exceeds the burst CPU limit) and pin violators alike —
    /// and so does every API's latency distribution: each per-trace sample
    /// is the injector's replay of that trace, and the samples' weighted
    /// mean is the per-API estimate.
    #[test]
    fn compiled_kernel_is_bit_identical_to_the_interpretive_oracle(
        genes in prop::collection::vec(prop::collection::vec(0u16..=1, 29), 1..6),
    ) {
        let quality = shared_quality();
        let mut plans: Vec<MigrationPlan> =
            genes.iter().map(|b| plan_of(b)).collect();
        plans.push(MigrationPlan::all_onprem(29)); // infeasible: CPU limit
        plans.push(Placement::all_cloud(29)); // violates pins
        // The social network runs on the paper's testbed.
        let testbed = SiteCatalog::default();
        let injector = DelayInjector::new(testbed.network(), quality.component_index());
        for plan in &plans {
            let kernel = quality.evaluate(plan);
            let reference = oracle::evaluate(quality, plan);
            prop_assert_eq!(bits(kernel), bits(reference));
            // The individual kernel entry points agree with the oracle
            // and with the composite evaluation.
            prop_assert_eq!(quality.performance(plan).to_bits(), reference.performance.to_bits());
            prop_assert_eq!(quality.availability(plan).to_bits(), reference.availability.to_bits());
            prop_assert_eq!(quality.cost(plan).to_bits(), reference.cost.to_bits());
            prop_assert_eq!(quality.is_feasible(plan), oracle::why_infeasible(quality, plan).is_none());
            for (name, api) in &quality.profile().apis {
                let samples = quality.estimate_latency_distribution_ms(name, plan);
                let replayed = injector.estimate_latency_distribution_ms(
                    &api.traces,
                    quality.footprint(),
                    quality.current_placement(),
                    plan,
                );
                prop_assert_eq!(samples.len(), api.traces.len());
                for (sample, replay) in samples.iter().zip(&replayed) {
                    prop_assert_eq!(sample.to_bits(), replay.to_bits(), "{}", name);
                }
                let (sum, total) = samples.iter().enumerate().fold((0.0, 0.0), |(s, t), (i, &l)| {
                    (s + api.trace_weight(i) * l, t + api.trace_weight(i))
                });
                let mean = quality.estimate_api_latency_ms(name, plan);
                prop_assert_eq!((sum / total).to_bits(), mean.to_bits(), "{}", name);
            }
        }
        prop_assert!(plans.iter().any(|p| !quality.is_feasible(p)));
    }

    /// The cached, batched, thread-parallel evaluator returns bit-identical
    /// qualities to a direct `QualityModel::evaluate` call for arbitrary
    /// plans — including infeasible ones (the all-on-prem plan violates the
    /// CPU limit, and random plans routinely violate the placement pins).
    #[test]
    fn cached_batched_evaluation_is_bit_identical_to_direct(
        genes in prop::collection::vec(prop::collection::vec(0u16..=1, 29), 1..8),
        threads in 1usize..5,
    ) {
        let quality = shared_quality();
        let mut plans: Vec<MigrationPlan> =
            genes.iter().map(|b| plan_of(b)).collect();
        // Guaranteed-infeasible member: 29 on-prem components exceed the
        // experiment's burst CPU limit.
        plans.push(MigrationPlan::all_onprem(29));
        // Duplicate everything so half the batch is served by the cache.
        let mut batch = plans.clone();
        batch.extend(plans.clone());

        let evaluator = PlanEvaluator::new(quality).with_threads(threads);
        let batched = evaluator.evaluate_batch(&batch);
        prop_assert!(batched.iter().any(|q| !q.feasible));
        for (plan, from_batch) in batch.iter().zip(&batched) {
            prop_assert_eq!(bits(quality.evaluate(plan)), bits(*from_batch));
            // The single-plan cached path agrees too.
            prop_assert_eq!(bits(evaluator.evaluate(plan)), bits(*from_batch));
        }
    }

    /// The compiled kernel stays bit-identical to the interpretive oracle
    /// on generated 3–5-site scenarios: every indicator and the
    /// feasibility verdict agree to the last bit across the feasibility
    /// spectrum — feasible multi-site assignments, CPU violators
    /// (all-on-prem exceeds the burst limit), pin violators (the harness
    /// pins the first store on-prem) and budget violators (a zero-budget
    /// preference set built on the same learned state). Unknown-component
    /// resolution over N sites is pinned separately by the kernel's own
    /// externals tests.
    #[test]
    fn multi_site_kernel_is_bit_identical_to_the_oracle(
        components in 12usize..22,
        site_count in 3usize..6,
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
            site_count,
            seed,
            ..SynthOptions::default()
        };
        let scenario = synthesize(synth).unwrap();
        prop_assert_eq!(scenario.catalog.len(), site_count);
        let cpu_limit = scenario.burst_cpu_limit(5.0, 0.6);
        let exp = Experiment::set_up(ExperimentOptions {
            application: Application::Synthetic(synth),
            onprem_cpu_limit: cpu_limit,
            learn_day_seconds: Some(25),
            max_visited: 30,
            population: 6,
            seed: seed ^ 0x2b7e,
            ..ExperimentOptions::quick()
        });
        prop_assert_eq!(exp.quality.site_count(), site_count);

        // Plans across the spectrum: everything at each single site,
        // deterministic mixed-site assignments, the all-on-prem CPU
        // violator and an everything-offloaded pin violator.
        let mut probe: Vec<MigrationPlan> = (0..site_count as u16)
            .map(|s| MigrationPlan::from_sites(vec![SiteId(s); components]))
            .collect();
        for salt in 0u64..4 {
            let sites: Vec<SiteId> = (0..components)
                .map(|i| {
                    let h = seed ^ salt.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64 * 0x85EB);
                    SiteId(((h >> 7) % site_count as u64) as u16)
                })
                .collect();
            probe.push(MigrationPlan::from_sites(sites));
        }

        // A second preference set on the same learned state: zero budget
        // (every off-prem plan becomes budget-infeasible) plus a site-set
        // pin, exercising the generalized constraint kernel.
        let store0 = exp.topology.component_id("Store000").unwrap();
        let strict = exp.atlas.quality_model(
            exp.current.clone(),
            atlas::core::MigrationPreferences::with_cpu_limit(cpu_limit)
                .with_budget(0.0)
                .pin_to_sites(store0, vec![SiteId(0), SiteId(1)]),
        );

        let mut feasible_seen = false;
        let mut infeasible_seen = false;
        for plan in &probe {
            for quality in [&exp.quality, &strict] {
                let kernel = quality.evaluate(plan);
                prop_assert_eq!(bits(kernel), bits(oracle::evaluate(quality, plan)));
                prop_assert_eq!(quality.is_feasible(plan), oracle::why_infeasible(quality, plan).is_none());
                feasible_seen |= kernel.feasible;
                infeasible_seen |= !kernel.feasible;
            }
        }
        prop_assert!(infeasible_seen, "the probe must include infeasible plans");
        // All-on-prem violates the burst CPU limit under both preference
        // sets; at least one probe plan should be feasible under the
        // harness preferences (everything offloaded to one site satisfies
        // the CPU limit and the pins allow site 0 for the store).
        let _ = feasible_seen;
    }

    /// The one trace walk scores a plan the same at every width: lane
    /// groups of 1, 3 (partial groups), 8, 16 (the configured width) and 64
    /// (beyond it) are bit-identical to `evaluate` (a group of one), and
    /// `evaluate` matches the interpretive oracle, on generated 2–5-site
    /// scenarios across the feasibility spectrum (all-on-prem CPU
    /// violators, single-site offloads, mixed assignments, and a plan
    /// longer than the model, priced over its first components and
    /// infeasible, in groups of mixed lengths).
    #[test]
    fn lane_groups_match_evaluate_and_oracle_at_every_width(
        components in 10usize..18,
        site_count in 2usize..6,
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
            site_count,
            seed,
            ..SynthOptions::default()
        };
        let scenario = synthesize(synth).unwrap();
        let cpu_limit = scenario.burst_cpu_limit(5.0, 0.6);
        let exp = Experiment::set_up(ExperimentOptions {
            application: Application::Synthetic(synth),
            onprem_cpu_limit: cpu_limit,
            learn_day_seconds: Some(20),
            max_visited: 20,
            population: 6,
            seed: seed ^ 0x51ca,
            ..ExperimentOptions::quick()
        });
        let quality = &exp.quality;

        // ~67 plans: the all-on-prem CPU violator, one plan too long for
        // the model, everything at each elastic site, and deterministic
        // mixed multi-site assignments.
        let mut plans: Vec<MigrationPlan> = vec![
            MigrationPlan::all_onprem(components),
            MigrationPlan::from_sites(vec![SiteId(1); components + 1]),
        ];
        for s in 1..site_count as u16 {
            plans.push(MigrationPlan::from_sites(vec![SiteId(s); components]));
        }
        for salt in 0u64..64 {
            let sites: Vec<SiteId> = (0..components)
                .map(|i| {
                    let h = seed ^ salt.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64 * 0x85EB);
                    SiteId(((h >> 5) % site_count as u64) as u16)
                })
                .collect();
            plans.push(MigrationPlan::from_sites(sites));
        }
        let refs: Vec<&MigrationPlan> = plans.iter().collect();
        let alone: Vec<_> = plans.iter().map(|p| quality.evaluate(p)).collect();
        prop_assert!(alone.iter().any(|q| !q.feasible));
        prop_assert!(!alone[1].feasible, "a plan longer than the model is infeasible");
        for lane in [1usize, 3, 8, LANE_WIDTH, 64] {
            let mut grouped = Vec::with_capacity(plans.len());
            for group in refs.chunks(lane) {
                grouped.extend(quality.evaluate_lanes(group));
            }
            prop_assert_eq!(grouped.len(), alone.len());
            for (s, g) in alone.iter().zip(&grouped) {
                prop_assert_eq!(bits(*s), bits(*g));
            }
        }
        // `evaluate` itself is pinned to the interpretive oracle on a slice
        // of the spectrum (the oracle allocates per call).
        for (plan, s) in plans.iter().zip(&alone).take(12) {
            prop_assert_eq!(bits(*s), bits(oracle::evaluate(quality, plan)));
        }
    }

    /// One way to score a child: on the 2-site and the 4-site model, at 1,
    /// 2 and 8 threads, `evaluate_offspring_batch(parents, children)` —
    /// `evaluate_scored_batch(children)` — returns each child paired with
    /// exactly `QualityModel::evaluate` of the child, and the single-child
    /// `evaluate_offspring` returns exactly that quality too, on a cold
    /// cache and a warm one. The batch holds in-batch duplicates and
    /// children already in the cache, is large enough to fan out across
    /// workers, and computes each distinct child once. `probe_delta(parent,
    /// changes)` is `evaluate` of the parent with the changes applied in
    /// order: a repeated component's last write wins and a change to a
    /// component's current site does nothing.
    #[test]
    fn scored_children_and_probes_match_evaluate_bit_for_bit(
        model in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let quality = offspring_model(model);
        let n = quality.component_count();
        let site_count = quality.site_count() as u64;
        let hash = |a: u64, b: u64| {
            (seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
                .rotate_left(23)
                .wrapping_mul(0x1656_67B1_9E37_79F9)
        };

        let parents: Vec<RecommendedPlan> = (0..6u64)
            .map(|p| {
                let sites = (0..n as u64).map(|i| SiteId((hash(p, i) % site_count) as u16));
                quality.evaluate_scored(&MigrationPlan::from_sites(sites.collect()))
            })
            .collect();

        // 96 children: child j moves a run of `diff` genes of parent j % 6
        // to a different site, cycling through diffs from none to all;
        // every eleventh child repeats an earlier one.
        let mut children: Vec<MigrationPlan> = Vec::new();
        let mut parent_of: Vec<usize> = Vec::new();
        for j in 0..96usize {
            if j % 11 == 10 {
                let earlier = hash(99, j as u64) as usize % j;
                children.push(children[earlier].clone());
                parent_of.push(parent_of[earlier]);
                continue;
            }
            let p = j % parents.len();
            let first = hash(7, j as u64) as usize % n;
            let diff = [0, 1, 2, n / 4, n / 2, n - 1, n][j % 7];
            let mut sites = parents[p].sites().to_vec();
            for g in (0..diff).map(|k| (first + k) % n) {
                let shift = 1 + hash(j as u64, g as u64) % (site_count - 1);
                sites[g] = SiteId(((u64::from(sites[g].0) + shift) % site_count) as u16);
            }
            children.push(MigrationPlan::from_sites(sites));
            parent_of.push(p);
        }
        let parent_refs: Vec<&RecommendedPlan> = parent_of.iter().map(|&p| &parents[p]).collect();
        let precached: Vec<&MigrationPlan> = children.iter().step_by(13).collect();
        let want: Vec<_> = children.iter().map(|c| bits(quality.evaluate(c))).collect();
        let distinct: std::collections::HashSet<&MigrationPlan> = children.iter().collect();

        for threads in [1usize, 2, 8] {
            let evaluator = PlanEvaluator::new(quality).with_threads(threads);
            for plan in &precached {
                evaluator.evaluate(plan);
            }
            let scored = evaluator.evaluate_offspring_batch(&parent_refs, &children);
            prop_assert_eq!(scored.len(), children.len());
            for ((child, got), want) in children.iter().zip(&scored).zip(&want) {
                prop_assert_eq!(&got.plan, child);
                prop_assert_eq!(bits(got.quality), *want);
            }
            // Every request is either a compute or a hit, and each
            // distinct child was computed exactly once.
            let stats = evaluator.stats();
            prop_assert_eq!(stats.unique_evaluations, distinct.len());
            prop_assert_eq!(stats.requests(), precached.len() + children.len());

            // The single-child form, on a cold cache and then a warm one.
            let single = PlanEvaluator::new(quality).with_threads(threads);
            for _pass in 0..2 {
                for ((parent, child), want) in parent_refs.iter().zip(&children).zip(&want) {
                    prop_assert_eq!(bits(single.evaluate_offspring(parent, child)), *want);
                }
            }
            let stats = single.stats();
            prop_assert_eq!(stats.unique_evaluations, distinct.len());
            prop_assert_eq!(stats.requests(), 2 * children.len());
        }

        for (p, parent) in parents.iter().enumerate() {
            let p = p as u64;
            let moved = hash(31, p) as usize % n;
            let kept = (moved + 1 + hash(37, p) as usize % (n - 1)) % n;
            let site = |k: u64| SiteId((hash(41 + k, p) % site_count) as u16);
            let changes = [
                (ComponentId(moved), site(0)),
                (ComponentId(kept), parent.sites()[kept]),
                (ComponentId(moved), site(1)),
            ];
            let mut applied = parent.sites().to_vec();
            applied[moved] = site(1);
            let want = quality.evaluate(&MigrationPlan::from_sites(applied));
            prop_assert_eq!(bits(quality.probe_delta(parent, &changes)), bits(want));
            prop_assert_eq!(bits(quality.probe_delta(parent, &[])), bits(parent.quality));
        }
    }

    /// KL divergence is non-negative and zero for identical sample sets.
    #[test]
    fn kl_divergence_is_non_negative(
        samples in prop::collection::vec(1.0f64..500.0, 10..200),
        shift in 0.0f64..300.0,
    ) {
        let shifted: Vec<f64> = samples.iter().map(|s| s + shift).collect();
        let d_self = kl_divergence(&samples, &samples, 15);
        let d_shifted = kl_divergence(&samples, &shifted, 15);
        prop_assert!(d_self.abs() < 1e-9);
        prop_assert!(d_shifted >= -1e-12);
    }

    /// The scenario generator is a pure function of its options: generating
    /// twice gives the bit-identical scenario, every component participates
    /// in some API, and the paired workload names exactly the generated
    /// endpoints.
    #[test]
    fn generated_scenarios_are_deterministic_and_consistent(
        components in 10usize..60,
        shape_idx in 0usize..4,
        stateful_pct in 0.05f64..0.5,
        depth in 2usize..7,
        seed in 0u64..1_000_000,
    ) {
        let shape = [
            CallGraphShape::Layered,
            CallGraphShape::FanOut,
            CallGraphShape::Chain,
            CallGraphShape::Mesh,
        ][shape_idx];
        let options = SynthOptions {
            components,
            shape,
            stateful_fraction: stateful_pct,
            apis: (components / 8).max(1),
            call_depth: depth,
            seed,
            ..SynthOptions::default()
        };
        let scenario = synthesize(options).unwrap();
        prop_assert_eq!(&scenario, &synthesize(options).unwrap());
        prop_assert_eq!(scenario.topology.component_count(), components);

        let mut reachable = std::collections::HashSet::new();
        for api in scenario.topology.apis() {
            for c in api.root.reachable_components() {
                reachable.insert(c.0);
            }
        }
        prop_assert_eq!(reachable.len(), components);

        prop_assert_eq!(scenario.workload.api_mix.len(), scenario.topology.api_count());
        for (endpoint, weight) in &scenario.workload.api_mix {
            prop_assert!(scenario.topology.api(endpoint).is_some());
            prop_assert!(*weight > 0.0);
        }
    }

    /// A search's answer does not depend on the evaluator it runs on: on
    /// the 2-site social network, the generated 4-site model and its pinned
    /// variant, under uniform crossover and under the learned agent,
    /// `recommend_with` returns the plans, quality bits, `visited` and
    /// `reward_progression` of `recommend()` — at 1, 2 and 8 evaluator
    /// threads, on a cold evaluator, on the same evaluator warm and on one
    /// a search at another seed warmed. A warm run asks for the same plans
    /// as the cold one and computes none of them.
    #[test]
    fn recommend_with_matches_recommend_on_any_evaluator(
        model in 0usize..3,
        strategy in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let quality = search_model(model);
        let mut config = RecommenderConfig {
            population: 8,
            max_visited: 60,
            seed,
            threads: 1,
            ..RecommenderConfig::fast()
        };
        config.rl.seed = seed ^ 0x51ED;
        if strategy != 0 {
            config.strategy = CrossoverStrategy::ReinforcementLearning;
        }
        let other_seed = Recommender::new(quality, RecommenderConfig { seed: seed ^ 1, ..config.clone() });
        let recommender = Recommender::new(quality, config);
        let inline = recommender.recommend();
        let expected = front_text(&inline);
        prop_assert!(!inline.plans.is_empty());
        prop_assert_eq!(inline.reward_progression.is_empty(), strategy == 0);

        for threads in [1usize, 2, 8] {
            let evaluator = PlanEvaluator::new(quality).with_threads(threads);
            let cold = recommender.recommend_with(&evaluator);
            prop_assert_eq!(&front_text(&cold), &expected);
            prop_assert_eq!(cold.eval.requests(), inline.eval.requests());
            prop_assert_eq!(cold.eval.unique_evaluations, inline.visited);

            let warm = recommender.recommend_with(&evaluator);
            prop_assert_eq!(&front_text(&warm), &expected);
            prop_assert_eq!(warm.eval.unique_evaluations, 0);
            prop_assert_eq!(warm.eval.requests(), cold.eval.requests());

            // A cache another search filled, holding some of this run's
            // plans and many it never asks for.
            let elsewhere = PlanEvaluator::new(quality).with_threads(threads);
            other_seed.recommend_with(&elsewhere);
            let reused = recommender.recommend_with(&elsewhere);
            prop_assert_eq!(&front_text(&reused), &expected);
            prop_assert_eq!(reused.eval.requests(), cold.eval.requests());
        }
    }

    /// The full search pipeline upholds its invariants on generated
    /// scenarios: every plan is feasible-or-rejected consistently between
    /// the cached evaluator and the direct quality model, the same seed
    /// gives a bit-identical recommendation, and the returned front is
    /// mutually non-dominated.
    #[test]
    fn generated_scenarios_uphold_search_invariants(
        components in 12usize..30,
        shape_idx in 0usize..4,
        seed in 0u64..100_000,
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
        // Size the on-prem limit off the generated demand so random plans
        // mix feasible and infeasible.
        let scenario = synthesize(synth).unwrap();
        let cpu_limit = scenario.burst_cpu_limit(5.0, 0.6);
        let exp = Experiment::set_up(ExperimentOptions {
            application: Application::Synthetic(synth),
            onprem_cpu_limit: cpu_limit,
            learn_day_seconds: Some(30),
            max_visited: 60,
            population: 8,
            seed: seed ^ 0x5bd1,
            ..ExperimentOptions::quick()
        });

        // Feasible-or-rejected consistently: cached/batched evaluation and
        // the direct model agree bit-for-bit, and `is_feasible` matches the
        // evaluated flag, for plans across the whole feasibility spectrum.
        let mut probe: Vec<MigrationPlan> = vec![
            MigrationPlan::all_onprem(components),
            Placement::all_cloud(components),
        ];
        for salt in 0u64..6 {
            let genes: Vec<u16> = (0..components)
                .map(|i| ((seed ^ salt.wrapping_mul(0x9E37)).wrapping_add(i as u64 * 0x85EB) >> 7) as u16 & 1)
                .collect();
            probe.push(plan_of(&genes));
        }
        let evaluator = PlanEvaluator::new(&exp.quality).with_threads(2);
        let batched = evaluator.evaluate_batch(&probe);
        for (plan, from_batch) in probe.iter().zip(&batched) {
            let direct = exp.quality.evaluate(plan);
            prop_assert_eq!(bits(direct), bits(*from_batch));
            prop_assert_eq!(exp.quality.is_feasible(plan), direct.feasible);
            prop_assert_eq!(oracle::why_infeasible(&exp.quality, plan).is_none(), direct.feasible);
            // The compiled kernel matches the interpretive oracle bit for
            // bit on generated scenarios too (synthetic topologies exercise
            // fan-out/chain/mesh wave structures the seed apps do not).
            prop_assert_eq!(bits(direct), bits(oracle::evaluate(&exp.quality, plan)));
        }

        // Bit-identical recommendation per seed, and a non-dominated front.
        let config = atlas::core::RecommenderConfig {
            population: 8,
            max_visited: 60,
            seed: seed ^ 0xACE1,
            ..atlas::core::RecommenderConfig::fast().with_uniform_crossover()
        };
        let a = atlas::core::Recommender::new(&exp.quality, config.clone()).recommend();
        let b = atlas::core::Recommender::new(&exp.quality, config).recommend();
        prop_assert!(!a.plans.is_empty());
        prop_assert_eq!(front_text(&a), front_text(&b));
        for x in &a.plans {
            for y in &a.plans {
                if x.plan != y.plan {
                    prop_assert!(!dominates(&x.quality.objectives(), &y.quality.objectives()));
                }
            }
        }
    }
}
