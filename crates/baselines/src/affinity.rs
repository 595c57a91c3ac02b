//! Affinity-based single-plan advisors: REMaP \[68\] and IntMA \[57\].
//!
//! Both manage placement by minimising the interaction between components
//! that end up in different locations. IntMA considers the overall traffic
//! size between component pairs; REMaP additionally considers the number of
//! message exchanges. Neither looks at how components serve end-to-end API
//! requests — the gap Atlas exploits.

use atlas_core::MigrationPlan;
use atlas_sim::SiteId;
use atlas_telemetry::{Direction, TelemetryStore};

use crate::context::{BaselineContext, BaselineScorer, PlacementScore};

/// Pairwise affinity between components: total bytes and message counts
/// observed over the learning period (symmetric).
///
/// The constructor sums the traffic into dense symmetric matrices and keeps
/// only their *sparse* upper triangle — every `(i, j)` with `i < j` whose
/// bytes or message count is nonzero, in lexicographic order. The
/// cross-site sums iterate that list, so a probe costs O(observed edges)
/// instead of O(n²); skipping the all-zero pairs adds nothing to the
/// accumulator, so the sums stay bit-identical to the historical dense
/// loops.
#[derive(Debug, Clone, Default)]
pub struct AffinityMatrix {
    pairs: Vec<AffinityPair>,
}

/// One compiled nonzero pair of the upper triangle (`i < j`).
#[derive(Debug, Clone, Copy)]
struct AffinityPair {
    i: u32,
    j: u32,
    bytes: f64,
    messages: f64,
}

impl AffinityMatrix {
    /// Build the affinity matrix from the pairwise network metrics.
    pub fn from_store(store: &TelemetryStore, component_index: &[String]) -> Self {
        let n = component_index.len();
        let mut bytes = vec![vec![0.0; n]; n];
        let mut messages = vec![vec![0.0; n]; n];
        let traffic = store.traffic();
        for edge in traffic.edges() {
            let from = component_index.iter().position(|c| *c == edge.from);
            let to = component_index.iter().position(|c| *c == edge.to);
            let (Some(from), Some(to)) = (from, to) else {
                continue;
            };
            let req = traffic.total_bytes(&edge, Direction::Request);
            let resp = traffic.total_bytes(&edge, Direction::Response);
            bytes[from][to] += req + resp;
            bytes[to][from] += req + resp;
            let req_msgs = traffic
                .samples(&edge, Direction::Request)
                .map(|s| s.len() as f64)
                .unwrap_or(0.0);
            messages[from][to] += req_msgs;
            messages[to][from] += req_msgs;
        }
        let mut pairs = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if bytes[i][j] != 0.0 || messages[i][j] != 0.0 {
                    pairs.push(AffinityPair {
                        i: i as u32,
                        j: j as u32,
                        bytes: bytes[i][j],
                        messages: messages[i][j],
                    });
                }
            }
        }
        Self { pairs }
    }

    /// Total bytes on pairs whose endpoints sit at *different* sites (on
    /// the paper's testbed, the bytes crossing the on-prem/cloud boundary).
    pub fn cross_site_bytes(&self, sites: &[SiteId]) -> f64 {
        let mut total = 0.0;
        for p in &self.pairs {
            let (i, j) = (p.i as usize, p.j as usize);
            if j < sites.len() && sites[i] != sites[j] {
                total += p.bytes;
            }
        }
        total
    }

    /// Total messages on cross-site pairs (see [`Self::cross_site_bytes`]).
    pub fn cross_site_messages(&self, sites: &[SiteId]) -> f64 {
        let mut total = 0.0;
        for p in &self.pairs {
            let (i, j) = (p.i as usize, p.j as usize);
            if j < sites.len() && sites[i] != sites[j] {
                total += p.messages;
            }
        }
        total
    }
}

/// The affinity score the two advisors minimise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AffinityObjective {
    /// Traffic size only (IntMA).
    Bytes,
    /// Traffic size plus message exchanges (REMaP).
    BytesAndMessages,
}

fn affinity_of(score: &PlacementScore, objective: AffinityObjective) -> f64 {
    match objective {
        AffinityObjective::Bytes => score.cross_dc_bytes,
        AffinityObjective::BytesAndMessages => {
            // Normalise messages to a byte-comparable scale using the mean
            // message size so that neither term vanishes.
            score.cross_dc_bytes + score.cross_dc_messages * 1_000.0
        }
    }
}

/// Greedy affinity-minimising placement over the context's site alphabet:
/// offload components one `(component, site)` move at a time, always picking
/// the move with the smallest cross-site affinity, until the on-prem
/// constraints are satisfied; then keep moving components (to any site,
/// including back on-prem) while it strictly reduces the affinity.
fn affinity_search(scorer: &BaselineScorer<'_>, objective: AffinityObjective) -> MigrationPlan {
    // Both phases repeatedly re-probe overlapping placements (each greedy
    // step re-scores every remaining candidate; each improvement round
    // re-tests rejected moves), so route everything through the shared
    // cached scorer. Every probe is the current assignment plus one move,
    // so it goes through the scorer's allocation-free delta path.
    let ctx = scorer.context();
    let n = ctx.component_count();
    let site_count = ctx.site_count as u16;
    let mut sites = vec![SiteId::ON_PREM; n];
    ctx.preferences.apply_pins(&mut sites);

    let movable: Vec<usize> = (0..n)
        .filter(|&i| {
            !ctx.preferences
                .pinned
                .contains_key(&atlas_sim::ComponentId(i))
        })
        .collect();

    // Phase 1: reach feasibility by offloading on-prem components.
    let mut guard = 0;
    while !scorer.score(&sites).feasible && guard < n {
        guard += 1;
        let candidate = movable
            .iter()
            .copied()
            .filter(|&i| sites[i].is_on_prem())
            .flat_map(|i| (1..site_count).map(move |s| (i, SiteId(s))))
            .min_by(|&(ia, sa), &(ib, sb)| {
                affinity_of(&scorer.score_move(&sites, ia, sa), objective)
                    .partial_cmp(&affinity_of(&scorer.score_move(&sites, ib, sb), objective))
                    .expect("finite affinity")
            });
        match candidate {
            Some((c, s)) => sites[c] = s,
            None => break,
        }
    }

    // Phase 2: local improvement — move any component to any other site if
    // it strictly reduces the affinity while staying feasible.
    let mut improved = true;
    let mut rounds = 0;
    'improve: while improved && rounds < 2 * n {
        improved = false;
        rounds += 1;
        let current = affinity_of(&scorer.score(&sites), objective);
        for &i in &movable {
            for s in 0..site_count {
                let target = SiteId(s);
                if sites[i] == target {
                    continue;
                }
                let score = scorer.score_move(&sites, i, target);
                if score.feasible && affinity_of(&score, objective) + 1e-9 < current {
                    sites[i] = target;
                    improved = true;
                    continue 'improve;
                }
            }
        }
    }

    BaselineContext::to_plan(&sites)
}

/// REMaP-style advisor: minimise cross-datacenter traffic size and message
/// exchanges.
#[derive(Debug, Clone, Copy, Default)]
pub struct RemapAdvisor;

impl RemapAdvisor {
    /// Recommend a single placement. Scoring goes through a fresh
    /// [`BaselineScorer`]; use [`Self::recommend_with`] to share one (or to
    /// disable its delta path).
    pub fn recommend(&self, ctx: &BaselineContext) -> MigrationPlan {
        self.recommend_with(&ctx.scorer())
    }

    /// Recommend on a caller-supplied scorer, sharing its memo cache.
    pub fn recommend_with(&self, scorer: &BaselineScorer<'_>) -> MigrationPlan {
        affinity_search(scorer, AffinityObjective::BytesAndMessages)
    }
}

/// IntMA-style advisor: minimise cross-datacenter traffic size.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntMaAdvisor;

impl IntMaAdvisor {
    /// Recommend a single placement. Scoring goes through a fresh
    /// [`BaselineScorer`]; use [`Self::recommend_with`] to share one (or to
    /// disable its delta path).
    pub fn recommend(&self, ctx: &BaselineContext) -> MigrationPlan {
        self.recommend_with(&ctx.scorer())
    }

    /// Recommend on a caller-supplied scorer, sharing its memo cache.
    pub fn recommend_with(&self, scorer: &BaselineScorer<'_>) -> MigrationPlan {
        affinity_search(scorer, AffinityObjective::Bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_context;

    /// Traffic over `names`: A→B both legs, B→A requests, B→C both legs,
    /// and an edge to an unindexed component.
    fn traffic(names: &[String]) -> AffinityMatrix {
        let store = TelemetryStore::new();
        for t in 0..4u64 {
            store.record_traffic("A", "B", Direction::Request, t, 1_000.0);
            store.record_traffic("A", "B", Direction::Response, t, 500.0);
            store.record_traffic("B", "A", Direction::Request, t, 8.0);
            store.record_traffic("B", "C", Direction::Request, t, 100.0);
            store.record_traffic("B", "C", Direction::Response, t, 50.0);
            store.record_traffic("C", "Ext", Direction::Request, t, 9.0);
        }
        AffinityMatrix::from_store(&store, names)
    }

    fn names() -> Vec<String> {
        ["A", "B", "C"].map(String::from).to_vec()
    }

    #[test]
    fn affinity_matrix_is_symmetric_and_counts_both_directions() {
        let m = traffic(&names());
        // A–B sums both legs of both directions, messages count requests;
        // A–C carries nothing and the unindexed edge is dropped.
        let pairs: Vec<_> = m
            .pairs
            .iter()
            .map(|p| (p.i, p.j, p.bytes, p.messages))
            .collect();
        assert_eq!(pairs, [(0, 1, 6_032.0, 8.0), (1, 2, 600.0, 4.0)]);
        // Listing the components in another order describes the same pairs.
        let reversed = traffic(&["C", "B", "A"].map(String::from));
        let pairs: Vec<_> = reversed.pairs.iter().map(|p| (p.i, p.j, p.bytes)).collect();
        assert_eq!(pairs, [(0, 1, 600.0), (1, 2, 6_032.0)]);
        assert!(AffinityMatrix::default().pairs.is_empty());
    }

    /// The sparse pair list reproduces a per-edge recount of the store's
    /// traffic (the skipped pairs are exactly the all-zero ones).
    #[test]
    fn sparse_pair_sums_match_an_edge_recount() {
        let m = traffic(&names());
        let edges = [(0, 1, 6_000.0, 4.0), (1, 0, 32.0, 4.0), (1, 2, 600.0, 4.0)];
        for sites in [
            vec![SiteId(0), SiteId(1), SiteId(0)],
            vec![SiteId(1), SiteId(0), SiteId(2)],
            vec![SiteId(2), SiteId(2), SiteId(2)],
            vec![SiteId(0), SiteId(1)], // shorter than the matrix
        ] {
            let crossing = edges
                .iter()
                .filter(|&&(i, j, ..)| i < sites.len() && j < sites.len() && sites[i] != sites[j]);
            let bytes: f64 = crossing.clone().map(|e| e.2).sum();
            let messages: f64 = crossing.map(|e| e.3).sum();
            assert_eq!(m.cross_site_bytes(&sites), bytes, "sites {sites:?}");
            assert_eq!(m.cross_site_messages(&sites), messages, "sites {sites:?}");
        }
    }

    #[test]
    fn advisors_produce_feasible_plans() {
        let ctx = test_context(7.0);
        for plan in [RemapAdvisor.recommend(&ctx), IntMaAdvisor.recommend(&ctx)] {
            assert!(
                ctx.scorer().score(plan.sites()).feasible,
                "plan {:?}",
                plan.sites()
            );
            assert!(
                !plan.cloud_components().is_empty(),
                "the CPU limit forces offloading"
            );
        }
    }

    #[test]
    fn affinity_advisors_avoid_cutting_the_chatty_edge() {
        // A-B exchange 100× more data than B-C; with a limit that forces one
        // offload, both advisors should prefer cutting B-C (offload C) or
        // moving A+B together rather than splitting A and B.
        let ctx = test_context(8.5); // needs ≥ 3 cores offloaded
        let sites = IntMaAdvisor.recommend(&ctx).to_sites();
        assert!(
            sites[0] == sites[1],
            "IntMA should keep the chatty A-B pair collocated: {sites:?}"
        );
        let sites = RemapAdvisor.recommend(&ctx).to_sites();
        assert!(sites[0] == sites[1]);
    }

    #[test]
    fn unconstrained_context_keeps_everything_onprem() {
        let ctx = test_context(1_000.0);
        let plan = IntMaAdvisor.recommend(&ctx);
        assert!(plan.cloud_components().is_empty());
    }

    #[test]
    fn pinned_components_are_respected() {
        let mut ctx = test_context(7.0);
        ctx.preferences = ctx
            .preferences
            .clone()
            .pin(atlas_sim::ComponentId(1), SiteId::ON_PREM);
        let plan = RemapAdvisor.recommend(&ctx);
        assert_eq!(plan.site(atlas_sim::ComponentId(1)), SiteId::ON_PREM);
    }
}
