//! NSGA-II building blocks: fast non-dominated sorting, crowding distance,
//! survival selection and binary tournaments (Deb et al., 2002).
//!
//! All functions minimise. Feasibility is handled with constrained
//! domination: a feasible solution always beats an infeasible one; two
//! infeasible solutions are compared by their objectives like feasible ones
//! (the caller can fold a violation measure into the objectives if desired).
//!
//! Every entry point is generic over `AsRef<[f64]>`, so populations can be
//! scored into fixed-size arrays (`[f64; 3]` for Atlas's three indicators)
//! and sorted without a per-member `Vec` allocation in the O(N²) dominance
//! loop; plain `Vec<Vec<f64>>` populations keep working unchanged.
//!
//! # Example
//!
//! Sort four candidate plans scored on two minimised objectives into Pareto
//! fronts, then keep the three best under NSGA-II survival selection:
//!
//! ```
//! use atlas_ga::nsga2::{fast_non_dominated_sort, select_survivors};
//!
//! let objectives = vec![
//!     vec![1.0, 4.0], // Pareto-optimal
//!     vec![2.0, 2.0], // Pareto-optimal
//!     vec![4.0, 1.0], // Pareto-optimal
//!     vec![4.0, 4.0], // dominated by [2.0, 2.0]
//! ];
//! let feasible = vec![true; 4];
//!
//! let fronts = fast_non_dominated_sort(&objectives, &feasible);
//! assert_eq!(fronts, vec![vec![0, 1, 2], vec![3]]);
//!
//! let mut survivors = select_survivors(&objectives, &feasible, 3);
//! survivors.sort_unstable();
//! assert_eq!(survivors, vec![0, 1, 2]);
//! ```

use rand::Rng;

use crate::pareto::dominates;

/// Whether `a` constrained-dominates `b` given their feasibility flags.
fn constrained_dominates(a: &[f64], a_feasible: bool, b: &[f64], b_feasible: bool) -> bool {
    match (a_feasible, b_feasible) {
        (true, false) => true,
        (false, true) => false,
        _ => dominates(a, b),
    }
}

/// Fast non-dominated sort: partition the population into fronts, best
/// first. `feasible[i]` marks whether member `i` satisfies all constraints.
///
/// Returns the fronts as vectors of indices; every index appears exactly
/// once.
pub fn fast_non_dominated_sort<S: AsRef<[f64]>>(
    objectives: &[S],
    feasible: &[bool],
) -> Vec<Vec<usize>> {
    let n = objectives.len();
    assert_eq!(
        n,
        feasible.len(),
        "feasibility flags must cover the population"
    );
    if n == 0 {
        return Vec::new();
    }
    let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); n]; // i dominates these
    let mut domination_count = vec![0usize; n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            if constrained_dominates(
                objectives[i].as_ref(),
                feasible[i],
                objectives[j].as_ref(),
                feasible[j],
            ) {
                dominated_by[i].push(j);
            } else if constrained_dominates(
                objectives[j].as_ref(),
                feasible[j],
                objectives[i].as_ref(),
                feasible[i],
            ) {
                domination_count[i] += 1;
            }
        }
    }
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| domination_count[i] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            for &j in &dominated_by[i] {
                domination_count[j] -= 1;
                if domination_count[j] == 0 {
                    next.push(j);
                }
            }
        }
        fronts.push(std::mem::take(&mut current));
        current = next;
    }
    fronts
}

/// Crowding distance of each member of one front (larger = more isolated =
/// preferred for diversity). Boundary members get `f64::INFINITY`.
pub fn crowding_distance<S: AsRef<[f64]>>(objectives: &[S], front: &[usize]) -> Vec<f64> {
    let m = front.len();
    if m == 0 {
        return Vec::new();
    }
    if m <= 2 {
        return vec![f64::INFINITY; m];
    }
    let objective_count = objectives[front[0]].as_ref().len();
    let mut distance = vec![0.0f64; m];
    for k in 0..objective_count {
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by(|&a, &b| {
            objectives[front[a]].as_ref()[k]
                .partial_cmp(&objectives[front[b]].as_ref()[k])
                .expect("objectives must be finite")
        });
        let min = objectives[front[order[0]]].as_ref()[k];
        let max = objectives[front[order[m - 1]]].as_ref()[k];
        distance[order[0]] = f64::INFINITY;
        distance[order[m - 1]] = f64::INFINITY;
        let range = max - min;
        if range <= 0.0 {
            continue;
        }
        for w in 1..m - 1 {
            let prev = objectives[front[order[w - 1]]].as_ref()[k];
            let next = objectives[front[order[w + 1]]].as_ref()[k];
            if distance[order[w]].is_finite() {
                distance[order[w]] += (next - prev) / range;
            }
        }
    }
    distance
}

/// NSGA-II survival: keep the `capacity` best members (by front rank, ties
/// broken by crowding distance). Returns the selected indices.
pub fn select_survivors<S: AsRef<[f64]>>(
    objectives: &[S],
    feasible: &[bool],
    capacity: usize,
) -> Vec<usize> {
    survive(objectives, feasible, capacity).selected
}

/// Outcome of one fused survival round: the surviving indices plus the rank
/// and crowding distance of each survivor *within the surviving population*,
/// ready to drive the next round of binary tournaments.
#[derive(Debug, Clone)]
pub struct Survival {
    /// Indices of the survivors into the input population, best fronts
    /// first (a truncated front is ordered by descending crowding).
    pub selected: Vec<usize>,
    /// `rank[k]` is the front index of `selected[k]` among the survivors.
    pub rank: Vec<usize>,
    /// `crowding[k]` is the crowding distance of `selected[k]` within its
    /// surviving front.
    pub crowding: Vec<f64>,
}

/// Batch-friendly survival hook: one non-dominated sort yields both the
/// survivors and their rank/crowding, where callers previously paid for
/// [`select_survivors`] followed by `rank_and_crowding` on the survivor
/// subset (two sorts per generation). The results are identical: front
/// membership is preserved under survival truncation because every member of
/// front `r+1` is dominated by some member of the fully-kept front `r`, and
/// crowding of a truncated front is recomputed over the kept members only.
pub fn survive<S: AsRef<[f64]>>(objectives: &[S], feasible: &[bool], capacity: usize) -> Survival {
    let fronts = fast_non_dominated_sort(objectives, feasible);
    let mut selected = Vec::with_capacity(capacity.min(objectives.len()));
    let mut rank = Vec::with_capacity(selected.capacity());
    let mut crowding = Vec::with_capacity(selected.capacity());
    for (r, front) in fronts.iter().enumerate() {
        if selected.len() >= capacity {
            break;
        }
        if selected.len() + front.len() <= capacity {
            let distances = crowding_distance(objectives, front);
            for (k, &i) in front.iter().enumerate() {
                selected.push(i);
                rank.push(r);
                crowding.push(distances[k]);
            }
        } else {
            // Truncation choice uses crowding over the *full* front (as
            // select_survivors always has); the reported crowding is then
            // recomputed over the kept members only.
            let distances = crowding_distance(objectives, front);
            let mut order: Vec<usize> = (0..front.len()).collect();
            order.sort_by(|&a, &b| {
                distances[b]
                    .partial_cmp(&distances[a])
                    .expect("crowding distances are comparable")
            });
            let kept: Vec<usize> = order
                .iter()
                .take(capacity - selected.len())
                .map(|&o| front[o])
                .collect();
            let kept_distances = crowding_distance(objectives, &kept);
            for (k, &i) in kept.iter().enumerate() {
                selected.push(i);
                rank.push(r);
                crowding.push(kept_distances[k]);
            }
        }
    }
    Survival {
        selected,
        rank,
        crowding,
    }
}

/// Retain `items[selected[0]], items[selected[1]], …` in that order,
/// consuming the input without cloning a single member: the survival
/// permutation applied by move. `selected` must not repeat an index (as
/// [`survive`]'s output never does).
///
/// This replaces the per-generation `selected.iter().map(|&i|
/// population[i].clone())` pattern, which deep-cloned every survivor every
/// generation.
pub fn take_selected<T>(items: Vec<T>, selected: &[usize]) -> Vec<T> {
    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    selected
        .iter()
        .map(|&i| {
            slots[i]
                .take()
                .expect("selected indices must be unique and in range")
        })
        .collect()
}

/// Binary tournament: draw two random members and keep the one with the
/// better (lower) rank, breaking ties by larger crowding distance.
pub fn binary_tournament<R: Rng + ?Sized>(rng: &mut R, rank: &[usize], crowding: &[f64]) -> usize {
    let n = rank.len();
    assert!(n > 0, "tournament needs a non-empty population");
    let a = rng.gen_range(0..n);
    let b = rng.gen_range(0..n);
    if rank[a] < rank[b] {
        a
    } else if rank[b] < rank[a] {
        b
    } else if crowding[a] >= crowding[b] {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Rank (front index) and crowding distance of every member: the
    /// two-pass reference [`survive`] is held to.
    fn rank_and_crowding<S: AsRef<[f64]>>(
        objectives: &[S],
        feasible: &[bool],
    ) -> (Vec<usize>, Vec<f64>) {
        let fronts = fast_non_dominated_sort(objectives, feasible);
        let n = objectives.len();
        let mut rank = vec![0usize; n];
        let mut crowd = vec![0.0f64; n];
        for (r, front) in fronts.iter().enumerate() {
            let distances = crowding_distance(objectives, front);
            for (k, &i) in front.iter().enumerate() {
                rank[i] = r;
                crowd[i] = distances[k];
            }
        }
        (rank, crowd)
    }

    fn all_feasible(n: usize) -> Vec<bool> {
        vec![true; n]
    }

    #[test]
    fn sorting_partitions_into_correct_fronts() {
        let objs = vec![
            vec![1.0, 1.0], // front 0
            vec![2.0, 2.0], // front 1 (dominated by 0)
            vec![1.0, 3.0], // front 0? dominated by none: vs [1,1]: 1==1, 3>1 → not dominated? [1,1] dominates [1,3] (equal first, better second) → front 1
            vec![3.0, 3.0], // front 2
            vec![0.5, 4.0], // front 0
        ];
        let fronts = fast_non_dominated_sort(&objs, &all_feasible(5));
        assert_eq!(fronts[0], vec![0, 4]);
        assert!(fronts[1].contains(&1));
        assert!(fronts[1].contains(&2));
        assert_eq!(fronts.last().unwrap(), &vec![3]);
        let total: usize = fronts.iter().map(Vec::len).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn infeasible_members_fall_behind_feasible_ones() {
        let objs = vec![
            vec![10.0, 10.0], // feasible but poor
            vec![1.0, 1.0],   // infeasible but excellent
        ];
        let fronts = fast_non_dominated_sort(&objs, &[true, false]);
        assert_eq!(fronts[0], vec![0]);
        assert_eq!(fronts[1], vec![1]);
    }

    #[test]
    fn crowding_prefers_boundaries_and_isolated_points() {
        let objs = vec![
            vec![0.0, 10.0],
            vec![1.0, 9.0],
            vec![2.0, 8.0],
            vec![9.0, 1.0], // isolated
            vec![10.0, 0.0],
        ];
        let front: Vec<usize> = (0..5).collect();
        let d = crowding_distance(&objs, &front);
        assert!(d[0].is_infinite());
        assert!(d[4].is_infinite());
        assert!(d[3] > d[1], "isolated members should have larger crowding");
        assert!(d[1] > 0.0 && d[2] > 0.0);
    }

    #[test]
    fn crowding_handles_tiny_fronts_and_flat_objectives() {
        let objs = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        assert_eq!(crowding_distance(&objs, &[0, 1]), vec![f64::INFINITY; 2]);
        assert!(crowding_distance(&objs, &[]).is_empty());
        // A flat objective must not produce NaNs.
        let flat = vec![vec![1.0, 5.0], vec![1.0, 4.0], vec![1.0, 3.0]];
        let d = crowding_distance(&flat, &[0, 1, 2]);
        assert!(d.iter().all(|x| !x.is_nan()));
    }

    #[test]
    fn survivors_fill_capacity_from_best_fronts() {
        let objs = vec![
            vec![1.0, 1.0], // front 0
            vec![5.0, 5.0], // front 2
            vec![2.0, 2.0], // front 1
            vec![0.5, 3.0], // front 0
            vec![3.0, 0.5], // front 0
        ];
        let survivors = select_survivors(&objs, &all_feasible(5), 3);
        assert_eq!(survivors.len(), 3);
        assert!(survivors.contains(&0));
        assert!(!survivors.contains(&1), "worst member must not survive");

        // Capacity larger than population keeps everyone.
        let all = select_survivors(&objs, &all_feasible(5), 10);
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn survivors_within_a_front_prefer_spread() {
        // Front 0 has four members; capacity 3 → the most crowded interior
        // point should be dropped.
        let objs = vec![
            vec![0.0, 10.0],
            vec![4.9, 5.1], // crowded next to [5,5]
            vec![5.0, 5.0],
            vec![10.0, 0.0],
        ];
        let survivors = select_survivors(&objs, &all_feasible(4), 3);
        assert_eq!(survivors.len(), 3);
        assert!(survivors.contains(&0));
        assert!(survivors.contains(&3));
        // One of the two crowded twins is dropped.
        assert!(survivors.contains(&1) ^ survivors.contains(&2));
    }

    #[test]
    fn tournament_prefers_better_rank_then_spread() {
        let mut rng = StdRng::seed_from_u64(1);
        let rank = vec![0, 1, 0, 2];
        let crowding = vec![1.0, f64::INFINITY, 2.0, 0.5];
        let mut wins = [0usize; 4];
        for _ in 0..2_000 {
            wins[binary_tournament(&mut rng, &rank, &crowding)] += 1;
        }
        // The two rank-0 members should collect the overwhelming majority.
        assert!(wins[0] + wins[2] > 1_500);
        // The rank-2 member can only win against itself.
        assert!(wins[3] < 300);
    }

    #[test]
    fn rank_and_crowding_cover_every_member() {
        let objs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, (10 - i) as f64]).collect();
        let (rank, crowd) = rank_and_crowding(&objs, &all_feasible(10));
        assert_eq!(rank.len(), 10);
        assert_eq!(crowd.len(), 10);
        assert!(
            rank.iter().all(|&r| r == 0),
            "a pure trade-off line is one front"
        );
    }

    #[test]
    fn empty_population_is_handled() {
        assert!(fast_non_dominated_sort::<Vec<f64>>(&[], &[]).is_empty());
        assert!(select_survivors::<Vec<f64>>(&[], &[], 5).is_empty());
        let survival = survive::<Vec<f64>>(&[], &[], 5);
        assert!(survival.selected.is_empty());
        assert!(survival.rank.is_empty());
        assert!(survival.crowding.is_empty());
    }

    /// The fused hook must reproduce the two-pass path exactly:
    /// `select_survivors` followed by `rank_and_crowding` on the survivors.
    #[test]
    fn survive_matches_the_two_pass_selection() {
        let mut rng = StdRng::seed_from_u64(9);
        for capacity in [1usize, 3, 7, 12, 20] {
            let n = 16;
            let objectives: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..3).map(|_| rng.gen_range(0.0..10.0)).collect())
                .collect();
            let feasible: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.8)).collect();
            let survival = survive(&objectives, &feasible, capacity);
            let selected = select_survivors(&objectives, &feasible, capacity);
            assert_eq!(survival.selected, selected);
            let subset_objs: Vec<Vec<f64>> =
                selected.iter().map(|&i| objectives[i].clone()).collect();
            let subset_feas: Vec<bool> = selected.iter().map(|&i| feasible[i]).collect();
            let (rank, crowding) = rank_and_crowding(&subset_objs, &subset_feas);
            assert_eq!(survival.rank, rank, "capacity {capacity}");
            for (a, b) in survival.crowding.iter().zip(&crowding) {
                assert!(
                    (a == b) || (a.is_infinite() && b.is_infinite()),
                    "capacity {capacity}: {a} vs {b}"
                );
            }
        }
    }
}
