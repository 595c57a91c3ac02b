//! An external non-dominated archive: the best front ever seen, kept
//! outside the evolving population.
//!
//! NSGA-II survival keeps the population's best `capacity` members *of the
//! current generation*, so a Pareto-optimal plan discovered early can be
//! displaced later by crowding pressure and never return — at small search
//! budgets the final-generation front is routinely thinner than the set of
//! non-dominated plans the search actually visited. A [`ParetoArchive`]
//! fixes that by accumulating every evaluated candidate as it is scored:
//! dominated offers are rejected, entries dominated by a new offer are
//! evicted, and when the archive outgrows its capacity the most crowded
//! entry (smallest NSGA-II crowding distance over the archive treated as
//! one front) is pruned, preserving the spread of the front.
//!
//! The archive is a pure, deterministic function of the insertion sequence:
//! no randomness, no iteration-order dependence, ties broken by insertion
//! order. Searches that feed it the same candidates in the same order —
//! regardless of evaluator thread count — hold identical archives.

use crate::nsga2::crowding_distance;
use crate::pareto::dominates;

/// A capped, crowding-pruned archive of mutually non-dominated entries.
///
/// `G` is the genome type (cloned only when an offer is accepted); `S` is
/// the objective vector (minimised, as everywhere in this crate). Entries
/// with equal objectives but distinct genomes are all kept — matching
/// [`crate::pareto::pareto_front_indices`], which never collapses ties —
/// while exact `(genome, objectives)` duplicates are rejected.
#[derive(Debug, Clone)]
pub struct ParetoArchive<G, S> {
    entries: Vec<(G, S)>,
    capacity: usize,
}

impl<G: Clone + PartialEq, S: AsRef<[f64]>> ParetoArchive<G, S> {
    /// An empty archive holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "archive capacity must be positive");
        Self {
            entries: Vec::new(),
            capacity,
        }
    }

    /// Offer one evaluated candidate. Returns `true` when the offer joined
    /// the front: it was not dominated by (or an exact duplicate of) any
    /// entry. Entries the offer dominates are evicted; if the archive then
    /// exceeds its capacity, the most crowded entry is pruned — possibly
    /// the offer itself.
    pub fn insert(&mut self, genome: &G, objectives: S) -> bool {
        let offer = objectives.as_ref();
        for (g, s) in &self.entries {
            let held = s.as_ref();
            if dominates(held, offer) {
                return false;
            }
            if held == offer && g == genome {
                return false;
            }
        }
        self.entries.retain(|(_, s)| !dominates(offer, s.as_ref()));
        self.entries.push((genome.clone(), objectives));
        while self.entries.len() > self.capacity {
            self.prune_most_crowded();
        }
        true
    }

    /// Evict the entry with the smallest crowding distance over the archive
    /// treated as a single front (first such entry on ties, so pruning is
    /// deterministic).
    fn prune_most_crowded(&mut self) {
        let front: Vec<usize> = (0..self.entries.len()).collect();
        let objectives: Vec<&S> = self.entries.iter().map(|(_, s)| s).collect();
        let crowding = crowding_distance(&objectives, &front);
        let mut victim = 0;
        for (i, &d) in crowding.iter().enumerate() {
            if d < crowding[victim] {
                victim = i;
            }
        }
        self.entries.remove(victim);
    }

    /// The archived entries, in insertion order (evictions preserve the
    /// relative order of the remainder).
    pub fn entries(&self) -> &[(G, S)] {
        &self.entries
    }

    /// Number of archived entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the archive holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The maximum number of entries the archive retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn front(archive: &ParetoArchive<usize, Vec<f64>>) -> Vec<Vec<f64>> {
        archive.entries().iter().map(|(_, s)| s.clone()).collect()
    }

    #[test]
    fn dominated_offers_are_rejected_and_dominating_offers_evict() {
        let mut a = ParetoArchive::new(8);
        assert!(a.insert(&0, vec![2.0, 2.0]));
        assert!(!a.insert(&1, vec![3.0, 3.0]), "dominated offer rejected");
        assert_eq!(a.len(), 1);
        assert!(a.insert(&2, vec![1.0, 1.0]), "dominating offer accepted");
        assert_eq!(front(&a), vec![vec![1.0, 1.0]], "old entry evicted");
    }

    #[test]
    fn trade_offs_accumulate_and_duplicates_are_rejected() {
        let mut a = ParetoArchive::new(8);
        assert!(a.insert(&0, vec![1.0, 4.0]));
        assert!(a.insert(&1, vec![4.0, 1.0]));
        assert!(a.insert(&2, vec![2.0, 2.0]));
        assert_eq!(a.len(), 3);
        // The exact same (genome, objectives) pair is a duplicate…
        assert!(!a.insert(&2, vec![2.0, 2.0]));
        // …but a different genome with equal objectives is a distinct
        // front member (pareto_front_indices keeps such ties too).
        assert!(a.insert(&3, vec![2.0, 2.0]));
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn capacity_prunes_the_most_crowded_entry() {
        let mut a = ParetoArchive::new(3);
        assert!(a.insert(&0, vec![0.0, 10.0]));
        assert!(a.insert(&1, vec![10.0, 0.0]));
        assert!(a.insert(&2, vec![5.0, 5.0]));
        // The new interior point crowds in right next to (5,5): one of the
        // two crowded twins is pruned, the boundaries survive.
        assert!(a.insert(&3, vec![5.1, 4.9]));
        assert_eq!(a.len(), 3);
        let kept = front(&a);
        assert!(kept.contains(&vec![0.0, 10.0]));
        assert!(kept.contains(&vec![10.0, 0.0]));
    }

    #[test]
    fn archive_is_a_pure_function_of_the_insertion_sequence() {
        let offers = [
            vec![3.0, 7.0],
            vec![7.0, 3.0],
            vec![5.0, 5.0],
            vec![4.0, 6.0],
            vec![6.0, 4.0],
            vec![2.0, 9.0],
            vec![9.0, 2.0],
        ];
        let mut a = ParetoArchive::new(4);
        let mut b = ParetoArchive::new(4);
        for (i, s) in offers.iter().enumerate() {
            a.insert(&i, s.clone());
            b.insert(&i, s.clone());
        }
        assert_eq!(a.entries(), b.entries());
    }
}
