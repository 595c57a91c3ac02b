//! Genetic operators for placement genomes over an arbitrary site alphabet.
//!
//! The baselines and the random initialisation of Atlas's population use the
//! classic operators: uniform crossover (each gene comes from either parent
//! with equal probability) and a resampling mutation over the gene
//! alphabet. Atlas's own crossover is the learned agent in `atlas-core::rl_crossover`; these operators are
//! the "existing approaches create offspring by randomly combining the
//! parents" the paper compares against (§4.2.1).
//!
//! The operators are generic over the gene type; the searches run them over
//! `SiteId` genomes.

use rand::Rng;

/// Uniform crossover: each gene is copied from either parent with equal
/// probability. Generic over the gene type; the random stream is one draw
/// per gene regardless of the alphabet.
///
/// # Panics
///
/// Panics if the parents have different lengths.
pub fn uniform_crossover<T: Copy, R: Rng + ?Sized>(rng: &mut R, a: &[T], b: &[T]) -> Vec<T> {
    assert_eq!(a.len(), b.len(), "parents must have equal length");
    a.iter()
        .zip(b.iter())
        .map(|(&ga, &gb)| if rng.gen::<bool>() { ga } else { gb })
        .collect()
}

/// Alphabet mutation: each gene is independently resampled, with probability
/// `rate`, to a *different* letter of `alphabet`, chosen uniformly.
///
/// A two-letter alphabet draws one `f64` per gene and replaces a mutated
/// gene by the other letter without a further draw — the classic bit flip,
/// and the random stream every recorded 2-site front was searched on. Larger
/// alphabets pay one extra draw per *mutated* gene to pick the replacement.
///
/// Genes not present in the alphabet are replaced by a uniformly drawn
/// letter when mutated.
///
/// # Panics
///
/// Panics if the alphabet has fewer than two letters.
pub fn alphabet_mutation<T: Copy + Eq, R: Rng + ?Sized>(
    rng: &mut R,
    genome: &mut [T],
    alphabet: &[T],
    rate: f64,
) {
    assert!(alphabet.len() >= 2, "mutation needs at least 2 letters");
    for gene in genome.iter_mut() {
        if rng.gen::<f64>() < rate {
            if alphabet.len() == 2 {
                // Two letters: deterministic flip, no extra draw (keeps
                // 2-site searches on their historical random stream).
                *gene = if *gene == alphabet[0] {
                    alphabet[1]
                } else {
                    alphabet[0]
                };
            } else {
                let current = alphabet.iter().position(|l| l == gene);
                let k = rng.gen_range(0..alphabet.len() - usize::from(current.is_some()));
                let k = match current {
                    // Skip the current letter so the mutation always moves.
                    Some(c) if k >= c => k + 1,
                    _ => k,
                };
                *gene = alphabet[k];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn crossover_genes_come_from_a_parent() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = vec![0u8; 32];
        let b = vec![1u8; 32];
        let child = uniform_crossover(&mut rng, &a, &b);
        assert_eq!(child.len(), 32);
        assert!(child.iter().all(|&g| g == 0 || g == 1));
        // With 32 genes the child is essentially never a clone of one parent.
        assert!(child.contains(&0));
        assert!(child.contains(&1));
    }

    #[test]
    fn crossover_of_identical_parents_is_identity() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = vec![0, 1, 1, 0, 1];
        let child = uniform_crossover(&mut rng, &a, &a);
        assert_eq!(child, a);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_parents_panic() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = uniform_crossover(&mut rng, &[0, 1], &[0, 1, 1]);
    }

    #[test]
    fn mutation_rate_zero_and_one_are_exact() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut genome = vec![0, 1, 0, 1];
        alphabet_mutation(&mut rng, &mut genome, &[0, 1], 0.0);
        assert_eq!(genome, vec![0, 1, 0, 1]);
        alphabet_mutation(&mut rng, &mut genome, &[0, 1], 1.0);
        assert_eq!(genome, vec![1, 0, 1, 0]);
    }

    #[test]
    fn mutation_flips_roughly_rate_fraction() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut genome = vec![0u8; 10_000];
        alphabet_mutation(&mut rng, &mut genome, &[0, 1], 0.1);
        let flipped = genome.iter().filter(|&&g| g == 1).count();
        assert!(
            (800..1_200).contains(&flipped),
            "expected ~1000 flips, got {flipped}"
        );
    }

    #[test]
    fn crossover_is_generic_over_the_gene_type() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = vec![0u16, 0, 0, 0, 0, 0, 0, 0];
        let b = vec![3u16, 3, 3, 3, 3, 3, 3, 3];
        let child = uniform_crossover(&mut rng, &a, &b);
        assert!(child.iter().all(|&g| g == 0 || g == 3));
        // Identical draws regardless of gene type: the same seed crossing
        // u8 parents picks the same parents per gene.
        let mut rng_a = StdRng::seed_from_u64(99);
        let mut rng_b = StdRng::seed_from_u64(99);
        let bytes = uniform_crossover(&mut rng_a, &[0u8; 16], &[1u8; 16]);
        let words = uniform_crossover(&mut rng_b, &[0u16; 16], &[1u16; 16]);
        assert_eq!(bytes.iter().map(|&x| x as u16).collect::<Vec<_>>(), words);
    }

    /// On a two-letter alphabet the mutation draws exactly one `f64` per
    /// gene and flips a mutated gene to the other letter: the random stream
    /// the 2-site fronts depend on.
    #[test]
    fn alphabet_mutation_matches_bit_flip_on_binary_genomes() {
        let mut rng_a = StdRng::seed_from_u64(21);
        let mut rng_b = StdRng::seed_from_u64(21);
        let before = vec![0u8, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0];
        let flipped: Vec<u8> = before
            .iter()
            .map(|&gene| {
                if rng_a.gen::<f64>() < 0.4 {
                    1 - gene
                } else {
                    gene
                }
            })
            .collect();
        let mut sites = before.clone();
        alphabet_mutation(&mut rng_b, &mut sites, &[0u8, 1], 0.4);
        assert_eq!(sites, flipped);
        assert_ne!(sites, before, "rate 0.4 over 12 genes mutates something");
        // One draw per gene and no more: the streams stay aligned.
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn alphabet_mutation_always_moves_to_a_different_letter() {
        let alphabet = [0u16, 1, 2, 3];
        let mut rng = StdRng::seed_from_u64(5);
        let mut genome = vec![2u16; 5_000];
        alphabet_mutation(&mut rng, &mut genome, &alphabet, 1.0);
        // Rate 1.0: every gene mutated, never back to its own letter, and
        // the three remaining letters all appear.
        assert!(genome.iter().all(|&g| g != 2));
        for letter in [0u16, 1, 3] {
            assert!(genome.contains(&letter), "letter {letter} never drawn");
        }

        // Rate 0.0: nothing moves.
        let mut untouched = vec![1u16; 64];
        alphabet_mutation(&mut rng, &mut untouched, &alphabet, 0.0);
        assert_eq!(untouched, vec![1u16; 64]);

        // Genes outside the alphabet are legalised when mutated.
        let mut stray = vec![9u16; 2_000];
        alphabet_mutation(&mut rng, &mut stray, &alphabet, 1.0);
        assert!(stray.iter().all(|g| alphabet.contains(g)));
    }

    #[test]
    #[should_panic(expected = "at least 2 letters")]
    fn degenerate_alphabets_are_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        alphabet_mutation(&mut rng, &mut [0u8, 1], &[0u8], 0.5);
    }
}
