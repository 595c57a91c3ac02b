//! Synthetic dataset substitutes.
//!
//! The paper initialises the social network with a real Facebook social
//! graph \[66\] and serves media from the INRIA person dataset \[35\]. Neither
//! dataset is consumed directly by Atlas — only the traffic they induce
//! matters — so this module provides synthetic generators with matching
//! first and second moments: a power-law social graph and a log-normal-ish
//! media-size distribution. The statistics derived from them parameterise
//! the application call trees (fan-out sizes, payload sizes).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Summary statistics of the social graph used to size the social network
/// application's payloads and fan-outs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocialGraphStats {
    /// Number of users.
    pub users: usize,
    /// Mean number of followers per user (drives home-timeline fan-out).
    pub mean_followers: f64,
    /// Mean post length in bytes.
    pub mean_post_bytes: f64,
    /// Mean number of posts returned by a timeline read.
    pub mean_timeline_posts: f64,
}

impl Default for SocialGraphStats {
    fn default() -> Self {
        Self {
            users: 10_000,
            mean_followers: 18.0,
            mean_post_bytes: 280.0,
            mean_timeline_posts: 10.0,
        }
    }
}

/// Summary statistics of the media corpus (INRIA substitute).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MediaStats {
    /// Mean media object size in bytes.
    pub mean_media_bytes: f64,
    /// Fraction of posts that attach media.
    pub media_attach_probability: f64,
}

impl Default for MediaStats {
    fn default() -> Self {
        Self {
            mean_media_bytes: 90_000.0,
            media_attach_probability: 0.3,
        }
    }
}

/// A synthetic power-law social graph.
///
/// Generated with a preferential-attachment process so that the follower
/// distribution is heavy-tailed like real social networks.
#[derive(Debug, Clone, PartialEq)]
pub struct SocialGraph {
    /// follower lists per user: `followers[u]` are the users following `u`.
    followers: Vec<Vec<usize>>,
}

impl SocialGraph {
    /// Generate a graph with `users` nodes and on average `mean_followers`
    /// followers per user.
    pub fn generate(users: usize, mean_followers: f64, seed: u64) -> Self {
        assert!(users >= 2, "need at least two users");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut followers: Vec<Vec<usize>> = vec![Vec::new(); users];
        // Preferential attachment: each new user follows `k` existing users
        // chosen proportionally to their current follower counts (plus one).
        let edges_per_user = mean_followers.max(1.0).round() as usize;
        let mut weights: Vec<f64> = vec![1.0; users];
        for u in 1..users {
            for _ in 0..edges_per_user {
                let total: f64 = weights[..u].iter().sum();
                let mut pick = rng.gen::<f64>() * total;
                let mut target = 0usize;
                for (i, w) in weights[..u].iter().enumerate() {
                    if pick <= *w {
                        target = i;
                        break;
                    }
                    pick -= *w;
                    target = i;
                }
                if !followers[target].contains(&u) {
                    followers[target].push(u);
                    weights[target] += 1.0;
                }
            }
        }
        Self { followers }
    }

    /// Number of users in the graph.
    pub fn user_count(&self) -> usize {
        self.followers.len()
    }

    /// Mean follower count across users.
    pub fn mean_followers(&self) -> f64 {
        let total: usize = self.followers.iter().map(Vec::len).sum();
        total as f64 / self.followers.len() as f64
    }

    /// Summary statistics suitable for sizing the application model.
    pub fn stats(&self) -> SocialGraphStats {
        SocialGraphStats {
            users: self.user_count(),
            mean_followers: self.mean_followers(),
            ..SocialGraphStats::default()
        }
    }
}

/// A synthetic media corpus: media object sizes drawn from a heavy-tailed
/// distribution resembling a photo collection.
#[derive(Debug, Clone)]
pub struct MediaCorpus {
    sizes: Vec<f64>,
}

impl MediaCorpus {
    /// Generate `count` media objects with mean size `mean_bytes`.
    pub fn generate(count: usize, mean_bytes: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let sizes = (0..count)
            .map(|_| {
                // Sum of squared uniforms gives a right-skewed distribution
                // whose mean we then rescale; enough to emulate photo sizes.
                let u: f64 = rng.gen::<f64>();
                let v: f64 = rng.gen::<f64>();
                let raw = 0.25 + 1.5 * (u * u + v * v);
                raw * mean_bytes / 1.25
            })
            .collect();
        Self { sizes }
    }

    /// Number of media objects.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Mean object size in bytes.
    pub fn mean_bytes(&self) -> f64 {
        if self.sizes.is_empty() {
            return 0.0;
        }
        self.sizes.iter().sum::<f64>() / self.sizes.len() as f64
    }

    /// Summary statistics suitable for sizing the application model.
    pub fn stats(&self) -> MediaStats {
        MediaStats {
            mean_media_bytes: self.mean_bytes(),
            ..MediaStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn social_graph_has_heavy_tail() {
        let g = SocialGraph::generate(500, 8.0, 11);
        assert_eq!(g.user_count(), 500);
        let mean = g.mean_followers();
        assert!(mean > 2.0 && mean < 16.0, "mean followers {mean}");
        let max = g.followers.iter().map(Vec::len).max().unwrap_or(0);
        assert!(
            max as f64 > 3.0 * mean,
            "preferential attachment should produce a heavy tail (max {max}, mean {mean})"
        );
    }

    #[test]
    fn social_graph_is_deterministic_per_seed() {
        let a = SocialGraph::generate(200, 5.0, 3);
        let b = SocialGraph::generate(200, 5.0, 3);
        assert_eq!(a, b);
        let c = SocialGraph::generate(200, 5.0, 4);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "at least two users")]
    fn tiny_graph_panics() {
        let _ = SocialGraph::generate(1, 5.0, 0);
    }

    #[test]
    fn graph_stats_reflect_generation() {
        let g = SocialGraph::generate(300, 6.0, 7);
        let stats = g.stats();
        assert_eq!(stats.users, 300);
        assert!((stats.mean_followers - g.mean_followers()).abs() < 1e-12);
    }

    #[test]
    fn media_corpus_mean_close_to_requested() {
        let corpus = MediaCorpus::generate(2_000, 90_000.0, 5);
        assert_eq!(corpus.len(), 2_000);
        assert!(!corpus.is_empty());
        let mean = corpus.mean_bytes();
        assert!(
            (mean - 90_000.0).abs() / 90_000.0 < 0.15,
            "corpus mean {mean} should be within 15 % of the requested mean"
        );
        let stats = corpus.stats();
        assert!((stats.mean_media_bytes - mean).abs() < 1e-9);
    }

    #[test]
    fn default_stats_are_reasonable() {
        let s = SocialGraphStats::default();
        assert!(s.users > 0 && s.mean_followers > 0.0);
        let m = MediaStats::default();
        assert!(m.mean_media_bytes > 0.0);
        assert!((0.0..=1.0).contains(&m.media_attach_probability));
    }
}
