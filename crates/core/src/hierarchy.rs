//! Hierarchical post-processing of the Pareto front (paper §4.2.2).
//!
//! A three-dimensional Pareto front is hard for an application owner to
//! navigate. Atlas organises the recommended plans with agglomerative
//! hierarchical clustering over their (normalised) quality vectors and
//! presents the resulting dendrogram top-down: first a few coarse clusters
//! (performance-focused, cost-focused, …), then finer splits, until the
//! leaves — individual plans — are reached.

/// A node of the dendrogram.
#[derive(Debug, Clone, PartialEq)]
pub enum DendrogramNode {
    /// A single plan, identified by its index in the input list.
    Leaf {
        /// Index of the plan in the list passed to [`Dendrogram::build`].
        plan: usize,
    },
    /// A merge of two clusters at a given (average-linkage) distance.
    Merge {
        /// Left subtree.
        left: Box<DendrogramNode>,
        /// Right subtree.
        right: Box<DendrogramNode>,
        /// Linkage distance at which the merge happened.
        distance: f64,
    },
}

impl DendrogramNode {
    /// Indices of all plans under this node.
    pub fn members(&self) -> Vec<usize> {
        match self {
            DendrogramNode::Leaf { plan } => vec![*plan],
            DendrogramNode::Merge { left, right, .. } => {
                let mut v = left.members();
                v.extend(right.members());
                v
            }
        }
    }

    /// Number of plans under this node.
    pub fn len(&self) -> usize {
        match self {
            DendrogramNode::Leaf { .. } => 1,
            DendrogramNode::Merge { left, right, .. } => left.len() + right.len(),
        }
    }

    /// Whether the node is a leaf.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// The dendrogram over a set of plans.
#[derive(Debug, Clone, PartialEq)]
pub struct Dendrogram {
    root: Option<DendrogramNode>,
    point_count: usize,
}

impl Dendrogram {
    /// Build a dendrogram by average-linkage agglomerative clustering of the
    /// given quality vectors. Each dimension is min-max normalised first so
    /// that cost (dollars) does not dominate performance (ratios).
    pub fn build(points: &[Vec<f64>]) -> Self {
        if points.is_empty() {
            return Self {
                root: None,
                point_count: 0,
            };
        }
        let normalised = normalise(points);
        // Active clusters: (node, member indices).
        let mut clusters: Vec<(DendrogramNode, Vec<usize>)> = (0..points.len())
            .map(|i| (DendrogramNode::Leaf { plan: i }, vec![i]))
            .collect();
        while clusters.len() > 1 {
            // Find the closest pair by average linkage.
            let mut best = (0usize, 1usize, f64::INFINITY);
            for i in 0..clusters.len() {
                for j in i + 1..clusters.len() {
                    let d = average_linkage(&normalised, &clusters[i].1, &clusters[j].1);
                    if d < best.2 {
                        best = (i, j, d);
                    }
                }
            }
            let (i, j, distance) = best;
            let (right_node, right_members) = clusters.remove(j);
            let (left_node, left_members) = clusters.remove(i);
            let mut members = left_members;
            members.extend(right_members);
            clusters.push((
                DendrogramNode::Merge {
                    left: Box::new(left_node),
                    right: Box::new(right_node),
                    distance,
                },
                members,
            ));
        }
        Self {
            root: clusters.pop().map(|(node, _)| node),
            point_count: points.len(),
        }
    }

    /// The root node, if any plan was clustered.
    pub fn root(&self) -> Option<&DendrogramNode> {
        self.root.as_ref()
    }

    /// Number of plans in the dendrogram.
    pub fn len(&self) -> usize {
        self.point_count
    }

    /// Whether the dendrogram is empty.
    pub fn is_empty(&self) -> bool {
        self.point_count == 0
    }

    /// Cut the dendrogram into (up to) `k` clusters and return the member
    /// indices of each cluster, coarsest splits first. Distances order by
    /// `total_cmp`, so a NaN objective cannot abort the cut.
    pub fn cut(&self, k: usize) -> Vec<Vec<usize>> {
        let Some(root) = &self.root else {
            return Vec::new();
        };
        if k == 0 {
            return Vec::new();
        }
        let mut clusters: Vec<&DendrogramNode> = vec![root];
        while clusters.len() < k {
            // Split the cluster whose merge distance is the largest.
            let Some((idx, _)) = clusters
                .iter()
                .enumerate()
                .filter_map(|(i, n)| match n {
                    DendrogramNode::Merge { distance, .. } => Some((i, *distance)),
                    DendrogramNode::Leaf { .. } => None,
                })
                .max_by(|a, b| a.1.total_cmp(&b.1))
            else {
                break; // all leaves
            };
            let node = clusters.remove(idx);
            if let DendrogramNode::Merge { left, right, .. } = node {
                clusters.push(left);
                clusters.push(right);
            }
        }
        clusters.into_iter().map(|n| n.members()).collect()
    }

    /// A representative plan per cluster when cutting at `k`: the member
    /// whose normalised quality vector is closest to the cluster centroid
    /// (a NaN distance orders last).
    pub fn representatives(&self, points: &[Vec<f64>], k: usize) -> Vec<usize> {
        let normalised = normalise(points);
        self.cut(k)
            .into_iter()
            .map(|members| {
                let dim = normalised[members[0]].len();
                let mut centroid = vec![0.0; dim];
                for &m in &members {
                    for d in 0..dim {
                        centroid[d] += normalised[m][d];
                    }
                }
                for c in centroid.iter_mut() {
                    *c /= members.len() as f64;
                }
                *members
                    .iter()
                    .min_by(|&&a, &&b| {
                        euclidean(&normalised[a], &centroid)
                            .total_cmp(&euclidean(&normalised[b], &centroid))
                    })
                    .expect("clusters are non-empty")
            })
            .collect()
    }
}

fn normalise(points: &[Vec<f64>]) -> Vec<Vec<f64>> {
    if points.is_empty() {
        return Vec::new();
    }
    let dim = points[0].len();
    let mut mins = vec![f64::INFINITY; dim];
    let mut maxs = vec![f64::NEG_INFINITY; dim];
    for p in points {
        for d in 0..dim {
            mins[d] = mins[d].min(p[d]);
            maxs[d] = maxs[d].max(p[d]);
        }
    }
    points
        .iter()
        .map(|p| {
            (0..dim)
                .map(|d| {
                    let range = maxs[d] - mins[d];
                    if range <= 0.0 {
                        0.0
                    } else {
                        (p[d] - mins[d]) / range
                    }
                })
                .collect()
        })
        .collect()
}

fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y).powi(2))
        .sum::<f64>()
        .sqrt()
}

fn average_linkage(points: &[Vec<f64>], a: &[usize], b: &[usize]) -> f64 {
    let mut total = 0.0;
    for &i in a {
        for &j in b {
            total += euclidean(&points[i], &points[j]);
        }
    }
    total / (a.len() * b.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated groups of plans: cheap-but-slow and fast-but-
    /// expensive.
    fn two_groups() -> Vec<Vec<f64>> {
        vec![
            vec![4.0, 0.0, 50.0],
            vec![4.2, 0.0, 52.0],
            vec![3.9, 1.0, 55.0],
            vec![1.1, 2.0, 220.0],
            vec![1.2, 2.0, 230.0],
            vec![1.0, 3.0, 250.0],
        ]
    }

    #[test]
    fn dendrogram_contains_every_plan_exactly_once() {
        let d = Dendrogram::build(&two_groups());
        assert_eq!(d.len(), 6);
        let mut members = d.root().unwrap().members();
        members.sort_unstable();
        assert_eq!(members, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(d.root().unwrap().len(), 6);
    }

    #[test]
    fn cutting_at_two_recovers_the_natural_groups() {
        let points = two_groups();
        let d = Dendrogram::build(&points);
        let clusters = d.cut(2);
        assert_eq!(clusters.len(), 2);
        let mut sizes: Vec<usize> = clusters.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![3, 3]);
        // Each cluster holds either the cheap or the fast group, not a mix.
        for cluster in &clusters {
            let cheap = cluster.iter().filter(|&&i| i < 3).count();
            assert!(cheap == 0 || cheap == cluster.len());
        }
    }

    #[test]
    fn cutting_deeper_than_the_leaf_count_yields_singletons() {
        let points = two_groups();
        let d = Dendrogram::build(&points);
        let clusters = d.cut(100);
        assert_eq!(clusters.len(), 6);
        assert!(clusters.iter().all(|c| c.len() == 1));
        assert!(d.cut(0).is_empty());
    }

    #[test]
    fn representatives_come_from_their_clusters() {
        let points = two_groups();
        let d = Dendrogram::build(&points);
        let reps = d.representatives(&points, 2);
        assert_eq!(reps.len(), 2);
        let clusters = d.cut(2);
        for (rep, cluster) in reps.iter().zip(clusters.iter()) {
            assert!(cluster.contains(rep));
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty = Dendrogram::build(&[]);
        assert!(empty.is_empty());
        assert!(empty.root().is_none());
        assert!(empty.cut(3).is_empty());

        let single = Dendrogram::build(&[vec![1.0, 2.0]]);
        assert_eq!(single.len(), 1);
        assert_eq!(single.cut(3), vec![vec![0]]);
    }

    #[test]
    fn normalisation_keeps_scale_heavy_dimensions_from_dominating() {
        // Cost (third dimension) is in the hundreds; performance differences
        // are small but should still drive the clustering after
        // normalisation. Two groups differ mostly in performance.
        let points = vec![
            vec![1.0, 0.0, 100.0],
            vec![1.05, 0.0, 101.0],
            vec![5.0, 0.0, 100.5],
            vec![5.1, 0.0, 100.0],
        ];
        let d = Dendrogram::build(&points);
        let clusters = d.cut(2);
        for cluster in clusters {
            let fast = cluster.iter().filter(|&&i| i < 2).count();
            assert!(fast == 0 || fast == cluster.len());
        }
    }

    /// A NaN objective (hostile telemetry) orders last instead of
    /// panicking: the dendrogram still holds every plan, and cutting and
    /// picking representatives return.
    #[test]
    fn a_nan_objective_does_not_panic() {
        let mut points = two_groups();
        points[4][0] = f64::NAN;
        let d = Dendrogram::build(&points);
        assert_eq!(d.len(), 6);
        for k in 1..=6 {
            let clusters = d.cut(k);
            assert_eq!(clusters.iter().map(Vec::len).sum::<usize>(), 6);
            let reps = d.representatives(&points, k);
            assert_eq!(reps.len(), clusters.len());
            for (rep, cluster) in reps.iter().zip(&clusters) {
                assert!(cluster.contains(rep));
            }
        }
    }
}
