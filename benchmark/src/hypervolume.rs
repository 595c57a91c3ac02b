//! 3-D hypervolume of a minimised front: the share of the box between the
//! origin and a reference point that the front dominates. Objectives are
//! divided by the reference point and clipped to the unit cube, so a point
//! at or beyond the reference in any objective adds nothing.

/// Hypervolume of `front` (minimised objectives) under `reference`, in
/// `[0, 1]`.
pub fn hypervolume(front: &[[f64; 3]], reference: [f64; 3]) -> f64 {
    let mut points: Vec<[f64; 3]> = front
        .iter()
        .map(|p| {
            let mut q = [0.0; 3];
            for k in 0..3 {
                q[k] = if reference[k] > 0.0 {
                    (p[k] / reference[k]).clamp(0.0, 1.0)
                } else {
                    1.0
                };
            }
            q
        })
        .collect();
    // Sweep the third objective: between two consecutive z values the
    // dominated region is the 2-D area dominated by every point at or below
    // the lower one.
    points.sort_by(|a, b| a[2].total_cmp(&b[2]));
    let mut volume = 0.0;
    for i in 0..points.len() {
        let top = points.get(i + 1).map_or(1.0, |p| p[2]);
        let depth = top - points[i][2];
        if depth > 0.0 {
            volume += depth * area(&points[..=i]);
        }
    }
    volume
}

/// 2-D area of the unit square dominated by the (x, y) of `points`.
fn area(points: &[[f64; 3]]) -> f64 {
    let mut xy: Vec<(f64, f64)> = points.iter().map(|p| (p[0], p[1])).collect();
    xy.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut lowest = 1.0;
    let mut area = 0.0;
    for (x, y) in xy {
        if y < lowest {
            area += (1.0 - x) * (lowest - y);
            lowest = y;
        }
    }
    area
}

#[cfg(test)]
mod tests {
    use super::*;

    const UNIT: [f64; 3] = [1.0, 1.0, 1.0];

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn one_point_dominates_its_box() {
        assert!(close(hypervolume(&[[0.5, 0.5, 0.5]], UNIT), 0.125));
        assert!(close(hypervolume(&[[0.0, 0.0, 0.0]], UNIT), 1.0));
        assert!(close(hypervolume(&[], UNIT), 0.0));
    }

    #[test]
    fn two_overlapping_boxes_count_their_overlap_once() {
        // Boxes of 0.5^2 x 0.8 ... computed by inclusion-exclusion.
        let a = [0.2, 0.6, 0.5];
        let b = [0.6, 0.2, 0.5];
        let volume = |p: [f64; 3]| (1.0 - p[0]) * (1.0 - p[1]) * (1.0 - p[2]);
        let overlap = (1.0 - 0.6) * (1.0 - 0.6) * (1.0 - 0.5);
        let expected = volume(a) + volume(b) - overlap;
        assert!(close(hypervolume(&[a, b], UNIT), expected));
        // Different depths too.
        let c = [0.6, 0.2, 0.1];
        let overlap = (1.0 - 0.6) * (1.0 - 0.6) * (1.0 - 0.5);
        let expected = volume(a) + volume(c) - overlap;
        assert!(close(hypervolume(&[a, c], UNIT), expected));
    }

    #[test]
    fn a_dominated_point_adds_nothing() {
        let front = [[0.2, 0.3, 0.4], [0.5, 0.1, 0.6]];
        let base = hypervolume(&front, UNIT);
        let mut with_dominated = front.to_vec();
        with_dominated.push([0.6, 0.4, 0.7]);
        with_dominated.push([0.2, 0.3, 0.4]);
        assert!(close(hypervolume(&with_dominated, UNIT), base));
    }

    #[test]
    fn order_does_not_matter() {
        let front = [
            [0.1, 0.8, 0.5],
            [0.4, 0.4, 0.4],
            [0.7, 0.2, 0.9],
            [0.3, 0.6, 0.1],
        ];
        let base = hypervolume(&front, UNIT);
        let mut rotated = front;
        for _ in 0..front.len() {
            rotated.rotate_left(1);
            assert!(close(hypervolume(&rotated, UNIT), base));
        }
        rotated.reverse();
        assert!(close(hypervolume(&rotated, UNIT), base));
    }

    #[test]
    fn points_are_scaled_and_clipped_at_the_reference() {
        // Scaling: (1, 2, 4) under reference (2, 4, 8) is (0.5, 0.5, 0.5).
        assert!(close(
            hypervolume(&[[1.0, 2.0, 4.0]], [2.0, 4.0, 8.0]),
            0.125
        ));
        // Beyond the reference in one objective: nothing.
        assert!(close(hypervolume(&[[0.1, 0.1, 1.5]], UNIT), 0.0));
        // Below the origin: clipped to it.
        assert!(close(hypervolume(&[[-3.0, 0.5, 0.5]], UNIT), 0.25));
    }
}
