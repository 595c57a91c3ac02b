//! Time-window utilities shared by metric and network-traffic series.
//!
//! The footprint-learning step of Atlas (paper Eq. 1) aligns two telemetry
//! streams on common windows: the Istio byte counters and the trace-derived
//! invocation counts. Both are aggregated over fixed-length windows (the
//! paper uses 5-second windows), so the same [`Windowing`] description is
//! used across the workspace.

use crate::Seconds;

/// A uniform partition of an observation period into fixed-length windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Windowing {
    /// Start of the observation period in seconds.
    pub origin_s: Seconds,
    /// Window length in seconds (the paper uses 5 s for footprint learning).
    pub width_s: Seconds,
}

impl Windowing {
    /// Create a windowing scheme. `width_s` must be non-zero.
    pub fn new(origin_s: Seconds, width_s: Seconds) -> Self {
        assert!(width_s > 0, "window width must be positive");
        Self { origin_s, width_s }
    }

    /// Index of the window containing the given timestamp (seconds).
    ///
    /// Timestamps before the origin map to window 0.
    pub fn index_of_s(&self, t_s: Seconds) -> usize {
        (t_s.saturating_sub(self.origin_s) / self.width_s) as usize
    }

    /// Index of the window containing the given timestamp (microseconds).
    pub fn index_of_us(&self, t_us: u64) -> usize {
        self.index_of_s(t_us / 1_000_000)
    }

    /// Number of windows needed to cover `[origin, end_s)`.
    pub fn count_until(&self, end_s: Seconds) -> usize {
        if end_s <= self.origin_s {
            0
        } else {
            ((end_s - self.origin_s) + self.width_s - 1) as usize / self.width_s as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_contains_boundaries_half_open() {
        let w = Windowing::new(10, 5);
        assert_eq!(w.index_of_s(10), 0);
        assert_eq!(w.index_of_s(14), 0);
        assert_eq!(w.index_of_s(15), 1);
        assert_eq!(w.index_of_us(12_000_000), 0);
        assert_eq!(w.index_of_us(15_000_000), 1);
    }

    #[test]
    #[should_panic(expected = "window width must be positive")]
    fn zero_width_windowing_panics() {
        let _ = Windowing::new(5, 0);
    }

    #[test]
    fn windowing_maps_timestamps_to_indices() {
        let w = Windowing::new(100, 5);
        assert_eq!(w.index_of_s(100), 0);
        assert_eq!(w.index_of_s(104), 0);
        assert_eq!(w.index_of_s(105), 1);
        assert_eq!(w.index_of_s(99), 0, "pre-origin timestamps clamp to 0");
        assert_eq!(w.index_of_us(105_000_000), 1);
    }

    #[test]
    fn windowing_index_and_window_are_consistent() {
        let w = Windowing::new(100, 5);
        for k in 0..20 {
            let start = w.origin_s + k as Seconds * w.width_s;
            assert_eq!(w.index_of_s(start), k);
            assert_eq!(w.index_of_s(start + w.width_s - 1), k);
        }
    }

    #[test]
    fn count_until_rounds_up() {
        let w = Windowing::new(0, 5);
        assert_eq!(w.count_until(0), 0);
        assert_eq!(w.count_until(1), 1);
        assert_eq!(w.count_until(5), 1);
        assert_eq!(w.count_until(6), 2);
        assert_eq!(w.count_until(50), 10);
        let w2 = Windowing::new(100, 10);
        assert_eq!(w2.count_until(90), 0);
        assert_eq!(w2.count_until(125), 3);
    }
}
