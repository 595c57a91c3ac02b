//! Request schedules: the open-loop arrival process fed to the simulator.
//!
//! The workload generator (in `atlas-apps`) produces a [`RequestSchedule`];
//! the [`crate::Simulator`] replays it. Separating "when do requests arrive"
//! from "how are they executed" keeps experiments such as the 5× burst or
//! the behaviour-change drift (paper §5.4) easy to express.

use atlas_telemetry::Micros;

/// A single API request arrival.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledRequest {
    /// Arrival time in microseconds since the start of the run.
    pub at_us: Micros,
    /// Target user-facing API endpoint.
    pub api: String,
}

/// A time-ordered list of request arrivals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestSchedule {
    requests: Vec<ScheduledRequest>,
}

impl RequestSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an arrival (must be non-decreasing in time).
    pub fn push(&mut self, at_us: Micros, api: impl Into<String>) {
        let api = api.into();
        if let Some(last) = self.requests.last() {
            assert!(
                at_us >= last.at_us,
                "requests must be appended in arrival order"
            );
        }
        self.requests.push(ScheduledRequest { at_us, api });
    }

    /// All arrivals, in time order.
    pub fn requests(&self) -> &[ScheduledRequest] {
        &self.requests
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Duration covered by the schedule in seconds (end of last arrival).
    pub fn duration_s(&self) -> u64 {
        self.requests.last().map_or(0, |r| r.at_us / 1_000_000 + 1)
    }

    /// Number of arrivals per API.
    pub fn counts_per_api(&self) -> std::collections::HashMap<String, usize> {
        let mut out = std::collections::HashMap::new();
        for r in &self.requests {
            *out.entry(r.api.clone()).or_insert(0) += 1;
        }
        out
    }

    /// Restrict to arrivals in `[start_us, end_us)`.
    pub fn slice(&self, start_us: Micros, end_us: Micros) -> RequestSchedule {
        RequestSchedule {
            requests: self
                .requests
                .iter()
                .filter(|r| r.at_us >= start_us && r.at_us < end_us)
                .cloned()
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut s = RequestSchedule::new();
        s.push(0, "/a");
        s.push(500_000, "/b");
        s.push(1_500_000, "/a");
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.duration_s(), 2);
        assert_eq!(s.counts_per_api()["/a"], 2);
    }

    #[test]
    #[should_panic(expected = "arrival order")]
    fn out_of_order_push_panics() {
        let mut s = RequestSchedule::new();
        s.push(10, "/a");
        s.push(5, "/a");
    }

    #[test]
    fn slice_is_half_open() {
        let mut s = RequestSchedule::new();
        for i in 0..10u64 {
            s.push(i * 1_000_000, "/a");
        }
        let sliced = s.slice(2_000_000, 5_000_000);
        assert_eq!(sliced.len(), 3);
        assert_eq!(sliced.requests()[0].at_us, 2_000_000);
    }

    #[test]
    fn empty_schedule_statistics() {
        let s = RequestSchedule::new();
        assert_eq!(s.duration_s(), 0);
        assert!(s.counts_per_api().is_empty());
    }
}
