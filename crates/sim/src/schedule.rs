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

    /// Build from an unordered list of arrivals (sorted internally).
    pub fn from_requests(mut requests: Vec<ScheduledRequest>) -> Self {
        requests.sort_by(|a, b| a.at_us.cmp(&b.at_us).then(a.api.cmp(&b.api)));
        Self { requests }
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

    /// Merge two schedules, keeping time order.
    pub fn merged(&self, other: &RequestSchedule) -> RequestSchedule {
        let mut all = self.requests.clone();
        all.extend(other.requests.iter().cloned());
        RequestSchedule::from_requests(all)
    }

    /// Requests per second averaged over the whole schedule.
    pub fn mean_rps(&self) -> f64 {
        let d = self.duration_s();
        if d == 0 {
            0.0
        } else {
            self.len() as f64 / d as f64
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
        assert!(s.mean_rps() > 0.0);
    }

    #[test]
    #[should_panic(expected = "arrival order")]
    fn out_of_order_push_panics() {
        let mut s = RequestSchedule::new();
        s.push(10, "/a");
        s.push(5, "/a");
    }

    #[test]
    fn from_requests_sorts() {
        let s = RequestSchedule::from_requests(vec![
            ScheduledRequest {
                at_us: 10,
                api: "/b".into(),
            },
            ScheduledRequest {
                at_us: 5,
                api: "/a".into(),
            },
        ]);
        assert_eq!(s.requests()[0].at_us, 5);
        assert_eq!(s.requests()[1].at_us, 10);
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
    fn merged_interleaves_in_time_order() {
        let mut a = RequestSchedule::new();
        a.push(0, "/a");
        a.push(2_000_000, "/a");
        let mut b = RequestSchedule::new();
        b.push(1_000_000, "/b");
        let m = a.merged(&b);
        assert_eq!(m.len(), 3);
        assert_eq!(m.requests()[1].api, "/b");
    }

    #[test]
    fn empty_schedule_statistics() {
        let s = RequestSchedule::new();
        assert_eq!(s.duration_s(), 0);
        assert_eq!(s.mean_rps(), 0.0);
        assert!(s.counts_per_api().is_empty());
    }
}
