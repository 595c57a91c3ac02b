//! Locust-like open-loop workload generation.
//!
//! The paper's generator simulates one day of traffic in five minutes with
//! two daily peaks (lunchtime and late evening), sends API requests
//! following realistic per-API mixes, and varies the rate from day to day
//! (§5.1). This module reproduces that behaviour as a deterministic
//! generator of [`RequestSchedule`]s.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use atlas_sim::{AppTopology, RequestSchedule};

/// Shape of the compressed diurnal curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalProfile {
    /// Length of one compressed "day" in seconds (the paper compresses one
    /// day into five minutes = 300 s).
    pub day_seconds: u64,
    /// Position of the first peak as a fraction of the day (e.g. lunch).
    pub first_peak: f64,
    /// Position of the second peak as a fraction of the day (late evening).
    pub second_peak: f64,
    /// Ratio between peak and off-peak request rates.
    pub peak_to_trough: f64,
}

impl Default for DiurnalProfile {
    fn default() -> Self {
        Self {
            day_seconds: 300,
            first_peak: 0.45,
            second_peak: 0.85,
            peak_to_trough: 4.0,
        }
    }
}

impl DiurnalProfile {
    /// Relative intensity (≥ `1 / peak_to_trough`, ≤ 1.0) at a point of the
    /// day expressed as a fraction in `[0, 1)`.
    pub fn intensity(&self, day_fraction: f64) -> f64 {
        let f = day_fraction.rem_euclid(1.0);
        // Two Gaussian bumps on a constant base.
        let bump = |center: f64| {
            let d = (f - center).abs().min(1.0 - (f - center).abs());
            (-d * d / (2.0 * 0.012)).exp()
        };
        let base = 1.0 / self.peak_to_trough;
        let value = base + (1.0 - base) * (bump(self.first_peak) + bump(self.second_peak)).min(1.0);
        value.clamp(base, 1.0)
    }
}

/// Higher-level shape modulating the diurnal base curve.
///
/// The paper's evaluation drives both applications with the same two-peak
/// diurnal profile; the scenario generator (and any hand-built experiment)
/// can layer additional structure on top of it to stress the advisor with
/// traffic the seed applications never produce.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum WorkloadShape {
    /// The plain two-peak diurnal curve, identical every day.
    #[default]
    Diurnal,
    /// A flash crowd: on day `day`, the rate spikes to `magnitude`× the
    /// diurnal level inside a narrow Gaussian window centred at day-fraction
    /// `at` with width `width` (as a fraction of the day). The spike can
    /// exceed the nominal peak rate — that is the point.
    FlashCrowd {
        /// Day (0-based) the crowd arrives on.
        day: u32,
        /// Centre of the spike as a fraction of the day in `[0, 1)`.
        at: f64,
        /// Width (standard deviation) of the spike as a day fraction.
        width: f64,
        /// Peak multiplier relative to the underlying diurnal level.
        magnitude: f64,
    },
    /// Weekday/weekend alternation: days `5` and `6` of every 7-day cycle
    /// run at `weekend_scale` of the weekday rate.
    WeekdayWeekend {
        /// Rate multiplier applied on weekend days (usually < 1).
        weekend_scale: f64,
    },
    /// Batch-heavy nights: during the night window (the first and last tenth
    /// of each day) the intensity never drops below `night_level`, modelling
    /// analytics/backup batch jobs that fill the diurnal trough.
    BatchNight {
        /// Intensity floor during the night window (fraction of peak).
        night_level: f64,
    },
}

impl WorkloadShape {
    /// Fraction of the day considered "night" by [`WorkloadShape::BatchNight`]
    /// on each side of midnight.
    const NIGHT_FRACTION: f64 = 0.1;

    /// Relative intensity at `day_fraction` of day `day`, layered on top of
    /// the diurnal `profile`. Values are ≥ 0 and may exceed 1.0 (flash
    /// crowds overshoot the nominal peak).
    pub fn intensity(&self, profile: &DiurnalProfile, day: u32, day_fraction: f64) -> f64 {
        let base = profile.intensity(day_fraction);
        match *self {
            WorkloadShape::Diurnal => base,
            WorkloadShape::FlashCrowd {
                day: spike_day,
                at,
                width,
                magnitude,
            } => {
                if day != spike_day {
                    return base;
                }
                let f = day_fraction.rem_euclid(1.0);
                // Plain (non-circular) distance: the crowd is a one-off
                // event, so a spike near midnight must not alias a phantom
                // bump onto the opposite end of the same day.
                let d = (f - at).abs();
                let w = width.max(1e-4);
                let bump = (-d * d / (2.0 * w * w)).exp();
                base * (1.0 + (magnitude - 1.0).max(0.0) * bump)
            }
            WorkloadShape::WeekdayWeekend { weekend_scale } => {
                if day % 7 >= 5 {
                    base * weekend_scale.max(0.0)
                } else {
                    base
                }
            }
            WorkloadShape::BatchNight { night_level } => {
                let f = day_fraction.rem_euclid(1.0);
                if !(Self::NIGHT_FRACTION..1.0 - Self::NIGHT_FRACTION).contains(&f) {
                    base.max(night_level.clamp(0.0, 1.0))
                } else {
                    base
                }
            }
        }
    }

    /// Absolute seconds (from schedule start) of features too narrow for a
    /// coarse sampling grid to find — currently the flash crowd's centre.
    /// Consumers estimating peak rates (e.g. analytic demand) should include
    /// these in their sample sets.
    pub fn critical_seconds(&self, day_seconds: u64) -> Vec<u64> {
        match *self {
            WorkloadShape::FlashCrowd { day, at, .. } => {
                vec![day as u64 * day_seconds + (at.rem_euclid(1.0) * day_seconds as f64) as u64]
            }
            _ => Vec::new(),
        }
    }
}

/// Options of a workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadOptions {
    /// Number of compressed days to generate.
    pub days: u32,
    /// Peak request rate (requests per second) at intensity 1.0.
    pub peak_rps: f64,
    /// Multiplier applied on top of the profile, used for the paper's 5×
    /// burst scenario.
    pub burst_factor: f64,
    /// Requests-per-day scale: multiplies the arrival rate uniformly without
    /// changing the diurnal shape, the mix, or the burst semantics. Use it to
    /// grow traffic *volume* (more observations of the same behaviours) as
    /// opposed to `burst_factor`, which models a scenario-level surge.
    pub volume_scale: f64,
    /// Per-API share of the traffic as `(endpoint, weight)`. Weights are
    /// normalised internally; APIs missing from the topology are rejected.
    pub api_mix: Vec<(String, f64)>,
    /// Relative day-to-day jitter on the rate (e.g. 0.1 = ±10 %).
    pub day_jitter: f64,
    /// Diurnal shape.
    pub profile: DiurnalProfile,
    /// Higher-level shape layered on the diurnal curve (flash crowds,
    /// weekday/weekend alternation, batch-heavy nights).
    pub shape: WorkloadShape,
    /// Seed controlling arrival sampling.
    pub seed: u64,
}

impl WorkloadOptions {
    /// The default mix for the social network, weighted toward reads as in
    /// real social platforms (reads dominate writes).
    pub fn social_network_default() -> Self {
        Self {
            days: 1,
            peak_rps: 60.0,
            burst_factor: 1.0,
            volume_scale: 1.0,
            api_mix: vec![
                ("/homeTimelineAPI".to_string(), 0.30),
                ("/userTimelineAPI".to_string(), 0.15),
                ("/composeAPI".to_string(), 0.15),
                ("/getMediaAPI".to_string(), 0.12),
                ("/uploadMediaAPI".to_string(), 0.05),
                ("/loginAPI".to_string(), 0.08),
                ("/registerAPI".to_string(), 0.03),
                ("/followAPI".to_string(), 0.07),
                ("/unfollowAPI".to_string(), 0.05),
            ],
            day_jitter: 0.1,
            profile: DiurnalProfile::default(),
            shape: WorkloadShape::Diurnal,
            seed: 97,
        }
    }

    /// The default mix for the hotel reservation system, following the
    /// DeathStarBench mixture (search-dominated).
    pub fn hotel_reservation_default() -> Self {
        Self {
            days: 1,
            peak_rps: 45.0,
            burst_factor: 1.0,
            volume_scale: 1.0,
            api_mix: vec![
                ("/hotelsAPI".to_string(), 0.60),
                ("/recommendationsAPI".to_string(), 0.38),
                ("/userAPI".to_string(), 0.005),
                ("/reservationAPI".to_string(), 0.005),
                ("/homeAPI".to_string(), 0.01),
            ],
            day_jitter: 0.1,
            profile: DiurnalProfile::default(),
            shape: WorkloadShape::Diurnal,
            seed: 131,
        }
    }

    /// Scale the workload by a burst factor (builder style), e.g. the 5×
    /// user surge of the paper's hybrid-cloud scenario.
    pub fn with_burst(mut self, factor: f64) -> Self {
        self.burst_factor = factor;
        self
    }

    /// Replace the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Error raised when the workload options do not match the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// An API in the mix does not exist in the topology.
    UnknownApi(String),
    /// The mix is empty or has non-positive total weight.
    EmptyMix,
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::UnknownApi(a) => write!(f, "API {a} not offered by the application"),
            WorkloadError::EmptyMix => write!(f, "the API mix is empty"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// The workload generator.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    options: WorkloadOptions,
}

impl WorkloadGenerator {
    /// Create a generator from options.
    pub fn new(options: WorkloadOptions) -> Self {
        Self { options }
    }

    /// The options in use.
    pub fn options(&self) -> &WorkloadOptions {
        &self.options
    }

    /// Generate the request schedule for `topology`.
    pub fn generate(&self, topology: &AppTopology) -> Result<RequestSchedule, WorkloadError> {
        let opts = &self.options;
        let total_weight: f64 = opts.api_mix.iter().map(|(_, w)| *w).sum();
        if opts.api_mix.is_empty() || total_weight <= 0.0 {
            return Err(WorkloadError::EmptyMix);
        }
        for (api, _) in &opts.api_mix {
            if topology.api(api).is_none() {
                return Err(WorkloadError::UnknownApi(api.clone()));
            }
        }

        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut schedule = RequestSchedule::new();
        let day_s = opts.profile.day_seconds;
        for day in 0..opts.days {
            let day_scale = if opts.day_jitter > 0.0 {
                1.0 + rng.gen_range(-opts.day_jitter..=opts.day_jitter)
            } else {
                1.0
            };
            for second in 0..day_s {
                let fraction = second as f64 / day_s as f64;
                let rate = opts.peak_rps
                    * opts.shape.intensity(&opts.profile, day, fraction)
                    * opts.burst_factor
                    * opts.volume_scale
                    * day_scale;
                // Poisson-ish arrivals: the number of requests in this second
                // is the integer part plus a Bernoulli remainder.
                let expected = rate.max(0.0);
                let mut count = expected.floor() as u64;
                if rng.gen::<f64>() < expected - count as f64 {
                    count += 1;
                }
                let base_us = (day as u64 * day_s + second) * 1_000_000;
                let mut offsets: Vec<u64> =
                    (0..count).map(|_| rng.gen_range(0..1_000_000)).collect();
                offsets.sort_unstable();
                for off in offsets {
                    let api = Self::pick_api(&mut rng, &opts.api_mix, total_weight);
                    schedule.push(base_us + off, api);
                }
            }
        }
        Ok(schedule)
    }

    fn pick_api(rng: &mut StdRng, mix: &[(String, f64)], total: f64) -> String {
        let mut pick = rng.gen::<f64>() * total;
        for (api, w) in mix {
            if pick <= *w {
                return api.clone();
            }
            pick -= *w;
        }
        mix.last().expect("mix checked non-empty").0.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::social_network::{social_network, SocialNetworkOptions};

    fn app() -> AppTopology {
        social_network(SocialNetworkOptions::default())
    }

    #[test]
    fn diurnal_profile_peaks_where_configured() {
        let p = DiurnalProfile::default();
        let at_peak = p.intensity(p.first_peak);
        let at_trough = p.intensity(0.1);
        assert!(at_peak > 0.95);
        assert!(at_trough < at_peak);
        assert!(at_trough >= 1.0 / p.peak_to_trough - 1e-9);
        // Periodicity.
        assert!((p.intensity(1.25) - p.intensity(0.25)).abs() < 1e-9);
    }

    #[test]
    fn generates_traffic_matching_the_mix() {
        let gen = WorkloadGenerator::new(WorkloadOptions::social_network_default());
        let schedule = gen.generate(&app()).unwrap();
        assert!(
            schedule.len() > 1_000,
            "expected a busy day, got {}",
            schedule.len()
        );
        let counts = schedule.counts_per_api();
        // The read-heavy APIs must dominate the write APIs.
        assert!(counts["/homeTimelineAPI"] > counts["/registerAPI"]);
        assert!(counts["/homeTimelineAPI"] > counts["/uploadMediaAPI"]);
        // Every API in the mix appears.
        assert_eq!(counts.len(), 9);
    }

    #[test]
    fn burst_factor_scales_the_volume() {
        let base = WorkloadGenerator::new(WorkloadOptions::social_network_default().with_seed(3))
            .generate(&app())
            .unwrap();
        let burst = WorkloadGenerator::new(
            WorkloadOptions::social_network_default()
                .with_seed(3)
                .with_burst(5.0),
        )
        .generate(&app())
        .unwrap();
        let ratio = burst.len() as f64 / base.len() as f64;
        assert!(
            (4.0..6.0).contains(&ratio),
            "5x burst should roughly quintuple the requests (ratio {ratio})"
        );
    }

    #[test]
    fn volume_scale_multiplies_requests_without_changing_the_mix() {
        let base = WorkloadGenerator::new(WorkloadOptions::social_network_default().with_seed(3))
            .generate(&app())
            .unwrap();
        let dense = WorkloadGenerator::new(WorkloadOptions {
            volume_scale: 10.0,
            ..WorkloadOptions::social_network_default().with_seed(3)
        })
        .generate(&app())
        .unwrap();
        let ratio = dense.len() as f64 / base.len() as f64;
        assert!(
            (9.0..11.0).contains(&ratio),
            "10x volume should roughly 10x the requests (ratio {ratio})"
        );
        // Same span of time, same read-dominated mix — only denser.
        assert_eq!(dense.duration_s(), base.duration_s());
        let counts = dense.counts_per_api();
        assert!(counts["/homeTimelineAPI"] > counts["/registerAPI"]);
    }

    #[test]
    fn deterministic_per_seed() {
        let opts = WorkloadOptions::social_network_default().with_seed(9);
        let a = WorkloadGenerator::new(opts.clone())
            .generate(&app())
            .unwrap();
        let b = WorkloadGenerator::new(opts).generate(&app()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn multi_day_schedules_extend_in_time() {
        let days = |days| WorkloadOptions {
            days,
            ..WorkloadOptions::social_network_default()
        };
        let one = WorkloadGenerator::new(days(1)).generate(&app()).unwrap();
        let two = WorkloadGenerator::new(days(2)).generate(&app()).unwrap();
        assert!(two.duration_s() > one.duration_s());
        assert!(two.len() > one.len());
    }

    #[test]
    fn unknown_api_and_empty_mix_are_rejected() {
        let mut opts = WorkloadOptions::social_network_default();
        opts.api_mix.push(("/bogusAPI".to_string(), 0.5));
        let err = WorkloadGenerator::new(opts).generate(&app()).unwrap_err();
        assert_eq!(err, WorkloadError::UnknownApi("/bogusAPI".to_string()));

        let empty = WorkloadOptions {
            api_mix: vec![],
            ..WorkloadOptions::social_network_default()
        };
        assert_eq!(
            WorkloadGenerator::new(empty).generate(&app()).unwrap_err(),
            WorkloadError::EmptyMix
        );
    }

    #[test]
    fn flash_crowd_spikes_only_its_day() {
        let base = WorkloadOptions {
            days: 2,
            ..WorkloadOptions::social_network_default().with_seed(5)
        };
        let crowd = WorkloadOptions {
            shape: WorkloadShape::FlashCrowd {
                day: 1,
                at: 0.3,
                width: 0.02,
                magnitude: 6.0,
            },
            ..base.clone()
        };
        let quiet = WorkloadGenerator::new(base).generate(&app()).unwrap();
        let spiky = WorkloadGenerator::new(crowd).generate(&app()).unwrap();
        let day_us = 300u64 * 1_000_000;
        let in_day = |s: &atlas_sim::RequestSchedule, day: u64| {
            s.requests()
                .iter()
                .filter(|r| r.at_us / day_us == day)
                .count() as f64
        };
        // Day 0 is untouched; day 1 carries the crowd.
        let d0_ratio = in_day(&spiky, 0) / in_day(&quiet, 0);
        let d1_ratio = in_day(&spiky, 1) / in_day(&quiet, 1);
        assert!(
            (0.95..1.05).contains(&d0_ratio),
            "day 0 unchanged ({d0_ratio})"
        );
        assert!(d1_ratio > 1.15, "the crowd must add volume ({d1_ratio})");
        // The spike locally exceeds the nominal diurnal peak.
        let window = |s: &atlas_sim::RequestSchedule, lo: f64, hi: f64| {
            s.requests()
                .iter()
                .filter(|r| {
                    let f = (r.at_us % day_us) as f64 / day_us as f64;
                    r.at_us / day_us == 1 && f >= lo && f < hi
                })
                .count() as f64
        };
        assert!(window(&spiky, 0.28, 0.32) > 3.0 * window(&quiet, 0.28, 0.32));
    }

    #[test]
    fn flash_crowd_near_midnight_has_no_phantom_opposite_bump() {
        let profile = DiurnalProfile::default();
        let shape = WorkloadShape::FlashCrowd {
            day: 1,
            at: 0.02,
            width: 0.02,
            magnitude: 6.0,
        };
        // At the spike itself the rate multiplies…
        assert!(shape.intensity(&profile, 1, 0.02) > 4.0 * profile.intensity(0.02));
        // …but the *other* end of the same day stays on the diurnal curve
        // (the crowd is a one-off event, not a periodic signal).
        let far_end = shape.intensity(&profile, 1, 0.98);
        assert!((far_end - profile.intensity(0.98)).abs() < 1e-9);
    }

    #[test]
    fn weekends_carry_less_traffic() {
        let opts = WorkloadOptions {
            days: 7,
            shape: WorkloadShape::WeekdayWeekend {
                weekend_scale: 0.35,
            },
            ..WorkloadOptions::social_network_default().with_seed(6)
        };
        let schedule = WorkloadGenerator::new(opts).generate(&app()).unwrap();
        let day_us = 300u64 * 1_000_000;
        let per_day: Vec<usize> = (0..7)
            .map(|d| {
                schedule
                    .requests()
                    .iter()
                    .filter(|r| r.at_us / day_us == d)
                    .count()
            })
            .collect();
        let weekday_mean = per_day[..5].iter().sum::<usize>() as f64 / 5.0;
        for weekend in &per_day[5..] {
            assert!(
                (*weekend as f64) < 0.6 * weekday_mean,
                "weekend day ({weekend}) should be far below the weekday mean ({weekday_mean})"
            );
        }
    }

    #[test]
    fn batch_nights_fill_the_trough() {
        let profile = DiurnalProfile::default();
        let shape = WorkloadShape::BatchNight { night_level: 0.9 };
        // Inside the night window the floor applies; at the peaks the
        // diurnal curve wins; in the daytime trough nothing changes.
        assert!(shape.intensity(&profile, 0, 0.05) >= 0.9);
        assert!(shape.intensity(&profile, 0, 0.95) >= 0.9);
        let day_trough = shape.intensity(&profile, 0, 0.2);
        assert!((day_trough - profile.intensity(0.2)).abs() < 1e-12);
        assert!(shape.intensity(&profile, 0, profile.first_peak) > 0.95);
    }

    #[test]
    fn shaped_workloads_stay_deterministic() {
        let opts = WorkloadOptions {
            days: 2,
            shape: WorkloadShape::FlashCrowd {
                day: 0,
                at: 0.6,
                width: 0.03,
                magnitude: 4.0,
            },
            ..WorkloadOptions::social_network_default().with_seed(8)
        };
        let a = WorkloadGenerator::new(opts.clone())
            .generate(&app())
            .unwrap();
        let b = WorkloadGenerator::new(opts).generate(&app()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn hotel_defaults_match_its_topology() {
        let app = crate::hotel_reservation::hotel_reservation();
        let gen = WorkloadGenerator::new(WorkloadOptions::hotel_reservation_default());
        let schedule = gen.generate(&app).unwrap();
        assert!(schedule.len() > 500);
        let counts = schedule.counts_per_api();
        assert!(counts["/hotelsAPI"] > counts["/reservationAPI"]);
    }
}
