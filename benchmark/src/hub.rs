//! The serving workload: four tenants behind one `AdvisorHub`, reads under
//! arrival pressure with writes beside them.
//!
//! Phase A is a closed loop for throughput: round-robin requests through
//! `AdvisorHub::serve`, first with one worker, then with `W = min(cores, 2)`.
//! Phase B is an open loop for latency: Poisson arrivals at a fixed 16
//! req/s, tenant drawn uniformly, precomputed from the seed. `W` benchmark
//! threads each claim the next slot of the schedule, wait until it is due
//! and call `AdvisorHub::recommend(tenant, 1)`; a request's latency runs
//! from its *due* time, so a stall is charged to every arrival that queued
//! behind it. Every 30th slot is instead a `hub.feed` of half a tenant's
//! drifting second day: relearn, publish and a fresh epoch cache while the
//! other worker keeps serving.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use atlas_core::{
    AdvisorHub, AdvisorService, HubReport, QualityModel, RecommendedPlan, ServiceEvent, TenantId,
};
use atlas_telemetry::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::front::{front_hypervolume, oracle_agrees, same_front, SearchStats};
use crate::probes::{self, ProbeInput};
use crate::resident::{service_config, SHAPE};
use crate::run::{cores, ms, panic_message, proc_status_mb, Metrics, RunArgs, Tally};
use crate::scenario::{self, derive, DAY_SECONDS};
use crate::stats;
use crate::trace::Tracer;

pub const TENANTS: usize = 4;

/// Open-loop arrival rate, requests per second.
pub const ARRIVALS_PER_S: f64 = 16.0;

/// A request answered later than this after its due time misses the limit.
pub const LATENCY_LIMIT_MS: f64 = 250.0;

/// Every this-many-th open-loop slot is a feed (until each tenant has been
/// fed both halves of its second day).
const FEED_EVERY: usize = 30;

/// Idle-worker start lag (90th percentile) above which the run is invalid.
pub const MAX_GENERATOR_LAG_MS: f64 = 2.0;

/// Idle-worker slots the lag check needs: below this a 90th percentile is
/// the sample's largest value or the one before, and one late wake-up on a
/// shared machine would void a (smoke) run.
const MIN_LAG_SAMPLES: usize = 20;

/// Rounds over the tenants one closed-loop `serve` call answers.
const SERVE_ROUNDS: usize = 4;

/// Hub builds `setup_s` is the median of.
const SETUP_BUILDS: usize = 3;

/// The front a tenant serves at one epoch, as the tenant's own serial
/// service computed it, and the model it was computed on.
struct Reference {
    plans: Vec<RecommendedPlan>,
    model: Arc<QualityModel>,
}

type References = BTreeMap<(usize, u64), Reference>;

/// A built hub and what the open loop feeds it.
struct Serving {
    hub: AdvisorHub,
    /// Per tenant, the two halves of its second day.
    halves: Vec<[Vec<Trace>; 2]>,
    references: References,
    bootstrap_ms: Vec<f64>,
    cold_learn_ms: Vec<f64>,
    traces: usize,
    spans: usize,
    digest: u32,
}

fn record_reference(hub: &AdvisorHub, tenant: TenantId, references: &mut References) {
    let (epoch, reference) = hub.with_tenant(tenant, |service: &AdvisorService| {
        (
            service.model_generation(),
            Reference {
                plans: service
                    .recommendation()
                    .map(|r| r.plans.clone())
                    .unwrap_or_default(),
                model: service.shared_model().expect("the tenant is bootstrapped"),
            },
        )
    });
    references.insert((tenant.0, epoch), reference);
}

fn build(args: &RunArgs) -> Serving {
    let mut serving = Serving {
        hub: AdvisorHub::new(),
        halves: Vec::new(),
        references: References::new(),
        bootstrap_ms: Vec::new(),
        cold_learn_ms: Vec::new(),
        traces: 0,
        spans: 0,
        digest: 0,
    };
    for t in 0..TENANTS {
        let (tenant_seed, _) = args.scenario_seed(t);
        let sc = scenario::build(&SHAPE, tenant_seed);
        let day2 = scenario::drift_day(&SHAPE, tenant_seed);
        let config = service_config(&sc, &SHAPE, tenant_seed);
        let mut service = AdvisorService::new(config, scenario::current_placement(&sc.scenario));
        scenario::copy_context(&sc.day1.source, service.store(), 0);
        scenario::copy_context(&day2.source, service.store(), DAY_SECONDS + 1);
        serving.traces += sc.day1.corpus.len() + day2.corpus.len();
        serving.spans += sc.day1.span_count() + day2.span_count();
        serving.digest ^= scenario::digest32(&day2.corpus);
        service.feed(sc.day1.corpus);
        let id = serving.hub.add_tenant(format!("tenant-{t}"), service);
        let start = Instant::now();
        let events = serving.hub.bootstrap(id);
        serving.bootstrap_ms.push(ms(start.elapsed()));
        serving
            .cold_learn_ms
            .extend(events.iter().find_map(|e| match e {
                ServiceEvent::Relearned { elapsed_ms, .. } => Some(*elapsed_ms),
                _ => None,
            }));
        record_reference(&serving.hub, id, &mut serving.references);
        let mut halves = scenario::batches(&day2.corpus, 2).into_iter();
        serving.halves.push([
            halves.next().unwrap_or_default(),
            halves.next().unwrap_or_default(),
        ]);
    }
    serving
}

#[derive(Clone, Copy)]
enum SlotKind {
    Request(TenantId),
    Feed(TenantId, usize),
}

struct Slot {
    due: Duration,
    kind: SlotKind,
    /// A traced run records this slot's spans. A seeded coin, not the
    /// slot's parity: feeds come every 30th slot, so parity would put every
    /// request that queues behind a feed on one side of
    /// `trace.overhead_ratio`.
    traced: bool,
}

/// The open-loop schedule of `seconds` seconds: exponential inter-arrival
/// gaps and uniform tenant draws from the seed.
fn schedule(seed: u64, seconds: f64) -> Vec<Slot> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coin = StdRng::seed_from_u64(derive(seed, 1));
    let mut slots = Vec::new();
    let mut at = 0.0f64;
    let mut feeds = 0usize;
    loop {
        at += -(1.0 - rng.gen::<f64>()).ln() / ARRIVALS_PER_S;
        let tenant = TenantId(rng.gen_range(0..TENANTS));
        if at > seconds && !slots.is_empty() {
            return slots;
        }
        let kind = if slots.len() % FEED_EVERY == FEED_EVERY - 1 && feeds < 2 * TENANTS {
            feeds += 1;
            SlotKind::Feed(TenantId((feeds - 1) % TENANTS), (feeds - 1) / TENANTS)
        } else {
            SlotKind::Request(tenant)
        };
        slots.push(Slot {
            due: Duration::from_secs_f64(at),
            kind,
            traced: coin.gen(),
        });
    }
}

/// Sleep until shortly before `due`, then spin: a sleeping thread wakes
/// tens of microseconds late (on a shared machine now and then most of a
/// millisecond), and that lag must not read as hub latency.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_millis(1);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        match (due - now).checked_sub(SPIN) {
            Some(sleep) if !sleep.is_zero() => std::thread::sleep(sleep),
            _ => std::hint::spin_loop(),
        }
    }
}

/// One open-loop slot as a worker served it.
struct Served {
    slot: usize,
    start: Instant,
    end: Instant,
    /// The worker claimed the slot before it was due and waited for it.
    idle: bool,
    /// A request's answer; `None` for a feed.
    answer: Option<Result<HubReport, String>>,
    failure: Option<String>,
}

fn open_loop(
    hub: &AdvisorHub,
    slots: &[Slot],
    batches: &[Mutex<Option<Vec<Trace>>>],
    references: &Mutex<References>,
    workers: usize,
) -> (Instant, Vec<Served>) {
    let next = AtomicUsize::new(0);
    // Leave the workers time to start before the first arrival is due.
    let origin = Instant::now() + Duration::from_millis(20);
    let mut served: Vec<Served> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(i) else {
                            return mine;
                        };
                        let due = origin + slot.due;
                        let idle = Instant::now() < due;
                        wait_until(due);
                        let start = Instant::now();
                        let (answer, failure) = match slot.kind {
                            SlotKind::Request(tenant) => {
                                let answer =
                                    catch_unwind(AssertUnwindSafe(|| hub.recommend(tenant, 1)))
                                        .map_err(|p| {
                                            format!(
                                                "request panicked: {}",
                                                panic_message(p.as_ref())
                                            )
                                        });
                                (Some(answer), None)
                            }
                            SlotKind::Feed(tenant, half) => {
                                let batch = batches[tenant.0 * 2 + half]
                                    .lock()
                                    .expect("no feed panics holding the batch lock")
                                    .take()
                                    .unwrap_or_default();
                                let fed =
                                    catch_unwind(AssertUnwindSafe(|| hub.feed(tenant, batch)));
                                (
                                    None,
                                    fed.err().map(|p| {
                                        format!("feed panicked: {}", panic_message(p.as_ref()))
                                    }),
                                )
                            }
                        };
                        let end = Instant::now();
                        if let (SlotKind::Feed(tenant, _), None) = (slot.kind, &failure) {
                            // Outside the slot's timing: remember what the
                            // tenant's own serial service recommends at the
                            // epoch this feed may have published.
                            let mut references =
                                references.lock().expect("no panic under this lock");
                            record_reference(hub, tenant, &mut references);
                        }
                        mine.push(Served {
                            slot: i,
                            start,
                            end,
                            idle,
                            answer,
                            failure,
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("open-loop workers catch their ops' panics"))
            .collect()
    });
    served.sort_by_key(|s| s.slot);
    (origin, served)
}

/// Check one answer against the reference front of the epoch it was stamped
/// with.
fn check_answer(report: &HubReport, references: &References) -> Option<String> {
    if report.report.plans.is_empty() {
        return Some("no plan returned".into());
    }
    match references.get(&(report.tenant.0, report.epoch)) {
        None => Some(format!(
            "tenant {} answered at epoch {}, which no feed published",
            report.tenant.0, report.epoch
        )),
        Some(reference) if !same_front(&reference.plans, &report.report.plans, 0.0) => {
            Some(format!(
                "tenant {} epoch {}: front differs from the serial recommendation",
                report.tenant.0, report.epoch
            ))
        }
        Some(_) => None,
    }
}

/// Closed loop: `serve` round-robin chunks for `seconds`; requests per
/// second. Every answer is checked.
fn closed_loop(
    hub: &AdvisorHub,
    seconds: f64,
    rounds: usize,
    references: &References,
    tally: &mut Tally,
) -> f64 {
    let chunk: Vec<TenantId> = (0..rounds * TENANTS)
        .map(|i| TenantId(i % TENANTS))
        .collect();
    let budget = Duration::from_secs_f64(seconds);
    let (mut answered, mut busy) = (0usize, Duration::ZERO);
    while answered == 0 || busy < budget {
        let start = Instant::now();
        let served = catch_unwind(AssertUnwindSafe(|| hub.serve(&chunk, 1)));
        busy += start.elapsed();
        answered += chunk.len();
        match served {
            Ok(reports) => {
                for report in &reports {
                    tally.op(check_answer(report, references));
                }
            }
            Err(p) => {
                let reason = format!("serve panicked: {}", panic_message(p.as_ref()));
                for _ in &chunk {
                    tally.op(Some(reason.clone()));
                }
            }
        }
    }
    answered as f64 / busy.as_secs_f64().max(1e-9)
}

pub fn run(args: &RunArgs, m: &mut Metrics) -> Tally {
    let mut tally = Tally::default();
    let workers = cores().min(2);

    let mut setup_s = Vec::new();
    let mut serving = None;
    for _ in 0..args.repeats(SETUP_BUILDS) {
        drop(serving.take());
        let start = Instant::now();
        serving = Some(build(args));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let Serving {
        mut hub,
        halves,
        references,
        bootstrap_ms,
        cold_learn_ms,
        traces,
        spans,
        digest,
    } = serving.expect("built at least once");
    let rss_after_setup = proc_status_mb("VmRSS");

    // Warm every tenant's epoch cache so both phases measure steady state.
    for t in 0..TENANTS {
        hub.recommend(TenantId(t), 1);
    }

    // Phase A: closed-loop throughput, one worker (a per-layer figure, so
    // the shorter share) then W.
    let rounds = args.repeats(SERVE_ROUNDS);
    hub.set_threads(1);
    let capacity_1w = closed_loop(&hub, args.seconds * 0.1, rounds, &references, &mut tally);
    hub.set_threads(workers);
    let capacity = closed_loop(&hub, args.seconds * 0.2, rounds, &references, &mut tally);

    // Phase B: open-loop latency.
    let slots = schedule(derive(args.seed, 300), args.seconds * 0.7);
    let batches: Vec<Mutex<Option<Vec<Trace>>>> = halves
        .into_iter()
        .flatten()
        .map(|half| Mutex::new(Some(half)))
        .collect();
    let references = Mutex::new(references);
    let (origin, served) = open_loop(&hub, &slots, &batches, &references, workers);
    // What the hub retains: every published snapshot and its eval cache.
    let rss_growth = proc_status_mb("VmRSS") - rss_after_setup;
    let references = references.into_inner().expect("no panic under this lock");

    let mut tracer = Tracer::new(origin);
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut service_ms, mut wait_ms, mut lag_ms, mut feed_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut search = SearchStats::default();
    let mut within_limit = 0usize;
    let last_due = origin + slots.last().expect("the schedule is never empty").due;
    let mut backlog_end = 0usize;
    for s in &served {
        let due = origin + slots[s.slot].due;
        if s.idle {
            lag_ms.push(ms(s.start - due));
        }
        if s.slot + 1 < slots.len() && s.start > last_due {
            backlog_end += 1;
        }
        let Some(answer) = &s.answer else {
            feed_ms.push(ms(s.end - s.start));
            tally.op(s.failure.clone());
            continue;
        };
        let latency_ms = ms(s.end - due);
        wait_ms.push(ms(s.start - due));
        let traced = args.trace && slots[s.slot].traced;
        if traced {
            &mut traced_ms
        } else {
            &mut plain_ms
        }
        .push(latency_ms);
        match answer {
            Err(reason) => tally.op(Some(reason.clone())),
            Ok(report) => {
                tally.op(check_answer(report, &references));
                service_ms.push(report.latency_ms);
                search.add(&report.report);
                if latency_ms <= LATENCY_LIMIT_MS {
                    within_limit += 1;
                }
                if traced {
                    let op = s.slot as u32;
                    let root = tracer.span("op", None, op, due, s.end);
                    tracer.span("hub.queue_wait", Some(root), op, due, s.start);
                    let call = tracer.span("hub.recommend", Some(root), op, s.start, s.end);
                    let inner = tracer.derived("search.recommend", call, report.latency_ms, 0.0);
                    tracer.derived("eval.score", inner, report.report.eval.wall_time_ms, 0.0);
                }
            }
        }
    }
    // The oracle check, once per front the hub served from.
    for ((tenant, epoch), reference) in &references {
        if !oracle_agrees(&reference.model, &reference.plans) {
            tally.op(Some(format!(
                "tenant {tenant} epoch {epoch}: a reported quality differs from the interpretive oracle"
            )));
        }
    }

    let requests = plain_ms.len() + traced_ms.len();
    let all_ms: Vec<f64> = plain_ms.iter().chain(&traced_ms).copied().collect();
    tally.samples = m.set_latency(&all_ms);
    m.set("setup_s", stats::median(&setup_s));
    m.set("ops_per_s", capacity);
    // The bootstrap fronts of the reference tenants: what they serve at
    // epoch 1 does not depend on how the open loop interleaved.
    let hypervolumes: Vec<f64> = (0..TENANTS)
        .filter_map(|t| {
            let (seed, reference) = args.scenario_seed(t);
            let front = references.get(&(t, 1)).filter(|_| reference)?;
            Some(front_hypervolume(
                &front.model,
                &front.plans,
                derive(seed, 4),
            ))
        })
        .collect();
    m.set("front_hypervolume", stats::geometric_mean(&hypervolumes));

    let percentile = |samples: &mut Vec<f64>, p: f64| {
        stats::sort(samples);
        stats::percentile(samples, p)
    };
    let lag_p90 = percentile(&mut lag_ms, 0.9);
    if lag_ms.len() >= MIN_LAG_SAMPLES && lag_p90 > MAX_GENERATOR_LAG_MS {
        tally.invalid.push(format!(
            "open-loop generator ran late: idle-worker lag p90 {lag_p90:.3} ms > {MAX_GENERATOR_LAG_MS} ms"
        ));
    }
    let first_due = origin + slots[0].due;
    let last_end = served.iter().map(|s| s.end).max().unwrap_or(origin);
    let epochs: u64 = (0..TENANTS)
        .filter_map(|t| hub.published_epoch(TenantId(t)))
        .sum();
    m.set("hub.service_p50_ms", stats::median(&service_ms));
    m.set("hub.queue_wait_p50_ms", percentile(&mut wait_ms, 0.5));
    m.set("hub.queue_wait_p90_ms", percentile(&mut wait_ms, 0.9));
    m.set("hub.generator_lag_p90_ms", lag_p90);
    m.set(
        "hub.offered_per_s",
        slots.len() as f64 / (last_due - origin).as_secs_f64().max(1e-9),
    );
    m.set(
        "hub.completed_per_s",
        served.len() as f64 / (last_end - first_due).as_secs_f64().max(1e-9),
    );
    m.set("hub.backlog_end", backlog_end as f64);
    m.set(
        "hub.within_limit_ratio",
        within_limit as f64 / requests.max(1) as f64,
    );
    m.set("hub.capacity_per_s", capacity);
    m.set("hub.capacity_1w_per_s", capacity_1w);
    m.set(
        "hub.scaling_efficiency",
        capacity / (workers as f64 * capacity_1w).max(1e-9),
    );
    m.set("hub.feed_p50_ms", stats::median(&feed_ms));
    m.set("hub.epochs_published", epochs as f64);
    m.set("hub.rss_growth_mb", rss_growth);
    m.set("hub.request_unique_evals", search.unique_evals());
    m.set("hub.cache_hit_ratio", search.cache_hit_ratio());
    m.set("input.traces", traces as f64);
    m.set("input.spans", spans as f64);
    m.set("input.digest32", f64::from(digest));
    m.set("input.scenarios", (setup_s.len() * TENANTS) as f64);
    m.set("env.workers", workers as f64);

    if args.trace {
        m.set("learn.atlas_learn_ms", stats::median(&cold_learn_ms));
        m.set("service.bootstrap_ms", stats::median(&bootstrap_ms));
        m.set("search.recommend_ms", stats::median(&service_ms));
        m.set_all(search.metrics());
        m.set(
            "trace.overhead_ratio",
            stats::median(&traced_ms) / stats::median(&plain_ms).max(1e-9),
        );
        m.set("trace.accounted_ratio", tracer.accounted_ratio());
        // Probes last, on tenant 0 as it stands after the open loop, so
        // that they contend with nothing that is measured.
        hub.with_tenant(TenantId(0), |service| {
            let model = service.model().expect("the tenant is bootstrapped");
            m.set("kernel.trace_count", model.kernel().trace_count() as f64);
            m.set("kernel.compile_ms", model.kernel_compile_ms());
            m.set(
                "learn.representative_traces",
                model.kernel().trace_count() as f64,
            );
            m.set(
                "learn.distinct_trace_ratio",
                model.kernel().trace_count() as f64
                    / (service.store().trace_count() as f64).max(1.0),
            );
            probes::run(
                &ProbeInput {
                    model,
                    store: service.store(),
                    context: service.store(),
                    atlas: &service.config().atlas,
                    report: service
                        .recommendation()
                        .expect("the tenant is bootstrapped"),
                    seed: derive(args.seed, 200),
                    budget: args.probe_time(),
                    reps: args.repeats(3),
                },
                m,
            );
        });
        crate::write_trace(args, &tracer);
    }
    tally
}
