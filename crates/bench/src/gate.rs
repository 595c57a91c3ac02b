//! The sweep's regression gate: a table of rules over `BENCH_sweep.json`
//! documents, evaluated in process on the fresh one against the committed.
//!
//! A rule selects points by what they are, then holds either an expression
//! over a point's own metrics to a threshold (same machine, same run) or one
//! metric within a factor of its committed value, in the direction the
//! benchmark's spec gives that metric. The committed numbers come from
//! whatever machine recorded them last, so the 2× factor doubles as
//! cross-machine tolerance; deterministic metrics get tight factors. A rule
//! that cannot be evaluated is [`Verdict::Skipped`] with the reason, never a
//! pass, and a rule whose selector finds no fresh point fails: no path can
//! drop out of the sweep silently.

use std::fmt;

use atlas_benchmark::json::Json;
use atlas_benchmark::spec::{HUB_OPEN, RESIDENT_DRIFT};

use crate::sweep::{metric, name, points, spec_metrics, PARALLEL_PROBE_POINT, PARALLEL_SPEEDUP};
use Check::{AtLeast, Within};

/// The outcome of one rule on one point, with the line to print for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The rule holds.
    Ok(String),
    /// The rule is broken, or the fresh document lacks what it reads.
    Fail(String),
    /// The rule could not be evaluated; the line ends with the reason.
    Skipped(String),
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (state, line) = match self {
            Verdict::Ok(line) => ("OK", line),
            Verdict::Fail(line) => ("FAILED", line),
            Verdict::Skipped(line) => ("SKIPPED", line),
        };
        write!(f, "bench gate {state}: {line}")
    }
}

/// Which points a rule applies to, and how the rule's label says so.
type Selector = (&'static str, fn(&Json) -> bool);

/// An expression over a point's measured metrics, looked up by name.
type Expression = fn(&dyn Fn(&str) -> Option<f64>) -> Option<f64>;

enum Check {
    /// The expression (with its text) is at least the threshold.
    AtLeast(&'static str, Expression, f64),
    /// The metric is no worse than its committed value by more than the
    /// factor, "worse" read from the spec's `better`.
    Within(&'static str, f64),
}

/// One rule: where, what, and a metric that must read more than 1 for the
/// rule to mean anything (cores, workers; at 1 the rule is skipped).
pub(crate) struct Rule(Selector, Check, Option<&'static str>);

const fn at_least(on: Selector, text: &'static str, value: Expression, threshold: f64) -> Rule {
    Rule(on, AtLeast(text, value, threshold), None)
}

const fn within(on: Selector, metric: &'static str, factor: f64) -> Rule {
    Rule(on, Within(metric, factor), None)
}

fn number(point: &Json, key: &str) -> f64 {
    point.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn cold(point: &Json) -> bool {
    ![RESIDENT_DRIFT, HUB_OPEN].contains(&name(point))
}

const EVERY: Selector = ("every point", |_| true);
const COLD: Selector = ("every cold point", cold);
const SMALLEST: Selector = ("25x2", |p| name(p) == "25x2");
const PROBE: Selector = (PARALLEL_PROBE_POINT, |p| name(p) == PARALLEL_PROBE_POINT);
const RESIDENT: Selector = (RESIDENT_DRIFT, |p| name(p) == RESIDENT_DRIFT);
const HUB: Selector = (HUB_OPEN, |p| name(p) == HUB_OPEN);
const MULTI_SITE: Selector = ("cold points on > 2 sites", |p| {
    cold(p) && number(p, "sites") > 2.0
});
const VOLUME: Selector = ("cold points at volume_scale > 1", |p| {
    cold(p) && number(p, "volume_scale") > 1.0
});
const FROM_100: Selector = ("cold points of >= 100 components", |p| {
    cold(p) && number(p, "components") >= 100.0
});
/// From 250 components up walking the compiled traces is most of an
/// evaluation, so where children are scored shows in the in-search rate; and
/// only a search that trains no agent scores every plan through a batch path.
const WIDE: Selector = ("uniform-crossover cold points of >= 250 components", |p| {
    let uniform = p.get("uniform_crossover") == Some(&Json::Bool(true));
    cold(p) && uniform && number(p, "components") >= 250.0
});

/// The gate. CHANGES.md (PR 17) maps every gate of the retired string-scanning
/// `gate.rs` to a row here, or to the reason it went.
pub(crate) const RULES: [Rule; 18] = [
    // Every output check of the benchmark library: the same front on every
    // op, hub == serial, oracle agreement, a drift replay that fires.
    at_least(EVERY, "ok_ratio", |m| m("ok_ratio"), 1.0),
    at_least(
        COLD,
        "kernel.lanes_evals_per_s / kernel.scalar_evals_per_s",
        |m| Some(m("kernel.lanes_evals_per_s")? / m("kernel.scalar_evals_per_s")?),
        0.9,
    ),
    // Offspring scored one plan at a time read as an in-search rate at the
    // scalar kernel's; scored in lane groups it sits above the geometric
    // mean.
    at_least(
        WIDE,
        "1000 eval.unique_evals / eval.score_ms / sqrt(kernel.scalar x lanes evals/s)",
        |m| {
            let in_search = 1e3 * m("eval.unique_evals")? / m("eval.score_ms")?;
            let kernel = m("kernel.scalar_evals_per_s")? * m("kernel.lanes_evals_per_s")?;
            Some(in_search / kernel.sqrt())
        },
        1.0,
    ),
    // A drift resync relearns the traces only and holds footprint and demand.
    at_least(
        RESIDENT,
        "learn.atlas_learn_ms / learn.relearn_dirty_ms",
        |m| Some(m("learn.atlas_learn_ms")? / m("learn.relearn_dirty_ms")?),
        1.5,
    ),
    Rule(
        HUB,
        AtLeast(
            "hub.capacity_per_s / hub.capacity_1w_per_s",
            |m| Some(m("hub.capacity_per_s")? / m("hub.capacity_1w_per_s")?),
            1.5,
        ),
        Some("env.workers"),
    ),
    Rule(
        PROBE,
        AtLeast(PARALLEL_SPEEDUP, |m| m(PARALLEL_SPEEDUP), 1.0),
        Some("env.cores"),
    ),
    within(SMALLEST, "kernel.scalar_evals_per_s", 2.0),
    within(SMALLEST, "eval.offspring_evals_per_s", 2.0),
    within(SMALLEST, "telemetry.ingest_traces_per_s", 2.0),
    within(MULTI_SITE, "kernel.scalar_evals_per_s", 2.0),
    within(MULTI_SITE, "eval.offspring_evals_per_s", 2.0),
    within(MULTI_SITE, "telemetry.ingest_traces_per_s", 2.0),
    within(VOLUME, "learn.atlas_learn_ms", 2.0),
    // A count, the same on every machine: clustering must not start keeping
    // more representatives of the same corpus.
    within(VOLUME, "learn.representative_traces", 1.0),
    within(RESIDENT, "service.feed_drift_ms", 2.0),
    within(HUB, "hub.capacity_per_s", 2.0),
    within(HUB, "latency_p90_ms", 2.0),
    // Seeded and deterministic: BENCHMARK.json's own 0.1 % bound.
    within(FROM_100, "front_hypervolume", 1.001),
];

fn higher_is_better(metric: &str) -> bool {
    let (.., better) = spec_metrics()
        .find(|(name, ..)| *name == metric)
        .expect("relative rules name metrics of the benchmark's spec");
    better == "higher"
}

impl Rule {
    /// What the rule checks and where, e.g. `ok_ratio >= 1 on every point`.
    fn label(&self) -> String {
        let what = match self.1 {
            AtLeast(text, _, threshold) => format!("{text} >= {threshold}"),
            Within(metric, factor) => format!("{metric} within {factor}x of committed"),
        };
        format!("{what} on {}", self.0 .0)
    }

    /// The rule on every point of `fresh` it selects.
    fn on(&self, fresh: &Json, committed: &Json) -> Vec<Verdict> {
        let selected = points(fresh).iter().filter(|point| (self.0 .1)(point));
        let verdicts: Vec<Verdict> = selected.map(|point| self.judge(point, committed)).collect();
        if verdicts.is_empty() {
            let line = format!("{}: the fresh sweep has no such point", self.label());
            return vec![Verdict::Fail(line)];
        }
        verdicts
    }

    fn judge(&self, point: &Json, committed: &Json) -> Verdict {
        let at = format!("{} @ {}", self.label(), name(point));
        let fresh = |wanted: &str| metric(point, wanted);
        // A late open-loop generator: no op failed, no timing can be trusted.
        let invalid = point.get("invalid").map_or(&[][..], Json::as_array);
        if let (Some(reason), true) = (invalid.first(), number(point, "failed") == 0.0) {
            return Verdict::Skipped(format!("{at}: the measurement is invalid: {reason}"));
        }
        if let Some(many) = self.2.filter(|many| fresh(many).unwrap_or(0.0) <= 1.0) {
            return Verdict::Skipped(format!("{at}: {many} is 1"));
        }
        let (value, holds, versus) = match self.1 {
            AtLeast(_, value, threshold) => {
                let value = value(&fresh).map(|v| (v * 1e4).round() / 1e4);
                let holds = value.is_some_and(|v| v >= threshold);
                (value, holds, String::new())
            }
            Within(wanted, factor) => {
                let same_point = points(committed).iter().find(|c| name(c) == name(point));
                let Some(c) = same_point.and_then(|c| metric(c, wanted)) else {
                    let why = "absent from the committed BENCH_sweep.json";
                    return Verdict::Skipped(format!("{at}: {why}"));
                };
                let holds = fresh(wanted).is_some_and(|f| match higher_is_better(wanted) {
                    true => f * factor >= c,
                    false => f <= c * factor,
                });
                (fresh(wanted), holds, format!(" vs committed {c}"))
            }
        };
        match value {
            Some(value) if holds => Verdict::Ok(format!("{at}: {value}{versus}")),
            Some(value) => Verdict::Fail(format!("{at}: {value}{versus}")),
            None => Verdict::Fail(format!("{at}: not measured by the fresh sweep")),
        }
    }
}

/// Every rule on every point of `fresh` it selects, against `committed`
/// (`Json::Null` when no document is committed).
pub fn check(fresh: &Json, committed: &Json) -> Vec<Verdict> {
    let rules = RULES.iter();
    rules.flat_map(|rule| rule.on(fresh, committed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{identity, POINTS};

    /// The real table's points, every one carrying every metric a real point
    /// carries: 2 everywhere but the two denominators that make the ratio
    /// rules hold, with `edits` on top. Held against itself it passes.
    fn document(edits: &[Edit], invalid: &[&str]) -> Json {
        let base = [
            ("learn.relearn_dirty_ms", 1.0),
            ("hub.capacity_1w_per_s", 1.0),
        ];
        let value = |name: &'static str| {
            let edit = edits.iter().chain(&base).find(|edit| edit.0 == name);
            (name, Json::Num(edit.map_or(2.0, |edit| edit.1)))
        };
        let names = spec_metrics().map(|(name, ..)| name);
        let metrics = Json::obj(names.chain([PARALLEL_SPEEDUP]).map(value));
        let invalid = Json::Arr(invalid.iter().map(|r| Json::Str(r.to_string())).collect());
        let point = |p| {
            let mut fields = identity(p);
            fields.push(("failed", Json::Num(0.0)));
            fields.push(("invalid", invalid.clone()));
            fields.push(("metrics", metrics.clone()));
            Json::obj(fields)
        };
        Json::obj([("points", Json::Arr(POINTS.iter().map(point).collect()))])
    }

    /// The distinct states of one rule's verdicts on two documents.
    fn states(rule: &Rule, fresh: &Json, committed: &Json) -> Vec<&'static str> {
        let state = |verdict| match verdict {
            Verdict::Ok(_) => "ok",
            Verdict::Fail(_) => "failed",
            Verdict::Skipped(_) => "skipped",
        };
        let mut states: Vec<&str> = rule.on(fresh, committed).into_iter().map(state).collect();
        states.dedup();
        states
    }

    /// A metric and the value a document is edited to carry for it.
    type Edit = (&'static str, f64);

    /// The absolute rules, in table order: the edit that breaks each and,
    /// where the rule can skip on its own, the edit that skips it. Relative
    /// rules derive both from the rule.
    const ABSOLUTE: [(Edit, Option<Edit>); 6] = [
        (("ok_ratio", 0.9999), None),
        (("kernel.lanes_evals_per_s", 1.0), None),
        (("eval.score_ms", 2_000.0), None),
        (("learn.relearn_dirty_ms", 1.9), None),
        (("hub.capacity_1w_per_s", 1.9), Some(("env.workers", 1.0))),
        ((PARALLEL_SPEEDUP, 0.97), Some(("env.cores", 1.0))),
    ];

    #[test]
    fn every_rule_passes_fails_and_skips() {
        let healthy = document(&[], &[]);
        for (i, rule) in RULES.iter().enumerate() {
            let (breaks, skips) = match rule.1 {
                AtLeast(..) => {
                    let skips = ABSOLUTE[i].1.map(|edit| document(&[edit], &[]));
                    (ABSOLUTE[i].0, skips.map(|fresh| (fresh, healthy.clone())))
                }
                Within(metric, factor) => {
                    let worse = match higher_is_better(metric) {
                        true => 2.0 / (factor + 0.01),
                        false => 2.0 * (factor + 0.01),
                    };
                    // A committed document that never measured the metric.
                    let without = document(&[(metric, 0.0)], &[]);
                    ((metric, worse), Some((healthy.clone(), without)))
                }
            };
            let label = rule.label();
            assert_eq!(states(rule, &healthy, &healthy), ["ok"], "{label}");
            let broken = document(&[breaks], &[]);
            assert_eq!(states(rule, &broken, &healthy), ["failed"], "{label}");
            let unmeasured = document(&[(breaks.0, 0.0)], &[]);
            assert_eq!(states(rule, &unmeasured, &healthy), ["failed"], "{label}");
            let late = document(&[], &["the generator ran late"]);
            assert_eq!(states(rule, &late, &healthy), ["skipped"], "{label}");
            if let Some((fresh, committed)) = skips {
                assert_eq!(states(rule, &fresh, &committed), ["skipped"], "{label}");
            }
            // No committed document at all: a relative rule skips.
            let skips = matches!(rule.1, Within(..));
            let alone = states(rule, &healthy, &Json::Null);
            assert_eq!(alone, [if skips { "skipped" } else { "ok" }], "{label}");
        }
    }

    #[test]
    fn the_sweep_always_holds_the_points_the_rules_need() {
        // A > 2-site point, a volume_scale > 1 point, a >= 250-component
        // uniform point (and every other selector's) are in the table ...
        for rule in &RULES {
            let selects = |p| (rule.0 .1)(&Json::obj(identity(p)));
            assert!(POINTS.iter().any(selects), "{}", rule.label());
        }
        // ... and the gate fails a fresh document that lost one.
        let healthy = document(&[], &[]);
        for (what, lost) in [MULTI_SITE, VOLUME, WIDE] {
            let kept = points(&healthy).iter().filter(|p| !lost(p)).cloned();
            let fresh = Json::obj([("points", Json::Arr(kept.collect()))]);
            let mut lines = check(&fresh, &healthy).into_iter().map(|v| v.to_string());
            let missing = format!("on {what}: the fresh sweep has no such point");
            assert!(lines.any(|line| line.ends_with(&missing)), "{what}");
        }
    }
}
