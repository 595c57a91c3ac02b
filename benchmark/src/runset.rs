//! Run sets: every workload, each run in a fresh child process (so that
//! `peak_rss_mb` is per workload and one workload's allocator state cannot
//! colour the next), repeated round-robin; and the comparison of two run
//! sets under the bounds table.
//!
//! Single runs on a shared machine spread more than the bounds allow, so a
//! bound is only ever applied to the medians of two run sets.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::json::Json;
use crate::{run, spec, stats};

pub struct RunSetArgs {
    pub seed: u64,
    pub seconds: f64,
    pub repeat: usize,
    pub trace: bool,
    pub smoke: bool,
    pub out: PathBuf,
}

/// One child run: its parsed result line, or why there is none.
fn child_run(args: &RunSetArgs, workload: &str, trace: bool) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out);
    if args.smoke {
        command.arg("--smoke");
    }
    // The child's stderr (invalid-run reasons) passes through.
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| {
        format!(
            "{workload}: no result line (exit {:?}): {e}",
            output.status.code()
        )
    })?;
    if trace {
        // The traced run's table (a headline, then rows indented under the
        // workload's name) is the part of its output worth reading.
        let row = format!("{workload}   ");
        for line in stdout
            .lines()
            .filter(|l| l.starts_with(&row) || l.contains("where the time goes"))
        {
            println!("{line}");
        }
    }
    Ok((result, output.status.success()))
}

pub fn run_set(args: &RunSetArgs) -> ExitCode {
    let mut runs: Vec<Json> = Vec::new();
    let mut ok = true;
    let mut record = |workload: &str, trace: bool, runs: &mut Vec<Json>| match child_run(
        args, workload, trace,
    ) {
        Ok((result, success)) => {
            ok &= success;
            let mut fields = vec![
                ("workload".to_string(), Json::Str(workload.into())),
                ("trace".to_string(), Json::Bool(trace)),
            ];
            fields.extend(result.as_object().iter().cloned());
            runs.push(Json::Obj(fields));
        }
        Err(reason) => {
            ok = false;
            eprintln!("atlas-benchmark: {reason}");
        }
    };
    // Round-robin, so that slow drift of the machine spreads over every
    // workload instead of landing on one.
    for repeat in 0..args.repeat {
        for workload in &spec::WORKLOADS {
            eprintln!("run {}/{} {}", repeat + 1, args.repeat, workload.name);
            record(workload.name, false, &mut runs);
        }
    }
    if args.trace {
        for workload in &spec::WORKLOADS {
            eprintln!("traced run {}", workload.name);
            record(workload.name, true, &mut runs);
        }
    }

    let document = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("repeat", Json::Num(args.repeat as f64)),
        (
            "env",
            Json::obj([("cores", Json::Num(run::cores() as f64))]),
        ),
        ("runs", Json::Arr(runs)),
    ]);
    print_summary(&document);
    let path = args.out.join("runset.json");
    let written =
        std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, document.pretty()));
    match written {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(error) => eprintln!("could not write {}: {error}", path.display()),
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(crate::EXIT_FAILED)
    }
}

/// `(workload, metric)` → `(unit, values)` over the runs of one kind.
type Series = BTreeMap<(String, String), (String, Vec<f64>)>;

fn series(document: &Json, trace: bool) -> Series {
    let mut out = Series::new();
    for run in document.get("runs").map_or(&[][..], Json::as_array) {
        if run.get("trace").and_then(Json::as_bool) != Some(trace) {
            continue;
        }
        let workload = run.get("workload").and_then(Json::as_str).unwrap_or("?");
        for (name, metric) in run.get("metrics").map_or(&[][..], Json::as_object) {
            let entry = out
                .entry((workload.to_string(), name.clone()))
                .or_insert_with(|| {
                    let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
                    (unit.to_string(), Vec::new())
                });
            entry.1.extend(metric.get("value").and_then(Json::as_f64));
        }
    }
    out
}

/// Median and quartiles per (workload, metric), in spec order.
fn print_summary(document: &Json) {
    for trace in [false, true] {
        let all = series(document, trace);
        if all.is_empty() {
            continue;
        }
        println!(
            "{:<15} {:<32} {:>14} {:>14} {:>14} {:<6} runs",
            "workload", "metric", "median", "q1", "q3", "unit"
        );
        let names: Vec<&str> = if trace {
            spec::PER_LAYER.iter().map(|p| p.name).collect()
        } else {
            spec::END_TO_END.iter().map(|e| e.name).collect()
        };
        for workload in &spec::WORKLOADS {
            for name in &names {
                let key = (workload.name.to_string(), (*name).to_string());
                if let Some((unit, values)) = all.get(&key) {
                    let [q1, q2, q3] = stats::quartiles(values);
                    println!(
                        "{:<15} {:<32} {:>14.4} {:>14.4} {:>14.4} {:<6} {}",
                        workload.name,
                        name,
                        q2,
                        q1,
                        q3,
                        unit,
                        values.len()
                    );
                }
            }
        }
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Apply the bounds table to two run sets: for every (workload, end-to-end
/// metric), how far the second set's median is worse than the first's, as a
/// share of the first's. A pair is *unresolved* when either set's own
/// spread is wider than the bound, unless every run of one side beats every
/// run of the other.
pub fn compare(a: &Path, b: &Path) -> ExitCode {
    let (first, second) = match (load(a), load(b)) {
        (Ok(first), Ok(second)) => (series(&first, false), series(&second, false)),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("atlas-benchmark: {e}");
            return ExitCode::from(crate::EXIT_USAGE);
        }
    };
    println!(
        "{:<15} {:<18} {:>12} {:>12} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "first", "second", "worse by", "bound", "spread1", "spread2"
    );
    let mut regressed = false;
    for workload in &spec::WORKLOADS {
        for metric in &spec::END_TO_END {
            let key = (workload.name.to_string(), metric.name.to_string());
            let (Some((_, xs)), Some((_, ys))) = (first.get(&key), second.get(&key)) else {
                println!(
                    "{:<15} {:<18} missing from a run set",
                    workload.name, metric.name
                );
                regressed = true;
                continue;
            };
            let (x, y) = (stats::median(xs), stats::median(ys));
            let lower_is_better = metric.better == "lower";
            let worse_by = if x == 0.0 {
                0.0
            } else if lower_is_better {
                (y - x) / x.abs()
            } else {
                (x - y) / x.abs()
            };
            let (spread_x, spread_y) = (stats::spread(xs), stats::spread(ys));
            let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
            let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
            let disjoint = max(xs) < min(ys) || max(ys) < min(xs);
            let verdict = if worse_by > metric.bound {
                if spread_x.max(spread_y) > metric.bound && !disjoint {
                    "unresolved (worse, but within the sets' own spread)"
                } else {
                    regressed = true;
                    "REGRESSED"
                }
            } else if spread_x.max(spread_y) > metric.bound && !disjoint {
                "unresolved (spread wider than the bound)"
            } else {
                "ok"
            };
            println!(
                "{:<15} {:<18} {:>12.4} {:>12.4} {:>8.2}% {:>6.1}% {:>7.2}% {:>7.2}%  {verdict}",
                workload.name,
                metric.name,
                x,
                y,
                worse_by * 100.0,
                metric.bound * 100.0,
                spread_x * 100.0,
                spread_y * 100.0
            );
        }
    }
    if regressed {
        ExitCode::from(crate::EXIT_FAILED)
    } else {
        ExitCode::SUCCESS
    }
}
