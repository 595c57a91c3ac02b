//! The Atlas benchmark: four workloads, seven end-to-end metrics, and a
//! traced run that attributes the time to layers. See `README.md` beside
//! this package for what is measured and why.
//!
//! ```text
//! atlas-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's contract)
//! atlas-benchmark [--seed N] [--seconds S] [--repeat N] [--trace]    a run set: every workload, each run a child process
//! atlas-benchmark --compare a.json b.json                            apply the bounds to two run sets
//! atlas-benchmark --print-spec                                       BENCHMARK.json from the tables in spec.rs
//! atlas-benchmark --describe                                         the metric glossary of README.md, from the same tables
//! ```

pub mod cold;
pub mod front;
pub mod hub;
pub mod hypervolume;
pub mod json;
pub mod probes;
pub mod resident;
pub mod run;
pub mod runset;
pub mod scenario;
pub mod spec;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use run::{Metrics, RunArgs, Tally};
use trace::Tracer;

/// Exit code of a run whose outputs failed a check or whose measurement is
/// invalid; the metrics are printed first.
pub const EXIT_FAILED: u8 = 2;
/// Exit code of a bad command line.
pub const EXIT_USAGE: u8 = 64;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
    print_spec: bool,
    describe: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 11,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        repeat: 5,
        out: PathBuf::from("benchmark/results/latest"),
        compare: None,
        print_spec: false,
        describe: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => cli.workload = Some(value(&mut i, flag)?),
            "--seed" => {
                cli.seed = value(&mut i, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value(&mut i, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--repeat" => {
                cli.repeat = value(&mut i, flag)?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=100).contains(&cli.repeat) {
                    return Err("--repeat must be in 1..=100".into());
                }
            }
            "--out" => cli.out = PathBuf::from(value(&mut i, flag)?),
            // `--trace 0|1` (the driver's form) or a bare `--trace`.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    cli.trace = false;
                    i += 1;
                }
                Some("1") => {
                    cli.trace = true;
                    i += 1;
                }
                _ => cli.trace = true,
            },
            "--smoke" => cli.smoke = true,
            "--compare" => {
                let a = value(&mut i, flag)?;
                let b = value(&mut i, flag)?;
                cli.compare = Some((a.into(), b.into()));
            }
            "--print-spec" => cli.print_spec = true,
            "--describe" => cli.describe = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if let Some(name) = &cli.workload {
        if !spec::WORKLOADS.iter().any(|w| w.name == name) {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(cli)
}

/// The command line: one run, a run set, a comparison or the spec.
pub fn main(args: &[String]) -> ExitCode {
    let cli = match parse_cli(args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("atlas-benchmark: {message}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    if cli.print_spec {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if cli.describe {
        print!("{}", spec::glossary_markdown());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &cli.compare {
        return runset::compare(a, b);
    }
    match &cli.workload {
        Some(workload) => one_run(&RunArgs {
            workload: workload.clone(),
            seed: cli.seed,
            // A smoke run is 1/50 of the size.
            seconds: if cli.smoke {
                cli.seconds / 50.0
            } else {
                cli.seconds
            },
            trace: cli.trace,
            smoke: cli.smoke,
            out: cli.out.clone(),
        }),
        None => runset::run_set(&runset::RunSetArgs {
            seed: cli.seed,
            seconds: cli.seconds,
            repeat: cli.repeat,
            trace: cli.trace,
            smoke: cli.smoke,
            out: cli.out.clone(),
        }),
    }
}

/// Run one workload in this process, print every metric by name with its
/// unit, and end with the driver's one-line JSON result.
fn one_run(args: &RunArgs) -> ExitCode {
    let mut m = Metrics::default();
    let tally: Tally = match args.workload.as_str() {
        spec::COLD_FIREHOSE => cold::run(&cold::FIREHOSE, args, &mut m),
        spec::COLD_WIDE => cold::run(&cold::WIDE, args, &mut m),
        spec::RESIDENT_DRIFT => resident::run(args, &mut m),
        spec::HUB_OPEN => hub::run(args, &mut m),
        other => unreachable!("parse_cli admitted workload {other}"),
    };
    m.set(
        "ok_ratio",
        (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64,
    );
    m.set("peak_rss_mb", run::proc_status_mb("VmHWM"));
    m.set("proc.rss_end_mb", run::proc_status_mb("VmRSS"));
    m.set("env.cores", run::cores() as f64);
    if let (Some(recommend), true) = (m.get("search.recommend_ms"), args.trace) {
        let inside: f64 = [
            "eval.score_ms",
            "rl.train_ms",
            "rl.infer_ms",
            "ga.survive_ms",
        ]
        .iter()
        .filter_map(|name| m.get(name))
        .sum();
        m.set("search.other_ms", recommend - inside);
    }

    // Every metric of the run's kind, by name, with its unit. A layer the
    // workload does not exercise reads 0.
    let mut reported: Vec<(String, Json)> = Vec::new();
    let mut line = |name: &str, unit: &str, value: Option<f64>, required: bool| {
        let value = match value {
            Some(v) if v.is_finite() => v,
            _ if required => panic!(
                "{}: end-to-end metric {name} was not measured",
                args.workload
            ),
            _ => 0.0,
        };
        println!("{} {name} {value} {unit}", args.workload);
        reported.push((
            name.to_string(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ]),
        ));
    };
    if args.trace {
        for p in &spec::PER_LAYER {
            line(p.name, p.unit, m.get(p.name), false);
        }
    } else {
        for e in &spec::END_TO_END {
            line(e.name, e.unit, m.get(e.name), true);
        }
    }
    println!("{} latency_samples {} count", args.workload, tally.samples);
    for reason in &tally.invalid {
        eprintln!("{}: INVALID: {reason}", args.workload);
    }

    let correct = tally.failed == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(tally.attempted.max(1) as f64)),
            ("failed", Json::Num(tally.failed as f64)),
            ("metrics", Json::Obj(reported)),
        ])
    );
    if correct && tally.invalid.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_FAILED)
    }
}

/// Write a traced run's spans to `<out>/trace-<workload>.json` and print
/// the ranked self-time table. A result file that cannot be written is
/// reported and the run goes on: the metrics are still printed.
pub fn write_trace(args: &RunArgs, tracer: &Tracer) {
    println!(
        "{} where the time goes (self time per op, share of op time):",
        args.workload
    );
    for (name, self_ms, share) in tracer.ranked() {
        println!(
            "{}   {name:<24} {self_ms:>9.3} ms {:>5.1} %",
            args.workload,
            share * 100.0
        );
    }
    let path = args.out.join(format!("trace-{}.json", args.workload));
    let document = Json::obj([
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", tracer.to_json()),
    ]);
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, document.to_string()));
    if let Err(error) = written {
        eprintln!(
            "{}: could not write {}: {error}",
            args.workload,
            path.display()
        );
    }
}
