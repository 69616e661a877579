//! `qnas_bench` — the end-to-end QuantumNAS benchmark.
//!
//! ```text
//! qnas_bench --workload NAME --seed N --seconds S --trace 0|1
//!            [--out RESULTS.jsonl] [--trace-file SPANS.jsonl]
//! qnas_bench --compare BASELINE.jsonl CANDIDATE.jsonl
//! ```
//!
//! One process, closed loop: one pipeline at a time on the workload's
//! worker count (at most 2). With `--trace 0` it times `QuantumNas::run`
//! on seeds `N, N+1, ...` for `S` seconds and reports the end-to-end
//! metrics; with `--trace 1` it also replays each seed stage by stage and
//! reports the per-layer metrics. Every run's output is checked; the last
//! stdout line is the JSON result. See README.md in this directory.

mod compare;
mod host;
mod json;
mod measure;
mod pipeline;
mod probes;
mod replay;
mod stats;
mod workloads;

use measure::{Metric, Outcome, Settings};
use pipeline::Bench;
use replay::Tracer;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use workloads::{Workload, NAMES};

/// BENCHMARK.json, next to this package's directory.
fn benchmark_json() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// A parsed benchmark command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    trace_file: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out = None;
    let mut trace_file = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload '{value}' (one of {})", NAMES.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds '{value}'"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            "--trace-file" => trace_file = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out,
        trace_file,
    })
}

/// A metric value as JSON: a number with every digit, or `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result object: `correct`, `attempted`, `failed`, `metrics`.
fn result_json(outcome: &Outcome, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(m.name),
            number(m.value),
            json::quote(m.unit)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed
    )
}

/// Runs one measurement and returns its outcome.
fn measure(args: &Args, settings: Settings, tracer: &mut Tracer) -> Outcome {
    let mut bench = Bench::new(args.workload);
    if args.trace {
        measure::traced(&mut bench, args.seed, args.seconds, settings, tracer)
    } else {
        measure::untraced(&mut bench, args.seed, args.seconds, settings)
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        std::process::exit(compare::run(&argv[1..], &benchmark_json()));
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: qnas_bench --workload NAME --seed N --seconds S --trace 0|1 \
                 [--out FILE] [--trace-file FILE]\n       \
                 qnas_bench --compare BASELINE CANDIDATE"
            );
            std::process::exit(2);
        }
    };
    let mut tracer = Tracer::new();
    let outcome = measure(&args, Settings::FULL, &mut tracer);
    let name = args.workload.name();
    for e in &outcome.errors {
        eprintln!("{name}: FAILED {e}");
    }
    for m in &outcome.metrics {
        println!("{name} {} {} {} n={}", m.name, number(m.value), m.unit, m.n);
    }
    println!("{name} host_calib_ms {} ms", number(outcome.host_calib_ms));
    println!("{name} unscaled_p50_s {} s", number(outcome.unscaled_p50_s));
    println!("{name} cores {}", host::cores());

    let result = result_json(&outcome, &outcome.metrics);
    if let Some(path) = &args.out {
        let line = format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cores\": {}, \
             \"host_calib_ms\": {}, {}",
            json::quote(name),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            host::cores(),
            number(outcome.host_calib_ms),
            &result[1..]
        );
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = written {
            eprintln!("error: cannot append to {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    if let Some(path) = &args.trace_file {
        if let Err(e) = tracer.write(path) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use measure::{END_TO_END, PER_LAYER};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload lih-pareto --seed 7 --seconds 25 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload, Workload::LihPareto);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 25.0, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload lih-pareto --seed x --seconds 1 --trace 0",
            "--workload lih-pareto --seed 1 --seconds -1 --trace 0",
            "--workload lih-pareto --seed 1 --seconds 1 --trace 2",
            "--workload lih-pareto --seconds 1 --trace 0",
            "--workload lih-pareto --seed 1 --seconds",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// `(name, unit)` of every metric in one list of BENCHMARK.json.
    fn declared(list: &str) -> Vec<(String, String)> {
        let text = std::fs::read_to_string(benchmark_json()).expect("BENCHMARK.json");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(list)
            .and_then(json::Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(json::Value::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn declared_metrics_match_the_emitted_lists() {
        let as_owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), as_owned(&END_TO_END));
        assert_eq!(declared("per_layer"), as_owned(&PER_LAYER));
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "{name}");
        }
        for name in NAMES {
            assert!(valid_name(name), "{name}");
        }
    }

    /// One seed of every workload, untraced and traced: every declared
    /// metric is emitted once, with its unit and a finite value (positive
    /// for end-to-end metrics), and the result line has exactly the four
    /// keys.
    #[test]
    fn one_seed_smoke_of_every_workload() {
        let smoke = Settings {
            min_runs: 1,
            min_replays: 1,
            warmup: false,
            probe_candidates: 3,
            scaling_seeds: 1,
            checkpoint_reps: 2,
        };
        for name in NAMES {
            for trace in [false, true] {
                let args = Args {
                    workload: Workload::parse(name).expect("known"),
                    seed: 11,
                    seconds: 0.0,
                    trace,
                    out: None,
                    trace_file: None,
                };
                let mut tracer = Tracer::new();
                let outcome = measure(&args, smoke, &mut tracer);
                assert_eq!(outcome.failed, 0, "{name}: {:?}", outcome.errors);
                let emitted: Vec<(String, String)> = outcome
                    .metrics
                    .iter()
                    .map(|m| (m.name.to_string(), m.unit.to_string()))
                    .collect();
                let list = if trace { "per_layer" } else { "end_to_end" };
                assert_eq!(emitted, declared(list), "{name} {list}");
                for m in &outcome.metrics {
                    assert!(m.value.is_finite(), "{name} {}: {}", m.name, m.value);
                    // End-to-end metrics are gated as shares of a baseline.
                    assert!(trace || m.value > 0.0, "{name} {}: {}", m.name, m.value);
                }
                let result = json::parse(&result_json(&outcome, &outcome.metrics))
                    .expect("result line parses");
                let keys: Vec<&String> = result.as_obj().expect("object").keys().collect();
                assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
                assert_eq!(result.get("correct"), Some(&json::Value::Bool(true)));
            }
        }
    }
}
