//! `microbench` — the workspace's micro-benchmarks behind one harness.
//!
//! ```text
//! cargo run -p qns-bench --release --bin microbench -- <bench> [--smoke] [--out PATH]
//! ```
//!
//! Each bench times one engine claim that no other bench records; its
//! module documents what it measures. The harness owns what they share:
//! the flags, the JSON record (each section is printed as it is recorded),
//! the core count and the acceptance floors; the median timers are the
//! library's `qns_bench::time_median` and `time_median_pair`. One row of
//! [`BENCHES`] per bench gives its repetitions and its committed record.
//!
//! A floor is the only gate: a ratio of two arms timed in the same run, so
//! it does not depend on the machine's speed. Both arms run at the same
//! worker count, under [`one_worker`] where one arm would otherwise fan
//! out over the host and the other would not, and `time_median_pair`
//! alternates them within each repetition where their separate medians
//! straddled the floor. Every bench with a committed record reports at
//! least one floor; no absolute time is gated.
//!
//! - `--smoke` times every measurement once (some benches also shrink
//!   their sizes) and reports no acceptance floors.
//! - `--out PATH` writes the record. Benches with a committed record write
//!   it by default (to its file name in the working directory); the others
//!   write one only when `--out` is given.
//!
//! A run writes the record, then reports the floors. It exits 1 if any
//! floor fails, and 2 (after printing the usage) on a malformed command
//! line.

mod batch;
mod grad;
mod kernels;
mod mps;
mod pareto;
mod proxy;
mod search;
mod sim;

use qns_bench::{time_median, time_median_pair};
use std::fmt::Write as _;
use std::process::ExitCode;

/// One bench: how it is timed and recorded.
struct Bench {
    name: &'static str,
    /// Timed repetitions of each measurement in a full run.
    reps: usize,
    /// The committed record, and the default `--out`.
    record: Option<&'static str>,
    measure: fn(Mode, &mut Json) -> Vec<Floor>,
}

#[rustfmt::skip]
const fn bench(name: &'static str, reps: usize, record: Option<&'static str>,
               measure: fn(Mode, &mut Json) -> Vec<Floor>) -> Bench {
    Bench { name, reps, record, measure }
}

#[rustfmt::skip]
const BENCHES: [Bench; 8] = [
    bench("sim", 9, Some("BENCH_sim.json"), sim::measure),
    bench("batch", 9, Some("BENCH_batch.json"), batch::measure),
    bench("kernels", 9, Some("BENCH_kernels.json"), kernels::measure),
    bench("mps", 5, Some("BENCH_mps.json"), mps::measure),
    bench("pareto", 9, Some("BENCH_pareto.json"), pareto::measure),
    bench("proxy", 9, Some("BENCH_proxy.json"), proxy::measure),
    bench("grad", 10, None, grad::measure),
    bench("search", 10, None, search::measure),
];

/// How the harness runs a bench.
#[derive(Clone, Copy)]
pub struct Mode {
    pub smoke: bool,
    /// Timed repetitions per measurement: the bench's row, or 1 with
    /// `--smoke`.
    pub reps: usize,
}

/// An acceptance floor `(what, value, min)`: `value` must reach `min`.
/// Only full runs report them.
pub struct Floor(pub &'static str, pub f64, pub f64);

/// Runs `body` with every parallel map of the default width on one worker,
/// then restores the default: both arms of a floor timed inside it run at
/// one worker on any host.
pub fn one_worker<T>(body: impl FnOnce() -> T) -> T {
    qns_sim::set_parallelism(1);
    let out = body();
    qns_sim::set_parallelism(0);
    out
}

/// A JSON object under construction, its members in insertion order.
#[derive(Default)]
pub struct Json {
    members: Vec<(String, Value)>,
    /// Print each member as it is added (set on a record, not on its
    /// sections).
    echo: bool,
}

enum Value {
    Num(f64),
    Int(usize),
    Str(String),
    Obj(Json),
}

impl Value {
    fn write(&self, out: &mut String) {
        let _ = match self {
            Value::Num(v) => write!(out, "{v:.9}"),
            Value::Int(v) => write!(out, "{v}"),
            Value::Str(v) => write!(out, "\"{v}\""),
            Value::Obj(json) => {
                json.write(out);
                Ok(())
            }
        };
    }

    /// Parses the value at the front of `text`: the value and the rest.
    /// It reads what a record holds (numbers, strings without escapes,
    /// nested objects), for the tests of the committed records.
    #[cfg(test)]
    fn parse(text: &str) -> Option<(Value, &str)> {
        if let Some(mut rest) = text.strip_prefix('{') {
            let mut json = Json::default();
            loop {
                rest = rest.trim_start();
                if let Some(after) = rest.strip_prefix('}') {
                    return Some((Value::Obj(json), after));
                }
                if !json.members.is_empty() {
                    rest = rest.strip_prefix(',')?.trim_start();
                }
                let (Value::Str(key), after) = Value::parse(rest)? else {
                    return None;
                };
                let after = after.trim_start().strip_prefix(':')?.trim_start();
                let (value, after) = Value::parse(after)?;
                json.members.push((key, value));
                rest = after;
            }
        }
        if let Some(body) = text.strip_prefix('"') {
            let end = body.find('"')?;
            return Some((Value::Str(body[..end].to_string()), &body[end + 1..]));
        }
        let end = text.find([',', '}']).unwrap_or(text.len());
        let number = text[..end].trim();
        let value = match number.parse() {
            Ok(n) => Value::Int(n),
            Err(_) => Value::Num(number.parse().ok()?),
        };
        Some((value, &text[end..]))
    }
}

impl Json {
    pub fn obj(&mut self, key: &str, body: impl FnOnce(&mut Json)) {
        let mut inner = Json::default();
        body(&mut inner);
        self.push(key, Value::Obj(inner));
    }

    pub fn num(&mut self, key: &str, v: f64) {
        self.push(key, Value::Num(v));
    }

    pub fn int(&mut self, key: &str, v: usize) {
        self.push(key, Value::Int(v));
    }

    pub fn str(&mut self, key: &str, v: &str) {
        self.push(key, Value::Str(v.to_string()));
    }

    fn push(&mut self, key: &str, value: Value) {
        if self.echo {
            let mut line = String::new();
            value.write(&mut line);
            println!("{key}: {line}");
        }
        self.members.push((key.to_string(), value));
    }

    fn write(&self, out: &mut String) {
        out.push('{');
        for (i, (key, value)) in self.members.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}\"{key}\": ");
            value.write(out);
        }
        out.push('}');
    }

    /// Parses a record; `None` if `text` is not one.
    #[cfg(test)]
    fn parse(text: &str) -> Option<Json> {
        match Value::parse(text.trim())? {
            (Value::Obj(json), "") => Some(json),
            _ => None,
        }
    }
}

/// Runs `bench`: measures, writes the record to `out`, then reports the
/// floors (a smoke run measures them but reports none). Returns how many
/// floors the bench measured, or `None` if the record could not be
/// written or a floor failed.
fn run(bench: &Bench, smoke: bool, out: Option<&str>) -> Option<usize> {
    let mode = Mode {
        smoke,
        reps: if smoke { 1 } else { bench.reps },
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let kind = if smoke { "smoke" } else { "full" };
    println!(
        "{}: {kind} run, {cores} cores, {} reps",
        bench.name, mode.reps
    );
    let mut json = Json::default();
    json.str("bench", bench.name);
    json.str("mode", kind);
    json.int("cores", cores);
    json.echo = true;
    let floors = (bench.measure)(mode, &mut json);

    let mut held = true;
    if let Some(path) = out {
        let mut text = String::new();
        json.write(&mut text);
        text.push('\n');
        match std::fs::write(path, text) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("microbench: cannot write {path}: {e}");
                held = false;
            }
        }
    }
    for Floor(what, value, min) in floors.iter().filter(|_| !smoke) {
        let ok = value >= min;
        let verdict = if ok { "ok" } else { "FAILED" };
        println!("acceptance {verdict}: {what} {value:.2}x (floor {min}x)");
        held &= ok;
    }
    held.then_some(floors.len())
}

const USAGE: &str = "usage: microbench <bench> [--smoke] [--out PATH]";

/// Runs the command line `args` and returns the exit code.
fn cli(args: &[String]) -> u8 {
    let usage = |e: String| {
        let names: Vec<&str> = BENCHES.iter().map(|b| b.name).collect();
        eprintln!("microbench: {e}\n{USAGE}\nbenches: {}", names.join(" "));
        2
    };
    let mut it = args.iter();
    let Some(name) = it.next() else {
        return usage("no bench given".to_string());
    };
    let Some(bench) = BENCHES.iter().find(|b| b.name == name) else {
        return usage(format!("unknown bench `{name}`"));
    };
    let (mut smoke, mut out) = (false, None);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--out" => match it.next().filter(|v| !v.starts_with("--")) {
                Some(value) => out = Some(value.as_str()),
                None => return usage(format!("{flag} needs a value")),
            },
            other => return usage(format!("unknown argument `{other}`")),
        }
    }
    u8::from(run(bench, smoke, out.or(bench.record)).is_none())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(cli(&args))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(text: &str) -> Json {
        Json::parse(text).expect("valid record")
    }

    fn committed(file: &str) -> Json {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        record(&std::fs::read_to_string(path.join(file)).expect("committed record"))
    }

    fn key_paths(json: &Json) -> Vec<String> {
        let mut paths = Vec::new();
        for (key, value) in &json.members {
            paths.push(key.clone());
            if let Value::Obj(inner) = value {
                paths.extend(key_paths(inner).iter().map(|k| format!("{key}.{k}")));
            }
        }
        paths
    }

    #[test]
    fn every_bench_runs_in_smoke_mode() {
        let path = std::env::temp_dir().join(format!("microbench-{}.json", std::process::id()));
        let path = path.to_str().expect("temp paths are UTF-8");
        for bench in &BENCHES {
            let floors = run(bench, true, Some(path));
            assert!(floors.is_some(), "{} failed", bench.name);
            let text = std::fs::read_to_string(path).expect("record written");
            std::fs::remove_file(path).expect("record removed");
            let Some(file) = bench.record else {
                continue;
            };
            assert!(floors > Some(0), "{} reports no floor", bench.name);
            // kernels and mps sweep fewer sizes in smoke mode, so only the
            // other committed records share their smoke run's key list.
            if !["kernels", "mps"].contains(&bench.name) {
                assert_eq!(key_paths(&record(&text)), key_paths(&committed(file)));
            }
        }
    }

    #[test]
    fn records_round_trip() {
        let text = r#"{"bench": "x", "cores": 2, "a": {"t_s": 0.250000000, "in": {"n": 3}}}"#;
        let mut again = String::new();
        record(text).write(&mut again);
        assert_eq!(again, text);
    }

    #[test]
    fn usage_errors_exit_2() {
        for line in [
            "",
            "nosuch",
            "sim --fast",
            "sim extra",
            "batch --out",
            "batch --check",
            "batch --out --smoke",
            "batch --check BENCH_batch.json",
        ] {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            assert_eq!(cli(&args), 2, "`microbench {line}`");
        }
    }
}
