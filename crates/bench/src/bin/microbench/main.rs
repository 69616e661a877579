//! `microbench` — the workspace's micro-benchmarks behind one harness.
//!
//! ```text
//! cargo run -p qns-bench --release --bin microbench -- <bench> [--smoke] [--out PATH] [--check PATH]
//! ```
//!
//! Each bench times one engine claim that no other bench records; its
//! module documents what it measures. The harness owns what they share:
//! the flags, the JSON record (each section is printed as it is recorded),
//! the core count and the baseline gate; the median timer is the library's
//! `qns_bench::time_median`. One row of [`BENCHES`] per bench gives its
//! repetitions, its committed record and its gated `section.key`.
//!
//! - `--smoke` times every measurement once (some benches also shrink
//!   their sizes) and reports no acceptance floors.
//! - `--out PATH` writes the record. Benches with a committed record write
//!   it by default (to its file name in the working directory); the others
//!   write one only when `--out` is given.
//! - `--check PATH` compares the fresh value of the bench's gated key with
//!   the one in the committed record at `PATH` and fails past
//!   [`GATE_BOUND`]× it. Only gated benches accept it, and never with
//!   `--smoke`.
//!
//! A run writes the record, then runs the gate, then reports the floors.
//! It exits 1 if the gate or any floor fails, and 2 (after printing the
//! usage) on a malformed command line.

mod batch;
mod grad;
mod kernels;
mod mps;
mod pareto;
mod proxy;
mod search;
mod sim;

use qns_bench::time_median;
use std::fmt::Write as _;
use std::process::ExitCode;

/// One bench: how it is timed, recorded and gated.
struct Bench {
    name: &'static str,
    /// Timed repetitions of each measurement in a full run.
    reps: usize,
    /// The committed record: the default `--out`, and the baseline CI
    /// passes to `--check`.
    record: Option<&'static str>,
    /// The `section.key` that `--check` compares.
    gate: Option<Key>,
    measure: fn(Mode, &mut Json) -> Vec<Floor>,
}

/// A `(section, key)` path into a record.
type Key = (&'static str, &'static str);

#[rustfmt::skip]
const fn bench(name: &'static str, reps: usize, record: Option<&'static str>, gate: Option<Key>,
               measure: fn(Mode, &mut Json) -> Vec<Floor>) -> Bench {
    Bench { name, reps, record, gate, measure }
}

#[rustfmt::skip]
const BENCHES: [Bench; 8] = [
    bench("sim", 9, Some("BENCH_sim.json"), None, sim::measure),
    bench("batch", 9, Some("BENCH_batch.json"), Some(("epoch", "batched_s")), batch::measure),
    bench("kernels", 9, Some("BENCH_kernels.json"), Some(("forward", "batched_s")), kernels::measure),
    bench("mps", 5, Some("BENCH_mps.json"), Some(("throughput_n16", "mps_s")), mps::measure),
    bench("pareto", 9, Some("BENCH_pareto.json"), Some(("sort", "per_point_s")), pareto::measure),
    bench("proxy", 9, Some("BENCH_proxy.json"), Some(("rank", "per_candidate_s")), proxy::measure),
    bench("grad", 10, None, None, grad::measure),
    bench("search", 10, None, None, search::measure),
];

/// `--check` fails when the fresh gated value exceeds this multiple of the
/// committed one.
const GATE_BOUND: f64 = 1.2;

/// How the harness runs a bench.
#[derive(Clone, Copy)]
pub struct Mode {
    pub smoke: bool,
    /// Timed repetitions per measurement: the bench's row, or 1 with
    /// `--smoke`.
    pub reps: usize,
    pub cores: usize,
}

/// An acceptance floor `(what, value, min)`: `value` must reach `min`.
/// Only full runs report them.
pub struct Floor(pub &'static str, pub f64, pub f64);

/// A JSON object under construction, its members in insertion order. It
/// also reads back the records it writes (numbers, strings without
/// escapes, nested objects), which is all a baseline holds.
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
    fn parse(text: &str) -> Option<Json> {
        match Value::parse(text.trim())? {
            (Value::Obj(json), "") => Some(json),
            _ => None,
        }
    }

    fn member(&self, key: &str) -> Option<&Value> {
        let found = self.members.iter().find(|(k, _)| k == key);
        found.map(|(_, value)| value)
    }

    /// The number at `key` inside the top-level object `section`.
    fn lookup(&self, section: &str, key: &str) -> Option<f64> {
        let Value::Obj(inner) = self.member(section)? else {
            return None;
        };
        match inner.member(key)? {
            Value::Num(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }
}

/// Compares the fresh record's gated value with the baseline's: `Ok` with
/// the comparison if it is within [`GATE_BOUND`], else why the gate failed.
fn gate(fresh: &Json, baseline: &str, (section, key): (&str, &str)) -> Result<String, String> {
    let committed = Json::parse(baseline)
        .ok_or("the baseline is not a bench record")?
        .lookup(section, key)
        .ok_or(format!("the baseline has no {section}.{key}"))?;
    let measured = fresh
        .lookup(section, key)
        .ok_or(format!("the fresh record has no {section}.{key}"))?;
    let ratio = measured / committed.max(1e-12);
    let line = format!(
        "{section}.{key} committed {committed:.3e} s, fresh {measured:.3e} s ({ratio:.2}x)"
    );
    if ratio > GATE_BOUND {
        Err(format!(
            "regression: {line}, over the {GATE_BOUND:.2}x bound"
        ))
    } else {
        Ok(line)
    }
}

/// Runs `bench`: measures, writes the record to `out`, runs the gate
/// against `check`, then reports the floors. Returns whether the gate and
/// every floor held.
fn run(bench: &Bench, smoke: bool, out: Option<&str>, check: Option<&str>) -> bool {
    let mode = Mode {
        smoke,
        reps: if smoke { 1 } else { bench.reps },
        cores: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    };
    // Read before the record is written, which may overwrite the same file.
    let baseline = check.map(|path| (path, std::fs::read_to_string(path)));
    let kind = if smoke { "smoke" } else { "full" };
    println!(
        "{}: {kind} run, {} cores, {} reps",
        bench.name, mode.cores, mode.reps
    );
    let mut json = Json::default();
    json.str("bench", bench.name);
    json.str("mode", kind);
    json.int("cores", mode.cores);
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
    if let (Some((path, baseline)), Some(key)) = (baseline, bench.gate) {
        let verdict = baseline
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|baseline| gate(&json, &baseline, key));
        match verdict {
            Ok(line) => println!("check vs {path}: {line}"),
            Err(e) => {
                eprintln!("check vs {path}: {e}");
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
    held
}

const USAGE: &str = "usage: microbench <bench> [--smoke] [--out PATH] [--check PATH]";

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
    let (mut smoke, mut out, mut check) = (false, None, None);
    while let Some(flag) = it.next() {
        let slot = match flag.as_str() {
            "--smoke" => {
                smoke = true;
                continue;
            }
            "--out" => &mut out,
            "--check" => &mut check,
            other => return usage(format!("unknown argument `{other}`")),
        };
        match it.next().filter(|v| !v.starts_with("--")) {
            Some(value) => *slot = Some(value.as_str()),
            None => return usage(format!("{flag} needs a value")),
        }
    }
    if check.is_some() && bench.gate.is_none() {
        return usage(format!("`{name}` has no gate to --check"));
    }
    if check.is_some() && smoke {
        return usage("--check compares a full run; drop --smoke".to_string());
    }
    u8::from(!run(bench, smoke, out.or(bench.record), check))
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
            assert!(run(bench, true, Some(path), None), "{} failed", bench.name);
            let text = std::fs::read_to_string(path).expect("record written");
            std::fs::remove_file(path).expect("record removed");
            // kernels and mps sweep fewer sizes in smoke mode, so only the
            // other committed records share their smoke run's key list.
            if let (Some(file), false) = (bench.record, ["kernels", "mps"].contains(&bench.name)) {
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
    fn lookup_is_scoped_to_its_section() {
        let json = record(r#"{"a": {"x": 1, "in": {"k": 5}}, "b": {"k": 2}}"#);
        assert_eq!(json.lookup("a", "x"), Some(1.0));
        assert_eq!(json.lookup("b", "k"), Some(2.0));
        assert_eq!(json.lookup("a", "k"), None, "a later section's key");
        assert_eq!(
            json.lookup("in", "k"),
            None,
            "a nested object is no section"
        );
    }

    #[test]
    fn gate_passes_at_1_19x_and_fails_at_1_21x() {
        let passes = |fresh: f64| {
            let mut json = Json::default();
            json.obj("sort", |j| j.num("per_point_s", fresh));
            gate(
                &json,
                r#"{"sort": {"per_point_s": 1.0}}"#,
                ("sort", "per_point_s"),
            )
            .is_ok()
        };
        assert!(passes(1.19));
        assert!(!passes(1.21));
    }

    #[test]
    fn baseline_without_the_key_is_an_error() {
        let fresh = record(r#"{"sort": {"per_point_s": 1.0}}"#);
        for baseline in [
            r#"{"sort": {"sort_s": 1.0}}"#,
            r#"{"sort": {}, "search": {"per_point_s": 1.0}}"#,
            "not a record",
        ] {
            let verdict = gate(&fresh, baseline, ("sort", "per_point_s"));
            assert!(verdict.is_err(), "{baseline}");
        }
    }

    #[test]
    fn gate_reads_the_baseline_before_the_record_overwrites_it() {
        let path =
            std::env::temp_dir().join(format!("microbench-gate-{}.json", std::process::id()));
        let path = path.to_str().expect("temp paths are UTF-8");
        std::fs::write(path, r#"{"sort": {"per_point_s": 0.000000001}}"#).expect("baseline");
        let pareto = BENCHES
            .iter()
            .find(|b| b.name == "pareto")
            .expect("pareto row");
        assert!(!run(pareto, true, Some(path), Some(path)));
        std::fs::remove_file(path).expect("record removed");
    }

    #[test]
    fn committed_records_hold_their_gated_key() {
        for bench in &BENCHES {
            if let (Some(file), Some((section, key))) = (bench.record, bench.gate) {
                let value = committed(file).lookup(section, key);
                assert!(value.is_some_and(|v| v > 0.0), "{file}: {section}.{key}");
            }
        }
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
            "sim --check BENCH_sim.json",
            "grad --check BENCH_sim.json",
            "mps --smoke --check BENCH_mps.json",
            "mps --check BENCH_mps.json --smoke",
        ] {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            assert_eq!(cli(&args), 2, "`microbench {line}`");
        }
    }
}
