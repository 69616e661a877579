//! `--compare A B`: checks a set of untraced runs (`B`) against a baseline
//! set (`A`) with the bounds BENCHMARK.json fixes for each end-to-end
//! metric.

use crate::json::{self, Value};
use crate::measure::QUALITY;
use crate::stats::median;
use std::collections::BTreeMap;
use std::path::Path;

/// One end-to-end metric's regression rule from BENCHMARK.json.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the baseline's value the metric may worsen by.
    pub bound: f64,
}

/// Reads the end-to-end bounds from a BENCHMARK.json document.
pub fn bounds(doc: &Value) -> Result<Vec<Bound>, String> {
    let metrics = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).ok_or(format!("end_to_end entry lacks '{key}'"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Every untraced result of one workload in one file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Runs {
    pub seeds: Vec<u64>,
    pub metrics: BTreeMap<String, Vec<f64>>,
    /// Results that failed a run or a check.
    pub failed: usize,
}

/// Groups the untraced result lines of a `--out` file by workload.
pub fn parse_results(text: &str) -> Result<BTreeMap<String, Runs>, String> {
    let mut by_workload: BTreeMap<String, Runs> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if doc.get("trace").and_then(Value::as_f64) == Some(1.0) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("line {}: no workload", i + 1))?;
        let runs = by_workload.entry(workload.to_string()).or_default();
        runs.seeds
            .push(doc.get("seed").and_then(Value::as_f64).unwrap_or(-1.0) as u64);
        let failed = doc.get("failed").and_then(Value::as_f64).unwrap_or(1.0);
        let correct = doc.get("correct") == Some(&Value::Bool(true));
        if failed > 0.0 || !correct {
            runs.failed += 1;
        }
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or(format!("line {}: no metrics", i + 1))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                runs.metrics.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(by_workload)
}

/// One (workload, metric) comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub baseline: f64,
    pub candidate: f64,
    /// `(candidate − baseline) / |baseline|`.
    pub delta: f64,
    pub bound: f64,
    /// Why this row breaches, if it does.
    pub breach: Option<String>,
}

/// Compares every (workload, end-to-end metric) pair. A metric breaches
/// when the candidate's median is worse than the baseline's by more than
/// its bound; a quality metric also breaches when it differs at all
/// although both sides ran the same seeds; a workload breaches when
/// either side had a failed run or the candidate lacks it.
pub fn compare(
    bounds: &[Bound],
    baseline: &BTreeMap<String, Runs>,
    candidate: &BTreeMap<String, Runs>,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, a) in baseline {
        let row = |metric: &str, baseline: f64, candidate: f64, bound: f64| Row {
            workload: workload.clone(),
            metric: metric.to_string(),
            baseline,
            candidate,
            delta: (candidate - baseline) / baseline.abs(),
            bound,
            breach: None,
        };
        let Some(b) = candidate.get(workload) else {
            rows.push(Row {
                breach: Some("missing from the candidate".to_string()),
                ..row("-", f64::NAN, f64::NAN, 0.0)
            });
            continue;
        };
        if a.failed + b.failed > 0 {
            rows.push(Row {
                breach: Some(format!(
                    "failed results: {} baseline, {} candidate",
                    a.failed, b.failed
                )),
                ..row("failed", a.failed as f64, b.failed as f64, 0.0)
            });
        }
        let same_seeds = {
            let (mut x, mut y) = (a.seeds.clone(), b.seeds.clone());
            x.sort_unstable();
            y.sort_unstable();
            x == y
        };
        for bound in bounds {
            let med = |runs: &Runs| {
                runs.metrics
                    .get(&bound.name)
                    .map_or(f64::NAN, |v| median(v))
            };
            let (va, vb) = (med(a), med(b));
            let mut r = row(&bound.name, va, vb, bound.bound);
            let worse = if bound.lower_is_better {
                vb - va
            } else {
                va - vb
            };
            r.breach = if va.is_nan() || vb.is_nan() {
                Some("missing".to_string())
            } else if QUALITY.contains(&bound.name.as_str()) && same_seeds && va != vb {
                Some("quality differs on the same seeds".to_string())
            } else if worse > bound.bound * va.abs() {
                Some(format!("worse by more than {}%", bound.bound * 100.0))
            } else {
                None
            };
            rows.push(r);
        }
    }
    rows
}

/// Runs `--compare A B`, printing one line per row; returns the exit code.
pub fn run(args: &[String], benchmark_json: &Path) -> i32 {
    let [a_path, b_path] = args else {
        eprintln!("usage: qnas_bench --compare BASELINE.jsonl CANDIDATE.jsonl");
        return 2;
    };
    let load = |path: &str| -> Result<BTreeMap<String, Runs>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_results(&text).map_err(|e| format!("{path}: {e}"))
    };
    let loaded = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))
        .and_then(|text| json::parse(&text))
        .and_then(|doc| bounds(&doc))
        .and_then(|b| Ok((b, load(a_path)?, load(b_path)?)));
    let (bounds, baseline, candidate) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let rows = compare(&bounds, &baseline, &candidate);
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "baseline", "candidate", "delta", "bound"
    );
    for r in &rows {
        println!(
            "{:<18} {:<22} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.baseline,
            r.candidate,
            r.delta * 100.0,
            r.bound * 100.0,
            r.breach.as_deref().unwrap_or("ok")
        );
    }
    let breaches = rows.iter().filter(|r| r.breach.is_some()).count();
    println!("{breaches} breach(es) in {} rows", rows.len());
    i32::from(breaches > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(name: &str, bound: f64) -> Bound {
        Bound {
            name: name.to_string(),
            lower_is_better: true,
            bound,
        }
    }

    fn runs(seeds: &[u64], metric: &str, values: &[f64]) -> BTreeMap<String, Runs> {
        let mut r = Runs {
            seeds: seeds.to_vec(),
            ..Runs::default()
        };
        r.metrics.insert(metric.to_string(), values.to_vec());
        BTreeMap::from([("w".to_string(), r)])
    }

    #[test]
    fn regressions_beyond_the_bound_breach_and_gains_never_do() {
        let b = [bound("pipeline_p50_s", 0.1)];
        let base = runs(&[1, 2, 3], "pipeline_p50_s", &[1.0, 2.0, 9.0]);
        for (values, breach) in [
            (&[2.1, 2.2, 0.1][..], false), // median 2.1: +5%
            (&[2.3, 2.3, 2.3][..], true),  // +15%
            (&[0.5, 0.5, 0.5][..], false), // a gain
        ] {
            let rows = compare(&b, &base, &runs(&[4, 5, 6], "pipeline_p50_s", values));
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].baseline, 2.0);
            assert_eq!(rows[0].breach.is_some(), breach, "{values:?}");
        }
    }

    #[test]
    fn quality_must_match_exactly_on_the_same_seeds() {
        let b = [bound("deployed_error_p50", 0.2)];
        let base = runs(&[1, 2], "deployed_error_p50", &[0.5, 0.5]);
        let close = runs(&[2, 1], "deployed_error_p50", &[0.51, 0.51]);
        assert!(compare(&b, &base, &close)[0].breach.is_some());
        let other_seeds = runs(&[3, 4], "deployed_error_p50", &[0.51, 0.51]);
        assert!(compare(&b, &base, &other_seeds)[0].breach.is_none());
        assert!(compare(&b, &base, &base.clone())[0].breach.is_none());
    }

    #[test]
    fn failures_and_missing_workloads_breach() {
        let b = [bound("setup_s", 0.25)];
        let base = runs(&[1], "setup_s", &[1.0]);
        let mut failed = base.clone();
        failed.get_mut("w").expect("workload").failed = 1;
        assert!(compare(&b, &base, &failed)
            .iter()
            .any(|r| r.breach.is_some() && r.metric == "failed"));
        let rows = compare(&b, &base, &BTreeMap::new());
        assert_eq!(
            rows[0].breach.as_deref(),
            Some("missing from the candidate")
        );
    }

    #[test]
    fn result_lines_group_by_workload_and_skip_traced_runs() {
        let text = concat!(
            r#"{"workload": "w", "seed": 3, "trace": 0, "correct": true, "attempted": 5, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#,
            "\n",
            r#"{"workload": "w", "seed": 4, "trace": 1, "correct": true, "attempted": 5, "failed": 0, "metrics": {"setup_s": {"value": 9.0, "unit": "s"}}}"#,
            "\n",
            r#"{"workload": "w", "seed": 5, "trace": 0, "correct": false, "attempted": 5, "failed": 1, "metrics": {"setup_s": {"value": 0.7, "unit": "s"}}}"#,
        );
        let parsed = parse_results(text).expect("parses");
        let w = &parsed["w"];
        assert_eq!(w.seeds, vec![3, 5]);
        assert_eq!(w.metrics["setup_s"], vec![0.5, 0.7]);
        assert_eq!(w.failed, 1);
    }
}
