//! `runtime_bench` — measures the candidate-evaluation runtime: cold vs.
//! warm transpile/score caches, and evaluation throughput across worker
//! counts.
//!
//! ```text
//! cargo run -p qns-bench --release --bin runtime_bench [-- --iters N]
//! ```
//!
//! Prints per-configuration wall time, evals/sec, cache hit rates, and
//! the telemetry summary of the final run. On multi-core hosts the
//! worker sweep demonstrates the candidate fan-out speedup; on single-core
//! containers the cache rows still show the warm-path win.

use qns_noise::{Device, TrajectoryConfig};
use quantumnas::{
    evolutionary_search_seeded_rt, DesignSpace, Estimator, EstimatorKind, EvoConfig,
    RuntimeOptions, SearchRuntime, SpaceKind, SuperCircuit, Task,
};
use std::time::Instant;

struct Row {
    label: String,
    secs: f64,
    evaluations: usize,
    memo_hits: usize,
    best_score: f64,
}

fn search_once(label: &str, cfg: &EvoConfig, rt: &SearchRuntime) -> (Row, String) {
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 2);
    let task = Task::qml_digits(&[3, 6], 40, 4, 1);
    let shared: Vec<f64> = (0..sc.num_params())
        .map(|i| 0.3 * ((i % 7) as f64) - 0.8)
        .collect();
    let est = Estimator::new(
        Device::yorktown(),
        EstimatorKind::NoisySim(TrajectoryConfig {
            trajectories: 4,
            seed: 5,
            readout: true,
        }),
        2,
    )
    .with_valid_cap(6);

    let start = Instant::now();
    let result = evolutionary_search_seeded_rt(&sc, &shared, &task, &est, cfg, &[], rt);
    let secs = start.elapsed().as_secs_f64();
    (
        Row {
            label: label.to_string(),
            secs,
            evaluations: result.evaluations,
            memo_hits: result.memo_hits,
            best_score: result.best_score,
        },
        rt.metrics().summary(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let iters: usize = args
        .iter()
        .position(|a| a == "--iters")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(6);
    let base = EvoConfig {
        iterations: iters,
        population: 10,
        parents: 3,
        mutations: 4,
        crossovers: 3,
        ..EvoConfig::fast(13)
    };
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!("runtime_bench: {iters} iterations, population 10, {cores} cores\n");

    let mut rows: Vec<Row> = Vec::new();

    // Cold vs. warm cache: the same search twice on one shared runtime.
    // The second run answers every candidate it has seen before from the
    // score memo and every compile from the transpile cache.
    let cached = EvoConfig {
        runtime: RuntimeOptions {
            workers: 1,
            cache: true,
            ..Default::default()
        },
        ..base
    };
    let rt = SearchRuntime::new(cached.runtime.clone());
    let (row, _) = search_once("workers=1 cache cold", &cached, &rt);
    rows.push(row);
    let (row, warm_summary) = search_once("workers=1 cache warm", &cached, &rt);
    rows.push(row);
    let mut last_summary = warm_summary;

    // No-cache reference.
    let uncached = EvoConfig {
        runtime: RuntimeOptions {
            workers: 1,
            cache: false,
            ..Default::default()
        },
        ..base
    };
    let rt = SearchRuntime::new(uncached.runtime.clone());
    let (row, _) = search_once("workers=1 no cache", &uncached, &rt);
    rows.push(row);

    // Worker sweep (cold caches each, so rows are comparable).
    for workers in [2usize, 4] {
        let cfg = EvoConfig {
            runtime: RuntimeOptions {
                workers,
                cache: true,
                ..Default::default()
            },
            ..base
        };
        let rt = SearchRuntime::new(cfg.runtime.clone());
        let (row, summary) = search_once(&format!("workers={workers} cache cold"), &cfg, &rt);
        rows.push(row);
        if workers == 4 {
            last_summary = summary;
        }
    }

    println!(
        "{:<24} {:>9} {:>7} {:>7} {:>11} {:>12}",
        "configuration", "wall s", "evals", "memo", "evals/sec", "best score"
    );
    let reference = rows[0].secs;
    for r in &rows {
        println!(
            "{:<24} {:>9.3} {:>7} {:>7} {:>11.1} {:>12.5}   ({:.2}x vs cold)",
            r.label,
            r.secs,
            r.evaluations,
            r.memo_hits,
            r.evaluations as f64 / r.secs.max(1e-9),
            r.best_score,
            reference / r.secs.max(1e-9),
        );
    }
    let scores: Vec<u64> = rows.iter().map(|r| r.best_score.to_bits()).collect();
    assert!(
        scores.iter().all(|&s| s == scores[0]),
        "all configurations must find the bit-identical best score"
    );
    println!("\nall configurations agree on the best score (bit-identical)\n");
    println!("{last_summary}");
}
