//! `runtime` — the candidate-evaluation runtime: cold vs. warm
//! transpile/score caches, and evaluation throughput across worker counts.
//!
//! Records per-configuration wall time, evaluations, memo hits and
//! evals/sec, then prints the telemetry summary of the final run. On
//! multi-core hosts the worker sweep demonstrates the candidate fan-out
//! speedup; on single-core containers the cache rows still show the
//! warm-path win. Each search runs 6 generations (`--smoke`: 1).

use crate::{Floor, Json, Mode};
use qns_noise::{Device, TrajectoryConfig};
use quantumnas::{
    evolutionary_search_seeded_rt, DesignSpace, Estimator, EstimatorKind, EvoConfig,
    RuntimeOptions, SearchRuntime, SpaceKind, SuperCircuit, Task,
};
use std::time::Instant;

/// Runs the bench search once on `rt` and records it as `section`;
/// returns the best score and the runtime's telemetry summary.
fn search_once(
    json: &mut Json,
    section: &str,
    cfg: &EvoConfig,
    rt: &SearchRuntime,
) -> (f64, String) {
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
    json.obj(section, |j| {
        j.num("wall_s", secs);
        j.int("evaluations", result.evaluations);
        j.int("memo_hits", result.memo_hits);
        j.num("evals_per_s", result.evaluations as f64 / secs.max(1e-9));
        j.num("best_score", result.best_score);
    });
    (result.best_score, rt.metrics().summary())
}

pub fn measure(Mode { smoke, .. }: Mode, json: &mut Json) -> Vec<Floor> {
    let base = EvoConfig {
        iterations: if smoke { 1 } else { 6 },
        population: 10,
        parents: 3,
        mutations: 4,
        crossovers: 3,
        ..EvoConfig::fast(13)
    };
    let options = |workers, cache| EvoConfig {
        runtime: RuntimeOptions {
            workers,
            cache,
            ..Default::default()
        },
        ..base.clone()
    };
    let mut scores = Vec::new();

    // Cold vs. warm cache: the same search twice on one shared runtime.
    // The second run answers every candidate it has seen before from the
    // score memo and every compile from the transpile cache.
    let cached = options(1, true);
    let rt = SearchRuntime::new(cached.runtime.clone());
    scores.push(search_once(json, "cold", &cached, &rt).0);
    scores.push(search_once(json, "warm", &cached, &rt).0);

    // No-cache reference.
    let uncached = options(1, false);
    let rt = SearchRuntime::new(uncached.runtime.clone());
    scores.push(search_once(json, "no_cache", &uncached, &rt).0);

    // Worker sweep (cold caches each, so rows are comparable).
    let mut summary = String::new();
    for (section, workers) in [("workers2", 2), ("workers4", 4)] {
        let cfg = options(workers, true);
        let rt = SearchRuntime::new(cfg.runtime.clone());
        let (score, last) = search_once(json, section, &cfg, &rt);
        scores.push(score);
        summary = last;
    }

    assert!(
        scores.iter().all(|s| s.to_bits() == scores[0].to_bits()),
        "all configurations must find the bit-identical best score"
    );
    println!("all configurations agree on the best score (bit-identical)\n");
    println!("{summary}");
    Vec::new()
}
