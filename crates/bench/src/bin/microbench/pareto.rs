//! `pareto` — timings for the NSGA-II Pareto co-search machinery,
//! recorded as `BENCH_pareto.json`.
//!
//! Two sections:
//!
//! 1. `sort` — selection throughput: fast non-dominated sorting plus
//!    crowding-distance selection over a deterministic synthetic cloud of
//!    3-objective points, the exact machinery the search runs once per
//!    generation. Reports points selected per second and the per-point
//!    cost, plus the hypervolume of the cloud's first front as a
//!    correctness canary.
//! 2. `search` — end-to-end: the same evolutionary search run as the
//!    scalar (loss-only) search and as the Pareto search over (loss,
//!    depth, twoq). Reports wall-clock for both, the multi-objective overhead
//!    ratio, the final front size, and its normalized hypervolume. The
//!    acceptance floor is ≥0.5× scalar over Pareto search time: the Pareto
//!    search may cost at most twice the scalar one.
//!
//! `--smoke` shrinks both sections to a single cheap iteration.

use crate::{time_median, Floor, Json, Mode};
use qns_noise::Device;
use qns_runtime::CacheKey;
use quantumnas::{
    crowding_distance, evolutionary_search_pareto_rt, evolutionary_search_seeded_rt, hypervolume,
    non_dominated_sort, normalize_objectives, selection_order, DesignSpace, Estimator,
    EstimatorKind, EvoConfig, Objective, SearchRuntime, SpaceKind, SuperCircuit, Task,
};

/// A deterministic synthetic objective cloud: splitmix64 coordinates in
/// [0, 1)^dims, so every run (and every machine) sorts the same points.
fn objective_cloud(n: usize, dims: usize) -> Vec<Vec<f64>> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| (0..dims).map(|_| next()).collect())
        .collect()
}

pub fn measure(Mode { smoke, reps }: Mode, json: &mut Json) -> Vec<Floor> {
    // 1. Selection throughput on a synthetic cloud: the per-generation
    // NSGA-II machinery (sort + crowding + total selection order).
    let n_points = if smoke { 64 } else { 512 };
    let cloud = objective_cloud(n_points, 3);
    let keys: Vec<CacheKey> = (0..n_points as u64)
        .map(|i| CacheKey {
            lo: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            hi: i,
        })
        .collect();
    let mut front_size = 0usize;
    let sort_s = time_median(reps, || {
        let fronts = non_dominated_sort(&cloud);
        let order = selection_order(&cloud, &keys);
        let crowd = crowding_distance(&cloud, &fronts[0]);
        assert_eq!(order.len(), cloud.len());
        assert_eq!(crowd.len(), fronts[0].len());
        front_size = fronts[0].len();
    });
    let normalized = normalize_objectives(&cloud);
    let first_front: Vec<Vec<f64>> = non_dominated_sort(&cloud)[0]
        .iter()
        .map(|&i| normalized[i].clone())
        .collect();
    let hv = hypervolume(&first_front);
    let per_point = sort_s / n_points as f64;
    json.obj("sort", |j| {
        j.int("points", n_points);
        j.int("front_size", front_size);
        j.num("sort_s", sort_s);
        j.num("per_point_s", per_point);
        j.num("points_per_s", 1.0 / per_point.max(1e-12));
        j.num("front_hypervolume", hv);
    });

    // 2. End-to-end: the same search budget as the scalar (loss-only)
    // search and as the Pareto search over the full objective set.
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 2);
    let task = Task::qml_digits(&[1, 8], 15, 4, 4);
    let params: Vec<f64> = (0..sc.num_params())
        .map(|i| 0.2 * ((i % 5) as f64) - 0.4)
        .collect();
    let est = Estimator::new(Device::yorktown(), EstimatorKind::SuccessRate, 1).with_valid_cap(4);
    let cfg = EvoConfig {
        iterations: if smoke { 2 } else { 6 },
        population: 16,
        parents: 3,
        mutations: 8,
        crossovers: 5,
        ..EvoConfig::fast(5)
    };
    let objectives = [Objective::Loss, Objective::Depth, Objective::TwoQ];
    let mut scalar_result = None;
    let scalar_s = time_median(reps, || {
        let rt = SearchRuntime::new(cfg.runtime.clone());
        scalar_result = Some(evolutionary_search_seeded_rt(
            &sc,
            &params,
            &task,
            &est,
            &cfg,
            &[],
            &rt,
        ));
    });
    let mut pareto_result = None;
    let pareto_s = time_median(reps, || {
        let rt = SearchRuntime::new(cfg.runtime.clone());
        pareto_result = Some(evolutionary_search_pareto_rt(
            &sc,
            &params,
            &task,
            &est,
            &cfg,
            &objectives,
            &[],
            &rt,
        ));
    });
    let scalar_result = scalar_result.expect("scalar search ran");
    let pareto_result = pareto_result.expect("pareto search ran");
    let front: Vec<Vec<f64>> = pareto_result
        .front
        .iter()
        .map(|p| p.objectives.clone())
        .collect();
    let front_hv = hypervolume(&normalize_objectives(&front));
    let overhead = pareto_s / scalar_s.max(1e-12);
    json.obj("search", |j| {
        j.int("population", cfg.population);
        j.int("iterations", cfg.iterations);
        j.num("scalar_s", scalar_s);
        j.num("scalar_score", scalar_result.best_score);
        j.num("pareto_s", pareto_s);
        j.num("pareto_best_loss", pareto_result.best_score);
        j.int("front_size", pareto_result.front.len());
        j.num("front_hypervolume", front_hv);
        j.num("overhead", overhead);
    });

    // The front must never be empty and its normalized hypervolume must
    // stay a valid fraction of the unit cube.
    assert!(!pareto_result.front.is_empty(), "empty final front");
    assert!(
        (0.0..=1.0).contains(&front_hv),
        "normalized hypervolume out of range: {front_hv}"
    );
    vec![Floor(
        "scalar/Pareto search",
        scalar_s / pareto_s.max(1e-12),
        0.5,
    )]
}
