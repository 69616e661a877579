//! The multi-objective Pareto search battery: property tests for the
//! NSGA-II front invariants and the one-objective ranking, the scalar
//! search pinned against the standalone engine it replaced, worker-count
//! bitwise identity of fronts, resume across the scalar and Pareto entry
//! points, and the one-search-many-devices front matching helper.

mod common;

use proptest::prelude::*;
use qns_noise::{Device, TrajectoryConfig};
use qns_runtime::{counters, CacheKey, StructuralHasher};
use quantumnas::{
    crowding_distance, dominates, evolutionary_search_pareto_rt, evolutionary_search_seeded_rt,
    front_json, gene_key, match_front_to_device, non_dominated_sort, selection_order,
    CheckpointOptions, DesignSpace, Estimator, EstimatorKind, EvoConfig, FaultPlan, FrontPoint,
    Gene, Objective, ParetoSearchResult, ProxyOptions, RuntimeOptions, SearchRuntime, SpaceKind,
    SuperCircuit, Task, FAULT_MARKER,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

const ALL_OBJECTIVES: [Objective; 3] = [Objective::Loss, Objective::Depth, Objective::TwoQ];
const SEARCH_KIND: u32 = u32::from_le_bytes(*b"SEAR");

fn setup() -> (SuperCircuit, Vec<f64>, Task, Estimator) {
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 2);
    let task = Task::qml_digits(&[1, 8], 15, 4, 4);
    let params: Vec<f64> = (0..sc.num_params())
        .map(|i| 0.2 * ((i % 5) as f64) - 0.4)
        .collect();
    let est = Estimator::new(Device::yorktown(), EstimatorKind::SuccessRate, 1).with_valid_cap(4);
    (sc, params, task, est)
}

fn evo_cfg(seed: u64, runtime: RuntimeOptions) -> EvoConfig {
    EvoConfig {
        iterations: 4,
        population: 8,
        parents: 3,
        mutations: 3,
        crossovers: 2,
        runtime,
        ..EvoConfig::fast(seed)
    }
}

fn ckpt_options(dir: &Path, workers: usize, resume: bool) -> RuntimeOptions {
    let ck = CheckpointOptions::new(dir);
    RuntimeOptions {
        workers,
        cache: true,
        checkpoint: Some(if resume { ck.resume() } else { ck }),
        ..Default::default()
    }
}

fn expect_boundary_crash(f: impl FnOnce()) {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("run should crash");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.starts_with(FAULT_MARKER),
        "crash was not the injected one: {msg:?}"
    );
}

fn assert_pareto_bitwise_eq(a: &ParetoSearchResult, b: &ParetoSearchResult) {
    assert_eq!(a.front.len(), b.front.len(), "front size mismatch");
    for (pa, pb) in a.front.iter().zip(&b.front) {
        assert_eq!(pa.gene, pb.gene);
        assert_eq!(pa.objectives.len(), pb.objectives.len());
        for (x, y) in pa.objectives.iter().zip(&pb.objectives) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    assert_eq!(a.best, b.best);
    assert_eq!(a.best_score.to_bits(), b.best_score.to_bits());
    assert_eq!(a.history.len(), b.history.len());
    for (x, y) in a.history.iter().zip(&b.history) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(a.evaluations, b.evaluations);
    assert_eq!(a.memo_hits, b.memo_hits);
}

/// Deterministic value picker for the property strategies.
fn pick(seed: u64, bound: u64) -> u64 {
    let mut h = StructuralHasher::new();
    h.write_u64(seed);
    h.finish().lo % bound
}

/// Strategy: an arbitrary objective matrix (1–9 candidates, 1–3 dims)
/// over a coarse value grid — small enough to force exact ties and
/// duplicate vectors — with occasional `+inf` and `NaN` poison, plus a
/// distinct digest per candidate in scrambled order.
fn arb_matrix() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<CacheKey>)> {
    (1usize..=9, 1usize..=3, 0u64..u64::MAX).prop_map(|(n, dims, seed)| {
        let objs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..dims)
                    .map(|d| {
                        let code = pick(seed ^ (i as u64 * 131 + d as u64 + 1), 8);
                        match code {
                            6 => f64::INFINITY,
                            7 => f64::NAN,
                            c => c as f64,
                        }
                    })
                    .collect()
            })
            .collect();
        let keys: Vec<CacheKey> = (0..n)
            .map(|i| CacheKey {
                lo: pick(seed.wrapping_add(i as u64), u64::MAX),
                hi: i as u64, // guarantees distinctness
            })
            .collect();
        (objs, keys)
    })
}

/// Like [`arb_matrix`] but with per-candidate perturbations making every
/// value within a dimension distinct (no ties, all finite) — the regime
/// where selection must be fully permutation-invariant.
fn arb_distinct_matrix() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<CacheKey>)> {
    arb_matrix().prop_map(|(objs, keys)| {
        let distinct = objs
            .iter()
            .enumerate()
            .map(|(i, row)| {
                row.iter()
                    .map(|v| {
                        let base = if v.is_finite() { *v } else { 9.0 };
                        base + (i as f64) * 1e-3
                    })
                    .collect()
            })
            .collect();
        (distinct, keys)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Front invariants: the fronts partition the candidate set; no
    /// member of front k dominates another member of front k; every
    /// member of front k>0 is dominated by at least one member of front
    /// k−1.
    #[test]
    fn fronts_partition_and_respect_dominance((objs, _) in arb_matrix()) {
        let fronts = non_dominated_sort(&objs);
        let mut seen = vec![false; objs.len()];
        for front in &fronts {
            for w in front.windows(2) {
                prop_assert!(w[0] < w[1], "front indices must ascend");
            }
            for &i in front {
                prop_assert!(!seen[i], "candidate {} in two fronts", i);
                seen[i] = true;
            }
            for &a in front {
                for &b in front {
                    if a != b {
                        prop_assert!(
                            !dominates(&objs[a], &objs[b]),
                            "{} dominates {} within one front",
                            a,
                            b
                        );
                    }
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "some candidate lost");
        for k in 1..fronts.len() {
            for &b in &fronts[k] {
                prop_assert!(
                    fronts[k - 1].iter().any(|&a| dominates(&objs[a], &objs[b])),
                    "front-{} member {} not dominated by front {}",
                    k,
                    b,
                    k - 1
                );
            }
        }
    }

    /// Boundary points — the extreme of any objective within a front,
    /// under the module's total value-then-index order — get infinite
    /// crowding distance.
    #[test]
    fn boundary_points_get_infinite_crowding((objs, _) in arb_matrix()) {
        for front in non_dominated_sort(&objs) {
            let dist = crowding_distance(&objs, &front);
            prop_assert_eq!(dist.len(), front.len());
            let dims = objs[front[0]].len();
            // `dim` indexes the inner objective vectors through `front`,
            // so an iterator rewrite would not apply.
            #[allow(clippy::needless_range_loop)]
            for dim in 0..dims {
                let lo = (0..front.len()).min_by(|&a, &b| {
                    objs[front[a]][dim]
                        .total_cmp(&objs[front[b]][dim])
                        .then(front[a].cmp(&front[b]))
                }).unwrap();
                let hi = (0..front.len()).max_by(|&a, &b| {
                    objs[front[a]][dim]
                        .total_cmp(&objs[front[b]][dim])
                        .then(front[a].cmp(&front[b]))
                }).unwrap();
                prop_assert!(dist[lo].is_infinite(), "min of dim {} not infinite", dim);
                prop_assert!(dist[hi].is_infinite(), "max of dim {} not infinite", dim);
            }
        }
    }

    /// Selection is a deterministic total order: a permutation of the
    /// candidate indices, stable across calls, consistent with the
    /// (rank, crowding, digest, index) comparator at every adjacent pair —
    /// or, with one objective, with (value, index) and `NaN` last.
    #[test]
    fn selection_is_a_deterministic_total_order((objs, keys) in arb_matrix()) {
        let order = selection_order(&objs, &keys);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..objs.len()).collect::<Vec<_>>());
        prop_assert_eq!(&selection_order(&objs, &keys), &order, "not stable across calls");

        if objs[0].len() == 1 {
            for w in order.windows(2) {
                let (a, b) = (w[0], w[1]);
                let (x, y) = (objs[a][0], objs[b][0]);
                let in_order = if x.is_nan() || y.is_nan() {
                    y.is_nan() && (!x.is_nan() || a < b)
                } else {
                    x < y || (x == y && a < b)
                };
                prop_assert!(in_order, "adjacent pair ({}, {}) out of value order", a, b);
            }
            return Ok(());
        }

        let mut rank = vec![0usize; objs.len()];
        let fronts = non_dominated_sort(&objs);
        let mut crowd = vec![0.0f64; objs.len()];
        for (r, front) in fronts.iter().enumerate() {
            let d = crowding_distance(&objs, front);
            for (pos, &i) in front.iter().enumerate() {
                rank[i] = r;
                crowd[i] = d[pos];
            }
        }
        for w in order.windows(2) {
            let (a, b) = (w[0], w[1]);
            let cmp = rank[a]
                .cmp(&rank[b])
                .then(crowd[b].total_cmp(&crowd[a]))
                .then(keys[a].cmp(&keys[b]))
                .then(a.cmp(&b));
            prop_assert!(cmp.is_lt(), "adjacent pair ({}, {}) out of order", a, b);
        }
    }

    /// With distinct objective values and distinct digests, selection is
    /// invariant under permutation of the input: relabeling candidates
    /// relabels the order, nothing else.
    #[test]
    fn selection_is_permutation_invariant((objs, keys) in arb_distinct_matrix()) {
        let n = objs.len();
        let order = selection_order(&objs, &keys);
        let rev_objs: Vec<Vec<f64>> = objs.iter().rev().cloned().collect();
        let rev_keys: Vec<CacheKey> = keys.iter().rev().copied().collect();
        let rev_order: Vec<usize> = selection_order(&rev_objs, &rev_keys)
            .into_iter()
            .map(|j| n - 1 - j)
            .collect();
        prop_assert_eq!(rev_order, order);
    }
}

/// One pinned run of the scalar search: what the standalone scalar engine
/// produced before it became the one-objective case of the NSGA-II loop.
struct Pin {
    config: &'static str,
    seed: u64,
    best_key: (u64, u64),
    best_score: u64,
    history: [u64; 8],
    evaluations: usize,
    memo_hits: usize,
}

/// Recorded from the standalone scalar engine on the seeds where a naive
/// fold into NSGA-II (digest tie-breaks, min-max-normalized proxy
/// targets) diverged from it.
const SCALAR_PINS: [Pin; 6] = [
    Pin {
        config: "off",
        seed: 0,
        best_key: (0x3f41_8a9b_b76e_7c77, 0xfc72_000e_9241_6b0f),
        best_score: 0x3ff2_b2d4_58c7_2280,
        history: [
            0x3ff3_092e_29d4_bac9,
            0x3ff3_092e_29d4_bac9,
            0x3ff3_092e_29d4_bac9,
            0x3ff3_092e_29d4_bac9,
            0x3ff3_092e_29d4_bac9,
            0x3ff2_b2d4_58c7_2280,
            0x3ff2_b2d4_58c7_2280,
            0x3ff2_b2d4_58c7_2280,
        ],
        evaluations: 83,
        memo_hits: 45,
    },
    Pin {
        config: "off",
        seed: 9,
        best_key: (0x56d0_5969_5e4e_a580, 0xfc8a_1364_1b16_edb9),
        best_score: 0x3ff2_bdad_a80f_7a42,
        history: [
            0x3ff3_9d2f_58cc_5833,
            0x3ff3_5f85_31aa_320f,
            0x3ff3_5f85_31aa_320f,
            0x3ff3_5f85_31aa_320f,
            0x3ff3_5f85_31aa_320f,
            0x3ff3_5f85_31aa_320f,
            0x3ff3_5f85_31aa_320f,
            0x3ff2_bdad_a80f_7a42,
        ],
        evaluations: 80,
        memo_hits: 48,
    },
    Pin {
        config: "proxy",
        seed: 0,
        best_key: (0x9f82_d419_11fe_f6a1, 0x661f_6262_b79f_10d6),
        best_score: 0x3ff1_cea5_735e_39f9,
        history: [
            0x3ff3_092e_29d4_bac9,
            0x3ff3_092e_29d4_bac9,
            0x3ff3_092e_29d4_bac9,
            0x3ff3_092e_29d4_bac9,
            0x3ff3_092e_29d4_bac9,
            0x3ff1_cea5_735e_39f9,
            0x3ff1_cea5_735e_39f9,
            0x3ff1_cea5_735e_39f9,
        ],
        evaluations: 56,
        memo_hits: 27,
    },
    Pin {
        config: "proxy",
        seed: 1,
        best_key: (0x9354_ae14_5f08_3fee, 0x6b6f_fa28_2c87_1636),
        best_score: 0x3ff2_a393_3852_e7a3,
        history: [
            0x3ff2_a393_3852_e7a3,
            0x3ff2_a393_3852_e7a3,
            0x3ff2_a393_3852_e7a3,
            0x3ff2_a393_3852_e7a3,
            0x3ff2_a393_3852_e7a3,
            0x3ff2_a393_3852_e7a3,
            0x3ff2_a393_3852_e7a3,
            0x3ff2_a393_3852_e7a3,
        ],
        evaluations: 65,
        memo_hits: 19,
    },
    Pin {
        config: "budget",
        seed: 2,
        best_key: (0xf563_f784_5d88_0937, 0xaf7a_01de_5fce_1057),
        best_score: 0x3ff2_da5f_d134_ffb8,
        history: [
            0x3ff4_08f7_558f_7e61,
            0x3ff4_08f7_558f_7e61,
            0x3ff2_da5f_d134_ffb8,
            0x3ff2_da5f_d134_ffb8,
            0x3ff2_da5f_d134_ffb8,
            0x3ff2_da5f_d134_ffb8,
            0x3ff2_da5f_d134_ffb8,
            0x3ff2_da5f_d134_ffb8,
        ],
        evaluations: 76,
        memo_hits: 52,
    },
    Pin {
        config: "budget",
        seed: 3,
        best_key: (0x906a_0f5d_beb3_daac, 0x6544_bc8f_aeb4_5624),
        best_score: 0x3ff3_bcde_fc3b_32f3,
        history: [
            0x41cd_cd65_0000_0000,
            0x41cd_cd65_0000_0000,
            0x3ff4_c01d_c500_ff13,
            0x3ff4_c01d_c500_ff13,
            0x3ff3_bcde_fc3b_32f3,
            0x3ff3_bcde_fc3b_32f3,
            0x3ff3_bcde_fc3b_32f3,
            0x3ff3_bcde_fc3b_32f3,
        ],
        evaluations: 82,
        memo_hits: 46,
    },
];

/// The scalar search reproduces the standalone scalar engine bit for bit:
/// best gene digest, best score, history, and evaluation accounting on a
/// noisy MNIST-4 search on belem, with the proxy off, on, and under a
/// parameter budget (where every over-budget gene ties at `1e9`), at 1 and
/// 4 workers. Exact ties must keep batch order and the prescreener must
/// learn raw scores for this to hold.
#[test]
fn scalar_search_matches_the_pinned_standalone_engine() {
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 3);
    let task = Task::qml_digits(&[0, 1, 2, 3], 40, 4, 4);
    let params: Vec<f64> = (0..sc.num_params())
        .map(|i| 0.2 * ((i % 5) as f64) - 0.4)
        .collect();
    let noisy = TrajectoryConfig {
        trajectories: 4,
        seed: 7,
        readout: true,
    };
    let est = Estimator::new(Device::belem(), EstimatorKind::NoisySim(noisy), 2).with_valid_cap(8);
    for pin in &SCALAR_PINS {
        let base = EvoConfig {
            iterations: 8,
            population: 16,
            parents: 5,
            mutations: 7,
            crossovers: 4,
            ..EvoConfig::fast(pin.seed)
        };
        let cfg = match pin.config {
            "off" => base,
            "proxy" => EvoConfig {
                population: 24,
                mutations: 12,
                crossovers: 7,
                proxy: ProxyOptions {
                    enabled: true,
                    keep: 0.25,
                    warmup: 2,
                },
                ..base
            },
            "budget" => EvoConfig {
                max_params: Some(20),
                ..base
            },
            other => unreachable!("unknown pin config {other}"),
        };
        for workers in [1usize, 4] {
            let cfg = EvoConfig {
                runtime: RuntimeOptions {
                    workers,
                    ..Default::default()
                },
                ..cfg.clone()
            };
            let rt = SearchRuntime::new(cfg.runtime.clone());
            let r = evolutionary_search_seeded_rt(&sc, &params, &task, &est, &cfg, &[], &rt);
            let at = format!("{} seed {} at {workers} workers", pin.config, pin.seed);
            let key = gene_key(&r.best);
            assert_eq!((key.lo, key.hi), pin.best_key, "{at}: best gene");
            assert_eq!(r.best_score.to_bits(), pin.best_score, "{at}: best score");
            let history: Vec<u64> = r.history.iter().map(|h| h.to_bits()).collect();
            assert_eq!(history, pin.history, "{at}: history");
            assert_eq!(r.evaluations, pin.evaluations, "{at}: evaluations");
            assert_eq!(r.memo_hits, pin.memo_hits, "{at}: memo hits");
        }
    }
}

/// The final front (genes and objective bits), best, and history are
/// identical at any worker count, and the emitted front JSON is stable.
#[test]
fn front_is_bitwise_identical_across_worker_counts() {
    let (sc, params, task, est) = setup();
    let run = |workers: usize| {
        let cfg = evo_cfg(
            17,
            RuntimeOptions {
                workers,
                ..Default::default()
            },
        );
        let rt = SearchRuntime::new(cfg.runtime.clone());
        evolutionary_search_pareto_rt(&sc, &params, &task, &est, &cfg, &ALL_OBJECTIVES, &[], &rt)
    };
    let reference = run(1);
    assert!(!reference.front.is_empty());
    let ref_json = front_json(&ALL_OBJECTIVES, &reference.front);
    for workers in [2usize, 4] {
        let result = run(workers);
        assert_pareto_bitwise_eq(&result, &reference);
        assert_eq!(
            front_json(&ALL_OBJECTIVES, &result.front),
            ref_json,
            "front JSON differs at {workers} workers"
        );
    }
}

/// One snapshot kind serves both entry points: a scalar search killed at
/// boundary 2 leaves `SEAR` frames, and the one-objective Pareto search
/// resumes them to a result bitwise-identical to an uninterrupted run.
#[test]
fn scalar_snapshot_resumes_under_the_one_objective_pareto_search() {
    let (sc, params, task, est) = setup();
    let loss = [Objective::Loss];
    let reference = {
        let cfg = evo_cfg(17, RuntimeOptions::default());
        let rt = SearchRuntime::new(cfg.runtime.clone());
        evolutionary_search_pareto_rt(&sc, &params, &task, &est, &cfg, &loss, &[], &rt)
    };
    let dir = common::TempDir::new("one-kind");
    let crash_cfg = evo_cfg(17, ckpt_options(dir.path(), 1, false));
    let rt = SearchRuntime::new(crash_cfg.runtime.clone())
        .with_fault_plan(Arc::new(FaultPlan::new().crash_at_boundary(2)));
    expect_boundary_crash(|| {
        evolutionary_search_seeded_rt(&sc, &params, &task, &est, &crash_cfg, &[], &rt);
    });
    assert_eq!(common::snapshot_kinds(dir.path()), vec![SEARCH_KIND]);

    let resume_cfg = evo_cfg(17, ckpt_options(dir.path(), 1, true));
    let rt = SearchRuntime::new(resume_cfg.runtime.clone());
    let resumed =
        evolutionary_search_pareto_rt(&sc, &params, &task, &est, &resume_cfg, &loss, &[], &rt);
    assert_eq!(rt.metrics().counter(counters::CHECKPOINT_RESUMES), 1);
    assert_pareto_bitwise_eq(&resumed, &reference);
}

/// A proxy-on Pareto snapshot must be rejected by a proxy-off resume (and
/// the run must then match a fresh proxy-off run bitwise).
#[test]
fn proxy_presence_mismatch_rejects_the_pareto_snapshot() {
    let (sc, params, task, est) = setup();
    let dir = common::TempDir::new("pareto-proxy-mismatch");
    let proxy_on = ProxyOptions {
        enabled: true,
        keep: 0.5,
        warmup: 1,
    };
    let mut crash_cfg = evo_cfg(17, ckpt_options(dir.path(), 1, false));
    crash_cfg.proxy = proxy_on;
    let rt = SearchRuntime::new(crash_cfg.runtime.clone())
        .with_fault_plan(Arc::new(FaultPlan::new().crash_at_boundary(2)));
    expect_boundary_crash(|| {
        evolutionary_search_pareto_rt(
            &sc,
            &params,
            &task,
            &est,
            &crash_cfg,
            &ALL_OBJECTIVES,
            &[],
            &rt,
        );
    });

    let fresh = {
        let cfg = evo_cfg(17, RuntimeOptions::default());
        let rt = SearchRuntime::new(cfg.runtime.clone());
        evolutionary_search_pareto_rt(&sc, &params, &task, &est, &cfg, &ALL_OBJECTIVES, &[], &rt)
    };
    let resume_cfg = evo_cfg(17, ckpt_options(dir.path(), 1, true));
    let rt = SearchRuntime::new(resume_cfg.runtime.clone());
    let resumed = evolutionary_search_pareto_rt(
        &sc,
        &params,
        &task,
        &est,
        &resume_cfg,
        &ALL_OBJECTIVES,
        &[],
        &rt,
    );
    assert_eq!(rt.metrics().counter(counters::CHECKPOINT_REJECTED), 1);
    assert_eq!(rt.metrics().counter(counters::CHECKPOINT_RESUMES), 0);
    assert_pareto_bitwise_eq(&resumed, &fresh);
}

/// An objective-vector change (same seed, same everything else) must also
/// reject the snapshot: the front being optimized is part of the context.
#[test]
fn objective_vector_mismatch_rejects_the_pareto_snapshot() {
    let (sc, params, task, est) = setup();
    let dir = common::TempDir::new("pareto-objs-mismatch");
    let crash_cfg = evo_cfg(17, ckpt_options(dir.path(), 1, false));
    let rt = SearchRuntime::new(crash_cfg.runtime.clone())
        .with_fault_plan(Arc::new(FaultPlan::new().crash_at_boundary(2)));
    expect_boundary_crash(|| {
        evolutionary_search_pareto_rt(
            &sc,
            &params,
            &task,
            &est,
            &crash_cfg,
            &ALL_OBJECTIVES,
            &[],
            &rt,
        );
    });

    let two = [Objective::Loss, Objective::TwoQ];
    let fresh = {
        let cfg = evo_cfg(17, RuntimeOptions::default());
        let rt = SearchRuntime::new(cfg.runtime.clone());
        evolutionary_search_pareto_rt(&sc, &params, &task, &est, &cfg, &two, &[], &rt)
    };
    let resume_cfg = evo_cfg(17, ckpt_options(dir.path(), 1, true));
    let rt = SearchRuntime::new(resume_cfg.runtime.clone());
    let resumed =
        evolutionary_search_pareto_rt(&sc, &params, &task, &est, &resume_cfg, &two, &[], &rt);
    assert_eq!(rt.metrics().counter(counters::CHECKPOINT_REJECTED), 1);
    assert_eq!(rt.metrics().counter(counters::CHECKPOINT_RESUMES), 0);
    assert_pareto_bitwise_eq(&resumed, &fresh);
}

/// "One search, many devices": the matcher picks a valid front point for
/// every device that fits, skips mappings the device cannot host, and the
/// estimated error is a probability.
#[test]
fn front_matches_across_devices() {
    let (sc, params, task, est) = setup();
    let cfg = evo_cfg(17, RuntimeOptions::default());
    let rt = SearchRuntime::new(cfg.runtime.clone());
    let result =
        evolutionary_search_pareto_rt(&sc, &params, &task, &est, &cfg, &ALL_OBJECTIVES, &[], &rt);
    assert!(!result.front.is_empty());
    for name in ["yorktown", "santiago", "guadalupe"] {
        let device = Device::by_name(name).unwrap();
        let (idx, err) =
            match_front_to_device(&sc, &task, &result.front, &device, 1).expect("front point fits");
        assert!(idx < result.front.len());
        assert!((0.0..=1.0).contains(&err), "{name}: error {err}");
    }
    // A point whose mapping references a physical qubit the device lacks
    // is skipped; when no point fits the matcher reports that.
    let unmappable = vec![FrontPoint {
        gene: Gene {
            config: sc.max_config(),
            layout: vec![0, 1, 2, 9],
        },
        objectives: vec![0.1, 1.0, 1.0],
    }];
    assert_eq!(
        match_front_to_device(&sc, &task, &unmappable, &Device::yorktown(), 1),
        None
    );
}
