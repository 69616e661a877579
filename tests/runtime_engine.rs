//! Integration tests for the search runtime: determinism across worker
//! counts and cache settings, and cache-key isolation properties.

use proptest::prelude::*;
use qns_noise::Device;
use qns_runtime::{counters, CacheKey, StructuralHasher};
use qns_transpile::Layout;
use qns_verify::VerifyLevel;
use quantumnas::{
    evolutionary_search, hash_device, random_search, transpile_key, DesignSpace, Estimator,
    EstimatorKind, EvoConfig, Gene, RuntimeOptions, SearchRuntime, SpaceKind, SuperCircuit, Task,
};

fn setup() -> (SuperCircuit, Vec<f64>, Task, Estimator) {
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 2);
    let task = Task::qml_digits(&[1, 8], 15, 4, 4);
    let params: Vec<f64> = (0..sc.num_params())
        .map(|i| 0.2 * ((i % 5) as f64) - 0.4)
        .collect();
    let est = Estimator::new(Device::yorktown(), EstimatorKind::SuccessRate, 1).with_valid_cap(4);
    (sc, params, task, est)
}

fn cfg_with(runtime: RuntimeOptions) -> EvoConfig {
    EvoConfig {
        iterations: 4,
        population: 8,
        parents: 3,
        mutations: 3,
        crossovers: 2,
        runtime,
        ..EvoConfig::fast(17)
    }
}

/// The tentpole acceptance criterion: the engine at `workers = 1` must be
/// bit-identical to the historical sequential loop, and adding workers
/// must not change any result — scores are pure per-gene functions and
/// collection is in input order.
#[test]
fn search_is_bit_identical_across_worker_counts() {
    let (sc, params, task, est) = setup();
    let results: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&w| {
            let cfg = cfg_with(RuntimeOptions {
                workers: w,
                cache: true,
                ..Default::default()
            });
            evolutionary_search(&sc, &params, &task, &est, &cfg)
        })
        .collect();
    for r in &results[1..] {
        assert_eq!(r.best, results[0].best);
        assert_eq!(r.best_score.to_bits(), results[0].best_score.to_bits());
        assert_eq!(r.history, results[0].history);
        assert_eq!(r.evaluations, results[0].evaluations);
        assert_eq!(r.memo_hits, results[0].memo_hits);
    }
}

#[test]
fn search_is_bit_identical_with_and_without_cache() {
    let (sc, params, task, est) = setup();
    let on = evolutionary_search(
        &sc,
        &params,
        &task,
        &est,
        &cfg_with(RuntimeOptions {
            workers: 1,
            cache: true,
            ..Default::default()
        }),
    );
    let off = evolutionary_search(
        &sc,
        &params,
        &task,
        &est,
        &cfg_with(RuntimeOptions {
            workers: 1,
            cache: false,
            ..Default::default()
        }),
    );
    assert_eq!(on.best, off.best);
    assert_eq!(on.best_score.to_bits(), off.best_score.to_bits());
    assert_eq!(on.history, off.history);
    assert_eq!(
        on.evaluations + on.memo_hits,
        off.evaluations + off.memo_hits
    );
    assert_eq!(off.memo_hits, 0);
}

#[test]
fn random_search_is_deterministic_across_runtime_settings() {
    let (sc, params, task, est) = setup();
    let reference = random_search(
        &sc,
        &params,
        &task,
        &est,
        &cfg_with(RuntimeOptions::sequential_uncached()),
    );
    for runtime in [
        RuntimeOptions {
            workers: 3,
            cache: true,
            ..Default::default()
        },
        RuntimeOptions {
            workers: 0,
            cache: true,
            ..Default::default()
        },
    ] {
        let r = random_search(&sc, &params, &task, &est, &cfg_with(runtime));
        assert_eq!(r.best, reference.best);
        assert_eq!(r.best_score.to_bits(), reference.best_score.to_bits());
        assert_eq!(r.history, reference.history);
    }
}

/// A panicking candidate is isolated to its own slot; the other results
/// come back in order.
#[test]
fn engine_poisons_panicking_candidates_only() {
    let items: Vec<i64> = (0..32).collect();
    let out: Vec<f64> = qns_sim::try_parallel_map(&items, 4, |&x| {
        assert!(x % 7 != 3, "synthetic failure");
        x as f64
    })
    .into_iter()
    .map(|slot| slot.unwrap_or(f64::INFINITY))
    .collect();
    for (i, v) in out.iter().enumerate() {
        if i % 7 == 3 {
            assert!(v.is_infinite(), "slot {i} must be poisoned");
        } else {
            assert_eq!(*v, i as f64);
        }
    }
}

/// A verify-enabled runtime classifies contract violations separately
/// from generic worker panics: the offending gene is poisoned to `+inf`,
/// its error message carries the verifier marker, and the violation lands
/// in its own telemetry counter (visible in the summary) while the panic
/// counter stays at zero.
#[test]
fn verify_violations_are_classified_and_counted() {
    let (sc, params, task, est) = setup();
    let encoder = match &task {
        Task::Qml { encoder, .. } => encoder.clone(),
        _ => unreachable!(),
    };
    let rt = SearchRuntime::new(RuntimeOptions {
        workers: 1,
        cache: false,
        verify: VerifyLevel::Contracts,
        checkpoint: None,
    });
    let est = rt.instrument_estimator(&est);
    let genes = [
        // A clean gene on the trivial mapping...
        Gene {
            config: sc.max_config(),
            layout: (0..4).collect(),
        },
        // ...and one whose mapping targets a qubit yorktown doesn't have.
        Gene {
            config: sc.max_config(),
            layout: vec![0, 1, 2, 40],
        },
    ];
    let out = rt.score_batch(CacheKey { lo: 7, hi: 7 }, &genes, |g| {
        let circuit = sc.build(&g.config, Some(&encoder));
        est.score(&circuit, &params, &task, &g.layout())
    });

    assert!(out.scores[0].is_finite(), "clean gene must score normally");
    assert!(
        out.scores[1].is_infinite(),
        "violating gene must be poisoned"
    );
    assert_eq!(out.errors.len(), 1);
    assert_eq!(out.errors[0].0, 1, "error must name the violating slot");
    assert!(
        out.errors[0].1.contains("qns-verify:"),
        "message must carry the verifier marker, got: {}",
        out.errors[0].1
    );

    let m = rt.metrics();
    assert_eq!(m.counter(counters::VERIFY_VIOLATIONS), 1);
    assert_eq!(m.counter(counters::PANICS), 0);
    assert!(m.counter(counters::VERIFY_CHECKS) >= 1);
    assert!(m.summary().contains("verify violations"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cache-correctness property: transpile keys for distinct devices or
    /// distinct optimization levels never collide, so cached artifacts
    /// can never leak across compilation contexts.
    #[test]
    fn transpile_keys_separate_devices_and_opt_levels(
        seed in 0..1000u64,
        opt_a in 0..3u64,
        opt_b in 0..3u64,
        scale_tenths in 11..40u64,
    ) {
        let (sc, _, task, _) = setup();
        let encoder = match &task {
            Task::Qml { encoder, .. } => encoder.clone(),
            _ => unreachable!(),
        };
        // A seed-dependent circuit from the design space.
        let mut cfg = sc.max_config();
        cfg.n_blocks = 1 + (seed as usize) % sc.num_blocks();
        let circuit = sc.build(&cfg, Some(&encoder));
        let layout = Layout::trivial(4);
        let base = Device::yorktown();
        let scaled = base.scaled_errors(scale_tenths as f64 / 10.0);

        let k_base = transpile_key(&circuit, &base, &layout, opt_a as u8);
        let k_scaled = transpile_key(&circuit, &scaled, &layout, opt_a as u8);
        prop_assert!(k_base != k_scaled, "distinct devices must not share");

        if opt_a != opt_b {
            let k_other = transpile_key(&circuit, &base, &layout, opt_b as u8);
            prop_assert!(k_base != k_other, "distinct opt levels must not share");
        }

        // Key stability: the same inputs always produce the same digest.
        prop_assert_eq!(k_base, transpile_key(&circuit, &base, &layout, opt_a as u8));
    }

    /// Device fingerprints are injective over the calibration data the
    /// transpiler and noise model read.
    #[test]
    fn device_fingerprints_differ_across_catalogue(a in 0..6usize, b in 0..6usize) {
        let names = ["santiago", "athens", "rome", "belem", "quito", "yorktown"];
        let da = Device::by_name(names[a]).unwrap();
        let db = Device::by_name(names[b]).unwrap();
        let digest = |d: &Device| {
            let mut h = StructuralHasher::new();
            hash_device(&mut h, d);
            h.finish()
        };
        if a == b {
            prop_assert_eq!(digest(&da), digest(&db));
        } else {
            prop_assert!(digest(&da) != digest(&db));
        }
    }
}
