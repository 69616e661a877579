//! Tests for the snapshot wire format: encode→decode is the identity on
//! arbitrary checkpoint states, any single-byte corruption or truncation
//! of a frame is detected with a typed error — never a panic, never a
//! silently wrong state — and the encoded bytes are pinned to
//! `FORMAT_VERSION`.

use proptest::prelude::*;
use qns_runtime::{
    decode_snapshot, encode_snapshot, ByteWriter, CacheKey, CheckpointError, Checkpointable,
    StructuralHasher, FORMAT_VERSION,
};
use quantumnas::{
    BackendConfig, DesignSpace, FusionModel, Gene, Prescreener, PrescreenerState, ProxyFeatures,
    ProxyOptions, PruneCheckpoint, SearchCheckpoint, SpaceKind, SubConfig, SuperCircuit,
    TrainCheckpoint,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn key_from(lo: u64, hi: u64) -> CacheKey {
    CacheKey { lo, hi }
}

/// Strategy: an arbitrary search snapshot over real genes of the U3+CU3
/// space (layouts are rotations; widths are clamped to the legal range),
/// with a non-dominated archive of at least `min_archive` (gene,
/// objective-vector) pairs over 1–3 objectives, `+inf` poison included.
fn arb_search_checkpoint(min_archive: usize) -> impl Strategy<Value = SearchCheckpoint> {
    (
        arb_search_state(),
        prop::collection::vec((0usize..6, -5.0..5.0f64, prop::bool::ANY), min_archive..6),
        1usize..=3,
    )
        .prop_map(|(mut s, raw_archive, dims)| {
            s.archive = raw_archive
                .into_iter()
                .map(|(gi, v, poison)| {
                    let gene = s.population[gi % s.population.len()].clone();
                    let objs = (0..dims)
                        .map(|d| {
                            if poison && d == 0 {
                                f64::INFINITY
                            } else {
                                v + d as f64
                            }
                        })
                        .collect();
                    (gene, objs)
                })
                .collect();
            s
        })
}

/// Strategy: the archive-free part of [`arb_search_checkpoint`].
fn arb_search_state() -> impl Strategy<Value = SearchCheckpoint> {
    let gene = (0usize..4, prop::collection::vec(1usize..=4, 2..=6));
    (
        (0u64..u64::MAX, 0u64..u64::MAX),
        (0usize..64, 0usize..10_000, 0usize..10_000),
        prop::collection::vec(gene, 1..=6),
        prop::collection::vec(0u64..u64::MAX, 4),
        prop::collection::vec(-10.0..10.0f64, 0..8),
        (
            prop::collection::vec((0u64..1000, 0u64..1000, -5.0..5.0f64), 0..8),
            // Optional prescreener state, built through the public API:
            // fusion observations, feature-cache entries, counters.
            (
                prop::bool::ANY,
                prop::collection::vec(
                    (
                        -3.0..3.0f64,
                        -3.0..3.0f64,
                        -3.0..3.0f64,
                        -3.0..3.0f64,
                        -3.0..3.0f64,
                        -2.0..2.0f64,
                    ),
                    0..6,
                ),
                prop::collection::vec(
                    (
                        (0u64..1000, 0u64..1000),
                        (
                            -3.0..3.0f64,
                            -3.0..3.0f64,
                            -3.0..3.0f64,
                            -3.0..3.0f64,
                            -3.0..3.0f64,
                        ),
                    ),
                    0..6,
                ),
                (0u64..1000, 0u64..1000, 0u64..1000),
            ),
        ),
    )
        .prop_map(
            |(
                ctx,
                (generation, evaluations, memo_hits),
                genes,
                rng_words,
                history,
                (memo, (with_proxy, proxy_obs, proxy_cache, proxy_counters)),
            )| {
                let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 2);
                let population: Vec<Gene> = genes
                    .into_iter()
                    .map(|(rot, widths)| {
                        let mut config = sc.max_config();
                        for (w, pick) in config
                            .widths
                            .iter_mut()
                            .flat_map(|b| b.iter_mut())
                            .zip(widths.iter().cycle())
                        {
                            *w = (*w).min(*pick);
                        }
                        Gene {
                            config,
                            layout: (0..4).map(|q| (q + rot) % 4).collect(),
                        }
                    })
                    .collect();
                let best = population
                    .first()
                    .map(|g| (g.clone(), history.first().copied().unwrap_or(0.5)));
                let proxy = with_proxy.then(|| {
                    let mut pre = Prescreener::new(ProxyOptions {
                        enabled: true,
                        keep: 0.5,
                        warmup: 1,
                    });
                    for ((lo, hi), (a, b, c, d, e)) in proxy_cache {
                        pre.record_features(key_from(lo, hi), ProxyFeatures([a, b, c, d, e]));
                    }
                    for (a, b, c, d, e, score) in proxy_obs {
                        pre.observe(&ProxyFeatures([a, b, c, d, e]), score);
                    }
                    pre.snapshot(proxy_counters.0, proxy_counters.1, proxy_counters.2)
                });
                SearchCheckpoint {
                    context: key_from(ctx.0, ctx.1),
                    generation,
                    population,
                    rng: [rng_words[0], rng_words[1], rng_words[2], rng_words[3]],
                    archive: Vec::new(),
                    best,
                    history,
                    evaluations,
                    memo_hits,
                    memo: memo
                        .into_iter()
                        .map(|(lo, hi, s)| (key_from(lo, hi), s))
                        .collect(),
                    proxy,
                }
            },
        )
}

/// Strategy: an arbitrary training snapshot (vectors of various lengths,
/// extreme floats included via bit patterns that stay finite).
fn arb_train_checkpoint() -> impl Strategy<Value = TrainCheckpoint> {
    (
        (0u64..u64::MAX, 0u64..u64::MAX),
        (0usize..512, 0usize..512),
        prop::collection::vec(-1e12..1e12f64, 0..24),
        prop::collection::vec(0u64..u64::MAX, 8),
        prop::collection::vec(-100.0..100.0f64, 0..12),
        (1usize..4, prop::collection::vec(1usize..=4, 4)),
    )
        .prop_map(
            |(ctx, (step, sampler_step), params, words, history, (n_blocks, widths))| {
                TrainCheckpoint {
                    context: key_from(ctx.0, ctx.1),
                    step,
                    params: params.clone(),
                    opt_m: params.iter().map(|p| p * 0.5).collect(),
                    opt_v: params.iter().map(|p| p * p).collect(),
                    opt_t: step as u64,
                    history,
                    rng: [words[0], words[1], words[2], words[3]],
                    sampler_prev: SubConfig {
                        n_blocks,
                        widths: vec![widths.clone(); n_blocks],
                    },
                    sampler_step,
                    sampler_rng: [words[4], words[5], words[6], words[7]],
                }
            },
        )
}

/// Deterministic per-case byte picker (the shim has no independent index
/// strategy that can depend on the frame's length).
fn pick(seed: u64, bound: usize) -> usize {
    let mut h = StructuralHasher::new();
    h.write_u64(seed);
    (h.finish().lo % bound as u64) as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// encode→decode is the identity on arbitrary search snapshots.
    #[test]
    fn search_snapshot_round_trips(state in arb_search_checkpoint(0)) {
        let frame = encode_snapshot(&state);
        let back: SearchCheckpoint = decode_snapshot(&frame).expect("valid frame");
        prop_assert_eq!(back, state);
    }

    /// encode→decode is the identity on arbitrary training snapshots,
    /// with every float compared bitwise.
    #[test]
    fn train_snapshot_round_trips(state in arb_train_checkpoint()) {
        let frame = encode_snapshot(&state);
        let back: TrainCheckpoint = decode_snapshot(&frame).expect("valid frame");
        for (a, b) in back.params.iter().zip(&state.params) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(back, state);
    }

    /// encode→decode is the identity on search snapshots carrying a
    /// Pareto archive, with every archive objective compared bitwise.
    #[test]
    fn pareto_snapshot_round_trips(state in arb_search_checkpoint(1)) {
        let frame = encode_snapshot(&state);
        let back: SearchCheckpoint = decode_snapshot(&frame).expect("valid frame");
        for ((ga, oa), (gb, ob)) in back.archive.iter().zip(&state.archive) {
            prop_assert_eq!(ga, gb);
            for (x, y) in oa.iter().zip(ob) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        prop_assert_eq!(back, state);
    }

    /// Corrupting any single byte of a frame carrying a Pareto archive is
    /// always detected: decode returns a typed error and never panics.
    #[test]
    fn pareto_single_byte_corruption_is_always_detected(
        state in arb_search_checkpoint(1),
        flip_at in 0u64..u64::MAX,
        mask in 1u8..=255,
    ) {
        let mut frame = encode_snapshot(&state);
        let i = pick(flip_at, frame.len());
        frame[i] ^= mask;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            decode_snapshot::<SearchCheckpoint>(&frame)
        }));
        let decoded = outcome.expect("decode must never panic");
        prop_assert!(
            decoded.is_err(),
            "flipping byte {} (mask {:#04x}) went undetected",
            i,
            mask
        );
    }

    /// Corrupting any single byte of a frame is always detected: decode
    /// returns a typed error and never panics.
    #[test]
    fn single_byte_corruption_is_always_detected(
        state in arb_search_checkpoint(0),
        flip_at in 0u64..u64::MAX,
        mask in 1u8..=255,
    ) {
        let mut frame = encode_snapshot(&state);
        let i = pick(flip_at, frame.len());
        frame[i] ^= mask;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            decode_snapshot::<SearchCheckpoint>(&frame)
        }));
        let decoded = outcome.expect("decode must never panic");
        prop_assert!(
            decoded.is_err(),
            "flipping byte {} (mask {:#04x}) went undetected",
            i,
            mask
        );
    }

    /// Truncating a frame at any point yields a typed error, never a
    /// panic and never a partial state.
    #[test]
    fn truncation_is_always_detected(
        state in arb_train_checkpoint(),
        cut_at in 0u64..u64::MAX,
    ) {
        let frame = encode_snapshot(&state);
        let cut = pick(cut_at, frame.len());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            decode_snapshot::<TrainCheckpoint>(&frame[..cut])
        }));
        let decoded = outcome.expect("decode must never panic");
        match decoded {
            Err(
                CheckpointError::Truncated { .. }
                | CheckpointError::BadMagic
                | CheckpointError::CrcMismatch { .. }
                | CheckpointError::Malformed(_),
            ) => {}
            Err(e) => prop_assert!(false, "unexpected error kind: {e}"),
            Ok(_) => prop_assert!(false, "truncation at {} went undetected", cut),
        }
    }
}

/// The digest of what `encode` writes into a fresh [`ByteWriter`], as hex.
fn wire_digest(encode: impl FnOnce(&mut ByteWriter)) -> String {
    let mut w = ByteWriter::new();
    encode(&mut w);
    let mut h = StructuralHasher::new();
    h.write_bytes(&w.into_bytes());
    let key = h.finish();
    format!("{:016x}{:016x}", key.hi, key.lo)
}

/// The wire format, pinned: a digest of each wire struct's encoded bytes
/// for one fixed instance, recorded at `FORMAT_VERSION` 3. A change to
/// any `encode` — a field added, dropped, retyped or written in another
/// order — moves a digest and fails here until `FORMAT_VERSION` is
/// bumped and the pins are re-recorded, so snapshots of the old layout
/// are rejected instead of misread. `Welford` is private to `qns-proxy`:
/// its bytes are pinned inside `FusionModel`'s six normalizers.
#[test]
fn wire_bytes_are_pinned_to_the_format_version() {
    const PINNED_VERSION: u32 = 3;
    const PINS: [(&str, &str); 6] = [
        ("BackendConfig", "f9a9697c36eda57150e0e0369bb1f7cf"),
        ("FusionModel", "77f2b29eccca1a34c0baa818f7e504cc"),
        ("PrescreenerState", "c391b3e91af8d121d0774f127c0fa582"),
        ("SearchCheckpoint", "f63b8e96af6b27449a4f4cf872e32298"),
        ("TrainCheckpoint", "cf1323d8843df4c703aeddf6bfd70ea7"),
        ("PruneCheckpoint", "ef26881bdaa884ee648b02a5d4ab2e8d"),
    ];
    assert_eq!(
        FORMAT_VERSION, PINNED_VERSION,
        "FORMAT_VERSION moved: re-record every pin below at the new version"
    );

    let gene = |n: usize, first: usize| Gene {
        config: SubConfig {
            n_blocks: n,
            widths: (0..n)
                .map(|b| vec![first + b, (first + b) % 3 + 1])
                .collect(),
        },
        layout: vec![3, 0, 2, 1],
    };
    let backend = BackendConfig {
        tag: 2,
        max_bond: 17,
        cutoff_bits: 1e-9f64.to_bits(),
    };
    let mut fusion = FusionModel::new();
    fusion.observe(&ProxyFeatures([1.0, 2.0, 3.0, 4.0, 5.0]), 0.5);
    fusion.observe(&ProxyFeatures([2.0, 1.0, 0.0, -1.0, 3.0]), 0.9);
    fusion.observe(&ProxyFeatures([0.5, -2.0, 1.5, 2.5, -0.5]), 0.25);
    let proxy = PrescreenerState {
        fusion: fusion.clone(),
        features: vec![
            (key_from(3, 4), ProxyFeatures([0.1, 0.2, 0.3, 0.4, 0.5])),
            (
                key_from(5, 6),
                ProxyFeatures([-0.1, 1.2, f64::INFINITY, 0.0, 2.5]),
            ),
        ],
        proxy_evals: 11,
        proxy_escalations: 7,
        proxy_dedup_hits: 2,
    };
    let search = SearchCheckpoint {
        context: key_from(7, 9),
        generation: 3,
        population: vec![gene(2, 1), gene(3, 2)],
        rng: [21, 22, 23, 24],
        archive: vec![
            (gene(2, 1), vec![0.25, 18.0]),
            (gene(1, 4), vec![0.75, 10.0]),
        ],
        best: Some((gene(3, 2), -0.75)),
        history: vec![0.9, 0.5, -0.75],
        evaluations: 40,
        memo_hits: 12,
        memo: vec![(key_from(1, 2), 0.25), (key_from(2, 3), f64::INFINITY)],
        proxy: Some(proxy.clone()),
    };
    let train = TrainCheckpoint {
        context: key_from(8, 10),
        step: 5,
        params: vec![0.1, -0.2, 0.3],
        opt_m: vec![0.01, 0.02, -0.03],
        opt_v: vec![1e-4, 2e-4, 3e-4],
        opt_t: 6,
        history: vec![1.5, 1.25],
        rng: [31, 32, 33, 34],
        sampler_prev: gene(2, 3).config,
        sampler_step: 4,
        sampler_rng: [41, 42, 43, 44],
    };
    let prune = PruneCheckpoint {
        context: key_from(11, 12),
        round: 2,
        params: vec![0.5, 0.0, -0.25],
        mask: vec![true, false, true],
        final_loss: 0.375,
    };
    let got = [
        ("BackendConfig", wire_digest(|w| backend.encode(w))),
        ("FusionModel", wire_digest(|w| fusion.encode(w))),
        ("PrescreenerState", wire_digest(|w| proxy.encode(w))),
        ("SearchCheckpoint", wire_digest(|w| search.encode(w))),
        ("TrainCheckpoint", wire_digest(|w| train.encode(w))),
        ("PruneCheckpoint", wire_digest(|w| prune.encode(w))),
    ];
    assert_eq!(
        got,
        PINS.map(|(name, digest)| (name, digest.to_string())),
        "wire bytes changed at FORMAT_VERSION {FORMAT_VERSION}: bump FORMAT_VERSION \
         and re-record the pins from `left`"
    );
}
