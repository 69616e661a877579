//! Differential battery for the batched multi-state engine.
//!
//! [`StateBatch`] packs B lanes structure-of-arrays and sweeps them with
//! the same structure-specialized kernels as the single-state path, so
//! every lane must reproduce a standalone [`StateVec`] run exactly. The
//! tests here drive random circuits — every gate template the circuit
//! crate ships, 1–8 qubits, trainable / input-encoded / affine / fixed
//! parameter slots — through `replay_batch_into` and
//! `adjoint_gradient_batch` at batch sizes {1, 3, 8, 32} and fusion
//! levels 0–3, demanding ≤1e-12 agreement with N sequential
//! single-state runs. A final check pins the batched trajectory path
//! bitwise across worker counts.

use proptest::prelude::*;
use qns_circuit::{Circuit, GateKind, Param};
use qns_noise::{Device, TrajectoryConfig, TrajectoryExecutor};
use qns_sim::{
    adjoint_gradient, adjoint_gradient_batch, run, DiagObservable, ExecMode, SimPlan, StateBatch,
    StateVec,
};

const TOL: f64 = 1e-12;
const BATCH_SIZES: [usize; 4] = [1, 3, 8, 32];

/// Deterministic per-lane input vector: distinct across lanes and
/// features so an encoder bug on any lane shows up.
fn lane_input(dim: usize, lane: usize) -> Vec<f64> {
    (0..dim)
        .map(|q| 0.35 * (lane as f64 + 1.0) * ((q as f64) + 0.5).sin())
        .collect()
}

/// Strategy: a random circuit over 1..=8 qubits drawing from EVERY gate
/// template, with each parameter slot independently chosen to be a
/// trainable, a raw input feature, an affine input encoding, or a fixed
/// angle. Returns (circuit, train values, input dimension).
fn arb_batched_circuit() -> impl Strategy<Value = (Circuit, Vec<f64>, usize)> {
    (
        1usize..=8,
        prop::collection::vec(
            (
                0..GateKind::all().len(),
                0usize..8,
                0usize..8,
                prop::collection::vec(-3.0..3.0f64, 3),
                prop::collection::vec(0u8..4, 3),
            ),
            1..30,
        ),
    )
        .prop_map(|(n, ops)| {
            let mut c = Circuit::new(n);
            let mut train = Vec::new();
            for (gi, a, b, vals, modes) in ops {
                let kind = GateKind::all()[gi];
                if kind.num_qubits() == 2 && n == 1 {
                    continue; // no pair available on a single wire
                }
                let (a, b) = (a % n, b % n);
                let qs: Vec<usize> = if kind.num_qubits() == 1 {
                    vec![a]
                } else if a != b {
                    vec![a, b]
                } else {
                    vec![a, (a + 1) % n]
                };
                let ps: Vec<Param> = (0..kind.num_params())
                    .map(|k| match modes[k] {
                        0 => Param::Input((k + a) % n),
                        1 => Param::AffineInput {
                            index: (k + b) % n,
                            scale: 0.7,
                            offset: vals[k] * 0.1,
                        },
                        2 => Param::Fixed(vals[k]),
                        _ => {
                            train.push(vals[k]);
                            Param::Train(train.len() - 1)
                        }
                    })
                    .collect();
                c.push(kind, &qs, &ps);
            }
            (c, train, n)
        })
}

fn assert_lane_matches(batch: &StateBatch, lane: usize, oracle: &StateVec, what: &str) {
    let lane_state = batch.lane_state(lane);
    for (i, (a, b)) in lane_state
        .amplitudes()
        .iter()
        .zip(oracle.amplitudes())
        .enumerate()
    {
        let d = ((a.re - b.re).powi(2) + (a.im - b.im).powi(2)).sqrt();
        assert!(
            d < TOL,
            "{what}: lane {lane} amplitude {i} differs by {d:e}"
        );
    }
}

/// Bitwise comparison for the planar↔single-state differential: the
/// split-complex kernels transcribe the exact expression shapes of the
/// interleaved `C64` arithmetic, so agreement is to the bit (`to_bits`,
/// which even distinguishes `-0.0` from `0.0`), not to a tolerance.
fn assert_lane_bitwise(batch: &StateBatch, lane: usize, oracle: &StateVec, what: &str) {
    let lane_state = batch.lane_state(lane);
    for (i, (a, b)) in lane_state
        .amplitudes()
        .iter()
        .zip(oracle.amplitudes())
        .enumerate()
    {
        assert!(
            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
            "{what}: lane {lane} amplitude {i} not bit-identical: {a:?} vs {b:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Planar↔interleaved bitwise differential: every lane of the
    /// split-complex batched replay must equal the single-state
    /// (interleaved `C64`) replay BIT-FOR-BIT — every gate template,
    /// batch sizes {1, 3, 8, 32}, fusion levels 0–3. This is the hard
    /// contract that lets the trajectory executor batch lanes without
    /// perturbing results.
    #[test]
    fn planar_batch_is_bitwise_identical_to_interleaved_single(
        (circuit, train, dim) in arb_batched_circuit()
    ) {
        let samples: Vec<Vec<f64>> = (0..32).map(|l| lane_input(dim, l)).collect();
        let n = circuit.num_qubits();
        for level in 0..=3u8 {
            let plan = SimPlan::compile(&circuit, level);
            let base = plan.materialize(&circuit, &train, &samples[0]);
            let mut single = StateVec::zero_state(n);
            for &bs in &BATCH_SIZES {
                let inputs: Vec<&[f64]> =
                    samples[..bs].iter().map(|s| s.as_slice()).collect();
                let mut batch = StateBatch::zero_state(n, bs);
                plan.replay_batch_into(&circuit, &base, &train, &inputs, &mut batch);
                for (lane, input) in inputs.iter().enumerate() {
                    plan.replay_input_into(&circuit, &base, &train, input, &mut single);
                    assert_lane_bitwise(
                        &batch,
                        lane,
                        &single,
                        &format!("fusion {level}, batch {bs}"),
                    );
                }
            }
        }
    }

    /// Batched replay: every lane of `replay_batch_into` matches a
    /// standalone `replay_input_into` run, at every fusion level and
    /// batch size.
    #[test]
    fn batched_replay_matches_per_sample_replay(
        (circuit, train, dim) in arb_batched_circuit()
    ) {
        let samples: Vec<Vec<f64>> = (0..32).map(|l| lane_input(dim, l)).collect();
        let n = circuit.num_qubits();
        for level in 0..=3u8 {
            let plan = SimPlan::compile(&circuit, level);
            let base = plan.materialize(&circuit, &train, &samples[0]);
            let mut single = StateVec::zero_state(n);
            for &bs in &BATCH_SIZES {
                let inputs: Vec<&[f64]> =
                    samples[..bs].iter().map(|s| s.as_slice()).collect();
                let mut batch = StateBatch::zero_state(n, bs);
                plan.replay_batch_into(&circuit, &base, &train, &inputs, &mut batch);
                for (lane, input) in inputs.iter().enumerate() {
                    plan.replay_input_into(&circuit, &base, &train, input, &mut single);
                    assert_lane_matches(
                        &batch,
                        lane,
                        &single,
                        &format!("fusion {level}, batch {bs}"),
                    );
                }
            }
        }
    }

    /// Batched adjoint: per-lane losses match per-sample Dynamic runs
    /// and the summed gradient matches the sum of per-sample
    /// `adjoint_gradient` calls, at every batch size.
    #[test]
    fn batched_adjoint_matches_per_sample_adjoint(
        (circuit, train, dim) in arb_batched_circuit()
    ) {
        let samples: Vec<Vec<f64>> = (0..32).map(|l| lane_input(dim, l)).collect();
        let n = circuit.num_qubits();
        for &bs in &BATCH_SIZES {
            let inputs: Vec<&[f64]> = samples[..bs].iter().map(|s| s.as_slice()).collect();
            // Distinct diagonal weights per lane, as QML loss gradients are.
            let weights: Vec<Vec<f64>> = (0..bs)
                .map(|l| {
                    (0..n)
                        .map(|q| 0.4 * (l as f64 + 1.0) * ((q as f64) - 0.7))
                        .collect()
                })
                .collect();
            let (losses, grad) = adjoint_gradient_batch(
                &circuit,
                &train,
                &inputs,
                |lane, ez| (ez.iter().sum::<f64>(), weights[lane].clone()),
            );
            prop_assert_eq!(losses.len(), bs);
            prop_assert_eq!(grad.len(), circuit.num_train_params());
            let mut expected_grad = vec![0.0; circuit.num_train_params()];
            for (lane, input) in inputs.iter().enumerate() {
                let psi = run(&circuit, &train, input, ExecMode::Dynamic);
                let expected_loss: f64 = psi.expect_z_all().iter().sum();
                prop_assert!(
                    (losses[lane] - expected_loss).abs() < TOL,
                    "batch {}: lane {} loss {} vs {}",
                    bs, lane, losses[lane], expected_loss
                );
                let obs = DiagObservable::new(weights[lane].clone());
                let (_, g) = adjoint_gradient(&circuit, &train, input, &obs);
                for (acc, gi) in expected_grad.iter_mut().zip(&g) {
                    *acc += gi;
                }
            }
            for (ti, (a, b)) in grad.iter().zip(&expected_grad).enumerate() {
                prop_assert!(
                    (a - b).abs() < TOL,
                    "batch {}: grad[{}] batched {} vs sequential {}",
                    bs, ti, a, b
                );
            }
        }
    }
}

/// Trajectory lanes are chunked by a fixed constant, never by worker
/// count, so the batched fast path must return bitwise-identical
/// results for ANY worker policy — including a trajectory count that
/// straddles the lane-chunk boundary and a circuit with trainable and
/// input-encoded parameters.
#[test]
fn batched_trajectory_lanes_bitwise_stable_for_any_worker_count() {
    let mut c = Circuit::new(3);
    c.push(GateKind::H, &[0], &[]);
    c.push(GateKind::RX, &[1], &[Param::Input(0)]);
    c.push(GateKind::CX, &[0, 1], &[]);
    c.push(GateKind::RY, &[1], &[Param::Train(0)]);
    c.push(GateKind::CX, &[1, 2], &[]);
    c.push(GateKind::RZZ, &[0, 2], &[Param::Train(1)]);
    let train = [0.8, 0.3];
    let input = [0.45];
    let phys = [0usize, 1, 2];
    let cfg = TrajectoryConfig {
        trajectories: 40, // crosses the 16-lane chunk boundary
        seed: 13,
        readout: true,
    };
    let baseline = TrajectoryExecutor::new(Device::belem(), cfg).with_workers(1);
    let base_e = baseline.expect_z(&c, &train, &input, &phys);
    let base_m = baseline.expect_z_masks(&c, &train, &input, &phys, &[0b101, 0b011]);
    let base_s = baseline.sample_counts(&c, &train, &input, &phys, 500);
    for workers in [2, 5, 0] {
        let exec = TrajectoryExecutor::new(Device::belem(), cfg).with_workers(workers);
        assert_eq!(
            base_e.expect_z,
            exec.expect_z(&c, &train, &input, &phys).expect_z,
            "{workers:?}: expectations drifted"
        );
        assert_eq!(
            base_m,
            exec.expect_z_masks(&c, &train, &input, &phys, &[0b101, 0b011]),
            "{workers:?}: parity masks drifted"
        );
        assert_eq!(
            base_s,
            exec.sample_counts(&c, &train, &input, &phys, 500),
            "{workers:?}: sampled counts drifted"
        );
    }
}

// ---------------------------------------------------------------------------
// Pool-semantics suite: every fan-out runs on one persistent process-wide
// worker pool, and every observable contract of the old per-call scoped
// spawn must survive — input ordering, mid-process `set_parallelism`,
// inline nested fan-outs, and panic payloads reaching the per-candidate
// isolation scope with their message intact.
// ---------------------------------------------------------------------------

/// Results come back in input order for every worker count, including
/// counts that exceed the item count and the auto policy.
#[test]
fn pool_preserves_input_order_at_any_worker_count() {
    let items: Vec<usize> = (0..513).collect();
    for workers in [0, 1, 2, 3, 7, 16, 1024] {
        let out = qns_sim::parallel_map_with(&items, workers, |&x| x * 3);
        assert_eq!(out.len(), items.len(), "workers {workers}");
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3, "workers {workers}: slot {i} out of order");
        }
    }
}

/// `set_parallelism` keeps taking effect after the pool has already
/// spawned workers: forcing 1 later must pull everything back onto the
/// calling thread even though pool threads still exist.
#[test]
fn pool_honors_set_parallelism_mid_process() {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            qns_sim::set_parallelism(0);
        }
    }
    let _reset = Reset;
    let items: Vec<usize> = (0..64).collect();
    qns_sim::set_parallelism(4);
    let _warm = qns_sim::parallel_map(&items, |&x| x); // pool is live now
    qns_sim::set_parallelism(1);
    let caller = std::thread::current().id();
    let ids = qns_sim::parallel_map(&items, |_| std::thread::current().id());
    assert!(
        ids.iter().all(|&id| id == caller),
        "late override to 1 worker must bypass the live pool"
    );
}

/// A map started inside a candidate item runs inline on that item's
/// thread instead of oversubscribing the cores, and a 4-worker trajectory
/// executor nested the same way stays bitwise equal to a 1-worker one.
#[test]
fn nested_fan_outs_stay_on_the_outer_items_thread() {
    let mut c = Circuit::new(3);
    c.push(GateKind::H, &[0], &[]);
    c.push(GateKind::RX, &[1], &[Param::Input(0)]);
    c.push(GateKind::CX, &[0, 1], &[]);
    c.push(GateKind::RY, &[2], &[Param::Train(0)]);
    c.push(GateKind::CZ, &[1, 2], &[]);
    let (train, input, phys) = ([0.6], [0.25], [0usize, 1, 2]);
    let cfg = TrajectoryConfig {
        trajectories: 40,
        seed: 21,
        readout: true,
    };
    let reference = TrajectoryExecutor::new(Device::belem(), cfg)
        .with_workers(1)
        .expect_z(&c, &train, &input, &phys);
    let nested = TrajectoryExecutor::new(Device::belem(), cfg).with_workers(4);
    let candidates: Vec<usize> = (0..4).collect();
    let results = qns_sim::try_parallel_map(&candidates, 2, |_| {
        let outer = std::thread::current().id();
        let samples: Vec<usize> = (0..64).collect();
        let ids = qns_sim::parallel_map_with(&samples, 4, |_| std::thread::current().id());
        let expect = nested.expect_z(&c, &train, &input, &phys);
        (ids.iter().all(|&id| id == outer), expect)
    });
    for (i, slot) in results.into_iter().enumerate() {
        let (inline, expect) = slot.expect("no candidate panics");
        assert!(
            inline,
            "candidate {i}: inner items left the outer item's thread"
        );
        assert_eq!(
            expect.expect_z, reference.expect_z,
            "candidate {i}: nested trajectories drifted"
        );
    }
}

/// A panic inside a pooled chunk propagates out of `parallel_map` with
/// its original payload, and `try_parallel_map`'s per-item isolation
/// scope classifies it into the same telemetry message a scoped spawn
/// produced (the downcast-to-String path in `panic_message`).
#[test]
fn pool_panics_classify_correctly_in_telemetry() {
    // Payload survives the pool boundary verbatim.
    let items: Vec<usize> = (0..32).collect();
    let caught = std::panic::catch_unwind(|| {
        qns_sim::parallel_map_with(&items, 4, |&x| {
            if x == 17 {
                panic!("lane {x} diverged");
            }
            x
        })
    });
    let payload = caught.expect_err("panic must cross the pool boundary");
    let msg = payload
        .downcast_ref::<String>()
        .expect("String payload must be preserved, not wrapped");
    assert!(msg.contains("lane 17 diverged"), "{msg}");

    // And the per-item isolation scope turns it into a classified error
    // string for telemetry, while healthy slots keep their results. The
    // candidates themselves fan per-sample maps out — the nesting must not
    // deadlock either.
    let results = qns_sim::try_parallel_map(&[1usize, 2, 3, 4], 2, |&x| {
        let inner: Vec<usize> = (0..8).collect();
        let sum: usize = qns_sim::parallel_map_with(&inner, 2, |&y| y * x)
            .into_iter()
            .sum();
        if x == 3 {
            panic!("candidate {x} is degenerate");
        }
        sum
    });
    assert_eq!(results.len(), 4);
    assert_eq!(results[0], Ok(28));
    assert_eq!(results[1], Ok(56));
    assert_eq!(results[3], Ok(112));
    let err = results[2].as_ref().expect_err("slot 2 must be isolated");
    assert!(
        err.contains("candidate 3 is degenerate"),
        "telemetry must carry the panic message, got: {err}"
    );
}
