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
//! single-state runs. Six fixed circuits, one per edge case of where the
//! adjoint backward sweep stops, also check both adjoint engines against
//! finite differences at 1, 3, 16 and 33 lanes. A final check pins the
//! batched trajectory path bitwise across worker counts, and one pin fixes
//! the bits of every noise-free batched evaluation the search and training
//! loops read.

use proptest::prelude::*;
use qns_circuit::{Circuit, GateKind, Param};
use qns_noise::{Device, TrajectoryConfig, TrajectoryExecutor};
use qns_sim::{
    adjoint_gradient, adjoint_gradient_batch, numeric_gradient, run, DiagObservable, ExecMode,
    MpsConfig, SimBackend, SimPlan, StateBatch, StateVec,
};
use qns_transpile::Layout;
use quantumnas::{
    eval_task, DesignSpace, Estimator, EstimatorKind, SpaceKind, Split, SuperCircuit, Task,
};
use std::sync::Once;

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
    /// `adjoint_gradient` calls, at every batch size. The first case also
    /// runs the fixed [`stop_boundary_circuits`], where both engines must
    /// match finite differences as well: they share the backward sweep's
    /// stop index, so comparing them with each other alone would miss a
    /// wrong one.
    #[test]
    fn batched_adjoint_matches_per_sample_adjoint(
        (circuit, train, dim) in arb_batched_circuit()
    ) {
        check_adjoint_engines("random", &circuit, &train, dim, &BATCH_SIZES, false);
        BOUNDARY_CHECK.call_once(|| {
            for (what, circuit, train) in stop_boundary_circuits() {
                check_adjoint_engines(what, &circuit, &train, BOUNDARY_DIM, &BOUNDARY_LANES, true);
            }
        });
    }
}

/// Runs the fixed stop-boundary inputs once per test process.
static BOUNDARY_CHECK: Once = Once::new();

/// Lane counts for the stop-boundary circuits: one lane, a few, one full
/// 16-lane chunk, and one lane past a 32-lane training chunk.
const BOUNDARY_LANES: [usize; 4] = [1, 3, 16, 33];

/// Input features per lane in [`stop_boundary_circuits`].
const BOUNDARY_DIM: usize = 3;

/// Gradients against central finite differences (step 1e-5).
const NUMERIC_TOL: f64 = 1e-6;

/// Distinct diagonal readout weights per lane, as QML loss gradients are.
fn lane_weights(n: usize, lane: usize) -> Vec<f64> {
    (0..n)
        .map(|q| 0.4 * (lane as f64 + 1.0) * ((q as f64) - 0.7))
        .collect()
}

/// Checks `adjoint_gradient_batch` on the first `bs` lanes, for every
/// `bs` in `lane_counts`: each lane's loss against a per-sample Dynamic
/// run and the summed gradient against the sum of per-sample
/// `adjoint_gradient` calls (both 1e-12). With `numeric`, both engines'
/// gradients must also match `numeric_gradient` (1e-6). `what` names the
/// circuit in failure messages.
fn check_adjoint_engines(
    what: &str,
    circuit: &Circuit,
    train: &[f64],
    dim: usize,
    lane_counts: &[usize],
    numeric: bool,
) {
    let n = circuit.num_qubits();
    let n_params = circuit.num_train_params();
    let max_lanes = lane_counts.iter().copied().max().unwrap_or(0);
    let samples: Vec<Vec<f64>> = (0..max_lanes).map(|l| lane_input(dim, l)).collect();
    let weights: Vec<Vec<f64>> = (0..max_lanes).map(|l| lane_weights(n, l)).collect();
    // Per lane: the Dynamic loss, the per-sample adjoint gradient and,
    // with `numeric`, the finite-difference gradient.
    let per_sample: Vec<(f64, Vec<f64>, Vec<f64>)> = samples
        .iter()
        .zip(&weights)
        .enumerate()
        .map(|(lane, (input, w))| {
            let loss = run(circuit, train, input, ExecMode::Dynamic)
                .expect_z_all()
                .iter()
                .sum();
            let obs = DiagObservable::new(w.clone());
            let (_, g) = adjoint_gradient(circuit, train, input, &obs);
            let fd = if numeric {
                let fd = numeric_gradient(circuit, train, input, &obs, 1e-5);
                for (ti, (a, b)) in g.iter().zip(&fd).enumerate() {
                    assert!(
                        (a - b).abs() < NUMERIC_TOL,
                        "{what}, lane {lane}: grad[{ti}] per-sample adjoint {a} vs numeric {b}"
                    );
                }
                fd
            } else {
                Vec::new()
            };
            (loss, g, fd)
        })
        .collect();
    for &bs in lane_counts {
        let inputs: Vec<&[f64]> = samples[..bs].iter().map(|s| s.as_slice()).collect();
        let (losses, grad) = adjoint_gradient_batch(circuit, train, &inputs, |lane, ez| {
            (ez.iter().sum::<f64>(), weights[lane].clone())
        });
        assert_eq!(losses.len(), bs);
        assert_eq!(grad.len(), n_params);
        let mut expected_grad = vec![0.0; n_params];
        let mut expected_numeric = vec![0.0; n_params];
        for (lane, (loss, g, fd)) in per_sample[..bs].iter().enumerate() {
            assert!(
                (losses[lane] - loss).abs() < TOL,
                "{what}, batch {bs}: lane {lane} loss {} vs {loss}",
                losses[lane]
            );
            for (acc, gi) in expected_grad.iter_mut().zip(g) {
                *acc += gi;
            }
            for (acc, fi) in expected_numeric.iter_mut().zip(fd) {
                *acc += fi;
            }
        }
        for (ti, (a, b)) in grad.iter().zip(&expected_grad).enumerate() {
            assert!(
                (a - b).abs() < TOL,
                "{what}, batch {bs}: grad[{ti}] batched {a} vs sequential {b}"
            );
        }
        if numeric {
            for (ti, (a, b)) in grad.iter().zip(&expected_numeric).enumerate() {
                assert!(
                    (a - b).abs() < NUMERIC_TOL,
                    "{what}, batch {bs}: grad[{ti}] batched {a} vs numeric {b}"
                );
            }
        }
    }
}

/// One fixed 3-qubit circuit per edge case of where the adjoint backward
/// sweep stops (at the first op with a trainable slot), with its
/// trainable values. Each reads [`BOUNDARY_DIM`] input features.
fn stop_boundary_circuits() -> Vec<(&'static str, Circuit, Vec<f64>)> {
    let encoder = |c: &mut Circuit| {
        for q in 0..3 {
            c.push(GateKind::RY, &[q], &[Param::Input(q)]);
            let angle = Param::AffineInput {
                index: q,
                scale: 0.5,
                offset: 0.1,
            };
            c.push(GateKind::RZ, &[q], &[angle]);
        }
    };
    let entangle = |c: &mut Circuit| {
        for q in 0..3 {
            c.push(GateKind::H, &[q], &[]);
        }
        c.push(GateKind::CX, &[0, 1], &[]);
        c.push(GateKind::CX, &[1, 2], &[]);
    };
    let u3 = |t: usize| [Param::Train(t), Param::Train(t + 1), Param::Train(t + 2)];

    // No trainable op: nothing to walk back over, an empty gradient.
    let mut none = Circuit::new(3);
    encoder(&mut none);
    entangle(&mut none);

    // The first op is trainable: the sweep walks the whole circuit.
    let mut first = Circuit::new(3);
    first.push(GateKind::RY, &[0], &[Param::Train(0)]);
    encoder(&mut first);
    first.push(GateKind::CRX, &[0, 2], &[Param::Train(1)]);

    // Encoder, then a fixed H/CX layer, then trainable ops.
    let mut layered = Circuit::new(3);
    encoder(&mut layered);
    entangle(&mut layered);
    layered.push(GateKind::U3, &[1], &u3(0));
    layered.push(GateKind::CU3, &[1, 2], &u3(3));

    // A parameter-free op between trainable ops must still be un-applied.
    let mut gap = Circuit::new(3);
    encoder(&mut gap);
    gap.push(GateKind::RX, &[0], &[Param::Train(0)]);
    gap.push(GateKind::H, &[0], &[]);
    gap.push(GateKind::CX, &[0, 2], &[]);
    gap.push(GateKind::RZZ, &[0, 2], &[Param::Train(1)]);

    // An op mixing Input and Train slots inside the encoder: it is the
    // first trainable op, and the input ops after it are walked back.
    let mut mixed = Circuit::new(3);
    mixed.push(GateKind::RY, &[0], &[Param::Input(0)]);
    mixed.push(
        GateKind::U3,
        &[1],
        &[Param::Input(1), Param::Train(0), Param::Input(0)],
    );
    encoder(&mut mixed);
    mixed.push(GateKind::CRY, &[2, 1], &[Param::Train(1)]);

    // An affine trainable slot is the first trainable slot.
    let mut affine = Circuit::new(3);
    encoder(&mut affine);
    entangle(&mut affine);
    let slot = Param::AffineTrain {
        index: 0,
        scale: -0.5,
        offset: 0.3,
    };
    affine.push(GateKind::RX, &[2], &[slot]);
    affine.push(GateKind::CU3, &[2, 0], &u3(1));

    let train = |k: usize| (0..k).map(|i| 0.7 - 0.45 * i as f64).collect::<Vec<_>>();
    vec![
        ("no trainable op", none, train(0)),
        ("trainable first op", first, train(2)),
        ("encoder, fixed layer, trainables", layered, train(6)),
        ("parameter-free op between trainables", gap, train(2)),
        ("mixed input/train op in the encoder", mixed, train(2)),
        ("affine trainable slot first", affine, train(4)),
    ]
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

/// FNV-1a over the bit patterns of `xs`: one number that moves when any
/// bit of any value does.
fn bits_digest(xs: &[f64]) -> u64 {
    xs.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A 4-qubit, 2-block U3+CU3 SubCircuit behind `task`'s encoder, with
/// fixed synthetic parameters.
fn pinned_subcircuit(task: &Task) -> (Circuit, Vec<f64>) {
    let Task::Qml { encoder, .. } = task else {
        unreachable!("a QML task")
    };
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 2);
    let circuit = sc.build(&sc.max_config(), Some(encoder));
    let params = (0..circuit.num_train_params())
        .map(|i| 0.3 * ((i % 7) as f64) - 0.8)
        .collect();
    (circuit, params)
}

/// A 3-qubit circuit whose U3 mixes `Input` and `Train` slots and whose
/// CU3 mixes `Train`, `AffineInput` and `AffineTrain` slots, with its
/// trainable values; it reads three input features per lane.
fn mixed_slot_circuit() -> (Circuit, Vec<f64>) {
    let mut c = Circuit::new(3);
    for q in 0..3 {
        c.push(GateKind::RY, &[q], &[Param::Input(q)]);
    }
    c.push(
        GateKind::U3,
        &[1],
        &[Param::Train(0), Param::Input(2), Param::Train(1)],
    );
    c.push(GateKind::CX, &[0, 1], &[]);
    let affine_in = Param::AffineInput {
        index: 0,
        scale: 0.6,
        offset: -0.2,
    };
    let affine_train = Param::AffineTrain {
        index: 3,
        scale: -1.3,
        offset: 0.4,
    };
    c.push(
        GateKind::CU3,
        &[2, 0],
        &[Param::Train(2), affine_in, affine_train],
    );
    c.push(GateKind::RZZ, &[1, 2], &[Param::Train(4)]);
    c.push(
        GateKind::U3,
        &[0],
        &[Param::Train(5), Param::Train(6), Param::Train(7)],
    );
    let train = (0..8).map(|i| 0.9 - 0.37 * i as f64).collect();
    (c, train)
}

/// Label and bits of every pinned noise-free output; see
/// [`noise_free_batched_outputs_are_pinned`].
const PINNED_NOISE_FREE: [(&str, u64); 33] = [
    ("mnist4 score noiseless fast", 0x3ff8478b8464efd7),
    ("mnist4 score noiseless reference", 0x3ff8478b8464efd5),
    ("mnist4 score noiseless mps-exact", 0x3ff8478b8464efdb),
    ("mnist4 score success-rate fast", 0x4008842af8b0f0b9),
    ("mnist4 score success-rate reference", 0x4008842af8b0f0b7),
    ("mnist4 score success-rate mps-exact", 0x4008842af8b0f0bd),
    ("mnist4 eval train loss", 0x3ff5ff77efc31090),
    ("mnist4 eval train accuracy", 0x3fd35e50d79435e5),
    ("mnist4 eval valid loss", 0x3ff8478b8464efd7),
    ("mnist4 eval valid accuracy", 0x3fc8000000000000),
    ("mnist4 eval test loss", 0x3ff5de1fd176a46a),
    ("mnist4 eval test accuracy", 0x3fd4cccccccccccd),
    ("vowel4 score noiseless fast", 0x3ff5efd9d7ffdb6a),
    ("vowel4 score noiseless reference", 0x3ff5efd9d7ffdb6a),
    ("vowel4 score noiseless mps-exact", 0x3ff5efd9d7ffdb6a),
    ("vowel4 score success-rate fast", 0x4005d21e6e2ac8ee),
    ("vowel4 score success-rate reference", 0x4005d21e6e2ac8ee),
    ("vowel4 score success-rate mps-exact", 0x4005d21e6e2ac8ee),
    ("vowel4 eval train loss", 0x3ff583a23cdfc3a4),
    ("vowel4 eval train accuracy", 0x3fd1219dbcc48677),
    ("vowel4 eval valid loss", 0x3ff5a146714d15d8),
    ("vowel4 eval valid accuracy", 0x3fd0cede62433b7a),
    ("vowel4 eval test loss", 0x3ff5eba459f563f8),
    ("vowel4 eval test accuracy", 0x3fcfe46ae1d4e701),
    ("vowel4 ideal accuracy", 0x3fd5c28f5c28f5c3),
    ("adjoint 1 lanes losses", 0x44bb6e47fe131861),
    ("adjoint 1 lanes gradient", 0x2a385c8de9895fbb),
    ("adjoint 3 lanes losses", 0x0f8f04a40cb7db09),
    ("adjoint 3 lanes gradient", 0xefc4305d816058fa),
    ("adjoint 16 lanes losses", 0xe6fc554b21610834),
    ("adjoint 16 lanes gradient", 0x52fe1f0ed0262726),
    ("adjoint 33 lanes losses", 0xb53a004150eb434a),
    ("adjoint 33 lanes gradient", 0xeb2ec14d371df19e),
];

/// Pins the bits of every noise-free batched evaluation: QML
/// `Estimator::score` under `Noiseless` and `SuccessRate` on `Fast`,
/// `Reference` and exact MPS, on MNIST-4 (16 validation samples, one lane
/// chunk) and on Vowel-4 (40 of 99 validation samples, two 32-lane
/// chunks); `ideal_accuracy` on 50 Vowel-4 test samples; `eval_task`'s
/// loss and accuracy on every split of both tasks; and the losses and
/// gradient of `adjoint_gradient_batch` at 1, 3, 16 and 33 lanes on
/// [`mixed_slot_circuit`]. Floating-point sums and matrix products are
/// not associative, so any reordering of the arithmetic moves a bit here.
#[test]
fn noise_free_batched_outputs_are_pinned() {
    let mnist = Task::qml_digits(&[0, 1, 2, 3], 100, 4, 9);
    let vowel = Task::qml_vowel(5);
    for (task, valid) in [(&mnist, 16), (&vowel, 99)] {
        let Task::Qml { splits, .. } = task else {
            unreachable!("a QML task")
        };
        assert_eq!(splits.valid.num_samples(), valid, "{}", task.name());
    }
    let layout = Layout::from_vec(vec![1, 3, 0, 4]);
    let mut got: Vec<(String, u64)> = Vec::new();
    for (name, task, cap) in [("mnist4", &mnist, 24), ("vowel4", &vowel, 40)] {
        let (circuit, params) = pinned_subcircuit(task);
        for (kind_name, kind) in [
            ("noiseless", EstimatorKind::Noiseless),
            ("success-rate", EstimatorKind::SuccessRate),
        ] {
            for (backend_name, backend) in [
                ("fast", SimBackend::Fast),
                ("reference", SimBackend::Reference),
                ("mps-exact", SimBackend::Mps(MpsConfig::exact())),
            ] {
                let est = Estimator::new(Device::belem(), kind, 2)
                    .with_valid_cap(cap)
                    .with_backend(backend);
                let score = est.score(&circuit, &params, task, &layout);
                got.push((
                    format!("{name} score {kind_name} {backend_name}"),
                    score.to_bits(),
                ));
            }
        }
        for (split_name, split) in [
            ("train", Split::Train),
            ("valid", Split::Valid),
            ("test", Split::Test),
        ] {
            let (loss, acc) = eval_task(&circuit, &params, task, split);
            got.push((format!("{name} eval {split_name} loss"), loss.to_bits()));
            got.push((format!("{name} eval {split_name} accuracy"), acc.to_bits()));
        }
    }
    let (circuit, params) = pinned_subcircuit(&vowel);
    let ideal = Estimator::new(Device::belem(), EstimatorKind::Noiseless, 2)
        .ideal_accuracy(&circuit, &params, &vowel, 50);
    got.push(("vowel4 ideal accuracy".to_string(), ideal.to_bits()));

    let (circuit, train) = mixed_slot_circuit();
    let samples: Vec<Vec<f64>> = (0..33).map(|l| lane_input(3, l)).collect();
    for &bs in &BOUNDARY_LANES {
        let inputs: Vec<&[f64]> = samples[..bs].iter().map(|s| s.as_slice()).collect();
        let (losses, grad) = adjoint_gradient_batch(&circuit, &train, &inputs, |lane, ez| {
            (ez.iter().sum::<f64>(), lane_weights(3, lane))
        });
        got.push((format!("adjoint {bs} lanes losses"), bits_digest(&losses)));
        got.push((format!("adjoint {bs} lanes gradient"), bits_digest(&grad)));
    }

    assert_eq!(got.len(), PINNED_NOISE_FREE.len(), "pinned output count");
    for ((label, bits), (want_label, want)) in got.iter().zip(PINNED_NOISE_FREE) {
        assert_eq!(label, want_label);
        assert_eq!(
            *bits,
            want,
            "{label} moved: {} vs pinned {}",
            f64::from_bits(*bits),
            f64::from_bits(want)
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
