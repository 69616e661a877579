//! Gradient cross-checks for the batched parameter-shift path, and a pin
//! on what the adjoint engines train.
//!
//! The batched path compiles one fusion plan, materializes its blocks
//! once, and replays only the dirty blocks per shifted parameter set.
//! These tests pin it against central finite differences (1e-6) and
//! demand bit-identity with N independent shifted runs. The last test
//! pins the bits that three short training runs produce through the
//! adjoint engines.

use qns_chem::Molecule;
use qns_circuit::{Circuit, GateKind, Param};
use qns_sim::{
    parameter_shift_gradient, run, shifted_expectations, DiagObservable, ExecMode, Observable,
};
use quantumnas::{
    train_supercircuit, train_task, DesignSpace, SpaceKind, SuperCircuit, SuperTrainConfig, Task,
    TrainConfig,
};

/// A 4-qubit layered ansatz mixing shiftable rotations with gates that
/// force the finite-difference fallback (U2/U3 components).
fn ansatz() -> (Circuit, Vec<f64>) {
    let n = 4;
    let mut c = Circuit::new(n);
    let mut t = 0;
    for _ in 0..2 {
        for q in 0..n {
            c.push(GateKind::RX, &[q], &[Param::Train(t)]);
            c.push(GateKind::RY, &[q], &[Param::Train(t + 1)]);
            t += 2;
        }
        for q in 0..n {
            c.push(GateKind::CRZ, &[q, (q + 1) % n], &[Param::Train(t)]);
            t += 1;
        }
    }
    let params: Vec<f64> = (0..t).map(|i| 0.15 * (i as f64) - 0.9).collect();
    (c, params)
}

fn obs() -> DiagObservable {
    DiagObservable::new(vec![1.0, -0.5, 0.25, 0.7])
}

#[test]
fn batched_parameter_shift_matches_finite_differences() {
    let (circuit, params) = ansatz();
    let obs = obs();
    let grad = parameter_shift_gradient(&circuit, &params, &[], &obs);
    let h = 1e-5;
    for i in 0..params.len() {
        let mut p = params.clone();
        p[i] += h;
        let up = obs.expect(&run(&circuit, &p, &[], ExecMode::Static));
        p[i] = params[i] - h;
        let dn = obs.expect(&run(&circuit, &p, &[], ExecMode::Static));
        let fd = (up - dn) / (2.0 * h);
        assert!(
            (grad[i] - fd).abs() < 1e-6,
            "param {i}: shift {} vs fd {fd}",
            grad[i]
        );
    }
}

#[test]
fn batched_shifts_equal_sequential_shifted_runs_exactly() {
    let (circuit, params) = ansatz();
    let obs = obs();
    let shifts: Vec<(usize, f64)> = (0..params.len())
        .flat_map(|i| {
            [
                (i, std::f64::consts::FRAC_PI_2),
                (i, -std::f64::consts::FRAC_PI_2),
            ]
        })
        .collect();
    let batched = shifted_expectations(&circuit, &params, &[], &obs, &shifts);
    assert_eq!(batched.len(), shifts.len());
    for (k, &(i, d)) in shifts.iter().enumerate() {
        let mut p = params.clone();
        p[i] += d;
        let lone = obs.expect(&run(&circuit, &p, &[], ExecMode::Static));
        // Bit-identical, not merely close: the replay reuses the same
        // block matrices the full compile would produce.
        assert_eq!(
            batched[k].to_bits(),
            lone.to_bits(),
            "shift {k} (param {i}, delta {d}): batched {} vs sequential {lone}",
            batched[k]
        );
    }
}

#[test]
fn gradient_agrees_with_input_encoded_circuit() {
    let n = 3;
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.push(GateKind::RY, &[q], &[Param::Input(q)]);
    }
    let mut t = 0;
    for q in 0..n {
        c.push(GateKind::RZ, &[q], &[Param::Train(t)]);
        c.push(GateKind::CX, &[q, (q + 1) % n], &[]);
        c.push(GateKind::RX, &[q], &[Param::Train(t + 1)]);
        t += 2;
    }
    let params: Vec<f64> = (0..t).map(|i| 0.3 * (i as f64) - 0.5).collect();
    let input = vec![0.4, -0.2, 1.1];
    let obs = DiagObservable::new(vec![0.5; n]);
    let grad = parameter_shift_gradient(&c, &params, &input, &obs);
    let h = 1e-5;
    for i in 0..params.len() {
        let mut p = params.clone();
        p[i] += h;
        let up = obs.expect(&run(&c, &p, &input, ExecMode::Static));
        p[i] = params[i] - h;
        let dn = obs.expect(&run(&c, &p, &input, ExecMode::Static));
        let fd = (up - dn) / (2.0 * h);
        assert!(
            (grad[i] - fd).abs() < 1e-6,
            "param {i}: shift {} vs fd {fd}",
            grad[i]
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

/// Per run: parameter count, digest of the final parameters' bits, and
/// the bits of the loss (or energy) history.
const PINNED_TRAINING: [(&str, usize, u64, &[u64]); 3] = [
    (
        "train_task mnist4",
        48,
        0xea1e740946cc9d94,
        &[0x3ff66f457f649ac1, 0x3ff5ed37fe07674f],
    ),
    (
        "train_supercircuit mnist4",
        48,
        0x0146af291a8603ce,
        &[
            0x3ff58d27e9b9b741,
            0x3ff91e697b63a568,
            0x3ff4680ca5e25748,
            0x3ff3d5f0a0352e4c,
            0x3ff431f6759b55d6,
            0x3ff41a09ff1c9dad,
        ],
    ),
    (
        "train_task h2",
        24,
        0x5b6c2d35555178b5,
        &[
            0xbf89c2cee90c2d02,
            0xbfa23e1941181623,
            0xbfb0a15ab9a35a67,
            0xbfb7472907a3f62a,
            0xbfbb2cdb76008e35,
        ],
    ),
];

/// Pins the final parameters and loss history of three short training
/// runs, bit for bit: from-scratch training of a 4-qubit MNIST-4
/// SubCircuit (encoder + 2-block U3+CU3; 36 training samples at batch 16,
/// so each epoch ends on a ragged batch of 4), SuperCircuit training
/// (6 steps, batch 8), and VQE on H₂, which takes the single-state
/// adjoint path.
#[test]
fn training_outputs_are_pinned() {
    let task = Task::qml_digits(&[0, 1, 2, 3], 12, 4, 5);
    let Task::Qml {
        splits, encoder, ..
    } = &task
    else {
        unreachable!("qml_digits builds a QML task")
    };
    assert_eq!(splits.train.num_samples() % 16, 4, "a ragged last batch");
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 2);
    let circuit = sc.build(&sc.max_config(), Some(encoder));
    let scratch = TrainConfig {
        epochs: 2,
        batch_size: 16,
        seed: 3,
        ..TrainConfig::default()
    };
    let supercircuit = SuperTrainConfig {
        steps: 6,
        batch_size: 8,
        warmup_steps: 2,
        seed: 4,
        ..SuperTrainConfig::default()
    };
    let h2 = Task::vqe(&Molecule::h2());
    let ansatz_sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 2, 2);
    let ansatz = ansatz_sc.build(&ansatz_sc.max_config(), None);
    let vqe = TrainConfig {
        epochs: 5,
        lr: 0.05,
        seed: 6,
        ..TrainConfig::default()
    };
    let runs = [
        train_task(&circuit, &task, &scratch, None),
        train_supercircuit(&sc, &task, &supercircuit),
        train_task(&ansatz, &h2, &vqe, None),
    ];
    for ((params, history), (label, n_params, digest, history_bits)) in
        runs.iter().zip(PINNED_TRAINING)
    {
        let got: Vec<u64> = history.iter().map(|x| x.to_bits()).collect();
        assert_eq!(params.len(), n_params, "{label}: parameter count");
        assert_eq!(got, history_bits, "{label}: loss history moved");
        assert_eq!(
            bits_digest(params),
            digest,
            "{label}: final parameters moved"
        );
    }
}
