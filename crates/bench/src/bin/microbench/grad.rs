//! `grad` — gradient-engine comparison: adjoint vs parameter-shift vs
//! numeric, and one batched training step.
//!
//! Adjoint costs O(1) circuit sweeps regardless of parameter count;
//! parameter-shift costs 2 evaluations per parameter — the design-choice
//! ablation called out in DESIGN.md.
//!
//! `train_step` times one `adjoint_gradient_batch` call with the QML
//! training loss, on the two MNIST-4 circuits the end-to-end benchmark
//! trains: the 4×4 encoder + 3-block U3+CU3 max circuit (4 qubits) and
//! the 6×6 encoder + 2-block one (10 qubits), each at 16 lanes and at 8
//! (the SuperCircuit's minibatch in every QML workload, another lane-group
//! width of the batch sweeps). It records each circuit's op count and the
//! length of its parameter-free encoder prefix, which the backward sweep
//! never walks.

use crate::{time_median, Floor, Json, Mode};
use qns_circuit::{Circuit, GateKind, Param};
use qns_ml::{cross_entropy_grad, nll_loss};
use qns_sim::{
    adjoint_gradient, adjoint_gradient_batch, numeric_gradient, parameter_shift_gradient,
    DiagObservable,
};
use quantumnas::{DesignSpace, SpaceKind, SuperCircuit, Task};

fn rotation_circuit(n_qubits: usize, layers: usize) -> (Circuit, Vec<f64>) {
    let mut c = Circuit::new(n_qubits);
    let mut t = 0;
    for _ in 0..layers {
        for q in 0..n_qubits {
            c.push(GateKind::RY, &[q], &[Param::Train(t)]);
            t += 1;
            c.push(GateKind::RZ, &[q], &[Param::Train(t)]);
            t += 1;
        }
        for q in 0..n_qubits {
            c.push(GateKind::CX, &[q, (q + 1) % n_qubits], &[]);
        }
    }
    let params = (0..t).map(|i| 0.1 + 0.01 * i as f64).collect();
    (c, params)
}

/// Times one `lanes`-lane training step on an MNIST-4 task's encoder
/// followed by the max circuit of a `blocks`-block U3+CU3 SuperCircuit.
fn train_step(reps: usize, side: usize, blocks: usize, lanes: usize, json: &mut Json) {
    let task = Task::qml_digits(&[0, 1, 2, 3], 8, side, 7);
    let Task::Qml {
        splits,
        encoder,
        readout,
        ..
    } = &task
    else {
        unreachable!("qml_digits builds a QML task")
    };
    let n = task.num_qubits();
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), n, blocks);
    let circuit = sc.build(&sc.max_config(), Some(encoder));
    let params: Vec<f64> = (0..circuit.num_train_params())
        .map(|i| 0.1 * (i % 7) as f64 - 0.3)
        .collect();
    let data = &splits.train;
    let inputs: Vec<&[f64]> = data.features[..lanes]
        .iter()
        .map(|x| x.as_slice())
        .collect();
    let step_s = time_median(reps, || {
        adjoint_gradient_batch(&circuit, &params, &inputs, |lane, ez| {
            let logits = readout.logits(ez);
            let label = data.labels[lane];
            let weights = readout.weights_from_logit_grad(&cross_entropy_grad(&logits, label));
            (nll_loss(&logits, label), weights)
        })
    });
    let encoder_ops = circuit
        .iter()
        .position(|op| op.params.iter().any(|p| p.is_trainable()))
        .unwrap_or(circuit.num_ops());
    json.obj(&format!("mnist4_{n}q_{blocks}blocks_{lanes}lanes"), |j| {
        j.int("ops", circuit.num_ops());
        j.int("encoder_ops", encoder_ops);
        j.int("lanes", lanes);
        j.num("step_s", step_s);
    });
}

pub fn measure(Mode { reps, .. }: Mode, json: &mut Json) -> Vec<Floor> {
    for &layers in &[2usize, 4, 8] {
        let (circuit, params) = rotation_circuit(6, layers);
        let obs = DiagObservable::new(vec![1.0; 6]);
        let adjoint = time_median(reps, || adjoint_gradient(&circuit, &params, &[], &obs));
        let shift = time_median(reps, || {
            parameter_shift_gradient(&circuit, &params, &[], &obs)
        });
        let numeric = time_median(reps, || {
            numeric_gradient(&circuit, &params, &[], &obs, 1e-5)
        });
        json.obj(&format!("params{}", params.len()), |j| {
            j.num("adjoint_s", adjoint);
            j.num("parameter_shift_s", shift);
            j.num("numeric_s", numeric);
        });
    }
    json.obj("train_step", |j| {
        for lanes in [16, 8] {
            train_step(reps, 4, 3, lanes, j);
            train_step(reps, 6, 2, lanes, j);
        }
    });
    Vec::new()
}
