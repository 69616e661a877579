//! `batch` — timings for the batched multi-state engine, recorded as
//! `BENCH_batch.json`.
//!
//! Two sections, each per-sample-vs-batched:
//!
//! 1. `forward` — minibatch inference: `parallel_map` over per-sample
//!    plan replays vs. one `replay_batch_into` sweep per minibatch.
//! 2. `epoch` — a QML training epoch (forward + adjoint gradient) at
//!    10 qubits, batch 32: one forward and one adjoint pass per sample
//!    under `parallel_map` vs. `adjoint_gradient_batch`, both arms on one
//!    worker. The acceptance floor is ≥2× here.
//!
//! `--smoke` shrinks both sections to a single cheap iteration.

use crate::{one_worker, time_median, Floor, Json, Mode};
use qns_circuit::{Circuit, GateKind, Param};
use qns_ml::{cross_entropy_grad, nll_loss};
use qns_sim::{
    adjoint_gradient, adjoint_gradient_batch, parallel_map, run, DiagObservable, ExecMode, SimPlan,
    StateBatch, StateVec, DEFAULT_BATCH_LANES,
};
use quantumnas::Readout;
use std::cell::RefCell;

/// A QML-style benchmark candidate: an input-encoding layer (RY + affine
/// RZ per qubit) followed by `layers` of U3 rotations and a CU3
/// entangling ring — the SuperCircuit U3+CU3 design space shape.
fn qml_circuit(n: usize, layers: usize) -> (Circuit, Vec<f64>) {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.push(GateKind::RY, &[q], &[Param::Input(q)]);
        c.push(
            GateKind::RZ,
            &[q],
            &[Param::AffineInput {
                index: q,
                scale: 0.5,
                offset: 0.1,
            }],
        );
    }
    let mut t = 0;
    for _ in 0..layers {
        for q in 0..n {
            c.push(
                GateKind::U3,
                &[q],
                &[Param::Train(t), Param::Train(t + 1), Param::Train(t + 2)],
            );
            t += 3;
        }
        for q in 0..n {
            c.push(
                GateKind::CU3,
                &[q, (q + 1) % n],
                &[Param::Train(t), Param::Train(t + 1), Param::Train(t + 2)],
            );
            t += 3;
        }
    }
    let params = (0..t).map(|i| 0.1 * (i as f64 % 7.0) - 0.3).collect();
    (c, params)
}

/// Deterministic sample features (angles).
fn features(n_samples: usize, dim: usize) -> Vec<Vec<f64>> {
    (0..n_samples)
        .map(|s| {
            (0..dim)
                .map(|q| 0.3 * ((s * dim + q) as f64 % 11.0) - 1.2)
                .collect()
        })
        .collect()
}

/// One sample of the pre-batching training shape: a Static forward for
/// the loss weights, then `adjoint_gradient` (which runs its own
/// forward) — kept verbatim as the per-sample baseline.
fn sample_grad_baseline(
    circuit: &Circuit,
    params: &[f64],
    input: &[f64],
    label: usize,
    readout: &Readout,
) -> (f64, Vec<f64>) {
    let state = run(circuit, params, input, ExecMode::Static);
    let logits = readout.logits(&state.expect_z_all());
    let loss = nll_loss(&logits, label);
    let dlogits = cross_entropy_grad(&logits, label);
    let weights = readout.weights_from_logit_grad(&dlogits);
    let obs = DiagObservable::new(weights);
    let (_, grad) = adjoint_gradient(circuit, params, input, &obs);
    (loss, grad)
}

pub fn measure(Mode { smoke, reps }: Mode, json: &mut Json) -> Vec<Floor> {
    let (n, layers, n_samples) = if smoke { (6, 1, 16) } else { (10, 3, 128) };
    let batch_size = 32.min(n_samples);
    let classes = 4;
    let (circuit, params) = qml_circuit(n, layers);
    let features = features(n_samples, n);
    let labels: Vec<usize> = (0..n_samples).map(|s| s % classes).collect();
    let readout = Readout::per_qubit(classes, n);

    // 1. Forward-only minibatch inference.
    let plan = SimPlan::compile(&circuit);
    let base = plan.materialize(&circuit, &params, &features[0]);
    // Both paths reuse per-worker scratch state across chunks and reps
    // (replay resets it), as a real inference loop would: the comparison
    // is gate throughput, not allocator throughput.
    thread_local! {
        static VEC_SCRATCH: RefCell<Option<StateVec>> = const { RefCell::new(None) };
        static BATCH_SCRATCH: RefCell<Option<StateBatch>> = const { RefCell::new(None) };
    }
    let per_sample_fwd = time_median(reps, || {
        let logits: Vec<Vec<f64>> = parallel_map(&features, |input| {
            VEC_SCRATCH.with(|cell| {
                let mut slot = cell.borrow_mut();
                let state = match slot.as_mut() {
                    Some(s) if s.num_qubits() == n => s,
                    _ => slot.insert(StateVec::zero_state(n)),
                };
                plan.replay_input_into(&circuit, &base, &params, input, state);
                readout.logits(&state.expect_z_all())
            })
        });
        assert_eq!(logits.len(), n_samples);
    });
    let batched_fwd = time_median(reps, || {
        let chunks: Vec<&[Vec<f64>]> = features.chunks(DEFAULT_BATCH_LANES).collect();
        let logits: Vec<Vec<f64>> = parallel_map(&chunks, |chunk| {
            let inputs: Vec<&[f64]> = chunk.iter().map(|s| s.as_slice()).collect();
            BATCH_SCRATCH.with(|cell| {
                let mut slot = cell.borrow_mut();
                let batch = match slot.as_mut() {
                    Some(b) if b.num_qubits() == n && b.lanes() == inputs.len() => b,
                    _ => slot.insert(StateBatch::zero_state(n, inputs.len())),
                };
                plan.replay_batch_into(&circuit, &base, &params, &inputs, batch);
                batch
                    .expect_z_all_lanes()
                    .iter()
                    .map(|ez| readout.logits(ez))
                    .collect::<Vec<Vec<f64>>>()
            })
        })
        .into_iter()
        .flatten()
        .collect();
        assert_eq!(logits.len(), n_samples);
    });
    json.obj("forward", |j| {
        j.int("qubits", n);
        j.int("samples", n_samples);
        j.int("gates", circuit.num_ops());
        j.num("per_sample_s", per_sample_fwd);
        j.num("batched_s", batched_fwd);
        j.num("speedup", per_sample_fwd / batched_fwd.max(1e-12));
    });

    // 2. Training epoch: forward + adjoint gradient over every minibatch,
    // both arms on one worker: the per-sample arm would otherwise fan each
    // minibatch out over the host, while the batched arm's one chunk per
    // minibatch runs inline.
    let minibatches: Vec<Vec<usize>> = (0..n_samples)
        .collect::<Vec<usize>>()
        .chunks(batch_size)
        .map(<[usize]>::to_vec)
        .collect();
    let epoch_per_sample = one_worker(|| {
        time_median(reps, || {
            for batch in &minibatches {
                let per_sample: Vec<(f64, Vec<f64>)> = parallel_map(batch, |&i| {
                    sample_grad_baseline(&circuit, &params, &features[i], labels[i], &readout)
                });
                let mut grad = vec![0.0; circuit.num_train_params()];
                for (_, g) in &per_sample {
                    for (acc, gi) in grad.iter_mut().zip(g) {
                        *acc += gi;
                    }
                }
            }
        })
    });
    let epoch_batched = one_worker(|| {
        time_median(reps, || {
            for batch in &minibatches {
                let chunks: Vec<&[usize]> = batch.chunks(DEFAULT_BATCH_LANES).collect();
                let partials = parallel_map(&chunks, |chunk| {
                    let inputs: Vec<&[f64]> =
                        chunk.iter().map(|&i| features[i].as_slice()).collect();
                    adjoint_gradient_batch(&circuit, &params, &inputs, |lane, ez| {
                        let logits = readout.logits(ez);
                        let loss = nll_loss(&logits, labels[chunk[lane]]);
                        let dlogits = cross_entropy_grad(&logits, labels[chunk[lane]]);
                        (loss, readout.weights_from_logit_grad(&dlogits))
                    })
                });
                let mut grad = vec![0.0; circuit.num_train_params()];
                for (_, g) in &partials {
                    for (acc, gi) in grad.iter_mut().zip(g) {
                        *acc += gi;
                    }
                }
            }
        })
    });
    let speedup = epoch_per_sample / epoch_batched.max(1e-12);
    json.obj("epoch", |j| {
        j.int("qubits", n);
        j.int("batch", batch_size);
        j.int("samples", n_samples);
        j.int("gates", circuit.num_ops());
        j.int("params", circuit.num_train_params());
        j.num("per_sample_s", epoch_per_sample);
        j.num("batched_s", epoch_batched);
        j.num("speedup", speedup);
    });
    vec![Floor("batched epoch speedup", speedup, 2.0)]
}
