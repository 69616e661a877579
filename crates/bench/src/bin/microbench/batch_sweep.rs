//! `batch_sweep` — batched multi-state engine vs per-sample
//! `parallel_map`: one QML minibatch (forward replay + adjoint gradient)
//! across qubit counts {6, 10} and batch sizes {8, 32, 128}.
//!
//! The per-sample arm is the pre-batching training shape — one
//! `StateVec` replay plus one `adjoint_gradient` per sample under
//! `parallel_map`; the batched arm sweeps all lanes per base index with
//! `replay_batch_into` and `adjoint_gradient_batch`.

use crate::batch::features;
use crate::{time_median, Floor, Json, Mode};
use qns_circuit::{Circuit, GateKind, Param};
use qns_sim::{
    adjoint_gradient, adjoint_gradient_batch, parallel_map, DiagObservable, SimPlan, StateBatch,
    StateVec, DEFAULT_BATCH_LANES, DEFAULT_FUSION_LEVEL,
};

/// Input-encoded QML candidate: RY(Input) encoder plus U3 + CU3-ring
/// trainable layers.
fn qml_circuit(n: usize, layers: usize) -> (Circuit, Vec<f64>) {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.push(GateKind::RY, &[q], &[Param::Input(q)]);
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

pub fn measure(Mode { reps, .. }: Mode, json: &mut Json) -> Vec<Floor> {
    for &n in &[6usize, 10] {
        let (circuit, params) = qml_circuit(n, 2);
        let plan = SimPlan::compile(&circuit, DEFAULT_FUSION_LEVEL);
        let features = features(128, n);
        let base = plan.materialize(&circuit, &params, &features[0]);
        let weights: Vec<f64> = (0..n).map(|q| 0.4 * (q as f64) - 0.7).collect();
        for &bs in &[8usize, 32, 128] {
            let feats = &features[..bs];
            let forward_per_sample = time_median(reps, || {
                parallel_map(feats, |input| {
                    let mut state = StateVec::zero_state(n);
                    plan.replay_input_into(&circuit, &base, &params, input, &mut state);
                    state.expect_z_all()
                })
            });
            let forward_batched = time_median(reps, || {
                let chunks: Vec<&[Vec<f64>]> = feats.chunks(DEFAULT_BATCH_LANES).collect();
                parallel_map(&chunks, |chunk| {
                    let inputs: Vec<&[f64]> = chunk.iter().map(|s| s.as_slice()).collect();
                    let mut batch = StateBatch::zero_state(n, inputs.len());
                    plan.replay_batch_into(&circuit, &base, &params, &inputs, &mut batch);
                    batch.expect_z_all_lanes()
                })
            });
            let gradient_per_sample = time_median(reps, || {
                let obs = DiagObservable::new(weights.clone());
                parallel_map(feats, |input| {
                    adjoint_gradient(&circuit, &params, input, &obs)
                })
            });
            let gradient_batched = time_median(reps, || {
                let chunks: Vec<&[Vec<f64>]> = feats.chunks(DEFAULT_BATCH_LANES).collect();
                parallel_map(&chunks, |chunk| {
                    let inputs: Vec<&[f64]> = chunk.iter().map(|s| s.as_slice()).collect();
                    adjoint_gradient_batch(&circuit, &params, &inputs, |_, ez| {
                        (ez.iter().sum::<f64>(), weights.clone())
                    })
                })
            });
            json.obj(&format!("forward_q{n}_b{bs}"), |j| {
                j.num("per_sample_s", forward_per_sample);
                j.num("batched_s", forward_batched);
            });
            json.obj(&format!("gradient_q{n}_b{bs}"), |j| {
                j.num("per_sample_s", gradient_per_sample);
                j.num("batched_s", gradient_batched);
            });
        }
    }
    Vec::new()
}
