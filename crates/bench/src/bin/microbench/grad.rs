//! `grad` — gradient-engine comparison: adjoint vs parameter-shift vs
//! numeric.
//!
//! Adjoint costs O(1) circuit sweeps regardless of parameter count;
//! parameter-shift costs 2 evaluations per parameter — the design-choice
//! ablation called out in DESIGN.md.

use crate::{time_median, Floor, Json, Mode};
use qns_circuit::{Circuit, GateKind, Param};
use qns_sim::{adjoint_gradient, numeric_gradient, parameter_shift_gradient, DiagObservable};

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
    Vec::new()
}
