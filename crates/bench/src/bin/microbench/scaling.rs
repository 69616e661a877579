//! `scaling` — state-vector throughput vs qubit count (supports the
//! Figure 15 scalability discussion: the cost wall that motivates the
//! success-rate estimator on large machines).

use crate::{time_median, Floor, Json, Mode};
use qns_circuit::{Circuit, GateKind, Param};
use qns_sim::{run, ExecMode};

fn layered_circuit(n_qubits: usize, blocks: usize) -> (Circuit, Vec<f64>) {
    let mut c = Circuit::new(n_qubits);
    let mut t = 0;
    for _ in 0..blocks {
        for q in 0..n_qubits {
            c.push(
                GateKind::U3,
                &[q],
                &[Param::Train(t), Param::Train(t + 1), Param::Train(t + 2)],
            );
            t += 3;
        }
        for q in 0..n_qubits {
            c.push(GateKind::CX, &[q, (q + 1) % n_qubits], &[]);
        }
    }
    let params = (0..t).map(|i| 0.01 * i as f64).collect();
    (c, params)
}

pub fn measure(Mode { reps, .. }: Mode, json: &mut Json) -> Vec<Floor> {
    for &n in &[4usize, 8, 12, 16] {
        let (circuit, params) = layered_circuit(n, 2);
        let secs = time_median(reps, || run(&circuit, &params, &[], ExecMode::Static));
        json.obj(&format!("qubits{n}"), |j| j.num("static_s", secs));
    }
    Vec::new()
}
