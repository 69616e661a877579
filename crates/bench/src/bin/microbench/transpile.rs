//! `transpile` — transpiler pass throughput: routing, basis lowering,
//! optimization, and the whole pipeline.

use crate::{time_median, Floor, Json, Mode};
use qns_circuit::{Circuit, GateKind, Param};
use qns_noise::Device;
use qns_transpile::{optimize, route, to_ibm_basis, transpile, Layout};

fn u3cu3_circuit(n_qubits: usize, blocks: usize) -> Circuit {
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
            c.push(
                GateKind::CU3,
                &[q, (q + 1) % n_qubits],
                &[Param::Train(t), Param::Train(t + 1), Param::Train(t + 2)],
            );
            t += 3;
        }
    }
    c
}

pub fn measure(Mode { reps, .. }: Mode, json: &mut Json) -> Vec<Floor> {
    let device = Device::guadalupe();
    for &(n, blocks) in &[(4usize, 4usize), (8, 4), (12, 2)] {
        let circuit = u3cu3_circuit(n, blocks);
        let layout = Layout::from_vec((0..n).collect());
        let route_s = time_median(reps, || route(&circuit, &device, &layout));
        let routed = route(&circuit, &device, &layout);
        let basis_s = time_median(reps, || to_ibm_basis(&routed.circuit));
        let lowered = to_ibm_basis(&routed.circuit);
        let optimize_s = time_median(reps, || optimize(&lowered, 2));
        let full_s = time_median(reps, || transpile(&circuit, &device, &layout, 2));
        json.obj(&format!("q{n}_b{blocks}"), |j| {
            j.num("route_s", route_s);
            j.num("basis_s", basis_s);
            j.num("optimize_l2_s", optimize_s);
            j.num("full_pipeline_s", full_s);
        });
    }
    Vec::new()
}
