//! `engine` — Figure 12's timing side: static vs dynamic execution across
//! batch sizes on the paper's 10-qubit, 200-gate benchmark circuit.

use crate::{time_median, Floor, Json, Mode};
use qns_circuit::{Circuit, GateKind, Param};
use qns_sim::{parallel_map, run, ExecMode};

/// The paper's Figure 12 circuit: 10 qubits, 100 RX + 100 CRY gates.
fn paper_circuit() -> (Circuit, Vec<f64>) {
    let n = 10;
    let mut c = Circuit::new(n);
    let mut t = 0;
    for i in 0..100 {
        c.push(GateKind::RX, &[i % n], &[Param::Train(t)]);
        t += 1;
        c.push(GateKind::CRY, &[i % n, (i + 1) % n], &[Param::Train(t)]);
        t += 1;
    }
    let params = (0..t).map(|i| 0.01 * i as f64).collect();
    (c, params)
}

pub fn measure(Mode { reps, .. }: Mode, json: &mut Json) -> Vec<Floor> {
    let (circuit, params) = paper_circuit();
    for &batch in &[1usize, 8, 32] {
        let inputs: Vec<Vec<f64>> = (0..batch).map(|i| vec![0.1 * i as f64]).collect();
        let dynamic = time_median(reps, || {
            parallel_map(&inputs, |_| run(&circuit, &params, &[], ExecMode::Dynamic))
        });
        let static_ = time_median(reps, || {
            parallel_map(&inputs, |_| run(&circuit, &params, &[], ExecMode::Static))
        });
        let unbatched = time_median(reps, || {
            for _ in &inputs {
                std::hint::black_box(run(&circuit, &params, &[], ExecMode::Dynamic));
            }
        });
        json.obj(&format!("batch{batch}"), |j| {
            j.num("dynamic_s", dynamic);
            j.num("static_s", static_);
            j.num("unbatched_s", unbatched);
        });
    }
    Vec::new()
}
