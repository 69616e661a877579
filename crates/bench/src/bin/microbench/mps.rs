//! `mps` — matrix-product-state backend timings, recorded as
//! `BENCH_mps.json`.
//!
//! Two sections:
//!
//! 1. `throughput_n{10,16,24}` — full-state evolution + all-qubit `<Z>`
//!    readout of a brickwork U3+CU3 candidate on the MPS backend
//!    (`max_bond` 32) vs. the fast state-vector kernels. The dense state
//!    is 16 MiB at n=20 and 256 MiB at n=24; the MPS never densifies, so
//!    the crossover past the dense memory wall is the headline. The
//!    acceptance floor is ≥0.6× `dense_over_mps` at n=16, where both arms
//!    are cache-resident compute (the dense sweep at n=24 is bound by
//!    memory).
//! 2. `truncation_bond{2,4,8,16,32}` — a `max_bond` sweep at 16 qubits:
//!    wall time, fidelity against the exact state, truncation events and
//!    discarded Schmidt weight per bond cap.
//!
//! `--smoke` shrinks both sections.

use crate::{time_median, Floor, Json, Mode};
use qns_circuit::{Circuit, GateKind, Param};
use qns_sim::{
    mps_stats, reset_mps_stats, run_mps, run_with, ExecMode, MpsConfig, MpsState, SimBackend,
};

/// A brickwork candidate: per-layer U3 on every qubit, CU3 on even then
/// odd nearest-neighbor pairs, and one ring-closing CU3 that exercises
/// the MPS SWAP routing for non-adjacent operands.
fn brickwork(n: usize, layers: usize) -> Circuit {
    let mut c = Circuit::new(n);
    let angle = |i: usize| Param::Fixed(0.3 * ((i % 11) as f64) - 1.2);
    let mut t = 0;
    for _ in 0..layers {
        for q in 0..n {
            c.push(GateKind::U3, &[q], &[angle(t), angle(t + 1), angle(t + 2)]);
            t += 3;
        }
        for start in [0usize, 1] {
            let mut q = start;
            while q + 1 < n {
                c.push(
                    GateKind::CU3,
                    &[q, q + 1],
                    &[angle(t), angle(t + 1), angle(t + 2)],
                );
                t += 3;
                q += 2;
            }
        }
        c.push(
            GateKind::CU3,
            &[0, n - 1],
            &[angle(t), angle(t + 1), angle(t + 2)],
        );
        t += 3;
    }
    c
}

pub fn measure(Mode { smoke, reps }: Mode, json: &mut Json) -> Vec<Floor> {
    // 1. Throughput vs the dense state vector. Layers shrink with width
    //    so the dense side stays affordable at 24 qubits.
    let sizes: &[(usize, usize)] = if smoke {
        &[(6, 1), (8, 1)]
    } else {
        &[(10, 2), (16, 2), (24, 1)]
    };
    let bench_config = MpsConfig {
        max_bond: 32,
        ..Default::default()
    };
    let mut dense_over_mps_16 = 0.0;
    for &(n, layers) in sizes {
        let circuit = brickwork(n, layers);
        let mps_s = time_median(reps, || {
            let mut mps = MpsState::zero_state(n, bench_config);
            run_mps(&circuit, &[], &[], ExecMode::Static, &mut mps);
            assert_eq!(mps.expect_z_all().len(), n);
        });
        let dense_s = time_median(reps, || {
            let state = run_with(&circuit, &[], &[], ExecMode::Static, SimBackend::Fast);
            assert_eq!(state.expect_z_all().len(), n);
        });
        let dense_over_mps = dense_s / mps_s.max(1e-12);
        if n == 16 {
            dense_over_mps_16 = dense_over_mps;
        }
        json.obj(&format!("throughput_n{n}"), |j| {
            j.int("qubits", n);
            j.int("gates", circuit.num_ops());
            j.int("max_bond", bench_config.max_bond);
            j.num("mps_s", mps_s);
            j.num("dense_s", dense_s);
            j.num("dense_over_mps", dense_over_mps);
            j.int("dense_bytes", (1usize << n) * 16);
        });
    }

    // 2. Truncation sweep: accuracy-vs-bond at a width where the exact
    //    state is still densifiable for the fidelity reference.
    let (sweep_n, sweep_layers, bonds): (usize, usize, &[usize]) = if smoke {
        (8, 1, &[2, 4])
    } else {
        (16, 3, &[2, 4, 8, 16, 32])
    };
    let circuit = brickwork(sweep_n, sweep_layers);
    let exact = run_with(&circuit, &[], &[], ExecMode::Static, SimBackend::Fast);
    for &bond in bonds {
        let config = MpsConfig::with_max_bond(bond);
        reset_mps_stats();
        let mut mps = MpsState::zero_state(sweep_n, config);
        let trunc_s = time_median(reps, || {
            mps = MpsState::zero_state(sweep_n, config);
            run_mps(&circuit, &[], &[], ExecMode::Static, &mut mps);
        });
        let stats = mps_stats();
        let fidelity = exact.inner(&mps.to_statevec()).norm_sqr();
        json.obj(&format!("truncation_bond{bond}"), |j| {
            j.int("qubits", sweep_n);
            j.int("max_bond", bond);
            j.num("mps_s", trunc_s);
            j.num("fidelity", fidelity);
            j.int("truncation_events", stats.truncation_events as usize);
            j.num(
                "truncated_weight",
                stats.truncated_weight_pico as f64 * 1e-12,
            );
        });
    }
    vec![Floor("dense/MPS at 16 qubits", dense_over_mps_16, 0.6)]
}
