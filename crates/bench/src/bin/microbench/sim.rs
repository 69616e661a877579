//! `sim` — timings for the fast simulation path, recorded as
//! `BENCH_sim.json`.
//!
//! Five sections, each fast-vs-reference:
//!
//! 1. `kernels` — per-gate sweep (Dynamic mode) with the structure-
//!    specialized kernels vs. the naive reference kernels.
//! 2. `fusion` — the compiled plan's block count and its Static-mode
//!    execution time on the same circuit (the unfused time is
//!    `kernels.fast_s`).
//! 3. `replay` — batched parameter-shift via plan replay vs. a fresh
//!    compile + full run per shifted parameter set, at 6 qubits.
//! 4. `trajectories` — noise-trajectory batch on the work-stealing
//!    engine (4 workers) vs. sequential.
//! 5. `end_to_end` — `Estimator` QML candidate score at 10 qubits,
//!    `SimBackend::Fast` vs. `SimBackend::Reference`. The acceptance
//!    target is ≥2× here.
//!
//! `--smoke` shrinks every section to a single cheap iteration.

use crate::{time_median, Floor, Json, Mode};
use qns_circuit::{Circuit, GateKind, Param};
use qns_noise::{Device, TrajectoryConfig, TrajectoryExecutor};
use qns_sim::{
    run_into_with, shifted_expectations, DiagObservable, ExecMode, Observable, SimBackend, SimPlan,
    StateVec,
};
use qns_transpile::Layout;
use quantumnas::{DesignSpace, Estimator, EstimatorKind, SpaceKind, SuperCircuit, Task};

/// A deep hardware-efficient benchmark circuit: `layers` of RZ·RX on every
/// qubit plus a CX + CRY entangling ring.
fn deep_circuit(n: usize, layers: usize) -> (Circuit, Vec<f64>) {
    let mut c = Circuit::new(n);
    let mut t = 0;
    for _ in 0..layers {
        for q in 0..n {
            c.push(GateKind::RZ, &[q], &[Param::Train(t)]);
            c.push(GateKind::RX, &[q], &[Param::Train(t + 1)]);
            t += 2;
        }
        for q in 0..n {
            c.push(GateKind::CX, &[q, (q + 1) % n], &[]);
            c.push(GateKind::CRY, &[q, (q + 1) % n], &[Param::Train(t)]);
            t += 1;
        }
    }
    let params = (0..t).map(|i| 0.7 + 0.05 * i as f64).collect();
    (c, params)
}

pub fn measure(Mode { smoke, reps, .. }: Mode, json: &mut Json) -> Vec<Floor> {
    // 1. Kernel sweep: same gate sequence, Dynamic mode (no fusion), so the
    // ratio isolates the structure-specialized kernels.
    let (n, layers) = if smoke { (6, 2) } else { (12, 8) };
    let (circuit, params) = deep_circuit(n, layers);
    let mut state = StateVec::zero_state(n);
    let fast = time_median(reps, || {
        run_into_with(
            &circuit,
            &params,
            &[],
            ExecMode::Dynamic,
            SimBackend::Fast,
            &mut state,
        );
    });
    let reference = time_median(reps, || {
        run_into_with(
            &circuit,
            &params,
            &[],
            ExecMode::Dynamic,
            SimBackend::Reference,
            &mut state,
        );
    });
    json.obj("kernels", |j| {
        j.int("qubits", n);
        j.int("gates", circuit.num_ops());
        j.num("fast_s", fast);
        j.num("reference_s", reference);
        j.num("speedup", reference / fast.max(1e-12));
    });

    // 2. Fusion: block count and Static execution time of the same circuit.
    let plan = SimPlan::compile(&circuit);
    let fused = time_median(reps, || {
        plan.execute_into(&circuit, &params, &[], &mut state);
    });
    json.obj("fusion", |j| {
        j.int("gates", circuit.num_ops());
        j.int("blocks", plan.num_steps());
        j.num("static_s", fused);
    });

    // 3. Plan replay vs. recompile for batched parameter shift, at 6
    // qubits: on 12 the state sweeps both arms share hide what replay
    // saves (the compile).
    let (rn, rlayers) = (6, if smoke { 2 } else { 8 });
    let (rcirc, rparams) = deep_circuit(rn, rlayers);
    let shifts: Vec<(usize, f64)> = (0..rparams.len().min(if smoke { 4 } else { 32 }))
        .map(|i| (i, std::f64::consts::FRAC_PI_2))
        .collect();
    let obs = DiagObservable::new(vec![1.0; rn]);
    let replay = time_median(reps, || {
        let _ = shifted_expectations(&rcirc, &rparams, &[], &obs, &shifts);
    });
    let recompile = time_median(reps, || {
        let mut work = rparams.clone();
        for &(i, d) in &shifts {
            work[i] += d;
            let plan = SimPlan::compile(&rcirc);
            let mut s = StateVec::zero_state(rn);
            plan.execute_into(&rcirc, &work, &[], &mut s);
            let _ = obs.expect(&s);
            work[i] = rparams[i];
        }
    });
    json.obj("replay", |j| {
        j.int("qubits", rn);
        j.int("shifts", shifts.len());
        j.num("replay_s", replay);
        j.num("recompile_s", recompile);
        j.num("speedup", recompile / replay.max(1e-12));
    });

    // 4. Trajectory batch: engine fan-out vs. sequential (bit-identical
    // results, so only wall time differs).
    let (tn, tlayers) = if smoke { (4, 1) } else { (8, 3) };
    let (tcirc, tparams) = deep_circuit(tn, tlayers);
    let cfg = TrajectoryConfig {
        trajectories: if smoke { 8 } else { 64 },
        seed: 11,
        readout: true,
    };
    let phys: Vec<usize> = (0..tn).collect();
    let device = Device::melbourne();
    let seq_exec = TrajectoryExecutor::new(device.clone(), cfg);
    let par_exec = TrajectoryExecutor::new(device.clone(), cfg).with_workers(4);
    let seq = time_median(reps, || {
        let _ = seq_exec.expect_z(&tcirc, &tparams, &[], &phys);
    });
    let par = time_median(reps, || {
        let _ = par_exec.expect_z(&tcirc, &tparams, &[], &phys);
    });
    json.obj("trajectories", |j| {
        j.int("qubits", tn);
        j.int("trajectories", cfg.trajectories);
        j.num("sequential_s", seq);
        j.num("workers4_s", par);
        j.num("speedup", seq / par.max(1e-12));
    });

    // 5. End-to-end candidate evaluation at 10 qubits (the 6×6-pooled
    // digit task): the acceptance criterion (≥2× over the reference
    // backend at 8+ qubits).
    let en = 10;
    let task = Task::qml_digits(&[0, 3, 6, 9], if smoke { 8 } else { 30 }, 6, 7);
    let sc = SuperCircuit::new(
        DesignSpace::new(SpaceKind::U3Cu3),
        en,
        if smoke { 1 } else { 3 },
    );
    let ecirc = sc.build_for(&sc.max_config(), &task);
    let eparams: Vec<f64> = (0..ecirc.num_train_params())
        .map(|i| 0.1 * (i as f64 % 7.0) - 0.3)
        .collect();
    let layout = Layout::trivial(en);
    let fast_est = Estimator::new(device.clone(), EstimatorKind::Noiseless, 1);
    let ref_est =
        Estimator::new(device, EstimatorKind::Noiseless, 1).with_backend(SimBackend::Reference);
    let (mut fast_score, mut ref_score) = (0.0, 0.0);
    let e_fast = time_median(reps, || {
        fast_score = fast_est.score(&ecirc, &eparams, &task, &layout);
    });
    let e_ref = time_median(reps, || {
        ref_score = ref_est.score(&ecirc, &eparams, &task, &layout);
    });
    let speedup = e_ref / e_fast.max(1e-12);
    assert!(
        (fast_score - ref_score).abs() < 1e-9,
        "fast and reference backends disagree on the candidate score"
    );
    json.obj("end_to_end", |j| {
        j.int("qubits", en);
        j.int("gates", ecirc.num_ops());
        j.num("fast_s", e_fast);
        j.num("reference_s", e_ref);
        j.num("speedup", speedup);
        j.num("score", fast_score);
    });

    vec![Floor("end-to-end speedup", speedup, 2.0)]
}
