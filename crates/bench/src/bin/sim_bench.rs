//! `sim_bench` — timings for the fast simulation path, recorded as
//! `BENCH_sim.json`.
//!
//! ```text
//! cargo run -p qns-bench --release --bin sim_bench [-- --smoke] [-- --out PATH]
//! ```
//!
//! Five sections, each fast-vs-reference:
//!
//! 1. `kernels` — per-gate sweep (Dynamic mode) with the structure-
//!    specialized kernels vs. the naive reference kernels.
//! 2. `fusion` — block counts and Static-mode execution time at fusion
//!    levels 0–3.
//! 3. `replay` — batched parameter-shift via plan replay vs. a fresh
//!    compile + full run per shifted parameter set.
//! 4. `trajectories` — noise-trajectory batch on the work-stealing
//!    engine (4 workers) vs. sequential.
//! 5. `end_to_end` — `Estimator` QML candidate score at 8 qubits,
//!    `SimBackend::Fast` vs. `SimBackend::Reference`. The acceptance
//!    target is ≥2× here.
//!
//! `--smoke` shrinks every section to a single cheap iteration so CI can
//! run the binary as a build-and-run check without thresholds.

use qns_circuit::{Circuit, GateKind, Param};
use qns_noise::{Device, TrajectoryConfig, TrajectoryExecutor};
use qns_sim::{
    run_into_with, shifted_expectations, DiagObservable, ExecMode, FusedProgram, Observable,
    SimBackend, SimPlan, StateVec,
};
use qns_transpile::Layout;
use quantumnas::{DesignSpace, Estimator, EstimatorKind, SpaceKind, SuperCircuit, Task};
use std::fmt::Write as _;
use std::time::Instant;

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

/// Median wall-clock seconds of `reps` calls to `f`.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

struct Json {
    buf: String,
}

impl Json {
    fn obj(&mut self, key: &str, body: impl FnOnce(&mut Json)) {
        let _ = write!(self.buf, "\"{key}\": {{");
        body(self);
        if self.buf.ends_with(", ") {
            self.buf.truncate(self.buf.len() - 2);
        }
        let _ = write!(self.buf, "}}, ");
    }

    fn num(&mut self, key: &str, v: f64) {
        let _ = write!(self.buf, "\"{key}\": {v:.9}, ");
    }

    fn int(&mut self, key: &str, v: usize) {
        let _ = write!(self.buf, "\"{key}\": {v}, ");
    }

    fn str(&mut self, key: &str, v: &str) {
        let _ = write!(self.buf, "\"{key}\": \"{v}\", ");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_sim.json".to_string());
    let reps = if smoke { 1 } else { 9 };

    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut json = Json { buf: String::new() };
    json.buf.push('{');
    json.str("bench", "sim");
    json.str("mode", if smoke { "smoke" } else { "full" });
    json.int("cores", cores);

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
    println!(
        "kernels (n={n}, {} gates, Dynamic): fast {:.3}ms reference {:.3}ms ({:.2}x)",
        circuit.num_ops(),
        fast * 1e3,
        reference * 1e3,
        reference / fast.max(1e-12),
    );
    json.obj("kernels", |j| {
        j.int("qubits", n);
        j.int("gates", circuit.num_ops());
        j.num("fast_s", fast);
        j.num("reference_s", reference);
        j.num("speedup", reference / fast.max(1e-12));
    });

    // 2. Fusion levels: block counts and Static execution time.
    json.obj("fusion", |j| {
        j.int("qubits", n);
        j.int("gates", circuit.num_ops());
        for level in 0..=3u8 {
            let plan = SimPlan::compile(&circuit, level);
            let blocks = plan.num_steps();
            let base = plan.materialize(&circuit, &params, &[]);
            let secs = time_median(reps, || {
                plan.execute_into(&circuit, &params, &[], &mut state);
            });
            println!(
                "fusion level {level}: {blocks} blocks, exec {:.3}ms",
                secs * 1e3
            );
            j.obj(&format!("level{level}"), |j| {
                j.int("blocks", blocks);
                j.num("exec_s", secs);
            });
            let _ = base;
        }
    });

    // 3. Plan replay vs. recompile for batched parameter shift.
    let shifts: Vec<(usize, f64)> = (0..params.len().min(if smoke { 4 } else { 32 }))
        .map(|i| (i, std::f64::consts::FRAC_PI_2))
        .collect();
    let obs = DiagObservable::new(vec![1.0; n]);
    let replay = time_median(reps, || {
        let _ = shifted_expectations(&circuit, &params, &[], &obs, &shifts);
    });
    let recompile = time_median(reps, || {
        let mut work = params.clone();
        for &(i, d) in &shifts {
            work[i] += d;
            let prog = FusedProgram::compile(&circuit, &work, &[]);
            let mut s = StateVec::zero_state(n);
            prog.apply(&mut s);
            let _ = obs.expect(&s);
            work[i] = params[i];
        }
    });
    println!(
        "replay ({} shifts): replay {:.3}ms recompile {:.3}ms ({:.2}x)",
        shifts.len(),
        replay * 1e3,
        recompile * 1e3,
        recompile / replay.max(1e-12),
    );
    json.obj("replay", |j| {
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
    println!(
        "trajectories ({} traj, n={tn}): sequential {:.3}ms 4 workers {:.3}ms ({:.2}x)",
        cfg.trajectories,
        seq * 1e3,
        par * 1e3,
        seq / par.max(1e-12),
    );
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
    let encoder = match &task {
        Task::Qml { encoder, .. } => encoder.clone(),
        _ => unreachable!(),
    };
    let ecirc = sc.build(&sc.max_config(), Some(&encoder));
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
    println!(
        "end_to_end (n={en}, {} gates): fast {:.3}ms reference {:.3}ms ({speedup:.2}x) \
         score fast {fast_score:.6} reference {ref_score:.6}",
        ecirc.num_ops(),
        e_fast * 1e3,
        e_ref * 1e3,
    );
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

    if json.buf.ends_with(", ") {
        let len = json.buf.len() - 2;
        json.buf.truncate(len);
    }
    json.buf.push('}');
    json.buf.push('\n');
    std::fs::write(&out_path, &json.buf).expect("write BENCH_sim.json");
    println!("\nwrote {out_path}");
    if !smoke {
        assert!(
            speedup >= 2.0,
            "acceptance: end-to-end speedup {speedup:.2}x is below the 2x target"
        );
    }
}
