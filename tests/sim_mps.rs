//! Differential and invariant battery for the matrix-product-state
//! backend.
//!
//! In the exact regime (unbounded bond, zero cutoff) `SimBackend::Mps`
//! owes the reference oracle full 1e-10 agreement for every gate
//! template, execution mode and transpiler optimization level 0–3.
//! Beyond the differential battery the suite checks the MPS structural
//! invariants (canonical-form isometry, norm preservation, monotone
//! fidelity in `max_bond`), bitwise determinism across worker counts and
//! kill/resume, backend-tagged resume rejection, and a ≥12-qubit pipeline
//! smoke with truncation telemetry.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use proptest::prelude::*;
use qns_chem::{PauliString, PauliSum};
use qns_circuit::{Circuit, GateKind, Param};
use qns_noise::{Device, TrajectoryConfig, TrajectoryExecutor};
use qns_runtime::counters;
use qns_sim::{run_with, ExecMode, FusedOp, MpsConfig, MpsState, SimBackend, SimPlan, StateVec};
use qns_transpile::optimize;
use quantumnas::{
    evolutionary_search_seeded_rt, CheckpointOptions, DesignSpace, Estimator, EstimatorKind,
    EvoConfig, FaultPlan, QuantumNas, QuantumNasConfig, RuntimeOptions, SearchResult,
    SearchRuntime, SpaceKind, SuperCircuit, SuperTrainConfig, Task, TrainConfig, FAULT_MARKER,
};

const TOL: f64 = 1e-10;

fn assert_amplitudes_close(got: &StateVec, oracle: &StateVec, what: &str) {
    for (i, (a, b)) in got.amplitudes().iter().zip(oracle.amplitudes()).enumerate() {
        let d = ((a.re - b.re).powi(2) + (a.im - b.im).powi(2)).sqrt();
        assert!(d < TOL, "{what}: amplitude {i} differs by {d:e}");
    }
    for (q, (ez_g, ez_o)) in got
        .expect_z_all()
        .iter()
        .zip(oracle.expect_z_all())
        .enumerate()
    {
        assert!(
            (ez_g - ez_o).abs() < TOL,
            "{what}: <Z_{q}> differs: {ez_g} vs {ez_o}"
        );
    }
}

/// Strategy: a random circuit over `lo..=hi` qubits drawing from EVERY
/// gate template the circuit crate ships (mirrors `sim_differential`).
fn arb_circuit(lo: usize, hi: usize, max_ops: usize) -> impl Strategy<Value = (Circuit, Vec<f64>)> {
    (
        lo..=hi,
        prop::collection::vec(
            (
                0..GateKind::all().len(),
                0usize..8,
                0usize..8,
                prop::collection::vec(-3.0..3.0f64, 3),
            ),
            1..max_ops,
        ),
    )
        .prop_map(|(n, ops)| {
            let mut c = Circuit::new(n);
            let mut train = Vec::new();
            for (gi, a, b, vals) in ops {
                let kind = GateKind::all()[gi];
                if kind.num_qubits() == 2 && n == 1 {
                    continue; // no pair available on a single wire
                }
                let (a, b) = (a % n, b % n);
                let qs: Vec<usize> = if kind.num_qubits() == 1 {
                    vec![a]
                } else if a != b {
                    vec![a, b]
                } else {
                    vec![a, (a + 1) % n]
                };
                let ps: Vec<Param> = (0..kind.num_params())
                    .map(|k| {
                        train.push(vals[k]);
                        Param::Train(train.len() - 1)
                    })
                    .collect();
                c.push(kind, &qs, &ps);
            }
            (c, train)
        })
}

/// Runs `circuit` on a fresh MPS with the given config and densifies.
fn run_on_mps(circuit: &Circuit, train: &[f64], config: MpsConfig) -> StateVec {
    let mut mps = MpsState::zero_state(circuit.num_qubits(), config);
    qns_sim::run_mps(circuit, train, &[], ExecMode::Dynamic, &mut mps);
    mps.to_statevec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exact-regime MPS agrees with the oracle in both execution modes
    /// (per-gate replay and the fused `SimPlan` static path) and when
    /// replaying an explicitly compiled plan's blocks.
    #[test]
    fn mps_exact_agrees_with_reference_all_modes_and_plan_blocks(
        (circuit, train) in arb_circuit(1, 8, 40)
    ) {
        let oracle = run_with(&circuit, &train, &[], ExecMode::Dynamic, SimBackend::Reference);
        let exact = SimBackend::Mps(MpsConfig::exact());
        for mode in [ExecMode::Dynamic, ExecMode::Static] {
            let got = run_with(&circuit, &train, &[], mode, exact);
            assert_amplitudes_close(&got, &oracle, &format!("mps {mode:?}"));
        }
        let blocks = SimPlan::compile(&circuit).materialize(&circuit, &train, &[]);
        let mut mps = MpsState::zero_state(circuit.num_qubits(), MpsConfig::exact());
        for b in &blocks {
            match b {
                FusedOp::One(q, m) => mps.apply_1q(m, *q),
                FusedOp::Two(a, b2, m) => mps.apply_2q(m, *a, *b2),
            }
        }
        assert_amplitudes_close(&mps.to_statevec(), &oracle, "plan blocks");
    }

    /// Exact-regime MPS agrees with the oracle on the SAME circuit after
    /// every transpiler optimization level reshapes it.
    #[test]
    fn mps_exact_agrees_with_reference_across_opt_levels(
        (circuit, train) in arb_circuit(1, 8, 40)
    ) {
        for level in 0..=3u8 {
            let opt = optimize(&circuit, level);
            let oracle = run_with(&opt, &train, &[], ExecMode::Dynamic, SimBackend::Reference);
            let got = run_with(&opt, &train, &[], ExecMode::Static, SimBackend::Mps(MpsConfig::exact()));
            assert_amplitudes_close(&got, &oracle, &format!("opt level {level}"));
        }
    }

    /// After `canonicalize_left` every non-final site is a left isometry,
    /// in the exact regime and after aggressive truncation alike.
    #[test]
    fn canonical_form_is_left_isometric((circuit, train) in arb_circuit(2, 8, 40)) {
        for config in [MpsConfig::exact(), MpsConfig::with_max_bond(2)] {
            let mut mps = MpsState::zero_state(circuit.num_qubits(), config);
            qns_sim::run_mps(&circuit, &train, &[], ExecMode::Dynamic, &mut mps);
            mps.canonicalize_left();
            for q in 0..circuit.num_qubits() - 1 {
                let defect = mps.isometry_defect(q);
                prop_assert!(
                    defect <= TOL,
                    "site {q} isometry defect {defect:e} (max_bond {})",
                    config.max_bond
                );
            }
        }
    }

    /// Unitary circuits preserve the norm exactly; truncation renormalizes
    /// so the state stays unit-norm even when Schmidt weight is dropped.
    #[test]
    fn norm_is_preserved((circuit, train) in arb_circuit(2, 8, 40)) {
        for config in [MpsConfig::exact(), MpsConfig::with_max_bond(2)] {
            let mut mps = MpsState::zero_state(circuit.num_qubits(), config);
            qns_sim::run_mps(&circuit, &train, &[], ExecMode::Dynamic, &mut mps);
            let norm = mps.norm_sqr();
            prop_assert!(
                (norm - 1.0).abs() <= 1e-9,
                "norm^2 {norm} drifted (max_bond {})",
                config.max_bond
            );
        }
    }

    /// Raising `max_bond` never loses fidelity against the exact state,
    /// and the full-rank bond recovers it to solver precision.
    #[test]
    fn fidelity_is_monotone_in_max_bond((circuit, train) in arb_circuit(6, 6, 30)) {
        let exact = run_on_mps(&circuit, &train, MpsConfig::exact());
        let mut last = -1.0f64;
        for bond in [1usize, 2, 4, 8] {
            let approx = run_on_mps(&circuit, &train, MpsConfig::with_max_bond(bond));
            let f = exact.inner(&approx).norm_sqr();
            prop_assert!(
                f >= last - 1e-9,
                "fidelity dropped {last} -> {f} at max_bond {bond}"
            );
            last = f;
        }
        // Bond 8 is full rank for 6 qubits: the "truncated" run is exact.
        prop_assert!(last >= 1.0 - 1e-9, "full-rank fidelity {last} < 1");
    }
}

/// For a fixed candidate the MPS trajectory path is bit-identical at
/// every worker count — expectations, parity masks, and sampled counts.
#[test]
fn mps_trajectories_bit_identical_across_worker_counts() {
    let mut c = Circuit::new(3);
    c.push(GateKind::H, &[0], &[]);
    c.push(GateKind::CX, &[0, 1], &[]);
    c.push(GateKind::RY, &[1], &[Param::Fixed(0.8)]);
    c.push(GateKind::CX, &[1, 2], &[]);
    c.push(GateKind::RZZ, &[0, 2], &[Param::Fixed(0.3)]);
    let phys = [0usize, 1, 2];
    let cfg = TrajectoryConfig {
        trajectories: 33,
        seed: 7,
        readout: true,
    };
    let backend = SimBackend::Mps(MpsConfig::exact());
    let sequential = TrajectoryExecutor::new(Device::yorktown(), cfg).with_backend(backend);
    let seq_e = sequential.expect_z(&c, &[], &[], &phys);
    let seq_m = sequential.expect_z_masks(&c, &[], &[], &phys, &[0b101, 0b011]);
    let seq_s = sequential.sample_counts(&c, &[], &[], &phys, 256);
    for workers in [2, 4, 0] {
        let parallel = TrajectoryExecutor::new(Device::yorktown(), cfg)
            .with_backend(backend)
            .with_workers(workers);
        let par_e = parallel.expect_z(&c, &[], &[], &phys);
        assert_eq!(
            seq_e.expect_z, par_e.expect_z,
            "{workers:?}: expectations drifted"
        );
        let par_m = parallel.expect_z_masks(&c, &[], &[], &phys, &[0b101, 0b011]);
        assert_eq!(seq_m, par_m, "{workers:?}: parity masks drifted");
        let par_s = parallel.sample_counts(&c, &[], &[], &phys, 256);
        assert_eq!(seq_s, par_s, "{workers:?}: sampled counts drifted");
    }
}

fn drill_setup() -> (SuperCircuit, Vec<f64>, Task, Estimator) {
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 2);
    let task = Task::qml_digits(&[1, 8], 15, 4, 4);
    let params: Vec<f64> = (0..sc.num_params())
        .map(|i| 0.2 * ((i % 5) as f64) - 0.4)
        .collect();
    let est = Estimator::new(Device::yorktown(), EstimatorKind::SuccessRate, 1)
        .with_valid_cap(4)
        .with_backend(SimBackend::Mps(MpsConfig::exact()));
    (sc, params, task, est)
}

fn drill_evo_cfg(runtime: RuntimeOptions) -> EvoConfig {
    EvoConfig {
        iterations: 4,
        population: 8,
        parents: 3,
        mutations: 3,
        crossovers: 2,
        runtime,
        ..EvoConfig::fast(17)
    }
}

fn ckpt_options(dir: &std::path::Path, workers: usize, resume: bool) -> RuntimeOptions {
    let ck = CheckpointOptions::new(dir);
    RuntimeOptions {
        workers,
        cache: true,
        checkpoint: Some(if resume { ck.resume() } else { ck }),
        ..Default::default()
    }
}

/// Runs `f`, asserting it dies with an injected boundary crash.
fn expect_boundary_crash(f: impl FnOnce()) {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("run should crash");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.starts_with(FAULT_MARKER),
        "crash was not the injected one: {msg:?}"
    );
}

fn assert_search_bitwise_eq(resumed: &SearchResult, reference: &SearchResult) {
    assert_eq!(resumed.best, reference.best);
    assert_eq!(resumed.best_score.to_bits(), reference.best_score.to_bits());
    assert_eq!(resumed.history.len(), reference.history.len());
    for (a, b) in resumed.history.iter().zip(&reference.history) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(resumed.evaluations, reference.evaluations);
    assert_eq!(resumed.memo_hits, reference.memo_hits);
}

/// A search scored on the MPS backend, killed at a generation boundary
/// and resumed, is bitwise identical to the uninterrupted run — at one
/// and at several workers.
#[test]
fn mps_search_killed_and_resumed_is_bitwise_identical() {
    let (sc, params, task, est) = drill_setup();
    for workers in [1usize, 2] {
        let reference = {
            let cfg = drill_evo_cfg(RuntimeOptions {
                workers,
                ..Default::default()
            });
            let rt = SearchRuntime::new(cfg.runtime.clone());
            evolutionary_search_seeded_rt(&sc, &params, &task, &est, &cfg, &[], &rt)
        };
        for boundary in [1u64, 2] {
            let dir = common::TempDir::new(&format!("mps-search-w{workers}-b{boundary}"));
            let crash_cfg = drill_evo_cfg(ckpt_options(dir.path(), workers, false));
            let rt = SearchRuntime::new(crash_cfg.runtime.clone())
                .with_fault_plan(Arc::new(FaultPlan::new().crash_at_boundary(boundary)));
            expect_boundary_crash(|| {
                evolutionary_search_seeded_rt(&sc, &params, &task, &est, &crash_cfg, &[], &rt);
            });

            let resume_cfg = drill_evo_cfg(ckpt_options(dir.path(), workers, true));
            let rt = SearchRuntime::new(resume_cfg.runtime.clone());
            let resumed =
                evolutionary_search_seeded_rt(&sc, &params, &task, &est, &resume_cfg, &[], &rt);
            assert_eq!(
                rt.metrics().counter(counters::CHECKPOINT_RESUMES),
                1,
                "resume was not recorded (workers {workers}, boundary {boundary})"
            );
            assert_search_bitwise_eq(&resumed, &reference);
        }
    }
}

/// Snapshots carry the simulator backend in their context digest: a
/// checkpoint written under the fast state-vector backend must NOT be
/// resumed by an MPS-scored search (and vice versa the rejected run
/// still completes, from scratch, bitwise equal to an uninterrupted one).
#[test]
fn backend_mismatch_rejects_resume() {
    let (sc, params, task, est_mps) = drill_setup();
    let est_fast = Estimator::new(Device::yorktown(), EstimatorKind::SuccessRate, 1)
        .with_valid_cap(4)
        .with_backend(SimBackend::Fast);
    let workers = 2usize;

    // Uninterrupted MPS reference.
    let reference = {
        let cfg = drill_evo_cfg(RuntimeOptions {
            workers,
            ..Default::default()
        });
        let rt = SearchRuntime::new(cfg.runtime.clone());
        evolutionary_search_seeded_rt(&sc, &params, &task, &est_mps, &cfg, &[], &rt)
    };

    // Crash a FAST-backend run, leaving its snapshot behind.
    let dir = common::TempDir::new("mps-backend-mismatch");
    let crash_cfg = drill_evo_cfg(ckpt_options(dir.path(), workers, false));
    let rt = SearchRuntime::new(crash_cfg.runtime.clone())
        .with_fault_plan(Arc::new(FaultPlan::new().crash_at_boundary(2)));
    expect_boundary_crash(|| {
        evolutionary_search_seeded_rt(&sc, &params, &task, &est_fast, &crash_cfg, &[], &rt);
    });

    // Resume with the MPS backend: the snapshot context can't match.
    let resume_cfg = drill_evo_cfg(ckpt_options(dir.path(), workers, true));
    let rt = SearchRuntime::new(resume_cfg.runtime.clone());
    let resumed =
        evolutionary_search_seeded_rt(&sc, &params, &task, &est_mps, &resume_cfg, &[], &rt);
    assert_eq!(
        rt.metrics().counter(counters::CHECKPOINT_RESUMES),
        0,
        "a statevector snapshot was resumed by the MPS backend"
    );
    assert_eq!(
        rt.metrics().counter(counters::CHECKPOINT_REJECTED),
        1,
        "the stale snapshot should be rejected, not ignored"
    );
    assert_search_bitwise_eq(&resumed, &reference);
}

/// A 12-qubit transverse-field Ising Hamiltonian — wide enough that
/// `max_bond = 2` genuinely truncates.
fn tfim_12() -> Task {
    let n = 12usize;
    let mut h = PauliSum::new(n);
    for q in 0..n - 1 {
        h.add(
            -1.0,
            PauliString {
                x: 0,
                z: (1 << q) | (1 << (q + 1)),
            },
        );
    }
    for q in 0..n {
        h.add(-0.7, PauliString::x_on(q));
    }
    Task::Vqe {
        name: "tfim12".to_string(),
        hamiltonian: h,
        n_qubits: n,
    }
}

/// The acceptance smoke: a full pipeline run at 12 qubits on the MPS
/// backend with an aggressive bond cap finishes, produces a finite
/// energy, and surfaces truncation telemetry in the runtime summary
/// (what the CLI prints under `--stats`).
#[test]
fn twelve_qubit_search_smoke_on_mps_backend() {
    let mut config = QuantumNasConfig::fast();
    config.blocks = Some(2);
    config.super_train = SuperTrainConfig {
        steps: 4,
        batch_size: 4,
        warmup_steps: 1,
        ..Default::default()
    };
    config.evo = EvoConfig {
        iterations: 2,
        population: 4,
        parents: 2,
        mutations: 2,
        crossovers: 1,
        ..EvoConfig::fast(5)
    };
    config.estimator = EstimatorKind::Noiseless;
    config.backend = SimBackend::Mps(MpsConfig {
        max_bond: 2,
        ..Default::default()
    });
    config.train = TrainConfig {
        epochs: 2,
        batch_size: 8,
        ..Default::default()
    };
    config.prune = None;
    config.measure = TrajectoryConfig {
        trajectories: 2,
        seed: 0,
        readout: false,
    };
    config.n_test = 4;

    let nas = QuantumNas::new(SpaceKind::U3Cu3, Device::guadalupe(), tfim_12(), config);
    let report = nas.run(11);

    assert!(
        report.final_energy.is_finite(),
        "12-qubit VQE smoke produced no energy"
    );
    let stats = qns_sim::mps_stats();
    assert!(
        stats.max_bond_seen >= 2,
        "MPS backend never ran (max bond seen {})",
        stats.max_bond_seen
    );
    assert!(
        stats.truncation_events > 0,
        "max_bond = 2 at 12 qubits should truncate"
    );
    for counter in [counters::MPS_TRUNCATIONS, counters::MPS_MAX_BOND] {
        assert!(
            report.runtime_summary.contains(counter),
            "truncation telemetry '{counter}' missing from runtime summary:\n{}",
            report.runtime_summary
        );
    }
}
