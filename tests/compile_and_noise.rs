//! Cross-crate semantics: design-space circuits survive the full
//! transpile → noisy-execution path with correct measurement mapping.

use qns_circuit::{Circuit, GateKind, Param};
use qns_noise::{circuit_success_rate, Device, TrajectoryConfig, TrajectoryExecutor};
use qns_runtime::StructuralHasher;
use qns_sim::{run, ExecMode};
use qns_transpile::{transpile, Layout};
use quantumnas::{DesignSpace, Sampler, SamplerConfig, SpaceKind, SuperCircuit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// For every design space and several devices: compile the maximal
/// SubCircuit, simulate both forms noise-free, and check logical
/// expectations agree through the measurement mapping.
#[test]
fn every_space_compiles_faithfully_on_every_5q_device() {
    let mut rng = StdRng::seed_from_u64(3);
    for &space in SpaceKind::all() {
        let sc = SuperCircuit::new(DesignSpace::new(space), 4, 2);
        let circuit = sc.build(&sc.max_config(), None);
        let params: Vec<f64> = (0..circuit.num_train_params())
            .map(|_| rng.gen_range(-2.0..2.0))
            .collect();
        for device in [Device::yorktown(), Device::santiago()] {
            let t = transpile(&circuit, &device, &Layout::trivial(4), 2);
            let ideal = run(&circuit, &params, &[], ExecMode::Static);
            let compiled = run(&t.circuit, &params, &[], ExecMode::Static);
            for l in 0..4 {
                let a = ideal.expect_z(l);
                let b = compiled.expect_z(t.dense_of_logical[l]);
                assert!(
                    (a - b).abs() < 1e-7,
                    "{space:?} on {}: logical {l}: {a} vs {b}",
                    device.name()
                );
            }
            // Coupling-map respected.
            for op in t.circuit.iter() {
                if op.num_qubits() == 2 {
                    assert!(device.connected(t.phys_of[op.qubits[0]], t.phys_of[op.qubits[1]]));
                }
            }
        }
    }
}

/// Noise monotonicity through the whole stack: scaling a device's error
/// rates up lowers the noisy fidelity of a compiled circuit.
#[test]
fn noisier_devices_degrade_compiled_circuits_more() {
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 2);
    let circuit = sc.build(&sc.max_config(), None);
    let params: Vec<f64> = (0..circuit.num_train_params())
        .map(|i| 0.4 + 0.05 * (i as f64))
        .collect();
    let base = Device::belem();
    let t = transpile(&circuit, &base, &Layout::trivial(4), 2);
    let ideal = run(&t.circuit, &params, &[], ExecMode::Static);

    let fidelity_on = |device: Device| -> f64 {
        let exec = TrajectoryExecutor::new(
            device,
            TrajectoryConfig {
                trajectories: 24,
                seed: 9,
                readout: false,
            },
        );
        let noisy = exec.expect_z(&t.circuit, &params, &[], &t.phys_of);
        // Agreement of <Z> profiles as a cheap fidelity proxy.
        noisy
            .expect_z
            .iter()
            .enumerate()
            .map(|(q, e)| 1.0 - (e - ideal.expect_z(q)).abs())
            .sum::<f64>()
            / t.circuit.num_qubits() as f64
    };
    let quiet = fidelity_on(base.scaled_errors(0.2));
    let loud = fidelity_on(base.scaled_errors(5.0));
    assert!(
        quiet > loud,
        "quiet {quiet} should preserve expectations better than loud {loud}"
    );
}

/// The success-rate estimator agrees with compiled gate counts: more gates
/// on a noisier mapping means a lower rate.
#[test]
fn success_rate_tracks_compiled_size() {
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 2);
    let small = {
        let mut cfg = sc.max_config();
        cfg.n_blocks = 1;
        cfg.widths[0] = vec![2, 1];
        sc.build(&cfg, None)
    };
    let large = sc.build(&sc.max_config(), None);
    let device = Device::yorktown();
    let ts = transpile(&small, &device, &Layout::trivial(4), 2);
    let tl = transpile(&large, &device, &Layout::trivial(4), 2);
    let rs = circuit_success_rate(&ts.circuit, &device, &ts.phys_of, true);
    let rl = circuit_success_rate(&tl.circuit, &device, &tl.phys_of, true);
    assert!(ts.circuit.num_ops() < tl.circuit.num_ops());
    assert!(rs > rl, "small-circuit rate {rs} vs large {rl}");
}

/// VQE "hardware measurement" path: QWC-grouped noisy estimation of <H>
/// converges to the exact expectation as noise vanishes.
#[test]
fn grouped_vqe_measurement_matches_exact_in_noiseless_limit() {
    use quantumnas::{Estimator, EstimatorKind, Task};
    let mol = qns_chem::Molecule::h2();
    let task = Task::vqe(&mol);
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 2, 1);
    let circuit = sc.build(&sc.max_config(), None);
    let params: Vec<f64> = (0..circuit.num_train_params())
        .map(|i| 0.3 * (i as f64 + 1.0).sin())
        .collect();
    let exact = {
        let s = run(&circuit, &params, &[], ExecMode::Static);
        mol.hamiltonian().expectation(&s)
    };
    let device = Device::santiago().scaled_errors(1e-9);
    let est = Estimator::new(device, EstimatorKind::Noiseless, 2);
    let measured = est.vqe_energy_measured(
        &circuit,
        &params,
        mol.hamiltonian(),
        &Layout::trivial(2),
        TrajectoryConfig {
            trajectories: 4,
            seed: 0,
            readout: false,
        },
    );
    assert!(
        (measured - exact).abs() < 0.02,
        "grouped measurement {measured} vs exact {exact}"
    );
    let _ = task;
}

/// A random angle slot of any `Param` variant, with trainable indices
/// drawn from a small pool so gates share them and merge symbolically.
fn random_param(rng: &mut StdRng) -> Param {
    let scales = [1.0, -1.0, 0.5, -0.5, 2.0];
    let offsets = [0.0, 0.7, -std::f64::consts::FRAC_PI_2];
    let index = rng.gen_range(0..2);
    let scale = scales[rng.gen_range(0..scales.len())];
    let offset = offsets[rng.gen_range(0..offsets.len())];
    match rng.gen_range(0..6) {
        0 => Param::Fixed(rng.gen_range(-3.5..3.5)),
        1 => Param::Fixed([0.0, std::f64::consts::PI][index]),
        2 => Param::Train(index),
        3 => Param::Input(index),
        4 => Param::AffineTrain {
            index,
            scale,
            offset,
        },
        _ => Param::AffineInput {
            index,
            scale,
            offset,
        },
    }
}

/// A random circuit over every gate kind and every `Param` variant.
fn random_circuit(n: usize, len: usize, rng: &mut StdRng) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..len {
        let kind = GateKind::all()[rng.gen_range(0..GateKind::all().len())];
        let a = rng.gen_range(0..n);
        let b = (a + rng.gen_range(1..n)) % n;
        let params: Vec<Param> = (0..kind.num_params()).map(|_| random_param(rng)).collect();
        c.push(kind, &[a, b][..kind.num_qubits()], &params);
    }
    c
}

/// Every compiled output of a seeded corpus, at opt levels 0–3, is pinned
/// by one digest: the circuit, the dense-to-physical map, the logical
/// read-out map and the swap count. The corpus is every design space's
/// maximal and two sampled SubCircuits and LiH's ansatz with each QWC
/// group's basis rotation, on every device model, plus random circuits
/// over every gate kind and parameter variant; all under random layouts.
/// A transpiler rewrite that claims bit identity must leave it unedited.
#[test]
fn compiled_outputs_are_pinned() {
    let mut rng = StdRng::seed_from_u64(2107);
    let mut corpus: Vec<Circuit> = Vec::new();
    for &space in SpaceKind::all() {
        let sc = SuperCircuit::new(DesignSpace::new(space), 4, 2);
        corpus.push(sc.build(&sc.max_config(), None));
        let mut sampler = Sampler::new(
            &sc,
            SamplerConfig {
                seed: 11,
                ..Default::default()
            },
        );
        for _ in 0..2 {
            corpus.push(sc.build(&sampler.next_config(), None));
        }
    }
    let lih = qns_chem::Molecule::lih();
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), lih.num_qubits(), 2);
    let ansatz = sc.build(&sc.max_config(), None);
    for group in qns_chem::qwc_groups(lih.hamiltonian()).1 {
        let mut logical = ansatz.clone();
        logical.extend_from(&group.rotation_circuit());
        corpus.push(logical);
    }
    for _ in 0..96 {
        let n = rng.gen_range(2..=5);
        let len = rng.gen_range(8..=24);
        corpus.push(random_circuit(n, len, &mut rng));
    }

    let mut h = StructuralHasher::new();
    let mut compiled = 0;
    for device in Device::all() {
        for circuit in corpus
            .iter()
            .filter(|c| c.num_qubits() <= device.num_qubits())
        {
            let layout = Layout::random(circuit.num_qubits(), &device, &mut rng);
            for level in 0..=3 {
                let t = transpile(circuit, &device, &layout, level);
                quantumnas::hash_circuit(&mut h, &t.circuit);
                for map in [&t.phys_of, &t.dense_of_logical] {
                    h.write_usize(map.len());
                    for &q in map.iter() {
                        h.write_usize(q);
                    }
                }
                h.write_usize(t.swaps_inserted);
                compiled += 1;
            }
        }
    }
    let digest = h.finish();
    assert_eq!(
        (compiled, digest.lo, digest.hi),
        (5752, 15000483090452761903, 5071907585496174147)
    );
}
