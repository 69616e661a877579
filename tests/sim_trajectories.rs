//! Trajectory-sampling battery: the pool-routed parallel trajectory
//! path must be (a) statistically faithful to the exact density-matrix
//! channel expectation and (b) bit-identical to the sequential path for
//! a fixed candidate, at every worker count.

mod common;

use qns_chem::{qwc_groups, Molecule};
use qns_circuit::{Circuit, GateKind, Param};
use qns_noise::{
    density_expect_masks, density_expect_z, Device, MaskedCircuit, TrajectoryConfig,
    TrajectoryExecutor,
};
use qns_runtime::DigestCache;
use qns_sim::{MpsConfig, SimBackend};
use qns_transpile::{transpile, Layout, Transpiled};
use quantumnas::{DesignSpace, Estimator, EstimatorKind, SpaceKind, SubConfig, SuperCircuit, Task};
use std::sync::Arc;

fn noisy_circuit() -> Circuit {
    let mut c = Circuit::new(3);
    c.push(GateKind::H, &[0], &[]);
    c.push(GateKind::CX, &[0, 1], &[]);
    c.push(GateKind::RY, &[1], &[Param::Fixed(0.8)]);
    c.push(GateKind::CX, &[1, 2], &[]);
    c.push(GateKind::RX, &[2], &[Param::Fixed(0.5)]);
    c.push(GateKind::RZZ, &[0, 2], &[Param::Fixed(0.3)]);
    c
}

/// Mean of K seeded trajectories converges to the exact channel
/// expectation computed by the density-matrix simulator.
#[test]
fn trajectory_mean_converges_to_density_expectation() {
    let c = noisy_circuit();
    let phys = [0usize, 1, 2];
    // Loud noise so the channel effect dominates the statistical error.
    let device = Device::yorktown().scaled_errors(4.0);
    let exact = density_expect_z(&c, &[], &[], &device, &phys, false);
    let exec = TrajectoryExecutor::new(
        device,
        TrajectoryConfig {
            trajectories: 4000,
            seed: 23,
            readout: false,
        },
    )
    .with_workers(4);
    let sampled = exec.expect_z(&c, &[], &[], &phys);
    for (q, (a, b)) in exact.iter().zip(sampled.expect_z.iter()).enumerate() {
        assert!(
            (a - b).abs() < 0.03,
            "qubit {q}: density {a} vs trajectory mean {b}"
        );
    }
}

/// For a fixed seed the parallel trajectory path returns exactly the
/// sequential result — expectations, parity masks, and sampled counts.
#[test]
fn parallel_trajectories_bit_identical_to_sequential() {
    let c = noisy_circuit();
    let phys = [0usize, 1, 2];
    let cfg = TrajectoryConfig {
        trajectories: 33,
        seed: 7,
        readout: true,
    };
    let sequential = TrajectoryExecutor::new(Device::yorktown(), cfg);
    let seq_e = sequential.expect_z(&c, &[], &[], &phys);
    let seq_m = sequential.expect_z_masks(&c, &[], &[], &phys, &[0b101, 0b011]);
    let seq_s = sequential.sample_counts(&c, &[], &[], &phys, 256);
    for workers in [2, 4, 0] {
        let parallel = TrajectoryExecutor::new(Device::yorktown(), cfg).with_workers(workers);
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

/// The backend switch must not change trajectory physics: every backend
/// in the matrix agrees with the reference oracle per-trajectory (same
/// seeds, same Kraus draws), so the averages match to solver precision.
#[test]
fn fast_and_reference_backends_agree_on_trajectories() {
    let c = noisy_circuit();
    let phys = [0usize, 1, 2];
    let cfg = TrajectoryConfig {
        trajectories: 50,
        seed: 13,
        readout: true,
    };
    let oracle = TrajectoryExecutor::new(Device::yorktown(), cfg)
        .with_backend(SimBackend::Reference)
        .expect_z(&c, &[], &[], &phys);
    common::for_each_backend(|backend, label| {
        let got = TrajectoryExecutor::new(Device::yorktown(), cfg)
            .with_backend(backend)
            .expect_z(&c, &[], &[], &phys);
        for (q, (a, b)) in got.expect_z.iter().zip(oracle.expect_z.iter()).enumerate() {
            assert!(
                (a - b).abs() < 1e-10,
                "qubit {q}: {label} {a} vs reference {b}"
            );
        }
    });
}

/// Trajectory seeds derive from the candidate digest: a different
/// parameter vector draws different noise realizations, while the same
/// candidate always sees the same ones.
#[test]
fn seeds_follow_the_candidate() {
    let mut c = Circuit::new(2);
    c.push(GateKind::RY, &[0], &[Param::Train(0)]);
    c.push(GateKind::CX, &[0, 1], &[]);
    let phys = [0usize, 1];
    let cfg = TrajectoryConfig {
        trajectories: 20,
        seed: 3,
        readout: false,
    };
    let exec = TrajectoryExecutor::new(Device::yorktown().scaled_errors(3.0), cfg);
    let a = exec.expect_z(&c, &[0.4], &[], &phys);
    let a_again = exec.expect_z(&c, &[0.4], &[], &phys);
    assert_eq!(a.expect_z, a_again.expect_z, "same candidate, same draws");
}

/// One 4-qubit candidate mixing fixed, trainable and input-encoded 1q and
/// 2q gates, on a loud device, for [`noisy_engine_outputs_are_pinned`].
/// Circuit qubit 0 sits on yorktown's hub (physical 2); the `CX 1,2` pair
/// is uncoupled on the device and draws the worst-edge error.
fn pinned_candidate() -> (Circuit, [f64; 3], [f64; 2], [usize; 4], Device) {
    let mut c = Circuit::new(4);
    c.push(GateKind::H, &[0], &[]);
    c.push(GateKind::RY, &[1], &[Param::Train(0)]);
    c.push(GateKind::CX, &[0, 1], &[]);
    c.push(GateKind::RX, &[2], &[Param::Input(0)]);
    c.push(
        GateKind::CU3,
        &[0, 2],
        &[Param::Train(1), Param::Fixed(0.4), Param::Input(1)],
    );
    c.push(GateKind::RZZ, &[3, 0], &[Param::Train(2)]);
    c.push(GateKind::SX, &[3], &[]);
    c.push(GateKind::CX, &[1, 2], &[]);
    let device = Device::yorktown().scaled_errors(3.0);
    (c, [0.7, -0.3, 1.1], [0.5, 0.9], [2, 0, 1, 3], device)
}

const PINNED_MASKS: [u64; 4] = [0b0011, 0b0101, 0b1111, 0b1000];
const PINNED_SHOTS: usize = 99;

fn to_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `expect_z` then `expect_z_masks` bits, and `sample_counts`, of one
/// trajectory configuration of [`pinned_candidate`].
fn pinned_trajectory_outputs(
    backend: SimBackend,
    workers: usize,
    readout: bool,
) -> (Vec<u64>, Vec<(usize, u32)>) {
    let (c, train, input, phys, device) = pinned_candidate();
    let cfg = TrajectoryConfig {
        trajectories: 33,
        seed: 41,
        readout,
    };
    let exec = TrajectoryExecutor::new(device, cfg)
        .with_backend(backend)
        .with_workers(workers);
    let mut bits = to_bits(&exec.expect_z(&c, &train, &input, &phys).expect_z);
    bits.extend(to_bits(&exec.expect_z_masks(
        &c,
        &train,
        &input,
        &phys,
        &PINNED_MASKS,
    )));
    let counts = exec.sample_counts(&c, &train, &input, &phys, PINNED_SHOTS);
    (bits, counts)
}

/// Bits of `expect_z` then `expect_z_masks`, and `sample_counts`, per
/// trajectory backend and readout setting. Fast and Reference agree
/// bitwise; exact MPS agrees with them to rounding and draws the same
/// counts.
#[allow(clippy::type_complexity)]
#[rustfmt::skip]
const PINNED_TRAJECTORIES: [(&str, bool, [u64; 8], &[(usize, u32)]); 8] = [
    (
        "fast",
        false,
        [
            0x3f911430d499712b, 0xbfa6189931afe257, 0xbf529466a8713269, 0x3f232e19d80e2045,
            0x3fe112a3f665bf31, 0x3fd9da3f6b7fb530, 0x3ed1c048da148500, 0x3f232e19d80e2045,
        ],
        &[
            (0, 18), (1, 4), (3, 2), (4, 2), (5, 1), (6, 3), (7, 13), (8, 15), (9, 3), (10, 1),
            (11, 3), (12, 5), (13, 1), (14, 4), (15, 24),
        ],
    ),
    (
        "fast",
        true,
        [
            0x3fb2ad48a90e425f, 0x3f950c2987a9a496, 0xbf8e0c9e69f98b56, 0x3fc43275c6ca95f2,
            0x3fd2035ec32b2239, 0x3fce3c5adb5d5818, 0x3eb39f556d5a7a2d, 0x3f188bcda15f4b24,
        ],
        &[
            (0, 16), (1, 5), (2, 4), (3, 2), (4, 10), (5, 6), (6, 3), (7, 9), (8, 10), (9, 2),
            (10, 2), (11, 1), (12, 4), (13, 2), (14, 9), (15, 14),
        ],
    ),
    (
        "reference",
        false,
        [
            0x3f911430d499712b, 0xbfa6189931afe257, 0xbf529466a8713269, 0x3f232e19d80e2045,
            0x3fe112a3f665bf31, 0x3fd9da3f6b7fb530, 0x3ed1c048da148500, 0x3f232e19d80e2045,
        ],
        &[
            (0, 18), (1, 4), (3, 2), (4, 2), (5, 1), (6, 3), (7, 13), (8, 15), (9, 3), (10, 1),
            (11, 3), (12, 5), (13, 1), (14, 4), (15, 24),
        ],
    ),
    (
        "reference",
        true,
        [
            0x3fb2ad48a90e425f, 0x3f950c2987a9a496, 0xbf8e0c9e69f98b56, 0x3fc43275c6ca95f2,
            0x3fd2035ec32b2239, 0x3fce3c5adb5d5818, 0x3eb39f556d5a7a2d, 0x3f188bcda15f4b24,
        ],
        &[
            (0, 16), (1, 5), (2, 4), (3, 2), (4, 10), (5, 6), (6, 3), (7, 9), (8, 10), (9, 2),
            (10, 2), (11, 1), (12, 4), (13, 2), (14, 9), (15, 14),
        ],
    ),
    (
        "mps-exact",
        false,
        [
            0x3f911430d4997262, 0xbfa6189931afe198, 0xbf529466a87120be, 0x3f232e19d80e1a2f,
            0x3fe112a3f665bf2d, 0x3fd9da3f6b7fb529, 0x3ed1c048da134700, 0x3f232e19d80e1a2f,
        ],
        &[
            (0, 18), (1, 4), (3, 2), (4, 2), (5, 1), (6, 3), (7, 13), (8, 15), (9, 3), (10, 1),
            (11, 3), (12, 5), (13, 1), (14, 4), (15, 24),
        ],
    ),
    (
        "mps-exact",
        true,
        [
            0x3fb2ad48a90e4296, 0x3f950c2987a9a5b0, 0xbf8e0c9e69f98987, 0x3fc43275c6ca95f1,
            0x3fd2035ec32b2235, 0x3fce3c5adb5d5810, 0x3eb39f556d591aa8, 0x3f188bcda15f435b,
        ],
        &[
            (0, 16), (1, 5), (2, 4), (3, 2), (4, 10), (5, 6), (6, 3), (7, 9), (8, 10), (9, 2),
            (10, 2), (11, 1), (12, 4), (13, 2), (14, 9), (15, 14),
        ],
    ),
    (
        "mps-bond1",
        false,
        [
            0x3fa20ae36aeb9969, 0x3fa697aa6a95a22f, 0x3fb17bc8f82b4ab0, 0x3f232e19d80e1c46,
            0x3f9f1a30dee1b844, 0x3f9b7f68c5782e68, 0x3ed05854fd3788ba, 0x3f232e19d80e1c46,
        ],
        &[
            (0, 7), (1, 6), (2, 7), (3, 6), (4, 2), (5, 7), (6, 5), (7, 3), (8, 8), (9, 7),
            (10, 6), (11, 4), (12, 8), (13, 6), (14, 11), (15, 6),
        ],
    ),
    (
        "mps-bond1",
        true,
        [
            0x3fb61226bf5e4684, 0x3fb5c39c67ec7e04, 0x3fa596ec0f696c0d, 0x3fc43275c6ca95f2,
            0x3f90685e94edf47f, 0x3f9014762f1318d9, 0x3eb2116f86c78e7d, 0x3f188bcda15f4607,
        ],
        &[
            (0, 7), (1, 8), (2, 7), (3, 7), (4, 8), (5, 7), (6, 6), (7, 5), (8, 8), (9, 5),
            (10, 4), (11, 1), (12, 7), (13, 4), (14, 9), (15, 6),
        ],
    ),
];

/// Bits of `density_expect_z` then `density_expect_masks` for readout off
/// and on.
#[rustfmt::skip]
const PINNED_DENSITY: [(bool, [u64; 8]); 2] = [
    (
        false,
        [
            0x3f84b7afc2b2ed10, 0x3f738d08945f8da0, 0xbf8daa298bbf5cb0, 0x3f332d61eee02600,
            0x3fe246f2c292322c, 0x3fdf64068b9cdd57, 0xbed2b7062c740000, 0x3f332d61eee02600,
        ],
    ),
    (
        true,
        [
            0x3fb17a1309b9246c, 0x3faca5c8afcc10d8, 0xbf9a377fdb02037a, 0x3fc4358705a77a9b,
            0x3fd348a8c113bad4, 0x3fd25b41b6d278f1, 0xbeb4b01581cfcbd3, 0x3f288ae244424945,
        ],
    ),
];

/// Pins the exact output bits of every noisy engine on one candidate:
/// trajectory `expect_z`, `expect_z_masks` and `sample_counts` on Fast,
/// Reference, exact MPS and bond-1 MPS, at 33 trajectories (two full
/// 16-lane chunks and a partial third), on 1 and 2 workers, readout off
/// and on; and the exact `density_expect_z` and `density_expect_masks`.
/// It fails if any channel, RNG draw or readout correction moves.
/// Replacing the operand-wise two-qubit depolarizing channel with the
/// 15-Pauli one (ROADMAP item 5) changes these values on purpose and
/// re-pins them.
#[test]
fn noisy_engine_outputs_are_pinned() {
    for (label, readout, bits, counts) in PINNED_TRAJECTORIES {
        let backend = match label {
            "fast" => SimBackend::Fast,
            "reference" => SimBackend::Reference,
            "mps-exact" => SimBackend::Mps(MpsConfig::exact()),
            _ => SimBackend::Mps(MpsConfig::with_max_bond(1)),
        };
        for workers in [1, 2] {
            let (got_bits, got_counts) = pinned_trajectory_outputs(backend, workers, readout);
            let tag = format!("{label}, {workers} workers, readout {readout}");
            assert_eq!(got_bits, bits, "{tag}: expectations moved");
            assert_eq!(got_counts, counts, "{tag}: sampled counts moved");
        }
    }
    let (c, train, input, phys, device) = pinned_candidate();
    for (readout, bits) in PINNED_DENSITY {
        let mut got = to_bits(&density_expect_z(
            &c, &train, &input, &device, &phys, readout,
        ));
        got.extend(to_bits(&density_expect_masks(
            &c,
            &train,
            &input,
            &device,
            &phys,
            &PINNED_MASKS,
            readout,
        )));
        assert_eq!(got, bits, "density, readout {readout}: expectations moved");
    }
}

/// `expect_z_batch` over several inputs equals one `expect_z` per input,
/// bit for bit, on every backend and worker count. 5 inputs × 7
/// trajectories are 35 lanes: on `Fast` they straddle two 16-lane chunk
/// boundaries, inputs 2 and 4 split across chunks, and input 1's zero
/// feature turns its `RX` into the identity, so the first chunk's
/// input-dependent 1q gate is a mixed-class per-lane batch.
#[test]
fn batched_inputs_match_one_expect_z_per_input() {
    let (c, train, _, phys, device) = pinned_candidate();
    let features = [
        [0.5, 0.9],
        [0.0, -0.3],
        [1.7, 0.4],
        [-0.8, 2.2],
        [0.25, 0.6],
    ];
    let inputs: Vec<&[f64]> = features.iter().map(|x| &x[..]).collect();
    let cfg = TrajectoryConfig {
        trajectories: 7,
        seed: 29,
        readout: true,
    };
    common::for_each_backend(|backend, label| {
        for workers in [1, 2] {
            let exec = TrajectoryExecutor::new(device.clone(), cfg)
                .with_backend(backend)
                .with_workers(workers);
            let batched = exec.expect_z_batch(&c, &train, &inputs, &phys);
            assert_eq!(batched.len(), inputs.len(), "{label}: one result per input");
            for (i, (got, input)) in batched.iter().zip(&inputs).enumerate() {
                let single = exec.expect_z(&c, &train, input, &phys);
                assert_eq!(
                    to_bits(&got.expect_z),
                    to_bits(&single.expect_z),
                    "{label}, {workers} workers, input {i}"
                );
            }
        }
    });
}

/// A compiled 4-qubit MNIST-2 candidate on belem with a non-trivial
/// layout, for [`noisy_estimator_outputs_are_pinned`].
fn pinned_qml_candidate() -> (Task, Circuit, Vec<f64>, Layout) {
    let task = Task::qml_digits(&[3, 6], 90, 4, 11);
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 2);
    let circuit = match &task {
        Task::Qml { encoder, .. } => sc.build(&sc.max_config(), Some(encoder)),
        Task::Vqe { .. } => unreachable!(),
    };
    let params: Vec<f64> = (0..circuit.num_train_params())
        .map(|i| 0.3 * ((i % 7) as f64) - 0.8)
        .collect();
    (task, circuit, params, Layout::from_vec(vec![1, 3, 0, 4]))
}

/// Bits of the QML `NoisySim` score (7 validation samples) then of
/// `test_accuracy` (9 test samples), per backend, at 6 trajectories.
const PINNED_ESTIMATOR: [(&str, u64, u64); 3] = [
    ("fast", 0x3fe30eb91da3efc6, 0x3fe1c71c71c71c72),
    ("reference", 0x3fe30eb91da3efc6, 0x3fe1c71c71c71c72),
    ("mps-exact", 0x3fe30eb91da3efc7, 0x3fe1c71c71c71c72),
];

/// Pins the bits of `Estimator::score` (QML, `NoisySim`) and
/// `Estimator::test_accuracy` on one candidate. 7 validation samples × 6
/// trajectories are 42 lanes and 9 test samples × 6 are 54, so on `Fast`
/// both straddle 16-lane chunks and split samples across them.
#[test]
fn noisy_estimator_outputs_are_pinned() {
    let (task, circuit, params, layout) = pinned_qml_candidate();
    let cfg = TrajectoryConfig {
        trajectories: 6,
        seed: 19,
        readout: true,
    };
    for (label, score_bits, accuracy_bits) in PINNED_ESTIMATOR {
        let backend = match label {
            "fast" => SimBackend::Fast,
            "reference" => SimBackend::Reference,
            _ => SimBackend::Mps(MpsConfig::exact()),
        };
        let est = Estimator::new(Device::belem(), EstimatorKind::NoisySim(cfg), 2)
            .with_valid_cap(7)
            .with_backend(backend);
        let score = est.score(&circuit, &params, &task, &layout);
        let accuracy = est.test_accuracy(&circuit, &params, &task, &layout, 9, cfg);
        assert_eq!(score.to_bits(), score_bits, "{label}: score moved");
        assert_eq!(accuracy.to_bits(), accuracy_bits, "{label}: accuracy moved");
    }
}

/// A compiled 1-block LiH candidate on jakarta with a non-trivial layout,
/// for [`noisy_vqe_outputs_are_pinned`].
fn pinned_vqe_candidate() -> (Task, Circuit, Vec<f64>, Layout) {
    let task = Task::vqe(&Molecule::lih());
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 6, 1);
    let config = SubConfig {
        n_blocks: 1,
        widths: vec![vec![5, 3]],
    };
    let circuit = sc.build_for(&config, &task);
    let params: Vec<f64> = (0..circuit.num_train_params())
        .map(|i| 0.37 * ((i % 9) as f64) - 1.1)
        .collect();
    (
        task,
        circuit,
        params,
        Layout::from_vec(vec![3, 5, 1, 0, 6, 4]),
    )
}

/// Bits of the LiH `NoisySim` score per backend, at (trajectories,
/// readout) = (6, on), (16, on), (7, off); then of `vqe_energy_measured`
/// on H₂/belem.
const PINNED_VQE: [(&str, [u64; 3], u64); 3] = [
    (
        "fast",
        [0xbff79313a9b6dabd, 0xbff3edb306942f66, 0xbff5c0b721b93ede],
        0xbff468ad44fef5a3,
    ),
    (
        "reference",
        [0xbff79313a9b6dabd, 0xbff3edb306942f66, 0xbff5c0b721b93ede],
        0xbff468ad44fef5a3,
    ),
    (
        "mps-exact",
        [0xbff79313a9b6dab8, 0xbff3edb306942f61, 0xbff5c0b721b93ed9],
        0xbff468ad44fef584,
    ),
];

/// Pins the bits of `Estimator::score` (VQE, `NoisySim`) on LiH/jakarta,
/// whose 14 measurement groups each compile the ansatz plus their basis
/// rotation, at 6 and 16 trajectories with readout and 7 without; and of
/// `vqe_energy_measured` on H₂/belem at 9 trajectories. One transpile
/// cache serves every backend, so each group compiles once.
#[test]
fn noisy_vqe_outputs_are_pinned() {
    let (task, circuit, params, layout) = pinned_vqe_candidate();
    let cache = Arc::new(DigestCache::new());
    let h2 = Molecule::h2();
    let h2_circuit = {
        let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 2, 2);
        sc.build(&sc.max_config(), None)
    };
    let h2_params: Vec<f64> = (0..h2_circuit.num_train_params())
        .map(|i| 0.21 * i as f64 - 0.5)
        .collect();
    for (label, bits, h2_bits) in PINNED_VQE {
        let backend = match label {
            "fast" => SimBackend::Fast,
            "reference" => SimBackend::Reference,
            _ => SimBackend::Mps(MpsConfig::exact()),
        };
        let got: Vec<u64> = [(6, true), (16, true), (7, false)]
            .into_iter()
            .map(|(trajectories, readout)| {
                let cfg = TrajectoryConfig {
                    trajectories,
                    seed: 31,
                    readout,
                };
                let mut est = Estimator::new(Device::jakarta(), EstimatorKind::NoisySim(cfg), 2)
                    .with_backend(backend);
                est.attach_runtime(Some(cache.clone()), None);
                est.score(&circuit, &params, &task, &layout).to_bits()
            })
            .collect();
        assert_eq!(got, bits, "{label}: LiH score moved");
        let cfg = TrajectoryConfig {
            trajectories: 9,
            seed: 5,
            readout: true,
        };
        let h2_energy = Estimator::new(Device::belem(), EstimatorKind::Noiseless, 2)
            .with_backend(backend)
            .vqe_energy_measured(
                &h2_circuit,
                &h2_params,
                h2.hamiltonian(),
                &Layout::from_vec(vec![4, 2]),
                cfg,
            );
        assert_eq!(h2_energy.to_bits(), h2_bits, "{label}: H2 energy moved");
    }
}

/// Each LiH measurement group of `circuit` compiled with its basis
/// rotation on jakarta under `layout`, with the group's parity masks
/// over the compiled circuit's dense qubits.
fn compiled_groups(circuit: &Circuit, layout: &Layout) -> Vec<(Transpiled, Vec<u64>)> {
    let (_, groups) = qwc_groups(Molecule::lih().hamiltonian());
    groups
        .iter()
        .map(|group| {
            let mut logical = circuit.clone();
            logical.extend_from(&group.rotation_circuit());
            let t = transpile(&logical, &Device::jakarta(), layout, 2);
            let masks = group
                .z_masks()
                .iter()
                .map(|&m| {
                    (0..circuit.num_qubits())
                        .filter(|&l| m & (1 << l) != 0)
                        .fold(0u64, |dense, l| dense | 1 << t.dense_of_logical[l])
                })
                .collect();
            (t, masks)
        })
        .collect()
}

/// `expect_z_masks_packed` equals one `expect_z_masks` per circuit, bit
/// for bit, on every backend and worker count. The circuits are a small
/// LiH candidate's 14 measurement groups with group 9 repeated right after
/// itself (a chunk whose circuits share every op), and between groups 6
/// and 7 one group compiled under another layout, whose mapping differs
/// and so cuts a chunk short. At 1, 5, 6, 7, 16 and 17 trajectories the
/// `Fast` chunks straddle circuit boundaries in every phase, or hold
/// exactly one circuit.
#[test]
fn packed_groups_match_one_expect_z_masks_per_circuit() {
    let (task, _, params, layout) = pinned_vqe_candidate();
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 6, 1);
    let circuit = sc.build_for(
        &SubConfig {
            n_blocks: 1,
            widths: vec![vec![3, 1]],
        },
        &task,
    );
    let mut compiled = compiled_groups(&circuit, &layout);
    let other_layout = compiled_groups(&circuit, &Layout::from_vec(vec![0, 1, 2, 3, 4, 5]));
    assert_ne!(other_layout[3].0.phys_of, compiled[3].0.phys_of);
    compiled.insert(10, compiled[9].clone());
    compiled.insert(7, other_layout[3].clone());
    let packed: Vec<MaskedCircuit<'_>> = compiled
        .iter()
        .map(|(t, masks)| MaskedCircuit {
            circuit: &t.circuit,
            phys_of: &t.phys_of,
            masks,
        })
        .collect();
    common::for_each_backend(|backend, label| {
        for trajectories in [1, 5, 6, 7, 16, 17] {
            let cfg = TrajectoryConfig {
                trajectories,
                seed: 43,
                readout: trajectories % 2 == 1,
            };
            let exec = TrajectoryExecutor::new(Device::jakarta(), cfg).with_backend(backend);
            let per_circuit: Vec<Vec<u64>> = packed
                .iter()
                .map(|c| to_bits(&exec.expect_z_masks(c.circuit, &params, &[], c.phys_of, c.masks)))
                .collect();
            for workers in [1, 2] {
                let got: Vec<Vec<u64>> = exec
                    .clone()
                    .with_workers(workers)
                    .expect_z_masks_packed(&packed, &params, &[])
                    .iter()
                    .map(|v| to_bits(v))
                    .collect();
                assert_eq!(
                    got, per_circuit,
                    "{label}, {trajectories} trajectories, {workers} workers"
                );
            }
        }
    });
}
