//! Trajectory-sampling battery: the pool-routed parallel trajectory
//! path must be (a) statistically faithful to the exact density-matrix
//! channel expectation and (b) bit-identical to the sequential path for
//! a fixed candidate, at every worker count.

mod common;

use qns_circuit::{Circuit, GateKind, Param};
use qns_noise::{density_expect_z, Device, TrajectoryConfig, TrajectoryExecutor};
use qns_sim::SimBackend;

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
