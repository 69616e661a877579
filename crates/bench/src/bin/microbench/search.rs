//! `search` — search-stage costs: estimator queries and evolution
//! iterations, the measured side of Table I's cost model. The
//! `noisy_samples` drill-down times noisy scoring's inner call: one
//! belem-compiled candidate's 24 samples × 6 trajectories as one batched
//! `expect_z_batch` call against one `expect_z` per sample, both on one
//! worker, after checking that the two agree bit for bit. The
//! `noisy_groups` drill-down does the same for VQE scoring: one 2-block
//! LiH candidate's 14 jakarta-compiled measurement groups × 6 trajectories
//! as one packed `expect_z_masks_packed` call against one `expect_z_masks`
//! per group. The `channel_step` drill-down times one step of the
//! channels a noisy gate is followed by (depolarizing, then thermal
//! relaxation) through `KrausChannel::apply_trajectory_all_lanes` at 4
//! and 7 qubits × 16, 6 and 3 lanes, and a depolarizing-0.1 series whose
//! steps mostly have an erring lane, each after checking it against each
//! lane's standalone `StateVec` trajectory bit for bit.

use crate::{time_median, Floor, Json, Mode};
use qns_chem::{qwc_groups, Molecule};
use qns_noise::{Device, KrausChannel, MaskedCircuit, TrajectoryConfig, TrajectoryExecutor};
use qns_sim::{StateBatch, StateVec};
use qns_tensor::{Mat2, C64};
use qns_transpile::{transpile, Layout, Transpiled};
use quantumnas::{
    evolutionary_search, train_supercircuit, DesignSpace, Estimator, EstimatorKind, EvoConfig,
    SpaceKind, SuperCircuit, SuperTrainConfig, Task,
};

pub fn measure(Mode { reps, .. }: Mode, json: &mut Json) -> Vec<Floor> {
    let task = Task::qml_digits(&[3, 6], 40, 4, 5);
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 2);
    let (shared, _) = train_supercircuit(
        &sc,
        &task,
        &SuperTrainConfig {
            steps: 30,
            batch_size: 8,
            warmup_steps: 3,
            ..Default::default()
        },
    );
    let device = Device::yorktown();
    let circuit = sc.build_for(&sc.max_config(), &task);
    let layout = Layout::trivial(4);

    // One estimator query per backend kind (the inner loop of the search).
    json.obj("estimator_query", |j| {
        for (name, kind) in [
            ("noiseless", EstimatorKind::Noiseless),
            ("success_rate", EstimatorKind::SuccessRate),
            (
                "noisy_sim",
                EstimatorKind::NoisySim(TrajectoryConfig {
                    trajectories: 8,
                    seed: 1,
                    readout: true,
                }),
            ),
        ] {
            let est = Estimator::new(device.clone(), kind, 2).with_valid_cap(8);
            let secs = time_median(reps, || est.score(&circuit, &shared, &task, &layout));
            j.num(&format!("{name}_s"), secs);
        }
    });

    let belem = Device::belem();
    let t = transpile(&circuit, &belem, &layout, 2);
    let inputs: Vec<&[f64]> = match &task {
        Task::Qml { splits, .. } => splits.train.features[..24].iter().map(Vec::as_slice),
        Task::Vqe { .. } => unreachable!(),
    }
    .collect();
    let exec = TrajectoryExecutor::new(
        belem,
        TrajectoryConfig {
            trajectories: 6,
            seed: 1,
            readout: true,
        },
    )
    .with_workers(1);
    let batched = || exec.expect_z_batch(&t.circuit, &shared, &inputs, &t.phys_of);
    let per_sample = || -> Vec<_> {
        inputs
            .iter()
            .map(|input| exec.expect_z(&t.circuit, &shared, input, &t.phys_of))
            .collect()
    };
    let bits = |results: Vec<qns_noise::NoisyResult>| -> Vec<u64> {
        results
            .iter()
            .flat_map(|r| r.expect_z.iter().map(|e| e.to_bits()))
            .collect()
    };
    assert_eq!(
        bits(batched()),
        bits(per_sample()),
        "batched noisy scoring diverged from per-sample expect_z"
    );
    let batched_s = time_median(reps, batched);
    let per_sample_s = time_median(reps, per_sample);
    json.obj("noisy_samples", |j| {
        j.int("samples", inputs.len());
        j.int("trajectories", 6);
        j.num("batched_s", batched_s);
        j.num("per_sample_s", per_sample_s);
        j.num("speedup", per_sample_s / batched_s.max(1e-12));
    });

    noisy_groups(reps, json);
    channel_step(reps, json);

    // A full (small) evolutionary search.
    let est = Estimator::new(device, EstimatorKind::SuccessRate, 2).with_valid_cap(8);
    let cfg = EvoConfig {
        iterations: 4,
        population: 8,
        parents: 3,
        mutations: 3,
        crossovers: 2,
        ..EvoConfig::fast(1)
    };
    let secs = time_median(reps, || {
        evolutionary_search(&sc, &shared, &task, &est, &cfg)
    });
    json.obj("evolution_4x8", |j| j.num("search_s", secs));
    Vec::new()
}

/// The `noisy_groups` drill-down: a 2-block LiH candidate on jakarta,
/// each measurement group compiled with its basis rotation, scored at 6
/// trajectories on one worker as one packed call and as one call per
/// group.
fn noisy_groups(reps: usize, json: &mut Json) {
    let task = Task::vqe(&Molecule::lih());
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 6, 2);
    let circuit = sc.build_for(&sc.max_config(), &task);
    let params: Vec<f64> = (0..circuit.num_train_params())
        .map(|i| 0.1 * (i % 11) as f64 - 0.5)
        .collect();
    let jakarta = Device::jakarta();
    let layout = Layout::from_vec(vec![1, 3, 5, 4, 6, 0]);
    let (_, groups) = qwc_groups(Molecule::lih().hamiltonian());
    let compiled: Vec<(Transpiled, Vec<u64>)> = groups
        .iter()
        .map(|group| {
            let mut logical = circuit.clone();
            logical.extend_from(&group.rotation_circuit());
            let t = transpile(&logical, &jakarta, &layout, 2);
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
        .collect();
    let packed: Vec<MaskedCircuit<'_>> = compiled
        .iter()
        .map(|(t, masks)| MaskedCircuit {
            circuit: &t.circuit,
            phys_of: &t.phys_of,
            masks,
        })
        .collect();
    let exec = TrajectoryExecutor::new(
        jakarta,
        TrajectoryConfig {
            trajectories: 6,
            seed: 1,
            readout: true,
        },
    )
    .with_workers(1);
    let packed_call = || exec.expect_z_masks_packed(&packed, &params, &[]);
    let per_group = || -> Vec<Vec<f64>> {
        packed
            .iter()
            .map(|c| exec.expect_z_masks(c.circuit, &params, &[], c.phys_of, c.masks))
            .collect()
    };
    let bits = |results: Vec<Vec<f64>>| -> Vec<u64> {
        results.iter().flatten().map(|e| e.to_bits()).collect()
    };
    assert_eq!(
        bits(packed_call()),
        bits(per_group()),
        "packed group scoring diverged from per-group expect_z_masks"
    );
    let packed_s = time_median(reps, packed_call);
    let per_group_s = time_median(reps, per_group);
    json.obj("noisy_groups", |j| {
        j.int("groups", packed.len());
        j.int("trajectories", 6);
        j.num("packed_s", packed_s);
        j.num("per_group_s", per_group_s);
        j.num("speedup", per_group_s / packed_s.max(1e-12));
    });
}

/// The `channel_step` drill-down: per-step time of
/// `apply_trajectory_all_lanes`, applied to every qubit in turn on a state
/// spread over every amplitude, for two series. `q{n}_l{lanes}_step_us`
/// runs the two channels that follow a 1q gate (depolarizing at 3e-4,
/// then thermal relaxation with T1 90 µs and T2 70 µs over 35.5 ns): most
/// steps keep the leading operator on every lane.
/// `dep01_q{n}_l{lanes}_step_us` runs depolarizing at 0.1, where a lane
/// errs with probability 0.075, so 1 − 0.925¹⁶ ≈ 71% of 16-lane steps
/// have a lane that takes the per-lane reference step.
fn channel_step(reps: usize, json: &mut Json) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    const ROUNDS: usize = 50;
    let series = [
        (
            "",
            vec![
                KrausChannel::depolarizing(3e-4),
                KrausChannel::thermal_relaxation(90_000.0, 70_000.0, 35.5),
            ],
        ),
        ("dep01_", vec![KrausChannel::depolarizing(0.1)]),
    ];
    let rngs = |lanes: usize| -> Vec<StdRng> {
        (0..lanes)
            .map(|l| StdRng::seed_from_u64(7 + l as u64))
            .collect()
    };
    let bits = |s: &StateVec| -> Vec<(u64, u64)> {
        s.amplitudes()
            .iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect()
    };
    json.obj("channel_step", |j| {
        for (prefix, channels) in &series {
            for n in [4, 7] {
                for lanes in [16, 6, 3] {
                    let mut batch = StateBatch::zero_state(n, lanes);
                    for q in 0..n {
                        let phase = 0.3 + 0.2 * q as f64;
                        let (c, s) = (phase.cos(), phase.sin());
                        batch.apply_1q(&Mat2::hadamard(), q);
                        batch.apply_1q(
                            &Mat2::new([C64::ONE, C64::ZERO, C64::ZERO, C64::new(c, s)]),
                            q,
                        );
                    }
                    let all_lanes = |batch: &mut StateBatch, rngs: &mut [StdRng]| {
                        for _ in 0..ROUNDS {
                            for q in 0..n {
                                for ch in channels {
                                    ch.apply_trajectory_all_lanes(batch, q, rngs);
                                }
                            }
                        }
                    };
                    let mut checked = batch.clone();
                    all_lanes(&mut checked, &mut rngs(lanes));
                    for (lane, mut rng) in rngs(lanes).into_iter().enumerate() {
                        let mut single = batch.lane_state(lane);
                        for _ in 0..ROUNDS {
                            for q in 0..n {
                                for ch in channels {
                                    ch.apply_trajectory(&mut single, q, &mut rng);
                                }
                            }
                        }
                        assert_eq!(
                            bits(&checked.lane_state(lane)),
                            bits(&single),
                            "all-lanes channel step diverged from the per-lane path"
                        );
                    }
                    let mut rngs = rngs(lanes);
                    let secs = time_median(reps, || all_lanes(&mut batch, &mut rngs));
                    let steps = ROUNDS * n * channels.len();
                    let us = 1e6 * secs / steps as f64;
                    j.num(&format!("{prefix}q{n}_l{lanes}_step_us"), us);
                }
            }
        }
    });
}
