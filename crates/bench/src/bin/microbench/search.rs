//! `search` — search-stage costs: estimator queries and evolution
//! iterations, the measured side of Table I's cost model. The
//! `noisy_samples` drill-down times noisy scoring's inner call: one
//! belem-compiled candidate's 24 samples × 6 trajectories as one batched
//! `expect_z_batch` call against one `expect_z` per sample, both on one
//! worker, after checking that the two agree bit for bit.

use crate::{time_median, Floor, Json, Mode};
use qns_noise::{Device, TrajectoryConfig, TrajectoryExecutor};
use qns_transpile::{transpile, Layout};
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
