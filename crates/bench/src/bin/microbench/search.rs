//! `search` — search-stage costs: estimator queries and evolution
//! iterations, the measured side of Table I's cost model.

use crate::{time_median, Floor, Json, Mode};
use qns_noise::{Device, TrajectoryConfig};
use qns_transpile::Layout;
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
    let circuit = qns_bench::build(&sc, &sc.max_config(), &task);
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
