//! The four reference pipelines: their configurations and the per-run
//! input synthesis (task, device, SuperCircuit) that `setup_s` times.

use qns_chem::Molecule;
use qns_noise::{Device, TrajectoryConfig};
use quantumnas::{
    CheckpointOptions, DesignSpace, EstimatorKind, EvoConfig, Objective, ProxyOptions, PruneConfig,
    QuantumNasConfig, RuntimeOptions, SpaceKind, SuperCircuit, SuperTrainConfig, Task, TrainConfig,
};
use std::path::Path;

/// Every workload name, in the order BENCHMARK.json lists them.
pub const NAMES: [&str; 4] = [
    "mnist4-noisy",
    "mnist4-proxy-ckpt",
    "lih-pareto",
    "mnist4-10q-1w",
];

/// One reference pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// MNIST-4 on belem, noisy trajectory scoring: the paper's headline flow.
    Mnist4Noisy,
    /// The same model with a larger population, proxy prescreening and
    /// a snapshot at every loop boundary.
    Mnist4ProxyCkpt,
    /// LiH VQE on jakarta under NSGA-II co-search of loss, depth and 2Q count.
    LihPareto,
    /// 10-qubit MNIST-4 routed onto 65-qubit manhattan, success-rate
    /// scoring, architecture search only, one worker.
    Mnist4TenQubitOneWorker,
}

/// The inputs one run consumes, synthesized from the run's seed.
pub struct Inputs {
    /// The task (dataset or Hamiltonian).
    pub task: Task,
    /// The target device.
    pub device: Device,
    /// The SuperCircuit the pipeline searches within.
    pub supercircuit: SuperCircuit,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "mnist4-noisy" => Workload::Mnist4Noisy,
            "mnist4-proxy-ckpt" => Workload::Mnist4ProxyCkpt,
            "lih-pareto" => Workload::LihPareto,
            "mnist4-10q-1w" => Workload::Mnist4TenQubitOneWorker,
            _ => return None,
        })
    }

    /// The name the CLI and BENCHMARK.json use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mnist4Noisy => NAMES[0],
            Workload::Mnist4ProxyCkpt => NAMES[1],
            Workload::LihPareto => NAMES[2],
            Workload::Mnist4TenQubitOneWorker => NAMES[3],
        }
    }

    /// Candidate-evaluation workers (and simulator fan-out) for every run.
    pub fn workers(self) -> usize {
        match self {
            Workload::Mnist4TenQubitOneWorker => 1,
            _ => 2,
        }
    }

    /// Whether runs write snapshots (and so need a scratch directory).
    pub fn checkpoints(self) -> bool {
        self == Workload::Mnist4ProxyCkpt
    }

    /// SuperCircuit block count.
    pub fn blocks(self) -> usize {
        match self {
            Workload::Mnist4Noisy | Workload::Mnist4ProxyCkpt => 3,
            Workload::LihPareto | Workload::Mnist4TenQubitOneWorker => 2,
        }
    }

    /// Synthesizes one run's inputs. QML datasets are drawn from `seed`;
    /// the molecule and the devices are fixed.
    pub fn inputs(self, seed: u64) -> Inputs {
        let (task, device) = match self {
            Workload::Mnist4Noisy | Workload::Mnist4ProxyCkpt => (
                Task::qml_digits(&[0, 1, 2, 3], 120, 4, seed),
                Device::belem(),
            ),
            Workload::LihPareto => (Task::vqe(&Molecule::lih()), Device::jakarta()),
            Workload::Mnist4TenQubitOneWorker => (
                Task::qml_digits(&[0, 1, 2, 3], 40, 6, seed),
                Device::manhattan(),
            ),
        };
        let supercircuit = SuperCircuit::new(
            DesignSpace::new(SpaceKind::U3Cu3),
            task.num_qubits(),
            self.blocks(),
        );
        Inputs {
            task,
            device,
            supercircuit,
        }
    }

    /// The pipeline configuration. `checkpoint_dir` is where snapshots go
    /// for the checkpointing workload; the others ignore it.
    pub fn config(self, checkpoint_dir: Option<&Path>) -> QuantumNasConfig {
        let base = QuantumNasConfig::fast();
        let noisy = EstimatorKind::NoisySim(TrajectoryConfig {
            trajectories: 6,
            seed: 7,
            readout: true,
        });
        let runtime = RuntimeOptions {
            workers: self.workers(),
            cache: true,
            checkpoint: checkpoint_dir
                .filter(|_| self.checkpoints())
                .map(|dir| CheckpointOptions::new(dir).every(1)),
            ..RuntimeOptions::default()
        };
        let mnist4 = QuantumNasConfig {
            blocks: Some(self.blocks()),
            super_train: SuperTrainConfig {
                steps: 150,
                batch_size: 8,
                warmup_steps: 15,
                ..SuperTrainConfig::default()
            },
            evo: EvoConfig {
                iterations: 8,
                population: 12,
                ..EvoConfig::fast(0)
            },
            estimator: noisy,
            train: TrainConfig {
                epochs: 15,
                batch_size: 16,
                ..TrainConfig::default()
            },
            prune: Some(PruneConfig {
                final_ratio: 0.3,
                steps: 2,
                finetune_epochs: 2,
                ..PruneConfig::default()
            }),
            measure: TrajectoryConfig {
                trajectories: 8,
                seed: 0,
                readout: true,
            },
            n_test: 60,
            runtime: runtime.clone(),
            ..base.clone()
        };
        match self {
            Workload::Mnist4Noisy => mnist4,
            Workload::Mnist4ProxyCkpt => QuantumNasConfig {
                evo: EvoConfig {
                    iterations: 6,
                    population: 24,
                    parents: 4,
                    mutations: 13,
                    crossovers: 7,
                    proxy: ProxyOptions {
                        enabled: true,
                        keep: 0.25,
                        warmup: 2,
                    },
                    ..mnist4.evo.clone()
                },
                ..mnist4
            },
            Workload::LihPareto => QuantumNasConfig {
                blocks: Some(self.blocks()),
                evo: EvoConfig {
                    iterations: 5,
                    population: 10,
                    parents: 3,
                    mutations: 4,
                    crossovers: 3,
                    ..EvoConfig::fast(0)
                },
                estimator: noisy,
                train: TrainConfig {
                    epochs: 100,
                    lr: 0.05,
                    ..TrainConfig::default()
                },
                prune: None,
                measure: TrajectoryConfig {
                    trajectories: 16,
                    seed: 0,
                    readout: true,
                },
                objectives: Some(vec![Objective::Loss, Objective::Depth, Objective::TwoQ]),
                runtime,
                ..base
            },
            Workload::Mnist4TenQubitOneWorker => QuantumNasConfig {
                blocks: Some(self.blocks()),
                super_train: SuperTrainConfig {
                    steps: 20,
                    batch_size: 8,
                    warmup_steps: 4,
                    ..SuperTrainConfig::default()
                },
                evo: EvoConfig {
                    iterations: 6,
                    population: 10,
                    parents: 3,
                    mutations: 4,
                    crossovers: 3,
                    // The layout stays trivial. Searched layouts on the
                    // 65-qubit map route through a seed-dependent number
                    // of ancillas, each doubling the deployed circuit's
                    // dense simulation, which made run time vary 10x
                    // between seeds.
                    search_layout: false,
                    ..EvoConfig::fast(0)
                },
                estimator: EstimatorKind::SuccessRate,
                train: TrainConfig {
                    epochs: 2,
                    batch_size: 16,
                    ..TrainConfig::default()
                },
                prune: None,
                measure: TrajectoryConfig {
                    trajectories: 1,
                    seed: 0,
                    readout: true,
                },
                n_test: 24,
                runtime,
                ..base
            },
        }
    }
}
