//! Shared infrastructure for the QuantumNAS benchmark harness.
//!
//! The `repro` binary regenerates every table and figure of the paper and
//! builds on the helpers here: a [`Scale`] that maps each experiment onto a
//! laptop budget (or, with `--full`, onto paper-scale settings), task/space
//! constructors, a uniform runner for the paper's baseline methods, and
//! the median timer [`time_median`]. The `microbench` binary times the
//! underlying engines on its own harness (see its module docs) with the
//! same timer.

use qns_circuit::Circuit;
use qns_noise::{Device, TrajectoryConfig};
use qns_transpile::{transpile, Layout};
use quantumnas::{
    evolutionary_search, human_design, iterative_prune, random_design, train_supercircuit,
    train_task, DesignSpace, Estimator, EstimatorKind, EvoConfig, Gene, PruneConfig, SpaceKind,
    SubConfig, SuperCircuit, SuperTrainConfig, Task, TrainConfig,
};
use std::time::Instant;

/// Experiment scale: `quick` (default) finishes each experiment in
/// seconds-to-minutes; `full` approaches the paper's settings.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Paper-scale mode.
    pub full: bool,
    /// Samples per class when generating datasets.
    pub n_per_class: usize,
    /// SuperCircuit training steps.
    pub super_steps: usize,
    /// From-scratch training epochs.
    pub epochs: usize,
    /// Evolution settings.
    pub evo: EvoConfig,
    /// Test samples for measured accuracy.
    pub n_test: usize,
    /// Trajectories for measured evaluation.
    pub trajectories: usize,
    /// SuperCircuit blocks for 4-qubit tasks.
    pub blocks: usize,
}

impl Scale {
    /// Parses `--full` from the argument list.
    pub fn from_args(args: &[String]) -> Scale {
        let full = args.iter().any(|a| a == "--full");
        if full {
            Scale {
                full,
                n_per_class: 400,
                super_steps: 1000,
                epochs: 60,
                evo: EvoConfig {
                    iterations: 40,
                    population: 40,
                    parents: 10,
                    mutations: 20,
                    crossovers: 10,
                    ..EvoConfig::default()
                },
                n_test: 300,
                trajectories: 32,
                blocks: 8,
            }
        } else {
            Scale {
                full,
                n_per_class: 120,
                super_steps: 250,
                epochs: 25,
                evo: EvoConfig {
                    iterations: 12,
                    population: 16,
                    parents: 5,
                    mutations: 7,
                    crossovers: 4,
                    ..EvoConfig::default()
                },
                n_test: 100,
                trajectories: 12,
                blocks: 3,
            }
        }
    }

    /// Trajectory settings for measured evaluation.
    pub fn measure(&self) -> TrajectoryConfig {
        TrajectoryConfig {
            trajectories: self.trajectories,
            seed: 0x5EED,
            readout: true,
        }
    }

    /// From-scratch training settings.
    pub fn train(&self, seed: u64) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: 16,
            lr: 0.02,
            warmup_steps: 0,
            seed,
        }
    }

    /// SuperCircuit training settings.
    pub fn super_train(&self, seed: u64) -> SuperTrainConfig {
        SuperTrainConfig {
            steps: self.super_steps,
            batch_size: 12,
            warmup_steps: self.super_steps / 10,
            seed,
            ..Default::default()
        }
    }
}

/// The five QML benchmark tasks of the paper (Figure 13's x-axis).
pub fn qml_task(name: &str, scale: &Scale, seed: u64) -> Task {
    match name {
        "MNIST-4" => Task::qml_digits(&[0, 1, 2, 3], scale.n_per_class, 4, seed),
        "Fashion-4" => Task::qml_fashion(&[0, 1, 2, 3], scale.n_per_class, 4, seed),
        "Vowel-4" => Task::qml_vowel(seed),
        "MNIST-2" => Task::qml_digits(&[3, 6], scale.n_per_class, 4, seed),
        "Fashion-2" => Task::qml_fashion(&[3, 6], scale.n_per_class, 4, seed),
        "MNIST-10" => Task::qml_digits(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], scale.n_per_class, 6, seed),
        other => panic!("unknown task {other}"),
    }
}

/// The paper's comparison methods.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Noise-unaware search (noise-free estimator).
    NoiseUnaware,
    /// Best of three random designs, trivial mapping.
    Random,
    /// Human design, trivial mapping.
    Human,
    /// Human design + noise-adaptive mapping (Murali et al. baseline).
    HumanNoiseAdaptive,
    /// Human design + SABRE-routed trivial mapping.
    HumanSabre,
    /// Human design at half the parameter budget + SABRE mapping.
    HumanHalfSabre,
    /// QuantumNAS co-search.
    QuantumNas,
    /// QuantumNAS plus iterative pruning.
    QuantumNasPruned,
}

impl Method {
    /// Display label matching the paper's legend.
    pub fn label(&self) -> &'static str {
        match self {
            Method::NoiseUnaware => "noise-unaware search",
            Method::Random => "random (best of 3)",
            Method::Human => "human",
            Method::HumanNoiseAdaptive => "human + NA mapping",
            Method::HumanSabre => "human + sabre",
            Method::HumanHalfSabre => "human 1/2 + sabre",
            Method::QuantumNas => "QuantumNAS",
            Method::QuantumNasPruned => "QuantumNAS + prune",
        }
    }

    /// The full Figure 13 lineup.
    pub fn all() -> &'static [Method] {
        &[
            Method::NoiseUnaware,
            Method::Random,
            Method::Human,
            Method::HumanNoiseAdaptive,
            Method::HumanSabre,
            Method::HumanHalfSabre,
            Method::QuantumNas,
            Method::QuantumNasPruned,
        ]
    }
}

/// The result of evaluating one method on one (task, space, device).
#[derive(Clone, Debug)]
pub struct MethodResult {
    /// Measured (noisy) accuracy — or measured energy for VQE.
    pub measured: f64,
    /// Noise-free accuracy/energy.
    pub ideal: f64,
    /// Compiled depth.
    pub depth: usize,
    /// Compiled `(total, 1q, cnot)` gate counts.
    pub gates: (usize, usize, usize),
    /// Trainable parameters.
    pub n_params: usize,
    /// The circuit (logical) that was deployed.
    pub circuit: Circuit,
    /// Trained parameters.
    pub params: Vec<f64>,
    /// The mapping used.
    pub layout: Layout,
}

/// Artifacts shared across methods on a fixed (task, space, device): the
/// trained SuperCircuit and the QuantumNAS search output.
pub struct Prepared {
    /// The SuperCircuit.
    pub sc: SuperCircuit,
    /// Its trained shared parameters.
    pub shared: Vec<f64>,
    /// The co-search winner.
    pub gene: Gene,
    /// Budget used for parameter-matched baselines.
    pub budget: usize,
}

/// Trains the SuperCircuit and runs the noise-adaptive co-search once; the
/// result seeds every method comparison.
pub fn prepare(
    task: &Task,
    space: SpaceKind,
    device: &Device,
    scale: &Scale,
    seed: u64,
) -> Prepared {
    let sc = SuperCircuit::new(DesignSpace::new(space), task.num_qubits(), scale.blocks);
    let (shared, _) = train_supercircuit(&sc, task, &scale.super_train(seed));
    let estimator = noisy_estimator(device, scale);
    let mut evo = scale.evo.clone();
    evo.seed = seed ^ 0xE5;
    // Seed the population with a mid-size human design so the search
    // explores around a known-capable architecture.
    let human_seed = Gene {
        config: human_design(&sc, sc.num_params() / 2),
        layout: (0..task.num_qubits()).collect(),
    };
    let search =
        quantumnas::evolutionary_search_seeded(&sc, &shared, task, &estimator, &evo, &[human_seed]);
    let circuit = sc.build_for(&search.best.config, task);
    let budget = circuit.referenced_train_indices().len().max(4);
    Prepared {
        sc,
        shared,
        gene: search.best,
        budget,
    }
}

/// The default search estimator: the paper's first method — trajectory
/// simulation with the device noise model. Affordable for the 4-qubit
/// benchmark tasks even in quick mode; the large-machine experiments use
/// [`EstimatorKind::SuccessRate`] explicitly, as the paper does.
pub fn noisy_estimator(device: &Device, scale: &Scale) -> Estimator {
    let kind = EstimatorKind::NoisySim(TrajectoryConfig {
        trajectories: if scale.full { 8 } else { 6 },
        seed: 7,
        readout: true,
    });
    Estimator::new(device.clone(), kind, 2).with_valid_cap(if scale.full { 48 } else { 10 })
}

/// Trains, compiles, and measures one method. `prepared` carries the
/// shared SuperCircuit/search artifacts so baselines are parameter-matched
/// to the searched circuit.
pub fn run_method(
    method: Method,
    task: &Task,
    device: &Device,
    scale: &Scale,
    prepared: &Prepared,
    seed: u64,
) -> MethodResult {
    let sc = &prepared.sc;
    let n_logical = task.num_qubits();
    let trivial = Layout::trivial(n_logical);
    let (config, layout): (SubConfig, Layout) = match method {
        Method::Human | Method::HumanSabre => (human_design(sc, prepared.budget), trivial.clone()),
        Method::HumanNoiseAdaptive => (
            human_design(sc, prepared.budget),
            Layout::noise_adaptive(n_logical, device),
        ),
        Method::HumanHalfSabre => (
            human_design(sc, (prepared.budget / 2).max(2)),
            trivial.clone(),
        ),
        Method::Random => {
            // Best of three by noise-free validation loss, as in the paper.
            let estimator =
                Estimator::new(device.clone(), EstimatorKind::Noiseless, 2).with_valid_cap(16);
            let mut best: Option<(SubConfig, f64)> = None;
            for s in 0..3 {
                let cfg = random_design(sc, prepared.budget, seed ^ s);
                let circuit = sc.build_for(&cfg, task);
                let score = estimator.score(&circuit, &prepared.shared, task, &trivial);
                if best.as_ref().map(|(_, b)| score < *b).unwrap_or(true) {
                    best = Some((cfg, score));
                }
            }
            (best.expect("three candidates").0, trivial.clone())
        }
        Method::NoiseUnaware => {
            let estimator =
                Estimator::new(device.clone(), EstimatorKind::Noiseless, 2).with_valid_cap(16);
            let mut evo = scale.evo.clone();
            evo.seed = seed ^ 0x17;
            let search = evolutionary_search(sc, &prepared.shared, task, &estimator, &evo);
            (search.best.config.clone(), search.best.layout())
        }
        Method::QuantumNas | Method::QuantumNasPruned => {
            (prepared.gene.config.clone(), prepared.gene.layout())
        }
    };

    let circuit = sc.build_for(&config, task);
    let (mut params, _) = train_task(&circuit, task, &scale.train(seed), None);
    let mut final_circuit = circuit.clone();
    if method == Method::QuantumNasPruned {
        let prune_cfg = PruneConfig {
            final_ratio: 0.3,
            steps: if scale.full { 4 } else { 2 },
            finetune_epochs: (scale.epochs / 5).max(2),
            ..Default::default()
        };
        let pruned = iterative_prune(&circuit, &params, task, &prune_cfg);
        final_circuit = pruned.circuit;
        params = pruned.params;
    }

    measure(task, device, scale, &final_circuit, &params, &layout)
}

/// Compiles and evaluates a finished circuit: measured + ideal metric and
/// compiled statistics.
pub fn measure(
    task: &Task,
    device: &Device,
    scale: &Scale,
    circuit: &Circuit,
    params: &[f64],
    layout: &Layout,
) -> MethodResult {
    let estimator = Estimator::new(device.clone(), EstimatorKind::Noiseless, 2);
    let transpiled = transpile(circuit, device, layout, 2);
    let (measured, ideal) = match task {
        Task::Qml { .. } => {
            let measured = estimator.test_accuracy(
                circuit,
                params,
                task,
                layout,
                scale.n_test,
                scale.measure(),
            );
            let ideal = estimator.ideal_accuracy(circuit, params, task, scale.n_test);
            (measured, ideal)
        }
        Task::Vqe { hamiltonian, .. } => {
            let measured = estimator.vqe_energy_measured(
                circuit,
                params,
                hamiltonian,
                layout,
                scale.measure(),
            );
            let ideal = quantumnas::eval_task(circuit, params, task, quantumnas::Split::Valid).0;
            (measured, ideal)
        }
    };
    MethodResult {
        measured,
        ideal,
        depth: transpiled.depth(),
        gates: transpiled.gate_counts(),
        n_params: circuit.referenced_train_indices().len(),
        circuit: circuit.clone(),
        params: params.to_vec(),
        layout: layout.clone(),
    }
}

/// Median wall-clock seconds of `reps` calls to `f`.
pub fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Prints a header banner for one experiment.
pub fn banner(id: &str, what: &str) {
    println!("\n==================================================================");
    println!("{id}: {what}");
    println!("==================================================================");
}

pub mod experiments;
