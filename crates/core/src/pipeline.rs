//! The end-to-end QuantumNAS pipeline (paper Figure 5).

use crate::pareto::{evolutionary_search_pareto_rt, FrontPoint, Objective};
use crate::runtime::{RuntimeOptions, SearchRuntime};
use crate::train::{eval_task, Split};
use crate::{
    iterative_prune_rt, train_supercircuit_rt, train_task, DesignSpace, Estimator, EstimatorKind,
    EvoConfig, Gene, PruneConfig, SpaceKind, SuperCircuit, SuperTrainConfig, Task, TrainConfig,
};
use qns_noise::{Device, TrajectoryConfig};
use qns_runtime::{counters, FaultPlan};
use qns_sim::SimBackend;
use std::sync::Arc;

/// Knobs for one full QuantumNAS run. The paper-scale settings train for
/// 200 epochs with 40 search iterations; [`QuantumNasConfig::fast`] scales
/// everything down to seconds for tests and demos.
#[derive(Clone, Debug)]
pub struct QuantumNasConfig {
    /// SuperCircuit block count (`None` = the space's default).
    pub blocks: Option<usize>,
    /// SuperCircuit training settings.
    pub super_train: SuperTrainConfig,
    /// Evolutionary co-search settings.
    pub evo: EvoConfig,
    /// Estimator used during search.
    pub estimator: EstimatorKind,
    /// Simulation backend for every scoring path (the CLI's `--backend`):
    /// the dense fast kernels by default, or [`SimBackend::Mps`] to score
    /// on a bond-truncated matrix-product state past the dense memory
    /// wall. The selection is part of the search-context digest, so
    /// checkpoints never resume across backends.
    pub backend: SimBackend,
    /// Transpiler optimization level (the paper uses 2).
    pub opt_level: u8,
    /// From-scratch training settings for the searched SubCircuit.
    pub train: TrainConfig,
    /// Pruning settings (`None` disables stage 4).
    pub prune: Option<PruneConfig>,
    /// Trajectory settings for the final "measured" evaluation.
    pub measure: TrajectoryConfig,
    /// Test samples for the measured accuracy (the paper uses 300).
    pub n_test: usize,
    /// Evaluation-runtime knobs shared by every stage (worker count,
    /// transpile cache + score memo, checkpointing). Overrides
    /// `evo.runtime`.
    pub runtime: RuntimeOptions,
    /// Deterministic fault-injection schedule shared by every stage
    /// (`None` = no injected faults; used by the robustness test harness
    /// and the CLI's `--fault-*` flags).
    pub faults: Option<Arc<FaultPlan>>,
    /// Multi-objective search axes (the CLI's `--objectives`). `None`
    /// searches the noisy loss alone (the scalar search); `Some` runs
    /// NSGA-II Pareto co-search over the list — the pipeline then trains
    /// the front point best on the primary objective and [`Report::front`]
    /// carries the whole archive for device matching.
    pub objectives: Option<Vec<Objective>>,
}

impl QuantumNasConfig {
    /// A configuration that finishes in seconds on a laptop while still
    /// exercising every stage.
    pub fn fast() -> Self {
        QuantumNasConfig {
            blocks: Some(2),
            super_train: SuperTrainConfig {
                steps: 150,
                batch_size: 8,
                warmup_steps: 15,
                ..Default::default()
            },
            evo: EvoConfig::fast(0),
            estimator: EstimatorKind::NoisySim(TrajectoryConfig {
                trajectories: 6,
                seed: 7,
                readout: true,
            }),
            backend: SimBackend::Fast,
            opt_level: 2,
            train: TrainConfig {
                epochs: 25,
                batch_size: 16,
                ..Default::default()
            },
            prune: Some(PruneConfig {
                final_ratio: 0.3,
                steps: 2,
                finetune_epochs: 4,
                ..Default::default()
            }),
            measure: TrajectoryConfig {
                trajectories: 8,
                seed: 0,
                readout: true,
            },
            n_test: 50,
            runtime: RuntimeOptions::default(),
            faults: None,
            objectives: None,
        }
    }

    /// Paper-scale settings (hours of compute; used by the full benchmark
    /// harness with `--full`).
    pub fn paper() -> Self {
        QuantumNasConfig {
            blocks: None,
            super_train: SuperTrainConfig {
                steps: 2000,
                batch_size: 64,
                warmup_steps: 200,
                ..Default::default()
            },
            evo: EvoConfig::default(),
            estimator: EstimatorKind::NoisySim(TrajectoryConfig::default()),
            backend: SimBackend::Fast,
            opt_level: 2,
            train: TrainConfig {
                epochs: 60,
                batch_size: 64,
                ..Default::default()
            },
            prune: Some(PruneConfig::default()),
            measure: TrajectoryConfig::default(),
            n_test: 300,
            runtime: RuntimeOptions::default(),
            faults: None,
            objectives: None,
        }
    }
}

/// The outcome of a full QuantumNAS run.
#[derive(Clone, Debug)]
pub struct Report {
    /// The searched gene (architecture + mapping).
    pub gene: Gene,
    /// The search's best estimator score.
    pub search_score: f64,
    /// Noise-free validation loss of the trained SubCircuit.
    pub trained_loss: f64,
    /// Measured (noisy) accuracy before pruning — QML only, else `NaN`.
    pub accuracy_before_prune: f64,
    /// Final measured accuracy (after pruning when enabled) — QML; for
    /// VQE this is `NaN` and [`Report::final_energy`] applies.
    pub final_accuracy: f64,
    /// Final measured energy (VQE) — `NaN` for QML.
    pub final_energy: f64,
    /// Fraction of parameters pruned (0 when pruning is disabled).
    pub pruned_ratio: f64,
    /// Trainable parameters in the searched circuit.
    pub n_params: usize,
    /// The deployed logical circuit (pruned slots frozen to zero).
    pub final_circuit: qns_circuit::Circuit,
    /// The deployed trained parameters.
    pub final_params: Vec<f64>,
    /// Genes actually evaluated during the search stage.
    pub search_evaluations: usize,
    /// Search candidates answered from the score memo.
    pub search_memo_hits: usize,
    /// Candidates proxy-scored by the search-stage prescreener (zero when
    /// `--proxy` is off).
    pub search_proxy_evals: u64,
    /// Candidates the prescreener escalated to full scoring (zero when
    /// `--proxy` is off).
    pub search_proxy_escalations: u64,
    /// Structurally-duplicate offspring skipped by the prescreener before
    /// any scoring (zero when `--proxy` is off).
    pub search_proxy_dedup_hits: u64,
    /// The searched Pareto front: the search's final non-dominated archive
    /// under `QuantumNasConfig::objectives`. With the single objective
    /// `loss` it holds the genes tied at the best loss.
    pub front: Vec<FrontPoint>,
    /// Text telemetry summary for the whole run (counters, cache hit
    /// rates, transpile/simulate wall time, per-generation tail).
    pub runtime_summary: String,
}

/// The end-to-end QuantumNAS flow: SuperCircuit training → evolutionary
/// co-search → from-scratch training → iterative pruning → measured
/// deployment.
///
/// # Examples
///
/// See the crate-level example and `examples/quickstart.rs`.
#[derive(Clone, Debug)]
pub struct QuantumNas {
    space: SpaceKind,
    device: Device,
    task: Task,
    config: QuantumNasConfig,
}

impl QuantumNas {
    /// Assembles a run for a design space, target device, and task.
    pub fn new(space: SpaceKind, device: Device, task: Task, config: QuantumNasConfig) -> Self {
        QuantumNas {
            space,
            device,
            task,
            config,
        }
    }

    /// The SuperCircuit this run searches within.
    pub fn supercircuit(&self) -> SuperCircuit {
        let space = DesignSpace::new(self.space);
        let blocks = self.config.blocks.unwrap_or(space.default_blocks());
        SuperCircuit::new(space, self.task.num_qubits(), blocks)
    }

    /// Executes all five stages and reports the results.
    ///
    /// # Panics
    ///
    /// Panics if the device has fewer qubits than the task needs.
    pub fn run(&self, seed: u64) -> Report {
        assert!(
            self.device.num_qubits() >= self.task.num_qubits(),
            "device too small for task"
        );
        let sc = self.supercircuit();

        // One runtime serves training, search, pruning, and deployment so
        // the transpile cache, checkpoint store, fault plan, and telemetry
        // span the whole run.
        let mut rt = SearchRuntime::new(self.config.runtime.clone());
        if let Some(faults) = &self.config.faults {
            rt = rt.with_fault_plan(faults.clone());
        }
        // Truncation telemetry covers this run only.
        qns_sim::reset_mps_stats();

        // Stage 1: SuperCircuit training.
        let mut super_cfg = self.config.super_train;
        super_cfg.seed = seed;
        let (shared, _) = train_supercircuit_rt(&sc, &self.task, &super_cfg, &rt);

        // Stage 2: evolutionary co-search with noise feedback.
        let estimator = rt.instrument_estimator(
            &Estimator::new(
                self.device.clone(),
                self.config.estimator,
                self.config.opt_level,
            )
            .with_backend(self.config.backend)
            .with_valid_cap(12),
        );
        let mut evo = self.config.evo.clone();
        evo.seed = seed ^ 0x5EA7C;
        evo.runtime = self.config.runtime.clone();
        let mut pareto = evolutionary_search_pareto_rt(
            &sc,
            &shared,
            &self.task,
            &estimator,
            &evo,
            self.config
                .objectives
                .as_deref()
                .unwrap_or(&[Objective::Loss]),
            &[],
            &rt,
        );
        let front = std::mem::take(&mut pareto.front);
        let search = pareto.into_search_result();

        // Stage 3: train the searched SubCircuit from scratch.
        let circuit = sc.build_for(&search.best.config, &self.task);
        let mut train_cfg = self.config.train;
        train_cfg.seed = seed ^ 0x7A11;
        let (params, _) = train_task(&circuit, &self.task, &train_cfg, None);
        let (trained_loss, _) = eval_task(&circuit, &params, &self.task, Split::Valid);
        let n_params = circuit.referenced_train_indices().len();

        let layout = search.best.layout();
        let accuracy_before_prune = if self.task.is_qml() {
            estimator.test_accuracy(
                &circuit,
                &params,
                &self.task,
                &layout,
                self.config.n_test,
                self.config.measure,
            )
        } else {
            f64::NAN
        };

        // Stage 4: iterative pruning + finetuning.
        let (final_circuit, final_params, pruned_ratio) = match &self.config.prune {
            Some(prune_cfg) => {
                let mut cfg = *prune_cfg;
                cfg.seed = seed ^ 0x9121;
                let result = iterative_prune_rt(&circuit, &params, &self.task, &cfg, &rt);
                (result.circuit, result.params, result.pruned_ratio)
            }
            None => (circuit.clone(), params.clone(), 0.0),
        };

        // Stage 5: compile and "deploy" on the noisy device model.
        let (final_accuracy, final_energy) = if self.task.is_qml() {
            let acc = estimator.test_accuracy(
                &final_circuit,
                &final_params,
                &self.task,
                &layout,
                self.config.n_test,
                self.config.measure,
            );
            (acc, f64::NAN)
        } else {
            let energy = match &self.task {
                Task::Vqe { hamiltonian, .. } => estimator.vqe_energy_measured(
                    &final_circuit,
                    &final_params,
                    hamiltonian,
                    &layout,
                    self.config.measure,
                ),
                _ => unreachable!(),
            };
            (f64::NAN, energy)
        };

        // Mirror MPS truncation telemetry into the runtime summary so
        // `--stats` audits how much Schmidt weight the run discarded.
        let mps = qns_sim::mps_stats();
        if mps.max_bond_seen > 0 {
            let m = rt.metrics();
            m.incr(counters::MPS_TRUNCATIONS, mps.truncation_events);
            m.incr(counters::MPS_TRUNC_WEIGHT_PICO, mps.truncated_weight_pico);
            m.incr(counters::MPS_MAX_BOND, mps.max_bond_seen);
        }

        Report {
            gene: search.best,
            search_score: search.best_score,
            trained_loss,
            accuracy_before_prune,
            final_accuracy,
            final_energy,
            pruned_ratio,
            n_params,
            final_circuit,
            final_params,
            search_evaluations: search.evaluations,
            search_memo_hits: search.memo_hits,
            search_proxy_evals: search.proxy_evals,
            search_proxy_escalations: search.proxy_escalations,
            search_proxy_dedup_hits: search.proxy_dedup_hits,
            front,
            runtime_summary: rt.metrics().summary(),
        }
    }

    /// The task this run targets.
    pub fn task(&self) -> &Task {
        &self.task
    }

    /// The target device.
    pub fn device(&self) -> &Device {
        &self.device
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_pipeline_runs_end_to_end_qml() {
        let task = Task::qml_digits(&[1, 8], 20, 4, 9);
        let mut cfg = QuantumNasConfig::fast();
        cfg.super_train.steps = 20;
        cfg.evo = EvoConfig {
            iterations: 3,
            population: 6,
            parents: 2,
            mutations: 2,
            crossovers: 2,
            ..EvoConfig::fast(0)
        };
        cfg.train.epochs = 4;
        cfg.n_test = 20;
        cfg.prune = Some(PruneConfig {
            final_ratio: 0.2,
            steps: 1,
            finetune_epochs: 1,
            ..Default::default()
        });
        let nas = QuantumNas::new(SpaceKind::U3Cu3, Device::yorktown(), task, cfg);
        let report = nas.run(1);
        assert!((0.0..=1.0).contains(&report.final_accuracy));
        assert!(report.trained_loss.is_finite());
        assert!(report.n_params > 0);
        assert!(report.pruned_ratio > 0.0);
        assert_eq!(report.gene.layout.len(), 4);
        assert_eq!(report.search_evaluations + report.search_memo_hits, 3 * 6);
        assert!(report.runtime_summary.contains("evaluations"));
    }

    #[test]
    fn fast_pipeline_runs_end_to_end_vqe() {
        let mol = qns_chem::Molecule::h2();
        let task = Task::vqe(&mol);
        let mut cfg = QuantumNasConfig::fast();
        cfg.super_train.steps = 30;
        cfg.evo = EvoConfig {
            iterations: 3,
            population: 6,
            parents: 2,
            mutations: 2,
            crossovers: 2,
            ..EvoConfig::fast(0)
        };
        cfg.train = TrainConfig {
            epochs: 120,
            lr: 0.05,
            ..Default::default()
        };
        cfg.prune = None;
        let nas = QuantumNas::new(SpaceKind::U3Cu3, Device::santiago(), task, cfg);
        let report = nas.run(2);
        assert!(report.final_energy.is_finite());
        // Should find a state well below zero (exact is about -1.85).
        assert!(report.final_energy < -1.0, "energy {}", report.final_energy);
    }
}
