//! One timed run of the product entry point, `QuantumNas::run`, and the
//! checks every run's report must pass.

use crate::host::Scratch;
use crate::workloads::{Inputs, Workload};
use quantumnas::{Gene, QuantumNas, QuantumNasConfig, Report, SpaceKind, Task};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What the benchmark keeps from one pipeline run.
#[derive(Clone, Debug)]
pub struct Summary {
    /// The searched gene.
    pub gene: Gene,
    /// The search's best estimator score.
    pub search_score: f64,
    /// Final measured accuracy (QML) or energy (VQE).
    pub final_metric: f64,
    /// Search objective above its floor: the NLL for QML, the energy
    /// above the exact ground state for VQE.
    pub search_objective: f64,
    /// Deployed error: `1 − accuracy` for QML, the measured energy above
    /// the exact ground state for VQE.
    pub deployed_error: f64,
}

impl Summary {
    /// `true` when `other` reproduces this run bit for bit.
    pub fn bitwise_eq(&self, other: &Summary) -> bool {
        self.gene == other.gene
            && self.search_score.to_bits() == other.search_score.to_bits()
            && self.final_metric.to_bits() == other.final_metric.to_bits()
    }
}

/// The parts of a run's outcome the checks and metrics read, taken from a
/// `Report` or assembled by the traced replay.
#[derive(Clone, Debug)]
pub struct Observed {
    pub gene: Gene,
    pub search_score: f64,
    pub accuracy_before_prune: f64,
    pub final_accuracy: f64,
    pub final_energy: f64,
    pub n_params: usize,
    pub search_evaluations: usize,
    pub search_memo_hits: usize,
    pub search_proxy_escalations: u64,
    pub front_len: usize,
}

impl Observed {
    pub fn of(r: &Report) -> Self {
        Observed {
            gene: r.gene.clone(),
            search_score: r.search_score,
            accuracy_before_prune: r.accuracy_before_prune,
            final_accuracy: r.final_accuracy,
            final_energy: r.final_energy,
            n_params: r.n_params,
            search_evaluations: r.search_evaluations,
            search_memo_hits: r.search_memo_hits,
            search_proxy_escalations: r.search_proxy_escalations,
            front_len: r.front.len(),
        }
    }
}

/// One pipeline run: its seed, set-up and pipeline wall time, and either
/// the checked summary or why it failed.
pub struct Run {
    pub seed: u64,
    pub setup_s: f64,
    pub wall_s: f64,
    pub outcome: Result<Summary, String>,
}

/// Per-workload state shared by every run of one invocation.
pub struct Bench {
    pub workload: Workload,
    /// Exact ground-state energy (VQE), the floor both error metrics are
    /// measured from; `NaN` for QML.
    pub ground_energy: f64,
    pub scratch: Scratch,
}

impl Bench {
    pub fn new(workload: Workload) -> Self {
        let ground_energy = match workload.inputs(0).task {
            Task::Vqe {
                hamiltonian,
                n_qubits,
                ..
            } => qns_chem::ground_state_energy(&hamiltonian, n_qubits),
            Task::Qml { .. } => f64::NAN,
        };
        Bench {
            workload,
            ground_energy,
            scratch: Scratch::new(),
        }
    }

    /// Times input synthesis for `seed`.
    pub fn setup(&self, seed: u64) -> (Inputs, f64) {
        let start = Instant::now();
        let inputs = self.workload.inputs(seed);
        (inputs, start.elapsed().as_secs_f64())
    }

    /// The configuration for one run, with a fresh snapshot directory for
    /// the checkpointing workload.
    pub fn config(&mut self) -> QuantumNasConfig {
        let dir = self
            .workload
            .checkpoints()
            .then(|| self.scratch.fresh_dir());
        self.workload.config(dir.as_deref())
    }

    /// Sets the process-global simulator fan-out to the workload's worker
    /// count; called before every run because anything may have changed it.
    pub fn pin_workers(&self) {
        qns_sim::set_parallelism(self.workload.workers());
    }

    /// One set-up plus one timed `QuantumNas::run`, checked. A panic
    /// counts as a failed run.
    pub fn run(&mut self, seed: u64) -> Run {
        let (inputs, setup_s) = self.setup(seed);
        let config = self.config();
        let checks = Expect::new(&inputs, &config);
        let nas = QuantumNas::new(SpaceKind::U3Cu3, inputs.device, inputs.task, config);
        self.pin_workers();
        let start = Instant::now();
        let report = catch_unwind(AssertUnwindSafe(|| nas.run(seed)));
        let wall_s = start.elapsed().as_secs_f64();
        let outcome = match report {
            Ok(report) => self.checked(&checks, &Observed::of(&report)),
            Err(panic) => Err(format!("panicked: {}", panic_message(&panic))),
        };
        Run {
            seed,
            setup_s,
            wall_s,
            outcome,
        }
    }

    /// The summary of a run that passes `checks`.
    pub fn checked(&self, checks: &Expect, r: &Observed) -> Result<Summary, String> {
        checks.check(r)?;
        let (final_metric, search_objective, deployed_error) = if self.ground_energy.is_nan() {
            (r.final_accuracy, r.search_score, 1.0 - r.final_accuracy)
        } else {
            (
                r.final_energy,
                r.search_score - self.ground_energy,
                r.final_energy - self.ground_energy,
            )
        };
        Ok(Summary {
            gene: r.gene.clone(),
            search_score: r.search_score,
            final_metric,
            search_objective,
            deployed_error,
        })
    }
}

/// What a correct report looks like for one run's inputs and config.
pub struct Expect {
    qml: bool,
    task_qubits: usize,
    device_qubits: usize,
    /// Candidates the search must account for (`evaluations + memo
    /// hits`): the full budget, or only the prescreener's escalations
    /// when proxy prescreening is on (`None`).
    budget: Option<usize>,
    pareto: bool,
}

impl Expect {
    pub fn new(inputs: &Inputs, config: &QuantumNasConfig) -> Self {
        Expect {
            qml: inputs.task.is_qml(),
            task_qubits: inputs.task.num_qubits(),
            device_qubits: inputs.device.num_qubits(),
            budget: (!config.evo.proxy.enabled)
                .then_some(config.evo.iterations * config.evo.population),
            pareto: config.objectives.is_some(),
        }
    }

    /// Checks ranges, the layout, and the search's accounting.
    pub fn check(&self, r: &Observed) -> Result<(), String> {
        if self.qml {
            for (what, acc) in [
                ("accuracy before pruning", r.accuracy_before_prune),
                ("final accuracy", r.final_accuracy),
            ] {
                if !(0.0..=1.0).contains(&acc) {
                    return Err(format!("{what} {acc} outside [0, 1]"));
                }
            }
        } else if !r.final_energy.is_finite() {
            return Err(format!("final energy {} is not finite", r.final_energy));
        }
        if !r.search_score.is_finite() {
            return Err(format!("search score {} is not finite", r.search_score));
        }
        let layout = &r.gene.layout;
        if layout.len() != self.task_qubits {
            return Err(format!(
                "layout has {} qubits, the task {}",
                layout.len(),
                self.task_qubits
            ));
        }
        if let Some(&q) = layout.iter().find(|&&q| q >= self.device_qubits) {
            return Err(format!(
                "layout maps to qubit {q} of a {}-qubit device",
                self.device_qubits
            ));
        }
        let mut sorted = layout.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != layout.len() {
            return Err(format!("layout {layout:?} is not injective"));
        }
        if r.n_params == 0 {
            return Err("searched circuit has no parameters".to_string());
        }
        let accounted = r.search_evaluations + r.search_memo_hits;
        let expected = self.budget.unwrap_or(r.search_proxy_escalations as usize);
        if accounted != expected {
            return Err(format!(
                "search accounted for {accounted} candidates, expected {expected}"
            ));
        }
        if self.pareto && r.front_len == 0 {
            return Err("Pareto search returned an empty front".to_string());
        }
        Ok(())
    }
}

/// The message of a caught panic.
pub fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}
