//! Iterative magnitude-based quantum pruning with finetuning.

use crate::checkpoint::PruneCheckpoint;
use crate::runtime::{hash_circuit, hash_task, RuntimeOptions, SearchRuntime};
use crate::train::{eval_task, Split};
use crate::{train_task, Task, TrainConfig};
use qns_circuit::{Circuit, Param};
use qns_runtime::{timers, StructuralHasher};

/// Pruning hyperparameters (paper Section III-D / IV-A: polynomial decay
/// from an initial ratio of 0.05, finetuning at LR 2e-5 — LR raised here
/// because our scaled-down runs take far fewer steps).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PruneConfig {
    /// Final fraction of parameters to remove.
    pub final_ratio: f64,
    /// Starting fraction (the paper uses 0.05).
    pub initial_ratio: f64,
    /// Number of prune→finetune rounds.
    pub steps: usize,
    /// Finetuning epochs after each pruning round.
    pub finetune_epochs: usize,
    /// Finetuning learning rate.
    pub lr: f64,
    /// RNG seed for finetuning batches.
    pub seed: u64,
}

impl Default for PruneConfig {
    fn default() -> Self {
        PruneConfig {
            final_ratio: 0.3,
            initial_ratio: 0.05,
            steps: 4,
            finetune_epochs: 3,
            lr: 5e-3,
            seed: 0,
        }
    }
}

/// The polynomial pruning-ratio schedule of Zhu & Gupta used by the paper:
/// `r(t) = r_f + (r_i − r_f) · (1 − t)³` for progress `t ∈ [0, 1]`.
///
/// # Examples
///
/// ```
/// use quantumnas::polynomial_ratio;
/// assert!((polynomial_ratio(0.05, 0.5, 0.0) - 0.05).abs() < 1e-12);
/// assert!((polynomial_ratio(0.05, 0.5, 1.0) - 0.5).abs() < 1e-12);
/// ```
pub fn polynomial_ratio(initial: f64, fin: f64, progress: f64) -> f64 {
    let p = progress.clamp(0.0, 1.0);
    fin + (initial - fin) * (1.0 - p).powi(3)
}

/// The outcome of iterative pruning.
#[derive(Clone, Debug)]
pub struct PruneResult {
    /// The circuit with pruned parameter slots frozen to `Fixed(0)`.
    pub circuit: Circuit,
    /// Finetuned parameters (pruned entries zeroed).
    pub params: Vec<f64>,
    /// `mask[i]` is `true` when parameter `i` survived.
    pub mask: Vec<bool>,
    /// Ratio actually pruned.
    pub pruned_ratio: f64,
    /// Noise-free validation loss after pruning + finetuning.
    pub final_loss: f64,
}

/// Normalizes an angle to `[-π, π)` — the magnitude used for ranking.
fn normalized_angle(v: f64) -> f64 {
    let two_pi = 2.0 * std::f64::consts::PI;
    let mut r = v.rem_euclid(two_pi);
    if r >= std::f64::consts::PI {
        r -= two_pi;
    }
    r
}

/// Freezes pruned parameter slots to `Fixed(0.0)` so compilation gets the
/// Table II gate-count reductions.
fn apply_mask(circuit: &Circuit, mask: &[bool]) -> Circuit {
    let mut out = circuit.map_train_params(|i| {
        if mask[i] {
            Param::Train(i)
        } else {
            Param::Fixed(0.0)
        }
    });
    out.set_num_train_params(circuit.num_train_params());
    out
}

/// Iterative magnitude pruning (paper Section III-D): rank all normalized
/// rotation angles, zero the smallest, finetune, and repeat with the
/// polynomially growing ratio until `final_ratio` is reached.
///
/// Only parameters the circuit actually references are candidates; the
/// mask is re-derived from scratch each round (cumulative magnitude
/// ranking), matching the reference pruning recipe.
///
/// # Panics
///
/// Panics if ratios are outside `[0, 1)` or `params` is shorter than the
/// circuit's parameter space.
pub fn iterative_prune(
    circuit: &Circuit,
    params: &[f64],
    task: &Task,
    config: &PruneConfig,
) -> PruneResult {
    let rt = SearchRuntime::new(RuntimeOptions::default());
    iterative_prune_rt(circuit, params, task, config, &rt)
}

/// [`iterative_prune`] on a caller-owned [`SearchRuntime`]: each
/// prune→finetune round lands in the shared event log (round index, loss,
/// wall time) and validation evaluation time is folded into the simulate
/// histogram, so a full pipeline run reports one coherent telemetry
/// stream.
pub fn iterative_prune_rt(
    circuit: &Circuit,
    params: &[f64],
    task: &Task,
    config: &PruneConfig,
    rt: &SearchRuntime,
) -> PruneResult {
    assert!(
        (0.0..1.0).contains(&config.final_ratio) && (0.0..1.0).contains(&config.initial_ratio),
        "ratios must be in [0, 1)"
    );
    assert!(
        params.len() >= circuit.num_train_params(),
        "parameter vector too short"
    );
    let referenced = circuit.referenced_train_indices();
    // Hash the starting parameters before they are shadowed: they are part
    // of the pruning trajectory's identity.
    let resume_context = {
        let mut h = StructuralHasher::new();
        h.write_str("iterative-prune");
        hash_circuit(&mut h, circuit);
        hash_task(&mut h, task);
        h.write_f64(config.final_ratio);
        h.write_f64(config.initial_ratio);
        h.write_usize(config.steps);
        h.write_usize(config.finetune_epochs);
        h.write_f64(config.lr);
        h.write_u64(config.seed);
        h.write_usize(params.len());
        for &p in params {
            h.write_f64(p);
        }
        h.finish()
    };
    let mut params = params.to_vec();
    let mut mask = vec![true; params.len()];
    let mut final_loss = f64::NAN;
    let mut start_step = 0usize;

    let fits =
        |ck: &PruneCheckpoint| ck.params.len() == params.len() && ck.mask.len() == mask.len();
    if let Some(ck) = rt.resume(resume_context, config.steps, fits) {
        start_step = ck.round;
        params = ck.params;
        mask = ck.mask;
        final_loss = ck.final_loss;
    }

    for step in start_step..config.steps {
        let progress = (step + 1) as f64 / config.steps as f64;
        let ratio = polynomial_ratio(config.initial_ratio, config.final_ratio, progress);
        // Rank referenced parameters by |normalized angle|.
        let mut ranked: Vec<usize> = referenced.clone();
        ranked.sort_by(|&a, &b| {
            normalized_angle(params[a])
                .abs()
                .partial_cmp(&normalized_angle(params[b]).abs())
                .expect("finite angles")
        });
        let n_prune = ((referenced.len() as f64) * ratio).round() as usize;
        for m in mask.iter_mut() {
            *m = true;
        }
        for &i in ranked.iter().take(n_prune) {
            mask[i] = false;
            params[i] = 0.0;
        }
        // Finetune the survivors.
        let masked_circuit = apply_mask(circuit, &mask);
        let cfg = TrainConfig {
            epochs: config.finetune_epochs,
            lr: config.lr,
            seed: config.seed ^ step as u64,
            ..Default::default()
        };
        let (new_params, _) = train_task(&masked_circuit, task, &cfg, Some(params.clone()));
        params = new_params;
        for (i, m) in mask.iter().enumerate() {
            if !m {
                params[i] = 0.0;
            }
        }
        let (loss, _) = rt.metrics().time(timers::SIMULATE, || {
            eval_task(&masked_circuit, &params, task, Split::Valid)
        });
        final_loss = loss;

        rt.boundary(step + 1, config.steps, || PruneCheckpoint {
            context: resume_context,
            round: step + 1,
            params: params.clone(),
            mask: mask.clone(),
            final_loss,
        });
    }

    let pruned = mask.iter().filter(|&&m| !m).count();
    let masked_circuit = apply_mask(circuit, &mask);
    PruneResult {
        circuit: masked_circuit,
        params,
        pruned_ratio: pruned as f64 / referenced.len().max(1) as f64,
        mask,
        final_loss,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DesignSpace, SpaceKind, SuperCircuit};

    #[test]
    fn polynomial_schedule_is_monotone() {
        let mut prev = 0.0;
        for i in 0..=10 {
            let r = polynomial_ratio(0.05, 0.5, i as f64 / 10.0);
            assert!(r >= prev - 1e-12);
            prev = r;
        }
    }

    #[test]
    fn pruning_zeroes_smallest_angles() {
        let task = Task::qml_digits(&[1, 8], 10, 4, 5);
        let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 1);
        let encoder = match &task {
            Task::Qml { encoder, .. } => encoder.clone(),
            _ => unreachable!(),
        };
        let circuit = sc.build(&sc.max_config(), Some(&encoder));
        // Parameters with clearly separated magnitudes.
        let n = circuit.num_train_params();
        let params: Vec<f64> = (0..n).map(|i| 0.01 + 0.1 * i as f64).collect();
        let cfg = PruneConfig {
            final_ratio: 0.25,
            steps: 1,
            finetune_epochs: 0,
            ..Default::default()
        };
        let result = iterative_prune(&circuit, &params, &task, &cfg);
        assert!((result.pruned_ratio - 0.25).abs() < 0.05);
        // The smallest-magnitude parameters are the pruned ones.
        let pruned: Vec<usize> = (0..n).filter(|&i| !result.mask[i]).collect();
        let max_pruned = pruned.iter().map(|&i| params[i]).fold(0.0, f64::max);
        let min_kept = (0..n)
            .filter(|&i| result.mask[i])
            .map(|i| params[i])
            .fold(f64::INFINITY, f64::min);
        assert!(max_pruned <= min_kept + 1e-9);
    }

    #[test]
    fn pruned_circuit_freezes_slots() {
        let task = Task::qml_digits(&[1, 8], 10, 4, 6);
        let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 1);
        let encoder = match &task {
            Task::Qml { encoder, .. } => encoder.clone(),
            _ => unreachable!(),
        };
        let circuit = sc.build(&sc.max_config(), Some(&encoder));
        let params = vec![0.5; circuit.num_train_params()];
        let cfg = PruneConfig {
            final_ratio: 0.4,
            steps: 2,
            finetune_epochs: 1,
            ..Default::default()
        };
        let result = iterative_prune(&circuit, &params, &task, &cfg);
        let kept = result.circuit.referenced_train_indices().len();
        let expected = result.mask.iter().filter(|&&m| m).count();
        assert_eq!(kept, expected);
        // Pruned parameters are zero.
        for (i, &m) in result.mask.iter().enumerate() {
            if !m {
                assert_eq!(result.params[i], 0.0);
            }
        }
    }

    #[test]
    fn pruning_reduces_compiled_gate_count() {
        // The Table II effect: zeroed U3 angles compile to fewer gates.
        let task = Task::qml_digits(&[1, 8], 10, 4, 7);
        let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 1);
        let encoder = match &task {
            Task::Qml { encoder, .. } => encoder.clone(),
            _ => unreachable!(),
        };
        let circuit = sc.build(&sc.max_config(), Some(&encoder));
        let params = vec![0.7; circuit.num_train_params()];
        let cfg = PruneConfig {
            final_ratio: 0.5,
            steps: 1,
            finetune_epochs: 0,
            ..Default::default()
        };
        let result = iterative_prune(&circuit, &params, &task, &cfg);
        let device = qns_noise::Device::yorktown();
        let layout = qns_transpile::Layout::trivial(4);
        let before = qns_transpile::transpile(&circuit, &device, &layout, 2);
        let after = qns_transpile::transpile(&result.circuit, &device, &layout, 2);
        assert!(
            after.circuit.num_ops() < before.circuit.num_ops(),
            "pruning should shrink the compiled circuit: {} vs {}",
            after.circuit.num_ops(),
            before.circuit.num_ops()
        );
    }

    #[test]
    #[should_panic(expected = "ratios")]
    fn invalid_ratio_panics() {
        let task = Task::qml_digits(&[1, 8], 5, 4, 0);
        let c = Circuit::new(4);
        let cfg = PruneConfig {
            final_ratio: 1.5,
            ..Default::default()
        };
        let _ = iterative_prune(&c, &[], &task, &cfg);
    }
}
