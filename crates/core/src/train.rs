//! Training loops: from-scratch SubCircuit training and gate-sharing
//! SuperCircuit training.

use crate::checkpoint::TrainCheckpoint;
use crate::runtime::hash_task;
use crate::{Readout, Sampler, SamplerConfig, SubConfig, SuperCircuit, Task};
use qns_circuit::Circuit;
use qns_data::Dataset;
use qns_ml::{accuracy, cross_entropy_grad, nll_loss, Adam, AdamConfig, CosineSchedule};
use qns_runtime::StructuralHasher;
use qns_sim::{
    adjoint_gradient, adjoint_gradient_batch, expect_z_batch, parallel_map, run, ExecMode,
    Observable, SimBackend, DEFAULT_BATCH_LANES,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Hyperparameters for from-scratch training (the paper: Adam, LR 5e-3,
/// weight decay 1e-4, cosine schedule; 200 epochs / 1000 VQE steps at
/// batch 256 — scaled down by default here, raise for full runs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainConfig {
    /// Epochs (QML) or steps (VQE).
    pub epochs: usize,
    /// Minibatch size for QML.
    pub batch_size: usize,
    /// Peak learning rate.
    pub lr: f64,
    /// Linear warmup steps at the schedule start.
    pub warmup_steps: usize,
    /// RNG seed (initialization + shuffling).
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            batch_size: 32,
            lr: 0.02,
            warmup_steps: 0,
            seed: 0,
        }
    }
}

/// Noise-free loss and accuracy of a QML circuit over a dataset.
pub(crate) fn qml_eval(
    circuit: &Circuit,
    params: &[f64],
    data: &Dataset,
    readout: &Readout,
) -> (f64, f64) {
    if data.features.is_empty() {
        return (0.0, accuracy(&[], &data.labels));
    }
    let inputs: Vec<&[f64]> = data.features.iter().map(Vec::as_slice).collect();
    let logits: Vec<Vec<f64>> = expect_z_batch(circuit, params, &inputs, SimBackend::Fast)
        .iter()
        .map(|ez| readout.logits(ez))
        .collect();
    let loss: f64 = logits
        .iter()
        .zip(&data.labels)
        .map(|(l, &y)| nll_loss(l, y))
        .sum::<f64>()
        / data.num_samples().max(1) as f64;
    let acc = accuracy(&logits, &data.labels);
    (loss, acc)
}

/// Average loss and gradient over a QML batch.
///
/// The batch runs as lane chunks of at most [`DEFAULT_BATCH_LANES`]
/// samples through [`parallel_map`], so a minibatch of up to 32 samples is
/// one chunk and runs inline on the calling thread; only a minibatch of
/// at least four chunks (128 samples) can fan out across the worker pool.
fn qml_batch_grad(
    circuit: &Circuit,
    params: &[f64],
    data: &Dataset,
    batch: &[usize],
    readout: &Readout,
) -> (f64, Vec<f64>) {
    if batch.is_empty() {
        return (0.0, vec![0.0; circuit.num_train_params()]);
    }
    // The whole minibatch runs in lane-batches: one batched forward sweep
    // produces every lane's expectations (and thus loss), and one batched
    // adjoint backward sweep accumulates the summed gradient — each gate is
    // applied to all lanes at once instead of once per sample.
    let chunks: Vec<&[usize]> = batch.chunks(DEFAULT_BATCH_LANES).collect();
    let per_chunk: Vec<(Vec<f64>, Vec<f64>)> = parallel_map(&chunks, |chunk| {
        let inputs: Vec<&[f64]> = chunk.iter().map(|&i| data.features[i].as_slice()).collect();
        adjoint_gradient_batch(circuit, params, &inputs, |lane, ez| {
            let label = data.labels[chunk[lane]];
            let logits = readout.logits(ez);
            let loss = nll_loss(&logits, label);
            let dlogits = cross_entropy_grad(&logits, label);
            (loss, readout.weights_from_logit_grad(&dlogits))
        })
    });
    let n = batch.len() as f64;
    let mut grad = vec![0.0; circuit.num_train_params()];
    let mut loss = 0.0;
    for (losses, g) in per_chunk {
        loss += losses.iter().sum::<f64>();
        for (acc, gi) in grad.iter_mut().zip(g) {
            *acc += gi;
        }
    }
    for g in &mut grad {
        *g /= n;
    }
    (loss / n, grad)
}

/// Seeded parameter initialization in `[-0.3, 0.3)`.
fn init_params(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1217);
    (0..n).map(|_| rng.gen_range(-0.3..0.3)).collect()
}

/// Trains a circuit from scratch on a task, returning `(parameters,
/// per-epoch training-loss history)`.
///
/// QML: minibatch SGD over the train split with Adam + cosine LR. VQE:
/// full-gradient energy minimization for `epochs` steps. Pass
/// `initial` to resume (finetuning) instead of random initialization.
///
/// # Panics
///
/// Panics if the task width differs from the circuit width, or if
/// `config.batch_size` is 0 on a QML task.
pub fn train_task(
    circuit: &Circuit,
    task: &Task,
    config: &TrainConfig,
    initial: Option<Vec<f64>>,
) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(circuit.num_qubits(), task.num_qubits(), "width mismatch");
    let n_params = circuit.num_train_params();
    let mut params = initial.unwrap_or_else(|| init_params(n_params, config.seed));
    assert_eq!(params.len(), n_params, "parameter width mismatch");
    let mut opt = Adam::new(n_params, AdamConfig::default());
    let mut history = Vec::with_capacity(config.epochs);

    match task {
        Task::Qml {
            splits, readout, ..
        } => {
            assert!(
                config.batch_size > 0,
                "TrainConfig.batch_size must be at least 1 for a QML task"
            );
            let data = &splits.train;
            let steps_per_epoch = data.num_samples().div_ceil(config.batch_size).max(1);
            let schedule = CosineSchedule::new(
                config.lr,
                (config.epochs * steps_per_epoch).max(config.warmup_steps + 1),
                config.warmup_steps,
            );
            let mut rng = StdRng::seed_from_u64(config.seed ^ 0xBA7C);
            let mut step = 0;
            for _ in 0..config.epochs {
                let mut idx: Vec<usize> = (0..data.num_samples()).collect();
                idx.shuffle(&mut rng);
                let mut epoch_loss = 0.0;
                for batch in idx.chunks(config.batch_size) {
                    let (loss, grad) = qml_batch_grad(circuit, &params, data, batch, readout);
                    opt.step(&mut params, &grad, schedule.lr(step));
                    epoch_loss += loss * batch.len() as f64;
                    step += 1;
                }
                history.push(epoch_loss / data.num_samples() as f64);
            }
        }
        Task::Vqe { hamiltonian, .. } => {
            let schedule = CosineSchedule::new(
                config.lr,
                config.epochs.max(config.warmup_steps + 1),
                config.warmup_steps,
            );
            for step in 0..config.epochs {
                let (energy, grad) = adjoint_gradient(circuit, &params, &[], hamiltonian);
                opt.step(&mut params, &grad, schedule.lr(step));
                history.push(energy);
            }
        }
    }
    (params, history)
}

/// Noise-free evaluation of a circuit+parameters on a task split.
///
/// Returns `(validation loss, validation accuracy)` for QML (accuracy 0
/// for VQE, loss = energy).
pub fn eval_task(circuit: &Circuit, params: &[f64], task: &Task, split: Split) -> (f64, f64) {
    match task {
        Task::Qml {
            splits, readout, ..
        } => {
            let data = match split {
                Split::Train => &splits.train,
                Split::Valid => &splits.valid,
                Split::Test => &splits.test,
            };
            qml_eval(circuit, params, data, readout)
        }
        Task::Vqe { hamiltonian, .. } => {
            let state = run(circuit, params, &[], ExecMode::Static);
            (hamiltonian.expect(&state), 0.0)
        }
    }
}

/// Which dataset split to evaluate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Split {
    /// Training split.
    Train,
    /// Validation split.
    Valid,
    /// Test split.
    Test,
}

/// Hyperparameters for SuperCircuit training.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SuperTrainConfig {
    /// Total sampling/update steps.
    pub steps: usize,
    /// Minibatch size per step (QML).
    pub batch_size: usize,
    /// Peak learning rate.
    pub lr: f64,
    /// Linear warmup steps (the paper warms up SuperCircuit training).
    pub warmup_steps: usize,
    /// Sampler settings (progressive shrinking / restricted sampling).
    pub sampler: SamplerConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SuperTrainConfig {
    fn default() -> Self {
        SuperTrainConfig {
            steps: 300,
            batch_size: 16,
            lr: 0.02,
            warmup_steps: 20,
            sampler: SamplerConfig::default(),
            seed: 0,
        }
    }
}

/// Trains the gate-sharing SuperCircuit: each step samples a SubCircuit
/// (progressive shrinking + restricted sampling), computes its gradient on
/// a minibatch, and updates only the sampled subset of shared parameters.
///
/// Returns `(shared parameters, per-step loss history)`.
///
/// # Panics
///
/// Panics as [`train_supercircuit_rt`] does.
pub fn train_supercircuit(
    supercircuit: &SuperCircuit,
    task: &Task,
    config: &SuperTrainConfig,
) -> (Vec<f64>, Vec<f64>) {
    let rt = crate::SearchRuntime::new(crate::RuntimeOptions::default());
    train_supercircuit_rt(supercircuit, task, config, &rt)
}

/// [`train_supercircuit`] on a caller-owned [`crate::SearchRuntime`],
/// which adds crash safety: with checkpointing enabled the loop snapshots
/// its full state (parameters, Adam moments, both RNG stream positions,
/// sampler schedule) at step boundaries, and with `--resume` it continues
/// from the latest valid snapshot bitwise — the resumed run's final
/// parameters are exactly those of an uninterrupted run.
///
/// # Panics
///
/// Panics if the task width differs from the SuperCircuit width, or if
/// `config.batch_size` is 0 on a QML task.
pub fn train_supercircuit_rt(
    supercircuit: &SuperCircuit,
    task: &Task,
    config: &SuperTrainConfig,
    rt: &crate::SearchRuntime,
) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(
        supercircuit.num_qubits(),
        task.num_qubits(),
        "width mismatch"
    );
    let n_params = supercircuit.num_params();
    let mut params = init_params(n_params, config.seed);
    let mut opt = Adam::new(n_params, AdamConfig::default());
    let schedule = CosineSchedule::new(
        config.lr,
        config.steps.max(config.warmup_steps + 1),
        config.warmup_steps,
    );
    let mut sampler_cfg = config.sampler;
    sampler_cfg.seed = config.seed ^ 0x5A5A;
    let mut sampler = Sampler::new(supercircuit, sampler_cfg);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xC0FE);
    let mut history = Vec::with_capacity(config.steps);
    let mut start_step = 0usize;

    // Everything that shapes the training trajectory enters the context
    // digest; a snapshot from any other configuration is rejected.
    let resume_context = {
        let mut h = StructuralHasher::new();
        h.write_str("supercircuit-train");
        h.write_u64(supercircuit.space().kind() as u64);
        h.write_usize(supercircuit.num_qubits());
        h.write_usize(supercircuit.num_blocks());
        h.write_usize(n_params);
        hash_task(&mut h, task);
        h.write_usize(config.steps);
        h.write_usize(config.batch_size);
        h.write_f64(config.lr);
        h.write_usize(config.warmup_steps);
        h.write_u64(config.seed);
        h.write_usize(sampler_cfg.min_blocks);
        h.write_usize(sampler_cfg.shrink_start);
        h.write_usize(sampler_cfg.shrink_end);
        h.write_usize(sampler_cfg.max_layer_diff);
        h.write_u64(sampler_cfg.progressive as u64);
        h.write_u64(sampler_cfg.restricted as u64);
        h.write_u64(sampler_cfg.seed);
        h.finish()
    };
    let fits = |ck: &TrainCheckpoint| {
        ck.params.len() == n_params && ck.opt_m.len() == n_params && ck.opt_v.len() == n_params
    };
    if let Some(ck) = rt.resume(resume_context, config.steps, fits) {
        start_step = ck.step;
        params = ck.params;
        opt.restore(ck.opt_m, ck.opt_v, ck.opt_t);
        history = ck.history;
        rng = StdRng::from_state(ck.rng);
        sampler.restore(ck.sampler_prev, ck.sampler_step, ck.sampler_rng);
    }

    for step in start_step..config.steps {
        let circuit = supercircuit.build_for(&sampler.next_config(), task);
        let (loss, grad) = match task {
            Task::Qml {
                splits, readout, ..
            } => {
                assert!(
                    config.batch_size > 0,
                    "SuperTrainConfig.batch_size must be at least 1 for a QML task"
                );
                let data = &splits.train;
                let batch: Vec<usize> = (0..config.batch_size)
                    .map(|_| rng.gen_range(0..data.num_samples()))
                    .collect();
                qml_batch_grad(&circuit, &params, data, &batch, readout)
            }
            Task::Vqe { hamiltonian, .. } => adjoint_gradient(&circuit, &params, &[], hamiltonian),
        };
        let active = circuit.referenced_train_indices();
        opt.step_masked(&mut params, &grad, schedule.lr(step), &active);
        history.push(loss);

        rt.boundary(step + 1, config.steps, || {
            let (sampler_prev, sampler_step, sampler_rng) = sampler.state();
            let (m, v, t) = opt.state();
            TrainCheckpoint {
                context: resume_context,
                step: step + 1,
                params: params.clone(),
                opt_m: m.to_vec(),
                opt_v: v.to_vec(),
                opt_t: t,
                history: history.clone(),
                rng: rng.state(),
                sampler_prev,
                sampler_step,
                sampler_rng,
            }
        });
    }
    (params, history)
}

/// Convenience: evaluates a SubCircuit with parameters inherited from the
/// SuperCircuit (no training) — the paper's estimation primitive.
pub fn inherited_eval(
    supercircuit: &SuperCircuit,
    shared_params: &[f64],
    config: &SubConfig,
    task: &Task,
    split: Split,
) -> (f64, f64) {
    let circuit = supercircuit.build_for(config, task);
    eval_task(&circuit, shared_params, task, split)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DesignSpace, SpaceKind};
    use qns_chem::Molecule;

    fn tiny_qml_task() -> Task {
        Task::qml_digits(&[1, 8], 12, 4, 3)
    }

    #[test]
    fn qml_batch_grad_matches_finite_difference() {
        let task = tiny_qml_task();
        let (encoder, readout, train) = match &task {
            Task::Qml {
                splits,
                encoder,
                readout,
                ..
            } => (encoder, readout, &splits.train),
            _ => unreachable!(),
        };
        let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 1);
        let circuit = sc.build(&sc.max_config(), Some(encoder));
        let params = init_params(circuit.num_train_params(), 5);
        // A one-sample batch: the readout + NLL gradient of that sample.
        let batch = [0];
        let (_, grad) = qml_batch_grad(&circuit, &params, train, &batch, readout);
        let h = 1e-5;
        // Perturb one parameter in place and restore it, instead of cloning
        // the whole parameter vector twice per probe.
        let mut work = params.clone();
        for i in [0usize, 7, 13] {
            let original = work[i];
            work[i] = original + h;
            let (lp, _) = qml_batch_grad(&circuit, &work, train, &batch, readout);
            work[i] = original - h;
            let (lm, _) = qml_batch_grad(&circuit, &work, train, &batch, readout);
            work[i] = original;
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (grad[i] - fd).abs() < 1e-5,
                "param {i}: {} vs {}",
                grad[i],
                fd
            );
        }
    }

    #[test]
    fn training_reduces_qml_loss() {
        let task = tiny_qml_task();
        let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 2);
        let encoder = match &task {
            Task::Qml { encoder, .. } => encoder.clone(),
            _ => unreachable!(),
        };
        let circuit = sc.build(&sc.max_config(), Some(&encoder));
        let cfg = TrainConfig {
            epochs: 8,
            batch_size: 8,
            ..Default::default()
        };
        let (_, history) = train_task(&circuit, &task, &cfg, None);
        assert!(
            history.last().expect("non-empty") < &history[0],
            "loss did not decrease: {history:?}"
        );
    }

    #[test]
    fn vqe_training_approaches_h2_ground_state() {
        let mol = Molecule::h2();
        let task = Task::vqe(&mol);
        let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 2, 2);
        let circuit = sc.build(&sc.max_config(), None);
        let cfg = TrainConfig {
            epochs: 150,
            lr: 0.05,
            ..Default::default()
        };
        let (params, history) = train_task(&circuit, &task, &cfg, None);
        let exact = mol.fci_energy();
        let final_e = *history.last().expect("non-empty");
        assert!(
            final_e - exact < 0.05,
            "VQE reached {final_e}, exact {exact}"
        );
        let (e, _) = eval_task(&circuit, &params, &task, Split::Valid);
        assert!((e - final_e).abs() < 0.05);
    }

    #[test]
    fn supercircuit_training_reduces_loss() {
        let task = tiny_qml_task();
        let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 2);
        let cfg = SuperTrainConfig {
            steps: 80,
            batch_size: 8,
            warmup_steps: 8,
            sampler: SamplerConfig {
                shrink_start: 0,
                shrink_end: 30,
                ..Default::default()
            },
            ..Default::default()
        };
        let (params, history) = train_supercircuit(&sc, &task, &cfg);
        assert_eq!(params.len(), sc.num_params());
        assert_eq!(history.len(), 80);
        // Per-step losses are noisy (random SubCircuit + batch each step),
        // so compare the *validation* loss of the full SubCircuit with
        // trained vs freshly initialized shared parameters.
        let fresh = init_params(sc.num_params(), 0xF00D);
        let (trained_loss, _) = inherited_eval(&sc, &params, &sc.max_config(), &task, Split::Valid);
        let (fresh_loss, _) = inherited_eval(&sc, &fresh, &sc.max_config(), &task, Split::Valid);
        assert!(
            trained_loss < fresh_loss,
            "super-training did not improve: {fresh_loss} -> {trained_loss}"
        );
    }

    #[test]
    #[should_panic(expected = "TrainConfig.batch_size must be at least 1")]
    fn zero_batch_size_is_rejected_by_train_task() {
        let task = tiny_qml_task();
        let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 1);
        let encoder = match &task {
            Task::Qml { encoder, .. } => encoder.clone(),
            _ => unreachable!(),
        };
        let circuit = sc.build(&sc.max_config(), Some(&encoder));
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 0,
            ..Default::default()
        };
        train_task(&circuit, &task, &cfg, None);
    }

    #[test]
    #[should_panic(expected = "SuperTrainConfig.batch_size must be at least 1")]
    fn zero_batch_size_is_rejected_by_supercircuit_training() {
        let task = tiny_qml_task();
        let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 1);
        let cfg = SuperTrainConfig {
            steps: 2,
            batch_size: 0,
            ..Default::default()
        };
        train_supercircuit(&sc, &task, &cfg);
    }

    #[test]
    fn inherited_eval_runs_any_subconfig() {
        let task = tiny_qml_task();
        let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 2);
        let params = init_params(sc.num_params(), 1);
        let mut cfg = sc.max_config();
        cfg.n_blocks = 1;
        cfg.widths[0][0] = 2;
        let (loss, acc) = inherited_eval(&sc, &params, &cfg, &task, Split::Valid);
        assert!(loss.is_finite());
        assert!((0.0..=1.0).contains(&acc));
    }
}
