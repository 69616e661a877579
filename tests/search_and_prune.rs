//! Cross-crate behavior of the search and pruning stages.

mod common;

use qns_noise::Device;
use qns_transpile::{transpile, Layout};
use quantumnas::{
    evolutionary_search, evolutionary_search_seeded_rt, human_design, iterative_prune,
    random_search, train_supercircuit, train_task, CheckpointOptions, DesignSpace, Estimator,
    EstimatorKind, EvoConfig, PruneConfig, RuntimeOptions, SearchRuntime, SpaceKind, SuperCircuit,
    SuperTrainConfig, Task, TrainConfig,
};

fn setup() -> (SuperCircuit, Vec<f64>, Task) {
    let task = Task::qml_digits(&[3, 6], 40, 4, 29);
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 2);
    let (shared, _) = train_supercircuit(
        &sc,
        &task,
        &SuperTrainConfig {
            steps: 60,
            batch_size: 8,
            warmup_steps: 6,
            ..Default::default()
        },
    );
    (sc, shared, task)
}

#[test]
fn search_respects_parameter_budget() {
    let (sc, shared, task) = setup();
    let est = Estimator::new(Device::belem(), EstimatorKind::SuccessRate, 2).with_valid_cap(6);
    let budget = 18;
    let cfg = EvoConfig {
        max_params: Some(budget),
        ..EvoConfig::fast(3)
    };
    let result = evolutionary_search(&sc, &shared, &task, &est, &cfg);
    let circuit = match &task {
        Task::Qml { encoder, .. } => sc.build(&result.best.config, Some(encoder)),
        _ => unreachable!(),
    };
    assert!(
        circuit.referenced_train_indices().len() <= budget,
        "budget violated: {}",
        circuit.referenced_train_indices().len()
    );
    assert!(result.best_score < 1e8, "no feasible gene found");
}

#[test]
fn ablation_flags_freeze_components() {
    let (sc, shared, task) = setup();
    let est = Estimator::new(Device::belem(), EstimatorKind::SuccessRate, 2).with_valid_cap(6);
    // Mapping-only search: architecture stays maximal.
    let cfg = EvoConfig {
        search_arch: false,
        ..EvoConfig::fast(5)
    };
    let r = evolutionary_search(&sc, &shared, &task, &est, &cfg);
    assert_eq!(r.best.config, sc.max_config());
    // Circuit-only search: layout stays trivial.
    let cfg = EvoConfig {
        search_layout: false,
        ..EvoConfig::fast(5)
    };
    let r = evolutionary_search(&sc, &shared, &task, &est, &cfg);
    assert_eq!(r.best.layout, vec![0, 1, 2, 3]);
}

#[test]
fn random_search_histories_are_monotone_and_comparable() {
    let (sc, shared, task) = setup();
    let est = Estimator::new(Device::yorktown(), EstimatorKind::SuccessRate, 2).with_valid_cap(6);
    let cfg = EvoConfig::fast(7);
    let evo = evolutionary_search(&sc, &shared, &task, &est, &cfg);
    let rnd = random_search(&sc, &shared, &task, &est, &cfg);
    for h in [&evo.history, &rnd.history] {
        for w in h.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }
    // Same candidate budget; the memoized/evaluated split may differ.
    assert_eq!(
        evo.evaluations + evo.memo_hits,
        rnd.evaluations + rnd.memo_hits
    );
}

#[test]
fn pruning_preserves_accuracy_and_shrinks_compiled_circuit() {
    let task = Task::qml_digits(&[3, 6], 60, 4, 31);
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 2);
    let cfg = human_design(&sc, 36);
    let circuit = match &task {
        Task::Qml { encoder, .. } => sc.build(&cfg, Some(encoder)),
        _ => unreachable!(),
    };
    let (params, _) = train_task(
        &circuit,
        &task,
        &TrainConfig {
            epochs: 15,
            batch_size: 12,
            lr: 0.02,
            ..Default::default()
        },
        None,
    );
    let before = quantumnas::eval_task(&circuit, &params, &task, quantumnas::Split::Valid).0;
    let pruned = iterative_prune(
        &circuit,
        &params,
        &task,
        &PruneConfig {
            final_ratio: 0.3,
            steps: 2,
            finetune_epochs: 5,
            lr: 5e-3,
            ..Default::default()
        },
    );
    // Noise-free loss should not collapse (within 30% of the unpruned).
    assert!(
        pruned.final_loss < before * 1.3 + 0.1,
        "pruning destroyed the circuit: {} -> {}",
        before,
        pruned.final_loss
    );
    // And the compiled circuit must shrink.
    let dev = Device::yorktown();
    let t_before = transpile(&circuit, &dev, &Layout::trivial(4), 2);
    let t_after = transpile(&pruned.circuit, &dev, &Layout::trivial(4), 2);
    assert!(t_after.circuit.num_ops() < t_before.circuit.num_ops());
}

/// The scalar search's snapshots carry the search wire kind — asserted
/// through the shared helper, so a run that starts writing a different
/// kind cannot silently pass this suite's stale-context expectations.
#[test]
fn scalar_search_snapshots_carry_the_scalar_wire_kind() {
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 2);
    let task = Task::qml_digits(&[1, 8], 15, 4, 4);
    let shared: Vec<f64> = (0..sc.num_params())
        .map(|i| 0.2 * ((i % 5) as f64) - 0.4)
        .collect();
    let est = Estimator::new(Device::yorktown(), EstimatorKind::SuccessRate, 1).with_valid_cap(4);
    let dir = common::TempDir::new("scalar-kind");
    let cfg = EvoConfig {
        iterations: 2,
        population: 6,
        parents: 2,
        mutations: 2,
        crossovers: 2,
        runtime: RuntimeOptions {
            workers: 1,
            checkpoint: Some(CheckpointOptions::new(dir.path())),
            ..Default::default()
        },
        ..EvoConfig::fast(17)
    };
    let rt = SearchRuntime::new(cfg.runtime.clone());
    evolutionary_search_seeded_rt(&sc, &shared, &task, &est, &cfg, &[], &rt);
    assert_eq!(
        common::snapshot_kind(dir.path(), "search"),
        u32::from_le_bytes(*b"SEAR")
    );
    assert_eq!(
        common::snapshot_kinds(dir.path()),
        vec![u32::from_le_bytes(*b"SEAR")]
    );
}
