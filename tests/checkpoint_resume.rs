//! Kill-and-resume drills for the three checkpointed loops.
//!
//! Each test runs a loop to completion for reference, then reruns it with
//! checkpointing on and a [`FaultPlan`] boundary crash (the panic escapes
//! every isolation scope, like a real kill), then resumes from the
//! snapshot directory. The resumed run must be *bitwise* identical to the
//! uninterrupted reference — same floats, same genes, same histories —
//! across crash boundaries and worker counts.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use qns_noise::Device;
use qns_runtime::counters;
use quantumnas::{
    evolutionary_search_pareto_rt, evolutionary_search_seeded_rt, iterative_prune_rt,
    train_supercircuit_rt, CheckpointOptions, DesignSpace, Estimator, EstimatorKind, EvoConfig,
    FaultPlan, Objective, ParetoSearchResult, PruneConfig, PruneResult, RuntimeOptions,
    SearchResult, SearchRuntime, SpaceKind, SuperCircuit, SuperTrainConfig, Task, FAULT_MARKER,
};

/// A unique scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("qns-resume-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn setup() -> (SuperCircuit, Vec<f64>, Task, Estimator) {
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 2);
    let task = Task::qml_digits(&[1, 8], 15, 4, 4);
    let params: Vec<f64> = (0..sc.num_params())
        .map(|i| 0.2 * ((i % 5) as f64) - 0.4)
        .collect();
    let est = Estimator::new(Device::yorktown(), EstimatorKind::SuccessRate, 1).with_valid_cap(4);
    (sc, params, task, est)
}

fn evo_cfg(runtime: RuntimeOptions) -> EvoConfig {
    EvoConfig {
        iterations: 4,
        population: 8,
        parents: 3,
        mutations: 3,
        crossovers: 2,
        runtime,
        ..EvoConfig::fast(17)
    }
}

fn ckpt_options(dir: &Path, workers: usize, resume: bool) -> RuntimeOptions {
    let ck = CheckpointOptions::new(dir);
    RuntimeOptions {
        workers,
        cache: true,
        checkpoint: Some(if resume { ck.resume() } else { ck }),
        ..Default::default()
    }
}

/// Runs `f`, asserting it dies with an injected boundary crash.
fn expect_boundary_crash(f: impl FnOnce()) {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("run should crash");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.starts_with(FAULT_MARKER),
        "crash was not the injected one: {msg:?}"
    );
}

/// Runs `f` as one item of a two-item pool fan-out, so every per-sample
/// map inside it runs inline on that item's thread.
fn with_inline_maps<U: Send>(f: impl Fn() -> U + Sync) -> U {
    let mut slots = qns_sim::try_parallel_map(&[true, false], 2, |&run| run.then(&f));
    slots
        .swap_remove(0)
        .expect("f panicked")
        .expect("item 0 runs f")
}

fn assert_search_bitwise_eq(resumed: &SearchResult, reference: &SearchResult) {
    assert_eq!(resumed.best, reference.best);
    assert_eq!(resumed.best_score.to_bits(), reference.best_score.to_bits());
    assert_eq!(resumed.history.len(), reference.history.len());
    for (a, b) in resumed.history.iter().zip(&reference.history) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(resumed.evaluations, reference.evaluations);
    assert_eq!(resumed.memo_hits, reference.memo_hits);
}

fn assert_f64s_bitwise_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} != {y}");
    }
}

/// The acceptance criterion: a search killed at any generation boundary
/// and resumed produces a bitwise-identical [`SearchResult`], at one and
/// at several workers.
#[test]
fn search_killed_and_resumed_is_bitwise_identical() {
    let (sc, params, task, est) = setup();
    for workers in [1usize, 2] {
        let reference = {
            let cfg = evo_cfg(RuntimeOptions {
                workers,
                ..Default::default()
            });
            let rt = SearchRuntime::new(cfg.runtime.clone());
            evolutionary_search_seeded_rt(&sc, &params, &task, &est, &cfg, &[], &rt)
        };
        for boundary in [1u64, 2, 3] {
            let dir = TempDir::new(&format!("search-w{workers}-b{boundary}"));
            let crash_cfg = evo_cfg(ckpt_options(dir.path(), workers, false));
            let rt = SearchRuntime::new(crash_cfg.runtime.clone())
                .with_fault_plan(Arc::new(FaultPlan::new().crash_at_boundary(boundary)));
            expect_boundary_crash(|| {
                evolutionary_search_seeded_rt(&sc, &params, &task, &est, &crash_cfg, &[], &rt);
            });

            let resume_cfg = evo_cfg(ckpt_options(dir.path(), workers, true));
            let rt = SearchRuntime::new(resume_cfg.runtime.clone());
            let resumed =
                evolutionary_search_seeded_rt(&sc, &params, &task, &est, &resume_cfg, &[], &rt);
            assert_eq!(
                rt.metrics().counter(counters::CHECKPOINT_RESUMES),
                1,
                "resume was not recorded (workers {workers}, boundary {boundary})"
            );
            assert_search_bitwise_eq(&resumed, &reference);
        }
    }
}

fn assert_pareto_bitwise_eq(resumed: &ParetoSearchResult, reference: &ParetoSearchResult) {
    assert_eq!(resumed.front.len(), reference.front.len(), "front size");
    for (a, b) in resumed.front.iter().zip(&reference.front) {
        assert_eq!(a.gene, b.gene);
        assert_eq!(a.objectives.len(), b.objectives.len());
        for (x, y) in a.objectives.iter().zip(&b.objectives) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    assert_eq!(resumed.best, reference.best);
    assert_eq!(resumed.best_score.to_bits(), reference.best_score.to_bits());
    assert_f64s_bitwise_eq(&resumed.history, &reference.history, "history");
    assert_eq!(resumed.evaluations, reference.evaluations);
    assert_eq!(resumed.memo_hits, reference.memo_hits);
}

/// The multi-objective acceptance criterion: a Pareto search killed at
/// any generation boundary and resumed produces a bitwise-identical final
/// front (genes and objective bits), at one and at several workers — and
/// the fronts also agree *across* worker counts.
#[test]
fn pareto_search_killed_and_resumed_is_bitwise_identical() {
    let (sc, params, task, est) = setup();
    let objectives = [Objective::Loss, Objective::Depth, Objective::TwoQ];
    let mut reference_w1: Option<ParetoSearchResult> = None;
    for workers in [1usize, 4] {
        let reference = {
            let cfg = evo_cfg(RuntimeOptions {
                workers,
                ..Default::default()
            });
            let rt = SearchRuntime::new(cfg.runtime.clone());
            evolutionary_search_pareto_rt(&sc, &params, &task, &est, &cfg, &objectives, &[], &rt)
        };
        if let Some(w1) = &reference_w1 {
            assert_pareto_bitwise_eq(&reference, w1);
        } else {
            reference_w1 = Some(reference.clone());
        }
        for boundary in [1u64, 2, 3] {
            let dir = TempDir::new(&format!("pareto-w{workers}-b{boundary}"));
            let crash_cfg = evo_cfg(ckpt_options(dir.path(), workers, false));
            let rt = SearchRuntime::new(crash_cfg.runtime.clone())
                .with_fault_plan(Arc::new(FaultPlan::new().crash_at_boundary(boundary)));
            expect_boundary_crash(|| {
                evolutionary_search_pareto_rt(
                    &sc,
                    &params,
                    &task,
                    &est,
                    &crash_cfg,
                    &objectives,
                    &[],
                    &rt,
                );
            });
            assert_eq!(
                common::snapshot_kind(dir.path(), "search"),
                u32::from_le_bytes(*b"SEAR"),
                "pareto snapshots must carry the search wire kind"
            );

            let resume_cfg = evo_cfg(ckpt_options(dir.path(), workers, true));
            let rt = SearchRuntime::new(resume_cfg.runtime.clone());
            let resumed = evolutionary_search_pareto_rt(
                &sc,
                &params,
                &task,
                &est,
                &resume_cfg,
                &objectives,
                &[],
                &rt,
            );
            assert_eq!(
                rt.metrics().counter(counters::CHECKPOINT_RESUMES),
                1,
                "resume was not recorded (workers {workers}, boundary {boundary})"
            );
            assert_pareto_bitwise_eq(&resumed, &reference);
        }
    }
}

#[test]
fn training_killed_and_resumed_is_bitwise_identical() {
    let (sc, _, task, _) = setup();
    let cfg = SuperTrainConfig {
        steps: 6,
        batch_size: 4,
        warmup_steps: 1,
        seed: 7,
        ..Default::default()
    };
    let reference = {
        let rt = SearchRuntime::new(RuntimeOptions::default());
        train_supercircuit_rt(&sc, &task, &cfg, &rt)
    };
    for boundary in [1u64, 3, 5] {
        let dir = TempDir::new(&format!("train-b{boundary}"));
        let rt = SearchRuntime::new(ckpt_options(dir.path(), 0, false))
            .with_fault_plan(Arc::new(FaultPlan::new().crash_at_boundary(boundary)));
        expect_boundary_crash(|| {
            train_supercircuit_rt(&sc, &task, &cfg, &rt);
        });

        // Resume under forced-sequential simulation: per-sample fan-out
        // must not influence the trajectory.
        let rt = SearchRuntime::new(ckpt_options(dir.path(), 1, true));
        let (params, history) = with_inline_maps(|| train_supercircuit_rt(&sc, &task, &cfg, &rt));
        assert_eq!(rt.metrics().counter(counters::CHECKPOINT_RESUMES), 1);
        assert_f64s_bitwise_eq(&params, &reference.0, "params");
        assert_f64s_bitwise_eq(&history, &reference.1, "history");
    }
}

#[test]
fn pruning_killed_and_resumed_is_bitwise_identical() {
    let (sc, params, task, _) = setup();
    let encoder = match &task {
        Task::Qml { encoder, .. } => encoder.clone(),
        _ => unreachable!(),
    };
    let circuit = sc.build(&sc.max_config(), Some(&encoder));
    let cfg = PruneConfig {
        steps: 3,
        finetune_epochs: 1,
        seed: 11,
        ..Default::default()
    };
    let assert_prune_eq = |resumed: &PruneResult, reference: &PruneResult| {
        assert_f64s_bitwise_eq(&resumed.params, &reference.params, "params");
        assert_eq!(resumed.mask, reference.mask);
        assert_eq!(
            resumed.pruned_ratio.to_bits(),
            reference.pruned_ratio.to_bits()
        );
        assert_eq!(resumed.final_loss.to_bits(), reference.final_loss.to_bits());
    };
    let reference = {
        let rt = SearchRuntime::new(RuntimeOptions::default());
        iterative_prune_rt(&circuit, &params, &task, &cfg, &rt)
    };
    for boundary in [1u64, 2] {
        let dir = TempDir::new(&format!("prune-b{boundary}"));
        let rt = SearchRuntime::new(ckpt_options(dir.path(), 0, false))
            .with_fault_plan(Arc::new(FaultPlan::new().crash_at_boundary(boundary)));
        expect_boundary_crash(|| {
            iterative_prune_rt(&circuit, &params, &task, &cfg, &rt);
        });

        let rt = SearchRuntime::new(ckpt_options(dir.path(), 1, true));
        let resumed = with_inline_maps(|| iterative_prune_rt(&circuit, &params, &task, &cfg, &rt));
        assert_eq!(rt.metrics().counter(counters::CHECKPOINT_RESUMES), 1);
        assert_prune_eq(&resumed, &reference);
    }
}

/// A snapshot from a different configuration must be rejected — counted
/// in telemetry — and the run must fall back to a clean start whose
/// result matches a fresh run exactly.
#[test]
fn stale_snapshot_is_rejected_not_resumed() {
    let (sc, params, task, est) = setup();
    let dir = TempDir::new("stale");
    // Write snapshots under seed 17 (crashing partway so the directory
    // holds a mid-run snapshot).
    let crash_cfg = evo_cfg(ckpt_options(dir.path(), 1, false));
    let rt = SearchRuntime::new(crash_cfg.runtime.clone())
        .with_fault_plan(Arc::new(FaultPlan::new().crash_at_boundary(2)));
    expect_boundary_crash(|| {
        evolutionary_search_seeded_rt(&sc, &params, &task, &est, &crash_cfg, &[], &rt);
    });

    // Resume under a different evolution seed: the context digest differs.
    let mut other_cfg = evo_cfg(ckpt_options(dir.path(), 1, true));
    other_cfg.seed = 99;
    let fresh_cfg = EvoConfig {
        runtime: RuntimeOptions::default(),
        ..other_cfg.clone()
    };
    let fresh = {
        let rt = SearchRuntime::new(fresh_cfg.runtime.clone());
        evolutionary_search_seeded_rt(&sc, &params, &task, &est, &fresh_cfg, &[], &rt)
    };
    let rt = SearchRuntime::new(other_cfg.runtime.clone());
    let resumed = evolutionary_search_seeded_rt(&sc, &params, &task, &est, &other_cfg, &[], &rt);
    assert_eq!(rt.metrics().counter(counters::CHECKPOINT_REJECTED), 1);
    assert_eq!(rt.metrics().counter(counters::CHECKPOINT_RESUMES), 0);
    assert_search_bitwise_eq(&resumed, &fresh);
}

/// Snapshots written for one task's data must be rejected under other
/// data that shares the task's name and width: more samples per class is
/// still "MNIST-2" on 4 qubits. Training and search each fall back to a
/// clean start that matches a fresh run exactly.
#[test]
fn snapshot_for_other_task_data_is_rejected() {
    let (sc, params, task, est) = setup();
    let other = Task::qml_digits(&[1, 8], 20, 4, 4);
    assert_eq!(other.name(), task.name());
    assert_eq!(other.num_qubits(), task.num_qubits());
    let assert_rejected = |rt: &SearchRuntime, what: &str| {
        let counter = |name| rt.metrics().counter(name);
        assert_eq!(counter(counters::CHECKPOINT_REJECTED), 1, "{what}");
        assert_eq!(counter(counters::CHECKPOINT_RESUMES), 0, "{what}");
    };

    let train_cfg = SuperTrainConfig {
        steps: 6,
        batch_size: 4,
        warmup_steps: 1,
        seed: 7,
        ..Default::default()
    };
    let dir = TempDir::new("other-data-train");
    let rt = SearchRuntime::new(ckpt_options(dir.path(), 0, false))
        .with_fault_plan(Arc::new(FaultPlan::new().crash_at_boundary(3)));
    expect_boundary_crash(|| {
        train_supercircuit_rt(&sc, &task, &train_cfg, &rt);
    });
    let fresh = train_supercircuit_rt(
        &sc,
        &other,
        &train_cfg,
        &SearchRuntime::new(RuntimeOptions::default()),
    );
    let rt = SearchRuntime::new(ckpt_options(dir.path(), 0, true));
    let (resumed, history) = train_supercircuit_rt(&sc, &other, &train_cfg, &rt);
    assert_rejected(&rt, "training");
    assert_f64s_bitwise_eq(&resumed, &fresh.0, "params");
    assert_f64s_bitwise_eq(&history, &fresh.1, "history");

    let dir = TempDir::new("other-data-search");
    let crash_cfg = evo_cfg(ckpt_options(dir.path(), 1, false));
    let rt = SearchRuntime::new(crash_cfg.runtime.clone())
        .with_fault_plan(Arc::new(FaultPlan::new().crash_at_boundary(2)));
    expect_boundary_crash(|| {
        evolutionary_search_seeded_rt(&sc, &params, &task, &est, &crash_cfg, &[], &rt);
    });
    let fresh = {
        let cfg = evo_cfg(RuntimeOptions::default());
        let rt = SearchRuntime::new(cfg.runtime.clone());
        evolutionary_search_seeded_rt(&sc, &params, &other, &est, &cfg, &[], &rt)
    };
    let resume_cfg = evo_cfg(ckpt_options(dir.path(), 1, true));
    let rt = SearchRuntime::new(resume_cfg.runtime.clone());
    let resumed = evolutionary_search_seeded_rt(&sc, &params, &other, &est, &resume_cfg, &[], &rt);
    assert_rejected(&rt, "search");
    assert_search_bitwise_eq(&resumed, &fresh);
}

/// Checkpointing itself must not perturb a run: with snapshots written
/// every generation but no crash and no resume, the result matches a run
/// with checkpointing disabled, and writes are counted.
#[test]
fn checkpoint_writes_do_not_perturb_the_run() {
    let (sc, params, task, est) = setup();
    let reference = {
        let cfg = evo_cfg(RuntimeOptions::default());
        let rt = SearchRuntime::new(cfg.runtime.clone());
        evolutionary_search_seeded_rt(&sc, &params, &task, &est, &cfg, &[], &rt)
    };
    let dir = TempDir::new("no-perturb");
    let cfg = evo_cfg(ckpt_options(dir.path(), 1, false));
    let rt = SearchRuntime::new(cfg.runtime.clone());
    let result = evolutionary_search_seeded_rt(&sc, &params, &task, &est, &cfg, &[], &rt);
    assert_eq!(
        rt.metrics().counter(counters::CHECKPOINT_WRITES),
        cfg.iterations as u64
    );
    assert_search_bitwise_eq(&result, &reference);
}
