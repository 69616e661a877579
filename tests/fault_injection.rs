//! Fault-injection drills: injected evaluation panics must stay isolated
//! and correctly classified, the score memo must never absorb a fault,
//! and torn or truncated snapshots must be detected and skipped in favor
//! of the previous valid one.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use qns_noise::Device;
use qns_runtime::{counters, CacheKey, StructuralHasher};
use quantumnas::{
    evolutionary_search_seeded_rt, gene_key, CheckpointOptions, DesignSpace, Estimator,
    EstimatorKind, EvoConfig, FaultPlan, Gene, ProxyOptions, RuntimeOptions, SearchRuntime,
    SpaceKind, SuperCircuit, Task, FAULT_MARKER,
};

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("qns-fault-{}-{name}", std::process::id()));
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

/// Distinct genes on the maximal architecture (layouts are rotations of
/// the trivial mapping, all valid on a 5-qubit device).
fn genes(sc: &SuperCircuit, n: usize) -> Vec<Gene> {
    (0..n)
        .map(|r| Gene {
            config: sc.max_config(),
            layout: (0..4).map(|q| (q + r) % 4).collect(),
        })
        .collect()
}

fn context() -> CacheKey {
    let mut h = StructuralHasher::new();
    h.write_str("fault-injection-test");
    h.finish()
}

/// An injected mid-eval panic is confined to its own candidate: the
/// search completes, the fault is counted under its own telemetry name
/// (not as an organic panic), and every other score is untouched.
#[test]
fn injected_eval_fault_is_isolated_and_classified() {
    let (sc, params, task, est) = setup();
    let reference = {
        let cfg = evo_cfg(RuntimeOptions::default());
        let rt = SearchRuntime::new(cfg.runtime.clone());
        evolutionary_search_seeded_rt(&sc, &params, &task, &est, &cfg, &[], &rt)
    };

    // Fault the 5th evaluation of the first generation (sequential
    // evaluation, so "5th" names a specific candidate). With the memo
    // disabled the search keeps re-evaluating, so every generation after
    // the first re-scores the survivors cleanly and the final result
    // matches the reference.
    let cfg = evo_cfg(RuntimeOptions {
        workers: 1,
        cache: false,
        ..Default::default()
    });
    let rt = SearchRuntime::new(cfg.runtime.clone())
        .with_fault_plan(Arc::new(FaultPlan::new().fail_eval(5)));
    let faulted = evolutionary_search_seeded_rt(&sc, &params, &task, &est, &cfg, &[], &rt);

    assert_eq!(rt.metrics().counter(counters::INJECTED_FAULTS), 1);
    assert_eq!(rt.metrics().counter(counters::PANICS), 0);
    assert_eq!(rt.metrics().counter(counters::VERIFY_VIOLATIONS), 0);
    assert_eq!(faulted.best, reference.best);
    assert_eq!(faulted.best_score.to_bits(), reference.best_score.to_bits());
}

/// With proxy prescreening on, the first isolated evaluation of a search
/// computes proxy features. A fault injected there is counted as an
/// injected fault, exactly as one injected into full scoring is, and not
/// as an organic panic.
#[test]
fn injected_proxy_fault_is_classified_as_injected() {
    let (sc, params, task, est) = setup();
    let cfg = EvoConfig {
        proxy: ProxyOptions {
            enabled: true,
            keep: 0.5,
            warmup: 1,
        },
        ..evo_cfg(RuntimeOptions {
            workers: 1,
            cache: false,
            ..Default::default()
        })
    };
    let rt = SearchRuntime::new(cfg.runtime.clone())
        .with_fault_plan(Arc::new(FaultPlan::new().fail_eval(1)));
    evolutionary_search_seeded_rt(&sc, &params, &task, &est, &cfg, &[], &rt);

    assert_eq!(rt.metrics().counter(counters::INJECTED_FAULTS), 1);
    assert_eq!(rt.metrics().counter(counters::PANICS), 0);
    assert_eq!(rt.metrics().counter(counters::VERIFY_VIOLATIONS), 0);
}

/// The score memo must never absorb a fault: a faulted candidate's `+inf`
/// stays out of the memo, so re-scoring the same batch re-evaluates
/// exactly that candidate and gets the true score.
#[test]
fn faults_never_poison_the_score_memo() {
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 2);
    let batch = genes(&sc, 4);
    let score = |g: &Gene| (gene_key(g).lo % 1024) as f64;
    let clean: Vec<f64> = batch.iter().map(score).collect();

    let rt = SearchRuntime::new(RuntimeOptions {
        workers: 1,
        ..Default::default()
    })
    .with_fault_plan(Arc::new(FaultPlan::new().fail_eval(2)));

    let first = rt.score_batch(context(), &batch, score);
    assert_eq!(first.errors.len(), 1);
    let (faulted_idx, msg) = &first.errors[0];
    assert!(msg.contains(FAULT_MARKER), "message was {msg:?}");
    assert!(first.scores[*faulted_idx].is_infinite());

    // Second pass: the three clean scores come from the memo, the faulted
    // one is re-evaluated and now succeeds.
    let second = rt.score_batch(context(), &batch, score);
    assert!(second.errors.is_empty());
    assert_eq!(second.evaluated, 1);
    assert_eq!(second.memo_hits, batch.len() - 1);
    for (got, want) in second.scores.iter().zip(&clean) {
        assert_eq!(got.to_bits(), want.to_bits());
    }
}

/// A snapshot published torn (simulated mid-`write` crash) fails its CRC
/// on load; the resumed run counts it and falls back to the previous
/// snapshot, still finishing bitwise-identical to an uninterrupted run.
#[test]
fn torn_snapshot_falls_back_to_previous_and_resumes_bitwise() {
    let (sc, params, task, est) = setup();
    let reference = {
        let cfg = evo_cfg(RuntimeOptions::default());
        let rt = SearchRuntime::new(cfg.runtime.clone());
        evolutionary_search_seeded_rt(&sc, &params, &task, &est, &cfg, &[], &rt)
    };

    // Tear the 3rd snapshot write, then crash at the 3rd boundary: the
    // newest snapshot on disk is garbage and generation 2's must carry
    // the resume.
    let dir = TempDir::new("torn");
    let cfg = evo_cfg(RuntimeOptions {
        checkpoint: Some(CheckpointOptions::new(dir.path())),
        ..Default::default()
    });
    let rt = SearchRuntime::new(cfg.runtime.clone()).with_fault_plan(Arc::new(
        FaultPlan::new().torn_write(3).crash_at_boundary(3),
    ));
    let crash = catch_unwind(AssertUnwindSafe(|| {
        evolutionary_search_seeded_rt(&sc, &params, &task, &est, &cfg, &[], &rt);
    }));
    assert!(crash.is_err(), "boundary crash should fire");

    let cfg = evo_cfg(RuntimeOptions {
        checkpoint: Some(CheckpointOptions::new(dir.path()).resume()),
        ..Default::default()
    });
    let rt = SearchRuntime::new(cfg.runtime.clone());
    let resumed = evolutionary_search_seeded_rt(&sc, &params, &task, &est, &cfg, &[], &rt);
    assert_eq!(rt.metrics().counter(counters::CHECKPOINT_CORRUPT), 1);
    assert_eq!(rt.metrics().counter(counters::CHECKPOINT_RESUMES), 1);
    assert_eq!(resumed.best, reference.best);
    assert_eq!(resumed.best_score.to_bits(), reference.best_score.to_bits());
    assert_eq!(resumed.evaluations, reference.evaluations);
}

/// Truncating the newest snapshot on disk (a crash mid-`rename` or a
/// partial copy) must likewise be detected — never a panic — and resume
/// from the snapshot before it.
#[test]
fn truncated_snapshot_is_skipped_not_fatal() {
    let (sc, params, task, est) = setup();
    let reference = {
        let cfg = evo_cfg(RuntimeOptions::default());
        let rt = SearchRuntime::new(cfg.runtime.clone());
        evolutionary_search_seeded_rt(&sc, &params, &task, &est, &cfg, &[], &rt)
    };

    let dir = TempDir::new("truncated");
    let cfg = evo_cfg(RuntimeOptions {
        checkpoint: Some(CheckpointOptions::new(dir.path())),
        ..Default::default()
    });
    let rt = SearchRuntime::new(cfg.runtime.clone())
        .with_fault_plan(Arc::new(FaultPlan::new().crash_at_boundary(3)));
    let crash = catch_unwind(AssertUnwindSafe(|| {
        evolutionary_search_seeded_rt(&sc, &params, &task, &est, &cfg, &[], &rt);
    }));
    assert!(crash.is_err(), "boundary crash should fire");

    // Chop the newest snapshot in half.
    let mut snapshots: Vec<PathBuf> = std::fs::read_dir(dir.path())
        .expect("read checkpoint dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .collect();
    snapshots.sort();
    let newest = snapshots.last().expect("snapshots were written");
    let bytes = std::fs::read(newest).expect("read snapshot");
    std::fs::write(newest, &bytes[..bytes.len() / 2]).expect("truncate snapshot");

    let cfg = evo_cfg(RuntimeOptions {
        checkpoint: Some(CheckpointOptions::new(dir.path()).resume()),
        ..Default::default()
    });
    let rt = SearchRuntime::new(cfg.runtime.clone());
    let resumed = evolutionary_search_seeded_rt(&sc, &params, &task, &est, &cfg, &[], &rt);
    assert_eq!(rt.metrics().counter(counters::CHECKPOINT_CORRUPT), 1);
    assert_eq!(rt.metrics().counter(counters::CHECKPOINT_RESUMES), 1);
    assert_eq!(resumed.best, reference.best);
    assert_eq!(resumed.best_score.to_bits(), reference.best_score.to_bits());
    assert_eq!(resumed.evaluations, reference.evaluations);
}
