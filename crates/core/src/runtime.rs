//! Search-runtime integration: gene hashing, the score memo, and batch
//! candidate evaluation on top of [`qns_runtime`]'s cache/telemetry layers
//! and [`qns_sim`]'s worker pool.
//!
//! Every search-style workload (evolutionary co-search, random search,
//! iterative pruning, the pipeline) funnels candidate evaluation through
//! [`SearchRuntime::score_batch`], which provides:
//!
//! - **parallel fan-out** over the persistent worker pool
//!   ([`qns_sim::try_parallel_map`]: work stealing, deterministic in-order
//!   collection, panic isolation to `+inf`),
//! - **gene-level memoization** so duplicate genes produced by
//!   crossover/mutation are never re-simulated,
//! - **telemetry** — evaluation counters, per-generation events, and
//!   transpile/simulate wall-time histograms via the shared [`Metrics`]
//!   registry.
//!
//! It also holds the one resume protocol of the three checkpointed loops
//! (SuperCircuit training, evolutionary search, iterative pruning): each
//! loop calls [`SearchRuntime::resume`] once before its first unit and
//! [`SearchRuntime::boundary`] after every unit.

use crate::checkpoint::{BackendConfig, CheckpointOptions};
use crate::{Estimator, EstimatorKind, Gene};
use qns_noise::Device;
use qns_runtime::{
    counters, timers, CacheKey, CheckpointStore, Checkpointable, DigestCache, FaultPlan, Metrics,
    Snapshot, StructuralHasher, FAULT_MARKER,
};
use qns_transpile::{Layout, Transpiled};
use qns_verify::{VerifyLevel, PANIC_MARKER};
use std::sync::Arc;
use std::time::Duration;

/// User-facing runtime knobs (the CLI's `--workers` / `--no-cache` /
/// `--verify` / `--checkpoint-dir`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuntimeOptions {
    /// Worker threads for candidate evaluation; `0` = the process default
    /// (`qns_sim::set_parallelism`, else one per core).
    pub workers: usize,
    /// Enables the transpile cache and gene-score memo.
    pub cache: bool,
    /// Per-stage transpiler contract checking for every instrumented
    /// estimator ([`VerifyLevel::Off`] by default).
    pub verify: VerifyLevel,
    /// Crash-safe snapshotting of the search/train/prune loops
    /// (`None` = disabled, the default).
    pub checkpoint: Option<CheckpointOptions>,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            workers: 0,
            cache: true,
            verify: VerifyLevel::Off,
            checkpoint: None,
        }
    }
}

impl RuntimeOptions {
    /// The sequential reference configuration (one worker, no caching) —
    /// bit-identical to the historical per-gene loop.
    pub fn sequential_uncached() -> Self {
        RuntimeOptions {
            workers: 1,
            cache: false,
            verify: VerifyLevel::Off,
            checkpoint: None,
        }
    }
}

/// The outcome of one batch evaluation.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Scores in input order (`+inf` for panicked candidates).
    pub scores: Vec<f64>,
    /// Real (non-memoized) evaluations this batch.
    pub evaluated: usize,
    /// Candidates answered without a fresh evaluation: score-memo hits
    /// plus in-batch duplicates. `evaluated + memo_hits == scores.len()`
    /// always holds, so the search budget stays comparable across cache
    /// settings.
    pub memo_hits: usize,
    /// Wall time of the whole batch.
    pub elapsed: Duration,
    /// `(batch index, message)` for every fresh evaluation that failed.
    /// Verification contract violations carry the `qns-verify:` marker and
    /// are counted separately from generic worker panics; either way the
    /// corresponding score slot holds `+inf`.
    pub errors: Vec<(usize, String)>,
}

/// The per-search evaluation runtime: fan-out + caches + telemetry.
///
/// One instance serves one search context (fixed SuperCircuit, shared
/// parameters, task, estimator). The score memo keys on the gene *and* a
/// caller-provided context digest, so a runtime reused across stages
/// (e.g. under noise drift, where the device changes) stays correct.
///
/// # Examples
///
/// ```no_run
/// use quantumnas::{RuntimeOptions, SearchRuntime};
///
/// let rt = SearchRuntime::new(RuntimeOptions::default());
/// println!("{}", rt.metrics().summary());
/// ```
#[derive(Clone, Debug)]
pub struct SearchRuntime {
    options: RuntimeOptions,
    score_memo: Option<Arc<DigestCache<f64>>>,
    transpile_cache: Option<Arc<DigestCache<Transpiled>>>,
    metrics: Arc<Metrics>,
    checkpoints: Option<Arc<CheckpointStore>>,
    faults: Option<Arc<FaultPlan>>,
}

impl SearchRuntime {
    /// A runtime with the given options and a fresh metrics registry.
    ///
    /// # Panics
    ///
    /// Panics when a checkpoint directory is configured but cannot be
    /// created — checkpointing that silently does nothing would defeat
    /// its purpose.
    pub fn new(options: RuntimeOptions) -> Self {
        let checkpoints = options.checkpoint.as_ref().map(|ck| {
            let store = CheckpointStore::open(&ck.dir)
                .unwrap_or_else(|e| panic!("cannot open checkpoint dir {}: {e}", ck.dir.display()));
            Arc::new(store)
        });
        SearchRuntime {
            score_memo: options.cache.then(|| Arc::new(DigestCache::new())),
            transpile_cache: options.cache.then(|| Arc::new(DigestCache::new())),
            metrics: Arc::new(Metrics::new()),
            checkpoints,
            faults: None,
            options,
        }
    }

    /// The options this runtime was built with.
    pub fn options(&self) -> &RuntimeOptions {
        &self.options
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// A copy of `estimator` wired into this runtime: compiles go through
    /// the shared transpile cache, wall time lands in the metrics registry,
    /// and the runtime's [`RuntimeOptions::verify`] level applies to every
    /// fresh transpile.
    pub fn instrument_estimator(&self, estimator: &Estimator) -> Estimator {
        let mut est = estimator.clone().with_verify(self.options.verify);
        est.attach_runtime(self.transpile_cache.clone(), Some(self.metrics.clone()));
        est
    }

    /// Attaches a fault-injection schedule: evaluation faults fire inside
    /// each candidate's panic-isolation scope, boundary crashes fire in
    /// [`SearchRuntime::boundary`], torn writes corrupt the scheduled
    /// snapshot save.
    pub fn with_fault_plan(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The snapshot a loop resumes from, called once before its first
    /// unit: the latest valid `T` when resuming is enabled, accepted only
    /// if it carries `context`, stops at or before `total` units, and
    /// passes the loop's own `fits` checks. Corrupt snapshots skipped on
    /// the way count as `checkpoint_corrupt`; the latest valid one counts
    /// as `checkpoint_resumes` when accepted and `checkpoint_rejected`
    /// otherwise, and a rejected run starts clean.
    pub fn resume<T: Snapshot>(
        &self,
        context: CacheKey,
        total: usize,
        fits: impl FnOnce(&T) -> bool,
    ) -> Option<T> {
        let resume = self.options.checkpoint.as_ref().is_some_and(|ck| ck.resume);
        if !resume {
            return None;
        }
        let store = self.checkpoints.as_ref()?;
        let (state, corrupt) = store.load_latest::<T>();
        if corrupt > 0 {
            self.metrics
                .incr(counters::CHECKPOINT_CORRUPT, corrupt as u64);
        }
        let state = state?;
        let accepted = state.context() == context && state.done() <= total && fits(&state);
        let counter = if accepted {
            counters::CHECKPOINT_RESUMES
        } else {
            counters::CHECKPOINT_REJECTED
        };
        self.metrics.incr(counter, 1);
        accepted.then_some(state)
    }

    /// The end of a loop's `done`th of `total` units: writes `snapshot()`
    /// when one is due (every [`CheckpointOptions::every`] units, and
    /// always the last), then fires the fault plan's boundary, so a
    /// scheduled crash lands after the snapshot like a kill between two
    /// units. A failed save is counted and warned about, never fatal:
    /// losing one checkpoint must not kill a run that would otherwise
    /// finish.
    pub fn boundary<T: Snapshot>(&self, done: usize, total: usize, snapshot: impl FnOnce() -> T) {
        if let (Some(store), Some(ck)) = (&self.checkpoints, &self.options.checkpoint) {
            if done == total || done.is_multiple_of(ck.every.max(1)) {
                match store.save(&snapshot(), self.faults.as_deref()) {
                    Ok(_) => self.metrics.incr(counters::CHECKPOINT_WRITES, 1),
                    Err(e) => {
                        self.metrics.incr(counters::CHECKPOINT_IO_ERRORS, 1);
                        eprintln!("warning: checkpoint save failed: {e}");
                    }
                }
            }
        }
        if let Some(plan) = &self.faults {
            plan.at_boundary();
        }
    }

    /// A deterministic dump of the score memo (sorted by key), for
    /// inclusion in search snapshots. Empty when caching is off.
    pub fn memo_entries(&self) -> Vec<(CacheKey, f64)> {
        self.score_memo
            .as_ref()
            .map(|memo| memo.entries())
            .unwrap_or_default()
    }

    /// Re-seeds the score memo from a snapshot dump. A no-op when caching
    /// is off (the resumed run simply re-evaluates).
    pub fn restore_memo(&self, entries: &[(CacheKey, f64)]) {
        if let Some(memo) = &self.score_memo {
            for &(k, v) in entries {
                memo.insert(k, v);
            }
        }
    }

    /// Runs `f` over `items` on [`RuntimeOptions::workers`] pool threads,
    /// each item under panic isolation and the fault plan's evaluation
    /// hook — the one path every isolated evaluation takes: full scoring
    /// ([`SearchRuntime::score_batch`]), proxy features and compiled
    /// shapes. Each failed item is counted once, by its message: contract
    /// violations carry the verifier's marker, injected faults the fault
    /// plan's, and anything else is an organic worker panic. Per-sample
    /// maps inside `f` run inline when the batch fans out, so the cores
    /// are not oversubscribed.
    pub fn map_isolated<T, U>(
        &self,
        items: &[T],
        f: impl Fn(&T) -> U + Sync,
    ) -> Vec<Result<U, String>>
    where
        T: Sync,
        U: Send,
    {
        let results = qns_sim::try_parallel_map(items, self.options.workers, |item| {
            if let Some(plan) = &self.faults {
                plan.before_eval();
            }
            f(item)
        });
        for msg in results.iter().filter_map(|r| r.as_ref().err()) {
            let counter = if msg.contains(PANIC_MARKER) {
                counters::VERIFY_VIOLATIONS
            } else if msg.contains(FAULT_MARKER) {
                counters::INJECTED_FAULTS
            } else {
                counters::PANICS
            };
            self.metrics.incr(counter, 1);
        }
        results
    }

    /// Scores a batch of genes through [`SearchRuntime::map_isolated`],
    /// memoizing by `(context, gene)` digest when caching is enabled.
    ///
    /// `score` must be a pure function of its gene given the search
    /// context — the memo returns the first computed value for any
    /// duplicate. Panics inside `score` poison that gene to `+inf`.
    pub fn score_batch(
        &self,
        context: CacheKey,
        genes: &[Gene],
        score: impl Fn(&Gene) -> f64 + Sync,
    ) -> BatchOutcome {
        let run_one = |gene: &Gene| -> f64 {
            self.metrics.incr(counters::EVALUATIONS, 1);
            score(gene)
        };

        let score_all = || match &self.score_memo {
            None => {
                let results = self.map_isolated(genes, run_one);
                let mut scores = Vec::with_capacity(results.len());
                let mut errors = Vec::new();
                for (i, r) in results.into_iter().enumerate() {
                    match r {
                        Ok(s) => scores.push(s),
                        Err(msg) => {
                            scores.push(f64::INFINITY);
                            errors.push((i, msg));
                        }
                    }
                }
                (scores, genes.len(), errors)
            }
            Some(memo) => {
                let keys: Vec<CacheKey> = genes
                    .iter()
                    .map(|g| {
                        let mut h = StructuralHasher::new();
                        context.encode(&mut h);
                        g.encode(&mut h);
                        h.finish()
                    })
                    .collect();
                let mut scores: Vec<Option<f64>> =
                    keys.iter().map(|&k| memo.get(k).map(|v| *v)).collect();
                // Deduplicate the misses so one generation full of clones
                // costs a single evaluation.
                let mut fresh: Vec<usize> = Vec::new();
                for i in 0..genes.len() {
                    if scores[i].is_none() && !fresh.iter().any(|&j| keys[j] == keys[i]) {
                        fresh.push(i);
                    }
                }
                let fresh_genes: Vec<&Gene> = fresh.iter().map(|&i| &genes[i]).collect();
                let fresh_results = self.map_isolated(&fresh_genes, |g| run_one(g));
                let fresh_scores: Vec<f64> = fresh_results
                    .iter()
                    .map(|r| *r.as_ref().unwrap_or(&f64::INFINITY))
                    .collect();
                // Only successful evaluations enter the memo: a poisoned
                // +inf from a transient fault must not outlive the batch
                // and mis-score the gene forever.
                for (&i, r) in fresh.iter().zip(&fresh_results) {
                    if let Ok(s) = r {
                        memo.insert(keys[i], *s);
                    }
                }
                let mut errors = Vec::new();
                for i in 0..genes.len() {
                    if scores[i].is_none() {
                        let j = fresh
                            .iter()
                            .position(|&f| keys[f] == keys[i])
                            .expect("every missed key has a fresh representative");
                        scores[i] = Some(fresh_scores[j]);
                        if let Err(msg) = &fresh_results[j] {
                            errors.push((i, msg.clone()));
                        }
                    }
                }
                let scores = scores
                    .into_iter()
                    .map(|s| s.expect("all slots filled"))
                    .collect();
                (scores, fresh.len(), errors)
            }
        };
        let ((scores, evaluated, errors), elapsed) = self.metrics.timed(timers::BATCH, score_all);
        let memo_hits = genes.len() - evaluated;
        self.metrics.incr(counters::MEMO_HITS, memo_hits as u64);
        BatchOutcome {
            scores,
            evaluated,
            memo_hits,
            elapsed,
            errors,
        }
    }
}

/// The canonical digest of a gene alone (population dedup): its full
/// identity (architecture + mapping), the bytes a snapshot stores.
pub fn gene_key(gene: &Gene) -> CacheKey {
    let mut h = StructuralHasher::new();
    gene.encode(&mut h);
    h.finish()
}

/// Feeds everything about a device that affects compilation or noise:
/// name, size, coupling map, calibration errors, and gate durations.
/// Distinguishes e.g. `yorktown` from `yorktown.scaled_errors(3.0)`.
pub fn hash_device(h: &mut StructuralHasher, device: &Device) {
    h.write_str(device.name());
    h.write_usize(device.num_qubits());
    h.write_usize(device.edges().len());
    for &(a, b) in device.edges() {
        h.write_usize(a);
        h.write_usize(b);
        h.write_f64(device.err_2q(a, b));
    }
    for q in 0..device.num_qubits() {
        let calib = device.qubit(q);
        h.write_f64(device.err_1q(q));
        h.write_f64(calib.t1_ns);
        h.write_f64(calib.t2_ns);
        h.write_f64(calib.readout_p01);
        h.write_f64(calib.readout_p10);
    }
    h.write_f64(device.dur_1q_ns());
    h.write_f64(device.dur_2q_ns());
    h.write_f64(device.dur_readout_ns());
}

/// Feeds the estimator mode (kind tag plus trajectory settings).
pub fn hash_estimator_kind(h: &mut StructuralHasher, kind: EstimatorKind) {
    match kind {
        EstimatorKind::Noiseless => h.write_u64(0),
        EstimatorKind::NoisySim(cfg) => {
            h.write_u64(1);
            h.write_usize(cfg.trajectories);
            h.write_u64(cfg.seed);
            h.write_u64(cfg.readout as u64);
        }
        EstimatorKind::SuccessRate => h.write_u64(2),
        EstimatorKind::DensitySim => h.write_u64(3),
    }
}

/// Feeds a logical circuit's structure: every op's gate kind, qubits, and
/// parameter bindings.
pub fn hash_circuit(h: &mut StructuralHasher, circuit: &qns_circuit::Circuit) {
    h.write_usize(circuit.num_qubits());
    h.write_usize(circuit.num_ops());
    for op in circuit.iter() {
        h.write_u64(op.kind as u64);
        for &q in &op.qubits[..op.num_qubits()] {
            h.write_usize(q);
        }
        h.write_usize(op.params.len());
        for p in &op.params {
            hash_param(h, p);
        }
    }
}

/// Feeds a task's content, so two tasks that share a name and width but
/// not their data never share a score memo or a snapshot: for QML, the
/// encoder, the readout groups and every split's features and labels; for
/// VQE, the Hamiltonian's terms.
pub(crate) fn hash_task(h: &mut StructuralHasher, task: &crate::Task) {
    match task {
        crate::Task::Qml {
            splits,
            encoder,
            readout,
            ..
        } => {
            h.write_u64(0);
            hash_circuit(h, encoder);
            h.write_usize(readout.groups.len());
            for group in &readout.groups {
                h.write_usize(group.len());
                for &q in group {
                    h.write_usize(q);
                }
            }
            for split in [&splits.train, &splits.valid, &splits.test] {
                h.write_usize(split.num_samples());
                for (features, &label) in split.features.iter().zip(&split.labels) {
                    h.write_usize(features.len());
                    for &x in features {
                        h.write_f64(x);
                    }
                    h.write_usize(label);
                }
            }
        }
        crate::Task::Vqe { hamiltonian, .. } => {
            h.write_u64(1);
            h.write_usize(hamiltonian.num_qubits());
            h.write_usize(hamiltonian.terms().len());
            for &(coeff, pauli) in hamiltonian.terms() {
                h.write_f64(coeff);
                h.write_u64(pauli.x);
                h.write_u64(pauli.z);
            }
        }
    }
}

fn hash_param(h: &mut StructuralHasher, p: &qns_circuit::Param) {
    use qns_circuit::Param;
    match *p {
        Param::Fixed(v) => {
            h.write_u64(0);
            h.write_f64(v);
        }
        Param::Input(i) => {
            h.write_u64(1);
            h.write_usize(i);
        }
        Param::Train(i) => {
            h.write_u64(2);
            h.write_usize(i);
        }
        Param::AffineInput {
            index,
            scale,
            offset,
        } => {
            h.write_u64(3);
            h.write_usize(index);
            h.write_f64(scale);
            h.write_f64(offset);
        }
        Param::AffineTrain {
            index,
            scale,
            offset,
        } => {
            h.write_u64(4);
            h.write_usize(index);
            h.write_f64(scale);
            h.write_f64(offset);
        }
    }
}

/// The content digest keying one transpile: circuit structure, device
/// fingerprint, layout, and optimization level. Distinct devices or opt
/// levels can never share an entry.
pub fn transpile_key(
    circuit: &qns_circuit::Circuit,
    device: &Device,
    layout: &Layout,
    opt_level: u8,
) -> CacheKey {
    let mut h = StructuralHasher::new();
    hash_circuit(&mut h, circuit);
    hash_device(&mut h, device);
    let phys = layout.as_slice();
    h.write_usize(phys.len());
    for &p in phys {
        h.write_usize(p);
    }
    h.write_u64(opt_level as u64);
    h.finish()
}

/// The search-context digest for the score memo: everything besides the
/// gene that determines a score (device, estimator mode, opt level,
/// validation cap, task content, parameter budget, shared parameters).
pub fn search_context_key(
    estimator: &Estimator,
    task: &crate::Task,
    shared_params: &[f64],
    max_params: Option<usize>,
) -> CacheKey {
    let mut h = StructuralHasher::new();
    hash_device(&mut h, estimator.device());
    hash_estimator_kind(&mut h, estimator.kind());
    // The backend (and its truncation policy) is part of the scoring
    // context: exact and MPS-truncated scores must never share a memo,
    // and an mps↔statevec resume must be rejected as stale.
    BackendConfig::of(estimator.backend()).encode(&mut h);
    h.write_u64(estimator.opt_level() as u64);
    h.write_usize(estimator.valid_cap());
    hash_task(&mut h, task);
    match max_params {
        Some(m) => {
            h.write_u64(1);
            h.write_usize(m);
        }
        None => h.write_u64(0),
    }
    h.write_usize(shared_params.len());
    for &p in shared_params {
        h.write_f64(p);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::PruneCheckpoint;
    use crate::SubConfig;
    use qns_noise::TrajectoryConfig;

    fn gene(widths: Vec<Vec<usize>>, layout: Vec<usize>) -> Gene {
        Gene {
            config: SubConfig {
                n_blocks: widths.len(),
                widths,
            },
            layout,
        }
    }

    #[test]
    fn gene_keys_separate_config_and_layout() {
        let a = gene(vec![vec![2, 3]], vec![0, 1]);
        let b = gene(vec![vec![2, 3]], vec![1, 0]);
        let c = gene(vec![vec![3, 2]], vec![0, 1]);
        assert_eq!(gene_key(&a), gene_key(&a.clone()));
        assert_ne!(gene_key(&a), gene_key(&b));
        assert_ne!(gene_key(&a), gene_key(&c));
        assert_ne!(gene_key(&b), gene_key(&c));
    }

    #[test]
    fn device_fingerprints_distinguish_scaled_errors() {
        let base = Device::yorktown();
        let scaled = base.scaled_errors(3.0);
        let (mut h1, mut h2, mut h3) = (
            StructuralHasher::new(),
            StructuralHasher::new(),
            StructuralHasher::new(),
        );
        hash_device(&mut h1, &base);
        hash_device(&mut h2, &scaled);
        hash_device(&mut h3, &Device::yorktown());
        assert_eq!(h1.finish(), h3.finish());
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn estimator_kind_digests_differ() {
        let kinds = [
            EstimatorKind::Noiseless,
            EstimatorKind::SuccessRate,
            EstimatorKind::DensitySim,
            EstimatorKind::NoisySim(TrajectoryConfig::default()),
        ];
        let mut keys: Vec<CacheKey> = kinds
            .iter()
            .map(|&k| {
                let mut h = StructuralHasher::new();
                hash_estimator_kind(&mut h, k);
                h.finish()
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), kinds.len());
    }

    #[test]
    fn context_key_separates_backends() {
        // Statevec and MPS scores — or two different truncation policies —
        // must never share a memo or accept each other's checkpoints.
        use qns_sim::{MpsConfig, SimBackend};
        let task = crate::Task::vqe(&qns_chem::Molecule::h2());
        let backends = [
            SimBackend::Fast,
            SimBackend::Reference,
            SimBackend::Mps(MpsConfig::exact()),
            SimBackend::Mps(MpsConfig::default()),
            SimBackend::Mps(MpsConfig {
                max_bond: 8,
                ..Default::default()
            }),
        ];
        let mut keys: Vec<CacheKey> = backends
            .iter()
            .map(|&b| {
                let est =
                    Estimator::new(Device::belem(), EstimatorKind::Noiseless, 2).with_backend(b);
                search_context_key(&est, &task, &[], None)
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), backends.len(), "backend configs collided");
        // Same backend twice: stable.
        let est = Estimator::new(Device::belem(), EstimatorKind::Noiseless, 2)
            .with_backend(SimBackend::Mps(MpsConfig::default()));
        assert_eq!(
            search_context_key(&est, &task, &[], None),
            search_context_key(&est, &task, &[], None)
        );
    }

    #[test]
    fn score_batch_memoizes_duplicates_and_isolates_panics() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let rt = SearchRuntime::new(RuntimeOptions {
            workers: 2,
            cache: true,
            ..Default::default()
        });
        let g1 = gene(vec![vec![1, 1]], vec![0, 1]);
        let g2 = gene(vec![vec![2, 2]], vec![0, 1]);
        let bad = gene(vec![vec![3, 3]], vec![0, 1]);
        let batch = vec![g1.clone(), g2.clone(), g1.clone(), bad.clone()];
        let calls = AtomicUsize::new(0);
        let ctx = CacheKey { lo: 1, hi: 2 };
        let out = rt.score_batch(ctx, &batch, |g| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert!(g.config.widths[0][0] != 3, "synthetic panic");
            g.config.widths[0][0] as f64
        });
        assert_eq!(out.scores[0], 1.0);
        assert_eq!(out.scores[1], 2.0);
        assert_eq!(out.scores[2], 1.0);
        assert!(out.scores[3].is_infinite());
        assert_eq!(out.evaluated, 3, "duplicate g1 deduped within batch");
        assert_eq!(out.memo_hits, 1, "the in-batch duplicate counts as a hit");
        assert_eq!(calls.load(Ordering::Relaxed), 3);

        // Second batch: everything but a fresh gene is memoized.
        let out2 = rt.score_batch(ctx, &[g1, g2, gene(vec![vec![4]], vec![0, 1])], |g| {
            g.config.widths[0][0] as f64
        });
        assert_eq!(out2.memo_hits, 2);
        assert_eq!(out2.evaluated, 1);
        assert_eq!(out2.scores, vec![1.0, 2.0, 4.0]);
        assert_eq!(rt.metrics().counter(qns_runtime::counters::PANICS), 1);
    }

    #[test]
    fn a_failing_gene_duplicated_in_a_batch_is_counted_once() {
        let rt = SearchRuntime::new(RuntimeOptions {
            workers: 1,
            cache: true,
            ..Default::default()
        });
        let bad = gene(vec![vec![3, 3]], vec![0, 1]);
        let out = rt.score_batch(CacheKey { lo: 3, hi: 4 }, &[bad.clone(), bad], |_| {
            panic!("synthetic panic")
        });
        assert_eq!(out.errors.len(), 2, "both copies are poisoned");
        assert_eq!(out.evaluated, 1);
        let counter = |name| rt.metrics().counter(name);
        assert_eq!(counter(qns_runtime::counters::EVALUATIONS), 1);
        assert_eq!(counter(qns_runtime::counters::PANICS), 1);
    }

    #[test]
    fn injected_faults_poison_exactly_one_slot() {
        let items: Vec<usize> = (0..12).collect();
        let plan = Arc::new(FaultPlan::new().fail_eval(5));
        let rt =
            SearchRuntime::new(RuntimeOptions::sequential_uncached()).with_fault_plan(plan.clone());
        let out = rt.map_isolated(&items, |&x| x);
        let failed: Vec<usize> = out
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.is_err())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(failed, vec![4], "sequential mode fails the 5th eval");
        let msg = out[4].as_ref().unwrap_err();
        assert!(msg.starts_with(FAULT_MARKER), "got {msg:?}");
        assert_eq!(plan.evals_seen(), 12);
    }

    /// A fresh snapshot directory for one test, removed on drop.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(name: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("qns-rt-{}-{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn checkpointed(dir: &TempDir, every: usize, resume: bool) -> SearchRuntime {
        let ck = CheckpointOptions::new(&dir.0).every(every);
        SearchRuntime::new(RuntimeOptions {
            checkpoint: Some(if resume { ck.resume() } else { ck }),
            ..RuntimeOptions::sequential_uncached()
        })
    }

    const CTX: CacheKey = CacheKey { lo: 5, hi: 6 };

    fn snapshot(round: usize) -> PruneCheckpoint {
        PruneCheckpoint {
            context: CTX,
            round,
            params: vec![0.5; 3],
            mask: vec![true; 3],
            final_loss: 0.25,
        }
    }

    #[test]
    fn resume_accepts_a_snapshot_of_this_run() {
        let dir = TempDir::new("accept");
        checkpointed(&dir, 1, false).boundary(2, 3, || snapshot(2));
        let rt = checkpointed(&dir, 1, true);
        let resumed = rt.resume(CTX, 3, |ck: &PruneCheckpoint| ck.mask.len() == 3);
        assert_eq!(resumed, Some(snapshot(2)));
        assert_eq!(rt.metrics().counter(counters::CHECKPOINT_RESUMES), 1);
        assert_eq!(rt.metrics().counter(counters::CHECKPOINT_REJECTED), 0);
        // Without resuming enabled the snapshot is not even read.
        let fresh = checkpointed(&dir, 1, false);
        assert_eq!(fresh.resume::<PruneCheckpoint>(CTX, 3, |_| true), None);
        assert_eq!(fresh.metrics().counter(counters::CHECKPOINT_RESUMES), 0);
    }

    #[test]
    fn resume_rejects_another_context_a_misfit_and_an_overrun() {
        let dir = TempDir::new("reject");
        checkpointed(&dir, 1, false).boundary(2, 3, || snapshot(2));
        let other = CacheKey { lo: 7, hi: 8 };
        // (context, total, fits): a stale context, a failed `fits` check,
        // and a snapshot past the loop's end.
        for (context, total, fits) in [(other, 3, true), (CTX, 3, false), (CTX, 1, true)] {
            let rt = checkpointed(&dir, 1, true);
            assert_eq!(rt.resume::<PruneCheckpoint>(context, total, |_| fits), None);
            assert_eq!(rt.metrics().counter(counters::CHECKPOINT_REJECTED), 1);
            assert_eq!(rt.metrics().counter(counters::CHECKPOINT_RESUMES), 0);
        }
    }

    #[test]
    fn resume_counts_and_skips_a_corrupt_snapshot() {
        let dir = TempDir::new("corrupt");
        let writer =
            checkpointed(&dir, 1, false).with_fault_plan(Arc::new(FaultPlan::new().torn_write(2)));
        writer.boundary(1, 3, || snapshot(1));
        writer.boundary(2, 3, || snapshot(2));
        let rt = checkpointed(&dir, 1, true);
        assert_eq!(rt.resume(CTX, 3, |_| true), Some(snapshot(1)));
        assert_eq!(rt.metrics().counter(counters::CHECKPOINT_CORRUPT), 1);
        assert_eq!(rt.metrics().counter(counters::CHECKPOINT_RESUMES), 1);
    }

    #[test]
    fn boundary_writes_every_n_units_and_always_the_last() {
        let dir = TempDir::new("every");
        let rt = checkpointed(&dir, 2, false);
        let mut written = Vec::new();
        for done in 1..=5 {
            rt.boundary(done, 5, || {
                written.push(done);
                snapshot(done)
            });
        }
        assert_eq!(written, vec![2, 4, 5]);
        assert_eq!(rt.metrics().counter(counters::CHECKPOINT_WRITES), 3);
        // Without a checkpoint directory no snapshot is ever built.
        let off = SearchRuntime::new(RuntimeOptions::sequential_uncached());
        off.boundary(1, 1, || -> PruneCheckpoint {
            unreachable!("no snapshot is due")
        });
        assert_eq!(off.metrics().counter(counters::CHECKPOINT_WRITES), 0);
    }

    #[test]
    fn boundary_writes_the_snapshot_before_a_scheduled_crash() {
        let dir = TempDir::new("crash");
        let plan = Arc::new(FaultPlan::new().crash_at_boundary(2));
        let rt = checkpointed(&dir, 1, false).with_fault_plan(plan.clone());
        rt.boundary(1, 3, || snapshot(1));
        let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.boundary(2, 3, || snapshot(2));
        }));
        assert!(crash.is_err(), "boundary 2 crashes");
        assert_eq!(plan.boundaries_seen(), 2);
        let store = CheckpointStore::open(&dir.0).expect("open snapshot dir");
        assert_eq!(
            store.load_latest::<PruneCheckpoint>(),
            (Some(snapshot(2)), 0)
        );
    }

    #[test]
    fn context_digest_partitions_the_memo() {
        let rt = SearchRuntime::new(RuntimeOptions {
            workers: 1,
            cache: true,
            ..Default::default()
        });
        let g = gene(vec![vec![1]], vec![0]);
        let a = rt.score_batch(CacheKey { lo: 0, hi: 0 }, std::slice::from_ref(&g), |_| 1.0);
        let b = rt.score_batch(CacheKey { lo: 9, hi: 9 }, &[g], |_| 2.0);
        assert_eq!(a.scores, vec![1.0]);
        assert_eq!(b.scores, vec![2.0], "different context must not share");
    }
}
