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

use crate::checkpoint::{BackendConfig, CheckpointOptions};
use crate::{Estimator, EstimatorKind, Gene, SubConfig};
use qns_noise::Device;
use qns_runtime::{
    counters, timers, ByteWriter, CacheKey, CheckpointStore, Checkpointable, FaultPlan, Metrics,
    ShardedCache, StructuralHasher, FAULT_MARKER,
};
use qns_transpile::{Layout, Transpiled};
use qns_verify::{VerifyLevel, PANIC_MARKER};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    score_memo: Option<Arc<ShardedCache<f64>>>,
    transpile_cache: Option<Arc<ShardedCache<Transpiled>>>,
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
            score_memo: options.cache.then(|| Arc::new(ShardedCache::new(32))),
            transpile_cache: options.cache.then(|| Arc::new(ShardedCache::new(32))),
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

    /// The transpile cache, when caching is enabled.
    pub fn transpile_cache(&self) -> Option<&Arc<ShardedCache<Transpiled>>> {
        self.transpile_cache.as_ref()
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
    /// each candidate's panic-isolation scope, boundary crashes fire at
    /// [`SearchRuntime::fault_boundary`] call sites, torn writes corrupt
    /// the scheduled snapshot save.
    pub fn with_fault_plan(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// Loop-boundary hook for the fault plan: a scheduled boundary crash
    /// panics here, *outside* any isolation scope, simulating a process
    /// kill between checkpoints. A no-op without a plan.
    pub fn fault_boundary(&self) {
        if let Some(plan) = &self.faults {
            plan.at_boundary();
        }
    }

    /// Whether a snapshot should be written after `completed` of `total`
    /// loop units. Always saves the final boundary; otherwise every
    /// [`CheckpointOptions::every`] units. `false` when checkpointing is
    /// disabled.
    pub fn should_checkpoint(&self, completed: usize, total: usize) -> bool {
        match (&self.checkpoints, &self.options.checkpoint) {
            (Some(_), Some(ck)) => completed == total || completed.is_multiple_of(ck.every.max(1)),
            _ => false,
        }
    }

    /// Writes a snapshot (counted in telemetry). An I/O failure is
    /// counted and swallowed: losing one checkpoint must not kill a run
    /// that would otherwise finish.
    pub fn save_checkpoint<T: Checkpointable>(&self, state: &T) {
        let Some(store) = &self.checkpoints else {
            return;
        };
        match store.save(state, self.faults.as_deref()) {
            Ok(_) => self.metrics.incr(counters::CHECKPOINT_WRITES, 1),
            Err(e) => {
                self.metrics.incr(counters::CHECKPOINT_IO_ERRORS, 1);
                eprintln!("warning: checkpoint save failed: {e}");
            }
        }
    }

    /// Loads the latest valid snapshot when resuming is enabled. Corrupt
    /// snapshots skipped on the way are counted in telemetry; the caller
    /// must still validate the snapshot's context digest against the
    /// current run and call [`SearchRuntime::note_resumed`] or
    /// [`SearchRuntime::note_checkpoint_rejected`] accordingly.
    pub fn load_checkpoint<T: Checkpointable>(&self) -> Option<T> {
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
        state
    }

    /// Records a successful resume from a snapshot.
    pub fn note_resumed(&self) {
        self.metrics.incr(counters::CHECKPOINT_RESUMES, 1);
    }

    /// Records a snapshot rejected at resume (stale context: the run's
    /// configuration no longer matches the one that wrote it).
    pub fn note_checkpoint_rejected(&self) {
        self.metrics.incr(counters::CHECKPOINT_REJECTED, 1);
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
        // lint:allow(wallclock) — batch wall time is telemetry only, never a score input
        let start = Instant::now();
        let run_one = |gene: &Gene| -> f64 {
            self.metrics.incr(counters::EVALUATIONS, 1);
            score(gene)
        };

        let outcome = match &self.score_memo {
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
                BatchOutcome {
                    evaluated: genes.len(),
                    memo_hits: 0,
                    elapsed: start.elapsed(),
                    scores,
                    errors,
                }
            }
            Some(memo) => {
                let keys: Vec<CacheKey> = genes
                    .iter()
                    .map(|g| {
                        let mut h = StructuralHasher::new();
                        h.write_u64(context.lo);
                        h.write_u64(context.hi);
                        hash_gene(&mut h, g);
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
                BatchOutcome {
                    evaluated: fresh.len(),
                    memo_hits: genes.len() - fresh.len(),
                    elapsed: start.elapsed(),
                    scores: scores
                        .into_iter()
                        .map(|s| s.expect("all slots filled"))
                        .collect(),
                    errors,
                }
            }
        };

        self.metrics
            .incr(counters::MEMO_HITS, outcome.memo_hits as u64);
        self.metrics
            .histogram(timers::BATCH)
            .record(outcome.elapsed);
        outcome
    }
}

/// Feeds a gene's full identity (architecture + mapping).
pub(crate) fn hash_gene(h: &mut StructuralHasher, gene: &Gene) {
    hash_subconfig(h, &gene.config);
    h.write_usize(gene.layout.len());
    for &p in &gene.layout {
        h.write_usize(p);
    }
}

/// The canonical digest of a gene alone (population dedup).
pub fn gene_key(gene: &Gene) -> CacheKey {
    let mut h = StructuralHasher::new();
    hash_gene(&mut h, gene);
    h.finish()
}

fn hash_subconfig(h: &mut StructuralHasher, cfg: &SubConfig) {
    h.write_usize(cfg.n_blocks);
    h.write_usize(cfg.widths.len());
    for block in &cfg.widths {
        h.write_usize(block.len());
        for &w in block {
            h.write_usize(w);
        }
    }
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
/// validation cap, task identity, parameter budget, shared parameters).
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
    let mut bw = ByteWriter::new();
    BackendConfig::of(estimator.backend()).encode(&mut bw);
    h.write_bytes(&bw.into_bytes());
    h.write_u64(estimator.opt_level() as u64);
    h.write_usize(estimator.valid_cap());
    h.write_str(task.name());
    h.write_usize(task.num_qubits());
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
