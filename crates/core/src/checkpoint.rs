//! Resumable-state definitions for the three long-running loops.
//!
//! Each loop owns one snapshot type — [`TrainCheckpoint`],
//! [`SearchCheckpoint`], [`PruneCheckpoint`] — holding *everything* its
//! loop needs to continue bitwise: parameters, optimizer moments, RNG
//! stream positions, score memos. Every snapshot also carries the
//! `context` digest of the run configuration that wrote it; a resume
//! validates that digest against the current run and rejects stale
//! snapshots instead of silently mixing two configurations.
//!
//! The wire format (framing, crc, atomic writes) lives in
//! [`qns_runtime`]'s checkpoint module; this file only encodes the
//! domain payloads.

use crate::{Gene, SubConfig};
use qns_proxy::PrescreenerState;
use qns_runtime::{ByteReader, ByteWriter, CacheKey, CheckpointError, Checkpointable};
use qns_sim::SimBackend;
use std::path::PathBuf;

/// User-facing checkpoint knobs (the CLI's `--checkpoint-dir`,
/// `--checkpoint-every`, `--resume`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointOptions {
    /// Directory holding the rotated snapshot files.
    pub dir: PathBuf,
    /// Snapshot every N loop units (generations / steps / rounds); the
    /// final boundary is always snapshotted. Minimum effective value 1.
    pub every: usize,
    /// Restore from the latest valid snapshot before looping.
    pub resume: bool,
}

impl CheckpointOptions {
    /// Checkpoint into `dir` every unit, without resuming.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointOptions {
            dir: dir.into(),
            every: 1,
            resume: false,
        }
    }

    /// Sets the snapshot interval.
    pub fn every(mut self, every: usize) -> Self {
        self.every = every;
        self
    }

    /// Enables resuming from the latest valid snapshot.
    pub fn resume(mut self) -> Self {
        self.resume = true;
        self
    }
}

/// Canonical wire form of a [`SimBackend`] selection, encoded into every
/// search-context digest: a resume under a different backend — or a
/// different MPS truncation policy — hashes to a different context and is
/// rejected as stale instead of silently mixing exact and approximate
/// scores in one memo.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackendConfig {
    /// Backend discriminant: 0 = `Reference`, 1 = `Fast`, 2 = `Mps`.
    pub tag: u8,
    /// MPS bond-dimension cap (0 for the dense backends).
    pub max_bond: u64,
    /// MPS truncation cutoff as raw `f64` bits (0 for the dense backends).
    pub cutoff_bits: u64,
}

impl BackendConfig {
    /// The wire form of a backend selection.
    pub fn of(backend: SimBackend) -> Self {
        match backend {
            SimBackend::Reference => BackendConfig {
                tag: 0,
                max_bond: 0,
                cutoff_bits: 0,
            },
            SimBackend::Fast => BackendConfig {
                tag: 1,
                max_bond: 0,
                cutoff_bits: 0,
            },
            SimBackend::Mps(cfg) => BackendConfig {
                tag: 2,
                max_bond: cfg.max_bond as u64,
                cutoff_bits: cfg.truncation_cutoff.to_bits(),
            },
        }
    }

    /// Serializes the selection for context digesting.
    pub fn encode(&self, w: &mut ByteWriter) {
        let Self {
            tag,
            max_bond,
            cutoff_bits,
        } = self;
        w.put_u64(*tag as u64);
        w.put_u64(*max_bond);
        w.put_u64(*cutoff_bits);
    }
}

fn put_key(w: &mut ByteWriter, k: CacheKey) {
    w.put_u64(k.lo);
    w.put_u64(k.hi);
}

fn get_key(r: &mut ByteReader<'_>) -> Result<CacheKey, CheckpointError> {
    Ok(CacheKey {
        lo: r.get_u64()?,
        hi: r.get_u64()?,
    })
}

fn put_rng(w: &mut ByteWriter, s: [u64; 4]) {
    for word in s {
        w.put_u64(word);
    }
}

fn get_rng(r: &mut ByteReader<'_>) -> Result<[u64; 4], CheckpointError> {
    Ok([r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?])
}

fn put_f64s(w: &mut ByteWriter, xs: &[f64]) {
    w.put_usize(xs.len());
    for &x in xs {
        w.put_f64(x);
    }
}

fn get_f64s(r: &mut ByteReader<'_>) -> Result<Vec<f64>, CheckpointError> {
    let n = r.get_seq_len(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.get_f64()?);
    }
    Ok(out)
}

fn put_subconfig(w: &mut ByteWriter, cfg: &SubConfig) {
    w.put_usize(cfg.n_blocks);
    w.put_usize(cfg.widths.len());
    for block in &cfg.widths {
        w.put_usize(block.len());
        for &width in block {
            w.put_usize(width);
        }
    }
}

fn get_subconfig(r: &mut ByteReader<'_>) -> Result<SubConfig, CheckpointError> {
    let n_blocks = r.get_usize()?;
    let n = r.get_seq_len(8)?;
    let mut widths = Vec::with_capacity(n);
    for _ in 0..n {
        let m = r.get_seq_len(8)?;
        let mut block = Vec::with_capacity(m);
        for _ in 0..m {
            block.push(r.get_usize()?);
        }
        widths.push(block);
    }
    Ok(SubConfig { n_blocks, widths })
}

fn put_gene(w: &mut ByteWriter, gene: &Gene) {
    put_subconfig(w, &gene.config);
    w.put_usize(gene.layout.len());
    for &p in &gene.layout {
        w.put_usize(p);
    }
}

fn get_gene(r: &mut ByteReader<'_>) -> Result<Gene, CheckpointError> {
    let config = get_subconfig(r)?;
    let n = r.get_seq_len(8)?;
    let mut layout = Vec::with_capacity(n);
    for _ in 0..n {
        layout.push(r.get_usize()?);
    }
    Ok(Gene { config, layout })
}

/// What [`SearchRuntime::resume`](crate::SearchRuntime::resume) reads of
/// a loop snapshot: the run that wrote it and how far its loop got.
pub trait LoopSnapshot: Checkpointable {
    /// Digest of the run configuration that wrote the snapshot.
    fn context(&self) -> CacheKey;
    /// Loop units completed: training steps, generations or rounds.
    fn done(&self) -> usize;
}

/// Snapshot of the evolutionary-search loop at a generation boundary,
/// for one objective (the scalar search) or several (Pareto co-search).
#[derive(Clone, Debug, PartialEq)]
pub struct SearchCheckpoint {
    /// Digest of the run configuration (search context + evolution
    /// hyperparameters + seed population + objective vector); a resume
    /// only accepts snapshots whose context matches the current run's.
    pub context: CacheKey,
    /// Next generation to run (generations `0..generation` are done).
    pub generation: usize,
    /// The population entering `generation`.
    pub population: Vec<Gene>,
    /// Evolution RNG stream position.
    pub rng: [u64; 4],
    /// The non-dominated archive: each elite gene with its objective
    /// vector, sorted by candidate digest.
    pub archive: Vec<(Gene, Vec<f64>)>,
    /// Best gene and primary-objective value so far.
    pub best: Option<(Gene, f64)>,
    /// Best-so-far primary objective after each completed generation.
    pub history: Vec<f64>,
    /// Real evaluations so far.
    pub evaluations: usize,
    /// Memoized answers so far.
    pub memo_hits: usize,
    /// The score memo, sorted by key (deterministic dump).
    pub memo: Vec<(CacheKey, f64)>,
    /// Prescreening state (fusion weights, feature cache, counters) when
    /// the run searched with `--proxy on`; `None` for proxy-off runs. A
    /// resume rejects snapshots whose presence disagrees with the current
    /// run's proxy setting.
    pub proxy: Option<PrescreenerState>,
}

impl Checkpointable for SearchCheckpoint {
    const KIND: u32 = u32::from_le_bytes(*b"SEAR");
    const LABEL: &'static str = "search";

    fn encode(&self, w: &mut ByteWriter) {
        let Self {
            context,
            generation,
            population,
            rng,
            archive,
            best,
            history,
            evaluations,
            memo_hits,
            memo,
            proxy,
        } = self;
        put_key(w, *context);
        w.put_usize(*generation);
        w.put_usize(population.len());
        for gene in population {
            put_gene(w, gene);
        }
        put_rng(w, *rng);
        w.put_usize(archive.len());
        for (gene, objs) in archive {
            put_gene(w, gene);
            put_f64s(w, objs);
        }
        match best {
            Some((gene, score)) => {
                w.put_bool(true);
                put_gene(w, gene);
                w.put_f64(*score);
            }
            None => w.put_bool(false),
        }
        put_f64s(w, history);
        w.put_usize(*evaluations);
        w.put_usize(*memo_hits);
        w.put_usize(memo.len());
        for &(k, v) in memo {
            put_key(w, k);
            w.put_f64(v);
        }
        match proxy {
            Some(state) => {
                w.put_bool(true);
                state.encode(w);
            }
            None => w.put_bool(false),
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CheckpointError> {
        let context = get_key(r)?;
        let generation = r.get_usize()?;
        let n = r.get_seq_len(8)?;
        let mut population = Vec::with_capacity(n);
        for _ in 0..n {
            population.push(get_gene(r)?);
        }
        let rng = get_rng(r)?;
        let n = r.get_seq_len(8)?;
        let mut archive = Vec::with_capacity(n);
        for _ in 0..n {
            let gene = get_gene(r)?;
            archive.push((gene, get_f64s(r)?));
        }
        let best = if r.get_bool()? {
            let gene = get_gene(r)?;
            Some((gene, r.get_f64()?))
        } else {
            None
        };
        let history = get_f64s(r)?;
        let evaluations = r.get_usize()?;
        let memo_hits = r.get_usize()?;
        let n = r.get_seq_len(24)?;
        let mut memo = Vec::with_capacity(n);
        for _ in 0..n {
            let k = get_key(r)?;
            memo.push((k, r.get_f64()?));
        }
        let proxy = if r.get_bool()? {
            Some(PrescreenerState::decode(r)?)
        } else {
            None
        };
        Ok(SearchCheckpoint {
            context,
            generation,
            population,
            rng,
            archive,
            best,
            history,
            evaluations,
            memo_hits,
            memo,
            proxy,
        })
    }
}

impl LoopSnapshot for SearchCheckpoint {
    fn context(&self) -> CacheKey {
        self.context
    }
    fn done(&self) -> usize {
        self.generation
    }
}

/// Snapshot of the SuperCircuit training loop at a step boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainCheckpoint {
    /// Digest of the run configuration that wrote this snapshot.
    pub context: CacheKey,
    /// Next step to run (steps `0..step` are done).
    pub step: usize,
    /// Shared parameter vector.
    pub params: Vec<f64>,
    /// Adam first moments.
    pub opt_m: Vec<f64>,
    /// Adam second moments.
    pub opt_v: Vec<f64>,
    /// Adam step count.
    pub opt_t: u64,
    /// Per-step training losses so far.
    pub history: Vec<f64>,
    /// Minibatch RNG stream position.
    pub rng: [u64; 4],
    /// Sampler: previous SubCircuit sample (restricted-sampling anchor).
    pub sampler_prev: SubConfig,
    /// Sampler: schedule position.
    pub sampler_step: usize,
    /// Sampler: RNG stream position.
    pub sampler_rng: [u64; 4],
}

impl Checkpointable for TrainCheckpoint {
    const KIND: u32 = u32::from_le_bytes(*b"TRAI");
    const LABEL: &'static str = "train";

    fn encode(&self, w: &mut ByteWriter) {
        let Self {
            context,
            step,
            params,
            opt_m,
            opt_v,
            opt_t,
            history,
            rng,
            sampler_prev,
            sampler_step,
            sampler_rng,
        } = self;
        put_key(w, *context);
        w.put_usize(*step);
        put_f64s(w, params);
        put_f64s(w, opt_m);
        put_f64s(w, opt_v);
        w.put_u64(*opt_t);
        put_f64s(w, history);
        put_rng(w, *rng);
        put_subconfig(w, sampler_prev);
        w.put_usize(*sampler_step);
        put_rng(w, *sampler_rng);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CheckpointError> {
        Ok(TrainCheckpoint {
            context: get_key(r)?,
            step: r.get_usize()?,
            params: get_f64s(r)?,
            opt_m: get_f64s(r)?,
            opt_v: get_f64s(r)?,
            opt_t: r.get_u64()?,
            history: get_f64s(r)?,
            rng: get_rng(r)?,
            sampler_prev: get_subconfig(r)?,
            sampler_step: r.get_usize()?,
            sampler_rng: get_rng(r)?,
        })
    }
}

impl LoopSnapshot for TrainCheckpoint {
    fn context(&self) -> CacheKey {
        self.context
    }
    fn done(&self) -> usize {
        self.step
    }
}

/// Snapshot of the iterative-pruning loop at a round boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct PruneCheckpoint {
    /// Digest of the run configuration that wrote this snapshot.
    pub context: CacheKey,
    /// Next round to run (rounds `0..round` are done).
    pub round: usize,
    /// Fine-tuned parameter vector entering `round`.
    pub params: Vec<f64>,
    /// Current pruning mask (`true` = parameter kept).
    pub mask: Vec<bool>,
    /// Evaluation loss after the last completed round.
    pub final_loss: f64,
}

impl Checkpointable for PruneCheckpoint {
    const KIND: u32 = u32::from_le_bytes(*b"PRUN");
    const LABEL: &'static str = "prune";

    fn encode(&self, w: &mut ByteWriter) {
        let Self {
            context,
            round,
            params,
            mask,
            final_loss,
        } = self;
        put_key(w, *context);
        w.put_usize(*round);
        put_f64s(w, params);
        w.put_usize(mask.len());
        for &keep in mask {
            w.put_bool(keep);
        }
        w.put_f64(*final_loss);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CheckpointError> {
        let context = get_key(r)?;
        let round = r.get_usize()?;
        let params = get_f64s(r)?;
        let n = r.get_seq_len(1)?;
        let mut mask = Vec::with_capacity(n);
        for _ in 0..n {
            mask.push(r.get_bool()?);
        }
        Ok(PruneCheckpoint {
            context,
            round,
            params,
            mask,
            final_loss: r.get_f64()?,
        })
    }
}

impl LoopSnapshot for PruneCheckpoint {
    fn context(&self) -> CacheKey {
        self.context
    }
    fn done(&self) -> usize {
        self.round
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qns_runtime::{decode_snapshot, encode_snapshot};

    fn gene(n: usize) -> Gene {
        Gene {
            config: SubConfig {
                n_blocks: n,
                widths: (0..n).map(|b| vec![b + 1, (b % 3) + 1]).collect(),
            },
            layout: (0..4).rev().collect(),
        }
    }

    #[test]
    fn search_checkpoint_round_trips() {
        let state = SearchCheckpoint {
            context: CacheKey { lo: 7, hi: 9 },
            generation: 3,
            population: (1..5).map(gene).collect(),
            rng: [1, 2, 3, 4],
            archive: vec![
                (gene(1), vec![0.25, 18.0, 6.0]),
                (gene(3), vec![0.75, 10.0, f64::INFINITY]),
            ],
            best: Some((gene(2), -0.75)),
            history: vec![0.9, 0.5, -0.75],
            evaluations: 40,
            memo_hits: 12,
            memo: vec![
                (CacheKey { lo: 1, hi: 1 }, 0.25),
                (CacheKey { lo: 2, hi: 2 }, f64::INFINITY),
            ],
            proxy: None,
        };
        let bytes = encode_snapshot(&state);
        assert_eq!(decode_snapshot::<SearchCheckpoint>(&bytes).unwrap(), state);
    }

    #[test]
    fn search_checkpoint_with_proxy_state_round_trips() {
        use qns_proxy::{FusionModel, ProxyFeatures};
        let mut fusion = FusionModel::new();
        fusion.observe(&ProxyFeatures([1.0, 2.0, 3.0, 4.0, 5.0]), 0.5);
        fusion.observe(&ProxyFeatures([2.0, 1.0, 0.0, -1.0, 3.0]), 0.9);
        let state = SearchCheckpoint {
            context: CacheKey { lo: 7, hi: 9 },
            generation: 1,
            population: (1..3).map(gene).collect(),
            rng: [1, 2, 3, 4],
            archive: vec![(gene(1), vec![0.9])],
            best: None,
            history: vec![0.9],
            evaluations: 8,
            memo_hits: 0,
            memo: vec![],
            proxy: Some(qns_proxy::PrescreenerState {
                fusion,
                features: vec![(
                    CacheKey { lo: 3, hi: 4 },
                    ProxyFeatures([0.1, 0.2, 0.3, 0.4, 0.5]),
                )],
                proxy_evals: 8,
                proxy_escalations: 8,
                proxy_dedup_hits: 2,
            }),
        };
        let bytes = encode_snapshot(&state);
        assert_eq!(decode_snapshot::<SearchCheckpoint>(&bytes).unwrap(), state);
    }

    #[test]
    fn train_checkpoint_round_trips() {
        let state = TrainCheckpoint {
            context: CacheKey { lo: 11, hi: 13 },
            step: 17,
            params: vec![0.1, -0.2, 0.3],
            opt_m: vec![1e-3, -2e-3, 0.0],
            opt_v: vec![1e-6, 4e-6, 0.0],
            opt_t: 17,
            history: vec![0.8; 17],
            rng: [5, 6, 7, 8],
            sampler_prev: gene(3).config,
            sampler_step: 17,
            sampler_rng: [9, 10, 11, 12],
        };
        let bytes = encode_snapshot(&state);
        assert_eq!(decode_snapshot::<TrainCheckpoint>(&bytes).unwrap(), state);
    }

    #[test]
    fn prune_checkpoint_round_trips() {
        let state = PruneCheckpoint {
            context: CacheKey { lo: 21, hi: 23 },
            round: 2,
            params: vec![0.5, 0.0, -0.5, 0.0],
            mask: vec![true, false, true, false],
            final_loss: 0.125,
        };
        let bytes = encode_snapshot(&state);
        assert_eq!(decode_snapshot::<PruneCheckpoint>(&bytes).unwrap(), state);
    }

    #[test]
    fn kinds_are_distinct_so_loops_cannot_cross_load() {
        let prune = PruneCheckpoint {
            context: CacheKey { lo: 0, hi: 0 },
            round: 0,
            params: vec![],
            mask: vec![],
            final_loss: 0.0,
        };
        let bytes = encode_snapshot(&prune);
        assert!(decode_snapshot::<SearchCheckpoint>(&bytes).is_err());
        assert!(decode_snapshot::<TrainCheckpoint>(&bytes).is_err());
    }
}
