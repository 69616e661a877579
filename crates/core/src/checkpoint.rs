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
//! The wire format (framing, crc, atomic writes, the codec) lives in
//! [`qns_runtime`]'s checkpoint module; this file lists each domain
//! payload's fields once, in wire order.

use crate::{Gene, SubConfig};
use qns_proxy::PrescreenerState;
use qns_runtime::{checkpointable, CacheKey, Checkpointable, Sink, Snapshot};
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

    /// Writes the selection's bytes for context digesting; it is never
    /// decoded.
    pub fn encode(&self, out: &mut impl Sink) {
        let Self {
            tag,
            max_bond,
            cutoff_bits,
        } = self;
        (*tag as u64).encode(out);
        max_bond.encode(out);
        cutoff_bits.encode(out);
    }
}

checkpointable!(SubConfig {
    n_blocks: usize,
    widths: Vec<Vec<usize>>,
});

checkpointable!(Gene {
    config: SubConfig,
    layout: Vec<usize>,
});

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

checkpointable!(SearchCheckpoint {
    context: CacheKey,
    generation: usize,
    population: Vec<Gene>,
    rng: [u64; 4],
    archive: Vec<(Gene, Vec<f64>)>,
    best: Option<(Gene, f64)>,
    history: Vec<f64>,
    evaluations: usize,
    memo_hits: usize,
    memo: Vec<(CacheKey, f64)>,
    proxy: Option<PrescreenerState>,
});

impl Snapshot for SearchCheckpoint {
    const KIND: u32 = u32::from_le_bytes(*b"SEAR");
    const LABEL: &'static str = "search";
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

checkpointable!(TrainCheckpoint {
    context: CacheKey,
    step: usize,
    params: Vec<f64>,
    opt_m: Vec<f64>,
    opt_v: Vec<f64>,
    opt_t: u64,
    history: Vec<f64>,
    rng: [u64; 4],
    sampler_prev: SubConfig,
    sampler_step: usize,
    sampler_rng: [u64; 4],
});

impl Snapshot for TrainCheckpoint {
    const KIND: u32 = u32::from_le_bytes(*b"TRAI");
    const LABEL: &'static str = "train";
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

checkpointable!(PruneCheckpoint {
    context: CacheKey,
    round: usize,
    params: Vec<f64>,
    mask: Vec<bool>,
    final_loss: f64,
});

impl Snapshot for PruneCheckpoint {
    const KIND: u32 = u32::from_le_bytes(*b"PRUN");
    const LABEL: &'static str = "prune";
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
