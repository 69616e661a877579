//! Noise-adaptive evolutionary co-search of SubCircuit and qubit mapping.

use crate::pareto::{evolutionary_search_pareto_rt, Objective};
use crate::runtime::{gene_key, search_context_key, RuntimeOptions, SearchRuntime};
use crate::{Estimator, SubConfig, SuperCircuit, Task};
use qns_proxy::ProxyOptions;
use qns_runtime::{counters, GenerationEvent, Metrics};
use qns_transpile::Layout;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One individual: a SubCircuit architecture plus a qubit mapping — the
/// concatenated gene of paper Section III-C.
#[derive(Clone, Debug, PartialEq)]
pub struct Gene {
    /// SubCircuit architecture (depth + layer widths).
    pub config: SubConfig,
    /// Logical→physical qubit mapping.
    pub layout: Vec<usize>,
}

impl Gene {
    /// The mapping as a transpiler [`Layout`].
    pub fn layout(&self) -> Layout {
        Layout::from_vec(self.layout.clone())
    }
}

/// Evolution hyperparameters. The paper uses 40 iterations, population 40,
/// 10 parents, 20 mutations at probability 0.4, and 10 crossovers.
#[derive(Clone, Debug, PartialEq)]
pub struct EvoConfig {
    /// Number of generations.
    pub iterations: usize,
    /// Population size (kept constant).
    pub population: usize,
    /// Survivors per generation.
    pub parents: usize,
    /// Mutated offspring per generation.
    pub mutations: usize,
    /// Per-gene mutation probability.
    pub mutation_prob: f64,
    /// Crossover offspring per generation.
    pub crossovers: usize,
    /// RNG seed.
    pub seed: u64,
    /// Optional cap on trainable parameters; genes over budget are
    /// heavily penalized (used for the accuracy-vs-#parameters sweeps).
    pub max_params: Option<usize>,
    /// Search over architectures (`false` freezes the seed architecture —
    /// the paper's "mapping search only" ablation).
    pub search_arch: bool,
    /// Search over qubit mappings (`false` freezes the trivial layout —
    /// the paper's "circuit search only" ablation).
    pub search_layout: bool,
    /// Evaluation-runtime knobs (worker count, caching).
    pub runtime: RuntimeOptions,
    /// Training-free proxy prescreening (`--proxy`); disabled by default,
    /// in which case the search path is bitwise-identical to the engine
    /// without the prescreener.
    pub proxy: ProxyOptions,
}

impl Default for EvoConfig {
    fn default() -> Self {
        EvoConfig {
            iterations: 40,
            population: 40,
            parents: 10,
            mutations: 20,
            mutation_prob: 0.4,
            crossovers: 10,
            seed: 0,
            max_params: None,
            search_arch: true,
            search_layout: true,
            runtime: RuntimeOptions::default(),
            proxy: ProxyOptions::default(),
        }
    }
}

impl EvoConfig {
    /// A scaled-down configuration for quick experiments.
    pub fn fast(seed: u64) -> Self {
        EvoConfig {
            iterations: 8,
            population: 12,
            parents: 4,
            mutations: 5,
            crossovers: 3,
            mutation_prob: 0.4,
            seed,
            max_params: None,
            search_arch: true,
            search_layout: true,
            runtime: RuntimeOptions::default(),
            proxy: ProxyOptions::default(),
        }
    }
}

/// The outcome of a search run.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// Best gene found.
    pub best: Gene,
    /// Its estimator score (lower is better).
    pub best_score: f64,
    /// Best-so-far score after each iteration — the optimization curve of
    /// paper Figure 22.
    pub history: Vec<f64>,
    /// Genes actually evaluated (transpiled + simulated). Memoized repeats
    /// are counted in [`SearchResult::memo_hits`], not here.
    pub evaluations: usize,
    /// Candidates answered from the score memo without re-evaluation.
    pub memo_hits: usize,
    /// Candidates whose training-free proxy features were computed
    /// (zero when prescreening is off).
    pub proxy_evals: u64,
    /// Candidates the prescreener escalated to full estimator scoring
    /// (zero when prescreening is off).
    pub proxy_escalations: u64,
    /// Structurally-duplicate offspring skipped within a generation before
    /// any scoring (zero when prescreening is off).
    pub proxy_dedup_hits: u64,
}

impl SearchResult {
    /// Total candidates considered: real evaluations plus memoized hits.
    /// This is the search *budget* — it matches across runs that differ
    /// only in caching.
    pub fn candidates(&self) -> usize {
        self.evaluations + self.memo_hits
    }
}

/// Gene-pool RNG salt of the evolutionary search.
pub(crate) const EVOLUTION_SALT: u64 = 0xE70;
/// Gene-pool RNG salt of the random-search baseline.
const RANDOM_SALT: u64 = 0x4A4D;

pub(crate) struct GenePool<'a> {
    sc: &'a SuperCircuit,
    n_phys: usize,
    pub(crate) rng: StdRng,
    /// Frozen architecture (mapping-only search) when set.
    fixed_arch: Option<SubConfig>,
    /// Frozen layout (circuit-only search) when set.
    fixed_layout: Option<Vec<usize>>,
}

impl<'a> GenePool<'a> {
    /// The pool a search draws from: RNG derived from the config seed and
    /// a per-engine `salt`, frozen components taken from the first seed
    /// gene when an ablation disables part of the search (so ablations stay
    /// parameter-matched), else the maximal architecture / trivial layout.
    pub(crate) fn for_evolution(
        sc: &'a SuperCircuit,
        n_phys: usize,
        config: &EvoConfig,
        seeds: &[Gene],
        salt: u64,
    ) -> Self {
        GenePool {
            sc,
            n_phys,
            rng: StdRng::seed_from_u64(config.seed ^ salt),
            fixed_arch: if config.search_arch {
                None
            } else {
                Some(
                    seeds
                        .first()
                        .map(|g| g.config.clone())
                        .unwrap_or_else(|| sc.max_config()),
                )
            },
            fixed_layout: if config.search_layout {
                None
            } else {
                Some(
                    seeds
                        .first()
                        .map(|g| g.layout.clone())
                        .unwrap_or_else(|| (0..sc.num_qubits()).collect()),
                )
            },
        }
    }

    pub(crate) fn random_gene(&mut self) -> Gene {
        let n_qubits = self.sc.num_qubits();
        let n_blocks = self.sc.num_blocks();
        let n_layers = self.sc.space().layers_per_block().len();
        let config = match &self.fixed_arch {
            Some(cfg) => cfg.clone(),
            None => SubConfig {
                n_blocks: self.rng.gen_range(1..=n_blocks),
                widths: (0..n_blocks)
                    .map(|_| {
                        (0..n_layers)
                            .map(|_| self.rng.gen_range(1..=n_qubits))
                            .collect()
                    })
                    .collect(),
            },
        };
        let layout = match &self.fixed_layout {
            Some(l) => l.clone(),
            None => {
                let mut phys: Vec<usize> = (0..self.n_phys).collect();
                phys.shuffle(&mut self.rng);
                phys.truncate(n_qubits);
                phys
            }
        };
        Gene { config, layout }
    }

    pub(crate) fn mutate(&mut self, gene: &Gene, prob: f64) -> Gene {
        let n_qubits = self.sc.num_qubits();
        let mut out = gene.clone();
        if self.fixed_arch.is_none() {
            // Depth gene.
            if self.rng.gen_bool(prob) {
                out.config.n_blocks = self.rng.gen_range(1..=self.sc.num_blocks());
            }
            // Width genes.
            for block in &mut out.config.widths {
                for w in block.iter_mut() {
                    if self.rng.gen_bool(prob) {
                        *w = self.rng.gen_range(1..=n_qubits);
                    }
                }
            }
        }
        if self.fixed_layout.is_some() {
            return out;
        }
        // Mapping genes: swap two positions or rehome one qubit.
        for i in 0..out.layout.len() {
            if !self.rng.gen_bool(prob) {
                continue;
            }
            if self.rng.gen_bool(0.5) && out.layout.len() > 1 {
                let j = self.rng.gen_range(0..out.layout.len());
                out.layout.swap(i, j);
            } else {
                let unused: Vec<usize> = (0..self.n_phys)
                    .filter(|p| !out.layout.contains(p))
                    .collect();
                if let Some(&p) = unused.as_slice().choose(&mut self.rng) {
                    out.layout[i] = p;
                }
            }
        }
        out
    }

    pub(crate) fn crossover(&mut self, a: &Gene, b: &Gene) -> Gene {
        let mut config = a.config.clone();
        if self.rng.gen_bool(0.5) {
            config.n_blocks = b.config.n_blocks;
        }
        for (bi, block) in config.widths.iter_mut().enumerate() {
            for (li, w) in block.iter_mut().enumerate() {
                if self.rng.gen_bool(0.5) {
                    *w = b.config.widths[bi][li];
                }
            }
        }
        // Mapping crossover with duplicate repair.
        let mut layout = Vec::with_capacity(a.layout.len());
        for i in 0..a.layout.len() {
            let pick = if self.rng.gen_bool(0.5) {
                a.layout[i]
            } else {
                b.layout[i]
            };
            layout.push(pick);
        }
        let mut seen = std::collections::BTreeSet::new();
        for slot in layout.iter_mut() {
            if !seen.insert(*slot) {
                let replacement = (0..self.n_phys)
                    .find(|p| !seen.contains(p))
                    .expect("device has enough qubits");
                *slot = replacement;
                seen.insert(replacement);
            }
        }
        Gene { config, layout }
    }
}

pub(crate) fn score_gene(
    sc: &SuperCircuit,
    shared_params: &[f64],
    task: &Task,
    estimator: &Estimator,
    gene: &Gene,
    max_params: Option<usize>,
) -> f64 {
    let circuit = sc.build_for(&gene.config, task);
    if let Some(cap) = max_params {
        if circuit.referenced_train_indices().len() > cap {
            return 1e9;
        }
    }
    estimator.score(&circuit, shared_params, task, &gene.layout())
}

/// Folds one generation's proxy-vs-full rank agreement into the metrics:
/// a Spearman correlation as `(rho + 1) * 1000` milli-units (mean derivable
/// from `PROXY_RANK_SUM_MILLI / PROXY_RANK_OBS`), plus a log2-bucketed
/// disagreement counter `proxy_rank_bNN` so the spread survives averaging.
pub(crate) fn record_rank_quality(metrics: &Metrics, predicted: &[f64], actual: &[f64]) {
    let (xs, ys): (Vec<f64>, Vec<f64>) = predicted
        .iter()
        .zip(actual)
        .filter(|(p, a)| p.is_finite() && a.is_finite())
        .map(|(&p, &a)| (p, a))
        .unzip();
    if xs.len() < 2 {
        return;
    }
    let rho = qns_ml::spearman(&xs, &ys);
    if !rho.is_finite() {
        return;
    }
    metrics.incr(counters::PROXY_RANK_OBS, 1);
    metrics.incr(
        counters::PROXY_RANK_SUM_MILLI,
        ((rho + 1.0) * 1000.0).round() as u64,
    );
    let disagreement = ((1.0 - rho) * 1000.0).round() as u64;
    let bucket = (64 - disagreement.leading_zeros() as u64).min(11);
    metrics.incr(&format!("proxy_rank_b{bucket:02}"), 1);
}

/// Seed population of the evolutionary loop: canonicalize
/// by structural digest so duplicated seeds (common when several ablations
/// pass the same human design) occupy one slot, then top up with unique
/// random genes. Retries are bounded: tiny design spaces may not hold
/// `population` distinct genes, in which case duplicates are admitted
/// rather than looping forever.
pub(crate) fn seed_population(
    pool: &mut GenePool,
    config: &EvoConfig,
    seeds: &[Gene],
) -> Vec<Gene> {
    let mut population: Vec<Gene> = Vec::with_capacity(config.population);
    let mut keys = std::collections::BTreeSet::new();
    for seed in seeds.iter().take(config.population) {
        if keys.insert(gene_key(seed)) {
            population.push(seed.clone());
        }
    }
    let mut attempts = 0usize;
    while population.len() < config.population {
        let g = pool.random_gene();
        attempts += 1;
        if keys.insert(gene_key(&g)) || attempts > 64 * config.population {
            population.push(g);
        }
    }
    population
}

/// The paper's evolutionary co-search: a genetic algorithm over
/// (architecture, mapping) genes, scored with SuperCircuit-inherited
/// parameters on a noise-aware estimator.
///
/// # Panics
///
/// Panics if the device is smaller than the SuperCircuit or the population
/// is not larger than the parent count.
pub fn evolutionary_search(
    sc: &SuperCircuit,
    shared_params: &[f64],
    task: &Task,
    estimator: &Estimator,
    config: &EvoConfig,
) -> SearchResult {
    evolutionary_search_seeded(sc, shared_params, task, estimator, config, &[])
}

/// [`evolutionary_search`] with caller-provided seed genes injected into
/// the initial population (e.g. the human design, so the search starts
/// from a known-good architecture at a parameter budget).
pub fn evolutionary_search_seeded(
    sc: &SuperCircuit,
    shared_params: &[f64],
    task: &Task,
    estimator: &Estimator,
    config: &EvoConfig,
    seeds: &[Gene],
) -> SearchResult {
    let rt = SearchRuntime::new(config.runtime.clone());
    evolutionary_search_seeded_rt(sc, shared_params, task, estimator, config, seeds, &rt)
}

/// [`evolutionary_search_seeded`] on a caller-owned [`SearchRuntime`], so
/// several searches (e.g. the pipeline's stages, or a device sweep) can
/// share one worker pool, transpile cache, and metrics registry.
///
/// This is the one-objective case of [`evolutionary_search_pareto_rt`]
/// under [`Objective::Loss`]: one generation loop serves both, and its
/// snapshots resume either entry point.
pub fn evolutionary_search_seeded_rt(
    sc: &SuperCircuit,
    shared_params: &[f64],
    task: &Task,
    estimator: &Estimator,
    config: &EvoConfig,
    seeds: &[Gene],
    rt: &SearchRuntime,
) -> SearchResult {
    let objectives = [Objective::Loss];
    evolutionary_search_pareto_rt(
        sc,
        shared_params,
        task,
        estimator,
        config,
        &objectives,
        seeds,
        rt,
    )
    .into_search_result()
}

/// The random-search baseline of paper Figures 21-22: the same evaluation
/// budget spent on uniformly random genes.
pub fn random_search(
    sc: &SuperCircuit,
    shared_params: &[f64],
    task: &Task,
    estimator: &Estimator,
    config: &EvoConfig,
) -> SearchResult {
    let rt = SearchRuntime::new(config.runtime.clone());
    random_search_rt(sc, shared_params, task, estimator, config, &rt)
}

/// [`random_search`] on a caller-owned [`SearchRuntime`].
pub fn random_search_rt(
    sc: &SuperCircuit,
    shared_params: &[f64],
    task: &Task,
    estimator: &Estimator,
    config: &EvoConfig,
    rt: &SearchRuntime,
) -> SearchResult {
    let estimator = rt.instrument_estimator(estimator);
    let context = search_context_key(&estimator, task, shared_params, config.max_params);
    let mut pool = GenePool::for_evolution(
        sc,
        estimator.device().num_qubits(),
        config,
        &[],
        RANDOM_SALT,
    );
    let mut best: Option<(Gene, f64)> = None;
    let mut history = Vec::with_capacity(config.iterations);
    let mut evaluations = 0usize;
    let mut memo_hits = 0usize;
    for generation in 0..config.iterations {
        let batch: Vec<Gene> = (0..config.population).map(|_| pool.random_gene()).collect();
        let outcome = rt.score_batch(context, &batch, |g| {
            score_gene(sc, shared_params, task, &estimator, g, config.max_params)
        });
        evaluations += outcome.evaluated;
        memo_hits += outcome.memo_hits;
        for (g, &s) in batch.into_iter().zip(&outcome.scores) {
            if best.as_ref().map(|(_, bs)| s < *bs).unwrap_or(true) {
                best = Some((g, s));
            }
        }
        history.push(best.as_ref().expect("scored").1);
        rt.metrics().push_event(GenerationEvent {
            generation,
            best_score: history[generation],
            mean_score: mean_finite(&outcome.scores),
            evaluations: outcome.evaluated,
            memo_hits: outcome.memo_hits,
            elapsed: outcome.elapsed,
        });
    }
    let (best, best_score) = best.expect("non-empty budget");
    SearchResult {
        best,
        best_score,
        history,
        evaluations,
        memo_hits,
        proxy_evals: 0,
        proxy_escalations: 0,
        proxy_dedup_hits: 0,
    }
}

/// Mean over the finite entries (panicked candidates score `+inf` and
/// would otherwise wipe out the generation statistics).
pub(crate) fn mean_finite(scores: &[f64]) -> f64 {
    let finite: Vec<f64> = scores.iter().copied().filter(|s| s.is_finite()).collect();
    if finite.is_empty() {
        f64::INFINITY
    } else {
        finite.iter().sum::<f64>() / finite.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DesignSpace, EstimatorKind, SpaceKind};
    use qns_noise::Device;

    fn setup() -> (SuperCircuit, Vec<f64>, Task, Estimator) {
        let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 2);
        let task = Task::qml_digits(&[1, 8], 15, 4, 4);
        let params: Vec<f64> = (0..sc.num_params())
            .map(|i| 0.2 * ((i % 5) as f64) - 0.4)
            .collect();
        let est =
            Estimator::new(Device::yorktown(), EstimatorKind::SuccessRate, 1).with_valid_cap(4);
        (sc, params, task, est)
    }

    #[test]
    fn evolution_runs_and_improves_monotonically() {
        let (sc, params, task, est) = setup();
        let result = evolutionary_search(&sc, &params, &task, &est, &EvoConfig::fast(1));
        assert_eq!(result.history.len(), 8);
        for w in result.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "best-so-far must be monotone");
        }
        assert!(result.best_score.is_finite());
        assert_eq!(result.best.layout.len(), 4);
    }

    #[test]
    fn layouts_stay_injective_through_evolution() {
        let (sc, params, task, est) = setup();
        let result = evolutionary_search(&sc, &params, &task, &est, &EvoConfig::fast(7));
        let mut seen = std::collections::HashSet::new();
        assert!(result.best.layout.iter().all(|&p| seen.insert(p)));
        assert!(result.best.layout.iter().all(|&p| p < 5));
    }

    #[test]
    fn evolution_beats_or_matches_random_given_same_budget() {
        let (sc, params, task, est) = setup();
        let cfg = EvoConfig::fast(3);
        let evo = evolutionary_search(&sc, &params, &task, &est, &cfg);
        let rand = random_search(&sc, &params, &task, &est, &cfg);
        // Budgets match in *candidates*; how many were memoized vs
        // actually evaluated differs between the two searches.
        assert_eq!(evo.candidates(), rand.candidates());
        // Evolution should not be dramatically worse (allow small noise).
        assert!(
            evo.best_score <= rand.best_score * 1.15,
            "evo {} vs random {}",
            evo.best_score,
            rand.best_score
        );
    }

    #[test]
    fn duplicate_seeds_collapse_to_one_population_slot() {
        let (sc, params, task, est) = setup();
        let seed_gene = Gene {
            config: sc.max_config(),
            layout: vec![0, 1, 2, 3],
        };
        // Twelve copies of the same seed: the dedup path must keep one and
        // fill the rest with distinct random genes.
        let seeds = vec![seed_gene.clone(); 12];
        let cfg = EvoConfig {
            iterations: 1,
            ..EvoConfig::fast(11)
        };
        let rt = SearchRuntime::new(cfg.runtime.clone());
        let res = evolutionary_search_seeded_rt(&sc, &params, &task, &est, &cfg, &seeds, &rt);
        // All 12 initial candidates were distinct, so none were memoized
        // within the first (only) generation.
        assert_eq!(res.evaluations, 12);
        assert_eq!(res.memo_hits, 0);
    }

    #[test]
    fn memoization_changes_accounting_but_not_results() {
        let (sc, params, task, est) = setup();
        let cached = EvoConfig::fast(3);
        let uncached = EvoConfig {
            runtime: RuntimeOptions::sequential_uncached(),
            ..cached
        };
        let a = evolutionary_search(&sc, &params, &task, &est, &cached);
        let b = evolutionary_search(&sc, &params, &task, &est, &uncached);
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_score.to_bits(), b.best_score.to_bits());
        assert_eq!(a.history, b.history);
        assert_eq!(a.candidates(), b.candidates());
        assert_eq!(b.memo_hits, 0, "uncached run cannot memoize");
        assert!(a.evaluations <= b.evaluations);
    }

    #[test]
    fn mutation_respects_bounds() {
        let (sc, _, _, est) = setup();
        let mut pool = GenePool {
            sc: &sc,
            n_phys: est.device().num_qubits(),
            rng: StdRng::seed_from_u64(5),
            fixed_arch: None,
            fixed_layout: None,
        };
        let g = pool.random_gene();
        for _ in 0..50 {
            let m = pool.mutate(&g, 0.8);
            assert!(m.config.n_blocks >= 1 && m.config.n_blocks <= 2);
            for block in &m.config.widths {
                assert!(block.iter().all(|&w| (1..=4).contains(&w)));
            }
            let mut seen = std::collections::HashSet::new();
            assert!(m.layout.iter().all(|&p| seen.insert(p)));
        }
    }

    #[test]
    fn crossover_mixes_parents() {
        let (sc, _, _, est) = setup();
        let mut pool = GenePool {
            sc: &sc,
            n_phys: est.device().num_qubits(),
            rng: StdRng::seed_from_u64(9),
            fixed_arch: None,
            fixed_layout: None,
        };
        let a = pool.random_gene();
        let b = pool.random_gene();
        let c = pool.crossover(&a, &b);
        // Every width comes from one of the parents.
        for (bi, block) in c.config.widths.iter().enumerate() {
            for (li, &w) in block.iter().enumerate() {
                assert!(w == a.config.widths[bi][li] || w == b.config.widths[bi][li]);
            }
        }
        let mut seen = std::collections::HashSet::new();
        assert!(c.layout.iter().all(|&p| seen.insert(p)));
    }
}
