//! Multi-objective Pareto co-search (NSGA-II) over (architecture, mapping)
//! genes — the one generation loop behind every evolutionary search.
//!
//! The paper's scalar score collapses noisy accuracy, circuit depth, and
//! gate count into one number, hiding the trade-offs that matter when one
//! searched SuperCircuit must serve many calibrated devices. This module
//! searches the whole front instead:
//!
//! - objective vectors over noisy loss / compiled depth / 2Q-gate count
//!   ([`Objective`]), evaluated through the [`SearchRuntime`] score memo
//!   and transpile cache,
//! - fast non-dominated sorting ([`non_dominated_sort`]) and crowding
//!   distance ([`crowding_distance`]) with a deterministic total selection
//!   order ([`selection_order`]): rank, then crowding, then candidate
//!   digest — never `HashMap` iteration order,
//! - front-aware elitism: a cross-generation archive of non-dominated
//!   points, carried through [`SearchCheckpoint`] snapshots so
//!   killed+resumed searches stay bitwise-identical at any worker count,
//! - a device-match helper ([`match_front_to_device`]) that picks the
//!   front point minimizing estimated error for a given device
//!   fingerprint — "one search, many devices".
//!
//! The scalar search [`evolutionary_search_seeded_rt`] is this loop under
//! the single objective [`Objective::Loss`]. Two one-objective rules keep
//! it the paper's plain genetic algorithm: [`selection_order`] is a stable
//! ranking by value (ties keep batch order, `NaN` last), and the
//! prescreener learns the raw scores ([`scalarize_objectives`] returns a
//! one-dimension batch unchanged).
//!
//! [`evolutionary_search_seeded_rt`]: crate::evolutionary_search_seeded_rt
//! [`SearchCheckpoint`]: crate::SearchCheckpoint

use crate::checkpoint::SearchCheckpoint;
use crate::runtime::{gene_key, search_context_key, SearchRuntime};
use crate::search::{
    build_gene_circuit, mean_finite, record_rank_quality, score_gene, seed_population, GenePool,
    EVOLUTION_SALT,
};
use crate::{Estimator, EvoConfig, Gene, SuperCircuit, Task};
use qns_noise::{circuit_success_rate, Device};
use qns_proxy::{
    candidate_seed, compute_features, scalarize_objectives, Prescreener, ProxyFeatures,
};
use qns_runtime::{counters, CacheKey, GenerationEvent, StructuralHasher};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// One axis of the multi-objective search. All objectives are minimized.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Objective {
    /// The estimator's noisy loss — the scalar search's entire score.
    Loss,
    /// Depth of the compiled (transpiled) circuit.
    Depth,
    /// 2Q-gate count of the compiled circuit (the dominant error source on
    /// every calibrated device model).
    TwoQ,
}

impl Objective {
    /// CLI / JSON name.
    pub fn name(&self) -> &'static str {
        match self {
            Objective::Loss => "loss",
            Objective::Depth => "depth",
            Objective::TwoQ => "twoq",
        }
    }

    /// Parses one objective name.
    pub fn parse(name: &str) -> Option<Objective> {
        match name {
            "loss" => Some(Objective::Loss),
            "depth" => Some(Objective::Depth),
            "twoq" => Some(Objective::TwoQ),
            _ => None,
        }
    }

    /// Stable tag fed into the resume-context digest.
    pub(crate) fn tag(&self) -> u64 {
        match self {
            Objective::Loss => 1,
            Objective::Depth => 2,
            Objective::TwoQ => 3,
        }
    }
}

/// Parses a comma-separated objective list (`"loss,depth,twoq"`).
/// Rejects empty lists, unknown names, and duplicates.
pub fn parse_objectives(spec: &str) -> Result<Vec<Objective>, String> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            return Err("empty objective name".to_string());
        }
        let obj = Objective::parse(part)
            .ok_or_else(|| format!("unknown objective '{part}' (loss|depth|twoq)"))?;
        if out.contains(&obj) {
            return Err(format!("duplicate objective '{part}'"));
        }
        out.push(obj);
    }
    if out.is_empty() {
        return Err("need at least one objective".to_string());
    }
    Ok(out)
}

/// Pareto dominance for minimization: `a` dominates `b` iff `a` is no
/// worse in every coordinate and strictly better in at least one. Any
/// `NaN` coordinate makes the comparison fail (no domination either way),
/// so poisoned candidates can never displace real ones.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len(), "objective arity mismatch");
    let mut strict = false;
    for (x, y) in a.iter().zip(b) {
        match x.partial_cmp(y) {
            Some(std::cmp::Ordering::Less) => strict = true,
            Some(std::cmp::Ordering::Equal) => {}
            // Worse in this coordinate, or incomparable (NaN).
            _ => return false,
        }
    }
    strict
}

/// Fast non-dominated sorting (Deb et al., O(MN²)): partitions indices
/// into fronts, where front 0 is the non-dominated set and every member
/// of front k>0 is dominated by at least one member of front k−1. Each
/// front's indices are ascending, so the output is a pure function of the
/// objective matrix.
pub fn non_dominated_sort(objs: &[Vec<f64>]) -> Vec<Vec<usize>> {
    let n = objs.len();
    if n == 0 {
        return Vec::new();
    }
    let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut blockers = vec![0usize; n];
    for i in 0..n {
        for j in (i + 1)..n {
            if dominates(&objs[i], &objs[j]) {
                dominated_by[i].push(j);
                blockers[j] += 1;
            } else if dominates(&objs[j], &objs[i]) {
                dominated_by[j].push(i);
                blockers[i] += 1;
            }
        }
    }
    let mut fronts = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| blockers[i] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            for &j in &dominated_by[i] {
                blockers[j] -= 1;
                if blockers[j] == 0 {
                    next.push(j);
                }
            }
        }
        next.sort_unstable();
        fronts.push(std::mem::take(&mut current));
        current = next;
    }
    fronts
}

/// Crowding distance of one front (output parallel to `front`): boundary
/// points of every objective get `+inf` so extremes always survive
/// selection; interior points accumulate the normalized gap between their
/// neighbors. A dimension with zero or non-finite spread still marks its
/// boundaries but cannot separate the interior.
pub fn crowding_distance(objs: &[Vec<f64>], front: &[usize]) -> Vec<f64> {
    let n = front.len();
    let mut dist = vec![0.0; n];
    if n == 0 {
        return dist;
    }
    let dims = objs[front[0]].len();
    // `dim` indexes the inner objective vectors through `front`, so an
    // iterator rewrite would not apply.
    #[allow(clippy::needless_range_loop)]
    for dim in 0..dims {
        // Positions within the front, sorted by this objective; ties break
        // on the candidate index so the order is total.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            objs[front[a]][dim]
                .total_cmp(&objs[front[b]][dim])
                .then_with(|| front[a].cmp(&front[b]))
        });
        dist[order[0]] = f64::INFINITY;
        dist[order[n - 1]] = f64::INFINITY;
        let lo = objs[front[order[0]]][dim];
        let hi = objs[front[order[n - 1]]][dim];
        let range = hi - lo;
        if !(range.is_finite() && range > 0.0) {
            continue;
        }
        for w in 1..n - 1 {
            let prev = objs[front[order[w - 1]]][dim];
            let next = objs[front[order[w + 1]]][dim];
            dist[order[w]] += (next - prev) / range;
        }
    }
    dist
}

/// The NSGA-II survival order over a whole generation: front rank
/// ascending, crowding distance descending, then candidate digest and
/// index as the final tie-breaks. A deterministic total order — two
/// processes given the same objective matrix and digests select
/// identically, regardless of worker count or map iteration order.
///
/// With one objective the order is a plain stable ranking: ascending
/// value, exact ties kept in input (batch) order, `NaN` last. This is the
/// paper's scalar genetic algorithm, whose batch order is itself
/// worker-count independent.
pub fn selection_order(objs: &[Vec<f64>], keys: &[CacheKey]) -> Vec<usize> {
    assert_eq!(objs.len(), keys.len(), "one digest per candidate");
    let n = objs.len();
    if objs.first().is_some_and(|o| o.len() == 1) {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let (x, y) = (objs[a][0], objs[b][0]);
            x.is_nan()
                .cmp(&y.is_nan())
                .then_with(|| x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal))
        });
        return order;
    }
    let mut rank = vec![0usize; n];
    let mut crowd = vec![0.0f64; n];
    for (r, front) in non_dominated_sort(objs).iter().enumerate() {
        let d = crowding_distance(objs, front);
        for (pos, &i) in front.iter().enumerate() {
            rank[i] = r;
            crowd[i] = d[pos];
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        rank[a]
            .cmp(&rank[b])
            .then_with(|| crowd[b].total_cmp(&crowd[a]))
            .then_with(|| keys[a].cmp(&keys[b]))
            .then_with(|| a.cmp(&b))
    });
    order
}

/// Min-max-normalizes each objective dimension over the points' finite
/// values into `[0, 1]`. Non-finite coordinates (poisoned evaluations) map
/// to 1.0 — the worst corner — and a dimension with zero spread maps to
/// 0.0 everywhere.
pub fn normalize_objectives(points: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let Some(first) = points.first() else {
        return Vec::new();
    };
    let dims = first.len();
    let mut lo = vec![f64::INFINITY; dims];
    let mut hi = vec![f64::NEG_INFINITY; dims];
    for p in points {
        for (k, &v) in p.iter().enumerate() {
            if v.is_finite() {
                lo[k] = lo[k].min(v);
                hi[k] = hi[k].max(v);
            }
        }
    }
    points
        .iter()
        .map(|p| {
            p.iter()
                .enumerate()
                .map(|(k, &v)| {
                    if !v.is_finite() {
                        return 1.0;
                    }
                    let range = hi[k] - lo[k];
                    if range.is_finite() && range > 0.0 {
                        (v - lo[k]) / range
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect()
}

/// Exact hypervolume dominated by normalized minimization `points`
/// against the reference corner `(1, …, 1)`, for 1–3 objectives. The
/// telemetry quality signal: a growing hypervolume means the front is
/// advancing and/or spreading.
///
/// # Panics
///
/// Panics on more than 3 objective dimensions.
pub fn hypervolume(points: &[Vec<f64>]) -> f64 {
    let Some(first) = points.first() else {
        return 0.0;
    };
    match first.len() {
        1 => points
            .iter()
            .map(|p| (1.0 - p[0]).clamp(0.0, 1.0))
            .fold(0.0, f64::max),
        2 => {
            let flat: Vec<(f64, f64)> = points.iter().map(|p| (p[0], p[1])).collect();
            hv2(&flat)
        }
        3 => {
            // Sweep slabs along the third axis: between consecutive z
            // values the attained region is the 2D hypervolume of every
            // point already passed.
            let mut order: Vec<usize> = (0..points.len()).collect();
            order.sort_by(|&a, &b| {
                points[a][2]
                    .total_cmp(&points[b][2])
                    .then_with(|| a.cmp(&b))
            });
            let mut hv = 0.0;
            for (si, &i) in order.iter().enumerate() {
                let z0 = points[i][2];
                let z1 = if si + 1 < order.len() {
                    points[order[si + 1]][2]
                } else {
                    1.0
                };
                let slab = (z1 - z0).max(0.0);
                if slab <= 0.0 {
                    continue;
                }
                let proj: Vec<(f64, f64)> = order[..=si]
                    .iter()
                    .map(|&j| (points[j][0], points[j][1]))
                    .collect();
                hv += slab * hv2(&proj);
            }
            hv
        }
        d => panic!("hypervolume supports 1-3 objectives, got {d}"),
    }
}

/// 2D hypervolume against (1, 1): area under the lower-left staircase.
fn hv2(points: &[(f64, f64)]) -> f64 {
    let mut pts = points.to_vec();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.total_cmp(&b.1)));
    // Keep the staircase of strictly improving y; dominated points add no
    // area.
    let mut stairs: Vec<(f64, f64)> = Vec::new();
    for &(x, y) in &pts {
        if stairs.last().map(|&(_, ly)| y < ly).unwrap_or(true) {
            stairs.push((x, y));
        }
    }
    let mut hv = 0.0;
    for (i, &(x, y)) in stairs.iter().enumerate() {
        let next_x = if i + 1 < stairs.len() {
            stairs[i + 1].0
        } else {
            1.0
        };
        hv += (next_x - x).max(0.0) * (1.0 - y).clamp(0.0, 1.0);
    }
    hv
}

/// One point of the searched Pareto front.
#[derive(Clone, Debug, PartialEq)]
pub struct FrontPoint {
    /// The candidate (architecture + mapping).
    pub gene: Gene,
    /// Its objective vector, in the search's objective order.
    pub objectives: Vec<f64>,
}

/// The outcome of a Pareto search run.
#[derive(Clone, Debug)]
pub struct ParetoSearchResult {
    /// The final non-dominated archive, sorted by candidate digest.
    pub front: Vec<FrontPoint>,
    /// Best gene by the *primary* objective (`objectives[0]`) — what the
    /// pipeline trains when it runs in Pareto mode.
    pub best: Gene,
    /// The primary-objective value of [`ParetoSearchResult::best`].
    pub best_score: f64,
    /// Best-so-far primary objective after each generation.
    pub history: Vec<f64>,
    /// Genes actually evaluated (transpiled + simulated).
    pub evaluations: usize,
    /// Candidates answered from the score memo without re-evaluation.
    pub memo_hits: usize,
    /// Candidates whose training-free proxy features were computed.
    pub proxy_evals: u64,
    /// Candidates the prescreener escalated to full scoring.
    pub proxy_escalations: u64,
    /// Structurally-duplicate offspring skipped within a generation.
    pub proxy_dedup_hits: u64,
}

impl ParetoSearchResult {
    /// Total candidates considered: real evaluations plus memoized hits.
    pub fn candidates(&self) -> usize {
        self.evaluations + self.memo_hits
    }

    /// Collapses to the scalar search's result shape (dropping the front)
    /// so downstream pipeline stages stay mode-agnostic.
    pub fn into_search_result(self) -> crate::SearchResult {
        crate::SearchResult {
            best: self.best,
            best_score: self.best_score,
            history: self.history,
            evaluations: self.evaluations,
            memo_hits: self.memo_hits,
            proxy_evals: self.proxy_evals,
            proxy_escalations: self.proxy_escalations,
            proxy_dedup_hits: self.proxy_dedup_hits,
        }
    }
}

/// [`evolutionary_search_pareto_rt`] on a fresh runtime built from
/// `config.runtime`.
pub fn evolutionary_search_pareto(
    sc: &SuperCircuit,
    shared_params: &[f64],
    task: &Task,
    estimator: &Estimator,
    config: &EvoConfig,
    objectives: &[Objective],
) -> ParetoSearchResult {
    let rt = SearchRuntime::new(config.runtime.clone());
    evolutionary_search_pareto_rt(
        sc,
        shared_params,
        task,
        estimator,
        config,
        objectives,
        &[],
        &rt,
    )
}

/// NSGA-II co-search over `objectives`: the one evolutionary generation
/// loop. Candidates are scored through the [`SearchRuntime`] score memo
/// and transpile cache, optionally prescreened by the proxy stage (fed a
/// scalarized view of the objective vectors), and bred from the shared
/// gene pool. Under `[Objective::Loss]` it is the scalar search
/// [`evolutionary_search_seeded_rt`](crate::evolutionary_search_seeded_rt).
///
/// # Panics
///
/// Panics if the device is smaller than the SuperCircuit, the population
/// is not larger than the parent count, or `objectives` is empty or holds
/// duplicates.
#[allow(clippy::too_many_arguments)]
pub fn evolutionary_search_pareto_rt(
    sc: &SuperCircuit,
    shared_params: &[f64],
    task: &Task,
    estimator: &Estimator,
    config: &EvoConfig,
    objectives: &[Objective],
    seeds: &[Gene],
    rt: &SearchRuntime,
) -> ParetoSearchResult {
    assert!(
        estimator.device().num_qubits() >= sc.num_qubits(),
        "device too small"
    );
    assert!(
        config.parents >= 2 && config.parents < config.population,
        "need 2 <= parents < population"
    );
    assert!(!objectives.is_empty(), "need at least one objective");
    for (i, o) in objectives.iter().enumerate() {
        assert!(
            !objectives[..i].contains(o),
            "duplicate objective {}",
            o.name()
        );
    }
    let estimator = rt.instrument_estimator(estimator);
    let context = search_context_key(&estimator, task, shared_params, config.max_params);
    let mut pool = GenePool::for_evolution(
        sc,
        estimator.device().num_qubits(),
        config,
        seeds,
        EVOLUTION_SALT,
    );
    let mut population = seed_population(&mut pool, config, seeds);
    let mut history = Vec::with_capacity(config.iterations);
    let mut evaluations = 0usize;
    let mut memo_hits = 0usize;
    let mut best: Option<(Gene, f64)> = None;
    let mut archive: Vec<(Gene, Vec<f64>)> = Vec::new();
    let mut start_generation = 0usize;
    let mut prescreener: Option<Prescreener> =
        config.proxy.enabled.then(|| Prescreener::new(config.proxy));
    let mut proxy_evals = 0u64;
    let mut proxy_escalations = 0u64;
    let mut proxy_dedup_hits = 0u64;

    // Everything that shapes the evolution trajectory goes into the
    // snapshot's context digest: the scoring context, the evolution
    // hyperparameters, proxy settings, the seed population, and the
    // objective vector (names and order). A snapshot written under any
    // other configuration is rejected rather than resumed.
    let resume_context = {
        let mut h = StructuralHasher::new();
        h.write_u64(context.lo);
        h.write_u64(context.hi);
        h.write_usize(config.iterations);
        h.write_usize(config.population);
        h.write_usize(config.parents);
        h.write_usize(config.mutations);
        h.write_f64(config.mutation_prob);
        h.write_usize(config.crossovers);
        h.write_u64(config.seed);
        h.write_u64(config.search_arch as u64);
        h.write_u64(config.search_layout as u64);
        h.write_u64(config.proxy.enabled as u64);
        h.write_u64(config.proxy.keep.to_bits());
        h.write_usize(config.proxy.warmup);
        h.write_usize(seeds.len());
        for seed in seeds {
            h.write_u64(gene_key(seed).lo);
            h.write_u64(gene_key(seed).hi);
        }
        h.write_usize(objectives.len());
        for o in objectives {
            h.write_u64(o.tag());
        }
        h.finish()
    };
    if let Some(ck) = rt.load_checkpoint::<SearchCheckpoint>() {
        let compatible = ck.context == resume_context
            && ck.generation <= config.iterations
            && ck.population.len() == config.population
            && ck.proxy.is_some() == config.proxy.enabled;
        if compatible {
            start_generation = ck.generation;
            population = ck.population;
            pool.rng = StdRng::from_state(ck.rng);
            archive = ck.archive;
            best = ck.best;
            history = ck.history;
            evaluations = ck.evaluations;
            memo_hits = ck.memo_hits;
            rt.restore_memo(&ck.memo);
            if let Some(state) = &ck.proxy {
                prescreener = Some(Prescreener::from_state(config.proxy, state));
                proxy_evals = state.proxy_evals;
                proxy_escalations = state.proxy_escalations;
                proxy_dedup_hits = state.proxy_dedup_hits;
            }
            rt.note_resumed();
        } else {
            rt.note_checkpoint_rejected();
        }
    }

    let needs_loss = objectives.contains(&Objective::Loss);
    let needs_shape = objectives
        .iter()
        .any(|o| matches!(o, Objective::Depth | Objective::TwoQ));

    for generation in start_generation..config.iterations {
        // With prescreening on, only a proxy-ranked subset of the
        // generation reaches the estimator; with it off, `candidates` is
        // the whole population.
        let (candidates, proxy_batch) = match prescreener.as_ref() {
            None => (std::mem::take(&mut population), None),
            Some(pre) => {
                // Structurally-identical offspring collapse to one slot
                // before any scoring — the digest is the same one the
                // score memo keys on.
                let mut uniq: Vec<usize> = Vec::with_capacity(population.len());
                let mut keys = Vec::with_capacity(population.len());
                let mut seen = std::collections::HashSet::new();
                for (i, g) in population.iter().enumerate() {
                    let key = gene_key(g);
                    if seen.insert(key) {
                        uniq.push(i);
                        keys.push(key);
                    }
                }
                let dups = (population.len() - uniq.len()) as u64;
                if dups > 0 {
                    rt.metrics().incr(counters::PROXY_DEDUP_HITS, dups);
                }
                proxy_dedup_hits += dups;

                let missing: Vec<usize> = (0..uniq.len())
                    .filter(|&u| pre.cached_features(keys[u]).is_none())
                    .collect();
                let missing_genes: Vec<&Gene> =
                    missing.iter().map(|&u| &population[uniq[u]]).collect();
                let computed = rt.map_isolated(&missing_genes, |g| {
                    let circuit = build_gene_circuit(sc, task, g);
                    let key = gene_key(g);
                    let cx = estimator.proxy_context(
                        &circuit,
                        &g.layout,
                        candidate_seed(config.seed, key.lo, key.hi),
                    );
                    compute_features(&cx)
                });
                for (&u, r) in missing.iter().zip(computed) {
                    // A panicked proxy poisons its features (ranked last)
                    // instead of killing the search.
                    pre.record_features(keys[u], r.unwrap_or_else(|_| ProxyFeatures::poisoned()));
                }
                proxy_evals += missing.len() as u64;
                rt.metrics()
                    .incr(counters::PROXY_EVALS, missing.len() as u64);

                let feats: Vec<ProxyFeatures> = keys
                    .iter()
                    .map(|&k| pre.cached_features(k).expect("recorded above"))
                    .collect();
                // Warmup generations escalate every unique candidate so
                // the fusion model trains before it gates anything.
                let (escalated, predicted) = if generation < pre.options().warmup {
                    ((0..uniq.len()).collect::<Vec<usize>>(), Vec::new())
                } else {
                    let predicted: Vec<f64> = feats.iter().map(|f| pre.predict(f)).collect();
                    let count = pre.escalation_count(config.population, config.parents, uniq.len());
                    (pre.select(&predicted, count), predicted)
                };
                proxy_escalations += escalated.len() as u64;
                rt.metrics()
                    .incr(counters::PROXY_ESCALATIONS, escalated.len() as u64);
                let candidates: Vec<Gene> = escalated
                    .iter()
                    .map(|&u| population[uniq[u]].clone())
                    .collect();
                let esc_feats: Vec<ProxyFeatures> = escalated.iter().map(|&u| feats[u]).collect();
                let esc_pred: Vec<f64> = if predicted.is_empty() {
                    Vec::new()
                } else {
                    escalated.iter().map(|&u| predicted[u]).collect()
                };
                population.clear();
                (candidates, Some((esc_feats, esc_pred)))
            }
        };

        // Objective evaluation. The loss axis goes through the memoized
        // score engine; the structural axes compile through the shared
        // transpile cache under the same panic isolation. A candidate
        // whose compile panics is poisoned to +inf on its shape axes
        // rather than killing the search.
        let loss_outcome = needs_loss.then(|| {
            rt.score_batch(context, &candidates, |g| {
                score_gene(sc, shared_params, task, &estimator, g, config.max_params)
            })
        });
        if let Some(outcome) = &loss_outcome {
            evaluations += outcome.evaluated;
            memo_hits += outcome.memo_hits;
        }
        let shapes: Option<Vec<(f64, f64)>> = needs_shape.then(|| {
            let refs: Vec<&Gene> = candidates.iter().collect();
            let computed = rt.map_isolated(&refs, |g| {
                let circuit = build_gene_circuit(sc, task, g);
                estimator.compiled_shape(&circuit, &g.layout())
            });
            poison_shapes(rt, computed)
        });
        let objs: Vec<Vec<f64>> = (0..candidates.len())
            .map(|i| {
                objectives
                    .iter()
                    .map(|o| match o {
                        Objective::Loss => loss_outcome.as_ref().expect("loss evaluated").scores[i],
                        Objective::Depth => shapes.as_ref().expect("shapes evaluated")[i].0,
                        Objective::TwoQ => shapes.as_ref().expect("shapes evaluated")[i].1,
                    })
                    .collect()
            })
            .collect();

        if let (Some(pre), Some((esc_feats, esc_pred))) = (prescreener.as_mut(), proxy_batch) {
            // The fusion model learns a scalarized view of the same
            // objective vectors NSGA-II selects on (the raw scores under
            // one objective), so its ranks stay aligned with fitness. Rank
            // quality is absent during warmup, when nothing was gated.
            let actual = scalarize_objectives(&objs);
            if !esc_pred.is_empty() {
                record_rank_quality(rt.metrics(), &esc_pred, &actual);
            }
            for (f, &s) in esc_feats.iter().zip(&actual) {
                pre.observe(f, s);
            }
        }

        // Deterministic survival order: never map iteration order.
        let keys: Vec<CacheKey> = candidates.iter().map(gene_key).collect();
        let order = selection_order(&objs, &keys);

        // Best-by-primary-objective tracking: first strict minimum in batch
        // order, updated on strict improvement only.
        let primary: Vec<f64> = objs.iter().map(|o| o[0]).collect();
        let mut best_idx = 0usize;
        for (i, &v) in primary.iter().enumerate().skip(1) {
            if v < primary[best_idx] {
                best_idx = i;
            }
        }
        if best
            .as_ref()
            .map(|(_, s)| primary[best_idx] < *s)
            .unwrap_or(true)
        {
            best = Some((candidates[best_idx].clone(), primary[best_idx]));
        }
        history.push(best.as_ref().expect("just set").1);
        rt.metrics().push_event(GenerationEvent {
            generation,
            best_score: history[generation],
            mean_score: mean_finite(&primary),
            evaluations: loss_outcome.as_ref().map(|o| o.evaluated).unwrap_or(0),
            memo_hits: loss_outcome.as_ref().map(|o| o.memo_hits).unwrap_or(0),
            elapsed: loss_outcome.as_ref().map(|o| o.elapsed).unwrap_or_default(),
        });

        // Front-aware elitism: fold this generation into the
        // cross-generation archive, keep its non-dominated subset, and
        // canonicalize by digest so the archive bytes are identical for
        // any worker count.
        let mut merged: Vec<(Gene, Vec<f64>)> = Vec::with_capacity(archive.len() + objs.len());
        let mut seen = std::collections::HashSet::new();
        for (g, o) in archive.drain(..) {
            if seen.insert(gene_key(&g)) {
                merged.push((g, o));
            }
        }
        for (i, key) in keys.iter().enumerate() {
            if seen.insert(*key) {
                merged.push((candidates[i].clone(), objs[i].clone()));
            }
        }
        let merged_objs: Vec<Vec<f64>> = merged.iter().map(|(_, o)| o.clone()).collect();
        let fronts = non_dominated_sort(&merged_objs);
        archive = fronts
            .first()
            .map(|front| front.iter().map(|&i| merged[i].clone()).collect())
            .unwrap_or_default();
        archive.sort_by_key(|a| gene_key(&a.0));

        rt.metrics().incr(counters::PARETO_GENERATIONS, 1);
        rt.metrics()
            .incr(counters::PARETO_FRONT_SUM, archive.len() as u64);
        let archive_objs: Vec<Vec<f64>> = archive.iter().map(|(_, o)| o.clone()).collect();
        let hv = hypervolume(&normalize_objectives(&archive_objs));
        rt.metrics()
            .incr(counters::PARETO_HV_SUM_MILLI, (hv * 1000.0).round() as u64);

        // Offspring: parents are the head of the survival order; mutation,
        // crossover, and random top-up draw from the pool RNG.
        let parents: Vec<Gene> = order
            .iter()
            .take(config.parents)
            .map(|&i| candidates[i].clone())
            .collect();
        let mut next = parents.clone();
        for _ in 0..config.mutations {
            let p = parents.as_slice().choose(&mut pool.rng).expect("parents");
            next.push(pool.mutate(p, config.mutation_prob));
        }
        for _ in 0..config.crossovers {
            let a = parents.as_slice().choose(&mut pool.rng).expect("parents");
            let b = parents.as_slice().choose(&mut pool.rng).expect("parents");
            next.push(pool.crossover(a, b));
        }
        while next.len() < config.population {
            next.push(pool.random_gene());
        }
        next.truncate(config.population);
        population = next;

        // Snapshot the state *entering* generation + 1 at the boundary,
        // then give the fault plan its chance to kill the process — the
        // order mirrors a real crash landing between two generations.
        if rt.should_checkpoint(generation + 1, config.iterations) {
            rt.save_checkpoint(&SearchCheckpoint {
                context: resume_context,
                generation: generation + 1,
                population: population.clone(),
                rng: pool.rng.state(),
                archive: archive.clone(),
                best: best.clone(),
                history: history.clone(),
                evaluations,
                memo_hits,
                memo: rt.memo_entries(),
                proxy: prescreener
                    .as_ref()
                    .map(|p| p.snapshot(proxy_evals, proxy_escalations, proxy_dedup_hits)),
            });
        }
        rt.fault_boundary();
    }

    let (best, best_score) = best.expect("at least one iteration");
    ParetoSearchResult {
        front: archive
            .into_iter()
            .map(|(gene, objectives)| FrontPoint { gene, objectives })
            .collect(),
        best,
        best_score,
        history,
        evaluations,
        memo_hits,
        proxy_evals,
        proxy_escalations,
        proxy_dedup_hits,
    }
}

/// Converts isolated compiled-shape results into objective coordinates,
/// poisoning a panicked candidate to `+inf` on both shape axes so it can
/// never dominate a healthy one. Every poisoned candidate is surfaced in
/// telemetry — classified with every other isolated failure by
/// [`SearchRuntime::map_isolated`], plus the dedicated
/// `pareto_shape_poisoned` counter — so a search losing candidates to
/// compile crashes is auditable from `--stats` instead of invisible.
fn poison_shapes(
    rt: &SearchRuntime,
    computed: Vec<Result<(usize, usize), String>>,
) -> Vec<(f64, f64)> {
    let mut poisoned = 0u64;
    let out: Vec<(f64, f64)> = computed
        .into_iter()
        .map(|r| match r {
            Ok((depth, twoq)) => (depth as f64, twoq as f64),
            Err(_) => {
                poisoned += 1;
                (f64::INFINITY, f64::INFINITY)
            }
        })
        .collect();
    if poisoned > 0 {
        rt.metrics().incr(counters::PARETO_SHAPE_POISONED, poisoned);
    }
    out
}

/// Picks the front point minimizing the estimated error rate on `device`
/// — "one search, many devices": the front is searched once, then matched
/// against each device's calibration fingerprint instead of re-searching.
///
/// The estimate compiles each point's circuit with its searched mapping at
/// `opt_level` and reads `1 − success_rate` from the device's calibration
/// data (gate + readout errors along the compiled circuit). Points whose
/// mapping references physical qubits the device does not have are
/// skipped. Returns `(front index, estimated error)`, ties broken toward
/// the earlier index; `None` when no point fits the device.
pub fn match_front_to_device(
    sc: &SuperCircuit,
    task: &Task,
    front: &[FrontPoint],
    device: &Device,
    opt_level: u8,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, point) in front.iter().enumerate() {
        if device.num_qubits() < sc.num_qubits()
            || point.gene.layout.iter().any(|&p| p >= device.num_qubits())
        {
            continue;
        }
        let circuit = build_gene_circuit(sc, task, &point.gene);
        let t = qns_transpile::transpile(&circuit, device, &point.gene.layout(), opt_level);
        let err = 1.0 - circuit_success_rate(&t.circuit, device, &t.phys_of, true);
        if best.map(|(_, e)| err < e).unwrap_or(true) {
            best = Some((i, err));
        }
    }
    best
}

/// Serializes a front as JSON for `--front-out`: objective names, then one
/// record per point with the candidate digest, architecture, mapping, and
/// objective values (non-finite values become `null`).
pub fn front_json(objectives: &[Objective], front: &[FrontPoint]) -> String {
    fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }
    let mut out = String::from("{\n  \"objectives\": [");
    for (i, o) in objectives.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\"", o.name()));
    }
    out.push_str("],\n  \"points\": [\n");
    for (i, point) in front.iter().enumerate() {
        let key = gene_key(&point.gene);
        out.push_str("    {");
        out.push_str(&format!("\"digest\": \"{:016x}{:016x}\", ", key.lo, key.hi));
        out.push_str(&format!("\"n_blocks\": {}, ", point.gene.config.n_blocks));
        out.push_str("\"widths\": [");
        for (bi, block) in point.gene.config.widths.iter().enumerate() {
            if bi > 0 {
                out.push_str(", ");
            }
            out.push('[');
            for (wi, w) in block.iter().enumerate() {
                if wi > 0 {
                    out.push_str(", ");
                }
                out.push_str(&w.to_string());
            }
            out.push(']');
        }
        out.push_str("], \"layout\": [");
        for (qi, q) in point.gene.layout.iter().enumerate() {
            if qi > 0 {
                out.push_str(", ");
            }
            out.push_str(&q.to_string());
        }
        out.push_str("], \"objectives\": {");
        for (k, o) in objectives.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", o.name(), num(point.objectives[k])));
        }
        out.push_str("}}");
        out.push_str(if i + 1 < front.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CacheKey {
        CacheKey {
            lo: n,
            hi: n.wrapping_mul(0x9E3779B97F4A7C15),
        }
    }

    #[test]
    fn shape_poisoning_is_counted_not_silent() {
        // A candidate whose compiled-shape evaluation panics (here: a
        // layout referencing a physical qubit the device does not have)
        // must come back poisoned to +inf on both axes AND be visible in
        // the dedicated telemetry counter — a silently +inf'd candidate
        // used to be indistinguishable from a legitimately deep one.
        use crate::runtime::RuntimeOptions;
        use crate::{EstimatorKind, SubConfig};
        let rt = SearchRuntime::new(RuntimeOptions {
            workers: 2,
            ..Default::default()
        });
        let estimator = Estimator::new(Device::belem(), EstimatorKind::Noiseless, 1);
        let sc = SuperCircuit::new(crate::DesignSpace::new(crate::SpaceKind::U3Cu3), 2, 1);
        let task = Task::vqe(&qns_chem::Molecule::h2());
        let good = Gene {
            config: sc.max_config(),
            layout: vec![0, 1],
        };
        let bad = Gene {
            config: SubConfig {
                n_blocks: 1,
                widths: vec![vec![2]],
            },
            layout: vec![0, 99],
        };
        let genes = [good, bad];
        let refs: Vec<&Gene> = genes.iter().collect();
        let computed = rt.map_isolated(&refs, |g| {
            let circuit = build_gene_circuit(&sc, &task, g);
            estimator.compiled_shape(&circuit, &g.layout())
        });
        let shapes = poison_shapes(&rt, computed);
        assert!(shapes[0].0.is_finite() && shapes[0].1.is_finite());
        assert_eq!(shapes[1], (f64::INFINITY, f64::INFINITY));
        assert_eq!(rt.metrics().counter(counters::PARETO_SHAPE_POISONED), 1);
        assert_eq!(rt.metrics().counter(counters::PANICS), 1);
        assert!(
            rt.metrics().summary().contains("pareto_shape_poisoned"),
            "counter must surface in the --stats summary"
        );
    }

    #[test]
    fn parse_objectives_accepts_lists_and_rejects_garbage() {
        assert_eq!(
            parse_objectives("loss,depth,twoq").unwrap(),
            vec![Objective::Loss, Objective::Depth, Objective::TwoQ]
        );
        assert_eq!(parse_objectives("loss").unwrap(), vec![Objective::Loss]);
        assert!(parse_objectives("").is_err());
        assert!(parse_objectives("loss,loss").is_err());
        assert!(parse_objectives("loss,fidelity").is_err());
    }

    #[test]
    fn dominance_is_strict_and_nan_safe() {
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(dominates(&[0.5, 2.0], &[1.0, 2.0]));
        assert!(
            !dominates(&[1.0, 2.0], &[1.0, 2.0]),
            "equal never dominates"
        );
        assert!(!dominates(&[1.0, 4.0], &[2.0, 3.0]), "incomparable");
        assert!(!dominates(&[f64::NAN, 0.0], &[1.0, 1.0]));
        assert!(!dominates(&[0.0, 0.0], &[f64::NAN, 1.0]));
        assert!(dominates(&[1.0], &[f64::INFINITY]), "+inf is dominated");
    }

    #[test]
    fn sorting_builds_the_expected_fronts() {
        // (0): front 0; (1) and (2): incomparable front 1; (3): front 2.
        let objs = vec![
            vec![1.0, 1.0],
            vec![2.0, 3.0],
            vec![3.0, 2.0],
            vec![4.0, 4.0],
        ];
        let fronts = non_dominated_sort(&objs);
        assert_eq!(fronts, vec![vec![0], vec![1, 2], vec![3]]);
    }

    #[test]
    fn crowding_marks_boundaries_infinite_and_orders_interior() {
        let objs = vec![
            vec![0.0, 4.0],
            vec![1.0, 2.0],
            vec![3.0, 1.5],
            vec![4.0, 0.0],
        ];
        let front = vec![0, 1, 2, 3];
        let d = crowding_distance(&objs, &front);
        assert_eq!(d[0], f64::INFINITY);
        assert_eq!(d[3], f64::INFINITY);
        assert!(d[1].is_finite() && d[2].is_finite());
        // Point 1 sits in the wider gap on the y axis; both accumulate the
        // same normalized x gap.
        assert!(d[1] > d[2], "{} vs {}", d[1], d[2]);
    }

    #[test]
    fn selection_breaks_ties_by_digest_not_input_order() {
        // Two identical objective vectors: same front, and both are
        // boundary points with infinite crowding — only the digest can
        // order them, and it must do so regardless of input order.
        let objs = vec![vec![1.0, 1.0]; 2];
        assert_eq!(selection_order(&objs, &[key(30), key(10)]), vec![1, 0]);
        assert_eq!(selection_order(&objs, &[key(10), key(30)]), vec![0, 1]);
    }

    #[test]
    fn single_objective_selection_is_score_order() {
        let objs: Vec<Vec<f64>> = [3.0, 1.0, 2.0, 0.5].iter().map(|&v| vec![v]).collect();
        let keys: Vec<CacheKey> = (0..4).map(|i| key(i + 1)).collect();
        assert_eq!(selection_order(&objs, &keys), vec![3, 1, 2, 0]);
        // Exact ties keep input order whatever the digests say.
        let tied: Vec<Vec<f64>> = [2.0, 1.0, 2.0, 1.0].iter().map(|&v| vec![v]).collect();
        let keys: Vec<CacheKey> = (0..4).map(|i| key(40 - i)).collect();
        assert_eq!(selection_order(&tied, &keys), vec![1, 3, 0, 2]);
        // NaN ranks last (after +inf) instead of panicking.
        let poisoned: Vec<Vec<f64>> = [f64::NAN, f64::INFINITY, 0.5, f64::NAN]
            .iter()
            .map(|&v| vec![v])
            .collect();
        assert_eq!(selection_order(&poisoned, &keys), vec![2, 1, 0, 3]);
    }

    #[test]
    fn normalization_maps_poison_to_worst_corner() {
        let pts = vec![vec![1.0, 10.0], vec![3.0, 30.0], vec![f64::INFINITY, 20.0]];
        let n = normalize_objectives(&pts);
        assert_eq!(n[0], vec![0.0, 0.0]);
        assert_eq!(n[1], vec![1.0, 1.0]);
        assert_eq!(n[2], vec![1.0, 0.5]);
    }

    #[test]
    fn hypervolume_matches_hand_computed_cases() {
        assert_eq!(hypervolume(&[]), 0.0);
        assert_eq!(hypervolume(&[vec![0.25]]), 0.75);
        assert_eq!(hypervolume(&[vec![0.0, 0.0]]), 1.0);
        assert_eq!(hypervolume(&[vec![0.5, 0.5]]), 0.25);
        // Two incomparable points: 0.25 + two flanking slabs of 0.25.
        let hv = hypervolume(&[vec![0.0, 0.5], vec![0.5, 0.0]]);
        assert!((hv - 0.75).abs() < 1e-12, "hv {hv}");
        // A dominated point adds nothing.
        let hv2 = hypervolume(&[vec![0.0, 0.5], vec![0.5, 0.0], vec![0.6, 0.6]]);
        assert!((hv2 - 0.75).abs() < 1e-12, "hv {hv2}");
        // 3D corner point dominates the whole unit cube.
        assert!((hypervolume(&[vec![0.0, 0.0, 0.0]]) - 1.0).abs() < 1e-12);
        // 3D: a single interior point spans (1-x)(1-y)(1-z).
        let hv3 = hypervolume(&[vec![0.5, 0.5, 0.5]]);
        assert!((hv3 - 0.125).abs() < 1e-12, "hv {hv3}");
    }

    #[test]
    fn front_json_is_shaped_like_json() {
        let front = vec![FrontPoint {
            gene: Gene {
                config: crate::SubConfig {
                    n_blocks: 1,
                    widths: vec![vec![2, 1]],
                },
                layout: vec![0, 2],
            },
            objectives: vec![0.5, f64::INFINITY],
        }];
        let json = front_json(&[Objective::Loss, Objective::Depth], &front);
        assert!(json.contains("\"objectives\": [\"loss\", \"depth\"]"));
        assert!(json.contains("\"loss\": 0.5"));
        assert!(json.contains("\"depth\": null"));
        assert!(json.contains("\"layout\": [0, 2]"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }
}
