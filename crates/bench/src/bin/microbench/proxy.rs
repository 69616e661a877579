//! `proxy` — timings for the proxy-prescreening stage, recorded as
//! `BENCH_proxy.json`; `--check` gates `rank.per_candidate_s`.
//!
//! Two sections:
//!
//! 1. `rank` — proxy throughput: compute the five training-free proxy
//!    features plus a fusion-model prediction for a deterministic spread
//!    of candidates, against the full estimator score for the same
//!    candidates. Reports candidates ranked per second and the
//!    proxy-vs-full cost ratio.
//! 2. `search` — end-to-end: the same 4x-population evolutionary search
//!    run with full scoring and with prescreening (`keep` 0.2, one warmup
//!    generation). Reports wall-clock for both, the speedup, the two
//!    final scores, and the full-estimator evaluation counts.
//!
//! `--smoke` shrinks both sections to a single cheap iteration.

use crate::{time_median, Floor, Json, Mode};
use qns_noise::{Device, TrajectoryConfig};
use quantumnas::{
    candidate_seed, compute_features, evolutionary_search_seeded_rt, gene_key, DesignSpace,
    Estimator, EstimatorKind, EvoConfig, FusionModel, Gene, ProxyContext, ProxyOptions,
    SearchRuntime, SpaceKind, SubConfig, SuperCircuit, Task,
};

/// A deterministic spread of candidates over the 4-qubit U3+CU3 space:
/// every (depth, width-pattern, layout-rotation) combination.
fn candidate_genes(n_phys: usize, widths: usize) -> Vec<Gene> {
    let mut genes = Vec::new();
    for nb in 1..=2usize {
        for a in 1..=widths {
            for b in 1..=widths {
                let r = (nb * 7 + a * 3 + b) % n_phys;
                let layout: Vec<usize> = (0..4).map(|q| (q + r) % n_phys).collect();
                genes.push(Gene {
                    config: SubConfig {
                        n_blocks: nb,
                        widths: vec![vec![a, b], vec![b, a]],
                    },
                    layout,
                });
            }
        }
    }
    genes
}

pub fn measure(Mode { smoke, reps, .. }: Mode, json: &mut Json) -> Vec<Floor> {
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 2);
    let task = Task::qml_digits(&[1, 8], 15, 4, 4);
    let params: Vec<f64> = (0..sc.num_params())
        .map(|i| 0.2 * ((i % 5) as f64) - 0.4)
        .collect();
    // The prescreener's target is the expensive estimator — trajectory
    // simulation under the device noise model (the paper's accurate first
    // method), not the near-free analytic success-rate shortcut.
    let est = Estimator::new(
        Device::yorktown(),
        EstimatorKind::NoisySim(TrajectoryConfig {
            trajectories: if smoke { 4 } else { 16 },
            ..Default::default()
        }),
        1,
    )
    .with_valid_cap(4);
    let encoder = match &task {
        Task::Qml { encoder, .. } => encoder.clone(),
        _ => unreachable!(),
    };

    // 1. Rank throughput: proxy features + fusion predict vs full score.
    let genes = candidate_genes(est.device().num_qubits(), if smoke { 2 } else { 4 });
    let mut fusion = FusionModel::new();
    let proxy_s = time_median(reps, || {
        let predictions: Vec<f64> = genes
            .iter()
            .map(|g| {
                let circuit = sc.build(&g.config, Some(&encoder));
                let key = gene_key(g);
                let feats = compute_features(&ProxyContext {
                    circuit: &circuit,
                    device: est.device(),
                    layout: &g.layout,
                    seed: candidate_seed(7, key.lo, key.hi),
                });
                fusion.observe(&feats, 0.5);
                fusion.predict(&feats)
            })
            .collect();
        assert_eq!(predictions.len(), genes.len());
    });
    let full_s = time_median(reps, || {
        let scores: Vec<f64> = genes
            .iter()
            .map(|g| {
                let circuit = sc.build(&g.config, Some(&encoder));
                est.score(&circuit, &params, &task, &g.layout())
            })
            .collect();
        assert_eq!(scores.len(), genes.len());
    });
    let per_candidate = proxy_s / genes.len() as f64;
    let ranked_per_s = 1.0 / per_candidate.max(1e-12);
    let cost_ratio = full_s / proxy_s.max(1e-12);
    json.obj("rank", |j| {
        j.int("candidates", genes.len());
        j.num("proxy_s", proxy_s);
        j.num("full_s", full_s);
        j.num("per_candidate_s", per_candidate);
        j.num("ranked_per_s", ranked_per_s);
        j.num("cost_ratio", cost_ratio);
    });

    // 2. End-to-end: the same 4x population searched with full scoring vs
    // with prescreening.
    let full_cfg = EvoConfig {
        iterations: if smoke { 2 } else { 5 },
        population: 32,
        parents: 3,
        mutations: 17,
        crossovers: 12,
        ..EvoConfig::fast(5)
    };
    let proxied_cfg = EvoConfig {
        proxy: ProxyOptions {
            enabled: true,
            keep: 0.2,
            warmup: 1,
        },
        ..full_cfg.clone()
    };
    let mut full_result = None;
    let full_search_s = time_median(reps, || {
        let rt = SearchRuntime::new(full_cfg.runtime.clone());
        full_result = Some(evolutionary_search_seeded_rt(
            &sc,
            &params,
            &task,
            &est,
            &full_cfg,
            &[],
            &rt,
        ));
    });
    let mut proxied_result = None;
    let proxied_search_s = time_median(reps, || {
        let rt = SearchRuntime::new(proxied_cfg.runtime.clone());
        proxied_result = Some(evolutionary_search_seeded_rt(
            &sc,
            &params,
            &task,
            &est,
            &proxied_cfg,
            &[],
            &rt,
        ));
    });
    let full_result = full_result.expect("full search ran");
    let proxied_result = proxied_result.expect("proxied search ran");
    let speedup = full_search_s / proxied_search_s.max(1e-12);
    json.obj("search", |j| {
        j.int("population", full_cfg.population);
        j.int("iterations", full_cfg.iterations);
        j.num("full_s", full_search_s);
        j.num("full_score", full_result.best_score);
        j.int("full_evals", full_result.candidates());
        j.num("proxied_s", proxied_search_s);
        j.num("proxied_score", proxied_result.best_score);
        j.int("proxied_evals", proxied_result.candidates());
        j.int("proxy_evals", proxied_result.proxy_evals as usize);
        j.int("dedup_hits", proxied_result.proxy_dedup_hits as usize);
        j.num("speedup", speedup);
    });

    // The prescreener only pays off if ranking is much cheaper than full
    // scoring; anything below 5x means a proxy regressed into doing
    // estimator-scale work.
    vec![Floor("full-score/proxy cost ratio", cost_ratio, 5.0)]
}
