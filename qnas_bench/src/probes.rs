//! Per-call probes into the lower layers: seeded candidates timed one call
//! at a time through uninstrumented entry points, so each layer's call
//! latency shows apart from the pipeline around it.

use crate::workloads::Inputs;
use qns_noise::{Device, TrajectoryExecutor};
use qns_runtime::{encode_snapshot, CheckpointStore};
use qns_sim::{run_with, ExecMode};
use qns_transpile::{transpile_with, Layout, TranspileOptions};
use quantumnas::{
    compute_features, random_design, Estimator, EstimatorKind, QuantumNasConfig, SearchCheckpoint,
    Task,
};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// A splitmix64 stream: the probes' only randomness, derived from `--seed`.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// An injective layout of `n` logical qubits onto a connected patch of
/// the device, grown breadth-first from a random qubit. Scattered random
/// layouts on a large device route through so many ancillas that the
/// dense simulation would not fit in memory; a patch keeps it near `n`.
pub fn patch_layout(device: &Device, n: usize, rng: &mut SplitMix) -> Vec<usize> {
    let m = device.num_qubits();
    let mut neighbours = vec![Vec::new(); m];
    for &(a, b) in device.edges() {
        neighbours[a].push(b);
        neighbours[b].push(a);
    }
    let mut seen = vec![false; m];
    let start = rng.below(m);
    seen[start] = true;
    let mut patch = vec![start];
    let mut next = 0;
    while patch.len() < n && next < patch.len() {
        let mut around = neighbours[patch[next]].clone();
        for i in (1..around.len()).rev() {
            around.swap(i, rng.below(i + 1));
        }
        for q in around {
            if patch.len() < n && !seen[q] {
                seen[q] = true;
                patch.push(q);
            }
        }
        next += 1;
    }
    assert_eq!(patch.len(), n, "device has a connected patch of {n} qubits");
    for i in (1..n).rev() {
        patch.swap(i, rng.below(i + 1));
    }
    patch
}

/// Call latencies in microseconds, one sample per probed candidate.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    pub score_us: Vec<f64>,
    pub transpile_us: Vec<f64>,
    pub forward_us: Vec<f64>,
    pub trajectory_us: Vec<f64>,
    pub features_us: Vec<f64>,
}

fn micros(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Times `count` seeded candidates (random designs under a random
/// parameter budget, on patch layouts that route within two ancillas)
/// through the estimator, the
/// transpiler, the noiseless forward pass, one noisy trajectory batch,
/// and the proxy features.
pub fn layer_latencies(
    inputs: &Inputs,
    config: &QuantumNasConfig,
    shared: &[f64],
    seed: u64,
    count: usize,
) -> Latencies {
    let sc = &inputs.supercircuit;
    let device = &inputs.device;
    let task = &inputs.task;
    let (encoder, input) = match task {
        Task::Qml {
            encoder, splits, ..
        } => (Some(encoder), splits.valid.features[0].as_slice()),
        Task::Vqe { .. } => (None, &[][..]),
    };
    let estimator = Estimator::new(device.clone(), config.estimator, config.opt_level)
        .with_backend(config.backend)
        .with_valid_cap(12);
    let trajectories = match config.estimator {
        EstimatorKind::NoisySim(cfg) => cfg,
        _ => config.measure,
    };
    let executor =
        TrajectoryExecutor::new(device.clone(), trajectories).with_backend(config.backend);
    let mut rng = SplitMix::new(seed ^ 0x009B_0BE5);
    let mut out = Latencies::default();
    for _ in 0..count {
        let budget = sc.num_params() / 4 + rng.below(sc.num_params() * 3 / 4 + 1);
        let design = random_design(sc, budget.max(1), rng.next_u64());
        let circuit = sc.build(&design, encoder);
        // Redraw layouts whose routed circuit spreads over more than two
        // ancillas: the pipeline's own deploys stay in that range, and
        // wider ones cost a dense simulation exponentially more.
        let (layout, mapping, compiled, transpile_us) = (0..32)
            .map(|_| {
                let layout = patch_layout(device, sc.num_qubits(), &mut rng);
                let mapping = Layout::from_vec(layout.clone());
                let start = Instant::now();
                let compiled = transpile_with(
                    &circuit,
                    device,
                    &mapping,
                    config.opt_level,
                    TranspileOptions::default(),
                )
                .expect("a patch layout on the device transpiles");
                (layout, mapping, compiled, micros(start))
            })
            .find(|(_, _, c, _)| c.circuit.num_qubits() <= sc.num_qubits() + 2)
            .expect("a patch layout routes within two ancillas");
        out.transpile_us.push(transpile_us);

        let start = Instant::now();
        black_box(estimator.score(&circuit, shared, task, &mapping));
        out.score_us.push(micros(start));

        let start = Instant::now();
        black_box(run_with(
            &circuit,
            shared,
            input,
            ExecMode::Static,
            config.backend,
        ));
        out.forward_us.push(micros(start));

        let start = Instant::now();
        black_box(executor.expect_z(&compiled.circuit, shared, input, &compiled.phys_of));
        out.trajectory_us.push(micros(start));

        let start = Instant::now();
        black_box(compute_features(&estimator.proxy_context(
            &circuit,
            &layout,
            rng.next_u64(),
        )));
        out.features_us.push(micros(start));
    }
    out
}

/// Save and load latencies (microseconds) of a run's own latest search
/// snapshot, plus its encoded size in bytes. `None` when `run_dir` holds
/// no search snapshot.
pub fn checkpoint_latencies(
    run_dir: &Path,
    probe_dir: &Path,
    reps: usize,
) -> Option<(Vec<f64>, Vec<f64>, usize)> {
    let (state, _) = CheckpointStore::open(run_dir)
        .ok()?
        .load_latest::<SearchCheckpoint>();
    let state = state?;
    let bytes = encode_snapshot(&state).len();
    let store = CheckpointStore::open(probe_dir).ok()?;
    let mut save_us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        store.save(&state, None).ok()?;
        save_us.push(micros(start));
    }
    let mut load_us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        black_box(store.load_latest::<SearchCheckpoint>().0?);
        load_us.push(micros(start));
    }
    Some((save_us, load_us, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patch_layouts_are_injective_connected_and_seeded() {
        for device in [Device::belem(), Device::jakarta(), Device::manhattan()] {
            let n = device.num_qubits().min(10) - 1;
            let a = patch_layout(&device, n, &mut SplitMix::new(3));
            let b = patch_layout(&device, n, &mut SplitMix::new(3));
            assert_eq!(a, b, "same seed, same layout");
            let mut sorted = a.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), n, "{}: injective", device.name());
            assert!(a.iter().all(|&q| q < device.num_qubits()));
        }
    }
}
