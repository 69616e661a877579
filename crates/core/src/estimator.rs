//! Performance estimators: the search engine's fitness function and the
//! final "measured on device" evaluation.

use crate::{Readout, Task};
use qns_chem::qwc_groups;
use qns_circuit::Circuit;
use qns_data::Dataset;
use qns_ml::{accuracy, nll_loss};
use qns_noise::{circuit_success_rate, Device, TrajectoryConfig, TrajectoryExecutor};
use qns_runtime::{counters, timers, Metrics, ShardedCache};
use qns_sim::{expect_z_batch, parallel_map, run_with, ExecMode, SimBackend};
use qns_transpile::{transpile_with, Layout, TranspileOptions, Transpiled};
use qns_verify::{VerifyLevel, PANIC_MARKER};
use std::sync::Arc;
use std::time::Instant;

/// How SubCircuit performance is estimated during search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EstimatorKind {
    /// Noise-free simulation only (the paper's noise-unaware baseline).
    Noiseless,
    /// Trajectory simulation with the device noise model — the paper's
    /// accurate-but-slower first method.
    NoisySim(TrajectoryConfig),
    /// Noise-free loss scaled by the compiled circuit's gate success rate —
    /// the paper's fast second method for larger circuits.
    SuccessRate,
    /// Exact density-matrix simulation with the device noise model — what
    /// Qiskit's noisy simulator computes. Exact but `4^n` memory: use for
    /// small circuits and high-precision reference runs.
    DensitySim,
}

/// Scores (circuit, qubit-mapping) pairs on a device.
///
/// Lower scores are better: validation NLL for QML, energy for VQE — the
/// same fitness the paper's evolution engine minimizes.
///
/// # Examples
///
/// ```no_run
/// use quantumnas::{Estimator, EstimatorKind, Task};
/// use qns_noise::{Device, TrajectoryConfig};
/// use qns_transpile::Layout;
///
/// let task = Task::qml_digits(&[3, 6], 40, 4, 0);
/// let est = Estimator::new(
///     Device::yorktown(),
///     EstimatorKind::NoisySim(TrajectoryConfig::default()),
///     2,
/// );
/// # let circuit = qns_circuit::Circuit::new(4);
/// # let params: Vec<f64> = vec![];
/// let score = est.score(&circuit, &params, &task, &Layout::trivial(4));
/// ```
#[derive(Clone, Debug)]
pub struct Estimator {
    device: Device,
    kind: EstimatorKind,
    opt_level: u8,
    /// Cap on validation samples scored per call (speed knob; the paper
    /// evaluates the full validation split).
    valid_cap: usize,
    /// Shared transpile cache; `None` compiles every call.
    transpile_cache: Option<Arc<ShardedCache<Transpiled>>>,
    /// Shared telemetry registry; `None` skips all accounting.
    metrics: Option<Arc<Metrics>>,
    /// Per-stage contract checking on every fresh transpile.
    verify: VerifyLevel,
    /// Which simulator kernels score candidates (`Fast` in production;
    /// `Reference` replays the naive oracle for differential runs).
    backend: SimBackend,
}

impl Estimator {
    /// Creates an estimator for a device at a transpiler optimization
    /// level (the paper uses level 2).
    pub fn new(device: Device, kind: EstimatorKind, opt_level: u8) -> Self {
        Estimator {
            device,
            kind,
            opt_level,
            valid_cap: 24,
            transpile_cache: None,
            metrics: None,
            verify: VerifyLevel::Off,
            backend: SimBackend::Fast,
        }
    }

    /// Selects the simulation backend for every score path.
    pub fn with_backend(mut self, backend: SimBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The configured simulation backend.
    pub fn backend(&self) -> SimBackend {
        self.backend
    }

    /// Caps how many validation samples each score call touches.
    pub fn with_valid_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "need at least one validation sample");
        self.valid_cap = cap;
        self
    }

    /// Turns on per-stage transpiler contract checking. A violation panics
    /// with a [`PANIC_MARKER`]-prefixed message, which the search runtime
    /// catches and classifies as a verification failure (a real error in
    /// the telemetry) instead of silently poisoning the score.
    pub fn with_verify(mut self, level: VerifyLevel) -> Self {
        self.verify = level;
        self
    }

    /// The configured verification level.
    pub fn verify_level(&self) -> VerifyLevel {
        self.verify
    }

    /// The target device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Replaces the device (drifting-noise experiments). Cached transpiles
    /// stay valid: keys embed the full device fingerprint, so the old
    /// device's entries simply stop matching.
    pub fn set_device(&mut self, device: Device) {
        self.device = device;
    }

    /// The estimation mode.
    pub fn kind(&self) -> EstimatorKind {
        self.kind
    }

    /// The transpiler optimization level.
    pub fn opt_level(&self) -> u8 {
        self.opt_level
    }

    /// The validation-sample cap per score call.
    pub fn valid_cap(&self) -> usize {
        self.valid_cap
    }

    /// Bundles a candidate with this estimator's device for training-free
    /// proxy scoring: the topology proxy reads the same calibration data
    /// full scoring would, so proxy ranks track the estimator's noise
    /// awareness.
    pub fn proxy_context<'a>(
        &'a self,
        circuit: &'a Circuit,
        layout: &'a [usize],
        seed: u64,
    ) -> qns_proxy::ProxyContext<'a> {
        qns_proxy::ProxyContext {
            circuit,
            device: &self.device,
            layout,
            seed,
        }
    }

    /// Wires this estimator into a search runtime: compiles go through
    /// `cache` (content-addressed, so distinct devices or opt levels never
    /// collide) and transpile/simulate wall time plus cache hit counters
    /// land in `metrics`.
    pub fn attach_runtime(
        &mut self,
        cache: Option<Arc<ShardedCache<Transpiled>>>,
        metrics: Option<Arc<Metrics>>,
    ) {
        self.transpile_cache = cache;
        self.metrics = metrics;
    }

    /// Depth and 2Q-gate count of the candidate's *compiled* circuit —
    /// the structural objectives of the multi-objective search. Goes
    /// through the shared transpile cache when one is attached, so a
    /// candidate that is also fully scored pays for one compile, not two.
    pub fn compiled_shape(&self, circuit: &Circuit, layout: &Layout) -> (usize, usize) {
        let t = self.compile(circuit, layout);
        (t.depth(), t.circuit.count_2q())
    }

    fn compile(&self, circuit: &Circuit, layout: &Layout) -> Arc<Transpiled> {
        let Some(cache) = &self.transpile_cache else {
            return Arc::new(self.timed_transpile(circuit, layout));
        };
        let key = crate::runtime::transpile_key(circuit, &self.device, layout, self.opt_level);
        let mut compiled = false;
        let t = cache.get_or_insert_with(key, || {
            compiled = true;
            self.timed_transpile(circuit, layout)
        });
        if let Some(m) = &self.metrics {
            let counter = if compiled {
                counters::TRANSPILE_MISSES
            } else {
                counters::TRANSPILE_HITS
            };
            m.incr(counter, 1);
        }
        t
    }

    fn timed_transpile(&self, circuit: &Circuit, layout: &Layout) -> Transpiled {
        // lint:allow(wallclock) — transpile wall time lands in the telemetry registry only
        let start = Instant::now();
        let opts = TranspileOptions::verified(self.verify);
        let result = transpile_with(circuit, &self.device, layout, self.opt_level, opts);
        if let Some(m) = &self.metrics {
            m.record(timers::TRANSPILE, start.elapsed());
            if self.verify.enabled() {
                m.incr(counters::VERIFY_CHECKS, 1);
            }
        }
        match result {
            Ok(t) => t,
            // The marker lets the search runtime tell a contract violation
            // from an arbitrary worker crash (and count it separately).
            Err(e) => {
                let msg = e.to_string();
                if msg.starts_with(PANIC_MARKER) {
                    panic!("{msg}");
                }
                panic!("{PANIC_MARKER} {msg}");
            }
        }
    }

    fn timed_sim<T>(&self, f: impl FnOnce() -> T) -> T {
        match &self.metrics {
            Some(m) => m.time(timers::SIMULATE, f),
            None => f(),
        }
    }

    /// Scores a logical circuit with the given parameters and mapping.
    /// Lower is better (QML validation loss / VQE energy).
    ///
    /// # Panics
    ///
    /// Panics if the layout width differs from the circuit width.
    pub fn score(&self, circuit: &Circuit, params: &[f64], task: &Task, layout: &Layout) -> f64 {
        match task {
            Task::Qml {
                splits, readout, ..
            } => self.score_qml(circuit, params, &splits.valid, readout, layout),
            Task::Vqe { hamiltonian, .. } => self.score_vqe(circuit, params, hamiltonian, layout),
        }
    }

    /// Validation NLL of a QML candidate: every estimator kind yields the
    /// logical per-qubit `<Z>` of each capped validation sample, and the
    /// loss is reduced from them in one place.
    fn score_qml(
        &self,
        circuit: &Circuit,
        params: &[f64],
        valid: &Dataset,
        readout: &Readout,
        layout: &Layout,
    ) -> f64 {
        let n = valid.num_samples().min(self.valid_cap);
        assert!(n > 0, "empty validation split");
        let inputs: Vec<&[f64]> = valid.features[..n].iter().map(Vec::as_slice).collect();
        let zs = match self.kind {
            EstimatorKind::Noiseless | EstimatorKind::SuccessRate => {
                self.timed_sim(|| expect_z_batch(circuit, params, &inputs, self.backend))
            }
            EstimatorKind::NoisySim(cfg) => {
                let t = self.compile(circuit, layout);
                self.timed_sim(|| self.noisy_expect_z(&t, params, &inputs, cfg))
            }
            EstimatorKind::DensitySim => {
                let t = self.compile(circuit, layout);
                self.timed_sim(|| {
                    parallel_map(&inputs, |input| {
                        let exact = qns_noise::density_expect_z(
                            &t.circuit,
                            params,
                            input,
                            &self.device,
                            &t.phys_of,
                            true,
                        );
                        logical_z(&t, &exact)
                    })
                })
            }
        };
        let losses: Vec<f64> = zs
            .iter()
            .zip(&valid.labels)
            .map(|(z, &label)| nll_loss(&readout.logits(z), label))
            .collect();
        let loss = mean(&losses);
        if self.kind != EstimatorKind::SuccessRate {
            return loss;
        }
        let t = self.compile(circuit, layout);
        let rate = circuit_success_rate(&t.circuit, &self.device, &t.phys_of, true);
        qns_noise::augmented_loss(loss, rate.max(1e-6))
    }

    fn score_vqe(
        &self,
        circuit: &Circuit,
        params: &[f64],
        hamiltonian: &qns_chem::PauliSum,
        layout: &Layout,
    ) -> f64 {
        match self.kind {
            EstimatorKind::Noiseless => {
                let s = self
                    .timed_sim(|| run_with(circuit, params, &[], ExecMode::Static, self.backend));
                hamiltonian.expectation(&s)
            }
            EstimatorKind::SuccessRate => {
                let t = self.compile(circuit, layout);
                let rate = circuit_success_rate(&t.circuit, &self.device, &t.phys_of, true);
                let s = self
                    .timed_sim(|| run_with(circuit, params, &[], ExecMode::Static, self.backend));
                let e = hamiltonian.expectation(&s);
                // Depolarization drives <H> toward the identity component,
                // so the estimated measured energy interpolates with the
                // success rate.
                let offset = hamiltonian.identity_coeff();
                offset + rate * (e - offset)
            }
            EstimatorKind::NoisySim(cfg) => {
                self.vqe_energy_measured(circuit, params, hamiltonian, layout, cfg)
            }
            EstimatorKind::DensitySim => {
                self.grouped_energy(circuit, hamiltonian, layout, |t, masks| {
                    qns_noise::density_expect_masks(
                        &t.circuit,
                        params,
                        &[],
                        &self.device,
                        &t.phys_of,
                        masks,
                        true,
                    )
                })
            }
        }
    }

    /// "Measured" VQE energy: transpiles the ansatz plus each
    /// qubit-wise-commuting group's basis rotation, runs the noisy
    /// trajectory executor, and recombines parities — the full hardware
    /// estimation path.
    pub fn vqe_energy_measured(
        &self,
        circuit: &Circuit,
        params: &[f64],
        hamiltonian: &qns_chem::PauliSum,
        layout: &Layout,
        cfg: TrajectoryConfig,
    ) -> f64 {
        // The process-default worker count, as in `noisy_expect_z`: inside
        // the search's candidate fan-out the chunks run inline, and results
        // are bit-identical for any worker count.
        let exec = TrajectoryExecutor::new(self.device.clone(), cfg)
            .with_workers(0)
            .with_backend(self.backend);
        self.grouped_energy(circuit, hamiltonian, layout, |t, masks| {
            exec.expect_z_masks(&t.circuit, params, &[], &t.phys_of, masks)
        })
    }

    /// Energy measured group by group: for each qubit-wise-commuting group
    /// of `hamiltonian`, transpiles the ansatz plus the group's basis
    /// rotation, translates the group's logical parity masks to dense
    /// simulator qubits, evaluates them with `parities` (timed as
    /// simulation), and recombines.
    fn grouped_energy(
        &self,
        circuit: &Circuit,
        hamiltonian: &qns_chem::PauliSum,
        layout: &Layout,
        parities: impl Fn(&Transpiled, &[u64]) -> Vec<f64>,
    ) -> f64 {
        let (offset, groups) = qwc_groups(hamiltonian);
        let mut energy = offset;
        for group in &groups {
            let mut logical = circuit.clone();
            logical.extend_from(&group.rotation_circuit());
            let t = self.compile(&logical, layout);
            let masks: Vec<u64> = group
                .z_masks()
                .iter()
                .map(|&m| {
                    let mut dense = 0u64;
                    for l in 0..circuit.num_qubits() {
                        if m & (1 << l) != 0 {
                            dense |= 1 << t.dense_of_logical[l];
                        }
                    }
                    dense
                })
                .collect();
            let values = self.timed_sim(|| parities(&t, &masks));
            energy += group.energy_from_parities(&values);
        }
        energy
    }

    /// "Measured" QML accuracy on (a subset of) the test split: the final
    /// deployment metric the paper reports from real hardware.
    ///
    /// # Panics
    ///
    /// Panics if called on a VQE task.
    pub fn test_accuracy(
        &self,
        circuit: &Circuit,
        params: &[f64],
        task: &Task,
        layout: &Layout,
        n_test: usize,
        traj: TrajectoryConfig,
    ) -> f64 {
        let (splits, readout) = match task {
            Task::Qml {
                splits, readout, ..
            } => (splits, readout),
            Task::Vqe { .. } => panic!("test_accuracy is a QML metric"),
        };
        let test = splits.test.subsample(n_test, 0x7E57);
        let inputs: Vec<&[f64]> = test.features.iter().map(Vec::as_slice).collect();
        let t = self.compile(circuit, layout);
        let logits: Vec<Vec<f64>> = self
            .noisy_expect_z(&t, params, &inputs, traj)
            .iter()
            .map(|z| readout.logits(z))
            .collect();
        accuracy(&logits, &test.labels)
    }

    /// Logical noisy `<Z>` of a compiled QML candidate for each encoded
    /// sample: one batched trajectory call whose (sample, trajectory) lanes
    /// run as full 16-lane chunks on the process-default worker count.
    /// Inside the search's candidate fan-out the chunks run inline; at
    /// deployment they fan out over the pool. Bit-identical to one
    /// [`TrajectoryExecutor::expect_z`] per sample.
    fn noisy_expect_z(
        &self,
        t: &Transpiled,
        params: &[f64],
        inputs: &[&[f64]],
        cfg: TrajectoryConfig,
    ) -> Vec<Vec<f64>> {
        TrajectoryExecutor::new(self.device.clone(), cfg)
            .with_workers(0)
            .with_backend(self.backend)
            .expect_z_batch(&t.circuit, params, inputs, &t.phys_of)
            .iter()
            .map(|noisy| logical_z(t, &noisy.expect_z))
            .collect()
    }

    /// Noise-free accuracy on (a subset of) the test split, simulated on
    /// the configured backend.
    ///
    /// # Panics
    ///
    /// Panics if called on a VQE task.
    pub fn ideal_accuracy(
        &self,
        circuit: &Circuit,
        params: &[f64],
        task: &Task,
        n_test: usize,
    ) -> f64 {
        let (splits, readout) = match task {
            Task::Qml {
                splits, readout, ..
            } => (splits, readout),
            Task::Vqe { .. } => panic!("ideal_accuracy is a QML metric"),
        };
        let test = splits.test.subsample(n_test, 0x7E57);
        let inputs: Vec<&[f64]> = test.features.iter().map(Vec::as_slice).collect();
        let logits: Vec<Vec<f64>> = expect_z_batch(circuit, params, &inputs, self.backend)
            .iter()
            .map(|z| readout.logits(z))
            .collect();
        accuracy(&logits, &test.labels)
    }
}

/// Logical-qubit values read off a compiled circuit's dense simulator
/// qubits.
fn logical_z(t: &Transpiled, dense: &[f64]) -> Vec<f64> {
    t.dense_of_logical.iter().map(|&d| dense[d]).collect()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DesignSpace, SpaceKind, SuperCircuit};
    use qns_chem::Molecule;
    use qns_sim::run;

    fn tiny_setup() -> (Task, Circuit, Vec<f64>) {
        let task = Task::qml_digits(&[1, 8], 15, 4, 2);
        let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 1);
        let encoder = match &task {
            Task::Qml { encoder, .. } => encoder.clone(),
            _ => unreachable!(),
        };
        let circuit = sc.build(&sc.max_config(), Some(&encoder));
        let params: Vec<f64> = (0..circuit.num_train_params())
            .map(|i| 0.1 * (i as f64 % 7.0) - 0.3)
            .collect();
        (task, circuit, params)
    }

    #[test]
    fn noiseless_score_is_finite_and_positive() {
        let (task, circuit, params) = tiny_setup();
        let est = Estimator::new(Device::yorktown(), EstimatorKind::Noiseless, 1).with_valid_cap(4);
        let s = est.score(&circuit, &params, &task, &Layout::trivial(4));
        assert!(s.is_finite() && s > 0.0);
    }

    #[test]
    fn success_rate_score_exceeds_noiseless() {
        let (task, circuit, params) = tiny_setup();
        let layout = Layout::trivial(4);
        let noiseless = Estimator::new(Device::yorktown(), EstimatorKind::Noiseless, 1)
            .with_valid_cap(4)
            .score(&circuit, &params, &task, &layout);
        let augmented = Estimator::new(Device::yorktown(), EstimatorKind::SuccessRate, 1)
            .with_valid_cap(4)
            .score(&circuit, &params, &task, &layout);
        assert!(augmented > noiseless, "{augmented} vs {noiseless}");
    }

    #[test]
    fn noisy_score_runs_and_exceeds_noiseless_on_noisy_device() {
        let (task, circuit, params) = tiny_setup();
        let layout = Layout::trivial(4);
        let cfg = TrajectoryConfig {
            trajectories: 4,
            seed: 1,
            readout: true,
        };
        let noisy = Estimator::new(Device::yorktown(), EstimatorKind::NoisySim(cfg), 1)
            .with_valid_cap(3)
            .score(&circuit, &params, &task, &layout);
        assert!(noisy.is_finite() && noisy > 0.0);
    }

    #[test]
    fn vqe_noiseless_matches_direct_expectation() {
        let mol = Molecule::h2();
        let task = Task::vqe(&mol);
        let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 2, 1);
        let circuit = sc.build(&sc.max_config(), None);
        let params = vec![0.2; circuit.num_train_params()];
        let est = Estimator::new(Device::belem(), EstimatorKind::Noiseless, 1);
        let s = est.score(&circuit, &params, &task, &Layout::trivial(2));
        let direct = {
            let state = run(&circuit, &params, &[], ExecMode::Static);
            mol.hamiltonian().expectation(&state)
        };
        assert!((s - direct).abs() < 1e-10);
    }

    #[test]
    fn vqe_measured_energy_is_damped_toward_offset() {
        let mol = Molecule::h2();
        let task = Task::vqe(&mol);
        let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 2, 1);
        let circuit = sc.build(&sc.max_config(), None);
        // Train briefly so the ideal energy is meaningfully negative.
        let (params, _) = crate::train::train_task(
            &circuit,
            &task,
            &crate::TrainConfig {
                epochs: 120,
                lr: 0.05,
                ..Default::default()
            },
            None,
        );
        let layout = Layout::trivial(2);
        let ideal = Estimator::new(Device::santiago(), EstimatorKind::Noiseless, 1)
            .score(&circuit, &params, &task, &layout);
        let cfg = TrajectoryConfig {
            trajectories: 16,
            seed: 2,
            readout: true,
        };
        let measured = Estimator::new(Device::yorktown(), EstimatorKind::NoisySim(cfg), 1)
            .score(&circuit, &params, &task, &layout);
        // Noise pulls the energy up toward the identity offset.
        assert!(
            measured > ideal - 0.05,
            "measured {measured} vs ideal {ideal}"
        );
        assert!(measured < 0.0, "still bound: {measured}");
    }

    #[test]
    fn density_estimator_matches_many_trajectory_limit() {
        let (task, circuit, params) = tiny_setup();
        let layout = Layout::trivial(4);
        let device = Device::yorktown().scaled_errors(3.0);
        let exact = Estimator::new(device.clone(), EstimatorKind::DensitySim, 1)
            .with_valid_cap(2)
            .score(&circuit, &params, &task, &layout);
        let sampled = Estimator::new(
            device,
            EstimatorKind::NoisySim(TrajectoryConfig {
                trajectories: 600,
                seed: 3,
                readout: true,
            }),
            1,
        )
        .with_valid_cap(2)
        .score(&circuit, &params, &task, &layout);
        assert!(
            (exact - sampled).abs() < 0.05,
            "density {exact} vs trajectory {sampled}"
        );
    }

    #[test]
    fn density_vqe_estimator_is_finite_and_bound() {
        let mol = Molecule::h2();
        let task = Task::vqe(&mol);
        let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 2, 1);
        let circuit = sc.build(&sc.max_config(), None);
        let params = vec![0.3; circuit.num_train_params()];
        let e = Estimator::new(Device::belem(), EstimatorKind::DensitySim, 1).score(
            &circuit,
            &params,
            &task,
            &Layout::trivial(2),
        );
        assert!(e.is_finite());
        assert!(e > mol.fci_energy() - 1e-6, "below the ground energy: {e}");
    }

    #[test]
    fn attached_cache_reuses_transpiles_and_separates_devices() {
        let (task, circuit, params) = tiny_setup();
        let layout = Layout::trivial(4);
        let cache = Arc::new(ShardedCache::new(8));
        let metrics = Arc::new(Metrics::new());
        let mut est =
            Estimator::new(Device::yorktown(), EstimatorKind::SuccessRate, 1).with_valid_cap(2);
        est.attach_runtime(Some(cache.clone()), Some(metrics.clone()));

        let uncached = Estimator::new(Device::yorktown(), EstimatorKind::SuccessRate, 1)
            .with_valid_cap(2)
            .score(&circuit, &params, &task, &layout);
        let first = est.score(&circuit, &params, &task, &layout);
        let second = est.score(&circuit, &params, &task, &layout);
        assert_eq!(first, uncached, "caching must not change scores");
        assert_eq!(first, second);
        assert_eq!(metrics.counter(counters::TRANSPILE_MISSES), 1);
        assert_eq!(metrics.counter(counters::TRANSPILE_HITS), 1);
        assert_eq!(cache.len(), 1);

        // A different device must compile fresh, never share an entry.
        est.set_device(Device::yorktown().scaled_errors(2.0));
        est.score(&circuit, &params, &task, &layout);
        assert_eq!(metrics.counter(counters::TRANSPILE_MISSES), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reference_backend_matches_fast_scores() {
        let (task, circuit, params) = tiny_setup();
        let layout = Layout::trivial(4);
        for kind in [EstimatorKind::Noiseless, EstimatorKind::SuccessRate] {
            let fast = Estimator::new(Device::yorktown(), kind, 1)
                .with_valid_cap(4)
                .score(&circuit, &params, &task, &layout);
            let oracle = Estimator::new(Device::yorktown(), kind, 1)
                .with_valid_cap(4)
                .with_backend(qns_sim::SimBackend::Reference)
                .score(&circuit, &params, &task, &layout);
            assert!(
                (fast - oracle).abs() < 1e-9,
                "{kind:?}: fast {fast} vs oracle {oracle}"
            );
        }
    }

    #[test]
    fn mps_backend_matches_fast_scores() {
        // Exact-regime MPS scoring must agree with the dense fast path on
        // every estimator kind, including noisy trajectories (same Kraus
        // draw outcomes in the exact regime).
        let (task, circuit, params) = tiny_setup();
        let layout = Layout::trivial(4);
        let mps = qns_sim::SimBackend::Mps(qns_sim::MpsConfig::exact());
        let cfg = TrajectoryConfig {
            trajectories: 6,
            seed: 4,
            readout: true,
        };
        for kind in [
            EstimatorKind::Noiseless,
            EstimatorKind::SuccessRate,
            EstimatorKind::NoisySim(cfg),
        ] {
            let fast = Estimator::new(Device::yorktown(), kind, 1)
                .with_valid_cap(4)
                .score(&circuit, &params, &task, &layout);
            let via_mps = Estimator::new(Device::yorktown(), kind, 1)
                .with_valid_cap(4)
                .with_backend(mps)
                .score(&circuit, &params, &task, &layout);
            assert!(
                (fast - via_mps).abs() < 1e-9,
                "{kind:?}: fast {fast} vs mps {via_mps}"
            );
        }
    }

    #[test]
    fn test_accuracy_is_in_unit_interval() {
        let (task, circuit, params) = tiny_setup();
        let est = Estimator::new(Device::belem(), EstimatorKind::Noiseless, 1);
        let cfg = TrajectoryConfig {
            trajectories: 2,
            seed: 0,
            readout: true,
        };
        let acc = est.test_accuracy(&circuit, &params, &task, &Layout::trivial(4), 10, cfg);
        assert!((0.0..=1.0).contains(&acc));
        let ideal = est.ideal_accuracy(&circuit, &params, &task, 10);
        assert!((0.0..=1.0).contains(&ideal));
    }
}
