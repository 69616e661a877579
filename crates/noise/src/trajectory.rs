//! Monte-Carlo trajectory execution of circuits under device noise.
//!
//! Each trajectory is one loop over the shared noise model's walk
//! (`walk_noisy`: each gate, then its channels), on a lane of a
//! [`StateBatch`] (`Fast`), a reference [`StateVec`] or an [`MpsState`].
//! A lane is one (circuit, input, trajectory) triple:
//! [`TrajectoryExecutor::expect_z_batch`] lays out one circuit's samples ×
//! trajectories input-major, [`TrajectoryExecutor::expect_z_masks_packed`]
//! lays out several compiled circuits' trajectories circuit-major, and the
//! single-input, single-circuit calls are their one-element cases. Lanes
//! are independent, so one chunked runner fans them out over
//! `qns_sim::try_parallel_map` — chunks of `LANE_CHUNK` consecutive lanes
//! on `Fast`, whatever inputs or circuits they mix, as long as the
//! circuits share one mapping; of one lane otherwise — when the executor
//! is given more than one worker (and runs inline when the executor itself
//! runs inside a candidate fan-out). A `Fast` chunk over several circuits
//! runs the op prefix they share once over all its lanes, then forks each
//! circuit's lanes into a batch of their own for the rest.
//!
//! Per-trajectory RNG seeds are derived deterministically from a
//! structural digest of the candidate (circuit + resolved parameters,
//! input included + layout + base seed), so results are a pure function of
//! the candidate and its input, bit-identical for any worker count and any
//! mix of inputs or circuits in a chunk: a lane's gate order, channel
//! order, Born probabilities and draws do not depend on its chunk-mates,
//! the pool returns per-chunk results in lane order, and each (circuit,
//! input)'s fold over its trajectories is sequential.

use crate::model::{readout_affine, walk_noisy, LaneGates, Step};
use crate::Device;
use qns_circuit::{Circuit, GateMatrix};
use qns_runtime::StructuralHasher;
use qns_sim::{try_parallel_map, MpsState, SimBackend, StateBatch, StateVec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Lanes per [`StateBatch`] on the fast path. A **fixed** constant (never
/// derived from the worker count): the chunk layout determines which lanes
/// share a batched sweep, so it must be identical for any worker count to
/// keep results bitwise-stable. Single-sourced from the simulator's
/// micro-kernel tile width so one chunk is a whole number of planar tiles;
/// 16 lanes bound the batch buffer (16 × 2ⁿ amplitudes) while amortizing
/// gate dispatch.
const LANE_CHUNK: usize = qns_sim::LANE_CHUNK;

/// One trajectory lane: the index of the circuit it walks, its input and
/// its RNG seed.
struct Lane<'a> {
    circuit: usize,
    input: &'a [f64],
    seed: u64,
}

/// A circuit a run's lanes walk, with the physical qubit of each circuit
/// qubit.
type Mapped<'a> = (&'a Circuit, &'a [usize]);

/// One compiled circuit of [`TrajectoryExecutor::expect_z_masks_packed`]:
/// the circuit, the physical qubit whose calibration applies to each
/// circuit qubit, and the parity masks to read off it.
#[derive(Clone, Copy, Debug)]
pub struct MaskedCircuit<'a> {
    /// The compiled circuit, over dense circuit qubits.
    pub circuit: &'a Circuit,
    /// Physical qubit of each circuit qubit.
    pub phys_of: &'a [usize],
    /// Bit masks over circuit qubits; each reads `<⊗_{q ∈ mask} Z_q>`.
    pub masks: &'a [u64],
}

/// Configuration for the trajectory executor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrajectoryConfig {
    /// Number of stochastic trajectories to average. The paper's noisy
    /// simulations use density matrices; ~30 trajectories give the same
    /// ranking signal at a fraction of the cost.
    pub trajectories: usize,
    /// RNG seed; each trajectory derives its own stream.
    pub seed: u64,
    /// Whether readout (SPAM) error is applied to the results.
    pub readout: bool,
}

impl Default for TrajectoryConfig {
    fn default() -> Self {
        TrajectoryConfig {
            trajectories: 32,
            seed: 0,
            readout: true,
        }
    }
}

/// Result of a noisy expectation run.
#[derive(Clone, Debug, PartialEq)]
pub struct NoisyResult {
    /// Readout-adjusted `<Z_q>` per circuit qubit.
    pub expect_z: Vec<f64>,
}

/// Executes circuits under a device noise model by averaging stochastic
/// Kraus trajectories.
///
/// The noise model matches the paper's description of IBMQ calibration
/// models: **depolarizing** error per gate (two-qubit gates approximated as
/// independent depolarizing on both operands — the Pauli-twirl
/// approximation), **thermal relaxation** from per-qubit T1/T2 over each
/// gate's duration, and **readout error** as a per-qubit confusion matrix.
///
/// Circuits are expressed over a dense set of "circuit qubits"; `phys_of`
/// maps circuit qubit `i` to the physical qubit whose calibration applies.
/// This is what the transpiler produces, and it keeps the state vector
/// small even on 65-qubit devices.
///
/// # Examples
///
/// ```
/// use qns_circuit::{Circuit, GateKind};
/// use qns_noise::{Device, TrajectoryConfig, TrajectoryExecutor};
///
/// let mut c = Circuit::new(2);
/// c.push(GateKind::H, &[0], &[]);
/// c.push(GateKind::CX, &[0, 1], &[]);
/// let dev = Device::yorktown();
/// let exec = TrajectoryExecutor::new(dev, TrajectoryConfig::default());
/// let noisy = exec.expect_z(&c, &[], &[], &[2, 3]);
/// // Noise shrinks |<Z>| toward 0 but cannot exceed 1.
/// assert!(noisy.expect_z.iter().all(|e| e.abs() <= 1.0));
/// ```
#[derive(Clone, Debug)]
pub struct TrajectoryExecutor {
    device: Device,
    config: TrajectoryConfig,
    workers: usize,
    backend: SimBackend,
}

impl TrajectoryExecutor {
    /// Creates an executor for a device. Trajectories run sequentially and
    /// on the fast kernels by default; see [`TrajectoryExecutor::with_workers`]
    /// and [`TrajectoryExecutor::with_backend`].
    pub fn new(device: Device, config: TrajectoryConfig) -> Self {
        assert!(config.trajectories > 0, "need at least one trajectory");
        TrajectoryExecutor {
            device,
            config,
            workers: 1,
            backend: SimBackend::Fast,
        }
    }

    /// Sets the worker count for fanning trajectories over the worker
    /// pool; `0` means the process default (`qns_sim::set_parallelism`,
    /// else one per core). Results are bit-identical for any worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the simulation backend for the unitary part of each trajectory.
    pub fn with_backend(mut self, backend: SimBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The wrapped device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The configuration.
    pub fn config(&self) -> &TrajectoryConfig {
        &self.config
    }

    /// Structural digest of one candidate evaluation: circuit shape,
    /// resolved parameters, layout, and the base seed. Seeds every
    /// trajectory, so equal candidates share noise streams and different
    /// candidates (or parameter sets) decorrelate.
    fn candidate_digest(
        &self,
        circuit: &Circuit,
        train: &[f64],
        input: &[f64],
        phys_of: &[usize],
    ) -> u64 {
        let mut h = StructuralHasher::new();
        h.write_u64(self.config.seed);
        h.write_usize(circuit.num_qubits());
        for op in circuit.iter() {
            h.write_str(op.kind.name());
            h.write_usize(op.qubits[0]);
            h.write_usize(op.qubits[1]);
            for p in op.resolve_params(train, input) {
                h.write_f64(p);
            }
        }
        for &p in phys_of {
            h.write_usize(p);
        }
        let key = h.finish();
        key.lo ^ key.hi
    }

    /// The trajectory lanes of circuit `index` of a run: for each input in
    /// turn, its trajectories in index order, each seeded by a splitmix64
    /// finalizer over the index and the digest of the candidate with that
    /// input.
    fn lanes<'a>(
        &self,
        index: usize,
        (circuit, phys_of): Mapped<'_>,
        train: &[f64],
        inputs: &[&'a [f64]],
    ) -> Vec<Lane<'a>> {
        let mut lanes = Vec::with_capacity(inputs.len() * self.config.trajectories);
        for &input in inputs {
            let digest = self.candidate_digest(circuit, train, input, phys_of);
            for t in 0..self.config.trajectories as u64 {
                let mut z = digest ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                lanes.push(Lane {
                    circuit: index,
                    input,
                    seed: z ^ (z >> 31),
                });
            }
        }
        lanes
    }

    /// Runs one chunk of trajectory lanes, lane `l` walking circuit
    /// `circuits[lanes[l].circuit]` on input `lanes[l].input` from RNG seed
    /// `lanes[l].seed`, and hands each lane's final state and RNG
    /// (positioned exactly after the circuit's noise draws) to `each`, in
    /// lane order. On `Fast` a chunk's circuits must share one mapping.
    ///
    /// Every backend is one loop over [`walk_noisy`]. `Fast` runs the chunk
    /// as lanes of a [`StateBatch`]: gates that do not read the input (or
    /// that every lane reads from one input) sweep every lane at once, gates
    /// whose input differs across lanes sweep once with a matrix per lane,
    /// and each channel is applied to all lanes in one lanes-contiguous pass
    /// ([`crate::KrausChannel::apply_trajectory_all_lanes`]) drawing from
    /// each lane's own RNG. When the chunk's lanes walk several circuits,
    /// the batch first runs the longest op prefix they all share (equal
    /// ops under one mapping are equal steps), then each circuit's lanes —
    /// consecutive, as the runs lay them out — are copied into a batch of
    /// their own that finishes that circuit's remaining ops. Lane `l` is
    /// bit-identical to the `Reference` trajectory of `lanes[l]`: per lane
    /// the gate/noise order, every Born probability and every RNG draw are
    /// the same. `Reference` and `Mps` run each lane on its own state; an
    /// MPS trajectory is densified at the end so result extraction is
    /// backend-agnostic, and in the exact regime its draw outcomes agree
    /// with `Reference`.
    fn run_chunk(
        &self,
        circuits: &[Mapped<'_>],
        train: &[f64],
        lanes: &[Lane<'_>],
        mut each: impl FnMut(usize, &StateVec, &mut StdRng),
    ) {
        let mut rngs: Vec<StdRng> = lanes
            .iter()
            .map(|lane| StdRng::seed_from_u64(lane.seed))
            .collect();
        let walk = |(circuit, phys_of): Mapped<'_>,
                    ops: Range<usize>,
                    inputs: &[&[f64]],
                    visit: &mut dyn FnMut(Step<'_>)| {
            walk_noisy(&self.device, circuit, ops, train, inputs, phys_of, visit)
        };
        match self.backend {
            SimBackend::Fast => {
                let inputs: Vec<&[f64]> = lanes.iter().map(|lane| lane.input).collect();
                let walk_batch = |mapped: Mapped<'_>,
                                  ops: Range<usize>,
                                  lanes: Range<usize>,
                                  batch: &mut StateBatch,
                                  rngs: &mut [StdRng]| {
                    let rngs = &mut rngs[lanes.clone()];
                    walk(mapped, ops, &inputs[lanes], &mut |step| match step {
                        Step::Gate(GateMatrix::One(m), [q, _]) => batch.apply_1q(m, q),
                        Step::Gate(GateMatrix::Two(m), [a, b]) => batch.apply_2q(m, a, b),
                        Step::LaneGates(LaneGates::One(ms), [q, _]) => {
                            batch.apply_1q_per_lane(ms, q)
                        }
                        Step::LaneGates(LaneGates::Two(ms), [a, b]) => {
                            batch.apply_2q_per_lane(ms, a, b)
                        }
                        Step::Channel(ch, q) => ch.apply_trajectory_all_lanes(batch, q, rngs),
                    })
                };
                // Walk the ops every circuit of the chunk shares (all of
                // them when it walks one circuit) over all its lanes, then
                // finish each circuit on a copy of its own lanes.
                let runs = runs(lanes.len(), |start, end| {
                    lanes[start].circuit != lanes[end].circuit
                });
                let first = circuits[lanes[0].circuit];
                let prefix = runs
                    .iter()
                    .map(|run| shared_prefix(first.0, circuits[lanes[run.start].circuit].0))
                    .min()
                    .expect("a chunk has lanes");
                let mut batch = StateBatch::zero_state(first.0.num_qubits(), lanes.len());
                walk_batch(first, 0..prefix, 0..lanes.len(), &mut batch, &mut rngs);
                if runs.len() == 1 {
                    for (lane, rng) in rngs.iter_mut().enumerate() {
                        each(lane, &batch.lane_state(lane), rng);
                    }
                    return;
                }
                for run in runs {
                    let mapped = circuits[lanes[run.start].circuit];
                    let mut fork = batch.copy_lanes(run.clone());
                    let rest = prefix..mapped.0.num_ops();
                    walk_batch(mapped, rest, run.clone(), &mut fork, &mut rngs);
                    for (i, lane) in run.enumerate() {
                        each(lane, &fork.lane_state(i), &mut rngs[lane]);
                    }
                }
            }
            SimBackend::Reference => {
                for (l, (lane, rng)) in lanes.iter().zip(&mut rngs).enumerate() {
                    let mapped = circuits[lane.circuit];
                    let mut state = StateVec::zero_state(mapped.0.num_qubits());
                    let ops = 0..mapped.0.num_ops();
                    walk(mapped, ops, &[lane.input], &mut |step| match step {
                        Step::Gate(GateMatrix::One(m), [q, _]) => state.apply_1q_reference(m, q),
                        Step::Gate(GateMatrix::Two(m), [a, b]) => state.apply_2q_reference(m, a, b),
                        Step::LaneGates(..) => unreachable!("one input shares every gate"),
                        Step::Channel(ch, q) => ch.apply_trajectory(&mut state, q, rng),
                    });
                    each(l, &state, rng);
                }
            }
            SimBackend::Mps(config) => {
                for (l, (lane, rng)) in lanes.iter().zip(&mut rngs).enumerate() {
                    let mapped = circuits[lane.circuit];
                    let mut mps = MpsState::zero_state(mapped.0.num_qubits(), config);
                    let ops = 0..mapped.0.num_ops();
                    walk(mapped, ops, &[lane.input], &mut |step| match step {
                        Step::Gate(GateMatrix::One(m), [q, _]) => mps.apply_1q(m, q),
                        Step::Gate(GateMatrix::Two(m), [a, b]) => mps.apply_2q(m, a, b),
                        Step::LaneGates(..) => unreachable!("one input shares every gate"),
                        Step::Channel(ch, q) => ch.apply_trajectory_mps(&mut mps, q, rng),
                    });
                    each(l, &mps.to_statevec(), rng);
                }
            }
        }
    }

    /// The chunks a run's lanes fan out in, as lane ranges. On `Fast` each
    /// chunk is up to [`LANE_CHUNK`] consecutive lanes, cut early where
    /// the next lane's circuit has another mapping (and so, validated,
    /// possibly another width) than the chunk's first; otherwise each lane
    /// is its own chunk. The layout depends only on the lanes, never on
    /// the worker count.
    fn chunks(&self, circuits: &[Mapped<'_>], lanes: &[Lane<'_>]) -> Vec<Range<usize>> {
        let width = if self.backend == SimBackend::Fast {
            LANE_CHUNK
        } else {
            1
        };
        let phys_of = |lane: usize| circuits[lanes[lane].circuit].1;
        runs(lanes.len(), |start, end| {
            end - start == width || phys_of(start) != phys_of(end)
        })
    }

    /// Runs every trajectory lane and extracts one result per lane, in lane
    /// order. A lane of a panicking chunk yields `default(lane)`.
    ///
    /// The lanes run in [`TrajectoryExecutor::chunks`]: one
    /// [`StateBatch`] each on `Fast`, one lane each otherwise; the chunks
    /// fan out over the worker pool, and a panic poisons only its own
    /// chunk. `extract` receives the lane index, its final state, and its
    /// RNG (for shot sampling).
    fn run_trajectories<U: Send>(
        &self,
        circuits: &[Mapped<'_>],
        train: &[f64],
        lanes: &[Lane<'_>],
        extract: impl Fn(usize, &StateVec, &mut StdRng) -> U + Sync,
        default: impl Fn(usize) -> U,
    ) -> Vec<U> {
        let chunks = self.chunks(circuits, lanes);
        let per_chunk = try_parallel_map(&chunks, self.workers, |chunk| {
            let mut out = Vec::with_capacity(chunk.len());
            self.run_chunk(circuits, train, &lanes[chunk.clone()], |i, state, rng| {
                out.push(extract(chunk.start + i, state, rng))
            });
            out
        });
        // Flatten in chunk order; a panicked chunk is backfilled per lane.
        let mut out = Vec::with_capacity(lanes.len());
        for (res, chunk) in per_chunk.into_iter().zip(chunks) {
            match res {
                Ok(results) => out.extend(results),
                Err(_) => out.extend(chunk.map(&default)),
            }
        }
        out
    }

    /// Noisy `<Z_q>` per circuit qubit, averaged over trajectories and
    /// adjusted for readout error via the affine map
    /// `E' = (1 − p01 − p10) E + (p10 − p01)`.
    ///
    /// This is [`TrajectoryExecutor::expect_z_batch`] with one input.
    ///
    /// # Panics
    ///
    /// Panics if `phys_of.len() != circuit.num_qubits()` or maps outside
    /// the device.
    pub fn expect_z(
        &self,
        circuit: &Circuit,
        train: &[f64],
        input: &[f64],
        phys_of: &[usize],
    ) -> NoisyResult {
        let mut results = self.expect_z_batch(circuit, train, &[input], phys_of);
        results.pop().expect("one result per input")
    }

    /// [`TrajectoryExecutor::expect_z`] for each of `inputs`, one
    /// [`NoisyResult`] per input in input order — each bit-identical to
    /// `expect_z` on that input alone, for any worker count.
    ///
    /// Every (input, trajectory) pair is one lane, input-major, and every
    /// lane keeps the seed `expect_z` gives it. On `Fast` the lanes run as
    /// full [`LANE_CHUNK`](qns_sim::LANE_CHUNK)-lane batches, so a
    /// candidate's samples share gate sweeps and channel passes instead of
    /// running one partly filled batch each; an input's trajectories may
    /// straddle two chunks. Each input's trajectories are folded in index
    /// order before the readout correction. A panicking chunk poisons
    /// (NaN) every input it carried.
    ///
    /// # Panics
    ///
    /// Panics if `phys_of.len() != circuit.num_qubits()` or maps outside
    /// the device.
    pub fn expect_z_batch(
        &self,
        circuit: &Circuit,
        train: &[f64],
        inputs: &[&[f64]],
        phys_of: &[usize],
    ) -> Vec<NoisyResult> {
        self.validate(circuit, phys_of);
        let n = circuit.num_qubits();
        let mapped = [(circuit, phys_of)];
        let lanes = self.lanes(0, mapped[0], train, inputs);
        // Per-lane results come back in lane order; the fold below is
        // sequential, so each average is bit-identical for any worker count.
        let per_lane = self.run_trajectories(
            &mapped,
            train,
            &lanes,
            |_, state, _| state.expect_z_all(),
            |_| vec![f64::NAN; n],
        );
        per_lane
            .chunks(self.config.trajectories)
            .map(|per_traj| {
                let mut expect_z = self.trajectory_mean(per_traj, n);
                if self.config.readout {
                    for (q, e) in expect_z.iter_mut().enumerate() {
                        let (scale, offset) = readout_affine(self.device.qubit(phys_of[q]));
                        *e = scale * *e + offset;
                    }
                }
                NoisyResult { expect_z }
            })
            .collect()
    }

    /// Component-wise mean of `width`-long per-trajectory results, summed
    /// in trajectory order.
    fn trajectory_mean(&self, per_traj: &[Vec<f64>], width: usize) -> Vec<f64> {
        let mut acc = vec![0.0; width];
        for v in per_traj {
            for (a, e) in acc.iter_mut().zip(v) {
                *a += e;
            }
        }
        acc.into_iter()
            .map(|a| a / self.config.trajectories as f64)
            .collect()
    }

    /// Noisy expectation of `⊗_{q ∈ mask} Z_q` for each bit mask over
    /// circuit qubits, averaged over trajectories.
    ///
    /// Readout error is applied multiplicatively per involved qubit
    /// (`Π_q (1 − p01 − p10)`), the symmetric-confusion approximation;
    /// additive asymmetry terms are second-order for multi-qubit strings.
    ///
    /// This is [`TrajectoryExecutor::expect_z_masks_packed`] with one
    /// circuit.
    ///
    /// # Panics
    ///
    /// Panics if a mask addresses qubits beyond the circuit width.
    pub fn expect_z_masks(
        &self,
        circuit: &Circuit,
        train: &[f64],
        input: &[f64],
        phys_of: &[usize],
        masks: &[u64],
    ) -> Vec<f64> {
        let packed = [MaskedCircuit {
            circuit,
            phys_of,
            masks,
        }];
        let mut results = self.expect_z_masks_packed(&packed, train, input);
        results.pop().expect("one result per circuit")
    }

    /// [`TrajectoryExecutor::expect_z_masks`] for each of several compiled
    /// circuits sharing `train` and `input`, one parity vector per circuit
    /// in circuit order — each bit-identical to `expect_z_masks` on that
    /// circuit alone, for any worker count.
    ///
    /// Every (circuit, trajectory) pair is one lane, circuit-major, and
    /// every lane keeps the seed `expect_z_masks` gives it. On `Fast` the
    /// lanes run as full [`LANE_CHUNK`](qns_sim::LANE_CHUNK)-lane chunks
    /// that straddle circuit boundaries, except that a chunk never spans
    /// two circuits of different mapping. A chunk runs the op prefix its
    /// circuits share once over all its lanes, then finishes each
    /// circuit's remaining ops on a copy of that circuit's lanes: the
    /// measurement-basis variants of one ansatz share most of their
    /// compiled ops. Each circuit's trajectories are folded in index order
    /// before the readout factor. A panicking chunk poisons (NaN) every
    /// circuit it carried.
    ///
    /// # Panics
    ///
    /// Panics if a circuit's mapping does not fit it or the device, or one
    /// of its masks addresses qubits beyond its width.
    pub fn expect_z_masks_packed(
        &self,
        circuits: &[MaskedCircuit<'_>],
        train: &[f64],
        input: &[f64],
    ) -> Vec<Vec<f64>> {
        for c in circuits {
            self.validate(c.circuit, c.phys_of);
            for &m in c.masks {
                assert!(
                    m >> c.circuit.num_qubits() == 0,
                    "mask addresses qubits beyond circuit width"
                );
            }
        }
        let mapped: Vec<Mapped<'_>> = circuits.iter().map(|c| (c.circuit, c.phys_of)).collect();
        let lanes: Vec<Lane<'_>> = mapped
            .iter()
            .enumerate()
            .flat_map(|(i, &m)| self.lanes(i, m, train, &[input]))
            .collect();
        let masks_of = |lane: usize| circuits[lanes[lane].circuit].masks;
        let per_lane = self.run_trajectories(
            &mapped,
            train,
            &lanes,
            |lane, state, _| {
                masks_of(lane)
                    .iter()
                    .map(|&mask| expect_parity(state, mask))
                    .collect::<Vec<f64>>()
            },
            |lane| vec![f64::NAN; masks_of(lane).len()],
        );
        circuits
            .iter()
            .zip(per_lane.chunks(self.config.trajectories))
            .map(|(c, per_traj)| {
                let mut out = self.trajectory_mean(per_traj, c.masks.len());
                if self.config.readout {
                    for (e, &mask) in out.iter_mut().zip(c.masks) {
                        let mut factor = 1.0;
                        for (q, &phys) in c.phys_of.iter().enumerate() {
                            if mask & (1 << q) != 0 {
                                factor *= readout_affine(self.device.qubit(phys)).0;
                            }
                        }
                        *e *= factor;
                    }
                }
                out
            })
            .collect()
    }

    /// Samples `shots` noisy measurement outcomes, including readout bit
    /// flips, split evenly across trajectories. Returns `(index, count)`
    /// pairs sorted by index.
    pub fn sample_counts(
        &self,
        circuit: &Circuit,
        train: &[f64],
        input: &[f64],
        phys_of: &[usize],
        shots: usize,
    ) -> Vec<(usize, u32)> {
        self.validate(circuit, phys_of);
        let per_traj = shots.div_ceil(self.config.trajectories);
        let mapped = [(circuit, phys_of)];
        let mut lanes = self.lanes(0, mapped[0], train, &[input]);
        // Shot allotment per trajectory; trajectories with nothing to draw
        // are dropped entirely, exactly as before batching.
        let mut takes: Vec<usize> = Vec::with_capacity(lanes.len());
        let mut remaining = shots;
        for _ in &lanes {
            if remaining == 0 {
                break;
            }
            let take = per_traj.min(remaining);
            remaining -= take;
            takes.push(take);
        }
        lanes.truncate(takes.len());
        // Each trajectory returns its readout-flipped shot outcomes,
        // sampled from the RNG stream it used for its circuit noise;
        // merging happens sequentially in input order below.
        let per_shot = self.run_trajectories(
            &mapped,
            train,
            &lanes,
            |traj, state, rng| {
                let take = takes[traj];
                let mut outcomes: Vec<usize> = Vec::with_capacity(take);
                for (idx, c) in state.sample_counts(take, rng) {
                    for _ in 0..c {
                        let mut read = idx;
                        if self.config.readout {
                            for (q, &phys) in phys_of.iter().enumerate() {
                                let cal = self.device.qubit(phys);
                                let bit = read & (1 << q) != 0;
                                let flip_p = if bit {
                                    cal.readout_p10
                                } else {
                                    cal.readout_p01
                                };
                                if rng.gen::<f64>() < flip_p {
                                    read ^= 1 << q;
                                }
                            }
                        }
                        outcomes.push(read);
                    }
                }
                outcomes
            },
            |_| Vec::new(),
        );
        let mut counts: std::collections::BTreeMap<usize, u32> = std::collections::BTreeMap::new();
        for outcomes in per_shot {
            for read in outcomes {
                *counts.entry(read).or_insert(0) += 1;
            }
        }
        counts.into_iter().collect()
    }

    fn validate(&self, circuit: &Circuit, phys_of: &[usize]) {
        assert_eq!(
            phys_of.len(),
            circuit.num_qubits(),
            "one physical qubit per circuit qubit"
        );
        for &p in phys_of {
            assert!(p < self.device.num_qubits(), "physical qubit out of range");
        }
    }
}

/// `<ψ| ⊗_{q ∈ mask} Z_q |ψ>`: parity-weighted probability sum.
fn expect_parity(state: &StateVec, mask: u64) -> f64 {
    let mut e = 0.0;
    for (i, a) in state.amplitudes().iter().enumerate() {
        let p = a.norm_sqr();
        if p == 0.0 {
            continue;
        }
        if ((i as u64) & mask).count_ones().is_multiple_of(2) {
            e += p;
        } else {
            e -= p;
        }
    }
    e
}

/// Splits `0..len` into consecutive ranges, ending the current range
/// `start..end` before `end` whenever `cut(start, end)` holds.
fn runs(len: usize, cut: impl Fn(usize, usize) -> bool) -> Vec<Range<usize>> {
    let mut runs = Vec::new();
    let mut start = 0;
    for end in 1..=len {
        if end == len || cut(start, end) {
            runs.push(start..end);
            start = end;
        }
    }
    runs
}

/// Number of leading ops `a` and `b` share.
fn shared_prefix(a: &Circuit, b: &Circuit) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qns_circuit::GateKind;
    use qns_sim::{run, ExecMode};

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(GateKind::H, &[0], &[]);
        c.push(GateKind::CX, &[0, 1], &[]);
        c
    }

    #[test]
    fn noiseless_limit_matches_ideal() {
        // Scale errors to ~0 and disable readout: must match the ideal sim.
        let dev = Device::santiago().scaled_errors(1e-9);
        let exec = TrajectoryExecutor::new(
            dev,
            TrajectoryConfig {
                trajectories: 4,
                seed: 3,
                readout: false,
            },
        );
        let c = bell();
        let noisy = exec.expect_z(&c, &[], &[], &[0, 1]);
        let ideal = run(&c, &[], &[], ExecMode::Dynamic);
        for q in 0..2 {
            assert!(
                (noisy.expect_z[q] - ideal.expect_z(q)).abs() < 0.02,
                "qubit {q}"
            );
        }
    }

    #[test]
    fn noise_shrinks_z_magnitude() {
        // |0> has <Z> = 1 ideally; under noise it must be strictly less.
        let mut c = Circuit::new(1);
        c.push(GateKind::X, &[0], &[]);
        c.push(GateKind::X, &[0], &[]);
        for _ in 0..10 {
            c.push(GateKind::X, &[0], &[]);
            c.push(GateKind::X, &[0], &[]);
        }
        let exec = TrajectoryExecutor::new(Device::yorktown(), TrajectoryConfig::default());
        let noisy = exec.expect_z(&c, &[], &[], &[0]);
        assert!(noisy.expect_z[0] < 0.999);
        assert!(
            noisy.expect_z[0] > 0.5,
            "noise should not destroy the state"
        );
    }

    #[test]
    fn noisier_device_gives_lower_fidelity() {
        let mut c = Circuit::new(2);
        for _ in 0..6 {
            c.push(GateKind::CX, &[0, 1], &[]);
            c.push(GateKind::CX, &[0, 1], &[]);
        }
        let cfg = TrajectoryConfig {
            trajectories: 64,
            seed: 11,
            readout: false,
        };
        let quiet =
            TrajectoryExecutor::new(Device::santiago(), cfg).expect_z(&c, &[], &[], &[0, 1]);
        let loud = TrajectoryExecutor::new(Device::santiago().scaled_errors(10.0), cfg).expect_z(
            &c,
            &[],
            &[],
            &[0, 1],
        );
        // Identity circuit: ideal <Z> = 1 on both qubits.
        assert!(quiet.expect_z[0] > loud.expect_z[0]);
    }

    #[test]
    fn readout_error_biases_expectations() {
        let c = {
            let mut c = Circuit::new(1);
            c.push(GateKind::I, &[0], &[]);
            c
        };
        let dev = Device::yorktown().scaled_errors(1e-9);
        // Rebuild a device with large readout error by scaling: scaled_errors
        // scales readout too, so construct a loud-readout device directly.
        let loud = Device::synthetic("loudread", 5, crate::Topology::Plus, 3e-3, 8, 1);
        let with = TrajectoryExecutor::new(
            loud,
            TrajectoryConfig {
                trajectories: 4,
                seed: 0,
                readout: true,
            },
        )
        .expect_z(&c, &[], &[], &[0]);
        let without = TrajectoryExecutor::new(
            dev,
            TrajectoryConfig {
                trajectories: 4,
                seed: 0,
                readout: false,
            },
        )
        .expect_z(&c, &[], &[], &[0]);
        assert!(with.expect_z[0] < without.expect_z[0]);
    }

    #[test]
    fn masked_parity_on_bell_state() {
        // Bell state: <Z0 Z1> = 1 ideally, individual <Z> = 0.
        let c = bell();
        let dev = Device::santiago().scaled_errors(1e-9);
        let exec = TrajectoryExecutor::new(
            dev,
            TrajectoryConfig {
                trajectories: 4,
                seed: 2,
                readout: false,
            },
        );
        let out = exec.expect_z_masks(&c, &[], &[], &[0, 1], &[0b11, 0b01]);
        assert!((out[0] - 1.0).abs() < 0.02, "ZZ parity {}", out[0]);
        assert!(out[1].abs() < 0.1, "single Z {}", out[1]);
    }

    #[test]
    fn sampled_counts_total_shots() {
        let exec = TrajectoryExecutor::new(Device::belem(), TrajectoryConfig::default());
        let counts = exec.sample_counts(&bell(), &[], &[], &[0, 1], 512);
        let total: u32 = counts.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 512);
        // Bell state: dominated by |00> and |11>.
        let dominant: u32 = counts
            .iter()
            .filter(|(i, _)| *i == 0 || *i == 3)
            .map(|(_, c)| c)
            .sum();
        assert!(dominant > 400, "dominant {dominant}");
    }

    #[test]
    #[should_panic(expected = "physical qubit out of range")]
    fn invalid_mapping_panics() {
        let exec = TrajectoryExecutor::new(Device::belem(), TrajectoryConfig::default());
        let _ = exec.expect_z(&bell(), &[], &[], &[0, 99]);
    }

    #[test]
    fn parallel_trajectories_bit_identical_to_sequential() {
        let cfg = TrajectoryConfig {
            trajectories: 16,
            seed: 5,
            readout: true,
        };
        let c = bell();
        let seq = TrajectoryExecutor::new(Device::belem(), cfg).expect_z(&c, &[], &[], &[0, 1]);
        let par = TrajectoryExecutor::new(Device::belem(), cfg)
            .with_workers(4)
            .expect_z(&c, &[], &[], &[0, 1]);
        assert_eq!(seq.expect_z, par.expect_z, "worker count changed results");
        let seq_counts =
            TrajectoryExecutor::new(Device::belem(), cfg).sample_counts(&c, &[], &[], &[0, 1], 300);
        let par_counts = TrajectoryExecutor::new(Device::belem(), cfg)
            .with_workers(0)
            .sample_counts(&c, &[], &[], &[0, 1], 300);
        assert_eq!(seq_counts, par_counts);
    }

    #[test]
    fn batched_chunk_lanes_are_bit_identical_to_run_one() {
        // Each lane of a batched `Fast` trajectory chunk must reproduce the
        // standalone `Reference` trajectory of the same seed exactly
        // (amplitudes and RNG position), for circuits mixing 1q and 2q
        // gates.
        let mut c = Circuit::new(3);
        c.push(GateKind::H, &[0], &[]);
        c.push(GateKind::CX, &[0, 1], &[]);
        c.push(GateKind::RX, &[2], &[qns_circuit::Param::Train(0)]);
        c.push(GateKind::CZ, &[1, 2], &[]);
        let exec = TrajectoryExecutor::new(Device::belem(), TrajectoryConfig::default());
        let reference = exec.clone().with_backend(SimBackend::Reference);
        let seeds = [3u64, 99, 1234, 77, 5];
        // Final amplitudes and the next draw of each trajectory's RNG.
        let run = |exec: &TrajectoryExecutor, seeds: &[u64]| {
            let lanes: Vec<Lane<'_>> = seeds
                .iter()
                .map(|&seed| Lane {
                    circuit: 0,
                    input: &[],
                    seed,
                })
                .collect();
            let mut out = Vec::new();
            exec.run_chunk(&[(&c, &[0, 1, 2])], &[0.7], &lanes, |_, state, rng| {
                out.push((state.amplitudes().to_vec(), rng.gen::<u64>()))
            });
            out
        };
        let lanes = run(&exec, &seeds);
        assert_eq!(lanes.len(), seeds.len());
        for (lane, &seed) in seeds.iter().enumerate() {
            let single = run(&reference, &[seed]);
            assert_eq!(lanes[lane].0, single[0].0, "lane {lane}");
            // RNG streams must be at the same position afterwards.
            assert_eq!(lanes[lane].1, single[0].1, "lane {lane} rng");
        }
    }

    #[test]
    fn fast_batched_results_match_reference_oracle() {
        // The batched fast path must agree with the per-trajectory
        // reference oracle to simulator tolerance (both average the same
        // seeded trajectories; kernels differ).
        let cfg = TrajectoryConfig {
            trajectories: 24,
            seed: 8,
            readout: true,
        };
        let c = bell();
        let fast = TrajectoryExecutor::new(Device::belem(), cfg).expect_z(&c, &[], &[], &[0, 1]);
        let oracle = TrajectoryExecutor::new(Device::belem(), cfg)
            .with_backend(SimBackend::Reference)
            .expect_z(&c, &[], &[], &[0, 1]);
        for (q, (f, r)) in fast.expect_z.iter().zip(&oracle.expect_z).enumerate() {
            assert!((f - r).abs() < 1e-10, "qubit {q}: {f} vs {r}");
        }
    }

    #[test]
    fn mps_trajectories_match_reference_oracle() {
        // Exact-regime MPS trajectories draw the same Kraus outcomes as
        // the dense reference path (Born probabilities agree to simulator
        // tolerance), so the averages must coincide.
        let cfg = TrajectoryConfig {
            trajectories: 16,
            seed: 8,
            readout: true,
        };
        let mut c = Circuit::new(3);
        c.push(GateKind::H, &[0], &[]);
        c.push(GateKind::CX, &[0, 1], &[]);
        c.push(GateKind::RX, &[2], &[qns_circuit::Param::Train(0)]);
        c.push(GateKind::CZ, &[0, 2], &[]);
        let mps = TrajectoryExecutor::new(Device::belem(), cfg)
            .with_backend(SimBackend::Mps(qns_sim::MpsConfig::exact()))
            .expect_z(&c, &[0.7], &[], &[0, 1, 2]);
        let oracle = TrajectoryExecutor::new(Device::belem(), cfg)
            .with_backend(SimBackend::Reference)
            .expect_z(&c, &[0.7], &[], &[0, 1, 2]);
        for (q, (f, r)) in mps.expect_z.iter().zip(&oracle.expect_z).enumerate() {
            assert!((f - r).abs() < 1e-10, "qubit {q}: {f} vs {r}");
        }
        // And the fan-out over workers is bit-identical to sequential.
        let par = TrajectoryExecutor::new(Device::belem(), cfg)
            .with_backend(SimBackend::Mps(qns_sim::MpsConfig::exact()))
            .with_workers(4)
            .expect_z(&c, &[0.7], &[], &[0, 1, 2]);
        assert_eq!(mps.expect_z, par.expect_z, "worker count changed results");
    }

    #[test]
    fn seeds_are_a_function_of_the_candidate() {
        // Different parameter values must decorrelate the noise streams:
        // digest-derived seeds differ, so the trajectories differ.
        let cfg = TrajectoryConfig {
            trajectories: 2,
            seed: 9,
            readout: false,
        };
        let exec = TrajectoryExecutor::new(Device::belem(), cfg);
        let mut c = Circuit::new(1);
        c.push(GateKind::RX, &[0], &[qns_circuit::Param::Train(0)]);
        let d1 = exec.candidate_digest(&c, &[0.3], &[], &[0]);
        let d2 = exec.candidate_digest(&c, &[0.4], &[], &[0]);
        assert_ne!(d1, d2, "parameter change must change the digest");
        // Same candidate twice: identical results (pure function).
        let a = exec.expect_z(&c, &[0.3], &[], &[0]);
        let b = exec.expect_z(&c, &[0.3], &[], &[0]);
        assert_eq!(a.expect_z, b.expect_z);
    }
}
