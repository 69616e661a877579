//! Circuit execution: dynamic (gate-at-a-time) and static (fused) modes.

use crate::mps::{MpsConfig, MpsState};
use crate::plan::{SimPlan, DEFAULT_FUSION_LEVEL};
use crate::{parallel_map, StateBatch, StateVec, DEFAULT_BATCH_LANES};
use qns_circuit::{Circuit, GateMatrix};
use qns_tensor::{Mat2, Mat4};

/// How a circuit is executed against the state vector.
///
/// Mirrors the paper's QuantumEngine modes: *dynamic* simulates each gate
/// individually so intermediate states are inspectable; *static* fuses
/// adjacent gates into larger unitaries before touching the state vector,
/// trading debuggability for speed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Apply each gate individually.
    #[default]
    Dynamic,
    /// Fuse adjacent gates into 2×2/4×4 blocks first.
    Static,
}

/// Which kernel family executes the circuit.
///
/// `Fast` is the production path: structure-specialized, cache-blocked
/// kernels plus fusion v2 in static mode. `Reference` replays the original
/// naive per-gate kernels with no fusion — slower, but trivially auditable,
/// and the oracle the differential test battery checks `Fast` against.
/// `Mps` simulates on a matrix-product state with bounded bond dimension:
/// exact while the bond limit is generous, controllably approximate past
/// the dense-state memory wall (see [`MpsConfig`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SimBackend {
    /// Naive per-gate kernels, no fusion: the differential-test oracle.
    Reference,
    /// Fused, cache-blocked, structure-specialized kernels.
    #[default]
    Fast,
    /// Matrix-product-state simulation with the given truncation policy.
    Mps(MpsConfig),
}

/// One fused unitary block ready to apply.
#[derive(Clone, Debug, PartialEq)]
pub enum FusedOp {
    /// A 2×2 block on one qubit.
    One(usize, Mat2),
    /// A 4×4 block on a qubit pair (first = high bit).
    Two(usize, usize, Mat4),
}

/// Runs `circuit` from `|0...0>` with the given trainable parameters and
/// per-sample input, returning the final state.
///
/// # Examples
///
/// ```
/// use qns_circuit::{Circuit, GateKind, Param};
/// use qns_sim::{run, ExecMode};
///
/// let mut c = Circuit::new(1);
/// c.push(GateKind::RX, &[0], &[Param::Train(0)]);
/// let s = run(&c, &[std::f64::consts::PI], &[], ExecMode::Static);
/// assert!((s.probability(1) - 1.0).abs() < 1e-12);
/// ```
pub fn run(circuit: &Circuit, train: &[f64], input: &[f64], mode: ExecMode) -> StateVec {
    run_with(circuit, train, input, mode, SimBackend::default())
}

/// Runs `circuit` from `|0...0>` on an explicit backend.
pub fn run_with(
    circuit: &Circuit,
    train: &[f64],
    input: &[f64],
    mode: ExecMode,
    backend: SimBackend,
) -> StateVec {
    let mut state = StateVec::zero_state(circuit.num_qubits());
    run_into_with(circuit, train, input, mode, backend, &mut state);
    state
}

/// Runs `circuit` into an existing (pre-reset) state buffer, avoiding
/// reallocation in hot loops.
///
/// The state is reset to `|0...0>` first.
///
/// # Panics
///
/// Panics if `state` has a different width than `circuit`, or if a
/// referenced parameter index is out of bounds.
pub fn run_into(
    circuit: &Circuit,
    train: &[f64],
    input: &[f64],
    mode: ExecMode,
    state: &mut StateVec,
) {
    run_into_with(circuit, train, input, mode, SimBackend::default(), state);
}

/// [`run_into`] with an explicit backend. `Reference` always executes gate
/// at a time with the naive kernels (fusion would defeat its purpose as an
/// oracle); `Fast` honors `mode`.
///
/// # Panics
///
/// Panics if `state` has a different width than `circuit`, or if a
/// referenced parameter index is out of bounds.
pub fn run_into_with(
    circuit: &Circuit,
    train: &[f64],
    input: &[f64],
    mode: ExecMode,
    backend: SimBackend,
    state: &mut StateVec,
) {
    assert_eq!(state.num_qubits(), circuit.num_qubits(), "width mismatch");
    match backend {
        SimBackend::Reference => {
            state.reset();
            for op in circuit.iter() {
                let params = op.resolve_params(train, input);
                match op.kind.matrix(&params) {
                    GateMatrix::One(m) => state.apply_1q_reference(&m, op.qubits[0]),
                    GateMatrix::Two(m) => state.apply_2q_reference(&m, op.qubits[0], op.qubits[1]),
                }
            }
        }
        SimBackend::Fast => match mode {
            ExecMode::Dynamic => {
                state.reset();
                for op in circuit.iter() {
                    let params = op.resolve_params(train, input);
                    match op.kind.matrix(&params) {
                        GateMatrix::One(m) => state.apply_1q(&m, op.qubits[0]),
                        GateMatrix::Two(m) => state.apply_2q(&m, op.qubits[0], op.qubits[1]),
                    }
                }
            }
            ExecMode::Static => {
                SimPlan::compile(circuit, DEFAULT_FUSION_LEVEL)
                    .execute_into(circuit, train, input, state);
            }
        },
        SimBackend::Mps(config) => {
            let mut mps = MpsState::zero_state(circuit.num_qubits(), config);
            run_mps(circuit, train, input, mode, &mut mps);
            mps.to_statevec_into(state);
        }
    }
}

/// Noise-free per-qubit `<Z>` of `circuit` for each of `inputs`, in input
/// order: the one batched noise-free evaluation, which scoring, accuracy
/// and dataset evaluation all call. It is the noise-free counterpart of
/// the trajectory executor's batched call in `qns-noise`.
///
/// On `Fast` the fusion plan compiles once and its blocks materialize
/// once; the inputs then replay in [`DEFAULT_BATCH_LANES`]-lane
/// [`StateBatch`]es mapped over [`parallel_map`], so shared blocks sweep
/// every lane at once and only input-encoding blocks re-materialize per
/// lane. Every lane is bit-identical to a standalone static run of its
/// input. `Reference` runs each input through the naive per-gate oracle,
/// and `Mps` replays the fused block program on one matrix-product state
/// per input, densified for readout.
///
/// # Panics
///
/// Panics if a referenced parameter index is out of bounds for `train` or
/// for an input.
///
/// # Examples
///
/// ```
/// use qns_circuit::{Circuit, GateKind, Param};
/// use qns_sim::{expect_z_batch, SimBackend};
///
/// let mut c = Circuit::new(1);
/// c.push(GateKind::RX, &[0], &[Param::Input(0)]);
/// let inputs: Vec<&[f64]> = vec![&[0.0], &[std::f64::consts::PI]];
/// let ez = expect_z_batch(&c, &[], &inputs, SimBackend::Fast);
/// assert!((ez[0][0] - 1.0).abs() < 1e-12 && (ez[1][0] + 1.0).abs() < 1e-12);
/// ```
pub fn expect_z_batch(
    circuit: &Circuit,
    train: &[f64],
    inputs: &[&[f64]],
    backend: SimBackend,
) -> Vec<Vec<f64>> {
    let Some(first) = inputs.first() else {
        return Vec::new();
    };
    match backend {
        SimBackend::Fast => {
            let plan = SimPlan::compile(circuit, DEFAULT_FUSION_LEVEL);
            let base = plan.materialize(circuit, train, first);
            let chunks: Vec<&[&[f64]]> = inputs.chunks(DEFAULT_BATCH_LANES).collect();
            let per_chunk = parallel_map(&chunks, |chunk| {
                let mut batch = StateBatch::zero_state(circuit.num_qubits(), chunk.len());
                plan.replay_batch_into(circuit, &base, train, chunk, &mut batch);
                batch.expect_z_all_lanes()
            });
            per_chunk.into_iter().flatten().collect()
        }
        // `Reference` ignores the mode; `Mps` replays the fused blocks.
        SimBackend::Reference | SimBackend::Mps(_) => parallel_map(inputs, |input| {
            run_with(circuit, train, input, ExecMode::Static, backend).expect_z_all()
        }),
    }
}

/// Runs `circuit` from `|0...0>` on a fresh matrix-product state without
/// densifying — the native entry point for widths past state-vector reach.
///
/// Honors `mode` exactly like the `Fast` backend: `Static` replays the
/// fused block program ([`SimPlan`] at [`DEFAULT_FUSION_LEVEL`]), `Dynamic`
/// applies each gate individually.
pub fn run_mps(
    circuit: &Circuit,
    train: &[f64],
    input: &[f64],
    mode: ExecMode,
    mps: &mut MpsState,
) {
    assert_eq!(mps.num_qubits(), circuit.num_qubits(), "width mismatch");
    mps.reset();
    match mode {
        ExecMode::Dynamic => {
            for op in circuit.iter() {
                let params = op.resolve_params(train, input);
                match op.kind.matrix(&params) {
                    GateMatrix::One(m) => mps.apply_1q(&m, op.qubits[0]),
                    GateMatrix::Two(m) => mps.apply_2q(&m, op.qubits[0], op.qubits[1]),
                }
            }
        }
        ExecMode::Static => {
            let blocks =
                SimPlan::compile(circuit, DEFAULT_FUSION_LEVEL).materialize(circuit, train, input);
            for b in &blocks {
                match b {
                    FusedOp::One(q, m) => mps.apply_1q(m, *q),
                    FusedOp::Two(a, b2, m) => mps.apply_2q(m, *a, *b2),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qns_circuit::{GateKind, Param};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random circuit over all gate kinds for equivalence testing.
    fn random_circuit(n_qubits: usize, n_ops: usize, seed: u64) -> (Circuit, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Circuit::new(n_qubits);
        let kinds = GateKind::all();
        let mut train = Vec::new();
        for _ in 0..n_ops {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let q0 = rng.gen_range(0..n_qubits);
            let qs: Vec<usize> = if kind.num_qubits() == 1 {
                vec![q0]
            } else {
                let mut q1 = rng.gen_range(0..n_qubits);
                while q1 == q0 {
                    q1 = rng.gen_range(0..n_qubits);
                }
                vec![q0, q1]
            };
            let ps: Vec<Param> = (0..kind.num_params())
                .map(|_| {
                    train.push(rng.gen_range(-3.0..3.0));
                    Param::Train(train.len() - 1)
                })
                .collect();
            c.push(kind, &qs, &ps);
        }
        (c, train)
    }

    #[test]
    fn dynamic_and_static_agree_on_random_circuits() {
        for seed in 0..8 {
            let (c, train) = random_circuit(4, 30, seed);
            let a = run(&c, &train, &[], ExecMode::Dynamic);
            let b = run(&c, &train, &[], ExecMode::Static);
            let fidelity = a.inner(&b).abs();
            assert!(
                (fidelity - 1.0).abs() < 1e-9,
                "modes disagree on seed {seed}: fidelity {fidelity}"
            );
        }
    }

    #[test]
    fn fusion_reduces_block_count() {
        let (c, _) = random_circuit(4, 60, 99);
        let blocks = SimPlan::compile(&c, DEFAULT_FUSION_LEVEL).num_steps();
        assert!(
            blocks < c.num_ops(),
            "expected fusion to shrink {} ops, got {blocks} blocks",
            c.num_ops(),
        );
    }

    #[test]
    fn hxh_fuses_to_z() {
        let mut c = Circuit::new(1);
        c.push(GateKind::H, &[0], &[]);
        c.push(GateKind::X, &[0], &[]);
        c.push(GateKind::H, &[0], &[]);
        let blocks = SimPlan::compile(&c, DEFAULT_FUSION_LEVEL).materialize(&c, &[], &[]);
        assert_eq!(blocks.len(), 1);
        match &blocks[0] {
            FusedOp::One(0, m) => assert!(m.approx_eq(&qns_tensor::Mat2::pauli_z(), 1e-12)),
            other => panic!("unexpected block {:?}", other),
        }
    }

    #[test]
    fn two_q_merge_handles_swapped_order() {
        let mut c = Circuit::new(2);
        c.push(GateKind::CX, &[0, 1], &[]);
        c.push(GateKind::CX, &[1, 0], &[]);
        c.push(GateKind::CX, &[0, 1], &[]);
        let blocks = SimPlan::compile(&c, DEFAULT_FUSION_LEVEL).num_steps();
        assert_eq!(blocks, 1, "all three CX on one pair fuse");
        let a = run(&c, &[], &[], ExecMode::Dynamic);
        let b = run(&c, &[], &[], ExecMode::Static);
        assert!((a.inner(&b).abs() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn reference_backend_matches_fast_amplitudes() {
        for seed in 0..6 {
            let (c, train) = random_circuit(4, 30, seed);
            let oracle = run_with(&c, &train, &[], ExecMode::Dynamic, SimBackend::Reference);
            for mode in [ExecMode::Dynamic, ExecMode::Static] {
                let fast = run_with(&c, &train, &[], mode, SimBackend::Fast);
                for (i, (a, b)) in oracle
                    .amplitudes()
                    .iter()
                    .zip(fast.amplitudes())
                    .enumerate()
                {
                    assert!(
                        (*a - *b).norm_sqr().sqrt() < 1e-10,
                        "seed {seed} {mode:?}: amp {i} differs"
                    );
                }
            }
        }
    }

    #[test]
    fn input_params_are_resolved() {
        let mut c = Circuit::new(1);
        c.push(GateKind::RX, &[0], &[Param::Input(0)]);
        let s = run(&c, &[], &[std::f64::consts::PI], ExecMode::Dynamic);
        assert!((s.probability(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn run_into_reuses_buffer() {
        let mut c = Circuit::new(2);
        c.push(GateKind::X, &[0], &[]);
        let mut buf = StateVec::zero_state(2);
        run_into(&c, &[], &[], ExecMode::Dynamic, &mut buf);
        assert!((buf.probability(1) - 1.0).abs() < 1e-12);
        // Second run resets first.
        run_into(&c, &[], &[], ExecMode::Static, &mut buf);
        assert!((buf.probability(1) - 1.0).abs() < 1e-12);
    }
}
