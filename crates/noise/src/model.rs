//! The device noise model, stated once for every engine.
//!
//! [`walk_noisy`] yields each resolved gate of a circuit and then the
//! one-qubit channels that follow it, in application order; the dense
//! reference trajectory, the batched trajectory lanes, the MPS trajectory
//! and the exact density matrix are each one loop over this walk. Readout
//! confusion is the affine map from [`readout_affine`].

use crate::{Device, KrausChannel, QubitCalib};
use qns_circuit::{Circuit, GateMatrix};
use qns_tensor::{Mat2, Mat4};
use std::ops::Range;

/// One step of a noisy circuit.
pub(crate) enum Step<'a> {
    /// A resolved gate on `qubits` (`qubits[1]` only for two-qubit gates),
    /// the same on every lane.
    Gate(&'a GateMatrix, [usize; 2]),
    /// A gate whose parameters read the input, on lanes whose inputs
    /// differ: lane `l` applies entry `l`.
    LaneGates(LaneGates<'a>, [usize; 2]),
    /// A one-qubit channel on a circuit qubit.
    Channel(&'a KrausChannel, usize),
}

/// One resolved matrix per lane, of one arity.
pub(crate) enum LaneGates<'a> {
    One(&'a [Mat2]),
    Two(&'a [Mat4]),
}

/// Walks the ops `ops` of `circuit` under `device` noise for a batch of
/// lanes, lane `l` reading the input `inputs[l]`, calling `visit` on each
/// gate and then on the channels that follow it:
///
/// - a 1q gate: depolarizing at the qubit's `err_1q`, then thermal
///   relaxation over `dur_1q`;
/// - a 2q gate: for each operand, the first operand first, depolarizing at
///   the pair's `err_2q`, then relaxation over `dur_2q` — the operand-wise
///   approximation of two-qubit depolarizing noise.
///
/// A gate is one shared [`Step::Gate`] unless its parameters read the
/// input and the lanes carry different input slices; then it is resolved
/// per lane (once per run of lanes sharing a slice) as [`Step::LaneGates`].
/// A walk over one input therefore yields only shared gates. Walking
/// `0..k` and then `k..num_ops` yields exactly the steps of one walk over
/// every op, which is what lets a trajectory chunk run the op prefix its
/// circuits share once and fork for the rest.
///
/// `phys_of` maps circuit qubit `i` to the physical qubit whose
/// calibration applies. Each qubit's one-qubit channels are built once per
/// walk, each two-qubit gate's depolarizing channel as the walk reaches it.
///
/// # Panics
///
/// Panics if `phys_of.len() != circuit.num_qubits()`, `inputs` is empty
/// or `ops` runs past the circuit.
pub(crate) fn walk_noisy(
    device: &Device,
    circuit: &Circuit,
    ops: Range<usize>,
    train: &[f64],
    inputs: &[&[f64]],
    phys_of: &[usize],
    mut visit: impl FnMut(Step<'_>),
) {
    assert_eq!(
        phys_of.len(),
        circuit.num_qubits(),
        "one physical qubit per circuit qubit"
    );
    assert!(!inputs.is_empty(), "need at least one lane");
    let shared_input = inputs.windows(2).all(|w| std::ptr::eq(w[0], w[1]));
    // Per circuit qubit: 1q depolarizing, 1q relaxation, 2q relaxation.
    let channels: Vec<[KrausChannel; 3]> = phys_of
        .iter()
        .map(|&p| {
            let calib = device.qubit(p);
            let relaxation =
                |dur_ns| KrausChannel::thermal_relaxation(calib.t1_ns, calib.t2_ns, dur_ns);
            [
                KrausChannel::depolarizing(calib.err_1q.min(1.0)),
                relaxation(device.dur_1q_ns()),
                relaxation(device.dur_2q_ns()),
            ]
        })
        .collect();
    let (mut ones, mut twos): (Vec<Mat2>, Vec<Mat4>) = (Vec::new(), Vec::new());
    for op in &circuit.ops()[ops] {
        let reads_input = op.params.iter().any(|p| p.input_index().is_some());
        if reads_input && !shared_input {
            ones.clear();
            twos.clear();
            let mut last: Option<(&[f64], GateMatrix)> = None;
            for &input in inputs {
                let gate = match last {
                    Some((prev, gate)) if std::ptr::eq(prev, input) => gate,
                    _ => op.kind.matrix(&op.resolve_params(train, input)),
                };
                match gate {
                    GateMatrix::One(m) => ones.push(m),
                    GateMatrix::Two(m) => twos.push(m),
                }
                last = Some((input, gate));
            }
            let gates = if twos.is_empty() {
                LaneGates::One(&ones)
            } else {
                LaneGates::Two(&twos)
            };
            visit(Step::LaneGates(gates, op.qubits));
        } else {
            let gate = op.kind.matrix(&op.resolve_params(train, inputs[0]));
            visit(Step::Gate(&gate, op.qubits));
        }
        let [a, b] = op.qubits;
        if op.num_qubits() == 1 {
            let [depol, relax_1q, _] = &channels[a];
            visit(Step::Channel(depol, a));
            visit(Step::Channel(relax_1q, a));
        } else {
            let e2 = device.err_2q(phys_of[a], phys_of[b]);
            let depol = KrausChannel::depolarizing(e2.min(1.0));
            for q in [a, b] {
                visit(Step::Channel(&depol, q));
                visit(Step::Channel(&channels[q][2], q));
            }
        }
    }
}

/// Readout confusion of one qubit as an affine map on `<Z>`:
/// `E' = scale · E + offset` with `scale = 1 − p01 − p10` and
/// `offset = p10 − p01`.
pub(crate) fn readout_affine(calib: &QubitCalib) -> (f64, f64) {
    (
        1.0 - calib.readout_p01 - calib.readout_p10,
        calib.readout_p10 - calib.readout_p01,
    )
}
