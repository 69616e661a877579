//! The device noise model, stated once for every engine.
//!
//! [`walk_noisy`] yields each resolved gate of a circuit and then the
//! one-qubit channels that follow it, in application order; the dense
//! reference trajectory, the batched trajectory lanes, the MPS trajectory
//! and the exact density matrix are each one loop over this walk. Readout
//! confusion is the affine map from [`readout_affine`].

use crate::{Device, KrausChannel, QubitCalib};
use qns_circuit::{Circuit, GateMatrix};

/// One step of a noisy circuit.
pub(crate) enum Step<'a> {
    /// A resolved gate on `qubits` (`qubits[1]` only for two-qubit gates).
    Gate(&'a GateMatrix, [usize; 2]),
    /// A one-qubit channel on a circuit qubit.
    Channel(&'a KrausChannel, usize),
}

/// Walks `circuit` under `device` noise, calling `visit` on each gate and
/// then on the channels that follow it:
///
/// - a 1q gate: depolarizing at the qubit's `err_1q`, then thermal
///   relaxation over `dur_1q`;
/// - a 2q gate: for each operand, the first operand first, depolarizing at
///   the pair's `err_2q`, then relaxation over `dur_2q` — the operand-wise
///   approximation of two-qubit depolarizing noise.
///
/// `phys_of` maps circuit qubit `i` to the physical qubit whose
/// calibration applies. Channels are built as the walk reaches them, so the
/// walk holds at most one gate's channels at a time.
///
/// # Panics
///
/// Panics if `phys_of.len() != circuit.num_qubits()`.
pub(crate) fn walk_noisy(
    device: &Device,
    circuit: &Circuit,
    train: &[f64],
    input: &[f64],
    phys_of: &[usize],
    mut visit: impl FnMut(Step<'_>),
) {
    assert_eq!(
        phys_of.len(),
        circuit.num_qubits(),
        "one physical qubit per circuit qubit"
    );
    let relaxation = |q: usize, dur_ns: f64| {
        let calib = device.qubit(phys_of[q]);
        KrausChannel::thermal_relaxation(calib.t1_ns, calib.t2_ns, dur_ns)
    };
    for op in circuit.iter() {
        let gate = op.kind.matrix(&op.resolve_params(train, input));
        visit(Step::Gate(&gate, op.qubits));
        let [a, b] = op.qubits;
        match gate {
            GateMatrix::One(_) => {
                let depol = KrausChannel::depolarizing(device.qubit(phys_of[a]).err_1q.min(1.0));
                visit(Step::Channel(&depol, a));
                visit(Step::Channel(&relaxation(a, device.dur_1q_ns()), a));
            }
            GateMatrix::Two(_) => {
                let e2 = device.err_2q(phys_of[a], phys_of[b]);
                let depol = KrausChannel::depolarizing(e2.min(1.0));
                for q in [a, b] {
                    visit(Step::Channel(&depol, q));
                    visit(Step::Channel(&relaxation(q, device.dur_2q_ns()), q));
                }
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
