//! Gradients of expectation values: adjoint differentiation and the
//! parameter-shift rule.

use crate::state::control_block;
use crate::{run, ExecMode, SimPlan, StateBatch, StateVec};
use qns_circuit::{Circuit, GateMatrix, Op};
use qns_tensor::{Mat2, Mat4, C64};

/// An observable the gradient engines can differentiate through.
///
/// The only requirement is being able to apply the (Hermitian) operator to a
/// state; expectation defaults to `Re <ψ|O|ψ>`.
pub trait Observable {
    /// Returns `O|ψ>`.
    fn apply(&self, state: &StateVec) -> StateVec;

    /// Expectation `<ψ|O|ψ>` (real for Hermitian `O`).
    fn expect(&self, state: &StateVec) -> f64 {
        state.inner(&self.apply(state)).re
    }
}

/// The diagonal observable `Σ_q w_q Z_q` used for QML readout.
///
/// A classification loss `L(E_0, …, E_{n-1})` over per-qubit Pauli-Z
/// expectations has gradient `dL/dθ = d<O_w>/dθ` with `w_q = ∂L/∂E_q`, so a
/// single adjoint pass with this observable differentiates the whole loss.
///
/// # Examples
///
/// ```
/// use qns_sim::{DiagObservable, StateVec};
/// use qns_sim::Observable as _;
/// let obs = DiagObservable::new(vec![1.0, -2.0]);
/// let s = StateVec::zero_state(2);
/// // <Z0> = <Z1> = 1 on |00>, so <O> = 1*1 + (-2)*1 = -1.
/// assert!((obs.expect(&s) + 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DiagObservable {
    weights: Vec<f64>,
}

impl DiagObservable {
    /// Creates the observable from one weight per qubit.
    pub fn new(weights: Vec<f64>) -> Self {
        DiagObservable { weights }
    }

    /// Borrow of the weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Diagonal entry for basis index `i`.
    #[inline]
    fn diag(&self, i: usize) -> f64 {
        let mut d = 0.0;
        for (q, w) in self.weights.iter().enumerate() {
            if i & (1 << q) == 0 {
                d += w;
            } else {
                d -= w;
            }
        }
        d
    }
}

impl Observable for DiagObservable {
    fn apply(&self, state: &StateVec) -> StateVec {
        assert_eq!(state.num_qubits(), self.weights.len(), "width mismatch");
        let mut out = state.clone();
        for (i, a) in out.amplitudes_mut().iter_mut().enumerate() {
            *a = a.scale(self.diag(i));
        }
        out
    }

    fn expect(&self, state: &StateVec) -> f64 {
        state.expect_weighted_z(&self.weights)
    }
}

/// `<bra| M |ket>` restricted to qubit `q`, computed in one pass without
/// materializing `M|ket>`.
fn bracket_1q(bra: &StateVec, ket: &StateVec, m: &Mat2, q: usize) -> C64 {
    let stride = 1usize << q;
    let b = bra.amplitudes();
    let k = ket.amplitudes();
    let [m00, m01, m10, m11] = m.m;
    let mut acc = C64::ZERO;
    let len = k.len();
    let mut base = 0;
    while base < len {
        for i in base..base + stride {
            let k0 = k[i];
            let k1 = k[i + stride];
            acc += b[i].conj() * (m00 * k0 + m01 * k1);
            acc += b[i + stride].conj() * (m10 * k0 + m11 * k1);
        }
        base += stride << 1;
    }
    acc
}

/// `<bra| M |ket>` restricted to qubits `(qa, qb)` (qa = high bit).
fn bracket_2q(bra: &StateVec, ket: &StateVec, m: &Mat4, qa: usize, qb: usize) -> C64 {
    let ba = 1usize << qa;
    let bb = 1usize << qb;
    let mask = ba | bb;
    let b = bra.amplitudes();
    let k = ket.amplitudes();
    let mut acc = C64::ZERO;
    for i in 0..k.len() {
        if i & mask != 0 {
            continue;
        }
        let idx = [i, i | bb, i | ba, i | mask];
        let v = [k[idx[0]], k[idx[1]], k[idx[2]], k[idx[3]]];
        let mv = m.mul_vec(&v);
        for j in 0..4 {
            acc += b[idx[j]].conj() * mv[j];
        }
    }
    acc
}

/// Index of the first op with a trainable slot, or `circuit.num_ops()` if
/// there is none. An op mixing input and trainable slots counts.
///
/// The backward sweeps stop here: every gradient contribution comes from
/// an op at or after it, so un-applying the ops before it (typically the
/// whole input encoder) could not change a single gradient bit.
fn first_trainable_op(circuit: &Circuit) -> usize {
    circuit
        .iter()
        .position(|op| op.params.iter().any(|p| p.is_trainable()))
        .unwrap_or(circuit.num_ops())
}

/// Computes `<O>` and its gradient with respect to every trainable parameter
/// via reverse-mode adjoint differentiation.
///
/// Cost: one forward sweep over the circuit plus one backward sweep that
/// stops at the first op with a trainable slot (each op from there on is
/// applied twice more), independent of the number of parameters — the
/// state-vector analogue of backpropagation. A parameter-free prefix such
/// as an input encoder is only applied forward.
///
/// Returns `(expectation, gradient)` where `gradient.len() ==
/// circuit.num_train_params()`. Parameters referenced by several gates
/// accumulate their contributions.
///
/// # Panics
///
/// Panics if `train`/`input` are shorter than the circuit references.
///
/// # Examples
///
/// ```
/// use qns_circuit::{Circuit, GateKind, Param};
/// use qns_sim::{adjoint_gradient, DiagObservable};
///
/// let mut c = Circuit::new(1);
/// c.push(GateKind::RY, &[0], &[Param::Train(0)]);
/// let obs = DiagObservable::new(vec![1.0]);
/// let (e, g) = adjoint_gradient(&c, &[0.3], &[], &obs);
/// // <Z> = cos θ, d<Z>/dθ = -sin θ.
/// assert!((e - 0.3f64.cos()).abs() < 1e-12);
/// assert!((g[0] + 0.3f64.sin()).abs() < 1e-12);
/// ```
pub fn adjoint_gradient(
    circuit: &Circuit,
    train: &[f64],
    input: &[f64],
    obs: &impl Observable,
) -> (f64, Vec<f64>) {
    let psi = run(circuit, train, input, ExecMode::Dynamic);
    let expectation = obs.expect(&psi);

    let mut lam = obs.apply(&psi);
    let mut cur = psi;
    let mut grad = vec![0.0; circuit.num_train_params()];

    for op in circuit.ops()[first_trainable_op(circuit)..].iter().rev() {
        let params = op.resolve_params(train, input);
        // Un-apply the gate: cur becomes the state before this op.
        match op.kind.matrix(&params) {
            GateMatrix::One(m) => cur.apply_1q(&m.adjoint(), op.qubits[0]),
            GateMatrix::Two(m) => cur.apply_2q(&m.adjoint(), op.qubits[0], op.qubits[1]),
        }
        // Gradient contributions for each trainable slot of this op; affine
        // slots carry a chain-rule scale.
        for (which, slot) in op.params.iter().enumerate() {
            if let Some((ti, scale)) = slot.train_component() {
                let bracket = match op.kind.dmatrix(&params, which) {
                    GateMatrix::One(d) => bracket_1q(&lam, &cur, &d, op.qubits[0]),
                    GateMatrix::Two(d) => bracket_2q(&lam, &cur, &d, op.qubits[0], op.qubits[1]),
                };
                grad[ti] += 2.0 * scale * bracket.re;
            }
        }
        // Move the bra back as well.
        match op.kind.matrix(&params) {
            GateMatrix::One(m) => lam.apply_1q(&m.adjoint(), op.qubits[0]),
            GateMatrix::Two(m) => lam.apply_2q(&m.adjoint(), op.qubits[0], op.qubits[1]),
        }
    }
    (expectation, grad)
}

/// True when any parameter slot of `op` reads the per-sample input vector.
#[inline]
fn op_uses_input(op: &Op) -> bool {
    op.params.iter().any(|p| p.input_index().is_some())
}

/// Applies (or un-applies, with `adjoint`) one circuit op to a batch:
/// an input-encoding op resolves one matrix per lane and applies them in
/// one per-lane sweep, every other op applies its shared matrix to all
/// lanes in one batched sweep.
fn apply_op_batch(
    batch: &mut StateBatch,
    op: &Op,
    train: &[f64],
    inputs: &[&[f64]],
    adjoint: bool,
) {
    if op_uses_input(op) {
        let (mut ones, mut twos) = (Vec::new(), Vec::new());
        for input in inputs {
            match op.kind.matrix(&op.resolve_params(train, input)) {
                GateMatrix::One(m) => ones.push(if adjoint { m.adjoint() } else { m }),
                GateMatrix::Two(m) => twos.push(if adjoint { m.adjoint() } else { m }),
            }
        }
        if op.kind.num_qubits() == 1 {
            batch.apply_1q_per_lane(&ones, op.qubits[0]);
        } else {
            batch.apply_2q_per_lane(&twos, op.qubits[0], op.qubits[1]);
        }
    } else {
        let params = op.resolve_params(train, &[]);
        match op.kind.matrix(&params) {
            GateMatrix::One(m) => {
                let m = if adjoint { m.adjoint() } else { m };
                batch.apply_1q(&m, op.qubits[0]);
            }
            GateMatrix::Two(m) => {
                let m = if adjoint { m.adjoint() } else { m };
                batch.apply_2q(&m, op.qubits[0], op.qubits[1]);
            }
        }
    }
}

/// `Σ_jk d_jk T_jk`: the bracket of derivative matrix `d` on one lane,
/// from that lane's transfer entries `t`: [`StateBatch::transfer_1q`]'s
/// four for a one-qubit `d`, [`StateBatch::transfer_2q`]'s sixteen for a
/// two-qubit one, or [`StateBatch::transfer_control_block`]'s four, which
/// project `d`'s control-1 block (entries 10, 11, 14 and 15, in the
/// sixteen-entry order).
fn project(d: &GateMatrix, t: &[C64]) -> C64 {
    match d {
        GateMatrix::One(m) => {
            let [m00, m01, m10, m11] = m.m;
            m00 * t[0] + m01 * t[1] + m10 * t[2] + m11 * t[3]
        }
        GateMatrix::Two(m) => {
            let block = control_block(m).m;
            let entries: &[C64] = if t.len() == block.len() { &block } else { &m.m };
            let mut br = C64::ZERO;
            for (&mjk, &tjk) in entries.iter().zip(t) {
                br += mjk * tjk;
            }
            br
        }
    }
}

/// True when `d` is a two-qubit matrix whose entries outside the
/// control-1 block (10, 11, 14 and 15) are all zero, as every controlled
/// gate's derivative is. Its bracket then needs only
/// [`StateBatch::transfer_control_block`]: each skipped term of the
/// sixteen-entry projection is a product with an exact zero, so skipping
/// it can change only the sign of a bracket that sums to exactly zero,
/// and a zero of either sign leaves the gradient sum (which starts at
/// `+0.0`) bit for bit as it was.
fn zero_outside_control_block(d: &GateMatrix) -> bool {
    match d {
        GateMatrix::One(_) => false,
        GateMatrix::Two(m) => {
            m.m.iter()
                .enumerate()
                .all(|(j, &e)| matches!(j, 10 | 11 | 14 | 15) || e == C64::ZERO)
        }
    }
}

/// The trainable slots of `op`: `(which, train index, scale)` for every
/// parameter slot with a trainable component, in slot order.
fn train_slots(op: &Op) -> Vec<(usize, usize, f64)> {
    op.params
        .iter()
        .enumerate()
        .filter_map(|(which, slot)| slot.train_component().map(|(ti, s)| (which, ti, s)))
        .collect()
}

/// Derivative matrices of `op` at `params`, one per listed trainable slot
/// `(which, train index, scale)`.
fn dmatrices(op: &Op, params: &[f64], slots: &[(usize, usize, f64)]) -> Vec<GateMatrix> {
    slots
        .iter()
        .map(|&(which, _, _)| op.kind.dmatrix(params, which))
        .collect()
}

/// Batched adjoint differentiation: per-sample losses and the *summed*
/// parameter gradient for a whole minibatch in one forward + one backward
/// sweep over the circuit.
///
/// Lane `l` simulates the circuit with input vector `inputs[l]`; shared
/// trainable gates are applied to every lane in one batched kernel sweep
/// while input-encoding gates apply per lane. After the forward pass,
/// `loss_and_weights(lane, expect_z)` maps each lane's per-qubit Pauli-Z
/// expectations to that lane's scalar loss and the per-qubit weights
/// `w_q = ∂loss/∂<Z_q>` of its readout observable (the lane-local
/// [`DiagObservable`]); the backward sweep then accumulates every lane's
/// gradient simultaneously.
///
/// Cost: the forward sweep applies every op to the lanes once; one read
/// sweep then gives every lane's `<Z_q>`, and one pass writes every
/// lane's bra `D_w ψ` from the forward state. The backward sweep
/// un-applies ops from the state and the bra batches only down to the
/// first op with a trainable slot, as in [`adjoint_gradient`]; the input
/// encoder that opens a QML circuit is never un-applied. Each op with a
/// trainable slot costs one read sweep over both batches: four transfer
/// entries per lane for a one-qubit op, sixteen for a two-qubit one, and
/// four over the control-1 amplitude pairs alone when the op's shared
/// derivative matrices are zero outside the control-1 block (every
/// controlled gate: a quarter of the terms over half the amplitudes).
/// Every sweep, gate or read, is planar and compiled per lane-group
/// width, as [`StateBatch`]'s kernels are.
///
/// Returns `(losses, grad)` where `losses.len() == inputs.len()` and
/// `grad` is the element-wise sum over lanes (lane-ascending order) of the
/// per-sample gradients. Losses are bit-identical to per-sample runs (the
/// forward kernels sweep each lane with the exact single-state
/// arithmetic); the gradient matches running [`adjoint_gradient`] per
/// sample and summing in sample order to better than 1e-12 — the bracket
/// sweeps accumulate through a per-lane transfer matrix, which
/// reassociates the floating-point reduction.
///
/// # Panics
///
/// Panics if `inputs` is empty, a referenced parameter index is out of
/// bounds, or the callback returns a weight vector whose length differs
/// from the qubit count.
///
/// # Examples
///
/// ```
/// use qns_circuit::{Circuit, GateKind, Param};
/// use qns_sim::adjoint_gradient_batch;
///
/// let mut c = Circuit::new(1);
/// c.push(GateKind::RX, &[0], &[Param::Input(0)]);
/// c.push(GateKind::RY, &[0], &[Param::Train(0)]);
/// let xs: Vec<&[f64]> = vec![&[0.2], &[1.1]];
/// let (losses, grad) =
///     adjoint_gradient_batch(&c, &[0.3], &xs, |_, ez| (ez[0], vec![1.0]));
/// assert_eq!(losses.len(), 2);
/// assert_eq!(grad.len(), 1);
/// ```
pub fn adjoint_gradient_batch(
    circuit: &Circuit,
    train: &[f64],
    inputs: &[&[f64]],
    mut loss_and_weights: impl FnMut(usize, &[f64]) -> (f64, Vec<f64>),
) -> (Vec<f64>, Vec<f64>) {
    let n = circuit.num_qubits();
    let lanes = inputs.len();
    let mut cur = StateBatch::zero_state(n, lanes);
    for op in circuit.iter() {
        apply_op_batch(&mut cur, op, train, inputs, false);
    }

    let ez = cur.expect_z_all_lanes();
    let mut losses = Vec::with_capacity(lanes);
    let mut weights = Vec::with_capacity(lanes);
    for (lane, e) in ez.iter().enumerate() {
        let (loss, w) = loss_and_weights(lane, e);
        assert_eq!(w.len(), n, "one observable weight per qubit");
        losses.push(loss);
        weights.push(w);
    }
    let mut lam = cur.diag_weighted(&weights);

    let n_params = circuit.num_train_params();
    let mut grad_lanes = vec![vec![0.0; n_params]; lanes];
    for op in circuit.ops()[first_trainable_op(circuit)..].iter().rev() {
        // Un-apply the gate on every lane: cur becomes the pre-op batch.
        apply_op_batch(&mut cur, op, train, inputs, true);
        // Every trainable slot on every lane brackets against the same pair
        // of batches: one sweep builds each lane's transfer matrix, and
        // each slot's derivative matrix projects against it. An op that
        // reads the input (mixed slots) has per-lane derivative matrices;
        // any other op shares one set across the lanes. Shared matrices
        // that are zero outside the control-1 block (controlled gates)
        // need only that block's four entries.
        let slots = train_slots(op);
        if !slots.is_empty() {
            let shared =
                (!op_uses_input(op)).then(|| dmatrices(op, &op.resolve_params(train, &[]), &slots));
            let block = shared
                .as_ref()
                .is_some_and(|dms| dms.iter().all(zero_outside_control_block));
            let t = match (op.kind.num_qubits(), block) {
                (1, _) => lam.transfer_1q(&cur, op.qubits[0]),
                (_, true) => lam.transfer_control_block(&cur, op.qubits[0], op.qubits[1]),
                (_, false) => lam.transfer_2q(&cur, op.qubits[0], op.qubits[1]),
            };
            let per_lane = t.chunks_exact(t.len() / lanes).zip(inputs);
            for ((tl, input), grad) in per_lane.zip(&mut grad_lanes) {
                let own;
                let dms = match &shared {
                    Some(dms) => dms,
                    None => {
                        own = dmatrices(op, &op.resolve_params(train, input), &slots);
                        &own
                    }
                };
                for (d, &(_, ti, scale)) in dms.iter().zip(&slots) {
                    grad[ti] += 2.0 * scale * project(d, tl).re;
                }
            }
        }
        // Move the bra batch back as well.
        apply_op_batch(&mut lam, op, train, inputs, true);
    }

    // Sum per-lane gradients in lane order: identical FP order to summing
    // sequential per-sample gradients in sample order.
    let mut grad = vec![0.0; n_params];
    for gl in &grad_lanes {
        for (g, x) in grad.iter_mut().zip(gl) {
            *g += x;
        }
    }
    (losses, grad)
}

/// Which trainable parameters of `circuit` admit the two-term
/// parameter-shift rule: entry `i` is true when every slot reading
/// parameter `i` sits on a gate with a two-term rule
/// ([`GateKind::supports_parameter_shift`](qns_circuit::GateKind::supports_parameter_shift))
/// and scales it by `±1` (within `1e-12`), so a `±π/2` parameter shift is
/// a `±π/2` angle shift. The rest need a finite difference.
///
/// # Examples
///
/// ```
/// use qns_circuit::{Circuit, GateKind, Param};
/// use qns_sim::shiftable_params;
///
/// let mut c = Circuit::new(2);
/// c.push(GateKind::RY, &[0], &[Param::Train(0)]);
/// c.push(GateKind::CRY, &[0, 1], &[Param::Train(1)]);
/// assert_eq!(shiftable_params(&c), vec![true, false]);
/// ```
pub fn shiftable_params(circuit: &Circuit) -> Vec<bool> {
    let mut shiftable = vec![true; circuit.num_train_params()];
    for op in circuit.iter() {
        for slot in &op.params {
            if let Some((ti, scale)) = slot.train_component() {
                if !op.kind.supports_parameter_shift() || (scale.abs() - 1.0).abs() > 1e-12 {
                    shiftable[ti] = false;
                }
            }
        }
    }
    shiftable
}

/// Computes the gradient with the parameter-shift rule where it applies
/// (two circuit evaluations per parameter at θ ± π/2) and falls back to a
/// central finite difference (step `1e-5`) for gates without a two-term rule
/// (controlled rotations).
///
/// This is the paper's hardware-compatible gradient path: every evaluation
/// is an ordinary circuit execution, so the same code runs against noisy
/// backends. Use [`adjoint_gradient`] for fast classical training.
///
/// # Panics
///
/// Panics if `train` is shorter than the circuit references.
pub fn parameter_shift_gradient(
    circuit: &Circuit,
    train: &[f64],
    input: &[f64],
    obs: &impl Observable,
) -> Vec<f64> {
    let n = circuit.num_train_params();
    let shiftable = shiftable_params(circuit);
    // Batch all 2n shifted evaluations through one compiled plan.
    let h = 1e-5;
    let mut shifts = Vec::with_capacity(2 * n);
    for (i, &ok) in shiftable.iter().enumerate() {
        let s = if ok { std::f64::consts::FRAC_PI_2 } else { h };
        shifts.push((i, s));
        shifts.push((i, -s));
    }
    let evals = shifted_expectations(circuit, train, input, obs, &shifts);
    let mut grad = vec![0.0; n];
    for (i, g) in grad.iter_mut().enumerate() {
        let (plus, minus) = (evals[2 * i], evals[2 * i + 1]);
        *g = if shiftable[i] {
            (plus - minus) / 2.0
        } else {
            (plus - minus) / (2.0 * h)
        };
    }
    grad
}

/// Evaluates `<O>` for a batch of single-parameter shifts of `train`,
/// replaying one compiled fusion plan instead of recompiling per shift.
///
/// Each entry of `shifts` is `(train_index, delta)`: the circuit is
/// evaluated with `train[train_index] += delta` (all other parameters at
/// their base values). Only fused blocks containing the shifted parameter
/// are re-materialized per evaluation; every other block is reused from the
/// base materialization, so the result is bit-identical to compiling each
/// shifted parameter vector from scratch.
///
/// # Panics
///
/// Panics if a shift index is out of bounds for `train`.
///
/// # Examples
///
/// ```
/// use qns_circuit::{Circuit, GateKind, Param};
/// use qns_sim::{shifted_expectations, DiagObservable};
///
/// let mut c = Circuit::new(1);
/// c.push(GateKind::RY, &[0], &[Param::Train(0)]);
/// let obs = DiagObservable::new(vec![1.0]);
/// let e = shifted_expectations(&c, &[0.3], &[], &obs, &[(0, 0.0), (0, 0.2)]);
/// assert!((e[0] - 0.3f64.cos()).abs() < 1e-12);
/// assert!((e[1] - 0.5f64.cos()).abs() < 1e-12);
/// ```
pub fn shifted_expectations(
    circuit: &Circuit,
    train: &[f64],
    input: &[f64],
    obs: &impl Observable,
    shifts: &[(usize, f64)],
) -> Vec<f64> {
    let plan = SimPlan::compile(circuit);
    let base = plan.materialize(circuit, train, input);
    let mut state = StateVec::zero_state(circuit.num_qubits());
    let mut work = train.to_vec();
    let mut out = Vec::with_capacity(shifts.len());
    for &(i, delta) in shifts {
        let original = work[i];
        work[i] = original + delta;
        plan.replay_train_into(circuit, &base, &work, input, i, &mut state);
        work[i] = original;
        out.push(obs.expect(&state));
    }
    out
}

/// Central-finite-difference gradient, for testing the analytic engines.
pub fn numeric_gradient(
    circuit: &Circuit,
    train: &[f64],
    input: &[f64],
    obs: &impl Observable,
    h: f64,
) -> Vec<f64> {
    let eval = |params: &[f64]| -> f64 {
        let s = run(circuit, params, input, ExecMode::Dynamic);
        obs.expect(&s)
    };
    let mut grad = vec![0.0; circuit.num_train_params()];
    let mut work = train.to_vec();
    for (i, g) in grad.iter_mut().enumerate() {
        let original = work[i];
        work[i] = original + h;
        let plus = eval(&work);
        work[i] = original - h;
        let minus = eval(&work);
        *g = (plus - minus) / (2.0 * h);
        work[i] = original;
    }
    grad
}

#[cfg(test)]
mod tests {
    use super::*;
    use qns_circuit::{GateKind, Param};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_close(a: &[f64], b: &[f64], tol: f64, label: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x - y).abs() < tol,
                "{label}: grad[{i}] {x} vs {y} (diff {})",
                (x - y).abs()
            );
        }
    }

    /// A parameterized circuit mixing every trainable gate kind.
    fn trainable_circuit() -> (Circuit, Vec<f64>) {
        let mut c = Circuit::new(3);
        let mut train = Vec::new();
        let mut rng = StdRng::seed_from_u64(11);
        let mut push = |c: &mut Circuit, kind: GateKind, qs: &[usize], train: &mut Vec<f64>| {
            let ps: Vec<Param> = (0..kind.num_params())
                .map(|_| {
                    train.push(rng.gen_range(-2.0..2.0));
                    Param::Train(train.len() - 1)
                })
                .collect();
            c.push(kind, qs, &ps);
        };
        push(&mut c, GateKind::RX, &[0], &mut train);
        push(&mut c, GateKind::RY, &[1], &mut train);
        push(&mut c, GateKind::RZ, &[2], &mut train);
        push(&mut c, GateKind::U3, &[0], &mut train);
        push(&mut c, GateKind::U1, &[1], &mut train);
        push(&mut c, GateKind::U2, &[2], &mut train);
        push(&mut c, GateKind::CU3, &[0, 1], &mut train);
        push(&mut c, GateKind::CRY, &[1, 2], &mut train);
        push(&mut c, GateKind::CRX, &[2, 0], &mut train);
        push(&mut c, GateKind::CRZ, &[0, 2], &mut train);
        push(&mut c, GateKind::CU1, &[1, 0], &mut train);
        push(&mut c, GateKind::RZZ, &[0, 1], &mut train);
        push(&mut c, GateKind::RXX, &[1, 2], &mut train);
        push(&mut c, GateKind::RZX, &[2, 1], &mut train);
        push(&mut c, GateKind::RYY, &[0, 2], &mut train);
        (c, train)
    }

    #[test]
    fn adjoint_matches_numeric_on_mixed_circuit() {
        let (c, train) = trainable_circuit();
        let obs = DiagObservable::new(vec![0.7, -1.3, 0.4]);
        let (_, adj) = adjoint_gradient(&c, &train, &[], &obs);
        let num = numeric_gradient(&c, &train, &[], &obs, 1e-5);
        assert_close(&adj, &num, 1e-6, "adjoint vs numeric");
    }

    #[test]
    fn parameter_shift_matches_adjoint() {
        let (c, train) = trainable_circuit();
        let obs = DiagObservable::new(vec![1.0, 0.5, -0.25]);
        let (_, adj) = adjoint_gradient(&c, &train, &[], &obs);
        let ps = parameter_shift_gradient(&c, &train, &[], &obs);
        assert_close(&adj, &ps, 1e-6, "adjoint vs parameter-shift");
    }

    #[test]
    fn adjoint_expectation_matches_forward() {
        let (c, train) = trainable_circuit();
        let obs = DiagObservable::new(vec![1.0, 1.0, 1.0]);
        let (e, _) = adjoint_gradient(&c, &train, &[], &obs);
        let s = run(&c, &train, &[], ExecMode::Dynamic);
        assert!((e - obs.expect(&s)).abs() < 1e-12);
    }

    #[test]
    fn shared_parameter_accumulates() {
        // Same trainable index drives two RY gates on different qubits:
        // <Z0 + Z1> = 2 cos θ, gradient = -2 sin θ.
        let mut c = Circuit::new(2);
        c.push(GateKind::RY, &[0], &[Param::Train(0)]);
        c.push(GateKind::RY, &[1], &[Param::Train(0)]);
        let obs = DiagObservable::new(vec![1.0, 1.0]);
        let theta = 0.8;
        let (e, g) = adjoint_gradient(&c, &[theta], &[], &obs);
        assert!((e - 2.0 * theta.cos()).abs() < 1e-12);
        assert!((g[0] + 2.0 * theta.sin()).abs() < 1e-12);
    }

    #[test]
    fn gradient_with_input_encoding() {
        let mut c = Circuit::new(1);
        c.push(GateKind::RX, &[0], &[Param::Input(0)]);
        c.push(GateKind::RY, &[0], &[Param::Train(0)]);
        let obs = DiagObservable::new(vec![1.0]);
        let (_, adj) = adjoint_gradient(&c, &[0.4], &[0.9], &obs);
        let num = numeric_gradient(&c, &[0.4], &[0.9], &obs, 1e-5);
        assert_close(&adj, &num, 1e-7, "with input");
    }

    #[test]
    fn diag_observable_apply_matches_expect() {
        let mut s = StateVec::zero_state(2);
        s.apply_1q(&Mat2::hadamard(), 0);
        let obs = DiagObservable::new(vec![0.3, -0.9]);
        let via_apply = s.inner(&obs.apply(&s)).re;
        assert!((via_apply - obs.expect(&s)).abs() < 1e-12);
    }

    #[test]
    fn batched_adjoint_matches_sequential_per_sample() {
        // Input-encoded circuit with shared trainables plus a mixed-slot
        // gate (U3 with one Input angle among Train angles).
        let mut c = Circuit::new(2);
        c.push(GateKind::RX, &[0], &[Param::Input(0)]);
        c.push(GateKind::RY, &[1], &[Param::Input(1)]);
        c.push(GateKind::RY, &[0], &[Param::Train(0)]);
        c.push(GateKind::CRY, &[0, 1], &[Param::Train(1)]);
        c.push(
            GateKind::U3,
            &[1],
            &[Param::Train(2), Param::Input(0), Param::Train(3)],
        );
        c.push(GateKind::RZZ, &[0, 1], &[Param::Train(4)]);
        let train = [0.3, -0.8, 1.2, 0.5, -0.4];
        let samples: Vec<Vec<f64>> = vec![vec![0.2, 1.4], vec![-0.9, 0.1], vec![2.2, -1.7]];
        let inputs: Vec<&[f64]> = samples.iter().map(|s| s.as_slice()).collect();
        let lane_weights = [vec![0.7, -0.2], vec![-1.1, 0.4], vec![0.3, 0.9]];

        let (losses, grad) = adjoint_gradient_batch(&c, &train, &inputs, |lane, ez| {
            (ez[0] + ez[1], lane_weights[lane].clone())
        });

        let mut expected_grad = vec![0.0; train.len()];
        for (lane, input) in inputs.iter().enumerate() {
            let obs = DiagObservable::new(lane_weights[lane].clone());
            let (_, g) = adjoint_gradient(&c, &train, input, &obs);
            for (eg, x) in expected_grad.iter_mut().zip(&g) {
                *eg += x;
            }
            let s = run(&c, &train, input, ExecMode::Dynamic);
            let ez = s.expect_z_all();
            assert_eq!(losses[lane], ez[0] + ez[1], "lane {lane} loss");
        }
        // The transfer-matrix bracket reassociates the reduction, so the
        // match is to solver precision rather than bitwise.
        for (ti, (a, b)) in grad.iter().zip(&expected_grad).enumerate() {
            assert!(
                (a - b).abs() < 1e-12,
                "grad[{ti}]: batched {a} vs sequential {b}"
            );
        }
    }

    /// [`adjoint_gradient_batch`] on the scalar oracle loops: scalar
    /// readout, bra seed and transfer sums, and every two-qubit bracket
    /// projected over all sixteen transfer entries. Returns each lane's
    /// `<Z_q>` and the summed gradient.
    fn scalar_adjoint_gradient_batch(
        circuit: &Circuit,
        train: &[f64],
        inputs: &[&[f64]],
        weights: &[Vec<f64>],
    ) -> (Vec<Vec<f64>>, Vec<f64>) {
        use crate::state_batch::scalar;
        let lanes = inputs.len();
        let mut cur = StateBatch::zero_state(circuit.num_qubits(), lanes);
        for op in circuit.iter() {
            apply_op_batch(&mut cur, op, train, inputs, false);
        }
        let ez = scalar::expect_z_all_lanes(&cur);
        let mut lam = scalar::diag_weighted(&cur, weights);
        let mut grad_lanes = vec![vec![0.0; circuit.num_train_params()]; lanes];
        for op in circuit.ops()[first_trainable_op(circuit)..].iter().rev() {
            apply_op_batch(&mut cur, op, train, inputs, true);
            let slots = train_slots(op);
            if !slots.is_empty() {
                let t = match op.kind.num_qubits() {
                    1 => scalar::transfer_1q(&lam, &cur, op.qubits[0]),
                    _ => scalar::transfer_2q(&lam, &cur, op.qubits[0], op.qubits[1]),
                };
                let per_lane = t.chunks_exact(t.len() / lanes).zip(inputs);
                for ((tl, input), grad) in per_lane.zip(&mut grad_lanes) {
                    let dms = dmatrices(op, &op.resolve_params(train, input), &slots);
                    for (d, &(_, ti, scale)) in dms.iter().zip(&slots) {
                        grad[ti] += 2.0 * scale * project(d, tl).re;
                    }
                }
            }
            apply_op_batch(&mut lam, op, train, inputs, true);
        }
        let mut grad = vec![0.0; circuit.num_train_params()];
        for gl in &grad_lanes {
            for (g, x) in grad.iter_mut().zip(gl) {
                *g += x;
            }
        }
        (ez, grad)
    }

    #[test]
    fn controlled_brackets_match_the_sixteen_entry_oracle_bitwise() {
        use GateKind::{CRX, CRY, CRZ, CU1, CU3, RZZ};
        let kinds = [CRX, CRY, CRZ, CU1, CU3];
        // Every controlled kind's derivative is zero outside the control-1
        // block, so its shared-slot brackets take the four-entry sweep;
        // RZZ's is not.
        for kind in kinds {
            let p: Vec<f64> = (0..kind.num_params())
                .map(|i| 0.3 + 0.4 * i as f64)
                .collect();
            for which in 0..kind.num_params() {
                assert!(
                    zero_outside_control_block(&kind.dmatrix(&p, which)),
                    "{kind}"
                );
            }
        }
        assert!(!zero_outside_control_block(&RZZ.dmatrix(&[0.4], 0)));

        let mut rng = StdRng::seed_from_u64(17);
        let mut c = Circuit::new(4);
        let mut t = 0;
        let mut train_slot = |c: &mut Circuit, kind: GateKind, qs: &[usize]| {
            let ps: Vec<Param> = (0..kind.num_params())
                .map(|i| {
                    t += 1;
                    if i == 1 {
                        Param::AffineTrain {
                            index: t - 1,
                            scale: -0.5,
                            offset: 0.25,
                        }
                    } else {
                        Param::Train(t - 1)
                    }
                })
                .collect();
            c.push(kind, qs, &ps);
        };
        c.push(GateKind::RY, &[0], &[Param::Input(0)]);
        c.push(GateKind::RY, &[1], &[Param::Input(1)]);
        c.push(GateKind::RX, &[2], &[Param::Input(2)]);
        for (qa, qb) in [(0, 1), (2, 0), (1, 2), (2, 1)] {
            for kind in kinds {
                train_slot(&mut c, GateKind::U3, &[qb]);
                train_slot(&mut c, kind, &[qa, qb]);
            }
        }
        // Qubit 3 only ever controls, so its control-1 amplitudes stay
        // exact zeros and these brackets sum nothing but zeros.
        let zero_from = c.num_train_params();
        for (kind, qb) in kinds.into_iter().zip([0, 1, 2, 0, 1]) {
            train_slot(&mut c, kind, &[3, qb]);
        }
        let zero_to = c.num_train_params();
        train_slot(&mut c, RZZ, &[0, 2]);
        // A mixed-slot controlled op keeps the sixteen-entry sweep.
        let n_train = c.num_train_params();
        c.push(
            CU3,
            &[1, 0],
            &[
                Param::Train(n_train),
                Param::Input(1),
                Param::Train(n_train + 1),
            ],
        );
        let train: Vec<f64> = (0..n_train + 2).map(|_| rng.gen_range(-2.0..2.0)).collect();
        for lanes in [1, 5, 17] {
            let samples: Vec<Vec<f64>> = (0..lanes)
                .map(|_| (0..3).map(|_| rng.gen_range(-2.0..2.0)).collect())
                .collect();
            let inputs: Vec<&[f64]> = samples.iter().map(|s| s.as_slice()).collect();
            let weights: Vec<Vec<f64>> = (0..lanes)
                .map(|_| (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .collect();
            let (losses, grad) = adjoint_gradient_batch(&c, &train, &inputs, |lane, ez| {
                (ez[0] - ez[2], weights[lane].clone())
            });
            let (ez, want) = scalar_adjoint_gradient_batch(&c, &train, &inputs, &weights);
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&grad), bits(&want), "{lanes} lanes: gradient");
            let want_losses: Vec<f64> = ez.iter().map(|e| e[0] - e[2]).collect();
            assert_eq!(bits(&losses), bits(&want_losses), "{lanes} lanes: losses");
            for g in &grad[zero_from..zero_to] {
                assert_eq!(
                    g.to_bits(),
                    0.0f64.to_bits(),
                    "{lanes} lanes: a zero bracket"
                );
            }
        }
    }

    #[test]
    fn zero_param_circuit_has_empty_gradient() {
        let mut c = Circuit::new(1);
        c.push(GateKind::H, &[0], &[]);
        let obs = DiagObservable::new(vec![1.0]);
        let (e, g) = adjoint_gradient(&c, &[], &[], &obs);
        assert!(e.abs() < 1e-12);
        assert!(g.is_empty());
    }
}
