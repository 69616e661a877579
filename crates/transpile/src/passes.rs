//! Peephole optimization passes over IBM-basis circuits.

use crate::basis::{is_zero_angle, lower_mat2};
use qns_circuit::{Circuit, GateKind, GateMatrix, Op, Param};
use qns_tensor::{Mat2, C64};

/// Optimizes an IBM-basis circuit at a Qiskit-style level.
///
/// - level 0 — no optimization,
/// - level 1 — gate cancellation: merge/drop adjacent `RZ`s, cancel `CX·CX`
///   and `X·X` pairs, fuse `SX·SX → X`, repeated until a pass removes
///   nothing,
/// - level 2 — level 1 plus single-qubit resynthesis: maximal runs of fixed
///   one-qubit gates are re-expressed as at most 5 basis gates via ZYZ,
/// - level 3 — level 2 plus commuting `RZ`s through `CX` controls before a
///   second resynthesis round (heavier, occasionally wins, occasionally
///   doesn't — matching the paper's observation in Table VI).
///
/// Parameterized (trainable/input) gates are barriers for resynthesis but
/// still merge with adjacent fixed `RZ`s. An `RZ` is dropped only when its
/// angle is ≡ 0 (mod 2π) at every parameter value.
///
/// Every pass of one call rewrites one owned op buffer, and the output
/// circuit is built once, at the end. Cancellation finds each merge target
/// on per-qubit stacks of the live output ops; resynthesis multiplies each
/// run's unitary as its ops arrive and lowers it with [`to_ibm_basis`]'s
/// own U3 rule.
///
/// [`to_ibm_basis`]: crate::to_ibm_basis
///
/// # Examples
///
/// ```
/// use qns_circuit::{Circuit, GateKind, Param};
/// use qns_transpile::optimize;
///
/// let mut c = Circuit::new(1);
/// c.push(GateKind::RZ, &[0], &[Param::Fixed(0.4)]);
/// c.push(GateKind::RZ, &[0], &[Param::Fixed(-0.4)]);
/// assert_eq!(optimize(&c, 1).num_ops(), 0);
/// ```
pub fn optimize(circuit: &Circuit, level: u8) -> Circuit {
    if level == 0 {
        return circuit.clone();
    }
    let mut p = Peephole::new(circuit);
    p.cancel_fixpoint();
    if level >= 2 {
        p.resynthesize_1q();
        p.cancel_fixpoint();
    }
    if level >= 3 {
        commute_rz_through_cx(&mut p.ops);
        p.resynthesize_1q();
        p.cancel_fixpoint();
    }
    let mut out = Circuit::new(circuit.num_qubits());
    for op in &p.ops {
        out.push(op.kind, &op.qubits[..op.num_qubits()], &op.params);
    }
    if out.num_train_params() < circuit.num_train_params() {
        out.set_num_train_params(circuit.num_train_params());
    }
    out
}

/// The op buffer every pass of one [`optimize`] call rewrites, and the
/// scratch the passes reuse.
struct Peephole {
    /// The ops as the last pass left them.
    ops: Vec<Op>,
    /// The previous pass's ops while a pass reads them into `ops`.
    input: Vec<Op>,
    /// `top[q]`: the latest live output op on qubit `q`.
    top: Vec<Option<usize>>,
    /// `below[j][k]`: the live output op under `j` on `j`'s `k`-th qubit.
    below: Vec<[Option<usize>; 2]>,
    /// `dead[j]`: output op `j` was annihilated.
    dead: Vec<bool>,
    /// Each qubit's pending run of fixed one-qubit ops and its unitary.
    runs: Vec<(Vec<Op>, Mat2)>,
    /// A run's resynthesized ops.
    synth: Vec<Op>,
}

impl Peephole {
    fn new(circuit: &Circuit) -> Self {
        let (n, len) = (circuit.num_qubits(), circuit.num_ops());
        Peephole {
            ops: circuit.ops().to_vec(),
            input: Vec::with_capacity(len),
            top: vec![None; n],
            below: Vec::with_capacity(len),
            dead: Vec::with_capacity(len),
            runs: vec![(Vec::new(), Mat2::identity()); n],
            synth: Vec::new(),
        }
    }

    /// Repeats the cancellation pass until it removes nothing.
    fn cancel_fixpoint(&mut self) {
        while self.cancel_once() {}
    }

    /// One sweep of adjacent-gate cancellation; returns whether it removed
    /// an op.
    ///
    /// An incoming op may merge only with the latest live output op on
    /// every qubit it touches, so nothing interleaves. The live output ops
    /// on each qubit form a stack threaded through `below`. A merge needs
    /// the same support, so an annihilated target tops the stack of every
    /// qubit it touches, and popping it exposes the latest live op left on
    /// that qubit: the op a backward scan of the output would find.
    fn cancel_once(&mut self) -> bool {
        let Peephole {
            ops,
            input,
            top,
            below,
            dead,
            ..
        } = self;
        std::mem::swap(ops, input);
        let before = input.len();
        top.fill(None);
        below.clear();
        dead.clear();
        for op in input.drain(..) {
            if op.kind == GateKind::RZ && is_zero_rz(op.params[0]) {
                continue;
            }
            let qs = &op.qubits[..op.num_qubits()];
            let target = match *qs {
                [a] => top[a],
                [a, b] if top[a] == top[b] => top[a],
                _ => None,
            };
            let merged = match target {
                Some(j) => merge(&mut ops[j], &op).map(|m| (j, m)),
                None => None,
            };
            match merged {
                Some((j, Merge::Annihilated)) => {
                    dead[j] = true;
                    let prev = &ops[j];
                    for (k, &q) in prev.qubits[..prev.num_qubits()].iter().enumerate() {
                        top[q] = below[j][k];
                    }
                }
                Some((_, Merge::Rewritten)) => {}
                None => {
                    let mut under = [None; 2];
                    for (u, &q) in under.iter_mut().zip(qs) {
                        *u = top[q];
                        top[q] = Some(ops.len());
                    }
                    below.push(under);
                    dead.push(false);
                    ops.push(op);
                }
            }
        }
        let mut j = 0;
        ops.retain(|_| {
            j += 1;
            !dead[j - 1]
        });
        ops.len() < before
    }

    /// Re-synthesizes maximal runs of fixed one-qubit gates into ≤5 basis
    /// gates, keeping the original run when it is not longer. A run's
    /// unitary is multiplied up as its ops arrive.
    fn resynthesize_1q(&mut self) {
        let Peephole {
            ops,
            input,
            runs,
            synth,
            ..
        } = self;
        std::mem::swap(ops, input);
        for op in input.drain(..) {
            let fixed = op.params.iter().all(|p| matches!(p, Param::Fixed(_)));
            if op.num_qubits() == 1 && fixed {
                let (run, acc) = &mut runs[op.qubits[0]];
                *acc = fixed_matrix(&op).mul_mat(acc);
                run.push(op);
            } else {
                for &q in &op.qubits[..op.num_qubits()] {
                    flush_run(q, &mut runs[q], synth, ops);
                }
                ops.push(op);
            }
        }
        for (q, run) in runs.iter_mut().enumerate() {
            flush_run(q, run, synth, ops);
        }
    }
}

/// Merges an `RZ` pair when statically possible.
fn merge_rz(a: Param, b: Param) -> Option<Param> {
    match (a, b) {
        (Param::Fixed(x), Param::Fixed(y)) => Some(Param::Fixed(x + y)),
        (Param::Fixed(x), other) => Some(other.affine(1.0, x)),
        (other, Param::Fixed(y)) => Some(other.affine(1.0, y)),
        (
            Param::AffineTrain {
                index: i,
                scale: s1,
                offset: o1,
            },
            Param::AffineTrain {
                index: j,
                scale: s2,
                offset: o2,
            },
        ) if i == j => Some(Param::AffineTrain {
            index: i,
            scale: s1 + s2,
            offset: o1 + o2,
        }),
        _ => None,
    }
}

/// Is an `RZ` angle ≡ 0 (mod 2π) at every parameter value? A zero-scale
/// affine angle is its offset, so it is zero only when the offset is.
fn is_zero_rz(p: Param) -> bool {
    match p {
        Param::AffineTrain { scale, offset, .. } | Param::AffineInput { scale, offset, .. } => {
            scale == 0.0 && is_zero_angle(Param::Fixed(offset))
        }
        _ => is_zero_angle(p),
    }
}

/// What a merge did to the earlier op.
enum Merge {
    /// The pair is the identity: both ops go.
    Annihilated,
    /// The earlier op now stands for the pair.
    Rewritten,
}

/// Merges `op` into `prev`, the latest live op on every qubit `op`
/// touches; with equal arity the two act on the same qubits.
fn merge(prev: &mut Op, op: &Op) -> Option<Merge> {
    if prev.num_qubits() != op.num_qubits() {
        return None;
    }
    match (prev.kind, op.kind) {
        (GateKind::RZ, GateKind::RZ) => {
            let p = merge_rz(prev.params[0], op.params[0])?;
            if is_zero_rz(p) {
                Some(Merge::Annihilated)
            } else {
                prev.params[0] = p;
                Some(Merge::Rewritten)
            }
        }
        (GateKind::X, GateKind::X) => Some(Merge::Annihilated),
        (GateKind::SX, GateKind::SX) => {
            prev.kind = GateKind::X;
            Some(Merge::Rewritten)
        }
        (GateKind::CX, GateKind::CX) if prev.qubits == op.qubits => Some(Merge::Annihilated),
        _ => None,
    }
}

/// The unitary of a one-qubit op whose angles are all fixed.
fn fixed_matrix(op: &Op) -> Mat2 {
    let mut vals = [0.0; 3];
    for (v, p) in vals.iter_mut().zip(&op.params) {
        *v = p.resolve(&[], &[]);
    }
    match op.kind.matrix(&vals[..op.params.len()]) {
        GateMatrix::One(m) => m,
        _ => unreachable!("runs hold 1q ops only"),
    }
}

/// Emits qubit `q`'s pending run into `out`, as its ZYZ resynthesis when
/// that is shorter, and empties the run. A run equal to the identity up
/// to global phase resynthesizes to nothing.
fn flush_run(q: usize, (run, acc): &mut (Vec<Op>, Mat2), synth: &mut Vec<Op>, out: &mut Vec<Op>) {
    if run.is_empty() {
        return;
    }
    let m = &acc.m;
    let phase_only =
        m[1].abs() < 1e-12 && m[2].abs() < 1e-12 && (m[0].conj() * m[3] - C64::ONE).abs() < 1e-12;
    synth.clear();
    if !phase_only {
        lower_mat2(q, acc, synth);
    }
    if synth.len() < run.len() {
        out.append(synth);
        run.clear();
    } else {
        out.append(run);
    }
    *acc = Mat2::identity();
}

/// Moves `RZ` gates acting on a CX *control* to the other side of the CX
/// (they commute), which exposes more merges for the next cancel pass. A
/// moved `RZ` keeps moving through the CXs on that control that follow.
fn commute_rz_through_cx(ops: &mut [Op]) {
    for i in 1..ops.len() {
        let (rz, cx) = (&ops[i - 1], &ops[i]);
        if cx.kind == GateKind::CX && rz.kind == GateKind::RZ && rz.qubits[0] == cx.qubits[0] {
            ops.swap(i - 1, i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_ibm_basis;
    use qns_sim::{run, ExecMode};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fidelity(a: &Circuit, b: &Circuit, train: &[f64]) -> f64 {
        let sa = run(a, train, &[], ExecMode::Dynamic);
        let sb = run(b, train, &[], ExecMode::Dynamic);
        sa.inner(&sb).abs()
    }

    #[test]
    fn rz_pair_merges() {
        let mut c = Circuit::new(1);
        c.push(GateKind::RZ, &[0], &[Param::Fixed(0.3)]);
        c.push(GateKind::RZ, &[0], &[Param::Fixed(0.4)]);
        let o = optimize(&c, 1);
        assert_eq!(o.num_ops(), 1);
        assert!((fidelity(&c, &o, &[]) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn cx_pair_cancels() {
        let mut c = Circuit::new(2);
        c.push(GateKind::CX, &[0, 1], &[]);
        c.push(GateKind::CX, &[0, 1], &[]);
        assert_eq!(optimize(&c, 1).num_ops(), 0);
    }

    #[test]
    fn reversed_cx_pair_does_not_cancel() {
        let mut c = Circuit::new(2);
        c.push(GateKind::CX, &[0, 1], &[]);
        c.push(GateKind::CX, &[1, 0], &[]);
        assert_eq!(optimize(&c, 1).num_ops(), 2);
    }

    #[test]
    fn interleaved_gate_blocks_cancellation() {
        let mut c = Circuit::new(2);
        c.push(GateKind::CX, &[0, 1], &[]);
        c.push(GateKind::X, &[1], &[]);
        c.push(GateKind::CX, &[0, 1], &[]);
        let o = optimize(&c, 1);
        assert_eq!(o.num_ops(), 3);
    }

    #[test]
    fn sx_pair_becomes_x() {
        let mut c = Circuit::new(1);
        c.push(GateKind::SX, &[0], &[]);
        c.push(GateKind::SX, &[0], &[]);
        let o = optimize(&c, 1);
        assert_eq!(o.num_ops(), 1);
        assert_eq!(o.ops()[0].kind, GateKind::X);
    }

    #[test]
    fn fixed_rz_merges_into_symbolic() {
        let mut c = Circuit::new(1);
        c.push(GateKind::RZ, &[0], &[Param::Fixed(0.5)]);
        c.push(GateKind::RZ, &[0], &[Param::Train(0)]);
        let o = optimize(&c, 1);
        assert_eq!(o.num_ops(), 1);
        assert!((fidelity(&c, &o, &[0.77]) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn resynthesis_shrinks_long_1q_runs() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut c = Circuit::new(1);
        for _ in 0..10 {
            c.push(
                GateKind::RZ,
                &[0],
                &[Param::Fixed(rng.gen_range(-3.0..3.0))],
            );
            c.push(GateKind::SX, &[0], &[]);
        }
        let o = optimize(&c, 2);
        assert!(o.num_ops() <= 5, "resynthesized to {} ops", o.num_ops());
        assert!((fidelity(&c, &o, &[]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn optimization_preserves_semantics_on_random_compiled_circuits() {
        let mut rng = StdRng::seed_from_u64(9);
        for level in 1..=3 {
            for seed in 0..4 {
                let _ = seed;
                let mut c = Circuit::new(3);
                let mut train = Vec::new();
                for _ in 0..20 {
                    match rng.gen_range(0..4) {
                        0 => {
                            let q = rng.gen_range(0..3);
                            train.push(rng.gen_range(-3.0..3.0));
                            c.push(GateKind::RY, &[q], &[Param::Train(train.len() - 1)]);
                        }
                        1 => {
                            let q = rng.gen_range(0..3);
                            c.push(GateKind::H, &[q], &[]);
                        }
                        2 => {
                            let a = rng.gen_range(0..3);
                            let b = (a + 1) % 3;
                            c.push(GateKind::CX, &[a, b], &[]);
                        }
                        _ => {
                            let q = rng.gen_range(0..3);
                            c.push(
                                GateKind::U3,
                                &[q],
                                &[
                                    Param::Fixed(rng.gen_range(-3.0..3.0)),
                                    Param::Fixed(rng.gen_range(-3.0..3.0)),
                                    Param::Fixed(rng.gen_range(-3.0..3.0)),
                                ],
                            );
                        }
                    }
                }
                let compiled = to_ibm_basis(&c);
                let o = optimize(&compiled, level);
                assert!(o.num_ops() <= compiled.num_ops());
                let f = fidelity(&compiled, &o, &train);
                assert!((f - 1.0).abs() < 1e-8, "level {level}: fidelity {f}");
            }
        }
    }

    #[test]
    fn zero_scale_rz_keeps_its_offset() {
        // RZ(θ) · RZ(−θ + 0.7) merges to a constant RZ(0.7), not to nothing.
        let mut c = Circuit::new(1);
        c.push(GateKind::H, &[0], &[]);
        c.push(GateKind::RZ, &[0], &[Param::Train(0).affine(1.0, 0.0)]);
        c.push(GateKind::RZ, &[0], &[Param::Train(0).affine(-1.0, 0.7)]);
        c.push(GateKind::H, &[0], &[]);
        let o = optimize(&c, 1);
        assert_eq!(o.num_ops(), 3);
        assert!((fidelity(&c, &o, &[0.3]) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn commute_pass_merges_rz_across_cx_control() {
        let mut c = Circuit::new(2);
        c.push(GateKind::RZ, &[0], &[Param::Fixed(0.4)]);
        c.push(GateKind::CX, &[0, 1], &[]);
        c.push(GateKind::RZ, &[0], &[Param::Fixed(-0.4)]);
        let o = optimize(&c, 3);
        assert_eq!(o.num_ops(), 1, "both RZs merge away across the CX");
        assert!((fidelity(&c, &o, &[]) - 1.0).abs() < 1e-10);
    }
}
