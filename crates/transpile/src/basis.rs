//! Exact decomposition of the gate library into the IBM basis
//! `{CX, SX, RZ, X}`.
//!
//! Parameterized gates stay symbolic: a `U3(Train(i), …)` becomes basis
//! gates whose angles are affine in `Train(i)`, so compiled circuits remain
//! trainable and per-sample encodable. Fixed parameters get the
//! zero-specializations of the paper's Table II (a `U3(0, φ, λ)` compiles
//! to a single `RZ`).

use qns_circuit::{Circuit, GateKind, Op, Param};
use qns_tensor::Mat2;

const TWO_PI: f64 = 2.0 * std::f64::consts::PI;
const PI: f64 = std::f64::consts::PI;
const FRAC_PI_2: f64 = std::f64::consts::FRAC_PI_2;

/// Is a fixed angle ≡ 0 (mod 2π)?
pub(crate) fn is_zero_angle(p: Param) -> bool {
    match p {
        Param::Fixed(v) => {
            let r = v.rem_euclid(TWO_PI);
            r < 1e-12 || (TWO_PI - r) < 1e-12
        }
        _ => false,
    }
}

/// ZYZ angles of a 2×2 unitary: returns `(alpha, theta, phi, lambda)` with
/// `m = e^{iα} · U3(θ, φ, λ)`.
///
/// # Panics
///
/// Panics if `m` is not unitary to within `1e-8`.
///
/// # Examples
///
/// ```
/// use qns_tensor::Mat2;
/// let (_, theta, _, _) = qns_transpile::zyz_angles(&Mat2::pauli_x());
/// assert!((theta - std::f64::consts::PI).abs() < 1e-10);
/// ```
pub fn zyz_angles(m: &Mat2) -> (f64, f64, f64, f64) {
    assert!(m.is_unitary(1e-8), "matrix must be unitary");
    let c = m.m[0].abs();
    let s = m.m[2].abs();
    let theta = 2.0 * s.atan2(c);
    if s < 1e-9 {
        // Diagonal: e^{iα} diag(1, e^{i(φ+λ)}); put everything in φ.
        let alpha = m.m[0].arg();
        let phi = m.m[3].arg() - alpha;
        (alpha, 0.0, phi, 0.0)
    } else if c < 1e-9 {
        // Anti-diagonal: u10 = e^{i(α+φ)}, u01 = -e^{i(α+λ)}; put λ = 0.
        let alpha = (-m.m[1]).arg();
        let phi = m.m[2].arg() - alpha;
        (alpha, PI, phi, 0.0)
    } else {
        let alpha = m.m[0].arg();
        let phi = m.m[2].arg() - alpha;
        let lambda = (-m.m[1]).arg() - alpha;
        (alpha, theta, phi, lambda)
    }
}

/// Where emitted basis gates go: the circuit [`to_ibm_basis`] builds, or
/// the optimizer's op buffer.
trait GateSink {
    fn gate(&mut self, kind: GateKind, qubits: &[usize], params: &[Param]);
}

impl GateSink for Circuit {
    fn gate(&mut self, kind: GateKind, qubits: &[usize], params: &[Param]) {
        self.push(kind, qubits, params);
    }
}

impl GateSink for Vec<Op> {
    fn gate(&mut self, kind: GateKind, qubits: &[usize], params: &[Param]) {
        // `Circuit::push`'s layout: a one-qubit op's second slot is unused.
        self.push(Op {
            kind,
            qubits: [qubits[0], qubits.get(1).copied().unwrap_or(usize::MAX)],
            params: params.to_vec(),
        });
    }
}

/// Collector for emitted basis gates.
struct Emitter<'a, S> {
    out: &'a mut S,
}

impl<S: GateSink> Emitter<'_, S> {
    fn rz(&mut self, q: usize, p: Param) {
        if !is_zero_angle(p) {
            self.out.gate(GateKind::RZ, &[q], &[p]);
        }
    }

    fn sx(&mut self, q: usize) {
        self.out.gate(GateKind::SX, &[q], &[]);
    }

    fn x(&mut self, q: usize) {
        self.out.gate(GateKind::X, &[q], &[]);
    }

    fn cx(&mut self, c: usize, t: usize) {
        self.out.gate(GateKind::CX, &[c, t], &[]);
    }

    /// `U3(θ, φ, λ)` → `RZ(λ) · SX · RZ(θ+π) · SX · RZ(φ+π)` (op order),
    /// with the Table II specializations when parameters are fixed zeros.
    fn u3(&mut self, q: usize, theta: Param, phi: Param, lambda: Param) {
        if is_zero_angle(theta) {
            // Pure phase: RZ(φ + λ).
            match (phi, lambda) {
                (Param::Fixed(a), Param::Fixed(b)) => self.rz(q, Param::Fixed(a + b)),
                _ => {
                    self.rz(q, phi);
                    self.rz(q, lambda);
                }
            }
            return;
        }
        self.rz(q, lambda);
        self.sx(q);
        self.rz(q, theta.affine(1.0, PI));
        self.sx(q);
        self.rz(q, phi.affine(1.0, PI));
    }

    /// `RY(θ) = U3(θ, 0, 0)`; skipped entirely for a fixed zero angle.
    fn ry(&mut self, q: usize, theta: Param) {
        if is_zero_angle(theta) {
            return;
        }
        self.u3(q, theta, Param::Fixed(0.0), Param::Fixed(0.0));
    }

    /// Hadamard: `RZ(π/2) · SX · RZ(π/2)` up to global phase.
    fn h(&mut self, q: usize) {
        self.rz(q, Param::Fixed(FRAC_PI_2));
        self.sx(q);
        self.rz(q, Param::Fixed(FRAC_PI_2));
    }

    /// A fixed 2×2 unitary via ZYZ extraction.
    fn mat2(&mut self, q: usize, m: &Mat2) {
        let (_, theta, phi, lambda) = zyz_angles(m);
        self.u3(
            q,
            Param::Fixed(theta),
            Param::Fixed(phi),
            Param::Fixed(lambda),
        );
    }

    /// `RZZ(θ)` → `CX · RZ(θ)_t · CX` (exact).
    fn rzz(&mut self, a: usize, b: usize, theta: Param) {
        if is_zero_angle(theta) {
            return;
        }
        self.cx(a, b);
        self.rz(b, theta);
        self.cx(a, b);
    }

    /// Controlled-`U3(θ, φ, λ)` via the two-CX ABC construction.
    fn cu3(&mut self, c: usize, t: usize, theta: Param, phi: Param, lambda: Param) {
        // C = RZ((λ−φ)/2)
        self.rz(t, lambda.affine(0.5, 0.0));
        self.rz(t, phi.affine(-0.5, 0.0));
        self.cx(c, t);
        // B = RY(−θ/2) · RZ(−(φ+λ)/2)  (RZ applied first)
        self.rz(t, phi.affine(-0.5, 0.0));
        self.rz(t, lambda.affine(-0.5, 0.0));
        self.ry(t, theta.affine(-0.5, 0.0));
        self.cx(c, t);
        // A = RZ(φ) · RY(θ/2)  (RY applied first)
        self.ry(t, theta.affine(0.5, 0.0));
        self.rz(t, phi);
        // Phase e^{i(φ+λ)/2} on the control.
        self.rz(c, phi.affine(0.5, 0.0));
        self.rz(c, lambda.affine(0.5, 0.0));
    }
}

/// Lowers every gate of `circuit` to the IBM basis `{CX, SX, RZ, X}`.
///
/// Exact up to global phase; trainable/input parameters are preserved as
/// affine parameter slots. The output has the same width as the input.
///
/// # Examples
///
/// ```
/// use qns_circuit::{Circuit, GateKind, Param};
/// use qns_transpile::to_ibm_basis;
///
/// let mut c = Circuit::new(1);
/// // U3 with all three parameters nonzero compiles to 5 basis gates.
/// c.push(
///     GateKind::U3,
///     &[0],
///     &[Param::Fixed(0.3), Param::Fixed(0.4), Param::Fixed(0.5)],
/// );
/// assert_eq!(to_ibm_basis(&c).num_ops(), 5);
/// ```
pub fn to_ibm_basis(circuit: &Circuit) -> Circuit {
    let mut out = Circuit::new(circuit.num_qubits());
    let mut e = Emitter { out: &mut out };
    for op in circuit.iter() {
        let q = op.qubits[0];
        let p = |i: usize| op.params[i];
        match op.kind {
            GateKind::I => {}
            GateKind::X => e.x(q),
            GateKind::SX => e.sx(q),
            GateKind::RZ => e.rz(q, p(0)),
            GateKind::U1 => e.rz(q, p(0)),
            GateKind::Z => e.rz(q, Param::Fixed(PI)),
            GateKind::S => e.rz(q, Param::Fixed(FRAC_PI_2)),
            GateKind::Sdg => e.rz(q, Param::Fixed(-FRAC_PI_2)),
            GateKind::T => e.rz(q, Param::Fixed(PI / 4.0)),
            GateKind::Tdg => e.rz(q, Param::Fixed(-PI / 4.0)),
            GateKind::H => e.h(q),
            GateKind::Y | GateKind::SH | GateKind::SXdg => {
                let m = match op.kind.matrix(&[]) {
                    qns_circuit::GateMatrix::One(m) => m,
                    _ => unreachable!(),
                };
                e.mat2(q, &m);
            }
            GateKind::RX => e.u3(q, p(0), Param::Fixed(-FRAC_PI_2), Param::Fixed(FRAC_PI_2)),
            GateKind::RY => e.ry(q, p(0)),
            GateKind::U2 => e.u3(q, Param::Fixed(FRAC_PI_2), p(0), p(1)),
            GateKind::U3 => e.u3(q, p(0), p(1), p(2)),
            GateKind::CX => e.cx(q, op.qubits[1]),
            GateKind::CZ => {
                let t = op.qubits[1];
                e.h(t);
                e.cx(q, t);
                e.h(t);
            }
            GateKind::CY => {
                let t = op.qubits[1];
                e.rz(t, Param::Fixed(-FRAC_PI_2));
                e.cx(q, t);
                e.rz(t, Param::Fixed(FRAC_PI_2));
            }
            GateKind::CH => e.cu3(
                q,
                op.qubits[1],
                Param::Fixed(FRAC_PI_2),
                Param::Fixed(0.0),
                Param::Fixed(PI),
            ),
            GateKind::Swap => {
                let t = op.qubits[1];
                e.cx(q, t);
                e.cx(t, q);
                e.cx(q, t);
            }
            GateKind::SqrtSwap => {
                let t = op.qubits[1];
                // √SWAP = e^{iπ/8} RXX(π/4) RYY(π/4) RZZ(π/4) (commuting).
                emit_rxx(&mut e, q, t, Param::Fixed(PI / 4.0));
                emit_ryy(&mut e, q, t, Param::Fixed(PI / 4.0));
                e.rzz(q, t, Param::Fixed(PI / 4.0));
            }
            GateKind::CRX => e.cu3(
                q,
                op.qubits[1],
                p(0),
                Param::Fixed(-FRAC_PI_2),
                Param::Fixed(FRAC_PI_2),
            ),
            GateKind::CRY => e.cu3(q, op.qubits[1], p(0), Param::Fixed(0.0), Param::Fixed(0.0)),
            GateKind::CRZ => {
                // CRZ(θ) = RZ(θ/2)_t · CX · RZ(−θ/2)_t · CX (exact).
                let t = op.qubits[1];
                e.rz(t, p(0).affine(0.5, 0.0));
                e.cx(q, t);
                e.rz(t, p(0).affine(-0.5, 0.0));
                e.cx(q, t);
            }
            GateKind::CU1 => {
                // CU1(λ) = RZ(λ/2)_c · RZ(λ/2)_t · CX · RZ(−λ/2)_t · CX.
                let t = op.qubits[1];
                e.rz(q, p(0).affine(0.5, 0.0));
                e.rz(t, p(0).affine(0.5, 0.0));
                e.cx(q, t);
                e.rz(t, p(0).affine(-0.5, 0.0));
                e.cx(q, t);
            }
            GateKind::CU3 => e.cu3(q, op.qubits[1], p(0), p(1), p(2)),
            GateKind::RZZ => e.rzz(q, op.qubits[1], p(0)),
            GateKind::RZX => {
                let t = op.qubits[1];
                e.h(t);
                e.rzz(q, t, p(0));
                e.h(t);
            }
            GateKind::RXX => emit_rxx(&mut e, q, op.qubits[1], p(0)),
            GateKind::RYY => emit_ryy(&mut e, q, op.qubits[1], p(0)),
        }
    }
    // Preserve the declared trainable width even if high indices vanished.
    if out.num_train_params() < circuit.num_train_params() {
        out.set_num_train_params(circuit.num_train_params());
    }
    out
}

/// Appends the basis gates of a fixed one-qubit unitary on `q` to `out`:
/// its ZYZ angles through the U3 rule, as [`to_ibm_basis`] lowers `Y`.
pub(crate) fn lower_mat2(q: usize, m: &Mat2, out: &mut Vec<Op>) {
    Emitter { out }.mat2(q, m);
}

fn emit_rxx(e: &mut Emitter<'_, impl GateSink>, a: usize, b: usize, theta: Param) {
    e.h(a);
    e.h(b);
    e.rzz(a, b, theta);
    e.h(a);
    e.h(b);
}

fn emit_ryy(e: &mut Emitter<'_, impl GateSink>, a: usize, b: usize, theta: Param) {
    // Y = C Z C† with C = RX(−π/2): conjugate RZZ by RX(π/2) on both.
    for q in [a, b] {
        e.u3(
            q,
            Param::Fixed(FRAC_PI_2),
            Param::Fixed(-FRAC_PI_2),
            Param::Fixed(FRAC_PI_2),
        );
    }
    e.rzz(a, b, theta);
    for q in [a, b] {
        e.u3(
            q,
            Param::Fixed(-FRAC_PI_2),
            Param::Fixed(-FRAC_PI_2),
            Param::Fixed(FRAC_PI_2),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qns_sim::{run, ExecMode};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Fidelity between the original and compiled circuit on a random
    /// product-state input (global phase cancels).
    fn check_gate(kind: GateKind, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nq = kind.num_qubits().max(2);
        let mut c = Circuit::new(nq);
        // Random preamble so we don't test on |0..0> only.
        for q in 0..nq {
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
        let qs: Vec<usize> = (0..kind.num_qubits()).collect();
        let ps: Vec<Param> = (0..kind.num_params())
            .map(|_| Param::Fixed(rng.gen_range(-3.0..3.0)))
            .collect();
        c.push(kind, &qs, &ps);

        let compiled = to_ibm_basis(&c);
        for op in compiled.iter() {
            assert!(
                matches!(
                    op.kind,
                    GateKind::CX | GateKind::SX | GateKind::RZ | GateKind::X
                ),
                "{} leaked non-basis gate {}",
                kind,
                op.kind
            );
        }
        let a = run(&c, &[], &[], ExecMode::Dynamic);
        let b = run(&compiled, &[], &[], ExecMode::Dynamic);
        let f = a.inner(&b).abs();
        assert!((f - 1.0).abs() < 1e-9, "{kind}: fidelity {f}");
    }

    #[test]
    fn every_gate_compiles_exactly() {
        for (i, &kind) in GateKind::all().iter().enumerate() {
            for rep in 0..3 {
                check_gate(kind, (i * 10 + rep) as u64);
            }
        }
    }

    #[test]
    fn table_ii_u3_gate_counts() {
        // The paper's Table II: #compiled gates per zeroed-parameter pattern.
        let cases: [(f64, f64, f64, usize); 6] = [
            (0.3, 0.4, 0.5, 5), // (θ, φ, λ)
            (0.0, 0.4, 0.5, 1), // (0, φ, λ)
            (0.3, 0.4, 0.0, 4), // (θ, φ, 0)
            (0.3, 0.0, 0.0, 4), // (θ, 0, 0)
            (0.0, 0.4, 0.0, 1), // (0, φ, 0)
            (0.0, 0.0, 0.5, 1), // (0, 0, λ)
        ];
        for (theta, phi, lambda, expected) in cases {
            let mut c = Circuit::new(1);
            c.push(
                GateKind::U3,
                &[0],
                &[Param::Fixed(theta), Param::Fixed(phi), Param::Fixed(lambda)],
            );
            let n = to_ibm_basis(&c).num_ops();
            assert_eq!(
                n, expected,
                "U3({theta},{phi},{lambda}) compiled to {n} gates"
            );
        }
    }

    #[test]
    fn symbolic_params_survive_compilation() {
        let mut c = Circuit::new(2);
        c.push(GateKind::RX, &[0], &[Param::Input(0)]);
        c.push(
            GateKind::CU3,
            &[0, 1],
            &[Param::Train(0), Param::Train(1), Param::Train(2)],
        );
        let compiled = to_ibm_basis(&c);
        assert_eq!(compiled.num_train_params(), 3);
        assert_eq!(compiled.num_inputs(), 1);
        // Equivalence at several parameter points.
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let train: Vec<f64> = (0..3).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let input = vec![rng.gen_range(-3.0..3.0)];
            let a = run(&c, &train, &input, ExecMode::Dynamic);
            let b = run(&compiled, &train, &input, ExecMode::Dynamic);
            let f = a.inner(&b).abs();
            assert!((f - 1.0).abs() < 1e-9, "fidelity {f}");
        }
    }

    #[test]
    fn zyz_roundtrip_on_random_unitaries() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..20 {
            let (t, p, l) = (
                rng.gen_range(0.0..PI),
                rng.gen_range(-PI..PI),
                rng.gen_range(-PI..PI),
            );
            let m = match GateKind::U3.matrix(&[t, p, l]) {
                qns_circuit::GateMatrix::One(m) => m,
                _ => unreachable!(),
            };
            let (alpha, t2, p2, l2) = zyz_angles(&m);
            let rebuilt = match GateKind::U3.matrix(&[t2, p2, l2]) {
                qns_circuit::GateMatrix::One(m) => m,
                _ => unreachable!(),
            };
            let phased = rebuilt.scale(qns_tensor::C64::cis(alpha));
            assert!(phased.approx_eq(&m, 1e-8), "zyz roundtrip failed");
        }
    }

    #[test]
    fn identity_gates_compile_to_nothing() {
        let mut c = Circuit::new(1);
        c.push(GateKind::I, &[0], &[]);
        c.push(GateKind::RZ, &[0], &[Param::Fixed(0.0)]);
        c.push(GateKind::RZ, &[0], &[Param::Fixed(TWO_PI)]);
        assert_eq!(to_ibm_basis(&c).num_ops(), 0);
    }
}
