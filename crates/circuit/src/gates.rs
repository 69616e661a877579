//! The gate library: matrices and analytic parameter derivatives.

use qns_tensor::{Mat2, Mat4, C64};

/// Either a one-qubit or a two-qubit gate matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GateMatrix {
    /// A 2×2 unitary acting on one qubit.
    One(Mat2),
    /// A 4×4 unitary acting on two qubits (first qubit = high bit).
    Two(Mat4),
}

/// Every gate used by the paper's six circuit design spaces plus the IBMQ
/// hardware basis set.
///
/// Parameterized rotation gates follow the Qiskit convention
/// `R_P(θ) = exp(-i θ/2 P)`; `U1`/`U2`/`U3` are the standard IBM generic
/// single-qubit gates. Two-qubit couplers `RZZ`/`RZX`/`RXX`/`RYY` are
/// `exp(-i θ/2 P⊗P')` (the paper's "ZZ", "ZX", "XX" layers).
///
/// # Examples
///
/// ```
/// use qns_circuit::GateKind;
/// assert_eq!(GateKind::U3.num_params(), 3);
/// assert_eq!(GateKind::CX.num_qubits(), 2);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    // --- one-qubit, fixed ---
    /// Identity (used as an explicit placeholder by some passes).
    I,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Hadamard.
    H,
    /// Square root of Hadamard (the RXYZ space's leading layer).
    SH,
    /// Phase gate S = diag(1, i).
    S,
    /// S dagger.
    Sdg,
    /// T = diag(1, e^{iπ/4}).
    T,
    /// T dagger.
    Tdg,
    /// Square root of X (IBM basis gate).
    SX,
    /// SX dagger.
    SXdg,
    // --- one-qubit, parameterized ---
    /// X rotation `exp(-iθ/2 X)`; 1 parameter.
    RX,
    /// Y rotation `exp(-iθ/2 Y)`; 1 parameter.
    RY,
    /// Z rotation `exp(-iθ/2 Z)`; 1 parameter.
    RZ,
    /// Phase gate `diag(1, e^{iλ})`; 1 parameter.
    U1,
    /// `U2(φ, λ)`; 2 parameters.
    U2,
    /// Generic single-qubit gate `U3(θ, φ, λ)`; 3 parameters.
    U3,
    // --- two-qubit, fixed ---
    /// Controlled-X (CNOT). First operand is the control.
    CX,
    /// Controlled-Y.
    CY,
    /// Controlled-Z.
    CZ,
    /// Controlled-H.
    CH,
    /// SWAP.
    Swap,
    /// Square root of SWAP.
    SqrtSwap,
    // --- two-qubit, parameterized ---
    /// Controlled RX; 1 parameter.
    CRX,
    /// Controlled RY; 1 parameter.
    CRY,
    /// Controlled RZ; 1 parameter.
    CRZ,
    /// Controlled U1 (a.k.a. CPhase); 1 parameter.
    CU1,
    /// Controlled U3; 3 parameters.
    CU3,
    /// Ising ZZ coupling `exp(-iθ/2 Z⊗Z)`; 1 parameter.
    RZZ,
    /// Cross-resonance style `exp(-iθ/2 Z⊗X)`; 1 parameter.
    RZX,
    /// Ising XX coupling `exp(-iθ/2 X⊗X)`; 1 parameter.
    RXX,
    /// Ising YY coupling `exp(-iθ/2 Y⊗Y)`; 1 parameter.
    RYY,
}

impl GateKind {
    /// Number of qubits the gate acts on (1 or 2).
    pub fn num_qubits(self) -> usize {
        use GateKind::*;
        match self {
            I | X | Y | Z | H | SH | S | Sdg | T | Tdg | SX | SXdg | RX | RY | RZ | U1 | U2
            | U3 => 1,
            _ => 2,
        }
    }

    /// Number of continuous parameters the gate takes.
    pub fn num_params(self) -> usize {
        use GateKind::*;
        match self {
            RX | RY | RZ | U1 | CRX | CRY | CRZ | CU1 | RZZ | RZX | RXX | RYY => 1,
            U2 => 2,
            U3 | CU3 => 3,
            _ => 0,
        }
    }

    /// Lowercase mnemonic, matching common OpenQASM names where they exist.
    pub fn name(self) -> &'static str {
        use GateKind::*;
        match self {
            I => "id",
            X => "x",
            Y => "y",
            Z => "z",
            H => "h",
            SH => "sh",
            S => "s",
            Sdg => "sdg",
            T => "t",
            Tdg => "tdg",
            SX => "sx",
            SXdg => "sxdg",
            RX => "rx",
            RY => "ry",
            RZ => "rz",
            U1 => "u1",
            U2 => "u2",
            U3 => "u3",
            CX => "cx",
            CY => "cy",
            CZ => "cz",
            CH => "ch",
            Swap => "swap",
            SqrtSwap => "sswap",
            CRX => "crx",
            CRY => "cry",
            CRZ => "crz",
            CU1 => "cu1",
            CU3 => "cu3",
            RZZ => "rzz",
            RZX => "rzx",
            RXX => "rxx",
            RYY => "ryy",
        }
    }

    /// Returns `true` if every parameter admits the two-term parameter-shift
    /// rule for *expectation values*.
    ///
    /// This holds for `exp(-iθ/2 P)` rotations directly, and for `U1`/`U2`/
    /// `U3` because each of their parameters enters expectation values only
    /// through an `RZ`/`RY` factor of the ZYZ decomposition (the residual
    /// global phase cancels in `<ψ|O|ψ>`). Controlled rotations need the
    /// four-term rule and return `false`.
    pub fn supports_parameter_shift(self) -> bool {
        use GateKind::*;
        matches!(self, RX | RY | RZ | RZZ | RZX | RXX | RYY | U1 | U2 | U3)
    }

    /// The gate's unitary for the given parameter values.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.num_params()`.
    pub fn matrix(self, params: &[f64]) -> GateMatrix {
        use GateKind::*;
        assert_eq!(
            params.len(),
            self.num_params(),
            "gate {} expects {} params, got {}",
            self.name(),
            self.num_params(),
            params.len()
        );
        match self {
            I => GateMatrix::One(Mat2::identity()),
            X => GateMatrix::One(Mat2::pauli_x()),
            Y => GateMatrix::One(Mat2::pauli_y()),
            Z => GateMatrix::One(Mat2::pauli_z()),
            H => GateMatrix::One(Mat2::hadamard()),
            SH => GateMatrix::One(sqrt_hadamard()),
            S => GateMatrix::One(phase(std::f64::consts::FRAC_PI_2)),
            Sdg => GateMatrix::One(phase(-std::f64::consts::FRAC_PI_2)),
            T => GateMatrix::One(phase(std::f64::consts::FRAC_PI_4)),
            Tdg => GateMatrix::One(phase(-std::f64::consts::FRAC_PI_4)),
            SX => GateMatrix::One(sqrt_x()),
            SXdg => GateMatrix::One(sqrt_x().adjoint()),
            RX => GateMatrix::One(rx(params[0])),
            RY => GateMatrix::One(ry(params[0])),
            RZ => GateMatrix::One(rz(params[0])),
            U1 => GateMatrix::One(phase(params[0])),
            U2 => GateMatrix::One(u3(std::f64::consts::FRAC_PI_2, params[0], params[1])),
            U3 => GateMatrix::One(u3(params[0], params[1], params[2])),
            CX => GateMatrix::Two(Mat4::controlled(&Mat2::pauli_x())),
            CY => GateMatrix::Two(Mat4::controlled(&Mat2::pauli_y())),
            CZ => GateMatrix::Two(Mat4::controlled(&Mat2::pauli_z())),
            CH => GateMatrix::Two(Mat4::controlled(&Mat2::hadamard())),
            Swap => GateMatrix::Two(swap()),
            SqrtSwap => GateMatrix::Two(sqrt_swap()),
            CRX => GateMatrix::Two(Mat4::controlled(&rx(params[0]))),
            CRY => GateMatrix::Two(Mat4::controlled(&ry(params[0]))),
            CRZ => GateMatrix::Two(Mat4::controlled(&rz(params[0]))),
            CU1 => GateMatrix::Two(Mat4::controlled(&phase(params[0]))),
            CU3 => GateMatrix::Two(Mat4::controlled(&u3(params[0], params[1], params[2]))),
            RZZ => GateMatrix::Two(rzz(params[0])),
            RZX => GateMatrix::Two(two_pauli_rotation(
                params[0],
                Mat2::pauli_z(),
                Mat2::pauli_x(),
            )),
            RXX => GateMatrix::Two(two_pauli_rotation(
                params[0],
                Mat2::pauli_x(),
                Mat2::pauli_x(),
            )),
            RYY => GateMatrix::Two(two_pauli_rotation(
                params[0],
                Mat2::pauli_y(),
                Mat2::pauli_y(),
            )),
        }
    }

    /// Analytic derivative of the unitary with respect to parameter `which`.
    ///
    /// The returned matrix is `∂U/∂θ_which` (not unitary). Used by the
    /// adjoint differentiation engine in `qns-sim`.
    ///
    /// # Panics
    ///
    /// Panics if the gate takes no parameters, if `which` is out of range,
    /// or if `params.len() != self.num_params()`.
    pub fn dmatrix(self, params: &[f64], which: usize) -> GateMatrix {
        use GateKind::*;
        assert!(
            which < self.num_params(),
            "gate {} has {} params; derivative {} requested",
            self.name(),
            self.num_params(),
            which
        );
        assert_eq!(params.len(), self.num_params());
        let half = C64::new(0.0, -0.5);
        match self {
            RX => GateMatrix::One(Mat2::pauli_x().mul_mat(&rx(params[0])).scale(half)),
            RY => GateMatrix::One(Mat2::pauli_y().mul_mat(&ry(params[0])).scale(half)),
            RZ => GateMatrix::One(Mat2::pauli_z().mul_mat(&rz(params[0])).scale(half)),
            U1 => {
                // d/dλ diag(1, e^{iλ}) = diag(0, i e^{iλ})
                let mut m = Mat2::zero();
                m.m[3] = C64::I * C64::cis(params[0]);
                GateMatrix::One(m)
            }
            U2 => GateMatrix::One(du3(
                std::f64::consts::FRAC_PI_2,
                params[0],
                params[1],
                which + 1,
            )),
            U3 => GateMatrix::One(du3(params[0], params[1], params[2], which)),
            CRX => {
                let d = Mat2::pauli_x().mul_mat(&rx(params[0])).scale(half);
                GateMatrix::Two(controlled_block(&d))
            }
            CRY => {
                let d = Mat2::pauli_y().mul_mat(&ry(params[0])).scale(half);
                GateMatrix::Two(controlled_block(&d))
            }
            CRZ => {
                let d = Mat2::pauli_z().mul_mat(&rz(params[0])).scale(half);
                GateMatrix::Two(controlled_block(&d))
            }
            CU1 => {
                let mut m = Mat2::zero();
                m.m[3] = C64::I * C64::cis(params[0]);
                GateMatrix::Two(controlled_block(&m))
            }
            CU3 => {
                let d = du3(params[0], params[1], params[2], which);
                GateMatrix::Two(controlled_block(&d))
            }
            RZZ | RZX | RXX | RYY => {
                let (a, b) = match self {
                    RZZ => (Mat2::pauli_z(), Mat2::pauli_z()),
                    RZX => (Mat2::pauli_z(), Mat2::pauli_x()),
                    RXX => (Mat2::pauli_x(), Mat2::pauli_x()),
                    RYY => (Mat2::pauli_y(), Mat2::pauli_y()),
                    _ => unreachable!(),
                };
                let u = two_pauli_rotation(params[0], a, b);
                let g = a.kron(&b);
                GateMatrix::Two(g.mul_mat(&u).scale(half))
            }
            #[expect(
                clippy::panic,
                reason = "documented API-misuse panic, guarded by the `which` assert above"
            )]
            _ => panic!("gate {} has no parameters", self.name()),
        }
    }

    /// All gates, in declaration order. Useful for exhaustive tests.
    pub fn all() -> &'static [GateKind] {
        use GateKind::*;
        &[
            I, X, Y, Z, H, SH, S, Sdg, T, Tdg, SX, SXdg, RX, RY, RZ, U1, U2, U3, CX, CY, CZ, CH,
            Swap, SqrtSwap, CRX, CRY, CRZ, CU1, CU3, RZZ, RZX, RXX, RYY,
        ]
    }
}

impl std::fmt::Display for GateKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn rx(theta: f64) -> Mat2 {
    let c = C64::real((theta / 2.0).cos());
    let s = C64::new(0.0, -(theta / 2.0).sin());
    Mat2::new([c, s, s, c])
}

fn ry(theta: f64) -> Mat2 {
    let c = (theta / 2.0).cos();
    let s = (theta / 2.0).sin();
    Mat2::new([C64::real(c), C64::real(-s), C64::real(s), C64::real(c)])
}

fn rz(theta: f64) -> Mat2 {
    Mat2::new([
        C64::cis(-theta / 2.0),
        C64::ZERO,
        C64::ZERO,
        C64::cis(theta / 2.0),
    ])
}

fn phase(lambda: f64) -> Mat2 {
    Mat2::new([C64::ONE, C64::ZERO, C64::ZERO, C64::cis(lambda)])
}

fn u3(theta: f64, phi: f64, lambda: f64) -> Mat2 {
    let c = (theta / 2.0).cos();
    let s = (theta / 2.0).sin();
    Mat2::new([
        C64::real(c),
        -C64::cis(lambda) * s,
        C64::cis(phi) * s,
        C64::cis(phi + lambda) * c,
    ])
}

/// Analytic partial derivative of U3 with respect to θ (0), φ (1), or λ (2).
fn du3(theta: f64, phi: f64, lambda: f64, which: usize) -> Mat2 {
    let c = (theta / 2.0).cos();
    let s = (theta / 2.0).sin();
    match which {
        0 => Mat2::new([
            C64::real(-s / 2.0),
            -C64::cis(lambda) * (c / 2.0),
            C64::cis(phi) * (c / 2.0),
            -C64::cis(phi + lambda) * (s / 2.0),
        ]),
        1 => Mat2::new([
            C64::ZERO,
            C64::ZERO,
            C64::I * C64::cis(phi) * s,
            C64::I * C64::cis(phi + lambda) * c,
        ]),
        2 => Mat2::new([
            C64::ZERO,
            -C64::I * C64::cis(lambda) * s,
            C64::ZERO,
            C64::I * C64::cis(phi + lambda) * c,
        ]),
        _ => unreachable!(),
    }
}

fn sqrt_x() -> Mat2 {
    let a = C64::new(0.5, 0.5);
    let b = C64::new(0.5, -0.5);
    Mat2::new([a, b, b, a])
}

/// √H: the principal square root of the Hadamard gate.
///
/// H = e^{iπ/2} exp(-iπ/2 n·σ) with n = (1,0,1)/√2, so
/// √H = e^{iπ/4} (cos(π/4) I − i sin(π/4) n·σ).
fn sqrt_hadamard() -> Mat2 {
    let n = std::f64::consts::FRAC_1_SQRT_2;
    let cos = std::f64::consts::FRAC_1_SQRT_2;
    let sin = std::f64::consts::FRAC_1_SQRT_2;
    let i = C64::I;
    let id = Mat2::identity();
    let ns = Mat2::pauli_x()
        .scale(C64::real(n))
        .add(&Mat2::pauli_z().scale(C64::real(n)));
    let inner = id.scale(C64::real(cos)).add(&ns.scale(-i * sin));
    inner.scale(C64::cis(std::f64::consts::FRAC_PI_4))
}

fn swap() -> Mat4 {
    let mut m = Mat4::zero();
    m.m[0] = C64::ONE;
    m.m[4 + 2] = C64::ONE;
    m.m[2 * 4 + 1] = C64::ONE;
    m.m[15] = C64::ONE;
    m
}

fn sqrt_swap() -> Mat4 {
    let mut m = Mat4::zero();
    let a = C64::new(0.5, 0.5);
    let b = C64::new(0.5, -0.5);
    m.m[0] = C64::ONE;
    m.m[4 + 1] = a;
    m.m[4 + 2] = b;
    m.m[2 * 4 + 1] = b;
    m.m[2 * 4 + 2] = a;
    m.m[15] = C64::ONE;
    m
}

fn rzz(theta: f64) -> Mat4 {
    let e_minus = C64::cis(-theta / 2.0);
    let e_plus = C64::cis(theta / 2.0);
    let mut m = Mat4::zero();
    m.m[0] = e_minus;
    m.m[4 + 1] = e_plus;
    m.m[2 * 4 + 2] = e_plus;
    m.m[15] = e_minus;
    m
}

/// `exp(-i θ/2 A⊗B)` for Pauli `A`, `B` (so `(A⊗B)² = I`).
fn two_pauli_rotation(theta: f64, a: Mat2, b: Mat2) -> Mat4 {
    let g = a.kron(&b);
    let cos = Mat4::identity().scale(C64::real((theta / 2.0).cos()));
    let sin = g.scale(C64::new(0.0, -(theta / 2.0).sin()));
    cos.add(&sin)
}

/// `|0><0| ⊗ 0 + |1><1| ⊗ m` — the controlled derivative block.
fn controlled_block(m: &Mat2) -> Mat4 {
    let mut out = Mat4::zero();
    out.m[2 * 4 + 2] = m.m[0];
    out.m[2 * 4 + 3] = m.m[1];
    out.m[3 * 4 + 2] = m.m[2];
    out.m[3 * 4 + 3] = m.m[3];
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_params(n: usize) -> Vec<f64> {
        (0..n).map(|i| 0.3 + 0.4 * i as f64).collect()
    }

    #[test]
    fn all_gates_are_unitary() {
        for &g in GateKind::all() {
            let p = sample_params(g.num_params());
            match g.matrix(&p) {
                GateMatrix::One(m) => assert!(m.is_unitary(1e-10), "{} not unitary", g),
                GateMatrix::Two(m) => assert!(m.is_unitary(1e-10), "{} not unitary", g),
            }
        }
    }

    #[test]
    fn rotation_at_zero_is_identity() {
        for g in [GateKind::RX, GateKind::RY, GateKind::RZ, GateKind::U1] {
            match g.matrix(&[0.0]) {
                GateMatrix::One(m) => assert!(m.approx_eq(&Mat2::identity(), 1e-12)),
                _ => unreachable!(),
            }
        }
        for g in [GateKind::RZZ, GateKind::RZX, GateKind::RXX, GateKind::RYY] {
            match g.matrix(&[0.0]) {
                GateMatrix::Two(m) => assert!(m.approx_eq(&Mat4::identity(), 1e-12)),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn sqrt_gates_square_correctly() {
        let sh = match GateKind::SH.matrix(&[]) {
            GateMatrix::One(m) => m,
            _ => unreachable!(),
        };
        assert!(sh.mul_mat(&sh).approx_eq(&Mat2::hadamard(), 1e-10));

        let sx = match GateKind::SX.matrix(&[]) {
            GateMatrix::One(m) => m,
            _ => unreachable!(),
        };
        assert!(sx.mul_mat(&sx).approx_eq(&Mat2::pauli_x(), 1e-10));

        let ss = match GateKind::SqrtSwap.matrix(&[]) {
            GateMatrix::Two(m) => m,
            _ => unreachable!(),
        };
        let sw = match GateKind::Swap.matrix(&[]) {
            GateMatrix::Two(m) => m,
            _ => unreachable!(),
        };
        assert!(ss.mul_mat(&ss).approx_eq(&sw, 1e-10));
    }

    #[test]
    fn u3_special_cases() {
        // U3(0,0,0) = I
        match GateKind::U3.matrix(&[0.0, 0.0, 0.0]) {
            GateMatrix::One(m) => assert!(m.approx_eq(&Mat2::identity(), 1e-12)),
            _ => unreachable!(),
        }
        // U3(π, 0, π) = X
        match GateKind::U3.matrix(&[std::f64::consts::PI, 0.0, std::f64::consts::PI]) {
            GateMatrix::One(m) => assert!(m.approx_eq(&Mat2::pauli_x(), 1e-12)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn rz_matches_u1_up_to_phase() {
        let t = 1.234;
        let rz = match GateKind::RZ.matrix(&[t]) {
            GateMatrix::One(m) => m,
            _ => unreachable!(),
        };
        let u1 = match GateKind::U1.matrix(&[t]) {
            GateMatrix::One(m) => m,
            _ => unreachable!(),
        };
        let phased = rz.scale(C64::cis(t / 2.0));
        assert!(phased.approx_eq(&u1, 1e-12));
    }

    /// Finite-difference check of every analytic gate derivative.
    #[test]
    fn dmatrix_matches_finite_difference() {
        let h = 1e-6;
        for &g in GateKind::all() {
            for which in 0..g.num_params() {
                let p = sample_params(g.num_params());
                let mut p_plus = p.clone();
                let mut p_minus = p.clone();
                p_plus[which] += h;
                p_minus[which] -= h;
                match (g.matrix(&p_plus), g.matrix(&p_minus), g.dmatrix(&p, which)) {
                    (GateMatrix::One(up), GateMatrix::One(um), GateMatrix::One(d)) => {
                        let fd = up.add(&um.scale(C64::real(-1.0))).scale(C64::real(0.5 / h));
                        assert!(
                            fd.approx_eq(&d, 1e-5),
                            "derivative mismatch for {} param {}",
                            g,
                            which
                        );
                    }
                    (GateMatrix::Two(up), GateMatrix::Two(um), GateMatrix::Two(d)) => {
                        let fd = up.add(&um.scale(C64::real(-1.0))).scale(C64::real(0.5 / h));
                        assert!(
                            fd.approx_eq(&d, 1e-5),
                            "derivative mismatch for {} param {}",
                            g,
                            which
                        );
                    }
                    _ => unreachable!(),
                }
            }
        }
    }

    #[test]
    fn rzz_is_diagonal_with_correct_phases() {
        let t = 0.8;
        match GateKind::RZZ.matrix(&[t]) {
            GateMatrix::Two(m) => {
                assert!(m.m[0].approx_eq(C64::cis(-t / 2.0), 1e-12));
                assert!(m.m[5].approx_eq(C64::cis(t / 2.0), 1e-12));
                assert!(m.m[10].approx_eq(C64::cis(t / 2.0), 1e-12));
                assert!(m.m[15].approx_eq(C64::cis(-t / 2.0), 1e-12));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn wrong_param_count_panics() {
        let _ = GateKind::RX.matrix(&[]);
    }

    #[test]
    #[should_panic(expected = "has 0 params")]
    fn derivative_of_fixed_gate_panics() {
        let _ = GateKind::X.dmatrix(&[], 0);
    }
}
