//! Exact density-matrix simulation of noisy circuits.
//!
//! The trajectory executor converges to the density-matrix result only in
//! the many-trajectory limit; this module computes that limit exactly —
//! the same thing Qiskit's noisy simulator does for the paper. Memory is
//! `4^n` amplitudes, so it is practical to ~10 qubits; the workspace uses
//! it to validate the trajectory sampler and for small high-precision
//! estimates.

use crate::model::{readout_affine, walk_noisy, Step};
use crate::{Device, KrausChannel};
use qns_circuit::{Circuit, GateMatrix};
use qns_sim::StateVec;
use qns_tensor::{Mat2, Mat4, C64};

/// A density matrix over `n` qubits: `2^n × 2^n` complex entries,
/// row-major, little-endian qubit order (matching [`StateVec`]).
///
/// # Examples
///
/// ```
/// use qns_noise::DensityMatrix;
/// let rho = DensityMatrix::zero_state(2);
/// assert!((rho.trace().re - 1.0).abs() < 1e-12);
/// assert!((rho.purity() - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DensityMatrix {
    n_qubits: usize,
    dim: usize,
    rho: Vec<C64>,
}

impl DensityMatrix {
    /// `|0...0><0...0|`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is 0 or above 12 (memory is `4^n`).
    pub fn zero_state(n_qubits: usize) -> Self {
        assert!((1..=12).contains(&n_qubits), "1..=12 qubits supported");
        let dim = 1usize << n_qubits;
        let mut rho = vec![C64::ZERO; dim * dim];
        rho[0] = C64::ONE;
        DensityMatrix { n_qubits, dim, rho }
    }

    /// The pure state `|ψ><ψ|`.
    pub fn from_state(state: &StateVec) -> Self {
        let n_qubits = state.num_qubits();
        assert!(n_qubits <= 12, "1..=12 qubits supported");
        let dim = 1usize << n_qubits;
        let amps = state.amplitudes();
        let mut rho = vec![C64::ZERO; dim * dim];
        for i in 0..dim {
            for j in 0..dim {
                rho[i * dim + j] = amps[i] * amps[j].conj();
            }
        }
        DensityMatrix { n_qubits, dim, rho }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Trace (1 for a valid state).
    pub fn trace(&self) -> C64 {
        (0..self.dim).map(|i| self.rho[i * self.dim + i]).sum()
    }

    /// Purity `Tr(ρ²)`: 1 for pure states, `1/2^n` for maximally mixed.
    pub fn purity(&self) -> f64 {
        // Tr(ρ²) = Σ_ij ρ_ij ρ_ji = Σ_ij |ρ_ij|² for Hermitian ρ.
        self.rho.iter().map(|e| e.norm_sqr()).sum()
    }

    /// Left-multiplies qubit `q` by `m` (each column treated as a ket).
    fn left_1q(&mut self, m: &Mat2, q: usize) {
        let stride = 1usize << q;
        let dim = self.dim;
        let [m00, m01, m10, m11] = m.m;
        for col in 0..dim {
            let mut base = 0;
            while base < dim {
                for i in base..base + stride {
                    let a0 = self.rho[i * dim + col];
                    let a1 = self.rho[(i + stride) * dim + col];
                    self.rho[i * dim + col] = m00 * a0 + m01 * a1;
                    self.rho[(i + stride) * dim + col] = m10 * a0 + m11 * a1;
                }
                base += stride << 1;
            }
        }
    }

    /// Right-multiplies qubit `q` by `m†` (each row treated via `m*`).
    fn right_1q_dagger(&mut self, m: &Mat2, q: usize) {
        let stride = 1usize << q;
        let dim = self.dim;
        let conj = [m.m[0].conj(), m.m[1].conj(), m.m[2].conj(), m.m[3].conj()];
        for row in 0..dim {
            let mut base = 0;
            while base < dim {
                for j in base..base + stride {
                    let a0 = self.rho[row * dim + j];
                    let a1 = self.rho[row * dim + j + stride];
                    self.rho[row * dim + j] = conj[0] * a0 + conj[1] * a1;
                    self.rho[row * dim + j + stride] = conj[2] * a0 + conj[3] * a1;
                }
                base += stride << 1;
            }
        }
    }

    fn left_2q(&mut self, m: &Mat4, qa: usize, qb: usize) {
        let ba = 1usize << qa;
        let bb = 1usize << qb;
        let mask = ba | bb;
        let dim = self.dim;
        for col in 0..dim {
            for i in 0..dim {
                if i & mask != 0 {
                    continue;
                }
                let idx = [i, i | bb, i | ba, i | mask];
                let v = [
                    self.rho[idx[0] * dim + col],
                    self.rho[idx[1] * dim + col],
                    self.rho[idx[2] * dim + col],
                    self.rho[idx[3] * dim + col],
                ];
                let out = m.mul_vec(&v);
                for k in 0..4 {
                    self.rho[idx[k] * dim + col] = out[k];
                }
            }
        }
    }

    fn right_2q_dagger(&mut self, m: &Mat4, qa: usize, qb: usize) {
        let ba = 1usize << qa;
        let bb = 1usize << qb;
        let mask = ba | bb;
        let dim = self.dim;
        // Conjugate (not transposed): applying m* to rows implements ρ m†.
        let mut conj = *m;
        for e in &mut conj.m {
            *e = e.conj();
        }
        for row in 0..dim {
            for j in 0..dim {
                if j & mask != 0 {
                    continue;
                }
                let idx = [j, j | bb, j | ba, j | mask];
                let v = [
                    self.rho[row * dim + idx[0]],
                    self.rho[row * dim + idx[1]],
                    self.rho[row * dim + idx[2]],
                    self.rho[row * dim + idx[3]],
                ];
                let out = conj.mul_vec(&v);
                for k in 0..4 {
                    self.rho[row * dim + idx[k]] = out[k];
                }
            }
        }
    }

    /// Applies a one-qubit unitary: `ρ → U ρ U†`.
    pub fn apply_1q(&mut self, m: &Mat2, q: usize) {
        assert!(q < self.n_qubits, "qubit out of range");
        self.left_1q(m, q);
        self.right_1q_dagger(m, q);
    }

    /// Applies a two-qubit unitary (first qubit = high bit).
    pub fn apply_2q(&mut self, m: &Mat4, qa: usize, qb: usize) {
        assert!(
            qa < self.n_qubits && qb < self.n_qubits,
            "qubit out of range"
        );
        assert_ne!(qa, qb, "distinct qubits required");
        self.left_2q(m, qa, qb);
        self.right_2q_dagger(m, qa, qb);
    }

    /// Applies a one-qubit channel exactly: `ρ → Σ_k K_k ρ K_k†`.
    pub fn apply_channel(&mut self, channel: &KrausChannel, q: usize) {
        assert!(q < self.n_qubits, "qubit out of range");
        let dim = self.dim;
        let mut acc = vec![C64::ZERO; dim * dim];
        for k in channel.operators() {
            let mut term = self.clone();
            term.left_1q(k, q);
            term.right_1q_dagger(k, q);
            for (a, t) in acc.iter_mut().zip(term.rho.iter()) {
                *a += *t;
            }
        }
        self.rho = acc;
    }

    /// `<Z_q>` for every qubit (diagonal sums).
    pub fn expect_z_all(&self) -> Vec<f64> {
        let mut e = vec![0.0; self.n_qubits];
        for i in 0..self.dim {
            let p = self.rho[i * self.dim + i].re;
            for (q, eq) in e.iter_mut().enumerate() {
                if i & (1 << q) == 0 {
                    *eq += p;
                } else {
                    *eq -= p;
                }
            }
        }
        e
    }

    /// Diagonal probabilities (the measurement distribution).
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.dim)
            .map(|i| self.rho[i * self.dim + i].re.max(0.0))
            .collect()
    }
}

/// Exact noisy execution of a circuit on a device model: the
/// density-matrix counterpart of [`crate::TrajectoryExecutor`], using
/// identical channel placement (per-gate depolarizing + thermal
/// relaxation, operand-wise on two-qubit gates) and the same readout
/// adjustment.
///
/// # Panics
///
/// Panics if widths/mappings are inconsistent or the circuit exceeds 12
/// qubits.
///
/// # Examples
///
/// ```
/// use qns_circuit::{Circuit, GateKind};
/// use qns_noise::{density_expect_z, Device};
///
/// let mut c = Circuit::new(2);
/// c.push(GateKind::H, &[0], &[]);
/// c.push(GateKind::CX, &[0, 1], &[]);
/// let e = density_expect_z(&c, &[], &[], &Device::yorktown(), &[0, 1], true);
/// assert!(e.iter().all(|x| x.abs() < 0.2)); // Bell state: <Z> ~ 0
/// ```
pub fn density_expect_z(
    circuit: &Circuit,
    train: &[f64],
    input: &[f64],
    device: &Device,
    phys_of: &[usize],
    readout: bool,
) -> Vec<f64> {
    let mut e = noisy_density(circuit, train, input, device, phys_of).expect_z_all();
    if readout {
        for (q, eq) in e.iter_mut().enumerate() {
            let (scale, offset) = readout_affine(device.qubit(phys_of[q]));
            *eq = scale * *eq + offset;
        }
    }
    e
}

/// Exact noisy expectations of `⊗_{q∈mask} Z_q` parities — the
/// density-matrix counterpart of
/// [`crate::TrajectoryExecutor::expect_z_masks`], with the same
/// multiplicative readout correction.
///
/// # Panics
///
/// Panics on inconsistent widths or masks beyond the circuit.
pub fn density_expect_masks(
    circuit: &Circuit,
    train: &[f64],
    input: &[f64],
    device: &Device,
    phys_of: &[usize],
    masks: &[u64],
    readout: bool,
) -> Vec<f64> {
    let n = circuit.num_qubits();
    for &m in masks {
        assert!(m >> n == 0, "mask addresses qubits beyond circuit width");
    }
    // Evolve once, then read all masks off the diagonal.
    let probs = noisy_density(circuit, train, input, device, phys_of).probabilities();
    masks
        .iter()
        .map(|&mask| {
            let mut e: f64 = probs
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    if ((i as u64) & mask).count_ones().is_multiple_of(2) {
                        *p
                    } else {
                        -p
                    }
                })
                .sum();
            if readout {
                for (q, &phys) in phys_of.iter().enumerate() {
                    if mask & (1 << q) != 0 {
                        e *= readout_affine(device.qubit(phys)).0;
                    }
                }
            }
            e
        })
        .collect()
}

/// The exact noisy state of `circuit` on `device`: one loop over
/// [`walk_noisy`], so channel placement matches the trajectory engines.
fn noisy_density(
    circuit: &Circuit,
    train: &[f64],
    input: &[f64],
    device: &Device,
    phys_of: &[usize],
) -> DensityMatrix {
    let mut rho = DensityMatrix::zero_state(circuit.num_qubits());
    let apply = |step: Step<'_>| match step {
        Step::Gate(GateMatrix::One(m), [q, _]) => rho.apply_1q(m, q),
        Step::Gate(GateMatrix::Two(m), [a, b]) => rho.apply_2q(m, a, b),
        Step::LaneGates(..) => unreachable!("one input shares every gate"),
        Step::Channel(ch, q) => rho.apply_channel(ch, q),
    };
    walk_noisy(
        device,
        circuit,
        0..circuit.num_ops(),
        train,
        &[input],
        phys_of,
        apply,
    );
    rho
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TrajectoryConfig, TrajectoryExecutor};
    use qns_circuit::{GateKind, Param};
    use qns_sim::{run, ExecMode};

    #[test]
    fn pure_evolution_matches_statevector() {
        let mut c = Circuit::new(3);
        c.push(GateKind::H, &[0], &[]);
        c.push(GateKind::CX, &[0, 1], &[]);
        c.push(GateKind::RY, &[2], &[Param::Fixed(0.7)]);
        c.push(
            GateKind::CU3,
            &[1, 2],
            &[Param::Fixed(0.3), Param::Fixed(0.4), Param::Fixed(0.5)],
        );
        let psi = run(&c, &[], &[], ExecMode::Dynamic);

        let mut rho = DensityMatrix::zero_state(3);
        for op in c.iter() {
            let params = op.resolve_params(&[], &[]);
            match op.kind.matrix(&params) {
                GateMatrix::One(m) => rho.apply_1q(&m, op.qubits[0]),
                GateMatrix::Two(m) => rho.apply_2q(&m, op.qubits[0], op.qubits[1]),
            }
        }
        assert!((rho.purity() - 1.0).abs() < 1e-10);
        // Fidelity with the pure state: <ψ|ρ|ψ>.
        let amps = psi.amplitudes();
        let mut fidelity = C64::ZERO;
        for i in 0..rho.dim {
            for j in 0..rho.dim {
                fidelity += amps[i].conj() * rho.rho[i * rho.dim + j] * amps[j];
            }
        }
        assert!((fidelity.re - 1.0).abs() < 1e-10);
        for (a, b) in rho.expect_z_all().iter().zip(psi.expect_z_all()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn depolarizing_channel_mixes_exactly() {
        // Full depolarizing (p = 1) sends any 1-qubit state to I/2.
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_channel(&KrausChannel::depolarizing(1.0), 0);
        assert!((rho.purity() - 0.5).abs() < 1e-10);
        assert!(rho.expect_z_all()[0].abs() < 1e-10);
        assert!((rho.trace().re - 1.0).abs() < 1e-10);
    }

    #[test]
    fn partial_depolarizing_scales_bloch_vector() {
        // <Z> of |0> under depolarizing(p) is exactly 1 - p.
        for p in [0.1, 0.35, 0.8] {
            let mut rho = DensityMatrix::zero_state(1);
            rho.apply_channel(&KrausChannel::depolarizing(p), 0);
            assert!((rho.expect_z_all()[0] - (1.0 - p)).abs() < 1e-12, "p={p}");
        }
    }

    #[test]
    fn channels_preserve_trace_and_hermiticity() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_1q(&qns_tensor::Mat2::hadamard(), 0);
        rho.apply_2q(
            &qns_tensor::Mat4::controlled(&qns_tensor::Mat2::pauli_x()),
            0,
            1,
        );
        rho.apply_channel(
            &KrausChannel::thermal_relaxation(50_000.0, 60_000.0, 400.0),
            0,
        );
        rho.apply_channel(&KrausChannel::bit_flip(0.2), 1);
        assert!((rho.trace().re - 1.0).abs() < 1e-10);
        assert!(rho.trace().im.abs() < 1e-12);
        // Hermiticity: rho[i][j] == conj(rho[j][i]).
        let dim = 1 << 2;
        for i in 0..dim {
            for j in 0..dim {
                let a = rho.rho[i * dim + j];
                let b = rho.rho[j * dim + i].conj();
                assert!(a.approx_eq(b, 1e-10));
            }
        }
        // Noise strictly reduces purity below 1.
        assert!(rho.purity() < 1.0);
    }

    /// The decisive cross-validation: trajectory averages converge to the
    /// exact density-matrix expectations under the same noise placement.
    #[test]
    fn trajectory_executor_converges_to_density_result() {
        let mut c = Circuit::new(2);
        c.push(GateKind::H, &[0], &[]);
        c.push(GateKind::CX, &[0, 1], &[]);
        c.push(GateKind::RY, &[0], &[Param::Fixed(0.9)]);
        c.push(GateKind::CX, &[0, 1], &[]);
        c.push(GateKind::RX, &[1], &[Param::Fixed(0.4)]);
        // Loud device so the noise effect dominates statistical error.
        let device = Device::yorktown().scaled_errors(5.0);
        let exact = density_expect_z(&c, &[], &[], &device, &[0, 1], false);
        let exec = TrajectoryExecutor::new(
            device,
            TrajectoryConfig {
                trajectories: 4000,
                seed: 11,
                readout: false,
            },
        );
        let sampled = exec.expect_z(&c, &[], &[], &[0, 1]);
        for (q, (a, b)) in exact.iter().zip(sampled.expect_z.iter()).enumerate() {
            assert!(
                (a - b).abs() < 0.03,
                "qubit {q}: density {a} vs trajectory {b}"
            );
        }
    }

    #[test]
    fn readout_adjustment_matches_trajectory_convention() {
        let mut c = Circuit::new(1);
        c.push(GateKind::I, &[0], &[]);
        let device = Device::yorktown();
        let with = density_expect_z(&c, &[], &[], &device, &[0], true);
        let without = density_expect_z(&c, &[], &[], &device, &[0], false);
        let cal = device.qubit(0);
        let expected = (1.0 - cal.readout_p01 - cal.readout_p10) * without[0]
            + (cal.readout_p10 - cal.readout_p01);
        assert!((with[0] - expected).abs() < 1e-12);
    }
}
