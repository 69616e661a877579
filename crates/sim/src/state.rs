//! The state vector and local gate application kernels.

use qns_tensor::{Mat2, Mat4, C64};
use rand::Rng;

/// An `n`-qubit pure state: `2^n` complex amplitudes.
///
/// Bit convention: qubit `q` is bit `q` of the basis index (little-endian),
/// so `|q2 q1 q0>` maps to index `q2·4 + q1·2 + q0`.
///
/// # Examples
///
/// ```
/// use qns_sim::StateVec;
/// let s = StateVec::zero_state(3);
/// assert_eq!(s.num_qubits(), 3);
/// assert!((s.probability(0) - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct StateVec {
    n_qubits: usize,
    amps: Vec<C64>,
}

impl StateVec {
    /// Creates `|0...0>`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is zero or larger than 30 (2^30 amplitudes is
    /// the supported ceiling).
    pub fn zero_state(n_qubits: usize) -> Self {
        assert!((1..=30).contains(&n_qubits), "1..=30 qubits supported");
        let mut amps = vec![C64::ZERO; 1 << n_qubits];
        amps[0] = C64::ONE;
        StateVec { n_qubits, amps }
    }

    /// Creates a state from raw amplitudes.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two or the norm deviates from
    /// one by more than `1e-6`.
    pub fn from_amplitudes(amps: Vec<C64>) -> Self {
        let n = amps.len();
        assert!(
            n.is_power_of_two() && n >= 2,
            "length must be a power of two"
        );
        let n_qubits = n.trailing_zeros() as usize;
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        assert!(
            (norm - 1.0).abs() < 1e-6,
            "state must be normalized, got {norm}"
        );
        StateVec { n_qubits, amps }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Borrow of the amplitude vector.
    #[inline]
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Mutable borrow of the amplitude vector. Callers must preserve the
    /// norm (checked only in debug assertions elsewhere).
    #[inline]
    pub fn amplitudes_mut(&mut self) -> &mut [C64] {
        &mut self.amps
    }

    /// Resets to `|0...0>` without reallocating.
    pub fn reset(&mut self) {
        for a in &mut self.amps {
            *a = C64::ZERO;
        }
        self.amps[0] = C64::ONE;
    }

    /// `|<self|other>|` inner product.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn inner(&self, other: &StateVec) -> C64 {
        assert_eq!(self.n_qubits, other.n_qubits, "width mismatch");
        self.amps
            .iter()
            .zip(other.amps.iter())
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// Squared norm (should be 1 for a valid state).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Renormalizes in place; returns the pre-normalization norm.
    pub fn normalize(&mut self) -> f64 {
        let norm = self.norm_sqr().sqrt();
        if norm > 0.0 {
            let inv = 1.0 / norm;
            for a in &mut self.amps {
                *a = a.scale(inv);
            }
        }
        norm
    }

    /// Probability of basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[inline]
    pub fn probability(&self, index: usize) -> f64 {
        self.amps[index].norm_sqr()
    }

    /// Applies a one-qubit unitary to qubit `q` via the fast kernels:
    /// structure-specialized paths for diagonal and anti-diagonal matrices,
    /// and a cache-blocked general path otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_1q(&mut self, m: &Mat2, q: usize) {
        assert!(q < self.n_qubits, "qubit {} out of range", q);
        let [m00, m01, m10, m11] = m.m;
        match mat2_class(m) {
            Mat2Class::Identity => {}
            Mat2Class::Diag => self.apply_1q_diag(m00, m11, q),
            Mat2Class::Antidiag => self.apply_1q_antidiag(m01, m10, q),
            Mat2Class::General => self.apply_1q_general(m, q),
        }
    }

    /// Diagonal 1q path: each amplitude is only scaled, one pass, no pairing.
    fn apply_1q_diag(&mut self, d0: C64, d1: C64, q: usize) {
        let stride = 1usize << q;
        for chunk in self.amps.chunks_exact_mut(stride << 1) {
            let (lo, hi) = chunk.split_at_mut(stride);
            for a in lo {
                *a = d0 * *a;
            }
            for a in hi {
                *a = d1 * *a;
            }
        }
    }

    /// Anti-diagonal 1q path (X-like): swap halves with a scale.
    fn apply_1q_antidiag(&mut self, a01: C64, a10: C64, q: usize) {
        let stride = 1usize << q;
        for chunk in self.amps.chunks_exact_mut(stride << 1) {
            let (lo, hi) = chunk.split_at_mut(stride);
            for (a0, a1) in lo.iter_mut().zip(hi.iter_mut()) {
                let x0 = *a0;
                *a0 = a01 * *a1;
                *a1 = a10 * x0;
            }
        }
    }

    /// General 1q path: blocked over `2*stride` chunks; the split borrow
    /// removes aliasing so the inner zip autovectorizes.
    fn apply_1q_general(&mut self, m: &Mat2, q: usize) {
        let stride = 1usize << q;
        let [m00, m01, m10, m11] = m.m;
        for chunk in self.amps.chunks_exact_mut(stride << 1) {
            let (lo, hi) = chunk.split_at_mut(stride);
            for (a0, a1) in lo.iter_mut().zip(hi.iter_mut()) {
                let x0 = *a0;
                let x1 = *a1;
                *a0 = m00 * x0 + m01 * x1;
                *a1 = m10 * x0 + m11 * x1;
            }
        }
    }

    /// Reference 1q kernel: the original naive pair loop, kept verbatim as
    /// the oracle for differential tests (`SimBackend::Reference`).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_1q_reference(&mut self, m: &Mat2, q: usize) {
        assert!(q < self.n_qubits, "qubit {} out of range", q);
        let stride = 1usize << q;
        let [m00, m01, m10, m11] = m.m;
        let len = self.amps.len();
        let mut base = 0;
        while base < len {
            for i in base..base + stride {
                let a0 = self.amps[i];
                let a1 = self.amps[i + stride];
                self.amps[i] = m00 * a0 + m01 * a1;
                self.amps[i + stride] = m10 * a0 + m11 * a1;
            }
            base += stride << 1;
        }
    }

    /// Applies a two-qubit unitary; `qa` is the *high* bit of the 4-dim
    /// basis `|qa qb>` (matching [`Mat4`]'s convention, where controlled
    /// gates put the control first). Dispatches to structure-specialized
    /// kernels: diagonal, controlled-form, or blocked general.
    ///
    /// # Panics
    ///
    /// Panics if the qubits coincide or are out of range.
    pub fn apply_2q(&mut self, m: &Mat4, qa: usize, qb: usize) {
        assert!(
            qa < self.n_qubits && qb < self.n_qubits,
            "qubit out of range"
        );
        assert_ne!(qa, qb, "two-qubit gate needs distinct qubits");
        match mat4_class(m) {
            Mat4Class::Diag => self.apply_2q_diag(m, qa, qb),
            Mat4Class::Controlled => self.apply_2q_controlled(&control_block(m), qa, qb),
            Mat4Class::General => self.apply_2q_general(m, qa, qb),
        }
    }

    /// Diagonal 2q path: scale each of the four index classes in place.
    fn apply_2q_diag(&mut self, m: &Mat4, qa: usize, qb: usize) {
        let (d00, d01, d10, d11) = (m.m[0], m.m[5], m.m[10], m.m[15]);
        if d00 == C64::ONE && d01 == C64::ONE && d10 == C64::ONE && d11 == C64::ONE {
            return; // identity
        }
        let ba = 1usize << qa;
        let bb = 1usize << qb;
        for_each_2q_base(self.amps.len(), ba, bb, |i| {
            self.amps[i] = d00 * self.amps[i];
            self.amps[i | bb] = d01 * self.amps[i | bb];
            self.amps[i | ba] = d10 * self.amps[i | ba];
            self.amps[i | ba | bb] = d11 * self.amps[i | ba | bb];
        });
    }

    /// Controlled-form 2q path: the top-left block is identity, so only the
    /// half of the state with the control bit (`qa`) set is touched.
    fn apply_2q_controlled(&mut self, sub: &Mat2, qa: usize, qb: usize) {
        let ba = 1usize << qa;
        let bb = 1usize << qb;
        let [s00, s01, s10, s11] = sub.m;
        for_each_2q_base(self.amps.len(), ba, bb, |i| {
            let x0 = self.amps[i | ba];
            let x1 = self.amps[i | ba | bb];
            self.amps[i | ba] = s00 * x0 + s01 * x1;
            self.amps[i | ba | bb] = s10 * x0 + s11 * x1;
        });
    }

    /// General 2q path: blocked triple loop visiting exactly `len/4` base
    /// indices (the reference kernel scans all `len` and skips 3/4).
    fn apply_2q_general(&mut self, m: &Mat4, qa: usize, qb: usize) {
        let ba = 1usize << qa;
        let bb = 1usize << qb;
        let w = &m.m;
        for_each_2q_base(self.amps.len(), ba, bb, |i| {
            let i01 = i | bb;
            let i10 = i | ba;
            let i11 = i | ba | bb;
            let v0 = self.amps[i];
            let v1 = self.amps[i01];
            let v2 = self.amps[i10];
            let v3 = self.amps[i11];
            self.amps[i] = w[0] * v0 + w[1] * v1 + w[2] * v2 + w[3] * v3;
            self.amps[i01] = w[4] * v0 + w[5] * v1 + w[6] * v2 + w[7] * v3;
            self.amps[i10] = w[8] * v0 + w[9] * v1 + w[10] * v2 + w[11] * v3;
            self.amps[i11] = w[12] * v0 + w[13] * v1 + w[14] * v2 + w[15] * v3;
        });
    }

    /// Reference 2q kernel: the original full-scan-and-skip loop, kept
    /// verbatim as the oracle for differential tests.
    ///
    /// # Panics
    ///
    /// Panics if the qubits coincide or are out of range.
    pub fn apply_2q_reference(&mut self, m: &Mat4, qa: usize, qb: usize) {
        assert!(
            qa < self.n_qubits && qb < self.n_qubits,
            "qubit out of range"
        );
        assert_ne!(qa, qb, "two-qubit gate needs distinct qubits");
        let ba = 1usize << qa;
        let bb = 1usize << qb;
        let mask = ba | bb;
        let len = self.amps.len();
        for i in 0..len {
            if i & mask != 0 {
                continue;
            }
            let i00 = i;
            let i01 = i | bb;
            let i10 = i | ba;
            let i11 = i | mask;
            let v = [
                self.amps[i00],
                self.amps[i01],
                self.amps[i10],
                self.amps[i11],
            ];
            let out = m.mul_vec(&v);
            self.amps[i00] = out[0];
            self.amps[i01] = out[1];
            self.amps[i10] = out[2];
            self.amps[i11] = out[3];
        }
    }

    /// Expectation value of Pauli-Z on qubit `q`, in `[-1, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn expect_z(&self, q: usize) -> f64 {
        assert!(q < self.n_qubits, "qubit {} out of range", q);
        let bit = 1usize << q;
        let mut e = 0.0;
        for (i, a) in self.amps.iter().enumerate() {
            let p = a.norm_sqr();
            if i & bit == 0 {
                e += p;
            } else {
                e -= p;
            }
        }
        e
    }

    /// Expectation values of Pauli-Z on every qubit in one pass.
    pub fn expect_z_all(&self) -> Vec<f64> {
        let mut e = vec![0.0; self.n_qubits];
        for (i, a) in self.amps.iter().enumerate() {
            let p = a.norm_sqr();
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

    /// Expectation of the diagonal observable `Σ_q w_q Z_q`.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != self.num_qubits()`.
    pub fn expect_weighted_z(&self, weights: &[f64]) -> f64 {
        assert_eq!(weights.len(), self.n_qubits, "one weight per qubit");
        let mut e = 0.0;
        for (i, a) in self.amps.iter().enumerate() {
            let p = a.norm_sqr();
            if p == 0.0 {
                continue;
            }
            let mut d = 0.0;
            for (q, w) in weights.iter().enumerate() {
                if i & (1 << q) == 0 {
                    d += w;
                } else {
                    d -= w;
                }
            }
            e += p * d;
        }
        e
    }

    /// Samples `shots` measurement outcomes in the computational basis and
    /// returns per-basis-state counts as `(index, count)` pairs sorted by
    /// index. Uses the sorted-uniforms inverse-CDF method: O(2^n + shots).
    pub fn sample_counts<R: Rng + ?Sized>(&self, shots: usize, rng: &mut R) -> Vec<(usize, u32)> {
        let mut uniforms: Vec<f64> = (0..shots).map(|_| rng.gen::<f64>()).collect();
        uniforms.sort_by(|a, b| a.partial_cmp(b).expect("uniforms are finite"));
        let mut counts: Vec<(usize, u32)> = Vec::new();
        let mut cdf = 0.0;
        let mut u = uniforms.into_iter().peekable();
        for (i, a) in self.amps.iter().enumerate() {
            cdf += a.norm_sqr();
            let mut c = 0u32;
            while let Some(&x) = u.peek() {
                if x <= cdf {
                    c += 1;
                    u.next();
                } else {
                    break;
                }
            }
            if c > 0 {
                counts.push((i, c));
            }
        }
        // Numerical slack: assign any stragglers to the last basis state.
        let assigned: u32 = counts.iter().map(|(_, c)| c).sum();
        let leftover = shots as u32 - assigned;
        if leftover > 0 {
            let last = self.amps.len() - 1;
            if let Some(entry) = counts.last_mut().filter(|(i, _)| *i == last) {
                entry.1 += leftover;
            } else {
                counts.push((last, leftover));
            }
        }
        counts
    }
}

/// Visits every base index with both `ba` and `bb` bits clear, in ascending
/// order, via a blocked triple loop — exactly `len / 4` callback invocations
/// with unit-stride inner runs of `min(ba, bb)` indices.
#[inline]
pub(crate) fn for_each_2q_base(len: usize, ba: usize, bb: usize, mut f: impl FnMut(usize)) {
    let (lo, hi) = if ba < bb { (ba, bb) } else { (bb, ba) };
    let mut base = 0;
    while base < len {
        let mut mid = base;
        while mid < base + hi {
            for i in mid..mid + lo {
                f(i);
            }
            mid += lo << 1;
        }
        base += hi << 1;
    }
}

/// True when all off-diagonal entries are exactly zero.
#[inline]
fn mat4_is_diagonal(m: &Mat4) -> bool {
    (0..4).all(|r| (0..4).all(|c| r == c || m.m[r * 4 + c] == C64::ZERO))
}

/// True when the matrix has controlled form: identity on the top-left 2×2
/// block and zeros everywhere outside the two diagonal blocks, i.e. it acts
/// only on the subspace where the high qubit is `|1>`.
#[inline]
fn mat4_is_controlled(m: &Mat4) -> bool {
    m.m[0] == C64::ONE
        && m.m[5] == C64::ONE
        && [1, 2, 3, 4, 6, 7, 8, 9, 12, 13]
            .iter()
            .all(|&k| m.m[k] == C64::ZERO)
}

/// Structure class of a 2×2 matrix: the kernel [`StateVec::apply_1q`]
/// and the batch kernels dispatch it to. Every test is exact equality.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Mat2Class {
    /// Diagonal with both entries exactly one: nothing to apply.
    Identity,
    /// Zero off-diagonal entries: each amplitude is only scaled.
    Diag,
    /// Zero diagonal entries (X-like): the halves swap with a scale.
    Antidiag,
    /// Anything else.
    General,
}

/// The [`Mat2Class`] of `m`.
#[inline]
pub(crate) fn mat2_class(m: &Mat2) -> Mat2Class {
    let [m00, m01, m10, m11] = m.m;
    if m01 == C64::ZERO && m10 == C64::ZERO {
        if m00 == C64::ONE && m11 == C64::ONE {
            Mat2Class::Identity
        } else {
            Mat2Class::Diag
        }
    } else if m00 == C64::ZERO && m11 == C64::ZERO {
        Mat2Class::Antidiag
    } else {
        Mat2Class::General
    }
}

/// Structure class of a 4×4 matrix: the kernel [`StateVec::apply_2q`]
/// and the batch kernels dispatch it to. A matrix both diagonal and
/// controlled (CZ) is `Diag`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Mat4Class {
    /// Zero off-diagonal entries (the identity included).
    Diag,
    /// Identity on the high-qubit-`|0>` block, see [`control_block`].
    Controlled,
    /// Anything else.
    General,
}

/// The [`Mat4Class`] of `m`.
#[inline]
pub(crate) fn mat4_class(m: &Mat4) -> Mat4Class {
    if mat4_is_diagonal(m) {
        Mat4Class::Diag
    } else if mat4_is_controlled(m) {
        Mat4Class::Controlled
    } else {
        Mat4Class::General
    }
}

/// The 2×2 block a [`Mat4Class::Controlled`] matrix applies where the high
/// qubit is `|1>`.
#[inline]
pub(crate) fn control_block(m: &Mat4) -> Mat2 {
    Mat2::new([m.m[10], m.m[11], m.m[14], m.m[15]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_state_probabilities() {
        let s = StateVec::zero_state(2);
        assert!((s.probability(0) - 1.0).abs() < 1e-12);
        assert!(s.probability(1).abs() < 1e-12);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn x_flips_qubit() {
        let mut s = StateVec::zero_state(2);
        s.apply_1q(&Mat2::pauli_x(), 1);
        assert!((s.probability(0b10) - 1.0).abs() < 1e-12);
        assert!((s.expect_z(1) + 1.0).abs() < 1e-12);
        assert!((s.expect_z(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hadamard_gives_uniform_superposition() {
        let mut s = StateVec::zero_state(1);
        s.apply_1q(&Mat2::hadamard(), 0);
        assert!((s.probability(0) - 0.5).abs() < 1e-12);
        assert!(s.expect_z(0).abs() < 1e-12);
    }

    #[test]
    fn bell_state_via_cnot() {
        let mut s = StateVec::zero_state(2);
        s.apply_1q(&Mat2::hadamard(), 0);
        s.apply_2q(&Mat4::controlled(&Mat2::pauli_x()), 0, 1);
        assert!((s.probability(0b00) - 0.5).abs() < 1e-12);
        assert!((s.probability(0b11) - 0.5).abs() < 1e-12);
        assert!(s.probability(0b01).abs() < 1e-12);
    }

    #[test]
    fn control_ordering_matters() {
        // Control on qubit 1 (value |0>): target untouched.
        let mut s = StateVec::zero_state(2);
        s.apply_1q(&Mat2::pauli_x(), 0); // |01> (q0=1)
        s.apply_2q(&Mat4::controlled(&Mat2::pauli_x()), 1, 0);
        assert!((s.probability(0b01) - 1.0).abs() < 1e-12);
        // Control on qubit 0 (value |1>): target flips.
        s.apply_2q(&Mat4::controlled(&Mat2::pauli_x()), 0, 1);
        assert!((s.probability(0b11) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expect_z_all_matches_individual() {
        let mut s = StateVec::zero_state(3);
        s.apply_1q(&Mat2::hadamard(), 0);
        s.apply_1q(&Mat2::pauli_x(), 2);
        let all = s.expect_z_all();
        for (q, a) in all.iter().enumerate() {
            assert!((a - s.expect_z(q)).abs() < 1e-12);
        }
    }

    #[test]
    fn weighted_z_is_linear_combination() {
        let mut s = StateVec::zero_state(3);
        s.apply_1q(&Mat2::hadamard(), 1);
        s.apply_1q(&Mat2::pauli_x(), 0);
        let w = [0.5, -1.0, 2.0];
        let direct = s.expect_weighted_z(&w);
        let sum: f64 = (0..3).map(|q| w[q] * s.expect_z(q)).sum();
        assert!((direct - sum).abs() < 1e-12);
    }

    #[test]
    fn inner_product_of_orthogonal_states() {
        let a = StateVec::zero_state(2);
        let mut b = StateVec::zero_state(2);
        b.apply_1q(&Mat2::pauli_x(), 0);
        assert!(a.inner(&b).abs() < 1e-12);
        assert!((a.inner(&a).re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_probabilities() {
        let mut s = StateVec::zero_state(2);
        s.apply_1q(&Mat2::hadamard(), 0);
        let mut rng = StdRng::seed_from_u64(42);
        let counts = s.sample_counts(100_000, &mut rng);
        let total: u32 = counts.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 100_000);
        for &(idx, c) in &counts {
            let freq = c as f64 / 100_000.0;
            assert!((freq - s.probability(idx)).abs() < 0.01, "idx {idx}");
        }
    }

    #[test]
    fn normalize_restores_unit_norm() {
        let mut s = StateVec::zero_state(1);
        s.amplitudes_mut()[0] = C64::new(2.0, 0.0);
        let pre = s.normalize();
        assert!((pre - 2.0).abs() < 1e-12);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "normalized")]
    fn from_amplitudes_rejects_unnormalized() {
        let _ = StateVec::from_amplitudes(vec![C64::ONE, C64::ONE]);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn apply_2q_same_qubit_panics() {
        let mut s = StateVec::zero_state(2);
        s.apply_2q(&Mat4::identity(), 1, 1);
    }

    /// A fixed non-trivial state to exercise kernels on.
    fn scrambled_state(n: usize, seed: u64) -> StateVec {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut amps: Vec<C64> = (0..1usize << n)
            .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        for a in &mut amps {
            *a = a.scale(1.0 / norm);
        }
        StateVec::from_amplitudes(amps)
    }

    fn assert_states_close(a: &StateVec, b: &StateVec, tol: f64, label: &str) {
        for (i, (x, y)) in a.amplitudes().iter().zip(b.amplitudes()).enumerate() {
            assert!(
                (*x - *y).norm_sqr().sqrt() < tol,
                "{label}: amp {i} differs: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn fast_1q_kernels_match_reference_for_all_structures() {
        // Diagonal (S), anti-diagonal (X), general (H) matrices, every qubit.
        let mats = [
            Mat2::pauli_x(),
            Mat2::pauli_z(),
            Mat2::hadamard(),
            Mat2::new([C64::ONE, C64::ZERO, C64::ZERO, C64::new(0.0, 1.0)]),
        ];
        for (mi, m) in mats.iter().enumerate() {
            for q in 0..4 {
                let mut fast = scrambled_state(4, 7 + mi as u64);
                let mut refr = fast.clone();
                fast.apply_1q(m, q);
                refr.apply_1q_reference(m, q);
                assert_states_close(&fast, &refr, 1e-14, "1q kernel");
            }
        }
    }

    #[test]
    fn fast_2q_kernels_match_reference_for_all_structures() {
        // Controlled (CX), diagonal (CZ-like), general (CX sandwiched in H⊗H).
        let h2 = Mat2::hadamard().kron(&Mat2::hadamard());
        let cx = Mat4::controlled(&Mat2::pauli_x());
        let cz = Mat4::controlled(&Mat2::pauli_z());
        let general = h2.mul_mat(&cx).mul_mat(&h2);
        for (mi, m) in [cx, cz, general].iter().enumerate() {
            for qa in 0..4 {
                for qb in 0..4 {
                    if qa == qb {
                        continue;
                    }
                    let mut fast = scrambled_state(4, 31 + mi as u64);
                    let mut refr = fast.clone();
                    fast.apply_2q(m, qa, qb);
                    refr.apply_2q_reference(m, qa, qb);
                    assert_states_close(&fast, &refr, 1e-14, "2q kernel");
                }
            }
        }
    }
}
