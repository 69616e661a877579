//! Symplectic Pauli-string algebra and Pauli-sum operators.

use qns_sim::StateVec;
use qns_tensor::C64;
use std::collections::BTreeMap;
use std::fmt;

/// A tensor product of single-qubit Paulis in symplectic form.
///
/// Qubit `q` carries `X^{x_q} Z^{z_q}` up to phase: `(0,0) = I`,
/// `(1,0) = X`, `(0,1) = Z`, `(1,1) = Y` (with `Y = iXZ` accounted for in
/// the algebra). Supports up to 64 qubits.
///
/// # Examples
///
/// ```
/// use qns_chem::PauliString;
/// let zz = PauliString::from_label("ZZ").unwrap();
/// let xx = PauliString::from_label("XX").unwrap();
/// assert!(zz.commutes_with(&xx));
/// let zi = PauliString::from_label("ZI").unwrap();
/// let xi = PauliString::from_label("XI").unwrap();
/// assert!(!zi.commutes_with(&xi));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PauliString {
    /// X-component bit mask (bit `q` = qubit `q`).
    pub x: u64,
    /// Z-component bit mask.
    pub z: u64,
}

impl PauliString {
    /// The identity string.
    pub const IDENTITY: PauliString = PauliString { x: 0, z: 0 };

    /// Single-qubit X on `q`.
    pub fn x_on(q: usize) -> Self {
        PauliString { x: 1 << q, z: 0 }
    }

    /// Single-qubit Y on `q`.
    pub fn y_on(q: usize) -> Self {
        PauliString {
            x: 1 << q,
            z: 1 << q,
        }
    }

    /// Single-qubit Z on `q`.
    pub fn z_on(q: usize) -> Self {
        PauliString { x: 0, z: 1 << q }
    }

    /// Parses a label like `"XIZY"`; index 0 of the string is qubit 0.
    ///
    /// Returns `None` on characters outside `IXYZ` or length above 64.
    pub fn from_label(label: &str) -> Option<Self> {
        if label.len() > 64 {
            return None;
        }
        let mut x = 0u64;
        let mut z = 0u64;
        for (q, ch) in label.chars().enumerate() {
            match ch {
                'I' => {}
                'X' => x |= 1 << q,
                'Y' => {
                    x |= 1 << q;
                    z |= 1 << q;
                }
                'Z' => z |= 1 << q,
                _ => return None,
            }
        }
        Some(PauliString { x, z })
    }

    /// Renders the label over `n` qubits.
    pub fn label(&self, n: usize) -> String {
        (0..n)
            .map(|q| match ((self.x >> q) & 1, (self.z >> q) & 1) {
                (0, 0) => 'I',
                (1, 0) => 'X',
                (1, 1) => 'Y',
                (0, 1) => 'Z',
                _ => unreachable!(),
            })
            .collect()
    }

    /// Pauli weight: number of non-identity qubits.
    pub fn weight(&self) -> u32 {
        (self.x | self.z).count_ones()
    }

    /// `true` if the string is identity.
    pub fn is_identity(&self) -> bool {
        self.x == 0 && self.z == 0
    }

    /// Do two strings commute (as operators)?
    pub fn commutes_with(&self, other: &PauliString) -> bool {
        let anti = (self.x & other.z).count_ones() + (self.z & other.x).count_ones();
        anti.is_multiple_of(2)
    }

    /// Qubit-wise commutation: on every qubit, equal Paulis or one is `I`.
    pub fn qubit_wise_commutes(&self, other: &PauliString) -> bool {
        let overlap = (self.x | self.z) & (other.x | other.z);
        (self.x & overlap) == (other.x & overlap) && (self.z & overlap) == (other.z & overlap)
    }

    /// Operator product `self * other`, returning `(phase, string)` with
    /// `phase ∈ {1, i, −1, −i}`.
    ///
    /// Convention: each qubit's operator is `i^{x·z} X^x Z^z` so that
    /// `(1,1)` is exactly `Y`.
    pub fn mul(&self, other: &PauliString) -> (C64, PauliString) {
        // Phase bookkeeping in units of i. Using P = i^{xz} X^x Z^z per
        // qubit: P1 P2 = i^{x1 z1 + x2 z2} X^{x1} Z^{z1} X^{x2} Z^{z2}
        //             = i^{x1 z1 + x2 z2} (−1)^{z1 x2} X^{x1+x2} Z^{z1+z2}
        // and the result is i^{x3 z3} X^{x3} Z^{z3} with x3 = x1^x2 etc.
        let x3 = self.x ^ other.x;
        let z3 = self.z ^ other.z;
        let mut ipow: i64 = 0;
        ipow += (self.x & self.z).count_ones() as i64;
        ipow += (other.x & other.z).count_ones() as i64;
        ipow += 2 * (self.z & other.x).count_ones() as i64;
        ipow -= (x3 & z3).count_ones() as i64;
        let phase = match ipow.rem_euclid(4) {
            0 => C64::ONE,
            1 => C64::I,
            2 => -C64::ONE,
            3 => -C64::I,
            _ => unreachable!(),
        };
        (phase, PauliString { x: x3, z: z3 })
    }

    /// Applies the string to a state: returns `P|ψ>`.
    ///
    /// # Panics
    ///
    /// Panics if the string addresses qubits beyond the state width.
    pub fn apply(&self, state: &StateVec) -> StateVec {
        let n = state.num_qubits();
        assert!(
            (self.x | self.z) >> n == 0,
            "string addresses qubits beyond state"
        );
        let y_count = (self.x & self.z).count_ones();
        let global = match y_count % 4 {
            0 => C64::ONE,
            1 => C64::I,
            2 => -C64::ONE,
            _ => -C64::I,
        };
        let mut out = state.clone();
        let amps_in: Vec<C64> = state.amplitudes().to_vec();
        let out_amps = out.amplitudes_mut();
        for (b, amp) in amps_in.iter().enumerate() {
            let sign = if ((b as u64) & self.z).count_ones().is_multiple_of(2) {
                C64::ONE
            } else {
                -C64::ONE
            };
            out_amps[b ^ self.x as usize] = global * sign * *amp;
        }
        out
    }

    /// Expectation `<ψ|P|ψ>` (real for Hermitian Pauli strings).
    pub fn expectation(&self, state: &StateVec) -> f64 {
        state.inner(&self.apply(state)).re
    }
}

impl fmt::Debug for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = 64 - (self.x | self.z | 1).leading_zeros() as usize;
        write!(f, "PauliString({})", self.label(n.max(1)))
    }
}

/// A real-coefficient sum of Pauli strings: the qubit Hamiltonian type.
///
/// # Examples
///
/// ```
/// use qns_chem::{PauliString, PauliSum};
/// let mut h = PauliSum::new(2);
/// h.add(0.5, PauliString::from_label("ZI").unwrap());
/// h.add(0.5, PauliString::from_label("ZI").unwrap());
/// h.simplify();
/// assert_eq!(h.terms().len(), 1);
/// assert!((h.terms()[0].0 - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PauliSum {
    n_qubits: usize,
    terms: Vec<(f64, PauliString)>,
}

impl PauliSum {
    /// An empty sum over `n_qubits`.
    pub fn new(n_qubits: usize) -> Self {
        assert!((1..=64).contains(&n_qubits), "1..=64 qubits");
        PauliSum {
            n_qubits,
            terms: Vec::new(),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Adds one term.
    ///
    /// # Panics
    ///
    /// Panics if the string addresses qubits beyond the sum's width.
    pub fn add(&mut self, coeff: f64, string: PauliString) {
        assert!(
            (string.x | string.z) >> self.n_qubits == 0,
            "string wider than operator"
        );
        self.terms.push((coeff, string));
    }

    /// Borrow of the term list.
    pub fn terms(&self) -> &[(f64, PauliString)] {
        &self.terms
    }

    /// Combines duplicate strings and drops negligible coefficients.
    pub fn simplify(&mut self) {
        // Keyed by (weight, x, z), so the terms come out in that order.
        let mut map: BTreeMap<(u32, u64, u64), f64> = BTreeMap::new();
        for (c, s) in self.terms.drain(..) {
            *map.entry((s.weight(), s.x, s.z)).or_insert(0.0) += c;
        }
        self.terms = map
            .into_iter()
            .filter(|(_, c)| c.abs() > 1e-12)
            .map(|((_, x, z), c)| (c, PauliString { x, z }))
            .collect();
    }

    /// Applies the operator: `H|ψ>`.
    pub fn apply(&self, state: &StateVec) -> StateVec {
        let mut out = state.clone();
        for a in out.amplitudes_mut() {
            *a = C64::ZERO;
        }
        for (c, s) in &self.terms {
            let term = s.apply(state);
            for (o, t) in out.amplitudes_mut().iter_mut().zip(term.amplitudes()) {
                *o += t.scale(*c);
            }
        }
        out
    }

    /// Exact expectation `<ψ|H|ψ>`.
    pub fn expectation(&self, state: &StateVec) -> f64 {
        self.terms
            .iter()
            .map(|(c, s)| c * s.expectation(state))
            .sum()
    }

    /// The identity-term coefficient (energy offset).
    pub fn identity_coeff(&self) -> f64 {
        self.terms
            .iter()
            .filter(|(_, s)| s.is_identity())
            .map(|(c, _)| c)
            .sum()
    }
}

impl qns_sim::Observable for PauliSum {
    fn apply(&self, state: &StateVec) -> StateVec {
        PauliSum::apply(self, state)
    }

    fn expect(&self, state: &StateVec) -> f64 {
        self.expectation(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qns_tensor::Mat2;

    #[test]
    fn label_roundtrip() {
        for label in ["IXYZ", "ZZZZ", "IIII", "YXIZ"] {
            let p = PauliString::from_label(label).expect("valid label");
            assert_eq!(p.label(4), label);
        }
        assert!(PauliString::from_label("ABC").is_none());
    }

    #[test]
    fn single_qubit_products_match_pauli_algebra() {
        let x = PauliString::x_on(0);
        let y = PauliString::y_on(0);
        let z = PauliString::z_on(0);
        // XY = iZ
        let (phase, s) = x.mul(&y);
        assert_eq!(s, z);
        assert!(phase.approx_eq(C64::I, 1e-12), "XY phase {phase}");
        // YX = -iZ
        let (phase, s) = y.mul(&x);
        assert_eq!(s, z);
        assert!(phase.approx_eq(-C64::I, 1e-12));
        // ZX = iY
        let (phase, s) = z.mul(&x);
        assert_eq!(s, y);
        assert!(phase.approx_eq(C64::I, 1e-12));
        // XX = I
        let (phase, s) = x.mul(&x);
        assert!(s.is_identity());
        assert!(phase.approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn commutation_rules() {
        let xi = PauliString::from_label("XI").unwrap();
        let zi = PauliString::from_label("ZI").unwrap();
        let xx = PauliString::from_label("XX").unwrap();
        let zz = PauliString::from_label("ZZ").unwrap();
        assert!(!xi.commutes_with(&zi));
        assert!(xx.commutes_with(&zz)); // commute globally...
        assert!(!xx.qubit_wise_commutes(&zz)); // ...but not qubit-wise
        assert!(xx.qubit_wise_commutes(&xi));
    }

    #[test]
    fn apply_matches_matrix_on_one_qubit() {
        let mut state = StateVec::zero_state(1);
        state.apply_1q(&Mat2::hadamard(), 0);
        for (p, m) in [
            (PauliString::x_on(0), Mat2::pauli_x()),
            (PauliString::y_on(0), Mat2::pauli_y()),
            (PauliString::z_on(0), Mat2::pauli_z()),
        ] {
            let via_string = p.apply(&state);
            let mut via_matrix = state.clone();
            via_matrix.apply_1q(&m, 0);
            let f = via_string.inner(&via_matrix);
            assert!(f.approx_eq(C64::ONE, 1e-12), "mismatch: {f}");
        }
    }

    #[test]
    fn expectation_of_zz_on_bell_state() {
        let mut s = StateVec::zero_state(2);
        s.apply_1q(&Mat2::hadamard(), 0);
        s.apply_2q(&qns_tensor::Mat4::controlled(&Mat2::pauli_x()), 0, 1);
        let zz = PauliString::from_label("ZZ").unwrap();
        let xx = PauliString::from_label("XX").unwrap();
        let yy = PauliString::from_label("YY").unwrap();
        assert!((zz.expectation(&s) - 1.0).abs() < 1e-12);
        assert!((xx.expectation(&s) - 1.0).abs() < 1e-12);
        assert!((yy.expectation(&s) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pauli_sum_simplify_merges_and_drops() {
        let mut h = PauliSum::new(2);
        h.add(1.0, PauliString::from_label("XI").unwrap());
        h.add(-1.0, PauliString::from_label("XI").unwrap());
        h.add(0.5, PauliString::from_label("ZZ").unwrap());
        h.simplify();
        assert_eq!(h.terms().len(), 1);
        assert_eq!(h.terms()[0].1, PauliString::from_label("ZZ").unwrap());
    }

    #[test]
    fn simplify_is_deterministic_across_insertion_orders() {
        // Feeding the same terms in two different orders must produce
        // bitwise-identical sorted term lists.
        let labels = ["XI", "ZZ", "IY", "XX", "ZI", "IZ", "YY", "XI", "ZZ"];
        let coeffs = [0.25, -0.5, 0.125, 1.0, -0.75, 0.3, 0.0625, 0.25, 0.5];
        let mut fwd = PauliSum::new(2);
        for (l, c) in labels.iter().zip(coeffs) {
            fwd.add(c, PauliString::from_label(l).unwrap());
        }
        let mut rev = PauliSum::new(2);
        for (l, c) in labels.iter().zip(coeffs).rev() {
            rev.add(c, PauliString::from_label(l).unwrap());
        }
        fwd.simplify();
        rev.simplify();
        assert_eq!(fwd.terms().len(), rev.terms().len());
        for ((ca, sa), (cb, sb)) in fwd.terms().iter().zip(rev.terms()) {
            assert_eq!(sa, sb);
            assert_eq!(ca.to_bits(), cb.to_bits());
        }
        // And the order itself follows the documented sort key.
        let keys: Vec<_> = fwd
            .terms()
            .iter()
            .map(|(_, s)| (s.weight(), s.x, s.z))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn sum_expectation_is_linear() {
        let mut s = StateVec::zero_state(2);
        s.apply_1q(&Mat2::hadamard(), 1);
        let mut h = PauliSum::new(2);
        h.add(0.3, PauliString::from_label("ZI").unwrap());
        h.add(-0.7, PauliString::from_label("IZ").unwrap());
        let direct = h.expectation(&s);
        let via_apply = s.inner(&h.apply(&s)).re;
        assert!((direct - via_apply).abs() < 1e-12);
        // <Z0> = 1, <Z1> = 0.
        assert!((direct - 0.3).abs() < 1e-12);
    }

    #[test]
    fn product_is_associative_in_phase() {
        // (XY)Z vs X(YZ) on one qubit.
        let x = PauliString::x_on(0);
        let y = PauliString::y_on(0);
        let z = PauliString::z_on(0);
        let (p1, s1) = x.mul(&y);
        let (p2, s2) = s1.mul(&z);
        let left = p1 * p2;
        let (q1, t1) = y.mul(&z);
        let (q2, t2) = x.mul(&t1);
        let right = q1 * q2;
        assert_eq!(s2, t2);
        assert!(left.approx_eq(right, 1e-12));
    }
}
