//! Fermion-to-qubit mappings: Jordan-Wigner and Bravyi-Kitaev.

use crate::{FermionOp, FermionSum, PauliString, PauliSum};
use qns_tensor::C64;
use std::collections::BTreeMap;

/// A complex-coefficient Pauli sum — the intermediate algebra for mapping
/// ladder-operator products.
#[derive(Clone, Debug)]
pub(crate) struct ComplexPauliSum(pub Vec<(C64, PauliString)>);

impl ComplexPauliSum {
    fn identity() -> Self {
        ComplexPauliSum(vec![(C64::ONE, PauliString::IDENTITY)])
    }

    fn mul(&self, rhs: &ComplexPauliSum) -> ComplexPauliSum {
        let mut out = Vec::with_capacity(self.0.len() * rhs.0.len());
        for (ca, sa) in &self.0 {
            for (cb, sb) in &rhs.0 {
                let (phase, s) = sa.mul(sb);
                out.push((*ca * *cb * phase, s));
            }
        }
        ComplexPauliSum(out)
    }

    fn scale(&mut self, c: C64) {
        for (coeff, _) in &mut self.0 {
            *coeff *= c;
        }
    }

    fn add(&mut self, rhs: ComplexPauliSum) {
        self.0.extend(rhs.0);
    }

    pub(crate) fn simplify(&mut self) {
        // Keyed by (weight, x, z), so the terms come out in that order.
        let mut map: BTreeMap<(u32, u64, u64), C64> = BTreeMap::new();
        for (c, s) in self.0.drain(..) {
            let e = map.entry((s.weight(), s.x, s.z)).or_insert(C64::ZERO);
            *e += c;
        }
        self.0 = map
            .into_iter()
            .filter(|(_, c)| c.abs() > 1e-12)
            .map(|((_, x, z), c)| (c, PauliString { x, z }))
            .collect();
    }
}

/// Which fermion-to-qubit encoding to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Encoding {
    JordanWigner,
    BravyiKitaev,
}

/// The JW ladder operator `a_j` (or `a†_j` for `dagger`).
fn jw_ladder(j: usize, dagger: bool) -> ComplexPauliSum {
    let chain = (1u64 << j) - 1; // Z on 0..j
    let x_term = PauliString {
        x: 1 << j,
        z: chain,
    };
    let y_term = PauliString {
        x: 1 << j,
        z: chain | (1 << j),
    };
    let sign = if dagger { -0.5 } else { 0.5 };
    ComplexPauliSum(vec![
        (C64::real(0.5), x_term),
        (C64::new(0.0, sign), y_term),
    ])
}

/// Fenwick-tree update set `U(j)`: qubits above `j` whose stored partial
/// sums include mode `j`.
fn update_set(j: usize, n: usize) -> u64 {
    let mut mask = 0u64;
    let mut idx = (j + 1) as u64;
    idx += idx & idx.wrapping_neg();
    while idx <= n as u64 {
        mask |= 1 << (idx - 1);
        idx += idx & idx.wrapping_neg();
    }
    mask
}

/// Parity set `P(j)`: qubits whose XOR gives the parity of modes `< j`.
fn parity_set(j: usize) -> u64 {
    let mut mask = 0u64;
    let mut idx = j as u64;
    while idx > 0 {
        mask |= 1 << (idx - 1);
        idx &= idx - 1;
    }
    mask
}

/// Occupation set: qubits whose XOR gives the occupation of mode `j`
/// (includes `j` itself).
fn occupation_set(j: usize) -> u64 {
    let mut mask = 1u64 << j;
    let idx = (j + 1) as u64;
    let parent = idx & (idx - 1);
    let mut k = idx - 1;
    while k != parent {
        if k >= 1 {
            mask |= 1 << (k - 1);
        }
        k &= k - 1;
    }
    mask
}

/// The BK ladder operator `a_j` (or `a†_j`) over `n` qubits.
fn bk_ladder(j: usize, dagger: bool, n: usize) -> ComplexPauliSum {
    let u = update_set(j, n);
    let p = parity_set(j);
    let f = occupation_set(j) & !(1 << j);
    let rho = if j.is_multiple_of(2) { p } else { p & !f };
    // Term 1: X_{U} X_j Z_{P};  Term 2: X_{U} Y_j Z_{ρ}.
    let t1 = PauliString {
        x: u | (1 << j),
        z: p,
    };
    let t2 = PauliString {
        x: u | (1 << j),
        z: rho | (1 << j),
    };
    let sign = if dagger { -0.5 } else { 0.5 };
    ComplexPauliSum(vec![(C64::real(0.5), t1), (C64::new(0.0, sign), t2)])
}

fn map_sum(h: &FermionSum, encoding: Encoding) -> PauliSum {
    let n = h.num_modes();
    let mut total = ComplexPauliSum(Vec::new());
    for term in h.terms() {
        let mut acc = ComplexPauliSum::identity();
        // Ladders apply right-to-left; operator product left-to-right.
        for &(mode, dagger) in &term.ladders {
            let ladder = match encoding {
                Encoding::JordanWigner => jw_ladder(mode, dagger),
                Encoding::BravyiKitaev => bk_ladder(mode, dagger, n),
            };
            acc = acc.mul(&ladder);
        }
        acc.scale(C64::real(term.coeff));
        total.add(acc);
    }
    total.simplify();
    let mut out = PauliSum::new(n);
    for (c, s) in total.0 {
        assert!(
            c.im.abs() < 1e-9,
            "non-Hermitian input: imaginary coefficient {c}"
        );
        out.add(c.re, s);
    }
    out.simplify();
    out
}

/// Maps a Hermitian fermionic Hamiltonian to qubits with the
/// **Jordan-Wigner** transform: `a_j = Z_{<j} (X_j + iY_j)/2`.
///
/// # Panics
///
/// Panics if the operator is not Hermitian (an imaginary Pauli coefficient
/// survives).
///
/// # Examples
///
/// ```
/// use qns_chem::{jordan_wigner, FermionOp, FermionSum, PauliString};
/// let mut h = FermionSum::new(2);
/// h.push(FermionOp::one_body(1.0, 0, 0));
/// let q = jordan_wigner(&h);
/// // n_0 = (I − Z_0)/2.
/// assert_eq!(q.terms().len(), 2);
/// ```
pub fn jordan_wigner(h: &FermionSum) -> PauliSum {
    map_sum(h, Encoding::JordanWigner)
}

/// Maps a Hermitian fermionic Hamiltonian to qubits with the
/// **Bravyi-Kitaev** transform (Fenwick-tree parity/update/occupation
/// sets) — the encoding the paper uses for its VQE benchmarks.
///
/// # Panics
///
/// Panics if the operator is not Hermitian.
pub fn bravyi_kitaev(h: &FermionSum) -> PauliSum {
    map_sum(h, Encoding::BravyiKitaev)
}

/// Maps the anti-Hermitian combination `i(T − T†)` to a real Pauli sum via
/// Jordan-Wigner — the UCCSD generator. The returned sum `G` satisfies
/// `T − T† = −iG`, so `exp(T − T†) = exp(−iG)` is implementable as Pauli
/// rotations.
pub(crate) fn jw_antihermitian_generator(t: &FermionOp, n_modes: usize) -> PauliSum {
    let mut acc = ComplexPauliSum::identity();
    for &(mode, dagger) in &t.ladders {
        acc = acc.mul(&jw_ladder(mode, dagger));
    }
    acc.scale(C64::real(t.coeff));
    let dag = t.dagger();
    let mut acc_dag = ComplexPauliSum::identity();
    for &(mode, dagger) in &dag.ladders {
        acc_dag = acc_dag.mul(&jw_ladder(mode, dagger));
    }
    acc_dag.scale(C64::real(-dag.coeff));
    acc.add(acc_dag);
    // i (T − T†)
    acc.scale(C64::I);
    acc.simplify();
    let mut out = PauliSum::new(n_modes);
    for (c, s) in acc.0 {
        assert!(
            c.im.abs() < 1e-9,
            "generator not Hermitian: coefficient {c}"
        );
        out.add(c.re, s);
    }
    out.simplify();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground_state_energy;

    #[test]
    fn jw_number_operator_is_half_i_minus_z() {
        let mut h = FermionSum::new(3);
        h.push(FermionOp::one_body(1.0, 1, 0).dagger()); // a†_0 a_1
        let mut h2 = FermionSum::new(3);
        h2.push(FermionOp::one_body(1.0, 2, 2));
        let q = jordan_wigner(&h2);
        let terms = q.terms();
        assert_eq!(terms.len(), 2);
        assert!((q.identity_coeff() - 0.5).abs() < 1e-12);
        let z2 = PauliString::z_on(2);
        let zc = terms
            .iter()
            .find(|(_, s)| *s == z2)
            .map(|(c, _)| *c)
            .expect("Z_2 term");
        assert!((zc + 0.5).abs() < 1e-12);
    }

    #[test]
    fn bk_number_operator_on_mode_zero() {
        let mut h = FermionSum::new(2);
        h.push(FermionOp::one_body(1.0, 0, 0));
        let q = bravyi_kitaev(&h);
        assert!((q.identity_coeff() - 0.5).abs() < 1e-12);
        let z0 = PauliString::z_on(0);
        let zc = q
            .terms()
            .iter()
            .find(|(_, s)| *s == z0)
            .map(|(c, _)| *c)
            .expect("Z_0 term");
        assert!((zc + 0.5).abs() < 1e-12);
    }

    #[test]
    fn hopping_term_is_hermitian_under_both_mappings() {
        let mut h = FermionSum::new(4);
        h.push_hermitian(FermionOp::one_body(0.7, 0, 3));
        let jw = jordan_wigner(&h);
        let bk = bravyi_kitaev(&h);
        assert!(!jw.terms().is_empty());
        assert!(!bk.terms().is_empty());
    }

    /// The decisive test: JW and BK must produce isospectral operators.
    /// We compare ground-state energies on seeded random Hermitian
    /// Hamiltonians.
    #[test]
    fn jw_and_bk_are_isospectral_on_random_hamiltonians() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 4;
            let mut h = FermionSum::new(n);
            for p in 0..n {
                for q in p..n {
                    if rng.gen_bool(0.7) {
                        h.push_hermitian(FermionOp::one_body(rng.gen_range(-1.0..1.0), p, q));
                    }
                }
            }
            // A couple of two-body terms.
            h.push_hermitian(FermionOp::two_body(rng.gen_range(-0.5..0.5), 0, 1, 1, 0));
            h.push_hermitian(FermionOp::two_body(rng.gen_range(-0.5..0.5), 2, 3, 3, 2));
            h.push_hermitian(FermionOp::two_body(rng.gen_range(-0.3..0.3), 0, 2, 3, 1));

            let jw = jordan_wigner(&h);
            let bk = bravyi_kitaev(&h);
            let e_jw = ground_state_energy(&jw, n);
            let e_bk = ground_state_energy(&bk, n);
            assert!(
                (e_jw - e_bk).abs() < 1e-6,
                "seed {seed}: JW {e_jw} vs BK {e_bk}"
            );
        }
    }

    #[test]
    fn fenwick_sets_match_known_values() {
        // 8-mode examples cross-checked against the Seeley-Richard-Love
        // Fenwick construction.
        assert_eq!(parity_set(0), 0);
        assert_eq!(parity_set(1), 0b1);
        assert_eq!(parity_set(2), 0b10);
        assert_eq!(parity_set(3), 0b110);
        assert_eq!(parity_set(4), 0b1000);
        assert_eq!(occupation_set(0), 0b1);
        assert_eq!(occupation_set(1), 0b11);
        // Fenwick node 4 (mode 3) XORs with its children nodes 2 and 3,
        // i.e. qubits {1, 2} — occupation set {1, 2, 3}.
        assert_eq!(occupation_set(3), 0b1110);
        assert_eq!(occupation_set(2), 0b100);
        assert_eq!(
            update_set(0, 8),
            0b10001010 & !0b1000_0000 | 0b1000_0000 & 0b10001010
        );
        // Explicitly: U(0) for n=8 is {1, 3, 7}.
        assert_eq!(update_set(0, 8), (1 << 1) | (1 << 3) | (1 << 7));
        assert_eq!(update_set(2, 8), (1 << 3) | (1 << 7));
        assert_eq!(update_set(4, 8), (1 << 5) | (1 << 7));
        assert_eq!(update_set(7, 8), 0);
    }

    #[test]
    fn antihermitian_generator_is_real() {
        let t = FermionOp::two_body(0.4, 2, 3, 1, 0);
        let g = jw_antihermitian_generator(&t, 4);
        assert!(!g.terms().is_empty());
        // All coefficients real by construction (asserted inside); also the
        // generator has even Y-weight terms only.
        for (_, s) in g.terms() {
            let y_count = (s.x & s.z).count_ones();
            assert!(
                y_count % 2 == 1,
                "JW excitation generators have odd Y count"
            );
        }
    }
}
