//! Matrix-product-state simulator backend.
//!
//! Represents an `n`-qubit state as a chain of site tensors
//! `A_0 · A_1 · ... · A_{n-1}`, where site `q` carries qubit `q`'s physical
//! index (little-endian, matching [`StateVec`](crate::StateVec)) between a
//! left and a right bond index. Site data is row-major
//! `data[(a * 2 + s) * right + b]` for left bond `a`, physical bit `s`,
//! right bond `b`.
//!
//! One-qubit gates contract locally with the physical index. Two-qubit gates
//! on adjacent sites contract the pair into a two-site tensor, apply the 4×4
//! unitary, and split back with an SVD; non-adjacent pairs are routed
//! together by a chain of adjacent SWAPs and routed back afterwards. Each
//! split truncates the singular-value spectrum to [`MpsConfig::max_bond`]
//! values and to a discarded-weight budget of
//! [`MpsConfig::truncation_cutoff`], renormalizing what is kept.
//!
//! With a bond limit at or above `2^(n/2)` and a zero cutoff no truncation
//! can ever fire and the simulation is *exact*: amplitudes agree with the
//! dense state vector to numerical precision. Below that, results are
//! approximate and every discarded weight is recorded in process-wide
//! truncation counters (see [`mps_stats`]) so lossy scoring is auditable.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::StateVec;
use qns_tensor::{svd, Mat2, Mat4, Matrix, C64};

/// Truncation-event counter (number of SVD splits that dropped weight).
static TRUNCATION_EVENTS: AtomicU64 = AtomicU64::new(0);
/// Total discarded squared weight, in units of 1e-12 (picoweight).
static TRUNCATION_WEIGHT_PICO: AtomicU64 = AtomicU64::new(0);
/// Largest bond dimension produced by any split.
static MAX_BOND_SEEN: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide MPS truncation telemetry.
///
/// Counters accumulate across all [`MpsState`] instances since process start
/// or the last [`reset_mps_stats`]; the runtime mirrors them into the
/// metrics registry so they surface in `--stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MpsStats {
    /// SVD splits that discarded nonzero weight.
    pub truncation_events: u64,
    /// Total discarded squared weight in 1e-12 units.
    pub truncated_weight_pico: u64,
    /// Largest bond dimension any split produced.
    pub max_bond_seen: u64,
}

/// Reads the current MPS truncation counters.
pub fn mps_stats() -> MpsStats {
    MpsStats {
        truncation_events: TRUNCATION_EVENTS.load(Ordering::Relaxed),
        truncated_weight_pico: TRUNCATION_WEIGHT_PICO.load(Ordering::Relaxed),
        max_bond_seen: MAX_BOND_SEEN.load(Ordering::Relaxed),
    }
}

/// Resets the MPS truncation counters to zero.
pub fn reset_mps_stats() {
    TRUNCATION_EVENTS.store(0, Ordering::Relaxed);
    TRUNCATION_WEIGHT_PICO.store(0, Ordering::Relaxed);
    MAX_BOND_SEEN.store(0, Ordering::Relaxed);
}

/// Bond-truncation policy for the MPS backend.
///
/// Equality is bitwise on the cutoff so the containing
/// [`SimBackend`](crate::SimBackend) stays `Eq` and configs hash/compare
/// deterministically in context digests.
#[derive(Clone, Copy, Debug)]
pub struct MpsConfig {
    /// Hard cap on any bond dimension; splits keep at most this many
    /// singular values.
    pub max_bond: usize,
    /// Maximum squared weight a single split may discard *before* the
    /// `max_bond` cap applies: the split keeps the fewest values whose
    /// discarded tail stays at or under this budget. `0.0` disables
    /// weight-based truncation.
    pub truncation_cutoff: f64,
}

impl MpsConfig {
    /// A config that never truncates: unbounded bond, zero cutoff. Exact
    /// for any circuit width where the dense bond (`2^(n/2)`) fits memory.
    pub fn exact() -> Self {
        MpsConfig {
            max_bond: usize::MAX,
            truncation_cutoff: 0.0,
        }
    }

    /// A bond-capped config with zero weight cutoff.
    pub fn with_max_bond(max_bond: usize) -> Self {
        MpsConfig {
            max_bond: max_bond.max(1),
            truncation_cutoff: 0.0,
        }
    }
}

impl Default for MpsConfig {
    /// Bond cap 64, cutoff `1e-12` — exact for shallow/narrow circuits,
    /// gently lossy beyond.
    fn default() -> Self {
        MpsConfig {
            max_bond: 64,
            truncation_cutoff: 1e-12,
        }
    }
}

impl PartialEq for MpsConfig {
    fn eq(&self, other: &Self) -> bool {
        self.max_bond == other.max_bond
            && self.truncation_cutoff.to_bits() == other.truncation_cutoff.to_bits()
    }
}

impl Eq for MpsConfig {}

/// One site tensor: `left × 2 × right`, row-major over `(left, phys, right)`.
#[derive(Clone, Debug)]
struct Site {
    left: usize,
    right: usize,
    data: Vec<C64>,
}

impl Site {
    #[inline]
    fn idx(&self, a: usize, s: usize, b: usize) -> usize {
        (a * 2 + s) * self.right + b
    }
}

/// A matrix-product state over `n` qubits, kept in mixed-canonical form.
///
/// Sites left of the orthogonality `center` are left isometries, sites
/// right of it are right isometries, and the center site carries the norm.
/// One-qubit unitaries preserve the form wherever they act; two-qubit gates
/// move the center to the active bond first, so the singular values of
/// every split are genuine Schmidt coefficients — truncating them is
/// optimal and renormalizing the kept spectrum preserves the global norm.
///
/// # Examples
///
/// ```
/// use qns_sim::{MpsConfig, MpsState};
/// use qns_tensor::Mat2;
///
/// let mut mps = MpsState::zero_state(3, MpsConfig::exact());
/// mps.apply_1q(&Mat2::pauli_x(), 1);
/// let z = mps.expect_z_all();
/// assert!((z[0] - 1.0).abs() < 1e-12);
/// assert!((z[1] + 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct MpsState {
    sites: Vec<Site>,
    config: MpsConfig,
    /// Orthogonality center: sites `< center` are left isometries, sites
    /// `> center` are right isometries.
    center: usize,
}

impl MpsState {
    /// The all-zeros product state `|0...0>`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits == 0`.
    pub fn zero_state(n_qubits: usize, config: MpsConfig) -> Self {
        assert!(n_qubits > 0, "state must have at least one qubit");
        let sites = (0..n_qubits)
            .map(|_| Site {
                left: 1,
                right: 1,
                data: vec![C64::ONE, C64::ZERO],
            })
            .collect();
        MpsState {
            sites,
            config,
            center: 0,
        }
    }

    /// Number of qubits (sites).
    pub fn num_qubits(&self) -> usize {
        self.sites.len()
    }

    /// The truncation policy this state was built with.
    pub fn config(&self) -> MpsConfig {
        self.config
    }

    /// Resets to `|0...0>`, collapsing all bonds back to 1.
    pub fn reset(&mut self) {
        for site in &mut self.sites {
            site.left = 1;
            site.right = 1;
            site.data.clear();
            site.data.extend_from_slice(&[C64::ONE, C64::ZERO]);
        }
        self.center = 0;
    }

    /// Current bond dimensions, one per internal bond (`n - 1` entries).
    pub fn bond_dims(&self) -> Vec<usize> {
        self.sites[..self.sites.len() - 1]
            .iter()
            .map(|s| s.right)
            .collect()
    }

    /// Applies a one-qubit unitary to qubit `q` (local, never truncates).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_1q(&mut self, m: &Mat2, q: usize) {
        assert!(q < self.sites.len(), "qubit out of range");
        let site = &mut self.sites[q];
        for a in 0..site.left {
            for b in 0..site.right {
                let i0 = (a * 2) * site.right + b;
                let i1 = (a * 2 + 1) * site.right + b;
                let x0 = site.data[i0];
                let x1 = site.data[i1];
                site.data[i0] = m.m[0] * x0 + m.m[1] * x1;
                site.data[i1] = m.m[2] * x0 + m.m[3] * x1;
            }
        }
    }

    /// Moves the orthogonality center one site to the right by a
    /// rank-revealing split of the center site. Never weight-truncates.
    fn push_center_right(&mut self) {
        let c = self.center;
        let site = &self.sites[c];
        let f = svd(&Matrix::from_vec(
            site.left * 2,
            site.right,
            site.data.clone(),
        ));
        let keep = f.rank();
        MAX_BOND_SEEN.fetch_max(keep as u64, Ordering::Relaxed);
        let mut left_data = vec![C64::ZERO; site.left * 2 * keep];
        for row in 0..site.left * 2 {
            for k in 0..keep {
                left_data[row * keep + k] = f.u[(row, k)];
            }
        }
        let old_right = site.right;
        // carry[k, r] = s_k * vt[k, r] folds into the next site's left bond.
        let next = &self.sites[c + 1];
        let mut next_data = vec![C64::ZERO; keep * 2 * next.right];
        for k in 0..keep {
            for r in 0..old_right {
                let w = f.vt[(k, r)].scale(f.s[k]);
                if w.re == 0.0 && w.im == 0.0 {
                    continue;
                }
                for s in 0..2 {
                    for b in 0..next.right {
                        next_data[(k * 2 + s) * next.right + b] += w * next.data[next.idx(r, s, b)];
                    }
                }
            }
        }
        let (site_left, next_right) = (site.left, next.right);
        self.sites[c] = Site {
            left: site_left,
            right: keep,
            data: left_data,
        };
        self.sites[c + 1] = Site {
            left: keep,
            right: next_right,
            data: next_data,
        };
        self.center = c + 1;
    }

    /// Moves the orthogonality center one site to the left (mirror of
    /// [`MpsState::push_center_right`]).
    fn push_center_left(&mut self) {
        let c = self.center;
        let site = &self.sites[c];
        // Row-major (left) × (2 * right): the site layout is already this
        // matrix, no reshuffle needed.
        let f = svd(&Matrix::from_vec(
            site.left,
            2 * site.right,
            site.data.clone(),
        ));
        let keep = f.rank();
        MAX_BOND_SEEN.fetch_max(keep as u64, Ordering::Relaxed);
        let mut right_data = vec![C64::ZERO; keep * 2 * site.right];
        for k in 0..keep {
            for col in 0..2 * site.right {
                right_data[k * 2 * site.right + col] = f.vt[(k, col)];
            }
        }
        let old_left = site.left;
        // carry[a, k] = U[a, k] * s_k folds into the previous site's right.
        let prev = &self.sites[c - 1];
        let mut prev_data = vec![C64::ZERO; prev.left * 2 * keep];
        for a in 0..prev.left {
            for s in 0..2 {
                for j in 0..old_left {
                    let x = prev.data[prev.idx(a, s, j)];
                    if x.re == 0.0 && x.im == 0.0 {
                        continue;
                    }
                    for k in 0..keep {
                        prev_data[(a * 2 + s) * keep + k] += x * f.u[(j, k)].scale(f.s[k]);
                    }
                }
            }
        }
        let (site_right, prev_left) = (site.right, prev.left);
        self.sites[c] = Site {
            left: keep,
            right: site_right,
            data: right_data,
        };
        self.sites[c - 1] = Site {
            left: prev_left,
            right: keep,
            data: prev_data,
        };
        self.center = c - 1;
    }

    /// Moves the orthogonality center to site `target`.
    fn move_center_to(&mut self, target: usize) {
        while self.center < target {
            self.push_center_right();
        }
        while self.center > target {
            self.push_center_left();
        }
    }

    /// Applies a two-qubit unitary; `qa` is the high bit of the 4×4 basis,
    /// matching [`StateVec::apply_2q`](crate::StateVec::apply_2q).
    ///
    /// Non-adjacent pairs are routed adjacent with SWAP chains and routed
    /// back afterwards; every split along the way honors the truncation
    /// policy.
    ///
    /// # Panics
    ///
    /// Panics if the qubits are out of range or equal.
    pub fn apply_2q(&mut self, m: &Mat4, qa: usize, qb: usize) {
        let n = self.sites.len();
        assert!(qa < n && qb < n && qa != qb, "bad qubit pair");
        let (lo, hi) = (qa.min(qb), qa.max(qb));
        // Route qubit `hi`'s tensor down to site lo+1.
        for j in ((lo + 1)..hi).rev() {
            self.swap_adjacent(j);
        }
        // The two-site contraction indexes the pair as (left_site, right_site)
        // = (high, low) of the 4×4 sub-basis; reorient when the caller's high
        // bit (`qa`) sits on the right site.
        let oriented = if qa == lo { *m } else { m.swap_qubits() };
        self.apply_2q_adjacent(&oriented, lo);
        // Route back so site q holds qubit q again.
        for j in (lo + 1)..hi {
            self.swap_adjacent(j);
        }
    }

    /// Swaps the qubits at sites `i` and `i + 1`.
    fn swap_adjacent(&mut self, i: usize) {
        let mut swap = Mat4::zero();
        swap.m[0] = C64::ONE; // |00> -> |00>
        swap.m[4 + 2] = C64::ONE; // |10> -> |01>
        swap.m[2 * 4 + 1] = C64::ONE; // |01> -> |10>
        swap.m[3 * 4 + 3] = C64::ONE; // |11> -> |11>
        self.apply_2q_adjacent(&swap, i);
    }

    /// Contract sites `i, i+1`, apply the 4×4 (left site = high bit of the
    /// sub-basis), split back with a truncated SVD.
    ///
    /// Moves the orthogonality center to the active bond first so the split
    /// spectrum consists of genuine Schmidt coefficients; afterwards the
    /// center sits at `i + 1`.
    fn apply_2q_adjacent(&mut self, m: &Mat4, i: usize) {
        if self.center < i {
            self.move_center_to(i);
        } else if self.center > i + 1 {
            self.move_center_to(i + 1);
        }
        let a_dim = self.sites[i].left;
        let k_dim = self.sites[i].right;
        let b_dim = self.sites[i + 1].right;
        debug_assert_eq!(k_dim, self.sites[i + 1].left, "bond mismatch");

        // theta[(a, sl, sr, b)] = sum_k L[a, sl, k] R[k, sr, b], laid out so
        // that (a*2+sl) is the row and (sr*b_dim+b) the column of the split.
        let cols = 2 * b_dim;
        let mut theta = vec![C64::ZERO; a_dim * 2 * cols];
        {
            let left = &self.sites[i];
            let right = &self.sites[i + 1];
            for a in 0..a_dim {
                for sl in 0..2 {
                    for k in 0..k_dim {
                        let x = left.data[left.idx(a, sl, k)];
                        if x.re == 0.0 && x.im == 0.0 {
                            continue;
                        }
                        let row = (a * 2 + sl) * cols;
                        for sr in 0..2 {
                            for b in 0..b_dim {
                                theta[row + sr * b_dim + b] += x * right.data[right.idx(k, sr, b)];
                            }
                        }
                    }
                }
            }
        }

        // Rotate the physical pair by the gate: the sub-basis index is
        // sl*2 + sr (left site is the high bit).
        let mut rotated = vec![C64::ZERO; theta.len()];
        for a in 0..a_dim {
            for b in 0..b_dim {
                for r in 0..4 {
                    let mut acc = C64::ZERO;
                    for c in 0..4 {
                        let (sl, sr) = (c >> 1, c & 1);
                        acc += m.m[r * 4 + c] * theta[(a * 2 + sl) * cols + sr * b_dim + b];
                    }
                    let (sl, sr) = (r >> 1, r & 1);
                    rotated[(a * 2 + sl) * cols + sr * b_dim + b] = acc;
                }
            }
        }

        #[cfg(feature = "mps-split-audit")]
        let rotated_copy = rotated.clone();
        let f = svd(&Matrix::from_vec(2 * a_dim, cols, rotated));
        let (keep, renorm) = self.truncate_spectrum(&f.s);

        let mut left_data = vec![C64::ZERO; a_dim * 2 * keep];
        for row in 0..2 * a_dim {
            for k in 0..keep {
                left_data[row * keep + k] = f.u[(row, k)];
            }
        }
        let mut right_data = vec![C64::ZERO; keep * 2 * b_dim];
        for k in 0..keep {
            let w = f.s[k] * renorm;
            for col in 0..cols {
                let (sr, b) = (col / b_dim, col % b_dim);
                right_data[(k * 2 + sr) * b_dim + b] = f.vt[(k, col)].scale(w);
            }
        }
        self.sites[i] = Site {
            left: a_dim,
            right: keep,
            data: left_data,
        };
        self.sites[i + 1] = Site {
            left: keep,
            right: b_dim,
            data: right_data,
        };
        self.center = i + 1;
        #[cfg(feature = "mps-split-audit")]
        {
            let li = &self.sites[i];
            let ri = &self.sites[i + 1];
            let mut worst = 0.0f64;
            for a in 0..a_dim {
                for sl in 0..2 {
                    for sr in 0..2 {
                        for b in 0..b_dim {
                            let mut acc = C64::ZERO;
                            for k in 0..keep {
                                acc += li.data[li.idx(a, sl, k)] * ri.data[ri.idx(k, sr, b)];
                            }
                            let want = rotated_copy[(a * 2 + sl) * cols + sr * b_dim + b];
                            worst = worst.max((acc - want).norm_sqr().sqrt());
                        }
                    }
                }
            }
            if worst > 1e-12 {
                eprintln!(
                    "split audit: dims ({a_dim},{k_dim},{b_dim}) keep {keep} err {worst:.3e}"
                );
                eprintln!("s = {:?}", f.s);
                eprintln!("matrix = {:?}", rotated_copy);
            }
        }
    }

    /// Decides how many singular values to keep under the truncation policy
    /// and returns `(keep, renormalization)`. Records telemetry. When
    /// nothing is discarded the renormalization is exactly `1.0`, so the
    /// exact regime stays bitwise clean.
    fn truncate_spectrum(&self, s: &[f64]) -> (usize, f64) {
        let total_sq: f64 = s.iter().map(|x| x * x).sum();
        // Weight budget: keep the fewest leading values whose discarded
        // tail is within the cutoff.
        let mut keep = s.len();
        if self.config.truncation_cutoff > 0.0 {
            let mut tail = 0.0f64;
            while keep > 1 {
                let next = tail + s[keep - 1] * s[keep - 1];
                if next > self.config.truncation_cutoff {
                    break;
                }
                tail = next;
                keep -= 1;
            }
        }
        // Hard bond cap.
        keep = keep.min(self.config.max_bond).max(1);

        MAX_BOND_SEEN.fetch_max(keep as u64, Ordering::Relaxed);
        if keep == s.len() {
            return (keep, 1.0);
        }
        let discarded_sq: f64 = s[keep..].iter().map(|x| x * x).sum();
        TRUNCATION_EVENTS.fetch_add(1, Ordering::Relaxed);
        TRUNCATION_WEIGHT_PICO.fetch_add((discarded_sq * 1e12).round() as u64, Ordering::Relaxed);
        let kept_sq = total_sq - discarded_sq;
        let renorm = if kept_sq > 0.0 {
            (total_sq / kept_sq).sqrt()
        } else {
            1.0
        };
        (keep, renorm)
    }

    /// Scales every amplitude by `factor` (applied at the orthogonality
    /// center, preserving the canonical form).
    pub fn scale(&mut self, factor: f64) {
        let c = self.center;
        for x in &mut self.sites[c].data {
            *x = x.scale(factor);
        }
    }

    /// Squared norm `<psi|psi>` by transfer-matrix contraction.
    pub fn norm_sqr(&self) -> f64 {
        let mut env = vec![C64::ONE]; // 1×1 environment
        let mut dim = 1usize;
        for site in &self.sites {
            env = transfer(&env, dim, site, None);
            dim = site.right;
        }
        env[0].re
    }

    /// `<Z_q>` for every qubit, by left/right environment contraction in
    /// O(n · D³). The state is assumed normalized (unitaries preserve the
    /// norm and truncation renormalizes), but the result is still divided
    /// by the contracted norm for robustness.
    pub fn expect_z_all(&self) -> Vec<f64> {
        let n = self.sites.len();
        // lefts[i] = environment covering sites < i (dims left_i × left_i).
        let mut lefts: Vec<Vec<C64>> = Vec::with_capacity(n + 1);
        lefts.push(vec![C64::ONE]);
        let mut dim = 1usize;
        for site in &self.sites {
            let next = transfer(lefts.last().expect("nonempty"), dim, site, None);
            dim = site.right;
            lefts.push(next);
        }
        // rights[i] = environment covering sites > i (dims right_i × right_i).
        let mut rights: Vec<Vec<C64>> = vec![Vec::new(); n + 1];
        rights[n] = vec![C64::ONE];
        for i in (0..n).rev() {
            rights[i] = transfer_rev(&rights[i + 1], self.sites[i].right, &self.sites[i]);
        }
        let norm = lefts[n][0].re;
        let inv = if norm > 0.0 { 1.0 / norm } else { 1.0 };
        (0..n)
            .map(|q| {
                let site = &self.sites[q];
                let mid = transfer(&lefts[q], site.left, site, Some([1.0, -1.0]));
                let r = &rights[q + 1];
                let mut acc = C64::ZERO;
                for b in 0..site.right {
                    for b2 in 0..site.right {
                        acc += mid[b * site.right + b2] * r[b * site.right + b2];
                    }
                }
                acc.re * inv
            })
            .collect()
    }

    /// `<Z_q>` for one qubit.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn expect_z(&self, q: usize) -> f64 {
        assert!(q < self.sites.len(), "qubit out of range");
        self.expect_z_all()[q]
    }

    /// Single-qubit reduced density matrix `rho[s, s']` of qubit `q`,
    /// row-major `[rho00, rho01, rho10, rho11]`, normalized to trace 1.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn rdm1(&self, q: usize) -> [C64; 4] {
        let n = self.sites.len();
        assert!(q < n, "qubit out of range");
        let mut left = vec![C64::ONE];
        let mut dim = 1usize;
        for site in &self.sites[..q] {
            left = transfer(&left, dim, site, None);
            dim = site.right;
        }
        let mut right = vec![C64::ONE];
        for i in ((q + 1)..n).rev() {
            right = transfer_rev(&right, self.sites[i].right, &self.sites[i]);
        }
        let site = &self.sites[q];
        let mut rho = [C64::ZERO; 4];
        for s in 0..2 {
            for s2 in 0..2 {
                let mut acc = C64::ZERO;
                for a in 0..site.left {
                    for a2 in 0..site.left {
                        let l = left[a * site.left + a2];
                        if l.re == 0.0 && l.im == 0.0 {
                            continue;
                        }
                        for b in 0..site.right {
                            for b2 in 0..site.right {
                                acc += l
                                    * site.data[site.idx(a, s, b)]
                                    * site.data[site.idx(a2, s2, b2)].conj()
                                    * right[b * site.right + b2];
                            }
                        }
                    }
                }
                rho[s * 2 + s2] = acc;
            }
        }
        let trace = (rho[0] + rho[3]).re;
        if trace > 0.0 {
            let inv = 1.0 / trace;
            for x in &mut rho {
                *x = x.scale(inv);
            }
        }
        rho
    }

    /// Born probability of Kraus operator `k` firing on qubit `q`:
    /// `Tr(K rho K†)` with `rho` the one-qubit reduced density matrix.
    pub fn kraus_prob(&self, k: &Mat2, q: usize) -> f64 {
        let rho = self.rdm1(q);
        // Tr(K† K rho): g = K† K, p = sum_{s,s'} g[s,s'] rho[s',s].
        let mut p = C64::ZERO;
        for s in 0..2 {
            for s2 in 0..2 {
                let mut g = C64::ZERO;
                for t in 0..2 {
                    g += k.m[t * 2 + s].conj() * k.m[t * 2 + s2];
                }
                p += g * rho[s2 * 2 + s];
            }
        }
        p.re.clamp(0.0, 1.0)
    }

    /// Applies (possibly non-unitary) `k` to qubit `q` and renormalizes by
    /// the given selection probability, mirroring the state-vector
    /// trajectory protocol (`apply` then `normalize`).
    ///
    /// The center moves to `q` first: a non-unitary operator would break
    /// the isometry of any other site it touched.
    pub fn apply_kraus_1q(&mut self, k: &Mat2, q: usize, prob: f64) {
        self.move_center_to(q);
        self.apply_1q(k, q);
        if prob > 0.0 {
            let inv = 1.0 / prob.sqrt();
            if inv != 1.0 {
                for x in &mut self.sites[q].data {
                    *x = x.scale(inv);
                }
            }
        }
    }

    /// Sweeps the orthogonality center to the last site, making every site
    /// but the last a left isometry. Only rank-revealing (never
    /// weight-truncating), so the state is unchanged up to numerical
    /// precision.
    pub fn canonicalize_left(&mut self) {
        // Restart the sweep from the far left so the invariant holds even
        // if a caller has manipulated raw site data.
        self.center = 0;
        self.move_center_to(self.sites.len() - 1);
    }

    /// Left-isometry defect of site `q`: `max |(A†A)[b,b'] - I|` over the
    /// contracted left+physical indices. Zero (to numerical precision) for
    /// every non-final site after [`MpsState::canonicalize_left`].
    pub fn isometry_defect(&self, q: usize) -> f64 {
        let site = &self.sites[q];
        let mut worst = 0.0f64;
        for b in 0..site.right {
            for b2 in 0..site.right {
                let mut acc = C64::ZERO;
                for a in 0..site.left {
                    for s in 0..2 {
                        acc += site.data[site.idx(a, s, b)].conj() * site.data[site.idx(a, s, b2)];
                    }
                }
                let expect = if b == b2 { C64::ONE } else { C64::ZERO };
                worst = worst.max((acc - expect).norm_sqr().sqrt());
            }
        }
        worst
    }

    /// Densifies into an existing state-vector buffer (little-endian basis,
    /// matching [`StateVec`]). O(2^n · D) time and memory.
    ///
    /// # Panics
    ///
    /// Panics if `out` has a different qubit count.
    pub fn to_statevec_into(&self, out: &mut StateVec) {
        let n = self.sites.len();
        assert_eq!(out.num_qubits(), n, "width mismatch");
        // acc[x * bond + a]: partial contraction over the first i sites,
        // basis prefix x in [0, 2^i).
        let mut acc = vec![C64::ONE];
        for (i, site) in self.sites.iter().enumerate() {
            let width = 1usize << i;
            let mut next = vec![C64::ZERO; (width << 1) * site.right];
            for x in 0..width {
                for a in 0..site.left {
                    let v = acc[x * site.left + a];
                    if v.re == 0.0 && v.im == 0.0 {
                        continue;
                    }
                    for s in 0..2 {
                        let y = x | (s << i);
                        for b in 0..site.right {
                            next[y * site.right + b] += v * site.data[site.idx(a, s, b)];
                        }
                    }
                }
            }
            acc = next;
        }
        out.amplitudes_mut().copy_from_slice(&acc);
    }

    /// Densifies into a fresh [`StateVec`].
    pub fn to_statevec(&self) -> StateVec {
        let mut out = StateVec::zero_state(self.sites.len());
        self.to_statevec_into(&mut out);
        out
    }
}

/// Pushes a left environment (`dim × dim`, row-major, ket index first)
/// through one site, optionally weighting the physical index by a diagonal
/// observable (`Some([w0, w1])`, e.g. Z = `[1, -1]`).
fn transfer(env: &[C64], dim: usize, site: &Site, diag: Option<[f64; 2]>) -> Vec<C64> {
    debug_assert_eq!(dim, site.left);
    debug_assert_eq!(env.len(), dim * dim);
    let r = site.right;
    // half[(a2, s, b)] = sum_a env[a, a2] * A[a, s, b]
    let mut half = vec![C64::ZERO; dim * 2 * r];
    for a in 0..dim {
        for a2 in 0..dim {
            let e = env[a * dim + a2];
            if e.re == 0.0 && e.im == 0.0 {
                continue;
            }
            for s in 0..2 {
                let w = diag.map_or(1.0, |d| d[s]);
                for b in 0..r {
                    half[(a2 * 2 + s) * r + b] += e * site.data[site.idx(a, s, b)].scale(w);
                }
            }
        }
    }
    // out[b, b2] = sum_{a2, s} half[(a2, s, b)] * conj(A[a2, s, b2])
    let mut out = vec![C64::ZERO; r * r];
    for a2 in 0..dim {
        for s in 0..2 {
            for b2 in 0..r {
                let c = site.data[site.idx(a2, s, b2)].conj();
                if c.re == 0.0 && c.im == 0.0 {
                    continue;
                }
                for b in 0..r {
                    out[b * r + b2] += half[(a2 * 2 + s) * r + b] * c;
                }
            }
        }
    }
    out
}

/// Pushes a right environment (`dim × dim` over the site's right bond)
/// leftward through one site.
fn transfer_rev(env: &[C64], dim: usize, site: &Site) -> Vec<C64> {
    debug_assert_eq!(dim, site.right);
    debug_assert_eq!(env.len(), dim * dim);
    let l = site.left;
    // half[(a, s, b2)] = sum_b A[a, s, b] * env[b, b2]
    let mut half = vec![C64::ZERO; l * 2 * dim];
    for a in 0..l {
        for s in 0..2 {
            for b in 0..dim {
                let x = site.data[site.idx(a, s, b)];
                if x.re == 0.0 && x.im == 0.0 {
                    continue;
                }
                for b2 in 0..dim {
                    half[(a * 2 + s) * dim + b2] += x * env[b * dim + b2];
                }
            }
        }
    }
    // out[a, a2] = sum_{s, b2} half[(a, s, b2)] * conj(A[a2, s, b2])
    let mut out = vec![C64::ZERO; l * l];
    for a2 in 0..l {
        for s in 0..2 {
            for b2 in 0..dim {
                let c = site.data[site.idx(a2, s, b2)].conj();
                if c.re == 0.0 && c.im == 0.0 {
                    continue;
                }
                for a in 0..l {
                    out[a * l + a2] += half[(a * 2 + s) * dim + b2] * c;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::{Mutex, MutexGuard};

    /// Serializes this module's tests: they all move the process-wide
    /// truncation counters, which `truncation_fires_and_is_counted` reads
    /// back exactly.
    static STATS_LOCK: Mutex<()> = Mutex::new(());

    /// Holds [`STATS_LOCK`] for one test. Poison-tolerant, so one failing
    /// test does not fail the rest.
    fn stats_guard() -> MutexGuard<'static, ()> {
        STATS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn rz(t: f64) -> Mat2 {
        let (s, c) = (t / 2.0).sin_cos();
        Mat2::new([C64::new(c, -s), C64::ZERO, C64::ZERO, C64::new(c, s)])
    }

    fn ry(t: f64) -> Mat2 {
        let (s, c) = (t / 2.0).sin_cos();
        Mat2::new([C64::real(c), C64::real(-s), C64::real(s), C64::real(c)])
    }

    fn random_mat2(rng: &mut StdRng) -> Mat2 {
        // Random unitary via RZ·RY·RZ Euler angles.
        let (a, b, c) = (
            rng.gen_range(-3.0..3.0),
            rng.gen_range(-3.0..3.0),
            rng.gen_range(-3.0..3.0),
        );
        rz(a).mul_mat(&ry(b)).mul_mat(&rz(c))
    }

    /// One random entangling step: a 1q rotation on a random qubit (so
    /// controls leave |0>, making the controlled gate non-trivial) followed
    /// by a controlled random unitary on a random pair. Mirrors the step
    /// into `sv` when given.
    fn random_step(mps: &mut MpsState, sv: Option<&mut StateVec>, n: usize, rng: &mut StdRng) {
        let m1 = random_mat2(rng);
        let q = rng.gen_range(0..n);
        let m2 = Mat4::controlled(&random_mat2(rng));
        let qa = rng.gen_range(0..n);
        let mut qb = rng.gen_range(0..n);
        while qb == qa {
            qb = rng.gen_range(0..n);
        }
        mps.apply_1q(&m1, q);
        mps.apply_2q(&m2, qa, qb);
        if let Some(sv) = sv {
            sv.apply_1q_reference(&m1, q);
            sv.apply_2q_reference(&m2, qa, qb);
        }
    }

    fn assert_close_to_statevec(mps: &MpsState, sv: &StateVec, tol: f64, label: &str) {
        let dense = mps.to_statevec();
        for (i, (x, y)) in dense.amplitudes().iter().zip(sv.amplitudes()).enumerate() {
            assert!(
                (*x - *y).norm_sqr().sqrt() < tol,
                "{label}: amplitude {i} differs"
            );
        }
    }

    #[test]
    fn zero_state_matches_statevec() {
        let _guard = stats_guard();
        let mps = MpsState::zero_state(3, MpsConfig::exact());
        assert_close_to_statevec(&mps, &StateVec::zero_state(3), 1e-15, "zero state");
    }

    #[test]
    fn single_qubit_gates_match_statevec() {
        let _guard = stats_guard();
        let mut rng = StdRng::seed_from_u64(7);
        let mut mps = MpsState::zero_state(4, MpsConfig::exact());
        let mut sv = StateVec::zero_state(4);
        for _ in 0..20 {
            let m = random_mat2(&mut rng);
            let q = rng.gen_range(0..4);
            mps.apply_1q(&m, q);
            sv.apply_1q_reference(&m, q);
        }
        assert_close_to_statevec(&mps, &sv, 1e-12, "1q gates");
    }

    #[test]
    fn adjacent_and_distant_2q_gates_match_statevec() {
        let _guard = stats_guard();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 5;
        let mut mps = MpsState::zero_state(n, MpsConfig::exact());
        let mut sv = StateVec::zero_state(n);
        for _ in 0..25 {
            random_step(&mut mps, Some(&mut sv), n, &mut rng);
        }
        assert_close_to_statevec(&mps, &sv, 1e-10, "mixed gates");
    }

    #[test]
    fn expect_z_matches_statevec() {
        let _guard = stats_guard();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 4;
        let mut mps = MpsState::zero_state(n, MpsConfig::exact());
        let mut sv = StateVec::zero_state(n);
        for _ in 0..12 {
            random_step(&mut mps, Some(&mut sv), n, &mut rng);
        }
        let zm = mps.expect_z_all();
        let zs = sv.expect_z_all();
        for q in 0..n {
            assert!((zm[q] - zs[q]).abs() < 1e-10, "Z[{q}] differs");
        }
    }

    #[test]
    fn norm_is_preserved_by_unitaries() {
        let _guard = stats_guard();
        let mut rng = StdRng::seed_from_u64(5);
        let mut mps = MpsState::zero_state(6, MpsConfig::exact());
        for _ in 0..30 {
            random_step(&mut mps, None, 6, &mut rng);
        }
        assert!((mps.norm_sqr() - 1.0).abs() < 1e-10);
        // Bonds actually grew: the circuit was genuinely entangling.
        assert!(mps.bond_dims().iter().any(|&d| d > 2));
    }

    #[test]
    fn truncation_fires_and_is_counted() {
        let _guard = stats_guard();
        reset_mps_stats();
        let before = mps_stats();
        assert_eq!(before.truncation_events, 0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut mps = MpsState::zero_state(6, MpsConfig::with_max_bond(2));
        for _ in 0..40 {
            random_step(&mut mps, None, 6, &mut rng);
        }
        let stats = mps_stats();
        assert!(stats.truncation_events > 0, "expected truncation events");
        assert!(stats.truncated_weight_pico > 0, "expected discarded weight");
        assert_eq!(stats.max_bond_seen, 2);
        for &d in &mps.bond_dims() {
            assert!(d <= 2);
        }
        // Truncation renormalizes: still a unit state.
        assert!((mps.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn canonicalize_preserves_state_and_gives_isometries() {
        let _guard = stats_guard();
        let mut rng = StdRng::seed_from_u64(13);
        let n = 5;
        let mut mps = MpsState::zero_state(n, MpsConfig::exact());
        for _ in 0..20 {
            random_step(&mut mps, None, n, &mut rng);
        }
        let before = mps.to_statevec();
        mps.canonicalize_left();
        assert_close_to_statevec(&mps, &before, 1e-10, "canonicalization");
        for q in 0..n - 1 {
            assert!(
                mps.isometry_defect(q) < 1e-10,
                "site {q} not a left isometry"
            );
        }
    }

    #[test]
    fn kraus_application_matches_statevec_protocol() {
        let _guard = stats_guard();
        let mut rng = StdRng::seed_from_u64(21);
        let n = 3;
        let mut mps = MpsState::zero_state(n, MpsConfig::exact());
        let mut sv = StateVec::zero_state(n);
        for _ in 0..8 {
            random_step(&mut mps, Some(&mut sv), n, &mut rng);
        }
        // A non-unitary Kraus op (amplitude damping branch).
        let gamma: f64 = 0.3;
        let k = Mat2::new([
            C64::ONE,
            C64::ZERO,
            C64::ZERO,
            C64::real((1.0 - gamma).sqrt()),
        ]);
        let p = mps.kraus_prob(&k, 1);
        mps.apply_kraus_1q(&k, 1, p);
        sv.apply_1q_reference(&k, 1);
        sv.normalize();
        assert_close_to_statevec(&mps, &sv, 1e-10, "kraus branch");
        assert!((mps.norm_sqr() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn config_equality_is_bitwise() {
        let _guard = stats_guard();
        let a = MpsConfig {
            max_bond: 8,
            truncation_cutoff: 1e-9,
        };
        assert_eq!(a, a);
        assert_ne!(
            a,
            MpsConfig {
                max_bond: 8,
                truncation_cutoff: 2e-9,
            }
        );
        assert_ne!(
            a,
            MpsConfig {
                max_bond: 16,
                truncation_cutoff: 1e-9,
            }
        );
    }
}
