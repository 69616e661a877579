//! One-sided Jacobi singular value decomposition for complex matrices.
//!
//! The MPS simulator splits two-site tensors back into site tensors with an
//! SVD; this module provides that decomposition without any external linear
//! algebra dependency. The one-sided Jacobi method orthogonalizes the columns
//! of the input by a sequence of exactly-unitary plane rotations, which keeps
//! the factors orthogonal to machine precision — the property the bond
//! truncation in `qns-sim` relies on.

use crate::{Matrix, C64};

/// Singular values smaller than `RANK_FLOOR * s_max` are treated as exact
/// zeros and dropped from the decomposition. This reveals the true rank of
/// structured inputs (e.g. product states) so downstream bond dimensions do
/// not grow on numerically-zero directions, and avoids forming `B_j / s_j`
/// for vanishing columns.
const RANK_FLOOR: f64 = 1e-14;

/// Relative off-diagonal tolerance at which a column pair counts as
/// orthogonal and the Jacobi sweep skips it.
const PAIR_TOL: f64 = 1e-13;

/// Upper bound on Jacobi sweeps; convergence is quadratic once sweeps start
/// landing, so this is far above what small MPS bond matrices need.
const MAX_SWEEPS: usize = 64;

/// Thin singular value decomposition `A = U · diag(s) · Vᵗ` of a complex
/// matrix, with numerically-zero singular values removed.
///
/// Produced by [`svd`]. With `r` the revealed rank, `u` is `rows × r` with
/// orthonormal columns, `s` holds `r` singular values in descending order,
/// and `vt` is `r × cols` with orthonormal rows (`vt` is V-adjoint, so
/// `vt · vtᴴ = I`).
#[derive(Clone, Debug)]
pub struct Svd {
    /// Left factor, `rows × rank`, orthonormal columns.
    pub u: Matrix,
    /// Singular values, descending, all `> RANK_FLOOR * s_max`.
    pub s: Vec<f64>,
    /// Right factor (V-adjoint), `rank × cols`, orthonormal rows.
    pub vt: Matrix,
}

impl Svd {
    /// The revealed rank `r = s.len()`.
    pub fn rank(&self) -> usize {
        self.s.len()
    }
}

/// Computes the thin SVD of `a` by one-sided Jacobi rotations.
///
/// Numerically-zero singular values (below `RANK_FLOOR` = 1e-14 relative
/// to the largest) are dropped, so the returned factors have the revealed
/// rank of `a` rather than `min(rows, cols)` columns. A zero matrix yields
/// a rank-1 factorization with a single zero singular value (factors
/// cannot be empty).
///
/// # Panics
///
/// Panics if `a` has zero rows or columns.
///
/// # Examples
///
/// ```
/// use qns_tensor::{svd, C64, Matrix};
///
/// let a = Matrix::from_vec(2, 2, vec![
///     C64::real(3.0), C64::ZERO,
///     C64::ZERO, C64::real(-2.0),
/// ]);
/// let f = svd(&a);
/// assert!((f.s[0] - 3.0).abs() < 1e-12);
/// assert!((f.s[1] - 2.0).abs() < 1e-12);
/// ```
pub fn svd(a: &Matrix) -> Svd {
    let (rows, cols) = (a.rows(), a.cols());
    assert!(rows > 0 && cols > 0, "svd requires a non-empty matrix");
    if rows < cols {
        // One-sided Jacobi wants a tall matrix; decompose the adjoint and
        // swap the factors: A† = U'ΣV'† implies A = V'ΣU'†.
        let f = svd_tall(&a.adjoint());
        let rank = f.s.len();
        let mut u = Matrix::zeros(rows, rank);
        for i in 0..rows {
            for k in 0..rank {
                u[(i, k)] = f.vt[(k, i)].conj();
            }
        }
        let mut vt = Matrix::zeros(rank, cols);
        for k in 0..rank {
            for j in 0..cols {
                vt[(k, j)] = f.u[(j, k)].conj();
            }
        }
        return Svd { u, s: f.s, vt };
    }
    svd_tall(a)
}

/// One-sided Jacobi SVD for `rows >= cols`.
fn svd_tall(a: &Matrix) -> Svd {
    let (rows, cols) = (a.rows(), a.cols());

    // Working copy of A as column vectors; rotations act on whole columns.
    let mut b: Vec<Vec<C64>> = (0..cols)
        .map(|j| (0..rows).map(|i| a[(i, j)]).collect())
        .collect();
    // V accumulates the same column rotations, starting from the identity.
    let mut v: Vec<Vec<C64>> = (0..cols)
        .map(|j| {
            let mut col = vec![C64::ZERO; cols];
            col[j] = C64::ONE;
            col
        })
        .collect();

    // Columns whose squared norm falls below this are numerically zero;
    // rotating them against live columns computes a garbage phase from
    // subnormal arithmetic (a non-unitary update that corrupts the live
    // column), so such pairs are skipped. The Frobenius norm is invariant
    // under the rotations, so the threshold is computed once.
    let scale_sq: f64 = b
        .iter()
        .flat_map(|col| col.iter())
        .map(|z| z.norm_sqr())
        .sum();
    let dead_sq = RANK_FLOOR * RANK_FLOOR * scale_sq;

    for _ in 0..MAX_SWEEPS {
        let mut rotated = false;
        for p in 0..cols {
            for q in (p + 1)..cols {
                let app: f64 = b[p].iter().map(|z| z.norm_sqr()).sum();
                let aqq: f64 = b[q].iter().map(|z| z.norm_sqr()).sum();
                if app <= dead_sq || aqq <= dead_sq {
                    continue;
                }
                let apq: C64 = b[p]
                    .iter()
                    .zip(b[q].iter())
                    .map(|(x, y)| x.conj() * *y)
                    .fold(C64::ZERO, |acc, z| acc + z);
                let off = apq.norm_sqr().sqrt();
                if off <= PAIR_TOL * (app * aqq).sqrt().max(f64::MIN_POSITIVE) {
                    continue;
                }
                rotated = true;
                // Phase of the off-diagonal Gram entry; the rotation below is
                // the standard Hermitian 2×2 diagonalization of
                // [[app, apq], [apq*, aqq]] applied from the right.
                let phase = apq.scale(1.0 / off); // e^{iφ}
                let tau = (aqq - app) / (2.0 * off);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let cs = 1.0 / (1.0 + t * t).sqrt();
                let sn = t * cs;
                let sp = phase.conj(); // e^{-iφ}
                rotate_pair(&mut b, p, q, cs, sn, sp);
                rotate_pair(&mut v, p, q, cs, sn, sp);
            }
        }
        if !rotated {
            break;
        }
    }

    // Column norms are the singular values; sort descending and drop
    // numerically-zero directions.
    let norms: Vec<f64> = b
        .iter()
        .map(|col| col.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt())
        .collect();
    let s_max = norms.iter().fold(0.0f64, |m, &x| m.max(x));
    let mut order: Vec<usize> = (0..cols).collect();
    order.sort_by(|&i, &j| {
        norms[j]
            .partial_cmp(&norms[i])
            .expect("singular values are finite")
            .then(i.cmp(&j))
    });
    let kept: Vec<usize> = order
        .into_iter()
        .filter(|&j| norms[j] > RANK_FLOOR * s_max)
        .collect();
    if kept.is_empty() {
        // Zero matrix: `Matrix` cannot have zero dimensions, so return a
        // canonical rank-1 factorization with a zero singular value.
        let mut u = Matrix::zeros(rows, 1);
        u[(0, 0)] = C64::ONE;
        let mut vt = Matrix::zeros(1, cols);
        vt[(0, 0)] = C64::ONE;
        return Svd {
            u,
            s: vec![0.0],
            vt,
        };
    }

    let rank = kept.len();
    let mut u = Matrix::zeros(rows, rank);
    let mut vt = Matrix::zeros(rank, cols);
    let mut s = Vec::with_capacity(rank);
    for (k, &j) in kept.iter().enumerate() {
        let inv = 1.0 / norms[j];
        for i in 0..rows {
            u[(i, k)] = b[j][i].scale(inv);
        }
        for i in 0..cols {
            vt[(k, i)] = v[j][i].conj();
        }
        s.push(norms[j]);
    }
    Svd { u, s, vt }
}

/// Applies the unitary plane rotation
/// `(colp, colq) ← (cs·colp − sn·sp·colq, sn·colp + cs·sp·colq)`
/// to columns `p` and `q`, where `sp = e^{-iφ}` cancels the phase of the
/// Gram off-diagonal.
fn rotate_pair(cols: &mut [Vec<C64>], p: usize, q: usize, cs: f64, sn: f64, sp: C64) {
    debug_assert!(p < q);
    let (head, tail) = cols.split_at_mut(q);
    let cp = &mut head[p];
    let cq = &mut tail[0];
    for (x, y) in cp.iter_mut().zip(cq.iter_mut()) {
        let xp = *x;
        let yq = sp * *y;
        *x = xp.scale(cs) - yq.scale(sn);
        *y = xp.scale(sn) + yq.scale(cs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(f: &Svd) -> Matrix {
        let rank = f.rank();
        let rows = f.u.rows();
        let cols = f.vt.cols();
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                let mut acc = C64::ZERO;
                for k in 0..rank {
                    acc += f.u[(i, k)].scale(f.s[k]) * f.vt[(k, j)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    fn assert_reconstructs(a: &Matrix, tol: f64) {
        let f = svd(a);
        let r = reconstruct(&f);
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                let d = a[(i, j)] - r[(i, j)];
                assert!(
                    d.norm_sqr().sqrt() < tol,
                    "reconstruction off at ({i},{j}): {d:?}"
                );
            }
        }
    }

    fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64) * 2.0 - 1.0
        };
        let data: Vec<C64> = (0..rows * cols).map(|_| C64::new(next(), next())).collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn diagonal_real_matrix() {
        let a = Matrix::from_vec(
            2,
            2,
            vec![C64::real(3.0), C64::ZERO, C64::ZERO, C64::real(-2.0)],
        );
        let f = svd(&a);
        assert_eq!(f.rank(), 2);
        assert!((f.s[0] - 3.0).abs() < 1e-12);
        assert!((f.s[1] - 2.0).abs() < 1e-12);
        assert_reconstructs(&a, 1e-12);
    }

    #[test]
    fn random_square_reconstructs() {
        for seed in 0..8 {
            let a = lcg_matrix(6, 6, seed);
            assert_reconstructs(&a, 1e-10);
        }
    }

    #[test]
    fn random_tall_and_wide_reconstruct() {
        for seed in 0..4 {
            assert_reconstructs(&lcg_matrix(8, 3, seed), 1e-10);
            assert_reconstructs(&lcg_matrix(3, 8, seed + 100), 1e-10);
        }
    }

    #[test]
    fn factors_are_orthonormal() {
        let a = lcg_matrix(7, 4, 42);
        let f = svd(&a);
        let utu = f.u.adjoint().mul_mat(&f.u);
        let vvt = f.vt.mul_mat(&f.vt.adjoint());
        for m in [&utu, &vvt] {
            for i in 0..f.rank() {
                for j in 0..f.rank() {
                    let expect = if i == j { 1.0 } else { 0.0 };
                    let d = m[(i, j)] - C64::real(expect);
                    assert!(d.norm_sqr().sqrt() < 1e-12, "not orthonormal at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn rank_deficient_input_reveals_rank() {
        // Outer product → rank 1.
        let u = [C64::new(1.0, 0.5), C64::new(-0.25, 2.0), C64::real(0.75)];
        let v = [C64::new(0.5, -1.0), C64::new(2.0, 0.125)];
        let mut a = Matrix::zeros(3, 2);
        for i in 0..3 {
            for j in 0..2 {
                a[(i, j)] = u[i] * v[j];
            }
        }
        let f = svd(&a);
        assert_eq!(f.rank(), 1);
        assert_reconstructs(&a, 1e-12);
    }

    #[test]
    fn zero_matrix_yields_zero_singular_value() {
        let a = Matrix::zeros(3, 3);
        let f = svd(&a);
        assert_eq!(f.rank(), 1);
        assert_eq!(f.s[0], 0.0);
        assert_reconstructs(&a, 1e-15);
    }

    #[test]
    fn singular_values_are_sorted_descending() {
        let a = lcg_matrix(5, 5, 7);
        let f = svd(&a);
        for w in f.s.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }
}
