//! Complex arithmetic and small dense linear algebra for quantum simulation.
//!
//! This crate is the numeric foundation of the QuantumNAS reproduction. It
//! provides:
//!
//! - [`C64`], a `Copy` double-precision complex number with the full set of
//!   arithmetic operators,
//! - [`Mat2`] and [`Mat4`], stack-allocated 2×2 and 4×4 complex matrices used
//!   for one- and two-qubit unitaries,
//! - [`Matrix`], a heap-allocated dense complex matrix for tooling (transpiler
//!   resynthesis, chemistry),
//! - [`sym_eigen`], a Jacobi eigensolver for small real-symmetric matrices
//!   (used by PCA and by the chemistry substrate's exact diagonalization of
//!   tiny Hamiltonians),
//! - [`svd`], a one-sided Jacobi singular value decomposition for complex
//!   matrices (the bond-splitting primitive of the MPS simulator).
//!
//! # Examples
//!
//! ```
//! use qns_tensor::{C64, Mat2};
//!
//! let h = Mat2::hadamard();
//! let ket0 = [C64::ONE, C64::ZERO];
//! let psi = h.mul_vec(&ket0);
//! assert!((psi[0].re - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
//! ```

// The determinism bans in the workspace's clippy.toml hold in library code.
#![cfg_attr(
    not(test),
    forbid(clippy::disallowed_methods, clippy::disallowed_types),
    deny(clippy::allow_attributes_without_reason)
)]

mod c64;
mod linalg;
mod mat;
mod svd;

pub use c64::C64;
pub use linalg::{sym_eigen, SymEigen};
pub use mat::{Mat2, Mat4, Matrix};
pub use svd::{svd, Svd};

/// Tolerance used by approximate comparisons throughout the workspace.
pub const EPS: f64 = 1e-9;

/// Returns `true` if two floats agree to within [`EPS`].
///
/// # Examples
///
/// ```
/// assert!(qns_tensor::approx_eq(1.0, 1.0 + 1e-12));
/// assert!(!qns_tensor::approx_eq(1.0, 1.1));
/// ```
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() < EPS
}
