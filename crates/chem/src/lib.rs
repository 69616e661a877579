//! Molecular Hamiltonian substrate for VQE.
//!
//! The paper's VQE benchmarks need qubit Hamiltonians for H₂, LiH, H₂O,
//! CH₄ (6- and 10-qubit encodings) and BeH₂ (15 qubits), produced in the
//! original work by quantum-chemistry toolchains plus the Bravyi-Kitaev
//! transform. This crate rebuilds the whole path:
//!
//! - [`PauliString`] / [`PauliSum`] — symplectic Pauli algebra with exact
//!   phase tracking, state application, and expectation values,
//! - [`FermionOp`] — second-quantized operators (`a†`/`a` products),
//! - [`jordan_wigner`] / [`bravyi_kitaev`] — both fermion-to-qubit
//!   mappings, cross-validated against each other (isospectrality),
//! - [`Molecule`] — H₂ with published STO-3G coefficients (ground energy
//!   ≈ −1.85, the paper's "theoretical optimal"), and seeded synthetic
//!   electronic-structure Hamiltonians at the paper's qubit counts for the
//!   larger molecules (see `DESIGN.md`),
//! - [`ground_state_energy`] — exact minimum eigenvalue by Lanczos
//!   iteration on the Pauli-sum matvec,
//! - [`qwc_groups`] — qubit-wise-commuting measurement grouping with basis
//!   rotation circuits (how hardware estimates `<H>` from Z-basis shots),
//! - [`uccsd_ansatz`] — the UCCSD baseline ansatz as Pauli-exponential
//!   circuits.
//!
//! # Examples
//!
//! ```
//! use qns_chem::Molecule;
//! let h2 = Molecule::h2();
//! assert_eq!(h2.num_qubits(), 2);
//! let e = qns_chem::ground_state_energy(h2.hamiltonian(), 2);
//! assert!((e + 1.85).abs() < 0.02);
//! ```

// The determinism bans in the workspace's clippy.toml hold in library code.
#![cfg_attr(
    not(test),
    forbid(clippy::disallowed_methods, clippy::disallowed_types),
    deny(clippy::allow_attributes_without_reason)
)]

mod fermion;
mod groundstate;
mod grouping;
mod mapping;
mod molecules;
mod pauli;
mod uccsd;

pub use fermion::{FermionOp, FermionSum};
pub use groundstate::ground_state_energy;
pub use grouping::{qwc_groups, MeasurementGroup};
pub use mapping::{bravyi_kitaev, jordan_wigner};
pub use molecules::Molecule;
pub use pauli::{PauliString, PauliSum};
pub use uccsd::{pauli_exponential, uccsd_ansatz};
