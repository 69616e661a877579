//! Parameterized quantum circuit intermediate representation.
//!
//! This crate defines the gate library and circuit IR shared by every other
//! crate in the QuantumNAS reproduction:
//!
//! - [`GateKind`] — the full gate set used by the paper's six design spaces
//!   (U3/CU3, ZZ+RY, RXYZ, ZX+XX, RXYZ+U1+CU3, and the IBMQ basis set), with
//!   analytic matrices *and* analytic parameter derivatives (for adjoint
//!   differentiation),
//! - [`Param`] — a parameter slot that is either a fixed constant, a
//!   per-sample input (data encoding), or a trainable parameter index,
//! - [`Circuit`] / [`Op`] — a flat gate list with structural metrics (depth,
//!   gate counts) used by the transpiler and the NAS search.
//!
//! # Examples
//!
//! Build a tiny trainable circuit and inspect it:
//!
//! ```
//! use qns_circuit::{Circuit, GateKind, Param};
//!
//! let mut c = Circuit::new(2);
//! c.push(GateKind::RX, &[0], &[Param::Input(0)]);
//! c.push(GateKind::RY, &[1], &[Param::Train(0)]);
//! c.push(GateKind::CX, &[0, 1], &[]);
//! assert_eq!(c.num_ops(), 3);
//! assert_eq!(c.depth(), 2);
//! assert_eq!(c.num_train_params(), 1);
//! ```

// The determinism bans in the workspace's clippy.toml hold in library code.
// No unwrap or panic either: this crate returns errors.
#![cfg_attr(
    not(test),
    forbid(clippy::disallowed_methods, clippy::disallowed_types),
    deny(
        clippy::allow_attributes_without_reason,
        clippy::unwrap_used,
        clippy::panic
    )
)]

mod circuit;
mod gates;
mod param;
mod qasm;
mod templates;

pub use circuit::{Circuit, Op};
pub use gates::{GateKind, GateMatrix};
pub use param::Param;
pub use qasm::to_qasm;
pub use templates::{basic_entangler_layers, random_layer, strongly_entangling_layers};
