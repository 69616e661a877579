//! Rule-based circuit/IR verification and transpiler pass contracts.
//!
//! QuantumNAS runs the transpiler *inside* the search loop: the searched
//! layout, SWAP routing, and basis lowering all execute per candidate, so a
//! silent miscompile corrupts every search result instead of one circuit.
//! This crate is the guard rail:
//!
//! - [`verify_circuit`], [`verify_coupling`], [`verify_basis`],
//!   [`verify_measurement_map`] — total, panic-free rule checks over the
//!   circuit IR, producing [`Diagnostic`]s with stable rule codes (`QV001`…)
//!   suitable for logs and CI baselines,
//! - [`PassContract`] — per-stage transpile invariants (layout validity,
//!   routing legality via SWAP replay, basis conformance, parameter
//!   preservation, measurement-map validity) plus an optional
//!   unitary-equivalence spot check for small circuits (`QC1xx` codes),
//! - [`VerifyLevel`] — how much of this a transpile run performs; `Off`
//!   costs nothing,
//! - [`PANIC_MARKER`] — prefix for verification failures that must cross a
//!   panic boundary (the runtime's panic-isolating engine), so callers can
//!   count contract violations separately from crashes.
//!
//! # Examples
//!
//! ```
//! use qns_circuit::{Circuit, GateKind};
//! use qns_verify::{verify_coupling, Rule};
//!
//! let dev = qns_noise::Device::santiago(); // line 0-1-2-3-4
//! let mut c = Circuit::new(5);
//! c.push(GateKind::CX, &[0, 4], &[]); // not coupled
//! let report = verify_coupling(&c, &dev, None);
//! assert_eq!(report.diagnostics[0].rule, Rule::UncoupledGate);
//! assert_eq!(report.diagnostics[0].rule.code(), "QV007");
//! ```

#![warn(missing_docs)]
// The determinism bans in the workspace's clippy.toml hold in library code.
#![cfg_attr(
    not(test),
    forbid(clippy::disallowed_methods, clippy::disallowed_types),
    deny(clippy::allow_attributes_without_reason)
)]

mod contract;
mod diag;
mod rules;

pub use contract::{PassContract, VerifyLevel, EQUIV_MAX_QUBITS};
pub use diag::{Diagnostic, Location, Rule, VerifyError, VerifyReport, PANIC_MARKER};
pub use rules::{
    sample_input, sample_train, verify_basis, verify_circuit, verify_coupling,
    verify_measurement_map, IBM_BASIS,
};
