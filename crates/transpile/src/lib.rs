//! Quantum transpiler: layout, routing, basis translation, optimization.
//!
//! QuantumNAS co-searches circuits *with their qubit mapping*, so the
//! compiler is part of the search loop: the searched mapping becomes the
//! initial layout, SWAPs are inserted for the device coupling map, gates are
//! lowered to the IBM basis `{CX, SX, RZ, X}`, and peephole optimization
//! runs at Qiskit-style levels 0–3. This crate rebuilds that pipeline:
//!
//! - [`Layout`] — logical→physical maps: trivial, random, searched, and the
//!   noise-adaptive greedy baseline (Murali et al. style),
//! - [`route`] — SABRE-style swap insertion with a lookahead heuristic,
//! - [`to_ibm_basis`] — exact decomposition of the full gate library into
//!   the IBM basis, preserving symbolic (trainable/input) parameters as
//!   affine slots, with the U3 zero-parameter specializations of the
//!   paper's Table II,
//! - [`optimize`] — gate cancellation, rotation merging, and single-qubit
//!   resynthesis passes,
//! - [`transpile`] — the full pipeline producing a [`Transpiled`] circuit
//!   with compiled metrics (depth, gate counts) and measurement mapping,
//! - [`transpile_with`] / [`try_route`] — the same pipeline with typed
//!   [`TranspileError`] results and optional per-stage verification
//!   ([`qns_verify::PassContract`]) selected by [`TranspileOptions`].
//!
//! # Examples
//!
//! ```
//! use qns_circuit::{Circuit, GateKind};
//! use qns_noise::Device;
//! use qns_transpile::{transpile, Layout};
//!
//! let mut c = Circuit::new(3);
//! c.push(GateKind::H, &[0], &[]);
//! c.push(GateKind::CX, &[0, 2], &[]); // not adjacent on a line: needs a SWAP
//! let dev = Device::santiago();
//! let t = transpile(&c, &dev, &Layout::trivial(3), 2);
//! assert!(t.circuit.count_2q() >= 1);
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

mod basis;
mod error;
mod layout;
mod passes;
mod pipeline;
mod router;

pub use basis::{to_ibm_basis, zyz_angles};
pub use error::TranspileError;
pub use layout::Layout;
pub use passes::optimize;
pub use pipeline::{transpile, transpile_with, TranspileOptions, Transpiled};
pub use router::{route, try_route, RoutedCircuit};
