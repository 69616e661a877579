//! Differentiable state-vector simulator.
//!
//! This crate is the reproduction's analogue of the paper's *QuantumEngine*:
//! a fast simulator for parameterized quantum circuits with
//!
//! - **dynamic mode** — every gate is applied to the state vector one at a
//!   time (easy to debug, exact per-gate states), and
//! - **static mode** — gates are fused into 2×2 / 4×4 blocks before being
//!   applied (fusion v2: commuting-window merging + trailing absorption),
//!   cutting the number of state-vector sweeps (the paper reports ~2× from
//!   this; see `microbench engine` and `microbench sim` in `qns-bench`),
//! - **two backends** — [`SimBackend::Fast`] (structure-specialized,
//!   cache-blocked kernels; the default) and [`SimBackend::Reference`] (the
//!   original naive per-gate kernels, kept as the differential-test oracle),
//! - **plan replay** — [`SimPlan`] compiles the fusion structure once and
//!   re-materializes only dirty blocks across shifted parameter sets or new
//!   encoded inputs,
//! - **batched multi-state execution** — [`StateBatch`] packs B state
//!   vectors structure-of-arrays (amplitude-major, batch-contiguous lanes)
//!   so every shared gate is applied once across the whole minibatch, with
//!   per-lane kernels for input-encoder steps and per-trajectory noise;
//!   [`expect_z_batch`] is the one noise-free batched forward pass (every
//!   input's `<Z>` on any backend), and [`adjoint_gradient_batch`] runs a
//!   whole minibatch's adjoint gradient in one sweep, where every
//!   trainable slot, mixed with input slots or not, projects against one
//!   all-lanes transfer sweep per op,
//! - **exact gradients** via reverse-mode *adjoint differentiation* (one
//!   forward + one backward sweep for all parameters) and the
//!   *parameter-shift* rule (the paper's hardware-compatible alternative),
//! - Pauli-Z expectations, weighted-Z observables, and shot sampling,
//! - **the workspace's one worker pool** — [`parallel_map`] for per-sample
//!   maps and [`try_parallel_map`] for panic-isolated candidate and
//!   trajectory batches share one persistent set of threads; a map started
//!   inside the item of a map that fanned out runs inline.
//!
//! # Examples
//!
//! ```
//! use qns_circuit::{Circuit, GateKind};
//! use qns_sim::{run, ExecMode};
//!
//! let mut c = Circuit::new(2);
//! c.push(GateKind::H, &[0], &[]);
//! c.push(GateKind::CX, &[0, 1], &[]);
//! let state = run(&c, &[], &[], ExecMode::Dynamic);
//! // Bell state: <Z0> = 0.
//! assert!(state.expect_z(0).abs() < 1e-12);
//! ```

mod exec;
mod grad;
mod mps;
mod plan;
mod pool;
mod state;
mod state_batch;

pub use exec::{
    expect_z_batch, run, run_into, run_into_with, run_mps, run_with, ExecMode, FusedOp, SimBackend,
};
pub use grad::{
    adjoint_gradient, adjoint_gradient_batch, numeric_gradient, parameter_shift_gradient,
    shifted_expectations, DiagObservable, Observable,
};
pub use mps::{mps_stats, reset_mps_stats, MpsConfig, MpsState, MpsStats};
pub use plan::{SimPlan, DEFAULT_FUSION_LEVEL};
pub use pool::{parallel_map, parallel_map_with, set_parallelism, try_parallel_map};
pub use state::{counts_to_expect_z, StateVec};
pub use state_batch::{StateBatch, DEFAULT_BATCH_LANES, LANE_CHUNK};
