//! Quantum noise: error channels, synthetic device models, Monte-Carlo
//! trajectory execution, and the success-rate estimator.
//!
//! The QuantumNAS paper evaluates circuits against IBMQ calibration noise
//! models containing depolarizing, thermal-relaxation, and readout (SPAM)
//! errors. This crate rebuilds that stack from scratch:
//!
//! - [`KrausChannel`] — one- and two-qubit error channels with stochastic
//!   (trajectory) unraveling,
//! - [`Device`] — ten synthetic quantum computers mirroring the paper's
//!   machines (same qubit counts, coupling topologies and calibration-data
//!   magnitudes; see `DESIGN.md` for the substitution argument),
//! - a private noise model (`model.rs`) yielding each gate and then the
//!   channels the device applies after it; every noisy engine loops over it,
//! - [`TrajectoryExecutor`] — noisy circuit execution by averaging Kraus
//!   trajectories, with readout-error-adjusted expectations (one input, or
//!   many inputs' trajectories batched as one set of lanes), masked parities
//!   (one circuit, or several compiled circuits — a VQE candidate's
//!   measurement groups — packed into shared lane chunks that run the op
//!   prefix the circuits share once; see [`MaskedCircuit`]) and shot
//!   sampling,
//! - [`circuit_success_rate`] / [`augmented_loss`] — the paper's fast second
//!   estimator: noise-free loss divided by the product of per-gate success
//!   rates,
//! - [`DriftingDevice`] — a slow random walk over calibration data, used to
//!   reproduce the noise-drift effect in Table VI.
//!
//! # Examples
//!
//! ```
//! use qns_noise::Device;
//! let dev = Device::yorktown();
//! assert_eq!(dev.num_qubits(), 5);
//! assert!(dev.err_2q(0, 2) > 0.0);
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

mod channel;
mod density;
mod device;
mod drift;
mod mitigation;
mod model;
mod success;
mod trajectory;

pub use channel::KrausChannel;
pub use density::{density_expect_masks, density_expect_z, DensityMatrix};
pub use device::{Device, QubitCalib, Topology};
pub use drift::DriftingDevice;
pub use mitigation::ReadoutMitigator;
pub use success::{augmented_loss, circuit_success_rate};
pub use trajectory::{MaskedCircuit, NoisyResult, TrajectoryConfig, TrajectoryExecutor};
