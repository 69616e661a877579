//! Training-free proxy prescreening for the evolutionary co-search.
//!
//! Full candidate scoring (transpile + noisy simulation) caps the search's
//! population at the evaluation budget. Following AFTP-QAS ("Adaptive
//! Fusion of Training-free Proxies for Quantum Architecture Search"), this
//! crate estimates a candidate's rank *without* the estimator:
//!
//! - five [`Proxy`] implementations — structural depth/width, 2Q-gate
//!   topology cost under the candidate's qubit mapping (pure circuit
//!   analysis), expressibility and gradient-variance trainability (a
//!   handful of seeded simulator sweeps), and SNIP-style saliency from one
//!   batched adjoint pass,
//! - a [`FusionModel`] — per-proxy running normalization feeding
//!   softmax-gated linear experts, trained online against the full scores
//!   the estimator produces anyway, serialized through the checkpoint wire
//!   format so fused weights survive a kill/resume,
//! - a [`Prescreener`] — caches [`ProxyFeatures`] under the search's
//!   128-bit structural digests and picks which fraction of a generation
//!   escalates to full scoring.
//!
//! Everything here is deterministic: proxy randomness flows through
//! splitmix64 seeds derived from candidate digests, so proxy scores are
//! bitwise identical across worker counts and across kill/resume.

// The determinism bans in the workspace's clippy.toml hold in library code.
#![cfg_attr(
    not(test),
    forbid(clippy::disallowed_methods, clippy::disallowed_types),
    deny(clippy::allow_attributes_without_reason)
)]

mod fusion;
mod prescreen;
mod proxies;

pub use fusion::{FusionModel, NUM_EXPERTS};
pub use prescreen::{scalarize_objectives, Prescreener, PrescreenerState, ProxyOptions};
pub use proxies::{
    candidate_seed, compute_features, default_proxies, splitmix64, DepthWidth, Expressibility,
    Proxy, ProxyContext, ProxyFeatures, Snip, Trainability, TwoQTopology, NUM_PROXIES,
};
