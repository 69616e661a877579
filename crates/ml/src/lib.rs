//! Classical machine-learning utilities for hybrid quantum-classical
//! training.
//!
//! The paper trains variational circuits with Adam (initial LR 5e-3, weight
//! decay 1e-4), a cosine learning-rate schedule with linear warmup, and a
//! softmax cross-entropy loss over Pauli-Z expectations; it evaluates
//! estimator quality with Spearman's rank correlation and preprocesses the
//! vowel dataset with PCA. This crate implements all of those pieces:
//!
//! - [`Adam`] — Adam with decoupled weight decay,
//! - [`CosineSchedule`] — cosine decay with linear warmup,
//! - [`softmax`], [`nll_loss`], [`cross_entropy_grad`] — classification
//!   loss and its gradient with respect to the logits,
//! - [`spearman`], [`pearson`] — correlation statistics,
//! - [`Pca`] — principal component analysis via the Jacobi eigensolver.
//!
//! # Examples
//!
//! ```
//! use qns_ml::{softmax, Adam, AdamConfig};
//!
//! let p = softmax(&[1.0, 1.0]);
//! assert!((p[0] - 0.5).abs() < 1e-12);
//!
//! let mut opt = Adam::new(2, AdamConfig::default());
//! let mut params = vec![1.0, -1.0];
//! // One step against gradient = params drives both toward zero.
//! let grads = params.clone();
//! opt.step(&mut params, &grads, 5e-3);
//! assert!(params[0] < 1.0 && params[1] > -1.0);
//! ```

// The determinism bans in the workspace's clippy.toml hold in library code.
#![cfg_attr(
    not(test),
    forbid(clippy::disallowed_methods, clippy::disallowed_types),
    deny(clippy::allow_attributes_without_reason)
)]

mod loss;
mod optim;
mod pca;
mod schedule;
mod stats;

pub use loss::{accuracy, cross_entropy_grad, nll_loss, softmax};
pub use optim::{Adam, AdamConfig};
pub use pca::Pca;
pub use schedule::CosineSchedule;
pub use stats::{mean, pearson, spearman, std_dev};
