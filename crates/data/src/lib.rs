//! Seeded synthetic QML datasets and rotation-gate data encoders.
//!
//! The paper evaluates on MNIST, Fashion-MNIST, and the Deterding vowel
//! dataset. Those datasets are not redistributable inside this repository,
//! so this crate generates **class-structured synthetic analogues** that
//! exercise exactly the same pipeline (see `DESIGN.md` for the substitution
//! argument):
//!
//! - [`synthetic_digits`] — 28×28 grayscale images drawn from per-digit
//!   stroke templates (seven-segment-style skeletons) with random
//!   translation, stroke jitter, and pixel noise,
//! - [`synthetic_fashion`] — 28×28 garment silhouettes (t-shirt, trouser,
//!   pullover, dress, shirt) with the same augmentations,
//! - [`synthetic_vowel`] — 10-dimensional formant-like Gaussian clusters
//!   (990 samples, matching the paper's dataset size),
//!
//! plus the paper's exact preprocessing ([`center_crop`], [`avg_pool`]) and
//! the encoder circuits of Section IV-A ([`encoder_4x4`], [`encoder_6x6`],
//! [`encoder_vowel`]).
//!
//! # Examples
//!
//! ```
//! use qns_data::{synthetic_digits, image_to_input, encoder_4x4};
//!
//! let ds = synthetic_digits(&[3, 6], 20, 7);
//! assert_eq!(ds.num_samples(), 40);
//! let x = image_to_input(&ds.features[0], 4);
//! assert_eq!(x.len(), 16);
//! let enc = encoder_4x4();
//! assert_eq!(enc.num_inputs(), 16);
//! ```

// The determinism bans in the workspace's clippy.toml hold in library code.
#![cfg_attr(
    not(test),
    forbid(clippy::disallowed_methods, clippy::disallowed_types),
    deny(clippy::allow_attributes_without_reason)
)]

mod dataset;
mod encoder;
mod preprocess;
mod synth;

pub use dataset::{Dataset, Splits};
pub use encoder::{encoder_4x4, encoder_6x6, encoder_vowel};
pub use preprocess::{avg_pool, center_crop, image_to_input, normalize_to_angles};
pub use synth::{synthetic_digits, synthetic_fashion, synthetic_vowel};
