//! `qns-runtime` — the caching, telemetry and crash-safety substrate
//! behind every search-style workload in the QuantumNAS reproduction.
//!
//! The evolutionary co-search (paper Section III-C) evaluates hundreds of
//! (architecture, mapping) genes per run; each evaluation is a transpile
//! plus a simulation. Candidates fan out over `qns_sim::try_parallel_map`,
//! the workspace's one worker pool (work stealing, in-order results,
//! per-candidate panic isolation). This crate owns the layers around
//! that loop:
//!
//! 1. **Content-addressed caching** — [`StructuralHasher`] produces
//!    deterministic 128-bit digests over structured content (sub-circuit
//!    config, layout, device fingerprint, opt level), keying a
//!    [`DigestCache`] used for both the transpile cache and the
//!    gene-level score memo.
//! 2. **[`Metrics`] telemetry** — counters, the three [`timers`] as log₂
//!    duration histograms, a structured per-generation event log, and a
//!    text [`Metrics::summary`] report (evaluations, cache hit rates,
//!    transpile vs. simulate wall time, evals/sec).
//! 3. **Crash safety** — one little-endian wire codec
//!    ([`Checkpointable`], implemented per struct by [`checkpointable!`])
//!    whose bytes go to a snapshot or a digest through one [`Sink`], a
//!    versioned, crc-guarded snapshot format with atomic write-rename
//!    ([`CheckpointStore`], [`Snapshot`]) and a deterministic
//!    fault-injection schedule ([`FaultPlan`]) so recovery paths are
//!    testable, not just claimed.
//!
//! The crate is dependency-free, spawns no threads, and is domain-agnostic:
//! it works on hashes and closures. The `quantumnas` core crate layers the
//! wire structs, the score memo (keyed on each gene's codec bytes), and
//! estimator integration on top.
//!
//! # Examples
//!
//! ```
//! use qns_runtime::{DigestCache, Metrics, StructuralHasher};
//!
//! let cache: DigestCache<f64> = DigestCache::new();
//! let metrics = Metrics::new();
//!
//! let candidates = vec![1u64, 2, 3, 2, 1];
//! let scores: Vec<f64> = candidates
//!     .iter()
//!     .map(|&c| {
//!         let mut h = StructuralHasher::new();
//!         h.write_u64(c);
//!         *cache.get_or_insert_with(h.finish(), || {
//!             metrics.incr("evaluations", 1);
//!             (c * c) as f64
//!         })
//!     })
//!     .collect();
//! assert_eq!(scores, vec![1.0, 4.0, 9.0, 4.0, 1.0]);
//! assert_eq!(metrics.counter("evaluations"), 3); // duplicates memoized
//! ```

// The determinism bans in the workspace's clippy.toml hold in library code.
// Wall time is read only by the telemetry registry: every other module
// forbids it.
#![cfg_attr(
    not(test),
    forbid(clippy::disallowed_methods),
    deny(clippy::disallowed_types, clippy::allow_attributes_without_reason)
)]

#[cfg_attr(not(test), forbid(clippy::disallowed_types))]
mod cache;
#[cfg_attr(not(test), forbid(clippy::disallowed_types))]
mod checkpoint;
#[cfg_attr(not(test), forbid(clippy::disallowed_types))]
mod fault;
mod telemetry;

pub use cache::{CacheKey, DigestCache, StructuralHasher};
pub use checkpoint::{
    crc32, decode_snapshot, encode_snapshot, ByteReader, ByteWriter, CheckpointError,
    CheckpointStore, Checkpointable, Sink, Snapshot, EXTENSION, FORMAT_VERSION, MAGIC,
};
pub use fault::{FaultPlan, FAULT_MARKER};
pub use telemetry::{counters, timers, GenerationEvent, Histogram, Metrics};
