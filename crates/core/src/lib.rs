//! QuantumNAS: noise-adaptive co-search of variational quantum circuits
//! and qubit mappings (Wang et al., HPCA 2022).
//!
//! The pipeline (paper Figure 5):
//!
//! 1. **SuperCircuit training** — a gate-sharing SuperCircuit spanning the
//!    design space is trained once by sampling SubCircuits per step
//!    ([`SuperCircuit`], [`Sampler`] with progressive shrinking and
//!    restricted sampling, [`train_supercircuit`]).
//! 2. **Noise-adaptive evolutionary co-search** — a genetic algorithm over
//!    (SubCircuit, qubit-mapping) genes, scored by a noise-aware
//!    [`Estimator`] with parameters inherited from the SuperCircuit
//!    ([`evolutionary_search`]).
//! 3. **From-scratch training** of the searched SubCircuit
//!    ([`train_task`]).
//! 4. **Iterative pruning** of small-magnitude angles with finetuning
//!    ([`iterative_prune`]).
//! 5. **Compile & deploy** — transpile with the searched mapping and
//!    evaluate on the noisy device model ([`Estimator::test_accuracy`]).
//!
//! Every stage is also exposed separately so the benchmark harness can
//! reproduce each table and figure of the paper.
//!
//! # Examples
//!
//! End-to-end on a tiny task (see `examples/quickstart.rs` for a fuller
//! version):
//!
//! ```no_run
//! use quantumnas::{QuantumNas, QuantumNasConfig, SpaceKind, Task};
//! use qns_noise::Device;
//!
//! let task = Task::qml_digits(&[3, 6], 60, 4, 0);
//! let nas = QuantumNas::new(
//!     SpaceKind::U3Cu3,
//!     Device::yorktown(),
//!     task,
//!     QuantumNasConfig::fast(),
//! );
//! let report = nas.run(0);
//! println!("measured accuracy: {:.3}", report.final_accuracy);
//! ```

// The determinism bans in the workspace's clippy.toml hold in library code.
#![cfg_attr(
    not(test),
    forbid(clippy::disallowed_methods, clippy::disallowed_types),
    deny(clippy::allow_attributes_without_reason)
)]

mod analysis;
mod baselines;
mod checkpoint;
mod cost;
mod estimator;
mod feature_map;
mod hardware;
mod pareto;
mod pipeline;
mod prune;
mod runtime;
mod sampler;
mod search;
mod space;
mod supercircuit;
mod task;
mod train;

pub use analysis::{barren_plateau_scan, gradient_variance, plateau_relief, PlateauPoint};
pub use baselines::{human_design, random_design};
pub use checkpoint::{
    BackendConfig, CheckpointOptions, PruneCheckpoint, SearchCheckpoint, TrainCheckpoint,
};
pub use cost::RunCost;
pub use estimator::{Estimator, EstimatorKind};
pub use feature_map::{
    axis_encoder, encoder_catalogue, search_feature_map, EncoderVariant, FeatureMapResult,
};
pub use hardware::{train_qml_on_device, train_vqe_on_device, OnDeviceTrainConfig};
pub use pareto::{
    crowding_distance, dominates, evolutionary_search_pareto_rt, front_json, hypervolume,
    match_front_to_device, non_dominated_sort, normalize_objectives, parse_objectives,
    selection_order, FrontPoint, Objective, ParetoSearchResult,
};
pub use pipeline::{QuantumNas, QuantumNasConfig, Report};
pub use prune::{iterative_prune, iterative_prune_rt, polynomial_ratio, PruneConfig, PruneResult};
pub use runtime::{
    gene_key, hash_circuit, hash_device, hash_estimator_kind, search_context_key, transpile_key,
    BatchOutcome, RuntimeOptions, SearchRuntime,
};
pub use sampler::{Sampler, SamplerConfig};
pub use search::{
    evolutionary_search, evolutionary_search_seeded, evolutionary_search_seeded_rt, random_search,
    random_search_rt, EvoConfig, Gene, SearchResult,
};
pub use space::{DesignSpace, LayerArrangement, LayerSpec, SpaceKind};
pub use supercircuit::{SubConfig, SuperCircuit};
pub use task::{Readout, Task};
pub use train::{
    eval_task, inherited_eval, train_supercircuit, train_supercircuit_rt, train_task, Split,
    SuperTrainConfig, TrainConfig,
};

// The fault-injection surface, re-exported so tests and the CLI don't
// need a direct qns-runtime dependency.
pub use qns_runtime::{FaultPlan, FAULT_MARKER};

// The proxy-prescreening surface, re-exported for the same reason:
// `ProxyOptions` rides on `EvoConfig`, and the bench/test harnesses drive
// the prescreener directly.
pub use qns_proxy::{
    candidate_seed, compute_features, scalarize_objectives, FusionModel, Prescreener,
    PrescreenerState, Proxy, ProxyContext, ProxyFeatures, ProxyOptions,
};
