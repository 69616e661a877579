//! The gate-sharing SuperCircuit and SubCircuit construction.

use crate::{DesignSpace, LayerArrangement, Task};
use qns_circuit::{Circuit, Param};

/// A SubCircuit architecture: how many blocks, and each layer's width.
///
/// `widths[block][layer]` is the number of gates kept in that layer
/// (1..=n_qubits); blocks beyond `n_blocks` are inactive but keep widths
/// for gene stability.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubConfig {
    /// Number of active blocks.
    pub n_blocks: usize,
    /// Per-block, per-layer gate counts.
    pub widths: Vec<Vec<usize>>,
}

impl SubConfig {
    /// The maximal architecture: all blocks at full width.
    pub fn maximal(space: &DesignSpace, n_qubits: usize, n_blocks: usize) -> Self {
        SubConfig {
            n_blocks,
            widths: vec![vec![n_qubits; space.layers_per_block().len()]; n_blocks],
        }
    }

    /// Number of layers that differ from `other` (counting depth-excluded
    /// layers as differing when widths differ) — the restricted-sampling
    /// distance.
    pub fn layer_distance(&self, other: &SubConfig) -> usize {
        let blocks = self.widths.len().max(other.widths.len());
        let mut diff = 0;
        for b in 0..blocks {
            let layers = self
                .widths
                .get(b)
                .map(Vec::len)
                .max(other.widths.get(b).map(Vec::len))
                .unwrap_or(0);
            for l in 0..layers {
                let wa = if b < self.n_blocks {
                    self.widths
                        .get(b)
                        .and_then(|x| x.get(l))
                        .copied()
                        .unwrap_or(0)
                } else {
                    0
                };
                let wb = if b < other.n_blocks {
                    other
                        .widths
                        .get(b)
                        .and_then(|x| x.get(l))
                        .copied()
                        .unwrap_or(0)
                } else {
                    0
                };
                if wa != wb {
                    diff += 1;
                }
            }
        }
        diff
    }
}

/// The gate-sharing SuperCircuit: the largest circuit in the design space,
/// whose parameters are shared by every SubCircuit.
///
/// Parameter layout is position-based: parameter indices are assigned to
/// `(block, layer, position, slot)` for the *full-width* circuit, and a
/// SubCircuit of width `w` references the first `w` positions of each
/// layer — so SubCircuits automatically share the "front blocks and front
/// gates" exactly as the paper describes.
///
/// # Examples
///
/// ```
/// use quantumnas::{DesignSpace, SpaceKind, SubConfig, SuperCircuit};
///
/// let space = DesignSpace::new(SpaceKind::U3Cu3);
/// let sc = SuperCircuit::new(space, 4, 2);
/// assert_eq!(sc.num_params(), 48); // 2 blocks × (4 U3 + 4 CU3) × 3
/// let full = sc.build(&sc.max_config(), None);
/// assert_eq!(full.num_train_params(), 48);
/// ```
#[derive(Clone, Debug)]
pub struct SuperCircuit {
    space: DesignSpace,
    n_qubits: usize,
    n_blocks: usize,
    n_params: usize,
}

impl SuperCircuit {
    /// Creates a SuperCircuit over `n_qubits` with `n_blocks` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits < 2` or `n_blocks == 0`.
    pub fn new(space: DesignSpace, n_qubits: usize, n_blocks: usize) -> Self {
        assert!(n_qubits >= 2, "need at least two qubits for ring layers");
        assert!(n_blocks >= 1, "need at least one block");
        let n_params = space.params_per_block(n_qubits) * n_blocks;
        SuperCircuit {
            space,
            n_qubits,
            n_blocks,
            n_params,
        }
    }

    /// The design space.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Maximum number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.n_blocks
    }

    /// Size of the shared parameter vector.
    pub fn num_params(&self) -> usize {
        self.n_params
    }

    /// The maximal SubCircuit configuration.
    pub fn max_config(&self) -> SubConfig {
        SubConfig::maximal(&self.space, self.n_qubits, self.n_blocks)
    }

    /// Shared-parameter base index for `(block, layer, position)`.
    fn param_base(&self, block: usize, layer: usize, position: usize) -> usize {
        let layers = self.space.layers_per_block();
        let per_block = self.space.params_per_block(self.n_qubits);
        let mut idx = block * per_block;
        for l in &layers[..layer] {
            idx += l.params_per_gate() * self.n_qubits;
        }
        idx + layers[layer].params_per_gate() * position
    }

    /// Builds the SubCircuit for `config`, optionally prefixed by a data
    /// `encoder` circuit (whose `Input` parameters pass through), with gate
    /// parameters referencing the shared SuperCircuit parameter vector.
    ///
    /// The returned circuit declares `num_train_params() ==
    /// self.num_params()` regardless of how many indices it references, so
    /// any SubCircuit evaluates directly against the shared vector.
    ///
    /// # Panics
    ///
    /// Panics if `config` exceeds the SuperCircuit's blocks/widths or the
    /// encoder width differs.
    pub fn build(&self, config: &SubConfig, encoder: Option<&Circuit>) -> Circuit {
        assert!(
            config.n_blocks >= 1 && config.n_blocks <= self.n_blocks,
            "block count out of range"
        );
        let mut c = Circuit::new(self.n_qubits);
        if let Some(enc) = encoder {
            assert_eq!(enc.num_qubits(), self.n_qubits, "encoder width mismatch");
            c.extend_from(enc);
        }
        // Fixed prefix layers (full width, no parameters in practice).
        for spec in self.space.prefix_layers() {
            for q in 0..self.n_qubits {
                assert_eq!(spec.params_per_gate(), 0, "prefix layers are fixed");
                c.push(spec.gate, &[q], &[]);
            }
        }
        for (b, block_widths) in config.widths[..config.n_blocks].iter().enumerate() {
            assert_eq!(
                block_widths.len(),
                self.space.layers_per_block().len(),
                "one width per layer"
            );
            for (l, (&width, spec)) in block_widths
                .iter()
                .zip(self.space.layers_per_block())
                .enumerate()
            {
                assert!(width <= self.n_qubits, "layer width out of range");
                let width = if self.space.elastic_width() {
                    width
                } else {
                    self.n_qubits
                };
                for pos in 0..width {
                    let base = self.param_base(b, l, pos);
                    let params: Vec<Param> = (0..spec.params_per_gate())
                        .map(|s| Param::Train(base + s))
                        .collect();
                    match spec.arrangement {
                        LayerArrangement::OneQubit => {
                            c.push(spec.gate, &[pos], &params);
                        }
                        LayerArrangement::Ring => {
                            let a = pos;
                            let t = (pos + 1) % self.n_qubits;
                            c.push(spec.gate, &[a, t], &params);
                        }
                    }
                }
            }
        }
        c.set_num_train_params(self.n_params);
        c
    }

    /// The circuit `config` denotes for `task`: the task's data encoder
    /// prepended for QML, the bare SubCircuit for VQE.
    ///
    /// # Panics
    ///
    /// Panics as [`SuperCircuit::build`] does.
    pub fn build_for(&self, config: &SubConfig, task: &Task) -> Circuit {
        match task {
            Task::Qml { encoder, .. } => self.build(config, Some(encoder)),
            Task::Vqe { .. } => self.build(config, None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpaceKind;

    fn sc(kind: SpaceKind, n_qubits: usize, blocks: usize) -> SuperCircuit {
        SuperCircuit::new(DesignSpace::new(kind), n_qubits, blocks)
    }

    #[test]
    fn max_config_uses_all_params() {
        for &kind in SpaceKind::all() {
            let s = sc(kind, 4, 2);
            let c = s.build(&s.max_config(), None);
            assert_eq!(c.referenced_train_indices().len(), s.num_params(), "{kind}");
        }
    }

    #[test]
    fn narrow_config_shares_front_gates() {
        let s = sc(SpaceKind::U3Cu3, 4, 2);
        let mut narrow = s.max_config();
        narrow.widths[0][0] = 2; // first U3 layer: only 2 gates
        let c = s.build(&narrow, None);
        let active = c.referenced_train_indices();
        // First layer params are 0..12 (4 gates × 3); keeping 2 gates keeps
        // indices 0..6 — the *front* gates.
        assert!(active.contains(&0) && active.contains(&5));
        assert!(!active.contains(&6) && !active.contains(&11));
        // Later layers are unaffected.
        assert!(active.contains(&12));
    }

    #[test]
    fn depth_sharing_keeps_front_blocks() {
        let s = sc(SpaceKind::ZzRy, 4, 3);
        let mut shallow = s.max_config();
        shallow.n_blocks = 1;
        let active = s.build(&shallow, None).referenced_train_indices();
        let per_block = s.space().params_per_block(4);
        assert!(active.iter().all(|&i| i < per_block));
        assert_eq!(active.len(), per_block);
    }

    #[test]
    fn built_circuit_declares_full_param_width() {
        let s = sc(SpaceKind::U3Cu3, 4, 3);
        let mut shallow = s.max_config();
        shallow.n_blocks = 1;
        let c = s.build(&shallow, None);
        assert_eq!(c.num_train_params(), s.num_params());
    }

    #[test]
    fn encoder_is_prepended() {
        let s = sc(SpaceKind::U3Cu3, 4, 1);
        let enc = qns_data::encoder_4x4();
        let c = s.build(&s.max_config(), Some(&enc));
        assert_eq!(c.num_inputs(), 16);
        assert_eq!(c.ops()[0].kind, qns_circuit::GateKind::RX);
    }

    #[test]
    fn ibmq_basis_ignores_width_gene() {
        let s = sc(SpaceKind::IbmqBasis, 4, 2);
        let mut narrow = s.max_config();
        narrow.widths[0][0] = 1;
        let full = s.build(&s.max_config(), None);
        let narrowed = s.build(&narrow, None);
        assert_eq!(full.num_ops(), narrowed.num_ops());
    }

    #[test]
    fn rxyz_prefix_layer_present() {
        let s = sc(SpaceKind::Rxyz, 4, 1);
        let c = s.build(&s.max_config(), None);
        assert_eq!(c.count_kind(qns_circuit::GateKind::SH), 4);
    }

    #[test]
    fn layer_distance_counts_changes() {
        let s = sc(SpaceKind::U3Cu3, 4, 2);
        let a = s.max_config();
        let mut b = s.max_config();
        assert_eq!(a.layer_distance(&b), 0);
        b.widths[0][0] = 2;
        b.widths[1][1] = 1;
        assert_eq!(a.layer_distance(&b), 2);
        // Depth change counts the dropped block's layers.
        let mut c = s.max_config();
        c.n_blocks = 1;
        assert_eq!(a.layer_distance(&c), 2);
    }

    #[test]
    fn param_layout_is_contiguous_per_gate() {
        let s = sc(SpaceKind::U3Cu3, 4, 1);
        let c = s.build(&s.max_config(), None);
        // First op is U3 on qubit 0 with params 0, 1, 2.
        let op = &c.ops()[0];
        assert_eq!(op.params[0], Param::Train(0));
        assert_eq!(op.params[2], Param::Train(2));
    }

    #[test]
    #[should_panic(expected = "block count out of range")]
    fn too_many_blocks_panics() {
        let s = sc(SpaceKind::U3Cu3, 4, 2);
        let mut cfg = s.max_config();
        cfg.n_blocks = 5;
        let _ = s.build(&cfg, None);
    }
}
