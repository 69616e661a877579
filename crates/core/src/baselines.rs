//! The paper's baseline circuit designs: human and random.

use crate::{SubConfig, SuperCircuit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's human-design baseline: full-width front blocks, with the
/// last block's layers trimmed so the total trainable-parameter count is
/// as close as possible to (without exceeding) `target_params`.
///
/// Returns the [`SubConfig`] within the same SuperCircuit so parameters
/// remain comparable.
///
/// # Panics
///
/// Panics if `target_params` is smaller than one single-gate layer.
///
/// # Examples
///
/// ```
/// use quantumnas::{human_design, DesignSpace, SpaceKind, SuperCircuit};
/// let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 8);
/// let cfg = human_design(&sc, 36);
/// let circuit = sc.build(&cfg, None);
/// assert!(circuit.referenced_train_indices().len() <= 36);
/// ```
pub fn human_design(sc: &SuperCircuit, target_params: usize) -> SubConfig {
    assert!(target_params >= 1, "need a positive parameter budget");
    let n_qubits = sc.num_qubits();
    let layers = sc.space().layers_per_block();
    let mut widths = vec![vec![0usize; layers.len()]; sc.num_blocks()];
    let mut used = 0usize;
    let mut active_blocks = 0usize;
    let mut exhausted = false;
    #[allow(
        clippy::needless_range_loop,
        reason = "`b` is a block index used in two tables"
    )]
    for b in 0..sc.num_blocks() {
        if exhausted {
            break;
        }
        let mut block_used = false;
        for (l, spec) in layers.iter().enumerate() {
            let per_gate = spec.params_per_gate();
            if per_gate == 0 {
                // Fixed layers are free: full width, as in the paper's
                // human designs.
                widths[b][l] = n_qubits;
                block_used = true;
                continue;
            }
            let afford = ((target_params - used) / per_gate).min(n_qubits);
            widths[b][l] = afford;
            used += afford * per_gate;
            if afford > 0 {
                block_used = true;
            }
            if afford < n_qubits {
                exhausted = true;
            }
        }
        if block_used && widths[b].iter().any(|&w| w > 0) {
            active_blocks = b + 1;
        }
        if exhausted {
            break;
        }
    }
    SubConfig {
        n_blocks: active_blocks.max(1),
        widths,
    }
}

/// The paper's random baseline: a uniformly random architecture whose
/// parameter count is constrained to `target_params` (within one gate's
/// worth); the paper generates three and reports the best — callers vary
/// `seed` for that.
pub fn random_design(sc: &SuperCircuit, target_params: usize, seed: u64) -> SubConfig {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4A17D0);
    let n_qubits = sc.num_qubits();
    let layers = sc.space().layers_per_block();
    let count = |cfg: &SubConfig| -> usize {
        cfg.widths[..cfg.n_blocks]
            .iter()
            .map(|block| {
                block
                    .iter()
                    .zip(layers)
                    .map(|(&w, spec)| w * spec.params_per_gate())
                    .sum::<usize>()
            })
            .sum()
    };
    // Rejection-style: sample, then repair toward the target.
    let mut best: Option<SubConfig> = None;
    for _ in 0..200 {
        let mut cfg = SubConfig {
            n_blocks: rng.gen_range(1..=sc.num_blocks()),
            widths: (0..sc.num_blocks())
                .map(|_| {
                    (0..layers.len())
                        .map(|_| rng.gen_range(1..=n_qubits))
                        .collect()
                })
                .collect(),
        };
        // Shrink while over target.
        let mut guard = 0;
        while count(&cfg) > target_params && guard < 1000 {
            guard += 1;
            let b = rng.gen_range(0..cfg.n_blocks);
            let l = rng.gen_range(0..layers.len());
            if layers[l].params_per_gate() > 0 && cfg.widths[b][l] > 1 {
                cfg.widths[b][l] -= 1;
            } else if cfg.n_blocks > 1 && rng.gen_bool(0.2) {
                cfg.n_blocks -= 1;
            }
        }
        let c = count(&cfg);
        let best_c = best.as_ref().map(&count).unwrap_or(0);
        if c <= target_params && c > best_c {
            best = Some(cfg);
        }
        if best_c == target_params {
            break;
        }
    }
    best.expect("rejection sampling finds a design")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DesignSpace, SpaceKind};

    fn param_count(sc: &SuperCircuit, cfg: &SubConfig) -> usize {
        sc.build(cfg, None).referenced_train_indices().len()
    }

    #[test]
    fn human_design_hits_target_in_u3cu3() {
        let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 8);
        for target in [12, 24, 36, 48] {
            let cfg = human_design(&sc, target);
            let n = param_count(&sc, &cfg);
            assert!(n <= target, "target {target}: got {n}");
            assert!(n >= target.saturating_sub(6), "target {target}: got {n}");
        }
    }

    #[test]
    fn human_design_fills_front_blocks_first() {
        let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 8);
        let cfg = human_design(&sc, 48); // exactly two full blocks
        assert_eq!(cfg.n_blocks, 2);
        assert_eq!(cfg.widths[0], vec![4, 4]);
        assert_eq!(cfg.widths[1], vec![4, 4]);
    }

    #[test]
    fn human_design_works_in_low_param_spaces() {
        let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::ZzRy), 4, 8);
        let cfg = human_design(&sc, 7); // the paper's Vowel-4 ZZ+RY count
        let n = param_count(&sc, &cfg);
        assert!((5..=7).contains(&n), "got {n}");
    }

    #[test]
    fn random_design_respects_budget_and_varies() {
        let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 8);
        let a = random_design(&sc, 36, 0);
        let b = random_design(&sc, 36, 1);
        assert!(param_count(&sc, &a) <= 36);
        assert!(param_count(&sc, &b) <= 36);
        assert!(param_count(&sc, &a) >= 24, "uses most of the budget");
        assert_ne!(a, b, "different seeds give different designs");
    }

    #[test]
    fn designs_build_valid_circuits_in_every_space() {
        for &kind in SpaceKind::all() {
            let sc = SuperCircuit::new(DesignSpace::new(kind), 4, 4);
            let budget = sc.space().params_per_block(4).max(4) * 2;
            let h = human_design(&sc, budget);
            let r = random_design(&sc, budget, 3);
            assert!(sc.build(&h, None).num_ops() > 0, "{kind}");
            assert!(sc.build(&r, None).num_ops() > 0, "{kind}");
        }
    }
}
