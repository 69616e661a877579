//! Static execution plans: fusion structure compiled once per circuit,
//! materialized per parameter set, and replayed with dirty-step tracking.
//!
//! A [`SimPlan`] separates *what fuses* (a function of circuit structure
//! only) from *the fused matrices* (a function of the parameter values).
//! Compiling once and re-materializing per parameter set is what makes
//! batched parameter-shift gradients and per-sample input encoding cheap:
//! replay recomputes only the steps whose parameters actually changed and
//! reuses every other block bit-for-bit.
//!
//! One fusion rule, an exact reordering of the circuit:
//!
//! - consecutive 1q gates on a qubit fold into one 2×2,
//! - a 2q gate absorbs the pending 1q gates on its operands and merges into
//!   the most recent block on the same pair, scanning past blocks on
//!   disjoint qubits,
//! - leftover 1q runs fold into the last 2q block touching their qubit
//!   instead of being emitted as extra blocks.

use crate::exec::FusedOp;
use crate::{StateBatch, StateVec};
use qns_circuit::{Circuit, GateMatrix, Op};
use qns_tensor::{Mat2, Mat4};

/// Which qubits one fused step acts on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StepQubits {
    One(usize),
    /// First qubit is the high bit of the 4-dim basis, as in [`Mat4`].
    Two(usize, usize),
}

impl StepQubits {
    #[inline]
    fn touches(self, a: usize, b: usize) -> bool {
        match self {
            StepQubits::One(q) => q == a || q == b,
            StepQubits::Two(x, y) => x == a || x == b || y == a || y == b,
        }
    }
}

/// One fused step: the circuit op indices that compose into a single block.
#[derive(Clone, Debug)]
struct PlanStep {
    qubits: StepQubits,
    /// Op indices in application order (ascending circuit order within the
    /// step's light cone).
    ops: Vec<usize>,
}

/// A compiled fusion plan for one circuit structure.
///
/// # Examples
///
/// ```
/// use qns_circuit::{Circuit, GateKind, Param};
/// use qns_sim::{SimPlan, StateVec};
///
/// let mut c = Circuit::new(2);
/// c.push(GateKind::RY, &[0], &[Param::Train(0)]);
/// c.push(GateKind::CX, &[0, 1], &[]);
/// let plan = SimPlan::compile(&c);
/// let mut state = StateVec::zero_state(2);
/// plan.execute_into(&c, &[0.3], &[], &mut state);
/// assert!((state.norm_sqr() - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct SimPlan {
    n_qubits: usize,
    n_ops: usize,
    steps: Vec<PlanStep>,
    /// Steps whose matrix depends on the per-sample input vector (sorted).
    input_steps: Vec<usize>,
    /// For each trainable parameter index, the steps referencing it (sorted).
    train_steps: Vec<Vec<usize>>,
}

impl SimPlan {
    /// Compiles the fusion structure of `circuit`. No parameter values are
    /// consulted.
    pub fn compile(circuit: &Circuit) -> SimPlan {
        let n = circuit.num_qubits();
        let ops: Vec<&Op> = circuit.iter().collect();
        let mut steps: Vec<PlanStep> = Vec::new();
        let mut pending: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (idx, op) in ops.iter().enumerate() {
            if op.num_qubits() == 1 {
                pending[op.qubits[0]].push(idx);
                continue;
            }
            let (a, b) = (op.qubits[0], op.qubits[1]);
            let mut block_ops: Vec<usize> =
                Vec::with_capacity(pending[a].len() + pending[b].len() + 1);
            block_ops.append(&mut pending[a]);
            block_ops.append(&mut pending[b]);
            // Pendings on distinct qubits commute; ascending index order
            // restores circuit order deterministically.
            block_ops.sort_unstable();
            block_ops.push(idx);

            // Backward scan for a mergeable block on the same pair: walk
            // past blocks on disjoint qubits (exact commutation) and stop at
            // the first block touching either operand.
            let target = steps
                .iter()
                .rposition(|s| s.qubits.touches(a, b))
                .filter(|&si| {
                    let StepQubits::Two(x, y) = steps[si].qubits else {
                        return false;
                    };
                    (x, y) == (a, b) || (x, y) == (b, a)
                });
            match target {
                Some(si) => steps[si].ops.extend(block_ops),
                None => steps.push(PlanStep {
                    qubits: StepQubits::Two(a, b),
                    ops: block_ops,
                }),
            }
        }
        // Flush leftover 1q runs into the last 2q block touching the qubit
        // (everything after that block is disjoint from it, so the
        // reordering is exact).
        for (q, ops_q) in pending.into_iter().enumerate() {
            if ops_q.is_empty() {
                continue;
            }
            let target = steps
                .iter()
                .rposition(|s| s.qubits.touches(q, q))
                .filter(|&si| matches!(steps[si].qubits, StepQubits::Two(..)));
            match target {
                Some(si) => steps[si].ops.extend(ops_q),
                None => steps.push(PlanStep {
                    qubits: StepQubits::One(q),
                    ops: ops_q,
                }),
            }
        }

        // Dependency tracking for replay: which steps reference the input
        // vector, and which reference each trainable parameter.
        let mut input_steps = Vec::new();
        let mut train_steps = vec![Vec::new(); circuit.num_train_params()];
        for (si, step) in steps.iter().enumerate() {
            let mut uses_input = false;
            let mut tis: Vec<usize> = Vec::new();
            for &oi in &step.ops {
                for p in &ops[oi].params {
                    if p.input_index().is_some() {
                        uses_input = true;
                    }
                    if let Some(ti) = p.train_index() {
                        tis.push(ti);
                    }
                }
            }
            if uses_input {
                input_steps.push(si);
            }
            tis.sort_unstable();
            tis.dedup();
            for ti in tis {
                train_steps[ti].push(si);
            }
        }

        SimPlan {
            n_qubits: n,
            n_ops: ops.len(),
            steps,
            input_steps,
            train_steps,
        }
    }

    /// Number of fused steps (= blocks after materialization).
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Width of the compiled circuit.
    pub fn num_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Resolves one step into its fused block for the given parameter sets.
    fn step_matrix(
        &self,
        step: &PlanStep,
        circuit: &Circuit,
        train: &[f64],
        input: &[f64],
    ) -> FusedOp {
        let ops = circuit.ops();
        match step.qubits {
            StepQubits::One(q) => {
                let mut acc: Option<Mat2> = None;
                for &oi in &step.ops {
                    let op = &ops[oi];
                    let params = op.resolve_params(train, input);
                    if let GateMatrix::One(m) = op.kind.matrix(&params) {
                        acc = Some(match acc {
                            Some(prev) => m.mul_mat(&prev),
                            None => m,
                        });
                    }
                }
                FusedOp::One(q, acc.unwrap_or_else(Mat2::identity))
            }
            StepQubits::Two(sa, sb) => {
                let mut acc: Option<Mat4> = None;
                let mut pa: Option<Mat2> = None;
                let mut pb: Option<Mat2> = None;
                for &oi in &step.ops {
                    let op = &ops[oi];
                    let params = op.resolve_params(train, input);
                    match op.kind.matrix(&params) {
                        GateMatrix::One(m) => {
                            let slot = if op.qubits[0] == sa { &mut pa } else { &mut pb };
                            *slot = Some(match slot.take() {
                                Some(prev) => m.mul_mat(&prev),
                                None => m,
                            });
                        }
                        GateMatrix::Two(m) => {
                            let mut m4 = if (op.qubits[0], op.qubits[1]) == (sa, sb) {
                                m
                            } else {
                                m.swap_qubits()
                            };
                            let fa = pa.take().unwrap_or_else(Mat2::identity);
                            let fb = pb.take().unwrap_or_else(Mat2::identity);
                            m4 = m4.mul_mat(&fa.kron(&fb));
                            acc = Some(match acc {
                                Some(prev) => m4.mul_mat(&prev),
                                None => m4,
                            });
                        }
                    }
                }
                let mut m4 = acc.unwrap_or_else(Mat4::identity);
                // Trailing 1q gates absorbed after the last 2q gate.
                if pa.is_some() || pb.is_some() {
                    let fa = pa.unwrap_or_else(Mat2::identity);
                    let fb = pb.unwrap_or_else(Mat2::identity);
                    m4 = fa.kron(&fb).mul_mat(&m4);
                }
                FusedOp::Two(sa, sb, m4)
            }
        }
    }

    /// Materializes every step into a fused block for the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if a referenced parameter index is out of bounds.
    pub fn materialize(&self, circuit: &Circuit, train: &[f64], input: &[f64]) -> Vec<FusedOp> {
        assert_eq!(circuit.num_ops(), self.n_ops, "circuit/plan mismatch");
        self.steps
            .iter()
            .map(|s| self.step_matrix(s, circuit, train, input))
            .collect()
    }

    /// Resets `state` and executes the plan, materializing each block on the
    /// fly (no intermediate block vector).
    ///
    /// # Panics
    ///
    /// Panics if `state` has a different width than the plan.
    pub fn execute_into(
        &self,
        circuit: &Circuit,
        train: &[f64],
        input: &[f64],
        state: &mut StateVec,
    ) {
        assert_eq!(state.num_qubits(), self.n_qubits, "width mismatch");
        assert_eq!(circuit.num_ops(), self.n_ops, "circuit/plan mismatch");
        state.reset();
        for s in &self.steps {
            apply_block(&self.step_matrix(s, circuit, train, input), state);
        }
    }

    /// Replays the plan with one trainable parameter changed: steps that
    /// reference `changed` are re-materialized from `train`; every other
    /// step reuses its block from `base` bit-for-bit.
    ///
    /// `base` must come from [`SimPlan::materialize`] on the same plan; the
    /// result is bit-identical to a full rematerialization with `train`.
    ///
    /// # Panics
    ///
    /// Panics if `base` has the wrong length or widths mismatch.
    pub fn replay_train_into(
        &self,
        circuit: &Circuit,
        base: &[FusedOp],
        train: &[f64],
        input: &[f64],
        changed: usize,
        state: &mut StateVec,
    ) {
        let dirty: &[usize] = self
            .train_steps
            .get(changed)
            .map(|v| v.as_slice())
            .unwrap_or(&[]);
        self.replay_into(circuit, base, train, input, dirty, state);
    }

    /// Replays the plan for a new input vector: only input-dependent steps
    /// are re-materialized.
    ///
    /// # Panics
    ///
    /// Panics if `base` has the wrong length or widths mismatch.
    pub fn replay_input_into(
        &self,
        circuit: &Circuit,
        base: &[FusedOp],
        train: &[f64],
        input: &[f64],
        state: &mut StateVec,
    ) {
        let dirty: Vec<usize> = self.input_steps.clone();
        self.replay_into(circuit, base, train, input, &dirty, state);
    }

    /// Replays the plan over a whole minibatch at once: shared-parameter
    /// steps are applied from `base` to every lane in one batched sweep,
    /// while input-dependent steps are re-materialized per lane from that
    /// lane's input vector.
    ///
    /// Lane `l` of the result is bit-identical to
    /// [`SimPlan::replay_input_into`] with `inputs[l]` on a standalone
    /// [`StateVec`].
    ///
    /// # Panics
    ///
    /// Panics if `base` has the wrong length, widths mismatch, or the lane
    /// count differs from `inputs.len()`.
    pub fn replay_batch_into(
        &self,
        circuit: &Circuit,
        base: &[FusedOp],
        train: &[f64],
        inputs: &[&[f64]],
        batch: &mut StateBatch,
    ) {
        assert_eq!(batch.num_qubits(), self.n_qubits, "width mismatch");
        assert_eq!(base.len(), self.steps.len(), "base/plan mismatch");
        assert_eq!(batch.lanes(), inputs.len(), "one input vector per lane");
        batch.reset();
        let mut next_dirty = self.input_steps.iter().peekable();
        for (si, (step, blk)) in self.steps.iter().zip(base).enumerate() {
            if next_dirty.peek() == Some(&&si) {
                next_dirty.next();
                // A step's arity and qubits are fixed; only the matrix
                // values vary with the input. Collect the per-lane
                // matrices and apply them in one per-lane call.
                let mut ones: Vec<Mat2> = Vec::new();
                let mut one_q = 0;
                let mut twos: Vec<Mat4> = Vec::new();
                let mut two_qs = (0, 0);
                for input in inputs.iter() {
                    match self.step_matrix(step, circuit, train, input) {
                        FusedOp::One(q, m) => {
                            one_q = q;
                            ones.push(m);
                        }
                        FusedOp::Two(a, b, m) => {
                            two_qs = (a, b);
                            twos.push(m);
                        }
                    }
                }
                if !ones.is_empty() {
                    batch.apply_1q_per_lane(&ones, one_q);
                }
                if !twos.is_empty() {
                    batch.apply_2q_per_lane(&twos, two_qs.0, two_qs.1);
                }
            } else {
                apply_block_batch(blk, batch);
            }
        }
    }

    /// Shared replay core: `dirty` is a sorted list of step indices to
    /// re-materialize.
    fn replay_into(
        &self,
        circuit: &Circuit,
        base: &[FusedOp],
        train: &[f64],
        input: &[f64],
        dirty: &[usize],
        state: &mut StateVec,
    ) {
        assert_eq!(state.num_qubits(), self.n_qubits, "width mismatch");
        assert_eq!(base.len(), self.steps.len(), "base/plan mismatch");
        state.reset();
        let mut next_dirty = dirty.iter().peekable();
        for (si, (step, blk)) in self.steps.iter().zip(base).enumerate() {
            if next_dirty.peek() == Some(&&si) {
                next_dirty.next();
                apply_block(&self.step_matrix(step, circuit, train, input), state);
            } else {
                apply_block(blk, state);
            }
        }
    }
}

/// Applies one fused block to a state.
#[inline]
pub(crate) fn apply_block(b: &FusedOp, state: &mut StateVec) {
    match b {
        FusedOp::One(q, m) => state.apply_1q(m, *q),
        FusedOp::Two(a, b2, m) => state.apply_2q(m, *a, *b2),
    }
}

/// Applies one fused block to every lane of a batch.
#[inline]
pub(crate) fn apply_block_batch(b: &FusedOp, batch: &mut StateBatch) {
    match b {
        FusedOp::One(q, m) => batch.apply_1q(m, *q),
        FusedOp::Two(a, b2, m) => batch.apply_2q(m, *a, *b2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, ExecMode};
    use qns_circuit::{GateKind, Param};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_circuit(n_qubits: usize, n_ops: usize, seed: u64) -> (Circuit, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Circuit::new(n_qubits);
        let kinds = GateKind::all();
        let mut train = Vec::new();
        for _ in 0..n_ops {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let q0 = rng.gen_range(0..n_qubits);
            let qs: Vec<usize> = if kind.num_qubits() == 1 {
                vec![q0]
            } else {
                let mut q1 = rng.gen_range(0..n_qubits);
                while q1 == q0 {
                    q1 = rng.gen_range(0..n_qubits);
                }
                vec![q0, q1]
            };
            let ps: Vec<Param> = (0..kind.num_params())
                .map(|_| {
                    train.push(rng.gen_range(-3.0..3.0));
                    Param::Train(train.len() - 1)
                })
                .collect();
            c.push(kind, &qs, &ps);
        }
        (c, train)
    }

    #[test]
    fn fused_plan_agrees_with_dynamic() {
        for seed in 0..6 {
            let (c, train) = random_circuit(4, 40, seed);
            let reference = run(&c, &train, &[], ExecMode::Dynamic);
            let plan = SimPlan::compile(&c);
            let mut s = StateVec::zero_state(4);
            plan.execute_into(&c, &train, &[], &mut s);
            let fidelity = reference.inner(&s).abs();
            assert!(
                (fidelity - 1.0).abs() < 1e-10,
                "seed {seed}: fidelity {fidelity}"
            );
        }
    }

    #[test]
    fn window_merge_skips_disjoint_blocks() {
        // CX(0,1), CZ(2,3), CX(0,1): the outer pair merges across the
        // disjoint middle block.
        let mut c = Circuit::new(4);
        c.push(GateKind::CX, &[0, 1], &[]);
        c.push(GateKind::CZ, &[2, 3], &[]);
        c.push(GateKind::CX, &[0, 1], &[]);
        let plan = SimPlan::compile(&c);
        assert_eq!(plan.num_steps(), 2);
        let reference = run(&c, &[], &[], ExecMode::Dynamic);
        let mut s = StateVec::zero_state(4);
        plan.execute_into(&c, &[], &[], &mut s);
        assert!((reference.inner(&s).abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trailing_1q_folds_into_the_last_2q_block() {
        // CX(0,1) then H(0): the H folds into the CX block.
        let mut c = Circuit::new(2);
        c.push(GateKind::CX, &[0, 1], &[]);
        c.push(GateKind::H, &[0], &[]);
        let plan = SimPlan::compile(&c);
        assert_eq!(plan.num_steps(), 1);
        let reference = run(&c, &[], &[], ExecMode::Dynamic);
        let mut s = StateVec::zero_state(2);
        plan.execute_into(&c, &[], &[], &mut s);
        assert!((reference.inner(&s).abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn replay_train_is_bit_identical_to_full_materialize() {
        let (c, mut train) = random_circuit(4, 30, 17);
        if train.is_empty() {
            return;
        }
        let plan = SimPlan::compile(&c);
        let base = plan.materialize(&c, &train, &[]);
        let changed = train.len() / 2;
        train[changed] += 0.731;
        let mut replayed = StateVec::zero_state(4);
        plan.replay_train_into(&c, &base, &train, &[], changed, &mut replayed);
        let mut full = StateVec::zero_state(4);
        plan.execute_into(&c, &train, &[], &mut full);
        assert_eq!(
            replayed.amplitudes(),
            full.amplitudes(),
            "replay must be bit-identical"
        );
    }

    #[test]
    fn replay_input_is_bit_identical_to_full_materialize() {
        let mut c = Circuit::new(2);
        c.push(GateKind::RX, &[0], &[Param::Input(0)]);
        c.push(GateKind::RY, &[1], &[Param::Train(0)]);
        c.push(GateKind::CX, &[0, 1], &[]);
        c.push(GateKind::RZ, &[0], &[Param::Input(1)]);
        let plan = SimPlan::compile(&c);
        let train = [0.4];
        let base = plan.materialize(&c, &train, &[0.1, 0.2]);
        let input = [1.9, -0.6];
        let mut replayed = StateVec::zero_state(2);
        plan.replay_input_into(&c, &base, &train, &input, &mut replayed);
        let mut full = StateVec::zero_state(2);
        plan.execute_into(&c, &train, &input, &mut full);
        assert_eq!(replayed.amplitudes(), full.amplitudes());
    }
}
