//! The circuit IR: a flat list of gate applications with structural metrics.

use crate::{GateKind, Param};
use std::fmt;

/// One gate application inside a [`Circuit`].
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    /// Which gate.
    pub kind: GateKind,
    /// Target qubits; `qubits[1]` is meaningful only for two-qubit gates.
    /// For controlled gates `qubits[0]` is the control.
    pub qubits: [usize; 2],
    /// Parameter slots, `kind.num_params()` of them.
    pub params: Vec<Param>,
}

impl Op {
    /// Number of qubits this op touches.
    pub fn num_qubits(&self) -> usize {
        self.kind.num_qubits()
    }

    /// Resolves parameter slots to concrete angles.
    pub fn resolve_params(&self, train: &[f64], input: &[f64]) -> Vec<f64> {
        self.params
            .iter()
            .map(|p| p.resolve(train, input))
            .collect()
    }
}

/// A quantum circuit: an ordered list of [`Op`]s over `n_qubits` qubits.
///
/// The circuit tracks how many trainable-parameter and input slots it
/// references so callers can allocate parameter vectors of the right size.
///
/// # Examples
///
/// ```
/// use qns_circuit::{Circuit, GateKind, Param};
///
/// let mut c = Circuit::new(3);
/// c.push(GateKind::H, &[0], &[]);
/// c.push(GateKind::CX, &[0, 1], &[]);
/// c.push(GateKind::CX, &[1, 2], &[]);
/// assert_eq!(c.depth(), 3);
/// assert_eq!(c.count_2q(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Circuit {
    n_qubits: usize,
    ops: Vec<Op>,
    n_train: usize,
    n_input: usize,
}

impl Circuit {
    /// Creates an empty circuit over `n_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is zero.
    pub fn new(n_qubits: usize) -> Self {
        assert!(n_qubits > 0, "circuit must have at least one qubit");
        Circuit {
            n_qubits,
            ops: Vec::new(),
            n_train: 0,
            n_input: 0,
        }
    }

    /// Appends a gate.
    ///
    /// `qubits` must contain exactly `kind.num_qubits()` distinct in-range
    /// indices and `params` exactly `kind.num_params()` slots.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch, out-of-range qubits, or duplicate qubits.
    pub fn push(&mut self, kind: GateKind, qubits: &[usize], params: &[Param]) -> &mut Self {
        assert_eq!(
            qubits.len(),
            kind.num_qubits(),
            "gate {} expects {} qubits",
            kind,
            kind.num_qubits()
        );
        assert_eq!(
            params.len(),
            kind.num_params(),
            "gate {} expects {} params",
            kind,
            kind.num_params()
        );
        for &q in qubits {
            assert!(q < self.n_qubits, "qubit {} out of range", q);
        }
        if qubits.len() == 2 {
            assert_ne!(qubits[0], qubits[1], "two-qubit gate needs distinct qubits");
        }
        for p in params {
            if let Some(i) = p.train_index() {
                self.n_train = self.n_train.max(i + 1);
            }
            if let Some(i) = p.input_index() {
                self.n_input = self.n_input.max(i + 1);
            }
        }
        let q2 = if qubits.len() == 2 {
            qubits[1]
        } else {
            usize::MAX
        };
        self.ops.push(Op {
            kind,
            qubits: [qubits[0], q2],
            params: params.to_vec(),
        });
        self
    }

    /// Appends a gate without validating arity, qubit ranges, operand
    /// distinctness, or parameter bookkeeping.
    ///
    /// Exists so the verifier's tests (and IR fuzzers) can construct
    /// deliberately malformed circuits that [`Circuit::push`] rejects;
    /// normal construction must go through `push`. Missing qubit operands
    /// are filled with `usize::MAX` (always out of range), and declared
    /// trainable/input widths are *not* grown, so out-of-range symbolic
    /// slots stay out of range.
    pub fn push_unchecked(
        &mut self,
        kind: GateKind,
        qubits: &[usize],
        params: &[Param],
    ) -> &mut Self {
        let q0 = qubits.first().copied().unwrap_or(usize::MAX);
        let q1 = qubits.get(1).copied().unwrap_or(usize::MAX);
        self.ops.push(Op {
            kind,
            qubits: [q0, q1],
            params: params.to_vec(),
        });
        self
    }

    /// Appends every op of `other` (qubit indices unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `other` acts on more qubits than `self` has.
    pub fn extend_from(&mut self, other: &Circuit) -> &mut Self {
        assert!(
            other.n_qubits <= self.n_qubits,
            "cannot extend with a wider circuit"
        );
        for op in &other.ops {
            self.push(op.kind, &op.qubits[..op.num_qubits()], &op.params);
        }
        self
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of gate applications.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Size of the trainable-parameter vector this circuit references.
    pub fn num_train_params(&self) -> usize {
        self.n_train
    }

    /// Size of the input vector this circuit references.
    pub fn num_inputs(&self) -> usize {
        self.n_input
    }

    /// Declares the trainable-parameter vector length even when higher
    /// indices are not (yet) referenced. Used by gate-sharing SuperCircuits
    /// whose SubCircuits reference a prefix of the shared parameters.
    ///
    /// # Panics
    ///
    /// Panics if `n` is smaller than the largest referenced index + 1.
    pub fn set_num_train_params(&mut self, n: usize) {
        assert!(n >= self.n_train, "cannot shrink below referenced params");
        self.n_train = n;
    }

    /// Iterates over the ops in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Op> {
        self.ops.iter()
    }

    /// Borrow of the op list.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Circuit depth: the length of the longest qubit-ordered dependency
    /// chain (greedy ASAP scheduling, every gate cost 1).
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.n_qubits];
        let mut max = 0;
        for op in &self.ops {
            let nq = op.num_qubits();
            let start = op.qubits[..nq].iter().map(|&q| level[q]).max().unwrap_or(0);
            let end = start + 1;
            for &q in &op.qubits[..nq] {
                level[q] = end;
            }
            max = max.max(end);
        }
        max
    }

    /// Number of single-qubit gates.
    pub fn count_1q(&self) -> usize {
        self.ops.iter().filter(|o| o.num_qubits() == 1).count()
    }

    /// Number of two-qubit gates.
    pub fn count_2q(&self) -> usize {
        self.ops.iter().filter(|o| o.num_qubits() == 2).count()
    }

    /// Number of gates of a specific kind.
    pub fn count_kind(&self, kind: GateKind) -> usize {
        self.ops.iter().filter(|o| o.kind == kind).count()
    }

    /// The set of distinct trainable indices actually referenced, sorted.
    pub fn referenced_train_indices(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .ops
            .iter()
            .flat_map(|o| o.params.iter().filter_map(|p| p.train_index()))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Rewrites trainable slots using `f` (e.g. to freeze pruned parameters
    /// to zero). `f` receives the trainable index and returns the new slot;
    /// affine slots recombine their transform with the replacement.
    pub fn map_train_params(&self, mut f: impl FnMut(usize) -> Param) -> Circuit {
        let mut out = Circuit::new(self.n_qubits);
        for op in &self.ops {
            let qs: Vec<usize> = op.qubits[..op.num_qubits()].to_vec();
            let ps: Vec<Param> = op
                .params
                .iter()
                .map(|p| match *p {
                    Param::Train(i) => f(i),
                    Param::AffineTrain {
                        index,
                        scale,
                        offset,
                    } => f(index).affine(scale, offset),
                    other => other,
                })
                .collect();
            out.push(op.kind, &qs, &ps);
        }
        out
    }

    /// Relabels qubits: op qubit `q` becomes `mapping[q]`.
    ///
    /// # Panics
    ///
    /// Panics if `mapping.len() != self.num_qubits()` or maps out of
    /// `new_width`.
    pub fn remap_qubits(&self, mapping: &[usize], new_width: usize) -> Circuit {
        assert_eq!(mapping.len(), self.n_qubits, "mapping length mismatch");
        let mut out = Circuit::new(new_width);
        out.n_train = self.n_train;
        out.n_input = self.n_input;
        for op in &self.ops {
            let qs: Vec<usize> = op.qubits[..op.num_qubits()]
                .iter()
                .map(|&q| mapping[q])
                .collect();
            out.push(op.kind, &qs, &op.params);
        }
        out
    }
}

impl fmt::Display for Circuit {
    /// A compact text dump, one op per line, e.g. `cx q0, q1` or
    /// `ry(t3) q2`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit[{} qubits, {} ops]",
            self.n_qubits,
            self.ops.len()
        )?;
        for op in &self.ops {
            write!(f, "  {}", op.kind)?;
            if !op.params.is_empty() {
                write!(f, "(")?;
                for (i, p) in op.params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match p {
                        Param::Fixed(v) => write!(f, "{:.4}", v)?,
                        Param::Input(i) => write!(f, "x{}", i)?,
                        Param::Train(i) => write!(f, "t{}", i)?,
                        Param::AffineInput {
                            index,
                            scale,
                            offset,
                        } => write!(f, "{:.2}*x{}+{:.2}", scale, index, offset)?,
                        Param::AffineTrain {
                            index,
                            scale,
                            offset,
                        } => write!(f, "{:.2}*t{}+{:.2}", scale, index, offset)?,
                    }
                }
                write!(f, ")")?;
            }
            let nq = op.num_qubits();
            write!(f, " q{}", op.qubits[0])?;
            if nq == 2 {
                write!(f, ", q{}", op.qubits[1])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ghz() -> Circuit {
        let mut c = Circuit::new(3);
        c.push(GateKind::H, &[0], &[]);
        c.push(GateKind::CX, &[0, 1], &[]);
        c.push(GateKind::CX, &[1, 2], &[]);
        c
    }

    #[test]
    fn depth_of_ghz_is_three() {
        assert_eq!(ghz().depth(), 3);
    }

    #[test]
    fn depth_of_parallel_layer_is_one() {
        let mut c = Circuit::new(4);
        for q in 0..4 {
            c.push(GateKind::H, &[q], &[]);
        }
        assert_eq!(c.depth(), 1);
        assert_eq!(c.count_1q(), 4);
        assert_eq!(c.count_2q(), 0);
    }

    #[test]
    fn param_bookkeeping() {
        let mut c = Circuit::new(2);
        c.push(GateKind::RX, &[0], &[Param::Input(3)]);
        c.push(
            GateKind::U3,
            &[1],
            &[Param::Train(5), Param::Fixed(0.0), Param::Train(1)],
        );
        assert_eq!(c.num_inputs(), 4);
        assert_eq!(c.num_train_params(), 6);
        assert_eq!(c.referenced_train_indices(), vec![1, 5]);
    }

    #[test]
    fn set_num_train_params_extends() {
        let mut c = Circuit::new(1);
        c.push(GateKind::RX, &[0], &[Param::Train(0)]);
        c.set_num_train_params(10);
        assert_eq!(c.num_train_params(), 10);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn set_num_train_params_cannot_shrink() {
        let mut c = Circuit::new(1);
        c.push(GateKind::RX, &[0], &[Param::Train(4)]);
        c.set_num_train_params(2);
    }

    #[test]
    fn map_train_params_freezes() {
        let mut c = Circuit::new(1);
        c.push(GateKind::RX, &[0], &[Param::Train(0)]);
        c.push(GateKind::RY, &[0], &[Param::Train(1)]);
        let frozen = c.map_train_params(|i| {
            if i == 0 {
                Param::Fixed(0.0)
            } else {
                Param::Train(i)
            }
        });
        assert_eq!(frozen.referenced_train_indices(), vec![1]);
        assert_eq!(frozen.ops()[0].params[0], Param::Fixed(0.0));
    }

    #[test]
    fn remap_qubits_relabels() {
        let c = ghz();
        let mapped = c.remap_qubits(&[2, 0, 1], 3);
        assert_eq!(mapped.ops()[0].qubits[0], 2);
        assert_eq!(mapped.ops()[1].qubits, [2, 0]);
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a = ghz();
        let b = ghz();
        a.extend_from(&b);
        assert_eq!(a.num_ops(), 6);
        // The second H on q0 runs in parallel with the first cx(1,2).
        assert_eq!(a.depth(), 5);
    }

    #[test]
    fn display_contains_gate_names() {
        let mut c = Circuit::new(2);
        c.push(GateKind::RY, &[1], &[Param::Train(2)]);
        let s = format!("{}", c);
        assert!(s.contains("ry(t2) q1"));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_qubits_panic() {
        let mut c = Circuit::new(2);
        c.push(GateKind::CX, &[1, 1], &[]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubit_panics() {
        let mut c = Circuit::new(2);
        c.push(GateKind::H, &[5], &[]);
    }
}
