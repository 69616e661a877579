//! Per-stage transpiler contracts (`QC1xx`).
//!
//! [`PassContract`] wraps a transpile run over one logical circuit and
//! checks each stage boundary: the initial layout, the routed circuit, the
//! basis-lowered circuit, the optimized circuit, and the compacted output.
//! Stage checks are pure functions of the stage inputs/outputs, so a
//! pipeline can call them between passes without holding extra state.

use crate::diag::{Diagnostic, Location, Rule, VerifyReport};
use crate::rules::{
    sample_input, sample_train, verify_basis, verify_coupling, verify_measurement_map, IBM_BASIS,
};
use qns_circuit::{Circuit, GateKind};
use qns_noise::Device;
use qns_sim::{run, ExecMode};

/// How much verification a transpile run performs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum VerifyLevel {
    /// No checks; verification adds zero work.
    #[default]
    Off,
    /// Structural per-stage contracts: layout validity, routing legality and
    /// mapping consistency, basis conformance, parameter preservation,
    /// measurement-map validity.
    Contracts,
    /// [`VerifyLevel::Contracts`] plus a unitary-equivalence spot check
    /// (logical vs. compiled Z expectations at sample parameters) for
    /// circuits of at most [`EQUIV_MAX_QUBITS`] qubits.
    Full,
}

impl VerifyLevel {
    /// Whether any checking is enabled.
    pub fn enabled(self) -> bool {
        self != VerifyLevel::Off
    }
}

/// Largest circuit width the equivalence spot check simulates.
pub const EQUIV_MAX_QUBITS: usize = 6;

/// Tolerance of the equivalence spot check on per-qubit Z expectations.
const EQUIV_TOL: f64 = 1e-6;

/// Contract checker for one transpile run.
pub struct PassContract<'a> {
    logical: &'a Circuit,
    device: &'a Device,
    level: VerifyLevel,
}

impl<'a> PassContract<'a> {
    /// A checker for transpiling `logical` onto `device` at `level`.
    pub fn new(logical: &'a Circuit, device: &'a Device, level: VerifyLevel) -> Self {
        PassContract {
            logical,
            device,
            level,
        }
    }

    /// The configured verification level.
    pub fn level(&self) -> VerifyLevel {
        self.level
    }

    /// Stage 0 (`QC101`): the initial layout maps every logical qubit to a
    /// distinct in-range physical qubit.
    pub fn check_layout(&self, phys_of: &[usize]) -> VerifyReport {
        let mut report = VerifyReport::clean();
        if !self.level.enabled() {
            return report;
        }
        if phys_of.len() != self.logical.num_qubits() {
            report.push(
                Diagnostic::error(
                    Rule::ContractInvalidLayout,
                    format!(
                        "layout maps {} logical qubits, circuit has {}",
                        phys_of.len(),
                        self.logical.num_qubits()
                    ),
                    Location::default(),
                )
                .at_stage("layout"),
            );
        }
        let mut seen = std::collections::BTreeSet::new();
        for (l, &p) in phys_of.iter().enumerate() {
            if p >= self.device.num_qubits() {
                report.push(
                    Diagnostic::error(
                        Rule::ContractInvalidLayout,
                        format!(
                            "logical qubit {l} maps to physical {p}, device {} has {} qubits",
                            self.device.name(),
                            self.device.num_qubits()
                        ),
                        Location {
                            op_index: None,
                            qubit: Some(l),
                        },
                    )
                    .at_stage("layout"),
                );
            }
            if !seen.insert(p) {
                report.push(
                    Diagnostic::error(
                        Rule::ContractInvalidLayout,
                        format!("physical qubit {p} is claimed by two logical qubits"),
                        Location {
                            op_index: None,
                            qubit: Some(l),
                        },
                    )
                    .at_stage("layout"),
                );
            }
        }
        report
    }

    /// Stage 1: the routed circuit executes the logical gate sequence.
    ///
    /// Replays the router's SWAPs from `layout` and checks that every
    /// non-SWAP gate matches the next logical gate under the tracked
    /// mapping (`QC102`), that two-qubit gates stay on coupled pairs
    /// (`QV007`), and that `final_phys_of` equals the replayed mapping
    /// (`QC102`). A dropped or misplaced SWAP breaks the replay and is
    /// caught here without simulation.
    pub fn check_routed(
        &self,
        layout: &[usize],
        routed: &Circuit,
        final_phys_of: &[usize],
    ) -> VerifyReport {
        let mut report = VerifyReport::clean();
        if !self.level.enabled() {
            return report;
        }
        report.merge(verify_coupling(routed, self.device, None).stage_tagged("route"));

        let mut l2p: Vec<usize> = layout.to_vec();
        let logical_ops: Vec<_> = self.logical.iter().collect();
        let mut next = 0usize;
        for (i, op) in routed.iter().enumerate() {
            // Is this the next logical op, mapped through l2p?
            let matches_logical = next < logical_ops.len() && {
                let lop = logical_ops[next];
                let nq = lop.num_qubits();
                lop.kind == op.kind
                    && lop.params == op.params
                    && (0..nq).all(|k| l2p.get(lop.qubits[k]).copied() == Some(op.qubits[k]))
            };
            if matches_logical {
                next += 1;
                continue;
            }
            if op.kind == GateKind::Swap {
                // Router-inserted SWAP: logical qubits on its operands move.
                let (x, y) = (op.qubits[0], op.qubits[1]);
                for p in l2p.iter_mut() {
                    if *p == x {
                        *p = y;
                    } else if *p == y {
                        *p = x;
                    }
                }
                continue;
            }
            report.push(
                Diagnostic::error(
                    Rule::ContractGateLoss,
                    format!(
                        "routed gate {} {:?} does not continue the logical sequence \
                         (expected logical op {next})",
                        op.kind,
                        &op.qubits[..op.num_qubits()]
                    ),
                    Location::op(i),
                )
                .at_stage("route"),
            );
            return report;
        }
        if next != logical_ops.len() {
            report.push(
                Diagnostic::error(
                    Rule::ContractGateLoss,
                    format!(
                        "routing dropped logical ops: executed {next} of {}",
                        logical_ops.len()
                    ),
                    Location::default(),
                )
                .at_stage("route"),
            );
        }
        if final_phys_of != l2p.as_slice() {
            report.push(
                Diagnostic::error(
                    Rule::ContractGateLoss,
                    format!(
                        "reported final mapping {final_phys_of:?} disagrees with \
                         replayed SWAPs {l2p:?}"
                    ),
                    Location::default(),
                )
                .at_stage("route"),
            );
        }
        report.merge(self.check_params("route", routed));
        report
    }

    /// Stage 2: basis lowering emits only IBM-basis gates (`QV008`), keeps
    /// two-qubit gates on coupled pairs (`QV007`), and preserves symbolic
    /// parameters (`QC103`).
    pub fn check_lowered(&self, lowered: &Circuit) -> VerifyReport {
        let mut report = VerifyReport::clean();
        if !self.level.enabled() {
            return report;
        }
        report.merge(verify_basis(lowered, IBM_BASIS).stage_tagged("basis"));
        report.merge(verify_coupling(lowered, self.device, None).stage_tagged("basis"));
        report.merge(self.check_params("basis", lowered));
        report
    }

    /// Stage 3: optimization stays in basis, stays routed, and never
    /// *invents* parameter dependencies (cancellation may legitimately drop
    /// a trainable gate pair, so the referenced set may shrink).
    pub fn check_optimized(&self, optimized: &Circuit) -> VerifyReport {
        let mut report = VerifyReport::clean();
        if !self.level.enabled() {
            return report;
        }
        report.merge(verify_basis(optimized, IBM_BASIS).stage_tagged("optimize"));
        report.merge(verify_coupling(optimized, self.device, None).stage_tagged("optimize"));
        report.merge(self.check_no_invented_params("optimize", optimized));
        report
    }

    /// Output stage: the compacted circuit sits on coupled physical pairs
    /// through `phys_of` (`QV007`), the measurement map is valid (`QV009`),
    /// and — at [`VerifyLevel::Full`] on circuits of at most
    /// [`EQUIV_MAX_QUBITS`] qubits — logical and compiled Z expectations
    /// agree at sample parameters (`QC104`).
    pub fn check_output(
        &self,
        dense: &Circuit,
        phys_of: &[usize],
        dense_of_logical: &[usize],
    ) -> VerifyReport {
        let mut report = VerifyReport::clean();
        if !self.level.enabled() {
            return report;
        }
        report.merge(verify_coupling(dense, self.device, Some(phys_of)).stage_tagged("output"));
        report.merge(
            verify_measurement_map(dense_of_logical, dense.num_qubits()).stage_tagged("output"),
        );
        // Optimization runs before compaction and may legitimately cancel a
        // symbolic gate pair, so the output gets the no-invented-indices
        // check, not strict preservation.
        report.merge(self.check_no_invented_params("output", dense));

        if self.level == VerifyLevel::Full
            && self.logical.num_qubits() <= EQUIV_MAX_QUBITS
            && dense.num_qubits() <= EQUIV_MAX_QUBITS
            && !report.has_errors()
        {
            report.merge(self.check_equivalence(dense, dense_of_logical));
        }
        report
    }

    /// The `QC104` spot check: simulate both circuits at deterministic
    /// sample parameters and compare per-logical-qubit Z expectations.
    fn check_equivalence(&self, dense: &Circuit, dense_of_logical: &[usize]) -> VerifyReport {
        let mut report = VerifyReport::clean();
        let n_train = self
            .logical
            .num_train_params()
            .max(dense.num_train_params());
        let n_input = self.logical.num_inputs().max(dense.num_inputs());
        let train = sample_train(n_train);
        let input = sample_input(n_input);
        let ideal = run(self.logical, &train, &input, ExecMode::Dynamic);
        let compiled = run(dense, &train, &input, ExecMode::Dynamic);
        for l in 0..self.logical.num_qubits() {
            let Some(&d) = dense_of_logical.get(l) else {
                continue; // QV009 already reported the hole.
            };
            let a = ideal.expect_z(l);
            let b = compiled.expect_z(d);
            if (a - b).abs() > EQUIV_TOL {
                report.push(
                    Diagnostic::error(
                        Rule::ContractEquivalence,
                        format!("logical qubit {l}: ideal <Z> = {a:.9}, compiled <Z> = {b:.9}"),
                        Location {
                            op_index: None,
                            qubit: Some(l),
                        },
                    )
                    .at_stage("output"),
                );
            }
        }
        report
    }

    /// `QC103`: symbolic parameter slots referenced by the logical circuit
    /// are still referenced after `stage` (routing and lowering preserve
    /// them exactly; losing one silently freezes a trainable weight).
    fn check_params(&self, stage: &'static str, after: &Circuit) -> VerifyReport {
        let mut report = VerifyReport::clean();
        let before = self.logical.referenced_train_indices();
        let got: std::collections::BTreeSet<usize> =
            after.referenced_train_indices().into_iter().collect();
        for i in before {
            if !got.contains(&i) {
                report.push(
                    Diagnostic::error(
                        Rule::ContractParamLoss,
                        format!("trainable parameter {i} is no longer referenced"),
                        Location::default(),
                    )
                    .at_stage(stage),
                );
            }
        }
        if after.num_inputs() < self.logical.num_inputs() {
            report.push(
                Diagnostic::error(
                    Rule::ContractParamLoss,
                    format!(
                        "input width shrank from {} to {}",
                        self.logical.num_inputs(),
                        after.num_inputs()
                    ),
                    Location::default(),
                )
                .at_stage(stage),
            );
        }
        report
    }

    /// `QC103`, post-optimization flavor: `after` may reference *fewer*
    /// trainable indices than the logical circuit (cancellation), but never
    /// one the logical circuit does not reference.
    fn check_no_invented_params(&self, stage: &'static str, after: &Circuit) -> VerifyReport {
        let mut report = VerifyReport::clean();
        let logical: std::collections::BTreeSet<usize> = self
            .logical
            .referenced_train_indices()
            .into_iter()
            .collect();
        for i in after.referenced_train_indices() {
            if !logical.contains(&i) {
                report.push(
                    Diagnostic::error(
                        Rule::ContractParamLoss,
                        format!("circuit references trainable {i}, logical does not"),
                        Location::default(),
                    )
                    .at_stage(stage),
                );
            }
        }
        report
    }
}

impl VerifyReport {
    /// Tags every untagged diagnostic with `stage` (rule-level helpers don't
    /// know which pass produced the circuit they checked).
    pub fn stage_tagged(mut self, stage: &'static str) -> VerifyReport {
        for d in &mut self.diagnostics {
            if d.stage.is_empty() {
                d.stage = stage;
            }
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qns_circuit::Param;
    use qns_noise::Device;

    fn bell_chain() -> Circuit {
        let mut c = Circuit::new(3);
        c.push(GateKind::H, &[0], &[]);
        c.push(GateKind::CX, &[0, 1], &[]);
        c.push(GateKind::RY, &[2], &[Param::Train(0)]);
        c.push(GateKind::CX, &[1, 2], &[]);
        c
    }

    #[test]
    fn off_level_checks_nothing() {
        let dev = Device::santiago();
        let c = bell_chain();
        let pc = PassContract::new(&c, &dev, VerifyLevel::Off);
        assert!(pc.check_layout(&[99, 98, 97]).is_clean());
    }

    #[test]
    fn layout_contract_flags_bad_layouts() {
        let dev = Device::santiago();
        let c = bell_chain();
        let pc = PassContract::new(&c, &dev, VerifyLevel::Contracts);
        assert!(pc.check_layout(&[0, 1, 2]).is_clean());
        // Width mismatch.
        assert!(pc.check_layout(&[0, 1]).has_errors());
        // Out of device range.
        let r = pc.check_layout(&[0, 1, 9]);
        assert_eq!(r.with_rule(Rule::ContractInvalidLayout).len(), 1);
        // Duplicate physical qubit.
        assert!(pc.check_layout(&[0, 1, 1]).has_errors());
    }

    #[test]
    fn routed_contract_accepts_faithful_routing() {
        let dev = Device::santiago();
        let c = bell_chain();
        let pc = PassContract::new(&c, &dev, VerifyLevel::Contracts);
        // Trivial layout on a line: all gates already adjacent, no swaps.
        let r = pc.check_routed(&[0, 1, 2], &c, &[0, 1, 2]);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn routed_contract_flags_dropped_gate() {
        let dev = Device::santiago();
        let c = bell_chain();
        let pc = PassContract::new(&c, &dev, VerifyLevel::Contracts);
        let mut broken = Circuit::new(3);
        broken.push(GateKind::H, &[0], &[]);
        broken.push(GateKind::CX, &[0, 1], &[]);
        broken.push(GateKind::RY, &[2], &[Param::Train(0)]);
        // cx(1,2) is missing.
        let r = pc.check_routed(&[0, 1, 2], &broken, &[0, 1, 2]);
        assert!(!r.with_rule(Rule::ContractGateLoss).is_empty(), "{r}");
    }

    #[test]
    fn routed_contract_flags_wrong_final_mapping() {
        let dev = Device::santiago();
        let c = bell_chain();
        let pc = PassContract::new(&c, &dev, VerifyLevel::Contracts);
        let r = pc.check_routed(&[0, 1, 2], &c, &[0, 2, 1]);
        assert!(!r.with_rule(Rule::ContractGateLoss).is_empty());
    }

    #[test]
    fn output_equivalence_spot_check_flags_wrong_measurement_slot() {
        let dev = Device::santiago();
        let mut c = Circuit::new(2);
        c.push(GateKind::X, &[0], &[]);
        let pc = PassContract::new(&c, &dev, VerifyLevel::Full);
        // The "compiled" circuit applies X to the other qubit: structurally
        // legal (no 2q gates, map valid) but not equivalent.
        let mut wrong = Circuit::new(2);
        wrong.push(GateKind::X, &[1], &[]);
        let r = pc.check_output(&wrong, &[0, 1], &[0, 1]);
        assert!(!r.with_rule(Rule::ContractEquivalence).is_empty(), "{r}");
        // The faithful circuit passes.
        let ok = pc.check_output(&c, &[0, 1], &[0, 1]);
        assert!(ok.is_clean(), "{ok}");
    }
}
