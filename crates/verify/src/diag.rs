//! Structured diagnostics: stable rule codes, locations, and the reports
//! that collect them.

use std::fmt;

/// Every rule the verifier can report, with a stable diagnostic code.
///
/// `QV0xx` codes are circuit/IR rules (checkable on any [`qns_circuit::Circuit`]);
/// `QC1xx` codes are pass-contract rules (checkable only across a transpile
/// stage boundary). Codes are append-only: a code is never reused for a
/// different meaning, so logs and CI baselines stay comparable across
/// versions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Qubit index at or beyond the circuit width.
    QubitOutOfRange,
    /// Two-qubit gate with identical operands.
    DuplicateOperands,
    /// Parameter slot count differs from the gate's arity.
    ParamArityMismatch,
    /// Non-finite (NaN/±inf) value in a parameter slot.
    NonFiniteParam,
    /// Referenced trainable/input index at or beyond the declared width.
    SymbolicSlotOutOfRange,
    /// Gate matrix is not unitary at sample parameter values.
    NonUnitaryMatrix,
    /// Two-qubit gate acting on an uncoupled physical pair.
    UncoupledGate,
    /// Gate outside the target basis after lowering.
    NonBasisGate,
    /// Measurement map entry out of range or duplicated.
    InvalidMeasurementMap,
    /// Initial layout is malformed (width mismatch, out of device range,
    /// or duplicate physical qubits).
    ContractInvalidLayout,
    /// A routing stage dropped, reordered, or rewrote non-SWAP gates.
    ContractGateLoss,
    /// A stage lost declared trainable/input parameter width.
    ContractParamLoss,
    /// Compiled circuit disagrees with the logical circuit on observables
    /// (unitary-equivalence spot check).
    ContractEquivalence,
}

impl Rule {
    /// The stable diagnostic code, e.g. `QV001`.
    pub fn code(self) -> &'static str {
        match self {
            Rule::QubitOutOfRange => "QV001",
            Rule::DuplicateOperands => "QV002",
            Rule::ParamArityMismatch => "QV003",
            Rule::NonFiniteParam => "QV004",
            Rule::SymbolicSlotOutOfRange => "QV005",
            Rule::NonUnitaryMatrix => "QV006",
            Rule::UncoupledGate => "QV007",
            Rule::NonBasisGate => "QV008",
            Rule::InvalidMeasurementMap => "QV009",
            Rule::ContractInvalidLayout => "QC101",
            Rule::ContractGateLoss => "QC102",
            Rule::ContractParamLoss => "QC103",
            Rule::ContractEquivalence => "QC104",
        }
    }

    /// All rules, in code order (docs and exhaustive tests).
    pub fn all() -> &'static [Rule] {
        &[
            Rule::QubitOutOfRange,
            Rule::DuplicateOperands,
            Rule::ParamArityMismatch,
            Rule::NonFiniteParam,
            Rule::SymbolicSlotOutOfRange,
            Rule::NonUnitaryMatrix,
            Rule::UncoupledGate,
            Rule::NonBasisGate,
            Rule::InvalidMeasurementMap,
            Rule::ContractInvalidLayout,
            Rule::ContractGateLoss,
            Rule::ContractParamLoss,
            Rule::ContractEquivalence,
        ]
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Where in a circuit a diagnostic points.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Location {
    /// Index into the circuit's op list, when the diagnostic is op-level.
    pub op_index: Option<usize>,
    /// The offending qubit, when one can be singled out.
    pub qubit: Option<usize>,
}

impl Location {
    /// A diagnostic at op `i`.
    pub fn op(i: usize) -> Self {
        Location {
            op_index: Some(i),
            qubit: None,
        }
    }

    /// A diagnostic at op `i`, qubit `q`.
    pub fn op_qubit(i: usize, q: usize) -> Self {
        Location {
            op_index: Some(i),
            qubit: Some(q),
        }
    }
}

/// One verifier finding: a broken invariant, with its rule, human message,
/// location, and the transpile stage that produced the checked circuit
/// (when known). A verified transpile fails on any finding.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable explanation with concrete indices/values.
    pub message: String,
    /// Where the finding points (empty for circuit-level findings).
    pub location: Location,
    /// The pass-contract stage name (`"layout"`, `"route"`, `"basis"`,
    /// `"optimize"`, `"output"`), empty for standalone verification.
    pub stage: &'static str,
}

impl Diagnostic {
    /// A diagnostic with no stage attribution.
    pub fn error(rule: Rule, message: impl Into<String>, location: Location) -> Self {
        Diagnostic {
            rule,
            message: message.into(),
            location,
            stage: "",
        }
    }

    /// Attributes the diagnostic to a transpile stage.
    pub fn at_stage(mut self, stage: &'static str) -> Self {
        self.stage = stage;
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error [{}] {}", self.rule.code(), self.message)?;
        if let Some(i) = self.location.op_index {
            write!(f, " (op {i}")?;
            if let Some(q) = self.location.qubit {
                write!(f, ", qubit {q}")?;
            }
            write!(f, ")")?;
        }
        if !self.stage.is_empty() {
            write!(f, " [stage: {}]", self.stage)?;
        }
        Ok(())
    }
}

/// The outcome of a verification run: an ordered list of diagnostics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VerifyReport {
    /// Findings in discovery order.
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// An empty (clean) report.
    pub fn clean() -> Self {
        VerifyReport::default()
    }

    /// Appends a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Merges another report's findings into this one.
    pub fn merge(&mut self, other: VerifyReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Whether the report holds any finding.
    pub fn has_errors(&self) -> bool {
        !self.is_clean()
    }

    /// Whether the report is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Findings with a specific rule.
    pub fn with_rule(&self, rule: Rule) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.rule == rule).collect()
    }

    /// Converts to a result: `Err(VerifyError)` when any finding is
    /// present.
    pub fn into_result(self) -> Result<VerifyReport, VerifyError> {
        if self.has_errors() {
            Err(VerifyError { report: self })
        } else {
            Ok(self)
        }
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return f.write_str("verification clean");
        }
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Marker prefix used when a verification failure must cross a panic
/// boundary (the evaluation engine isolates worker panics); consumers
/// match on this prefix to count violations separately from crashes.
pub const PANIC_MARKER: &str = "qns-verify:";

/// A failed verification: a report guaranteed to contain at least one
/// diagnostic.
#[derive(Clone, Debug, PartialEq)]
pub struct VerifyError {
    /// The full report.
    pub report: VerifyReport,
}

impl VerifyError {
    /// The first diagnostic (the headline failure).
    pub fn first(&self) -> &Diagnostic {
        self.report
            .diagnostics
            .first()
            .expect("VerifyError holds at least one diagnostic")
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{PANIC_MARKER} {}", self.report)
    }
}

impl std::error::Error for VerifyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        let mut codes: Vec<&str> = Rule::all().iter().map(|r| r.code()).collect();
        codes.sort_unstable();
        let n = codes.len();
        codes.dedup();
        assert_eq!(codes.len(), n, "duplicate rule code");
        assert_eq!(Rule::QubitOutOfRange.code(), "QV001");
        assert_eq!(Rule::ContractInvalidLayout.code(), "QC101");
    }

    #[test]
    fn report_result_conversion() {
        let mut r = VerifyReport::clean();
        assert!(r.clone().into_result().is_ok());
        r.push(Diagnostic::error(
            Rule::NonBasisGate,
            "leaked h",
            Location::op(0),
        ));
        let err = r.into_result().unwrap_err();
        assert_eq!(err.first().rule, Rule::NonBasisGate);
        assert!(err.to_string().starts_with(PANIC_MARKER));
    }

    #[test]
    fn display_formats_are_readable() {
        let mut r = VerifyReport::clean();
        assert_eq!(r.to_string(), "verification clean");
        r.push(Diagnostic::error(
            Rule::UncoupledGate,
            "cx on 0-4",
            Location::op(2),
        ));
        assert!(r.to_string().contains("error [QV007] cx on 0-4 (op 2)"));
    }
}
