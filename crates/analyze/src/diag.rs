//! Stable diagnostic codes and structured findings, in the same style as
//! qns-verify's QV/QC codes: every rule has a fixed `QAxxx` code, a short
//! escape name (the token used in `lint:allow(...)`), a severity, and a
//! one-line description. Findings render as `severity[code] path:line:
//! message` for humans and as JSON objects for CI artifacts.

use std::fmt;

/// Every analyzer rule, with a stable code. Codes are append-only: new
/// rules take the next number, existing numbers never change meaning.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum QaRule {
    /// QA001 — wall-clock reads (`Instant::now`, `SystemTime`) in
    /// search-path crates make scores time-dependent.
    Wallclock,
    /// QA002 — ambient entropy (`thread_rng`, `from_entropy`, `OsRng`)
    /// breaks seed-determinism.
    Entropy,
    /// QA003 — raw `thread::spawn` / `thread::scope` outside the worker
    /// pool bypasses its deterministic in-order collection.
    Spawn,
    /// QA004 — `.unwrap()` / `panic!` in library crates that promise
    /// error returns.
    NoPanic,
    /// QA005 — iteration over `HashMap`/`HashSet` observes randomized
    /// order; sort first or justify.
    NondetIter,
    /// QA006 — a checkpointed/digested struct has a field its encode body
    /// never touches.
    DigestCoverage,
    /// QA007 — the checkpoint wire shape drifted from `analyze/schema.lock`
    /// without a `FORMAT_VERSION` bump.
    SchemaLock,
}

impl QaRule {
    pub fn code(&self) -> &'static str {
        match self {
            QaRule::Wallclock => "QA001",
            QaRule::Entropy => "QA002",
            QaRule::Spawn => "QA003",
            QaRule::NoPanic => "QA004",
            QaRule::NondetIter => "QA005",
            QaRule::DigestCoverage => "QA006",
            QaRule::SchemaLock => "QA007",
        }
    }

    /// The escape name accepted by `// lint:allow(<name>)`.
    pub fn name(&self) -> &'static str {
        match self {
            QaRule::Wallclock => "wallclock",
            QaRule::Entropy => "entropy",
            QaRule::Spawn => "spawn",
            QaRule::NoPanic => "no-panic",
            QaRule::NondetIter => "nondet-iter",
            QaRule::DigestCoverage => "digest-coverage",
            QaRule::SchemaLock => "schema-lock",
        }
    }

    pub fn description(&self) -> &'static str {
        match self {
            QaRule::Wallclock => "wall-clock time reads in search-path code",
            QaRule::Entropy => "ambient OS entropy in search-path code",
            QaRule::Spawn => "raw thread spawning outside the worker pool",
            QaRule::NoPanic => "panicking calls in no-panic library crates",
            QaRule::NondetIter => "iteration over HashMap/HashSet in randomized order",
            QaRule::DigestCoverage => "snapshot struct field missing from its encode body",
            QaRule::SchemaLock => "checkpoint wire shape drifted without a FORMAT_VERSION bump",
        }
    }

    pub fn severity(&self) -> Severity {
        Severity::Error
    }

    pub fn all() -> &'static [QaRule] {
        &[
            QaRule::Wallclock,
            QaRule::Entropy,
            QaRule::Spawn,
            QaRule::NoPanic,
            QaRule::NondetIter,
            QaRule::DigestCoverage,
            QaRule::SchemaLock,
        ]
    }
}

/// Diagnostic severity. Every current rule is an error (CI-failing);
/// the warning tier exists so future advisory rules fit the same report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding: a rule violation anchored to a file:line span.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    pub rule: QaRule,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line, or 0 when the finding is file-level (e.g. a missing
    /// schema lock).
    pub line: usize,
    pub message: String,
}

impl Finding {
    pub fn new(rule: QaRule, path: impl Into<String>, line: usize, message: String) -> Self {
        Finding {
            rule,
            path: path.into(),
            line,
            message,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"code\":\"{}\",\"name\":\"{}\",\"severity\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            self.rule.code(),
            self.rule.name(),
            self.rule.severity(),
            escape_json(&self.path),
            self.line,
            escape_json(&self.message)
        )
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}:{}: {}",
            self.rule.severity(),
            self.rule.code(),
            self.path,
            self.line,
            self.message
        )
    }
}

/// Renders findings as a JSON array (one object per finding).
pub fn report_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  ");
        out.push_str(&f.to_json());
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let codes: Vec<_> = QaRule::all().iter().map(|r| r.code()).collect();
        assert_eq!(
            codes,
            ["QA001", "QA002", "QA003", "QA004", "QA005", "QA006", "QA007"]
        );
        let names: Vec<_> = QaRule::all().iter().map(|r| r.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn display_and_json_round_out() {
        let f = Finding::new(
            QaRule::NondetIter,
            "crates/x/src/lib.rs",
            12,
            "iteration over `map` — \"quoted\"".into(),
        );
        assert_eq!(
            f.to_string(),
            "error[QA005] crates/x/src/lib.rs:12: iteration over `map` — \"quoted\""
        );
        let json = f.to_json();
        assert!(json.contains("\"code\":\"QA005\""));
        assert!(json.contains("\\\"quoted\\\""));
    }

    #[test]
    fn report_json_is_valid_shape() {
        assert_eq!(report_json(&[]), "[]");
        let f = Finding::new(QaRule::Wallclock, "a.rs", 1, "m".into());
        let j = report_json(&[f.clone(), f]);
        assert!(j.starts_with('['));
        assert!(j.ends_with(']'));
        assert_eq!(j.matches("QA001").count(), 2);
    }
}
