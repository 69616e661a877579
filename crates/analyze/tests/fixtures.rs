//! Per-rule fixture self-tests: every QA rule has at least one positive
//! fixture (seeded violations with exact expected counts) and one
//! negative (escapes and safe patterns that must stay silent), including
//! the inputs the old per-line scanner demonstrably got wrong.

use qns_analyze::digest::{check_digest_coverage, parse_items};
use qns_analyze::lexer::FileModel;
use qns_analyze::rules::{scan_nondet_iter, scan_patterns};
use qns_analyze::{Finding, QaRule};
use std::path::Path;

fn fixture(name: &str, crate_name: &str) -> FileModel {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name}: {e}"));
    FileModel::new(
        format!("crates/{crate_name}/src/{name}"),
        crate_name.into(),
        &src,
    )
}

fn count(findings: &[Finding], rule: QaRule) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

fn nondet(model: &FileModel) -> Vec<Finding> {
    let (structs, _) = parse_items(model);
    let fields: Vec<(String, String)> = structs
        .iter()
        .flat_map(|s| s.fields.iter().map(|f| (f.name.clone(), f.ty.clone())))
        .collect();
    scan_nondet_iter(model, &fields)
}

#[test]
fn wallclock_fixture_flags_both_reads() {
    let f = scan_patterns(&fixture("wallclock.rs", "core"));
    assert_eq!(count(&f, QaRule::Wallclock), 2, "{f:?}");
}

#[test]
fn entropy_fixture_flags_all_three_sources() {
    let f = scan_patterns(&fixture("entropy.rs", "core"));
    assert_eq!(count(&f, QaRule::Entropy), 3, "{f:?}");
}

#[test]
fn spawn_fixture_flags_the_spawn() {
    let f = scan_patterns(&fixture("spawn.rs", "core"));
    assert_eq!(count(&f, QaRule::Spawn), 1, "{f:?}");
}

#[test]
fn scoped_spawn_in_the_runtime_crate_is_flagged() {
    let f = scan_patterns(&fixture("scoped_spawn.rs", "runtime"));
    assert_eq!(count(&f, QaRule::Spawn), 1, "{f:?}");
    assert!(f[0].message.contains("thread::scope"), "{f:?}");
}

#[test]
fn spawn_in_sanctioned_pool_module_is_accepted_when_justified() {
    // fixture() maps this to crates/sim/src/pool.rs — the one sanctioned
    // spawn site. The justified escape there must be honored.
    let f = scan_patterns(&fixture("pool.rs", "sim"));
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn justified_spawn_outside_sanctioned_module_is_still_flagged() {
    let f = scan_patterns(&fixture("spawn_justified.rs", "core"));
    assert_eq!(count(&f, QaRule::Spawn), 1, "{f:?}");
    assert!(
        f[0].message.contains("sanctioned only in sim/src/pool.rs"),
        "{f:?}"
    );
}

#[test]
fn no_panic_fixture_flags_unwrap_and_panic() {
    let f = scan_patterns(&fixture("no_panic.rs", "sim"));
    assert_eq!(count(&f, QaRule::NoPanic), 2, "{f:?}");
}

#[test]
fn allowed_fixture_is_fully_escaped() {
    // Justified escapes for every rule, in both same-line and
    // line-above placements, plus patterns inside comments and strings.
    let model = fixture("allowed.rs", "sim");
    let f = scan_patterns(&model);
    assert!(f.is_empty(), "{f:?}");
    assert!(nondet(&model).is_empty());
}

#[test]
fn block_comment_fixture_old_scanner_false_positives_are_gone() {
    // Old scanner: 4 findings (3 inside the block comment + the live one).
    // Lexer: exactly the live one.
    let f = scan_patterns(&fixture("block_comment.rs", "core"));
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, QaRule::Wallclock);
    assert!(f[0].line >= 16, "must flag the live call, got {f:?}");
}

#[test]
fn raw_string_fixture_old_scanner_false_negative_is_caught() {
    // Old scanner: the `\"` inside the raw string swallowed the rest of
    // the line, hiding the real unwrap. Lexer: exactly that unwrap, and
    // nothing from the raw-string bodies.
    let f = scan_patterns(&fixture("raw_string.rs", "sim"));
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, QaRule::NoPanic);
    assert_eq!(count(&f, QaRule::Entropy), 0);
    assert_eq!(count(&f, QaRule::Wallclock), 0);
}

#[test]
fn cfg_scoped_fixture_scans_past_the_test_module() {
    // Old scanner stopped at the first #[cfg(test)]; the live violation
    // after the module was invisible.
    let f = scan_patterns(&fixture("cfg_scoped.rs", "core"));
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, QaRule::Wallclock);
    assert!(f[0].line >= 19, "must flag live_after, got {f:?}");
}

#[test]
fn nondet_iter_fixture_flags_all_seeded_sites() {
    let f = nondet(&fixture("nondet_iter.rs", "core"));
    assert_eq!(count(&f, QaRule::NondetIter), 5, "{f:?}");
    assert!(
        f.iter().any(|x| x.message.contains("no justification")),
        "the bare escape must be rejected: {f:?}"
    );
    for needle in ["map.iter()", "for … in set", "err.values()", "shard.iter()"] {
        assert!(
            f.iter().any(|x| x.message.contains(needle)),
            "missing finding for {needle}: {f:?}"
        );
    }
}

#[test]
fn nondet_iter_ok_fixture_is_silent() {
    let f = nondet(&fixture("nondet_iter_ok.rs", "core"));
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn digest_missing_fixture_catches_unhashed_field_and_bare_exempt() {
    let model = fixture("digest_missing.rs", "core");
    let (structs, encodes) = parse_items(&model);
    let f = check_digest_coverage(&structs, &encodes);
    assert_eq!(count(&f, QaRule::DigestCoverage), 2, "{f:?}");
    assert!(f
        .iter()
        .any(|x| x.message.contains("DriftingSnapshot.forgotten")));
    assert!(f.iter().any(|x| x.message.contains("no reason")));
}

#[test]
fn digest_ok_fixture_is_silent() {
    let model = fixture("digest_ok.rs", "core");
    let (structs, encodes) = parse_items(&model);
    assert_eq!(structs.len(), 1);
    assert_eq!(encodes.len(), 1);
    let f = check_digest_coverage(&structs, &encodes);
    assert!(f.is_empty(), "{f:?}");
}
