//! qns-analyze: token-level static analysis for the determinism,
//! digest-coverage, and snapshot-schema invariants the search stack
//! depends on.
//!
//! The whole pipeline — content-addressed score memoization, bitwise
//! checkpoint/resume, digest-derived candidate seeds — fails *silently*
//! when a wall-clock read, an ambient RNG, a HashMap-ordered loop, or an
//! unencoded snapshot field slips in: searches complete and look healthy
//! while scores stop being reproducible. This crate is the review-time
//! gate for that bug class. A self-contained lexer ([`lexer`]) feeds rule
//! passes ([`rules`], [`digest`], [`schema`]) that emit stable `QAxxx`
//! diagnostics ([`diag`]), surfaced through `cargo xtask analyze`.
//!
//! | Code  | Name            | Checks |
//! |-------|-----------------|--------|
//! | QA001 | wallclock       | no `Instant::now`/`SystemTime` in search-path crates |
//! | QA002 | entropy         | no `thread_rng`/`from_entropy`/`OsRng` |
//! | QA003 | spawn           | no `thread::spawn`/`thread::scope` outside `sim/src/pool.rs` |
//! | QA004 | no-panic        | no `.unwrap()`/`panic!` in no-panic crates |
//! | QA005 | nondet-iter     | no order-observing HashMap/HashSet iteration |
//! | QA006 | digest-coverage | every wire-struct field encoded or exempted |
//! | QA007 | schema-lock     | wire shape changes require a FORMAT_VERSION bump |
//!
//! Escapes are comments and must carry a justification: `// lint:allow(
//! <name>) — reason` for QA001–QA005, `// digest:exempt(<field>: reason)`
//! for QA006. QA007 has no escape; its workflow is bump-and-regenerate.

pub mod diag;
pub mod digest;
pub mod lexer;
pub mod rules;
pub mod schema;

pub use diag::{report_json, Finding, QaRule, Severity};
pub use lexer::FileModel;

use digest::{EncodeFn, StructDef};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Loads every `.rs` file under `crates/<c>/src` for the search-path
/// crates, in sorted order so findings are stable.
fn load_models(root: &Path) -> io::Result<Vec<FileModel>> {
    let mut models = Vec::new();
    for crate_name in rules::SEARCH_PATH_CRATES {
        let src_dir = root.join("crates").join(crate_name).join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs(&src_dir, &mut files)?;
        files.sort();
        for file in files {
            let text = fs::read_to_string(&file)?;
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            models.push(FileModel::new(rel, crate_name.to_string(), &text));
        }
    }
    Ok(models)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
    Ok(())
}

/// Parsed items plus the wire structs (those with an encode) they imply.
struct Parsed {
    structs: Vec<StructDef>,
    encodes: Vec<EncodeFn>,
}

fn parse_all(models: &[FileModel]) -> Parsed {
    let mut structs = Vec::new();
    let mut encodes = Vec::new();
    for m in models {
        let (mut s, mut e) = digest::parse_items(m);
        structs.append(&mut s);
        encodes.append(&mut e);
    }
    Parsed { structs, encodes }
}

fn wire_structs(parsed: &Parsed) -> Vec<&StructDef> {
    let mut out: Vec<&StructDef> = parsed
        .structs
        .iter()
        .filter(|s| parsed.encodes.iter().any(|e| e.target == s.name))
        .collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out.dedup_by(|a, b| a.name == b.name);
    out
}

fn build_current_schema(models: &[FileModel], parsed: &Parsed) -> Option<schema::Schema> {
    let version_model = models
        .iter()
        .find(|m| m.path.ends_with(schema::FORMAT_VERSION_PATH))?;
    let version = schema::parse_format_version(version_model)?;
    Some(schema::current_schema(version, &wire_structs(parsed)))
}

/// Runs every rule over the tree rooted at `root` (the workspace root).
pub fn analyze(root: &Path) -> io::Result<Vec<Finding>> {
    let models = load_models(root)?;
    let parsed = parse_all(&models);

    let mut findings = Vec::new();
    for m in &models {
        findings.extend(rules::scan_patterns(m));
        // QA005 resolves `self.field` accesses through the fields of every
        // struct defined in the same file.
        let fields: Vec<(String, String)> = parsed
            .structs
            .iter()
            .filter(|s| s.path == m.path)
            .flat_map(|s| s.fields.iter().map(|f| (f.name.clone(), f.ty.clone())))
            .collect();
        findings.extend(rules::scan_nondet_iter(m, &fields));
    }
    findings.extend(digest::check_digest_coverage(
        &parsed.structs,
        &parsed.encodes,
    ));

    match build_current_schema(&models, &parsed) {
        Some(current) => {
            let lock = fs::read_to_string(root.join(schema::LOCK_PATH))
                .ok()
                .and_then(|text| schema::parse_lock(&text));
            findings.extend(schema::check(&current, lock.as_ref()));
        }
        None => findings.push(Finding::new(
            QaRule::SchemaLock,
            schema::FORMAT_VERSION_PATH,
            0,
            "could not locate FORMAT_VERSION — the schema-lock rule has lost its anchor".into(),
        )),
    }

    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Ok(findings)
}

/// Regenerates `analyze/schema.lock` from the current tree. Returns the
/// lock path and the number of wire structs recorded.
pub fn update_schema_lock(root: &Path) -> io::Result<(PathBuf, usize)> {
    let models = load_models(root)?;
    let parsed = parse_all(&models);
    let current = build_current_schema(&models, &parsed).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            "could not locate FORMAT_VERSION in crates/runtime/src/checkpoint.rs",
        )
    })?;
    let lock_path = root.join(schema::LOCK_PATH);
    if let Some(dir) = lock_path.parent() {
        fs::create_dir_all(dir)?;
    }
    fs::write(&lock_path, schema::render_lock(&current))?;
    Ok((lock_path, current.structs.len()))
}
