//! The analyzer rules.
//!
//! QA001–QA004 are token-stream ports of the original per-line lint:
//! pattern matching against a per-line "code view" rebuilt from non-test,
//! non-comment tokens with literals blanked out, so block comments, raw
//! strings, and post-`#[cfg(test)]` code are all handled correctly.
//!
//! QA005 tracks which names in a file are `HashMap`/`HashSet` values —
//! via type annotations, struct fields, constructor calls, and a small
//! propagation step through lock/borrow guards and for-loop bindings —
//! and flags order-observing iteration (`iter`, `keys`, `values`, `drain`,
//! `for … in map`). Sorting afterwards is invisible to a lexical pass, so
//! deterministic sites carry a justified `// lint:allow(nondet-iter)`
//! escape; the escape text documents *why* the order cannot leak.

use crate::diag::{Finding, QaRule};
use crate::lexer::{FileModel, Tok, TokKind};
use std::collections::BTreeMap;

/// Crates on the search path: everything that can influence a candidate
/// score, a digest, or a checkpoint byte.
pub const SEARCH_PATH_CRATES: &[&str] = &[
    "tensor",
    "circuit",
    "sim",
    "noise",
    "transpile",
    "verify",
    "ml",
    "data",
    "chem",
    "core",
    "runtime",
    "proxy",
];

/// Crates that must not spawn threads directly (the simulator's worker
/// pool, `sim/src/pool.rs`, owns every thread and its deterministic
/// in-order collection).
pub const NO_SPAWN_CRATES: &[&str] = &[
    "tensor",
    "circuit",
    "sim",
    "noise",
    "transpile",
    "verify",
    "ml",
    "data",
    "chem",
    "core",
    "runtime",
    "proxy",
];

/// Library crates that promise `Result` returns instead of panics.
pub const NO_PANIC_CRATES: &[&str] = &["circuit", "transpile", "sim", "noise"];

/// A substring-pattern rule over the per-line code view.
pub struct PatternRule {
    pub rule: QaRule,
    pub patterns: &'static [&'static str],
    pub crates: &'static [&'static str],
    /// Files (workspace-relative suffixes) exempt from this rule.
    pub allow_files: &'static [&'static str],
    /// When non-empty, justified escapes are honored **only** inside these
    /// files (workspace-relative suffixes): the rule's pattern is audited
    /// to a sanctioned module, and a `lint:allow` anywhere else — however
    /// well justified — is still a finding. Unlike `allow_files`, the
    /// sanctioned files themselves are still scanned (a bare escape there
    /// is rejected as usual).
    pub sanctioned_files: &'static [&'static str],
}

pub fn pattern_rules() -> Vec<PatternRule> {
    vec![
        PatternRule {
            rule: QaRule::Wallclock,
            patterns: &["Instant::now", "SystemTime"],
            crates: SEARCH_PATH_CRATES,
            allow_files: &["runtime/src/telemetry.rs"],
            sanctioned_files: &[],
        },
        PatternRule {
            rule: QaRule::Entropy,
            patterns: &["thread_rng", "from_entropy", "OsRng"],
            crates: SEARCH_PATH_CRATES,
            allow_files: &[],
            sanctioned_files: &[],
        },
        PatternRule {
            rule: QaRule::Spawn,
            patterns: &["thread::spawn", "thread::scope"],
            crates: NO_SPAWN_CRATES,
            allow_files: &[],
            // The simulator's persistent worker pool is the one audited
            // spawn site; every other fan-out in these crates, scoped or
            // not, must route through it.
            sanctioned_files: &["sim/src/pool.rs"],
        },
        PatternRule {
            rule: QaRule::NoPanic,
            patterns: &[".unwrap()", "panic!"],
            crates: NO_PANIC_CRATES,
            allow_files: &[],
            sanctioned_files: &[],
        },
    ]
}

/// How a line is escaped for a rule: not at all, with a bare (rejected)
/// tag, or with a justified tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Escape {
    None,
    Bare,
    Justified,
}

/// Looks for `lint:allow(<name>)` in the comments attached to `line`
/// (same line, or a comment-only line directly above). The escape only
/// counts as justified when explanatory text follows the tag.
pub fn escape_for(model: &FileModel, name: &str, line: usize) -> Escape {
    let tag = format!("lint:allow({name})");
    let mut best = Escape::None;
    for comment in model.escape_comments(line) {
        if let Some(pos) = comment.find(&tag) {
            let rest = &comment[pos + tag.len()..];
            if rest.chars().any(|c| c.is_alphanumeric()) {
                return Escape::Justified;
            }
            best = Escape::Bare;
        }
    }
    best
}

fn bare_escape_finding(rule: QaRule, model: &FileModel, line: usize) -> Finding {
    Finding::new(
        rule,
        model.path.clone(),
        line,
        format!(
            "`lint:allow({})` escape has no justification — explain why the site is safe after the tag",
            rule.name()
        ),
    )
}

/// Runs the QA001–QA004 pattern rules over one file.
pub fn scan_patterns(model: &FileModel) -> Vec<Finding> {
    let mut findings = Vec::new();
    for rule in pattern_rules() {
        if !rule.crates.iter().any(|c| *c == model.crate_name) {
            continue;
        }
        if rule.allow_files.iter().any(|f| model.path.ends_with(f)) {
            continue;
        }
        for (idx, code) in model.code_lines.iter().enumerate() {
            let Some(pattern) = rule.patterns.iter().find(|p| code.contains(*p)) else {
                continue;
            };
            let line = idx + 1;
            let sanctioned_here = rule.sanctioned_files.is_empty()
                || rule
                    .sanctioned_files
                    .iter()
                    .any(|f| model.path.ends_with(f));
            match escape_for(model, rule.rule.name(), line) {
                Escape::Justified if sanctioned_here => {}
                Escape::Justified => findings.push(Finding::new(
                    rule.rule,
                    model.path.clone(),
                    line,
                    format!(
                        "`{}` is sanctioned only in {} — a justified `lint:allow({})` elsewhere is not accepted; route through the sanctioned module",
                        pattern,
                        rule.sanctioned_files.join(", "),
                        rule.rule.name()
                    ),
                )),
                Escape::Bare => findings.push(bare_escape_finding(rule.rule, model, line)),
                Escape::None => findings.push(Finding::new(
                    rule.rule,
                    model.path.clone(),
                    line,
                    format!(
                        "`{}` — {}; justify with `// lint:allow({}) — reason` if intentional",
                        pattern,
                        rule.rule.description(),
                        rule.rule.name()
                    ),
                )),
            }
        }
    }
    findings
}

/// How a name relates to hash-ordered collections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HashClass {
    /// The value *is* a `HashMap`/`HashSet` (possibly behind references
    /// and transparent wrappers) — iterating it observes random order.
    Outermost,
    /// The value contains one deeper inside (e.g. `Vec<Mutex<HashMap>>`)
    /// — iterating it is fine, but guards extracted from it are not.
    Contains,
}

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];
/// Wrappers that are transparent for ordering purposes: a guard or
/// smart pointer around a hash collection is still hash-ordered.
const PEEL_WRAPPERS: &[&str] = &[
    "Arc",
    "Rc",
    "Box",
    "Option",
    "Mutex",
    "RwLock",
    "RefCell",
    "MutexGuard",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "Ref",
    "RefMut",
];
/// Methods that hand back the same collection (or a guard over it).
const ACCESSOR_METHODS: &[&str] = &[
    "lock",
    "read",
    "write",
    "borrow",
    "borrow_mut",
    "expect",
    "unwrap",
    "as_ref",
    "as_mut",
];
/// Guard-producing accessors: applying one to a *container of* hash
/// collections yields the hash collection itself.
const GUARD_METHODS: &[&str] = &["lock", "read", "write", "borrow", "borrow_mut"];
/// Order-observing iteration methods.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// Classifies a type from its token texts.
fn classify_type(toks: &[String]) -> Option<HashClass> {
    // Peel leading references, lifetimes, mutability, and path prefixes.
    let mut i = 0usize;
    loop {
        match toks.get(i).map(|s| s.as_str()) {
            Some("&") | Some("mut") | Some("dyn") => i += 1,
            Some(s) if s.starts_with('\'') => i += 1,
            // `std :: collections :: HashMap` — drop `seg ::` prefixes.
            Some(_)
                if toks.get(i + 1).map(|s| s == ":").unwrap_or(false)
                    && toks.get(i + 2).map(|s| s == ":").unwrap_or(false) =>
            {
                i += 3
            }
            _ => break,
        }
    }
    let head = toks.get(i).map(|s| s.as_str())?;
    if HASH_TYPES.contains(&head) {
        return Some(HashClass::Outermost);
    }
    if PEEL_WRAPPERS.contains(&head) {
        // Recurse into the generic arguments, skipping lifetimes/commas
        // until a type head appears.
        if toks.get(i + 1).map(|s| s == "<").unwrap_or(false) {
            let inner: Vec<String> = toks[i + 2..]
                .iter()
                .take_while(|s| *s != ">")
                .filter(|s| *s != "," && !s.starts_with('\'') && *s != "_")
                .cloned()
                .collect();
            if let Some(c) = classify_type(&inner) {
                return Some(c);
            }
        }
    }
    if toks.iter().any(|s| HASH_TYPES.contains(&s.as_str())) {
        return Some(HashClass::Contains);
    }
    None
}

/// State for the QA005 walk: a flat per-file map from names to classes.
/// Flat scoping trades precision for simplicity; collisions are rare in
/// practice and resolvable with an escape.
struct HashNames {
    classes: BTreeMap<String, HashClass>,
}

impl HashNames {
    fn mark(&mut self, name: &str, class: HashClass) {
        let entry = self.classes.entry(name.to_string());
        // Outermost wins over Contains: never downgrade.
        let slot = entry.or_insert(class);
        if class == HashClass::Outermost {
            *slot = class;
        }
    }

    fn get(&self, name: &str) -> Option<HashClass> {
        self.classes.get(name).copied()
    }
}

/// QA005 over one file. `struct_fields` supplies field types parsed by
/// the digest module so `self.err_2q`-style accesses resolve.
pub fn scan_nondet_iter(model: &FileModel, struct_fields: &[(String, String)]) -> Vec<Finding> {
    if !SEARCH_PATH_CRATES.iter().any(|c| *c == model.crate_name) {
        return Vec::new();
    }
    let toks: Vec<&Tok> = model
        .tokens
        .iter()
        .filter(|t| !t.is_comment() && !t.in_test)
        .collect();

    let mut names = HashNames {
        classes: BTreeMap::new(),
    };
    for (fname, fty) in struct_fields {
        let ty_toks: Vec<String> = tokenize_type(fty);
        if let Some(c) = classify_type(&ty_toks) {
            names.mark(fname, c);
        }
    }

    let mut findings = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = toks[i];
        // `let [mut] NAME : TYPE = …` and `let [mut] NAME = RHS ;`
        if t.is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).map(|u| u.is_ident("mut")).unwrap_or(false) {
                j += 1;
            }
            if let Some(name_tok) = toks.get(j).filter(|u| u.kind == TokKind::Ident) {
                let name = name_tok.text.clone();
                if toks.get(j + 1).map(|u| u.is_punct(':')).unwrap_or(false) {
                    let ty: Vec<String> = collect_until(&toks, j + 2, &["=", ";"])
                        .iter()
                        .map(|u| u.text.clone())
                        .collect();
                    if let Some(c) = classify_type(&ty) {
                        names.mark(&name, c);
                    }
                } else if toks.get(j + 1).map(|u| u.is_punct('=')).unwrap_or(false) {
                    classify_rhs(&toks, j + 2, &name, &mut names);
                }
            }
            i += 1;
            continue;
        }
        // `for PAT in EXPR {`
        if t.is_ident("for") {
            if let Some(f) = scan_for_loop(model, &toks, i, &mut names) {
                findings.push(f);
            }
            i += 1;
            continue;
        }
        // `X . method (` where method observes iteration order.
        if t.kind == TokKind::Ident
            && ITER_METHODS.contains(&t.text.as_str())
            && toks.get(i + 1).map(|u| u.is_punct('(')).unwrap_or(false)
            && i >= 2
            && toks[i - 1].is_punct('.')
            && toks[i - 2].kind == TokKind::Ident
        {
            let recv = &toks[i - 2].text;
            if names.get(recv) == Some(HashClass::Outermost) {
                push_iter_finding(model, &mut findings, t.line, recv, &t.text);
            }
        }
        i += 1;
    }
    findings
}

/// Splits a normalized type string (as produced by the struct parser,
/// e.g. `Vec<(usize,usize)>`) back into coarse tokens.
fn tokenize_type(ty: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in ty.chars() {
        if c.is_alphanumeric() || c == '_' {
            cur.push(c);
        } else {
            if !cur.is_empty() {
                out.push(std::mem::take(&mut cur));
            }
            if !c.is_whitespace() {
                out.push(c.to_string());
            }
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

fn collect_until<'a>(toks: &[&'a Tok], from: usize, stops: &[&str]) -> Vec<&'a Tok> {
    let mut out = Vec::new();
    let mut j = from;
    let mut angle = 0i32;
    while j < toks.len() {
        let u = toks[j];
        if u.is_punct('<') {
            angle += 1;
        } else if u.is_punct('>') {
            angle -= 1;
        }
        if angle <= 0 && stops.iter().any(|s| u.text == *s) {
            break;
        }
        out.push(u);
        j += 1;
    }
    out
}

/// Classifies `let NAME = RHS`. Handles constructor calls
/// (`HashMap::new()`, `HashSet::with_capacity(…)`) and accessor chains
/// over known names (`known.lock().expect("…")`).
fn classify_rhs(toks: &[&Tok], mut j: usize, name: &str, names: &mut HashNames) {
    // Skip leading `&`/`mut`.
    while toks
        .get(j)
        .map(|u| u.is_punct('&') || u.is_ident("mut"))
        .unwrap_or(false)
    {
        j += 1;
    }
    let Some(first) = toks.get(j).filter(|u| u.kind == TokKind::Ident) else {
        return;
    };
    if HASH_TYPES.contains(&first.text.as_str()) {
        names.mark(name, HashClass::Outermost);
        return;
    }
    // `self . X …` or `X …`
    let (base, mut k) =
        if first.is_ident("self") && toks.get(j + 1).map(|u| u.is_punct('.')).unwrap_or(false) {
            match toks.get(j + 2).filter(|u| u.kind == TokKind::Ident) {
                Some(b) => (b.text.clone(), j + 3),
                None => return,
            }
        } else {
            (first.text.clone(), j + 1)
        };
    let Some(base_class) = names.get(&base) else {
        return;
    };
    // Walk an accessor chain: (.method(args))* up to `;`.
    let mut class = base_class;
    loop {
        if !toks.get(k).map(|u| u.is_punct('.')).unwrap_or(false) {
            break;
        }
        let Some(m) = toks.get(k + 1).filter(|u| u.kind == TokKind::Ident) else {
            return;
        };
        if !ACCESSOR_METHODS.contains(&m.text.as_str()) {
            return; // unknown method — assume the hash type does not flow
        }
        if GUARD_METHODS.contains(&m.text.as_str()) {
            class = HashClass::Outermost;
        }
        // Skip the argument list.
        if !toks.get(k + 2).map(|u| u.is_punct('(')).unwrap_or(false) {
            return;
        }
        let mut nest = 0usize;
        let mut p = k + 2;
        while p < toks.len() {
            if toks[p].is_punct('(') {
                nest += 1;
            } else if toks[p].is_punct(')') {
                nest -= 1;
                if nest == 0 {
                    break;
                }
            }
            p += 1;
        }
        k = p + 1;
    }
    if toks.get(k).map(|u| u.is_punct(';')).unwrap_or(false) {
        names.mark(name, class);
    }
}

/// Handles `for PAT in EXPR {`: flags iteration over an outermost hash
/// collection and propagates `Contains` into the loop binding.
fn scan_for_loop(
    model: &FileModel,
    toks: &[&Tok],
    kw: usize,
    names: &mut HashNames,
) -> Option<Finding> {
    // Find `in` before any `{`/`;` (also bails on `impl Trait for X`).
    let mut j = kw + 1;
    let mut pat_idents: Vec<String> = Vec::new();
    while j < toks.len() {
        let t = toks[j];
        if t.is_ident("in") {
            break;
        }
        if t.is_punct('{') || t.is_punct(';') || j > kw + 16 {
            return None;
        }
        if t.kind == TokKind::Ident && !t.is_ident("mut") && !t.is_ident("ref") {
            pat_idents.push(t.text.clone());
        }
        j += 1;
    }
    if !toks.get(j).map(|u| u.is_ident("in")).unwrap_or(false) {
        return None;
    }
    // Expression runs to the `{` at the loop's depth.
    let expr = collect_until(toks, j + 1, &["{"]);
    // The iterated name: the last identifier of a trailing path, unless
    // the expression ends in a call (then the method walk already saw it).
    let last = expr.last()?;
    if last.kind != TokKind::Ident {
        return None;
    }
    let name = &last.text;
    match names.get(name) {
        Some(HashClass::Outermost) => {
            let line = toks[kw].line;
            match escape_for(model, QaRule::NondetIter.name(), line) {
                Escape::Justified => None,
                Escape::Bare => Some(bare_escape_finding(QaRule::NondetIter, model, line)),
                Escape::None => Some(Finding::new(
                    QaRule::NondetIter,
                    model.path.clone(),
                    line,
                    format!(
                        "`for … in {name}` iterates a HashMap/HashSet in randomized order — collect and sort first, or justify with `// lint:allow(nondet-iter) — reason`"
                    ),
                )),
            }
        }
        Some(HashClass::Contains) => {
            for p in pat_idents {
                names.mark(&p, HashClass::Contains);
            }
            None
        }
        None => None,
    }
}

fn push_iter_finding(
    model: &FileModel,
    findings: &mut Vec<Finding>,
    line: usize,
    recv: &str,
    method: &str,
) {
    match escape_for(model, QaRule::NondetIter.name(), line) {
        Escape::Justified => {}
        Escape::Bare => findings.push(bare_escape_finding(QaRule::NondetIter, model, line)),
        Escape::None => findings.push(Finding::new(
            QaRule::NondetIter,
            model.path.clone(),
            line,
            format!(
                "`{recv}.{method}()` observes HashMap/HashSet order, which is randomized per process — sort the result before it can influence scores or snapshots, or justify with `// lint:allow(nondet-iter) — reason`"
            ),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_in(crate_name: &str, src: &str) -> FileModel {
        FileModel::new(
            format!("crates/{crate_name}/src/lib.rs"),
            crate_name.into(),
            src,
        )
    }

    fn nondet(src: &str) -> Vec<Finding> {
        let m = model_in("core", src);
        let (structs, _) = crate::digest::parse_items(&m);
        let fields: Vec<(String, String)> = structs
            .iter()
            .flat_map(|s| s.fields.iter().map(|f| (f.name.clone(), f.ty.clone())))
            .collect();
        scan_nondet_iter(&m, &fields)
    }

    #[test]
    fn local_hashmap_iteration_is_flagged() {
        let f = nondet("fn f() {\n    let mut map: HashMap<u32, f64> = HashMap::new();\n    for (k, v) in map.iter() { use_it(k, v); }\n}\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("map.iter()"));
    }

    #[test]
    fn constructor_inference_without_annotation() {
        let f = nondet("fn f() {\n    let seen = HashSet::new();\n    let total: f64 = seen.values().sum();\n}\n");
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn for_loop_over_map_is_flagged() {
        let f = nondet("fn f(map: u8) {\n    let m: HashMap<u32, u32> = make();\n    for kv in &m { go(kv); }\n}\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("for … in m"));
    }

    #[test]
    fn field_access_through_self_is_flagged() {
        let f = nondet("struct D { err: HashMap<u32, f64> }\nimpl D {\n    fn mean(&self) -> f64 { self.err.values().sum::<f64>() }\n}\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("err.values()"));
    }

    #[test]
    fn lock_guard_over_sharded_maps_is_flagged() {
        let f = nondet(
            "struct C { shards: Vec<Mutex<HashMap<u64, u64>>> }\nimpl C {\n    fn all(&self) {\n        for shard in &self.shards {\n            let shard = shard.lock().expect(\"poisoned\");\n            for kv in shard.iter() { go(kv); }\n        }\n    }\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("shard.iter()"));
    }

    #[test]
    fn vec_of_maps_iteration_itself_is_fine() {
        let f = nondet("struct C { shards: Vec<Mutex<HashMap<u64, u64>>> }\nimpl C {\n    fn n(&self) -> usize { self.shards.iter().map(|s| 1).sum() }\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn membership_and_insertion_are_fine() {
        let f = nondet("fn f() {\n    let mut seen: HashSet<u64> = HashSet::new();\n    seen.insert(3);\n    if seen.contains(&3) { hit(); }\n    let m: HashMap<u8, u8> = make();\n    let v = m.get(&1);\n    let n = m.len();\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn btreemap_iteration_is_fine() {
        let f = nondet("fn f() {\n    let m: BTreeMap<u32, u32> = make();\n    for kv in &m { go(kv); }\n    let s: Vec<u32> = m.keys().copied().collect();\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn justified_escape_suppresses_bare_escape_fails() {
        let ok = nondet("fn f() {\n    let m: HashMap<u32, u32> = make();\n    // lint:allow(nondet-iter) — sorted immediately below\n    let mut v: Vec<_> = m.iter().collect();\n}\n");
        assert!(ok.is_empty(), "{ok:?}");
        let bad = nondet("fn f() {\n    let m: HashMap<u32, u32> = make();\n    let mut v: Vec<_> = m.iter().collect(); // lint:allow(nondet-iter)\n}\n");
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].message.contains("no justification"));
    }

    #[test]
    fn non_search_path_crates_are_skipped() {
        let m = model_in(
            "bench",
            "fn f() {\n    let m: HashMap<u32, u32> = make();\n    for kv in &m { go(kv); }\n}\n",
        );
        assert!(scan_nondet_iter(&m, &[]).is_empty());
    }

    #[test]
    fn patterns_flag_and_escape() {
        let m = model_in("core", "fn f() {\n    let t = Instant::now();\n}\n");
        let f = scan_patterns(&m);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, QaRule::Wallclock);

        let m = model_in(
            "core",
            "fn f() {\n    // lint:allow(wallclock) — coarse telemetry only, never a score input\n    let t = Instant::now();\n}\n",
        );
        assert!(scan_patterns(&m).is_empty());
    }

    #[test]
    fn patterns_ignore_comments_strings_and_tests() {
        let m = model_in(
            "sim",
            "/* Instant::now() in a block comment\n   spanning lines with panic!(\"x\") */\nfn f() { let s = \"thread_rng\"; }\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n",
        );
        assert!(scan_patterns(&m).is_empty(), "{:?}", scan_patterns(&m));
    }

    /// Like [`model_in`] but with an explicit in-crate file path, for
    /// rules whose behavior depends on the file (sanctioned modules).
    fn model_at(crate_name: &str, file: &str, src: &str) -> FileModel {
        FileModel::new(
            format!("crates/{crate_name}/src/{file}"),
            crate_name.into(),
            src,
        )
    }

    #[test]
    fn sanctioned_module_honors_justified_spawn_escape() {
        let m = model_at(
            "sim",
            "pool.rs",
            "fn grow() {\n    // lint:allow(spawn) — sanctioned pool worker\n    std::thread::spawn(work);\n}\n",
        );
        assert!(scan_patterns(&m).is_empty(), "{:?}", scan_patterns(&m));
    }

    #[test]
    fn sanctioned_module_still_rejects_bare_escape() {
        let m = model_at(
            "sim",
            "pool.rs",
            "fn grow() {\n    std::thread::spawn(work); // lint:allow(spawn)\n}\n",
        );
        let f = scan_patterns(&m);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("no justification"), "{f:?}");
    }

    #[test]
    fn justified_spawn_outside_sanctioned_module_is_flagged() {
        let m = model_at(
            "sim",
            "batch.rs",
            "fn fan_out() {\n    // lint:allow(spawn) — justified text, wrong file\n    std::thread::spawn(work);\n}\n",
        );
        let f = scan_patterns(&m);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, QaRule::Spawn);
        assert!(
            f[0].message.contains("sanctioned only in sim/src/pool.rs"),
            "{f:?}"
        );
    }

    #[test]
    fn no_panic_only_in_no_panic_crates() {
        let m = model_in("core", "fn f() { x.unwrap(); }\n");
        assert!(scan_patterns(&m).is_empty());
        let m = model_in("sim", "fn f() { x.unwrap(); }\n");
        assert_eq!(scan_patterns(&m).len(), 1);
    }

    #[test]
    fn telemetry_file_is_wallclock_exempt() {
        let m = FileModel::new(
            "crates/runtime/src/telemetry.rs".into(),
            "runtime".into(),
            "fn f() { let t = Instant::now(); }\n",
        );
        assert!(scan_patterns(&m).is_empty());
    }

    #[test]
    fn classify_type_peels_wrappers() {
        let c = |s: &str| classify_type(&tokenize_type(s));
        assert_eq!(c("HashMap<u32,f64>"), Some(HashClass::Outermost));
        assert_eq!(c("&mut HashSet<u64>"), Some(HashClass::Outermost));
        assert_eq!(
            c("std::collections::HashMap<K,V>"),
            Some(HashClass::Outermost)
        );
        assert_eq!(c("Mutex<HashMap<K,V>>"), Some(HashClass::Outermost));
        assert_eq!(c("MutexGuard<'_,HashMap<K,V>>"), Some(HashClass::Outermost));
        assert_eq!(c("Vec<Mutex<HashMap<K,V>>>"), Some(HashClass::Contains));
        assert_eq!(c("Vec<(usize,usize)>"), None);
        assert_eq!(c("BTreeMap<K,V>"), None);
    }
}
