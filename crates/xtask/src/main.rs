//! Workspace automation tasks (the cargo-xtask pattern).
//!
//! `asm-check` disassembles a release binary and asserts that the
//! width-dispatched batch sweeps (see `multiversion_sweep!` in
//! `qns-sim::state_batch`) compiled to *packed* SIMD at both widths:
//! baseline fronts must contain packed SSE (`mulpd`, no `%ymm`), the
//! `_avx2` twins packed AVX (`vmulpd` on `%ymm`). It inspects the final
//! *linked* binary on purpose: under thin LTO the pre-link `--emit asm`
//! rlib output is unoptimized and reads as scalar even when the linked
//! product vectorizes fine.
//!
//! ```text
//! cargo xtask asm-check                # packed-SIMD codegen gate
//! cargo xtask asm-check --binary PATH  # check an already-built binary
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("asm-check") => run_asm_check(&args[1..]),
        Some(other) => {
            eprintln!("unknown task `{other}`; available tasks: asm-check");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo run -p xtask -- asm-check [--binary PATH]");
            ExitCode::FAILURE
        }
    }
}

/// The `multiversion_sweep!` pairs checked by `asm-check`: every batch
/// sweep front and its `_avx2` twin.
const SWEEP_ANCHORS: &[&str] = &[
    "apply_1q_diag",
    "apply_1q_antidiag",
    "apply_1q_general",
    "sweep_1q_perlane_diag",
    "sweep_1q_perlane_general",
    "apply_2q_diag",
    "apply_2q_controlled",
    "apply_2q_general",
    "sweep_2q_perlane_controlled",
    "sweep_2q_perlane_general",
    "sweep_kraus_prob_and_norm",
    "sweep_1q_diag_normalized",
    "sweep_expect_z",
    "sweep_diag_weighted",
    "sweep_transfer_1q",
    "sweep_transfer_2q",
    "sweep_transfer_control_block",
];

fn run_asm_check(flags: &[String]) -> ExitCode {
    let mut binary: Option<String> = None;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--binary" => match it.next() {
                Some(p) => binary = Some(p.clone()),
                None => {
                    eprintln!("xtask asm-check: --binary requires a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("xtask asm-check: unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    // The anchors assert x86 encodings; other architectures have nothing
    // to check (the sweeps still compile, just to that ISA's vectors).
    if !cfg!(target_arch = "x86_64") {
        println!("xtask asm-check: skipped (x86_64 only)");
        return ExitCode::SUCCESS;
    }

    let root = workspace_root();
    let bin_path = match binary {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            // Any release binary that links the batch sweeps works; the
            // micro-benchmarks exercise every one of them.
            let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
            let status = std::process::Command::new(cargo)
                .args([
                    "build",
                    "--release",
                    "-p",
                    "qns-bench",
                    "--bin",
                    "microbench",
                ])
                .current_dir(&root)
                .status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("xtask asm-check: cargo build failed with {s}");
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("xtask asm-check: failed to run cargo: {e}");
                    return ExitCode::FAILURE;
                }
            }
            root.join("target/release/microbench")
        }
    };

    let disasm = match std::process::Command::new("objdump")
        .arg("-d")
        .arg(&bin_path)
        .output()
    {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).into_owned(),
        Ok(out) => {
            eprintln!(
                "xtask asm-check: objdump failed: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            );
            return ExitCode::FAILURE;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            println!("xtask asm-check: skipped (objdump not found)");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("xtask asm-check: failed to run objdump: {e}");
            return ExitCode::FAILURE;
        }
    };

    let symbols = split_symbols(&disasm);
    let mut failures = 0usize;
    for name in SWEEP_ANCHORS {
        for (suffix, want_packed, want_wide) in [("", "mulpd", false), ("_avx2", "vmulpd", true)] {
            let full = format!("{name}{suffix}");
            // v0 mangling: ...10StateBatch<len><name>17h<hash>E.
            let needle = format!("StateBatch{}{}17h", full.len(), full);
            let Some(body) = symbols
                .iter()
                .find(|(sym, _)| sym.contains(&needle))
                .map(|(_, b)| *b)
            else {
                eprintln!(
                    "xtask asm-check: FAIL {full}: symbol not found in {}",
                    bin_path.display()
                );
                failures += 1;
                continue;
            };
            // `mulpd` must match the SSE encoding, not a substring of
            // `vmulpd`; `%ymm` distinguishes 256-bit from 128-bit AVX.
            let packed = body
                .lines()
                .filter(|l| l.contains(want_packed))
                .filter(|l| want_wide || !l.contains("vmulpd"))
                .count();
            let wide_ok = !want_wide || body.contains("%ymm");
            if packed == 0 || !wide_ok {
                eprintln!(
                    "xtask asm-check: FAIL {full}: expected packed `{want_packed}`{} (found {packed} packed mul(s))",
                    if want_wide { " on %ymm" } else { "" },
                );
                failures += 1;
            } else {
                println!("xtask asm-check: ok {full} ({packed} packed mul(s))");
            }
        }
    }
    if failures == 0 {
        println!(
            "xtask asm-check: {} sweep pair(s) packed at both widths",
            SWEEP_ANCHORS.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask asm-check: {failures} failure(s)");
        ExitCode::FAILURE
    }
}

/// Splits `objdump -d` output into `(symbol, body)` sections.
fn split_symbols(disasm: &str) -> Vec<(&str, &str)> {
    let mut out = Vec::new();
    let mut cur_sym: Option<(&str, usize)> = None;
    let mut offset = 0;
    for line in disasm.lines() {
        let line_start = offset;
        offset += line.len() + 1;
        if let Some(rest) = line.strip_suffix(">:") {
            if let Some(idx) = rest.find('<') {
                if let Some((sym, start)) = cur_sym.take() {
                    out.push((sym, &disasm[start..line_start]));
                }
                cur_sym = Some((&rest[idx + 1..], offset.min(disasm.len())));
            }
        }
    }
    if let Some((sym, start)) = cur_sym.take() {
        out.push((sym, &disasm[start.min(disasm.len())..]));
    }
    out
}

/// The workspace root, two levels above this crate's manifest.
fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}
