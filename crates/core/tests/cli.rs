//! `qnas` command-line errors: a value flag with no value is a usage
//! error (exit 2), not a silent fallback to its default.

use std::process::Command;

fn qnas(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_qnas"))
        .args(args)
        .output()
        .expect("qnas runs")
}

#[test]
fn value_flag_without_a_value_is_a_usage_error() {
    for flags in [
        &["--seed"][..],
        &["--checkpoint-dir"],
        &["--qasm"],
        &["--objectives"],
        &["--front-out"],
        &["--fault-eval"],
        &["--fault-boundary"],
        &["--workers", "--no-cache"],
        &["--checkpoint-dir", "--resume"],
        &["--task", "mnist2", "--samples"],
    ] {
        let mut args = vec!["run"];
        args.extend_from_slice(flags);
        let out = qnas(&args);
        assert_eq!(out.status.code(), Some(2), "qnas {}", args.join(" "));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: qnas"),
            "qnas {}: {stderr}",
            args.join(" ")
        );
    }
}

#[test]
fn unknown_values_are_usage_errors() {
    for args in [
        &["run", "--task", "nosuch"][..],
        &["run", "--workers", "many"],
        &["run", "--verify", "sometimes"],
        &["run", "--proxy", "maybe"],
        &["nosuch"],
    ] {
        assert_eq!(qnas(args).status.code(), Some(2), "qnas {}", args.join(" "));
    }
}
