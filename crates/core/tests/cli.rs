//! `qnas` command-line errors: a value flag with no value, an unknown
//! argument, a flag given twice or an unusable value is a usage error
//! (exit 2), not a silent fallback to a default or to the flag's first
//! value; a checkpoint directory or an output file that cannot be written
//! fails the run (exit 1), never with a panic; a reader that closes
//! stdout early ends the listing quietly (exit 0).

use std::process::{Command, Stdio};

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
fn a_closed_stdout_exits_quietly() {
    for cmd in ["devices", "spaces"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_qnas"))
            .arg(cmd)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("qnas starts");
        // Close the read end before qnas writes its first line.
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("qnas exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "qnas {cmd}: {stderr}");
        assert!(!stderr.contains("panicked"), "qnas {cmd}: {stderr}");
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

#[test]
fn unknown_arguments_are_usage_errors() {
    for args in [
        &[
            "run",
            "--preset",
            "smoke",
            "--samples",
            "40",
            "--wrokers",
            "2",
        ][..],
        &["run", "--preset", "smoke", "stray"],
        &["run", "--stats", "--verify", "--nosuch"],
        &["run", "--proxy", "on", "--resumee"],
        &["devices", "--bogus"],
        &["spaces", "extra"],
    ] {
        let out = qnas(args);
        assert_eq!(out.status.code(), Some(2), "qnas {}", args.join(" "));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown argument") && stderr.contains("usage: qnas"),
            "qnas {}: {stderr}",
            args.join(" ")
        );
    }
}

#[test]
fn a_flag_given_twice_is_a_usage_error() {
    for (flags, flag) in [
        (&["--seed", "1", "--seed", "2"][..], "--seed"),
        (&["--task", "mnist2", "--task", "vqe-h2"], "--task"),
        (&["--verify", "--verify", "off"], "--verify"),
        (&["--proxy", "on", "--proxy"], "--proxy"),
        (&["--stats", "--stats"], "--stats"),
    ] {
        let mut args = vec!["run", "--preset", "smoke", "--samples", "40"];
        args.extend_from_slice(flags);
        let out = qnas(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "qnas {}: {stderr}",
            args.join(" ")
        );
        assert!(
            stderr.contains(&format!("{flag} given twice")) && stderr.contains("usage: qnas"),
            "qnas {}: {stderr}",
            args.join(" ")
        );
    }
}

#[test]
fn failed_output_writes_exit_nonzero_after_the_report() {
    let missing = std::env::temp_dir()
        .join(format!("qns-cli-{}-missing", std::process::id()))
        .join("sub");
    let qasm = missing.join("out.qasm");
    let front = missing.join("front.json");
    let smoke = [
        "run",
        "--preset",
        "smoke",
        "--samples",
        "40",
        "--workers",
        "1",
    ];
    for extra in [
        vec!["--qasm", qasm.to_str().unwrap()],
        vec![
            "--objectives",
            "loss,depth",
            "--front-out",
            front.to_str().unwrap(),
        ],
    ] {
        let mut args = smoke.to_vec();
        args.extend(extra);
        let out = qnas(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "qnas {}: {stderr}",
            args.join(" ")
        );
        assert!(
            stderr.contains("failed to write"),
            "qnas {}: {stderr}",
            args.join(" ")
        );
        assert!(
            stdout.contains("search evaluations:"),
            "qnas {}: report missing: {stdout}",
            args.join(" ")
        );
    }
}

#[test]
fn a_checkpoint_dir_that_cannot_be_created_exits_1_before_the_run() {
    // A directory under a regular file can never be created.
    let file = std::env::temp_dir().join(format!("qns-cli-{}-file", std::process::id()));
    std::fs::write(&file, b"not a directory").expect("write temp file");
    let dir = file.join("ckpt");
    let args = [
        "run",
        "--preset",
        "smoke",
        "--samples",
        "40",
        "--checkpoint-dir",
        dir.to_str().unwrap(),
    ];
    let out = qnas(&args);
    let _ = std::fs::remove_file(&file);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "qnas {}: {stderr}",
        args.join(" ")
    );
    assert!(
        stderr.contains("cannot open checkpoint dir") && !stderr.contains("panicked"),
        "qnas {}: {stderr}",
        args.join(" ")
    );
    assert!(
        !stdout.contains("search evaluations:"),
        "qnas {}: the run started: {stdout}",
        args.join(" ")
    );
}

#[test]
fn a_zero_max_bond_is_a_usage_error() {
    let args = [
        "run",
        "--preset",
        "smoke",
        "--samples",
        "40",
        "--backend",
        "mps",
        "--max-bond",
        "0",
    ];
    let out = qnas(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "qnas {}: {stderr}",
        args.join(" ")
    );
    assert!(
        stderr.contains("--max-bond must be at least 1") && stderr.contains("usage: qnas"),
        "qnas {}: {stderr}",
        args.join(" ")
    );
}

#[test]
fn a_zero_checkpoint_interval_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("qns-cli-every0-{}", std::process::id()));
    let dir = dir.to_string_lossy().into_owned();
    let args = [
        "run",
        "--preset",
        "smoke",
        "--samples",
        "40",
        "--checkpoint-dir",
        &dir,
        "--checkpoint-every",
        "0",
    ];
    let out = qnas(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        out.status.code(),
        Some(2),
        "qnas {}: {stderr}",
        args.join(" ")
    );
    assert!(
        stderr.contains("--checkpoint-every must be at least 1") && stderr.contains("usage: qnas"),
        "qnas {}: {stderr}",
        args.join(" ")
    );
}

#[test]
fn a_checkpoint_interval_without_a_dir_is_a_usage_error() {
    let args = [
        "run",
        "--preset",
        "smoke",
        "--samples",
        "40",
        "--checkpoint-every",
        "3",
    ];
    let out = qnas(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "qnas {}: {stderr}",
        args.join(" ")
    );
    assert!(
        stderr.contains("--checkpoint-every requires --checkpoint-dir")
            && stderr.contains("usage: qnas"),
        "qnas {}: {stderr}",
        args.join(" ")
    );
}

#[test]
fn value_flags_the_run_would_ignore_are_usage_errors() {
    for (flags, message) in [
        (
            &["--proxy-keep", "0.5"][..],
            "--proxy-keep requires --proxy on",
        ),
        (
            &["--proxy-warmup", "1"],
            "--proxy-warmup requires --proxy on",
        ),
        (
            &["--proxy", "off", "--proxy-keep", "7"],
            "--proxy-keep requires --proxy on",
        ),
        (&["--max-bond", "8"], "--max-bond requires --backend mps"),
        (
            &["--backend", "statevec", "--max-bond", "8"],
            "--max-bond requires --backend mps",
        ),
        (&["--task", "vowel4"], "--samples applies only to"),
        (&["--task", "vqe-h2"], "--samples applies only to"),
    ] {
        let mut args = vec!["run", "--preset", "smoke", "--samples", "40"];
        args.extend_from_slice(flags);
        let out = qnas(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "qnas {}: {stderr}",
            args.join(" ")
        );
        assert!(
            stderr.contains(message) && stderr.contains("usage: qnas"),
            "qnas {}: {stderr}",
            args.join(" ")
        );
    }
}

#[test]
fn zero_fault_sites_are_usage_errors() {
    for flag in ["--fault-eval", "--fault-boundary"] {
        let args = ["run", "--preset", "smoke", "--samples", "40", flag, "0"];
        let out = qnas(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "qnas {}: {stderr}",
            args.join(" ")
        );
        assert!(
            stderr.contains(&format!("{flag} must be at least 1"))
                && stderr.contains("usage: qnas"),
            "qnas {}: {stderr}",
            args.join(" ")
        );
    }
}

/// The `--stats` line `NAME  VALUE` of a run's report, parsed.
fn stat(stdout: &str, name: &str) -> Option<usize> {
    stdout.lines().find_map(|line| {
        let mut words = line.split_whitespace();
        (words.next() == Some(name)).then(|| words.next()?.parse().ok())?
    })
}

#[test]
fn stats_count_search_generations_only() {
    // The smoke preset runs a 2-generation Pareto search and then one
    // pruning round; the round is not a generation.
    let args = ["run", "--preset", "smoke", "--samples", "40", "--stats"];
    let out = qnas(&args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "qnas {}", args.join(" "));
    let generations = stat(&stdout, "generations");
    assert!(generations.is_some(), "no generation count: {stdout}");
    assert_eq!(
        generations,
        stat(&stdout, "pareto_generations"),
        "qnas {}: {stdout}",
        args.join(" ")
    );
}

/// Runs `qnas run --preset smoke --task TASK --samples N` and checks it is
/// a usage error naming `--samples MIN`, not a panic.
fn assert_rejects_samples(task: &str, samples: &str, min: &str) {
    let args = [
        "run",
        "--preset",
        "smoke",
        "--task",
        task,
        "--samples",
        samples,
    ];
    let out = qnas(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "qnas {}: {stderr}",
        args.join(" ")
    );
    assert!(
        stderr.contains(&format!("use --samples {min} or more")) && !stderr.contains("panicked"),
        "qnas {}: {stderr}",
        args.join(" ")
    );
}

#[test]
fn a_device_narrower_than_the_task_is_a_usage_error() {
    // LiH needs 6 qubits; belem and quito have 5.
    for device in ["belem", "quito"] {
        let args = ["run", "--task", "vqe-lih", "--device", device];
        let out = qnas(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "qnas {}: {stderr}",
            args.join(" ")
        );
        assert!(
            stderr.contains(&format!("needs 6 qubits but device {device} has 5"))
                && stderr.contains("usage: qnas")
                && !stderr.contains("panicked"),
            "qnas {}: {stderr}",
            args.join(" ")
        );
    }
}

#[test]
fn zero_samples_is_a_usage_error() {
    // No data at all: training must never start (it would panic drawing
    // a minibatch from an empty split).
    assert_rejects_samples("mnist2", "0", "7");
}

#[test]
fn sample_counts_without_a_validation_sample_are_usage_errors() {
    // Training data but no validation sample: every candidate score would
    // panic on the empty split, so the run must not start.
    assert_rejects_samples("mnist2", "6", "7");
    assert_rejects_samples("fashion2", "3", "7");
    assert_rejects_samples("mnist4", "3", "4");
}

#[test]
fn the_smallest_workable_sample_count_runs() {
    let args = [
        "run",
        "--preset",
        "smoke",
        "--task",
        "mnist4",
        "--samples",
        "4",
        "--workers",
        "1",
    ];
    let out = qnas(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "qnas {}: {stderr}",
        args.join(" ")
    );
    assert!(
        !stderr.contains("panicked"),
        "qnas {}: {stderr}",
        args.join(" ")
    );
}
