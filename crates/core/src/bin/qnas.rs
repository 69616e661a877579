//! `qnas` — command-line front end for the QuantumNAS pipeline.
//!
//! ```text
//! qnas devices                         list the device models
//! qnas spaces                          list the design spaces
//! qnas run [options]                   run the full pipeline
//!   --task    mnist2|mnist4|fashion2|fashion4|vowel4|vqe-h2|vqe-lih
//!   --space   u3cu3|zzry|rxyz|zxxx|rxyzu1cu3|ibmq
//!   --device  yorktown|belem|...       (see `qnas devices`)
//!   --seed    <u64>
//!   --preset  fast|smoke               pipeline scale (smoke finishes in
//!                                      seconds; used by the CI fault drill)
//!   --samples <n>                      QML dataset samples (default 150;
//!                                      mnist2|mnist4|fashion2|fashion4)
//!   --backend statevec|reference|mps   simulation backend for every scoring
//!                                      path (default statevec); mps scores on
//!                                      a bond-truncated matrix-product state
//!                                      and reports truncation telemetry in
//!                                      --stats
//!   --max-bond <n>                     MPS bond-dimension cap, at least 1
//!                                      (default 64; needs --backend mps)
//!   --workers <n>                      evaluation workers (0 = one per core)
//!   --no-cache                         disable transpile cache + score memo
//!   --verify [off|contracts|full]      per-stage transpiler verification
//!                                      (bare --verify = full)
//!   --checkpoint-dir <path>            snapshot train/search/prune state
//!   --checkpoint-every <n>             snapshot every n loop units, at
//!                                      least 1 (default 1); needs
//!                                      --checkpoint-dir
//!   --resume                           continue from the latest valid
//!                                      snapshot in --checkpoint-dir; the
//!                                      resumed run's results are bitwise
//!                                      identical to an uninterrupted run
//!   --proxy [on|off]                   proxy prescreening of search offspring
//!                                      (bare --proxy = on; off by default)
//!   --proxy-keep <f>                   fraction of each generation escalated
//!                                      to full scoring (default 0.25; needs
//!                                      --proxy on)
//!   --proxy-warmup <n>                 leading generations scored in full
//!                                      (default 2; needs --proxy on)
//!   --objectives <list>                multi-objective Pareto co-search
//!                                      (NSGA-II) over a comma-separated
//!                                      subset of loss,depth,twoq; the first
//!                                      objective drives the downstream
//!                                      pipeline stages
//!   --front-out <path>                 write the searched Pareto front as
//!                                      JSON (requires --objectives)
//!   --fault-eval <n>                   inject a panic into the nth candidate
//!                                      evaluation (isolated + counted; n
//!                                      counts from 1)
//!   --fault-boundary <k>               crash the process at the kth loop
//!                                      boundary (simulated kill; k counts
//!                                      from 1)
//!   --stats                            print the runtime telemetry summary
//!   --qasm    <path>                   export the deployed circuit
//! ```
//!
//! An unknown argument (anything after `devices` or `spaces` included), an
//! unknown value, a value flag without a value, a flag given twice, a value
//! flag the run would ignore (`--proxy-keep`/`--proxy-warmup` without
//! `--proxy on`, `--max-bond` without `--backend mps`, `--samples` on a
//! task with fixed data: vowel4, vqe-h2, vqe-lih), a `--max-bond`,
//! `--fault-eval` or `--fault-boundary` of 0, a `--samples` count too small
//! to leave a validation sample or a device with fewer qubits than the task
//! prints usage and exits 2. A `--checkpoint-dir` that cannot be created exits 1
//! before the run starts; a `--qasm` or `--front-out` file that cannot be
//! written exits 1 after the report. A stdout closed by its reader (`qnas
//! devices | head -1`) ends the process quietly with status 0; any other
//! stdout write error exits 1.

use qns_chem::Molecule;
use qns_circuit::to_qasm;
use qns_noise::Device;
use qns_runtime::CheckpointStore;
use qns_transpile::transpile;
use qns_verify::VerifyLevel;
use quantumnas::{
    CheckpointOptions, FaultPlan, QuantumNas, QuantumNasConfig, RuntimeOptions, SpaceKind, Task,
};
use std::io::{ErrorKind, Write};
use std::sync::Arc;

/// Writes one line to stdout, the only way `qnas` writes there. A closed
/// stdout (a reader such as `head` that exits early) ends the process
/// quietly with status 0; any other write error exits 1.
fn write_line(line: std::fmt::Arguments) {
    match writeln!(std::io::stdout().lock(), "{line}") {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(_) => std::process::exit(1),
    }
}

/// `println!` through [`write_line`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_line(format_args!($($arg)*))
    };
}

fn usage() -> ! {
    eprintln!(
        "usage: qnas <devices|spaces|run> [--task T] [--space S] [--device D] \
         [--seed N] [--preset fast|smoke] [--samples N] \
         [--backend statevec|reference|mps] [--max-bond N] [--workers N] [--no-cache] \
         [--verify [off|contracts|full]] [--checkpoint-dir PATH] \
         [--checkpoint-every N] [--resume] [--proxy [on|off]] [--proxy-keep F] \
         [--proxy-warmup N] [--objectives LIST] [--front-out PATH] \
         [--fault-eval N] [--fault-boundary K] [--stats] [--qasm PATH]"
    );
    std::process::exit(2);
}

/// `qnas run` flags that take a value.
const VALUE_FLAGS: [&str; 18] = [
    "--task",
    "--space",
    "--device",
    "--seed",
    "--preset",
    "--samples",
    "--backend",
    "--max-bond",
    "--workers",
    "--checkpoint-dir",
    "--checkpoint-every",
    "--proxy-keep",
    "--proxy-warmup",
    "--objectives",
    "--front-out",
    "--fault-eval",
    "--fault-boundary",
    "--qasm",
];

/// `qnas run` flags whose value is optional.
const OPTIONAL_VALUE_FLAGS: [&str; 2] = ["--verify", "--proxy"];

/// `qnas run` flags that take no value.
const SWITCHES: [&str; 3] = ["--no-cache", "--resume", "--stats"];

/// Rejects any argument that is neither a known flag nor a flag's value,
/// so a typo such as `--wrokers 2` is a usage error instead of a run on
/// the defaults, and any flag given twice, which would otherwise run on
/// its first value and drop the second.
fn check_run_args(args: &[String]) {
    let mut seen: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let optional = OPTIONAL_VALUE_FLAGS.contains(&arg);
        i += if VALUE_FLAGS.contains(&arg)
            || optional && args.get(i + 1).is_some_and(|v| !v.starts_with("--"))
        {
            2
        } else if optional || SWITCHES.contains(&arg) {
            1
        } else {
            eprintln!("unknown argument '{arg}'");
            usage()
        };
        if seen.contains(&arg) {
            eprintln!("{arg} given twice");
            usage()
        }
        seen.push(arg);
    }
}

/// Builds the task `name`. `samples` (`--samples`, default 150) sizes the
/// mnist and fashion datasets; vowel4 and the VQE tasks have fixed data,
/// so a `--samples` given with them, which the run would ignore, prints
/// usage and exits 2.
fn parse_task(name: &str, samples: Option<usize>, seed: u64) -> Task {
    let sampled = samples.unwrap_or(150);
    let fixed = |task| {
        if samples.is_some() {
            eprintln!("--samples applies only to mnist2, mnist4, fashion2, fashion4");
            usage()
        }
        task
    };
    match name {
        "mnist2" => Task::qml_digits(&[3, 6], sampled, 4, seed),
        "mnist4" => Task::qml_digits(&[0, 1, 2, 3], sampled, 4, seed),
        "fashion2" => Task::qml_fashion(&[3, 6], sampled, 4, seed),
        "fashion4" => Task::qml_fashion(&[0, 1, 2, 3], sampled, 4, seed),
        "vowel4" => fixed(Task::qml_vowel(seed)),
        "vqe-h2" => fixed(Task::vqe(&Molecule::h2())),
        "vqe-lih" => fixed(Task::vqe(&Molecule::lih())),
        other => {
            eprintln!("unknown task '{other}'");
            usage()
        }
    }
}

/// Rejects a given `--samples` count that leaves a QML task no validation
/// sample, which no candidate could be scored on: prints the smallest
/// workable count and exits 2.
fn check_samples(task: &Task, name: &str, samples: Option<usize>, seed: u64) {
    let Some(samples) = samples else {
        return;
    };
    let no_validation =
        |t: &Task| matches!(t, Task::Qml { splits, .. } if splits.valid.num_samples() == 0);
    if no_validation(task) {
        let min = (samples + 1..)
            .find(|&n| !no_validation(&parse_task(name, Some(n), seed)))
            .expect("some sample count fills the validation split");
        eprintln!(
            "--samples {samples} leaves {} no validation samples; use --samples {min} or more",
            task.name()
        );
        usage()
    }
}

fn parse_space(name: &str) -> SpaceKind {
    match name {
        "u3cu3" => SpaceKind::U3Cu3,
        "zzry" => SpaceKind::ZzRy,
        "rxyz" => SpaceKind::Rxyz,
        "zxxx" => SpaceKind::ZxXx,
        "rxyzu1cu3" => SpaceKind::RxyzU1Cu3,
        "ibmq" => SpaceKind::IbmqBasis,
        other => {
            eprintln!("unknown space '{other}'");
            usage()
        }
    }
}

/// A pipeline scale that finishes in a few seconds: 12 training steps,
/// 2 search generations, 1 pruning round, and the cheap success-rate
/// estimator. Used by the CI fault-tolerance drill, where the pipeline is
/// run twice (kill + resume) per check.
fn smoke_config() -> QuantumNasConfig {
    let mut config = QuantumNasConfig::fast();
    config.super_train.steps = 12;
    config.super_train.warmup_steps = 2;
    config.evo.iterations = 2;
    config.evo.population = 6;
    config.evo.parents = 2;
    config.evo.mutations = 2;
    config.evo.crossovers = 2;
    config.estimator = quantumnas::EstimatorKind::SuccessRate;
    config.train.epochs = 3;
    config.n_test = 10;
    config.prune = Some(quantumnas::PruneConfig {
        steps: 1,
        finetune_epochs: 1,
        ..Default::default()
    });
    config.measure.trajectories = 4;
    config
}

fn cmd_devices() {
    outln!(
        "{:<11} {:>7} {:>10} {:>10} {:>10}",
        "name",
        "qubits",
        "topology",
        "QV",
        "mean e2q"
    );
    for (_, make) in Device::CATALOGUE {
        let d = make();
        outln!(
            "{:<11} {:>7} {:>10} {:>10} {:>10.4}",
            d.name(),
            d.num_qubits(),
            format!("{:?}", d.topology()),
            d.quantum_volume(),
            d.mean_err_2q()
        );
    }
}

fn cmd_spaces() {
    outln!("{:<14} {:>8} {:>14}", "space", "blocks", "layers/block");
    for &kind in SpaceKind::all() {
        let s = quantumnas::DesignSpace::new(kind);
        outln!(
            "{:<14} {:>8} {:>14}",
            s.kind().name(),
            s.default_blocks(),
            s.layers_per_block().len()
        );
    }
}

fn cmd_run(args: &[String]) {
    check_run_args(args);
    // A value flag given last, or followed by another flag, is a usage
    // error rather than a silent fallback to its default.
    let value = |flag: &str| -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Some(v.clone()),
            _ => {
                eprintln!("{flag} needs a value");
                usage()
            }
        }
    };
    let get = |flag: &str, default: &str| value(flag).unwrap_or_else(|| default.to_string());
    let seed: u64 = get("--seed", "42").parse().unwrap_or_else(|_| usage());
    let samples: Option<usize> = value("--samples").map(|n| n.parse().unwrap_or_else(|_| usage()));
    let task_name = get("--task", "mnist2");
    let task = parse_task(&task_name, samples, seed);
    check_samples(&task, &task_name, samples, seed);
    let space = parse_space(&get("--space", "u3cu3"));
    let device = Device::by_name(&get("--device", "yorktown")).unwrap_or_else(|| {
        eprintln!("unknown device (see `qnas devices`)");
        usage()
    });
    if device.num_qubits() < task.num_qubits() {
        eprintln!(
            "task {} needs {} qubits but device {} has {} (see `qnas devices`)",
            task.name(),
            task.num_qubits(),
            device.name(),
            device.num_qubits()
        );
        usage()
    }
    let qasm_path = value("--qasm");
    // `--verify` alone means full checking; an optional value picks the
    // level (`--verify contracts` skips the equivalence spot check).
    let verify_level = match args.iter().position(|a| a == "--verify") {
        None => VerifyLevel::Off,
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("off") => VerifyLevel::Off,
            Some("contracts") => VerifyLevel::Contracts,
            Some("full") => VerifyLevel::Full,
            Some(v) if !v.starts_with("--") => {
                eprintln!("unknown verify level '{v}' (off|contracts|full)");
                usage()
            }
            _ => VerifyLevel::Full,
        },
    };
    // `--proxy` alone switches prescreening on; an optional value makes the
    // choice explicit so scripts can pass `--proxy off`.
    let proxy_enabled = match args.iter().position(|a| a == "--proxy") {
        None => false,
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("off") => false,
            Some("on") => true,
            Some(v) if !v.starts_with("--") => {
                eprintln!("unknown proxy mode '{v}' (on|off)");
                usage()
            }
            _ => true,
        },
    };
    let proxy = quantumnas::ProxyOptions {
        enabled: proxy_enabled,
        keep: get("--proxy-keep", "0.25")
            .parse()
            .unwrap_or_else(|_| usage()),
        warmup: get("--proxy-warmup", "2")
            .parse()
            .unwrap_or_else(|_| usage()),
    };
    // Both values enter the search's resume context, so one the run would
    // ignore is refused rather than left to make a resume look stale.
    for flag in ["--proxy-keep", "--proxy-warmup"] {
        if !proxy.enabled && value(flag).is_some() {
            eprintln!("{flag} requires --proxy on");
            usage()
        }
    }
    if proxy.enabled && !(proxy.keep > 0.0 && proxy.keep <= 1.0) {
        eprintln!("--proxy-keep must be in (0, 1]");
        usage()
    }
    let objectives = value("--objectives").map(|spec| {
        quantumnas::parse_objectives(&spec).unwrap_or_else(|e| {
            eprintln!("--objectives: {e}");
            usage()
        })
    });
    let front_out = value("--front-out");
    if front_out.is_some() && objectives.is_none() {
        eprintln!("--front-out requires --objectives");
        usage()
    }
    let max_bond: usize = get("--max-bond", "64").parse().unwrap_or_else(|_| usage());
    if max_bond == 0 {
        eprintln!("--max-bond must be at least 1");
        usage()
    }
    let backend = match get("--backend", "statevec").as_str() {
        "statevec" | "fast" => qns_sim::SimBackend::Fast,
        "reference" => qns_sim::SimBackend::Reference,
        "mps" => qns_sim::SimBackend::Mps(qns_sim::MpsConfig {
            max_bond,
            ..Default::default()
        }),
        other => {
            eprintln!("unknown backend '{other}' (statevec|reference|mps)");
            usage()
        }
    };
    if !matches!(backend, qns_sim::SimBackend::Mps(_)) && value("--max-bond").is_some() {
        eprintln!("--max-bond requires --backend mps");
        usage()
    }
    let workers: usize = get("--workers", "0").parse().unwrap_or_else(|_| usage());
    // Per-sample simulation fan-out honors the same flag (it used to be
    // latched at first use, ignoring later settings).
    qns_sim::set_parallelism(workers);
    let every: usize = get("--checkpoint-every", "1")
        .parse()
        .unwrap_or_else(|_| usage());
    if every == 0 {
        eprintln!("--checkpoint-every must be at least 1");
        usage()
    }
    let checkpoint = value("--checkpoint-dir").map(|dir| CheckpointOptions {
        dir: dir.into(),
        every,
        resume: args.iter().any(|a| a == "--resume"),
    });
    if checkpoint.is_none() && args.iter().any(|a| a == "--resume") {
        eprintln!("--resume requires --checkpoint-dir");
        usage()
    }
    if checkpoint.is_none() && value("--checkpoint-every").is_some() {
        eprintln!("--checkpoint-every requires --checkpoint-dir");
        usage()
    }
    let runtime = RuntimeOptions {
        workers,
        cache: !args.iter().any(|a| a == "--no-cache"),
        verify: verify_level,
        checkpoint: checkpoint.clone(),
    };
    // Fault sites count from 1: a 0 would schedule a fault that never
    // fires, and a drill would pass without injecting anything.
    let fault_site = |flag: &str| -> Option<u64> {
        let site: u64 = value(flag)?.parse().unwrap_or_else(|_| usage());
        if site == 0 {
            eprintln!("{flag} must be at least 1");
            usage()
        }
        Some(site)
    };
    let mut faults = FaultPlan::new();
    let mut have_faults = false;
    if let Some(n) = fault_site("--fault-eval") {
        faults = faults.fail_eval(n);
        have_faults = true;
    }
    if let Some(k) = fault_site("--fault-boundary") {
        faults = faults.crash_at_boundary(k);
        have_faults = true;
    }
    let show_stats = args.iter().any(|a| a == "--stats");

    outln!(
        "QuantumNAS: task {} | space {} | device {} | seed {}",
        task.name(),
        space.name(),
        device.name(),
        seed
    );
    if let Some(ck) = &checkpoint {
        outln!(
            "checkpointing: dir {} | every {} | resume {}",
            ck.dir.display(),
            ck.every,
            ck.resume
        );
    }
    let is_qml = task.is_qml();
    let mut config = match get("--preset", "fast").as_str() {
        "fast" => QuantumNasConfig::fast(),
        "smoke" => smoke_config(),
        other => {
            eprintln!("unknown preset '{other}' (fast|smoke)");
            usage()
        }
    };
    config.runtime = runtime;
    config.backend = backend;
    if let qns_sim::SimBackend::Mps(mps) = backend {
        outln!("backend: mps (max bond {})", mps.max_bond);
    }
    config.evo.proxy = proxy;
    config.objectives = objectives.clone();
    if have_faults {
        config.faults = Some(Arc::new(faults));
    }
    if !is_qml {
        // VQE needs longer, hotter optimization than the QML defaults.
        config.train = quantumnas::TrainConfig {
            epochs: 250,
            lr: 0.05,
            ..Default::default()
        };
        config.prune = None;
    }
    if let Some(ck) = &checkpoint {
        if let Err(e) = CheckpointStore::open(&ck.dir) {
            eprintln!("cannot open checkpoint dir {}: {e}", ck.dir.display());
            std::process::exit(1);
        }
    }
    let nas = QuantumNas::new(space, device.clone(), task, config);
    let report = nas.run(seed);
    // A failed output write still prints the whole report, then exits 1.
    let mut write_failed = false;

    outln!(
        "\nsearched architecture: {} blocks, {} parameters",
        report.gene.config.n_blocks,
        report.n_params
    );
    outln!("qubit mapping: {:?}", report.gene.layout);
    outln!("noise-free validation loss: {:.4}", report.trained_loss);
    if is_qml {
        outln!(
            "measured accuracy (before prune): {:.3}",
            report.accuracy_before_prune
        );
        outln!(
            "measured accuracy (after pruning {:.0}%): {:.3}",
            100.0 * report.pruned_ratio,
            report.final_accuracy
        );
    } else {
        outln!("measured energy: {:.4}", report.final_energy);
    }
    outln!(
        "search evaluations: {} real + {} memoized",
        report.search_evaluations,
        report.search_memo_hits
    );
    if proxy.enabled {
        outln!(
            "proxy prescreening: {} features, {} escalated, {} duplicates skipped",
            report.search_proxy_evals,
            report.search_proxy_escalations,
            report.search_proxy_dedup_hits
        );
    }
    if let Some(objectives) = &objectives {
        let names: Vec<&str> = objectives.iter().map(|o| o.name()).collect();
        outln!(
            "\nPareto front: {} points over ({})",
            report.front.len(),
            names.join(", ")
        );
        for point in &report.front {
            let vals: Vec<String> = point.objectives.iter().map(|v| format!("{v:.4}")).collect();
            outln!(
                "  {} blocks, mapping {:?} :: ({})",
                point.gene.config.n_blocks,
                point.gene.layout,
                vals.join(", ")
            );
        }
        // "One search, many devices": match the same front against every
        // device model's calibration fingerprint.
        let sc = nas.supercircuit();
        outln!("device match (front point minimizing estimated error):");
        for (name, make) in Device::CATALOGUE {
            let d = make();
            match quantumnas::match_front_to_device(&sc, nas.task(), &report.front, &d, 2) {
                Some((idx, err)) => {
                    let point = &report.front[idx];
                    outln!(
                        "  {:<11} -> point {} (mapping {:?}), est. error {:.4}",
                        name,
                        idx,
                        point.gene.layout,
                        err
                    );
                }
                None => outln!("  {name:<11} -> no front point fits"),
            }
        }
        if let Some(path) = &front_out {
            let json = quantumnas::front_json(objectives, &report.front);
            if std::fs::write(path, json).is_ok() {
                outln!("wrote Pareto front to {path}");
            } else {
                eprintln!("failed to write {path}");
                write_failed = true;
            }
        }
    }
    if show_stats {
        outln!("\n{}", report.runtime_summary);
    }

    if let Some(path) = qasm_path {
        // Export the deployed (compiled, trained) circuit. Data-encoding
        // inputs resolve against the all-zeros sample.
        let t = transpile(&report.final_circuit, &device, &report.gene.layout(), 2);
        let inputs = vec![0.0; t.circuit.num_inputs()];
        match to_qasm(&t.circuit, &report.final_params, &inputs) {
            Ok(qasm) => {
                let header = format!(
                    "// QuantumNAS deployed circuit ({} params, mapping {:?})\n\
                     // data-encoding angles bound to the all-zeros sample\n",
                    report.n_params, report.gene.layout
                );
                if std::fs::write(&path, header + &qasm).is_ok() {
                    outln!("wrote OpenQASM to {path}");
                } else {
                    eprintln!("failed to write {path}");
                    write_failed = true;
                }
            }
            Err(gate) => eprintln!("cannot export gate {gate}"),
        }
    }
    if write_failed {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("devices" | "spaces") if args.len() > 1 => {
            eprintln!("unknown argument '{}'", args[1]);
            usage()
        }
        Some("devices") => cmd_devices(),
        Some("spaces") => cmd_spaces(),
        Some("run") => cmd_run(&args[1..]),
        _ => usage(),
    }
}
