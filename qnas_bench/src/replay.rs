//! The traced replay: `QuantumNas::run` re-enacted one stage at a time
//! through the public stage functions, each call timed from outside as a
//! span, with the run's own `Metrics` registry read around it.
//!
//! The replay must reproduce `QuantumNas::run` bit for bit, so it repeats
//! the pipeline's seed derivations and estimator wiring exactly; a change
//! to either shows up as a replay mismatch, not as a silent drift.

use crate::host::process_cpu_s;
use crate::json::quote;
use crate::pipeline::{Bench, Expect, Observed, Summary};
use crate::workloads::Inputs;
use qns_runtime::{counters, timers, Metrics};
use quantumnas::{
    eval_task, evolutionary_search_pareto_rt, evolutionary_search_seeded_rt, iterative_prune_rt,
    train_supercircuit_rt, train_task, Estimator, QuantumNasConfig, RuntimeOptions, SearchResult,
    SearchRuntime, Split, SuperCircuit, Task,
};
use std::fmt::Write as _;
use std::time::Instant;

/// In-memory spans and counter records, written as JSONL at exit.
pub struct Tracer {
    epoch: Instant,
    lines: Vec<String>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            lines: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u128 {
        t.duration_since(self.epoch).as_nanos()
    }

    /// Records one span of trace `trace`.
    pub fn span(
        &mut self,
        trace: &str,
        span: &str,
        parent: Option<&str>,
        start: Instant,
        end: Instant,
    ) {
        let parent = parent.map_or("null".to_string(), quote);
        self.lines.push(format!(
            "{{\"trace\": {}, \"span\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
            quote(trace),
            quote(span),
            self.ns(start),
            self.ns(end)
        ));
    }

    /// Records the counters of one run.
    pub fn counters(&mut self, trace: &str, values: &[(&str, f64)]) {
        let mut body = String::new();
        for (i, (name, value)) in values.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(body, "{sep}{}: {value}", quote(name));
        }
        self.lines.push(format!(
            "{{\"trace\": {}, \"counters\": {{{body}}}}}",
            quote(trace)
        ));
    }

    /// Writes every record, one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = self.lines.join("\n");
        text.push('\n');
        std::fs::write(path, text)
    }
}

/// The stages of one run, in pipeline order, as span names. Every stage
/// span's parent is [`ROOT`].
pub const STAGES: [&str; 6] = [
    "train.super",
    "search",
    "train.scratch",
    "deploy.pre_prune",
    "prune",
    "deploy",
];

/// The root span of one replayed run.
pub const ROOT: &str = "run";

/// What one replayed run measured, layer by layer.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Wall time of the whole replay (the root span).
    pub wall_s: f64,
    /// Wall time of each entry of [`STAGES`].
    pub stage_s: [f64; STAGES.len()],
    /// Candidate-batch wall time inside the search stage.
    pub search_batch_s: f64,
    /// Process CPU time spent during the search stage.
    pub search_cpu_s: f64,
    /// The run's registry at the end of the run.
    pub evaluations: f64,
    pub memo_hits: f64,
    pub batch_s: f64,
    pub transpile_hits: f64,
    pub transpile_misses: f64,
    pub transpile_calls: f64,
    pub transpile_busy_s: f64,
    pub simulate_busy_s: f64,
    pub eval_panics: f64,
    pub proxy_evals: f64,
    pub proxy_escalations: f64,
    pub proxy_dedup_hits: f64,
    pub checkpoint_writes: f64,
}

impl Layers {
    /// The wall time of the stage named `name`.
    pub fn stage(&self, name: &str) -> f64 {
        STAGES
            .iter()
            .position(|&s| s == name)
            .map_or(0.0, |i| self.stage_s[i])
    }

    fn read_registry(&mut self, m: &Metrics) {
        let c = |name: &str| m.counter(name) as f64;
        self.evaluations = c(counters::EVALUATIONS);
        self.memo_hits = c(counters::MEMO_HITS);
        self.transpile_hits = c(counters::TRANSPILE_HITS);
        self.transpile_misses = c(counters::TRANSPILE_MISSES);
        self.eval_panics = c(counters::PANICS);
        self.proxy_evals = c(counters::PROXY_EVALS);
        self.proxy_escalations = c(counters::PROXY_ESCALATIONS);
        self.proxy_dedup_hits = c(counters::PROXY_DEDUP_HITS);
        self.checkpoint_writes = c(counters::CHECKPOINT_WRITES);
        self.batch_s = m.histogram(timers::BATCH).total().as_secs_f64();
        let transpile = m.histogram(timers::TRANSPILE);
        self.transpile_calls = transpile.count() as f64;
        self.transpile_busy_s = transpile.total().as_secs_f64();
        self.simulate_busy_s = m.histogram(timers::SIMULATE).total().as_secs_f64();
    }

    /// The counters record written to the trace for this run.
    pub fn counter_record(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("evaluations", self.evaluations),
            ("memo_hits", self.memo_hits),
            ("transpile_hits", self.transpile_hits),
            ("transpile_misses", self.transpile_misses),
            ("transpile_busy_s", self.transpile_busy_s),
            ("simulate_busy_s", self.simulate_busy_s),
            ("batch_s", self.batch_s),
            ("eval_panics", self.eval_panics),
            ("proxy_evals", self.proxy_evals),
            ("proxy_escalations", self.proxy_escalations),
            ("proxy_dedup_hits", self.proxy_dedup_hits),
            ("checkpoint_writes", self.checkpoint_writes),
        ]
    }
}

/// One replayed run: its checked summary, its layer measurements, and the
/// trained SuperCircuit parameters (which the probes reuse).
pub struct Replayed {
    pub outcome: Result<Summary, String>,
    pub layers: Layers,
    pub shared: Vec<f64>,
}

/// The stage-2 estimator exactly as `QuantumNas::run` builds it.
fn search_estimator(inputs: &Inputs, config: &QuantumNasConfig, rt: &SearchRuntime) -> Estimator {
    rt.instrument_estimator(
        &Estimator::new(inputs.device.clone(), config.estimator, config.opt_level)
            .with_backend(config.backend)
            .with_valid_cap(12),
    )
}

/// Stage 2 exactly as `QuantumNas::run` calls it, on `rt`.
fn search(
    inputs: &Inputs,
    config: &QuantumNasConfig,
    shared: &[f64],
    seed: u64,
    estimator: &Estimator,
    rt: &SearchRuntime,
) -> (SearchResult, usize) {
    let mut evo = config.evo.clone();
    evo.seed = seed ^ 0x5EA7C;
    evo.runtime = rt.options().clone();
    let sc = &inputs.supercircuit;
    match &config.objectives {
        Some(objectives) => {
            let pareto = evolutionary_search_pareto_rt(
                sc,
                shared,
                &inputs.task,
                estimator,
                &evo,
                objectives,
                &[],
                rt,
            );
            let front = pareto.front.len();
            (pareto.into_search_result(), front)
        }
        None => (
            evolutionary_search_seeded_rt(sc, shared, &inputs.task, estimator, &evo, &[], rt),
            0,
        ),
    }
}

/// Wall seconds of the search stage alone, on a fresh runtime with
/// `workers` workers and no snapshots: the scaling row.
pub fn search_wall(
    inputs: &Inputs,
    config: &QuantumNasConfig,
    shared: &[f64],
    seed: u64,
    workers: usize,
) -> f64 {
    let rt = SearchRuntime::new(RuntimeOptions {
        workers,
        checkpoint: None,
        ..config.runtime.clone()
    });
    qns_sim::set_parallelism(workers);
    let estimator = search_estimator(inputs, config, &rt);
    let start = Instant::now();
    std::hint::black_box(search(inputs, config, shared, seed, &estimator, &rt));
    start.elapsed().as_secs_f64()
}

fn circuit_for(sc: &SuperCircuit, task: &Task, gene: &quantumnas::Gene) -> qns_circuit::Circuit {
    match task {
        Task::Qml { encoder, .. } => sc.build(&gene.config, Some(encoder)),
        Task::Vqe { .. } => sc.build(&gene.config, None),
    }
}

/// Replays one run of `bench`'s workload stage by stage.
pub fn replay(
    bench: &Bench,
    inputs: &Inputs,
    config: &QuantumNasConfig,
    seed: u64,
    tracer: &mut Tracer,
) -> Replayed {
    let trace = format!("{}/{seed}", bench.workload.name());
    let checks = Expect::new(inputs, config);
    let sc = &inputs.supercircuit;
    let task = &inputs.task;
    let mut layers = Layers::default();
    let mut stage = 0usize;
    // Times one stage call as a child span of the run.
    let mut timed = |tracer: &mut Tracer, layers: &mut Layers, f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        let end = Instant::now();
        layers.stage_s[stage] = end.duration_since(start).as_secs_f64();
        tracer.span(&trace, STAGES[stage], Some(ROOT), start, end);
        stage += 1;
    };

    bench.pin_workers();
    let run_start = Instant::now();
    let rt = SearchRuntime::new(config.runtime.clone());
    qns_sim::reset_mps_stats();

    let mut super_cfg = config.super_train;
    super_cfg.seed = seed;
    let mut shared = Vec::new();
    timed(tracer, &mut layers, &mut || {
        shared = train_supercircuit_rt(sc, task, &super_cfg, &rt).0;
    });

    let estimator = search_estimator(inputs, config, &rt);
    let batch_before = rt.metrics().histogram(timers::BATCH).total();
    let cpu_before = process_cpu_s();
    let mut searched = None;
    timed(tracer, &mut layers, &mut || {
        searched = Some(search(inputs, config, &shared, seed, &estimator, &rt));
    });
    layers.search_cpu_s = process_cpu_s() - cpu_before;
    layers.search_batch_s =
        (rt.metrics().histogram(timers::BATCH).total() - batch_before).as_secs_f64();
    let (searched, front_len) = searched.expect("search stage ran");

    let circuit = circuit_for(sc, task, &searched.best);
    let mut train_cfg = config.train;
    train_cfg.seed = seed ^ 0x7A11;
    let mut params = Vec::new();
    timed(tracer, &mut layers, &mut || {
        params = train_task(&circuit, task, &train_cfg, None).0;
        std::hint::black_box(eval_task(&circuit, &params, task, Split::Valid));
    });
    let n_params = circuit.referenced_train_indices().len();

    let layout = searched.best.layout();
    let mut accuracy_before_prune = f64::NAN;
    timed(tracer, &mut layers, &mut || {
        if task.is_qml() {
            accuracy_before_prune = estimator.test_accuracy(
                &circuit,
                &params,
                task,
                &layout,
                config.n_test,
                config.measure,
            );
        }
    });

    let mut deployed = None;
    timed(tracer, &mut layers, &mut || {
        deployed = Some(match &config.prune {
            Some(prune_cfg) => {
                let mut cfg = *prune_cfg;
                cfg.seed = seed ^ 0x9121;
                let result = iterative_prune_rt(&circuit, &params, task, &cfg, &rt);
                (result.circuit, result.params)
            }
            None => (circuit.clone(), params.clone()),
        });
    });
    let (final_circuit, final_params) = deployed.expect("prune stage ran");

    let (mut final_accuracy, mut final_energy) = (f64::NAN, f64::NAN);
    timed(tracer, &mut layers, &mut || match task {
        Task::Qml { .. } => {
            final_accuracy = estimator.test_accuracy(
                &final_circuit,
                &final_params,
                task,
                &layout,
                config.n_test,
                config.measure,
            );
        }
        Task::Vqe { hamiltonian, .. } => {
            final_energy = estimator.vqe_energy_measured(
                &final_circuit,
                &final_params,
                hamiltonian,
                &layout,
                config.measure,
            );
        }
    });
    let run_end = Instant::now();
    layers.wall_s = run_end.duration_since(run_start).as_secs_f64();
    tracer.span(&trace, ROOT, None, run_start, run_end);
    layers.read_registry(rt.metrics());
    tracer.counters(&trace, &layers.counter_record());

    let observed = Observed {
        gene: searched.best.clone(),
        search_score: searched.best_score,
        accuracy_before_prune,
        final_accuracy,
        final_energy,
        n_params,
        search_evaluations: searched.evaluations,
        search_memo_hits: searched.memo_hits,
        search_proxy_escalations: searched.proxy_escalations,
        front_len,
    };
    Replayed {
        outcome: bench.checked(&checks, &observed),
        layers,
        shared,
    }
}
