//! The two measuring loops. Untraced: closed-loop `QuantumNas::run` for
//! the end-to-end metrics. Traced: each seed run untraced and then
//! replayed stage by stage, for the per-layer metrics.

use crate::host::{calibrate_ms, peak_rss_mb, reference_scale};
use crate::pipeline::{panic_message, Bench, Run};
use crate::probes::{checkpoint_latencies, layer_latencies, Latencies};
use crate::replay::{replay, search_wall, Layers, Tracer};
use crate::stats::{median, quantile};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The end-to-end metrics, as `(name, unit)`, in BENCHMARK.json order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("pipeline_p50_s", "s"),
    ("pipeline_p75_s", "s"),
    ("search_objective_p50", "objective"),
    ("deployed_error_p50", "error"),
    ("peak_rss_mb", "MiB"),
];

/// End-to-end metrics that measure result quality, not cost: for the
/// same seeds and code they repeat exactly.
pub const QUALITY: [&str; 2] = ["search_objective_p50", "deployed_error_p50"];

/// The per-layer metrics of a traced run, as `(name, unit)`, in
/// BENCHMARK.json order.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("train.super_s", "s"),
    ("train.scratch_s", "s"),
    ("search.stage_s", "s"),
    ("search.select_s", "s"),
    ("search.evaluations", "count"),
    ("search.memo_hit_ratio", "ratio"),
    ("search.cpu_per_wall", "ratio"),
    ("search.speedup_2w", "ratio"),
    ("runtime.batch_s", "s"),
    ("runtime.transpile_hit_ratio", "ratio"),
    ("runtime.eval_panics", "count"),
    ("estimator.simulate_busy_s", "s"),
    ("estimator.score_us_p50", "us"),
    ("estimator.score_us_p90", "us"),
    ("transpile.busy_s", "s"),
    ("transpile.calls", "count"),
    ("transpile.call_us_p50", "us"),
    ("transpile.call_us_p90", "us"),
    ("sim.forward_us_p50", "us"),
    ("noise.trajectory_us_p50", "us"),
    ("noise.trajectory_us_p90", "us"),
    ("proxy.evals", "count"),
    ("proxy.escalation_ratio", "ratio"),
    ("proxy.dedup_hits", "count"),
    ("proxy.features_us_p50", "us"),
    ("checkpoint.writes", "count"),
    ("checkpoint.save_us_p50", "us"),
    ("checkpoint.load_us_p50", "us"),
    ("checkpoint.snapshot_bytes", "bytes"),
    ("prune.stage_s", "s"),
    ("deploy.stage_s", "s"),
    ("trace.unattributed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("host_calib_ms", "ms"),
];

/// How much work one invocation does beyond its time budget.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    /// Untraced runs made even when the time budget is spent first; the
    /// quality metrics cover exactly these, so they repeat for a seed.
    pub min_runs: usize,
    /// Seeds replayed even when the time budget is spent first.
    pub min_replays: usize,
    /// One untimed run first, so lazy pool spawn and page faults settle.
    pub warmup: bool,
    /// Candidates each per-call probe times.
    pub probe_candidates: usize,
    /// Seeds whose search stage is repeated at 1 and 2 workers.
    pub scaling_seeds: usize,
    /// Saves and loads the snapshot probe times.
    pub checkpoint_reps: usize,
}

impl Settings {
    /// What the benchmark command runs.
    pub const FULL: Settings = Settings {
        min_runs: 32,
        min_replays: 3,
        warmup: true,
        probe_candidates: 128,
        scaling_seeds: 10,
        checkpoint_reps: 32,
    };
}

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
}

/// The outcome of one invocation.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    /// Why runs failed, in order.
    pub errors: Vec<String>,
    /// Median calibration-kernel time, reported in both modes.
    pub host_calib_ms: f64,
    /// Median pipeline wall time before scaling to the reference host.
    pub unscaled_p50_s: f64,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            host_calib_ms: f64::NAN,
            unscaled_p50_s: f64::NAN,
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.errors.push(what);
    }

    fn push(&mut self, name: &'static str, value: f64, n: usize) {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(m, _)| *m == name)
            .map(|&(_, unit)| unit)
            .expect("every emitted metric is declared");
        self.metrics.push(Metric {
            name,
            unit,
            value,
            n,
        });
    }

    /// Counts a run and records its failure, if any.
    fn tally(&mut self, run: &Run) {
        self.attempted += 1;
        if let Err(e) = &run.outcome {
            self.fail(format!("seed {}: {e}", run.seed));
        }
    }
}

/// Runs seeds `seed, seed + 1, ...` through `each` until `seconds` have
/// passed and at least `min_runs` have run.
fn closed_loop(seed: u64, seconds: f64, min_runs: usize, mut each: impl FnMut(u64, usize)) {
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let start = Instant::now();
    let mut k = 0usize;
    while k < min_runs || start.elapsed() < budget {
        each(seed.wrapping_add(k as u64), k);
        k += 1;
    }
}

/// The untraced measurement: every end-to-end metric.
pub fn untraced(bench: &mut Bench, seed: u64, seconds: f64, settings: Settings) -> Outcome {
    let mut out = Outcome::new();
    if settings.warmup {
        let warm = bench.run(seed);
        out.tally(&warm);
    }
    let mut runs: Vec<Run> = Vec::new();
    let mut calib = Vec::new();
    closed_loop(seed, seconds, settings.min_runs.max(1), |s, _| {
        let run = bench.run(s);
        out.tally(&run);
        runs.push(run);
        calib.push(calibrate_ms(bench.workload.workers()));
    });

    // Times scaled to the reference host by the kernel timing taken right
    // after each run.
    let scales: Vec<f64> = calib.iter().map(|&c| reference_scale(c)).collect();
    let setup: Vec<f64> = runs
        .iter()
        .zip(&scales)
        .map(|(r, k)| r.setup_s * k)
        .collect();
    let walls: Vec<f64> = runs
        .iter()
        .zip(&scales)
        .filter(|(r, _)| r.outcome.is_ok())
        .map(|(r, k)| r.wall_s * k)
        .collect();
    let quality: Vec<_> = runs
        .iter()
        .take(settings.min_runs.max(1))
        .filter_map(|r| r.outcome.as_ref().ok())
        .collect();
    let objective: Vec<f64> = quality.iter().map(|s| s.search_objective).collect();
    let error: Vec<f64> = quality.iter().map(|s| s.deployed_error).collect();
    out.push("setup_s", median(&setup), setup.len());
    out.push("pipeline_p50_s", median(&walls), walls.len());
    out.push("pipeline_p75_s", quantile(&walls, 0.75), walls.len());
    out.push("search_objective_p50", median(&objective), objective.len());
    out.push("deployed_error_p50", median(&error), error.len());
    out.push("peak_rss_mb", peak_rss_mb(), 1);
    out.host_calib_ms = median(&calib);
    let unscaled: Vec<f64> = runs
        .iter()
        .filter(|r| r.outcome.is_ok())
        .map(|r| r.wall_s)
        .collect();
    out.unscaled_p50_s = median(&unscaled);
    out
}

/// Per-call probe results, gathered once per traced invocation.
#[derive(Default)]
struct Probes {
    latencies: Latencies,
    checkpoint: Option<(Vec<f64>, Vec<f64>, usize)>,
}

/// The traced measurement: every per-layer metric. Each seed runs through
/// `QuantumNas::run` and then through the stage-by-stage replay, which
/// must reproduce it bit for bit.
pub fn traced(
    bench: &mut Bench,
    seed: u64,
    seconds: f64,
    settings: Settings,
    tracer: &mut Tracer,
) -> Outcome {
    let mut out = Outcome::new();
    if settings.warmup {
        let warm = bench.run(seed);
        out.tally(&warm);
    }
    let mut overheads = Vec::new();
    let mut layers: Vec<Layers> = Vec::new();
    let mut speedups = Vec::new();
    let mut escalation_ratios = Vec::new();
    let mut calib = Vec::new();
    let mut probes = None;
    closed_loop(seed, seconds, settings.min_replays.max(1), |s, k| {
        let run = bench.run(s);
        out.tally(&run);

        let (inputs, _) = bench.setup(s);
        let config = bench.config();
        out.attempted += 1;
        let replayed = match catch_unwind(AssertUnwindSafe(|| {
            replay(bench, &inputs, &config, s, tracer)
        })) {
            Ok(replayed) => replayed,
            Err(panic) => {
                out.fail(format!(
                    "seed {s}: replay panicked: {}",
                    panic_message(&panic)
                ));
                return;
            }
        };
        match (&run.outcome, &replayed.outcome) {
            (Ok(a), Ok(b)) if a.bitwise_eq(b) => {}
            (Ok(a), Ok(b)) => out.fail(format!(
                "seed {s}: replay differs from QuantumNas::run \
                 (score {} vs {}, final {} vs {})",
                a.search_score, b.search_score, a.final_metric, b.final_metric
            )),
            (_, Err(e)) => out.fail(format!("seed {s}: replay: {e}")),
            (Err(_), Ok(_)) => {}
        }
        overheads.push(replayed.layers.wall_s / run.wall_s - 1.0);
        let budget = (config.evo.iterations * config.evo.population) as f64;
        escalation_ratios.push(replayed.layers.proxy_escalations / budget);
        layers.push(replayed.layers);

        if k < settings.scaling_seeds {
            let one = search_wall(&inputs, &config, &replayed.shared, s, 1);
            let two = search_wall(&inputs, &config, &replayed.shared, s, 2);
            speedups.push(one / two);
        }
        if probes.is_none() {
            let probed = catch_unwind(AssertUnwindSafe(|| {
                bench.pin_workers();
                let latencies = layer_latencies(
                    &inputs,
                    &config,
                    &replayed.shared,
                    seed,
                    settings.probe_candidates,
                );
                let checkpoint = config.runtime.checkpoint.as_ref().and_then(|ck| {
                    let probe_dir = bench.scratch.fresh_dir();
                    checkpoint_latencies(&ck.dir, &probe_dir, settings.checkpoint_reps)
                });
                Probes {
                    latencies,
                    checkpoint,
                }
            }));
            out.attempted += 1;
            probes = Some(probed.unwrap_or_else(|panic| {
                out.fail(format!("probes panicked: {}", panic_message(&panic)));
                Probes::default()
            }));
        }
        calib.push(calibrate_ms(bench.workload.workers()));
    });

    let n = layers.len();
    let med = |f: &dyn Fn(&Layers) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    out.push("train.super_s", med(&|l| l.stage("train.super")), n);
    out.push("train.scratch_s", med(&|l| l.stage("train.scratch")), n);
    out.push("search.stage_s", med(&|l| l.stage("search")), n);
    out.push(
        "search.select_s",
        med(&|l| l.stage("search") - l.search_batch_s),
        n,
    );
    out.push("search.evaluations", med(&|l| l.evaluations), n);
    out.push(
        "search.memo_hit_ratio",
        med(&|l| ratio(l.memo_hits, l.evaluations + l.memo_hits)),
        n,
    );
    out.push(
        "search.cpu_per_wall",
        med(&|l| ratio(l.search_cpu_s, l.stage("search"))),
        n,
    );
    out.push("search.speedup_2w", median(&speedups), speedups.len());
    out.push("runtime.batch_s", med(&|l| l.batch_s), n);
    out.push(
        "runtime.transpile_hit_ratio",
        med(&|l| ratio(l.transpile_hits, l.transpile_hits + l.transpile_misses)),
        n,
    );
    out.push(
        "runtime.eval_panics",
        layers.iter().map(|l| l.eval_panics).sum(),
        n,
    );
    out.push("estimator.simulate_busy_s", med(&|l| l.simulate_busy_s), n);
    let probes = probes.unwrap_or_default();
    let lat = &probes.latencies;
    let p = lat.score_us.len();
    out.push("estimator.score_us_p50", median(&lat.score_us), p);
    out.push("estimator.score_us_p90", quantile(&lat.score_us, 0.9), p);
    out.push("transpile.busy_s", med(&|l| l.transpile_busy_s), n);
    out.push("transpile.calls", med(&|l| l.transpile_calls), n);
    out.push("transpile.call_us_p50", median(&lat.transpile_us), p);
    out.push("transpile.call_us_p90", quantile(&lat.transpile_us, 0.9), p);
    out.push("sim.forward_us_p50", median(&lat.forward_us), p);
    out.push("noise.trajectory_us_p50", median(&lat.trajectory_us), p);
    out.push(
        "noise.trajectory_us_p90",
        quantile(&lat.trajectory_us, 0.9),
        p,
    );
    out.push("proxy.evals", med(&|l| l.proxy_evals), n);
    out.push("proxy.escalation_ratio", median(&escalation_ratios), n);
    out.push("proxy.dedup_hits", med(&|l| l.proxy_dedup_hits), n);
    out.push("proxy.features_us_p50", median(&lat.features_us), p);
    out.push("checkpoint.writes", med(&|l| l.checkpoint_writes), n);
    let (save, load, bytes) = probes.checkpoint.unwrap_or_default();
    out.push("checkpoint.save_us_p50", or_zero(median(&save)), save.len());
    out.push("checkpoint.load_us_p50", or_zero(median(&load)), load.len());
    out.push("checkpoint.snapshot_bytes", bytes as f64, 1);
    out.push("prune.stage_s", med(&|l| l.stage("prune")), n);
    out.push(
        "deploy.stage_s",
        med(&|l| l.stage("deploy.pre_prune") + l.stage("deploy")),
        n,
    );
    out.push(
        "trace.unattributed_ratio",
        med(&|l| 1.0 - l.stage_s.iter().sum::<f64>() / l.wall_s),
        n,
    );
    out.push("trace.overhead_ratio", median(&overheads), n);
    out.host_calib_ms = median(&calib);
    out.push("host_calib_ms", out.host_calib_ms, calib.len());
    out
}

/// Zero for a layer the workload does not exercise (an empty sample).
fn or_zero(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v
    }
}
