//! Search telemetry: a lightweight metrics registry (counters, duration
//! histograms) plus a structured per-generation event log and a text
//! summary report.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Well-known counter names used across the runtime. Free-form names are
/// also accepted; these constants keep the hot paths typo-proof.
pub mod counters {
    /// Real (non-memoized) candidate evaluations.
    pub const EVALUATIONS: &str = "evaluations";
    /// Gene-score memo hits (candidate skipped entirely).
    pub const MEMO_HITS: &str = "memo_hits";
    /// Transpile-cache hits.
    pub const TRANSPILE_HITS: &str = "transpile_hits";
    /// Transpile-cache misses (fresh compilations).
    pub const TRANSPILE_MISSES: &str = "transpile_misses";
    /// Isolated candidate evaluations (score, proxy features or compiled
    /// shape) that panicked with neither a verifier nor a fault-plan
    /// marker; each poisons its candidate.
    pub const PANICS: &str = "eval_panics";
    /// Verified transpiles: pipelines run with contract checking enabled.
    pub const VERIFY_CHECKS: &str = "verify_checks";
    /// Verification contract violations (each one is a real compiler bug or
    /// an illegal candidate, surfaced instead of silently mis-scored).
    pub const VERIFY_VIOLATIONS: &str = "verify_violations";
    /// Snapshots written to the checkpoint directory.
    pub const CHECKPOINT_WRITES: &str = "checkpoint_writes";
    /// Runs that restored state from a snapshot via `--resume`.
    pub const CHECKPOINT_RESUMES: &str = "checkpoint_resumes";
    /// Snapshots found but rejected at resume (stale configuration: the
    /// run's context digest no longer matches the snapshot's).
    pub const CHECKPOINT_REJECTED: &str = "checkpoint_rejected";
    /// Snapshots skipped as corrupt (torn write, bit rot) during load.
    pub const CHECKPOINT_CORRUPT: &str = "checkpoint_corrupt";
    /// Snapshot saves that failed with an I/O error (run continues).
    pub const CHECKPOINT_IO_ERRORS: &str = "checkpoint_io_errors";
    /// Evaluations failed on purpose by an active `FaultPlan`.
    pub const INJECTED_FAULTS: &str = "injected_faults";
    /// Candidates whose training-free proxy features were computed.
    pub const PROXY_EVALS: &str = "proxy_evals";
    /// Candidates the prescreener escalated to full estimator scoring.
    pub const PROXY_ESCALATIONS: &str = "proxy_escalations";
    /// Structurally-duplicate offspring skipped before any scoring.
    pub const PROXY_DEDUP_HITS: &str = "proxy_dedup_hits";
    /// Generations contributing a proxy-vs-full Spearman observation.
    pub const PROXY_RANK_OBS: &str = "proxy_rank_obs";
    /// Running sum of per-generation `(rho + 1) * 1000`; together with
    /// `PROXY_RANK_OBS` this yields the mean rank correlation without
    /// needing float counters.
    pub const PROXY_RANK_SUM_MILLI: &str = "proxy_rank_sum_milli";
    /// Generations completed by the multi-objective Pareto search.
    pub const PARETO_GENERATIONS: &str = "pareto_generations";
    /// Running sum of per-generation archive (front) sizes; together with
    /// `PARETO_GENERATIONS` this yields the mean front size.
    pub const PARETO_FRONT_SUM: &str = "pareto_front_sum";
    /// Running sum of per-generation archive hypervolume in milli-units
    /// (`round(hv * 1000)` over min-max-normalized objectives); together
    /// with `PARETO_GENERATIONS` this yields the mean hypervolume without
    /// needing float counters.
    pub const PARETO_HV_SUM_MILLI: &str = "pareto_hv_sum_milli";
    /// Pareto objective evaluations whose compiled-shape computation
    /// panicked and was poisoned to `+inf` (surfaced instead of silently
    /// dominating nothing).
    pub const PARETO_SHAPE_POISONED: &str = "pareto_shape_poisoned";
    /// MPS bond-truncation events (splits that discarded Schmidt weight).
    pub const MPS_TRUNCATIONS: &str = "mps_truncations";
    /// Total discarded Schmidt weight across truncations, in picounits
    /// (`round(weight * 1e12)`), so fidelity loss stays auditable without
    /// float counters.
    pub const MPS_TRUNC_WEIGHT_PICO: &str = "mps_trunc_weight_pico";
    /// Largest bond dimension any MPS split produced.
    pub const MPS_MAX_BOND: &str = "mps_max_bond";
}

/// The timer names: [`Metrics`] holds exactly these three histograms.
pub mod timers {
    /// Wall time inside the transpiler.
    pub const TRANSPILE: &str = "transpile";
    /// Wall time inside simulation / scoring.
    pub const SIMULATE: &str = "simulate";
    /// Wall time of whole candidate batches.
    pub const BATCH: &str = "batch";
}

/// A log₂-bucketed duration histogram (nanoseconds, 1ns .. ~36s span)
/// with lock-free recording.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

const N_BUCKETS: usize = 36;

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one duration.
    pub fn record(&self, d: Duration) {
        let ns = d.as_nanos().min(u64::MAX as u128) as u64;
        let bucket = (64 - ns.leading_zeros() as usize).min(N_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded durations.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.total_ns.load(Ordering::Relaxed))
    }

    /// Mean recorded duration (zero when empty).
    pub fn mean(&self) -> Duration {
        let total = self.total_ns.load(Ordering::Relaxed);
        total
            .checked_div(self.count())
            .map_or(Duration::ZERO, Duration::from_nanos)
    }

    /// Largest recorded duration.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns.load(Ordering::Relaxed))
    }

    /// Approximate quantile from the log₂ buckets (upper bucket edge).
    pub fn quantile(&self, q: f64) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        let target = (q.clamp(0.0, 1.0) * n as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return Duration::from_nanos(1u64 << i);
            }
        }
        self.max()
    }
}

/// One generation of an evolutionary (or random) search, as recorded by
/// the runtime for the structured event log.
#[derive(Clone, Debug, PartialEq)]
pub struct GenerationEvent {
    /// Generation index (0-based).
    pub generation: usize,
    /// Best score seen so far, after this generation.
    pub best_score: f64,
    /// Mean score of this generation's population (finite entries only).
    pub mean_score: f64,
    /// Real evaluations this generation.
    pub evaluations: usize,
    /// Memoized (skipped) evaluations this generation.
    pub memo_hits: usize,
    /// Wall time of this generation's scoring batch.
    pub elapsed: Duration,
}

/// The search path's one wall clock. What it measures lands in the
/// registry's histograms, generation log and report, never in a score, a
/// digest or a snapshot.
#[expect(
    clippy::disallowed_types,
    reason = "the search path's one sanctioned clock; its readings are telemetry only"
)]
mod clock {
    use std::time::{Duration, Instant};

    /// A wall-clock reading.
    #[derive(Clone, Copy, Debug)]
    pub(super) struct Stamp(Instant);

    impl Stamp {
        pub(super) fn now() -> Self {
            Stamp(Instant::now())
        }

        /// Wall time since this reading.
        pub(super) fn elapsed(self) -> Duration {
            self.0.elapsed()
        }
    }
}

/// The runtime's metrics registry: named counters, the three [`timers`]
/// histograms, and the per-generation event log.
///
/// All recording paths are `&self` and thread-safe, so one registry can be
/// shared by every worker via `Arc`.
///
/// # Examples
///
/// ```
/// use qns_runtime::Metrics;
/// use std::time::Duration;
///
/// let m = Metrics::new();
/// m.incr("evaluations", 3);
/// m.record("simulate", Duration::from_millis(2));
/// assert_eq!(m.counter("evaluations"), 3);
/// assert!(m.summary().contains("evaluations"));
/// ```
#[derive(Debug, Default)]
pub struct Metrics {
    counters: Mutex<Vec<(String, AtomicU64)>>,
    transpile: Histogram,
    simulate: Histogram,
    batch: Histogram,
    events: Mutex<Vec<GenerationEvent>>,
    started: Mutex<Option<clock::Stamp>>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics {
            started: Mutex::new(Some(clock::Stamp::now())),
            ..Default::default()
        }
    }

    /// Adds `by` to the named counter, creating it at zero on first use.
    pub fn incr(&self, name: &str, by: u64) {
        let mut counters = self.counters.lock().expect("metrics lock");
        match counters.iter().find(|(n, _)| n == name) {
            Some((_, c)) => {
                c.fetch_add(by, Ordering::Relaxed);
            }
            None => counters.push((name.to_string(), AtomicU64::new(by))),
        }
    }

    /// The named counter's current value (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .expect("metrics lock")
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Records a duration into the named [`timers`] histogram; panics on
    /// any other name.
    pub fn record(&self, name: &str, d: Duration) {
        self.histogram(name).record(d);
    }

    /// The histogram behind a [`timers`] name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of the [`timers`] names.
    pub fn histogram(&self, name: &str) -> &Histogram {
        match name {
            timers::TRANSPILE => &self.transpile,
            timers::SIMULATE => &self.simulate,
            timers::BATCH => &self.batch,
            other => panic!("unknown timer {other:?}"),
        }
    }

    /// Times `f`, recording its wall time into the named [`timers`]
    /// histogram; panics on any other name.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        self.timed(name, f).0
    }

    /// [`Metrics::time`] that also returns the wall time it recorded.
    pub fn timed<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = clock::Stamp::now();
        let out = f();
        let elapsed = start.elapsed();
        self.record(name, elapsed);
        (out, elapsed)
    }

    /// Appends a generation event to the structured log.
    pub fn push_event(&self, event: GenerationEvent) {
        self.events.lock().expect("metrics lock").push(event);
    }

    /// A snapshot of the per-generation event log.
    pub fn events(&self) -> Vec<GenerationEvent> {
        self.events.lock().expect("metrics lock").clone()
    }

    /// Real evaluations per second of wall time since the registry was
    /// created (0 before any evaluation).
    pub fn evals_per_sec(&self) -> f64 {
        let evals = self.counter(counters::EVALUATIONS) as f64;
        let elapsed = self
            .started
            .lock()
            .expect("metrics lock")
            .map(|t| t.elapsed().as_secs_f64())
            .unwrap_or(0.0);
        if elapsed > 0.0 {
            evals / elapsed
        } else {
            0.0
        }
    }

    /// A human-readable text report of every counter, histogram, and the
    /// generation log tail.
    pub fn summary(&self) -> String {
        let mut out = String::from("== runtime telemetry ==\n");
        {
            let counters = self.counters.lock().expect("metrics lock");
            let mut sorted: Vec<(&str, u64)> = counters
                .iter()
                .map(|(n, c)| (n.as_str(), c.load(Ordering::Relaxed)))
                .collect();
            sorted.sort_unstable();
            for (name, value) in sorted {
                out.push_str(&format!("  {name:<22} {value}\n"));
            }
        }
        let evals = self.counter(counters::EVALUATIONS);
        let memo = self.counter(counters::MEMO_HITS);
        if evals + memo > 0 {
            out.push_str(&format!(
                "  {:<22} {:.1}%\n",
                "memo hit rate",
                100.0 * memo as f64 / (evals + memo) as f64
            ));
        }
        let t_hits = self.counter(counters::TRANSPILE_HITS);
        let t_miss = self.counter(counters::TRANSPILE_MISSES);
        if t_hits + t_miss > 0 {
            out.push_str(&format!(
                "  {:<22} {:.1}%\n",
                "transpile hit rate",
                100.0 * t_hits as f64 / (t_hits + t_miss) as f64
            ));
        }
        // When any verified transpiles ran, always show the violation count
        // — a zero here is the line auditors look for.
        if self.counter(counters::VERIFY_CHECKS) > 0 {
            out.push_str(&format!(
                "  {:<22} {}\n",
                "verify violations",
                self.counter(counters::VERIFY_VIOLATIONS)
            ));
        }
        let rank_obs = self.counter(counters::PROXY_RANK_OBS);
        if rank_obs > 0 {
            let mean_rho =
                self.counter(counters::PROXY_RANK_SUM_MILLI) as f64 / rank_obs as f64 / 1000.0
                    - 1.0;
            out.push_str(&format!("  {:<22} {mean_rho:+.3}\n", "proxy rank corr"));
        }
        // Sorted by name, as the report has always listed them.
        for name in [timers::BATCH, timers::SIMULATE, timers::TRANSPILE] {
            let h = self.histogram(name);
            if h.count() > 0 {
                out.push_str(&format!(
                    "  {name:<22} n={} total={:?} mean={:?} p90~{:?} max={:?}\n",
                    h.count(),
                    h.total(),
                    h.mean(),
                    h.quantile(0.9),
                    h.max()
                ));
            }
        }
        let rate = self.evals_per_sec();
        if rate > 0.0 {
            out.push_str(&format!("  {:<22} {rate:.1}\n", "evals/sec"));
        }
        let events = self.events.lock().expect("metrics lock");
        if !events.is_empty() {
            out.push_str(&format!("  generations            {}\n", events.len()));
            for e in events.iter().rev().take(3).rev() {
                out.push_str(&format!(
                    "    gen {:>3}: best {:.4}  mean {:.4}  evals {}  memo {}  in {:?}\n",
                    e.generation, e.best_score, e.mean_score, e.evaluations, e.memo_hits, e.elapsed
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_threads() {
        let m = std::sync::Arc::new(Metrics::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = m.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        m.incr(counters::EVALUATIONS, 1);
                    }
                });
            }
        });
        assert_eq!(m.counter(counters::EVALUATIONS), 400);
        assert_eq!(m.counter("never-touched"), 0);
    }

    #[test]
    fn histograms_track_totals_and_quantiles() {
        let h = Histogram::default();
        for ms in [1u64, 2, 4, 8, 100] {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.total(), Duration::from_millis(115));
        assert_eq!(h.mean(), Duration::from_millis(23));
        assert!(h.max() >= Duration::from_millis(100));
        assert!(h.quantile(0.5) >= Duration::from_millis(2));
        assert!(h.quantile(1.0) >= Duration::from_millis(64));
    }

    #[test]
    fn summary_reports_counters_rates_and_events() {
        let m = Metrics::new();
        m.incr(counters::EVALUATIONS, 6);
        m.incr(counters::MEMO_HITS, 2);
        m.incr(counters::TRANSPILE_HITS, 3);
        m.incr(counters::TRANSPILE_MISSES, 1);
        m.record(timers::TRANSPILE, Duration::from_micros(300));
        m.push_event(GenerationEvent {
            generation: 0,
            best_score: 0.5,
            mean_score: 0.8,
            evaluations: 6,
            memo_hits: 2,
            elapsed: Duration::from_millis(10),
        });
        let s = m.summary();
        assert!(s.contains("evaluations"), "{s}");
        assert!(s.contains("memo hit rate"), "{s}");
        assert!(s.contains("25.0%"), "{s}");
        assert!(s.contains("transpile hit rate"), "{s}");
        assert!(s.contains("75.0%"), "{s}");
        assert!(s.contains("gen   0"), "{s}");
    }

    #[test]
    fn time_records_and_passes_through() {
        let m = Metrics::new();
        let v = m.time(timers::SIMULATE, || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(m.histogram(timers::SIMULATE).count(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown timer")]
    fn only_the_three_timers_exist() {
        Metrics::new().record("compile", Duration::from_micros(1));
    }
}
