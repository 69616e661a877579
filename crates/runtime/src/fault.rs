//! Deterministic fault injection for robustness testing.
//!
//! A [`FaultPlan`] schedules failures at exact points in a run — the Nth
//! candidate evaluation, the Kth loop boundary, the Nth snapshot write —
//! so crash-recovery behaviour can be asserted in tests instead of
//! claimed. Counters are atomic: the plan is shared across evaluation
//! workers and fires exactly once per scheduled site regardless of thread
//! interleaving.

use std::sync::atomic::{AtomicU64, Ordering};

/// Panic-message prefix for injected evaluation faults. The scoring layer
/// uses it to classify an injected failure separately from organic panics
/// and verifier violations in telemetry.
pub const FAULT_MARKER: &str = "qns-fault:";

/// A schedule of deterministic failures. All sites are 1-based: `n = 1`
/// fires on the first event of that kind; `None` (the default) never
/// fires. Each site fires at most once.
///
/// # Examples
///
/// ```
/// use qns_runtime::FaultPlan;
///
/// let plan = FaultPlan::new().fail_eval(2);
/// plan.before_eval(); // first eval passes
/// assert!(std::panic::catch_unwind(|| plan.before_eval()).is_err());
/// plan.before_eval(); // third eval passes again
/// assert_eq!(plan.evals_seen(), 3);
/// ```
#[derive(Debug, Default)]
pub struct FaultPlan {
    fail_eval_at: Option<u64>,
    crash_at_boundary: Option<u64>,
    torn_write_at: Option<u64>,
    evals: AtomicU64,
    boundaries: AtomicU64,
    writes: AtomicU64,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Panics (with [`FAULT_MARKER`]) inside the `n`th candidate
    /// evaluation, exercising the per-candidate panic-isolation path.
    pub fn fail_eval(mut self, n: u64) -> Self {
        self.fail_eval_at = Some(n);
        self
    }

    /// Panics at the `k`th loop boundary (training step, search
    /// generation, or pruning round — whichever loops consult the plan),
    /// simulating a process kill between checkpoints.
    pub fn crash_at_boundary(mut self, k: u64) -> Self {
        self.crash_at_boundary = Some(k);
        self
    }

    /// Publishes the `n`th snapshot save half-written, simulating a torn
    /// write that the loader must detect and skip.
    pub fn torn_write(mut self, n: u64) -> Self {
        self.torn_write_at = Some(n);
        self
    }

    /// Evaluation hook; the search runtime calls it first inside each
    /// candidate evaluation's panic-isolation scope.
    ///
    /// # Panics
    ///
    /// Panics with a [`FAULT_MARKER`]-prefixed message on the scheduled
    /// evaluation.
    pub fn before_eval(&self) {
        let seen = self.evals.fetch_add(1, Ordering::Relaxed) + 1;
        if self.fail_eval_at == Some(seen) {
            panic!("{FAULT_MARKER} injected failure in evaluation {seen}");
        }
    }

    /// Boundary hook; called once at the end of each loop unit, after
    /// that unit's snapshot (if one is due) is written.
    ///
    /// # Panics
    ///
    /// Panics with a [`FAULT_MARKER`]-prefixed message at the scheduled
    /// boundary — deliberately outside any panic-isolation scope, so it
    /// takes the whole run down like a real kill.
    pub fn at_boundary(&self) {
        let seen = self.boundaries.fetch_add(1, Ordering::Relaxed) + 1;
        if self.crash_at_boundary == Some(seen) {
            panic!("{FAULT_MARKER} simulated crash at boundary {seen}");
        }
    }

    /// Snapshot-write hook; returns `true` when this save should be torn.
    pub fn take_torn_write(&self) -> bool {
        let seen = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
        self.torn_write_at == Some(seen)
    }

    /// Evaluations observed so far.
    pub fn evals_seen(&self) -> u64 {
        self.evals.load(Ordering::Relaxed)
    }

    /// Boundaries observed so far.
    pub fn boundaries_seen(&self) -> u64 {
        self.boundaries.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn panic_text(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("should panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn fires_exactly_once_at_the_scheduled_eval() {
        let plan = FaultPlan::new().fail_eval(3);
        plan.before_eval();
        plan.before_eval();
        let msg = panic_text(|| plan.before_eval());
        assert!(msg.starts_with(FAULT_MARKER), "message was {msg:?}");
        plan.before_eval();
        assert_eq!(plan.evals_seen(), 4);
    }

    #[test]
    fn boundary_crash_is_marked_and_counted() {
        let plan = FaultPlan::new().crash_at_boundary(1);
        let msg = panic_text(|| plan.at_boundary());
        assert!(msg.starts_with(FAULT_MARKER));
        plan.at_boundary();
        assert_eq!(plan.boundaries_seen(), 2);
    }

    #[test]
    fn torn_write_fires_on_the_scheduled_save_only() {
        let plan = FaultPlan::new().torn_write(2);
        assert!(!plan.take_torn_write());
        assert!(plan.take_torn_write());
        assert!(!plan.take_torn_write());
    }

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::new();
        for _ in 0..8 {
            plan.before_eval();
            plan.at_boundary();
            assert!(!plan.take_torn_write());
        }
    }

    #[test]
    fn is_shareable_across_threads() {
        let plan = std::sync::Arc::new(FaultPlan::new().fail_eval(64));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let plan = plan.clone();
                scope.spawn(move || {
                    for _ in 0..8 {
                        let _ = catch_unwind(AssertUnwindSafe(|| plan.before_eval()));
                    }
                });
            }
        });
        assert_eq!(plan.evals_seen(), 32);
    }
}
