//! The process-wide persistent worker pool and the one fan-out loop every
//! parallel map in the workspace runs on.
//!
//! A fan-out cuts its items into chunks. Threads claim the next chunk from
//! a shared atomic counter and run each chunk under one `catch_unwind`,
//! storing its outcome in the chunk's slot; the caller returns the
//! outcomes in input order. Two entry points share the loop:
//!
//! - [`parallel_map`] / [`parallel_map_with`] — per-sample maps
//!   (minibatches, validation sets). One chunk per thread, and the calling
//!   thread claims chunks too. A panic is re-raised on the caller, lowest
//!   chunk first, after every chunk has finished.
//! - [`try_parallel_map`] — candidate batches and trajectory fan-outs. One
//!   item per chunk, so an expensive candidate never stalls the rest behind
//!   a static split, and a panicking item yields its message in its own
//!   slot. The calling thread runs no items.
//!
//! Both placement rules were measured on a 2-vCPU host (DESIGN.md,
//! "Persistent worker pool"): per-sample maps stay cheap only when the
//! caller claims chunks too, and candidates run on the calling thread
//! slowed that thread's later work.
//!
//! **One wait rule.** A fan-out queues one job per pool thread it wants,
//! each tagged with the fan-out, on the one queue parked workers take jobs
//! from. A caller that claims chunks withdraws its jobs no worker has taken
//! once its claim loop finds nothing left, then waits only for the jobs
//! workers took; a caller that claims nothing ([`try_parallel_map`]) waits
//! for all its jobs. So a caller that has claimed every chunk itself never
//! waits for a parked worker to wake.
//!
//! **Nesting.** A thread-local flag is set while a thread runs a claim
//! loop, and any map started there runs inline on that thread: outer
//! parallelism already owns the cores, and a nested fan-out would only
//! oversubscribe them. Because no pool job ever waits on another, nested
//! maps cannot deadlock.
//!
//! **Lifetimes.** Workers are spawned once and never exit; jobs are
//! lifetime-erased closures borrowing the caller's frame. That is sound
//! because the caller does not return before each job it queued is either
//! withdrawn unrun or has counted itself finished, and a counted job
//! touches nothing but the count, which it owns a share of.

use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// A unit of work: one thread's claim loop, lifetime-erased by
/// [`fan_out`] (which outlives it by withdrawing it or waiting for it).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Jobs no worker has taken yet, each tagged with its fan-out's id.
static QUEUE: Mutex<VecDeque<(usize, Job)>> = Mutex::new(VecDeque::new());

/// Wakes one parked worker per fan-out; a worker that takes a job wakes
/// the next while jobs remain. Waking one worker per job from the caller's
/// thread often ran a candidate batch at about one worker's pace on a
/// 2-vCPU host (DESIGN.md, "Persistent worker pool").
static QUEUED: Condvar = Condvar::new();

/// How many workers have been spawned.
static SPAWNED: Mutex<usize> = Mutex::new(0);

thread_local! {
    /// Set while this thread runs a claim loop; maps started here run
    /// inline.
    static IN_CLAIM_LOOP: Cell<bool> = const { Cell::new(false) };
}

/// Process-wide worker-count override for maps called with `workers ==
/// 0`; 0 means "auto" (use the detected core count). An `AtomicUsize`, not
/// a `OnceLock`, so a `--workers` flag can change it at any point in the
/// process.
static PARALLELISM_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Floor below which [`parallel_map`] never consults the pool: maps of
/// 1–3 items run inline on the caller; any larger map may fan out. A warm
/// dispatch waits for no worker to wake (a caller that claims every chunk
/// withdraws the job no worker took): 64 trivial items at 2 workers read
/// 0.85–1.19 µs a call in 30 of 30 full runs on a 2-vCPU host (DESIGN.md,
/// "Persistent worker pool").
const MIN_PARALLEL_ITEMS: usize = 4;

/// Locks `m`. No lock here is held across a job or an item, so a poisoned
/// lock guards whole data and is taken as is.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn worker_loop() {
    loop {
        let (job, more) = {
            let mut queue = QUEUED
                .wait_while(lock(&QUEUE), |queue| queue.is_empty())
                .unwrap_or_else(PoisonError::into_inner);
            (queue.pop_front(), !queue.is_empty())
        };
        if more {
            QUEUED.notify_one();
        }
        if let Some((_, job)) = job {
            job();
        }
    }
}

/// Grows the pool to at least `target` workers. Never shrinks: surplus
/// workers park on [`QUEUED`] and cost one blocked thread each, which is
/// cheaper than re-paying spawn latency when the worker count oscillates
/// (e.g. alternating training and trajectory phases).
#[expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned spawn site: pool workers are process-wide, created once, and owned by this module alone"
)]
fn ensure_workers(target: usize) {
    let mut spawned = lock(&SPAWNED);
    while *spawned < target {
        std::thread::spawn(worker_loop);
        *spawned += 1;
    }
}

/// Sets the process-wide worker count used by maps called with
/// `workers == 0`. `0` restores auto-detection.
pub fn set_parallelism(workers: usize) {
    PARALLELISM_OVERRIDE.store(workers, Ordering::Relaxed);
}

/// Resolves a requested worker count: an explicit count wins, `0` defers
/// to [`set_parallelism`], then to the core count (read once per process).
fn resolve_workers(workers: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    match (workers, PARALLELISM_OVERRIDE.load(Ordering::Relaxed)) {
        (0, 0) => *CORES.get_or_init(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        }),
        (0, n) | (n, _) => n,
    }
}

fn in_claim_loop() -> bool {
    IN_CLAIM_LOOP.with(Cell::get)
}

/// Every chunk's outcome, in chunk order: its results, or the panic
/// payload that ended it. `None` until some thread has run the chunk.
type Slots<U> = Mutex<Vec<Option<std::thread::Result<Vec<U>>>>>;

/// How many of one fan-out's jobs have finished. The caller and each job
/// own it together, so a job can count itself and notify after the caller
/// has already seen the count and returned.
#[derive(Default)]
struct Finished {
    count: Mutex<usize>,
    counted: Condvar,
}

/// Claims `chunk`-item chunks from `next` until none is left, running each
/// under one `catch_unwind` with the nesting flag set, and stores each
/// outcome in its slot. Never unwinds.
fn claim_loop<T, U, F>(items: &[T], chunk: usize, next: &AtomicUsize, slots: &Slots<U>, f: &F)
where
    F: Fn(&T) -> U,
{
    let outer = IN_CLAIM_LOOP.with(|flag| flag.replace(true));
    loop {
        // Relaxed: the counter only hands out indices; the slots' lock and
        // the finished count order the results.
        let c = next.fetch_add(1, Ordering::Relaxed);
        let Some(part) = items.chunks(chunk).nth(c) else {
            break;
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| part.iter().map(f).collect()));
        lock(slots)[c] = Some(outcome);
    }
    IN_CLAIM_LOOP.with(|flag| flag.set(outer));
}

/// Runs `items` as `chunk`-item chunks through `jobs` pool claim loops,
/// plus one on the calling thread when `caller_claims`, and returns every
/// chunk's outcome in chunk order once every loop that ran has finished.
fn fan_out<T, U, F>(
    items: &[T],
    chunk: usize,
    jobs: usize,
    caller_claims: bool,
    f: &F,
) -> Vec<std::thread::Result<Vec<U>>>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    // Spawn first: a failed spawn then panics before any job borrows
    // this frame.
    ensure_workers(jobs);
    let next = AtomicUsize::new(0);
    let slots: Slots<U> = Mutex::new(items.chunks(chunk).map(|_| None).collect());
    let finished = Arc::new(Finished::default());
    // Unique among fan-outs with queued jobs: each keeps `finished` alive.
    let id = Arc::as_ptr(&finished) as usize;
    for _ in 0..jobs {
        let (finished, next, slots) = (Arc::clone(&finished), &next, &slots);
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            claim_loop(items, chunk, next, slots, f);
            *lock(&finished.count) += 1;
            finished.counted.notify_one();
        });
        // SAFETY: the job borrows `items`, `next`, `slots` and `f` from
        // this frame. Erasing the lifetime is sound because this function
        // neither returns nor unwinds (`claim_loop` never unwinds) before
        // each job is either withdrawn unrun below or has counted itself
        // finished, and a job touches this frame only before its count:
        // the count and its condvar live in `finished`, which the job owns
        // a share of.
        let job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
        lock(&QUEUE).push_back((id, job));
    }
    QUEUED.notify_one();

    let withdrawn = if caller_claims {
        claim_loop(items, chunk, &next, &slots, f);
        // Every chunk is claimed: a job no worker has taken would find
        // nothing left, so drop it unrun rather than wait for a worker to
        // wake and take it.
        let mut queue = lock(&QUEUE);
        let queued = queue.len();
        queue.retain(|&(owner, _)| owner != id);
        queued - queue.len()
    } else {
        0
    };
    let taken = jobs - withdrawn;
    let count = lock(&finished.count);
    drop(finished.counted.wait_while(count, |done| *done < taken));
    slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|slot| slot.expect("every chunk is claimed exactly once"))
        .collect()
}

/// Extracts the human-readable message from a panic payload (the `&str` or
/// `String` that `panic!` carries; anything else gets a fixed label).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Applies `f` to every item of `items`, splitting the work across the
/// persistent worker pool, and returns results in input order.
///
/// Callers map independent pieces of simulation: lane chunks of a QML
/// dataset or minibatch, or single samples. A map of fewer than 4 items
/// runs as a plain loop on the calling thread, so a QML training minibatch
/// of at most
/// [`DEFAULT_BATCH_LANES`](crate::DEFAULT_BATCH_LANES) samples, which is
/// one lane chunk, never leaves the caller's thread.
///
/// # Examples
///
/// ```
/// let squares = qns_sim::parallel_map(&[1, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    parallel_map_with(items, 0, f)
}

/// [`parallel_map`] with an explicit worker count. `workers == 0` defers
/// to the process-wide override from [`set_parallelism`], then to the
/// detected core count. A map started inside another fan-out's item runs
/// inline, whatever the count.
///
/// # Panics
///
/// Re-raises the panic of the lowest-index panicking chunk, after every
/// chunk has finished.
pub fn parallel_map_with<T, U, F>(items: &[T], workers: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = resolve_workers(workers).min(items.len());
    if threads <= 1 || items.len() < MIN_PARALLEL_ITEMS || in_claim_loop() {
        return items.iter().map(&f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let jobs = items.len().div_ceil(chunk) - 1;
    let mut out = Vec::with_capacity(items.len());
    for part in fan_out(items, chunk, jobs, true, &f) {
        match part {
            Ok(mut p) => out.append(&mut p),
            Err(payload) => resume_unwind(payload),
        }
    }
    out
}

/// Applies `f` to every item on up to `workers` pool threads (`0` resolves
/// as in [`parallel_map_with`]) with per-item panic isolation: a panicking
/// item yields `Err(panic message)` in its slot, and the rest of the batch
/// completes. Results come back in input order.
///
/// Threads claim one item at a time, so an expensive item never stalls
/// the rest behind a static split. The calling thread runs no items
/// unless the map runs inline: one worker, fewer than two items, or a call
/// from inside another fan-out's item.
///
/// # Examples
///
/// ```
/// let out = qns_sim::try_parallel_map(&[1, 2, 3], 2, |&x| {
///     assert!(x != 2, "item {x} rejected");
///     x * 10
/// });
/// assert_eq!(out[0], Ok(10));
/// assert!(out[1].as_ref().unwrap_err().contains("item 2 rejected"));
/// assert_eq!(out[2], Ok(30));
/// ```
pub fn try_parallel_map<T, U, F>(items: &[T], workers: usize, f: F) -> Vec<Result<U, String>>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = resolve_workers(workers).min(items.len());
    if threads <= 1 || in_claim_loop() {
        return items
            .iter()
            .map(|item| catch_unwind(AssertUnwindSafe(|| f(item))))
            .map(|slot| slot.map_err(|p| panic_message(p.as_ref())))
            .collect();
    }
    fan_out(items, 1, threads, false, &f)
        .into_iter()
        .map(|slot| {
            slot.map(|mut one| one.pop().expect("one item per chunk"))
                .map_err(|p| panic_message(p.as_ref()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::time::Duration;

    /// Thread-identity assertions share the process-global pool, so they
    /// serialize against each other; result-value tests don't need to.
    static POOL_IDENTITY_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = parallel_map(&items, |&x| x + 1);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i + 1);
        }
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        let empty: Vec<i32> = vec![];
        assert!(parallel_map(&empty, |&x| x).is_empty());
        assert_eq!(parallel_map(&[42], |&x| x * 2), vec![84]);
    }

    #[test]
    fn tiny_batches_never_touch_the_pool() {
        let _serial = POOL_IDENTITY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let caller = std::thread::current().id();
        // Below MIN_PARALLEL_ITEMS the map must run inline even with an
        // explicit worker request.
        for n in 1..MIN_PARALLEL_ITEMS {
            let items: Vec<usize> = (0..n).collect();
            let ids = parallel_map_with(&items, 8, |_| std::thread::current().id());
            assert!(
                ids.iter().all(|&id| id == caller),
                "{n}-item map must stay on the calling thread"
            );
        }
    }

    #[test]
    fn nesting_flag_is_clear_after_every_map() {
        let items: Vec<usize> = (0..64).collect();
        let flag = || IN_CLAIM_LOOP.with(Cell::get);
        // The caller claims chunks of its own fan-out, with the flag set.
        let seen = parallel_map_with(&items, 2, |_| flag());
        assert!(seen.iter().all(|&set| set), "items run inside a claim loop");
        assert!(!flag());
        let boom = |&x: &usize| {
            assert!(x != 37, "item {x} exploded");
            x
        };
        assert!(std::panic::catch_unwind(|| parallel_map_with(&items, 2, boom)).is_err());
        assert!(!flag(), "restored after a re-raised panic");
        assert!(try_parallel_map(&items, 2, boom)[37].is_err());
        assert!(!flag(), "restored after an isolated panic");
        assert!(try_parallel_map(&items, 1, boom)[37].is_err());
        assert!(!flag(), "the inline path never sets it");
    }

    #[test]
    fn explicit_worker_count_controls_fanout() {
        let _serial = POOL_IDENTITY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let items: Vec<usize> = (0..64).collect();
        // workers = 1: everything runs on the calling thread.
        let caller = std::thread::current().id();
        let ids = parallel_map_with(&items, 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
        // workers = 3: results still in order, work crosses threads. The
        // caller claims a chunk itself and parked workers are committed to
        // the queue before jobs arrive, so at least one pool thread shows
        // up. Items are slow enough that the chunks overlap in time.
        let ids = parallel_map_with(&items, 3, |_| {
            std::thread::sleep(Duration::from_micros(200));
            std::thread::current().id()
        });
        let distinct: HashSet<_> = ids.iter().collect();
        assert!(distinct.len() > 1, "3 workers must actually fan out");
        assert_eq!(
            parallel_map_with(&items, 3, |&x| x * 2),
            items.iter().map(|&x| x * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn set_parallelism_takes_effect_mid_process() {
        let _serial = POOL_IDENTITY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Regression: the worker count used to be latched in a OnceLock at
        // first use, so a later `--workers 1` silently kept the old value.
        struct ResetOverride;
        impl Drop for ResetOverride {
            fn drop(&mut self) {
                set_parallelism(0);
            }
        }
        let _reset = ResetOverride;
        let items: Vec<usize> = (0..64).collect();
        let caller = std::thread::current().id();

        set_parallelism(4);
        let _warm = parallel_map(&items, |&x| x); // would latch a OnceLock
        set_parallelism(1);
        let ids = parallel_map(&items, |_| std::thread::current().id());
        assert!(
            ids.iter().all(|&id| id == caller),
            "override to 1 worker after first use must be honored"
        );
    }

    #[test]
    fn works_with_non_copy_results() {
        let items = vec!["a", "bb", "ccc"];
        let out = parallel_map(&items, |s| s.to_string());
        assert_eq!(
            out,
            vec!["a".to_string(), "bb".to_string(), "ccc".to_string()]
        );
    }

    #[test]
    fn panics_propagate_with_their_payload() {
        let items: Vec<usize> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            parallel_map_with(&items, 4, |&x| {
                if x == 37 {
                    panic!("sample {x} exploded");
                }
                x
            })
        });
        let payload = caught.expect_err("must propagate the worker panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("panic! with args carries a String payload");
        assert!(msg.contains("sample 37 exploded"), "{msg}");
    }

    #[test]
    fn nested_dispatch_does_not_deadlock() {
        // An outer map whose items each run an inner map: the inner maps
        // run inline on the outer item's thread.
        let outer: Vec<usize> = (0..8).collect();
        let out = parallel_map_with(&outer, 4, |&x| {
            let inner: Vec<usize> = (0..32).collect();
            parallel_map_with(&inner, 4, |&y| x * 100 + y)
                .into_iter()
                .sum::<usize>()
        });
        for (x, got) in out.iter().enumerate() {
            let want: usize = (0..32).map(|y| x * 100 + y).sum();
            assert_eq!(*got, want);
        }
    }

    #[test]
    fn try_map_results_come_back_in_input_order() {
        let items: Vec<usize> = (0..500).collect();
        for workers in [1, 3, 0] {
            let out = try_parallel_map(&items, workers, |&x| x * 2);
            let want: Vec<Result<usize, String>> = items.iter().map(|&x| Ok(x * 2)).collect();
            assert_eq!(out, want, "workers {workers}");
        }
    }

    #[test]
    fn try_map_panics_poison_only_their_slot() {
        let items: Vec<usize> = (0..32).collect();
        let out = try_parallel_map(&items, 4, |&x| {
            assert!(x % 7 != 3, "synthetic bad candidate");
            x as f64
        });
        for (i, slot) in out.iter().enumerate() {
            if i % 7 == 3 {
                assert!(slot.is_err(), "slot {i} should be poisoned");
            } else {
                assert_eq!(*slot, Ok(i as f64));
            }
        }
    }

    #[test]
    fn try_map_runs_every_item_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..1000).collect();
        let _ = try_parallel_map(&items, 8, |_| counter.fetch_add(1, Ordering::Relaxed));
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn try_map_carries_panic_messages() {
        let items: Vec<usize> = (0..16).collect();
        for workers in [1, 4] {
            let out = try_parallel_map(&items, workers, |&x| {
                if x % 5 == 2 {
                    panic!("candidate {x} rejected");
                }
                x * 3
            });
            for (i, slot) in out.iter().enumerate() {
                if i % 5 == 2 {
                    let msg = slot.as_ref().unwrap_err();
                    assert_eq!(*msg, format!("candidate {i} rejected"));
                } else {
                    assert_eq!(*slot, Ok(i * 3));
                }
            }
        }
    }

    #[test]
    fn try_map_handles_empty_and_one_item_batches() {
        let empty: Vec<u32> = vec![];
        assert!(try_parallel_map(&empty, 0, |&x| x).is_empty());
        assert_eq!(try_parallel_map(&[9u32], 0, |&x| x + 1), vec![Ok(10)]);
    }

    #[test]
    fn try_map_keeps_items_off_the_calling_thread() {
        let _serial = POOL_IDENTITY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..16).collect();
        let ids = try_parallel_map(&items, 2, |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id.as_ref().unwrap() != caller));
        // One worker, or a single item, runs inline instead.
        let ids = try_parallel_map(&items, 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id.as_ref().unwrap() == caller));
        let ids = try_parallel_map(&items[..1], 2, |_| std::thread::current().id());
        assert_eq!(ids, vec![Ok(caller)]);
    }

    #[test]
    fn caller_waits_for_the_chunk_a_worker_took() {
        // Four items, two chunks. Barrier `taken` holds the caller's first
        // item until a worker has taken the job and claimed the other
        // chunk; barrier `claimed` holds that worker until the caller's
        // last item, so the caller's claim loop ends first. The map must
        // still return the worker's results.
        let caller = std::thread::current().id();
        let (taken, claimed) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        let items: Vec<usize> = (0..4).collect();
        let out = parallel_map_with(&items, 2, |&x| {
            match (std::thread::current().id() == caller, x % 2 == 0) {
                (true, true) => {
                    taken.wait();
                }
                (true, false) => {
                    claimed.wait();
                }
                (false, true) => {
                    taken.wait();
                    claimed.wait();
                    std::thread::sleep(Duration::from_millis(1));
                }
                (false, false) => {}
            }
            x + 1
        });
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn concurrent_callers_get_whole_results() {
        // Two callers at once: each withdrawal races a worker that is
        // waking up to take the same job, and each try-map waits for jobs
        // queued behind the other caller's.
        let items64: Vec<usize> = (0..64).collect();
        let items16: Vec<usize> = (0..16).collect();
        std::thread::scope(|scope| {
            for t in 1..=2 {
                let (items64, items16) = (&items64, &items16);
                scope.spawn(move || {
                    for i in 0..3000 {
                        let k = t * 10_000 + i;
                        let out = parallel_map_with(items64, 2, |&x| x + k);
                        let want: Vec<usize> = items64.iter().map(|&x| x + k).collect();
                        assert_eq!(out, want, "caller {t}, call {i}");
                        let out = try_parallel_map(items16, 2, |&x| x * k);
                        let want: Vec<Result<usize, String>> =
                            items16.iter().map(|&x| Ok(x * k)).collect();
                        assert_eq!(out, want, "caller {t}, call {i}");
                    }
                });
            }
        });
    }
}
