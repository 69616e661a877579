//! What the benchmark reads about its own process and host: peak memory,
//! CPU time, core count, a fixed calibration kernel, and the scratch
//! directory for snapshots.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or `NaN`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// CPU time consumed so far by this process, in seconds: user plus
/// system time from `/proc/self/stat`, which also counts threads that have
/// already exited (the evaluation engine's scoped workers do). Resolution
/// is one clock tick, taken as the Linux default of 1/100 s. Zero where
/// `/proc` is unavailable.
pub fn process_cpu_s() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / TICKS_PER_S,
        _ => 0.0,
    }
}

/// Times a fixed 10-qubit state-vector kernel on every core (up to two)
/// at once and returns the mean of the `workers` fastest times, in
/// milliseconds: a pipeline on `workers` threads runs on the least loaded
/// cores. The shared host the baselines were recorded on drifts in speed
/// by up to 2x within minutes, and the cores need not slow alike; this
/// kernel's time drifts with them, so the end-to-end times are scaled by
/// it to a reference speed. The kernel is written here, not taken from
/// the simulator, so a change to the simulator cannot move it.
pub fn calibrate_ms(workers: usize) -> f64 {
    let mut times: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cores().min(2))
            .map(|_| scope.spawn(kernel_ms))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration kernel does not panic"))
            .collect()
    });
    times.sort_by(f64::total_cmp);
    times.truncate(workers.max(1));
    times.iter().sum::<f64>() / times.len() as f64
}

/// Wall milliseconds of 200 layers of single-qubit rotations (2000 gate
/// sweeps over 1024 amplitudes), taken as five times the median of five
/// 40-layer chunks so one preemption does not skew it.
fn kernel_ms() -> f64 {
    const QUBITS: usize = 10;
    let mut re = vec![0.0; 1 << QUBITS];
    let mut im = vec![0.0; 1 << QUBITS];
    re[0] = 1.0;
    let (c, s) = (0.3f64.cos(), 0.3f64.sin());
    let mut chunks = [0.0; 5];
    for chunk in &mut chunks {
        let start = Instant::now();
        for _ in 0..40 {
            for q in 0..QUBITS {
                let bit = 1 << q;
                for i in (0..re.len()).filter(|i| i & bit == 0) {
                    let j = i | bit;
                    let (ar, ai, br, bi) = (re[i], im[i], re[j], im[j]);
                    // exp(-i 0.3 X): [[c, -is], [-is, c]].
                    re[i] = c * ar + s * bi;
                    im[i] = c * ai - s * br;
                    re[j] = c * br + s * ai;
                    im[j] = c * bi - s * ar;
                }
            }
            black_box((&mut re, &mut im));
        }
        *chunk = start.elapsed().as_secs_f64() * 1e3;
    }
    5.0 * crate::stats::median(&chunks)
}

/// The factor that turns a wall time measured next to a calibration of
/// `calib_ms` into seconds on the reference host.
pub fn reference_scale(calib_ms: f64) -> f64 {
    REFERENCE_CALIB_MS / calib_ms
}

/// The calibration's time on the reference host: the 2-vCPU x86-64
/// container the baselines in README.md were recorded on, in its faster
/// state.
pub const REFERENCE_CALIB_MS: f64 = 4.0;

/// A private scratch directory for snapshot files, inside the build
/// directory (`$CARGO_TARGET_DIR`, else `target`) so runs write nowhere
/// else. Removed on drop.
pub struct Scratch {
    dir: PathBuf,
    next: usize,
}

impl Scratch {
    pub fn new() -> Self {
        static INSTANCES: AtomicUsize = AtomicUsize::new(0);
        let root = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target"));
        let instance = INSTANCES.fetch_add(1, Ordering::Relaxed);
        Scratch {
            dir: root.join(format!(
                "qnas_bench-scratch-{}-{instance}",
                std::process::id()
            )),
            next: 0,
        }
    }

    /// A fresh, not yet existing directory for one run's snapshots.
    pub fn fresh_dir(&mut self) -> PathBuf {
        self.next += 1;
        let dir = self.dir.join(format!("run-{}", self.next));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
