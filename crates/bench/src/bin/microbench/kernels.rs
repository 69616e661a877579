//! `kernels` — micro-benchmarks for the split-complex lane kernels and
//! the persistent worker pool, recorded as `BENCH_kernels.json`.
//!
//! Two sections:
//!
//! 1. `lanes` — gate-sweep GFLOP/s of the planar [`StateBatch`] against a
//!    local interleaved (`Vec<C64>`, array-of-structs) reference with the
//!    identical element order and walk, across lane counts. The planar
//!    layout is the one the autovectorizer can chew on; the acceptance
//!    floor is ≥1.5× at [`DEFAULT_BATCH_LANES`].
//! 2. `dispatch` — per-call overhead of a `parallel_map` fan-out on the
//!    persistent worker pool vs. the old scoped spawn-per-call shape, both
//!    at two threads and timed alternately. The acceptance floor is a ≥5×
//!    reduction.
//!
//! The batched forward these kernels exist to move is `batch`'s
//! `forward.batched_s`. `--smoke` shrinks every section to a cheap single
//! iteration.

use crate::{time_median, time_median_pair, Floor, Json, Mode};
use qns_sim::{parallel_map_with, StateBatch, DEFAULT_BATCH_LANES};
use qns_tensor::{Mat2, Mat4, C64};

/// Interleaved (array-of-structs) reference batch: identical element
/// order to [`StateBatch`] (`amp * lanes + lane`) but `C64` pairs instead
/// of split planes, and the same blocked walks. This is the layout the
/// planar engine replaced; it exists here only as the baseline under
/// measurement.
struct InterleavedBatch {
    lanes: usize,
    amps: Vec<C64>,
}

impl InterleavedBatch {
    fn zero_state(n: usize, lanes: usize) -> Self {
        let mut amps = vec![C64::ZERO; (1 << n) * lanes];
        for a in amps.iter_mut().take(lanes) {
            *a = C64::ONE;
        }
        Self { lanes, amps }
    }

    fn apply_1q(&mut self, m: &Mat2, q: usize) {
        let stride = (1usize << q) * self.lanes;
        let len = self.amps.len();
        let mut base = 0;
        while base < len {
            for off in base..base + stride {
                let lo = self.amps[off];
                let hi = self.amps[off + stride];
                self.amps[off] = m.m[0] * lo + m.m[1] * hi;
                self.amps[off + stride] = m.m[2] * lo + m.m[3] * hi;
            }
            base += stride << 1;
        }
    }

    fn apply_2q(&mut self, m: &Mat4, qa: usize, qb: usize) {
        let ba = (1usize << qa) * self.lanes;
        let bb = (1usize << qb) * self.lanes;
        let (lo, hi) = if ba < bb { (ba, bb) } else { (bb, ba) };
        let len = self.amps.len();
        let mut base = 0;
        while base < len {
            let mut mid = base;
            while mid < base + hi {
                for e in mid..mid + lo {
                    let v0 = self.amps[e];
                    let v1 = self.amps[e + bb];
                    let v2 = self.amps[e + ba];
                    let v3 = self.amps[e + ba + bb];
                    self.amps[e] = ((m.m[0] * v0 + m.m[1] * v1) + m.m[2] * v2) + m.m[3] * v3;
                    self.amps[e + bb] = ((m.m[4] * v0 + m.m[5] * v1) + m.m[6] * v2) + m.m[7] * v3;
                    self.amps[e + ba] = ((m.m[8] * v0 + m.m[9] * v1) + m.m[10] * v2) + m.m[11] * v3;
                    self.amps[e + ba + bb] =
                        ((m.m[12] * v0 + m.m[13] * v1) + m.m[14] * v2) + m.m[15] * v3;
                }
                mid += lo << 1;
            }
            base += hi << 1;
        }
    }
}

/// RY-shaped rotation — a fully general (dense, no zero entry) 2×2.
fn ry(theta: f64) -> Mat2 {
    let h = theta / 2.0;
    Mat2::new([
        C64::real(h.cos()),
        C64::real(-h.sin()),
        C64::real(h.sin()),
        C64::real(h.cos()),
    ])
}

/// The old dispatch shape: one scoped spawn per call, joined immediately.
/// Kept here as the measured baseline for the `dispatch` section.
fn scoped_map(items: &[u64], f: impl Fn(&u64) -> u64 + Sync) -> Vec<u64> {
    let mid = items.len() / 2;
    let (a, b) = items.split_at(mid);
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| b.iter().map(&f).collect::<Vec<u64>>());
        let mut out: Vec<u64> = a.iter().map(&f).collect();
        out.extend(handle.join().expect("scoped worker"));
        out
    })
}

pub fn measure(Mode { smoke, reps }: Mode, json: &mut Json) -> Vec<Floor> {
    // 1. Planar vs interleaved lane sweeps.
    let n = if smoke { 6 } else { 10 };
    let lane_counts: &[usize] = if smoke { &[2, 8] } else { &[2, 8, 32, 64] };
    let g1 = ry(0.7);
    let g2 = ry(0.4).kron(&ry(1.1));
    // Per full iteration: a 1q general sweep on every qubit plus a 2q
    // general sweep on every ring pair — one layer's worth of strides.
    let flops_per_iter = |lanes: usize| -> f64 {
        let amps = (1usize << n) * lanes;
        let one_q = n as f64 * (amps as f64 / 2.0) * 28.0;
        let two_q = n as f64 * (amps as f64 / 4.0) * 120.0;
        one_q + two_q
    };
    let mut default_speedup = 0.0;
    json.obj("lanes", |j| {
        j.int("qubits", n);
        for &lanes in lane_counts {
            let mut planar = StateBatch::zero_state(n, lanes);
            let planar_s = time_median(reps, || {
                for q in 0..n {
                    planar.apply_1q(&g1, q);
                }
                for q in 0..n {
                    planar.apply_2q(&g2, q, (q + 1) % n);
                }
            });
            let mut inter = InterleavedBatch::zero_state(n, lanes);
            let inter_s = time_median(reps, || {
                for q in 0..n {
                    inter.apply_1q(&g1, q);
                }
                for q in 0..n {
                    inter.apply_2q(&g2, q, (q + 1) % n);
                }
            });
            let speedup = inter_s / planar_s.max(1e-12);
            let gf = flops_per_iter(lanes) * 1e-9;
            j.num(&format!("planar_gflops_{lanes}"), gf / planar_s.max(1e-12));
            j.num(
                &format!("interleaved_gflops_{lanes}"),
                gf / inter_s.max(1e-12),
            );
            j.num(&format!("speedup_{lanes}"), speedup);
            if lanes == DEFAULT_BATCH_LANES {
                default_speedup = speedup;
            }
        }
    });

    // 2. Pool dispatch vs scoped spawn, per call.
    let items: Vec<u64> = (0..64).collect();
    let calls = if smoke { 20 } else { 2000 };
    // 64 items clear the pool's tiny-batch cutoff, so these trivially
    // cheap items take the pool path — this measures dispatch, not work.
    // The arms alternate within each repetition, so both see the same host
    // state. The caller claims both chunks and withdraws the job no worker
    // has taken, so the pool arm never waits for a parked worker to wake:
    // that wait once made a whole run read 13–20 µs per call on a 2-vCPU
    // host, and this floor fail (DESIGN.md, "Persistent worker pool").
    let (pool_s, scoped_s) = time_median_pair(
        reps,
        || {
            for _ in 0..calls {
                let out = parallel_map_with(&items, 2, |x| x + 1);
                assert_eq!(out.len(), items.len());
            }
        },
        || {
            for _ in 0..calls {
                let out = scoped_map(&items, |x| x + 1);
                assert_eq!(out.len(), items.len());
            }
        },
    );
    let (pool_s, scoped_s) = (pool_s / calls as f64, scoped_s / calls as f64);
    let dispatch_ratio = scoped_s / pool_s.max(1e-12);
    json.obj("dispatch", |j| {
        j.int("items", items.len());
        j.int("calls", calls);
        j.num("pool_call_s", pool_s);
        j.num("scoped_call_s", scoped_s);
        j.num("ratio", dispatch_ratio);
    });

    vec![
        Floor("planar/interleaved at default lanes", default_speedup, 1.5),
        Floor("scoped-spawn/pool dispatch", dispatch_ratio, 5.0),
    ]
}
