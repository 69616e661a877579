//! Batched multi-state simulation: `B` state vectors in one split-complex
//! structure-of-arrays buffer, swept together by every kernel.
//!
//! QML training and candidate scoring evaluate the *same* circuit over a
//! minibatch of encoded samples; noisy scoring averages many trajectories
//! of the same circuit. Simulating those states one at a time repeats the
//! plan traversal, gate dispatch, and matrix materialization per state and
//! walks the amplitudes in short strided runs. [`StateBatch`] instead
//! stores the batch amplitude-major with batch-contiguous lanes, and —
//! unlike the single-state [`StateVec`] — **split-complex** (planar): the
//! real and imaginary parts live in two separate `f64` buffers, element
//! `amp_index * lanes + lane` in each.
//!
//! The planar layout is what lets the lane sweep vectorize on stable Rust.
//! With interleaved `C64` storage every complex multiply loads `re`/`im`
//! pairs at stride two and shuffles them across vector lanes; LLVM's
//! autovectorizer usually gives up or emits scalar code. With two planar
//! buffers every load in the inner loop is a contiguous same-type `f64`
//! run, the complex arithmetic becomes plain mul/sub/add chains over those
//! runs, and LLVM packs them into SSE/AVX vectors on its own — no `wide`,
//! no nightly `std::simd`. The kernels tile their runs into
//! [`LANE_CHUNK`]-wide pieces (fixed trip count, bounds checks hoisted by
//! the slice asserts) plus a scalar tail; `cargo xtask asm-check` pins the
//! packed codegen in CI.
//!
//! Per-lane kernels ([`StateBatch::lane_apply_1q`] /
//! [`StateBatch::lane_apply_2q`]) cover the steps whose matrices differ
//! across the batch: input-encoder gates whose angles come from per-sample
//! features, and stochastic Kraus operators drawn per trajectory. When a
//! whole step has one matrix per lane of the *same* structure class,
//! [`StateBatch::apply_1q_per_lane`] sweeps all lanes in one pass with the
//! matrix entries themselves transposed into planar per-lane arrays.
//!
//! Every kernel mirrors the structure-specialized dispatch and per-pair
//! arithmetic of [`StateVec`] exactly — each complex multiply expands to
//! the same `re*re - im*im` / `re*im + im*re` expressions in the same
//! order, and sums associate identically — so each lane of a batched run
//! is **bit-identical** to the corresponding single-state run. The
//! differential battery in `tests/sim_batch.rs` holds batched execution to
//! the sequential results bitwise across every gate template, batch size,
//! and fusion level.

use crate::state::{for_each_2q_base, mat4_is_controlled, mat4_is_diagonal};
use crate::StateVec;
use qns_tensor::{Mat2, Mat4, C64};

/// Default lane count consumers chunk minibatches into.
///
/// Large enough to amortize per-gate dispatch and fill vector registers,
/// small enough that a 12-qubit batch (`4096 × 32 × 16` bytes = 2 MiB)
/// stays cache-friendly and large sample sets chunk with bounded memory.
pub const DEFAULT_BATCH_LANES: usize = 32;

/// Width of the fixed micro-kernel tiles the planar kernels sweep.
///
/// Inner loops process `LANE_CHUNK` `f64` elements per tile with a
/// compile-time trip count (16 doubles = two AVX-512 or four AVX2
/// registers per plane), then a scalar tail. The trajectory executor
/// chunks its lane fan-out to the same width so one trajectory chunk is a
/// whole number of tiles.
pub const LANE_CHUNK: usize = 16;

/// Compiles one gate sweep at two instruction widths and dispatches at
/// runtime, once per gate application: `$front` is the entry (baseline
/// target features, SSE2 packed on x86-64), `$avx2` re-compiles the same
/// `$body` — with every `#[inline(always)]` micro-kernel it calls inlined
/// — under AVX2 so LLVM autovectorizes the inner loops 4-wide. Only
/// `avx2` is enabled, never `fma`, so both versions execute the identical
/// IEEE-754 operation sequence and results stay bit-for-bit equal to the
/// single-state path; the wide version is purely a wider schedule of the
/// same arithmetic. `is_x86_feature_detected!` caches its probe, so the
/// per-gate dispatch is an atomic load. Both fronts are `inline(never)`:
/// they are the `asm-check` anchor symbols that pin packed codegen at
/// each width in CI.
macro_rules! multiversion_sweep {
    ($(#[$meta:meta])* $front:ident / $avx2:ident => $body:ident ( &mut self $(, $arg:ident : $ty:ty)* $(,)? )) => {
        $(#[$meta])*
        #[inline(never)]
        fn $front(&mut self $(, $arg: $ty)*) {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: reached only when AVX2 was detected on the
                    // running CPU.
                    unsafe { self.$avx2($($arg),*) };
                    return;
                }
            }
            self.$body($($arg),*)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        #[inline(never)]
        unsafe fn $avx2(&mut self $(, $arg: $ty)*) {
            self.$body($($arg),*)
        }
    };
    // The same pair for a read-only sweep.
    ($(#[$meta:meta])* $front:ident / $avx2:ident => $body:ident ( &self $(, $arg:ident : $ty:ty)* $(,)? )) => {
        $(#[$meta])*
        #[inline(never)]
        fn $front(&self $(, $arg: $ty)*) {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: reached only when AVX2 was detected on the
                    // running CPU.
                    unsafe { self.$avx2($($arg),*) };
                    return;
                }
            }
            self.$body($($arg),*)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        #[inline(never)]
        unsafe fn $avx2(&self $(, $arg: $ty)*) {
            self.$body($($arg),*)
        }
    };
}

/// [`for_each_2q_base`](crate::state::for_each_2q_base) at run
/// granularity: binds `$e` to the start of each unit-stride run of base
/// indices in ascending order; every run is exactly `min($ba, $bb)` long.
/// The planar sweeps hand each run to a contiguous slice micro-kernel
/// instead of paying a callback per element.
///
/// This is a macro (not a callback taker or an iterator) so the body is
/// *syntactically* inside the sweep it expands in. The sweeps are
/// compiled once per instruction width (see `multiversion_sweep!`), and
/// any closure in the walk — an `FnMut` callback or an iterator
/// adapter's captured state — becomes its own baseline-feature symbol
/// that rustc/LLVM may leave outlined, pinning the hot loop to the
/// narrow encoding even when called from the AVX2 twin.
macro_rules! for_2q_runs {
    ($len:expr, $ba:expr, $bb:expr, |$e:ident| $body:block) => {{
        let len = $len;
        let (lo, hi) = {
            let (a, b) = ($ba, $bb);
            if a < b {
                (a, b)
            } else {
                (b, a)
            }
        };
        let mut base = 0usize;
        while base < len {
            let mut mid = base;
            while mid < base + hi {
                let $e = mid;
                $body
                mid += lo << 1;
            }
            base += hi << 1;
        }
    }};
}

/// Expands to a [`LANE_CHUNK`]-tiled loop over `0..$n` binding `$k`:
/// full-width tiles with a fixed trip count first, then the scalar tail.
macro_rules! lane_tiles {
    ($n:expr, $k:ident, $body:block) => {{
        let n = $n;
        let mut tile = 0usize;
        while tile + LANE_CHUNK <= n {
            for $k in tile..tile + LANE_CHUNK {
                $body
            }
            tile += LANE_CHUNK;
        }
        for $k in tile..n {
            $body
        }
    }};
}

/// Planar scale kernel: `a = d * a` over one run, the diagonal-path
/// arithmetic of [`C64`]'s `Mul` expanded element-wise.
#[inline(always)]
fn kern_scale(re: &mut [f64], im: &mut [f64], dr: f64, di: f64) {
    let n = re.len();
    assert!(im.len() == n);
    lane_tiles!(n, k, {
        let xr = re[k];
        let xi = im[k];
        re[k] = dr * xr - di * xi;
        im[k] = dr * xi + di * xr;
    });
}

/// Planar anti-diagonal kernel: `a0' = a01 * a1 ; a1' = a10 * a0`.
#[inline(always)]
fn kern_antidiag(
    lo_re: &mut [f64],
    lo_im: &mut [f64],
    hi_re: &mut [f64],
    hi_im: &mut [f64],
    a01: C64,
    a10: C64,
) {
    let n = lo_re.len();
    assert!(lo_im.len() == n && hi_re.len() == n && hi_im.len() == n);
    lane_tiles!(n, k, {
        let x0r = lo_re[k];
        let x0i = lo_im[k];
        let x1r = hi_re[k];
        let x1i = hi_im[k];
        lo_re[k] = a01.re * x1r - a01.im * x1i;
        lo_im[k] = a01.re * x1i + a01.im * x1r;
        hi_re[k] = a10.re * x0r - a10.im * x0i;
        hi_im[k] = a10.re * x0i + a10.im * x0r;
    });
}

/// Planar general 1q micro-kernel over one pair of runs:
/// `a0' = m00 a0 + m01 a1 ; a1' = m10 a0 + m11 a1`, every complex product
/// expanded in [`C64`]'s exact operation order. `m` is the flattened
/// matrix `[m00.re, m00.im, m01.re, …]`. This is the `asm-check` anchor
/// symbol — both dispatch fronts stay un-inlined so the packed codegen
/// stays inspectable at each width.
#[inline(always)]
fn kern_1q_general(
    lo_re: &mut [f64],
    lo_im: &mut [f64],
    hi_re: &mut [f64],
    hi_im: &mut [f64],
    m: &[f64; 8],
) {
    let n = lo_re.len();
    assert!(lo_im.len() == n && hi_re.len() == n && hi_im.len() == n);
    let [m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i] = *m;
    lane_tiles!(n, k, {
        let x0r = lo_re[k];
        let x0i = lo_im[k];
        let x1r = hi_re[k];
        let x1i = hi_im[k];
        lo_re[k] = (m00r * x0r - m00i * x0i) + (m01r * x1r - m01i * x1i);
        lo_im[k] = (m00r * x0i + m00i * x0r) + (m01r * x1i + m01i * x1r);
        hi_re[k] = (m10r * x0r - m10i * x0i) + (m11r * x1r - m11i * x1i);
        hi_im[k] = (m10r * x0i + m10i * x0r) + (m11r * x1i + m11i * x1r);
    });
}

/// Planar general 2q micro-kernel over four quadrant runs:
/// `y_j = Σ_k w_jk v_k` with the left-associated sum order of the
/// interleaved kernel. `w` is the row-major flattened 4×4 matrix as
/// `[re, im]` pairs. Second `asm-check` anchor symbol.
#[inline(always)]
fn kern_2q_general(r: [&mut [f64]; 4], i: [&mut [f64]; 4], w: &[f64; 32]) {
    let [r0, r1, r2, r3] = r;
    let [i0, i1, i2, i3] = i;
    let n = r0.len();
    assert!(
        r1.len() == n
            && r2.len() == n
            && r3.len() == n
            && i0.len() == n
            && i1.len() == n
            && i2.len() == n
            && i3.len() == n
    );
    lane_tiles!(n, k, {
        let v0r = r0[k];
        let v0i = i0[k];
        let v1r = r1[k];
        let v1i = i1[k];
        let v2r = r2[k];
        let v2i = i2[k];
        let v3r = r3[k];
        let v3i = i3[k];
        // One row per output quadrant; each parenthesized pair is one
        // complex product, summed left-to-right like `w0*v0 + w1*v1 + …`.
        r0[k] = (((w[0] * v0r - w[1] * v0i) + (w[2] * v1r - w[3] * v1i))
            + (w[4] * v2r - w[5] * v2i))
            + (w[6] * v3r - w[7] * v3i);
        i0[k] = (((w[0] * v0i + w[1] * v0r) + (w[2] * v1i + w[3] * v1r))
            + (w[4] * v2i + w[5] * v2r))
            + (w[6] * v3i + w[7] * v3r);
        r1[k] = (((w[8] * v0r - w[9] * v0i) + (w[10] * v1r - w[11] * v1i))
            + (w[12] * v2r - w[13] * v2i))
            + (w[14] * v3r - w[15] * v3i);
        i1[k] = (((w[8] * v0i + w[9] * v0r) + (w[10] * v1i + w[11] * v1r))
            + (w[12] * v2i + w[13] * v2r))
            + (w[14] * v3i + w[15] * v3r);
        r2[k] = (((w[16] * v0r - w[17] * v0i) + (w[18] * v1r - w[19] * v1i))
            + (w[20] * v2r - w[21] * v2i))
            + (w[22] * v3r - w[23] * v3i);
        i2[k] = (((w[16] * v0i + w[17] * v0r) + (w[18] * v1i + w[19] * v1r))
            + (w[20] * v2i + w[21] * v2r))
            + (w[22] * v3i + w[23] * v3r);
        r3[k] = (((w[24] * v0r - w[25] * v0i) + (w[26] * v1r - w[27] * v1i))
            + (w[28] * v2r - w[29] * v2i))
            + (w[30] * v3r - w[31] * v3i);
        i3[k] = (((w[24] * v0i + w[25] * v0r) + (w[26] * v1i + w[27] * v1r))
            + (w[28] * v2i + w[29] * v2r))
            + (w[30] * v3i + w[31] * v3r);
    });
}

/// Per-lane 2×2 matrices transposed entry-planar: `m00r[lane]` etc., so a
/// per-lane sweep loads matrix entries contiguously too.
struct Mat2Planes {
    m00r: Vec<f64>,
    m00i: Vec<f64>,
    m01r: Vec<f64>,
    m01i: Vec<f64>,
    m10r: Vec<f64>,
    m10i: Vec<f64>,
    m11r: Vec<f64>,
    m11i: Vec<f64>,
}

impl Mat2Planes {
    fn new(ms: &[Mat2]) -> Self {
        let mut p = Mat2Planes {
            m00r: Vec::with_capacity(ms.len()),
            m00i: Vec::with_capacity(ms.len()),
            m01r: Vec::with_capacity(ms.len()),
            m01i: Vec::with_capacity(ms.len()),
            m10r: Vec::with_capacity(ms.len()),
            m10i: Vec::with_capacity(ms.len()),
            m11r: Vec::with_capacity(ms.len()),
            m11i: Vec::with_capacity(ms.len()),
        };
        for m in ms {
            let [m00, m01, m10, m11] = m.m;
            p.m00r.push(m00.re);
            p.m00i.push(m00.im);
            p.m01r.push(m01.re);
            p.m01i.push(m01.im);
            p.m10r.push(m10.re);
            p.m10i.push(m10.im);
            p.m11r.push(m11.re);
            p.m11i.push(m11.im);
        }
        p
    }
}

/// General per-lane-matrix 1q kernel: like [`kern_1q_general`] but the
/// matrix entries come from per-lane planes — the run length is always a
/// multiple of the lane count, so each `lanes`-wide span pairs position
/// `lane` with plane entry `lane`. Spans walk via `chunks_exact_mut` so
/// every in-span index is bounds-provable and the loop vectorizes.
#[inline(always)]
fn kern_1q_perlane_general(
    lo_re: &mut [f64],
    lo_im: &mut [f64],
    hi_re: &mut [f64],
    hi_im: &mut [f64],
    p: &Mat2Planes,
) {
    let lanes = p.m00r.len();
    let n = lo_re.len();
    assert!(lo_im.len() == n && hi_re.len() == n && hi_im.len() == n && n.is_multiple_of(lanes));
    let spans = lo_re
        .chunks_exact_mut(lanes)
        .zip(lo_im.chunks_exact_mut(lanes))
        .zip(hi_re.chunks_exact_mut(lanes))
        .zip(hi_im.chunks_exact_mut(lanes));
    for (((s0r, s0i), s1r), s1i) in spans {
        for lane in 0..lanes {
            let x0r = s0r[lane];
            let x0i = s0i[lane];
            let x1r = s1r[lane];
            let x1i = s1i[lane];
            let (m00r, m00i) = (p.m00r[lane], p.m00i[lane]);
            let (m01r, m01i) = (p.m01r[lane], p.m01i[lane]);
            let (m10r, m10i) = (p.m10r[lane], p.m10i[lane]);
            let (m11r, m11i) = (p.m11r[lane], p.m11i[lane]);
            s0r[lane] = (m00r * x0r - m00i * x0i) + (m01r * x1r - m01i * x1i);
            s0i[lane] = (m00r * x0i + m00i * x0r) + (m01r * x1i + m01i * x1r);
            s1r[lane] = (m10r * x0r - m10i * x0i) + (m11r * x1r - m11i * x1i);
            s1i[lane] = (m10r * x0i + m10i * x0r) + (m11r * x1i + m11i * x1r);
        }
    }
}

/// Diagonal per-lane-matrix 1q kernel: `a0 = d0_lane * a0 ; a1 = d1_lane
/// * a1`, matching the diagonal path of [`StateBatch::lane_apply_1q`].
#[inline(always)]
fn kern_1q_perlane_diag(
    lo_re: &mut [f64],
    lo_im: &mut [f64],
    hi_re: &mut [f64],
    hi_im: &mut [f64],
    p: &Mat2Planes,
) {
    let lanes = p.m00r.len();
    let n = lo_re.len();
    assert!(lo_im.len() == n && hi_re.len() == n && hi_im.len() == n && n.is_multiple_of(lanes));
    let spans = lo_re
        .chunks_exact_mut(lanes)
        .zip(lo_im.chunks_exact_mut(lanes))
        .zip(hi_re.chunks_exact_mut(lanes))
        .zip(hi_im.chunks_exact_mut(lanes));
    for (((s0r, s0i), s1r), s1i) in spans {
        for lane in 0..lanes {
            let (d0r, d0i) = (p.m00r[lane], p.m00i[lane]);
            let (d1r, d1i) = (p.m11r[lane], p.m11i[lane]);
            let x0r = s0r[lane];
            let x0i = s0i[lane];
            let x1r = s1r[lane];
            let x1i = s1i[lane];
            s0r[lane] = d0r * x0r - d0i * x0i;
            s0i[lane] = d0r * x0i + d0i * x0r;
            s1r[lane] = d1r * x1r - d1i * x1i;
            s1i[lane] = d1r * x1i + d1i * x1r;
        }
    }
}

/// Borrows one [`LANE_CHUNK`]-wide tile of an entry plane as a
/// fixed-size array so tile-loop indexing is bounds-free.
#[inline(always)]
fn tile_ref(p: &[f64], tile: usize) -> &[f64; LANE_CHUNK] {
    p[tile..tile + LANE_CHUNK]
        .try_into()
        .expect("tile within plane")
}

/// Mutable variant of [`tile_ref`].
#[inline(always)]
fn tile_mut(p: &mut [f64], tile: usize) -> &mut [f64; LANE_CHUNK] {
    (&mut p[tile..tile + LANE_CHUNK])
        .try_into()
        .expect("tile within plane")
}

/// One real-part output row of the per-lane general 2q update over one
/// tile: `out = w0*v0r - w1*v0i + w2*v1r - ... `, rows associated exactly
/// as in [`kern_2q_general`]. A single store stream per loop keeps the
/// vectorizer's alias checks trivial; fusing all eight output rows into
/// one loop leaves ~40 live memory streams and the loop stays scalar.
#[inline(always)]
fn perlane_row_re(
    out: &mut [f64; LANE_CHUNK],
    wrow: &[&[f64]],
    tile: usize,
    vr: &[[f64; LANE_CHUNK]; 4],
    vi: &[[f64; LANE_CHUNK]; 4],
) {
    let w: [&[f64; LANE_CHUNK]; 8] = [
        tile_ref(wrow[0], tile),
        tile_ref(wrow[1], tile),
        tile_ref(wrow[2], tile),
        tile_ref(wrow[3], tile),
        tile_ref(wrow[4], tile),
        tile_ref(wrow[5], tile),
        tile_ref(wrow[6], tile),
        tile_ref(wrow[7], tile),
    ];
    for k in 0..LANE_CHUNK {
        out[k] = (((w[0][k] * vr[0][k] - w[1][k] * vi[0][k])
            + (w[2][k] * vr[1][k] - w[3][k] * vi[1][k]))
            + (w[4][k] * vr[2][k] - w[5][k] * vi[2][k]))
            + (w[6][k] * vr[3][k] - w[7][k] * vi[3][k]);
    }
}

/// Imaginary-part counterpart of [`perlane_row_re`].
#[inline(always)]
fn perlane_row_im(
    out: &mut [f64; LANE_CHUNK],
    wrow: &[&[f64]],
    tile: usize,
    vr: &[[f64; LANE_CHUNK]; 4],
    vi: &[[f64; LANE_CHUNK]; 4],
) {
    let w: [&[f64; LANE_CHUNK]; 8] = [
        tile_ref(wrow[0], tile),
        tile_ref(wrow[1], tile),
        tile_ref(wrow[2], tile),
        tile_ref(wrow[3], tile),
        tile_ref(wrow[4], tile),
        tile_ref(wrow[5], tile),
        tile_ref(wrow[6], tile),
        tile_ref(wrow[7], tile),
    ];
    for k in 0..LANE_CHUNK {
        out[k] = (((w[0][k] * vi[0][k] + w[1][k] * vr[0][k])
            + (w[2][k] * vi[1][k] + w[3][k] * vr[1][k]))
            + (w[4][k] * vi[2][k] + w[5][k] * vr[2][k]))
            + (w[6][k] * vi[3][k] + w[7][k] * vr[3][k]);
    }
}

/// General per-lane-matrix 2q kernel: like [`kern_2q_general`] but the 32
/// flattened matrix entries come from per-lane planes (`w[j * lanes +
/// lane]` holds entry `j` of lane `lane`'s matrix). Quadrant runs are
/// whole numbers of `lanes`-wide spans, walked with `chunks_exact_mut` so
/// every index is bounds-provable and the lane loop vectorizes.
#[inline(always)]
fn kern_2q_perlane_general(r: [&mut [f64]; 4], i: [&mut [f64]; 4], w: &[f64], lanes: usize) {
    let [r0, r1, r2, r3] = r;
    let [i0, i1, i2, i3] = i;
    let n = r0.len();
    assert!(
        r1.len() == n
            && r2.len() == n
            && r3.len() == n
            && i0.len() == n
            && i1.len() == n
            && i2.len() == n
            && i3.len() == n
            && n % lanes == 0
            && w.len() == 32 * lanes
    );
    // Unpacked with a plain loop: `std::array::from_fn` carries a closure
    // that rustc leaves as an outlined `try_from_fn` call, which hides the
    // `chunks_exact` length facts and keeps the lane loop below scalar.
    let mut wp: [&[f64]; 32] = [&[]; 32];
    for (j, c) in w.chunks_exact(lanes).enumerate() {
        wp[j] = c;
    }
    let spans = r0
        .chunks_exact_mut(lanes)
        .zip(i0.chunks_exact_mut(lanes))
        .zip(r1.chunks_exact_mut(lanes))
        .zip(i1.chunks_exact_mut(lanes))
        .zip(r2.chunks_exact_mut(lanes))
        .zip(i2.chunks_exact_mut(lanes))
        .zip(r3.chunks_exact_mut(lanes))
        .zip(i3.chunks_exact_mut(lanes));
    for (((((((s0r, s0i), s1r), s1i), s2r), s2i), s3r), s3i) in spans {
        // Tiled main path: fixed-size input copies break the in-place
        // output→input dependence so each output row can be its own loop
        // (see `perlane_row_re` for why that matters to the vectorizer).
        let mut tile = 0usize;
        while tile + LANE_CHUNK <= lanes {
            let mut vr = [[0.0f64; LANE_CHUNK]; 4];
            let mut vi = [[0.0f64; LANE_CHUNK]; 4];
            vr[0].copy_from_slice(&s0r[tile..tile + LANE_CHUNK]);
            vr[1].copy_from_slice(&s1r[tile..tile + LANE_CHUNK]);
            vr[2].copy_from_slice(&s2r[tile..tile + LANE_CHUNK]);
            vr[3].copy_from_slice(&s3r[tile..tile + LANE_CHUNK]);
            vi[0].copy_from_slice(&s0i[tile..tile + LANE_CHUNK]);
            vi[1].copy_from_slice(&s1i[tile..tile + LANE_CHUNK]);
            vi[2].copy_from_slice(&s2i[tile..tile + LANE_CHUNK]);
            vi[3].copy_from_slice(&s3i[tile..tile + LANE_CHUNK]);
            let outs: [(&mut [f64], &mut [f64]); 4] = [
                (&mut *s0r, &mut *s0i),
                (&mut *s1r, &mut *s1i),
                (&mut *s2r, &mut *s2i),
                (&mut *s3r, &mut *s3i),
            ];
            for (row, (out_r, out_i)) in outs.into_iter().enumerate() {
                let wrow = &wp[8 * row..8 * row + 8];
                perlane_row_re(tile_mut(out_r, tile), wrow, tile, &vr, &vi);
                perlane_row_im(tile_mut(out_i, tile), wrow, tile, &vr, &vi);
            }
            tile += LANE_CHUNK;
        }
        // Scalar tail for lane counts that are not a whole number of
        // tiles (the tiny-batch regime).
        for k in tile..lanes {
            let v0r = s0r[k];
            let v0i = s0i[k];
            let v1r = s1r[k];
            let v1i = s1i[k];
            let v2r = s2r[k];
            let v2i = s2i[k];
            let v3r = s3r[k];
            let v3i = s3i[k];
            // Same row expressions as `kern_2q_general`, per-lane entries.
            s0r[k] = (((wp[0][k] * v0r - wp[1][k] * v0i) + (wp[2][k] * v1r - wp[3][k] * v1i))
                + (wp[4][k] * v2r - wp[5][k] * v2i))
                + (wp[6][k] * v3r - wp[7][k] * v3i);
            s0i[k] = (((wp[0][k] * v0i + wp[1][k] * v0r) + (wp[2][k] * v1i + wp[3][k] * v1r))
                + (wp[4][k] * v2i + wp[5][k] * v2r))
                + (wp[6][k] * v3i + wp[7][k] * v3r);
            s1r[k] = (((wp[8][k] * v0r - wp[9][k] * v0i) + (wp[10][k] * v1r - wp[11][k] * v1i))
                + (wp[12][k] * v2r - wp[13][k] * v2i))
                + (wp[14][k] * v3r - wp[15][k] * v3i);
            s1i[k] = (((wp[8][k] * v0i + wp[9][k] * v0r) + (wp[10][k] * v1i + wp[11][k] * v1r))
                + (wp[12][k] * v2i + wp[13][k] * v2r))
                + (wp[14][k] * v3i + wp[15][k] * v3r);
            s2r[k] = (((wp[16][k] * v0r - wp[17][k] * v0i) + (wp[18][k] * v1r - wp[19][k] * v1i))
                + (wp[20][k] * v2r - wp[21][k] * v2i))
                + (wp[22][k] * v3r - wp[23][k] * v3i);
            s2i[k] = (((wp[16][k] * v0i + wp[17][k] * v0r) + (wp[18][k] * v1i + wp[19][k] * v1r))
                + (wp[20][k] * v2i + wp[21][k] * v2r))
                + (wp[22][k] * v3i + wp[23][k] * v3r);
            s3r[k] = (((wp[24][k] * v0r - wp[25][k] * v0i) + (wp[26][k] * v1r - wp[27][k] * v1i))
                + (wp[28][k] * v2r - wp[29][k] * v2i))
                + (wp[30][k] * v3r - wp[31][k] * v3i);
            s3i[k] = (((wp[24][k] * v0i + wp[25][k] * v0r) + (wp[26][k] * v1i + wp[27][k] * v1r))
                + (wp[28][k] * v2i + wp[29][k] * v2r))
                + (wp[30][k] * v3i + wp[31][k] * v3r);
        }
    }
}

/// Splits two disjoint `run`-length slices out of `buf` at `start` and
/// `start + gap`; the 2q walk guarantees `run <= gap`.
#[inline]
fn two_runs(buf: &mut [f64], start: usize, gap: usize, run: usize) -> (&mut [f64], &mut [f64]) {
    let seg = &mut buf[start..start + gap + run];
    let (p0, p1) = seg.split_at_mut(gap);
    (&mut p0[..run], &mut p1[..run])
}

/// Splits four disjoint `run`-length slices out of `buf` at offsets `0 <
/// o1 < o2 < o3` from `e`; the 2q walk guarantees `run <= o1` and every
/// gap between consecutive offsets is at least `run`.
#[inline]
fn four_runs(
    buf: &mut [f64],
    e: usize,
    o1: usize,
    o2: usize,
    o3: usize,
    run: usize,
) -> (&mut [f64], &mut [f64], &mut [f64], &mut [f64]) {
    let seg = &mut buf[e..e + o3 + run];
    let (p0, rest) = seg.split_at_mut(o1);
    let (p1, rest) = rest.split_at_mut(o2 - o1);
    let (p2, p3) = rest.split_at_mut(o3 - o2);
    (
        &mut p0[..run],
        &mut p1[..run],
        &mut p2[..run],
        &mut p3[..run],
    )
}

/// Structure class of a 2×2 matrix, mirroring the dispatch predicates of
/// [`StateVec::apply_1q`] / [`StateBatch::lane_apply_1q`] exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mat2Class {
    Identity,
    Diag,
    Antidiag,
    General,
}

fn mat2_class(m: &Mat2) -> Mat2Class {
    let [m00, m01, m10, m11] = m.m;
    if m01 == C64::ZERO && m10 == C64::ZERO {
        if m00 == C64::ONE && m11 == C64::ONE {
            Mat2Class::Identity
        } else {
            Mat2Class::Diag
        }
    } else if m00 == C64::ZERO && m11 == C64::ZERO {
        Mat2Class::Antidiag
    } else {
        Mat2Class::General
    }
}

/// Structure class of a 4×4 matrix, mirroring the dispatch predicates of
/// [`StateVec::apply_2q`] / [`StateBatch::lane_apply_2q`] exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mat4Class {
    Diag,
    Controlled,
    General,
}

fn mat4_class(m: &Mat4) -> Mat4Class {
    if mat4_is_diagonal(m) {
        Mat4Class::Diag
    } else if mat4_is_controlled(m) {
        Mat4Class::Controlled
    } else {
        Mat4Class::General
    }
}

/// Flattens a [`Mat2`] into `[re, im]` pairs for the planar kernels.
#[inline]
fn flat2(m: &Mat2) -> [f64; 8] {
    let [a, b, c, d] = m.m;
    [a.re, a.im, b.re, b.im, c.re, c.im, d.re, d.im]
}

/// Flattens a [`Mat4`] row-major into `[re, im]` pairs.
#[inline]
fn flat4(m: &Mat4) -> [f64; 32] {
    let mut w = [0.0; 32];
    for (j, e) in m.m.iter().enumerate() {
        w[2 * j] = e.re;
        w[2 * j + 1] = e.im;
    }
    w
}

/// `lanes` independent `n`-qubit pure states stored split-complex
/// structure-of-arrays.
///
/// Element `amp_index * lanes + lane` of the [`StateBatch::re`] /
/// [`StateBatch::im`] planes holds amplitude `amp_index` of state `lane`;
/// the bit convention per amplitude index matches [`StateVec`] (qubit `q`
/// is bit `q`, little-endian).
///
/// # Examples
///
/// ```
/// use qns_sim::StateBatch;
/// use qns_tensor::Mat2;
///
/// let mut batch = StateBatch::zero_state(2, 3);
/// batch.apply_1q(&Mat2::hadamard(), 0); // all three lanes at once
/// let s = batch.lane_state(1);
/// assert!((s.probability(0) - 0.5) .abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct StateBatch {
    n_qubits: usize,
    lanes: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl StateBatch {
    /// Creates `lanes` copies of `|0...0>`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is outside `1..=30` or `lanes` is zero.
    pub fn zero_state(n_qubits: usize, lanes: usize) -> Self {
        assert!((1..=30).contains(&n_qubits), "1..=30 qubits supported");
        assert!(lanes > 0, "need at least one lane");
        let len = (1usize << n_qubits) * lanes;
        let mut re = vec![0.0; len];
        let im = vec![0.0; len];
        for r in &mut re[..lanes] {
            *r = 1.0;
        }
        StateBatch {
            n_qubits,
            lanes,
            re,
            im,
        }
    }

    /// Number of qubits per lane.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of lanes (states) in the batch.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Borrow of the real plane (`amp_index * lanes() + lane` layout).
    #[inline]
    pub fn re(&self) -> &[f64] {
        &self.re
    }

    /// Borrow of the imaginary plane (`amp_index * lanes() + lane` layout).
    #[inline]
    pub fn im(&self) -> &[f64] {
        &self.im
    }

    /// One element of the batch as a [`C64`], `e = amp_index * lanes() +
    /// lane`. The planar replacement for indexing the old interleaved
    /// buffer; arithmetic on the loaded value is bit-identical to what the
    /// interleaved load produced.
    #[inline]
    pub fn amp(&self, e: usize) -> C64 {
        C64::new(self.re[e], self.im[e])
    }

    #[inline]
    fn set(&mut self, e: usize, v: C64) {
        self.re[e] = v.re;
        self.im[e] = v.im;
    }

    /// Resets every lane to `|0...0>` without reallocating.
    pub fn reset(&mut self) {
        for r in &mut self.re {
            *r = 0.0;
        }
        for i in &mut self.im {
            *i = 0.0;
        }
        for r in &mut self.re[..self.lanes] {
            *r = 1.0;
        }
    }

    /// Copies one lane out into a standalone [`StateVec`].
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_state(&self, lane: usize) -> StateVec {
        assert!(lane < self.lanes, "lane out of range");
        let mut s = StateVec::zero_state(self.n_qubits);
        for (i, a) in s.amplitudes_mut().iter_mut().enumerate() {
            *a = self.amp(i * self.lanes + lane);
        }
        s
    }

    /// Applies a one-qubit unitary to qubit `q` of **every** lane,
    /// dispatching to the same structure-specialized paths as
    /// [`StateVec::apply_1q`].
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_1q(&mut self, m: &Mat2, q: usize) {
        assert!(q < self.n_qubits, "qubit {} out of range", q);
        let [m00, m01, m10, m11] = m.m;
        if m01 == C64::ZERO && m10 == C64::ZERO {
            if m00 == C64::ONE && m11 == C64::ONE {
                return; // identity
            }
            self.apply_1q_diag(m00, m11, q);
        } else if m00 == C64::ZERO && m11 == C64::ZERO {
            self.apply_1q_antidiag(m01, m10, q);
        } else {
            self.apply_1q_general(m, q);
        }
    }

    multiversion_sweep!(
        /// Diagonal 1q path: each element is only scaled; the stride
        /// scales by the lane count so each half is one contiguous planar
        /// run.
        apply_1q_diag / apply_1q_diag_avx2 => apply_1q_diag_body(&mut self, d0: C64, d1: C64, q: usize)
    );

    #[inline(always)]
    fn apply_1q_diag_body(&mut self, d0: C64, d1: C64, q: usize) {
        let stride = (1usize << q) * self.lanes;
        for (rc, ic) in self
            .re
            .chunks_exact_mut(stride << 1)
            .zip(self.im.chunks_exact_mut(stride << 1))
        {
            let (lo_r, hi_r) = rc.split_at_mut(stride);
            let (lo_i, hi_i) = ic.split_at_mut(stride);
            kern_scale(lo_r, lo_i, d0.re, d0.im);
            kern_scale(hi_r, hi_i, d1.re, d1.im);
        }
    }

    multiversion_sweep!(
        /// Anti-diagonal 1q path (X-like): swap halves with a scale.
        apply_1q_antidiag / apply_1q_antidiag_avx2 => apply_1q_antidiag_body(&mut self, a01: C64, a10: C64, q: usize)
    );

    #[inline(always)]
    fn apply_1q_antidiag_body(&mut self, a01: C64, a10: C64, q: usize) {
        let stride = (1usize << q) * self.lanes;
        for (rc, ic) in self
            .re
            .chunks_exact_mut(stride << 1)
            .zip(self.im.chunks_exact_mut(stride << 1))
        {
            let (lo_r, hi_r) = rc.split_at_mut(stride);
            let (lo_i, hi_i) = ic.split_at_mut(stride);
            kern_antidiag(lo_r, lo_i, hi_r, hi_i, a01, a10);
        }
    }

    multiversion_sweep!(
        /// General 1q path: the split-borrow pairing of [`StateVec`] with
        /// the pair stride scaled by the lane count — inner runs are `≥
        /// lanes` contiguous planar elements handed to the tiled
        /// micro-kernel.
        apply_1q_general / apply_1q_general_avx2 => apply_1q_general_body(&mut self, m: &Mat2, q: usize)
    );

    #[inline(always)]
    fn apply_1q_general_body(&mut self, m: &Mat2, q: usize) {
        let stride = (1usize << q) * self.lanes;
        let w = flat2(m);
        for (rc, ic) in self
            .re
            .chunks_exact_mut(stride << 1)
            .zip(self.im.chunks_exact_mut(stride << 1))
        {
            let (lo_r, hi_r) = rc.split_at_mut(stride);
            let (lo_i, hi_i) = ic.split_at_mut(stride);
            kern_1q_general(lo_r, lo_i, hi_r, hi_i, &w);
        }
    }

    /// Applies one matrix **per lane** to qubit `q` in a single sweep.
    ///
    /// When every matrix falls in the same structure class (the common
    /// case: a batch of input-encoder rotations over different features),
    /// the sweep runs a planar kernel whose matrix entries are themselves
    /// transposed per-lane arrays, so the lane loop vectorizes like the
    /// shared-gate kernels. Mixed-class batches (e.g. one feature exactly
    /// zero turning its rotation into the identity) fall back to the
    /// per-lane dispatch, which keeps every lane bit-identical to
    /// [`StateBatch::lane_apply_1q`] — and therefore to the single-state
    /// [`StateVec`] run — in all cases.
    ///
    /// # Panics
    ///
    /// Panics if `ms.len() != lanes()` or `q` is out of range.
    pub fn apply_1q_per_lane(&mut self, ms: &[Mat2], q: usize) {
        assert_eq!(ms.len(), self.lanes, "one matrix per lane");
        assert!(q < self.n_qubits, "qubit {} out of range", q);
        let class = mat2_class(&ms[0]);
        if ms.iter().any(|m| mat2_class(m) != class) {
            for (lane, m) in ms.iter().enumerate() {
                self.lane_apply_1q(lane, m, q);
            }
            return;
        }
        match class {
            Mat2Class::Identity => {}
            Mat2Class::Diag => {
                let planes = Mat2Planes::new(ms);
                self.sweep_1q_perlane_diag(&planes, q);
            }
            Mat2Class::General => {
                let planes = Mat2Planes::new(ms);
                self.sweep_1q_perlane_general(&planes, q);
            }
            Mat2Class::Antidiag => {
                // Rare for encoders; the per-lane path is already exact.
                for (lane, m) in ms.iter().enumerate() {
                    self.lane_apply_1q(lane, m, q);
                }
            }
        }
    }

    multiversion_sweep!(
        sweep_1q_perlane_diag / sweep_1q_perlane_diag_avx2 => sweep_1q_perlane_diag_body(&mut self, planes: &Mat2Planes, q: usize)
    );

    #[inline(always)]
    fn sweep_1q_perlane_diag_body(&mut self, planes: &Mat2Planes, q: usize) {
        let stride = (1usize << q) * self.lanes;
        for (rc, ic) in self
            .re
            .chunks_exact_mut(stride << 1)
            .zip(self.im.chunks_exact_mut(stride << 1))
        {
            let (lo_r, hi_r) = rc.split_at_mut(stride);
            let (lo_i, hi_i) = ic.split_at_mut(stride);
            kern_1q_perlane_diag(lo_r, lo_i, hi_r, hi_i, planes);
        }
    }

    multiversion_sweep!(
        sweep_1q_perlane_general / sweep_1q_perlane_general_avx2 => sweep_1q_perlane_general_body(&mut self, planes: &Mat2Planes, q: usize)
    );

    #[inline(always)]
    fn sweep_1q_perlane_general_body(&mut self, planes: &Mat2Planes, q: usize) {
        let stride = (1usize << q) * self.lanes;
        for (rc, ic) in self
            .re
            .chunks_exact_mut(stride << 1)
            .zip(self.im.chunks_exact_mut(stride << 1))
        {
            let (lo_r, hi_r) = rc.split_at_mut(stride);
            let (lo_i, hi_i) = ic.split_at_mut(stride);
            kern_1q_perlane_general(lo_r, lo_i, hi_r, hi_i, planes);
        }
    }

    /// Applies a two-qubit unitary to every lane; `qa` is the high bit as in
    /// [`Mat4`]. Same structure dispatch as [`StateVec::apply_2q`].
    ///
    /// # Panics
    ///
    /// Panics if the qubits coincide or are out of range.
    pub fn apply_2q(&mut self, m: &Mat4, qa: usize, qb: usize) {
        assert!(
            qa < self.n_qubits && qb < self.n_qubits,
            "qubit out of range"
        );
        assert_ne!(qa, qb, "two-qubit gate needs distinct qubits");
        if mat4_is_diagonal(m) {
            self.apply_2q_diag(m, qa, qb);
        } else if mat4_is_controlled(m) {
            let sub = Mat2::new([m.m[10], m.m[11], m.m[14], m.m[15]]);
            self.apply_2q_controlled(&sub, qa, qb);
        } else {
            self.apply_2q_general(m, qa, qb);
        }
    }

    multiversion_sweep!(
        /// Diagonal 2q path. The base-index walk runs in *element* space:
        /// every argument of the blocked loop scales by the lane count,
        /// which enumerates exactly the elements `amp_base * lanes +
        /// lane`; offsets add (not OR) because scaled bit offsets need
        /// carry-free addition. Each quadrant run is one contiguous planar
        /// scale.
        apply_2q_diag / apply_2q_diag_avx2 => apply_2q_diag_core(&mut self, m: &Mat4, qa: usize, qb: usize)
    );

    #[inline(always)]
    fn apply_2q_diag_core(&mut self, m: &Mat4, qa: usize, qb: usize) {
        let (d00, d01, d10, d11) = (m.m[0], m.m[5], m.m[10], m.m[15]);
        if d00 == C64::ONE && d01 == C64::ONE && d10 == C64::ONE && d11 == C64::ONE {
            return; // identity
        }
        let ba = (1usize << qa) * self.lanes;
        let bb = (1usize << qb) * self.lanes;
        let run = ba.min(bb);
        let re = &mut self.re[..];
        let im = &mut self.im[..];
        for_2q_runs!(re.len(), ba, bb, |e| {
            for (off, d) in [(0, d00), (bb, d01), (ba, d10), (ba + bb, d11)] {
                let s = e + off;
                kern_scale(&mut re[s..s + run], &mut im[s..s + run], d.re, d.im);
            }
        });
    }

    multiversion_sweep!(
        /// Controlled-form 2q path: only the control-set half is touched;
        /// the two touched quadrant runs form a 1q-general-shaped pair.
        apply_2q_controlled / apply_2q_controlled_avx2 => apply_2q_controlled_body(&mut self, sub: &Mat2, qa: usize, qb: usize)
    );

    #[inline(always)]
    fn apply_2q_controlled_body(&mut self, sub: &Mat2, qa: usize, qb: usize) {
        let ba = (1usize << qa) * self.lanes;
        let bb = (1usize << qb) * self.lanes;
        let run = ba.min(bb);
        let w = flat2(sub);
        let re = &mut self.re[..];
        let im = &mut self.im[..];
        for_2q_runs!(re.len(), ba, bb, |e| {
            let (lo_r, hi_r) = two_runs(re, e + ba, bb, run);
            let (lo_i, hi_i) = two_runs(im, e + ba, bb, run);
            kern_1q_general(lo_r, lo_i, hi_r, hi_i, &w);
        });
    }

    multiversion_sweep!(
        /// General 2q path: blocked quadruple update, one micro-kernel
        /// call per base run over the four quadrant slices.
        apply_2q_general / apply_2q_general_avx2 => apply_2q_general_body(&mut self, m: &Mat4, qa: usize, qb: usize)
    );

    #[inline(always)]
    fn apply_2q_general_body(&mut self, m: &Mat4, qa: usize, qb: usize) {
        let ba = (1usize << qa) * self.lanes;
        let bb = (1usize << qb) * self.lanes;
        let w = flat4(m);
        let (omin, omax) = if ba < bb { (ba, bb) } else { (bb, ba) };
        let run = omin;
        let re = &mut self.re[..];
        let im = &mut self.im[..];
        for_2q_runs!(re.len(), ba, bb, |e| {
            let (r0, rx, ry, r3) = four_runs(re, e, omin, omax, omin + omax, run);
            let (i0, ix, iy, i3) = four_runs(im, e, omin, omax, omin + omax, run);
            // The run at offset min(ba, bb) is the `bb` quadrant (v1) when
            // bb < ba, else the `ba` quadrant (v2).
            let (r1, r2, i1, i2) = if bb < ba {
                (rx, ry, ix, iy)
            } else {
                (ry, rx, iy, ix)
            };
            kern_2q_general([r0, r1, r2, r3], [i0, i1, i2, i3], &w);
        });
    }

    /// Applies one two-qubit unitary **per lane** in a single sweep; `qa`
    /// is the high bit as in [`Mat4`].
    ///
    /// Fused plans routinely absorb the whole 1q layer into adjacent 2q
    /// steps, so input-dependent steps usually arrive here as a batch of
    /// per-lane `Mat4`s. When every matrix falls in the same structure
    /// class, the sweep runs the planar quadrant walk once with per-lane
    /// entry planes (General), or the 1q-shaped control-pair kernel over
    /// per-lane subblocks (Controlled), instead of one strided walk per
    /// lane. Diagonal or mixed-class batches fall back to
    /// [`StateBatch::lane_apply_2q`] per lane. Every lane is bit-identical
    /// to the per-lane dispatch — and therefore to a single-state
    /// [`StateVec`] run — in all cases.
    ///
    /// # Panics
    ///
    /// Panics if `ms.len() != lanes()`, the qubits coincide, or either
    /// qubit is out of range.
    pub fn apply_2q_per_lane(&mut self, ms: &[Mat4], qa: usize, qb: usize) {
        assert_eq!(ms.len(), self.lanes, "one matrix per lane");
        assert!(
            qa < self.n_qubits && qb < self.n_qubits,
            "qubit out of range"
        );
        assert_ne!(qa, qb, "two-qubit gate needs distinct qubits");
        let class = mat4_class(&ms[0]);
        if ms.iter().any(|m| mat4_class(m) != class) || class == Mat4Class::Diag {
            for (lane, m) in ms.iter().enumerate() {
                self.lane_apply_2q(lane, m, qa, qb);
            }
            return;
        }
        match class {
            Mat4Class::Diag => unreachable!("handled by the fallback above"),
            Mat4Class::Controlled => {
                // Per-lane control subblocks; same arithmetic shape as the
                // shared-gate controlled path, entries per lane.
                let subs: Vec<Mat2> = ms
                    .iter()
                    .map(|m| Mat2::new([m.m[10], m.m[11], m.m[14], m.m[15]]))
                    .collect();
                let planes = Mat2Planes::new(&subs);
                self.sweep_2q_perlane_controlled(&planes, qa, qb);
            }
            Mat4Class::General => {
                // 32 entry planes, `w[j * lanes + lane]` = entry j, lane l.
                let lanes = self.lanes;
                let mut w = vec![0.0; 32 * lanes];
                for (lane, m) in ms.iter().enumerate() {
                    for (j, v) in flat4(m).into_iter().enumerate() {
                        w[j * lanes + lane] = v;
                    }
                }
                self.sweep_2q_perlane_general(&w, qa, qb);
            }
        }
    }

    multiversion_sweep!(
        sweep_2q_perlane_controlled / sweep_2q_perlane_controlled_avx2 => sweep_2q_perlane_controlled_body(&mut self, planes: &Mat2Planes, qa: usize, qb: usize)
    );

    #[inline(always)]
    fn sweep_2q_perlane_controlled_body(&mut self, planes: &Mat2Planes, qa: usize, qb: usize) {
        let ba = (1usize << qa) * self.lanes;
        let bb = (1usize << qb) * self.lanes;
        let run = ba.min(bb);
        let re = &mut self.re[..];
        let im = &mut self.im[..];
        for_2q_runs!(re.len(), ba, bb, |e| {
            let (lo_r, hi_r) = two_runs(re, e + ba, bb, run);
            let (lo_i, hi_i) = two_runs(im, e + ba, bb, run);
            kern_1q_perlane_general(lo_r, lo_i, hi_r, hi_i, planes);
        });
    }

    multiversion_sweep!(
        sweep_2q_perlane_general / sweep_2q_perlane_general_avx2 => sweep_2q_perlane_general_body(&mut self, w: &[f64], qa: usize, qb: usize)
    );

    #[inline(always)]
    fn sweep_2q_perlane_general_body(&mut self, w: &[f64], qa: usize, qb: usize) {
        let lanes = self.lanes;
        let ba = (1usize << qa) * lanes;
        let bb = (1usize << qb) * lanes;
        let (omin, omax) = if ba < bb { (ba, bb) } else { (bb, ba) };
        let run = omin;
        let re = &mut self.re[..];
        let im = &mut self.im[..];
        for_2q_runs!(re.len(), ba, bb, |e| {
            let (r0, rx, ry, r3) = four_runs(re, e, omin, omax, omin + omax, run);
            let (i0, ix, iy, i3) = four_runs(im, e, omin, omax, omin + omax, run);
            let (r1, r2, i1, i2) = if bb < ba {
                (rx, ry, ix, iy)
            } else {
                (ry, rx, iy, ix)
            };
            kern_2q_perlane_general([r0, r1, r2, r3], [i0, i1, i2, i3], w, lanes);
        });
    }

    /// Applies a one-qubit unitary to qubit `q` of **one** lane, leaving
    /// every other lane untouched. Used for per-sample input-encoding
    /// blocks and per-trajectory Kraus operators. Same structure dispatch
    /// and per-pair arithmetic as [`StateVec::apply_1q`].
    ///
    /// # Panics
    ///
    /// Panics if `q` or `lane` is out of range.
    pub fn lane_apply_1q(&mut self, lane: usize, m: &Mat2, q: usize) {
        assert!(q < self.n_qubits, "qubit {} out of range", q);
        assert!(lane < self.lanes, "lane out of range");
        let [m00, m01, m10, m11] = m.m;
        if m01 == C64::ZERO && m10 == C64::ZERO {
            if m00 == C64::ONE && m11 == C64::ONE {
                return; // identity
            }
            self.lane_1q_pairs(lane, q, |x0, x1| (m00 * x0, m11 * x1));
        } else if m00 == C64::ZERO && m11 == C64::ZERO {
            self.lane_1q_pairs(lane, q, |x0, x1| (m01 * x1, m10 * x0));
        } else {
            self.lane_1q_pairs(lane, q, |x0, x1| (m00 * x0 + m01 * x1, m10 * x0 + m11 * x1));
        }
    }

    /// Visits every `(i, i + 2^q)` amplitude pair of one lane in ascending
    /// base order, storing back whatever `f` returns for the pair.
    #[inline]
    fn lane_1q_pairs(&mut self, lane: usize, q: usize, f: impl Fn(C64, C64) -> (C64, C64)) {
        let l = self.lanes;
        let stride = 1usize << q;
        let len = 1usize << self.n_qubits;
        let mut base = 0;
        while base < len {
            for i in base..base + stride {
                let e0 = i * l + lane;
                let e1 = (i + stride) * l + lane;
                let (y0, y1) = f(self.amp(e0), self.amp(e1));
                self.set(e0, y0);
                self.set(e1, y1);
            }
            base += stride << 1;
        }
    }

    /// Applies a two-qubit unitary to one lane (`qa` = high bit), with the
    /// same dispatch as [`StateVec::apply_2q`].
    ///
    /// # Panics
    ///
    /// Panics if the qubits coincide or anything is out of range.
    pub fn lane_apply_2q(&mut self, lane: usize, m: &Mat4, qa: usize, qb: usize) {
        assert!(
            qa < self.n_qubits && qb < self.n_qubits,
            "qubit out of range"
        );
        assert_ne!(qa, qb, "two-qubit gate needs distinct qubits");
        assert!(lane < self.lanes, "lane out of range");
        let l = self.lanes;
        let ba = 1usize << qa;
        let bb = 1usize << qb;
        let len = 1usize << self.n_qubits;
        if mat4_is_diagonal(m) {
            let (d00, d01, d10, d11) = (m.m[0], m.m[5], m.m[10], m.m[15]);
            if d00 == C64::ONE && d01 == C64::ONE && d10 == C64::ONE && d11 == C64::ONE {
                return; // identity
            }
            for_each_2q_base(len, ba, bb, |i| {
                let e00 = i * l + lane;
                let e01 = (i | bb) * l + lane;
                let e10 = (i | ba) * l + lane;
                let e11 = (i | ba | bb) * l + lane;
                self.set(e00, d00 * self.amp(e00));
                self.set(e01, d01 * self.amp(e01));
                self.set(e10, d10 * self.amp(e10));
                self.set(e11, d11 * self.amp(e11));
            });
        } else if mat4_is_controlled(m) {
            let [s00, s01, s10, s11] = [m.m[10], m.m[11], m.m[14], m.m[15]];
            for_each_2q_base(len, ba, bb, |i| {
                let e10 = (i | ba) * l + lane;
                let e11 = (i | ba | bb) * l + lane;
                let x0 = self.amp(e10);
                let x1 = self.amp(e11);
                self.set(e10, s00 * x0 + s01 * x1);
                self.set(e11, s10 * x0 + s11 * x1);
            });
        } else {
            let w = &m.m;
            for_each_2q_base(len, ba, bb, |i| {
                let e00 = i * l + lane;
                let e01 = (i | bb) * l + lane;
                let e10 = (i | ba) * l + lane;
                let e11 = (i | ba | bb) * l + lane;
                let v0 = self.amp(e00);
                let v1 = self.amp(e01);
                let v2 = self.amp(e10);
                let v3 = self.amp(e11);
                self.set(e00, w[0] * v0 + w[1] * v1 + w[2] * v2 + w[3] * v3);
                self.set(e01, w[4] * v0 + w[5] * v1 + w[6] * v2 + w[7] * v3);
                self.set(e10, w[8] * v0 + w[9] * v1 + w[10] * v2 + w[11] * v3);
                self.set(e11, w[12] * v0 + w[13] * v1 + w[14] * v2 + w[15] * v3);
            });
        }
    }

    /// Per-lane Pauli-Z expectations: `out[lane][q]`, each lane matching
    /// [`StateVec::expect_z_all`] bit-for-bit.
    pub fn expect_z_all_lanes(&self) -> Vec<Vec<f64>> {
        let n = self.n_qubits;
        let l = self.lanes;
        let mut out = vec![vec![0.0; n]; l];
        for i in 0..(1usize << n) {
            let rr = &self.re[i * l..(i + 1) * l];
            let ri = &self.im[i * l..(i + 1) * l];
            for lane in 0..l {
                let p = rr[lane] * rr[lane] + ri[lane] * ri[lane];
                for (q, eq) in out[lane].iter_mut().enumerate() {
                    if i & (1 << q) == 0 {
                        *eq += p;
                    } else {
                        *eq -= p;
                    }
                }
            }
        }
        out
    }

    /// `||K ψ||²` of the one-qubit operator `k` on qubit `q` for every lane,
    /// into `out[lane]`: the Born probability of a Kraus operator, in one
    /// lanes-contiguous sweep. Each lane sums over the amplitude pairs `(i,
    /// i + 2^q)` in ascending base order, row 0 before row 1, with [`C64`]'s
    /// operation order, so `out[lane]` is bit-identical to the same walk
    /// over that lane's standalone [`StateVec`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != lanes()` or `q` is out of range.
    pub fn kraus_probs(&self, k: &Mat2, q: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.lanes, "one probability per lane");
        assert!(q < self.n_qubits, "qubit {} out of range", q);
        out.fill(0.0);
        self.sweep_kraus_probs(k, q, out);
    }

    multiversion_sweep!(
        sweep_kraus_probs / sweep_kraus_probs_avx2 => kraus_probs_body(&self, k: &Mat2, q: usize, out: &mut [f64])
    );

    #[inline(always)]
    fn kraus_probs_body(&self, k: &Mat2, q: usize, out: &mut [f64]) {
        let l = self.lanes;
        let stride = (1usize << q) * l;
        let [m00, m01, m10, m11] = k.m;
        for (rc, ic) in self
            .re
            .chunks_exact(stride << 1)
            .zip(self.im.chunks_exact(stride << 1))
        {
            let (lo_r, hi_r) = rc.split_at(stride);
            let (lo_i, hi_i) = ic.split_at(stride);
            let rows = lo_r
                .chunks_exact(l)
                .zip(lo_i.chunks_exact(l))
                .zip(hi_r.chunks_exact(l).zip(hi_i.chunks_exact(l)));
            for ((r0, i0), (r1, i1)) in rows {
                let pairs = r0.iter().zip(i0).zip(r1.iter().zip(i1));
                for (a, ((&r0, &i0), (&r1, &i1))) in out.iter_mut().zip(pairs) {
                    let (a0, a1) = (C64::new(r0, i0), C64::new(r1, i1));
                    *a += (m00 * a0 + m01 * a1).norm_sqr();
                    *a += (m10 * a0 + m11 * a1).norm_sqr();
                }
            }
        }
    }

    /// Renormalizes every lane in place. Per lane this is bit-identical to
    /// [`StateVec::normalize`] on that lane's state (same ascending norm
    /// accumulation, same `1/norm` scale, zero-norm lanes untouched), in
    /// two contiguous sweeps per group of [`LANE_CHUNK`] lanes, whose norms
    /// live in a fixed array: the step never allocates.
    pub fn normalize_lanes(&mut self) {
        self.sweep_normalize_lanes();
    }

    multiversion_sweep!(
        sweep_normalize_lanes / sweep_normalize_lanes_avx2 => normalize_lanes_body(&mut self)
    );

    #[inline(always)]
    fn normalize_lanes_body(&mut self) {
        let l = self.lanes;
        let mut start = 0;
        while start < l {
            let group = start..(start + LANE_CHUNK).min(l);
            let mut scale = [0.0; LANE_CHUNK];
            let scale = &mut scale[..group.len()];
            for (rr, ri) in self.re.chunks_exact(l).zip(self.im.chunks_exact(l)) {
                let (rr, ri) = (&rr[group.clone()], &ri[group.clone()]);
                for ((a, &r), &i) in scale.iter_mut().zip(rr).zip(ri) {
                    *a += r * r + i * i;
                }
            }
            for a in scale.iter_mut() {
                let norm = a.sqrt();
                *a = if norm > 0.0 { 1.0 / norm } else { 1.0 };
            }
            for (rr, ri) in self.re.chunks_exact_mut(l).zip(self.im.chunks_exact_mut(l)) {
                let (rr, ri) = (&mut rr[group.clone()], &mut ri[group.clone()]);
                for ((r, i), &s) in rr.iter_mut().zip(ri.iter_mut()).zip(scale.iter()) {
                    *r *= s;
                    *i *= s;
                }
            }
            start = group.end;
        }
    }

    /// Scales every amplitude of lane `lane` by the diagonal of the
    /// weighted-Z observable with `weights[lane]` — the batched analogue of
    /// `DiagObservable::apply`, evaluated per basis index in the same
    /// ascending-qubit order.
    ///
    /// # Panics
    ///
    /// Panics if `weights` does not hold one weight vector of length
    /// `num_qubits()` per lane.
    pub fn apply_diag_weights(&mut self, weights: &[Vec<f64>]) {
        assert_eq!(weights.len(), self.lanes, "one weight vector per lane");
        for w in weights {
            assert_eq!(w.len(), self.n_qubits, "one weight per qubit");
        }
        let l = self.lanes;
        for i in 0..1usize << self.n_qubits {
            for (lane, w) in weights.iter().enumerate() {
                let mut d = 0.0;
                for (q, wq) in w.iter().enumerate() {
                    if i & (1 << q) == 0 {
                        d += wq;
                    } else {
                        d -= wq;
                    }
                }
                let e = i * l + lane;
                self.set(e, self.amp(e).scale(d));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Fixed scrambled per-lane states loaded into a batch plus standalone
    /// copies, for differential checks.
    fn scrambled(n: usize, lanes: usize, seed: u64) -> (StateBatch, Vec<StateVec>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut batch = StateBatch::zero_state(n, lanes);
        let mut singles = Vec::with_capacity(lanes);
        for lane in 0..lanes {
            let mut amps: Vec<C64> = (0..1usize << n)
                .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
            for a in &mut amps {
                *a = a.scale(1.0 / norm);
            }
            for (i, a) in amps.iter().enumerate() {
                batch.re[i * lanes + lane] = a.re;
                batch.im[i * lanes + lane] = a.im;
            }
            singles.push(StateVec::from_amplitudes(amps));
        }
        (batch, singles)
    }

    fn assert_lanes_match(batch: &StateBatch, singles: &[StateVec], label: &str) {
        for (lane, s) in singles.iter().enumerate() {
            let got = batch.lane_state(lane);
            assert_eq!(
                got.amplitudes(),
                s.amplitudes(),
                "{label}: lane {lane} diverged from its single-state run"
            );
        }
    }

    #[test]
    fn zero_state_layout() {
        let b = StateBatch::zero_state(2, 3);
        assert_eq!(b.lanes(), 3);
        for lane in 0..3 {
            let s = b.lane_state(lane);
            assert!((s.probability(0) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn shared_1q_kernels_are_bit_identical_per_lane() {
        let mats = [
            Mat2::pauli_x(),
            Mat2::pauli_z(),
            Mat2::hadamard(),
            Mat2::new([C64::ONE, C64::ZERO, C64::ZERO, C64::new(0.0, 1.0)]),
        ];
        for lanes in [1, 3, 8, 32] {
            for (mi, m) in mats.iter().enumerate() {
                for q in 0..3 {
                    let (mut batch, mut singles) = scrambled(3, lanes, 7 + mi as u64);
                    batch.apply_1q(m, q);
                    for s in &mut singles {
                        s.apply_1q(m, q);
                    }
                    assert_lanes_match(&batch, &singles, "shared 1q");
                }
            }
        }
    }

    #[test]
    fn shared_2q_kernels_are_bit_identical_per_lane() {
        let h2 = Mat2::hadamard().kron(&Mat2::hadamard());
        let cx = Mat4::controlled(&Mat2::pauli_x());
        let cz = Mat4::controlled(&Mat2::pauli_z());
        let general = h2.mul_mat(&cx).mul_mat(&h2);
        for lanes in [1, 3, 8, 32] {
            for (mi, m) in [cx, cz, general].iter().enumerate() {
                for qa in 0..3 {
                    for qb in 0..3 {
                        if qa == qb {
                            continue;
                        }
                        let (mut batch, mut singles) = scrambled(3, lanes, 31 + mi as u64);
                        batch.apply_2q(m, qa, qb);
                        for s in &mut singles {
                            s.apply_2q(m, qa, qb);
                        }
                        assert_lanes_match(&batch, &singles, "shared 2q");
                    }
                }
            }
        }
    }

    #[test]
    fn lane_kernels_touch_only_their_lane() {
        let (mut batch, mut singles) = scrambled(3, 5, 99);
        batch.lane_apply_1q(2, &Mat2::hadamard(), 1);
        singles[2].apply_1q(&Mat2::hadamard(), 1);
        batch.lane_apply_2q(4, &Mat4::controlled(&Mat2::pauli_x()), 0, 2);
        singles[4].apply_2q(&Mat4::controlled(&Mat2::pauli_x()), 0, 2);
        assert_lanes_match(&batch, &singles, "lane kernels");
    }

    #[test]
    fn lane_2q_structures_match_single_state() {
        let h2 = Mat2::hadamard().kron(&Mat2::hadamard());
        let cx = Mat4::controlled(&Mat2::pauli_x());
        let cz = Mat4::controlled(&Mat2::pauli_z());
        let general = h2.mul_mat(&cx).mul_mat(&h2);
        for m in [cx, cz, general] {
            let (mut batch, mut singles) = scrambled(4, 3, 5);
            batch.lane_apply_2q(1, &m, 3, 1);
            singles[1].apply_2q(&m, 3, 1);
            assert_lanes_match(&batch, &singles, "lane 2q structure");
        }
    }

    /// RY-shaped rotation (real general 2×2).
    fn ry(theta: f64) -> Mat2 {
        let (s, c) = ((theta / 2.0).sin(), (theta / 2.0).cos());
        Mat2::new([C64::real(c), C64::real(-s), C64::real(s), C64::real(c)])
    }

    /// RZ-shaped rotation (diagonal 2×2).
    fn rz(theta: f64) -> Mat2 {
        let h = theta / 2.0;
        Mat2::new([
            C64::new(h.cos(), -h.sin()),
            C64::ZERO,
            C64::ZERO,
            C64::new(h.cos(), h.sin()),
        ])
    }

    #[test]
    fn per_lane_matrix_sweep_matches_lane_dispatch() {
        let mut rng = StdRng::seed_from_u64(77);
        // Uniform general class (rotations with nonzero angles), uniform
        // diagonal class (RZ-like), and a mixed batch with an identity
        // lane that must take the fallback path.
        let general: Vec<Mat2> = (0..6).map(|_| ry(rng.gen_range(0.1..3.0))).collect();
        let diag: Vec<Mat2> = (0..6).map(|_| rz(rng.gen_range(0.1..3.0))).collect();
        let mut mixed = general.clone();
        mixed[3] = Mat2::identity();
        for (label, ms) in [("general", &general), ("diag", &diag), ("mixed", &mixed)] {
            for q in 0..3 {
                let (mut fast, _) = scrambled(3, 6, 123);
                let mut slow = fast.clone();
                fast.apply_1q_per_lane(ms, q);
                for (lane, m) in ms.iter().enumerate() {
                    slow.lane_apply_1q(lane, m, q);
                }
                assert_eq!(fast, slow, "{label} q{q}: per-lane sweep diverged");
            }
        }
    }

    #[test]
    fn batched_lane_norms_match_per_lane() {
        for lanes in [3, 16, 33] {
            let (mut batch, mut singles) = scrambled(4, lanes, 77);
            // Break the norm of one lane, as a kept Kraus operator does.
            let scaled = Mat2::hadamard().scale(C64::real(1.7));
            batch.lane_apply_1q(1, &scaled, 2);
            singles[1].apply_1q(&scaled, 2);
            batch.normalize_lanes();
            for s in &mut singles {
                s.normalize();
            }
            assert_lanes_match(&batch, &singles, &format!("{lanes} lanes normalized"));
        }
    }

    #[test]
    fn kraus_probs_match_the_single_state_walk() {
        // `||K ψ||²` over one standalone state, pairs in ascending base
        // order, row 0 before row 1.
        let single = |s: &StateVec, k: &Mat2, q: usize| {
            let (amps, stride) = (s.amplitudes(), 1usize << q);
            let [m00, m01, m10, m11] = k.m;
            let mut acc = 0.0;
            for base in (0..amps.len()).step_by(stride << 1) {
                for i in base..base + stride {
                    let (a0, a1) = (amps[i], amps[i + stride]);
                    acc += (m00 * a0 + m01 * a1).norm_sqr();
                    acc += (m10 * a0 + m11 * a1).norm_sqr();
                }
            }
            acc
        };
        let diag = Mat2::new([
            C64::new(0.9, 0.1),
            C64::ZERO,
            C64::ZERO,
            C64::new(0.3, -0.2),
        ]);
        for lanes in [3, 16, 33] {
            let (batch, singles) = scrambled(4, lanes, 55);
            for k in [diag, ry(0.7), Mat2::hadamard()] {
                for q in 0..4 {
                    let mut out = vec![0.0; lanes];
                    batch.kraus_probs(&k, q, &mut out);
                    let want: Vec<f64> = singles.iter().map(|s| single(s, &k, q)).collect();
                    assert_eq!(out, want, "{lanes} lanes, q {q}");
                }
            }
        }
    }

    #[test]
    fn per_lane_2q_sweep_matches_lane_dispatch() {
        let mut rng = StdRng::seed_from_u64(78);
        // Lane counts straddle the tile width: tail-only, exactly one
        // tile, and tiles plus tail.
        for lanes in [6usize, 16, 37] {
            let general: Vec<Mat4> = (0..lanes)
                .map(|_| ry(rng.gen_range(0.1..3.0)).kron(&ry(rng.gen_range(0.1..3.0))))
                .collect();
            let controlled: Vec<Mat4> = (0..lanes)
                .map(|_| Mat4::controlled(&ry(rng.gen_range(0.1..3.0))))
                .collect();
            let diag: Vec<Mat4> = (0..lanes)
                .map(|_| rz(rng.gen_range(0.1..3.0)).kron(&rz(rng.gen_range(0.1..3.0))))
                .collect();
            let mut mixed = general.clone();
            mixed[lanes / 2] = Mat4::controlled(&ry(0.4));
            for (label, ms) in [
                ("general", &general),
                ("controlled", &controlled),
                ("diag", &diag),
                ("mixed", &mixed),
            ] {
                for (qa, qb) in [(0usize, 2usize), (2, 0), (1, 2)] {
                    let (mut fast, _) = scrambled(3, lanes, 321);
                    let mut slow = fast.clone();
                    fast.apply_2q_per_lane(ms, qa, qb);
                    for (lane, m) in ms.iter().enumerate() {
                        slow.lane_apply_2q(lane, m, qa, qb);
                    }
                    assert_eq!(
                        fast, slow,
                        "{label} lanes={lanes} q=({qa},{qb}): per-lane 2q sweep diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn expect_z_all_lanes_matches_single_state() {
        let (mut batch, mut singles) = scrambled(3, 4, 12);
        batch.apply_1q(&Mat2::hadamard(), 0);
        for s in &mut singles {
            s.apply_1q(&Mat2::hadamard(), 0);
        }
        let ez = batch.expect_z_all_lanes();
        for (lane, s) in singles.iter().enumerate() {
            assert_eq!(ez[lane], s.expect_z_all(), "lane {lane}");
        }
    }

    #[test]
    fn apply_diag_weights_matches_diag_observable() {
        use crate::{DiagObservable, Observable as _};
        let (mut batch, singles) = scrambled(3, 2, 4);
        let weights = vec![vec![0.3, -0.9, 1.1], vec![-0.5, 0.2, 0.7]];
        batch.apply_diag_weights(&weights);
        for (lane, s) in singles.iter().enumerate() {
            let obs = DiagObservable::new(weights[lane].clone());
            let expected = obs.apply(s);
            assert_eq!(
                batch.lane_state(lane).amplitudes(),
                expected.amplitudes(),
                "lane {lane}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "lane out of range")]
    fn lane_out_of_range_panics() {
        let mut b = StateBatch::zero_state(1, 2);
        b.lane_apply_1q(2, &Mat2::pauli_x(), 0);
    }
}
