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
//! A step whose matrix differs across the batch (an input-encoder gate
//! whose angles come from per-sample features) takes one matrix per lane
//! and has two forms. When every lane's matrix is in one structure class,
//! [`StateBatch::apply_1q_per_lane`] / [`StateBatch::apply_2q_per_lane`]
//! sweep all lanes in one pass with the matrix entries themselves
//! transposed into planar per-lane arrays. Otherwise each lane takes its
//! own [`StateVec`] step: [`StateBatch::lane_state`] copies it out, the
//! single-state kernel applies the matrix, and [`StateBatch::set_lane`]
//! writes it back. The single state is the oracle every batch kernel is
//! tested against, so that form mirrors nothing.
//!
//! A Kraus channel step on lanes that keep a diagonal leading operator is
//! two sweeps: [`StateBatch::kraus_prob_and_norm`] reads each lane's Born
//! probability and the squared norm the kept state will have, and
//! [`StateBatch::apply_1q_diag_normalized`] applies the operator and the
//! renormalization together. Both walk lane groups of at most
//! [`LANE_CHUNK`] lanes, compiled once per group width, so every lane loop
//! has a fixed trip count and a 3-lane fork batch costs 3 lanes' work.
//!
//! The batched adjoint gradient's own sweeps take the same group form:
//! [`StateBatch::expect_z_all_lanes`] reads every lane's per-qubit `<Z>`,
//! [`StateBatch::diag_weighted`] writes every lane's bra `D_w ψ` in one
//! pass from the forward state, and three read sweeps over two batches
//! (`self` the bra, the ket an argument) build each lane's transfer
//! matrix for one op's brackets: `transfer_1q`, `transfer_2q`, and
//! `transfer_control_block`, which sums only the control-1 block a
//! controlled gate's derivative touches. Each lane sums the same `f64`
//! terms in the same ascending order as the scalar loop it replaced,
//! which the tests keep as the bitwise oracle (the `scalar` module).
//!
//! Every kernel mirrors the structure-specialized dispatch and per-pair
//! arithmetic of [`StateVec`] exactly — each complex multiply expands to
//! the same `re*re - im*im` / `re*im + im*re` expressions in the same
//! order, and sums associate identically — so each lane of a batched run
//! is **bit-identical** to the corresponding single-state run. The
//! differential battery in `tests/sim_batch.rs` holds batched execution to
//! the sequential results bitwise across every gate template and batch
//! size.

use crate::state::{control_block, mat2_class, mat4_class, Mat2Class, Mat4Class};
use crate::StateVec;
use qns_tensor::{Mat2, Mat4, C64};
use std::ops::Range;

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

/// Calls the const-generic `$f::<W, …>` whose lane-group width `W` equals
/// `$width`, for every width `1..=`[`LANE_CHUNK`]: each width is its own
/// instantiation, so the group's lane loops have a compile-time trip
/// count whatever the batch's runtime lane count.
macro_rules! by_lane_width {
    ($width:expr, $f:ident::<_ $(, $c:tt)*>($($arg:expr),* $(,)?)) => {
        match $width {
            1 => $f::<1 $(, $c)*>($($arg),*),
            2 => $f::<2 $(, $c)*>($($arg),*),
            3 => $f::<3 $(, $c)*>($($arg),*),
            4 => $f::<4 $(, $c)*>($($arg),*),
            5 => $f::<5 $(, $c)*>($($arg),*),
            6 => $f::<6 $(, $c)*>($($arg),*),
            7 => $f::<7 $(, $c)*>($($arg),*),
            8 => $f::<8 $(, $c)*>($($arg),*),
            9 => $f::<9 $(, $c)*>($($arg),*),
            10 => $f::<10 $(, $c)*>($($arg),*),
            11 => $f::<11 $(, $c)*>($($arg),*),
            12 => $f::<12 $(, $c)*>($($arg),*),
            13 => $f::<13 $(, $c)*>($($arg),*),
            14 => $f::<14 $(, $c)*>($($arg),*),
            15 => $f::<15 $(, $c)*>($($arg),*),
            16 => $f::<16 $(, $c)*>($($arg),*),
            w => unreachable!("lane group of width {w}"),
        }
    };
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

/// Per-lane matrices transposed entry-planar into one buffer: entry `j`
/// of lane `lane`'s flattened matrix ([`flat2`] / [`flat4`] order) at
/// `w[j * lanes + lane]`, so a per-lane sweep loads each matrix entry of
/// consecutive lanes contiguously, as it loads their amplitudes.
fn entry_planes<const N: usize>(flat: impl ExactSizeIterator<Item = [f64; N]>) -> Vec<f64> {
    let lanes = flat.len();
    let mut w = vec![0.0; N * lanes];
    for (lane, entries) in flat.enumerate() {
        for (j, v) in entries.into_iter().enumerate() {
            w[j * lanes + lane] = v;
        }
    }
    w
}

/// The `N` entry planes of an [`entry_planes`] buffer, each `lanes` long.
/// Unpacked with a plain loop: `std::array::from_fn` carries a closure
/// that rustc leaves as an outlined `try_from_fn` call, which hides the
/// `chunks_exact` length facts and keeps the lane loops scalar.
#[inline(always)]
fn planes<const N: usize>(w: &[f64], lanes: usize) -> [&[f64]; N] {
    assert!(w.len() == N * lanes);
    let mut p: [&[f64]; N] = [&[]; N];
    for (j, c) in w.chunks_exact(lanes).enumerate() {
        p[j] = c;
    }
    p
}

/// General per-lane-matrix 1q kernel: like [`kern_1q_general`] but the
/// matrix entries come from the eight [`entry_planes`] of `w` — the run
/// length is always a multiple of the lane count, so each `lanes`-wide
/// span pairs position `lane` with plane entry `lane`. Spans walk via
/// `chunks_exact_mut` and the planes are resliced to `lanes`, so every
/// in-span index is bounds-provable and the loop vectorizes.
#[inline(always)]
fn kern_1q_perlane_general(
    lo_re: &mut [f64],
    lo_im: &mut [f64],
    hi_re: &mut [f64],
    hi_im: &mut [f64],
    w: &[f64],
    lanes: usize,
) {
    let n = lo_re.len();
    assert!(lo_im.len() == n && hi_re.len() == n && hi_im.len() == n && n.is_multiple_of(lanes));
    let [m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i] = planes::<8>(w, lanes);
    // Resliced here, where LLVM sees each length equal `lanes`: the lane
    // loop then needs no bounds checks (about 12% of a 4-qubit training
    // step without this).
    let (m00r, m00i, m01r, m01i) = (
        &m00r[..lanes],
        &m00i[..lanes],
        &m01r[..lanes],
        &m01i[..lanes],
    );
    let (m10r, m10i, m11r, m11i) = (
        &m10r[..lanes],
        &m10i[..lanes],
        &m11r[..lanes],
        &m11i[..lanes],
    );
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
            let (a, b) = ((m00r[lane], m00i[lane]), (m01r[lane], m01i[lane]));
            let (c, d) = ((m10r[lane], m10i[lane]), (m11r[lane], m11i[lane]));
            s0r[lane] = (a.0 * x0r - a.1 * x0i) + (b.0 * x1r - b.1 * x1i);
            s0i[lane] = (a.0 * x0i + a.1 * x0r) + (b.0 * x1i + b.1 * x1r);
            s1r[lane] = (c.0 * x0r - c.1 * x0i) + (d.0 * x1r - d.1 * x1i);
            s1i[lane] = (c.0 * x0i + c.1 * x0r) + (d.0 * x1i + d.1 * x1r);
        }
    }
}

/// Diagonal per-lane-matrix 1q kernel: `a0 = d0_lane * a0 ; a1 = d1_lane
/// * a1`, the diagonal path of [`StateVec::apply_1q`] with the entries
/// from the [`entry_planes`] of `w`.
#[inline(always)]
fn kern_1q_perlane_diag(
    lo_re: &mut [f64],
    lo_im: &mut [f64],
    hi_re: &mut [f64],
    hi_im: &mut [f64],
    w: &[f64],
    lanes: usize,
) {
    let n = lo_re.len();
    assert!(lo_im.len() == n && hi_re.len() == n && hi_im.len() == n && n.is_multiple_of(lanes));
    let [m00r, m00i, _, _, _, _, m11r, m11i] = planes::<8>(w, lanes);
    let (m00r, m00i, m11r, m11i) = (
        &m00r[..lanes],
        &m00i[..lanes],
        &m11r[..lanes],
        &m11i[..lanes],
    );
    let spans = lo_re
        .chunks_exact_mut(lanes)
        .zip(lo_im.chunks_exact_mut(lanes))
        .zip(hi_re.chunks_exact_mut(lanes))
        .zip(hi_im.chunks_exact_mut(lanes));
    for (((s0r, s0i), s1r), s1i) in spans {
        for lane in 0..lanes {
            let (d0r, d0i) = (m00r[lane], m00i[lane]);
            let (d1r, d1i) = (m11r[lane], m11i[lane]);
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
/// flattened matrix entries come from the [`entry_planes`] of `w`
/// (`w[j * lanes + lane]` holds entry `j` of lane `lane`'s matrix).
/// Quadrant runs are whole numbers of `lanes`-wide spans, walked with
/// `chunks_exact_mut` so every index is bounds-provable and the lane loop
/// vectorizes.
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
    );
    let wp = planes::<32>(w, lanes);
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

/// Lanes `start..start + W` of one `l`-lane amplitude row, as an array.
#[inline(always)]
fn lane_group<const W: usize>(row: &[f64], start: usize) -> &[f64; W] {
    row[start..start + W].try_into().expect("group within row")
}

/// Mutable variant of [`lane_group`].
#[inline(always)]
fn lane_group_mut<const W: usize>(row: &mut [f64], start: usize) -> &mut [f64; W] {
    (&mut row[start..start + W])
        .try_into()
        .expect("group within row")
}

/// `|m_a x0 + m_b x1|²` for one output row `(m_a, m_b)` of a 2×2
/// operator, every complex product, sum and square in [`C64`]'s operation
/// order (`(m_a * a0 + m_b * a1).norm_sqr()`).
#[inline(always)]
fn row_norm_sqr(ma: (f64, f64), mb: (f64, f64), x0: (f64, f64), x1: (f64, f64)) -> f64 {
    let r = (ma.0 * x0.0 - ma.1 * x0.1) + (mb.0 * x1.0 - mb.1 * x1.1);
    let i = (ma.0 * x0.1 + ma.1 * x0.0) + (mb.0 * x1.1 + mb.1 * x1.0);
    r * r + i * i
}

/// `|d x|²` for a real `d`: [`row_norm_sqr`] of a real diagonal row,
/// whose dropped terms are zeros that only the sign of a zero can tell
/// apart before squaring.
#[inline(always)]
fn scaled_norm_sqr(d: f64, x: (f64, f64)) -> f64 {
    let (r, i) = (d * x.0, d * x.1);
    r * r + i * i
}

/// The two row terms `(|(K ψ)_lo|², |(K ψ)_hi|²)` of one amplitude pair
/// under the flattened operator `m`; `REAL_DIAG` squares `m00.re·x0` and
/// `m11.re·x1` alone.
#[inline(always)]
fn pair_terms<const REAL_DIAG: bool>(m: &[f64; 8], x0: (f64, f64), x1: (f64, f64)) -> (f64, f64) {
    let [m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i] = *m;
    if REAL_DIAG {
        (scaled_norm_sqr(m00r, x0), scaled_norm_sqr(m11r, x1))
    } else {
        (
            row_norm_sqr((m00r, m00i), (m01r, m01i), x0, x1),
            row_norm_sqr((m10r, m10i), (m11r, m11i), x0, x1),
        )
    }
}

/// One lane group's share of [`StateBatch::kraus_prob_and_norm`]: lanes
/// `start..start + W` of rows `l` lanes wide, pair halves `half` elements
/// apart, `m` the flattened operator. Each pair block adds its low half
/// to the norm first, in ascending order, then walks its pairs, adding row
/// 0 and row 1 to the probability and row 1 to the norm, so each sum keeps
/// its own order.
#[inline(always)]
fn born_and_norm_group<const W: usize, const REAL_DIAG: bool>(
    (re, im): (&[f64], &[f64]),
    l: usize,
    start: usize,
    half: usize,
    m: &[f64; 8],
    probs: &mut [f64],
    norms: &mut [f64],
) {
    let (mut p, mut n) = ([0.0; W], [0.0; W]);
    for (rc, ic) in re.chunks_exact(half << 1).zip(im.chunks_exact(half << 1)) {
        let (lo_r, hi_r) = rc.split_at(half);
        let (lo_i, hi_i) = ic.split_at(half);
        let rows = lo_r
            .chunks_exact(l)
            .zip(lo_i.chunks_exact(l))
            .zip(hi_r.chunks_exact(l).zip(hi_i.chunks_exact(l)));
        for ((r0, i0), (r1, i1)) in rows.clone() {
            let (r0, i0) = (lane_group::<W>(r0, start), lane_group::<W>(i0, start));
            let (r1, i1) = (lane_group::<W>(r1, start), lane_group::<W>(i1, start));
            for k in 0..W {
                n[k] += pair_terms::<REAL_DIAG>(m, (r0[k], i0[k]), (r1[k], i1[k])).0;
            }
        }
        for ((r0, i0), (r1, i1)) in rows {
            let (r0, i0) = (lane_group::<W>(r0, start), lane_group::<W>(i0, start));
            let (r1, i1) = (lane_group::<W>(r1, start), lane_group::<W>(i1, start));
            for k in 0..W {
                let (t0, t1) = pair_terms::<REAL_DIAG>(m, (r0[k], i0[k]), (r1[k], i1[k]));
                p[k] += t0;
                p[k] += t1;
                n[k] += t1;
            }
        }
    }
    probs.copy_from_slice(&p);
    norms.copy_from_slice(&n);
}

/// One row group of [`diag_scale_group`]: `x = d x · s` lane by lane, the
/// product in [`kern_scale`]'s expression (skipped when `d` is `None`).
/// The three arrays arrive as separate references, so the lane loop packs
/// with no overlap checks.
#[inline(always)]
fn kern_diag_scale<const W: usize>(
    r: &mut [f64; W],
    i: &mut [f64; W],
    d: Option<C64>,
    s: &[f64; W],
) {
    match d {
        None => {
            for k in 0..W {
                r[k] *= s[k];
                i[k] *= s[k];
            }
        }
        Some(d) => {
            for k in 0..W {
                let (xr, xi) = (r[k], i[k]);
                r[k] = (d.re * xr - d.im * xi) * s[k];
                i[k] = (d.re * xi + d.im * xr) * s[k];
            }
        }
    }
}

/// One lane group's share of [`StateBatch::apply_1q_diag_normalized`]:
/// lanes `start..start + W` of rows `l` lanes wide, pair halves `half`
/// elements apart. Each amplitude becomes [`kern_scale`]'s product with
/// its half's diagonal entry (`None` for the identity: no product), then
/// that product times its lane's `scale`.
#[inline(always)]
fn diag_scale_group<const W: usize>(
    (re, im): (&mut [f64], &mut [f64]),
    l: usize,
    start: usize,
    half: usize,
    diag: [Option<C64>; 2],
    scale: &[f64],
) {
    let s: &[f64; W] = scale.try_into().expect("one scale per group lane");
    let [d0, d1] = diag;
    for (rc, ic) in re
        .chunks_exact_mut(half << 1)
        .zip(im.chunks_exact_mut(half << 1))
    {
        let (lo_r, hi_r) = rc.split_at_mut(half);
        let (lo_i, hi_i) = ic.split_at_mut(half);
        for (hr, hi, d) in [(lo_r, lo_i, d0), (hi_r, hi_i, d1)] {
            for (rr, ri) in hr.chunks_exact_mut(l).zip(hi.chunks_exact_mut(l)) {
                let (r, i) = (
                    lane_group_mut::<W>(rr, start),
                    lane_group_mut::<W>(ri, start),
                );
                kern_diag_scale(r, i, d, s);
            }
        }
    }
}

/// The lane groups a group sweep walks: `0..l` in consecutive ranges of
/// [`LANE_CHUNK`] lanes, the last one shorter when `l` is not a multiple.
fn lane_groups(l: usize) -> impl Iterator<Item = Range<usize>> {
    (0..l)
        .step_by(LANE_CHUNK)
        .map(move |start| start..(start + LANE_CHUNK).min(l))
}

/// A batch's two planes, read-only.
type Planes<'a> = (&'a [f64], &'a [f64]);

/// Adds one amplitude pair's four transfer terms to a lane group's sums:
/// `t[2j + k] += conj(b_j) · k_k` for the bra rows `b_0`, `b_1` and the
/// ket rows `k_0`, `k_1` whose group starts at elements `e0` and `e1`.
/// Each product expands `conj(b)`, then [`C64`]'s `Mul`, in their
/// operation order; the real and imaginary sums sit in `tr` and `ti`.
#[inline(always)]
fn transfer_pair<const W: usize>(
    (tr, ti): (&mut [[f64; W]; 4], &mut [[f64; W]; 4]),
    bra: Planes,
    ket: Planes,
    e0: usize,
    e1: usize,
) {
    let (b0r, b0i) = (lane_group::<W>(bra.0, e0), lane_group::<W>(bra.1, e0));
    let (b1r, b1i) = (lane_group::<W>(bra.0, e1), lane_group::<W>(bra.1, e1));
    let (k0r, k0i) = (lane_group::<W>(ket.0, e0), lane_group::<W>(ket.1, e0));
    let (k1r, k1i) = (lane_group::<W>(ket.0, e1), lane_group::<W>(ket.1, e1));
    for k in 0..W {
        let (c0r, c0i, c1r, c1i) = (b0r[k], -b0i[k], b1r[k], -b1i[k]);
        tr[0][k] += c0r * k0r[k] - c0i * k0i[k];
        ti[0][k] += c0r * k0i[k] + c0i * k0r[k];
        tr[1][k] += c0r * k1r[k] - c0i * k1i[k];
        ti[1][k] += c0r * k1i[k] + c0i * k1r[k];
        tr[2][k] += c1r * k0r[k] - c1i * k0i[k];
        ti[2][k] += c1r * k0i[k] + c1i * k0r[k];
        tr[3][k] += c1r * k1r[k] - c1i * k1i[k];
        ti[3][k] += c1r * k1i[k] + c1i * k1r[k];
    }
}

/// Writes a lane group's `E` transfer sums into `out`, lane-major: entry
/// `j` of the group's lane `k` at `out[k * E + j]`.
#[inline(always)]
fn store_transfer<const W: usize, const E: usize>(
    out: &mut [C64],
    tr: &[[f64; W]; E],
    ti: &[[f64; W]; E],
) {
    for (k, lane) in out.chunks_exact_mut(E).enumerate() {
        for (j, t) in lane.iter_mut().enumerate() {
            *t = C64::new(tr[j][k], ti[j][k]);
        }
    }
}

/// One lane group's share of [`StateBatch::transfer_1q`]: lanes `start..
/// start + W` of rows `l` lanes wide, pair halves `half` elements apart,
/// the pairs in ascending base order.
#[inline(always)]
fn transfer_1q_group<const W: usize>(
    bra: Planes,
    ket: Planes,
    l: usize,
    start: usize,
    half: usize,
    out: &mut [C64],
) {
    let (mut tr, mut ti) = ([[0.0; W]; 4], [[0.0; W]; 4]);
    for base in (0..bra.0.len()).step_by(half << 1) {
        for e in (base + start..base + half).step_by(l) {
            transfer_pair((&mut tr, &mut ti), bra, ket, e, e + half);
        }
    }
    store_transfer(out, &tr, &ti);
}

/// One lane group's share of [`StateBatch::transfer_control_block`]: the
/// pairs `(i | ba, i | ba | bb)` of [`transfer_1q_group`]'s kernel, for
/// every base index `i` in ascending order (`ba`, `bb` in element space).
#[inline(always)]
fn transfer_control_group<const W: usize>(
    bra: Planes,
    ket: Planes,
    l: usize,
    start: usize,
    (ba, bb): (usize, usize),
    out: &mut [C64],
) {
    let (mut tr, mut ti) = ([[0.0; W]; 4], [[0.0; W]; 4]);
    for_2q_runs!(bra.0.len(), ba, bb, |e| {
        for c0 in (e + ba + start..e + ba + ba.min(bb)).step_by(l) {
            transfer_pair((&mut tr, &mut ti), bra, ket, c0, c0 + bb);
        }
    });
    store_transfer(out, &tr, &ti);
}

/// One lane group's share of [`StateBatch::transfer_2q`]: for every base
/// index in ascending order, the quadruple `(i, i | bb, i | ba, i | ba |
/// bb)` adds `t[4j + k] += conj(b_j) · k_k`, each product expanded as in
/// [`transfer_pair`].
#[inline(always)]
fn transfer_2q_group<const W: usize>(
    bra: Planes,
    ket: Planes,
    l: usize,
    start: usize,
    (ba, bb): (usize, usize),
    out: &mut [C64],
) {
    let (mut tr, mut ti) = ([[0.0; W]; 16], [[0.0; W]; 16]);
    for_2q_runs!(bra.0.len(), ba, bb, |e| {
        for e0 in (e + start..e + ba.min(bb)).step_by(l) {
            let rows = [e0, e0 + bb, e0 + ba, e0 + ba + bb];
            let kr = [
                lane_group::<W>(ket.0, rows[0]),
                lane_group::<W>(ket.0, rows[1]),
                lane_group::<W>(ket.0, rows[2]),
                lane_group::<W>(ket.0, rows[3]),
            ];
            let ki = [
                lane_group::<W>(ket.1, rows[0]),
                lane_group::<W>(ket.1, rows[1]),
                lane_group::<W>(ket.1, rows[2]),
                lane_group::<W>(ket.1, rows[3]),
            ];
            for (j, &row) in rows.iter().enumerate() {
                let (br, bi) = (lane_group::<W>(bra.0, row), lane_group::<W>(bra.1, row));
                for kk in 0..4 {
                    let (sr, si) = (&mut tr[4 * j + kk], &mut ti[4 * j + kk]);
                    for k in 0..W {
                        let (cr, ci) = (br[k], -bi[k]);
                        sr[k] += cr * kr[kk][k] - ci * ki[kk][k];
                        si[k] += cr * ki[kk][k] + ci * kr[kk][k];
                    }
                }
            }
        }
    });
    store_transfer(out, &tr, &ti);
}

/// One lane group's share of [`StateBatch::expect_z_all_lanes`]: each
/// amplitude's `|a|²` (as [`C64::norm_sqr`]), added to or subtracted from
/// every qubit's sum by that qubit's bit, amplitudes in ascending order.
/// `out` holds the group's lanes, one vector of qubit values each.
#[inline(always)]
fn expect_z_group<const W: usize>((re, im): Planes, l: usize, start: usize, out: &mut [Vec<f64>]) {
    let mut acc = vec![[0.0; W]; out[0].len()];
    for (i, (rr, ri)) in re.chunks_exact(l).zip(im.chunks_exact(l)).enumerate() {
        let (r, m) = (lane_group::<W>(rr, start), lane_group::<W>(ri, start));
        let mut p = [0.0; W];
        for k in 0..W {
            p[k] = r[k] * r[k] + m[k] * m[k];
        }
        for (q, a) in acc.iter_mut().enumerate() {
            if i & (1 << q) == 0 {
                for k in 0..W {
                    a[k] += p[k];
                }
            } else {
                for k in 0..W {
                    a[k] -= p[k];
                }
            }
        }
    }
    for (k, lane) in out.iter_mut().enumerate() {
        for (e, a) in lane.iter_mut().zip(&acc) {
            *e = a[k];
        }
    }
}

/// One lane group's share of [`StateBatch::diag_weighted`]: for every
/// amplitude, each lane's diagonal entry `d = Σ_q ±w_q` summed from `0.0`
/// in ascending qubit order (`+` where the qubit's bit is clear), then
/// the amplitude times `d` written to `out`. `w` holds one plane of `l`
/// lane weights per qubit.
#[inline(always)]
fn diag_weighted_group<const W: usize>(
    (re, im): Planes,
    (out_re, out_im): (&mut [f64], &mut [f64]),
    w: &[f64],
    l: usize,
    start: usize,
) {
    let mut wg = Vec::with_capacity(w.len() / l);
    for plane in w.chunks_exact(l) {
        wg.push(*lane_group::<W>(plane, start));
    }
    let rows = re
        .chunks_exact(l)
        .zip(im.chunks_exact(l))
        .zip(out_re.chunks_exact_mut(l).zip(out_im.chunks_exact_mut(l)));
    for (i, ((rr, ri), (or, oi))) in rows.enumerate() {
        let mut d = [0.0; W];
        for (q, wq) in wg.iter().enumerate() {
            if i & (1 << q) == 0 {
                for k in 0..W {
                    d[k] += wq[k];
                }
            } else {
                for k in 0..W {
                    d[k] -= wq[k];
                }
            }
        }
        // Copied out first, so no store below can alias a load.
        let (r, m) = (*lane_group::<W>(rr, start), *lane_group::<W>(ri, start));
        let (o_r, o_i) = (
            lane_group_mut::<W>(or, start),
            lane_group_mut::<W>(oi, start),
        );
        for k in 0..W {
            o_r[k] = r[k] * d[k];
            o_i[k] = m[k] * d[k];
        }
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

    /// Writes `state` into lane `lane`, bit for bit: the inverse of
    /// [`StateBatch::lane_state`].
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `state` has another qubit count.
    pub fn set_lane(&mut self, lane: usize, state: &StateVec) {
        assert!(lane < self.lanes, "lane out of range");
        assert_eq!(state.num_qubits(), self.n_qubits, "width mismatch");
        for (i, &a) in state.amplitudes().iter().enumerate() {
            self.set(i * self.lanes + lane, a);
        }
    }

    /// Copies the lanes `lanes` into a new batch of `lanes.len()` lanes, in
    /// order: lane `i` of the copy holds lane `lanes.start + i`'s amplitudes
    /// bit for bit. A trajectory chunk forks its circuits' lanes this way
    /// after running the op prefix they share.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is empty or runs past the batch.
    pub fn copy_lanes(&self, lanes: Range<usize>) -> StateBatch {
        assert!(
            lanes.start < lanes.end && lanes.end <= self.lanes,
            "lanes out of range"
        );
        let len = (1usize << self.n_qubits) * lanes.len();
        let (mut re, mut im) = (Vec::with_capacity(len), Vec::with_capacity(len));
        for (rr, ri) in self
            .re
            .chunks_exact(self.lanes)
            .zip(self.im.chunks_exact(self.lanes))
        {
            re.extend_from_slice(&rr[lanes.clone()]);
            im.extend_from_slice(&ri[lanes.clone()]);
        }
        StateBatch {
            n_qubits: self.n_qubits,
            lanes: lanes.len(),
            re,
            im,
        }
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
        match mat2_class(m) {
            Mat2Class::Identity => {}
            Mat2Class::Diag => self.apply_1q_diag(m00, m11, q),
            Mat2Class::Antidiag => self.apply_1q_antidiag(m01, m10, q),
            Mat2Class::General => self.apply_1q_general(m, q),
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

    /// Applies one matrix **per lane** to qubit `q`, each lane
    /// bit-identical to [`StateVec::apply_1q`] on that lane's state.
    ///
    /// When every matrix is in one structure class, diagonal or general
    /// (the common case: a batch of input-encoder rotations over different
    /// features), one planar sweep applies them all, its matrix entries
    /// transposed into per-lane planes so the lane loop vectorizes like the
    /// shared-gate kernels; a batch of identities is skipped. Any other
    /// batch — mixed classes (e.g. one feature exactly zero turning its
    /// rotation into the identity) or anti-diagonal matrices, which no
    /// encoder produces — takes each lane's own [`StateVec`] step.
    ///
    /// # Panics
    ///
    /// Panics if `ms.len() != lanes()` or `q` is out of range.
    pub fn apply_1q_per_lane(&mut self, ms: &[Mat2], q: usize) {
        assert_eq!(ms.len(), self.lanes, "one matrix per lane");
        assert!(q < self.n_qubits, "qubit {} out of range", q);
        let class = mat2_class(&ms[0]);
        let uniform = ms.iter().all(|m| mat2_class(m) == class);
        match (class, uniform) {
            (Mat2Class::Identity, true) => {}
            (Mat2Class::Diag, true) => {
                self.sweep_1q_perlane_diag(&entry_planes(ms.iter().map(flat2)), q);
            }
            (Mat2Class::General, true) => {
                self.sweep_1q_perlane_general(&entry_planes(ms.iter().map(flat2)), q);
            }
            _ => self.each_lane_step(|lane, s| s.apply_1q(&ms[lane], q)),
        }
    }

    /// Each lane's own [`StateVec`] step: copies lane `lane` out, hands it
    /// to `step(lane, state)`, and writes it back.
    fn each_lane_step(&mut self, mut step: impl FnMut(usize, &mut StateVec)) {
        for lane in 0..self.lanes {
            let mut s = self.lane_state(lane);
            step(lane, &mut s);
            self.set_lane(lane, &s);
        }
    }

    multiversion_sweep!(
        sweep_1q_perlane_diag / sweep_1q_perlane_diag_avx2 => sweep_1q_perlane_diag_body(&mut self, w: &[f64], q: usize)
    );

    #[inline(always)]
    fn sweep_1q_perlane_diag_body(&mut self, w: &[f64], q: usize) {
        let lanes = self.lanes;
        let stride = (1usize << q) * lanes;
        for (rc, ic) in self
            .re
            .chunks_exact_mut(stride << 1)
            .zip(self.im.chunks_exact_mut(stride << 1))
        {
            let (lo_r, hi_r) = rc.split_at_mut(stride);
            let (lo_i, hi_i) = ic.split_at_mut(stride);
            kern_1q_perlane_diag(lo_r, lo_i, hi_r, hi_i, w, lanes);
        }
    }

    multiversion_sweep!(
        sweep_1q_perlane_general / sweep_1q_perlane_general_avx2 => sweep_1q_perlane_general_body(&mut self, w: &[f64], q: usize)
    );

    #[inline(always)]
    fn sweep_1q_perlane_general_body(&mut self, w: &[f64], q: usize) {
        let lanes = self.lanes;
        let stride = (1usize << q) * lanes;
        for (rc, ic) in self
            .re
            .chunks_exact_mut(stride << 1)
            .zip(self.im.chunks_exact_mut(stride << 1))
        {
            let (lo_r, hi_r) = rc.split_at_mut(stride);
            let (lo_i, hi_i) = ic.split_at_mut(stride);
            kern_1q_perlane_general(lo_r, lo_i, hi_r, hi_i, w, lanes);
        }
    }

    /// Applies a two-qubit unitary to every lane; `qa` is the high bit as in
    /// [`Mat4`]. Same structure dispatch as [`StateVec::apply_2q`].
    ///
    /// # Panics
    ///
    /// Panics if the qubits coincide or are out of range.
    pub fn apply_2q(&mut self, m: &Mat4, qa: usize, qb: usize) {
        self.assert_qubit_pair(qa, qb);
        match mat4_class(m) {
            Mat4Class::Diag => self.apply_2q_diag(m, qa, qb),
            Mat4Class::Controlled => self.apply_2q_controlled(&control_block(m), qa, qb),
            Mat4Class::General => self.apply_2q_general(m, qa, qb),
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

    /// Applies one two-qubit unitary **per lane**, `qa` the high bit as
    /// in [`Mat4`], each lane bit-identical to [`StateVec::apply_2q`] on
    /// that lane's state.
    ///
    /// Fused plans routinely absorb the whole 1q layer into adjacent 2q
    /// steps, so input-dependent steps usually arrive here as a batch of
    /// per-lane `Mat4`s. When every matrix is controlled or every one is
    /// general, one planar sweep applies them all: the 1q-shaped
    /// control-pair kernel over per-lane control blocks, or the quadrant
    /// walk with per-lane entry planes. Any other batch — mixed classes or
    /// diagonal matrices — takes each lane's own [`StateVec`] step.
    ///
    /// # Panics
    ///
    /// Panics if `ms.len() != lanes()`, the qubits coincide, or either
    /// qubit is out of range.
    pub fn apply_2q_per_lane(&mut self, ms: &[Mat4], qa: usize, qb: usize) {
        assert_eq!(ms.len(), self.lanes, "one matrix per lane");
        self.assert_qubit_pair(qa, qb);
        let class = mat4_class(&ms[0]);
        let uniform = ms.iter().all(|m| mat4_class(m) == class);
        match (class, uniform) {
            (Mat4Class::Controlled, true) => {
                let w = entry_planes(ms.iter().map(|m| flat2(&control_block(m))));
                self.sweep_2q_perlane_controlled(&w, qa, qb);
            }
            (Mat4Class::General, true) => {
                self.sweep_2q_perlane_general(&entry_planes(ms.iter().map(flat4)), qa, qb);
            }
            _ => self.each_lane_step(|lane, s| s.apply_2q(&ms[lane], qa, qb)),
        }
    }

    multiversion_sweep!(
        sweep_2q_perlane_controlled / sweep_2q_perlane_controlled_avx2 => sweep_2q_perlane_controlled_body(&mut self, w: &[f64], qa: usize, qb: usize)
    );

    #[inline(always)]
    fn sweep_2q_perlane_controlled_body(&mut self, w: &[f64], qa: usize, qb: usize) {
        let lanes = self.lanes;
        let ba = (1usize << qa) * lanes;
        let bb = (1usize << qb) * lanes;
        let run = ba.min(bb);
        let re = &mut self.re[..];
        let im = &mut self.im[..];
        for_2q_runs!(re.len(), ba, bb, |e| {
            let (lo_r, hi_r) = two_runs(re, e + ba, bb, run);
            let (lo_i, hi_i) = two_runs(im, e + ba, bb, run);
            kern_1q_perlane_general(lo_r, lo_i, hi_r, hi_i, w, lanes);
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

    /// Per-lane Pauli-Z expectations: `out[lane][q]`, each lane matching
    /// [`StateVec::expect_z_all`] bit-for-bit. One read sweep over lane
    /// groups of at most [`LANE_CHUNK`] lanes, each compiled at its own
    /// width with one sum per qubit and lane.
    pub fn expect_z_all_lanes(&self) -> Vec<Vec<f64>> {
        let mut out = vec![vec![0.0; self.n_qubits]; self.lanes];
        self.sweep_expect_z(&mut out);
        out
    }

    multiversion_sweep!(
        sweep_expect_z / sweep_expect_z_avx2 => expect_z_body(&self, out: &mut [Vec<f64>])
    );

    #[inline(always)]
    fn expect_z_body(&self, out: &mut [Vec<f64>]) {
        let (l, planes) = (self.lanes, (&self.re[..], &self.im[..]));
        for group in lane_groups(l) {
            let (start, lanes) = (group.start, &mut out[group.clone()]);
            by_lane_width!(group.len(), expect_z_group::<_>(planes, l, start, lanes));
        }
    }

    /// Asserts that `ket` can pair with this batch in a transfer sweep.
    fn assert_pairs_with(&self, ket: &StateBatch) {
        assert_eq!(
            (ket.n_qubits, ket.lanes),
            (self.n_qubits, self.lanes),
            "bra and ket batches differ in shape"
        );
    }

    /// Per-lane transfer matrices of qubit `q`, this batch the bra: for
    /// each lane, `T_jk = Σ_i conj(bra_j(i)) · ket_k(i)` over the amplitude
    /// pairs `(i, i + 2^q)` in ascending base order, four entries per lane
    /// (lane-major, `j`-major within a lane). The bracket `<bra| M |ket>`
    /// restricted to `q` is linear in `M`, so each lane's bracket is an
    /// O(1) projection of `M` against that lane's entries. Every lane sums
    /// the same terms in the same order as a scalar walk of its amplitudes,
    /// each product expanded as `conj` then [`C64`]'s `Mul`; lanes go in
    /// groups of at most [`LANE_CHUNK`], compiled per width.
    ///
    /// # Panics
    ///
    /// Panics if `ket` differs in qubits or lanes, or `q` is out of range.
    pub(crate) fn transfer_1q(&self, ket: &StateBatch, q: usize) -> Vec<C64> {
        self.assert_pairs_with(ket);
        assert!(q < self.n_qubits, "qubit {} out of range", q);
        let mut t = vec![C64::ZERO; 4 * self.lanes];
        self.sweep_transfer_1q(ket, q, &mut t);
        t
    }

    multiversion_sweep!(
        sweep_transfer_1q / sweep_transfer_1q_avx2 => transfer_1q_body(&self, ket: &StateBatch, q: usize, t: &mut [C64])
    );

    #[inline(always)]
    fn transfer_1q_body(&self, ket: &StateBatch, q: usize, t: &mut [C64]) {
        let (l, half) = (self.lanes, (1usize << q) * self.lanes);
        let (bra, ket) = ((&self.re[..], &self.im[..]), (&ket.re[..], &ket.im[..]));
        for group in lane_groups(l) {
            let (start, out) = (group.start, &mut t[4 * group.start..4 * group.end]);
            by_lane_width!(
                group.len(),
                transfer_1q_group::<_>(bra, ket, l, start, half, out)
            );
        }
    }

    /// Two-qubit sibling of [`StateBatch::transfer_1q`] (`qa` the high bit
    /// as in [`Mat4`]): sixteen entries per lane, `T_jk` over the amplitude
    /// quadruples `(i, i | 2^qb, i | 2^qa, i | 2^qa | 2^qb)` the pair
    /// couples, base indices in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `ket` differs in qubits or lanes, or the qubits coincide
    /// or are out of range.
    pub(crate) fn transfer_2q(&self, ket: &StateBatch, qa: usize, qb: usize) -> Vec<C64> {
        self.assert_pairs_with(ket);
        self.assert_qubit_pair(qa, qb);
        let mut t = vec![C64::ZERO; 16 * self.lanes];
        self.sweep_transfer_2q(ket, qa, qb, &mut t);
        t
    }

    multiversion_sweep!(
        sweep_transfer_2q / sweep_transfer_2q_avx2 => transfer_2q_body(&self, ket: &StateBatch, qa: usize, qb: usize, t: &mut [C64])
    );

    #[inline(always)]
    fn transfer_2q_body(&self, ket: &StateBatch, qa: usize, qb: usize, t: &mut [C64]) {
        let l = self.lanes;
        let bits = ((1usize << qa) * l, (1usize << qb) * l);
        let (bra, ket) = ((&self.re[..], &self.im[..]), (&ket.re[..], &ket.im[..]));
        for group in lane_groups(l) {
            let (start, out) = (group.start, &mut t[16 * group.start..16 * group.end]);
            by_lane_width!(
                group.len(),
                transfer_2q_group::<_>(bra, ket, l, start, bits, out)
            );
        }
    }

    /// The control-1 block of [`StateBatch::transfer_2q`]: its entries 10,
    /// 11, 14 and 15 (`T_jk` for `j, k` in `{2, 3}`), four per lane,
    /// summed over the pairs `(i | 2^qa, i | 2^qa | 2^qb)` alone. Each is
    /// the sweep's own sum, term for term and in the same order, so it
    /// equals that entry of the full sweep bit for bit. A derivative
    /// matrix that is zero outside this block (every controlled gate's)
    /// needs no other entry.
    ///
    /// # Panics
    ///
    /// Panics if `ket` differs in qubits or lanes, or the qubits coincide
    /// or are out of range.
    pub(crate) fn transfer_control_block(
        &self,
        ket: &StateBatch,
        qa: usize,
        qb: usize,
    ) -> Vec<C64> {
        self.assert_pairs_with(ket);
        self.assert_qubit_pair(qa, qb);
        let mut t = vec![C64::ZERO; 4 * self.lanes];
        self.sweep_transfer_control_block(ket, qa, qb, &mut t);
        t
    }

    multiversion_sweep!(
        sweep_transfer_control_block / sweep_transfer_control_block_avx2 => transfer_control_block_body(&self, ket: &StateBatch, qa: usize, qb: usize, t: &mut [C64])
    );

    #[inline(always)]
    fn transfer_control_block_body(&self, ket: &StateBatch, qa: usize, qb: usize, t: &mut [C64]) {
        let l = self.lanes;
        let bits = ((1usize << qa) * l, (1usize << qb) * l);
        let (bra, ket) = ((&self.re[..], &self.im[..]), (&ket.re[..], &ket.im[..]));
        for group in lane_groups(l) {
            let (start, out) = (group.start, &mut t[4 * group.start..4 * group.end]);
            by_lane_width!(
                group.len(),
                transfer_control_group::<_>(bra, ket, l, start, bits, out)
            );
        }
    }

    /// Asserts that `(qa, qb)` names two distinct qubits of the batch.
    fn assert_qubit_pair(&self, qa: usize, qb: usize) {
        assert!(
            qa < self.n_qubits && qb < self.n_qubits,
            "qubit out of range"
        );
        assert_ne!(qa, qb, "two-qubit gate needs distinct qubits");
    }

    /// For every lane, two sums over the same terms `|(K ψ)_i|²` of the
    /// one-qubit operator `k` on qubit `q`, in one lanes-contiguous read
    /// sweep:
    ///
    /// - `probs[lane]`, the Born probability `||K ψ||²`, summed over the
    ///   amplitude pairs `(i, i + 2^q)` in ascending base order, row 0
    ///   before row 1, with [`C64`]'s operation order: bit-identical to the
    ///   same walk over that lane's standalone [`StateVec`];
    /// - `norms[lane]`, the squared norm `K ψ` will have, summed in
    ///   ascending amplitude order: bit-identical to
    ///   [`StateVec::norm_sqr`] after [`StateVec::apply_1q`], the sum
    ///   [`StateVec::normalize`] takes.
    ///
    /// The two differ only in summation order. Lanes are swept in groups
    /// of at most [`LANE_CHUNK`], each compiled at its own width so its
    /// lane loops have a fixed trip count. A real diagonal `k` (every
    /// channel's leading operator `walk_noisy` builds) squares `d·x`
    /// directly; that is exact because the full expression differs from
    /// it only in the sign of a zero, which squaring removes.
    ///
    /// # Panics
    ///
    /// Panics if `probs` or `norms` does not hold one value per lane, or
    /// `q` is out of range.
    pub fn kraus_prob_and_norm(&self, k: &Mat2, q: usize, probs: &mut [f64], norms: &mut [f64]) {
        assert_eq!(probs.len(), self.lanes, "one probability per lane");
        assert_eq!(norms.len(), self.lanes, "one norm per lane");
        assert!(q < self.n_qubits, "qubit {} out of range", q);
        self.sweep_kraus_prob_and_norm(k, q, probs, norms);
    }

    multiversion_sweep!(
        sweep_kraus_prob_and_norm / sweep_kraus_prob_and_norm_avx2 => kraus_prob_and_norm_body(&self, k: &Mat2, q: usize, probs: &mut [f64], norms: &mut [f64])
    );

    #[inline(always)]
    fn kraus_prob_and_norm_body(&self, k: &Mat2, q: usize, probs: &mut [f64], norms: &mut [f64]) {
        let [m00, m01, m10, m11] = k.m;
        let real_diag = m01 == C64::ZERO && m10 == C64::ZERO && m00.im == 0.0 && m11.im == 0.0;
        let m = flat2(k);
        let (l, half) = (self.lanes, (1usize << q) * self.lanes);
        let planes = (&self.re[..], &self.im[..]);
        for group in lane_groups(l) {
            let start = group.start;
            let (p, n) = (&mut probs[group.clone()], &mut norms[group.clone()]);
            if real_diag {
                by_lane_width!(
                    group.len(),
                    born_and_norm_group::<_, true>(planes, l, start, half, &m, p, n)
                );
            } else {
                by_lane_width!(
                    group.len(),
                    born_and_norm_group::<_, false>(planes, l, start, half, &m, p, n)
                );
            }
        }
    }

    /// Applies the diagonal one-qubit operator `k` to qubit `q` of every
    /// lane and scales lane `lane` by `1 / sqrt(norms[lane])`, leaving it
    /// unscaled where that norm is zero, in one write sweep. With the
    /// `norms` [`StateBatch::kraus_prob_and_norm`] reports for `k`, each
    /// lane is bit-identical to [`StateVec::apply_1q`] then
    /// [`StateVec::normalize`] on that lane's state: each amplitude is
    /// first the diagonal path's complex product (skipped when `k` is the
    /// identity, so stored zeros keep their signs), then scaled. Lanes go
    /// in groups of at most [`LANE_CHUNK`], compiled per width like the
    /// read sweep.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not diagonal, `norms` does not hold one value per
    /// lane, or `q` is out of range.
    pub fn apply_1q_diag_normalized(&mut self, k: &Mat2, q: usize, norms: &[f64]) {
        let [d0, m01, m10, d1] = k.m;
        assert!(
            m01 == C64::ZERO && m10 == C64::ZERO,
            "operator is not diagonal"
        );
        assert_eq!(norms.len(), self.lanes, "one norm per lane");
        assert!(q < self.n_qubits, "qubit {} out of range", q);
        let diag = if d0 == C64::ONE && d1 == C64::ONE {
            [None; 2]
        } else {
            [Some(d0), Some(d1)]
        };
        self.sweep_1q_diag_normalized(diag, q, norms);
    }

    multiversion_sweep!(
        sweep_1q_diag_normalized / sweep_1q_diag_normalized_avx2 => diag_normalized_body(&mut self, diag: [Option<C64>; 2], q: usize, norms: &[f64])
    );

    #[inline(always)]
    fn diag_normalized_body(&mut self, diag: [Option<C64>; 2], q: usize, norms: &[f64]) {
        let (l, half) = (self.lanes, (1usize << q) * self.lanes);
        for group in lane_groups(l) {
            let start = group.start;
            let mut scale = [0.0; LANE_CHUNK];
            let scale = &mut scale[..group.len()];
            for (s, &n) in scale.iter_mut().zip(&norms[group.clone()]) {
                let norm = n.sqrt();
                *s = if norm > 0.0 { 1.0 / norm } else { 1.0 };
            }
            let planes = (&mut self.re[..], &mut self.im[..]);
            by_lane_width!(
                group.len(),
                diag_scale_group::<_>(planes, l, start, half, diag, scale)
            );
        }
    }

    /// `D_w ψ` for every lane, as a new batch: lane `lane` of the result
    /// is that lane's state scaled by the diagonal of the weighted-Z
    /// observable `Σ_q weights[lane][q] Z_q`, bit-identical to
    /// [`DiagObservable::apply`](crate::DiagObservable) on the lane's
    /// state (the entry summed per basis index in ascending qubit order).
    /// One sweep reads this batch and writes the result, in lane groups of
    /// at most [`LANE_CHUNK`] compiled per width. The batched adjoint
    /// seeds its bra this way.
    ///
    /// # Panics
    ///
    /// Panics if `weights` does not hold one weight vector of length
    /// `num_qubits()` per lane.
    pub fn diag_weighted(&self, weights: &[Vec<f64>]) -> StateBatch {
        assert_eq!(weights.len(), self.lanes, "one weight vector per lane");
        let n = self.n_qubits;
        // Qubit-major weight planes: `w[q * lanes + lane]`.
        let mut w = vec![0.0; n * self.lanes];
        for (lane, wl) in weights.iter().enumerate() {
            assert_eq!(wl.len(), n, "one weight per qubit");
            for (q, &wq) in wl.iter().enumerate() {
                w[q * self.lanes + lane] = wq;
            }
        }
        let mut out = StateBatch {
            n_qubits: n,
            lanes: self.lanes,
            re: vec![0.0; self.re.len()],
            im: vec![0.0; self.im.len()],
        };
        self.sweep_diag_weighted(&w, &mut out.re, &mut out.im);
        out
    }

    multiversion_sweep!(
        sweep_diag_weighted / sweep_diag_weighted_avx2 => diag_weighted_body(&self, w: &[f64], out_re: &mut [f64], out_im: &mut [f64])
    );

    #[inline(always)]
    fn diag_weighted_body(&self, w: &[f64], out_re: &mut [f64], out_im: &mut [f64]) {
        let (l, planes) = (self.lanes, (&self.re[..], &self.im[..]));
        for group in lane_groups(l) {
            let (start, out) = (group.start, (&mut *out_re, &mut *out_im));
            by_lane_width!(
                group.len(),
                diag_weighted_group::<_>(planes, out, w, l, start)
            );
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
    fn copied_lanes_keep_their_amplitudes_bitwise() {
        for (n, lanes) in [(1, 1), (3, 5), (4, 16)] {
            let (batch, singles) = scrambled(n, lanes, 31 + lanes as u64);
            for start in 0..lanes {
                for end in start + 1..=lanes {
                    let copy = batch.copy_lanes(start..end);
                    assert_eq!((copy.num_qubits(), copy.lanes()), (n, end - start));
                    assert_lanes_match(&copy, &singles[start..end], "copied lanes");
                }
            }
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
    fn set_lane_inverts_lane_state_bitwise() {
        for (n, lanes) in [(1, 1), (3, 5), (4, 16)] {
            let (mut batch, _) = scrambled(n, lanes, 41 + lanes as u64);
            // Zeros signed both ways, which `==` would not tell apart.
            for i in 0..1usize << n {
                let sign = if i % 2 == 0 { 0.0 } else { -0.0 };
                batch.re[i * lanes] = sign;
                batch.im[i * lanes] = -sign;
            }
            let before = batch.clone();
            for lane in 0..lanes {
                let s = batch.lane_state(lane);
                batch.set_lane(lane, &s);
                assert_eq!(amp_bits(&batch.lane_state(lane)), amp_bits(&s));
            }
            let bits = |b: &StateBatch| -> Vec<u64> {
                b.re.iter().chain(&b.im).map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(&batch), bits(&before), "{n} qubits, {lanes} lanes");
            // Writing one lane leaves every other lane as it was.
            let fresh = scrambled(n, 1, 7).1.remove(0);
            batch.set_lane(lanes - 1, &fresh);
            assert_eq!(amp_bits(&batch.lane_state(lanes - 1)), amp_bits(&fresh));
            for lane in 0..lanes - 1 {
                let want = amp_bits(&before.lane_state(lane));
                assert_eq!(amp_bits(&batch.lane_state(lane)), want, "lane {lane}");
            }
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

    /// Checks every lane of `batch` against its single state bit for bit.
    fn assert_lane_bits(batch: &StateBatch, singles: &[StateVec], label: &str) {
        for (lane, s) in singles.iter().enumerate() {
            let got = amp_bits(&batch.lane_state(lane));
            assert_eq!(got, amp_bits(s), "{label}: lane {lane} diverged");
        }
    }

    #[test]
    fn per_lane_matrix_sweep_matches_lane_dispatch() {
        let mut rng = StdRng::seed_from_u64(77);
        // Uniform general class (rotations with nonzero angles) and
        // uniform diagonal class (RZ-like) take the planar sweeps; an
        // anti-diagonal batch and a mixed batch with an identity lane take
        // each lane's own step.
        let general: Vec<Mat2> = (0..6).map(|_| ry(rng.gen_range(0.1..3.0))).collect();
        let diag: Vec<Mat2> = (0..6).map(|_| rz(rng.gen_range(0.1..3.0))).collect();
        let antidiag: Vec<Mat2> = (0..6)
            .map(|_| Mat2::pauli_x().mul_mat(&rz(rng.gen_range(0.1..3.0))))
            .collect();
        let mut mixed = general.clone();
        mixed[3] = Mat2::identity();
        mixed[4] = antidiag[4];
        for (label, ms) in [
            ("general", &general),
            ("diag", &diag),
            ("antidiag", &antidiag),
            ("mixed", &mixed),
        ] {
            for q in 0..3 {
                let (mut batch, mut singles) = scrambled(3, 6, 123);
                batch.apply_1q_per_lane(ms, q);
                for (s, m) in singles.iter_mut().zip(ms) {
                    s.apply_1q(m, q);
                }
                assert_lane_bits(&batch, &singles, &format!("{label} q{q}"));
            }
        }
    }

    /// `||K ψ||²` over one standalone state, pairs in ascending base
    /// order, row 0 before row 1.
    fn single_kraus_prob(s: &StateVec, k: &Mat2, q: usize) -> f64 {
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
    }

    /// The bit patterns of a state's amplitudes, so signed zeros count.
    fn amp_bits(s: &StateVec) -> Vec<(u64, u64)> {
        s.amplitudes()
            .iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect()
    }

    #[test]
    fn kraus_probs_match_the_single_state_walk() {
        let single = single_kraus_prob;
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
                    let (mut out, mut norms) = (vec![0.0; lanes], vec![0.0; lanes]);
                    batch.kraus_prob_and_norm(&k, q, &mut out, &mut norms);
                    let want: Vec<f64> = singles.iter().map(|s| single(s, &k, q)).collect();
                    assert_eq!(out, want, "{lanes} lanes, q {q}");
                }
            }
        }
    }

    #[test]
    fn kraus_sweeps_match_each_lanes_walk_at_every_width() {
        // The leading operators a channel step meets: the identity, a real
        // diagonal (every channel `walk_noisy` builds), a complex diagonal
        // and, for the read sweep only, a general operator. Every group
        // width 1..=16 runs alone; 33 lanes run as groups of 16, 16 and 1.
        let real = Mat2::new([C64::real(0.8), C64::ZERO, C64::ZERO, C64::real(0.6)]);
        let complex = Mat2::new([
            C64::new(0.9, 0.1),
            C64::ZERO,
            C64::ZERO,
            C64::new(0.3, -0.2),
        ]);
        let general = ry(0.7).scale(C64::real(0.9));
        let ops = [
            (Mat2::identity(), true),
            (real, true),
            (complex, true),
            (general, false),
        ];
        for n in 1..=7 {
            for lanes in (1..=LANE_CHUNK).chain([33]) {
                let (mut batch, _) = scrambled(n, lanes, (100 * n + lanes) as u64);
                // Lane 0 purely imaginary, with real parts of -0 (where a
                // dropped `0 · im` term or a multiply by the identity would
                // flip a zero's sign), then one zero-norm lane, its zeros
                // signed both ways.
                let zero = lanes / 2;
                for i in 0..1usize << n {
                    batch.re[i * lanes] = -0.0;
                    let sign = if i % 2 == 0 { 0.0 } else { -0.0 };
                    batch.re[i * lanes + zero] = sign;
                    batch.im[i * lanes + zero] = -sign;
                }
                for q in 0..n {
                    for (k, diagonal) in &ops {
                        let label = format!("{n} qubits, {lanes} lanes, q {q}, k {k:?}");
                        let (mut probs, mut norms) = (vec![0.0; lanes], vec![0.0; lanes]);
                        batch.kraus_prob_and_norm(k, q, &mut probs, &mut norms);
                        let mut written = batch.clone();
                        if *diagonal {
                            written.apply_1q_diag_normalized(k, q, &norms);
                        }
                        for lane in 0..lanes {
                            let mut s = batch.lane_state(lane);
                            let p = single_kraus_prob(&s, k, q);
                            assert_eq!(
                                probs[lane].to_bits(),
                                p.to_bits(),
                                "{label}: lane {lane} prob"
                            );
                            s.apply_1q(k, q);
                            let norm = s.norm_sqr();
                            assert_eq!(
                                norms[lane].to_bits(),
                                norm.to_bits(),
                                "{label}: lane {lane} norm"
                            );
                            if *diagonal {
                                s.normalize();
                                let got = amp_bits(&written.lane_state(lane));
                                assert_eq!(got, amp_bits(&s), "{label}: lane {lane} amplitudes");
                            }
                        }
                    }
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
            // General lanes beside a controlled, a diagonal and an
            // identity lane: every class at once.
            let mut mixed = general.clone();
            mixed[lanes / 2] = Mat4::controlled(&ry(0.4));
            mixed[1] = diag[1];
            mixed[lanes - 1] = Mat4::identity();
            for (label, ms) in [
                ("general", &general),
                ("controlled", &controlled),
                ("diag", &diag),
                ("mixed", &mixed),
            ] {
                for (qa, qb) in [(0usize, 2usize), (2, 0), (1, 2)] {
                    let (mut batch, mut singles) = scrambled(3, lanes, 321);
                    batch.apply_2q_per_lane(ms, qa, qb);
                    for (s, m) in singles.iter_mut().zip(ms) {
                        s.apply_2q(m, qa, qb);
                    }
                    let label = format!("{label} lanes={lanes} q=({qa},{qb})");
                    assert_lane_bits(&batch, &singles, &label);
                }
            }
        }
    }

    /// Lane counts that run every group shape: one lane, a partial group,
    /// one full group, a full group plus a one-lane tail, two full groups
    /// plus a tail.
    const GROUP_SHAPES: [usize; 5] = [1, 5, 16, 17, 33];

    /// Writes signed zeros into two lanes of `batch`: lane 0's real parts
    /// become -0 (a purely imaginary state), and one lane becomes a
    /// zero state with zeros of both signs.
    fn sign_zeros(batch: &mut StateBatch) {
        let (n, lanes) = (batch.num_qubits(), batch.lanes());
        let zero = lanes / 2;
        for i in 0..1usize << n {
            batch.re[i * lanes] = -0.0;
            let sign = if i % 2 == 0 { 0.0 } else { -0.0 };
            batch.re[i * lanes + zero] = sign;
            batch.im[i * lanes + zero] = -sign;
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn c64_bits(xs: &[C64]) -> Vec<(u64, u64)> {
        xs.iter()
            .map(|x| (x.re.to_bits(), x.im.to_bits()))
            .collect()
    }

    #[test]
    fn expect_z_all_lanes_matches_single_state() {
        for n in 1..=6 {
            for lanes in GROUP_SHAPES {
                let (mut batch, _) = scrambled(n, lanes, (10 * n + lanes) as u64);
                batch.apply_1q(&Mat2::hadamard(), 0);
                sign_zeros(&mut batch);
                let ez = batch.expect_z_all_lanes();
                assert_eq!(ez, scalar::expect_z_all_lanes(&batch));
                for (lane, e) in ez.iter().enumerate() {
                    let want = batch.lane_state(lane).expect_z_all();
                    assert_eq!(
                        bits(e),
                        bits(&want),
                        "{n} qubits, {lanes} lanes: lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn diag_weighted_matches_diag_observable() {
        use crate::{DiagObservable, Observable as _};
        let mut rng = StdRng::seed_from_u64(4);
        for n in 1..=6 {
            for lanes in GROUP_SHAPES {
                let (mut batch, _) = scrambled(n, lanes, (20 * n + lanes) as u64);
                sign_zeros(&mut batch);
                // Random weights, with a -0 weight and a weight vector
                // whose entries cancel on some basis index.
                let mut weights: Vec<Vec<f64>> = (0..lanes)
                    .map(|_| (0..n).map(|_| rng.gen_range(-1.5..1.5)).collect())
                    .collect();
                weights[0][0] = -0.0;
                weights[lanes - 1] = (0..n)
                    .map(|q| if q % 2 == 0 { 0.25 } else { -0.25 })
                    .collect();
                let lam = batch.diag_weighted(&weights);
                assert_eq!(lam, scalar::diag_weighted(&batch, &weights));
                for (lane, w) in weights.iter().enumerate() {
                    let want = DiagObservable::new(w.clone()).apply(&batch.lane_state(lane));
                    let label = format!("{n} qubits, {lanes} lanes: lane {lane}");
                    assert_eq!(amp_bits(&lam.lane_state(lane)), amp_bits(&want), "{label}");
                }
            }
        }
    }

    #[test]
    fn transfer_sweeps_match_the_scalar_loops_bitwise() {
        for n in 1..=6 {
            for lanes in GROUP_SHAPES {
                let seed = (30 * n + lanes) as u64;
                let (mut bra, _) = scrambled(n, lanes, seed);
                let (mut ket, _) = scrambled(n, lanes, seed + 1);
                sign_zeros(&mut bra);
                sign_zeros(&mut ket);
                for q in 0..n {
                    assert_eq!(
                        c64_bits(&bra.transfer_1q(&ket, q)),
                        c64_bits(&scalar::transfer_1q(&bra, &ket, q)),
                        "{n} qubits, {lanes} lanes, q {q}"
                    );
                }
                for qa in 0..n {
                    for qb in (0..n).filter(|&qb| qb != qa) {
                        let label = format!("{n} qubits, {lanes} lanes, q ({qa}, {qb})");
                        let full = scalar::transfer_2q(&bra, &ket, qa, qb);
                        assert_eq!(
                            c64_bits(&bra.transfer_2q(&ket, qa, qb)),
                            c64_bits(&full),
                            "{label}"
                        );
                        let block: Vec<C64> = full
                            .chunks_exact(16)
                            .flat_map(|t| [t[10], t[11], t[14], t[15]])
                            .collect();
                        assert_eq!(
                            c64_bits(&bra.transfer_control_block(&ket, qa, qb)),
                            c64_bits(&block),
                            "{label}: control block"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "lane out of range")]
    fn lane_out_of_range_panics() {
        let mut b = StateBatch::zero_state(1, 2);
        b.set_lane(2, &StateVec::zero_state(1));
    }
}

/// The scalar loops the planar read sweeps replaced, one amplitude and one
/// lane at a time in [`C64`] arithmetic: the bitwise oracles the sweeps'
/// tests (here and in the batched adjoint's) hold them to.
#[cfg(test)]
pub(crate) mod scalar {
    use super::StateBatch;
    use qns_tensor::C64;

    /// Per-lane `T_jk = Σ_i conj(bra_j(i)) · ket_k(i)` over the pairs
    /// `(i, i + 2^q)`, four entries per lane.
    pub(crate) fn transfer_1q(bra: &StateBatch, ket: &StateBatch, q: usize) -> Vec<C64> {
        let l = bra.lanes();
        let stride = 1usize << q;
        let len = 1usize << bra.num_qubits();
        let mut t = vec![C64::ZERO; 4 * l];
        let mut base = 0;
        while base < len {
            for i in base..base + stride {
                let e0 = i * l;
                let e1 = (i + stride) * l;
                for (lane, tl) in t.chunks_exact_mut(4).enumerate() {
                    let k0 = ket.amp(e0 + lane);
                    let k1 = ket.amp(e1 + lane);
                    let b0 = bra.amp(e0 + lane).conj();
                    let b1 = bra.amp(e1 + lane).conj();
                    tl[0] += b0 * k0;
                    tl[1] += b0 * k1;
                    tl[2] += b1 * k0;
                    tl[3] += b1 * k1;
                }
            }
            base += stride << 1;
        }
        t
    }

    /// Sixteen entries per lane over the quadruples `(qa, qb)` couples.
    pub(crate) fn transfer_2q(
        bra: &StateBatch,
        ket: &StateBatch,
        qa: usize,
        qb: usize,
    ) -> Vec<C64> {
        let l = bra.lanes();
        let ba = 1usize << qa;
        let bb = 1usize << qb;
        let mask = ba | bb;
        let len = 1usize << bra.num_qubits();
        let mut t = vec![C64::ZERO; 16 * l];
        for i in 0..len {
            if i & mask != 0 {
                continue;
            }
            let idx = [i, i | bb, i | ba, i | mask];
            for (lane, tl) in t.chunks_exact_mut(16).enumerate() {
                let v = idx.map(|x| ket.amp(x * l + lane));
                let bc = idx.map(|x| bra.amp(x * l + lane).conj());
                for j in 0..4 {
                    for (kk, &vk) in v.iter().enumerate() {
                        tl[j * 4 + kk] += bc[j] * vk;
                    }
                }
            }
        }
        t
    }

    /// Per-lane `<Z_q>`, amplitudes in ascending order.
    pub(crate) fn expect_z_all_lanes(batch: &StateBatch) -> Vec<Vec<f64>> {
        let n = batch.num_qubits();
        let l = batch.lanes();
        let mut out = vec![vec![0.0; n]; l];
        for i in 0..(1usize << n) {
            for (lane, eq_lane) in out.iter_mut().enumerate() {
                let p = batch.amp(i * l + lane).norm_sqr();
                for (q, eq) in eq_lane.iter_mut().enumerate() {
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

    /// A copy of `batch` with each lane scaled by its weighted-Z diagonal.
    pub(crate) fn diag_weighted(batch: &StateBatch, weights: &[Vec<f64>]) -> StateBatch {
        let mut out = batch.clone();
        let l = batch.lanes();
        for i in 0..1usize << batch.num_qubits() {
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
                out.set(e, batch.amp(e).scale(d));
            }
        }
        out
    }
}
