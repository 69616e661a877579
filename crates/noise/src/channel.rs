//! Kraus error channels with stochastic trajectory unraveling.

use qns_sim::{MpsState, StateBatch, StateVec, LANE_CHUNK};
use qns_tensor::{Mat2, C64};
use rand::Rng;

/// A one-qubit error channel in Kraus form, `ρ → Σ_i K_i ρ K_i†`.
///
/// Trajectory unraveling: given a pure state, Kraus operator `K_i` is
/// selected with probability `||K_i |ψ>||²` and the state renormalized.
/// Averaging expectations over many trajectories converges to the
/// density-matrix result.
///
/// Two-qubit depolarizing noise is applied as independent Pauli errors on
/// the two operand qubits (the standard Pauli-twirled approximation), so
/// every channel here is 2×2.
///
/// # Examples
///
/// ```
/// use qns_noise::KrausChannel;
/// let ch = KrausChannel::depolarizing(0.01);
/// assert!(ch.is_trace_preserving(1e-10));
/// ```
#[derive(Clone, Debug)]
pub struct KrausChannel {
    ops: Vec<Mat2>,
}

impl KrausChannel {
    /// Builds a channel from explicit Kraus operators.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty.
    pub fn new(ops: Vec<Mat2>) -> Self {
        assert!(!ops.is_empty(), "channel needs at least one Kraus operator");
        KrausChannel { ops }
    }

    /// Depolarizing channel: with probability `p` replace the qubit state
    /// with the maximally mixed state (uniform X/Y/Z error).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn depolarizing(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        let k0 = Mat2::identity().scale(C64::real((1.0 - 0.75 * p).sqrt()));
        let s = C64::real((p / 4.0).sqrt());
        KrausChannel::new(vec![
            k0,
            Mat2::pauli_x().scale(s),
            Mat2::pauli_y().scale(s),
            Mat2::pauli_z().scale(s),
        ])
    }

    /// Thermal relaxation over duration `t_ns` for a qubit with relaxation
    /// time `t1_ns` and dephasing time `t2_ns`: amplitude damping with
    /// `γ = 1 − e^{−t/T1}` composed with pure dephasing from the residual
    /// `1/Tφ = 1/T2 − 1/(2 T1)`.
    ///
    /// # Panics
    ///
    /// Panics if `t2_ns > 2 * t1_ns` (unphysical) or any time is
    /// non-positive.
    pub fn thermal_relaxation(t1_ns: f64, t2_ns: f64, t_ns: f64) -> Self {
        assert!(
            t1_ns > 0.0 && t2_ns > 0.0 && t_ns >= 0.0,
            "times must be positive"
        );
        assert!(t2_ns <= 2.0 * t1_ns + 1e-9, "T2 must be <= 2*T1");
        let gamma = 1.0 - (-t_ns / t1_ns).exp();
        // Residual pure dephasing rate.
        let inv_tphi = (1.0 / t2_ns - 0.5 / t1_ns).max(0.0);
        let lambda = 1.0 - (-t_ns * inv_tphi).exp();
        let pz = lambda / 2.0;

        // Amplitude damping Kraus pair.
        let a0 = Mat2::new([
            C64::ONE,
            C64::ZERO,
            C64::ZERO,
            C64::real((1.0 - gamma).sqrt()),
        ]);
        let a1 = Mat2::new([C64::ZERO, C64::real(gamma.sqrt()), C64::ZERO, C64::ZERO]);
        // Compose with phase flip {√(1-pz) I, √pz Z}.
        let zi = Mat2::identity().scale(C64::real((1.0 - pz).sqrt()));
        let zz = Mat2::pauli_z().scale(C64::real(pz.sqrt()));
        let mut ops = Vec::with_capacity(4);
        for z in [&zi, &zz] {
            for a in [&a0, &a1] {
                ops.push(z.mul_mat(a));
            }
        }
        KrausChannel::new(ops)
    }

    /// Bit-flip channel: X error with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn bit_flip(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        KrausChannel::new(vec![
            Mat2::identity().scale(C64::real((1.0 - p).sqrt())),
            Mat2::pauli_x().scale(C64::real(p.sqrt())),
        ])
    }

    /// Phase-flip channel: Z error with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn phase_flip(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        KrausChannel::new(vec![
            Mat2::identity().scale(C64::real((1.0 - p).sqrt())),
            Mat2::pauli_z().scale(C64::real(p.sqrt())),
        ])
    }

    /// The Kraus operators.
    pub fn operators(&self) -> &[Mat2] {
        &self.ops
    }

    /// Checks the completeness relation `Σ K_i† K_i = I`.
    pub fn is_trace_preserving(&self, tol: f64) -> bool {
        let mut acc = Mat2::zero();
        for k in &self.ops {
            acc = acc.add(&k.adjoint().mul_mat(k));
        }
        acc.approx_eq(&Mat2::identity(), tol)
    }

    /// Applies one stochastic trajectory step to qubit `q` of `state`:
    /// samples a Kraus operator with its Born probability and renormalizes.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range for `state`.
    pub fn apply_trajectory<R: Rng + ?Sized>(&self, state: &mut StateVec, q: usize, rng: &mut R) {
        let u = self.draw(rng);
        self.step(state, q, u, None);
    }

    /// [`KrausChannel::apply_trajectory`] on a matrix-product state: the
    /// same protocol — one RNG draw, lazy Born-probability CDF walk, apply
    /// the selected operator, renormalize — so a trajectory's draw sequence
    /// is identical to the dense path. Born probabilities come from the
    /// one-site reduced density matrix (`Tr(K†K ρ_q)`); they differ from
    /// the dense values only by truncation error, so draw *outcomes* (and
    /// hence exact bitwise agreement with the dense backends) coincide in
    /// the exact regime.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range for `mps`.
    pub fn apply_trajectory_mps<R: Rng + ?Sized>(&self, mps: &mut MpsState, q: usize, rng: &mut R) {
        let u = self.draw(rng);
        let (k, p) = self.select(u, |_, k| mps.kraus_prob(k, q));
        mps.apply_kraus_1q(k, q, p);
    }

    /// One stochastic trajectory step on **every** lane of a batch at
    /// once, drawing from `rngs[lane]`. Per lane this is bit-identical to
    /// [`KrausChannel::apply_trajectory`] on that lane's state: each lane
    /// makes the same draw from its own RNG, walks the same Born CDF, and
    /// applies the same operator and renormalization. Four steps:
    ///
    /// 1. one read sweep, [`StateBatch::kraus_prob_and_norm`], gives each
    ///    lane the Born probability `p₀` of the leading (no-error)
    ///    operator `K₀` and the squared norm `K₀ψ` will have;
    /// 2. each lane draws from its own RNG;
    /// 3. when `K₀` is diagonal (every channel `walk_noisy` builds leads
    ///    with one), one write sweep,
    ///    [`StateBatch::apply_1q_diag_normalized`], applies it to every
    ///    lane and renormalizes with those norms;
    /// 4. every other lane — one whose draw falls past `K₀` (rare at
    ///    hardware error rates), or every lane when `K₀` is not diagonal —
    ///    takes the reference step on a [`StateVec`] copy taken before the
    ///    write sweep, reusing its `p₀`, and is written back over the
    ///    sweep's result.
    ///
    /// Draws, probabilities and norms live in fixed [`LANE_CHUNK`]-wide
    /// arrays, so the step does not allocate unless some lane takes the
    /// reference step; the trajectory executor never builds a wider batch.
    ///
    /// # Panics
    ///
    /// Panics if `rngs.len() != batch.lanes()`, if the batch has more than
    /// [`LANE_CHUNK`] lanes, or if `q` is out of range.
    pub fn apply_trajectory_all_lanes<R: Rng>(
        &self,
        batch: &mut StateBatch,
        q: usize,
        rngs: &mut [R],
    ) {
        let lanes = batch.lanes();
        assert_eq!(rngs.len(), lanes, "one RNG per lane");
        assert!(
            lanes <= LANE_CHUNK,
            "a trajectory batch holds at most {LANE_CHUNK} lanes, got {lanes}"
        );
        let k0 = &self.ops[0];
        let (mut p0, mut n0) = ([0.0; LANE_CHUNK], [0.0; LANE_CHUNK]);
        batch.kraus_prob_and_norm(k0, q, &mut p0[..lanes], &mut n0[..lanes]);
        let mut us = [0.0; LANE_CHUNK];
        for (u, rng) in us.iter_mut().zip(rngs.iter_mut()) {
            *u = self.draw(rng);
        }
        let [_, k01, k10, _] = k0.m;
        let diagonal = k01 == C64::ZERO && k10 == C64::ZERO;
        let mut stepped = Vec::new();
        for (lane, (&u, &p)) in us.iter().zip(&p0).take(lanes).enumerate() {
            if !(diagonal && u <= p) {
                let mut state = batch.lane_state(lane);
                self.step(&mut state, q, u, Some(p));
                stepped.push((lane, state));
            }
        }
        if diagonal {
            batch.apply_1q_diag_normalized(k0, q, &n0[..lanes]);
        }
        for (lane, state) in &stepped {
            batch.set_lane(*lane, state);
        }
    }

    /// The uniform draw that selects a step's operator, from `rng`. A
    /// single-operator channel has nothing to select and draws nothing:
    /// its `0.0` is at most any Born probability, and [`Self::select`]
    /// picks the one operator whatever the draw.
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.ops.len() > 1 {
            rng.gen()
        } else {
            0.0
        }
    }

    /// The one CDF walk of every trajectory step: the operator the draw
    /// `u` selects — the first whose cumulative Born probability reaches
    /// `u`, the last taking any remainder — and its probability.
    /// `prob(i, k)` is operator `i`'s probability, asked in operator order
    /// and only up to the selected one.
    fn select(&self, u: f64, mut prob: impl FnMut(usize, &Mat2) -> f64) -> (&Mat2, f64) {
        let (last, leading) = self.ops.split_last().expect("a channel has an operator");
        let mut cdf = 0.0;
        for (i, k) in leading.iter().enumerate() {
            let p = prob(i, k);
            cdf += p;
            if u <= cdf {
                return (k, p);
            }
        }
        (last, prob(leading.len(), last))
    }

    /// The reference step on one state for the draw `u`: applies the
    /// operator [`Self::select`] picks against `state`'s Born
    /// probabilities and renormalizes. `p0`, when given, is operator 0's
    /// probability, already read.
    fn step(&self, state: &mut StateVec, q: usize, u: f64, p0: Option<f64>) {
        let (k, _) = self.select(u, |i, k| match p0 {
            Some(p) if i == 0 => p,
            _ => kraus_prob(state, k, q),
        });
        state.apply_1q(k, q);
        state.normalize();
    }
}

/// `|| K |ψ> ||²` for a one-qubit operator on qubit `q` of `state`: the
/// amplitude pairs `(i, i + 2^q)` in ascending base order, row 0 before
/// row 1, the order [`StateBatch::kraus_prob_and_norm`] matches.
fn kraus_prob(state: &StateVec, k: &Mat2, q: usize) -> f64 {
    let stride = 1usize << q;
    let [m00, m01, m10, m11] = k.m;
    let mut acc = 0.0;
    for pairs in state.amplitudes().chunks_exact(stride << 1) {
        let (lo, hi) = pairs.split_at(stride);
        for (&a0, &a1) in lo.iter().zip(hi) {
            acc += (m00 * a0 + m01 * a1).norm_sqr();
            acc += (m10 * a0 + m11 * a1).norm_sqr();
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_channels_are_trace_preserving() {
        for ch in [
            KrausChannel::depolarizing(0.1),
            KrausChannel::bit_flip(0.3),
            KrausChannel::phase_flip(0.05),
            KrausChannel::thermal_relaxation(50_000.0, 70_000.0, 300.0),
        ] {
            assert!(ch.is_trace_preserving(1e-10));
        }
    }

    #[test]
    fn zero_probability_channels_are_identity() {
        let ch = KrausChannel::depolarizing(0.0);
        let mut s = StateVec::zero_state(1);
        s.apply_1q(&Mat2::hadamard(), 0);
        let before = s.clone();
        let mut rng = StdRng::seed_from_u64(1);
        ch.apply_trajectory(&mut s, 0, &mut rng);
        assert!((s.inner(&before).abs() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn depolarizing_damps_expectation_on_average() {
        // <Z> of |0> under depolarizing(p) decays to (1-p) in expectation.
        let p = 0.4;
        let ch = KrausChannel::depolarizing(p);
        let mut rng = StdRng::seed_from_u64(123);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let mut s = StateVec::zero_state(1);
            ch.apply_trajectory(&mut s, 0, &mut rng);
            sum += s.expect_z(0);
        }
        let mean = sum / n as f64;
        assert!(
            (mean - (1.0 - p)).abs() < 0.02,
            "mean {mean} vs expected {}",
            1.0 - p
        );
    }

    #[test]
    fn bit_flip_flips_with_given_rate() {
        let p = 0.25;
        let ch = KrausChannel::bit_flip(p);
        let mut rng = StdRng::seed_from_u64(9);
        let n = 20_000;
        let mut flipped = 0;
        for _ in 0..n {
            let mut s = StateVec::zero_state(1);
            ch.apply_trajectory(&mut s, 0, &mut rng);
            if s.probability(1) > 0.5 {
                flipped += 1;
            }
        }
        let rate = flipped as f64 / n as f64;
        assert!((rate - p).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn thermal_relaxation_decays_excited_state() {
        // After t = T1, P(|1>) should be ~ e^{-1}.
        let t1 = 1000.0;
        let ch = KrausChannel::thermal_relaxation(t1, 1.2 * t1, t1);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let mut p1_sum = 0.0;
        for _ in 0..n {
            let mut s = StateVec::zero_state(1);
            s.apply_1q(&Mat2::pauli_x(), 0);
            ch.apply_trajectory(&mut s, 0, &mut rng);
            p1_sum += s.probability(1);
        }
        let p1 = p1_sum / n as f64;
        assert!((p1 - (-1.0f64).exp()).abs() < 0.02, "p1 {p1}");
    }

    #[test]
    #[should_panic(expected = "T2 must be <= 2*T1")]
    fn unphysical_t2_panics() {
        let _ = KrausChannel::thermal_relaxation(100.0, 300.0, 10.0);
    }

    #[test]
    fn all_lanes_trajectory_is_bit_identical_to_per_lane() {
        // The lanes-contiguous batched channel step must make the same
        // draws and produce the same amplitudes as applying the channel to
        // each lane's standalone single-state copy, at every chunk width.
        // The bit flip at p = 0.5 makes some lanes err at most steps; the
        // last multi-operator channel leads with a non-diagonal operator.
        // The start state has no exactly representable amplitudes, so sums
        // taken in another order than the per-lane path's would show.
        let (keep, flip) = (C64::real(0.9f64.sqrt()), C64::real(0.1f64.sqrt()));
        for ch in [
            KrausChannel::depolarizing(0.3),
            KrausChannel::thermal_relaxation(50_000.0, 70_000.0, 300.0),
            KrausChannel::bit_flip(0.5),
            KrausChannel::new(vec![
                Mat2::hadamard().scale(keep),
                Mat2::pauli_z().scale(flip),
            ]),
            KrausChannel::new(vec![Mat2::pauli_x()]), // single-op fast path
        ] {
            assert!(ch.is_trace_preserving(1e-12));
            for lanes in 1..=LANE_CHUNK {
                let mut fast = StateBatch::zero_state(3, lanes);
                for q in 0..3 {
                    let (s, c) = (0.4 + 0.3 * q as f64).sin_cos();
                    let rx = Mat2::new([
                        C64::real(c),
                        C64::new(0.0, -s),
                        C64::new(0.0, -s),
                        C64::real(c),
                    ]);
                    fast.apply_1q(&rx, q);
                }
                let mut singles: Vec<StateVec> = (0..lanes).map(|l| fast.lane_state(l)).collect();
                let mut rngs_f: Vec<StdRng> = (0..lanes)
                    .map(|l| StdRng::seed_from_u64(90 + l as u64))
                    .collect();
                let mut rngs_s = rngs_f.clone();
                for step in 0..30 {
                    let q = step % 3;
                    ch.apply_trajectory_all_lanes(&mut fast, q, &mut rngs_f);
                    for (single, rng) in singles.iter_mut().zip(&mut rngs_s) {
                        ch.apply_trajectory(single, q, rng);
                    }
                }
                for (lane, single) in singles.iter().enumerate() {
                    assert_eq!(
                        fast.lane_state(lane).amplitudes(),
                        single.amplitudes(),
                        "{lanes} lanes: lane {lane} diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn trajectory_preserves_norm() {
        let ch = KrausChannel::depolarizing(0.5);
        let mut rng = StdRng::seed_from_u64(77);
        let mut s = StateVec::zero_state(2);
        s.apply_1q(&Mat2::hadamard(), 0);
        for _ in 0..50 {
            ch.apply_trajectory(&mut s, 0, &mut rng);
            ch.apply_trajectory(&mut s, 1, &mut rng);
        }
        assert!((s.norm_sqr() - 1.0).abs() < 1e-9);
    }
}
