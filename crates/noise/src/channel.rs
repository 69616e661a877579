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
        // Fast path: a single Kraus operator is deterministic.
        if self.ops.len() == 1 {
            state.apply_1q(&self.ops[0], q);
            state.normalize();
            return;
        }
        let u: f64 = rng.gen();
        let mut cdf = 0.0;
        for (i, k) in self.ops.iter().enumerate() {
            // p_i = || K_i ψ ||²; compute without cloning the full state
            // by accumulating the local norm after applying K_i per pair.
            let p = kraus_prob(state, k, q);
            cdf += p;
            if u <= cdf || i == self.ops.len() - 1 {
                state.apply_1q(k, q);
                state.normalize();
                return;
            }
        }
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
        if self.ops.len() == 1 {
            let p = mps.kraus_prob(&self.ops[0], q);
            mps.apply_kraus_1q(&self.ops[0], q, p);
            return;
        }
        let u: f64 = rng.gen();
        let mut cdf = 0.0;
        for (i, k) in self.ops.iter().enumerate() {
            let p = mps.kraus_prob(k, q);
            cdf += p;
            if u <= cdf || i == self.ops.len() - 1 {
                mps.apply_kraus_1q(k, q, p);
                return;
            }
        }
    }

    /// One stochastic trajectory step on **every** lane of a batch at
    /// once, drawing from `rngs[lane]`. Per lane this is bit-identical to
    /// [`KrausChannel::apply_trajectory`] on that lane's state: each lane
    /// makes the same draw from its own RNG, walks the same Born CDF, and
    /// applies the same operator and renormalization. The Born probability
    /// of the leading (no-error) operator and the renormalization each run
    /// as one lanes-contiguous sweep; lanes whose draw falls past the
    /// leading operator (rare at hardware error rates) finish their CDF
    /// walk on the per-lane path. When every lane keeps the leading
    /// operator, it is applied as one shared sweep; otherwise each lane's
    /// chosen operator goes through [`StateBatch::apply_1q_per_lane`].
    ///
    /// Draws, probabilities and choices live in fixed [`LANE_CHUNK`]-wide
    /// arrays, so the step does not allocate unless some lane errs; the
    /// trajectory executor never builds a wider batch.
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
        if self.ops.len() == 1 {
            batch.apply_1q(&self.ops[0], q);
            batch.normalize_lanes();
            return;
        }
        let mut us = [0.0; LANE_CHUNK];
        for (u, rng) in us.iter_mut().zip(rngs.iter_mut()) {
            *u = rng.gen();
        }
        let mut p0 = [0.0; LANE_CHUNK];
        batch.kraus_probs(&self.ops[0], q, &mut p0[..lanes]);
        let mut chosen = [0usize; LANE_CHUNK];
        let draws = us.iter().zip(&p0).take(lanes).enumerate();
        for ((lane, (&u, &p)), c) in draws.zip(&mut chosen) {
            *c = if u <= p {
                0
            } else {
                self.choose_past_leading(batch, lane, q, u, p)
            };
        }
        if chosen[..lanes].iter().all(|&i| i == 0) {
            batch.apply_1q(&self.ops[0], q);
        } else {
            let mut ms = [self.ops[0]; LANE_CHUNK];
            for (m, &i) in ms.iter_mut().zip(&chosen) {
                *m = self.ops[i];
            }
            batch.apply_1q_per_lane(&ms[..lanes], q);
        }
        batch.normalize_lanes();
    }

    /// The operator `lane` draws with a `u` past `p0`, the Born probability
    /// of the leading operator: the rest of the CDF walk of
    /// [`KrausChannel::apply_trajectory`], from operator 1. The last
    /// operator takes any remainder.
    fn choose_past_leading(
        &self,
        batch: &StateBatch,
        lane: usize,
        q: usize,
        u: f64,
        p0: f64,
    ) -> usize {
        let last = self.ops.len() - 1;
        let mut cdf = p0;
        for (i, k) in self.ops.iter().enumerate().take(last).skip(1) {
            cdf += kraus_prob_lane(batch, lane, k, q);
            if u <= cdf {
                return i;
            }
        }
        last
    }
}

/// [`kraus_prob`] for one lane of a batch: the same base-loop accumulation
/// order over that lane's amplitudes.
fn kraus_prob_lane(batch: &StateBatch, lane: usize, k: &Mat2, q: usize) -> f64 {
    let l = batch.lanes();
    let stride = 1usize << q;
    let len = 1usize << batch.num_qubits();
    let [m00, m01, m10, m11] = k.m;
    let mut acc = 0.0;
    let mut base = 0;
    while base < len {
        for i in base..base + stride {
            let a0 = batch.amp(i * l + lane);
            let a1 = batch.amp((i + stride) * l + lane);
            acc += (m00 * a0 + m01 * a1).norm_sqr();
            acc += (m10 * a0 + m11 * a1).norm_sqr();
        }
        base += stride << 1;
    }
    acc
}

/// `|| K |ψ> ||²` for a one-qubit operator on qubit `q`.
fn kraus_prob(state: &StateVec, k: &Mat2, q: usize) -> f64 {
    let stride = 1usize << q;
    let amps = state.amplitudes();
    let [m00, m01, m10, m11] = k.m;
    let mut acc = 0.0;
    let len = amps.len();
    let mut base = 0;
    while base < len {
        for i in base..base + stride {
            let a0 = amps[i];
            let a1 = amps[i + stride];
            acc += (m00 * a0 + m01 * a1).norm_sqr();
            acc += (m10 * a0 + m11 * a1).norm_sqr();
        }
        base += stride << 1;
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
        // each lane's standalone single-state copy.
        for ch in [
            KrausChannel::depolarizing(0.3),
            KrausChannel::thermal_relaxation(50_000.0, 70_000.0, 300.0),
            KrausChannel::new(vec![Mat2::pauli_x()]), // single-op fast path
        ] {
            let lanes = 5;
            let mut fast = StateBatch::zero_state(3, lanes);
            fast.apply_1q(&Mat2::hadamard(), 0);
            fast.apply_1q(&Mat2::hadamard(), 2);
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
                    "lane {lane} diverged"
                );
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
