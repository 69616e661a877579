//! The five training-free proxies.
//!
//! Each proxy maps a candidate — a logical circuit plus its qubit mapping
//! on a device — to one `f64` feature. Features are *not* scores: their
//! scale and sign are arbitrary, and the [`crate::FusionModel`] learns how
//! to combine them against the estimator's full scores. What matters here
//! is that each feature is cheap (no transpile, no noisy trajectories) and
//! deterministic for a given `(candidate, seed)`.

use qns_circuit::Circuit;
use qns_noise::Device;
use qns_runtime::{ByteReader, CheckpointError, Checkpointable, Sink};
use qns_sim::{adjoint_gradient, adjoint_gradient_batch, DiagObservable, SimPlan, StateVec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of proxies in the default suite (the width of
/// [`ProxyFeatures`]).
pub const NUM_PROXIES: usize = 5;

/// The splitmix64 finalizer: a high-quality 64-bit mix used to derive
/// per-candidate seeds from structural digests.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic proxy seed for one candidate: the run seed mixed with
/// the candidate's 128-bit structural digest. Identical for the same
/// candidate at any worker count and across resume.
pub fn candidate_seed(run_seed: u64, digest_lo: u64, digest_hi: u64) -> u64 {
    splitmix64(run_seed ^ splitmix64(digest_lo ^ digest_hi.rotate_left(32)))
}

/// Everything a proxy may read about one candidate.
pub struct ProxyContext<'a> {
    /// The candidate's logical circuit (encoder included for QML).
    pub circuit: &'a Circuit,
    /// The target device model.
    pub device: &'a Device,
    /// Logical→physical qubit mapping.
    pub layout: &'a [usize],
    /// Deterministic seed for the sampled proxies
    /// (see [`candidate_seed`]).
    pub seed: u64,
}

/// One training-free proxy: a cheap, deterministic feature of a candidate.
pub trait Proxy {
    /// Stable identifier (used in telemetry and docs).
    fn name(&self) -> &'static str;
    /// The feature value. Scale and direction are proxy-specific; the
    /// fusion model learns the mapping to full scores.
    fn score(&self, cx: &ProxyContext<'_>) -> f64;
}

/// The per-candidate feature vector, one slot per proxy in
/// [`default_proxies`] order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProxyFeatures(pub [f64; NUM_PROXIES]);

impl ProxyFeatures {
    /// The poisoned vector recorded when feature computation panicked:
    /// never fused, never escalated by rank after warmup.
    pub fn poisoned() -> Self {
        ProxyFeatures([f64::INFINITY; NUM_PROXIES])
    }

    /// Whether every slot is finite (poisoned or NaN vectors are not).
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|v| v.is_finite())
    }
}

impl Checkpointable for ProxyFeatures {
    const MIN_BYTES: usize = <[f64; NUM_PROXIES]>::MIN_BYTES;
    fn encode(&self, out: &mut impl Sink) {
        self.0.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CheckpointError> {
        Ok(ProxyFeatures(Checkpointable::decode(r)?))
    }
}

/// Structural depth/width: circuit depth scaled by the active-qubit
/// fraction. Deeper, wider candidates accumulate more noise.
pub struct DepthWidth;

impl Proxy for DepthWidth {
    fn name(&self) -> &'static str {
        "depth_width"
    }

    fn score(&self, cx: &ProxyContext<'_>) -> f64 {
        let n = cx.circuit.num_qubits().max(1);
        let mut active = vec![false; n];
        for op in cx.circuit.iter() {
            for &q in &op.qubits[..op.num_qubits()] {
                if q < n {
                    active[q] = true;
                }
            }
        }
        let width = active.iter().filter(|&&a| a).count() as f64 / n as f64;
        cx.circuit.depth() as f64 * (1.0 + width)
    }
}

/// 2Q-gate topology cost: the summed device error of every two-qubit gate
/// under the candidate's mapping, with a 3× routing penalty when the
/// mapped pair is not coupled (the transpiler will have to insert SWAPs).
/// Pure circuit analysis — no transpile.
pub struct TwoQTopology;

/// Penalty factor for a 2Q gate whose mapped qubits are not adjacent.
const UNCOUPLED_PENALTY: f64 = 3.0;

impl Proxy for TwoQTopology {
    fn name(&self) -> &'static str {
        "twoq_topology"
    }

    fn score(&self, cx: &ProxyContext<'_>) -> f64 {
        let mut cost = 0.0;
        for op in cx.circuit.iter() {
            if op.num_qubits() != 2 {
                continue;
            }
            let (a, b) = (op.qubits[0], op.qubits[1]);
            match (cx.layout.get(a), cx.layout.get(b)) {
                (Some(&pa), Some(&pb)) => {
                    let e = cx.device.err_2q(pa, pb);
                    if cx.device.connected(pa, pb) {
                        cost += e;
                    } else {
                        cost += UNCOUPLED_PENALTY * e;
                    }
                }
                // Unmapped logical qubit: worst plausible edge.
                _ => cost += UNCOUPLED_PENALTY * cx.device.mean_err_2q().max(0.02),
            }
        }
        cost
    }
}

/// Expressibility: how far the candidate's output-state fidelity
/// distribution sits from the Haar baseline, estimated from a handful of
/// seeded parameter draws. For Haar-random states the expected pairwise
/// fidelity is `1/2^n`; circuits that barely move the state have mean
/// fidelity near 1. Smaller is more expressive.
pub struct Expressibility {
    /// Parameter draws (`S` states → `S(S-1)/2` fidelity pairs).
    pub draws: usize,
}

impl Default for Expressibility {
    fn default() -> Self {
        Expressibility { draws: 6 }
    }
}

impl Proxy for Expressibility {
    fn name(&self) -> &'static str {
        "expressibility"
    }

    fn score(&self, cx: &ProxyContext<'_>) -> f64 {
        let n = cx.circuit.num_qubits();
        let n_params = cx.circuit.num_train_params();
        let input = vec![0.0; cx.circuit.num_inputs()];
        let mut rng = StdRng::seed_from_u64(cx.seed ^ 0xE4_9E55);
        let plan = SimPlan::compile(cx.circuit);
        let states: Vec<StateVec> = (0..self.draws.max(2))
            .map(|_| {
                let params = draw_angles(&mut rng, n_params);
                let mut state = StateVec::zero_state(n);
                plan.execute_into(cx.circuit, &params, &input, &mut state);
                state
            })
            .collect();
        let mut fid_sum = 0.0;
        let mut pairs = 0usize;
        for i in 0..states.len() {
            for j in (i + 1)..states.len() {
                fid_sum += states[i].inner(&states[j]).norm_sqr();
                pairs += 1;
            }
        }
        let mean_fid = fid_sum / pairs as f64;
        let haar = 1.0 / (1u64 << n.min(63)) as f64;
        (mean_fid - haar).abs()
    }
}

/// Trainability: pooled gradient variance over seeded initializations —
/// the barren-plateau diagnostic. The observable is `Z` on qubit 0 (the
/// McClean et al. convention); near-zero variance means the landscape is
/// flat and the candidate will train poorly.
pub struct Trainability {
    /// Parameter draws to pool the variance over.
    pub draws: usize,
}

impl Default for Trainability {
    fn default() -> Self {
        Trainability { draws: 4 }
    }
}

impl Proxy for Trainability {
    fn name(&self) -> &'static str {
        "trainability"
    }

    fn score(&self, cx: &ProxyContext<'_>) -> f64 {
        let n_params = cx.circuit.num_train_params();
        if n_params == 0 {
            return 0.0;
        }
        let mut w = vec![0.0; cx.circuit.num_qubits()];
        w[0] = 1.0;
        let obs = DiagObservable::new(w);
        let input = vec![0.0; cx.circuit.num_inputs()];
        let mut rng = StdRng::seed_from_u64(cx.seed ^ 0x7_2A14);
        let mut entries: Vec<f64> = Vec::with_capacity(self.draws.max(1) * n_params);
        for _ in 0..self.draws.max(1) {
            let params = draw_angles(&mut rng, n_params);
            let (_, g) = adjoint_gradient(cx.circuit, &params, &input, &obs);
            entries.extend(g);
        }
        let mean = entries.iter().sum::<f64>() / entries.len() as f64;
        entries.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / entries.len() as f64
    }
}

/// SNIP-style saliency: `Σ|θ_i · ∂L/∂θ_i|` at one seeded initialization,
/// from a single batched adjoint pass over a few seeded input lanes (one
/// all-zeros lane when the circuit takes no inputs). High saliency means
/// the parameters have leverage over the output at initialization.
pub struct Snip {
    /// Input lanes for the batched adjoint pass (QML circuits).
    pub lanes: usize,
}

impl Default for Snip {
    fn default() -> Self {
        Snip { lanes: 2 }
    }
}

impl Proxy for Snip {
    fn name(&self) -> &'static str {
        "snip"
    }

    fn score(&self, cx: &ProxyContext<'_>) -> f64 {
        let n_params = cx.circuit.num_train_params();
        if n_params == 0 {
            return 0.0;
        }
        let n = cx.circuit.num_qubits();
        let mut rng = StdRng::seed_from_u64(cx.seed ^ 0x5_41B9);
        let params = draw_angles(&mut rng, n_params);
        let n_inputs = cx.circuit.num_inputs();
        let lanes = if n_inputs == 0 { 1 } else { self.lanes.max(1) };
        let inputs: Vec<Vec<f64>> = (0..lanes)
            .map(|_| (0..n_inputs).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let input_refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        let weight = 1.0 / n as f64;
        let (_, grad) = adjoint_gradient_batch(cx.circuit, &params, &input_refs, |_, ez| {
            (ez.iter().sum::<f64>() * weight, vec![weight; n])
        });
        params
            .iter()
            .zip(&grad)
            .map(|(t, g)| (t * g).abs())
            .sum::<f64>()
            / lanes as f64
    }
}

/// Uniform angle draws in `[-π, π)` — the same convention as the
/// barren-plateau probes.
fn draw_angles(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI))
        .collect()
}

/// The default proxy suite, in [`ProxyFeatures`] slot order.
pub fn default_proxies() -> Vec<Box<dyn Proxy + Send + Sync>> {
    vec![
        Box::new(DepthWidth),
        Box::new(TwoQTopology),
        Box::new(Expressibility::default()),
        Box::new(Trainability::default()),
        Box::new(Snip::default()),
    ]
}

/// Runs the default suite over one candidate.
pub fn compute_features(cx: &ProxyContext<'_>) -> ProxyFeatures {
    let mut out = [0.0; NUM_PROXIES];
    for (slot, proxy) in out.iter_mut().zip(default_proxies()) {
        *slot = proxy.score(cx);
    }
    ProxyFeatures(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qns_circuit::{GateKind, Param};

    /// A small parameterized candidate: RY(input) encoders, then U3+CX
    /// layers over `n` qubits.
    fn candidate(n: usize, layers: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.push(GateKind::RY, &[q], &[Param::Input(q)]);
        }
        let mut t = 0;
        for _ in 0..layers {
            for q in 0..n {
                c.push(
                    GateKind::U3,
                    &[q],
                    &[Param::Train(t), Param::Train(t + 1), Param::Train(t + 2)],
                );
                t += 3;
            }
            for q in 0..n {
                c.push(GateKind::CX, &[q, (q + 1) % n], &[]);
            }
        }
        c
    }

    fn cx<'a>(circuit: &'a Circuit, device: &'a Device, layout: &'a [usize]) -> ProxyContext<'a> {
        ProxyContext {
            circuit,
            device,
            layout,
            seed: 11,
        }
    }

    #[test]
    fn features_are_finite_and_deterministic() {
        let circuit = candidate(4, 2);
        let device = Device::yorktown();
        let layout = [0, 1, 2, 3];
        let a = compute_features(&cx(&circuit, &device, &layout));
        let b = compute_features(&cx(&circuit, &device, &layout));
        assert!(a.is_finite(), "{a:?}");
        for (x, y) in a.0.iter().zip(&b.0) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "proxy features must be bitwise stable"
            );
        }
    }

    #[test]
    fn seed_changes_sampled_proxies_only() {
        let circuit = candidate(4, 2);
        let device = Device::yorktown();
        let layout = [0, 1, 2, 3];
        let a = compute_features(&ProxyContext {
            seed: 1,
            ..cx(&circuit, &device, &layout)
        });
        let b = compute_features(&ProxyContext {
            seed: 2,
            ..cx(&circuit, &device, &layout)
        });
        // Structural proxies (slots 0, 1) ignore the seed.
        assert_eq!(a.0[0].to_bits(), b.0[0].to_bits());
        assert_eq!(a.0[1].to_bits(), b.0[1].to_bits());
        // At least one sampled proxy must move with the seed.
        assert!(
            a.0[2] != b.0[2] || a.0[3] != b.0[3] || a.0[4] != b.0[4],
            "sampled proxies ignored the seed: {a:?}"
        );
    }

    #[test]
    fn depth_width_grows_with_layers() {
        let device = Device::yorktown();
        let layout = [0, 1, 2, 3];
        let shallow = candidate(4, 1);
        let deep = candidate(4, 3);
        let s = DepthWidth.score(&cx(&shallow, &device, &layout));
        let d = DepthWidth.score(&cx(&deep, &device, &layout));
        assert!(d > s, "deep {d} vs shallow {s}");
    }

    #[test]
    fn topology_penalizes_uncoupled_mappings() {
        let device = Device::yorktown();
        let circuit = candidate(4, 1);
        // Yorktown's bowtie couples (0,1),(0,2),(1,2),(2,3),(2,4),(3,4):
        // the trivial layout keeps the ring mostly coupled, while mapping
        // neighbors to opposite wings forces uncoupled pairs.
        let good = TwoQTopology.score(&cx(&circuit, &device, &[0, 1, 2, 3]));
        let bad = TwoQTopology.score(&cx(&circuit, &device, &[0, 3, 1, 4]));
        assert!(bad > good, "bad {bad} vs good {good}");
    }

    #[test]
    fn expressibility_separates_identity_from_entangler() {
        let device = Device::yorktown();
        let layout = [0, 1, 2, 3];
        // A circuit with no trainable gates never moves the zero state:
        // mean fidelity 1, far from Haar.
        let frozen = Circuit::new(4);
        let rich = candidate(4, 2);
        let f = Expressibility::default().score(&cx(&frozen, &device, &layout));
        let r = Expressibility::default().score(&cx(&rich, &device, &layout));
        assert!(f > r, "frozen {f} should be less expressive than rich {r}");
    }

    #[test]
    fn trainability_and_snip_vanish_without_parameters() {
        let device = Device::yorktown();
        let layout = [0, 1];
        let mut c = Circuit::new(2);
        c.push(GateKind::H, &[0], &[]);
        c.push(GateKind::CX, &[0, 1], &[]);
        let t = Trainability::default().score(&cx(&c, &device, &layout));
        let s = Snip::default().score(&cx(&c, &device, &layout));
        assert_eq!(t, 0.0);
        assert_eq!(s, 0.0);
    }

    #[test]
    fn snip_is_positive_for_parameterized_circuits() {
        let device = Device::yorktown();
        let layout = [0, 1, 2, 3];
        let circuit = candidate(4, 2);
        let s = Snip::default().score(&cx(&circuit, &device, &layout));
        assert!(s > 0.0, "saliency {s}");
    }

    #[test]
    fn candidate_seeds_decorrelate_digests() {
        let a = candidate_seed(7, 1, 2);
        let b = candidate_seed(7, 2, 1);
        let c = candidate_seed(8, 1, 2);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, candidate_seed(7, 1, 2));
    }
}
