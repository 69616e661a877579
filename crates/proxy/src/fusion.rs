//! Adaptive proxy fusion: per-proxy normalization feeding softmax-gated
//! linear experts, trained online against the estimator's full scores.
//!
//! Raw proxy features live on wildly different scales (a depth count vs. a
//! summed gate error vs. a gradient variance), and which proxy predicts
//! the full score best depends on the task, device, and even the search
//! phase. Following AFTP-QAS, a small Mixture-of-Experts learns the
//! combination on the fly: every candidate the search fully scores anyway
//! becomes one `(features, score)` observation, so fusion costs nothing
//! beyond the arithmetic below.
//!
//! Determinism: expert and gate weights are initialized from fixed
//! symmetry-breaking patterns (no RNG), observations are applied in
//! deterministic batch order by the caller, and the whole model serializes
//! through the checkpoint wire format so a resumed search continues from
//! bit-identical fusion weights.

use crate::proxies::{ProxyFeatures, NUM_PROXIES};
use qns_runtime::checkpointable;

/// Number of gated linear experts.
pub const NUM_EXPERTS: usize = 3;

/// Normalized values are clipped to this band so one outlier candidate
/// cannot blow up the online updates.
const Z_CLIP: f64 = 8.0;

/// The squared-error gradient is clipped to this band per observation.
const GRAD_CLIP: f64 = 4.0;

/// Welford running mean/variance, used to normalize each feature and the
/// target score as observations stream in.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Welford {
    count: f64,
    mean: f64,
    m2: f64,
}

checkpointable!(Welford {
    count: f64,
    mean: f64,
    m2: f64,
});

impl Welford {
    fn update(&mut self, x: f64) {
        self.count += 1.0;
        let delta = x - self.mean;
        self.mean += delta / self.count;
        self.m2 += delta * (x - self.mean);
    }

    /// Standard deviation with a floor of 1 until two observations exist
    /// (and for degenerate constant features), so normalization is always
    /// well-defined.
    fn std(&self) -> f64 {
        if self.count < 2.0 {
            return 1.0;
        }
        let var = self.m2 / (self.count - 1.0);
        if var > 1e-24 {
            var.sqrt()
        } else {
            1.0
        }
    }
}

/// Softmax-gated linear experts over normalized proxy features.
///
/// Each expert is affine in the normalized features; a softmax gate (also
/// affine) mixes them. Predictions are denormalized back to the full-score
/// scale, so [`FusionModel::predict`] is directly comparable to estimator
/// scores (lower is better).
#[derive(Clone, Debug, PartialEq)]
pub struct FusionModel {
    feat: [Welford; NUM_PROXIES],
    target: Welford,
    /// Expert weights: `NUM_PROXIES` feature slots plus a bias slot.
    experts: [[f64; NUM_PROXIES + 1]; NUM_EXPERTS],
    /// Gate weights, same shape.
    gates: [[f64; NUM_PROXIES + 1]; NUM_EXPERTS],
    observed: u64,
    lr: f64,
}

impl Default for FusionModel {
    fn default() -> Self {
        Self::new()
    }
}

impl FusionModel {
    /// A fresh model with deterministic symmetry-breaking gate patterns
    /// (experts start at zero; identical gates would never specialize).
    pub fn new() -> Self {
        let mut gates = [[0.0; NUM_PROXIES + 1]; NUM_EXPERTS];
        for (k, gate) in gates.iter_mut().enumerate() {
            for (i, g) in gate.iter_mut().enumerate().take(NUM_PROXIES) {
                *g = 0.05 * (((i + k) % 3) as f64 - 1.0);
            }
        }
        FusionModel {
            feat: [Welford::default(); NUM_PROXIES],
            target: Welford::default(),
            experts: [[0.0; NUM_PROXIES + 1]; NUM_EXPERTS],
            gates,
            observed: 0,
            lr: 0.05,
        }
    }

    /// Observations consumed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    fn normalize(&self, f: &ProxyFeatures) -> [f64; NUM_PROXIES + 1] {
        let mut z = [0.0; NUM_PROXIES + 1];
        for (zi, (&fi, norm)) in z.iter_mut().zip(f.0.iter().zip(&self.feat)) {
            *zi = ((fi - norm.mean) / norm.std()).clamp(-Z_CLIP, Z_CLIP);
        }
        z[NUM_PROXIES] = 1.0;
        z
    }

    fn forward(&self, z: &[f64; NUM_PROXIES + 1]) -> ([f64; NUM_EXPERTS], [f64; NUM_EXPERTS], f64) {
        let mut experts = [0.0; NUM_EXPERTS];
        let mut logits = [0.0; NUM_EXPERTS];
        for k in 0..NUM_EXPERTS {
            experts[k] = dot(&self.experts[k], z);
            logits[k] = dot(&self.gates[k], z);
        }
        let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut gate = [0.0; NUM_EXPERTS];
        let mut sum = 0.0;
        for k in 0..NUM_EXPERTS {
            gate[k] = (logits[k] - max).exp();
            sum += gate[k];
        }
        for g in &mut gate {
            *g /= sum;
        }
        let y = experts.iter().zip(&gate).map(|(e, g)| e * g).sum::<f64>();
        (experts, gate, y)
    }

    /// The predicted full score for a feature vector (lower is better,
    /// same scale as the estimator). Non-finite features predict `+inf`
    /// so poisoned candidates always rank last.
    pub fn predict(&self, f: &ProxyFeatures) -> f64 {
        if !f.is_finite() {
            return f64::INFINITY;
        }
        let z = self.normalize(f);
        let (_, _, yn) = self.forward(&z);
        yn * self.target.std() + self.target.mean
    }

    /// Consumes one `(features, full score)` observation: updates the
    /// running normalizers, then takes one clipped SGD step on the squared
    /// prediction error. Non-finite features or scores are skipped —
    /// poisoned candidates must not corrupt the model.
    pub fn observe(&mut self, f: &ProxyFeatures, score: f64) {
        if !f.is_finite() || !score.is_finite() {
            return;
        }
        for (w, x) in self.feat.iter_mut().zip(&f.0) {
            w.update(*x);
        }
        self.target.update(score);
        self.observed += 1;

        let z = self.normalize(f);
        let yn = (score - self.target.mean) / self.target.std();
        let (experts, gate, pred) = self.forward(&z);
        let dy = (2.0 * (pred - yn)).clamp(-GRAD_CLIP, GRAD_CLIP);
        for k in 0..NUM_EXPERTS {
            // Expert k sees the error in proportion to its gate weight.
            let de = dy * gate[k];
            for (w, zi) in self.experts[k].iter_mut().zip(&z) {
                *w -= self.lr * de * zi;
            }
            // Softmax backward: a gate grows when its expert beats the mix.
            let da = dy * gate[k] * (experts[k] - pred);
            for (v, zi) in self.gates[k].iter_mut().zip(&z) {
                *v -= self.lr * da * zi;
            }
        }
    }
}

checkpointable!(FusionModel {
    feat: [Welford; NUM_PROXIES],
    target: Welford,
    experts: [[f64; NUM_PROXIES + 1]; NUM_EXPERTS],
    gates: [[f64; NUM_PROXIES + 1]; NUM_EXPERTS],
    observed: u64,
    lr: f64,
});

fn dot(w: &[f64; NUM_PROXIES + 1], z: &[f64; NUM_PROXIES + 1]) -> f64 {
    w.iter().zip(z).map(|(a, b)| a * b).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qns_runtime::{ByteReader, ByteWriter, Checkpointable};

    fn feat(xs: [f64; NUM_PROXIES]) -> ProxyFeatures {
        ProxyFeatures(xs)
    }

    /// Synthetic task: the true score is a linear function of feature 1.
    fn synthetic(i: usize) -> (ProxyFeatures, f64) {
        let x = (i % 17) as f64 * 0.3 - 2.0;
        let noise = ((i * 7 + 3) % 5) as f64 * 0.01;
        (
            feat([1.0, x, 0.5 * x + 1.0, -0.2, 3.0]),
            2.0 * x + 0.5 + noise,
        )
    }

    #[test]
    fn learns_a_monotone_feature_map() {
        let mut model = FusionModel::new();
        for round in 0..20 {
            for i in 0..17 {
                let (f, y) = synthetic(round * 17 + i);
                model.observe(&f, y);
            }
        }
        // Rank agreement: higher x must predict higher score.
        let lo = model.predict(&feat([1.0, -2.0, 0.0, -0.2, 3.0]));
        let mid = model.predict(&feat([1.0, 0.0, 1.0, -0.2, 3.0]));
        let hi = model.predict(&feat([1.0, 2.0, 2.0, -0.2, 3.0]));
        assert!(lo < mid && mid < hi, "{lo} {mid} {hi}");
    }

    #[test]
    fn poisoned_features_predict_infinity_and_are_skipped() {
        let mut model = FusionModel::new();
        let before = model.clone();
        model.observe(&ProxyFeatures::poisoned(), 1.0);
        model.observe(&feat([0.0; NUM_PROXIES]), f64::INFINITY);
        assert_eq!(model, before, "non-finite observations must be no-ops");
        assert!(model.predict(&ProxyFeatures::poisoned()).is_infinite());
    }

    #[test]
    fn observations_are_order_deterministic() {
        let mut a = FusionModel::new();
        let mut b = FusionModel::new();
        for i in 0..50 {
            let (f, y) = synthetic(i);
            a.observe(&f, y);
            b.observe(&f, y);
        }
        assert_eq!(a, b);
        let f = feat([0.3, 0.1, -0.2, 0.4, 0.0]);
        assert_eq!(a.predict(&f).to_bits(), b.predict(&f).to_bits());
    }

    #[test]
    fn model_round_trips_through_wire_format() {
        let mut model = FusionModel::new();
        for i in 0..23 {
            let (f, y) = synthetic(i);
            model.observe(&f, y);
        }
        let mut w = ByteWriter::new();
        model.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = FusionModel::decode(&mut r).expect("decode");
        assert_eq!(model, back);
        let f = feat([1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(model.predict(&f).to_bits(), back.predict(&f).to_bits());
    }

    #[test]
    fn prediction_before_observations_is_finite() {
        let model = FusionModel::new();
        assert!(model.predict(&feat([1.0; NUM_PROXIES])).is_finite());
        assert_eq!(model.observed(), 0);
    }
}
