//! The prescreening stage: caches proxy features under the search's
//! structural digests, ranks a generation with the fusion model, and
//! decides which fraction escalates to full estimator scoring.
//!
//! The prescreener is a cascade filter. Every candidate gets the cheap
//! proxy treatment ([`crate::compute_features`], microseconds to a few
//! milliseconds); only the most promising `keep` fraction pays for
//! transpile + noisy simulation. Because the full scores of escalated
//! candidates flow back through [`Prescreener::observe`], the fusion model
//! keeps calibrating itself against exactly the distribution the search is
//! exploring — no offline training set required.
//!
//! [`PrescreenerState`] captures everything (fusion weights, the feature
//! cache, telemetry counters) in the checkpoint wire format so a resumed
//! search continues bitwise-identically.

use crate::fusion::FusionModel;
use crate::proxies::ProxyFeatures;
use qns_runtime::{checkpointable, CacheKey, DigestCache};

/// How the prescreening stage behaves; carried on the search config.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProxyOptions {
    /// Whether prescreening runs at all. Off by default: the proxy-off
    /// search path must stay bitwise-identical to the pre-proxy engine.
    pub enabled: bool,
    /// Fraction of each generation escalated to full scoring, in (0, 1].
    pub keep: f64,
    /// Number of leading generations scored in full regardless of `keep`,
    /// so the fusion model has observations before it starts gating.
    pub warmup: usize,
}

impl Default for ProxyOptions {
    fn default() -> Self {
        ProxyOptions {
            enabled: false,
            keep: 0.25,
            warmup: 2,
        }
    }
}

/// Per-search prescreening state: fusion model plus a content-addressed
/// feature cache keyed by the same 128-bit structural digests the score
/// memo uses.
#[derive(Debug)]
pub struct Prescreener {
    options: ProxyOptions,
    fusion: FusionModel,
    features: DigestCache<ProxyFeatures>,
}

impl Prescreener {
    /// A fresh prescreener.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < keep <= 1`.
    pub fn new(options: ProxyOptions) -> Self {
        assert!(
            options.keep > 0.0 && options.keep <= 1.0,
            "proxy keep fraction must be in (0, 1], got {}",
            options.keep
        );
        Prescreener {
            options,
            fusion: FusionModel::new(),
            features: DigestCache::new(),
        }
    }

    /// Rebuilds a prescreener from checkpointed state.
    pub fn from_state(options: ProxyOptions, state: &PrescreenerState) -> Self {
        let pre = Prescreener {
            options,
            fusion: state.fusion.clone(),
            features: DigestCache::new(),
        };
        for (key, feats) in &state.features {
            pre.features.insert(*key, *feats);
        }
        pre
    }

    /// The options this prescreener runs with.
    pub fn options(&self) -> &ProxyOptions {
        &self.options
    }

    /// Cached proxy features for a candidate digest, if already computed.
    pub fn cached_features(&self, key: CacheKey) -> Option<ProxyFeatures> {
        self.features.get(key).map(|f| *f)
    }

    /// Records freshly computed features under a candidate digest.
    pub fn record_features(&self, key: CacheKey, feats: ProxyFeatures) {
        self.features.insert(key, feats);
    }

    /// Predicted full score for a feature vector (lower is better).
    pub fn predict(&self, feats: &ProxyFeatures) -> f64 {
        self.fusion.predict(feats)
    }

    /// Feeds one escalated candidate's full score back into the fusion
    /// model.
    pub fn observe(&mut self, feats: &ProxyFeatures, score: f64) {
        self.fusion.observe(feats, score);
    }

    /// Full-score observations consumed so far.
    pub fn observed(&self) -> u64 {
        self.fusion.observed()
    }

    /// How many of `unique` deduplicated candidates escalate to full
    /// scoring for a generation of nominal size `population`.
    ///
    /// `ceil(keep * population)`, clamped so at least `parents` candidates
    /// (the selection pressure the evolution needs, never fewer than 2)
    /// and at most every unique candidate get scored.
    pub fn escalation_count(&self, population: usize, parents: usize, unique: usize) -> usize {
        let nominal = (self.options.keep * population as f64).ceil() as usize;
        nominal.max(parents.max(2)).min(unique)
    }

    /// Indices of the `count` best-predicted candidates, ties broken by
    /// position, returned in ascending index order so the escalated batch
    /// preserves population order.
    pub fn select(&self, predicted: &[f64], count: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..predicted.len()).collect();
        order.sort_by(|&a, &b| {
            predicted[a]
                .total_cmp(&predicted[b])
                .then_with(|| a.cmp(&b))
        });
        order.truncate(count);
        order.sort_unstable();
        order
    }

    /// Captures the full prescreening state (plus the search-side counters
    /// it rides along with) for checkpointing.
    pub fn snapshot(
        &self,
        proxy_evals: u64,
        proxy_escalations: u64,
        proxy_dedup_hits: u64,
    ) -> PrescreenerState {
        PrescreenerState {
            fusion: self.fusion.clone(),
            features: self.features.entries(),
            proxy_evals,
            proxy_escalations,
            proxy_dedup_hits,
        }
    }
}

/// Collapses a batch of objective vectors into one scalar target per
/// candidate for the fusion model, so the same prescreener that learns
/// scalar search scores can learn multi-objective Pareto fitness.
///
/// Each dimension is min-max normalized over the batch's finite values and
/// the normalized coordinates are averaged, so every objective carries the
/// same weight regardless of its native scale (a loss near 0.4 vs a depth
/// near 40). A candidate with any non-finite component (poisoned score,
/// failed compile) scalarizes to `+inf` and ranks last. A dimension whose
/// finite values are all equal contributes 0 for every candidate — it
/// cannot order the batch. Deterministic: a pure fold over the input order.
///
/// A one-dimension batch is returned unchanged, so a single-objective
/// search trains the fusion model on its raw scores.
pub fn scalarize_objectives(batch: &[Vec<f64>]) -> Vec<f64> {
    let Some(first) = batch.first() else {
        return Vec::new();
    };
    let dims = first.len();
    if dims == 1 {
        return batch.iter().map(|objs| objs[0]).collect();
    }
    let mut lo = vec![f64::INFINITY; dims];
    let mut hi = vec![f64::NEG_INFINITY; dims];
    for objs in batch {
        for (k, &v) in objs.iter().enumerate() {
            if v.is_finite() {
                lo[k] = lo[k].min(v);
                hi[k] = hi[k].max(v);
            }
        }
    }
    batch
        .iter()
        .map(|objs| {
            if objs.iter().any(|v| !v.is_finite()) {
                return f64::INFINITY;
            }
            let mut sum = 0.0;
            for (k, &v) in objs.iter().enumerate() {
                let range = hi[k] - lo[k];
                if range.is_finite() && range > 0.0 {
                    sum += (v - lo[k]) / range;
                }
            }
            sum / dims.max(1) as f64
        })
        .collect()
}

/// Serializable prescreener snapshot, embedded in the search checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct PrescreenerState {
    /// Fusion model weights and normalizers.
    pub fusion: FusionModel,
    /// Feature cache entries, sorted by digest for bitwise-stable bytes.
    pub features: Vec<(CacheKey, ProxyFeatures)>,
    /// Candidates whose proxy features were computed (cache misses).
    pub proxy_evals: u64,
    /// Candidates escalated to full estimator scoring.
    pub proxy_escalations: u64,
    /// Structurally-duplicate offspring skipped before any scoring.
    pub proxy_dedup_hits: u64,
}

checkpointable!(PrescreenerState {
    fusion: FusionModel,
    features: Vec<(CacheKey, ProxyFeatures)>,
    proxy_evals: u64,
    proxy_escalations: u64,
    proxy_dedup_hits: u64,
});

#[cfg(test)]
mod tests {
    use super::*;
    use qns_runtime::{ByteReader, ByteWriter, Checkpointable};

    fn key(n: u64) -> CacheKey {
        CacheKey {
            lo: n,
            hi: n.wrapping_mul(0x9E3779B97F4A7C15),
        }
    }

    fn feat(b: f64) -> ProxyFeatures {
        ProxyFeatures([b, b + 1.0, b * 2.0, -b, b * 0.5])
    }

    #[test]
    fn escalation_count_clamps_to_parents_and_unique() {
        let pre = Prescreener::new(ProxyOptions {
            enabled: true,
            keep: 0.25,
            warmup: 0,
        });
        // ceil(0.25 * 48) = 12 of 48 unique.
        assert_eq!(pre.escalation_count(48, 4, 48), 12);
        // Never fewer than parents (or 2)...
        assert_eq!(pre.escalation_count(8, 6, 8), 6);
        assert_eq!(pre.escalation_count(4, 1, 4), 2);
        // ...and never more than the unique candidates available.
        assert_eq!(pre.escalation_count(48, 4, 5), 5);
        assert_eq!(pre.escalation_count(48, 4, 0), 0);
    }

    #[test]
    #[should_panic(expected = "keep fraction")]
    fn zero_keep_is_rejected() {
        Prescreener::new(ProxyOptions {
            enabled: true,
            keep: 0.0,
            warmup: 0,
        });
    }

    #[test]
    fn select_prefers_low_predictions_and_preserves_index_order() {
        let pre = Prescreener::new(ProxyOptions::default());
        let predicted = [3.0, 1.0, 2.0, 1.0, f64::INFINITY];
        // Ties (indices 1 and 3) break toward the earlier index; output is
        // ascending so the batch keeps population order.
        assert_eq!(pre.select(&predicted, 3), vec![1, 2, 3]);
        assert_eq!(pre.select(&predicted, 1), vec![1]);
        assert_eq!(pre.select(&predicted, 10), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn feature_cache_round_trips() {
        let pre = Prescreener::new(ProxyOptions::default());
        assert_eq!(pre.cached_features(key(1)), None);
        pre.record_features(key(1), feat(0.5));
        assert_eq!(pre.cached_features(key(1)), Some(feat(0.5)));
    }

    #[test]
    fn scalarized_objectives_weight_dimensions_equally() {
        // Loss in [0.4, 0.8], depth in [10, 50]: the candidate best on
        // both dominates, the one worst on both ranks last, and the two
        // mixed candidates land in between despite depth's larger scale.
        let batch = vec![
            vec![0.4, 10.0],
            vec![0.8, 50.0],
            vec![0.4, 50.0],
            vec![0.8, 10.0],
        ];
        let s = scalarize_objectives(&batch);
        assert_eq!(s[0], 0.0);
        assert_eq!(s[1], 1.0);
        assert_eq!(s[2], 0.5);
        assert_eq!(s[3], 0.5);
    }

    #[test]
    fn scalarize_poisons_non_finite_and_ignores_flat_dimensions() {
        let batch = vec![
            vec![0.5, 7.0, 9.0],
            vec![0.2, 7.0, 3.0],
            vec![f64::INFINITY, 7.0, 3.0],
        ];
        let s = scalarize_objectives(&batch);
        // The flat second dimension contributes nothing; the poisoned
        // candidate ranks strictly last.
        assert!(s[1] < s[0]);
        assert_eq!(s[2], f64::INFINITY);
        // The non-finite value must not contaminate the normalization of
        // the finite candidates.
        assert!(s[0].is_finite() && s[1].is_finite());
        assert!(scalarize_objectives(&[]).is_empty());
    }

    #[test]
    fn scalarize_returns_one_dimension_batches_unchanged() {
        let raw = [0.75, -0.5, f64::INFINITY, 0.75, f64::NAN];
        let batch: Vec<Vec<f64>> = raw.iter().map(|&v| vec![v]).collect();
        let s = scalarize_objectives(&batch);
        assert_eq!(s.len(), raw.len());
        for (a, b) in s.iter().zip(&raw) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn state_survives_wire_round_trip_and_restore() {
        let mut pre = Prescreener::new(ProxyOptions::default());
        for i in 0..6 {
            let f = feat(i as f64);
            pre.record_features(key(i), f);
            pre.observe(&f, i as f64 * 0.1);
        }
        let state = pre.snapshot(6, 4, 2);
        assert_eq!(state.proxy_evals, 6);
        assert_eq!(state.proxy_escalations, 4);
        assert_eq!(state.proxy_dedup_hits, 2);

        let mut w = ByteWriter::new();
        state.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = PrescreenerState::decode(&mut r).expect("decode");
        assert_eq!(state, back);

        let restored = Prescreener::from_state(*pre.options(), &back);
        assert_eq!(restored.observed(), pre.observed());
        for i in 0..6 {
            assert_eq!(restored.cached_features(key(i)), Some(feat(i as f64)));
            let f = feat(i as f64);
            assert_eq!(restored.predict(&f).to_bits(), pre.predict(&f).to_bits());
        }
    }
}
