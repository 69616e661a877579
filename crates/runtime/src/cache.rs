//! Content-addressed caching: a deterministic structural hasher and a
//! concurrent map keyed by 128-bit structural digests.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A 128-bit content digest produced by [`StructuralHasher`].
///
/// Two independently seeded 64-bit FNV-1a streams; a collision requires
/// both to collide simultaneously, which is negligible at search scale
/// (billions of keys would be needed for a birthday collision).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// Low half of the digest.
    pub lo: u64,
    /// High half of the digest.
    pub hi: u64,
}

/// Deterministic streaming hasher over structured content.
///
/// Unlike `std::collections::hash_map::DefaultHasher`, the digest is
/// stable across runs and platforms (no random state), so cache keys are
/// reproducible — a requirement for the search's determinism guarantees.
///
/// # Examples
///
/// ```
/// use qns_runtime::StructuralHasher;
///
/// let mut a = StructuralHasher::new();
/// a.write_u64(7);
/// a.write_f64(0.5);
/// let mut b = StructuralHasher::new();
/// b.write_u64(7);
/// b.write_f64(0.5);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Clone, Debug)]
pub struct StructuralHasher {
    lo: u64,
    hi: u64,
}

impl Default for StructuralHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StructuralHasher {
    /// A fresh hasher with the standard FNV offsets.
    pub fn new() -> Self {
        StructuralHasher {
            lo: 0xCBF29CE484222325,
            // Second stream starts from a distinct, fixed offset so the
            // two halves are independent functions of the input.
            hi: 0x84222325CBF29CE4,
        }
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.lo = (self.lo ^ b as u64).wrapping_mul(0x100000001B3);
            self.hi = (self.hi ^ b as u64)
                .wrapping_mul(0x100000001B3)
                .rotate_left(1);
        }
    }

    /// Feeds a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `usize`.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds an `f64` by bit pattern (`-0.0` and `0.0` hash differently;
    /// callers that care should normalize first).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Feeds a string (length-prefixed so `"ab","c"` ≠ `"a","bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The 128-bit digest.
    pub fn finish(&self) -> CacheKey {
        // A final avalanche pass so short inputs still spread over the
        // whole digest.
        let mix = |mut z: u64| {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        CacheKey {
            lo: mix(self.lo),
            hi: mix(self.hi ^ self.lo.rotate_left(17)),
        }
    }
}

/// A concurrent map from [`CacheKey`] to `Arc<V>` behind one lock, kept
/// in key order.
///
/// Values are returned as `Arc<V>` so large entries (e.g. transpiled
/// circuits) are shared, never cloned.
///
/// # Examples
///
/// ```
/// use qns_runtime::{DigestCache, StructuralHasher};
///
/// let cache: DigestCache<String> = DigestCache::new();
/// let mut h = StructuralHasher::new();
/// h.write_str("circuit-0");
/// let key = h.finish();
/// let v = cache.get_or_insert_with(key, || "compiled".to_string());
/// assert_eq!(*v, "compiled");
/// let again = cache.get_or_insert_with(key, || unreachable!());
/// assert_eq!(*again, "compiled");
/// assert_eq!(cache.len(), 1);
/// ```
#[derive(Debug)]
pub struct DigestCache<V> {
    map: Mutex<BTreeMap<CacheKey, Arc<V>>>,
}

impl<V> Default for DigestCache<V> {
    fn default() -> Self {
        DigestCache {
            map: Mutex::new(BTreeMap::new()),
        }
    }
}

impl<V> DigestCache<V> {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks `key` up, computing and inserting with `f` on a miss.
    ///
    /// The compute runs *outside* the lock so long-running builds
    /// (transpiles) do not serialize unrelated lookups; two threads racing
    /// on the same fresh key may both compute, with one result kept.
    pub fn get_or_insert_with(&self, key: CacheKey, f: impl FnOnce() -> V) -> Arc<V> {
        if let Some(v) = self.get(key) {
            return v;
        }
        let value = Arc::new(f());
        self.lock().entry(key).or_insert(value).clone()
    }

    /// Looks `key` up without computing.
    pub fn get(&self, key: CacheKey) -> Option<Arc<V>> {
        self.lock().get(&key).cloned()
    }

    /// Inserts (or replaces) the value under `key`.
    pub fn insert(&self, key: CacheKey, value: V) -> Arc<V> {
        let value = Arc::new(value);
        self.lock().insert(key, value.clone());
        value
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A deterministic dump of every `(key, value)` pair, sorted by key —
    /// the shape checkpoints need to persist and restore a score memo
    /// bitwise regardless of insertion order.
    pub fn entries(&self) -> Vec<(CacheKey, V)>
    where
        V: Clone,
    {
        let map = self.lock();
        map.iter().map(|(&k, v)| (k, (**v).clone())).collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<CacheKey, Arc<V>>> {
        self.map.lock().expect("cache lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_of(parts: &[u64]) -> CacheKey {
        let mut h = StructuralHasher::new();
        for &p in parts {
            h.write_u64(p);
        }
        h.finish()
    }

    #[test]
    fn digests_are_stable_and_order_sensitive() {
        assert_eq!(key_of(&[1, 2, 3]), key_of(&[1, 2, 3]));
        assert_ne!(key_of(&[1, 2, 3]), key_of(&[3, 2, 1]));
        assert_ne!(key_of(&[1]), key_of(&[1, 0]));
    }

    #[test]
    fn string_hashing_is_length_prefixed() {
        let mut a = StructuralHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StructuralHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn cache_computes_each_key_once() {
        let cache: DigestCache<u64> = DigestCache::new();
        for i in 0..10 {
            cache.get_or_insert_with(key_of(&[i]), || i * 100);
        }
        for i in 0..10 {
            let v = cache.get_or_insert_with(key_of(&[i]), || unreachable!());
            assert_eq!(*v, i * 100);
        }
        assert_eq!(cache.len(), 10);
    }

    #[test]
    fn entries_are_sorted_regardless_of_insertion_order() {
        // The dump feeds snapshots, so it must not depend on insertion
        // order: two caches filled in opposite orders dump identically.
        let a: DigestCache<u64> = DigestCache::new();
        let b: DigestCache<u64> = DigestCache::new();
        for i in 0..50u64 {
            a.insert(key_of(&[i]), i);
            b.insert(key_of(&[49 - i]), 49 - i);
        }
        let ea = a.entries();
        let eb = b.entries();
        assert_eq!(ea, eb);
        assert!(ea.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn concurrent_inserts_converge() {
        let cache = std::sync::Arc::new(DigestCache::<usize>::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = cache.clone();
                scope.spawn(move || {
                    for i in 0..200 {
                        let v = cache.get_or_insert_with(key_of(&[i]), || i as usize);
                        assert_eq!(*v, i as usize);
                        let _ = t;
                    }
                });
            }
        });
        assert_eq!(cache.len(), 200);
    }
}
