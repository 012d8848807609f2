//! [`ItemsSketch`]: the frequent-items sketch for arbitrary item types.
//!
//! The `u64`-keyed [`crate::FreqSketch`] is the fast path for numeric
//! identifiers (IP addresses, user ids, …). Real deployments also sketch
//! strings, tuples, and composite keys; the DataSketches library the paper
//! ships in provides an `ItemsSketch<T>` for exactly this reason, and so do
//! we.
//!
//! Items are stored **by value** in the counter table (not by 64-bit hash),
//! so the certified bounds hold unconditionally — no birthday-bound
//! caveats. The cost is `size_of::<T>()`-wide slots instead of the paper's
//! packed 8-byte keys; use [`crate::FreqSketch`] when items fit in a `u64`
//! and the §2.3.3 memory formula matters.
//!
//! `ItemsSketch<T>` is a thin layer over the shared
//! [`SketchEngine`]: the update, batch,
//! purge, estimate, and merge logic is *the same code* that runs under
//! [`crate::FreqSketch`] — same policies, same offset bookkeeping, same
//! guarantees (Theorems 3–5), same prefetching batch pipeline. In
//! particular `ItemsSketch<u64>` is state-for-state identical to
//! `FreqSketch` on any stream (pinned by differential proptests): same
//! estimates, same purge decisions, same table layout.
//!
//! Item types implement [`SketchKey`], which is
//! blanket-provided for every [`crate::hashing::Hash64`] type (integers,
//! `String`, `&str`, `Vec<u8>`, pairs). For custom types, implement
//! `Hash64` (e.g. via [`crate::hashing::hash64_of`]) plus `Default`.
//!
//! # Example
//!
//! ```
//! use streamfreq_core::{ItemsSketch, ErrorType};
//!
//! let mut sketch: ItemsSketch<String> = ItemsSketch::with_max_counters(32);
//! for word in ["the", "quick", "the", "fox", "the"] {
//!     sketch.update(word.to_string(), 1);
//! }
//! assert_eq!(sketch.estimate(&"the".to_string()), 3);
//! let top = sketch.frequent_items(ErrorType::NoFalsePositives);
//! assert_eq!(top[0].item, "the");
//! ```

use crate::engine::{SketchEngine, SketchEngineBuilder, SketchKey};
use crate::error::Error;
use crate::item_codec::ItemCodec;
use crate::purge::PurgePolicy;
use crate::result::{ErrorType, Row};

/// A weighted frequent-items sketch over arbitrary item types.
///
/// See the [module docs](self) and [`crate::FreqSketch`] (whose API this
/// mirrors, with `&T` queries and `Row<T>` results).
#[derive(Clone, Debug)]
pub struct ItemsSketch<T: SketchKey> {
    engine: SketchEngine<T>,
}

/// Configures and constructs an [`ItemsSketch`] — the same builder
/// surface as [`crate::FreqSketchBuilder`] (`policy` / `seed` /
/// `grow_from_small`), falling out of the shared engine.
#[derive(Clone, Debug)]
pub struct ItemsSketchBuilder<T: SketchKey> {
    inner: SketchEngineBuilder<T>,
}

impl<T: SketchKey> ItemsSketchBuilder<T> {
    /// Starts a builder for a sketch maintaining at most `max_counters`
    /// assigned counters (the paper's `k`).
    pub fn new(max_counters: usize) -> Self {
        Self {
            inner: SketchEngineBuilder::new(max_counters),
        }
    }

    /// Selects the purge policy (default: SMED, the paper's recommendation).
    pub fn policy(mut self, policy: PurgePolicy) -> Self {
        self.inner = self.inner.policy(policy);
        self
    }

    /// Seeds the purge-sampling generator (default:
    /// [`crate::sketch::DEFAULT_SEED`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner = self.inner.seed(seed);
        self
    }

    /// If `false`, allocates the maximum-size table up front instead of
    /// growing from 8 slots.
    pub fn grow_from_small(mut self, grow: bool) -> Self {
        self.inner = self.inner.grow_from_small(grow);
        self
    }

    /// Builds the sketch.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] for a zero capacity, an oversized
    /// capacity, or invalid policy parameters.
    pub fn build(self) -> Result<ItemsSketch<T>, Error> {
        Ok(ItemsSketch {
            engine: self.inner.build()?,
        })
    }
}

impl<T: SketchKey> ItemsSketch<T> {
    /// Creates a SMED sketch maintaining at most `max_counters` counters.
    ///
    /// # Panics
    /// Panics if `max_counters` is zero or needs a table beyond 2³¹ slots.
    pub fn with_max_counters(max_counters: usize) -> Self {
        Self::builder(max_counters)
            .build()
            .expect("invalid max_counters")
    }

    /// Starts an [`ItemsSketchBuilder`] for custom configuration.
    ///
    /// # Example
    ///
    /// ```
    /// use streamfreq_core::{ItemsSketch, PurgePolicy};
    ///
    /// let sketch: ItemsSketch<&str> = ItemsSketch::builder(64)
    ///     .policy(PurgePolicy::smin())
    ///     .seed(7)
    ///     .grow_from_small(false)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(sketch.max_counters(), 64);
    /// assert_eq!(sketch.policy(), PurgePolicy::smin());
    /// ```
    pub fn builder(max_counters: usize) -> ItemsSketchBuilder<T> {
        ItemsSketchBuilder::new(max_counters)
    }

    /// Creates a sketch with an explicit policy and seed.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] for a zero capacity, an oversized
    /// capacity, or invalid policy parameters.
    pub fn try_new(max_counters: usize, policy: PurgePolicy, seed: u64) -> Result<Self, Error> {
        Self::builder(max_counters)
            .policy(policy)
            .seed(seed)
            .build()
    }

    /// Read access to the underlying generic engine.
    #[inline]
    pub fn engine(&self) -> &SketchEngine<T> {
        &self.engine
    }

    /// Number of counters currently assigned.
    pub fn num_counters(&self) -> usize {
        self.engine.num_counters()
    }

    /// Maximum number of counters maintained (the paper's `k`).
    pub fn max_counters(&self) -> usize {
        self.engine.max_counters()
    }

    /// True if no updates have been processed.
    pub fn is_empty(&self) -> bool {
        self.engine.is_empty()
    }

    /// Total weighted stream length processed (including merges).
    /// Saturates at `u64::MAX` instead of panicking — see
    /// [`SketchEngine::stream_weight`] for the shared policy.
    pub fn stream_weight(&self) -> u64 {
        self.engine.stream_weight()
    }

    /// True if the total stream weight exceeded `u64::MAX` and
    /// [`Self::stream_weight`] is pinned at the saturation point.
    pub fn stream_weight_saturated(&self) -> bool {
        self.engine.stream_weight_saturated()
    }

    /// Number of update operations processed.
    pub fn num_updates(&self) -> u64 {
        self.engine.num_updates()
    }

    /// Number of purge operations performed.
    pub fn num_purges(&self) -> u64 {
        self.engine.num_purges()
    }

    /// The purge policy in effect.
    pub fn policy(&self) -> PurgePolicy {
        self.engine.policy()
    }

    /// The seed the purge sampler was initialized with.
    pub fn seed(&self) -> u64 {
        self.engine.seed()
    }

    /// Bytes of heap memory held by the counter table's parallel arrays
    /// (heap storage inside items is not counted).
    pub fn memory_bytes(&self) -> usize {
        self.engine.memory_bytes()
    }

    /// A-posteriori maximum estimation error (the cumulative decrement).
    pub fn maximum_error(&self) -> u64 {
        self.engine.maximum_error()
    }

    /// Processes the weighted update `(item, weight)` in amortized O(1).
    /// Zero weights are ignored. Total stream weight saturates at
    /// `u64::MAX` rather than panicking (see [`Self::stream_weight`]).
    ///
    /// # Panics
    /// Panics if `weight` exceeds `i64::MAX`.
    pub fn update(&mut self, item: T, weight: u64) {
        self.engine.update(item, weight);
    }

    /// Processes a unit update.
    pub fn update_one(&mut self, item: T) {
        self.engine.update_one(item);
    }

    /// Processes a slice of weighted updates (items cloned out of the
    /// slice), state-identically to scalar [`Self::update`] calls in
    /// order, via the chunked, prefetching table path — see
    /// [`SketchEngine::update_batch`] for the scheme.
    ///
    /// # Example
    ///
    /// ```
    /// use streamfreq_core::ItemsSketch;
    ///
    /// let mut sketch: ItemsSketch<&str> = ItemsSketch::with_max_counters(32);
    /// sketch.update_batch(&[("get", 120), ("put", 40), ("get", 80)]);
    /// assert_eq!(sketch.estimate(&"get"), 200);
    /// assert_eq!(sketch.stream_weight(), 240);
    /// ```
    pub fn update_batch(&mut self, batch: &[(T, u64)]) {
        self.engine.update_batch(batch);
    }

    /// Estimate of the item's weighted frequency (§2.3.1 offset variant).
    pub fn estimate(&self, item: &T) -> u64 {
        self.engine.estimate(item)
    }

    /// Certified lower bound on the item's frequency.
    pub fn lower_bound(&self, item: &T) -> u64 {
        self.engine.lower_bound(item)
    }

    /// Certified upper bound on the item's frequency.
    pub fn upper_bound(&self, item: &T) -> u64 {
        self.engine.upper_bound(item)
    }

    /// Iterates over tracked `(item, lower_bound)` pairs.
    pub fn counters(&self) -> impl Iterator<Item = (&T, u64)> + '_ {
        self.engine.counters()
    }

    /// Items whose frequency may exceed `threshold` under the chosen
    /// contract, sorted by descending estimate. A threshold below
    /// [`Self::maximum_error`] is raised to it — see
    /// [`SketchEngine::frequent_items_with_threshold`].
    pub fn frequent_items_with_threshold(
        &self,
        threshold: u64,
        error_type: ErrorType,
    ) -> Vec<Row<T>>
    where
        T: Ord,
    {
        self.engine
            .frequent_items_with_threshold(threshold, error_type)
    }

    /// [`Self::frequent_items_with_threshold`] at the sketch's own
    /// `maximum_error`.
    pub fn frequent_items(&self, error_type: ErrorType) -> Vec<Row<T>>
    where
        T: Ord,
    {
        self.engine.frequent_items(error_type)
    }

    /// (φ, ε)-heavy hitters: items whose frequency may exceed `phi · N`.
    ///
    /// # Example
    ///
    /// ```
    /// use streamfreq_core::{ErrorType, ItemsSketch};
    ///
    /// let mut sketch: ItemsSketch<&str> = ItemsSketch::with_max_counters(32);
    /// sketch.update_batch(&[("hot", 900), ("warm", 80), ("cold", 20)]);
    ///
    /// // Items that may hold over half the total weight N = 1000:
    /// let heavy = sketch.heavy_hitters(0.5, ErrorType::NoFalsePositives);
    /// assert_eq!(heavy.len(), 1);
    /// assert_eq!(heavy[0].item, "hot");
    /// assert_eq!(heavy[0].estimate, 900);
    /// ```
    ///
    /// # Panics
    /// Panics if `phi` is outside `[0, 1]`.
    pub fn heavy_hitters(&self, phi: f64, error_type: ErrorType) -> Vec<Row<T>>
    where
        T: Ord,
    {
        self.engine.heavy_hitters(phi, error_type)
    }

    /// The `k` tracked items with the largest estimates.
    pub fn top_k(&self, k: usize) -> Vec<Row<T>>
    where
        T: Ord,
    {
        self.engine.top_k(k)
    }

    /// Merges `other` into `self` (Algorithm 5, randomized replay order —
    /// see [`SketchEngine::merge`] for the §3.2 rationale).
    pub fn merge(&mut self, other: &ItemsSketch<T>) {
        self.engine.merge(&other.engine);
    }

    /// Scales every counter to `⌊c · num / den⌋` in place, dropping the
    /// counters that reach zero — the time-fading hook; see
    /// [`SketchEngine::scale_counters`] for the bounds accounting.
    ///
    /// # Panics
    /// Panics if `den` is zero or `num > den`.
    pub fn scale_counters(&mut self, num: u64, den: u64) {
        self.engine.scale_counters(num, den);
    }

    /// Test/debug aid: verifies the internal table invariants.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.engine.check_invariants();
    }
}

/// Streaming ingestion through the batch path — the generic-item
/// counterpart of `FreqSketch`'s `Extend` impl.
impl<T: SketchKey> Extend<(T, u64)> for ItemsSketch<T> {
    fn extend<I: IntoIterator<Item = (T, u64)>>(&mut self, iter: I) {
        self.engine.extend(iter);
    }
}

/// The byte form of an item sketch is its engine's (see [`crate::codec`]):
/// CRC-covered and slot-exact, with items in their [`ItemCodec`]
/// encoding. Round-tripped sketches behave bit-identically, including
/// future purges.
impl<T: SketchKey + ItemCodec> ItemsSketch<T> {
    /// Serializes the sketch into a fresh byte vector.
    pub fn serialize_to_bytes(&self) -> Vec<u8> {
        self.engine.serialize_to_bytes()
    }

    /// Reconstructs a sketch from [`Self::serialize_to_bytes`] output.
    ///
    /// # Errors
    /// As [`SketchEngine::deserialize_from_bytes`].
    pub fn deserialize_from_bytes(bytes: &[u8]) -> Result<Self, Error> {
        Ok(ItemsSketch {
            engine: SketchEngine::deserialize_from_bytes(bytes)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn exact_below_capacity() {
        let mut s: ItemsSketch<&'static str> = ItemsSketch::with_max_counters(16);
        s.update("alpha", 10);
        s.update("beta", 5);
        s.update("alpha", 7);
        assert_eq!(s.estimate(&"alpha"), 17);
        assert_eq!(s.estimate(&"beta"), 5);
        assert_eq!(s.estimate(&"gamma"), 0);
        assert_eq!(s.maximum_error(), 0);
        assert_eq!(s.stream_weight(), 22);
    }

    #[test]
    fn string_items_bounds_bracket_truth() {
        let mut s: ItemsSketch<String> = ItemsSketch::with_max_counters(24);
        let mut truth: HashMap<String, u64> = HashMap::new();
        for i in 0..30_000u64 {
            let item = format!("key-{}", i % 200);
            let w = i % 11 + 1;
            s.update(item.clone(), w);
            *truth.entry(item).or_insert(0) += w;
        }
        assert!(s.num_purges() > 0, "test must exercise purging");
        for (item, &f) in &truth {
            assert!(s.lower_bound(item) <= f, "lb violated for {item}");
            assert!(s.upper_bound(item) >= f, "ub violated for {item}");
        }
    }

    #[test]
    fn heavy_hitters_on_words() {
        let mut s: ItemsSketch<&'static str> = ItemsSketch::with_max_counters(8);
        for _ in 0..1000 {
            s.update("hot", 10);
            s.update("warm", 3);
        }
        for i in 0..500u64 {
            // unique cold words, boxed into leaked strs via a small set
            s.update(["c0", "c1", "c2", "c3", "c4"][(i % 5) as usize], 1);
        }
        let hh = s.heavy_hitters(0.5, ErrorType::NoFalsePositives);
        assert_eq!(hh.len(), 1);
        assert_eq!(hh[0].item, "hot");
        let all = s.heavy_hitters(0.1, ErrorType::NoFalseNegatives);
        assert!(all.iter().any(|r| r.item == "warm"));
    }

    #[test]
    fn update_batch_matches_scalar_updates() {
        let stream: Vec<(String, u64)> = (0..20_000u64)
            .map(|i| (format!("key-{}", (i * 2_654_435_761) % 300), i % 13 + 1))
            .collect();
        let mut scalar: ItemsSketch<String> = ItemsSketch::with_max_counters(48);
        for (item, w) in &stream {
            scalar.update(item.clone(), *w);
        }
        let mut batched: ItemsSketch<String> = ItemsSketch::with_max_counters(48);
        batched.update_batch(&stream);
        assert!(scalar.num_purges() > 0, "test must exercise purging");
        assert_eq!(batched.serialize_to_bytes(), scalar.serialize_to_bytes());
    }

    #[test]
    fn extend_matches_update_batch() {
        let stream: Vec<(String, u64)> = (0..8_000u64)
            .map(|i| (format!("w{}", i % 120), i % 7 + 1))
            .collect();
        let mut a: ItemsSketch<String> = ItemsSketch::with_max_counters(32);
        a.update_batch(&stream);
        let mut b: ItemsSketch<String> = ItemsSketch::with_max_counters(32);
        b.extend(stream.iter().cloned());
        assert_eq!(a.serialize_to_bytes(), b.serialize_to_bytes());
    }

    #[test]
    fn builder_surface_matches_freq_sketch() {
        // API parity: policy / seed / grow_from_small all configurable,
        // and the configuration is observable.
        let s: ItemsSketch<String> = ItemsSketch::builder(64)
            .policy(PurgePolicy::smin())
            .seed(42)
            .grow_from_small(false)
            .build()
            .unwrap();
        assert_eq!(s.policy(), PurgePolicy::smin());
        assert_eq!(s.seed(), 42);
        // Preallocated: the table is already at its maximum size, so the
        // memory footprint matches the design formula for the slot width.
        let per_slot = core::mem::size_of::<String>() + 8 + 2;
        assert_eq!(s.memory_bytes(), 128 * per_slot, "4k/3 of 64 → 128 slots");
    }

    #[test]
    fn grow_from_small_matches_preallocated_estimates() {
        let stream: Vec<(u32, u64)> = (0..20_000u64)
            .map(|i| ((i % 500) as u32, i % 13 + 1))
            .collect();
        let mut grown: ItemsSketch<u32> = ItemsSketch::builder(64).seed(7).build().unwrap();
        let mut fixed: ItemsSketch<u32> = ItemsSketch::builder(64)
            .seed(7)
            .grow_from_small(false)
            .build()
            .unwrap();
        for &(item, w) in &stream {
            grown.update(item, w);
            fixed.update(item, w);
        }
        for item in 0..500u32 {
            assert_eq!(grown.estimate(&item), fixed.estimate(&item), "item {item}");
        }
        assert_eq!(grown.maximum_error(), fixed.maximum_error());
    }

    #[test]
    fn stream_weight_saturates_and_roundtrips() {
        let mut s: ItemsSketch<u32> = ItemsSketch::try_new(8, PurgePolicy::smed(), 4242).unwrap();
        s.update(1, i64::MAX as u64);
        s.update(2, i64::MAX as u64);
        s.update(3, 9);
        assert!(s.stream_weight_saturated());
        assert_eq!(s.stream_weight(), u64::MAX);
        // The error offset saturates too, and the seed is not the default.
        let mut saturating: ItemsSketch<u32> = ItemsSketch::with_max_counters(8);
        saturating.engine.offset = u64::MAX - 1;
        s.merge(&saturating);
        s.merge(&saturating);
        assert!(s.engine().maximum_error_saturated());
        let restored = ItemsSketch::<u32>::deserialize_from_bytes(&s.serialize_to_bytes()).unwrap();
        assert!(restored.stream_weight_saturated());
        assert_eq!(restored.stream_weight(), u64::MAX);
        assert!(restored.engine().maximum_error_saturated());
        assert_eq!(restored.seed(), 4242);
        assert_eq!(
            restored.engine().state_fingerprint(),
            s.engine().state_fingerprint()
        );
    }

    #[test]
    fn tuple_items() {
        let mut s: ItemsSketch<(u32, u32)> = ItemsSketch::with_max_counters(16);
        s.update((1, 2), 100);
        s.update((2, 1), 1);
        assert_eq!(s.estimate(&(1, 2)), 100);
        assert_eq!(s.estimate(&(2, 1)), 1);
    }

    #[test]
    fn merge_string_sketches() {
        let mut a: ItemsSketch<String> = ItemsSketch::with_max_counters(32);
        let mut b: ItemsSketch<String> = ItemsSketch::with_max_counters(32);
        let mut truth: HashMap<String, u64> = HashMap::new();
        for i in 0..10_000u64 {
            let item = format!("w{}", i % 150);
            let w = i % 5 + 1;
            if i % 2 == 0 {
                a.update(item.clone(), w);
            } else {
                b.update(item.clone(), w);
            }
            *truth.entry(item).or_insert(0) += w;
        }
        let n = a.stream_weight() + b.stream_weight();
        a.merge(&b);
        assert_eq!(a.stream_weight(), n);
        for (item, &f) in &truth {
            assert!(a.lower_bound(item) <= f);
            assert!(a.upper_bound(item) >= f);
        }
    }

    #[test]
    fn growth_preserves_items() {
        let mut s: ItemsSketch<String> = ItemsSketch::with_max_counters(500);
        for i in 0..400u64 {
            s.update(format!("item{i}"), i + 1);
        }
        assert_eq!(s.maximum_error(), 0);
        for i in (0..400u64).step_by(37) {
            assert_eq!(s.estimate(&format!("item{i}")), i + 1);
        }
    }

    #[test]
    fn purge_policies_work_for_items() {
        for policy in [
            PurgePolicy::smed(),
            PurgePolicy::smin(),
            PurgePolicy::med(),
            PurgePolicy::GlobalMin,
        ] {
            let mut s: ItemsSketch<u32> = ItemsSketch::try_new(16, policy, 7).unwrap();
            for i in 0..5_000u32 {
                s.update(i % 100, 2);
            }
            assert!(s.num_purges() > 0, "{policy:?} never purged");
            // a-priori bound (Lemma 4 form)
            let kstar = policy.effective_kstar_fraction() * 16.0;
            let bound = (s.stream_weight() as f64 / kstar).ceil() as u64;
            assert!(s.maximum_error() <= bound, "{policy:?} exceeded bound");
        }
    }

    #[test]
    fn zero_capacity_rejected() {
        assert!(ItemsSketch::<String>::try_new(0, PurgePolicy::smed(), 1).is_err());
    }

    #[test]
    fn codec_roundtrip_string_items() {
        let mut s: ItemsSketch<String> = ItemsSketch::with_max_counters(24);
        for i in 0..10_000u64 {
            s.update(format!("key-{}", i % 200), i % 7 + 1);
        }
        assert!(s.num_purges() > 0);
        let bytes = s.serialize_to_bytes();
        let d = ItemsSketch::<String>::deserialize_from_bytes(&bytes).unwrap();
        assert_eq!(d.maximum_error(), s.maximum_error());
        assert_eq!(d.stream_weight(), s.stream_weight());
        assert_eq!(d.num_counters(), s.num_counters());
        for i in 0..200u64 {
            let key = format!("key-{i}");
            assert_eq!(d.estimate(&key), s.estimate(&key), "{key}");
        }
    }

    #[test]
    fn codec_roundtrip_then_update_is_identical() {
        let mut original: ItemsSketch<u32> = ItemsSketch::with_max_counters(16);
        for i in 0..5_000u32 {
            original.update(i % 100, 3);
        }
        let mut restored =
            ItemsSketch::<u32>::deserialize_from_bytes(&original.serialize_to_bytes()).unwrap();
        for i in 0..5_000u32 {
            original.update(i % 77, 2);
            restored.update(i % 77, 2);
        }
        assert_eq!(original.maximum_error(), restored.maximum_error());
        for i in 0..100u32 {
            assert_eq!(original.estimate(&i), restored.estimate(&i));
        }
    }

    #[test]
    fn codec_rejects_malformed() {
        let mut s: ItemsSketch<String> = ItemsSketch::with_max_counters(8);
        s.update("x".to_string(), 5);
        let bytes = s.serialize_to_bytes();
        // bad magic
        let mut bad = bytes.clone();
        bad[0] = b'Z';
        assert!(ItemsSketch::<String>::deserialize_from_bytes(&bad).is_err());
        // truncations
        for cut in [0, 4, 10, bytes.len() - 1] {
            assert!(
                ItemsSketch::<String>::deserialize_from_bytes(&bytes[..cut]).is_err(),
                "prefix {cut} accepted"
            );
        }
        // trailing garbage
        let mut long = bytes.clone();
        long.push(7);
        assert!(ItemsSketch::<String>::deserialize_from_bytes(&long).is_err());
    }
}
