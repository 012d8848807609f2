//! [`FreqSketch`]: the paper's optimized frequent-items summary for `u64`
//! items and weighted updates.
//!
//! This is Algorithm 4 with the §2.3 production refinements:
//!
//! * counters live in the linear-probing table of §2.3.3
//!   ([`crate::table::LpTable`]);
//! * purges decrement by a configurable [`PurgePolicy`] — the sample median
//!   (**SMED**) by default;
//! * estimates use the offset variant of §2.3.1 (a hybrid of Misra-Gries
//!   and Space Saving estimates): the summary tracks the cumulative
//!   decrement `offset`, reports `c(i) + offset` for tracked items and `0`
//!   for untracked items, and certifies `c(i) ≤ fᵢ ≤ c(i) + offset`;
//! * merging follows Algorithm 5: the other summary's counters are replayed
//!   into this one as weighted updates, in randomized order to sidestep the
//!   probe-clustering caveat of §3.2's Note.
//!
//! The table starts small and doubles up to its configured maximum, so an
//! under-filled sketch costs memory proportional to its content, matching
//! the DataSketches deployment the paper describes.
//!
//! All of the algorithmic machinery lives in the generic
//! [`SketchEngine`]; `FreqSketch` is the
//! `u64`-keyed instantiation with by-value query ergonomics; its byte
//! form is the engine's ([`crate::codec`]). The instantiation is
//! zero-overhead: the `u64` hash inlines to the SplitMix64 finalizer and
//! keys are stored in a dense `Vec<u64>`, exactly as the pre-engine
//! specialized implementation stored them.
//!
//! # Example
//!
//! ```
//! use streamfreq_core::{FreqSketch, ErrorType};
//!
//! let mut sketch = FreqSketch::with_max_counters(64);
//! for flow in 0u64..1000 {
//!     // flow 7 is hot: give it large weighted updates.
//!     sketch.update(7, 1_000);
//!     sketch.update(flow, 1);
//! }
//! let top = sketch.frequent_items(ErrorType::NoFalsePositives);
//! assert_eq!(top[0].item, 7);
//! assert!(sketch.lower_bound(7) <= 1_000_000 && 1_000_000 <= sketch.upper_bound(7));
//! ```

use crate::engine::{SketchEngine, SketchEngineBuilder};
use crate::error::Error;
use crate::purge::PurgePolicy;
use crate::result::{ErrorType, Row};

pub use crate::engine::DEFAULT_SEED;

/// A weighted frequent-items sketch over `u64` item identifiers.
///
/// See the [module docs](self) for the algorithmic background and the
/// crate docs for the full API tour.
#[derive(Clone, Debug)]
pub struct FreqSketch {
    pub(crate) engine: SketchEngine<u64>,
}

/// Configures and constructs a [`FreqSketch`].
#[derive(Clone, Debug)]
pub struct FreqSketchBuilder {
    inner: SketchEngineBuilder<u64>,
}

impl FreqSketchBuilder {
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

    /// Seeds the purge-sampling generator (default: [`DEFAULT_SEED`]).
    /// Two sketches built with equal configuration and seed process any
    /// stream identically.
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner = self.inner.seed(seed);
        self
    }

    /// If `false`, allocates the maximum-size table up front instead of
    /// growing from 8 slots. Pre-allocation avoids rehashing churn in
    /// benchmarks; growth minimizes footprint for underfilled sketches.
    pub fn grow_from_small(mut self, grow: bool) -> Self {
        self.inner = self.inner.grow_from_small(grow);
        self
    }

    /// Builds the sketch.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] if `max_counters` is zero or so
    /// large the table would exceed 2³¹ slots, or if the policy parameters
    /// are out of range.
    pub fn build(self) -> Result<FreqSketch, Error> {
        Ok(FreqSketch {
            engine: self.inner.build()?,
        })
    }
}

impl From<SketchEngine<u64>> for FreqSketch {
    /// Wraps a `u64`-keyed engine (e.g. a [`crate::ShardedSketch`] merge
    /// export) in the `FreqSketch` API.
    fn from(engine: SketchEngine<u64>) -> Self {
        FreqSketch { engine }
    }
}

impl FreqSketch {
    /// Creates a SMED sketch maintaining at most `max_counters` counters,
    /// with default seed and a growing table.
    ///
    /// # Panics
    /// Panics if `max_counters` is zero or needs a table beyond 2³¹ slots;
    /// use [`FreqSketch::builder`] to handle configuration errors.
    pub fn with_max_counters(max_counters: usize) -> Self {
        FreqSketchBuilder::new(max_counters)
            .build()
            .expect("invalid max_counters")
    }

    /// Starts a [`FreqSketchBuilder`] for custom configuration.
    pub fn builder(max_counters: usize) -> FreqSketchBuilder {
        FreqSketchBuilder::new(max_counters)
    }

    /// Read access to the underlying generic engine.
    #[inline]
    pub fn engine(&self) -> &SketchEngine<u64> {
        &self.engine
    }

    /// Mutable access to the underlying generic engine, for the bench
    /// harness's ingest-profiling hooks.
    #[doc(hidden)]
    pub fn engine_mut(&mut self) -> &mut SketchEngine<u64> {
        &mut self.engine
    }

    /// Number of counters currently assigned.
    #[inline]
    pub fn num_counters(&self) -> usize {
        self.engine.num_counters()
    }

    /// Maximum number of counters this sketch maintains (the paper's `k`).
    #[inline]
    pub fn max_counters(&self) -> usize {
        self.engine.max_counters()
    }

    /// True if the sketch has processed no updates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.engine.is_empty()
    }

    /// Total weighted stream length `N = Σ Δⱼ` processed so far
    /// (including merged-in streams). Saturates at `u64::MAX` instead of
    /// panicking — see [`SketchEngine::stream_weight`] for the policy.
    #[inline]
    pub fn stream_weight(&self) -> u64 {
        self.engine.stream_weight()
    }

    /// True if the total stream weight ever exceeded `u64::MAX` and
    /// [`Self::stream_weight`] is pinned at the saturation point.
    #[inline]
    pub fn stream_weight_saturated(&self) -> bool {
        self.engine.stream_weight_saturated()
    }

    /// Number of update operations `n` processed so far.
    #[inline]
    pub fn num_updates(&self) -> u64 {
        self.engine.num_updates()
    }

    /// Number of purge (DecrementCounters) operations performed.
    #[inline]
    pub fn num_purges(&self) -> u64 {
        self.engine.num_purges()
    }

    /// The purge policy in effect.
    #[inline]
    pub fn policy(&self) -> PurgePolicy {
        self.engine.policy()
    }

    /// The seed the purge sampler was initialized with.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.engine.seed()
    }

    /// Bytes of heap memory held by the counter table. At the maximum table
    /// size this is `18 · 2^lg_max ≈ 24k` bytes (§2.3.3).
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.engine.memory_bytes()
    }

    /// Processes the weighted update `(item, weight)` in amortized O(1).
    ///
    /// Zero weights are ignored (they carry no frequency mass). If the
    /// total stream weight exceeds `u64::MAX`, `N` saturates rather than
    /// panicking — see [`Self::stream_weight`] for the policy.
    ///
    /// # Panics
    /// Panics if `weight` exceeds `i64::MAX` (counters are signed 64-bit,
    /// matching the paper's deployment).
    #[inline]
    pub fn update(&mut self, item: u64, weight: u64) {
        self.engine.update(item, weight);
    }

    /// Processes a unit update `(item, 1)`.
    #[inline]
    pub fn update_one(&mut self, item: u64) {
        self.engine.update_one(item);
    }

    /// Processes a slice of weighted updates, **state-identically** to
    /// calling [`Self::update`] on each pair in order, but substantially
    /// faster on large tables — see [`SketchEngine::update_batch`] for
    /// the chunking and prefetching scheme.
    pub fn update_batch(&mut self, batch: &[(u64, u64)]) {
        self.engine.update_batch(batch);
    }

    /// Estimate `f̂ᵢ` of the item's weighted frequency: `c(i) + offset` for
    /// tracked items, `0` for untracked items (§2.3.1's MG/SS hybrid).
    /// Always satisfies `estimate − maximum_error ≤ fᵢ ≤ estimate` for
    /// tracked items and `0 ≤ fᵢ ≤ maximum_error` for untracked ones.
    #[inline]
    pub fn estimate(&self, item: u64) -> u64 {
        self.engine.estimate(&item)
    }

    /// Certified lower bound on the item's frequency: `c(i)`, or `0` if the
    /// item is not tracked. Never exceeds the true frequency.
    #[inline]
    pub fn lower_bound(&self, item: u64) -> u64 {
        self.engine.lower_bound(&item)
    }

    /// Certified upper bound on the item's frequency: `c(i) + offset`, or
    /// `offset` alone if the item is not tracked. Never below the true
    /// frequency.
    #[inline]
    pub fn upper_bound(&self, item: u64) -> u64 {
        self.engine.upper_bound(&item)
    }

    /// The a-posteriori maximum error: any estimate is within this of the
    /// true frequency. Equal to the cumulative purge decrement (`offset`).
    #[inline]
    pub fn maximum_error(&self) -> u64 {
        self.engine.maximum_error()
    }

    /// A-priori bound on `maximum_error` after processing weight `n_total`:
    /// `n_total / (k*_eff · k)` per Lemma 4 / Theorems 2 & 4, where
    /// `k*_eff` comes from [`PurgePolicy::effective_kstar_fraction`].
    pub fn a_priori_error(&self, n_total: u64) -> u64 {
        self.engine.a_priori_error(n_total)
    }

    /// Iterates over the tracked `(item, lower_bound)` pairs in table order.
    pub fn counters(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.engine.counters().map(|(&item, lb)| (item, lb))
    }

    /// Returns every item whose frequency may exceed `threshold`, under the
    /// chosen reporting contract, sorted by descending estimate — see
    /// [`SketchEngine::frequent_items_with_threshold`] for the contract
    /// details and the threshold clamp.
    pub fn frequent_items_with_threshold(&self, threshold: u64, error_type: ErrorType) -> Vec<Row> {
        self.engine
            .frequent_items_with_threshold(threshold, error_type)
    }

    /// [`Self::frequent_items_with_threshold`] with the sketch's own
    /// `maximum_error` as the threshold — the finest distinction the
    /// summary can certify.
    pub fn frequent_items(&self, error_type: ErrorType) -> Vec<Row> {
        self.engine.frequent_items(error_type)
    }

    /// The (φ, ε)-heavy-hitters query of §1.2: items whose frequency may
    /// exceed `max(phi · N, maximum_error)`, under the chosen reporting
    /// contract.
    ///
    /// # Panics
    /// Panics if `phi` is outside `[0, 1]`.
    pub fn heavy_hitters(&self, phi: f64, error_type: ErrorType) -> Vec<Row> {
        self.engine.heavy_hitters(phi, error_type)
    }

    /// The `k` tracked items with the largest estimates.
    pub fn top_k(&self, k: usize) -> Vec<Row> {
        self.engine.top_k(k)
    }

    /// Merges `other` into `self` (Algorithm 5): every counter of `other`
    /// is replayed into `self` as a weighted update, in randomized order,
    /// and the offsets add — see [`SketchEngine::merge`].
    pub fn merge(&mut self, other: &FreqSketch) {
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

    /// Replays an arbitrary counter list into the sketch as weighted
    /// updates (Algorithm 5's generic form) — see
    /// [`SketchEngine::absorb_counters`].
    pub fn absorb_counters<I>(
        &mut self,
        counters: I,
        source_stream_weight: u64,
        source_max_error: u64,
    ) where
        I: IntoIterator<Item = (u64, u64)>,
    {
        self.engine
            .absorb_counters(counters, source_stream_weight, source_max_error);
    }

    /// Test/debug aid: verifies the internal table invariants.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.engine.check_invariants();
    }
}

/// Streaming ingestion through the batch path: buffers the iterator into
/// chunks and forwards them to [`FreqSketch::update_batch`], so
/// `sketch.extend(stream)` gets the prefetching fast path without the
/// caller materializing a slice.
impl Extend<(u64, u64)> for FreqSketch {
    fn extend<I: IntoIterator<Item = (u64, u64)>>(&mut self, iter: I) {
        self.engine.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn empty_sketch_reports_zero() {
        let s = FreqSketch::with_max_counters(16);
        assert!(s.is_empty());
        assert_eq!(s.estimate(5), 0);
        assert_eq!(s.lower_bound(5), 0);
        assert_eq!(s.upper_bound(5), 0);
        assert_eq!(s.maximum_error(), 0);
        assert_eq!(s.stream_weight(), 0);
        assert!(s.frequent_items(ErrorType::NoFalseNegatives).is_empty());
    }

    #[test]
    fn exact_below_capacity() {
        // Fewer distinct items than counters: the sketch is exact.
        let mut s = FreqSketch::with_max_counters(64);
        for i in 0..50u64 {
            s.update(i, (i + 1) * 10);
        }
        assert_eq!(s.maximum_error(), 0);
        for i in 0..50u64 {
            assert_eq!(s.estimate(i), (i + 1) * 10);
            assert_eq!(s.lower_bound(i), (i + 1) * 10);
            assert_eq!(s.upper_bound(i), (i + 1) * 10);
        }
        assert_eq!(s.stream_weight(), (1..=50u64).map(|x| x * 10).sum());
    }

    #[test]
    fn zero_weight_update_is_a_noop() {
        let mut s = FreqSketch::with_max_counters(8);
        s.update(1, 0);
        assert!(s.is_empty());
        assert_eq!(s.stream_weight(), 0);
    }

    #[test]
    fn bounds_bracket_truth_beyond_capacity() {
        let mut s = FreqSketch::with_max_counters(32);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut x = 12345u64;
        for _ in 0..20_000 {
            // xorshift-ish mixing to get a skewed-but-spread key sequence
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let item = x % 300;
            let w = x % 97 + 1;
            s.update(item, w);
            *truth.entry(item).or_insert(0) += w;
        }
        s.check_invariants();
        for (&item, &f) in &truth {
            assert!(s.lower_bound(item) <= f, "lb violated for {item}");
            assert!(s.upper_bound(item) >= f, "ub violated for {item}");
            let est = s.estimate(item);
            if est > 0 {
                assert!(est.abs_diff(f) <= s.maximum_error());
            } else {
                assert!(f <= s.maximum_error());
            }
        }
    }

    #[test]
    fn maximum_error_respects_a_priori_bound() {
        for policy in [
            PurgePolicy::smed(),
            PurgePolicy::smin(),
            PurgePolicy::med(),
            PurgePolicy::GlobalMin,
        ] {
            let mut s = FreqSketch::builder(100).policy(policy).build().unwrap();
            for i in 0..200_000u64 {
                s.update(i % 1000, 3);
            }
            let bound = s.a_priori_error(s.stream_weight());
            assert!(
                s.maximum_error() <= bound,
                "{policy:?}: offset {} exceeds a-priori bound {bound}",
                s.maximum_error()
            );
        }
    }

    #[test]
    fn heavy_item_always_survives() {
        // An item holding >50% of the stream mass can never be evicted
        // (error ≤ N/(k*_eff·k) < N/2 for any sane configuration).
        let mut s = FreqSketch::with_max_counters(64);
        for i in 0..10_000u64 {
            s.update(999_999, 100);
            s.update(i, 1);
        }
        let f = 10_000u64 * 100;
        assert!(s.lower_bound(999_999) > 0, "heavy item evicted");
        assert!(s.lower_bound(999_999) <= f && f <= s.upper_bound(999_999));
        let hh = s.heavy_hitters(0.4, ErrorType::NoFalsePositives);
        assert_eq!(hh.len(), 1);
        assert_eq!(hh[0].item, 999_999);
    }

    #[test]
    fn no_false_negatives_contract() {
        let mut s = FreqSketch::with_max_counters(32);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for i in 0..50_000u64 {
            let item = i % 500;
            let w = if item < 5 { 500 } else { 1 };
            s.update(item, w);
            *truth.entry(item).or_insert(0) += w;
        }
        let n = s.stream_weight();
        let phi = 0.05;
        let reported: Vec<u64> = s
            .heavy_hitters(phi, ErrorType::NoFalseNegatives)
            .iter()
            .map(|r| r.item)
            .collect();
        for (&item, &f) in &truth {
            if f > crate::bounds::phi_threshold(phi, n) {
                assert!(reported.contains(&item), "missed heavy hitter {item}");
            }
        }
    }

    #[test]
    fn no_false_positives_contract() {
        let mut s = FreqSketch::with_max_counters(32);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for i in 0..50_000u64 {
            let item = i % 500;
            let w = if item < 5 { 500 } else { 1 };
            s.update(item, w);
            *truth.entry(item).or_insert(0) += w;
        }
        let threshold = s.maximum_error();
        for row in s.frequent_items_with_threshold(threshold, ErrorType::NoFalsePositives) {
            assert!(
                truth[&row.item] > threshold,
                "false positive: item {} true {} ≤ threshold {threshold}",
                row.item,
                truth[&row.item],
            );
        }
    }

    #[test]
    fn rows_are_sorted_descending() {
        let mut s = FreqSketch::with_max_counters(64);
        for i in 0..40u64 {
            s.update(i, 40 - i);
        }
        let rows = s.top_k(10);
        assert_eq!(rows.len(), 10);
        for w in rows.windows(2) {
            assert!(w[0].estimate >= w[1].estimate);
        }
        assert_eq!(rows[0].item, 0);
    }

    #[test]
    fn table_growth_preserves_counts() {
        let mut s = FreqSketch::with_max_counters(3000); // grows 8 → 4096
        for i in 0..2000u64 {
            s.update(i, i + 1);
        }
        assert_eq!(s.maximum_error(), 0, "no purge should have happened");
        for i in (0..2000u64).step_by(97) {
            assert_eq!(s.estimate(i), i + 1);
        }
        s.check_invariants();
    }

    #[test]
    fn preallocated_matches_grown() {
        let stream: Vec<(u64, u64)> = (0..30_000u64).map(|i| (i % 700, i % 13 + 1)).collect();
        let mut grown = FreqSketch::builder(128).seed(9).build().unwrap();
        let mut fixed = FreqSketch::builder(128)
            .seed(9)
            .grow_from_small(false)
            .build()
            .unwrap();
        for &(i, w) in &stream {
            grown.update(i, w);
            fixed.update(i, w);
        }
        // Same seed, same policy: purge decisions happen at the same points
        // once both are at max size; estimates must agree.
        for item in 0..700u64 {
            assert_eq!(grown.estimate(item), fixed.estimate(item), "item {item}");
        }
        assert_eq!(grown.maximum_error(), fixed.maximum_error());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = FreqSketch::builder(50).seed(1234).build().unwrap();
        let mut b = FreqSketch::builder(50).seed(1234).build().unwrap();
        for i in 0..100_000u64 {
            let item = (i * 2_654_435_761) % 999;
            a.update(item, i % 50 + 1);
            b.update(item, i % 50 + 1);
        }
        assert_eq!(a.maximum_error(), b.maximum_error());
        assert_eq!(a.num_purges(), b.num_purges());
        for item in 0..999 {
            assert_eq!(a.estimate(item), b.estimate(item));
        }
    }

    #[test]
    fn merge_is_error_bounded() {
        let mut left = FreqSketch::builder(64).seed(1).build().unwrap();
        let mut right = FreqSketch::builder(64).seed(2).build().unwrap();
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for i in 0..30_000u64 {
            let item = i % 400;
            let w = i % 7 + 1;
            if i % 2 == 0 {
                left.update(item, w);
            } else {
                right.update(item, w);
            }
            *truth.entry(item).or_insert(0) += w;
        }
        let n_total = left.stream_weight() + right.stream_weight();
        left.merge(&right);
        assert_eq!(left.stream_weight(), n_total);
        left.check_invariants();
        for (&item, &f) in &truth {
            assert!(left.lower_bound(item) <= f, "merge lb violated for {item}");
            assert!(left.upper_bound(item) >= f, "merge ub violated for {item}");
        }
        // Theorem 5: error ≤ N / (k*_eff · k) with both sketches' purges.
        let bound = left.a_priori_error(n_total);
        assert!(left.maximum_error() <= bound);
    }

    #[test]
    fn merge_into_empty_copies_counters() {
        let mut src = FreqSketch::with_max_counters(32);
        for i in 0..20u64 {
            src.update(i, (i + 1) * 5);
        }
        let mut dst = FreqSketch::with_max_counters(32);
        dst.merge(&src);
        for i in 0..20u64 {
            assert_eq!(dst.estimate(i), (i + 1) * 5);
        }
        assert_eq!(dst.stream_weight(), src.stream_weight());
    }

    #[test]
    fn absorb_exact_counters() {
        let mut s = FreqSketch::with_max_counters(64);
        s.absorb_counters(vec![(1u64, 100u64), (2, 50), (3, 0)], 150, 0);
        assert_eq!(s.estimate(1), 100);
        assert_eq!(s.estimate(2), 50);
        assert_eq!(s.estimate(3), 0);
        assert_eq!(s.stream_weight(), 150);
    }

    #[test]
    fn builder_rejects_bad_config() {
        assert!(matches!(
            FreqSketch::builder(0).build(),
            Err(Error::InvalidConfig(_))
        ));
        assert!(matches!(
            FreqSketch::builder(10)
                .policy(PurgePolicy::SampleQuantile {
                    sample_size: 0,
                    quantile: 0.5
                })
                .build(),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn memory_is_24k_bytes_at_design_point() {
        let s = FreqSketch::builder(24_576)
            .grow_from_small(false)
            .build()
            .unwrap();
        assert_eq!(s.memory_bytes(), 24 * 24_576);
    }

    #[test]
    fn purge_count_is_amortized_constant() {
        // Theorem 3: with SMED, purges happen at most ~once per (1-q)·k
        // inserts of new items; verify the rate is far below 1/update.
        let mut s = FreqSketch::builder(256).build().unwrap();
        for i in 0..100_000u64 {
            s.update(i, 1); // all-distinct: worst case for purge frequency
        }
        let purges = s.num_purges();
        // Each purge with c*=median kills ≥ half the counters ⇒ at most
        // one purge per k/2 inserts plus slack.
        assert!(purges <= 100_000 / (256 / 4), "too many purges: {purges}");
        assert!(purges > 0);
    }

    /// Reference stream with enough skew and churn to force growth and
    /// many purges at small k.
    fn churny_stream(len: u64) -> Vec<(u64, u64)> {
        (0..len)
            .map(|i| {
                let item = (i * 2_654_435_761) % 900;
                let w = if item < 3 { 1_000 } else { i % 17 + 1 };
                (item, w)
            })
            .collect()
    }

    #[test]
    fn update_batch_is_state_identical_to_scalar() {
        let stream = churny_stream(40_000);
        let mut scalar = FreqSketch::builder(128).seed(5).build().unwrap();
        for &(item, w) in &stream {
            scalar.update(item, w);
        }
        let mut batched = FreqSketch::builder(128).seed(5).build().unwrap();
        batched.update_batch(&stream);
        batched.check_invariants();
        // Bit-identical state: same counters in the same slots, same
        // offset, same sampler state — the wire encodings must match.
        assert_eq!(batched.serialize_to_bytes(), scalar.serialize_to_bytes());
    }

    #[test]
    fn update_batch_equivalence_across_arbitrary_splits() {
        let stream = churny_stream(20_000);
        let reference = {
            let mut s = FreqSketch::builder(64).seed(9).build().unwrap();
            s.update_batch(&stream);
            s
        };
        for parts in [2usize, 3, 7, 100] {
            let mut s = FreqSketch::builder(64).seed(9).build().unwrap();
            for chunk in stream.chunks(stream.len().div_ceil(parts)) {
                s.update_batch(chunk);
            }
            assert_eq!(
                s.serialize_to_bytes(),
                reference.serialize_to_bytes(),
                "split into {parts} parts diverged"
            );
        }
    }

    #[test]
    fn update_batch_skips_zero_weights_like_scalar() {
        let mut a = FreqSketch::with_max_counters(16);
        a.update_batch(&[(1, 5), (2, 0), (3, 7), (2, 0)]);
        assert_eq!(a.num_updates(), 2);
        assert_eq!(a.stream_weight(), 12);
        assert_eq!(a.estimate(2), 0);
    }

    #[test]
    fn extend_matches_update_batch() {
        let stream = churny_stream(30_000);
        let mut via_batch = FreqSketch::builder(96).seed(2).build().unwrap();
        via_batch.update_batch(&stream);
        let mut via_extend = FreqSketch::builder(96).seed(2).build().unwrap();
        via_extend.extend(stream.iter().copied());
        assert_eq!(
            via_extend.serialize_to_bytes(),
            via_batch.serialize_to_bytes()
        );
    }

    #[test]
    fn stream_weight_saturates_instead_of_panicking() {
        let mut s = FreqSketch::with_max_counters(8);
        s.update(1, i64::MAX as u64);
        s.update(2, i64::MAX as u64);
        assert!(!s.stream_weight_saturated());
        assert_eq!(s.stream_weight(), u64::MAX - 1);
        s.update(3, 100);
        assert!(s.stream_weight_saturated());
        assert_eq!(s.stream_weight(), u64::MAX);
        // Counter state is unaffected by N saturating.
        assert_eq!(s.lower_bound(3), 100);
        // The flag survives merging into another sketch.
        let mut dst = FreqSketch::with_max_counters(8);
        dst.merge(&s);
        assert!(dst.stream_weight_saturated());
        assert_eq!(dst.stream_weight(), u64::MAX);
    }

    #[test]
    fn batch_saturation_matches_scalar_saturation() {
        let stream = [(1u64, i64::MAX as u64), (2, i64::MAX as u64), (3, 77)];
        let mut scalar = FreqSketch::with_max_counters(8);
        for &(i, w) in &stream {
            scalar.update(i, w);
        }
        let mut batched = FreqSketch::with_max_counters(8);
        batched.update_batch(&stream);
        assert_eq!(batched.stream_weight(), scalar.stream_weight());
        assert_eq!(
            batched.stream_weight_saturated(),
            scalar.stream_weight_saturated()
        );
    }

    #[test]
    #[should_panic(expected = "exceeds supported range")]
    fn oversized_weight_panics() {
        let mut s = FreqSketch::with_max_counters(8);
        s.update(1, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "phi")]
    fn bad_phi_panics() {
        let s = FreqSketch::with_max_counters(8);
        s.heavy_hitters(1.5, ErrorType::NoFalseNegatives);
    }
}
