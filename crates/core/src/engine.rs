//! The generic sketch engine: one implementation of the paper's algorithm
//! (Algorithm 4 + the §2.3 production refinements) shared by every public
//! sketch variant.
//!
//! [`SketchEngine<K>`] owns the linear-probing counter table
//! ([`crate::table::LpTable`]), the scalar and batched update paths with
//! software prefetching, the grow-then-purge capacity discipline, the
//! fused single-pass purge, the §2.3.1 offset estimator, Algorithm-5
//! merging, and the saturating stream-weight policy. The public variants
//! are thin layers over it:
//!
//! * [`crate::FreqSketch`] = `SketchEngine<u64>` with by-value `u64`
//!   queries and the versioned wire format of [`crate::codec`];
//! * [`crate::ItemsSketch<T>`] = `SketchEngine<T>` for arbitrary item
//!   types, with the [`crate::item_codec`] wire format;
//! * [`crate::SignedSketch<K>`] = two engines (one per sign, §1.3's
//!   reduction);
//! * [`crate::ShardedSketch<K>`] = a hash-partitioned bank of engines with
//!   multi-core ingestion.
//!
//! Keys are abstracted by [`SketchKey`], which is blanket-implemented for
//! every [`Hash64`] type. The `u64` instantiation compiles to exactly the
//! code the specialized sketch had before this engine existed: the hash is
//! the inlined SplitMix64 finalizer, keys are stored in a dense `Vec<u64>`
//! (vacancy lives in the state array — no `Option` tag), and the wire
//! format and update-by-update state are pinned byte-identical by the
//! codec tests and differential proptests.

use core::marker::PhantomData;

use crate::error::Error;
use crate::hashing::Hash64;
use crate::purge::PurgePolicy;
use crate::result::{sort_rows_descending, ErrorType, Row};
use crate::rng::Xoshiro256StarStar;
use crate::table::LpTable;

/// Key types storable in a [`SketchEngine`].
///
/// Requirements: equality and cloning (keys move between table slots and
/// into result rows), a [`Default`] value to fill vacant slots (vacancy is
/// tracked by the table's state array, so the default value carries no
/// meaning and may collide with real keys), and a deterministic 64-bit
/// hash.
///
/// The trait is blanket-implemented for every type implementing
/// [`Hash64`] — all primitive integers, `String`, `&str`, `Vec<u8>`, and
/// pairs of such types. To use a custom key type, implement [`Hash64`]
/// (the [`crate::hashing::hash64_of`] helper hashes any `std::hash::Hash`
/// type deterministically) plus `Default`, and the blanket impl does the
/// rest.
pub trait SketchKey: Clone + Eq + Default {
    /// The key's stable 64-bit hash; the table probes with its low bits
    /// and shard routing uses its high bits.
    fn hash_key(&self) -> u64;
}

impl<T: Hash64 + Clone + Eq + Default> SketchKey for T {
    #[inline]
    fn hash_key(&self) -> u64 {
        self.hash64()
    }
}

/// Default seed for the purge-sampling generator: behaviour is
/// deterministic unless a seed is chosen explicitly via the builder.
pub const DEFAULT_SEED: u64 = 0x5745_4948_4854_4544; // "WEIGHTED"

/// Smallest table the growing sketch starts from (8 slots).
const LG_MIN_TABLE: u32 = 3;

/// Design load factor: the table is never filled past 3/4, giving the
/// `L ≈ 4k/3` sizing of §2.3.3.
const LOAD_NUM: usize = 3;
const LOAD_DEN: usize = 4;

/// Cap on the pending lazy-decay scale factor `d^p`: beyond this the
/// pending ticks are settled into the table eagerly. 2³¹ leaves every
/// counter headroom to absorb ≥ 2³¹-weight updates without per-update
/// materialization thrash.
const LAZY_POW_CAP: u64 = 1 << 31;

/// Smallest `lg` such that a `2^lg`-slot table holds `k` counters at 3/4
/// load, i.e. `2^lg ≥ 4k/3` (§2.3.3). `None` if `lg` would exceed 31
/// (including absurd `k` from corrupted encodings).
pub(crate) fn lg_table_len_for(k: usize) -> Option<u32> {
    let min_len = k.checked_mul(LOAD_DEN)?.div_ceil(LOAD_NUM);
    if min_len > 1 << 31 {
        return None;
    }
    let lg = min_len
        .next_power_of_two()
        .trailing_zeros()
        .max(LG_MIN_TABLE);
    if lg <= 31 {
        Some(lg)
    } else {
        None
    }
}

/// The generic frequent-items engine: Algorithm 4 with the §2.3
/// refinements, over any [`SketchKey`] item type.
///
/// All query methods take items by reference (`&K`), the natural calling
/// convention for possibly-heap-backed keys; the `u64`-specialized
/// [`crate::FreqSketch`] wrapper restores the by-value convention.
#[derive(Clone, Debug)]
pub struct SketchEngine<K: SketchKey> {
    pub(crate) table: LpTable<K>,
    pub(crate) lg_cur: u32,
    pub(crate) lg_max: u32,
    pub(crate) max_counters: usize,
    pub(crate) policy: PurgePolicy,
    pub(crate) rng: Xoshiro256StarStar,
    pub(crate) seed: u64,
    pub(crate) offset: u64,
    pub(crate) offset_saturated: bool,
    pub(crate) stream_weight: u64,
    pub(crate) weight_saturated: bool,
    pub(crate) num_updates: u64,
    pub(crate) num_purges: u64,
    pub(crate) scratch: Vec<i64>,
    pub(crate) pair_scratch: Vec<(K, i64)>,
    /// Lazy-decay denominator `d` (λ = 1/d); 0 while lazy fading has
    /// never been activated on this engine.
    lazy_den: u64,
    /// `d^p` for `p` pending (unmaterialized) decay ticks; 1 = fully
    /// materialized. Counters are stored forward-inflated by this factor.
    lazy_pow: u64,
    /// Number of pending decay ticks `p`.
    lazy_ticks: u32,
    /// Exact maximum stored counter value, maintained while lazy fading
    /// is active: `max_stored >= lazy_pow` decides whether the table
    /// still holds a counter that materializes to ≥ 1 (the eager path's
    /// `had_counters`), without touching the table.
    max_stored: i64,
    /// Per-phase ingest timing, populated only when profiling is enabled
    /// (`fig1_runtime --profile`).
    profile: Option<IngestProfile>,
}

/// Per-phase wall-clock breakdown of the ingest path, collected when
/// [`SketchEngine::enable_ingest_profile`] is on: where the update
/// seconds go, without an external profiler.
#[derive(Clone, Debug, Default)]
pub struct IngestProfile {
    /// Always zero: the engine no longer aggregates a batch before
    /// probing. Kept so existing readers of the profile still build,
    /// until a metrics registry replaces `IngestProfile`.
    pub aggregate: std::time::Duration,
    /// Batch sweep time: hashing, prefetching and the in-order upserts
    /// of `update_batch` ([`LpTable::adjust_or_insert_batch_weighted`]).
    pub probe: std::time::Duration,
    /// Purge (DecrementCounters) time, including `c*` selection.
    pub purge: std::time::Duration,
    /// Table growth/rehash time.
    pub grow: std::time::Duration,
}

/// Configures and constructs a [`SketchEngine`]. The public sketch
/// builders ([`crate::FreqSketchBuilder`], [`crate::ItemsSketchBuilder`])
/// wrap this type, so every variant exposes the same `policy` / `seed` /
/// `grow_from_small` surface.
#[derive(Clone, Debug)]
pub struct SketchEngineBuilder<K: SketchKey> {
    max_counters: usize,
    policy: PurgePolicy,
    seed: u64,
    grow_from_small: bool,
    _key: PhantomData<K>,
}

impl<K: SketchKey> SketchEngineBuilder<K> {
    /// Starts a builder for an engine maintaining at most `max_counters`
    /// assigned counters (the paper's `k`).
    pub fn new(max_counters: usize) -> Self {
        Self {
            max_counters,
            policy: PurgePolicy::default(),
            seed: DEFAULT_SEED,
            grow_from_small: true,
            _key: PhantomData,
        }
    }

    /// Selects the purge policy (default: SMED, the paper's recommendation).
    pub fn policy(mut self, policy: PurgePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Seeds the purge-sampling generator (default: [`DEFAULT_SEED`]).
    /// Two engines built with equal configuration and seed process any
    /// stream identically.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// If `false`, allocates the maximum-size table up front instead of
    /// growing from 8 slots. Pre-allocation avoids rehashing churn in
    /// benchmarks; growth minimizes footprint for underfilled sketches.
    pub fn grow_from_small(mut self, grow: bool) -> Self {
        self.grow_from_small = grow;
        self
    }

    /// Builds the engine.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] if `max_counters` is zero or so
    /// large the table would exceed 2³¹ slots, or if the policy parameters
    /// are out of range.
    pub fn build(self) -> Result<SketchEngine<K>, Error> {
        if self.max_counters == 0 {
            return Err(Error::InvalidConfig("max_counters must be positive".into()));
        }
        self.policy.validate().map_err(Error::InvalidConfig)?;
        let lg_max = lg_table_len_for(self.max_counters).ok_or_else(|| {
            Error::InvalidConfig(format!(
                "max_counters {} needs a table larger than 2^31 slots",
                self.max_counters
            ))
        })?;
        let lg_cur = if self.grow_from_small {
            LG_MIN_TABLE.min(lg_max)
        } else {
            lg_max
        };
        Ok(SketchEngine {
            table: LpTable::with_lg_len(lg_cur),
            lg_cur,
            lg_max,
            max_counters: self.max_counters,
            policy: self.policy,
            rng: Xoshiro256StarStar::from_seed(self.seed),
            seed: self.seed,
            offset: 0,
            offset_saturated: false,
            stream_weight: 0,
            weight_saturated: false,
            num_updates: 0,
            num_purges: 0,
            scratch: Vec::new(),
            pair_scratch: Vec::new(),
            lazy_den: 0,
            lazy_pow: 1,
            lazy_ticks: 0,
            max_stored: 0,
            profile: None,
        })
    }
}

impl<K: SketchKey> Default for SketchEngineBuilder<K> {
    /// A builder for a 1024-counter engine with default policy and seed.
    fn default() -> Self {
        Self::new(1024)
    }
}

impl<K: SketchKey> SketchEngine<K> {
    /// Starts a [`SketchEngineBuilder`] for at most `max_counters`
    /// counters.
    pub fn builder(max_counters: usize) -> SketchEngineBuilder<K> {
        SketchEngineBuilder::new(max_counters)
    }

    /// Number of counters currently assigned.
    #[inline]
    pub fn num_counters(&self) -> usize {
        self.table.num_active()
    }

    /// Maximum number of counters this engine maintains (the paper's `k`).
    #[inline]
    pub fn max_counters(&self) -> usize {
        self.max_counters
    }

    /// True if the engine has processed no updates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_updates == 0
    }

    /// Total weighted stream length `N = Σ Δⱼ` processed so far
    /// (including merged-in streams).
    ///
    /// Saturates at `u64::MAX` instead of panicking if the true total
    /// exceeds `u64` (beyond the paper's `N ≤ 10²⁰` deployment regime);
    /// [`Self::stream_weight_saturated`] reports when that happened. A
    /// saturated `N` only makes [`Self::heavy_hitters`] thresholds
    /// conservative (too low), so the no-false-negatives contract is
    /// preserved; counter bounds are unaffected.
    #[inline]
    pub fn stream_weight(&self) -> u64 {
        self.stream_weight
    }

    /// True if the total stream weight ever exceeded `u64::MAX` and
    /// [`Self::stream_weight`] is pinned at the saturation point.
    #[inline]
    pub fn stream_weight_saturated(&self) -> bool {
        self.weight_saturated
    }

    /// Folds `total` new stream weight into the running `N` under the
    /// documented saturating policy. Shared by the scalar update, the
    /// batch update, and the merge paths.
    #[inline]
    pub(crate) fn absorb_stream_weight(&mut self, total: u128) {
        let new_total = self.stream_weight as u128 + total;
        if new_total > u64::MAX as u128 {
            self.stream_weight = u64::MAX;
            self.weight_saturated = true;
        } else {
            self.stream_weight = new_total as u64;
        }
    }

    /// Folds `add` more cumulative decrement into the error offset under
    /// the same saturating policy as the stream weight: pin at `u64::MAX`
    /// instead of wrapping (silently *shrinking* the certified error band
    /// in release) or panicking (debug). Shared by purging, merging, and
    /// counter absorption.
    #[inline]
    pub(crate) fn absorb_offset(&mut self, add: u64) {
        let (sum, overflowed) = self.offset.overflowing_add(add);
        if overflowed {
            self.offset = u64::MAX;
            self.offset_saturated = true;
        } else {
            self.offset = sum;
        }
    }

    /// Number of update operations `n` processed so far. Saturates at
    /// `u64::MAX` when merges accumulate more operations than `u64`
    /// holds.
    #[inline]
    pub fn num_updates(&self) -> u64 {
        self.num_updates
    }

    /// Number of purge (DecrementCounters) operations performed.
    #[inline]
    pub fn num_purges(&self) -> u64 {
        self.num_purges
    }

    /// The purge policy in effect.
    #[inline]
    pub fn policy(&self) -> PurgePolicy {
        self.policy
    }

    /// The seed the purge sampler was initialized with.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Bytes of heap memory held by the counter table. For `u64` keys at
    /// the maximum table size this is `18 · 2^lg_max ≈ 24k` bytes
    /// (§2.3.3); see [`LpTable::memory_bytes`] for other key types.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.table.memory_bytes()
    }

    /// The current purge capacity: at the maximum table size, exactly
    /// `max_counters`; while growing, 3/4 of the current table length.
    /// Crate-visible so the persistence layer can validate that a
    /// checkpointed counter count respects the capacity discipline.
    #[inline]
    pub(crate) fn capacity_now(&self) -> usize {
        if self.lg_cur == self.lg_max {
            self.max_counters
        } else {
            (self.table.len() * LOAD_NUM) / LOAD_DEN
        }
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
    pub fn update(&mut self, item: K, weight: u64) {
        if weight == 0 {
            return;
        }
        assert!(
            weight <= i64::MAX as u64,
            "update weight {weight} exceeds supported range"
        );
        // Under pending lazy decay, counters are stored forward-inflated
        // by `lazy_pow`; the incoming weight joins at the same scale. If
        // the inflated weight would overflow an i64 counter, settle the
        // pending scale first (after which the plain weight fits).
        if self.lazy_pow > 1 && weight > (i64::MAX as u64) / self.lazy_pow {
            self.materialize_decay();
        }
        let delta = (weight * self.lazy_pow) as i64;
        self.absorb_stream_weight(weight as u128);
        self.num_updates += 1;
        self.feed(item, delta);
    }

    /// Processes a unit update `(item, 1)`.
    #[inline]
    pub fn update_one(&mut self, item: K) {
        self.update(item, 1);
    }

    /// Processes a slice of weighted updates, **state-identically** to
    /// calling [`Self::update`] on each pair in order, but faster: each
    /// chunk runs through one prefetched sweep
    /// ([`LpTable::adjust_or_insert_batch_weighted`]), the only batch
    /// ingest path for every key type:
    ///
    /// * probe homes are precomputed a chunk at a time and the table
    ///   slots software-prefetched ahead of the probe cursor, hiding DRAM
    ///   latency once the table outgrows L2, while the pairs themselves
    ///   are applied in order through the scalar probe loop;
    /// * the `stream_weight` / `num_updates` bookkeeping is folded into
    ///   one accumulation per chunk instead of one per update.
    ///
    /// Equivalence with the scalar path (same estimates, same purge
    /// points, same table layout, same sampler state) is maintained by
    /// sizing each chunk to the purge headroom: a chunk never inserts
    /// more counters than `capacity − num_active`, so no purge or growth
    /// decision can fall *inside* a chunk, and the items at capacity
    /// boundaries take the scalar path exactly as `update` would.
    pub fn update_batch(&mut self, batch: &[(K, u64)]) {
        let mut rest = batch;
        while !rest.is_empty() {
            let headroom = self.capacity_now().saturating_sub(self.table.num_active());
            if headroom == 0 {
                // At capacity: the next update may trigger growth or a
                // purge, whose timing must match the scalar path.
                let (item, weight) = &rest[0];
                let (item, weight) = (item.clone(), *weight);
                rest = &rest[1..];
                self.update(item, weight);
                continue;
            }
            let take = headroom.min(rest.len());
            let (chunk, tail) = rest.split_at(take);
            rest = tail;
            // Within-chunk inserts cannot exceed capacity (chunk size is
            // bounded by headroom), so no purge or growth decision can
            // fall inside the chunk — items at capacity boundaries take
            // the scalar path above, preserving scalar timing.
            self.ingest_chunk(chunk);
            debug_assert!(self.table.num_active() <= self.capacity_now());
        }
        self.debug_audit();
    }

    /// Ingests one headroom-bounded chunk in one prefetched sweep
    /// ([`LpTable::adjust_or_insert_batch_weighted`]). Under lazy decay
    /// the deltas join inflated by the pending scale and the sweep
    /// tracks the stored maximum. A pair the sweep cannot apply at the
    /// current scale goes through the scalar [`Self::update`], which
    /// panics with its own message (a weight above `i64::MAX`) or settles
    /// the pending decay first; the rest of the chunk then resumes.
    fn ingest_chunk(&mut self, mut chunk: &[(K, u64)]) {
        loop {
            let t = self.profile_start();
            let swept = if self.lazy_den == 0 {
                self.table
                    .adjust_or_insert_batch_weighted::<false>(chunk, 1)
            } else {
                self.table
                    .adjust_or_insert_batch_weighted::<true>(chunk, self.lazy_pow as i64)
            };
            self.profile_add(t, |p| &mut p.probe);
            if self.lazy_den != 0 && swept.max_value > self.max_stored {
                self.max_stored = swept.max_value;
            }
            self.absorb_stream_weight(swept.total);
            self.num_updates += swept.applied;
            let Some((item, weight)) = chunk.get(swept.consumed) else {
                return;
            };
            // Within the headroom, so the scalar step cannot purge or grow.
            self.update(item.clone(), *weight);
            chunk = &chunk[swept.consumed + 1..];
        }
    }

    /// Core insertion path shared by updates and merges: adjust the counter,
    /// then grow or purge if the capacity discipline is violated. Under
    /// pending lazy decay the capacity check first settles the pending
    /// scale — materialization drops counters that fade below one, which
    /// often restores headroom without a purge, and purge `c*` selection
    /// must see true counter values anyway.
    pub(crate) fn feed(&mut self, item: K, weight: i64) {
        let value = self.table.adjust_or_insert_value(item, weight);
        if self.lazy_den != 0 && value > self.max_stored {
            self.max_stored = value;
        }
        while self.table.num_active() > self.capacity_now() {
            if self.lazy_pow > 1 {
                self.materialize_decay();
                continue;
            }
            if self.lg_cur < self.lg_max {
                let t = self.profile_start();
                self.grow();
                self.profile_add(t, |p| &mut p.grow);
            } else {
                let t = self.profile_start();
                self.purge();
                self.profile_add(t, |p| &mut p.purge);
            }
        }
    }

    /// Doubles the table, rehashing all counters through the prefetching
    /// batch path (rehash is pure random access over the new table, the
    /// best case for prefetching).
    fn grow(&mut self) {
        let new_lg = self.lg_cur + 1;
        let mut bigger = LpTable::with_lg_len(new_lg);
        let mut pairs = core::mem::take(&mut self.pair_scratch);
        pairs.clear();
        pairs.extend(self.table.iter().map(|(k, v)| (k.clone(), v)));
        bigger.adjust_or_insert_batch(&pairs);
        pairs.clear();
        self.pair_scratch = pairs;
        self.table = bigger;
        self.lg_cur = new_lg;
        self.debug_audit_mid();
    }

    /// One DecrementCounters() operation: compute `c*` per the policy,
    /// subtract it from every counter, drop the non-positive ones, and fold
    /// `c*` into the estimate offset (§2.3.1).
    fn purge(&mut self) {
        let cstar = self
            .policy
            .compute_cstar(&self.table, &mut self.rng, &mut self.scratch);
        debug_assert!(cstar > 0, "counters are positive, so c* must be");
        let (_, max_kept) = self.table.purge_decrement(cstar);
        self.absorb_offset(cstar as u64);
        self.num_purges += 1;
        if self.lazy_den != 0 {
            // Counter values dropped; the purge sweep reports the new
            // exact maximum for the lazy-decay `had_counters` test.
            self.max_stored = max_kept.max(0);
        }
        self.debug_audit_mid();
    }

    /// Scales every counter in place to `⌊c · num / den⌋`, dropping the
    /// counters that scale to zero through the fused-purge compaction
    /// path ([`LpTable::scale_values`]) — the table keeps its canonical
    /// layout and all probing invariants. This is the one hook the
    /// time-fading model needs (`crates/apps`' `DecayedSketch` calls it
    /// once per epoch tick with the decay factor λ = `num/den`).
    ///
    /// Bounds accounting: the stream weight `N` scales to `⌊λN⌋` (the
    /// decayed stream mass), and the error offset scales to
    /// `⌈λ·offset⌉ + 1` whenever counters were present — the `+1` covers
    /// the sub-integer mass each counter loses to flooring, so the
    /// certified contract survives scaling against the *real-valued*
    /// decayed frequencies `λ·fᵢ`:
    ///
    /// * tracked items: `c'(i) = ⌊λ·c(i)⌋ ≤ λ·fᵢ ≤ c'(i) + offset'`;
    /// * dropped and untracked items: `λ·fᵢ ≤ offset'`.
    ///
    /// `num_updates` / `num_purges` are operation counts and do not
    /// scale; a saturated stream weight stays flagged (`N` was already a
    /// lower bound and remains one after scaling).
    ///
    /// # Panics
    /// Panics if `den` is zero or `num > den`: the engine only decays.
    /// `num == den` is the identity and `num == 0` empties the engine
    /// (counters, offset, and stream weight all go to zero).
    pub fn scale_counters(&mut self, num: u64, den: u64) {
        assert!(den > 0, "scale denominator must be positive");
        assert!(num <= den, "scale_counters only scales down ({num}/{den})");
        self.materialize_decay();
        if num == den {
            self.debug_audit();
            return;
        }
        if num == 0 {
            self.table.clear();
            self.offset = 0;
            self.stream_weight = 0;
            self.max_stored = 0;
            self.debug_audit();
            return;
        }
        let had_counters = !self.table.is_empty();
        let (_, max_kept) = self.table.scale_values(num, den);
        let scaled_offset = (self.offset as u128 * num as u128).div_ceil(den as u128) as u64;
        self.offset = scaled_offset.saturating_add(u64::from(had_counters));
        self.stream_weight = (self.stream_weight as u128 * num as u128 / den as u128) as u64;
        if self.lazy_den != 0 {
            self.max_stored = max_kept.max(0);
        }
        self.debug_audit();
    }

    /// One **lazy** decay tick with factor `1/den`: equivalent to
    /// [`Self::scale_counters`]`(1, den)` but O(1) — the table sweep is
    /// deferred by folding `den` into a pending global scale factor, while
    /// the scalar bookkeeping (`offset`, `N`) ticks eagerly in true
    /// units. Incoming updates join forward-inflated by the pending
    /// factor, so deferred materialization divides every counter by the
    /// same power and lands on exactly the state eager per-tick scaling
    /// would produce (counter for counter; see `materialize_decay` for
    /// the slot-layout caveat).
    ///
    /// Returns `true` when the tick was a fixed point — the engine holds
    /// no mass that further ticks could change (drained). The caller can
    /// stop fast-forwarding.
    ///
    /// # Panics
    /// Panics if `den` is zero.
    pub fn lazy_scale_counters(&mut self, den: u64) -> bool {
        assert!(den > 0, "scale denominator must be positive");
        if den == 1 {
            return true;
        }
        if den > LAZY_POW_CAP {
            // A single tick this harsh cannot usefully defer (any pending
            // power would immediately overflow the inflation guard).
            let before = (self.num_counters(), self.offset, self.stream_weight);
            self.scale_counters(1, den);
            return before == (self.num_counters(), self.offset, self.stream_weight)
                && self.num_counters() == 0;
        }
        if self.lazy_den == 0 {
            // First activation: establish the exact stored maximum.
            self.max_stored = self.table.max_value().unwrap_or(0);
        } else if self.lazy_den != den {
            // Factor changed mid-stream: settle the old scale first.
            self.materialize_decay();
        }
        self.lazy_den = den;
        // `had_counters` of the eager path: does any stored counter
        // materialize to ≥ 1 at the *current* pending scale? Stored
        // values are true·pow (plus truncation the eager path would have
        // applied too), so stored ≥ pow ⟺ true value ≥ 1.
        let had = self.max_stored >= self.lazy_pow as i64;
        let new_offset = self.offset.div_ceil(den).saturating_add(u64::from(had));
        let new_weight = self.stream_weight / den;
        let fixed_point = !had && new_offset == self.offset && new_weight == self.stream_weight;
        self.offset = new_offset;
        self.stream_weight = new_weight;
        if fixed_point {
            // Drained: no counter reaches 1 any more and the scalars are
            // stable. Settle so the zombie counters (all < pow) compact
            // away and the table empties; every further tick is a no-op.
            self.materialize_decay();
            debug_assert!(self.table.is_empty());
            self.debug_audit();
            return true;
        }
        if self.lazy_pow > LAZY_POW_CAP / den {
            self.materialize_decay();
        }
        self.lazy_pow *= den;
        self.lazy_ticks += 1;
        self.debug_audit();
        false
    }

    /// Settles any pending lazy-decay scale into the table: every counter
    /// is divided (flooring) by the pending factor through the fused
    /// compaction path, dropping counters that fade below one. No-op when
    /// nothing is pending.
    ///
    /// Counter values after settling equal what eager per-tick
    /// [`Self::scale_counters`] would have produced (`⌊⌊c/d⌋…/d⌋ =
    /// ⌊c/dᵖ⌋` for λ = 1/d). The *slot layout* may differ from the eager
    /// history's: a counter that eagerly faded to zero mid-interval and
    /// was later re-inserted sits elsewhere in probe order. Layout
    /// differences never affect query answers; they only matter to
    /// byte-level fingerprint comparisons (see DESIGN.md).
    pub fn materialize_decay(&mut self) {
        if self.lazy_pow <= 1 {
            return;
        }
        let pow = self.lazy_pow;
        self.lazy_pow = 1;
        self.lazy_ticks = 0;
        let (_, max_kept) = self.table.scale_values(1, pow);
        self.max_stored = max_kept.max(0);
        // Mid-variant: the lazy tick that triggers an overflow-guard
        // materialization has already advanced `offset`/`N` one tick,
        // so the mass check belongs to the caller's end-of-tick audit.
        self.debug_audit_mid();
    }

    /// The pending lazy-decay scale factor `d^p` (1 = fully
    /// materialized). While this exceeds 1, raw table counters (and
    /// therefore [`Self::lower_bound`]-style raw queries) are inflated by
    /// this factor; the decayed-sketch layer divides it back out.
    #[inline]
    pub fn pending_decay_pow(&self) -> u64 {
        self.lazy_pow
    }

    /// Number of unmaterialized lazy decay ticks.
    #[inline]
    pub fn pending_decay_ticks(&self) -> u32 {
        self.lazy_ticks
    }

    /// Turns on per-phase ingest timing (see [`IngestProfile`]).
    pub fn enable_ingest_profile(&mut self) {
        if self.profile.is_none() {
            self.profile = Some(IngestProfile::default());
        }
    }

    /// Takes the accumulated ingest profile, resetting the counters to
    /// zero (profiling stays enabled). `None` if profiling was never
    /// enabled.
    pub fn take_ingest_profile(&mut self) -> Option<IngestProfile> {
        self.profile.as_mut().map(core::mem::take)
    }

    #[inline]
    fn profile_start(&self) -> Option<std::time::Instant> {
        self.profile.as_ref().map(|_| std::time::Instant::now())
    }

    #[inline]
    fn profile_add(
        &mut self,
        start: Option<std::time::Instant>,
        field: fn(&mut IngestProfile) -> &mut std::time::Duration,
    ) {
        if let (Some(start), Some(profile)) = (start, self.profile.as_mut()) {
            *field(profile) += start.elapsed();
        }
    }

    /// Test/bench aid: capacities of every reusable ingest scratch buffer
    /// (purge sampler, rehash pairs, table compaction gaps). Steady-state ingest must not grow
    /// any of them — the fig1 harness asserts these stay flat across reps.
    #[doc(hidden)]
    pub fn ingest_scratch_capacities(&self) -> [usize; 3] {
        [
            self.scratch.capacity(),
            self.pair_scratch.capacity(),
            self.table.compaction_scratch_capacity(),
        ]
    }

    /// Estimate `f̂ᵢ` of the item's weighted frequency: `c(i) + offset` for
    /// tracked items, `0` for untracked items (§2.3.1's MG/SS hybrid).
    /// Always satisfies `estimate − maximum_error ≤ fᵢ ≤ estimate` for
    /// tracked items and `0 ≤ fᵢ ≤ maximum_error` for untracked ones.
    /// Saturates at `u64::MAX` if the sum overflows (possible only after
    /// the offset itself saturated — see [`Self::maximum_error`]).
    #[inline]
    pub fn estimate(&self, item: &K) -> u64 {
        match self.table.get(item) {
            Some(c) => (c as u64).saturating_add(self.offset),
            None => 0,
        }
    }

    /// Certified lower bound on the item's frequency: `c(i)`, or `0` if the
    /// item is not tracked. Never exceeds the true frequency.
    #[inline]
    pub fn lower_bound(&self, item: &K) -> u64 {
        self.table.get(item).map_or(0, |c| c as u64)
    }

    /// Certified upper bound on the item's frequency: `c(i) + offset`, or
    /// `offset` alone if the item is not tracked. Never below the true
    /// frequency (a saturated sum clamps to `u64::MAX`, which is still an
    /// upper bound for any in-range frequency).
    #[inline]
    pub fn upper_bound(&self, item: &K) -> u64 {
        self.table
            .get(item)
            .map_or(self.offset, |c| (c as u64).saturating_add(self.offset))
    }

    /// The a-posteriori maximum error: any estimate is within this of the
    /// true frequency. Equal to the cumulative purge decrement (`offset`).
    ///
    /// Saturates at `u64::MAX` instead of panicking (debug) or wrapping
    /// (release) if repeated merging pushes the cumulative decrement past
    /// `u64` — a wrapped offset would silently *understate* the certified
    /// error band, the one direction the contract cannot tolerate.
    /// [`Self::maximum_error_saturated`] reports when that happened;
    /// upper bounds then pin at `u64::MAX` (vacuously correct) while
    /// lower bounds stay exact.
    #[inline]
    pub fn maximum_error(&self) -> u64 {
        self.offset
    }

    /// True if the cumulative error offset ever exceeded `u64::MAX` and
    /// [`Self::maximum_error`] is pinned at the saturation point.
    #[inline]
    pub fn maximum_error_saturated(&self) -> bool {
        self.offset_saturated
    }

    /// A-priori bound on `maximum_error` after processing weight `n_total`:
    /// `n_total / (k*_eff · k)` per Lemma 4 / Theorems 2 & 4, where
    /// `k*_eff` comes from [`PurgePolicy::effective_kstar_fraction`].
    pub fn a_priori_error(&self, n_total: u64) -> u64 {
        let kstar = self.policy.effective_kstar_fraction() * self.max_counters as f64;
        (n_total as f64 / kstar).ceil() as u64
    }

    /// Iterates over the tracked `(&item, lower_bound)` pairs in table
    /// order.
    pub fn counters(&self) -> impl Iterator<Item = (&K, u64)> + '_ {
        self.table.iter().map(|(k, v)| (k, v as u64))
    }

    /// Builds the result row for a tracked item.
    fn row_for(&self, item: &K, count: i64) -> Row<K> {
        let upper = (count as u64).saturating_add(self.offset);
        Row {
            item: item.clone(),
            estimate: upper,
            lower_bound: count as u64,
            upper_bound: upper,
        }
    }

    /// Returns every item whose frequency may exceed `threshold`, under the
    /// chosen reporting contract, sorted by descending estimate:
    ///
    /// * [`ErrorType::NoFalsePositives`]: items with
    ///   `lower_bound > threshold` — all genuinely above the threshold.
    /// * [`ErrorType::NoFalseNegatives`]: items with
    ///   `upper_bound > threshold` — misses nothing above the threshold.
    ///
    /// A threshold below [`Self::maximum_error`] is raised to it (as in
    /// the deployed DataSketches API): the summary cannot enumerate items
    /// whose entire frequency fits inside its error band, so thresholds
    /// below that level cannot honour either contract.
    pub fn frequent_items_with_threshold(
        &self,
        threshold: u64,
        error_type: ErrorType,
    ) -> Vec<Row<K>>
    where
        K: Ord,
    {
        let threshold = threshold.max(self.maximum_error());
        let mut rows: Vec<Row<K>> = self
            .table
            .iter()
            .filter_map(|(item, count)| {
                let row = self.row_for(item, count);
                let include = match error_type {
                    ErrorType::NoFalsePositives => row.lower_bound > threshold,
                    ErrorType::NoFalseNegatives => row.upper_bound > threshold,
                };
                include.then_some(row)
            })
            .collect();
        sort_rows_descending(&mut rows);
        rows
    }

    /// [`Self::frequent_items_with_threshold`] with the engine's own
    /// `maximum_error` as the threshold — the finest distinction the
    /// summary can certify.
    pub fn frequent_items(&self, error_type: ErrorType) -> Vec<Row<K>>
    where
        K: Ord,
    {
        self.frequent_items_with_threshold(self.maximum_error(), error_type)
    }

    /// The (φ, ε)-heavy-hitters query of §1.2: items whose frequency may
    /// exceed `max(phi · N, maximum_error)`, under the chosen reporting
    /// contract (see [`Self::frequent_items_with_threshold`] for why the
    /// threshold cannot usefully go below the summary's error level).
    ///
    /// The threshold is the exact `⌊phi · N⌋` of
    /// [`crate::bounds::phi_threshold`] — correct even when `N ≥ 2⁵³`,
    /// where a floating-point product would silently round.
    ///
    /// # Panics
    /// Panics if `phi` is outside `[0, 1]`.
    pub fn heavy_hitters(&self, phi: f64, error_type: ErrorType) -> Vec<Row<K>>
    where
        K: Ord,
    {
        let threshold = crate::bounds::phi_threshold(phi, self.stream_weight);
        self.frequent_items_with_threshold(threshold, error_type)
    }

    /// The `k` tracked items with the largest estimates.
    pub fn top_k(&self, k: usize) -> Vec<Row<K>>
    where
        K: Ord,
    {
        let mut rows: Vec<Row<K>> = self
            .table
            .iter()
            .map(|(item, count)| self.row_for(item, count))
            .collect();
        sort_rows_descending(&mut rows);
        rows.truncate(k);
        rows
    }

    /// Merges `other` into `self` (Algorithm 5): every counter of `other`
    /// is replayed into `self` as a weighted update, and the offsets add.
    /// After the merge, `self` summarizes the concatenation of both input
    /// streams with error bounded by Theorem 5; `other` is unchanged and
    /// can be discarded.
    ///
    /// Counters are replayed in randomized order so that merging summaries
    /// that share the hash function cannot overpopulate probe runs (§3.2,
    /// Note). The implementation collects the counters with one sequential
    /// scan and Fisher-Yates-shuffles the compact pair array — cheaper
    /// than visiting the source table in a strided random order, which
    /// costs a cache miss per slot.
    pub fn merge(&mut self, other: &SketchEngine<K>) {
        // Merging replays true counter values: settle our pending decay
        // scale, and deflate `other`'s raw counters by its own pending
        // factor on the fly (flooring division — exactly what
        // materializing `other` would store; faded-to-zero counters are
        // skipped like the compaction pass would drop them).
        self.materialize_decay();
        let opow = other.lazy_pow.max(1) as i64;
        let mut pairs: Vec<(K, i64)> = other
            .table
            .iter()
            .filter_map(|(k, v)| {
                let v = v / opow;
                (v > 0).then(|| (k.clone(), v))
            })
            .collect();
        // Fisher-Yates with the engine's own sampler.
        for i in (1..pairs.len()).rev() {
            let j = self.rng.next_below(i as u64 + 1) as usize;
            pairs.swap(i, j);
        }
        for (item, count) in pairs {
            self.feed(item, count);
        }
        // The offsets and operation counts add saturating, mirroring the
        // stream-weight policy: beyond-u64 totals pin at the maximum
        // rather than panicking (debug) or wrapping the certified error
        // band (release).
        self.absorb_offset(other.offset);
        self.offset_saturated |= other.offset_saturated;
        self.absorb_stream_weight(other.stream_weight as u128);
        self.weight_saturated |= other.weight_saturated;
        self.num_updates = self.num_updates.saturating_add(other.num_updates);
        self.debug_audit();
    }

    /// Replays an arbitrary counter list into the engine as weighted
    /// updates. This is Algorithm 5's generic form: the source can be any
    /// counter-based summary (§3.2 "applies generically to any
    /// counter-based algorithm"). `source_stream_weight` is the weighted
    /// length of the stream the source summarized (its `N`), and
    /// `source_max_error` the summary's maximum estimation error (0 for an
    /// exact counter list).
    pub fn absorb_counters<I>(
        &mut self,
        counters: I,
        source_stream_weight: u64,
        source_max_error: u64,
    ) where
        I: IntoIterator<Item = (K, u64)>,
    {
        // Absorbed counts are true values; settle any pending decay scale
        // so `feed` applies them at scale 1.
        self.materialize_decay();
        for (item, count) in counters {
            if count == 0 {
                continue;
            }
            assert!(count <= i64::MAX as u64, "counter {count} exceeds range");
            self.feed(item, count as i64);
        }
        self.absorb_offset(source_max_error);
        self.absorb_stream_weight(source_stream_weight as u128);
        self.debug_audit();
    }

    /// Test/debug aid: verifies the internal table invariants.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.table.check_invariants();
        assert!(self.table.num_active() <= self.capacity_now().max(self.max_counters));
    }

    /// Non-panicking structural audit of the whole engine — the
    /// `debug-invariants` sanitizer's entry point, and the final gate of
    /// the decode paths (a corrupt-but-CRC-valid payload that violates an
    /// engine invariant must surface as `Err`, never as a later panic).
    ///
    /// Checks, in order: the table audit ([`LpTable::audit`]), the
    /// capacity discipline, lazy-decay bookkeeping consistency
    /// (`lazy_pow`/`lazy_ticks`/`max_stored`), and mass conservation —
    /// the deflated counter total never exceeds the stream weight `N`
    /// (each update adds at most its weight to one counter, purges and
    /// decay only subtract, and sum-of-floors ≤ floor-of-sum keeps the
    /// bound through pending decay scales).
    ///
    /// # Errors
    /// Describes the first violated invariant.
    pub fn audit(&self) -> Result<(), String> {
        self.audit_inner(true)
    }

    /// [`Self::audit`] minus the mass-conservation check, for hooks that
    /// fire mid-operation (`grow`/`purge` run inside `merge` and the
    /// decode replay loops, where counters are ahead of the not-yet
    /// absorbed stream weight).
    fn audit_inner(&self, check_mass: bool) -> Result<(), String> {
        self.table.audit()?;
        let active = self.table.num_active();
        let cap = self.capacity_now().max(self.max_counters);
        if active > cap {
            return Err(format!("{active} active counters exceed capacity {cap}"));
        }
        if self.lazy_pow == 0 {
            return Err("lazy_pow must be at least 1".into());
        }
        if self.lazy_pow > LAZY_POW_CAP {
            return Err(format!(
                "lazy_pow {} exceeds the inflation cap {LAZY_POW_CAP}",
                self.lazy_pow
            ));
        }
        if self.lazy_den == 0 && (self.lazy_pow != 1 || self.lazy_ticks != 0) {
            return Err(format!(
                "pending decay ({} ticks, pow {}) without an active factor",
                self.lazy_ticks, self.lazy_pow
            ));
        }
        if self.lazy_ticks == 0 && self.lazy_pow != 1 {
            return Err(format!(
                "lazy_pow {} with zero pending ticks",
                self.lazy_pow
            ));
        }
        if self.lazy_den != 0 {
            let table_max = self.table.max_value().unwrap_or(0);
            if self.max_stored != table_max {
                return Err(format!(
                    "max_stored {} drifted from the table maximum {table_max}",
                    self.max_stored
                ));
            }
        }
        if check_mass && !self.weight_saturated {
            let pow = u128::from(self.lazy_pow);
            let deflated: u128 = self
                .table
                .iter()
                .map(|(_, v)| (v.max(0) as u128) / pow)
                .sum();
            if deflated > u128::from(self.stream_weight) {
                return Err(format!(
                    "stored mass {deflated} exceeds stream weight {}",
                    self.stream_weight
                ));
            }
        }
        Ok(())
    }

    /// Full-audit hook: compiles to nothing without `debug-invariants`.
    #[cfg(feature = "debug-invariants")]
    #[inline]
    fn debug_audit(&self) {
        if let Err(msg) = self.audit() {
            panic!("debug-invariants: {msg}");
        }
    }

    #[cfg(not(feature = "debug-invariants"))]
    #[inline(always)]
    fn debug_audit(&self) {}

    /// Mid-operation hook (no mass check): compiles to nothing without
    /// `debug-invariants`.
    #[cfg(feature = "debug-invariants")]
    #[inline]
    fn debug_audit_mid(&self) {
        if let Err(msg) = self.audit_inner(false) {
            panic!("debug-invariants: {msg}");
        }
    }

    #[cfg(not(feature = "debug-invariants"))]
    #[inline(always)]
    fn debug_audit_mid(&self) {}

    /// Test/debug aid: a byte string capturing the engine's complete
    /// observable state — scalar bookkeeping, sampler state, and the
    /// table layout slot by slot (keys are folded in by hash). Two
    /// engines with equal fingerprints will process any future stream
    /// identically. Used by the differential proptests to pin
    /// `ItemsSketch<u64>` to `FreqSketch` state-for-state.
    #[doc(hidden)]
    pub fn state_fingerprint(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.lg_cur.to_le_bytes());
        out.extend_from_slice(&(self.max_counters as u64).to_le_bytes());
        // The policy participates in future purge decisions, so it is
        // part of "will behave identically from here on".
        out.push(crate::codec::policy_tag(&self.policy));
        let (policy_a, policy_b) = crate::codec::policy_params(&self.policy);
        out.extend_from_slice(&policy_a.to_le_bytes());
        out.extend_from_slice(&policy_b.to_le_bytes());
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.push(u8::from(self.offset_saturated));
        out.extend_from_slice(&self.stream_weight.to_le_bytes());
        out.push(u8::from(self.weight_saturated));
        out.extend_from_slice(&self.num_updates.to_le_bytes());
        out.extend_from_slice(&self.num_purges.to_le_bytes());
        for word in self.rng.state() {
            out.extend_from_slice(&word.to_le_bytes());
        }
        for (slot, (key, value)) in self.slots().enumerate() {
            out.extend_from_slice(&(slot as u64).to_le_bytes());
            out.extend_from_slice(&key.hash_key().to_le_bytes());
            out.extend_from_slice(&value.to_le_bytes());
        }
        // Pending lazy-decay state changes how future updates are scaled,
        // so it is part of "will behave identically from here on".
        // Appended only once lazy fading has been activated: engines that
        // never go lazy keep the fingerprint byte layout pinned by the
        // PR-5 compat fixtures (length disambiguates the two forms).
        if self.lazy_den != 0 {
            out.extend_from_slice(&self.lazy_den.to_le_bytes());
            out.extend_from_slice(&self.lazy_pow.to_le_bytes());
            out.extend_from_slice(&self.lazy_ticks.to_le_bytes());
            out.extend_from_slice(&self.max_stored.to_le_bytes());
        }
        out
    }

    /// Occupied `(key, value)` slots in slot order (decoupled from
    /// `counters` so fingerprinting sees raw counter values).
    fn slots(&self) -> impl Iterator<Item = (&K, i64)> + '_ {
        self.table.iter()
    }

    /// Test/debug aid: the counter table's exact slot layout — see
    /// [`LpTable::layout_fingerprint`]. Used by the scale/purge
    /// layout-canonicality proptests.
    #[doc(hidden)]
    pub fn table_layout_fingerprint(&self) -> Vec<u8> {
        self.table.layout_fingerprint()
    }
}

/// Streaming ingestion through the batch path: buffers the iterator into
/// chunks and forwards them to [`SketchEngine::update_batch`], so
/// `engine.extend(stream)` gets the prefetching fast path without the
/// caller materializing a slice.
impl<K: SketchKey> Extend<(K, u64)> for SketchEngine<K> {
    fn extend<I: IntoIterator<Item = (K, u64)>>(&mut self, iter: I) {
        /// Buffered pairs per `update_batch` call; large enough to
        /// amortize the call, small enough to stay cache-resident.
        const EXTEND_BUF: usize = 4096;
        let mut buf: Vec<(K, u64)> = Vec::with_capacity(EXTEND_BUF);
        for pair in iter {
            buf.push(pair);
            if buf.len() == EXTEND_BUF {
                self.update_batch(&buf);
                buf.clear();
            }
        }
        self.update_batch(&buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lg_sizing_matches_paper() {
        // k = 24576 → 4k/3 = 32768 = 2^15 (§4.1's largest configuration).
        assert_eq!(lg_table_len_for(24_576), Some(15));
        // k = 0.75 * 2^lg boundary cases
        assert_eq!(lg_table_len_for(6), Some(3));
        assert_eq!(lg_table_len_for(7), Some(4));
        // tiny k still gets the minimum table
        assert_eq!(lg_table_len_for(1), Some(3));
    }

    #[test]
    fn u64_hash_is_the_splitmix_finalizer() {
        // The zero-overhead contract: SketchKey for u64 must be exactly
        // the inline SplitMix64 finalizer the specialized sketch used, so
        // table layouts (and hence wire bytes) cannot move.
        for x in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            assert_eq!(SketchKey::hash_key(&x), crate::rng::split_mix64_mix(x));
        }
    }

    #[test]
    fn engine_is_usable_directly() {
        let mut e: SketchEngine<String> = SketchEngine::builder(16).build().unwrap();
        e.update("hot".into(), 100);
        e.update("cold".into(), 1);
        assert_eq!(e.estimate(&"hot".to_string()), 100);
        assert_eq!(e.num_counters(), 2);
        let rows = e.top_k(1);
        assert_eq!(rows[0].item, "hot");
    }

    #[test]
    fn scale_counters_halves_and_drops() {
        let mut e: SketchEngine<u64> = SketchEngine::builder(16).build().unwrap();
        e.update(1, 100);
        e.update(2, 1);
        e.update(3, 7);
        e.scale_counters(1, 2);
        assert_eq!(e.lower_bound(&1), 50);
        assert_eq!(e.lower_bound(&2), 0, "1/2 floors to zero and is dropped");
        assert_eq!(e.lower_bound(&3), 3);
        assert_eq!(e.num_counters(), 2);
        assert_eq!(e.stream_weight(), 54, "N decays with the counters");
        // offset was 0; the +1 covers flooring loss, so the upper bound
        // still brackets the real-valued decayed frequencies.
        assert_eq!(e.maximum_error(), 1);
        assert!(e.upper_bound(&3) as f64 >= 3.5);
        e.check_invariants();
    }

    #[test]
    fn scale_counters_identity_and_zero() {
        let mut e: SketchEngine<u64> = SketchEngine::builder(16).build().unwrap();
        e.update(1, 10);
        let before = e.state_fingerprint();
        e.scale_counters(5, 5);
        assert_eq!(e.state_fingerprint(), before, "identity is a no-op");
        e.scale_counters(0, 3);
        assert_eq!(e.num_counters(), 0);
        assert_eq!(e.stream_weight(), 0);
        assert_eq!(e.maximum_error(), 0);
    }

    #[test]
    fn scale_counters_bounds_survive_purging_and_scaling() {
        // Interleave heavy traffic (forcing purges, offset > 0) with decay
        // ticks; the certified bounds must bracket the real-valued decayed
        // truth throughout.
        let mut e: SketchEngine<u64> = SketchEngine::builder(16).build().unwrap();
        let mut truth = vec![0.0f64; 100];
        let mut x = 5u64;
        for round in 0..10 {
            for _ in 0..2_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let item = (x >> 33) % 100;
                let w = x % 30 + 1;
                e.update(item, w);
                truth[item as usize] += w as f64;
            }
            e.scale_counters(3, 4);
            for t in &mut truth {
                *t *= 0.75;
            }
            for item in 0..100u64 {
                let f = truth[item as usize];
                assert!(
                    e.lower_bound(&item) as f64 <= f + 1e-6,
                    "round {round} item {item}: lb {} above decayed truth {f}",
                    e.lower_bound(&item)
                );
                assert!(
                    e.upper_bound(&item) as f64 >= f - 1e-6,
                    "round {round} item {item}: ub {} below decayed truth {f}",
                    e.upper_bound(&item)
                );
            }
        }
        assert!(e.num_purges() > 0, "test must exercise purging");
        e.check_invariants();
    }

    #[test]
    fn merge_saturates_offset_and_num_updates() {
        // Offsets near u64::MAX arise from chains of merges; before the
        // saturating policy, `merge` panicked in debug builds and wrapped
        // (shrinking the certified error band) in release.
        let mut a: SketchEngine<u64> = SketchEngine::builder(16).build().unwrap();
        a.update(1, 5);
        a.offset = u64::MAX - 10;
        a.num_updates = u64::MAX - 3;
        let mut b: SketchEngine<u64> = SketchEngine::builder(16).build().unwrap();
        b.update(2, 7);
        b.offset = 100;
        b.num_updates = 50;
        a.merge(&b);
        assert_eq!(a.maximum_error(), u64::MAX, "offset pinned, not wrapped");
        assert!(a.maximum_error_saturated());
        assert_eq!(a.num_updates(), u64::MAX, "update count pinned");
        // Query paths stay total: sums involving the pinned offset clamp.
        assert_eq!(a.estimate(&1), u64::MAX);
        assert_eq!(a.upper_bound(&2), u64::MAX);
        assert_eq!(a.upper_bound(&999), u64::MAX, "untracked ub = offset");
        assert_eq!(a.lower_bound(&1), 5, "lower bounds unaffected");
        let rows = a.top_k(2);
        assert!(rows.iter().all(|r| r.upper_bound == u64::MAX));
        // Saturation is sticky across further merges.
        let mut c: SketchEngine<u64> = SketchEngine::builder(16).build().unwrap();
        c.merge(&a);
        assert!(c.maximum_error_saturated());
        assert_eq!(c.maximum_error(), u64::MAX);
    }

    #[test]
    fn absorb_counters_saturates_source_error() {
        // The generic Algorithm-5 absorption path shares the policy: a
        // source summary's error budget folds in saturating.
        let mut e: SketchEngine<u64> = SketchEngine::builder(8).build().unwrap();
        e.absorb_counters([(1u64, 10u64)], 10, u64::MAX - 1);
        assert!(!e.maximum_error_saturated());
        e.absorb_counters(core::iter::empty(), 0, 5);
        assert_eq!(e.maximum_error(), u64::MAX);
        assert!(e.maximum_error_saturated());
    }

    #[test]
    fn fingerprints_diverge_on_different_state() {
        let mut a: SketchEngine<u64> = SketchEngine::builder(8).build().unwrap();
        let mut b: SketchEngine<u64> = SketchEngine::builder(8).build().unwrap();
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
        a.update(1, 5);
        assert_ne!(a.state_fingerprint(), b.state_fingerprint());
        b.update(1, 5);
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
        // Same counters, different policy: future purges diverge, so
        // fingerprints must too.
        let c: SketchEngine<u64> = SketchEngine::builder(8)
            .policy(PurgePolicy::GlobalMin)
            .build()
            .unwrap();
        assert_ne!(
            c.state_fingerprint(),
            SketchEngine::<u64>::builder(8)
                .build()
                .unwrap()
                .state_fingerprint()
        );
    }
}
