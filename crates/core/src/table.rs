//! The linear-probing counter table of §2.3.3, generic over the key type.
//!
//! Keys and values live in two parallel arrays whose length `L` is a power
//! of two (so index arithmetic is a mask). A third parallel array of 2-byte
//! *states* holds, for every occupied cell, the probe distance of the stored
//! key from its preferred cell plus one; state 0 marks an empty cell. The
//! paper's numerical analysis shows 2 bytes suffice for any realistic table
//! (for k ≤ 2³² and L = 4k/3 the probability a state ever exceeds 2¹⁴ is
//! below 10⁻²⁵⁰). With `u64` keys that is 18 bytes per slot and
//! `18·(4/3)·k = 24k` bytes per sketch at the 3/4 design load factor.
//!
//! The table is generic over [`SketchKey`]:
//! `LpTable<u64>` is bit-for-bit the paper's layout (dense `Vec<u64>` keys,
//! inline SplitMix64 hashing, no `Option` overhead — vacancy lives in the
//! state array, so empty slots just hold `K::default()`), while
//! `LpTable<String>` or any other key type gets the same probing, batching,
//! and purge machinery with by-value key storage.
//!
//! The operation that distinguishes this table from a stock hash map is the
//! purge: *decrement every counter by `c*` and delete the non-positive ones,
//! in place, in one pass* ([`LpTable::purge_decrement`]). The pass fuses
//! decrement, deletion, and run compaction: each survivor's home cell is
//! recovered from its probe-distance state and it slides to the first free
//! slot of its run — the canonical FCFS layout, with no tombstones and no
//! hashing. (Incremental backward-shift deletion is also available via
//! [`LpTable::retain_positive`]; it is the better tool only when few
//! counters die, and it degrades to O(cluster²) per run when a purge kills
//! the large fractions the median policies target.)
//!
//! The batched entry points ([`LpTable::adjust_or_insert_batch`] and the
//! zero-copy [`LpTable::adjust_or_insert_batch_weighted`]) precompute probe
//! homes a chunk at a time and software-prefetch upcoming slots, hiding
//! DRAM latency once the table outgrows cache; they apply updates in order
//! and are state-identical to scalar upsert loops.
//!
//! The table is deliberately *not* a general-purpose map: it has exactly the
//! operations the sketch needs, and its capacity discipline (the sketch
//! never fills it past 3/4) is what keeps probe sequences short.

use crate::engine::SketchKey;
use crate::rng::Xoshiro256StarStar;

/// Items per internal batch chunk: homes for a whole chunk are computed
/// up front so the key hashing vectorizes and the slot accesses can be
/// prefetched before the probe loop touches them. 128 keeps the chunk's
/// home array and pair slice inside L1 while giving the prefetcher a
/// long enough runway that a full [`PREFETCH_AHEAD`] window fits well
/// inside one chunk.
pub(crate) const BATCH_CHUNK: usize = 128;

/// How many slots ahead of the cursor the batch paths prefetch. Far
/// enough that a line arrives from DRAM before the sweep reaches it
/// (~16 upserts of latency covers a DRAM round-trip at the measured
/// per-upsert cost), near enough not to evict still-needed lines.
const PREFETCH_AHEAD: usize = 16;

/// Best-effort prefetch of `slice[index]` into L1. Bounds are checked
/// before forming the address; the instruction itself has no
/// architectural effect, so a wasted hint is the only failure mode.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[inline(always)]
pub(crate) fn prefetch_read<T>(slice: &[T], index: usize) {
    if index < slice.len() {
        // SAFETY: `index` is in bounds, so `add(index)` stays inside the
        // allocation; PREFETCHT0 performs no memory access that could
        // fault or be observed by safe code.
        unsafe {
            core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                slice.as_ptr().add(index) as *const i8,
            );
        }
    }
}

/// No-op fallback on architectures without a stable prefetch intrinsic.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
pub(crate) fn prefetch_read<T>(_slice: &[T], _index: usize) {}

/// Result of [`LpTable::adjust_or_insert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Upsert {
    /// The key was already present; its value was adjusted.
    Updated,
    /// The key was inserted with the given value.
    Inserted,
}

/// Outcome of [`LpTable::adjust_or_insert_batch_weighted`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WeightedBatch {
    /// Input pairs processed: the whole batch, or the index of the pair
    /// the sweep stopped before.
    pub consumed: usize,
    /// Sum of the applied weights, before scaling.
    pub total: u128,
    /// Number of non-zero-weight updates applied.
    pub applied: u64,
    /// Largest counter value written when the sweep tracks it,
    /// `i64::MIN` otherwise or if nothing was written.
    pub max_value: i64,
}

/// What the batch sweep does with one pair, decided from its weight.
enum Step {
    /// Upsert the pair's key with this delta.
    Apply(i64),
    /// Leave the table untouched (a zero weight).
    Skip,
    /// Stop before this pair, leaving it and the rest unconsumed.
    Stop,
}

/// Open-addressing counter table with linear probing and parallel
/// key/value/state arrays (§2.3.3), generic over the key type.
#[derive(Clone, Debug)]
pub struct LpTable<K: SketchKey = u64> {
    keys: Vec<K>,
    values: Vec<i64>,
    states: Vec<u16>,
    mask: usize,
    num_active: usize,
    /// Reusable run-gap scratch for [`Self::compact_filter_map`]: purges
    /// run in the ingest hot path, so the sweep must not allocate per
    /// round once the buffer has warmed up (asserted by the fig1 bench).
    compaction_gaps: Vec<usize>,
}

impl<K: SketchKey> LpTable<K> {
    /// Creates a table with `2^lg_len` slots.
    ///
    /// # Panics
    /// Panics if `lg_len` is 0 or greater than 31 (the paper's state-width
    /// analysis covers k ≤ 2³²; larger tables would also overflow the
    /// 2-byte state with non-negligible probability).
    pub fn with_lg_len(lg_len: u32) -> Self {
        assert!(
            (1..=31).contains(&lg_len),
            "lg_len {lg_len} outside supported range 1..=31"
        );
        let len = 1usize << lg_len;
        Self {
            keys: vec![K::default(); len],
            values: vec![0; len],
            states: vec![0; len],
            mask: len - 1,
            num_active: 0,
            compaction_gaps: Vec::new(),
        }
    }

    /// Capacity of the reusable compaction scratch buffer (test/bench
    /// aid: steady state must be O(1) allocations per purge).
    #[doc(hidden)]
    pub fn compaction_scratch_capacity(&self) -> usize {
        self.compaction_gaps.capacity()
    }

    /// Number of slots `L` in the table.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no counters are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_active == 0
    }

    /// Number of occupied slots (assigned counters).
    #[inline]
    pub fn num_active(&self) -> usize {
        self.num_active
    }

    /// Bytes of heap memory held by the three parallel arrays:
    /// `size_of::<K>() + 8 + 2` per slot — 18 bytes for `u64` keys,
    /// matching the §2.3.3 accounting. Heap storage *inside* keys (e.g.
    /// `String` buffers) is not counted.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.len() * (core::mem::size_of::<K>() + 8 + 2)
    }

    #[inline]
    fn home(&self, key: &K) -> usize {
        (key.hash_key() as usize) & self.mask
    }

    /// Looks up `key`, returning its counter value if assigned.
    pub fn get(&self, key: &K) -> Option<i64> {
        let mut i = self.home(key);
        loop {
            if self.states[i] == 0 {
                return None;
            }
            if self.keys[i] == *key {
                return Some(self.values[i]);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Adds `delta` to `key`'s counter, inserting the key with value `delta`
    /// if absent. The caller must leave at least one empty slot in the table
    /// (the sketch's 3/4 capacity discipline guarantees this).
    ///
    /// # Panics
    /// Panics if the table is completely full, or if the probe distance of a
    /// new insertion would exceed the 2-byte state range (never observed at
    /// the design load factor; see the module docs).
    pub fn adjust_or_insert(&mut self, key: K, delta: i64) -> Upsert {
        assert!(
            self.num_active < self.len(),
            "LpTable overflow: caller must keep load below 100%"
        );
        let home = self.home(&key);
        self.upsert_at(home, key, delta).0
    }

    /// [`Self::adjust_or_insert`], but returns the post-update counter
    /// value (the engine's lazy-decay bookkeeping tracks the running
    /// stored maximum).
    pub(crate) fn adjust_or_insert_value(&mut self, key: K, delta: i64) -> i64 {
        assert!(
            self.num_active < self.len(),
            "LpTable overflow: caller must keep load below 100%"
        );
        let home = self.home(&key);
        self.upsert_at(home, key, delta).1
    }

    /// Probe loop shared by the scalar and batch paths; `home` is the
    /// key's precomputed preferred slot. Returns the outcome and the
    /// post-update counter value (the engine's lazy-decay bookkeeping
    /// tracks the running maximum stored value).
    #[inline]
    fn upsert_at(&mut self, home: usize, key: K, delta: i64) -> (Upsert, i64) {
        debug_assert_eq!(home, self.home(&key));
        let mut i = home;
        let mut dist: usize = 0;
        loop {
            if self.states[i] == 0 {
                assert!(
                    dist < u16::MAX as usize,
                    "probe distance {dist} exceeds 2-byte state range"
                );
                self.keys[i] = key;
                self.values[i] = delta;
                self.states[i] = (dist + 1) as u16;
                self.num_active += 1;
                return (Upsert::Inserted, delta);
            }
            if self.keys[i] == key {
                self.values[i] += delta;
                return (Upsert::Updated, self.values[i]);
            }
            i = (i + 1) & self.mask;
            dist += 1;
        }
    }

    /// The batch upsert behind `SketchEngine::update_batch`: applies
    /// `(key, weight)` pairs straight from the caller's stream slice, in
    /// order, state-identically to a scalar [`Self::adjust_or_insert`]
    /// loop, and folds the stream accounting into the same pass. Zero
    /// weights are skipped (they carry no frequency mass and must not
    /// allocate a counter). Each applied delta is `weight × scale`. With
    /// `SCALED` (the engine's pending lazy decay, whose counters are
    /// stored forward-inflated by `scale`) the largest post-update
    /// counter value is tracked too; without it `scale` must be 1 and
    /// `max_value` is `i64::MIN`.
    ///
    /// The sweep stops before the first pair whose weight cannot be
    /// applied at `scale` — one above `i64::MAX / scale`, so above
    /// `i64::MAX` at scale 1 — with every earlier pair applied, and
    /// reports how far it got in [`WeightedBatch::consumed`]. The engine
    /// hands that pair to its scalar path, which panics (a weight above
    /// `i64::MAX`) or settles the pending decay and applies it.
    ///
    /// # Panics
    /// As [`Self::adjust_or_insert_batch`].
    pub fn adjust_or_insert_batch_weighted<const SCALED: bool>(
        &mut self,
        batch: &[(K, u64)],
        scale: i64,
    ) -> WeightedBatch {
        debug_assert!(scale >= 1 && (SCALED || scale == 1));
        let limit = (i64::MAX / scale) as u64;
        let mut total: u128 = 0;
        let mut applied: u64 = 0;
        let (consumed, max_value) = self.sweep::<u64, SCALED>(batch, |weight| {
            if weight == 0 {
                return Step::Skip;
            }
            if weight > limit {
                return Step::Stop;
            }
            total += weight as u128;
            applied += 1;
            Step::Apply(if SCALED {
                weight as i64 * scale
            } else {
                weight as i64
            })
        });
        WeightedBatch {
            consumed,
            total,
            applied,
            max_value,
        }
    }

    /// Batched [`Self::adjust_or_insert`] for signed deltas (the
    /// engine's grow/rehash path): the same prefetched sweep as
    /// [`Self::adjust_or_insert_batch_weighted`], applying every pair in
    /// order and producing exactly the state a scalar loop would.
    ///
    /// # Panics
    /// Panics if the pending insertions of one 128-pair chunk
    /// could fill the table completely; the caller must keep
    /// `num_active + chunk.len() < len` (the sketch's capacity discipline
    /// guarantees this).
    pub fn adjust_or_insert_batch(&mut self, batch: &[(K, i64)]) {
        self.sweep::<i64, false>(batch, Step::Apply);
    }

    /// The one batch upsert loop. Homes for a [`BATCH_CHUNK`]-pair chunk
    /// are computed up front and the slots [`PREFETCH_AHEAD`] pairs ahead
    /// of the cursor are prefetched, so once the table outgrows cache the
    /// DRAM round-trips overlap. The pairs themselves go through the
    /// scalar probe loop strictly in order, so the result is the scalar
    /// loop's state by construction. `step` decides each pair from its
    /// weight. Returns the number of pairs consumed (all of them unless
    /// `step` stopped) and, when `TRACK_MAX`, the largest counter value
    /// written (`i64::MIN` otherwise or if none was).
    #[inline(always)]
    fn sweep<W: Copy, const TRACK_MAX: bool>(
        &mut self,
        batch: &[(K, W)],
        mut step: impl FnMut(W) -> Step,
    ) -> (usize, i64) {
        let mut max_seen = i64::MIN;
        let mut consumed = 0usize;
        for chunk in batch.chunks(BATCH_CHUNK) {
            assert!(
                self.num_active + chunk.len() < self.len(),
                "LpTable overflow: batch of {} cannot keep load below 100%",
                chunk.len()
            );
            let mut homes = [0usize; BATCH_CHUNK];
            for (j, (key, _)) in chunk.iter().enumerate() {
                homes[j] = self.home(key);
            }
            let n = chunk.len();
            for &home in homes.iter().take(PREFETCH_AHEAD.min(n)) {
                self.prefetch_slot(home);
            }
            for j in 0..n {
                if j + PREFETCH_AHEAD < n {
                    self.prefetch_slot(homes[j + PREFETCH_AHEAD]);
                }
                let (key, weight) = &chunk[j];
                match step(*weight) {
                    Step::Apply(delta) => {
                        let (_, value) = self.upsert_at(homes[j], key.clone(), delta);
                        if TRACK_MAX {
                            max_seen = max_seen.max(value);
                        }
                    }
                    Step::Skip => {}
                    Step::Stop => return (consumed + j, max_seen),
                }
            }
            consumed += n;
        }
        (consumed, max_seen)
    }

    /// Prefetches the three parallel arrays at slot `i` so the probe loop
    /// finds its first touch already in cache.
    #[inline(always)]
    fn prefetch_slot(&self, i: usize) {
        prefetch_read(&self.states, i);
        prefetch_read(&self.keys, i);
        prefetch_read(&self.values, i);
    }

    /// Returns the maximum assigned counter value, or `None` if empty.
    /// O(L) scan; the engine's lazy-decay bookkeeping refreshes its
    /// stored-value maximum with this after purges and materializations.
    pub fn max_value(&self) -> Option<i64> {
        let mut max = None;
        for i in 0..self.len() {
            if self.states[i] != 0 {
                max = Some(match max {
                    None => self.values[i],
                    Some(m) if self.values[i] > m => self.values[i],
                    Some(m) => m,
                });
            }
        }
        max
    }

    /// Adds `delta` to every assigned counter (used by the purge with a
    /// negative `delta`). Values may become non-positive; follow with
    /// [`LpTable::retain_positive`].
    pub fn adjust_all(&mut self, delta: i64) {
        for i in 0..self.len() {
            if self.states[i] != 0 {
                self.values[i] += delta;
            }
        }
    }

    /// One full purge step: subtracts `cstar` from every counter, removes
    /// the non-positive ones, and returns `(removed, max_kept)` — how
    /// many were removed and the largest surviving counter value
    /// (`i64::MIN` if none survive). The maximum falls out of the sweep
    /// for free; the engine's lazy-decay bookkeeping needs it and would
    /// otherwise pay a second O(L) [`Self::max_value`] scan.
    ///
    /// Single sequential pass, in place: decrement, delete, and
    /// run-compaction are fused (one compaction pass, shared with
    /// [`Self::scale_values`]). This replaces the
    /// per-deletion backward-shift sweep (`adjust_all` +
    /// [`Self::retain_positive`]), whose cost degrades to O(cluster²) per
    /// run exactly when purges kill large fractions of the table — the
    /// common case, since the median policies remove about half the
    /// counters per purge.
    pub fn purge_decrement(&mut self, cstar: i64) -> (usize, i64) {
        debug_assert!(cstar > 0);
        self.compact_filter_map(|v| v - cstar)
    }

    /// Scales every counter to `⌊value · num / den⌋` in place, removing
    /// the counters that scale to zero, and returns `(removed, max_kept)`
    /// — how many were removed and the largest surviving value
    /// (`i64::MIN` if none survive, or on the `num == den` identity
    /// early-return, which does not sweep). This is the table-level
    /// primitive behind the engine's
    /// [`crate::SketchEngine::scale_counters`] time-fading hook: one
    /// fused sweep through the same compaction path as the purge, so the
    /// post-scale layout obeys exactly the same canonical-FCFS
    /// discipline — and the surviving maximum (which the engine's
    /// lazy-decay bookkeeping consumes) rides along without a second
    /// scan.
    ///
    /// # Panics
    /// Panics if `den` is zero or `num > den` (the sketch only decays —
    /// scaling counters up could overflow and certifies nothing).
    pub fn scale_values(&mut self, num: u64, den: u64) -> (usize, i64) {
        assert!(den > 0, "scale denominator must be positive");
        assert!(num <= den, "scale_values only scales down ({num}/{den})");
        if num == den {
            return (0, i64::MIN);
        }
        // Counters are positive i64, so the u128 product cannot overflow
        // and the floored quotient fits back into i64.
        self.compact_filter_map(|v| (v as u128 * num as u128 / den as u128) as i64)
    }

    /// The fused compaction pass shared by [`Self::purge_decrement`] and
    /// [`Self::scale_values`]: maps every counter through `f` in one
    /// sequential sweep, deletes entries whose mapped value is
    /// non-positive, and compacts the survivors in place. Each survivor's
    /// home cell is recovered from its probe-distance state (no hashing,
    /// no random access), and it slides to the first free slot of its run
    /// at-or-after its home — the canonical FCFS linear-probing layout,
    /// identical to what a fresh build over the surviving counters
    /// produces. `f` must not increase any value (mapped ≤ original), so
    /// shrunken probe runs can only tighten.
    fn compact_filter_map(&mut self, f: impl Fn(i64) -> i64) -> (usize, i64) {
        let mut max_kept = i64::MIN;
        if self.num_active == 0 {
            return (0, max_kept);
        }
        let len = self.len();
        let mask = self.mask;
        // The capacity discipline guarantees an empty slot; runs cannot
        // span it, so starting the sweep there lets every run (including
        // the one wrapping the array end) be processed contiguously.
        let first_empty = (0..len)
            .find(|&i| self.states[i] == 0)
            .expect("table is never 100% full");
        // Ring rank relative to the scan origin: monotone in scan order,
        // so "first free slot at-or-after a home cell" is an ordinary
        // order comparison even across the array-end wrap.
        let rank = |p: usize| p.wrapping_sub(first_empty) & mask;
        let mut removed = 0usize;
        // Free slots of the *current* run, ascending by rank. Deaths and
        // vacated sources append at the scan head, so the order is
        // maintained by construction; placements remove from the middle.
        // Runs are short at the 3/4 load bound, so this stays tiny — and
        // the buffer is owned by the table, so steady-state purge rounds
        // allocate nothing.
        let mut gaps: Vec<usize> = core::mem::take(&mut self.compaction_gaps);
        gaps.clear();
        let mut i = (first_empty + 1) & mask;
        for _ in 0..len - 1 {
            let state = self.states[i];
            if state == 0 {
                // Run boundary: holes cannot be used across it.
                gaps.clear();
                i = (i + 1) & mask;
                continue;
            }
            let mapped = f(self.values[i]);
            debug_assert!(mapped <= self.values[i], "compaction must not grow values");
            if mapped <= 0 {
                self.states[i] = 0;
                self.keys[i] = K::default();
                gaps.push(i);
                removed += 1;
            } else {
                if mapped > max_kept {
                    max_kept = mapped;
                }
                // Survivor: its home cell is encoded in the state — no
                // hash, no key read needed for placement. It slides to
                // the first free slot at-or-after its home, exactly where
                // a fresh FCFS re-insertion would put it.
                let home = i.wrapping_sub(state as usize - 1) & mask;
                let pos = gaps.partition_point(|&g| rank(g) < rank(home));
                if pos < gaps.len() {
                    let dest = gaps.remove(pos);
                    self.keys.swap(dest, i);
                    self.values[dest] = mapped;
                    self.states[dest] = ((dest.wrapping_sub(home) & mask) + 1) as u16;
                    self.states[i] = 0;
                    gaps.push(i);
                } else {
                    self.values[i] = mapped;
                }
            }
            i = (i + 1) & mask;
        }
        self.compaction_gaps = gaps;
        self.num_active -= removed;
        (removed, max_kept)
    }

    /// Deletes every counter whose value is `<= 0`, compacting runs in place
    /// by backward-shifting (no tombstones, no scratch memory). Returns the
    /// number of counters removed.
    pub fn retain_positive(&mut self) -> usize {
        let len = self.len();
        let mut removed = 0usize;
        let mut i = 0usize;
        while i < len {
            if self.states[i] != 0 && self.values[i] <= 0 {
                self.delete_slot(i);
                removed += 1;
                // Do not advance: delete_slot may have shifted a (positive
                // or non-positive) entry into slot i; re-examine it.
                // Entries shifted into *already scanned* slots are always
                // positive: they can only originate from the wrapped prefix
                // of a run, which the scan has already cleaned.
            } else {
                i += 1;
            }
        }
        removed
    }

    /// Removes the entry at occupied slot `hole`, restoring the probing
    /// invariant by backward-shifting subsequent entries of the run.
    fn delete_slot(&mut self, mut hole: usize) {
        debug_assert!(self.states[hole] != 0);
        self.num_active -= 1;
        let mask = self.mask;
        let mut j = hole;
        loop {
            self.states[hole] = 0;
            loop {
                j = (j + 1) & mask;
                if self.states[j] == 0 {
                    // The deleted key has migrated (via the swaps below)
                    // into the final hole; drop it.
                    self.keys[hole] = K::default();
                    return;
                }
                let dist = (self.states[j] - 1) as usize;
                let home = j.wrapping_sub(dist) & mask;
                // The entry at j may move into the hole iff the hole lies on
                // its probe path, i.e. strictly closer to its home cell.
                let new_dist = hole.wrapping_sub(home) & mask;
                if new_dist < dist {
                    self.keys.swap(hole, j);
                    self.values[hole] = self.values[j];
                    self.states[hole] = (new_dist + 1) as u16;
                    hole = j;
                    break;
                }
            }
        }
    }

    /// Iterates over `(&key, value)` pairs of assigned counters in slot
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, i64)> + '_ {
        (0..self.len()).filter_map(move |i| {
            if self.states[i] != 0 {
                Some((&self.keys[i], self.values[i]))
            } else {
                None
            }
        })
    }

    /// Iterates over `(&key, value)` pairs in a *randomized* slot order:
    /// a random start offset and a random odd stride (a permutation of the
    /// power-of-two slot space). Used by the merge procedure to avoid the
    /// probe-clustering pathology of §3.2's Note when both summaries share
    /// the hash function.
    pub fn iter_randomized<'a>(
        &'a self,
        rng: &mut Xoshiro256StarStar,
    ) -> impl Iterator<Item = (&'a K, i64)> + 'a {
        let len = self.len();
        let start = rng.next_below(len as u64) as usize;
        let stride = (rng.next_u64() as usize | 1) & self.mask;
        let mask = self.mask;
        (0..len).filter_map(move |t| {
            let i = start.wrapping_add(t.wrapping_mul(stride)) & mask;
            if self.states[i] != 0 {
                Some((&self.keys[i], self.values[i]))
            } else {
                None
            }
        })
    }

    /// Copies all assigned counter values into `out` (clearing it first).
    /// This is the "extra k words" pass that Algorithm 3 needs and that the
    /// sampling policies avoid.
    pub fn values_into(&self, out: &mut Vec<i64>) {
        out.clear();
        out.reserve(self.num_active);
        for i in 0..self.len() {
            if self.states[i] != 0 {
                out.push(self.values[i]);
            }
        }
    }

    /// Draws `sample_size` counter values (with replacement across slots)
    /// uniformly from the assigned counters into `out`. If fewer than
    /// `sample_size` counters are assigned, copies all of them instead.
    ///
    /// Rejection sampling over slots: at the 3/4 purge-time load factor the
    /// expected number of probes per sample is 4/3.
    pub fn sample_values(
        &self,
        rng: &mut Xoshiro256StarStar,
        sample_size: usize,
        out: &mut Vec<i64>,
    ) {
        if self.num_active <= sample_size {
            self.values_into(out);
            return;
        }
        out.clear();
        out.reserve(sample_size);
        let len = self.len() as u64;
        while out.len() < sample_size {
            let i = rng.next_below(len) as usize;
            if self.states[i] != 0 {
                out.push(self.values[i]);
            }
        }
    }

    /// Returns the minimum assigned counter value, or `None` if empty.
    /// O(L) scan; used by the `GlobalMin` (RBMC-style) purge policy.
    pub fn min_value(&self) -> Option<i64> {
        let mut min = None;
        for i in 0..self.len() {
            if self.states[i] != 0 {
                min = Some(match min {
                    None => self.values[i],
                    Some(m) if self.values[i] < m => self.values[i],
                    Some(m) => m,
                });
            }
        }
        min
    }

    /// Removes all counters.
    pub fn clear(&mut self) {
        self.states.fill(0);
        for key in &mut self.keys {
            *key = K::default();
        }
        self.num_active = 0;
    }

    /// Test/debug aid: like [`Self::iter`], but yielding the slot index
    /// alongside each `(key, value)` pair, so layout-canonicality tests
    /// can reconstruct ring scan orders.
    #[doc(hidden)]
    pub fn iter_with_slots(&self) -> impl Iterator<Item = (usize, &K, i64)> + '_ {
        (0..self.len()).filter_map(move |i| {
            if self.states[i] != 0 {
                Some((i, &self.keys[i], self.values[i]))
            } else {
                None
            }
        })
    }

    /// Test/debug aid: a byte string capturing the exact slot layout —
    /// `(slot, key hash, value)` for every occupied slot in slot order.
    /// Two tables with equal fingerprints hold the same counters in the
    /// same cells with the same probe distances. Used by the
    /// layout-canonicality proptests for the fused compaction paths.
    #[doc(hidden)]
    pub fn layout_fingerprint(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..self.len() {
            if self.states[i] == 0 {
                continue;
            }
            out.extend_from_slice(&(i as u64).to_le_bytes());
            out.extend_from_slice(&self.keys[i].hash_key().to_le_bytes());
            out.extend_from_slice(&self.values[i].to_le_bytes());
        }
        out
    }

    /// Re-occupies `slot` with `(key, value)` exactly as recorded by a
    /// checkpoint: the state encodes the probe distance from the key's
    /// home cell to `slot`. Used by the persistence layer to rebuild a
    /// table **layout-identically** — re-inserting keys through the
    /// normal upsert path does not reproduce wrap-around probe clusters,
    /// so a refeed-based rebuild can diverge slot-for-slot from the
    /// original (and thus from an uninterrupted run).
    ///
    /// The caller must finish with [`Self::validate_layout`]: this method
    /// checks only per-slot facts (vacancy, probe distance range), not
    /// the global probing invariants.
    pub(crate) fn restore_slot(&mut self, slot: usize, key: K, value: i64) -> Result<(), String> {
        if slot >= self.len() {
            return Err(format!("slot {slot} outside table of {} cells", self.len()));
        }
        if self.states[slot] != 0 {
            return Err(format!("slot {slot} restored twice"));
        }
        if value <= 0 {
            return Err(format!("non-positive counter {value} at slot {slot}"));
        }
        let home = self.home(&key);
        let dist = slot.wrapping_sub(home) & self.mask;
        if dist >= u16::MAX as usize {
            return Err(format!(
                "probe distance {dist} at slot {slot} exceeds state range"
            ));
        }
        self.keys[slot] = key;
        self.values[slot] = value;
        self.states[slot] = dist as u16 + 1;
        self.num_active += 1;
        Ok(())
    }

    /// Non-panicking counterpart of [`Self::check_invariants`] for
    /// validating untrusted (deserialized) layouts: probe paths must be
    /// gap-free and every lookup must land on the slot that claims the
    /// key. The landing-slot check (not merely a value comparison)
    /// also rejects duplicate keys: a second copy of a key can never be
    /// the first probe match, so it fails here even when both copies
    /// carry equal values.
    pub(crate) fn validate_layout(&self) -> Result<(), String> {
        for i in 0..self.len() {
            if self.states[i] == 0 {
                continue;
            }
            let dist = (self.states[i] - 1) as usize;
            let home = i.wrapping_sub(dist) & self.mask;
            let mut j = home;
            while j != i {
                if self.states[j] == 0 {
                    return Err(format!("empty cell {j} interrupts probe path to slot {i}"));
                }
                if self.keys[j] == self.keys[i] {
                    return Err(format!(
                        "key at slot {i} is shadowed by a duplicate at slot {j}"
                    ));
                }
                j = (j + 1) & self.mask;
            }
        }
        Ok(())
    }

    /// Verifies the structural invariants (test/debug aid):
    /// states encode exact probe distances, probe paths are gap-free, the
    /// active count is consistent, and every stored key is findable.
    ///
    /// # Panics
    /// Panics with a description of the violated invariant.
    pub fn check_invariants(&self) {
        let mut active = 0usize;
        for i in 0..self.len() {
            if self.states[i] == 0 {
                continue;
            }
            active += 1;
            let dist = (self.states[i] - 1) as usize;
            let home = i.wrapping_sub(dist) & self.mask;
            assert_eq!(
                home,
                self.home(&self.keys[i]),
                "slot {i}: state does not encode the key's home cell"
            );
            // Every cell on the probe path from home to i must be occupied,
            // otherwise a lookup would stop early at an empty cell.
            let mut j = home;
            while j != i {
                assert!(
                    self.states[j] != 0,
                    "slot {i}: empty cell {j} interrupts the probe path"
                );
                j = (j + 1) & self.mask;
            }
            assert_eq!(
                self.get(&self.keys[i]),
                Some(self.values[i]),
                "slot {i}: key not findable by lookup"
            );
        }
        assert_eq!(active, self.num_active, "active-count bookkeeping drifted");
    }

    /// Full structural audit as a `Result` — the `debug-invariants`
    /// sanitizer's table check, also safe to call at decode boundaries
    /// (it never panics). Covers `validate_layout` plus the
    /// probe-distance encoding, counter positivity (both engines of a
    /// signed sketch keep per-sign magnitudes, so a stored counter is
    /// always ≥ 1), and the active-count bookkeeping.
    ///
    /// # Errors
    /// Describes the first violated invariant.
    pub fn audit(&self) -> Result<(), String> {
        self.validate_layout()?;
        let mut active = 0usize;
        for i in 0..self.len() {
            if self.states[i] == 0 {
                continue;
            }
            active += 1;
            let dist = (self.states[i] - 1) as usize;
            let home = i.wrapping_sub(dist) & self.mask;
            if home != self.home(&self.keys[i]) {
                return Err(format!(
                    "slot {i}: state does not encode the key's home cell"
                ));
            }
            if self.values[i] <= 0 {
                return Err(format!("slot {i}: non-positive counter {}", self.values[i]));
            }
        }
        if active != self.num_active {
            return Err(format!(
                "active-count bookkeeping drifted: counted {active}, recorded {}",
                self.num_active
            ));
        }
        Ok(())
    }
}

impl<K: SketchKey> crate::purge::CounterValues for LpTable<K> {
    fn is_empty(&self) -> bool {
        LpTable::is_empty(self)
    }

    fn sample_values(&self, rng: &mut Xoshiro256StarStar, sample_size: usize, out: &mut Vec<i64>) {
        LpTable::sample_values(self, rng, sample_size, out)
    }

    fn values_into(&self, out: &mut Vec<i64>) {
        LpTable::values_into(self, out)
    }

    fn min_value(&self) -> Option<i64> {
        LpTable::min_value(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::Hash64;
    use std::collections::HashMap;

    fn table() -> LpTable {
        LpTable::with_lg_len(8) // 256 slots
    }

    fn pairs_of(t: &LpTable) -> Vec<(u64, i64)> {
        t.iter().map(|(&k, v)| (k, v)).collect()
    }

    #[test]
    fn insert_then_get() {
        let mut t = table();
        assert_eq!(t.adjust_or_insert(42, 7), Upsert::Inserted);
        assert_eq!(t.get(&42), Some(7));
        assert_eq!(t.get(&43), None);
        assert_eq!(t.num_active(), 1);
    }

    #[test]
    fn adjust_accumulates() {
        let mut t = table();
        t.adjust_or_insert(5, 10);
        assert_eq!(t.adjust_or_insert(5, 32), Upsert::Updated);
        assert_eq!(t.get(&5), Some(42));
        assert_eq!(t.num_active(), 1);
    }

    #[test]
    fn fills_to_three_quarters_and_stays_consistent() {
        let mut t = table();
        let cap = t.len() * 3 / 4;
        for k in 0..cap as u64 {
            t.adjust_or_insert(k, (k + 1) as i64);
        }
        assert_eq!(t.num_active(), cap);
        t.check_invariants();
        for k in 0..cap as u64 {
            assert_eq!(t.get(&k), Some((k + 1) as i64), "key {k}");
        }
    }

    #[test]
    fn batch_upsert_matches_scalar_exactly() {
        // Same pairs, same order: the batch path must be state-identical
        // to a scalar loop, including slot layout and probe distances.
        let pairs: Vec<(u64, i64)> = (0..180u64)
            .map(|i| (i * 2_654_435_761 % 120, (i % 9 + 1) as i64))
            .collect();
        let mut scalar = table();
        for &(k, d) in &pairs {
            scalar.adjust_or_insert(k, d);
        }
        let mut batched = table();
        batched.adjust_or_insert_batch(&pairs);
        batched.check_invariants();
        assert_eq!(batched.num_active(), scalar.num_active());
        assert_eq!(
            pairs_of(&scalar),
            pairs_of(&batched),
            "slot layouts diverged"
        );
    }

    #[test]
    fn batch_upsert_handles_odd_chunk_tails() {
        // Lengths around the internal chunk size exercise the prefetch
        // window clamping and the per-chunk overflow assertion.
        for len in [1usize, 7, 63, 64, 65, 130] {
            let pairs: Vec<(u64, i64)> = (0..len as u64).map(|i| (i, 1)).collect();
            let mut t = table();
            t.adjust_or_insert_batch(&pairs);
            t.check_invariants();
            assert_eq!(t.num_active(), len);
            for i in 0..len as u64 {
                assert_eq!(t.get(&i), Some(1), "key {i} of {len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "LpTable overflow")]
    fn batch_upsert_rejects_overfill() {
        let mut t: LpTable = LpTable::with_lg_len(4); // 16 slots
        let pairs: Vec<(u64, i64)> = (0..16u64).map(|i| (i, 1)).collect();
        t.adjust_or_insert_batch(&pairs);
    }

    #[test]
    fn adjust_all_shifts_every_value() {
        let mut t = table();
        for k in 0..100u64 {
            t.adjust_or_insert(k, 50);
        }
        t.adjust_all(-20);
        for k in 0..100u64 {
            assert_eq!(t.get(&k), Some(30));
        }
    }

    #[test]
    fn retain_positive_removes_exactly_nonpositive() {
        let mut t = table();
        for k in 0..100u64 {
            // Values 1..=100: after subtracting 50, keys 0..=49 die.
            t.adjust_or_insert(k, (k + 1) as i64);
        }
        t.adjust_all(-50);
        let removed = t.retain_positive();
        assert_eq!(removed, 50);
        assert_eq!(t.num_active(), 50);
        t.check_invariants();
        for k in 0..50u64 {
            assert_eq!(t.get(&k), None, "key {k} should be purged");
        }
        for k in 50..100u64 {
            assert_eq!(t.get(&k), Some((k + 1) as i64 - 50), "key {k}");
        }
    }

    #[test]
    fn purge_decrement_matches_sweep_and_retain() {
        // The fused compaction pass must agree with the reference
        // two-step purge (adjust_all + retain_positive) on contents.
        let mut rng = Xoshiro256StarStar::from_seed(77);
        for round in 0..50u64 {
            let mut a: LpTable = LpTable::with_lg_len(8);
            let mut b: LpTable = LpTable::with_lg_len(8);
            let n = 1 + rng.next_below(192) as usize;
            for _ in 0..n {
                let key = rng.next_below(400);
                let v = rng.next_below(100) as i64 + 1;
                if a.num_active() < 192 || a.get(&key).is_some() {
                    a.adjust_or_insert(key, v);
                    b.adjust_or_insert(key, v);
                }
            }
            let cstar = rng.next_below(60) as i64 + 1;
            let (removed_a, max_a) = a.purge_decrement(cstar);
            b.adjust_all(-cstar);
            let removed_b = b.retain_positive();
            assert_eq!(removed_a, removed_b, "round {round}");
            assert_eq!(
                max_a,
                b.max_value().unwrap_or(i64::MIN),
                "round {round}: surviving maximum"
            );
            a.check_invariants();
            let mut ca = pairs_of(&a);
            let mut cb = pairs_of(&b);
            ca.sort_unstable();
            cb.sort_unstable();
            assert_eq!(ca, cb, "round {round}");
        }
    }

    #[test]
    fn purge_decrement_handles_wrapping_runs() {
        let mut t: LpTable = LpTable::with_lg_len(4); // 16 slots
        let len = t.len();
        // Keys homing to the last two slots build a run wrapping 15 → 0.
        let mut picked = Vec::new();
        let mut candidate = 0u64;
        while picked.len() < 6 {
            let home = (candidate.hash64() as usize) & (len - 1);
            if home >= len - 2 {
                picked.push(candidate);
            }
            candidate += 1;
        }
        for (idx, &k) in picked.iter().enumerate() {
            t.adjust_or_insert(k, if idx % 2 == 0 { 1 } else { 10 });
        }
        let (removed, max_kept) = t.purge_decrement(1);
        assert_eq!(removed, 3);
        assert_eq!(max_kept, 9, "survivors are the 10s, decremented once");
        t.check_invariants();
        for (idx, k) in picked.iter().enumerate() {
            if idx % 2 == 0 {
                assert_eq!(t.get(k), None);
            } else {
                assert_eq!(t.get(k), Some(9));
            }
        }
    }

    #[test]
    fn scale_values_matches_reference_map() {
        // The fused scaling compaction must agree with an element-wise
        // reference (floor(v·num/den), drop zeros) on contents and keep
        // the structural invariants, across random fills and factors.
        let mut rng = Xoshiro256StarStar::from_seed(321);
        for round in 0..50u64 {
            let mut t: LpTable = LpTable::with_lg_len(8);
            let mut model: HashMap<u64, i64> = HashMap::new();
            let n = 1 + rng.next_below(192) as usize;
            for _ in 0..n {
                let key = rng.next_below(400);
                let v = rng.next_below(1000) as i64 + 1;
                if t.num_active() < 192 || t.get(&key).is_some() {
                    t.adjust_or_insert(key, v);
                    *model.entry(key).or_insert(0) += v;
                }
            }
            let den = rng.next_below(16) + 1;
            let num = rng.next_below(den + 1);
            let (removed, max_kept) = t.scale_values(num, den);
            t.check_invariants();
            let expect: HashMap<u64, i64> = model
                .iter()
                .filter_map(|(&k, &v)| {
                    let scaled = (v as u128 * num as u128 / den as u128) as i64;
                    (scaled > 0).then_some((k, scaled))
                })
                .collect();
            if num < den {
                assert_eq!(removed, model.len() - expect.len(), "round {round}");
                assert_eq!(
                    max_kept,
                    expect.values().copied().max().unwrap_or(i64::MIN),
                    "round {round}: surviving maximum"
                );
            }
            let got: HashMap<u64, i64> = t.iter().map(|(&k, v)| (k, v)).collect();
            assert_eq!(got, expect, "round {round} (x{num}/{den})");
        }
    }

    #[test]
    fn scale_values_identity_and_zero() {
        let mut t = table();
        for k in 0..40u64 {
            t.adjust_or_insert(k, (k + 1) as i64);
        }
        assert_eq!(t.scale_values(7, 7).0, 0, "identity never removes");
        assert_eq!(t.get(&10), Some(11));
        assert_eq!(t.scale_values(0, 3).0, 40, "zero factor clears all");
        assert!(t.is_empty());
        t.check_invariants();
    }

    #[test]
    fn scale_values_handles_wrapping_runs() {
        let mut t: LpTable = LpTable::with_lg_len(4); // 16 slots
        let len = t.len();
        let mut picked = Vec::new();
        let mut candidate = 0u64;
        while picked.len() < 6 {
            let home = (candidate.hash64() as usize) & (len - 1);
            if home >= len - 2 {
                picked.push(candidate);
            }
            candidate += 1;
        }
        for (idx, &k) in picked.iter().enumerate() {
            // Alternate values that die (1 → 0) and survive (10 → 5).
            t.adjust_or_insert(k, if idx % 2 == 0 { 1 } else { 10 });
        }
        let (removed, max_kept) = t.scale_values(1, 2);
        assert_eq!(removed, 3);
        assert_eq!(max_kept, 5, "survivors are the 10s, halved");
        t.check_invariants();
        for (idx, k) in picked.iter().enumerate() {
            if idx % 2 == 0 {
                assert_eq!(t.get(k), None);
            } else {
                assert_eq!(t.get(k), Some(5));
            }
        }
    }

    #[test]
    #[should_panic(expected = "scales down")]
    fn scale_values_rejects_upscaling() {
        let mut t = table();
        t.adjust_or_insert(1, 1);
        t.scale_values(3, 2);
    }

    #[test]
    fn layout_fingerprint_sees_slot_moves() {
        let mut a = table();
        let mut b = table();
        for k in 0..50u64 {
            a.adjust_or_insert(k, 10);
            b.adjust_or_insert(k, 10);
        }
        assert_eq!(a.layout_fingerprint(), b.layout_fingerprint());
        b.adjust_or_insert(50, 1);
        assert_ne!(a.layout_fingerprint(), b.layout_fingerprint());
    }

    #[test]
    fn purge_decrement_all_and_none() {
        let mut t: LpTable = LpTable::with_lg_len(6);
        for k in 0..40u64 {
            t.adjust_or_insert(k, 5);
        }
        assert_eq!(t.purge_decrement(1).0, 0, "no counter at or below 1 dies");
        for k in 0..40u64 {
            assert_eq!(t.get(&k), Some(4));
        }
        assert_eq!(t.purge_decrement(10).0, 40, "everyone dies");
        assert!(t.is_empty());
        t.check_invariants();
    }

    #[test]
    fn purge_everything() {
        let mut t = table();
        for k in 0..64u64 {
            t.adjust_or_insert(k, 1);
        }
        t.adjust_all(-1);
        assert_eq!(t.retain_positive(), 64);
        assert!(t.is_empty());
        t.check_invariants();
    }

    #[test]
    fn reinsert_after_purge() {
        let mut t = table();
        for k in 0..64u64 {
            t.adjust_or_insert(k, 1);
        }
        t.adjust_all(-1);
        t.retain_positive();
        for k in 100..164u64 {
            t.adjust_or_insert(k, 2);
        }
        t.check_invariants();
        assert_eq!(t.num_active(), 64);
        for k in 100..164u64 {
            assert_eq!(t.get(&k), Some(2));
        }
    }

    #[test]
    fn iter_yields_every_active_pair() {
        let mut t = table();
        let mut expect = HashMap::new();
        for k in 0..150u64 {
            t.adjust_or_insert(k * 977, (k + 1) as i64);
            expect.insert(k * 977, (k + 1) as i64);
        }
        let got: HashMap<u64, i64> = t.iter().map(|(&k, v)| (k, v)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn iter_randomized_is_a_permutation_of_iter() {
        let mut t = table();
        for k in 0..150u64 {
            t.adjust_or_insert(k, (k + 1) as i64);
        }
        let mut rng = Xoshiro256StarStar::from_seed(99);
        let mut a: Vec<(u64, i64)> = t.iter_randomized(&mut rng).map(|(&k, v)| (k, v)).collect();
        let mut b = pairs_of(&t);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn iter_randomized_orders_differ_across_seeds() {
        let mut t = table();
        for k in 0..150u64 {
            t.adjust_or_insert(k, 1);
        }
        let mut r1 = Xoshiro256StarStar::from_seed(1);
        let mut r2 = Xoshiro256StarStar::from_seed(2);
        let a: Vec<u64> = t.iter_randomized(&mut r1).map(|(&k, _)| k).collect();
        let b: Vec<u64> = t.iter_randomized(&mut r2).map(|(&k, _)| k).collect();
        assert_ne!(a, b, "different seeds should visit in different orders");
    }

    #[test]
    fn values_into_collects_all() {
        let mut t = table();
        for k in 0..20u64 {
            t.adjust_or_insert(k, (k as i64 + 1) * 10);
        }
        let mut vals = Vec::new();
        t.values_into(&mut vals);
        vals.sort_unstable();
        let expect: Vec<i64> = (1..=20).map(|v| v * 10).collect();
        assert_eq!(vals, expect);
    }

    #[test]
    fn sample_values_copies_all_when_small() {
        let mut t = table();
        for k in 0..10u64 {
            t.adjust_or_insert(k, k as i64 + 1);
        }
        let mut rng = Xoshiro256StarStar::from_seed(5);
        let mut out = Vec::new();
        t.sample_values(&mut rng, 1024, &mut out);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn sample_values_draws_requested_count() {
        let mut t = table();
        for k in 0..192u64 {
            t.adjust_or_insert(k, k as i64 + 1);
        }
        let mut rng = Xoshiro256StarStar::from_seed(5);
        let mut out = Vec::new();
        t.sample_values(&mut rng, 64, &mut out);
        assert_eq!(out.len(), 64);
        // All samples are genuine counter values.
        for v in out {
            assert!((1..=192).contains(&v));
        }
    }

    #[test]
    fn min_value_finds_global_minimum() {
        let mut t = table();
        assert_eq!(t.min_value(), None);
        for k in 0..50u64 {
            t.adjust_or_insert(k, 100 - k as i64);
        }
        assert_eq!(t.min_value(), Some(51));
    }

    #[test]
    fn clear_resets() {
        let mut t = table();
        for k in 0..50u64 {
            t.adjust_or_insert(k, 1);
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.get(&3), None);
        t.check_invariants();
    }

    #[test]
    fn memory_bytes_is_18_per_slot() {
        let t: LpTable = LpTable::with_lg_len(10);
        assert_eq!(t.memory_bytes(), 1024 * 18);
    }

    #[test]
    fn string_keys_purge_and_probe() {
        // The same machinery must work for by-value keys: build clusters,
        // purge through them, and verify lookups and invariants.
        let mut t: LpTable<String> = LpTable::with_lg_len(8);
        for i in 0..150u64 {
            t.adjust_or_insert(format!("key-{i}"), (i % 20 + 1) as i64);
        }
        t.check_invariants();
        let (removed, _) = t.purge_decrement(10);
        t.check_invariants();
        assert!(removed > 0, "some keys must die at c* = 10");
        for i in 0..150u64 {
            let key = format!("key-{i}");
            match t.get(&key) {
                Some(v) => assert_eq!(v, (i % 20 + 1) as i64 - 10, "{key}"),
                None => assert!(i % 20 < 10, "{key} should have survived"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "lg_len")]
    fn zero_lg_len_panics() {
        let _: LpTable = LpTable::with_lg_len(0);
    }

    /// Deletion stress: interleave inserts, purges and lookups, mirroring
    /// into a std HashMap, verifying invariants after every purge.
    #[test]
    fn model_based_stress() {
        let mut t: LpTable = LpTable::with_lg_len(10);
        let cap = t.len() * 3 / 4;
        let mut model: HashMap<u64, i64> = HashMap::new();
        let mut rng = Xoshiro256StarStar::from_seed(2024);
        for round in 0..2000u64 {
            let key = rng.next_below(600);
            let delta = (rng.next_below(100) + 1) as i64;
            if model.len() < cap || model.contains_key(&key) {
                t.adjust_or_insert(key, delta);
                *model.entry(key).or_insert(0) += delta;
            }
            if round % 97 == 96 {
                let dec = (rng.next_below(40) + 1) as i64;
                t.adjust_all(-dec);
                t.retain_positive();
                model = model
                    .into_iter()
                    .filter_map(|(k, v)| if v > dec { Some((k, v - dec)) } else { None })
                    .collect();
                t.check_invariants();
            }
        }
        let got: HashMap<u64, i64> = t.iter().map(|(&k, v)| (k, v)).collect();
        assert_eq!(got, model);
    }

    mod proptests {
        use super::super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        /// One step of the table workload: weighted upsert or a purge.
        #[derive(Clone, Debug)]
        enum Op {
            Upsert(u64, i64),
            Purge(i64),
        }

        fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
            proptest::collection::vec(
                prop_oneof![
                    8 => (0u64..400, 1i64..200).prop_map(|(k, v)| Op::Upsert(k, v)),
                    1 => (1i64..100).prop_map(Op::Purge),
                ],
                1..600,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The table behaves exactly like a reference map under any
            /// interleaving of upserts and purge sweeps, and its structural
            /// invariants survive every purge.
            #[test]
            fn equivalent_to_reference_map(ops in arb_ops()) {
                let mut table: LpTable = LpTable::with_lg_len(10);
                let cap = table.len() * 3 / 4;
                let mut model: HashMap<u64, i64> = HashMap::new();
                for op in ops {
                    match op {
                        Op::Upsert(key, delta) => {
                            if model.len() < cap || model.contains_key(&key) {
                                table.adjust_or_insert(key, delta);
                                *model.entry(key).or_insert(0) += delta;
                            }
                        }
                        Op::Purge(dec) => {
                            table.adjust_all(-dec);
                            let removed = table.retain_positive();
                            let before = model.len();
                            model = model
                                .into_iter()
                                .filter(|&(_, v)| v > dec)
                                .map(|(k, v)| (k, v - dec))
                                .collect();
                            prop_assert_eq!(removed, before - model.len());
                            table.check_invariants();
                        }
                    }
                }
                let got: HashMap<u64, i64> = table.iter().map(|(&k, v)| (k, v)).collect();
                prop_assert_eq!(got, model);
            }
        }
    }

    /// Wrap-around clusters: force keys whose home is near the end of the
    /// array by brute-force key search, then purge through the wrapped run.
    #[test]
    fn wrapping_run_purge() {
        let mut t: LpTable = LpTable::with_lg_len(4); // 16 slots
        let len = t.len();
        // Find keys hashing to the last two slots to build a wrapping run.
        let mut picked = Vec::new();
        let mut candidate = 0u64;
        while picked.len() < 6 {
            let home = (candidate.hash64() as usize) & (len - 1);
            if home >= len - 2 {
                picked.push(candidate);
            }
            candidate += 1;
        }
        for (idx, &k) in picked.iter().enumerate() {
            // Alternate doomed (1) and surviving (10) values.
            t.adjust_or_insert(k, if idx % 2 == 0 { 1 } else { 10 });
        }
        t.check_invariants();
        t.adjust_all(-1);
        let removed = t.retain_positive();
        assert_eq!(removed, 3);
        t.check_invariants();
        for (idx, k) in picked.iter().enumerate() {
            if idx % 2 == 0 {
                assert_eq!(t.get(k), None);
            } else {
                assert_eq!(t.get(k), Some(9));
            }
        }
    }
}
