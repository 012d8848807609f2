//! Time-windowed sketch storage — §3's first motivating scenario made
//! concrete: "a company keeps a separate summary for data obtained in
//! each 1-hour period over the course of several years … at query time,
//! an analyst specifies which data are of interest and the summaries are
//! seamlessly merged".
//!
//! [`WindowedStore<K>`] keeps one serialized summary per fixed-width
//! time bucket, for **any** [`SketchKey`] item type with a wire encoding
//! ([`ItemCodec`]): `u64` flow ids, strings, tuples — the store is a
//! layer over the unified [`SketchEngine`](streamfreq_core::SketchEngine)
//! (via [`ItemsSketch`]), so every engine-level optimization reaches it
//! for free. Updates land in the open (in-memory) bucket through the
//! engine's batched, prefetching ingestion path; closed buckets are held
//! as compact, checksummed engine bytes (hundreds of bytes to a few
//! hundred KiB each, §2.3.3), the way a production system would keep
//! them in object storage. A range query deserializes and merges only
//! the buckets that overlap the queried interval — millions of summaries
//! could be scanned this way because Algorithm 5's merge is O(k) with no
//! scratch allocation.
//!
//! A **retention limit** ([`WindowedStore::with_retention`]) bounds the
//! store for retention-limited telemetry: once more than `limit` closed
//! buckets accumulate, the oldest are evicted (and counted), so the
//! store holds a sliding tail of history in bounded memory.
//!
//! The whole store round-trips through a versioned wire format
//! ([`WindowedStore::serialize_to_bytes`]) so the CLI can persist bucket
//! stores to disk between `window build` and `window query` runs.

use streamfreq_core::codec::{policy_from_wire, policy_params, policy_tag};
use streamfreq_core::engine::SketchKey;
use streamfreq_core::item_codec::ItemCodec;
use streamfreq_core::{Error, ItemsSketch, PurgePolicy};

/// A store of per-window frequent-items summaries with range-merge
/// queries, generic over the item type.
///
/// # Example
///
/// ```
/// use streamfreq_apps::WindowedStore;
///
/// // Hourly windows (3600-second buckets), 1024 counters per window.
/// let mut store: WindowedStore<u64> = WindowedStore::new(3600, 1024);
/// store.record(0, 42, 100);        // hour 0
/// store.record(4000, 42, 50);      // hour 1
/// store.record(8000, 7, 10);       // hour 2
///
/// // What happened between hours 0 and 1?
/// let summary = store.query_range(0, 7200).unwrap().unwrap();
/// assert_eq!(summary.estimate(&42), 150);
/// assert_eq!(summary.estimate(&7), 0);
/// ```
///
/// String-keyed windows work identically:
///
/// ```
/// use streamfreq_apps::WindowedStore;
///
/// let mut store: WindowedStore<String> = WindowedStore::new(60, 128);
/// store.record(5, "checkout".to_string(), 3);
/// store.record(65, "search".to_string(), 9);
/// let all = store.query_range(0, 120).unwrap().unwrap();
/// assert_eq!(all.estimate(&"search".to_string()), 9);
/// ```
#[derive(Clone, Debug)]
pub struct WindowedStore<K: SketchKey + ItemCodec = u64> {
    window_width: u64,
    k: usize,
    policy: PurgePolicy,
    /// Maximum closed buckets retained (`None` = unbounded).
    retention: Option<usize>,
    /// Closed buckets evicted by the retention policy so far.
    evicted: u64,
    /// Closed buckets: `(window_start, serialized sketch)`, ascending.
    closed: Vec<(u64, Vec<u8>)>,
    /// The currently open bucket, if any.
    open: Option<(u64, ItemsSketch<K>)>,
}

/// Magic bytes of the store's wire format.
const STORE_MAGIC: &[u8; 4] = b"SFWS";
/// Current store format version. Version 2 stores buckets in the
/// checksummed engine byte form ([`ItemsSketch::serialize_to_bytes`]);
/// version-1 stores are refused.
const STORE_VERSION: u8 = 2;

impl<K: SketchKey + ItemCodec> WindowedStore<K> {
    /// Creates a store with `window_width` time units per bucket and `k`
    /// counters per bucket summary.
    ///
    /// # Panics
    /// Panics if `window_width` is zero or `k` is invalid.
    pub fn new(window_width: u64, k: usize) -> Self {
        Self::with_policy(window_width, k, PurgePolicy::default())
    }

    /// [`Self::new`] with an explicit purge policy for every window
    /// summary (the same `policy` knob the sketch builders expose).
    ///
    /// # Panics
    /// Panics if `window_width` is zero or `k`/`policy` is invalid; use
    /// [`Self::try_with_policy`] to handle configuration errors.
    pub fn with_policy(window_width: u64, k: usize, policy: PurgePolicy) -> Self {
        Self::try_with_policy(window_width, k, policy).expect("invalid window configuration")
    }

    /// Fallible [`Self::with_policy`] — the entry for callers handing
    /// through user-supplied configuration (e.g. the CLI).
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] if `window_width` is zero or the
    /// `k`/`policy` combination is invalid.
    pub fn try_with_policy(
        window_width: u64,
        k: usize,
        policy: PurgePolicy,
    ) -> Result<Self, Error> {
        if window_width == 0 {
            return Err(Error::InvalidConfig("window width must be positive".into()));
        }
        // Validate k and policy eagerly so failures surface at
        // construction.
        let _probe = ItemsSketch::<K>::builder(k).policy(policy).build()?;
        Ok(Self {
            window_width,
            k,
            policy,
            retention: None,
            evicted: 0,
            closed: Vec::new(),
            open: None,
        })
    }

    /// Limits the store to the most recent `limit` *closed* buckets:
    /// when a bucket closes and the limit is exceeded, the oldest closed
    /// buckets are evicted (dropped and counted by
    /// [`Self::evicted_windows`]). The open bucket never counts against
    /// the limit.
    ///
    /// # Panics
    /// Panics if `limit` is zero — a store that can keep no history
    /// cannot answer any closed-window query.
    #[must_use]
    pub fn with_retention(mut self, limit: usize) -> Self {
        assert!(limit > 0, "retention limit must be positive");
        self.retention = Some(limit);
        self
    }

    /// The configured retention limit, if any.
    pub fn retention(&self) -> Option<usize> {
        self.retention
    }

    /// Closed buckets evicted by the retention policy so far.
    pub fn evicted_windows(&self) -> u64 {
        self.evicted
    }

    /// The bucket width in time units.
    pub fn window_width(&self) -> u64 {
        self.window_width
    }

    /// Counters per bucket summary.
    pub fn counters_per_window(&self) -> usize {
        self.k
    }

    fn window_start(&self, timestamp: u64) -> u64 {
        timestamp - timestamp % self.window_width
    }

    /// Shared entry check for the record paths: rolls the open window
    /// forward if `timestamp` belongs to a later bucket.
    ///
    /// # Panics
    /// Panics if the timestamp precedes an already-closed window.
    fn bucket_for(&mut self, timestamp: u64) -> &mut ItemsSketch<K> {
        let start = self.window_start(timestamp);
        if let Some((last_closed, _)) = self.closed.last() {
            // A closed window ending past u64::MAX leaves no later
            // window, so overflow means `start` is inside a closed one.
            assert!(
                last_closed
                    .checked_add(self.window_width)
                    .is_some_and(|end| start >= end),
                "timestamp {timestamp} falls in an already-closed window"
            );
        }
        let need_roll = match &self.open {
            // a record after the open window closes it; a late record
            // within the open epoch is clamped into the open window
            Some((open_start, _)) => start > *open_start,
            None => true,
        };
        if need_roll {
            self.roll_to(start);
        }
        let (_, sketch) = self.open.as_mut().expect("a window is open");
        sketch
    }

    /// Records `(item, weight)` at `timestamp`. Timestamps must be
    /// non-decreasing across calls (streaming ingestion); a timestamp
    /// before the open window is clamped into it.
    ///
    /// # Panics
    /// Panics if the timestamp precedes an already-closed window.
    pub fn record(&mut self, timestamp: u64, item: K, weight: u64) {
        self.bucket_for(timestamp).update(item, weight);
    }

    /// Records a slice of `(item, weight)` updates that all carry the same
    /// `timestamp`, through the open window's batched, prefetching
    /// ingestion path ([`ItemsSketch::update_batch`], i.e. the engine
    /// batch path) — the natural entry for ingest pipelines that deliver
    /// telemetry in per-tick buckets. State-identical to calling
    /// [`Self::record`] per pair.
    ///
    /// # Panics
    /// Panics if the timestamp precedes an already-closed window.
    pub fn record_batch(&mut self, timestamp: u64, batch: &[(K, u64)]) {
        if batch.is_empty() {
            return;
        }
        self.bucket_for(timestamp).update_batch(batch);
    }

    /// Closes the open window (serializing it) and opens one at `start`,
    /// then applies the retention policy.
    fn roll_to(&mut self, start: u64) {
        if let Some((open_start, sketch)) = self.open.take() {
            self.closed.push((open_start, sketch.serialize_to_bytes()));
            if let Some(limit) = self.retention {
                if self.closed.len() > limit {
                    let excess = self.closed.len() - limit;
                    self.closed.drain(..excess);
                    self.evicted += excess as u64;
                }
            }
        }
        let sketch = ItemsSketch::builder(self.k)
            .policy(self.policy)
            .seed(start ^ 0x0057_AB1E)
            .build()
            .expect("validated at construction");
        self.open = Some((start, sketch));
    }

    /// Number of closed windows held.
    pub fn num_closed_windows(&self) -> usize {
        self.closed.len()
    }

    /// Start timestamps of the closed windows currently held, ascending.
    pub fn closed_window_starts(&self) -> impl Iterator<Item = u64> + '_ {
        self.closed.iter().map(|&(start, _)| start)
    }

    /// Total bytes held by the closed-window encodings.
    pub fn stored_bytes(&self) -> usize {
        self.closed.iter().map(|(_, b)| b.len()).sum()
    }

    /// Merges every window overlapping `[from, to)` into one summary of
    /// the union of their streams (Theorem 5 bounds apply, via Algorithm
    /// 5 merges). Returns `None` when no *retained* window overlaps;
    /// evicted windows are gone and silently absent.
    ///
    /// # Errors
    /// Returns a codec error if a stored encoding is corrupt.
    pub fn query_range(&self, from: u64, to: u64) -> Result<Option<ItemsSketch<K>>, Error> {
        // A window whose end would overflow u64 still extends past any
        // `from`, so overflow means "overlaps on the right".
        let overlaps = |start: u64| {
            start < to
                && start
                    .checked_add(self.window_width)
                    .is_none_or(|end| end > from)
        };
        let mut merged: Option<ItemsSketch<K>> = None;
        let mut absorb = |sketch: ItemsSketch<K>| match &mut merged {
            Some(acc) => acc.merge(&sketch),
            None => merged = Some(sketch),
        };
        for (start, bytes) in &self.closed {
            if overlaps(*start) {
                absorb(ItemsSketch::deserialize_from_bytes(bytes)?);
            }
        }
        if let Some((start, sketch)) = &self.open {
            if overlaps(*start) {
                absorb(sketch.clone());
            }
        }
        Ok(merged)
    }

    /// Serializes the whole store — configuration, closed buckets, and
    /// the open bucket — into a fresh byte vector (versioned wire
    /// format, magic `"SFWS"`). The CLI's `window build` writes this to
    /// disk and `window query` reads it back.
    pub fn serialize_to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(STORE_MAGIC);
        out.push(STORE_VERSION);
        out.push(policy_tag(&self.policy));
        let (a, b) = policy_params(&self.policy);
        a.encode(&mut out);
        b.encode(&mut out);
        self.window_width.encode(&mut out);
        (self.k as u64).encode(&mut out);
        // retention: u64::MAX encodes "unbounded".
        (self.retention.map_or(u64::MAX, |r| r as u64)).encode(&mut out);
        self.evicted.encode(&mut out);
        (self.closed.len() as u32).encode(&mut out);
        for (start, bytes) in &self.closed {
            start.encode(&mut out);
            bytes.encode(&mut out);
        }
        match &self.open {
            Some((start, sketch)) => {
                out.push(1);
                start.encode(&mut out);
                sketch.serialize_to_bytes().encode(&mut out);
            }
            None => out.push(0),
        }
        out
    }

    /// Reconstructs a store from [`Self::serialize_to_bytes`] output.
    /// Every bucket encoding is validated eagerly, so a corrupt store
    /// fails here rather than at query time.
    ///
    /// # Errors
    /// Returns [`Error::Corrupt`], [`Error::UnsupportedVersion`] or
    /// [`Error::Truncated`] on malformed input; trailing bytes are
    /// rejected.
    pub fn deserialize_from_bytes(bytes: &[u8]) -> Result<Self, Error> {
        let mut buf = bytes;
        let mut magic = [0u8; 4];
        for slot in &mut magic {
            *slot = u8::decode(&mut buf)?;
        }
        if &magic != STORE_MAGIC {
            return Err(Error::Corrupt(format!("bad store magic {magic:02x?}")));
        }
        let version = u8::decode(&mut buf)?;
        if version != STORE_VERSION {
            return Err(Error::UnsupportedVersion(version));
        }
        let tag = u8::decode(&mut buf)?;
        let a = u64::decode(&mut buf)?;
        let b = u64::decode(&mut buf)?;
        let policy = policy_from_wire(tag, a, b)?;
        let window_width = u64::decode(&mut buf)?;
        if window_width == 0 {
            return Err(Error::Corrupt("zero window width".into()));
        }
        let k = usize::try_from(u64::decode(&mut buf)?)
            .map_err(|_| Error::Corrupt("k exceeds usize".into()))?;
        let retention_raw = u64::decode(&mut buf)?;
        let retention = if retention_raw == u64::MAX {
            None
        } else {
            let r = usize::try_from(retention_raw)
                .map_err(|_| Error::Corrupt("retention exceeds usize".into()))?;
            if r == 0 {
                return Err(Error::Corrupt("zero retention limit".into()));
            }
            Some(r)
        };
        let evicted = u64::decode(&mut buf)?;
        // Validate k/policy the same way the constructor does.
        ItemsSketch::<K>::builder(k)
            .policy(policy)
            .build()
            .map_err(|e| Error::Corrupt(format!("invalid store configuration: {e}")))?;
        let num_closed = usize::try_from(u32::decode(&mut buf)?)
            .map_err(|_| Error::Corrupt("closed-window count exceeds usize".into()))?;
        let mut closed = Vec::with_capacity(num_closed.min(1 << 16));
        let mut last_start: Option<u64> = None;
        for _ in 0..num_closed {
            let start = u64::decode(&mut buf)?;
            if start % window_width != 0 || last_start.is_some_and(|prev| start <= prev) {
                return Err(Error::Corrupt(format!(
                    "closed-window start {start} out of order or misaligned"
                )));
            }
            last_start = Some(start);
            let bucket = Vec::<u8>::decode(&mut buf)?;
            // Eager validation: a corrupt bucket should fail the load,
            // not a later query.
            ItemsSketch::<K>::deserialize_from_bytes(&bucket)?;
            closed.push((start, bucket));
        }
        let open = match u8::decode(&mut buf)? {
            0 => None,
            1 => {
                let start = u64::decode(&mut buf)?;
                // `prev + width` overflowing means no later window can
                // exist at all — equally corrupt, so use checked math on
                // these untrusted values.
                let min_start = last_start.map(|prev| prev.checked_add(window_width));
                if start % window_width != 0
                    || min_start.is_some_and(|min| min.is_none_or(|m| start < m))
                {
                    return Err(Error::Corrupt(format!(
                        "open-window start {start} overlaps closed windows"
                    )));
                }
                let bucket = Vec::<u8>::decode(&mut buf)?;
                Some((start, ItemsSketch::<K>::deserialize_from_bytes(&bucket)?))
            }
            other => {
                return Err(Error::Corrupt(format!("bad open-window marker {other}")));
            }
        };
        if !buf.is_empty() {
            return Err(Error::Corrupt("trailing bytes after store".into()));
        }
        Ok(Self {
            window_width,
            k,
            policy,
            retention,
            evicted,
            closed,
            open,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_roll_on_time() {
        let mut store: WindowedStore<u64> = WindowedStore::new(3600, 64);
        store.record(0, 1, 10);
        store.record(1800, 1, 5);
        store.record(3600, 2, 7); // second hour
        store.record(7300, 3, 1); // third hour
        assert_eq!(store.num_closed_windows(), 2);
        assert!(store.stored_bytes() > 0);
    }

    #[test]
    fn range_query_merges_only_selected_windows() {
        let mut store: WindowedStore<u64> = WindowedStore::new(100, 64);
        for hour in 0..10u64 {
            for _ in 0..5 {
                store.record(hour * 100 + 10, hour + 1, 100);
            }
        }
        // Query hours 3..=4 (timestamps 300..500).
        let merged = store.query_range(300, 500).unwrap().expect("overlap");
        assert_eq!(merged.estimate(&4), 500, "hour-3 item");
        assert_eq!(merged.estimate(&5), 500, "hour-4 item");
        assert_eq!(merged.estimate(&1), 0, "hour-0 item must be absent");
        assert_eq!(merged.stream_weight(), 1000);
    }

    #[test]
    fn open_window_participates_in_queries() {
        let mut store: WindowedStore<u64> = WindowedStore::new(100, 32);
        store.record(50, 42, 9);
        let merged = store.query_range(0, 100).unwrap().expect("open window");
        assert_eq!(merged.estimate(&42), 9);
    }

    #[test]
    fn empty_range_returns_none() {
        let mut store: WindowedStore<u64> = WindowedStore::new(100, 32);
        store.record(50, 1, 1);
        assert!(store.query_range(1000, 2000).unwrap().is_none());
    }

    #[test]
    fn merged_range_respects_error_bounds() {
        let mut store: WindowedStore<u64> = WindowedStore::new(1000, 64);
        let mut truth = std::collections::HashMap::new();
        let mut x = 9u64;
        for t in 0..50_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let item = (x >> 33) % 500;
            let w = x % 20 + 1;
            store.record(t, item, w);
            *truth.entry(item).or_insert(0u64) += w;
        }
        let merged = store.query_range(0, 50_000).unwrap().expect("windows");
        for (&item, &f) in &truth {
            assert!(merged.lower_bound(&item) <= f);
            assert!(merged.upper_bound(&item) >= f);
        }
    }

    #[test]
    #[should_panic(expected = "already-closed")]
    fn rejects_timestamps_behind_closed_windows() {
        let mut store: WindowedStore<u64> = WindowedStore::new(100, 32);
        store.record(250, 1, 1);
        store.record(90, 2, 1); // window [0,100) was implicitly skipped... 250 closed nothing yet
        store.record(350, 3, 1); // closes [200,300)
        store.record(150, 4, 1); // behind the closed window → panic
    }

    #[test]
    fn record_batch_matches_scalar_records() {
        let per_tick: Vec<(u64, u64)> = (0..5_000u64).map(|i| (i % 300, i % 9 + 1)).collect();
        let mut scalar: WindowedStore<u64> = WindowedStore::new(100, 64);
        let mut batched: WindowedStore<u64> = WindowedStore::new(100, 64);
        for tick in 0..5u64 {
            for &(item, w) in &per_tick {
                scalar.record(tick * 100, item, w);
            }
            batched.record_batch(tick * 100, &per_tick);
        }
        let a = scalar.query_range(0, 500).unwrap().unwrap();
        let b = batched.query_range(0, 500).unwrap().unwrap();
        assert_eq!(a.serialize_to_bytes(), b.serialize_to_bytes());
    }

    #[test]
    fn with_policy_configures_every_window() {
        let mut store: WindowedStore<u64> =
            WindowedStore::with_policy(100, 32, PurgePolicy::smin());
        store.record(50, 1, 5);
        store.record(150, 2, 5); // closes window 0
        let merged = store.query_range(0, 200).unwrap().unwrap();
        assert_eq!(merged.policy(), PurgePolicy::smin());
    }

    #[test]
    fn storage_is_compact() {
        let mut store: WindowedStore<u64> = WindowedStore::new(10, 4096);
        // sparse windows: few distinct items each
        for w in 0..100u64 {
            store.record(w * 10, w % 7, 1);
        }
        // 99 closed windows, each with ~1 counter: ~150 bytes each
        assert_eq!(store.num_closed_windows(), 99);
        assert!(
            store.stored_bytes() < 99 * 200,
            "sparse windows must serialize compactly, got {}",
            store.stored_bytes()
        );
    }

    #[test]
    fn string_keyed_store_works_end_to_end() {
        let mut store: WindowedStore<String> = WindowedStore::new(60, 32);
        for minute in 0..5u64 {
            let batch: Vec<(String, u64)> = (0..200u64)
                .map(|i| (format!("route-{}", (i + minute) % 17), i % 5 + 1))
                .collect();
            store.record_batch(minute * 60, &batch);
        }
        assert_eq!(store.num_closed_windows(), 4);
        let merged = store.query_range(0, 300).unwrap().expect("data");
        assert!(merged.estimate(&"route-3".to_string()) > 0);
        // Restricting the range restricts the mass.
        let first = store.query_range(0, 60).unwrap().expect("first window");
        assert!(first.stream_weight() < merged.stream_weight());
    }

    #[test]
    fn retention_evicts_oldest_buckets() {
        let mut store: WindowedStore<u64> = WindowedStore::new(10, 16).with_retention(3);
        for w in 0..8u64 {
            store.record(w * 10, w, 1);
        }
        // 7 closed (window 7 still open), limit 3 → 4 evicted.
        assert_eq!(store.num_closed_windows(), 3);
        assert_eq!(store.evicted_windows(), 4);
        let starts: Vec<u64> = store.closed_window_starts().collect();
        assert_eq!(starts, vec![40, 50, 60], "oldest buckets evicted first");
        // Evicted history is gone; retained + open history answers.
        assert!(store.query_range(0, 40).unwrap().is_none());
        let tail = store.query_range(40, 80).unwrap().expect("retained");
        assert_eq!(tail.stream_weight(), 4);
    }

    #[test]
    fn store_roundtrips_through_bytes() {
        let mut store: WindowedStore<String> =
            WindowedStore::with_policy(100, 32, PurgePolicy::smin()).with_retention(5);
        for tick in 0..7u64 {
            let batch: Vec<(String, u64)> = (0..300u64)
                .map(|i| (format!("k{}", i % 40), i % 6 + 1))
                .collect();
            store.record_batch(tick * 100, &batch);
        }
        let bytes = store.serialize_to_bytes();
        let restored = WindowedStore::<String>::deserialize_from_bytes(&bytes).unwrap();
        assert_eq!(restored.window_width(), 100);
        assert_eq!(restored.counters_per_window(), 32);
        assert_eq!(restored.retention(), Some(5));
        assert_eq!(restored.evicted_windows(), store.evicted_windows());
        assert_eq!(restored.num_closed_windows(), store.num_closed_windows());
        // Identical query results, including the open window.
        let a = store.query_range(0, 700).unwrap().unwrap();
        let b = restored.query_range(0, 700).unwrap().unwrap();
        assert_eq!(a.serialize_to_bytes(), b.serialize_to_bytes());
        // Ingestion continues identically after the roundtrip: the open
        // bucket's engine state (estimates, purge clock, stream weight,
        // slot layout) travels along.
        let mut original = store;
        let mut resumed = restored;
        let more: Vec<(String, u64)> = (0..300u64)
            .map(|i| (format!("k{}", i % 55), i % 4 + 1))
            .collect();
        original.record_batch(700, &more);
        resumed.record_batch(700, &more);
        let a = original.query_range(0, 800).unwrap().unwrap();
        let b = resumed.query_range(0, 800).unwrap().unwrap();
        assert_eq!(a.stream_weight(), b.stream_weight());
        assert_eq!(a.maximum_error(), b.maximum_error());
        for i in 0..55u64 {
            let key = format!("k{i}");
            assert_eq!(a.estimate(&key), b.estimate(&key), "{key}");
        }
        assert_eq!(original.serialize_to_bytes(), resumed.serialize_to_bytes());
    }

    #[test]
    #[should_panic(expected = "already-closed")]
    fn closed_window_at_the_top_slot_refuses_later_timestamps() {
        // A decoded store may hold a closed window whose end overflows
        // u64; no timestamp can follow it.
        let mut crafted: WindowedStore<u64> = WindowedStore::new(100, 16);
        let top = u64::MAX - u64::MAX % 100;
        let bucket = ItemsSketch::<u64>::with_max_counters(16).serialize_to_bytes();
        crafted.closed.push((top, bucket));
        let mut store =
            WindowedStore::<u64>::deserialize_from_bytes(&crafted.serialize_to_bytes()).unwrap();
        store.record(u64::MAX, 1, 1);
    }

    #[test]
    fn store_codec_rejects_malformed() {
        let mut store: WindowedStore<u64> = WindowedStore::new(100, 16);
        store.record(50, 1, 5);
        store.record(150, 2, 5);
        let bytes = store.serialize_to_bytes();
        let mut bad = bytes.clone();
        bad[0] = b'Z';
        assert!(WindowedStore::<u64>::deserialize_from_bytes(&bad).is_err());
        // Version-1 stores (buckets in a retired encoding) are refused.
        let mut old = bytes.clone();
        old[4] = 1;
        assert!(matches!(
            WindowedStore::<u64>::deserialize_from_bytes(&old),
            Err(Error::UnsupportedVersion(1))
        ));
        for cut in [0, 4, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                WindowedStore::<u64>::deserialize_from_bytes(&bytes[..cut]).is_err(),
                "prefix {cut} accepted"
            );
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(WindowedStore::<u64>::deserialize_from_bytes(&long).is_err());
    }
}
