//! Property-based tests of the core invariants, over arbitrary streams
//! and arbitrary sketch configurations.

use proptest::prelude::*;
use std::collections::HashMap;

use streamfreq::baselines::ExactCounter;
use streamfreq::{FreqSketch, FrequencyEstimator, PurgePolicy, ShardedSketch};

fn arb_policy() -> impl Strategy<Value = PurgePolicy> {
    prop_oneof![
        Just(PurgePolicy::smed()),
        Just(PurgePolicy::smin()),
        (0.0f64..=0.98).prop_map(PurgePolicy::sample_quantile),
        (0.05f64..=1.0).prop_map(|fraction| PurgePolicy::ExactKStar { fraction }),
        Just(PurgePolicy::GlobalMin),
    ]
}

fn arb_stream() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..200, 1u64..5_000), 1..2_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fundamental contract: for any stream, any policy, any capacity,
    /// `lower_bound ≤ f ≤ upper_bound` and `ub − lb ≤ maximum_error`.
    #[test]
    fn bounds_always_bracket_truth(
        stream in arb_stream(),
        policy in arb_policy(),
        k in 4usize..64,
        seed in any::<u64>(),
    ) {
        let mut sketch = FreqSketch::builder(k).policy(policy).seed(seed).build().unwrap();
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &(item, w) in &stream {
            sketch.update(item, w);
            *truth.entry(item).or_insert(0) += w;
        }
        sketch.check_invariants();
        let offset = sketch.maximum_error();
        for (&item, &f) in &truth {
            let lb = sketch.lower_bound(item);
            let ub = sketch.upper_bound(item);
            prop_assert!(lb <= f, "lb {lb} > f {f} for item {item}");
            prop_assert!(ub >= f, "ub {ub} < f {f} for item {item}");
            prop_assert!(ub - lb <= offset);
        }
        // Untracked items (estimate 0) must have true frequency ≤ offset.
        for (&item, &f) in &truth {
            if sketch.estimate(item) == 0 {
                prop_assert!(f <= offset, "evicted item {item} had f {f} > offset {offset}");
            }
        }
    }

    /// Stream-weight bookkeeping is exact under any update sequence.
    #[test]
    fn stream_weight_is_exact(stream in arb_stream(), k in 4usize..32) {
        let mut sketch = FreqSketch::builder(k).build().unwrap();
        let mut n = 0u64;
        for &(item, w) in &stream {
            sketch.update(item, w);
            n += w;
        }
        prop_assert_eq!(sketch.stream_weight(), n);
        prop_assert_eq!(sketch.num_updates(), stream.len() as u64);
    }

    /// Merging two sketches preserves the bracket contract on the union.
    #[test]
    fn merge_preserves_bounds(
        left in arb_stream(),
        right in arb_stream(),
        k in 8usize..48,
    ) {
        let mut a = FreqSketch::builder(k).seed(1).build().unwrap();
        let mut b = FreqSketch::builder(k).seed(2).build().unwrap();
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &(item, w) in &left {
            a.update(item, w);
            *truth.entry(item).or_insert(0) += w;
        }
        for &(item, w) in &right {
            b.update(item, w);
            *truth.entry(item).or_insert(0) += w;
        }
        a.merge(&b);
        a.check_invariants();
        for (&item, &f) in &truth {
            prop_assert!(a.lower_bound(item) <= f);
            prop_assert!(a.upper_bound(item) >= f);
        }
        prop_assert_eq!(
            a.stream_weight(),
            truth.values().sum::<u64>()
        );
    }

    /// Codec roundtrip: any sketch state survives serialization exactly,
    /// including continued updating.
    #[test]
    fn codec_roundtrip_any_state(
        stream in arb_stream(),
        policy in arb_policy(),
        k in 4usize..64,
        extra in proptest::collection::vec((0u64..200, 1u64..100), 0..50),
    ) {
        let mut sketch = FreqSketch::builder(k).policy(policy).build().unwrap();
        for &(item, w) in &stream {
            sketch.update(item, w);
        }
        let bytes = sketch.serialize_to_bytes();
        let mut restored = FreqSketch::deserialize_from_bytes(&bytes).unwrap();
        prop_assert_eq!(restored.maximum_error(), sketch.maximum_error());
        prop_assert_eq!(restored.num_counters(), sketch.num_counters());
        for item in 0..200u64 {
            prop_assert_eq!(restored.estimate(item), sketch.estimate(item));
        }
        // continued updates stay bit-identical
        for &(item, w) in &extra {
            sketch.update(item, w);
            restored.update(item, w);
        }
        prop_assert_eq!(restored.maximum_error(), sketch.maximum_error());
        for item in 0..200u64 {
            prop_assert_eq!(restored.estimate(item), sketch.estimate(item));
        }
    }

    /// Corrupted or truncated encodings never panic — they error.
    #[test]
    fn codec_rejects_mutations_gracefully(
        stream in proptest::collection::vec((0u64..50, 1u64..100), 1..100),
        mutation_pos in any::<usize>(),
        mutation_val in any::<u8>(),
        truncate_to in any::<usize>(),
    ) {
        let mut sketch = FreqSketch::builder(16).build().unwrap();
        for &(item, w) in &stream {
            sketch.update(item, w);
        }
        let bytes = sketch.serialize_to_bytes();
        // mutate one byte
        let mut mutated = bytes.clone();
        let pos = mutation_pos % mutated.len();
        mutated[pos] ^= mutation_val | 1;
        prop_assert!(
            FreqSketch::deserialize_from_bytes(&mutated).is_err(),
            "byte {pos} changed and the encoding still decoded"
        );
        // truncate
        let cut = truncate_to % bytes.len();
        let result = FreqSketch::deserialize_from_bytes(&bytes[..cut]);
        prop_assert!(result.is_err(), "truncated encoding accepted");
    }

    /// The update path is permutation-insensitive for the exact regime
    /// (no purges): any order of the same updates gives identical state.
    #[test]
    fn exact_regime_is_order_insensitive(
        mut stream in proptest::collection::vec((0u64..30, 1u64..100), 1..200),
    ) {
        let run = |updates: &[(u64, u64)]| {
            let mut s = FreqSketch::builder(64).build().unwrap();
            for &(item, w) in updates {
                s.update(item, w);
            }
            s
        };
        let a = run(&stream);
        stream.reverse();
        let b = run(&stream);
        prop_assert_eq!(a.maximum_error(), 0);
        for item in 0..30u64 {
            prop_assert_eq!(a.estimate(item), b.estimate(item));
        }
    }

    /// The batch update path is *state-identical* to scalar updates for
    /// any stream, any policy, any capacity, and any split of the stream
    /// into `update_batch` calls: same estimates, same offset, same
    /// bounds — in fact the entire wire encoding (counters, slot layout,
    /// sampler state) matches byte for byte.
    #[test]
    fn update_batch_any_split_matches_scalar(
        stream in arb_stream(),
        policy in arb_policy(),
        k in 4usize..64,
        split_seed in any::<u64>(),
    ) {
        let mut scalar = FreqSketch::builder(k).policy(policy).build().unwrap();
        for &(item, w) in &stream {
            scalar.update(item, w);
        }
        let mut batched = FreqSketch::builder(k).policy(policy).build().unwrap();
        let mut rest: &[(u64, u64)] = &stream;
        let mut x = split_seed | 1;
        while !rest.is_empty() {
            // xorshift-driven arbitrary split points, including size 0.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let take = (x as usize % (rest.len() + 1)).min(rest.len());
            let (chunk, tail) = rest.split_at(take.max(1).min(rest.len()));
            batched.update_batch(chunk);
            rest = tail;
        }
        batched.check_invariants();
        prop_assert_eq!(batched.maximum_error(), scalar.maximum_error());
        prop_assert_eq!(batched.stream_weight(), scalar.stream_weight());
        prop_assert_eq!(batched.num_updates(), scalar.num_updates());
        for item in 0..200u64 {
            prop_assert_eq!(batched.estimate(item), scalar.estimate(item));
            prop_assert_eq!(batched.lower_bound(item), scalar.lower_bound(item));
            prop_assert_eq!(batched.upper_bound(item), scalar.upper_bound(item));
        }
        prop_assert_eq!(batched.serialize_to_bytes(), scalar.serialize_to_bytes());
    }

    /// A sharded bank answers within the certified bounds for any stream
    /// and thread count, its state is thread-count-independent, and its
    /// Algorithm-5 merge stays within the Theorem 5 error budget.
    #[test]
    fn sharded_matches_merged_within_theorem5(
        stream in arb_stream(),
        shards in 1usize..6,
        k in 8usize..48,
        threads in 1usize..5,
    ) {
        let mut bank = ShardedSketch::builder(shards, k).seed(3).build().unwrap();
        bank.ingest_parallel(&stream, threads);
        bank.check_invariants();
        let mut reference = ShardedSketch::builder(shards, k).seed(3).build().unwrap();
        for &(item, w) in &stream {
            reference.update(item, w);
        }
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &(item, w) in &stream {
            *truth.entry(item).or_insert(0) += w;
        }
        // Parallel ingestion is deterministic: identical to scalar routing.
        for (a, b) in bank.shards().iter().zip(reference.shards()) {
            prop_assert_eq!(a.serialize_to_bytes(), b.serialize_to_bytes());
        }
        // The live bank brackets the truth per item.
        for (&item, &f) in &truth {
            prop_assert!(bank.lower_bound(&item) <= f);
            prop_assert!(bank.upper_bound(&item) >= f);
        }
        // And the single merged export obeys Theorem 5.
        let merged = bank.merged();
        prop_assert_eq!(merged.stream_weight(), bank.stream_weight());
        for (&item, &f) in &truth {
            prop_assert!(merged.lower_bound(&item) <= f);
            prop_assert!(merged.upper_bound(&item) >= f);
        }
        prop_assert!(merged.maximum_error() <= merged.a_priori_error(merged.stream_weight()));
    }

    /// Heavy-hitter reporting contracts hold for arbitrary thresholds.
    #[test]
    fn reporting_contracts(
        stream in arb_stream(),
        k in 8usize..64,
        phi in 0.0f64..=1.0,
    ) {
        let mut sketch = FreqSketch::builder(k).build().unwrap();
        let mut exact = ExactCounter::new();
        for &(item, w) in &stream {
            sketch.update(item, w);
            exact.update(item, w);
        }
        let n = exact.stream_weight();
        // The query clamps thresholds to the summary's error level (the
        // summary cannot enumerate items inside its error band).
        let threshold = streamfreq::phi_threshold(phi, n).max(sketch.maximum_error());
        let nfn: Vec<u64> = sketch
            .heavy_hitters(phi, streamfreq::ErrorType::NoFalseNegatives)
            .iter().map(|r| r.item).collect();
        for (item, f) in exact.iter() {
            if f > threshold {
                prop_assert!(nfn.contains(&item), "missed item {item} with f {f}");
            }
        }
        for row in sketch.heavy_hitters(phi, streamfreq::ErrorType::NoFalsePositives) {
            prop_assert!(
                exact.estimate(row.item) > threshold,
                "false positive {} (f {} ≤ {threshold})",
                row.item, exact.estimate(row.item)
            );
        }
    }
}

/// Hostile-input hardening: the sketch byte form is CRC-framed, so
/// every truncation and every bit flip of an encoded sketch is an
/// error — never a panic, and never a plausible-but-wrong state.
mod corruption {
    use proptest::prelude::*;
    use streamfreq::{FreqSketch, ItemsSketch, PurgePolicy};

    fn arb_policy() -> impl Strategy<Value = PurgePolicy> {
        prop_oneof![
            Just(PurgePolicy::smed()),
            Just(PurgePolicy::smin()),
            Just(PurgePolicy::GlobalMin),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn mutated_sketch_bytes_never_panic_and_tears_always_err(
            stream in proptest::collection::vec((0u64..300, 1u64..500), 1..800),
            policy in arb_policy(),
            k in 4usize..48,
            seed in any::<u64>(),
            cut_frac in 0.0f64..=1.0,
            flip_frac in 0.0f64..=1.0,
            flip_bit in 0u8..8,
        ) {
            let mut sketch = FreqSketch::builder(k).policy(policy).seed(seed).build().unwrap();
            sketch.update_batch(&stream);
            let bytes = sketch.serialize_to_bytes();

            // Truncation at any interior point is always an error.
            let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
            prop_assert!(
                FreqSketch::deserialize_from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes accepted", bytes.len()
            );

            // A bit flip anywhere is an error too: the encoding is
            // checksummed, so it cannot decode into a different sketch.
            let mut flipped = bytes.clone();
            let at = ((bytes.len() - 1) as f64 * flip_frac) as usize;
            flipped[at] ^= 1 << flip_bit;
            prop_assert!(
                FreqSketch::deserialize_from_bytes(&flipped).is_err(),
                "sketch with byte {at} flipped decoded silently"
            );
            // Untouched bytes still decode, so the rejections above are
            // about the corruption, not the encoding.
            prop_assert!(FreqSketch::deserialize_from_bytes(&bytes).is_ok());
        }

        #[test]
        fn mutated_items_sketch_bytes_never_panic(
            stream in proptest::collection::vec((".*", 1u64..200), 1..200),
            k in 4usize..32,
            cut_frac in 0.0f64..=1.0,
            flip_frac in 0.0f64..=1.0,
            flip_bit in 0u8..8,
        ) {
            let mut sketch: ItemsSketch<String> = ItemsSketch::with_max_counters(k);
            for (item, w) in &stream {
                sketch.update(item.clone(), *w);
            }
            let bytes = sketch.serialize_to_bytes();
            let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
            prop_assert!(ItemsSketch::<String>::deserialize_from_bytes(&bytes[..cut]).is_err());
            let mut flipped = bytes.clone();
            let at = ((bytes.len() - 1) as f64 * flip_frac) as usize;
            flipped[at] ^= 1 << flip_bit;
            prop_assert!(
                ItemsSketch::<String>::deserialize_from_bytes(&flipped).is_err(),
                "items sketch with byte {at} flipped decoded silently"
            );
        }
    }
}

/// The compact delta/varint WAL record codec introduced with the shared
/// group-commit log: every encoded stream of values must decode back
/// byte-exactly, every truncation must be rejected, and a full on-disk
/// log must survive a bit flip at *every* offset without ever yielding
/// a record that was not written (the CRC outer frame is the contract).
mod wal_codec {
    use proptest::prelude::*;
    use streamfreq::item_codec::{read_uvarint, write_uvarint, ItemCodec};
    use streamfreq::persist::store::read_manifest;
    use streamfreq::persist::wal;
    use streamfreq::{DurabilityOptions, DurableSketch, EngineConfig, FsyncPolicy};

    /// A unique, empty scratch directory per test case.
    fn scratch(label: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir()
            .join("streamfreq-wal-codec")
            .join(format!(
                "{label}-{}-{}",
                std::process::id(),
                CASE.fetch_add(1, Ordering::SeqCst)
            ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Writes `batches` through a fresh store's shared-log encoder and
    /// returns the log's records plus the path of its one segment.
    fn write_log(
        dir: &std::path::Path,
        batches: &[Vec<(u64, u64)>],
    ) -> (Vec<wal::WalRecord<u64>>, std::path::PathBuf) {
        let opts = DurabilityOptions {
            fsync: FsyncPolicy::Off,
            // One segment, so a bad frame always reads as the log tail.
            segment_bytes: 1 << 24,
        };
        let (mut store, _) =
            DurableSketch::<u64>::open(dir, EngineConfig::new(16).seed(3), opts).unwrap();
        for batch in batches {
            store.update_batch(batch).unwrap();
        }
        store.sync().unwrap();
        drop(store);
        let manifest = read_manifest(dir).unwrap().unwrap();
        let outcome = wal::read_from::<u64>(dir, manifest.wal_start).unwrap();
        assert_eq!(outcome.dropped_tail_bytes, 0);
        let segment = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| {
                let name = p
                    .file_name()
                    .unwrap_or_default()
                    .to_string_lossy()
                    .into_owned();
                name.starts_with("wal-") && name.ends_with(".seg")
            })
            .expect("log segment exists");
        (outcome.records, segment)
    }

    /// True if `records` is a per-record-equal prefix of `reference`.
    fn is_prefix(records: &[wal::WalRecord<u64>], reference: &[wal::WalRecord<u64>]) -> bool {
        records.len() <= reference.len()
            && records
                .iter()
                .zip(reference)
                .all(|(a, b)| a.stream == b.stream && a.epoch == b.epoch && a.batch == b.batch)
    }

    /// Exhaustive single-bit-flip and truncation sweep over a real log:
    /// at every byte offset, the reader must return a clean prefix of
    /// the original records or an error — never invent or skip one.
    #[test]
    fn log_survives_bitflip_and_truncation_at_every_offset() {
        let dir = scratch("flip-sweep");
        let batches: Vec<Vec<(u64, u64)>> = (0..6)
            .map(|b| (0..12).map(|i| (b * 100 + i, i * 7 + 1)).collect())
            .collect();
        let (reference, segment) = write_log(&dir, &batches);
        assert_eq!(reference.len(), batches.len());
        for (record, batch) in reference.iter().zip(&batches) {
            assert_eq!(record.stream, 0);
            assert_eq!(&record.batch, batch, "roundtrip must be value-exact");
        }
        let start = reference[0].at;
        let pristine = std::fs::read(&segment).unwrap();

        for offset in 0..pristine.len() {
            for bit in [0u8, 3, 7] {
                let mut mutated = pristine.clone();
                mutated[offset] ^= 1 << bit;
                std::fs::write(&segment, &mutated).unwrap();
                match wal::read_from::<u64>(&dir, start) {
                    Err(_) => {}
                    Ok(outcome) => assert!(
                        is_prefix(&outcome.records, &reference),
                        "bit {bit} flipped at {offset} yielded a non-prefix"
                    ),
                }
            }
            std::fs::write(&segment, &pristine[..offset]).unwrap();
            match wal::read_from::<u64>(&dir, start) {
                Err(_) => {}
                Ok(outcome) => assert!(
                    is_prefix(&outcome.records, &reference),
                    "truncation at {offset} yielded a non-prefix"
                ),
            }
        }
        std::fs::write(&segment, &pristine).unwrap();
        let outcome = wal::read_from::<u64>(&dir, start).unwrap();
        assert!(
            is_prefix(&outcome.records, &reference) && outcome.records.len() == reference.len(),
            "pristine log must still read in full after the sweep"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Varint sequences roundtrip byte-exactly and reject every
        /// truncation point without panicking or over-reading.
        #[test]
        fn uvarint_sequences_roundtrip_and_reject_truncation(
            values in proptest::collection::vec(any::<u64>(), 1..64),
            cut_frac in 0.0f64..1.0,
        ) {
            let mut bytes = Vec::new();
            for &v in &values {
                write_uvarint(&mut bytes, v);
            }
            let mut view = bytes.as_slice();
            for &v in &values {
                prop_assert_eq!(read_uvarint(&mut view).unwrap(), v);
            }
            prop_assert!(view.is_empty(), "decoder must consume exactly its bytes");

            // Any strict prefix decodes strictly fewer values, then errs.
            let cut = (bytes.len() as f64 * cut_frac) as usize;
            let mut view = &bytes[..cut.min(bytes.len() - 1)];
            let mut decoded = 0usize;
            while let Ok(v) = read_uvarint(&mut view) {
                prop_assert_eq!(v, values[decoded]);
                decoded += 1;
                prop_assert!(decoded < values.len(), "truncated buffer decoded fully");
            }
        }

        /// Compact item encodings roundtrip value-exactly back to back
        /// in a shared buffer (the WAL frame layout).
        #[test]
        fn compact_items_roundtrip_back_to_back(
            items in proptest::collection::vec(any::<u64>(), 1..128),
        ) {
            let mut bytes = Vec::new();
            for &item in &items {
                item.encode_compact(&mut bytes);
            }
            let mut view = bytes.as_slice();
            for &item in &items {
                prop_assert_eq!(u64::decode_compact(&mut view).unwrap(), item);
            }
            prop_assert!(view.is_empty());
        }

        /// Random logs roundtrip value-exactly through the delta/varint
        /// frame encoder and back off disk.
        #[test]
        fn random_logs_roundtrip_value_exactly(
            stream in proptest::collection::vec((any::<u64>(), 1u64..u64::MAX >> 20), 1..400),
            batch_size in 1usize..64,
        ) {
            let dir = scratch("roundtrip");
            let batches: Vec<Vec<(u64, u64)>> =
                stream.chunks(batch_size).map(<[(u64, u64)]>::to_vec).collect();
            let (records, _) = write_log(&dir, &batches);
            prop_assert_eq!(records.len(), batches.len());
            for (record, batch) in records.iter().zip(&batches) {
                prop_assert_eq!(&record.batch, batch);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
