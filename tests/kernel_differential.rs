//! Differential proptests pinning the batched ingest path to the
//! scalar reference path, state for state.
//!
//! `update_batch` runs every headroom-bounded chunk through one
//! prefetched sequential sweep (`LpTable::adjust_or_insert_batch_weighted`):
//! homes are precomputed and slots prefetched ahead of the cursor, but
//! the pairs are applied in order through the scalar probe loop. That is
//! an optimization, not a semantic change: for every update sequence the
//! engine must end in **exactly** the state the one-update-at-a-time
//! scalar path produces — same table layout slot by slot, same sampler
//! state, same purge clock. That contract is what `state_fingerprint()`
//! hashes, so each test here feeds the same stream both ways and
//! compares fingerprints.
//!
//! Batch *shapes* are adversarial by construction:
//! - **all-distinct** keys make every pair an insert;
//! - **all-duplicate** batches hammer one counter;
//! - **clustered** keys (a tiny id range) pile many probes onto few
//!   home slots, making long probe runs;
//! - small `k` forces purges mid-batch; `grow_from_small` (the builder
//!   default) forces table growth mid-batch.
//!
//! The sweep also has two early stops, each pinned below: a weight above
//! `i64::MAX` (the batch must panic exactly where and how the scalar loop
//! does) and, under lazy decay, a weight the pending scale cannot inflate
//! (the engine settles the decay and resumes).

use proptest::prelude::*;

use streamfreq::apps::DecayedSketch;
use streamfreq::{FreqSketch, PurgePolicy};

/// Batch shapes that stress the sweep differently. `Mixed` is the
/// honest middle: Zipf-ish duplication.
#[derive(Clone, Copy, Debug)]
enum Shape {
    AllDistinct,
    AllDuplicate,
    Clustered,
    Mixed,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::AllDistinct),
        Just(Shape::AllDuplicate),
        Just(Shape::Clustered),
        Just(Shape::Mixed),
    ]
}

/// Materializes a stream of the given shape from proptest-drawn raw
/// material. Weights stay small so purge pressure comes from counter
/// occupancy, not stream weight.
fn build_stream(shape: Shape, raw: &[(u64, u64)], salt: u64) -> Vec<(u64, u64)> {
    match shape {
        // Distinct keys spread over the full hash range: no in-batch
        // duplication, every pair an insert.
        Shape::AllDistinct => raw
            .iter()
            .enumerate()
            .map(|(i, &(_, w))| (salt.wrapping_add(i as u64), w.clamp(1, 16)))
            .collect(),
        // One hot key: every pair after the first adds to one counter.
        Shape::AllDuplicate => raw.iter().map(|&(_, w)| (salt, w.clamp(1, 16))).collect(),
        // Keys from a range of 8 ids: probe chains stack on a handful
        // of home slots.
        Shape::Clustered => raw
            .iter()
            .map(|&(id, w)| (salt.wrapping_add(id % 8), w.clamp(1, 16)))
            .collect(),
        Shape::Mixed => raw
            .iter()
            .map(|&(id, w)| (salt.wrapping_add(id % 64), w.clamp(1, 16)))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batch vs scalar across purge and grow: for every shape, split,
    /// and policy, `update_batch` is fingerprint-identical to `update`.
    #[test]
    fn kernel_batch_matches_scalar(
        raw in proptest::collection::vec((0u64..256, 1u64..16), 1..1_500),
        shape in arb_shape(),
        k in 8usize..96,
        split in 1usize..400,
        salt in any::<u64>(),
        policy in prop_oneof![
            Just(PurgePolicy::smed()),
            Just(PurgePolicy::smin()),
            Just(PurgePolicy::GlobalMin),
        ],
    ) {
        let stream = build_stream(shape, &raw, salt);
        let mut scalar = FreqSketch::builder(k).policy(policy).build().unwrap();
        for &(item, w) in &stream {
            scalar.update(item, w);
        }
        let mut batched = FreqSketch::builder(k).policy(policy).build().unwrap();
        for chunk in stream.chunks(split) {
            batched.update_batch(chunk);
        }
        prop_assert_eq!(batched.num_purges(), scalar.num_purges());
        prop_assert_eq!(
            batched.engine().state_fingerprint(),
            scalar.engine().state_fingerprint(),
            "shape {:?}", shape
        );
    }

    /// A long all-distinct run (every pair an insert, many purges) and
    /// then a trailing hot-key burst, in one `update_batch` call: the
    /// state must match the scalar path exactly across the change of
    /// stream shape.
    #[test]
    fn bypass_kernel_matches_scalar(
        n in 9_000usize..14_000,
        k in 256usize..1024,
        salt in any::<u64>(),
        burst in 512usize..2_048,
    ) {
        let mut stream: Vec<(u64, u64)> = (0..n)
            .map(|i| (salt.wrapping_add(i as u64), 1))
            .collect();
        stream.extend((0..burst).map(|i| (salt.wrapping_add((i % 16) as u64), 2)));
        let mut scalar = FreqSketch::builder(k).build().unwrap();
        for &(item, w) in &stream {
            scalar.update(item, w);
        }
        let mut batched = FreqSketch::builder(k).build().unwrap();
        batched.update_batch(&stream);
        prop_assert_eq!(
            batched.engine().state_fingerprint(),
            scalar.engine().state_fingerprint()
        );
    }

    /// Lazy decay vs eager decay: deferring the per-epoch scale to a
    /// forward-inflated ingest must not change a single answer. The two
    /// sketches see identical (timestamp, item, weight) sequences with
    /// decay materialization forced at arbitrary points, and every
    /// estimate, bound, and the decayed stream weight must agree.
    #[test]
    fn lazy_decay_matches_eager(
        ops in proptest::collection::vec(
            (0u64..40, 1u64..200, 0u8..12),
            1..600,
        ),
        k in 8usize..64,
        den in 2u64..10,
    ) {
        // 1/den factors are the ones the lazy path actually defers
        // (other shapes silently keep eager scaling, which would make
        // this test vacuous).
        let mut eager: DecayedSketch<u64> = DecayedSketch::new(k, 4, (1, den));
        let mut lazy: DecayedSketch<u64> = DecayedSketch::new(k, 4, (1, den)).lazy();
        prop_assert!(lazy.is_lazy());
        let mut now = 0u64;
        for (i, &(item, w, dt)) in ops.iter().enumerate() {
            now += dt as u64;
            eager.record(now, item, w);
            lazy.record(now, item, w);
            if i % 97 == 96 {
                // Forced materialization mid-stream must be a no-op
                // semantically.
                lazy.materialize();
            }
        }
        prop_assert_eq!(lazy.num_ticks(), eager.num_ticks());
        prop_assert_eq!(lazy.decayed_weight(), eager.decayed_weight());
        prop_assert_eq!(lazy.maximum_error(), eager.maximum_error());
        for item in 0..40u64 {
            prop_assert_eq!(lazy.estimate(&item), eager.estimate(&item), "item {}", item);
            prop_assert_eq!(lazy.lower_bound(&item), eager.lower_bound(&item));
            prop_assert_eq!(lazy.upper_bound(&item), eager.upper_bound(&item));
        }
        lazy.check_invariants();
        eager.check_invariants();
    }
}

/// A deterministic heavyweight batch-vs-scalar case kept outside
/// proptest: 400k updates through `k = 4096`, with a phase change from
/// all-distinct keys to heavy duplication in the middle. It covers many
/// purge-bounded chunks at a fixed cost, beyond what the smaller random
/// cases reach.
#[test]
fn bypass_reprobe_boundary_matches_scalar() {
    let mut stream: Vec<(u64, u64)> = Vec::new();
    // Phase 1: 300k distinct keys — every pair an insert, purging
    // every few thousand updates.
    stream.extend((0..300_000u64).map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), 1)));
    // Phase 2: heavy duplication — mostly counter adds.
    stream.extend((0..100_000u64).map(|i| (i % 512, 3)));
    let k = 4_096;
    let mut scalar = FreqSketch::builder(k).build().unwrap();
    for &(item, w) in &stream {
        scalar.update(item, w);
    }
    let mut batched = FreqSketch::builder(k).build().unwrap();
    batched.update_batch(&stream);
    assert_eq!(batched.num_purges(), scalar.num_purges());
    assert_eq!(
        batched.engine().state_fingerprint(),
        scalar.engine().state_fingerprint()
    );
}

/// The message of a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload
            .downcast::<&str>()
            .map(|s| s.to_string())
            .unwrap_or_default(),
    }
}

/// First early stop of the sweep: a weight above `i64::MAX` partway
/// through a batch. The batch must panic with the scalar path's message
/// at the same pair, leaving the state the scalar loop leaves — every
/// earlier pair applied and counted in `N`, nothing after. Covered both
/// with the bad pair inside one sweep (large `k`) and after purges
/// (small `k`).
#[test]
fn oversized_weight_panics_like_scalar() {
    let bad = i64::MAX as u64 + 1;
    for k in [16usize, 4_096] {
        for at in [0usize, 1, 127, 128, 300] {
            let mut stream: Vec<(u64, u64)> = (0..400u64)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 700, i % 5 + 1))
                .collect();
            stream[at].1 = bad;
            let mut scalar = FreqSketch::builder(k).build().unwrap();
            let scalar_err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for &(item, w) in &stream {
                    scalar.update(item, w);
                }
            }))
            .expect_err("scalar path must panic on an oversized weight");
            let mut batched = FreqSketch::builder(k).build().unwrap();
            let batch_err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                batched.update_batch(&stream);
            }))
            .expect_err("batch path must panic on an oversized weight");
            let message = panic_message(batch_err);
            assert_eq!(message, panic_message(scalar_err), "k {k}, at {at}");
            assert_eq!(
                message,
                format!("update weight {bad} exceeds supported range")
            );
            assert_eq!(batched.num_updates(), at as u64, "k {k}, at {at}");
            assert_eq!(batched.stream_weight(), scalar.stream_weight());
            assert_eq!(
                batched.engine().state_fingerprint(),
                scalar.engine().state_fingerprint(),
                "k {k}, at {at}"
            );
        }
    }
}

/// Second early stop: under lazy decay, counters are stored inflated by
/// the pending scale `2^p`, so a weight of 2^40 cannot join at `p = 24`
/// (2^40 · 2^24 overflows `i64`). The sweep stops before it, the engine
/// settles the pending decay, applies the pair at scale 1 and resumes.
/// The lazy batch must match the lazy scalar path fingerprint for
/// fingerprint, and the eager sketch answer for answer.
#[test]
fn uninflatable_weight_under_lazy_decay_settles_and_matches() {
    let epoch_len = 10u64;
    let early: Vec<(u64, u64)> = (0..40u64).map(|i| (i, 1 << 36)).collect();
    let mut late: Vec<(u64, u64)> = (0..60u64).map(|i| (i % 50, i + 1)).collect();
    late.insert(30, (7, 1 << 40));
    let late_t = 24 * epoch_len;

    let mut eager: DecayedSketch<u64> = DecayedSketch::new(64, epoch_len, (1, 2));
    let mut lazy_scalar: DecayedSketch<u64> = DecayedSketch::new(64, epoch_len, (1, 2)).lazy();
    let mut lazy_batch: DecayedSketch<u64> = DecayedSketch::new(64, epoch_len, (1, 2)).lazy();
    for &(item, w) in &early {
        eager.record(0, item, w);
        lazy_scalar.record(0, item, w);
    }
    lazy_batch.record_batch(0, &early);

    lazy_batch.advance_to(late_t);
    let pow = lazy_batch.engine().pending_decay_pow();
    assert_eq!(pow, 1 << 24, "ticks must still be pending");
    assert!(
        (1u64 << 40) > i64::MAX as u64 / pow,
        "the heavy weight must not be inflatable at the pending scale"
    );
    lazy_batch.record_batch(late_t, &late);
    assert_eq!(
        lazy_batch.engine().pending_decay_pow(),
        1,
        "the batch must have settled the pending decay"
    );
    for &(item, w) in &late {
        eager.record(late_t, item, w);
        lazy_scalar.record(late_t, item, w);
    }

    assert_eq!(
        lazy_batch.engine().state_fingerprint(),
        lazy_scalar.engine().state_fingerprint()
    );
    assert_eq!(lazy_batch.num_ticks(), eager.num_ticks());
    assert_eq!(lazy_batch.decayed_weight(), eager.decayed_weight());
    assert_eq!(lazy_batch.maximum_error(), eager.maximum_error());
    for item in 0..60u64 {
        assert_eq!(
            lazy_batch.estimate(&item),
            eager.estimate(&item),
            "item {item}"
        );
        assert_eq!(lazy_batch.lower_bound(&item), eager.lower_bound(&item));
        assert_eq!(lazy_batch.upper_bound(&item), eager.upper_bound(&item));
    }
    lazy_batch.check_invariants();
}
