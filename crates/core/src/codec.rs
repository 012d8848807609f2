//! The byte form of a sketch engine, plus the purge-policy wire helpers
//! every streamfreq container format shares.
//!
//! Mergeable summaries matter because they move between machines (§3's
//! motivating scenarios: per-hour summaries at query time, partitioned
//! processing, geo-distributed aggregation). That requires one stable
//! wire format, and streamfreq has exactly one: every whole-engine byte
//! form — [`FreqSketch`] and [`crate::ItemsSketch`] files, cluster `SNAP`
//! payloads ([`crate::cluster::wire`]), and the apps crate's windowed
//! buckets — is the SFCK checkpoint encoding of
//! [`crate::persist::checkpoint`], written with epoch 0.
//!
//! That encoding is:
//!
//! * **CRC-covered** — a trailing CRC-32C over every byte, so any bit
//!   flip or truncation is an error before a single field is trusted;
//! * **slot-exact** — counters travel as `(slot, item, count)` triples
//!   and are restored verbatim, so a decoded engine is
//!   fingerprint-identical to the original down to its table layout,
//!   and *continuing to update it produces bit-identical results* (the
//!   purge-sampler state travels along too);
//! * **content-sized** — only assigned counters are stored, so an
//!   underfilled sketch of capacity 24 576 costs a few hundred bytes on
//!   the wire, not 576 KiB.
//!
//! Decoding treats its input as untrusted apart from the table size: the
//! header's `max_counters` sizes the table directly, so callers reading
//! bytes from a peer cap it first (see
//! [`crate::cluster::wire::MAX_SNAPSHOT_COUNTERS`]).

use crate::engine::{SketchEngine, SketchKey};
use crate::error::Error;
use crate::item_codec::ItemCodec;
use crate::persist::checkpoint::{decode_checkpoint, encode_checkpoint};
use crate::purge::PurgePolicy;
use crate::sketch::FreqSketch;

/// Wire tag of a [`PurgePolicy`] (shared by every streamfreq encoding:
/// the engine byte form, the durable store's metadata files, and
/// downstream container formats such as the apps crate's windowed
/// bucket store).
pub fn policy_tag(policy: &PurgePolicy) -> u8 {
    match policy {
        PurgePolicy::SampleQuantile { .. } => 0,
        PurgePolicy::ExactKStar { .. } => 1,
        PurgePolicy::GlobalMin => 2,
    }
}

/// The two wire parameter words accompanying a policy tag — see
/// [`policy_tag`]; the meaning of each word depends on the variant.
pub fn policy_params(policy: &PurgePolicy) -> (u64, u64) {
    match *policy {
        PurgePolicy::SampleQuantile {
            sample_size,
            quantile,
        } => (sample_size as u64, quantile.to_bits()),
        PurgePolicy::ExactKStar { fraction } => (fraction.to_bits(), 0),
        PurgePolicy::GlobalMin => (0, 0),
    }
}

/// Reconstructs a validated [`PurgePolicy`] from its wire tag and
/// parameter words (inverse of [`policy_tag`] / [`policy_params`]).
///
/// # Errors
/// Returns [`Error::Corrupt`] for unknown tags or invalid parameters.
pub fn policy_from_wire(tag: u8, a: u64, b: u64) -> Result<PurgePolicy, Error> {
    let policy = match tag {
        0 => PurgePolicy::SampleQuantile {
            sample_size: usize::try_from(a)
                .map_err(|_| Error::Corrupt("sample_size exceeds usize".into()))?,
            quantile: f64::from_bits(b),
        },
        1 => PurgePolicy::ExactKStar {
            fraction: f64::from_bits(a),
        },
        2 => PurgePolicy::GlobalMin,
        other => return Err(Error::Corrupt(format!("unknown policy tag {other}"))),
    };
    policy.validate().map_err(Error::Corrupt)?;
    Ok(policy)
}

impl<K: SketchKey + ItemCodec> SketchEngine<K> {
    /// Serializes the engine into its byte form (an epoch-0 checkpoint;
    /// see the [module docs](self)).
    pub fn serialize_to_bytes(&self) -> Vec<u8> {
        encode_checkpoint(self, 0)
    }

    /// Reconstructs an engine serialized by [`Self::serialize_to_bytes`]
    /// (or any checkpoint of the same key type, whatever its epoch).
    ///
    /// # Errors
    /// Returns [`Error::Corrupt`], [`Error::UnsupportedVersion`] or
    /// [`Error::Truncated`] for malformed input: a checksum mismatch,
    /// another format's magic, a key-type mismatch, impossible field
    /// values, or a counter layout that breaks the table's invariants.
    pub fn deserialize_from_bytes(bytes: &[u8]) -> Result<Self, Error> {
        decode_checkpoint(bytes).map(|(engine, _epoch)| engine)
    }
}

impl FreqSketch {
    /// Serializes the sketch into its byte form (see the
    /// [module docs](self)).
    pub fn serialize_to_bytes(&self) -> Vec<u8> {
        self.engine.serialize_to_bytes()
    }

    /// Reconstructs a sketch serialized by [`Self::serialize_to_bytes`].
    ///
    /// # Errors
    /// As [`SketchEngine::deserialize_from_bytes`].
    pub fn deserialize_from_bytes(bytes: &[u8]) -> Result<FreqSketch, Error> {
        SketchEngine::deserialize_from_bytes(bytes).map(FreqSketch::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::crc32c;
    use crate::result::ErrorType;

    /// Header length of a `u64`-keyed engine's bytes: magic, version,
    /// flags, reserved (8) | epoch (8) | key-type label `"u64"` (2 + 3) |
    /// `max_counters` (8) | policy (1 + 16) | seed (8) | `lg_cur` (4) |
    /// offset, stream weight, updates, purges (32) | sampler (32) |
    /// `num_active` (4).
    const HEADER_LEN: usize = 126;
    /// Policy tag offset (after the `max_counters` word).
    const POLICY_TAG_AT: usize = 29;
    /// The four sampler-state words.
    const SAMPLER: std::ops::Range<usize> = 90..122;
    /// One counter entry: slot `u32`, item `u64`, count `u64`.
    const ENTRY_LEN: usize = 20;

    fn loaded_sketch() -> FreqSketch {
        let mut s = FreqSketch::builder(128)
            .policy(PurgePolicy::smed())
            .seed(777)
            .build()
            .unwrap();
        for i in 0..50_000u64 {
            s.update(i % 999, i % 17 + 1);
        }
        s
    }

    /// A one-counter sketch: its last entry's count sits just before the
    /// CRC trailer.
    fn one_counter_sketch() -> FreqSketch {
        let mut s = FreqSketch::with_max_counters(8);
        s.update(1, 5);
        s
    }

    /// Replaces the CRC trailer so a crafted edit reaches the field
    /// checks instead of failing the checksum.
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        bytes.truncate(bytes.len() - 4);
        let crc = crc32c(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Overwrites the last counter's count (then reseals).
    fn with_last_count(bytes: Vec<u8>, count: u64) -> Vec<u8> {
        let mut bytes = bytes;
        let n = bytes.len();
        bytes[n - 12..n - 4].copy_from_slice(&count.to_le_bytes());
        reseal(bytes)
    }

    #[test]
    fn roundtrip_preserves_all_queries() {
        let s = loaded_sketch();
        let bytes = s.serialize_to_bytes();
        let d = FreqSketch::deserialize_from_bytes(&bytes).unwrap();
        assert_eq!(d.stream_weight(), s.stream_weight());
        assert_eq!(d.num_updates(), s.num_updates());
        assert_eq!(d.num_purges(), s.num_purges());
        assert_eq!(d.maximum_error(), s.maximum_error());
        assert_eq!(d.num_counters(), s.num_counters());
        assert_eq!(d.max_counters(), s.max_counters());
        assert_eq!(d.seed(), s.seed());
        assert_eq!(
            d.engine().table_layout_fingerprint(),
            s.engine().table_layout_fingerprint()
        );
        for item in 0..999u64 {
            assert_eq!(d.estimate(item), s.estimate(item), "item {item}");
            assert_eq!(d.lower_bound(item), s.lower_bound(item));
            assert_eq!(d.upper_bound(item), s.upper_bound(item));
        }
        assert_eq!(
            d.frequent_items(ErrorType::NoFalseNegatives),
            s.frequent_items(ErrorType::NoFalseNegatives)
        );
    }

    #[test]
    fn roundtrip_then_update_is_bit_identical() {
        // The sampler state and the slot layout travel with the sketch,
        // so future purges make identical decisions.
        let mut original = loaded_sketch();
        let bytes = original.serialize_to_bytes();
        let mut restored = FreqSketch::deserialize_from_bytes(&bytes).unwrap();
        for i in 0..50_000u64 {
            original.update(i % 1733, 5);
            restored.update(i % 1733, 5);
        }
        assert_eq!(original.serialize_to_bytes(), restored.serialize_to_bytes());
    }

    #[test]
    fn empty_sketch_roundtrip() {
        let s = FreqSketch::with_max_counters(64);
        let bytes = s.serialize_to_bytes();
        assert_eq!(bytes.len(), HEADER_LEN + 4, "empty sketch is header + CRC");
        let d = FreqSketch::deserialize_from_bytes(&bytes).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.max_counters(), 64);
    }

    #[test]
    fn policies_roundtrip() {
        for policy in [
            PurgePolicy::smed(),
            PurgePolicy::smin(),
            PurgePolicy::sample_quantile(0.73),
            PurgePolicy::med(),
            PurgePolicy::ExactKStar { fraction: 0.25 },
            PurgePolicy::GlobalMin,
        ] {
            let s = FreqSketch::builder(32).policy(policy).build().unwrap();
            let d = FreqSketch::deserialize_from_bytes(&s.serialize_to_bytes()).unwrap();
            assert_eq!(d.policy(), policy);
        }
    }

    #[test]
    fn engine_and_sketch_wire_bytes_are_identical() {
        // A ShardedSketch shard (a bare engine) and a FreqSketch with the
        // same state must produce the same bytes: the codec lives on the
        // engine, the wrapper adds nothing.
        let s = loaded_sketch();
        assert_eq!(s.serialize_to_bytes(), s.engine().serialize_to_bytes());
    }

    #[test]
    fn saturated_offset_flag_roundtrips() {
        let mut a = FreqSketch::with_max_counters(16);
        a.update(1, 5);
        let mut b = FreqSketch::with_max_counters(16);
        b.engine.offset = u64::MAX - 1;
        a.merge(&b);
        a.merge(&b);
        assert!(a.engine().maximum_error_saturated());
        let d = FreqSketch::deserialize_from_bytes(&a.serialize_to_bytes()).unwrap();
        assert!(d.engine().maximum_error_saturated());
        assert_eq!(d.maximum_error(), u64::MAX);
        assert_eq!(
            d.engine().state_fingerprint(),
            a.engine().state_fingerprint()
        );
    }

    #[test]
    fn rejects_reserved_flag_bits() {
        let mut bytes = loaded_sketch().serialize_to_bytes();
        bytes[5] = 4; // flags byte; bit 2 is reserved
        assert!(matches!(
            FreqSketch::deserialize_from_bytes(&reseal(bytes)),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_bad_magic() {
        // Another format's magic is refused even with an intact
        // checksum.
        for magic in [b"SFMF", b"XFCK"] {
            let mut bytes = loaded_sketch().serialize_to_bytes();
            bytes[..4].copy_from_slice(magic);
            assert!(matches!(
                FreqSketch::deserialize_from_bytes(&reseal(bytes)),
                Err(Error::Corrupt(_))
            ));
        }
    }

    #[test]
    fn rejects_unknown_version() {
        let mut bytes = loaded_sketch().serialize_to_bytes();
        bytes[4] = 9;
        assert!(matches!(
            FreqSketch::deserialize_from_bytes(&reseal(bytes)),
            Err(Error::UnsupportedVersion(9))
        ));
    }

    #[test]
    fn rejects_truncation_at_every_prefix_length() {
        let bytes = loaded_sketch().serialize_to_bytes();
        for cut in 0..bytes.len() {
            let err = FreqSketch::deserialize_from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes accepted");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let bytes = loaded_sketch().serialize_to_bytes();
        let mut appended = bytes.clone();
        appended.push(0);
        assert!(FreqSketch::deserialize_from_bytes(&appended).is_err());
        // Garbage inside the checksummed body is caught by the framing.
        let mut inside = bytes;
        inside.insert(inside.len() - 4, 0);
        assert!(matches!(
            FreqSketch::deserialize_from_bytes(&reseal(inside)),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_zero_counter_value() {
        let bytes = with_last_count(one_counter_sketch().serialize_to_bytes(), 0);
        assert!(matches!(
            FreqSketch::deserialize_from_bytes(&bytes),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_counter_value_beyond_i64() {
        // A wire count past i64::MAX must surface as a decode error, not
        // a negative counter smuggled into the table.
        let bytes = with_last_count(one_counter_sketch().serialize_to_bytes(), u64::MAX);
        assert!(matches!(
            FreqSketch::deserialize_from_bytes(&bytes),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_counter_mass_exceeding_stream_weight() {
        // With a valid checksum every field decodes individually; the
        // whole-engine audit at the end of decode is what catches the
        // mass-conservation violation (counter total above the recorded
        // stream weight).
        let bytes = with_last_count(one_counter_sketch().serialize_to_bytes(), 1_000_000);
        assert!(matches!(
            FreqSketch::deserialize_from_bytes(&bytes),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_all_zero_sampler_state() {
        // `Xoshiro256StarStar::from_state` asserts on this; hostile bytes
        // must surface as a decode error, not a panic.
        let mut bytes = loaded_sketch().serialize_to_bytes();
        bytes[SAMPLER].fill(0);
        assert!(matches!(
            FreqSketch::deserialize_from_bytes(&reseal(bytes)),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_bad_policy_tag() {
        let mut bytes = loaded_sketch().serialize_to_bytes();
        bytes[POLICY_TAG_AT] = 42;
        assert!(matches!(
            FreqSketch::deserialize_from_bytes(&reseal(bytes)),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn wire_size_tracks_content_not_capacity() {
        let mut s = FreqSketch::with_max_counters(24_576);
        for i in 0..10u64 {
            s.update(i, 1);
        }
        let bytes = s.serialize_to_bytes();
        assert_eq!(bytes.len(), HEADER_LEN + 10 * ENTRY_LEN + 4);
    }
}
