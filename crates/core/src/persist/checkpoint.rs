//! Atomic, slot-exact engine checkpoints — and the one byte form of
//! every sketch engine.
//!
//! A checkpoint is one self-validating file carrying the *complete*
//! engine state: configuration, bookkeeping (offset, stream weight,
//! operation counts, saturation flags), the purge-sampler state, and the
//! counter table **slot for slot**. The whole file is covered by a
//! trailing CRC-32C, so any truncation or bit flip is detected before a
//! single field is trusted. The same bytes with epoch 0 are what
//! [`crate::codec`]'s `serialize_to_bytes` produces for sketch files,
//! cluster `SNAP` payloads and window buckets.
//!
//! ## Why slot-exact?
//!
//! Rebuilding a table by re-inserting counters through the normal probe
//! path is operationally sound but not layout-preserving: a probe
//! cluster that wrapped around the end of the table re-inserts at its
//! unwrapped home slots. Layout feeds the purge
//! sampler (values are sampled by slot position), so a refeed-rebuilt
//! engine can purge differently from the original — fatal for the
//! recovery contract that `checkpoint ⊕ replay` equals an uninterrupted
//! run *fingerprint-identically*. Checkpoints therefore record `(slot,
//! item, count)` triples and restore them verbatim
//! ([`crate::table::LpTable`]'s `restore_slot`), then re-validate the
//! probing invariants so hostile bytes cannot smuggle in an unreachable
//! counter.
//!
//! ## Layout (version 1, little-endian)
//!
//! ```text
//! magic "SFCK" | version u8 | flags u8 | reserved u16
//! epoch u64
//! key-type label (u16 len + UTF-8)
//! max_counters u64 | policy (tag u8, a u64, b u64) | seed u64 | lg_cur u32
//! offset u64 | stream_weight u64 | num_updates u64 | num_purges u64
//! sampler state u64 × 4
//! num_active u32 | num_active × (slot u32, item ItemCodec, count u64)
//! crc32c u32            (over every preceding byte)
//! ```
//!
//! Files are published with temp-file + rename + directory fsync
//! ([`write_checkpoint`]), so a crash mid-write leaves the previous
//! checkpoint untouched.

use std::path::Path;

use crate::engine::{SketchEngine, SketchEngineBuilder, SketchKey};
use crate::error::Error;
use crate::item_codec::ItemCodec;
use crate::purge::PurgePolicy;
use crate::rng::Xoshiro256StarStar;
use crate::table::LpTable;

use super::{crc32c, PersistError};

const MAGIC: &[u8; 4] = b"SFCK";
const VERSION: u8 = 1;

/// Metadata of a checkpoint file, decodable without knowing the key type
/// (everything up to the counter entries is fixed-layout). Backs the
/// `streamfreq info` command.
#[derive(Clone, Debug)]
pub struct CheckpointInfo {
    /// Checkpoint epoch (the store's checkpoint counter at write time).
    pub epoch: u64,
    /// The Rust key type the counters are encoded with.
    pub key_type: String,
    /// Maximum assigned counters (the paper's `k`).
    pub max_counters: u64,
    /// Purge policy.
    pub policy: PurgePolicy,
    /// Purge-sampler seed.
    pub seed: u64,
    /// Cumulative purge decrement (the maximum estimation error).
    pub offset: u64,
    /// Total weighted stream length `N` covered.
    pub stream_weight: u64,
    /// Update operations processed.
    pub num_updates: u64,
    /// Purge operations performed.
    pub num_purges: u64,
    /// Counters assigned at checkpoint time.
    pub num_counters: u64,
    /// True if the stream weight saturated at `u64::MAX`.
    pub weight_saturated: bool,
    /// True if the error offset saturated at `u64::MAX`.
    pub offset_saturated: bool,
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], Error> {
    if buf.len() < n {
        return Err(Error::Truncated {
            needed: n - buf.len(),
            remaining: buf.len(),
        });
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

/// Serializes `engine` into a checkpoint byte vector tagged with `epoch`.
pub fn encode_checkpoint<K: SketchKey + ItemCodec>(
    engine: &SketchEngine<K>,
    epoch: u64,
) -> Vec<u8> {
    let num_active = engine.table.num_active();
    let mut out = Vec::with_capacity(128 + 16 * num_active);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.push(u8::from(engine.weight_saturated) | u8::from(engine.offset_saturated) << 1);
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    let label = std::any::type_name::<K>().as_bytes();
    out.extend_from_slice(&(label.len() as u16).to_le_bytes());
    out.extend_from_slice(label);
    out.extend_from_slice(&(engine.max_counters as u64).to_le_bytes());
    out.push(crate::codec::policy_tag(&engine.policy));
    let (a, b) = crate::codec::policy_params(&engine.policy);
    out.extend_from_slice(&a.to_le_bytes());
    out.extend_from_slice(&b.to_le_bytes());
    out.extend_from_slice(&engine.seed.to_le_bytes());
    out.extend_from_slice(&engine.lg_cur.to_le_bytes());
    out.extend_from_slice(&engine.offset.to_le_bytes());
    out.extend_from_slice(&engine.stream_weight.to_le_bytes());
    out.extend_from_slice(&engine.num_updates.to_le_bytes());
    out.extend_from_slice(&engine.num_purges.to_le_bytes());
    for word in engine.rng.state() {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.extend_from_slice(&(num_active as u32).to_le_bytes());
    for (slot, key, value) in engine.table.iter_with_slots() {
        out.extend_from_slice(&(slot as u32).to_le_bytes());
        key.encode(&mut out);
        out.extend_from_slice(&(value as u64).to_le_bytes());
    }
    let crc = crc32c(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Parses the fixed-layout prefix shared by [`checkpoint_info`] and
/// [`decode_checkpoint`]; returns the info plus the cursor positioned at
/// the counter entries and the decoded sampler state / `lg_cur`.
#[allow(clippy::type_complexity)]
fn decode_header(body: &[u8]) -> Result<(CheckpointInfo, u32, [u64; 4], &[u8]), Error> {
    let mut buf = body;
    let magic = take(&mut buf, 4)?;
    if magic != MAGIC {
        return Err(Error::Corrupt(format!("bad checkpoint magic {magic:02x?}")));
    }
    let version = u8::decode(&mut buf)?;
    if version != VERSION {
        return Err(Error::UnsupportedVersion(version));
    }
    let flags = u8::decode(&mut buf)?;
    if flags > 3 {
        return Err(Error::Corrupt("nonzero reserved flag bits".into()));
    }
    let reserved = u16::decode(&mut buf)?;
    if reserved != 0 {
        return Err(Error::Corrupt("nonzero reserved header bytes".into()));
    }
    let epoch = u64::decode(&mut buf)?;
    let label_len = usize::from(u16::decode(&mut buf)?);
    let label = take(&mut buf, label_len)?;
    let key_type = std::str::from_utf8(label)
        .map_err(|_| Error::Corrupt("key-type label is not UTF-8".into()))?
        .to_string();
    let max_counters = u64::decode(&mut buf)?;
    let tag = u8::decode(&mut buf)?;
    let a = u64::decode(&mut buf)?;
    let b = u64::decode(&mut buf)?;
    let policy = crate::codec::policy_from_wire(tag, a, b)?;
    let seed = u64::decode(&mut buf)?;
    let lg_cur = u32::decode(&mut buf)?;
    let offset = u64::decode(&mut buf)?;
    let stream_weight = u64::decode(&mut buf)?;
    let num_updates = u64::decode(&mut buf)?;
    let num_purges = u64::decode(&mut buf)?;
    let mut state = [0u64; 4];
    for word in &mut state {
        *word = u64::decode(&mut buf)?;
    }
    let num_counters = u32::decode(&mut buf)?;
    let info = CheckpointInfo {
        epoch,
        key_type,
        max_counters,
        policy,
        seed,
        offset,
        stream_weight,
        num_updates,
        num_purges,
        num_counters: num_counters as u64,
        weight_saturated: flags & 1 != 0,
        offset_saturated: flags & 2 != 0,
    };
    Ok((info, lg_cur, state, buf))
}

/// Decodes a checkpoint's metadata without needing its key type: the
/// counter entries are not parsed (their byte integrity is still
/// guaranteed by the file CRC).
///
/// # Errors
/// Returns [`Error::Corrupt`] / [`Error::Truncated`] /
/// [`Error::UnsupportedVersion`] for malformed bytes.
pub fn checkpoint_info(bytes: &[u8]) -> Result<CheckpointInfo, Error> {
    let body = super::verify_trailing_crc(bytes)?;
    let (info, _, _, _) = decode_header(body)?;
    Ok(info)
}

/// Reconstructs the engine and epoch from checkpoint bytes. The result
/// is state-fingerprint-identical to the engine that was encoded.
///
/// # Errors
/// Returns [`Error`] for any malformed input: checksum mismatch, framing
/// problems, a key-type mismatch, impossible field values, or a counter
/// layout that violates the table's probing invariants.
pub fn decode_checkpoint<K: SketchKey + ItemCodec>(
    bytes: &[u8],
) -> Result<(SketchEngine<K>, u64), Error> {
    let body = super::verify_trailing_crc(bytes)?;
    let (info, lg_cur, rng_state, mut buf) = decode_header(body)?;
    let expected = std::any::type_name::<K>();
    if info.key_type != expected {
        return Err(Error::Corrupt(format!(
            "checkpoint key type is {}, expected {expected}",
            info.key_type
        )));
    }
    let max_counters = usize::try_from(info.max_counters)
        .map_err(|_| Error::Corrupt("max_counters exceeds usize".into()))?;
    let mut engine = SketchEngineBuilder::<K>::new(max_counters)
        .policy(info.policy)
        .seed(info.seed)
        .build()
        .map_err(|e| Error::Corrupt(e.to_string()))?;
    if lg_cur < engine.lg_cur || lg_cur > engine.lg_max {
        return Err(Error::Corrupt(format!(
            "table size 2^{lg_cur} outside the engine's 2^{}..=2^{} range",
            engine.lg_cur, engine.lg_max
        )));
    }
    engine.lg_cur = lg_cur;
    engine.table = LpTable::with_lg_len(lg_cur);
    let num_active = usize::try_from(info.num_counters)
        .map_err(|_| Error::Corrupt("num_counters overflows usize".into()))?;
    // The capacity discipline must hold at the recorded table size, and
    // at least one slot must stay vacant for the probe loops.
    if num_active > engine.capacity_now() || num_active >= engine.table.len() {
        return Err(Error::Corrupt(format!(
            "{num_active} counters exceed capacity at table size 2^{lg_cur}"
        )));
    }
    let mut last_slot: Option<u32> = None;
    for _ in 0..num_active {
        let slot = u32::decode(&mut buf)?;
        if let Some(prev) = last_slot {
            if slot <= prev {
                return Err(Error::Corrupt("counter slots out of order".into()));
            }
        }
        last_slot = Some(slot);
        let item = K::decode(&mut buf)?;
        let count = u64::decode(&mut buf)?;
        if count == 0 {
            return Err(Error::Corrupt("counter value 0 out of range".into()));
        }
        let count = i64::try_from(count)
            .map_err(|_| Error::Corrupt(format!("counter value {count} out of range")))?;
        let slot = usize::try_from(slot)
            .map_err(|_| Error::Corrupt("counter slot overflows usize".into()))?;
        engine
            .table
            .restore_slot(slot, item, count)
            .map_err(Error::Corrupt)?;
    }
    if !buf.is_empty() {
        return Err(Error::Corrupt("trailing bytes after counters".into()));
    }
    engine.table.validate_layout().map_err(Error::Corrupt)?;
    if rng_state == [0; 4] {
        return Err(Error::Corrupt("invalid all-zero sampler state".into()));
    }
    engine.offset = info.offset;
    engine.offset_saturated = info.offset_saturated;
    engine.stream_weight = info.stream_weight;
    engine.weight_saturated = info.weight_saturated;
    engine.num_updates = info.num_updates;
    engine.num_purges = info.num_purges;
    engine.rng = Xoshiro256StarStar::from_state(rng_state);
    // Final gate: whole-engine invariants (capacity discipline, mass
    // conservation) must hold for the restored state; a CRC-valid frame
    // that violates them is corrupt, not panic-worthy.
    engine.audit().map_err(Error::Corrupt)?;
    Ok((engine, info.epoch))
}

/// Writes `engine`'s checkpoint to `path` atomically: the bytes go to a
/// sibling `.tmp` file, are fsynced, renamed over `path`, and the parent
/// directory is fsynced. A crash at any point leaves either the old file
/// or the new one, never a torn mix.
pub fn write_checkpoint<K: SketchKey + ItemCodec>(
    path: &Path,
    engine: &SketchEngine<K>,
    epoch: u64,
) -> Result<(), PersistError> {
    super::atomic_write(path, &encode_checkpoint(engine, epoch))
}

/// Reads and decodes the checkpoint at `path`.
///
/// # Errors
/// A missing file is reported as [`PersistError::Corrupt`] (the caller
/// reached this path through a manifest that promised the file exists);
/// other failures map from [`decode_checkpoint`].
pub fn read_checkpoint<K: SketchKey + ItemCodec>(
    path: &Path,
) -> Result<(SketchEngine<K>, u64), PersistError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(PersistError::corrupt(
                path,
                "manifest references a missing checkpoint file",
            ))
        }
        Err(e) => return Err(PersistError::io(path, e)),
    };
    decode_checkpoint(&bytes).map_err(|e| PersistError::corrupt(path, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An engine loaded enough to have grown, purged, and (at k values
    /// this small) formed wrap-around probe clusters.
    fn loaded_engine(seed: u64) -> SketchEngine<u64> {
        let mut e: SketchEngine<u64> = SketchEngine::builder(96).seed(seed).build().unwrap();
        for i in 0..40_000u64 {
            e.update(i % 700, i % 13 + 1);
        }
        assert!(e.num_purges() > 0);
        e
    }

    #[test]
    fn roundtrip_is_fingerprint_identical() {
        for seed in [1u64, 7, 42, 1234] {
            let original = loaded_engine(seed);
            let bytes = encode_checkpoint(&original, 9);
            let (decoded, epoch) = decode_checkpoint::<u64>(&bytes).unwrap();
            assert_eq!(epoch, 9);
            assert_eq!(
                decoded.state_fingerprint(),
                original.state_fingerprint(),
                "seed {seed}"
            );
            assert_eq!(
                decoded.table_layout_fingerprint(),
                original.table_layout_fingerprint()
            );
            assert_eq!(decoded.seed(), original.seed());
        }
    }

    #[test]
    fn roundtrip_then_identical_future_behaviour() {
        let mut original = loaded_engine(3);
        let (mut decoded, _) = decode_checkpoint::<u64>(&encode_checkpoint(&original, 1)).unwrap();
        for i in 0..30_000u64 {
            original.update(i % 911, 3);
            decoded.update(i % 911, 3);
        }
        assert_eq!(decoded.state_fingerprint(), original.state_fingerprint());
    }

    #[test]
    fn string_keys_roundtrip() {
        let mut e: SketchEngine<String> = SketchEngine::builder(32).build().unwrap();
        for i in 0..5_000u64 {
            e.update(format!("flow-{}", i % 120), i % 5 + 1);
        }
        let (d, _) = decode_checkpoint::<String>(&encode_checkpoint(&e, 2)).unwrap();
        assert_eq!(d.state_fingerprint(), e.state_fingerprint());
    }

    #[test]
    fn empty_engine_roundtrips() {
        let e: SketchEngine<u64> = SketchEngine::builder(64).build().unwrap();
        let (d, epoch) = decode_checkpoint::<u64>(&encode_checkpoint(&e, 0)).unwrap();
        assert_eq!(epoch, 0);
        assert_eq!(d.state_fingerprint(), e.state_fingerprint());
    }

    #[test]
    fn info_reads_metadata_without_key_type() {
        let e = loaded_engine(5);
        let info = checkpoint_info(&encode_checkpoint(&e, 77)).unwrap();
        assert_eq!(info.epoch, 77);
        assert_eq!(info.key_type, "u64");
        assert_eq!(info.max_counters, 96);
        assert_eq!(info.stream_weight, e.stream_weight());
        assert_eq!(info.offset, e.maximum_error());
        assert_eq!(info.num_counters as usize, e.num_counters());
        assert!(!info.weight_saturated && !info.offset_saturated);
    }

    #[test]
    fn saturation_flags_roundtrip() {
        let mut e: SketchEngine<u64> = SketchEngine::builder(16).build().unwrap();
        e.update(1, 5);
        e.offset = u64::MAX;
        e.offset_saturated = true;
        e.stream_weight = u64::MAX;
        e.weight_saturated = true;
        let bytes = encode_checkpoint(&e, 1);
        let info = checkpoint_info(&bytes).unwrap();
        assert!(info.weight_saturated && info.offset_saturated);
        let (d, _) = decode_checkpoint::<u64>(&bytes).unwrap();
        assert!(d.maximum_error_saturated() && d.stream_weight_saturated());
        assert_eq!(d.state_fingerprint(), e.state_fingerprint());
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        // The CRC makes corruption loud: a flipped counter byte cannot
        // decode into a plausible sketch.
        let e = loaded_engine(11);
        let bytes = encode_checkpoint(&e, 4);
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1;
            assert!(
                decode_checkpoint::<u64>(&corrupt).is_err(),
                "flip at byte {i} of {} accepted",
                bytes.len()
            );
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let e = loaded_engine(13);
        let bytes = encode_checkpoint(&e, 4);
        for cut in 0..bytes.len() {
            assert!(
                decode_checkpoint::<u64>(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn crafted_duplicate_key_is_rejected() {
        // A hostile checkpoint with a *valid* CRC that stores the same
        // key (with the same count) in two adjacent slots: restore_slot
        // accepts each slot individually and the probe path is
        // gap-free, so only the duplicate-shadowing check in
        // validate_layout stands between this and an engine that
        // reports the key twice.
        let mut e: SketchEngine<u64> = SketchEngine::builder(16).build().unwrap();
        e.update(42, 7);
        let bytes = encode_checkpoint(&e, 1);
        let n = bytes.len();
        // Layout from the end: [.. num_active u32 | slot u32, key u64,
        // count u64 | crc u32].
        let entry = bytes[n - 24..n - 4].to_vec();
        let slot = u32::from_le_bytes(entry[0..4].try_into().unwrap());
        let mut forged = bytes[..n - 4].to_vec();
        forged[n - 28..n - 24].copy_from_slice(&2u32.to_le_bytes()); // num_active = 2
        forged.extend_from_slice(&(slot + 1).to_le_bytes()); // adjacent slot
        forged.extend_from_slice(&entry[4..]); // same key, same count
        let crc = super::super::crc32c(&forged);
        forged.extend_from_slice(&crc.to_le_bytes());
        let err = decode_checkpoint::<u64>(&forged).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn crafted_mass_violation_is_rejected() {
        // A hostile checkpoint with a valid CRC whose single counter
        // claims more mass than the recorded stream weight. Every field
        // decodes individually; only the whole-engine audit at the end of
        // decode_checkpoint can see the inconsistency.
        let mut e: SketchEngine<u64> = SketchEngine::builder(16).build().unwrap();
        e.update(42, 7);
        let bytes = encode_checkpoint(&e, 1);
        let n = bytes.len();
        // Layout from the end: [.. slot u32, key u64, count u64 | crc u32].
        let mut forged = bytes[..n - 4].to_vec();
        forged[n - 12..n - 4].copy_from_slice(&1_000_000u64.to_le_bytes());
        let crc = super::super::crc32c(&forged);
        forged.extend_from_slice(&crc.to_le_bytes());
        let err = decode_checkpoint::<u64>(&forged).unwrap_err();
        assert!(err.to_string().contains("mass"), "{err}");
    }

    #[test]
    fn key_type_mismatch_is_rejected() {
        let mut e: SketchEngine<u64> = SketchEngine::builder(16).build().unwrap();
        e.update(1, 1);
        let bytes = encode_checkpoint(&e, 1);
        let err = decode_checkpoint::<String>(&bytes).unwrap_err();
        assert!(err.to_string().contains("key type"), "{err}");
    }

    #[test]
    fn atomic_write_and_read_back() {
        let dir = std::env::temp_dir().join("streamfreq-ckpt-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ck");
        let e = loaded_engine(17);
        write_checkpoint(&path, &e, 3).unwrap();
        assert!(
            !path.with_extension("tmp").exists(),
            "tmp file renamed away"
        );
        let (d, epoch) = read_checkpoint::<u64>(&path).unwrap();
        assert_eq!(epoch, 3);
        assert_eq!(d.state_fingerprint(), e.state_fingerprint());
        std::fs::remove_file(&path).unwrap();
        let err = read_checkpoint::<u64>(&path).unwrap_err();
        assert!(err.to_string().contains("missing checkpoint"), "{err}");
    }
}
