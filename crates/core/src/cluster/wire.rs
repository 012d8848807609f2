//! Payload codecs for the cluster extension opcodes of the SFBP binary
//! protocol.
//!
//! The serving loop's binary protocol frames requests and responses as
//! `[len u32le | tag u8 | payload]`; this module defines the *payload*
//! encodings the cluster verbs add, so the server, the ingest-routing
//! client, the merging query tier, and the replication client all agree
//! byte for byte:
//!
//! | opcode | request payload | OK payload |
//! |---|---|---|
//! | `SNAP` | empty | `epoch u64le \| sealed u8 \| engine bytes` ([`crate::codec`]) |
//! | `REPL` | empty | `count u32le`, then per file `path_len u16le \| path \| size u64le` |
//! | `FETCH` | `offset u64le \| path bytes` | file bytes from `offset` (chunk-capped) |
//! | `INGEST` | `count u32le`, then `count ×` (`item u64le`, `weight u64le`) | `applied u64le` |
//!
//! `INGEST` weights are capped at `i64::MAX`, the engine's counter range.
//!
//! Every decoder treats its input as **untrusted**: response payloads
//! cross a socket from a process that may be of a different version,
//! misconfigured, or hostile, and `FETCH`/`INGEST` request payloads
//! arrive at the server from arbitrary clients. Decoders return
//! [`Error::Corrupt`]/[`Error::Truncated`] and never panic; shipped
//! file paths are validated against traversal (`..`, absolute paths)
//! before any filesystem use; counts are bounded so a hostile length
//! cannot request a huge allocation. That includes a `SNAP` engine's
//! capacity, which sizes its counter table: it is checked against
//! [`MAX_SNAPSHOT_COUNTERS`] from the header alone, before any table
//! exists.

use crate::engine::SketchEngine;
use crate::error::Error;
use crate::persist::checkpoint::checkpoint_info;

/// Most files one `REPL` manifest may list.
pub const MAX_SHIP_FILES: u32 = 65_536;

/// Longest store-relative path a manifest entry or `FETCH` may carry.
pub const MAX_SHIP_PATH: usize = 512;

/// Most updates one `INGEST` frame may carry.
pub const MAX_INGEST_BATCH: usize = 65_536;

/// Largest engine capacity (`max_counters`, the paper's `k`) a `SNAP`
/// payload may declare. The capacity sizes the decoded counter table
/// (up to `2^lg` slots with `2^lg ≥ 4k/3`), so it is capped before
/// decoding: 2^20 counters bound a hostile payload to a 2^21-slot table
/// (32 MiB for `u64` keys), well above every node capacity the repo
/// configures (65 536 at most).
pub const MAX_SNAPSHOT_COUNTERS: u64 = 1 << 20;

/// A node's exported snapshot: the published Algorithm-5 merged engine
/// plus the serving metadata a query tier tracks per node.
#[derive(Debug)]
pub struct NodeSnapshot {
    /// Snapshot epoch on the node (monotone per node).
    pub epoch: u64,
    /// Whether the node's ingestion has drained (final snapshot).
    pub sealed: bool,
    /// The node's merged sketch state.
    pub engine: SketchEngine<u64>,
}

/// Splits `n` bytes off the front of `buf`.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], Error> {
    match (buf.get(..n), buf.get(n..)) {
        (Some(head), Some(tail)) => {
            *buf = tail;
            Ok(head)
        }
        _ => Err(Error::Truncated {
            needed: n.saturating_sub(buf.len()),
            remaining: buf.len(),
        }),
    }
}

fn take_u64(buf: &mut &[u8]) -> Result<u64, Error> {
    take(buf, 8)?
        .try_into()
        .map(u64::from_le_bytes)
        .map_err(|_| Error::Corrupt("sized read mismatch".into()))
}

fn take_u32(buf: &mut &[u8]) -> Result<u32, Error> {
    take(buf, 4)?
        .try_into()
        .map(u32::from_le_bytes)
        .map_err(|_| Error::Corrupt("sized read mismatch".into()))
}

fn take_u16(buf: &mut &[u8]) -> Result<u16, Error> {
    take(buf, 2)?
        .try_into()
        .map(u16::from_le_bytes)
        .map_err(|_| Error::Corrupt("sized read mismatch".into()))
}

/// Rejects non-empty trailing bytes after a complete decode.
fn expect_empty(buf: &[u8], what: &str) -> Result<(), Error> {
    if buf.is_empty() {
        Ok(())
    } else {
        Err(Error::Corrupt(format!(
            "{} trailing bytes after {what} payload",
            buf.len()
        )))
    }
}

/// Validates a store-relative shipped-file path: UTF-8, bounded,
/// forward-slash separated, no absolute/parent/self components, and a
/// conservative filename alphabet. The gate between wire bytes and the
/// replica's filesystem.
///
/// # Errors
/// [`Error::Corrupt`] describing the violation.
pub fn validate_rel_path(path: &str) -> Result<(), Error> {
    if path.is_empty() || path.len() > MAX_SHIP_PATH {
        return Err(Error::Corrupt(format!(
            "shipped path length {} outside 1..={MAX_SHIP_PATH}",
            path.len()
        )));
    }
    if path.starts_with('/') {
        return Err(Error::Corrupt(format!("absolute shipped path `{path}`")));
    }
    for component in path.split('/') {
        if component.is_empty() || component == "." || component == ".." {
            return Err(Error::Corrupt(format!(
                "path traversal component in shipped path `{path}`"
            )));
        }
        for ch in component.chars() {
            if !(ch.is_ascii_alphanumeric() || matches!(ch, '.' | '_' | '-')) {
                return Err(Error::Corrupt(format!(
                    "character `{ch}` in shipped path `{path}`"
                )));
            }
        }
    }
    Ok(())
}

/// Encodes a `SNAP` OK payload.
pub fn encode_snapshot(epoch: u64, sealed: bool, engine: &SketchEngine<u64>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&epoch.to_le_bytes());
    out.push(u8::from(sealed));
    out.extend_from_slice(&engine.serialize_to_bytes());
    out
}

/// Decodes a `SNAP` OK payload (untrusted bytes from a fanned-out
/// node). The embedded engine's header is read first, and a capacity
/// above [`MAX_SNAPSHOT_COUNTERS`] is refused before any table is
/// allocated; the engine then goes through the full checksummed,
/// slot-exact decode, layout validation and audit gate included.
///
/// # Errors
/// [`Error::Corrupt`]/[`Error::Truncated`] on malformed bytes or an
/// over-cap capacity.
pub fn decode_snapshot(payload: &[u8]) -> Result<NodeSnapshot, Error> {
    let mut buf = payload;
    let epoch = take_u64(&mut buf)?;
    let sealed = match take(&mut buf, 1)?.first() {
        Some(0) => false,
        Some(1) => true,
        _ => return Err(Error::Corrupt("bad sealed flag in snapshot payload".into())),
    };
    let max_counters = checkpoint_info(buf)?.max_counters;
    if max_counters > MAX_SNAPSHOT_COUNTERS {
        return Err(Error::Corrupt(format!(
            "snapshot capacity {max_counters} exceeds {MAX_SNAPSHOT_COUNTERS}"
        )));
    }
    let engine = SketchEngine::<u64>::deserialize_from_bytes(buf)?;
    Ok(NodeSnapshot {
        epoch,
        sealed,
        engine,
    })
}

/// Encodes a `REPL` OK payload: the shippable-file manifest.
///
/// # Errors
/// [`Error::InvalidConfig`] if an entry violates the path or count
/// bounds the decoder enforces (a server-side bug, not wire damage).
pub fn encode_file_list(entries: &[(String, u64)]) -> Result<Vec<u8>, Error> {
    let entry_count = u32::try_from(entries.len())
        .ok()
        .filter(|&n| n <= MAX_SHIP_FILES)
        .ok_or_else(|| {
            Error::InvalidConfig(format!("{} files exceed manifest cap", entries.len()))
        })?;
    let mut out = Vec::new();
    out.extend_from_slice(&entry_count.to_le_bytes());
    for (path, size) in entries {
        validate_rel_path(path).map_err(|e| Error::InvalidConfig(e.to_string()))?;
        let path_bytes = path.as_bytes();
        let path_tag = u16::try_from(path_bytes.len())
            .map_err(|_| Error::InvalidConfig(format!("path `{path}` too long")))?;
        out.extend_from_slice(&path_tag.to_le_bytes());
        out.extend_from_slice(path_bytes);
        out.extend_from_slice(&size.to_le_bytes());
    }
    Ok(out)
}

/// Decodes a `REPL` OK payload (untrusted bytes from a leader).
///
/// # Errors
/// [`Error::Corrupt`]/[`Error::Truncated`] on malformed bytes, counts
/// beyond [`MAX_SHIP_FILES`], or invalid shipped paths.
pub fn decode_file_list(payload: &[u8]) -> Result<Vec<(String, u64)>, Error> {
    let mut buf = payload;
    let entries = take_u32(&mut buf)?;
    if entries > MAX_SHIP_FILES {
        return Err(Error::Corrupt(format!(
            "manifest lists {entries} files (max {MAX_SHIP_FILES})"
        )));
    }
    let mut out = Vec::new();
    for _ in 0..entries {
        let path_tag = take_u16(&mut buf)?;
        let path_bytes = take(&mut buf, usize::from(path_tag))?;
        let path = core::str::from_utf8(path_bytes)
            .map_err(|_| Error::Corrupt("non-UTF-8 shipped path".into()))?;
        validate_rel_path(path)?;
        let size = take_u64(&mut buf)?;
        out.push((path.to_string(), size));
    }
    expect_empty(buf, "manifest")?;
    Ok(out)
}

/// Encodes a `FETCH` request payload.
pub fn encode_fetch_request(offset: u64, rel_path: &str) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&offset.to_le_bytes());
    out.extend_from_slice(rel_path.as_bytes());
    out
}

/// Decodes a `FETCH` request payload (untrusted bytes from a client —
/// this is the path that will touch the server's store directory).
///
/// # Errors
/// [`Error::Corrupt`]/[`Error::Truncated`] on malformed bytes or a
/// path failing [`validate_rel_path`].
pub fn decode_fetch_request(payload: &[u8]) -> Result<(u64, String), Error> {
    let mut buf = payload;
    let start = take_u64(&mut buf)?;
    let path =
        core::str::from_utf8(buf).map_err(|_| Error::Corrupt("non-UTF-8 fetch path".into()))?;
    validate_rel_path(path)?;
    Ok((start, path.to_string()))
}

/// Encodes an `INGEST` request payload.
///
/// # Panics
/// Panics if the batch exceeds [`MAX_INGEST_BATCH`] — callers chunk
/// before encoding.
pub fn encode_ingest_batch(batch: &[(u64, u64)]) -> Vec<u8> {
    assert!(batch.len() <= MAX_INGEST_BATCH, "ingest batch too large");
    let mut out = Vec::with_capacity(4 + batch.len() * 16);
    out.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    for (item, weight) in batch {
        out.extend_from_slice(&item.to_le_bytes());
        out.extend_from_slice(&weight.to_le_bytes());
    }
    out
}

/// Decodes an `INGEST` request payload (untrusted bytes from a client).
///
/// # Errors
/// [`Error::Corrupt`]/[`Error::Truncated`] on malformed bytes, a
/// count beyond [`MAX_INGEST_BATCH`], or a weight beyond `i64::MAX`
/// (the engine's counter range; applying one would panic the shard
/// worker).
pub fn decode_ingest_batch(payload: &[u8]) -> Result<Vec<(u64, u64)>, Error> {
    let mut buf = payload;
    let updates = take_u32(&mut buf)?;
    if usize::try_from(updates)
        .map(|n| n > MAX_INGEST_BATCH)
        .unwrap_or(true)
    {
        return Err(Error::Corrupt(format!(
            "ingest batch of {updates} updates (max {MAX_INGEST_BATCH})"
        )));
    }
    let mut out = Vec::new();
    for _ in 0..updates {
        let item = take_u64(&mut buf)?;
        let weight = take_u64(&mut buf)?;
        if i64::try_from(weight).is_err() {
            return Err(Error::Corrupt(format!(
                "ingest weight {weight} exceeds i64::MAX"
            )));
        }
        out.push((item, weight));
    }
    expect_empty(buf, "ingest")?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SketchEngineBuilder;

    #[test]
    fn snapshot_roundtrips_and_rejects_damage() {
        let mut engine: SketchEngine<u64> = SketchEngineBuilder::new(32).seed(5).build().unwrap();
        for i in 0..200u64 {
            engine.update(i % 17, i + 1);
        }
        let payload = encode_snapshot(9, true, &engine);
        let snap = decode_snapshot(&payload).unwrap();
        assert_eq!(snap.epoch, 9);
        assert!(snap.sealed);
        assert_eq!(
            snap.engine.state_fingerprint(),
            engine.state_fingerprint(),
            "decoded engine must be operationally identical"
        );
        assert_eq!(
            snap.engine.table_layout_fingerprint(),
            engine.table_layout_fingerprint(),
            "decoded engine must keep the slot layout"
        );
        assert!(decode_snapshot(&payload[..7]).is_err(), "truncated header");
        let mut bad_flag = payload.clone();
        bad_flag[8] = 7;
        assert!(decode_snapshot(&bad_flag).is_err(), "bad sealed flag");
        // Every byte of the engine encoding is checksummed: no
        // single-byte change decodes into a different sketch. (The epoch
        // and sealed flag ahead of it are frame fields.)
        for at in 9..payload.len() {
            let mut bad_engine = payload.clone();
            bad_engine[at] ^= 0xFF;
            assert!(decode_snapshot(&bad_engine).is_err(), "flip at byte {at}");
        }
        // A CRC-valid 130-byte engine encoding claiming a capacity of
        // 100 663 295 counters at table size 2^27: decoding it would
        // allocate and scan a 2 GiB table. The header check refuses it
        // first. max_counters follows magic/version/flags/reserved (8),
        // epoch (8) and the key-type label "u64" (2 + 3); lg_cur follows
        // the policy (17) and seed (8).
        let mut hostile = SketchEngine::<u64>::builder(32)
            .build()
            .unwrap()
            .serialize_to_bytes();
        assert_eq!(hostile.len(), 130);
        hostile.truncate(126);
        hostile[21..29].copy_from_slice(&100_663_295u64.to_le_bytes());
        hostile[54..58].copy_from_slice(&27u32.to_le_bytes());
        let crc = crate::persist::crc32c(&hostile);
        hostile.extend_from_slice(&crc.to_le_bytes());
        let mut over_cap = payload[..9].to_vec();
        over_cap.extend_from_slice(&hostile);
        let started = std::time::Instant::now();
        let err = decode_snapshot(&over_cap).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
        assert!(
            started.elapsed() < std::time::Duration::from_millis(50),
            "over-cap snapshot took {:?} to reject",
            started.elapsed()
        );
    }

    #[test]
    fn file_list_roundtrips_and_bounds_hold() {
        let entries = vec![
            ("STORE".to_string(), 64u64),
            ("wal-000001.seg".to_string(), 12_345),
            ("shard-0000/MANIFEST".to_string(), 90),
        ];
        let payload = encode_file_list(&entries).unwrap();
        assert_eq!(decode_file_list(&payload).unwrap(), entries);
        assert!(decode_file_list(&payload[..payload.len() - 2]).is_err());
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(decode_file_list(&trailing).is_err());
        // A hostile count cannot demand a huge allocation.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_file_list(&hostile).is_err());
    }

    #[test]
    fn rel_path_validation_blocks_traversal() {
        assert!(validate_rel_path("STORE").is_ok());
        assert!(validate_rel_path("shard-0003/ckpt-000007.ck").is_ok());
        for bad in [
            "",
            "/etc/passwd",
            "../wal-1.seg",
            "shard/../../x",
            "shard/./x",
            "a//b",
            "sp ace",
            "tab\tseg",
            "uni\u{2603}code",
        ] {
            assert!(validate_rel_path(bad).is_err(), "accepted `{bad}`");
        }
        let long = "a".repeat(MAX_SHIP_PATH + 1);
        assert!(validate_rel_path(&long).is_err());
    }

    #[test]
    fn fetch_request_roundtrips() {
        let payload = encode_fetch_request(4096, "wal-000002.seg");
        assert_eq!(
            decode_fetch_request(&payload).unwrap(),
            (4096, "wal-000002.seg".to_string())
        );
        assert!(decode_fetch_request(&payload[..5]).is_err());
        assert!(decode_fetch_request(&encode_fetch_request(0, "../x")).is_err());
    }

    #[test]
    fn ingest_batch_roundtrips_and_bounds_hold() {
        let batch: Vec<(u64, u64)> = (0..1000).map(|i| (i * 7, i + 1)).collect();
        let payload = encode_ingest_batch(&batch);
        assert_eq!(decode_ingest_batch(&payload).unwrap(), batch);
        assert!(decode_ingest_batch(&payload[..payload.len() - 3]).is_err());
        let mut trailing = payload.clone();
        trailing.extend_from_slice(&[0; 3]);
        assert!(decode_ingest_batch(&trailing).is_err());
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_ingest_batch(&hostile).is_err());
        // Weights are bounded by the engine's i64 counter range.
        let max = i64::MAX as u64;
        let edge = encode_ingest_batch(&[(1, max)]);
        assert_eq!(decode_ingest_batch(&edge).unwrap(), vec![(1, max)]);
        for weight in [max + 1, u64::MAX] {
            let payload = encode_ingest_batch(&[(1, 5), (2, weight)]);
            assert!(
                matches!(decode_ingest_batch(&payload), Err(Error::Corrupt(_))),
                "weight {weight} accepted"
            );
        }
    }
}
