//! Byte-level encoding of sketch item types, used by the engine byte
//! form ([`crate::codec`], via [`crate::persist::checkpoint`]) and the
//! WAL frames.
//!
//! The `u64` sketch has a fixed-width key encoding; arbitrary item types
//! need a serializer. [`ItemCodec`] is deliberately tiny — two methods, no
//! external dependencies — mirroring the `ArrayOfItemsSerDe` interface the
//! DataSketches library uses for the same purpose.

use crate::error::Error;

/// Appends `value` to `out` as an LEB128 varint (7 bits per byte,
/// continuation high bit). Small values — epochs, weights, stream tags —
/// take 1–2 bytes instead of 8.
///
/// This sits on the durable ingest fast path (two calls per logged
/// update), so the common single-byte case takes one branch and the
/// multi-byte case builds on the stack and appends once.
#[inline]
pub fn write_uvarint(out: &mut Vec<u8>, mut value: u64) {
    if value < 0x80 {
        out.push(value as u8);
        return;
    }
    let mut buf = [0u8; 10];
    let mut n = 0;
    while value >= 0x80 {
        buf[n] = (value as u8) | 0x80;
        n += 1;
        value >>= 7;
    }
    buf[n] = value as u8;
    out.extend_from_slice(&buf[..=n]);
}

/// Decodes one LEB128 varint from the front of `buf`, advancing it.
///
/// # Errors
/// Returns [`Error::Truncated`] when `buf` ends mid-varint and
/// [`Error::Corrupt`] when the encoding overflows 64 bits or is not
/// minimal (a non-canonical trailing `0x00` continuation byte).
pub fn read_uvarint(buf: &mut &[u8]) -> Result<u64, Error> {
    let mut value = 0u64;
    for (i, &byte) in buf.iter().enumerate() {
        if i == 10 || (i == 9 && byte > 0x01) {
            return Err(Error::Corrupt("varint overflows u64".into()));
        }
        value |= u64::from(byte & 0x7F) << (7 * i);
        if byte & 0x80 == 0 {
            if byte == 0 && i > 0 {
                return Err(Error::Corrupt("non-minimal varint encoding".into()));
            }
            *buf = buf.get(i + 1..).unwrap_or_default();
            return Ok(value);
        }
    }
    Err(Error::Truncated {
        needed: 1,
        remaining: 0,
    })
}

/// Zigzag-maps a signed value so small magnitudes stay small varints.
fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Items that can travel in an [`crate::ItemsSketch`] wire encoding.
pub trait ItemCodec: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one item from the front of `buf`, advancing it past the
    /// consumed bytes.
    ///
    /// # Errors
    /// Returns [`Error::Truncated`] or [`Error::Corrupt`] on malformed
    /// input.
    fn decode(buf: &mut &[u8]) -> Result<Self, Error>;

    /// Appends a size-optimized encoding of `self` — varints for
    /// integers, varint length prefixes for strings and byte vectors.
    /// Used by the v2 WAL frame format, where item bytes dominate; the
    /// engine byte form (checkpoints, sketch bytes) keeps the
    /// fixed-width [`ItemCodec::encode`]. Defaults to the fixed
    /// encoding.
    fn encode_compact(&self, out: &mut Vec<u8>) {
        self.encode(out);
    }

    /// Decodes one [`ItemCodec::encode_compact`] item from the front of
    /// `buf`, advancing it.
    ///
    /// # Errors
    /// Returns [`Error::Truncated`] or [`Error::Corrupt`] on malformed
    /// input.
    fn decode_compact(buf: &mut &[u8]) -> Result<Self, Error> {
        Self::decode(buf)
    }

    /// Appends `self`'s compact encoding followed by `weight` as a
    /// varint — one `(item, weight)` pair of a WAL frame. This is the
    /// durable ingest path's innermost loop; integer keys override it to
    /// build both fields in one stack buffer and append once. The bytes
    /// produced MUST equal [`ItemCodec::encode_compact`] followed by
    /// [`write_uvarint`] of the weight.
    fn encode_compact_pair(&self, weight: u64, out: &mut Vec<u8>) {
        self.encode_compact(out);
        write_uvarint(out, weight);
    }
}

/// Writes `value` as a LEB128 varint into `buf` starting at `at`;
/// returns the offset one past the last byte written. `buf` must have at
/// least 10 bytes of room after `at`.
#[inline]
fn uvarint_into(buf: &mut [u8; 20], mut at: usize, mut value: u64) -> usize {
    while value >= 0x80 {
        buf[at] = (value as u8) | 0x80;
        at += 1;
        value >>= 7;
    }
    buf[at] = value as u8;
    at + 1
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

/// [`take`], but returning a fixed-size array for `from_le_bytes`.
/// Infallible once `take` succeeds, but surfaced as `Corrupt` rather
/// than a panic: decode paths must never panic on untrusted input.
fn take_array<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], Error> {
    let head = take(buf, N)?;
    head.try_into()
        .map_err(|_| Error::Corrupt("sized take mismatch".into()))
}

macro_rules! impl_item_codec_int {
    ($($t:ty),*) => {
        $(impl ItemCodec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn decode(buf: &mut &[u8]) -> Result<Self, Error> {
                Ok(<$t>::from_le_bytes(take_array(buf)?))
            }
        })*
    };
}

impl_item_codec_int!(u128, i128);

macro_rules! impl_item_codec_varint {
    (unsigned: $($u:ty),* ; signed: $($s:ty),*) => {
        $(impl ItemCodec for $u {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn decode(buf: &mut &[u8]) -> Result<Self, Error> {
                Ok(<$u>::from_le_bytes(take_array(buf)?))
            }

            fn encode_compact(&self, out: &mut Vec<u8>) {
                write_uvarint(out, u64::from(*self));
            }

            fn decode_compact(buf: &mut &[u8]) -> Result<Self, Error> {
                <$u>::try_from(read_uvarint(buf)?)
                    .map_err(|_| Error::Corrupt("varint out of range for item type".into()))
            }

            fn encode_compact_pair(&self, weight: u64, out: &mut Vec<u8>) {
                let mut buf = [0u8; 20];
                let n = uvarint_into(&mut buf, 0, u64::from(*self));
                let n = uvarint_into(&mut buf, n, weight);
                out.extend_from_slice(&buf[..n]);
            }
        })*
        $(impl ItemCodec for $s {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn decode(buf: &mut &[u8]) -> Result<Self, Error> {
                Ok(<$s>::from_le_bytes(take_array(buf)?))
            }

            fn encode_compact(&self, out: &mut Vec<u8>) {
                write_uvarint(out, zigzag(i64::from(*self)));
            }

            fn decode_compact(buf: &mut &[u8]) -> Result<Self, Error> {
                <$s>::try_from(unzigzag(read_uvarint(buf)?))
                    .map_err(|_| Error::Corrupt("varint out of range for item type".into()))
            }

            fn encode_compact_pair(&self, weight: u64, out: &mut Vec<u8>) {
                let mut buf = [0u8; 20];
                let n = uvarint_into(&mut buf, 0, zigzag(i64::from(*self)));
                let n = uvarint_into(&mut buf, n, weight);
                out.extend_from_slice(&buf[..n]);
            }
        })*
    };
}

impl_item_codec_varint!(unsigned: u8, u16, u32, u64 ; signed: i8, i16, i32, i64);

impl ItemCodec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        let bytes = self.as_bytes();
        (bytes.len() as u32).encode(out);
        out.extend_from_slice(bytes);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, Error> {
        let len = usize::try_from(u32::decode(buf)?)
            .map_err(|_| Error::Corrupt("string length overflows usize".into()))?;
        let bytes = take(buf, len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| Error::Corrupt(format!("invalid UTF-8 item: {e}")))
    }

    fn encode_compact(&self, out: &mut Vec<u8>) {
        write_uvarint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }

    fn decode_compact(buf: &mut &[u8]) -> Result<Self, Error> {
        let len = usize::try_from(read_uvarint(buf)?)
            .map_err(|_| Error::Corrupt("string length overflows usize".into()))?;
        let bytes = take(buf, len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| Error::Corrupt(format!("invalid UTF-8 item: {e}")))
    }
}

impl ItemCodec for Vec<u8> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, Error> {
        let len = usize::try_from(u32::decode(buf)?)
            .map_err(|_| Error::Corrupt("vector length overflows usize".into()))?;
        Ok(take(buf, len)?.to_vec())
    }

    fn encode_compact(&self, out: &mut Vec<u8>) {
        write_uvarint(out, self.len() as u64);
        out.extend_from_slice(self);
    }

    fn decode_compact(buf: &mut &[u8]) -> Result<Self, Error> {
        let len = usize::try_from(read_uvarint(buf)?)
            .map_err(|_| Error::Corrupt("vector length overflows usize".into()))?;
        Ok(take(buf, len)?.to_vec())
    }
}

impl<A: ItemCodec, B: ItemCodec> ItemCodec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, Error> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }

    fn encode_compact(&self, out: &mut Vec<u8>) {
        self.0.encode_compact(out);
        self.1.encode_compact(out);
    }

    fn decode_compact(buf: &mut &[u8]) -> Result<Self, Error> {
        Ok((A::decode_compact(buf)?, B::decode_compact(buf)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: ItemCodec + PartialEq + std::fmt::Debug>(value: T) {
        let mut bytes = Vec::new();
        value.encode(&mut bytes);
        let mut view = bytes.as_slice();
        let decoded = T::decode(&mut view).expect("decode");
        assert_eq!(decoded, value);
        assert!(view.is_empty(), "decoder must consume exactly its bytes");
    }

    #[test]
    fn integers_roundtrip() {
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(-42i32);
        roundtrip(u128::MAX - 7);
        roundtrip(255u8);
    }

    #[test]
    fn strings_roundtrip() {
        roundtrip(String::new());
        roundtrip("hello world".to_string());
        roundtrip("unicode: čau světe 🌍".to_string());
    }

    #[test]
    fn byte_vectors_roundtrip() {
        roundtrip(Vec::<u8>::new());
        roundtrip(vec![0u8, 255, 1, 2, 3]);
    }

    #[test]
    fn tuples_roundtrip() {
        roundtrip((7u64, "label".to_string()));
        roundtrip((1u32, (2u32, 3u32)));
    }

    #[test]
    fn truncated_input_is_an_error() {
        let mut bytes = Vec::new();
        "something long".to_string().encode(&mut bytes);
        for cut in 0..bytes.len() {
            let mut view = &bytes[..cut];
            assert!(
                String::decode(&mut view).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn invalid_utf8_is_corrupt() {
        let mut bytes = Vec::new();
        vec![0xFFu8, 0xFE, 0xFD].encode(&mut bytes);
        let mut view = bytes.as_slice();
        assert!(matches!(String::decode(&mut view), Err(Error::Corrupt(_))));
    }

    #[test]
    fn truncated_fixed_width_decode_is_an_error() {
        // take_array surfaces short reads as Err, never a slice panic.
        let mut view = &[1u8, 2, 3][..];
        assert!(matches!(
            u64::decode(&mut view),
            Err(Error::Truncated { .. })
        ));
        let mut view = &[0u8; 15][..];
        assert!(matches!(
            u128::decode(&mut view),
            Err(Error::Truncated { .. })
        ));
        let mut view = &[][..];
        assert!(matches!(
            i64::decode(&mut view),
            Err(Error::Truncated { .. })
        ));
    }

    #[test]
    fn oversized_length_prefix_is_an_error() {
        // A length prefix far beyond the remaining bytes must come back as
        // Err — never an allocation attempt or an out-of-bounds slice.
        let mut bytes = Vec::new();
        write_uvarint(&mut bytes, u64::MAX);
        bytes.extend_from_slice(b"abc");
        let mut view = bytes.as_slice();
        assert!(String::decode_compact(&mut view).is_err());
        let mut view = bytes.as_slice();
        assert!(<Vec<u8>>::decode_compact(&mut view).is_err());

        let mut bytes = Vec::new();
        u32::MAX.encode(&mut bytes);
        bytes.extend_from_slice(b"abc");
        let mut view = bytes.as_slice();
        assert!(matches!(
            String::decode(&mut view),
            Err(Error::Truncated { .. })
        ));
        let mut view = bytes.as_slice();
        assert!(matches!(
            <Vec<u8>>::decode(&mut view),
            Err(Error::Truncated { .. })
        ));
    }

    fn roundtrip_compact<T: ItemCodec + PartialEq + std::fmt::Debug>(value: T) {
        let mut bytes = Vec::new();
        value.encode_compact(&mut bytes);
        let mut view = bytes.as_slice();
        let decoded = T::decode_compact(&mut view).expect("decode_compact");
        assert_eq!(decoded, value);
        assert!(view.is_empty(), "compact decoder must consume its bytes");
    }

    #[test]
    fn uvarint_roundtrips_edge_values() {
        for value in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut bytes = Vec::new();
            write_uvarint(&mut bytes, value);
            let mut view = bytes.as_slice();
            assert_eq!(read_uvarint(&mut view).unwrap(), value);
            assert!(view.is_empty());
        }
        let mut bytes = Vec::new();
        write_uvarint(&mut bytes, u64::MAX);
        assert_eq!(bytes.len(), 10);
        write_uvarint(&mut bytes, 300);
        let mut view = bytes.as_slice();
        assert_eq!(read_uvarint(&mut view).unwrap(), u64::MAX);
        assert_eq!(read_uvarint(&mut view).unwrap(), 300);
    }

    #[test]
    fn uvarint_rejects_truncation_overflow_and_padding() {
        let mut bytes = Vec::new();
        write_uvarint(&mut bytes, 1 << 40);
        for cut in 0..bytes.len() {
            let mut view = &bytes[..cut];
            assert!(matches!(
                read_uvarint(&mut view),
                Err(Error::Truncated { .. })
            ));
        }
        // 11 continuation bytes: overflows 64 bits.
        let mut view: &[u8] = &[0x80u8; 11][..];
        assert!(matches!(read_uvarint(&mut view), Err(Error::Corrupt(_))));
        // 2^63 shifted into the 10th byte with bit 1 set: overflow.
        let mut view: &[u8] = &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
        assert!(matches!(read_uvarint(&mut view), Err(Error::Corrupt(_))));
        // Non-minimal zero padding must not alias a shorter encoding.
        let mut view: &[u8] = &[0x80, 0x00];
        assert!(matches!(read_uvarint(&mut view), Err(Error::Corrupt(_))));
    }

    #[test]
    fn compact_encodings_roundtrip() {
        roundtrip_compact(0u64);
        roundtrip_compact(u64::MAX);
        roundtrip_compact(300u16);
        roundtrip_compact(u32::MAX);
        roundtrip_compact(-1i64);
        roundtrip_compact(i64::MIN);
        roundtrip_compact(-42i8);
        roundtrip_compact(String::from("compact čau 🌍"));
        roundtrip_compact(vec![9u8, 8, 7]);
        roundtrip_compact((17u64, String::from("pair")));
        roundtrip_compact(u128::MAX - 3); // falls back to fixed width
    }

    #[test]
    fn compact_int_is_smaller_for_small_values() {
        let mut fixed = Vec::new();
        let mut compact = Vec::new();
        1_000u64.encode(&mut fixed);
        1_000u64.encode_compact(&mut compact);
        assert_eq!(fixed.len(), 8);
        assert_eq!(compact.len(), 2);
    }

    #[test]
    fn compact_int_rejects_out_of_range() {
        let mut bytes = Vec::new();
        write_uvarint(&mut bytes, 300);
        let mut view = bytes.as_slice();
        assert!(matches!(
            u8::decode_compact(&mut view),
            Err(Error::Corrupt(_))
        ));
        let mut bytes = Vec::new();
        write_uvarint(&mut bytes, zigzag(300));
        let mut view = bytes.as_slice();
        assert!(matches!(
            i8::decode_compact(&mut view),
            Err(Error::Corrupt(_))
        ));
    }
}
