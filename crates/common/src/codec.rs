//! Binary encoding substrate for persistence: little-endian primitives
//! appended to an in-memory buffer, a bounds-checked cursor that reads them
//! back from a byte slice, and length-prefixed sections.
//!
//! The workspace has no serialisation dependency, so snapshot and log files
//! are written with this small, fully deterministic codec. Design points:
//!
//! * **Little-endian, fixed-width integers.** Every primitive is written in
//!   LE byte order at its natural width, so a file is byte-identical across
//!   platforms and re-encoding an unchanged structure reproduces it bit for
//!   bit (the property the snapshot round-trip tests pin down).
//! * **Varints where values run small.** The log records write ids,
//!   weights, counts and deltas as LEB128 varints ([`put_varint`]), and edges
//!   in the compact form of [`put_edge_after`]: one byte per small field
//!   instead of eight. Every value has exactly one varint encoding, so the
//!   re-encoding property holds for them too.
//! * **Whole documents in memory.** Writers encode into one `Vec<u8>` and
//!   hand it to the sink in one write; readers decode from a slice holding
//!   the whole document. A count read from the bytes can therefore be
//!   checked against the bytes actually present ([`Reader::items`]) before
//!   anything is allocated for it.
//! * **Length-prefixed sections.** Aggregates are framed as
//!   `tag: u16 | len: u64 | payload` via [`begin_section`] / [`end_section`]
//!   and [`Reader::section_header`]. A reader can verify it consumed exactly
//!   `len` bytes ([`Reader::expect_section_end`]).
//!
//! The codec carries no checksum and no version: file magic, versions and
//! checksums are the caller's concern (see the `snapshot` and `framing`
//! modules of the `higgs` crate for the formats built on top of this layer).

use crate::edge::StreamEdge;
use std::fmt;

/// Why an encode or decode operation failed.
#[derive(Debug)]
pub enum CodecError {
    /// The underlying reader/writer failed.
    Io(std::io::Error),
    /// The reader ran out of bytes mid-value (a truncated document).
    UnexpectedEof,
    /// A decoded value violates a structural constraint; the message names
    /// the field and the violated bound.
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "I/O error: {e}"),
            CodecError::UnexpectedEof => write!(f, "unexpected end of input (truncated document)"),
            CodecError::Invalid(msg) => write!(f, "invalid encoding: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            CodecError::UnexpectedEof
        } else {
            CodecError::Io(e)
        }
    }
}

/// Appends a `u16` in little-endian order.
#[inline]
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` in little-endian order.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `i64` in little-endian two's-complement order.
#[inline]
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `bool` as one byte (`0` / `1`).
#[inline]
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

/// Appends `v` as an LEB128 varint: seven bits per byte, lowest group first,
/// the high bit set on every byte but the last. Values below 2^7 take one
/// byte; `u64::MAX` takes the most, ten.
#[inline]
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Maps a signed value onto an unsigned one so small magnitudes of either
/// sign stay small (0, −1, 1, −2, … become 0, 1, 2, 3, …): the form a delta
/// takes before [`put_varint`].
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// The inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
}

/// Appends one edge in the compact form the log records use: source,
/// destination and weight as [`put_varint`]s, then the timestamp as the
/// [`zigzag`]ged varint of its wrapping difference from `prev_ts` (the
/// previous edge's timestamp in the record, `0` for the first). Sorted
/// timestamps cost one byte each; out-of-order ones still round-trip.
#[inline]
pub fn put_edge_after(buf: &mut Vec<u8>, edge: &StreamEdge, prev_ts: u64) {
    put_varint(buf, edge.src);
    put_varint(buf, edge.dst);
    put_varint(buf, edge.weight);
    put_varint(buf, zigzag(edge.timestamp.wrapping_sub(prev_ts) as i64));
}

/// The longest [`put_varint`] encoding: ⌈64 / 7⌉ bytes.
const MAX_VARINT_BYTES: usize = 10;

/// `count` as a `usize` when it is at most `limit` (guards against a corrupt
/// count driving a huge allocation), named `what` in the error otherwise.
#[inline]
fn check_count(count: u64, limit: u64, what: &str) -> Result<usize, CodecError> {
    if count > limit {
        return Err(CodecError::Invalid(format!(
            "{what} length {count} exceeds limit {limit}"
        )));
    }
    Ok(count as usize)
}

/// Opens a section: appends `tag` and a placeholder length, returning the
/// offset [`end_section`] patches once the payload is written.
#[inline]
pub fn begin_section(buf: &mut Vec<u8>, tag: u16) -> usize {
    put_u16(buf, tag);
    put_u64(buf, 0);
    buf.len()
}

/// Closes the section [`begin_section`] opened at `payload_start`: writes the
/// payload's byte length into its header.
#[inline]
pub fn end_section(buf: &mut [u8], payload_start: usize) {
    let len = (buf.len() - payload_start) as u64;
    if let Some(field) = buf
        .get_mut(..payload_start)
        .and_then(|head| head.last_chunk_mut::<8>())
    {
        *field = len.to_le_bytes();
    }
}

/// A little-endian cursor over an in-memory document: the read side of the
/// `put_*` helpers. Every read is bounds-checked; running out of bytes is
/// [`CodecError::UnexpectedEof`].
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
    consumed: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            rest: bytes,
            consumed: 0,
        }
    }

    /// Bytes read so far.
    #[inline]
    pub fn position(&self) -> usize {
        self.consumed
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Reads the next `n` bytes as a slice of the document.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.rest.len() {
            return Err(CodecError::UnexpectedEof);
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        self.consumed += n;
        Ok(head)
    }

    #[inline]
    fn take<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(CodecError::UnexpectedEof)?;
        self.rest = rest;
        self.consumed += N;
        Ok(*head)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take::<1>()?[0])
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take()?))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    /// Reads a little-endian two's-complement `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take()?))
    }

    /// Reads a `bool` byte, rejecting values other than `0` / `1` (any other
    /// value means the document is corrupt or misaligned).
    #[inline]
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Invalid(format!(
                "bool byte must be 0 or 1, got {other}"
            ))),
        }
    }

    /// Reads a count that must not exceed `limit` (guards against a corrupt
    /// count driving a huge allocation).
    #[inline]
    pub fn count(&mut self, limit: u64, what: &str) -> Result<usize, CodecError> {
        let count = self.u64()?;
        check_count(count, limit, what)
    }

    /// Reads a [`count`](Self::count) of items that each take at least
    /// `item_bytes` bytes, and checks that many could still follow: a count
    /// the rest of the document cannot hold is a truncation, reported before
    /// the caller allocates for it.
    #[inline]
    pub fn items(
        &mut self,
        limit: u64,
        item_bytes: usize,
        what: &str,
    ) -> Result<usize, CodecError> {
        let count = self.count(limit, what)?;
        self.check_room(count, item_bytes)
    }

    /// [`items`](Self::items) with the count written as a [`put_varint`].
    #[inline]
    pub fn varint_items(
        &mut self,
        limit: u64,
        item_bytes: usize,
        what: &str,
    ) -> Result<usize, CodecError> {
        let count = check_count(self.varint()?, limit, what)?;
        self.check_room(count, item_bytes)
    }

    /// `count` when `count` items of at least `item_bytes` bytes each fit in
    /// the rest of the document, a truncation otherwise.
    #[inline]
    fn check_room(&self, count: usize, item_bytes: usize) -> Result<usize, CodecError> {
        if count.saturating_mul(item_bytes) > self.rest.len() {
            return Err(CodecError::UnexpectedEof);
        }
        Ok(count)
    }

    /// Reads a varint written by [`put_varint`]. Running out of bytes inside
    /// it is [`CodecError::UnexpectedEof`]; more than ten bytes, a tenth byte
    /// carrying bits past 2^64, or a redundant trailing zero group (every
    /// value has exactly one encoding) is [`CodecError::Invalid`].
    ///
    /// A one-byte varint (weights, timestamp and sequence deltas, small ids)
    /// returns before the general loop.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        if let Some(&byte) = self.rest.first() {
            if byte < 0x80 {
                self.advance(1);
                return Ok(u64::from(byte));
            }
        }
        self.varint_bytewise()
    }

    /// [`varint`](Self::varint) of any length, one byte at a time. A
    /// malformed varint is diagnosed out of line, keeping this loop small
    /// enough to inline.
    #[inline]
    fn varint_bytewise(&mut self) -> Result<u64, CodecError> {
        let mut value = 0u64;
        for (i, &byte) in self.rest.iter().take(MAX_VARINT_BYTES).enumerate() {
            value |= u64::from(byte & 0x7f) << (7 * i);
            if byte < 0x80 {
                if (i > 0 && byte == 0) || (i == MAX_VARINT_BYTES - 1 && byte > 1) {
                    break;
                }
                self.advance(i + 1);
                return Ok(value);
            }
        }
        Err(self.varint_error())
    }

    /// Why the varint at the cursor does not decode.
    #[cold]
    #[inline(never)]
    fn varint_error(&self) -> CodecError {
        let window = &self.rest[..self.rest.len().min(MAX_VARINT_BYTES)];
        match window.iter().position(|&byte| byte < 0x80) {
            None if window.len() < MAX_VARINT_BYTES => CodecError::UnexpectedEof,
            None => CodecError::Invalid(format!("varint longer than {MAX_VARINT_BYTES} bytes")),
            Some(last) if last == MAX_VARINT_BYTES - 1 && window[last] > 1 => {
                CodecError::Invalid("varint overflows u64".into())
            }
            Some(_) => CodecError::Invalid("varint ends in a redundant zero byte".into()),
        }
    }

    /// Reads one edge written by [`put_edge_after`] with the same `prev_ts`.
    #[inline]
    pub fn edge_after(&mut self, prev_ts: u64) -> Result<StreamEdge, CodecError> {
        Ok(StreamEdge {
            src: self.varint()?,
            dst: self.varint()?,
            weight: self.varint()?,
            timestamp: prev_ts.wrapping_add(unzigzag(self.varint()?) as u64),
        })
    }

    /// Skips `n` bytes the caller has checked are there.
    #[inline]
    fn advance(&mut self, n: usize) {
        self.rest = &self.rest[n..];
        self.consumed += n;
    }

    /// Reads a section header, returning `(tag, payload length)`. Callers
    /// decode the payload with the same cursor and then check consumption
    /// with [`expect_section_end`](Self::expect_section_end).
    #[inline]
    pub fn section_header(&mut self) -> Result<(u16, u64), CodecError> {
        let tag = self.u16()?;
        let len = self.u64()?;
        Ok((tag, len))
    }

    /// Verifies that exactly `len` payload bytes were consumed since
    /// `start` (= [`position`](Self::position) right after the header).
    #[inline]
    pub fn expect_section_end(&self, start: usize, len: u64, tag: u16) -> Result<(), CodecError> {
        let consumed = (self.consumed - start) as u64;
        if consumed != len {
            return Err(CodecError::Invalid(format!(
                "section {tag:#06x} declared {len} payload bytes but {consumed} were consumed"
            )));
        }
        Ok(())
    }

    /// Checks that the decode consumed the whole input: the last step of a
    /// decoder that owns its whole slice (a log record body, named `name`
    /// in the error).
    #[inline]
    pub fn finish(self, name: &str) -> Result<(), CodecError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Invalid(format!(
                "{name} record body has {} trailing bytes",
                self.rest.len()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_little_endian() {
        let mut buf = Vec::new();
        buf.push(0xAB);
        put_u16(&mut buf, 0x1234);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, 0x0123_4567_89AB_CDEF);
        put_i64(&mut buf, -42);
        put_bool(&mut buf, true);
        put_bool(&mut buf, false);
        assert_eq!(buf.len(), 1 + 2 + 4 + 8 + 8 + 2);
        // LE spot check: the u16 bytes follow the u8 lowest-byte-first.
        assert_eq!(&buf[..3], &[0xAB, 0x34, 0x12]);

        let mut dec = Reader::new(&buf);
        assert_eq!(dec.u8().unwrap(), 0xAB);
        assert_eq!(dec.u16().unwrap(), 0x1234);
        assert_eq!(dec.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(dec.i64().unwrap(), -42);
        assert!(dec.bool().unwrap());
        assert!(!dec.bool().unwrap());
        assert_eq!(dec.position(), buf.len());
        dec.finish("test").unwrap();
    }

    #[test]
    fn truncated_input_reports_unexpected_eof() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 1);
        buf.truncate(5);
        let mut dec = Reader::new(&buf);
        assert!(matches!(dec.u64().unwrap_err(), CodecError::UnexpectedEof));
        assert!(matches!(
            dec.bytes(6).unwrap_err(),
            CodecError::UnexpectedEof
        ));
        assert_eq!(dec.bytes(5).unwrap(), &buf[..]);
    }

    #[test]
    fn sections_frame_payloads_exactly() {
        let mut buf = Vec::new();
        let start = begin_section(&mut buf, 0x0042);
        put_u32(&mut buf, 99);
        put_bool(&mut buf, true);
        end_section(&mut buf, start);

        let mut dec = Reader::new(&buf);
        let (tag, len) = dec.section_header().unwrap();
        assert_eq!(tag, 0x0042);
        assert_eq!(len, 5);
        let start = dec.position();
        assert_eq!(dec.u32().unwrap(), 99);
        assert!(dec.bool().unwrap());
        dec.expect_section_end(start, len, tag).unwrap();
    }

    #[test]
    fn section_length_mismatch_is_detected() {
        let mut buf = Vec::new();
        let start = begin_section(&mut buf, 7);
        buf.extend_from_slice(&[1, 2, 3, 4]);
        end_section(&mut buf, start);
        let mut dec = Reader::new(&buf);
        let (tag, len) = dec.section_header().unwrap();
        let start = dec.position();
        let _ = dec.u8().unwrap(); // consume only 1 of 4 payload bytes
        let err = dec.expect_section_end(start, len, tag).unwrap_err();
        assert!(err.to_string().contains("declared 4"));
    }

    #[test]
    fn bounded_lengths_reject_huge_values() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        let err = Reader::new(&buf).count(1 << 20, "leaf count").unwrap_err();
        assert!(err.to_string().contains("leaf count"));
        // Within the limit, but more items than the remaining bytes hold.
        let mut buf = Vec::new();
        put_u64(&mut buf, 3);
        buf.extend_from_slice(&[0; 16]);
        assert!(matches!(
            Reader::new(&buf).items(1 << 20, 8, "slots").unwrap_err(),
            CodecError::UnexpectedEof
        ));
        assert_eq!(Reader::new(&buf).items(1 << 20, 5, "slots").unwrap(), 3);
    }

    #[test]
    fn bool_bytes_other_than_zero_or_one_are_invalid() {
        let mut dec = Reader::new(&[7u8]);
        assert!(matches!(dec.bool().unwrap_err(), CodecError::Invalid(_)));
    }

    /// Encodes `v` alone.
    fn varint_bytes(v: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        buf
    }

    #[test]
    fn varints_round_trip_at_every_length_boundary() {
        let cases = [
            (0, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            ((1 << 56) - 1, 8),
            (1 << 56, 9),
            ((1 << 63) - 1, 9),
            (1 << 63, 10),
            (u64::MAX, 10),
        ];
        for (v, len) in cases {
            let buf = varint_bytes(v);
            assert_eq!(buf.len(), len, "{v}");
            // Alone and followed by more bytes.
            let padded = [buf.as_slice(), &[0xff; 8]].concat();
            for bytes in [&buf, &padded] {
                let mut dec = Reader::new(bytes);
                assert_eq!(dec.varint().unwrap(), v);
                assert_eq!(dec.position(), len);
            }
        }
        assert_eq!(varint_bytes(300), [0xac, 0x02]);
        assert_eq!(
            varint_bytes(u64::MAX),
            [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]
        );
    }

    #[test]
    fn zigzag_keeps_small_deltas_of_either_sign_small() {
        for (v, z) in [(0, 0), (-1, 1), (1, 2), (-2, 3), (2, 4)] {
            assert_eq!(zigzag(v), z);
            assert_eq!(unzigzag(z), v);
        }
        assert_eq!(zigzag(i64::MAX), u64::MAX - 1);
        assert_eq!(zigzag(i64::MIN), u64::MAX);
        // A wrapping difference round-trips however far apart the two ends.
        for (prev, next) in [(0, u64::MAX), (u64::MAX, 0), (5, 3), (1 << 63, 1)] {
            let delta = zigzag(next.wrapping_sub(prev) as i64);
            assert_eq!(prev.wrapping_add(unzigzag(delta) as u64), next);
        }
        // Sorted or slightly shuffled timestamps cost one byte.
        assert_eq!(varint_bytes(zigzag(-3)).len(), 1);
    }

    #[test]
    fn malformed_varints_are_typed_errors() {
        // Truncated: a continuation bit on the last byte present.
        for bytes in [&[][..], &[0x80], &[0xff, 0xff, 0xff]] {
            assert!(matches!(
                Reader::new(bytes).varint().unwrap_err(),
                CodecError::UnexpectedEof
            ));
        }
        // Eleven bytes: ten with continuation bits, then a terminator.
        let mut long = vec![0xff; 10];
        long.push(0x01);
        assert!(matches!(
            Reader::new(&long).varint().unwrap_err(),
            CodecError::Invalid(msg) if msg.contains("longer than 10")
        ));
        // A tenth byte carrying bits past 2^64.
        let mut over = vec![0xff; 9];
        over.push(0x02);
        assert!(matches!(
            Reader::new(&over).varint().unwrap_err(),
            CodecError::Invalid(msg) if msg.contains("overflows")
        ));
        // A redundant zero group: 0 written in two bytes.
        assert!(matches!(
            Reader::new(&[0x80, 0x00]).varint().unwrap_err(),
            CodecError::Invalid(msg) if msg.contains("redundant")
        ));
        // A failed read consumes nothing.
        let mut dec = Reader::new(&[0x80]);
        let _ = dec.varint();
        assert_eq!(dec.position(), 0);
    }

    #[test]
    fn compact_edges_round_trip_extremes_and_out_of_order_timestamps() {
        let edges = [
            StreamEdge::new(1, 2, 1, 100),
            StreamEdge::new(u64::MAX, u64::MAX, u64::MAX, u64::MAX),
            StreamEdge::new(0, 0, 0, 0),
            StreamEdge::new(3, 4, 1, 99),
            StreamEdge::new(5, 6, 1, 1 << 63),
        ];
        let mut buf = Vec::new();
        let mut prev = 0;
        for edge in &edges {
            put_edge_after(&mut buf, edge, prev);
            prev = edge.timestamp;
        }
        let mut dec = Reader::new(&buf);
        let mut prev = 0;
        for edge in &edges {
            let got = dec.edge_after(prev).unwrap();
            assert_eq!(&got, edge);
            prev = got.timestamp;
        }
        dec.finish("test").unwrap();
        // A small, sorted edge takes one byte per field; the all-ones one
        // takes ten per id and weight, and a one-byte delta from u64::MAX.
        let mut small = Vec::new();
        put_edge_after(&mut small, &StreamEdge::new(1, 2, 1, 101), 100);
        assert_eq!(small.len(), 4);
        let mut big = Vec::new();
        put_edge_after(
            &mut big,
            &StreamEdge::new(u64::MAX, u64::MAX, u64::MAX, 0),
            1,
        );
        assert_eq!(big.len(), 31);
    }

    #[test]
    fn varint_counts_are_checked_before_allocation() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 40);
        let err = Reader::new(&buf)
            .varint_items(1 << 16, 4, "batch")
            .unwrap_err();
        assert!(err.to_string().contains("batch length"), "{err}");
        let mut buf = Vec::new();
        put_varint(&mut buf, 3);
        buf.extend_from_slice(&[0; 11]);
        assert!(matches!(
            Reader::new(&buf)
                .varint_items(1 << 16, 4, "batch")
                .unwrap_err(),
            CodecError::UnexpectedEof
        ));
        assert_eq!(
            Reader::new(&buf).varint_items(1 << 16, 3, "batch").unwrap(),
            3
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Random values at every encoded length (a random shift spreads
        /// them over 1 to 10 bytes) decode to themselves.
        #[test]
        fn random_varints_round_trip(raw in 0u64..=u64::MAX, shift in 0u32..64) {
            let v = raw >> shift;
            let buf = varint_bytes(v);
            let mut dec = Reader::new(&buf);
            proptest::prop_assert_eq!(dec.varint().unwrap(), v);
            proptest::prop_assert_eq!(dec.remaining(), 0);
        }

        #[test]
        fn random_compact_edges_round_trip(
            ids in (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
            ts in (0u64..=u64::MAX, 0u64..=u64::MAX),
            shift in 0u32..64,
        ) {
            let edge = StreamEdge::new(ids.0 >> shift, ids.1, ids.2 >> shift, ts.0);
            let mut buf = Vec::new();
            put_edge_after(&mut buf, &edge, ts.1);
            let mut dec = Reader::new(&buf);
            proptest::prop_assert_eq!(dec.edge_after(ts.1).unwrap(), edge);
            proptest::prop_assert_eq!(dec.remaining(), 0);
        }

        /// Arbitrary bytes never panic the varint or compact-edge readers:
        /// each read either succeeds within the bytes or fails typed.
        #[test]
        fn arbitrary_bytes_never_panic_the_compact_readers(
            bytes in proptest::collection::vec(0u8..=255, 0..48),
            prev in 0u64..=u64::MAX,
        ) {
            let mut dec = Reader::new(&bytes);
            while dec.varint().is_ok() {}
            let mut dec = Reader::new(&bytes);
            while dec.edge_after(prev).is_ok() {}
            proptest::prop_assert!(dec.position() <= bytes.len());
            let _ = Reader::new(&bytes).varint_items(1 << 16, 5, "batch");
        }
    }
}
