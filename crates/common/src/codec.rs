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

/// Appends one edge as four LE `u64`s (source, destination, weight,
/// timestamp).
#[inline]
pub fn put_edge(buf: &mut Vec<u8>, edge: &StreamEdge) {
    put_u64(buf, edge.src);
    put_u64(buf, edge.dst);
    put_u64(buf, edge.weight);
    put_u64(buf, edge.timestamp);
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
        if count > limit {
            return Err(CodecError::Invalid(format!(
                "{what} length {count} exceeds limit {limit}"
            )));
        }
        Ok(count as usize)
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
        if count.saturating_mul(item_bytes) > self.rest.len() {
            return Err(CodecError::UnexpectedEof);
        }
        Ok(count)
    }

    /// Reads one edge written by [`put_edge`].
    #[inline]
    pub fn edge(&mut self) -> Result<StreamEdge, CodecError> {
        Ok(StreamEdge {
            src: self.u64()?,
            dst: self.u64()?,
            weight: self.u64()?,
            timestamp: self.u64()?,
        })
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
        let edge = StreamEdge::new(1, 2, 3, 4);
        put_edge(&mut buf, &edge);
        assert_eq!(buf.len(), 1 + 2 + 4 + 8 + 8 + 2 + 32);
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
        assert_eq!(dec.edge().unwrap(), edge);
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
}
