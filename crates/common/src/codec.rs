//! Binary encoding substrate for persistence: little-endian primitive
//! encode/decode over `std::io`, length-prefixed sections, and a running
//! FNV-1a checksum.
//!
//! The workspace has no serialisation dependency, so snapshot and log files
//! are written with this small, fully deterministic codec. Design points:
//!
//! * **Little-endian, fixed-width integers.** Every primitive is written in
//!   LE byte order at its natural width, so a snapshot is byte-identical
//!   across platforms and re-encoding an unchanged structure reproduces the
//!   file bit for bit (the property the snapshot round-trip tests pin down).
//! * **Length-prefixed sections.** Aggregates are framed as
//!   `tag: u16 | len: u64 | payload` via [`Encoder::section`] /
//!   [`Decoder::section_header`]. A reader can verify it consumed exactly
//!   `len` bytes ([`Decoder::expect_section_end`]) and a future format
//!   version can skip unknown trailing sections without understanding them.
//! * **Running FNV-1a checksum.** Both sides fold every byte into a 64-bit
//!   FNV-1a state ([`Encoder::checksum`] / [`Decoder::checksum`]); writers
//!   finish a file with [`Encoder::finish_with_checksum`] and readers verify
//!   with [`Decoder::verify_checksum`], so truncation and bit corruption are
//!   detected before any partially decoded structure is used.
//!
//! The codec itself is version-agnostic: file magic and version numbers are
//! the caller's concern (see the `snapshot` module of the `higgs` crate for
//! the format built on top of this layer).

use std::fmt;
use std::io::{Read, Write};

/// Offset basis of 64-bit FNV-1a.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// Prime of 64-bit FNV-1a.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a state (checksum of a whole buffer when
/// started from the default state).
#[inline]
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut hash = state;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The initial FNV-1a state both codec halves start from.
#[inline]
pub fn fnv1a_init() -> u64 {
    FNV_OFFSET
}

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

/// Checksumming little-endian writer over any [`Write`] sink.
#[derive(Debug)]
pub struct Encoder<W: Write> {
    sink: W,
    checksum: u64,
    written: u64,
}

impl<W: Write> Encoder<W> {
    /// Wraps `sink`, starting a fresh checksum.
    pub fn new(sink: W) -> Self {
        Self {
            sink,
            checksum: fnv1a_init(),
            written: 0,
        }
    }

    /// The running FNV-1a checksum over every byte written so far.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Number of bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.written
    }

    /// Writes raw bytes, folding them into the checksum.
    pub fn put_bytes(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        self.sink.write_all(bytes)?;
        self.checksum = fnv1a(self.checksum, bytes);
        self.written += bytes.len() as u64;
        Ok(())
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) -> Result<(), CodecError> {
        self.put_bytes(&[v])
    }

    /// Writes a `u16` in little-endian order.
    pub fn put_u16(&mut self, v: u16) -> Result<(), CodecError> {
        self.put_bytes(&v.to_le_bytes())
    }

    /// Writes a `u32` in little-endian order.
    pub fn put_u32(&mut self, v: u32) -> Result<(), CodecError> {
        self.put_bytes(&v.to_le_bytes())
    }

    /// Writes a `u64` in little-endian order.
    pub fn put_u64(&mut self, v: u64) -> Result<(), CodecError> {
        self.put_bytes(&v.to_le_bytes())
    }

    /// Writes an `i64` in little-endian two's-complement order.
    pub fn put_i64(&mut self, v: i64) -> Result<(), CodecError> {
        self.put_bytes(&v.to_le_bytes())
    }

    /// Writes a `bool` as one byte (`0` / `1`).
    pub fn put_bool(&mut self, v: bool) -> Result<(), CodecError> {
        self.put_u8(u8::from(v))
    }

    /// Writes a length-prefixed section: `tag | len | payload`. The payload
    /// is a fully pre-encoded byte buffer (build it with an in-memory
    /// [`Encoder`] over a `Vec<u8>`), so the length prefix is always exact.
    pub fn section(&mut self, tag: u16, payload: &[u8]) -> Result<(), CodecError> {
        self.put_u16(tag)?;
        self.put_u64(payload.len() as u64)?;
        self.put_bytes(payload)
    }

    /// Appends the running checksum as the final `u64` of the document and
    /// returns it. The checksum field itself is (necessarily) not covered by
    /// the checksum; [`Decoder::verify_checksum`] mirrors that.
    pub fn finish_with_checksum(&mut self) -> Result<u64, CodecError> {
        let checksum = self.checksum;
        self.sink.write_all(&checksum.to_le_bytes())?;
        self.written += 8;
        Ok(checksum)
    }

    /// Flushes and returns the underlying sink.
    pub fn into_inner(mut self) -> Result<W, CodecError> {
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Checksumming little-endian reader over any [`Read`] source.
#[derive(Debug)]
pub struct Decoder<R: Read> {
    source: R,
    checksum: u64,
    read: u64,
}

impl<R: Read> Decoder<R> {
    /// Wraps `source`, starting a fresh checksum.
    pub fn new(source: R) -> Self {
        Self {
            source,
            checksum: fnv1a_init(),
            read: 0,
        }
    }

    /// The running FNV-1a checksum over every byte read so far.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Number of bytes read so far.
    pub fn bytes_read(&self) -> u64 {
        self.read
    }

    /// Reads exactly `buf.len()` bytes, folding them into the checksum.
    pub fn get_bytes(&mut self, buf: &mut [u8]) -> Result<(), CodecError> {
        self.source.read_exact(buf)?;
        self.checksum = fnv1a(self.checksum, buf);
        self.read += buf.len() as u64;
        Ok(())
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        let mut buf = [0u8; 1];
        self.get_bytes(&mut buf)?;
        Ok(buf[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        let mut buf = [0u8; 2];
        self.get_bytes(&mut buf)?;
        Ok(u16::from_le_bytes(buf))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let mut buf = [0u8; 4];
        self.get_bytes(&mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let mut buf = [0u8; 8];
        self.get_bytes(&mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Reads a little-endian two's-complement `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        let mut buf = [0u8; 8];
        self.get_bytes(&mut buf)?;
        Ok(i64::from_le_bytes(buf))
    }

    /// Reads a `bool` byte, rejecting values other than `0` / `1` (any other
    /// value means the stream is corrupt or misaligned).
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Invalid(format!(
                "bool byte must be 0 or 1, got {other}"
            ))),
        }
    }

    /// Reads a `usize`-bounded length field: a `u64` that must not exceed
    /// `limit` (guards against corrupt lengths driving huge allocations).
    pub fn get_len(&mut self, limit: u64, what: &str) -> Result<usize, CodecError> {
        let len = self.get_u64()?;
        if len > limit {
            return Err(CodecError::Invalid(format!(
                "{what} length {len} exceeds limit {limit}"
            )));
        }
        Ok(len as usize)
    }

    /// Reads a section header, returning `(tag, payload length)`. Callers
    /// decode the payload with the same decoder (the checksum keeps running)
    /// and then check consumption with [`expect_section_end`](Self::expect_section_end).
    pub fn section_header(&mut self) -> Result<(u16, u64), CodecError> {
        let tag = self.get_u16()?;
        let len = self.get_u64()?;
        Ok((tag, len))
    }

    /// Verifies that exactly `len` payload bytes were consumed since
    /// `start` (= [`bytes_read`](Self::bytes_read) right after the header).
    pub fn expect_section_end(&self, start: u64, len: u64, tag: u16) -> Result<(), CodecError> {
        let consumed = self.read - start;
        if consumed != len {
            return Err(CodecError::Invalid(format!(
                "section {tag:#06x} declared {len} payload bytes but {consumed} were consumed"
            )));
        }
        Ok(())
    }

    /// Reads the trailing checksum `u64` (not folded into the running state)
    /// and compares it with the state accumulated so far. Returns the stored
    /// checksum on success.
    pub fn verify_checksum(&mut self) -> Result<u64, CodecError> {
        let expected = self.checksum;
        let mut buf = [0u8; 8];
        self.source.read_exact(&mut buf)?;
        self.read += 8;
        let stored = u64::from_le_bytes(buf);
        if stored != expected {
            return Err(CodecError::Invalid(format!(
                "checksum mismatch: stored {stored:#018x}, computed {expected:#018x}"
            )));
        }
        Ok(stored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_little_endian() {
        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf);
        enc.put_u8(0xAB).unwrap();
        enc.put_u16(0x1234).unwrap();
        enc.put_u32(0xDEAD_BEEF).unwrap();
        enc.put_u64(0x0123_4567_89AB_CDEF).unwrap();
        enc.put_i64(-42).unwrap();
        enc.put_bool(true).unwrap();
        enc.put_bool(false).unwrap();
        let written = enc.bytes_written();
        let _ = enc;
        assert_eq!(written, buf.len() as u64);
        // LE spot check: the u16 bytes follow the u8 lowest-byte-first.
        assert_eq!(&buf[..3], &[0xAB, 0x34, 0x12]);

        let mut dec = Decoder::new(buf.as_slice());
        assert_eq!(dec.get_u8().unwrap(), 0xAB);
        assert_eq!(dec.get_u16().unwrap(), 0x1234);
        assert_eq!(dec.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(dec.get_i64().unwrap(), -42);
        assert!(dec.get_bool().unwrap());
        assert!(!dec.get_bool().unwrap());
        assert_eq!(dec.bytes_read(), written);
    }

    #[test]
    fn encoder_and_decoder_checksums_agree() {
        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf);
        enc.put_u64(7).unwrap();
        enc.put_bytes(b"higgs").unwrap();
        let enc_sum = enc.checksum();
        enc.finish_with_checksum().unwrap();
        let _ = enc;

        let mut dec = Decoder::new(buf.as_slice());
        dec.get_u64().unwrap();
        let mut name = [0u8; 5];
        dec.get_bytes(&mut name).unwrap();
        assert_eq!(dec.checksum(), enc_sum);
        assert_eq!(dec.verify_checksum().unwrap(), enc_sum);
    }

    #[test]
    fn corrupted_byte_fails_checksum_verification() {
        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf);
        enc.put_u64(1234).unwrap();
        enc.finish_with_checksum().unwrap();
        let _ = enc;
        buf[3] ^= 0x40; // flip one payload bit

        let mut dec = Decoder::new(buf.as_slice());
        dec.get_u64().unwrap();
        let err = dec.verify_checksum().unwrap_err();
        assert!(matches!(err, CodecError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("checksum mismatch"));
    }

    #[test]
    fn truncated_input_reports_unexpected_eof() {
        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf);
        enc.put_u64(1).unwrap();
        let _ = enc;
        buf.truncate(5);
        let mut dec = Decoder::new(buf.as_slice());
        assert!(matches!(
            dec.get_u64().unwrap_err(),
            CodecError::UnexpectedEof
        ));
    }

    #[test]
    fn sections_frame_payloads_exactly() {
        let mut payload = Vec::new();
        let mut inner = Encoder::new(&mut payload);
        inner.put_u32(99).unwrap();
        inner.put_bool(true).unwrap();
        let _ = inner;

        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf);
        enc.section(0x0042, &payload).unwrap();
        let _ = enc;

        let mut dec = Decoder::new(buf.as_slice());
        let (tag, len) = dec.section_header().unwrap();
        assert_eq!(tag, 0x0042);
        assert_eq!(len, 5);
        let start = dec.bytes_read();
        assert_eq!(dec.get_u32().unwrap(), 99);
        assert!(dec.get_bool().unwrap());
        dec.expect_section_end(start, len, tag).unwrap();
    }

    #[test]
    fn section_length_mismatch_is_detected() {
        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf);
        enc.section(7, &[1, 2, 3, 4]).unwrap();
        let _ = enc;
        let mut dec = Decoder::new(buf.as_slice());
        let (tag, len) = dec.section_header().unwrap();
        let start = dec.bytes_read();
        let _ = dec.get_u8().unwrap(); // consume only 1 of 4 payload bytes
        let err = dec.expect_section_end(start, len, tag).unwrap_err();
        assert!(err.to_string().contains("declared 4"));
    }

    #[test]
    fn bounded_lengths_reject_huge_values() {
        let mut buf = Vec::new();
        let mut enc = Encoder::new(&mut buf);
        enc.put_u64(u64::MAX).unwrap();
        let _ = enc;
        let mut dec = Decoder::new(buf.as_slice());
        let err = dec.get_len(1 << 20, "leaf count").unwrap_err();
        assert!(err.to_string().contains("leaf count"));
    }

    #[test]
    fn bool_bytes_other_than_zero_or_one_are_invalid() {
        let mut dec = Decoder::new([7u8].as_slice());
        assert!(matches!(
            dec.get_bool().unwrap_err(),
            CodecError::Invalid(_)
        ));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(fnv1a_init(), b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(fnv1a_init(), b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(fnv1a_init(), b"foobar"), 0x8594_4171_f739_67e8);
    }
}
