//! Record framing shared by the two per-shard logs, the write-ahead
//! [`journal`](crate::journal) and the elastic [`history`](crate::history)
//! log, which are record codecs over this core.
//!
//! A log file is a header (magic, version, and in a *stamped* format the
//! covering-snapshot checksum) followed by records framed as
//! `len u32 LE | body | checksum u64 LE`, where `len` counts the body and the
//! checksum and the body is `tag u8 | payload` (see the journal's and the
//! history log's module docs for the varint payload layouts). This module
//! writes and validates the header, re-arms an existing file for appending,
//! does the framed append and the sync, and owns the one frame scanner,
//! [`scan_frames`], with the torn-tail and interior-corruption rules the
//! journal's module docs state. Record bodies are encoded and decoded with
//! the varint primitives of [`higgs_common::codec`].
//!
//! Re-arming is split in two so a reopen reads each file once: [`scan_log`]
//! verifies a file read-only and reports what it found as a [`LogScan`], and
//! [`LogFile::arm_scanned`] opens it for appending from that report without
//! reading it again (writing a fresh header, restamping a stale file or
//! trimming a torn tail).
//!
//! # Frame checksum (format version 2 onward)
//!
//! Each frame's checksum ([`frame_checksum`]) is taken over the finished
//! body slice in one pass, a word at a time: the state starts at the FNV-1a
//! offset basis xored with the body length, each 8-byte little-endian word
//! is folded in by one step (xor the word, multiply by an odd constant,
//! rotate), the 0–7 tail bytes are folded in singly by the same step, and
//! a final avalanche mixes the state. Every step is a bijection of the state
//! for a fixed input and of the input for a fixed state, and the avalanche is
//! a bijection too, so two bodies of one length that differ in a single
//! aligned word (any bit flips confined to it) or in a single tail byte
//! always checksum differently. Version 1 folded every byte through a
//! byte-serial FNV-1a; its files, and version 2's fixed-width records, are
//! refused with the typed "unsupported … format version" error. Snapshot
//! files (format version 2) close with this same checksum, taken over the
//! whole document.

use crate::config::JournalMode;
use crate::journal::{failpoint, JournalError};
use higgs_common::codec::CodecError;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Upper bound on one record's framed body length. The largest legitimate
/// record is an insert-batch of one routed ingest chunk: 512 varint edges,
/// at most 40 bytes each in the journal and 50 with the sequence delta in
/// the history log (ids and weights at or above 2^63, timestamps far apart),
/// so at most about 25 KiB, and 2–5 KiB on typical streams. A length prefix
/// beyond this bound can only come from corruption.
pub(crate) const MAX_RECORD_BYTES: u32 = 1 << 20;

/// Upper bound on the edge count of one insert-batch record (decode-side
/// allocation guard).
pub(crate) const MAX_BATCH_EDGES: u64 = 1 << 16;

/// Byte length of the magic + version prefix every header starts with.
const HEADER_CORE_LEN: u64 = 12;

/// What tells one log format from the other: its header and the name its
/// diagnostics and append failpoint carry.
#[derive(Debug)]
pub(crate) struct LogFormat {
    /// Name used in corruption diagnostics (`"journal"`, `"history"`).
    pub(crate) name: &'static str,
    /// Magic bytes opening every file.
    pub(crate) magic: &'static [u8; 8],
    /// Format version; readers refuse any other value instead of guessing.
    pub(crate) version: u32,
    /// Whether the header ends with a covering-snapshot stamp.
    pub(crate) stamped: bool,
    /// Failpoint evaluated before every append.
    pub(crate) append_failpoint: &'static str,
}

impl LogFormat {
    /// Byte length of the full header. A file shorter than this holds no
    /// record: either nothing was ever written, or a crash tore the header
    /// write itself (creation, or a journal rotation, which only runs once
    /// the covering snapshot is durable).
    pub(crate) const fn header_len(&self) -> u64 {
        if self.stamped {
            HEADER_CORE_LEN + 8
        } else {
            HEADER_CORE_LEN
        }
    }

    /// Validates the header of an existing file at least
    /// [`header_len`](Self::header_len) bytes long, returning its stamp (`0`
    /// for an unstamped format) with the file positioned at the first record.
    fn read_header(&self, file: &mut File, shard: usize) -> Result<u64, JournalError> {
        let corrupt = |detail: String| JournalError::Corrupt {
            shard,
            record: 0,
            detail,
        };
        file.seek(SeekFrom::Start(0))?;
        let mut magic = [0u8; 8];
        file.read_exact(&mut magic)?;
        if &magic != self.magic {
            return Err(corrupt(format!("bad {} magic {magic:02x?}", self.name)));
        }
        let mut version = [0u8; 4];
        file.read_exact(&mut version)?;
        let version = u32::from_le_bytes(version);
        if version != self.version {
            return Err(corrupt(format!(
                "unsupported {} format version {version} (supported: {})",
                self.name, self.version
            )));
        }
        if !self.stamped {
            return Ok(0);
        }
        let mut stamp = [0u8; 8];
        file.read_exact(&mut stamp)?;
        Ok(u64::from_le_bytes(stamp))
    }
}

/// The append half of one log file, owned by a shard writer thread. Every
/// [`append`](Self::append) is flushed to the OS before it returns, and
/// [`JournalMode::SyncEveryN`] additionally forces the disk every `n`
/// records.
#[derive(Debug)]
pub(crate) struct LogFile {
    format: &'static LogFormat,
    sink: BufWriter<File>,
    mode: JournalMode,
    path: PathBuf,
    /// Scratch buffer each append assembles its frame in.
    frame: Vec<u8>,
    /// Records appended since the last `fsync` (drives `SyncEveryN`).
    appended_since_sync: u32,
}

impl LogFile {
    /// Opens shard `shard`'s log at `path` for appending from what a
    /// [`scan_log`] of it under the same `stamp` found, without reading it
    /// again:
    ///
    /// * [`LogScan::Empty`]: a clean header (carrying `stamp` in a stamped
    ///   format) is written and synced.
    /// * [`LogScan::Stale`]: the file is reset to an empty log carrying
    ///   `stamp`.
    /// * [`LogScan::Clean`]: the file is extended in place after any torn
    ///   trailing record (a crash mid-append) is trimmed, so new records
    ///   always start at a clean record boundary. Appending after torn
    ///   partial bytes would make the *next* scan stop at (or report Corrupt
    ///   for) the tear, silently discarding every record appended after it.
    ///
    /// The file must not have changed since the scan; one shorter than the
    /// scan's clean end is typed corruption. `mode` must not be
    /// [`JournalMode::Off`] (callers gate on the mode before arming a log).
    pub(crate) fn arm_scanned(
        format: &'static LogFormat,
        path: PathBuf,
        shard: usize,
        mode: JournalMode,
        stamp: u64,
        scan: LogScan,
    ) -> Result<Self, JournalError> {
        debug_assert!(mode != JournalMode::Off, "Off never arms a log");
        // Append mode: every write lands at EOF.
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        match scan {
            LogScan::Empty => {
                file.set_len(0)?;
                file.write_all(format.magic)?;
                file.write_all(&format.version.to_le_bytes())?;
                if format.stamped {
                    file.write_all(&stamp.to_le_bytes())?;
                }
                file.sync_all()?;
            }
            LogScan::Stale => restamp(&mut file, stamp)?,
            LogScan::Clean { clean_end } => {
                let len = file.metadata()?.len();
                if len < clean_end {
                    return Err(JournalError::Corrupt {
                        shard,
                        record: 0,
                        detail: format!(
                            "{} file shrank to {len} bytes after a scan verified {clean_end}",
                            format.name
                        ),
                    });
                }
                if clean_end < len {
                    file.set_len(clean_end)?;
                    file.sync_all()?;
                }
            }
        }
        Ok(Self {
            format,
            sink: BufWriter::new(file),
            mode,
            path,
            frame: Vec::new(),
            appended_since_sync: 0,
        })
    }

    /// Path of the log file (diagnostics and tests).
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record: `encode` writes the body's tag and payload, the
    /// length prefix and the [`frame_checksum`] are added here, and the frame
    /// is flushed to the OS (and `fsync`ed per the mode) before this returns.
    pub(crate) fn append(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), JournalError> {
        failpoint!(self.format.append_failpoint, |msg: String| {
            JournalError::Io(std::io::Error::other(msg))
        });
        // The whole frame is assembled in the scratch buffer: a placeholder
        // length prefix, the body, then the checksum and the real prefix.
        self.frame.clear();
        self.frame.extend_from_slice(&[0; 4]);
        encode(&mut self.frame);
        let checksum = frame_checksum(&self.frame[4..]);
        self.frame.extend_from_slice(&checksum.to_le_bytes());
        let len = self.frame.len() - 4;
        debug_assert!(len as u64 <= u64::from(MAX_RECORD_BYTES));
        self.frame[..4].copy_from_slice(&(len as u32).to_le_bytes());
        self.sink.write_all(&self.frame)?;
        // Out of process buffers before the caller applies the mutation.
        self.sink.flush()?;
        if let JournalMode::SyncEveryN(n) = self.mode {
            self.appended_since_sync += 1;
            if self.appended_since_sync >= n {
                self.sink.get_ref().sync_data()?;
                self.appended_since_sync = 0;
            }
        }
        Ok(())
    }

    /// Flushes and forces everything appended so far to disk, regardless of
    /// mode.
    pub(crate) fn sync(&mut self) -> Result<(), JournalError> {
        self.sink.flush()?;
        self.sink.get_ref().sync_data()?;
        self.appended_since_sync = 0;
        Ok(())
    }

    /// Truncates a stamped log back to its header, carrying `stamp`. The
    /// handle keeps appending into the emptied file.
    pub(crate) fn truncate(&mut self, stamp: u64) -> Result<(), JournalError> {
        debug_assert!(self.format.stamped, "only a stamped log rotates");
        self.sink.flush()?;
        restamp(self.sink.get_mut(), stamp)?;
        self.appended_since_sync = 0;
        Ok(())
    }
}

/// Resets a stamped file to an empty log carrying `stamp`. Cutting back to
/// the magic + version first keeps every crash point safe: a torn stamp
/// leaves a short header, which reads as empty.
fn restamp(file: &mut File, stamp: u64) -> Result<(), JournalError> {
    file.set_len(HEADER_CORE_LEN)?;
    // Append mode: this lands exactly at the end of the core header.
    file.write_all(&stamp.to_le_bytes())?;
    file.sync_all()?;
    Ok(())
}

/// Opens an existing log for reading and validates its header. `Ok(None)`
/// when the file is missing or shorter than its header (nothing was ever
/// recorded); otherwise the reader, positioned at the first record, and the
/// header's stamp (`0` for an unstamped format).
pub(crate) fn open_reader(
    format: &LogFormat,
    path: &Path,
    shard: usize,
) -> Result<Option<(BufReader<File>, u64)>, JournalError> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(JournalError::Io(e)),
    };
    if file.metadata()?.len() < format.header_len() {
        return Ok(None);
    }
    let stamp = format.read_header(&mut file, shard)?;
    Ok(Some((BufReader::new(file), stamp)))
}

/// What a read-only verifying scan of one log file found ([`scan_log`]):
/// everything [`LogFile::arm_scanned`] needs to open the file for appending
/// without reading it again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LogScan {
    /// The file is missing or shorter than its header: nothing was ever
    /// recorded.
    Empty,
    /// A stamped file carrying another stamp than the one scanned for: its
    /// records predate the covering snapshot, which already holds them.
    Stale,
    /// Every complete record verified; nothing but a torn tail lies past
    /// `clean_end`.
    Clean {
        /// One past the last complete record ([`scan_frames`]' return).
        clean_end: u64,
    },
}

/// Verifies shard `shard`'s log at `path` read-only, handing every complete
/// record body, in append order, to `on_body`: its header is validated and,
/// unless the file is missing, short or (in a stamped format) stamped other
/// than `stamp`, every frame is scanned under [`scan_frames`]' rules.
pub(crate) fn scan_log(
    format: &LogFormat,
    path: &Path,
    shard: usize,
    stamp: u64,
    on_body: impl FnMut(&[u8]) -> Result<(), CodecError>,
) -> Result<LogScan, JournalError> {
    let Some((mut reader, stored)) = open_reader(format, path, shard)? else {
        return Ok(LogScan::Empty);
    };
    if format.stamped && stored != stamp {
        return Ok(LogScan::Stale);
    }
    let clean_end = scan_frames(&mut reader, format, shard, format.header_len(), on_body)?;
    Ok(LogScan::Clean { clean_end })
}

/// The frame scanner behind every log read: reads frames from `source`
/// (positioned at byte offset `start`, which must be a record boundary),
/// verifies each complete frame's [`frame_checksum`], and hands its body
/// (tag and payload, the checksum stripped), in append order, to `on_body`,
/// which decodes it. Returns the **clean-end offset**: one past the last
/// complete record, beyond which only a torn tail (if anything) remains.
///
/// A torn tail ends the scan cleanly. A length prefix outside
/// `(8, MAX_RECORD_BYTES]`, a checksum mismatch or an `on_body` error on a
/// fully present frame is [`JournalError::Corrupt`] naming the record's index
/// counted from `start`.
pub(crate) fn scan_frames<R: Read>(
    source: &mut R,
    format: &LogFormat,
    shard: usize,
    start: u64,
    mut on_body: impl FnMut(&[u8]) -> Result<(), CodecError>,
) -> Result<u64, JournalError> {
    let mut clean_end = start;
    let mut record: u64 = 0;
    let mut frame = Vec::new();
    loop {
        let corrupt = |detail: String| JournalError::Corrupt {
            shard,
            record,
            detail,
        };
        // Clean EOF at a record boundary ends the log; a partial prefix is a
        // torn tail.
        let mut len_buf = [0u8; 4];
        if !read_exact_or_eof(source, &mut len_buf)? {
            break;
        }
        let len = u32::from_le_bytes(len_buf);
        if len <= CHECKSUM_LEN || len > MAX_RECORD_BYTES {
            return Err(corrupt(format!(
                "{} record length {len} outside ({CHECKSUM_LEN}, {MAX_RECORD_BYTES}]",
                format.name
            )));
        }
        frame.resize(len as usize, 0);
        match source.read_exact(&mut frame) {
            Ok(()) => {}
            // Fewer than `len` bytes on disk: torn tail, clean stop.
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(JournalError::Io(e)),
        }
        // All `len` bytes are present, so any verification failure is real
        // corruption, even on the final record.
        let (body, stored) = frame.split_at(frame.len() - CHECKSUM_LEN as usize);
        let mut stored_le = [0u8; 8];
        stored_le.copy_from_slice(stored);
        let (stored, computed) = (u64::from_le_bytes(stored_le), frame_checksum(body));
        if stored != computed {
            return Err(corrupt(format!(
                "{} checksum mismatch: stored {stored:#018x}, computed {computed:#018x}",
                format.name
            )));
        }
        on_body(body).map_err(|e| corrupt(e.to_string()))?;
        record += 1;
        clean_end += 4 + u64::from(len);
    }
    Ok(clean_end)
}

/// Reads exactly `buf.len()` bytes, returning `Ok(false)` on EOF, whether at
/// offset zero or after a partial read (both are torn-tail shapes for the
/// scanner).
fn read_exact_or_eof<R: Read>(source: &mut R, buf: &mut [u8]) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match source.read(&mut buf[filled..]) {
            Ok(0) => return Ok(false),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Multiplier of the checksum step: odd, so multiplying by it is a
/// bijection modulo 2^64 (the 64-bit golden-ratio constant).
const CHECKSUM_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Initial checksum state before the body length is folded in (the FNV-1a
/// offset basis).
const CHECKSUM_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Byte length of the checksum that closes every frame.
const CHECKSUM_LEN: u32 = 8;

/// One checksum step: folds `input` (a little-endian word, or one tail byte)
/// into `state`. A bijection in each argument with the other fixed; the
/// rotation carries the high bits, which a multiply never moves down, into
/// the low bits the next multiply spreads.
#[inline(always)]
fn checksum_step(state: u64, input: u64) -> u64 {
    (state ^ input).wrapping_mul(CHECKSUM_MUL).rotate_left(29)
}

/// The frame checksum of a log record body (see the [module docs](self)):
/// one step per 8-byte little-endian word, the tail bytes folded in singly,
/// then the 64-bit MurmurHash3 finaliser as the avalanche.
pub(crate) fn frame_checksum(body: &[u8]) -> u64 {
    let mut state = CHECKSUM_SEED ^ body.len() as u64;
    let mut words = body.chunks_exact(8);
    for word in &mut words {
        let mut le = [0u8; 8];
        le.copy_from_slice(word);
        state = checksum_step(state, u64::from_le_bytes(le));
    }
    for &byte in words.remainder() {
        state = checksum_step(state, u64::from(byte));
    }
    state ^= state >> 33;
    state = state.wrapping_mul(0xff51_afd7_ed55_8ccd);
    state ^= state >> 33;
    state = state.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    state ^ (state >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The frame checksum written out plainly, as the module docs state it:
    /// each word assembled byte by byte with shifts, the tail bytes folded
    /// one at a time, then the MurmurHash3 finaliser.
    fn reference_checksum(body: &[u8]) -> u64 {
        let step = |state: u64, input: u64| {
            (state ^ input)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(29)
        };
        let mut state = 0xcbf2_9ce4_8422_2325 ^ body.len() as u64;
        let whole = body.len() / 8 * 8;
        for start in (0..whole).step_by(8) {
            let mut word = 0u64;
            for (k, &byte) in body[start..start + 8].iter().enumerate() {
                word |= u64::from(byte) << (8 * k);
            }
            state = step(state, word);
        }
        for &byte in &body[whole..] {
            state = step(state, u64::from(byte));
        }
        state ^= state >> 33;
        state = state.wrapping_mul(0xff51_afd7_ed55_8ccd);
        state ^= state >> 33;
        state = state.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        state ^ (state >> 33)
    }

    /// A deterministic pseudo-random body of `len` bytes.
    fn body(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        for len in 1..=80 {
            let original = body(len, len as u64);
            let sum = frame_checksum(&original);
            for bit in 0..len * 8 {
                let mut flipped = original.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(frame_checksum(&flipped), sum, "len {len}, bit {bit}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn checksum_matches_the_plain_reference(
            body in proptest::collection::vec(0u8..=255, 1..601),
        ) {
            proptest::prop_assert_eq!(frame_checksum(&body), reference_checksum(&body));
        }

        /// Each step is a bijection of the word for a fixed state and of the
        /// state for a fixed word, so a change confined to one aligned word
        /// (or, past the last whole word, to one tail byte) always changes
        /// the checksum.
        #[test]
        fn every_change_confined_to_one_word_is_detected(
            body in proptest::collection::vec(0u8..=255, 1..601),
            pick in 0usize..600,
            mask in 1u64..=u64::MAX,
        ) {
            let mut changed = body.clone();
            let words = body.len() / 8;
            let tail = body.len() % 8;
            let slot = pick % (words + tail);
            if slot < words {
                for (k, byte) in changed[slot * 8..slot * 8 + 8].iter_mut().enumerate() {
                    *byte ^= (mask >> (8 * k)) as u8;
                }
            } else {
                // `mask` is nonzero, so one of its bytes is; use the lowest.
                let byte = (mask >> (8 * (mask.trailing_zeros() / 8))) as u8;
                changed[words * 8 + slot - words] ^= byte;
            }
            proptest::prop_assert_ne!(changed, body.clone());
            proptest::prop_assert_ne!(frame_checksum(&changed), frame_checksum(&body));
        }

        #[test]
        fn swapping_two_distinct_words_is_detected(
            body in proptest::collection::vec(0u8..=255, 16..601),
            first in 0usize..75,
            second in 0usize..75,
        ) {
            let words = body.len() / 8;
            let (i, j) = (first % words, second % words);
            let (wi, wj) = (&body[i * 8..i * 8 + 8], &body[j * 8..j * 8 + 8]);
            if wi != wj {
                let mut swapped = body.clone();
                swapped[i * 8..i * 8 + 8].copy_from_slice(wj);
                swapped[j * 8..j * 8 + 8].copy_from_slice(wi);
                proptest::prop_assert_ne!(frame_checksum(&swapped), frame_checksum(&body));
            }
        }
    }
}
