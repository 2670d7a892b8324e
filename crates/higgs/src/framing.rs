//! Record framing shared by the two per-shard logs, the write-ahead
//! [`journal`](crate::journal) and the elastic [`history`](crate::history)
//! log, which are record codecs over this core.
//!
//! A log file is a header (magic, version, and in a *stamped* format the
//! covering-snapshot checksum) followed by records framed as
//! `len u32 LE | body`, where the body is `tag u8 | payload | FNV-1a u64`
//! (see the journal's module docs for the byte layout). This module writes
//! and validates the header, re-arms an existing file for appending, does the
//! framed append and the sync, and owns the one frame scanner,
//! [`scan_frames`], with the torn-tail and interior-corruption rules the
//! journal's module docs state.

use crate::config::JournalMode;
use crate::journal::{failpoint, JournalError};
use higgs_common::codec::{CodecError, Decoder, Encoder};
use higgs_common::StreamEdge;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Upper bound on one record's framed body length. The largest legitimate
/// record is an insert-batch of one routed ingest chunk (512 edges, about
/// 16 KiB in the journal, plus an 8-byte sequence number per edge in the
/// history log); a length prefix beyond this bound can only come from
/// corruption.
pub(crate) const MAX_RECORD_BYTES: u32 = 1 << 20;

/// Upper bound on the edge count of one insert-batch record (decode-side
/// allocation guard, mirroring the snapshot module's `MAX_PREALLOC`).
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
    shard: usize,
    path: PathBuf,
    /// Scratch buffer each append encodes its body into.
    body: Vec<u8>,
    /// Records appended since the last `fsync` (drives `SyncEveryN`).
    appended_since_sync: u32,
}

impl LogFile {
    /// Opens (creating if absent) shard `shard`'s log at `path` for
    /// appending.
    ///
    /// * A fresh file, or one shorter than its header, gets a clean header
    ///   (carrying `stamp` in a stamped format) written and synced.
    /// * An existing file of a stamped format whose stamp is not `stamp` is
    ///   stale and reset to an empty log carrying `stamp`.
    /// * Otherwise the file is extended in place after any torn trailing
    ///   record (a crash mid-append) is trimmed, so new records always start
    ///   at a clean record boundary. `check` runs on every complete body on
    ///   the way; its error is typed corruption.
    ///
    /// `mode` must not be [`JournalMode::Off`] (callers gate on the mode
    /// before arming a log).
    pub(crate) fn arm(
        format: &'static LogFormat,
        path: PathBuf,
        shard: usize,
        mode: JournalMode,
        stamp: u64,
        check: impl FnMut(&[u8]) -> Result<(), CodecError>,
    ) -> Result<Self, JournalError> {
        debug_assert!(mode != JournalMode::Off, "Off never arms a log");
        let mut file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(&path)?;
        let len = file.metadata()?.len();
        if len < format.header_len() {
            // The file is in append mode, so each write lands at EOF.
            file.set_len(0)?;
            file.write_all(format.magic)?;
            file.write_all(&format.version.to_le_bytes())?;
            if format.stamped {
                file.write_all(&stamp.to_le_bytes())?;
            }
            file.sync_all()?;
        } else {
            let stored = format.read_header(&mut file, shard)?;
            if format.stamped && stored != stamp {
                restamp(&mut file, stamp)?;
            } else {
                // Appending after torn partial bytes would make the *next*
                // scan stop at (or report Corrupt for) the tear, silently
                // discarding every record appended after it.
                let clean_end = scan_frames(
                    &mut BufReader::new(&mut file),
                    format,
                    shard,
                    format.header_len(),
                    check,
                )?;
                if clean_end < len {
                    file.set_len(clean_end)?;
                    file.sync_all()?;
                }
                file.seek(SeekFrom::End(0))?;
            }
        }
        Ok(Self {
            format,
            sink: BufWriter::new(file),
            mode,
            shard,
            path,
            body: Vec::new(),
            appended_since_sync: 0,
        })
    }

    /// Path of the log file (diagnostics and tests).
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record: `encode` writes the body's tag and payload, the
    /// per-record checksum and the length prefix are added here, and the
    /// frame is flushed to the OS (and `fsync`ed per the mode) before this
    /// returns.
    pub(crate) fn append(
        &mut self,
        encode: impl FnOnce(&mut Encoder<&mut Vec<u8>>) -> Result<(), CodecError>,
    ) -> Result<(), JournalError> {
        failpoint!(self.format.append_failpoint, |msg: String| {
            JournalError::Io(std::io::Error::other(msg))
        });
        self.body.clear();
        let mut enc = Encoder::new(&mut self.body);
        encode(&mut enc)
            .and_then(|()| enc.finish_with_checksum().map(drop))
            .map_err(|e| JournalError::Corrupt {
                shard: self.shard,
                record: 0,
                detail: format!("{} encode failed: {e}", self.format.name),
            })?;
        debug_assert!(self.body.len() as u64 <= u64::from(MAX_RECORD_BYTES));
        self.sink
            .write_all(&(self.body.len() as u32).to_le_bytes())?;
        self.sink.write_all(&self.body)?;
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

/// The frame scanner behind every log read: reads frames from `source`
/// (positioned at byte offset `start`, which must be a record boundary) and
/// hands each complete body, in append order, to `on_body`, which decodes and
/// verifies it. Returns the **clean-end offset**: one past the last complete
/// record, beyond which only a torn tail (if anything) remains.
///
/// A torn tail ends the scan cleanly. A length prefix outside
/// `(0, MAX_RECORD_BYTES]`, or an `on_body` error on a fully present body, is
/// [`JournalError::Corrupt`] naming the record's index counted from `start`.
pub(crate) fn scan_frames<R: Read>(
    source: &mut R,
    format: &LogFormat,
    shard: usize,
    start: u64,
    mut on_body: impl FnMut(&[u8]) -> Result<(), CodecError>,
) -> Result<u64, JournalError> {
    let mut clean_end = start;
    let mut record: u64 = 0;
    let mut body = Vec::new();
    loop {
        // Clean EOF at a record boundary ends the log; a partial prefix is a
        // torn tail.
        let mut len_buf = [0u8; 4];
        if !read_exact_or_eof(source, &mut len_buf)? {
            break;
        }
        let len = u32::from_le_bytes(len_buf);
        if len == 0 || len > MAX_RECORD_BYTES {
            return Err(JournalError::Corrupt {
                shard,
                record,
                detail: format!(
                    "{} record length {len} outside (0, {MAX_RECORD_BYTES}]",
                    format.name
                ),
            });
        }
        body.resize(len as usize, 0);
        match source.read_exact(&mut body) {
            Ok(()) => {}
            // Fewer than `len` body bytes on disk: torn tail, clean stop.
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(JournalError::Io(e)),
        }
        // All `len` bytes are present, so any verification failure is real
        // corruption, even on the final record.
        on_body(&body).map_err(|e| JournalError::Corrupt {
            shard,
            record,
            detail: e.to_string(),
        })?;
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

/// Encodes one edge as four LE `u64`s (source, destination, weight,
/// timestamp), the layout both logs' payloads share.
pub(crate) fn put_edge<W: Write>(
    enc: &mut Encoder<W>,
    edge: &StreamEdge,
) -> Result<(), CodecError> {
    enc.put_u64(edge.src)?;
    enc.put_u64(edge.dst)?;
    enc.put_u64(edge.weight)?;
    enc.put_u64(edge.timestamp)
}

/// Decodes one edge written by [`put_edge`].
pub(crate) fn get_edge<R: Read>(dec: &mut Decoder<R>) -> Result<StreamEdge, CodecError> {
    Ok(StreamEdge {
        src: dec.get_u64()?,
        dst: dec.get_u64()?,
        weight: dec.get_u64()?,
        timestamp: dec.get_u64()?,
    })
}

/// Verifies the trailing checksum of a body decoded by `dec` and that the
/// decode consumed the whole body: the last step of both codecs' decoders.
pub(crate) fn finish_body(
    dec: &mut Decoder<&[u8]>,
    body: &[u8],
    name: &str,
) -> Result<(), CodecError> {
    dec.verify_checksum()?;
    // `bytes_read` includes the trailing checksum the verify consumed.
    if dec.bytes_read() != body.len() as u64 {
        return Err(CodecError::Invalid(format!(
            "{name} record declared {} body bytes but {} were consumed",
            body.len(),
            dec.bytes_read()
        )));
    }
    Ok(())
}
