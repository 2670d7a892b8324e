//! Per-shard write-ahead journal: the durability floor under
//! [`ShardedHiggs`](crate::ShardedHiggs).
//!
//! A snapshot ([`snapshot`](crate::snapshot)) captures a summary at one
//! instant; every mutation after it lives only in memory. The journal closes
//! that window: a *durable* service (see [`Store::open`](crate::Store::open)
//! with [`StoreOptions::durable`](crate::StoreOptions::durable)) has each
//! shard's writer thread append every `Insert` / `InsertBatch` / `Delete`
//! command to an append-only, per-record-checksummed log **before** applying
//! it, so after a crash the state is reconstructed as
//! `snapshot + journal tail replay`.
//!
//! # File format
//!
//! One file per shard in the durable directory ([`journal_file_name`]:
//! `journal-NNN.higgs`), sitting next to the shard snapshot files:
//!
//! ```text
//! magic "HIGGSJNL" (8 bytes) | format version (u32 LE) | covering snapshot checksum (u64 LE)
//! record*
//! ```
//!
//! The *covering snapshot checksum* is the trailing document checksum of the
//! manifest this journal's records extend (`0` before the first snapshot).
//! Replay compares it against the manifest actually on disk: a mismatch
//! means the journal predates the manifest — the crash landed between the
//! manifest becoming durable and the rotation truncating the journals — so
//! its records are **already in the snapshot** and are discarded instead of
//! double-applied.
//!
//! Each record is independently framed and checksummed — unlike snapshot
//! files, which close with one document checksum, because a journal must be
//! verifiable up to an arbitrary torn point:
//!
//! ```text
//! len (u32 LE) | body (len bytes) = tag u8 | payload | FNV-1a checksum (u64 LE)
//! ```
//!
//! with the payload encoded by [`higgs_common::codec::Encoder`] (tag 1 =
//! insert: one edge; tag 2 = insert-batch: count + edges; tag 3 = delete:
//! one edge; an edge is four LE `u64`s).
//!
//! # Torn tails vs. interior corruption
//!
//! [`replay`] distinguishes the two failure shapes deliberately:
//!
//! * **Truncated tail** — the process died mid-append, so the file ends with
//!   a partial length prefix or fewer than `len` body bytes. That is the
//!   *expected* crash artifact; replay stops cleanly after the last complete
//!   record (the torn record was never applied-and-acknowledged under
//!   write-ahead ordering, so nothing is lost).
//! * **Interior corruption** — a record's bytes are all present but its
//!   checksum (or structure) does not verify. That means storage corruption,
//!   not a crash, and replaying past it could silently diverge; replay fails
//!   with a typed [`JournalError::Corrupt`] naming shard and record index.
//!
//! # Rotation fence
//!
//! A successful [`snapshot_to_dir`](crate::ShardedHiggs::snapshot_to_dir)
//! into the durable directory truncates each shard's journal back to the
//! header *under a writer fence*: every writer parks before the shard files
//! are read and truncates only after the manifest is durable, so each
//! mutation is in exactly one of {snapshot, journal} — never both (replay
//! would double-apply: inserts are not idempotent) and never neither. A
//! failed snapshot leaves every journal intact. The truncation stamps the
//! new manifest's checksum into the journal header, so even a crash *inside*
//! the commit window (manifest durable, journals not yet truncated) cannot
//! double-apply: recovery sees the stale stamp and discards the journal.

use crate::config::JournalMode;
use crate::tree::HiggsSummary;
use higgs_common::codec::{CodecError, Decoder, Encoder};
use higgs_common::StreamEdge;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every journal file.
pub const JOURNAL_MAGIC: &[u8; 8] = b"HIGGSJNL";

/// Current journal format version. Bumped on any layout change; replay
/// refuses newer-than-supported files instead of guessing.
pub const JOURNAL_FORMAT_VERSION: u32 = 1;

/// Byte length of the magic + version prefix of the header.
const HEADER_CORE_LEN: u64 = 12;

/// Byte length of the full file header (magic + version + covering snapshot
/// checksum). A file shorter than this replays as empty: either nothing was
/// ever journaled, or a crash tore a rotation mid-header — and a rotation
/// only runs once the covering snapshot is durable. The follower's segment
/// cursor ([`scan_tail`]) starts here.
pub(crate) const HEADER_LEN: u64 = 20;

/// Upper bound on one record's framed body length. The largest legitimate
/// record is an insert-batch of one routed ingest chunk (512 edges ≈ 16 KiB);
/// a length prefix beyond this bound can only come from corruption. Shared
/// with the elastic history log, whose records carry the same batch bound
/// plus an 8-byte sequence number per edge.
pub(crate) const MAX_RECORD_BYTES: u32 = 1 << 20;

/// Upper bound on the edge count of one insert-batch record (decode-side
/// allocation guard, mirroring the snapshot module's `MAX_PREALLOC`).
pub(crate) const MAX_BATCH_EDGES: u64 = 1 << 16;

/// Why a journal operation failed.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// A fully-present interior record failed checksum or structural
    /// verification: storage corruption, not a torn crash tail. Replay
    /// refuses to continue past it.
    Corrupt {
        /// Shard whose journal is corrupt.
        shard: usize,
        /// Zero-based index of the corrupt record.
        record: u64,
        /// What failed to verify.
        detail: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Corrupt {
                shard,
                record,
                detail,
            } => {
                write!(
                    f,
                    "journal for shard {shard} corrupt at record {record}: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            JournalError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Named failpoint hooks (see `crates/shims/failpoint`). With the
/// `failpoints` feature the hook evaluates the registry: an injected error
/// maps through `$map` into an early `return Err(..)`, an injected panic
/// unwinds from here, an injected delay stalls the path. Without the feature
/// both forms compile to nothing, so production builds carry zero overhead.
#[cfg(feature = "failpoints")]
macro_rules! failpoint {
    ($name:expr) => {
        let _ = fail::eval($name);
    };
    ($name:expr, $map:expr) => {
        if let Some(msg) = fail::eval($name) {
            return Err(($map)(msg));
        }
    };
}

/// No-op twin of the `failpoints`-gated hook: default builds compile every
/// instrumented path with the hook erased.
#[cfg(not(feature = "failpoints"))]
macro_rules! failpoint {
    ($name:expr) => {};
    ($name:expr, $map:expr) => {};
}

pub(crate) use failpoint;

/// File name of shard `shard`'s journal inside a durable directory
/// (`journal-000.higgs`, `journal-001.higgs`, …), next to the snapshot's
/// `shard-NNN.higgs` files.
pub fn journal_file_name(shard: usize) -> String {
    format!("journal-{shard:03}.higgs")
}

/// One journaled mutation, mirroring the shard writer's command set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalRecord {
    /// A single inserted edge.
    Insert(StreamEdge),
    /// A routed batch of inserted edges (one ingest chunk).
    InsertBatch(Vec<StreamEdge>),
    /// A single deleted (reversed) edge.
    Delete(StreamEdge),
}

/// Record tags (the body's leading byte).
const TAG_INSERT: u8 = 1;
const TAG_INSERT_BATCH: u8 = 2;
const TAG_DELETE: u8 = 3;

pub(crate) fn put_edge<W: Write>(
    enc: &mut Encoder<W>,
    edge: &StreamEdge,
) -> Result<(), CodecError> {
    enc.put_u64(edge.src)?;
    enc.put_u64(edge.dst)?;
    enc.put_u64(edge.weight)?;
    enc.put_u64(edge.timestamp)
}

pub(crate) fn get_edge<R: Read>(dec: &mut Decoder<R>) -> Result<StreamEdge, CodecError> {
    Ok(StreamEdge {
        src: dec.get_u64()?,
        dst: dec.get_u64()?,
        weight: dec.get_u64()?,
        timestamp: dec.get_u64()?,
    })
}

/// A borrowed view of one journalable mutation: what the shard writer hands
/// to [`Journal::append_insert`] and friends without cloning batch payloads
/// into an owned [`JournalRecord`] first.
#[derive(Clone, Copy)]
enum RecordShape<'a> {
    Insert(&'a StreamEdge),
    InsertBatch(&'a [StreamEdge]),
    Delete(&'a StreamEdge),
}

/// Encodes a record body — tag, payload, trailing per-record checksum — into
/// a fresh buffer ready to be framed with a length prefix. Shared by the
/// owned and borrowed append paths so both produce identical bytes.
fn encode_record_body(shape: RecordShape<'_>) -> Result<Vec<u8>, CodecError> {
    let mut body = Vec::with_capacity(48);
    let mut enc = Encoder::new(&mut body);
    match shape {
        RecordShape::Insert(edge) => {
            enc.put_u8(TAG_INSERT)?;
            put_edge(&mut enc, edge)?;
        }
        RecordShape::InsertBatch(edges) => {
            enc.put_u8(TAG_INSERT_BATCH)?;
            enc.put_u64(edges.len() as u64)?;
            for edge in edges {
                put_edge(&mut enc, edge)?;
            }
        }
        RecordShape::Delete(edge) => {
            enc.put_u8(TAG_DELETE)?;
            put_edge(&mut enc, edge)?;
        }
    }
    enc.finish_with_checksum()?;
    Ok(body)
}

impl JournalRecord {
    /// The borrowed view of this owned record.
    fn shape(&self) -> RecordShape<'_> {
        match self {
            JournalRecord::Insert(edge) => RecordShape::Insert(edge),
            JournalRecord::InsertBatch(edges) => RecordShape::InsertBatch(edges),
            JournalRecord::Delete(edge) => RecordShape::Delete(edge),
        }
    }

    /// Decodes one record body (as framed by [`encode_record_body`]),
    /// verifying the per-record checksum.
    fn decode_body(body: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Decoder::new(body);
        let record = match dec.get_u8()? {
            TAG_INSERT => JournalRecord::Insert(get_edge(&mut dec)?),
            TAG_INSERT_BATCH => {
                let count = dec.get_len(MAX_BATCH_EDGES, "journal batch edge count")?;
                let mut edges = Vec::with_capacity(count);
                for _ in 0..count {
                    edges.push(get_edge(&mut dec)?);
                }
                JournalRecord::InsertBatch(edges)
            }
            TAG_DELETE => JournalRecord::Delete(get_edge(&mut dec)?),
            other => {
                return Err(CodecError::Invalid(format!(
                    "unknown journal record tag {other}"
                )))
            }
        };
        dec.verify_checksum()?;
        // `bytes_read` includes the trailing checksum the verify consumed.
        if dec.bytes_read() != body.len() as u64 {
            return Err(CodecError::Invalid(format!(
                "journal record declared {} body bytes but {} were consumed",
                body.len(),
                dec.bytes_read()
            )));
        }
        Ok(record)
    }

    /// Number of edges this record mutates (diagnostics / test assertions).
    pub fn edge_count(&self) -> usize {
        match self {
            JournalRecord::Insert(_) | JournalRecord::Delete(_) => 1,
            JournalRecord::InsertBatch(edges) => edges.len(),
        }
    }
}

/// The append half of one shard's write-ahead journal, owned by that shard's
/// writer thread. Created by [`Journal::open`] against the durable
/// directory; every [`append`](Self::append) is flushed to the OS before it
/// returns (write-ahead ordering: the record is out of process buffers
/// before the mutation is applied), and [`JournalMode::SyncEveryN`]
/// additionally forces the disk every `n` records.
#[derive(Debug)]
pub struct Journal {
    sink: BufWriter<File>,
    mode: JournalMode,
    shard: usize,
    path: PathBuf,
    /// Records appended since the last `fsync` (drives `SyncEveryN`).
    appended_since_sync: u32,
}

impl Journal {
    /// Opens (creating if absent) shard `shard`'s journal in `dir` for
    /// appending. `covering` is the checksum of the snapshot manifest the
    /// journal extends (`0` when the directory holds no manifest; the
    /// snapshot module derives it from the manifest's trailing checksum
    /// footer). A fresh or empty file
    /// gets the header written and synced; an existing journal — the
    /// post-crash re-arm path — is extended in place after its header is
    /// validated and any torn trailing record (a crash mid-append) is
    /// trimmed, so new records always start at a clean record boundary.
    /// An existing journal stamped with a *different* covering
    /// checksum is stale (its records live in the snapshot already — the
    /// crash hit between manifest sync and rotation) and is reset to empty.
    ///
    /// `mode` must not be [`JournalMode::Off`] (callers gate on the mode
    /// before constructing a journal).
    pub fn open(
        dir: &Path,
        shard: usize,
        mode: JournalMode,
        covering: u64,
    ) -> Result<Self, JournalError> {
        debug_assert!(mode != JournalMode::Off, "Off never constructs a journal");
        let path = dir.join(journal_file_name(shard));
        let mut file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(&path)?;
        let len = file.metadata()?.len();
        if len < HEADER_LEN {
            // Fresh journal (or a crash tore the header write itself, in
            // which case no record can exist): start from a clean header.
            // The file is in append mode, so each write lands at EOF.
            file.set_len(0)?;
            file.write_all(JOURNAL_MAGIC)?;
            file.write_all(&JOURNAL_FORMAT_VERSION.to_le_bytes())?;
            file.write_all(&covering.to_le_bytes())?;
            file.sync_all()?;
        } else {
            let stored = validate_header(&mut file, shard)?;
            if stored != covering {
                // Stale journal: reset to an empty one stamped with the
                // current manifest. Truncating to the core first keeps every
                // crash point safe (a short header replays as empty).
                file.set_len(HEADER_CORE_LEN)?;
                file.write_all(&covering.to_le_bytes())?;
                file.sync_all()?;
            } else {
                // Post-crash re-arm: trim any torn tail before appending.
                // Appending after torn partial bytes would make the *next*
                // replay stop at (or report Corrupt for) the tear, silently
                // discarding every record this session journals after it.
                let (_, clean_end) = {
                    let mut source = BufReader::new(&mut file);
                    scan_records(&mut source, shard, HEADER_LEN)?
                };
                if clean_end < len {
                    file.set_len(clean_end)?;
                    file.sync_all()?;
                }
                file.seek(SeekFrom::End(0))?;
            }
        }
        Ok(Self {
            sink: BufWriter::new(file),
            mode,
            shard,
            path,
            appended_since_sync: 0,
        })
    }

    /// Path of the journal file (diagnostics and tests).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record: length-prefixed, per-record-checksummed, flushed
    /// to the OS before returning, and `fsync`ed per the journal's
    /// [`JournalMode`]. The shard writer calls this **before** applying the
    /// mutation, so a crash can lose at most a record that was never
    /// applied.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        self.append_shape(record.shape())
    }

    /// Appends a single-insert record from a borrowed edge (the writer-thread
    /// hot path: no owned [`JournalRecord`] is built).
    pub fn append_insert(&mut self, edge: &StreamEdge) -> Result<(), JournalError> {
        self.append_shape(RecordShape::Insert(edge))
    }

    /// Appends an insert-batch record from a borrowed slice, without cloning
    /// the batch.
    pub fn append_insert_batch(&mut self, edges: &[StreamEdge]) -> Result<(), JournalError> {
        self.append_shape(RecordShape::InsertBatch(edges))
    }

    /// Appends a delete record from a borrowed edge.
    pub fn append_delete(&mut self, edge: &StreamEdge) -> Result<(), JournalError> {
        self.append_shape(RecordShape::Delete(edge))
    }

    /// The single framed-write path behind every append surface. All paths
    /// share the `journal::append` failpoint, so fault-injection tests cover
    /// singles, batches and deletes alike.
    fn append_shape(&mut self, shape: RecordShape<'_>) -> Result<(), JournalError> {
        failpoint!("journal::append", |msg: String| JournalError::Io(
            std::io::Error::other(msg)
        ));
        let body = encode_record_body(shape).map_err(|e| JournalError::Corrupt {
            shard: self.shard,
            record: 0,
            detail: format!("encode failed: {e}"),
        })?;
        debug_assert!(body.len() as u64 <= u64::from(MAX_RECORD_BYTES));
        self.sink.write_all(&(body.len() as u32).to_le_bytes())?;
        self.sink.write_all(&body)?;
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

    /// Flushes and forces everything appended so far to disk (used at the
    /// snapshot fence, regardless of mode).
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.sink.flush()?;
        self.sink.get_ref().sync_data()?;
        self.appended_since_sync = 0;
        Ok(())
    }

    /// Truncates the journal back to its header and stamps `covering` — the
    /// just-written manifest's checksum — into it. This is the rotation
    /// fence's commit step, called only after the covering snapshot's
    /// manifest is durable. Every crash point is safe: a torn header (the
    /// file cut inside the stamp) replays as empty, which is correct because
    /// the snapshot already holds every truncated record.
    pub fn truncate(&mut self, covering: u64) -> Result<(), JournalError> {
        self.sink.flush()?;
        let file = self.sink.get_mut();
        file.set_len(HEADER_CORE_LEN)?;
        // Append mode: this lands exactly at the end of the core header.
        file.write_all(&covering.to_le_bytes())?;
        file.sync_all()?;
        self.appended_since_sync = 0;
        Ok(())
    }
}

/// Validates the 20-byte header of an existing journal file (the caller has
/// already checked the length), returning the stored covering-snapshot
/// checksum.
fn validate_header(file: &mut File, shard: usize) -> Result<u64, JournalError> {
    file.seek(SeekFrom::Start(0))?;
    let mut magic = [0u8; 8];
    file.read_exact(&mut magic)?;
    if &magic != JOURNAL_MAGIC {
        return Err(JournalError::Corrupt {
            shard,
            record: 0,
            detail: format!("bad magic {magic:02x?}"),
        });
    }
    let mut version = [0u8; 4];
    file.read_exact(&mut version)?;
    let version = u32::from_le_bytes(version);
    if version != JOURNAL_FORMAT_VERSION {
        return Err(JournalError::Corrupt {
            shard,
            record: 0,
            detail: format!(
                "unsupported journal format version {version} (supported: {JOURNAL_FORMAT_VERSION})"
            ),
        });
    }
    let mut covering = [0u8; 8];
    file.read_exact(&mut covering)?;
    Ok(u64::from_le_bytes(covering))
}

/// Replays shard `shard`'s journal from `dir`, returning every complete,
/// checksum-verified record in append order. `covering` is the checksum of
/// the manifest currently in the directory (`0` when there is none); a
/// journal stamped with a different value predates that manifest — its
/// records are already inside the snapshot — and replays as empty.
///
/// * A missing file, a file shorter than its header, or a header-only file
///   replays as zero records (a journal that never recorded anything).
/// * A **torn tail** — the file ends inside a length prefix or record body —
///   stops the replay cleanly after the last complete record.
/// * **Interior corruption** — a fully-present record failing checksum or
///   structural verification — fails with [`JournalError::Corrupt`].
pub fn replay(dir: &Path, shard: usize, covering: u64) -> Result<Vec<JournalRecord>, JournalError> {
    let path = dir.join(journal_file_name(shard));
    let mut file = match File::open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(JournalError::Io(e)),
    };
    if file.metadata()?.len() < HEADER_LEN {
        // The header write itself was torn: nothing was ever journaled (a
        // header only tears during initial creation or a rotation commit,
        // and both leave nothing that still needs replaying).
        return Ok(Vec::new());
    }
    if validate_header(&mut file, shard)? != covering {
        // Stale: the crash hit between the manifest becoming durable and
        // the rotation truncating this journal. Every record here is
        // already inside the snapshot; replaying would double-apply.
        return Ok(Vec::new());
    }
    let mut source = BufReader::new(file);
    let (records, _) = scan_records(&mut source, shard, HEADER_LEN)?;
    Ok(records)
}

/// One incremental read of a journal's tail: everything a warm follower needs
/// to extend its replica past its current cursor (see
/// [`Follower::sync`](crate::replica::Follower::sync)).
pub(crate) struct JournalTail {
    /// The covering-snapshot checksum stamped in the journal's header. The
    /// follower compares it against the stamp its replica was bootstrapped
    /// under: a mismatch means the leader rotated (snapshotted + truncated)
    /// since the follower last synced, so byte offsets are no longer
    /// comparable.
    pub(crate) covering: u64,
    /// Every complete, checksum-verified record from the cursor onward, in
    /// append order.
    pub(crate) records: Vec<JournalRecord>,
    /// The byte offset one past the last complete record — the follower's
    /// next cursor position.
    pub(crate) clean_end: u64,
}

/// Scans shard `shard`'s journal in `dir` from byte offset `from` (clamped to
/// the record region), returning the header stamp plus every complete record
/// at or past the cursor. `Ok(None)` when the journal does not exist yet or
/// its header is torn — "nothing shipped yet", not an error. A torn tail
/// stops the scan cleanly (those bytes re-scan next call); interior
/// corruption past the cursor is a typed [`JournalError::Corrupt`].
pub(crate) fn scan_tail(
    dir: &Path,
    shard: usize,
    from: u64,
) -> Result<Option<JournalTail>, JournalError> {
    let path = dir.join(journal_file_name(shard));
    let mut file = match File::open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(JournalError::Io(e)),
    };
    if file.metadata()?.len() < HEADER_LEN {
        return Ok(None);
    }
    let covering = validate_header(&mut file, shard)?;
    let start = from.max(HEADER_LEN);
    file.seek(SeekFrom::Start(start))?;
    let mut source = BufReader::new(file);
    let (records, clean_end) = scan_records(&mut source, shard, start)?;
    Ok(Some(JournalTail {
        covering,
        records,
        clean_end,
    }))
}

/// Scans a journal's record region (the reader positioned at byte offset
/// `start`, which must be a record boundary), returning every complete,
/// checksum-verified record in append order together with the **clean-end
/// byte offset**: the file offset one past the last complete record, beyond
/// which only a torn tail (if anything) remains. [`replay`] uses the records;
/// [`Journal::open`] uses the offset to trim a torn tail before re-arming the
/// journal for appends; [`scan_tail`] uses both to ship the tail to a
/// follower incrementally.
fn scan_records<R: Read>(
    source: &mut R,
    shard: usize,
    start: u64,
) -> Result<(Vec<JournalRecord>, u64), JournalError> {
    let mut records = Vec::new();
    let mut clean_end = start;
    loop {
        // Length prefix. Clean EOF at a record boundary ends the journal;
        // a partial prefix is a torn tail (stop scanning, keep the prefix).
        let mut len_buf = [0u8; 4];
        match read_exact_or_eof(source, &mut len_buf) {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => return Err(JournalError::Io(e)),
        }
        let len = u32::from_le_bytes(len_buf);
        if len == 0 || len > MAX_RECORD_BYTES {
            return Err(JournalError::Corrupt {
                shard,
                record: records.len() as u64,
                detail: format!("record length {len} outside (0, {MAX_RECORD_BYTES}]"),
            });
        }
        let mut body = vec![0u8; len as usize];
        match source.read_exact(&mut body) {
            Ok(()) => {}
            // Fewer than `len` body bytes on disk: torn tail, clean stop.
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(JournalError::Io(e)),
        }
        // All `len` bytes are present, so any verification failure is real
        // corruption — even on the final record.
        let record = JournalRecord::decode_body(&body).map_err(|e| JournalError::Corrupt {
            shard,
            record: records.len() as u64,
            detail: e.to_string(),
        })?;
        records.push(record);
        clean_end += 4 + u64::from(len);
    }
    Ok((records, clean_end))
}

/// Reads exactly `buf.len()` bytes, returning `Ok(false)` on clean EOF at
/// offset zero and treating a *partial* read ending in EOF the same way
/// (both are torn-tail shapes for the caller).
pub(crate) fn read_exact_or_eof<R: Read>(source: &mut R, buf: &mut [u8]) -> std::io::Result<bool> {
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

/// Applies replayed records to a shard summary in append order — the second
/// half of `snapshot + journal tail replay` recovery. Mutations go through
/// the summary's normal insert/delete path, aggregating as they land.
pub(crate) fn apply_records(summary: &mut HiggsSummary, records: Vec<JournalRecord>) {
    for record in records {
        match record {
            JournalRecord::Insert(edge) => summary.insert_edge(&edge),
            JournalRecord::InsertBatch(edges) => {
                for edge in &edges {
                    summary.insert_edge(edge);
                }
            }
            JournalRecord::Delete(edge) => summary.delete_edge(&edge),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "higgs-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn edge(i: u64) -> StreamEdge {
        StreamEdge::new(i, i + 1, 1 + i % 5, i)
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Insert(edge(1)),
            JournalRecord::InsertBatch((0..20).map(edge).collect()),
            JournalRecord::Delete(edge(3)),
            JournalRecord::Insert(edge(4)),
        ]
    }

    fn write_records(dir: &Path, shard: usize, records: &[JournalRecord]) {
        let mut journal = Journal::open(dir, shard, JournalMode::Buffered, 0).expect("open");
        for r in records {
            journal.append(r).expect("append");
        }
    }

    #[test]
    fn records_round_trip_in_append_order() {
        let dir = temp_dir("roundtrip");
        let records = sample_records();
        write_records(&dir, 0, &records);
        assert_eq!(replay(&dir, 0, 0).expect("replay"), records);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn missing_and_empty_journals_replay_to_nothing() {
        let dir = temp_dir("empty");
        // Missing file.
        assert_eq!(replay(&dir, 0, 0).expect("missing"), Vec::new());
        // Header-only file (opened but never appended).
        let journal = Journal::open(&dir, 0, JournalMode::Buffered, 0).expect("open");
        drop(journal);
        assert_eq!(replay(&dir, 0, 0).expect("header only"), Vec::new());
        // A torn header (shorter than HEADER_LEN) means nothing was ever
        // journaled: replay cleanly as empty.
        std::fs::write(dir.join(journal_file_name(1)), b"HIG").expect("torn header");
        assert_eq!(replay(&dir, 1, 0).expect("torn header"), Vec::new());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn torn_tail_replays_the_prefix() {
        let dir = temp_dir("torn");
        let records = sample_records();
        write_records(&dir, 0, &records);
        let path = dir.join(journal_file_name(0));
        let full = std::fs::read(&path).expect("read journal");

        // Truncate at every byte boundary inside the final record (including
        // inside its length prefix): replay must return exactly the first
        // three records every time — never an error, never a partial fourth.
        let last_body_len = encode_record_body(records[3].shape())
            .expect("encode")
            .len();
        let last_record_len = 4 + last_body_len;
        let prefix_end = full.len() - last_record_len;
        for cut in prefix_end..full.len() {
            std::fs::write(&path, &full[..cut]).expect("truncate");
            let replayed = replay(&dir, 0, 0).expect("torn tail must replay cleanly");
            assert_eq!(replayed, records[..3], "cut at byte {cut}");
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn interior_bit_flip_is_typed_corruption() {
        let dir = temp_dir("bitflip");
        let records = sample_records();
        write_records(&dir, 0, &records);
        let path = dir.join(journal_file_name(0));
        let full = std::fs::read(&path).expect("read journal");

        // Flip one bit inside the second record's body: every record is
        // individually checksummed, so replay must fail with Corrupt naming
        // that record — not stop early, not return wrong data.
        let first_len = 4 + encode_record_body(records[0].shape())
            .expect("encode")
            .len();
        let mut corrupted = full.clone();
        let target = HEADER_LEN as usize + first_len + 10;
        corrupted[target] ^= 0x10;
        std::fs::write(&path, &corrupted).expect("corrupt");
        match replay(&dir, 0, 0) {
            Err(JournalError::Corrupt { shard, record, .. }) => {
                assert_eq!(shard, 0);
                assert_eq!(record, 1);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn bad_magic_and_version_are_corruption() {
        let dir = temp_dir("header");
        write_records(&dir, 0, &sample_records());
        let path = dir.join(journal_file_name(0));
        let full = std::fs::read(&path).expect("read");

        let mut bad_magic = full.clone();
        bad_magic[0] ^= 0xFF;
        std::fs::write(&path, &bad_magic).expect("write");
        assert!(matches!(
            replay(&dir, 0, 0),
            Err(JournalError::Corrupt { record: 0, .. })
        ));

        let mut bad_version = full.clone();
        bad_version[8] = 0xEE;
        std::fs::write(&path, &bad_version).expect("write");
        let err = replay(&dir, 0, 0).expect_err("future version must be refused");
        assert!(err.to_string().contains("version"), "{err}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn truncate_resets_to_an_empty_journal_that_can_keep_appending() {
        let dir = temp_dir("truncate");
        let mut journal = Journal::open(&dir, 2, JournalMode::SyncEveryN(2), 0).expect("open");
        for r in &sample_records() {
            journal.append(r).expect("append");
        }
        journal.sync().expect("sync");
        // Rotation stamps the covering manifest's checksum into the header.
        journal.truncate(0xFEED).expect("truncate");
        assert_eq!(replay(&dir, 2, 0xFEED).expect("after truncate"), Vec::new());
        // The same handle keeps appending into the rotated journal.
        let tail = JournalRecord::Insert(edge(99));
        journal.append(&tail).expect("append after truncate");
        drop(journal);
        assert_eq!(replay(&dir, 2, 0xFEED).expect("tail"), vec![tail]);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn stale_covering_stamp_discards_the_journal() {
        // The rotation commit window: the snapshot manifest became durable
        // but the crash hit before this journal was truncated. Its records
        // are inside the snapshot, so replaying against the *new* manifest
        // checksum must discard them — and re-arming the journal must reset
        // it — while replaying against the stamp it was written under still
        // sees them (the crash-before-manifest case).
        let dir = temp_dir("stale");
        let records = sample_records();
        write_records(&dir, 0, &records); // stamped with covering = 0
        assert_eq!(replay(&dir, 0, 0).expect("matching stamp"), records);
        let new_manifest = 0xDEAD_BEEF_u64;
        assert_eq!(
            replay(&dir, 0, new_manifest).expect("stale stamp"),
            Vec::new(),
            "a journal predating the manifest must not double-apply"
        );
        // Re-arming against the new manifest resets the stale journal.
        let mut journal =
            Journal::open(&dir, 0, JournalMode::Buffered, new_manifest).expect("re-arm");
        let tail = JournalRecord::Insert(edge(7));
        journal.append(&tail).expect("append");
        drop(journal);
        assert_eq!(
            replay(&dir, 0, new_manifest).expect("fresh tail"),
            vec![tail]
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn reopening_appends_after_existing_records() {
        let dir = temp_dir("reopen");
        let first = vec![JournalRecord::Insert(edge(1))];
        write_records(&dir, 0, &first);
        // The post-crash re-arm path: open the surviving journal and extend.
        let mut journal = Journal::open(&dir, 0, JournalMode::Buffered, 0).expect("reopen");
        let second = JournalRecord::Delete(edge(1));
        journal.append(&second).expect("append");
        drop(journal);
        assert_eq!(
            replay(&dir, 0, 0).expect("replay"),
            vec![first[0].clone(), second]
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn rearming_over_a_torn_tail_trims_before_appending() {
        // The crash-then-recover-then-crash shape: a journal with a torn
        // final record is re-armed by Journal::open, which must trim the
        // partial bytes first — appending after them would make the *next*
        // replay stop at the tear and silently discard the new records.
        let dir = temp_dir("rearm-torn");
        let records = sample_records();
        write_records(&dir, 0, &records);
        let path = dir.join(journal_file_name(0));
        let full = std::fs::read(&path).expect("read journal");
        let last_body_len = encode_record_body(records[3].shape())
            .expect("encode")
            .len();
        let last_record_len = 4 + last_body_len;
        let prefix_end = full.len() - last_record_len;
        // Every tear point inside the final record, including a bare partial
        // length prefix and a zero-extra-bytes boundary just past it.
        for cut in prefix_end + 1..full.len() {
            std::fs::write(&path, &full[..cut]).expect("tear");
            let mut journal = Journal::open(&dir, 0, JournalMode::Buffered, 0).expect("re-arm");
            let tail = JournalRecord::Insert(edge(1000 + cut as u64));
            journal.append(&tail).expect("append after trim");
            drop(journal);
            let mut expected: Vec<JournalRecord> = records[..3].to_vec();
            expected.push(tail);
            assert_eq!(
                replay(&dir, 0, 0).expect("replay after re-arm"),
                expected,
                "cut at byte {cut}: the trimmed journal must replay the \
                 complete prefix plus every post-recovery append"
            );
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn oversized_length_prefix_is_corruption() {
        let dir = temp_dir("oversize");
        let journal = Journal::open(&dir, 0, JournalMode::Buffered, 0).expect("open");
        drop(journal);
        let path = dir.join(journal_file_name(0));
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(&(MAX_RECORD_BYTES + 1).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        std::fs::write(&path, &bytes).expect("write");
        assert!(matches!(
            replay(&dir, 0, 0),
            Err(JournalError::Corrupt { record: 0, .. })
        ));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn journal_error_messages_name_the_failure() {
        let io = JournalError::from(std::io::Error::other("disk on fire"));
        assert!(io.to_string().contains("disk on fire"));
        assert!(matches!(io, JournalError::Io(_)));
        let corrupt = JournalError::Corrupt {
            shard: 3,
            record: 7,
            detail: "checksum mismatch".into(),
        };
        let msg = corrupt.to_string();
        assert!(msg.contains("shard 3"), "{msg}");
        assert!(msg.contains("record 7"), "{msg}");
        assert!(msg.contains("checksum mismatch"), "{msg}");
        use std::error::Error;
        assert!(io.source().is_some());
        assert!(corrupt.source().is_none());
    }

    #[test]
    fn edge_count_reflects_record_shape() {
        assert_eq!(JournalRecord::Insert(edge(1)).edge_count(), 1);
        assert_eq!(JournalRecord::Delete(edge(1)).edge_count(), 1);
        assert_eq!(
            JournalRecord::InsertBatch((0..7).map(edge).collect()).edge_count(),
            7
        );
    }
}
