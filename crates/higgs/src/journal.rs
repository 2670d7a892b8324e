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
//! This module is the journal's record codec. The header, the record
//! framing, re-arming, appending, syncing and the torn-tail versus
//! interior-corruption rules live in the crate's framing core, shared with
//! the elastic [`history`](crate::history) log.
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
//! len (u32 LE) | tag u8 | payload | checksum (u64 LE)
//! ```
//!
//! where `len` counts every byte after it; the checksum covers the tag and
//! the payload (the record *body*). The payload is written in varints
//! ([`higgs_common::codec`]'s `put_varint`, LEB128):
//!
//! ```text
//! tag 1 = insert:       edge
//! tag 2 = insert-batch: count (varint) | edge{count}
//! tag 3 = delete:       edge
//! edge = src (varint) | dst (varint) | weight (varint) | Δts (zigzag varint)
//! ```
//!
//! `Δts` is the wrapping difference from the previous edge's timestamp in
//! the same record (from `0` for the first), zigzagged so a timestamp that
//! steps back stays small. On a sorted stream of small ids an edge takes
//! 4–8 bytes instead of 32. The worst case, ids and weight at or above
//! 2^63 and a timestamp far from its predecessor, is 40 bytes, so a
//! 512-edge batch stays near 20 KiB, far under the framing core's record
//! bound. A batch count above [`MAX_BATCH_EDGES`] or above what the rest of
//! the body could hold at 4 bytes per edge fails typed before anything is
//! allocated for it.
//!
//! **Format version 3** introduced the varint payload; version 2 wrote every
//! edge as four fixed little-endian `u64`s and the count as a `u64`.
//! Version 2 also introduced the word-at-a-time body checksum both still use
//! (one multiply step per 8 bytes, tail bytes folded singly, a final
//! avalanche; see the framing core's docs), so any change confined to one
//! aligned 8-byte word of a body is always detected; version 1 ran a
//! byte-serial FNV-1a over every body byte. A version-1 or version-2 journal
//! is refused with a typed "unsupported journal format version"
//! [`JournalError::Corrupt`].
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
//!
//! The fence does **not** fsync the journal. A successful snapshot truncates
//! it, so the fenced records never need to be on disk: the snapshot files,
//! synced before the manifest is written, hold them. A failed snapshot
//! leaves the journal exactly as its [`JournalMode`] left it, with the
//! durability that mode promises. (The elastic history log *is* synced at
//! the fence, because after the rotation it holds the only raw copy of the
//! fenced mutations; see [`crate::history`].)

use crate::config::JournalMode;
use crate::framing::{self, LogFile, LogFormat, LogScan, MAX_BATCH_EDGES};
use crate::tree::HiggsSummary;
use higgs_common::codec::{put_edge_after, put_varint, CodecError, Reader};
use higgs_common::StreamEdge;
use std::fmt;
use std::io::{Seek, SeekFrom};
use std::path::Path;

/// Magic bytes opening every journal file.
pub const JOURNAL_MAGIC: &[u8; 8] = b"HIGGSJNL";

/// Current journal format version. Bumped on any layout change; replay
/// refuses any other version instead of guessing. Version 2 replaced the
/// byte-serial FNV-1a record checksum with the word-at-a-time one; version 3
/// replaced the fixed-width edges with varint ones.
pub const JOURNAL_FORMAT_VERSION: u32 = 3;

/// The journal's header and diagnostics, as the framing core reads them.
const FORMAT: LogFormat = LogFormat {
    name: "journal",
    magic: JOURNAL_MAGIC,
    version: JOURNAL_FORMAT_VERSION,
    stamped: true,
    append_failpoint: "journal::append",
};

/// Byte length of the full file header (magic + version + covering snapshot
/// checksum). A file shorter than this replays as empty. The follower's
/// segment cursor ([`scan_tail`]) starts here.
pub(crate) const HEADER_LEN: u64 = FORMAT.header_len();

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
/// both forms compile to nothing but a discarded read of the name, so
/// production builds carry zero overhead.
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
    ($name:expr) => {
        let _ = $name;
    };
    ($name:expr, $map:expr) => {
        let _ = $name;
    };
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

/// The fewest bytes one batch edge takes: four one-byte varints.
const MIN_EDGE_BYTES: usize = 4;

/// A borrowed view of one journalable mutation: what the shard writer hands
/// to [`Journal::append_insert`] and friends without cloning batch payloads
/// into an owned [`JournalRecord`] first.
#[derive(Clone, Copy)]
enum RecordShape<'a> {
    Insert(&'a StreamEdge),
    InsertBatch(&'a [StreamEdge]),
    Delete(&'a StreamEdge),
}

impl RecordShape<'_> {
    /// Encodes the record's tag and payload (the framing core adds the
    /// length prefix and the checksum). Shared by the owned and borrowed
    /// append paths so both produce identical bytes.
    fn encode(self, body: &mut Vec<u8>) {
        match self {
            RecordShape::Insert(edge) => {
                body.push(TAG_INSERT);
                put_edge_after(body, edge, 0);
            }
            RecordShape::InsertBatch(edges) => {
                body.push(TAG_INSERT_BATCH);
                put_varint(body, edges.len() as u64);
                let mut prev_ts = 0;
                for edge in edges {
                    put_edge_after(body, edge, prev_ts);
                    prev_ts = edge.timestamp;
                }
            }
            RecordShape::Delete(edge) => {
                body.push(TAG_DELETE);
                put_edge_after(body, edge, 0);
            }
        }
    }
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

    /// Decodes one record body (its checksum already verified by the frame
    /// scanner).
    fn decode_body(body: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Reader::new(body);
        let record = match dec.u8()? {
            TAG_INSERT => JournalRecord::Insert(dec.edge_after(0)?),
            TAG_INSERT_BATCH => {
                let count =
                    dec.varint_items(MAX_BATCH_EDGES, MIN_EDGE_BYTES, "journal batch edge count")?;
                let mut edges = Vec::with_capacity(count);
                let mut prev_ts = 0;
                for _ in 0..count {
                    let edge = dec.edge_after(prev_ts)?;
                    prev_ts = edge.timestamp;
                    edges.push(edge);
                }
                JournalRecord::InsertBatch(edges)
            }
            TAG_DELETE => JournalRecord::Delete(dec.edge_after(0)?),
            other => {
                return Err(CodecError::Invalid(format!(
                    "unknown journal record tag {other}"
                )))
            }
        };
        dec.finish(FORMAT.name)?;
        Ok(record)
    }

    /// Number of edges this record mutates (diagnostics / test assertions).
    pub fn edge_count(&self) -> usize {
        match self {
            JournalRecord::Insert(_) | JournalRecord::Delete(_) => 1,
            JournalRecord::InsertBatch(edges) => edges.len(),
        }
    }

    /// Applies the mutation to a shard summary through its normal
    /// insert/delete path, aggregating as it lands.
    fn apply_to(self, summary: &mut HiggsSummary) {
        match self {
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

/// The append half of one shard's write-ahead journal, owned by that shard's
/// writer thread. Created by [`Journal::open`] against the durable
/// directory; every [`append`](Self::append) is flushed to the OS before it
/// returns (write-ahead ordering: the record is out of process buffers
/// before the mutation is applied), and [`JournalMode::SyncEveryN`]
/// additionally forces the disk every `n` records.
#[derive(Debug)]
pub struct Journal {
    log: LogFile,
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
        let scan = replay_with(dir, shard, covering, drop)?;
        Self::arm_scanned(dir, shard, mode, covering, scan)
    }

    /// Opens shard `shard`'s journal in `dir` for appending from what a
    /// replay under the same `covering` stamp found ([`replay_into`]'s
    /// return), without reading the file again: a fresh header for a missing
    /// file, a reset for a stale one, a trimmed torn tail otherwise.
    pub(crate) fn arm_scanned(
        dir: &Path,
        shard: usize,
        mode: JournalMode,
        covering: u64,
        scan: LogScan,
    ) -> Result<Self, JournalError> {
        let path = dir.join(journal_file_name(shard));
        let log = LogFile::arm_scanned(&FORMAT, path, shard, mode, covering, scan)?;
        Ok(Self { log })
    }

    /// Path of the journal file (diagnostics and tests).
    pub fn path(&self) -> &Path {
        self.log.path()
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

    /// The single append path behind every surface. All of them share the
    /// `journal::append` failpoint, so fault-injection tests cover singles,
    /// batches and deletes alike.
    fn append_shape(&mut self, shape: RecordShape<'_>) -> Result<(), JournalError> {
        self.log.append(|body| shape.encode(body))
    }

    /// Flushes and forces everything appended so far to disk, regardless of
    /// mode. The snapshot fence does not need this (see the module docs'
    /// *Rotation fence*).
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.log.sync()
    }

    /// Truncates the journal back to its header and stamps `covering` — the
    /// just-written manifest's checksum — into it. This is the rotation
    /// fence's commit step, called only after the covering snapshot's
    /// manifest is durable. Every crash point is safe: a torn header (the
    /// file cut inside the stamp) replays as empty, which is correct because
    /// the snapshot already holds every truncated record.
    pub fn truncate(&mut self, covering: u64) -> Result<(), JournalError> {
        self.log.truncate(covering)
    }
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
    let mut records = Vec::new();
    replay_with(dir, shard, covering, |record| records.push(record))?;
    Ok(records)
}

/// Replays shard `shard`'s journal straight into `summary`, record by record
/// in append order (the second half of `snapshot + journal tail replay`
/// recovery), under [`replay`]'s rules, and returns what the scan found, so
/// [`Journal::arm_scanned`] can open the file for appending without reading
/// it again. On an error the summary holds a prefix of the journal and must
/// be discarded.
pub(crate) fn replay_into(
    dir: &Path,
    shard: usize,
    covering: u64,
    summary: &mut HiggsSummary,
) -> Result<LogScan, JournalError> {
    replay_with(dir, shard, covering, |record| record.apply_to(summary))
}

/// Hands every record [`replay`] would return to `visit`, in append order,
/// and returns what the scan found. A stale journal (stamped for another
/// manifest) hands over nothing: the crash hit between the manifest becoming
/// durable and the rotation truncating it, so every record is already inside
/// the snapshot, and replaying would double-apply.
fn replay_with(
    dir: &Path,
    shard: usize,
    covering: u64,
    mut visit: impl FnMut(JournalRecord),
) -> Result<LogScan, JournalError> {
    let path = dir.join(journal_file_name(shard));
    framing::scan_log(&FORMAT, &path, shard, covering, |body| {
        visit(JournalRecord::decode_body(body)?);
        Ok(())
    })
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
    let Some((mut reader, covering)) = framing::open_reader(&FORMAT, &path, shard)? else {
        return Ok(None);
    };
    let start = from.max(HEADER_LEN);
    reader.seek(SeekFrom::Start(start))?;
    let mut records = Vec::new();
    let clean_end = framing::scan_frames(&mut reader, &FORMAT, shard, start, |body| {
        records.push(JournalRecord::decode_body(body)?);
        Ok(())
    })?;
    Ok(Some(JournalTail {
        covering,
        records,
        clean_end,
    }))
}

/// Applies records (a follower's shipped tail) to a shard summary in append
/// order.
pub(crate) fn apply_records(summary: &mut HiggsSummary, records: Vec<JournalRecord>) {
    for record in records {
        record.apply_to(summary);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::MAX_RECORD_BYTES;
    use std::path::PathBuf;

    /// Byte length of `record`'s framed body (tag, payload and checksum).
    fn body_len(record: &JournalRecord) -> usize {
        let mut body = Vec::new();
        record.shape().encode(&mut body);
        body.len() + 8
    }

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
        let last_body_len = body_len(&records[3]);
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
        let first_len = 4 + body_len(&records[0]);
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

    /// A journal stamped with an older format `version` is refused typed by
    /// both replay and re-arm, and left as it was.
    fn assert_old_version_refused(version: u32) {
        let dir = temp_dir(&format!("v{version}"));
        write_records(&dir, 0, &sample_records());
        let path = dir.join(journal_file_name(0));
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
        for err in [
            replay(&dir, 0, 0).expect_err("replay refuses an old version"),
            Journal::open(&dir, 0, JournalMode::Buffered, 0)
                .expect_err("arm refuses an old version"),
        ] {
            let expected = format!("unsupported journal format version {version}");
            assert!(
                matches!(&err, JournalError::Corrupt { detail, .. } if detail.contains(&expected)),
                "{err}"
            );
        }
        assert_eq!(std::fs::read(&path).expect("read"), bytes);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn version_1_journal_is_refused_typed() {
        assert_old_version_refused(1);
    }

    /// Version 2 wrote fixed-width edges; its bodies would misparse as
    /// varints, so the header refuses them before any record is read.
    #[test]
    fn version_2_journal_is_refused_typed() {
        assert_old_version_refused(2);
    }

    /// Records at the edges of the varint encoding: all-ones ids, weights
    /// and timestamps, timestamps that step back, one-edge and full-chunk
    /// batches.
    fn extreme_records() -> Vec<JournalRecord> {
        let max = StreamEdge::new(u64::MAX, u64::MAX, u64::MAX, u64::MAX);
        let chunk: Vec<StreamEdge> = (0..512u64)
            .map(|i| {
                let wild = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                StreamEdge::new(wild, i, 1 + wild % 3, wild >> (i % 64))
            })
            .collect();
        vec![
            JournalRecord::Insert(max),
            JournalRecord::Delete(max),
            JournalRecord::InsertBatch(vec![max]),
            JournalRecord::InsertBatch(chunk),
            JournalRecord::Insert(StreamEdge::new(0, 0, 0, 0)),
            JournalRecord::InsertBatch(vec![
                StreamEdge::new(7, 8, 1, 1_000),
                max,
                StreamEdge::new(9, 10, 1, 999),
                StreamEdge::new(11, 12, u64::MAX, 0),
            ]),
        ]
    }

    #[test]
    fn extreme_records_round_trip_and_tear_to_their_prefix() {
        let dir = temp_dir("extreme");
        let records = extreme_records();
        write_records(&dir, 0, &records);
        assert_eq!(replay(&dir, 0, 0).expect("replay"), records);
        // Worst-case edges stay within 40 bytes each.
        assert!(body_len(&records[2]) <= 1 + 1 + 40 + 8);
        let path = dir.join(journal_file_name(0));
        let full = std::fs::read(&path).expect("read journal");
        let last = records.len() - 1;
        let prefix_end = full.len() - (4 + body_len(&records[last]));
        for cut in prefix_end..full.len() {
            std::fs::write(&path, &full[..cut]).expect("truncate");
            let replayed = replay(&dir, 0, 0).expect("a torn tail replays cleanly");
            assert_eq!(replayed, records[..last], "cut at byte {cut}");
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// A journal holding one checksum-valid frame around `body`.
    fn write_raw_record(dir: &Path, body: &[u8]) {
        let path = dir.join(journal_file_name(0));
        let _ = std::fs::remove_file(&path);
        drop(Journal::open(dir, 0, JournalMode::Buffered, 0).expect("open"));
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(&(body.len() as u32 + 8).to_le_bytes());
        bytes.extend_from_slice(body);
        bytes.extend_from_slice(&framing::frame_checksum(body).to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
    }

    #[test]
    fn batch_counts_the_body_cannot_hold_are_typed_corruption() {
        let dir = temp_dir("count");
        // A count over the batch limit, a count within it but beyond what
        // the body's bytes could hold at four per edge, and a count the
        // bytes could hold but whose second edge is cut short.
        let mut one_edge = Vec::new();
        put_edge_after(&mut one_edge, &StreamEdge::new(1, 2, 1, 3), 0);
        let cases: [(u64, &[u8], &str); 3] = [
            (MAX_BATCH_EDGES + 1, &[], "exceeds limit"),
            (MAX_BATCH_EDGES, &[0; 64], "unexpected end"),
            (
                2,
                &[one_edge.as_slice(), &[0x81, 1, 1, 1]].concat(),
                "unexpected end",
            ),
        ];
        for (count, edges, expected) in cases {
            let mut body = vec![TAG_INSERT_BATCH];
            put_varint(&mut body, count);
            body.extend_from_slice(edges);
            write_raw_record(&dir, &body);
            match replay(&dir, 0, 0) {
                Err(JournalError::Corrupt {
                    record: 0, detail, ..
                }) => {
                    assert!(detail.contains(expected), "count {count}: {detail}");
                }
                other => panic!("count {count}: expected Corrupt, got {other:?}"),
            }
        }
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
        let last_body_len = body_len(&records[3]);
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

    /// The whole journal file for a fixed record sequence, byte for byte, at
    /// format version 3: a refactor of the log code must not move a byte.
    /// The bytes and checksums were cross-checked against an independent
    /// implementation of the varint layout and the frame checksum.
    #[test]
    fn journal_file_bytes_match_the_golden_encoding() {
        const GOLDEN: &[&str] = &[
            "48494747534a4e4c", // magic "HIGGSJNL"
            "03000000",         // version 3
            "efcdab8967452301", // covering stamp
            "0d000000",         // len 13
            "01",               // tag insert
            "01020308",         // edge (1, 2, 3, Δts +4)
            "56ba42227f927f4b", // checksum
            "13000000",         // len 19
            "02",               // tag insert-batch
            "02",               // count 2
            "05060710",         // edge (5, 6, 7, Δts +8)
            "ac020a0105",       // edge (300, 10, 1, Δts −3)
            "6cd1bc779c5e9203", // checksum
            "0d000000",         // len 13
            "03",               // tag delete
            "01020308",         // edge (1, 2, 3, Δts +4)
            "691d5a618c7e7413", // checksum
        ];
        let dir = temp_dir("golden");
        let mut journal =
            Journal::open(&dir, 0, JournalMode::Buffered, 0x0123_4567_89AB_CDEF).expect("open");
        journal
            .append_insert(&StreamEdge::new(1, 2, 3, 4))
            .expect("insert");
        journal
            .append_insert_batch(&[StreamEdge::new(5, 6, 7, 8), StreamEdge::new(300, 10, 1, 5)])
            .expect("batch");
        journal
            .append_delete(&StreamEdge::new(1, 2, 3, 4))
            .expect("delete");
        drop(journal);
        let bytes = std::fs::read(dir.join(journal_file_name(0))).expect("read journal");
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN.concat());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
