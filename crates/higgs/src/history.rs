//! Per-shard, sequence-stamped mutation history: the raw-stream record that
//! makes a durable service *elastic*.
//!
//! Resharding cannot be computed from summaries alone: leaf matrices store
//! only `(address, fingerprint)` pairs — the raw vertices are unrecoverable —
//! and the shard router [`higgs_common::hashing::shard_of`] hashes with a
//! seed independent of the addressing hash, so re-partitioning to a new shard
//! count needs the original edges back. An *elastic* store (see
//! [`StoreOptions::elastic`](crate::store::StoreOptions::elastic)) therefore
//! keeps one append-only history log per shard next to the snapshot and
//! journal files, recording every acknowledged mutation with a **global
//! sequence number** stamped at ingest-routing time. Replaying all logs
//! merged by sequence number reproduces the exact global mutation order, so
//! folding that stream through `shard_of` at any new shard count rebuilds a
//! service bit-identical (on queries) to one that ingested the stream at that
//! count from the start.
//!
//! # Relationship to the journal
//!
//! The journal ([`crate::journal`]) is a *rotating* crash-recovery log: a
//! snapshot truncates it, so it only ever holds the tail since the last
//! snapshot. History is the opposite: **never truncated, never rewritten** —
//! the full stream, forever. The shard writer appends to history *before*
//! the journal, so on-disk history is always a superset of
//! `snapshot ∪ journal` (the superset is at most unacknowledged in-flight
//! records, which were never promised to anyone). Offline resharding can
//! therefore ignore journals entirely and fold history alone.
//!
//! # Generations
//!
//! File names carry a **generation** ([`history_file_name`]:
//! `history-GGG-SSS.higgs`). A reshard never rewrites existing history — it
//! opens a fresh, empty generation `max existing + 1` for the new writer set
//! and leaves every older generation untouched, so no crash point during a
//! reshard can lose or duplicate a recorded mutation. Readers scan **all**
//! generations and merge globally by sequence number.
//!
//! # File format
//!
//! ```text
//! magic "HIGGSHIS" (8 bytes) | format version (u32 LE)
//! record*
//! ```
//!
//! There is no covering-snapshot stamp — history outlives every snapshot.
//! This module is the history record codec; the header, the framing
//! (`len u32 LE | tag u8 | payload | checksum u64 LE`), re-arming, appending,
//! syncing and the torn-tail rules live in the crate's framing core, shared
//! with the [`journal`](crate::journal). The payload is the journal's
//! varint edge with a sequence number in front of each:
//!
//! ```text
//! tag 1 = insert:       op
//! tag 2 = insert-batch: count (varint) | op{count}
//! tag 3 = delete:       op
//! op   = Δseq (zigzag varint) | edge
//! edge = src (varint) | dst (varint) | weight (varint) | Δts (zigzag varint)
//! ```
//!
//! `Δseq` and `Δts` are wrapping differences from the previous op's sequence
//! number and timestamp in the same record (from `0` for the first),
//! zigzagged so a step back stays small: sequence numbers within a routed
//! batch step by one to a few, and need not rise (see *Duplicate sequence
//! numbers*). On a sorted stream of small ids an op takes 5–9 bytes instead
//! of 40; the worst case is 50 bytes, so a 512-edge batch stays near 25 KiB,
//! far under the framing core's record bound. A batch count above
//! [`MAX_BATCH_EDGES`] or above what the rest of the body could hold at
//! 5 bytes per op fails typed before anything is allocated for it.
//!
//! A torn tail (crash mid-append) is trimmed on re-arm and skipped on read —
//! the torn record was never acknowledged; interior corruption is a typed
//! [`JournalError::Corrupt`].
//!
//! **Format version 3** introduced the varint payload; version 2 wrote each
//! op as five fixed little-endian `u64`s and the count as a `u64`. Version 2
//! also introduced the word-at-a-time record checksum both still use (one
//! multiply step per 8 bytes, tail bytes folded singly, a final avalanche;
//! see the framing core's docs), which detects every change confined to one
//! aligned 8-byte word of a record; version 1 used a byte-serial FNV-1a. A
//! version-1 or version-2 file is refused with a typed "unsupported history
//! format version" [`JournalError::Corrupt`].
//!
//! Re-arming a file for appending ([`HistoryLog::open`]) verifies and
//! decodes every complete record on its way to the torn tail. The store's
//! open path splits that in two: a read-only scan (`HistoryLog::scan`)
//! runs beside the shards' snapshot restores and journal replays and reports
//! the file's clean end and highest sequence number, and arming then trusts
//! that report (`HistoryLog::arm_scanned`). So a reopen reads each history
//! byte once, off the writers' critical path.
//!
//! # Duplicate sequence numbers
//!
//! Writer supervision re-drives a failed command after respawning a writer,
//! so a crash between the history append and the acknowledgement can
//! legitimately append the *same* record twice. The merged read
//! ([`read_history`]) deduplicates **identical** records sharing a sequence
//! number; two *different* records claiming one sequence number can only be
//! storage corruption and fail typed.

use crate::config::JournalMode;
use crate::framing::{self, LogFile, LogFormat, LogScan, MAX_BATCH_EDGES};
use crate::journal::JournalError;
use higgs_common::codec::{put_edge_after, put_varint, unzigzag, zigzag, CodecError, Reader};
use higgs_common::StreamEdge;
use std::path::{Path, PathBuf};

/// Magic bytes opening every history file.
pub const HISTORY_MAGIC: &[u8; 8] = b"HIGGSHIS";

/// Current history format version. Bumped on any layout change; readers
/// refuse any other version instead of guessing. Version 2 replaced the
/// byte-serial FNV-1a record checksum with the word-at-a-time one; version 3
/// replaced the fixed-width ops with varint ones.
pub const HISTORY_FORMAT_VERSION: u32 = 3;

/// The history log's header and diagnostics, as the framing core reads them.
/// History carries no covering-snapshot stamp: it is never rotated.
const FORMAT: LogFormat = LogFormat {
    name: "history",
    magic: HISTORY_MAGIC,
    version: HISTORY_FORMAT_VERSION,
    stamped: false,
    append_failpoint: "history::append",
};

/// Record tags (the body's leading byte). Same assignments as the journal's
/// tags so the two formats stay mentally aligned.
const TAG_INSERT: u8 = 1;
const TAG_INSERT_BATCH: u8 = 2;
const TAG_DELETE: u8 = 3;

/// The fewest bytes one batch op takes: five one-byte varints.
const MIN_OP_BYTES: usize = 5;

/// File name of generation `gen`, shard `shard`'s history log inside a
/// durable directory (`history-000-000.higgs`, …), next to the snapshot and
/// journal files.
pub fn history_file_name(gen: u64, shard: usize) -> String {
    format!("history-{gen:03}-{shard:03}.higgs")
}

/// Whether a mutation inserted or deleted its edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum HistoryOpKind {
    /// The edge was inserted.
    Insert,
    /// The edge was deleted (reverse-weight insert downstream).
    Delete,
}

/// One recorded mutation: an edge plus the global sequence number stamped at
/// ingest-routing time. Merging every shard's history by `seq` reproduces
/// the exact global mutation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistoryOp {
    /// Position in the global mutation order (unique across all shards and
    /// generations after [`read_history`]'s deduplication).
    pub seq: u64,
    /// Insert or delete.
    pub kind: HistoryOpKind,
    /// The mutated edge.
    pub edge: StreamEdge,
}

/// The append half of one shard's history log, owned by that shard's writer
/// thread alongside its [`Journal`](crate::Journal). Appends are flushed to
/// the OS before returning (history is written *before* the journal, which
/// is written before the mutation applies), and [`JournalMode::SyncEveryN`]
/// additionally forces the disk every `n` records.
#[derive(Debug)]
pub struct HistoryLog {
    log: LogFile,
}

impl HistoryLog {
    /// Opens (creating if absent) generation `gen`, shard `shard`'s history
    /// log in `dir` for appending. A fresh or torn-header file gets a clean
    /// header written and synced; an existing log — the post-crash re-arm
    /// path — is extended in place after its header is validated, every
    /// complete record is checksum-verified and decoded, and any torn
    /// trailing record is trimmed back to the last complete frame. Interior
    /// corruption fails typed.
    ///
    /// `mode` must not be [`JournalMode::Off`] (elastic stores require a
    /// journaling mode; callers gate before constructing).
    pub fn open(
        dir: &Path,
        gen: u64,
        shard: usize,
        mode: JournalMode,
    ) -> Result<Self, JournalError> {
        let (scan, _) = Self::scan(dir, gen, shard)?;
        Self::arm_scanned(dir, gen, shard, mode, scan)
    }

    /// Verifies generation `gen`, shard `shard`'s history file read-only:
    /// every complete record's checksum and decode, its clean end, and the
    /// highest sequence number it holds (`None` when it holds no record).
    /// Writes nothing, so the store's open runs it beside the shard
    /// recoveries.
    pub(crate) fn scan(
        dir: &Path,
        gen: u64,
        shard: usize,
    ) -> Result<(LogScan, Option<u64>), JournalError> {
        let path = dir.join(history_file_name(gen, shard));
        let mut max = None;
        let scan = framing::scan_log(&FORMAT, &path, shard, 0, |body| {
            decode_body(body, |op| max = max.max(Some(op.seq)))
        })?;
        Ok((scan, max))
    }

    /// Opens generation `gen`, shard `shard`'s history log for appending
    /// from what a [`scan`](Self::scan) of it found, without reading it
    /// again: a fresh header for a missing file, a trimmed torn tail
    /// otherwise.
    pub(crate) fn arm_scanned(
        dir: &Path,
        gen: u64,
        shard: usize,
        mode: JournalMode,
        scan: LogScan,
    ) -> Result<Self, JournalError> {
        let path = dir.join(history_file_name(gen, shard));
        let log = LogFile::arm_scanned(&FORMAT, path, shard, mode, 0, scan)?;
        Ok(Self { log })
    }

    /// Path of the history file (diagnostics and tests).
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Appends a single-insert record.
    pub fn append_insert(&mut self, seq: u64, edge: &StreamEdge) -> Result<(), JournalError> {
        self.log.append(|body| {
            body.push(TAG_INSERT);
            OpCursor::default().put(body, seq, edge);
        })
    }

    /// Appends an insert-batch record. `seqs` runs parallel to `edges`
    /// (edge `i` was stamped `seqs[i]`); the two lengths must match.
    pub fn append_insert_batch(
        &mut self,
        edges: &[StreamEdge],
        seqs: &[u64],
    ) -> Result<(), JournalError> {
        debug_assert_eq!(edges.len(), seqs.len(), "parallel seq/edge arrays");
        self.log.append(|body| {
            body.push(TAG_INSERT_BATCH);
            put_varint(body, edges.len() as u64);
            let mut cursor = OpCursor::default();
            for (edge, &seq) in edges.iter().zip(seqs) {
                cursor.put(body, seq, edge);
            }
        })
    }

    /// Appends a delete record.
    pub fn append_delete(&mut self, seq: u64, edge: &StreamEdge) -> Result<(), JournalError> {
        self.log.append(|body| {
            body.push(TAG_DELETE);
            OpCursor::default().put(body, seq, edge);
        })
    }

    /// Flushes and forces everything appended so far to disk (used at the
    /// snapshot / reshard fence, regardless of mode).
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.log.sync()
    }
}

/// The previous op's sequence number and timestamp within one record, which
/// the next op's deltas are taken from (both `0` before the first op).
#[derive(Default)]
struct OpCursor {
    seq: u64,
    timestamp: u64,
}

impl OpCursor {
    /// Appends one op: its zigzagged sequence delta, then its compact edge.
    fn put(&mut self, body: &mut Vec<u8>, seq: u64, edge: &StreamEdge) {
        put_varint(body, zigzag(seq.wrapping_sub(self.seq) as i64));
        put_edge_after(body, edge, self.timestamp);
        self.seq = seq;
        self.timestamp = edge.timestamp;
    }

    /// Reads one op written by [`put`](Self::put).
    fn read(&mut self, dec: &mut Reader<'_>, kind: HistoryOpKind) -> Result<HistoryOp, CodecError> {
        let seq = self.seq.wrapping_add(unzigzag(dec.varint()?) as u64);
        let edge = dec.edge_after(self.timestamp)?;
        self.seq = seq;
        self.timestamp = edge.timestamp;
        Ok(HistoryOp { seq, kind, edge })
    }
}

/// Decodes one history record body (its checksum already verified by the
/// frame scanner), handing each op to `visit` in record order. On an error
/// `visit` may have seen part of the record; every caller discards it.
fn decode_body(body: &[u8], mut visit: impl FnMut(HistoryOp)) -> Result<(), CodecError> {
    let mut dec = Reader::new(body);
    let mut cursor = OpCursor::default();
    match dec.u8()? {
        TAG_INSERT => visit(cursor.read(&mut dec, HistoryOpKind::Insert)?),
        TAG_INSERT_BATCH => {
            let count =
                dec.varint_items(MAX_BATCH_EDGES, MIN_OP_BYTES, "history batch edge count")?;
            for _ in 0..count {
                visit(cursor.read(&mut dec, HistoryOpKind::Insert)?);
            }
        }
        TAG_DELETE => visit(cursor.read(&mut dec, HistoryOpKind::Delete)?),
        other => {
            return Err(CodecError::Invalid(format!(
                "unknown history record tag {other}"
            )))
        }
    }
    dec.finish(FORMAT.name)
}

/// Every `(generation, shard)` history file currently in `dir`, discovered by
/// file name. Order is unspecified.
pub(crate) fn history_files(dir: &Path) -> Result<Vec<(u64, usize, PathBuf)>, JournalError> {
    let mut files = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(files),
        Err(e) => return Err(JournalError::Io(e)),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(parsed) = parse_history_name(name) else {
            continue;
        };
        files.push((parsed.0, parsed.1, entry.path()));
    }
    Ok(files)
}

/// Parses `history-GGG-SSS.higgs` into `(generation, shard)`.
fn parse_history_name(name: &str) -> Option<(u64, usize)> {
    let rest = name.strip_prefix("history-")?.strip_suffix(".higgs")?;
    let (gen, shard) = rest.split_once('-')?;
    Some((gen.parse().ok()?, shard.parse().ok()?))
}

/// The highest history generation present in `dir`, or `None` when the
/// directory holds no history files (the store is not elastic, or nothing
/// was ever written).
pub(crate) fn max_history_gen(dir: &Path) -> Result<Option<u64>, JournalError> {
    Ok(history_files(dir)?.into_iter().map(|(g, _, _)| g).max())
}

/// Reads **every** history file in `dir` — all shards, all generations —
/// and returns the merged global mutation stream: sorted by sequence number,
/// with identical duplicate records (the writer-supervision re-drive
/// artifact) collapsed. Two *different* records sharing a sequence number
/// fail with a typed [`JournalError::Corrupt`]: sequence numbers are stamped
/// uniquely at routing time, so a divergent pair can only be corruption.
///
/// A torn final record in any file is skipped (it was never acknowledged);
/// interior corruption fails typed. An empty or missing directory reads as
/// an empty stream.
pub fn read_history(dir: &Path) -> Result<Vec<HistoryOp>, JournalError> {
    let mut ops = Vec::new();
    scan_history(
        dir,
        |_, _| true,
        |body| decode_body(body, |op| ops.push(op)),
    )?;
    // Per-file append order is *not* globally seq-ascending (nor strictly
    // per-file: the routing-time seq stamp and the channel send race), so
    // the global order is reconstructed by sorting. Kind/edge break seq ties
    // deterministically so duplicate detection sees stable adjacency.
    let edge_key = |e: &StreamEdge| (e.src, e.dst, e.weight, e.timestamp);
    ops.sort_unstable_by(|a, b| {
        a.seq
            .cmp(&b.seq)
            .then_with(|| a.kind.cmp(&b.kind))
            .then_with(|| edge_key(&a.edge).cmp(&edge_key(&b.edge)))
    });
    ops.dedup();
    if let Some(pair) = ops.windows(2).find(|w| w[0].seq == w[1].seq) {
        return Err(JournalError::Corrupt {
            shard: 0,
            record: pair[0].seq,
            detail: format!(
                "divergent history records share sequence number {}: {:?} vs {:?}",
                pair[0].seq, pair[0], pair[1]
            ),
        });
    }
    Ok(ops)
}

/// The highest sequence number recorded in the history files of `dir` that
/// `include(generation, shard)` selects, or `None` when they hold none. An
/// elastic store resumes its sequence counter past the maximum over these and
/// the files it re-arms ([`HistoryLog::scan`] reports theirs), so
/// post-restart mutations sort after every recorded one.
pub(crate) fn max_history_seq(
    dir: &Path,
    include: impl Fn(u64, usize) -> bool,
) -> Result<Option<u64>, JournalError> {
    let mut max = None;
    scan_history(dir, include, |body| {
        decode_body(body, |op| max = max.max(Some(op.seq)))
    })?;
    Ok(max)
}

/// Hands every complete record body of every history file in `dir` that
/// `include(generation, shard)` selects to `on_body`, file by file. A torn
/// tail ends a file cleanly; interior corruption fails typed.
fn scan_history(
    dir: &Path,
    include: impl Fn(u64, usize) -> bool,
    mut on_body: impl FnMut(&[u8]) -> Result<(), CodecError>,
) -> Result<(), JournalError> {
    for (gen, shard, path) in history_files(dir)? {
        if !include(gen, shard) {
            continue;
        }
        framing::scan_log(&FORMAT, &path, shard, 0, &mut on_body)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::MAX_RECORD_BYTES;

    const HEADER_LEN: u64 = FORMAT.header_len();

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "higgs-history-{tag}-{}-{:?}",
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

    fn insert(seq: u64) -> HistoryOp {
        HistoryOp {
            seq,
            kind: HistoryOpKind::Insert,
            edge: edge(seq),
        }
    }

    #[test]
    fn ops_round_trip_merged_by_sequence() {
        let dir = temp_dir("roundtrip");
        // Two shards, interleaved seqs, one batch: the merged read must
        // come back globally seq-sorted regardless of file layout.
        let mut s0 = HistoryLog::open(&dir, 0, 0, JournalMode::Buffered).expect("open s0");
        let mut s1 = HistoryLog::open(&dir, 0, 1, JournalMode::Buffered).expect("open s1");
        s0.append_insert(0, &edge(0)).expect("append");
        s1.append_insert(1, &edge(1)).expect("append");
        let batch: Vec<StreamEdge> = (2..5).map(edge).collect();
        s0.append_insert_batch(&batch, &[2, 3, 4]).expect("batch");
        s1.append_delete(5, &edge(1)).expect("delete");
        drop((s0, s1));

        let ops = read_history(&dir).expect("read");
        assert_eq!(ops.len(), 6);
        assert_eq!(
            ops.iter().map(|o| o.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5]
        );
        assert_eq!(ops[5].kind, HistoryOpKind::Delete);
        assert_eq!(ops[5].edge, edge(1));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn generations_merge_and_max_gen_tracks() {
        let dir = temp_dir("gens");
        assert_eq!(max_history_gen(&dir).expect("empty"), None);
        let mut g0 = HistoryLog::open(&dir, 0, 0, JournalMode::Buffered).expect("g0");
        g0.append_insert(0, &edge(0)).expect("append");
        drop(g0);
        let mut g1 = HistoryLog::open(&dir, 1, 0, JournalMode::Buffered).expect("g1");
        g1.append_insert(1, &edge(1)).expect("append");
        drop(g1);
        assert_eq!(max_history_gen(&dir).expect("gens"), Some(1));
        assert_eq!(max_history_seq(&dir, |_, _| true).expect("seqs"), Some(1));
        assert_eq!(max_history_seq(&dir, |g, _| g == 0).expect("g0"), Some(0));
        let ops = read_history(&dir).expect("read");
        assert_eq!(ops, vec![insert(0), insert(1)]);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn identical_duplicates_dedup_but_divergent_duplicates_fail() {
        let dir = temp_dir("dups");
        // The re-drive artifact: the same record appended twice (crash
        // between history append and ack, then supervision re-drives).
        let mut log = HistoryLog::open(&dir, 0, 0, JournalMode::Buffered).expect("open");
        log.append_insert(0, &edge(0)).expect("append");
        log.append_insert(0, &edge(0)).expect("re-drive dup");
        log.append_insert(1, &edge(1)).expect("append");
        drop(log);
        assert_eq!(
            read_history(&dir).expect("dedup"),
            vec![insert(0), insert(1)]
        );

        // A *different* record claiming seq 1: corruption, typed.
        let mut log = HistoryLog::open(&dir, 0, 1, JournalMode::Buffered).expect("open s1");
        log.append_delete(1, &edge(9)).expect("divergent");
        drop(log);
        let err = read_history(&dir).expect_err("divergent seqs must fail");
        assert!(
            err.to_string().contains("sequence number 1"),
            "unexpected error: {err}"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn torn_tail_is_trimmed_on_rearm_and_skipped_on_read() {
        let dir = temp_dir("torn");
        let mut log = HistoryLog::open(&dir, 0, 0, JournalMode::Buffered).expect("open");
        log.append_insert(0, &edge(0)).expect("append");
        log.append_insert(1, &edge(1)).expect("append");
        drop(log);
        let path = dir.join(history_file_name(0, 0));
        let full = std::fs::read(&path).expect("read file");
        // Tear every byte boundary inside the second record.
        let record_len = (full.len() as u64 - HEADER_LEN) / 2;
        let prefix_end = (HEADER_LEN + record_len) as usize;
        for cut in prefix_end + 1..full.len() {
            std::fs::write(&path, &full[..cut]).expect("tear");
            // Read side: the complete prefix only, never an error.
            assert_eq!(
                read_history(&dir).expect("torn read"),
                vec![insert(0)],
                "cut at byte {cut}"
            );
            // Re-arm side: trims, then appends cleanly at the boundary.
            let mut log = HistoryLog::open(&dir, 0, 0, JournalMode::Buffered).expect("re-arm");
            log.append_insert(7, &edge(7)).expect("append after trim");
            drop(log);
            assert_eq!(
                read_history(&dir).expect("after re-arm"),
                vec![insert(0), insert(7)],
                "cut at byte {cut}"
            );
            std::fs::write(&path, &full).expect("restore");
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn interior_bit_flip_is_typed_corruption() {
        let dir = temp_dir("bitflip");
        let mut log = HistoryLog::open(&dir, 0, 0, JournalMode::Buffered).expect("open");
        log.append_insert(0, &edge(0)).expect("append");
        log.append_insert(1, &edge(1)).expect("append");
        drop(log);
        let path = dir.join(history_file_name(0, 0));
        let mut bytes = std::fs::read(&path).expect("read");
        let target = HEADER_LEN as usize + 12;
        bytes[target] ^= 0x40;
        std::fs::write(&path, &bytes).expect("corrupt");
        assert!(matches!(
            read_history(&dir),
            Err(JournalError::Corrupt { record: 0, .. })
        ));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn bad_magic_version_and_oversized_length_are_corruption() {
        let dir = temp_dir("header");
        let mut log = HistoryLog::open(&dir, 0, 0, JournalMode::Buffered).expect("open");
        log.append_insert(0, &edge(0)).expect("append");
        drop(log);
        let path = dir.join(history_file_name(0, 0));
        let full = std::fs::read(&path).expect("read");

        let mut bad_magic = full.clone();
        bad_magic[0] ^= 0xFF;
        std::fs::write(&path, &bad_magic).expect("write");
        assert!(matches!(
            read_history(&dir),
            Err(JournalError::Corrupt { record: 0, .. })
        ));

        let mut bad_version = full.clone();
        bad_version[8] = 0xEE;
        std::fs::write(&path, &bad_version).expect("write");
        let err = read_history(&dir).expect_err("future version refused");
        assert!(err.to_string().contains("version"), "{err}");

        let mut oversized = full.clone();
        oversized.extend_from_slice(&(MAX_RECORD_BYTES + 1).to_le_bytes());
        oversized.extend_from_slice(&[0u8; 16]);
        std::fs::write(&path, &oversized).expect("write");
        assert!(matches!(
            read_history(&dir),
            Err(JournalError::Corrupt { record: 1, .. })
        ));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn missing_directory_and_unrelated_files_read_as_empty() {
        let dir = temp_dir("empty");
        assert_eq!(read_history(&dir).expect("empty dir"), Vec::new());
        std::fs::write(dir.join("journal-000.higgs"), b"not history").expect("write");
        std::fs::write(dir.join("history-xyz.higgs"), b"bad name").expect("write");
        assert_eq!(read_history(&dir).expect("unrelated files"), Vec::new());
        assert_eq!(max_history_seq(&dir, |_, _| true).expect("no seqs"), None);
        let gone = dir.join("no-such-subdir");
        assert_eq!(read_history(&gone).expect("missing dir"), Vec::new());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// The maximum the re-arm scan reports is the one a full read computes,
    /// on files of random records (singles, batches and deletes with random,
    /// unordered sequence numbers) torn at a random byte.
    #[test]
    fn arm_reports_the_same_maximum_as_a_full_read_on_torn_files() {
        let dir = temp_dir("arm-max");
        let path = dir.join(history_file_name(0, 0));
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        for case in 0..40 {
            let _ = std::fs::remove_file(&path);
            let mut log = HistoryLog::open(&dir, 0, 0, JournalMode::Buffered).expect("open");
            for _ in 0..1 + next(12) {
                match next(3) {
                    0 => log.append_insert(next(10_000), &edge(case)),
                    1 => {
                        let n = 1 + next(6);
                        let edges: Vec<StreamEdge> = (0..n).map(edge).collect();
                        let seqs: Vec<u64> = (0..n).map(|_| next(10_000)).collect();
                        log.append_insert_batch(&edges, &seqs)
                    }
                    _ => log.append_delete(next(10_000), &edge(case)),
                }
                .expect("append");
            }
            drop(log);
            let full = std::fs::read(&path).expect("read");
            let cut = HEADER_LEN + next(full.len() as u64 - HEADER_LEN + 1);
            std::fs::write(&path, &full[..cut as usize]).expect("tear");
            let read = max_history_seq(&dir, |_, _| true).expect("full read");
            let (scan, scanned) = HistoryLog::scan(&dir, 0, 0).expect("scan");
            assert_eq!(scanned, read, "case {case}, cut at byte {cut}");
            drop(HistoryLog::arm_scanned(&dir, 0, 0, JournalMode::Buffered, scan).expect("arm"));
            // Arming trimmed the torn tail: the file now ends at the scan's
            // clean end, and scanning it again reports the same maximum.
            let (again, rescanned) = HistoryLog::scan(&dir, 0, 0).expect("re-scan");
            assert_eq!(rescanned, read, "case {case}, second scan");
            let len = std::fs::metadata(&path).expect("stat").len();
            assert_eq!(again, LogScan::Clean { clean_end: len }, "case {case}");
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// A history file stamped with an older format `version` is refused
    /// typed by both the merged read and re-arm, and left as it was.
    fn assert_old_version_refused(version: u32) {
        let dir = temp_dir(&format!("v{version}"));
        let mut log = HistoryLog::open(&dir, 0, 0, JournalMode::Buffered).expect("open");
        log.append_insert(0, &edge(0)).expect("append");
        drop(log);
        let path = dir.join(history_file_name(0, 0));
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
        for err in [
            read_history(&dir).expect_err("read refuses an old version"),
            HistoryLog::open(&dir, 0, 0, JournalMode::Buffered)
                .expect_err("arm refuses an old version"),
        ] {
            let expected = format!("unsupported history format version {version}");
            assert!(
                matches!(&err, JournalError::Corrupt { detail, .. } if detail.contains(&expected)),
                "{err}"
            );
        }
        assert_eq!(std::fs::read(&path).expect("read"), bytes);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn version_1_history_is_refused_typed() {
        assert_old_version_refused(1);
    }

    /// Version 2 wrote fixed-width ops; its bodies would misparse as
    /// varints, so the header refuses them before any record is read.
    #[test]
    fn version_2_history_is_refused_typed() {
        assert_old_version_refused(2);
    }

    /// Every op of the history files in `dir`, decoded in file order (no
    /// merge, no dedup), for checking exactly what was appended.
    fn ops_in_file_order(dir: &Path) -> Vec<HistoryOp> {
        let mut ops = Vec::new();
        scan_history(
            dir,
            |_, _| true,
            |body| decode_body(body, |op| ops.push(op)),
        )
        .expect("scan");
        ops
    }

    #[test]
    fn extreme_ops_round_trip_and_tear_to_their_prefix() {
        let dir = temp_dir("extreme");
        let max = StreamEdge::new(u64::MAX, u64::MAX, u64::MAX, u64::MAX);
        let chunk: Vec<StreamEdge> = (0..512u64)
            .map(|i| {
                let wild = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                StreamEdge::new(wild, i, 1 + wild % 3, wild >> (i % 64))
            })
            .collect();
        // Sequence numbers that jump, step back, repeat and wrap.
        let chunk_seqs: Vec<u64> = (0..512u64)
            .map(|i| match i % 4 {
                0 => u64::MAX - i,
                1 => i,
                2 => i,
                _ => i.wrapping_mul(0x2545_f491_4f6c_dd1d),
            })
            .collect();
        let tail = [
            StreamEdge::new(7, 8, 1, 1_000),
            max,
            StreamEdge::new(9, 10, 1, 999),
        ];
        let mut log = HistoryLog::open(&dir, 0, 0, JournalMode::Buffered).expect("open");
        log.append_insert(u64::MAX, &max).expect("insert");
        log.append_delete(0, &max).expect("delete");
        log.append_insert_batch(&[max], &[u64::MAX])
            .expect("one-edge batch");
        log.append_insert_batch(&chunk, &chunk_seqs)
            .expect("full chunk");
        log.append_insert_batch(&tail, &[5, 3, 3])
            .expect("tail batch");
        drop(log);

        let op = |seq, kind, edge| HistoryOp { seq, kind, edge };
        let mut expected = vec![
            op(u64::MAX, HistoryOpKind::Insert, max),
            op(0, HistoryOpKind::Delete, max),
            op(u64::MAX, HistoryOpKind::Insert, max),
        ];
        expected.extend(
            chunk_seqs
                .iter()
                .zip(&chunk)
                .map(|(&seq, &edge)| op(seq, HistoryOpKind::Insert, edge)),
        );
        let prefix = expected.len();
        expected.extend(
            [5, 3, 3]
                .into_iter()
                .zip(tail)
                .map(|(seq, edge)| op(seq, HistoryOpKind::Insert, edge)),
        );
        assert_eq!(ops_in_file_order(&dir), expected);

        // Worst-case ops stay within 50 bytes each: the single-op records
        // are tag + op + checksum behind a 4-byte length prefix.
        let path = dir.join(history_file_name(0, 0));
        let full = std::fs::read(&path).expect("read");
        let first_len = u32::from_le_bytes(full[12..16].try_into().expect("4 bytes"));
        assert!(first_len as usize <= 1 + 50 + 8, "{first_len}");

        // Tear every byte of the last frame: the ops before it, exactly.
        let mut at = HEADER_LEN as usize;
        let mut last_start = at;
        while at < full.len() {
            last_start = at;
            at += 4 + u32::from_le_bytes(full[at..at + 4].try_into().expect("4 bytes")) as usize;
        }
        for cut in last_start..full.len() {
            std::fs::write(&path, &full[..cut]).expect("tear");
            assert_eq!(
                ops_in_file_order(&dir),
                expected[..prefix],
                "cut at byte {cut}"
            );
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn batch_counts_the_body_cannot_hold_are_typed_corruption() {
        let dir = temp_dir("count");
        let path = dir.join(history_file_name(0, 0));
        drop(HistoryLog::open(&dir, 0, 0, JournalMode::Buffered).expect("open"));
        let header = std::fs::read(&path).expect("read");
        // One op: Δseq +1, then edge (1, 2, 1, Δts +3).
        let one_op: &[u8] = &[2, 1, 2, 1, 6];
        let cases: [(u64, Vec<u8>, &str); 3] = [
            (MAX_BATCH_EDGES + 1, Vec::new(), "exceeds limit"),
            (MAX_BATCH_EDGES, vec![0; 64], "unexpected end"),
            (2, [one_op, &[2, 0x81, 1, 1, 1]].concat(), "unexpected end"),
        ];
        for (count, ops, expected) in cases {
            let mut body = vec![TAG_INSERT_BATCH];
            put_varint(&mut body, count);
            body.extend_from_slice(&ops);
            let mut bytes = header.clone();
            bytes.extend_from_slice(&(body.len() as u32 + 8).to_le_bytes());
            bytes.extend_from_slice(&body);
            bytes.extend_from_slice(&framing::frame_checksum(&body).to_le_bytes());
            std::fs::write(&path, &bytes).expect("write");
            match read_history(&dir) {
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

    /// The whole history file for a fixed record sequence, byte for byte, at
    /// format version 3: a refactor of the log code must not move a byte.
    /// The bytes and checksums were cross-checked against an independent
    /// implementation of the varint layout and the frame checksum.
    #[test]
    fn history_file_bytes_match_the_golden_encoding() {
        const GOLDEN: &[&str] = &[
            "4849474753484953", // magic "HIGGSHIS"
            "03000000",         // version 3
            "0e000000",         // len 14
            "01",               // tag insert
            "0e",               // Δseq +7
            "01020308",         // edge (1, 2, 3, Δts +4)
            "aa209334b5e24fb3", // checksum
            "15000000",         // len 21
            "02",               // tag insert-batch
            "02",               // count 2
            "12",               // Δseq +9
            "05060710",         // edge (5, 6, 7, Δts +8)
            "01",               // Δseq −1
            "ac020a0105",       // edge (300, 10, 1, Δts −3)
            "42dc8d72911c9544", // checksum
            "0e000000",         // len 14
            "03",               // tag delete
            "14",               // Δseq +10
            "01020308",         // edge (1, 2, 3, Δts +4)
            "0345fb4db42b44f9", // checksum
        ];
        let dir = temp_dir("golden");
        let mut log = HistoryLog::open(&dir, 0, 0, JournalMode::Buffered).expect("open");
        log.append_insert(7, &StreamEdge::new(1, 2, 3, 4))
            .expect("insert");
        log.append_insert_batch(
            &[StreamEdge::new(5, 6, 7, 8), StreamEdge::new(300, 10, 1, 5)],
            &[9, 8],
        )
        .expect("batch");
        log.append_delete(10, &StreamEdge::new(1, 2, 3, 4))
            .expect("delete");
        drop(log);
        let bytes = std::fs::read(dir.join(history_file_name(0, 0))).expect("read history");
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN.concat());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
