//! Snapshot / restore persistence for HIGGS summaries and the sharded
//! service (the *warm restart* subsystem).
//!
//! A production service cannot re-ingest its whole stream after every
//! restart; the HIGGS summary **is** the state worth persisting — orders of
//! magnitude smaller than the raw temporal graph. This module defines a
//! versioned binary snapshot format on top of
//! [`higgs_common::codec`] (little-endian primitives with length-prefixed
//! sections) and two persistence surfaces:
//!
//! * [`HiggsSummary::write_snapshot`] / [`HiggsSummary::read_snapshot`] —
//!   one summary to/from any `Write`/`Read` stream, and
//! * [`ShardedHiggs::snapshot_to_dir`] / [`Store::open`](crate::Store::open)
//!   — the whole sharded service to/from a directory: one file per shard
//!   plus a [`SnapshotManifest`].
//!
//! # File format (version 2)
//!
//! Every file opens with an 8-byte magic and a `u32` format version,
//! continues with length-prefixed sections (`tag: u16 | len: u64 |
//! payload`), and closes with a `u64` checksum over every preceding byte:
//! the word-at-a-time frame checksum of the crate's `framing` module, the
//! one every log record carries, taken over the finished document in one
//! pass. Every integer is little-endian. A summary file carries four
//! sections:
//!
//! | tag | section   | contents                                            |
//! |-----|-----------|-----------------------------------------------------|
//! | 1   | config    | every persisted [`HiggsConfig`] knob                |
//! | 2   | meta      | `total_items`, mutation epoch, deferred-aggregation flag, pending jobs |
//! | 3   | leaves    | leaf count; per leaf: time range, item count, matrix, overflow chain |
//! | 4   | internals | level count; per level, node count; per node: time range, optional aggregate matrix |
//!
//! A matrix is persisted as:
//!
//! | field             | bytes       | contents                                  |
//! |-------------------|-------------|-------------------------------------------|
//! | geometry          | 24          | side `d` (`u64`), layer (`u32`), bucket entries `b` (`u64`), mapping `r` (`u32`) |
//! | occupancy         | `d²`        | occupied slots per bucket (`u8`), row-major |
//! | keys              | `8 · n`     | packed fingerprint pairs (`u64`)          |
//! | index pairs       | `2 · n`     | MMB index pairs (`u16`)                   |
//! | time offsets      | `4 · n`     | offsets from the leaf's start time (`u32`) |
//! | weights           | `8 · n`     | accumulated weights (`i64`)               |
//! | spill list        | `8 + 32 · s`| count, then per entry both addresses, both fingerprints and the weight |
//!
//! where `n` is the occupancy's sum: only the occupied slots are stored, in
//! bucket order, as four columns (22 bytes a slot), so a snapshot's size
//! tracks the stored entries. An overflow chain is its geometry (side,
//! bucket entries, mapping), a block count and that many matrices. A matrix
//! persists exactly a sealed matrix's content (see
//! [`matrix`](crate::matrix)): a writable and a sealed matrix with the same
//! entries encode to the same bytes, the writer takes a sealed matrix's
//! columns as they are, and restore decodes every matrix straight into the
//! sealed columns, then turns only the open leaf and its overflow chain
//! writable again, as a never-restored summary holds them. Runtime state
//! (plan cache, plan counter) is deliberately *not* persisted: it is
//! re-derivable and epoch-guarded, so a restored summary starts with a cold
//! plan cache but the **persisted mutation epoch**, keeping epoch
//! monotonicity across restarts.
//!
//! The manifest file (tag 5) records the format version, the full service
//! config (including the shard count — routing is the pure function
//! [`higgs_common::hashing::shard_of`] of `(vertex, shards)`, so no routing
//! seed beyond the count exists), and each shard file's checksum and item
//! count. Restore verifies, in order: the manifest, that no extra shard file
//! exists beyond the manifest's count
//! ([`SnapshotError::ShardCountMismatch`]), then each shard file's own
//! checksum **and** its manifest-recorded checksum
//! ([`SnapshotError::ShardChecksumMismatch`]) before any shard state is
//! served. The shard files are read in parallel; when several fail, the
//! lowest failing shard's error is the one reported.
//!
//! # Check order
//!
//! A document is encoded into one buffer and written with one write; a
//! reader takes one whole document into memory (a shard file is read in one
//! go) and decodes it from there. Each document is checked in this order:
//!
//! 1. the magic ([`SnapshotError::BadMagic`]), then the version
//!    ([`SnapshotError::UnsupportedVersion`]);
//! 2. the structure, as it decodes: section tags in order, every count
//!    within its limit and within the bytes actually present (a count the
//!    rest of the document cannot hold is a truncation, reported before
//!    anything is allocated for it), every geometry, the persisted config,
//!    and each section's declared length;
//! 3. the trailing checksum;
//! 4. the cross-section checks (every pending aggregation job names an
//!    internal node; the manifest's shard table matches its config).
//!
//! So a truncated file fails with `UnexpectedEof`, a garbled field with the
//! structural error that names it, and only a structurally sound file is
//! checksummed.
//!
//! # Consistency guarantee
//!
//! [`ShardedHiggs::snapshot_to_dir`] first drives the acked-`Flush` clock
//! (the same mechanism that makes queries read-your-writes), so the snapshot
//! covers every mutation enqueued before the call — by the caller or any
//! [`IngestHandle`](crate::IngestHandle) clone — including background
//! aggregations. Mutations enqueued concurrently *during* the snapshot may
//! or may not be included per shard (the same per-shard-prefix semantics
//! concurrent readers get); quiesce producers first if a global cut is
//! required.
//!
//! # Versioning policy
//!
//! `FORMAT_VERSION` is bumped on any layout or checksum change, and a
//! reader reads exactly its own version: any other, older or newer, is
//! refused with [`SnapshotError::UnsupportedVersion`] instead of guessed at.
//! No reader for an earlier version is kept. Version 2 stores the slots as
//! four columns and closes each document with the word-at-a-time frame
//! checksum; version 1 stored each slot as a row and closed with a
//! byte-serial FNV-1a checksum. A directory written in version 1 is refused
//! typed; rebuild it from its source stream.

use crate::config::{ConfigError, HiggsConfig, JournalMode};
use crate::framing::{frame_checksum, LogScan};
use crate::journal::{failpoint, JournalError};
use crate::matrix::{pack_tag, unpack_tag, CompressedMatrix, SpillEntry};
use crate::node::{InternalNode, LeafNode};
use crate::overflow::OverflowChain;
use crate::shard::ShardedHiggs;
use crate::tree::{HiggsSummary, PendingAggregation};
use higgs_common::codec::{
    begin_section, end_section, put_bool, put_i64, put_u16, put_u32, put_u64, CodecError, Reader,
};
use std::fmt;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// Magic opening a single-summary snapshot file (`HIGGSSUM`).
pub const SUMMARY_MAGIC: u64 = u64::from_le_bytes(*b"HIGGSSUM");
/// Magic opening a sharded-service manifest file (`HIGGSMAN`).
pub const MANIFEST_MAGIC: u64 = u64::from_le_bytes(*b"HIGGSMAN");
/// Current snapshot format version (see the module docs for the policy).
pub const FORMAT_VERSION: u32 = 2;

/// Manifest file name inside a snapshot directory.
pub const MANIFEST_FILE: &str = "manifest.higgs";

const TAG_CONFIG: u16 = 1;
const TAG_META: u16 = 2;
const TAG_LEAVES: u16 = 3;
const TAG_INTERNALS: u16 = 4;
const TAG_MANIFEST: u16 = 5;

// Decode-side sanity limits: far above anything a real summary holds. The
// decoder also checks every count against the bytes actually present before
// allocating for it.
const MAX_LEAVES: u64 = 1 << 32;
const MAX_LEVELS: u64 = 64;
const MAX_NODES: u64 = 1 << 32;
const MAX_BLOCKS: u64 = 1 << 24;
const MAX_SPILL: u64 = 1 << 32;
const MAX_PENDING: u64 = 1 << 32;
const MAX_MATRIX_SIDE: u64 = 1 << 20;

/// Why a snapshot write or restore failed. Every failure mode is typed —
/// corruption is reported, never a panic or a silently wrong summary.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem / stream I/O failed.
    Io(std::io::Error),
    /// The byte stream violated the codec layer: truncated input, a
    /// checksum mismatch, or a malformed primitive.
    Codec(CodecError),
    /// The file does not open with the expected magic (not a snapshot, or
    /// the wrong kind of snapshot file).
    BadMagic {
        /// The magic the reader expected.
        expected: u64,
        /// The bytes actually found.
        found: u64,
    },
    /// The file was written in a format version this build does not read
    /// (an older one, or a newer one).
    UnsupportedVersion {
        /// Version recorded in the file.
        found: u32,
        /// The one version this build reads.
        supported: u32,
    },
    /// The persisted configuration failed [`HiggsConfig::validate`].
    Config(ConfigError),
    /// A structural invariant was violated after the bytes decoded cleanly
    /// (e.g. occupancy exceeding the bucket capacity); the message names the
    /// violation.
    Corrupt(String),
    /// The snapshot directory holds a different number of shard files than
    /// the manifest declares.
    ShardCountMismatch {
        /// Shard count recorded in the manifest.
        manifest: usize,
        /// Shard files actually present.
        found: usize,
    },
    /// A shard file's content checksum does not match what the manifest
    /// recorded for it (the file was swapped or modified after the
    /// snapshot).
    ShardChecksumMismatch {
        /// Index of the offending shard.
        shard: usize,
        /// Checksum recorded in the manifest.
        manifest: u64,
        /// Checksum computed from the shard file.
        file: u64,
    },
    /// A shard file named by the manifest is missing.
    MissingShard {
        /// Index of the missing shard.
        shard: usize,
        /// The path that was expected to exist.
        path: PathBuf,
    },
    /// Reading or replaying a shard's write-ahead journal failed during a
    /// durable restore (see [`crate::journal`]).
    Journal(JournalError),
    /// The service has a degraded shard (its writer failed and has not
    /// recovered), so a snapshot would capture partial state — and, for a
    /// durable service, truncating the journal afterwards would discard the
    /// shard's only intact record. Recover or rebuild the service first.
    DegradedShard {
        /// Index of the degraded shard.
        shard: usize,
    },
    /// [`Store::open`](crate::Store::open) with
    /// [`OpenMode::CreateNew`](crate::OpenMode::CreateNew) found the
    /// directory already initialised (it holds a snapshot manifest). Use
    /// `OpenExisting` / `OpenOrCreate` to recover it instead.
    AlreadyExists {
        /// The directory that is already initialised.
        dir: PathBuf,
    },
    /// Elastic history ([`StoreOptions::elastic`](crate::StoreOptions::elastic))
    /// cannot be provided for this open: journaling is off, or the directory
    /// already holds non-elastic state whose mutation history was never
    /// recorded. The message names the missing prerequisite.
    ElasticUnavailable {
        /// What exactly is missing.
        detail: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Codec(e) => write!(f, "snapshot encoding error: {e}"),
            SnapshotError::BadMagic { expected, found } => write!(
                f,
                "bad snapshot magic: expected {expected:#018x}, found {found:#018x}"
            ),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads version \
                 {supported} only)"
            ),
            SnapshotError::Config(e) => write!(f, "persisted configuration is invalid: {e}"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            SnapshotError::ShardCountMismatch { manifest, found } => write!(
                f,
                "manifest declares {manifest} shard(s) but the directory holds {found}"
            ),
            SnapshotError::ShardChecksumMismatch {
                shard,
                manifest,
                file,
            } => write!(
                f,
                "shard {shard} checksum {file:#018x} does not match the manifest's {manifest:#018x}"
            ),
            SnapshotError::MissingShard { shard, path } => {
                write!(f, "shard {shard} file missing: {}", path.display())
            }
            SnapshotError::Journal(e) => write!(f, "journal replay failed: {e}"),
            SnapshotError::DegradedShard { shard } => write!(
                f,
                "shard {shard} is degraded: its writer failed and has not recovered, \
                 so a snapshot would capture partial state"
            ),
            SnapshotError::AlreadyExists { dir } => write!(
                f,
                "directory {} is already initialised (CreateNew refuses to recover \
                 existing state; open it with OpenExisting or OpenOrCreate)",
                dir.display()
            ),
            SnapshotError::ElasticUnavailable { detail } => {
                write!(f, "elastic history unavailable: {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Codec(e) => Some(e),
            SnapshotError::Config(e) => Some(e),
            SnapshotError::Journal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        SnapshotError::Codec(e)
    }
}

impl From<ConfigError> for SnapshotError {
    fn from(e: ConfigError) -> Self {
        SnapshotError::Config(e)
    }
}

// --- encoded sizes -----------------------------------------------------------

/// Bytes of a matrix geometry prefix: side, layer, bucket entries, mapping.
const GEOMETRY_BYTES: usize = 8 + 4 + 8 + 4;
/// Bytes of one persisted slot across the four columns: key (`u64`), index
/// pair (`u16`), time offset (`u32`) and weight (`i64`).
const SLOT_BYTES: usize = 8 + 2 + 4 + 8;
/// Bytes of one spill entry.
const SPILL_BYTES: usize = 8 + 8 + 4 + 4 + 8;
/// Bytes of an overflow chain's geometry prefix and block count.
const CHAIN_HEADER_BYTES: usize = 8 + 8 + 4 + 8;
/// The fewest bytes a matrix encodes to (a 2 × 2 grid, no slot, no spill).
const MIN_MATRIX_BYTES: usize = GEOMETRY_BYTES + 4 + 8;
/// The fewest bytes a leaf encodes to.
const MIN_LEAF_BYTES: usize = 24 + MIN_MATRIX_BYTES + CHAIN_HEADER_BYTES;
/// The fewest bytes an internal node encodes to (no aggregate matrix).
const MIN_NODE_BYTES: usize = 8 + 8 + 1;
/// Bytes of a section header: tag and payload length.
const SECTION_HEADER_BYTES: usize = 2 + 8;
/// Bytes of a document's magic and version.
const DOCUMENT_HEADER_BYTES: usize = 8 + 4;

fn config_len(config: &HiggsConfig) -> usize {
    let cap = 8 * usize::from(config.ingest_queue_cap.is_some());
    8 + 4 + 4 + 8 + 4 + 1 + 8 + 8 + 1 + cap
}

fn matrix_len(matrix: &CompressedMatrix) -> usize {
    let buckets = (matrix.side() * matrix.side()) as usize;
    GEOMETRY_BYTES
        + buckets
        + SLOT_BYTES * matrix.stored()
        + 8
        + SPILL_BYTES * matrix.spill_entries().len()
}

fn leaf_len(leaf: &LeafNode) -> usize {
    24 + matrix_len(&leaf.matrix)
        + CHAIN_HEADER_BYTES
        + leaf.overflow.blocks().iter().map(matrix_len).sum::<usize>()
}

// --- encoders and decoders ---------------------------------------------------

fn encode_config(buf: &mut Vec<u8>, config: &HiggsConfig) {
    put_u64(buf, config.d1);
    put_u32(buf, config.f1_bits);
    put_u32(buf, config.r_bits);
    put_u64(buf, config.bucket_entries as u64);
    put_u32(buf, config.mapping_addresses);
    put_bool(buf, config.overflow_blocks);
    put_u64(buf, config.shards as u64);
    put_u64(buf, config.plan_cache_capacity as u64);
    put_bool(buf, config.ingest_queue_cap.is_some());
    if let Some(cap) = config.ingest_queue_cap {
        put_u64(buf, cap as u64);
    }
}

fn decode_config(dec: &mut Reader<'_>) -> Result<HiggsConfig, SnapshotError> {
    let d1 = dec.u64()?;
    let f1_bits = dec.u32()?;
    let r_bits = dec.u32()?;
    let bucket_entries = dec.count(u8::MAX as u64, "bucket_entries")?;
    let mapping_addresses = dec.u32()?;
    let overflow_blocks = dec.bool()?;
    let shards = dec.count(crate::shard::MAX_SHARDS as u64, "shards")?;
    let plan_cache_capacity = dec.count(u32::MAX as u64, "plan_cache_capacity")?;
    let ingest_queue_cap = if dec.bool()? {
        Some(dec.count(u64::MAX >> 1, "ingest_queue_cap")?)
    } else {
        None
    };
    let config = HiggsConfig {
        d1,
        f1_bits,
        r_bits,
        bucket_entries,
        mapping_addresses,
        overflow_blocks,
        shards,
        plan_cache_capacity,
        ingest_queue_cap,
        // Worker pinning, admission tick, submission-queue depth and the
        // journal sync policy are runtime state of the serving process, not
        // data: the snapshot format does not carry them, and a restored
        // service starts with the inert defaults (the restoring caller may
        // opt back in on its own machine — `Store::open` re-arms
        // journaling from its caller's config).
        pin_workers: false,
        admission_tick: std::time::Duration::ZERO,
        service_queue_depth: None,
        journal_mode: JournalMode::Off,
    };
    config.validate()?;
    Ok(config)
}

/// Encodes a matrix: its geometry, the per-bucket occupancy counts, the
/// occupied slots as four columns (keys, index pairs, time offsets,
/// weights), then the spill list.
fn encode_matrix(buf: &mut Vec<u8>, matrix: &CompressedMatrix) {
    put_u64(buf, matrix.side());
    put_u32(buf, matrix.layer());
    put_u64(buf, matrix.bucket_entries() as u64);
    put_u32(buf, matrix.mapping());
    let columns = matrix.sealed_columns();
    // One occupancy byte per bucket, empty or not, derived from the sparse
    // bucket index (each bucket spans at most `bucket_entries <= 255`
    // slots).
    columns.extend_lens(buf);
    columns.keys.iter().for_each(|&key| put_u64(buf, key));
    let tags = columns.tags.iter().map(|&tag| unpack_tag(tag));
    tags.clone().for_each(|(idx, _)| put_u16(buf, idx));
    tags.for_each(|(_, offset)| put_u32(buf, offset));
    columns
        .weights
        .iter()
        .for_each(|&weight| put_i64(buf, weight));
    put_u64(buf, matrix.spill_entries().len() as u64);
    for spill in matrix.spill_entries() {
        put_u64(buf, spill.addr_src);
        put_u64(buf, spill.addr_dst);
        put_u32(buf, spill.fp_src);
        put_u32(buf, spill.fp_dst);
        put_i64(buf, spill.weight);
    }
}

/// The little-endian words of `bytes` (a whole number of `N`-byte words).
fn words<const N: usize>(bytes: &[u8]) -> impl Iterator<Item = [u8; N]> + '_ {
    bytes.as_chunks::<N>().0.iter().copied()
}

fn decode_matrix(dec: &mut Reader<'_>) -> Result<CompressedMatrix, SnapshotError> {
    let side = dec.u64()?;
    let layer = dec.u32()?;
    let bucket_entries = dec.count(u8::MAX as u64, "matrix bucket_entries")?;
    let mapping = dec.u32()?;
    // Pre-validate what CompressedMatrix::new would otherwise assert on, so
    // a corrupt snapshot reports a typed error instead of panicking.
    if !side.is_power_of_two() || !(2..=MAX_MATRIX_SIDE).contains(&side) {
        return Err(SnapshotError::Corrupt(format!(
            "matrix side {side} is not a power of two in [2, {MAX_MATRIX_SIDE}]"
        )));
    }
    if bucket_entries == 0 {
        return Err(SnapshotError::Corrupt(
            "matrix bucket_entries must be at least 1".into(),
        ));
    }
    if mapping == 0 || mapping as usize > crate::matrix::MAX_MAPPING {
        return Err(SnapshotError::Corrupt(format!(
            "matrix mapping {mapping} outside [1, {}]",
            crate::matrix::MAX_MAPPING
        )));
    }
    // Every length below is checked against the bytes actually present
    // before anything is allocated for it, so a bit-flipped geometry or
    // count on a small file dies with UnexpectedEof, never with an OOM
    // abort. The occupancy counts are borrowed from the document.
    let lens = dec.bytes((side * side) as usize)?;
    let stored: usize = lens.iter().map(|&l| usize::from(l)).sum();
    if stored * SLOT_BYTES > dec.remaining() {
        return Err(CodecError::UnexpectedEof.into());
    }
    let keys = words(dec.bytes(8 * stored)?)
        .map(u64::from_le_bytes)
        .collect();
    let idx = words(dec.bytes(2 * stored)?).map(u16::from_le_bytes);
    let offsets = words(dec.bytes(4 * stored)?).map(u32::from_le_bytes);
    let tags = idx.zip(offsets).map(|(i, o)| pack_tag(i, o)).collect();
    let weights = words(dec.bytes(8 * stored)?)
        .map(i64::from_le_bytes)
        .collect();
    let spill_count = dec.items(MAX_SPILL, SPILL_BYTES, "matrix spill count")?;
    let mut spill = Vec::with_capacity(spill_count);
    for _ in 0..spill_count {
        spill.push(SpillEntry {
            addr_src: dec.u64()?,
            addr_dst: dec.u64()?,
            fp_src: dec.u32()?,
            fp_dst: dec.u32()?,
            weight: dec.i64()?,
        });
    }
    // Decoded matrices come back sealed; restore turns the open leaf and its
    // chain writable again (see `HiggsSummary::from_restored_parts`).
    CompressedMatrix::from_sealed_columns(
        (side, layer, bucket_entries, mapping),
        lens,
        (keys, tags, weights),
        spill,
    )
    .map_err(SnapshotError::Corrupt)
}

fn encode_chain(buf: &mut Vec<u8>, chain: &OverflowChain) {
    let (side, bucket_entries, mapping) = chain.geometry();
    put_u64(buf, side);
    put_u64(buf, bucket_entries as u64);
    put_u32(buf, mapping);
    put_u64(buf, chain.blocks().len() as u64);
    for block in chain.blocks() {
        encode_matrix(buf, block);
    }
}

fn decode_chain(dec: &mut Reader<'_>) -> Result<OverflowChain, SnapshotError> {
    let side = dec.u64()?;
    let bucket_entries = dec.count(u8::MAX as u64, "overflow bucket_entries")?;
    let mapping = dec.u32()?;
    // The chain geometry seeds `CompressedMatrix::new` for every FUTURE
    // overflow block (the first post-restore same-timestamp burst), whose
    // asserts would then panic inside a live service — validate it now, with
    // the same bounds decode_matrix applies, so corrupt geometry is a typed
    // error at restore time.
    if !side.is_power_of_two() || !(2..=MAX_MATRIX_SIDE).contains(&side) {
        return Err(SnapshotError::Corrupt(format!(
            "overflow chain side {side} is not a power of two in [2, {MAX_MATRIX_SIDE}]"
        )));
    }
    if bucket_entries == 0 {
        return Err(SnapshotError::Corrupt(
            "overflow chain bucket_entries must be at least 1".into(),
        ));
    }
    if mapping == 0 || mapping as usize > crate::matrix::MAX_MAPPING {
        return Err(SnapshotError::Corrupt(format!(
            "overflow chain mapping {mapping} outside [1, {}]",
            crate::matrix::MAX_MAPPING
        )));
    }
    let blocks_len = dec.items(MAX_BLOCKS, MIN_MATRIX_BYTES, "overflow block count")?;
    let mut blocks = Vec::with_capacity(blocks_len);
    for _ in 0..blocks_len {
        blocks.push(decode_matrix(dec)?);
    }
    Ok(OverflowChain::from_restored_parts(
        side,
        bucket_entries,
        mapping,
        blocks,
    ))
}

fn encode_leaf(buf: &mut Vec<u8>, leaf: &LeafNode) {
    put_u64(buf, leaf.start_time);
    put_u64(buf, leaf.end_time);
    put_u64(buf, leaf.items);
    encode_matrix(buf, &leaf.matrix);
    encode_chain(buf, &leaf.overflow);
}

fn decode_leaf(dec: &mut Reader<'_>) -> Result<LeafNode, SnapshotError> {
    let start_time = dec.u64()?;
    let end_time = dec.u64()?;
    let items = dec.u64()?;
    if end_time < start_time {
        return Err(SnapshotError::Corrupt(format!(
            "leaf time range [{start_time}, {end_time}] is inverted"
        )));
    }
    let matrix = decode_matrix(dec)?;
    let overflow = decode_chain(dec)?;
    let mut leaf = LeafNode::new(matrix, overflow, start_time);
    leaf.end_time = end_time;
    leaf.items = items;
    Ok(leaf)
}

/// Appends one section to `buf`: its header, then the payload `build`
/// writes, then the payload length patched into the header.
fn section(buf: &mut Vec<u8>, tag: u16, build: impl FnOnce(&mut Vec<u8>)) {
    let start = begin_section(buf, tag);
    build(buf);
    end_section(buf, start);
}

/// Closes a finished document: appends the [`frame_checksum`] of every byte
/// so far and returns it.
fn finish_document(buf: &mut Vec<u8>) -> u64 {
    let checksum = frame_checksum(buf);
    put_u64(buf, checksum);
    checksum
}

fn read_header(dec: &mut Reader<'_>, expected_magic: u64) -> Result<u32, SnapshotError> {
    let magic = dec.u64()?;
    if magic != expected_magic {
        return Err(SnapshotError::BadMagic {
            expected: expected_magic,
            found: magic,
        });
    }
    let version = dec.u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    Ok(version)
}

/// Reads a section header and checks the tag is the expected one (sections
/// are written in a fixed order), returning the payload length and the
/// position where the payload starts.
fn expect_section(dec: &mut Reader<'_>, expected: u16) -> Result<(u64, usize), SnapshotError> {
    let (tag, len) = dec.section_header()?;
    if tag != expected {
        return Err(SnapshotError::Corrupt(format!(
            "expected section {expected}, found {tag}"
        )));
    }
    Ok((len, dec.position()))
}

/// Reads the trailing checksum of the document `bytes` that `dec` has
/// decoded up to it, and compares it with the [`frame_checksum`] of every
/// byte before it. Returns the checksum on success.
fn verify_checksum(dec: &mut Reader<'_>, bytes: &[u8]) -> Result<u64, SnapshotError> {
    let (body, _) = bytes.split_at(dec.position());
    let stored = dec.u64()?;
    let computed = frame_checksum(body);
    if stored != computed {
        return Err(CodecError::Invalid(format!(
            "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        ))
        .into());
    }
    Ok(stored)
}

/// Reads exactly one document of `sections` sections from `source`: the
/// header, each section's header and payload, and the trailing checksum,
/// as their lengths say. The bytes are only framed here, not checked; a
/// source that ends early yields the bytes read so far, and the decoder
/// reports what is missing. Payload lengths are untrusted, so the buffer
/// grows only as bytes actually arrive.
fn read_document<R: Read>(source: &mut R, sections: usize) -> Result<Vec<u8>, SnapshotError> {
    let mut bytes = Vec::new();
    let mut more = |bytes: &mut Vec<u8>, n: u64| -> std::io::Result<bool> {
        let got = source.by_ref().take(n).read_to_end(bytes)?;
        Ok(got as u64 == n)
    };
    if !more(&mut bytes, DOCUMENT_HEADER_BYTES as u64)? {
        return Ok(bytes);
    }
    for _ in 0..sections {
        if !more(&mut bytes, SECTION_HEADER_BYTES as u64)? {
            return Ok(bytes);
        }
        let mut len = [0u8; 8];
        len.copy_from_slice(&bytes[bytes.len() - 8..]);
        if !more(&mut bytes, u64::from_le_bytes(len))? {
            return Ok(bytes);
        }
    }
    more(&mut bytes, 8)?;
    Ok(bytes)
}

impl HiggsSummary {
    /// The exact byte length of this summary's snapshot document.
    fn snapshot_len(&self) -> usize {
        let meta = 8 + 8 + 1 + 8 + 16 * self.pending.len();
        let leaves = 8 + self.leaves.iter().map(leaf_len).sum::<usize>();
        let internals = 8 + self
            .internals
            .iter()
            .map(|level| {
                8 + level
                    .iter()
                    .map(|node| MIN_NODE_BYTES + node.matrix.as_ref().map_or(0, matrix_len))
                    .sum::<usize>()
            })
            .sum::<usize>();
        DOCUMENT_HEADER_BYTES
            + 4 * SECTION_HEADER_BYTES
            + config_len(&self.config)
            + meta
            + leaves
            + internals
            + 8
    }

    /// Serialises this summary into `sink` as one self-contained snapshot
    /// document (magic, version, config / meta / leaves / internals
    /// sections, trailing checksum), encoded in memory and handed to `sink`
    /// in one write. Returns the document checksum — the value
    /// [`ShardedHiggs::snapshot_to_dir`] records per shard in its manifest.
    ///
    /// Deferred-aggregation state is persisted faithfully: unmaterialised
    /// internal nodes are written without a matrix and the pending-job list
    /// rides along, so snapshotting a
    /// [`ParallelHiggs`](crate::ParallelHiggs)-driven summary mid-aggregation
    /// restores to exactly the same (still correct, leaf-descending) query
    /// behaviour. Snapshot after a flush for fully materialised files. A
    /// sharded restore switches every shard to inline aggregation and
    /// materialises such nodes, since service writers aggregate inline.
    pub fn write_snapshot<W: Write>(&self, sink: &mut W) -> Result<u64, SnapshotError> {
        let expected_len = self.snapshot_len();
        let mut buf = Vec::with_capacity(expected_len);
        put_u64(&mut buf, SUMMARY_MAGIC);
        put_u32(&mut buf, FORMAT_VERSION);
        section(&mut buf, TAG_CONFIG, |buf| encode_config(buf, &self.config));
        section(&mut buf, TAG_META, |buf| {
            put_u64(buf, self.total_items);
            put_u64(buf, self.epoch);
            put_bool(buf, self.defer_aggregation);
            put_u64(buf, self.pending.len() as u64);
            for job in &self.pending {
                put_u64(buf, job.level as u64);
                put_u64(buf, job.index as u64);
            }
        });
        section(&mut buf, TAG_LEAVES, |buf| {
            put_u64(buf, self.leaves.len() as u64);
            for leaf in &self.leaves {
                encode_leaf(buf, leaf);
            }
        });
        section(&mut buf, TAG_INTERNALS, |buf| {
            put_u64(buf, self.internals.len() as u64);
            for level in &self.internals {
                put_u64(buf, level.len() as u64);
                for node in level {
                    put_u64(buf, node.start_time);
                    put_u64(buf, node.end_time);
                    put_bool(buf, node.matrix.is_some());
                    if let Some(matrix) = &node.matrix {
                        encode_matrix(buf, matrix);
                    }
                }
            }
        });
        let checksum = finish_document(&mut buf);
        debug_assert_eq!(buf.len(), expected_len, "snapshot length estimate");
        sink.write_all(&buf)?;
        Ok(checksum)
    }

    /// Reads a snapshot written by [`write_snapshot`](Self::write_snapshot)
    /// back into a summary, consuming exactly one document from `source`
    /// and verifying magic, format version, section framing, structural
    /// invariants, and the trailing checksum. On success the returned
    /// summary answers every query bit-identically to the one that was
    /// snapshotted (with a cold plan cache); every failure mode is a typed
    /// [`SnapshotError`].
    pub fn read_snapshot<R: Read>(source: &mut R) -> Result<Self, SnapshotError> {
        let (summary, _) = Self::read_snapshot_with_checksum(source)?;
        Ok(summary)
    }

    /// [`read_snapshot`](Self::read_snapshot), additionally returning the
    /// verified document checksum (compared against the manifest during
    /// sharded restore).
    pub fn read_snapshot_with_checksum<R: Read>(
        source: &mut R,
    ) -> Result<(Self, u64), SnapshotError> {
        Self::decode_snapshot(&read_document(source, 4)?)
    }

    /// Decodes the snapshot document at the start of `bytes` (see the
    /// [module docs](self) for the check order), returning the summary and
    /// its verified checksum.
    fn decode_snapshot(bytes: &[u8]) -> Result<(Self, u64), SnapshotError> {
        let mut dec = Reader::new(bytes);
        read_header(&mut dec, SUMMARY_MAGIC)?;

        let (len, start) = expect_section(&mut dec, TAG_CONFIG)?;
        let config = decode_config(&mut dec)?;
        dec.expect_section_end(start, len, TAG_CONFIG)?;

        let (len, start) = expect_section(&mut dec, TAG_META)?;
        let total_items = dec.u64()?;
        let epoch = dec.u64()?;
        let defer_aggregation = dec.bool()?;
        let pending_len = dec.items(MAX_PENDING, 16, "pending job count")?;
        let mut pending = Vec::with_capacity(pending_len);
        for _ in 0..pending_len {
            pending.push(PendingAggregation {
                level: dec.count(MAX_LEVELS, "pending job level")?,
                index: dec.count(MAX_NODES, "pending job index")?,
            });
        }
        dec.expect_section_end(start, len, TAG_META)?;

        let (len, start) = expect_section(&mut dec, TAG_LEAVES)?;
        let leaf_count = dec.items(MAX_LEAVES, MIN_LEAF_BYTES, "leaf count")?;
        let mut leaves = Vec::with_capacity(leaf_count);
        for _ in 0..leaf_count {
            leaves.push(decode_leaf(&mut dec)?);
        }
        dec.expect_section_end(start, len, TAG_LEAVES)?;

        let (len, start) = expect_section(&mut dec, TAG_INTERNALS)?;
        let level_count = dec.items(MAX_LEVELS, 8, "internal level count")?;
        let mut internals = Vec::with_capacity(level_count);
        for _ in 0..level_count {
            let node_count = dec.items(MAX_NODES, MIN_NODE_BYTES, "internal node count")?;
            let mut nodes = Vec::with_capacity(node_count);
            for _ in 0..node_count {
                let start_time = dec.u64()?;
                let end_time = dec.u64()?;
                let matrix = if dec.bool()? {
                    Some(decode_matrix(&mut dec)?)
                } else {
                    None
                };
                nodes.push(InternalNode {
                    matrix,
                    start_time,
                    end_time,
                });
            }
            internals.push(nodes);
        }
        dec.expect_section_end(start, len, TAG_INTERNALS)?;

        let checksum = verify_checksum(&mut dec, bytes)?;

        // Cross-section validation: every pending aggregation job must name
        // an existing, unmaterialised internal node — a job pointing past
        // the restored tree would panic in `leaf_span` on the first insert
        // or flush, long after restore reported success. (The checksum does
        // not protect against this: it is trivially recomputable, so a
        // crafted or version-skewed file can be checksum-valid yet
        // structurally inconsistent.)
        for job in &pending {
            let node_exists = internals
                .get(job.level)
                .is_some_and(|nodes| job.index < nodes.len());
            if !node_exists {
                return Err(SnapshotError::Corrupt(format!(
                    "pending aggregation job (level {}, index {}) does not name an \
                     internal node of the restored tree",
                    job.level, job.index
                )));
            }
        }

        let summary = HiggsSummary::from_restored_parts(
            config,
            leaves,
            internals,
            total_items,
            defer_aggregation,
            pending,
            epoch,
        )?;
        Ok((summary, checksum))
    }
}

/// The manifest of a sharded snapshot directory: format version, the full
/// service configuration (shard count included — routing needs nothing
/// else, `shard_of` is a pure function of `(vertex, shards)`), and one
/// checksum + item count per shard file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotManifest {
    /// Snapshot format version the directory was written with.
    pub format_version: u32,
    /// The service configuration, `shards` field included.
    pub config: HiggsConfig,
    /// Per-shard document checksums, indexed by shard.
    pub shard_checksums: Vec<u64>,
    /// Per-shard stored item counts at snapshot time (diagnostic).
    pub shard_items: Vec<u64>,
}

impl SnapshotManifest {
    /// Number of shards the snapshot holds.
    pub fn shard_count(&self) -> usize {
        self.shard_checksums.len()
    }

    /// Total items across all shards at snapshot time.
    pub fn total_items(&self) -> u64 {
        self.shard_items.iter().sum()
    }

    fn write_to(&self, sink: &mut impl Write) -> Result<u64, SnapshotError> {
        let mut buf = Vec::new();
        put_u64(&mut buf, MANIFEST_MAGIC);
        put_u32(&mut buf, self.format_version);
        section(&mut buf, TAG_MANIFEST, |buf| {
            encode_config(buf, &self.config);
            put_u64(buf, self.shard_checksums.len() as u64);
            for (&checksum, &items) in self.shard_checksums.iter().zip(&self.shard_items) {
                put_u64(buf, checksum);
                put_u64(buf, items);
            }
        });
        let checksum = finish_document(&mut buf);
        sink.write_all(&buf)?;
        Ok(checksum)
    }

    fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut dec = Reader::new(bytes);
        let format_version = read_header(&mut dec, MANIFEST_MAGIC)?;
        let (len, start) = expect_section(&mut dec, TAG_MANIFEST)?;
        let config = decode_config(&mut dec)?;
        let shard_count = dec.items(crate::shard::MAX_SHARDS as u64, 16, "manifest shard count")?;
        let mut shard_checksums = Vec::with_capacity(shard_count);
        let mut shard_items = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            shard_checksums.push(dec.u64()?);
            shard_items.push(dec.u64()?);
        }
        dec.expect_section_end(start, len, TAG_MANIFEST)?;
        verify_checksum(&mut dec, bytes)?;
        if shard_count != config.shards {
            return Err(SnapshotError::Corrupt(format!(
                "manifest shard table holds {shard_count} entries but the config declares {} shards",
                config.shards
            )));
        }
        Ok(Self {
            format_version,
            config,
            shard_checksums,
            shard_items,
        })
    }

    /// Reads and verifies the manifest of a snapshot directory without
    /// touching the shard files (a cheap pre-flight / inspection hook).
    pub fn read_from_dir(dir: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Self::decode(&std::fs::read(dir.as_ref().join(MANIFEST_FILE))?)
    }
}

/// File name of shard `index` inside a snapshot directory.
pub fn shard_file_name(index: usize) -> String {
    format!("shard-{index:03}.higgs")
}

/// Whether `dir` already holds a snapshot manifest (crate-internal: decides
/// between fresh start and recovery in `Store::open`).
pub(crate) fn manifest_exists(dir: &Path) -> bool {
    dir.join(MANIFEST_FILE).exists()
}

/// The trailing document checksum of the manifest in `dir`, or `0` when the
/// directory holds no (or a torn, sub-checksum-length) manifest. This is the
/// journal *covering stamp*: each shard journal records which manifest its
/// records extend, so recovery can tell a live journal tail from a stale
/// journal whose rotation was interrupted (see the [`crate::journal`] module
/// docs).
pub(crate) fn manifest_tail_checksum(dir: &Path) -> Result<u64, SnapshotError> {
    let path = dir.join(MANIFEST_FILE);
    let mut file = match std::fs::File::open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e.into()),
    };
    let len = file.metadata()?.len();
    if len < 8 {
        return Ok(0);
    }
    use std::io::{Read as _, Seek as _, SeekFrom};
    file.seek(SeekFrom::End(-8))?;
    let mut tail = [0u8; 8];
    file.read_exact(&mut tail)?;
    Ok(u64::from_le_bytes(tail))
}

/// Reads one shard snapshot file into a summary that aggregates inline, the
/// mode every shard writer runs. A file written with deferred aggregation
/// has its missing nodes materialised here, so no shard ever carries
/// pending jobs.
fn read_shard_summary(path: &Path) -> Result<(HiggsSummary, u64), SnapshotError> {
    let (mut summary, checksum) = HiggsSummary::decode_snapshot(&std::fs::read(path)?)?;
    summary.defer_aggregation = false;
    summary.materialize_missing_aggregations();
    Ok((summary, checksum))
}

/// Where [`recover_shard`] starts a shard's summary from.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ShardBase {
    /// A fresh summary: the directory holds no manifest, so a shard file
    /// there is the leftover of a snapshot that never committed.
    Fresh,
    /// The manifest's shard file, which must exist and carry this document
    /// checksum.
    Manifest(u64),
    /// The shard file when present, a fresh summary otherwise, without the
    /// manifest cross-check: writer recovery rebuilds from whatever intact
    /// state survives.
    Surviving,
}

/// Recovers shard `shard` of `dir`: its summary from `base` (a fresh one is
/// built from `config`), then, when `covering` is given, its journal tail
/// replayed on top under that covering stamp (see [`crate::journal`]). The
/// one per-shard recovery routine behind every open, restore, follower
/// bootstrap and writer respawn. It only reads, so a failure leaves the
/// directory as it was.
///
/// Alongside the summary it returns what the journal replay found (`None`
/// without `covering`), which arms the journal for appending without a
/// second read ([`DurableState::arm`](crate::shard::DurableState::arm)).
pub(crate) fn recover_shard(
    dir: &Path,
    shard: usize,
    config: &HiggsConfig,
    base: ShardBase,
    covering: Option<u64>,
) -> Result<(HiggsSummary, Option<LogScan>), SnapshotError> {
    let path = dir.join(shard_file_name(shard));
    let mut summary = match base {
        ShardBase::Fresh => HiggsSummary::new(*config),
        ShardBase::Manifest(expected) => {
            let (summary, checksum) = match read_shard_summary(&path) {
                Err(SnapshotError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                    return Err(SnapshotError::MissingShard { shard, path });
                }
                other => other?,
            };
            if checksum != expected {
                return Err(SnapshotError::ShardChecksumMismatch {
                    shard,
                    manifest: expected,
                    file: checksum,
                });
            }
            summary
        }
        ShardBase::Surviving => match read_shard_summary(&path) {
            Ok((summary, _)) => summary,
            Err(SnapshotError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                HiggsSummary::new(*config)
            }
            Err(e) => return Err(e),
        },
    };
    let journal = match covering {
        Some(covering) => Some(
            crate::journal::replay_into(dir, shard, covering, &mut summary)
                .map_err(SnapshotError::Journal)?,
        ),
        None => None,
    };
    Ok((summary, journal))
}

/// Runs `task` once for every task index in `0..tasks`, spread over at most
/// one scoped thread per core (the caller's thread among them), and returns
/// the results in task order — or, when any task fails, the error of the
/// **lowest** failing task, whatever order the threads finished in. Tasks
/// are handed out dynamically, lowest index first: a thread that finishes
/// one claims the next unclaimed, so a thread done with a small task goes on
/// with the remaining ones while another still runs a large one. A
/// panicking task is re-raised on the caller.
pub(crate) fn per_shard<T: Send, E: Send>(
    tasks: usize,
    task: impl Fn(usize) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E> {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, tasks.max(1));
    let next = AtomicUsize::new(0);
    let (task, next) = (&task, &next);
    let run = move || -> Vec<(usize, Result<T, E>)> {
        let mut done = Vec::new();
        loop {
            // ORDERING: Relaxed — the counter only hands out distinct
            // indices; each result travels back through the thread join.
            let t = next.fetch_add(1, Ordering::Relaxed);
            if t >= tasks {
                return done;
            }
            done.push((t, task(t)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(run)).collect();
        let mut done = run();
        for helper in helpers {
            match helper.join() {
                Ok(part) => done.extend(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(t, _)| t);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Reads and verifies the manifest of `dir` (magic, version, checksum,
/// internal consistency), then checks the directory's shard-file census
/// against its count.
pub(crate) fn read_checked_manifest(dir: &Path) -> Result<SnapshotManifest, SnapshotError> {
    let manifest = SnapshotManifest::read_from_dir(dir)?;
    let declared = manifest.shard_count();
    // An extra shard file beyond the declared count means the manifest
    // and the directory disagree (e.g. a manifest from a smaller
    // service was copied in): refuse rather than silently drop data.
    let mut present = 0usize;
    while dir.join(shard_file_name(present)).exists() {
        present += 1;
    }
    if present != declared {
        return Err(SnapshotError::ShardCountMismatch {
            manifest: declared,
            found: present,
        });
    }
    Ok(manifest)
}

/// Restores per-shard summaries from a snapshot directory, all shards in
/// parallel, returning the manifest's config alongside them; nothing is
/// spawned beyond the scoped recovery threads, and nothing is written.
///
/// The manifest is verified first (magic, version, checksum, internal
/// consistency), then the directory's shard-file census against its count,
/// then each shard file's own checksum and its manifest-recorded one. With
/// `replay_journals` each shard's journal tail is replayed on top (the
/// recovery half of the rotation fence: a mutation lives in exactly one of
/// snapshot or journal, so snapshot + replay reconstructs the full history;
/// a journal stamped for an older manifest is discarded rather than
/// double-applied). A [`Follower`](crate::Follower) bootstraps without the
/// replay: it applies the leader's journals through its own cursor instead,
/// and a replay here would double-apply every record the cursor then ships.
pub(crate) fn restore_summaries(
    dir: &Path,
    replay_journals: bool,
) -> Result<(HiggsConfig, Vec<HiggsSummary>), SnapshotError> {
    let manifest = read_checked_manifest(dir)?;
    let covering = if replay_journals {
        Some(manifest_tail_checksum(dir)?)
    } else {
        None
    };
    let summaries = per_shard(manifest.shard_count(), |s| {
        let base = ShardBase::Manifest(manifest.shard_checksums[s]);
        recover_shard(dir, s, &manifest.config, base, covering).map(|(summary, _)| summary)
    })?;
    Ok((manifest.config, summaries))
}

impl ShardedHiggs {
    /// Snapshots the whole service into `dir` (created if absent): one
    /// summary snapshot file per shard plus a [`SnapshotManifest`]
    /// (`manifest.higgs`, written last so a crashed snapshot never leaves a
    /// directory that passes restore validation).
    ///
    /// The snapshot is **read-your-writes consistent**: the acked-`Flush`
    /// clock is driven first, exactly as for queries, so every mutation
    /// enqueued before this call — through the trait surface or any
    /// [`IngestHandle`](crate::IngestHandle) clone — is included, its
    /// aggregations materialised. See the [module docs](self) for the
    /// concurrent-ingest caveat.
    ///
    /// For a **durable** service ([`Store::open`](crate::Store::open) with
    /// [`StoreOptions::durable`](crate::StoreOptions::durable)) snapshotting
    /// into its own journal directory additionally **rotates the journals**:
    /// every writer parks at a fence while the files are written, and a
    /// *successful* snapshot truncates each shard's journal (the snapshot now
    /// covers those mutations); a failed one leaves the journals untouched.
    /// Either way every mutation remains recorded in exactly one of
    /// {snapshot, journal}. A service with a degraded shard refuses to
    /// snapshot ([`SnapshotError::DegradedShard`]) — the shard's state is
    /// partial and its journal must not be rotated away.
    pub fn snapshot_to_dir(
        &self,
        dir: impl AsRef<Path>,
    ) -> Result<SnapshotManifest, SnapshotError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        if let Some(shard) = self.first_degraded_shard() {
            return Err(SnapshotError::DegradedShard { shard });
        }
        self.flush();
        let rotating = self
            .durable_dir()
            .is_some_and(|journal_dir| same_dir(journal_dir, dir));
        if rotating {
            // Park every writer for the duration of the file writes, then
            // deliver the verdict: rotation (journal truncation, stamped
            // with the new manifest's checksum) only on success. The fence
            // also re-flushes each shard, covering mutations that slipped
            // in between `flush()` above and the fence commands landing, and
            // release blocks until every writer has committed its rotation —
            // when this returns, the journals really are rotated.
            let fence = self.fence_writers();
            // Re-check health now that every writer is parked. A writer that
            // degraded between the check above and the fence acks (its
            // degraded replacement answers the fence) would otherwise have
            // its partially-applied summary captured and stamped into a new
            // manifest while its journal keeps the old covering stamp — a
            // restart would dismiss that journal as stale and lose its
            // acknowledged mutations. Parked writers apply nothing, so this
            // check is race-free until the fence is released.
            if let Some(shard) = self.first_degraded_shard() {
                fence.release(None);
                return Err(SnapshotError::DegradedShard { shard });
            }
            match self.write_snapshot_files(dir) {
                Ok((manifest, checksum)) => {
                    fence.release(Some(checksum));
                    Ok(manifest)
                }
                Err(e) => {
                    fence.release(None);
                    Err(e)
                }
            }
        } else {
            self.write_snapshot_files(dir).map(|(manifest, _)| manifest)
        }
    }

    /// Writes the per-shard snapshot files and the manifest, returning the
    /// manifest together with its document checksum (the journal covering
    /// stamp).
    fn write_snapshot_files(&self, dir: &Path) -> Result<(SnapshotManifest, u64), SnapshotError> {
        write_snapshot_files(dir, self.shard_summaries())
    }
}

/// Writes per-shard snapshot files and the manifest for `shards` into `dir`
/// (manifest **last**, so a crash mid-write never leaves a directory that
/// passes restore validation), returning the manifest and its document
/// checksum. The caller is responsible for quiescence: summaries must not
/// mutate while this reads them (a fence, or exclusive ownership as in the
/// reshard fold).
pub(crate) fn write_snapshot_files(
    dir: &Path,
    shards: &[Arc<RwLock<HiggsSummary>>],
) -> Result<(SnapshotManifest, u64), SnapshotError> {
    let mut shard_checksums = Vec::with_capacity(shards.len());
    let mut shard_items = Vec::with_capacity(shards.len());
    let mut config = None;
    for (index, shard) in shards.iter().enumerate() {
        failpoint!("snapshot::write_shard", |msg: String| SnapshotError::Io(
            std::io::Error::other(msg)
        ));
        let summary = shard.read().expect("shard lock poisoned");
        let path = dir.join(shard_file_name(index));
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        let checksum = summary.write_snapshot(&mut file)?;
        file.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        shard_checksums.push(checksum);
        shard_items.push(summary.total_items());
        config.get_or_insert(*summary.config());
    }
    // Remove stale shard files left by an earlier, larger snapshot into
    // the same directory — restore's census would otherwise reject the
    // whole directory (ShardCountMismatch) even though this snapshot
    // succeeded.
    let mut stale = shards.len();
    loop {
        let path = dir.join(shard_file_name(stale));
        if !path.exists() {
            break;
        }
        std::fs::remove_file(&path)?;
        stale += 1;
    }
    // LINT-ALLOW(durability-io-panic): config validation rejects zero
    // shards, so the shard loop above ran at least once.
    let mut config = config.expect("a service holds at least one shard");
    // Shard summaries carry the per-summary view of the config; the
    // manifest records the *service* shard count so restore rebuilds the
    // same partitioning. Worker pinning is runtime placement state, not
    // data: it is never encoded, so the returned manifest reports it
    // cleared exactly as a re-read of the written file would.
    config.shards = shards.len();
    config.pin_workers = false;
    // Likewise for the serving knobs: admission tick, submission queue
    // depth and journal sync policy describe the front-end process, not
    // the summary.
    config.admission_tick = std::time::Duration::ZERO;
    config.service_queue_depth = None;
    config.journal_mode = JournalMode::Off;
    let manifest = SnapshotManifest {
        format_version: FORMAT_VERSION,
        config,
        shard_checksums,
        shard_items,
    };
    let path = dir.join(MANIFEST_FILE);
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let checksum = manifest.write_to(&mut file)?;
    file.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    Ok((manifest, checksum))
}

/// Whether two paths name the same directory (canonicalised when possible,
/// literal comparison as the fallback for paths that cannot be resolved).
fn same_dir(a: &Path, b: &Path) -> bool {
    match (std::fs::canonicalize(a), std::fs::canonicalize(b)) {
        (Ok(ca), Ok(cb)) => ca == cb,
        _ => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Store, StoreOptions};
    use higgs_common::{StreamEdge, TemporalGraphSummary, TimeRange};

    #[test]
    fn empty_summary_round_trips() {
        let live = HiggsSummary::new(HiggsConfig::paper_default());
        let mut bytes = Vec::new();
        live.write_snapshot(&mut bytes).expect("snapshot empty");
        let restored = HiggsSummary::read_snapshot(&mut bytes.as_slice()).expect("restore empty");
        assert_eq!(restored.leaf_count(), 0);
        assert_eq!(restored.total_items(), 0);
        assert_eq!(restored.config(), live.config());
        assert_eq!(restored.edge_query(1, 2, TimeRange::all()), 0);
    }

    #[test]
    fn snapshot_preserves_epoch_and_counters_but_not_runtime_state() {
        let mut live = HiggsSummary::new(HiggsConfig::paper_default());
        for i in 0..500u64 {
            live.insert(&StreamEdge::new(i % 30, (i * 7) % 30, 1, i));
        }
        live.delete(&StreamEdge::new(1, 7, 1, 1));
        // Warm the plan cache and counter — runtime state that must NOT
        // survive a snapshot.
        let _ = live.query(&higgs_common::Query::edge(1, 7, TimeRange::all()));
        assert!(live.plans_built() > 0);

        let mut bytes = Vec::new();
        live.write_snapshot(&mut bytes).expect("snapshot");
        let restored = HiggsSummary::read_snapshot(&mut bytes.as_slice()).expect("restore");
        assert_eq!(restored.mutation_epoch(), live.mutation_epoch());
        assert_eq!(restored.total_items(), live.total_items());
        assert_eq!(restored.plans_built(), 0, "plan counter starts fresh");
        assert_eq!(restored.plan_cache_len(), 0, "plan cache starts cold");
    }

    #[test]
    fn shard_file_names_are_stable() {
        assert_eq!(shard_file_name(0), "shard-000.higgs");
        assert_eq!(shard_file_name(63), "shard-063.higgs");
    }

    #[test]
    fn snapshot_error_messages_name_the_failure() {
        let cases = [
            (
                SnapshotError::BadMagic {
                    expected: SUMMARY_MAGIC,
                    found: 7,
                }
                .to_string(),
                "bad snapshot magic",
            ),
            (
                SnapshotError::UnsupportedVersion {
                    found: 9,
                    supported: FORMAT_VERSION,
                }
                .to_string(),
                "format version 9 is not supported",
            ),
            (
                SnapshotError::ShardCountMismatch {
                    manifest: 2,
                    found: 4,
                }
                .to_string(),
                "2 shard(s)",
            ),
            (
                SnapshotError::ShardChecksumMismatch {
                    shard: 1,
                    manifest: 1,
                    file: 2,
                }
                .to_string(),
                "does not match the manifest",
            ),
            (
                SnapshotError::Corrupt("broken".into()).to_string(),
                "corrupt snapshot",
            ),
            (
                SnapshotError::Journal(JournalError::Corrupt {
                    shard: 1,
                    record: 2,
                    detail: "checksum".into(),
                })
                .to_string(),
                "journal replay failed",
            ),
            (
                SnapshotError::DegradedShard { shard: 3 }.to_string(),
                "shard 3 is degraded",
            ),
        ];
        for (message, needle) in cases {
            assert!(message.contains(needle), "{message:?} missing {needle:?}");
        }
    }

    #[test]
    fn rotating_snapshot_truncates_journals_and_restore_is_exact() {
        use crate::journal::journal_file_name;

        // The rotation fence: after a successful snapshot into the durable
        // directory the journals must be empty (a mutation lives in exactly
        // one of snapshot or journal), so restore-plus-replay must equal the
        // snapshot — and must NOT double-apply the journaled mutations,
        // which would inflate weights (inserts are additive, not
        // idempotent).
        let dir = std::env::temp_dir().join(format!(
            "higgs-rotation-fence-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = HiggsConfig::builder()
            .shards(2)
            .journal_mode(JournalMode::SyncEveryN(8))
            .build()
            .expect("valid durable configuration");
        let service = Store::open(StoreOptions::durable(config, &dir)).expect("durable service");
        let handle = service.ingest_handle();
        let edges: Vec<StreamEdge> = (0..1_000u64)
            .map(|i| StreamEdge::new(i % 50, (i * 7) % 50, 1 + i % 3, i))
            .collect();
        for e in &edges {
            handle.insert(e).expect("ingest");
        }
        // Journal appends happen on the writer threads; wait for them before
        // measuring the pre-rotation journal size.
        service.flush();
        let pre_rotation = std::fs::metadata(dir.join(journal_file_name(0)))
            .expect("journal exists")
            .len();
        let manifest = service.snapshot_to_dir(&dir).expect("rotating snapshot");
        assert_eq!(manifest.total_items(), 1_000);
        let covering = manifest_tail_checksum(&dir).expect("manifest checksum");
        assert_ne!(covering, 0, "a written manifest has a real checksum");
        for shard in 0..2 {
            let len = std::fs::metadata(dir.join(journal_file_name(shard)))
                .expect("journal exists")
                .len();
            assert!(
                len < pre_rotation,
                "rotation must truncate shard {shard}'s journal ({len} bytes left)"
            );
            assert!(
                crate::journal::replay(&dir, shard, covering)
                    .expect("truncated journal replays")
                    .is_empty(),
                "a rotated journal must replay to nothing"
            );
        }
        // Post-rotation mutations land in the fresh journal only.
        let extra = StreamEdge::new(1, 7, 5, 2_000);
        handle.insert(&extra).expect("ingest after rotation");
        service.flush();
        let expected_batch = [
            higgs_common::Query::edge(1, 7, TimeRange::all()),
            higgs_common::Query::vertex(1, higgs_common::VertexDirection::Out, TimeRange::all()),
        ];
        let expected = service.query_batch(&expected_batch);
        drop(service);
        let recovered = Store::open(StoreOptions::durable(config, &dir)).expect("recovery");
        assert_eq!(
            recovered.query_batch(&expected_batch),
            expected,
            "snapshot + journal tail must reconstruct the exact state"
        );
        assert_eq!(recovered.total_items(), 1_001);
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_into_a_foreign_directory_does_not_rotate_journals() {
        use crate::journal::journal_file_name;

        let dir = std::env::temp_dir().join(format!(
            "higgs-foreign-snap-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let other = dir.join("elsewhere");
        let _ = std::fs::remove_dir_all(&dir);
        let config = HiggsConfig::builder()
            .shards(1)
            .journal_mode(JournalMode::Buffered)
            .build()
            .expect("valid durable configuration");
        let mut service =
            Store::open(StoreOptions::durable(config, &dir)).expect("durable service");
        service.insert(&StreamEdge::new(1, 2, 5, 10));
        service.flush();
        let before = std::fs::metadata(dir.join(journal_file_name(0)))
            .expect("journal exists")
            .len();
        service.snapshot_to_dir(&other).expect("snapshot elsewhere");
        let after = std::fs::metadata(dir.join(journal_file_name(0)))
            .expect("journal exists")
            .len();
        assert_eq!(
            before, after,
            "a snapshot outside the journal directory must not rotate"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_snapshot_directory_is_an_io_error() {
        // The filesystem failure mode must surface as the typed Io variant
        // (carrying the underlying error), not as Corrupt or a panic.
        let dir = std::env::temp_dir().join("higgs-snapshot-test-definitely-absent");
        match SnapshotManifest::read_from_dir(&dir) {
            Err(SnapshotError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::NotFound);
            }
            other => panic!("missing directory must be Io, got {other:?}"),
        }
    }

    #[test]
    fn invalid_persisted_config_is_a_config_error() {
        // A snapshot whose persisted d1 fails HiggsConfig::validate must be
        // rejected with the typed Config variant before any state is built.
        let live = HiggsSummary::new(HiggsConfig::paper_default());
        let mut bytes = Vec::new();
        live.write_snapshot(&mut bytes).expect("snapshot");
        // The config payload opens right after magic (8) + version (4) +
        // section tag (2) + payload length (8); its first field is d1 as a
        // little-endian u64. Zero is rejected by validate (not a power of
        // two >= 2).
        bytes[22..30].copy_from_slice(&0u64.to_le_bytes());
        match HiggsSummary::read_snapshot(&mut bytes.as_slice()) {
            Err(SnapshotError::Config(e)) => {
                assert_eq!(e, ConfigError::InvalidMatrixSide { d1: 0 });
            }
            other => panic!("invalid persisted config must be Config, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_pending_job_is_rejected_not_deferred_to_a_panic() {
        // A checksum-valid snapshot whose pending job points past the tree
        // must fail at restore time with a typed error — not restore
        // "successfully" and panic inside leaf_span on the first flush.
        let mut live = HiggsSummary::with_deferred_aggregation(HiggsConfig {
            d1: 4,
            f1_bits: 12,
            r_bits: 1,
            bucket_entries: 2,
            mapping_addresses: 2,
            overflow_blocks: true,
            shards: 1,
            plan_cache_capacity: 8,
            ingest_queue_cap: None,
            pin_workers: false,
            admission_tick: std::time::Duration::ZERO,
            service_queue_depth: None,
            journal_mode: JournalMode::Off,
        });
        for i in 0..2_000u64 {
            live.insert(&StreamEdge::new(i % 60, (i * 7) % 60, 1, i));
        }
        assert!(
            !live.pending.is_empty(),
            "deferred summary must carry pending jobs for this test"
        );
        live.pending[0].index = 1_000_000; // structurally impossible
        let mut bytes = Vec::new();
        live.write_snapshot(&mut bytes).expect("snapshot");
        match HiggsSummary::read_snapshot(&mut bytes.as_slice()) {
            Err(SnapshotError::Corrupt(msg)) => {
                assert!(msg.contains("pending aggregation job"), "{msg}");
            }
            other => panic!("out-of-range pending job must be Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn a_deferred_shard_file_restores_into_inline_aggregation() {
        // A shard file written mid-aggregation (deferred mode, pending nodes)
        // restores into a shard that aggregates inline: every node
        // materialised, answers unchanged, later group closes built inline.
        let config = HiggsConfig::builder()
            .d1(4)
            .bucket_entries(2)
            .build()
            .expect("valid config");
        let stream: Vec<StreamEdge> = (0..3_000u64)
            .map(|i| StreamEdge::new(i % 60, (i * 7) % 60, 1, i))
            .collect();
        let mut deferred = HiggsSummary::with_deferred_aggregation(config);
        let mut inline = HiggsSummary::new(config);
        for e in &stream[..2_000] {
            deferred.insert(e);
            inline.insert(e);
        }
        assert!(deferred
            .internals
            .iter()
            .flatten()
            .any(|n| n.matrix.is_none()));
        let dir = std::env::temp_dir().join(format!(
            "higgs-deferred-restore-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create dir");
        write_snapshot_files(&dir, &[Arc::new(RwLock::new(deferred))]).expect("write");

        let (_, summaries) = restore_summaries(&dir, false).expect("restore");
        let mut restored = summaries.into_iter().next().expect("one shard");
        let materialised =
            |s: &HiggsSummary| s.internals.iter().flatten().all(|n| n.matrix.is_some());
        assert!(!restored.defers_aggregation());
        assert!(materialised(&restored));
        for e in &stream[2_000..] {
            restored.insert(e);
            inline.insert(e);
        }
        assert!(materialised(&restored) && restored.pending.is_empty());
        for v in 0..60u64 {
            for range in [TimeRange::all(), TimeRange::new(500, 2_500)] {
                assert_eq!(
                    restored.edge_query(v, (v * 7) % 60, range),
                    inline.edge_query(v, (v * 7) % 60, range)
                );
            }
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn corrupt_matrix_geometry_fails_typed_without_huge_allocation() {
        // Blow the matrix side field up to the maximum the format allows: a
        // small file must die with UnexpectedEof from the bounded chunked
        // read — not abort on a terabyte allocation.
        let mut live = HiggsSummary::new(HiggsConfig::paper_default());
        for i in 0..200u64 {
            live.insert(&StreamEdge::new(i % 20, (i * 3) % 20, 1, i));
        }
        let mut bytes = Vec::new();
        live.write_snapshot(&mut bytes).expect("snapshot");
        // The first leaf matrix's side u64 sits right after the leaves
        // section header + leaf count + (start, end, items): locate the
        // leaves section by scanning for its tag at a section boundary is
        // brittle; instead patch every occurrence of the little-endian d1
        // (16) that is followed by the layer field (1u32) — the matrix
        // geometry prefix is the only place that byte pattern occurs.
        let needle = [16u8, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0];
        let pos = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("leaf matrix geometry present");
        bytes[pos..pos + 8].copy_from_slice(&MAX_MATRIX_SIDE.to_le_bytes());
        match HiggsSummary::read_snapshot(&mut bytes.as_slice()) {
            Err(SnapshotError::Codec(CodecError::UnexpectedEof)) => {}
            // Depending on surrounding bytes the huge lens read may also be
            // caught by a later structural check; any typed error is fine —
            // the test's real assertion is "no OOM abort, no panic".
            Err(SnapshotError::Corrupt(_) | SnapshotError::Codec(_)) => {}
            other => panic!("corrupt geometry must be a typed error, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_overflow_chain_geometry_is_rejected_at_restore_time() {
        // Chain geometry seeds future overflow blocks; a zero side would
        // panic in CompressedMatrix::new on the first post-restore burst.
        let mut live = HiggsSummary::new(HiggsConfig::paper_default());
        for i in 0..50u64 {
            live.insert(&StreamEdge::new(i % 10, (i * 3) % 10, 1, i));
        }
        let mut bytes = Vec::new();
        live.write_snapshot(&mut bytes).expect("snapshot");
        // The chain geometry prefix of the paper config is the unique byte
        // run side=16u64, bucket_entries=1u64, mapping=4u32.
        let mut needle = Vec::new();
        needle.extend_from_slice(&16u64.to_le_bytes());
        needle.extend_from_slice(&1u64.to_le_bytes());
        needle.extend_from_slice(&4u32.to_le_bytes());
        let pos = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("chain geometry present");
        bytes[pos..pos + 8].copy_from_slice(&0u64.to_le_bytes());
        match HiggsSummary::read_snapshot(&mut bytes.as_slice()) {
            Err(SnapshotError::Corrupt(msg)) => {
                assert!(msg.contains("overflow chain side"), "{msg}");
            }
            other => panic!("zero chain side must be Corrupt, got {other:?}"),
        }
    }

    /// A small summary: one open leaf holding three entries.
    fn small_summary() -> HiggsSummary {
        let config = HiggsConfig::builder()
            .d1(4)
            .bucket_entries(2)
            .build()
            .expect("valid config");
        let mut summary = HiggsSummary::new(config);
        summary.insert(&StreamEdge::new(1, 2, 5, 10));
        summary.insert(&StreamEdge::new(3, 4, 1, 11));
        summary.insert(&StreamEdge::new(1, 2, 2, 12));
        summary
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(hex: &str) -> Vec<u8> {
        let digits: Vec<u8> = hex
            .bytes()
            .filter(u8::is_ascii_hexdigit)
            .map(|d| (d as char).to_digit(16).expect("hex digit") as u8)
            .collect();
        digits
            .chunks(2)
            .map(|pair| pair[0] << 4 | pair[1])
            .collect()
    }

    /// [`small_summary`]'s snapshot document, byte for byte: magic and
    /// version 2, then the config (46 bytes), meta (25), leaves (174) and
    /// internals (8) sections, then the checksum. The one leaf's matrix
    /// holds its 16 occupancy counts, then its three slots as columns:
    /// keys, index pairs, time offsets (2, 0, 1) and weights (2, 5, 1).
    const GOLDEN_SUMMARY: &str = "
        484947475353554d 02000000
        0100 2e00000000000000
            0400000000000000 13000000 01000000 0200000000000000 04000000 01
            0100000000000000 0001000000000000 00
        0200 1900000000000000
            0300000000000000 0300000000000000 00 0000000000000000
        0300 ae00000000000000
            0100000000000000
            0a00000000000000 0c00000000000000 0300000000000000
            0400000000000000 01000000 0200000000000000 04000000
            00000000000000000000010200000000
            39fa07000eb50200 39fa07000eb50200 0df3060081940000
            0100 0000 0000
            02000000 00000000 01000000
            0200000000000000 0500000000000000 0100000000000000
            0000000000000000
            0400000000000000 0100000000000000 04000000 0000000000000000
        0400 0800000000000000
            0000000000000000
        cabac1473b3ee48c";

    /// The manifest of a one-shard directory holding [`GOLDEN_SUMMARY`]: the
    /// service config, one `(checksum, items)` row, then the checksum.
    const GOLDEN_MANIFEST: &str = "
        48494747534d414e 02000000
        0500 4600000000000000
            0400000000000000 13000000 01000000 0200000000000000 04000000 01
            0100000000000000 0001000000000000 00
            0100000000000000
            cabac1473b3ee48c 0300000000000000
        bb9018d5d8cbebc0";

    #[test]
    fn format_v2_golden_bytes() {
        let summary = small_summary();
        let mut bytes = Vec::new();
        let checksum = summary.write_snapshot(&mut bytes).expect("snapshot");
        assert_eq!(hex(&bytes), hex(&unhex(GOLDEN_SUMMARY)));
        assert_eq!(checksum, frame_checksum(&bytes[..bytes.len() - 8]));
        assert_eq!(bytes[bytes.len() - 8..], checksum.to_le_bytes());

        let dir = std::env::temp_dir().join(format!(
            "higgs-golden-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create dir");
        let shards = [Arc::new(RwLock::new(summary))];
        let (_, manifest_checksum) = write_snapshot_files(&dir, &shards).expect("write");
        let manifest = std::fs::read(dir.join(MANIFEST_FILE)).expect("read manifest");
        assert_eq!(hex(&manifest), hex(&unhex(GOLDEN_MANIFEST)));
        assert_eq!(
            manifest_checksum,
            frame_checksum(&manifest[..manifest.len() - 8])
        );
        assert_eq!(
            std::fs::read(dir.join(shard_file_name(0))).expect("read shard file"),
            bytes
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");

        // The golden document restores to the summary it was taken from.
        let restored =
            HiggsSummary::read_snapshot(&mut unhex(GOLDEN_SUMMARY).as_slice()).expect("restore");
        assert_eq!(restored.total_items(), 3);
        assert_eq!(restored.edge_query(1, 2, TimeRange::all()), 7);
        assert_eq!(restored.edge_query(3, 4, TimeRange::new(11, 11)), 1);
    }

    /// Every sealed constructor agrees: restoring a matrix from its own
    /// sealed columns (what a snapshot read does) builds the sealed form of
    /// that matrix, whether a leaf compaction, an overflow block or an
    /// aggregate built it, and encodes to the same bytes.
    #[test]
    fn restoring_a_matrix_from_its_own_columns_is_the_identity() {
        for config in [
            HiggsConfig::paper_default(),
            // Tiny one-slot buckets: aggregates spill, and bursts overflow.
            HiggsConfig {
                d1: 4,
                f1_bits: 10,
                bucket_entries: 1,
                mapping_addresses: 2,
                ..HiggsConfig::paper_default()
            },
        ] {
            let mut s = HiggsSummary::new(config);
            for i in 0..30_000u64 {
                s.insert_edge(&StreamEdge::new(i % 2_000, (i * 7) % 1_500, 1, i / 8));
            }
            let leaves = s
                .leaves
                .iter()
                .flat_map(|l| std::iter::once(&l.matrix).chain(l.overflow.blocks().iter()));
            let aggregates = s
                .internals
                .iter()
                .flatten()
                .filter_map(|n| n.matrix.as_ref());
            let mut checked = 0;
            for matrix in leaves.chain(aggregates) {
                let restored = matrix.restored_from_own_columns().expect("own columns");
                let mut sealed = matrix.clone();
                sealed.seal();
                assert_eq!(sealed.first_difference(&restored), None);
                assert!(sealed == restored);
                let encode = |m: &CompressedMatrix| {
                    let mut buf = Vec::new();
                    encode_matrix(&mut buf, m);
                    buf
                };
                assert!(encode(matrix) == encode(&restored), "snapshot bytes differ");
                checked += 1;
            }
            assert!(s.height() > 2 && checked > 10, "stream too small");
        }
    }

    /// The document checksum is the framing core's word-at-a-time checksum
    /// of every byte before it, and the reader hands back the same value.
    #[test]
    fn document_checksum_is_the_frame_checksum_of_the_bytes() {
        let mut bytes = Vec::new();
        let written = small_summary()
            .write_snapshot(&mut bytes)
            .expect("snapshot");
        let (body, stored) = bytes.split_at(bytes.len() - 8);
        assert_eq!(stored, frame_checksum(body).to_le_bytes());
        let (_, read) =
            HiggsSummary::read_snapshot_with_checksum(&mut bytes.as_slice()).expect("restore");
        assert_eq!(read, written);
    }

    #[test]
    fn version_1_files_are_refused_typed() {
        let mut bytes = Vec::new();
        small_summary()
            .write_snapshot(&mut bytes)
            .expect("snapshot");
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        match HiggsSummary::read_snapshot(&mut bytes.as_slice()) {
            Err(
                e @ SnapshotError::UnsupportedVersion {
                    found: 1,
                    supported: 2,
                },
            ) => {
                let message = e.to_string();
                assert!(message.contains("version 1 is not supported"), "{message}");
                assert!(!message.contains("newer"), "{message}");
            }
            other => panic!("a version-1 summary must be refused typed, got {other:?}"),
        }
        let mut manifest = unhex(GOLDEN_MANIFEST);
        manifest[8..12].copy_from_slice(&1u32.to_le_bytes());
        match SnapshotManifest::decode(&manifest) {
            Err(SnapshotError::UnsupportedVersion {
                found: 1,
                supported: 2,
            }) => {}
            other => panic!("a version-1 manifest must be refused typed, got {other:?}"),
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_small_snapshot_is_a_typed_error() {
        let mut summary = small_summary();
        // Sealed leaves, an internal level and an overflow chain too, so
        // every matrix shape the format holds is flipped through.
        for t in 0..40u64 {
            summary.insert(&StreamEdge::new(t % 7, (t * 3) % 7, 1, 20 + t / 8));
        }
        for t in 0..100u64 {
            summary.insert(&StreamEdge::new(t % 13, (t * 5) % 11, 1, 30 + t));
        }
        assert!(summary.leaf_count() > 1 && !summary.internals.is_empty());
        assert!(summary
            .leaves
            .iter()
            .any(|l| !l.overflow.blocks().is_empty()));
        let mut bytes = Vec::new();
        summary.write_snapshot(&mut bytes).expect("snapshot");
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                HiggsSummary::read_snapshot(&mut flipped.as_slice()).is_err(),
                "bit {bit} of {} flipped, yet the snapshot restored",
                bytes.len()
            );
        }
        let manifest = unhex(GOLDEN_MANIFEST);
        for bit in 0..manifest.len() * 8 {
            let mut flipped = manifest.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                SnapshotManifest::decode(&flipped).is_err(),
                "manifest bit {bit}"
            );
        }
    }

    #[test]
    fn every_truncation_of_a_small_snapshot_is_a_typed_error() {
        let mut bytes = Vec::new();
        small_summary()
            .write_snapshot(&mut bytes)
            .expect("snapshot");
        for cut in 0..bytes.len() {
            match HiggsSummary::read_snapshot(&mut &bytes[..cut]) {
                Err(SnapshotError::Codec(CodecError::UnexpectedEof)) => {}
                other => panic!("cut at byte {cut}: expected UnexpectedEof, got {other:?}"),
            }
        }
        let manifest = unhex(GOLDEN_MANIFEST);
        for cut in 0..manifest.len() {
            assert!(
                matches!(
                    SnapshotManifest::decode(&manifest[..cut]),
                    Err(SnapshotError::Codec(CodecError::UnexpectedEof))
                ),
                "manifest cut at byte {cut}"
            );
        }
    }

    #[test]
    fn reading_consumes_exactly_one_document() {
        let mut stream = Vec::new();
        let first = small_summary();
        let mut second = small_summary();
        second.insert(&StreamEdge::new(5, 6, 9, 30));
        first.write_snapshot(&mut stream).expect("first");
        second.write_snapshot(&mut stream).expect("second");
        let mut source = stream.as_slice();
        let a = HiggsSummary::read_snapshot(&mut source).expect("read first");
        let b = HiggsSummary::read_snapshot(&mut source).expect("read second");
        assert!(source.is_empty());
        assert_eq!((a.total_items(), b.total_items()), (3, 4));
        assert_eq!(b.edge_query(5, 6, TimeRange::all()), 9);
    }

    #[test]
    fn per_shard_returns_task_order_and_the_lowest_failure() {
        use std::sync::atomic::AtomicUsize;
        use std::time::{Duration, Instant};

        // Results come back in task order, however the tasks interleave.
        let squares = per_shard(9, |t| {
            std::thread::sleep(Duration::from_millis(((9 - t) % 3) as u64));
            Ok::<_, ()>(t * t)
        });
        assert_eq!(squares, Ok((0..9).map(|t| t * t).collect()));
        // Tasks 3 and 5 fail at once; task 1 fails last, after a wait.
        for _ in 0..5 {
            let failed = per_shard(7, |t| {
                if t == 1 {
                    std::thread::sleep(Duration::from_millis(20));
                }
                if matches!(t, 1 | 3 | 5) {
                    Err(t)
                } else {
                    Ok(t)
                }
            });
            assert_eq!(failed, Err(1));
        }
        // Tasks are claimed dynamically: task 0 waits until every other
        // task is done, which needs another thread to take all of them
        // (a fixed round-robin would leave some queued behind task 0).
        if std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2 {
            let finished = AtomicUsize::new(0);
            let outcome = per_shard(8, |t| {
                if t == 0 {
                    let deadline = Instant::now() + Duration::from_secs(30);
                    // ORDERING: Acquire pairs with the Release increments
                    // below; only the count matters.
                    while finished.load(Ordering::Acquire) < 7 {
                        if Instant::now() > deadline {
                            return Err("tasks 1..8 never finished beside task 0");
                        }
                        std::thread::yield_now();
                    }
                } else {
                    // ORDERING: Release pairs with task 0's Acquire load.
                    finished.fetch_add(1, Ordering::Release);
                }
                Ok(t)
            });
            assert_eq!(outcome, Ok((0..8).collect()));
        }
    }

    #[test]
    fn garbled_section_order_is_a_typed_error() {
        let mut summary = HiggsSummary::new(HiggsConfig::paper_default());
        summary.insert(&StreamEdge::new(1, 2, 3, 4));
        let mut bytes = Vec::new();
        summary.write_snapshot(&mut bytes).expect("snapshot");
        // Overwrite the first section tag (directly after magic + version)
        // with a bogus tag: the reader must refuse with a typed error.
        bytes[12] = 0xAA;
        match HiggsSummary::read_snapshot(&mut bytes.as_slice()) {
            Err(SnapshotError::Corrupt(msg)) => {
                assert!(msg.contains("expected section"), "{msg}");
            }
            other => panic!("bogus section tag must be Corrupt, got {other:?}"),
        }
    }
}
