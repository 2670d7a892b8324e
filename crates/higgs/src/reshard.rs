//! Elastic resharding: changing a service's shard count by refolding its
//! mutation history.
//!
//! ## Why history, not snapshots
//!
//! A shard's leaf matrices store only `(address, fingerprint)` pairs — the
//! raw vertex identifiers are consumed by the hash and cannot be recovered
//! from the summary. Re-partitioning therefore cannot move data between
//! shard snapshots: it must **re-stream the raw mutations** through
//! [`shard_of`] at the new width. That raw record is the elastic history log
//! (see [`crate::history`]): per-shard, append-only, never truncated, each
//! mutation stamped with a global sequence number at ingest routing time.
//!
//! ## The fold
//!
//! [`read_history`](crate::history::read_history) merges every shard's
//! history files of every generation into one globally ordered operation
//! stream. The fold then plays that stream into `M` fresh summaries,
//! routing each operation by `shard_of(src, M)`. Because every insert and
//! delete is replayed in its original global order, the folded service
//! answers queries **bit-identically** to a service built fresh at `M`
//! shards from the same single-producer workload. (Concurrent producers race
//! sequence stamping against channel sends, so cross-producer interleaving
//! is reconstructed in stamp order, which may differ from channel order —
//! HIGGS summaries are order-insensitive for inserts, so this matters only
//! for delete/insert races between producers.)
//!
//! ## Offline vs online
//!
//! [`ShardedHiggs::restore_resharded`] refolds a directory with no service
//! running — validation happens before anything is spawned, so a corrupt
//! source returns a typed [`ReshardError`] and leaks no writer threads.
//! [`ShardedHiggs::reshard`](crate::ShardedHiggs::reshard) does the same
//! fold on a live service behind the writer fence; see its docs for the
//! commit protocol.

use crate::config::{HiggsConfig, JournalMode};
use crate::history::{self, HistoryOp, HistoryOpKind};
use crate::journal::{journal_file_name, JournalError};
use crate::shard::{DurableState, ShardLog, ShardedHiggs, MAX_SHARDS};
use crate::snapshot::SnapshotError;
use crate::tree::HiggsSummary;
use higgs_common::hashing::shard_of;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, RwLock};

/// Why a reshard (offline refold or live [`ShardedHiggs::reshard`]) failed.
/// Every failure mode is typed; offline failures spawn nothing, and live
/// pre-commit failures leave the service unchanged.
#[derive(Debug)]
pub enum ReshardError {
    /// The requested shard count is outside `1..=MAX_SHARDS`.
    InvalidShardCount {
        /// The count that was requested.
        requested: usize,
    },
    /// The directory (or service) has no elastic mutation history to
    /// refold — it was created without
    /// [`StoreOptions::elastic`](crate::StoreOptions::elastic), or is not
    /// durable at all. The message names the missing prerequisite.
    HistoryUnavailable {
        /// What exactly is missing.
        detail: String,
    },
    /// The history record is internally inconsistent: interior corruption in
    /// a history file, or divergent records sharing a sequence number. The
    /// source directory cannot be trusted as a refold basis.
    Corrupt {
        /// The violation, as reported by the history reader.
        detail: String,
    },
    /// Reading history or (re)opening a journal/history log failed with an
    /// I/O-level journal error.
    Journal(JournalError),
    /// Reading the manifest or committing the refolded snapshot failed.
    Snapshot(SnapshotError),
    /// A shard is degraded: its writer failed and was not recovered, so
    /// mutations it acknowledged may be missing from the history log.
    /// Refolding would silently drop them — recover (or restore) first.
    Degraded {
        /// Index of the degraded shard.
        shard: usize,
    },
}

impl fmt::Display for ReshardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReshardError::InvalidShardCount { requested } => write!(
                f,
                "invalid target shard count {requested}: must be between 1 and {MAX_SHARDS}"
            ),
            ReshardError::HistoryUnavailable { detail } => {
                write!(f, "no elastic history to refold: {detail}")
            }
            ReshardError::Corrupt { detail } => {
                write!(f, "corrupt mutation history: {detail}")
            }
            ReshardError::Journal(e) => write!(f, "reshard I/O failed: {e}"),
            ReshardError::Snapshot(e) => write!(f, "reshard commit failed: {e}"),
            ReshardError::Degraded { shard } => write!(
                f,
                "shard {shard} is degraded: its acknowledged mutations may be missing \
                 from history, so a refold would drop them"
            ),
        }
    }
}

impl std::error::Error for ReshardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReshardError::Journal(e) => Some(e),
            ReshardError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JournalError> for ReshardError {
    fn from(e: JournalError) -> Self {
        // A corruption diagnosis survives the conversion as the dedicated
        // variant so callers (and the error-coverage lint) can distinguish
        // "the history is damaged" from "the disk misbehaved".
        match e {
            JournalError::Corrupt {
                shard,
                record,
                detail,
            } => ReshardError::Corrupt {
                detail: format!("shard {shard}, record {record}: {detail}"),
            },
            other => ReshardError::Journal(other),
        }
    }
}

impl From<SnapshotError> for ReshardError {
    fn from(e: SnapshotError) -> Self {
        ReshardError::Snapshot(e)
    }
}

/// Folds a globally ordered mutation history into `config.shards` fresh
/// summaries, routing each operation through [`shard_of`] at the new width
/// and replaying it in order (aggregating inline, like the shard writers).
pub(crate) fn fold_history(ops: &[HistoryOp], config: &HiggsConfig) -> Vec<HiggsSummary> {
    let mut summaries: Vec<HiggsSummary> = (0..config.shards)
        .map(|_| HiggsSummary::new(*config))
        .collect();
    for op in ops {
        let summary = &mut summaries[shard_of(op.edge.src, config.shards)];
        match op.kind {
            HistoryOpKind::Insert => summary.insert_edge(&op.edge),
            HistoryOpKind::Delete => summary.delete_edge(&op.edge),
        }
    }
    summaries
}

/// A refolded layout committed into its directory, with the next history
/// generation armed: what both reshards install as their new writer fleet.
pub(crate) struct Refold {
    pub(crate) shards: Vec<Arc<RwLock<HiggsSummary>>>,
    pub(crate) durable: Arc<DurableState>,
    pub(crate) logs: Vec<ShardLog>,
    /// One past the highest recorded sequence number.
    pub(crate) next_seq: u64,
}

/// Where a [`refold`] failed, relative to its commit point.
pub(crate) enum RefoldError {
    /// Nothing was committed: the directory still holds the old layout.
    Uncommitted(ReshardError),
    /// The directory holds the new layout, but its logs could not be armed.
    Committed(ReshardError),
}

impl RefoldError {
    fn into_inner(self) -> ReshardError {
        match self {
            RefoldError::Uncommitted(e) | RefoldError::Committed(e) => e,
        }
    }
}

/// The step both reshards share: reads `dir`'s full history, folds it at
/// `config.shards`, commits the refolded snapshot into `dir` (manifest
/// written last: the commit point), arms history generation `gen` with
/// journals stamped for the new manifest (the old ones are reset as stale),
/// and removes the journals of retired shard slots.
pub(crate) fn refold(
    dir: &Path,
    config: &HiggsConfig,
    mode: JournalMode,
    gen: u64,
) -> Result<Refold, RefoldError> {
    let ops = history::read_history(dir).map_err(|e| RefoldError::Uncommitted(e.into()))?;
    // `read_history` sorts by sequence number: the last op holds the highest.
    let next_seq = ops.last().map_or(0, |op| op.seq + 1);
    let shards: Vec<Arc<RwLock<HiggsSummary>>> = fold_history(&ops, config)
        .into_iter()
        .map(|s| Arc::new(RwLock::new(s)))
        .collect();
    // A failure inside leaves no manifest behind, so recovery still sees the
    // old layout.
    crate::snapshot::write_snapshot_files(dir, &shards)
        .map_err(|e| RefoldError::Uncommitted(e.into()))?;
    let durable = Arc::new(DurableState {
        dir: dir.to_path_buf(),
        mode,
        history_gen: Some(gen),
    });
    let logs = crate::snapshot::manifest_tail_checksum(dir)
        .map_err(ReshardError::from)
        .and_then(|covering| {
            (0..config.shards)
                .map(|s| {
                    durable
                        .arm(s, covering, None, None)
                        .map_err(ReshardError::from)
                })
                .collect()
        })
        .map_err(RefoldError::Committed)?;
    // Journals of retired shard slots are superseded by the committed
    // snapshot; best-effort removal (a leftover is reset by `Journal::open`
    // if the count ever grows past it again).
    for path in (config.shards..)
        .map(|s| dir.join(journal_file_name(s)))
        .take_while(|path| path.exists())
    {
        let _ = std::fs::remove_file(path);
    }
    Ok(Refold {
        shards,
        durable,
        logs,
        next_seq,
    })
}

/// The offline reshard: refolds `dir`'s elastic history at `new_shards`,
/// commits the refolded snapshot into `dir`, and opens the directory as a
/// durable elastic service at the new width. Shared by
/// [`ShardedHiggs::restore_resharded`] and the
/// [`Store::open_resharded`](crate::Store::open_resharded) open path.
pub(crate) fn open_resharded(
    dir: &Path,
    new_shards: usize,
    mode: JournalMode,
) -> Result<ShardedHiggs, ReshardError> {
    if new_shards == 0 || new_shards > MAX_SHARDS {
        return Err(ReshardError::InvalidShardCount {
            requested: new_shards,
        });
    }
    if mode == JournalMode::Off {
        return Err(ReshardError::HistoryUnavailable {
            detail: "an elastic service requires journaling (JournalMode::Off given): \
                     history cannot be maintained without the durable write path"
                .into(),
        });
    }
    // Everything below, up to the snapshot commit, only *reads*: a typed
    // failure here leaves the directory untouched and spawns nothing.
    let old_gen =
        history::max_history_gen(dir)?.ok_or_else(|| ReshardError::HistoryUnavailable {
            detail: format!(
                "{} holds no history files: the directory was not opened elastic \
                 (StoreOptions::elastic), so its mutation history was never recorded",
                dir.display()
            ),
        })?;
    let stored = crate::snapshot::SnapshotManifest::read_from_dir(dir)
        .map(|m| m.config)
        .map_err(|e| match e {
            // A crash before the first snapshot is still refoldable: the
            // history alone carries every acknowledged mutation, and the
            // default config of the history-only case comes from nowhere —
            // so a *missing* manifest is only acceptable when the caller
            // goes through `Store::open` with an explicit config. Here the
            // manifest is the config source; its absence is typed.
            SnapshotError::Io(io) if io.kind() == std::io::ErrorKind::NotFound => {
                ReshardError::HistoryUnavailable {
                    detail: format!(
                        "{} has no snapshot manifest to take the configuration from; \
                         open the directory with Store::open and an explicit config, \
                         then reshard online",
                        dir.display()
                    ),
                }
            }
            other => ReshardError::Snapshot(other),
        })?;
    let mut config = stored;
    config.shards = new_shards;
    config.journal_mode = mode;
    let refold = refold(dir, &config, mode, old_gen + 1).map_err(RefoldError::into_inner)?;
    let service =
        ShardedHiggs::from_shards(config, refold.shards, Some((refold.durable, refold.logs)))
            .map_err(|e| ReshardError::Snapshot(SnapshotError::Config(e)))?;
    service.resume_seq(refold.next_seq);
    Ok(service)
}

impl ShardedHiggs {
    /// Rebuilds a service from an **elastic** durable directory at a
    /// different shard count: the directory's full mutation history is
    /// re-streamed through [`shard_of`] at `new_shards`, the refolded layout
    /// is committed back into the directory, and the service opens durable
    /// (journaling in [`JournalMode::Buffered`](crate::JournalMode) — use
    /// [`Store::open_resharded`](crate::Store::open_resharded) with an
    /// explicit config to pick a different mode) at the new width.
    ///
    /// Queries on the result are bit-identical to a service built fresh at
    /// `new_shards` from the same single-producer workload.
    ///
    /// Fails with a typed [`ReshardError`] — invalid count, missing history
    /// ([`StoreOptions::elastic`](crate::StoreOptions::elastic) was never
    /// set), corrupt history — **before** anything is spawned.
    pub fn restore_resharded(
        dir: impl AsRef<Path>,
        new_shards: usize,
    ) -> Result<Self, ReshardError> {
        open_resharded(dir.as_ref(), new_shards, JournalMode::Buffered)
    }
}
