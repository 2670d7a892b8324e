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

use crate::config::HiggsConfig;
use crate::history::{self, HistoryOp, HistoryOpKind};
use crate::journal::{Journal, JournalError};
use crate::shard::{DurableState, ShardedHiggs, MAX_SHARDS};
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

/// The offline reshard: refolds `dir`'s elastic history at `new_shards`,
/// commits the refolded snapshot into `dir`, and opens the directory as a
/// durable elastic service at the new width. Shared by
/// [`ShardedHiggs::restore_resharded`] and the
/// [`Store::open_resharded`](crate::Store::open_resharded) open path.
pub(crate) fn open_resharded(
    dir: &Path,
    new_shards: usize,
    mode: crate::config::JournalMode,
) -> Result<ShardedHiggs, ReshardError> {
    if new_shards == 0 || new_shards > MAX_SHARDS {
        return Err(ReshardError::InvalidShardCount {
            requested: new_shards,
        });
    }
    if mode == crate::config::JournalMode::Off {
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
    let ops = history::read_history(dir)?;
    let next_seq = history::max_history_seq(dir)?.map_or(0, |s| s + 1);
    let mut config = stored;
    config.shards = new_shards;
    config.journal_mode = mode;
    let shards: Vec<Arc<RwLock<HiggsSummary>>> = fold_history(&ops, &config)
        .into_iter()
        .map(|s| Arc::new(RwLock::new(s)))
        .collect();
    // Commit point: manifest written last. From here the directory is at the
    // new width; journals stamped for the old manifest are reset on open.
    crate::snapshot::write_snapshot_files(dir, &shards)?;
    let covering = crate::snapshot::manifest_tail_checksum(dir)?;
    let journals = (0..new_shards)
        .map(|s| Journal::open(dir, s, mode, covering).map(Some))
        .collect::<Result<Vec<_>, _>>()
        .map_err(ReshardError::from)?;
    let histories = (0..new_shards)
        .map(|s| crate::history::HistoryLog::open(dir, old_gen + 1, s, mode).map(Some))
        .collect::<Result<Vec<_>, _>>()
        .map_err(ReshardError::from)?;
    // Journals of retired shard slots are superseded by the snapshot just
    // committed; best-effort removal (a leftover is reset by `Journal::open`
    // if the count ever grows past it again).
    let mut stale = new_shards;
    loop {
        let path = dir.join(crate::journal::journal_file_name(stale));
        if !path.exists() {
            break;
        }
        let _ = std::fs::remove_file(&path);
        stale += 1;
    }
    let durable = Arc::new(DurableState {
        dir: dir.to_path_buf(),
        mode,
        history_gen: Some(old_gen + 1),
    });
    let service =
        ShardedHiggs::from_arc_summaries_with(config, shards, Some(durable), journals, histories)
            .map_err(|e| ReshardError::Snapshot(SnapshotError::Config(e)))?;
    service.resume_seq(next_seq);
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
        open_resharded(
            dir.as_ref(),
            new_shards,
            crate::config::JournalMode::Buffered,
        )
    }
}
