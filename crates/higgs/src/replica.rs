//! Warm-follower replication: journal-segment shipping onto a restored
//! snapshot.
//!
//! ## The transport is the journal
//!
//! A durable leader (PR 9) already writes every acknowledged mutation into a
//! per-shard, checksummed, snapshot-stamped write-ahead journal **before**
//! applying it. That stream is a ready-made replication log: a [`Follower`]
//! bootstraps from the directory's snapshot (journal tails *not* replayed —
//! those bytes arrive through the cursor instead) and then, on each
//! [`sync`](Follower::sync), reads every shard's journal from its private
//! byte cursor to the current clean end, applies the new records, and
//! advances the cursor. The directory can be the leader's live directory
//! (shared filesystem) or any shipped copy that is re-synced by whatever
//! transport ships the segment files.
//!
//! ## Consistency & lag
//!
//! Each shipped record was acknowledged by the leader, and the cursor only
//! advances past records whose checksums verified — a torn tail (the leader
//! mid-append, or a truncated shipment) simply waits for the next sync.
//! [`replication_lag`](Follower::replication_lag) reports how many bytes and
//! records the follower trails, without applying anything.
//!
//! A journal whose covering stamp changed under the cursor means the leader
//! rotated (snapshotted + truncated) — the follower cannot verify it missed
//! nothing, so sync fails typed ([`ReplicaError::LeaderTruncated`]) and the
//! follower must re-bootstrap from the new snapshot. Leaders that snapshot
//! into their own directory do this on every `snapshot_to_dir`; pause
//! snapshotting or re-bootstrap followers afterwards.
//!
//! ## Promotion
//!
//! [`promote`](Follower::promote) performs a final sync and assembles a full
//! [`ShardedHiggs`] leader around the replica's summaries. Every mutation
//! the old leader acknowledged was journaled before it was applied, so after
//! a leader crash the promoted follower serves the complete acknowledged
//! history (chaos-tested under the `failpoints` feature). The promoted
//! service is non-durable; give it its own directory via
//! [`snapshot_to_dir`](ShardedHiggs::snapshot_to_dir) +
//! [`Store::open`](crate::Store::open) to resume journaling.

use crate::config::{ConfigError, HiggsConfig};
use crate::journal::{self, JournalError, HEADER_LEN};
use crate::shard::ShardedHiggs;
use crate::snapshot::SnapshotError;
use crate::tree::HiggsSummary;
use higgs_common::{Query, ShardPlan, TemporalGraphSummary, Weight};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

/// Why a follower operation (bootstrap, sync, promote) failed.
#[derive(Debug)]
pub enum ReplicaError {
    /// Restoring the bootstrap snapshot failed (missing/corrupt manifest or
    /// shard files).
    Snapshot(SnapshotError),
    /// Reading a journal segment failed: I/O, or interior corruption the
    /// cursor cannot skip.
    Journal(JournalError),
    /// The leader rotated this shard's journal (its covering stamp changed
    /// under the follower's cursor): records between the cursor and the
    /// truncation are unverifiable, so the follower refuses to guess and
    /// must re-bootstrap from the leader's new snapshot.
    LeaderTruncated {
        /// Shard whose journal was rotated away.
        shard: usize,
    },
    /// Assembling the promoted leader failed configuration validation.
    Config(ConfigError),
}

impl fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicaError::Snapshot(e) => write!(f, "follower bootstrap failed: {e}"),
            ReplicaError::Journal(e) => write!(f, "journal shipping failed: {e}"),
            ReplicaError::LeaderTruncated { shard } => write!(
                f,
                "leader rotated shard {shard}'s journal under the replication cursor; \
                 re-bootstrap the follower from the new snapshot"
            ),
            ReplicaError::Config(e) => write!(f, "promoted configuration is invalid: {e}"),
        }
    }
}

impl std::error::Error for ReplicaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplicaError::Snapshot(e) => Some(e),
            ReplicaError::Journal(e) => Some(e),
            ReplicaError::Config(e) => Some(e),
            ReplicaError::LeaderTruncated { .. } => None,
        }
    }
}

impl From<SnapshotError> for ReplicaError {
    fn from(e: SnapshotError) -> Self {
        ReplicaError::Snapshot(e)
    }
}

impl From<JournalError> for ReplicaError {
    fn from(e: JournalError) -> Self {
        ReplicaError::Journal(e)
    }
}

/// How far a follower trails its leader, as reported by
/// [`Follower::replication_lag`]: journal bytes and records that are on disk
/// but not yet applied here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicationLag {
    /// Verified journal bytes past the replication cursors.
    pub bytes_behind: u64,
    /// Journal records past the replication cursors.
    pub records_behind: u64,
}

/// What one [`Follower::sync`] shipped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicaProgress {
    /// Records applied by this sync, across all shards.
    pub records_applied: u64,
    /// Bytes the cursors advanced by this sync, across all shards.
    pub bytes_shipped: u64,
}

/// A warm read replica: restored snapshot summaries plus per-shard journal
/// cursors. See the [module docs](self) for the shipping protocol and
/// guarantees.
///
/// Queries ([`query`](Self::query) / [`query_batch`](Self::query_batch))
/// reflect everything shipped by the last completed
/// [`sync`](Self::sync) — a follower is eventually consistent by
/// construction. For serving-layer fan-out wrap it in a
/// [`ReplicaService`](crate::ReplicaService).
pub struct Follower {
    config: HiggsConfig,
    dir: PathBuf,
    shards: Vec<Arc<RwLock<HiggsSummary>>>,
    /// Per-shard byte offset into the journal file: everything before it has
    /// been applied here.
    cursors: Vec<u64>,
    /// The manifest checksum the journals were stamped with at bootstrap;
    /// a stamp change means the leader rotated (see
    /// [`ReplicaError::LeaderTruncated`]).
    covering: u64,
}

impl fmt::Debug for Follower {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Follower")
            .field("shards", &self.shards.len())
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl Follower {
    /// Bootstraps a follower from a leader directory: summaries restore from
    /// the snapshot (shard checksums verified against the manifest), and
    /// every journal cursor starts at the segment header — the first
    /// [`sync`](Self::sync) ships the full tails. Journal tails are **not**
    /// replayed here; that is what distinguishes a follower bootstrap from a
    /// crash-recovery restore.
    pub(crate) fn bootstrap(dir: &Path) -> Result<Self, ReplicaError> {
        let (config, summaries) = crate::snapshot::restore_summaries(dir, false)?;
        let covering = crate::snapshot::manifest_tail_checksum(dir)?;
        let shards: Vec<Arc<RwLock<HiggsSummary>>> = summaries
            .into_iter()
            .map(|s| Arc::new(RwLock::new(s)))
            .collect();
        let cursors = vec![HEADER_LEN; shards.len()];
        Ok(Follower {
            config,
            dir: dir.to_path_buf(),
            shards,
            cursors,
            covering,
        })
    }

    /// Ships every journal record past the cursors: reads each shard's
    /// verified tail, applies it, and advances the cursor. Returns what was shipped. A shard with no new bytes costs one
    /// metadata read. Idempotent between leader appends.
    pub fn sync(&mut self) -> Result<ReplicaProgress, ReplicaError> {
        let mut progress = ReplicaProgress::default();
        for shard in 0..self.shards.len() {
            let Some(tail) = journal::scan_tail(&self.dir, shard, self.cursors[shard])? else {
                continue;
            };
            if tail.covering != self.covering {
                return Err(ReplicaError::LeaderTruncated { shard });
            }
            if tail.records.is_empty() {
                continue;
            }
            progress.records_applied += tail.records.len() as u64;
            progress.bytes_shipped += tail.clean_end.saturating_sub(self.cursors[shard]);
            journal::apply_records(
                &mut self.shards[shard].write().expect("shard lock poisoned"),
                tail.records,
            );
            self.cursors[shard] = tail.clean_end;
        }
        Ok(progress)
    }

    /// How far this follower trails the on-disk journals, **without**
    /// applying anything (a monitoring probe: cheap, and `&self`).
    pub fn replication_lag(&self) -> Result<ReplicationLag, ReplicaError> {
        let mut lag = ReplicationLag::default();
        for shard in 0..self.shards.len() {
            let Some(tail) = journal::scan_tail(&self.dir, shard, self.cursors[shard])? else {
                continue;
            };
            if tail.covering != self.covering {
                return Err(ReplicaError::LeaderTruncated { shard });
            }
            lag.records_behind += tail.records.len() as u64;
            lag.bytes_behind += tail.clean_end.saturating_sub(self.cursors[shard]);
        }
        Ok(lag)
    }

    /// Number of shards this follower replicates.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The configuration the leader's manifest recorded (journal mode
    /// normalised to `Off` — a follower never journals).
    pub fn config(&self) -> &HiggsConfig {
        &self.config
    }

    /// The per-shard summaries (crate-internal: the serving layer's replica
    /// fan-out reads them from its shard workers).
    pub(crate) fn shard_summaries(&self) -> &[Arc<RwLock<HiggsSummary>>] {
        &self.shards
    }

    /// Answers one read-only query against the last synced state.
    pub fn query(&self, query: &Query) -> Weight {
        self.query_batch(std::slice::from_ref(query))[0]
    }

    /// Answers a read-only batch against the last synced state, through the
    /// same per-shard plan-sharing executor as the leader — results are
    /// bit-identical to the leader's for any state the sync has caught up
    /// to.
    pub fn query_batch(&self, queries: &[Query]) -> Vec<Weight> {
        let plan = ShardPlan::build(queries, self.shards.len());
        let per_shard: Vec<Vec<Weight>> = (0..self.shards.len())
            .map(|s| {
                let sub = plan.sub_batch(s);
                if sub.is_empty() {
                    Vec::new()
                } else {
                    // LINT-ALLOW(durability-io-panic): RwLock::read, not file
                    // I/O — poisoning means a query worker already panicked.
                    let summary = self.shards[s].read().expect("shard lock poisoned");
                    summary.query_batch(sub)
                }
            })
            .collect();
        plan.gather(&per_shard)
    }

    /// Promotes this follower to a serving leader: performs a final
    /// [`sync`](Self::sync) (shipping everything the crashed leader's
    /// journals hold — every record in them was acknowledged), then
    /// assembles a [`ShardedHiggs`] around the replica's summaries.
    ///
    /// The promoted service is **non-durable** (the old leader still owns
    /// the directory, and two journal writers on one directory would corrupt
    /// both); snapshot it into a fresh directory and reopen with
    /// [`Store::open`](crate::Store::open) to resume journaling.
    pub fn promote(mut self) -> Result<ShardedHiggs, ReplicaError> {
        self.sync()?;
        let mut config = self.config;
        config.shards = self.shards.len();
        ShardedHiggs::from_shards(config, self.shards, None).map_err(ReplicaError::Config)
    }
}
