//! The unified persistence entry point: [`Store::open`] with
//! [`StoreOptions`].
//!
//! [`Store`] is the one typed options surface for every persistent
//! service: say what you want ([`OpenMode`]), not which constructor matches
//! the directory's current state. Resharding and follower construction hang
//! off the same options type ([`Store::open_resharded`], [`Store::follow`]),
//! so the whole persistence lifecycle — create, recover, reshard, replicate
//! — reads from one vocabulary.
//!
//! ```no_run
//! use higgs::{HiggsConfig, JournalMode, OpenMode, Store, StoreOptions};
//!
//! let config = HiggsConfig::builder()
//!     .shards(2)
//!     .journal_mode(JournalMode::Buffered)
//!     .build()
//!     .expect("valid");
//! // Create-or-recover, with elastic history for later resharding.
//! let service = Store::open(
//!     StoreOptions::durable(config, "/var/lib/higgs").elastic(true),
//! )
//! .expect("open");
//! drop(service);
//! // Reopen strictly: fail if the directory vanished.
//! let service = Store::open(
//!     StoreOptions::durable(config, "/var/lib/higgs").mode(OpenMode::OpenExisting),
//! )
//! .expect("reopen");
//! # drop(service);
//! ```
//!
//! See the crate docs' *Elastic scaling & replication* section for the
//! migration table from the removed constructors.

use crate::config::{HiggsConfig, JournalMode};
use crate::framing::LogScan;
use crate::history::{self, HistoryLog};
use crate::replica::{Follower, ReplicaError};
use crate::reshard::ReshardError;
use crate::shard::{DurableState, ShardedHiggs};
use crate::snapshot::{per_shard, recover_shard, ShardBase, SnapshotError};
use crate::tree::HiggsSummary;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// How [`Store::open`] treats the directory's current state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpenMode {
    /// The directory must not already be initialised: fail with
    /// [`SnapshotError::AlreadyExists`] when it holds a snapshot manifest
    /// instead of silently recovering state the caller did not expect.
    CreateNew,
    /// The directory must already exist; fail (I/O `NotFound`) instead of
    /// creating it. With a configuration this recovers snapshot + journals;
    /// without one the configuration is taken from the manifest.
    OpenExisting,
    /// Create the directory when missing, recover it when present — the
    /// idempotent default for services that own their data directory.
    OpenOrCreate,
}

/// Typed options for [`Store::open`]: the directory, how to treat its
/// current state, and whether to keep an elastic history.
#[derive(Clone, Debug)]
pub struct StoreOptions {
    /// The caller's configuration. `Some` makes it authoritative (the
    /// durable open path); `None` takes the configuration from the
    /// directory's manifest (the restore path, necessarily
    /// [`OpenMode::OpenExisting`]).
    config: Option<HiggsConfig>,
    dir: PathBuf,
    mode: OpenMode,
    elastic: bool,
}

impl StoreOptions {
    /// Options for a **durable** service: `config` is authoritative, the
    /// directory is created or recovered ([`OpenMode::OpenOrCreate`]), and
    /// every mutation is journaled per `config`'s
    /// [`journal_mode`](crate::HiggsConfigBuilder::journal_mode).
    pub fn durable(config: HiggsConfig, dir: impl AsRef<Path>) -> Self {
        StoreOptions {
            config: Some(config),
            dir: dir.as_ref().to_path_buf(),
            mode: OpenMode::OpenOrCreate,
            elastic: false,
        }
    }

    /// Options for restoring a **non-durable** warm copy from a snapshot
    /// directory: the configuration comes from the manifest (journaling
    /// off), the directory must exist ([`OpenMode::OpenExisting`]).
    pub fn restore(dir: impl AsRef<Path>) -> Self {
        StoreOptions {
            config: None,
            dir: dir.as_ref().to_path_buf(),
            mode: OpenMode::OpenExisting,
            elastic: false,
        }
    }

    /// Overrides the [`OpenMode`].
    pub fn mode(mut self, mode: OpenMode) -> Self {
        self.mode = mode;
        self
    }

    /// Maintain an **elastic mutation history** (see [`crate::history`]):
    /// every acknowledged mutation is additionally appended, sequence
    /// stamped, to per-shard history logs, enabling
    /// [`ShardedHiggs::reshard`] and [`Store::open_resharded`] later.
    /// Requires journaling (a [`JournalMode`] other than `Off`). Directories
    /// that already hold history files re-enable this automatically; a
    /// directory with existing **non-elastic** state refuses (its past
    /// mutations were never recorded, so a later refold would drop them).
    pub fn elastic(mut self, elastic: bool) -> Self {
        self.elastic = elastic;
        self
    }
}

/// Namespace for the unified persistence API; see the [module docs](self)
/// and [`Store::open`].
#[derive(Debug)]
pub struct Store;

impl Store {
    /// Opens (creates, recovers, or restores) a [`ShardedHiggs`] from
    /// `options.dir` per the [`OpenMode`].
    ///
    /// * With a configuration ([`StoreOptions::durable`]): the caller's
    ///   config is authoritative. A directory holding a snapshot and/or
    ///   journals is recovered (journal tails replayed, a torn final record
    ///   tolerated); a fresh directory starts empty. Journaling continues
    ///   per the config's journal mode — `Off` gives recovery without
    ///   durability.
    /// * Without one ([`StoreOptions::restore`]): the manifest's stored
    ///   config is used. Since a manifest never records a journal mode, the
    ///   result is a warm **non-durable** copy.
    ///
    /// Elastic history ([`StoreOptions::elastic`]) additionally arms
    /// per-shard history logs and resumes the global mutation sequence above
    /// everything already recorded.
    ///
    /// Opening runs in two phases, each spread over at most one scoped
    /// thread per core, which claim tasks in order as they finish earlier
    /// ones:
    ///
    /// 1. **Recover and verify, writing nothing.** The manifest is validated
    ///    (magic, version, checksum, internal consistency) and the
    ///    directory's shard-file census checked against its count. Then one
    ///    task per shard reads its snapshot file, checks it against its own
    ///    checksum and the manifest-recorded one, and replays its journal
    ///    tail, which verifies every complete journal record. On an elastic
    ///    store, one more task per shard verifies its current-generation
    ///    history file (every record's checksum and decode, its clean end and
    ///    highest sequence number), and a last one reads the history
    ///    generations no shard re-arms (those a reshard left behind) for
    ///    their highest sequence number. A thread done with a small shard
    ///    goes on with the history scans while a large shard still replays.
    /// 2. **Arm.** Only once every task has succeeded are the shards' logs
    ///    armed for appending, from what phase 1 found and without reading
    ///    them again: a torn journal or history tail trimmed, a stale journal
    ///    reset, a missing file created.
    ///
    /// When several tasks fail, the error reported is the **lowest**
    /// failing task's (shard recoveries come first, in shard order), so a
    /// failed open is deterministic, and a failure in phase 1 leaves every
    /// file in the directory as it was. Nothing is spawned until both phases
    /// succeeded, so a failed open never leaks writer threads.
    pub fn open(options: StoreOptions) -> Result<ShardedHiggs, SnapshotError> {
        let StoreOptions {
            config,
            dir,
            mode,
            elastic,
        } = options;
        match mode {
            OpenMode::CreateNew => {
                if crate::snapshot::manifest_exists(&dir) {
                    return Err(SnapshotError::AlreadyExists { dir });
                }
            }
            OpenMode::OpenExisting => {
                if !dir.is_dir() {
                    return Err(SnapshotError::Io(std::io::Error::new(
                        std::io::ErrorKind::NotFound,
                        format!("{}: no such directory (OpenExisting)", dir.display()),
                    )));
                }
            }
            OpenMode::OpenOrCreate => {}
        }
        match config {
            Some(config) => open_durable(config, &dir, elastic),
            None => {
                if elastic {
                    return Err(SnapshotError::ElasticUnavailable {
                        detail: "restore opens are non-durable (the manifest stores no \
                                 journal mode), and elastic history requires the durable \
                                 write path; pass a configuration with journaling enabled"
                            .into(),
                    });
                }
                let (stored, summaries) = crate::snapshot::restore_summaries(&dir, true)?;
                Ok(ShardedHiggs::from_summaries(stored, summaries, None)?)
            }
        }
    }

    /// Opens `options.dir` **resharded** to `new_shards`: the directory's
    /// elastic history is refolded through `shard_of` at the new width, the
    /// refolded snapshot committed back, and the service opened durable at
    /// the new count (journaling per the options config's journal mode,
    /// [`JournalMode::Buffered`] when the options carry no config).
    ///
    /// Queries on the result are bit-identical to a service built fresh at
    /// `new_shards` from the same single-producer workload. Failures are
    /// typed [`ReshardError`]s and spawn nothing.
    pub fn open_resharded(
        options: StoreOptions,
        new_shards: usize,
    ) -> Result<ShardedHiggs, ReshardError> {
        let mode = options
            .config
            .map_or(JournalMode::Buffered, |c| c.journal_mode);
        crate::reshard::open_resharded(&options.dir, new_shards, mode)
    }

    /// Bootstraps a warm **read-only follower** from `options.dir` (a
    /// leader's live durable directory, or a shipped copy of it): summaries
    /// restore from the snapshot, and [`Follower::sync`] then replays
    /// journal segments as the leader appends them. See [`crate::replica`].
    pub fn follow(options: StoreOptions) -> Result<Follower, ReplicaError> {
        Follower::bootstrap(&options.dir)
    }
}

/// The durable open path: caller config authoritative, directory created
/// per mode, snapshot + journal recovery, optional elastic history.
fn open_durable(
    config: HiggsConfig,
    dir: &Path,
    elastic_requested: bool,
) -> Result<ShardedHiggs, SnapshotError> {
    config.validate().map_err(SnapshotError::Config)?;
    std::fs::create_dir_all(dir)?;
    let history_gen = history::max_history_gen(dir).map_err(SnapshotError::Journal)?;
    let elastic = elastic_requested || history_gen.is_some();
    if elastic && config.journal_mode == JournalMode::Off {
        return Err(SnapshotError::ElasticUnavailable {
            detail: "elastic history rides the durable write path; configure a \
                     JournalMode other than Off"
                .into(),
        });
    }
    let has_snapshot = crate::snapshot::manifest_exists(dir);
    if elastic_requested && history_gen.is_none() && has_snapshot {
        return Err(SnapshotError::ElasticUnavailable {
            detail: format!(
                "{} already holds non-elastic state: its past mutations were never \
                 recorded in a history log, so a later refold would silently drop \
                 them; elastic can only be enabled on a directory that was elastic \
                 from the start",
                dir.display()
            ),
        });
    }
    let manifest = if has_snapshot {
        let manifest = crate::snapshot::read_checked_manifest(dir)?;
        if manifest.config.shards != config.shards {
            return Err(SnapshotError::Corrupt(format!(
                "shard count mismatch: directory holds {} shards, config asks for {}",
                manifest.config.shards, config.shards
            )));
        }
        Some(manifest)
    } else {
        None
    };
    // Every journal is replayed, and then armed, under the manifest now in
    // the directory (no manifest: the zero stamp). A journal stamped for
    // another one was left stale by an interrupted rotation: its records
    // are in the snapshot already, so the replay skips them and arming
    // resets the file.
    let covering = crate::snapshot::manifest_tail_checksum(dir)?;
    // Reopening appends to the current history generation (its torn tail,
    // if any, is trimmed when armed); only a reshard advances it.
    let history_gen = elastic.then(|| history_gen.unwrap_or(0));
    let shards = config.shards;
    // Phase 1, writing nothing: one task per shard recovery, then on an
    // elastic store one per current-generation history scan, and one for
    // the history files phase 2 will not arm (every older generation, and
    // any current-generation file of a shard slot beyond the configured
    // count).
    let tasks = if history_gen.is_some() {
        2 * shards + 1
    } else {
        shards
    };
    let recovered = per_shard(tasks, |task| -> Result<_, SnapshotError> {
        Ok(match (task.checked_sub(shards), history_gen) {
            (None, _) => {
                let base = manifest.as_ref().map_or(ShardBase::Fresh, |m| {
                    ShardBase::Manifest(m.shard_checksums[task])
                });
                let (summary, journal) = recover_shard(dir, task, &config, base, Some(covering))?;
                Recovered::Shard(Box::new(summary), journal)
            }
            (Some(shard), Some(gen)) if shard < shards => {
                let (scan, max) =
                    HistoryLog::scan(dir, gen, shard).map_err(SnapshotError::Journal)?;
                Recovered::History(scan, max)
            }
            (Some(_), current) => {
                let unarmed = |gen: u64, shard: usize| Some(gen) != current || shard >= shards;
                let max = history::max_history_seq(dir, unarmed).map_err(SnapshotError::Journal)?;
                Recovered::Unarmed(max)
            }
        })
    })?;
    let mut summaries = Vec::with_capacity(shards);
    let mut journals = Vec::with_capacity(shards);
    let mut histories = Vec::with_capacity(shards);
    let mut max_seq = None;
    for result in recovered {
        match result {
            Recovered::Shard(summary, journal) => {
                summaries.push(*summary);
                journals.push(journal);
            }
            Recovered::History(scan, max) => {
                histories.push(scan);
                max_seq = max_seq.max(max);
            }
            Recovered::Unarmed(max) => max_seq = max_seq.max(max),
        }
    }
    // Phase 2: arm every shard's logs in parallel, from what phase 1 found.
    let durable = if config.journal_mode == JournalMode::Off {
        None
    } else {
        let state = Arc::new(DurableState {
            dir: dir.to_path_buf(),
            mode: config.journal_mode,
            history_gen,
        });
        let logs = per_shard(shards, |s| {
            state.arm(s, covering, journals[s], histories.get(s).copied())
        })
        .map_err(SnapshotError::Journal)?;
        Some((state, logs))
    };
    // New mutations must stamp above everything already on disk, so the
    // reconstructed global order stays a total order across restarts.
    let next_seq = max_seq.map_or(0, |s| s + 1);
    let service =
        ShardedHiggs::from_summaries(config, summaries, durable).map_err(SnapshotError::Config)?;
    service.resume_seq(next_seq);
    Ok(service)
}

/// What one phase-1 task of [`open_durable`] found.
enum Recovered {
    /// A shard's recovered summary, and what its journal replay found.
    Shard(Box<HiggsSummary>, Option<LogScan>),
    /// What the read-only scan of a current-generation history file found,
    /// and the highest sequence number in it.
    History(LogScan, Option<u64>),
    /// The highest sequence number in the history files phase 2 does not
    /// arm.
    Unarmed(Option<u64>),
}
