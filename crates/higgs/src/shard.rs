//! Sharded, concurrently-served HIGGS: the scale-out service layer.
//!
//! [`ShardedHiggs`] partitions one logical summary into a fixed number of
//! [`HiggsSummary`] shards by **hash of the source vertex**
//! ([`higgs_common::hashing::shard_of`]). Every component routes with that
//! one function, which yields the invariants the whole layer rests on:
//!
//! * **Ingest** — each shard owns a dedicated writer thread fed over a
//!   `crossbeam` channel. The ingest caller only hashes and enqueues; the
//!   writer applies the edge to its shard's [`HiggsSummary`] and runs any
//!   group-close aggregation inline, bottom-up from the θ children
//!   (Algorithm 2), so aggregation stays off the ingest caller's path
//!   without a second thread layer per shard. Per-source ordering is
//!   preserved because a source always routes to the same FIFO channel.
//! * **Query serving** — `query`/`query_batch` decompose a batch with
//!   [`ShardPlan`]: edge queries and out-direction vertex queries go to the
//!   owning source shard, path/subgraph queries split into per-hop edge
//!   queries routed by each hop's source, and in-direction vertex queries
//!   fan out to every shard and sum. Each shard evaluates its sub-batch
//!   through the plan-sharing executor of PR 2, so a batch still costs at
//!   most one Algorithm-3 boundary search per distinct [`TimeRange`] *per
//!   shard*.
//! * **Visibility** — the service is read-your-writes: every trait query
//!   first waits for all previously enqueued mutations (and the
//!   aggregations they triggered) to land, tracked by a cheap atomic clock,
//!   so the [`TemporalGraphSummary`] contract — including one-sided error —
//!   holds exactly as for an unsharded summary. Reads that arrive while
//!   *other* threads are still ingesting observe a **per-shard prefix** of
//!   the stream: each shard reflects a prefix of its own (per-source-ordered)
//!   sub-stream, but shards progress independently, so the combined view
//!   need not be a prefix of the global arrival order. Since counters only
//!   grow under insertion, every mid-ingest estimate still lies between the
//!   pre-ingest and the fully-flushed result (regression-tested).
//!
//! Concurrent ingest from a non-`&mut` context (a serving loop, multiple
//! producers) goes through a cloneable [`IngestHandle`].
//!
//! **Ingest backpressure.** By default the writer channels are unbounded: a
//! producer that sustainedly enqueues faster than the writers apply (enqueue
//! runs orders of magnitude faster, see the `sharding` bench) grows the
//! queue without bound. Configuring
//! [`HiggsConfigBuilder::ingest_queue_cap`](crate::HiggsConfigBuilder::ingest_queue_cap)
//! bounds each shard's queue at `n` commands instead: once a shard's writer
//! is `n` commands behind, sends into that shard **block** until the writer
//! catches up, so sustained overload turns into producer backpressure
//! rather than memory growth. (One command is one edge, one deletion, or
//! one routed `insert_all` batch of up to 512 edges.) Unbounded producers
//! that prefer pacing to blocking can instead checkpoint on
//! [`ShardedHiggs::flush`] / [`IngestHandle::flush`], and producers that
//! prefer failing fast to blocking can use [`IngestHandle::try_insert`] /
//! [`IngestHandle::try_delete`]. Every ingest outcome is typed: mutation
//! methods return `Result<(), IngestError>` distinguishing backpressure
//! ([`IngestError::QueueFull`]), a torn-down service
//! ([`IngestError::Shutdown`]) and load-shedding rejection
//! ([`IngestError::Rejected`]).
//!
//! **Plan caching.** Each shard's summary owns a cross-batch
//! [`PlanCache`](crate::PlanCache) (see [`plan_cache`](crate::plan_cache)):
//! repeated windows are planned at most once per shard until the shard
//! mutates. The cache composes with the flush clock: writers bump the
//! shard's mutation epoch while applying commands under the write lock, and
//! every trait query first waits for previously enqueued mutations to land
//! (`ensure_visible`), so a query can never be served a plan that predates
//! a mutation it is entitled to observe — read-your-writes holds through
//! the cache exactly as without it.

use crate::config::{ConfigError, HiggsConfig, JournalMode};
use crate::framing::LogScan;
use crate::history::HistoryLog;
use crate::journal::{failpoint, Journal, JournalError};
use crate::reshard::{RefoldError, ReshardError};
use crate::snapshot::{ShardBase, SnapshotError};
use crate::tree::HiggsSummary;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use higgs_common::hashing::shard_of;
use higgs_common::{
    Query, ShardPlan, StreamEdge, TemporalGraphSummary, TimeRange, VertexDirection, VertexId,
    Weight,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bound on the shard count: each shard owns a writer thread, so the
/// fan-out is validated by
/// [`HiggsConfig::validate`].
pub const MAX_SHARDS: usize = 64;

/// How many queued commands a writer applies per lock acquisition before
/// re-taking the shard lock, bounding both lock churn (ingest) and reader
/// starvation (serving).
const WRITER_COALESCE: usize = 64;

/// Edges per routed batch sent by [`IngestHandle::insert_all`]; amortises one
/// channel send over many edges without letting per-shard buffers grow large.
const INGEST_CHUNK: usize = 512;

/// Writer respawns allowed per shard over a service's lifetime. A persistent
/// fault (e.g. ENOSPC on every journal append) would otherwise loop
/// rebuild → fail → respawn forever, burning CPU on repeated snapshot+replay;
/// once the budget is spent the shard degrades permanently and its writer
/// drains in place.
pub const MAX_WRITER_RESPAWNS: u32 = 8;

/// Base backoff a respawned writer sleeps before retrying recovery; doubles
/// per attempt up to [`RESPAWN_BACKOFF_CAP_MS`]. The first respawn is
/// immediate — a one-off panic recovers with no added latency.
const RESPAWN_BACKOFF_BASE_MS: u64 = 10;

/// Ceiling on the per-respawn recovery backoff.
const RESPAWN_BACKOFF_CAP_MS: u64 = 640;

/// Process-wide count of live shard writer threads.
static LIVE_WRITERS: AtomicUsize = AtomicUsize::new(0);

/// Number of shard writer threads currently alive in this process, across
/// every [`ShardedHiggs`] instance. Other tests in the same binary move this
/// count concurrently, so it is only meaningful in a binary that runs a
/// single test — the hook that proves a *failed* open spawns nothing, where
/// no service (and so no [`WriterCensus`]) exists. Everywhere else use the
/// per-service [`ShardedHiggs::writer_census`].
pub fn live_writer_threads() -> usize {
    LIVE_WRITERS.load(Ordering::SeqCst)
}

/// The live writer threads of one service: its original fleet, respawned
/// recovery writers, and every fleet a reshard installs. A handle outlives
/// the service it came from, and drop joins every writer, so a handle read
/// after the drop reports zero — the deterministic way to prove teardown
/// joined its writers while other services run in the same process.
#[derive(Clone, Debug, Default)]
pub struct WriterCensus(Arc<AtomicUsize>);

impl WriterCensus {
    /// Number of this service's writer threads currently alive.
    pub fn live(&self) -> usize {
        // ORDERING: SeqCst, like the process-wide census: a diagnostic count
        // read after joins, where the strongest ordering costs nothing.
        self.0.load(Ordering::SeqCst)
    }

    /// Counts one writer in, here and in the process-wide census.
    fn enter(&self) -> WriterGuard {
        // ORDERING: SeqCst — see `live`.
        self.0.fetch_add(1, Ordering::SeqCst);
        LIVE_WRITERS.fetch_add(1, Ordering::SeqCst);
        WriterGuard(self.clone())
    }
}

/// RAII registration of one writer in its [`WriterCensus`]. Created on the
/// **spawning** side (before the thread runs) and moved into the writer
/// thread, so the count covers the writer's whole lifetime
/// deterministically: it reads `shards` the instant construction returns
/// and `0` the instant drop's join returns. Decrements on any exit path,
/// panic included.
struct WriterGuard(WriterCensus);

impl Drop for WriterGuard {
    fn drop(&mut self) {
        // ORDERING: SeqCst — see `WriterCensus::live`.
        self.0 .0.fetch_sub(1, Ordering::SeqCst);
        LIVE_WRITERS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A command processed by one shard's writer thread, in FIFO order.
/// Mutations carry the global sequence number stamped at routing time (see
/// [`IngestHandle`]); an `InsertBatch`'s `seqs` run parallel to its edges.
/// Non-elastic services stamp and ignore them — only the elastic history log
/// persists sequence numbers.
#[allow(clippy::large_enum_variant)]
enum ShardCommand {
    Insert(StreamEdge, u64),
    InsertBatch(Vec<StreamEdge>, Vec<u64>),
    Delete(StreamEdge, u64),
    /// Acknowledge. Because the channel is FIFO and writers aggregate
    /// inline, the acknowledgement proves every earlier mutation on this
    /// shard has been applied and aggregated.
    Flush(Sender<()>),
    /// Terminate the writer thread. Sent by `ShardedHiggs::drop` so teardown
    /// does not depend on every [`IngestHandle`] clone being gone (a live
    /// clone keeps the channel open, and a writer blocked in `recv` would
    /// otherwise never join). Commands enqueued after it are dropped.
    Shutdown,
    /// Park the writer at a snapshot fence: finish any pending aggregation,
    /// sync the history log (not the journal, which a successful snapshot
    /// truncates; see `ShardLog::sync`), acknowledge on `ready`, then block
    /// until `resume` delivers the verdict. `Some(checksum)` means the
    /// snapshot that motivated the fence covers every journaled mutation:
    /// the journal is truncated and stamped with the new manifest's
    /// checksum.
    /// `None` (or a dropped sender) resumes without touching it. After
    /// acting on the verdict the writer acknowledges on `ready` a second
    /// time, making the rotation synchronous for the fence holder.
    Fence {
        ready: Sender<()>,
        resume: Receiver<Option<u64>>,
    },
}

/// Health of one shard's writer, reported by [`ShardedHiggs::shard_health`].
///
/// A shard degrades when its writer fails — an apply panic, a journal append
/// error, or a failed journal rotation. Durable services
/// ([`Store::open`](crate::Store::open)) respawn the writer from snapshot + journal
/// replay and return to `Healthy`; non-durable services have no recovery
/// source, so the shard stays `Degraded` (its writer keeps draining commands
/// to acknowledge flushes and honour shutdown, but mutations are dropped).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardHealth {
    /// The writer is live and applying mutations.
    Healthy,
    /// The writer failed; queries routed at this shard should fail fast.
    Degraded,
}

/// `AtomicU8` encodings of [`ShardHealth`] on the shared health board.
const HEALTH_HEALTHY: u8 = 0;
const HEALTH_DEGRADED: u8 = 1;

/// Cheap cloneable read view of the per-shard health board, handed to the
/// serving layer so its admission loop can fail queries routed at degraded
/// shards fast without holding a reference to the whole [`ShardedHiggs`].
#[derive(Clone)]
pub(crate) struct HealthBoard {
    slots: Arc<Vec<AtomicU8>>,
}

impl HealthBoard {
    /// Whether `shard`'s writer is currently degraded.
    pub(crate) fn is_degraded(&self, shard: usize) -> bool {
        // ORDERING: Acquire pairs with the Release stores in
        // `mark_degraded` / `recover_and_serve`: observing a health
        // transition also observes the shard state it published.
        self.slots[shard].load(Ordering::Acquire) == HEALTH_DEGRADED
    }
}

/// Durable-mode state shared by the service, its writers, and respawned
/// recovery writers: where the journals live and how they sync.
#[derive(Debug)]
pub(crate) struct DurableState {
    pub(crate) dir: PathBuf,
    pub(crate) mode: JournalMode,
    /// `Some(generation)` when the store is *elastic*: every writer also
    /// appends to a [`HistoryLog`] of this generation, and the service can
    /// be resharded. A reshard retires the whole writer set and opens
    /// generation `+ 1`; see the [`history`](crate::history) module docs.
    pub(crate) history_gen: Option<u64>,
}

impl DurableState {
    /// Arms shard `shard`'s log sink: its journal, stamped with (or
    /// validated against) the covering manifest checksum `covering`, and on
    /// an elastic store its history log of the current generation. Each file
    /// is created if absent, and re-armed in place (a torn tail trimmed, a
    /// stale journal reset) if present.
    ///
    /// `journal` is what a replay of the journal under `covering` found
    /// ([`recover_shard`](crate::snapshot::recover_shard)'s report) and
    /// `history` what a [`HistoryLog::scan`] of the history file found; a
    /// file with a report is armed from it without being read again, one
    /// without (`None`) is verified record by record here.
    pub(crate) fn arm(
        &self,
        shard: usize,
        covering: u64,
        journal: Option<LogScan>,
        history: Option<LogScan>,
    ) -> Result<ShardLog, JournalError> {
        let journal = match journal {
            Some(scan) => Journal::arm_scanned(&self.dir, shard, self.mode, covering, scan)?,
            None => Journal::open(&self.dir, shard, self.mode, covering)?,
        };
        let history = match (self.history_gen, history) {
            (Some(gen), Some(scan)) => Some(HistoryLog::arm_scanned(
                &self.dir, gen, shard, self.mode, scan,
            )?),
            (Some(gen), None) => Some(HistoryLog::open(&self.dir, gen, shard, self.mode)?),
            (None, _) => None,
        };
        Ok(ShardLog { journal, history })
    }
}

/// One durable shard's log sink, owned by its writer thread: the write-ahead
/// journal plus, on an elastic store, the history log.
#[derive(Debug)]
pub(crate) struct ShardLog {
    journal: Journal,
    history: Option<HistoryLog>,
}

impl ShardLog {
    /// Records one mutation before it is applied (flushes and fences are not
    /// recorded). History is appended **before** the journal, so on-disk
    /// history is always a superset of `snapshot ∪ journal`, which is what
    /// lets resharding fold history alone. A failure after the history
    /// append re-drives the command through supervision, and the duplicate
    /// history record is collapsed on read (see [`crate::history`]).
    fn record(&mut self, command: &ShardCommand) -> Result<(), JournalError> {
        let history = &mut self.history;
        match command {
            ShardCommand::Insert(edge, seq) => {
                if let Some(h) = history {
                    h.append_insert(*seq, edge)?;
                }
                self.journal.append_insert(edge)
            }
            ShardCommand::InsertBatch(edges, seqs) => {
                if let Some(h) = history {
                    h.append_insert_batch(edges, seqs)?;
                }
                self.journal.append_insert_batch(edges)
            }
            ShardCommand::Delete(edge, seq) => {
                if let Some(h) = history {
                    h.append_delete(*seq, edge)?;
                }
                self.journal.append_delete(edge)
            }
            _ => Ok(()),
        }
    }

    /// Best-effort sync at a fence, of the history log only: durability of
    /// the fenced prefix comes from the snapshot the fence guards, and the
    /// reshard path that reads history behind the fence goes through the
    /// same filesystem, not the disk.
    ///
    /// The journal is not synced. A successful snapshot truncates it, so its
    /// fenced records never need to reach the disk; a failed one leaves it
    /// exactly as its [`JournalMode`] left it. The history log is synced
    /// before the ready ack, because after the rotation it holds the only
    /// raw copy of the fenced mutations.
    fn sync(&mut self) {
        if let Some(h) = self.history.as_mut() {
            let _ = h.sync();
        }
    }

    /// Rotates the journal after a snapshot covering it became durable:
    /// truncated and stamped with the new manifest's checksum. History is
    /// never rotated.
    fn rotate(&mut self, covering: u64) -> Result<(), JournalError> {
        self.journal.truncate(covering)
    }
}

/// Everything a writer thread needs, bundled so a supervisor can hand an
/// identical context to a respawned replacement. Cloning is cheap: the
/// receiver and the shared state are reference-counted, the config is `Copy`.
#[derive(Clone)]
struct WriterContext {
    shard_index: usize,
    config: HiggsConfig,
    shard: Arc<RwLock<HiggsSummary>>,
    rx: Receiver<ShardCommand>,
    discard: Arc<std::sync::atomic::AtomicBool>,
    health: Arc<Vec<AtomicU8>>,
    durable: Option<Arc<DurableState>>,
    /// Join handles of respawned recovery writers; finished generations are
    /// drained on each respawn, the rest by `ShardedHiggs::drop` after the
    /// original writers are joined.
    respawned: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// Per-shard count of writer respawns over the service's lifetime:
    /// drives the exponential recovery backoff and the
    /// [`MAX_WRITER_RESPAWNS`] failure budget. Never reset — a fault that
    /// keeps recurring must eventually park the shard instead of looping.
    respawn_attempts: Arc<Vec<AtomicU32>>,
    /// Per-shard record of why the most recent recovery attempt failed
    /// (cleared on success), surfaced through
    /// [`ShardedHiggs::shard_recovery_errors`] so operators can tell journal
    /// corruption from transient I/O or a missing manifest.
    recovery_errors: Arc<Vec<Mutex<Option<String>>>>,
    /// The service's writer census; respawned writers register in it too.
    census: WriterCensus,
}

/// Monotone clock tracking ingest visibility: `sent` counts mutation
/// commands enqueued across all shards, `visible` the `sent` watermark the
/// last completed flush is known to cover.
#[derive(Debug, Default)]
struct FlushClock {
    sent: AtomicU64,
    visible: AtomicU64,
}

/// Why an ingest operation was not enqueued. Returned by the fallible
/// [`IngestHandle`] surface (`insert` / `insert_all` / `delete` /
/// `try_insert` / `try_delete`), replacing the old untyped `bool` returns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// Backpressure: the owning shard's bounded ingest queue is at capacity
    /// (see
    /// [`HiggsConfigBuilder::ingest_queue_cap`](crate::HiggsConfigBuilder::ingest_queue_cap)).
    /// Only the non-blocking `try_*` methods report this — the blocking
    /// methods wait for space instead. Retrying later can succeed.
    QueueFull,
    /// The service has shut down: the shard writer threads are gone, so no
    /// mutation can ever be applied again. Terminal for this handle.
    Shutdown,
    /// The service is in load-shedding teardown
    /// ([`ShardedHiggs::discard_pending`]): writers drop queued commands
    /// unapplied, so the mutation is rejected instead of silently shed.
    /// Terminal for this handle (shedding is irreversible).
    Rejected,
    /// This client serves a read-only replica
    /// ([`ReplicaService`](crate::ReplicaService)): followers apply only
    /// what the leader's journals ship, so local mutations are refused.
    /// Terminal for this handle — send writes to the leader.
    ReadOnly,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::QueueFull => {
                write!(
                    f,
                    "ingest queue full: shard writer is at capacity (backpressure)"
                )
            }
            IngestError::Shutdown => {
                write!(f, "service shut down: shard writers are gone")
            }
            IngestError::Rejected => {
                write!(f, "mutation rejected: service is in load-shedding teardown")
            }
            IngestError::ReadOnly => {
                write!(
                    f,
                    "read-only replica: followers only apply mutations shipped \
                     from the leader's journals"
                )
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// A cloneable ingest endpoint for [`ShardedHiggs`]: routes mutations to the
/// owning shard's writer over its channel. All methods take `&self`, so any
/// number of producer threads can ingest while other threads serve queries
/// from the shared [`ShardedHiggs`].
///
/// Mutations enqueued through a handle become visible to trait queries on
/// the parent summary no later than the next query (read-your-writes via the
/// shared flush clock).
#[derive(Clone, Debug)]
pub struct IngestHandle {
    /// The routing table: one sender per shard. Behind an `RwLock` so an
    /// online [`ShardedHiggs::reshard`] can swap the whole writer set under
    /// every surviving handle clone: sends take the read lock, the reshard
    /// takes the write lock for the duration of the swap. Uncontended reads
    /// are a single atomic, so the steady-state ingest path is unchanged.
    router: Arc<RwLock<Vec<Sender<ShardCommand>>>>,
    clock: Arc<FlushClock>,
    /// Shared with the service and its writers: set once the service enters
    /// load-shedding teardown, after which enqueuing is pointless and every
    /// mutation method reports [`IngestError::Rejected`].
    discard: Arc<std::sync::atomic::AtomicBool>,
    /// Global mutation sequence counter, shared by every handle clone and
    /// surviving reshards. Each mutation is stamped at routing time; the
    /// elastic history log persists the stamp so the global mutation order
    /// can be reconstructed across shards (see [`crate::history`]).
    seq: Arc<AtomicU64>,
}

impl IngestHandle {
    /// Stamps the next global sequence number.
    fn next_seq(&self) -> u64 {
        // ORDERING: Relaxed — the stamp only needs uniqueness; the global
        // order is reconstructed by *sorting* on read (per-file order is not
        // trusted), so no cross-thread ordering is required here.
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Reserves `n` consecutive sequence numbers, returning the first.
    fn reserve_seqs(&self, n: u64) -> u64 {
        // ORDERING: Relaxed — see `next_seq`.
        self.seq.fetch_add(n, Ordering::Relaxed)
    }

    /// The current routing table. Sends hold this read guard across the
    /// channel send, so a reshard's write lock cannot retire a writer while
    /// a command is in flight towards it.
    fn senders(&self) -> RwLockReadGuard<'_, Vec<Sender<ShardCommand>>> {
        self.router.read().expect("router lock poisoned")
    }
    /// Whether the service has entered irreversible load-shedding teardown.
    fn shedding(&self) -> bool {
        // ORDERING: Acquire pairs with the Release store in
        // `ShardedHiggs::discard_pending`, matching the writers' view of the
        // flag: once a producer observes shedding it also observes the state
        // the shedder published before flipping it.
        self.discard.load(Ordering::Acquire)
    }

    fn mark_sent(&self) {
        // ORDERING: Release — orders the enqueue onto the channel before the
        // clock tick, pairing with the Acquire loads in `flush` /
        // `ensure_visible`: a reader that sees tick N also sees the N
        // enqueues, so read-your-writes cannot miss a mutation.
        self.clock.sent.fetch_add(1, Ordering::Release);
    }

    /// Number of shards this handle routes over. Can change across an online
    /// [`ShardedHiggs::reshard`].
    pub fn num_shards(&self) -> usize {
        self.senders().len()
    }

    /// Enqueues one stream item on its source's shard, blocking for queue
    /// space when the ingest queues are bounded.
    ///
    /// Errors are typed: [`IngestError::Shutdown`] if the service has been
    /// dropped (the writers are gone), [`IngestError::Rejected`] if it
    /// entered load-shedding teardown. The blocking path never reports
    /// [`IngestError::QueueFull`] — use [`try_insert`](Self::try_insert) to
    /// fail fast instead of blocking.
    ///
    /// The flush clock is advanced only *after* a successful send: a
    /// concurrent flush whose target covers this mutation is then guaranteed
    /// to find it already in the FIFO ahead of the flush marker, so
    /// read-your-writes never marks an unsent command visible.
    pub fn insert(&self, edge: &StreamEdge) -> Result<(), IngestError> {
        if self.shedding() {
            return Err(IngestError::Rejected);
        }
        let senders = self.senders();
        if senders.is_empty() {
            // The service was dropped and retired its routing table.
            return Err(IngestError::Shutdown);
        }
        let seq = self.next_seq();
        let result = senders[shard_of(edge.src, senders.len())]
            .send(ShardCommand::Insert(*edge, seq))
            .map_err(|_| IngestError::Shutdown);
        self.mark_sent();
        result
    }

    /// Enqueues one stream item without blocking: where
    /// [`insert`](Self::insert) would wait for queue space, this returns
    /// [`IngestError::QueueFull`] immediately and the caller decides whether
    /// to retry, shed, or back off.
    pub fn try_insert(&self, edge: &StreamEdge) -> Result<(), IngestError> {
        if self.shedding() {
            return Err(IngestError::Rejected);
        }
        let senders = self.senders();
        if senders.is_empty() {
            return Err(IngestError::Shutdown);
        }
        match senders[shard_of(edge.src, senders.len())]
            .try_send(ShardCommand::Insert(*edge, self.next_seq()))
        {
            Ok(()) => {
                self.mark_sent();
                Ok(())
            }
            Err(crossbeam::channel::TrySendError::Full(_)) => Err(IngestError::QueueFull),
            Err(crossbeam::channel::TrySendError::Disconnected(_)) => Err(IngestError::Shutdown),
        }
    }

    /// Enqueues a slice of stream items in arrival order, batching the
    /// routed edges per shard so a long stream costs one channel send per
    /// `INGEST_CHUNK` (512) edges instead of one per edge. Per-source order
    /// is preserved (routing is deterministic and channels are FIFO).
    ///
    /// An `Err` means part of the slice was **not** enqueued: the service
    /// shut down mid-call ([`IngestError::Shutdown`]) or was shedding load
    /// ([`IngestError::Rejected`]). Because batches are routed per shard,
    /// the enqueued part is not a prefix of `edges` — the slice cannot be
    /// resumed from an offset, so treat any error as "this service is
    /// gone", exactly like an `Err` from [`insert`](Self::insert).
    pub fn insert_all(&self, edges: &[StreamEdge]) -> Result<(), IngestError> {
        if self.shedding() {
            return Err(IngestError::Rejected);
        }
        let senders = self.senders();
        if senders.is_empty() {
            return Err(IngestError::Shutdown);
        }
        let shards = senders.len();
        // One contiguous sequence block for the whole slice: edge `i` is
        // stamped `base + i`, so arrival order and sequence order coincide
        // for this call however the edges scatter over shards.
        let base = self.reserve_seqs(edges.len() as u64);
        let send_batch = |shard: usize, batch: Vec<StreamEdge>, seqs: Vec<u64>| -> bool {
            let ok = senders[shard]
                .send(ShardCommand::InsertBatch(batch, seqs))
                .is_ok();
            self.mark_sent();
            ok
        };
        // Each buffer starts at an even share of the slice, so it rarely
        // regrows; a chunk is sent at `INGEST_CHUNK` edges.
        let share = edges.len().div_ceil(shards).min(INGEST_CHUNK);
        let buffer = || (Vec::with_capacity(share), Vec::with_capacity(share));
        let mut buffers: Vec<(Vec<StreamEdge>, Vec<u64>)> = (0..shards).map(|_| buffer()).collect();
        for (i, edge) in edges.iter().enumerate() {
            let shard = shard_of(edge.src, shards);
            let (batch, seqs) = &mut buffers[shard];
            batch.push(*edge);
            seqs.push(base + i as u64);
            if batch.len() >= INGEST_CHUNK {
                let (batch, seqs) = std::mem::replace(&mut buffers[shard], buffer());
                if !send_batch(shard, batch, seqs) {
                    // The writers are being torn down; every further send
                    // would fail too, so stop routing.
                    return Err(IngestError::Shutdown);
                }
            }
        }
        for (shard, (batch, seqs)) in buffers.into_iter().enumerate() {
            if !batch.is_empty() && !send_batch(shard, batch, seqs) {
                return Err(IngestError::Shutdown);
            }
        }
        Ok(())
    }

    /// Enqueues a deletion on the owning shard; ordered after every earlier
    /// mutation of the same source (same FIFO channel). Blocks for queue
    /// space like [`insert`](Self::insert) and reports the same typed
    /// errors.
    pub fn delete(&self, edge: &StreamEdge) -> Result<(), IngestError> {
        if self.shedding() {
            return Err(IngestError::Rejected);
        }
        let senders = self.senders();
        if senders.is_empty() {
            return Err(IngestError::Shutdown);
        }
        let seq = self.next_seq();
        let result = senders[shard_of(edge.src, senders.len())]
            .send(ShardCommand::Delete(*edge, seq))
            .map_err(|_| IngestError::Shutdown);
        self.mark_sent();
        result
    }

    /// Enqueues a deletion without blocking; the non-blocking counterpart of
    /// [`delete`](Self::delete), reporting [`IngestError::QueueFull`] where
    /// the blocking path would wait.
    pub fn try_delete(&self, edge: &StreamEdge) -> Result<(), IngestError> {
        if self.shedding() {
            return Err(IngestError::Rejected);
        }
        let senders = self.senders();
        if senders.is_empty() {
            return Err(IngestError::Shutdown);
        }
        match senders[shard_of(edge.src, senders.len())]
            .try_send(ShardCommand::Delete(*edge, self.next_seq()))
        {
            Ok(()) => {
                self.mark_sent();
                Ok(())
            }
            Err(crossbeam::channel::TrySendError::Full(_)) => Err(IngestError::QueueFull),
            Err(crossbeam::channel::TrySendError::Disconnected(_)) => Err(IngestError::Shutdown),
        }
    }

    /// Blocks until every mutation enqueued before this call — by any clone
    /// of this handle — has been applied and aggregated.
    pub fn flush(&self) {
        // ORDERING: Acquire pairs with the Release fetch_add in `mark_sent`:
        // reading tick `target` guarantees the `target` enqueues that
        // preceded it are visible to the writers we are about to flush.
        let target = self.clock.sent.load(Ordering::Acquire);
        let (ack_tx, ack_rx) = unbounded::<()>();
        let mut expected = 0usize;
        for sender in self.senders().iter() {
            if sender.send(ShardCommand::Flush(ack_tx.clone())).is_ok() {
                expected += 1;
            }
        }
        drop(ack_tx);
        for _ in 0..expected {
            if ack_rx.recv().is_err() {
                break; // a writer exited; nothing further can be flushed
            }
        }
        // ORDERING: AcqRel — Release publishes "everything up to `target` is
        // applied" to later Acquire readers of `visible` (`ensure_visible`);
        // Acquire keeps concurrent flushers' max-updates ordered so the
        // clock never appears to run backwards.
        self.clock.visible.fetch_max(target, Ordering::AcqRel);
    }

    /// Ensures every mutation enqueued so far is visible, flushing only when
    /// the clock says some might not be (crate-internal: the serving layer's
    /// admission loop uses it to honour read-your-writes once per tick).
    pub(crate) fn ensure_visible(&self) {
        // ORDERING: both Acquire — `visible` pairs with the AcqRel fetch_max
        // in `flush`, `sent` with the Release fetch_add in `mark_sent`; a
        // stale read of either can only under-report, which at worst takes
        // the (idempotent) flush path once too often, never skips it.
        if self.clock.visible.load(Ordering::Acquire) < self.clock.sent.load(Ordering::Acquire) {
            self.flush();
        }
    }
}

/// A source-sharded HIGGS service: `N` independent [`HiggsSummary`] trees,
/// each fed by its own writer thread that aggregates inline, queried as a
/// single [`TemporalGraphSummary`].
///
/// See the [module docs](self) for the routing rules and consistency model,
/// and the crate docs' *Scaling out* section for how this layer composes
/// with the rest of the system.
///
/// ```
/// use higgs::{HiggsConfig, ShardedHiggs};
/// use higgs_common::{Query, StreamEdge, TemporalGraphSummary, TimeRange};
///
/// let config = HiggsConfig::builder().shards(4).build().expect("valid");
/// let mut service = ShardedHiggs::new(config);
/// service.insert(&StreamEdge::new(1, 2, 5, 10));
/// service.insert(&StreamEdge::new(2, 3, 2, 11));
/// // Trait queries are read-your-writes: the enqueued edges are visible.
/// assert_eq!(
///     service.query_batch(&[
///         Query::edge(1, 2, TimeRange::new(0, 20)),
///         Query::path(vec![1, 2, 3], TimeRange::new(0, 20)),
///     ]),
///     vec![5, 7]
/// );
/// ```
pub struct ShardedHiggs {
    shards: Vec<Arc<RwLock<HiggsSummary>>>,
    handle: IngestHandle,
    writers: Vec<JoinHandle<()>>,
    /// When set, writers drop queued commands unapplied instead of applying
    /// them; see [`Self::discard_pending`].
    discard: Arc<std::sync::atomic::AtomicBool>,
    /// Per-shard health board shared with the writers and the serving layer;
    /// see [`ShardHealth`].
    health: Arc<Vec<AtomicU8>>,
    /// Join handles of writers respawned after a failure (see
    /// `supervise_failure`); joined by drop after the original writers.
    respawned: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// Per-shard respawn counters (shared with the writers' supervision
    /// path); see [`MAX_WRITER_RESPAWNS`].
    respawn_attempts: Arc<Vec<AtomicU32>>,
    /// Per-shard last recovery failure, exposed via
    /// [`Self::shard_recovery_errors`].
    recovery_errors: Arc<Vec<Mutex<Option<String>>>>,
    /// Live writer threads of every fleet this service has run; see
    /// [`Self::writer_census`].
    census: WriterCensus,
    /// `Some` when this service journals mutations (durable mode).
    durable: Option<Arc<DurableState>>,
    config: HiggsConfig,
}

impl std::fmt::Debug for ShardedHiggs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedHiggs")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

/// Applies one mutation or flush to the shard summary, aggregating inline.
/// Runs under the shard write lock, wrapped in `catch_unwind` by the caller
/// so a panic degrades the shard instead of tearing down the process (or
/// poisoning the lock — the lock guard lives outside the unwind boundary).
fn apply(summary: &mut HiggsSummary, command: ShardCommand) {
    failpoint!("shard::apply");
    match command {
        ShardCommand::Insert(edge, _) => summary.insert_edge(&edge),
        ShardCommand::InsertBatch(edges, _) => {
            for edge in &edges {
                summary.insert_edge(edge);
            }
        }
        ShardCommand::Delete(edge, _) => summary.delete_edge(&edge),
        ShardCommand::Flush(ack) => {
            let _ = ack.send(());
        }
        ShardCommand::Shutdown | ShardCommand::Fence { .. } => {
            unreachable!("handled by the loop")
        }
    }
}

/// How a writer came out of a snapshot fence (see [`ShardCommand::Fence`]).
enum FenceOutcome {
    /// The fence completed; the writer keeps serving.
    Resumed,
    /// The post-snapshot journal rotation failed: the journal still holds
    /// records the snapshot already covers and the shard can no longer be
    /// recovered without double-applying them — the caller must degrade
    /// permanently.
    RotationFailed,
    /// The aggregation flush at the fence panicked. The shard was marked
    /// degraded *before* the ready ack (so the fence holder's post-fence
    /// health re-check aborts the snapshot) and the caller must route
    /// through supervision like an apply panic: every fenced mutation is
    /// already journaled, so a rebuild re-applies them.
    FlushPanicked,
}

/// Parks the writer at a snapshot fence (see [`ShardCommand::Fence`]).
/// Every exit path completes the two-ack fence protocol, so the fence
/// holder never hangs on a failing writer.
fn fence_writer(
    ctx: &WriterContext,
    log: &mut Option<ShardLog>,
    ready: Sender<()>,
    resume: Receiver<Option<u64>>,
) -> FenceOutcome {
    let flushed = {
        // The lock guard lives outside the unwind boundary, exactly like the
        // apply path: a panicking flush degrades the shard instead of
        // poisoning the lock and cascading into every later lock user.
        let mut summary = ctx.shard.write().expect("shard lock poisoned");
        catch_unwind(AssertUnwindSafe(|| {
            failpoint!("shard::fence_flush");
            summary.finalize_aggregations()
        }))
        .is_ok()
    };
    if !flushed {
        // Degrade before acking so the fence holder's re-check (writers all
        // parked, health stable) observes it and releases with "keep".
        mark_degraded(ctx);
        let _ = ready.send(());
        // Ignore the verdict: this shard's summary is partial, so its
        // journal must never rotate here (the fence holder aborts anyway).
        let _ = resume.recv();
        let _ = ready.send(());
        return FenceOutcome::FlushPanicked;
    }
    if let Some(log) = log.as_mut() {
        log.sync();
    }
    let _ = ready.send(());
    let ok = match resume.recv() {
        Ok(Some(covering)) => match log.as_mut() {
            Some(log) => log.rotate(covering).is_ok(),
            None => true,
        },
        // Snapshot failed or the fence holder is gone: keep the journal.
        _ => true,
    };
    // Completion ack: the fence holder blocks until every writer has
    // committed (or declined) its rotation.
    let _ = ready.send(());
    if ok {
        FenceOutcome::Resumed
    } else {
        FenceOutcome::RotationFailed
    }
}

/// Marks the context's shard degraded on the shared health board.
fn mark_degraded(ctx: &WriterContext) {
    // ORDERING: Release pairs with the Acquire loads in `shard_health` and
    // the serving admission loop: an observer that sees the shard degraded
    // also sees everything the writer published before failing.
    ctx.health[ctx.shard_index].store(HEALTH_DEGRADED, Ordering::Release);
}

/// Records why the most recent recovery attempt for the context's shard
/// failed (`None` clears the slot after a successful recovery).
fn record_recovery_error(ctx: &WriterContext, error: Option<String>) {
    *ctx.recovery_errors[ctx.shard_index]
        .lock()
        .expect("recovery error slot poisoned") = error;
}

/// Supervisor for a failed writer: degrades the shard and hands the queue to
/// a replacement thread. `carryover` is a command that was dequeued but
/// neither journaled nor applied (a journal append failure) — the
/// replacement re-drives it first so no acknowledged mutation is lost.
///
/// Respawns are budgeted and backed off: each respawn beyond the first
/// sleeps exponentially longer before retrying recovery, and once the
/// shard's [`MAX_WRITER_RESPAWNS`] budget is spent the failing writer drains
/// in place permanently — a persistent fault must not spin
/// rebuild → fail → respawn forever. Finished replacement generations are
/// joined here on each respawn, so the registry stays bounded however many
/// times a shard fails.
///
/// The replacement's census guard is created *before* the failing writer's
/// guard drops, so the [`WriterCensus`] never dips below baseline during the
/// handoff.
fn supervise_failure(ctx: &WriterContext, carryover: Option<ShardCommand>) {
    mark_degraded(ctx);
    // ORDERING: Relaxed — only this shard's writer generations touch the
    // counter, and they are sequential (each respawn happens-before its
    // successor via thread spawn); the count gates nothing another thread
    // synchronises on.
    let attempt = ctx.respawn_attempts[ctx.shard_index].fetch_add(1, Ordering::Relaxed);
    if attempt >= MAX_WRITER_RESPAWNS {
        record_recovery_error(
            ctx,
            Some(format!(
                "respawn budget exhausted after {MAX_WRITER_RESPAWNS} writer failures; \
                 shard parked in degraded drain"
            )),
        );
        degraded_drain(ctx);
        return;
    }
    let backoff = Duration::from_millis(
        RESPAWN_BACKOFF_BASE_MS
            .checked_shl(attempt)
            .unwrap_or(u64::MAX)
            .min(RESPAWN_BACKOFF_CAP_MS),
    );
    let replacement_guard = ctx.census.enter();
    let replacement_ctx = ctx.clone();
    let pin_core = ctx.config.pin_core(ctx.shard_index);
    let handle = std::thread::spawn(move || {
        if let Some(core) = pin_core {
            let _ = higgs_common::affinity::pin_to_core(core);
        }
        if attempt > 0 {
            std::thread::sleep(backoff);
        }
        recover_and_serve(replacement_ctx, carryover, replacement_guard);
    });
    let finished: Vec<JoinHandle<()>> = {
        let mut registry = ctx.respawned.lock().expect("respawn registry poisoned");
        let mut live = Vec::with_capacity(registry.len() + 1);
        let mut finished = Vec::new();
        for h in registry.drain(..) {
            if h.is_finished() {
                finished.push(h);
            } else {
                live.push(h);
            }
        }
        live.push(handle);
        *registry = live;
        finished
    };
    // Joined outside the lock: these generations have already exited, so the
    // joins return immediately.
    for h in finished {
        let _ = h.join();
    }
}

/// Entry point of a respawned writer: rebuild the shard from its durable
/// record (snapshot, if any, plus full journal replay), swap the rebuilt
/// summary in, report `Healthy`, and resume serving the same command queue.
/// Without a durable record (or when recovery itself fails) the shard stays
/// degraded and the writer drains commands so nothing blocks on it.
fn recover_and_serve(ctx: WriterContext, carryover: Option<ShardCommand>, guard: WriterGuard) {
    let _guard = guard;
    if let Some(durable) = ctx.durable.clone() {
        match rebuild_shard(&durable, &ctx) {
            Ok(log) => {
                record_recovery_error(&ctx, None);
                // ORDERING: Release publishes the rebuilt summary (already
                // swapped in under the write lock) before readers that
                // Acquire the Healthy flag can route queries here again.
                ctx.health[ctx.shard_index].store(HEALTH_HEALTHY, Ordering::Release);
                writer_loop(ctx, Some(log), carryover);
                return;
            }
            Err(e) => record_recovery_error(&ctx, Some(e.to_string())),
        }
    } else {
        record_recovery_error(
            &ctx,
            Some("no durable record (journaling off): nothing to rebuild from".into()),
        );
    }
    degraded_drain(&ctx);
}

/// Rebuilds one shard's summary from snapshot + journal replay and re-arms
/// its log sink. The rebuilt summary replaces the (possibly
/// partially-mutated) live one, so a half-applied batch from the failed
/// writer is wiped and re-applied exactly once via the journal. A failure
/// propagates the typed [`SnapshotError`] (journal errors wrapped as
/// [`SnapshotError::Journal`]) so the caller can record *why* the shard
/// stayed degraded instead of collapsing every cause into silence.
fn rebuild_shard(durable: &DurableState, ctx: &WriterContext) -> Result<ShardLog, SnapshotError> {
    let covering = crate::snapshot::manifest_tail_checksum(&durable.dir)?;
    let (summary, journal) = crate::snapshot::recover_shard(
        &durable.dir,
        ctx.shard_index,
        &ctx.config,
        ShardBase::Surviving,
        Some(covering),
    )?;
    let log = durable
        .arm(ctx.shard_index, covering, journal, None)
        .map_err(SnapshotError::Journal)?;
    *ctx.shard.write().expect("shard lock poisoned") = summary;
    Ok(log)
}

/// Serve loop of a permanently degraded shard: mutations are dropped (there
/// is no recovery source), but flushes are acknowledged, fences answered,
/// and shutdown honoured so no other thread ever blocks on this shard.
fn degraded_drain(ctx: &WriterContext) {
    while let Ok(command) = ctx.rx.recv() {
        match command {
            ShardCommand::Shutdown => break,
            ShardCommand::Flush(ack) => {
                // Vacuously true: every mutation this shard would have
                // applied has been shed.
                let _ = ack.send(());
            }
            ShardCommand::Fence { ready, resume } => {
                let _ = ready.send(());
                // Never truncate a degraded shard's journal: it is the only
                // surviving record of the shard's mutations. (Unreachable
                // through `snapshot_to_dir`, which refuses degraded shards,
                // but the protocol stays total.)
                let _ = resume.recv();
                let _ = ready.send(());
            }
            _ => {}
        }
    }
}

/// Records one dequeued mutation (or flush) and applies it under the shard
/// write lock, taking the lock into `held` if the caller does not hold it
/// yet. Returns `false` once the writer failed: the lock is released and the
/// failure handed to supervision, and the caller must return.
fn record_and_apply<'a>(
    ctx: &'a WriterContext,
    log: &mut Option<ShardLog>,
    held: &mut Option<RwLockWriteGuard<'a, HiggsSummary>>,
    command: ShardCommand,
) -> bool {
    if let Some(log) = log.as_mut() {
        if log.record(&command).is_err() {
            // Not recorded, not applied: hand the command to the replacement
            // so it is re-driven in order.
            *held = None;
            supervise_failure(ctx, Some(command));
            return false;
        }
    }
    let summary = held.get_or_insert_with(|| ctx.shard.write().expect("shard lock poisoned"));
    if catch_unwind(AssertUnwindSafe(|| apply(summary, command))).is_err() {
        // Already recorded: recovery replay re-applies it onto a rebuilt
        // summary, so no carryover.
        *held = None;
        supervise_failure(ctx, None);
        return false;
    }
    true
}

fn writer_loop(ctx: WriterContext, mut log: Option<ShardLog>, initial: Option<ShardCommand>) {
    let mut next = initial;
    'serve: loop {
        let command = match next.take() {
            Some(command) => command,
            None => match ctx.rx.recv() {
                Ok(command) => command,
                Err(_) => break 'serve,
            },
        };
        match command {
            ShardCommand::Shutdown => break 'serve,
            ShardCommand::Fence { ready, resume } => {
                match fence_writer(&ctx, &mut log, ready, resume) {
                    FenceOutcome::Resumed => {}
                    FenceOutcome::RotationFailed => {
                        mark_degraded(&ctx);
                        record_recovery_error(
                            &ctx,
                            Some(
                                "journal rotation failed after a successful snapshot; \
                                 replay would double-apply the rotated records"
                                    .into(),
                            ),
                        );
                        degraded_drain(&ctx);
                        return;
                    }
                    FenceOutcome::FlushPanicked => {
                        // Every fenced mutation was journaled before it was
                        // applied, so a rebuild replays them: no carryover.
                        supervise_failure(&ctx, None);
                        return;
                    }
                }
            }
            command => {
                // ORDERING: Acquire pairs with the Release store in
                // `discard_pending`, so a writer that observes shedding mode
                // also observes everything the shedder did before flipping
                // the flag.
                if ctx.discard.load(Ordering::Acquire) {
                    // Shedding mode: drop the command unapplied (a Flush's
                    // pending acknowledger is dropped with it, which
                    // unblocks the flusher).
                    continue 'serve;
                }
                // The head command is recorded before the lock is taken;
                // whatever else is already queued is then recorded and
                // applied under it, bounded so concurrent readers are not
                // starved.
                let mut held = None;
                if !record_and_apply(&ctx, &mut log, &mut held, command) {
                    return;
                }
                for _ in 0..WRITER_COALESCE {
                    match ctx.rx.try_recv() {
                        Ok(ShardCommand::Shutdown) => break 'serve,
                        Ok(fence @ ShardCommand::Fence { .. }) => {
                            // Handle at the loop top, outside the lock.
                            next = Some(fence);
                            break;
                        }
                        Ok(coalesced) => {
                            if !record_and_apply(&ctx, &mut log, &mut held, coalesced) {
                                return;
                            }
                        }
                        Err(_) => break,
                    }
                }
            }
        }
    }
    // Either a Shutdown arrived (commands queued behind it are dropped) or
    // every sender is gone and the queue is fully drained.
}

/// One freshly spawned writer fleet: the channel senders, the thread
/// handles, and the supervision state the writers share. Produced by
/// [`spawn_writer_set`]; consumed by service assembly and by the online
/// reshard, which retires one fleet and installs another.
struct WriterSet {
    senders: Vec<Sender<ShardCommand>>,
    writers: Vec<JoinHandle<()>>,
    health: Arc<Vec<AtomicU8>>,
    respawned: Arc<Mutex<Vec<JoinHandle<()>>>>,
    respawn_attempts: Arc<Vec<AtomicU32>>,
    recovery_errors: Arc<Vec<Mutex<Option<String>>>>,
}

/// Spawns one writer thread per shard with an empty queue, handing each its
/// armed log sink (`None` when the service is not durable). Fresh supervision
/// state (health board, respawn registry/budget, recovery-error slots) is
/// allocated per fleet — a reshard starts the new fleet with a clean slate.
fn spawn_writer_set(
    config: HiggsConfig,
    shards: &[Arc<RwLock<HiggsSummary>>],
    durable: Option<Arc<DurableState>>,
    logs: Vec<Option<ShardLog>>,
    discard: Arc<std::sync::atomic::AtomicBool>,
    census: &WriterCensus,
) -> WriterSet {
    let num_shards = shards.len();
    let mut senders = Vec::with_capacity(num_shards);
    let mut writers = Vec::with_capacity(num_shards);
    let health: Arc<Vec<AtomicU8>> = Arc::new(
        (0..num_shards)
            .map(|_| AtomicU8::new(HEALTH_HEALTHY))
            .collect(),
    );
    let respawned: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let respawn_attempts: Arc<Vec<AtomicU32>> =
        Arc::new((0..num_shards).map(|_| AtomicU32::new(0)).collect());
    let recovery_errors: Arc<Vec<Mutex<Option<String>>>> =
        Arc::new((0..num_shards).map(|_| Mutex::new(None)).collect());
    for (shard_index, (shard, log)) in shards.iter().zip(logs).enumerate() {
        let (tx, rx) = match config.ingest_queue_cap {
            Some(cap) => bounded::<ShardCommand>(cap),
            None => unbounded::<ShardCommand>(),
        };
        let ctx = WriterContext {
            shard_index,
            config,
            shard: shard.clone(),
            rx,
            discard: discard.clone(),
            health: health.clone(),
            durable: durable.clone(),
            respawned: respawned.clone(),
            respawn_attempts: respawn_attempts.clone(),
            recovery_errors: recovery_errors.clone(),
            census: census.clone(),
        };
        let guard = census.enter();
        // None when pinning is off; pinning is best-effort.
        let pin_core = config.pin_core(shard_index);
        writers.push(std::thread::spawn(move || {
            let _guard = guard;
            if let Some(core) = pin_core {
                let _ = higgs_common::affinity::pin_to_core(core);
            }
            writer_loop(ctx, log, None)
        }));
        senders.push(tx);
    }
    WriterSet {
        senders,
        writers,
        health,
        respawned,
        respawn_attempts,
        recovery_errors,
    }
}

impl ShardedHiggs {
    /// Creates a sharded service with `config.shards` shards and one writer
    /// thread per shard.
    ///
    /// Panics on an invalid configuration; use [`Self::try_new`] for
    /// fallible construction.
    pub fn new(config: HiggsConfig) -> Self {
        Self::try_new(config).expect("invalid HiggsConfig")
    }

    /// Creates a sharded service, returning the violated constraint instead
    /// of panicking when the configuration is invalid.
    ///
    /// When [`HiggsConfig::pin_workers`] is set, shard `s`'s writer pins to
    /// core `s % available_cores`, keeping each shard's slabs resident in
    /// one core's private cache.
    pub fn try_new(config: HiggsConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let summaries = (0..config.shards)
            .map(|_| HiggsSummary::new(config))
            .collect();
        Self::from_summaries(config, summaries, None)
    }

    /// Assembles a service around pre-built per-shard summaries (fresh ones
    /// for [`try_new`](Self::try_new), recovered ones for the store's open
    /// paths); see [`from_shards`](Self::from_shards).
    pub(crate) fn from_summaries(
        config: HiggsConfig,
        summaries: Vec<HiggsSummary>,
        durable: Option<(Arc<DurableState>, Vec<ShardLog>)>,
    ) -> Result<Self, ConfigError> {
        let shards = summaries
            .into_iter()
            .map(|s| Arc::new(RwLock::new(s)))
            .collect();
        Self::from_shards(config, shards, durable)
    }

    /// Shared assembly core: spawns one writer thread per shard with an
    /// empty queue. `durable` carries the durable state and one armed log
    /// sink per shard; `None` assembles a non-durable service (also the
    /// promotion path of a [`Follower`](crate::Follower), whose summaries
    /// are already shared with the replica apply loop).
    pub(crate) fn from_shards(
        config: HiggsConfig,
        shards: Vec<Arc<RwLock<HiggsSummary>>>,
        durable: Option<(Arc<DurableState>, Vec<ShardLog>)>,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        if shards.len() != config.shards {
            return Err(ConfigError::InvalidShardCount {
                shards: shards.len(),
            });
        }
        let (durable, logs) = match durable {
            Some((state, logs)) => (Some(state), logs.into_iter().map(Some).collect()),
            None => (None, shards.iter().map(|_| None).collect()),
        };
        let discard = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let census = WriterCensus::default();
        let set = spawn_writer_set(
            config,
            &shards,
            durable.clone(),
            logs,
            discard.clone(),
            &census,
        );
        Ok(Self {
            shards,
            handle: IngestHandle {
                router: Arc::new(RwLock::new(set.senders)),
                clock: Arc::new(FlushClock::default()),
                discard: discard.clone(),
                seq: Arc::new(AtomicU64::new(0)),
            },
            writers: set.writers,
            discard,
            health: set.health,
            respawned: set.respawned,
            respawn_attempts: set.respawn_attempts,
            recovery_errors: set.recovery_errors,
            census,
            durable,
            config,
        })
    }

    /// The per-shard summaries (crate-internal; the snapshot codec reads
    /// each one under its lock).
    pub(crate) fn shard_summaries(&self) -> &[Arc<RwLock<HiggsSummary>>] {
        &self.shards
    }

    /// A handle on this service's [`WriterCensus`]: the number of its writer
    /// threads alive right now. The handle stays readable after the service
    /// drops (and then reads zero, since drop joins every writer).
    pub fn writer_census(&self) -> WriterCensus {
        self.census.clone()
    }

    /// Per-shard writer health (diagnostic). A `Degraded` entry means the
    /// shard's writer failed and was not (or could not be) recovered yet;
    /// the serving layer fails queries routed at such shards fast with
    /// `ServiceError::ShardUnavailable` instead of letting them hang. See
    /// [`ShardHealth`] for how shards degrade and recover.
    pub fn shard_health(&self) -> Vec<ShardHealth> {
        self.health
            .iter()
            .map(|h| {
                // ORDERING: Acquire pairs with the Release stores in
                // `mark_degraded` / `recover_and_serve`: observing a health
                // transition also observes the shard state it published.
                if h.load(Ordering::Acquire) == HEALTH_DEGRADED {
                    ShardHealth::Degraded
                } else {
                    ShardHealth::Healthy
                }
            })
            .collect()
    }

    /// Per-shard record of why the most recent writer recovery attempt
    /// failed (diagnostic). `None` for a shard that is healthy or never
    /// failed; `Some(reason)` distinguishes journal corruption from
    /// transient I/O, a missing manifest, an exhausted respawn budget, or a
    /// failed rotation — so a persistently `Degraded` shard is explainable
    /// instead of silent. Cleared when a recovery succeeds.
    pub fn shard_recovery_errors(&self) -> Vec<Option<String>> {
        self.recovery_errors
            .iter()
            .map(|slot| slot.lock().expect("recovery error slot poisoned").clone())
            .collect()
    }

    /// Per-shard count of writer respawns since construction (diagnostic).
    /// Once a shard's count passes [`MAX_WRITER_RESPAWNS`] it stays
    /// `Degraded` permanently; see
    /// [`shard_recovery_errors`](Self::shard_recovery_errors) for the
    /// recorded reason.
    pub fn shard_respawn_counts(&self) -> Vec<u32> {
        self.respawn_attempts
            .iter()
            // ORDERING: Relaxed — a monotone diagnostic counter; readers
            // need no ordering with the writer state it counts.
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Index of the first degraded shard, if any (crate-internal shorthand
    /// for the snapshot and serving layers).
    pub(crate) fn first_degraded_shard(&self) -> Option<usize> {
        self.shard_health()
            .iter()
            .position(|h| *h == ShardHealth::Degraded)
    }

    /// A shared read view of the health board for the serving layer.
    pub(crate) fn health_board(&self) -> HealthBoard {
        HealthBoard {
            slots: self.health.clone(),
        }
    }

    /// Shared supervision state (respawn counters + recovery-error slots)
    /// for the serving layer's [`health`](crate::ServiceClient::health)
    /// report: clients hold the `Arc`s directly so the report stays
    /// readable after the service drops.
    #[allow(clippy::type_complexity)]
    pub(crate) fn supervision_state(
        &self,
    ) -> (Arc<Vec<AtomicU32>>, Arc<Vec<Mutex<Option<String>>>>) {
        (self.respawn_attempts.clone(), self.recovery_errors.clone())
    }

    /// The journal directory when this service is durable.
    pub(crate) fn durable_dir(&self) -> Option<&Path> {
        self.durable.as_ref().map(|d| d.dir.as_path())
    }

    /// Parks every writer at a snapshot fence and returns once all have
    /// acknowledged: each writer has finished its aggregations, synced its
    /// journal, and blocks until [`WriterFence::release`] delivers the
    /// snapshot verdict. Used by `snapshot_to_dir` to make journal rotation
    /// atomic with the snapshot (see the `journal` module docs).
    pub(crate) fn fence_writers(&self) -> WriterFence {
        fence_writers_on(&self.handle.senders())
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The configuration this service was built (or restored) with — handy
    /// for wrapping a restored or durable service in a
    /// [`HiggsService`](crate::HiggsService) without re-threading the config
    /// through the call site.
    pub fn config(&self) -> &HiggsConfig {
        &self.config
    }

    /// A cloneable ingest endpoint usable from other threads while this
    /// summary concurrently serves queries.
    pub fn ingest_handle(&self) -> IngestHandle {
        self.handle.clone()
    }

    /// Blocks until every mutation enqueued so far (through the trait
    /// surface or any [`IngestHandle`]) is applied and aggregated.
    pub fn flush(&self) {
        self.handle.flush();
    }

    fn read_shard(&self, shard: usize) -> RwLockReadGuard<'_, HiggsSummary> {
        self.shards[shard].read().expect("shard lock poisoned")
    }

    /// Total number of stream items currently held (inserted minus deleted),
    /// after making enqueued mutations visible.
    pub fn total_items(&self) -> u64 {
        self.handle.ensure_visible();
        self.shards
            .iter()
            .enumerate()
            .map(|(s, _)| self.read_shard(s).total_items())
            .sum()
    }

    /// Number of query plans (Algorithm-3 boundary searches) built across
    /// all shards. The per-shard plan-sharing executor guarantees a batch
    /// adds at most `distinct ranges × shards touched` to this counter.
    pub fn plans_built(&self) -> u64 {
        self.shards
            .iter()
            .enumerate()
            .map(|(s, _)| self.read_shard(s).plans_built())
            .sum()
    }

    /// Resets the plan counter on every shard (diagnostic hook).
    pub fn reset_plan_count(&self) {
        for s in 0..self.shards.len() {
            self.read_shard(s).reset_plan_count();
        }
    }

    /// Switches the service into load-shedding teardown: every mutation
    /// still queued (and any enqueued afterwards) is dropped unapplied, so a
    /// subsequent drop terminates without working off the backlog.
    ///
    /// This exists for benchmarks and tests that measure the ingest-path
    /// (enqueue) cost in isolation and then abandon the instance, and for
    /// emergency shedding; it is irreversible and leaves query results
    /// reflecting only the mutations applied before the call.
    pub fn discard_pending(&self) {
        // ORDERING: Release pairs with the writers' Acquire load of the
        // flag (see the serve loop), publishing the caller's state before
        // shedding becomes observable.
        self.discard.store(true, Ordering::Release);
    }

    /// Per-shard leaf counts (diagnostic: shows how evenly the stream's
    /// sources spread over the shards).
    pub fn shard_leaf_counts(&self) -> Vec<usize> {
        self.handle.ensure_visible();
        (0..self.shards.len())
            .map(|s| self.read_shard(s).leaf_count())
            .collect()
    }

    /// Resumes the global mutation sequence counter at `next`
    /// (construction-time, when an elastic directory already holds stamped
    /// history: new mutations must stamp above everything on disk).
    pub(crate) fn resume_seq(&self, next: u64) {
        // ORDERING: Relaxed — called before any producer thread exists; the
        // handle that carries the counter has not been cloned out yet.
        self.handle.seq.store(next, Ordering::Relaxed);
    }

    /// **Online reshard**: changes the shard count of a live elastic service
    /// to `new_shards` without dropping an acknowledged mutation.
    ///
    /// The protocol, in order:
    ///
    /// 1. New sends are blocked (the ingest router's write lock); commands
    ///    already queued are FIFO-ahead of the fence and therefore included.
    /// 2. Every writer parks at the snapshot fence: aggregations finished,
    ///    journals and history logs synced.
    /// 3. The full mutation history is re-read and folded through
    ///    [`shard_of`] at the new width into fresh summaries.
    /// 4. A snapshot of the folded summaries is committed (manifest written
    ///    last) — this is the atomic commit point. A crash before it leaves
    ///    the old layout intact; a crash after it recovers at the new width.
    /// 5. Journals are re-armed stamped with the new manifest and history
    ///    logs opened at the next generation; the old writer fleet is
    ///    released and retired, a new fleet takes over those logs, and the
    ///    router swaps to the new senders.
    ///
    /// Surviving [`IngestHandle`] clones keep working across the swap — the
    /// sequence counter and flush clock carry over, only the routing table
    /// changes. On a **pre-commit** failure the service resumes unchanged
    /// (the error is returned, nothing was retired). On a **post-commit**
    /// failure (the new fleet could not be armed) every shard is marked
    /// degraded and the service must be reopened from the directory, which
    /// recovers at the new width.
    ///
    /// Requires elastic history
    /// ([`StoreOptions::elastic`](crate::StoreOptions::elastic)); fails with
    /// [`ReshardError::HistoryUnavailable`] otherwise, and
    /// [`ReshardError::Degraded`] when any shard is degraded (its
    /// unrecovered mutations may be missing from history).
    pub fn reshard(&mut self, new_shards: usize) -> Result<(), ReshardError> {
        if new_shards == 0 || new_shards > MAX_SHARDS {
            return Err(ReshardError::InvalidShardCount {
                requested: new_shards,
            });
        }
        let durable = self
            .durable
            .clone()
            .ok_or_else(|| ReshardError::HistoryUnavailable {
                detail: "service is not durable (journaling off): no elastic history to refold"
                    .into(),
            })?;
        let old_gen = durable
            .history_gen
            .ok_or_else(|| ReshardError::HistoryUnavailable {
                detail: "service was opened without elastic history (StoreOptions::elastic)".into(),
            })?;
        if let Some(shard) = self.first_degraded_shard() {
            return Err(ReshardError::Degraded { shard });
        }
        // 1. Block new sends for the duration of the swap. Local clone of the
        // router Arc so the guard does not borrow `self`.
        let router = self.handle.router.clone();
        let mut senders_guard = router.write().expect("router lock poisoned");
        // 2. Fence the fleet: by the first ready ack every writer has
        // recorded and applied everything acknowledged before the lock.
        let fence = fence_writers_on(&senders_guard);
        // A writer may have failed between the pre-check and the fence.
        if let Some(shard) = self.first_degraded_shard() {
            fence.release(None);
            return Err(ReshardError::Degraded { shard });
        }
        // 3.–5. Fold history at the new width, commit the snapshot and arm
        // the next generation. The parked fleet writes nothing more, so its
        // journals can be re-armed under it. Release with "keep the
        // journals" either way: the retiring writers must not rotate
        // against the new manifest.
        let mut new_config = self.config;
        new_config.shards = new_shards;
        let refold = crate::reshard::refold(&durable.dir, &new_config, durable.mode, old_gen + 1);
        fence.release(None);
        let refold = match refold {
            Ok(refold) => refold,
            // Pre-commit: the old fleet resumes unchanged.
            Err(RefoldError::Uncommitted(e)) => return Err(e),
            Err(RefoldError::Committed(e)) => {
                // The directory has already moved to the new width, so the
                // live service cannot roll back: park it degraded and let a
                // reopen recover.
                self.retire_writers(&mut senders_guard);
                for slot in self.health.iter() {
                    // ORDERING: Release — pairs with the Acquire loads in
                    // `shard_health`; see `mark_degraded`.
                    slot.store(HEALTH_DEGRADED, Ordering::Release);
                }
                return Err(e);
            }
        };
        self.retire_writers(&mut senders_guard);
        let set = spawn_writer_set(
            new_config,
            &refold.shards,
            Some(refold.durable.clone()),
            refold.logs.into_iter().map(Some).collect(),
            self.discard.clone(),
            &self.census,
        );
        *senders_guard = set.senders;
        self.shards = refold.shards;
        self.writers = set.writers;
        self.health = set.health;
        self.respawned = set.respawned;
        self.respawn_attempts = set.respawn_attempts;
        self.recovery_errors = set.recovery_errors;
        self.durable = Some(refold.durable);
        self.config = new_config;
        drop(senders_guard);
        Ok(())
    }

    /// Retires the current writer fleet: a Shutdown marker (FIFO: behind
    /// everything already enqueued) ends each writer loop even when
    /// surviving [`IngestHandle`] clones keep the channels open, and every
    /// writer is joined. `senders` is the router's table, taken under its
    /// write lock and left empty.
    fn retire_writers(&mut self, senders: &mut Vec<Sender<ShardCommand>>) {
        for sender in senders.iter() {
            let _ = sender.send(ShardCommand::Shutdown);
        }
        senders.clear();
        for writer in self.writers.drain(..) {
            let _ = writer.join();
        }
        // Respawned recovery writers consume the same queues, so the
        // Shutdown markers end them too; a respawning writer registers its
        // replacement before exiting, so once a generation is joined any
        // successor is already visible here.
        loop {
            let drained: Vec<JoinHandle<()>> = {
                let mut registry = self.respawned.lock().expect("respawn registry poisoned");
                registry.drain(..).collect()
            };
            if drained.is_empty() {
                break;
            }
            for writer in drained {
                let _ = writer.join();
            }
        }
    }
}

/// Parks the given writer fleet at a fence (see
/// [`ShardedHiggs::fence_writers`], which fences the live fleet through the
/// router's read lock). The online reshard calls this directly with the
/// senders it already holds under the router's **write** lock — taking the
/// read-locking method there would self-deadlock.
fn fence_writers_on(senders: &[Sender<ShardCommand>]) -> WriterFence {
    let (ready_tx, ready_rx) = unbounded::<()>();
    let mut resume_txs = Vec::with_capacity(senders.len());
    let mut expected = 0usize;
    for sender in senders {
        let (resume_tx, resume_rx) = bounded::<Option<u64>>(1);
        if sender
            .send(ShardCommand::Fence {
                ready: ready_tx.clone(),
                resume: resume_rx,
            })
            .is_ok()
        {
            expected += 1;
            resume_txs.push(resume_tx);
        }
    }
    drop(ready_tx);
    for _ in 0..expected {
        if ready_rx.recv().is_err() {
            break; // a writer exited; it cannot hold a lock either
        }
    }
    WriterFence {
        resume_txs,
        ready_rx,
        expected,
        released: false,
    }
}

/// RAII handle over writers parked at a snapshot fence (see
/// [`ShardedHiggs::fence_writers`]). Dropping without
/// [`release`](Self::release) resumes the writers with a `false` verdict
/// (journals kept), so an early-error path in the snapshot code can never
/// leave writers parked forever.
pub(crate) struct WriterFence {
    resume_txs: Vec<Sender<Option<u64>>>,
    ready_rx: Receiver<()>,
    expected: usize,
    released: bool,
}

impl WriterFence {
    /// Resumes every fenced writer and blocks until each has acted on the
    /// verdict. `Some(checksum)` reports a successful snapshot: each shard's
    /// journal is truncated and stamped with the new manifest's checksum
    /// before this returns. `None` keeps every journal intact.
    pub(crate) fn release(mut self, covering: Option<u64>) {
        for tx in &self.resume_txs {
            let _ = tx.send(covering);
        }
        // Synchronous rotation: wait for every writer's completion ack. A
        // writer that died mid-fence drops its sender, which surfaces here
        // as a disconnect once the live acks are drained — never a hang.
        for _ in 0..self.expected {
            if self.ready_rx.recv().is_err() {
                break;
            }
        }
        self.released = true;
    }
}

impl Drop for WriterFence {
    fn drop(&mut self) {
        if !self.released {
            // Resume with "keep the journals" and do not wait: this is the
            // early-error path; writers unpark on their own.
            for tx in &self.resume_txs {
                let _ = tx.send(None);
            }
        }
    }
}

impl Drop for ShardedHiggs {
    fn drop(&mut self) {
        // Relying on channel disconnection alone would deadlock the joins
        // while an IngestHandle clone is still alive.
        let router = self.handle.router.clone();
        let mut senders = router.write().expect("router lock poisoned");
        self.retire_writers(&mut senders);
    }
}

impl TemporalGraphSummary for ShardedHiggs {
    fn insert(&mut self, edge: &StreamEdge) {
        // Writers cannot be gone while `self` is alive; the only possible
        // error is Rejected after `discard_pending`, where dropping the
        // mutation is exactly the contract.
        let _ = self.handle.insert(edge);
    }

    fn insert_all(&mut self, edges: &[StreamEdge]) {
        let _ = self.handle.insert_all(edges);
    }

    fn delete(&mut self, edge: &StreamEdge) {
        let _ = self.handle.delete(edge);
    }

    fn edge_query(&self, src: VertexId, dst: VertexId, range: TimeRange) -> Weight {
        self.handle.ensure_visible();
        self.read_shard(shard_of(src, self.shards.len()))
            .edge_query(src, dst, range)
    }

    fn vertex_query(
        &self,
        vertex: VertexId,
        direction: VertexDirection,
        range: TimeRange,
    ) -> Weight {
        self.handle.ensure_visible();
        match direction {
            VertexDirection::Out => self
                .read_shard(shard_of(vertex, self.shards.len()))
                .vertex_query(vertex, direction, range),
            VertexDirection::In => (0..self.shards.len())
                .map(|s| self.read_shard(s).vertex_query(vertex, direction, range))
                .sum(),
        }
    }

    fn query(&self, query: &Query) -> Weight {
        self.query_batch(std::slice::from_ref(query))[0]
    }

    fn query_batch(&self, queries: &[Query]) -> Vec<Weight> {
        self.handle.ensure_visible();
        let plan = ShardPlan::build(queries, self.shards.len());
        // One read lock per shard, taken and released sequentially; each
        // shard runs its sub-batch through the plan-sharing executor, so the
        // whole batch costs at most one boundary search per distinct range
        // per shard.
        let per_shard: Vec<Vec<Weight>> = (0..self.shards.len())
            .map(|s| {
                let sub = plan.sub_batch(s);
                if sub.is_empty() {
                    Vec::new()
                } else {
                    self.read_shard(s).query_batch(sub)
                }
            })
            .collect();
        plan.gather(&per_shard)
    }

    fn space_bytes(&self) -> usize {
        self.handle.ensure_visible();
        (0..self.shards.len())
            .map(|s| self.read_shard(s).space_bytes())
            .sum()
    }

    fn name(&self) -> &'static str {
        "HIGGS-sharded"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Store, StoreOptions};
    use crate::tree::HiggsSummary;
    use higgs_common::QueryBatch;

    fn config(shards: usize) -> HiggsConfig {
        HiggsConfig::builder()
            .shards(shards)
            .build()
            .expect("valid test configuration")
    }

    fn edges(n: u64) -> Vec<StreamEdge> {
        (0..n)
            .map(|i| StreamEdge::new(i % 200, (i * 13) % 200, 1 + i % 4, i / 2))
            .collect()
    }

    fn mixed_batch(span: u64) -> Vec<Query> {
        let a = TimeRange::new(0, span / 2);
        let b = TimeRange::new(span / 4, span);
        vec![
            Query::edge(1, 13, a),
            Query::edge(5, 65, b),
            Query::vertex(7, VertexDirection::Out, a),
            Query::vertex(7, VertexDirection::In, a),
            Query::vertex(91, VertexDirection::In, b),
            Query::path(vec![1, 13, 169, 197], a),
            Query::subgraph(vec![(2, 26), (3, 39), (4, 52)], b),
        ]
    }

    #[test]
    fn sharded_matches_single_summary_on_all_query_kinds() {
        let stream = edges(5_000);
        let mut single = HiggsSummary::new(config(1));
        single.insert_all(&stream);
        for shards in [1usize, 2, 3, 4, 8] {
            let mut sharded = ShardedHiggs::new(config(shards));
            sharded.insert_all(&stream);
            let batch = mixed_batch(2_500);
            assert_eq!(
                sharded.query_batch(&batch),
                single.query_batch(&batch),
                "{shards} shards diverged on the batch surface"
            );
            for q in &batch {
                assert_eq!(sharded.query(q), single.query(q), "{shards} shards, {q:?}");
            }
            assert_eq!(sharded.total_items(), single.total_items());
        }
    }

    #[test]
    fn per_edge_trait_insert_matches_batched_ingest() {
        let stream = edges(2_000);
        let mut a = ShardedHiggs::new(config(4));
        let mut b = ShardedHiggs::new(config(4));
        for e in &stream {
            a.insert(e);
        }
        b.insert_all(&stream);
        let batch = mixed_batch(1_000);
        assert_eq!(a.query_batch(&batch), b.query_batch(&batch));
        assert_eq!(a.total_items(), b.total_items());
    }

    #[test]
    fn deletes_route_to_the_inserting_shard() {
        let stream = edges(3_000);
        let mut single = HiggsSummary::new(config(1));
        let mut sharded = ShardedHiggs::new(config(4));
        single.insert_all(&stream);
        sharded.insert_all(&stream);
        for e in stream.iter().step_by(7) {
            single.delete(e);
            sharded.delete(e);
        }
        let batch = mixed_batch(1_500);
        assert_eq!(sharded.query_batch(&batch), single.query_batch(&batch));
        assert_eq!(sharded.total_items(), single.total_items());
    }

    #[test]
    fn queries_are_read_your_writes_without_explicit_flush() {
        let mut sharded = ShardedHiggs::new(config(4));
        sharded.insert(&StreamEdge::new(1, 2, 5, 10));
        // No flush: the very next query must already see the edge.
        assert_eq!(sharded.edge_query(1, 2, TimeRange::all()), 5);
        sharded.insert(&StreamEdge::new(1, 2, 3, 11));
        assert_eq!(
            sharded.vertex_query(1, VertexDirection::Out, TimeRange::all()),
            8
        );
        assert_eq!(
            sharded.vertex_query(2, VertexDirection::In, TimeRange::all()),
            8
        );
    }

    #[test]
    fn batch_costs_at_most_one_plan_per_range_per_shard() {
        let mut sharded = ShardedHiggs::new(config(4));
        sharded.insert_all(&edges(4_000));
        let batch: QueryBatch = mixed_batch(2_000).into_iter().collect();
        sharded.flush();
        sharded.reset_plan_count();
        let _ = sharded.query_batch(batch.queries());
        let plans = sharded.plans_built();
        assert!(
            plans <= (batch.distinct_ranges() * sharded.num_shards()) as u64,
            "{plans} plans for {} ranges over {} shards",
            batch.distinct_ranges(),
            sharded.num_shards()
        );
        assert!(plans > 0);
    }

    #[test]
    fn ingest_handle_feeds_queries_from_another_thread() {
        let sharded = ShardedHiggs::new(config(2));
        let handle = sharded.ingest_handle();
        let stream = edges(2_000);
        let ingest_stream = stream.clone();
        std::thread::scope(|scope| {
            let producer = scope.spawn(move || {
                for e in &ingest_stream {
                    assert!(handle.insert(e).is_ok());
                }
            });
            // Concurrent reads are allowed mid-ingest (they observe a prefix).
            let _ = sharded.edge_query(0, 0, TimeRange::all());
            producer.join().expect("producer panicked");
        });
        sharded.flush();
        let mut single = HiggsSummary::new(config(1));
        single.insert_all(&stream);
        let batch = mixed_batch(1_000);
        assert_eq!(sharded.query_batch(&batch), single.query_batch(&batch));
    }

    #[test]
    fn stream_spreads_over_shards() {
        let mut sharded = ShardedHiggs::new(config(4));
        sharded.insert_all(&edges(8_000));
        let leaves = sharded.shard_leaf_counts();
        assert_eq!(leaves.len(), 4);
        assert!(
            leaves.iter().all(|&l| l > 0),
            "every shard must own part of the stream: {leaves:?}"
        );
    }

    #[test]
    fn flush_is_idempotent_and_drop_mid_stream_terminates() {
        let mut sharded = ShardedHiggs::new(config(4));
        sharded.insert_all(&edges(4_000));
        sharded.flush();
        sharded.flush();
        assert_eq!(sharded.total_items(), 4_000);
        // Drop with freshly enqueued, unflushed work: must terminate.
        sharded.insert_all(&edges(2_000));
    }

    #[test]
    fn drop_terminates_while_an_ingest_handle_clone_is_still_alive() {
        // Regression test: a surviving IngestHandle keeps the command
        // channels open, so teardown must not rely on channel disconnection
        // to stop the writers — the Shutdown marker has to end them, and
        // later sends on the orphaned handle must fail gracefully.
        let mut sharded = ShardedHiggs::new(config(2));
        sharded.insert(&StreamEdge::new(1, 2, 5, 1));
        let handle = sharded.ingest_handle();
        drop(sharded); // must join writers despite `handle` being alive
        assert_eq!(
            handle.insert(&StreamEdge::new(3, 4, 1, 2)),
            Err(IngestError::Shutdown),
            "sends on a shut-down service must report the typed failure"
        );
        assert_eq!(
            handle.delete(&StreamEdge::new(3, 4, 1, 2)),
            Err(IngestError::Shutdown)
        );
        assert_eq!(
            handle.insert_all(&edges(600)),
            Err(IngestError::Shutdown),
            "bulk routing must stop at the first dead shard"
        );
        assert_eq!(
            handle.try_insert(&StreamEdge::new(3, 4, 1, 2)),
            Err(IngestError::Shutdown)
        );
        handle.flush(); // must not hang either
    }

    #[test]
    fn discard_pending_sheds_backlog_and_still_terminates() {
        let mut sharded = ShardedHiggs::new(config(4));
        sharded.insert(&StreamEdge::new(1, 2, 5, 1));
        sharded.flush();
        sharded.discard_pending();
        sharded.insert_all(&edges(2_000)); // shed, never applied
        sharded.flush(); // must not hang: discarded flushes unblock by drop
        assert_eq!(sharded.edge_query(1, 2, TimeRange::all()), 5);
        // The fallible handle surface reports shedding as a typed rejection
        // instead of silently dropping.
        let handle = sharded.ingest_handle();
        let e = StreamEdge::new(9, 9, 1, 9);
        assert_eq!(handle.insert(&e), Err(IngestError::Rejected));
        assert_eq!(handle.try_insert(&e), Err(IngestError::Rejected));
        assert_eq!(handle.delete(&e), Err(IngestError::Rejected));
        assert_eq!(handle.try_delete(&e), Err(IngestError::Rejected));
        assert_eq!(handle.insert_all(&edges(10)), Err(IngestError::Rejected));
        // Drop must terminate without working off the discarded backlog.
    }

    #[test]
    fn try_insert_reports_queue_full_under_a_stalled_writer() {
        let bounded_config = HiggsConfig::builder()
            .shards(1)
            .ingest_queue_cap(1)
            .build()
            .expect("valid bounded configuration");
        let sharded = ShardedHiggs::new(bounded_config);
        let handle = sharded.ingest_handle();
        let e = StreamEdge::new(1, 2, 1, 1);
        // Stall the single shard's writer by holding its write lock: the
        // writer can dequeue at most one in-flight command before blocking
        // on the lock, so the 1-slot queue must fill within a few sends.
        let stall = sharded.shards[0].write().expect("shard lock poisoned");
        let mut accepted = 0usize;
        let mut saw_full = false;
        for _ in 0..64 {
            match handle.try_insert(&e) {
                Ok(()) => accepted += 1,
                Err(IngestError::QueueFull) => {
                    saw_full = true;
                    break;
                }
                Err(other) => panic!("unexpected ingest error: {other}"),
            }
        }
        assert!(saw_full, "a stalled 1-slot queue must report QueueFull");
        assert!(accepted >= 1, "the free slot must accept a send first");
        drop(stall);
        // Backpressure is transient: once the writer drains, sends succeed
        // again and everything accepted lands.
        handle.flush();
        assert!(handle.try_insert(&e).is_ok());
        sharded.flush();
        assert_eq!(sharded.total_items(), accepted as u64 + 1);
        // try_delete shares the same non-blocking path; on the drained
        // queue it must enqueue rather than report backpressure.
        assert_eq!(handle.try_delete(&e), Ok(()));
    }

    fn durable_config(shards: usize, mode: JournalMode) -> HiggsConfig {
        HiggsConfig::builder()
            .shards(shards)
            .journal_mode(mode)
            .build()
            .expect("valid durable test configuration")
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "higgs-shard-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn every_shard_starts_healthy() {
        let sharded = ShardedHiggs::new(config(4));
        assert_eq!(sharded.shard_health(), vec![ShardHealth::Healthy; 4]);
        assert!(sharded.first_degraded_shard().is_none());
        assert!(
            sharded.durable_dir().is_none(),
            "plain services never journal"
        );
    }

    #[test]
    fn durable_service_replays_its_journal_after_an_unclean_stop() {
        let dir = temp_dir("replay");
        let stream = edges(2_000);
        let cfg = durable_config(3, JournalMode::Buffered);
        {
            let mut sharded =
                Store::open(StoreOptions::durable(cfg, &dir)).expect("durable service");
            assert_eq!(sharded.durable_dir(), Some(dir.as_path()));
            sharded.insert_all(&stream);
            for e in stream.iter().step_by(9) {
                sharded.delete(e);
            }
            sharded.flush();
            // Drop without ever snapshotting: the journal is the only record.
        }
        let recovered = Store::open(StoreOptions::durable(cfg, &dir)).expect("recovery");
        let mut control = HiggsSummary::new(config(1));
        control.insert_all(&stream);
        for e in stream.iter().step_by(9) {
            control.delete(e);
        }
        let batch = mixed_batch(1_000);
        assert_eq!(recovered.query_batch(&batch), control.query_batch(&batch));
        assert_eq!(recovered.total_items(), control.total_items());
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_mode_off_keeps_the_directory_empty_of_journals() {
        let dir = temp_dir("off");
        let cfg = durable_config(2, JournalMode::Off);
        {
            let mut sharded =
                Store::open(StoreOptions::durable(cfg, &dir)).expect("durable service");
            assert!(sharded.durable_dir().is_none(), "Off mode arms no journal");
            sharded.insert(&StreamEdge::new(1, 2, 5, 10));
            sharded.flush();
        }
        // Nothing was journaled, so a restart starts empty.
        let recovered = Store::open(StoreOptions::durable(cfg, &dir)).expect("recovery");
        assert_eq!(recovered.total_items(), 0);
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_recovery_rejects_a_mismatched_shard_count() {
        let dir = temp_dir("mismatch");
        {
            let sharded = Store::open(StoreOptions::durable(
                durable_config(2, JournalMode::Buffered),
                &dir,
            ))
            .expect("durable service");
            sharded
                .snapshot_to_dir(&dir)
                .expect("snapshot of an empty durable service");
        }
        let err = Store::open(StoreOptions::durable(
            durable_config(4, JournalMode::Buffered),
            &dir,
        ))
        .map(|_| ())
        .expect_err("shard count mismatch must be rejected");
        assert!(
            err.to_string().contains("shard count mismatch"),
            "unexpected error: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ingest_error_messages_name_the_cause() {
        for (err, needle) in [
            (IngestError::QueueFull, "queue full"),
            (IngestError::Shutdown, "shut down"),
            (IngestError::Rejected, "rejected"),
        ] {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
        }
        // The enum is a std error so callers can box and propagate it.
        let boxed: Box<dyn std::error::Error> = Box::new(IngestError::QueueFull);
        assert!(boxed.to_string().contains("backpressure"));
    }

    #[test]
    fn service_is_send_and_sync_for_shared_serving() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedHiggs>();
        assert_send_sync::<IngestHandle>();
    }

    #[test]
    fn invalid_shard_count_is_rejected() {
        let mut bad = HiggsConfig::paper_default();
        bad.shards = 0;
        assert!(matches!(
            ShardedHiggs::try_new(bad).map(|_| ()),
            Err(ConfigError::InvalidShardCount { shards: 0 })
        ));
        bad.shards = MAX_SHARDS + 1;
        assert!(ShardedHiggs::try_new(bad).is_err());
    }

    #[test]
    fn name_and_space() {
        let mut s = ShardedHiggs::new(config(2));
        assert_eq!(s.name(), "HIGGS-sharded");
        assert_eq!(s.num_shards(), 2);
        s.insert(&StreamEdge::new(1, 2, 1, 1));
        assert!(s.space_bytes() > 0);
    }

    #[test]
    fn bounded_ingest_queue_applies_backpressure_transparently() {
        // A tiny queue cap forces the producer to block on nearly every
        // command; results and teardown must be indistinguishable from the
        // unbounded service.
        let stream = edges(3_000);
        let bounded_config = HiggsConfig::builder()
            .shards(4)
            .ingest_queue_cap(2)
            .build()
            .expect("valid bounded configuration");
        let mut throttled = ShardedHiggs::new(bounded_config);
        let mut unbounded_svc = ShardedHiggs::new(config(4));
        throttled.insert_all(&stream);
        unbounded_svc.insert_all(&stream);
        for e in stream.iter().step_by(11) {
            throttled.delete(e);
            unbounded_svc.delete(e);
        }
        let batch = mixed_batch(1_500);
        assert_eq!(
            throttled.query_batch(&batch),
            unbounded_svc.query_batch(&batch)
        );
        assert_eq!(throttled.total_items(), unbounded_svc.total_items());
        // Drop with a full queue must still terminate (Shutdown may block
        // briefly until the writer drains, never forever).
        throttled.insert_all(&edges(500));
    }

    #[test]
    fn bounded_ingest_producer_blocks_but_stream_lands_intact() {
        // One ordered producer pushes through a 4-command queue while the
        // main thread serves queries (forcing writer/reader lock contention
        // that keeps the queue full): every send must block rather than
        // fail, and the fully flushed service must match a single summary.
        let stream = edges(2_000);
        let bounded_config = HiggsConfig::builder()
            .shards(2)
            .ingest_queue_cap(4)
            .build()
            .expect("valid bounded configuration");
        let sharded = ShardedHiggs::new(bounded_config);
        let handle = sharded.ingest_handle();
        let ingest_stream = stream.clone();
        std::thread::scope(|scope| {
            let producer = scope.spawn(move || {
                for e in &ingest_stream {
                    assert!(handle.insert(e).is_ok(), "send must block, never fail");
                }
            });
            // Concurrent reads are allowed mid-ingest (they observe a
            // per-shard prefix).
            for v in 0..20u64 {
                let _ = sharded.edge_query(v, (v * 13) % 200, TimeRange::all());
            }
            producer.join().expect("producer panicked");
        });
        sharded.flush();
        let mut single = HiggsSummary::new(config(1));
        single.insert_all(&stream);
        let batch = mixed_batch(1_000);
        assert_eq!(sharded.query_batch(&batch), single.query_batch(&batch));
    }

    #[test]
    fn warm_repeated_batch_builds_zero_plans_across_shards() {
        // The cross-batch plan cache works per shard: re-submitting the same
        // windows with no intervening mutation must not run a single
        // boundary search anywhere in the service.
        let mut sharded = ShardedHiggs::new(config(4));
        sharded.insert_all(&edges(4_000));
        sharded.flush();
        let batch = mixed_batch(2_000);
        let first = sharded.query_batch(&batch);
        sharded.reset_plan_count();
        let second = sharded.query_batch(&batch);
        assert_eq!(sharded.plans_built(), 0, "warm batch must skip planning");
        assert_eq!(first, second);
        // A mutation invalidates: the next batch plans again.
        sharded.insert(&StreamEdge::new(1, 2, 1, 999));
        sharded.reset_plan_count();
        let _ = sharded.query_batch(&batch);
        assert!(sharded.plans_built() > 0, "mutation must invalidate caches");
    }
}
