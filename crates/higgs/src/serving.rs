//! Multi-client serving front-end: [`HiggsService`] and the [`ServiceClient`]
//! API.
//!
//! [`ShardedHiggs`] amortises plans and probes across one *batch*, but every
//! caller that holds its own handle still submits its own batches — two
//! clients asking for the same window in the same instant pay for two
//! boundary searches per shard. This module closes that gap with a classic
//! batch-admission design:
//!
//! * **Submission queue.** Every [`ServiceClient`] clone pushes submissions
//!   into one shared queue (bounded by
//!   [`service_queue_depth`](crate::HiggsConfigBuilder::service_queue_depth),
//!   unbounded by default). Submission is non-blocking: when the queue is
//!   full the ticket completes immediately with
//!   [`ServiceError::Overloaded`] — explicit backpressure, never a silent
//!   stall.
//! * **Admission ticks.** A dedicated admission thread blocks for the first
//!   queued submission, optionally holds the tick open for
//!   [`admission_tick`](crate::HiggsConfigBuilder::admission_tick) so
//!   concurrent clients can land in the same tick, then drains whatever else
//!   is queued. Everything admitted in one tick forms one coalesced batch.
//! * **Coalesced evaluation.** Per priority class, the tick's queries are
//!   concatenated into a single [`ShardPlan`] and evaluated as **one**
//!   columnar `query_batch` per shard on a per-shard worker (the per-shard
//!   request queues), so cross-client duplicate windows cost one boundary
//!   search per shard — and zero when the shard's plan cache is warm. The
//!   workers run concurrently, unlike the sequential per-shard loop of a
//!   direct [`ShardedHiggs::query_batch`] call.
//! * **Reply futures.** Each submission carries a oneshot completion channel
//!   (`reactor::oneshot`); the returned [`Ticket`] / [`BatchTicket`] blocks
//!   on it. Every ticket resolves — with a result or a typed
//!   [`ServiceError`] — even when the service shuts down mid-flight.
//!
//! **Deadlines and priorities.** Within a tick, submissions are grouped by
//! [`Priority`] and the classes are evaluated strictly in order
//! `Interactive`, `Normal`, `Bulk`. A submission whose
//! [`QueryOptions::deadline`] elapsed while it queued completes with
//! [`ServiceError::DeadlineExceeded`] instead of being evaluated.
//! [`Consistency::ReadYourWrites`] submissions trigger at most one ingest
//! flush per class per tick; an interactive class consisting solely of
//! [`Consistency::Relaxed`] submissions skips the flush entirely — that is
//! how latency-sensitive queries jump ahead of ingest flushes.
//!
//! **Fault tolerance.** A class routed at a shard whose writer is
//! [`Degraded`](crate::ShardHealth) fails fast with
//! [`ServiceError::ShardUnavailable`] instead of hanging on the dead
//! writer's flush. The blocking client calls
//! ([`ServiceClient::query_with`], [`ServiceClient::query_batch_with`])
//! retry transient failures — overload and degraded shards — under the
//! submission's [`QueryOptions::retry`] policy with exponential backoff.
//!
//! See the crate docs' *Serving & admission control* section for the client
//! migration table from the old three-handle surface.

use crate::config::{ConfigError, HiggsConfig};
use crate::replica::{Follower, ReplicationLag};
use crate::shard::{HealthBoard, IngestError, IngestHandle, ShardedHiggs};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use higgs_common::{
    Consistency, Priority, Query, QueryOptions, RetryPolicy, ShardPlan, StreamEdge,
    TemporalGraphSummary, Weight,
};
use reactor::oneshot::{completion, Completer, Waiter};
use std::sync::atomic::AtomicU32;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a submitted query completed without a result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The service shut down before the submission was evaluated (or the
    /// submission was sent to an already-dropped service). Terminal.
    Shutdown,
    /// The submission's [`QueryOptions::deadline`] elapsed while it was
    /// queued for admission; it was never evaluated.
    DeadlineExceeded,
    /// Backpressure: the bounded submission queue (see
    /// [`service_queue_depth`](crate::HiggsConfigBuilder::service_queue_depth))
    /// was full at submission time. Retrying later can succeed.
    Overloaded,
    /// A shard this query routes to is [`Degraded`](crate::ShardHealth):
    /// its writer crashed and has not been recovered yet. The class fails
    /// fast instead of reading a shard whose state may be behind its
    /// acknowledged writes. Durable services respawn the writer from
    /// snapshot + journal replay, so retrying (see [`QueryOptions::retry`])
    /// usually succeeds once recovery completes.
    ShardUnavailable,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Shutdown => write!(f, "service shut down before the query completed"),
            ServiceError::DeadlineExceeded => {
                write!(
                    f,
                    "deadline exceeded while the query was queued for admission"
                )
            }
            ServiceError::Overloaded => {
                write!(
                    f,
                    "service overloaded: submission queue is full (backpressure)"
                )
            }
            ServiceError::ShardUnavailable => {
                write!(
                    f,
                    "shard unavailable: a shard this query routes to is degraded \
                     pending writer recovery"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// Outcome type carried by reply futures.
type Reply = Result<Vec<Weight>, ServiceError>;

/// One admitted unit of work: the client's queries plus everything the
/// admission loop needs to schedule and answer them.
struct Submission {
    queries: Vec<Query>,
    options: QueryOptions,
    /// Stamped at submission time; deadlines are measured from here.
    submitted: Instant,
    reply: Completer<Reply>,
}

/// What clients push into the submission queue.
enum Request {
    Run(Submission),
    /// Posted by [`HiggsService`]'s drop: evaluate nothing further, fail
    /// everything still queued with [`ServiceError::Shutdown`], and exit.
    Shutdown,
}

/// One coalesced per-shard evaluation request (the per-shard request queue
/// element): a sub-batch routed to this shard and the channel to send its
/// column of results back on.
struct ShardJob {
    sub: Vec<Query>,
    reply: Completer<Vec<Weight>>,
}

/// A reply future for a single submitted [`Query`].
///
/// Obtained from [`ServiceClient::submit`]. [`wait`](Self::wait) blocks
/// until the admission loop evaluates the query (or fails it with a typed
/// error); tickets always resolve, even across a service shutdown.
#[must_use = "a ticket does nothing until waited on"]
pub struct Ticket {
    waiter: Waiter<Reply>,
}

impl Ticket {
    /// Blocks until the query completes, returning its estimated aggregate
    /// weight or the typed reason it was not evaluated.
    pub fn wait(self) -> Result<Weight, ServiceError> {
        match self.waiter.wait() {
            // An admission loop that dies without answering (service drop
            // racing the submission) reads as shutdown, never a hang.
            Err(_) => Err(ServiceError::Shutdown),
            Ok(Err(e)) => Err(e),
            Ok(Ok(results)) => Ok(results
                .first()
                .copied()
                .expect("a single-query submission yields one result")),
        }
    }

    /// Returns the result if the query already completed, `None` while it is
    /// still in flight.
    pub fn try_wait(&self) -> Option<Result<Weight, ServiceError>> {
        match self.waiter.try_wait() {
            Err(_) => Some(Err(ServiceError::Shutdown)),
            Ok(None) => None,
            Ok(Some(Err(e))) => Some(Err(e)),
            Ok(Some(Ok(results))) => Some(Ok(results
                .first()
                .copied()
                .expect("a single-query submission yields one result"))),
        }
    }
}

/// A reply future for a batch submission ([`ServiceClient::submit_batch`]):
/// resolves to one weight per submitted query, in submission order.
#[must_use = "a ticket does nothing until waited on"]
pub struct BatchTicket {
    waiter: Waiter<Reply>,
}

impl BatchTicket {
    /// Blocks until the whole batch completes. The batch is answered
    /// atomically: all queries succeed together or the batch fails with one
    /// typed error.
    pub fn wait(self) -> Result<Vec<Weight>, ServiceError> {
        match self.waiter.wait() {
            Err(_) => Err(ServiceError::Shutdown),
            Ok(reply) => reply,
        }
    }

    /// Returns the results if the batch already completed, `None` while it
    /// is still in flight.
    pub fn try_wait(&self) -> Option<Result<Vec<Weight>, ServiceError>> {
        match self.waiter.try_wait() {
            Err(_) => Some(Err(ServiceError::Shutdown)),
            Ok(None) => None,
            Ok(Some(reply)) => Some(reply),
        }
    }
}

/// Runs `attempt_fn` under a [`RetryPolicy`]: transient outcomes
/// (overload backpressure, degraded shards) sleep the policy's backoff and
/// retry; everything else — success or a terminal error — returns as-is.
/// With the default (zero-retry) policy this is exactly one attempt.
fn retry_transient<T>(
    policy: RetryPolicy,
    mut attempt_fn: impl FnMut() -> Result<T, ServiceError>,
) -> Result<T, ServiceError> {
    let mut attempt = 0u32;
    loop {
        match attempt_fn() {
            Err(ServiceError::Overloaded | ServiceError::ShardUnavailable)
                if attempt < policy.max_retries =>
            {
                attempt += 1;
                std::thread::sleep(policy.backoff_before(attempt));
            }
            outcome => return outcome,
        }
    }
}

/// A ticket that was answered at submission time (overload / shutdown
/// fail-fast paths): builds the completed oneshot pair inline.
fn settled(reply: Reply) -> Waiter<Reply> {
    let (tx, rx) = completion();
    tx.complete(reply);
    rx
}

/// A typed point-in-time health report, from
/// [`ServiceClient::health`]: which shards are degraded, how the writer
/// supervisor has been doing, and — when the client fronts a
/// [`ReplicaService`] — how far replication trails the leader.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HealthReport {
    /// Indices of shards currently [`Degraded`](crate::ShardHealth): their
    /// writer died and recovery has not succeeded (yet). Queries routing to
    /// them fail fast with [`ServiceError::ShardUnavailable`].
    pub degraded: Vec<usize>,
    /// Per-shard writer respawn count since service construction; see
    /// [`ShardedHiggs::shard_respawn_counts`]. All zeros on a replica
    /// (followers have no writers).
    pub respawn_counts: Vec<u32>,
    /// Per-shard reason the most recent recovery attempt failed; see
    /// [`ShardedHiggs::shard_recovery_errors`]. All `None` on a replica.
    pub recovery_errors: Vec<Option<String>>,
    /// How far this replica trails its leader as of the last sync —
    /// `Some` only for clients of a [`ReplicaService`].
    pub replication_lag: Option<ReplicationLag>,
    /// Why replication stopped, if it did (e.g. the leader rotated a journal
    /// under the cursor); `None` while shipping is live, and always `None`
    /// on a leader.
    pub replication_error: Option<String>,
}

/// Where a client's [`health`](ServiceClient::health) report comes from:
/// the leader's supervision state, or a replica's sync gauge. Held by `Arc`
/// so the report stays readable after the service drops.
#[derive(Clone)]
enum HealthSource {
    Leader {
        health: HealthBoard,
        respawn_attempts: Arc<Vec<AtomicU32>>,
        recovery_errors: Arc<Vec<Mutex<Option<String>>>>,
    },
    Replica {
        shards: usize,
        gauge: Arc<ReplicaGauge>,
    },
}

impl HealthSource {
    fn report(&self) -> HealthReport {
        match self {
            HealthSource::Leader {
                health,
                respawn_attempts,
                recovery_errors,
            } => {
                let shards = respawn_attempts.len();
                HealthReport {
                    degraded: (0..shards).filter(|&s| health.is_degraded(s)).collect(),
                    respawn_counts: respawn_attempts
                        .iter()
                        // ORDERING: Relaxed — a monotone diagnostic counter;
                        // see `ShardedHiggs::shard_respawn_counts`.
                        .map(|c| c.load(std::sync::atomic::Ordering::Relaxed))
                        .collect(),
                    recovery_errors: recovery_errors
                        .iter()
                        .map(|slot| slot.lock().expect("recovery error slot poisoned").clone())
                        .collect(),
                    replication_lag: None,
                    replication_error: None,
                }
            }
            HealthSource::Replica { shards, gauge } => HealthReport {
                degraded: Vec::new(),
                respawn_counts: vec![0; *shards],
                recovery_errors: vec![None; *shards],
                replication_lag: Some(*gauge.lag.lock().expect("lag gauge poisoned")),
                replication_error: gauge.error.lock().expect("error gauge poisoned").clone(),
            },
        }
    }
}

/// The single, cloneable client surface of a [`HiggsService`] or
/// [`ReplicaService`]: typed query submission with options, fallible ingest,
/// flush, and a [`health`](Self::health) probe — one handle instead of the
/// old `&ShardedHiggs` / [`IngestHandle`] / `flush()` trio.
///
/// Clones share the service's submission queue and ingest routing; handing
/// one clone to each producer/consumer thread is the intended usage. Clients
/// remain valid after the service drops: every operation then reports the
/// typed shutdown error instead of hanging. Clients of a [`ReplicaService`]
/// are **read-only**: every mutation method reports
/// [`IngestError::ReadOnly`].
#[derive(Clone)]
pub struct ServiceClient {
    submit_tx: Sender<Request>,
    /// `None` for replica clients: followers have no writers to route to.
    ingest: Option<IngestHandle>,
    health: HealthSource,
}

impl std::fmt::Debug for ServiceClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceClient")
            .field("shards", &self.num_shards())
            .field("read_only", &self.ingest.is_none())
            .finish_non_exhaustive()
    }
}

impl ServiceClient {
    /// Submits one query with default [`QueryOptions`] (no deadline,
    /// [`Priority::Normal`], read-your-writes).
    pub fn submit(&self, query: Query) -> Ticket {
        self.submit_with(query, QueryOptions::default())
    }

    /// Submits one query with explicit options.
    pub fn submit_with(&self, query: Query, options: QueryOptions) -> Ticket {
        Ticket {
            waiter: self.enqueue(vec![query], options),
        }
    }

    /// Submits a batch of queries with default options. The batch stays
    /// together: it is answered in one piece, in submission order.
    pub fn submit_batch(&self, queries: &[Query]) -> BatchTicket {
        self.submit_batch_with(queries, QueryOptions::default())
    }

    /// Submits a batch of queries with explicit options.
    pub fn submit_batch_with(&self, queries: &[Query], options: QueryOptions) -> BatchTicket {
        BatchTicket {
            waiter: self.enqueue(queries.to_vec(), options),
        }
    }

    /// Submits and enqueues, resolving the overload/shutdown fail-fast paths
    /// inline so every returned waiter is guaranteed to resolve.
    fn enqueue(&self, queries: Vec<Query>, options: QueryOptions) -> Waiter<Reply> {
        let (tx, rx) = completion();
        let submission = Submission {
            queries,
            options,
            submitted: Instant::now(),
            reply: tx,
        };
        match self.submit_tx.try_send(Request::Run(submission)) {
            Ok(()) => rx,
            Err(TrySendError::Full(_)) => settled(Err(ServiceError::Overloaded)),
            Err(TrySendError::Disconnected(_)) => settled(Err(ServiceError::Shutdown)),
        }
    }

    /// Convenience: submits one query and blocks for its result.
    pub fn query(&self, query: &Query) -> Result<Weight, ServiceError> {
        self.query_with(query, QueryOptions::default())
    }

    /// Convenience: submits a batch and blocks for its results.
    pub fn query_batch(&self, queries: &[Query]) -> Result<Vec<Weight>, ServiceError> {
        self.query_batch_with(queries, QueryOptions::default())
    }

    /// Submits one query with options and blocks, honouring
    /// [`QueryOptions::retry`]: transient failures
    /// ([`Overloaded`](ServiceError::Overloaded),
    /// [`ShardUnavailable`](ServiceError::ShardUnavailable)) are
    /// resubmitted with exponential backoff until the policy is exhausted.
    /// Terminal errors (shutdown, deadline) return immediately.
    pub fn query_with(&self, query: &Query, options: QueryOptions) -> Result<Weight, ServiceError> {
        retry_transient(options.retry, || {
            self.submit_with(query.clone(), options).wait()
        })
    }

    /// Batch counterpart of [`query_with`](Self::query_with): each retry
    /// resubmits the whole batch (batches are answered atomically, so no
    /// partial results survive a failed attempt).
    pub fn query_batch_with(
        &self,
        queries: &[Query],
        options: QueryOptions,
    ) -> Result<Vec<Weight>, ServiceError> {
        retry_transient(options.retry, || {
            self.submit_batch_with(queries, options).wait()
        })
    }

    /// The ingest routing table, or the typed refusal on a read-only
    /// replica client.
    fn writable(&self) -> Result<&IngestHandle, IngestError> {
        self.ingest.as_ref().ok_or(IngestError::ReadOnly)
    }

    /// Enqueues one stream item (blocking for queue space when the ingest
    /// queues are bounded); see [`IngestHandle::insert`]. Replica clients
    /// report [`IngestError::ReadOnly`].
    pub fn insert(&self, edge: &StreamEdge) -> Result<(), IngestError> {
        self.writable()?.insert(edge)
    }

    /// Enqueues a slice of stream items in arrival order; see
    /// [`IngestHandle::insert_all`].
    pub fn insert_all(&self, edges: &[StreamEdge]) -> Result<(), IngestError> {
        self.writable()?.insert_all(edges)
    }

    /// Enqueues a deletion; see [`IngestHandle::delete`].
    pub fn delete(&self, edge: &StreamEdge) -> Result<(), IngestError> {
        self.writable()?.delete(edge)
    }

    /// Non-blocking insert, reporting [`IngestError::QueueFull`] instead of
    /// waiting; see [`IngestHandle::try_insert`].
    pub fn try_insert(&self, edge: &StreamEdge) -> Result<(), IngestError> {
        self.writable()?.try_insert(edge)
    }

    /// Non-blocking delete; see [`IngestHandle::try_delete`].
    pub fn try_delete(&self, edge: &StreamEdge) -> Result<(), IngestError> {
        self.writable()?.try_delete(edge)
    }

    /// Blocks until every mutation enqueued before this call (by any client
    /// clone) is applied and aggregated; see [`IngestHandle::flush`]. A
    /// no-op on a replica client (followers have nothing local to flush —
    /// freshness comes from the sync loop).
    pub fn flush(&self) {
        if let Some(ingest) = &self.ingest {
            ingest.flush();
        }
    }

    /// Number of shards behind this client.
    pub fn num_shards(&self) -> usize {
        match (&self.ingest, &self.health) {
            (Some(ingest), _) => ingest.num_shards(),
            (None, HealthSource::Replica { shards, .. }) => *shards,
            (
                None,
                HealthSource::Leader {
                    respawn_attempts, ..
                },
            ) => respawn_attempts.len(),
        }
    }

    /// A typed point-in-time health report: degraded shards, writer respawn
    /// counts and recovery errors (leader), and replication lag / the reason
    /// shipping stopped (replica). Cheap, lock-light, and still answerable
    /// after the service drops.
    pub fn health(&self) -> HealthReport {
        self.health.report()
    }
}

/// The serving front-end: owns a [`ShardedHiggs`], its admission thread and
/// its per-shard evaluation workers, and hands out [`ServiceClient`]s.
///
/// ```
/// use higgs::{HiggsConfig, HiggsService};
/// use higgs_common::{Query, StreamEdge, TimeRange};
///
/// let config = HiggsConfig::builder().shards(2).build().expect("valid");
/// let service = HiggsService::new(config);
/// let client = service.client();
/// client.insert(&StreamEdge::new(1, 2, 5, 10)).expect("live service");
/// // Read-your-writes: the submitted query sees the enqueued edge.
/// let ticket = client.submit(Query::edge(1, 2, TimeRange::new(0, 20)));
/// assert_eq!(ticket.wait(), Ok(5));
/// ```
///
/// Dropping the service shuts it down: queued submissions complete with
/// [`ServiceError::Shutdown`], the admission and worker threads join, and
/// the inner [`ShardedHiggs`]'s writer threads join after them (so its
/// [`writer_census`](ShardedHiggs::writer_census) returns to zero).
/// Surviving [`ServiceClient`] clones stay safe to use and report typed
/// shutdown errors.
pub struct HiggsService {
    /// Held only for its drop: declared before `inner` so the
    /// admission/worker threads (which hold shard references and an
    /// ingest handle) are joined before the shard writers are.
    _executor: reactor::Executor,
    submit_tx: Sender<Request>,
    inner: ShardedHiggs,
}

impl std::fmt::Debug for HiggsService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HiggsService")
            .field("shards", &self.inner.num_shards())
            .finish_non_exhaustive()
    }
}

impl HiggsService {
    /// Creates a serving front-end over a fresh [`ShardedHiggs`] built from
    /// `config`. Panics on an invalid configuration; use
    /// [`try_new`](Self::try_new) for fallible construction.
    pub fn new(config: HiggsConfig) -> Self {
        Self::try_new(config).expect("invalid HiggsConfig")
    }

    /// Creates a serving front-end, returning the violated constraint
    /// instead of panicking when the configuration is invalid.
    pub fn try_new(config: HiggsConfig) -> Result<Self, ConfigError> {
        let inner = ShardedHiggs::try_new(config)?;
        Self::wrap(inner, &config)
    }

    /// Wraps an existing [`ShardedHiggs`] (e.g. one restored from a
    /// snapshot) in a serving front-end, taking the admission-tick and
    /// queue-depth knobs from `config`.
    pub fn wrap(inner: ShardedHiggs, config: &HiggsConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let (submit_tx, submit_rx) = match config.service_queue_depth {
            Some(depth) => bounded::<Request>(depth),
            None => unbounded::<Request>(),
        };
        let mut executor = reactor::Executor::new("higgs-serve");
        let mut job_txs = Vec::with_capacity(inner.num_shards());
        for (s, summary) in inner.shard_summaries().iter().enumerate() {
            let (tx, rx) = unbounded::<ShardJob>();
            let summary = summary.clone();
            executor.spawn(&format!("shard{s}"), move || shard_worker_loop(summary, rx));
            job_txs.push(tx);
        }
        let admission = AdmissionLoop {
            submit_rx,
            job_txs,
            ingest: Some(inner.ingest_handle()),
            tick: config.admission_tick,
            health: Some(inner.health_board()),
        };
        executor.spawn("admission", move || admission.run());
        Ok(Self {
            _executor: executor,
            submit_tx,
            inner,
        })
    }

    /// A new cloneable client handle onto this service.
    pub fn client(&self) -> ServiceClient {
        let (respawn_attempts, recovery_errors) = self.inner.supervision_state();
        ServiceClient {
            submit_tx: self.submit_tx.clone(),
            ingest: Some(self.inner.ingest_handle()),
            health: HealthSource::Leader {
                health: self.inner.health_board(),
                respawn_attempts,
                recovery_errors,
            },
        }
    }

    /// The wrapped summary, for surfaces the client API does not cover
    /// (snapshotting, diagnostics, direct batch evaluation).
    pub fn summary(&self) -> &ShardedHiggs {
        &self.inner
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.inner.num_shards()
    }

    /// Number of query plans (boundary searches) built across all shards;
    /// see [`ShardedHiggs::plans_built`].
    pub fn plans_built(&self) -> u64 {
        self.inner.plans_built()
    }

    /// Resets the plan counter on every shard (diagnostic hook).
    pub fn reset_plan_count(&self) {
        self.inner.reset_plan_count();
    }

    /// Total number of stream items currently held; see
    /// [`ShardedHiggs::total_items`].
    pub fn total_items(&self) -> u64 {
        self.inner.total_items()
    }

    /// Blocks until every enqueued mutation is applied and aggregated.
    pub fn flush(&self) {
        self.inner.flush();
    }
}

impl Drop for HiggsService {
    fn drop(&mut self) {
        // The Shutdown marker makes the admission loop fail everything still
        // queued and exit; its exit drops the per-shard job senders, ending
        // the workers; the executor (field order) joins all of them before
        // `inner` joins the shard writers.
        let _ = self.submit_tx.send(Request::Shutdown);
    }
}

/// Shared between a [`ReplicaService`]'s sync thread and its clients: the
/// last observed lag, the reason shipping stopped (if it did), and the
/// condvar-guarded stop flag the service's drop uses to end the sync loop
/// without waiting out its interval.
struct ReplicaGauge {
    lag: Mutex<ReplicationLag>,
    error: Mutex<Option<String>>,
    stop: Mutex<bool>,
    wake: Condvar,
}

impl ReplicaGauge {
    fn new() -> Self {
        ReplicaGauge {
            lag: Mutex::new(ReplicationLag::default()),
            error: Mutex::new(None),
            stop: Mutex::new(false),
            wake: Condvar::new(),
        }
    }

    /// Sleeps out (up to) one sync interval; returns `true` when the service
    /// is shutting down — immediately if the stop flag was already raised.
    fn wait_stop(&self, interval: Duration) -> bool {
        let mut stopped = self.stop.lock().expect("replica stop flag poisoned");
        while !*stopped {
            let (guard, timeout) = self
                .wake
                .wait_timeout(stopped, interval)
                .expect("replica stop flag poisoned");
            stopped = guard;
            if timeout.timed_out() {
                return *stopped;
            }
        }
        true
    }

    fn raise_stop(&self) {
        *self.stop.lock().expect("replica stop flag poisoned") = true;
        self.wake.notify_all();
    }
}

/// The replica sync thread: owns the [`Follower`], ships journal segments
/// every `interval`, and publishes the post-sync lag. A sync failure (e.g.
/// the leader rotated a journal under the cursor) is terminal for shipping —
/// the error is published for [`ServiceClient::health`] and the replica
/// keeps serving its last synced state.
fn replica_sync_loop(mut follower: Follower, gauge: Arc<ReplicaGauge>, interval: Duration) {
    loop {
        let outcome = follower.sync().and_then(|_| follower.replication_lag());
        match outcome {
            Ok(lag) => *gauge.lag.lock().expect("lag gauge poisoned") = lag,
            Err(e) => {
                *gauge.error.lock().expect("error gauge poisoned") = Some(e.to_string());
                return;
            }
        }
        if gauge.wait_stop(interval) {
            return;
        }
    }
}

/// Read-replica fan-out: the serving front-end over a [`Follower`].
///
/// Wraps the follower's summaries in the same per-shard evaluation workers
/// and admission loop as a [`HiggsService`] — coalesced plans, priorities,
/// deadlines, backpressure — while a dedicated sync thread keeps shipping
/// the leader's journal segments in the background. Clients
/// ([`client`](Self::client)) are **read-only**: every mutation method
/// reports [`IngestError::ReadOnly`], and
/// [`Consistency::ReadYourWrites`] degrades to reading the last completed
/// sync (there are no local writes to wait for).
///
/// Promotion is not served from here: a followed replica's summaries are
/// shared with live query workers, so promote a bare [`Follower`]
/// ([`Follower::promote`]) instead — typically a fresh one bootstrapped
/// after the leader's crash.
///
/// Dropping the service stops the sync thread (without waiting out its
/// interval), fails queued submissions with [`ServiceError::Shutdown`], and
/// joins every thread. Surviving clients stay safe and report typed errors.
pub struct ReplicaService {
    /// Declared first so the admission/worker/sync threads join before the
    /// rest of the state drops.
    _executor: reactor::Executor,
    submit_tx: Sender<Request>,
    shards: usize,
    gauge: Arc<ReplicaGauge>,
}

impl std::fmt::Debug for ReplicaService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaService")
            .field("shards", &self.shards)
            .finish_non_exhaustive()
    }
}

impl ReplicaService {
    /// The default journal-shipping cadence of [`follow`](Self::follow).
    pub const DEFAULT_SYNC_INTERVAL: Duration = Duration::from_millis(1);

    /// Serves `follower` read-only, syncing it every
    /// [`DEFAULT_SYNC_INTERVAL`](Self::DEFAULT_SYNC_INTERVAL). The
    /// admission-tick and queue-depth knobs come from `config` (shard count
    /// comes from the follower itself).
    pub fn follow(follower: Follower, config: &HiggsConfig) -> Result<Self, ConfigError> {
        Self::follow_with_sync_interval(follower, config, Self::DEFAULT_SYNC_INTERVAL)
    }

    /// [`follow`](Self::follow) with an explicit shipping cadence: shorter
    /// intervals lower replication lag, longer ones lower the idle cost of
    /// scanning unchanged journals.
    pub fn follow_with_sync_interval(
        follower: Follower,
        config: &HiggsConfig,
        interval: Duration,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        let shards = follower.num_shards();
        let (submit_tx, submit_rx) = match config.service_queue_depth {
            Some(depth) => bounded::<Request>(depth),
            None => unbounded::<Request>(),
        };
        let mut executor = reactor::Executor::new("higgs-replica");
        let mut job_txs = Vec::with_capacity(shards);
        for (s, summary) in follower.shard_summaries().iter().enumerate() {
            let (tx, rx) = unbounded::<ShardJob>();
            let summary = summary.clone();
            executor.spawn(&format!("shard{s}"), move || shard_worker_loop(summary, rx));
            job_txs.push(tx);
        }
        let admission = AdmissionLoop {
            submit_rx,
            job_txs,
            ingest: None,
            tick: config.admission_tick,
            health: None,
        };
        executor.spawn("admission", move || admission.run());
        let gauge = Arc::new(ReplicaGauge::new());
        let sync_gauge = gauge.clone();
        executor.spawn("replica-sync", move || {
            replica_sync_loop(follower, sync_gauge, interval)
        });
        Ok(Self {
            _executor: executor,
            submit_tx,
            shards,
            gauge,
        })
    }

    /// A new cloneable **read-only** client handle onto this replica.
    pub fn client(&self) -> ServiceClient {
        ServiceClient {
            submit_tx: self.submit_tx.clone(),
            ingest: None,
            health: HealthSource::Replica {
                shards: self.shards,
                gauge: self.gauge.clone(),
            },
        }
    }

    /// How far this replica trailed its leader at the end of the most recent
    /// sync; see [`Follower::replication_lag`]. Also available from any
    /// client via [`ServiceClient::health`].
    pub fn replication_lag(&self) -> ReplicationLag {
        *self.gauge.lag.lock().expect("lag gauge poisoned")
    }

    /// Number of shards this replica serves.
    pub fn num_shards(&self) -> usize {
        self.shards
    }
}

impl Drop for ReplicaService {
    fn drop(&mut self) {
        // Wake the sync thread out of its interval sleep and post the
        // shutdown marker; the executor (field order) then joins the sync,
        // admission, and worker threads.
        self.gauge.raise_stop();
        let _ = self.submit_tx.send(Request::Shutdown);
    }
}

/// State owned by the admission thread.
struct AdmissionLoop {
    submit_rx: Receiver<Request>,
    job_txs: Vec<Sender<ShardJob>>,
    /// `None` on a replica: there is no local ingest to make visible, so
    /// read-your-writes consistency degrades to read-latest-sync.
    ingest: Option<IngestHandle>,
    tick: Duration,
    /// Shared writer-health board: classes routed at a degraded shard fail
    /// fast with [`ServiceError::ShardUnavailable`] instead of hanging on a
    /// shard whose writer died. `None` on a replica (no writers to degrade).
    health: Option<HealthBoard>,
}

impl AdmissionLoop {
    fn run(self) {
        loop {
            // Block for the first submission of the tick.
            let first = match self.submit_rx.recv() {
                Ok(request) => request,
                // Every sender (service + clients) is gone: nothing can
                // ever arrive again.
                Err(_) => return,
            };
            let mut admitted = Vec::new();
            let mut shutdown = false;
            match first {
                Request::Shutdown => shutdown = true,
                Request::Run(submission) => admitted.push(submission),
            }
            // Hold the tick open so concurrent clients coalesce, then drain
            // whatever else is already queued.
            if !shutdown && !self.tick.is_zero() {
                shutdown = self.hold_tick_open(&mut admitted);
            }
            if !shutdown {
                shutdown = self.drain_queued(&mut admitted);
            }
            // Evaluate everything admitted before the shutdown marker (their
            // tickets are owed an answer), then fail the rest and exit.
            self.evaluate_tick(admitted);
            if shutdown {
                self.fail_remaining();
                return;
            }
        }
    }

    /// Waits out the admission tick, admitting everything that arrives.
    /// Returns `true` if a shutdown marker arrived.
    fn hold_tick_open(&self, admitted: &mut Vec<Submission>) -> bool {
        let tick_ends = Instant::now() + self.tick;
        loop {
            let Some(remaining) = tick_ends.checked_duration_since(Instant::now()) else {
                return false;
            };
            match self.submit_rx.recv_timeout(remaining) {
                Ok(Request::Run(submission)) => admitted.push(submission),
                Ok(Request::Shutdown) => return true,
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => return false,
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return false,
            }
        }
    }

    /// Drains submissions already sitting in the queue without waiting.
    /// Returns `true` if a shutdown marker arrived.
    fn drain_queued(&self, admitted: &mut Vec<Submission>) -> bool {
        while let Ok(request) = self.submit_rx.try_recv() {
            match request {
                Request::Run(submission) => admitted.push(submission),
                Request::Shutdown => return true,
            }
        }
        false
    }

    /// Fails everything still queued with [`ServiceError::Shutdown`].
    /// Dropping each completer would resolve the tickets identically, but
    /// completing explicitly keeps the typed error on the normal path.
    fn fail_remaining(&self) {
        while let Ok(request) = self.submit_rx.try_recv() {
            if let Request::Run(submission) = request {
                submission.reply.complete(Err(ServiceError::Shutdown));
            }
        }
    }

    /// Evaluates one admitted tick: group by priority class, then per class
    /// expire deadlines, honour consistency, and run one coalesced
    /// [`ShardPlan`] over the per-shard workers.
    fn evaluate_tick(&self, admitted: Vec<Submission>) {
        if admitted.is_empty() {
            return;
        }
        let mut classes: [Vec<Submission>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for submission in admitted {
            let class = match submission.options.priority {
                Priority::Interactive => 0,
                Priority::Normal => 1,
                Priority::Bulk => 2,
            };
            classes[class].push(submission);
        }
        for class in classes {
            self.evaluate_class(class);
        }
    }

    /// Evaluates one priority class of a tick as a single coalesced plan.
    fn evaluate_class(&self, submissions: Vec<Submission>) {
        // Deadline expiry: measured against admission start, i.e. the moment
        // evaluation could begin.
        let now = Instant::now();
        let mut live = Vec::with_capacity(submissions.len());
        for submission in submissions {
            let expired = submission
                .options
                .deadline
                .is_some_and(|d| now.duration_since(submission.submitted) >= d);
            if expired {
                submission
                    .reply
                    .complete(Err(ServiceError::DeadlineExceeded));
            } else {
                live.push(submission);
            }
        }
        if live.is_empty() {
            return;
        }
        // Coalesce: one concatenated batch, one plan, one columnar
        // sub-batch per shard. Cross-client duplicate windows now share
        // boundary searches exactly like duplicates within one batch.
        let mut offsets = Vec::with_capacity(live.len() + 1);
        offsets.push(0);
        let mut coalesced: Vec<Query> = Vec::new();
        for submission in &live {
            coalesced.extend(submission.queries.iter().cloned());
            offsets.push(coalesced.len());
        }
        let shards = self.job_txs.len();
        let plan = ShardPlan::build(&coalesced, shards);
        // Degraded fast-fail, checked *before* the consistency flush: a
        // flush would block on the dead writer's queue, and a degraded
        // shard's state may be behind its acknowledged writes anyway. The
        // whole class fails together — it coalesced into one plan, and
        // answering only the healthy shards' slice would silently violate
        // the batch-is-atomic contract of [`BatchTicket::wait`].
        if self.health.as_ref().is_some_and(|health| {
            (0..shards).any(|s| !plan.sub_batch(s).is_empty() && health.is_degraded(s))
        }) {
            for submission in live {
                submission
                    .reply
                    .complete(Err(ServiceError::ShardUnavailable));
            }
            return;
        }
        // One flush covers the whole class; an all-Relaxed class skips it —
        // this is the "jump ahead of ingest flushes" path for interactive
        // traffic.
        if let Some(ingest) = &self.ingest {
            if live
                .iter()
                .any(|s| s.options.consistency == Consistency::ReadYourWrites)
            {
                ingest.ensure_visible();
            }
        }
        let mut pending = Vec::with_capacity(shards);
        for (s, job_tx) in self.job_txs.iter().enumerate() {
            let sub = plan.sub_batch(s);
            if sub.is_empty() {
                pending.push(None);
                continue;
            }
            let (tx, rx) = completion();
            if job_tx
                .send(ShardJob {
                    sub: sub.to_vec(),
                    reply: tx,
                })
                .is_err()
            {
                // A worker vanished (only possible mid-teardown): every
                // submission of the class still gets a typed answer.
                for submission in live {
                    submission.reply.complete(Err(ServiceError::Shutdown));
                }
                return;
            }
            pending.push(Some(rx));
        }
        let mut per_shard = Vec::with_capacity(shards);
        for waiter in pending {
            match waiter {
                None => per_shard.push(Vec::new()),
                Some(waiter) => match waiter.wait() {
                    Ok(results) => per_shard.push(results),
                    Err(_) => {
                        for submission in live {
                            submission.reply.complete(Err(ServiceError::Shutdown));
                        }
                        return;
                    }
                },
            }
        }
        let gathered = plan.gather(&per_shard);
        for (i, submission) in live.into_iter().enumerate() {
            let slice = gathered[offsets[i]..offsets[i + 1]].to_vec();
            submission.reply.complete(Ok(slice));
        }
    }
}

/// One shard's evaluation worker: drains its request queue, evaluating each
/// coalesced sub-batch through the shard's plan-sharing executor under the
/// shard read lock. Exits when the admission loop (the only sender) drops
/// the queue.
fn shard_worker_loop(
    summary: std::sync::Arc<std::sync::RwLock<crate::tree::HiggsSummary>>,
    rx: Receiver<ShardJob>,
) {
    while let Ok(job) = rx.recv() {
        let results = summary
            .read()
            .expect("shard lock poisoned")
            .query_batch(&job.sub);
        job.reply.complete(results);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use higgs_common::{TemporalGraphSummary, TimeRange};

    fn service(shards: usize) -> HiggsService {
        HiggsService::new(
            HiggsConfig::builder()
                .shards(shards)
                .build()
                .expect("valid test configuration"),
        )
    }

    fn edges(n: u64) -> Vec<StreamEdge> {
        (0..n)
            .map(|i| StreamEdge::new(i % 100, (i * 7) % 100, 1 + i % 3, i / 2))
            .collect()
    }

    #[test]
    fn single_query_round_trip_is_read_your_writes() {
        let service = service(2);
        let client = service.client();
        client.insert(&StreamEdge::new(1, 2, 5, 10)).expect("live");
        assert_eq!(
            client.query(&Query::edge(1, 2, TimeRange::new(0, 20))),
            Ok(5)
        );
        client.insert(&StreamEdge::new(1, 2, 3, 11)).expect("live");
        assert_eq!(
            client.query(&Query::edge(1, 2, TimeRange::new(0, 20))),
            Ok(8)
        );
    }

    #[test]
    fn served_batch_matches_direct_query_batch() {
        let stream = edges(3_000);
        let service = service(4);
        let client = service.client();
        client.insert_all(&stream).expect("live service");
        let mut direct = ShardedHiggs::new(
            HiggsConfig::builder()
                .shards(4)
                .build()
                .expect("valid configuration"),
        );
        direct.insert_all(&stream);
        let batch: Vec<Query> = vec![
            Query::edge(1, 7, TimeRange::new(0, 800)),
            Query::vertex(
                3,
                higgs_common::VertexDirection::Out,
                TimeRange::new(0, 400),
            ),
            Query::vertex(3, higgs_common::VertexDirection::In, TimeRange::new(0, 400)),
            Query::path(vec![1, 7, 49], TimeRange::new(0, 800)),
            Query::subgraph(vec![(2, 14), (3, 21)], TimeRange::new(100, 900)),
        ];
        assert_eq!(
            client.query_batch(&batch),
            Ok(direct.query_batch(&batch)),
            "served results must be bit-identical to the unserved service"
        );
    }

    #[test]
    fn concurrent_clients_coalesce_into_shared_plans() {
        let service = service(4);
        let seed = service.client();
        seed.insert_all(&edges(4_000)).expect("live service");
        seed.flush();
        let windows: Vec<TimeRange> = (0..16)
            .map(|w| TimeRange::new(w * 50, w * 50 + 400))
            .collect();
        // Warm every (shard, window) plan once.
        let warmup: Vec<Query> = windows.iter().map(|&w| Query::edge(1, 7, w)).collect();
        seed.query_batch(&warmup).expect("warm-up batch");
        service.reset_plan_count();
        // 128 concurrent clients, each submitting one query over one of the
        // 16 shared windows: a warm tick must not build more plans than
        // there are distinct windows (the acceptance bound), and with warm
        // caches it builds none at all.
        let tickets: Vec<Ticket> = (0..128)
            .map(|i| {
                let client = service.client();
                client.submit(Query::edge(1, 7, windows[i % windows.len()]))
            })
            .collect();
        for ticket in tickets {
            ticket.wait().expect("live service");
        }
        let plans = service.plans_built();
        assert!(
            plans <= windows.len() as u64,
            "{plans} plans built for {} shared windows across 128 clients",
            windows.len()
        );
    }

    #[test]
    fn zero_deadline_expires_deterministically() {
        let service = service(2);
        let client = service.client();
        client.insert(&StreamEdge::new(1, 2, 5, 10)).expect("live");
        let ticket = client.submit_with(
            Query::edge(1, 2, TimeRange::all()),
            QueryOptions::new().deadline(Duration::ZERO),
        );
        assert_eq!(ticket.wait(), Err(ServiceError::DeadlineExceeded));
        // A generous deadline passes untouched.
        let ticket = client.submit_with(
            Query::edge(1, 2, TimeRange::all()),
            QueryOptions::new().deadline(Duration::from_secs(3600)),
        );
        assert_eq!(ticket.wait(), Ok(5));
    }

    #[test]
    fn priority_classes_and_relaxed_consistency_are_accepted() {
        let service = service(2);
        let client = service.client();
        client.insert_all(&edges(500)).expect("live service");
        let interactive = client.submit_with(
            Query::edge(1, 8, TimeRange::all()),
            QueryOptions::interactive(),
        );
        let bulk =
            client.submit_batch_with(&[Query::edge(1, 8, TimeRange::all())], QueryOptions::bulk());
        let normal = client.submit(Query::edge(1, 8, TimeRange::all()));
        let expected = normal.wait().expect("live service");
        // Relaxed interactive reads may lag ingest but here everything is
        // flushed by the normal read, so all classes agree.
        assert_eq!(interactive.wait(), Ok(expected));
        assert_eq!(bulk.wait(), Ok(vec![expected]));
    }

    #[test]
    fn bounded_submission_queue_reports_overload() {
        let config = HiggsConfig::builder()
            .shards(1)
            .service_queue_depth(1)
            .build()
            .expect("valid configuration");
        let service = HiggsService::new(config);
        let client = service.client();
        client.insert_all(&edges(20_000)).expect("live service");
        // Stall admission behind heavy read-your-writes batches, then spam
        // the depth-1 queue faster than ticks can close: at least one
        // submission must fail fast with Overloaded.
        let heavy: Vec<Query> = (0..256)
            .map(|i| Query::edge(i % 100, (i * 7) % 100, TimeRange::new(i, i + 5_000)))
            .collect();
        let mut tickets = Vec::new();
        let mut overloaded = 0usize;
        for _ in 0..512 {
            let ticket = client.submit_batch(&heavy);
            match ticket.try_wait() {
                Some(Err(ServiceError::Overloaded)) => overloaded += 1,
                _ => tickets.push(ticket),
            }
        }
        assert!(
            overloaded > 0,
            "a depth-1 queue under a tight submission loop must shed load"
        );
        // Everything that was admitted still resolves with a result.
        for ticket in tickets {
            ticket.wait().expect("admitted batches must complete");
        }
    }

    #[test]
    fn shutdown_resolves_in_flight_tickets_and_joins_writers() {
        let service = service(2);
        let census = service.summary().writer_census();
        assert_eq!(census.live(), 2, "one writer per shard");
        let client = service.client();
        client.insert_all(&edges(2_000)).expect("live service");
        let in_flight: Vec<BatchTicket> = (0..64)
            .map(|i| {
                client.submit_batch(&[Query::edge(i % 50, (i * 7) % 100, TimeRange::new(0, 900))])
            })
            .collect();
        drop(service);
        // Every ticket resolves: a result (admitted before the shutdown
        // marker) or the typed shutdown error — never a hang.
        for ticket in in_flight {
            match ticket.wait() {
                Ok(results) => assert_eq!(results.len(), 1),
                Err(e) => assert_eq!(e, ServiceError::Shutdown),
            }
        }
        assert_eq!(
            census.live(),
            0,
            "service teardown must join the shard writer threads"
        );
        // Orphaned clients fail fast with typed errors on every surface.
        assert_eq!(
            client.query(&Query::edge(1, 2, TimeRange::all())),
            Err(ServiceError::Shutdown)
        );
        assert_eq!(
            client.insert(&StreamEdge::new(1, 2, 1, 1)),
            Err(IngestError::Shutdown)
        );
    }

    #[test]
    fn admission_tick_coalesces_without_changing_results() {
        let config = HiggsConfig::builder()
            .shards(2)
            .admission_tick(Duration::from_millis(2))
            .build()
            .expect("valid configuration");
        let service = HiggsService::new(config);
        let client = service.client();
        client.insert_all(&edges(1_000)).expect("live service");
        let tickets: Vec<Ticket> = (0..32)
            .map(|i| client.submit(Query::edge(i % 50, (i * 7) % 100, TimeRange::all())))
            .collect();
        let served: Vec<Weight> = tickets
            .into_iter()
            .map(|t| t.wait().expect("live service"))
            .collect();
        let direct: Vec<Weight> = (0..32)
            .map(|i| {
                service
                    .summary()
                    .query(&Query::edge(i % 50, (i * 7) % 100, TimeRange::all()))
            })
            .collect();
        assert_eq!(served, direct);
    }

    #[test]
    fn empty_batch_resolves_immediately() {
        let service = service(2);
        let client = service.client();
        assert_eq!(client.query_batch(&[]), Ok(Vec::new()));
    }

    #[test]
    fn service_error_messages_name_the_cause() {
        for (err, needle) in [
            (ServiceError::Shutdown, "shut down"),
            (ServiceError::DeadlineExceeded, "deadline"),
            (ServiceError::Overloaded, "overloaded"),
            (ServiceError::ShardUnavailable, "unavailable"),
        ] {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
        }
        let boxed: Box<dyn std::error::Error> = Box::new(ServiceError::Overloaded);
        assert!(boxed.to_string().contains("backpressure"));
    }

    #[test]
    fn retry_transient_resubmits_until_success_or_exhaustion() {
        use std::cell::Cell;
        let zero = RetryPolicy::retries(5).base_backoff(Duration::ZERO);
        // Transient failures burn retries, then the first success wins.
        let attempts = Cell::new(0u32);
        let outcome = retry_transient(zero, || {
            attempts.set(attempts.get() + 1);
            if attempts.get() < 3 {
                Err(ServiceError::ShardUnavailable)
            } else {
                Ok(42u32)
            }
        });
        assert_eq!(outcome, Ok(42));
        assert_eq!(attempts.get(), 3);
        // An exhausted policy surfaces the transient error.
        let attempts = Cell::new(0u32);
        let outcome = retry_transient(RetryPolicy::retries(2).base_backoff(Duration::ZERO), || {
            attempts.set(attempts.get() + 1);
            Err::<(), _>(ServiceError::Overloaded)
        });
        assert_eq!(outcome, Err(ServiceError::Overloaded));
        assert_eq!(attempts.get(), 3, "initial attempt + 2 retries");
        // Terminal errors never retry.
        let attempts = Cell::new(0u32);
        let outcome = retry_transient(zero, || {
            attempts.set(attempts.get() + 1);
            Err::<(), _>(ServiceError::Shutdown)
        });
        assert_eq!(outcome, Err(ServiceError::Shutdown));
        assert_eq!(attempts.get(), 1);
    }

    #[test]
    fn query_with_retry_options_round_trips_and_stays_fail_fast_on_shutdown() {
        let service = service(2);
        let client = service.client();
        client.insert(&StreamEdge::new(1, 2, 5, 10)).expect("live");
        let opts = QueryOptions::new().retry(RetryPolicy::retries(3));
        assert_eq!(
            client.query_with(&Query::edge(1, 2, TimeRange::new(0, 20)), opts),
            Ok(5)
        );
        assert_eq!(
            client.query_batch_with(&[Query::edge(1, 2, TimeRange::new(0, 20))], opts),
            Ok(vec![5])
        );
        // Shutdown is terminal: an orphaned client with retries enabled
        // still fails fast instead of burning the whole backoff schedule.
        drop(service);
        assert_eq!(
            client.query_with(&Query::edge(1, 2, TimeRange::all()), opts),
            Err(ServiceError::Shutdown)
        );
    }

    #[test]
    fn client_handles_are_send_sync_and_clone() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HiggsService>();
        assert_send_sync::<ServiceClient>();
        assert_send_sync::<Ticket>();
        assert_send_sync::<BatchTicket>();
        let service = service(1);
        let a = service.client();
        let b = a.clone();
        a.insert(&StreamEdge::new(1, 2, 4, 1)).expect("live");
        assert_eq!(b.query(&Query::edge(1, 2, TimeRange::all())), Ok(4));
    }

    #[test]
    fn invalid_config_is_rejected_before_any_thread_spawns() {
        let mut bad = HiggsConfig::paper_default();
        bad.shards = 0;
        // That the failed construction spawned no writer is checked in the
        // single-test `writer_thread_leak` binary, where the process-wide
        // census is not moved by sibling tests.
        assert!(HiggsService::try_new(bad).is_err());
    }
}
