//! # higgs
//!
//! HIGGS — HIerarchy-Guided Graph Stream Summarization (ICDE 2025) — is an
//! item-based, bottom-up hierarchical sketch for summarising graph streams
//! with temporal information. This crate is the paper's primary
//! contribution, built from scratch in Rust:
//!
//! * [`matrix`] — the compressed matrix of fingerprinted buckets, including
//!   the Multiple Mapping Buckets (MMB) optimisation,
//! * [`tree`] — the aggregated B-tree of matrices ([`HiggsSummary`]):
//!   append-only leaves, θ-ary grouping, upward timestamp propagation
//!   (Algorithm 1),
//! * [`aggregate`] — the error-free fingerprint-shift aggregation of child
//!   matrices into parents (Algorithm 2),
//! * [`boundary`] — the boundary-search range decomposition (Algorithm 3),
//! * [`plan_cache`] — the cross-batch, epoch-invalidated query-plan cache,
//! * [`query`] — TRQ evaluation: the typed [`Query`](higgs_common::Query)
//!   surface with the plan-sharing columnar batch executor, plus the raw
//!   edge/vertex primitives,
//! * [`overflow`] — overflow blocks absorbing same-timestamp bursts,
//! * [`parallel`] — the per-layer parallel insertion pipeline
//!   ([`ParallelHiggs`], Section IV-C),
//! * [`shard`] — the source-sharded concurrent service layer
//!   ([`ShardedHiggs`]),
//! * [`snapshot`] — versioned, checksummed snapshot / restore persistence
//!   for summaries and the sharded service (warm restarts),
//! * [`journal`] — the per-shard write-ahead journal closing the
//!   crash-durability window between snapshots,
//! * [`history`] — the per-shard, sequence-stamped mutation history of an
//!   elastic store (the journal and the history share one record framing),
//! * [`store`] — the unified persistence entry point ([`Store::open`] with
//!   [`StoreOptions`]): create, recover, restore, reshard, follow,
//! * [`reshard`] — changing a service's shard count by refolding its
//!   history, offline or online,
//! * [`replica`] — warm read-only followers that ship the leader's journals
//!   ([`Follower`]),
//! * [`serving`] — the multi-client serving layer with query admission and
//!   plan coalescing ([`HiggsService`], [`ServiceClient`]).
//!
//! # Quick example
//!
//! Build a summary (the config [builder](HiggsConfig::builder) validates
//! parameters and returns `Result<_, ConfigError>`), insert a stream, and
//! query it through the typed [`Query`](higgs_common::Query) surface — one
//! entry point for all four TRQ kinds, batchable so planning is shared:
//!
//! ```
//! use higgs::{HiggsConfig, HiggsSummary};
//! use higgs_common::{
//!     Query, StreamEdge, TemporalGraphSummary, TimeRange, VertexDirection,
//! };
//!
//! let config = HiggsConfig::builder().build().expect("valid parameters");
//! let mut summary = HiggsSummary::new(config);
//! summary.insert(&StreamEdge::new(1, 2, 5, 10));
//! summary.insert(&StreamEdge::new(2, 3, 2, 11));
//! summary.insert(&StreamEdge::new(1, 2, 1, 20));
//!
//! // Single typed queries.
//! assert_eq!(summary.query(&Query::edge(1, 2, TimeRange::new(0, 15))), 5);
//! assert_eq!(
//!     summary.query(&Query::vertex(1, VertexDirection::Out, TimeRange::new(0, 30))),
//!     6
//! );
//!
//! // A mixed batch: HIGGS runs the Algorithm-3 boundary search at most once
//! // per distinct time range and shares the plan across every query (and
//! // every hop of the path query) using it.
//! let window = TimeRange::new(0, 30);
//! let batch = vec![
//!     Query::edge(1, 2, window),
//!     Query::path(vec![1, 2, 3], window),
//!     Query::subgraph(vec![(1, 2), (2, 3)], window),
//! ];
//! assert_eq!(summary.query_batch(&batch), vec![6, 8, 8]);
//! // 2 plans so far: the (0, 15) edge query and the first (0, 30) lookup —
//! // the vertex query warmed the plan cache, so the whole batch reused its
//! // (0, 30) plan without another boundary search.
//! assert_eq!(summary.plans_built(), 2);
//!
//! // Re-submitting the same windows (a sliding-window screen re-running
//! // every tick) skips planning entirely until the summary mutates.
//! assert_eq!(summary.query_batch(&batch), vec![6, 8, 8]);
//! assert_eq!(summary.plans_built(), 2); // still: served from the plan cache
//! ```
//!
//! # Performance notes
//!
//! Every insert, temporal-range query, and aggregation funnels through the
//! compressed matrix, so [`matrix`] is written for the cache, not the
//! allocator:
//!
//! * **Flat columnar storage, sealed when closed.** A `d × d` matrix with
//!   `b`-entry buckets is structure-of-arrays — parallel columns of packed
//!   keys, packed tags, and weights — with no per-bucket heap allocations
//!   and no pointer chases. While something can still insert into it (the
//!   open leaf and its overflow chain) it is a writable slab of `b · d²`
//!   fixed-stride slots plus a `Vec<u8>` of per-bucket lengths. Every closed
//!   matrix is **sealed**: its columns keep only the occupied slots, in
//!   bucket order, plus one `u32` start offset per bucket. A leaf is sealed
//!   when it closes; an aggregate is built straight into the sealed form,
//!   with no dense slab in between. Leaves run about 14 % full at paper
//!   parameters, so the tree holds about a tenth of the memory a dense
//!   layout would.
//! * **Packed match keys.** The fingerprint pair is packed into one `u64`
//!   and the MMB index pair plus time offset into one tag `u64` per slot, so
//!   candidate scans are two masked integer compares per entry instead of
//!   four field compares.
//! * **Key-first contiguous sweeps.** Every probe sweeps contiguous slot
//!   ranges through [`higgs_common::sum_matching`], which streams the keys
//!   column and touches tags/weights only on (rare) key hits: one bucket per
//!   edge-probe candidate and per column step, one range per candidate row.
//!   A writable matrix's never-occupied slots stay all-zero (weight 0), so
//!   its row sweeps may cover the whole zero-padded row.
//! * **Single-pass probing.** The `r` candidate rows and columns of an
//!   operation are computed once per operation with an iterative LCG walk
//!   ([`higgs_common::hashing::AddressSequence::fill_sequence`]) into stack
//!   arrays, and insertion finds a match *and* the first free slot in one
//!   fused sweep of the `r × r` candidate buckets.
//! * **One hash per endpoint per query.** Query-plan evaluation hashes each
//!   vertex once and re-partitions the hash per visited layer, instead of
//!   re-hashing per plan target.
//!
//! * **Columnar batch evaluation.** The batch executor inverts the classic
//!   per-query loop: each range group's queries are decomposed into
//!   primitive probes, deduplicated, their endpoints hashed once, and the
//!   probe set sorted by bucket address — then every plan target's slab is
//!   swept **once**, answering all probes against it. N queries × T targets
//!   of scattered walks become T cache-friendly passes.
//!
//! The `matrix_layout` Criterion group in `higgs-bench` tracks the raw
//! matrix insert/probe costs at `d ∈ {64, 256}` (including the
//! `probe_sweep` ids covering the fixed-length SoA sweeps); `insert_throughput`
//! and `edge_query`/`vertex_query` track the end-to-end effect, the
//! `plan_cache` group tracks cold-vs-warm repeated-window batches and
//! columnar-vs-per-query evaluation, and `query_batch/columnar_prefetch`
//! tracks the prefetched columnar executor.
//!
//! # Hardware acceleration
//!
//! The slab sweep kernels and worker placement push the hot paths toward
//! the machine's limits; everything below is std-only (no new crates) and
//! degrades gracefully off x86-64 Linux:
//!
//! * **SIMD candidate scans.** The sweeps above funnel through
//!   [`higgs_common::sum_matching`], a key-first kernel: only the keys
//!   column is streamed unconditionally, and tag/weight columns load on the
//!   rare key hits. Building with the **`simd` cargo feature** (forwarded
//!   to `higgs-common`; `cargo build --features simd`) additionally compiles
//!   explicit SSE2/AVX2 kernels — vectorised masked key compares reduced to
//!   a movemask — and picks the widest one at **runtime** via
//!   `is_x86_feature_detected!` — one cached dispatch decision per process,
//!   scalar fallback everywhere else (non-x86, short slices, unsupported
//!   CPUs). All kernels resolve hits through the identical slot check in
//!   the identical ascending order, so they are **bit-identical** to the
//!   scalar reference; the property suite asserts this across random
//!   insert/delete/query workloads under both feature configurations, so the
//!   feature can never change an answer, only its speed.
//! * **Software-prefetched columnar sweeps.** The columnar batch executor
//!   knows its whole (address-sorted, deduplicated) probe set in advance, so
//!   while answering probe `k` it issues [`higgs_common::prefetch_read_data`]
//!   hints for probe `k + 8`'s slab lines, and the strided
//!   destination-column sweep prefetches a few row-strides ahead. Prefetch
//!   is a pure hint: bounds-checked, no-op off x86-64, never affects
//!   results.
//! * **Core-pinned shard writers.** [`HiggsConfigBuilder::pin_workers`]
//!   pins each shard's writer thread to core
//!   `shard_index % available_cores` via raw `sched_setaffinity` syscalls
//!   ([`higgs_common::affinity`]), keeping every shard's slabs resident in
//!   one core's private cache. Pinning is best-effort (no-op off Linux
//!   x86-64), and is runtime placement state — never persisted in
//!   snapshots; a restored service starts unpinned.
//!
//! # Plan caching & invalidation
//!
//! The Algorithm-3 boundary search depends only on the queried
//! [`TimeRange`](higgs_common::TimeRange) and the tree shape — not on the
//! queried vertices — which makes it perfectly reusable *across* batches: a
//! sliding-window screen re-submits the same windows every tick. Each
//! [`HiggsSummary`] therefore owns a bounded LRU [`PlanCache`]
//! (capacity via [`HiggsConfigBuilder::plan_cache_capacity`], default
//! [`plan_cache::DEFAULT_PLAN_CACHE_CAPACITY`]; `0` disables it) consulted
//! by the typed surface ([`TemporalGraphSummary::query`](higgs_common::TemporalGraphSummary::query)
//! / [`query_batch`](higgs_common::TemporalGraphSummary::query_batch)).
//!
//! **Epoch semantics.** Every summary carries a monotonically increasing
//! *mutation epoch* ([`HiggsSummary::mutation_epoch`]), bumped by each
//! insert, delete, and aggregate materialisation (including deferred
//! aggregations installed later by [`ParallelHiggs`] workers). Cached plans
//! record the epoch they were built at; a lookup whose entry is stale evicts
//! it and rebuilds. A cached plan is thus always bit-identical to what
//! [`HiggsSummary::plan`] would build at that instant, so caching can never
//! change results — only remove boundary searches.
//! [`HiggsSummary::plans_built`] counts only real boundary searches (cache
//! misses); [`HiggsSummary::plan_cache_hits`] counts lookups served from the
//! cache, and a fully warm batch builds **zero** plans.
//!
//! **Sharded interaction with the flush clock.** In a [`ShardedHiggs`] every
//! shard's summary owns its own cache under the shard `RwLock`. Writers bump
//! the shard's epoch while applying mutations under the write lock, and the
//! service's read-your-writes flush clock makes every trait query wait for
//! previously enqueued mutations before taking read locks — so a query is
//! never served a plan predating a mutation it is entitled to observe. The
//! raw `edge_query`/`vertex_query` primitives deliberately bypass the cache;
//! they are the reference path the cached surface is property-tested
//! against.
//!
//! # Scaling out
//!
//! One process-wide summary serves one ingest thread; production traffic
//! wants many cores ingesting and many threads serving. [`ShardedHiggs`]
//! (module [`shard`]) is that layer: a fixed-`N` array of [`HiggsSummary`]
//! shards partitioned by **hash of the source vertex**
//! ([`higgs_common::hashing::shard_of`], configured via
//! [`HiggsConfigBuilder::shards`]). The routing rules are:
//!
//! | query kind          | route                                            |
//! |---------------------|--------------------------------------------------|
//! | edge `s → d`        | the shard owning `s`                             |
//! | vertex, out         | the shard owning the vertex                      |
//! | vertex, in          | every shard, results summed                      |
//! | path / subgraph     | one edge query per hop/edge, each by its source  |
//!
//! Because an edge is recorded exactly on its source's shard, the gathered
//! results match an unsharded summary (bit-identical in the collision-free
//! regime, still one-sided under collisions).
//!
//! Ingest routes each edge to a dedicated per-shard writer thread over a
//! FIFO channel. Each writer inserts into its shard's [`HiggsSummary`] and
//! aggregates inline, building each new node bottom-up from its θ children
//! (Algorithm 2) — so leaf insertion and group-close aggregation both stay
//! off the ingest thread, which only hashes and enqueues, with one thread
//! per shard. (Nesting a [`ParallelHiggs`] pool behind each writer was
//! measured slower: its jobs must rebuild every node from the leaves.)
//! Queries are read-your-writes
//! (each trait query first waits for previously enqueued mutations to land)
//! and run under per-shard read locks, so any number of threads can serve
//! while an [`shard::IngestHandle`] streams new edges in.
//!
//! **Plan sharing per shard:** the batch surface of [`ShardedHiggs`] routes
//! per-shard sub-batches through each shard's plan-sharing columnar
//! executor, so a batch costs at most one Algorithm-3 boundary search per
//! distinct [`TimeRange`](higgs_common::TimeRange) *per shard it touches* —
//! never one per query, hop, or subgraph edge — and, thanks to each shard's
//! cross-batch [`PlanCache`], **zero** boundary searches when the same
//! windows are re-submitted with no intervening mutation.
//!
//! **Ingest backpressure:** [`HiggsConfigBuilder::ingest_queue_cap`] bounds
//! each shard's writer queue; producers that outrun a writer then block
//! (bounded channels with blocking sends) instead of growing memory without
//! bound. The default stays unbounded.
//!
//! The `sharding` Criterion group in `higgs-bench` tracks ingest-path
//! throughput, full ingest completion, and batch-serving latency at 1–8
//! shards against the single-summary and [`ParallelHiggs`] baselines.
//!
//! # Serving & admission control
//!
//! [`ShardedHiggs`] shares plans *within* one batch; [`HiggsService`]
//! (module [`serving`]) extends that sharing *across clients*. It wraps a
//! [`ShardedHiggs`] with a submission queue, an admission thread, and one
//! evaluation worker per shard, and hands out cloneable [`ServiceClient`]
//! handles — one typed surface for query submission, fallible ingest, and
//! flush.
//!
//! **The tick model.** The admission thread blocks for the first queued
//! submission, optionally holds the tick open for
//! [`HiggsConfigBuilder::admission_tick`] (default `Duration::ZERO`), then
//! drains everything else already queued. One tick becomes one coalesced
//! batch.
//!
//! **The coalescing guarantee.** Per priority class, a tick's queries are
//! concatenated, planned once ([`higgs_common::ShardPlan`]), and evaluated
//! as a single columnar `query_batch` per shard — so N clients submitting
//! the same window in one tick cost at most one Algorithm-3 boundary search
//! per (window, shard) pair, and zero with a warm plan cache, exactly as if
//! one caller had submitted them as a single batch. Per-shard sub-batches
//! run concurrently on the per-shard workers.
//!
//! **Deadlines & priorities.** [`QueryOptions`](higgs_common::QueryOptions)
//! carries an optional deadline, a [`Priority`](higgs_common::Priority)
//! class, and a [`Consistency`](higgs_common::Consistency) mode. Within a
//! tick, classes evaluate strictly `Interactive` → `Normal` → `Bulk`;
//! submissions whose deadline elapsed while queueing complete with
//! [`ServiceError::DeadlineExceeded`] instead of being evaluated.
//!
//! **Consistency modes.** `ReadYourWrites` (the default, matching the
//! previous trait-query semantics) flushes enqueued ingest once per class
//! per tick before evaluating; `Relaxed` skips the flush, so an interactive
//! class of relaxed queries jumps ahead of pending ingest flushes entirely.
//!
//! **Backpressure & shutdown.** [`HiggsConfigBuilder::service_queue_depth`]
//! bounds the submission queue; a full queue fails the ticket immediately
//! with [`ServiceError::Overloaded`]. Dropping the service resolves every
//! in-flight ticket (result or [`ServiceError::Shutdown`]), joins the
//! serving threads, then joins the shard writers; surviving clients fail
//! fast with typed errors.
//!
//! **Migrating from the old three-handle surface.** Previously a serving
//! deployment juggled `&ShardedHiggs` for queries, an [`IngestHandle`] for
//! writes (with `bool` returns), and `flush()`:
//!
//! | before (v0 surface)              | after ([`ServiceClient`])                        |
//! |----------------------------------|--------------------------------------------------|
//! | `sharded.query(&q)`              | `client.query(&q)?` / `client.submit(q).wait()`  |
//! | `sharded.query_batch(&qs)`       | `client.query_batch(&qs)?` / `submit_batch`      |
//! | `handle.insert(&e)` → `bool`     | `client.insert(&e)` → `Result<(), IngestError>`  |
//! | `handle.insert_all(&es)` → count | `client.insert_all(&es)` → `Result<(), IngestError>` |
//! | `handle.delete(&e)` → `bool`     | `client.delete(&e)` → `Result<(), IngestError>`  |
//! | `sharded.flush()`                | `client.flush()`                                 |
//! | per-query flush, no classes      | [`QueryOptions`](higgs_common::QueryOptions) (deadline / priority / consistency) |
//!
//! Direct [`ShardedHiggs`] use (and [`HiggsService::summary`]) remains fully
//! supported for embedded, single-owner deployments — the service layer is
//! additive.
//!
//! The `serving` Criterion group in `higgs-bench` tracks coalesced-vs-
//! independent evaluation and client-observed p50/p99 latency under 128
//! simulated clients.
//!
//! # Persistence & warm restart
//!
//! A service serving heavy traffic cannot re-ingest its stream after every
//! restart; the summary itself — orders of magnitude smaller than the raw
//! temporal graph — is the state worth persisting. Module [`snapshot`]
//! provides that as a versioned, checksummed binary format built on
//! [`higgs_common::codec`]:
//!
//! * [`HiggsSummary::write_snapshot`] / [`HiggsSummary::read_snapshot`]
//!   persist one summary to any `Write`/`Read` stream. Matrices are
//!   written raw (occupancy array + occupied slots + spill list) and decode
//!   straight into their sealed form, so every query answers
//!   bit-identically after a restore.
//! * [`ShardedHiggs::snapshot_to_dir`] writes one file per shard plus a
//!   manifest (format version, full config — the shard count is the only
//!   routing state, since [`higgs_common::hashing::shard_of`] is a pure
//!   function — and per-shard checksums); [`Store::open`] with
//!   [`StoreOptions::restore`] rebuilds a warm service with fresh writer
//!   threads and empty queues.
//!
//! **Consistency.** `snapshot_to_dir` drives the same acked-`Flush` clock
//! queries use, so a snapshot is read-your-writes consistent: it covers
//! every mutation enqueued before the call, background aggregations
//! included. Producers still ingesting *during* the snapshot land per shard
//! or not at all (the per-shard-prefix semantics concurrent readers
//! already get).
//!
//! **Verification.** Every file closes with a word-at-a-time checksum of
//! all its bytes; restore verifies magic, format version, section framing,
//! structural invariants, per-file checksums, and the manifest's shard
//! census before any state is served — each failure is a typed
//! [`SnapshotError`], never a panic or a silently wrong answer. The format
//! version is bumped on layout changes and files of any other version are
//! refused (see the [`snapshot`] module docs for the full layout, check
//! order and versioning policy).
//!
//! Runtime state (plan cache, plan counters) is not persisted: a restored
//! summary starts with a cold plan cache but the persisted mutation epoch,
//! so epoch monotonicity — and with it cache-invalidation correctness —
//! carries across restarts. Snapshotting the plan cache alongside the
//! summary is a named ROADMAP follow-on.
//!
//! # Durability & crash recovery
//!
//! Snapshots bound data loss to "everything since the last snapshot"; the
//! write-ahead journal (module [`journal`]) closes that window. A *durable*
//! service ([`Store::open`] with [`StoreOptions::durable`]) keeps one
//! append-only, per-record-checksummed journal file per shard next to the
//! snapshot files, and each shard's writer thread appends every mutation
//! **before** applying it. After a crash, the same [`Store::open`] call
//! reconstructs the state as `snapshot + journal tail replay` — a torn final
//! record
//! (the expected crash artifact) stops replay cleanly, while interior
//! corruption fails with a typed [`JournalError`]. Re-arming a surviving
//! journal for appends first trims any torn tail back to the last complete
//! record, so post-recovery appends always extend a clean record boundary.
//!
//! **Sync policy.** [`HiggsConfigBuilder::journal_mode`] picks the
//! durability/throughput point: [`JournalMode::Off`] (no journal — the
//! previous behaviour, and the default), [`JournalMode::Buffered`] (every
//! record leaves process buffers before the mutation applies; an OS crash
//! can lose the tail), or [`JournalMode::SyncEveryN`] (additionally
//! `fsync`s every `n` records, bounding loss to `n` acknowledged
//! mutations even across power failure).
//!
//! **Rotation.** A successful [`ShardedHiggs::snapshot_to_dir`] into the
//! durable directory truncates each shard's journal under a writer fence,
//! so every mutation lives in exactly one of {snapshot, journal}. A failed
//! snapshot leaves every journal intact, and shard health is re-checked
//! *after* the fence parks every writer: a shard that degraded while the
//! fence was forming aborts the snapshot
//! ([`SnapshotError::DegradedShard`]) instead of stamping a manifest over
//! its partial state.
//!
//! **Writer supervision.** A panic while applying a mutation (or flushing
//! at the snapshot fence) no longer takes the shard down silently: the
//! shard is marked [`ShardHealth::Degraded`], queries against it through a
//! [`HiggsService`] fail fast with [`ServiceError::ShardUnavailable`]
//! (never a hang), and a durable service respawns the writer from
//! `snapshot + journal replay`, returning the shard to
//! [`ShardHealth::Healthy`] — [`ShardedHiggs::shard_health`] exposes the
//! board. Respawns beyond the first back off exponentially and are
//! budgeted ([`shard::MAX_WRITER_RESPAWNS`] per shard): a persistent fault
//! parks the shard in a degraded drain instead of spinning
//! rebuild → fail → respawn. Why a recovery failed — journal corruption,
//! transient I/O, a missing manifest, an exhausted budget — is recorded
//! per shard and exposed via [`ShardedHiggs::shard_recovery_errors`]
//! (cleared on success), alongside
//! [`ShardedHiggs::shard_respawn_counts`]. Clients opt into bounded
//! exponential-backoff retry of the transient errors (`Overloaded`,
//! `ShardUnavailable`) via
//! [`QueryOptions::retry`](higgs_common::QueryOptions::retry).
//!
//! The fault-injection harness behind the recovery tests lives in
//! `crates/shims/failpoint` and compiles in only under the `failpoints`
//! cargo feature; production builds carry zero overhead.
//!
//! # Elastic scaling & replication
//!
//! A shard count chosen at launch stops fitting once the stream grows — but
//! [`higgs_common::hashing::shard_of`] routing means a summary folded at `N`
//! shards cannot simply be re-cut into `M`. The *elastic history* (module
//! [`history`]; opt in with [`StoreOptions::elastic`]) solves this: every
//! writer appends each mutation, stamped with a global ingest sequence, to a
//! per-shard, append-only, never-truncated history log alongside the
//! journal. Re-streaming that history through `shard_of` at a new count
//! rebuilds exactly the service a fresh `M`-shard build would have produced
//! — queries answer **bit-identically** (guaranteed for single-producer
//! workloads; see the [`reshard`] module docs), property-tested across every
//! `N → M` pair.
//!
//! * **Offline:** [`Store::open_resharded`] folds a closed directory at a
//!   new width (the directory must hold a snapshot manifest to take the
//!   configuration from).
//! * **Online:** [`ShardedHiggs::reshard`] fences the live writer fleet,
//!   folds, commits the new snapshot, and swaps the shard array without
//!   dropping an acknowledged mutation — surviving [`IngestHandle`] clones
//!   keep routing, at the new width. Failures before the snapshot commit
//!   abort with the service unchanged; every path is a typed
//!   [`ReshardError`].
//!
//! **Warm followers.** The journal doubles as a replication log: a
//! [`Follower`] ([`Store::follow`]) bootstraps from the directory's
//! snapshot, then ships each shard's journal tail from a private cursor on
//! every [`Follower::sync`] — see the [`replica`] module docs for the
//! shipping protocol, [`ReplicationLag`] reporting, and the
//! rotation-detection rules. [`ReplicaService`] wraps a follower in the
//! same admission/worker serving stack for **read-only** fan-out (mutation
//! calls report [`IngestError::ReadOnly`]), syncing on a background cadence
//! and publishing lag through [`ServiceClient::health`]. After a leader
//! crash, [`Follower::promote`] final-syncs and assembles a serving leader
//! that holds every acknowledged mutation — chaos-tested under the
//! `failpoints` feature.
//!
//! **Migrating to the [`Store`] API.** The constructor pairs that
//! accumulated around durability are subsumed by one typed entry point —
//! [`Store::open`] on a [`StoreOptions`] value with an explicit
//! [`OpenMode`]. The old constructors have been removed, and so has the
//! per-shard aggregation-worker count (writers aggregate inline):
//!
//! | removed                                                 | use instead                                    |
//! |---------------------------------------------------------|------------------------------------------------|
//! | `ShardedHiggs::new_durable(cfg, dir)`                   | `Store::open(StoreOptions::durable(cfg, dir))` |
//! | `ShardedHiggs::new_durable_with_workers(c, d, w)`       | `Store::open(StoreOptions::durable(c, d))`     |
//! | `ShardedHiggs::restore_from_dir(dir)`                   | `Store::open(StoreOptions::restore(dir))`      |
//! | `ShardedHiggs::restore_from_dir_with_workers(d, w)`     | `Store::open(StoreOptions::restore(d))`        |
//! | `ShardedHiggs::try_with_workers(cfg, w)`                | `ShardedHiggs::try_new(cfg)`                   |
//! | `ShardedHiggs::restore_resharded_with_workers(d, m, w)` | `ShardedHiggs::restore_resharded(d, m)`        |
//! | `StoreOptions::workers(w)`                              | — (drop the call)                              |
//!
//! [`Store::open_resharded`] and [`Store::follow`] take the same
//! [`StoreOptions`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregate;
pub mod boundary;
pub mod config;
mod framing;
pub mod history;
pub mod journal;
pub mod matrix;
pub mod node;
pub mod overflow;
pub mod parallel;
pub mod plan_cache;
pub mod query;
pub mod replica;
pub mod reshard;
pub mod serving;
pub mod shard;
pub mod snapshot;
pub mod store;
pub mod tree;

pub use boundary::{QueryPlan, QueryTarget};
pub use config::{ConfigError, HiggsConfig, HiggsConfigBuilder, JournalMode};
pub use history::{HistoryOp, HistoryOpKind};
pub use journal::{Journal, JournalError, JournalRecord};
pub use matrix::CompressedMatrix;
pub use parallel::ParallelHiggs;
pub use plan_cache::PlanCache;
pub use replica::{Follower, ReplicaError, ReplicaProgress, ReplicationLag};
pub use reshard::ReshardError;
pub use serving::{
    BatchTicket, HealthReport, HiggsService, ReplicaService, ServiceClient, ServiceError, Ticket,
};
pub use shard::{IngestError, IngestHandle, ShardHealth, ShardedHiggs, WriterCensus};
pub use snapshot::{SnapshotError, SnapshotManifest};
pub use store::{OpenMode, Store, StoreOptions};
pub use tree::HiggsSummary;
