//! Deterministic crash-recovery chaos tests, driven by the `fail` failpoint
//! shim. Compiled only under the `failpoints` feature (CI runs
//! `cargo test -p higgs-integration-tests --features failpoints`); a default
//! build contains no fault-injection hooks at all.
//!
//! Every scenario follows the same shape: build a *control* service that
//! never faults, run a workload through a *faulty* service with one armed
//! failpoint (journal or history append error, snapshot write error, or an
//! apply panic), let supervision recover the writer, and require the faulty
//! service — and a cold restart from its durable directory — to answer
//! **bit-identically** to the control. Failpoints are counted and
//! single-shot, so each run kills the writer at exactly the same point:
//! no timing races, no flaky kills.
//!
//! The failpoint registry and the writer census are process-global, so
//! every test serialises on [`CHAOS_LOCK`] and resets the registry on both
//! sides of its run.

#![cfg(feature = "failpoints")]

use higgs::shard::{WriterCensus, MAX_WRITER_RESPAWNS};
use higgs::{
    HiggsConfig, HiggsService, JournalMode, ReshardError, ServiceError, ShardHealth, ShardedHiggs,
    SnapshotError, Store, StoreOptions,
};
use higgs_common::{Query, QueryOptions, RetryPolicy, StreamEdge, TemporalGraphSummary, TimeRange};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serialises chaos tests: the failpoint registry and the writer census are
/// both process-wide, and a stray armed failpoint would fire in an
/// unrelated test's writer.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Locks the chaos mutex (surviving a poisoned lock from an earlier failed
/// test) and clears any stale failpoint arming.
fn chaos_guard() -> std::sync::MutexGuard<'static, ()> {
    let guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    fail::reset();
    guard
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("higgs-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(shards: usize) -> HiggsConfig {
    HiggsConfig::builder()
        .shards(shards)
        .journal_mode(JournalMode::Buffered)
        .build()
        .expect("valid durable configuration")
}

fn workload(n: u64) -> Vec<StreamEdge> {
    (0..n)
        .map(|i| StreamEdge::new(i % 50, (i * 13) % 50, 1 + i % 4, i))
        .collect()
}

fn probes() -> Vec<Query> {
    (0..25u64)
        .map(|k| Query::edge(k % 50, (k * 13) % 50, TimeRange::all()))
        .collect()
}

/// Reference answers from a service that never faults. Built *before* any
/// failpoint is armed, so the control can never absorb an injected fault.
fn control_answers(shards: usize, edges: &[StreamEdge]) -> Vec<higgs_common::Weight> {
    let mut control = ShardedHiggs::new(
        HiggsConfig::builder()
            .shards(shards)
            .build()
            .expect("valid configuration"),
    );
    for e in edges {
        higgs_common::TemporalGraphSummary::insert(&mut control, e);
    }
    control.query_batch(&probes())
}

/// Polls until every shard reports `Healthy` (recovery finished) or the
/// deadline passes.
fn await_all_healthy(service: &ShardedHiggs) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if service
            .shard_health()
            .iter()
            .all(|h| *h == ShardHealth::Healthy)
        {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "shards still degraded after 10s: {:?}",
            service.shard_health()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Polls until the writer census settles at `expected` (the dying writer's
/// counter guard drops shortly after its replacement is registered).
fn await_census(census: &WriterCensus, expected: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while census.live() != expected {
        assert!(
            Instant::now() < deadline,
            "writer census stuck at {} (expected {expected})",
            census.live()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// An apply panic kills the writer mid-command; the record was journaled
/// first, so the respawned writer rebuilds the shard and replays it —
/// the faulty service, and a cold restart from its directory, answer
/// bit-identically to a never-crashed control at every shard count.
#[test]
fn apply_panic_recovers_bit_identical_to_control() {
    let _guard = chaos_guard();
    let edges = workload(600);
    for shards in [1usize, 2, 4] {
        let expected = control_answers(shards, &edges);
        let dir = temp_dir(&format!("apply-panic-{shards}"));

        let service = Store::open(StoreOptions::durable(durable_config(shards), &dir))
            .expect("durable service");
        let handle = service.ingest_handle();
        fail::configure("shard::apply", 3, fail::Action::Panic);
        for e in &edges {
            handle.insert(e).expect("live ingest");
        }
        service.flush();
        assert!(
            fail::hits("shard::apply") >= 3,
            "the instrumented apply path was never reached"
        );
        await_all_healthy(&service);
        await_census(&service.writer_census(), shards);
        assert_eq!(
            service.query_batch(&probes()),
            expected,
            "{shards}-shard recovery after an apply panic must be bit-identical"
        );

        // Cold restart from the same directory: the journal alone (no
        // snapshot was ever taken) rebuilds the identical state.
        let census = service.writer_census();
        drop(service);
        assert_eq!(census.live(), 0, "drop joins respawned writers");
        let reborn =
            Store::open(StoreOptions::durable(durable_config(shards), &dir)).expect("cold restart");
        assert_eq!(
            reborn.query_batch(&probes()),
            expected,
            "{shards}-shard restart"
        );
        drop(reborn);
        std::fs::remove_dir_all(&dir).expect("cleanup");
        fail::reset();
    }
}

/// A journal append failure degrades the writer *before* the command was
/// journaled or applied; the command is carried over to the replacement
/// writer, so no acknowledged mutation is lost.
#[test]
fn journal_append_failure_loses_no_acknowledged_mutation() {
    let _guard = chaos_guard();
    let edges = workload(400);
    for shards in [1usize, 2, 4] {
        let expected = control_answers(shards, &edges);
        let dir = temp_dir(&format!("append-fail-{shards}"));

        let service = Store::open(StoreOptions::durable(durable_config(shards), &dir))
            .expect("durable service");
        let handle = service.ingest_handle();
        fail::configure(
            "journal::append",
            5,
            fail::Action::Error("injected disk fault".into()),
        );
        for e in &edges {
            handle.insert(e).expect("live ingest");
        }
        service.flush();
        assert!(
            fail::hits("journal::append") >= 5,
            "the instrumented append path was never reached"
        );
        await_all_healthy(&service);
        assert_eq!(
            service.query_batch(&probes()),
            expected,
            "{shards}-shard recovery after an append fault must be bit-identical"
        );

        drop(service);
        let reborn =
            Store::open(StoreOptions::durable(durable_config(shards), &dir)).expect("cold restart");
        assert_eq!(
            reborn.query_batch(&probes()),
            expected,
            "{shards}-shard restart"
        );
        drop(reborn);
        std::fs::remove_dir_all(&dir).expect("cleanup");
        fail::reset();
    }
}

/// On an elastic store the history append comes first, so a history append
/// failure degrades the writer before the command reached the journal or the
/// summary; the command is carried over to the replacement writer, which
/// records and applies it. An online reshard and a cold restart then rebuild
/// from the history and the snapshot it commits, so a carryover record lost
/// from, or counted twice in, either log shows up in their answers.
#[test]
fn history_append_failure_loses_no_acknowledged_mutation() {
    let _guard = chaos_guard();
    let edges = workload(400);
    let expected = control_answers(2, &edges);
    let expected_resharded = control_answers(3, &edges);
    let dir = temp_dir("history-append-fail");

    let mut service = Store::open(StoreOptions::durable(durable_config(2), &dir).elastic(true))
        .expect("elastic durable service");
    let handle = service.ingest_handle();
    fail::configure(
        "history::append",
        5,
        fail::Action::Error("injected history fault".into()),
    );
    for e in &edges {
        handle.insert(e).expect("live ingest");
    }
    service.flush();
    assert!(
        fail::hits("history::append") >= 5,
        "the instrumented history append was never reached"
    );
    await_all_healthy(&service);
    assert_eq!(
        service.shard_respawn_counts().iter().sum::<u32>(),
        1,
        "exactly one writer failed and was respawned"
    );
    assert_eq!(
        service.query_batch(&probes()),
        expected,
        "recovery after a history append fault must be bit-identical"
    );

    service.reshard(3).expect("online reshard");
    assert_eq!(
        service.query_batch(&probes()),
        expected_resharded,
        "the refolded history must hold the carried-over mutation exactly once"
    );
    drop(service);
    let reborn = Store::open(StoreOptions::durable(durable_config(3), &dir)).expect("cold restart");
    assert_eq!(
        reborn.query_batch(&probes()),
        expected_resharded,
        "restart after a history append fault and a reshard"
    );
    drop(reborn);
    std::fs::remove_dir_all(&dir).expect("cleanup");
    fail::reset();
}

/// A failed snapshot must leave the journals untouched (the rotation fence
/// releases with "keep"), keep serving identical results, and a retried
/// snapshot afterwards rotates normally.
#[test]
fn failed_snapshot_keeps_journals_and_state() {
    let _guard = chaos_guard();
    let edges = workload(500);
    for shards in [1usize, 2, 4] {
        let expected = control_answers(shards, &edges);
        let dir = temp_dir(&format!("snap-fail-{shards}"));

        let service = Store::open(StoreOptions::durable(durable_config(shards), &dir))
            .expect("durable service");
        let handle = service.ingest_handle();
        for e in &edges {
            handle.insert(e).expect("live ingest");
        }
        service.flush();
        let journal_len = |s: usize| {
            std::fs::metadata(dir.join(higgs::journal::journal_file_name(s)))
                .expect("journal exists")
                .len()
        };
        let before: Vec<u64> = (0..shards).map(journal_len).collect();
        assert!(
            before.iter().all(|&len| len > 0),
            "buffered journals must hold the workload"
        );

        fail::configure(
            "snapshot::write_shard",
            1,
            fail::Action::Error("injected snapshot fault".into()),
        );
        service
            .snapshot_to_dir(&dir)
            .expect_err("armed snapshot must fail");
        let after: Vec<u64> = (0..shards).map(journal_len).collect();
        assert_eq!(
            before, after,
            "a failed snapshot must not rotate (truncate) any journal"
        );
        assert_eq!(
            service.query_batch(&probes()),
            expected,
            "{shards}-shard service must keep serving after a failed snapshot"
        );

        // The failpoint is single-shot and already spent: the retry rotates.
        service.snapshot_to_dir(&dir).expect("retried snapshot");
        let rotated: Vec<u64> = (0..shards).map(journal_len).collect();
        assert!(
            rotated.iter().zip(&before).all(|(r, b)| r < b),
            "a successful snapshot truncates every journal ({before:?} -> {rotated:?})"
        );

        drop(service);
        let reborn =
            Store::open(StoreOptions::durable(durable_config(shards), &dir)).expect("cold restart");
        assert_eq!(
            reborn.query_batch(&probes()),
            expected,
            "{shards}-shard restart from snapshot + empty journal tail"
        );
        drop(reborn);
        std::fs::remove_dir_all(&dir).expect("cleanup");
        fail::reset();
    }
}

/// A panic in the fence-path flush (the snapshot barrier) must not hang the
/// snapshot holder or poison the shard lock: the writer degrades *before*
/// acking the fence, the post-fence health re-check aborts the snapshot with
/// `DegradedShard` (journals kept — the partial summary is never stamped
/// into a manifest), supervision respawns the writer from the journal, and a
/// retried snapshot rotates normally with bit-identical results.
#[test]
fn fence_flush_panic_aborts_snapshot_then_recovers() {
    let _guard = chaos_guard();
    let edges = workload(500);
    for shards in [1usize, 2, 4] {
        let expected = control_answers(shards, &edges);
        let dir = temp_dir(&format!("fence-panic-{shards}"));

        let service = Store::open(StoreOptions::durable(durable_config(shards), &dir))
            .expect("durable service");
        let handle = service.ingest_handle();
        for e in &edges {
            handle.insert(e).expect("live ingest");
        }
        service.flush();

        fail::configure("shard::fence_flush", 1, fail::Action::Panic);
        let err = service
            .snapshot_to_dir(&dir)
            .expect_err("a snapshot over a panicking fence flush must abort");
        assert!(
            matches!(err, SnapshotError::DegradedShard { .. }),
            "expected DegradedShard, got: {err}"
        );
        assert!(
            fail::hits("shard::fence_flush") >= 1,
            "the instrumented fence flush was never reached"
        );

        // Supervision recovers the writer from the (untouched) journal.
        await_all_healthy(&service);
        await_census(&service.writer_census(), shards);
        assert_eq!(
            service.query_batch(&probes()),
            expected,
            "{shards}-shard recovery after a fence-flush panic must be bit-identical"
        );

        // The failpoint is single-shot and spent: the retry rotates.
        service.snapshot_to_dir(&dir).expect("retried snapshot");
        assert_eq!(service.query_batch(&probes()), expected);

        drop(service);
        let reborn =
            Store::open(StoreOptions::durable(durable_config(shards), &dir)).expect("cold restart");
        assert_eq!(
            reborn.query_batch(&probes()),
            expected,
            "{shards}-shard restart after an aborted-then-retried snapshot"
        );
        drop(reborn);
        std::fs::remove_dir_all(&dir).expect("cleanup");
        fail::reset();
    }
}

/// A fault that recurs on every writer generation must not respawn forever:
/// after [`MAX_WRITER_RESPAWNS`] failures the shard parks in degraded drain
/// permanently, the recorded recovery error names the exhausted budget,
/// snapshots refuse the shard, and flush stays non-blocking.
#[test]
fn persistent_fault_exhausts_the_respawn_budget_and_parks_the_shard() {
    let _guard = chaos_guard();
    let dir = temp_dir("respawn-budget");
    let service =
        Store::open(StoreOptions::durable(durable_config(1), &dir)).expect("durable service");
    let handle = service.ingest_handle();
    handle.insert(&StreamEdge::new(1, 2, 5, 1)).expect("live");
    service.flush();

    // One failure per round. The first MAX_WRITER_RESPAWNS rounds recover
    // (the single-shot failpoint is spent by the time the replacement
    // re-drives the carried-over command); the final round finds the budget
    // exhausted and parks the shard.
    for round in 0..=MAX_WRITER_RESPAWNS {
        fail::configure(
            "journal::append",
            1,
            fail::Action::Error("persistent disk fault".into()),
        );
        handle
            .insert(&StreamEdge::new(2, 3, 1, u64::from(round) + 2))
            .expect("queued");
        service.flush();
        if round < MAX_WRITER_RESPAWNS {
            await_all_healthy(&service);
        }
    }
    assert_eq!(
        service.shard_health(),
        vec![ShardHealth::Degraded],
        "an exhausted respawn budget must park the shard permanently"
    );
    assert_eq!(
        service.shard_respawn_counts(),
        vec![MAX_WRITER_RESPAWNS + 1],
        "every failure must be counted against the budget"
    );
    let reasons = service.shard_recovery_errors();
    assert!(
        reasons[0]
            .as_deref()
            .is_some_and(|r| r.contains("respawn budget exhausted")),
        "the parked shard must record why: {reasons:?}"
    );
    assert!(
        matches!(
            service.snapshot_to_dir(&dir),
            Err(SnapshotError::DegradedShard { shard: 0 })
        ),
        "a parked shard must refuse to snapshot"
    );
    // The drain keeps acknowledging flushes: nothing blocks on the shard.
    service.flush();
    let census = service.writer_census();
    drop(service);
    assert_eq!(census.live(), 0, "drop joins the parked drain");
    std::fs::remove_dir_all(&dir).expect("cleanup");
    fail::reset();
}

/// Without a durable record there is nothing to recover from: the shard
/// stays degraded, queries routed at it fail fast with the typed
/// `ShardUnavailable` error (never a hang), ingest and flush stay
/// non-blocking, and retry policies exhaust cleanly.
#[test]
fn degraded_shard_without_recovery_fails_queries_fast() {
    let _guard = chaos_guard();
    let service = HiggsService::new(
        HiggsConfig::builder()
            .shards(1)
            .build()
            .expect("valid configuration"),
    );
    let client = service.client();
    client.insert(&StreamEdge::new(1, 2, 5, 10)).expect("live");
    assert_eq!(client.query(&Query::edge(1, 2, TimeRange::all())), Ok(5));

    // Kill the only writer; journaling is off, so recovery is impossible.
    fail::configure("shard::apply", 1, fail::Action::Panic);
    client
        .insert(&StreamEdge::new(3, 4, 7, 11))
        .expect("queued");
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.summary().shard_health() != vec![ShardHealth::Degraded] {
        assert!(Instant::now() < deadline, "shard never degraded");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Tickets resolve with the typed error instead of hanging on the dead
    // writer's flush.
    let ticket = client.submit(Query::edge(1, 2, TimeRange::all()));
    assert_eq!(ticket.wait(), Err(ServiceError::ShardUnavailable));
    // Batches fail atomically with the same error.
    assert_eq!(
        client.query_batch(&[Query::edge(1, 2, TimeRange::all())]),
        Err(ServiceError::ShardUnavailable)
    );
    // A retry policy burns its bounded backoff schedule, then surfaces the
    // same transient error — bounded time, no hang.
    let opts =
        QueryOptions::new().retry(RetryPolicy::retries(2).base_backoff(Duration::from_millis(1)));
    assert_eq!(
        client.query_with(&Query::edge(1, 2, TimeRange::all()), opts),
        Err(ServiceError::ShardUnavailable)
    );
    // Ingest surfaces stay non-blocking while degraded.
    client
        .insert(&StreamEdge::new(5, 6, 1, 12))
        .expect("queued");
    client.flush();
    fail::reset();
}

/// A fault in the reshard's snapshot commit is **pre-commit**: the fence
/// releases, the service keeps its old width, ingest handles keep working,
/// and a disarmed retry completes the swap — after which a cold restart
/// recovers at the new width.
#[test]
fn reshard_commit_fault_aborts_pre_commit_and_retries_cleanly() {
    let _guard = chaos_guard();
    let edges = workload(500);
    let extra = StreamEdge::new(7, 8, 2, 9_000);
    let expected_old = control_answers(2, &edges);
    let expected_new = {
        let mut all = edges.clone();
        all.push(extra);
        control_answers(4, &all)
    };
    let dir = temp_dir("reshard-fault");

    let mut service = Store::open(StoreOptions::durable(durable_config(2), &dir).elastic(true))
        .expect("elastic durable service");
    let handle = service.ingest_handle();
    for e in &edges {
        handle.insert(e).expect("live ingest");
    }
    service.flush();

    fail::configure(
        "snapshot::write_shard",
        1,
        fail::Action::Error("injected reshard commit fault".into()),
    );
    let err = service
        .reshard(4)
        .expect_err("armed reshard commit must fail");
    assert!(
        matches!(err, ReshardError::Snapshot(_)),
        "expected Snapshot, got: {err}"
    );
    assert!(
        fail::hits("snapshot::write_shard") >= 1,
        "the instrumented snapshot commit was never reached"
    );
    // Pre-commit abort: old width, old answers, live handles.
    assert_eq!(service.num_shards(), 2);
    assert_eq!(
        service.writer_census().live(),
        2,
        "the old fleet must survive"
    );
    assert_eq!(
        service.query_batch(&probes()),
        expected_old,
        "an aborted reshard must keep serving the old layout bit-identically"
    );
    handle.insert(&extra).expect("post-abort ingest");
    service.flush();

    // The failpoint is single-shot and spent: the retry swaps the fleet.
    service.reshard(4).expect("retried reshard");
    assert_eq!(service.num_shards(), 4);
    assert_eq!(
        service.writer_census().live(),
        4,
        "the swap joins the old fleet"
    );
    assert_eq!(
        service.query_batch(&probes()),
        expected_new,
        "the retried reshard must fold the full history, post-abort ingest included"
    );

    drop(service);
    let reborn = Store::open(StoreOptions::durable(durable_config(4), &dir)).expect("cold restart");
    assert_eq!(
        reborn.query_batch(&probes()),
        expected_new,
        "restart at the new width after an aborted-then-retried reshard"
    );
    drop(reborn);
    std::fs::remove_dir_all(&dir).expect("cleanup");
    fail::reset();
}

/// Kill the leader's writer mid-ingest while a follower is shipping its
/// journals: every record is journaled **before** it is applied, so the
/// journal stays the complete acknowledged stream across the crash and the
/// recovery — the follower syncs to bit-identical state and a promotion
/// after the leader dies loses nothing.
#[test]
fn follower_ships_across_a_leader_writer_crash_and_promotes_complete() {
    let _guard = chaos_guard();
    let edges = workload(600);
    let expected = control_answers(2, &edges);
    let dir = temp_dir("ship-crash");

    let leader =
        Store::open(StoreOptions::durable(durable_config(2), &dir)).expect("durable leader");
    // Stamp the bootstrap snapshot (empty state) before any ingest.
    leader.snapshot_to_dir(&dir).expect("bootstrap snapshot");
    let mut follower = Store::follow(StoreOptions::restore(&dir)).expect("bootstrap");

    let handle = leader.ingest_handle();
    let (first, second) = edges.split_at(300);
    for e in first {
        handle.insert(e).expect("live ingest");
    }
    leader.flush();
    follower.sync().expect("mid-ingest ship");

    // The writer dies mid-stream; supervision replays the journal, whose
    // acknowledged prefix the follower keeps shipping from unchanged (a
    // recovery trims only torn, never-acknowledged tail bytes).
    fail::configure("shard::apply", 3, fail::Action::Panic);
    for e in second {
        handle.insert(e).expect("ingest across the crash");
    }
    leader.flush();
    assert!(
        fail::hits("shard::apply") >= 3,
        "the instrumented apply path was never reached"
    );
    await_all_healthy(&leader);
    assert_eq!(
        leader.query_batch(&probes()),
        expected,
        "the leader itself must recover bit-identically"
    );

    // The leader process dies after acknowledging everything.
    let census = leader.writer_census();
    drop(leader);
    assert_eq!(census.live(), 0, "drop joins the recovered fleet");

    let progress = follower.sync().expect("final ship");
    assert!(
        progress.records_applied > 0,
        "the post-crash tail must ship records"
    );
    assert_eq!(
        follower.query_batch(&probes()),
        expected,
        "a follower shipping across the crash must reach the acked state"
    );
    let mut promoted = follower.promote().expect("promote");
    assert_eq!(
        promoted.query_batch(&probes()),
        expected,
        "the promoted follower must serve the complete acknowledged history"
    );
    // The promoted service is a live leader again.
    promoted.insert(&StreamEdge::new(1, 2, 3, 50_000));
    promoted.flush();
    drop(promoted);
    std::fs::remove_dir_all(&dir).expect("cleanup");
    fail::reset();
}
