//! Elastic resharding: property suite over every `N -> M` pair in
//! `{1,2,3,4}²`, plus the typed failure paths.
//!
//! The contract under test is the PR's headline: re-streaming a directory's
//! elastic mutation history through `shard_of` at a new shard count must
//! answer queries **bit-identically** to a service built fresh at that count
//! from the same single-producer workload — inserts *and* deletes, offline
//! (`restore_resharded` / `Store::open_resharded`) and online
//! (`ShardedHiggs::reshard`). Failure paths must be typed and leave the
//! directory untouched: a corrupt history, a non-elastic directory, or an
//! invalid count. (That a failed refold spawns no writer is checked in the
//! single-test `writer_thread_leak` binary, whose process-wide census no
//! sibling test moves.)

use higgs::history;
use higgs::snapshot::MANIFEST_FILE;
use higgs::{
    HiggsConfig, JournalMode, OpenMode, ReshardError, ShardedHiggs, SnapshotError, Store,
    StoreOptions,
};
use higgs_common::{Query, StreamEdge, TemporalGraphSummary, TimeRange, VertexDirection, Weight};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "higgs-reshard-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn elastic_config(shards: usize) -> HiggsConfig {
    HiggsConfig::builder()
        .shards(shards)
        .journal_mode(JournalMode::Buffered)
        .build()
        .expect("valid elastic configuration")
}

/// A single-producer workload with interleaved deletes: every 7th insert is
/// later deleted, so the fold has to replay both operation kinds in order.
fn workload(n: u64) -> (Vec<StreamEdge>, Vec<StreamEdge>) {
    let inserts: Vec<StreamEdge> = (0..n)
        .map(|i| StreamEdge::new(i % 60, (i * 11) % 60, 1 + i % 5, i))
        .collect();
    let deletes: Vec<StreamEdge> = inserts.iter().step_by(7).copied().collect();
    (inserts, deletes)
}

fn probes() -> Vec<Query> {
    let mut probes: Vec<Query> = (0..40u64)
        .map(|k| Query::edge(k % 60, (k * 11) % 60, TimeRange::new(0, 1_000)))
        .collect();
    probes.push(Query::vertex(7, VertexDirection::Out, TimeRange::all()));
    probes.push(Query::vertex(7, VertexDirection::In, TimeRange::all()));
    probes.push(Query::path(vec![1, 11, 22], TimeRange::all()));
    (0..8u64).for_each(|k| probes.push(Query::edge(k, (k * 11) % 60, TimeRange::new(10, 500))));
    probes
}

/// Reference answers from a fresh (never resharded, never persisted)
/// service at `shards`, fed by `feed` in the **exact order** the system
/// under test saw its mutations — the summary is order-dependent, so the
/// bit-identical contract is only meaningful against an identically-ordered
/// control.
fn control_with(shards: usize, feed: impl FnOnce(&mut ShardedHiggs)) -> Vec<Weight> {
    let mut control = ShardedHiggs::new(
        HiggsConfig::builder()
            .shards(shards)
            .build()
            .expect("valid control configuration"),
    );
    feed(&mut control);
    control.query_batch(&probes())
}

/// [`control_with`] for the common inserts-then-deletes order.
fn control_answers(shards: usize, inserts: &[StreamEdge], deletes: &[StreamEdge]) -> Vec<Weight> {
    control_with(shards, |control| {
        for e in inserts {
            control.insert(e);
        }
        for e in deletes {
            control.delete(e);
        }
    })
}

/// Builds an elastic durable directory at `shards` holding the workload.
/// Snapshots before closing: an offline reshard takes its configuration from
/// the manifest, so a directory that has never snapshotted folds online only.
fn seed_elastic_dir(dir: &PathBuf, shards: usize, inserts: &[StreamEdge], deletes: &[StreamEdge]) {
    let mut service = Store::open(StoreOptions::durable(elastic_config(shards), dir).elastic(true))
        .expect("elastic durable service");
    for e in inserts {
        service.insert(e);
    }
    for e in deletes {
        service.delete(e);
    }
    service.flush();
    service.snapshot_to_dir(dir).expect("seed snapshot");
}

/// The headline property: every source count folds to every target count
/// bit-identically, including the identity fold (`N -> N`).
#[test]
fn every_shard_count_refolds_bit_identical_to_a_fresh_build() {
    let (inserts, deletes) = workload(1_500);
    let expected: Vec<Vec<Weight>> = (1..=4)
        .map(|m| control_answers(m, &inserts, &deletes))
        .collect();
    for n in 1..=4usize {
        let dir = temp_dir(&format!("prop-{n}"));
        seed_elastic_dir(&dir, n, &inserts, &deletes);
        for m in 1..=4usize {
            let resharded = ShardedHiggs::restore_resharded(&dir, m).expect("reshard");
            assert_eq!(resharded.num_shards(), m);
            assert_eq!(
                resharded.query_batch(&probes()),
                expected[m - 1],
                "{n} -> {m} refold must be bit-identical to a fresh {m}-shard build"
            );
            // The refolded service is live and durable: it keeps accepting
            // mutations, and a plain reopen at the new width recovers them.
            drop(resharded);
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// After a reshard, the directory is a normal elastic directory at the new
/// width: plain `Store::open` recovers it, post-reshard mutations survive a
/// restart, and a *second* reshard folds the full (old + new) history.
#[test]
fn resharded_directory_keeps_accepting_and_refolding() {
    let (inserts, deletes) = workload(900);
    let dir = temp_dir("chain");
    seed_elastic_dir(&dir, 2, &inserts, &deletes);

    let mut resharded = ShardedHiggs::restore_resharded(&dir, 3).expect("2 -> 3");
    let extra: Vec<StreamEdge> = (0..300u64)
        .map(|i| StreamEdge::new((i * 3) % 60, (i * 7) % 60, 2, 1_000 + i))
        .collect();
    for e in &extra {
        resharded.insert(e);
    }
    resharded.flush();
    drop(resharded);

    // The control replays the service's exact order: workload, deletes, then
    // the post-reshard extras.
    let control = |m: usize| {
        control_with(m, |c| {
            for e in &inserts {
                c.insert(e);
            }
            for e in &deletes {
                c.delete(e);
            }
            for e in &extra {
                c.insert(e);
            }
        })
    };

    // Plain reopen at 3 recovers everything.
    let reopened = Store::open(StoreOptions::durable(elastic_config(3), &dir)).expect("reopen");
    assert_eq!(
        reopened.query_batch(&probes()),
        control(3),
        "post-reshard mutations must survive a plain restart"
    );
    drop(reopened);

    // A second fold (3 -> 4) replays the concatenated history generations.
    let refolded = Store::open_resharded(StoreOptions::restore(&dir), 4).expect("3 -> 4");
    assert_eq!(
        refolded.query_batch(&probes()),
        control(4),
        "a second reshard must fold history from every generation"
    );
    drop(refolded);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Online reshard: fence, refold, swap — on a live service, with surviving
/// ingest handles, without dropping an acknowledged mutation.
#[test]
fn online_reshard_preserves_acknowledged_mutations_and_handles() {
    let (inserts, deletes) = workload(1_200);
    let dir = temp_dir("online");
    let mut service = Store::open(StoreOptions::durable(elastic_config(2), &dir).elastic(true))
        .expect("elastic durable service");
    let handle = service.ingest_handle();
    let (before, after) = inserts.split_at(800);
    for e in before {
        handle.insert(e).expect("live ingest");
    }
    for e in &deletes {
        handle.delete(e).expect("live ingest");
    }
    service.flush();

    service.reshard(4).expect("online reshard");
    assert_eq!(service.num_shards(), 4);

    // The pre-swap handle keeps routing — now over 4 writers.
    assert_eq!(handle.num_shards(), 4);
    for e in after {
        handle.insert(e).expect("ingest across the swap");
    }
    service.flush();
    // The control replays the live order: 800 inserts, deletes, reshard
    // boundary (invisible to state), then the last 400 inserts.
    let control = control_with(4, |c| {
        for e in before {
            c.insert(e);
        }
        for e in &deletes {
            c.delete(e);
        }
        for e in after {
            c.insert(e);
        }
    });
    assert_eq!(
        service.query_batch(&probes()),
        control,
        "online 2 -> 4 reshard must match a fresh 4-shard build"
    );

    // The post-reshard directory restarts at the new width.
    drop(service);
    let reborn = Store::open(StoreOptions::durable(elastic_config(4), &dir)).expect("restart");
    assert_eq!(
        reborn.query_batch(&probes()),
        control,
        "the resharded directory must recover at its new width"
    );
    drop(reborn);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Sequence numbers resume above every generation: after an online reshard
/// with no later writes the current generation is empty, so a reopen must
/// take its next number from the older one, and every later reopen must
/// stamp above everything recorded before it. A collision would make the
/// merged read fail (two different records sharing a number).
#[test]
fn sequence_numbers_resume_above_every_generation() {
    let (inserts, _) = workload(900);
    let dir = temp_dir("seq-resume");
    let mut service = Store::open(StoreOptions::durable(elastic_config(2), &dir).elastic(true))
        .expect("elastic durable service");
    service.insert_all(&inserts[..300]);
    service.flush();
    service.reshard(3).expect("online reshard");
    drop(service);

    let mut recorded = history::read_history(&dir).expect("read history");
    assert_eq!(recorded.len(), 300);
    for (round, chunk) in inserts[300..].chunks(300).enumerate() {
        let highest = recorded.last().map(|op| op.seq).expect("history holds ops");
        let mut service = Store::open(StoreOptions::durable(elastic_config(3), &dir))
            .expect("reopen the resharded directory");
        service.insert_all(chunk);
        service.flush();
        drop(service);
        let ops = history::read_history(&dir).expect("merged history stays consistent");
        let fresh: Vec<StreamEdge> = ops
            .iter()
            .filter(|op| op.seq > highest)
            .map(|op| op.edge)
            .collect();
        assert_eq!(
            fresh, chunk,
            "round {round}: every new mutation must stamp above the recorded ones, in order"
        );
        assert_eq!(ops.len(), recorded.len() + chunk.len(), "round {round}");
        recorded = ops;
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A corrupt history file fails the fold with the typed
/// `ReshardError::Corrupt` — before anything is committed.
#[test]
fn corrupt_history_reports_typed_error_and_spawns_nothing() {
    let (inserts, deletes) = workload(400);
    let dir = temp_dir("corrupt");
    seed_elastic_dir(&dir, 2, &inserts, &deletes);

    // Flip bytes in the interior of shard 0's history records.
    let victim = dir.join("history-000-000.higgs");
    let mut bytes = std::fs::read(&victim).expect("history file exists");
    assert!(bytes.len() > 64, "history must hold records to corrupt");
    let mid = bytes.len() / 2;
    for b in &mut bytes[mid..mid + 8] {
        *b ^= 0xFF;
    }
    std::fs::write(&victim, &bytes).expect("rewrite history");

    let manifest = std::fs::read(dir.join(MANIFEST_FILE)).expect("manifest exists");
    let err = ShardedHiggs::restore_resharded(&dir, 3).expect_err("corrupt fold must fail");
    assert!(
        matches!(err, ReshardError::Corrupt { .. } | ReshardError::Journal(_)),
        "expected Corrupt (or an I/O-level Journal error), got: {err}"
    );
    assert_eq!(
        std::fs::read(dir.join(MANIFEST_FILE)).expect("manifest still exists"),
        manifest,
        "a failed reshard must not commit a refolded snapshot"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The non-fold failure paths are typed too: invalid counts, directories
/// with no history, and elastic misconfiguration at open time.
#[test]
fn reshard_failure_paths_are_typed() {
    let (inserts, deletes) = workload(200);

    // Invalid target counts, checked before any file is touched.
    let dir = temp_dir("typed");
    seed_elastic_dir(&dir, 2, &inserts, &deletes);
    for bad in [0usize, higgs::shard::MAX_SHARDS + 1] {
        assert!(
            matches!(
                ShardedHiggs::restore_resharded(&dir, bad),
                Err(ReshardError::InvalidShardCount { requested }) if requested == bad
            ),
            "count {bad} must be rejected"
        );
    }

    // A live non-elastic service refuses an online reshard.
    let plain_dir = temp_dir("typed-plain");
    let mut plain = Store::open(StoreOptions::durable(elastic_config(2), &plain_dir))
        .expect("durable, non-elastic");
    plain.insert(&StreamEdge::new(1, 2, 5, 10));
    plain.flush();
    assert!(
        matches!(
            plain.reshard(3),
            Err(ReshardError::HistoryUnavailable { .. })
        ),
        "a non-elastic service has no history to refold"
    );
    drop(plain);

    // ...and its directory refuses an offline one.
    assert!(matches!(
        ShardedHiggs::restore_resharded(&plain_dir, 3),
        Err(ReshardError::HistoryUnavailable { .. })
    ));
    std::fs::remove_dir_all(&plain_dir).expect("cleanup");
    std::fs::remove_dir_all(&dir).expect("cleanup");

    // Every variant renders a cause a human can act on.
    for (err, needle) in [
        (
            ReshardError::InvalidShardCount { requested: 99 },
            "invalid target shard count",
        ),
        (
            ReshardError::HistoryUnavailable { detail: "x".into() },
            "no elastic history",
        ),
        (ReshardError::Corrupt { detail: "x".into() }, "corrupt"),
        (ReshardError::Degraded { shard: 1 }, "degraded"),
        (
            ReshardError::Snapshot(SnapshotError::Corrupt("x".into())),
            "commit failed",
        ),
    ] {
        let msg = err.to_string();
        assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
    }
    // `ReshardError::Journal` carries its I/O source.
    let io = ShardedHiggs::restore_resharded(temp_dir("typed-missing"), 2)
        .expect_err("missing directory cannot fold");
    assert!(
        matches!(
            &io,
            ReshardError::HistoryUnavailable { .. } | ReshardError::Journal(_)
        ),
        "missing dir must be typed, got: {io}"
    );
}

/// The `Store::open` elastic rules: `AlreadyExists` under `CreateNew`,
/// `ElasticUnavailable` for journal-less or retroactive elastic requests.
#[test]
fn store_open_modes_and_elastic_rules_are_typed() {
    let (inserts, deletes) = workload(150);
    let dir = temp_dir("store-modes");
    seed_elastic_dir(&dir, 2, &inserts, &deletes);

    // CreateNew refuses an initialised directory.
    let err = Store::open(StoreOptions::durable(elastic_config(2), &dir).mode(OpenMode::CreateNew))
        .expect_err("CreateNew over a manifest must fail");
    assert!(
        matches!(err, SnapshotError::AlreadyExists { .. }),
        "expected AlreadyExists, got: {err}"
    );

    // OpenExisting refuses a missing directory.
    let missing = temp_dir("store-missing");
    let err = Store::open(
        StoreOptions::durable(elastic_config(2), &missing).mode(OpenMode::OpenExisting),
    )
    .expect_err("OpenExisting without a directory must fail");
    assert!(matches!(err, SnapshotError::Io(_)));

    // Elastic requires journaling.
    let off = HiggsConfig::builder()
        .shards(2)
        .journal_mode(JournalMode::Off)
        .build()
        .expect("valid configuration");
    let err = Store::open(StoreOptions::durable(off, &missing).elastic(true))
        .expect_err("elastic without journaling must fail");
    assert!(
        matches!(err, SnapshotError::ElasticUnavailable { .. }),
        "expected ElasticUnavailable, got: {err}"
    );

    // Elastic cannot be enabled retroactively on non-elastic state.
    let plain_dir = temp_dir("store-retro");
    {
        let service = Store::open(StoreOptions::durable(elastic_config(1), &plain_dir))
            .expect("plain durable");
        service.snapshot_to_dir(&plain_dir).expect("snapshot");
    }
    let err = Store::open(StoreOptions::durable(elastic_config(1), &plain_dir).elastic(true))
        .expect_err("retroactive elastic must fail");
    assert!(matches!(err, SnapshotError::ElasticUnavailable { .. }));

    // A restore (no config) cannot be elastic either.
    let err = Store::open(StoreOptions::restore(&plain_dir).elastic(true))
        .expect_err("elastic restore must fail");
    assert!(matches!(err, SnapshotError::ElasticUnavailable { .. }));

    // ...but a plain restore and a plain reopen both still work, and the
    // elastic directory auto re-arms without re-passing `.elastic(true)`.
    drop(Store::open(StoreOptions::restore(&plain_dir)).expect("plain restore"));
    drop(Store::open(StoreOptions::durable(elastic_config(2), &dir)).expect("auto re-arm"));
    std::fs::remove_dir_all(&plain_dir).expect("cleanup");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
