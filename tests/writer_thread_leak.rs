//! Writer-thread accounting across shutdown/restore cycles.
//!
//! Restoring a snapshot into a dropped-then-rebuilt service must not leak
//! writer threads: every `ShardedHiggs` teardown joins its writers, and
//! every restore spawns exactly one fresh writer per shard. Failed opens —
//! a corrupt snapshot, a corrupt elastic history, an invalid configuration —
//! must spawn nothing. No service exists to hand out a per-service
//! `WriterCensus` there, so this test reads the process-wide
//! [`higgs::shard::live_writer_threads`] counter instead, and lives in its
//! **own integration-test binary** so that counter is not perturbed by
//! unrelated tests creating services concurrently — keep it the only test
//! here.

use higgs::shard::live_writer_threads;
use higgs::{
    HiggsConfig, HiggsService, ReshardError, ShardedHiggs, SnapshotError, Store, StoreOptions,
};
use higgs_common::{Query, StreamEdge, TemporalGraphSummary, TimeRange};
use std::path::PathBuf;

#[test]
fn restore_cycles_never_leak_writer_threads() {
    assert_eq!(live_writer_threads(), 0, "test binary must start quiescent");

    let dir: PathBuf =
        std::env::temp_dir().join(format!("higgs-writer-leak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    const SHARDS: usize = 4;
    let config = HiggsConfig::builder()
        .shards(SHARDS)
        .build()
        .expect("valid configuration");
    let mut service = ShardedHiggs::new(config);
    assert_eq!(live_writer_threads(), SHARDS, "one writer per shard");
    assert_eq!(
        service.writer_census().live(),
        SHARDS,
        "the per-service census agrees"
    );

    let edges: Vec<StreamEdge> = (0..3_000u64)
        .map(|i| StreamEdge::new(i % 100, (i * 11) % 100, 1 + i % 3, i))
        .collect();
    service.insert_all(&edges);
    let queries: Vec<Query> = (0..20u64)
        .map(|k| Query::edge(k, (k * 11) % 100, TimeRange::all()))
        .collect();
    let expected = service.query_batch(&queries);
    service.snapshot_to_dir(&dir).expect("snapshot");

    // Drop joins the writers: the count returns to zero *synchronously*
    // (each writer's counter guard drops before the thread exits, and drop
    // joins every thread).
    drop(service);
    assert_eq!(live_writer_threads(), 0, "drop must join all writers");

    // Repeated restore-then-drop cycles: every cycle spawns exactly SHARDS
    // writers and joins exactly SHARDS writers — no drift in either
    // direction, and the restored state keeps answering identically.
    for cycle in 0..5 {
        let restored = Store::open(StoreOptions::restore(&dir)).expect("restore");
        assert_eq!(
            live_writer_threads(),
            SHARDS,
            "cycle {cycle}: restore must spawn exactly one writer per shard"
        );
        assert_eq!(restored.query_batch(&queries), expected, "cycle {cycle}");
        drop(restored);
        assert_eq!(
            live_writer_threads(),
            0,
            "cycle {cycle}: drop after restore must join all writers"
        );
    }

    // Durable services follow the same accounting: journaled writers are
    // plain writers to the census, and crash-recovery (`Store::open` over a
    // directory with live journal tails) spawns exactly one per shard.
    let durable_dir: PathBuf =
        std::env::temp_dir().join(format!("higgs-writer-leak-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&durable_dir);
    let durable_config = HiggsConfig::builder()
        .shards(SHARDS)
        .journal_mode(higgs::JournalMode::Buffered)
        .build()
        .expect("valid durable configuration");
    let durable =
        Store::open(StoreOptions::durable(durable_config, &durable_dir)).expect("durable service");
    assert_eq!(
        live_writer_threads(),
        SHARDS,
        "durable service: one journaled writer per shard"
    );
    let handle = durable.ingest_handle();
    for e in &edges {
        handle.insert(e).expect("live ingest");
    }
    durable.flush();
    let durable_expected = durable.query_batch(&queries);
    drop(durable);
    assert_eq!(
        live_writer_threads(),
        0,
        "durable drop must join all journaled writers"
    );
    let recovered =
        Store::open(StoreOptions::durable(durable_config, &durable_dir)).expect("journal recovery");
    assert_eq!(
        live_writer_threads(),
        SHARDS,
        "journal-replay recovery must spawn exactly one writer per shard"
    );
    assert_eq!(recovered.query_batch(&queries), durable_expected);
    drop(recovered);
    assert_eq!(
        live_writer_threads(),
        0,
        "drop after recovery must join all writers"
    );
    std::fs::remove_dir_all(&durable_dir).expect("durable cleanup");

    // A *failed* restore must not leak either: corrupt one shard file and
    // verify the error path spawns nothing.
    let shard0 = dir.join(higgs::snapshot::shard_file_name(0));
    let mut bytes = std::fs::read(&shard0).expect("read shard file");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    std::fs::write(&shard0, &bytes).expect("corrupt shard file");
    match Store::open(StoreOptions::restore(&dir)) {
        Err(SnapshotError::Codec(_) | SnapshotError::Corrupt(_)) => {}
        other => panic!("corrupted restore must fail, got {other:?}"),
    }
    assert_eq!(
        live_writer_threads(),
        0,
        "a failed restore must not spawn (let alone leak) writer threads"
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");

    // A failed offline refold spawns nothing: corrupt the elastic history
    // of a snapshotted directory and reshard it.
    let elastic = Store::open(StoreOptions::durable(durable_config, &durable_dir).elastic(true))
        .expect("elastic durable service");
    let handle = elastic.ingest_handle();
    for e in &edges {
        handle.insert(e).expect("live ingest");
    }
    elastic
        .snapshot_to_dir(&durable_dir)
        .expect("elastic snapshot");
    drop(elastic);
    let history = durable_dir.join("history-000-000.higgs");
    let mut bytes = std::fs::read(&history).expect("history file exists");
    let mid = bytes.len() / 2;
    for b in &mut bytes[mid..mid + 8] {
        *b ^= 0xFF;
    }
    std::fs::write(&history, &bytes).expect("corrupt history");
    match ShardedHiggs::restore_resharded(&durable_dir, 3) {
        Err(ReshardError::Corrupt { .. } | ReshardError::Journal(_)) => {}
        other => panic!("a corrupt history must fail the refold, got {other:?}"),
    }
    assert_eq!(
        live_writer_threads(),
        0,
        "a failed reshard must not spawn (let alone leak) writer threads"
    );
    std::fs::remove_dir_all(&durable_dir).expect("elastic cleanup");

    // An invalid configuration is rejected before any thread spawns.
    let mut bad = HiggsConfig::paper_default();
    bad.shards = 0;
    assert!(HiggsService::try_new(bad).is_err());
    assert_eq!(
        live_writer_threads(),
        0,
        "a rejected configuration must not spawn writer threads"
    );
}
