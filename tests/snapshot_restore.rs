//! Snapshot / restore correctness: property tests that a
//! snapshot→restore→query cycle is **bit-identical** to the live summary
//! across random insert/delete workloads — for a single `HiggsSummary`
//! (paper-default and collision-heavy configurations) and for `ShardedHiggs`
//! at 1/2/4 shards — plus corruption tests proving every damaged input maps
//! to a typed `SnapshotError` (never a panic, never a silently wrong
//! answer), and a restored-service liveness check.

use higgs::history::history_file_name;
use higgs::journal::journal_file_name;
use higgs::snapshot::{shard_file_name, MANIFEST_FILE};
use higgs::{
    HiggsConfig, HiggsSummary, JournalError, JournalMode, ShardedHiggs, SnapshotError,
    SnapshotManifest, Store, StoreOptions,
};
use higgs_common::codec::CodecError;
use higgs_common::{Query, StreamEdge, TemporalGraphSummary, TimeRange, VertexDirection};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const MAX_T: u64 = 2_000;

/// A unique temp directory removed on drop (the workspace has no `tempfile`
/// dependency).
struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "higgs-snap-test-{label}-{}-{}",
            std::process::id(),
            // ORDERING: Relaxed — uniqueness counter; any interleaving of
            // increments yields distinct directory names, which is all that
            // matters here.
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        Self(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn edge_strategy() -> impl Strategy<Value = StreamEdge> {
    (0u64..40, 0u64..40, 1u64..5, 0u64..MAX_T).prop_map(|(s, d, w, t)| StreamEdge::new(s, d, w, t))
}

fn stream_strategy(max_len: usize) -> impl Strategy<Value = Vec<StreamEdge>> {
    prop::collection::vec(edge_strategy(), 1..max_len).prop_map(|mut edges| {
        edges.sort_by_key(|e| e.timestamp);
        edges
    })
}

fn mixed_query_strategy() -> impl Strategy<Value = Query> {
    (0u8..4, 0u64..40, 0u64..40, 0u64..40, 0u64..8).prop_map(|(kind, a, b, c, window)| {
        let start = window * (MAX_T / 8);
        let range = TimeRange::new(start, start + MAX_T / 4);
        match kind {
            0 => Query::edge(a, b, range),
            1 => Query::vertex(
                a,
                if b % 2 == 0 {
                    VertexDirection::Out
                } else {
                    VertexDirection::In
                },
                range,
            ),
            2 => Query::path(vec![a, b, c, (a + b) % 40], range),
            _ => Query::subgraph(vec![(a, b), (b, c), (c, a)], range),
        }
    })
}

/// Deliberately under-sized parameters: heavy fingerprint collisions and
/// overflow-block usage, so the snapshot codec has to preserve collision
/// state (shared slots, spills, chains) exactly — not just the easy regime.
fn collision_heavy_config(shards: usize) -> HiggsConfig {
    HiggsConfig {
        d1: 4,
        f1_bits: 10,
        r_bits: 1,
        bucket_entries: 2,
        mapping_addresses: 2,
        overflow_blocks: true,
        shards,
        plan_cache_capacity: 8,
        ingest_queue_cap: None,
        pin_workers: false,
        admission_tick: std::time::Duration::ZERO,
        service_queue_depth: None,
        journal_mode: higgs::JournalMode::Off,
    }
}

fn apply_workload(
    summary: &mut dyn TemporalGraphSummary,
    edges: &[StreamEdge],
    delete_mask: &[u8],
) {
    summary.insert_all(edges);
    for (e, m) in edges.iter().zip(delete_mask.iter().cycle()) {
        if *m == 0 {
            summary.delete(e);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn single_summary_round_trips_bit_identically(
        edges in stream_strategy(250),
        delete_mask in prop::collection::vec(0u8..4, 1..64),
        queries in prop::collection::vec(mixed_query_strategy(), 1..40),
    ) {
        for config in [HiggsConfig::paper_default(), collision_heavy_config(1)] {
            let mut live = HiggsSummary::new(config);
            apply_workload(&mut live, &edges, &delete_mask);

            let mut bytes = Vec::new();
            let checksum = live.write_snapshot(&mut bytes).expect("snapshot to memory");
            let restored = HiggsSummary::read_snapshot(&mut bytes.as_slice())
                .expect("restore from memory");

            prop_assert_eq!(restored.total_items(), live.total_items());
            prop_assert_eq!(restored.mutation_epoch(), live.mutation_epoch());
            prop_assert_eq!(restored.leaf_count(), live.leaf_count());
            prop_assert_eq!(restored.query_batch(&queries), live.query_batch(&queries));
            // Raw primitives (the cache-bypassing reference path) agree too.
            for e in edges.iter().step_by(7) {
                prop_assert_eq!(
                    restored.edge_query(e.src, e.dst, TimeRange::all()),
                    live.edge_query(e.src, e.dst, TimeRange::all())
                );
            }

            // Determinism: re-snapshotting the restored summary reproduces
            // the document bit for bit (same checksum, same bytes).
            let mut again = Vec::new();
            let checksum_again = restored.write_snapshot(&mut again).expect("re-snapshot");
            prop_assert_eq!(checksum, checksum_again);
            prop_assert_eq!(bytes, again);
        }
    }

    #[test]
    fn sharded_service_round_trips_bit_identically(
        edges in stream_strategy(220),
        delete_mask in prop::collection::vec(0u8..4, 1..64),
        queries in prop::collection::vec(mixed_query_strategy(), 1..32),
    ) {
        for shards in [1usize, 2, 4] {
            let mut config = collision_heavy_config(shards);
            config.plan_cache_capacity = 16;
            let mut live = ShardedHiggs::new(config);
            apply_workload(&mut live, &edges, &delete_mask);
            let expected = live.query_batch(&queries);

            let dir = TempDir::new("roundtrip");
            let manifest = live.snapshot_to_dir(dir.path()).expect("snapshot to dir");
            prop_assert_eq!(manifest.shard_count(), shards);
            prop_assert_eq!(manifest.total_items(), live.total_items());
            drop(live);

            let restored = Store::open(StoreOptions::restore(dir.path())).expect("restore");
            prop_assert_eq!(restored.num_shards(), shards);
            prop_assert_eq!(restored.query_batch(&queries), expected.clone());

            // The restored service stays live: more mutations land and the
            // result matches a never-snapshotted control.
            let mut restored = restored;
            let mut control = ShardedHiggs::new(config);
            apply_workload(&mut control, &edges, &delete_mask);
            for e in edges.iter().step_by(3) {
                let bumped = StreamEdge::new(e.src, e.dst, e.weight, e.timestamp + MAX_T);
                restored.insert(&bumped);
                control.insert(&bumped);
            }
            for e in edges.iter().step_by(11) {
                restored.delete(e);
                control.delete(e);
            }
            prop_assert_eq!(
                restored.query_batch(&queries),
                control.query_batch(&queries)
            );
            prop_assert_eq!(restored.total_items(), control.total_items());
        }
    }
}

/// Builds a small 4-shard service with enough mass for multi-layer trees.
fn loaded_service(shards: usize) -> ShardedHiggs {
    let config = HiggsConfig::builder()
        .shards(shards)
        .build()
        .expect("valid configuration");
    let mut service = ShardedHiggs::new(config);
    let edges: Vec<StreamEdge> = (0..4_000u64)
        .map(|i| StreamEdge::new(i % 150, (i * 13) % 150, 1 + i % 4, i / 2))
        .collect();
    service.insert_all(&edges);
    service
}

#[test]
fn truncated_shard_file_is_a_typed_error() {
    let dir = TempDir::new("truncate");
    let service = loaded_service(2);
    service.snapshot_to_dir(dir.path()).expect("snapshot");
    drop(service);

    let shard0 = dir.path().join(shard_file_name(0));
    let bytes = std::fs::read(&shard0).expect("read shard file");
    std::fs::write(&shard0, &bytes[..bytes.len() / 2]).expect("truncate shard file");

    match Store::open(StoreOptions::restore(dir.path())) {
        Err(SnapshotError::Codec(CodecError::UnexpectedEof)) => {}
        other => panic!("truncated shard must fail with UnexpectedEof, got {other:?}"),
    }
}

#[test]
fn corrupted_shard_byte_fails_the_checksum() {
    let dir = TempDir::new("bitflip");
    let service = loaded_service(2);
    service.snapshot_to_dir(dir.path()).expect("snapshot");
    drop(service);

    let shard1 = dir.path().join(shard_file_name(1));
    let mut bytes = std::fs::read(&shard1).expect("read shard file");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&shard1, &bytes).expect("write corrupted shard");

    match Store::open(StoreOptions::restore(dir.path())) {
        // A flipped byte is caught by the file's own checksum (or, if it
        // lands in a length or structural field, by an earlier structural
        // check) — either way a typed error, never a panic.
        Err(
            SnapshotError::Codec(_)
            | SnapshotError::Corrupt(_)
            | SnapshotError::ShardChecksumMismatch { .. },
        ) => {}
        other => panic!("corrupted shard must fail with a typed error, got {other:?}"),
    }
}

#[test]
fn wrong_manifest_shard_count_is_rejected() {
    // A manifest from a 2-shard snapshot copied over a 4-shard directory:
    // the directory census must catch the disagreement before any shard
    // state is served.
    let dir4 = TempDir::new("count4");
    let dir2 = TempDir::new("count2");
    let service4 = loaded_service(4);
    let service2 = loaded_service(2);
    service4.snapshot_to_dir(dir4.path()).expect("snapshot 4");
    service2.snapshot_to_dir(dir2.path()).expect("snapshot 2");
    drop(service4);
    drop(service2);

    std::fs::copy(
        dir2.path().join(MANIFEST_FILE),
        dir4.path().join(MANIFEST_FILE),
    )
    .expect("swap manifests");

    match Store::open(StoreOptions::restore(dir4.path())) {
        Err(SnapshotError::ShardCountMismatch {
            manifest: 2,
            found: 4,
        }) => {}
        other => panic!("shard-count mismatch must be typed, got {other:?}"),
    }
}

#[test]
fn missing_shard_file_is_rejected() {
    let dir = TempDir::new("missing");
    let service = loaded_service(4);
    service.snapshot_to_dir(dir.path()).expect("snapshot");
    drop(service);
    std::fs::remove_file(dir.path().join(shard_file_name(2))).expect("remove shard 2");

    match Store::open(StoreOptions::restore(dir.path())) {
        Err(SnapshotError::ShardCountMismatch { manifest: 4, found }) => {
            assert!(found < 4, "census must see fewer shard files");
        }
        Err(SnapshotError::MissingShard { shard: 2, .. }) => {}
        other => panic!("missing shard must be typed, got {other:?}"),
    }
}

/// Every file in `dir`, name → bytes.
fn dir_contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("list directory")
        .map(|entry| {
            let entry = entry.expect("directory entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(entry.path()).expect("read file"))
        })
        .collect()
}

/// The stream [`seed_durable_dir`] ingests.
fn seed_stream() -> Vec<StreamEdge> {
    (0..4_000u64)
        .map(|i| StreamEdge::new(i % 150, (i * 13) % 150, 1 + i % 4, i / 2))
        .collect()
}

/// A durable (optionally elastic) service at `shards` that snapshotted
/// `loaded_service`'s stream halfway, then journaled the rest, dropped.
fn seed_durable_dir(dir: &Path, shards: usize, elastic: bool) -> HiggsConfig {
    let config = HiggsConfig::builder()
        .shards(shards)
        .journal_mode(JournalMode::Buffered)
        .build()
        .expect("valid durable configuration");
    let mut service =
        Store::open(StoreOptions::durable(config, dir).elastic(elastic)).expect("durable service");
    let edges = seed_stream();
    service.insert_all(&edges[..2_000]);
    service.snapshot_to_dir(dir).expect("snapshot");
    service.insert_all(&edges[2_000..]);
    service.flush();
    config
}

/// Recovery runs all shards in parallel, yet a failed open reports the
/// lowest failing shard every time, and writes nothing: the logs are armed
/// (torn tails trimmed, stale journals reset) only after every shard
/// validated.
#[test]
fn failed_open_is_deterministic_and_writes_nothing() {
    let dir = TempDir::new("lowest-failure");
    let config = seed_durable_dir(dir.path(), 4, false);
    // Swap the files of shards 1 and 3: each is a valid snapshot document,
    // so both fail only the manifest's checksum cross-check.
    let (one, three) = (
        dir.path().join(shard_file_name(1)),
        dir.path().join(shard_file_name(3)),
    );
    let (bytes1, bytes3) = (
        std::fs::read(&one).expect("read shard 1"),
        std::fs::read(&three).expect("read shard 3"),
    );
    std::fs::write(&one, &bytes3).expect("write shard 1");
    std::fs::write(&three, &bytes1).expect("write shard 3");
    // A torn journal tail that arming would trim.
    let journal = dir.path().join(journal_file_name(0));
    let mut torn = std::fs::read(&journal).expect("read journal");
    torn.extend_from_slice(&[0x29, 0x00]);
    std::fs::write(&journal, &torn).expect("tear journal");
    let before = dir_contents(dir.path());

    for attempt in 0..20 {
        for options in [
            StoreOptions::durable(config, dir.path()),
            StoreOptions::restore(dir.path()),
        ] {
            match Store::open(options) {
                Err(SnapshotError::ShardChecksumMismatch { shard: 1, .. }) => {}
                other => panic!("attempt {attempt}: expected shard 1's mismatch, got {other:?}"),
            }
            assert!(
                dir_contents(dir.path()) == before,
                "attempt {attempt}: a failed open changed the directory"
            );
        }
    }
}

/// On an elastic directory a failed recovery never reaches the arm phase,
/// so a torn history tail is still there afterwards.
#[test]
fn failed_elastic_open_leaves_the_torn_history_tail() {
    let dir = TempDir::new("elastic-torn");
    let config = seed_durable_dir(dir.path(), 2, true);
    let history = dir.path().join(history_file_name(0, 0));
    let mut torn = std::fs::read(&history).expect("read history");
    torn.extend_from_slice(&[0x31, 0x00, 0x00]);
    std::fs::write(&history, &torn).expect("tear history");
    let shard = dir.path().join(shard_file_name(1));
    let mut bytes = std::fs::read(&shard).expect("read shard 1");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&shard, &bytes).expect("corrupt shard 1");
    let before = dir_contents(dir.path());

    let err = Store::open(StoreOptions::durable(config, dir.path()).elastic(true))
        .expect_err("a corrupt shard file fails the open");
    assert!(
        matches!(
            err,
            SnapshotError::Codec(_)
                | SnapshotError::Corrupt(_)
                | SnapshotError::ShardChecksumMismatch { shard: 1, .. }
        ),
        "unexpected error: {err:?}"
    );
    assert_eq!(
        std::fs::read(&history).expect("read history"),
        torn,
        "the torn history tail must survive a failed open"
    );
    assert!(
        dir_contents(dir.path()) == before,
        "a failed open changed the directory"
    );
}

/// Edge and vertex probes over the seed stream's vertex range.
fn seed_probes() -> Vec<Query> {
    (0..150u64)
        .step_by(7)
        .flat_map(|v| {
            [
                Query::edge(v, (v * 13) % 150, TimeRange::all()),
                Query::edge(v, (v * 7) % 150, TimeRange::new(500, 2_400)),
                Query::vertex(v, VertexDirection::Out, TimeRange::new(0, 1_500)),
            ]
        })
        .collect()
}

/// A reopen reads each log once (the journal in its shard's replay, the
/// history file in its own scan) and arms both from what those reads found.
/// Torn tails are trimmed on the way, so the writes after the reopen land on
/// clean record boundaries and a second reopen matches a control service
/// that ingested the same stream.
#[test]
fn elastic_reopen_trims_torn_tails_and_later_writes_stay_bit_identical() {
    let dir = TempDir::new("elastic-trim");
    let config = seed_durable_dir(dir.path(), 2, true);
    let journal = dir.path().join(journal_file_name(0));
    let history = dir.path().join(history_file_name(0, 1));
    let clean_journal = std::fs::read(&journal).expect("read journal");
    let clean_history = std::fs::read(&history).expect("read history");
    let mut torn = clean_journal.clone();
    torn.extend_from_slice(&[0x29, 0x00]);
    std::fs::write(&journal, &torn).expect("tear journal");
    let mut torn = clean_history.clone();
    torn.extend_from_slice(&[0x31, 0x00, 0x00, 0x00, 0x07]);
    std::fs::write(&history, &torn).expect("tear history");

    let elastic = || StoreOptions::durable(config, dir.path()).elastic(true);
    let mut service = Store::open(elastic()).expect("reopen over torn tails");
    assert_eq!(
        std::fs::read(&journal).expect("read journal"),
        clean_journal,
        "the journal's torn tail is trimmed"
    );
    assert_eq!(
        std::fs::read(&history).expect("read history"),
        clean_history,
        "the history's torn tail is trimmed"
    );
    let later: Vec<StreamEdge> = (4_000..5_000u64)
        .map(|i| StreamEdge::new(i % 150, (i * 7) % 150, 1 + i % 3, i / 2))
        .collect();
    service.insert_all(&later);
    for edge in &later[..20] {
        service.insert(edge);
    }
    service.flush();
    drop(service);

    let reopened = Store::open(elastic()).expect("second reopen");
    let mut control = ShardedHiggs::new(HiggsConfig {
        journal_mode: JournalMode::Off,
        ..config
    });
    control.insert_all(&seed_stream());
    control.insert_all(&later);
    for edge in &later[..20] {
        control.insert(edge);
    }
    let probes = seed_probes();
    assert_eq!(reopened.query_batch(&probes), control.query_batch(&probes));
    assert_eq!(reopened.total_items(), control.total_items());
    assert_eq!(
        higgs::history::read_history(dir.path())
            .expect("history reads clean")
            .len(),
        5_020,
        "history holds every mutation once"
    );
}

/// A journal record corrupted in the middle of the file fails the open with
/// a typed error from the shard's replay, before anything is armed, so the
/// directory is left as it was.
#[test]
fn mid_journal_corruption_fails_the_open_typed() {
    let dir = TempDir::new("journal-mid");
    let config = seed_durable_dir(dir.path(), 2, false);
    {
        // Single inserts append one record each.
        let mut service = Store::open(StoreOptions::durable(config, dir.path())).expect("reopen");
        for i in 0..40u64 {
            service.insert(&StreamEdge::new(2 * i + 1, i, 1, 3_000 + i));
        }
        service.flush();
    }
    let journal = dir.path().join(journal_file_name(1));
    let mut bytes = std::fs::read(&journal).expect("read journal");
    // Frames (`len u32 | body | checksum u64`, `len` counting the last two)
    // follow the 20-byte header.
    let mut frames = Vec::new();
    let mut at = 20;
    while at + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        frames.push(at);
        at += 4 + len as usize;
    }
    assert_eq!(
        at,
        bytes.len(),
        "the seeded journal ends on a record boundary"
    );
    assert!(frames.len() >= 10, "{} records", frames.len());
    let middle = frames.len() / 2;
    bytes[frames[middle] + 4 + 3] ^= 0x01;
    std::fs::write(&journal, &bytes).expect("corrupt journal");
    let before = dir_contents(dir.path());

    match Store::open(StoreOptions::durable(config, dir.path())) {
        Err(SnapshotError::Journal(JournalError::Corrupt { shard, record, .. })) => {
            assert_eq!((shard, record), (1, middle as u64));
        }
        other => panic!("a corrupt journal record must fail the open typed, got {other:?}"),
    }
    assert!(
        dir_contents(dir.path()) == before,
        "a failed open changed the directory"
    );
}

#[test]
fn resnapshotting_a_smaller_service_into_the_same_dir_stays_restorable() {
    // Regression test: shard files from an earlier, larger snapshot must be
    // removed — otherwise the directory census at restore time rejects a
    // perfectly good (smaller) snapshot with ShardCountMismatch forever.
    let dir = TempDir::new("shrink");
    let big = loaded_service(4);
    big.snapshot_to_dir(dir.path()).expect("snapshot 4 shards");
    drop(big);

    let small = loaded_service(2);
    let expected = small.query_batch(&[Query::edge(3, 39, TimeRange::all())]);
    small
        .snapshot_to_dir(dir.path())
        .expect("re-snapshot 2 shards into the same directory");
    drop(small);

    assert!(
        !dir.path().join(shard_file_name(2)).exists()
            && !dir.path().join(shard_file_name(3)).exists(),
        "stale shard files must be removed"
    );
    let restored = Store::open(StoreOptions::restore(dir.path()))
        .expect("shrunken snapshot directory must restore");
    assert_eq!(restored.num_shards(), 2);
    assert_eq!(
        restored.query_batch(&[Query::edge(3, 39, TimeRange::all())]),
        expected
    );
}

#[test]
fn non_snapshot_files_report_bad_magic() {
    let dir = TempDir::new("magic");
    std::fs::create_dir_all(dir.path()).expect("create dir");
    std::fs::write(dir.path().join(MANIFEST_FILE), b"definitely not a manifest")
        .expect("write junk manifest");
    match Store::open(StoreOptions::restore(dir.path())) {
        Err(SnapshotError::BadMagic { .. }) => {}
        other => panic!("junk manifest must fail with BadMagic, got {other:?}"),
    }

    let mut junk = std::io::Cursor::new(b"short".to_vec());
    match HiggsSummary::read_snapshot(&mut junk) {
        Err(SnapshotError::Codec(CodecError::UnexpectedEof)) => {}
        other => panic!("undersized snapshot must be typed, got {other:?}"),
    }
}

#[test]
fn newer_format_versions_are_refused() {
    let mut summary = HiggsSummary::new(HiggsConfig::paper_default());
    summary.insert(&StreamEdge::new(1, 2, 3, 4));
    let mut bytes = Vec::new();
    summary.write_snapshot(&mut bytes).expect("snapshot");
    // Patch the version field (bytes 8..12, after the u64 magic): the
    // version check runs before the checksum, so a future-format file is
    // refused outright rather than misparsed.
    bytes[8] = 0xEE;
    match HiggsSummary::read_snapshot(&mut bytes.as_slice()) {
        Err(SnapshotError::UnsupportedVersion { found, supported }) => {
            assert!(found > supported);
        }
        other => panic!("future version must be refused, got {other:?}"),
    }
}

#[test]
fn manifest_is_readable_without_touching_shards() {
    let dir = TempDir::new("manifest");
    let service = loaded_service(3);
    let written = service.snapshot_to_dir(dir.path()).expect("snapshot");
    let read = SnapshotManifest::read_from_dir(dir.path()).expect("read manifest");
    assert_eq!(read, written);
    assert_eq!(read.shard_count(), 3);
    assert_eq!(read.total_items(), service.total_items());
    assert_eq!(read.config.shards, 3);
}

#[test]
fn pin_workers_is_runtime_state_and_not_persisted() {
    // Worker pinning is placement state, not data: a service built with
    // pinning enabled must snapshot and restore bit-identically, and the
    // restored configuration must come back *unpinned* (the restoring
    // machine decides its own placement). The format itself is unchanged.
    let config = HiggsConfig::builder()
        .shards(2)
        .pin_workers(true)
        .build()
        .expect("valid configuration");
    let mut service = ShardedHiggs::new(config);
    let edges: Vec<StreamEdge> = (0..2_000u64)
        .map(|i| StreamEdge::new(i % 90, (i * 11) % 90, 1 + i % 3, i))
        .collect();
    service.insert_all(&edges);
    let queries: Vec<Query> = (0..90u64)
        .step_by(7)
        .map(|v| Query::edge(v, (v * 11) % 90, TimeRange::all()))
        .collect();
    let expected = service.query_batch(&queries);

    let dir = TempDir::new("pinned");
    let manifest = service.snapshot_to_dir(dir.path()).expect("snapshot");
    assert!(
        !manifest.config.pin_workers,
        "pinning must not be recorded in the manifest"
    );
    drop(service);

    let restored = Store::open(StoreOptions::restore(dir.path())).expect("restore");
    let restored_manifest = SnapshotManifest::read_from_dir(dir.path()).expect("manifest");
    assert!(!restored_manifest.config.pin_workers);
    assert_eq!(restored.query_batch(&queries), expected);

    // An unpinned service with the same data produces a byte-identical
    // snapshot: pinning can never leak into the format.
    let mut unpinned_config = config;
    unpinned_config.pin_workers = false;
    let mut unpinned = ShardedHiggs::new(unpinned_config);
    unpinned.insert_all(&edges);
    let dir2 = TempDir::new("unpinned");
    unpinned.snapshot_to_dir(dir2.path()).expect("snapshot");
    let pinned_manifest_bytes =
        std::fs::read(dir.path().join(MANIFEST_FILE)).expect("read pinned manifest");
    let unpinned_manifest_bytes =
        std::fs::read(dir2.path().join(MANIFEST_FILE)).expect("read unpinned manifest");
    assert_eq!(pinned_manifest_bytes, unpinned_manifest_bytes);
}

#[test]
fn deferred_aggregation_state_round_trips() {
    // Snapshot a summary whose aggregates have not materialised (deferred
    // mode, no finalize): unmaterialised nodes and the pending-job list must
    // survive, queries stay correct via leaf descent, and finalizing the
    // restored summary must materialise everything.
    let mut live = HiggsSummary::with_deferred_aggregation(collision_heavy_config(1));
    for i in 0..3_000u64 {
        live.insert(&StreamEdge::new(i % 60, (i * 7) % 60, 1, i));
    }
    let mut bytes = Vec::new();
    live.write_snapshot(&mut bytes).expect("snapshot deferred");
    let mut restored = HiggsSummary::read_snapshot(&mut bytes.as_slice()).expect("restore");
    assert!(restored.defers_aggregation());
    let probe = |s: &HiggsSummary| {
        (0..60u64)
            .map(|v| s.edge_query(v, (v * 7) % 60, TimeRange::new(100, 2_500)))
            .collect::<Vec<_>>()
    };
    assert_eq!(probe(&restored), probe(&live));
    restored.finalize_aggregations();
    live.finalize_aggregations();
    assert_eq!(probe(&restored), probe(&live));
}
