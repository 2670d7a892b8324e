//! Criterion bench for the write-ahead journal: what durability costs on
//! the ingest path, and how fast a crashed service comes back.
//!
//! Seven ids over the same synthetic stream, all but the last two at 2
//! shards:
//!
//! * `ingest/off` — the no-journal baseline: a durable service with
//!   [`JournalMode::Off`] pays directory recovery but writes nothing.
//! * `ingest/buffered` — [`JournalMode::Buffered`]: every mutation is
//!   encoded and written through the journal's userspace buffer before it
//!   is applied, with no fsync. The delta over `ingest/off` is the steady-
//!   state journaling tax.
//! * `ingest/sync_every_64` — [`JournalMode::SyncEveryN`]: an fsync every
//!   64 appended records bounds post-crash loss at the cost of periodic
//!   device round-trips.
//! * `recover/buffered` — cold-start recovery: `Store::open` over a
//!   directory holding journal tails only (no snapshot), i.e. full replay
//!   with checksum verification plus shard rebuild.
//! * `recover/elastic_snapshot` — the reopen of an elastic store, the shape
//!   the end-to-end `durable` workload reopens: `Store::open` over a
//!   directory holding a snapshot of the first half of the stream, the
//!   second half as journal tails, and the whole stream as history. It
//!   restores, replays and re-arms both shards in parallel, and re-arming
//!   reads each history file once, for its torn tail and its highest
//!   sequence number.
//! * `snapshot/write` — one summary holding the whole stream encoded as a
//!   snapshot document into memory: the format's encoder and checksum,
//!   without the disk.
//! * `snapshot/restore` — that document decoded and verified back into a
//!   summary.
//!
//! Recovery correctness is asserted (replayed item count matches the
//! ingested stream) before any number is trusted. All ids feed
//! `BENCH_journal.json` for the CI perf-regression gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use higgs::{HiggsConfig, HiggsSummary, JournalMode, Store, StoreOptions};
use higgs_common::{StreamEdge, TemporalGraphSummary};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const EDGES: u64 = 8_192;

fn stream() -> Vec<StreamEdge> {
    (0..EDGES)
        .map(|i| StreamEdge::new(i % 512, (i * 31) % 512, 1 + i % 5, i))
        .collect()
}

fn config(mode: JournalMode) -> HiggsConfig {
    HiggsConfig::builder()
        .shards(SHARDS)
        .journal_mode(mode)
        .build()
        .expect("valid durable configuration")
}

fn fresh_dir(tag: &str, seq: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "higgs-bench-journal-{tag}-{}-{seq}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench_journal(c: &mut Criterion) {
    let edges = stream();

    let mut group = c.benchmark_group("journal");
    group.sample_size(10);
    group.throughput(Throughput::Elements(EDGES));

    // Ingest cost per sync policy: timed region covers enqueue, journal
    // append, apply, and the visibility flush; service construction and
    // teardown stay outside the clock.
    for (tag, mode) in [
        ("off", JournalMode::Off),
        ("buffered", JournalMode::Buffered),
        ("sync_every_64", JournalMode::SyncEveryN(64)),
    ] {
        group.bench_with_input(BenchmarkId::new("ingest", tag), &edges, |b, edges| {
            let mut seq = 0u64;
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let dir = fresh_dir(tag, seq);
                    seq += 1;
                    let mut service = Store::open(StoreOptions::durable(config(mode), &dir))
                        .expect("durable service");
                    let start = Instant::now();
                    service.insert_all(edges);
                    service.flush();
                    total += start.elapsed();
                    black_box(service.total_items());
                    drop(service);
                    let _ = std::fs::remove_dir_all(&dir);
                }
                total
            })
        });
    }

    // Recovery: replay the full journal tail (no snapshot) into fresh
    // summaries. The directory is written once; every timed open replays
    // the same records.
    let recover_dir = fresh_dir("recover", 0);
    {
        let mut seed = Store::open(StoreOptions::durable(
            config(JournalMode::Buffered),
            &recover_dir,
        ))
        .expect("seed service");
        seed.insert_all(&edges);
        seed.flush();
    }
    group.bench_with_input(
        BenchmarkId::new("recover", "buffered"),
        &recover_dir,
        |b, dir| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let start = Instant::now();
                    let recovered =
                        Store::open(StoreOptions::durable(config(JournalMode::Buffered), dir))
                            .expect("journal replay");
                    total += start.elapsed();
                    assert_eq!(
                        recovered.total_items(),
                        EDGES,
                        "replay must rebuild the full stream"
                    );
                    drop(recovered);
                }
                total
            })
        },
    );
    let _ = std::fs::remove_dir_all(&recover_dir);

    // Elastic reopen: snapshot + journal tail + history. A clean directory
    // is left unchanged by an open (no torn tail to trim, no stale journal
    // to reset), so every timed open does the same work.
    let elastic_dir = fresh_dir("recover-elastic", 0);
    let elastic =
        || StoreOptions::durable(config(JournalMode::Buffered), &elastic_dir).elastic(true);
    {
        let mut seed = Store::open(elastic()).expect("seed elastic service");
        let (first, second) = edges.split_at(edges.len() / 2);
        seed.insert_all(first);
        seed.snapshot_to_dir(&elastic_dir).expect("seed snapshot");
        seed.insert_all(second);
        seed.flush();
    }
    group.bench_function("recover/elastic_snapshot", |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let start = Instant::now();
                let recovered = Store::open(elastic()).expect("elastic reopen");
                total += start.elapsed();
                assert_eq!(
                    recovered.total_items(),
                    EDGES,
                    "snapshot + replay must rebuild the full stream"
                );
                drop(recovered);
            }
            total
        })
    });
    let _ = std::fs::remove_dir_all(&elastic_dir);

    // Snapshot codec: one summary holding the stream, encoded to and
    // decoded from memory, so the ids time the format and not the disk.
    let mut summary = HiggsSummary::new(HiggsConfig::paper_default());
    summary.insert_all(&edges);
    let mut document = Vec::new();
    summary.write_snapshot(&mut document).expect("snapshot");
    group.bench_function("snapshot/write", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(document.len());
            black_box(summary.write_snapshot(&mut out).expect("snapshot"));
            out
        })
    });
    group.bench_function("snapshot/restore", |b| {
        b.iter(|| {
            let restored = HiggsSummary::read_snapshot(&mut document.as_slice()).expect("restore");
            assert_eq!(
                restored.total_items(),
                EDGES,
                "restore must keep every item"
            );
            restored
        })
    });
    group.finish();
}

criterion_group!(benches, bench_journal);
criterion_main!(benches);
