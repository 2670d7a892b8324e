//! Criterion bench for elastic resharding: what a shard-count change costs,
//! offline and online.
//!
//! Three ids over the same synthetic stream (seeded into an elastic durable
//! directory, snapshotted so the manifest carries the configuration):
//!
//! * `offline/2_to_4` — `Store::open_resharded`: read every history
//!   generation, refold at the new width, commit the snapshot, arm writers.
//! * `offline/4_to_2` — the narrowing direction (same history, fewer
//!   target summaries).
//! * `online/2_to_4` — `ShardedHiggs::reshard` on a live service: fence the
//!   fleet, refold, commit, swap the writer set.
//!
//! Fold correctness is asserted (item census survives the refold) before
//! any number is trusted. All ids feed `BENCH_resharding.json` for the CI
//! perf-regression gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use higgs::{HiggsConfig, JournalMode, ShardedHiggs, Store, StoreOptions};
use higgs_common::{StreamEdge, TemporalGraphSummary};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const EDGES: u64 = 8_192;

fn stream() -> Vec<StreamEdge> {
    (0..EDGES)
        .map(|i| StreamEdge::new(i % 512, (i * 31) % 512, 1 + i % 5, i))
        .collect()
}

fn config(shards: usize) -> HiggsConfig {
    HiggsConfig::builder()
        .shards(shards)
        .journal_mode(JournalMode::Buffered)
        .build()
        .expect("valid elastic configuration")
}

fn fresh_dir(tag: &str, seq: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "higgs-bench-reshard-{tag}-{}-{seq}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Seeds an elastic directory at `shards` with the stream and a snapshot
/// manifest (an offline refold takes its configuration from the manifest).
fn seed(dir: &PathBuf, shards: usize, edges: &[StreamEdge]) {
    let mut service = Store::open(StoreOptions::durable(config(shards), dir).elastic(true))
        .expect("elastic durable service");
    service.insert_all(edges);
    service.flush();
    service.snapshot_to_dir(dir).expect("seed snapshot");
}

fn bench_resharding(c: &mut Criterion) {
    let edges = stream();

    let mut group = c.benchmark_group("resharding");
    group.sample_size(10);
    group.throughput(Throughput::Elements(EDGES));

    // Offline refolds: the directory is seeded once per direction; every
    // timed open folds the identical history. (A refold does not consume
    // the history, so the directory is reusable across iterations.)
    for (tag, from, to) in [("2_to_4", 2usize, 4usize), ("4_to_2", 4, 2)] {
        let dir = fresh_dir(tag, 0);
        seed(&dir, from, &edges);
        group.bench_with_input(BenchmarkId::new("offline", tag), &dir, |b, dir| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let start = Instant::now();
                    let resharded =
                        ShardedHiggs::restore_resharded(dir, to).expect("offline refold");
                    total += start.elapsed();
                    assert_eq!(
                        resharded.total_items(),
                        EDGES,
                        "the refold must carry the full stream"
                    );
                    black_box(resharded.num_shards());
                    drop(resharded);
                }
                total
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Online reshard: fence + refold + swap on a live service. The service
    // build (ingest, flush) stays outside the clock; each iteration pays
    // one full 2 -> 4 swap.
    group.bench_with_input(BenchmarkId::new("online", "2_to_4"), &edges, |b, edges| {
        let mut seq = 0u64;
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let dir = fresh_dir("online", seq);
                seq += 1;
                let mut service = Store::open(StoreOptions::durable(config(2), &dir).elastic(true))
                    .expect("elastic durable service");
                service.insert_all(edges);
                service.flush();
                let start = Instant::now();
                service.reshard(4).expect("online reshard");
                total += start.elapsed();
                assert_eq!(service.num_shards(), 4);
                assert_eq!(service.total_items(), EDGES);
                drop(service);
                let _ = std::fs::remove_dir_all(&dir);
            }
            total
        })
    });

    group.finish();
}

criterion_group!(benches, bench_resharding);
criterion_main!(benches);
