//! Criterion bench for warm-follower replication: what standing up and
//! feeding a read replica costs.
//!
//! Three ids over the same synthetic stream, split half into the leader's
//! snapshot and half into the journal tail the follower has to ship:
//!
//! * `bootstrap/snapshot` — `Store::follow`: restore the snapshot summaries
//!   and stamp the replication cursors (no journal replay).
//! * `ship/full_tail` — one `Follower::sync` shipping the entire journal
//!   tail: scan, checksum-verify, apply, advance cursors.
//! * `lag/probe` — `Follower::replication_lag` over an already-synced
//!   follower: the steady-state monitoring cost (scan without applying).
//!
//! Shipping correctness is asserted (records shipped match the tail) before
//! any number is trusted. All ids feed `BENCH_replication.json` for the CI
//! perf-regression gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use higgs::{HiggsConfig, JournalMode, Store, StoreOptions};
use higgs_common::{StreamEdge, TemporalGraphSummary};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const EDGES: u64 = 8_192;
const TAIL: u64 = EDGES / 2;

fn stream() -> Vec<StreamEdge> {
    (0..EDGES)
        .map(|i| StreamEdge::new(i % 512, (i * 31) % 512, 1 + i % 5, i))
        .collect()
}

fn config() -> HiggsConfig {
    HiggsConfig::builder()
        .shards(SHARDS)
        .journal_mode(JournalMode::Buffered)
        .build()
        .expect("valid durable configuration")
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("higgs-bench-replica-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Seeds a leader directory: the first half of the stream lands in the
/// snapshot (the follower's bootstrap basis), the second half stays in the
/// journal tail (what `sync` ships).
fn seed(dir: &PathBuf, edges: &[StreamEdge]) {
    let mut leader = Store::open(StoreOptions::durable(config(), dir)).expect("durable leader");
    let (snapshotted, tail) = edges.split_at((EDGES - TAIL) as usize);
    leader.insert_all(snapshotted);
    leader.flush();
    leader.snapshot_to_dir(dir).expect("leader snapshot");
    // Per-edge inserts: each tail edge becomes one journal record, so the
    // shipped-record accounting below is exact.
    for e in tail {
        leader.insert(e);
    }
    leader.flush();
}

fn bench_replication(c: &mut Criterion) {
    let edges = stream();
    let dir = fresh_dir("leader");
    seed(&dir, &edges);

    let mut group = c.benchmark_group("replication");
    group.sample_size(10);
    group.throughput(Throughput::Elements(TAIL));

    // Bootstrap: snapshot restore + cursor stamping, no journal replay.
    group.bench_with_input(BenchmarkId::new("bootstrap", "snapshot"), &dir, |b, dir| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let start = Instant::now();
                let follower = Store::follow(StoreOptions::restore(dir)).expect("bootstrap");
                total += start.elapsed();
                black_box(follower.num_shards());
                drop(follower);
            }
            total
        })
    });

    // Shipping: one sync over the full journal tail. The bootstrap (cursor
    // reset) stays outside the clock.
    group.bench_with_input(BenchmarkId::new("ship", "full_tail"), &dir, |b, dir| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let mut follower = Store::follow(StoreOptions::restore(dir)).expect("bootstrap");
                let start = Instant::now();
                let progress = follower.sync().expect("ship the tail");
                total += start.elapsed();
                assert_eq!(
                    progress.records_applied, TAIL,
                    "the sync must ship the whole journal tail"
                );
                drop(follower);
            }
            total
        })
    });

    // Lag probe on a caught-up follower: the steady-state monitoring cost.
    let mut synced = Store::follow(StoreOptions::restore(&dir)).expect("bootstrap");
    synced.sync().expect("catch up");
    group.bench_with_input(BenchmarkId::new("lag", "probe"), &synced, |b, follower| {
        b.iter(|| {
            let lag = follower.replication_lag().expect("lag probe");
            assert_eq!(lag.records_behind, 0, "the follower is caught up");
            black_box(lag)
        })
    });
    drop(synced);

    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_replication);
criterion_main!(benches);
