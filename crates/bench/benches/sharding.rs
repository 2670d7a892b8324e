//! Criterion bench for the sharded service layer: ingest throughput and
//! batch-query latency at 1/2/4/8 shards against the single-summary and
//! [`ParallelHiggs`] baselines, all at Smoke scale on the Lkml preset.
//!
//! Three sub-groups:
//!
//! * `ingest/*` — the **ingest-path** throughput: the time the ingest caller
//!   itself spends getting the whole stream accepted. For the single summary
//!   this is the full synchronous insert (leaf insertion + inline
//!   aggregation); for `ParallelHiggs` it is insertion with aggregation
//!   handed to workers; for `ShardedHiggs` it is routing + enqueueing, with
//!   both insertion and (inline) aggregation handed to the per-shard
//!   writers. This is the sustainable service ingest
//!   rate when writer cores are available; instances are torn down with
//!   [`ShardedHiggs::discard_pending`] outside the timed region so backlog
//!   processing never pollutes the measurement.
//! * `ingest_complete/*` — end-to-end completion: `insert_all` **plus**
//!   `flush`, i.e. every leaf inserted and every aggregate installed. On a
//!   single-core runner this converges to total-work time regardless of
//!   sharding; on multi-core hardware it tracks the real scale-out.
//! * `query_batch/*` — serving latency of one mixed plan-sharing batch
//!   (edge/vertex/path/subgraph over a handful of windows) against fully
//!   built summaries.
//!
//! All ids feed `BENCH_sharding.json` for the CI perf-regression gate (see
//! the `bench_gate` binary).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use higgs::{HiggsConfig, HiggsSummary, ParallelHiggs};
use higgs_bench::competitors::build_sharded_higgs;
use higgs_common::generator::{DatasetPreset, ExperimentScale, WorkloadBuilder};
use higgs_common::{Query, TemporalGraphSummary};
use std::hint::black_box;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Concatenated copies of the Smoke stream in the ingest benches. A single
/// Smoke pass enqueues in ~30 µs on a sharded service — far too short to
/// gate at ±25% on a busy runner — so the ingest benches measure
/// `INGEST_PASSES` time-shifted copies back to back, keeping every timed
/// region comfortably above scheduler-noise scale.
const INGEST_PASSES: u64 = 8;

/// The Smoke stream repeated `INGEST_PASSES` times, each copy shifted past
/// the previous one so the concatenation is still a valid time-ordered
/// stream.
fn long_stream() -> Vec<higgs_common::StreamEdge> {
    let stream = DatasetPreset::Lkml.generate(ExperimentScale::Smoke);
    let span = stream.time_span().expect("non-empty stream").end + 1;
    let mut edges = Vec::with_capacity(stream.len() * INGEST_PASSES as usize);
    for pass in 0..INGEST_PASSES {
        edges.extend(stream.iter().map(|e| {
            let mut shifted = *e;
            shifted.timestamp += pass * span;
            shifted
        }));
    }
    edges
}

fn bench_ingest(c: &mut Criterion) {
    let edges = long_stream();
    let edges = edges.as_slice();
    let mut group = c.benchmark_group("sharding");
    group.sample_size(10);
    group.throughput(Throughput::Elements(edges.len() as u64));

    // Ingest-path throughput (see module docs for what is and isn't timed).
    group.bench_function("ingest/single", |b| {
        b.iter_batched(
            || HiggsSummary::new(HiggsConfig::paper_default()),
            |mut summary| {
                summary.insert_all(edges);
                summary
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("ingest/parallel/2", |b| {
        b.iter_batched(
            || ParallelHiggs::new(HiggsConfig::paper_default(), 2),
            |mut summary| {
                summary.insert_all(edges);
                summary
            },
            BatchSize::SmallInput,
        )
    });
    for shards in SHARD_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("ingest/sharded", shards),
            &shards,
            |b, &shards| {
                b.iter_batched(
                    || build_sharded_higgs(shards),
                    |mut service| {
                        service.insert_all(edges);
                        // Teardown (outside the timed region) should shed the
                        // backlog instead of working it off.
                        service.discard_pending();
                        service
                    },
                    BatchSize::SmallInput,
                )
            },
        );
    }

    // End-to-end completion: everything inserted and aggregated. The single
    // summary is synchronous, so its completion time IS `ingest/single`
    // above — re-measuring it here would only add a second gate id that can
    // drift from the first through noise.
    group.bench_function("ingest_complete/parallel/2", |b| {
        b.iter_batched(
            || ParallelHiggs::new(HiggsConfig::paper_default(), 2),
            |mut summary| {
                summary.insert_all(edges);
                summary.flush();
                summary
            },
            BatchSize::SmallInput,
        )
    });
    for shards in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("ingest_complete/sharded", shards),
            &shards,
            |b, &shards| {
                b.iter_batched(
                    || build_sharded_higgs(shards),
                    |mut service| {
                        service.insert_all(edges);
                        service.flush();
                        service
                    },
                    BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

/// A production-style mixed batch: edge, vertex (both directions), path and
/// subgraph queries spread over four shared sliding windows.
fn mixed_batch(stream: &higgs_common::GraphStream) -> Vec<Query> {
    let span = stream.time_span().expect("non-empty stream");
    let mut builder = WorkloadBuilder::new(stream, 46);
    let window = (span.len() / 5).max(1);
    let windows: Vec<higgs_common::TimeRange> = (0..4u64)
        .map(|i| {
            let start = span.start + i * window;
            higgs_common::TimeRange::new(start, (start + 2 * window).min(span.end))
        })
        .collect();
    let mut batch = Vec::new();
    for (i, q) in builder.edge_queries(64, window).into_iter().enumerate() {
        let mut q = q;
        q.range = windows[i % windows.len()];
        batch.push(Query::Edge(q));
    }
    for (i, q) in builder.vertex_queries(64, window).into_iter().enumerate() {
        let mut q = q;
        q.range = windows[i % windows.len()];
        batch.push(Query::Vertex(q));
    }
    for (i, q) in builder.path_queries(16, 4, window).into_iter().enumerate() {
        let mut q = q;
        q.range = windows[i % windows.len()];
        batch.push(Query::Path(q));
    }
    for (i, q) in builder
        .subgraph_queries(8, 24, window)
        .into_iter()
        .enumerate()
    {
        let mut q = q;
        q.range = windows[i % windows.len()];
        batch.push(Query::Subgraph(q));
    }
    batch
}

fn bench_query_batch(c: &mut Criterion) {
    let stream = DatasetPreset::Lkml.generate(ExperimentScale::Smoke);
    let batch = mixed_batch(&stream);

    let mut single = HiggsSummary::new(HiggsConfig::paper_default());
    single.insert_all(stream.edges());

    let mut group = c.benchmark_group("sharding");
    group.sample_size(15);
    group.throughput(Throughput::Elements(batch.len() as u64));
    group.bench_function("query_batch/single", |b| {
        b.iter(|| black_box(single.query_batch(&batch)))
    });
    for shards in SHARD_COUNTS {
        let mut service = build_sharded_higgs(shards);
        service.insert_all(stream.edges());
        service.flush();
        group.bench_with_input(
            BenchmarkId::new("query_batch/sharded", shards),
            &batch,
            |b, batch| b.iter(|| black_box(service.query_batch(batch))),
        );
        // Sharding must never change answers: spot-check against the single
        // summary before trusting the latency numbers.
        assert_eq!(
            service.query_batch(&batch),
            single.query_batch(&batch),
            "{shards}-shard service diverged from the single summary"
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ingest, bench_query_batch);
criterion_main!(benches);
