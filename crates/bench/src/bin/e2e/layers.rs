//! The per-layer split of a traced run (`--trace 1`).
//!
//! Two sources feed it. Spans recorded around the benchmark's own calls
//! (`client.*`, `request`) give the serving-side numbers of the run itself.
//! Everything below the service is measured afterwards by a
//! single-threaded, decomposed replay of the same inputs through each
//! layer's public functions: the stream split per shard (`shard_of`) into
//! `HiggsSummary` trees, the aggregation jobs they defer, the recorded
//! query sequence through `plan`, `cached_plan`, `query_with_plan` and
//! `query_batch`, and the stream through a journal, a history log and a
//! snapshot in a scratch directory.

use crate::inputs::{config, exact_answer, Inputs, BATCH};
use crate::stats::{percentile_or_zero, us};
use crate::trace::by_name;
use crate::workloads::{dir_bytes, fresh_dir, remove_dir, Run, Tally};
use higgs::history::HistoryLog;
use higgs::{journal, HiggsSummary, Journal, JournalMode, Store, StoreOptions};
use higgs_common::{shard_of, Query, ShardPlan, StreamEdge, TemporalGraphSummary, Weight};
use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("load.late_p99_us", "us"),
    ("load.ops", "count"),
    ("client.insert_all_ns_per_edge", "ns/edge"),
    ("client.flush_ms_p50", "ms"),
    ("client.submit_us_p50", "us"),
    ("serving.queue_us_p50", "us"),
    ("serving.plans_per_query", "ratio"),
    ("shard.query_us_p50", "us"),
    ("shard.query_us_p99", "us"),
    ("shard.pipeline_overhead", "ratio"),
    ("tree.insert_ns_per_edge", "ns/edge"),
    ("tree.leaves", "count"),
    ("tree.height", "count"),
    ("tree.leaf_utilization", "ratio"),
    ("tree.bytes_per_edge", "B/edge"),
    ("aggregate.jobs", "count"),
    ("aggregate.compute_ns_per_edge", "ns/edge"),
    ("aggregate.max_job_ms", "ms"),
    ("boundary.plan_us_p50", "us"),
    ("plan_cache.hit_ratio", "ratio"),
    ("plan_cache.lookup_us_p50", "us"),
    ("query.probe_us_p50", "us"),
    ("query.batch_us_per_query", "us"),
    ("journal.append_ns_per_edge", "ns/edge"),
    ("journal.bytes_per_edge", "B/edge"),
    ("journal.replay_ns_per_edge", "ns/edge"),
    ("history.append_ns_per_edge", "ns/edge"),
    ("history.bytes_per_edge", "B/edge"),
    ("snapshot.write_ms", "ms"),
    ("snapshot.bytes_per_edge", "B/edge"),
    ("snapshot.restore_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// Recorded queries replayed against each layer, at most.
const REPLAY_QUERIES: usize = 5_000;
/// Distinct ranges planned cold, at most.
const COLD_RANGES: usize = 256;
/// Slice length of the batched-query replay.
const BATCH_QUERIES: usize = 64;
const SHARDS: usize = 2;

/// Values in [`PER_LAYER`] order.
pub struct Layers {
    values: Vec<(&'static str, f64)>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|&(n, _)| n == name), "{name}");
        self.values.push((name, value));
    }

    /// `(name, value, unit)` for every per-layer metric.
    pub fn report(&self) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                self.values
                    .iter()
                    .find(|&&(n, _)| n == name)
                    .map(|&(_, v)| (name, v, unit))
                    .ok_or_else(|| format!("per-layer metric {name} was not measured"))
            })
            .collect()
    }
}

fn per_edge(total: Duration, edges: usize) -> f64 {
    total.as_nanos() as f64 / edges.max(1) as f64
}

/// Reduces a traced run and replays its inputs layer by layer. Consumes
/// the run's service (snapshotted, then dropped before the replay builds
/// its own trees). `overhead` is the traced ÷ untraced primary metric.
/// Mismatched answers count in `tally`.
pub fn measure(
    inputs: &mut Inputs,
    mut run: Run,
    overhead: f64,
    scratch: &Path,
    tally: &mut Tally,
) -> Result<Layers, String> {
    let mut out = Layers { values: Vec::new() };
    let n = inputs.edges.len();
    let spans = by_name(&run.spans);
    let durations = |name: &str| spans.get(name).map_or(&[][..], |s| &s.durations_us[..]);

    out.set("load.late_p99_us", percentile_or_zero(&run.late_us, 99.0));
    out.set("load.ops", run.ops as f64);
    let insert_self = spans.get("client.insert_all").map_or(0, |s| s.self_ns);
    out.set(
        "client.insert_all_ns_per_edge",
        insert_self as f64 / run.tally.edges.max(1) as f64,
    );
    out.set(
        "client.flush_ms_p50",
        percentile_or_zero(durations("client.flush"), 50.0) / 1e3,
    );
    out.set(
        "client.submit_us_p50",
        percentile_or_zero(durations("client.submit"), 50.0),
    );
    out.set("serving.plans_per_query", run.plans_per_query);

    let recorded: Vec<(Query, usize)> = run.recorded.drain(..).take(REPLAY_QUERIES).collect();
    let expected: Vec<Weight> = recorded
        .iter()
        .map(|(q, _)| exact_answer(&mut inputs.exact, q))
        .collect();

    // The service as a whole: one query at a time, no admission queue.
    let service = run.service.take().ok_or("a traced run keeps its service")?;
    let sharded = service.summary();
    let mut shard_us = Vec::with_capacity(recorded.len());
    for ((q, _), &want) in recorded.iter().zip(&expected) {
        let start = Instant::now();
        let got = sharded.query_batch(std::slice::from_ref(q));
        shard_us.push(us(start.elapsed()));
        tally.check("ShardedHiggs::query_batch", Ok::<_, ()>(got[0]), want);
    }
    let shard_p50 = percentile_or_zero(&shard_us, 50.0);
    out.set("shard.query_us_p50", shard_p50);
    out.set("shard.query_us_p99", percentile_or_zero(&shard_us, 99.0));
    out.set(
        "serving.queue_us_p50",
        (percentile_or_zero(&run.served_us, 50.0) - shard_p50).max(0.0),
    );

    // Snapshot of the service, then a warm restore of it.
    let dir = scratch.join("snapshot");
    fresh_dir(&dir)?;
    let start = Instant::now();
    sharded
        .snapshot_to_dir(&dir)
        .map_err(|e| format!("snapshot_to_dir: {e}"))?;
    out.set("snapshot.write_ms", start.elapsed().as_secs_f64() * 1e3);
    out.set(
        "snapshot.bytes_per_edge",
        dir_bytes(&dir)? as f64 / n as f64,
    );
    drop(service);
    let start = Instant::now();
    let restored = Store::open(StoreOptions::restore(&dir)).map_err(|e| format!("restore: {e}"))?;
    out.set("snapshot.restore_ms", start.elapsed().as_secs_f64() * 1e3);
    for ((q, _), &want) in recorded.iter().zip(&expected).take(50) {
        tally.check("restored query", Ok::<_, ()>(restored.query(q)), want);
    }
    drop(restored);
    remove_dir(&dir)?;

    replay_tree(inputs, &recorded, &expected, &run, tally, &mut out)?;
    replay_logs(&inputs.edges, scratch, tally, &mut out)?;
    out.set("trace.overhead", overhead);
    Ok(out)
}

/// Per-shard substreams, in stream order.
fn substreams(edges: &[StreamEdge]) -> Vec<Vec<StreamEdge>> {
    let mut subs = vec![Vec::new(); SHARDS];
    for e in edges {
        subs[shard_of(e.src, SHARDS)].push(*e);
    }
    subs
}

/// The shards a query touches.
fn touched(q: &Query) -> Vec<usize> {
    let plan = ShardPlan::build(std::slice::from_ref(q), SHARDS);
    (0..SHARDS)
        .filter(|&s| !plan.sub_batch(s).is_empty())
        .collect()
}

/// Tree, aggregation, boundary search, plan cache and query evaluation,
/// replayed on one thread.
fn replay_tree(
    inputs: &Inputs,
    recorded: &[(Query, usize)],
    expected: &[Weight],
    run: &Run,
    tally: &mut Tally,
    out: &mut Layers,
) -> Result<(), String> {
    let config = config()?;
    let edges = &inputs.edges;
    let n = edges.len();
    let mut trees: Vec<HiggsSummary> = (0..SHARDS)
        .map(|_| HiggsSummary::with_deferred_aggregation(config))
        .collect();
    let (mut insert, mut aggregate) = (Duration::ZERO, Duration::ZERO);
    let (mut jobs, mut max_job) = (0usize, Duration::ZERO);
    let mut lookups_us = Vec::new();
    let mut next = 0;
    // Insert batch by batch; before each batch, look up the plans of the
    // recorded queries submitted at this prefix, as the service would.
    let mut lookup_due = |prefix: usize, trees: &[HiggsSummary], next: &mut usize| {
        while *next < recorded.len() && recorded[*next].1 <= prefix {
            let q = &recorded[*next].0;
            for s in touched(q) {
                let start = Instant::now();
                std::hint::black_box(trees[s].cached_plan(q.range()));
                lookups_us.push(us(start.elapsed()));
            }
            *next += 1;
        }
    };
    for (b, chunk) in edges.chunks(BATCH).enumerate() {
        lookup_due(b * BATCH, &trees, &mut next);
        let start = Instant::now();
        for e in chunk {
            trees[shard_of(e.src, SHARDS)].insert_edge(e);
        }
        insert += start.elapsed();
        for tree in &mut trees {
            for job in tree.take_pending_aggregations() {
                let start = Instant::now();
                let matrix = tree.compute_aggregation(job.level, job.index);
                tree.install_aggregation(job.level, job.index, matrix);
                let took = start.elapsed();
                aggregate += took;
                max_job = max_job.max(took);
                jobs += 1;
            }
        }
    }
    lookup_due(n, &trees, &mut next);

    let hits: u64 = trees.iter().map(HiggsSummary::plan_cache_hits).sum();
    let built: u64 = trees.iter().map(HiggsSummary::plans_built).sum();
    out.set(
        "plan_cache.hit_ratio",
        hits as f64 / (hits + built).max(1) as f64,
    );
    out.set(
        "plan_cache.lookup_us_p50",
        percentile_or_zero(&lookups_us, 50.0),
    );
    out.set("tree.insert_ns_per_edge", per_edge(insert, n));
    out.set("aggregate.jobs", jobs as f64);
    out.set("aggregate.compute_ns_per_edge", per_edge(aggregate, n));
    out.set("aggregate.max_job_ms", max_job.as_secs_f64() * 1e3);
    let leaves: usize = trees.iter().map(HiggsSummary::leaf_count).sum();
    out.set("tree.leaves", leaves as f64);
    let height = trees.iter().map(HiggsSummary::height).max().unwrap_or(0);
    out.set("tree.height", height as f64);
    let used: f64 = trees
        .iter()
        .map(|t| t.average_leaf_utilization() * t.leaf_count() as f64)
        .sum();
    out.set("tree.leaf_utilization", used / leaves.max(1) as f64);
    let space: usize = trees.iter().map(HiggsSummary::space).sum();
    out.set("tree.bytes_per_edge", space as f64 / n as f64);
    let (build_wall, build_edges) = run.build;
    out.set(
        "shard.pipeline_overhead",
        per_edge(build_wall, build_edges) / per_edge(insert + aggregate, n),
    );

    // Cold boundary searches, one per distinct range and shard.
    let ranges: BTreeSet<_> = recorded
        .iter()
        .map(|(q, _)| (q.range().start, q.range().end))
        .collect();
    let mut plan_us = Vec::new();
    for &(a, b) in ranges.iter().take(COLD_RANGES) {
        for tree in &trees {
            let start = Instant::now();
            std::hint::black_box(tree.plan(higgs_common::TimeRange::new(a, b)));
            plan_us.push(us(start.elapsed()));
        }
    }
    out.set("boundary.plan_us_p50", percentile_or_zero(&plan_us, 50.0));

    // Probes with a warm plan, and columnar batches.
    let mut probe_us = Vec::with_capacity(recorded.len());
    for ((q, _), &want) in recorded.iter().zip(expected) {
        let plan = ShardPlan::build(std::slice::from_ref(q), SHARDS);
        let mut per_shard = vec![Vec::new(); SHARDS];
        let mut took = Duration::ZERO;
        for (s, tree) in trees.iter().enumerate() {
            let sub = plan.sub_batch(s);
            if sub.is_empty() {
                continue;
            }
            let warm = tree.cached_plan(q.range());
            let start = Instant::now();
            per_shard[s] = sub.iter().map(|p| tree.query_with_plan(p, &warm)).collect();
            took += start.elapsed();
        }
        probe_us.push(us(took));
        tally.check(
            "query_with_plan",
            Ok::<_, ()>(plan.gather(&per_shard)[0]),
            want,
        );
    }
    out.set("query.probe_us_p50", percentile_or_zero(&probe_us, 50.0));
    let mut batch_time = Duration::ZERO;
    let queries: Vec<Query> = recorded.iter().map(|(q, _)| q.clone()).collect();
    for (slice, want) in queries
        .chunks(BATCH_QUERIES)
        .zip(expected.chunks(BATCH_QUERIES))
    {
        let plan = ShardPlan::build(slice, SHARDS);
        let start = Instant::now();
        let per_shard: Vec<Vec<Weight>> = trees
            .iter()
            .enumerate()
            .map(|(s, tree)| tree.query_batch(plan.sub_batch(s)))
            .collect();
        batch_time += start.elapsed();
        for (got, &want) in plan.gather(&per_shard).into_iter().zip(want) {
            tally.check("HiggsSummary::query_batch", Ok::<_, ()>(got), want);
        }
    }
    out.set(
        "query.batch_us_per_query",
        us(batch_time) / queries.len().max(1) as f64,
    );
    Ok(())
}

/// Journal and history appends of every shard's substream in
/// `insert_all`-sized records, then a journal replay.
fn replay_logs(
    edges: &[StreamEdge],
    scratch: &Path,
    tally: &mut Tally,
    out: &mut Layers,
) -> Result<(), String> {
    let n = edges.len();
    let subs = substreams(edges);
    let io = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");

    let dir = scratch.join("journal");
    fresh_dir(&dir)?;
    let mut append = Duration::ZERO;
    for (s, sub) in subs.iter().enumerate() {
        let mut log = Journal::open(&dir, s, JournalMode::Buffered, 0)
            .map_err(|e| io("Journal::open", &e))?;
        for chunk in sub.chunks(BATCH) {
            let start = Instant::now();
            log.append_insert_batch(chunk)
                .map_err(|e| io("Journal::append", &e))?;
            append += start.elapsed();
        }
    }
    out.set("journal.append_ns_per_edge", per_edge(append, n));
    out.set("journal.bytes_per_edge", dir_bytes(&dir)? as f64 / n as f64);
    let start = Instant::now();
    let mut replayed = 0;
    for s in 0..SHARDS {
        let records = journal::replay(&dir, s, 0).map_err(|e| io("journal::replay", &e))?;
        replayed += records.iter().map(|r| r.edge_count()).sum::<usize>();
    }
    out.set("journal.replay_ns_per_edge", per_edge(start.elapsed(), n));
    if replayed != n {
        tally.fail(format!("journal replayed {replayed} of {n} edges"));
    }
    remove_dir(&dir)?;

    let dir = scratch.join("history");
    fresh_dir(&dir)?;
    let mut append = Duration::ZERO;
    let mut seq = 0u64;
    for (s, sub) in subs.iter().enumerate() {
        let mut log = HistoryLog::open(&dir, 0, s, JournalMode::Buffered)
            .map_err(|e| io("HistoryLog::open", &e))?;
        for chunk in sub.chunks(BATCH) {
            let seqs: Vec<u64> = (seq..seq + chunk.len() as u64).collect();
            seq += chunk.len() as u64;
            let start = Instant::now();
            log.append_insert_batch(chunk, &seqs)
                .map_err(|e| io("HistoryLog::append", &e))?;
            append += start.elapsed();
        }
    }
    out.set("history.append_ns_per_edge", per_edge(append, n));
    out.set("history.bytes_per_edge", dir_bytes(&dir)? as f64 / n as f64);
    remove_dir(&dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for &(name, unit) in PER_LAYER {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn a_missing_metric_is_an_error() {
        let layers = Layers {
            values: vec![("load.ops", 1.0)],
        };
        assert!(layers.report().is_err());
    }
}
