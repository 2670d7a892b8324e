//! Parallel insertion pipeline (Section IV-C).
//!
//! The paper assigns each tree layer its own thread and lets only the leaf
//! thread touch the raw stream, so that order preservation is required only
//! at the item level. This implementation keeps leaf insertion on the ingest
//! thread (it is O(1) and cheap) and ships every group-close *aggregation*
//! job to a pool of per-layer worker threads over crossbeam channels:
//! aggregation — the expensive part of an insertion — is thereby removed from
//! the ingest critical path, which is what produces the throughput gain of
//! Fig. 20a.
//!
//! A job must stand alone while its sibling jobs are still in flight, so
//! each one clones the leaf matrices its node covers and lifts every leaf
//! entry straight to the node's layer
//! ([`aggregate_leaves_to_layer`](crate::aggregate::aggregate_leaves_to_layer)).
//! This pipeline is the only place that happens: the sharded service's
//! writers aggregate inline, bottom-up from the θ children, which lifts
//! each entry once and measured faster than shipping jobs on the same cores.
//!
//! Queries remain correct while aggregations are in flight because the
//! boundary search only uses aggregates that have materialised and otherwise
//! descends to the leaves (see [`boundary`](crate::boundary)). Calling
//! [`ParallelHiggs::flush`] blocks until every outstanding aggregate is
//! installed, after which the structure answers every query exactly like a
//! sequentially built [`HiggsSummary`].

use crate::config::HiggsConfig;
use crate::matrix::CompressedMatrix;
use crate::tree::HiggsSummary;
use crossbeam::channel::{unbounded, Receiver, Sender};
use higgs_common::hashing::FingerprintLayout;
use higgs_common::{
    Query, StreamEdge, TemporalGraphSummary, TimeRange, VertexDirection, VertexId, Weight,
};
use std::thread::JoinHandle;

/// An aggregation job shipped to a worker: the cloned leaf matrices (and
/// overflow blocks) covered by the node, plus the target layer. Cloning a
/// [`CompressedMatrix`] is a flat slab memcpy (no per-bucket allocations),
/// so snapshotting a job's sources stays cheap on the ingest thread.
struct Job {
    level: usize,
    index: usize,
    target_layer: u32,
    sources: Vec<CompressedMatrix>,
    layout: FingerprintLayout,
    config: HiggsConfig,
}

/// A finished aggregation.
struct JobResult {
    level: usize,
    index: usize,
    matrix: CompressedMatrix,
}

/// HIGGS with background aggregation workers.
pub struct ParallelHiggs {
    inner: HiggsSummary,
    job_tx: Option<Sender<Job>>,
    result_rx: Receiver<JobResult>,
    workers: Vec<JoinHandle<()>>,
    in_flight: usize,
}

impl ParallelHiggs {
    /// Creates a parallel summary with `workers` aggregation threads
    /// (the paper uses one per layer; 2–4 is plenty for laptop-scale runs).
    ///
    /// When [`HiggsConfig::pin_workers`] is set, the aggregation workers pin
    /// to core 0.
    pub fn new(config: HiggsConfig, workers: usize) -> Self {
        Self::from_summary(HiggsSummary::with_deferred_aggregation(config), workers)
    }

    /// Wraps an existing summary (typically one restored from a snapshot,
    /// see [`snapshot`](crate::snapshot)) in a fresh aggregation pipeline
    /// with `workers` worker threads. The summary is switched to deferred
    /// aggregation; any pending jobs it carries are dispatched on the next
    /// insert or flush.
    ///
    /// Pinning follows the summary's own configuration (core 0 when
    /// `pin_workers` is set); note that restored configurations always carry
    /// `pin_workers: false` because pinning is never persisted.
    pub fn from_summary(mut summary: HiggsSummary, workers: usize) -> Self {
        let pin_core = summary.config().pin_core(0);
        summary.defer_aggregation = true;
        let workers = workers.max(1);
        let (job_tx, job_rx) = unbounded::<Job>();
        let (result_tx, result_rx) = unbounded::<JobResult>();
        let handles = (0..workers)
            .map(|_| {
                let job_rx = job_rx.clone();
                let result_tx = result_tx.clone();
                std::thread::spawn(move || {
                    if let Some(core) = pin_core {
                        // Best-effort: an unpinnable core just leaves the
                        // worker schedulable anywhere.
                        let _ = higgs_common::affinity::pin_to_core(core);
                    }
                    while let Ok(job) = job_rx.recv() {
                        let sources: Vec<&CompressedMatrix> = job.sources.iter().collect();
                        let matrix = crate::aggregate::aggregate_leaves_to_layer(
                            &job.layout,
                            &job.config,
                            &sources,
                            job.target_layer,
                        );
                        // The receiver disappearing just means the owner was
                        // dropped mid-flight; the result is no longer needed.
                        let _ = result_tx.send(JobResult {
                            level: job.level,
                            index: job.index,
                            matrix,
                        });
                    }
                })
            })
            .collect();
        Self {
            inner: summary,
            job_tx: Some(job_tx),
            result_rx,
            workers: handles,
            in_flight: 0,
        }
    }

    /// Read access to the underlying summary (aggregates may still be in
    /// flight; queries are nonetheless correct).
    pub fn summary(&self) -> &HiggsSummary {
        &self.inner
    }

    /// Number of aggregation jobs currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    fn dispatch_pending(&mut self) {
        let jobs = self.inner.take_pending_aggregations();
        for job in jobs {
            // If the worker pool is gone (the job channel was closed by
            // `shutdown`), fall back to inline aggregation so no node is ever
            // left unmaterialised — this keeps `flush` and late inserts safe
            // after shutdown instead of silently dropping the job.
            let Some(tx) = &self.job_tx else {
                let matrix = self.inner.compute_aggregation(job.level, job.index);
                self.inner.install_aggregation(job.level, job.index, matrix);
                continue;
            };
            let (first, last) = self.inner.leaf_span(job.level, job.index);
            let mut sources = Vec::new();
            for leaf in &self.inner.leaves[first..=last] {
                sources.push(leaf.matrix.clone());
                sources.extend(leaf.overflow.blocks().iter().cloned());
            }
            let payload = Job {
                level: job.level,
                index: job.index,
                target_layer: job.level as u32 + 2,
                sources,
                layout: *self.inner.layout(),
                config: *self.inner.config(),
            };
            if tx.send(payload).is_ok() {
                self.in_flight += 1;
            } else {
                let matrix = self.inner.compute_aggregation(job.level, job.index);
                self.inner.install_aggregation(job.level, job.index, matrix);
            }
        }
    }

    /// Installs every result already queued on the result channel without
    /// blocking.
    fn drain_results(&mut self) {
        while self.in_flight > 0 {
            match self.result_rx.try_recv() {
                Ok(result) => {
                    self.inner
                        .install_aggregation(result.level, result.index, result.matrix);
                    self.in_flight -= 1;
                }
                Err(_) => break,
            }
        }
    }

    /// Blocks until every outstanding aggregation has been installed.
    ///
    /// Idempotent — flushing an already-flushed pipeline returns immediately
    /// — and safe to call after the job channel has closed (e.g. after the
    /// worker pool shut down with results still in flight): results that can
    /// no longer arrive are recomputed inline, so the summary is always fully
    /// aggregated when this returns.
    pub fn flush(&mut self) {
        self.dispatch_pending();
        while self.in_flight > 0 {
            match self.result_rx.recv() {
                Ok(result) => {
                    self.inner
                        .install_aggregation(result.level, result.index, result.matrix);
                    self.in_flight -= 1;
                }
                Err(_) => {
                    // Every worker has exited and the queue is drained; the
                    // remaining in-flight results are unrecoverable. Rebuild
                    // the missing aggregates from the leaves instead of
                    // spinning forever.
                    self.in_flight = 0;
                    self.inner.materialize_missing_aggregations();
                }
            }
        }
    }

    /// Consumes the pipeline, flushes it, and returns the fully aggregated
    /// sequential summary.
    pub fn into_summary(mut self) -> HiggsSummary {
        self.flush();
        self.shutdown();
        std::mem::replace(
            &mut self.inner,
            HiggsSummary::new(HiggsConfig::paper_default()),
        )
    }

    fn shutdown(&mut self) {
        self.job_tx = None; // closing the channel stops the workers
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ParallelHiggs {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl TemporalGraphSummary for ParallelHiggs {
    fn insert(&mut self, edge: &StreamEdge) {
        self.inner.insert_edge(edge);
        self.dispatch_pending();
        self.drain_results();
    }

    fn delete(&mut self, edge: &StreamEdge) {
        // Deletions must see fully materialised ancestors to decrement them.
        self.flush();
        self.inner.delete_edge(edge);
    }

    fn edge_query(&self, src: VertexId, dst: VertexId, range: TimeRange) -> Weight {
        self.inner.edge_query(src, dst, range)
    }

    fn vertex_query(
        &self,
        vertex: VertexId,
        direction: VertexDirection,
        range: TimeRange,
    ) -> Weight {
        self.inner.vertex_query(vertex, direction, range)
    }

    fn query(&self, query: &Query) -> Weight {
        // Forward to the inner summary so the plan-sharing overrides apply
        // (leaf-descent fallbacks keep results correct while aggregations
        // are still in flight).
        self.inner.query(query)
    }

    fn query_batch(&self, queries: &[Query]) -> Vec<Weight> {
        self.inner.query_batch(queries)
    }

    fn space_bytes(&self) -> usize {
        self.inner.space_bytes()
    }

    fn name(&self) -> &'static str {
        "HIGGS-parallel"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> HiggsConfig {
        HiggsConfig {
            d1: 4,
            f1_bits: 12,
            r_bits: 1,
            bucket_entries: 2,
            mapping_addresses: 2,
            overflow_blocks: true,
            shards: 1,
            plan_cache_capacity: 8,
            ingest_queue_cap: None,
            pin_workers: false,
            admission_tick: std::time::Duration::ZERO,
            service_queue_depth: None,
            journal_mode: crate::config::JournalMode::Off,
        }
    }

    fn edges(n: u64) -> Vec<StreamEdge> {
        (0..n)
            .map(|i| StreamEdge::new(i % 150, (i * 7) % 150, 1 + i % 3, i))
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_after_flush() {
        let stream = edges(4_000);
        let mut sequential = HiggsSummary::new(tiny_config());
        let mut parallel = ParallelHiggs::new(tiny_config(), 3);
        for e in &stream {
            sequential.insert(e);
            parallel.insert(e);
        }
        parallel.flush();
        assert_eq!(parallel.in_flight(), 0);
        for (lo, hi) in [(0u64, 3_999u64), (100, 900), (2_000, 2_500)] {
            let r = TimeRange::new(lo, hi);
            for v in (0..150u64).step_by(13) {
                assert_eq!(
                    sequential.edge_query(v, (v * 7) % 150, r),
                    parallel.edge_query(v, (v * 7) % 150, r)
                );
                assert_eq!(
                    sequential.vertex_query(v, VertexDirection::Out, r),
                    parallel.vertex_query(v, VertexDirection::Out, r)
                );
            }
        }
    }

    #[test]
    fn queries_are_correct_while_jobs_in_flight() {
        let stream = edges(2_000);
        let mut sequential = HiggsSummary::new(tiny_config());
        let mut parallel = ParallelHiggs::new(tiny_config(), 2);
        for e in &stream {
            sequential.insert(e);
            parallel.insert(e);
        }
        // No flush: some aggregates may still be missing; answers must match
        // anyway because queries fall back to the leaves.
        let r = TimeRange::new(250, 1_750);
        for v in (0..150u64).step_by(29) {
            assert_eq!(
                sequential.edge_query(v, (v * 7) % 150, r),
                parallel.edge_query(v, (v * 7) % 150, r)
            );
        }
    }

    #[test]
    fn into_summary_produces_fully_aggregated_tree() {
        let mut parallel = ParallelHiggs::new(tiny_config(), 2);
        for e in edges(3_000) {
            parallel.insert(&e);
        }
        let summary = parallel.into_summary();
        assert!(summary
            .internals
            .iter()
            .flatten()
            .all(|n| n.matrix.is_some()));
    }

    #[test]
    fn delete_through_pipeline() {
        let mut parallel = ParallelHiggs::new(tiny_config(), 2);
        let stream = edges(1_000);
        for e in &stream {
            parallel.insert(e);
        }
        let target = &stream[123];
        let before = parallel.edge_query(target.src, target.dst, TimeRange::all());
        parallel.delete(target);
        let after = parallel.edge_query(target.src, target.dst, TimeRange::all());
        assert_eq!(after, before - target.weight);
    }

    #[test]
    fn name_and_space() {
        let p = ParallelHiggs::new(tiny_config(), 1);
        assert_eq!(p.name(), "HIGGS-parallel");
        assert_eq!(p.summary().leaf_count(), 0);
        assert!(p.space_bytes() > 0);
    }

    #[test]
    fn flush_is_idempotent_and_safe_after_channel_close() {
        // Regression test for the drop/flush ordering bug: flushing used to
        // spin forever once the result channel disconnected with jobs still
        // counted in flight, and jobs dispatched after shutdown were silently
        // dropped, leaving nodes unmaterialised.
        let stream = edges(6_000);
        let mut sequential = HiggsSummary::new(tiny_config());
        let mut parallel = ParallelHiggs::new(tiny_config(), 2);
        for e in &stream[..3_000] {
            sequential.insert(e);
            parallel.insert(e);
        }
        parallel.flush();
        parallel.flush(); // double flush must be a no-op, not a hang

        // Close the job channel with work still streaming in afterwards: the
        // pipeline must aggregate inline instead of losing jobs or hanging.
        parallel.shutdown();
        for e in &stream[3_000..] {
            sequential.insert(e);
            parallel.insert(e);
        }
        parallel.flush();
        parallel.flush();
        assert_eq!(parallel.in_flight(), 0);
        assert!(
            parallel
                .summary()
                .internals
                .iter()
                .flatten()
                .all(|n| n.matrix.is_some()),
            "every aggregate must be materialised after flush"
        );
        for (lo, hi) in [(0u64, 5_999u64), (1_000, 4_500)] {
            let r = TimeRange::new(lo, hi);
            for v in (0..150u64).step_by(17) {
                assert_eq!(
                    sequential.edge_query(v, (v * 7) % 150, r),
                    parallel.edge_query(v, (v * 7) % 150, r)
                );
            }
        }
    }

    #[test]
    fn drop_mid_stream_does_not_hang() {
        // Dropping the pipeline with aggregation jobs still in flight (no
        // flush) must terminate: workers drain the job queue, their results
        // go unread, and the join in `shutdown` returns.
        let mut parallel = ParallelHiggs::new(tiny_config(), 3);
        for e in edges(5_000) {
            parallel.insert(&e);
        }
        drop(parallel);
    }

    #[test]
    fn flush_recovers_when_results_are_unreachable() {
        // Force the pathological interleaving directly: jobs dispatched, then
        // the workers vanish before the results are drained. `flush` must
        // rebuild the missing aggregates inline rather than spin.
        let mut parallel = ParallelHiggs::new(tiny_config(), 1);
        for e in edges(4_000) {
            parallel.insert(&e);
        }
        // Close the channel and join workers while results may be queued but
        // unread; then drop the queued results by draining the receiver dry.
        parallel.job_tx = None;
        for handle in parallel.workers.drain(..) {
            handle.join().expect("worker must exit cleanly");
        }
        while parallel.result_rx.try_recv().is_ok() {}
        let lost = parallel.in_flight;
        parallel.flush();
        assert_eq!(parallel.in_flight(), 0, "flush must converge (lost {lost})");
        let sequential = {
            let mut s = HiggsSummary::new(tiny_config());
            for e in edges(4_000) {
                s.insert(&e);
            }
            s
        };
        for v in (0..150u64).step_by(13) {
            assert_eq!(
                sequential.edge_query(v, (v * 7) % 150, TimeRange::all()),
                parallel.edge_query(v, (v * 7) % 150, TimeRange::all())
            );
        }
    }
}
