//! Social-network trend analysis (the paper's first motivating application):
//! detect which users drive the most interaction inside sliding temporal
//! windows, batching hundreds of vertex queries per window through the
//! plan-sharing [`query_batch`] executor — served through a
//! [`ServiceClient`] onto a 4-shard service, where each out-direction
//! vertex query routes straight to the single shard owning its user.
//!
//! Run with: `cargo run -p higgs-examples --release --example social_trends`

use higgs::{HiggsConfig, HiggsService};
use higgs_common::generator::{DatasetPreset, ExperimentScale};
use higgs_common::{
    Consistency, Query, QueryOptions, TemporalGraphSummary, TimeRange, VertexDirection,
};

fn main() {
    // A Wikipedia-talk-like interaction stream (users messaging each other).
    let stream = DatasetPreset::WikiTalk.generate(ExperimentScale::Smoke);
    let stats = stream.stats();
    println!(
        "social_trends — {} users, {} messages over {}",
        stats.vertices,
        stats.edges,
        stats.time_span.unwrap()
    );

    // Users are sharded by hash, so the message firehose is split over four
    // independent shard writers and trend queries fan across the shards.
    // The service front-end owns the shards; this analysis is one of its
    // clients (a dashboard and an ingest bridge would simply clone more).
    let config = HiggsConfig::builder()
        .shards(4)
        .build()
        .expect("paper defaults with 4 shards are valid");
    let service = HiggsService::new(config);
    let client = service.client();
    client
        .insert_all(stream.edges())
        .expect("a live service accepts the firehose");
    println!(
        "service built: {} shards holding {:?} leaves, {:.1} KiB total\n",
        service.num_shards(),
        service.summary().shard_leaf_counts(),
        service.summary().space_bytes() as f64 / 1024.0
    );

    // Split the stream's time span into four windows and find the most
    // active senders in each window. All 4 × 500 vertex queries go out as a
    // single batch: the executor plans each window's range once per shard
    // and shares it across the 500 queries probing that window. Trend
    // analysis tolerates slightly stale data, so the batch runs with
    // relaxed consistency — it never waits on pending ingest flushes.
    let span = stream.time_span().unwrap();
    let window = span.len() / 4;
    let candidates: Vec<u64> = stream.iter().map(|e| e.src).take(500).collect();

    let ranges: Vec<TimeRange> = (0..4u64)
        .map(|w| {
            TimeRange::new(
                span.start + w * window,
                (span.start + (w + 1) * window - 1).min(span.end),
            )
        })
        .collect();
    let batch: Vec<Query> = ranges
        .iter()
        .flat_map(|&range| {
            candidates
                .iter()
                .map(move |&u| Query::vertex(u, VertexDirection::Out, range))
        })
        .collect();
    client.flush(); // settle ingest so the relaxed read below sees it all
    service.reset_plan_count();
    let estimates = client
        .submit_batch_with(
            &batch,
            QueryOptions::new().consistency(Consistency::Relaxed),
        )
        .wait()
        .expect("service is live");
    println!(
        "ran {} vertex queries with {} query plans \
         (≤ 4 windows × {} shards: each shard plans each window once)\n",
        batch.len(),
        service.plans_built(),
        service.num_shards()
    );

    for (w, range) in ranges.iter().enumerate() {
        let start = w * candidates.len();
        let mut activity: Vec<(u64, u64)> = candidates
            .iter()
            .zip(&estimates[start..start + candidates.len()])
            .map(|(&u, &est)| (u, est))
            .collect();
        activity.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
        activity.dedup_by_key(|(u, _)| *u);
        println!("window {range}: top senders (user, est. messages)");
        for (user, weight) in activity.into_iter().filter(|&(_, w)| w > 0).take(5) {
            println!("    user {user:>8}  ~{weight} messages");
        }
    }
}
