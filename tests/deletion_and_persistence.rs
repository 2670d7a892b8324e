//! Deletion behaviour across every summary (Fig. 18 exercises deletion
//! throughput; these tests pin down its semantics).

use higgs::{HiggsConfig, HiggsSummary};
use higgs_baselines::{Horae, HoraeConfig, Pgss, PgssConfig};
use higgs_common::generator::{DatasetPreset, ExperimentScale};
use higgs_common::{StreamEdge, TemporalGraphSummary, TimeRange};

#[test]
fn deleting_everything_returns_every_summary_to_zero() {
    let stream = DatasetPreset::Lkml.generate(ExperimentScale::Smoke);
    let slices = stream.time_span().unwrap().end.next_power_of_two();
    let summaries: Vec<Box<dyn TemporalGraphSummary>> = vec![
        Box::new(HiggsSummary::new(HiggsConfig::paper_default())),
        Box::new(Horae::new(HoraeConfig::for_stream(stream.len(), slices))),
        Box::new(Pgss::new(PgssConfig::for_stream(stream.len(), slices))),
    ];
    for mut summary in summaries {
        summary.insert_all(stream.edges());
        for e in stream.edges() {
            summary.delete(e);
        }
        // Sample a few edges: aggregated weights must be back to zero.
        for e in stream.edges().iter().step_by(101).take(50) {
            assert_eq!(
                summary.edge_query(e.src, e.dst, TimeRange::all()),
                0,
                "{} left residue after full deletion",
                summary.name()
            );
        }
    }
}

#[test]
fn higgs_partial_deletion_updates_all_layers() {
    let mut summary = HiggsSummary::new(HiggsConfig {
        d1: 4,
        f1_bits: 14,
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
        journal_mode: higgs::JournalMode::Off,
    });
    let edges: Vec<StreamEdge> = (0..3_000u64)
        .map(|i| StreamEdge::new(i % 120, (i * 7) % 120, 2, i))
        .collect();
    summary.insert_all(&edges);
    assert!(summary.height() > 2, "need aggregated layers for this test");

    // Delete one edge occurrence and verify both a narrow (leaf-only) range
    // and the full range (which uses aggregated matrices) reflect it.
    let victim = edges[1_234];
    let narrow = TimeRange::new(victim.timestamp, victim.timestamp);
    let before_narrow = summary.edge_query(victim.src, victim.dst, narrow);
    let before_all = summary.edge_query(victim.src, victim.dst, TimeRange::all());
    summary.delete(&victim);
    assert_eq!(
        summary.edge_query(victim.src, victim.dst, narrow),
        before_narrow - victim.weight
    );
    assert_eq!(
        summary.edge_query(victim.src, victim.dst, TimeRange::all()),
        before_all - victim.weight
    );
}

#[test]
fn deletion_throughput_workload_leaves_structures_consistent() {
    // The Fig. 18 harness deletes a 20% prefix of the stream; the remaining
    // 80% must still be queryable and the deleted prefix must read as zero.
    let stream = DatasetPreset::Lkml.generate(ExperimentScale::Smoke);
    let deleted = stream.len() / 5;
    let mut summary = HiggsSummary::new(HiggsConfig::paper_default());
    summary.insert_all(stream.edges());
    for e in stream.edges().iter().take(deleted) {
        summary.delete(e);
    }
    // A surviving suffix edge keeps its weight.
    let survivor = &stream.edges()[stream.len() - 1];
    assert!(
        summary.edge_query(
            survivor.src,
            survivor.dst,
            TimeRange::new(survivor.timestamp, survivor.timestamp)
        ) >= survivor.weight
    );
    assert_eq!(summary.total_items(), (stream.len() - deleted) as u64);
}
