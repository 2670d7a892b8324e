//! The summary's in-memory size per edge, gated like a speed: the Lkml
//! smoke stream built into a two-shard service, the shape the end-to-end
//! benchmark builds at paper scale, must stay within 2 % of the size per
//! edge measured when sealed matrices moved to the sparse bucket index.
//!
//! The stream is fixed and the layout identical on every run, so the value
//! is deterministic; a change that grows any matrix's allocations shows up
//! here as a failure, not as a drift nobody reads.

use higgs::{HiggsConfig, ShardedHiggs};
use higgs_common::generator::{DatasetPreset, ExperimentScale};
use higgs_common::TemporalGraphSummary;

/// Bytes per edge measured for the Lkml smoke stream over two shards:
/// 271 020 bytes for 6 000 edges on a 64-bit target.
const MEASURED: f64 = 45.17;
/// The gate: 2 % above the measured value.
const CEILING: f64 = MEASURED * 1.02;

#[test]
fn two_shard_lkml_smoke_space_per_edge_stays_under_its_ceiling() {
    let stream = DatasetPreset::Lkml.generate(ExperimentScale::Smoke);
    let config = HiggsConfig::builder()
        .shards(2)
        .build()
        .expect("paper defaults over two shards");
    let mut service = ShardedHiggs::new(config);
    service.insert_all(stream.edges());
    let per_edge = service.space_bytes() as f64 / stream.edges().len() as f64;
    println!(
        "space: {per_edge:.6} B/edge ({} edges)",
        stream.edges().len()
    );
    assert!(
        per_edge <= CEILING,
        "the two-shard Lkml smoke summary takes {per_edge:.4} B/edge, above its \
         ceiling of {CEILING:.4} (measured {MEASURED:.4})"
    );
}
