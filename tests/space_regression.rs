//! The summary's size per edge, gated like a speed, in memory and on disk:
//!
//! * the Lkml smoke stream built into a two-shard service, the shape the
//!   end-to-end benchmark builds at paper scale, must stay within 2 % of the
//!   size per edge measured when sealed matrices moved to the sparse bucket
//!   index;
//! * the same stream through a buffered, elastic store's lifecycle (half,
//!   snapshot, rest, drop) must leave a durable directory within 2 % of the
//!   size per edge measured when the logs moved to varint records.
//!
//! The stream is fixed and the layout identical on every run, so the values
//! are deterministic; a change that grows any matrix's allocations or any
//! log record shows up here as a failure, not as a drift nobody reads.

use higgs::{HiggsConfig, JournalMode, ShardedHiggs, Store, StoreOptions};
use higgs_common::generator::{DatasetPreset, ExperimentScale};
use higgs_common::{Query, TemporalGraphSummary, TimeRange, VertexDirection};
use std::path::{Path, PathBuf};

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

/// Directory bytes per edge the durable lifecycle leaves for the Lkml smoke
/// stream over two shards (snapshot, journals and history logs together):
/// 163 390 bytes for 6 000 edges.
const DURABLE_MEASURED: f64 = 27.23;
/// The gate: 2 % above the measured value.
const DURABLE_CEILING: f64 = DURABLE_MEASURED * 1.02;

/// A temp directory removed on drop.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total bytes of the files directly in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("list durable directory")
        .map(|entry| entry.expect("directory entry").metadata().expect("stat"))
        .filter(|meta| meta.is_file())
        .map(|meta| meta.len())
        .sum()
}

#[test]
fn two_shard_lkml_smoke_durable_directory_per_edge_stays_under_its_ceiling() {
    let stream = DatasetPreset::Lkml.generate(ExperimentScale::Smoke);
    let edges = stream.edges();
    let dir =
        TempDir(std::env::temp_dir().join(format!("higgs-space-durable-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    let config = HiggsConfig::builder()
        .shards(2)
        .journal_mode(JournalMode::Buffered)
        .build()
        .expect("paper defaults over two buffered shards");
    let elastic = || StoreOptions::durable(config, &dir.0).elastic(true);

    let mut service = Store::open(elastic()).expect("fresh durable store");
    let half = edges.len() / 2;
    service.insert_all(&edges[..half]);
    service.snapshot_to_dir(&dir.0).expect("snapshot");
    service.insert_all(&edges[half..]);
    service.flush();
    let last = edges.last().expect("a non-empty stream").timestamp;
    let probes: Vec<Query> = edges
        .iter()
        .step_by(97)
        .flat_map(|e| {
            [
                Query::edge(e.src, e.dst, TimeRange::all()),
                Query::vertex(e.src, VertexDirection::Out, TimeRange::new(0, last / 2)),
            ]
        })
        .collect();
    let before = service.query_batch(&probes);
    drop(service);

    let per_edge = dir_bytes(&dir.0) as f64 / edges.len() as f64;
    println!(
        "durable directory: {per_edge:.6} B/edge ({} edges)",
        edges.len()
    );
    let reopened = Store::open(elastic()).expect("reopen");
    assert_eq!(
        reopened.query_batch(&probes),
        before,
        "the reopened store answers as the live one did"
    );
    assert!(
        per_edge <= DURABLE_CEILING,
        "the two-shard Lkml smoke durable directory takes {per_edge:.4} B/edge, above \
         its ceiling of {DURABLE_CEILING:.4} (measured {DURABLE_MEASURED:.4})"
    );
}
