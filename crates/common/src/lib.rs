//! # higgs-common
//!
//! Shared substrate for the HIGGS (HIerarchy-Guided Graph Stream
//! Summarization, ICDE 2025) reproduction:
//!
//! * the graph-stream data model ([`StreamEdge`], [`GraphStream`],
//!   [`TimeRange`]),
//! * the hashing substrate used by every sketch (64-bit mixing, the
//!   fingerprint/address split of Eq. (1), linear-congruential address
//!   sequences for multiple mapping buckets),
//! * the [`TemporalGraphSummary`] trait that HIGGS and every baseline
//!   implement, together with the typed [`Query`] / [`QueryBatch`] surface
//!   (one entry point for all four TRQ kinds, batchable so implementations
//!   can share query plans) and composed path/subgraph queries,
//! * an exact ground-truth store ([`ExactTemporalGraph`]) for measuring
//!   average absolute / relative error,
//! * the binary persistence codec ([`codec`]): little-endian encode into a
//!   buffer and bounds-checked decode from a slice, with length-prefixed
//!   sections, the substrate of the `higgs` crate's snapshot and log formats,
//! * synthetic workload generators reproducing the skewed, bursty character
//!   of the paper's datasets (Lkml, Wikipedia-talk, Stackoverflow),
//! * the error / throughput / latency / space metrics of Section VI, and
//! * the hardware-acceleration substrate: lane-width slab sweep kernels with
//!   runtime SSE2/AVX2 dispatch behind the `simd` cargo feature ([`simd`]),
//!   the portable software-prefetch shim ([`prefetch_read_data`]), and
//!   raw-syscall thread-to-core pinning ([`affinity`]).
//!
//! Everything here is self-contained: no external sketch or graph library is
//! used, matching the "build every substrate" requirement of the
//! reproduction.

#![deny(missing_docs)]
// `deny` rather than `forbid`: the SIMD kernels, the prefetch intrinsic,
// and the affinity syscalls carry narrowly scoped `#[allow(unsafe_code)]`
// blocks with safety comments; everything else stays safe Rust.
#![deny(unsafe_code)]
// Every unsafe operation inside an `unsafe fn` must sit in its own explicit
// `unsafe {}` block, so each one carries its own `// SAFETY:` rationale —
// which `cargo run -p xtask -- lint` then enforces mechanically.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod affinity;
pub mod codec;
pub mod edge;
pub mod exact;
pub mod generator;
pub mod hashing;
pub mod metrics;
pub mod query;
pub mod simd;
pub mod time;

pub use codec::CodecError;
pub use edge::{GraphStream, StreamEdge, StreamStats, VertexId, Weight};
pub use exact::ExactTemporalGraph;
pub use hashing::{
    lcg_sequence, shard_of, vertex_hash, AddressSequence, FingerprintLayout, HashedVertex,
};
pub use metrics::{ErrorStats, LatencyStats, ThroughputStats};
pub use query::{
    group_by_range, Consistency, EdgeQuery, PathQuery, Priority, Query, QueryBatch, QueryOptions,
    QueryWorkload, RetryPolicy, ShardPlan, ShardRoute, SubgraphQuery, SummaryExt,
    TemporalGraphSummary, VertexDirection, VertexQuery,
};
pub use simd::{prefetch_read_data, sum_matching};
pub use time::{TimeRange, Timestamp};
